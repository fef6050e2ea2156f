package gf256

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
)

// kernelLengths covers the shapes the kernels special-case: empty,
// sub-word, word-boundary, and unaligned tails on either side of the
// 8-byte XOR step, up to the paper's 1316-byte packet.
var kernelLengths = []int{0, 1, 7, 8, 9, 15, 16, 17, 31, 32, 33, 63, 64, 65, 100, 255, 256, 257, 1316}

func TestMulSliceMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range kernelLengths {
		for _, c := range []byte{0, 1, 2, 3, 0x1d, 0x80, 0xfe, 0xff, byte(rng.Intn(256))} {
			src := make([]byte, n)
			rng.Read(src)
			dst := make([]byte, n)
			rng.Read(dst)
			want := append([]byte(nil), dst...)
			MulSliceRef(c, src, want)
			got := append([]byte(nil), dst...)
			MulSlice(c, src, got)
			if !bytes.Equal(got, want) {
				t.Fatalf("MulSlice(c=%#x, n=%d) diverges from reference", c, n)
			}
		}
	}
}

func TestMulAddSlicesMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, n := range kernelLengths {
		// Source counts around the 4-way grouping boundary, including
		// the paper's k=101.
		for _, rows := range []int{1, 2, 3, 4, 5, 7, 8, 9, 101} {
			coeffs := make([]byte, rows)
			srcs := make([][]byte, rows)
			for j := range srcs {
				coeffs[j] = byte(rng.Intn(256)) // zeros and ones included
				srcs[j] = make([]byte, n)
				rng.Read(srcs[j])
			}
			dst := make([]byte, n)
			rng.Read(dst)
			want := append([]byte(nil), dst...)
			MulAddSlicesRef(coeffs, srcs, want)
			got := append([]byte(nil), dst...)
			MulAddSlices(coeffs, srcs, got)
			if !bytes.Equal(got, want) {
				t.Fatalf("MulAddSlices(rows=%d, n=%d) diverges from reference", rows, n)
			}
		}
	}
}

func TestMulSliceUnalignedViews(t *testing.T) {
	// Slices handed to the kernels rarely start at word boundaries;
	// sweep every offset within 32 bytes, four times the XOR step.
	rng := rand.New(rand.NewSource(3))
	backingSrc := make([]byte, 4096)
	backingDst := make([]byte, 4096)
	rng.Read(backingSrc)
	for off := 0; off < 32; off++ {
		for _, n := range []int{33, 256, 1316} {
			src := backingSrc[off : off+n]
			rng.Read(backingDst)
			dst := backingDst[off : off+n]
			want := append([]byte(nil), dst...)
			MulSliceRef(0xb7, src, want)
			MulSlice(0xb7, src, dst)
			if !bytes.Equal(dst, want) {
				t.Fatalf("MulSlice diverges at offset %d length %d", off, n)
			}
		}
	}
}

func TestScaleSliceMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for _, n := range kernelLengths {
		for _, c := range []byte{0, 1, 2, 0x53, 0xff} {
			s := make([]byte, n)
			rng.Read(s)
			want := make([]byte, n)
			for i, v := range s {
				want[i] = Mul(c, v)
			}
			got := append([]byte(nil), s...)
			ScaleSlice(c, got)
			if !bytes.Equal(got, want) {
				t.Fatalf("ScaleSlice(c=%#x, n=%d) diverges from scalar Mul", c, n)
			}
		}
	}
}

func TestMulAddSlicesMismatchPanics(t *testing.T) {
	t.Run("coeffs", func(t *testing.T) {
		defer func() {
			if recover() == nil {
				t.Fatal("no panic for coefficient/source count mismatch")
			}
		}()
		MulAddSlices([]byte{1, 2}, [][]byte{make([]byte, 4)}, make([]byte, 4))
	})
	t.Run("length", func(t *testing.T) {
		defer func() {
			if recover() == nil {
				t.Fatal("no panic for source/dst length mismatch")
			}
		}()
		MulAddSlices([]byte{1}, [][]byte{make([]byte, 3)}, make([]byte, 4))
	})
}

func TestTableForIsConsistent(t *testing.T) {
	for c := 0; c < 256; c++ {
		tab := tableFor(byte(c))
		for b := 0; b < 256; b++ {
			want := Mul(byte(c), byte(b))
			if tab[b] != want {
				t.Fatalf("table for c=%#x wrong at b=%#x", c, b)
			}
		}
	}
}

// FuzzKernels holds MulSlice, MulAddSlices and ScaleSlice to the
// byte-at-a-time reference on any length up to 4 KB, any coefficient, row
// counts on both sides of mulAdd4's four-row fold (101 included), and
// sources and destination cut from their backing at independent offsets.
// The corpus is seeded with kernelLengths and two lengths past 2 KB, since
// the fuzzer's small steps on a length seldom carry it that far.
func FuzzKernels(f *testing.F) {
	for i, n := range append(kernelLengths, 2049, 4096) {
		rows := []uint8{1, 3, 4, 5, 8, 9, 101}[i%7]
		f.Add(uint16(n), []byte{0, 1, 0x5b, 0xb7}[i%4], rows, uint8(i*37), int64(i))
	}
	f.Fuzz(func(t *testing.T, n16 uint16, c byte, rows8 uint8, off uint8, seed int64) {
		n, rows := int(n16%4097), int(rows8%128)
		srcOff, dstOff := int(off&31), int(off>>5)
		rng := rand.New(rand.NewSource(seed))
		// cut returns n random bytes that start at offset o of their backing.
		cut := func(o int) []byte {
			b := make([]byte, o+n)
			rng.Read(b)
			return b[o : o+n]
		}
		// coeff draws a coefficient, a 0 or a 1 one time in four.
		coeff := func() byte {
			if rng.Intn(4) == 0 {
				return byte(rng.Intn(2))
			}
			return byte(rng.Intn(256))
		}

		src, dst := cut(srcOff), cut(dstOff)
		want := append([]byte(nil), dst...)
		MulSliceRef(c, src, want)
		MulSlice(c, src, dst)
		if !bytes.Equal(dst, want) {
			t.Fatalf("MulSlice(c=%#x, n=%d, offsets %d/%d) diverges from reference", c, n, srcOff, dstOff)
		}

		coeffs := make([]byte, rows)
		srcs := make([][]byte, rows)
		for j := range srcs {
			coeffs[j] = coeff()
			srcs[j] = cut(srcOff + j%2)
		}
		if rows > 0 {
			coeffs[0] = c
		}
		dst = cut(dstOff)
		want = append(want[:0], dst...)
		MulAddSlicesRef(coeffs, srcs, want)
		MulAddSlices(coeffs, srcs, dst)
		if !bytes.Equal(dst, want) {
			t.Fatalf("MulAddSlices(rows=%d, n=%d, offsets %d/%d) diverges from reference", rows, n, srcOff, dstOff)
		}

		s := cut(dstOff)
		for i, v := range s {
			want[i] = Mul(c, v)
		}
		ScaleSlice(c, s)
		if !bytes.Equal(s, want) {
			t.Fatalf("ScaleSlice(c=%#x, n=%d, offset %d) diverges from scalar Mul", c, n, dstOff)
		}
	})
}

func benchSlices(n, rows int) ([]byte, [][]byte, []byte) {
	rng := rand.New(rand.NewSource(5))
	coeffs := make([]byte, rows)
	srcs := make([][]byte, rows)
	for j := range srcs {
		coeffs[j] = byte(2 + rng.Intn(254))
		srcs[j] = make([]byte, n)
		rng.Read(srcs[j])
	}
	dst := make([]byte, n)
	return coeffs, srcs, dst
}

func BenchmarkMulSlice(b *testing.B) {
	for _, n := range []int{64, 1316, 65536} {
		_, srcs, dst := benchSlices(n, 1)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.SetBytes(int64(n))
			for i := 0; i < b.N; i++ {
				MulSlice(0xb7, srcs[0], dst)
			}
		})
	}
}

func BenchmarkMulSliceRef(b *testing.B) {
	for _, n := range []int{64, 1316, 65536} {
		_, srcs, dst := benchSlices(n, 1)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.SetBytes(int64(n))
			for i := 0; i < b.N; i++ {
				MulSliceRef(0xb7, srcs[0], dst)
			}
		})
	}
}

func BenchmarkMulAddSlices(b *testing.B) {
	coeffs, srcs, dst := benchSlices(1316, 101)
	b.SetBytes(int64(len(srcs) * 1316))
	for i := 0; i < b.N; i++ {
		MulAddSlices(coeffs, srcs, dst)
	}
}

func BenchmarkMulAddSlicesRef(b *testing.B) {
	coeffs, srcs, dst := benchSlices(1316, 101)
	b.SetBytes(int64(len(srcs) * 1316))
	for i := 0; i < b.N; i++ {
		MulAddSlicesRef(coeffs, srcs, dst)
	}
}
