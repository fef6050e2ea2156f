package fec

import (
	"bytes"
	"math/rand"
	"testing"

	"gossipstream/internal/gf256"
)

// encodeRef computes parity with the retained byte-at-a-time gf256
// reference kernel — the baseline the table-driven codec is differentially
// tested and benchmarked against.
func encodeRef(c *Code, data [][]byte) [][]byte {
	size := len(data[0])
	parity := make([][]byte, c.m)
	for p := range parity {
		parity[p] = make([]byte, size)
		gf256.MulAddSlicesRef(c.gen.Row(c.k+p), data, parity[p])
	}
	return parity
}

func randomWindow(t testing.TB, c *Code, size int, seed int64) [][]byte {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	data := make([][]byte, c.DataShares())
	for i := range data {
		data[i] = make([]byte, size)
		rng.Read(data[i])
	}
	return data
}

func TestEncodeMatchesReference(t *testing.T) {
	for _, size := range []int{0, 1, 7, 8, 9, 31, 32, 33, 1316} {
		c := MustNew(17, 5)
		data := randomWindow(t, c, size, int64(size))
		want := encodeRef(c, data)
		got, err := c.Encode(data)
		if err != nil {
			t.Fatalf("Encode(size=%d): %v", size, err)
		}
		for p := range want {
			if !bytes.Equal(got[p], want[p]) {
				t.Fatalf("size=%d parity %d diverges from byte-at-a-time reference", size, p)
			}
		}
	}
}

func TestEncodeIntoMatchesEncode(t *testing.T) {
	c := MustNew(PaperDataShares, PaperParityShares)
	data := randomWindow(t, c, 1316, 7)
	want, err := c.Encode(data)
	if err != nil {
		t.Fatal(err)
	}
	parity := make([][]byte, c.ParityShares())
	for p := range parity {
		parity[p] = make([]byte, 1316)
		parity[p][0] = 0xaa // must be overwritten, not folded in
	}
	if err := c.EncodeInto(data, parity); err != nil {
		t.Fatal(err)
	}
	for p := range parity {
		if !bytes.Equal(parity[p], want[p]) {
			t.Fatalf("EncodeInto parity %d != Encode parity", p)
		}
	}
}

func TestEncodeIntoValidation(t *testing.T) {
	c := MustNew(4, 2)
	data := randomWindow(t, c, 16, 1)
	if err := c.EncodeInto(data, make([][]byte, 1)); err == nil {
		t.Error("wrong parity count accepted")
	}
	parity := [][]byte{make([]byte, 16), make([]byte, 15)}
	if err := c.EncodeInto(data, parity); err == nil {
		t.Error("wrong parity buffer length accepted")
	}
}

func TestEncodeIntoZeroAllocs(t *testing.T) {
	c := MustNew(PaperDataShares, PaperParityShares)
	data := randomWindow(t, c, 1316, 9)
	parity := make([][]byte, c.ParityShares())
	for p := range parity {
		parity[p] = make([]byte, 1316)
	}
	// Warm the lazily built coefficient tables before measuring.
	if err := c.EncodeInto(data, parity); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(10, func() {
		if err := c.EncodeInto(data, parity); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("EncodeInto allocates %.1f objects per window, want 0", allocs)
	}
}

// loseShares drops the data shares in lost and returns the survivors in
// Share form, parity included.
func loseShares(c *Code, data, parity [][]byte, lost map[int]bool) []Share {
	var shares []Share
	for i, d := range data {
		if !lost[i] {
			shares = append(shares, Share{Index: i, Data: d})
		}
	}
	for p, d := range parity {
		if !lost[c.DataShares()+p] {
			shares = append(shares, Share{Index: c.DataShares() + p, Data: d})
		}
	}
	return shares
}

func TestReconstructIntoMatchesData(t *testing.T) {
	c := MustNew(PaperDataShares, PaperParityShares)
	data := randomWindow(t, c, 1316, 11)
	parity, err := c.Encode(data)
	if err != nil {
		t.Fatal(err)
	}
	shares := loseShares(c, data, parity, map[int]bool{0: true, 50: true, 100: true})
	out := make([][]byte, c.DataShares())
	for i := range out {
		out[i] = make([]byte, 1316)
	}
	if err := c.ReconstructInto(shares, out); err != nil {
		t.Fatal(err)
	}
	for i := range data {
		if !bytes.Equal(out[i], data[i]) {
			t.Fatalf("share %d not recovered", i)
		}
		if i != 0 && &out[i][0] == &data[i][0] {
			t.Fatalf("out[%d] aliases the input share; ReconstructInto must copy", i)
		}
	}
}

func TestReconstructIntoValidation(t *testing.T) {
	c := MustNew(4, 2)
	data := randomWindow(t, c, 16, 2)
	parity, err := c.Encode(data)
	if err != nil {
		t.Fatal(err)
	}
	shares := loseShares(c, data, parity, map[int]bool{1: true})
	if err := c.ReconstructInto(shares, make([][]byte, 3)); err == nil {
		t.Error("wrong output count accepted")
	}
	out := [][]byte{make([]byte, 16), make([]byte, 16), make([]byte, 15), make([]byte, 16)}
	if err := c.ReconstructInto(shares, out); err == nil {
		t.Error("wrong output buffer length accepted")
	}
}

func TestReconstructIntoSteadyStateZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector defeats sync.Pool reuse; allocation counts are meaningless")
	}
	c := MustNew(PaperDataShares, PaperParityShares)
	data := randomWindow(t, c, 1316, 13)
	parity, err := c.Encode(data)
	if err != nil {
		t.Fatal(err)
	}
	lost := map[int]bool{3: true, 77: true}
	shares := loseShares(c, data, parity, lost)
	out := make([][]byte, c.DataShares())
	for i := range out {
		out[i] = make([]byte, 1316)
	}
	// First call populates the decode-matrix cache for this loss pattern.
	if err := c.ReconstructInto(shares, out); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(10, func() {
		if err := c.ReconstructInto(shares, out); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state ReconstructInto allocates %.1f objects, want 0", allocs)
	}
}

func TestDecodeMatrixCache(t *testing.T) {
	c := MustNew(8, 4)
	data := randomWindow(t, c, 64, 17)
	parity, err := c.Encode(data)
	if err != nil {
		t.Fatal(err)
	}
	patterns := []map[int]bool{
		{0: true},
		{0: true, 5: true},
		{2: true, 3: true, 7: true},
	}
	out := make([][]byte, c.DataShares())
	for i := range out {
		out[i] = make([]byte, 64)
	}
	for round := 0; round < 3; round++ {
		for _, lost := range patterns {
			if err := c.ReconstructInto(loseShares(c, data, parity, lost), out); err != nil {
				t.Fatal(err)
			}
			for i := range data {
				if !bytes.Equal(out[i], data[i]) {
					t.Fatalf("round %d lost=%v: share %d wrong", round, lost, i)
				}
			}
		}
	}
	c.invMu.RLock()
	cached := len(c.invCache)
	c.invMu.RUnlock()
	if cached != len(patterns) {
		t.Fatalf("decode cache holds %d inversions, want one per loss pattern (%d)", cached, len(patterns))
	}
}

func TestDecodeMatrixCacheEviction(t *testing.T) {
	c := MustNew(6, 4)
	data := randomWindow(t, c, 32, 19)
	parity, err := c.Encode(data)
	if err != nil {
		t.Fatal(err)
	}
	// Seed the cache over capacity by cycling many distinct loss patterns.
	out := make([][]byte, c.DataShares())
	for i := range out {
		out[i] = make([]byte, 32)
	}
	for a := 0; a < c.DataShares(); a++ {
		for b := a + 1; b < c.DataShares(); b++ {
			for cc := b + 1; cc < c.DataShares(); cc++ {
				lost := map[int]bool{a: true, b: true, cc: true}
				if err := c.ReconstructInto(loseShares(c, data, parity, lost), out); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	c.invMu.RLock()
	cached := len(c.invCache)
	c.invMu.RUnlock()
	if cached > maxCachedInversions {
		t.Fatalf("decode cache grew to %d entries, cap is %d", cached, maxCachedInversions)
	}
}

// FuzzReconstruct round-trips random windows through Encode and
// Reconstruct/ReconstructInto under a random loss pattern: whatever k
// distinct shares survive must reproduce the original data exactly.
func FuzzReconstruct(f *testing.F) {
	f.Add(int64(1), uint16(4), uint16(3), uint16(32), uint64(0b1011))
	f.Add(int64(2), uint16(10), uint16(4), uint16(0), uint64(0))
	f.Add(int64(3), uint16(1), uint16(1), uint16(1), uint64(1))
	f.Fuzz(func(t *testing.T, seed int64, kRaw, mRaw, sizeRaw uint16, lossMask uint64) {
		k := int(kRaw)%32 + 1
		m := int(mRaw) % 32
		size := int(sizeRaw) % 512
		c, err := New(k, m)
		if err != nil {
			t.Skip()
		}
		rng := rand.New(rand.NewSource(seed))
		data := make([][]byte, k)
		for i := range data {
			data[i] = make([]byte, size)
			rng.Read(data[i])
		}
		parity, err := c.Encode(data)
		if err != nil {
			t.Fatal(err)
		}
		// Drop shares named by lossMask bits, but never below k survivors.
		var shares []Share
		dropped := 0
		for i := 0; i < k+m; i++ {
			if lossMask&(1<<uint(i%64)) != 0 && dropped < m {
				dropped++
				continue
			}
			d := data
			idx := i
			if i >= k {
				d, idx = parity, i-k
			}
			shares = append(shares, Share{Index: i, Data: d[idx]})
		}
		got, err := c.Reconstruct(shares)
		if err != nil {
			t.Fatalf("Reconstruct with %d losses: %v", dropped, err)
		}
		for i := range data {
			if !bytes.Equal(got[i], data[i]) {
				t.Fatalf("Reconstruct: share %d wrong", i)
			}
		}
		out := make([][]byte, k)
		for i := range out {
			out[i] = make([]byte, size)
		}
		if err := c.ReconstructInto(shares, out); err != nil {
			t.Fatal(err)
		}
		for i := range data {
			if !bytes.Equal(out[i], data[i]) {
				t.Fatalf("ReconstructInto: share %d wrong", i)
			}
		}
	})
}

// BenchmarkFECEncode measures the table-driven encoder on the paper's
// (101, 9) window of 1316-byte packets. Compare with BenchmarkFECEncodeRef
// for the speedup over the byte-at-a-time baseline.
func BenchmarkFECEncode(b *testing.B) {
	c := MustNew(PaperDataShares, PaperParityShares)
	data := randomWindow(b, c, 1316, 23)
	parity := make([][]byte, c.ParityShares())
	for p := range parity {
		parity[p] = make([]byte, 1316)
	}
	b.SetBytes(int64(c.DataShares() * 1316))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := c.EncodeInto(data, parity); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFECEncodeRef is the byte-at-a-time log/exp baseline retained
// from the original codec.
func BenchmarkFECEncodeRef(b *testing.B) {
	c := MustNew(PaperDataShares, PaperParityShares)
	data := randomWindow(b, c, 1316, 23)
	b.SetBytes(int64(c.DataShares() * 1316))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		encodeRef(c, data)
	}
}

// BenchmarkFECReconstruct measures steady-state window repair: the paper's
// worst case of 9 lost data packets, decode matrix already cached.
func BenchmarkFECReconstruct(b *testing.B) {
	c := MustNew(PaperDataShares, PaperParityShares)
	data := randomWindow(b, c, 1316, 29)
	parity, err := c.Encode(data)
	if err != nil {
		b.Fatal(err)
	}
	lost := make(map[int]bool, c.ParityShares())
	for i := 0; i < c.ParityShares(); i++ {
		lost[i*11] = true
	}
	shares := loseShares(c, data, parity, lost)
	out := make([][]byte, c.DataShares())
	for i := range out {
		out[i] = make([]byte, 1316)
	}
	b.SetBytes(int64(c.DataShares() * 1316))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := c.ReconstructInto(shares, out); err != nil {
			b.Fatal(err)
		}
	}
}
