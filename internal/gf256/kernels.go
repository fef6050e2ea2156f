package gf256

import (
	"encoding/binary"
	"fmt"
	"sync/atomic"
)

// This file holds the throughput-oriented kernels behind MulSlice and
// MulAddSlices. The byte-at-a-time log/exp implementation is retained as
// MulSliceRef/MulAddSlicesRef: it is the reference the table-driven and
// SIMD paths are differentially tested against, and the baseline the
// kernel benchmarks compare to.
//
// Three tiers, fastest first:
//
//  1. amd64 with AVX2: 32 bytes per step via PSHUFB over split low/high
//     nibble tables (product = low[b&15] ^ high[b>>4], each a 16-entry
//     shuffle).
//  2. Portable Go: one 256-entry product table per coefficient, four
//     source rows folded into the destination per pass (mulAdd4) so the
//     destination is read and written once per four row operations.
//  3. c == 1: plain XOR, eight bytes per step through uint64 words.
//
// Product tables are built lazily, one atomic publication per coefficient,
// and shared process-wide: the 909 generator entries of the paper's
// (101, 9) code resolve to at most 255 distinct tables of 288 bytes each.

// mulTab caches every precomputed form of multiplication by one coefficient.
type mulTab struct {
	// full[b] = c·b, the portable kernel's lookup.
	full [256]byte
	// nib holds the split nibble tables back to back — nib[0:16] are the
	// products of c with the 16 low-nibble values, nib[16:32] with the 16
	// high-nibble values (b<<4) — in the exact layout the PSHUFB kernel
	// broadcasts from.
	nib [32]byte
}

// mulTabs caches one mulTab per coefficient, built on first use. Entries
// are immutable once published, so a racing rebuild is harmless.
var mulTabs [256]atomic.Pointer[mulTab]

// tableFor returns the cached multiplication tables for c, building them
// on first use.
func tableFor(c byte) *mulTab {
	if t := mulTabs[c].Load(); t != nil {
		return t
	}
	t := new(mulTab)
	for b := 0; b < 256; b++ {
		t.full[b] = mulRef(c, byte(b))
	}
	for n := 0; n < 16; n++ {
		t.nib[n] = mulRef(c, byte(n))
		t.nib[16+n] = mulRef(c, byte(n<<4))
	}
	mulTabs[c].Store(t)
	return t
}

// mulRef multiplies through the log/exp tables — the scalar definition all
// table contents derive from.
func mulRef(a, b byte) byte {
	if a == 0 || b == 0 {
		return 0
	}
	return expTable[int(logTable[a])+int(logTable[b])]
}

// MulSliceRef is the byte-at-a-time reference implementation of MulSlice,
// retained verbatim from the original codec. Differential tests check the
// optimized kernels against it and the baseline benchmarks measure it.
func MulSliceRef(c byte, src, dst []byte) {
	if len(src) != len(dst) {
		panic(fmt.Sprintf("gf256: MulSlice length mismatch %d != %d", len(src), len(dst)))
	}
	if c == 0 {
		return
	}
	if c == 1 {
		for i, s := range src {
			dst[i] ^= s
		}
		return
	}
	logC := int(logTable[c])
	for i, s := range src {
		if s != 0 {
			dst[i] ^= expTable[logC+int(logTable[s])]
		}
	}
}

// MulAddSlicesRef is the reference implementation of MulAddSlices.
func MulAddSlicesRef(coeffs []byte, srcs [][]byte, dst []byte) {
	if len(coeffs) != len(srcs) {
		panic(fmt.Sprintf("gf256: MulAddSlices got %d coefficients for %d sources", len(coeffs), len(srcs)))
	}
	for j, src := range srcs {
		MulSliceRef(coeffs[j], src, dst)
	}
}

// xorSlice computes dst[i] ^= src[i] eight bytes at a time.
func xorSlice(src, dst []byte) {
	n := len(dst)
	src = src[:n]
	i := 0
	for ; i+8 <= n; i += 8 {
		binary.LittleEndian.PutUint64(dst[i:],
			binary.LittleEndian.Uint64(dst[i:])^binary.LittleEndian.Uint64(src[i:]))
	}
	for ; i < n; i++ {
		dst[i] ^= src[i]
	}
}

// mulAddTable computes dst[i] ^= t.full[src[i]] with the portable
// single-table kernel, dispatching to SIMD when available.
func mulAddTable(t *mulTab, src, dst []byte) {
	n := len(dst)
	if useSIMD && n >= simdBlock {
		done := mulAddSIMD(t, src, dst)
		src, dst = src[done:], dst[done:]
		n -= done
	}
	full := &t.full
	src = src[:n]
	for i := 0; i < n; i++ {
		dst[i] ^= full[src[i]]
	}
}

// mulAdd4 folds four source rows into dst in one pass, the portable
// fallback's answer to the destination-bandwidth bound: dst is loaded and
// stored once per four row operations instead of once per row.
func mulAdd4(t0, t1, t2, t3 *mulTab, s0, s1, s2, s3, dst []byte) {
	f0, f1, f2, f3 := &t0.full, &t1.full, &t2.full, &t3.full
	n := len(dst)
	s0, s1, s2, s3 = s0[:n], s1[:n], s2[:n], s3[:n]
	for i := 0; i < n; i++ {
		dst[i] ^= f0[s0[i]] ^ f1[s1[i]] ^ f2[s2[i]] ^ f3[s3[i]]
	}
}

// MulSlice computes dst[i] ^= c * src[i] for all i — the row operation at
// the heart of Reed–Solomon encoding and Gaussian elimination. dst and src
// must have equal length.
//
//lint:hot runs per byte of every encoded window
func MulSlice(c byte, src, dst []byte) {
	if len(src) != len(dst) {
		panic(fmt.Sprintf("gf256: MulSlice length mismatch %d != %d", len(src), len(dst)))
	}
	switch c {
	case 0:
		return
	case 1:
		xorSlice(src, dst)
		return
	}
	mulAddTable(tableFor(c), src, dst)
}

// MulAddSlices applies one generator row across a batch of buffers:
// dst[i] ^= Σ_j coeffs[j]·srcs[j][i]. It is equivalent to calling MulSlice
// once per source but substantially faster: sources are folded into dst
// four at a time (portable path) or streamed through the SIMD kernel, and
// every coefficient's product table is resolved once up front. Every src
// must have the same length as dst.
//
//lint:hot runs per byte of every encoded window
func MulAddSlices(coeffs []byte, srcs [][]byte, dst []byte) {
	if len(coeffs) != len(srcs) {
		panic(fmt.Sprintf("gf256: MulAddSlices got %d coefficients for %d sources", len(coeffs), len(srcs)))
	}
	for _, src := range srcs {
		if len(src) != len(dst) {
			panic(fmt.Sprintf("gf256: MulAddSlices length mismatch %d != %d", len(src), len(dst)))
		}
	}
	if useSIMD && len(dst) >= simdBlock {
		for j, src := range srcs {
			switch c := coeffs[j]; c {
			case 0:
			case 1:
				xorSlice(src, dst)
			default:
				mulAddTable(tableFor(c), src, dst)
			}
		}
		return
	}
	j := 0
	for ; j+4 <= len(srcs); j += 4 {
		// Zero and one coefficients pass through the table kernel
		// unchanged (their tables are the zero map and the identity), so
		// no special-casing is needed to stay correct.
		mulAdd4(tableFor(coeffs[j]), tableFor(coeffs[j+1]), tableFor(coeffs[j+2]), tableFor(coeffs[j+3]),
			srcs[j], srcs[j+1], srcs[j+2], srcs[j+3], dst)
	}
	for ; j < len(srcs); j++ {
		MulSlice(coeffs[j], srcs[j], dst)
	}
}

// ScaleSlice multiplies every byte of s in place by c.
//
//lint:hot runs per byte of every decoded window
func ScaleSlice(c byte, s []byte) {
	switch c {
	case 1:
		return
	case 0:
		clear(s)
		return
	}
	full := &tableFor(c).full
	for i, v := range s {
		s[i] = full[v]
	}
}
