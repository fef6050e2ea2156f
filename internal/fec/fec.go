// Package fec implements the systematic forward-error-correction code the
// paper's source applies to each stream window: 101 data packets are
// extended with 9 parity packets so that any 101 of the 110 reconstruct the
// window ("systematic coding", §4 of the paper).
//
// The code is a classic systematic Reed–Solomon erasure code over GF(2^8):
// the generator matrix is a Vandermonde matrix row-reduced so its top k×k
// block is the identity. Data shares are therefore transmitted verbatim and
// decoding is only needed for windows with losses.
//
// Two API tiers are offered. Encode and Reconstruct allocate their outputs
// and are convenient for one-shot use. EncodeInto and ReconstructInto write
// into caller-owned buffers and allocate nothing in steady state: decode
// scratch state is drawn from a sync.Pool and decode-matrix inversions are
// cached per received-share index set, which repeats heavily under steady
// loss patterns.
//
//lint:deterministic encode and decode must give the same bytes on every run
package fec

import (
	"errors"
	"fmt"
	"sync"

	"gossipstream/internal/gf256"
)

// Common parameters from the paper's streaming configuration.
const (
	// PaperDataShares is the number of original packets per window.
	PaperDataShares = 101
	// PaperParityShares is the number of FEC packets per window.
	PaperParityShares = 9
	// PaperTotalShares is the total window size in packets.
	PaperTotalShares = PaperDataShares + PaperParityShares
)

// maxCachedInversions bounds the decode-matrix cache. Each entry is a k×k
// matrix (~10 KiB for the paper's k=101); 1024 entries comfortably cover
// the loss patterns of a steady-state run while bounding worst-case memory.
const maxCachedInversions = 1024

// ErrNotEnoughShares is returned by Reconstruct when fewer than k distinct
// shares are supplied.
var ErrNotEnoughShares = errors.New("fec: not enough shares to reconstruct")

// Code is an immutable (k, k+m) systematic erasure code. It is safe for
// concurrent use once constructed.
type Code struct {
	k, m int
	// gen is the (k+m)×k generator matrix; its top k rows are the identity.
	gen *gf256.Matrix

	// scratch pools per-reconstruction working state so steady-state
	// decoding allocates nothing.
	scratch sync.Pool

	// invMu guards invCache, mapping the byte string of the k row indexes
	// used for decoding to the inverted decode matrix.
	invMu    sync.RWMutex
	invCache map[string]*gf256.Matrix
}

// decodeScratch is the reusable working state of one reconstruction.
type decodeScratch struct {
	have    [][]byte // share payload by index, nil when missing; len k+m
	rowIdx  []byte   // indexes of the k shares used for decoding
	rows    [][]byte // payloads of those shares, parallel to rowIdx
	missing []int    // data share indexes to decode
}

// New constructs a systematic code with k data shares and m parity shares.
// k+m must not exceed 255 (the nonzero-element count of GF(2^8) bounds the
// number of distinct Vandermonde rows).
func New(k, m int) (*Code, error) {
	if k <= 0 || m < 0 {
		return nil, fmt.Errorf("fec: invalid parameters k=%d m=%d", k, m)
	}
	if k+m > 255 {
		return nil, fmt.Errorf("fec: k+m = %d exceeds 255", k+m)
	}
	v := gf256.Vandermonde(k+m, k)
	// Row-reduce so the top k×k block becomes the identity: gen = V × top⁻¹.
	top := gf256.NewMatrix(k, k)
	for r := 0; r < k; r++ {
		top.SetRow(r, v.Row(r))
	}
	topInv, err := top.Invert()
	if err != nil {
		// Unreachable for a Vandermonde matrix with distinct rows; surface
		// it anyway rather than panicking in library code.
		return nil, fmt.Errorf("fec: generator construction: %w", err)
	}
	c := &Code{k: k, m: m, gen: v.Mul(topInv), invCache: make(map[string]*gf256.Matrix)}
	c.scratch.New = func() any {
		return &decodeScratch{
			have:   make([][]byte, k+m),
			rowIdx: make([]byte, 0, k),
			rows:   make([][]byte, 0, k),
		}
	}
	return c, nil
}

// MustNew is New for parameters known to be valid at compile time.
func MustNew(k, m int) *Code {
	c, err := New(k, m)
	if err != nil {
		panic(err)
	}
	return c
}

// DataShares returns k, the number of data shares.
func (c *Code) DataShares() int { return c.k }

// ParityShares returns m, the number of parity shares.
func (c *Code) ParityShares() int { return c.m }

// TotalShares returns k+m.
func (c *Code) TotalShares() int { return c.k + c.m }

// AllocShares returns n share buffers of size bytes each, carved from one
// contiguous backing array — the allocation shape Encode and the *Into
// callers use for window buffer sets.
func AllocShares(n, size int) [][]byte {
	arena := make([]byte, n*size)
	out := make([][]byte, n)
	for i := range out {
		out[i] = arena[i*size : (i+1)*size]
	}
	return out
}

// Encode computes the m parity shares for the given k data shares. All data
// shares must have equal length. The returned parity slices are freshly
// allocated (from a single backing array); use EncodeInto to reuse buffers.
func (c *Code) Encode(data [][]byte) ([][]byte, error) {
	if len(data) != c.k {
		return nil, fmt.Errorf("fec: Encode got %d data shares, want %d", len(data), c.k)
	}
	parity := AllocShares(c.m, len(data[0]))
	if err := c.EncodeInto(data, parity); err != nil {
		return nil, err
	}
	return parity, nil
}

// EncodeInto computes the m parity shares of data into the caller-provided
// parity buffers, which must be exactly m slices of the shares' common
// length. It allocates nothing, so callers encoding a stream of windows can
// cycle parity buffers through a pool instead of allocating per window.
//
//lint:hot the zero-allocation encode entry point, once per window
func (c *Code) EncodeInto(data, parity [][]byte) error {
	if len(data) != c.k {
		return fmt.Errorf("fec: EncodeInto got %d data shares, want %d", len(data), c.k)
	}
	size := len(data[0])
	for i, d := range data {
		if len(d) != size {
			return fmt.Errorf("fec: share %d has length %d, want %d", i, len(d), size)
		}
	}
	if len(parity) != c.m {
		return fmt.Errorf("fec: EncodeInto got %d parity buffers, want %d", len(parity), c.m)
	}
	for p, buf := range parity {
		if len(buf) != size {
			return fmt.Errorf("fec: parity buffer %d has length %d, want %d", p, len(buf), size)
		}
	}
	for p, buf := range parity {
		clear(buf)
		gf256.MulAddSlices(c.gen.Row(c.k+p), data, buf)
	}
	return nil
}

// Share is one received share of a window: its index in [0, k+m) and its
// payload. Indexes below k are data shares, the rest parity.
type Share struct {
	Index int
	Data  []byte
}

// gather validates shares and files them into sc.have by index,
// deduplicating and recording which data shares are missing. It returns the
// common share size.
func (c *Code) gather(sc *decodeScratch, shares []Share) (int, error) {
	clear(sc.have)
	sc.rowIdx = sc.rowIdx[:0]
	sc.rows = sc.rows[:0]
	sc.missing = sc.missing[:0]
	size, distinct := -1, 0
	for _, s := range shares {
		if s.Index < 0 || s.Index >= c.k+c.m {
			return 0, fmt.Errorf("fec: share index %d out of range [0,%d)", s.Index, c.k+c.m)
		}
		if size == -1 {
			size = len(s.Data)
		} else if len(s.Data) != size {
			return 0, fmt.Errorf("fec: share %d has length %d, want %d", s.Index, len(s.Data), size)
		}
		if sc.have[s.Index] == nil {
			sc.have[s.Index] = s.Data
			distinct++
		}
	}
	if distinct < c.k {
		return 0, fmt.Errorf("%w: have %d distinct, need %d", ErrNotEnoughShares, distinct, c.k)
	}
	for i := 0; i < c.k; i++ {
		if sc.have[i] == nil {
			//lint:pooled sc.missing is pool-owned scratch; capacity persists across decode calls
			sc.missing = append(sc.missing, i)
		}
	}
	return size, nil
}

// decodeMatrix returns the inverted k×k decode matrix for the share set in
// sc, selecting all present data shares plus enough parity shares, and
// fills sc.rowIdx/sc.rows with the chosen rows. Inversions are cached by
// row-index set: under steady loss the same handful of patterns recurs, so
// the Gauss–Jordan cost is paid once per pattern.
func (c *Code) decodeMatrix(sc *decodeScratch) (*gf256.Matrix, error) {
	for i := 0; i < c.k; i++ {
		if sc.have[i] != nil {
			//lint:pooled sc.rowIdx is pool-owned scratch; capacity persists across decode calls
			sc.rowIdx = append(sc.rowIdx, byte(i))
			//lint:pooled sc.rows is pool-owned scratch; capacity persists across decode calls
			sc.rows = append(sc.rows, sc.have[i])
		}
	}
	for i := c.k; i < c.k+c.m && len(sc.rowIdx) < c.k; i++ {
		if sc.have[i] != nil {
			//lint:pooled sc.rowIdx is pool-owned scratch; capacity persists across decode calls
			sc.rowIdx = append(sc.rowIdx, byte(i))
			//lint:pooled sc.rows is pool-owned scratch; capacity persists across decode calls
			sc.rows = append(sc.rows, sc.have[i])
		}
	}

	c.invMu.RLock()
	inv := c.invCache[string(sc.rowIdx)]
	c.invMu.RUnlock()
	if inv != nil {
		return inv, nil
	}

	dec := gf256.NewMatrix(c.k, c.k)
	for r, idx := range sc.rowIdx {
		dec.SetRow(r, c.gen.Row(int(idx)))
	}
	inv, err := dec.Invert()
	if err != nil {
		return nil, fmt.Errorf("fec: decode matrix: %w", err)
	}

	c.invMu.Lock()
	if len(c.invCache) >= maxCachedInversions {
		// Evict an arbitrary entry; any recurring pattern re-earns its slot.
		//lint:ordered eviction choice only affects cache hit rate; decoded bytes are identical for any victim
		for key := range c.invCache {
			delete(c.invCache, key)
			break
		}
	}
	c.invCache[string(sc.rowIdx)] = inv
	c.invMu.Unlock()
	return inv, nil
}

func (c *Code) getScratch() *decodeScratch { return c.scratch.Get().(*decodeScratch) }

func (c *Code) putScratch(sc *decodeScratch) {
	// Drop payload references so pooled scratch does not pin share buffers.
	clear(sc.have)
	sc.rows = sc.rows[:0]
	sc.rowIdx = sc.rowIdx[:0]
	sc.missing = sc.missing[:0]
	c.scratch.Put(sc)
}

// Reconstruct recovers the k original data shares from any k distinct
// shares. Supplying duplicates, out-of-range indexes, or mismatched lengths
// returns an error. The returned slices alias the input for data shares that
// were received directly and are freshly allocated otherwise; use
// ReconstructInto to decode into reused buffers.
func (c *Code) Reconstruct(shares []Share) ([][]byte, error) {
	sc := c.getScratch()
	defer c.putScratch(sc)
	size, err := c.gather(sc, shares)
	if err != nil {
		return nil, err
	}
	out := make([][]byte, c.k)
	for i := 0; i < c.k; i++ {
		out[i] = sc.have[i]
	}
	if len(sc.missing) == 0 {
		return out, nil
	}
	inv, err := c.decodeMatrix(sc)
	if err != nil {
		return nil, err
	}
	// data[j] = Σ_r inv[j][r] · share(rowIdx[r]); only missing j are computed.
	for _, j := range sc.missing {
		buf := make([]byte, size)
		gf256.MulAddSlices(inv.Row(j), sc.rows, buf)
		out[j] = buf
	}
	return out, nil
}

// ReconstructInto recovers the k original data shares into the
// caller-provided buffers: out must be exactly k slices of the shares'
// common length. Directly received data shares are copied into out and
// missing ones are decoded in place, so out is fully caller-owned
// afterwards — nothing aliases the input shares. In steady state (decode
// matrix cached) it performs no heap allocations, letting receivers cycle
// one window-sized buffer set through every window they repair.
//
//lint:hot the zero-allocation decode entry point, once per window
func (c *Code) ReconstructInto(shares []Share, out [][]byte) error {
	if len(out) != c.k {
		return fmt.Errorf("fec: ReconstructInto got %d output buffers, want %d", len(out), c.k)
	}
	sc := c.getScratch()
	defer c.putScratch(sc)
	size, err := c.gather(sc, shares)
	if err != nil {
		return err
	}
	for j, buf := range out {
		if len(buf) != size {
			return fmt.Errorf("fec: output buffer %d has length %d, want %d", j, len(buf), size)
		}
	}
	var inv *gf256.Matrix
	if len(sc.missing) > 0 {
		if inv, err = c.decodeMatrix(sc); err != nil {
			return err
		}
	}
	for i := 0; i < c.k; i++ {
		if sc.have[i] != nil {
			copy(out[i], sc.have[i])
		}
	}
	for _, j := range sc.missing {
		clear(out[j])
		gf256.MulAddSlices(inv.Row(j), sc.rows, out[j])
	}
	return nil
}
