// Package gf256 implements arithmetic over the Galois field GF(2^8) and the
// small dense-matrix operations needed by the systematic Reed–Solomon codec
// in internal/fec.
//
// The field is generated by the primitive polynomial x^8+x^4+x^3+x^2+1
// (0x11d), the conventional choice for Reed–Solomon codes. Scalar
// multiplication and division use 256-entry log/exp tables built once at
// package load. The slice kernels behind MulSlice and MulAddSlices — the
// codec's hot path — are one portable kernel on every platform: lazily
// built per-coefficient product tables, four source rows folded per pass,
// and a word-wide XOR for the coefficient 1; see kernels.go.
//
//lint:deterministic the FEC kernels' bytes must not depend on the host or the run
package gf256

import "fmt"

// poly is the primitive reduction polynomial for the field.
const poly = 0x11d

var logTable, expTable = buildTables()

// buildTables computes discrete log and exponential tables for generator 2.
// expTable is doubled in length so Mul can skip a modular reduction.
func buildTables() (logT [256]byte, expT [510]byte) {
	x := 1
	for i := 0; i < 255; i++ {
		expT[i] = byte(x)
		expT[i+255] = byte(x)
		logT[x] = byte(i)
		x <<= 1
		if x&0x100 != 0 {
			x ^= poly
		}
	}
	return logT, expT
}

// Add returns a+b in GF(2^8). Addition is XOR; it is its own inverse.
func Add(a, b byte) byte { return a ^ b }

// Mul returns a*b in GF(2^8).
func Mul(a, b byte) byte {
	if a == 0 || b == 0 {
		return 0
	}
	return expTable[int(logTable[a])+int(logTable[b])]
}

// Div returns a/b in GF(2^8). Dividing by zero panics.
func Div(a, b byte) byte {
	if b == 0 {
		panic("gf256: division by zero")
	}
	if a == 0 {
		return 0
	}
	d := int(logTable[a]) - int(logTable[b])
	if d < 0 {
		d += 255
	}
	return expTable[d]
}

// Inv returns the multiplicative inverse of a. Inverting zero panics.
func Inv(a byte) byte {
	if a == 0 {
		panic("gf256: inverse of zero")
	}
	return expTable[255-int(logTable[a])]
}

// Exp returns the generator (2) raised to the power n, with n reduced
// modulo 255. Exp(0) == 1.
func Exp(n int) byte {
	n %= 255
	if n < 0 {
		n += 255
	}
	return expTable[n]
}

// Matrix is a dense row-major matrix over GF(2^8).
type Matrix struct {
	rows, cols int
	data       []byte
}

// NewMatrix returns a zero rows×cols matrix.
func NewMatrix(rows, cols int) *Matrix {
	if rows <= 0 || cols <= 0 {
		panic(fmt.Sprintf("gf256: invalid matrix dimensions %dx%d", rows, cols))
	}
	return &Matrix{rows: rows, cols: cols, data: make([]byte, rows*cols)}
}

// Identity returns the n×n identity matrix.
func Identity(n int) *Matrix {
	m := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		m.Set(i, i, 1)
	}
	return m
}

// Vandermonde returns the rows×cols matrix with entry (r,c) = Exp(r*c).
// Any cols×cols submatrix formed from distinct rows is invertible, the
// property that lets Reed–Solomon reconstruct from any k of n shares.
func Vandermonde(rows, cols int) *Matrix {
	m := NewMatrix(rows, cols)
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			m.Set(r, c, Exp(r*c))
		}
	}
	return m
}

// Rows returns the number of rows.
func (m *Matrix) Rows() int { return m.rows }

// At returns the element at row r, column c.
func (m *Matrix) At(r, c int) byte { return m.data[r*m.cols+c] }

// Set stores v at row r, column c.
func (m *Matrix) Set(r, c int, v byte) { m.data[r*m.cols+c] = v }

// Row returns a view (not a copy) of row r.
func (m *Matrix) Row(r int) []byte { return m.data[r*m.cols : (r+1)*m.cols] }

// SetRow copies src into row r.
func (m *Matrix) SetRow(r int, src []byte) {
	if len(src) != m.cols {
		panic(fmt.Sprintf("gf256: SetRow length %d != cols %d", len(src), m.cols))
	}
	copy(m.Row(r), src)
}

// Clone returns a deep copy of the matrix.
func (m *Matrix) Clone() *Matrix {
	out := NewMatrix(m.rows, m.cols)
	copy(out.data, m.data)
	return out
}

// Mul returns the matrix product m × other.
func (m *Matrix) Mul(other *Matrix) *Matrix {
	if m.cols != other.rows {
		panic(fmt.Sprintf("gf256: cannot multiply %dx%d by %dx%d", m.rows, m.cols, other.rows, other.cols))
	}
	out := NewMatrix(m.rows, other.cols)
	for r := 0; r < m.rows; r++ {
		outRow := out.Row(r)
		for k := 0; k < m.cols; k++ {
			MulSlice(m.At(r, k), other.Row(k), outRow)
		}
	}
	return out
}

// Invert returns the inverse of a square matrix via Gauss–Jordan
// elimination, or an error if the matrix is singular. m is not modified.
func (m *Matrix) Invert() (*Matrix, error) {
	if m.rows != m.cols {
		return nil, fmt.Errorf("gf256: cannot invert non-square %dx%d matrix", m.rows, m.cols)
	}
	n := m.rows
	work := m.Clone()
	inv := Identity(n)
	for col := 0; col < n; col++ {
		// Find a pivot at or below the diagonal.
		pivot := -1
		for r := col; r < n; r++ {
			if work.At(r, col) != 0 {
				pivot = r
				break
			}
		}
		if pivot < 0 {
			return nil, fmt.Errorf("gf256: singular matrix (no pivot in column %d)", col)
		}
		if pivot != col {
			swapRows(work, pivot, col)
			swapRows(inv, pivot, col)
		}
		// Normalize the pivot row.
		if p := work.At(col, col); p != 1 {
			pi := Inv(p)
			ScaleSlice(pi, work.Row(col))
			ScaleSlice(pi, inv.Row(col))
		}
		// Eliminate the column from every other row.
		for r := 0; r < n; r++ {
			if r == col {
				continue
			}
			if c := work.At(r, col); c != 0 {
				MulSlice(c, work.Row(col), work.Row(r))
				MulSlice(c, inv.Row(col), inv.Row(r))
			}
		}
	}
	return inv, nil
}

func swapRows(m *Matrix, a, b int) {
	ra, rb := m.Row(a), m.Row(b)
	for i := range ra {
		ra[i], rb[i] = rb[i], ra[i]
	}
}
