package lp

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// randBasisColumns builds m deterministic, diagonally dominant sparse columns
// (so the matrix is guaranteed nonsingular) plus extra off-basis columns that
// update tests can bring in. Returns the column arrays and the identity
// basis over the first m columns.
func randBasisColumns(rng *rand.Rand, m, extra int) (colIdx [][]int32, colVal [][]float64, basis []int) {
	ncols := m + extra
	colIdx = make([][]int32, ncols)
	colVal = make([][]float64, ncols)
	for j := 0; j < m; j++ {
		colIdx[j] = append(colIdx[j], int32(j))
		colVal[j] = append(colVal[j], 4+rng.Float64())
		for t := 0; t < 3; t++ {
			i := rng.Intn(m)
			if i == j {
				continue
			}
			dup := false
			for _, e := range colIdx[j] {
				if e == int32(i) {
					dup = true
					break
				}
			}
			if dup {
				continue
			}
			colIdx[j] = append(colIdx[j], int32(i))
			colVal[j] = append(colVal[j], rng.Float64()*2-1)
		}
	}
	for j := m; j < ncols; j++ {
		used := map[int]bool{}
		for t := 0; t < 4; t++ {
			i := rng.Intn(m)
			if used[i] {
				continue
			}
			used[i] = true
			colIdx[j] = append(colIdx[j], int32(i))
			colVal[j] = append(colVal[j], rng.Float64()*2-1)
		}
		if len(colIdx[j]) == 0 {
			colIdx[j] = append(colIdx[j], int32(rng.Intn(m)))
			colVal[j] = append(colVal[j], 1)
		}
	}
	basis = make([]int, m)
	for i := range basis {
		basis[i] = i
	}
	return colIdx, colVal, basis
}

// mulBasis computes B x for x indexed by basis position, result by row.
func mulBasis(m int, basis []int, colIdx [][]int32, colVal [][]float64, x []float64) []float64 {
	out := make([]float64, m)
	for pos, j := range basis {
		v := x[pos]
		if v == 0 {
			continue
		}
		for k, i := range colIdx[j] {
			out[i] += colVal[j][k] * v
		}
	}
	return out
}

// checkFTRAN solves B x = a for a random sparse a through f and checks the
// residual against a direct matrix-vector product.
func checkFTRAN(t *testing.T, rng *rand.Rand, f *luFactor, basis []int, colIdx [][]int32, colVal [][]float64, tol float64, where string) {
	t.Helper()
	m := len(basis)
	var a, out spVec
	a.grow(m)
	out.grow(m)
	rhs := make([]float64, m)
	for k := 0; k < 1+rng.Intn(3); k++ {
		i := int32(rng.Intn(m))
		v := rng.Float64()*4 - 2
		a.add(i, v)
		rhs[i] += v
	}
	f.ftran(&a, &out)
	x := make([]float64, m)
	for _, i := range out.ind {
		x[i] = out.val[i]
	}
	got := mulBasis(m, basis, colIdx, colVal, x)
	for i := 0; i < m; i++ {
		if math.Abs(got[i]-rhs[i]) > tol {
			t.Fatalf("%s m=%d: FTRAN residual %g at row %d (updates=%d)",
				where, m, got[i]-rhs[i], i, f.ft.updates)
		}
	}
}

// checkBTRAN solves y B = c for a random sparse c (indexed by basis
// position) through f and checks y·B_j = c_j for every basis position.
func checkBTRAN(t *testing.T, rng *rand.Rand, f *luFactor, basis []int, colIdx [][]int32, colVal [][]float64, tol float64, where string) {
	t.Helper()
	m := len(basis)
	var a, out spVec
	a.grow(m)
	out.grow(m)
	c := make([]float64, m)
	for k := 0; k < 1+rng.Intn(3); k++ {
		i := int32(rng.Intn(m))
		v := rng.Float64()*4 - 2
		a.add(i, v)
		c[i] += v
	}
	f.btran(&a, &out)
	y := make([]float64, m)
	for _, i := range out.ind {
		y[i] = out.val[i]
	}
	for pos, j := range basis {
		dot := 0.0
		for k, i := range colIdx[j] {
			dot += y[i] * colVal[j][k]
		}
		if math.Abs(dot-c[pos]) > tol {
			t.Fatalf("%s m=%d: BTRAN residual %g at position %d (updates=%d)",
				where, m, dot-c[pos], pos, f.ft.updates)
		}
	}
}

// TestLUFactorizeSolves checks the FTRAN/BTRAN contracts of a fresh
// factorization against direct matrix-vector products: x = ftran(a) must
// satisfy B x = a, and y = btran(c) must satisfy y' B = c'.
func TestLUFactorizeSolves(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		m := 3 + rng.Intn(40)
		colIdx, colVal, basis := randBasisColumns(rng, m, 0)
		f := &luFactor{}
		if !f.factorize(m, basis, colIdx, colVal) {
			t.Fatalf("trial %d: factorize declared a dominant matrix singular", trial)
		}
		where := fmt.Sprintf("trial %d", trial)
		checkFTRAN(t, rng, f, basis, colIdx, colVal, 1e-8, where)
		checkBTRAN(t, rng, f, basis, colIdx, colVal, 1e-8, where)
	}
}

// TestLUEtaUpdate performs a chain of basis exchanges through Forrest-Tomlin
// updates and re-checks both solve contracts against the exchanged basis
// after every step — FTRAN (B x = a, the pivot-column transform) and BTRAN
// (y B = c, the duals and tableau rows) — the invariants the simplex pivot
// loops depend on. It also requires that updates are actually absorbed, so
// the checks exercise the updated factor and not only fresh factorizations.
func TestLUEtaUpdate(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	absorbed := 0
	for trial := 0; trial < 20; trial++ {
		m := 5 + rng.Intn(30)
		extra := 10
		colIdx, colVal, basis := randBasisColumns(rng, m, extra)
		f := &luFactor{}
		if !f.factorize(m, basis, colIdx, colVal) {
			t.Fatalf("trial %d: initial factorize failed", trial)
		}

		var a, w spVec
		a.grow(m)
		w.grow(m)

		for step := 0; step < extra; step++ {
			enter := m + step
			a.reset()
			for k, i := range colIdx[enter] {
				a.set(i, colVal[enter][k])
			}
			f.ftran(&a, &w)
			// Leaving position: largest transformed entry (always acceptable).
			leave := int32(-1)
			best := 0.0
			for _, i := range w.ind {
				if v := math.Abs(w.val[i]); v > best {
					best, leave = v, i
				}
			}
			if leave < 0 {
				t.Fatalf("trial %d step %d: zero transformed column", trial, step)
			}
			basis[leave] = enter
			if f.update(leave, &w) {
				absorbed++
			} else if !f.factorize(m, basis, colIdx, colVal) {
				// Numerically rejected: refactorize from the exchanged basis.
				t.Fatalf("trial %d step %d: refactorize after rejected update failed", trial, step)
			}
			where := fmt.Sprintf("trial %d step %d", trial, step)
			checkFTRAN(t, rng, f, basis, colIdx, colVal, 1e-7, where)
			checkBTRAN(t, rng, f, basis, colIdx, colVal, 1e-7, where)
		}
	}
	if absorbed == 0 {
		t.Fatal("every update was rejected; the updated factor was never checked")
	}
}

// TestSpVecExactCancellation ensures an entry cancelled to exactly zero stays
// tracked exactly once — a duplicate index would double-apply updates in the
// pivot loops that iterate wv.ind.
func TestSpVecExactCancellation(t *testing.T) {
	var v spVec
	v.grow(8)
	v.add(3, 1.5)
	v.add(3, -1.5)
	v.add(3, 2.0)
	if len(v.ind) != 1 || v.ind[0] != 3 || v.val[3] != 2.0 {
		t.Fatalf("ind=%v val[3]=%g, want single tracked entry with 2.0", v.ind, v.val[3])
	}
	v.reset()
	if v.val[3] != 0 || len(v.ind) != 0 {
		t.Fatalf("reset left val[3]=%g ind=%v", v.val[3], v.ind)
	}
}

// BenchmarkFactorize measures one sparse LU refactorization of an m=200
// basis with a handful of nonzeros per column (the routing-LP regime).
func BenchmarkFactorize(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	const m = 200
	colIdx, colVal, basis := randBasisColumns(rng, m, 0)
	f := &luFactor{}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !f.factorize(m, basis, colIdx, colVal) {
			b.Fatal("singular")
		}
	}
}

// BenchmarkFTRAN measures one hyper-sparse forward solve (a near-unit column
// through an m=200 factorization), the dominant per-iteration kernel.
func BenchmarkFTRAN(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	const m = 200
	colIdx, colVal, basis := randBasisColumns(rng, m, 0)
	f := &luFactor{}
	if !f.factorize(m, basis, colIdx, colVal) {
		b.Fatal("singular")
	}
	var a, out spVec
	a.grow(m)
	out.grow(m)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.reset()
		a.set(int32(i%m), 1)
		a.set(int32((i*7+3)%m), -0.5)
		f.ftran(&a, &out)
	}
}

// BenchmarkBTRAN measures one hyper-sparse backward solve (a unit row
// selector, the dual ratio test's rho computation).
func BenchmarkBTRAN(b *testing.B) {
	rng := rand.New(rand.NewSource(9))
	const m = 200
	colIdx, colVal, basis := randBasisColumns(rng, m, 0)
	f := &luFactor{}
	if !f.factorize(m, basis, colIdx, colVal) {
		b.Fatal("singular")
	}
	var a, out spVec
	a.grow(m)
	out.grow(m)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.reset()
		a.set(int32(i%m), 1)
		f.btran(&a, &out)
	}
}
