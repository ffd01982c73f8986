package lp

// This file implements the sparse triangular solves of the LU-factorized
// simplex basis: FTRAN (solve B x = a, the pivot-column transform) and BTRAN
// (solve y B = c, the dual/row transform), plus the sparse-vector workspace
// they operate on. Both exploit right-hand-side hyper-sparsity: the vectors
// fed through them are mostly unit or near-unit (an entering column with a
// handful of nonzeros, the e_r row selector of the dual ratio test, a phase-2
// cost vector that is zero on every slack), so the solves skip all pivot
// steps whose input entry is zero and touch only the nonzero pattern.

// spVec is a sparse vector workspace: a dense value array paired with an
// unordered index list of the tracked nonzero positions. Entries outside the
// index list are guaranteed zero. The stamp/epoch pair makes membership
// O(1) without clearing stamps between uses, so resetting costs only the
// previous nonzero count — the invariant the hyper-sparse solves rely on.
type spVec struct {
	val   []float64
	ind   []int32
	stamp []int32
	epoch int32
}

// grow sizes the workspace for vectors of length m, resetting it.
func (v *spVec) grow(m int) {
	if cap(v.val) < m {
		v.val = make([]float64, m)
		v.stamp = make([]int32, m)
		v.ind = make([]int32, 0, m)
		v.epoch = 1
		return
	}
	v.val = v.val[:m]
	v.stamp = v.stamp[:m]
	v.reset()
}

// reset clears the tracked entries (only those, not the full array).
func (v *spVec) reset() {
	for _, i := range v.ind {
		v.val[i] = 0
	}
	v.ind = v.ind[:0]
	v.epoch++
	if v.epoch == 0 { // stamp wrap: invalidate everything
		for i := range v.stamp {
			v.stamp[i] = -1
		}
		v.epoch = 1
	}
}

// set installs value x at position i (tracking it exactly once).
func (v *spVec) set(i int32, x float64) {
	if v.stamp[i] != v.epoch {
		v.stamp[i] = v.epoch
		v.ind = append(v.ind, i)
	}
	v.val[i] = x
}

// add accumulates x into position i (tracking it exactly once).
func (v *spVec) add(i int32, x float64) {
	if v.stamp[i] != v.epoch {
		v.stamp[i] = v.epoch
		v.ind = append(v.ind, i)
	}
	v.val[i] += x
}

// ftran solves B x = a for the current basis B = L R1..Rk U (the LU
// factorization with its Forrest-Tomlin updates). The input a is indexed by
// row; the result is indexed by basis position and written to out (which is
// reset first). a is consumed (mutated in place).
func (f *luFactor) ftran(a, out *spVec) {
	m := f.m
	// Forward pass: replay the row eliminations of the factorization on the
	// right-hand side. A zero pivot entry means the whole step is a no-op —
	// the hyper-sparsity shortcut that makes near-unit columns O(path), not
	// O(m^2).
	for k := 0; k < m; k++ {
		t := a.val[f.prow[k]]
		if t == 0 {
			continue
		}
		for e := f.lPtr[k]; e < f.lPtr[k+1]; e++ {
			a.add(f.lInd[e], -f.lVal[e]*t)
		}
	}
	// Row etas of the Forrest-Tomlin updates, between L and U.
	ft := &f.ft
	for e := 0; e < len(ft.etaR); e++ {
		s := 0.0
		for q := ft.etaPtr[e]; q < ft.etaPtr[e+1]; q++ {
			s += ft.etaMul[q] * a.val[ft.etaRow[q]]
		}
		if s != 0 {
			a.add(ft.etaR[e], -s)
		}
	}
	// Back substitution on the dynamic U in reverse elimination order:
	// once x[pcol[s]] is known it is scattered out of every earlier row
	// through its column list.
	out.reset()
	for p := m - 1; p >= 0; p-- {
		s := ft.seq[p]
		t := a.val[f.prow[s]]
		if t == 0 {
			continue
		}
		t /= ft.piv[s]
		c := f.pcol[s]
		out.set(c, t)
		slots := ft.colSlot[c]
		gens := ft.colGen[c]
		vals := ft.colVal[c]
		for q := 0; q < len(slots); q++ {
			s2 := slots[q]
			if gens[q] != ft.rowGen[s2] {
				continue
			}
			a.add(f.prow[s2], -vals[q]*t)
		}
	}
}

// btran solves y B = c for the current basis. The input c is indexed by
// basis position; the result is indexed by row and written to out (reset
// first). c is consumed.
func (f *luFactor) btran(c, out *spVec) {
	m := f.m
	// Solve z U = c in elimination order, scattering each solved component
	// through its dynamic pivot row. Zero components skip entirely.
	ft := &f.ft
	out.reset()
	for p := 0; p < m; p++ {
		s := ft.seq[p]
		t := c.val[f.pcol[s]]
		if t == 0 {
			continue
		}
		t /= ft.piv[s]
		out.set(f.prow[s], t)
		idx := ft.rowInd[s]
		vals := ft.rowVal[s]
		for q := range idx {
			c.add(idx[q], -vals[q]*t)
		}
	}
	// Row etas transposed, in reverse.
	for e := len(ft.etaR) - 1; e >= 0; e-- {
		t := out.val[ft.etaR[e]]
		if t == 0 {
			continue
		}
		for q := ft.etaPtr[e]; q < ft.etaPtr[e+1]; q++ {
			out.add(ft.etaRow[q], -ft.etaMul[q]*t)
		}
	}
	// Transposed elimination pass: y[prow[k]] -= sum L_k[i] * y[i], in
	// reverse pivot order. Each step is a short gather over the stored
	// multipliers.
	for k := m - 1; k >= 0; k-- {
		s := 0.0
		for e := f.lPtr[k]; e < f.lPtr[k+1]; e++ {
			s += f.lVal[e] * out.val[f.lInd[e]]
		}
		if s != 0 {
			out.add(f.prow[k], -s)
		}
	}
}

// ftranDense solves B x = a for a dense right-hand side (the periodic basic-
// value refresh), writing the result to out. a is consumed.
func (f *luFactor) ftranDense(a, out []float64) {
	m := f.m
	for k := 0; k < m; k++ {
		t := a[f.prow[k]]
		if t == 0 {
			continue
		}
		for e := f.lPtr[k]; e < f.lPtr[k+1]; e++ {
			a[f.lInd[e]] -= f.lVal[e] * t
		}
	}
	ft := &f.ft
	for e := 0; e < len(ft.etaR); e++ {
		s := 0.0
		for q := ft.etaPtr[e]; q < ft.etaPtr[e+1]; q++ {
			s += ft.etaMul[q] * a[ft.etaRow[q]]
		}
		a[ft.etaR[e]] -= s
	}
	for i := range out[:m] {
		out[i] = 0
	}
	for p := m - 1; p >= 0; p-- {
		s := ft.seq[p]
		t := a[f.prow[s]]
		if t == 0 {
			continue
		}
		t /= ft.piv[s]
		c := f.pcol[s]
		out[c] = t
		slots := ft.colSlot[c]
		gens := ft.colGen[c]
		vals := ft.colVal[c]
		for q := 0; q < len(slots); q++ {
			s2 := slots[q]
			if gens[q] != ft.rowGen[s2] {
				continue
			}
			a[f.prow[s2]] -= vals[q] * t
		}
	}
}
