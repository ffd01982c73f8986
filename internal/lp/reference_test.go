package lp

import "math"

// reference_test.go is the independent test oracle for the LP engine: a
// textbook dense, bounded-variable, two-phase tableau simplex with Bland's
// rule. It reads the model only through Problem's public accessors and
// shares no code with the engine — no factorization, no pricing state, no
// presolve — so agreement between the two is evidence about the engine,
// not about shared machinery. It is written for clarity on the small fuzz
// models, not for speed.

// refTol is the reference's pivot, feasibility and optimality tolerance.
const refTol = 1e-9

// refResult is the reference's answer: status and objective (the latter
// valid only when optimal).
type refResult struct {
	Status Status
	Obj    float64
}

// refSolve solves p with the reference simplex. Columns are the structural
// variables, one slack per row (a_i x + s_i = b_i, bounded by the row's
// sense) and one artificial per row. Phase 1 minimizes the artificials from
// the all-artificial basis; phase 2 fixes them at zero and minimizes c'x.
func refSolve(p *Problem) refResult {
	n, m := p.NumVars(), p.NumRows()
	ncols := n + 2*m
	lo := make([]float64, ncols)
	hi := make([]float64, ncols)
	cost := make([]float64, ncols)
	a := make([][]float64, m) // dense constraint matrix over all columns
	b := make([]float64, m)
	for j := 0; j < n; j++ {
		lo[j], hi[j] = p.VarBounds(j)
		cost[j] = p.Cost(j)
	}
	for i := 0; i < m; i++ {
		a[i] = make([]float64, ncols)
		coeffs, sense, rhs := p.Row(i)
		for _, c := range coeffs {
			a[i][c.Var] += c.Val
		}
		b[i] = rhs
		sl := n + i
		a[i][sl] = 1
		switch sense {
		case LE:
			lo[sl], hi[sl] = 0, math.Inf(1)
		case GE:
			lo[sl], hi[sl] = math.Inf(-1), 0
		case EQ:
			lo[sl], hi[sl] = 0, 0
		}
	}

	// Every non-artificial column starts nonbasic at a finite bound (or at
	// zero when free); each artificial absorbs its row's residual.
	x := make([]float64, ncols)
	for j := 0; j < n+m; j++ {
		switch {
		case !math.IsInf(lo[j], -1):
			x[j] = lo[j]
		case !math.IsInf(hi[j], 1):
			x[j] = hi[j]
		}
	}
	basis := make([]int, m)
	for i := 0; i < m; i++ {
		r := b[i]
		for j := 0; j < n+m; j++ {
			r -= a[i][j] * x[j]
		}
		art := n + m + i
		a[i][art] = 1
		if r < 0 {
			a[i][art] = -1
		}
		lo[art], hi[art] = 0, math.Inf(1)
		x[art] = math.Abs(r)
		basis[i] = art
	}

	// The tableau T = B^{-1} A; the initial basis is the diagonal of ±1
	// artificials, so T is A with each row scaled by its artificial's sign.
	t := make([][]float64, m)
	for i := range t {
		t[i] = make([]float64, ncols)
		sign := a[i][n+m+i]
		for j := range t[i] {
			t[i][j] = a[i][j] * sign
		}
	}
	tab := &refTableau{t: t, basis: basis, x: x, lo: lo, hi: hi}

	phase1 := make([]float64, ncols)
	for i := 0; i < m; i++ {
		phase1[n+m+i] = 1
	}
	if st := tab.iterate(phase1); st != Optimal {
		return refResult{Status: st}
	}
	infeas := 0.0
	for i := 0; i < m; i++ {
		infeas += x[n+m+i]
	}
	if infeas > 1e-7 {
		return refResult{Status: Infeasible}
	}
	for i := 0; i < m; i++ {
		hi[n+m+i] = 0 // artificials stay at zero in phase 2
	}
	if st := tab.iterate(cost); st != Optimal {
		return refResult{Status: st}
	}
	res := refResult{Status: Optimal}
	for j := 0; j < n; j++ {
		res.Obj += cost[j] * x[j]
	}
	return res
}

// refTableau is the dense bounded-variable simplex state: the tableau rows,
// the basic column of each row, every column's current value and bounds.
type refTableau struct {
	t      [][]float64
	basis  []int
	x      []float64
	lo, hi []float64
}

// iterate runs Bland's rule simplex iterations under cost until optimality
// or unboundedness. The entering column is the lowest-index improving one;
// among tied blocking rows the lowest-index basic column leaves, and a tie
// with the entering column's own bound flip prefers the pivot.
func (tb *refTableau) iterate(cost []float64) Status {
	m, ncols := len(tb.basis), len(tb.x)
	isBasic := make([]bool, ncols)
	for _, j := range tb.basis {
		isBasic[j] = true
	}
	for iter := 0; iter < 100000; iter++ {
		// Entering column: lowest index with an improving reduced cost.
		enter, dir := -1, 0.0
		for j := 0; j < ncols && enter < 0; j++ {
			if isBasic[j] || tb.hi[j]-tb.lo[j] <= refTol {
				continue
			}
			d := cost[j]
			for i := 0; i < m; i++ {
				d -= cost[tb.basis[i]] * tb.t[i][j]
			}
			atLo := tb.x[j] <= tb.lo[j]+refTol
			atHi := tb.x[j] >= tb.hi[j]-refTol
			if d < -refTol && !atHi {
				enter, dir = j, 1
			} else if d > refTol && !atLo {
				enter, dir = j, -1
			}
		}
		if enter < 0 {
			return Optimal
		}

		// Ratio test: basic i moves at rate -dir*t[i][enter] per unit step.
		step := tb.hi[enter] - tb.lo[enter]
		leave := -1
		for i := 0; i < m; i++ {
			rate := -dir * tb.t[i][enter]
			bj := tb.basis[i]
			var lim float64
			switch {
			case rate > refTol:
				lim = (tb.hi[bj] - tb.x[bj]) / rate
			case rate < -refTol:
				lim = (tb.lo[bj] - tb.x[bj]) / rate
			default:
				continue
			}
			if math.IsInf(lim, 1) {
				continue
			}
			lim = math.Max(lim, 0)
			if lim < step-refTol || (lim <= step+refTol && (leave < 0 || bj < tb.basis[leave])) {
				step, leave = lim, i
			}
		}
		if math.IsInf(step, 1) {
			return Unbounded
		}

		// Move along the edge.
		for i := 0; i < m; i++ {
			tb.x[tb.basis[i]] -= dir * step * tb.t[i][enter]
		}
		tb.x[enter] += dir * step
		if leave < 0 {
			continue // bound flip: the entering column crossed its range
		}

		// Pivot: the leaving column lands exactly on the bound it hit.
		out := tb.basis[leave]
		if -dir*tb.t[leave][enter] > 0 {
			tb.x[out] = tb.hi[out]
		} else {
			tb.x[out] = tb.lo[out]
		}
		prow := tb.t[leave]
		piv := prow[enter]
		for j := range prow {
			prow[j] /= piv
		}
		for i := 0; i < m; i++ {
			if i == leave {
				continue
			}
			f := tb.t[i][enter]
			if f == 0 {
				continue
			}
			row := tb.t[i]
			for j := range row {
				row[j] -= f * prow[j]
			}
		}
		tb.basis[leave] = enter
		isBasic[out], isBasic[enter] = false, true
	}
	return IterLimit
}
