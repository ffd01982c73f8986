package lp

import (
	"math"
	"math/rand"
	"testing"
)

// Random 3-variable LPs cross-checked against exhaustive vertex enumeration
// (all triples of active constraints from the rows and box faces). The
// reference simplex (reference_test.go) must agree with the enumeration
// too: the brute force is what vouches for the differential tests' oracle.
func TestRandom3DAgainstVertexEnumeration(t *testing.T) {
	rng := rand.New(rand.NewSource(123))
	const lim = 30.0
	for trial := 0; trial < 120; trial++ {
		nc := 2 + rng.Intn(4)
		type cons struct{ a, b, c, d float64 } // a x + b y + c z <= d
		var rows []cons
		for i := 0; i < nc; i++ {
			rows = append(rows, cons{
				a: float64(rng.Intn(7) - 3),
				b: float64(rng.Intn(7) - 3),
				c: float64(rng.Intn(7) - 3),
				d: float64(rng.Intn(25)),
			})
		}
		cx := float64(rng.Intn(9) - 4)
		cy := float64(rng.Intn(9) - 4)
		cz := float64(rng.Intn(9) - 4)

		p := NewProblem()
		x := p.AddVariable(0, lim, cx)
		y := p.AddVariable(0, lim, cy)
		z := p.AddVariable(0, lim, cz)
		for _, r := range rows {
			p.AddConstraint([]Coef{{x, r.a}, {y, r.b}, {z, r.c}}, LE, r.d)
		}
		res := p.Solve(Options{})
		ref := refSolve(p)

		// Enumerate candidate vertices from all planes (constraints + box
		// faces), solving each 3x3 system.
		all := append([]cons{}, rows...)
		all = append(all,
			cons{1, 0, 0, 0}, cons{1, 0, 0, lim},
			cons{0, 1, 0, 0}, cons{0, 1, 0, lim},
			cons{0, 0, 1, 0}, cons{0, 0, 1, lim})
		feasible := func(px, py, pz float64) bool {
			if px < -1e-6 || py < -1e-6 || pz < -1e-6 ||
				px > lim+1e-6 || py > lim+1e-6 || pz > lim+1e-6 {
				return false
			}
			for _, r := range rows {
				if r.a*px+r.b*py+r.c*pz > r.d+1e-6 {
					return false
				}
			}
			return true
		}
		best := math.Inf(1)
		any := false
		for i := 0; i < len(all); i++ {
			for j := i + 1; j < len(all); j++ {
				for k := j + 1; k < len(all); k++ {
					px, py, pz, ok := solve3(
						all[i].a, all[i].b, all[i].c, all[i].d,
						all[j].a, all[j].b, all[j].c, all[j].d,
						all[k].a, all[k].b, all[k].c, all[k].d)
					if !ok || !feasible(px, py, pz) {
						continue
					}
					any = true
					obj := cx*px + cy*py + cz*pz
					if obj < best {
						best = obj
					}
				}
			}
		}
		if feasible(0, 0, 0) {
			any = true
			if 0 < best {
				best = 0
			}
		}

		if !any {
			if res.Status != Infeasible {
				t.Fatalf("trial %d: enumeration found nothing feasible, solver says %v", trial, res.Status)
			}
			if ref.Status != Infeasible {
				t.Fatalf("trial %d: enumeration found nothing feasible, reference says %v", trial, ref.Status)
			}
			continue
		}
		if res.Status != Optimal {
			t.Fatalf("trial %d: solver %v, enumeration best %v", trial, res.Status, best)
		}
		if math.Abs(res.Obj-best) > 1e-4 {
			t.Fatalf("trial %d: solver %v vs enumeration %v", trial, res.Obj, best)
		}
		if ref.Status != Optimal {
			t.Fatalf("trial %d: reference %v, enumeration best %v", trial, ref.Status, best)
		}
		if math.Abs(ref.Obj-best) > 1e-4 {
			t.Fatalf("trial %d: reference %v vs enumeration %v", trial, ref.Obj, best)
		}
	}
}

// solve3 solves a 3x3 linear system by Cramer's rule.
func solve3(a1, b1, c1, d1, a2, b2, c2, d2, a3, b3, c3, d3 float64) (x, y, z float64, ok bool) {
	det := a1*(b2*c3-b3*c2) - b1*(a2*c3-a3*c2) + c1*(a2*b3-a3*b2)
	if math.Abs(det) < 1e-9 {
		return 0, 0, 0, false
	}
	x = (d1*(b2*c3-b3*c2) - b1*(d2*c3-d3*c2) + c1*(d2*b3-d3*b2)) / det
	y = (a1*(d2*c3-d3*c2) - d1*(a2*c3-a3*c2) + c1*(a2*d3-a3*d2)) / det
	z = (a1*(b2*d3-b3*d2) - b1*(a2*d3-a3*d2) + d1*(a2*b3-a3*b2)) / det
	return x, y, z, true
}

func TestIterLimitStatus(t *testing.T) {
	// A problem large enough to need more than 1 iteration, capped at 1.
	p := NewProblem()
	var cs []Coef
	for i := 0; i < 10; i++ {
		v := p.AddVariable(0, Inf, -1)
		cs = append(cs, Coef{v, 1})
	}
	p.AddConstraint(cs, LE, 5)
	// Presolve off: the parallel-column merge plus duality fixing would
	// otherwise solve this without a single simplex iteration.
	res := p.Solve(Options{MaxIters: 1, Presolve: PresolveOff})
	if res.Status == Optimal {
		t.Fatalf("1 iteration should not reach optimality here")
	}
	if res.Status != IterLimit {
		t.Fatalf("status = %v, want iteration-limit", res.Status)
	}
}

func TestLargeEqualitySystem(t *testing.T) {
	// Chained equalities x_{i+1} = x_i + 1 with x_0 = 0: solved exactly.
	p := NewProblem()
	const n = 40
	vars := make([]int, n)
	for i := range vars {
		vars[i] = p.AddVariable(-Inf, Inf, 0)
	}
	p.SetCost(vars[n-1], 1) // minimize last: it is fully determined anyway
	p.AddConstraint([]Coef{{vars[0], 1}}, EQ, 0)
	for i := 0; i+1 < n; i++ {
		p.AddConstraint([]Coef{{vars[i+1], 1}, {vars[i], -1}}, EQ, 1)
	}
	res := p.Solve(Options{})
	if res.Status != Optimal {
		t.Fatalf("status %v", res.Status)
	}
	if math.Abs(res.X[vars[n-1]]-float64(n-1)) > 1e-6 {
		t.Fatalf("x[%d] = %v, want %d", n-1, res.X[vars[n-1]], n-1)
	}
}

func TestNameAccessors(t *testing.T) {
	p := NewProblem()
	j := p.AddVariable(0, 1, 0)
	if p.Name(j) != "x0" {
		t.Errorf("default name %q", p.Name(j))
	}
	p.SetName(j, "alpha")
	if p.Name(j) != "alpha" {
		t.Errorf("named %q", p.Name(j))
	}
	if p.NumVars() != 1 || p.NumRows() != 0 {
		t.Error("counters wrong")
	}
}

func TestRowAccessor(t *testing.T) {
	p := NewProblem()
	x := p.AddVariable(0, 1, 0)
	y := p.AddVariable(0, 1, 0)
	p.AddConstraint([]Coef{{x, 2}, {y, -1}}, GE, 3)
	coeffs, sense, rhs := p.Row(0)
	if len(coeffs) != 2 || sense != GE || rhs != 3 {
		t.Fatalf("row = %v %v %v", coeffs, sense, rhs)
	}
	if coeffs[0].Val != 2 || coeffs[1].Val != -1 {
		t.Fatalf("coeffs %v", coeffs)
	}
}

func TestZeroCoefficientDropped(t *testing.T) {
	p := NewProblem()
	x := p.AddVariable(0, 10, -1)
	y := p.AddVariable(0, 10, 0)
	p.AddConstraint([]Coef{{x, 1}, {y, 0}}, LE, 5)
	coeffs, _, _ := p.Row(0)
	if len(coeffs) != 1 {
		t.Fatalf("zero coefficient kept: %v", coeffs)
	}
	res := p.Solve(Options{})
	if res.Status != Optimal || math.Abs(res.X[x]-5) > 1e-7 {
		t.Fatalf("res %v %v", res.Status, res.X)
	}
}

func TestPanicsOnBadInput(t *testing.T) {
	p := NewProblem()
	x := p.AddVariable(0, 1, 0)
	assertPanics(t, func() { p.AddVariable(2, 1, 0) }, "inverted bounds")
	assertPanics(t, func() { p.SetVarBounds(x, 5, 1) }, "inverted SetVarBounds")
	assertPanics(t, func() { p.AddConstraint([]Coef{{99, 1}}, LE, 0) }, "unknown var")
}

func assertPanics(t *testing.T, f func(), what string) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s did not panic", what)
		}
	}()
	f()
}
