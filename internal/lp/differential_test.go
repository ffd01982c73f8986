package lp

import (
	"math"
	"math/rand"
	"testing"
)

// randomLP generates a random bounded LP. Most instances are feasible and
// bounded; the generator deliberately mixes in degenerate rows (duplicated
// constraints), equality-heavy systems, free variables, and occasional
// contradictory or unbounded constructions so every Status is exercised.
func randomLP(rng *rand.Rand) *Problem {
	p := NewProblem()
	n := 2 + rng.Intn(10)
	for j := 0; j < n; j++ {
		lo, hi := 0.0, float64(1+rng.Intn(10))
		switch rng.Intn(10) {
		case 0:
			lo = -Inf // one-sided above
		case 1:
			lo, hi = -hi, Inf
		case 2:
			lo, hi = -Inf, Inf // free
		case 3:
			v := float64(rng.Intn(5))
			lo, hi = v, v // fixed
		}
		p.AddVariable(lo, hi, float64(rng.Intn(21)-10))
	}
	m := 1 + rng.Intn(12)
	for i := 0; i < m; i++ {
		var coeffs []Coef
		for j := 0; j < n; j++ {
			if rng.Intn(3) == 0 {
				coeffs = append(coeffs, Coef{Var: j, Val: float64(rng.Intn(9) - 4)})
			}
		}
		if len(coeffs) == 0 {
			coeffs = append(coeffs, Coef{Var: rng.Intn(n), Val: 1})
		}
		sense := Sense(rng.Intn(3))
		rhs := float64(rng.Intn(25) - 8)
		p.AddConstraint(coeffs, sense, rhs)
		if rng.Intn(6) == 0 {
			// Duplicate the row (degeneracy) or contradict it (infeasibility).
			if rng.Intn(3) == 0 && sense == LE {
				p.AddConstraint(coeffs, GE, rhs+1+float64(rng.Intn(4)))
			} else {
				p.AddConstraint(coeffs, sense, rhs)
			}
		}
	}
	return p
}

// cloneProblem rebuilds an identical Problem (fresh caches) so two solves
// never share a cached simplex.
func cloneProblem(p *Problem) *Problem {
	q := NewProblem()
	for j := 0; j < p.NumVars(); j++ {
		lo, hi := p.VarBounds(j)
		q.AddVariable(lo, hi, p.Cost(j))
	}
	for i := 0; i < p.NumRows(); i++ {
		coeffs, sense, rhs := p.Row(i)
		q.AddConstraint(coeffs, sense, rhs)
	}
	return q
}

// TestEngineDifferential fuzzes random bounded LPs through the engine and
// the independent reference simplex (reference_test.go) and requires
// agreement on status and (when optimal) objective within tolerance. This
// is the answer-preservation gate for the engine's default cold path.
func TestEngineDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(1234))
	counts := map[Status]int{}
	for trial := 0; trial < 400; trial++ {
		p := randomLP(rng)
		sp := p.Solve(Options{})
		ref := refSolve(p)
		if sp.Status != ref.Status {
			t.Fatalf("trial %d: status engine=%v reference=%v", trial, sp.Status, ref.Status)
		}
		counts[sp.Status]++
		if sp.Status == Optimal {
			if math.Abs(sp.Obj-ref.Obj) > 1e-6*(1+math.Abs(ref.Obj)) {
				t.Fatalf("trial %d: obj engine=%.12g reference=%.12g", trial, sp.Obj, ref.Obj)
			}
			// The engine's solution must itself be feasible — agreement on
			// the objective alone could mask a corrupted primal vector.
			checkFeasible(t, trial, p, sp.X)
		}
	}
	for _, st := range []Status{Optimal, Infeasible, Unbounded} {
		if counts[st] == 0 {
			t.Errorf("fuzz corpus never produced status %v — generator drifted", st)
		}
	}
}

func checkFeasible(t *testing.T, trial int, p *Problem, x []float64) {
	t.Helper()
	if v := feasViolation(p, x); v != "" {
		t.Fatalf("trial %d: %s", trial, v)
	}
}

// warmDive runs a branch-and-bound-style dive on assignmentLP(n): each node
// fixes one more variable and reoptimizes from the previous node's basis.
// solve performs the node solve; after every node the engine's status and
// objective must match the reference simplex on the same bounds, and an
// optimal primal vector must be feasible. The dive stops at the first
// non-optimal node.
func warmDive(t *testing.T, n int, solve func(p *Problem, basis *Basis) Result) {
	t.Helper()
	p := assignmentLP(n)
	res := p.Solve(Options{SnapshotBasis: true})
	if res.Status != Optimal {
		t.Fatalf("root status %v", res.Status)
	}
	basis := res.Basis
	for step := 0; step < 3*n; step++ {
		j := (step * 7) % (n * n)
		v := float64(step % 2)
		p.SetVarBounds(j, v, v)
		r := solve(p, basis)
		ref := refSolve(p)
		if r.Status != ref.Status {
			t.Fatalf("node %d: status engine=%v reference=%v", step, r.Status, ref.Status)
		}
		if r.Status != Optimal {
			return
		}
		if math.Abs(r.Obj-ref.Obj) > 1e-6 {
			t.Fatalf("node %d: obj engine=%g reference=%g", step, r.Obj, ref.Obj)
		}
		checkFeasible(t, step, p, r.X)
		if r.Basis != nil {
			basis = r.Basis
		}
	}
}

// TestEngineDifferentialWarm runs the dive with warm starts on one Problem,
// so every node reoptimizes the cached engine in place (reSolve: bound
// reload, dual restore, primal certification). This covers the
// dual-simplex restore path, which the cold fuzz above never reaches.
func TestEngineDifferentialWarm(t *testing.T) {
	warmDive(t, 6, func(p *Problem, basis *Basis) Result {
		return p.Solve(Options{WarmStart: basis, SnapshotBasis: true})
	})
}
