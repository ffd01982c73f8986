package lp

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"strconv"
	"testing"
)

// pricing_test.go covers the pricing layer and its interaction with
// presolve and the primary dual algorithm: a differential fuzz over the
// presolve × algorithm matrix against the independent reference simplex
// (with a JSON reproducer dump on any mismatch), the warm dive through the
// snapshot-restore path, a steady-state allocation pin for the incremental
// pricing path, and benchmarks for pricing, the bound-flipping dual ratio
// test and the presolve pass itself.

// lpRepro is the JSON shape of a dumped fuzz reproducer: the full problem
// plus the configuration that disagreed with the reference. Bounds are
// strings so infinities survive encoding/json.
type lpRepro struct {
	Presolve  string     `json:"presolve"`
	Algorithm string     `json:"algorithm"`
	Detail    string     `json:"detail"`
	Vars      []reproVar `json:"vars"`
	Rows      []reproRow `json:"rows"`
}

type reproVar struct {
	Lo   string  `json:"lo"`
	Hi   string  `json:"hi"`
	Cost float64 `json:"cost"`
}

type reproRow struct {
	Coeffs []Coef  `json:"coeffs"`
	Sense  string  `json:"sense"`
	RHS    float64 `json:"rhs"`
}

func ffield(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// dumpReproducer writes the failing problem + config as JSON to a temp file
// and logs its path, so a fuzz failure is replayable without re-deriving the
// RNG state.
func dumpReproducer(t *testing.T, p *Problem, o Options, detail string) {
	t.Helper()
	repro := lpRepro{Presolve: o.Presolve.String(), Algorithm: o.Algorithm.String(), Detail: detail}
	for j := 0; j < p.NumVars(); j++ {
		lo, hi := p.VarBounds(j)
		repro.Vars = append(repro.Vars, reproVar{Lo: ffield(lo), Hi: ffield(hi), Cost: p.Cost(j)})
	}
	for i := 0; i < p.NumRows(); i++ {
		coeffs, sense, rhs := p.Row(i)
		repro.Rows = append(repro.Rows, reproRow{Coeffs: coeffs, Sense: sense.String(), RHS: rhs})
	}
	data, err := json.MarshalIndent(&repro, "", " ")
	if err != nil {
		t.Logf("reproducer marshal failed: %v", err)
		return
	}
	f, err := os.CreateTemp("", "lp-pricing-repro-*.json")
	if err != nil {
		t.Logf("reproducer dump failed: %v", err)
		return
	}
	f.Write(data)
	f.Close()
	t.Logf("reproducer written to %s", f.Name())
}

// feasViolation reports the first primal feasibility violation of x, or ""
// — non-fatal so the matrix fuzz can dump a reproducer before failing.
func feasViolation(p *Problem, x []float64) string {
	const tol = 1e-6
	for j := 0; j < p.NumVars(); j++ {
		lo, hi := p.VarBounds(j)
		if x[j] < lo-tol || x[j] > hi+tol {
			return fmt.Sprintf("x[%d]=%g outside [%g,%g]", j, x[j], lo, hi)
		}
	}
	for i := 0; i < p.NumRows(); i++ {
		coeffs, sense, rhs := p.Row(i)
		ax := 0.0
		for _, c := range coeffs {
			ax += c.Val * x[c.Var]
		}
		switch sense {
		case LE:
			if ax > rhs+tol {
				return fmt.Sprintf("row %d: %g > %g", i, ax, rhs)
			}
		case GE:
			if ax < rhs-tol {
				return fmt.Sprintf("row %d: %g < %g", i, ax, rhs)
			}
		case EQ:
			if math.Abs(ax-rhs) > tol {
				return fmt.Sprintf("row %d: %g != %g", i, ax, rhs)
			}
		}
	}
	return ""
}

// TestPricingPresolveDifferential fuzzes random LPs through the presolve
// mode × algorithm (primal/dual) matrix and requires agreement with the
// independent reference simplex on status, objective and primal
// feasibility. Any mismatch dumps a standalone JSON reproducer. Presolve and
// the dual algorithm only change the path to the optimum, never the optimum.
func TestPricingPresolveDifferential(t *testing.T) {
	var configs []Options
	for _, ps := range []PresolveMode{PresolveOff, PresolveAuto} {
		for _, alg := range []Algorithm{AlgorithmPrimal, AlgorithmDual} {
			configs = append(configs, Options{Presolve: ps, Algorithm: alg})
		}
	}
	rng := rand.New(rand.NewSource(20150608))
	trials := 250
	if testing.Short() {
		trials = 60
	}
	counts := map[Status]int{}
	for trial := 0; trial < trials; trial++ {
		p := randomLP(rng)
		ref := refSolve(p)
		counts[ref.Status]++
		for _, cfg := range configs {
			r := cloneProblem(p).Solve(cfg)
			fail := func(format string, args ...interface{}) {
				detail := fmt.Sprintf(format, args...)
				dumpReproducer(t, p, cfg, detail)
				t.Fatalf("trial %d [%v/%v]: %s", trial, cfg.Presolve, cfg.Algorithm, detail)
			}
			if r.Status != ref.Status {
				fail("status %v, reference %v", r.Status, ref.Status)
			}
			if r.Status != Optimal {
				continue
			}
			if math.Abs(r.Obj-ref.Obj) > 1e-6*(1+math.Abs(ref.Obj)) {
				fail("obj %.12g, reference %.12g", r.Obj, ref.Obj)
			}
			if v := feasViolation(p, r.X); v != "" {
				fail("infeasible primal: %s", v)
			}
		}
	}
	for _, st := range []Status{Optimal, Infeasible, Unbounded} {
		if counts[st] == 0 {
			t.Errorf("fuzz corpus never produced status %v — generator drifted", st)
		}
	}
}

// TestPricingWarmDive runs the warm dive of TestEngineDifferentialWarm with
// every node solved on a fresh clone of the problem, so no cached engine
// exists and each warm start loads the basis snapshot (warmSolve:
// refactorization of the snapshot, dual restore with the bound-flipping
// ratio test, primal certification) — the other warm path.
func TestPricingWarmDive(t *testing.T) {
	warmDive(t, 6, func(p *Problem, basis *Basis) Result {
		q := cloneProblem(p)
		r := q.Solve(Options{WarmStart: basis, SnapshotBasis: true})
		if !r.Stats.WarmStarted && r.Status == Optimal {
			t.Fatal("snapshot warm start fell back to the cold solve")
		}
		return r
	})
}

// TestPricingSteadyStateAllocs pins the warm-reoptimization allocation
// count: the incremental pricing update, candidate list and devex weight
// recurrences must all run on pooled buffers, so steady-state node solves
// stay allocation-free per iteration.
func TestPricingSteadyStateAllocs(t *testing.T) {
	if testing.CoverMode() != "" {
		t.Skip("coverage instrumentation allocates")
	}
	p := assignmentLP(6)
	res := p.Solve(Options{SnapshotBasis: true})
	if res.Status != Optimal {
		t.Fatalf("root status %v", res.Status)
	}
	basis := res.Basis
	step := 0
	avg := testing.AllocsPerRun(50, func() {
		j := (step * 7) % p.NumVars()
		v := float64(step % 2)
		p.SetVarBounds(j, v, v)
		r := p.Solve(Options{WarmStart: basis, SnapshotBasis: true})
		if r.Status == Optimal && r.Basis != nil {
			basis = r.Basis
		}
		step++
	})
	// The fixed per-solve overhead (basis snapshot, result assembly) is
	// ~a dozen allocations; anything scaling with iterations would land
	// far above this pin.
	if avg > 20 {
		t.Errorf("%.1f allocs per warm solve, want <= 20", avg)
	}
}

// pricingBenchLP builds a dense-ish transportation-style LP big enough that
// pricing dominates: n supply rows, n demand rows, n*n arcs with boxed
// capacities.
func pricingBenchLP(n int) *Problem {
	p := NewProblem()
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			p.AddVariable(0, 2, float64(1+rng.Intn(20)))
		}
	}
	for i := 0; i < n; i++ {
		coeffs := make([]Coef, n)
		for j := 0; j < n; j++ {
			coeffs[j] = Coef{Var: i*n + j, Val: 1}
		}
		p.AddConstraint(coeffs, LE, float64(n)/2)
	}
	for j := 0; j < n; j++ {
		coeffs := make([]Coef, n)
		for i := 0; i < n; i++ {
			coeffs[i] = Coef{Var: i*n + j, Val: 1}
		}
		p.AddConstraint(coeffs, GE, 1)
	}
	return p
}

// BenchmarkPricing times a cold solve of a transportation LP (presolve off,
// so the timing isolates the pricing loop), and reports the iteration count.
func BenchmarkPricing(b *testing.B) {
	iters := 0
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p := pricingBenchLP(16)
		r := p.Solve(Options{Presolve: PresolveOff})
		if r.Status != Optimal {
			b.Fatalf("status %v", r.Status)
		}
		iters = r.Iters
	}
	b.ReportMetric(float64(iters), "simplex-iters")
}

// BenchmarkDualBoundFlip times the warm-started dual restore on a heavily
// boxed LP — the path where the bound-flipping ratio test pays — and
// reports how many flips the long-step test performed per reoptimization.
func BenchmarkDualBoundFlip(b *testing.B) {
	p := pricingBenchLP(12)
	res := p.Solve(Options{SnapshotBasis: true})
	if res.Status != Optimal {
		b.Fatalf("root status %v", res.Status)
	}
	basis := res.Basis
	flips := 0
	const block = 10
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Tighten a sliding block of boxed arcs at once: the warm restore
		// then crosses many dual ratio-test breakpoints in one pass, which
		// is exactly the regime BFRT accelerates.
		at := (i * 7) % (p.NumVars() - block)
		for j := at; j < at+block; j++ {
			p.SetVarBounds(j, 1, 1)
		}
		r := p.Solve(Options{WarmStart: basis, SnapshotBasis: true})
		if r.Status == Optimal && r.Basis != nil {
			basis = r.Basis
		}
		flips += r.Stats.DualBoundFlips
		for j := at; j < at+block; j++ {
			p.SetVarBounds(j, 0, 2)
		}
	}
	b.ReportMetric(float64(flips)/float64(b.N), "flips/op")
}

// BenchmarkPresolve times a full presolve pass (reduction + stack build) on
// a problem with substantial reducible structure, reporting the reductions
// found.
func BenchmarkPresolve(b *testing.B) {
	p := pricingBenchLP(12)
	// Singleton rows, a fixed column and duplicate (redundant) rows give the
	// pass real work beyond scanning.
	for j := 0; j < 24; j++ {
		p.AddConstraint([]Coef{{Var: j, Val: 1}}, LE, 1)
	}
	p.SetVarBounds(5, 1, 1)
	rows, cols := 0, 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ps := PresolveProblem(p, PresolveOptions{})
		if ps == nil || ps.Infeasible {
			b.Fatal("presolve found no reduction")
		}
		rows, cols = ps.RowsRemoved, ps.ColsRemoved
	}
	b.ReportMetric(float64(rows), "rows-removed")
	b.ReportMetric(float64(cols), "cols-removed")
}
