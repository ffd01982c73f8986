package core

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"optrouter/internal/clip"
	"optrouter/internal/ilp"
	"optrouter/internal/rgraph"
	"optrouter/internal/tech"
)

// TestDifferentialILPvsBnB is the cross-solver differential harness: the
// repository has two independent exact engines — the monolithic MILP
// (SolveILP over package ilp) and the conflict-driven combinatorial
// branch-and-bound (SolveBnB) — so they must agree on feasibility and, when
// feasible, on the optimal cost. A corpus of randomized small clips crossed
// with representative rule configurations exercises both engines over SADP,
// via-adjacency and plain instances. Every instance is small enough that
// both engines prove it well within budget, so an unproven solve fails the
// subtest instead of silently dropping its comparison; any disagreement
// writes the clip as a JSON reproducer file and fails with its path.
func TestDifferentialILPvsBnB(t *testing.T) {
	seeds := []int64{1, 2, 3, 4, 5, 6, 7, 8}
	if testing.Short() {
		seeds = seeds[:3]
	}
	// One rule per constraint family: unconstrained baseline, via-adjacency
	// (4 and 8 blocked neighbors), SADP everywhere, and the paper's
	// "aggressive" combination.
	ruleNames := []string{"RULE1", "RULE6", "RULE7", "RULE2", "RULE8"}

	for _, seed := range seeds {
		opt := clip.DefaultSynth(seed)
		opt.NX, opt.NY, opt.NZ = 4, 5, 3
		opt.NumNets = 3
		opt.MaxSinks = 2
		c := clip.Synthesize(opt)
		c.Tech = "N28-12T"

		for _, rn := range ruleNames {
			rule, ok := tech.RuleByName(rn)
			if !ok {
				t.Fatalf("unknown rule %s", rn)
			}
			t.Run(fmt.Sprintf("seed%d-%s", seed, rn), func(t *testing.T) {
				g, err := rgraph.Build(c, rgraph.Options{Rule: rule})
				if err != nil {
					t.Fatal(err)
				}
				bnb, err := SolveBnB(g, BnBOptions{TimeLimit: 30 * time.Second})
				if err != nil {
					t.Fatal(err)
				}
				milp, err := SolveILP(g, ilp.Options{TimeLimit: 60 * time.Second})
				if err != nil {
					t.Fatal(err)
				}
				if !bnb.Proven || !milp.Proven {
					t.Fatalf("no proof within budget (bnb=%v milp=%v); reproducer: %s",
						bnb.Proven, milp.Proven, dumpReproducer(t, c, rn))
				}
				if bnb.Feasible != milp.Feasible {
					t.Errorf("feasibility disagreement: bnb=%v milp=%v; reproducer: %s",
						bnb.Feasible, milp.Feasible, dumpReproducer(t, c, rn))
					return
				}
				if bnb.Feasible && bnb.Cost != milp.Cost {
					t.Errorf("optimal cost disagreement: bnb=%d milp=%d; reproducer: %s",
						bnb.Cost, milp.Cost, dumpReproducer(t, c, rn))
				}
			})
		}
	}
}

// TestDifferentialFourWay extends the cross-solver battery to the parallel
// and portfolio paths: on every corpus instance, four independent solve
// modes — serial CDC-BnB, serial MILP, the deterministic parallel BnB and
// the portfolio race — must agree on feasibility and optimal cost whenever
// they all carry proofs. A disagreement writes the clip as a JSON
// reproducer and fails with its path.
func TestDifferentialFourWay(t *testing.T) {
	seeds := []int64{1, 2, 3, 4, 5, 6, 7, 8}
	if testing.Short() {
		seeds = seeds[:3]
	}
	ruleNames := []string{"RULE1", "RULE7", "RULE8"}

	for _, seed := range seeds {
		opt := clip.DefaultSynth(seed)
		opt.NX, opt.NY, opt.NZ = 4, 5, 3
		opt.NumNets = 3
		opt.MaxSinks = 2
		c := clip.Synthesize(opt)
		c.Tech = "N28-12T"

		for _, rn := range ruleNames {
			rule, ok := tech.RuleByName(rn)
			if !ok {
				t.Fatalf("unknown rule %s", rn)
			}
			t.Run(fmt.Sprintf("seed%d-%s", seed, rn), func(t *testing.T) {
				g, err := rgraph.Build(c, rgraph.Options{Rule: rule})
				if err != nil {
					t.Fatal(err)
				}
				type mode struct {
					name  string
					solve func() (*Solution, error)
				}
				modes := []mode{
					{"bnb", func() (*Solution, error) {
						return SolveBnB(g, BnBOptions{TimeLimit: 30 * time.Second})
					}},
					{"ilp", func() (*Solution, error) {
						return SolveILP(g, ilp.Options{TimeLimit: 60 * time.Second})
					}},
					{"par4", func() (*Solution, error) {
						return SolveBnB(g, BnBOptions{Par: 4, TimeLimit: 30 * time.Second})
					}},
					{"portfolio", func() (*Solution, error) {
						return SolvePortfolio(g, BnBOptions{TimeLimit: 60 * time.Second})
					}},
				}
				var ref *Solution
				refName := ""
				for _, md := range modes {
					sol, err := md.solve()
					if err != nil {
						t.Fatalf("%s: %v", md.name, err)
					}
					if !sol.Proven {
						t.Logf("%s: no proof within budget, skipping mode", md.name)
						continue
					}
					if ref == nil {
						ref, refName = sol, md.name
						continue
					}
					if sol.Feasible != ref.Feasible {
						t.Errorf("feasibility disagreement: %s=%v %s=%v; reproducer: %s",
							md.name, sol.Feasible, refName, ref.Feasible, dumpReproducer(t, c, rn))
						return
					}
					if sol.Feasible && sol.Cost != ref.Cost {
						t.Errorf("optimal cost disagreement: %s=%d %s=%d; reproducer: %s",
							md.name, sol.Cost, refName, ref.Cost, dumpReproducer(t, c, rn))
						return
					}
				}
				if ref == nil {
					t.Skip("no mode produced a proof within budget")
				}
			})
		}
	}
}

// dumpReproducer writes the disagreeing clip as JSON (loadable with
// `optroute -clip`) and returns its path so the failure is replayable.
func dumpReproducer(t *testing.T, c *clip.Clip, rule string) string {
	t.Helper()
	dir := os.Getenv("DIFF_REPRO_DIR")
	if dir == "" {
		dir = os.TempDir()
	}
	path := filepath.Join(dir, fmt.Sprintf("diff-repro-%s-%s.json", c.Name, rule))
	f, err := os.Create(path)
	if err != nil {
		t.Logf("reproducer dump failed: %v", err)
		return "(dump failed)"
	}
	defer f.Close()
	if err := c.WriteJSON(f); err != nil {
		t.Logf("reproducer dump failed: %v", err)
		return "(dump failed)"
	}
	return path
}
