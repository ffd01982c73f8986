package exp

import (
	"testing"
	"time"

	"optrouter/internal/core"
	"optrouter/internal/ilp"
	"optrouter/internal/rgraph"
	"optrouter/internal/tech"
)

// Rule dominance: a configuration whose constraint set contains another's
// can never have a cheaper optimum. Pairs (stronger >= weaker):
//
//	RULE6 >= RULE1, RULE9 >= RULE6,
//	RULE2 >= RULE3 >= RULE4 >= RULE5 >= RULE1 (more SADP layers),
//	RULE7 >= RULE2, RULE7 >= RULE6, RULE8 >= RULE3, RULE8 >= RULE6,
//	RULE10 >= RULE7, RULE11 >= RULE8.
//
// This holds per clip for proven optima and ties the entire flow together:
// extraction, graph construction, constraint emission and the exact solver.
func TestRuleDominanceOnExtractedClips(t *testing.T) {
	tb := quickTB(t, tech.N28T12())
	clips := tb.Top
	if len(clips) > 3 {
		clips = clips[:3]
	}
	dominance := [][2]string{
		{"RULE6", "RULE1"}, {"RULE9", "RULE6"},
		{"RULE2", "RULE3"}, {"RULE3", "RULE4"}, {"RULE4", "RULE5"}, {"RULE5", "RULE1"},
		{"RULE7", "RULE2"}, {"RULE7", "RULE6"},
		{"RULE8", "RULE3"}, {"RULE8", "RULE6"},
		{"RULE10", "RULE7"}, {"RULE11", "RULE8"},
	}
	for _, c := range clips {
		costs := map[string]int{}
		feas := map[string]bool{}
		proven := map[string]bool{}
		for _, rule := range tech.StandardRules() {
			r, err := SolveClip(c, rule, SolveOptions{PerClipTimeout: 15 * time.Second})
			if err != nil {
				t.Fatal(err)
			}
			costs[rule.Name] = r.Cost
			feas[rule.Name] = r.Feasible
			proven[rule.Name] = r.Proven
		}
		for _, pair := range dominance {
			strong, weak := pair[0], pair[1]
			if !proven[strong] || !proven[weak] {
				continue
			}
			if feas[strong] && !feas[weak] {
				t.Fatalf("clip %s: %s feasible but weaker %s infeasible", c.Name, strong, weak)
			}
			if feas[strong] && feas[weak] && costs[strong] < costs[weak] {
				t.Fatalf("clip %s: %s cost %d < weaker %s cost %d",
					c.Name, strong, costs[strong], weak, costs[weak])
			}
		}
	}
}

// The two exact solvers agree on extracted (not just synthetic) clips. A
// clip without a proof from both solvers drops its comparison, so the test
// counts the comparisons it made and fails when there were none.
func TestSolversAgreeOnExtractedClips(t *testing.T) {
	if testing.Short() {
		// The MILP path needs minutes on extracted clips; short runs get
		// solver-agreement coverage from TestDifferentialILPvsBnB's
		// synthetic corpus instead.
		t.Skip("MILP on extracted clips exceeds the short-mode budget")
	}
	tb := quickTB(t, tech.N28T8())
	clips := tb.Top
	if len(clips) > 2 {
		clips = clips[:2]
	}
	rule6, _ := tech.RuleByName("RULE6")
	compared := 0
	for _, c := range clips {
		if len(c.Nets) > 4 {
			continue // keep the MILP path tractable
		}
		g, err := rgraph.Build(c, rgraph.Options{Rule: rule6})
		if err != nil {
			t.Fatal(err)
		}
		bs, err := core.SolveBnB(g, core.BnBOptions{TimeLimit: 20 * time.Second})
		if err != nil {
			t.Fatal(err)
		}
		is, err := core.SolveILP(g, ilp.Options{TimeLimit: 60 * time.Second})
		if err != nil {
			t.Logf("clip %s: ILP budget exhausted (%v); skipping agreement", c.Name, err)
			continue
		}
		if !bs.Proven || !is.Proven {
			continue
		}
		if bs.Feasible != is.Feasible || (bs.Feasible && bs.Cost != is.Cost) {
			t.Fatalf("clip %s: disagreement bnb=(%v,%d) ilp=(%v,%d)",
				c.Name, bs.Feasible, bs.Cost, is.Feasible, is.Cost)
		}
		compared++
	}
	t.Logf("%d of %d clips compared with proofs from both solvers", compared, len(clips))
	if compared == 0 {
		t.Fatal("no clip was proven by both solvers; the test compared nothing")
	}
}
