package main

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"optrouter/internal/clip"
	"optrouter/internal/core"
	"optrouter/internal/drc"
	"optrouter/internal/ilp"
	"optrouter/internal/rgraph"
	"optrouter/internal/tech"
)

const (
	// milpNodes is the per-solve MILP node budget. At 150 nodes 20 of the
	// 108 solves end unproven and the slowest takes well under a second on
	// two CPUs, so the wall cap is never reached.
	milpNodes = 150
	// milpRefNodes is the CDC-BnB budget of the set-up references.
	milpRefNodes = 20000
	// Synthesis seeds of the pinned 3-net clips: 32 of 5x6x3 tracks under
	// RULE1/7/8 and 8 of 5x6x4 under RULE1 (RULE7/8 on four layers take
	// seconds per node: the RULE2 probe clip under RULE8 spent 33 s on 24
	// nodes). With the four smallest fig10 clips under RULE1 a pass
	// makes 108 solves.
	milpSynthBase = 1000
	milpSynth3    = 32
	milpSynth4    = 8
	milpFig10     = 4
)

// milpWorkload solves pinned small clips with core.SolveILP. The run seed
// orders the solves.
type milpWorkload struct {
	cells []milpCell
	refs  map[string]cell
}

type milpCell struct {
	c    *clip.Clip
	rule tech.RuleConfig
}

func synthClip(nz int, seed int64) *clip.Clip {
	opt := clip.DefaultSynth(seed)
	opt.NX, opt.NY, opt.NZ = 5, 6, nz
	opt.NumNets = 3
	c := clip.Synthesize(opt)
	c.Name = fmt.Sprintf("synth-5x6x%d-s%d", nz, seed)
	return c
}

// smallest returns the n clips with the fewest nets, then pins, then name.
func smallest(cs []*clip.Clip, n int) []*clip.Clip {
	cs = append([]*clip.Clip(nil), cs...)
	sort.Slice(cs, func(i, j int) bool {
		a, b := cs[i], cs[j]
		if len(a.Nets) != len(b.Nets) {
			return len(a.Nets) < len(b.Nets)
		}
		if a.NumPins() != b.NumPins() {
			return a.NumPins() < b.NumPins()
		}
		return a.Name < b.Name
	})
	return cs[:min(n, len(cs))]
}

func (w *milpWorkload) setup(dir string, seed int64) error {
	rule := func(name string) tech.RuleConfig {
		r, _ := tech.RuleByName(name)
		return r
	}
	r1, r7, r8 := rule("RULE1"), rule("RULE7"), rule("RULE8")
	w.cells = nil
	for i := 0; i < milpSynth3; i++ {
		c := synthClip(3, milpSynthBase+int64(i))
		for _, r := range []tech.RuleConfig{r1, r7, r8} {
			w.cells = append(w.cells, milpCell{c, r})
		}
	}
	for i := 0; i < milpSynth4; i++ {
		w.cells = append(w.cells, milpCell{synthClip(4, milpSynthBase+500+int64(i)), r1})
	}
	fig10, err := loadClips(filepath.Join(dir, fig10Dir))
	if err != nil {
		return err
	}
	for _, c := range smallest(fig10, milpFig10) {
		w.cells = append(w.cells, milpCell{c, r1})
	}

	// CDC-BnB references, one per cell.
	w.refs = map[string]cell{}
	for _, mc := range w.cells {
		g, err := rgraph.Build(mc.c, rgraph.Options{Rule: mc.rule})
		if err != nil {
			return fmt.Errorf("%s %s: %w", mc.c.Name, mc.rule.Name, err)
		}
		sol, err := core.SolveBnB(g, core.BnBOptions{MaxNodes: milpRefNodes, TimeLimit: wallCap})
		if err != nil {
			return fmt.Errorf("%s %s reference: %w", mc.c.Name, mc.rule.Name, err)
		}
		ref := cell{Clip: mc.c.Name, Rule: mc.rule.Name, Feasible: sol.Feasible, Proven: sol.Proven, Cost: sol.Cost}
		w.refs[ref.key()] = ref
	}
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(w.cells), func(i, j int) { w.cells[i], w.cells[j] = w.cells[j], w.cells[i] })
	return nil
}

// milpOut is one solve kept for checking after the timed loop.
type milpOut struct {
	mc  milpCell
	g   *rgraph.Graph
	sol *core.Solution
	err error
}

func (w *milpWorkload) pass(tr *tracer) (*passStats, error) {
	ps := &passStats{layer: map[string]float64{}}
	outs := make([]milpOut, 0, len(w.cells))
	start := time.Now()
	for _, mc := range w.cells {
		sp := tr.begin("rgraph.Build", -1)
		g, err := rgraph.Build(mc.c, rgraph.Options{Rule: mc.rule})
		tr.end(sp)
		if err != nil {
			return nil, fmt.Errorf("%s %s: %w", mc.c.Name, mc.rule.Name, err)
		}
		sp = tr.begin("core.SolveILP", -1)
		t0 := time.Now()
		sol, err := core.SolveILP(g, ilp.Options{MaxNodes: milpNodes, TimeLimit: wallCap})
		ps.ops = append(ps.ops, time.Since(t0))
		tr.end(sp)
		outs = append(outs, milpOut{mc, g, sol, err})
	}
	ps.wall = time.Since(start)

	var answers []string
	var gap, optSum float64
	for _, o := range outs {
		name := o.mc.c.Name + " " + o.mc.rule.Name
		ps.attempted++
		if tr != nil && o.sol != nil {
			// Every solve that returns a Solution counts, including a
			// node-budget stop before any incumbent.
			st := o.sol.Stats
			l := ps.layer
			l["rgraph.arcs"] += float64(len(o.g.Arcs))
			l["core.model_rows"] += float64(st.ModelRows)
			l["core.model_nnz"] += float64(st.ModelNNZ)
			l["ilp.nodes"] += float64(st.Nodes)
			l["lp.ms"] += ms(st.LPTime)
			l["lp.solves"] += float64(st.LPSolves)
			l["lp.iters"] += float64(st.LPIters)
			l["lp.ftran_nnz"] += float64(st.LPFTRANNnz)
			l["lp.btran_nnz"] += float64(st.LPBTRANNnz)
			l["lp.refactors"] += float64(st.LPRefactors)
			l["lp.warm_starts"] += float64(st.LPWarmStarts)
		}
		if o.err != nil {
			// A node-budget stop before any incumbent is an unproven
			// search, which SolveILP reports as an error.
			if o.sol != nil && o.sol.Stats.Termination == string(ilp.TermNodeLimit) {
				ps.unresolved++
				ps.routeCost += routeCost(false, 0)
				answers = append(answers, name+" none")
				continue
			}
			ps.problem("%s: %v", name, o.err)
			continue
		}
		sol, st := o.sol, o.sol.Stats
		if !sol.Proven {
			ps.unresolved++
		}
		answers = append(answers, fmt.Sprintf("%s %v %v %d %d", name, sol.Feasible, sol.Proven, sol.Cost, st.Nodes))
		ps.routeCost += routeCost(sol.Feasible, sol.Cost)
		if sol.Feasible {
			sp := tr.begin("drc.Check", -1)
			viols := drc.Check(o.g, sol.NetArcs)
			tr.end(sp)
			ps.layer["drc.verify_calls"]++
			if len(viols) > 0 {
				ps.problem("%s: returned route has %d DRC violations, first: %v", name, len(viols), viols[0])
			}
		}
		got := cell{Clip: o.mc.c.Name, Rule: o.mc.rule.Name, Feasible: sol.Feasible, Proven: sol.Proven, Cost: sol.Cost}
		if msg := checkCell(got, w.refs); msg != "" {
			ps.problem("MILP vs CDC-BnB: %s", msg)
		}
		if tr != nil && sol.Proven && sol.Feasible {
			if root, ok := rootBound(st.BoundTrace); ok {
				gap += float64(sol.Cost) - root
				optSum += float64(sol.Cost)
			}
		}
	}
	sort.Strings(answers)
	ps.answer = strings.Join(answers, "\n")
	if tr != nil {
		self := tr.selfMS()
		ps.layer["rgraph.ms"] = self["rgraph.Build"]
		ps.layer["ilp.ms"] = self["core.SolveILP"]
		ps.layer["drc.verify_ms"] = self["drc.Check"]
		if ps.layer["ilp.ms"] > 0 {
			ps.layer["lp.share"] = ps.layer["lp.ms"] / ps.layer["ilp.ms"]
		}
		if optSum > 0 {
			ps.layer["ilp.root_gap"] = gap / optSum
		}
	}
	return ps, nil
}

// rootBound is the first proven lower bound of a solve's trace.
func rootBound(trace []core.BoundSample) (float64, bool) {
	for _, s := range trace {
		if s.Bound >= 0 {
			return float64(s.Bound), true
		}
	}
	return 0, false
}
