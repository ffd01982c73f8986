package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"optrouter/internal/clip"
	"optrouter/internal/core"
	"optrouter/internal/drc"
	"optrouter/internal/exp"
	"optrouter/internal/rgraph"
	"optrouter/internal/tech"
)

const (
	// fig10Nodes is the per-solve CDC-BnB node budget. At 500 nodes 47 of
	// the 291 solves end unproven, so p90 falls inside the budget-exhausted
	// tail, and a pass takes 8-14 s on two CPUs, so a 30 s run makes three.
	// The wall cap below is far above any solve's time at this budget, so
	// the node budget alone decides which solves end unproven.
	fig10Nodes = 500
	// referenceNodes is the budget of the committed reference answers.
	referenceNodes = 10000
	wallCap        = 120 * time.Second
	fig10Dir       = "fig10"
	fig10Expected  = "fig10-expected.json"
)

// fig10Workload runs exp.DeltaCostStudy on the pinned clip set, one study
// per technology. The clip set is fixed so that a change to route or
// extract cannot move it. The run seed orders the studies; it leaves the
// clip order within a study alone, because on two workers that order sets
// how long one worker idles at the end of the study, which would add seed
// noise to wall time that no code change causes.
type fig10Workload struct {
	studies []study
	expect  map[string]cell
	workers int
}

type study struct {
	t     *tech.Technology
	clips []*clip.Clip
}

// cell is one (clip, rule) answer.
type cell struct {
	Clip     string `json:"clip"`
	Rule     string `json:"rule"`
	Feasible bool   `json:"feasible"`
	Proven   bool   `json:"proven"`
	Cost     int    `json:"cost"`
}

func (c cell) key() string { return c.Clip + "|" + c.Rule }

// studyTech is the technology whose rules a clip is studied under; the
// synthetic probe clip takes N28-12T's full RULE1-11 list.
func studyTech(c *clip.Clip) (*tech.Technology, error) {
	name := c.Tech
	if name == "synthetic" {
		name = "N28-12T"
	}
	for _, t := range tech.AllTechnologies() {
		if t.Name == name {
			return t, nil
		}
	}
	return nil, fmt.Errorf("clip %s: unknown technology %q", c.Name, c.Tech)
}

// loadClips reads every clip of dir with clip.ReadJSON, which validates it,
// in file-name order.
func loadClips(dir string) ([]*clip.Clip, error) {
	files, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		return nil, err
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("no clips in %s", dir)
	}
	sort.Strings(files)
	var out []*clip.Clip
	for _, f := range files {
		r, err := os.Open(f)
		if err != nil {
			return nil, err
		}
		c, err := clip.ReadJSON(r)
		r.Close()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", f, err)
		}
		out = append(out, c)
	}
	return out, nil
}

func loadCells(path string) (map[string]cell, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var cells []cell
	if err := json.Unmarshal(b, &cells); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	out := map[string]cell{}
	for _, c := range cells {
		out[c.key()] = c
	}
	return out, nil
}

func (w *fig10Workload) setup(dir string, seed int64) error {
	if err := w.setupClips(dir, seed); err != nil {
		return err
	}
	var err error
	w.expect, err = loadCells(filepath.Join(dir, fig10Expected))
	return err
}

// setupClips loads the clip set, groups it into one study per technology
// and orders the studies by seed (seed 0 keeps file order).
func (w *fig10Workload) setupClips(dir string, seed int64) error {
	clips, err := loadClips(filepath.Join(dir, fig10Dir))
	if err != nil {
		return err
	}
	byTech := map[string]int{}
	w.studies = nil
	for _, c := range clips {
		t, err := studyTech(c)
		if err != nil {
			return err
		}
		i, ok := byTech[t.Name]
		if !ok {
			i = len(w.studies)
			byTech[t.Name] = i
			w.studies = append(w.studies, study{t: t})
		}
		w.studies[i].clips = append(w.studies[i].clips, c)
	}
	if seed != 0 {
		rng := rand.New(rand.NewSource(seed))
		rng.Shuffle(len(w.studies), func(i, j int) { w.studies[i], w.studies[j] = w.studies[j], w.studies[i] })
	}
	w.workers = runtime.NumCPU()
	return nil
}

func (w *fig10Workload) solveOptions() exp.SolveOptions {
	return exp.SolveOptions{MaxNodes: fig10Nodes, PerClipTimeout: wallCap, Workers: w.workers}
}

func (w *fig10Workload) pass(tr *tracer) (*passStats, error) {
	ps := &passStats{layer: map[string]float64{}}
	var results []exp.ClipRuleResult
	var lastDone time.Time
	for _, s := range w.studies {
		opt := w.solveOptions()
		var sp int
		if tr != nil {
			sp = tr.begin("exp.DeltaCostStudy", -1)
			// The study serializes this callback.
			opt.Progress = func(p exp.ClipProgress) {
				if p.Phase == "done" {
					lastDone = time.Now()
				}
			}
		}
		t0 := time.Now()
		curves, res, err := exp.DeltaCostStudy(s.t, s.clips, opt)
		end := time.Now()
		ps.wall += end.Sub(t0)
		if err != nil {
			return nil, fmt.Errorf("%s study: %w", s.t.Name, err)
		}
		if tr != nil {
			tr.end(sp)
			ps.layer["exp.assemble_ms"] += ms(end.Sub(lastDone))
		}
		if want := len(tech.RulesFor(s.t)); len(curves) != want {
			ps.problem("%s: %d curves, want %d", s.t.Name, len(curves), want)
		}
		results = append(results, res...)
	}

	var solveTime, unprovenTime time.Duration
	for _, r := range results {
		ps.attempted++
		ps.ops = append(ps.ops, r.Runtime)
		solveTime += r.Runtime
		if r.Err != "" {
			ps.problem("%s %s: %s", r.Clip, r.Rule, r.Err)
			continue
		}
		if !r.Proven {
			ps.unresolved++
			unprovenTime += r.Runtime
		}
		ps.routeCost += routeCost(r.Feasible, r.Cost)
		got := cell{Clip: r.Clip, Rule: r.Rule, Feasible: r.Feasible, Proven: r.Proven, Cost: r.Cost}
		if msg := checkCell(got, w.expect); msg != "" {
			ps.problem("%s", msg)
		}
	}
	ps.answer = answerOf(results)
	if tr != nil {
		ps.layer["sched.idle_share"] = 1 - solveTime.Seconds()/(float64(w.workers)*ps.wall.Seconds())
		ps.layer["core.unproven_ms_share"] = unprovenTime.Seconds() / solveTime.Seconds()
		w.replay(tr, ps, results)
	}
	return ps, nil
}

// routeCost is a cell's contribution to route_cost. A cell without a
// routing counts exp.InfeasibleDelta, the paper's Fig. 10 convention, so
// losing an incumbent raises route_cost instead of lowering it.
func routeCost(feasible bool, cost int) int {
	if feasible {
		return cost
	}
	return int(exp.InfeasibleDelta)
}

// answerOf fingerprints a study's cells in clip-name order, so it does not
// depend on the seeded dispatch order.
func answerOf(results []exp.ClipRuleResult) string {
	lines := make([]string, 0, len(results))
	for _, r := range results {
		lines = append(lines, fmt.Sprintf("%s|%s|%v|%v|%d|%d", r.Clip, r.Rule, r.Feasible, r.Proven, r.Cost, r.Nodes))
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n")
}

// checkCell compares one answer with the reference answer of its cell. Two
// proofs must agree; an unproven incumbent can never beat a proven optimum,
// and a proof can never be worse than a known routing.
func checkCell(got cell, expect map[string]cell) string {
	ref, ok := expect[got.key()]
	if !ok {
		return fmt.Sprintf("%s %s: no reference answer", got.Clip, got.Rule)
	}
	bad := false
	switch {
	case got.Proven && ref.Proven:
		bad = got.Feasible != ref.Feasible || (got.Feasible && got.Cost != ref.Cost)
	case ref.Proven: // got is an unproven incumbent, or none
		bad = got.Feasible && (!ref.Feasible || got.Cost < ref.Cost)
	case got.Proven && ref.Feasible: // ref is an unproven incumbent
		bad = !got.Feasible || got.Cost > ref.Cost
	}
	if bad {
		return fmt.Sprintf("%s %s: got feasible=%v proven=%v cost=%d, reference feasible=%v proven=%v cost=%d",
			got.Clip, got.Rule, got.Feasible, got.Proven, got.Cost, ref.Feasible, ref.Proven, ref.Cost)
	}
	return ""
}

// replay re-solves every cell of the pass serially through the public layer
// calls the study makes (rgraph.Build, core.SolveBnB with one Steiner arena
// per clip), times each call, checks every returned route with drc.Check
// and checks that the replay reproduces the study's answers.
func (w *fig10Workload) replay(tr *tracer, ps *passStats, results []exp.ClipRuleResult) {
	study := map[string]exp.ClipRuleResult{}
	for _, r := range results {
		study[r.Clip+"|"+r.Rule] = r
	}
	root := tr.begin("replay", -1)
	var cacheHits, steinerSolves float64
	var ms0, ms1 runtime.MemStats
	for _, s := range w.studies {
		for _, c := range s.clips {
			arena := core.NewSteinerArena()
			for _, rule := range tech.RulesFor(s.t) {
				sp := tr.begin("rgraph.Build", root)
				g, err := rgraph.Build(c, rgraph.Options{Rule: rule})
				tr.end(sp)
				if err != nil {
					ps.problem("%s %s: rgraph: %v", c.Name, rule.Name, err)
					continue
				}
				ps.layer["rgraph.arcs"] += float64(len(g.Arcs))
				runtime.ReadMemStats(&ms0)
				sp = tr.begin("core.SolveBnB", root)
				sol, err := core.SolveBnB(g, core.BnBOptions{TimeLimit: wallCap, MaxNodes: fig10Nodes, Arena: arena})
				tr.end(sp)
				runtime.ReadMemStats(&ms1)
				ps.layer["core.alloc_mb"] += mb(ms1.TotalAlloc - ms0.TotalAlloc)
				if err != nil {
					ps.problem("%s %s: replay solve: %v", c.Name, rule.Name, err)
					continue
				}
				st := sol.Stats
				for name, phase := range map[string]string{
					"core.steiner_ms": core.PhaseSteiner, "core.lagrangian_ms": core.PhaseLagrangian,
					"core.search_drc_ms": core.PhaseDRC, "core.branch_ms": core.PhaseBranch,
					"core.seed_ms": core.PhaseSeed,
				} {
					ps.layer[name] += ms(st.Phases[phase])
				}
				ps.layer["core.steiner_cells"] += float64(st.SteinerCells)
				ps.layer["core.lagrangian_rounds"] += float64(st.LagrangianRounds)
				ps.layer["core.drc_checks"] += float64(st.DRCChecks)
				ps.layer["core.nodes"] += float64(st.Nodes)
				ps.layer["core.bans_generated"] += float64(st.BansGenerated)
				cacheHits += float64(st.SteinerCacheHits)
				steinerSolves += float64(st.SteinerSolves)

				if sol.Feasible {
					sp = tr.begin("drc.Check", root)
					viols := drc.Check(g, sol.NetArcs)
					tr.end(sp)
					ps.layer["drc.verify_calls"]++
					if len(viols) > 0 {
						ps.problem("%s %s: returned route has %d DRC violations, first: %v", c.Name, rule.Name, len(viols), viols[0])
					}
				}
				want := study[c.Name+"|"+rule.Name]
				if sol.Feasible != want.Feasible || sol.Proven != want.Proven || sol.Cost != want.Cost || sol.Nodes != want.Nodes {
					ps.problem("%s %s: replay got feasible=%v proven=%v cost=%d nodes=%d, study feasible=%v proven=%v cost=%d nodes=%d",
						c.Name, rule.Name, sol.Feasible, sol.Proven, sol.Cost, sol.Nodes, want.Feasible, want.Proven, want.Cost, want.Nodes)
				}
			}
		}
	}
	tr.end(root)
	if steinerSolves+cacheHits > 0 {
		ps.layer["core.steiner_cache_hit_ratio"] = cacheHits / (cacheHits + steinerSolves)
	}
	self := tr.selfMS()
	ps.layer["rgraph.ms"] = self["rgraph.Build"]
	ps.layer["drc.verify_ms"] = self["drc.Check"]
	ps.layer["core.bnb_ms"] = self["core.SolveBnB"]
}
