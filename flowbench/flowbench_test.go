package main

import (
	"encoding/json"
	"math"
	"os"
	"regexp"
	"slices"
	"strings"
	"testing"
	"time"

	"optrouter/internal/exp"
	"optrouter/internal/tech"
)

const testData = "testdata"

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

func TestMetricNames(t *testing.T) {
	seen := map[string]bool{}
	for _, m := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if !nameRE.MatchString(m.Name) {
			t.Errorf("metric name %q uses characters outside [A-Za-z0-9_.-]", m.Name)
		}
		if seen[m.Name] {
			t.Errorf("metric %q declared twice", m.Name)
		}
		seen[m.Name] = true
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("metric %q: better = %q", m.Name, m.Better)
		}
	}
	for _, w := range workloadNames {
		if !nameRE.MatchString(w) {
			t.Errorf("workload name %q", w)
		}
	}
}

// TestLayerMap checks that every per-layer metric names the workload it
// moves on and only end-to-end metrics that exist.
func TestLayerMap(t *testing.T) {
	e2e := map[string]bool{}
	for _, m := range endToEnd {
		e2e[m.Name] = true
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	wl := map[string]bool{"": true}
	for _, w := range workloadNames {
		wl[w] = true
	}
	for _, m := range perLayer {
		if !wl[m.Workload] {
			t.Errorf("%s: unknown workload %q", m.Name, m.Workload)
		}
		if len(m.Moves) == 0 {
			t.Errorf("%s: moves no end-to-end metric", m.Name)
		}
		for _, e := range m.Moves {
			if !e2e[e] {
				t.Errorf("%s: moves undeclared end-to-end metric %q", m.Name, e)
			}
		}
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json and the metric catalog in step.
func TestBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Workloads) != len(workloadNames) {
		t.Fatalf("BENCHMARK.json has %d workloads, catalog %d", len(doc.Workloads), len(workloadNames))
	}
	for i, w := range doc.Workloads {
		if w.Name != workloadNames[i] || w.Why == "" {
			t.Errorf("workload %d: %q (why %q), want %q", i, w.Name, w.Why, workloadNames[i])
		}
	}
	if len(doc.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, catalog %d", len(doc.EndToEnd), len(endToEnd))
	}
	for i, m := range doc.EndToEnd {
		c := endToEnd[i]
		if m.Name != c.Name || m.Unit != c.Unit || m.Better != c.Better || m.Bound != c.Bound {
			t.Errorf("end_to_end[%d] = %+v, catalog %+v", i, m, c)
		}
	}
	if len(doc.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, catalog %d", len(doc.PerLayer), len(perLayer))
	}
	for i, m := range doc.PerLayer {
		c := perLayer[i]
		if m.Name != c.Name || m.Unit != c.Unit || m.Better != c.Better {
			t.Errorf("per_layer[%d] = %+v, catalog %+v", i, m, c)
		}
	}
}

// TestSolverWorkloadSizes checks that each solver workload makes at least
// 100 solves a pass, so op_p90_ms has ten samples beyond it.
func TestSolverWorkloadSizes(t *testing.T) {
	var f fig10Workload
	if err := f.setup(testData, 1); err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, s := range f.studies {
		n += len(s.clips) * len(tech.RulesFor(s.t))
	}
	if n < 100 || len(f.expect) != n {
		t.Errorf("fig10: %d solves, %d reference answers; want >= 100, one each", n, len(f.expect))
	}
	var m milpWorkload
	if err := m.setup(testData, 1); err != nil {
		t.Fatal(err)
	}
	if len(m.cells) < 100 {
		t.Errorf("milp: %d solves, want >= 100", len(m.cells))
	}
}

func TestCheckCell(t *testing.T) {
	opt := cell{Clip: "c", Rule: "R", Feasible: true, Proven: true, Cost: 10}
	inc := cell{Clip: "c", Rule: "R", Feasible: true, Cost: 12}
	infeas := cell{Clip: "c", Rule: "R", Proven: true}
	none := cell{Clip: "c", Rule: "R"}
	for _, tc := range []struct {
		got, ref cell
		ok       bool
	}{
		{opt, opt, true},
		{inc, opt, true},
		{none, opt, true},
		{opt, inc, true},
		{inc, inc, true},
		{infeas, infeas, true},
		{none, infeas, true},
		{cell{Clip: "c", Rule: "R", Feasible: true, Proven: true, Cost: 11}, opt, false},
		{cell{Clip: "c", Rule: "R", Feasible: true, Cost: 9}, opt, false},
		{infeas, opt, false},
		{opt, infeas, false},
		{inc, infeas, false},
		{cell{Clip: "c", Rule: "R", Feasible: true, Proven: true, Cost: 13}, inc, false},
		{infeas, inc, false},
	} {
		msg := checkCell(tc.got, map[string]cell{tc.ref.key(): tc.ref})
		if (msg == "") != tc.ok {
			t.Errorf("got %+v vs ref %+v: message %q, want ok=%v", tc.got, tc.ref, msg, tc.ok)
		}
	}
	if checkCell(opt, map[string]cell{}) == "" {
		t.Error("a cell without reference passed")
	}
}

func TestSelfTime(t *testing.T) {
	at := func(ms int) time.Duration { return time.Duration(ms) * time.Millisecond }
	tr := newTracer()
	tr.spans = []span{
		{Name: "root", Parent: -1, Start: at(0), End: at(100)},
		{Name: "a", Parent: 0, Start: at(10), End: at(50)},
		{Name: "a", Parent: 0, Start: at(50), End: at(70)},
		{Name: "b", Parent: 0, Start: at(80), End: at(90)},
		{Name: "c", Parent: 3, Start: at(82), End: at(86)},
	}
	self := tr.selfMS()
	if self["root"] != 30 || self["a"] != 60 || self["b"] != 6 || self["c"] != 4 {
		t.Errorf("self times %v, want root 30, a 60, b 6, c 4", self)
	}
}

// TestHDQuantile checks the Harrell-Davis estimates against values
// integrated with 20000 steps per rank, on the squares 1..20.
func TestHDQuantile(t *testing.T) {
	var xs []float64
	for i := 20; i >= 1; i-- {
		xs = append(xs, float64(i*i))
	}
	for _, c := range []struct{ q, want float64 }{{0.5, 114.87878787809754}, {0.9, 343.9291075995487}} {
		if got := hdQuantile(xs, c.q); math.Abs(got-c.want) > 1e-3*c.want {
			t.Errorf("hdQuantile(squares, %v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := hdQuantile([]float64{7, 7, 7, 7}, 0.9); math.Abs(got-7) > 1e-9 {
		t.Errorf("hdQuantile of a constant = %v, want 7", got)
	}
	if got := hdQuantile([]float64{3}, 0.9); got != 3 {
		t.Errorf("hdQuantile of one sample = %v, want 3", got)
	}
}

// TestDesignMatchesBuildTestbed pins the design workload's layer-by-layer
// pass to exp.BuildTestbed: run in reverse testbed order, it still produces
// the same top-K clips and routes.
func TestDesignMatchesBuildTestbed(t *testing.T) {
	var w designWorkload
	if err := w.setup(testData, 0); err != nil {
		t.Fatal(err)
	}
	w.opt.Designs = []exp.DesignSpec{
		{Profile: "M0", Size: 60, Utils: []float64{0.9}},
		{Profile: "AES", Size: 60, Utils: []float64{0.9}},
	}
	w.opt.TopK = 4
	w.orderJobs(0)
	slices.Reverse(w.jobs)
	ps, err := w.pass(nil)
	if err != nil {
		t.Fatal(err)
	}
	tb, err := exp.BuildTestbed(w.t, w.opt)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, c := range tb.Top {
		names = append(names, c.Name)
	}
	if len(names) == 0 {
		t.Fatal("BuildTestbed ranked no clips")
	}
	cost := 0
	for _, r := range tb.Records {
		cost += r.RouteWL + 4*r.RouteVias
	}
	if !strings.HasPrefix(ps.answer, "top="+strings.Join(names, ",")+" ") || ps.routeCost != cost {
		t.Errorf("pass answer %q cost %d; BuildTestbed top %v cost %d", ps.answer, ps.routeCost, names, cost)
	}
}

// TestDeterministicCounts runs reduced traced passes of every workload
// twice and requires the deterministic counts to repeat exactly.
func TestDeterministicCounts(t *testing.T) {
	if testing.Short() {
		t.Skip("solves and routes for about a minute")
	}
	var d designWorkload
	if err := d.setup(testData, 3); err != nil {
		t.Fatal(err)
	}
	d.opt.Designs = []exp.DesignSpec{{Profile: "M0", Size: 250, Utils: []float64{0.95}}}
	d.orderJobs(3)
	var f fig10Workload
	if err := f.setup(testData, 3); err != nil {
		t.Fatal(err)
	}
	for i := range f.studies {
		f.studies[i].clips = f.studies[i].clips[:2]
	}
	var m milpWorkload
	if err := m.setup(testData, 3); err != nil {
		t.Fatal(err)
	}
	m.cells = m.cells[:30]

	counts := map[string][]string{
		wlDesign: {"route.conflicts", "route.passes", "extract.clips"},
		wlFig10:  {"core.nodes", "core.steiner_cells", "core.bans_generated", "core.drc_checks"},
		wlMILP:   {"ilp.nodes", "lp.iters", "lp.solves", "core.model_nnz"},
	}
	for name, w := range map[string]workload{wlDesign: &d, wlFig10: &f, wlMILP: &m} {
		var runs [2]*passStats
		for i := range runs {
			ps, err := w.pass(newTracer())
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if len(ps.problems) > 0 || ps.failed > 0 {
				t.Fatalf("%s: %d failed, problems %v", name, ps.failed, ps.problems)
			}
			runs[i] = ps
		}
		a, b := runs[0], runs[1]
		if a.unresolved != b.unresolved || a.routeCost != b.routeCost || a.answer != b.answer {
			t.Errorf("%s: unresolved %d/%d, route_cost %d/%d, answers equal %v",
				name, a.unresolved, b.unresolved, a.routeCost, b.routeCost, a.answer == b.answer)
		}
		for _, k := range counts[name] {
			if a.layer[k] != b.layer[k] || a.layer[k] == 0 {
				t.Errorf("%s: %s = %v then %v, want equal and nonzero", name, k, a.layer[k], b.layer[k])
			}
		}
	}
}
