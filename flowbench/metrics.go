package main

// The metric catalog. BENCHMARK.json declares the same names, units and
// directions (a test keeps the two in step); this table adds, for each
// per-layer metric, the workload it should move on and the end-to-end
// metrics it should move there. On every other workload the prediction is
// no change.

type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	// Bound is the share of the parent's median an end-to-end metric may
	// worsen by before a change counts as a regression (0 for per-layer).
	Bound float64
	// Workload and Moves are set for per-layer metrics: the workload the
	// layer's work shows on ("" = every workload) and the end-to-end
	// metrics it feeds.
	Workload string
	Moves    []string
}

const (
	wlDesign = "design"
	wlFig10  = "fig10"
	wlMILP   = "milp"
)

var workloadNames = []string{wlDesign, wlFig10, wlMILP}

// endToEnd lists the metrics a user of the Fig. 6 flow sees, reported by
// every untraced run on every workload.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "wall_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "op_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "op_p90_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "unresolved", Unit: "count", Better: "lower", Bound: 0.05},
	{Name: "route_cost", Unit: "cost", Better: "lower", Bound: 0.03},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower", Bound: 0.25},
}

var (
	wallP90    = []string{"wall_s", "op_p90_ms"}
	wallOnly   = []string{"wall_s"}
	unresolved = []string{"unresolved"}
)

// perLayer lists the traced run's numbers, one set per module.
var perLayer = []metricDef{
	// design: netlist -> place -> route -> extract -> pin cost -> STA -> rank.
	{Name: "netlist.ms", Unit: "ms", Workload: wlDesign, Moves: wallOnly},
	{Name: "place.ms", Unit: "ms", Workload: wlDesign, Moves: wallOnly},
	{Name: "route.ms", Unit: "ms", Workload: wlDesign, Moves: wallP90},
	{Name: "route.passes", Unit: "count", Workload: wlDesign, Moves: wallP90},
	{Name: "route.alloc_mb", Unit: "MB", Workload: wlDesign, Moves: []string{"wall_s", "peak_rss_mb"}},
	{Name: "route.conflicts", Unit: "count", Workload: wlDesign, Moves: []string{"unresolved", "route_cost"}},
	{Name: "extract.ms", Unit: "ms", Workload: wlDesign, Moves: wallOnly},
	{Name: "extract.clips", Unit: "count", Workload: wlDesign, Moves: wallOnly},
	{Name: "pincost.ms", Unit: "ms", Workload: wlDesign, Moves: wallOnly},
	{Name: "sta.ms", Unit: "ms", Workload: wlDesign, Moves: wallOnly},
	{Name: "design.unaccounted_ms", Unit: "ms", Workload: wlDesign, Moves: wallOnly},

	// fig10: exp.DeltaCostStudy over the pinned clip set (CDC-BnB).
	{Name: "rgraph.ms", Unit: "ms", Workload: wlFig10, Moves: wallP90},
	{Name: "rgraph.arcs", Unit: "count", Workload: wlFig10, Moves: wallP90},
	{Name: "core.bnb_ms", Unit: "ms", Workload: wlFig10, Moves: wallP90},
	{Name: "core.steiner_ms", Unit: "ms", Workload: wlFig10, Moves: wallP90},
	{Name: "core.steiner_cells", Unit: "count", Workload: wlFig10, Moves: wallP90},
	{Name: "core.steiner_cache_hit_ratio", Unit: "ratio", Better: "higher", Workload: wlFig10, Moves: wallP90},
	{Name: "core.lagrangian_ms", Unit: "ms", Workload: wlFig10, Moves: wallP90},
	{Name: "core.lagrangian_rounds", Unit: "count", Workload: wlFig10, Moves: wallP90},
	{Name: "core.search_drc_ms", Unit: "ms", Workload: wlFig10, Moves: wallP90},
	{Name: "core.drc_checks", Unit: "count", Workload: wlFig10, Moves: wallP90},
	{Name: "core.branch_ms", Unit: "ms", Workload: wlFig10, Moves: wallP90},
	{Name: "core.seed_ms", Unit: "ms", Workload: wlFig10, Moves: wallP90},
	{Name: "core.alloc_mb", Unit: "MB", Workload: wlFig10, Moves: wallP90},
	{Name: "core.nodes", Unit: "count", Workload: wlFig10, Moves: unresolved},
	{Name: "core.bans_generated", Unit: "count", Workload: wlFig10, Moves: unresolved},
	{Name: "core.unproven_ms_share", Unit: "ratio", Workload: wlFig10, Moves: wallOnly},
	{Name: "drc.verify_ms", Unit: "ms", Workload: wlFig10, Moves: wallOnly},
	{Name: "drc.verify_calls", Unit: "count", Workload: wlFig10, Moves: wallOnly},
	{Name: "exp.assemble_ms", Unit: "ms", Workload: wlFig10, Moves: wallOnly},
	{Name: "sched.idle_share", Unit: "ratio", Workload: wlFig10, Moves: wallOnly},

	// milp: core.SolveILP (model emission, ilp branch-and-bound, lp).
	{Name: "core.model_rows", Unit: "count", Workload: wlMILP, Moves: unresolved},
	{Name: "core.model_nnz", Unit: "count", Workload: wlMILP, Moves: unresolved},
	{Name: "ilp.nodes", Unit: "count", Workload: wlMILP, Moves: unresolved},
	{Name: "ilp.root_gap", Unit: "ratio", Workload: wlMILP, Moves: unresolved},
	{Name: "ilp.ms", Unit: "ms", Workload: wlMILP, Moves: wallP90},
	{Name: "lp.ms", Unit: "ms", Workload: wlMILP, Moves: wallP90},
	{Name: "lp.share", Unit: "ratio", Workload: wlMILP, Moves: wallP90},
	{Name: "lp.solves", Unit: "count", Workload: wlMILP, Moves: wallP90},
	{Name: "lp.iters", Unit: "count", Workload: wlMILP, Moves: wallP90},
	{Name: "lp.ftran_nnz", Unit: "count", Workload: wlMILP, Moves: wallP90},
	{Name: "lp.btran_nnz", Unit: "count", Workload: wlMILP, Moves: wallP90},
	{Name: "lp.refactors", Unit: "count", Workload: wlMILP, Moves: wallP90},
	{Name: "lp.warm_starts", Unit: "count", Better: "higher", Workload: wlMILP, Moves: wallP90},

	// Every workload.
	{Name: "runtime.alloc_mb", Unit: "MB", Moves: []string{"wall_s", "peak_rss_mb"}},
	{Name: "runtime.gc_pause_ms", Unit: "ms", Moves: []string{"wall_s", "peak_rss_mb"}},
	{Name: "trace.overhead_ms", Unit: "ms", Moves: wallOnly},
}

func init() {
	for i := range perLayer {
		if perLayer[i].Better == "" {
			perLayer[i].Better = "lower"
		}
	}
}
