package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"time"

	"optrouter/internal/cells"
	"optrouter/internal/clip"
	"optrouter/internal/exp"
	"optrouter/internal/extract"
	"optrouter/internal/netlist"
	"optrouter/internal/pincost"
	"optrouter/internal/place"
	"optrouter/internal/route"
	"optrouter/internal/sta"
	"optrouter/internal/tech"
)

// designScale is the share, in percent, of exp.QuickTestbed's cell counts
// that the design workload implements: AES 210 and M0 175 cells. At full
// size a pass takes about 25 s on two CPUs, so a 30 s run would time one
// pass; at 70% it takes 5-11 s and a run makes four, while the router still
// ends every design with conflicts (about 1,250 vertices in all).
const designScale = 70

// designWorkload implements the N28-8T quick testbed (exp.QuickTestbed: two
// AES and two M0 designs, scaled by designScale) the way exp.BuildTestbed
// does, one public layer call at a time, so each layer can be timed from
// outside. The netlists are the testbed's own (testbed seed 1). The run seed
// orders the four designs. It leaves each design's netlist and net order
// alone: a new net order per seed moved a pass's route time by about 15%
// between seeds, and a new netlist by 12-14%, which would drown a change in
// seed noise.
type designWorkload struct {
	t    *tech.Technology
	lib  *cells.Library
	opt  exp.TestbedOptions
	jobs []designJob // in run order
}

// designJob is one testbed design; idx is its position in testbed order.
type designJob struct {
	spec exp.DesignSpec
	ui   int
	util float64
	idx  int
}

func (w *designWorkload) setup(_ string, seed int64) error {
	w.t = tech.N28T8()
	w.lib = cells.Generate(w.t)
	w.opt = exp.QuickTestbed()
	for i := range w.opt.Designs {
		w.opt.Designs[i].Size = w.opt.Designs[i].Size * designScale / 100
	}
	w.orderJobs(seed)
	return nil
}

// orderJobs lists the testbed's designs and orders them by seed (seed 0
// keeps testbed order).
func (w *designWorkload) orderJobs(seed int64) {
	w.jobs = nil
	for _, spec := range w.opt.Designs {
		for ui, util := range spec.Utils {
			w.jobs = append(w.jobs, designJob{spec, ui, util, len(w.jobs)})
		}
	}
	if seed != 0 {
		rng := rand.New(rand.NewSource(seed))
		rng.Shuffle(len(w.jobs), func(i, j int) { w.jobs[i], w.jobs[j] = w.jobs[j], w.jobs[i] })
	}
}

// designRun is one design's result, in testbed order.
type designRun struct {
	clips     []*clip.Clip
	wl, vias  int
	conflicts int
}

func (w *designWorkload) pass(tr *tracer) (*passStats, error) {
	ps := &passStats{layer: map[string]float64{}}
	start := time.Now()
	root := tr.begin("design.pass", -1)
	runs := make([]designRun, len(w.jobs)) // in testbed order
	for _, j := range w.jobs {
		t0 := time.Now()
		r, err := w.design(tr, root, ps, j.spec, j.ui, j.util)
		if err != nil {
			return nil, err
		}
		ps.ops = append(ps.ops, time.Since(t0))
		runs[j.idx] = r
	}
	var all []*clip.Clip
	for _, r := range runs {
		all = append(all, r.clips...)
	}
	sp := tr.begin("pincost.RankTopK", root)
	top := pincost.RankTopK(all, w.opt.TopK)
	tr.end(sp)
	tr.end(root)
	ps.wall = time.Since(start)

	var names []string
	for _, c := range top {
		names = append(names, c.Name)
	}
	for _, r := range runs {
		ps.attempted++
		ps.unresolved += r.conflicts
		ps.routeCost += r.wl + 4*r.vias
	}
	if len(top) != w.opt.TopK {
		ps.problem("ranked %d clips, want top %d", len(top), w.opt.TopK)
	}
	ps.answer = fmt.Sprintf("top=%s cost=%d conflicts=%d", strings.Join(names, ","), ps.routeCost, ps.unresolved)
	if tr != nil {
		self := tr.selfMS()
		ps.layer["netlist.ms"] = self["netlist.Generate"]
		ps.layer["place.ms"] = self["place.Place"]
		ps.layer["route.ms"] = self["route.Route"]
		ps.layer["extract.ms"] = self["extract.All"]
		ps.layer["sta.ms"] = self["sta.Analyze"]
		ps.layer["pincost.ms"] = self["pincost.Cost"] + self["pincost.RankTopK"]
		ps.layer["design.unaccounted_ms"] = self["design.pass"] + self["design.build"]
		ps.layer["route.conflicts"] = float64(ps.unresolved)
	}
	return ps, nil
}

// design builds one testbed design; the call sequence and seeds match
// exp.BuildTestbed (a test pins the two to the same records and clips).
func (w *designWorkload) design(tr *tracer, root int, ps *passStats, spec exp.DesignSpec, ui int, util float64) (designRun, error) {
	sp := tr.begin("design.build", root)
	defer tr.end(sp)
	call := func(name string, f func()) {
		s := tr.begin(name, sp)
		f()
		tr.end(s)
	}

	seed := w.opt.Seed + int64(ui)*101
	var prof netlist.Profile
	switch spec.Profile {
	case "AES":
		prof = netlist.AESClass(spec.Size, seed)
	case "M0":
		prof = netlist.M0Class(spec.Size, seed)
	default:
		return designRun{}, fmt.Errorf("unknown profile %q", spec.Profile)
	}
	var (
		nl     *netlist.Netlist
		pl     *place.Placement
		res    *route.Result
		clips  []*clip.Clip
		timing sta.Result
		err    error
	)
	call("netlist.Generate", func() { nl, err = netlist.Generate(w.lib, prof) })
	if err != nil {
		return designRun{}, err
	}
	call("place.Place", func() { pl, err = place.Place(w.lib, nl, place.Options{TargetUtil: util}) })
	if err != nil {
		return designRun{}, err
	}
	var ms0, ms1 runtime.MemStats
	if tr != nil {
		runtime.ReadMemStats(&ms0)
	}
	call("route.Route", func() { res, err = route.Route(pl, route.Options{Layers: w.opt.ClipNZ}) })
	if err != nil {
		return designRun{}, err
	}
	if tr != nil {
		runtime.ReadMemStats(&ms1)
		ps.layer["route.alloc_mb"] += mb(ms1.TotalAlloc - ms0.TotalAlloc)
		ps.layer["route.passes"] += float64(res.Iters)
	}
	call("extract.All", func() {
		clips = extract.All(res, extract.Options{
			WTracks: w.opt.ClipW, HTracks: w.opt.ClipH, NZ: w.opt.ClipNZ,
			MaxNets: w.opt.MaxNets,
		})
	})
	ps.layer["extract.clips"] += float64(len(clips))
	key := fmt.Sprintf("%s-%.2f", spec.Profile, util)
	for _, c := range clips {
		c.Name = key + "/" + c.Name
		call("pincost.Cost", func() { pincost.Cost(c) })
	}
	wl, vias := res.WirelengthVias()
	call("sta.Analyze", func() { timing, err = sta.Analyze(res) })
	if err != nil {
		return designRun{}, err
	}
	if !(timing.PeriodNS > 0) {
		ps.problem("%s: STA period %v", key, timing.PeriodNS)
	}
	if res.Iters < 1 || res.Conflicts < 0 {
		ps.problem("%s: route reported %d passes, %d conflicts", key, res.Iters, res.Conflicts)
	}
	return designRun{clips: clips, wl: wl, vias: vias, conflicts: res.Conflicts}, nil
}
