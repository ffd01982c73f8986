package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"optrouter/internal/clip"
	"optrouter/internal/exp"
	"optrouter/internal/tech"
)

// Pinned fig10 inputs: the top-K pin-cost clips of each technology's quick
// testbed, plus the RULE2 probe clip, written one clip per file so a change
// to route or extract cannot move the solver workloads' inputs.

const (
	fig10TopK = 10
	probeName = "probe-5x6x4-s5"
)

// probeClip is the tiny synthetic clip neither exact engine can finish under
// RULE2 (5x6x4 tracks, 3 nets, synthesis seed 5).
func probeClip() *clip.Clip {
	opt := clip.DefaultSynth(5)
	opt.NX, opt.NY, opt.NZ = 5, 6, 4
	opt.NumNets = 3
	c := clip.Synthesize(opt)
	c.Name = probeName
	return c
}

// generate writes the pinned fig10 clip set for one testbed seed into
// root/fig10, then solves every (clip, rule) cell at referenceNodes and
// writes the answers to root/fig10-expected.json.
func generate(root string, seed int64) error {
	dir := filepath.Join(root, fig10Dir)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	write := func(name string, c *clip.Clip) error {
		f, err := os.Create(filepath.Join(dir, name+".json"))
		if err != nil {
			return err
		}
		if err := c.WriteJSON(f); err != nil {
			f.Close()
			return fmt.Errorf("write %s: %w", name, err)
		}
		return f.Close()
	}
	for _, t := range tech.AllTechnologies() {
		opt := exp.QuickTestbed()
		opt.Seed = seed
		opt.TopK = fig10TopK
		tb, err := exp.BuildTestbed(t, opt)
		if err != nil {
			return fmt.Errorf("testbed %s: %w", t.Name, err)
		}
		for i, c := range tb.Top {
			// Window names repeat across technologies; the study results
			// are keyed by clip name.
			c.Name = t.Name + "/" + c.Name
			if err := write(fmt.Sprintf("%s-%02d", t.Name, i), c); err != nil {
				return err
			}
		}
	}
	if err := write(probeName, probeClip()); err != nil {
		return err
	}
	return writeReferences(root)
}

// writeReferences solves the clip set under root at referenceNodes.
func writeReferences(root string) error {
	var w fig10Workload
	if err := w.setupClips(root, 0); err != nil {
		return err
	}
	var cells []cell
	for _, s := range w.studies {
		opt := w.solveOptions()
		opt.MaxNodes = referenceNodes
		_, res, err := exp.DeltaCostStudy(s.t, s.clips, opt)
		if err != nil {
			return err
		}
		for _, r := range res {
			if r.Err != "" {
				return fmt.Errorf("%s %s: %s", r.Clip, r.Rule, r.Err)
			}
			cells = append(cells, cell{Clip: r.Clip, Rule: r.Rule, Feasible: r.Feasible, Proven: r.Proven, Cost: r.Cost})
		}
	}
	sort.Slice(cells, func(i, j int) bool { return cells[i].key() < cells[j].key() })
	b, err := json.MarshalIndent(cells, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(root, fig10Expected), append(b, '\n'), 0o644)
}
