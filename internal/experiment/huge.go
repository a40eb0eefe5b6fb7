package experiment

import (
	"fmt"
	"sort"

	"coschedsim/internal/cluster"
	"coschedsim/internal/sim"
	"coschedsim/internal/stats"
)

// The huge tier extends the paper's Allreduce scaling question past the
// hardware the authors had: they fit a line to 59-node (944-processor)
// sweeps and argue the slope is what co-scheduling fixes. Here we rerun the
// vanilla, the prototype (co-scheduled) and the tuned ALE3D (co-scheduled
// with GPFS attached) sweeps at 256, 512 and 1024 sixteen-way nodes (up to
// 16384 ranks) on the sharded engine core, fit the paper-range points of
// each configuration alone, and check how well each small-cluster fit
// extrapolates an order of magnitude out — the paper's claim is precisely
// that the slopes diverge, so the tier reports a vanilla/<config> slope
// ratio per co-scheduled configuration. Runs stream their per-call timings
// through stats.Accum, so memory stays O(ranks) rather than
// O(ranks + calls x runs).

// Huge sizes the extended sweep. Window stays zero on purpose: callsFor
// would otherwise inflate the call count with the processor count, and at
// 16k ranks a single Allreduce already synchronizes the whole machine —
// Calls fixed calls per point keeps wall clock bounded while still
// averaging over scheduling noise.
func Huge() Options {
	return Options{MaxNodes: 1024, Calls: 48, Seeds: 1,
		ComputeGrain: sim.Millisecond, BaseSeed: 1}
}

// hugePaperNodes is the small-cluster portion of the sweep the fit is
// derived from: the paper's own measurement range (its top point is 59
// nodes), clamped to max for reduced-size smoke runs.
func hugePaperNodes(max int) []int {
	var out []int
	for _, n := range []int{8, 16, 32, 59} {
		if n <= max {
			out = append(out, n)
		}
	}
	return out
}

// hugeNodes is the extended portion: max/4, max/2, max, deduplicated and
// strictly above the paper range.
func hugeNodes(max int, paper []int) []int {
	top := 0
	if len(paper) > 0 {
		top = paper[len(paper)-1]
	}
	set := map[int]bool{}
	for _, n := range []int{max / 4, max / 2, max} {
		if n > top {
			set[n] = true
		}
	}
	out := make([]int, 0, len(set))
	for n := range set {
		out = append(out, n)
	}
	sort.Ints(out)
	return out
}

// hugeConfigs are the kernel configurations the huge tier sweeps: the
// vanilla kernel whose slope the paper indicts, the full prototype
// (co-scheduler, aligned big ticks, IPI preemption) whose slope is the fix,
// and the tuned ALE3D production scenario (prototype kernel, I/O-aware
// co-scheduler priorities, GPFS daemons attached) — the configuration the
// paper actually shipped, checked here for whether mmfsd background activity
// erodes the prototype's slope at extended scales.
func hugeConfigs() []struct {
	tag string
	cfg func(nodes, tasksPerNode int, seed int64) cluster.Config
} {
	return []struct {
		tag string
		cfg func(nodes, tasksPerNode int, seed int64) cluster.Config
	}{
		{"vanilla", cluster.Vanilla},
		{"proto", cluster.Prototype},
		{"ale3d", cluster.ALE3DTuned},
	}
}

// HugeScaling is the "huge" runner: Allreduce scaling for the vanilla, the
// prototype (co-scheduled), and the tuned ALE3D (co-scheduled with GPFS
// attached) configurations with paper-range anchor points plus the extended
// points, a least-squares fit over each configuration's anchors, and
// per-point extrapolation error of that fit at the extended scales. Rows are
// tagged <config>/paper or <config>/huge.
func HugeScaling(o Options) (*Table, error) {
	if err := o.validate(); err != nil {
		return nil, err
	}
	paper := hugePaperNodes(o.MaxNodes)
	huge := hugeNodes(o.MaxNodes, paper)
	if len(paper) < 2 {
		return nil, fmt.Errorf("experiment huge: MaxNodes %d leaves fewer than two paper-range fit points", o.MaxNodes)
	}

	sweep := append(append([]int{}, paper...), huge...)
	configs := hugeConfigs()
	jobs := make([]runDesc, 0, len(configs)*len(sweep)*o.Seeds)
	for _, cc := range configs {
		for _, nodes := range sweep {
			for s := 0; s < o.Seeds; s++ {
				seed := o.BaseSeed + int64(1000*nodes) + int64(s)
				jobs = append(jobs, runDesc{
					Label: "huge/" + cc.tag, Nodes: nodes, SeedIdx: s, Seed: seed,
					Cfg: cc.cfg(nodes, 16, seed),
				})
			}
		}
	}
	outs, err := runJobs(o, jobs, true)
	if err != nil {
		return nil, err
	}

	t := &Table{
		ID:    "HUGE",
		Title: fmt.Sprintf("Allreduce vs procs to %d nodes: vanilla and co-scheduled prototype, paper-range fits extrapolated", o.MaxNodes),
		Cols: []Column{
			{Name: "procs"}, {Name: "mean", Unit: "us"}, {Name: "stddev", Unit: "us"},
			{Name: "fit", Unit: "us"}, {Name: "extrap-err", Unit: "%"},
		},
	}

	type point struct {
		procs float64
		mean  float64
		sd    float64
	}
	slopes := make([]float64, len(configs))
	perConfig := len(sweep) * o.Seeds
	for ci, cc := range configs {
		pts := make([]point, 0, len(sweep))
		for p := range sweep {
			base := ci*perConfig + p*o.Seeds
			group := outs[base : base+o.Seeds]
			var means, sds []float64
			for _, r := range group {
				means = append(means, r.mean)
				sds = append(sds, r.stddev)
			}
			pts = append(pts, point{
				procs: float64(group[0].procs),
				mean:  stats.Summarize(means).Mean,
				sd:    stats.Summarize(sds).Mean,
			})
		}

		var xs, ys []float64
		for _, p := range pts[:len(paper)] {
			xs = append(xs, p.procs)
			ys = append(ys, p.mean)
		}
		fit, err := stats.LinearFit(xs, ys)
		if err != nil {
			return nil, fmt.Errorf("experiment huge: %s paper-range fit: %w", cc.tag, err)
		}
		slopes[ci] = fit.Slope

		worst := 0.0
		for i, p := range pts {
			pred := fit.Eval(p.procs)
			errPct := 0.0
			if pred != 0 {
				errPct = (p.mean - pred) / pred * 100
			}
			tag := cc.tag + "/paper"
			if i >= len(paper) {
				tag = cc.tag + "/huge"
				if a := errPct; a < 0 {
					a = -a
					if a > worst {
						worst = a
					}
				} else if a > worst {
					worst = a
				}
			}
			t.AddRow(tag, p.procs, p.mean, p.sd, pred, errPct)
		}
		t.AddNote("%s paper-range fit (procs <= %d): y = %.3f*x + %.0f us (R2=%.3f)",
			cc.tag, int(pts[len(paper)-1].procs), fit.Slope, fit.Intercept, fit.R2)
		if len(huge) > 0 {
			t.AddNote("%s worst extrapolation error at extended scales: %.1f%%", cc.tag, worst)
		}
	}
	for ci := 1; ci < len(configs); ci++ {
		if slopes[ci] == 0 {
			continue
		}
		t.AddNote("slope ratio vanilla/%s: %.1fx — the paper's co-scheduling claim carried to %.0fx the fit range's top point",
			configs[ci].tag, slopes[0]/slopes[ci], float64(sweep[len(sweep)-1])/float64(paper[len(paper)-1]))
	}
	return t, nil
}
