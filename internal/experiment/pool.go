package experiment

import (
	"errors"
	"fmt"
	"math"
	"sync"

	"coschedsim/internal/cluster"
	"coschedsim/internal/parallel"
	"coschedsim/internal/sim"
	"coschedsim/internal/stats"
	"coschedsim/internal/workload"
)

// runDesc describes one independent simulation run of a sweep. Sweeps
// enumerate every run up front as descriptors so the work pool can execute
// them in any order while results are assembled in descriptor order —
// seeds are already derived from (BaseSeed, nodes, seed index), so
// ordering is the only hazard to determinism.
type runDesc struct {
	Label   string
	Nodes   int
	SeedIdx int
	Seed    int64
	Cfg     cluster.Config
}

// runOut is the aggregate-benchmark outcome of one runDesc.
type runOut struct {
	procs  int
	mean   float64
	stddev float64
}

// errRunDeadline marks a run cut short by Options.RunDeadline. It is
// wrapped into the run's error so quarantinable can recognize it.
var errRunDeadline = errors.New("run wall deadline exceeded")

// widths splits the worker budget (Parallelism, or GOMAXPROCS when unset)
// between the sweep pool and each run: pool runs execute at once, each on
// width intra-run shard workers (0 = serial engine), and pool*width never
// exceeds the budget. ShardWorkers above the budget is clamped to it.
func (o Options) widths() (pool, width int) {
	budget := parallel.Workers(o.Parallelism)
	width = min(o.ShardWorkers, budget)
	if width <= 1 {
		return budget, 0
	}
	return budget / width, width
}

// runEach is the one way an experiment runs simulations: body runs once per
// job on a cluster built from the job's config, and out[i], errs[i] belong
// to jobs[i] whichever worker ran it. runEach sizes the pool and each run's
// shard workers from the budget, arms RunDeadline (a run cut short fails
// with errRunDeadline, whatever body returned), reports a sharded run's
// window statistics, and hands body a copy of o whose Progress callback is
// serialized across workers. Panics come back as *parallel.PanicError.
func runEach[T any](o Options, jobs []runDesc, body func(o Options, c *cluster.Cluster, j runDesc) (T, error)) ([]T, []error) {
	if o.Progress != nil {
		var mu sync.Mutex
		inner := o.Progress
		o.Progress = func(line string) {
			mu.Lock()
			defer mu.Unlock()
			inner(line)
		}
	}
	build := o.build
	if build == nil {
		build = cluster.Build
	}
	pool, width := o.widths()
	return parallel.MapAll(pool, len(jobs), func(i int) (T, error) {
		var zero T
		j := jobs[i]
		if width > 1 {
			j.Cfg.IntraRunWorkers = width
		}
		c, err := build(j.Cfg)
		if err != nil {
			return zero, err
		}
		c.SetWallDeadline(o.RunDeadline)
		v, err := body(o, c, j)
		if c.DeadlineHit() {
			return zero, fmt.Errorf("experiment %s: %d-node run seed=%d: %w",
				j.Label, j.Nodes, j.SeedIdx, errRunDeadline)
		}
		if err != nil {
			return zero, err
		}
		if c.Group != nil {
			gs := c.Group.Stats()
			avg := 0.0
			if gs.Windows > 0 {
				avg = float64(gs.ActiveShardWindows) / float64(gs.Windows)
			}
			o.progress("%s nodes=%d seed=%d pdes windows=%d cross-events=%d cross-sends=%d avg-active-shards=%.1f barrier-stall=%.0fms",
				j.Label, j.Nodes, j.SeedIdx, gs.Windows, gs.CrossShardEvents,
				c.Fabric.Stats().CrossShardSends, avg, float64(gs.BarrierStallNs)/1e6)
		}
		return v, nil
	})
}

// firstErr is the lowest-index failure of a sweep, or nil: the verdict of
// a runner whose runs cannot be quarantined one by one.
func firstErr(errs []error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// quarantinable reports whether a run failure is isolated to that run —
// a panic inside the simulation or a per-run wall deadline — and may be
// quarantined without invalidating the rest of the sweep. Configuration
// and model errors stay fatal: they mean the sweep itself is wrong.
func quarantinable(err error) bool {
	var pe *parallel.PanicError
	return errors.As(err, &pe) || errors.Is(err, errRunDeadline)
}

// runJobs executes the paper's aggregate benchmark once per descriptor.
// out[i] corresponds to jobs[i], so aggregations over the result slice are
// bit-identical to a serial loop. Runs already in o.Checkpoint are replayed
// instead of simulated, and every simulated run is recorded there.
//
// With streamed set, per-call timings go into an online accumulator
// instead of being retained: each run's memory is O(1) in the call count,
// which is what lets the huge tier sweep 16k-rank clusters. The streamed
// stddev comes from Welford's update rather than Summarize's two-pass
// formula, so it is NOT bitwise-comparable to the retained path — only the
// huge tier streams.
func runJobs(o Options, jobs []runDesc, streamed bool) ([]runOut, error) {
	cp := o.Checkpoint
	if cp != nil && cp.fp != o.fingerprint() {
		return nil, fmt.Errorf("experiment: checkpoint %s was opened for other sweep options", cp.path)
	}
	outs := make([]runOut, len(jobs))
	errs := make([]error, len(jobs))
	var todo []runDesc
	var at []int
	for i, j := range jobs {
		if r, ok := cp.lookup(cpKey(j, streamed)); ok {
			o.progress("%s nodes=%d seed=%d checkpoint cached mean=%.1fus stddev=%.1fus",
				j.Label, j.Nodes, j.SeedIdx, r.mean, r.stddev)
			outs[i] = r
			continue
		}
		todo = append(todo, j)
		at = append(at, i)
	}
	ran, ranErrs := runEach(o, todo, func(o Options, c *cluster.Cluster, j runDesc) (runOut, error) {
		spec := workload.AggregateSpec{
			Loops: 1, CallsPerLoop: o.callsFor(c.Procs()), Compute: o.ComputeGrain,
		}
		var acc stats.Accum
		if streamed {
			spec.Stream = func(_ int, us float64) { acc.Add(us) }
		}
		res, err := workload.RunAggregate(c, spec, 30*sim.Minute)
		if err != nil {
			return runOut{}, err
		}
		if !res.Completed {
			return runOut{}, fmt.Errorf("experiment %s: %d-node run did not complete", j.Label, j.Nodes)
		}
		var sum stats.Summary
		if streamed {
			sum = acc.Summary()
		} else {
			sum = stats.Summarize(res.TimesUS)
		}
		o.progress("%s nodes=%d procs=%d seed=%d mean=%.1fus stddev=%.1fus",
			j.Label, j.Nodes, c.Procs(), j.SeedIdx, sum.Mean, sum.Stddev)
		r := runOut{procs: c.Procs(), mean: sum.Mean, stddev: sum.Stddev}
		return r, cp.record(cpKey(j, streamed), r)
	})
	for k, i := range at {
		outs[i], errs[i] = ran[k], ranErrs[k]
	}
	// Quarantine isolated failures: the cell keeps its processor count (so
	// table rows stay aligned) with NaN statistics, which render as "-" and
	// suppress the fit. Any non-quarantinable error — lowest index first —
	// fails the sweep.
	quarantined := 0
	for i, err := range errs {
		if err == nil {
			continue
		}
		if !quarantinable(err) {
			return nil, err
		}
		j := jobs[i]
		outs[i] = runOut{procs: j.Cfg.Nodes * j.Cfg.TasksPerNode, mean: math.NaN(), stddev: math.NaN()}
		o.progress("%s nodes=%d seed=%d QUARANTINED: %v", j.Label, j.Nodes, j.SeedIdx, err)
		quarantined++
	}
	if quarantined == len(jobs) && len(jobs) > 0 {
		return nil, fmt.Errorf("experiment: all %d runs quarantined; first failure: %w", quarantined, firstErr(errs))
	}
	return outs, nil
}

// variantSpec names one configuration of a design-choice sweep.
type variantSpec struct {
	tag string
	cfg func(seed int64) cluster.Config
}

// meanSD is one variant's aggregate over seeds.
type meanSD struct {
	mean   float64
	stddev float64
}

// variantJobs enumerates every (variant, seed) run of a design-choice
// sweep, variant-major.
func variantJobs(o Options, label string, nodes int, variants []variantSpec) []runDesc {
	jobs := make([]runDesc, 0, len(variants)*o.Seeds)
	for _, v := range variants {
		for s := 0; s < o.Seeds; s++ {
			seed := o.BaseSeed + int64(s)
			jobs = append(jobs, runDesc{
				Label: label + "/" + v.tag, Nodes: nodes, SeedIdx: s, Seed: seed, Cfg: v.cfg(seed),
			})
		}
	}
	return jobs
}

// runVariantMeans runs every (variant, seed) combination of a sweep
// through the work pool and aggregates per variant in declaration order:
// the grand mean of per-run means and the mean of per-run stddevs, exactly
// as the serial per-variant loop did.
func runVariantMeans(o Options, label string, nodes int, variants []variantSpec) ([]meanSD, error) {
	outs, err := runJobs(o, variantJobs(o, label, nodes, variants), false)
	if err != nil {
		return nil, err
	}
	res := make([]meanSD, len(variants))
	for vi := range variants {
		group := outs[vi*o.Seeds : (vi+1)*o.Seeds]
		var means, sds []float64
		for _, r := range group {
			means = append(means, r.mean)
			sds = append(sds, r.stddev)
		}
		res[vi] = meanSD{mean: stats.Summarize(means).Mean, stddev: stats.Summarize(sds).Mean}
	}
	return res, nil
}
