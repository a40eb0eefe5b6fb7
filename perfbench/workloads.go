package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"time"

	"coschedsim/internal/cluster"
	"coschedsim/internal/fault"
	"coschedsim/internal/parallel"
	"coschedsim/internal/sim"
	"coschedsim/internal/workload"
)

// grain is the compute inserted between timed Allreduce calls, as in
// parsim's Quick and Full sizes.
const grain = sim.Millisecond

// size scales every workload. full is what the benchmark measures; tiny
// keeps the smoke test fast.
type size struct {
	sweepNodes []int    // scaling-sweep node counts
	window     sim.Time // simulated span an aggregate run's call count targets
	minCalls   int      // floor on an aggregate run's call count
	paperNodes int      // paper-scale-sharded node count
	paperCalls int      // paper-scale-sharded timed calls
	ale3dNodes int      // ale3d-faults node count
	ale3dSteps int      // ALE3D timesteps
	seeds      int      // seeds per configuration
}

// full matches `parsim run fig6` (Quick), t3 and abl-fault at 12 nodes, and
// the paper's 59-node top point.
var full = size{
	sweepNodes: []int{1, 2, 4, 8, 12}, window: 2 * sim.Second, minCalls: 256,
	paperNodes: 59, paperCalls: 1000, ale3dNodes: 12, ale3dSteps: 50, seeds: 2,
}

var tiny = size{
	sweepNodes: []int{1, 2}, window: 100 * sim.Millisecond, minCalls: 8,
	paperNodes: 4, paperCalls: 300, ale3dNodes: 2, ale3dSteps: 2, seeds: 1,
}

// callsFor sizes an aggregate run's call count the way parsim does: enough
// calls to span the window at the estimated clean per-call cost.
func (sz size) callsFor(procs int) int {
	rounds := 2
	for p := 1; p < procs; p *= 2 {
		rounds++
	}
	calls := int(sz.window / (grain + sim.Time(rounds)*35*sim.Microsecond))
	return min(max(calls, sz.minCalls), 20000)
}

// runSpec is one simulation run of a workload.
type runSpec struct {
	id     string // stable across seeds: pinned digests are keyed by it
	config string // preset and variant name, for span tags
	cfg    cluster.Config
	calls  int                 // timed Allreduce calls of an aggregate run
	ale3d  *workload.ALE3DSpec // non-nil: an ALE3D run instead
}

// workloadDef is a named set of runs executed on a pool of workers.
type workloadDef struct {
	name string
	runs func(seed int64, sz size) []runSpec
}

var workloads = []workloadDef{
	{"scaling-sweep", scalingSweep},
	{"paper-scale-sharded", paperScale},
	{"ale3d-faults", ale3dFaults},
}

func lookupWorkload(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// scalingSweep is the run set of `parsim run fig6`: vanilla and prototype
// Allreduce at 16 tasks/node over the node sweep, seeded as parsim seeds
// them.
func scalingSweep(seed int64, sz size) []runSpec {
	var runs []runSpec
	for _, p := range []struct {
		name string
		cfg  func(nodes, tasks int, seed int64) cluster.Config
	}{{"vanilla", cluster.Vanilla}, {"prototype", cluster.Prototype}} {
		for _, nodes := range sz.sweepNodes {
			for s := 0; s < sz.seeds; s++ {
				runs = append(runs, runSpec{
					id:     fmt.Sprintf("%s/n%d/s%d", p.name, nodes, s),
					config: p.name,
					cfg:    p.cfg(nodes, 16, seed+int64(1000*nodes)+int64(s)),
					calls:  sz.callsFor(nodes * 16),
				})
			}
		}
	}
	return runs
}

// paperScale is one vanilla Allreduce run at the paper's top point on the
// sharded core with two intra-run workers.
func paperScale(seed int64, sz size) []runSpec {
	cfg := cluster.Vanilla(sz.paperNodes, 16, seed)
	cfg.IntraRunWorkers = 2
	return []runSpec{{
		id: fmt.Sprintf("vanilla/n%d", sz.paperNodes), config: "vanilla-sharded",
		cfg: cfg, calls: sz.paperCalls,
	}}
}

// ale3dFaults is t3's three ALE3D configurations followed by abl-fault's
// nine fault and resilience variants.
func ale3dFaults(seed int64, sz size) []runSpec {
	spec := workload.DefaultALE3DSpec()
	spec.Timesteps = sz.ale3dSteps
	// t3's production-weight restart dumps.
	spec.RestartWriteBytes = 20 << 20
	spec.CheckpointEvery = 15
	nodes := sz.ale3dNodes
	var runs []runSpec
	for _, p := range []struct {
		name string
		cfg  func(nodes, tasks int, seed int64) cluster.Config
	}{{"ale3d-vanilla", cluster.ALE3DVanilla}, {"ale3d-naive", cluster.ALE3DNaive}, {"ale3d-tuned", cluster.ALE3DTuned}} {
		for s := 0; s < sz.seeds; s++ {
			runs = append(runs, runSpec{
				id: fmt.Sprintf("%s/s%d", p.name, s), config: p.name,
				cfg: p.cfg(nodes, 16, seed+int64(s)), ale3d: &spec,
			})
		}
	}
	for _, v := range faultVariants(nodes) {
		for s := 0; s < sz.seeds; s++ {
			runs = append(runs, runSpec{
				id: fmt.Sprintf("fault-%s/s%d", v.name, s), config: "fault-" + v.name,
				cfg: v.cfg(seed + int64(s)), calls: sz.callsFor(nodes * 16),
			})
		}
	}
	return runs
}

// faultDetect is abl-fault's survivor detection latency; it must clear the
// fabric lookahead.
const faultDetect = 50 * sim.Microsecond

type faultVariant struct {
	name string
	cfg  func(seed int64) cluster.Config
}

// faultVariants are the abl-fault ablation's configurations: each fault
// class under the policy meant to absorb it, plus abort-policy controls.
func faultVariants(nodes int) []faultVariant {
	drop := func(rate float64, retries int) func(int64) cluster.Config {
		return func(seed int64) cluster.Config {
			cfg := cluster.Vanilla(nodes, 16, seed)
			cfg.Faults = &fault.Config{Policy: fault.PolicyRetry, DropRate: rate, DetectLatency: faultDetect}
			if retries > 0 {
				cfg.MPI.SendRetries = retries
				cfg.MPI.SendTimeout = 200 * sim.Microsecond
			} else {
				cfg.Faults.Policy = fault.PolicyAbort
			}
			return cfg
		}
	}
	crash := func(policy fault.Policy) func(int64) cluster.Config {
		return func(seed int64) cluster.Config {
			cfg := cluster.Prototype(nodes, 16, seed)
			cfg.Faults = &fault.Config{
				Policy: policy, CrashProb: 0.3, CrashWindow: 40 * sim.Millisecond,
				DetectLatency: faultDetect,
			}
			if policy == fault.PolicyReplan {
				cfg.Faults.ReplanDrain = 20 * sim.Millisecond
			}
			return cfg
		}
	}
	return []faultVariant{
		{"baseline", func(seed int64) cluster.Config { return cluster.Vanilla(nodes, 16, seed) }},
		{"drop-abort", drop(1e-3, 0)},
		{"drop-retry", drop(1e-3, 6)},
		{"drop-heavy", drop(1e-2, 8)},
		{"partition-retry", func(seed int64) cluster.Config {
			cfg := cluster.Vanilla(nodes, 16, seed)
			cfg.Faults = &fault.Config{
				Policy: fault.PolicyRetry, DetectLatency: faultDetect,
				PartitionStart: 10 * sim.Millisecond, PartitionDuration: 5 * sim.Millisecond,
				PartitionFrac: 0.5,
			}
			cfg.MPI.SendTimeout = 500 * sim.Microsecond
			cfg.MPI.SendRetries = 8
			return cfg
		}},
		{"straggler", func(seed int64) cluster.Config {
			cfg := cluster.Vanilla(nodes, 16, seed)
			cfg.Faults = &fault.Config{
				Policy: fault.PolicyRetry, DetectLatency: faultDetect,
				StragglerProb: 0.5, StragglerWindow: 20 * sim.Millisecond,
				StragglerDuration: 100 * sim.Millisecond, StragglerDuty: 0.5,
			}
			return cfg
		}},
		{"stall-restart", func(seed int64) cluster.Config {
			cfg := cluster.Vanilla(nodes, 16, seed)
			cfg.Faults = &fault.Config{
				Policy: fault.PolicyRetry, DetectLatency: faultDetect,
				StallProb: 0.5, StallWindow: 50 * sim.Millisecond,
				RestartDelay: 5 * sim.Millisecond, CheckPeriod: 2 * sim.Millisecond,
			}
			return cfg
		}},
		{"crash-abort", crash(fault.PolicyAbort)},
		{"crash-replan", crash(fault.PolicyReplan)},
	}
}

// runDeadline bounds one run's host time; a run past it counts as failed.
const runDeadline = 60 * time.Second

// runResult is the outcome of one executed run.
type runResult struct {
	digest string
	start  time.Time     // host time Build began
	build  time.Duration // host time inside cluster.Build
	total  time.Duration // host time for Build and the run
	err    error
	layers counters // per-layer counters; collected only when traced
}

// execute builds the run's cluster and runs its workload to completion. The
// digest covers the workload's results, the job's termination time and the
// fault report.
// A run fails when it returns an error, blows the deadline, or, having no
// faults configured, does not complete; a faulty job aborted by its policy
// is expected output.
func execute(r runSpec, collect bool) runResult {
	out := runResult{start: time.Now()}
	c, err := cluster.Build(r.cfg)
	out.build = time.Since(out.start)
	if err != nil {
		out.err = fmt.Errorf("%s: build: %w", r.id, err)
		return out
	}
	c.SetWallDeadline(runDeadline)
	launch := time.Now()
	var d digest
	var completed bool
	var end sim.Time
	if r.ale3d != nil {
		res, err := workload.RunALE3D(c, *r.ale3d, 4*sim.Hour)
		if err != nil {
			out.err = fmt.Errorf("%s: %w", r.id, err)
			return out
		}
		completed, end = res.Completed, res.Wall
		d.times(res.Wall, res.ReadTime, res.StepTime, res.DumpTime)
		d.ints(uint64(res.Timesteps), res.IOStats.BytesWritten, res.IOStats.BytesRead,
			res.IOStats.WriterStalls, uint64(res.IOStats.DaemonCPUTime))
	} else {
		res, err := workload.RunAggregate(c, workload.AggregateSpec{
			Loops: 1, CallsPerLoop: r.calls, Compute: grain,
		}, 30*sim.Minute)
		if err != nil {
			out.err = fmt.Errorf("%s: %w", r.id, err)
			return out
		}
		completed, end = res.Completed, res.Wall
		d.ints(uint64(len(res.TimesUS)))
		for _, us := range res.TimesUS {
			d.ints(math.Float64bits(us))
		}
		d.times(res.Wall)
	}
	hostRun := time.Since(launch)
	out.total = time.Since(out.start)
	fr := c.FaultReport()
	d.times(c.Job.TerminatedAt())
	d.ints(b2u(completed), uint64(fr.Crashes), uint64(fr.Stragglers), uint64(fr.Stalls),
		fr.Dropped, fr.Retries, uint64(fr.AbortedCollectives), uint64(fr.LostRanks),
		uint64(fr.AbortedRanks), uint64(fr.Replans), uint64(fr.Restarts), uint64(fr.RecoveryTime))
	out.digest = d.sum()
	switch {
	case c.DeadlineHit():
		out.err = fmt.Errorf("%s: run exceeded its %v deadline", r.id, runDeadline)
	case !completed && r.cfg.Faults == nil:
		out.err = fmt.Errorf("%s: job did not complete", r.id)
	}
	if collect {
		out.layers = collectCounters(c, end, hostRun)
	}
	return out
}

// runAll executes runs on a pool of workers and returns the results in run
// order with the host wall time of the whole set.
func runAll(runs []runSpec, workers int, collect bool) ([]runResult, time.Duration) {
	start := time.Now()
	res, errs := parallel.MapAll(workers, len(runs), func(i int) (runResult, error) {
		return execute(runs[i], collect), nil
	})
	for i, err := range errs {
		if err != nil { // a panic inside the simulation
			res[i] = runResult{start: start, err: fmt.Errorf("%s: %w", runs[i].id, err)}
		}
	}
	return res, time.Since(start)
}

// digest hashes a run's simulated outputs.
type digest struct{ buf []byte }

func (d *digest) ints(vs ...uint64) {
	for _, v := range vs {
		d.buf = binary.LittleEndian.AppendUint64(d.buf, v)
	}
}

func (d *digest) times(ts ...sim.Time) {
	for _, t := range ts {
		d.ints(uint64(t))
	}
}

func (d *digest) sum() string {
	h := sha256.Sum256(d.buf)
	return hex.EncodeToString(h[:8])
}

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}
