package experiment

import (
	"fmt"
	"math"

	"coschedsim/internal/cluster"
	"coschedsim/internal/fault"
	"coschedsim/internal/sim"
	"coschedsim/internal/stats"
	"coschedsim/internal/workload"
)

// faultDetect is the survivor detection latency used by every ablation
// variant. It must clear the fabric lookahead (24us) so abort broadcasts can
// cross conservative shard windows; cluster.Validate enforces the bound.
const faultDetect = 50 * sim.Microsecond

// faultVariants enumerates the ablation: each injected fault class under the
// policy meant to absorb it, plus the abort-policy control for the same
// fault so the table shows what the resilience response buys.
func faultVariants(nodes int) []variantSpec {
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
	return []variantSpec{
		{"baseline", func(seed int64) cluster.Config {
			return cluster.Vanilla(nodes, 16, seed)
		}},
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
			// Cumulative exponential backoff 500us*(2^8-1) = 127.5ms spans the
			// 5ms cut, so every message eventually crosses the healed link.
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

// faultOut is one faulty run's outcome. Unlike the clean sweeps, a run that
// does not complete is data, not an error: the table reports how far it got
// and what the resilience machinery did.
type faultOut struct {
	mean      float64
	calls     int
	completed bool
	rep       cluster.FaultReport
}

// AblationFault sweeps fault rate x resilience policy. Every fault schedule
// is drawn from counter streams keyed by stable identities, so the whole
// table is byte-identical on the heap, wheel, and sharded cores at any
// worker count — the differential test and golden hash pin exactly that.
func AblationFault(o Options) (*Table, error) {
	if err := o.validate(); err != nil {
		return nil, err
	}
	nodes := ablationNodes(o)
	variants := faultVariants(nodes)
	outs, errs := runEach(o, variantJobs(o, "abl-fault", nodes, variants), func(o Options, c *cluster.Cluster, j runDesc) (faultOut, error) {
		spec := workload.AggregateSpec{
			Loops: 1, CallsPerLoop: o.callsFor(c.Procs()), Compute: o.ComputeGrain,
		}
		res, err := workload.RunAggregate(c, spec, 30*sim.Minute)
		if err != nil {
			return faultOut{}, err
		}
		fo := faultOut{calls: len(res.TimesUS), completed: res.Completed, rep: c.FaultReport()}
		if fo.calls > 0 {
			fo.mean = stats.Summarize(res.TimesUS).Mean
		} else {
			fo.mean = math.NaN()
		}
		o.progress("%s nodes=%d seed=%d calls=%d completed=%t drops=%d retries=%d lost=%d aborted=%d replans=%d restarts=%d",
			j.Label, j.Nodes, j.SeedIdx, fo.calls, fo.completed, fo.rep.Dropped, fo.rep.Retries,
			fo.rep.LostRanks, fo.rep.AbortedRanks, fo.rep.Replans, fo.rep.Restarts)
		return fo, nil
	})
	if err := firstErr(errs); err != nil {
		return nil, err
	}
	t := &Table{
		ID:    "ABL11",
		Title: fmt.Sprintf("Fault injection x resilience policy, %d procs", nodes*16),
		Cols: []Column{
			{Name: "mean", Unit: "us"}, {Name: "calls"}, {Name: "done"},
			{Name: "drops"}, {Name: "retries"}, {Name: "cabort"},
			{Name: "lost"}, {Name: "aborted"}, {Name: "replans"}, {Name: "restarts"},
		},
	}
	for vi, v := range variants {
		group := outs[vi*o.Seeds : (vi+1)*o.Seeds]
		var means []float64
		var calls, done int
		var rep cluster.FaultReport
		for _, r := range group {
			means = append(means, r.mean)
			calls += r.calls
			if r.completed {
				done++
			}
			rep.Dropped += r.rep.Dropped
			rep.Retries += r.rep.Retries
			rep.AbortedCollectives += r.rep.AbortedCollectives
			rep.LostRanks += r.rep.LostRanks
			rep.AbortedRanks += r.rep.AbortedRanks
			rep.Replans += r.rep.Replans
			rep.Restarts += r.rep.Restarts
		}
		t.AddRow(v.tag,
			stats.Summarize(means).Mean,
			float64(calls)/float64(o.Seeds),
			float64(done),
			float64(rep.Dropped), float64(rep.Retries), float64(rep.AbortedCollectives),
			float64(rep.LostRanks), float64(rep.AbortedRanks),
			float64(rep.Replans), float64(rep.Restarts))
	}
	t.AddNote("fault schedules are drawn from counter streams keyed by (node, rank, send index, attempt): the table is byte-identical on heap/wheel/sharded cores at any worker count")
	t.AddNote("drop-retry absorbs what drop-abort dies to; crash-replan drains surviving nodes in favored quanta (replans column) before release; counters are summed over %d seed(s)", o.Seeds)
	return t, nil
}
