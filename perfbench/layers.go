package main

import (
	"time"

	"coschedsim/internal/cluster"
	"coschedsim/internal/sim"
)

// metricDef names one printed metric. The lists below are the benchmark's
// contract and must match BENCHMARK.json.
type metricDef struct{ name, unit, better string }

// endToEnd are measured with tracing off.
var endToEnd = []metricDef{
	{"wall_s", "s", "lower"},
	{"setup_s", "s", "lower"},
	{"alloc_mb", "MB", "lower"},
	{"peak_heap_mb", "MB", "lower"},
}

// profiledLayers are the buckets CPU profile samples are attributed to:
// the coschedsim/internal package of the innermost frame that has one, the
// Go runtime, or other (the benchmark itself and the remaining packages).
var profiledLayers = []string{
	"sim", "kernel", "noise", "network", "mpi", "cosched", "gpfs", "fault",
	"cluster", "parallel", "workload", "runtime", "other",
}

// perLayer are measured by the traced run. Times in sim_s are simulated
// seconds; times in s are host seconds.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"sim.events", "count", "lower"},
		{"sim.scheduled", "count", "lower"},
		{"sim.host_ns_per_event", "ns", "lower"},
		{"sim.windows", "count", "lower"},
		{"sim.parallel_windows", "count", "higher"},
		{"sim.active_shards_mean", "shards", "higher"},
		{"sim.cross_shard_events", "count", "lower"},
		{"sim.barrier_stall_s", "s", "lower"},
		{"sim.shard_speedup", "x", "higher"},
		{"kernel.ctx_switches", "count", "lower"},
		{"kernel.preemptions", "count", "lower"},
		{"kernel.ipis", "count", "lower"},
		{"kernel.tick_steal_s", "sim_s", "lower"},
		{"kernel.rank_wait_s", "sim_s", "lower"},
		{"noise.daemon_cpu_s", "sim_s", "lower"},
		{"noise.overhead_frac", "frac", "lower"},
		{"network.messages", "count", "lower"},
		{"network.bytes", "B", "lower"},
		{"network.cross_shard_sends", "count", "lower"},
		{"network.dropped", "count", "lower"},
		{"mpi.p2p_sends", "count", "lower"},
		{"mpi.retries", "count", "lower"},
		{"mpi.aborted_ranks", "count", "lower"},
		{"cosched.transitions", "count", "lower"},
		{"cosched.replans", "count", "lower"},
		{"gpfs.bytes_written", "B", "lower"},
		{"gpfs.bytes_read", "B", "lower"},
		{"gpfs.writer_stalls", "count", "lower"},
		{"gpfs.daemon_cpu_s", "sim_s", "lower"},
		{"fault.dropped", "count", "lower"},
		{"fault.retries", "count", "lower"},
		{"fault.crashes", "count", "lower"},
		{"fault.restarts", "count", "lower"},
		{"fault.recovery_s", "sim_s", "lower"},
		{"cluster.build_s_max", "s", "lower"},
		{"parallel.runs", "count", "higher"},
		{"parallel.run_p50_s", "s", "lower"},
		{"parallel.tail_idle_s", "s", "lower"},
		{"runtime.gc_cpu_frac", "frac", "lower"},
		{"runtime.alloc_bytes_per_event", "B/event", "lower"},
		{"trace.overhead_frac", "frac", "lower"},
	}
	for _, l := range profiledLayers {
		defs = append(defs, metricDef{l + ".cpu_share", "frac", "lower"})
	}
	return defs
}()

// counters are per-layer work counts read from each layer's public
// Stats/Measure/FaultReport after a run, keyed by metric name. Keys that
// start with "_" are the bases of ratio metrics. Counts of several runs add.
type counters map[string]float64

func (k counters) add(o counters) {
	for name, v := range o {
		k[name] += v
	}
}

// collectCounters reads every layer's counters from a finished run that
// ended at simulated time end after launch host time on the workload.
func collectCounters(c *cluster.Cluster, end sim.Time, launch time.Duration) counters {
	k := counters{"_launch_ns": float64(launch.Nanoseconds())}
	if c.Group != nil {
		for i := 0; i < c.Group.Shards(); i++ {
			k["sim.scheduled"] += float64(c.Group.Shard(i).Scheduled())
		}
		k["sim.events"] = float64(c.Group.Fired())
		gs := c.Group.Stats()
		k["sim.windows"] = float64(gs.Windows)
		k["sim.parallel_windows"] = float64(gs.ParallelWindows)
		k["_active_shard_windows"] = float64(gs.ActiveShardWindows)
		k["sim.cross_shard_events"] = float64(gs.CrossShardEvents)
		k["sim.barrier_stall_s"] = float64(gs.BarrierStallNs) / 1e9
	} else {
		k["sim.events"] = float64(c.Eng.Fired())
		k["sim.scheduled"] = float64(c.Eng.Scheduled())
	}
	if t := c.Job.TerminatedAt(); t > end {
		end = t
	}
	for i, n := range c.Nodes {
		ns := n.Stats()
		k["kernel.ctx_switches"] += float64(ns.CtxSwitches)
		k["kernel.preemptions"] += float64(ns.Preemptions)
		k["kernel.ipis"] += float64(ns.IPIs)
		k["kernel.tick_steal_s"] += (ns.TickSteal + ns.IdleTickSteal).Seconds()
		rep := c.Noise[i].Measure(end)
		k["noise.daemon_cpu_s"] += rep.DaemonCPU.Seconds()
		k["_noise_overhead"] += float64(rep.DaemonCPU + rep.TickCPU + rep.InterruptCPU)
		k["_noise_capacity"] += float64(n.NumCPUs()) * float64(end)
	}
	for _, r := range c.Job.Ranks() {
		k["kernel.rank_wait_s"] += r.Thread().Stats().WaitTime.Seconds()
	}
	fs := c.Fabric.Stats()
	k["network.messages"] = float64(fs.Messages)
	k["network.bytes"] = float64(fs.Bytes)
	k["network.cross_shard_sends"] = float64(fs.CrossShardSends)
	k["network.dropped"] = float64(fs.Dropped)
	js := c.Job.FaultStats()
	k["mpi.p2p_sends"] = float64(c.Job.P2PSends())
	k["mpi.retries"] = float64(js.Retries)
	k["mpi.aborted_ranks"] = float64(js.AbortedRanks)
	if c.Sched != nil {
		k["cosched.transitions"] = float64(len(c.Sched.Transitions()))
		k["cosched.replans"] = float64(c.Sched.Replans())
	}
	for _, svc := range c.IO {
		st := svc.Stats()
		k["gpfs.bytes_written"] += float64(st.BytesWritten)
		k["gpfs.bytes_read"] += float64(st.BytesRead)
		k["gpfs.writer_stalls"] += float64(st.WriterStalls)
		k["gpfs.daemon_cpu_s"] += st.DaemonCPUTime.Seconds()
	}
	fr := c.FaultReport()
	k["fault.dropped"] = float64(fr.Dropped)
	k["fault.retries"] = float64(fr.Retries)
	k["fault.crashes"] = float64(fr.Crashes)
	k["fault.restarts"] = float64(fr.Restarts)
	k["fault.recovery_s"] = fr.RecoveryTime.Seconds()
	return k
}

// metrics returns the per-layer metrics the counters give: every count
// metric, zero where no run reported it, and the ratios.
func (k counters) metrics() map[string]float64 {
	m := map[string]float64{}
	for _, d := range perLayer {
		m[d.name] = k[d.name]
	}
	m["sim.host_ns_per_event"] = ratio(k["_launch_ns"], k["sim.events"])
	m["sim.active_shards_mean"] = ratio(k["_active_shard_windows"], k["sim.windows"])
	m["noise.overhead_frac"] = ratio(k["_noise_overhead"], k["_noise_capacity"])
	return m
}

// ratio is a/b, or 0 when b is 0 (a layer that did no work).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
