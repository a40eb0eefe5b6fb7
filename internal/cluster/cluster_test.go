package cluster

import (
	"testing"

	"coschedsim/internal/kernel"
	"coschedsim/internal/mpi"
	"coschedsim/internal/network"
	"coschedsim/internal/sim"
	"coschedsim/internal/stats"
)

func TestConfigValidate(t *testing.T) {
	if err := Vanilla(4, 16, 1).Validate(); err != nil {
		t.Fatalf("vanilla invalid: %v", err)
	}
	if err := Prototype(4, 16, 1).Validate(); err != nil {
		t.Fatalf("prototype invalid: %v", err)
	}
	bad := []func(*Config){
		func(c *Config) { c.Nodes = 0 },
		func(c *Config) { c.TasksPerNode = 0 },
		func(c *Config) { c.TasksPerNode = 17 },
		func(c *Config) { c.CPUsPerNode = 8 }, // mismatch with Kernel.NumCPUs
	}
	for i, mutate := range bad {
		cfg := Vanilla(2, 16, 1)
		mutate(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
}

func TestBuildWiring(t *testing.T) {
	cfg := Prototype(3, 16, 7)
	c := MustBuild(cfg)
	if len(c.Nodes) != 3 || len(c.Noise) != 3 || len(c.Clocks) != 3 {
		t.Fatalf("built %d nodes, %d noise sets, %d clocks", len(c.Nodes), len(c.Noise), len(c.Clocks))
	}
	if c.Procs() != 48 {
		t.Fatalf("procs = %d, want 48", c.Procs())
	}
	if c.Sched == nil {
		t.Fatal("prototype cluster missing co-scheduler")
	}
	for _, clock := range c.Clocks {
		if _, ok := clock.(*network.SwitchClock); !ok {
			t.Fatal("prototype cluster must use switch clocks")
		}
	}
	// Ranks bound one per CPU starting at 0.
	for i, r := range c.Job.Ranks() {
		if r.Node().ID() != i/16 || r.Thread().HomeCPU() != i%16 {
			t.Fatalf("rank %d placed on node %d cpu %d", i, r.Node().ID(), r.Thread().HomeCPU())
		}
	}
}

// TestConfigCoreSelectsEngine pins core selection through Config.Core: the
// zero value and the heap stay serial at one intra-run worker, and the
// sharded core shards a shardable config by itself.
func TestConfigCoreSelectsEngine(t *testing.T) {
	for _, tc := range []struct {
		core    sim.Core
		sharded bool
	}{
		{sim.CoreWheel, false},
		{sim.CoreHeap, false},
		{sim.CoreSharded, true},
	} {
		cfg := Vanilla(4, 16, 7)
		cfg.Core = tc.core
		c := MustBuild(cfg)
		if got := c.Group != nil; got != tc.sharded {
			t.Errorf("core %v: sharded=%v, want %v", tc.core, got, tc.sharded)
		}
	}
}

func TestVanillaUsesLocalClocks(t *testing.T) {
	c := MustBuild(Vanilla(4, 16, 7))
	sawOffset := false
	for i, clock := range c.Clocks {
		lc, ok := clock.(*network.LocalClock)
		if !ok {
			t.Fatal("vanilla cluster must use local clocks")
		}
		if lc.Offset() < 0 || lc.Offset() > 500*sim.Millisecond {
			t.Fatalf("clock %d offset %v outside [0,500ms]", i, lc.Offset())
		}
		if lc.Offset() != 0 {
			sawOffset = true
		}
		// Tick phase must mirror the clock error, within one tick period.
		if ph := c.Nodes[i].Options().Phase; ph != lc.Offset()%c.Nodes[i].Options().EffectiveTick() {
			t.Fatalf("node %d phase %v does not match clock offset %v", i, ph, lc.Offset())
		}
	}
	if !sawOffset {
		t.Fatal("all local clocks had zero offset")
	}
}

func TestGPFSDropsDuplicateMmfsd(t *testing.T) {
	cfg := ALE3DVanilla(2, 16, 1)
	c := MustBuild(cfg)
	if len(c.IO) != 2 {
		t.Fatalf("IO services = %d, want 2", len(c.IO))
	}
	for _, ns := range c.Noise {
		for _, th := range ns.Threads() {
			if th.Name() == "mmfsd" {
				t.Fatal("periodic mmfsd daemon still present alongside GPFS service")
			}
		}
	}
	// The live service daemon exists on each node.
	for i, svc := range c.IO {
		if svc.Daemon().Priority() != kernel.PrioIODaemon {
			t.Fatalf("node %d mmfsd priority %v", i, svc.Daemon().Priority())
		}
	}
}

func TestLaunchSmallJob(t *testing.T) {
	c := MustBuild(Vanilla(2, 16, 3))
	done, ok := c.Launch(func(r *mpi.Rank) {
		r.Allreduce(float64(r.ID()), func(float64) { r.Done() })
	}, sim.Minute)
	if !ok {
		t.Fatal("job did not complete")
	}
	if done <= 0 || done > sim.Second {
		t.Fatalf("32-rank single allreduce completed at %v", done)
	}
}

// measureMeanAllreduce runs count back-to-back Allreduces and returns the
// mean time per call measured at rank 0.
func measureMeanAllreduce(t *testing.T, cfg Config, count int) float64 {
	t.Helper()
	c := MustBuild(cfg)
	var times []float64
	var t0 sim.Time
	_, ok := c.Launch(func(r *mpi.Rank) {
		var loop func(i int)
		loop = func(i int) {
			if i == count {
				r.Done()
				return
			}
			if r.ID() == 0 {
				t0 = r.Now()
			}
			r.Allreduce(1, func(float64) {
				if r.ID() == 0 {
					times = append(times, (r.Now() - t0).Micros())
				}
				loop(i + 1)
			})
		}
		loop(0)
	}, 10*sim.Minute)
	if !ok {
		t.Fatal("allreduce loop did not complete")
	}
	return stats.Summarize(times).Mean
}

// TestPrototypeBeatsVanilla is the paper's headline direction at small
// scale: the prototype kernel + co-scheduler yields faster mean Allreduce
// than vanilla with the same noise.
func TestPrototypeBeatsVanilla(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-node timing comparison")
	}
	const nodes, count = 4, 400
	van := measureMeanAllreduce(t, Vanilla(nodes, 16, 11), count)
	proto := measureMeanAllreduce(t, Prototype(nodes, 16, 11), count)
	if proto >= van {
		t.Fatalf("prototype mean %.1fus not better than vanilla %.1fus", proto, van)
	}
	t.Logf("64 ranks, %d calls: vanilla %.1fus, prototype %.1fus (%.1fx)", count, van, proto, van/proto)
}

func TestDeterministicBuildAndRun(t *testing.T) {
	run := func() sim.Time {
		c := MustBuild(Prototype(2, 16, 99))
		done, ok := c.Launch(func(r *mpi.Rank) {
			var loop func(i int)
			loop = func(i int) {
				if i == 50 {
					r.Done()
					return
				}
				r.Allreduce(1, func(float64) { loop(i + 1) })
			}
			loop(0)
		}, sim.Minute)
		if !ok {
			t.Fatal("job incomplete")
		}
		return done
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("cluster runs diverge: %v vs %v", a, b)
	}
}
