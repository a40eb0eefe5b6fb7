package cluster

import (
	"testing"

	"coschedsim/internal/mpi"
	"coschedsim/internal/sim"
)

// rank0Probe records rank 0's per-call Allreduce times, so the same
// fingerprint helpers serve every engine core.
type rank0Probe struct {
	t0    sim.Time
	times []sim.Time
}

// program returns the fixed Allreduce-loop fingerprint program.
func (p *rank0Probe) program(calls int) func(*mpi.Rank) {
	return func(r *mpi.Rank) {
		var loop func(i int)
		loop = func(i int) {
			if i == calls {
				r.Done()
				return
			}
			if r.ID() == 0 {
				p.t0 = r.Now()
			}
			r.Allreduce(float64(r.ID()), func(float64) {
				if r.ID() == 0 {
					p.times = append(p.times, r.Now()-p.t0)
				}
				loop(i + 1)
			})
		}
		loop(0)
	}
}

// allreduceTrace runs a fixed Allreduce loop on cfg and returns rank 0's
// per-call times, the completion time, and the job's total point-to-point
// send count — a fingerprint sensitive to any ordering or RNG divergence.
func allreduceTrace(t *testing.T, cfg Config, calls int) ([]sim.Time, sim.Time, uint64, *Cluster) {
	t.Helper()
	c := MustBuild(cfg)
	p := &rank0Probe{}
	done, ok := c.Launch(p.program(calls), 10*sim.Minute)
	if !ok {
		t.Fatal("allreduce loop did not complete")
	}
	return p.times, done, c.Job.P2PSends(), c
}

// TestShardedClusterBitIdentical is the cluster-level determinism pin: the
// same configuration run serially and on the sharded engine at several
// worker counts must produce identical per-call times, completion time,
// and send counts.
func TestShardedClusterBitIdentical(t *testing.T) {
	const calls = 60
	for _, preset := range []struct {
		name string
		cfg  func(int64) Config
	}{
		{"vanilla", func(s int64) Config { return Vanilla(4, 16, s) }},
		{"prototype", func(s int64) Config { return Prototype(4, 16, s) }},
		// Jitter was unshardable before counter-based per-message draws;
		// this preset pins that jittered runs now match the serial engine.
		{"jitter", func(s int64) Config {
			cfg := Vanilla(4, 16, s)
			cfg.Network.Jitter = 3 * sim.Microsecond
			return cfg
		}},
	} {
		t.Run(preset.name, func(t *testing.T) {
			refTimes, refDone, refSends, refC := allreduceTrace(t, preset.cfg(7), calls)
			if refC.Group != nil {
				t.Fatal("serial build unexpectedly sharded")
			}
			for _, workers := range []int{1, 2, 3} {
				cfg := preset.cfg(7)
				cfg.IntraRunWorkers = workers
				times, done, sends, c := allreduceTrace(t, cfg, calls)
				if workers > 1 && c.Group == nil {
					t.Fatalf("workers=%d: sharded build has no group", workers)
				}
				if done != refDone || sends != refSends {
					t.Fatalf("workers=%d: done=%v sends=%d, want %v/%d", workers, done, sends, refDone, refSends)
				}
				if len(times) != len(refTimes) {
					t.Fatalf("workers=%d: %d calls recorded, want %d", workers, len(times), len(refTimes))
				}
				for i := range times {
					if times[i] != refTimes[i] {
						t.Fatalf("workers=%d: call %d took %v, want %v", workers, i, times[i], refTimes[i])
					}
				}
				if workers > 1 {
					if c.Fabric.Stats().CrossShardSends == 0 {
						t.Errorf("workers=%d: no cross-shard sends counted", workers)
					}
					if c.Group.Stats().Windows == 0 {
						t.Errorf("workers=%d: no windows recorded", workers)
					}
				}
			}
		})
	}
}

// TestShardedGating verifies configurations that cannot shard safely fall
// back to the serial engine instead of diverging or crashing — and that
// jitter, which used to gate sharding off, no longer does.
func TestShardedGating(t *testing.T) {
	cases := []struct {
		name    string
		mutate  func(*Config)
		sharded bool
	}{
		// Jitter is counter-keyed per message since re-baseline №1 and is
		// fully shard-safe.
		{"jitter", func(c *Config) { c.Network.Jitter = sim.Microsecond }, true},
		{"hardware-collectives", func(c *Config) {
			c.MPI.HardwareCollectives = true
			c.MPI.HWCollectiveLatency = 20 * sim.Microsecond
		}, false},
		{"one-node", func(c *Config) { c.Nodes = 1 }, false},
		// A node group spanning every node collapses to one shard — serial.
		{"group-covers-all-nodes", func(c *Config) { c.ShardNodeGroup = 4 }, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := Vanilla(4, 16, 7)
			cfg.IntraRunWorkers = 2
			tc.mutate(&cfg)
			c := MustBuild(cfg)
			if got := c.Group != nil; got != tc.sharded {
				t.Fatalf("sharded=%v, want %v", got, tc.sharded)
			}
			done, ok := c.Launch(func(r *mpi.Rank) {
				r.Allreduce(1, func(float64) { r.Done() })
			}, sim.Minute)
			if !ok || done <= 0 {
				t.Fatalf("run failed: done=%v ok=%v", done, ok)
			}
		})
	}
}

// TestShardNodeGroupBitIdentical pins node-group shards (several nodes per
// engine shard): group sizes 1, 2 and 4 on an 8-node cluster must all
// reproduce the serial fingerprint exactly, at multiple worker counts.
func TestShardNodeGroupBitIdentical(t *testing.T) {
	const calls = 40
	base := func(s int64) Config {
		cfg := Vanilla(8, 8, s)
		cfg.CPUsPerNode = 8
		cfg.Kernel.NumCPUs = 8
		cfg.TasksPerNode = 8
		cfg.Network.Jitter = 2 * sim.Microsecond // exercise jitter under grouping too
		return cfg
	}
	refTimes, refDone, refSends, refC := allreduceTrace(t, base(11), calls)
	if refC.Group != nil {
		t.Fatal("serial build unexpectedly sharded")
	}
	for _, group := range []int{1, 2, 4} {
		for _, workers := range []int{2, 3} {
			cfg := base(11)
			cfg.IntraRunWorkers = workers
			cfg.ShardNodeGroup = group
			times, done, sends, c := allreduceTrace(t, cfg, calls)
			if c.Group == nil {
				t.Fatalf("group=%d workers=%d: build not sharded", group, workers)
			}
			if want := (8 + group - 1) / group; c.Group.Shards() != want {
				t.Fatalf("group=%d: %d shards, want %d", group, c.Group.Shards(), want)
			}
			if c.ShardOf(7) != 7/group {
				t.Fatalf("group=%d: node 7 on shard %d, want %d", group, c.ShardOf(7), 7/group)
			}
			if done != refDone || sends != refSends {
				t.Fatalf("group=%d workers=%d: done=%v sends=%d, want %v/%d",
					group, workers, done, sends, refDone, refSends)
			}
			for i := range times {
				if times[i] != refTimes[i] {
					t.Fatalf("group=%d workers=%d: call %d took %v, want %v",
						group, workers, i, times[i], refTimes[i])
				}
			}
		}
	}
}
