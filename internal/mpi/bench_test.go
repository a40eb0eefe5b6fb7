package mpi

import (
	"runtime"
	"testing"

	"coschedsim/internal/sim"
)

// allreduceLoop builds 16 ranks over 4 quiet nodes and launches calls
// back-to-back recursive-doubling Allreduces on every rank. Cluster
// construction happens here; the returned function runs the loop to
// completion, so callers time or count the collectives alone.
func allreduceLoop(tb testing.TB, calls int) (run func()) {
	tb.Helper()
	eng, job := testCluster(tb, 1, 16, 4, quietConfig())
	job.OnComplete(eng.Stop)
	job.Launch(func(r *Rank) {
		var i int
		var loop func(float64)
		loop = func(float64) {
			if i == calls {
				r.Done()
				return
			}
			i++
			r.Allreduce(float64(i), loop)
		}
		loop(0)
	})
	return func() {
		eng.Run(sim.Forever)
		if !job.Completed() {
			tb.Fatal("allreduce loop did not complete")
		}
	}
}

// BenchmarkMPIAllreduceSteadyAllocs measures the per-Allreduce steady-state
// allocation cost of allreduceLoop; run with -benchmem to see allocs/op. The
// pending-list matching, embedded collective state and pooled delivery
// records exist to hold this near zero; TestAllreduceSteadyStateAllocs pins
// it at zero.
func BenchmarkMPIAllreduceSteadyAllocs(b *testing.B) {
	run := allreduceLoop(b, b.N)
	b.ReportAllocs()
	b.ResetTimer()
	run()
}

// TestAllreduceSteadyStateAllocs pins the MPI hot path's allocation
// contract: after warm-up, an Allreduce allocates nothing. Warm-up (pool
// growth, first use of each rank's collective state) is the same in a loop of
// n calls and in one of 4n, so the difference between their allocation counts
// belongs to the 3n steady calls alone. As with testing.AllocsPerRun, the
// count per call is the truncated average.
func TestAllreduceSteadyStateAllocs(t *testing.T) {
	const n = 200
	mallocs := func(calls int) int64 {
		run := allreduceLoop(t, calls)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		run()
		runtime.ReadMemStats(&after)
		return int64(after.Mallocs - before.Mallocs)
	}
	short, long := mallocs(n), mallocs(4*n)
	if perCall := (long - short) / (3 * n); perCall != 0 {
		t.Errorf("steady-state Allreduce allocates %d times per call (%d allocs over %d calls, %d over %d), want 0",
			perCall, long, 4*n, short, n)
	}
}
