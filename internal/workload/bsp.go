package workload

import (
	"fmt"

	"coschedsim/internal/cluster"
	"coschedsim/internal/mpi"
	"coschedsim/internal/sim"
)

// BSPSpec configures a generic bulk-synchronous SPMD application: each cycle
// is a computation phase followed by synchronizing collectives (Figure 2 of
// the paper).
type BSPSpec struct {
	Steps int
	// ComputeMean is the per-step computation; each rank draws its own
	// duration in [ComputeMean-Jitter, ComputeMean+Jitter] per step (load
	// imbalance).
	ComputeMean   sim.Time
	ComputeJitter sim.Time
	// AllreducesPerStep is how many global reductions close each cycle.
	AllreducesPerStep int
	// FineGrainHints wraps each step's reduction phase in the co-scheduler
	// hint API (the paper's §7 proposal), asking the favored window to be
	// held open through the synchronized region.
	FineGrainHints bool
}

// Validate reports an error for degenerate specs.
func (s BSPSpec) Validate() error {
	if s.Steps <= 0 || s.AllreducesPerStep < 0 {
		return fmt.Errorf("workload: bsp needs positive steps")
	}
	if s.ComputeMean < 0 || s.ComputeJitter < 0 {
		return fmt.Errorf("workload: negative bsp durations")
	}
	return nil
}

// BSPResult reports the time split the paper's §2 quotes: the fraction of
// total time spent inside synchronizing collectives.
type BSPResult struct {
	Wall            sim.Time
	CollectiveTime  sim.Time // rank 0's time inside Allreduce
	CollectiveShare float64  // CollectiveTime / Wall
	StepsCompleted  int
	Completed       bool
}

// StepWork returns rank's imbalanced compute cost for step: a pure function
// of (seed, rank, step), replayable in isolation and shard-safe.
func (s BSPSpec) StepWork(src *sim.Source, rank, step int) sim.Time {
	cr := src.CounterRand("bsp-imbalance", uint64(rank), uint64(step))
	return cr.Jitter(s.ComputeMean, s.ComputeJitter)
}

// RunBSP executes the BSP application and measures rank 0's collective
// share. Load imbalance is drawn per (rank, step), so the workload runs
// under IntraRunWorkers.
func RunBSP(c *cluster.Cluster, spec BSPSpec, horizon sim.Time) (BSPResult, error) {
	if err := spec.Validate(); err != nil {
		return BSPResult{}, err
	}
	res := BSPResult{}
	src := c.Eng.Source()
	// Rank 0's time inside collectives and the start of its current one.
	var inColl, collStart sim.Time

	program := func(r *mpi.Rank) {
		var step func(i int)
		step = func(i int) {
			if i == spec.Steps {
				if r.ID() == 0 {
					res.StepsCompleted = i
				}
				r.Done()
				return
			}
			work := spec.StepWork(src, r.ID(), i)
			r.Compute(work, func() {
				var reduce func(k int)
				finishStep := func() {
					if spec.FineGrainHints {
						r.ExitFineGrain(func() { step(i + 1) })
						return
					}
					step(i + 1)
				}
				reduce = func(k int) {
					if k == spec.AllreducesPerStep {
						finishStep()
						return
					}
					if r.ID() == 0 {
						collStart = r.Now()
					}
					r.Allreduce(1, func(float64) {
						if r.ID() == 0 {
							inColl += r.Now() - collStart
						}
						reduce(k + 1)
					})
				}
				if spec.FineGrainHints {
					r.EnterFineGrain(func() { reduce(0) })
					return
				}
				reduce(0)
			})
		}
		step(0)
	}

	wall, ok := c.Launch(program, horizon)
	res.Wall = wall
	res.CollectiveTime = inColl
	res.Completed = ok
	if wall > 0 {
		res.CollectiveShare = float64(inColl) / float64(wall)
	}
	return res, nil
}
