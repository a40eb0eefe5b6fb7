package experiment

import (
	"fmt"

	"coschedsim/internal/cluster"
	"coschedsim/internal/mpi"
	"coschedsim/internal/noise"
	"coschedsim/internal/sim"
	"coschedsim/internal/stats"
	"coschedsim/internal/workload"
)

// T1FifteenPerNode reproduces the §5.3 baseline: 15 tasks per node improves
// absolute time and variability over 16 (the idle CPU absorbs daemons) but
// scaling stays linear (MPI timer threads and ticks remain).
func T1FifteenPerNode(o Options) (*Table, error) {
	fifteen, err := measureScaling(o, "t1-15tpn", func(nodes int, seed int64) cluster.Config {
		return cluster.Vanilla(nodes, 15, seed)
	})
	if err != nil {
		return nil, err
	}
	sixteen, err := measureScaling(o, "t1-16tpn", func(nodes int, seed int64) cluster.Config {
		return cluster.Vanilla(nodes, 16, seed)
	})
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:    "T1",
		Title: "15 vs 16 tasks/node, standard kernel",
		Cols: []Column{
			{Name: "nodes"}, {Name: "procs15"}, {Name: "mean15", Unit: "us"}, {Name: "stddev15", Unit: "us"},
			{Name: "procs16"}, {Name: "mean16", Unit: "us"}, {Name: "stddev16", Unit: "us"},
		},
	}
	for i := range fifteen {
		if i >= len(sixteen) {
			break
		}
		f, s := fifteen[i], sixteen[i]
		t.AddRow("", float64(f.procs)/15, float64(f.procs), f.mean, f.stddev,
			float64(s.procs), s.mean, s.stddev)
	}
	xs, ys := t.Col("procs15"), t.Col("mean15")
	if fit, err := stats.LinearFit(xs, ys); err == nil {
		t.AddNote("15 t/n fit: y = %.3f*x + %.0f us (still linear, as the paper observed)", fit.Slope, fit.Intercept)
	}
	t.AddNote("paper: 15 t/n improves absolute performance and variability; daemons use the idle CPU, but timer threads and decrementer interrupts remain")
	return t, nil
}

// T2PopulatedSpeedup reproduces the §5.3 claim that 100 fully-populated
// prototype nodes yield a 154% speedup over 100 vanilla nodes at 15
// tasks/node — i.e. the prototype recovers the sacrificed CPU *and* runs
// faster.
func T2PopulatedSpeedup(o Options) (*Table, error) {
	if err := o.validate(); err != nil {
		return nil, err
	}
	nodes := o.MaxNodes
	if nodes > 100 {
		nodes = 100
	}
	// Both configurations are independent runs; hand them to the pool.
	outs, err := runJobs(o, []runDesc{
		{Label: "t2-vanilla-15tpn", Nodes: nodes, Seed: o.BaseSeed, Cfg: cluster.Vanilla(nodes, 15, o.BaseSeed)},
		{Label: "t2-prototype-16tpn", Nodes: nodes, Seed: o.BaseSeed, Cfg: cluster.Prototype(nodes, 16, o.BaseSeed)},
	}, false)
	if err != nil {
		return nil, err
	}
	s15, s16 := outs[0], outs[1]
	t := &Table{
		ID:    "T2",
		Title: fmt.Sprintf("Fully-populated prototype vs 15 t/n vanilla, %d nodes", nodes),
		Cols: []Column{
			{Name: "procs"}, {Name: "mean", Unit: "us"}, {Name: "stddev", Unit: "us"},
		},
	}
	t.AddRow("vanilla-15tpn", float64(s15.procs), s15.mean, s15.stddev)
	t.AddRow("prototype-16tpn", float64(s16.procs), s16.mean, s16.stddev)
	t.AddNote("per-Allreduce speedup of prototype over 15 t/n vanilla: %.0f%% (paper: 154%% at 100 nodes, with one more usable CPU per node)", stats.Speedup(s15.mean, s16.mean))
	o.progress("t2: 15tpn mean=%.1fus proto mean=%.1fus", s15.mean, s16.mean)
	return t, nil
}

// T3ALE3D reproduces the production-application sequence of §5.3: the naive
// co-scheduler slows ALE3D down (I/O daemon starvation); raising the favored
// priority to just above mmfsd both fixes I/O and beats vanilla. The paper's
// numbers: 1315s vanilla -> 1152s tuned at 944 processors.
func T3ALE3D(o Options) (*Table, error) {
	if err := o.validate(); err != nil {
		return nil, err
	}
	nodes := o.MaxNodes
	if nodes > 59 {
		nodes = 59
	}
	spec := workload.DefaultALE3DSpec()
	// Production-weight restart dumps: ALE3D's checkpoints were large
	// relative to the writeback buffer, which is what made the naive
	// co-scheduler's I/O starvation visible against its noise savings.
	spec.RestartWriteBytes = 20 << 20
	spec.CheckpointEvery = 15
	t := &Table{
		ID:    "T3",
		Title: fmt.Sprintf("ALE3D proxy, %d procs", nodes*16),
		Cols: []Column{
			{Name: "wall", Unit: "s"}, {Name: "steps", Unit: "s"}, {Name: "dump", Unit: "s"},
			{Name: "stalls"},
		},
	}
	scens := []struct {
		tag string
		cfg cluster.Config
	}{
		{"vanilla", cluster.ALE3DVanilla(nodes, 16, o.BaseSeed)},
		{"cosched-naive", cluster.ALE3DNaive(nodes, 16, o.BaseSeed)},
		{"cosched-tuned", cluster.ALE3DTuned(nodes, 16, o.BaseSeed)},
	}
	jobs := make([]runDesc, len(scens))
	for i, sc := range scens {
		jobs[i] = runDesc{Label: "t3/" + sc.tag, Nodes: nodes, Seed: o.BaseSeed, Cfg: sc.cfg}
	}
	outs, errs := runEach(o, jobs, func(o Options, c *cluster.Cluster, j runDesc) (workload.ALE3DResult, error) {
		res, err := workload.RunALE3D(c, spec, 4*sim.Hour)
		if err != nil {
			return workload.ALE3DResult{}, err
		}
		if !res.Completed {
			return res, fmt.Errorf("experiment %s: ALE3D did not complete", j.Label)
		}
		o.progress("%s: wall=%v steps=%v dump=%v", j.Label, res.Wall, res.StepTime, res.DumpTime)
		return res, nil
	})
	if err := firstErr(errs); err != nil {
		return nil, err
	}
	for i, sc := range scens {
		res := outs[i]
		t.AddRow(sc.tag, res.Wall.Seconds(), res.StepTime.Seconds(), res.DumpTime.Seconds(),
			float64(res.IOStats.WriterStalls))
	}
	van, tuned := outs[0].Wall, outs[2].Wall
	if van > 0 {
		t.AddNote("tuned vs vanilla: %.1f%% wall-clock reduction (paper: 1315s -> 1152s, a 12.4%% reduction described as 'dropped 24%%')",
			(1-tuned.Seconds()/van.Seconds())*100)
	}
	t.AddNote("paper: the naive co-scheduler *slowed ALE3D down* until the favored priority was set just above the I/O daemons (41 vs mmfsd's 40)")
	return t, nil
}

// T4Noise reproduces two §2/§5.3 measurements: (a) total OS overhead of
// 0.2-1.1% per CPU on idle-but-for-the-job nodes; (b) the MPI progress-
// engine timer threads disrupting Allreduce until MP_POLLING_INTERVAL is
// raised from 400ms to ~400s.
func T4Noise(o Options) (*Table, error) {
	if err := o.validate(); err != nil {
		return nil, err
	}
	t := &Table{
		ID:    "T4",
		Title: "OS noise accounting and MPI timer-thread interference",
		Cols:  []Column{{Name: "value"}, {Name: "unit-key"}},
	}
	// (a) noise accounting over 60 simulated seconds, standard and heavy.
	noiseCfgs := []struct {
		tag string
		cfg cluster.Config
	}{
		{"noise-standard", cluster.Vanilla(1, 16, o.BaseSeed)},
		{"noise-heavy", func() cluster.Config {
			c := cluster.Vanilla(1, 16, o.BaseSeed)
			c.Noise = noise.HeavyConfig()
			return c
		}()},
	}
	noiseJobs := make([]runDesc, len(noiseCfgs))
	for i, nc := range noiseCfgs {
		noiseJobs[i] = runDesc{Label: "t4-" + nc.tag, Nodes: 1, Seed: o.BaseSeed, Cfg: nc.cfg}
	}
	fractions, errs := runEach(o, noiseJobs, func(_ Options, c *cluster.Cluster, _ runDesc) (float64, error) {
		// Occupy the CPUs the way a compute phase would.
		c.Launch(func(r *mpi.Rank) { r.Compute(60*sim.Second, r.Done) }, 61*sim.Second)
		return c.Noise[0].Measure(60 * sim.Second).PerCPUFraction, nil
	})
	if err := firstErr(errs); err != nil {
		return nil, err
	}
	for i, nc := range noiseCfgs {
		t.AddRow(nc.tag, fractions[i]*100, 1) // unit-key 1: % per CPU
	}
	t.AddNote("paper: typical OS and daemon activity consumes 0.2%% to 1.1%% of each CPU on 16-way SP nodes")

	// (b) timer-thread interference A/B, isolated as a controlled
	// experiment: daemon noise off, fully populated nodes, so the progress
	// engine is the only interference (the paper identified it from traces
	// after accounting for the daemons).
	nodes := o.MaxNodes
	if nodes > 16 {
		nodes = 16
	}
	pollCfgs := []struct {
		tag      string
		interval sim.Time
	}{
		{"allreduce-polling-400ms", 400 * sim.Millisecond},
		{"allreduce-polling-400s", 400 * sim.Second},
	}
	jobs := make([]runDesc, 0, len(pollCfgs))
	for _, pc := range pollCfgs {
		cfg := cluster.Vanilla(nodes, 16, o.BaseSeed)
		cfg.Noise = noise.QuietConfig()
		cfg.MPI.ProgressInterval = pc.interval
		jobs = append(jobs, runDesc{Label: "t4-" + pc.tag, Nodes: nodes, Seed: o.BaseSeed, Cfg: cfg})
	}
	outs, err := runJobs(o, jobs, false)
	if err != nil {
		return nil, err
	}
	for i, pc := range pollCfgs {
		t.AddRow(pc.tag, outs[i].mean, 2) // unit-key 2: mean us
		o.progress("t4 %s: mean=%.1fus", pc.tag, outs[i].mean)
	}
	t.AddNote("paper: raising MP_POLLING_INTERVAL to ~400s removed the progress-engine interference")
	t.AddNote("unit-key: 1 = %% per CPU over 60s; 2 = mean Allreduce us")
	return t, nil
}

// T5AllreduceFraction reproduces the §2 context claim (Dawson03/Hoisie03):
// for bulk-synchronous applications, Allreduce consumes about half of total
// time by ~1728 processors.
func T5AllreduceFraction(o Options) (*Table, error) {
	if err := o.validate(); err != nil {
		return nil, err
	}
	t := &Table{
		ID:    "T5",
		Title: "Allreduce share of BSP total time vs scale (vanilla kernel)",
		Cols: []Column{
			{Name: "procs"}, {Name: "share", Unit: "%"}, {Name: "wall", Unit: "s"},
		},
	}
	sweep := nodeSweep(o.MaxNodes)
	type bspOut struct {
		procs int
		share float64
		wall  sim.Time
	}
	jobs := make([]runDesc, len(sweep))
	for i, nodes := range sweep {
		seed := o.BaseSeed + int64(nodes)
		jobs[i] = runDesc{Label: "t5", Nodes: nodes, Seed: seed, Cfg: cluster.Vanilla(nodes, 16, seed)}
	}
	outs, errs := runEach(o, jobs, func(o Options, c *cluster.Cluster, j runDesc) (bspOut, error) {
		spec := workload.BSPSpec{
			Steps:             100,
			ComputeMean:       sim.Millisecond,
			ComputeJitter:     200 * sim.Microsecond,
			AllreducesPerStep: 1,
		}
		res, err := workload.RunBSP(c, spec, 30*sim.Minute)
		if err != nil {
			return bspOut{}, err
		}
		if !res.Completed {
			return bspOut{}, fmt.Errorf("experiment t5: %d-node run did not complete", j.Nodes)
		}
		o.progress("t5 nodes=%d share=%.1f%%", j.Nodes, res.CollectiveShare*100)
		return bspOut{procs: c.Procs(), share: res.CollectiveShare, wall: res.Wall}, nil
	})
	if err := firstErr(errs); err != nil {
		return nil, err
	}
	for _, r := range outs {
		t.AddRow("", float64(r.procs), r.share*100, r.wall.Seconds())
	}
	t.AddNote("paper context: Allreduces consume >50%% of total time at 1728 processors and >70%% at 4096 (ASCI White/Q measurements)")
	return t, nil
}
