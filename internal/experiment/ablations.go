package experiment

import (
	"fmt"

	"coschedsim/internal/cluster"
	"coschedsim/internal/cosched"
	"coschedsim/internal/sim"
	"coschedsim/internal/workload"
)

// ablationNodes picks a fixed mid-size cluster for design-choice sweeps.
func ablationNodes(o Options) int {
	n := o.MaxNodes
	if n > 16 {
		n = 16
	}
	if n < 2 {
		n = 2
	}
	return n
}

// AblationBigTick sweeps the big-tick multiplier on the otherwise-complete
// prototype configuration (the paper generally chose 25).
func AblationBigTick(o Options) (*Table, error) {
	if err := o.validate(); err != nil {
		return nil, err
	}
	nodes := ablationNodes(o)
	t := &Table{
		ID:    "ABL1",
		Title: fmt.Sprintf("Big-tick multiplier sweep, %d procs, prototype+cosched", nodes*16),
		Cols: []Column{
			{Name: "bigtick"}, {Name: "tick", Unit: "ms"}, {Name: "mean", Unit: "us"}, {Name: "stddev", Unit: "us"},
		},
	}
	bigTicks := []int{1, 5, 10, 25, 50, 100}
	variants := make([]variantSpec, 0, len(bigTicks))
	for _, bt := range bigTicks {
		bt := bt
		variants = append(variants, variantSpec{fmt.Sprintf("bt=%d", bt), func(seed int64) cluster.Config {
			cfg := cluster.Prototype(nodes, 16, seed)
			cfg.Kernel.BigTick = bt
			return cfg
		}})
	}
	ms, err := runVariantMeans(o, "abl-bigtick", nodes, variants)
	if err != nil {
		return nil, err
	}
	for i, bt := range bigTicks {
		t.AddRow("", float64(bt), float64(bt)*10, ms[i].mean, ms[i].stddev)
		o.progress("abl-bigtick bt=%d mean=%.1fus", bt, ms[i].mean)
	}
	t.AddNote("paper: 'we generally chose a big tick constant value of 25' (250ms)")
	return t, nil
}

// AblationDutyCycle sweeps the co-scheduler window geometry (the paper: a
// period of about 5-10s at 90-95%% duty 'seems to work pretty well').
func AblationDutyCycle(o Options) (*Table, error) {
	if err := o.validate(); err != nil {
		return nil, err
	}
	nodes := ablationNodes(o)
	t := &Table{
		ID:    "ABL2",
		Title: fmt.Sprintf("Co-scheduler period x duty sweep, %d procs", nodes*16),
		Cols: []Column{
			{Name: "period", Unit: "s"}, {Name: "duty", Unit: "%"}, {Name: "mean", Unit: "us"}, {Name: "stddev", Unit: "us"},
		},
	}
	type geom struct {
		period sim.Time
		duty   float64
	}
	var geoms []geom
	var variants []variantSpec
	for _, period := range []sim.Time{1 * sim.Second, 5 * sim.Second, 10 * sim.Second} {
		for _, duty := range []float64{0.5, 0.8, 0.9, 0.95} {
			period, duty := period, duty
			geoms = append(geoms, geom{period, duty})
			variants = append(variants, variantSpec{
				fmt.Sprintf("period=%v duty=%.0f%%", period, duty*100),
				func(seed int64) cluster.Config {
					cfg := cluster.Prototype(nodes, 16, seed)
					params := cosched.DefaultParams()
					params.Period = period
					params.Duty = duty
					cfg.Cosched = &params
					return cfg
				}})
		}
	}
	ms, err := runVariantMeans(o, "abl-duty", nodes, variants)
	if err != nil {
		return nil, err
	}
	for i, g := range geoms {
		t.AddRow("", g.period.Seconds(), g.duty*100, ms[i].mean, ms[i].stddev)
		o.progress("abl-duty period=%v duty=%.0f%% mean=%.1fus", g.period, g.duty*100, ms[i].mean)
	}
	t.AddNote("paper: ~10s period at 90-95%% duty works well; 100%% duty can require a reboot (refused by Params.Validate)")
	return t, nil
}

// AblationIPI isolates the forced-preemption features: lazy preemption, the
// pre-existing real-time IPI, and the paper's two improvements (reverse
// preemption, multiple in-flight IPIs).
func AblationIPI(o Options) (*Table, error) {
	if err := o.validate(); err != nil {
		return nil, err
	}
	nodes := ablationNodes(o)
	t := &Table{
		ID:    "ABL3",
		Title: fmt.Sprintf("Forced-preemption feature matrix, %d procs, prototype+cosched", nodes*16),
		Cols: []Column{
			{Name: "mean", Unit: "us"}, {Name: "stddev", Unit: "us"},
		},
	}
	type variant struct {
		tag                string
		rt, reverse, multi bool
	}
	vs := []variant{
		{"lazy (tick-notice only)", false, false, false},
		{"rt-ipi", true, false, false},
		{"rt-ipi+reverse", true, true, false},
		{"rt-ipi+reverse+multi", true, true, true},
	}
	variants := make([]variantSpec, 0, len(vs))
	for _, v := range vs {
		v := v
		variants = append(variants, variantSpec{v.tag, func(seed int64) cluster.Config {
			cfg := cluster.Prototype(nodes, 16, seed)
			cfg.Kernel.RealTimeIPI = v.rt
			cfg.Kernel.ReversePreemptIPI = v.reverse
			cfg.Kernel.MultiIPI = v.multi
			return cfg
		}})
	}
	ms, err := runVariantMeans(o, "abl-ipi", nodes, variants)
	if err != nil {
		return nil, err
	}
	for i, v := range vs {
		t.AddRow(v.tag, ms[i].mean, ms[i].stddev)
		o.progress("abl-ipi %s mean=%.1fus", v.tag, ms[i].mean)
	}
	t.AddNote("paper: rapid pre-emptions and reverse pre-emptions across processors are 'a major building block' of the approach")
	return t, nil
}

// AblationClockSync sweeps the cluster clock error: the switch's global
// clock versus local clocks skewed up to several hundred ms, which
// misaligns the co-scheduler windows across nodes.
func AblationClockSync(o Options) (*Table, error) {
	if err := o.validate(); err != nil {
		return nil, err
	}
	nodes := ablationNodes(o)
	t := &Table{
		ID:    "ABL4",
		Title: fmt.Sprintf("Clock synchronization error sweep, %d procs, prototype+cosched", nodes*16),
		Cols: []Column{
			{Name: "skew", Unit: "ms"}, {Name: "mean", Unit: "us"}, {Name: "stddev", Unit: "us"},
		},
	}
	skews := []sim.Time{0, 100 * sim.Millisecond, 500 * sim.Millisecond,
		1500 * sim.Millisecond, 3 * sim.Second}
	variants := make([]variantSpec, 0, len(skews))
	for _, skew := range skews {
		skew := skew
		variants = append(variants, variantSpec{fmt.Sprintf("skew=%v", skew), func(seed int64) cluster.Config {
			cfg := cluster.Prototype(nodes, 16, seed)
			if skew > 0 {
				cfg.SyncClocks = false
				cfg.ClockSkew = skew
			}
			return cfg
		}})
	}
	ms, err := runVariantMeans(o, "abl-clock", nodes, variants)
	if err != nil {
		return nil, err
	}
	for i, skew := range skews {
		t.AddRow("", skew.Millis(), ms[i].mean, ms[i].stddev)
		o.progress("abl-clock skew=%v mean=%.1fus", skew, ms[i].mean)
	}
	t.AddNote("paper: the switch clock lets all favored windows align cluster-wide with no inter-node communication")
	return t, nil
}

// AblationTickAlignment compares AIX's staggered tick design against the
// prototype's simultaneous ticks.
func AblationTickAlignment(o Options) (*Table, error) {
	if err := o.validate(); err != nil {
		return nil, err
	}
	nodes := ablationNodes(o)
	t := &Table{
		ID:    "ABL5",
		Title: fmt.Sprintf("Staggered vs aligned tick interrupts, %d procs", nodes*16),
		Cols: []Column{
			{Name: "mean", Unit: "us"}, {Name: "stddev", Unit: "us"},
		},
	}
	vs := []struct {
		tag     string
		aligned bool
		bigTick int
	}{
		{"staggered-10ms", false, 1},
		{"aligned-10ms", true, 1},
		{"staggered-250ms", false, 25},
		{"aligned-250ms", true, 25},
	}
	variants := make([]variantSpec, 0, len(vs))
	for _, v := range vs {
		v := v
		variants = append(variants, variantSpec{v.tag, func(seed int64) cluster.Config {
			cfg := cluster.Prototype(nodes, 16, seed)
			cfg.Kernel.AlignTicks = v.aligned
			cfg.Kernel.BigTick = v.bigTick
			return cfg
		}})
	}
	ms, err := runVariantMeans(o, "abl-ticks", nodes, variants)
	if err != nil {
		return nil, err
	}
	for i, v := range vs {
		t.AddRow(v.tag, ms[i].mean, ms[i].stddev)
		o.progress("abl-ticks %s mean=%.1fus", v.tag, ms[i].mean)
	}
	t.AddNote("paper §3.2.1: simultaneous ticks trade a little lock efficiency for overlap of the tick handling")
	return t, nil
}

// AblationFineGrainHints evaluates the paper's §7 future-work proposal: a
// BSP application that announces its synchronized reduction phases to the
// co-scheduler, which then defers the favored-window flip (within a budget)
// so collectives are not deprioritized mid-flight. Compared against the
// identical run without hints.
func AblationFineGrainHints(o Options) (*Table, error) {
	if err := o.validate(); err != nil {
		return nil, err
	}
	nodes := ablationNodes(o)
	t := &Table{
		ID:    "ABL6",
		Title: fmt.Sprintf("Fine-grain region hints (paper §7 future work), %d procs", nodes*16),
		Cols: []Column{
			{Name: "steps/s"}, {Name: "coll-share", Unit: "%"}, {Name: "extension", Unit: "ms"},
		},
	}
	scens := []struct {
		tag   string
		hints bool
	}{
		{"no-hints", false},
		{"hints", true},
	}
	jobs := make([]runDesc, len(scens))
	for i, sc := range scens {
		cfg := cluster.Prototype(nodes, 16, o.BaseSeed)
		params := cosched.HintAwareParams()
		params.Period = sim.Second
		params.Duty = 0.80
		params.MaxFineGrainExtension = 100 * sim.Millisecond
		if !sc.hints {
			params.MaxFineGrainExtension = 0
		}
		cfg.Cosched = &params
		jobs[i] = runDesc{Label: "abl-hints/" + sc.tag, Nodes: nodes, Seed: o.BaseSeed, Cfg: cfg}
	}
	type hintOut struct {
		stepsPerSec float64
		collShare   float64
		extension   sim.Time
	}
	outs, errs := runEach(o, jobs, func(o Options, c *cluster.Cluster, j runDesc) (hintOut, error) {
		spec := workload.BSPSpec{
			Steps:             400,
			ComputeMean:       20 * sim.Millisecond,
			ComputeJitter:     2 * sim.Millisecond,
			AllreducesPerStep: 4,
			// The no-hints run is the one without an extension budget.
			FineGrainHints: c.Config.Cosched.MaxFineGrainExtension > 0,
		}
		res, err := workload.RunBSP(c, spec, 30*sim.Minute)
		if err != nil {
			return hintOut{}, err
		}
		if !res.Completed {
			return hintOut{}, fmt.Errorf("experiment %s: run did not complete", j.Label)
		}
		var ext sim.Time
		for _, n := range c.Nodes {
			ext += c.Sched.Extensions(n)
		}
		steps := float64(spec.Steps) / res.Wall.Seconds()
		o.progress("%s: %.1f steps/s ext=%v", j.Label, steps, ext)
		return hintOut{stepsPerSec: steps, collShare: res.CollectiveShare, extension: ext}, nil
	})
	if err := firstErr(errs); err != nil {
		return nil, err
	}
	for i, sc := range scens {
		t.AddRow(sc.tag, outs[i].stepsPerSec, outs[i].collShare*100, outs[i].extension.Millis())
	}
	t.AddNote("paper §7: 'providing a mechanism for parallel applications to establish when they are entering and exiting fine-grain regions may be beneficial'")
	return t, nil
}

// AblationHardwareCollectives evaluates the paper's second §7 proposal:
// switch-offloaded ("hardware assisted") Allreduce, alone and combined with
// the co-scheduled prototype. Offload removes the 2*log2(N) software
// scheduling points per call, so it attacks the same noise-sensitivity from
// the other side; the paper suggests the techniques are complementary.
func AblationHardwareCollectives(o Options) (*Table, error) {
	if err := o.validate(); err != nil {
		return nil, err
	}
	nodes := ablationNodes(o)
	t := &Table{
		ID:    "ABL7",
		Title: fmt.Sprintf("Hardware-assisted collectives (paper §7 future work), %d procs", nodes*16),
		Cols: []Column{
			{Name: "mean", Unit: "us"}, {Name: "stddev", Unit: "us"},
		},
	}
	vs := []struct {
		tag       string
		prototype bool
		hw        bool
	}{
		{"vanilla-swtree", false, false},
		{"vanilla-hwcoll", false, true},
		{"prototype-swtree", true, false},
		{"prototype-hwcoll", true, true},
	}
	variants := make([]variantSpec, 0, len(vs))
	for _, v := range vs {
		v := v
		variants = append(variants, variantSpec{v.tag, func(seed int64) cluster.Config {
			cfg := cluster.Vanilla(nodes, 16, seed)
			if v.prototype {
				cfg = cluster.Prototype(nodes, 16, seed)
			}
			if v.hw {
				cfg.MPI.HardwareCollectives = true
				cfg.MPI.HWCollectiveLatency = 25 * sim.Microsecond
			}
			return cfg
		}})
	}
	ms, err := runVariantMeans(o, "abl-hwcoll", nodes, variants)
	if err != nil {
		return nil, err
	}
	for i, v := range vs {
		t.AddRow(v.tag, ms[i].mean, ms[i].stddev)
		o.progress("abl-hwcoll %s mean=%.1fus", v.tag, ms[i].mean)
	}
	t.AddNote("paper §7: combining parallel-aware scheduling with hardware assisted collectives is named as a promising direction")
	return t, nil
}

// AblationGangScheduler operationalizes the paper's §6 argument against
// related-work category 1: a gang scheduler time-slices whole jobs on
// coarse quanta (NQS default: 10 minutes) but leaves the job at ordinary
// user priority within its quantum, so fine-grain OS interference is
// untouched. Compared against vanilla (no scheduler) and the paper's
// dedicated-job co-scheduler.
func AblationGangScheduler(o Options) (*Table, error) {
	if err := o.validate(); err != nil {
		return nil, err
	}
	nodes := ablationNodes(o)
	t := &Table{
		ID:    "ABL8",
		Title: fmt.Sprintf("Gang scheduler vs dedicated-job co-scheduler, %d procs", nodes*16),
		Cols: []Column{
			{Name: "mean", Unit: "us"}, {Name: "stddev", Unit: "us"},
		},
	}
	variants := []variantSpec{
		{"vanilla", func(seed int64) cluster.Config {
			return cluster.Vanilla(nodes, 16, seed)
		}},
		{"gang-scheduler", func(seed int64) cluster.Config {
			cfg := cluster.Vanilla(nodes, 16, seed)
			params := cosched.GangParams()
			cfg.Cosched = &params
			cfg.SyncClocks = true
			return cfg
		}},
		{"dedicated-cosched", func(seed int64) cluster.Config {
			return cluster.Prototype(nodes, 16, seed)
		}},
	}
	ms, err := runVariantMeans(o, "abl-gang", nodes, variants)
	if err != nil {
		return nil, err
	}
	for i, v := range variants {
		t.AddRow(v.tag, ms[i].mean, ms[i].stddev)
		o.progress("abl-gang %s mean=%.1fus", v.tag, ms[i].mean)
	}
	t.AddNote("paper §6: 'Due to their time quanta, the Gang-schedulers of category 1 are not able to address context switch interference'")
	return t, nil
}

// AblationNetworkJitter sweeps switch-transit jitter on the vanilla and
// prototype kernels. The paper treats the SP switch as essentially
// deterministic and pins all variability on the OS; this ablation checks how
// much fabric-side variance it would take to drown the co-scheduling win.
// Jitter draws are counter-keyed per (src, dst, message), so this sweep runs
// sharded under ShardWorkers like every other ablation.
func AblationNetworkJitter(o Options) (*Table, error) {
	if err := o.validate(); err != nil {
		return nil, err
	}
	nodes := ablationNodes(o)
	t := &Table{
		ID:    "ABL10",
		Title: fmt.Sprintf("Network-jitter sweep, %d procs, vanilla vs prototype", nodes*16),
		Cols: []Column{
			{Name: "jitter", Unit: "us"}, {Name: "van-mean", Unit: "us"}, {Name: "van-sd", Unit: "us"},
			{Name: "proto-mean", Unit: "us"}, {Name: "proto-sd", Unit: "us"},
		},
	}
	jitters := []sim.Time{0, sim.Microsecond, 5 * sim.Microsecond, 20 * sim.Microsecond}
	variants := make([]variantSpec, 0, 2*len(jitters))
	for _, j := range jitters {
		j := j
		variants = append(variants,
			variantSpec{fmt.Sprintf("vanilla j=%v", j), func(seed int64) cluster.Config {
				cfg := cluster.Vanilla(nodes, 16, seed)
				cfg.Network.Jitter = j
				return cfg
			}},
			variantSpec{fmt.Sprintf("prototype j=%v", j), func(seed int64) cluster.Config {
				cfg := cluster.Prototype(nodes, 16, seed)
				cfg.Network.Jitter = j
				return cfg
			}})
	}
	ms, err := runVariantMeans(o, "abl-jitter", nodes, variants)
	if err != nil {
		return nil, err
	}
	for i, j := range jitters {
		van, proto := ms[2*i], ms[2*i+1]
		t.AddRow("", j.Micros(), van.mean, van.stddev, proto.mean, proto.stddev)
		o.progress("abl-jitter j=%v vanilla=%.1fus prototype=%.1fus", j, van.mean, proto.mean)
	}
	t.AddNote("paper: the SP switch itself is treated as deterministic; OS noise, not fabric jitter, drives Allreduce variability")
	return t, nil
}

// AblationFairShare operationalizes the paper's distinction from
// related-work category 3: fair-share scheduling (AIX usage decay)
// optimizes machine-wide fairness, not the parallel job's turnaround. The
// benchmark's tasks degrade with their own CPU consumption and end up even
// easier for daemons to interrupt — decay does not address fine-grain
// collective interference.
func AblationFairShare(o Options) (*Table, error) {
	if err := o.validate(); err != nil {
		return nil, err
	}
	nodes := ablationNodes(o)
	t := &Table{
		ID:    "ABL9",
		Title: fmt.Sprintf("Fair-share (usage decay) vs static priorities, %d procs, vanilla kernel", nodes*16),
		Cols: []Column{
			{Name: "mean", Unit: "us"}, {Name: "stddev", Unit: "us"},
		},
	}
	vs := []struct {
		tag   string
		decay bool
	}{
		{"static-priorities", false},
		{"fair-share-decay", true},
	}
	variants := make([]variantSpec, 0, len(vs))
	for _, v := range vs {
		v := v
		variants = append(variants, variantSpec{v.tag, func(seed int64) cluster.Config {
			cfg := cluster.Vanilla(nodes, 16, seed)
			cfg.Kernel.UsageDecay = v.decay
			return cfg
		}})
	}
	ms, err := runVariantMeans(o, "abl-fairshare", nodes, variants)
	if err != nil {
		return nil, err
	}
	for i, v := range vs {
		t.AddRow(v.tag, ms[i].mean, ms[i].stddev)
		o.progress("abl-fairshare %s mean=%.1fus", v.tag, ms[i].mean)
	}
	t.AddNote("paper §6: fair-share co-schedulers 'seek to optimize the overall efficiency of the machine' — a different goal from dedicated-job turnaround; decay leaves collective interference in place")
	return t, nil
}
