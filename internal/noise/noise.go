// Package noise populates nodes with the operating-system interference the
// paper measures and then mitigates: the AIX daemon menagerie (syncd, mmfsd,
// hatsd, hats_nim, inetd, LoadL_startd, mld, hostmibd), the 15-minute
// administrative cron health check whose 600ms burst produced Figure 4's
// worst outlier, adapter interrupt handlers (caddpin, phxentdd), and page
// faults inflating daemon run times.
//
// Parameters are calibrated so a standard 16-way node's total OS overhead
// lands in the paper's measured 0.2%-1.1% per CPU band (ticks included).
package noise

import (
	"fmt"

	"coschedsim/internal/kernel"
	"coschedsim/internal/sim"
)

// DaemonSpec describes one periodic system daemon.
type DaemonSpec struct {
	Name     string
	Priority kernel.Priority
	// Period is the nominal sleep between activations; each activation is
	// jittered by ±PeriodJitter.
	Period       sim.Time
	PeriodJitter sim.Time
	// Burst is the CPU time consumed per activation, jittered by
	// ±BurstJitter.
	Burst       sim.Time
	BurstJitter sim.Time
	// PageFaultProb is the per-activation probability that the daemon takes
	// page faults adding PageFaultCost to its run time (the paper observed
	// daemon executions "often accompanied by page faults, increasing their
	// run time").
	PageFaultProb float64
	PageFaultCost sim.Time
}

// Validate reports an error for non-runnable specs.
func (d DaemonSpec) Validate() error {
	switch {
	case d.Name == "":
		return fmt.Errorf("noise: daemon with empty name")
	case d.Period <= 0:
		return fmt.Errorf("noise: daemon %s: period must be positive", d.Name)
	case d.Burst < 0 || d.BurstJitter < 0 || d.PeriodJitter < 0 || d.PageFaultCost < 0:
		return fmt.Errorf("noise: daemon %s: negative duration", d.Name)
	case d.PageFaultProb < 0 || d.PageFaultProb > 1:
		return fmt.Errorf("noise: daemon %s: bad page fault probability", d.Name)
	}
	return nil
}

// CronSpec describes the administrative cron job: every Period it consumes
// Burst of CPU at daemon priority — the paper traced one with over 600ms of
// wall clock on one CPU, run every 15 minutes.
type CronSpec struct {
	Period   sim.Time
	Burst    sim.Time
	Priority kernel.Priority
}

// InterruptSpec describes an adapter interrupt source: interrupts arrive on
// a random CPU with exponentially distributed gaps.
type InterruptSpec struct {
	Name        string
	MeanGap     sim.Time
	HandlerCost sim.Time
}

// Config selects the noise applied to every node.
type Config struct {
	Daemons    []DaemonSpec
	Cron       CronSpec // zero Period disables cron
	Interrupts []InterruptSpec

	// GapBatch, when > 1, pre-draws interrupt inter-arrival gaps (and the
	// target-CPU picks) in batches of this size. Every interrupt source
	// owns a counter-based stream keyed by (node, source index), and a
	// batch refill consumes it in exactly the per-arrival order, so
	// batched and unbatched runs sample bit-identical sequences — the
	// batch is purely an amortization of draw overhead.
	GapBatch int
}

// StandardDaemons is the AIX-flavored daemon set (see DESIGN.md §4).
// Priorities follow the paper: privileged daemons at 56, GPFS's mmfsd at 40,
// housekeeping daemons at 60 — all better than user processes at 90-120.
func StandardDaemons() []DaemonSpec {
	ms := sim.Millisecond
	return []DaemonSpec{
		{Name: "hatsd", Priority: 56, Period: sim.Second, PeriodJitter: 50 * ms, Burst: 8 * ms, BurstJitter: 2 * ms, PageFaultProb: 0.05, PageFaultCost: 2 * ms},
		{Name: "hats_nim", Priority: 56, Period: sim.Second, PeriodJitter: 50 * ms, Burst: 4 * ms, BurstJitter: ms, PageFaultProb: 0.05, PageFaultCost: ms},
		{Name: "mmfsd", Priority: kernel.PrioIODaemon, Period: 2 * sim.Second, PeriodJitter: 100 * ms, Burst: 10 * ms, BurstJitter: 3 * ms, PageFaultProb: 0.05, PageFaultCost: 2 * ms},
		{Name: "mld", Priority: 56, Period: 5 * sim.Second, PeriodJitter: 200 * ms, Burst: 6 * ms, BurstJitter: 2 * ms},
		{Name: "syncd", Priority: 60, Period: 60 * sim.Second, PeriodJitter: sim.Second, Burst: 120 * ms, BurstJitter: 30 * ms, PageFaultProb: 0.2, PageFaultCost: 10 * ms},
		{Name: "LoadL_startd", Priority: 56, Period: 30 * sim.Second, PeriodJitter: sim.Second, Burst: 80 * ms, BurstJitter: 20 * ms, PageFaultProb: 0.1, PageFaultCost: 5 * ms},
		{Name: "inetd", Priority: 60, Period: 10 * sim.Second, PeriodJitter: 500 * ms, Burst: 3 * ms, BurstJitter: ms},
		{Name: "hostmibd", Priority: 60, Period: 30 * sim.Second, PeriodJitter: sim.Second, Burst: 20 * ms, BurstJitter: 5 * ms},
	}
}

// StandardInterrupts models the switch and disk adapter handlers the paper
// names (caddpin, phxentdd).
func StandardInterrupts() []InterruptSpec {
	return []InterruptSpec{
		{Name: "phxentdd", MeanGap: 250 * sim.Millisecond, HandlerCost: 40 * sim.Microsecond},
		{Name: "caddpin", MeanGap: 500 * sim.Millisecond, HandlerCost: 60 * sim.Microsecond},
	}
}

// StandardConfig is the full standard noise profile, including the
// 15-minute 600ms cron health check.
func StandardConfig() Config {
	return Config{
		Daemons:    StandardDaemons(),
		Cron:       CronSpec{Period: 15 * sim.Minute, Burst: 600 * sim.Millisecond, Priority: 56},
		Interrupts: StandardInterrupts(),
	}
}

// HeavyConfig roughly triples daemon load, representing the top of the
// paper's 0.2-1.1% band.
func HeavyConfig() Config {
	c := StandardConfig()
	for i := range c.Daemons {
		c.Daemons[i].Burst *= 3
		c.Daemons[i].BurstJitter *= 3
	}
	return c
}

// QuietConfig disables all daemon/cron/interrupt noise (the "baseline"
// dedicated-system configuration, leaving only ticks and MPI-internal
// interference).
func QuietConfig() Config { return Config{} }

// Set is the live noise attached to one node. Every daemon, the cron job
// and every interrupt source draws from its own counter-based stream keyed
// by (node, source identity), so a source's sampled sequence is a pure
// function of who it is — independent of how the node's other sources
// interleave, and therefore identical under serial and sharded engines.
type Set struct {
	node    *kernel.Node
	threads []*kernel.Thread
	cron    *kernel.Thread
	// CronFirings counts cron activations, for outlier forensics.
	CronFirings int
	stopped     bool

	// Respawn support (fault injection): the original specs, the current
	// thread per daemon index, and a per-daemon generation counter keying
	// each respawned incarnation's RNG stream.
	specs   []DaemonSpec
	daemons []*kernel.Thread
	gens    []int

	// Mutable random-stream and interrupt-source state: one draw stream
	// per daemon incarnation and the interrupt sources' batch cursors.
	rngs []*sim.CounterRand
	irqs []*irqSource
}

// Attach launches the configured daemons, cron job and interrupt sources on
// the node. Daemon home CPUs are assigned round-robin (the kernel ignores
// them under QueueDaemonsGlobal). Each daemon starts at a random phase of
// its period so nodes are uncorrelated, as in real life.
func Attach(n *kernel.Node, cfg Config) (*Set, error) {
	s := &Set{node: n}
	s.specs = append(s.specs, cfg.Daemons...)
	s.daemons = make([]*kernel.Thread, len(cfg.Daemons))
	s.gens = make([]int, len(cfg.Daemons))
	for i, spec := range cfg.Daemons {
		if err := spec.Validate(); err != nil {
			return nil, err
		}
		s.daemons[i] = s.launchDaemon(spec, i, 0, i%n.NumCPUs())
	}
	if cfg.Cron.Period > 0 {
		s.launchCron(cfg.Cron)
	}
	for i, irq := range cfg.Interrupts {
		if irq.MeanGap <= 0 {
			return nil, fmt.Errorf("noise: interrupt %s: non-positive mean gap", irq.Name)
		}
		s.launchInterrupts(irq, i, cfg.GapBatch)
	}
	return s, nil
}

// MustAttach is Attach for known-valid configurations.
func MustAttach(n *kernel.Node, cfg Config) *Set {
	s, err := Attach(n, cfg)
	if err != nil {
		panic(err)
	}
	return s
}

func (s *Set) launchDaemon(spec DaemonSpec, idx, gen, homeCPU int) *kernel.Thread {
	th := s.node.NewDaemon(spec.Name, spec.Priority, homeCPU)
	s.threads = append(s.threads, th)
	// One counter stream per (node, daemon): draws depend only on the
	// daemon's identity and its own cycle count. Respawned incarnations
	// (gen > 0) get their own stream so a restart never replays or shifts
	// the original sequence; gen 0 keeps the historical key so fault-free
	// runs stay bit-identical.
	rng := new(sim.CounterRand)
	if gen == 0 {
		*rng = s.node.Engine().CounterRand("noise-daemon", uint64(s.node.ID()), uint64(idx))
	} else {
		*rng = s.node.Engine().CounterRand("noise-daemon-r", uint64(s.node.ID()), uint64(idx), uint64(gen))
	}
	s.rngs = append(s.rngs, rng)
	var cycle func()
	cycle = func() {
		if s.stopped {
			th.Exit()
			return
		}
		burst := rng.Jitter(spec.Burst, spec.BurstJitter)
		if spec.PageFaultProb > 0 && rng.Float64() < spec.PageFaultProb {
			burst += spec.PageFaultCost
		}
		th.Run(burst, func() {
			th.Sleep(rng.Jitter(spec.Period, spec.PeriodJitter), cycle)
		})
	}
	// Random initial phase within one period.
	phase := rng.Duration(spec.Period)
	th.Start(func() { th.Sleep(phase, cycle) })
	return th
}

// DaemonCount returns how many periodic daemons the set launched.
func (s *Set) DaemonCount() int { return len(s.daemons) }

// DaemonThread returns the current incarnation of daemon idx (nil if idx is
// out of range). Fault injection kills these to model daemon stalls.
func (s *Set) DaemonThread(idx int) *kernel.Thread {
	if idx < 0 || idx >= len(s.daemons) {
		return nil
	}
	return s.daemons[idx]
}

// Respawn relaunches daemon idx after it was killed (a kernel.Supervisor
// respawn callback). Returns the new thread, or nil when the set is stopped,
// idx is out of range, or the current incarnation is still alive.
func (s *Set) Respawn(idx int) *kernel.Thread {
	if s.stopped || idx < 0 || idx >= len(s.daemons) {
		return nil
	}
	if cur := s.daemons[idx]; cur != nil && cur.State() != kernel.StateExited {
		return nil
	}
	s.gens[idx]++
	th := s.launchDaemon(s.specs[idx], idx, s.gens[idx], idx%s.node.NumCPUs())
	s.daemons[idx] = th
	return th
}

func (s *Set) launchCron(spec CronSpec) {
	// The cron job lands on a random CPU each node; its components run as
	// one long privileged burst, which is what blocked a single MPI task
	// per node in the paper's worst outlier.
	rng := s.node.Engine().CounterRand("noise-cron", uint64(s.node.ID()))
	th := s.node.NewDaemon("cron", spec.Priority, rng.Intn(s.node.NumCPUs()))
	s.cron = th
	s.threads = append(s.threads, th)
	var cycle func()
	cycle = func() {
		if s.stopped {
			th.Exit()
			return
		}
		s.CronFirings++
		th.Run(spec.Burst, func() {
			th.Sleep(spec.Period, cycle)
		})
	}
	phase := rng.Duration(spec.Period)
	th.Start(func() { th.Sleep(phase, cycle) })
}

// irqSource drives one adapter interrupt stream as a single recurring
// engine event re-armed in place. Every arrival draws its gap and then its
// target CPU from the source's own counter stream; a batch refill consumes
// the stream in that same interleaved order, so batched and unbatched
// execution sample identical sequences (see Config.GapBatch).
type irqSource struct {
	set   *Set
	spec  InterruptSpec
	batch int
	rng   sim.CounterRand
	gaps  []sim.Time
	cpus  []int
	idx   int
}

func (q *irqSource) refill() {
	q.gaps = q.gaps[:0]
	q.cpus = q.cpus[:0]
	ncpu := q.set.node.NumCPUs()
	for i := 0; i < q.batch; i++ {
		// Interleaved gap,cpu draws per arrival — the unbatched order.
		q.gaps = append(q.gaps, q.rng.Exp(q.spec.MeanGap))
		q.cpus = append(q.cpus, q.rng.Intn(ncpu))
	}
	q.idx = 0
}

// nextGap returns the next inter-arrival gap, guarded away from zero so the
// event horizon always advances.
func (q *irqSource) nextGap() sim.Time {
	var gap sim.Time
	if q.batch > 1 {
		if q.idx >= len(q.gaps) {
			q.refill()
		}
		gap = q.gaps[q.idx]
	} else {
		gap = q.rng.Exp(q.spec.MeanGap)
	}
	if gap <= 0 {
		gap = sim.Microsecond
	}
	return gap
}

// nextCPU returns the arrival's target CPU, paired with the gap drawn for
// the same arrival in batch mode.
func (q *irqSource) nextCPU() int {
	if q.batch > 1 {
		cpu := q.cpus[q.idx]
		q.idx++
		return cpu
	}
	return q.rng.Intn(q.set.node.NumCPUs())
}

func (s *Set) launchInterrupts(spec InterruptSpec, idx, batch int) {
	eng := s.node.Engine()
	src := &irqSource{set: s, spec: spec, batch: batch,
		rng: eng.CounterRand("noise-irq", uint64(s.node.ID()), uint64(idx))}
	s.irqs = append(s.irqs, src)
	if batch > 1 {
		src.refill()
	}
	eng.Recur(eng.Now()+src.nextGap(), spec.Name, func() sim.Time {
		if s.stopped {
			return sim.RecurStop
		}
		s.node.InjectInterrupt(src.nextCPU(), spec.HandlerCost)
		return eng.Now() + src.nextGap()
	})
}

// Stop halts all noise immediately: daemon threads are killed in whatever
// state they are in and interrupt sources disarm at their next firing.
func (s *Set) Stop() {
	s.stopped = true
	for _, th := range s.threads {
		if th.State() != kernel.StateExited {
			th.Kill()
		}
	}
}

// Threads returns the daemon threads (for the co-scheduler's background
// profile and for tests).
func (s *Set) Threads() []*kernel.Thread { return s.threads }

// DaemonCPUTime sums CPU time consumed by this set's daemon threads.
func (s *Set) DaemonCPUTime() sim.Time {
	var total sim.Time
	for _, th := range s.threads {
		total += th.Stats().CPUTime
	}
	return total
}

// Report summarizes measured OS overhead on a node over an elapsed window.
type Report struct {
	Elapsed        sim.Time
	DaemonCPU      sim.Time // daemon thread work
	TickCPU        sim.Time // tick handler time (incl. idle CPUs)
	InterruptCPU   sim.Time // injected adapter interrupt time
	PerCPUFraction float64  // total overhead / (ncpu * elapsed)
}

// Measure computes the per-CPU overhead fraction the paper reports
// ("0.2% to 1.1% of each CPU").
func (s *Set) Measure(elapsed sim.Time) Report {
	ns := s.node.Stats()
	r := Report{
		Elapsed:      elapsed,
		DaemonCPU:    s.DaemonCPUTime(),
		TickCPU:      ns.TickSteal + ns.IdleTickSteal,
		InterruptCPU: ns.ExtSteal,
	}
	if elapsed > 0 {
		total := r.DaemonCPU + r.TickCPU + r.InterruptCPU
		r.PerCPUFraction = float64(total) / (float64(s.node.NumCPUs()) * float64(elapsed))
	}
	return r
}
