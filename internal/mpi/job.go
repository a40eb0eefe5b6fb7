// Package mpi models the IBM MPI runtime the paper's benchmark exercises:
// SPMD jobs of one task per processor, point-to-point messaging with
// tag/source matching over the switch fabric, tree/recursive-doubling
// collectives (Allreduce, Barrier, Allgather, ring exchange), the
// progress-engine "MPI timer threads" whose 400ms wakeups disrupt tightly
// synchronized collectives, and the control-pipe registration/attach/detach
// protocol the co-scheduler uses to learn task PIDs.
//
// Task programs are written in the kernel package's continuation-passing
// style; every communication primitive takes the continuation to run when it
// completes. Collectives carry real float64 payloads so tests can verify
// numerical correctness, not just timing.
package mpi

import (
	"fmt"
	"sync/atomic"

	"coschedsim/internal/kernel"
	"coschedsim/internal/network"
	"coschedsim/internal/sim"
)

// Config parameterizes the MPI runtime's cost model and progress engine.
type Config struct {
	// SendOverhead is CPU time consumed posting a message.
	SendOverhead sim.Time
	// RecvOverhead is CPU time consumed completing a matched receive.
	RecvOverhead sim.Time
	// ReduceCost is CPU time for combining one pair of operands per
	// reduction round.
	ReduceCost sim.Time
	// ElemBytes is the payload size of one reduction element (MPI_DOUBLE).
	ElemBytes int

	// ProgressEnabled starts one progress-engine timer thread per task
	// (IBM MPI's default behaviour).
	ProgressEnabled bool
	// ProgressInterval is the timer thread period — the MP_POLLING_INTERVAL
	// environment variable; IBM's default is 400ms. The paper's fix is to
	// set it to ~400 seconds.
	ProgressInterval sim.Time
	// ProgressBurst is the CPU consumed per timer-thread activation.
	ProgressBurst sim.Time

	// TaskPriority is the initial dispatch priority of task and progress
	// threads (user processes; the co-scheduler re-prioritizes them).
	TaskPriority kernel.Priority

	// WaitMode selects how a task waits for an unmatched receive.
	WaitMode WaitMode

	// LongVectorBytes is the payload size at which AllreduceVec switches
	// from recursive doubling to Rabenseifner's reduce-scatter/allgather
	// algorithm (MPI implementations switch around a few KB).
	LongVectorBytes int

	// HardwareCollectives offloads Allreduce to the switch's combine engine
	// (the paper's §7 "hardware assisted collectives"): one send and one
	// wait per task instead of a 2*log2(N)-message software tree.
	HardwareCollectives bool
	// HWCollectiveLatency is the fixed in-fabric combine latency.
	HWCollectiveLatency sim.Time

	// SendTimeout is how long a sender waits before retransmitting a
	// message it believes lost (fault injection tells the model which sends
	// are dropped, so the timeout is charged as retransmit delay rather
	// than discovered by acknowledgment traffic). Subsequent attempts back
	// off exponentially: timeout, 2*timeout, 4*timeout, ...
	SendTimeout sim.Time
	// SendRetries bounds retransmit attempts per message. Zero means a
	// single attempt: any drop is immediately fatal to the job (the
	// abort-on-loss policy). When the budget is exhausted the job aborts
	// collectively after the fault model's detection latency.
	SendRetries int
}

// WaitMode is the MP_WAIT_MODE equivalent.
type WaitMode uint8

const (
	// WaitPoll busy-waits, burning the CPU until the message arrives —
	// IBM MPI's default, and the reason MPI tasks hold their processors
	// even while "waiting".
	WaitPoll WaitMode = iota
	// WaitBlock sleeps the task, freeing the CPU (interrupt mode).
	WaitBlock
)

// DefaultConfig is calibrated per DESIGN.md §4.
func DefaultConfig() Config {
	return Config{
		SendOverhead:     3 * sim.Microsecond,
		RecvOverhead:     3 * sim.Microsecond,
		ReduceCost:       1 * sim.Microsecond,
		ElemBytes:        8,
		ProgressEnabled:  true,
		ProgressInterval: 400 * sim.Millisecond,
		ProgressBurst:    350 * sim.Microsecond,
		TaskPriority:     kernel.PrioUserNormal,
		WaitMode:         WaitPoll,
		LongVectorBytes:  4096,
	}
}

// Validate reports an error for unusable configurations.
func (c Config) Validate() error {
	switch {
	case c.SendOverhead < 0 || c.RecvOverhead < 0 || c.ReduceCost < 0:
		return fmt.Errorf("mpi: negative overheads in %+v", c)
	case c.ElemBytes < 0:
		return fmt.Errorf("mpi: negative element size")
	case c.ProgressEnabled && c.ProgressInterval <= 0:
		return fmt.Errorf("mpi: progress enabled with non-positive interval")
	case c.ProgressEnabled && c.ProgressBurst < 0:
		return fmt.Errorf("mpi: negative progress burst")
	case c.HardwareCollectives && c.HWCollectiveLatency <= 0:
		return fmt.Errorf("mpi: hardware collectives need a positive combine latency")
	case c.LongVectorBytes < 0:
		return fmt.Errorf("mpi: negative long-vector threshold")
	case c.SendRetries < 0:
		return fmt.Errorf("mpi: negative send retries")
	case c.SendRetries > 16:
		return fmt.Errorf("mpi: send retries %d > 16 (exponential backoff would overflow any horizon)", c.SendRetries)
	case c.SendRetries > 0 && c.SendTimeout <= 0:
		return fmt.Errorf("mpi: send retries need a positive send timeout")
	case c.SendTimeout < 0:
		return fmt.Errorf("mpi: negative send timeout")
	}
	return nil
}

// Registry is the co-scheduler's side of the control pipe: the MPI library
// reports each task's process as it initializes, and forwards attach/detach
// requests. A nil Registry runs the job without co-scheduling.
type Registry interface {
	// RegisterProcess announces a task process (task thread + auxiliary
	// threads) on a node.
	RegisterProcess(node *kernel.Node, proc int, threads []*kernel.Thread)
	// DetachProcess asks that the process revert to normal priority
	// (the escape mechanism for I/O phases).
	DetachProcess(node *kernel.Node, proc int)
	// AttachProcess re-enrolls the process in co-scheduling.
	AttachProcess(node *kernel.Node, proc int)
	// UnregisterProcess announces process termination.
	UnregisterProcess(node *kernel.Node, proc int)
}

// FaultModel decides which send attempts are lost. Implementations must be
// pure functions of the attempt's identity (source rank, per-rank send
// index, attempt number) and immutable schedules — never of call order — so
// faulty runs stay bit-identical across engine cores and worker counts.
// internal/fault.Injector is the standard implementation.
type FaultModel interface {
	// DropMessage reports whether this attempt to deliver the message is
	// lost (link fault or partition window).
	DropMessage(now sim.Time, srcNode, dstNode, srcRank int, sendIdx, attempt uint64) bool
	// DetectLatency is the delay between a fatal loss and the job-wide
	// abort reaching each rank. Under the sharded core it must be at least
	// the fabric lookahead so abort events can cross shard windows.
	DetectLatency() sim.Time
}

// FineGrainRegistry is an optional Registry extension implementing the
// paper's §7 proposal: applications announce when they enter and exit
// fine-grain (tightly synchronized) regions so the co-scheduler can avoid
// deprioritizing them mid-collective. Registries that do not implement it
// silently ignore the hints.
type FineGrainRegistry interface {
	EnterFineGrain(node *kernel.Node, proc int)
	ExitFineGrain(node *kernel.Node, proc int)
}

// Job is one parallel job: a set of ranks placed on nodes. Ranks live in
// one flat contiguous array owned by the job (struct-of-arrays layout): a
// 16k-rank job is a single allocation of rank records instead of 16k
// scattered heap objects behind a pointer slice. The array may move while
// AddRank grows it, so interior pointers — and every continuation that
// captures one — are created only at Launch, after which the array is
// frozen (AddRank panics).
type Job struct {
	eng      *sim.Engine
	fabric   *network.Fabric
	cfg      Config
	ranks    []Rank
	rankPtrs []*Rank // Ranks() view, rebuilt when the array grows
	registry Registry

	launched   bool
	onComplete []func()

	// Completion accounting is atomic because ranks on different engine
	// shards finish concurrently under the sharded core. finished counts
	// ranks that called Done; lastDone tracks the maximum Done time (as
	// int64 nanoseconds), which is order-independent — the serial engine's
	// "time of the final Done" is the same maximum.
	finished atomic.Int64
	lastDone atomic.Int64

	// hw tracks in-flight hardware collectives by tag. The combine engine
	// is a single shared accumulator, so hardware collectives force the
	// serial engine (cluster gating).
	hw map[int]*hwOp

	// faults, when non-nil, intercepts every point-to-point send attempt.
	faults FaultModel
	// Degraded-mode accounting (atomic: ranks on different shards fail
	// concurrently). failed counts ranks that terminated by fault or abort
	// instead of Done; lostRanks are the crash victims themselves,
	// abortedRanks the survivors taken down by the collective abort;
	// collAborted counts ranks that were inside a collective when killed.
	failed       atomic.Int64
	lostRanks    atomic.Int64
	abortedRanks atomic.Int64
	collAborted  atomic.Int64
}

// delivery is one in-flight point-to-point message. Its fire continuation is
// bound once when the record is first allocated; firing returns the record to
// the receiving rank's pool before delivering. Pools are per rank so that
// under the sharded core each pool is only ever touched by its owner's shard:
// leases happen on the sender (who owns the record until it fires) and
// releases happen on the receiver — so records migrate from sender pools to
// receiver pools, which is harmless.
type delivery struct {
	target *Rank
	key    msgKey
	msg    message
	fire   func()
}

// newDelivery leases a delivery record from r's pool for a message to target.
func (r *Rank) newDelivery(target *Rank, key msgKey, msg message) *delivery {
	var d *delivery
	if n := len(r.deliveryPool); n > 0 {
		d = r.deliveryPool[n-1]
		r.deliveryPool = r.deliveryPool[:n-1]
	} else {
		d = &delivery{}
		d.fire = func() {
			target, key, msg := d.target, d.key, d.msg
			d.target = nil
			target.deliveryPool = append(target.deliveryPool, d)
			target.deliver(key, msg)
		}
	}
	d.target, d.key, d.msg = target, key, msg
	return d
}

// NewJob creates an empty job. Add ranks with AddRank, then Launch.
func NewJob(eng *sim.Engine, fabric *network.Fabric, cfg Config, registry Registry) (*Job, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Job{eng: eng, fabric: fabric, cfg: cfg, registry: registry}, nil
}

// MustJob is NewJob for known-valid configurations.
func MustJob(eng *sim.Engine, fabric *network.Fabric, cfg Config, registry Registry) *Job {
	j, err := NewJob(eng, fabric, cfg, registry)
	if err != nil {
		panic(err)
	}
	return j
}

// Reserve pre-sizes the rank array for n ranks, avoiding growth
// reallocations while a large job is assembled. Optional: AddRank grows the
// array on demand.
func (j *Job) Reserve(n int) {
	if j.launched {
		panic("mpi: Reserve after Launch")
	}
	if n > cap(j.ranks) {
		grown := make([]Rank, len(j.ranks), n)
		copy(grown, j.ranks)
		j.ranks = grown
	}
}

// AddRank places the next rank on a node, bound to cpu. Rank pointers are
// not handed out here — the flat rank array may still move — so use
// Ranks() (or the pointer passed to the Launch program) to reach a rank.
func (j *Job) AddRank(node *kernel.Node, cpu int) {
	if j.launched {
		panic("mpi: AddRank after Launch")
	}
	id := len(j.ranks)
	j.ranks = append(j.ranks, Rank{job: j, id: id, node: node})
	r := &j.ranks[id]
	proc := 1000 + id // distinct nonzero Proc per task process
	r.thread = node.NewThread(fmt.Sprintf("rank%d", id), j.cfg.TaskPriority, cpu)
	r.thread.Proc = proc
	if j.cfg.ProgressEnabled {
		r.progress = node.NewThread(fmt.Sprintf("mpitimer%d", id), j.cfg.TaskPriority, cpu)
		r.progress.Proc = proc
	}
}

// Size returns the number of ranks.
func (j *Job) Size() int { return len(j.ranks) }

// Ranks returns the job's ranks in rank order. The view is rebuilt whenever
// the underlying array has grown since the last call, so pointers obtained
// before further AddRank calls must not be retained; after Launch the array
// is frozen and the view is stable.
func (j *Job) Ranks() []*Rank {
	if len(j.rankPtrs) != len(j.ranks) {
		j.rankPtrs = make([]*Rank, len(j.ranks))
		for i := range j.ranks {
			j.rankPtrs[i] = &j.ranks[i]
		}
	}
	return j.rankPtrs
}

// Config returns the job's MPI configuration.
func (j *Job) Config() Config { return j.cfg }

// P2PSends reports the total point-to-point messages sent (algorithm
// verification: a recursive-doubling Allreduce sends ~2*log2(N) per task).
// Counters are per rank; call between or after runs.
func (j *Job) P2PSends() uint64 {
	var n uint64
	for i := range j.ranks {
		n += j.ranks[i].p2pSends
	}
	return n
}

// OnComplete registers a callback invoked when every rank has called Done.
// Callbacks stack and run in registration order.
func (j *Job) OnComplete(fn func()) { j.onComplete = append(j.onComplete, fn) }

// Launch starts every rank executing program (MPI_Init through MPI_Finalize:
// registration with the co-scheduler happens before the program body runs).
// program must eventually call r.Done().
func (j *Job) Launch(program func(r *Rank)) {
	if j.launched {
		panic("mpi: Launch twice")
	}
	if len(j.ranks) == 0 {
		panic("mpi: Launch with no ranks")
	}
	j.launched = true
	// The rank array is frozen now; interior pointers are stable from here
	// on, so this is where every per-rank continuation is bound.
	for i := range j.ranks {
		r := &j.ranks[i]
		r.bindHotPaths()
		// MPI_Init: the library writes the task PID up the control pipe to
		// the pmd, which forwards it to the co-scheduler.
		if j.registry != nil {
			threads := []*kernel.Thread{r.thread}
			if r.progress != nil {
				threads = append(threads, r.progress)
			}
			j.registry.RegisterProcess(r.node, r.thread.Proc, threads)
		}
		if r.progress != nil {
			j.startProgressThread(r)
		}
		r.thread.Start(func() { program(r) })
	}
}

// startProgressThread runs the rank's MPI timer thread: sleep the polling
// interval, then burn the progress burst at task priority, forever (it dies
// with the job).
func (j *Job) startProgressThread(r *Rank) {
	th := r.progress
	var cycle func()
	cycle = func() {
		if r.done {
			th.Exit()
			return
		}
		th.Run(j.cfg.ProgressBurst, func() {
			th.Sleep(j.cfg.ProgressInterval, cycle)
		})
	}
	th.Start(func() { th.Sleep(j.cfg.ProgressInterval, cycle) })
}

// rankDone accounts a completed rank and fires the completion callback. The
// local teardown (registry, timer thread) runs on the rank's shard; the
// rank's termination time folds into lastDone (a maximum, so
// order-independent across shards), and the completion callbacks fire when
// the final rank lands. They fire exactly once, on whichever shard executes
// the final Done, after every earlier rank's completion time is visible (the
// atomic add totally orders the increments).
func (j *Job) rankDone(r *Rank) {
	if j.registry != nil {
		j.registry.UnregisterProcess(r.node, r.thread.Proc)
	}
	if r.progress != nil && r.progress.State() == kernel.StateSleeping {
		// Reap the sleeping timer thread immediately instead of waiting up
		// to a polling interval for it to notice.
		r.progress.Kill()
	}
	now := int64(r.node.Engine().Now())
	for {
		cur := j.lastDone.Load()
		if now <= cur || j.lastDone.CompareAndSwap(cur, now) {
			break
		}
	}
	if j.finished.Add(1) == int64(len(j.ranks)) {
		for _, fn := range j.onComplete {
			fn()
		}
	}
}

// Completed reports whether every rank has called Done successfully: a job
// whose ranks were lost or aborted has terminated, but not completed.
func (j *Job) Completed() bool {
	return j.launched && j.finished.Load() == int64(len(j.ranks)) && j.failed.Load() == 0
}

// CompletedAt returns the simulated time the final rank called Done (the
// maximum over ranks, so it is independent of shard execution order). Zero
// until the job completes.
func (j *Job) CompletedAt() sim.Time {
	if !j.Completed() {
		return 0
	}
	return sim.Time(j.lastDone.Load())
}

// TerminatedAt returns when the final rank ended — by Done or by fault —
// regardless of whether the job completed. Zero while ranks are still live.
func (j *Job) TerminatedAt() sim.Time {
	if j.finished.Load() != int64(len(j.ranks)) {
		return 0
	}
	return sim.Time(j.lastDone.Load())
}

// SetFaults installs the fault model. Must be called before Launch; nil
// clears it. Hardware collectives are not fault-aware (the cluster layer
// refuses the combination).
func (j *Job) SetFaults(fm FaultModel) {
	if j.launched {
		panic("mpi: SetFaults after Launch")
	}
	j.faults = fm
}

// FailRanksOn kills every rank placed on node n, as when the node crashes
// (lost=true) or survivors are taken down by a collective abort
// (lost=false). Must run on n's engine shard. Idempotent per rank.
func (j *Job) FailRanksOn(n *kernel.Node, lost bool) {
	for i := range j.ranks {
		r := &j.ranks[i]
		if r.node == n {
			r.fail(lost)
		}
	}
}

// abortFrom broadcasts a collective abort: every rank is killed
// DetectLatency after the fatal loss observed on engine src. Aborts are not
// deduplicated — fail is idempotent, and each rank's effective death time is
// the minimum over broadcast arrivals, which is the same on every engine
// core regardless of shard interleaving (a CAS-style "first abort wins"
// guard would not be).
func (j *Job) abortFrom(src *sim.Engine) {
	when := src.Now() + j.faults.DetectLatency()
	for i := range j.ranks {
		r := &j.ranks[i]
		src.ScheduleOn(r.node.Engine(), when, "mpi-abort", r.failAbort)
	}
}

// FaultStats summarizes a job's degraded-mode behavior.
type FaultStats struct {
	Dropped            uint64 // send attempts lost to injected faults
	Retries            uint64 // retransmit attempts made
	AbortedCollectives int64  // ranks killed while inside a collective
	LostRanks          int64  // ranks on crashed nodes
	AbortedRanks       int64  // surviving ranks killed by collective abort
}

// FaultStats returns the job's degraded-mode counters.
func (j *Job) FaultStats() FaultStats {
	fs := FaultStats{
		AbortedCollectives: j.collAborted.Load(),
		LostRanks:          j.lostRanks.Load(),
		AbortedRanks:       j.abortedRanks.Load(),
	}
	for i := range j.ranks {
		fs.Dropped += j.ranks[i].dropped
		fs.Retries += j.ranks[i].retries
	}
	return fs
}
