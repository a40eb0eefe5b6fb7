package sim

import (
	"fmt"
	"time"
)

// Event is a scheduled callback. An Event record is either pooled or owned.
//
// Pooled records are what Engine.At, Engine.After and Engine.Recur return.
// The engine recycles them aggressively: a fired event's *Event may be
// reused by the next schedule, and Cancel returns the record to the pool
// immediately. Do not retain, re-read or re-Cancel a pooled event pointer
// after its callback has run or after you canceled it. Canceling a pending
// event you scheduled is always safe.
//
// Owned records are embedded in the model object they belong to (a kernel
// thread's burst end, an in-flight MPI message) and are never pooled. Bind
// gives one its label and callback once; Engine.Arm schedules it, and it
// may be armed again whenever it is not pending — from its own callback,
// after Cancel, or much later. Cancel, Reschedule, When and Pending work on
// owned records exactly as on pooled ones, and the record stays valid for
// its owner's lifetime.
type Event struct {
	fn    func()
	recur func() Time

	// seq is the sequence number of the event's current queue entry. An
	// entry is live iff the event is pending and the entry carries the
	// event's seq: cancellation (pending goes false) and rescheduling or
	// re-arming (a fresh seq) are O(1), and the stale entries they leave
	// behind are dropped when the queue reaches them.
	seq      uint64
	when     Time
	label    string // optional, for debugging
	pending  bool   // scheduled and not yet fired or canceled
	canceled bool
	kind     eventKind
}

// eventKind says where an Event record comes from and where it goes after
// firing or Cancel.
type eventKind uint8

const (
	// pooled records are leased by At and Recur from the engine's pool and
	// return to it.
	pooled eventKind = iota
	// staged records carry a ScheduleOn callback to another engine. They
	// come from the sending engine's staging pool and return to the firing
	// engine's. ScheduleOn never hands them out, so they are never
	// canceled or rescheduled and no queue holds a stale entry for one:
	// moving them between shards is safe. A pooled record may still have
	// a stale entry in its engine's queue, which another shard's worker
	// would race with, so pooled records never move.
	staged
	// owned records are embedded in their owner (Bind) and never pooled.
	owned
)

// When reports the time the event is scheduled to fire.
func (e *Event) When() Time { return e.when }

// Canceled reports whether Cancel was called on the event.
func (e *Event) Canceled() bool { return e.canceled }

// Pending reports whether the event is scheduled and has neither fired nor
// been canceled since.
func (e *Event) Pending() bool { return e.pending }

// Label returns the debug label given at scheduling time (may be empty).
func (e *Event) Label() string { return e.label }

// Bind makes e an owned event record that runs fn each time it fires. Bind
// it once, before its first Arm, with the record embedded in (or otherwise
// held by) its owner; the engine never pools it.
func (e *Event) Bind(label string, fn func()) {
	if fn == nil {
		panic("sim: Bind with nil fn")
	}
	if e.pending {
		panic(fmt.Sprintf("sim: Bind of pending event %q", e.label))
	}
	e.fn, e.label, e.kind = fn, label, owned
}

// RecurStop is returned by a recurring event's callback to end the series.
const RecurStop Time = -1

// entry is one heap cell: the CoreHeap queue and the wheel's late and
// overflow heaps. Comparisons touch only this contiguous struct, never the
// *Event, which keeps the sift loops cache-friendly. The wheel's slot cells
// drop when (see wheel.go): a live cell's time is its event's.
type entry struct {
	when Time
	seq  uint64
	ev   *Event
}

func (a entry) before(b entry) bool {
	if a.when != b.when {
		return a.when < b.when
	}
	return a.seq < b.seq
}

// live reports whether the entry is its event's current queue entry.
func (en entry) live() bool {
	return en.ev.pending && en.ev.seq == en.seq
}

// entryHeap is a 4-ary min-heap of entries ordered by (when, seq). It does
// no position tracking: removal happens only at the top, and dead entries
// are filtered by the caller via entry.live.
type entryHeap []entry

func (h entryHeap) siftUp(i int) {
	item := h[i]
	for i > 0 {
		parent := (i - 1) >> 2
		if !item.before(h[parent]) {
			break
		}
		h[i] = h[parent]
		i = parent
	}
	h[i] = item
}

func (h entryHeap) siftDown(i int) {
	n := len(h)
	item := h[i]
	for {
		first := i<<2 + 1
		if first >= n {
			break
		}
		best := first
		last := first + 4
		if last > n {
			last = n
		}
		for c := first + 1; c < last; c++ {
			if h[c].before(h[best]) {
				best = c
			}
		}
		if !h[best].before(item) {
			break
		}
		h[i] = h[best]
		i = best
	}
	h[i] = item
}

func (h *entryHeap) push(en entry) {
	*h = append(*h, en)
	h.siftUp(len(*h) - 1)
}

func (h *entryHeap) pop() entry {
	old := *h
	top := old[0]
	n := len(old) - 1
	old[0] = old[n]
	old[n] = entry{} // release the *Event reference
	*h = old[:n]
	if n > 0 {
		old[:n].siftDown(0)
	}
	return top
}

// Core selects the event-queue implementation backing an Engine.
type Core int

const (
	// CoreWheel is the hierarchical timer wheel (the default): O(1)
	// schedule, cancel and reschedule; each drained slot is sorted once,
	// and a small heap takes late inserts below the frontier, preserving
	// exact (when, seq) firing order.
	CoreWheel Core = iota
	// CoreHeap is the single 4-ary heap the simulator originally shipped
	// with. It is kept as the reference implementation: differential tests
	// assert both cores fire identically, and benchmarks use it as the
	// baseline.
	CoreHeap
	// CoreSharded requests the conservative time-window parallel core: one
	// wheel-backed shard per cluster node, coordinated by a ShardGroup (see
	// sharded.go). The selection is honored by cluster.Build, which knows
	// the shard topology; a bare NewEngineWithCore call cannot shard a
	// single queue and falls back to the timer wheel.
	CoreSharded
)

// eventPoolCap bounds each free list of recycled Event records. Beyond
// this the records are left to the garbage collector; the cap only exists
// to stop a burst of pending events from pinning memory forever.
const eventPoolCap = 4096

// Engine is the discrete-event simulation core. It is not safe for
// concurrent use; the whole simulation is single-goroutine by design so that
// runs are deterministic. Events fire in strict (time, schedule-sequence)
// order regardless of the selected Core.
type Engine struct {
	now        Time
	seq        uint64
	fired      uint64
	scheduled  uint64
	live       int // pending events (excludes lazily-canceled entries)
	stopped    bool
	rng        *Source
	free       []*Event // recycled pooled records
	stagedFree []*Event // recycled staged records (see eventKind)

	useHeap bool
	heap    entryHeap // CoreHeap's single queue

	wheel wheel // CoreWheel state

	// Shard-group state (nil/zero outside a ShardGroup). Only the shard's
	// owning worker goroutine touches the engine during a window; the
	// coordinator touches it only between windows, so none of these fields
	// need synchronization.
	group     *ShardGroup
	shard     int
	windowEnd Time           // exclusive bound of the window being executed; 0 when idle
	outbox    [][]crossEntry // staged cross-shard events, indexed by destination shard

	// Wall-clock deadline (0 = none): Run breaks out once real time passes
	// it, leaving the simulation mid-run with deadlineHit set. Checked every
	// 4096 events so the hot loop stays syscall-free.
	deadlineNs  int64
	deadlineHit bool
}

// NewEngine returns a timer-wheel engine at time zero whose random streams
// derive from seed. The same seed always yields the same simulation, under
// any Core.
func NewEngine(seed int64) *Engine { return NewEngineWithCore(seed, CoreWheel) }

// NewEngineWithCore is NewEngine with an explicit queue implementation.
func NewEngineWithCore(seed int64, core Core) *Engine {
	return &Engine{rng: NewSource(seed), useHeap: core == CoreHeap}
}

// Now reports the current simulated time.
func (e *Engine) Now() Time { return e.now }

// Pending reports the number of events waiting in the queue.
func (e *Engine) Pending() int { return e.live }

// Fired reports how many events have executed so far.
func (e *Engine) Fired() uint64 { return e.fired }

// Scheduled reports how many events have ever been scheduled (recurring
// events count once per arming).
func (e *Engine) Scheduled() uint64 { return e.scheduled }

// Rand returns a deterministic random stream for the named component.
// Repeated calls with the same name return independent streams whose
// sequences depend only on the engine seed and the name.
func (e *Engine) Rand(name string) *Rand { return e.rng.Stream(name) }

// CounterRand returns the counter-based random stream for (name, ids...)
// rooted at the engine seed, positioned at counter zero. Every shard of a
// ShardGroup carries the same seed, so the stream a given identity names is
// the same no matter which shard derives it — the foundation for sampling
// randomness under parallel execution without order dependence.
func (e *Engine) CounterRand(name string, ids ...uint64) CounterRand {
	return e.rng.CounterRand(name, ids...)
}

// Source returns the engine's stream factory (for components that derive
// many keyed streams and want to skip the engine indirection).
func (e *Engine) Source() *Source { return e.rng }

// pool returns the free list for records of the given kind, or nil for
// owned records.
func (e *Engine) pool(kind eventKind) *[]*Event {
	switch kind {
	case pooled:
		return &e.free
	case staged:
		return &e.stagedFree
	}
	return nil
}

// lease takes a pooled or staged Event record from its pool, or allocates
// one.
func (e *Engine) lease(kind eventKind, label string) *Event {
	pool := e.pool(kind)
	var ev *Event
	if n := len(*pool); n > 0 {
		ev = (*pool)[n-1]
		(*pool)[n-1] = nil
		*pool = (*pool)[:n-1]
	} else {
		ev = &Event{kind: kind}
	}
	ev.label = label
	return ev
}

// recycle returns a no-longer-pending record to its pool; owned records
// stay with their owner. Its seq is kept, and with pending false every
// queue entry that still points at it is stale.
func (e *Engine) recycle(ev *Event) {
	pool := e.pool(ev.kind)
	if pool == nil {
		return
	}
	ev.fn = nil
	ev.recur = nil
	if len(*pool) < eventPoolCap {
		*pool = append(*pool, ev)
	}
}

// maxSeq bounds sequence numbers: the wheel's run key packs one into the
// low 54 bits of a uint64 (see runCell).
const maxSeq = 1 << seqBits

// enqueue inserts a new entry for ev at time t, drawing the next sequence
// number. The entry it replaces, if any, goes stale.
func (e *Engine) enqueue(ev *Event, t Time) {
	if e.seq >= maxSeq {
		panic("sim: event sequence numbers exhausted")
	}
	ev.seq = e.seq
	ev.when = t
	e.seq++
	if e.useHeap {
		e.heap.push(entry{when: t, seq: ev.seq, ev: ev})
	} else {
		e.wheel.insert(t, ev.seq, ev)
	}
}

// arm schedules a record that is not pending at time t, which the caller
// has checked is not before now.
func (e *Engine) arm(ev *Event, t Time) {
	ev.pending = true
	ev.canceled = false
	e.enqueue(ev, t)
	e.scheduled++
	e.live++
}

// At schedules fn to run at time t. Scheduling in the past (t < Now) panics:
// it always indicates a model bug, and silently reordering time would
// destroy causality. label is kept for debugging and may be empty.
func (e *Engine) At(t Time, label string, fn func()) *Event {
	if fn == nil {
		panic("sim: At with nil fn")
	}
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling %q at %v before now %v", label, t, e.now))
	}
	ev := e.lease(pooled, label)
	ev.fn = fn
	e.arm(ev, t)
	return ev
}

// After schedules fn to run d from now. Negative d panics.
func (e *Engine) After(d Time, label string, fn func()) *Event {
	if d < 0 {
		panic(fmt.Sprintf("sim: After with negative duration %v", d))
	}
	return e.At(e.now+d, label, fn)
}

// Arm schedules the owned event ev (see Event.Bind) to fire at time t. It
// draws its sequence number exactly as At does, so arming an owned record
// orders among same-time events as scheduling a fresh one would. Arm
// panics if ev is not owned, is already pending, or if t is before now.
func (e *Engine) Arm(ev *Event, t Time) {
	e.checkArm(ev, t)
	e.arm(ev, t)
}

// checkArm validates arming the owned event ev at t from this engine.
func (e *Engine) checkArm(ev *Event, t Time) {
	if ev.kind != owned {
		panic(fmt.Sprintf("sim: Arm of unbound event %q", ev.label))
	}
	if ev.pending {
		panic(fmt.Sprintf("sim: Arm of pending event %q", ev.label))
	}
	if t < e.now {
		panic(fmt.Sprintf("sim: arming %q at %v before now %v", ev.label, t, e.now))
	}
}

// Recur schedules a recurring event: fn runs at first, and its return value
// is the next fire time — an absolute time strictly after Now, not an
// interval — or RecurStop to end the series. The event is
// re-armed in place — no per-firing allocation — but each re-arm draws a
// fresh sequence number exactly as a trailing At would, so firing order
// among same-time events is identical to the schedule-fire-reschedule
// pattern it replaces.
func (e *Engine) Recur(first Time, label string, fn func() Time) *Event {
	if fn == nil {
		panic("sim: Recur with nil fn")
	}
	if first < e.now {
		panic(fmt.Sprintf("sim: recurring %q at %v before now %v", label, first, e.now))
	}
	ev := e.lease(pooled, label)
	ev.recur = fn
	e.arm(ev, first)
	return ev
}

// Cancel removes ev from the queue and recycles a pooled record.
// Cancellation is lazy — O(1) — and the queue drops the dead entry when it
// reaches it. Canceling an already-fired or already-canceled event is a
// no-op, but do not retain pooled pointers for that purpose: a canceled
// record may be reused by a later schedule. An owned record may be armed
// again right away.
func (e *Engine) Cancel(ev *Event) {
	if ev == nil || !ev.pending {
		return
	}
	ev.pending = false
	ev.canceled = true
	e.live--
	e.recycle(ev)
}

// Reschedule moves a pending event to a new time, preserving identity. It
// is equivalent to Cancel + At but cheaper and keeps the same *Event.
// Panics if the event already fired or was canceled, or if t is in the
// past.
func (e *Engine) Reschedule(ev *Event, t Time) {
	if ev == nil || !ev.pending {
		panic("sim: Reschedule of dead event")
	}
	if t < e.now {
		panic(fmt.Sprintf("sim: rescheduling %q at %v before now %v", ev.label, t, e.now))
	}
	e.enqueue(ev, t) // the old entry goes stale in place
}

// popUntil removes and returns the earliest live event if it is due at or
// before limit, and nil otherwise. It is the one queue probe per fired
// event.
func (e *Engine) popUntil(limit Time) *Event {
	if !e.useHeap {
		return e.wheel.popUntil(limit)
	}
	for len(e.heap) > 0 {
		top := e.heap[0]
		if !top.live() {
			e.heap.pop()
			continue
		}
		if top.when > limit {
			return nil
		}
		e.heap.pop()
		return top.ev
	}
	return nil
}

// peekNext reports the earliest live entry's time without firing it.
func (e *Engine) peekNext() (Time, bool) {
	if e.useHeap {
		for len(e.heap) > 0 {
			if e.heap[0].live() {
				return e.heap[0].when, true
			}
			e.heap.pop()
		}
		return 0, false
	}
	return e.wheel.peekNext()
}

// Step fires the next pending event, advancing the clock to its time.
// It reports false if the queue is empty or the engine was stopped.
func (e *Engine) Step() bool {
	if e.stopped {
		return false
	}
	ev := e.popUntil(Forever)
	if ev == nil {
		return false
	}
	e.fire(ev)
	return true
}

// fire runs an event just popped from the queue.
func (e *Engine) fire(ev *Event) {
	if ev.when < e.now {
		panic("sim: event queue time went backwards")
	}
	e.now = ev.when
	e.fired++
	e.live--
	ev.pending = false
	if ev.recur != nil {
		next := ev.recur()
		if next == RecurStop {
			e.recycle(ev)
			return
		}
		if next <= e.now {
			// The callback returns the next absolute time, not an interval.
			// Re-arming at now would refire the same callback at the same
			// instant forever; fail loudly instead of looping silently.
			panic(fmt.Sprintf("sim: recurring %q returned %v, not after now %v", ev.label, next, e.now))
		}
		// Re-arm in place. The sequence number is drawn here, after the
		// callback, matching the trailing-At idiom this replaces.
		e.arm(ev, next)
		return
	}
	fn := ev.fn
	// Recycle before running fn: fn must not retain a pooled ev
	// (documented), and recycling first lets fn's own scheduling reuse the
	// record. An owned record stays bound, and fn may arm it again.
	e.recycle(ev)
	fn()
}

// Run executes events until the queue is empty, the engine is stopped, or
// the next event lies strictly after until. The clock is left at the last
// fired event's time (it does not jump to until). It returns the number of
// events fired by this call.
func (e *Engine) Run(until Time) uint64 {
	if e.group != nil {
		panic("sim: Run on a shard of a ShardGroup; drive the group with ShardGroup.Run")
	}
	start := e.fired
	for !e.stopped {
		if e.deadlineNs != 0 && e.fired&4095 == 0 && time.Now().UnixNano() > e.deadlineNs {
			e.deadlineHit = true
			break
		}
		ev := e.popUntil(until)
		if ev == nil {
			break
		}
		e.fire(ev)
	}
	return e.fired - start
}

// SetWallDeadline arms a real-time budget for Run: once the wall clock
// passes t, Run returns early and WallDeadlineHit reports true. The deadline
// does not affect simulated time or determinism of the events that did fire;
// it only bounds how long a run may hold the process. Zero time disarms it.
func (e *Engine) SetWallDeadline(t time.Time) {
	if t.IsZero() {
		e.deadlineNs = 0
		return
	}
	e.deadlineNs = t.UnixNano()
}

// WallDeadlineHit reports whether a Run was cut short by SetWallDeadline.
func (e *Engine) WallDeadlineHit() bool { return e.deadlineHit }

// RunUntilIdle executes events until none remain or the engine is stopped.
func (e *Engine) RunUntilIdle() uint64 { return e.Run(Forever) }

// Stop halts the run loop after the current event returns. Subsequent Step
// and Run calls do nothing until the engine is discarded; Stop is intended
// for terminating a run once the measured workload completes, without
// draining periodic daemon events that would otherwise run forever.
//
// On a shard of a ShardGroup, Stop stops the whole group: every shard
// still finishes the window in flight (so the stop point is independent of
// worker scheduling), and the group's run loop exits at the next barrier.
func (e *Engine) Stop() {
	if e.group != nil {
		e.group.Stop()
		return
	}
	e.stopped = true
}

// Stopped reports whether Stop was called.
func (e *Engine) Stopped() bool {
	if e.group != nil {
		return e.group.Stopped()
	}
	return e.stopped
}

// ShardID returns this engine's shard index within its ShardGroup (0 for a
// standalone engine).
func (e *Engine) ShardID() int { return e.shard }

// Group returns the coordinating ShardGroup, or nil for a standalone engine.
func (e *Engine) Group() *ShardGroup { return e.group }

// runWindow fires every pending event with when < end and reports how many
// fired. It is the per-shard body of one conservative time window; the
// ShardGroup guarantees no cross-shard event with when < end can still be
// in flight when it is called.
func (e *Engine) runWindow(end Time) int {
	e.windowEnd = end
	n := 0
	for !e.stopped {
		ev := e.popUntil(end - 1)
		if ev == nil {
			break
		}
		e.fire(ev)
		n++
	}
	e.windowEnd = 0
	return n
}

// ScheduleOn schedules fn at time t on dst, which may be a different shard
// of the same ShardGroup. For dst == e it is exactly e.At. Otherwise the
// callback rides a staged record leased on e and armed on dst as ArmOn
// arms an owned one.
func (e *Engine) ScheduleOn(dst *Engine, t Time, label string, fn func()) {
	if dst == e {
		e.At(t, label, fn)
		return
	}
	if fn == nil {
		panic("sim: ScheduleOn with nil fn")
	}
	ev := e.lease(staged, label)
	ev.fn = fn
	e.stage(dst, t, ev)
}

// ArmOn arms the owned event ev at time t on dst, which may be a different
// shard of the same ShardGroup; for dst == e it is exactly e.Arm. An owned
// record that was canceled or rescheduled may still have a stale entry in
// the queue of the engine it was armed on, so arm it again only on that
// engine; a record that has only ever fired may move freely. A record
// staged for another shard is pending from here on, but only dst may
// cancel or reschedule it, once the window barrier has armed it there.
func (e *Engine) ArmOn(dst *Engine, t Time, ev *Event) {
	e.checkArm(ev, t)
	e.stage(dst, t, ev)
}

// stage arms ev at t on dst. For a standalone destination, dst == e, or
// between windows it arms directly. Across shards inside a window the
// event is staged in this shard's outbox and armed on dst at the window
// barrier; t must lie at or past the current window's end (the
// conservative lookahead guarantee), which holds for anything scheduled at
// least the group lookahead in the future.
func (e *Engine) stage(dst *Engine, t Time, ev *Event) {
	if dst == e || e.group == nil || dst.group == nil || e.windowEnd == 0 {
		// Between windows (setup, teardown, or the serial coordinator
		// phase) the destination queue is quiescent: arm directly.
		if t < dst.now {
			panic(fmt.Sprintf("sim: scheduling %q at %v before now %v", ev.label, t, dst.now))
		}
		dst.arm(ev, t)
		return
	}
	if dst.group != e.group {
		panic("sim: ScheduleOn across different ShardGroups")
	}
	if t < e.windowEnd {
		panic(fmt.Sprintf("sim: cross-shard %q at %v inside the current window (end %v): below the group lookahead",
			ev.label, t, e.windowEnd))
	}
	ev.pending, ev.canceled = true, false // queued on dst at the barrier
	e.outbox[dst.shard] = append(e.outbox[dst.shard], crossEntry{when: t, ev: ev})
}
