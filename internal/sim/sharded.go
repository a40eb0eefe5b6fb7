package sim

import (
	"cmp"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

// crossEntry is one event staged for another shard during a window. Entries
// accumulate in the source shard's outbox in execution order and are armed
// on the destination at the window barrier.
type crossEntry struct {
	when Time
	ev   *Event
}

// GroupStats counts a ShardGroup's window machinery. All fields except
// BarrierStallNs are deterministic for a given simulation; BarrierStallNs
// is wall-clock and diagnostic only.
type GroupStats struct {
	// Windows is the number of conservative time windows executed.
	Windows uint64
	// ParallelWindows counts windows dispatched to the worker pool (at
	// least two shards had events; single-shard windows run inline).
	ParallelWindows uint64
	// ActiveShardWindows sums, over windows, the number of shards that had
	// events inside the window — ActiveShardWindows/Windows is the mean
	// available parallelism of the run.
	ActiveShardWindows uint64
	// CrossShardEvents is the number of events staged across shards and
	// merged at window barriers.
	CrossShardEvents uint64
	// BarrierStallNs is wall-clock time window participants spent waiting
	// at window barriers while a slower participant finished (load
	// imbalance): the sum over participants of (lastFinish - ownFinish).
	// Only goroutines that executed shards in the window count — parked
	// pool workers do not accrue stall.
	BarrierStallNs int64
}

// ShardGroup coordinates per-node engine shards under conservative
// time-window parallel execution. All shards share one seed, so any named
// random stream drawn from any shard reproduces the serial engine's stream
// exactly (streams are pure functions of seed and name).
//
// The execution model: every window starts at the globally earliest pending
// event time T and spans [T, T+lookahead). Shards with events inside the
// window execute concurrently on a bounded worker pool; events they
// schedule for other shards are staged in per-destination outboxes, because
// the lookahead (the fabric's minimum cross-node delivery latency)
// guarantees those events land at or beyond the window end. At the barrier
// the coordinator merges each destination's staged entries in (when,
// source-shard, staging-order) order, drawing destination sequence numbers
// in that canonical order — so the merged queue state, and therefore the
// whole simulation, is identical at any worker count, including one.
type ShardGroup struct {
	shards    []*Engine
	lookahead Time
	workers   int

	stopped atomic.Bool
	stats   GroupStats

	// Wall-clock deadline (0 = none), checked between windows: the window in
	// flight always completes, so a deadline exit leaves the same canonical
	// barrier state as a Stop.
	deadlineNs  int64
	deadlineHit bool

	heads  []Time       // each shard's next event time (Forever if none), per window
	active []*Engine    // shards with events inside the current window
	batch  []crossEntry // merge scratch, reused across barriers
}

// maxShards bounds the shard count so a window's two claim cursors each fit
// a 16-bit field of windowPool's claim word.
const maxShards = 1<<16 - 1

// NewShardGroup builds n wheel-backed engine shards sharing seed, executed
// by up to workers goroutines per window. lookahead is the conservative
// window length: the model must guarantee every cross-shard event is
// scheduled at least lookahead past the scheduling shard's current time.
func NewShardGroup(seed int64, n, workers int, lookahead Time) *ShardGroup {
	if n <= 0 || n > maxShards {
		panic(fmt.Sprintf("sim: ShardGroup needs 1 to %d shards, got %d", maxShards, n))
	}
	if lookahead <= 0 {
		panic(fmt.Sprintf("sim: ShardGroup lookahead must be positive, got %v", lookahead))
	}
	if workers < 1 {
		workers = 1
	}
	g := &ShardGroup{lookahead: lookahead, workers: workers, heads: make([]Time, n), active: make([]*Engine, 0, n)}
	g.shards = make([]*Engine, n)
	for i := range g.shards {
		e := NewEngineWithCore(seed, CoreWheel)
		e.group = g
		e.shard = i
		e.outbox = make([][]crossEntry, n)
		g.shards[i] = e
	}
	return g
}

// Shard returns shard i's engine. Model components owned by node i must
// schedule exclusively through this engine.
func (g *ShardGroup) Shard(i int) *Engine { return g.shards[i] }

// Shards returns the shard count.
func (g *ShardGroup) Shards() int { return len(g.shards) }

// Workers returns the worker budget windows are executed with.
func (g *ShardGroup) Workers() int { return g.workers }

// Lookahead returns the conservative window length.
func (g *ShardGroup) Lookahead() Time { return g.lookahead }

// Stats returns the window-machinery counters. Call between or after runs.
func (g *ShardGroup) Stats() GroupStats { return g.stats }

// Fired sums events fired across all shards.
func (g *ShardGroup) Fired() uint64 {
	var n uint64
	for _, sh := range g.shards {
		n += sh.fired
	}
	return n
}

// Pending sums pending events across all shards.
func (g *ShardGroup) Pending() int {
	n := 0
	for _, sh := range g.shards {
		n += sh.live
	}
	return n
}

// Stop ends the run at the next window barrier. Safe to call from event
// callbacks on any shard; the window in flight always completes, so the
// simulation state at exit does not depend on worker scheduling.
func (g *ShardGroup) Stop() { g.stopped.Store(true) }

// SetWallDeadline arms a real-time budget for Run, checked at window
// barriers: once the wall clock passes t the run exits and WallDeadlineHit
// reports true. Zero time disarms it.
func (g *ShardGroup) SetWallDeadline(t time.Time) {
	if t.IsZero() {
		g.deadlineNs = 0
		return
	}
	g.deadlineNs = t.UnixNano()
}

// WallDeadlineHit reports whether a Run was cut short by SetWallDeadline.
func (g *ShardGroup) WallDeadlineHit() bool { return g.deadlineHit }

// pastDeadline checks the wall-clock budget between windows.
func (g *ShardGroup) pastDeadline() bool {
	if g.deadlineNs != 0 && time.Now().UnixNano() > g.deadlineNs {
		g.deadlineHit = true
		return true
	}
	return false
}

// Stopped reports whether Stop was called.
func (g *ShardGroup) Stopped() bool { return g.stopped.Load() }

// nextWindow computes the next window [start, end) covering events with
// when <= until and fills g.active with the shards that have events inside
// it. It reads each shard's queue head once. ok is false when no such
// window exists.
func (g *ShardGroup) nextWindow(until Time) (end Time, ok bool) {
	var start Time
	found := false
	for i, sh := range g.shards {
		w, has := sh.peekNext()
		if !has {
			w = Forever
		} else if !found || w < start {
			start, found = w, true
		}
		g.heads[i] = w
	}
	if !found || start > until {
		return 0, false
	}
	limit := Forever
	if until < Forever-1 {
		limit = until + 1 // Run semantics: fire events with when <= until
	}
	end = start + g.lookahead
	if end <= start || end > limit {
		end = limit
	}
	g.active = g.active[:0]
	for i, w := range g.heads {
		if w < end {
			g.active = append(g.active, g.shards[i])
		}
	}
	return end, true
}

// Run executes events until every queue is empty, the group is stopped, or
// the next event lies strictly after until. It returns the number of events
// fired by this call. Run must only be called from one goroutine at a time.
func (g *ShardGroup) Run(until Time) uint64 {
	startFired := g.Fired()

	// Effective dispatch width: the configured budget, clamped to the shard
	// count and to the machine. Workers beyond GOMAXPROCS cannot run
	// concurrently anyway — they only queue behind each other and inflate
	// barrier-stall accounting (a 4-worker group on a 1-core box used to
	// report ~3x the busy time as "stall" that was pure oversubscription).
	w := g.workers
	if mp := runtime.GOMAXPROCS(0); w > mp {
		w = mp
	}
	if w > len(g.shards) {
		w = len(g.shards)
	}

	// With one worker every window runs inline: same window/merge
	// discipline, no goroutines. This is also the differential reference
	// for the parallel path. Otherwise the coordinator participates as a
	// worker alongside w-1 helpers, and single-shard windows still run
	// inline.
	var pool *windowPool
	if w > 1 {
		pool = newWindowPool(w)
		defer pool.close()
	}
	for !g.stopped.Load() && !g.pastDeadline() {
		end, ok := g.nextWindow(until)
		if !ok {
			break
		}
		if pool == nil || len(g.active) == 1 {
			for _, sh := range g.active {
				sh.runWindow(end)
			}
		} else {
			g.stats.BarrierStallNs += pool.run(g.active, end)
			g.stats.ParallelWindows++
		}
		g.stats.ActiveShardWindows += uint64(len(g.active))
		g.mergeOutboxes()
		g.stats.Windows++
	}
	return g.Fired() - startFired
}

// Spin-then-park budget for window waiters. A paper-scale window lasts tens
// of microseconds of host time, so an idle helper or the waiting
// coordinator that spins a little longer than that almost never pays for a
// park and a futex wake. Past the budget it parks, so helpers idling
// through a long single-shard stretch, or an oversubscribed machine, do not
// lose CPUs to spinning. Spinners yield the processor every spinYield
// checks so a descheduled participant can get it back.
const (
	spinBudget = 200 * time.Microsecond
	spinYield  = 32
)

// parker is one goroutine's park slot. The waiter sets sleeping, re-checks
// its condition and only then blocks on wake; a waker publishes its state
// first and sends only after clearing sleeping itself. Exactly one side
// clears each sleeping=true, so a wakeup is never lost and wake never holds
// more than one token.
type parker struct {
	sleeping atomic.Bool
	wake     chan struct{}
}

// wait returns once ready reports true: it spins for up to spinBudget of
// wall time, then parks until unparked, and repeats.
func (p *parker) wait(ready func() bool) {
	start := time.Now()
	for i := 1; !ready(); i++ {
		if i%spinYield != 0 {
			continue
		}
		if time.Since(start) < spinBudget {
			runtime.Gosched()
			continue
		}
		p.sleeping.Store(true)
		if ready() {
			if !p.sleeping.CompareAndSwap(true, false) {
				<-p.wake // a waker cleared the flag first; take its token
			}
			return
		}
		<-p.wake
		start = time.Now()
	}
}

// unpark wakes p if it is parked and reports whether it was. Call it after
// publishing the state p waits on.
func (p *parker) unpark() bool {
	if p.sleeping.CompareAndSwap(true, false) {
		p.wake <- struct{}{}
		return true
	}
	return false
}

// windowPool runs a ShardGroup's multi-shard windows on the coordinator
// plus w-1 helper goroutines that live for one Run call.
//
// Each window is published as one atomic claim word, epoch<<32 | hi<<16 |
// lo, where act[lo:hi] are the shards not yet claimed, and participants
// claim by CAS on the whole word. A participant that read an older
// window's word therefore cannot claim from a newer one, and one that
// finds the window exhausted simply waits for the next epoch. The
// coordinator claims from the low end and helpers from the high end, so a
// shard tends to run on the same goroutine, and so in the same CPU cache,
// window after window: on the paper-scale run this cut the CPU time spent
// inside shard windows by about a fifth against one shared cursor.
//
// The coordinator waits until the count of unfinished shards drops to
// zero; it never counts participants, so a helper that arrives late or not
// at all cannot unbalance the barrier.
type windowPool struct {
	claim atomic.Uint64
	left  atomic.Int64 // shards of the current window not yet finished
	quit  atomic.Bool
	epoch uint32

	// Window inputs, written by the coordinator before it publishes the
	// claim word and read by a participant only after a successful claim.
	act []*Engine
	end Time
	t0  time.Time

	// Per-participant (0 = coordinator) finish time of its last shard in
	// the current window, and whether it ran one. Written before the
	// participant's left decrement, read by the coordinator once left is 0.
	finishNs []int64
	ran      []bool

	coord   parker
	helpers []parker
	done    sync.WaitGroup
}

func newWindowPool(w int) *windowPool {
	p := &windowPool{
		finishNs: make([]int64, w),
		ran:      make([]bool, w),
		coord:    parker{wake: make(chan struct{}, 1)},
		helpers:  make([]parker, w-1),
	}
	claimable := func() bool {
		c := p.claim.Load()
		return c&0xffff < c>>16&0xffff || p.quit.Load()
	}
	p.done.Add(len(p.helpers))
	for i := range p.helpers {
		h := &p.helpers[i]
		h.wake = make(chan struct{}, 1)
		go func(id int) {
			defer p.done.Done()
			for {
				h.wait(claimable)
				if p.quit.Load() {
					return
				}
				p.work(id)
			}
		}(i + 1)
	}
	return p
}

// work claims and runs shards of the current window until none are left
// to claim: participant 0, the coordinator, from the low end of act and
// helpers from the high end. id is the participant's finish slot.
func (p *windowPool) work(id int) {
	for {
		c := p.claim.Load()
		lo, hi := c&0xffff, c>>16&0xffff
		if lo >= hi {
			return
		}
		i, claimed := lo, c+1
		if id != 0 {
			i, claimed = hi-1, c-1<<16
		}
		if !p.claim.CompareAndSwap(c, claimed) {
			continue
		}
		p.act[i].runWindow(p.end)
		p.finishNs[id] = time.Since(p.t0).Nanoseconds()
		p.ran[id] = true
		if p.left.Add(-1) == 0 {
			p.coord.unpark()
		}
	}
}

// run executes one window over act (at least two shards) and returns its
// barrier stall: the sum, over participants that ran at least one shard,
// of (last finish - own finish).
func (p *windowPool) run(act []*Engine, end Time) int64 {
	p.act, p.end, p.t0 = act, end, time.Now()
	p.left.Store(int64(len(act)))
	p.epoch++
	p.claim.Store(uint64(p.epoch)<<32 | uint64(len(act))<<16)
	for i, woken := 0, 0; i < len(p.helpers) && woken < len(act)-1; i++ {
		if p.helpers[i].unpark() {
			woken++
		}
	}
	p.work(0)
	p.coord.wait(p.finished)

	var maxNs, sumNs, n int64
	for i, ran := range p.ran {
		if !ran {
			continue
		}
		f := p.finishNs[i]
		sumNs += f
		n++
		if f > maxNs {
			maxNs = f
		}
		p.ran[i] = false
	}
	return n*maxNs - sumNs
}

func (p *windowPool) finished() bool { return p.left.Load() == 0 }

// close stops the helpers and waits for them to exit.
func (p *windowPool) close() {
	p.quit.Store(true)
	for i := range p.helpers {
		p.helpers[i].unpark()
	}
	p.done.Wait()
}

// RunUntilIdle executes events until none remain or the group is stopped.
func (g *ShardGroup) RunUntilIdle() uint64 { return g.Run(Forever) }

// mergeOutboxes drains every shard's staged cross-shard events into the
// destination queues. For each destination the entries are ordered by
// (when, source shard, staging order) — the stable sort keys only on when,
// and concatenation in shard order supplies the rest — and destination
// sequence numbers are drawn in that order, making the merged queue state
// independent of worker scheduling.
func (g *ShardGroup) mergeOutboxes() {
	for di, dst := range g.shards {
		b := g.batch[:0]
		for _, src := range g.shards {
			ob := src.outbox[di]
			if len(ob) == 0 {
				continue
			}
			b = append(b, ob...)
			clear(ob) // release the event references
			src.outbox[di] = ob[:0]
		}
		if len(b) == 0 {
			g.batch = b
			continue
		}
		sortByWhen(b)
		for _, ce := range b {
			dst.arm(ce.ev, ce.when)
		}
		g.stats.CrossShardEvents += uint64(len(b))
		clear(b)
		g.batch = b[:0]
	}
}

// sortByWhen stably sorts b by when without allocating. Stability is what
// keeps the (source shard, staging order) tie-break of equal times. Batches
// arrive short and nearly sorted (about 16 entries per window at paper
// scale), so insertion sort does the work; like sortEntries, a batch that
// needs more than a linear number of moves is finished by an O(n log n)
// sort instead. Its sorted prefix and untouched suffix keep every tie in
// original order, so the stable result is the same.
func sortByWhen(b []crossEntry) {
	budget := 2*len(b) + insertionSortMax*insertionSortMax
	for i := 1; i < len(b); i++ {
		if b[i-1].when <= b[i].when {
			continue
		}
		x, j := b[i], i
		for ; j > 0 && b[j-1].when > x.when; j-- {
			b[j] = b[j-1]
		}
		b[j] = x
		if budget -= i - j; budget < 0 {
			slices.SortStableFunc(b, func(x, y crossEntry) int { return cmp.Compare(x.when, y.when) })
			return
		}
	}
}
