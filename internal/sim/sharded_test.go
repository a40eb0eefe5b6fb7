package sim

import (
	"fmt"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// The differential harness drives an identical randomized workload — local
// schedules, cross-shard sends, cancels, reschedules, recurring events and
// owned events (local timers that re-arm themselves, and couriers that
// travel between shards by ArmOn) — through the reference serial cores and through ShardGroups at several
// worker counts, and asserts identical fire logs.
//
// Every decision derives from a hash of the event's identity, never from
// execution order, and every scheduled time is globally unique by
// construction: times are coarse*diffU + (shard*diffM + n) where n is a
// per-shard counter, so the low digits are a globally unique slot. Unique
// times make the fire order a total order on `when` alone, which lets the
// logs be compared across engines that break same-time ties differently.
//
// The same-time mode (ties) drops the slot from cross-shard deliveries:
// they land exactly on coarse step boundaries, so several origins deliver
// to one destination at the same time, and an origin sometimes sends a
// burst of events to one destination at one time. Only the sharded core
// at different worker counts can be compared on those logs.
const (
	diffShards = 5
	diffM      = 1 << 16
	diffU      = Time(diffShards * diffM)
	diffCap    = 1200 // per-shard scheduling budget
	diffTimers = 3    // owned timers per shard: enough that cancels hit one
)

// mix hashes its arguments into one harness decision word: an FNV-style
// fold, finished with splitmix64's finalizer so every output bit depends on
// every input bit. The fold alone left whole bit ranges constant across ids
// and made (h>>32)%5 determine (h>>40)%5, so some decisions never fired.
func mix(vs ...uint64) uint64 {
	h := uint64(0x9e3779b97f4a7c15)
	for _, v := range vs {
		h ^= v
		h *= 0x100000001b3
		h ^= h >> 33
	}
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	return h ^ h>>31
}

// The harness's hashed decisions, counted per shard so a test can check
// that the hash reaches every one of them.
const (
	decLocal       = iota // schedule tracked locals
	decCross              // send a cross-shard event
	decCourier            // hand a courier on by ArmOn
	decCancel             // cancel a tracked event
	decCancelRearm        // re-arm a canceled owned timer
	decReschedule         // reschedule a tracked event
	decTimerRearm         // a timer re-arms itself from its own callback
	numDecisions
)

type fireRec struct {
	when   Time
	shard  int
	id     int
	staged Time // the origin's time when it sent a cross-shard event; 0 otherwise
}

// diffShard is one logical shard's bookkeeping, including its own fire log.
// It is only ever touched from that shard's events, so its evolution is
// identical whether the shards share one engine or run on a group — and
// per-shard logs need no locking under parallel execution.
type diffShard struct {
	n        int // per-shard slot/id counter
	ticks    int // recurring-tick counter
	ids      []int
	pending  map[int]*Event
	timers   map[int]*diffOwned // pending owned timers, by arming id
	couriers []*diffOwned       // idle couriers this shard holds
	log      []fireRec
	taken    [numDecisions]int // how often each hashed decision was taken
}

// diffOwned is one owned event record of the harness: a shard's timer, or
// a courier handed from shard to shard by ArmOn. id names its current
// arming; at and staged are a courier's destination and send time, written
// by the sender and read by the destination once the record fires there.
type diffOwned struct {
	ev     Event
	id     int
	at     int
	staged Time
}

type diffHarness struct {
	seed    uint64
	engines []*Engine // engine carrying each logical shard (may all be one)
	state   [diffShards]*diffShard

	stopAtID int  // fire Stop when this event id fires (-1 = never)
	ties     bool // same-time mode: cross-shard deliveries collide
}

func newDiffHarness(seed uint64, engines []*Engine, stopAtID int, ties bool) *diffHarness {
	d := &diffHarness{seed: seed, engines: engines, stopAtID: stopAtID, ties: ties}
	for s := range d.state {
		d.state[s] = &diffShard{pending: map[int]*Event{}, timers: map[int]*diffOwned{}}
	}
	return d
}

// alloc reserves shard's next unique slot and returns (id, slot offset).
func (d *diffHarness) alloc(shard int) (int, Time) {
	st := d.state[shard]
	if st.n >= diffM {
		panic("diff harness exceeded slot budget")
	}
	n := st.n
	st.n++
	return shard*diffM + n, Time(shard*diffM + n)
}

// coarse returns the coarse step strictly containing t.
func coarse(t Time) Time { return t / diffU }

// scheduleLocal arms a tracked event on shard at a unique future time.
func (d *diffHarness) scheduleLocal(shard int, q Time, h uint64) {
	if d.state[shard].n >= diffCap {
		return
	}
	id, slot := d.alloc(shard)
	when := (q+1+Time(h%4))*diffU + slot
	e := d.engines[shard]
	ev := e.At(when, "local", func() { d.fired(shard, id, 0) })
	st := d.state[shard]
	st.pending[id] = ev
	st.ids = append(st.ids, id)
}

// scheduleCross stages an event onto dst from src; the time is at least one
// full coarse step (= the group lookahead) past src's now, and its id is
// allocated from src's slot counter so identity stays deterministic. In
// same-time mode the time is the coarse boundary itself, and the origin
// may send up to three events there. Cross events are untracked — only the
// owning shard may cancel or reschedule, and the destination never learns
// of the event until it fires.
func (d *diffHarness) scheduleCross(src, dst int, q Time, h uint64) {
	sends := uint64(1)
	if d.ties {
		sends += (h >> 2) % 3
	}
	staged := d.engines[src].Now()
	for ; sends > 0 && d.state[src].n < diffCap; sends-- {
		id, slot := d.alloc(src)
		when := (q + 2 + Time(h%4)) * diffU
		if !d.ties {
			when += slot
		}
		d.engines[src].ScheduleOn(d.engines[dst], when, "cross", func() { d.fired(dst, id, staged) })
	}
}

// armTimer arms shard's owned timer o at a unique future time as a tracked
// event under a fresh id.
func (d *diffHarness) armTimer(shard int, o *diffOwned, q Time, h uint64) {
	st := d.state[shard]
	if st.n >= diffCap {
		return
	}
	id, slot := d.alloc(shard)
	o.id = id
	d.engines[shard].Arm(&o.ev, (q+1+Time(h%4))*diffU+slot)
	st.pending[id] = &o.ev
	st.ids = append(st.ids, id)
	st.timers[id] = o
}

// sendCourier hands one of src's idle couriers to dst (possibly src
// itself) by ArmOn, at a time chosen as scheduleCross chooses one.
func (d *diffHarness) sendCourier(src, dst int, q Time, h uint64) {
	st := d.state[src]
	if len(st.couriers) == 0 || st.n >= diffCap {
		return
	}
	o := st.couriers[len(st.couriers)-1]
	st.couriers = st.couriers[:len(st.couriers)-1]
	id, slot := d.alloc(src)
	when := (q + 2 + Time(h%4)) * diffU
	if !d.ties {
		when += slot
	}
	e := d.engines[src]
	o.id, o.at, o.staged = id, dst, 0
	if dst != src {
		o.staged = e.Now()
	}
	e.ArmOn(d.engines[dst], when, &o.ev)
}

// fired logs a firing and runs the event's hashed decisions. staged is
// the origin's send time for a cross-shard event, 0 otherwise.
func (d *diffHarness) fired(shard, id int, staged Time) {
	e := d.engines[shard]
	now := e.Now()
	st := d.state[shard]
	st.log = append(st.log, fireRec{now, shard, id, staged})
	if id == d.stopAtID {
		e.Stop()
	}
	if _, ok := st.pending[id]; ok {
		delete(st.pending, id)
		for i, v := range st.ids {
			if v == id {
				st.ids = append(st.ids[:i], st.ids[i+1:]...)
				break
			}
		}
	}
	h := mix(d.seed, uint64(id))
	q := coarse(now)
	if h%3 > 0 {
		st.taken[decLocal]++
	}
	for k := uint64(0); k < h%3; k++ {
		d.scheduleLocal(shard, q, h>>(8+4*k))
	}
	crossOdds := uint64(4)
	if d.ties {
		crossOdds = 2
	}
	if (h>>16)%crossOdds == 0 {
		st.taken[decCross]++
		dst := (shard + 1 + int(h>>20)%(diffShards-1)) % diffShards
		d.scheduleCross(shard, dst, q, h>>24)
	}
	if c := mix(h, 1); c%3 == 0 {
		st.taken[decCourier]++
		d.sendCourier(shard, int(c>>2%diffShards), q, c>>8)
	}
	if (h>>32)%5 == 0 && len(st.ids) > 0 {
		st.taken[decCancel]++
		victim := st.ids[int(h>>36)%len(st.ids)]
		e.Cancel(st.pending[victim])
		delete(st.pending, victim)
		for i, v := range st.ids {
			if v == victim {
				st.ids = append(st.ids[:i], st.ids[i+1:]...)
				break
			}
		}
		if o, ok := st.timers[victim]; ok {
			delete(st.timers, victim)
			if c := mix(h, 2); c%4 != 0 {
				st.taken[decCancelRearm]++
				d.armTimer(shard, o, q, c>>2) // Cancel, then Arm again
			}
		}
	} else if (h>>40)%5 == 0 && len(st.ids) > 0 && st.n < diffCap {
		st.taken[decReschedule]++
		victim := st.ids[int(h>>44)%len(st.ids)]
		_, slot := d.alloc(shard)
		e.Reschedule(st.pending[victim], (q+1+Time(h>>48)%4)*diffU+slot)
	}
}

// seedWork arms the initial events: three tracked locals, one recurring
// tick and diffTimers owned timers per shard, and gives each shard an idle
// courier. The recurring callback re-arms at unique times until its budget
// runs out, exercising Recur's in-place re-arm inside windows; a timer
// often re-arms itself from its own callback.
func (d *diffHarness) seedWork() {
	for s := 0; s < diffShards; s++ {
		s := s
		for i := 0; i < 3; i++ {
			d.scheduleLocal(s, 0, mix(d.seed, uint64(1000+s*10+i)))
		}
		for i := 0; i < diffTimers; i++ {
			timer := &diffOwned{}
			timer.ev.Bind("timer", func() {
				id := timer.id
				delete(d.state[s].timers, id)
				d.fired(s, id, 0)
				if c := mix(d.seed, uint64(id), 3); c%4 != 0 && !timer.ev.Pending() {
					d.state[s].taken[decTimerRearm]++
					d.armTimer(s, timer, coarse(d.engines[s].Now()), c>>2)
				}
			})
			d.armTimer(s, timer, 0, mix(d.seed, uint64(2000+s*10+i)))
		}
		courier := &diffOwned{}
		courier.ev.Bind("courier", func() {
			at := courier.at
			d.state[at].couriers = append(d.state[at].couriers, courier)
			d.fired(at, courier.id, courier.staged)
		})
		d.state[s].couriers = append(d.state[s].couriers, courier)
		id, slot := d.alloc(s)
		d.engines[s].Recur(diffU+slot, "tick", func() Time {
			e := d.engines[s]
			st := d.state[s]
			st.log = append(st.log, fireRec{e.Now(), s, id, 0})
			st.ticks++
			if st.ticks >= 40 || st.n >= diffCap {
				return RecurStop
			}
			_, slot := d.alloc(s)
			return (coarse(e.Now())+1)*diffU + slot
		})
	}
}

// sortedLog merges the per-shard fire logs, ordered by when (globally
// unique by construction).
func (d *diffHarness) sortedLog() []fireRec {
	var log []fireRec
	for _, st := range d.state {
		log = append(log, st.log...)
	}
	sort.Slice(log, func(i, j int) bool { return log[i].when < log[j].when })
	return log
}

// logLen sums the per-shard fire logs.
func (d *diffHarness) logLen() int {
	n := 0
	for _, st := range d.state {
		n += len(st.log)
	}
	return n
}

// runSerial drives the workload on one engine of the given core, with all
// logical shards sharing it.
func runSerial(seed uint64, core Core, stopAtID int) []fireRec {
	e := NewEngineWithCore(0, core)
	engines := make([]*Engine, diffShards)
	for i := range engines {
		engines[i] = e
	}
	d := newDiffHarness(seed, engines, stopAtID, false)
	d.seedWork()
	e.RunUntilIdle()
	d.checkDrained(e.Pending())
	return d.sortedLog()
}

// runSharded drives the workload on a ShardGroup with the given workers.
func runSharded(seed uint64, workers, stopAtID int) []fireRec {
	return runShardedHarness(seed, workers, stopAtID, false).sortedLog()
}

// runShardedHarness drives the workload, in same-time mode if ties, on a
// ShardGroup with the given workers and returns the harness. The lookahead
// is one coarse step, matching scheduleCross's guarantee.
func runShardedHarness(seed uint64, workers, stopAtID int, ties bool) *diffHarness {
	g := NewShardGroup(0, diffShards, workers, diffU)
	engines := make([]*Engine, diffShards)
	for i := range engines {
		engines[i] = g.Shard(i)
	}
	d := newDiffHarness(seed, engines, stopAtID, ties)
	d.seedWork()
	g.RunUntilIdle()
	d.checkDrained(g.Pending())
	return d
}

// checkDrained panics if a run without a stop left events pending: every
// tracked event and every courier must have fired. It catches engine
// faults that every core shares, which the log comparison cannot see.
func (d *diffHarness) checkDrained(enginePending int) {
	if d.stopAtID >= 0 {
		return
	}
	tracked, couriers := 0, 0
	for _, st := range d.state {
		tracked += len(st.pending)
		couriers += len(st.couriers)
	}
	if tracked != 0 || couriers != diffShards || enginePending != 0 {
		panic(fmt.Sprintf("diff harness: %d tracked events pending, %d of %d couriers idle, engine reports %d pending",
			tracked, couriers, diffShards, enginePending))
	}
}

// checkMergeOrder asserts the barrier's canonical merge order on one shard's
// fire log. Windows partition time in order, so among cross-shard
// deliveries at one time, x was merged before y — at an earlier barrier,
// or at the same barrier ahead of y in (source shard, staging order) — if
// x came from the same source earlier (a smaller id), or from a
// lower-numbered source no later. Such an x must fire first.
func checkMergeOrder(t *testing.T, tag string, log []fireRec) {
	t.Helper()
	src := func(r fireRec) int { return r.id / diffM }
	for i, y := range log {
		if y.staged == 0 {
			continue
		}
		for _, x := range log[i+1:] {
			if x.when != y.when {
				break
			}
			if x.staged == 0 {
				continue
			}
			if src(x) == src(y) && x.id < y.id || src(x) < src(y) && x.staged <= y.staged {
				t.Fatalf("%s: cross-shard %+v fired after %+v, which it precedes in merge order", tag, x, y)
			}
		}
	}
}

// TestDiffHarnessDecisionsFire checks that the harness hash reaches every
// decision: on seeds 1 and 7 each kind of operation happens, so the
// differential tests exercise all of them.
func TestDiffHarnessDecisionsFire(t *testing.T) {
	names := [numDecisions]string{"local", "cross", "courier", "cancel", "cancel-rearm", "reschedule", "timer-rearm"}
	for _, seed := range []uint64{1, 7} {
		d := runShardedHarness(seed, 1, -1, false)
		var taken [numDecisions]int
		for _, st := range d.state {
			for k, n := range st.taken {
				taken[k] += n
			}
		}
		for k, n := range taken {
			if n == 0 {
				t.Errorf("seed %d: decision %s never taken (%v)", seed, names[k], taken)
			}
		}
	}
}

func logsEqual(t *testing.T, tag string, want, got []fireRec) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: fired %d events, want %d", tag, len(got), len(want))
	}
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("%s: fire %d = %+v, want %+v", tag, i, got[i], want[i])
		}
	}
}

// TestShardedDifferential drives identical randomized schedule / cancel /
// reschedule / cross-shard-send sequences through the heap core, the wheel
// core, and ShardGroups at 1, 2 and 4 workers, asserting identical fire
// logs for every seed.
func TestShardedDifferential(t *testing.T) {
	seeds := []uint64{1, 7, 42, 1234}
	if testing.Short() {
		seeds = seeds[:2]
	}
	for _, seed := range seeds {
		ref := runSerial(seed, CoreHeap, -1)
		if len(ref) < 100 {
			t.Fatalf("seed %d: degenerate workload, only %d fires", seed, len(ref))
		}
		logsEqual(t, "wheel", ref, runSerial(seed, CoreWheel, -1))
		logsEqual(t, "sharded/1", ref, runSharded(seed, 1, -1))
		logsEqual(t, "sharded/2", ref, runSharded(seed, 2, -1))
		logsEqual(t, "sharded/4", ref, runSharded(seed, 4, -1))
	}
}

// TestShardedStopDeterministic verifies that Stop called from an event
// callback ends every worker-count variant at the same point: the window
// in flight completes, so the surviving fire log is identical at 1, 2 and
// 4 workers (it may legitimately differ from a serial engine, which stops
// immediately).
func TestShardedStopDeterministic(t *testing.T) {
	const seed = 42
	full := runSharded(seed, 1, -1)
	stopAt := full[len(full)/2].id
	ref := runSharded(seed, 1, stopAt)
	if len(ref) >= len(full) {
		t.Fatalf("stop did not shorten the run (%d vs %d fires)", len(ref), len(full))
	}
	logsEqual(t, "stop/2", ref, runSharded(seed, 2, stopAt))
	logsEqual(t, "stop/4", ref, runSharded(seed, 4, stopAt))
}

// TestShardedSameTimeCrossOriginOrder pins same-time deliveries from two
// origin shards to one destination: C sends at t=6 and A at t=7, both
// landing on D at t=10 with lookahead 3. The serial engine fires them in
// scheduling order [C A], and the window barrier's canonical (when, source
// shard, staging order) merge must reproduce that order at every worker
// count. Fixed-seed differentials never generated this pattern.
func TestShardedSameTimeCrossOriginOrder(t *testing.T) {
	const lookahead = 3
	// program arms the events on d (destination), e (an unrelated early
	// event), c and a (the two origins) and returns the delivery log.
	program := func(d, e, c, a *Engine) *[]string {
		var order []string
		e.At(5, "e5", func() {})
		c.At(6, "c6", func() {
			c.ScheduleOn(d, 10, "fromC", func() { order = append(order, "C") })
		})
		c.At(8, "c8", func() {})
		a.At(7, "a7", func() {
			a.ScheduleOn(d, 10, "fromA", func() { order = append(order, "A") })
		})
		return &order
	}
	s := NewEngineWithCore(1, CoreWheel)
	serial := program(s, s, s, s)
	s.RunUntilIdle()
	if want := []string{"C", "A"}; !reflect.DeepEqual(*serial, want) {
		t.Fatalf("serial order %v, want %v", *serial, want)
	}
	for _, workers := range []int{1, 2, 4} {
		g := NewShardGroup(1, 4, workers, lookahead)
		got := program(g.Shard(0), g.Shard(1), g.Shard(2), g.Shard(3))
		g.RunUntilIdle()
		if !reflect.DeepEqual(*got, *serial) {
			t.Errorf("sharded@%d order %v, want serial %v", workers, *got, *serial)
		}
	}
}

// TestShardedCrossBelowLookaheadPanics pins the conservative guarantee: a
// cross-shard event inside the current window is a model bug and must
// panic rather than corrupt causality.
func TestShardedCrossBelowLookaheadPanics(t *testing.T) {
	g := NewShardGroup(0, 2, 1, 1000)
	a, b := g.Shard(0), g.Shard(1)
	a.At(10, "trigger", func() {
		defer func() {
			if recover() == nil {
				t.Error("in-window cross-shard schedule below lookahead did not panic")
			}
			panic("unwind") // keep the engine from continuing after the failed schedule
		}()
		a.ScheduleOn(b, a.Now()+1, "bad", func() {})
	})
	func() {
		defer func() { recover() }()
		g.RunUntilIdle()
	}()
}

// TestShardedRunOnShardPanics pins the misuse guard: driving a grouped
// shard with Engine.Run would bypass the window protocol.
func TestShardedRunOnShardPanics(t *testing.T) {
	g := NewShardGroup(0, 2, 1, 1000)
	defer func() {
		if recover() == nil {
			t.Error("Engine.Run on a grouped shard did not panic")
		}
	}()
	g.Shard(0).Run(Forever)
}

// TestShardGroupStats sanity-checks the window counters on a workload with
// guaranteed cross-shard traffic.
func TestShardGroupStats(t *testing.T) {

	g := NewShardGroup(0, diffShards, 2, diffU)
	engines := make([]*Engine, diffShards)
	for i := range engines {
		engines[i] = g.Shard(i)
	}
	d := newDiffHarness(7, engines, -1, false)
	d.seedWork()
	g.RunUntilIdle()
	st := g.Stats()
	if st.Windows == 0 {
		t.Error("no windows recorded")
	}
	if st.CrossShardEvents == 0 {
		t.Error("no cross-shard events recorded despite cross sends in the workload")
	}
	if st.ActiveShardWindows < st.Windows {
		t.Errorf("active shard-windows %d < windows %d", st.ActiveShardWindows, st.Windows)
	}
	if g.Fired() != uint64(d.logLen()) {
		t.Errorf("group fired %d, log has %d", g.Fired(), d.logLen())
	}
}

// parkedIn reports whether some goroutine is parked on a channel receive in
// parker.wait with frame in its stack: "(*windowPool).run(" for the
// coordinator, "newWindowPool.func" for a helper.
func parkedIn(frame string) bool {
	buf := make([]byte, 1<<20)
	buf = buf[:runtime.Stack(buf, true)]
	for _, g := range strings.Split(string(buf), "\n\n") {
		if strings.Contains(g, "[chan receive") && strings.Contains(g, "(*parker).wait") && strings.Contains(g, frame) {
			return true
		}
	}
	return false
}

// await polls cond for up to two seconds of host time.
func await(cond func() bool) bool {
	for deadline := time.Now().Add(2 * time.Second); time.Now().Before(deadline); time.Sleep(100 * time.Microsecond) {
		if cond() {
			return true
		}
	}
	return cond()
}

// parkProgram arms rounds of 1 ms of simulated time on a 3-shard group.
// Each round opens with a multi-shard window (an event per shard, each
// sending to the next shard and arming a local follow-on), then runs a
// single-shard stretch on shard 0. With probe set, every stretch holds its
// window until a parked helper is seen, so the next round must wake it,
// and round 1 adds a window whose two shards meet, after which the
// coordinator's returns at once and the helper's holds until the
// coordinator is seen parked at the barrier. The probes spend host time
// only; the returned per-shard fire logs do not depend on them.
func parkProgram(g *ShardGroup, rounds int, probe bool) (logs *[3][]string, helperParked, coordParked *bool) {
	logs = new([3][]string)
	helperParked, coordParked = new(bool), new(bool)
	var met atomic.Int32
	for r := 0; r < rounds; r++ {
		base := Time(r) * Millisecond
		for s := 0; s < 3; s++ {
			e, dst, tag := g.Shard(s), g.Shard((s+1)%3), fmt.Sprintf("r%d", r)
			e.At(base+Time(s)*Microsecond, "open", func() {
				logs[s] = append(logs[s], fmt.Sprintf("%s open %v", tag, e.Now()))
				from := s
				e.ScheduleOn(dst, e.Now()+g.Lookahead(), "send", func() {
					logs[dst.ShardID()] = append(logs[dst.ShardID()], fmt.Sprintf("%s from %d %v", tag, from, dst.Now()))
				})
				e.After(2*Microsecond, "follow", func() {
					logs[s] = append(logs[s], fmt.Sprintf("%s follow %v", tag, e.Now()))
				})
			})
		}
		r := r
		e0 := g.Shard(0)
		e0.At(base+500*Microsecond, "stretch", func() {
			logs[0] = append(logs[0], fmt.Sprintf("r%d stretch %v", r, e0.Now()))
			if probe {
				*helperParked = await(func() bool { return parkedIn("newWindowPool.func") }) && (r == 0 || *helperParked)
			}
		})
		if !probe || r != 1 {
			continue
		}
		for s := 1; s < 3; s++ {
			e := g.Shard(s)
			e.At(base+700*Microsecond, "meet", func() {
				met.Add(1)
				await(func() bool { return met.Load() == 2 })
				self := make([]byte, 1<<16)
				if strings.Contains(string(self[:runtime.Stack(self, false)]), "(*windowPool).run(") {
					return // the coordinator's shard: finish first
				}
				*coordParked = await(func() bool { return parkedIn("(*windowPool).run(") })
			})
		}
	}
	return logs, helperParked, coordParked
}

// settled waits for the goroutine count to fall back to want, allowing a
// helper that has signalled its exit a moment to return, and reports the
// final count. It may end below want when a goroutine left over from an
// earlier test exits meanwhile.
func settled(want int) int {
	await(func() bool { return runtime.NumGoroutine() <= want })
	return runtime.NumGoroutine()
}

// TestShardParkingAndHelperLifetime runs windows that alternate with host-
// time stretches long past the spin budget, so helpers and the coordinator
// park and are woken again, and checks that the fire logs match the
// one-worker run exactly. It also checks that Run leaves no helper
// goroutine behind, whether it ends idle, by Stop, by the wall deadline, or
// at each of repeated Run(until) calls.
func TestShardParkingAndHelperLifetime(t *testing.T) {
	const rounds, lookahead = 4, 10 * Microsecond
	ref := NewShardGroup(1, 3, 1, lookahead)
	want, _, _ := parkProgram(ref, rounds, false)
	ref.RunUntilIdle()
	parallel := runtime.GOMAXPROCS(0) >= 2

	for _, workers := range []int{2, 4} {
		g := NewShardGroup(1, 3, workers, lookahead)
		logs, helperParked, coordParked := parkProgram(g, rounds, parallel)
		before := runtime.NumGoroutine()
		g.RunUntilIdle()
		if n := settled(before); n > before {
			t.Errorf("workers=%d: %d goroutines after an idle Run, %d before", workers, n, before)
		}
		if !reflect.DeepEqual(*logs, *want) {
			t.Errorf("workers=%d: fire logs %v, want %v", workers, *logs, *want)
		}
		if parallel && (!*helperParked || !*coordParked) {
			t.Errorf("workers=%d: helper parked %v, coordinator parked %v; want both", workers, *helperParked, *coordParked)
		}
	}

	t.Run("repeated", func(t *testing.T) {
		g := NewShardGroup(1, 3, 2, lookahead)
		logs, _, _ := parkProgram(g, rounds, false)
		for until := Time(0); g.Pending() > 0; until += 300 * Microsecond {
			before := runtime.NumGoroutine()
			g.Run(until)
			if n := settled(before); n > before {
				t.Fatalf("%d goroutines after Run(%v), %d before", n, until, before)
			}
		}
		if !reflect.DeepEqual(*logs, *want) {
			t.Errorf("fire logs %v, want %v", *logs, *want)
		}
	})

	t.Run("stop", func(t *testing.T) {
		g := NewShardGroup(1, 3, 2, lookahead)
		parkProgram(g, rounds, false)
		g.Shard(1).At(2*Millisecond+Microsecond, "stop", g.Stop)
		before := runtime.NumGoroutine()
		g.RunUntilIdle()
		if !g.Stopped() || g.Pending() == 0 {
			t.Fatalf("Stop did not end the run early (stopped %v, %d pending)", g.Stopped(), g.Pending())
		}
		if n := settled(before); n > before {
			t.Errorf("%d goroutines after a stopped Run, %d before", n, before)
		}
	})

	t.Run("deadline", func(t *testing.T) {
		g := NewShardGroup(1, 3, 2, lookahead)
		for s := 0; s < 3; s++ {
			e, dst := g.Shard(s), g.Shard((s+1)%3)
			e.Recur(Time(s+1), "chain", func() Time {
				e.ScheduleOn(dst, e.Now()+lookahead, "send", func() {})
				return e.Now() + Microsecond
			})
		}
		g.SetWallDeadline(time.Now().Add(20 * time.Millisecond))
		before := runtime.NumGoroutine()
		g.RunUntilIdle()
		if !g.WallDeadlineHit() {
			t.Fatal("an endless run returned without hitting its wall deadline")
		}
		if n := settled(before); n > before {
			t.Errorf("%d goroutines after a deadline exit, %d before", n, before)
		}
	})
}
