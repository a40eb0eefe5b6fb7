package sim

import (
	"math/rand"
	"sort"
	"strconv"
	"testing"
)

// The timer wheel must be observationally identical to the reference 4-ary
// heap: same events, same fire times, same order — including the seq
// tie-break among same-time events — under any interleaving of schedules,
// cancels and reschedules. These tests drive both cores with mirrored
// operation sequences and compare complete fire logs.

// firing records one observed event execution.
type firing struct {
	when  Time
	label string
}

// mirroredEngines runs the same randomized operation sequence against a
// wheel-core and a heap-core engine and returns both fire logs.
func mirroredEngines(t *testing.T, seed int64, ops, maxDelta int) (wheelLog, heapLog []firing) {
	t.Helper()
	run := func(core Core) []firing {
		var log []firing
		e := NewEngineWithCore(1, core)
		rng := rand.New(rand.NewSource(seed))
		var live []*Event
		record := func(label string) func() {
			return func() { log = append(log, firing{e.Now(), label}) }
		}
		for i := 0; i < ops; i++ {
			switch op := rng.Intn(10); {
			case op < 5: // schedule
				d := Time(rng.Intn(maxDelta)) + 1
				label := strconv.Itoa(i) // unique, so any same-time swap shows
				live = append(live, e.After(d, label, record(label)))
			case op < 7 && len(live) > 0: // cancel
				idx := rng.Intn(len(live))
				e.Cancel(live[idx])
				live = append(live[:idx], live[idx+1:]...)
			case op < 9 && len(live) > 0: // reschedule
				idx := rng.Intn(len(live))
				e.Reschedule(live[idx], e.Now()+Time(rng.Intn(maxDelta))+1)
			default: // step, retiring fired events from the live set
				if e.Pending() > 0 {
					e.Step()
					n := 0
					for _, ev := range live {
						if ev.When() > e.Now() || ev.Canceled() {
							live[n] = ev
							n++
						}
					}
					// Events that fired were recycled; drop anything whose
					// record we can no longer trust by rebuilding from scratch
					// is not possible, so filter conservatively via Pending
					// bookkeeping below.
					live = live[:n]
				}
			}
		}
		e.RunUntilIdle()
		return log
	}
	return run(CoreWheel), run(CoreHeap)
}

// TestWheelMatchesHeapRandomized is the differential property test: 50
// random operation mixes, fire logs must match event for event.
func TestWheelMatchesHeapRandomized(t *testing.T) {
	for seed := int64(1); seed <= 50; seed++ {
		for _, maxDelta := range []int{50, 5000, 20_000_000} {
			wheelLog, heapLog := mirroredEngines(t, seed, 400, maxDelta)
			if len(wheelLog) != len(heapLog) {
				t.Fatalf("seed %d delta %d: wheel fired %d events, heap fired %d",
					seed, maxDelta, len(wheelLog), len(heapLog))
			}
			for i := range wheelLog {
				if wheelLog[i] != heapLog[i] {
					t.Fatalf("seed %d delta %d: firing %d differs: wheel %+v heap %+v",
						seed, maxDelta, i, wheelLog[i], heapLog[i])
				}
			}
		}
	}
}

// TestWheelSameTimeFIFO: same-time events fire in schedule order across all
// wheel levels (entries reach the run or the late heap via different paths —
// direct insert, near drain, far cascade — and must still sort by seq).
func TestWheelSameTimeFIFO(t *testing.T) {
	e := NewEngineWithCore(1, CoreWheel)
	const at = Time(3 * Millisecond)
	var got []int
	for i := 0; i < 100; i++ {
		i := i
		e.At(at, "fifo", func() { got = append(got, i) })
	}
	// Same time, scheduled later, after the frontier context changed.
	e.After(Microsecond, "spacer", func() {
		for i := 100; i < 120; i++ {
			i := i
			e.At(at, "fifo2", func() { got = append(got, i) })
		}
	})
	e.RunUntilIdle()
	if len(got) != 120 {
		t.Fatalf("fired %d of 120", len(got))
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("position %d fired event %d (same-time FIFO violated)", i, v)
		}
	}
}

// levelOf reports which wheel structure holds ev's live entry: "late",
// "run", "near", "far" or "overflow", or "" if none does.
func levelOf(w *wheel, ev *Event) string {
	holds := func(ents []entry) bool {
		for _, en := range ents {
			if en.ev == ev && en.live() {
				return true
			}
		}
		return false
	}
	runHolds := func(run []runCell) bool {
		for _, rc := range run {
			if rc.ev == ev && rc.live() {
				return true
			}
		}
		return false
	}
	slotsHold := func(slots []slotList) bool {
		for _, sl := range slots {
			for c := sl.head; c != nil; c = c.next {
				for _, cl := range c.ents[:c.n] {
					if cl.ev == ev && cl.live() {
						return true
					}
				}
			}
		}
		return false
	}
	switch {
	case holds(w.late):
		return "late"
	case runHolds(w.run[w.head:]):
		return "run"
	case slotsHold(w.near[:]):
		return "near"
	case slotsHold(w.far[:]):
		return "far"
	case holds(w.overflow):
		return "overflow"
	}
	return ""
}

// farSlotWidth is the span of one far-wheel slot.
const farSlotWidth = Time(1) << farShift

// TestWheelLevelPlacement places one entry at each distance from the
// frontier and asserts the structure that holds it — near slot, far slot,
// overflow, and the near-Forever horizon whose arithmetic must not overflow
// int64 — then drains the first slot and checks the run/late split: a
// handler's insert below the frontier goes to the late heap and fires
// before a later entry still waiting in the run.
func TestWheelLevelPlacement(t *testing.T) {
	e := NewEngineWithCore(1, CoreWheel)
	w := &e.wheel
	var order []string
	fire := func(label string) func() {
		return func() { order = append(order, label) }
	}
	var second *Event
	e.At(nearSlotWidth/2, "first", func() {
		order = append(order, "first")
		late := e.After(1, "late", fire("late"))
		if got := levelOf(w, late); got != "late" {
			t.Errorf("insert below the frontier is in %q, want late", got)
		}
		if got := levelOf(w, second); got != "run" {
			t.Errorf("rest of the drained slot is in %q, want run", got)
		}
	})
	second = e.At(nearSlotWidth/2+10, "second", fire("second"))
	placed := []struct {
		at    Time
		label string
		level string
	}{
		{nearSlotWidth - 1, "slot-end", "near"},
		{20 * nearSlotWidth, "near", "near"},
		{wheelSlots*nearSlotWidth - 1, "near-edge", "near"},
		{wheelSlots * nearSlotWidth, "far-start", "far"},
		{3 * farSlotWidth, "far", "far"},
		{wheelSlots*farSlotWidth - 1, "far-edge", "far"},
		{wheelSlots * farSlotWidth, "overflow", "overflow"},
		{Forever - 1, "edge", "overflow"},
	}
	for _, p := range placed {
		ev := e.At(p.at, p.label, fire(p.label))
		if got := levelOf(w, ev); got != p.level {
			t.Errorf("%s at %v is in %q, want %s", p.label, p.at, got, p.level)
		}
	}
	if got := levelOf(w, second); got != "near" {
		t.Errorf("second is in %q before any drain, want near", got)
	}
	e.RunUntilIdle()
	want := []string{"first", "late", "second"}
	for _, p := range placed {
		want = append(want, p.label)
	}
	if len(order) != len(want) {
		t.Fatalf("fired %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("fired %v, want %v", order, want)
		}
	}
}

// TestWheelTeleport: when both wheels empty out, the frontier must jump
// straight to the overflow heap's earliest entry instead of walking windows.
func TestWheelTeleport(t *testing.T) {
	e := NewEngineWithCore(1, CoreWheel)
	fired := false
	e.At(Time(10*Minute), "lonely", func() { fired = true })
	e.RunUntilIdle()
	if !fired || e.Now() != Time(10*Minute) {
		t.Fatalf("teleport fire: fired=%v now=%v", fired, e.Now())
	}
}

// TestWheelCancelEverywhere cancels entries sitting at every level and
// verifies none fire and Pending drops to zero.
func TestWheelCancelEverywhere(t *testing.T) {
	e := NewEngineWithCore(1, CoreWheel)
	var evs []*Event
	for _, d := range []Time{50, 30 * nearSlotWidth, wheelSlots * nearSlotWidth * 5, Hour} {
		evs = append(evs, e.After(d, "doomed", func() { t.Fatal("canceled event fired") }))
	}
	for _, ev := range evs {
		e.Cancel(ev)
	}
	e.RunUntilIdle()
	if e.Pending() != 0 {
		t.Fatalf("Pending = %d after canceling everything", e.Pending())
	}
}

// TestWheelRescheduleAcrossLevels moves one event between levels repeatedly,
// asserting the structure that holds its live entry after every move, and
// checks it fires exactly once at its final time. The second half moves it
// from inside a handler, once its slot has been drained into the run.
func TestWheelRescheduleAcrossLevels(t *testing.T) {
	e := NewEngineWithCore(1, CoreWheel)
	w := &e.wheel
	count := 0
	ev := e.After(Hour, "mover", func() { count++ })
	move := func(to Time, level string) {
		t.Helper()
		e.Reschedule(ev, to)
		if got := levelOf(w, ev); got != level {
			t.Errorf("rescheduled to %v: in %q, want %s", to, got, level)
		}
	}
	if got := levelOf(w, ev); got != "overflow" {
		t.Errorf("an hour out: in %q, want overflow", got)
	}
	base := 5 * nearSlotWidth
	move(nearSlotWidth/2, "near")
	move(100*nearSlotWidth, "near")
	move(7*farSlotWidth, "far")
	move(wheelSlots*farSlotWidth*2, "overflow")
	move(base+nearSlotWidth/2, "near")
	e.At(base+1, "probe", func() {
		if got := levelOf(w, ev); got != "run" {
			t.Errorf("after the drain: in %q, want run", got)
		}
		move(e.Now()+2, "late")
		move(3*farSlotWidth, "far")
		move(e.Now()+nearSlotWidth, "near")
		move(base+nearSlotWidth-1, "late")
	})
	final := base + nearSlotWidth - 1
	e.RunUntilIdle()
	if count != 1 || e.Now() != final {
		t.Fatalf("count=%d now=%v, want 1 fire at %v", count, e.Now(), final)
	}
}

// runKey packs a run cell key the way drainNear does.
func runKey(off Time, seq uint64) uint64 { return uint64(off)<<seqBits | seq }

// TestSortRun checks the run sort against sort.Slice on random, sorted,
// reversed and same-time runs at lengths on both sides of the
// insertion-sort cutoff. Offsets span a whole near slot, from 0 to
// nearSlotWidth-1, so the top key bits carry time and the low bits seq.
func TestSortRun(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{0, 1, 2, 3, insertionSortMax, insertionSortMax + 1, 40, 333, 2000} {
		for shape := 0; shape < 4; shape++ {
			a := make([]runCell, n)
			for i := range a {
				var off Time
				switch shape {
				case 0:
					off = Time(rng.Intn(int(nearSlotWidth)))
				case 1:
					off = Time(i) % nearSlotWidth
				case 2:
					off = Time(n-i) % nearSlotWidth
				default:
					off = 7 // all tied: seq alone orders
				}
				a[i].key = runKey(off, uint64(i))
			}
			rng.Shuffle(n, func(i, j int) { a[i], a[j] = a[j], a[i] })
			if shape == 1 || shape == 2 {
				sort.Slice(a, func(i, j int) bool { return a[i].key&seqMask < a[j].key&seqMask })
			}
			want := append([]runCell(nil), a...)
			sort.Slice(want, func(i, j int) bool {
				oi, oj := want[i].key>>seqBits, want[j].key>>seqBits
				if oi != oj {
					return oi < oj
				}
				return want[i].key&seqMask < want[j].key&seqMask
			})
			sortRun(a)
			for i := range want {
				if a[i] != want[i] {
					t.Fatalf("n=%d shape=%d: position %d = %+v, want %+v", n, shape, i, a[i], want[i])
				}
			}
		}
	}
}

// TestRunKeySlotEdges checks the run key at the slot edges: offsets 0 and
// nearSlotWidth-1 sort by time first, and ties at either edge break by
// seq, up to the largest seq a key can hold. The wheel must then fire
// events at those edges in the heap core's order.
func TestRunKeySlotEdges(t *testing.T) {
	const top = Time(nearSlotWidth - 1)
	a := []runCell{
		{key: runKey(top, 1)},
		{key: runKey(0, seqMask)},
		{key: runKey(top, 0)},
		{key: runKey(0, 3)},
		{key: runKey(top, seqMask)},
		{key: runKey(0, 0)},
	}
	sortRun(a)
	want := []uint64{runKey(0, 0), runKey(0, 3), runKey(0, seqMask), runKey(top, 0), runKey(top, 1), runKey(top, seqMask)}
	for i := range want {
		if a[i].key != want[i] {
			t.Fatalf("position %d: offset %d seq %d, want offset %d seq %d",
				i, a[i].key>>seqBits, a[i].key&seqMask, want[i]>>seqBits, want[i]&seqMask)
		}
	}

	fire := func(core Core) []firing {
		e := NewEngineWithCore(1, core)
		var log []firing
		base := 3 * nearSlotWidth
		for i, off := range []Time{top, 0, top, 0, top / 2, 0, top} {
			label := strconv.Itoa(i)
			e.At(base+off, label, func() { log = append(log, firing{e.Now(), label}) })
		}
		e.RunUntilIdle()
		return log
	}
	heap, wheel := fire(CoreHeap), fire(CoreWheel)
	if len(wheel) != 7 {
		t.Fatalf("wheel fired %d of 7", len(wheel))
	}
	for i := range heap {
		if wheel[i] != heap[i] {
			t.Fatalf("firing %d: wheel %+v, heap %+v", i, wheel[i], heap[i])
		}
	}
}

// TestSeqExhaustionPanics: the run key holds seqBits of seq, so the engine
// refuses to draw a sequence number at 2^seqBits instead of wrapping into
// the time bits.
func TestSeqExhaustionPanics(t *testing.T) {
	for _, core := range []Core{CoreWheel, CoreHeap} {
		e := NewEngineWithCore(1, core)
		e.seq = maxSeq - 1
		e.At(5, "last", func() {}) // the largest seq still fits
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("core %v: scheduling with seq 2^%d did not panic", core, seqBits)
				}
			}()
			e.At(6, "overflow", func() {})
		}()
	}
}

// TestRecurBasic: a recurring event re-arms in place until it returns
// RecurStop, and the engine counts each firing.
func TestRecurBasic(t *testing.T) {
	for _, core := range []Core{CoreWheel, CoreHeap} {
		e := NewEngineWithCore(1, core)
		var times []Time
		e.Recur(Time(10), "pulse", func() Time {
			times = append(times, e.Now())
			if len(times) == 5 {
				return RecurStop
			}
			return e.Now() + 10
		})
		e.RunUntilIdle()
		want := []Time{10, 20, 30, 40, 50}
		if len(times) != len(want) {
			t.Fatalf("core %v: fired at %v, want %v", core, times, want)
		}
		for i := range want {
			if times[i] != want[i] {
				t.Fatalf("core %v: fired at %v, want %v", core, times, want)
			}
		}
		if e.Pending() != 0 {
			t.Fatalf("core %v: Pending = %d after RecurStop", core, e.Pending())
		}
	}
}

// TestRecurSeqMatchesTrailingAt: a Recur re-arm must consume the same seq
// number, at the same point, as the schedule-from-inside-the-handler pattern
// it replaces — otherwise same-time ordering against other events shifts.
func TestRecurSeqMatchesTrailingAt(t *testing.T) {
	run := func(useRecur bool) []firing {
		var log []firing
		e := NewEngineWithCore(1, CoreWheel)
		// A competitor that schedules at the same instants as the periodic
		// event; relative order depends purely on seq assignment order.
		e.Recur(Time(5), "competitor", func() Time {
			log = append(log, firing{e.Now(), "competitor"})
			return e.Now() + 5
		})
		if useRecur {
			e.Recur(Time(5), "periodic", func() Time {
				log = append(log, firing{e.Now(), "periodic"})
				if e.Now() >= 50 {
					return RecurStop
				}
				return e.Now() + 5
			})
		} else {
			var tick func()
			tick = func() {
				log = append(log, firing{e.Now(), "periodic"})
				if e.Now() >= 50 {
					return
				}
				e.At(e.Now()+5, "periodic", tick)
			}
			e.At(Time(5), "periodic", tick)
		}
		e.Run(Time(51))
		return log
	}
	recurLog, atLog := run(true), run(false)
	if len(recurLog) != len(atLog) {
		t.Fatalf("recur fired %d, trailing-At fired %d", len(recurLog), len(atLog))
	}
	for i := range recurLog {
		if recurLog[i] != atLog[i] {
			t.Fatalf("firing %d: recur %+v vs trailing-At %+v", i, recurLog[i], atLog[i])
		}
	}
}

// TestNextBit covers the bitmap scanner's edges.
func TestNextBit(t *testing.T) {
	var bm [wheelSlots / 64]uint64
	if got := nextBit(&bm, 0); got != wheelSlots {
		t.Fatalf("empty bitmap: got %d", got)
	}
	bm[0] = 1
	if got := nextBit(&bm, 0); got != 0 {
		t.Fatalf("bit 0: got %d", got)
	}
	if got := nextBit(&bm, 1); got != wheelSlots {
		t.Fatalf("past bit 0: got %d", got)
	}
	bm[0] = 0
	bm[3] = 1 << 63 // slot 255
	for _, from := range []int{0, 64, 192, 255} {
		if got := nextBit(&bm, from); got != 255 {
			t.Fatalf("slot 255 from %d: got %d", from, got)
		}
	}
	bm[1] = 1 << 5 // slot 69
	if got := nextBit(&bm, 69); got != 69 {
		t.Fatalf("exact hit: got %d", got)
	}
	if got := nextBit(&bm, 70); got != 255 {
		t.Fatalf("after slot 69: got %d", got)
	}
}

// BenchmarkWheelVsHeapChurn compares the cores on the engine's churn
// pattern (schedule far, cancel, reschedule near) — the wheel's O(1)
// insert/cancel should dominate here.
func BenchmarkWheelVsHeapChurn(b *testing.B) {
	for _, bc := range []struct {
		name string
		core Core
	}{{"wheel", CoreWheel}, {"heap", CoreHeap}} {
		b.Run(bc.name, func(b *testing.B) {
			e := NewEngineWithCore(1, bc.core)
			// Standing population of far-future events, heavy near-term churn.
			for i := 0; i < 1024; i++ {
				e.After(Time(i+1)*Millisecond, "standing", func() {})
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ev := e.After(Time(500+i%1000), "churn", func() {})
				e.Reschedule(ev, e.Now()+Time(200+i%100))
				e.Cancel(ev)
				if i%8 == 0 && e.Pending() > 0 {
					e.Step()
				}
			}
		})
	}
}

// BenchmarkWheelSlotBurst times the slot-local ordering path: a burst of
// 944 events (one per rank of a 59-node, 16-way run) spread over a single
// near slot, each of whose handlers schedules a sub-slot follow-on, as an
// Allreduce round does. One op is one burst; ns/event divides by the 1888
// events it fires. BenchmarkEngineScheduleFire is the contrast: it only
// ever holds one pending event.
func BenchmarkWheelSlotBurst(b *testing.B) {
	const ranks = 944
	for _, bc := range []struct {
		name string
		core Core
	}{{"wheel", CoreWheel}, {"heap", CoreHeap}} {
		b.Run(bc.name, func(b *testing.B) {
			e := NewEngineWithCore(1, bc.core)
			follow := func() {}
			handlers := make([]func(), ranks)
			for i := range handlers {
				d := Time(1 + i*37%300)
				handlers[i] = func() { e.After(d, "follow", follow) }
			}
			b.ReportAllocs()
			b.ResetTimer()
			for n := 0; n < b.N; n++ {
				base := (e.Now()>>nearShift + 2) << nearShift // a fresh slot
				for i, h := range handlers {
					e.At(base+Time(i*7919)%nearSlotWidth, "burst", h)
				}
				e.RunUntilIdle()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*2*ranks), "ns/event")
		})
	}
}
