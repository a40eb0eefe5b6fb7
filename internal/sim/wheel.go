package sim

import "math/bits"

// Hierarchical timer wheel. Two 256-slot wheels cover the near future —
// 1.024us slots out to ~262us, then 262us slots out to ~67ms — and a 4-ary
// heap holds the far overflow (multi-second cron jobs, hour-scale
// timeouts). In front of the wheels sits the current run: whenever the
// frontier advances over a near slot, that slot's live entries are copied
// into one reused buffer and sorted once by (when, seq). Events that a
// handler schedules below the frontier after that drain go to a small late
// heap, and popping merges the run with the late heap by one comparison.
// Scheduling, lazy cancellation and rescheduling are O(1); the ordering
// work is one sort per drained slot plus a heap push+pop for each late
// insert. Slots are narrow (the calendar-queue observation: narrow buckets
// make in-bucket ordering a short sort), so runs stay short and late
// inserts stay rare.
//
// Cell layout. Near and far slot cells are 16 bytes, {seq, ev}: a cell is
// live iff its event is pending with the same seq, and a live cell's time
// is its event's when, so the time is read at drain or cascade, where the
// liveness check reads the event anyway. Run cells are 16 bytes too,
// {key, ev}, with key = (when - runBase)<<seqBits | seq: within one near
// slot the offset fits the top nearShift bits, so the run sort compares
// one uint64. The late and overflow heaps keep 24-byte {when, seq, ev}
// entries, since their times span more than a slot.
//
// Invariants:
//   - frontier is a multiple of the near slot width; every pending entry
//     with when < frontier is in run[head:] or in late, and every other
//     pending entry is at or past the frontier.
//   - run[head:] is sorted by key, that is by (when, seq), and holds cells
//     of the near slot starting at runBase. It is only refilled once both
//     it and late are empty.
//   - entries with slot(when) in [frontier's slot, +256) are in near;
//     entries with farSlot(when) in [frontier's far slot, +256) are in far;
//     everything later is in overflow.
//   - near/far slot lists are unordered; nearCount/farCount count their
//     cells including stale ones, so emptiness checks are exact.
//   - sequence numbers stay below 2^seqBits (Engine.enqueue panics first).
const (
	nearShift  = 10 // 2^10 ns = 1.024us per near slot
	wheelBits  = 8  // 256 slots per level
	wheelSlots = 1 << wheelBits
	wheelMask  = wheelSlots - 1
	farShift   = nearShift + wheelBits // 2^18 ns = 262us per far slot

	nearSlotWidth = Time(1) << nearShift

	// seqBits is the width of the seq field of a run key; the slot offset
	// takes the nearShift bits above it.
	seqBits = 64 - nearShift
	seqMask = 1<<seqBits - 1

	// slotChunkEntries sizes a slot chunk so the whole struct (16-byte
	// header + 16-byte cells) fits Go's 512-byte allocation class
	// exactly. Narrow slots mean more slots hold entries at once; small
	// chunks keep that from costing memory.
	slotChunkEntries = 31

	// insertionSortMax is the partition size below which quicksort hands
	// over to insertion sort; runs up to this length never quicksort.
	insertionSortMax = 12
)

// cell is one near or far slot cell; see the cell layout above.
type cell struct {
	seq uint64
	ev  *Event
}

func (c cell) live() bool {
	return c.ev.pending && c.ev.seq == c.seq
}

// runCell is one cell of the drained run; key packs its slot offset and
// seq (see the cell layout above).
type runCell struct {
	key uint64
	ev  *Event
}

func (rc runCell) live() bool {
	return rc.ev.pending && rc.ev.seq == rc.key&seqMask
}

// slotChunk is one fixed-size block of a slot's entry list. Slot lists are
// unordered, so chunks only ever append and are drained whole; emptied
// chunks return to the wheel's shared spare list. Sharing is the point: at
// high node counts a single near slot can hold thousands of entries (an
// Allreduce round schedules every rank within a few microseconds), and
// per-slot growable arrays would both pay a doubling-growth chain on every
// burst and pin each slot at its own high-water mark. Chunks make the
// burst's storage follow the burst across slots as the frontier advances —
// steady-state slot storage is bounded by the peak number of
// simultaneously pending entries, not by (slots x largest burst).
type slotChunk struct {
	next *slotChunk
	n    int
	ents [slotChunkEntries]cell
}

// slotList is a chunked slot: append at tail, drain whole.
type slotList struct {
	head, tail *slotChunk
}

type wheel struct {
	frontier  Time      // slot-aligned; run and late hold everything below it
	runBase   Time      // start of the near slot the run was drained from
	run       []runCell // the drained slot, sorted; run[:head] is consumed
	head      int
	late      entryHeap // inserted below the frontier after the drain
	near      [wheelSlots]slotList
	far       [wheelSlots]slotList
	nearBits  [wheelSlots / 64]uint64
	farBits   [wheelSlots / 64]uint64
	nearCount int
	farCount  int
	overflow  entryHeap
	spare     *slotChunk // emptied chunks, shared by every slot of both wheels
}

// slotPush appends a cell to a slot, extending it with a spare (or new)
// chunk when the tail is full.
func (w *wheel) slotPush(sl *slotList, cl cell) {
	t := sl.tail
	if t == nil || t.n == slotChunkEntries {
		c := w.spare
		if c != nil {
			w.spare = c.next
			c.next = nil
		} else {
			c = new(slotChunk)
		}
		if t == nil {
			sl.head = c
		} else {
			t.next = c
		}
		sl.tail = c
		t = c
	}
	t.ents[t.n] = cl
	t.n++
}

// insert places ev's entry (time t, sequence number seq) into the level
// its time belongs to.
func (w *wheel) insert(t Time, seq uint64, ev *Event) {
	if t < w.frontier {
		w.late.push(entry{when: t, seq: seq, ev: ev})
		return
	}
	slot := t >> nearShift
	if slot-(w.frontier>>nearShift) < wheelSlots {
		i := slot & wheelMask
		w.slotPush(&w.near[i], cell{seq, ev})
		w.nearBits[i>>6] |= 1 << (uint(i) & 63)
		w.nearCount++
		return
	}
	fslot := t >> farShift
	if fslot-(w.frontier>>farShift) < wheelSlots {
		i := fslot & wheelMask
		w.slotPush(&w.far[i], cell{seq, ev})
		w.farBits[i>>6] |= 1 << (uint(i) & 63)
		w.farCount++
		return
	}
	w.overflow.push(entry{when: t, seq: seq, ev: ev})
}

// freeChunk clears a visited chunk, returns it to the spare list and
// reports the chunk that followed it. A chunk is released only after its
// cells have been visited, so a caller may itself pull chunks from the
// spare list mid-drain (cascadeFar re-inserts into near slots).
func (w *wheel) freeChunk(c *slotChunk) *slotChunk {
	next := c.next
	clear(c.ents[:c.n]) // release the *Event references
	c.n = 0
	c.next = w.spare
	w.spare = c
	return next
}

// drainNear replaces the consumed run with the live cells of near slot
// index i, which starts at base, sorted. Stale cells are dropped here.
func (w *wheel) drainNear(i int, base Time) {
	w.nearBits[i>>6] &^= 1 << (uint(i) & 63)
	sl := &w.near[i]
	c := sl.head
	sl.head, sl.tail = nil, nil
	clear(w.run) // release the consumed run's *Event references
	run := w.run[:0]
	for ; c != nil; c = w.freeChunk(c) {
		w.nearCount -= c.n
		for _, cl := range c.ents[:c.n] {
			if cl.live() {
				run = append(run, runCell{uint64(cl.ev.when-base)<<seqBits | cl.seq, cl.ev})
			}
		}
	}
	sortRun(run)
	w.run, w.head, w.runBase = run, 0, base
}

// cascadeFar redistributes far slot index i into the near wheel (which, at
// the moment of the call, exactly spans that far slot's time range).
func (w *wheel) cascadeFar(i int) {
	w.farBits[i>>6] &^= 1 << (uint(i) & 63)
	sl := &w.far[i]
	c := sl.head
	sl.head, sl.tail = nil, nil
	for ; c != nil; c = w.freeChunk(c) {
		w.farCount -= c.n
		for _, cl := range c.ents[:c.n] {
			if cl.live() {
				w.insert(cl.ev.when, cl.seq, cl.ev)
			}
		}
	}
}

// sortRun sorts a run by key, that is by (when, seq). Runs arrive nearly
// sorted: a slot's cells are appended in scheduling order and most of them
// share a time, so seq already orders them. It therefore tries insertion
// sort first, which costs O(n + inversions), and quicksorts only a run
// that proves far from sorted. Both are specialised to runCell on purpose
// — a generic or closure-based sort pays an indirect call per comparison
// on the hottest path of the engine.
func sortRun(a []runCell) {
	if !insertionSort(a, 2*len(a)+insertionSortMax*insertionSortMax) {
		quickSort(a)
	}
}

// insertionSort sorts a in place unless that takes more than budget cell
// moves; it then stops, leaving a permuted, and reports false.
func insertionSort(a []runCell, budget int) bool {
	for i := 1; i < len(a); i++ {
		if a[i].key > a[i-1].key {
			continue // already in place: the common case
		}
		x := a[i]
		j := i
		for ; j > 0 && x.key < a[j-1].key; j-- {
			a[j] = a[j-1]
		}
		a[j] = x
		if budget -= i - j; budget < 0 {
			return false
		}
	}
	return true
}

// quickSort sorts a with a median-of-three pivot, leaving partitions of up
// to insertionSortMax cells to insertion sort. Keys are unique (seq is),
// so no equal-key handling is needed.
func quickSort(a []runCell) {
	for len(a) > insertionSortMax {
		p := partitionRun(a)
		// Recurse into the smaller side, loop on the larger: O(log n) stack.
		if p < len(a)-p {
			quickSort(a[:p])
			a = a[p+1:]
		} else {
			quickSort(a[p+1:])
			a = a[:p]
		}
	}
	insertionSort(a, insertionSortMax*insertionSortMax)
}

// partitionRun partitions a (len > 2) around the median of its first,
// middle and last cells and returns the pivot's final index.
func partitionRun(a []runCell) int {
	lo, mid, hi := 0, len(a)/2, len(a)-1
	if a[mid].key < a[lo].key {
		a[mid], a[lo] = a[lo], a[mid]
	}
	if a[hi].key < a[mid].key {
		a[hi], a[mid] = a[mid], a[hi]
		if a[mid].key < a[lo].key {
			a[mid], a[lo] = a[lo], a[mid]
		}
	}
	// a[lo] <= a[mid] <= a[hi]: park the pivot at hi-1 and partition the
	// open interval (lo, hi-1); a[lo] and a[hi] act as sentinels.
	pivot := a[mid].key
	a[mid], a[hi-1] = a[hi-1], a[mid]
	i, j := lo, hi-1
	for {
		for i++; a[i].key < pivot; i++ {
		}
		for j--; pivot < a[j].key; j-- {
		}
		if i >= j {
			break
		}
		a[i], a[j] = a[j], a[i]
	}
	a[i], a[hi-1] = a[hi-1], a[i]
	return i
}

// drainOverflow admits overflow entries that now fall within the far
// horizon of the current frontier.
func (w *wheel) drainOverflow() {
	horizon := (uint64(w.frontier>>farShift) + wheelSlots) << farShift
	for len(w.overflow) > 0 {
		top := w.overflow[0]
		if !top.live() {
			w.overflow.pop()
			continue
		}
		if uint64(top.when) >= horizon {
			return
		}
		w.overflow.pop()
		w.insert(top.when, top.seq, top.ev)
	}
}

// nextBit scans a 256-slot bitmap for the first set bit at index >= from,
// returning wheelSlots if none.
func nextBit(bm *[wheelSlots / 64]uint64, from int) int {
	word := from >> 6
	if b := bm[word] >> (uint(from) & 63); b != 0 {
		return from + bits.TrailingZeros64(b)
	}
	for word++; word < len(bm); word++ {
		if bm[word] != 0 {
			return word<<6 + bits.TrailingZeros64(bm[word])
		}
	}
	return wheelSlots
}

// advance moves the frontier forward until the run or the late heap is
// non-empty, cascading far slots and admitting overflow at window
// boundaries. It reports false when no entries remain anywhere. Empty
// stretches are skipped via the occupancy bitmaps, and when both wheels are
// empty the frontier teleports straight to the overflow heap's earliest
// entry.
func (w *wheel) advance() bool {
	for {
		if w.head < len(w.run) || len(w.late) > 0 {
			return true
		}
		if w.nearCount == 0 && w.farCount == 0 {
			for len(w.overflow) > 0 && !w.overflow[0].live() {
				w.overflow.pop()
			}
			if len(w.overflow) == 0 {
				return false
			}
			w.frontier = w.overflow[0].when &^ (nearSlotWidth - 1)
			w.drainOverflow()
			continue
		}
		cur := w.frontier >> nearShift
		i := int(cur & wheelMask)
		if i == 0 {
			// Entering a new 256-slot window: pull in the far slot that
			// spans it, then any overflow the far horizon now reaches.
			if w.farCount > 0 {
				w.cascadeFar(int((cur >> wheelBits) & wheelMask))
			}
			if len(w.overflow) > 0 {
				w.drainOverflow()
			}
		}
		if w.nearCount > 0 {
			if j := nextBit(&w.nearBits, i); j < wheelSlots {
				cur += Time(j - i)
				w.frontier = (cur + 1) << nearShift
				w.drainNear(int(cur&wheelMask), cur<<nearShift)
				continue
			}
		}
		// Nothing left in this window; jump to the next boundary.
		w.frontier = ((cur | wheelMask) + 1) << nearShift
	}
}

// front drops stale entries until a live one leads, and reports whether the
// earliest live entry heads the late heap (rather than the run); ok is false
// once the wheel is empty.
func (w *wheel) front() (late, ok bool) {
	for {
		if w.head < len(w.run) {
			rc := w.run[w.head]
			if len(w.late) > 0 && w.lateFirst(rc) {
				if w.late[0].live() {
					return true, true
				}
				w.late.pop()
				continue
			}
			if rc.live() {
				return false, true
			}
			w.head++
			continue
		}
		if len(w.late) > 0 {
			if w.late[0].live() {
				return true, true
			}
			w.late.pop()
			continue
		}
		if !w.advance() {
			return false, false
		}
	}
}

// lateFirst reports whether the late heap's top precedes run cell rc in
// (when, seq) order. Late entries may lie before runBase (a Run that
// stopped short leaves the frontier ahead of the clock), so the comparison
// is on full times, not on keys.
func (w *wheel) lateFirst(rc runCell) bool {
	l := &w.late[0]
	when := w.runBase + Time(rc.key>>seqBits)
	return l.when < when || l.when == when && l.seq < rc.key&seqMask
}

// next returns the earliest live event and whether it heads the late heap,
// or nil once the wheel is empty. A live entry's time is its event's when.
func (w *wheel) next() (ev *Event, late bool) {
	late, ok := w.front()
	switch {
	case !ok:
		return nil, false
	case late:
		return w.late[0].ev, true
	}
	return w.run[w.head].ev, false
}

// popUntil removes and returns the earliest live event if it is due at or
// before limit, and nil otherwise.
func (w *wheel) popUntil(limit Time) *Event {
	ev, late := w.next()
	if ev == nil || ev.when > limit {
		return nil
	}
	if late {
		w.late.pop()
	} else {
		w.head++
	}
	return ev
}

// peekNext reports the earliest live entry's time without removing it.
func (w *wheel) peekNext() (Time, bool) {
	if ev, _ := w.next(); ev != nil {
		return ev.when, true
	}
	return 0, false
}
