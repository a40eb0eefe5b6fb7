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
// Invariants:
//   - frontier is a multiple of the near slot width; every pending entry
//     with when < frontier is in run[head:] or in late, and every other
//     pending entry is at or past the frontier.
//   - run[head:] is sorted by (when, seq). It is only refilled once both
//     it and late are empty.
//   - entries with slot(when) in [frontier's slot, +256) are in near;
//     entries with farSlot(when) in [frontier's far slot, +256) are in far;
//     everything later is in overflow.
//   - near/far slot lists are unordered; nearCount/farCount count their
//     entries including stale ones, so emptiness checks are exact.
const (
	nearShift  = 10 // 2^10 ns = 1.024us per near slot
	wheelBits  = 8  // 256 slots per level
	wheelSlots = 1 << wheelBits
	wheelMask  = wheelSlots - 1
	farShift   = nearShift + wheelBits // 2^18 ns = 262us per far slot

	nearSlotWidth = Time(1) << nearShift

	// slotChunkEntries sizes a slot chunk so the whole struct (16-byte
	// header + 32-byte entries) fits Go's 512-byte allocation class
	// exactly. Narrow slots mean more slots hold entries at once; small
	// chunks keep that from costing memory.
	slotChunkEntries = 15

	// insertionSortMax is the partition size below which quicksort hands
	// over to insertion sort; runs up to this length never quicksort.
	insertionSortMax = 12
)

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
	ents [slotChunkEntries]entry
}

// slotList is a chunked slot: append at tail, drain whole.
type slotList struct {
	head, tail *slotChunk
}

type wheel struct {
	frontier  Time    // slot-aligned; run and late hold everything below it
	run       []entry // the drained slot, sorted; run[:head] is consumed
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

// slotPush appends an entry to a slot, extending it with a spare (or new)
// chunk when the tail is full.
func (w *wheel) slotPush(sl *slotList, en entry) {
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
	t.ents[t.n] = en
	t.n++
}

// insert places an entry into the level its time belongs to.
func (w *wheel) insert(en entry) {
	t := en.when
	if t < w.frontier {
		w.late.push(en)
		return
	}
	slot := t >> nearShift
	if slot-(w.frontier>>nearShift) < wheelSlots {
		i := slot & wheelMask
		w.slotPush(&w.near[i], en)
		w.nearBits[i>>6] |= 1 << (uint(i) & 63)
		w.nearCount++
		return
	}
	fslot := t >> farShift
	if fslot-(w.frontier>>farShift) < wheelSlots {
		i := fslot & wheelMask
		w.slotPush(&w.far[i], en)
		w.farBits[i>>6] |= 1 << (uint(i) & 63)
		w.farCount++
		return
	}
	w.overflow.push(en)
}

// freeChunk clears a visited chunk, returns it to the spare list and
// reports the chunk that followed it. A chunk is released only after its
// entries have been visited, so a caller may itself pull chunks from the
// spare list mid-drain (cascadeFar re-inserts into near slots).
func (w *wheel) freeChunk(c *slotChunk) *slotChunk {
	next := c.next
	clear(c.ents[:c.n]) // release the *Event references
	c.n = 0
	c.next = w.spare
	w.spare = c
	return next
}

// drainNear replaces the consumed run with near slot index i's live
// entries, sorted. Stale entries are dropped here.
func (w *wheel) drainNear(i int) {
	w.nearBits[i>>6] &^= 1 << (uint(i) & 63)
	sl := &w.near[i]
	c := sl.head
	sl.head, sl.tail = nil, nil
	clear(w.run) // release the consumed run's *Event references
	run := w.run[:0]
	for ; c != nil; c = w.freeChunk(c) {
		w.nearCount -= c.n
		for _, en := range c.ents[:c.n] {
			if en.live() {
				run = append(run, en)
			}
		}
	}
	sortEntries(run)
	w.run, w.head = run, 0
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
		for _, en := range c.ents[:c.n] {
			if en.live() {
				w.insert(en)
			}
		}
	}
}

// sortEntries sorts a run by (when, seq). Runs arrive nearly sorted: a
// slot's entries are appended in scheduling order and most of them share a
// time, so seq already orders them. It therefore tries insertion sort
// first, which costs O(n + inversions), and quicksorts only a run that
// proves far from sorted. Both are specialised to entry on purpose — a
// generic or closure-based sort pays an indirect call per comparison on the
// hottest path of the engine.
func sortEntries(a []entry) {
	if !insertionSort(a, 2*len(a)+insertionSortMax*insertionSortMax) {
		quickSort(a)
	}
}

// insertionSort sorts a in place unless that takes more than budget entry
// moves; it then stops, leaving a permuted, and reports false.
func insertionSort(a []entry, budget int) bool {
	for i := 1; i < len(a); i++ {
		if !a[i].before(a[i-1]) {
			continue // already in place: the common case
		}
		x := a[i]
		j := i
		for ; j > 0 && x.before(a[j-1]); j-- {
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
// to insertionSortMax entries to insertion sort. Keys are unique (seq is),
// so no equal-key handling is needed.
func quickSort(a []entry) {
	for len(a) > insertionSortMax {
		p := partitionEntries(a)
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

// partitionEntries partitions a (len > 2) around the median of its first,
// middle and last entries and returns the pivot's final index.
func partitionEntries(a []entry) int {
	lo, mid, hi := 0, len(a)/2, len(a)-1
	if a[mid].before(a[lo]) {
		a[mid], a[lo] = a[lo], a[mid]
	}
	if a[hi].before(a[mid]) {
		a[hi], a[mid] = a[mid], a[hi]
		if a[mid].before(a[lo]) {
			a[mid], a[lo] = a[lo], a[mid]
		}
	}
	// a[lo] <= a[mid] <= a[hi]: park the pivot at hi-1 and partition the
	// open interval (lo, hi-1); a[lo] and a[hi] act as sentinels.
	pivot := a[mid]
	a[mid], a[hi-1] = a[hi-1], a[mid]
	i, j := lo, hi-1
	for {
		for i++; a[i].before(pivot); i++ {
		}
		for j--; pivot.before(a[j]); j-- {
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
		w.insert(w.overflow.pop())
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
				w.drainNear(int(cur & wheelMask))
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
			if len(w.late) > 0 && w.late[0].before(w.run[w.head]) {
				if w.late[0].live() {
					return true, true
				}
				w.late.pop()
				continue
			}
			if w.run[w.head].live() {
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

// popNext removes and returns the earliest live entry.
func (w *wheel) popNext() (entry, bool) {
	late, ok := w.front()
	switch {
	case !ok:
		return entry{}, false
	case late:
		return w.late.pop(), true
	}
	w.head++
	return w.run[w.head-1], true
}

// peekNext reports the earliest live entry's time without removing it.
func (w *wheel) peekNext() (Time, bool) {
	late, ok := w.front()
	switch {
	case !ok:
		return 0, false
	case late:
		return w.late[0].when, true
	}
	return w.run[w.head].when, true
}
