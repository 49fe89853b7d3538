// Package timerwheel implements the hierarchical timing wheel that backs
// the transport's shared connection scheduler. One wheel serves every
// connection on a mux shard, so the per-flow cost of the protocol's four
// periodic timers (ACK, NAK, EXP, and the SYN-aligned rate tick) collapses
// from a goroutine plus runtime timer per connection to an intrusive list
// node per wakeup: Schedule and Cancel are O(1) and allocation-free, and
// advancing the wheel touches only the slots whose time has come
// (Varghese & Lauck's scheme, as used by kernel timer subsystems).
//
// The wheel is deliberately single-threaded: its owner (a pool shard, or a
// deterministic test driver) serializes all calls. That keeps the hot
// paths free of locks and lets the netem virtual clock drive it exactly
// like the wall clock does, which is what keeps the chaos harness a
// bit-identical oracle across scheduler changes.
package timerwheel

import "math"

const (
	// tickShift sets the wheel granularity: 1<<6 = 64 µs per tick. The
	// finest deadline the wheel is asked to time is an inter-packet pacing
	// gap, and the runtime timer the worker parks on wakes about a
	// millisecond late anyway; the sender catches up on overdue packets in
	// one burst, so 64 µs of quantization costs no rate.
	tickShift = 6
	// slotBits gives 1<<6 = 64 slots per level.
	slotBits = 6
	// levels is the wheel hierarchy depth. Four levels of 64 slots at a
	// 64 µs tick span 64⁴ ticks ≈ 17.9 minutes; deadlines beyond that are
	// clamped to the horizon and re-sorted as they cascade down.
	levels = 4

	numSlots = 1 << slotBits
	slotMask = numSlots - 1
	// maxDelta is the farthest future, in ticks, the wheel can represent.
	maxDelta = 1 << (slotBits * levels)

	// Tick is the wheel granularity in microseconds.
	Tick = 1 << tickShift
)

// NoDeadline is returned by Next when the wheel holds no timers.
const NoDeadline = math.MaxInt64

// Timer is one schedulable deadline. It is intrusive: the wheel links the
// node itself into a slot, so arming, canceling, and firing never
// allocate. Owner carries the scheduled object (a connection, a pending
// handshake) back to the fire callback. A Timer must not be copied while
// armed, and belongs to exactly one wheel at a time.
type Timer struct {
	// Owner is opaque to the wheel; Advance hands it back on expiry.
	Owner any

	deadline   int64 // µs, absolute on the wheel's clock
	next, prev *Timer
	lvl        int8 // wheel level holding the node; -1 = due list
}

// Armed reports whether the timer is currently linked into a wheel.
func (t *Timer) Armed() bool { return t.next != nil }

// Deadline returns the absolute deadline (µs) of the last Schedule call.
func (t *Timer) Deadline() int64 { return t.deadline }

// Wheel is a four-level hierarchical timing wheel over a microsecond
// clock. The zero value is not usable; call New.
type Wheel struct {
	cur   int64 // next unprocessed tick (deadline µs >> tickShift)
	count int   // armed timers
	l0    int   // armed timers currently in level 0 (lets Advance skip empty stretches)

	// slot[l][s] is the sentinel of level l, slot s's circular list.
	slot [levels][numSlots]Timer

	// due collects timers scheduled at-or-before the wheel's processed
	// horizon; Advance fires them unconditionally. dueMin is their
	// earliest deadline, so Next can report an immediate wakeup.
	due    Timer
	dueMin int64
}

// New returns an empty wheel whose tick 0 covers deadlines in [0, 64) µs.
// Deadlines are absolute microseconds on whatever clock the caller uses
// (timing.SysClock, netem.VirtualClock); the wheel only ever compares
// them, so the origin is the clock's concern.
func New() *Wheel {
	w := &Wheel{dueMin: NoDeadline}
	for l := range w.slot {
		for s := range w.slot[l] {
			sent := &w.slot[l][s]
			sent.next, sent.prev = sent, sent
		}
	}
	w.due.next, w.due.prev = &w.due, &w.due
	return w
}

// Len returns the number of armed timers.
func (w *Wheel) Len() int { return w.count }

// Schedule arms t to fire at deadline (µs). If t is already armed — on
// this wheel — it is moved; scheduling is how callers reschedule. A
// deadline at or before the current time fires on the next Advance call.
func (w *Wheel) Schedule(t *Timer, deadline int64) {
	if t.next != nil {
		w.unlink(t)
		w.count--
	}
	t.deadline = deadline
	w.place(t)
	w.count++
}

// Cancel disarms t if armed; it is a no-op otherwise.
func (w *Wheel) Cancel(t *Timer) {
	if t.next == nil {
		return
	}
	w.unlink(t)
	w.count--
}

// place links t into the slot owed by its deadline relative to w.cur.
// Deadlines round up to the next tick, so a timer never fires before its
// deadline — except when scheduled behind the already-processed horizon
// (the due list), where it fires on the next Advance and may run up to
// Tick µs early. Owners that need exactness re-check deadlines on fire;
// the connection scheduler does, by construction (a wakeup only makes the
// state machine re-derive its own timers).
func (w *Wheel) place(t *Timer) {
	tk := (t.deadline + Tick - 1) >> tickShift
	delta := tk - w.cur
	var head *Timer
	switch {
	case delta < 1: // already due (or due this very tick)
		head = &w.due
		t.lvl = -1
		if t.deadline < w.dueMin {
			w.dueMin = t.deadline
		}
	case delta < 1<<slotBits:
		head = &w.slot[0][tk&slotMask]
		t.lvl = 0
		w.l0++
	case delta < 1<<(2*slotBits):
		head = &w.slot[1][(tk>>slotBits)&slotMask]
		t.lvl = 1
	case delta < 1<<(3*slotBits):
		head = &w.slot[2][(tk>>(2*slotBits))&slotMask]
		t.lvl = 2
	default:
		if delta >= maxDelta { // clamp to the horizon; re-sorts on cascade
			tk = w.cur + maxDelta - 1
		}
		head = &w.slot[3][(tk>>(3*slotBits))&slotMask]
		t.lvl = 3
	}
	t.prev = head.prev
	t.next = head
	head.prev.next = t
	head.prev = t
}

// unlink removes t from whichever list holds it.
func (w *Wheel) unlink(t *Timer) {
	t.prev.next = t.next
	t.next.prev = t.prev
	t.next, t.prev = nil, nil
	if t.lvl == 0 {
		w.l0--
	}
}

// Advance fires every timer whose deadline is at or before now (µs) —
// quantized to the wheel tick, so a timer can fire up to Tick-1 µs after
// its deadline, never before it (behind-horizon scheduling excepted; see
// place). fire is called for each timer in schedule order within a slot.
// fire may
// re-Schedule its own or other timers (periodic timers re-arm this way)
// and may Cancel timers that have not fired yet this call. Timers a fire
// callback schedules at-or-before now are deferred to the next Advance —
// Next will report them as immediately due.
func (w *Wheel) Advance(now int64, fire func(*Timer)) {
	// Drain the already-due list first: these were scheduled behind the
	// wheel's processed horizon and owe an immediate fire.
	if w.due.next != &w.due {
		w.expire(&w.due, fire)
		w.dueMin = NoDeadline
	}
	target := now >> tickShift
	if w.count == 0 {
		// Nothing armed: skip the tick walk, just move the horizon.
		if target >= w.cur {
			w.cur = target + 1
		}
		return
	}
	for w.cur <= target {
		idx := w.cur & slotMask
		if idx == 0 {
			// A level-0 cycle boundary: pull the covering slot of each
			// coarser level down before expiring this tick. Timers
			// re-sort toward level 0 as their deadline nears.
			w.cascade(1, (w.cur>>slotBits)&slotMask)
			if (w.cur>>slotBits)&slotMask == 0 {
				w.cascade(2, (w.cur>>(2*slotBits))&slotMask)
				if (w.cur>>(2*slotBits))&slotMask == 0 {
					w.cascade(3, (w.cur>>(3*slotBits))&slotMask)
				}
			}
		}
		if w.l0 == 0 {
			// Level 0 is empty: nothing can fire before the next cycle
			// boundary cascades coarser timers down, so hop straight
			// there instead of walking empty ticks one by one.
			nb := (w.cur &^ slotMask) + numSlots
			if nb > target+1 {
				nb = target + 1
			}
			w.cur = nb
			continue
		}
		w.expire(&w.slot[0][idx], fire)
		w.cur++
	}
}

// cascade re-places every timer in level l, slot s one cycle closer to
// firing. Re-placing clamped far-future timers keeps them riding level 3
// until their real deadline enters the wheel's span.
func (w *Wheel) cascade(l, s int64) {
	head := &w.slot[l][s]
	for head.next != head {
		t := head.next
		w.unlink(t)
		w.place(t)
	}
}

// expire unlinks the whole slot onto a private chain, then fires each
// timer. Detaching first makes re-scheduling into the same slot from a
// fire callback safe (the walk cannot loop on re-armed nodes).
func (w *Wheel) expire(head *Timer, fire func(*Timer)) {
	for head.next != head {
		t := head.next
		w.unlink(t)
		w.count--
		fire(t)
	}
}

// Next returns a conservative lower bound on the earliest fire time
// (µs): no timer fires before an Advance(now) with now ≥ the bound. The
// bound is exact for timers in level 0; for timers still parked in
// coarser levels it is the next cascade boundary, so a sleeper waking at
// the bound re-resolves a tighter one after the cascade. Returns
// NoDeadline when the wheel is empty.
func (w *Wheel) Next() int64 {
	if w.count == 0 {
		return NoDeadline
	}
	if w.due.next != &w.due {
		return w.dueMin
	}
	best := int64(NoDeadline)
	// Level 0 is exact: scan the 64 upcoming ticks in time order.
	if w.l0 > 0 {
		for i := int64(0); i < numSlots; i++ {
			tk := w.cur + i
			if head := &w.slot[0][tk&slotMask]; head.next != head {
				best = tk << tickShift
				break
			}
		}
	}
	// A timer parked in a coarser level cannot fire before the cascade
	// that pulls its slot down; that cascade runs at the slot's cycle
	// position, which bounds its fire time. A sleeper waking at such a
	// bound re-resolves a tighter one after the cascade (a handful of
	// refinement hops even for horizon-clamped deadlines).
	for l := 1; l < levels; l++ {
		shift := uint(l) * slotBits
		pos := w.cur >> shift
		for i := int64(0); i < numSlots; i++ {
			p := pos + i
			if head := &w.slot[l][p&slotMask]; head.next != head {
				ct := p << shift
				if ct < w.cur {
					// Slot's cascade already ran this cycle; its
					// residents belong to the next one.
					ct = (p + numSlots) << shift
				}
				if b := ct << tickShift; b < best {
					best = b
				}
			}
		}
	}
	return best
}
