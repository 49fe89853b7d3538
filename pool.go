package udt

import (
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"udt/internal/timerwheel"
	"udt/internal/timing"
)

// This file is the connection scheduler: the fixed worker pool that runs
// every connection's sender state machine. Where the transport previously
// dedicated a goroutine plus a runtime timer to each Conn, a flow is now a
// passive poolTask owned by one poolShard — a single worker goroutine with
// a hierarchical timing wheel, a run queue, and a clock. Parking 100k
// flows costs 100k intrusive timer nodes on the wheels, not 100k blocked
// goroutines; goroutine count stays O(shards), and an idle flow wakes only
// at its EXP keep-alive deadline (core.Conn.NextWake).

// taskNever is the wake value a task returns when it wants no further
// scheduling: it stays idle until an external wake (or detach).
const taskNever = math.MaxInt64

// maxParkUS bounds one parked sleep; kicks end it early, this is just a
// backstop so an empty shard re-checks state occasionally.
const maxParkUS = 60_000_000

// poolTask is a schedulable connection state machine. runTask services the
// task once (never under the shard lock; the task takes its own) and
// returns the next wake deadline on the shard's clock — taskNever to go
// fully idle. sched exposes the shard-lock-guarded scheduling node the
// worker and wheel link the task by.
//
// Every shard parks on its wheel between deadlines, whatever its
// population: there is no busy-wait. Runtime timers wake late (about a
// millisecond for any sub-millisecond pacing gap), and a late wake costs
// no rate — claimBurstLocked sends every packet the schedule owes as one
// train, and the engine's schedule only resynchronizes after falling a
// whole SYN behind.
type poolTask interface {
	runTask() (wake int64)
	sched() *schedState
}

// taskState is the scheduling state of one poolTask.
type taskState int8

const (
	taskIdle     taskState = iota // parked: on the wheel, or waiting for a wake
	taskReady                     // in the run queue
	taskRunning                   // runTask in flight on the worker
	taskRerun                     // runTask in flight, wake arrived meanwhile
	taskDetached                  // leaving the shard; worker must not run it again
)

// schedState is the per-task scheduling node, embedded in the task (a Conn
// or a pendingDial) so scheduling never allocates. All fields are guarded
// by the owning shard's mutex.
type schedState struct {
	state taskState
	gone  bool // worker guarantees it will never touch the task again
	timer timerwheel.Timer
}

// connPool is a fixed set of shards serving one Mux (or one dialed
// connection, which gets a degenerate single-shard pool).
type connPool struct {
	shards []*poolShard
	next   atomic.Uint32
	wg     sync.WaitGroup
}

// newConnPool starts n shard workers. ledger receives the workers' timer
// wheel time (Table 3's "timing" row); nil disables it.
func newConnPool(n int, ledger *timing.Ledger) *connPool {
	if n < 1 {
		n = 1
	}
	p := &connPool{shards: make([]*poolShard, n)}
	for i := range p.shards {
		s := &poolShard{
			clock:  timing.NewSysClock(),
			wheel:  timerwheel.New(),
			ledger: ledger,
			kick:   make(chan struct{}, 1),
		}
		s.cond = sync.NewCond(&s.mu)
		p.shards[i] = s
	}
	p.wg.Add(n)
	for _, s := range p.shards {
		go func(s *poolShard) {
			defer p.wg.Done()
			s.run()
		}(s)
	}
	return p
}

// shard assigns the next connection round-robin.
func (p *connPool) shard() *poolShard {
	return p.shards[int(p.next.Add(1)-1)%len(p.shards)]
}

// close stops every worker. All tasks must be detached first (Conn.Close
// does); a detach racing close still completes — see poolShard.detach.
func (p *connPool) close() {
	for _, s := range p.shards {
		s.mu.Lock()
		s.closed = true
		s.mu.Unlock()
		s.notify()
	}
	p.wg.Wait()
}

// poolShard is one worker: a timing wheel ordering parked tasks by
// deadline, a FIFO run queue of ready tasks, and the goroutine that
// services them. Every connection on the shard shares its clock — wake
// deadlines and the wheel must live on one timeline.
type poolShard struct {
	clock  *timing.SysClock
	ledger *timing.Ledger

	mu      sync.Mutex
	cond    *sync.Cond // detach waits for the worker here
	wheel   *timerwheel.Wheel
	q       []poolTask // FIFO ring of ready tasks
	qh, qn  int
	pop     int  // attached tasks
	closed  bool // close() requested
	stopped bool // worker has exited its loop

	kick chan struct{} // buffered 1: wakes a parked worker
}

// notify wakes the worker if it is parked; a no-op if a wake is already
// pending.
func (s *poolShard) notify() {
	select {
	case s.kick <- struct{}{}:
	default:
	}
}

// attach adds a task to the shard, idle. The caller follows with wake (a
// connection's first service run) or sleep (a deadline-only task).
func (s *poolShard) attach(t poolTask) {
	st := t.sched()
	s.mu.Lock()
	st.state = taskIdle
	st.gone = false
	st.timer.Owner = t
	s.pop++
	s.mu.Unlock()
	noteGoroutines()
}

// wake makes an idle task ready to run (canceling its parked deadline) and
// marks a running one for re-service. Safe to call from any goroutine,
// including under the task's own lock — the shard lock always nests inside
// task locks, never the reverse.
func (s *poolShard) wake(t poolTask) {
	st := t.sched()
	s.mu.Lock()
	switch st.state {
	case taskIdle:
		s.wheel.Cancel(&st.timer)
		st.state = taskReady
		s.pushLocked(t)
		s.notify()
	case taskRunning:
		st.state = taskRerun
	}
	s.mu.Unlock()
}

// sleep parks an idle task until wake (µs on the shard clock) without
// running it first — the deadline-only path pending handshakes use.
func (s *poolShard) sleep(t poolTask, wake int64) {
	st := t.sched()
	s.mu.Lock()
	if st.state == taskIdle {
		s.wheel.Schedule(&st.timer, wake)
		s.notify() // the new deadline may be earlier than the worker's park
	}
	s.mu.Unlock()
}

// detach removes a task from the shard and blocks until the worker
// guarantees no runTask call is in flight or will ever start — after which
// the caller may release resources the task's service path touches
// (Conn.Close unmaps zero-copy file regions on this guarantee).
func (s *poolShard) detach(t poolTask) {
	st := t.sched()
	s.mu.Lock()
	switch st.state {
	case taskDetached:
		// Concurrent or repeated detach: just wait for the verdict below.
	case taskIdle:
		s.wheel.Cancel(&st.timer)
		st.state = taskDetached
		st.gone = true
		s.pop--
	default:
		// Ready in the queue, or mid-run: the worker observes taskDetached
		// when it next handles the task and sets gone.
		st.state = taskDetached
		s.pop--
		s.notify()
	}
	for !st.gone {
		if s.stopped {
			// The worker exited (pool closed) and will never pop the task;
			// nothing can be running it — see run's exit conditions.
			st.gone = true
			break
		}
		s.cond.Wait()
	}
	s.mu.Unlock()
}

func (s *poolShard) pushLocked(t poolTask) {
	if s.qn == len(s.q) {
		grown := make([]poolTask, max(8, 2*len(s.q)))
		for i := 0; i < s.qn; i++ {
			grown[i] = s.q[(s.qh+i)%len(s.q)]
		}
		s.q, s.qh = grown, 0
	}
	s.q[(s.qh+s.qn)%len(s.q)] = t
	s.qn++
}

func (s *poolShard) popLocked() poolTask {
	t := s.q[s.qh]
	s.q[s.qh] = nil
	s.qh = (s.qh + 1) % len(s.q)
	s.qn--
	return t
}

// fireLocked is the wheel's expiry callback: a fired deadline makes the
// parked task ready. Called with s.mu held (the worker advances the wheel
// under its own lock).
func (s *poolShard) fireLocked(tm *timerwheel.Timer) {
	t := tm.Owner.(poolTask)
	st := t.sched()
	if st.state == taskIdle {
		st.state = taskReady
		s.pushLocked(t)
	}
}

// run is the shard worker: advance the wheel, run ready tasks, park until
// the next deadline or kick. One iteration services one task — queue order
// is FIFO, so no flow starves its shard-mates even mid-burst (a task
// wanting more work immediately re-enters the queue behind them).
func (s *poolShard) run() {
	timer := time.NewTimer(time.Hour)
	defer timer.Stop()
	s.mu.Lock()
	for {
		if s.closed {
			s.stopped = true
			s.cond.Broadcast()
			s.mu.Unlock()
			return
		}
		t0 := s.ledger.Start()
		s.wheel.Advance(s.clock.Now(), s.fireLocked)
		s.ledger.Stop(timing.BucketTiming, t0)
		if s.qn == 0 {
			next := s.wheel.Next()
			s.mu.Unlock()
			noteGoroutines()
			// Park even for a microsecond pacing gap. The timer wakes late;
			// the task's next service catches its schedule up in one burst.
			if delay := next - s.clock.Now(); delay > 0 {
				if delay > maxParkUS {
					delay = maxParkUS
				}
				timer.Reset(time.Duration(delay) * time.Microsecond)
				select {
				case <-s.kick:
					if !timer.Stop() {
						<-timer.C
					}
				case <-timer.C:
				}
			}
			s.mu.Lock()
			continue
		}
		t := s.popLocked()
		st := t.sched()
		if st.state == taskDetached {
			st.gone = true
			s.cond.Broadcast()
			continue
		}
		st.state = taskRunning
		s.mu.Unlock()

		wake := t.runTask()

		s.mu.Lock()
		switch {
		case st.state == taskDetached:
			st.gone = true
			s.cond.Broadcast()
		case st.state == taskRerun:
			st.state = taskReady
			s.pushLocked(t)
		case wake == taskNever:
			st.state = taskIdle // parked with no deadline; only a wake revives it
		case wake <= s.clock.Now():
			st.state = taskReady
			s.pushLocked(t)
		default:
			st.state = taskIdle
			t0 := s.ledger.Start()
			s.wheel.Schedule(&st.timer, wake)
			s.ledger.Stop(timing.BucketTiming, t0)
		}
	}
}

// peakGoroutines tracks the process-wide high-water goroutine count, as
// sampled at scheduler park points and connection setup. Stats surfaces it
// so deployments (and the 100k-flow stress bench) can verify the
// goroutines-per-flow regime: with the shared scheduler the peak stays
// O(shards + sockets), not O(flows).
var peakGoroutines atomic.Int64

// noteGoroutines samples runtime.NumGoroutine into the peak gauge.
func noteGoroutines() int {
	n := runtime.NumGoroutine()
	for {
		p := peakGoroutines.Load()
		if int64(n) <= p || peakGoroutines.CompareAndSwap(p, int64(n)) {
			return n
		}
	}
}
