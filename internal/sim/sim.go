// Package sim implements a small deterministic discrete-event simulation
// kernel with cooperative processes, counted resources and FIFO queues.
//
// The kernel is the substrate for the simulated RDMA fabric
// (internal/rdma/simnet): simulated compute clients and memory-server RPC
// handlers run as processes, NICs and CPU cores are resources, and virtual
// time advances only when every runnable process has blocked.
//
// Processes are real goroutines, but exactly one goroutine holds control at
// any moment: the one calling Run/RunUntil, or one process. Control passes
// by direct handoff: a process that parks (on Sleep, Resource.Acquire,
// Queue.Get, ...) or exits pops the event queue itself, runs due At
// callbacks inline, and resumes the next process directly; when the next
// event is its own wakeup it simply returns. Run/RunUntil regain control
// only when the queue drains or its head lies past the run's bound. Events fire
// in (time, schedule order), so all data touched by processes is
// sequentially consistent and runs are fully deterministic.
package sim

import (
	"fmt"
	"math"
)

// Time is virtual time in nanoseconds.
type Time = int64

// MaxTime is the largest representable virtual time.
const MaxTime Time = math.MaxInt64

// event resumes proc, or runs fn when proc is nil.
type event struct {
	at   Time
	seq  uint64
	proc *Proc
	fn   func()
}

func (a *event) before(b *event) bool {
	return a.at < b.at || a.at == b.at && a.seq < b.seq
}

// eventHeap is a binary min-heap on (at, seq). Every seq is unique, so the
// pop order is fully determined by the events pushed.
type eventHeap []event

func (h *eventHeap) push(ev event) {
	q := append(*h, ev)
	i := len(q) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !ev.before(&q[parent]) {
			break
		}
		q[i] = q[parent]
		i = parent
	}
	q[i] = ev
	*h = q
}

func (h *eventHeap) pop() event {
	q := *h
	top := q[0]
	n := len(q) - 1
	last := q[n]
	q[n] = event{}
	q = q[:n]
	if n > 0 {
		i := 0
		for {
			c := 2*i + 1
			if c >= n {
				break
			}
			if r := c + 1; r < n && q[r].before(&q[c]) {
				c = r
			}
			if !q[c].before(&last) {
				break
			}
			q[i] = q[c]
			i = c
		}
		q[i] = last
	}
	*h = q
	return top
}

// fifo is a FIFO queue that reuses its backing array, so steady-state push
// and pop allocate nothing.
type fifo[T any] struct {
	buf  []T
	head int
}

func (f *fifo[T]) len() int { return len(f.buf) - f.head }

func (f *fifo[T]) push(v T) {
	if len(f.buf) == cap(f.buf) && f.head > 0 && f.head >= len(f.buf)/2 {
		n := copy(f.buf, f.buf[f.head:])
		clear(f.buf[n:])
		f.buf, f.head = f.buf[:n], 0
	}
	f.buf = append(f.buf, v)
}

func (f *fifo[T]) pop() T {
	v := f.buf[f.head]
	var zero T
	f.buf[f.head] = zero
	f.head++
	if f.head == len(f.buf) {
		f.buf, f.head = f.buf[:0], 0
	}
	return v
}

type resumeSignal int

const (
	resumeRun resumeSignal = iota
	resumeStop
)

// stoppedError is panicked inside process goroutines when the simulation
// shuts down; the process wrapper recovers it and unwinds cleanly.
type stoppedError struct{}

func (stoppedError) Error() string { return "sim: simulation stopped" }

// Sim is a discrete-event simulation instance. Create with New. A Sim must
// only be driven from a single goroutine (the one calling Run/RunUntil), and
// process code must only interact with the Sim through its own *Proc.
type Sim struct {
	now    Time
	seq    uint64
	bound  Time // events later than bound stay queued (RunUntil)
	queue  eventHeap
	yield  chan struct{} // signalled when control returns to Run/RunUntil
	procs  map[*Proc]struct{}
	closed bool
}

// New returns an empty simulation at virtual time zero.
func New() *Sim {
	return &Sim{
		yield: make(chan struct{}),
		procs: make(map[*Proc]struct{}),
	}
}

// Now returns the current virtual time.
func (s *Sim) Now() Time { return s.now }

func (s *Sim) schedule(at Time, p *Proc, fn func()) {
	if at < s.now {
		at = s.now
	}
	s.seq++
	s.queue.push(event{at: at, seq: s.seq, proc: p, fn: fn})
}

// At schedules fn to run at virtual time t (or now, if t is in the past).
// fn runs on whichever goroutine holds control at that instant (the caller
// of Run/RunUntil or a parking process) and must not block.
func (s *Sim) At(t Time, fn func()) { s.schedule(t, nil, fn) }

// Proc is the handle a process uses to interact with the simulation. All
// methods must be called from the process's own goroutine.
type Proc struct {
	s      *Sim
	name   string
	resume chan resumeSignal
	done   bool
}

// Spawn starts a new process executing fn. The process becomes runnable at
// the current virtual time. Spawn may be called before Run or from within
// another process.
func (s *Sim) Spawn(name string, fn func(p *Proc)) *Proc {
	if s.closed {
		panic("sim: Spawn after Shutdown")
	}
	p := &Proc{s: s, name: name, resume: make(chan resumeSignal)}
	s.procs[p] = struct{}{}
	go func() {
		defer p.exit()
		if sig := <-p.resume; sig == resumeStop {
			panic(stoppedError{})
		}
		fn(p)
	}()
	s.schedule(s.now, p, nil)
	return p
}

// next pops due events in (at, seq) order, running callbacks inline on the
// calling goroutine, and returns the next live process to resume. It returns
// nil when control belongs to Run/RunUntil: the queue is drained, its head
// lies past the bound, or the simulation is shutting down.
func (s *Sim) next() *Proc {
	for !s.closed && len(s.queue) > 0 && s.queue[0].at <= s.bound {
		ev := s.queue.pop()
		s.now = ev.at
		if ev.proc != nil {
			if !ev.proc.done {
				return ev.proc
			}
		} else if ev.fn != nil {
			ev.fn()
		}
	}
	return nil
}

// handoff passes control to q, or back to Run/RunUntil when q is nil.
func (s *Sim) handoff(q *Proc) {
	if q != nil {
		q.resume <- resumeRun
	} else {
		s.yield <- struct{}{}
	}
}

// drive runs events up to bound, resuming processes until one hands control
// back.
func (s *Sim) drive(bound Time) {
	s.bound = bound
	for p := s.next(); p != nil; p = s.next() {
		p.resume <- resumeRun
		<-s.yield
	}
}

// Run executes events until the event queue is empty.
func (s *Sim) Run() { s.drive(MaxTime) }

// RunUntil executes events with time <= t. The clock is left at min(t, time
// of last event executed); if events remain they stay queued.
func (s *Sim) RunUntil(t Time) {
	s.drive(t)
	if s.now < t {
		s.now = t
	}
}

// Shutdown terminates every parked process and marks the simulation closed.
// It must be called from scheduler context (not from inside a process).
// Blocking primitives inside processes unwind via an internal panic that the
// process wrapper recovers.
func (s *Sim) Shutdown() {
	s.closed = true
	for len(s.procs) > 0 {
		var p *Proc
		for q := range s.procs {
			p = q
			break
		}
		delete(s.procs, p)
		p.resume <- resumeStop
		<-s.yield
	}
	clear(s.queue)
	s.queue = s.queue[:0]
}

// park gives up control and blocks until resumed. It returns at once when
// the next due event is the process's own wakeup.
func (p *Proc) park() {
	q := p.s.next()
	if q == p {
		return
	}
	p.s.handoff(q)
	if sig := <-p.resume; sig == resumeStop {
		panic(stoppedError{})
	}
}

// exit ends the process goroutine and passes control on. It is deferred by
// Spawn, so it recovers the shutdown unwind and re-panics anything else.
func (p *Proc) exit() {
	p.done = true
	delete(p.s.procs, p)
	if r := recover(); r != nil {
		if _, ok := r.(stoppedError); !ok {
			panic(fmt.Sprintf("sim: process %q panicked: %v", p.name, r))
		}
	}
	p.s.handoff(p.s.next())
}

// Now returns the current virtual time.
func (p *Proc) Now() Time { return p.s.now }

// Sim returns the simulation this process belongs to.
func (p *Proc) Sim() *Sim { return p.s }

// Name returns the process name given at Spawn.
func (p *Proc) Name() string { return p.name }

// Sleep suspends the process for d nanoseconds of virtual time. Negative
// durations are treated as zero.
func (p *Proc) Sleep(d Time) {
	if d < 0 {
		d = 0
	}
	p.s.schedule(p.s.now+d, p, nil)
	p.park()
}

// Yield suspends the process until the scheduler has drained all events at
// the current instant, preserving FIFO order with respect to other runnable
// processes.
func (p *Proc) Yield() { p.Sleep(0) }

// Resource is a counted resource (semaphore) with FIFO granting, e.g. a pool
// of CPU cores or a NIC processing unit. It tracks aggregate busy time so
// runs can report utilization.
type Resource struct {
	s        *Sim
	capacity int
	inUse    int
	waiters  fifo[waiter]
	// busy accumulates unit-nanoseconds of held capacity; lastChange is the
	// last time inUse changed.
	busy       Time
	lastChange Time
}

// NewResource creates a resource with the given capacity (>= 1).
func NewResource(s *Sim, capacity int) *Resource {
	if capacity < 1 {
		panic("sim: resource capacity must be >= 1")
	}
	return &Resource{s: s, capacity: capacity}
}

// account folds the elapsed busy time up to now into the running total.
func (r *Resource) account() {
	now := r.s.now
	r.busy += Time(r.inUse) * (now - r.lastChange)
	r.lastChange = now
}

// waiter is a blocked acquirer: a parked process, or the grant step of a
// Visit.
type waiter struct {
	proc *Proc
	fn   func()
}

// Acquire obtains one unit, blocking in virtual time until available.
func (r *Resource) Acquire(p *Proc) {
	if r.TryAcquire() {
		return
	}
	r.waiters.push(waiter{proc: p})
	p.park() // resumed by Release via scheduled wake
	// Unit was transferred to us by Release; inUse already accounts for it.
}

// TryAcquire obtains one unit if immediately available.
func (r *Resource) TryAcquire() bool {
	if r.inUse < r.capacity && r.waiters.len() == 0 {
		r.account()
		r.inUse++
		return true
	}
	return false
}

// Release returns one unit, waking the oldest waiter if any.
func (r *Resource) Release() {
	if r.inUse <= 0 {
		panic("sim: Release without Acquire")
	}
	if r.waiters.len() > 0 {
		// Transfer the unit directly to the oldest waiter; wake it at the
		// current instant in FIFO order.
		w := r.waiters.pop()
		r.s.schedule(r.s.now, w.proc, w.fn)
		return
	}
	r.account()
	r.inUse--
}

// InUse returns the number of units currently held.
func (r *Resource) InUse() int { return r.inUse }

// Capacity returns the resource capacity.
func (r *Resource) Capacity() int { return r.capacity }

// QueueLen returns the number of processes and visits waiting to acquire.
func (r *Resource) QueueLen() int { return r.waiters.len() }

// BusyTime returns the accumulated unit-nanoseconds of held capacity up to
// the current virtual time.
func (r *Resource) BusyTime() Time {
	return r.busy + Time(r.inUse)*(r.s.now-r.lastChange)
}

// Utilization returns BusyTime divided by capacity over the window
// [since, now], in [0, 1+]. Callers snapshot BusyTime at the window start.
func (r *Resource) Utilization(busyAtStart, since Time) float64 {
	window := r.s.now - since
	if window <= 0 {
		return 0
	}
	return float64(r.BusyTime()-busyAtStart) / float64(window) / float64(r.capacity)
}

// Use acquires the resource, sleeps for the given service time, and
// releases. It models a visit to a FIFO service station.
func (r *Resource) Use(p *Proc, service Time) {
	r.Acquire(p)
	p.Sleep(service)
	r.Release()
}

// Visit is the process-free form of Use: it queues a visit of the given
// service time at the station and calls done when the visit ends. Its
// arrival, grant and end take exactly the schedule slots that a process
// spawned now to call Use would take, so the two are interchangeable
// without changing any timeline. done runs as a scheduler callback and
// must not block.
func (r *Resource) Visit(service Time, done func()) {
	v := &visit{r: r, service: service, done: done}
	v.step = v.advance
	r.s.schedule(r.s.now, nil, v.step)
}

// visit is one Visit in flight; step is its advance method, bound once.
type visit struct {
	r       *Resource
	service Time
	done    func()
	step    func()
	phase   int
}

const (
	visitArrive = iota // first step: take a free unit or queue
	visitGrant         // a Release handed this visit its unit
	visitEnd           // service time elapsed
)

// advance runs one scheduled step of a visit, mirroring Use: Acquire, the
// service Sleep, then Release.
func (v *visit) advance() {
	r := v.r
	switch v.phase {
	case visitArrive:
		if !r.TryAcquire() {
			v.phase = visitGrant
			r.waiters.push(waiter{fn: v.step})
			return
		}
	case visitEnd:
		r.Release()
		v.done()
		return
	}
	v.phase = visitEnd
	r.s.schedule(r.s.now+max(v.service, 0), nil, v.step)
}

// Queue is an unbounded FIFO message queue (a simpy-style store). Put never
// blocks; Get blocks in virtual time until an item is available.
type Queue struct {
	s       *Sim
	items   fifo[any]
	getters fifo[*Proc]
	// maxLen tracks the high-water mark, for instrumentation.
	maxLen int
}

// NewQueue creates an empty queue.
func NewQueue(s *Sim) *Queue { return &Queue{s: s} }

// Put appends v and wakes the oldest blocked getter, if any. It may be
// called from process or scheduler context.
func (q *Queue) Put(v any) {
	q.items.push(v)
	q.maxLen = max(q.maxLen, q.items.len())
	if q.getters.len() > 0 {
		q.s.schedule(q.s.now, q.getters.pop(), nil)
	}
}

// Get removes and returns the oldest item, blocking in virtual time while
// the queue is empty.
func (q *Queue) Get(p *Proc) any {
	for q.items.len() == 0 {
		q.getters.push(p)
		p.park()
	}
	return q.items.pop()
}

// Len returns the current queue length.
func (q *Queue) Len() int { return q.items.len() }

// MaxLen returns the high-water mark of the queue length.
func (q *Queue) MaxLen() int { return q.maxLen }

// Event is a one-shot level-triggered signal processes can wait on.
type Event struct {
	s       *Sim
	fired   bool
	waiters []*Proc
}

// NewEvent creates an unfired event.
func NewEvent(s *Sim) *Event { return &Event{s: s} }

// Fire marks the event fired and wakes all waiters. Firing twice is a no-op.
func (e *Event) Fire() {
	if e.fired {
		return
	}
	e.fired = true
	for _, w := range e.waiters {
		e.s.schedule(e.s.now, w, nil)
	}
	e.waiters = nil
}

// Fired reports whether the event has fired.
func (e *Event) Fired() bool { return e.fired }

// Wait blocks the process in virtual time until the event fires.
func (e *Event) Wait(p *Proc) {
	if e.fired {
		return
	}
	e.waiters = append(e.waiters, p)
	p.park()
}
