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
//
// A Path runs a fixed timeline of station steps as scheduler callbacks, in
// the slots the equivalent process code would take, so a process parks once
// per timeline rather than once per step.
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
	// wake is set by a callback that ends a Path run by a process: the
	// process resumes in that callback's slot, as if the slot were its own
	// wakeup.
	wake *Proc
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
			if p := s.wake; p != nil {
				s.wake = nil
				return p
			}
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

// waiter is a parked process, or the callback that resumes a Path, waiting
// for a resource unit or an event.
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
// service time at the station and calls done when the visit ends. It is a
// one-step Path started with Go, so it takes exactly the schedule slots that
// a process spawned now to call Use would take. done runs as a scheduler
// callback and must not block.
func (r *Resource) Visit(service Time, done func()) {
	pa := NewPath(r.s)
	pa.Use(r, service)
	pa.Go(done)
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

// Event is a one-shot level-triggered signal processes and Paths can wait
// on.
type Event struct {
	s       *Sim
	fired   bool
	waiters []waiter
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
		e.s.schedule(e.s.now, w.proc, w.fn)
	}
	clear(e.waiters)
	e.waiters = e.waiters[:0]
}

// Reset returns a fired event to the unfired state, so one Event can signal
// a sequence of one-shot conditions without allocating.
func (e *Event) Reset() {
	if len(e.waiters) > 0 {
		panic("sim: Reset of an event with waiters")
	}
	e.fired = false
}

// Fired reports whether the event has fired.
func (e *Event) Fired() bool { return e.fired }

// Wait blocks the process in virtual time until the event fires.
func (e *Event) Wait(p *Proc) {
	if e.fired {
		return
	}
	e.waiters = append(e.waiters, waiter{proc: p})
	p.park()
}

// Path is a reusable timeline of station steps: resource visits (Use),
// delays (Sleep), waits on an Event (Wait) and joins of forks (Join). It runs
// every step as scheduler callbacks, each started and ended in exactly the
// (at, seq) slot that the same steps written as process code (Resource.Use,
// Proc.Sleep, Event.Wait) would take for the process's own wakeups; a step
// that process code would pass without parking, such as a Wait on a fired
// event, passes without a slot here too. So a process that runs a Path parks
// once instead of once or twice per step, with an unchanged timeline, and a
// Path started with Go replaces a spawned process the same way.
//
// Steps are appended after Reset and run in order. A step's After hook runs
// when the step ends (after a Use step has released its unit) and may patch
// the service time of a later step before that step starts. A Path allocates
// nothing once its step list has grown to size.
type Path struct {
	s       *Sim
	steps   []pathStep
	cur     int       // index of the running step
	phase   pathPhase // what the next slot callback means
	pending int       // forks the Join step waits for
	joining bool      // parked at a Join step
	running bool
	proc    *Proc  // Run: the process resumed when the path ends
	done    func() // Go: called when the path ends
	fire    func() // slot, bound once
}

type stepKind uint8

const (
	stepUse stepKind = iota
	stepSleep
	stepWait
	stepJoin
)

type pathStep struct {
	kind  stepKind
	r     *Resource
	d     Time
	ev    *Event
	after func()
}

type pathPhase uint8

const (
	pathArrive pathPhase = iota // Go's first slot: start the first step
	pathGrant                   // a Release handed the Use step its unit
	pathEnd                     // the running step's time is over
)

// NewPath returns an empty path on s.
func NewPath(s *Sim) *Path {
	pa := &Path{s: s}
	pa.fire = pa.slot
	return pa
}

// Reset empties the step list so the path can be built again. The path must
// not be running.
func (pa *Path) Reset() {
	if pa.running {
		panic("sim: Reset of a running Path")
	}
	pa.steps = pa.steps[:0]
}

func (pa *Path) add(st pathStep) int {
	pa.steps = append(pa.steps, st)
	return len(pa.steps) - 1
}

// Use appends a visit of the given service time to r, like Resource.Use,
// and returns the step's index.
func (pa *Path) Use(r *Resource, service Time) int {
	return pa.add(pathStep{kind: stepUse, r: r, d: service})
}

// Sleep appends a delay of d, like Proc.Sleep, and returns the step's index.
func (pa *Path) Sleep(d Time) int { return pa.add(pathStep{kind: stepSleep, d: d}) }

// Wait appends a wait for e to fire, like Event.Wait.
func (pa *Path) Wait(e *Event) { pa.add(pathStep{kind: stepWait, ev: e}) }

// Join appends a wait until every fork registered with Add has called Done,
// like waiting on an Event the last fork fires.
func (pa *Path) Join() { pa.add(pathStep{kind: stepJoin}) }

// After sets the hook run when the last appended step ends. It runs as part
// of that step's end slot and must not block.
func (pa *Path) After(fn func()) { pa.steps[len(pa.steps)-1].after = fn }

// SetService sets the service time of Use or Sleep step i, which must not
// have started yet.
func (pa *Path) SetService(i int, d Time) {
	if pa.running && i < pa.cur {
		panic("sim: SetService of a started Path step")
	}
	pa.steps[i].d = d
}

// Add registers n forks that the Join step waits for.
func (pa *Path) Add(n int) { pa.pending += n }

// Done marks one registered fork finished. The last one resumes a path
// waiting at its Join step in a new slot at the current instant, as
// Event.Fire resumes a waiter.
func (pa *Path) Done() {
	if pa.pending <= 0 {
		panic("sim: Path.Done without Add")
	}
	pa.pending--
	if pa.pending == 0 && pa.joining {
		pa.joining = false
		pa.s.schedule(pa.s.now, nil, pa.fire)
	}
}

// Run runs the path on behalf of p, which must be the calling process. Steps
// start inline, as p's own code would, then p parks until the slot where the
// last step ends; the last Use step's unit is released and its After hook
// has run by the time Run returns.
func (pa *Path) Run(p *Proc) {
	pa.begin()
	if pa.start() {
		pa.running = false
		return
	}
	pa.proc = p
	p.park()
}

// Go runs the path without a process, in the slots a process spawned now to
// run the same steps would take: the first step starts in an arrival slot,
// and done is called as a scheduler callback in the slot where the last step
// ends. done must not block.
func (pa *Path) Go(done func()) {
	pa.begin()
	pa.done = done
	pa.phase = pathArrive
	pa.s.schedule(pa.s.now, nil, pa.fire)
}

func (pa *Path) begin() {
	if pa.running {
		panic("sim: Path started twice")
	}
	pa.running = true
	pa.cur = 0
}

// start runs steps from the current one until a step takes a schedule slot,
// and reports whether the path has ended.
func (pa *Path) start() bool {
	for pa.cur < len(pa.steps) {
		st := &pa.steps[pa.cur]
		switch st.kind {
		case stepUse:
			if !st.r.TryAcquire() {
				pa.phase = pathGrant
				st.r.waiters.push(waiter{fn: pa.fire})
				return false
			}
			pa.endIn(st.d)
			return false
		case stepSleep:
			pa.endIn(st.d)
			return false
		case stepWait:
			if !st.ev.fired {
				pa.phase = pathEnd
				st.ev.waiters = append(st.ev.waiters, waiter{fn: pa.fire})
				return false
			}
		case stepJoin:
			if pa.pending > 0 {
				pa.phase = pathEnd
				pa.joining = true
				return false
			}
		}
		pa.finish()
	}
	return true
}

// endIn schedules the end of the running step d from now.
func (pa *Path) endIn(d Time) {
	pa.phase = pathEnd
	pa.s.schedule(pa.s.now+max(d, 0), nil, pa.fire)
}

// finish ends the current step: a Use step releases its unit, then the
// step's After hook runs.
func (pa *Path) finish() {
	st := &pa.steps[pa.cur]
	pa.cur++
	if st.kind == stepUse {
		st.r.Release()
	}
	if st.after != nil {
		st.after()
	}
}

// slot is the path's scheduler callback: every slot the path takes runs it.
func (pa *Path) slot() {
	switch pa.phase {
	case pathGrant:
		pa.endIn(pa.steps[pa.cur].d)
		return
	case pathEnd:
		pa.finish()
	}
	if !pa.start() {
		return
	}
	pa.running = false
	if p := pa.proc; p != nil {
		pa.proc = nil
		pa.s.wake = p
		return
	}
	if done := pa.done; done != nil {
		pa.done = nil
		done()
	}
}
