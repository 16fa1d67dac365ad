package sim

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"reflect"
	"testing"
)

func TestSleepAdvancesVirtualTime(t *testing.T) {
	s := New()
	var at1, at2 Time
	s.Spawn("p", func(p *Proc) {
		p.Sleep(100)
		at1 = p.Now()
		p.Sleep(250)
		at2 = p.Now()
	})
	s.Run()
	if at1 != 100 || at2 != 350 {
		t.Fatalf("got times %d, %d; want 100, 350", at1, at2)
	}
}

func TestNegativeSleepIsZero(t *testing.T) {
	s := New()
	var at Time = -1
	s.Spawn("p", func(p *Proc) {
		p.Sleep(-5)
		at = p.Now()
	})
	s.Run()
	if at != 0 {
		t.Fatalf("time after negative sleep = %d; want 0", at)
	}
}

func TestProcessesInterleaveDeterministically(t *testing.T) {
	run := func() []string {
		s := New()
		var order []string
		s.Spawn("a", func(p *Proc) {
			p.Sleep(10)
			order = append(order, "a10")
			p.Sleep(20)
			order = append(order, "a30")
		})
		s.Spawn("b", func(p *Proc) {
			p.Sleep(20)
			order = append(order, "b20")
			p.Sleep(20)
			order = append(order, "b40")
		})
		s.Run()
		return order
	}
	want := []string{"a10", "b20", "a30", "b40"}
	for trial := 0; trial < 10; trial++ {
		got := run()
		if len(got) != len(want) {
			t.Fatalf("trial %d: got %v; want %v", trial, got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("trial %d: got %v; want %v", trial, got, want)
			}
		}
	}
}

func TestEqualTimeFIFOOrder(t *testing.T) {
	s := New()
	var order []int
	for i := 0; i < 5; i++ {
		i := i
		s.Spawn("p", func(p *Proc) {
			p.Sleep(100)
			order = append(order, i)
		})
	}
	s.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("order = %v; want ascending spawn order", order)
		}
	}
}

func TestAtCallback(t *testing.T) {
	s := New()
	fired := Time(-1)
	s.At(500, func() { fired = s.Now() })
	s.Run()
	if fired != 500 {
		t.Fatalf("callback at %d; want 500", fired)
	}
}

func TestRunUntilStopsAndAdvancesClock(t *testing.T) {
	s := New()
	count := 0
	s.Spawn("p", func(p *Proc) {
		for i := 0; i < 100; i++ {
			p.Sleep(10)
			count++
		}
	})
	s.RunUntil(55)
	if count != 5 {
		t.Fatalf("count after RunUntil(55) = %d; want 5", count)
	}
	if s.Now() != 55 {
		t.Fatalf("Now() = %d; want 55", s.Now())
	}
	s.Shutdown()
}

func TestResourceSerializesUse(t *testing.T) {
	s := New()
	r := NewResource(s, 1)
	var ends []Time
	for i := 0; i < 3; i++ {
		s.Spawn("p", func(p *Proc) {
			r.Use(p, 100)
			ends = append(ends, p.Now())
		})
	}
	s.Run()
	want := []Time{100, 200, 300}
	for i := range want {
		if ends[i] != want[i] {
			t.Fatalf("ends = %v; want %v", ends, want)
		}
	}
}

func TestResourceCapacityTwoRunsPairsConcurrently(t *testing.T) {
	s := New()
	r := NewResource(s, 2)
	var ends []Time
	for i := 0; i < 4; i++ {
		s.Spawn("p", func(p *Proc) {
			r.Use(p, 100)
			ends = append(ends, p.Now())
		})
	}
	s.Run()
	want := []Time{100, 100, 200, 200}
	for i := range want {
		if ends[i] != want[i] {
			t.Fatalf("ends = %v; want %v", ends, want)
		}
	}
}

func TestResourceFIFOGranting(t *testing.T) {
	s := New()
	r := NewResource(s, 1)
	var order []int
	for i := 0; i < 5; i++ {
		i := i
		s.Spawn("p", func(p *Proc) {
			p.Sleep(Time(i)) // arrive in index order
			r.Acquire(p)
			p.Sleep(50)
			order = append(order, i)
			r.Release()
		})
	}
	s.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("grant order = %v; want FIFO", order)
		}
	}
}

func TestTryAcquire(t *testing.T) {
	s := New()
	r := NewResource(s, 1)
	if !r.TryAcquire() {
		t.Fatal("first TryAcquire failed")
	}
	if r.TryAcquire() {
		t.Fatal("second TryAcquire succeeded on full resource")
	}
	r.Release()
	if !r.TryAcquire() {
		t.Fatal("TryAcquire after Release failed")
	}
}

func TestReleaseWithoutAcquirePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	s := New()
	r := NewResource(s, 1)
	r.Release()
}

func TestQueueBlockingGet(t *testing.T) {
	s := New()
	q := NewQueue(s)
	var got any
	var at Time
	s.Spawn("consumer", func(p *Proc) {
		got = q.Get(p)
		at = p.Now()
	})
	s.Spawn("producer", func(p *Proc) {
		p.Sleep(300)
		q.Put(42)
	})
	s.Run()
	if got != 42 || at != 300 {
		t.Fatalf("got %v at %d; want 42 at 300", got, at)
	}
}

func TestQueueFIFO(t *testing.T) {
	s := New()
	q := NewQueue(s)
	q.Put(1)
	q.Put(2)
	q.Put(3)
	var got []int
	s.Spawn("c", func(p *Proc) {
		for i := 0; i < 3; i++ {
			got = append(got, q.Get(p).(int))
		}
	})
	s.Run()
	for i, v := range got {
		if v != i+1 {
			t.Fatalf("got %v; want [1 2 3]", got)
		}
	}
	if q.MaxLen() != 3 {
		t.Fatalf("MaxLen = %d; want 3", q.MaxLen())
	}
}

func TestQueueMultipleGetters(t *testing.T) {
	s := New()
	q := NewQueue(s)
	var got []int
	for i := 0; i < 3; i++ {
		s.Spawn("c", func(p *Proc) {
			got = append(got, q.Get(p).(int))
		})
	}
	s.Spawn("producer", func(p *Proc) {
		for i := 1; i <= 3; i++ {
			p.Sleep(10)
			q.Put(i)
		}
	})
	s.Run()
	if len(got) != 3 {
		t.Fatalf("got %v; want 3 items", got)
	}
	for i, v := range got {
		if v != i+1 {
			t.Fatalf("got %v; want FIFO delivery [1 2 3]", got)
		}
	}
}

func TestEventWakesAllWaiters(t *testing.T) {
	s := New()
	e := NewEvent(s)
	woke := 0
	for i := 0; i < 4; i++ {
		s.Spawn("w", func(p *Proc) {
			e.Wait(p)
			woke++
		})
	}
	s.Spawn("firer", func(p *Proc) {
		p.Sleep(100)
		e.Fire()
		e.Fire() // idempotent
	})
	s.Run()
	if woke != 4 {
		t.Fatalf("woke = %d; want 4", woke)
	}
	if !e.Fired() {
		t.Fatal("event not marked fired")
	}
	// Waiting on a fired event returns immediately.
	returned := false
	s.Spawn("late", func(p *Proc) {
		e.Wait(p)
		returned = true
	})
	s.Run()
	if !returned {
		t.Fatal("late waiter did not return")
	}
}

func TestShutdownUnwindsParkedProcesses(t *testing.T) {
	s := New()
	q := NewQueue(s)
	started := 0
	for i := 0; i < 8; i++ {
		s.Spawn("blocked", func(p *Proc) {
			started++
			q.Get(p) // blocks forever
			t.Error("process resumed past Get after shutdown")
		})
	}
	s.RunUntil(10)
	if started != 8 {
		t.Fatalf("started = %d; want 8", started)
	}
	s.Shutdown()
	// All goroutines must have exited; a second shutdown is a no-op.
	s.Shutdown()
}

func TestSpawnFromWithinProcess(t *testing.T) {
	s := New()
	var childAt Time = -1
	s.Spawn("parent", func(p *Proc) {
		p.Sleep(100)
		p.Sim().Spawn("child", func(c *Proc) {
			c.Sleep(50)
			childAt = c.Now()
		})
		p.Sleep(500)
	})
	s.Run()
	if childAt != 150 {
		t.Fatalf("child finished at %d; want 150", childAt)
	}
}

func TestYieldPreservesFIFO(t *testing.T) {
	s := New()
	var order []int
	for i := 0; i < 3; i++ {
		i := i
		s.Spawn("p", func(p *Proc) {
			p.Yield()
			order = append(order, i)
		})
	}
	s.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("order = %v; want FIFO", order)
		}
	}
}

func BenchmarkSleepWakeup(b *testing.B) {
	s := New()
	s.Spawn("p", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			p.Sleep(1)
		}
	})
	b.ResetTimer()
	s.Run()
}

func BenchmarkResourceHandoff(b *testing.B) {
	s := New()
	r := NewResource(s, 1)
	for w := 0; w < 4; w++ {
		s.Spawn("p", func(p *Proc) {
			for i := 0; i < b.N/4; i++ {
				r.Use(p, 1)
			}
		})
	}
	b.ResetTimer()
	s.Run()
}

func TestResourceBusyTimeAndUtilization(t *testing.T) {
	s := New()
	r := NewResource(s, 2)
	for i := 0; i < 2; i++ {
		s.Spawn("p", func(p *Proc) {
			r.Use(p, 100)
		})
	}
	s.Run()
	if got := r.BusyTime(); got != 200 {
		t.Fatalf("BusyTime = %d; want 200", got)
	}
	// Both units busy for the whole [0,100] window: utilization 1.
	s2 := New()
	r2 := NewResource(s2, 1)
	s2.Spawn("p", func(p *Proc) {
		r2.Use(p, 50)
		p.Sleep(50)
	})
	s2.Run()
	if u := r2.Utilization(0, 0); u < 0.49 || u > 0.51 {
		t.Fatalf("Utilization = %f; want 0.5", u)
	}
}

// goldenDigest pins the timeline of goldenScenario. It was computed on the
// kernel that routed every process switch through the goroutine calling Run
// (with spawnUse standing in for Visit), so it proves the direct-handoff
// kernel keeps the exact (at, seq) event order.
const (
	goldenDigest  uint64 = 0x772e2a04e501301e
	goldenRecords        = 304
)

func TestGoldenTimelineDigest(t *testing.T) {
	for _, tc := range []struct {
		name       string
		visit      func(s *Sim, r *Resource, service Time, done func())
		clientPath bool
	}{
		{"Visit", visitCallback, false},
		{"spawnUse", spawnUse, false},
		{"Path", visitCallback, true},
	} {
		d, n := goldenScenario(tc.visit, tc.clientPath)
		if d != goldenDigest || n != goldenRecords {
			t.Errorf("%s: digest %#x over %d records; want %#x over %d", tc.name, d, n, goldenDigest, goldenRecords)
		}
	}
}

func visitCallback(s *Sim, r *Resource, service Time, done func()) { r.Visit(service, done) }

// goldenScenario runs a mixed workload over every kernel primitive and
// returns an FNV-64a digest of its (now, who) timeline and the number of
// records. visit performs a station visit; passing spawnUse or
// (*Resource).Visit must give the same digest. With clientPath, each client
// runs its whole station program as one Path instead of as process code,
// which must give the same digest too.
func goldenScenario(visit func(s *Sim, r *Resource, service Time, done func()), clientPath bool) (uint64, int) {
	s := New()
	h := fnv.New64a()
	n := 0
	rec := func(who string, k int) {
		fmt.Fprintf(h, "%d %s %d\n", s.Now(), who, k)
		n++
	}
	nic := NewResource(s, 1)
	cores := NewResource(s, 2)
	q := NewQueue(s)
	start := NewEvent(s)
	for i := 0; i < 4; i++ {
		i := i
		name := fmt.Sprintf("client%d", i)
		// afterCore is the client's work between its core visit and its
		// yield in round k.
		afterCore := func(k int) {
			rec(name+"/core", k)
			if k%3 == i%3 {
				q.Put(i*100 + k)
			}
			if k%4 == 0 {
				visit(s, nic, Time(2+k%3), func() { rec(name+"/visit", k) })
				visit(s, cores, Time(5), func() { rec(name+"/cvisit", k) })
			}
			if i == 1 && k == 10 {
				s.Spawn("child", func(c *Proc) {
					c.Sleep(7)
					cores.Use(c, 4)
					rec("child", k)
				})
			}
		}
		s.Spawn(name, func(p *Proc) {
			if clientPath {
				pa := NewPath(s)
				pa.Wait(start)
				pa.After(func() { rec(name+"/start", 0) })
				for k := 0; k < 25; k++ {
					pa.Use(nic, Time(3+(i*7+k)%5))
					pa.After(func() { rec(name+"/nic", k) })
					pa.Use(cores, Time((k*(i+1))%4))
					pa.After(func() { afterCore(k) })
					pa.Sleep(0)
				}
				pa.Run(p)
				rec(name+"/exit", 0)
				return
			}
			start.Wait(p)
			rec(name+"/start", 0)
			for k := 0; k < 25; k++ {
				nic.Use(p, Time(3+(i*7+k)%5))
				rec(name+"/nic", k)
				cores.Acquire(p)
				p.Sleep(Time((k * (i + 1)) % 4))
				cores.Release()
				afterCore(k)
				p.Yield()
			}
			rec(name+"/exit", 0)
		})
	}
	for g := 0; g < 2; g++ {
		name := fmt.Sprintf("getter%d", g)
		s.Spawn(name, func(p *Proc) {
			for {
				v := q.Get(p).(int)
				rec(name, v)
				nic.Use(p, 1)
			}
		})
	}
	s.At(5, func() {
		rec("at", 5)
		start.Fire()
	})
	s.At(40, func() {
		rec("at", 40)
		visit(s, nic, 9, func() { rec("at/visit", 40) })
	})
	s.At(40, func() { rec("at", 41) })
	s.Run()
	rec("end", q.Len())
	s.Shutdown()
	return h.Sum64(), n
}

// spawnUse is the process form of Resource.Visit.
func spawnUse(s *Sim, r *Resource, service Time, done func()) {
	s.Spawn("visit", func(p *Proc) {
		r.Use(p, service)
		done()
	})
}

// visitTimeline runs process clients and fork-join visits against one
// resource and returns the (now, who) timeline and the resource's busy
// time.
func visitTimeline(capacity int, visit func(s *Sim, r *Resource, service Time, done func())) ([]string, Time) {
	s := New()
	r := NewResource(s, capacity)
	var tl []string
	rec := func(who string) { tl = append(tl, fmt.Sprintf("%d %s", s.Now(), who)) }
	for i := 0; i < 3; i++ {
		name := fmt.Sprintf("proc%d", i)
		s.Spawn(name, func(p *Proc) {
			for k := 0; k < 6; k++ {
				p.Sleep(Time(i))
				r.Use(p, Time(5+i+k%3))
				rec(name)
				if k%2 == 0 {
					pending := 2
					join := NewEvent(s)
					for j := 0; j < 2; j++ {
						who := fmt.Sprintf("%s/fork%d.%d", name, k, j)
						visit(s, r, Time(3+j), func() {
							rec(who)
							if pending--; pending == 0 {
								join.Fire()
							}
						})
					}
					join.Wait(p)
					rec(name + "/join")
				}
			}
		})
	}
	s.At(4, func() { visit(s, r, 2, func() { rec("at/visit") }) })
	s.Run()
	return tl, r.BusyTime()
}

func TestVisitMatchesSpawnedUse(t *testing.T) {
	for _, capacity := range []int{1, 2} {
		want, wantBusy := visitTimeline(capacity, spawnUse)
		got, gotBusy := visitTimeline(capacity, visitCallback)
		if !reflect.DeepEqual(got, want) || gotBusy != wantBusy {
			t.Fatalf("capacity %d: Visit timeline (busy %d)\n%v\nwant spawned Use (busy %d)\n%v", capacity, gotBusy, got, wantBusy, want)
		}
	}
}

func TestHandoffStopsAtRunUntilBound(t *testing.T) {
	run := func(bound Time) (first, all []Time, nowAtBound Time) {
		s := New()
		rec := func() { all = append(all, s.Now()) }
		r := NewResource(s, 1)
		for i := 0; i < 3; i++ {
			s.Spawn("p", func(p *Proc) {
				for k := 0; k < 10; k++ {
					p.Sleep(Time(7 + i))
					r.Use(p, 3)
					rec()
				}
			})
		}
		s.At(50, rec)
		s.At(60, rec)
		s.RunUntil(bound)
		first = append(first, all...)
		nowAtBound = s.Now()
		s.Run()
		return first, all, nowAtBound
	}
	_, want, _ := run(MaxTime)
	first, all, now := run(55)
	if now != 55 {
		t.Fatalf("Now() after RunUntil(55) = %d; want 55", now)
	}
	if len(first) == 0 || len(first) == len(want) {
		t.Fatalf("RunUntil(55) ran %d of %d events; want a strict prefix", len(first), len(want))
	}
	for _, at := range first {
		if at > 55 {
			t.Fatalf("event at %d ran before the bound was lifted: %v", at, first)
		}
	}
	if !reflect.DeepEqual(all, want) {
		t.Fatalf("bounded then resumed run\n%v\nwant unbounded run\n%v", all, want)
	}
}

func TestShutdownAfterBoundedRunUnwinds(t *testing.T) {
	s := New()
	r := NewResource(s, 1)
	q := NewQueue(s)
	e := NewEvent(s)
	unwound, resumedPast := 0, 0
	spawn := func(block func(p *Proc)) {
		s.Spawn("p", func(p *Proc) {
			defer func() { unwound++ }()
			block(p)
			resumedPast++
		})
	}
	spawn(func(p *Proc) { r.Use(p, 1000) }) // holds the unit past the bound
	spawn(func(p *Proc) { r.Use(p, 1) })    // queued behind it
	spawn(func(p *Proc) { q.Get(p) })       // empty queue
	spawn(func(p *Proc) { e.Wait(p) })      // never fired
	spawn(func(p *Proc) { p.Sleep(500) })   // wakeup past the bound
	s.At(150, func() { t.Error("callback past the bound ran") })
	s.RunUntil(100)
	s.Shutdown()
	if unwound != 5 || resumedPast != 0 {
		t.Fatalf("unwound %d processes, %d resumed past their block; want 5 and 0", unwound, resumedPast)
	}
	s.Shutdown()
}

func TestSleepWakeupAllocs(t *testing.T) {
	s := New()
	s.Spawn("sleeper", func(p *Proc) {
		for {
			p.Sleep(1)
		}
	})
	allocs := testing.AllocsPerRun(1000, func() { s.RunUntil(s.Now() + 1) })
	s.Shutdown()
	if allocs != 0 {
		t.Fatalf("Sleep wakeup: %v allocs/op; want 0", allocs)
	}
}

func TestResourceUseHandoffAllocs(t *testing.T) {
	s := New()
	r := NewResource(s, 1)
	for i := 0; i < 2; i++ {
		s.Spawn("user", func(p *Proc) {
			for {
				r.Use(p, 1)
			}
		})
	}
	allocs := testing.AllocsPerRun(1000, func() { s.RunUntil(s.Now() + 1) })
	s.Shutdown()
	if allocs != 0 {
		t.Fatalf("Resource.Use handoff: %v allocs/op; want 0", allocs)
	}
}

// pathOp is one operation of a randomized station program: a Use, a Sleep,
// a Wait on an event, a fork of station visits, or a join of those forks.
type pathOp struct {
	kind  int // opUse, opSleep, opWait, opFork, opJoin
	r     int // resource index (opUse)
	d     Time
	ev    int             // event index (opWait)
	forks []pathForkVisit // opFork
}

type pathForkVisit struct {
	r int
	d Time
}

const (
	opUse = iota
	opSleep
	opWait
	opFork
	opJoin
)

// randomProgram returns 2-8 ops. Every fork is joined before the next fork
// and before the program ends; a detached program does not start with a
// fork, since a Path started with Go has no step before its first to hang
// the fork on.
func randomProgram(rng *rand.Rand, resources, events int, detached bool) []pathOp {
	var prog []pathOp
	forked := false
	n := 2 + rng.Intn(7)
	dur := func() Time {
		if rng.Intn(3) == 0 {
			return 0
		}
		return Time(1 + rng.Intn(7))
	}
	for len(prog) < n {
		switch k := rng.Intn(6); {
		case k == 0 && !forked && !(detached && len(prog) == 0):
			var fs []pathForkVisit
			for j := 1 + rng.Intn(3); j > 0; j-- {
				fs = append(fs, pathForkVisit{r: rng.Intn(resources), d: dur()})
			}
			prog = append(prog, pathOp{kind: opFork, forks: fs})
			forked = true
		case k == 1 && forked:
			prog = append(prog, pathOp{kind: opJoin})
			forked = false
		case k == 2:
			prog = append(prog, pathOp{kind: opWait, ev: rng.Intn(events)})
		case k == 3:
			prog = append(prog, pathOp{kind: opSleep, d: dur()})
		default:
			prog = append(prog, pathOp{kind: opUse, r: rng.Intn(resources), d: dur()})
		}
	}
	if forked {
		prog = append(prog, pathOp{kind: opJoin})
	}
	return prog
}

// pathWorld is one randomized scenario: stations of capacity 1-3, events
// fired by callbacks, background processes and visits contending for the
// stations, and subject programs run either as process code or as Paths.
type pathWorld struct {
	caps       []int
	fireAt     []Time
	background [][]pathOp // run as process code in both forms
	visitsAt   []Time     // a callback at each time visits station i%len(caps)
	subjects   [][][]pathOp
	detached   [][]pathOp // started from a callback at detachAt
	detachAt   []Time
}

func randomPathWorld(seed int64) pathWorld {
	rng := rand.New(rand.NewSource(seed))
	var w pathWorld
	for i := 1 + rng.Intn(3); i > 0; i-- {
		w.caps = append(w.caps, 1+rng.Intn(3))
	}
	for i := 1 + rng.Intn(3); i > 0; i-- {
		w.fireAt = append(w.fireAt, Time(rng.Intn(40)))
	}
	for i := rng.Intn(3); i > 0; i-- {
		var prog []pathOp
		for j := 2 + rng.Intn(6); j > 0; j-- {
			prog = append(prog, pathOp{kind: opUse, r: rng.Intn(len(w.caps)), d: Time(rng.Intn(6))})
		}
		w.background = append(w.background, prog)
	}
	for i := rng.Intn(5); i > 0; i-- {
		w.visitsAt = append(w.visitsAt, Time(rng.Intn(30)))
	}
	for i := 1 + rng.Intn(3); i > 0; i-- {
		var runs [][]pathOp
		for j := 1 + rng.Intn(3); j > 0; j-- {
			runs = append(runs, randomProgram(rng, len(w.caps), len(w.fireAt), false))
		}
		w.subjects = append(w.subjects, runs)
	}
	for i := rng.Intn(3); i > 0; i-- {
		w.detached = append(w.detached, randomProgram(rng, len(w.caps), len(w.fireAt), true))
		w.detachAt = append(w.detachAt, Time(rng.Intn(20)))
	}
	return w
}

// run executes the world and returns its (now, who) timeline and the busy
// time of every station. With asPath, subject and detached programs run as
// Paths (Run and Go); otherwise as process code with Event-joined forks.
func (w pathWorld) run(asPath bool) ([]string, []Time) {
	s := New()
	var tl []string
	rec := func(who string) { tl = append(tl, fmt.Sprintf("%d %s", s.Now(), who)) }
	rs := make([]*Resource, len(w.caps))
	for i, c := range w.caps {
		rs[i] = NewResource(s, c)
	}
	evs := make([]*Event, len(w.fireAt))
	for i, at := range w.fireAt {
		evs[i] = NewEvent(s)
		s.At(at, evs[i].Fire)
	}
	for i, at := range w.visitsAt {
		who := fmt.Sprintf("bgvisit%d", i)
		s.At(at, func() { rs[i%len(rs)].Visit(Time(i%4), func() { rec(who) }) })
	}
	for b, prog := range w.background {
		s.Spawn("bg", func(p *Proc) {
			for k, op := range prog {
				rs[op.r].Use(p, op.d)
				rec(fmt.Sprintf("bg%d/%d", b, k))
			}
		})
	}
	for a, runs := range w.subjects {
		s.Spawn("subject", func(p *Proc) {
			pa := NewPath(s)
			for r, prog := range runs {
				name := fmt.Sprintf("s%d/%d", a, r)
				if asPath {
					pa.Reset()
					buildPath(s, pa, rs, evs, prog, name, rec)
					pa.Run(p)
				} else {
					runProcess(s, p, rs, evs, prog, name, rec)
				}
				rec(name + "/done")
			}
		})
	}
	for d, prog := range w.detached {
		name := fmt.Sprintf("d%d", d)
		done := func() { rec(name + "/done") }
		s.At(w.detachAt[d], func() {
			if asPath {
				pa := NewPath(s)
				buildPath(s, pa, rs, evs, prog, name, rec)
				pa.Go(done)
				return
			}
			s.Spawn(name, func(p *Proc) {
				runProcess(s, p, rs, evs, prog, name, rec)
				done()
			})
		})
	}
	s.Run()
	busy := make([]Time, len(rs))
	for i, r := range rs {
		busy[i] = r.BusyTime()
	}
	return tl, busy
}

// runProcess runs prog as process code: the reference form.
func runProcess(s *Sim, p *Proc, rs []*Resource, evs []*Event, prog []pathOp, name string, rec func(string)) {
	pending := 0
	join := NewEvent(s)
	for k, op := range prog {
		who := fmt.Sprintf("%s/%d", name, k)
		switch op.kind {
		case opUse:
			rs[op.r].Use(p, op.d)
		case opSleep:
			p.Sleep(op.d)
		case opWait:
			evs[op.ev].Wait(p)
		case opFork:
			for j, f := range op.forks {
				pending++
				spawnUse(s, rs[f.r], f.d, func() {
					rec(fmt.Sprintf("%s/fork%d", who, j))
					if pending--; pending == 0 {
						join.Fire()
					}
				})
			}
		case opJoin:
			if pending > 0 {
				join.Wait(p)
			}
			join = NewEvent(s)
		}
		rec(who)
	}
}

// buildPath appends prog's steps to pa. A fork issues its visits in the
// After hook of the step before it, or at once when it comes first.
func buildPath(s *Sim, pa *Path, rs []*Resource, evs []*Event, prog []pathOp, name string, rec func(string)) {
	var hooks []func() // work due when the last appended step ends
	flush := func() {
		hs := hooks
		hooks = nil
		if len(pa.steps) == 0 {
			for _, h := range hs {
				h()
			}
			return
		}
		pa.After(func() {
			for _, h := range hs {
				h()
			}
		})
	}
	for k, op := range prog {
		who := fmt.Sprintf("%s/%d", name, k)
		switch op.kind {
		case opFork:
			hooks = append(hooks, func() {
				for j, f := range op.forks {
					pa.Add(1)
					rs[f.r].Visit(f.d, func() {
						rec(fmt.Sprintf("%s/fork%d", who, j))
						pa.Done()
					})
				}
			})
			hooks = append(hooks, func() { rec(who) })
			continue
		}
		flush()
		switch op.kind {
		case opUse:
			pa.Use(rs[op.r], op.d)
		case opSleep:
			pa.Sleep(op.d)
		case opWait:
			pa.Wait(evs[op.ev])
		case opJoin:
			pa.Join()
		}
		hooks = append(hooks, func() { rec(who) })
	}
	flush()
}

func TestPathMatchesProcess(t *testing.T) {
	for seed := int64(1); seed <= 400; seed++ {
		w := randomPathWorld(seed)
		want, wantBusy := w.run(false)
		got, gotBusy := w.run(true)
		if !reflect.DeepEqual(got, want) || !reflect.DeepEqual(gotBusy, wantBusy) {
			t.Fatalf("seed %d: Path timeline (busy %v)\n%v\nwant process code (busy %v)\n%v", seed, gotBusy, got, wantBusy, want)
		}
	}
}
