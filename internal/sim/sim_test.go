package sim

import (
	"fmt"
	"hash/fnv"
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
		name  string
		visit func(s *Sim, r *Resource, service Time, done func())
	}{
		{"Visit", func(s *Sim, r *Resource, service Time, done func()) { r.Visit(service, done) }},
		{"spawnUse", spawnUse},
	} {
		d, n := goldenScenario(tc.visit)
		if d != goldenDigest || n != goldenRecords {
			t.Errorf("%s: digest %#x over %d records; want %#x over %d", tc.name, d, n, goldenDigest, goldenRecords)
		}
	}
}

// goldenScenario runs a mixed workload over every kernel primitive and
// returns an FNV-64a digest of its (now, who) timeline and the number of
// records. visit performs a station visit; passing spawnUse or
// (*Resource).Visit must give the same digest.
func goldenScenario(visit func(s *Sim, r *Resource, service Time, done func())) (uint64, int) {
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
		s.Spawn(name, func(p *Proc) {
			start.Wait(p)
			rec(name+"/start", 0)
			for k := 0; k < 25; k++ {
				nic.Use(p, Time(3+(i*7+k)%5))
				rec(name+"/nic", k)
				cores.Acquire(p)
				p.Sleep(Time((k * (i + 1)) % 4))
				cores.Release()
				rec(name+"/core", k)
				if k%3 == i%3 {
					q.Put(i*100 + k)
				}
				if k%4 == 0 {
					kk := k
					visit(s, nic, Time(2+kk%3), func() { rec(name+"/visit", kk) })
					visit(s, cores, Time(5), func() { rec(name+"/cvisit", kk) })
				}
				if i == 1 && k == 10 {
					p.Sim().Spawn("child", func(c *Proc) {
						c.Sleep(7)
						cores.Use(c, 4)
						rec("child", k)
					})
				}
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
		got, gotBusy := visitTimeline(capacity, func(s *Sim, r *Resource, service Time, done func()) { r.Visit(service, done) })
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
