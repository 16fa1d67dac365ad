package main

import (
	"sort"
	"testing"

	"github.com/namdb/rdmatree/internal/rdma"
	"github.com/namdb/rdmatree/internal/rdma/repl"
	"github.com/namdb/rdmatree/internal/sim"
)

// small returns a reduced copy of a workload: same design, topology and
// mix, a smaller data set and a short window.
func small(sp *spec) *spec {
	c := *sp
	c.DataSize = 20_000
	c.WarmupNS = 1_000_000
	c.MeasureNS = 3_000_000
	return &c
}

func run(t *testing.T, sp *spec, traced bool) (*runResult, *simDeploy) {
	t.Helper()
	d, err := deploySim(sp, traced)
	if err != nil {
		t.Fatal(err)
	}
	r, err := runSim(d, 42)
	if err != nil {
		t.Fatal(err)
	}
	if r.failed != 0 {
		t.Fatalf("%d failed ops: %v", r.failed, r.failures)
	}
	return r, d
}

// TestTracedRunIsFaithful checks that decorating every seam leaves the
// simulation's schedule untouched: identical latency samples, counters and
// utilization, on every workload.
func TestTracedRunIsFaithful(t *testing.T) {
	for _, sp := range specs {
		sp := small(sp)
		t.Run(sp.Name, func(t *testing.T) {
			plain, _ := run(t, sp, false)
			traced, _ := run(t, sp, true)
			if diff := simDiff(sp, plain, traced); diff != "" {
				t.Fatal(diff)
			}
		})
	}
}

// TestSerialOpSelfTimesSumToLatency checks the virtual-time decomposition
// of every serial operation: its verb and Env child spans lie inside it,
// do not overlap, and add up exactly to its latency — virtual time advances
// at no seam the benchmark does not see.
func TestSerialOpSelfTimesSumToLatency(t *testing.T) {
	for _, sp := range specs {
		if sp.Pipeline > 0 {
			continue
		}
		sp := small(sp)
		t.Run(sp.Name, func(t *testing.T) {
			_, d := run(t, sp, true)
			children := map[int64][]span{}
			var ops []span
			for _, s := range d.tr.spans {
				switch {
				case s.Kind == spanOp:
					ops = append(ops, s)
				case s.Op >= 0 && (s.Kind == spanVerb || s.Kind == spanEnv):
					children[s.Op] = append(children[s.Op], s)
				}
			}
			if len(ops) == 0 {
				t.Fatal("no operations traced")
			}
			for _, op := range ops {
				kids := children[op.Op]
				sort.Slice(kids, func(i, j int) bool { return kids[i].VS < kids[j].VS })
				var sum, last int64 = 0, op.VS
				for _, k := range kids {
					if k.VS < last || k.VE > op.VE {
						t.Fatalf("op %d [%d,%d]: child [%d,%d] overlaps or escapes", op.Op, op.VS, op.VE, k.VS, k.VE)
					}
					sum += k.VE - k.VS
					last = k.VE
				}
				if sum != op.VE-op.VS {
					t.Fatalf("op %d: children sum to %d ns, latency is %d ns", op.Op, sum, op.VE-op.VS)
				}
			}
		})
	}
}

// TestDecoratorKeepsInterfaces checks that the endpoint decorator exposes
// exactly the optional surfaces of what it wraps, so rdma.Async and
// Reconnector assertions take the same branch as without it.
func TestDecoratorKeepsInterfaces(t *testing.T) {
	sp := small(specs[1]) // replicated: a router sits between the seams
	d, err := deploySim(sp, true)
	if err != nil {
		t.Fatal(err)
	}
	defer d.close()
	ct := d.tr.client(0)
	d.s.Spawn("probe", func(p *sim.Proc) {
		base := d.fab.Endpoint(0, p)
		w := wrapEndpoint(base, ct, &ct.c, true, pageBytes/8)
		if a, ok := w.(rdma.AsyncEndpoint); !ok || rdma.Async(w) != a {
			t.Error("decorated simnet endpoint lost its native async surface")
		}
		if _, ok := w.(rdma.Reconnector); ok {
			t.Error("decorated simnet endpoint gained a Reconnect method")
		}
		router := repl.NewRouter(w, d.lay, nil, nil)
		above := wrapEndpoint(router, ct, &counts{}, false, pageBytes/8)
		if _, ok := above.(rdma.Reconnector); !ok {
			t.Error("decorated router lost its Reconnect method")
		}
		if _, ok := above.(rdma.AsyncEndpoint); ok {
			t.Error("decorated router gained an async surface")
		}
	})
	d.s.Run()
}

func TestPercentileNeedsTail(t *testing.T) {
	s := make([]int64, 1000)
	for i := range s {
		s[i] = int64(1000 - i)
	}
	if v, err := percentile(s, 50); err != nil || v != 500.5 {
		t.Fatalf("p50 = %g, %v; want 500.5", v, err)
	}
	if v, err := percentile(s, 99); err != nil || v != 990.5 {
		t.Fatalf("p99 = %g, %v; want 990.5", v, err)
	}
	if s[0] != 1000 || s[999] != 1 {
		t.Fatal("percentile reordered its samples")
	}
	if _, err := percentile(s[:999], 99); err == nil {
		t.Fatal("p99 of 999 samples has 9 beyond it; want an error")
	}
}

// TestPercentileMovesWithTiedMass checks that moving samples between two
// tied values moves the percentile, where a nearest rank would not.
func TestPercentileMovesWithTiedMass(t *testing.T) {
	tied := func(low int) []int64 {
		s := make([]int64, 0, 1000)
		for i := 0; i < 1000; i++ {
			switch {
			case i < low:
				s = append(s, 100)
			case i < 900:
				s = append(s, 200)
			default:
				s = append(s, 300)
			}
		}
		return s
	}
	a, errA := percentile(tied(300), 50) // 100 at share 0.15, 200 at 0.6
	b, errB := percentile(tied(310), 50)
	if errA != nil || errB != nil {
		t.Fatal(errA, errB)
	}
	if want := 100 + 100*(0.5-0.15)/(0.6-0.15); a != want {
		t.Fatalf("p50 = %g, want %g", a, want)
	}
	if !(b > 100 && b < a) {
		t.Fatalf("p50 with more mass at 100 = %g, want between 100 and %g", b, a)
	}
}
