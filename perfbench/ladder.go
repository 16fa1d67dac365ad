package main

// The wall-clock ladder: timed loops over public calls, each rung adding one
// layer to the one below it, so a change in cpu_ops_s can be pinned to the
// layer whose rung moved.

import (
	"fmt"
	"runtime"
	"time"

	"github.com/namdb/rdmatree/internal/rdma"
	"github.com/namdb/rdmatree/internal/sim"
)

// ladderKeys is the bulk-load size of the tree rungs.
const ladderKeys = 100_000

// rung is one ladder step: its metric name, unit scale (1 for ns, 1e3 for
// us) and iteration count.
type rung struct {
	name  string
	unit  string
	scale float64
	iters int
	// run executes iters iterations; it returns an error if a call fails.
	run func(iters int) error
}

// ladderRungs builds the ladder's fixtures; the returned stop releases them.
func ladderRungs(seed int64) ([]rung, func(), error) {
	var stops []func()
	stop := func() {
		for _, f := range stops {
			f()
		}
	}
	fail := func(err error) ([]rung, func(), error) {
		stop()
		return nil, nil, err
	}
	keys := make([]uint64, 4096)
	x := uint64(seed)*0x9e3779b97f4a7c15 + 1
	for i := range keys {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		keys[i] = x % ladderKeys
	}
	node := ladderNode()
	tree, err := ladderLocalTree(ladderKeys)
	if err != nil {
		return fail(fmt.Errorf("ladder local tree: %w", err))
	}
	serial, pipelined, err := ladderDirect(ladderKeys, 16)
	if err != nil {
		return fail(fmt.Errorf("ladder direct fabric: %w", err))
	}
	tcpEp, tcpPage, tcpStop, err := ladderTCP()
	if err != nil {
		return fail(fmt.Errorf("ladder tcpnet: %w", err))
	}
	stops = append(stops, tcpStop)
	sleeper := ladderSim()
	stops = append(stops, sleeper.Shutdown)
	simS, simClient, simPage, err := ladderSimnet()
	if err != nil {
		return fail(fmt.Errorf("ladder simnet: %w", err))
	}
	stops = append(stops, simS.Shutdown)
	gen, err := ladderGenerator(seed)
	if err != nil {
		return fail(err)
	}
	page := make([]uint64, pageBytes/8)
	var sink uint64
	rungs := []rung{
		{"layout.search", "ns", 1, 2_000_000, func(n int) error {
			for i := 0; i < n; i++ {
				sink += uint64(node.LeafLowerBound(keys[i&4095] & 63))
			}
			return nil
		}},
		{"btree.local_lookup", "ns", 1, 300_000, func(n int) error {
			for i := 0; i < n; i++ {
				vals, _, err := tree.Lookup(rdma.NopEnv{}, keys[i&4095])
				if err != nil {
					return err
				}
				sink += uint64(len(vals))
			}
			return nil
		}},
		{"direct.fine_lookup", "ns", 1, 200_000, func(n int) error {
			for i := 0; i < n; i++ {
				vals, err := serial.Lookup(keys[i&4095])
				if err != nil {
					return err
				}
				sink += uint64(len(vals))
			}
			return nil
		}},
		{"direct.pipelined_lookup", "ns", 1, 200_000, func(n int) error {
			var firstErr error
			for i := 0; i < n; i++ {
				pipelined.Lookup(keys[i&4095], func(vals []uint64, err error) {
					if err != nil && firstErr == nil {
						firstErr = err
					}
					sink += uint64(len(vals))
				})
			}
			pipelined.Drain()
			return firstErr
		}},
		{"sim.sleep_wake", "ns", 1, 300_000, func(n int) error {
			sleeper.Spawn("sleeper", func(p *sim.Proc) {
				for i := 0; i < n; i++ {
					p.Sleep(1)
				}
			})
			sleeper.Run()
			return nil
		}},
		{"simnet.read", "ns", 1, 200_000, func(n int) error {
			var err error
			simS.Spawn("reader", func(proc *sim.Proc) {
				ep := simClient(proc)
				for i := 0; i < n && err == nil; i++ {
					err = ep.Read(simPage, page)
				}
			})
			simS.Run()
			return err
		}},
		{"tcpnet.read_rtt", "us", 1e3, 20_000, func(n int) error {
			for i := 0; i < n; i++ {
				if err := tcpEp.Read(tcpPage, page); err != nil {
					return err
				}
			}
			return nil
		}},
		{"workload.next", "ns", 1, 2_000_000, func(n int) error {
			for i := 0; i < n; i++ {
				sink += gen.Next().Key
			}
			return nil
		}},
	}
	stops = append(stops, func() { ladderSink = sink })
	return rungs, stop, nil
}

// ladderSink keeps the rungs' results observable so no loop is elided.
var ladderSink uint64

// runLadder times every rung (after a warm-up pass of a tenth of its
// iterations) and returns "<name>_<unit>" and "<name>_allocs" metrics.
func runLadder(seed int64) (metrics, error) {
	rungs, stop, err := ladderRungs(seed)
	if err != nil {
		return nil, err
	}
	defer stop()
	out := metrics{}
	var ms runtime.MemStats
	for _, g := range rungs {
		if err := g.run(g.iters / 10); err != nil {
			return nil, fmt.Errorf("ladder %s: %w", g.name, err)
		}
		runtime.GC()
		runtime.ReadMemStats(&ms)
		m0 := ms.Mallocs
		t0 := time.Now()
		if err := g.run(g.iters); err != nil {
			return nil, fmt.Errorf("ladder %s: %w", g.name, err)
		}
		el := time.Since(t0)
		runtime.ReadMemStats(&ms)
		out.set(g.name+"_"+g.unit, float64(el.Nanoseconds())/float64(g.iters)/g.scale, g.unit)
		out.set(g.name+"_allocs", float64(ms.Mallocs-m0)/float64(g.iters), "allocs")
	}
	return out, nil
}
