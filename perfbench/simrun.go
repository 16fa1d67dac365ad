package main

import (
	"fmt"
	"time"

	"github.com/namdb/rdmatree/internal/core"
	"github.com/namdb/rdmatree/internal/rdma/simnet"
	"github.com/namdb/rdmatree/internal/sim"
	"github.com/namdb/rdmatree/internal/workload"
)

// runResult is what one measured run of a workload observed.
type runResult struct {
	attempted, failed int64
	failures          []string

	winOps  int64              // ops completed inside the virtual window
	virtLat [3][]int64         // virtual latency per op kind, window ops
	winWall float64            // wall seconds the virtual window took
	winCPU  float64            // process CPU seconds the virtual window took
	wallLat []int64            // tcpnet: wall latency of every measured op
	wallOps int64              // tcpnet: ops measured
	wallSec float64            // tcpnet: wall seconds measured
	util    simnet.Utilization // station utilization over the window
	netB    int64              // server-NIC bytes over the window
	heights []int              // tree heights at the start of the window
	switch_ int64              // policy switches, all clients

	// Traced runs only: seam counters over the virtual window and per-op
	// aggregates of serial point ops completing in it.
	win          counts
	winAbove     counts
	winHandlers  handlerCounts
	pointOps     int64
	pointNoCall  int64
	pointPages   int64
	pointMinPage int64
	inserts      int64
}

func (r *runResult) fail(msg string) {
	r.failed++
	if len(r.failures) < 5 {
		r.failures = append(r.failures, msg)
	}
}

// kindIndex maps an op kind onto runResult.virtLat.
func kindIndex(k workload.OpKind) int {
	switch k {
	case workload.PointQuery:
		return 0
	case workload.RangeQuery:
		return 1
	default:
		return 2
	}
}

// runSim drives a deployed simulated cluster with closed-loop clients
// through the warm-up and the virtual window, checks every result, and
// reads every acknowledged insert back. It shuts the simulation down.
func runSim(d *simDeploy, seed int64) (*runResult, error) {
	sp, s, fab, tr := d.sp, d.s, d.fab, d.tr
	r := &runResult{}
	hs, err := d.heights()
	if err != nil {
		return nil, fmt.Errorf("tree height: %w", err)
	}
	r.heights = hs
	chk := newChecker(uint64(sp.DataSize))
	measureStart := sp.WarmupNS
	measureEnd := sp.WarmupNS + sp.MeasureNS

	var (
		stop      bool
		wallStart time.Time
		cpuStart  float64
		busy      []sim.Time
		bytes0    int64
		c0, a0    counts
		h0        handlerCounts
	)
	netBytes := func() int64 { return fab.BytesIn.Total() + fab.BytesOut.Total() }
	aboveTotals := func() counts {
		var c counts
		for _, ct := range tr.clients {
			if ct != nil && ct.aboveRouter != nil {
				c.add(ct.aboveRouter)
			}
		}
		return c
	}
	s.At(measureStart, func() {
		wallStart, cpuStart = time.Now(), cpuSeconds()
		busy = fab.BusySnapshot()
		bytes0 = netBytes()
		if tr != nil {
			c0, a0, h0 = tr.clientTotals(), aboveTotals(), tr.handlers
		}
	})
	s.At(measureEnd, func() {
		r.winWall, r.winCPU = since(wallStart), cpuSeconds()-cpuStart
		r.util = fab.UtilizationSince(busy, measureStart)
		r.netB = netBytes() - bytes0
		if tr != nil {
			c1, a1 := tr.clientTotals(), aboveTotals()
			r.win, r.winAbove, r.winHandlers = c1.sub(&c0), a1.sub(&a0), tr.handlers.sub(h0)
		}
	})

	// complete accounts one finished operation.
	complete := func(kind workload.OpKind, vs, ve int64, err error, ok bool) {
		switch {
		case err != nil:
			r.fail(fmt.Sprintf("%v op: %v", kind, err))
			return
		case !ok:
			r.fail(fmt.Sprintf("%v op returned a wrong result", kind))
			return
		}
		if ve > measureStart && ve <= measureEnd {
			r.winOps++
			i := kindIndex(kind)
			r.virtLat[i] = append(r.virtLat[i], ve-vs)
		}
	}

	for c := 0; c < sp.Top.Clients(); c++ {
		c := c
		gen, err := generator(sp, seed, c)
		if err != nil {
			return nil, err
		}
		var ct *clientTrace
		if tr != nil {
			ct = tr.client(c)
		}
		if sp.Pipeline > 0 {
			s.Spawn(fmt.Sprintf("client%d", c), func(p *sim.Proc) {
				pc := d.pipelinedClient(c, p)
				for !stop {
					op := gen.Next()
					r.attempted++
					vs := p.Now()
					if ct != nil {
						ct.enter()
					}
					switch op.Kind {
					case workload.PointQuery:
						key := op.Key
						pc.Lookup(key, func(vals []uint64, err error) {
							ok := err == nil && chk.point(key, vals)
							if ct != nil {
								ct.outstanding--
							}
							complete(workload.PointQuery, vs, p.Now(), err, ok)
						})
					case workload.Insert:
						key, val := op.Key, op.Value
						pc.Insert(key, val, func(err error) {
							if err == nil {
								chk.acked(key, val)
							}
							if ct != nil {
								ct.outstanding--
							}
							complete(workload.Insert, vs, p.Now(), err, true)
						})
					case workload.RangeQuery:
						sc := chk.scan(op.Key, op.EndKey)
						err := pc.Range(op.Key, op.EndKey, sc.emit)
						complete(op.Kind, vs, p.Now(), err, err == nil && sc.ok())
					}
					if ct != nil {
						// The op holds an engine slot from here on (a
						// submission first waits for a free slot, pumping
						// rounds for the ops already in flight).
						if op.Kind != workload.RangeQuery {
							ct.outstanding++
						}
						ct.leave()
					}
				}
				if ct != nil {
					ct.enter()
				}
				pc.Drain()
				if ct != nil {
					ct.leave()
				}
			})
			continue
		}
		s.Spawn(fmt.Sprintf("client%d", c), func(p *sim.Proc) {
			idx := d.serialClient(c, p)
			for !stop {
				op := gen.Next()
				r.attempted++
				vs := p.Now()
				var ws int64
				if ct != nil {
					ws = tr.wall()
					ct.beginOp()
					ct.enter()
				}
				ok, err := serialOp(idx, chk, op)
				ve := p.Now()
				if ct != nil {
					ct.leave()
					ct.endOp(vs, ve, ws, tr.wall())
					if op.Kind == workload.PointQuery && err == nil && ve > measureStart && ve <= measureEnd {
						r.pointOps++
						r.pointPages += ct.opPages
						if ct.opCalls == 0 {
							r.pointNoCall++
							r.pointMinPage += int64(hs[d.partitionOf(op.Key)])
						} else {
							r.pointMinPage++
						}
					}
					if op.Kind == workload.Insert && err == nil && ve > measureStart && ve <= measureEnd {
						r.inserts++
					}
				}
				complete(op.Kind, vs, ve, err, ok)
			}
		})
	}

	s.RunUntil(measureEnd)
	stop = true
	s.Run() // clients finish their current operations and exit
	s.Shutdown()
	for _, e := range d.engines {
		r.switch_ += e.Switches()
	}
	chk.readBack(d.readbackIndex(), r)
	return r, nil
}

// serialOp executes one operation on a blocking client and checks its
// result; ok is false when the program returned a wrong answer.
func serialOp(idx core.Index, chk *checker, op workload.Op) (ok bool, err error) {
	switch op.Kind {
	case workload.PointQuery:
		vals, err := idx.Lookup(op.Key)
		return err == nil && chk.point(op.Key, vals), err
	case workload.RangeQuery:
		sc := chk.scan(op.Key, op.EndKey)
		err := idx.Range(op.Key, op.EndKey, sc.emit)
		return err == nil && sc.ok(), err
	default:
		err := idx.Insert(op.Key, op.Value)
		if err == nil {
			chk.acked(op.Key, op.Value)
		}
		return true, err
	}
}
