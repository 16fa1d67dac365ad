package main

import (
	"fmt"
	"time"
)

// tcpWarmupOps run before the tcpnet window opens: they dial the
// connections and fill the agents' socket buffers. They are checked too.
const tcpWarmupOps = 2000

// runTCP drives one closed-loop client over the tcpnet agents for ops
// measured operations (after tcpWarmupOps), then reads every acknowledged
// insert back over a fresh connection.
func runTCP(d *tcpDeploy, sp *spec, seed int64, ops int64, tr *tracer) (*runResult, error) {
	r := &runResult{}
	gen, err := generator(sp, seed, 0)
	if err != nil {
		return nil, err
	}
	var ct *clientTrace
	if tr != nil {
		ct = tr.client(0)
	}
	idx, closeEp := d.client(ct)
	chk := newChecker(uint64(sp.DataSize))
	var base counts
	var start time.Time
	for i := int64(0); ; i++ {
		if i == tcpWarmupOps {
			start = time.Now()
			if ct != nil {
				base = ct.c
			}
		}
		if i == tcpWarmupOps+ops {
			break
		}
		op := gen.Next()
		r.attempted++
		ws := time.Now()
		if ct != nil {
			ct.enter()
		}
		ok, err := serialOp(idx, chk, op)
		we := time.Now()
		if ct != nil {
			ct.leave()
		}
		switch {
		case err != nil:
			r.fail(fmt.Sprintf("%v op: %v", op.Kind, err))
		case !ok:
			r.fail(fmt.Sprintf("%v op returned a wrong result", op.Kind))
		case i >= tcpWarmupOps:
			r.wallOps++
			r.wallLat = append(r.wallLat, int64(we.Sub(ws)))
		}
	}
	r.wallSec = since(start)
	closeEp()
	if ct != nil {
		r.win = ct.c.sub(&base)
	}
	rb, closeRb := d.client(nil)
	chk.readBack(rb, r)
	closeRb()
	return r, nil
}
