package main

import (
	"fmt"
	"slices"
	"syscall"

	"github.com/namdb/rdmatree/internal/nam"
)

// metric is one printed value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	n     int     // sample count behind a percentile, 0 otherwise
}

type metrics map[string]metric

func (m metrics) set(name string, v float64, unit string) { m[name] = metric{Value: v, Unit: unit} }

// percentile returns the mid-distribution p-th percentile of exact samples
// (Ma, Genton and Parzen, 2011), leaving samples in their order. Simulated
// latencies are heavily tied: a few thousand distinct values among 10^5
// samples. A nearest-rank percentile then sits on one value for every seed
// and hides a shift of mass between neighbouring values. This estimator
// places each distinct value x at its mid-cumulative share
// (count below x + count at x / 2) / n and interpolates linearly between
// neighbours; on untied samples it is the usual interpolated percentile.
// It fails unless at least minBeyond samples lie above the percentile's
// nearest rank, so a tail figure always rests on a tail of samples.
func percentile(samples []int64, p float64) (float64, error) {
	n := len(samples)
	rank := int(float64(n)*p/100+0.999999999) - 1
	if rank < 0 {
		rank = 0
	}
	if n == 0 || n-rank-1 < minBeyond {
		return 0, fmt.Errorf("p%g needs %d samples beyond it, have %d samples", p, minBeyond, n)
	}
	sorted := slices.Clone(samples)
	slices.Sort(sorted)
	q := p / 100
	prevV, prevM := 0.0, -1.0
	for i := 0; i < n; {
		j := i
		for j < n && sorted[j] == sorted[i] {
			j++
		}
		v, m := float64(sorted[i]), (float64(i)+float64(j-i)/2)/float64(n)
		if m >= q {
			if prevM < 0 {
				return v, nil
			}
			return prevV + (v-prevV)*(q-prevM)/(m-prevM), nil
		}
		prevV, prevM, i = v, m, j
	}
	return prevV, nil
}

// minBeyond is how many samples must lie beyond a reported percentile.
const minBeyond = 10

// setPct records a percentile in microseconds with its sample count.
func (m metrics) setPct(name string, samples []int64, p float64) error {
	v, err := percentile(samples, p)
	if err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	m[name] = metric{Value: v / 1e3, Unit: "us", n: len(samples)}
	return nil
}

// simEndToEnd computes the simulated-clock metrics of a run's window.
func simEndToEnd(sp *spec, r *runResult, m metrics) error {
	m.set("sim_ops_s", float64(r.winOps)/(float64(sp.MeasureNS)/1e9), "1/s")
	for _, pc := range []struct {
		name string
		kind int
		p    float64
	}{
		{"sim_point_p50_us", 0, 50}, {"sim_point_p99_us", 0, 99},
		{"sim_insert_p50_us", 2, 50}, {"sim_insert_p99_us", 2, 99},
	} {
		if err := m.setPct(pc.name, r.virtLat[pc.kind], pc.p); err != nil {
			return err
		}
	}
	return nil
}

// memPeakMB is the process's peak resident set size.
func memPeakMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// cpuSeconds is the user and system CPU time the process has used, on all
// of its threads (garbage collection included).
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}

func div(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func maxOf(vs []float64) float64 {
	m := 0.0
	for _, v := range vs {
		if v > m {
			m = v
		}
	}
	return m
}

// layerMetrics computes the per-layer metrics of a traced simulated run.
// Metrics of a layer the workload does not exercise read 0.
func layerMetrics(sp *spec, r *runResult, m metrics) {
	w, h := &r.win, &r.winHandlers
	ops := float64(r.winOps)
	m.set("rdma.rtts_per_op", div(float64(w.rtts), ops), "count")
	for v := 0; v < vAlloc; v++ {
		m.set("rdma."+verbNames[v]+"_per_op", div(float64(w.verbs[v]), ops), "count")
	}
	m.set("rdma.bytes_per_op", div(float64(w.bytes), ops), "B")
	m.set("rdma.cas_fail_ratio", div(float64(w.casFail), float64(w.verbs[vCAS])), "ratio")
	m.set("rdma.verb_virt_us_per_op", div(float64(w.verbVirt), ops)/1e3, "us")
	m.set("core.client_virt_us_per_op", div(float64(w.envVirt), ops)/1e3, "us")
	m.set("core.client_wall_ns_per_op", div(float64(w.selfWall), ops), "ns")
	winWall := r.winWall * 1e9
	handlerSelf := float64(h.wall - h.envWall)
	m.set("sim.kernel_wall_share", div(winWall-float64(w.selfWall)-handlerSelf, winWall), "ratio")

	m.set("pipeline.posts_per_flush", div(float64(w.posts), float64(w.flushes)), "count")
	m.set("pipeline.flushes_per_op", div(float64(w.flushes), ops), "count")
	m.set("pipeline.inflight_avg", div(float64(w.inflight), float64(w.flushes)), "count")

	calls := float64(h.calls)
	m.set("nam.calls_per_op", div(calls, ops), "count")
	m.set("nam.req_bytes", div(float64(h.reqBytes), calls), "B")
	m.set("nam.resp_bytes", div(float64(h.respBytes), calls), "B")
	m.set("nam.handler_charged_us_per_call", div(float64(h.chargedVirt), calls)/1e3, "us")
	clientCalls := float64(w.verbs[vCall])
	m.set("nam.call_wait_virt_us", (div(float64(w.callVirt), clientCalls)-div(float64(h.chargedVirt), calls))/1e3, "us")
	m.set("nam.handler_wall_ns_per_call", div(handlerSelf, calls), "ns")

	// The busiest station of each kind: handler cores or the CPU copy path,
	// server NIC ports, and a compute machine's verb pipeline or wire.
	m.set("simnet.server_cpu_util", maxOf(append(r.util.Cores, r.util.Egress...)), "ratio")
	m.set("simnet.server_nic_util", maxOf(r.util.ServerNIC), "ratio")
	m.set("simnet.client_nic_util", maxOf(append(r.util.ClientOps, r.util.ClientBW...)), "ratio")
	m.set("simnet.net_gbps", float64(r.netB)/float64(sp.MeasureNS), "GB/s")

	height := 0
	for _, x := range r.heights {
		if x > height {
			height = x
		}
	}
	m.set("btree.height", float64(height), "count")
	m.set("btree.extra_reads_per_point", div(float64(r.pointPages-r.pointMinPage), float64(r.pointOps)), "count")

	var mirrorVerbs, mirrorRTTs float64
	if sp.Replicas >= 2 {
		for v := 0; v < nVerbs; v++ {
			mirrorVerbs += float64(w.verbs[v] - r.winAbove.verbs[v])
		}
		mirrorRTTs = float64(w.rtts - r.winAbove.rtts)
	}
	m.set("repl.mirror_verbs_per_insert", div(mirrorVerbs, float64(r.inserts)), "count")
	m.set("repl.mirror_rtts_per_insert", div(mirrorRTTs, float64(r.inserts)), "count")

	m.set("policy.switches", float64(r.switch_), "count")
	share := 0.0
	if sp.Design == nam.Hybrid {
		share = div(float64(r.pointNoCall), float64(r.pointOps))
	}
	m.set("policy.onesided_share", share, "ratio")

	for i, name := range []string{"sim_scan_p50_us", "sim_scan_p99_us"} {
		if err := m.setPct(name, r.virtLat[1], []float64{50, 99}[i]); err != nil {
			m.set(name, 0, "us")
		}
	}
}

// setupLayerMetrics records the wall time of each set-up step.
func setupLayerMetrics(t setupTimes, m metrics) {
	m.set("simnet.new_s", t.New, "s")
	m.set("btree.build_s", t.Build, "s")
	m.set("repl.sync_s", t.Sync, "s")
}
