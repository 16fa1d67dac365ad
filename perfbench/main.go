// Command perfbench is the repository's benchmark: it runs one named
// workload from a seed, checks every result the program returns, and prints
// the end-to-end metrics (untraced run) or the per-layer metrics (traced
// run) as the last line of standard output, in JSON.
//
//	perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// Simulated metrics come from a fixed virtual-time window and repeat bit for
// bit per seed; wall-clock metrics are measured over --seconds of real time.
// See README.md for the workloads, the metrics and what each layer metric
// should move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"slices"
	"sort"
	"time"
)

// minReps is the fewest deployments an untraced run measures: it repeats
// deploy-and-run until --seconds have passed and at least minReps runs are
// done, then reports median set-up time and median simulation speed.
const minReps = 3

// result is the benchmark's last output line.
type result struct {
	Correct   bool    `json:"correct"`
	Attempted int64   `json:"attempted"`
	Failed    int64   `json:"failed"`
	Metrics   metrics `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload name")
	seed := flag.Int64("seed", 1, "workload seed")
	seconds := flag.Int("seconds", 10, "wall-clock measuring time")
	trace := flag.Int("trace", 0, "1 runs the traced run and prints per-layer metrics")
	flag.Parse()
	sp, err := lookupSpec(*name)
	if err != nil {
		fatal(err)
	}
	if err := checkModel(); err != nil {
		fatal(err)
	}
	var res *result
	if *trace == 1 {
		res, err = tracedRun(sp, *seed)
	} else {
		res, err = untracedRun(sp, *seed, time.Duration(*seconds)*time.Second)
	}
	if err != nil {
		fatal(err)
	}
	report(sp, *seed, *trace, res)
	line, err := json.Marshal(res)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(2)
}

// release drops a finished deployment's memory before the next one.
func release() {
	runtime.GC()
	debug.FreeOSMemory()
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// merge folds a run's outcome into the result.
func (res *result) merge(r *runResult) {
	res.Attempted += r.attempted
	res.Failed += r.failed
	for _, f := range r.failures {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", f)
	}
}

// untracedRun measures the end-to-end metrics. Every repetition runs the
// same seed, so every repetition must produce the same simulated metrics.
func untracedRun(sp *spec, seed int64, dur time.Duration) (*result, error) {
	res := &result{Metrics: metrics{}}
	var setups, rates []float64
	var first *runResult
	start := time.Now()
	for len(setups) < minReps || time.Since(start) < dur {
		d, err := deploySim(sp, false)
		if err != nil {
			return nil, err
		}
		r, err := runSim(d, seed)
		if err != nil {
			return nil, err
		}
		res.merge(r)
		setups = append(setups, d.times.Total)
		rates = append(rates, div(float64(r.winOps), r.winCPU))
		if first == nil {
			first = r
			if err := simEndToEnd(sp, r, res.Metrics); err != nil {
				return nil, err
			}
		} else if diff := simDiff(sp, first, r); diff != "" {
			res.Failed++
			fmt.Fprintln(os.Stderr, "perfbench: repetition diverged from the first:", diff)
		}
		release()
	}
	res.Metrics.set("cpu_ops_s", median(rates), "1/s")
	res.Metrics.set("setup_s", median(setups), "s")
	res.Metrics.set("mem_peak_mb", memPeakMB(), "MB")
	res.Correct = res.Failed == 0
	fmt.Printf("repetitions %d: ops per CPU second %.0f, set-up s %.3f\n", len(rates), rates, setups)
	return res, nil
}

// tracedPair runs a spec untraced and then traced on the same seed, and
// counts a failure unless both produce identical simulated metrics.
func tracedPair(sp *spec, seed int64, res *result) (rp, rt *runResult, d *simDeploy, plainSetup setupTimes, err error) {
	plain, err := deploySim(sp, false)
	if err != nil {
		return nil, nil, nil, setupTimes{}, err
	}
	rp, err = runSim(plain, seed)
	if err != nil {
		return nil, nil, nil, setupTimes{}, err
	}
	res.merge(rp)
	plainSetup = plain.times
	release()
	d, err = deploySim(sp, true)
	if err != nil {
		return nil, nil, nil, setupTimes{}, err
	}
	rt, err = runSim(d, seed)
	if err != nil {
		return nil, nil, nil, setupTimes{}, err
	}
	res.merge(rt)
	if diff := simDiff(sp, rp, rt); diff != "" {
		res.Failed++
		fmt.Fprintln(os.Stderr, "perfbench: traced run diverged from the untraced run:", diff)
	}
	return rp, rt, d, plainSetup, nil
}

// simDiff compares everything a simulated window measured.
func simDiff(sp *spec, a, b *runResult) string {
	ma, mb := metrics{}, metrics{}
	ea, eb := simEndToEnd(sp, a, ma), simEndToEnd(sp, b, mb)
	if (ea == nil) != (eb == nil) {
		return fmt.Sprintf("metric errors differ: %v vs %v", ea, eb)
	}
	for k, v := range ma {
		if mb[k].Value != v.Value {
			return fmt.Sprintf("%s: %v vs %v", k, v.Value, mb[k].Value)
		}
	}
	if a.winOps != b.winOps || a.netB != b.netB || a.switch_ != b.switch_ || fmt.Sprint(a.util) != fmt.Sprint(b.util) {
		return "fabric counters differ"
	}
	for k := range a.virtLat {
		if !slices.Equal(a.virtLat[k], b.virtLat[k]) {
			return fmt.Sprintf("latency samples of op kind %d differ", k)
		}
	}
	return ""
}

// tcpProbeOps is how many operations the traced run's tcpnet probe
// measures untraced (latency) and traced (frames and bytes).
const tcpProbeOps = 20_000

// tracedRun measures the per-layer metrics.
func tracedRun(sp *spec, seed int64) (*result, error) {
	res := &result{Metrics: metrics{}}
	rp, rt, d, setup, err := tracedPair(sp, seed, res)
	if err != nil {
		return nil, err
	}
	layerMetrics(sp, rt, res.Metrics)
	setupLayerMetrics(setup, res.Metrics)
	res.Metrics.set("wall_ops_s", div(float64(rp.winOps), rp.winWall), "1/s")
	res.Metrics.set("trace.wall_overhead", div(rt.winWall, rp.winWall), "ratio")
	if err := writeSpans(sp, seed, d.tr.spans); err != nil {
		return nil, err
	}
	release()
	if err := tcpProbeRun(seed, res); err != nil {
		return nil, err
	}
	ladder, err := runLadder(seed)
	if err != nil {
		return nil, err
	}
	for k, v := range ladder {
		res.Metrics[k] = v
	}
	res.Correct = res.Failed == 0
	return res, nil
}

// tcpProbeRun measures the real loopback path: tcpProbeOps untraced
// operations for latency and throughput, then as many traced for the
// frames and bytes each operation sends.
func tcpProbeRun(seed int64, res *result) error {
	td, err := deployTCP(tcpProbe)
	if err != nil {
		return err
	}
	defer td.close()
	r, err := runTCP(td, tcpProbe, seed, tcpProbeOps, nil)
	if err != nil {
		return err
	}
	res.merge(r)
	m := res.Metrics
	m.set("tcpnet.ops_s", div(float64(r.wallOps), r.wallSec), "1/s")
	if err := m.setPct("tcpnet.op_p50_us", r.wallLat, 50); err != nil {
		return err
	}
	if err := m.setPct("tcpnet.op_p99_us", r.wallLat, 99); err != nil {
		return err
	}
	rt, err := runTCP(td, tcpProbe, seed+1, tcpProbeOps, newTracer(nil))
	if err != nil {
		return err
	}
	res.merge(rt)
	m.set("tcpnet.frames_per_op", div(float64(rt.win.frames), float64(rt.wallOps)), "count")
	m.set("tcpnet.bytes_per_op", div(float64(rt.win.bytes), float64(rt.wallOps)), "B")
	m.set("tcpnet.setup_s", td.times.Total, "s")
	return nil
}

// report prints a human-readable summary before the JSON line: the cost
// model, every metric with its unit and, for percentiles, sample count.
func report(sp *spec, seed int64, trace int, res *result) {
	fmt.Printf("workload %s seed %d trace %d\n", sp.Name, seed, trace)
	model, _ := json.Marshal(modelFor(sp))
	fmt.Printf("cost model: %s\n", model)
	names := make([]string, 0, len(res.Metrics))
	for k := range res.Metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		m := res.Metrics[k]
		if m.n > 0 {
			fmt.Printf("  %-36s %14.4f %-6s (%d samples)\n", k, m.Value, m.Unit, m.n)
		} else {
			fmt.Printf("  %-36s %14.4f %s\n", k, m.Value, m.Unit)
		}
	}
	fmt.Printf("attempted %d failed %d fail_ratio %g\n", res.Attempted, res.Failed, div(float64(res.Failed), float64(res.Attempted)))
}
