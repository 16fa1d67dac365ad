package main

import (
	"fmt"

	"github.com/namdb/rdmatree/internal/nam"
	"github.com/namdb/rdmatree/internal/workload"
)

// Page geometry shared by every workload (pinned in costmodel.json).
const (
	pageBytes = 1024
	headEvery = 32
)

// spec is one benchmark workload. A workload runs a fixed virtual window
// [WarmupNS, WarmupNS+MeasureNS], so its simulated metrics repeat bit for
// bit per seed. A hybrid workload always runs on 80/12/5/3 skewed range
// partitioning with the adaptive traversal policy.
type spec struct {
	Name      string
	Design    nam.Design
	Top       nam.Topology
	DataSize  int
	Mix       workload.Mix
	Sel       float64
	Dist      workload.Distribution // of point and scan keys; see generator
	Pipeline  int                   // ops in flight per pipelined client; 0 = serial client
	Replicas  int                   // page replication factor k; 0 = unreplicated
	WarmupNS  int64
	MeasureNS int64
}

// hybridMix is the skewed mixed workload: 80% point, 15% scan, 5% insert.
var hybridMix = workload.Mix{Name: "mixed", PointPct: 80, RangePct: 15, InsertPct: 5}

var specs = []*spec{
	{
		Name:      "fine-pipelined-read",
		Design:    nam.FineGrained,
		Top:       nam.PaperTopology(4, 1, 2),
		DataSize:  400_000,
		Mix:       workload.WorkloadC,
		Dist:      workload.Zipfian,
		Pipeline:  16,
		WarmupNS:  2_000_000,
		MeasureNS: 100_000_000,
	},
	{
		Name:      "fine-durable-write",
		Design:    nam.FineGrained,
		Top:       nam.PaperTopology(4, 1, 10),
		DataSize:  400_000,
		Mix:       workload.WorkloadD,
		Dist:      workload.Uniform,
		Replicas:  2,
		WarmupNS:  2_000_000,
		MeasureNS: 100_000_000,
	},
	{
		Name:      "hybrid-skew-mixed",
		Design:    nam.Hybrid,
		Top:       nam.PaperTopology(4, 3, 40),
		DataSize:  400_000,
		Mix:       hybridMix,
		Sel:       0.001,
		Dist:      workload.Zipfian,
		WarmupNS:  20_000_000,
		MeasureNS: 50_000_000,
	},
}

// tcpProbe is the real-transport deployment every traced run measures: one
// serial fine-grained client goroutine over two in-process tcpnet agents on
// 127.0.0.1 (two connections), YCSB C on 100k keys, as namserver/namclient
// deploy it. Only Top.MemServers, DataSize and the generator fields apply.
var tcpProbe = &spec{
	Name:     "tcpnet-loopback",
	Design:   nam.FineGrained,
	Top:      nam.PaperTopology(2, 1, 1),
	DataSize: 100_000,
	Mix:      workload.WorkloadC,
	Dist:     workload.Uniform,
}

func lookupSpec(name string) (*spec, error) {
	for _, s := range specs {
		if s.Name == name {
			return s, nil
		}
	}
	var names []string
	for _, s := range specs {
		names = append(names, s.Name)
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

// workloadConfig is the generator configuration of a spec for one seed.
func (s *spec) workloadConfig(seed int64) workload.Config {
	return workload.Config{
		Mix:         s.Mix,
		DataSize:    uint64(s.DataSize),
		Selectivity: s.Sel,
		Dist:        s.Dist,
		Seed:        seed,
		Clients:     s.Top.Clients(),
	}
}
