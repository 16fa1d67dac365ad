package main

import (
	"bufio"
	_ "embed"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"

	"github.com/namdb/rdmatree/internal/nam"
	"github.com/namdb/rdmatree/internal/rdma/simnet"
)

// pinnedModelJSON is the cost model, page geometry and topologies every
// result of this benchmark was measured with. A speedup that comes from
// changing the model does not count, so a run whose model differs fails.
//
//go:embed costmodel.json
var pinnedModelJSON []byte

// pinned is the shape of costmodel.json. Simnet holds every simnet.Config
// field except Topology (pinned per workload) and RegionBytes (capacity,
// not cost).
type pinned struct {
	PageBytes  int                     `json:"page_bytes"`
	HeadEvery  int                     `json:"head_every"`
	Simnet     map[string]any          `json:"simnet"`
	Topologies map[string]nam.Topology `json:"topologies"`
}

// costFields returns cfg's cost parameters as costmodel.json records them.
func costFields(cfg simnet.Config) map[string]any {
	raw, err := json.Marshal(cfg)
	if err != nil {
		panic(err) // a struct of numbers always marshals
	}
	var m map[string]any
	if err := json.Unmarshal(raw, &m); err != nil {
		panic(err)
	}
	delete(m, "Topology")
	delete(m, "RegionBytes")
	return m
}

// checkModel fails unless the model every workload uses equals the pinned
// one. Its error prints the current model in costmodel.json's format, so
// one run is enough to update the pin.
func checkModel() error {
	var want pinned
	if err := json.Unmarshal(pinnedModelJSON, &want); err != nil {
		return fmt.Errorf("costmodel.json: %w", err)
	}
	now := pinned{PageBytes: pageBytes, HeadEvery: headEvery, Simnet: costFields(costModel(specs[0].Top)), Topologies: map[string]nam.Topology{}}
	for _, sp := range specs {
		if !reflect.DeepEqual(costFields(costModel(sp.Top)), now.Simnet) {
			return fmt.Errorf("workload %s runs another cost model than %s", sp.Name, specs[0].Name)
		}
		now.Topologies[sp.Name] = sp.Top
	}
	if reflect.DeepEqual(now, want) {
		return nil
	}
	out, err := json.MarshalIndent(now, "", "  ")
	if err != nil {
		return err
	}
	return fmt.Errorf("the cost model differs from costmodel.json; the model now is:\n%s", out)
}

// modelFor is the full model a workload runs on, as printed with every run.
func modelFor(sp *spec) map[string]any {
	return map[string]any{"page_bytes": pageBytes, "head_every": headEvery, "simnet": costModel(sp.Top)}
}

// spanOutDir holds the span files of traced runs, relative to the
// directory the benchmark runs in.
const spanOutDir = ".bench_out"

// writeSpans writes a traced run's spans: one text header line naming the
// record layout, then fixed-size little-endian records.
func writeSpans(sp *spec, seed int64, spans []span) error {
	if err := os.MkdirAll(spanOutDir, 0o755); err != nil {
		return err
	}
	name := filepath.Join(spanOutDir, fmt.Sprintf("%s-seed%d.spans", sp.Name, seed))
	f, err := os.Create(name)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintf(w, "perfbench spans v1 %d records: op i64, client i32, kind u8, verb u8, vstart vend wstart wend i64 (ns)\n", len(spans))
	if err := binary.Write(w, binary.LittleEndian, spans); err != nil {
		f.Close()
		return err
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
