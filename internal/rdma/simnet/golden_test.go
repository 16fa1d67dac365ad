package simnet

import (
	"fmt"
	"hash/fnv"
	"testing"

	"github.com/namdb/rdmatree/internal/nam"
	"github.com/namdb/rdmatree/internal/rdma"
	"github.com/namdb/rdmatree/internal/sim"
)

// verbGoldenDigest pins the per-op virtual (start, end) times, byte counters
// and station busy times of verbGoldenRun. It was computed on the fabric whose
// verb paths were written as process code (Use/Sleep chains and per-verb join
// events), so it proves the scheduler-callback paths keep every timeline.
const (
	verbGoldenDigest  uint64 = 0x90fdd109759491dd
	verbGoldenRecords        = 711
)

func TestVerbTimelineDigest(t *testing.T) {
	h := fnv.New64a()
	n := 0
	rec := func(format string, args ...any) {
		fmt.Fprintf(h, format+"\n", args...)
		n++
	}
	remote := nam.Topology{MemServers: 4, MemServersPerMachine: 2, ComputeMachines: 2, ClientsPerMachine: 5}
	colocated := nam.Topology{MemServers: 4, MemServersPerMachine: 2, ComputeMachines: 2, ClientsPerMachine: 4, CoLocated: true}
	tight := NewConfig(colocated)
	tight.ClientNICPipeline = 2 // client-NIC op station contended
	tight.HandlerCoresPerMachine = 2
	tight.HandlersPerServer = 3
	// Zero wire latency and near-free client-NIC and CPU-egress payloads
	// give zero-duration Sleep and Use steps, which still take their slots.
	free := NewConfig(remote)
	free.LinkLatencyNS = 0
	free.ClientBW = 1e13
	free.CPUCopyBW = 1e13
	for _, cfg := range []Config{NewConfig(remote), tight, free} {
		cfg.RegionBytes = 1 << 20
		verbGoldenRun(t, cfg, rec)
	}
	if d := h.Sum64(); d != verbGoldenDigest || n != verbGoldenRecords {
		t.Fatalf("verb timeline digest %#x over %d records; want %#x over %d", d, n, verbGoldenDigest, verbGoldenRecords)
	}
}

// verbGoldenRun drives every client-side verb path, blocking and posted,
// remote and co-located, from every client of cfg's topology, and records
// each op's virtual start and end.
func verbGoldenRun(t *testing.T, cfg Config, rec func(string, ...any)) {
	s := sim.New()
	f := New(s, cfg)
	f.SetHandler(func(env rdma.Env, server int, req []byte) ([]byte, rdma.Work) {
		env.Charge(int64(500 * len(req)))
		if req[0]%3 == 0 {
			env.Pause()
		}
		return make([]byte, 8+int(req[0])*40), rdma.Work{}
	})
	f.Start()
	const pageWords = 128
	for c := 0; c < cfg.Topology.Clients(); c++ {
		s.Spawn(fmt.Sprintf("client%d", c), func(p *sim.Proc) {
			ep := f.Endpoint(c, p)
			a := ep.(rdma.AsyncEndpoint)
			page := make([]uint64, pageWords)
			word := make([]uint64, 2)
			bufs := [][]uint64{make([]uint64, pageWords), make([]uint64, 2), make([]uint64, pageWords), make([]uint64, 16)}
			var comps []rdma.Completion
			for i := 0; i < 24; i++ {
				srv := (c + i) % cfg.Topology.MemServers
				off := uint64(4096 + 1024*((c*7+i)%16))
				ptr := rdma.MakePtr(srv, off)
				kind := (c*5 + i) % 12
				start := p.Now()
				var err error
				comps = comps[:0]
				switch kind {
				case 0:
					err = ep.Read(ptr, page)
				case 1:
					err = ep.Read(ptr, word)
				case 2:
					err = ep.ReadMulti([]rdma.RemotePtr{ptr, rdma.MakePtr((srv+1)%4, off), ptr, rdma.MakePtr((srv+3)%4, off+8)}, bufs)
				case 3:
					// Every READ on one server: all local for the
					// co-located clients of machine srv/2.
					err = ep.ReadMulti([]rdma.RemotePtr{ptr, rdma.MakePtr(srv, off+2048)}, bufs[:2])
				case 4:
					err = ep.Write(ptr, page[:1+i%pageWords])
				case 5:
					_, err = ep.CompareAndSwap(ptr, uint64(i), uint64(i+1))
				case 6:
					_, err = ep.FetchAdd(ptr, 1)
				case 7:
					var q rdma.RemotePtr
					if q, err = ep.Alloc(srv, 64); err == nil {
						err = ep.Free(q, 64)
					}
				case 8, 9:
					_, err = ep.Call(srv, []byte{byte(i), byte(c), 3})
				case 10:
					a.PostRead(ptr, page)
					a.PostWrite(rdma.MakePtr((srv+1)%4, off), word)
					a.PostCall(srv, []byte{byte(i)})
					a.PostCAS(rdma.MakePtr((srv+2)%4, off), 1, 2)
					a.PostCall((srv+3)%4, []byte{byte(i + 1), 1})
					a.PostFetchAdd(ptr, 3)
					a.PostRead(rdma.NullPtr, nil)
					a.PostCall(99, []byte{0})
					a.Flush()
					comps = a.Poll(comps)
				case 11:
					// Poll rings the doorbell itself; the second batch is
					// posted calls only.
					a.PostRead(ptr, word)
					a.PostRead(rdma.MakePtr((srv+2)%4, off), bufs[3])
					comps = a.Poll(comps)
					a.PostCall(srv, []byte{byte(i)})
					a.PostCall(srv, []byte{byte(i + 2)})
					comps = a.Poll(comps)
				}
				if err != nil {
					t.Errorf("client %d op %d (kind %d): %v", c, i, kind, err)
				}
				rec("%d %d %d %d %d %d", c, i, kind, start, p.Now(), len(comps))
			}
		})
	}
	s.Run()
	rec("end %d in %d out %d", s.Now(), f.BytesIn.Total(), f.BytesOut.Total())
	for i, b := range f.BusySnapshot() {
		rec("busy %d %d", i, b)
	}
	s.Shutdown()
}
