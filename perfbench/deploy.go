package main

// Every constructor call of the benchmark lives in this file: fabrics,
// designs, clients, the replica router, the policy engine, tcpnet agents and
// the fixtures of the wall-clock ladder. The rest of the benchmark sees
// core.Index, *fine.PipelinedClient and the fabric's public accessors.

import (
	"fmt"
	"net"
	"sync"
	"time"

	"github.com/namdb/rdmatree/internal/btree"
	"github.com/namdb/rdmatree/internal/core"
	"github.com/namdb/rdmatree/internal/core/fine"
	"github.com/namdb/rdmatree/internal/core/hybrid"
	"github.com/namdb/rdmatree/internal/layout"
	"github.com/namdb/rdmatree/internal/nam"
	"github.com/namdb/rdmatree/internal/partition"
	"github.com/namdb/rdmatree/internal/policy"
	"github.com/namdb/rdmatree/internal/rdma"
	"github.com/namdb/rdmatree/internal/rdma/direct"
	"github.com/namdb/rdmatree/internal/rdma/repl"
	"github.com/namdb/rdmatree/internal/rdma/simnet"
	"github.com/namdb/rdmatree/internal/rdma/tcpnet"
	"github.com/namdb/rdmatree/internal/sim"
	"github.com/namdb/rdmatree/internal/workload"
)

// setupTimes is the wall time of one deployment, split by step.
type setupTimes struct {
	Total, New, Build, Sync float64 // seconds
}

func since(t time.Time) float64 { return time.Since(t).Seconds() }

// simRegionBytes sizes each simulated memory server's region: capacity, not
// cost, so costmodel.json leaves it out. 32 MiB holds every workload's data
// several times over and keeps a run's resident memory small.
const simRegionBytes = 32 << 20

// costModel is the simulated fabric's configuration for a topology: the
// program's calibrated default, which costmodel.json pins, with regions of
// simRegionBytes.
func costModel(top nam.Topology) simnet.Config {
	cfg := simnet.NewConfig(top)
	cfg.RegionBytes = simRegionBytes
	return cfg
}

// buildSpec is the bulk-loaded data set: keys 0..D-1 with value = key.
func buildSpec(d int) core.BuildSpec {
	return core.BuildSpec{N: d, At: workload.DataItem, HeadEvery: headEvery}
}

// generator returns client's operation stream of a workload for a seed.
// Point and scan keys follow the workload's distribution; every insert adds
// a duplicate of a uniformly drawn loaded key, from a second stream, so
// inserts never pile up on the hot keys of a Zipfian workload.
func generator(sp *spec, seed int64, client int) (*opStream, error) {
	ops, err := workload.NewGenerator(sp.workloadConfig(seed), client)
	if err != nil {
		return nil, err
	}
	ins, err := workload.NewGenerator(workload.Config{
		Mix:      workload.Mix{Name: "insert", InsertPct: 100},
		DataSize: uint64(sp.DataSize),
		Dist:     workload.Uniform,
		Seed:     ^seed,
		Clients:  sp.Top.Clients(),
	}, client)
	return &opStream{ops: ops, inserts: ins}, err
}

// opStream is one client's operation stream.
type opStream struct{ ops, inserts *workload.Generator }

func (o *opStream) Next() workload.Op {
	op := o.ops.Next()
	if op.Kind == workload.Insert {
		return o.inserts.Next()
	}
	return op
}

// simDeploy is one deployed simulated cluster.
type simDeploy struct {
	sp      *spec
	s       *sim.Sim
	fab     *simnet.Fabric
	cat     *nam.Catalog
	lay     nam.ReplicaLayout
	tr      *tracer // nil for an untraced run
	engines []*policy.Engine
	times   setupTimes
}

// deploySim creates the fabric, bulk-loads the design and syncs replicas.
// With traced set, the handler and every client built later are decorated.
func deploySim(sp *spec, traced bool) (*simDeploy, error) {
	t0 := time.Now()
	d := &simDeploy{sp: sp, s: sim.New()}
	cfg := costModel(sp.Top)
	d.fab = simnet.New(d.s, cfg)
	d.times.New = since(t0)
	if traced {
		d.tr = newTracer(d.s.Now)
	}
	l := layout.New(pageBytes)
	keyspace := uint64(sp.DataSize)
	tb := time.Now()
	switch sp.Design {
	case nam.FineGrained:
		opts := fine.Options{Layout: l}
		if sp.Replicas >= 2 {
			d.lay = nam.NewReplicaLayout(sp.Top.MemServers, sp.Replicas, uint64(cfg.RegionBytes))
			for i := 0; i < sp.Top.MemServers; i++ {
				d.fab.Server(i).Alloc = rdma.NewAllocator(d.lay.SlabLo(i), d.lay.SlabHi(i))
			}
			opts.Replicas = sp.Replicas
			opts.RegionBytes = uint64(cfg.RegionBytes)
		}
		cat, err := fine.Build(d.fab.SetupEndpoint(), opts, buildSpec(sp.DataSize))
		if err != nil {
			return nil, fmt.Errorf("fine build: %w", err)
		}
		d.cat = cat
		d.times.Build = since(tb)
		if sp.Replicas >= 2 {
			ts := time.Now()
			repl.SyncReplicas(d.lay, d.fab.Server)
			d.times.Sync = since(ts)
		}
	case nam.Hybrid:
		weights := []float64{80, 12, 5, 3}
		for len(weights) < sp.Top.MemServers {
			weights = append(weights, weights[len(weights)-1]/2)
		}
		part := partition.NewRangeWeighted(keyspace, weights[:sp.Top.MemServers]...)
		srv := hybrid.NewServer(d.fab, hybrid.Options{Layout: l, Part: part, VisitNS: cfg.VisitNS})
		cat, err := srv.Build(d.fab.SetupEndpoint(), buildSpec(sp.DataSize))
		if err != nil {
			return nil, fmt.Errorf("hybrid build: %w", err)
		}
		d.cat = cat
		d.times.Build = since(tb)
		probes := make([]func() float64, sp.Top.MemServers)
		for i := range probes {
			probes[i] = d.fab.ServerCoreLoad(i)
		}
		srv.SetLoadProbe(func(server int) float64 { return probes[server]() })
		h := srv.Handler()
		if d.tr != nil {
			h = wrapHandler(h, d.tr)
		}
		d.fab.SetHandler(h)
		d.fab.Start()
	default:
		return nil, fmt.Errorf("unsupported design %v", sp.Design)
	}
	d.times.Total = since(t0)
	return d, nil
}

// close stops the deployment's simulated processes (handlers included),
// so its memory can be reclaimed.
func (d *simDeploy) close() { d.s.Shutdown() }

// clientSeams returns client id's endpoint and Env, decorated when traced.
func (d *simDeploy) clientSeams(id int, p *sim.Proc) (rdma.Endpoint, rdma.Env, *clientTrace) {
	ep, env := d.fab.Endpoint(id, p), d.fab.ClientEnv(p)
	if d.tr == nil {
		return ep, env, nil
	}
	ct := d.tr.client(id)
	return wrapEndpoint(ep, ct, &ct.c, true, pageBytes/8), tracedEnv{inner: env, ct: ct}, ct
}

// serialClient builds client id's blocking index client.
func (d *simDeploy) serialClient(id int, p *sim.Proc) core.Index {
	ep, env, ct := d.clientSeams(id, p)
	switch d.sp.Design {
	case nam.Hybrid:
		c := hybrid.NewClient(ep, env, d.cat, id)
		// Per-client engine and window on the client's virtual clock,
		// with a 2 ms dwell, as the adaptive experiment deploys it.
		pcfg := policy.Defaults(d.sp.Top.MemServers)
		pcfg.MinDwell = 2_000_000
		win := policy.NewWindow(d.sp.Top.MemServers)
		eng := policy.NewEngine(pcfg, win, p)
		d.engines = append(d.engines, eng)
		c.SetDecider(eng)
		c.SetSignalFeed(win, p)
		return c
	default:
		if d.sp.Replicas < 2 {
			return fine.NewClient(ep, env, d.cat, id)
		}
		router := repl.NewRouter(ep, d.lay, nil, nil)
		var above rdma.Endpoint = router
		if ct != nil {
			ct.aboveRouter = &counts{}
			above = wrapEndpoint(router, ct, ct.aboveRouter, false, pageBytes/8)
		}
		c := fine.NewClient(above, env, d.cat, id)
		c.SetReplicator(repl.NewMirrorer(router, env, nil))
		return c
	}
}

// pipelinedClient builds client id's async fine-grained client.
func (d *simDeploy) pipelinedClient(id int, p *sim.Proc) *fine.PipelinedClient {
	ep, env, _ := d.clientSeams(id, p)
	return fine.NewPipelinedClient(ep, env, d.cat, id, d.sp.Pipeline)
}

// readbackIndex is an untimed client over the fabric's setup endpoint, used
// after the simulation stopped to read every acknowledged insert back.
func (d *simDeploy) readbackIndex() core.Index {
	ep := d.fab.SetupEndpoint()
	if d.sp.Design == nam.Hybrid {
		c := hybrid.NewClient(ep, rdma.NopEnv{}, d.cat, 0)
		c.SetDecider(policy.Static(policy.StrategyOneSided))
		return c
	}
	return fine.NewClient(ep, rdma.NopEnv{}, d.cat, 0)
}

// heights returns the current height of each tree a point op descends:
// the global tree (fine) or every partition's tree (hybrid).
func (d *simDeploy) heights() ([]int, error) {
	ep := d.fab.SetupEndpoint()
	var out []int
	for _, root := range d.cat.RootWords {
		t := btree.New(layout.New(pageBytes), &btree.EndpointMem{Ep: ep, Place: btree.RoundRobin(d.cat.Servers, 0)}, root)
		h, err := t.Height(rdma.NopEnv{})
		if err != nil {
			return nil, err
		}
		out = append(out, h)
	}
	return out, nil
}

// partitionOf names the tree (index into heights) a key's point op uses.
func (d *simDeploy) partitionOf(key uint64) int {
	if d.sp.Design == nam.Hybrid {
		return d.cat.Partitioner().Server(key)
	}
	return 0
}

// ---- tcpnet ----

// tcpRegionBytes sizes each tcpnet memory server's region.
const tcpRegionBytes = 64 << 20

// tcpDeploy is a set of in-process tcpnet agents on 127.0.0.1 holding a
// bulk-loaded fine-grained index.
type tcpDeploy struct {
	agents []*tcpnet.Agent
	addrs  []string
	wg     sync.WaitGroup
	cat    *nam.Catalog
	times  setupTimes
}

func deployTCP(sp *spec) (*tcpDeploy, error) {
	t0 := time.Now()
	d := &tcpDeploy{}
	for i := 0; i < sp.Top.MemServers; i++ {
		if err := d.startAgent(i, tcpRegionBytes); err != nil {
			d.close()
			return nil, err
		}
	}
	d.times.New = since(t0)
	tb := time.Now()
	boot := tcpnet.Dial(d.addrs)
	cat, err := fine.Build(boot, fine.Options{Layout: layout.New(pageBytes)}, buildSpec(sp.DataSize))
	boot.Close()
	if err != nil {
		d.close()
		return nil, fmt.Errorf("tcpnet build: %w", err)
	}
	d.cat = cat
	d.times.Build = since(tb)
	d.times.Total = since(t0)
	return d, nil
}

// startAgent starts memory server id's agent on a loopback port.
func (d *tcpDeploy) startAgent(id int, regionBytes int) error {
	agent := tcpnet.NewAgent(rdma.NewServer(id, regionBytes, nam.SuperblockBytes), nil)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return fmt.Errorf("listen: %w", err)
	}
	d.agents = append(d.agents, agent)
	d.addrs = append(d.addrs, l.Addr().String())
	d.wg.Add(1)
	go func() {
		defer d.wg.Done()
		_ = agent.Serve(l) // returns once Close shuts the listener
	}()
	return nil
}

// client dials one endpoint (one connection per server) and binds a serial
// fine-grained client to it; ct, when non-nil, decorates the endpoint.
func (d *tcpDeploy) client(ct *clientTrace) (core.Index, func()) {
	ep := tcpnet.Dial(d.addrs)
	var e rdma.Endpoint = ep
	if ct != nil {
		e = wrapEndpoint(ep, ct, &ct.c, true, pageBytes/8)
	}
	return fine.NewClient(e, rdma.NopEnv{}, d.cat, 0), ep.Close
}

// close stops every agent and waits for their serve loops to return.
func (d *tcpDeploy) close() {
	for _, a := range d.agents {
		a.Close()
	}
	d.wg.Wait()
}

// ---- wall-clock ladder fixtures ----

// ladderNode returns a full leaf page of consecutive keys.
func ladderNode() layout.Node {
	n := layout.New(pageBytes).NewNode()
	n.InitLeaf()
	for k := uint64(0); n.LeafAppend(k, k); k++ {
	}
	return n
}

// ladderLocalTree bulk-loads n keys into one server's local memory.
func ladderLocalTree(n int) (*btree.Tree, error) {
	srv := rdma.NewServer(0, 64<<20, nam.SuperblockBytes)
	t := btree.New(layout.New(pageBytes), btree.LocalMem{Srv: srv}, nam.RootWordPtr(0))
	_, err := t.Build(rdma.NopEnv{}, btree.BuildConfig{HeadEvery: headEvery}, n, workload.DataItem)
	return t, err
}

// ladderDirect bulk-loads n keys onto a two-server direct fabric and returns
// a serial and a pipelined fine-grained client over it.
func ladderDirect(n, inflight int) (core.Index, *fine.PipelinedClient, error) {
	fab := direct.New(2, 64<<20, nam.SuperblockBytes)
	cat, err := fine.Build(fab.Endpoint(), fine.Options{Layout: layout.New(pageBytes)}, buildSpec(n))
	if err != nil {
		return nil, nil, err
	}
	return fine.NewClient(fab.Endpoint(), direct.Env{}, cat, 0), fine.NewPipelinedClient(fab.Endpoint(), direct.Env{}, cat, 1, inflight), nil
}

// ladderSim returns a fresh simulation kernel.
func ladderSim() *sim.Sim { return sim.New() }

// ladderSimnet returns a two-server simulated fabric with small regions,
// a function binding a client endpoint to a process, and one page written
// at the returned pointer.
func ladderSimnet() (*sim.Sim, func(*sim.Proc) rdma.Endpoint, rdma.RemotePtr, error) {
	s := sim.New()
	cfg := costModel(nam.PaperTopology(2, 1, 1))
	cfg.RegionBytes = 1 << 20
	fab := simnet.New(s, cfg)
	ep := fab.SetupEndpoint()
	p, err := ep.Alloc(0, pageBytes)
	if err != nil {
		return nil, nil, rdma.NullPtr, err
	}
	client := func(proc *sim.Proc) rdma.Endpoint { return fab.Endpoint(0, proc) }
	return s, client, p, ep.Write(p, make([]uint64, pageBytes/8))
}

// ladderTCP starts one loopback agent with one page allocated and returns a
// dialed endpoint, the page pointer and a stop function.
func ladderTCP() (rdma.Endpoint, rdma.RemotePtr, func(), error) {
	d := &tcpDeploy{}
	if err := d.startAgent(0, 1<<20); err != nil {
		return nil, rdma.NullPtr, nil, err
	}
	ep := tcpnet.Dial(d.addrs)
	stop := func() { ep.Close(); d.close() }
	p, err := ep.Alloc(0, pageBytes)
	if err != nil {
		stop()
		return nil, rdma.NullPtr, nil, err
	}
	return ep, p, stop, nil
}

// ladderGenerator returns a workload generator for the ladder's last rung.
func ladderGenerator(seed int64) (*workload.Generator, error) {
	return workload.NewGenerator(workload.Config{Mix: workload.WorkloadC, DataSize: 400_000, Dist: workload.Zipfian, Seed: seed, Clients: 1}, 0)
}
