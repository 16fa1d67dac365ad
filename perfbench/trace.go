package main

// Decorators that time the program at its public seams: rdma.Endpoint (and
// its AsyncEndpoint / Reconnector surfaces), rdma.Env and rdma.Handler. They
// never advance virtual time, so a traced simulation follows exactly the
// same schedule as an untraced one; they only read the clocks and count.
//
// Simulated processes run one at a time (the sim kernel hands control from
// goroutine to goroutine over channels), so every decorator of one run
// writes the shared tracer without locks. The tcpnet path decorates a single
// client goroutine.

import (
	"time"

	"github.com/namdb/rdmatree/internal/rdma"
)

// Span kinds.
const (
	spanOp uint8 = iota + 1
	spanVerb
	spanEnv
	spanHandler
	spanHandlerEnv
)

// Verb kinds, indexing counts.verbs.
const (
	vRead = iota
	vReadMulti
	vWrite
	vCAS
	vFAA
	vCall
	vAlloc
	vFree
	nVerbs
)

// verbPoll tags the span of one Flush->Poll round of an async endpoint.
const verbPoll uint8 = nVerbs

var verbNames = [nVerbs]string{"read", "read_multi", "write", "cas", "faa", "call", "alloc", "free"}

// span is one timed interval at a seam. Op is the id of the operation that
// caused it (-1 when the verb was posted asynchronously and belongs to a
// doorbell batch of several operations, or is unknown).
type span struct {
	Op     int64
	Client int32
	Kind   uint8
	Verb   uint8
	VS, VE int64 // virtual ns
	WS, WE int64 // wall ns since the tracer started
}

// counts are the per-seam counters of one client.
type counts struct {
	verbs    [nVerbs]int64
	bytes    int64 // payload bytes moved by verbs (both directions)
	rtts     int64 // blocking verb calls plus Flush->Poll rounds
	casFail  int64 // CAS whose prior value differed from old
	posts    int64
	flushes  int64
	inflight int64 // sum over flushes of operations outstanding
	frames   int64 // request frames a tcpnet endpoint would send
	verbVirt int64 // virtual ns inside blocking verbs and Poll
	verbWall int64
	envVirt  int64 // virtual ns inside Env.Charge / Env.Pause
	envWall  int64
	selfWall int64 // wall ns the client ran its own code inside the index API
	callVirt int64 // virtual ns inside blocking Call verbs
}

func (c *counts) sub(o *counts) counts {
	r := *c
	for i := range r.verbs {
		r.verbs[i] -= o.verbs[i]
	}
	r.bytes -= o.bytes
	r.rtts -= o.rtts
	r.casFail -= o.casFail
	r.posts -= o.posts
	r.flushes -= o.flushes
	r.inflight -= o.inflight
	r.frames -= o.frames
	r.verbVirt -= o.verbVirt
	r.verbWall -= o.verbWall
	r.envVirt -= o.envVirt
	r.envWall -= o.envWall
	r.selfWall -= o.selfWall
	r.callVirt -= o.callVirt
	return r
}

func (c *counts) add(o *counts) {
	for i := range c.verbs {
		c.verbs[i] += o.verbs[i]
	}
	c.bytes += o.bytes
	c.rtts += o.rtts
	c.casFail += o.casFail
	c.posts += o.posts
	c.flushes += o.flushes
	c.inflight += o.inflight
	c.frames += o.frames
	c.verbVirt += o.verbVirt
	c.verbWall += o.verbWall
	c.envVirt += o.envVirt
	c.envWall += o.envWall
	c.selfWall += o.selfWall
	c.callVirt += o.callVirt
}

// handlerCounts are the RPC handler seam's counters.
type handlerCounts struct {
	calls       int64
	reqBytes    int64
	respBytes   int64
	chargedVirt int64 // virtual ns inside the handler's Env.Charge / Pause
	wall        int64 // handler wall span
	envWall     int64 // wall inside the handler's Env calls
}

func (h handlerCounts) sub(o handlerCounts) handlerCounts {
	return handlerCounts{
		calls:       h.calls - o.calls,
		reqBytes:    h.reqBytes - o.reqBytes,
		respBytes:   h.respBytes - o.respBytes,
		chargedVirt: h.chargedVirt - o.chargedVirt,
		wall:        h.wall - o.wall,
		envWall:     h.envWall - o.envWall,
	}
}

// tracer owns the spans and counters of one traced run.
type tracer struct {
	t0       time.Time
	now      func() int64 // virtual clock; nil on real transports
	spans    []span
	clients  []*clientTrace
	handlers handlerCounts
	nextOp   int64
}

func newTracer(now func() int64) *tracer {
	return &tracer{t0: time.Now(), now: now, spans: make([]span, 0, 1<<16)}
}

func (t *tracer) wall() int64 { return int64(time.Since(t.t0)) }

func (t *tracer) virt() int64 {
	if t.now == nil {
		return 0
	}
	return t.now()
}

// client returns the trace state of client id, creating it on first use.
func (t *tracer) client(id int) *clientTrace {
	for len(t.clients) <= id {
		t.clients = append(t.clients, nil)
	}
	if t.clients[id] == nil {
		t.clients[id] = &clientTrace{t: t, id: int32(id), op: -1}
	}
	return t.clients[id]
}

// clientTotals sums every client's counters.
func (t *tracer) clientTotals() counts {
	var c counts
	for _, ct := range t.clients {
		if ct != nil {
			c.add(&ct.c)
		}
	}
	return c
}

// clientTrace is the per-client trace state: counters, the current
// operation (serial clients) and the bookkeeping that splits the client's
// wall time into its own code and time blocked in the program's seams.
type clientTrace struct {
	t  *tracer
	id int32
	c  counts

	op       int64 // current serial operation, -1 outside one
	opCalls  int64 // Call verbs issued by the current operation
	opPages  int64 // page-sized reads issued by the current operation
	inAPI    bool  // the client is inside an index API call
	resumeAt int64 // wall time the client last resumed its own code

	outstanding int64 // operations submitted and not yet completed (async)
	aboveRouter *counts
}

// enter marks the start of a call into the index API.
func (ct *clientTrace) enter() {
	ct.inAPI = true
	ct.resumeAt = ct.t.wall()
}

// leave marks the end of a call into the index API.
func (ct *clientTrace) leave() {
	ct.c.selfWall += ct.t.wall() - ct.resumeAt
	ct.inAPI = false
}

// block is called when the client enters a blocking seam; it returns the
// span start times.
func (ct *clientTrace) block() (vs, ws int64) {
	ws = ct.t.wall()
	if ct.inAPI {
		ct.c.selfWall += ws - ct.resumeAt
	}
	return ct.t.virt(), ws
}

// unblock closes a blocking seam opened by block and records its span.
func (ct *clientTrace) unblock(kind, verb uint8, vs, ws int64) {
	ve, we := ct.t.virt(), ct.t.wall()
	ct.resumeAt = we
	if kind == spanEnv {
		ct.c.envVirt += ve - vs
		ct.c.envWall += we - ws
	} else {
		ct.c.verbVirt += ve - vs
		ct.c.verbWall += we - ws
		if verb == vCall {
			ct.c.callVirt += ve - vs
		}
	}
	ct.t.spans = append(ct.t.spans, span{Op: ct.op, Client: ct.id, Kind: kind, Verb: verb, VS: vs, VE: ve, WS: ws, WE: we})
}

// beginOp starts a serial operation and returns its id.
func (ct *clientTrace) beginOp() int64 {
	ct.op = ct.t.nextOp
	ct.t.nextOp++
	ct.opCalls, ct.opPages = 0, 0
	return ct.op
}

// endOp records the operation span [vs, ve] x [ws, we].
func (ct *clientTrace) endOp(vs, ve, ws, we int64) {
	ct.t.spans = append(ct.t.spans, span{Op: ct.op, Client: ct.id, Kind: spanOp, VS: vs, VE: ve, WS: ws, WE: we})
	ct.op = -1
}

// ---- Endpoint decorator ----

// tracedEP decorates one client's endpoint. With timed set it records
// blocking spans into its client trace; otherwise it only counts into cnt
// (the "above the replica router" view).
type tracedEP struct {
	inner     rdma.Endpoint
	ct        *clientTrace
	cnt       *counts
	timed     bool
	pageWords int
}

// wrapEndpoint returns a decorator of inner that implements exactly the
// optional interfaces inner implements (rdma.AsyncEndpoint,
// rdma.Reconnector), so no type assertion in the program takes a different
// branch because of the decorator.
func wrapEndpoint(inner rdma.Endpoint, ct *clientTrace, cnt *counts, timed bool, pageWords int) rdma.Endpoint {
	e := &tracedEP{inner: inner, ct: ct, cnt: cnt, timed: timed, pageWords: pageWords}
	a, isAsync := inner.(rdma.AsyncEndpoint)
	r, isRec := inner.(rdma.Reconnector)
	switch {
	case isAsync && isRec:
		return &asyncReconnEP{asyncEP: asyncEP{tracedEP: e, a: a}, r: r}
	case isAsync:
		return &asyncEP{tracedEP: e, a: a}
	case isRec:
		return &reconnEP{tracedEP: e, r: r}
	default:
		return e
	}
}

func (e *tracedEP) begin() (vs, ws int64) {
	if !e.timed {
		return 0, 0
	}
	return e.ct.block()
}

func (e *tracedEP) end(verb uint8, vs, ws int64) {
	e.cnt.verbs[verb]++
	e.cnt.rtts++
	if e.timed {
		e.ct.unblock(spanVerb, verb, vs, ws)
	}
}

// pageRead counts a page-sized READ (a fused batch's page copy included)
// toward the current serial operation.
func (e *tracedEP) pageRead(words int) {
	if e.timed && words == e.pageWords {
		e.ct.opPages++
	}
}

// framesFor counts the request frames of a verb touching the given
// servers: one per distinct server, as a per-server connection carries them.
func (e *tracedEP) framesFor(ps []rdma.RemotePtr) {
	var seen uint64
	for _, p := range ps {
		s := p.Server()
		if s < 64 && seen&(1<<uint(s)) == 0 {
			seen |= 1 << uint(s)
			e.cnt.frames++
		}
	}
}

func (e *tracedEP) Read(p rdma.RemotePtr, dst []uint64) error {
	vs, ws := e.begin()
	err := e.inner.Read(p, dst)
	e.end(vRead, vs, ws)
	e.cnt.bytes += 8 * int64(len(dst))
	e.cnt.frames++
	e.pageRead(len(dst))
	return err
}

func (e *tracedEP) ReadMulti(ps []rdma.RemotePtr, dst [][]uint64) error {
	vs, ws := e.begin()
	err := e.inner.ReadMulti(ps, dst)
	e.end(vReadMulti, vs, ws)
	for _, d := range dst {
		e.cnt.bytes += 8 * int64(len(d))
		e.pageRead(len(d))
	}
	e.framesFor(ps)
	return err
}

func (e *tracedEP) Write(p rdma.RemotePtr, src []uint64) error {
	vs, ws := e.begin()
	err := e.inner.Write(p, src)
	e.end(vWrite, vs, ws)
	e.cnt.bytes += 8 * int64(len(src))
	e.cnt.frames++
	return err
}

func (e *tracedEP) CompareAndSwap(p rdma.RemotePtr, old, new uint64) (uint64, error) {
	vs, ws := e.begin()
	prior, err := e.inner.CompareAndSwap(p, old, new)
	e.end(vCAS, vs, ws)
	e.cnt.bytes += 8
	e.cnt.frames++
	if err == nil && prior != old {
		e.cnt.casFail++
	}
	return prior, err
}

func (e *tracedEP) FetchAdd(p rdma.RemotePtr, delta uint64) (uint64, error) {
	vs, ws := e.begin()
	prior, err := e.inner.FetchAdd(p, delta)
	e.end(vFAA, vs, ws)
	e.cnt.bytes += 8
	e.cnt.frames++
	return prior, err
}

func (e *tracedEP) Alloc(server int, n int) (rdma.RemotePtr, error) {
	vs, ws := e.begin()
	p, err := e.inner.Alloc(server, n)
	e.end(vAlloc, vs, ws)
	e.cnt.frames++
	return p, err
}

func (e *tracedEP) Free(p rdma.RemotePtr, n int) error {
	vs, ws := e.begin()
	err := e.inner.Free(p, n)
	e.end(vFree, vs, ws)
	e.cnt.frames++
	return err
}

func (e *tracedEP) Call(server int, req []byte) ([]byte, error) {
	vs, ws := e.begin()
	resp, err := e.inner.Call(server, req)
	e.end(vCall, vs, ws)
	e.cnt.bytes += int64(len(req) + len(resp))
	e.cnt.frames++
	if e.timed {
		e.ct.opCalls++
	}
	return resp, err
}

func (e *tracedEP) NumServers() int { return e.inner.NumServers() }

// asyncEP adds the non-blocking surface. Posts are counted at post time;
// the Flush->Poll round is the blocking seam.
type asyncEP struct {
	*tracedEP
	a      rdma.AsyncEndpoint
	casOld map[rdma.Token]uint64
	calls  map[rdma.Token]int
}

func (e *asyncEP) post(verb uint8, bytes int64) {
	e.cnt.verbs[verb]++
	e.cnt.posts++
	e.cnt.bytes += bytes
	e.cnt.frames++
}

func (e *asyncEP) PostRead(p rdma.RemotePtr, dst []uint64) rdma.Token {
	e.post(vRead, 8*int64(len(dst)))
	e.pageRead(len(dst))
	return e.a.PostRead(p, dst)
}

func (e *asyncEP) PostWrite(p rdma.RemotePtr, src []uint64) rdma.Token {
	e.post(vWrite, 8*int64(len(src)))
	return e.a.PostWrite(p, src)
}

func (e *asyncEP) PostCAS(p rdma.RemotePtr, old, new uint64) rdma.Token {
	e.post(vCAS, 8)
	tok := e.a.PostCAS(p, old, new)
	if e.casOld == nil {
		e.casOld = make(map[rdma.Token]uint64)
	}
	e.casOld[tok] = old
	return tok
}

func (e *asyncEP) PostFetchAdd(p rdma.RemotePtr, delta uint64) rdma.Token {
	e.post(vFAA, 8)
	return e.a.PostFetchAdd(p, delta)
}

func (e *asyncEP) PostCall(server int, req []byte) rdma.Token {
	e.post(vCall, int64(len(req)))
	tok := e.a.PostCall(server, req)
	if e.calls == nil {
		e.calls = make(map[rdma.Token]int)
	}
	e.calls[tok] = len(req)
	return tok
}

func (e *asyncEP) Flush() {
	e.cnt.flushes++
	e.cnt.inflight += e.ct.outstanding
	e.a.Flush()
}

func (e *asyncEP) Poll(out []rdma.Completion) []rdma.Completion {
	vs, ws := e.begin()
	n := len(out)
	out = e.a.Poll(out)
	e.cnt.rtts++
	if e.timed {
		e.ct.unblock(spanVerb, verbPoll, vs, ws)
	}
	for _, c := range out[n:] {
		if old, ok := e.casOld[c.Token]; ok {
			if c.Err == nil && c.Val != old {
				e.cnt.casFail++
			}
			delete(e.casOld, c.Token)
		}
		if _, ok := e.calls[c.Token]; ok {
			e.cnt.bytes += int64(len(c.Resp))
			delete(e.calls, c.Token)
		}
	}
	return out
}

type reconnEP struct {
	*tracedEP
	r rdma.Reconnector
}

func (e *reconnEP) Reconnect(server int) error { return e.r.Reconnect(server) }

type asyncReconnEP struct {
	asyncEP
	r rdma.Reconnector
}

func (e *asyncReconnEP) Reconnect(server int) error { return e.r.Reconnect(server) }

// ---- Env decorators ----

// tracedEnv times a client's Env.Charge / Env.Pause.
type tracedEnv struct {
	inner rdma.Env
	ct    *clientTrace
}

func (e tracedEnv) Charge(ns int64) {
	vs, ws := e.ct.block()
	e.inner.Charge(ns)
	e.ct.unblock(spanEnv, 0, vs, ws)
}

func (e tracedEnv) Pause() {
	vs, ws := e.ct.block()
	e.inner.Pause()
	e.ct.unblock(spanEnv, 1, vs, ws)
}

// handlerEnv times a handler's Env calls during one RPC.
type handlerEnv struct {
	inner rdma.Env
	t     *tracer
}

func (e *handlerEnv) around(f func()) {
	vs, ws := e.t.virt(), e.t.wall()
	f()
	ve, we := e.t.virt(), e.t.wall()
	e.t.handlers.chargedVirt += ve - vs
	e.t.handlers.envWall += we - ws
	e.t.spans = append(e.t.spans, span{Op: -1, Client: -1, Kind: spanHandlerEnv, VS: vs, VE: ve, WS: ws, WE: we})
}

func (e *handlerEnv) Charge(ns int64) { e.around(func() { e.inner.Charge(ns) }) }
func (e *handlerEnv) Pause()          { e.around(e.inner.Pause) }

// wrapHandler decorates the RPC handler installed on every server.
func wrapHandler(h rdma.Handler, t *tracer) rdma.Handler {
	return func(env rdma.Env, server int, req []byte) ([]byte, rdma.Work) {
		vs, ws := t.virt(), t.wall()
		resp, w := h(&handlerEnv{inner: env, t: t}, server, req)
		ve, we := t.virt(), t.wall()
		t.handlers.calls++
		t.handlers.reqBytes += int64(len(req))
		t.handlers.respBytes += int64(len(resp))
		t.handlers.wall += we - ws
		t.spans = append(t.spans, span{Op: -1, Client: int32(-1 - server), Kind: spanHandler, VS: vs, VE: ve, WS: ws, WE: we})
		return resp, w
	}
}
