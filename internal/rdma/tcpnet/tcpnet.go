// Package tcpnet implements the rdma verbs API over TCP sockets, so a NAM
// cluster can actually be deployed as separate memory-server and
// compute-client processes (cmd/namserver, cmd/namclient).
//
// Each memory server runs an Agent: a TCP listener whose per-connection
// loops service one-sided verbs against the server's region (the software
// analogue of the NIC's DMA engine, like soft-RoCE) and dispatch two-sided
// RPCs to the registered handler. A client endpoint holds one connection per
// memory server — its "queue pair" — and issues synchronous verbs over it.
//
// The wire format is length-prefixed little-endian frames:
//
//	request:  [u32 length][u8 verb][payload...]
//	response: [u32 length][u8 status][payload...]
package tcpnet

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"runtime"
	"strings"
	"sync"

	"github.com/namdb/rdmatree/internal/rdma"
)

// Verb opcodes.
const (
	opRead = iota + 1
	opWrite
	opCAS
	opFetchAdd
	opAlloc
	opFree
	opCall
	opReadMulti
	opCatalog
)

const (
	statusOK  = 0
	statusErr = 1
	// statusRemoteAccess rejects a verb whose address the region does not
	// cover (IBV_WC_REM_ACCESS_ERR); clients see rdma.ErrRemoteAccess.
	statusRemoteAccess = 2
)

// maxFrame bounds a single frame (16 MiB), protecting the agent from
// malformed lengths.
const maxFrame = 16 << 20

var order = binary.LittleEndian

// Agent serves one memory server's region over TCP.
type Agent struct {
	srv     *rdma.Server
	handler rdma.Handler
	catalog []byte

	mu       sync.Mutex
	listener net.Listener
	conns    map[net.Conn]struct{}
	closed   bool
	wg       sync.WaitGroup
}

// NewAgent creates an agent for a server. handler may be nil if the
// deployment uses only one-sided verbs.
func NewAgent(srv *rdma.Server, handler rdma.Handler) *Agent {
	return &Agent{srv: srv, handler: handler, conns: make(map[net.Conn]struct{})}
}

// SetCatalog installs the serialized catalog served to clients (opCatalog).
func (a *Agent) SetCatalog(c []byte) { a.catalog = c }

// Serve accepts connections on l until Close. It returns after the listener
// is closed.
func (a *Agent) Serve(l net.Listener) error {
	a.mu.Lock()
	if a.closed {
		a.mu.Unlock()
		return fmt.Errorf("tcpnet: agent closed")
	}
	a.listener = l
	a.mu.Unlock()
	for {
		conn, err := l.Accept()
		if err != nil {
			a.mu.Lock()
			closed := a.closed
			a.mu.Unlock()
			if closed {
				return nil
			}
			return err
		}
		a.mu.Lock()
		if a.closed {
			a.mu.Unlock()
			conn.Close()
			return nil
		}
		a.conns[conn] = struct{}{}
		a.wg.Add(1)
		a.mu.Unlock()
		go func() {
			defer a.wg.Done()
			a.serveConn(conn)
			a.mu.Lock()
			delete(a.conns, conn)
			a.mu.Unlock()
		}()
	}
}

// Close shuts the agent down: stops accepting, closes connections, waits for
// per-connection loops.
func (a *Agent) Close() {
	a.mu.Lock()
	if a.closed {
		a.mu.Unlock()
		return
	}
	a.closed = true
	if a.listener != nil {
		a.listener.Close()
	}
	for c := range a.conns {
		c.Close()
	}
	a.mu.Unlock()
	a.wg.Wait()
}

type agentEnv struct{}

func (agentEnv) Charge(int64) {}
func (agentEnv) Pause()       { runtime.Gosched() }

func (a *Agent) serveConn(conn net.Conn) {
	defer conn.Close()
	r := bufio.NewReaderSize(conn, 64<<10)
	w := bufio.NewWriterSize(conn, 64<<10)
	for {
		frame, err := readFrame(r)
		if err != nil {
			return // client disconnected or protocol error
		}
		resp, err := a.handle(frame)
		if err != nil {
			status := byte(statusErr)
			if errors.Is(err, rdma.ErrRemoteAccess) {
				status = statusRemoteAccess
			}
			resp = append([]byte{status}, err.Error()...)
		}
		if err := writeFrame(w, resp); err != nil {
			return
		}
		if err := w.Flush(); err != nil {
			return
		}
	}
}

// checkAccess rejects a wire-supplied address the region does not cover, so
// a malformed frame fails its verb instead of panicking the agent.
func (a *Agent) checkAccess(verb string, off uint64, words int) error {
	if !a.srv.Region.Contains(off, words) {
		return fmt.Errorf("%w: %s of %d words at %#x outside region of %d bytes",
			rdma.ErrRemoteAccess, verb, words, off, a.srv.Region.Size())
	}
	return nil
}

// handle executes one verb frame and returns the response frame body.
func (a *Agent) handle(frame []byte) ([]byte, error) {
	if len(frame) < 1 {
		return nil, fmt.Errorf("empty frame")
	}
	op, body := frame[0], frame[1:]
	switch op {
	case opRead:
		if len(body) < 12 {
			return nil, fmt.Errorf("short read request")
		}
		off := order.Uint64(body)
		words := int(order.Uint32(body[8:]))
		if words < 0 || words*8 > maxFrame {
			return nil, fmt.Errorf("read too large")
		}
		if err := a.checkAccess("read", off, words); err != nil {
			return nil, err
		}
		out := make([]byte, 1+8*words)
		out[0] = statusOK
		buf := make([]uint64, words)
		a.srv.Region.Read(off, buf)
		for i, v := range buf {
			order.PutUint64(out[1+8*i:], v)
		}
		return out, nil
	case opWrite:
		if len(body) < 8 || (len(body)-8)%8 != 0 {
			return nil, fmt.Errorf("bad write request")
		}
		off := order.Uint64(body)
		words := (len(body) - 8) / 8
		if err := a.checkAccess("write", off, words); err != nil {
			return nil, err
		}
		buf := make([]uint64, words)
		for i := range buf {
			buf[i] = order.Uint64(body[8+8*i:])
		}
		a.srv.Region.Write(off, buf)
		return []byte{statusOK}, nil
	case opCAS:
		if len(body) != 24 {
			return nil, fmt.Errorf("bad CAS request")
		}
		if err := a.checkAccess("CAS", order.Uint64(body), 1); err != nil {
			return nil, err
		}
		//rdmavet:allow caschecked -- transport relay: the prior value is returned to the remote client, which performs the old-value comparison
		prior := a.srv.Region.CompareAndSwap(order.Uint64(body), order.Uint64(body[8:]), order.Uint64(body[16:]))
		out := make([]byte, 9)
		out[0] = statusOK
		order.PutUint64(out[1:], prior)
		return out, nil
	case opFetchAdd:
		if len(body) != 16 {
			return nil, fmt.Errorf("bad FAA request")
		}
		if err := a.checkAccess("FAA", order.Uint64(body), 1); err != nil {
			return nil, err
		}
		prior := a.srv.Region.FetchAdd(order.Uint64(body), order.Uint64(body[8:]))
		out := make([]byte, 9)
		out[0] = statusOK
		order.PutUint64(out[1:], prior)
		return out, nil
	case opAlloc:
		if len(body) != 4 {
			return nil, fmt.Errorf("bad alloc request")
		}
		n := int(order.Uint32(body))
		if n == 0 {
			return nil, fmt.Errorf("alloc of zero bytes")
		}
		off, err := a.srv.Alloc.Alloc(n)
		if err != nil {
			return nil, err
		}
		out := make([]byte, 9)
		out[0] = statusOK
		order.PutUint64(out[1:], off)
		return out, nil
	case opFree:
		if len(body) != 12 {
			return nil, fmt.Errorf("bad free request")
		}
		if err := a.srv.Alloc.TryFree(order.Uint64(body), int(order.Uint32(body[8:]))); err != nil {
			return nil, fmt.Errorf("%w: %v", rdma.ErrRemoteAccess, err)
		}
		return []byte{statusOK}, nil
	case opCall:
		if a.handler == nil {
			return nil, fmt.Errorf("no RPC handler")
		}
		resp, _ := a.handler(agentEnv{}, a.srv.ID, body)
		return append([]byte{statusOK}, resp...), nil
	case opReadMulti:
		if len(body) < 4 {
			return nil, fmt.Errorf("bad readmulti request")
		}
		n := int(order.Uint32(body))
		if len(body) != 4+12*n {
			return nil, fmt.Errorf("bad readmulti request body")
		}
		total := 0
		for i := 0; i < n; i++ {
			total += int(order.Uint32(body[4+12*i+8:]))
		}
		if total*8 > maxFrame {
			return nil, fmt.Errorf("readmulti too large")
		}
		for i := 0; i < n; i++ {
			if err := a.checkAccess("read", order.Uint64(body[4+12*i:]), int(order.Uint32(body[4+12*i+8:]))); err != nil {
				return nil, err
			}
		}
		out := make([]byte, 1, 1+8*total)
		out[0] = statusOK
		for i := 0; i < n; i++ {
			off := order.Uint64(body[4+12*i:])
			words := int(order.Uint32(body[4+12*i+8:]))
			buf := make([]uint64, words)
			a.srv.Region.Read(off, buf)
			for _, v := range buf {
				out = order.AppendUint64(out, v)
			}
		}
		return out, nil
	case opCatalog:
		if a.catalog == nil {
			return nil, fmt.Errorf("no catalog installed")
		}
		return append([]byte{statusOK}, a.catalog...), nil
	default:
		return nil, fmt.Errorf("unknown verb %d", op)
	}
}

func readFrame(r io.Reader) ([]byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	n := order.Uint32(hdr[:])
	if n > maxFrame {
		return nil, fmt.Errorf("tcpnet: frame of %d bytes exceeds limit", n)
	}
	buf := make([]byte, n)
	if _, err := io.ReadFull(r, buf); err != nil {
		return nil, err
	}
	return buf, nil
}

func writeFrame(w *bufio.Writer, body []byte) error {
	var hdr [4]byte
	order.PutUint32(hdr[:], uint32(len(body)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(body)
	return err
}

// Endpoint is a client-side verbs endpoint over TCP: one connection ("queue
// pair") per memory server. It is not safe for concurrent use — create one
// per client thread, as with the other transports.
type Endpoint struct {
	addrs []string
	conns []net.Conn
	rds   []*bufio.Reader
	wrs   []*bufio.Writer

	// Async post/poll state (see Poll).
	q       rdma.PostQueue
	written int     // pending verbs already encoded onto the wire
	srvErr  []error // sticky per-server failure for the current batch
}

var _ rdma.Endpoint = (*Endpoint)(nil)

// Dial creates an endpoint for the given ordered memory-server addresses.
// Connections are opened lazily.
func Dial(addrs []string) *Endpoint {
	return &Endpoint{
		addrs: addrs,
		conns: make([]net.Conn, len(addrs)),
		rds:   make([]*bufio.Reader, len(addrs)),
		wrs:   make([]*bufio.Writer, len(addrs)),
	}
}

// Close closes all connections.
func (e *Endpoint) Close() {
	for i, c := range e.conns {
		if c != nil {
			c.Close()
			e.conns[i] = nil
		}
	}
}

// NumServers implements rdma.Endpoint.
func (e *Endpoint) NumServers() int { return len(e.addrs) }

func (e *Endpoint) conn(server int) (*bufio.Reader, *bufio.Writer, error) {
	if server < 0 || server >= len(e.addrs) {
		return nil, nil, fmt.Errorf("tcpnet: unknown server %d", server)
	}
	if e.conns[server] == nil {
		c, err := net.Dial("tcp", e.addrs[server])
		if err != nil {
			return nil, nil, fmt.Errorf("tcpnet: dialing server %d: %w", server, err)
		}
		if tc, ok := c.(*net.TCPConn); ok {
			tc.SetNoDelay(true)
		}
		e.conns[server] = c
		e.rds[server] = bufio.NewReaderSize(c, 64<<10)
		e.wrs[server] = bufio.NewWriterSize(c, 64<<10)
	}
	return e.rds[server], e.wrs[server], nil
}

// roundTrip sends one verb frame and returns the response payload.
func (e *Endpoint) roundTrip(server int, frame []byte) ([]byte, error) {
	r, w, err := e.conn(server)
	if err != nil {
		return nil, err
	}
	if err := writeFrame(w, frame); err != nil {
		return nil, e.fail(server, err)
	}
	if err := w.Flush(); err != nil {
		return nil, e.fail(server, err)
	}
	resp, err := readFrame(r)
	if err != nil {
		return nil, e.fail(server, err)
	}
	if len(resp) < 1 {
		return nil, e.fail(server, fmt.Errorf("tcpnet: empty response"))
	}
	if resp[0] != statusOK {
		return nil, verbError(server, resp)
	}
	return resp[1:], nil
}

// verbError converts a non-OK response into the verb's error; the
// connection stays healthy.
func verbError(server int, resp []byte) error {
	if resp[0] == statusRemoteAccess {
		detail := strings.TrimPrefix(string(resp[1:]), rdma.ErrRemoteAccess.Error()+": ")
		return fmt.Errorf("tcpnet: server %d: %w: %s", server, rdma.ErrRemoteAccess, detail)
	}
	return fmt.Errorf("tcpnet: server %d: %s", server, resp[1:])
}

// fail tears down the connection so the next verb re-dials.
func (e *Endpoint) fail(server int, err error) error {
	if e.conns[server] != nil {
		e.conns[server].Close()
		e.conns[server] = nil
	}
	return err
}

// Read implements rdma.Endpoint.
func (e *Endpoint) Read(p rdma.RemotePtr, dst []uint64) error {
	if p.IsNull() {
		return fmt.Errorf("tcpnet: null pointer")
	}
	frame := make([]byte, 13)
	frame[0] = opRead
	order.PutUint64(frame[1:], p.Offset())
	order.PutUint32(frame[9:], uint32(len(dst)))
	body, err := e.roundTrip(p.Server(), frame)
	if err != nil {
		return err
	}
	if len(body) != 8*len(dst) {
		return fmt.Errorf("tcpnet: short read response")
	}
	for i := range dst {
		dst[i] = order.Uint64(body[8*i:])
	}
	return nil
}

// ReadMulti implements rdma.Endpoint: pointers are grouped per server and
// each group fetched in one round trip.
func (e *Endpoint) ReadMulti(ps []rdma.RemotePtr, dst [][]uint64) error {
	type item struct{ idx int }
	groups := make(map[int][]int)
	for i, p := range ps {
		if p.IsNull() {
			return fmt.Errorf("tcpnet: null pointer in batch")
		}
		groups[p.Server()] = append(groups[p.Server()], i)
	}
	for server := 0; server < len(e.addrs); server++ {
		idxs := groups[server]
		if len(idxs) == 0 {
			continue
		}
		frame := make([]byte, 5+12*len(idxs))
		frame[0] = opReadMulti
		order.PutUint32(frame[1:], uint32(len(idxs)))
		for j, i := range idxs {
			order.PutUint64(frame[5+12*j:], ps[i].Offset())
			order.PutUint32(frame[5+12*j+8:], uint32(len(dst[i])))
		}
		body, err := e.roundTrip(server, frame)
		if err != nil {
			return err
		}
		off := 0
		for _, i := range idxs {
			if off+8*len(dst[i]) > len(body) {
				return fmt.Errorf("tcpnet: short readmulti response")
			}
			for k := range dst[i] {
				dst[i][k] = order.Uint64(body[off:])
				off += 8
			}
		}
	}
	return nil
}

// Write implements rdma.Endpoint.
func (e *Endpoint) Write(p rdma.RemotePtr, src []uint64) error {
	if p.IsNull() {
		return fmt.Errorf("tcpnet: null pointer")
	}
	frame := make([]byte, 9+8*len(src))
	frame[0] = opWrite
	order.PutUint64(frame[1:], p.Offset())
	for i, v := range src {
		order.PutUint64(frame[9+8*i:], v)
	}
	_, err := e.roundTrip(p.Server(), frame)
	return err
}

// CompareAndSwap implements rdma.Endpoint.
func (e *Endpoint) CompareAndSwap(p rdma.RemotePtr, old, new uint64) (uint64, error) {
	if p.IsNull() {
		return 0, fmt.Errorf("tcpnet: null pointer")
	}
	frame := make([]byte, 25)
	frame[0] = opCAS
	order.PutUint64(frame[1:], p.Offset())
	order.PutUint64(frame[9:], old)
	order.PutUint64(frame[17:], new)
	body, err := e.roundTrip(p.Server(), frame)
	if err != nil {
		return 0, err
	}
	if len(body) != 8 {
		return 0, fmt.Errorf("tcpnet: bad CAS response")
	}
	return order.Uint64(body), nil
}

// FetchAdd implements rdma.Endpoint.
func (e *Endpoint) FetchAdd(p rdma.RemotePtr, delta uint64) (uint64, error) {
	if p.IsNull() {
		return 0, fmt.Errorf("tcpnet: null pointer")
	}
	frame := make([]byte, 17)
	frame[0] = opFetchAdd
	order.PutUint64(frame[1:], p.Offset())
	order.PutUint64(frame[9:], delta)
	body, err := e.roundTrip(p.Server(), frame)
	if err != nil {
		return 0, err
	}
	if len(body) != 8 {
		return 0, fmt.Errorf("tcpnet: bad FAA response")
	}
	return order.Uint64(body), nil
}

// Alloc implements rdma.Endpoint.
func (e *Endpoint) Alloc(server int, n int) (rdma.RemotePtr, error) {
	frame := make([]byte, 5)
	frame[0] = opAlloc
	order.PutUint32(frame[1:], uint32(n))
	body, err := e.roundTrip(server, frame)
	if err != nil {
		return rdma.NullPtr, err
	}
	if len(body) != 8 {
		return rdma.NullPtr, fmt.Errorf("tcpnet: bad alloc response")
	}
	return rdma.MakePtr(server, order.Uint64(body)), nil
}

// Free implements rdma.Endpoint.
func (e *Endpoint) Free(p rdma.RemotePtr, n int) error {
	if p.IsNull() {
		return fmt.Errorf("tcpnet: null pointer")
	}
	frame := make([]byte, 13)
	frame[0] = opFree
	order.PutUint64(frame[1:], p.Offset())
	order.PutUint32(frame[9:], uint32(n))
	_, err := e.roundTrip(p.Server(), frame)
	return err
}

// Call implements rdma.Endpoint.
func (e *Endpoint) Call(server int, req []byte) ([]byte, error) {
	frame := make([]byte, 1+len(req))
	frame[0] = opCall
	copy(frame[1:], req)
	return e.roundTrip(server, frame)
}

// Catalog fetches the serialized catalog from a server.
func (e *Endpoint) Catalog(server int) ([]byte, error) {
	return e.roundTrip(server, []byte{opCatalog})
}

// --- non-blocking post/poll surface (rdma.AsyncEndpoint) -----------------
//
// Posted verbs are buffered client-side; Flush encodes and writes every
// buffered frame (per-server pipelining on the TCP "queue pairs") and Poll
// reads the replies back in global posting order. Each agent connection
// serves frames sequentially, so per-server reply order matches per-server
// request order — the TCP analogue of RC in-order execution — and reading
// replies in posting order across servers just interleaves already-ordered
// streams. A connection failure fails the remaining completions of that
// server's batch (the verbs may or may not have executed; like the blocking
// path, the conn is torn down so the next verb re-dials) without touching
// other servers' verbs.

var _ rdma.AsyncEndpoint = (*Endpoint)(nil)

// PostRead implements rdma.AsyncEndpoint.
func (e *Endpoint) PostRead(p rdma.RemotePtr, dst []uint64) rdma.Token {
	return e.q.Post(rdma.Posted{Op: rdma.PostOpRead, P: p, Dst: dst})
}

// PostWrite implements rdma.AsyncEndpoint.
func (e *Endpoint) PostWrite(p rdma.RemotePtr, src []uint64) rdma.Token {
	return e.q.Post(rdma.Posted{Op: rdma.PostOpWrite, P: p, Src: src})
}

// PostCAS implements rdma.AsyncEndpoint.
func (e *Endpoint) PostCAS(p rdma.RemotePtr, old, new uint64) rdma.Token {
	return e.q.Post(rdma.Posted{Op: rdma.PostOpCAS, P: p, A: old, B: new})
}

// PostFetchAdd implements rdma.AsyncEndpoint.
func (e *Endpoint) PostFetchAdd(p rdma.RemotePtr, delta uint64) rdma.Token {
	return e.q.Post(rdma.Posted{Op: rdma.PostOpFetchAdd, P: p, A: delta})
}

// PostCall implements rdma.AsyncEndpoint.
func (e *Endpoint) PostCall(server int, req []byte) rdma.Token {
	return e.q.Post(rdma.Posted{Op: rdma.PostOpCall, Server: server, Req: req})
}

// postTarget validates a posted verb's destination. Invalid verbs produce no
// wire traffic; Flush and Poll both call this, so the skip decisions agree.
func (e *Endpoint) postTarget(v *rdma.Posted) (int, error) {
	if v.Op == rdma.PostOpCall {
		if v.Server < 0 || v.Server >= len(e.addrs) {
			return -1, fmt.Errorf("tcpnet: unknown server %d", v.Server)
		}
		return v.Server, nil
	}
	if v.P.IsNull() {
		return -1, fmt.Errorf("tcpnet: null pointer")
	}
	if v.P.Server() >= len(e.addrs) {
		return -1, fmt.Errorf("tcpnet: unknown server %d", v.P.Server())
	}
	return v.P.Server(), nil
}

// encodePosted builds the wire frame for a buffered verb.
func encodePosted(v *rdma.Posted) []byte {
	switch v.Op {
	case rdma.PostOpRead:
		frame := make([]byte, 13)
		frame[0] = opRead
		order.PutUint64(frame[1:], v.P.Offset())
		order.PutUint32(frame[9:], uint32(len(v.Dst)))
		return frame
	case rdma.PostOpWrite:
		frame := make([]byte, 9+8*len(v.Src))
		frame[0] = opWrite
		order.PutUint64(frame[1:], v.P.Offset())
		for i, w := range v.Src {
			order.PutUint64(frame[9+8*i:], w)
		}
		return frame
	case rdma.PostOpCAS:
		frame := make([]byte, 25)
		frame[0] = opCAS
		order.PutUint64(frame[1:], v.P.Offset())
		order.PutUint64(frame[9:], v.A)
		order.PutUint64(frame[17:], v.B)
		return frame
	case rdma.PostOpFetchAdd:
		frame := make([]byte, 17)
		frame[0] = opFetchAdd
		order.PutUint64(frame[1:], v.P.Offset())
		order.PutUint64(frame[9:], v.A)
		return frame
	case rdma.PostOpCall:
		frame := make([]byte, 1+len(v.Req))
		frame[0] = opCall
		copy(frame[1:], v.Req)
		return frame
	}
	panic(fmt.Sprintf("tcpnet: unknown posted op %d", v.Op))
}

// Flush implements rdma.AsyncEndpoint: every buffered verb not yet on the
// wire is encoded and written, then each touched connection is flushed.
func (e *Endpoint) Flush() {
	pending := e.q.Pending()
	if e.written == len(pending) {
		return
	}
	if e.srvErr == nil {
		e.srvErr = make([]error, len(e.addrs))
	}
	dirty := false
	for i := e.written; i < len(pending); i++ {
		v := &pending[i]
		server, err := e.postTarget(v)
		if err != nil || e.srvErr[server] != nil {
			continue
		}
		_, w, err := e.conn(server)
		if err != nil {
			e.srvErr[server] = err
			continue
		}
		if err := writeFrame(w, encodePosted(v)); err != nil {
			e.srvErr[server] = e.fail(server, err)
			continue
		}
		dirty = true
	}
	e.written = len(pending)
	if !dirty {
		return
	}
	for server, w := range e.wrs {
		if w == nil || e.srvErr[server] != nil || e.conns[server] == nil {
			continue
		}
		if err := w.Flush(); err != nil {
			e.srvErr[server] = e.fail(server, err)
		}
	}
}

// Poll implements rdma.AsyncEndpoint.
func (e *Endpoint) Poll(out []rdma.Completion) []rdma.Completion {
	pending := e.q.Pending()
	if len(pending) == 0 {
		return out
	}
	e.Flush()
	for i := range pending {
		v := &pending[i]
		c := rdma.Completion{Token: v.Tok}
		server, err := e.postTarget(v)
		if err != nil {
			c.Err = err
			out = append(out, c)
			continue
		}
		if e.srvErr[server] != nil {
			c.Err = e.srvErr[server]
			out = append(out, c)
			continue
		}
		body, err := e.readReply(server)
		if err != nil {
			c.Err = err
			out = append(out, c)
			continue
		}
		switch v.Op {
		case rdma.PostOpRead:
			if len(body) != 8*len(v.Dst) {
				c.Err = fmt.Errorf("tcpnet: short read response")
				break
			}
			for k := range v.Dst {
				v.Dst[k] = order.Uint64(body[8*k:])
			}
		case rdma.PostOpCAS, rdma.PostOpFetchAdd:
			if len(body) != 8 {
				c.Err = fmt.Errorf("tcpnet: bad atomic response")
				break
			}
			c.Val = order.Uint64(body)
		case rdma.PostOpCall:
			c.Resp = body
		}
		out = append(out, c)
	}
	e.q.Clear()
	e.written = 0
	for i := range e.srvErr {
		e.srvErr[i] = nil
	}
	return out
}

// readReply reads one in-order reply frame from a server's connection,
// converting a transport failure into a sticky per-server batch error.
func (e *Endpoint) readReply(server int) ([]byte, error) {
	r := e.rds[server]
	if r == nil || e.conns[server] == nil {
		err := fmt.Errorf("tcpnet: connection to server %d lost", server)
		e.srvErr[server] = err
		return nil, err
	}
	resp, err := readFrame(r)
	if err != nil {
		e.srvErr[server] = e.fail(server, err)
		return nil, e.srvErr[server]
	}
	if len(resp) < 1 {
		e.srvErr[server] = e.fail(server, fmt.Errorf("tcpnet: empty response"))
		return nil, e.srvErr[server]
	}
	if resp[0] != statusOK {
		return nil, verbError(server, resp)
	}
	return resp[1:], nil
}
