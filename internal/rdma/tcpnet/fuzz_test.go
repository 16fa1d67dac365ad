package tcpnet

import (
	"errors"
	"testing"

	"github.com/namdb/rdmatree/internal/rdma"
)

// frame builds a verb frame from an opcode and little-endian fields of type
// uint64, uint32 or byte.
func frame(op byte, fields ...any) []byte {
	b := []byte{op}
	for _, f := range fields {
		switch v := f.(type) {
		case uint64:
			b = order.AppendUint64(b, v)
		case uint32:
			b = order.AppendUint32(b, v)
		case byte:
			b = append(b, v)
		}
	}
	return b
}

// FuzzAgentFrame ensures no frame off the wire panics the agent: each verb
// either succeeds with an OK status or fails its own request.
func FuzzAgentFrame(f *testing.F) {
	const region = 4096
	f.Add([]byte{})
	f.Add(frame(opRead, uint64(64), uint32(4)))
	f.Add(frame(opRead, uint64(region), uint32(1)))
	f.Add(frame(opRead, uint64(region-8), uint32(2)))
	f.Add(frame(opRead, ^uint64(7), uint32(1)))
	f.Add(frame(opWrite, uint64(128), uint64(1), uint64(2)))
	f.Add(frame(opWrite, uint64(1<<40), uint64(1)))
	f.Add(frame(opCAS, uint64(8), uint64(0), uint64(1)))
	f.Add(frame(opCAS, uint64(3), uint64(0), uint64(1)))
	f.Add(frame(opFetchAdd, uint64(16), uint64(1)))
	f.Add(frame(opFetchAdd, uint64(region), uint64(1)))
	f.Add(frame(opAlloc, uint32(64)))
	f.Add(frame(opAlloc, uint32(0)))
	f.Add(frame(opFree, uint64(2048), uint32(64)))
	f.Add(frame(opFree, ^uint64(7), uint32(16)))
	f.Add(frame(opReadMulti, uint32(2), uint64(0), uint32(1), uint64(region), uint32(1)))
	f.Add(frame(opCall, byte(1)))
	f.Add(frame(opCatalog))
	f.Fuzz(func(t *testing.T, b []byte) {
		a := NewAgent(rdma.NewServer(0, region, 64), nil)
		resp, err := a.handle(b)
		if err == nil && (len(resp) == 0 || resp[0] != statusOK) {
			t.Fatalf("frame %x: nil error with response %x", b, resp)
		}
	})
}

// TestOutOfRangeVerbsFailWithRemoteAccess checks that verbs addressing
// memory outside the region fail with a non-transient rdma.ErrRemoteAccess
// while the agent and the connection keep serving.
func TestOutOfRangeVerbsFailWithRemoteAccess(t *testing.T) {
	addrs, _ := startCluster(t, 1, nil)
	ep := Dial(addrs)
	defer ep.Close()
	const beyond = 16 << 20
	bad := rdma.MakePtr(0, beyond)
	dst := make([]uint64, 2)
	for name, verb := range map[string]func() error{
		"read":      func() error { return ep.Read(bad, dst) },
		"straddle":  func() error { return ep.Read(rdma.MakePtr(0, beyond-8), dst) },
		"write":     func() error { return ep.Write(bad, dst) },
		"readmulti": func() error { return ep.ReadMulti([]rdma.RemotePtr{rdma.MakePtr(0, 64), bad}, [][]uint64{dst, dst}) },
		"cas":       func() error { _, err := ep.CompareAndSwap(bad, 0, 1); return err },
		"faa":       func() error { _, err := ep.FetchAdd(rdma.MakePtr(0, 12), 1); return err },
		"free":      func() error { return ep.Free(rdma.MakePtr(0, beyond-64), 64) },
	} {
		err := verb()
		if !errors.Is(err, rdma.ErrRemoteAccess) || rdma.IsTransient(err) {
			t.Errorf("%s: err = %v; want non-transient rdma.ErrRemoteAccess", name, err)
		}
	}
	ep.PostRead(bad, dst)
	tok := ep.PostWrite(rdma.MakePtr(0, 64), []uint64{5, 6})
	for _, c := range ep.Poll(nil) {
		if c.Token == tok && c.Err != nil {
			t.Errorf("posted write after a rejected read: %v", c.Err)
		}
		if c.Token != tok && !errors.Is(c.Err, rdma.ErrRemoteAccess) {
			t.Errorf("posted out-of-range read: err = %v; want rdma.ErrRemoteAccess", c.Err)
		}
	}
	if err := ep.Read(rdma.MakePtr(0, 64), dst); err != nil || dst[0] != 5 || dst[1] != 6 {
		t.Fatalf("read after rejected verbs = %v, %v; want [5 6], nil", dst, err)
	}
}
