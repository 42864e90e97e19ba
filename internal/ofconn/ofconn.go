// Package ofconn provides OpenFlow connection plumbing over a byte
// stream: message framing (reading exactly one length-prefixed message
// at a time), concurrent-safe writing, transaction-id allocation, and
// the version/features handshake both ends of the control channel run.
//
// The control channel is a TCP connection per switch; TCP preserves
// ordering per switch, so the asynchrony the paper battles is across
// switches (different RTTs, queueing, install latencies) — which is
// exactly what the simulator injects (see internal/netem and
// internal/switchsim).
package ofconn

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"tsu/internal/openflow"
)

// Conn frames OpenFlow messages over a net.Conn. Reads must come from a
// single goroutine; writes may come from many.
type Conn struct {
	nc net.Conn
	br *bufio.Reader

	writeMu sync.Mutex
	xid     atomic.Uint32

	closeOnce sync.Once
	closeErr  error
}

// New wraps a network connection. The default 4 KiB read buffer holds
// a coalesced batch of control messages; it is allocated per
// connection, twice per switch, so a fleet pays for its size many
// times over.
func New(nc net.Conn) *Conn {
	return &Conn{nc: nc, br: bufio.NewReader(nc)}
}

// NextXid allocates a fresh non-zero transaction id.
func (c *Conn) NextXid() uint32 {
	for {
		if x := c.xid.Add(1); x != 0 {
			return x
		}
	}
}

// ReadMessage reads and decodes exactly one message.
func (c *Conn) ReadMessage() (openflow.Message, error) {
	var hdr [openflow.HeaderLen]byte
	if _, err := io.ReadFull(c.br, hdr[:]); err != nil {
		return nil, err
	}
	h, err := openflow.ParseHeader(hdr[:])
	if err != nil {
		return nil, err
	}
	buf := make([]byte, h.Length)
	copy(buf, hdr[:])
	if _, err := io.ReadFull(c.br, buf[openflow.HeaderLen:]); err != nil {
		return nil, fmt.Errorf("ofconn: reading %s body: %w", h.Type, err)
	}
	return openflow.Decode(buf)
}

// wirePool recycles encode buffers across connections: the live
// deployment path encodes every outgoing message into a pooled buffer
// via openflow.AppendTo, so steady-state writes do not allocate per
// message.
var wirePool = sync.Pool{
	New: func() any {
		b := make([]byte, 0, 256)
		return &b
	},
}

// WriteMessage encodes and writes one message. It is safe for
// concurrent use; each message is written atomically. Encoding runs
// through a pooled buffer (see openflow.AppendTo): no per-message
// allocation in steady state.
func (c *Conn) WriteMessage(m openflow.Message) error {
	bp := wirePool.Get().(*[]byte)
	wire, err := openflow.AppendTo((*bp)[:0], m)
	if err != nil {
		wirePool.Put(bp)
		return err
	}
	c.writeMu.Lock()
	_, err = c.nc.Write(wire)
	c.writeMu.Unlock()
	*bp = wire[:0] // keep any growth for the next message
	wirePool.Put(bp)
	return err
}

// Batch accumulates the wire encodings of several messages for one
// coalesced write. The zero value is ready to use; a Batch retained
// across flushes keeps its grown buffer, so steady-state batched
// writes do not allocate. A Batch is not safe for concurrent use —
// the dispatcher owns one per connection per shard.
type Batch struct {
	buf []byte
	n   int
}

// Reset empties the batch, keeping the buffer.
func (b *Batch) Reset() { b.buf, b.n = b.buf[:0], 0 }

// Len returns the number of messages accumulated.
func (b *Batch) Len() int { return b.n }

// Bytes returns the accumulated wire size.
func (b *Batch) Bytes() int { return len(b.buf) }

// BatchMark is a snapshot of a Batch's fill state, taken with Mark
// and restored with Truncate.
type BatchMark struct{ off, n int }

// Mark snapshots the batch state; Truncate(m) discards everything
// added after the snapshot — the idiom for dropping one logical group
// (a node's FlowMods plus barrier) whose encoding failed partway.
func (b *Batch) Mark() BatchMark { return BatchMark{len(b.buf), b.n} }

// Truncate rewinds the batch to a Mark snapshot.
func (b *Batch) Truncate(m BatchMark) { b.buf, b.n = b.buf[:m.off], m.n }

// Add appends one message's encoding to the batch. The message is
// encoded immediately, so the caller may reuse it (e.g. re-stamping a
// shared BarrierRequest's xid between Adds). On error the batch is
// unchanged.
func (b *Batch) Add(m openflow.Message) error {
	wire, err := openflow.AppendTo(b.buf, m)
	if err != nil {
		return err
	}
	b.buf = wire
	b.n++
	return nil
}

// WriteBatch writes every message accumulated in b as a single
// buffered write — one syscall (and one TCP segment train) for the
// whole group instead of one per message — then resets b. Writing an
// empty batch is a no-op. Safe for concurrent use with WriteMessage;
// the batch is written atomically with respect to other writers.
func (c *Conn) WriteBatch(b *Batch) error {
	if b.n == 0 {
		return nil
	}
	c.writeMu.Lock()
	_, err := c.nc.Write(b.buf)
	c.writeMu.Unlock()
	b.Reset()
	return err
}

// Send allocates a transaction id for m, writes it, and returns the id.
func (c *Conn) Send(m openflow.Message) (uint32, error) {
	m.SetXid(c.NextXid())
	if err := c.WriteMessage(m); err != nil {
		return 0, err
	}
	return m.Xid(), nil
}

// SetReadDeadline bounds the next ReadMessage.
func (c *Conn) SetReadDeadline(t time.Time) error { return c.nc.SetReadDeadline(t) }

// RemoteAddr returns the peer address.
func (c *Conn) RemoteAddr() net.Addr { return c.nc.RemoteAddr() }

// Close closes the underlying connection once.
func (c *Conn) Close() error {
	c.closeOnce.Do(func() { c.closeErr = c.nc.Close() })
	return c.closeErr
}

// handshakeTimeout bounds each handshake step.
const handshakeTimeout = 10 * time.Second

// HandshakeController runs the controller side of the OpenFlow
// handshake: exchange HELLO, then request features; returns the
// switch's features reply (datapath id and ports).
func HandshakeController(c *Conn) (*openflow.FeaturesReply, error) {
	if _, err := c.Send(&openflow.Hello{}); err != nil {
		return nil, fmt.Errorf("ofconn: sending hello: %w", err)
	}
	if err := c.SetReadDeadline(time.Now().Add(handshakeTimeout)); err != nil {
		return nil, err
	}
	defer c.SetReadDeadline(time.Time{}) //nolint:errcheck // best-effort reset
	m, err := c.ReadMessage()
	if err != nil {
		return nil, fmt.Errorf("ofconn: awaiting hello: %w", err)
	}
	if _, ok := m.(*openflow.Hello); !ok {
		return nil, fmt.Errorf("ofconn: expected HELLO, got %s", m.MsgType())
	}
	reqXid, err := c.Send(&openflow.FeaturesRequest{})
	if err != nil {
		return nil, fmt.Errorf("ofconn: sending features request: %w", err)
	}
	for {
		m, err := c.ReadMessage()
		if err != nil {
			return nil, fmt.Errorf("ofconn: awaiting features reply: %w", err)
		}
		switch fr := m.(type) {
		case *openflow.FeaturesReply:
			if fr.Xid() != reqXid {
				return nil, fmt.Errorf("ofconn: features reply xid %d, want %d", fr.Xid(), reqXid)
			}
			return fr, nil
		case *openflow.EchoRequest:
			reply := &openflow.EchoReply{Data: fr.Data}
			reply.SetXid(fr.Xid())
			if err := c.WriteMessage(reply); err != nil {
				return nil, err
			}
		case *openflow.Error:
			return nil, fmt.Errorf("ofconn: switch reported %w during handshake", fr)
		default:
			return nil, fmt.Errorf("ofconn: unexpected %s during handshake", m.MsgType())
		}
	}
}

// HandshakeSwitch runs the switch side: exchange HELLO, answer the
// features request with the given reply body.
func HandshakeSwitch(c *Conn, features *openflow.FeaturesReply) error {
	if _, err := c.Send(&openflow.Hello{}); err != nil {
		return fmt.Errorf("ofconn: sending hello: %w", err)
	}
	if err := c.SetReadDeadline(time.Now().Add(handshakeTimeout)); err != nil {
		return err
	}
	defer c.SetReadDeadline(time.Time{}) //nolint:errcheck // best-effort reset
	m, err := c.ReadMessage()
	if err != nil {
		return fmt.Errorf("ofconn: awaiting hello: %w", err)
	}
	if _, ok := m.(*openflow.Hello); !ok {
		return fmt.Errorf("ofconn: expected HELLO, got %s", m.MsgType())
	}
	m, err = c.ReadMessage()
	if err != nil {
		return fmt.Errorf("ofconn: awaiting features request: %w", err)
	}
	req, ok := m.(*openflow.FeaturesRequest)
	if !ok {
		return fmt.Errorf("ofconn: expected FEATURES_REQUEST, got %s", m.MsgType())
	}
	features.SetXid(req.Xid())
	return c.WriteMessage(features)
}

// FormatDpid formats a datapath id the way OpenFlow tooling prints it
// (16 hex digits), for logs and REST payloads.
func FormatDpid(dpid uint64) string {
	const hexdigits = "0123456789abcdef"
	var b [16]byte
	for i := 15; i >= 0; i-- {
		b[i] = hexdigits[dpid&0xf]
		dpid >>= 4
	}
	return string(b[:])
}
