package server

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"sstar/internal/wire"
)

// This file is the whole connection layer of the protocol: the dialing side
// (Pool, used by the client, the cluster router and shard-to-shard RPC) and
// the accepting side (ServeConn, used by the server and the router). The
// Hello handshake, connection pooling, deadline propagation and the one
// re-dial rule live here and nowhere else.

// helloLimit caps a Hello frame: it carries a magic string and a version.
const helloLimit = 1 << 16

// Pool is a per-address pool of handshaked connections. One Call is one
// framed request/response exchange; a connection that failed or whose
// context was cancelled mid-exchange is closed, never pooled. Safe for
// concurrent use.
type Pool struct {
	network     string
	dialTimeout time.Duration
	maxIdle     int
	maxFrame    int

	mu     sync.Mutex
	idle   map[string][]net.Conn
	closed bool

	dials, reused, redials atomic.Int64
}

// PoolStats counts a Pool's connection churn.
type PoolStats struct {
	Dials   int64 // fresh connections dialed and handshaked
	Reused  int64 // exchanges served by a pooled connection
	Redials int64 // failed pooled connections replaced by one fresh dial
}

// NewPool returns a pool dialing network ("tcp" when empty). dialTimeout
// bounds each dial plus handshake (5s when <= 0), maxIdle caps the idle
// connections kept per address, and maxFrame caps a response frame
// (wire.DefaultMaxPayload when <= 0).
func NewPool(network string, dialTimeout time.Duration, maxIdle, maxFrame int) *Pool {
	if network == "" {
		network = "tcp"
	}
	if dialTimeout <= 0 {
		dialTimeout = 5 * time.Second
	}
	if maxFrame <= 0 {
		maxFrame = wire.DefaultMaxPayload
	}
	return &Pool{
		network:     network,
		dialTimeout: dialTimeout,
		maxIdle:     maxIdle,
		maxFrame:    maxFrame,
		idle:        make(map[string][]net.Conn),
	}
}

// Stats returns a snapshot of the pool's counters.
func (p *Pool) Stats() PoolStats {
	return PoolStats{Dials: p.dials.Load(), Reused: p.reused.Load(), Redials: p.redials.Load()}
}

// Warm dials and handshakes one connection to addr and pools it, so a wrong
// address or an incompatible peer fails here rather than on the first call.
func (p *Pool) Warm(ctx context.Context, addr string) error {
	conn, err := p.dial(ctx, addr)
	if err != nil {
		return err
	}
	p.put(addr, conn)
	return nil
}

// Call runs one exchange with addr under ctx: the context's deadline bounds
// both frames and travels to the peer as req.TimeoutNs, and cancelling ctx
// unblocks a stalled exchange at once.
//
// err reports transport and context failures only; an in-band failure is a
// non-nil resp with resp.Err set. delivered is false only when the request
// certainly never left this process (the context was already done, or the
// dial or handshake failed), which is what makes re-sending a
// non-idempotent op elsewhere safe.
//
// A pooled connection may have died while idle (peer restart, middlebox
// timeout). When one fails an idempotent op, Call re-dials once and repeats
// the exchange on the fresh connection. A non-idempotent op is not repeated:
// the dead connection leaves it unknown whether the peer executed it.
func (p *Pool) Call(ctx context.Context, addr string, req *Request) (resp *Response, delivered bool, err error) {
	resp, delivered, pooled, err := p.exchange(ctx, addr, req, true)
	if err != nil && pooled && req.Op.Idempotent() && ctxErr(ctx) == nil {
		// delivered stays true: the failed attempt may have reached the peer.
		p.redials.Add(1)
		resp, _, _, err = p.exchange(ctx, addr, req, false)
	}
	return resp, delivered, err
}

// exchange is one attempt: take a pooled connection (usePool) or dial a
// fresh one, then write req and read the response. pooled reports that the
// connection came from the idle pool.
func (p *Pool) exchange(ctx context.Context, addr string, req *Request, usePool bool) (_ *Response, delivered, pooled bool, err error) {
	if err := ctxErr(ctx); err != nil {
		return nil, false, false, fmt.Errorf("rpc: %w", err)
	}
	var conn net.Conn
	if usePool {
		conn, pooled, err = p.get(ctx, addr)
	} else {
		conn, err = p.dial(ctx, addr)
	}
	if err != nil {
		return nil, false, pooled, err
	}
	// Deadline header: the peer sheds the request instead of running it when
	// its queue wait alone would exhaust the remaining budget.
	req.TimeoutNs = 0
	if d, ok := ctx.Deadline(); ok {
		req.TimeoutNs = max(time.Until(d).Nanoseconds(), 1)
	}
	stop := watch(ctx, conn)
	// failed prefers the context's error over the transport error it caused.
	failed := func(op string, err error) (*Response, bool, bool, error) {
		stop()
		conn.Close()
		if cerr := ctxErr(ctx); cerr != nil {
			err = cerr
		}
		return nil, true, pooled, fmt.Errorf("rpc: %s %s: %w", op, addr, err)
	}
	if err := WriteRequest(conn, req); err != nil {
		// Kernel buffering makes a partial write's delivery unknowable.
		return failed("send to", err)
	}
	resp, err := ReadResponse(conn, p.maxFrame)
	if err != nil {
		return failed("receive from", err)
	}
	if stop() {
		conn.SetDeadline(time.Time{})
		p.put(addr, conn)
	} else {
		// The cancel fired after the response landed: the answer is valid,
		// but the cancel may be poisoning the deadline concurrently, so the
		// connection cannot be trusted to the pool.
		conn.Close()
	}
	return resp, true, pooled, nil
}

// ctxErr is ctx.Err(), except that a deadline already passed counts as
// context.DeadlineExceeded before the context's own timer has fired: the
// connection deadline copied from it can trip first.
func ctxErr(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if d, ok := ctx.Deadline(); ok && !time.Now().Before(d) {
		return context.DeadlineExceeded
	}
	return nil
}

// watch applies ctx's deadline to conn and, until the returned stop is
// called, moves the deadline into the past when ctx is cancelled, so a
// blocked Read or Write returns at once. stop reports whether conn is still
// clean (the cancel never fired).
func watch(ctx context.Context, conn net.Conn) (stop func() bool) {
	if ctx.Done() == nil {
		return func() bool { return true }
	}
	if d, ok := ctx.Deadline(); ok {
		conn.SetDeadline(d)
	}
	return context.AfterFunc(ctx, func() { conn.SetDeadline(time.Unix(1, 0)) })
}

// get pops an idle connection to addr or dials a new one.
func (p *Pool) get(ctx context.Context, addr string) (conn net.Conn, pooled bool, err error) {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil, false, fmt.Errorf("rpc: pool closed")
	}
	if conns := p.idle[addr]; len(conns) > 0 {
		conn = conns[len(conns)-1]
		p.idle[addr] = conns[:len(conns)-1]
		p.mu.Unlock()
		p.reused.Add(1)
		return conn, true, nil
	}
	p.mu.Unlock()
	conn, err = p.dial(ctx, addr)
	return conn, false, err
}

// put returns a healthy connection to addr's idle list, or closes it when
// the list is full or the pool is closed.
func (p *Pool) put(addr string, conn net.Conn) {
	p.mu.Lock()
	if !p.closed && len(p.idle[addr]) < p.maxIdle {
		p.idle[addr] = append(p.idle[addr], conn)
		p.mu.Unlock()
		return
	}
	p.mu.Unlock()
	conn.Close()
}

// dial opens a connection to addr and runs the Hello exchange, bounded by
// the dial timeout and by ctx.
func (p *Pool) dial(ctx context.Context, addr string) (net.Conn, error) {
	p.dials.Add(1)
	ctx, cancel := context.WithTimeout(ctx, p.dialTimeout)
	defer cancel()
	conn, err := (&net.Dialer{}).DialContext(ctx, p.network, addr)
	if err != nil {
		return nil, fmt.Errorf("rpc: dial %s %s: %w", p.network, addr, err)
	}
	stop := watch(ctx, conn)
	err = handshake(conn)
	if !stop() && err == nil {
		err = ctx.Err()
	}
	if err != nil {
		conn.Close()
		return nil, fmt.Errorf("rpc: handshake %s: %w", addr, err)
	}
	conn.SetDeadline(time.Time{})
	return conn, nil
}

// handshake is the dialing side of the Hello exchange.
func handshake(conn net.Conn) error {
	if err := writeHello(conn); err != nil {
		return err
	}
	hello, err := readHello(conn)
	if err != nil {
		return err
	}
	if hello.Magic != ProtoMagic || hello.Version != ProtoVersion {
		return fmt.Errorf("peer speaks %q v%d, want %q v%d", hello.Magic, hello.Version, ProtoMagic, ProtoVersion)
	}
	return nil
}

// Close closes every idle connection; later Calls fail. Connections checked
// out by in-flight Calls are closed when they come back.
func (p *Pool) Close() {
	p.mu.Lock()
	idle := p.idle
	p.idle = make(map[string][]net.Conn)
	p.closed = true
	p.mu.Unlock()
	for _, conns := range idle {
		for _, c := range conns {
			c.Close()
		}
	}
}

// ServeConn is the accepting side of the protocol on one connection: the
// Hello exchange, then one handle call and one response frame per request
// frame, in order, until the peer hangs up, a frame is corrupt or exceeds
// maxFrame, or handle returns nil (which drops the connection). A peer
// speaking another protocol gets an in-band refusal. The returned error
// reports a failed handshake or a response the codec refused to encode; the
// end of the request loop is not an error. ServeConn does not close conn.
func ServeConn(conn net.Conn, maxFrame int, handle func(*Request) *Response) error {
	hello, err := readHello(conn)
	if err != nil {
		return fmt.Errorf("hello: %w", err)
	}
	if hello.Magic != ProtoMagic || hello.Version != ProtoVersion {
		err := fmt.Errorf("unsupported protocol %q v%d", hello.Magic, hello.Version)
		// Best effort: the connection is dropped whether or not this lands.
		_ = WriteResponse(conn, nil, &Response{Err: "server: " + err.Error()})
		return err
	}
	if err := writeHello(conn); err != nil {
		return fmt.Errorf("hello: %w", err)
	}
	for {
		req, err := ReadRequest(conn, maxFrame)
		if err != nil {
			return nil // io.EOF here is the clean "peer hung up" path
		}
		resp := handle(req)
		if resp == nil {
			return nil
		}
		if err := WriteResponse(conn, req, resp); err != nil {
			if errors.Is(err, errLayout) {
				return err
			}
			return nil
		}
	}
}
