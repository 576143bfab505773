package server

import (
	"context"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// ruleServer answers every request with an empty response through ServeConn
// and keeps the accepted connections so a test can kill one while the
// dialing side holds it idle in its pool.
type ruleServer struct {
	l        net.Listener
	mu       sync.Mutex
	conns    []net.Conn
	requests atomic.Int64
}

func newRuleServer(t *testing.T) *ruleServer {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	rs := &ruleServer{l: l}
	go func() {
		for {
			conn, err := l.Accept()
			if err != nil {
				return
			}
			rs.mu.Lock()
			rs.conns = append(rs.conns, conn)
			rs.mu.Unlock()
			go func() {
				defer conn.Close()
				ServeConn(conn, 0, func(*Request) *Response {
					rs.requests.Add(1)
					return &Response{}
				})
			}()
		}
	}()
	t.Cleanup(func() { l.Close() })
	return rs
}

// killFirst closes the server side of the first accepted connection.
func (rs *ruleServer) killFirst(t *testing.T) {
	t.Helper()
	rs.mu.Lock()
	defer rs.mu.Unlock()
	if len(rs.conns) == 0 {
		t.Fatal("no connection accepted")
	}
	rs.conns[0].Close()
}

// refusedAddr returns an address nothing listens on.
func refusedAddr(t *testing.T) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	l.Close()
	return addr
}

// TestPoolConnectionRule pins the one connection rule every caller of the
// protocol shares: a pooled connection that died while idle is re-dialed
// exactly once for an idempotent op, never for a non-idempotent one (whose
// failure is reported as delivered), and a dial failure costs one dial and
// reports the request undelivered.
func TestPoolConnectionRule(t *testing.T) {
	cases := []struct {
		name          string
		op            Op
		stale         bool // pool one connection, then kill it server-side
		refused       bool // target an address that refuses connections
		wantErr       bool
		wantDelivered bool
		wantStats     PoolStats
		wantRequests  int64
	}{
		{name: "stale pooled idempotent re-dials once", op: OpPing, stale: true,
			wantDelivered: true, wantStats: PoolStats{Dials: 2, Reused: 1, Redials: 1}, wantRequests: 1},
		{name: "stale pooled factorize is not repeated", op: OpFactorize, stale: true,
			wantErr: true, wantDelivered: true, wantStats: PoolStats{Dials: 1, Reused: 1}},
		{name: "refused address dials once", op: OpPing, refused: true,
			wantErr: true, wantStats: PoolStats{Dials: 1}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			rs := newRuleServer(t)
			addr := rs.l.Addr().String()
			if tc.refused {
				addr = refusedAddr(t)
			}
			p := NewPool("tcp", time.Second, 4, 0)
			defer p.Close()
			if tc.stale {
				if err := p.Warm(ctx, addr); err != nil {
					t.Fatal(err)
				}
				rs.killFirst(t)
			}
			resp, delivered, err := p.Call(ctx, addr, &Request{Op: tc.op})
			if (err != nil) != tc.wantErr {
				t.Fatalf("err = %v, want error %v", err, tc.wantErr)
			}
			if err == nil && resp == nil {
				t.Fatal("nil response without an error")
			}
			if delivered != tc.wantDelivered {
				t.Errorf("delivered = %v, want %v", delivered, tc.wantDelivered)
			}
			if got := p.Stats(); got != tc.wantStats {
				t.Errorf("stats = %+v, want %+v", got, tc.wantStats)
			}
			if got := rs.requests.Load(); got != tc.wantRequests {
				t.Errorf("server handled %d requests, want %d", got, tc.wantRequests)
			}
		})
	}
}

// TestPoolConcurrentCalls drives one Pool from several goroutines: every
// exchange is served by exactly one connection, pooled or freshly dialed,
// and none needs a re-dial.
func TestPoolConcurrentCalls(t *testing.T) {
	rs := newRuleServer(t)
	p := NewPool("tcp", time.Second, 2, 0)
	defer p.Close()
	const workers, calls = 8, 25
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			for i := 0; i < calls; i++ {
				if _, _, err := p.Call(ctx, rs.l.Addr().String(), &Request{Op: OpSolve}); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	st := p.Stats()
	if st.Dials+st.Reused != workers*calls || st.Redials != 0 {
		t.Fatalf("stats %+v over %d calls", st, workers*calls)
	}
	if got := rs.requests.Load(); got != workers*calls {
		t.Fatalf("server handled %d requests, want %d", got, workers*calls)
	}
}
