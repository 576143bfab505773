package server

import (
	"strings"
	"testing"

	"sstar"
)

// newTestServer returns a server without listeners; requests go straight
// through submit (the worker pool still runs, so queue stats are real).
func newTestServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	s := New(cfg)
	t.Cleanup(func() { s.Close() })
	return s
}

func TestRequestLifecycle(t *testing.T) {
	s := newTestServer(t, Config{Workers: 2})
	a := sstar.GenGrid2D(8, 8, false, sstar.GenOptions{Seed: 5, Convection: 0.2})

	resp := s.submit(&Request{Op: OpFactorize, Matrix: a, Opts: sstar.DefaultOptions()})
	if resp.Err != "" {
		t.Fatal(resp.Err)
	}
	if resp.Handle == 0 || resp.N != a.N || resp.Nnz != a.Nnz() {
		t.Fatalf("factorize response %+v", resp)
	}
	if resp.Stats.CacheHit {
		t.Fatal("first factorize reported a cache hit")
	}
	h := resp.Handle

	// Second factorize of the same structure hits the cache.
	resp2 := s.submit(&Request{Op: OpFactorize, Matrix: a, Opts: sstar.DefaultOptions()})
	if resp2.Err != "" || !resp2.Stats.CacheHit {
		t.Fatalf("second factorize: err=%q hit=%v", resp2.Err, resp2.Stats.CacheHit)
	}

	b := make([]float64, a.N)
	for i := range b {
		b[i] = float64(i%7) - 3
	}
	solve := s.submit(&Request{Op: OpSolve, Handle: h, B: b})
	if solve.Err != "" {
		t.Fatal(solve.Err)
	}
	if r := sstar.Residual(a, solve.X, b); r > 1e-9 {
		t.Fatalf("residual %g", r)
	}

	// Values-only refactorize, then solve reflects the new values.
	vals := append([]float64(nil), a.Val...)
	for i := range vals {
		vals[i] *= 2
	}
	refac := s.submit(&Request{Op: OpRefactorize, Handle: h, Values: vals})
	if refac.Err != "" {
		t.Fatal(refac.Err)
	}
	a2 := a.Clone()
	copy(a2.Val, vals)
	solve2 := s.submit(&Request{Op: OpSolve, Handle: h, B: b})
	if solve2.Err != "" {
		t.Fatal(solve2.Err)
	}
	if r := sstar.Residual(a2, solve2.X, b); r > 1e-9 {
		t.Fatalf("post-refactorize residual %g", r)
	}

	if free := s.submit(&Request{Op: OpFree, Handle: h}); free.Err != "" {
		t.Fatal(free.Err)
	}
	if again := s.submit(&Request{Op: OpFree, Handle: h}); again.Err == "" {
		t.Fatal("double free succeeded")
	}

	st := s.Stats()
	if st.CacheHits < 1 || st.CacheMisses < 1 || st.Requests < 6 {
		t.Fatalf("stats %+v", st)
	}
	if st.HitRate() <= 0 || st.HitRate() > 1 {
		t.Fatalf("hit rate %g", st.HitRate())
	}
}

// TestBadInputNeverKillsServer feeds every malformed request shape through
// the pool and requires an in-band error each time — then proves the server
// still serves good requests.
func TestBadInputNeverKillsServer(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1})
	a := sstar.GenGrid2D(6, 6, false, sstar.GenOptions{Seed: 2})
	good := s.submit(&Request{Op: OpFactorize, Matrix: a, Opts: sstar.DefaultOptions()})
	if good.Err != "" {
		t.Fatal(good.Err)
	}
	h := good.Handle

	// A structurally singular matrix: row 1 is empty.
	sing := &sstar.Matrix{N: 2, M: 2, RowPtr: []int{0, 2, 2}, ColInd: []int{0, 1}, Val: []float64{1, 1}}

	bad := []struct {
		name string
		req  *Request
		want string
	}{
		{"factorize nil matrix", &Request{Op: OpFactorize}, "needs a matrix"},
		{"factorize singular", &Request{Op: OpFactorize, Matrix: sing, Opts: sstar.DefaultOptions()}, "singular"},
		{"solve unknown handle", &Request{Op: OpSolve, Handle: 999, B: make([]float64, 36)}, "unknown handle"},
		{"solve nil rhs", &Request{Op: OpSolve, Handle: h}, "rhs length"},
		{"solve short rhs", &Request{Op: OpSolve, Handle: h, B: make([]float64, 3)}, "rhs length"},
		// 36 * 2^62 wraps around to 0 = len(nil).
		{"solve-many wrapping nrhs", &Request{Op: OpSolveMany, Handle: h, NRHS: 1 << 62}, "rhs length"},
		{"refactorize unknown handle", &Request{Op: OpRefactorize, Handle: 999, Values: nil}, "unknown handle"},
		{"refactorize short values", &Request{Op: OpRefactorize, Handle: h, Values: make([]float64, 3)}, "values length"},
		{"refactorize wrong pattern", &Request{Op: OpRefactorize, Handle: h, Matrix: sstar.GenGrid2D(6, 6, true, sstar.GenOptions{Seed: 2})}, "pattern mismatch"},
		{"unknown op", &Request{Op: Op(99)}, "unknown op"},
	}
	for _, tc := range bad {
		resp := s.submit(tc.req)
		if resp.Err == "" {
			t.Fatalf("%s: accepted", tc.name)
		}
		if !strings.Contains(resp.Err, tc.want) {
			t.Fatalf("%s: error %q does not mention %q", tc.name, resp.Err, tc.want)
		}
	}

	// Still alive and correct.
	if resp := s.submit(&Request{Op: OpPing}); resp.Err != "" {
		t.Fatal("ping after bad inputs failed")
	}
	b := make([]float64, a.N)
	b[0] = 1
	solve := s.submit(&Request{Op: OpSolve, Handle: h, B: b})
	if solve.Err != "" {
		t.Fatal(solve.Err)
	}
	if r := sstar.Residual(a, solve.X, b); r > 1e-9 {
		t.Fatalf("residual %g", r)
	}
	st := s.Stats()
	if st.Errors != int64(len(bad)) {
		t.Fatalf("error counter %d, want %d", st.Errors, len(bad))
	}
}

func TestProcessRecoversPanic(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1})
	// A matrix that lies about its own shape panics deep inside the
	// pipeline (RowPtr too short for N); the worker must turn that into an
	// error response.
	evil := &sstar.Matrix{N: 8, M: 8, RowPtr: []int{0, 1}, ColInd: []int{0}, Val: []float64{1}}
	resp := s.submit(&Request{Op: OpFactorize, Matrix: evil, Opts: sstar.DefaultOptions()})
	if resp.Err == "" {
		t.Fatal("malformed matrix accepted")
	}
	if resp := s.submit(&Request{Op: OpPing}); resp.Err != "" {
		t.Fatal("server dead after panic recovery")
	}
}
