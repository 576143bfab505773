package main

import (
	"math"
	"sort"
	"time"

	"sstar/client"
)

// op is one kind of timed operation. Every workload runs all four, so every
// run reports every end-to-end metric.
type op int

const (
	opSolve    op = iota // one right-hand side
	opSolve32            // 32 right-hand sides through SolveMany
	opRefactor           // values-only refactorization on a live pattern
	opFactor             // a matrix in, a usable factorization or handle out
	numOps
)

var opNames = [numOps]string{"solve", "solve32", "refactor", "factor"}

func (o op) String() string { return opNames[o] }

// metricSpec is one metric as BENCHMARK.json records it.
type metricSpec struct {
	Name, Unit, Better string
}

// endToEnd lists the metrics an untraced run reports. failed_ratio is not
// among them: it reads 0 on a healthy program, so it travels as the result's
// own attempted/failed counts and in the report lines instead.
var endToEnd = []metricSpec{
	{"setup_s", "s", "lower"},
	{"ops_per_s", "1/s", "higher"},
	{"solve_p50_ms", "ms", "lower"},
	{"solve_tail_ms", "ms", "lower"},
	{"solve32_p50_ms", "ms", "lower"},
	{"refactor_p50_ms", "ms", "lower"},
	{"refactor_tail_ms", "ms", "lower"},
	{"factor_p50_ms", "ms", "lower"},
	{"factor_tail_ms", "ms", "lower"},
	{"heap_mb", "MB", "lower"},
}

// layerSpec is one per-layer metric of the traced run with its prediction:
// the end-to-end metric and workload a change to that layer should move, and
// the workload where the same change should leave the end-to-end numbers
// alone. Later performance claims cite these by name.
type layerSpec struct {
	metricSpec
	Moves, Still string
}

func layer(name, unit, better, moves, still string) layerSpec {
	return layerSpec{metricSpec{name, unit, better}, moves, still}
}

// perOp expands one per-operation metric family into its four members.
func perOp(prefix, unit, better, moves, still string, suffixes ...string) []layerSpec {
	if len(suffixes) == 0 {
		suffixes = []string{""}
	}
	var out []layerSpec
	for _, o := range opNames {
		for _, s := range suffixes {
			out = append(out, layer(prefix+"."+o+s, unit, better, moves, still))
		}
	}
	return out
}

const (
	onLoopRefactor = "refactor_p50_ms, refactor_tail_ms on refactor-loop"
	onLoopSolve    = "solve_p50_ms, solve32_p50_ms on refactor-loop"
	onCold         = "factor_p50_ms, factor_tail_ms on cold-structures; setup_s on refactor-loop"
	onServe        = "solve_p50_ms, ops_per_s on serve-mixed and cluster-mixed"
	onServeTail    = "solve_tail_ms on serve-mixed"
	onCluster      = "refactor_p50_ms, ops_per_s on cluster-mixed"
)

// perLayer lists the metrics a traced run reports. A layer a workload does
// not reach reports 0: no calls into it, no time spent in it.
var perLayer = concat(
	[]layerSpec{
		layer("xblas.flops_per_refactor", "flop", "lower", onLoopRefactor, "serve-mixed"),
		layer("xblas.flops_per_byte", "flop/B", "higher", onLoopRefactor, "serve-mixed"),
		layer("xblas.gemm_peak_gflops", "GFLOP/s", "higher", onLoopRefactor, "serve-mixed"),
		layer("xblas.refactor_gflops", "GFLOP/s", "higher", onLoopRefactor, "serve-mixed"),
		layer("xblas.peak_fraction", "ratio", "higher", onLoopRefactor, "serve-mixed"),
		layer("core.update_ms", "ms", "lower", onLoopRefactor, "serve-mixed"),
		layer("core.panel_ms", "ms", "lower", onLoopRefactor, "serve-mixed"),
		layer("core.tasks", "count", "lower", onLoopRefactor, "serve-mixed"),
		layer("core.untasked_ms", "ms", "lower", onLoopRefactor, "serve-mixed"),
		layer("core.parhost_speedup", "ratio", "higher", onLoopRefactor, "serve-mixed"),
		layer("core.solve_ms", "ms", "lower", onLoopSolve, "serve-mixed (at most ~15%)"),
		layer("core.solve32_ms", "ms", "lower", onLoopSolve, "serve-mixed (at most ~15%)"),
		layer("core.solve32_per_col_ratio", "ratio", "lower", onLoopSolve, "serve-mixed (at most ~15%)"),
		layer("core.fill", "count", "lower", onCold, "serve-mixed"),
		layer("ordering.ms", "ms", "lower", onCold, "serve-mixed"),
		layer("symbolic.ms", "ms", "lower", onCold, "serve-mixed"),
		layer("supernode.detect_ms", "ms", "lower", onCold, "serve-mixed"),
		layer("supernode.choose_ms", "ms", "lower", onCold, "serve-mixed"),
		layer("supernode.build_ms", "ms", "lower", onCold, "serve-mixed"),
		layer("analysis.share_of_factor", "ratio", "lower", onCold, "serve-mixed"),
		layer("symbolic.parallel_speedup", "ratio", "higher", onCold, "serve-mixed"),
		layer("symbolic.static_fill", "count", "lower", onCold, "serve-mixed"),
		layer("supernode.blocks", "count", "lower", onCold, "serve-mixed"),
	},
	perOp("wire.bytes", "B", "lower", onServe, "refactor-loop", ".req", ".resp"),
	perOp("wire.encode_us", "us", "lower", onServe, "refactor-loop", ".req", ".resp"),
	perOp("wire.decode_us", "us", "lower", onServe, "refactor-loop", ".req", ".resp"),
	perOp("client.rtt_ms", "ms", "lower", onServe, "refactor-loop"),
	perOp("client.unaccounted_share", "ratio", "lower", onServe, "refactor-loop"),
	[]layerSpec{
		layer("client.dials", "count", "lower", onServe, "refactor-loop"),
		layer("client.reused", "count", "higher", onServe, "refactor-loop"),
		layer("client.retries", "count", "lower", onServe, "refactor-loop"),
		layer("client.redirects", "count", "lower", onServe, "refactor-loop"),
	},
	perOp("server.queue_ms", "ms", "lower", onServeTail, "refactor-loop"),
	perOp("server.compute_ms", "ms", "lower", onServeTail, "refactor-loop"),
	[]layerSpec{
		layer("server.batch_width", "count", "higher", onServeTail, "refactor-loop"),
		layer("server.cache_hit_ratio", "ratio", "higher", onServeTail, "refactor-loop"),
		layer("server.sheds", "count", "lower", onServeTail, "refactor-loop"),
		layer("server.handle_bytes", "B", "lower", onServeTail, "refactor-loop"),
		layer("cluster.router_requests", "count", "lower", onCluster, "serve-mixed"),
		layer("cluster.scatters", "count", "lower", onCluster, "serve-mixed"),
		layer("cluster.redirects", "count", "lower", onCluster, "serve-mixed"),
		layer("cluster.failovers", "count", "lower", onCluster, "serve-mixed"),
		layer("cluster.replications_per_write", "ratio", "lower", onCluster, "serve-mixed"),
		layer("cluster.repair_pushes", "count", "lower", onCluster, "serve-mixed"),
	},
	perOp("trace.overhead_ms", "ms", "lower", "nothing (it is the cost of tracing itself)", "every workload"),
)

func layerSpecs() []metricSpec {
	out := make([]metricSpec, len(perLayer))
	for i, s := range perLayer {
		out[i] = s.metricSpec
	}
	return out
}

func concat(parts ...[]layerSpec) []layerSpec {
	var out []layerSpec
	for _, p := range parts {
		out = append(out, p...)
	}
	return out
}

// tally is what one closed-loop client saw during one measuring phase.
type tally struct {
	lat       [numOps][]float64 // ms, successful operations only
	attempted int
	failed    int
	busy      time.Duration // time spent inside timed operations, summed over clients
	clients   int           // closed-loop clients the busy time is summed over

	// Service workloads: the server-reported split of each successful
	// operation (queue wait, compute) against the client round trip.
	rttNs, queueNs, computeNs [numOps]int64
	batchWidth, batches       int64
	client                    client.Metrics     // deltas of the pool counters the metrics use
	counters                  map[string]float64 // service counter deltas (fleet.counters)
}

// done records one finished operation; ok is false when the call failed or
// its answer failed a check.
func (t *tally) done(o op, d time.Duration, ok bool) {
	t.attempted++
	t.busy += d
	if !ok {
		t.failed++
		return
	}
	t.lat[o] = append(t.lat[o], float64(d.Nanoseconds())/1e6)
}

func (t *tally) merge(u *tally) {
	for o := range t.lat {
		t.lat[o] = append(t.lat[o], u.lat[o]...)
		t.rttNs[o] += u.rttNs[o]
		t.queueNs[o] += u.queueNs[o]
		t.computeNs[o] += u.computeNs[o]
	}
	t.attempted += u.attempted
	t.failed += u.failed
	t.busy += u.busy
	t.clients = max(t.clients, u.clients)
	t.batchWidth += u.batchWidth
	t.batches += u.batches
	m, n := &t.client, u.client
	m.Dials += n.Dials
	m.Reused += n.Reused
	m.Retries += n.Retries
	m.Redirects += n.Redirects
	if t.counters == nil {
		t.counters = map[string]float64{}
	}
	for k, v := range u.counters {
		if k == "handle_bytes" { // a gauge: the later reading wins
			t.counters[k] = v
		} else {
			t.counters[k] += v
		}
	}
}

func (t *tally) ops() int {
	n := 0
	for _, l := range t.lat {
		n += len(l)
	}
	return n
}

// percentile returns the q-quantile (0..1) of xs by linear interpolation
// between order statistics; NaN for no samples.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return percentile(xs, 0.5) }

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
