// Command perfbench is the repository's benchmark: one seeded workload per
// run, closed-loop, every answer checked, every metric named with its unit.
//
//	bash perfbench/run.sh --workload serve-mixed --seed 1 --seconds 10 --trace 0
//
// With --trace 0 the last line of standard output is the result with the
// end-to-end metrics; with --trace 1 it carries the per-layer metrics of a
// traced run instead. Lines before it are a human-readable report and the
// environment fingerprint. Run from the root of a checkout; the traced run
// writes its spans under .bench_build/.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"slices"
	"sort"
	"strings"
	"time"

	"sstar/internal/xblas"
)

// workload is one traffic mix. setup is repeated and timed; every
// repetition but the last is undone by teardown. phase runs the closed loop
// for d and returns what it saw.
type workload interface {
	setup() error
	teardown()
	phase(d time.Duration) *tally
	target() probeTarget
}

var workloadNames = []string{"refactor-loop", "cold-structures", "serve-mixed", "cluster-mixed"}

// tailQuantile is the percentile every _tail_ metric reports, fixed so two
// commits always compare the same one. It is p90 for every workload and
// operation: p99 read up to 0.52 apart (interquartile range over median)
// between runs of one build on a 2-vCPU VM, wider than any bound a
// comparison could use.
const tailQuantile = 0.90

// setupReps is how many times a run sets up; setup_s is their median.
const setupReps = 3

func newWorkload(name string, e *env) (workload, error) {
	switch name {
	case "refactor-loop":
		return &loopWorkload{env: e, in: genLoop(e.seed)}, nil
	case "cold-structures":
		return &coldWorkload{env: e, warm: genCold(e.seed, -1).a}, nil
	case "serve-mixed", "cluster-mixed":
		return newServiceWorkload(e, name == "cluster-mixed")
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(workloadNames, ", "))
}

type result struct {
	Correct   bool                     `json:"correct"`
	Attempted int                      `json:"attempted"`
	Failed    int                      `json:"failed"`
	Metrics   map[string]valueWithUnit `json:"metrics"`
}

type valueWithUnit struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	name := flag.String("workload", "", "workload: "+strings.Join(workloadNames, ", "))
	seed := flag.Int64("seed", 1, "seed every input is generated from")
	seconds := flag.Int("seconds", 10, "measuring time of the run")
	trace := flag.Int("trace", 0, "1 = traced run reporting the per-layer metrics")
	flag.Parse()
	if err := run(*name, *seed, time.Duration(*seconds)*time.Second, *trace == 1); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(name string, seed int64, d time.Duration, traced bool) error {
	if err := checkSpecFile("BENCHMARK.json"); err != nil {
		return err
	}
	e := &env{seed: seed, nproc: runtime.NumCPU()}
	if traced {
		e.obs = &taskObs{}
	}
	out, err := measure(name, e, d, traced)
	if err != nil {
		return err
	}
	if traced {
		path := fmt.Sprintf(".bench_build/spans/%s-%d.jsonl", name, seed)
		if err := e.obs.tr.write(path); err != nil {
			return fmt.Errorf("write spans: %w", err)
		}
		fmt.Printf("spans       %d written to %s (%d dropped)\n", len(e.obs.tr.spans), path, e.obs.tr.dropped)
	}
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// measure runs one workload: generate inputs, set up setupReps times, then
// measure for d — untraced, or as alternating untraced/traced quarters.
func measure(name string, e *env, d time.Duration, traced bool) (*result, error) {
	w, err := newWorkload(name, e)
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	xblas.Autotune()
	autotune := time.Since(t0)
	var setups []float64
	for i := 0; i < setupReps; i++ {
		t0 := time.Now()
		if err := w.setup(); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		if i < setupReps-1 {
			w.teardown()
		}
	}
	defer w.teardown()
	setup := autotune.Seconds() + median(setups)

	tr := newTracer()
	if traced {
		e.obs.tr = tr
	}
	plain, tracedT := &tally{}, &tally{}
	var windows []*tally
	if !traced {
		for i := 0; i < numWindows; i++ {
			t := w.phase(d / numWindows)
			windows = append(windows, t)
			plain.merge(t)
		}
	} else {
		for q := 0; q < 4; q++ {
			if q%2 == 1 {
				e.tr = tr
				tracedT.merge(w.phase(d / 4))
				e.tr = nil
			} else {
				plain.merge(w.phase(d / 4))
			}
		}
	}
	// Two collections: the first moves sync.Pool contents to the victim
	// cache, the second frees them, so the reading is the live heap.
	runtime.GC()
	runtime.GC()
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	runtime.KeepAlive(w)

	all := &tally{}
	all.merge(plain)
	all.merge(tracedT)
	if traced {
		windows = []*tally{plain}
	}
	e2e := endToEndMetrics(windows, setup, float64(mem.HeapAlloc)/1e6)
	report(name, e, all, e2e, setups, autotune)

	m, specs := e2e, endToEnd
	if traced {
		e.tr = tr
		if m, err = layerMetrics(name, e, w, plain, tracedT); err != nil {
			return nil, err
		}
		e.tr = nil
		selfReport(tr)
		for _, s := range perLayer {
			fmt.Printf("per-layer   %-34s %14.6g %-8s moves %s; leaves %s unmoved\n", s.Name, m[s.Name], s.Unit, s.Moves, s.Still)
		}
		specs = layerSpecs()
	}
	res := &result{Correct: all.failed == 0, Attempted: all.attempted, Failed: all.failed, Metrics: map[string]valueWithUnit{}}
	for _, s := range specs {
		v, ok := m[s.Name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("%s: metric %s has no value (%v); run longer", name, s.Name, v)
		}
		res.Metrics[s.Name] = valueWithUnit{v, s.Unit}
	}
	if len(m) != len(specs) {
		return nil, fmt.Errorf("%s: %d metrics computed, %d named", name, len(m), len(specs))
	}
	return res, nil
}

// numWindows splits an untraced run into equal windows. Each timing metric
// is computed per window and reported as the median over the windows, so a
// burst of load from outside the benchmark moves a few windows, not the
// result.
const numWindows = 10

func endToEndMetrics(windows []*tally, setup, heapMB float64) map[string]float64 {
	per := func(f func(t *tally) float64) float64 {
		xs := make([]float64, 0, len(windows))
		for _, t := range windows {
			if v := f(t); !math.IsNaN(v) {
				xs = append(xs, v)
			}
		}
		return median(xs)
	}
	p := func(o op, q float64) float64 {
		return per(func(t *tally) float64 { return percentile(t.lat[o], q) })
	}
	return map[string]float64{
		"setup_s":          setup,
		"ops_per_s":        per(func(t *tally) float64 { return float64(t.ops()*t.clients) / t.busy.Seconds() }),
		"solve_p50_ms":     p(opSolve, 0.5),
		"solve_tail_ms":    p(opSolve, tailQuantile),
		"solve32_p50_ms":   p(opSolve32, 0.5),
		"refactor_p50_ms":  p(opRefactor, 0.5),
		"refactor_tail_ms": p(opRefactor, tailQuantile),
		"factor_p50_ms":    p(opFactor, 0.5),
		"factor_tail_ms":   p(opFactor, tailQuantile),
		"heap_mb":          heapMB,
	}
}

// layerMetrics computes every per-layer metric of a traced run. Layers the
// workload does not reach read 0.
func layerMetrics(name string, e *env, w workload, plain, traced *tally) (map[string]float64, error) {
	m := map[string]float64{}
	for _, s := range perLayer {
		m[s.Name] = 0
	}
	if err := e.probeLibrary(w.target(), m); err != nil {
		return nil, fmt.Errorf("%s: library probe: %w", name, err)
	}
	if sw, ok := w.(*serviceWorkload); ok {
		if err := sw.probeWire(m); err != nil {
			return nil, err
		}
		serviceLayers(traced, m)
	}
	for o := op(0); o < numOps; o++ {
		m["trace.overhead_ms."+o.String()] = median(traced.lat[o]) - median(plain.lat[o])
	}
	return m, nil
}

// checkSpecFile verifies that BENCHMARK.json, when present, names exactly
// the metrics and units this program reports.
func checkSpecFile(path string) error {
	raw, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return nil
	}
	if err != nil {
		return err
	}
	var spec struct {
		EndToEnd  []metricSpec `json:"end_to_end"`
		PerLayer  []metricSpec `json:"per_layer"`
		Workloads []struct {
			Name string `json:"name"`
		} `json:"workloads"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	if err := sameMetrics("end_to_end", spec.EndToEnd, endToEnd); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	if err := sameMetrics("per_layer", spec.PerLayer, layerSpecs()); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	for _, wl := range spec.Workloads {
		if !slices.Contains(workloadNames, wl.Name) {
			return fmt.Errorf("%s: workload %q is not one this program runs", path, wl.Name)
		}
	}
	return nil
}

func sameMetrics(section string, got, want []metricSpec) error {
	index := map[string]metricSpec{}
	for _, s := range want {
		index[s.Name] = s
	}
	for _, s := range got {
		w, ok := index[s.Name]
		if !ok {
			return fmt.Errorf("%s names %s, which the benchmark does not report", section, s.Name)
		}
		if w != s {
			return fmt.Errorf("%s: %s is %+v in the file, %+v in the benchmark", section, s.Name, s, w)
		}
		delete(index, s.Name)
	}
	for n := range index {
		return fmt.Errorf("%s is missing %s, which the benchmark reports", section, n)
	}
	return nil
}

// report prints the human-readable lines: the fingerprint, sample counts
// with the percentile each tail reports, failures and set-up.
func report(name string, e *env, t *tally, e2e map[string]float64, setups []float64, autotune time.Duration) {
	fp := fingerprint()
	mc, nc := xblas.TileShape()
	fp["workload"], fp["seed"] = name, e.seed
	fp["xblas_kernel"], fp["xblas_tile"] = xblas.KernelName(), [2]int{mc, nc}
	samples := map[string]int{}
	for o := op(0); o < numOps; o++ {
		samples[o.String()] = len(t.lat[o])
	}
	fp["samples"], fp["windows"] = samples, numWindows
	fp["tail_percentile"] = fmt.Sprintf("p%g", 100*tailQuantile)
	line, _ := json.Marshal(fp)
	fmt.Printf("fingerprint %s\n", line)
	fmt.Printf("failures    %d of %d operations (failed_ratio %.6f)\n", t.failed, t.attempted, ratio(float64(t.failed), float64(t.attempted)))
	fmt.Printf("setup       autotune %.3fs + median of %v s\n", autotune.Seconds(), setups)
	names := make([]string, 0, len(e2e))
	for k := range e2e {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Printf("end-to-end  %-18s %.4f\n", k, e2e[k])
	}
}

// fingerprint describes the machine and build the numbers came from.
func fingerprint() map[string]any {
	fp := map[string]any{
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"cpu":        "unknown",
		"git_rev":    "unknown",
	}
	if raw, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, l := range strings.Split(string(raw), "\n") {
			if k, v, ok := strings.Cut(l, ":"); ok && strings.TrimSpace(k) == "model name" {
				fp["cpu"] = strings.TrimSpace(v)
				break
			}
		}
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				fp["git_rev"] = s.Value
			}
		}
	}
	return fp
}
