package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"sstar"
)

// span is one timed interval of the traced run, recorded by the benchmark
// around its own calls into a layer (and from the Observer events the
// library reports back). Spans of one operation share Req.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"` // id of the causing span, 0 for a root
	Req    int64  `json:"req"`
}

// maxSpans caps the in-memory trace; later spans are counted, not kept.
const maxSpans = 1 << 20

// tracer keeps spans in memory until the run ends. A nil *tracer is the
// untraced run: every method is a no-op.
type tracer struct {
	mu      sync.Mutex
	t0      time.Time
	spans   []span
	dropped int
	reqs    int64
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// request starts a new request id.
func (t *tracer) request() int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.reqs++
	return t.reqs
}

// add records a finished span and returns its id (0 when not kept).
func (t *tracer) add(name string, parent int, req int64, start time.Time, d time.Duration) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.spans) >= maxSpans {
		t.dropped++
		return 0
	}
	s := start.Sub(t.t0).Nanoseconds()
	t.spans = append(t.spans, span{Name: name, Start: s, End: s + d.Nanoseconds(), Parent: parent, Req: req})
	return len(t.spans)
}

// open records a span whose end is not known yet, so children can name it
// as their parent; close sets the end.
func (t *tracer) open(name string, parent int, req int64) int {
	return t.add(name, parent, req, time.Now(), 0)
}

func (t *tracer) close(id int) {
	if t == nil || id == 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].End = time.Since(t.t0).Nanoseconds()
}

// selfTimes returns, per span name, the summed self time: each span's
// duration minus the part of it its children cover.
func (t *tracer) selfTimes() map[string]time.Duration {
	kids := make(map[int][][2]int64)
	for _, s := range t.spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	out := make(map[string]time.Duration)
	for i, s := range t.spans {
		covered := union(kids[i+1], s.Start, s.End)
		out[s.Name] += time.Duration(s.End - s.Start - covered)
	}
	return out
}

// union returns the length of the union of intervals clipped to [lo, hi].
func union(iv [][2]int64, lo, hi int64) int64 {
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, end int64 = 0, lo
	for _, x := range iv {
		s, e := max(x[0], end), min(x[1], hi)
		if e > s {
			total += e - s
			end = e
		}
	}
	return total
}

// write dumps the spans as JSON lines.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	if err := t.encode(w); err != nil {
		f.Close()
		return err
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func (t *tracer) encode(w io.Writer) error {
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			return fmt.Errorf("encode span: %w", err)
		}
	}
	return nil
}

// taskStats is what the Observer reported during one bracketed
// refactorization.
type taskStats struct {
	tasks            int
	update, panel    time.Duration
	covered, elapsed time.Duration // union of task spans; the call's wall time
}

// taskObs is the Observer of the traced library runs. The benchmark brackets
// each refactorization with begin/end; task events arriving in between are
// charged to it and become child spans of the call's span.
type taskObs struct {
	tr *tracer

	mu     sync.Mutex
	on     bool
	parent int
	req    int64
	start  time.Time
	cur    taskStats
	iv     [][2]int64
	done   []taskStats
}

// spanPhases are the Observer phases recorded as spans: the coarse analyze
// stages, which do not overlap. The factor and solve phases coincide with
// the benchmark's own span around the call, and the partition sub-phases
// overlap their parent stage; their times reach the metrics directly.
var spanPhases = map[string]bool{sstar.PhaseOrdering: true, sstar.PhaseSymbolic: true, sstar.PhasePartition: true}

func (o *taskObs) Phase(name string, d time.Duration) {
	if !spanPhases[name] {
		return
	}
	o.mu.Lock()
	on, parent, req := o.on, o.parent, o.req
	o.mu.Unlock()
	if on {
		o.tr.add("sstar.phase."+name, parent, req, time.Now().Add(-d), d)
	}
}

func (o *taskObs) Task(ev sstar.TaskEvent) {
	o.mu.Lock()
	if !o.on {
		o.mu.Unlock()
		return
	}
	o.cur.tasks++
	if ev.Kind == sstar.TaskUpdate {
		o.cur.update += ev.Dur
	} else {
		o.cur.panel += ev.Dur
	}
	s := ev.Start.UnixNano()
	o.iv = append(o.iv, [2]int64{s, s + ev.Dur.Nanoseconds()})
	parent, req := o.parent, o.req
	o.mu.Unlock()
	name := "core.update"
	if ev.Kind == sstar.TaskFactor {
		name = "core.panel"
	}
	o.tr.add(name, parent, req, ev.Start, ev.Dur)
}

// attach routes Phase events (and, for a refactorization, Task events) to
// the span parent until detach. A nil *taskObs is a no-op.
func (o *taskObs) attach(parent int, req int64) {
	if o == nil {
		return
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	o.on, o.parent, o.req = true, parent, req
	o.start = time.Now()
	o.cur, o.iv = taskStats{}, o.iv[:0]
}

// detach stops routing; keep records the bracketed call as one
// refactorization's task split.
func (o *taskObs) detach(keep bool) {
	if o == nil {
		return
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	o.on = false
	if !keep {
		return
	}
	end := time.Now()
	o.cur.elapsed = end.Sub(o.start)
	o.cur.covered = time.Duration(union(o.iv, o.start.UnixNano(), end.UnixNano()))
	o.done = append(o.done, o.cur)
}

// observer returns o as an sstar.Observer, or nil so untraced runs attach
// nothing to the library.
func (o *taskObs) observer() sstar.Observer {
	if o == nil {
		return nil
	}
	return o
}

// selfReport prints the self time of every span name of the traced phases,
// largest first: where the benchmark's own spans and the library's reported
// events say the time went.
func selfReport(t *tracer) {
	self := t.selfTimes()
	names := make([]string, 0, len(self))
	for n := range self {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool { return self[names[i]] > self[names[j]] })
	for _, n := range names {
		fmt.Printf("self-time   %-32s %10.3f ms\n", n, ms(self[n]))
	}
}
