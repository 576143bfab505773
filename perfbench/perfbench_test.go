package main

import (
	"reflect"
	"sync/atomic"
	"testing"
	"time"
)

func TestSeedGivesSameInputs(t *testing.T) {
	cases := map[string]func(seed int64) any{
		"refactor-loop":   func(s int64) any { return genLoop(s) },
		"cold-structures": func(s int64) any { return []*coldInput{genCold(s, 0), genCold(s, 1)} },
		"service":         func(s int64) any { return genServe(s, 2) },
	}
	for name, gen := range cases {
		if !reflect.DeepEqual(gen(7), gen(7)) {
			t.Errorf("%s: seed 7 generated different inputs twice", name)
		}
		if reflect.DeepEqual(gen(7), gen(8)) {
			t.Errorf("%s: seeds 7 and 8 generated identical inputs", name)
		}
	}
	if a, b := genServe(7, 2).ops, genServe(8, 2).ops; reflect.DeepEqual(a, b) {
		t.Error("seeds 7 and 8 generated identical operation sequences")
	}
}

// everyThird corrupts every third answer the checker sees.
func everyThird() func(op, []float64) {
	var n atomic.Int64
	return func(_ op, x []float64) {
		if n.Add(1)%3 == 0 {
			x[0] += 1
		}
	}
}

func TestTamperedAnswersCountAsFailed(t *testing.T) {
	for _, name := range []string{"cold-structures", "serve-mixed"} {
		for _, tamper := range []bool{false, true} {
			e := &env{seed: 3, nproc: 2}
			if tamper {
				e.tamper = everyThird()
			}
			res, err := measure(name, e, 2*time.Second, false)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if got := res.Failed > 0; got != tamper || res.Correct == tamper {
				t.Errorf("%s tamper=%v: failed %d of %d, correct %v", name, tamper, res.Failed, res.Attempted, res.Correct)
			}
		}
	}
}

func TestTracedRunEmitsEveryLayerMetric(t *testing.T) {
	if err := checkSpecFile("../BENCHMARK.json"); err != nil {
		t.Fatal(err)
	}
	e := &env{seed: 5, nproc: 2, obs: &taskObs{}}
	res, err := measure("cluster-mixed", e, 2*time.Second, true)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct {
		t.Fatalf("traced run failed %d of %d operations", res.Failed, res.Attempted)
	}
	for _, s := range perLayer {
		if _, ok := res.Metrics[s.Name]; !ok {
			t.Errorf("traced run did not report %s", s.Name)
		}
	}
	if len(res.Metrics) != len(perLayer) {
		t.Errorf("traced run reported %d metrics, BENCHMARK.json names %d", len(res.Metrics), len(perLayer))
	}
	if len(e.obs.tr.spans) == 0 {
		t.Error("traced run recorded no spans")
	}
}
