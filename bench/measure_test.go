package main

import (
	"errors"
	"testing"
	"time"
)

func TestPercentileNearestRank(t *testing.T) {
	vals := make([]float64, 100)
	for i := range vals {
		vals[i] = float64(i + 1)
	}
	if got := percentile(vals, 50); got != 50 {
		t.Errorf("p50 of 1..100 = %v, want 50", got)
	}
	if got := percentile(vals, 90); got != 90 {
		t.Errorf("p90 of 1..100 = %v, want 90", got)
	}
	if got := percentile(vals[:1], 90); got != 1 {
		t.Errorf("p90 of one sample = %v, want 1", got)
	}
}

// The p90 rule: a run is valid only with at least minTail samples beyond
// p90, which first holds at 100 samples and then for every larger count.
func TestSampleCountRule(t *testing.T) {
	if got := beyond(100, 90); got != minTail {
		t.Errorf("beyond(100, 90) = %d, want %d", got, minTail)
	}
	if got := beyond(99, 90); got >= minTail {
		t.Errorf("beyond(99, 90) = %d, want fewer than %d", got, minTail)
	}
	for n := 100; n <= 5000; n++ {
		if beyond(n, 90) < minTail {
			t.Fatalf("beyond(%d, 90) = %d < %d", n, beyond(n, 90), minTail)
		}
	}
}

func TestNormalize(t *testing.T) {
	ms := time.Millisecond
	// Reference rate 2000 multiplies/s on 2 cores: one core takes 1 ms per
	// reference multiply, so a 10 ms op is 10 reference units.
	slices := []slice{
		{latencies: []time.Duration{10 * ms, 10 * ms, 10 * ms, 10 * ms}, dur: 40 * ms, refRate: 2000},
		{latencies: []time.Duration{20 * ms, 20 * ms}, dur: 40 * ms, refRate: 2000},
		{latencies: []time.Duration{5 * ms}, dur: 40 * ms, refRate: 4000},
	}
	if got := refUnit(2000, 2); got != 0.001 {
		t.Fatalf("refUnit(2000, 2) = %v, want 0.001", got)
	}
	n := normalize(slices, 2)
	if n.samples != 7 {
		t.Errorf("samples = %d, want 7", n.samples)
	}
	// Normalised latencies: 10,10,10,10,20,20 and 5/0.5 = 10.
	if n.p50Ref != 10 || n.p90Ref != 20 {
		t.Errorf("p50/p90 = %v/%v, want 10/20", n.p50Ref, n.p90Ref)
	}
	// Per-slice ops/s over ref_rate ×1000: 100/2000, 50/2000, 25/4000 →
	// 50, 25, 6.25; the median is 25.
	if n.throughputRef != 25 {
		t.Errorf("throughput_ref = %v, want 25", n.throughputRef)
	}
}

// A fake operation that returns a wrong product on every odd call must be
// counted as failed, and its latency must not be sampled.
func TestWrongProductCountsAsFailed(t *testing.T) {
	inst := &instance{cycle: 1, op: func(i int) error {
		time.Sleep(time.Millisecond)
		if i%2 == 1 {
			return errWrong
		}
		return nil
	}}
	r, err := measureE2E(inst, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if r.attempted < 10 {
		t.Fatalf("attempted = %d, want a slice's worth of ops", r.attempted)
	}
	if r.failed != r.attempted/2 {
		t.Errorf("failed = %d of %d, want every odd op", r.failed, r.attempted)
	}
	// Warm-up ops 0 and 1 are not sampled; of the rest only the even ones.
	if want := r.attempted - r.failed - 1; r.norm.samples != want {
		t.Errorf("samples = %d, want %d", r.norm.samples, want)
	}
	if !errors.Is(inst.op(1), errWrong) {
		t.Fatal("fake op does not fail")
	}
}
