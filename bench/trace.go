package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"time"
)

// Trace processes: the benchmark's own caller, and the ranks of the
// wall-clock phase probe (one thread per rank).
const (
	pidBench = 1
	pidRanks = 2
	tidOps   = 1
	tidProbe = 2
)

// event is one Chrome trace-event record ("X" complete span or "M"
// metadata), readable by Perfetto and about:tracing.
type event struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// tracer keeps spans in memory; write saves them when the run ends.
type tracer struct {
	start  time.Time
	events []event
}

func newTracer() *tracer {
	return &tracer{start: time.Now(), events: []event{
		{Name: "process_name", Ph: "M", PID: pidBench, Args: map[string]any{"name": "bench"}},
		{Name: "process_name", Ph: "M", PID: pidRanks, Args: map[string]any{"name": "phase probe ranks (wall backend)"}},
	}}
}

func (t *tracer) us(at time.Time) float64 {
	return float64(at.Sub(t.start)) / float64(time.Microsecond)
}

// span records [from, to) on (pid, tid).
func (t *tracer) span(name, cat string, pid, tid int, from, to time.Time, args map[string]any) {
	t.events = append(t.events, event{
		Name: name, Cat: cat, Ph: "X", TS: t.us(from), Dur: float64(to.Sub(from)) / float64(time.Microsecond),
		PID: pid, TID: tid, Args: args,
	})
}

func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(map[string]any{"traceEvents": t.events, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
