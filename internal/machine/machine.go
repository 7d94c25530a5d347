// Package machine realizes the paper's parallel machine model
// (Section 2.1): P identical processors, each with a local memory of M
// words, connected by a peer-to-peer network. The three cost measures —
// F (arithmetic operations), BW (words communicated), and L (messages) —
// are counted along the critical path, and the total runtime is modeled as
// C = α·L + β·BW + γ·F.
//
// Since PR 5 the package is a facade over a layered stack (see
// internal/machine/transport): algorithms talk to Proc, Proc drives a
// costacct endpoint (F/BW/L accounting), which drives a faultinject
// endpoint (fail-stop deaths at barriers, delay-fault speed factors), which
// drives one of two interchangeable transport backends —
//
//   - simnet (Config.Backend == BackendSim, the default): the deterministic
//     virtual-clock simulator. Each processor carries a virtual clock that
//     advances with local work and message transfers, so the maximum clock
//     at the end of a run is the critical-path runtime under the α/β/γ
//     model, independent of real scheduling.
//   - wallnet (Config.Backend == BackendWall): an in-process wall-clock
//     backend with real deadlines and context cancellation, for wall-clock
//     benchmarking and real-time straggler experiments.
//
// Because accounting is a decorator above the backend, F/BW/L counts are
// identical on both backends; only Time changes meaning (virtual cost units
// versus real seconds or dilated units).
//
// Hard faults (Section 2.1) are injected at named barriers: a processor
// scheduled to fail "at phase X" loses its entire local store when it
// reaches the barrier named X, modeling fail-stop death with immediate
// replacement — the same rank continues with empty memory, exactly the
// paper's "the affected processor ceases operation, loses its data, and is
// subsequently replaced by an alternative processor". All processors
// observe the same list of failures at each barrier (a perfect failure
// detector, standard in this model).
package machine

import (
	"context"
	"fmt"
	"runtime/debug"
	"sort"
	"sync"
	"time"

	"repro/internal/bigint"
	"repro/internal/machine/costacct"
	"repro/internal/machine/faultinject"
	"repro/internal/machine/simnet"
	"repro/internal/machine/transport"
	"repro/internal/machine/wallnet"
)

// Backend selects the transport realization under the machine API.
type Backend string

const (
	// BackendSim is the deterministic virtual-clock simulator (the default).
	BackendSim Backend = "sim"
	// BackendWall is the in-process wall-clock backend: real deadlines,
	// context cancellation, Time in seconds (or dilated model units).
	BackendWall Backend = "wall"
)

// Config describes the machine.
type Config struct {
	P int // number of processors (excluding none; code processors included by caller)

	// Backend selects the transport realization; empty means BackendSim.
	// Algorithm code never branches on this — the choice is invisible
	// above the Proc API.
	Backend Backend

	// MemoryWords is the per-processor memory capacity M in 64-bit words;
	// 0 means unlimited. Exceeding it makes Store return an error, so
	// algorithms can verify the Lemma 3.1 scheduling actually fits.
	MemoryWords int64

	// Runtime model coefficients: latency per message, time per word, time
	// per arithmetic word-operation. Zero values default to α=1000, β=10,
	// γ=1 — a conventional HPC-ish ratio.
	Alpha, Beta, Gamma float64

	// RecvTimeout guards against protocol deadlocks in tests; zero means
	// 30 seconds.
	RecvTimeout time.Duration

	// ChannelCap is the per-pair in-flight message capacity (default 128).
	// Channels are allocated lazily on first use of a (sender, receiver)
	// pair, so a large-P machine pays only for the pairs its protocol
	// actually exercises (grid protocols use O(P·√P) of the P² pairs)
	// rather than O(P²·ChannelCap) setup memory.
	ChannelCap int

	// SpeedFactors optionally slows processors down: processor i's
	// arithmetic takes γ·SpeedFactors[i] per word-operation (1.0 when nil
	// or zero). This models *delay faults* — the paper's third fault
	// category. On the sim backend the delay exists in virtual time only;
	// on the wall backend with WallTimeDilation set, slow ranks really do
	// finish later.
	SpeedFactors []float64

	// WallTimeDilation applies to BackendWall only: the real duration of
	// one model unit. When set, cost charges are slept off at that rate
	// and clocks read in model units, so virtual-machine experiments
	// (straggler slack, speed factors) transfer to the wall clock with
	// their ratios intact. Zero means free-running with clocks in seconds.
	WallTimeDilation time.Duration
}

func (c Config) withDefaults() Config {
	if c.Backend == "" {
		c.Backend = BackendSim
	}
	if c.Alpha == 0 {
		c.Alpha = 1000
	}
	if c.Beta == 0 {
		c.Beta = 10
	}
	if c.Gamma == 0 {
		c.Gamma = 1
	}
	if c.RecvTimeout == 0 {
		c.RecvTimeout = 30 * time.Second
	}
	if c.ChannelCap == 0 {
		c.ChannelCap = 128
	}
	return c
}

// Fault schedules a hard fault: processor Proc dies when it reaches the
// barrier named Phase for the Hit-th time (0 = first).
type Fault struct {
	Proc  int
	Phase string
	Hit   int
}

// FaultEvent reports an injected fault to the surviving processors.
type FaultEvent = transport.FaultEvent

// Payload is anything a message can carry; Words is its size in the model's
// word units and is what the BW accounting charges.
type Payload = transport.Payload

// Ints is a payload of big integers; its word count is the total limb count
// (at least one word per integer, so zeros still occupy a word on the wire).
type Ints []bigint.Int

// Words implements Payload.
func (v Ints) Words() int64 {
	var w int64
	for _, x := range v {
		l := int64(x.WordLen())
		if l == 0 {
			l = 1
		}
		w += l
	}
	return w
}

// Meta is a small control payload (a tag, an index, a count) costing one word.
type Meta struct{ Value int }

// Words implements Payload.
func (Meta) Words() int64 { return 1 }

// Stats are one processor's accumulated costs.
type Stats struct {
	Flops     int64   // F: word-level arithmetic operations
	SentWords int64   // words sent
	RecvWords int64   // words received
	Messages  int64   // L: messages sent
	Barriers  int64   // barrier crossings
	PeakWords int64   // peak local-store occupancy
	Clock     float64 // completion time (virtual units on sim, model units/seconds on wall)
	Faults    int     // times this rank was killed and replaced
}

// MarkRecord is a named snapshot of a processor's counters, for per-phase
// cost attribution (the anatomy of the paper's evaluation/multiplication/
// interpolation stages).
type MarkRecord struct {
	Label     string
	Clock     float64
	Flops     int64
	SentWords int64
	Messages  int64
}

// Report aggregates a finished run. Following the paper, F, BW and L are
// critical-path figures: the maximum over processors (the processors
// operate bulk-synchronously between barriers). Totals are also kept for
// the overhead comparisons of Section 5.
type Report struct {
	PerProc []Stats
	F       int64   // max flops over processors
	BW      int64   // max words sent over processors
	BWIn    int64   // max words received over processors (inbound critical path)
	L       int64   // max messages over processors
	Time    float64 // max clock = modeled runtime C (sim) or elapsed wall time (wall)
	TotalF  int64
	TotalBW int64
	TotalL  int64
	Faults  []FaultEvent
	// Marks holds each processor's Mark snapshots, in call order.
	Marks [][]MarkRecord
}

// Machine is a P-processor machine over a pluggable transport. Create with
// New (or NewWithTransport for a custom backend), run one program with Run;
// a Machine is single-use.
type Machine struct {
	cfg   Config
	procs []*Proc

	base transport.Transport    // the backend, for backend-specific hooks
	fi   *faultinject.Transport // fault layer, for the event log
	acct *costacct.Transport    // accounting layer, endpoints come from here
}

// New creates a machine with the given configuration and fault plan, on the
// backend cfg.Backend selects.
func New(cfg Config, plan []Fault) (*Machine, error) {
	cfg = cfg.withDefaults()
	if cfg.P < 1 {
		return nil, fmt.Errorf("machine: need P >= 1, got %d", cfg.P)
	}
	var base transport.Transport
	var err error
	switch cfg.Backend {
	case BackendSim:
		base, err = simnet.New(simnet.Config{
			P:           cfg.P,
			ChannelCap:  cfg.ChannelCap,
			RecvTimeout: cfg.RecvTimeout,
		})
	case BackendWall:
		base, err = wallnet.New(wallnet.Config{
			P:            cfg.P,
			ChannelCap:   cfg.ChannelCap,
			RecvTimeout:  cfg.RecvTimeout,
			TimeDilation: cfg.WallTimeDilation,
		})
	default:
		err = fmt.Errorf("machine: unknown backend %q", cfg.Backend)
	}
	if err != nil {
		return nil, err
	}
	return NewWithTransport(cfg, plan, base)
}

// NewWithTransport creates a machine over a caller-supplied backend,
// layering fault injection and cost accounting on top of it. cfg.Backend is
// ignored; everything else applies as usual.
func NewWithTransport(cfg Config, plan []Fault, base transport.Transport) (*Machine, error) {
	cfg = cfg.withDefaults()
	if base.P() != cfg.P {
		return nil, fmt.Errorf("machine: transport has P=%d, config has P=%d", base.P(), cfg.P)
	}
	m := &Machine{cfg: cfg, base: base}
	for _, f := range plan {
		if f.Proc < 0 || f.Proc >= cfg.P {
			return nil, fmt.Errorf("machine: fault for nonexistent processor %d", f.Proc)
		}
	}
	fiPlan := make([]faultinject.Fault, len(plan))
	for i, f := range plan {
		fiPlan[i] = faultinject.Fault{Proc: f.Proc, Phase: f.Phase, Hit: f.Hit}
	}
	// Fail-stop: all local data is lost; the replacement starts empty at
	// the same rank. The callback runs on the dying rank's own goroutine
	// (inside its Barrier call), so touching its store is race-free.
	onFault := func(rank int) {
		p := m.procs[rank]
		p.store = map[string]storedValue{}
		p.memWords = 0
		p.faultCount++
	}
	fi, err := faultinject.New(base, fiPlan, cfg.SpeedFactors, onFault)
	if err != nil {
		return nil, fmt.Errorf("machine: %w", err)
	}
	m.fi = fi
	m.acct = costacct.New(fi, costacct.Model{Alpha: cfg.Alpha, Beta: cfg.Beta, Gamma: cfg.Gamma})
	m.procs = make([]*Proc, cfg.P)
	for i := range m.procs {
		m.procs[i] = &Proc{id: i, m: m, store: map[string]storedValue{}}
	}
	return m, nil
}

// P returns the processor count.
func (m *Machine) P() int { return m.cfg.P }

// allocatedChannels counts the backend's lazily created per-pair channels
// (test hook for the lazy-allocation contract; call only while the machine
// is quiescent). Returns -1 for backends without the hook.
func (m *Machine) allocatedChannels() int {
	if h, ok := m.base.(interface{ AllocatedChannels() int }); ok {
		return h.AllocatedChannels()
	}
	return -1
}

// Run executes program on all P processors and returns the cost report.
// The first processor error (if any) aborts with that error. A processor
// whose program panics does not take the caller down: its panic becomes an
// error naming the rank, the run's context is canceled so peers blocked on
// it unwind at once, and that error is returned ahead of theirs.
func (m *Machine) Run(program func(*Proc) error) (*Report, error) {
	return m.RunContext(context.Background(), program)
}

// RunContext is Run under a context: canceling ctx aborts blocked receives
// (and, on wallnet, sends and barriers) so the run unwinds with an error
// instead of waiting out the protocol timeout.
func (m *Machine) RunContext(ctx context.Context, program func(*Proc) error) (*Report, error) {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	for _, p := range m.procs {
		ep, err := m.acct.OpenCounted(ctx, p.id)
		if err != nil {
			return nil, err
		}
		p.ep = ep
	}

	errs := make([]error, m.cfg.P)
	panics := make([]error, m.cfg.P)
	var wg sync.WaitGroup
	for i := range m.procs {
		wg.Add(1)
		//ftlint:allow poolspawn the machine runtime IS the pool: one goroutine per simulated processor, bounded by cfg.P, not algorithm fan-out
		go func(p *Proc) {
			defer wg.Done()
			defer func() {
				p.exitClock = p.ep.Now()
				p.ep.Done()
			}()
			defer func() {
				if r := recover(); r != nil {
					panics[p.id] = fmt.Errorf("machine: rank %d panicked: %v\n%s", p.id, r, debug.Stack())
					cancel()
				}
			}()
			errs[p.id] = program(p)
		}(m.procs[i])
	}
	wg.Wait()
	defer m.base.Close()

	rep := &Report{PerProc: make([]Stats, m.cfg.P), Faults: m.fi.Events(), Marks: make([][]MarkRecord, m.cfg.P)}
	for i, p := range m.procs {
		rep.Marks[i] = p.marks
	}
	for i, p := range m.procs {
		c := p.ep.Stats()
		s := Stats{
			Flops:     c.Flops,
			SentWords: c.SentWords,
			RecvWords: c.RecvWords,
			Messages:  c.Messages,
			Barriers:  c.Barriers,
			PeakWords: p.peakWords,
			Clock:     p.exitClock,
			Faults:    p.faultCount,
		}
		rep.PerProc[i] = s
		rep.TotalF += s.Flops
		rep.TotalBW += s.SentWords
		rep.TotalL += s.Messages
		if s.Flops > rep.F {
			rep.F = s.Flops
		}
		if s.SentWords > rep.BW {
			rep.BW = s.SentWords
		}
		if s.RecvWords > rep.BWIn {
			rep.BWIn = s.RecvWords
		}
		if s.Messages > rep.L {
			rep.L = s.Messages
		}
		if s.Clock > rep.Time {
			rep.Time = s.Clock
		}
	}
	for _, err := range append(panics, errs...) {
		if err != nil {
			return rep, err
		}
	}
	return rep, nil
}

// StoreOf reads processor id's local store. It is intended for harness use
// after Run has returned (e.g. assembling a distributed result without
// charging communication); calling it during a run races with the programs.
func (m *Machine) StoreOf(id int, key string) (Payload, bool) {
	if id < 0 || id >= m.cfg.P {
		return nil, false
	}
	sv, ok := m.procs[id].store[key]
	if !ok {
		return nil, false
	}
	return sv.v, true
}

// storedValue tracks a stored payload and its size for memory accounting.
type storedValue struct {
	v     Payload
	words int64
}

// Proc is one processor of the machine; its methods must only be called
// from its own program goroutine. It owns the local store (the part of the
// model faults erase) and delegates communication, time, and accounting to
// its endpoint stack.
type Proc struct {
	id int
	m  *Machine
	ep *costacct.Endpoint

	memWords   int64
	peakWords  int64
	faultCount int
	exitClock  float64 // Clock() captured when the program returned

	store map[string]storedValue
	marks []MarkRecord
}

// Mark records a named snapshot of the processor's counters; the run report
// exposes all snapshots for per-phase cost attribution.
func (p *Proc) Mark(label string) {
	c := p.ep.Stats()
	p.marks = append(p.marks, MarkRecord{
		Label:     label,
		Clock:     p.ep.Now(),
		Flops:     c.Flops,
		SentWords: c.SentWords,
		Messages:  c.Messages,
	})
}

// ID returns the processor's rank in [0, P).
func (p *Proc) ID() int { return p.id }

// P returns the machine's processor count.
func (p *Proc) P() int { return p.m.cfg.P }

// Clock returns the processor's current time in model units.
func (p *Proc) Clock() float64 { return p.ep.Now() }

// FaultCount returns how many times this rank has been killed and replaced.
func (p *Proc) FaultCount() int { return p.faultCount }

// Work charges n word-level arithmetic operations (F) and advances the clock.
func (p *Proc) Work(n int64) {
	if n < 0 {
		panic("machine: negative work")
	}
	p.ep.Work(n)
}

// Send transmits payload to processor `to` with a protocol tag. It charges
// one message (L) and the payload's word count (BW) to the sender and
// advances the sender's clock by α + β·words; the receiver's clock is
// advanced on Recv to at least the arrival time.
func (p *Proc) Send(to int, tag string, payload Payload) error {
	if to < 0 || to >= p.m.cfg.P {
		return fmt.Errorf("machine: proc %d sending to nonexistent proc %d", p.id, to)
	}
	return p.ep.Send(to, tag, payload)
}

// Recv receives the next message from processor `from`, asserting the
// protocol tag. It blocks until the message arrives and advances the clock
// to at least the message's arrival time.
func (p *Proc) Recv(from int, tag string) (Payload, error) {
	if from < 0 || from >= p.m.cfg.P {
		return nil, fmt.Errorf("machine: proc %d receiving from nonexistent proc %d", p.id, from)
	}
	return p.ep.Recv(from, tag)
}

// RecvDeadline receives the next message from `from` but accepts it only if
// it arrives at or before the deadline (in the clock's model units); a late
// message is not accepted and the clock advances to the deadline instead.
// This is the timeout primitive behind straggler (delay-fault) mitigation:
// proceed at the deadline with whoever reported in time.
func (p *Proc) RecvDeadline(from int, tag string, deadline float64) (Payload, bool, error) {
	if from < 0 || from >= p.m.cfg.P {
		return nil, false, fmt.Errorf("machine: proc %d receiving from nonexistent proc %d", p.id, from)
	}
	return p.ep.RecvDeadline(from, tag, deadline)
}

// RecvInts is Recv specialized to the Ints payload type.
func (p *Proc) RecvInts(from int, tag string) (Ints, error) {
	v, err := p.Recv(from, tag)
	if err != nil {
		return nil, err
	}
	ints, ok := v.(Ints)
	if !ok {
		return nil, fmt.Errorf("machine: proc %d expected Ints from %d tag %q, got %T", p.id, from, tag, v)
	}
	return ints, nil
}

// Store saves a payload in local memory under key, enforcing the memory
// capacity M when configured. Overwriting a key releases the old value.
func (p *Proc) Store(key string, v Payload) error {
	w := v.Words()
	old := p.store[key].words
	next := p.memWords - old + w
	if p.m.cfg.MemoryWords > 0 && next > p.m.cfg.MemoryWords {
		return fmt.Errorf("machine: proc %d out of memory: need %d words, capacity %d", p.id, next, p.m.cfg.MemoryWords)
	}
	p.store[key] = storedValue{v: v, words: w}
	p.memWords = next
	if p.memWords > p.peakWords {
		p.peakWords = p.memWords
	}
	return nil
}

// Load retrieves a stored payload.
func (p *Proc) Load(key string) (Payload, bool) {
	sv, ok := p.store[key]
	if !ok {
		return nil, false
	}
	return sv.v, true
}

// LoadInts retrieves a stored Ints payload, with a typed error on mismatch.
func (p *Proc) LoadInts(key string) (Ints, error) {
	v, ok := p.Load(key)
	if !ok {
		return nil, fmt.Errorf("machine: proc %d has no %q (lost to a fault?)", p.id, key)
	}
	ints, ok := v.(Ints)
	if !ok {
		return nil, fmt.Errorf("machine: proc %d key %q holds %T, not Ints", p.id, key, v)
	}
	return ints, nil
}

// Free releases a stored payload.
func (p *Proc) Free(key string) {
	if sv, ok := p.store[key]; ok {
		p.memWords -= sv.words
		delete(p.store, key)
	}
}

// Keys returns the stored keys in sorted order (diagnostics).
func (p *Proc) Keys() []string {
	keys := make([]string, 0, len(p.store))
	for k := range p.store {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// MemoryWords returns the current local-store occupancy.
func (p *Proc) MemoryWords() int64 { return p.memWords }

// Barrier synchronizes all still-active processors at the named phase
// boundary and injects any faults scheduled for it. Every participant
// returns the same list of fault events (the perfect failure detector);
// a processor that appears in the list is the *replacement* of the failed
// rank: its store has been wiped and it continues with empty memory.
//
// The barrier charges ⌈log₂P⌉ messages of one word (a tree barrier) and
// synchronizes clocks to the barrier's completion time. The error return is
// the wall backend's cancellation path; on the sim backend it is always nil.
func (p *Proc) Barrier(phase string) ([]FaultEvent, error) {
	return p.ep.Barrier(phase, nil)
}
