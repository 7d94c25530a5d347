package main

import (
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"strings"
	"time"

	"repro"
	"repro/internal/bigint"
	"repro/internal/collective"
	"repro/internal/erasure"
	"repro/internal/ftengine"
	"repro/internal/ftparallel"
	"repro/internal/machine"
	"repro/internal/mat"
	"repro/internal/parallel"
	"repro/internal/toom"
)

// layerMetrics are the per-layer metrics of a traced run. The probe and
// phase metrics are measured by the same fixed-shape calls on every
// workload; the counts come from the workload's own traced operations.
var layerMetrics = []metricDef{
	// Probes: direct calls into one layer's functions at a workload shape.
	{"toom.leaf_us", "us"},
	{"toom.leaf_wordops", "wordops"},
	{"bigint.leaf_ladder_us", "us"},
	{"bigint.mul_ms", "ms"},
	{"bigint.mul_allocs", "count"},
	{"bigint.entry_mul_ns", "ns"},
	{"mat.tile_mul_ms", "ms"},
	{"erasure.encode_us", "us"},
	{"erasure.decode_us", "us"},
	{"ftengine.run_noop_us", "us"},
	{"collective.exchange_us", "us"},
	{"collective.broadcast_us", "us"},
	{"machine.run_empty_us", "us"},
	{"simnet.op_cpu_ms", "ms"},
	{"wallnet.op_cpu_ms", "ms"},
	// Rank phases of wall-backend ft_toom_faults operations, from Marks.
	{"machine.rank_wait_ms", "ms"},
	{"parallel.eval_ms", "ms"},
	{"parallel.leaf_ms", "ms"},
	{"parallel.interp_ms", "ms"},
	{"ftparallel.prologue_ms", "ms"},
	{"ftparallel.epilogue_ms", "ms"},
	// Counts from the workload's traced operations (Result and Report).
	{"faultinject.faults_per_op", "count"},
	{"ftengine.recovered_per_op", "count"},
	{"ftengine.dead_per_op", "count"},
	{"ftengine.repair_ratio", "ratio"},
	{"machine.crit_f", "wordops"},
	{"machine.crit_bw", "words"},
	{"machine.crit_l", "msgs"},
	{"machine.crit_bw_in", "words"},
	{"machine.barriers_max", "count"},
	{"machine.total_f", "wordops"},
	{"machine.total_bw", "words"},
	{"machine.total_l", "msgs"},
	{"machine.model_time", "model_units"},
	{"machine.goroutines_leaked", "count"},
	{"runtime.retained_bytes_per_op", "B"},
}

const (
	// minTracedOps is the least number of traced operations per run; the
	// pass is rounded up to whole input cycles so the counts repeat exactly.
	minTracedOps = 16
	// tracedPhaseCalls is how many phase-probe operations write their
	// per-rank phase spans to the trace file (the rest only feed metrics).
	tracedPhaseCalls = 4
	// collectiveReps is how many timed collectives one probe call runs
	// inside its machine program.
	collectiveReps = 16
	// entryBatch is the number of entry multiplies one entry probe times.
	entryBatch = 1000
)

// probe is one timed, direct call into a layer. call returns the metric
// values of that call; the span it gets in the trace is named after the
// probe's timing metric.
type probe struct {
	name string
	call func() (map[string]float64, error)
}

func usSince(t time.Time) float64 { return float64(time.Since(t)) / float64(time.Microsecond) }
func msSince(t time.Time) float64 { return float64(time.Since(t)) / float64(time.Millisecond) }

// noopWorkload is an ftengine.Workload that computes nothing: running it
// times the engine's own machine start, coded prologue, gather and decode.
type noopWorkload struct{ shards [][]bigint.Int }

func (w noopWorkload) Shard(rank int) []bigint.Int {
	if rank < len(w.shards) {
		return w.shards[rank]
	}
	return nil
}

func (noopWorkload) Step(p *machine.Proc, _ *ftengine.Rank) (ftengine.Slots, error) {
	if p.ID() == 0 {
		return ftengine.Slots{0: {bigint.One()}}, nil
	}
	return nil, nil
}

func (noopWorkload) Decode(_ []int, slots map[int][]bigint.Int) (map[int][]bigint.Int, error) {
	return slots, nil
}

func (noopWorkload) Recombine(slots map[int][]bigint.Int) ([]bigint.Int, error) { return slots[0], nil }

// planShares returns every worker's concatenated input shares for a Toom
// shape, as ftparallel packs them into the coded shard.
func planShares(s toomShape, seed int64) (*parallel.Plan, [][]bigint.Int, error) {
	p := operands(seed, s.bits, 1)[0]
	plan, err := parallel.NewPlan(bigint.FromBig(p[0]), bigint.FromBig(p[1]), parallel.Options{
		Alg: toom.MustNew(s.k), P: s.p, DFSSteps: s.dfs,
	})
	if err != nil {
		return nil, nil, err
	}
	shards := make([][]bigint.Int, s.p)
	for q := range shards {
		sa, sb := plan.InputShares(q)
		shards[q] = append(append([]bigint.Int(nil), sa...), sb...)
	}
	return plan, shards, nil
}

func randInts(rng *rand.Rand, n, bits int) machine.Ints {
	v := make(machine.Ints, n)
	for i := range v {
		v[i] = bigint.Random(rng, bits)
		if rng.Intn(2) == 0 {
			v[i] = v[i].Neg()
		}
	}
	return v
}

// timeCollective runs reps barrier-aligned collectives inside one machine
// program and returns the median over reps of the slowest rank's time, in
// microseconds.
func timeCollective(ranks int, body func(p *machine.Proc, rep int) error) (float64, error) {
	m, err := machine.New(machine.Config{P: ranks}, nil)
	if err != nil {
		return 0, err
	}
	durs := make([][]time.Duration, collectiveReps)
	for i := range durs {
		durs[i] = make([]time.Duration, ranks)
	}
	if _, err := m.Run(func(p *machine.Proc) error {
		for rep := range durs {
			if _, err := p.Barrier("probe"); err != nil {
				return err
			}
			t0 := time.Now()
			if err := body(p, rep); err != nil {
				return err
			}
			durs[rep][p.ID()] = time.Since(t0)
		}
		return nil
	}); err != nil {
		return 0, err
	}
	slowest := make([]float64, len(durs))
	for i, d := range durs {
		for _, x := range d {
			slowest[i] = max(slowest[i], float64(x)/float64(time.Microsecond))
		}
	}
	return median(slowest), nil
}

// newProbes builds the fixed-shape layer probes. Shapes come from the
// workloads: the Toom leaf, engine, exchange and backend-CPU probes use
// ft_toom_clean's plan, the erasure probes ft_toom_faults' shard layout
// (f = 2), the entry, tile and broadcast probes ft_matmul_faults' tiles, and
// the kernel probe seq_mul_ntt's operand size.
func newProbes(seed int64) ([]probe, error) {
	rng := rand.New(rand.NewSource(seed))
	alg := toom.MustNew(cleanShape.k)

	cleanPlan, cleanShards, err := planShares(cleanShape, seed)
	if err != nil {
		return nil, err
	}
	leafBits := cleanPlan.P() * cleanPlan.Shift()
	la, lb := bigint.Random(rng, leafBits), bigint.Random(rng, leafBits)

	xa, xb := bigint.Random(rng, nttBits), bigint.Random(rng, nttBits)
	entries := randInts(rng, 2, matBits)
	tileDim := matDim / 2
	ta := mat.IntMatFromFlat(tileDim, tileDim, randInts(rng, tileDim*tileDim, matBits))
	tb := mat.IntMatFromFlat(tileDim, tileDim, randInts(rng, tileDim*tileDim, matBits))

	faultsLay, err := ftparallel.NewLayout(faultsShape.p, faultsShape.k, faultsShape.f)
	if err != nil {
		return nil, err
	}
	_, faultsShards, err := planShares(faultsShape, seed)
	if err != nil {
		return nil, err
	}
	code, err := erasure.New(faultsLay.GPrime, faultsShape.f)
	if err != nil {
		return nil, err
	}
	letters := faultsShards[:faultsLay.GPrime] // grid column 0
	redundancy, err := code.Encode(letters)
	if err != nil {
		return nil, err
	}
	surviving := map[int][]bigint.Int{}
	for l := faultsShape.f; l < len(letters); l++ {
		surviving[l] = letters[l]
	}
	red := map[int][]bigint.Int{}
	for i, r := range redundancy {
		red[i] = r
	}

	cleanLay, err := ftparallel.NewLayout(cleanShape.p, cleanShape.k, cleanShape.f)
	if err != nil {
		return nil, err
	}
	cleanCode, err := erasure.New(cleanLay.GPrime, cleanShape.f)
	if err != nil {
		return nil, err
	}
	coder := ftengine.NewCoder(cleanLay, cleanCode, len(cleanShards[0]), 0)

	// One BFS row exchange of ft_toom_clean's column subtree: 3 ranks, each
	// sending 3 digits of the plan's width to every row-mate.
	row := collective.Group{0, 1, 2}
	outgoing := make([]machine.Ints, len(row))
	for j := range outgoing {
		outgoing[j] = randInts(rng, 3, cleanPlan.Shift())
	}
	// ft_toom_clean's operation on each backend, for the CPU it costs there.
	wallShape := cleanShape
	wallShape.backend = machine.BackendWall
	var onBackend [2]*instance
	for i, s := range []toomShape{cleanShape, wallShape} {
		if onBackend[i], err = prepareToom(s, seed, [][]ftmul.Fault{nil}); err != nil {
			return nil, err
		}
	}
	next := 0
	opCPU := func(name string, inst *instance) (map[string]float64, error) {
		c0 := cpuTime()
		err := inst.op(next)
		next++
		return map[string]float64{name: float64(cpuTime()-c0) / float64(time.Millisecond)}, err
	}

	// The broadcast group of matmul tile A00: its owner plus the four
	// Strassen ranks whose operands read it.
	bgroup := collective.Group{0, 1, 2, 3, 4}
	tile := randInts(rng, tileDim*tileDim, matBits)

	return []probe{
		{"toom.leaf_us", func() (map[string]float64, error) {
			var st toom.Stats
			t0 := time.Now()
			alg.MulWithStats(la, lb, &st)
			return map[string]float64{"toom.leaf_us": usSince(t0), "toom.leaf_wordops": float64(st.WordOps)}, nil
		}},
		{"bigint.leaf_ladder_us", func() (map[string]float64, error) {
			t0 := time.Now()
			la.Mul(lb)
			return map[string]float64{"bigint.leaf_ladder_us": usSince(t0)}, nil
		}},
		{"bigint.mul_ms", func() (map[string]float64, error) {
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			t0 := time.Now()
			xa.Mul(xb)
			ms := msSince(t0)
			runtime.ReadMemStats(&m1)
			return map[string]float64{"bigint.mul_ms": ms, "bigint.mul_allocs": float64(m1.Mallocs - m0.Mallocs)}, nil
		}},
		{"bigint.entry_mul_ns", func() (map[string]float64, error) {
			t0 := time.Now()
			for i := 0; i < entryBatch; i++ {
				entries[0].Mul(entries[1])
			}
			return map[string]float64{"bigint.entry_mul_ns": float64(time.Since(t0)) / entryBatch}, nil
		}},
		{"mat.tile_mul_ms", func() (map[string]float64, error) {
			t0 := time.Now()
			ta.MulNaive(tb)
			return map[string]float64{"mat.tile_mul_ms": msSince(t0)}, nil
		}},
		{"erasure.encode_us", func() (map[string]float64, error) {
			t0 := time.Now()
			if _, err := code.Encode(letters); err != nil {
				return nil, err
			}
			return map[string]float64{"erasure.encode_us": usSince(t0)}, nil
		}},
		{"erasure.decode_us", func() (map[string]float64, error) {
			t0 := time.Now()
			got, err := code.Decode(surviving, red)
			us := usSince(t0)
			if err != nil {
				return nil, err
			}
			for l := 0; l < faultsShape.f; l++ {
				for j, v := range got[l] {
					if !v.Equal(letters[l][j]) {
						return nil, fmt.Errorf("erasure decode: %w", errWrong)
					}
				}
			}
			return map[string]float64{"erasure.decode_us": us}, nil
		}},
		{"ftengine.run_noop_us", func() (map[string]float64, error) {
			t0 := time.Now()
			_, err := ftengine.Run(noopWorkload{shards: cleanShards}, ftengine.RunOptions{Layout: cleanLay, Coder: coder})
			return map[string]float64{"ftengine.run_noop_us": usSince(t0)}, err
		}},
		{"collective.exchange_us", func() (map[string]float64, error) {
			us, err := timeCollective(len(row), func(p *machine.Proc, rep int) error {
				_, err := collective.Exchange(p, row, fmt.Sprintf("x%d", rep), outgoing)
				return err
			})
			return map[string]float64{"collective.exchange_us": us}, err
		}},
		{"collective.broadcast_us", func() (map[string]float64, error) {
			us, err := timeCollective(len(bgroup), func(p *machine.Proc, rep int) error {
				var mine machine.Ints
				if p.ID() == bgroup[0] {
					mine = tile
				}
				_, err := collective.Broadcast(p, bgroup, 0, fmt.Sprintf("b%d", rep), mine)
				return err
			})
			return map[string]float64{"collective.broadcast_us": us}, err
		}},
		{"machine.run_empty_us", func() (map[string]float64, error) {
			t0 := time.Now()
			m, err := machine.New(machine.Config{P: cleanLay.Total()}, nil)
			if err != nil {
				return nil, err
			}
			_, err = m.Run(func(p *machine.Proc) error {
				_, err := p.Barrier("probe")
				return err
			})
			return map[string]float64{"machine.run_empty_us": usSince(t0)}, err
		}},
		{"simnet.op_cpu_ms", func() (map[string]float64, error) { return opCPU("simnet.op_cpu_ms", onBackend[0]) }},
		{"wallnet.op_cpu_ms", func() (map[string]float64, error) { return opCPU("wallnet.op_cpu_ms", onBackend[1]) }},
	}, nil
}

// rankPhase is one rank's phase interval, in seconds of the run's clock.
type rankPhase struct {
	rank     int
	name     string
	from, to float64
}

// rankPhases splits each marked rank's run at its Marks: the stretch before
// the first mark is the FT prologue, the stretch after the last one the
// epilogue, and each stretch in between belongs to the phase its closing
// mark names (eval@, mul@ closes the leaf recursion, interp@). Ranks
// without marks (linear-code processors) contribute no phases.
func rankPhases(rep *machine.Report) []rankPhase {
	var out []rankPhase
	for r, marks := range rep.Marks {
		if len(marks) == 0 {
			continue
		}
		prev := 0.0
		for i, m := range marks {
			name := "ftparallel.prologue"
			if i > 0 {
				name = phaseOf(m.Label)
			}
			out = append(out, rankPhase{rank: r, name: name, from: prev, to: m.Clock})
			prev = m.Clock
		}
		out = append(out, rankPhase{rank: r, name: "ftparallel.epilogue", from: prev, to: rep.PerProc[r].Clock})
	}
	return out
}

func phaseOf(label string) string {
	switch {
	case strings.HasPrefix(label, "eval@"):
		return "parallel.eval"
	case strings.HasPrefix(label, "mul@"):
		return "parallel.leaf"
	default:
		return "parallel.interp"
	}
}

// phaseMetrics reduces one run's phases to the per-layer metrics: each
// phase's per-rank total, maximised over ranks, and the spread between the
// median and the last rank to exit.
func phaseMetrics(rep *machine.Report, phases []rankPhase) map[string]float64 {
	perRank := map[string]map[int]float64{}
	for _, ph := range phases {
		if perRank[ph.name] == nil {
			perRank[ph.name] = map[int]float64{}
		}
		perRank[ph.name][ph.rank] += ph.to - ph.from
	}
	out := map[string]float64{}
	for _, name := range []string{"parallel.eval", "parallel.leaf", "parallel.interp", "ftparallel.prologue", "ftparallel.epilogue"} {
		var worst float64
		for _, s := range perRank[name] {
			worst = max(worst, s)
		}
		out[name+"_ms"] = worst * 1e3
	}
	exits := make([]float64, len(rep.PerProc))
	var last float64
	for i, st := range rep.PerProc {
		exits[i] = st.Clock
		last = max(last, st.Clock)
	}
	out["machine.rank_wait_ms"] = (last - median(exits)) * 1e3
	return out
}

// tracedOps is the traced pass length: whole input cycles, at least
// minTracedOps operations.
func tracedOps(cycle int) int {
	return cycle * ((minTracedOps + cycle - 1) / cycle)
}

// runLayers is the traced run: a pass of the workload's operations through
// the internal entry points (counts, retained heap, leaked goroutines),
// then rounds of layer probes and wall-backend phase probes until the
// run's seconds are spent. It writes the Chrome trace file at the end.
func runLayers(w workload, opts options) (result, map[string]any, error) {
	deadline := time.Now().Add(time.Duration(opts.seconds) * time.Second)
	tr := newTracer()
	inst, err := w.prepare(opts.seed)
	if err != nil {
		return result{}, nil, err
	}
	probes, err := newProbes(opts.seed)
	if err != nil {
		return result{}, nil, err
	}
	phaseInst, err := prepareToomFaults(opts.seed)
	if err != nil {
		return result{}, nil, err
	}
	var attempted, failed int
	count := func(what string, err error) bool {
		attempted++
		if err != nil {
			failed++
			fmt.Fprintf(os.Stderr, "%s: %v\n", what, err)
			return false
		}
		return true
	}

	// One untraced op first, so the traced pass does not time the cold op.
	count("warm-up op", inst.op(0))
	// Everything the pass itself keeps is allocated before the heap is
	// measured, so the retained bytes are the library's alone.
	n := tracedOps(inst.cycle)
	vals := make(map[string]float64, len(layerMetrics))
	for _, d := range layerMetrics {
		vals[d.name] = 0
	}
	type opSpan struct {
		from, to time.Time
		planned  int
	}
	spans := make([]opSpan, 0, n)
	var faults, recovered, dead, faultedOps, repaired int
	var barriers float64
	heap0 := settledHeap()
	base := runtime.NumGoroutine()
	for i := 0; i < n; i++ {
		t0 := time.Now()
		c, err := inst.traced(i)
		spans = append(spans, opSpan{t0, time.Now(), c.planned})
		ok := count("traced op", err)
		if c.planned > 0 {
			faultedOps++
			if ok {
				repaired++
			}
		}
		if !ok || c.rep == nil {
			continue
		}
		faults += len(c.rep.Faults)
		recovered += c.recovered
		dead += c.dead
		var bmax int64
		for _, st := range c.rep.PerProc {
			bmax = max(bmax, st.Barriers)
		}
		barriers += float64(bmax)
		vals["machine.crit_f"] += float64(c.rep.F)
		vals["machine.crit_bw"] += float64(c.rep.BW)
		vals["machine.crit_l"] += float64(c.rep.L)
		vals["machine.crit_bw_in"] += float64(c.rep.BWIn)
		vals["machine.total_f"] += float64(c.rep.TotalF)
		vals["machine.total_bw"] += float64(c.rep.TotalBW)
		vals["machine.total_l"] += float64(c.rep.TotalL)
		vals["machine.model_time"] += c.modelTime
	}
	for _, k := range []string{"machine.crit_f", "machine.crit_bw", "machine.crit_l", "machine.crit_bw_in",
		"machine.total_f", "machine.total_bw", "machine.total_l", "machine.model_time"} {
		vals[k] /= float64(n)
	}
	vals["machine.barriers_max"] = barriers / float64(n)
	vals["faultinject.faults_per_op"] = float64(faults) / float64(n)
	vals["ftengine.recovered_per_op"] = float64(recovered) / float64(n)
	vals["ftengine.dead_per_op"] = float64(dead) / float64(n)
	if faultedOps > 0 {
		vals["ftengine.repair_ratio"] = float64(repaired) / float64(faultedOps)
	}
	quiesce(base)
	vals["machine.goroutines_leaked"] = float64(max(0, runtime.NumGoroutine()-base))
	vals["runtime.retained_bytes_per_op"] = (settledHeap() - heap0) / float64(n)
	for i, sp := range spans {
		tr.span(w.name, "op", pidBench, tidOps, sp.from, sp.to, map[string]any{"i": i, "planned_faults": sp.planned})
	}

	// Tracing overhead: the traced entry point with its span against the
	// public API without one, alternating so both see the same heap.
	var tracedLat, plainLat []float64
	for i := 0; i < minTracedOps; i++ {
		t0 := time.Now()
		err := inst.op(i)
		plainLat = append(plainLat, float64(time.Since(t0)))
		count(fmt.Sprintf("untraced op %d", i), err)
		t0 = time.Now()
		_, err = inst.traced(i)
		t1 := time.Now()
		tr.span(w.name, "op", pidBench, tidOps, t0, t1, map[string]any{"i": i, "overhead_pair": true})
		tracedLat = append(tracedLat, float64(t1.Sub(t0)))
		count(fmt.Sprintf("traced op %d", i), err)
	}

	samples := map[string][]float64{}
	for round := 0; round < 3 || time.Now().Before(deadline); round++ {
		for _, pr := range probes {
			t0 := time.Now()
			v, err := pr.call()
			tr.span(pr.name, "probe", pidBench, tidProbe, t0, time.Now(), nil)
			if !count(pr.name, err) {
				continue
			}
			for k, x := range v {
				samples[k] = append(samples[k], x)
			}
		}
		t0 := time.Now()
		c, err := phaseInst.traced(round)
		tr.span("ft_toom_faults", "op", pidBench, tidProbe, t0, time.Now(), map[string]any{"phase_probe": round})
		if !count(fmt.Sprintf("phase probe %d", round), err) {
			continue
		}
		phases := rankPhases(c.rep)
		for k, x := range phaseMetrics(c.rep, phases) {
			samples[k] = append(samples[k], x)
		}
		if round < tracedPhaseCalls {
			// Rank clocks start at machine creation, just after t0.
			for _, ph := range phases {
				tr.span(ph.name, "phase", pidRanks, ph.rank,
					t0.Add(time.Duration(ph.from*float64(time.Second))), t0.Add(time.Duration(ph.to*float64(time.Second))),
					map[string]any{"plan": round % phaseInst.cycle})
			}
		}
	}
	for k, s := range samples {
		vals[k] = median(s)
	}
	if err := tr.write(opts.traceOut); err != nil {
		return result{}, nil, fmt.Errorf("writing trace: %w", err)
	}
	info := map[string]any{
		"workload":            w.name,
		"traced_ops":          n,
		"trace_file":          opts.traceOut,
		"trace_overhead_frac": median(tracedLat)/median(plainLat) - 1,
		"probe_rounds":        len(samples["toom.leaf_us"]),
		"peak_rss_bytes":      peakRSS(),
	}
	return result{
		Correct:   failed == 0,
		Attempted: attempted,
		Failed:    failed,
		Metrics:   metricsFrom(layerMetrics, vals),
	}, info, nil
}

// settledHeap is the live heap after two collections: the second empties
// the sync.Pool victim caches the first one fills, so pooled scratch does not
// count as retained.
func settledHeap() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc)
}

// peakRSS is the process's peak resident set (VmHWM), 0 where /proc is
// unavailable.
func peakRSS() int64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			var kb int64
			fmt.Sscanf(strings.TrimSpace(v), "%d", &kb)
			return kb * 1024
		}
	}
	return 0
}
