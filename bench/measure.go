package main

import (
	"fmt"
	"math/big"
	"math/rand"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

const (
	// A run alternates workload slices with shorter reference slices, so
	// every workload slice is normalised by the host speed measured right
	// before and after it.
	workSlice   = 500 * time.Millisecond
	refSliceDur = 250 * time.Millisecond
	// minTail is how many latency samples must lie beyond p90; a run with
	// fewer (under 100 samples) is invalid.
	minTail = 10
	// setupReps fresh processes each run one cold operation; setup_s is
	// the median of their set-up CPU times. They run spread over the run,
	// between slices, so that a burst of host load reaches few of them.
	setupReps = 9
	// setupChildEnv makes the binary act as one setup_s child process.
	setupChildEnv = "FTBENCH_SETUP_CHILD"
)

// percentile returns the nearest-rank pct-th percentile of sorted values:
// the smallest value with at least pct percent of the samples at or below
// it. Integer percent keeps the rank exact (no float rounding at n = 100).
func percentile(sorted []float64, pct int) float64 {
	rank := (pct*len(sorted) + 99) / 100
	if rank < 1 {
		rank = 1
	}
	return sorted[rank-1]
}

// beyond returns how many of n samples lie above the nearest-rank pct-th
// percentile.
func beyond(n, pct int) int { return n - (pct*n+99)/100 }

func median(vals []float64) float64 {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// refUnit is the time one core spends on one reference multiply, given the
// reference rate of procs cores in multiplies per second.
func refUnit(rate float64, procs int) float64 { return float64(procs) / rate }

// slice is one timed workload slice: its op latencies and the reference
// rate measured around it (mean of the reference slices either side).
type slice struct {
	latencies []time.Duration
	dur       time.Duration
	refRate   float64
}

// normalized holds the host-normalised end-to-end numbers of one run.
type normalized struct {
	throughputRef float64 // verified ops per 1000 reference multiplies
	p50Ref        float64 // op latency in reference units
	p90Ref        float64
	samples       int
}

// normalize turns workload slices into reference-relative metrics: each op
// latency is divided by its slice's ref_unit, and throughput is ops/s over
// ref_rate per slice, reported as the median over slices.
func normalize(slices []slice, procs int) normalized {
	var lat, thr []float64
	for _, s := range slices {
		unit := refUnit(s.refRate, procs)
		for _, l := range s.latencies {
			lat = append(lat, l.Seconds()/unit)
		}
		if s.dur > 0 {
			thr = append(thr, float64(len(s.latencies))/s.dur.Seconds()/s.refRate*1000)
		}
	}
	sort.Float64s(lat)
	out := normalized{samples: len(lat)}
	if len(lat) > 0 {
		out.p50Ref = percentile(lat, 50)
		out.p90Ref = percentile(lat, 90)
	}
	if len(thr) > 0 {
		out.throughputRef = median(thr)
	}
	return out
}

// refBits is the operand size of the reference multiply. One size serves
// every workload, so throughput_ref has one unit; on the benchmark host a
// 2^16-bit reference tracked seq_mul_ntt at least as well as a 2^20-bit one.
const refBits = 1 << 16

// refOperands are the fixed math/big operands of a reference slice; they do
// not depend on the seed, so every run measures the same reference.
func refOperands() (*big.Int, *big.Int) {
	rng := rand.New(rand.NewSource(0))
	lim := new(big.Int).Lsh(big.NewInt(1), refBits)
	x, y := new(big.Int).Rand(rng, lim), new(big.Int).Rand(rng, lim)
	return x.SetBit(x, refBits-1, 1), y.SetBit(y, refBits-1, 1)
}

// refSlice runs math/big multiplies on GOMAXPROCS goroutines for d and
// returns the summed rate in multiplies per second.
func refSlice(x, y *big.Int, d time.Duration) float64 {
	procs := runtime.GOMAXPROCS(0)
	rates := make([]float64, procs)
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(d)
	for g := range rates {
		wg.Add(1)
		go func() {
			defer wg.Done()
			z := new(big.Int)
			for n := 1; ; n++ {
				z.Mul(x, y)
				if now := time.Now(); !now.Before(deadline) {
					rates[g] = float64(n) / now.Sub(start).Seconds()
					return
				}
			}
		}()
	}
	wg.Wait()
	var sum float64
	for _, r := range rates {
		sum += r
	}
	return sum
}

// cpuTime is the process's user plus system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// quiesce waits up to a second for the goroutine count to fall back to
// base. A goroutine the program leaked would compete with the reference
// slice and inflate every normalised metric, so a run that fails this is
// invalid.
func quiesce(base int) bool {
	for i := 0; i < 100; i++ {
		if runtime.NumGoroutine() <= base {
			return true
		}
		time.Sleep(10 * time.Millisecond)
	}
	return false
}

// e2eRun is the outcome of one untraced measurement run.
type e2eRun struct {
	attempted, failed int
	norm              normalized
	allocsPerOp       float64
	bytesPerOp        float64
	refRates          []float64
	rawOpsPerSec      float64
	rawP50ms          float64
	rawP90ms          float64
	cpuMsPerOp        float64   // process CPU time over the workload slices
	setups            []float64 // set-up child times, seconds
	invalid           []string
}

// measureE2E runs the closed loop: one caller issues ops back to back in
// workload slices, alternating with reference slices, for pairs workload
// slices. Op errors and wrong products are counted as failed and their
// latencies are not sampled. setup, when not nil, starts one set-up child;
// setupReps of them run spread between the slices.
func measureE2E(inst *instance, pairs int, setup func() (float64, error)) (e2eRun, error) {
	var run e2eRun
	procs := runtime.GOMAXPROCS(0)
	x, y := refOperands()
	next := 0
	doOp := func() (time.Duration, bool) {
		t0 := time.Now()
		err := inst.op(next)
		d := time.Since(t0)
		next++
		run.attempted++
		if err != nil {
			run.failed++
			fmt.Fprintf(os.Stderr, "op %d: %v\n", next-1, err)
			return d, false
		}
		return d, true
	}
	// Warm-up: lazy set-up (tables, pools, heap growth) finishes before
	// timing; its cost is what setup_s reports. math/big sizes its scratch
	// on the first reference multiply.
	for i := 0; i < 2; i++ {
		doOp()
	}
	refSlice(x, y, refSliceDur/5)
	runtime.GC()
	base := runtime.NumGoroutine()

	refBefore := func() float64 {
		runtime.GC()
		if !quiesce(base) {
			run.invalid = append(run.invalid, fmt.Sprintf("goroutines %d above baseline %d before a reference slice", runtime.NumGoroutine(), base))
		}
		r := refSlice(x, y, refSliceDur)
		run.refRates = append(run.refRates, r)
		return r
	}

	var ms0, ms1 runtime.MemStats
	var mallocs, bytes uint64
	var wallOps int
	var wallDur, cpu time.Duration
	slices := make([]slice, pairs)
	prev := refBefore()
	for i := range slices {
		runtime.ReadMemStats(&ms0)
		cpu0 := cpuTime()
		start := time.Now()
		for time.Since(start) < workSlice {
			if d, ok := doOp(); ok {
				slices[i].latencies = append(slices[i].latencies, d)
			}
		}
		slices[i].dur = time.Since(start)
		cpu += cpuTime() - cpu0
		runtime.ReadMemStats(&ms1)
		mallocs += ms1.Mallocs - ms0.Mallocs
		bytes += ms1.TotalAlloc - ms0.TotalAlloc
		wallOps += len(slices[i].latencies)
		wallDur += slices[i].dur
		for setup != nil && len(run.setups)*pairs < (i+1)*setupReps {
			v, err := setup()
			if err != nil {
				return run, err
			}
			run.setups = append(run.setups, v)
		}
		after := refBefore()
		slices[i].refRate = (prev + after) / 2
		prev = after
	}

	run.norm = normalize(slices, procs)
	if b := beyond(run.norm.samples, 90); b < minTail {
		run.invalid = append(run.invalid, fmt.Sprintf("%d latency samples leave %d beyond p90, want at least %d", run.norm.samples, b, minTail))
	}
	measured := run.attempted - 2
	if measured > 0 {
		run.allocsPerOp = float64(mallocs) / float64(measured)
		run.bytesPerOp = float64(bytes) / float64(measured)
		run.cpuMsPerOp = float64(cpu) / float64(time.Millisecond) / float64(measured)
	}
	run.rawOpsPerSec = float64(wallOps) / wallDur.Seconds()
	var raw []float64
	for _, s := range slices {
		for _, l := range s.latencies {
			raw = append(raw, float64(l)/float64(time.Millisecond))
		}
	}
	sort.Float64s(raw)
	if len(raw) > 0 {
		run.rawP50ms = percentile(raw, 50)
		run.rawP90ms = percentile(raw, 90)
	}
	return run, nil
}

// setupOnce starts a fresh copy of this binary that runs its first (cold)
// operation, and returns the set-up CPU seconds it reports.
func setupOnce(workload string, seed int64) (float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return 0, err
	}
	cmd := exec.Command(exe, "--workload", workload, "--seed", strconv.FormatInt(seed, 10))
	cmd.Env = append(os.Environ(), setupChildEnv+"=1")
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return 0, fmt.Errorf("setup child: %w", err)
	}
	fields := strings.Fields(string(out))
	if len(fields) == 0 {
		return 0, fmt.Errorf("setup child printed nothing")
	}
	v, err := strconv.ParseFloat(fields[len(fields)-1], 64)
	if err != nil {
		return 0, fmt.Errorf("setup child output: %w", err)
	}
	return v, nil
}

// setupChild is the body of one setup_s child: the CPU time, over all
// threads, the process spends from main entry (cpu0) to the end of its first
// operation, minus the input generation in between. CPU time rather than
// elapsed time, because on a shared host the elapsed time of a cold start
// swings with other tenants' load far more than the work done. It prints
// the seconds on stdout.
func setupChild(cpu0 time.Duration, args []string) int {
	opts, err := parseFlags(args)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	w, err := workloadByName(opts.workload)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	genStart := cpuTime()
	inst, err := w.prepare(opts.seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	gen := cpuTime() - genStart
	if err := inst.op(0); err != nil {
		fmt.Fprintln(os.Stderr, "cold op:", err)
		return 1
	}
	fmt.Println(strconv.FormatFloat((cpuTime() - cpu0 - gen).Seconds(), 'g', -1, 64))
	return 0
}
