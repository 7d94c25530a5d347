// Command bench is the repository benchmark: four fault-tolerant
// multiplication workloads, host-normalised end-to-end metrics, and
// per-layer metrics from a separate traced pass. Run one workload per
// invocation from the repository root:
//
//	bash bench/run.sh --workload ft_toom_clean --seed 1 --seconds 25 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. --trace 0 reports the end-to-end
// metrics, --trace 1 the per-layer ones (and writes a Chrome trace-event
// file). Provenance and informational numbers go to standard error. See
// README.md for the workloads, the metrics and the comparison protocol.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/benchenv"
	"repro/internal/bigint"
)

// metricDef names one reported metric and its unit; the tables below must
// match BENCHMARK.json (a test checks it).
type metricDef struct{ name, unit string }

var e2eMetrics = []metricDef{
	{"throughput_ref", "ops/kref"},
	{"latency_p50_ref", "ref"},
	{"latency_p90_ref", "ref"},
	{"allocs_per_op", "count"},
	{"bytes_per_op", "B"},
	{"setup_s", "s"},
}

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    int
	traceOut string
}

func parseFlags(args []string) (options, error) {
	var o options
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	fs.StringVar(&o.workload, "workload", "", "workload name")
	fs.Int64Var(&o.seed, "seed", 1, "input and fault-plan seed")
	fs.IntVar(&o.seconds, "seconds", 25, "measured seconds")
	fs.IntVar(&o.trace, "trace", 0, "0: end-to-end metrics; 1: per-layer metrics and a trace file")
	fs.StringVar(&o.traceOut, "trace-out", "", "trace file (default .bench_build/trace_<workload>_<seed>.json)")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	if o.seconds < 1 {
		return o, fmt.Errorf("--seconds must be at least 1")
	}
	if o.trace != 0 && o.trace != 1 {
		return o, fmt.Errorf("--trace must be 0 or 1")
	}
	if o.traceOut == "" {
		o.traceOut = filepath.Join(".bench_build", fmt.Sprintf("trace_%s_%d.json", o.workload, o.seed))
	}
	return o, nil
}

// checkLadder refuses to run when a calibration profile could change the
// kernel crossover ladder: parent and change would then run different
// kernels and their numbers would not compare.
func checkLadder() error {
	if p := os.Getenv("FTMUL_CALIBRATION"); p != "" {
		return fmt.Errorf("$FTMUL_CALIBRATION is set (%s); unset it so every run uses the compiled-in ladder", p)
	}
	if _, err := os.Stat("calibration.json"); err == nil {
		return errors.New("./calibration.json exists; remove it so every run uses the compiled-in ladder")
	}
	return nil
}

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

// emit prints the result as the last line of stdout, refusing a metric that
// is not a finite number.
func emit(stdout io.Writer, res result) error {
	for name, m := range res.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return fmt.Errorf("metric %s is %v", name, m.Value)
		}
	}
	b, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(stdout, "%s\n", b)
	return err
}

func provenance() map[string]any {
	return map[string]any{
		"env":        benchenv.Collect(),
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go_version": runtime.Version(),
		"ladder":     bigint.CurrentLadder(),
	}
}

// run executes one benchmark invocation and returns the exit code.
func run(args []string, stdout, stderr io.Writer) int {
	opts, err := parseFlags(args)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	w, err := workloadByName(opts.workload)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	if err := checkLadder(); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	var res result
	var info map[string]any
	var invalid []string
	if opts.trace == 1 {
		res, info, err = runLayers(w, opts)
	} else {
		res, info, invalid, err = runE2E(w, opts)
	}
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	info["provenance"] = provenance()
	if b, err := json.Marshal(info); err == nil {
		fmt.Fprintf(stderr, "info: %s\n", b)
	}
	if len(invalid) > 0 {
		fmt.Fprintf(stderr, "bench: invalid run, not scored: %v\n", invalid)
		return 1
	}
	if err := emit(stdout, res); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	return 0
}

// runE2E measures the end-to-end metrics. It also returns why the run is
// invalid, if its sample count or quiescence check failed; such a run is
// not scored.
func runE2E(w workload, opts options) (result, map[string]any, []string, error) {
	inst, err := w.prepare(opts.seed)
	if err != nil {
		return result{}, nil, nil, err
	}
	pairs := max(1, int(time.Duration(opts.seconds)*time.Second/(workSlice+refSliceDur)))
	r, err := measureE2E(inst, pairs, func() (float64, error) { return setupOnce(w.name, opts.seed) })
	if err != nil {
		return result{}, nil, nil, err
	}
	info := map[string]any{
		"workload":         w.name,
		"samples":          r.norm.samples,
		"raw_ops_per_s":    r.rawOpsPerSec,
		"raw_p50_ms":       r.rawP50ms,
		"raw_p90_ms":       r.rawP90ms,
		"cpu_ms_per_op":    r.cpuMsPerOp,
		"ref_bits":         refBits,
		"ref_rate_median":  median(r.refRates),
		"peak_rss_bytes":   peakRSS(),
		"setup_s_children": r.setups,
	}
	vals := map[string]float64{
		"throughput_ref":  r.norm.throughputRef,
		"latency_p50_ref": r.norm.p50Ref,
		"latency_p90_ref": r.norm.p90Ref,
		"allocs_per_op":   r.allocsPerOp,
		"bytes_per_op":    r.bytesPerOp,
		"setup_s":         median(r.setups),
	}
	return result{
		Correct:   r.failed == 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   metricsFrom(e2eMetrics, vals),
	}, info, r.invalid, nil
}

func metricsFrom(defs []metricDef, vals map[string]float64) map[string]metricOut {
	out := make(map[string]metricOut, len(defs))
	for _, d := range defs {
		out[d.name] = metricOut{Value: vals[d.name], Unit: d.unit}
	}
	return out
}

func main() {
	if os.Getenv(setupChildEnv) != "" {
		os.Exit(setupChild(cpuTime(), os.Args[1:]))
	}
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}
