// Package benchenv collects the environment provenance recorded alongside
// benchmark results (the bench/ module): enough machine context to judge
// whether two measurements are comparable.
// Every probe is best-effort — on platforms without /proc or cpufreq the
// corresponding fields are simply empty.
package benchenv

import (
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// Env is the environment block embedded in benchmark results.
type Env struct {
	CPUModel   string  `json:"cpu_model,omitempty"`
	NumCPU     int     `json:"num_cpu"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	GOOS       string  `json:"goos"`
	GOARCH     string  `json:"goarch"`
	LoadAvg1   float64 `json:"load_avg_1,omitempty"`
	LoadAvg5   float64 `json:"load_avg_5,omitempty"`
	LoadAvg15  float64 `json:"load_avg_15,omitempty"`
	// Governor is the cpufreq scaling governor of cpu0 when readable
	// ("performance", "powersave", …): frequency scaling is the most common
	// reason two runs on the same machine disagree.
	Governor string `json:"governor,omitempty"`
	Date     string `json:"date"`
}

// Collect gathers the environment block for the current process.
func Collect() Env {
	e := Env{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		CPUModel:   cpuModel(),
		Governor:   readTrimmed("/sys/devices/system/cpu/cpu0/cpufreq/scaling_governor"),
		Date:       time.Now().UTC().Format(time.RFC3339),
	}
	e.LoadAvg1, e.LoadAvg5, e.LoadAvg15 = loadAvg()
	return e
}

// cpuModel returns the first "model name" entry of /proc/cpuinfo.
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return ""
	}
	for _, line := range strings.Split(string(data), "\n") {
		if name, ok := strings.CutPrefix(line, "model name"); ok {
			if _, v, ok := strings.Cut(name, ":"); ok {
				return strings.TrimSpace(v)
			}
		}
	}
	return ""
}

// loadAvg returns the 1/5/15-minute load averages from /proc/loadavg.
func loadAvg() (l1, l5, l15 float64) {
	data, err := os.ReadFile("/proc/loadavg")
	if err != nil {
		return 0, 0, 0
	}
	fields := strings.Fields(string(data))
	if len(fields) < 3 {
		return 0, 0, 0
	}
	l1, _ = strconv.ParseFloat(fields[0], 64)
	l5, _ = strconv.ParseFloat(fields[1], 64)
	l15, _ = strconv.ParseFloat(fields[2], 64)
	return l1, l5, l15
}

func readTrimmed(path string) string {
	data, err := os.ReadFile(path)
	if err != nil {
		return ""
	}
	return strings.TrimSpace(string(data))
}
