// Command perfbench is the repository benchmark: it runs one workload
// (replay-pr or evict-sssp, see README.md) for a fixed measuring time,
// checks every output, and prints one JSON result line.
//
//	bash perfbench/run.sh --workload replay-pr --seed 42 --seconds 40 --trace 0
//
// run.sh builds this program and cmd/sweepd from the checkout it is run
// in; everything the run writes stays under .bench_build in that
// checkout. With --trace 0 the result carries the end-to-end metrics;
// with --trace 1 it carries the per-layer metrics, measured by a separate
// run that times calls into each layer, profiles the simulations and
// reads the counters the program exports.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// host is the fingerprint every run records: figures from hosts whose
// fingerprints differ are not comparable.
type host struct {
	CPU        string `json:"cpu"`
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
}

func fingerprint() host {
	h := host{CPU: "unknown", NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Go: runtime.Version()}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if name, val, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(name) == "model name" {
				h.CPU = strings.TrimSpace(val)
				break
			}
		}
	}
	return h
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	flag.Uint64Var(&o.seed, "seed", 42, "base seed of the run's graphs")
	flag.Float64Var(&o.seconds, "seconds", 10, "measuring time")
	traceFlag := flag.Int("trace", 0, "1 = traced run reporting the per-layer metrics")
	flag.BoolVar(&o.smoke, "smoke", false, "tiny inputs and one repetition (the benchmark's own tests)")
	flag.StringVar(&o.sweepd, "sweepd", filepath.Join(".bench_build", "bin", "sweepd"), "sweepd binary")
	flag.StringVar(&o.work, "workdir", ".bench_build", "directory for the run's stores, logs and spans")
	flag.Parse()
	o.trace = *traceFlag == 1
	if *traceFlag != 0 && *traceFlag != 1 {
		fail(fmt.Errorf("--trace must be 0 or 1"))
	}
	if o.seconds <= 0 {
		fail(fmt.Errorf("--seconds must be positive"))
	}
	wl, ok := workloads[o.workload]
	if !ok {
		fail(fmt.Errorf("unknown --workload %q (have %s)", o.workload, strings.Join(workloadNames(), ", ")))
	}
	if _, err := os.Stat(o.sweepd); err != nil {
		fail(fmt.Errorf("sweepd binary: %w", err))
	}

	h := fingerprint()
	line, _ := json.Marshal(map[string]any{"workload": o.workload, "seed": o.seed, "trace": o.trace, "smoke": o.smoke, "host": h})
	fmt.Printf("run %s\n", line)

	res, err := run(o, wl, h)
	if err != nil {
		fail(err)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fail(err)
	}
	fmt.Println(string(out))
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}
