package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime/pprof"
	"strings"
	"testing"
	"time"

	"uvmsim/internal/metrics"
	"uvmsim/internal/server"
)

// validStats is a hand-made simulation output that passes every check
// against validFacts.
func validStats() (*metrics.Stats, traceFacts) {
	s := &metrics.Stats{
		Instrs: 100, Migrations: 10, Prefetches: 3, Evictions: 4, PrematureEv: 1,
		Batches: []metrics.Batch{
			{Start: 0, FirstMigration: 5, End: 10, Pages: 6, Evictions: 1},
			{Start: 12, FirstMigration: 12, End: 20, Pages: 4, Evictions: 3},
		},
	}
	return s, traceFacts{accesses: 100, pages: 8, capacity: 6}
}

func validWarm() (*warmSample, map[string][]byte) {
	sum := &metrics.Summary{Cycles: 1234, Instrs: 100}
	cold := map[string][]byte{"k": summaryJSON(sum)}
	st := server.GridStatus{ID: "g0002", Total: 1, Completed: 1, Done: true,
		Jobs: []server.JobStatus{{ID: "PR BASELINE", Key: "k", Status: "stored"}}}
	c := storeCounters{runs: 1, builds: 1}
	return &warmSample{status: st, results: []server.JobResult{{ID: "PR BASELINE", Key: "k", Summary: sum}}, before: c, after: c}, cold
}

func TestChecksAcceptValidOutputs(t *testing.T) {
	s, f := validStats()
	if err := checkSim(s, nil, f); err != nil {
		t.Fatal(err)
	}
	w, cold := validWarm()
	if err := checkWarm(w.status, w.results, cold, w.before, w.after); err != nil {
		t.Fatal(err)
	}
}

// TestSelfTestRejectsDoctoredOutputs: the checks reject every doctored
// output of the self-test.
func TestSelfTestRejectsDoctoredOutputs(t *testing.T) {
	s, f := validStats()
	w, cold := validWarm()
	if err := selfTest(s, f, w, cold); err != nil {
		t.Fatal(err)
	}
	s.Batches = s.Batches[:1]
	if err := selfTest(s, f, nil, nil); err == nil {
		t.Fatal("self-test ran without the two batches its overlap case needs")
	}
}

func TestCheckStatsRejects(t *testing.T) {
	for name, doctor := range map[string]func(*metrics.Stats){
		"prefetches over migrations": func(s *metrics.Stats) { s.Prefetches = s.Migrations + 1 },
		"premature over evictions":   func(s *metrics.Stats) { s.PrematureEv = s.Evictions + 1 },
		"batch pages sum":            func(s *metrics.Stats) { s.Batches[0].Pages++ },
		"batch evictions sum":        func(s *metrics.Stats) { s.Batches[1].Evictions++ },
		"first migration before start": func(s *metrics.Stats) {
			s.Batches[1].FirstMigration = s.Batches[1].Start - 1
		},
	} {
		s, f := validStats()
		s.Batches = append([]metrics.Batch(nil), s.Batches...)
		doctor(s)
		if err := checkSim(s, nil, f); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestCheckFig11(t *testing.T) {
	var results []server.JobResult
	add := func(wl, policy string, cycles uint64) {
		results = append(results, server.JobResult{ID: wl + " " + policy + " r0.50", Workload: wl,
			Summary: &metrics.Summary{Cycles: cycles}})
	}
	for _, wl := range []string{"A", "B"} {
		add(wl, "BASELINE", 1000)
		add(wl, "BASELINE+PCIeC", 800)
		add(wl, "TO", 2000)
	}
	table := "Workload,BASELINE,+PCIeC,TO\nA,1.00,1.25,0.50\nB,1.00,1.25,0.50\nAVERAGE,1.00,1.25,0.50\n"
	if err := checkFig11(table, results); err != nil {
		t.Fatal(err)
	}
	for _, bad := range []string{
		strings.Replace(table, "A,1.00,1.25", "A,1.00,1.26", 1),
		strings.Replace(table, "AVERAGE,1.00,1.25,0.50", "AVERAGE,1.00,1.25,0.60", 1),
		strings.Replace(table, "B,1.00,1.25,0.50\n", "", 1),
	} {
		if err := checkFig11(bad, results); err == nil {
			t.Errorf("accepted doctored table:\n%s", bad)
		}
	}
}

//go:noinline
func spin(d time.Duration) int {
	n := 0
	for start := time.Now(); time.Since(start) < d; n++ {
	}
	return n
}

func TestProfileBuckets(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Fatal(err)
	}
	spin(300 * time.Millisecond)
	pprof.StopCPUProfile()
	b := newBuckets()
	if err := b.add(buf.Bytes()); err != nil {
		t.Fatal(err)
	}
	if b.total <= 0 {
		t.Fatalf("profile holds no CPU time")
	}
	var self float64
	for _, v := range b.self {
		self += v
	}
	// The buckets are summed in map order, the total in sample order.
	if math.Abs(self-b.total) > 1e-9 {
		t.Fatalf("self buckets sum to %v of %v", self, b.total)
	}
	if pkgOf("uvmsim/internal/mmu.(*SetLRU).idxGet") != "mmu" || pkgOf("runtime.mallocgc") != "runtime" {
		t.Fatal("pkgOf")
	}
}

// TestSmoke runs every workload on tiny inputs, untraced and traced,
// and requires a correct result carrying every metric BENCHMARK.json
// names.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds sweepd and runs every workload")
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	work := t.TempDir()
	sweepd := filepath.Join(work, "sweepd")
	if out, err := exec.Command("go", "build", "-o", sweepd, "uvmsim/cmd/sweepd").CombinedOutput(); err != nil {
		t.Fatalf("building sweepd: %v\n%s", err, out)
	}
	for _, name := range workloadNames() {
		for _, traced := range []bool{false, true} {
			o := options{workload: name, seed: 7, seconds: 1, trace: traced, smoke: true, sweepd: sweepd, work: work}
			res, err := run(o, workloads[name], fingerprint())
			if err != nil {
				t.Fatalf("%s trace=%v: %v", name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", name, traced, res.Correct, res.Attempted, res.Failed)
			}
			want := spec.EndToEnd
			if traced {
				want = spec.PerLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, BENCHMARK.json names %d", name, traced, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s trace=%v: metric %s: got %+v, want unit %s", name, traced, m.Name, got, m.Unit)
				}
			}
		}
	}
}
