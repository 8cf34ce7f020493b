package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"strconv"
	"strings"

	"uvmsim/internal/metrics"
	"uvmsim/internal/server"
	"uvmsim/internal/trace"
)

// The checks below hold for every correct simulation. None of them
// compares against a recorded output: each derives what a result must
// satisfy from the inputs (the drained access streams, the pages the
// blocks touch, the frame capacity) or from another path to the same
// result (a repetition, the daemon, the figure table).

// traceFacts is what the checks need to know about a workload's input,
// derived from its access streams.
type traceFacts struct {
	accesses uint64 // warp instructions drained through trace.DrainWarp
	pages    int    // distinct pages any block touches (trace.PagesTouched)
	capacity int    // device frames: CapacityPages(footprint)
}

// drainFacts drains every warp stream of live with trace.DrainWarp and
// collects the touched pages of every block of view with
// trace.PagesTouched. live must be a freshly built (uncompiled) workload,
// so the instruction count does not depend on the compiler under test.
func drainFacts(live, view *trace.Workload, warpSize int, pageBytes uint64, capacity int) traceFacts {
	f := traceFacts{capacity: capacity}
	var buf []trace.Access
	for _, k := range live.Kernels {
		for b := 0; b < k.Blocks; b++ {
			for w := 0; w < k.WarpsPerBlock(warpSize); w++ {
				buf = trace.DrainWarp(k, b, w, buf[:0])
				f.accesses += uint64(len(buf))
			}
		}
	}
	pages := make(map[uint64]struct{})
	for _, k := range view.Kernels {
		for b := 0; b < k.Blocks; b++ {
			for p := range trace.PagesTouched(k, b, warpSize, pageBytes) {
				pages[p] = struct{}{}
			}
		}
	}
	f.pages = len(pages)
	return f
}

// checkStats applies the summary-level checks every simulation must pass.
func checkStats(s *metrics.Stats) error {
	var errs []error
	if s.Prefetches > s.Migrations {
		errs = append(errs, fmt.Errorf("prefetches %d > migrations %d", s.Prefetches, s.Migrations))
	}
	if s.PrematureEv > s.Evictions {
		errs = append(errs, fmt.Errorf("premature evictions %d > evictions %d", s.PrematureEv, s.Evictions))
	}
	var pages, evictions uint64
	for i, b := range s.Batches {
		pages += uint64(b.Pages)
		evictions += uint64(b.Evictions)
		if !(b.Start <= b.FirstMigration && b.FirstMigration <= b.End) {
			errs = append(errs, fmt.Errorf("batch %d: start %d, first migration %d, end %d out of order", i, b.Start, b.FirstMigration, b.End))
		}
		if i > 0 && s.Batches[i-1].End > b.Start {
			errs = append(errs, fmt.Errorf("batch %d starts at %d before batch %d ends at %d", i, b.Start, i-1, s.Batches[i-1].End))
		}
	}
	if pages != s.Migrations {
		errs = append(errs, fmt.Errorf("batch pages sum to %d, migrations %d", pages, s.Migrations))
	}
	if evictions != s.Evictions {
		errs = append(errs, fmt.Errorf("batch evictions sum to %d, evictions %d", evictions, s.Evictions))
	}
	return errors.Join(errs...)
}

// checkSim applies every per-simulation check: the run ended without an
// error (a cycle-limit abort included), its statistics are consistent,
// and they agree with the workload's input.
func checkSim(s *metrics.Stats, runErr error, f traceFacts) error {
	if runErr != nil {
		return fmt.Errorf("simulation failed: %w", runErr)
	}
	errs := []error{checkStats(s)}
	if s.Instrs != f.accesses {
		errs = append(errs, fmt.Errorf("instructions %d, drained accesses %d", s.Instrs, f.accesses))
	}
	if s.Migrations < uint64(f.pages) {
		errs = append(errs, fmt.Errorf("migrations %d < %d pages touched", s.Migrations, f.pages))
	}
	if s.Evictions > s.Migrations || s.Migrations-s.Evictions > uint64(f.capacity) {
		errs = append(errs, fmt.Errorf("resident frames %d-%d exceed capacity %d", s.Migrations, s.Evictions, f.capacity))
	}
	return errors.Join(errs...)
}

// summaryJSON is the byte form in which repetitions, served results and
// warm grids are compared.
func summaryJSON(s *metrics.Summary) []byte {
	if s == nil {
		return nil
	}
	b, err := json.Marshal(s)
	if err != nil {
		panic(err) // a Summary is plain numbers
	}
	return b
}

// storeCounters are the /stores counters that tell whether a grid ran or
// built anything.
type storeCounters struct {
	runs, builds, diskSaves, diskLoads int64
}

// checkWarm checks one warm grid: every point was answered from the
// store (none ran, nothing was built) and every summary is byte-identical
// to the cold grid's.
func checkWarm(st server.GridStatus, results []server.JobResult, cold map[string][]byte, before, after storeCounters) error {
	var errs []error
	if !st.Done || st.Failed != 0 || st.Completed != st.Total {
		errs = append(errs, fmt.Errorf("warm grid %s not done on submission: %d/%d, %d failed", st.ID, st.Completed, st.Total, st.Failed))
	}
	for _, j := range st.Jobs {
		if j.Status != "stored" {
			errs = append(errs, fmt.Errorf("warm grid %s: %s was %s, not answered from the store", st.ID, j.ID, j.Status))
		}
	}
	if after.runs != before.runs {
		errs = append(errs, fmt.Errorf("warm grid %s ran %d jobs", st.ID, after.runs-before.runs))
	}
	if after.builds != before.builds {
		errs = append(errs, fmt.Errorf("warm grid %s built %d workloads", st.ID, after.builds-before.builds))
	}
	if len(results) != len(cold) {
		errs = append(errs, fmt.Errorf("warm grid %s has %d results, cold grid %d", st.ID, len(results), len(cold)))
	}
	for _, r := range results {
		if !bytes.Equal(summaryJSON(r.Summary), cold[r.Key]) {
			errs = append(errs, fmt.Errorf("warm grid %s: summary of %s differs from the cold grid's", st.ID, r.ID))
		}
	}
	return errors.Join(errs...)
}

// checkFig11 recomputes every speedup cell of the served fig11 table
// from the served cycle counts: each cell is BASELINE cycles over the
// policy's cycles, the AVERAGE row their geometric mean, both printed to
// two decimals as exp.Fig11 prints them.
func checkFig11(csv string, results []server.JobResult) error {
	cycles := make(map[string]map[string]uint64)
	for _, r := range results {
		if r.Summary == nil {
			return fmt.Errorf("fig11: %s has no summary", r.ID)
		}
		// Job IDs read "<workload> <policy> r<ratio> ...".
		fields := strings.Fields(r.ID)
		if len(fields) < 2 {
			return fmt.Errorf("fig11: unparsable job id %q", r.ID)
		}
		if cycles[r.Workload] == nil {
			cycles[r.Workload] = make(map[string]uint64)
		}
		cycles[r.Workload][fields[1]] = r.Summary.Cycles
	}
	lines := strings.Split(strings.TrimSpace(csv), "\n")
	if len(lines) < 2 {
		return fmt.Errorf("fig11: table has no rows")
	}
	header := strings.Split(lines[0], ",")
	if len(header) < 3 || header[0] != "Workload" || header[1] != "BASELINE" {
		return fmt.Errorf("fig11: unexpected header %q", lines[0])
	}
	var errs []error
	cols := make([][]float64, len(header))
	rows := 0
	for _, line := range lines[1:] {
		cells := strings.Split(line, ",")
		if len(cells) != len(header) {
			return fmt.Errorf("fig11: row %q has %d cells, header %d", line, len(cells), len(header))
		}
		name := cells[0]
		if name == "AVERAGE" {
			for c := 1; c < len(header); c++ {
				// Tolerate the last printed digit: the product and the
				// log-sum forms of the mean may round differently.
				want := geoMean(cols[c])
				got, err := strconv.ParseFloat(cells[c], 64)
				if err != nil || math.Abs(got-want) > 0.005+1e-9 {
					errs = append(errs, fmt.Errorf("fig11: AVERAGE %s is %s, recomputed %.4f", header[c], cells[c], want))
				}
			}
			continue
		}
		rows++
		base, ok := cycles[name]["BASELINE"]
		if !ok {
			return fmt.Errorf("fig11: no served BASELINE point for %s", name)
		}
		for c := 1; c < len(header); c++ {
			policy := header[c]
			if policy == "+PCIeC" {
				policy = "BASELINE+PCIeC"
			}
			v, ok := cycles[name][policy]
			if !ok || v == 0 {
				return fmt.Errorf("fig11: no served %s point for %s", policy, name)
			}
			speedup := float64(base) / float64(v)
			cols[c] = append(cols[c], speedup)
			if want := strconv.FormatFloat(speedup, 'f', 2, 64); cells[c] != want {
				errs = append(errs, fmt.Errorf("fig11: %s %s is %s, recomputed %s", name, header[c], cells[c], want))
			}
		}
	}
	if rows != len(cycles) {
		errs = append(errs, fmt.Errorf("fig11: table has %d workload rows, grid served %d workloads", rows, len(cycles)))
	}
	return errors.Join(errs...)
}

// selfTest doctors copies of real outputs and requires each checker to
// reject them, so no check is vacuous: an instruction count one short,
// one frame over capacity, two overlapping batches, and a warm grid that
// ran a job. s must have passed checkSim against f and have at least two
// batches; warm must have passed checkWarm.
func selfTest(s *metrics.Stats, f traceFacts, warm *warmSample, cold map[string][]byte) error {
	var errs []error
	reject := func(what string, err error) {
		if err == nil {
			errs = append(errs, fmt.Errorf("self-test: %s was accepted", what))
		}
	}
	if s != nil {
		if len(s.Batches) < 2 {
			return fmt.Errorf("self-test: simulation has %d batches, need 2", len(s.Batches))
		}
		short := *s
		short.Instrs--
		reject("an instruction count one short", checkSim(&short, nil, f))

		over := f
		over.capacity = int(s.Migrations-s.Evictions) - 1
		reject("one frame over capacity", checkSim(s, nil, over))

		overlap := *s
		overlap.Batches = append([]metrics.Batch(nil), s.Batches...)
		overlap.Batches[1].Start = overlap.Batches[0].End - 1
		overlap.Batches[1].FirstMigration = max(overlap.Batches[1].FirstMigration, overlap.Batches[1].Start)
		reject("overlapping batches", checkSim(&overlap, nil, f))
	}
	if warm != nil {
		st := warm.status
		st.Jobs = append([]server.JobStatus(nil), st.Jobs...)
		st.Jobs[0].Status = "done"
		after := warm.after
		after.runs++
		reject("a warm grid that ran a job", checkWarm(st, warm.results, cold, warm.before, after))
	}
	return errors.Join(errs...)
}

func geoMean(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += math.Log(x)
	}
	return math.Exp(s / float64(len(xs)))
}
