package main

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"syscall"
	"time"

	"uvmsim"
	"uvmsim/internal/config"
	"uvmsim/internal/exp"
	"uvmsim/internal/harness"
	"uvmsim/internal/metrics"
	"uvmsim/internal/server"
	"uvmsim/internal/trace"
	"uvmsim/internal/workload"
)

type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	smoke    bool
	sweepd   string
	work     string
}

// workloadSpec is one benchmark workload. Every workload simulates one
// grid point in-process, repeatedly, and has sweepd serve a grid that
// contains it: a cold submission on an empty result store, then
// identical warm ones.
type workloadSpec struct {
	sim      string          // workload simulated in-process
	policy   config.Policy   // its policy
	vertices int             // graph-size override of the small scale; 0 keeps it
	degree   int             // average-degree override of the small scale; 0 keeps it
	suite    []string        // workloads of the served fig11 grid
	policies []config.Policy // instead of fig11, serve sim under these policies
	// buildInDaemon starts every daemon on empty artifact stores, so its
	// cold grid builds, compiles and saves the workload itself. Otherwise
	// each daemon starts holding the artifact the benchmark saved, and
	// its cold grid loads it (results cold, artifacts warm).
	buildInDaemon bool
}

// The graphs have 2^15 vertices of degree 16. At 2^17 vertices SSSP-TWC
// under TO+UE falls into a different thrashing regime from seed to seed
// (15k to 89k migrations, 4 to 8 s), so no two seeds would be
// comparable; at 2^15 the event count of every seed tried stays within
// 13% of the others'.
var workloads = map[string]workloadSpec{
	// Instruction-heavy, eviction-light: the per-access translation
	// path. Its daemons build the workload in their cold grid, which
	// exercises the cold side of the sweep service: workload build,
	// compile, artifact and result-store writes, fig11 table.
	"replay-pr": {sim: "PR", policy: config.Baseline, vertices: 1 << 15, degree: 16,
		suite: []string{"PR"}, buildInDaemon: true},
	// Batch- and eviction-heavy: the UVM batch, migrate and evict path.
	// Its grid holds the paper's eviction mechanisms (UE, TO+UE) and ETC,
	// not the whole fig11 row: under BASELINE, +PCIeC and TO the eviction
	// count of this graph swings up to 1.8x from seed to seed, and with it
	// the size of every stored result a warm grid reads.
	"evict-sssp": {sim: "SSSP-TWC", policy: config.TOUE, vertices: 1 << 15, degree: 16,
		policies: []config.Policy{config.UE, config.TOUE, config.ETC}},
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Repetition counts. A run covers graphsPerRun graphs whose seeds derive
// from --seed (graphSeed), so a figure that depends on the graph (the
// batch count of SSSP-TWC varies by about 10% from seed to seed, and with
// it every cost that reads the batches) is an average over several graphs
// in every run. Each graph is built and compiled before the rounds, and
// each round builds and compiles its graph once more; setup_s is the
// median of all these. The measuring time is spent in rounds (see
// measure), one graph after another; a round's warm grids come in chunks
// of warmChunk between its simulations, and the daemon's CPU time is read
// every warmSub warm grids. Every metric is a median over rounds,
// repetitions or blocks of warm grids spread over the whole run, so a
// burst of host noise moves a few samples of each rather than all of
// one. At least minRounds rounds run. sweepd runs with serveJobs workers,
// so that one thread of load runs at a time (the benchmark waits on the
// daemon): two simulations side by side on a 2-vCPU host each took about
// 15% more CPU time than one alone, and spread twice as much.
const (
	graphsPerRun = 3
	simsPerRound = 2
	tracedPerGap = 2
	warmChunk    = 100
	warmSub      = 50
	minRounds    = 2
	serveJobs    = 1
	smokeChunk   = 6
	smokeVtx     = 1 << 14
)

// bench accumulates one run's operations and metrics.
type bench struct {
	o   options
	wl  workloadSpec
	tr  *tracer
	dir string

	attempted, failed int
	e2e, layer        map[string]metric

	setupS, buildS, compileS []float64 // samples of buildTimed

	// Filled by traced repetitions.
	newMachineS     []float64
	buckets         *cpuBuckets
	allocMB, allocs []float64
	lastMachine     *uvmsim.Machine
}

// op counts one operation, failed if err is not nil.
func (b *bench) op(what string, err error) {
	b.attempted++
	if err != nil {
		b.failed++
		fmt.Fprintf(os.Stderr, "FAILED %s: %v\n", what, err)
	}
}

func (b *bench) setE2E(name string, v float64, unit string) {
	b.e2e[name] = metric{Value: v, Unit: unit}
}

func (b *bench) setLayer(name string, v float64, unit string) {
	b.layer[name] = metric{Value: v, Unit: unit}
}

func logf(format string, args ...any) { fmt.Fprintf(os.Stderr, format+"\n", args...) }

// cpuTime is the process CPU clock: user plus system time of every
// thread, so garbage collection done beside the simulation counts.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// rep is one in-process simulation.
type rep struct {
	stats     *metrics.Stats
	err       error
	cpu, wall time.Duration
	traced    bool
}

// simPhase is the in-process point on one graph: its inputs, the runner
// its first repetition goes through, what the repetitions have measured,
// and what the graph's first cold grid served.
type simPhase struct {
	params   workload.Params
	cfg      config.Config
	key      string // the point's result-store key
	compiled *trace.Compiled
	view     *trace.Workload
	runner   *exp.Runner
	mutate   func(*config.Config)
	artifact string // the saved UVMCMP1 file
	reps     []rep

	cold      map[string][]byte // the first cold grid's summaries by key
	served    *harness.Result   // the point as stored by that grid's daemon
	firstCold int               // that grid's index in servePhase.coldErr
}

// graphSeed is the seed of the i-th graph of a run.
func graphSeed(seed uint64, i int) uint64 { return seed*graphsPerRun + uint64(i) }

func run(o options, wl workloadSpec, h host) (*result, error) {
	b := &bench{o: o, wl: wl, e2e: make(map[string]metric), layer: make(map[string]metric)}
	b.dir = filepath.Join(o.work, "runs", fmt.Sprintf("%s-%d-%d", o.workload, o.seed, os.Getpid()))
	if err := os.RemoveAll(b.dir); err != nil {
		return nil, err
	}
	defer os.RemoveAll(b.dir)
	if o.trace {
		b.tr = &tracer{t0: time.Now()}
	}

	sps, err := b.setup()
	if err != nil {
		return nil, err
	}
	sv, err := b.measure(sps)
	if err != nil {
		return nil, err
	}
	b.setE2E("setup_s", median(b.setupS), "s")
	b.setLayer("workload.build_s", median(b.buildS), "s")
	b.setLayer("trace.compile_s", median(b.compileS), "s")
	b.simMetrics(sps)
	selfErr := b.check(sps, sv)
	if selfErr != nil {
		fmt.Fprintln(os.Stderr, selfErr)
	}

	res := &result{Correct: selfErr == nil && b.failed == 0, Attempted: b.attempted, Failed: b.failed, Metrics: b.e2e}
	if o.trace {
		res.Metrics = b.layer
		path := filepath.Join(o.work, "spans", fmt.Sprintf("%s-seed%d.json", o.workload, o.seed))
		if err := b.tr.write(path, map[string]any{"workload": o.workload, "seed": o.seed, "host": h, "metrics": b.layer}); err != nil {
			return nil, fmt.Errorf("writing spans: %w", err)
		}
		logf("spans written to %s", path)
	}
	return res, nil
}

// setup builds and compiles the workload's point on each graph of the
// run (buildTimed), saves each compiled trace as an artifact, and
// prepares the runner each graph's first repetition goes through.
func (b *bench) setup() ([]*simPhase, error) {
	o, wl := b.o, b.wl
	graphs := graphsPerRun
	if o.smoke {
		graphs = 1
	}
	var sps []*simPhase
	var writeS, sizeMB []float64
	for i := 0; i < graphs; i++ {
		p, err := exp.ScaleParams("small", graphSeed(o.seed, i))
		if err != nil {
			return nil, err
		}
		if wl.vertices > 0 {
			p.Vertices = wl.vertices
		}
		if wl.degree > 0 {
			p.AvgDegree = wl.degree
		}
		if o.smoke {
			p.Vertices = smokeVtx
		}
		runner := exp.NewRunner(p, exp.DefaultBase())
		mutate := func(c *config.Config) { c.Policy = wl.policy }
		jobs, err := runner.Jobs([]exp.RunSpec{{Name: wl.sim, Mutate: mutate}})
		if err != nil {
			return nil, err
		}
		sp := &simPhase{params: p, cfg: jobs[0].Config, key: jobs[0].Key(), runner: runner, mutate: mutate, firstCold: -1}

		if sp.compiled, err = b.buildTimed(sp); err != nil {
			return nil, err
		}

		// Hand the compiled trace to the runner's build cache under the
		// key it derives itself; a second build would mean the keys
		// disagree.
		sp.view = sp.compiled.Workload()
		key := trace.ArtifactKey(wl.sim, mustHash(p), p.Seed, sp.cfg.GPU.WarpSize)
		if _, err := runner.Builds.Get(key, func() (any, error) { return sp.compiled, nil }); err != nil {
			return nil, err
		}
		write, size, err := b.saveArtifact(sp, key, filepath.Join(b.dir, fmt.Sprintf("artifacts-%d", i)))
		if err != nil {
			return nil, err
		}
		writeS = append(writeS, write.Seconds())
		sizeMB = append(sizeMB, float64(size)/(1<<20))
		sps = append(sps, sp)
	}
	b.setLayer("trace.artifact_write_s", median(writeS), "s")
	b.setLayer("trace.artifact_mb", median(sizeMB), "MB")
	return sps, nil
}

// buildTimed builds and compiles the workload on sp's graph, timed: one
// sample of setup_s.
func (b *bench) buildTimed(sp *simPhase) (*trace.Compiled, error) {
	runtime.GC()
	id, end := b.tr.begin("setup", 0)
	_, endBuild := b.tr.begin("workload.Build", id)
	live, err := uvmsim.BuildWorkload(b.wl.sim, sp.params)
	build := endBuild()
	if err != nil {
		return nil, err
	}
	_, endCompile := b.tr.begin("trace.Compile", id)
	compiled, err := trace.Compile(live, sp.cfg.GPU.WarpSize)
	compile := endCompile()
	if err != nil {
		return nil, err
	}
	total := end()
	b.setupS = append(b.setupS, total.Seconds())
	b.buildS = append(b.buildS, build.Seconds())
	b.compileS = append(b.compileS, compile.Seconds())
	logf("setup of seed %d: build %.3fs compile %.3fs", sp.params.Seed, build.Seconds(), compile.Seconds())
	return compiled, nil
}

// rep runs one in-process simulation of the point. The first goes
// through exp.Runner, the path every sweep front end uses; the rest build
// the machine through the root package's NewMachine, so its construction
// and counters can be read. A traced repetition runs under the CPU
// profiler and records its allocations.
func (b *bench) rep(sp *simPhase, traced bool) {
	runtime.GC()
	var ms0, ms1 runtime.MemStats
	var prof bytes.Buffer
	if traced {
		runtime.ReadMemStats(&ms0)
		if err := pprof.StartCPUProfile(&prof); err != nil {
			panic(err) // only fails if a profile is already running
		}
	}
	id, end := b.tr.begin("simulation", 0)
	c0 := cpuTime()
	var r rep
	if len(sp.reps) == 0 {
		r.stats, r.err = sp.runner.Run(b.wl.sim, sp.mutate)
		if n := sp.runner.Builds.Stats().Builds; n != 1 {
			r.err = errors.Join(r.err, fmt.Errorf("exp.Runner built the workload again (%d builds): its key differs from the benchmark's", n))
		}
	} else {
		_, endNew := b.tr.begin("core.NewMachine", id)
		m, err := uvmsim.NewMachine(sp.cfg, sp.view)
		b.newMachineS = append(b.newMachineS, endNew().Seconds())
		if err != nil {
			r.err = err
		} else {
			_, endRun := b.tr.begin("core.Machine.Run", id)
			r.stats, r.err = m.Run()
			endRun()
			b.lastMachine = m
		}
	}
	r.cpu = cpuTime() - c0
	r.wall = end()
	r.traced = traced
	if traced {
		pprof.StopCPUProfile()
		runtime.ReadMemStats(&ms1)
		if b.buckets == nil {
			b.buckets = newBuckets()
		}
		if err := b.buckets.add(prof.Bytes()); err != nil {
			r.err = errors.Join(r.err, err)
		}
		b.allocMB = append(b.allocMB, float64(ms1.TotalAlloc-ms0.TotalAlloc)/(1<<20))
		b.allocs = append(b.allocs, float64(ms1.Mallocs-ms0.Mallocs))
	}
	sp.reps = append(sp.reps, r)
	kind := "simulation"
	if traced {
		kind = "traced simulation"
	}
	logf("%s %d of seed %d: cpu %.3fs wall %.3fs", kind, len(sp.reps), sp.params.Seed, r.cpu.Seconds(), r.wall.Seconds())
}

// simMetrics records the figures of the repetitions on every graph: the
// untraced ones give sim_cpu_s and sim.wall_s, the traced ones the
// per-layer figures.
func (b *bench) simMetrics(sps []*simPhase) {
	var cpu, wall, tracedCPU []float64
	var last rep
	for _, sp := range sps {
		for _, r := range sp.reps {
			if r.traced {
				tracedCPU = append(tracedCPU, r.cpu.Seconds())
				last = r
				continue
			}
			cpu = append(cpu, r.cpu.Seconds())
			wall = append(wall, r.wall.Seconds())
		}
	}
	b.setE2E("sim_cpu_s", median(cpu), "s")
	b.setLayer("sim.wall_s", median(wall), "s")
	if b.o.trace && last.stats != nil && b.lastMachine != nil {
		// A failed repetition leaves no counters to read; the checks
		// report it. The counters are those of the last traced
		// repetition, the machine it ran on.
		b.layerSim(last.stats.Summary(), b.buckets, len(tracedCPU), b.lastMachine)
		b.setLayer("core.new_machine_s", median(b.newMachineS), "s")
		b.setLayer("sim.alloc_mb", median(b.allocMB), "MB")
		b.setLayer("sim.allocs", median(b.allocs), "count")
		b.setLayer("sim.ns_per_event", median(cpu)*1e9/float64(max(b.lastMachine.Sys.Dispatched(), 1)), "ns")
		b.setLayer("tracing.overhead_ratio", median(tracedCPU)/median(cpu), "ratio")
	}
}

// layerSim records the per-layer figures of one simulation: profile
// buckets scaled to one simulation and the counters the program exports.
func (b *bench) layerSim(s metrics.Summary, cb *cpuBuckets, n int, m *uvmsim.Machine) {
	per := 1 / float64(n)
	for _, pkg := range []string{"sim", "mmu", "vm", "gpu", "trace", "core"} {
		b.setLayer(pkg+".cpu_s", cb.self[pkg]*per, "s")
	}
	b.setLayer("invalidate.cpu_s", cb.invalidate*per, "s")
	b.setLayer("gc.cpu_s", cb.gc*per, "s")
	b.setLayer("sim.events", float64(m.Sys.Dispatched()), "count")
	b.setLayer("sim.epochs", float64(m.Sys.Epochs()), "count")

	b.setLayer("gpu.warp_instrs", float64(s.Instrs), "count")
	b.setLayer("gpu.context_switches", float64(s.ContextSwitches), "count")
	b.setLayer("mmu.tlb_lookups", float64(s.TLBL1Hits+s.TLBL1Miss), "count")
	b.setLayer("mmu.tlb_l1_hit_ratio", ratio(s.TLBL1Hits, s.TLBL1Hits+s.TLBL1Miss), "ratio")
	b.setLayer("mmu.cache_lookups", float64(s.CacheL1Hit+s.CacheL1Mis), "count")
	b.setLayer("vm.walks", float64(s.TLBL2Miss), "count")
	b.setLayer("core.batches", float64(s.Batches), "count")
	b.setLayer("core.faults", float64(s.FaultsRaised), "count")
	b.setLayer("core.migrations", float64(s.Migrations), "count")
	b.setLayer("core.evictions", float64(s.Evictions), "count")
	b.setLayer("core.premature_ratio", ratio(s.PrematureEv, s.Evictions), "ratio")
}

func ratio(num, den uint64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

func mustHash(p workload.Params) string {
	h, err := harness.HashParts(p)
	if err != nil {
		panic(err) // Params is plain numbers
	}
	return h
}

// saveArtifact writes the compiled trace of sp as a UVMCMP1 artifact
// into a scratch store in dir. Unless the workload builds in its
// daemons, every daemon serving the graph starts holding a copy, so its
// cold grid loads it instead of building.
func (b *bench) saveArtifact(sp *simPhase, key, dir string) (time.Duration, int64, error) {
	store, err := trace.OpenArtifactStore(dir)
	if err != nil {
		return 0, 0, err
	}
	_, end := b.tr.begin("trace.ArtifactStore.SaveCompiled", 0)
	err = store.SaveCompiled(key, sp.compiled)
	d := end()
	if err != nil {
		return 0, 0, err
	}
	_, size, err := store.Stats()
	if err != nil {
		return 0, 0, err
	}
	files, err := filepath.Glob(filepath.Join(dir, "*.uvmcmp"))
	if err != nil || len(files) != 1 {
		return 0, 0, fmt.Errorf("saved artifact: %d files in %s (%v)", len(files), dir, err)
	}
	sp.artifact = files[0]
	return d, size, nil
}

// startDaemon starts the i-th daemon of the run on its own empty result
// store, holding the artifact saved for sp unless the workload builds in
// its daemons.
func (b *bench) startDaemon(i int, sp *simPhase) (*daemon, time.Duration, error) {
	dir := filepath.Join(b.dir, fmt.Sprintf("daemon-%d", i))
	if !b.wl.buildInDaemon {
		dst := filepath.Join(dir, "cache", "artifacts")
		if err := os.MkdirAll(dst, 0o755); err != nil {
			return nil, 0, err
		}
		if err := os.Link(sp.artifact, filepath.Join(dst, filepath.Base(sp.artifact))); err != nil {
			return nil, 0, err
		}
	}
	_, end := b.tr.begin("sweepd.start", 0)
	d, ready, err := startDaemon(b.o.sweepd, dir, serveJobs)
	end()
	if err != nil {
		return nil, 0, err
	}
	logf("sweepd %d ready in %.3fs at %s", i+1, ready.Seconds(), d.base)
	return d, ready, nil
}

// warmSample is one warm grid's answers, kept for the self-test.
type warmSample struct {
	status        server.GridStatus
	results       []server.JobResult
	before, after storeCounters
}

// servePhase is what the daemon phase hands to the checks.
type servePhase struct {
	coldErr  []error           // per cold grid: checks that need no trace facts
	warm     *warmSample       // first warm grid
	warmCold map[string][]byte // the cold summaries it was checked against
	warmErr  []error           // per warm grid
}

// coldGrid is one cold submission's answers.
type coldGrid struct {
	status        server.GridStatus
	events        []harness.Event
	res           gridResults
	before, after storeCounters
	workers       int
	wall, cpu     time.Duration
}

// submitCold submits req to a daemon with an empty result store, follows
// the event stream to its end and fetches the results. cpu is the
// daemon's CPU time over the same span.
func (b *bench) submitCold(d *daemon, req server.SubmitRequest) (*coldGrid, error) {
	cg := &coldGrid{}
	var err error
	if _, cg.before, err = d.stores(); err != nil {
		return nil, err
	}
	cpu0, err := d.cpuTime()
	if err != nil {
		return nil, err
	}
	id, end := b.tr.begin("grid.cold", 0)
	_, endSubmit := b.tr.begin("POST /grids", id)
	_, err = d.call("POST", "/api/v1/grids", req, http.StatusAccepted, &cg.status)
	endSubmit()
	if err != nil {
		return nil, err
	}
	_, endEvents := b.tr.begin("GET /grids/{id}/events", id)
	cg.events, err = d.events(cg.status.ID)
	endEvents()
	if err != nil {
		return nil, err
	}
	_, endResults := b.tr.begin("GET /grids/{id}/results", id)
	_, err = d.call("GET", "/api/v1/grids/"+cg.status.ID+"/results", nil, http.StatusOK, &cg.res)
	endResults()
	if err != nil {
		return nil, err
	}
	cg.wall = end()
	cpu1, err := d.cpuTime()
	if err != nil {
		return nil, err
	}
	cg.cpu = cpu1 - cpu0
	st, after, err := d.stores()
	if err != nil {
		return nil, err
	}
	cg.after, cg.workers = after, st.Queue.Workers
	logf("cold grid: %d points in %.3fs, daemon cpu %.3fs", len(cg.res.Results), cg.wall.Seconds(), cg.cpu.Seconds())
	return cg, nil
}

// warmBlock is one round's warm grids: the daemon's CPU time per grid
// over each warmSub consecutive grids, and each grid's latencies.
// after holds the store counters read after the last grid.
type warmBlock struct {
	cpuMS                        []float64
	wall, submit, status, result []float64
	run, stored                  int // job statuses over the block
	after                        storeCounters
}

// warmGrids submits req n times to a daemon whose store holds the cold
// grid's results, checks every answer, and adds the figures to wb.
func (b *bench) warmGrids(d *daemon, req server.SubmitRequest, n int, sp *simPhase, sv *servePhase, wb *warmBlock) error {
	prev := wb.after
	cpu0, err := d.cpuTime()
	if err != nil {
		return err
	}
	sub := 0
	for i := 0; i < n; i++ {
		wid, endWarm := b.tr.begin("grid.warm", 0)
		var ws server.GridStatus
		_, endSubmit := b.tr.begin("POST /grids", wid)
		_, err := d.call("POST", "/api/v1/grids", req, http.StatusAccepted, &ws)
		submit := endSubmit()
		if err != nil {
			return err
		}
		_, endStatus := b.tr.begin("GET /grids/{id}", wid)
		_, err = d.call("GET", "/api/v1/grids/"+ws.ID, nil, http.StatusOK, &ws)
		status := endStatus()
		if err != nil {
			return err
		}
		var wr gridResults
		_, endResults := b.tr.begin("GET /grids/{id}/results", wid)
		_, err = d.call("GET", "/api/v1/grids/"+ws.ID+"/results", nil, http.StatusOK, &wr)
		results := endResults()
		if err != nil {
			return err
		}
		total := endWarm()
		wb.wall = append(wb.wall, total.Seconds()*1e3)
		wb.submit = append(wb.submit, submit.Seconds()*1e3)
		wb.status = append(wb.status, status.Seconds()*1e3)
		wb.result = append(wb.result, results.Seconds()*1e3)

		_, after, err := d.stores()
		if err != nil {
			return err
		}
		sv.warmErr = append(sv.warmErr, checkWarm(ws, wr.Results, sp.cold, prev, after))
		if sv.warm == nil {
			sv.warm = &warmSample{status: ws, results: wr.Results, before: prev, after: after}
			sv.warmCold = sp.cold
		}
		for _, j := range ws.Jobs {
			switch j.Status {
			case "done":
				wb.run++
			case "stored":
				wb.stored++
			}
		}
		prev = after
		// The daemon's CPU clock also runs while it answers the /stores
		// reads of the checks: a fixed share of every grid.
		if sub++; sub == warmSub || i == n-1 {
			cpu1, err := d.cpuTime()
			if err != nil {
				return err
			}
			wb.cpuMS = append(wb.cpuMS, (cpu1-cpu0).Seconds()*1e3/float64(sub))
			cpu0, sub = cpu1, 0
		}
	}
	wb.after = prev
	return nil
}

// measure spends the measuring time in rounds, each on the next graph of
// the run in turn. A round starts a daemon on an empty result store and
// has it serve the graph's grid once cold; then warm chunks of warmChunk
// identical submissions alternate with simsPerRound in-process
// simulations of the point (each followed by tracedPerGap more under the
// profiler in a traced run), and the daemon is stopped. Rounds repeat until the measuring
// time is spent.
func (b *bench) measure(sps []*simPhase) (*servePhase, error) {
	o := b.o
	// The simulations between two warm chunks, true where profiled.
	gap := []bool{false}
	for i := 0; o.trace && i < tracedPerGap; i++ {
		gap = append(gap, true)
	}
	gaps, chunk := simsPerRound, warmChunk
	if o.smoke {
		gaps, chunk = 1, smokeChunk
	}

	sv := &servePhase{}
	var coldCPU, coldWall, warmCPU, warmWall, warmP90, rssMB, startMS, submitMS, statusMS, resultsMS []float64
	var last *coldGrid
	var lastWarm *warmBlock
	start := time.Now()
	for round := 0; ; round++ {
		// Start another round only if, taking the mean round so far, it
		// ends less than half a round past the measuring time: a run then
		// measures about the measuring time instead of overrunning it by
		// up to one round.
		elapsed := time.Since(start).Seconds()
		if round >= minRounds && elapsed+elapsed/float64(round)/2 >= o.seconds || o.smoke && round == 1 {
			break
		}
		sp := sps[round%len(sps)]
		// Set up once more per round, so that setup_s samples the whole
		// run like every other metric; the new build is dropped.
		if _, err := b.buildTimed(sp); err != nil {
			return nil, err
		}
		req := b.request(sp)
		d, ready, err := b.startDaemon(round, sp)
		if err != nil {
			return nil, err
		}
		startMS = append(startMS, ready.Seconds()*1e3)
		cg, err := b.submitCold(d, req)
		if err != nil {
			d.stop()
			return nil, err
		}
		coldCPU = append(coldCPU, cg.cpu.Seconds())
		coldWall = append(coldWall, cg.wall.Seconds())
		sv.coldErr = append(sv.coldErr, b.checkCold(d, sp, cg))
		if sp.firstCold < 0 {
			sp.firstCold = len(sv.coldErr) - 1
		}
		wb := &warmBlock{after: cg.after}
		for i := 0; i <= gaps; i++ {
			if err := b.warmGrids(d, req, chunk, sp, sv, wb); err != nil {
				d.stop()
				return nil, err
			}
			if i == gaps {
				break
			}
			for _, traced := range gap {
				b.rep(sp, traced)
			}
		}
		rss, err := d.peakRSSMB()
		if err != nil {
			d.stop()
			return nil, err
		}
		rssMB = append(rssMB, rss)
		if err := d.stop(); err != nil {
			return nil, err
		}
		logf("%d warm grids: median %.3fms, daemon cpu %.3fms per grid", len(wb.wall), median(wb.wall), median(wb.cpuMS))
		warmCPU = append(warmCPU, wb.cpuMS...)
		warmWall = append(warmWall, median(wb.wall))
		warmP90 = append(warmP90, quantile(wb.wall, 0.9))
		submitMS = append(submitMS, wb.submit...)
		statusMS = append(statusMS, wb.status...)
		resultsMS = append(resultsMS, wb.result...)
		last, lastWarm = cg, wb
	}
	logf("%d rounds in %.1fs", len(coldCPU), time.Since(start).Seconds())

	b.setE2E("cold_grid_cpu_s", median(coldCPU), "s")
	b.setE2E("warm_grid_cpu_ms", median(warmCPU), "ms")
	b.setE2E("peak_rss_mb", median(rssMB), "MB")
	b.setLayer("cold_grid_wall_s", median(coldWall), "s")
	b.setLayer("warm_grid_wall_ms", median(warmWall), "ms")
	b.setLayer("warm_grid_p90_ms", median(warmP90), "ms")
	b.setLayer("sweepd.start_ms", median(startMS), "ms")
	b.setLayer("server.submit_ms", median(submitMS), "ms")
	b.setLayer("server.status_ms", median(statusMS), "ms")
	b.setLayer("server.results_ms", median(resultsMS), "ms")

	// Counters of the last round's daemon: one cold grid, then warm ones.
	jobWall, jobsRun := 0.0, 0
	for _, r := range last.res.Results {
		jobWall += float64(r.WallNS) / 1e9
	}
	for _, ev := range last.events {
		if ev.Type == "job" && ev.Status == "done" {
			jobsRun++
		}
	}
	b.setLayer("harness.job_wall_s", jobWall, "s")
	b.setLayer("harness.pool_busy_ratio", jobWall/(float64(last.workers)*last.wall.Seconds()), "ratio")
	b.setLayer("harness.jobs_run", float64(jobsRun+lastWarm.run), "count")
	b.setLayer("harness.jobs_stored", float64(lastWarm.stored), "count")
	b.setLayer("harness.builds", float64(lastWarm.after.builds), "count")
	b.setLayer("harness.disk_saves", float64(lastWarm.after.diskSaves), "count")
	return sv, nil
}

// request is the grid submission of sp's graph.
func (b *bench) request(sp *simPhase) server.SubmitRequest {
	seed := sp.params.Seed
	req := server.SubmitRequest{Scale: "small", Seed: &seed,
		Vertices: sp.params.Vertices, AvgDegree: sp.params.AvgDegree, Client: "perfbench"}
	if len(b.wl.policies) == 0 {
		req.Preset, req.Suite = "fig11", b.wl.suite
	}
	for _, pol := range b.wl.policies {
		req.Runs = append(req.Runs, server.RunRequest{Workload: b.wl.sim, Policy: pol.String()})
	}
	return req
}

// checkCold checks one cold grid: every point ran and is done, every
// served result passes the statistics checks, the stores show the
// expected builds and loads, every cell of a fig11 table matches the
// served cycle counts, and every summary is byte-identical to that of
// the first cold grid of the same graph.
func (b *bench) checkCold(d *daemon, sp *simPhase, cg *coldGrid) error {
	var errs []error
	id, res := cg.status.ID, cg.res
	want := len(b.wl.policies)
	if want == 0 {
		want = 6 * len(b.wl.suite) // BASELINE plus five policies per workload
	}
	if len(res.Results) != want || res.Failed != 0 {
		errs = append(errs, fmt.Errorf("cold grid %s: %d points, %d failed; want %d, 0 failed", id, len(res.Results), res.Failed, want))
	}
	done := 0
	for _, ev := range cg.events {
		if ev.Type == "job" {
			if ev.Status != "done" {
				errs = append(errs, fmt.Errorf("cold grid %s: %s ended %s %s", id, ev.ID, ev.Status, ev.Err))
			}
			done++
		}
	}
	if done != len(res.Results) || cg.after.runs-cg.before.runs != int64(done) {
		errs = append(errs, fmt.Errorf("cold grid %s: %d job events, %d results, %d runs", id, done, len(res.Results), cg.after.runs-cg.before.runs))
	}
	first := sp.cold == nil
	summaries := make(map[string][]byte)
	for _, r := range res.Results {
		summaries[r.Key] = summaryJSON(r.Summary)
		if r.Status != "done" || r.Summary == nil {
			errs = append(errs, fmt.Errorf("cold grid %s: %s is %s %s", id, r.ID, r.Status, r.Err))
			continue
		}
		if !first {
			if !bytes.Equal(summaries[r.Key], sp.cold[r.Key]) {
				errs = append(errs, fmt.Errorf("cold grid %s: summary of %s differs from the first cold grid's", id, r.ID))
			}
			continue
		}
		var full harness.Result
		if _, err := d.call("GET", "/api/v1/results?key="+url.QueryEscape(r.Key), nil, http.StatusOK, &full); err != nil {
			errs = append(errs, err)
			continue
		}
		if full.Err != "" || full.Stats == nil {
			errs = append(errs, fmt.Errorf("stored %s: %s", r.ID, full.Err))
			continue
		}
		if err := checkStats(full.Stats); err != nil {
			errs = append(errs, fmt.Errorf("stored %s: %w", r.ID, err))
		}
		if r.Key == sp.key {
			sp.served = &full
		}
	}
	if first {
		sp.cold = summaries
		if sp.served == nil {
			errs = append(errs, fmt.Errorf("cold grid %s: no result for the in-process point %s", id, sp.key))
		}
	}
	if b.wl.buildInDaemon {
		if n := int64(len(b.wl.suite)); cg.after.builds != n || cg.after.diskSaves != n {
			errs = append(errs, fmt.Errorf("cold grid %s: %d builds, %d artifact saves; want %d each", id, cg.after.builds, cg.after.diskSaves, n))
		}
	} else if cg.after.builds != 0 || cg.after.diskLoads != 1 {
		// The daemon must have loaded the artifact the benchmark saved.
		errs = append(errs, fmt.Errorf("cold grid %s: %d builds, %d artifact loads; want 0 and 1", id, cg.after.builds, cg.after.diskLoads))
	}
	if len(b.wl.policies) == 0 {
		csv, err := d.call("GET", "/api/v1/grids/"+id+"/figure?format=csv", nil, http.StatusOK, nil)
		if err != nil {
			errs = append(errs, err)
		} else if err := checkFig11(string(csv), res.Results); err != nil {
			errs = append(errs, err)
		}
	}
	return errors.Join(errs...)
}

// check runs the checks that need each graph's trace facts, counts
// every operation, and returns the self-test's verdict.
func (b *bench) check(sps []*simPhase, sv *servePhase) error {
	var selfStats *metrics.Stats
	var selfFacts traceFacts
	for g, sp := range sps {
		if len(sp.reps) == 0 {
			continue // a graph no round reached
		}
		live, err := uvmsim.BuildWorkload(b.wl.sim, sp.params)
		if err != nil {
			return err
		}
		view := sp.compiled.Workload()
		facts := drainFacts(live, view, sp.cfg.GPU.WarpSize, sp.cfg.UVM.PageBytes, sp.cfg.CapacityPages(view.FootprintPages()))
		logf("trace facts of seed %d: %d accesses, %d pages touched, capacity %d frames", sp.params.Seed, facts.accesses, facts.pages, facts.capacity)

		first := sp.reps[0]
		var firstSum []byte
		if first.stats != nil {
			sum := first.stats.Summary()
			firstSum = summaryJSON(&sum)
		}
		for i, r := range sp.reps {
			err := checkSim(r.stats, r.err, facts)
			if err == nil {
				if sum := r.stats.Summary(); !bytes.Equal(summaryJSON(&sum), firstSum) {
					err = fmt.Errorf("summary differs from the first repetition's")
				}
			}
			b.op(fmt.Sprintf("simulation %d of seed %d", i+1, sp.params.Seed), err)
		}
		if sp.served != nil {
			if err := checkSim(sp.served.Stats, nil, facts); err != nil {
				sv.coldErr[sp.firstCold] = errors.Join(sv.coldErr[sp.firstCold], fmt.Errorf("served %s: %w", sp.key, err))
			}
			if !bytes.Equal(sp.cold[sp.key], firstSum) {
				sv.coldErr[sp.firstCold] = errors.Join(sv.coldErr[sp.firstCold], fmt.Errorf("served summary of %s differs from the in-process one", sp.key))
			}
		}
		if g == 0 {
			selfStats, selfFacts = first.stats, facts
		}
	}
	for i, err := range sv.coldErr {
		b.op(fmt.Sprintf("cold grid %d", i+1), err)
	}
	for i, err := range sv.warmErr {
		b.op(fmt.Sprintf("warm grid %d", i+1), err)
	}
	return selfTest(selfStats, selfFacts, sv.warm, sv.warmCold)
}

// median returns the middle value of xs (the mean of the middle two for
// an even count); xs is not modified.
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}
