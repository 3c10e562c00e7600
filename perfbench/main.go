// Command perfbench is the repository benchmark. It times the two paths a
// LAVA user pays for — offline trace replay and served placement — end to
// end with tracing off, and in a separate traced run attributes the time to
// the layers (model, scheduler, cluster, sim, serve) by wrapping calls into
// each layer's public functions. Every run checks that the outputs are
// correct and prints its metrics by name and unit, then one JSON line.
// Run it through run.sh from the repository root, which builds it first:
//
//	bash perfbench/run.sh --workload replay-gbdt --seed 1 --seconds 15 --trace 0
//
// See README.md in this directory for the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a run prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// run carries one invocation's settings and collects what it measures.
type run struct {
	seed     int64
	seconds  time.Duration
	traced   bool
	workload string
	start    time.Time

	res result
}

func (r *run) set(name string, v float64, unit string) { r.res.Metrics[name] = metric{v, unit} }

// budget is how long a measured phase keeps starting new units: the whole
// run on an untraced run; half of it on a traced run, whose untraced
// reference units and traced units each get one half.
func (r *run) budget() time.Duration {
	if r.traced {
		return r.seconds / 2
	}
	return r.seconds
}

// minUnits is the fewest units a phase runs: two for a median on an
// untraced run, one per phase on a traced run.
func (r *run) minUnits() int {
	if r.traced {
		return 1
	}
	return 2
}

// wrong reports an output check that failed.
func wrong(format string, args ...any) error {
	return fmt.Errorf("wrong output: "+format, args...)
}

var workloads = map[string]func(*run) error{
	"replay-gbdt":  runReplayGBDT,
	"replay-scale": runReplayScale,
	"serve-fleet":  runServeFleet,
}

// declared reads the metrics BENCHMARK.json lists for this kind of run:
// its end_to_end metrics untraced, its per_layer metrics traced.
func declared(traced bool) (map[string]string, error) {
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return nil, err
	}
	type decl struct{ Name, Unit string }
	var doc struct {
		EndToEnd []decl `json:"end_to_end"`
		PerLayer []decl `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	list := doc.EndToEnd
	if traced {
		list = doc.PerLayer
	}
	units := make(map[string]string, len(list))
	for _, d := range list {
		units[d.Name] = d.Unit
	}
	return units, nil
}

// checkMetrics fails a run whose metrics differ from the declared ones in
// name or unit, or are not finite numbers.
func (r *run) checkMetrics() error {
	want, err := declared(r.traced)
	if err != nil {
		return err
	}
	for name, m := range r.res.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			r.res.Metrics[name] = metric{0, m.Unit}
			return fmt.Errorf("metric %s is %v", name, m.Value)
		}
		if unit, ok := want[name]; !ok || unit != m.Unit {
			return fmt.Errorf("metric %s (%s) is not declared in BENCHMARK.json", name, m.Unit)
		}
	}
	for name := range want {
		if _, ok := r.res.Metrics[name]; !ok {
			return fmt.Errorf("metric %s not measured", name)
		}
	}
	return nil
}

func main() {
	var (
		workload = flag.String("workload", "", "workload to run: replay-gbdt, replay-scale or serve-fleet")
		seed     = flag.Int64("seed", 1, "seed of the generated inputs")
		seconds  = flag.Int("seconds", 10, "how long the measured phase runs")
		traced   = flag.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: traced run, per-layer metrics")
	)
	flag.Parse()
	fn, ok := workloads[*workload]
	if !ok || *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(os.Stderr, "usage: perfbench --workload replay-gbdt|replay-scale|serve-fleet --seed N --seconds S --trace 0|1")
		os.Exit(2)
	}
	// A hung run must not outlive the harness's limit: exiting ends every
	// goroutine, servers and clients included.
	time.AfterFunc(170*time.Second, func() {
		fmt.Fprintln(os.Stderr, "perfbench: run exceeded 170s")
		os.Exit(3)
	})
	r := &run{
		seed: *seed, seconds: time.Duration(*seconds) * time.Second, traced: *traced == 1,
		workload: *workload, start: time.Now(),
		res: result{Metrics: map[string]metric{}},
	}
	err := fn(r)
	if err == nil {
		err = r.checkMetrics()
	}
	r.res.Correct = err == nil
	if r.res.Attempted < 1 {
		r.res.Attempted = 1
	}
	names := make([]string, 0, len(r.res.Metrics))
	for name := range r.res.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := r.res.Metrics[name]
		fmt.Printf("%-36s %14.6g %s\n", name, m.Value, m.Unit)
	}
	line, _ := json.Marshal(r.res) // checkMetrics replaced any non-finite value
	fmt.Println(string(line))
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// setup repeats a workload's set-up, trace generation then model
// training, setupReps times and reports the medians of their CPU time:
// setup_s (both parts) on untraced runs, each part on traced ones. CPU
// time leaves out the time other tenants of the host take from the VM.
// The last repetition's products stay in use.
func (r *run) setup(gen, train func() error) error {
	var gens, trains, totals []float64
	for range setupReps {
		c0 := cpuTime()
		if err := gen(); err != nil {
			return fmt.Errorf("generate trace: %w", err)
		}
		c1 := cpuTime()
		if err := train(); err != nil {
			return fmt.Errorf("train model: %w", err)
		}
		g, t := (c1 - c0).Seconds(), (cpuTime() - c1).Seconds()
		gens = append(gens, g)
		trains = append(trains, t)
		totals = append(totals, g+t)
	}
	if r.traced {
		r.set("setup.gen_s", median(gens), "s")
		r.set("setup.train_s", median(trains), "s")
	} else {
		r.set("setup_s", median(totals), "s")
	}
	return nil
}

// setupReps is how many times a run repeats its set-up for the setup_s
// median.
const setupReps = 3

// units runs fn until the phase budget is spent (at least min times) and
// returns how many ran.
func units(budget time.Duration, min int, fn func() error) (int, error) {
	start := time.Now()
	n := 0
	for n < min || time.Since(start) < budget {
		if err := fn(); err != nil {
			return n, err
		}
		n++
	}
	return n, nil
}

// peakRSSMB is the process's peak resident set, in MB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// cpuTime is the CPU time the process has used, user plus system.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// heapLiveMB forces a collection and returns the heap it found live, in MB.
func heapLiveMB() float64 {
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return float64(s[0].Value.Uint64()) / (1 << 20)
}

// allocCounters reads the runtime's cumulative allocation and GC counters.
type allocCounters struct{ objects, bytes, gcs uint64 }

func readAllocs() allocCounters {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:objects"},
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/gc/cycles/total:gc-cycles"},
	}
	metrics.Read(s)
	return allocCounters{s[0].Value.Uint64(), s[1].Value.Uint64(), s[2].Value.Uint64()}
}

func (a allocCounters) since(b allocCounters) allocCounters {
	return allocCounters{a.objects - b.objects, a.bytes - b.bytes, a.gcs - b.gcs}
}

// setRuntime reports allocation counters accumulated over untraced units
// that made the given number of placements.
func (r *run) setRuntime(c allocCounters, units, placements int) {
	r.set("runtime.allocs_per_placement", float64(c.objects)/float64(placements), "count")
	r.set("runtime.alloc_bytes_per_placement", float64(c.bytes)/float64(placements), "B")
	r.set("runtime.gc_cycles", float64(c.gcs)/float64(units), "count")
}

// setLayers reports the layer metrics the policy, predictor and pool
// wrappers measure, over traced units that took wall in total and made the
// given number of placements.
func (r *run) setLayers(s *layerStats, pols []*tracedPolicy, wall time.Duration, placements int) {
	var hostEvents, noCapacity int64
	for _, p := range pols {
		hostEvents += p.hostEvents
		noCapacity += p.noCapacity
	}
	pl := float64(placements)
	r.set("model.calls_per_placement", float64(s.count[kPredict])/pl, "count")
	r.set("model.predict_us", s.meanUS(kPredict), "us")
	r.set("model.busy_frac", float64(s.total[kPredict])/float64(wall), "ratio")
	r.set("scheduler.schedule_self_us", s.meanSelfUS(kSchedule), "us")
	r.set("scheduler.schedule_p99_us", quantile(s.durs[kSchedule], 0.99), "us")
	r.set("scheduler.on_placed_self_us", s.meanSelfUS(kOnPlaced), "us")
	r.set("scheduler.on_exited_self_us", s.meanSelfUS(kOnExited), "us")
	r.set("scheduler.on_tick_ms", s.meanUS(kOnTick)/1e3, "ms")
	r.set("scheduler.no_capacity", float64(noCapacity), "count")
	r.set("cluster.host_events_per_placement", float64(hostEvents)/pl, "count")
	r.set("sim.create_self_us", s.meanSelfUS(kSimCreate), "us")
	r.set("sim.exit_self_us", s.meanSelfUS(kSimExit), "us")
	r.set("sim.advance_self_us", s.meanSelfUS(kSimAdvance), "us")
}

// setNoServe reports the serving-layer metrics of a workload that does not
// serve: it made no requests and dialed nothing.
func (r *run) setNoServe() {
	for _, name := range []string{
		"serve.client_rtt_p50_us", "serve.handler_p50_us", "serve.handler_p90_us",
		"serve.handler_minus_engine_us", "serve.outside_handler_us", "serve.loop_apply_avg_us",
	} {
		r.set(name, 0, "us")
	}
	r.set("serve.dials", 0, "count")
	r.set("serve.gen_late_p99_ms", 0, "ms")
}

// spansDir is where traced runs write their spans, relative to the
// repository root the benchmark runs from.
const spansDir = ".bench_build/spans"

// writeSpans writes the run's spans under spansDir.
func (r *run) writeSpans(tracers []*tracer) error {
	path := fmt.Sprintf("%s/%s-seed%d.tsv.gz", spansDir, r.workload, r.seed)
	if err := writeSpans(path, tracers); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	fmt.Fprintln(os.Stderr, "perfbench: spans written to", path)
	return nil
}
