package main

import (
	"fmt"
	"runtime"
	"syscall"
	"time"

	"lava"
	"lava/internal/model"
	"lava/internal/scheduler"
	"lava/internal/sim"
	"lava/internal/trace"
)

// replayWorkload is an offline replay: one or more traces, one predictor,
// the library call a user would make to replay a trace, which untraced
// units time and traced units are checked against, and a policy
// constructor for the traced units (policies carry caches, so each unit
// builds its own). Traced runs replay the first trace only.
type replayWorkload struct {
	trs       []*trace.Trace
	pred      model.Predictor
	newPolicy func(model.Predictor) (scheduler.Policy, error)
	reference func(*trace.Trace) (*sim.Result, error)
}

// gbdtTrainSeed seeds the GBDT's training trace. It is fixed so every run
// replays through the same model, whose per-call cost would otherwise vary
// from seed to seed; --seed picks the replayed traces.
const gbdtTrainSeed = 7

// gbdtTraces is how many traces replay-gbdt replays. One 64-host trace is
// a small sample of the workload: its load, and with it the predictions
// per placement, moved placements per CPU-second by 18% (interquartile
// range over median) across five seeds. Pooling four traces per run
// shrinks that spread.
const gbdtTraces = 4

// runReplayGBDT is the model layer's workload: LAVA over the 400-tree GBDT
// on 64-host pools, where nearly all time is spent repredicting.
func runReplayGBDT(r *run) error {
	var w replayWorkload
	var trainTr *trace.Trace
	err := r.setup(func() (err error) {
		trainTr, err = lava.GenerateTrace(lava.TraceConfig{Name: "gbdt-train", Hosts: 64, Days: 4, PrefillDays: 3, Seed: gbdtTrainSeed})
		if err != nil {
			return err
		}
		w.trs = make([]*trace.Trace, gbdtTraces)
		for k := range w.trs {
			// Seeds r.seed*1000+k keep every run's traces apart from
			// every other run's.
			cfg := lava.TraceConfig{Name: fmt.Sprintf("gbdt-eval-%d", k), Hosts: 64, Days: 5, PrefillDays: 5, Seed: r.seed*1000 + int64(k)}
			if w.trs[k], err = lava.GenerateTrace(cfg); err != nil {
				return err
			}
		}
		return nil
	}, func() (err error) {
		w.pred, err = lava.TrainModel(trainTr, lava.ModelGBDT)
		return err
	})
	if err != nil {
		return err
	}
	w.newPolicy = func(p model.Predictor) (scheduler.Policy, error) { return lava.NewPolicy(lava.PolicyLAVA, p) }
	w.reference = func(tr *trace.Trace) (*sim.Result, error) { return lava.Simulate(tr, lava.PolicyLAVA, w.pred) }
	return w.run(r)
}

// runReplayScale is the scheduler, score-cache and cluster-index workload:
// epoch-quantized LAVA over the cheap distribution model on a 4,000-host
// pool, where placement search dominates and prediction is small.
func runReplayScale(r *run) error {
	var w replayWorkload
	w.trs = make([]*trace.Trace, 1)
	err := r.setup(func() (err error) {
		w.trs[0], err = lava.GenerateTrace(lava.TraceConfig{Name: "scale", Hosts: 4000, Days: 1, PrefillDays: 6, Seed: r.seed})
		return err
	}, func() (err error) {
		w.pred, err = lava.TrainModel(w.trs[0], lava.ModelDist)
		return err
	})
	if err != nil {
		return err
	}
	w.newPolicy = func(p model.Predictor) (scheduler.Policy, error) {
		return scheduler.NewLAVAEpoch(p, time.Minute, scheduler.DefaultEpoch), nil
	}
	w.reference = func(tr *trace.Trace) (*sim.Result, error) {
		pol, _ := w.newPolicy(w.pred)
		return sim.Run(sim.Config{Trace: tr, Policy: pol})
	}
	return w.run(r)
}

// replayed is one timed replay's outcome.
type replayed struct {
	res *sim.Result
	cpu time.Duration // CPU time of the replaying thread
}

// threadCPU runs fn with its goroutine locked to one OS thread and returns
// the CPU time that thread spent in it. A replay runs on one goroutine, so
// this is its own work (garbage-collection assists included, background
// collection on other threads not) without the time other tenants of the
// host take from the VM, which the wall clock counts.
func threadCPU(fn func() error) (time.Duration, error) {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	c0, err := threadCPUTime()
	if err != nil {
		return 0, err
	}
	if err := fn(); err != nil {
		return 0, err
	}
	c1, err := threadCPUTime()
	if err != nil {
		return 0, err
	}
	return c1 - c0, nil
}

// rusageThread is Linux's RUSAGE_THREAD, which package syscall does not
// define for Linux.
const rusageThread = 1

// threadCPUTime is the CPU time the calling OS thread has used, user plus
// system.
func threadCPUTime() (time.Duration, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(rusageThread, &ru); err != nil {
		return 0, fmt.Errorf("getrusage: %w", err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()), nil
}

// drive replays the trace through a sim.Machine with the same loop as
// sim.Run, recording sim.Machine Advance, Create and Exit spans. It
// advances before each event so that tick work gets spans of its own.
// Only the traced run uses it; untraced units call the library.
func (w *replayWorkload) drive(pol scheduler.Policy, t *tracer) (*sim.Result, error) {
	m, err := sim.NewMachine(sim.Config{Trace: w.trs[0], Policy: pol})
	if err != nil {
		return nil, err
	}
	cur := trace.NewEventCursor(w.trs[0].Stream())
	for {
		ev, ok := cur.Next()
		if !ok {
			if err := cur.Err(); err != nil {
				return nil, err
			}
			break
		}
		if ev.Time > m.End() {
			break
		}
		id := int64(ev.Rec.ID)
		i := t.begin(kSimAdvance, id)
		err := m.Advance(ev.Time)
		t.end(i)
		if err != nil {
			return nil, err
		}
		switch ev.Kind {
		case trace.EventCreate:
			i := t.begin(kSimCreate, id)
			_, err = m.Create(ev.Rec, ev.Time)
			t.end(i)
		case trace.EventExit:
			i := t.begin(kSimExit, id)
			_, err = m.Exit(ev.Rec.ID, ev.Time)
			t.end(i)
		}
		if err != nil {
			return nil, err
		}
	}
	i := t.begin(kSimAdvance, -1)
	res, err := m.Finish()
	t.end(i)
	return res, err
}

// timedReference replays tr with the library call and times it.
func (w *replayWorkload) timedReference(tr *trace.Trace) (replayed, error) {
	var u replayed
	cpu, err := threadCPU(func() (err error) {
		u.res, err = w.reference(tr)
		return err
	})
	u.cpu = cpu
	return u, err
}

// sameResult is the replay output check: two replays of one trace under one
// policy must agree on every count and aggregate, and the final pool must
// be consistent.
func sameResult(what string, a, b *sim.Result) error {
	if err := b.FinalPool.CheckInvariants(); err != nil {
		return wrong("%s: final pool: %v", what, err)
	}
	if b.ModelCalls == 0 {
		return wrong("%s: no model calls reported", what)
	}
	if a.Placements != b.Placements || a.Exits != b.Exits || a.Failed != b.Failed ||
		a.Killed != b.Killed || a.ModelCalls != b.ModelCalls ||
		a.AvgEmptyHostFrac != b.AvgEmptyHostFrac || a.AvgEmptyToFree != b.AvgEmptyToFree ||
		a.AvgPackingDensity != b.AvgPackingDensity || a.AvgCPUUtil != b.AvgCPUUtil ||
		a.Series.Len() != b.Series.Len() {
		return wrong("%s: placements/exits/failed/model calls %d/%d/%d/%d, want %d/%d/%d/%d; empty %v, want %v",
			what, b.Placements, b.Exits, b.Failed, b.ModelCalls, a.Placements, a.Exits, a.Failed, a.ModelCalls,
			b.AvgEmptyHostFrac, a.AvgEmptyHostFrac)
	}
	return nil
}

// run replays the traces in turn, unit n replaying trace n mod len(trs),
// until the budget is spent and every trace has run, the first twice.
// Each trace's time is the median over its replays; the rates pool the
// traces.
func (w *replayWorkload) run(r *run) error {
	if r.traced {
		return w.runTraced(r)
	}
	k := len(w.trs)
	firsts := make([]*sim.Result, k)
	cpus := make([][]float64, k)
	next := 0
	n, err := units(r.budget(), k+1, func() error {
		i := next % k
		next++
		u, err := w.timedReference(w.trs[i])
		if err != nil {
			return err
		}
		if firsts[i] == nil {
			firsts[i] = u.res
		}
		if err := sameResult("replay of "+w.trs[i].PoolName, firsts[i], u.res); err != nil {
			return err
		}
		cpus[i] = append(cpus[i], u.cpu.Seconds())
		r.res.Attempted += int64(u.res.Placements + u.res.Failed)
		r.res.Failed += int64(u.res.Failed)
		return nil
	})
	if err != nil {
		return err
	}
	var (
		cpu, placed, events, density float64
		msPerDecision                []float64
	)
	for i, res := range firsts {
		c := median(cpus[i])
		cpu += c
		placed += float64(res.Placements)
		events += float64(res.Placements + res.Exits)
		density += res.AvgPackingDensity / float64(k)
		msPerDecision = append(msPerDecision, c*1e3/float64(res.Placements+res.Failed))
	}
	r.set("placements_per_s", placed/cpu, "1/s")
	r.set("throughput_rps", events/cpu, "1/s")
	r.set("latency_p90_ms", quantile(msPerDecision, 0.9), "ms")
	r.set("packing_density", density, "ratio")
	fmt.Printf("units %d over %d traces, CPU s per trace %.3f, peak RSS %.1f MB\n", n, k, cpus, peakRSSMB())
	// The live heap is measured with each trace's first final pool and
	// series still referenced.
	r.set("mem_live_mb", heapLiveMB(), "MB")
	runtime.KeepAlive(firsts)
	runtime.KeepAlive(w)
	return nil
}

// runTraced runs untraced reference units (the library call) for the
// first half of the budget and traced units for the second, checks that
// both give identical results, and reports the per-layer metrics.
func (w *replayWorkload) runTraced(r *run) error {
	var (
		ref        *sim.Result
		refCPU     []float64
		refPlaced  int
		allocs     allocCounters
		tracers    []*tracer
		pols       []*tracedPolicy
		stats      layerStats
		tracedCPU  []float64
		tracedWall time.Duration
		placements int
	)
	refUnits, err := units(r.budget(), r.minUnits(), func() error {
		before := readAllocs()
		u, err := w.timedReference(w.trs[0])
		if err != nil {
			return err
		}
		c := readAllocs().since(before)
		allocs = allocCounters{allocs.objects + c.objects, allocs.bytes + c.bytes, allocs.gcs + c.gcs}
		if ref == nil {
			ref = u.res
		}
		if err := sameResult("reference replay", ref, u.res); err != nil {
			return err
		}
		refCPU = append(refCPU, u.cpu.Seconds())
		refPlaced += u.res.Placements
		r.res.Attempted += int64(u.res.Placements + u.res.Failed)
		r.res.Failed += int64(u.res.Failed)
		return nil
	})
	if err != nil {
		return err
	}
	_, err = units(r.seconds-r.budget(), 1, func() error {
		t := newTracer(r.start)
		pol, err := w.newPolicy(&tracedPredictor{Predictor: w.pred, tr: t})
		if err != nil {
			return err
		}
		tp := &tracedPolicy{Policy: pol, tr: t}
		var res *sim.Result
		start := time.Now()
		cpu, err := threadCPU(func() (err error) {
			res, err = w.drive(tp, t)
			return err
		})
		wall := time.Since(start)
		if err != nil {
			return err
		}
		if err := sameResult("traced replay vs "+w.trs[0].PoolName+" reference", ref, res); err != nil {
			return err
		}
		if len(t.spans) == 0 {
			return wrong("traced replay recorded no spans")
		}
		stats.add(t)
		tracers = append(tracers, t)
		pols = append(pols, tp)
		tracedCPU = append(tracedCPU, cpu.Seconds())
		tracedWall += wall
		placements += res.Placements
		r.res.Attempted += int64(res.Placements + res.Failed)
		r.res.Failed += int64(res.Failed)
		return nil
	})
	if err != nil {
		return err
	}
	fmt.Printf("reference units %d, CPU s %.3f; traced units %d, CPU s %.3f\n", refUnits, refCPU, len(tracedCPU), tracedCPU)
	r.setLayers(&stats, pols, tracedWall, placements)
	r.setRuntime(allocs, refUnits, refPlaced)
	r.set("sim.empty_host_frac", ref.AvgEmptyHostFrac, "ratio")
	r.setNoServe()
	r.set("trace_overhead_frac", median(tracedCPU)/median(refCPU)-1, "ratio")
	return r.writeSpans(tracers)
}
