package scheduler_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sync"
	"testing"
	"time"

	"lava/internal/cluster"
	"lava/internal/model"
	"lava/internal/model/gbdt"
	"lava/internal/runner"
	"lava/internal/scheduler"
	"lava/internal/sim"
	"lava/internal/simtime"
	"lava/internal/trace"
	"lava/internal/workload"
)

// The reuse tests share one 64-host trace and a 400-tree GBDT trained on it.
var reuseFixture struct {
	once sync.Once
	tr   *trace.Trace
	g    *model.GBDTPredictor
	err  error
}

func reuseTraceAndModel(t *testing.T) (*trace.Trace, *model.GBDTPredictor) {
	t.Helper()
	f := &reuseFixture
	f.once.Do(func() {
		f.tr, f.err = workload.Generate(workload.PoolSpec{
			Name: "reuse", Zone: "z1", Hosts: 64, TargetUtil: 0.65,
			Duration: 2 * simtime.Day, Prefill: 2 * simtime.Day, Seed: 5, Diurnal: 0.3,
		})
		if f.err == nil {
			f.g, f.err = model.TrainGBDT(f.tr.Records, gbdt.Params{Trees: 400})
		}
	})
	if f.err != nil {
		t.Fatal(f.err)
	}
	return f.tr, f.g
}

// hiddenKey wraps a predictor without forwarding its UptimeKey, so the exit
// cache falls back to exact-uptime keys: the no-reuse reference.
type hiddenKey struct{ model.Predictor }

// countedGBDT counts model evaluations and forwards UptimeKey.
type countedGBDT struct {
	*model.GBDTPredictor
	evals int64
}

func (c *countedGBDT) PredictRemaining(vm *cluster.VM, uptime time.Duration) time.Duration {
	c.evals++
	return c.GBDTPredictor.PredictRemaining(vm, uptime)
}

// placementLog records every placement a policy is told about.
type placementLog struct {
	scheduler.Policy
	log []string
}

func (p *placementLog) OnPlaced(pool *cluster.Pool, h *cluster.Host, vm *cluster.VM, now time.Duration) {
	p.log = append(p.log, fmt.Sprintf("%d@%d:%d", vm.ID, now, h.ID))
	p.Policy.OnPlaced(pool, h, vm, now)
}

func (p *placementLog) ModelCalls() int64 {
	return p.Policy.(interface{ ModelCalls() int64 }).ModelCalls()
}

// replayLogged runs the trace and returns the placements and the canonical
// metrics document.
func replayLogged(t *testing.T, tr *trace.Trace, pol scheduler.Policy) ([]string, []byte) {
	t.Helper()
	pl := &placementLog{Policy: pol}
	res, err := sim.Run(sim.Config{Trace: tr, Policy: pl})
	if err != nil {
		t.Fatal(err)
	}
	doc, err := json.Marshal(runner.MetricsOf(res))
	if err != nil {
		t.Fatal(err)
	}
	return pl.log, doc
}

// TestRepredictionReuseParity: reusing repredictions by uptime bin changes
// no decision and no model-call count. lava and nilas over the GBDT, on
// both engines and with the exit cache off and on, place every VM on the
// same host with the same aggregates and ModelCalls as the same run behind
// a wrapper that hides UptimeKey.
func TestRepredictionReuseParity(t *testing.T) {
	tr, g := reuseTraceAndModel(t)
	mks := map[string]func(model.Predictor, time.Duration) scheduler.Policy{
		"lava":  func(p model.Predictor, r time.Duration) scheduler.Policy { return scheduler.NewLAVA(p, r) },
		"nilas": func(p model.Predictor, r time.Duration) scheduler.Policy { return scheduler.NewNILAS(p, r) },
	}
	for _, name := range []string{"lava", "nilas"} {
		for engineName, engine := range map[string]scheduler.Engine{"cached": scheduler.EngineCached, "exhaustive": scheduler.EngineExhaustive} {
			for _, refresh := range []time.Duration{0, time.Minute} {
				t.Run(fmt.Sprintf("%s/%s/refresh=%v", name, engineName, refresh), func(t *testing.T) {
					run := func(p model.Predictor) ([]string, []byte) {
						pol := mks[name](p, refresh)
						pol.(interface{ SetEngine(scheduler.Engine) }).SetEngine(engine)
						return replayLogged(t, tr, pol)
					}
					gotLog, gotDoc := run(g)
					wantLog, wantDoc := run(hiddenKey{g})
					if !bytes.Equal(gotDoc, wantDoc) {
						t.Fatalf("metrics with reuse:\n%s\nwithout:\n%s", gotDoc, wantDoc)
					}
					if i := mismatch(gotLog, wantLog); i >= 0 {
						t.Fatalf("placement %d differs (of %d/%d): reuse %s, reference %s",
							i, len(gotLog), len(wantLog), at(gotLog, i), at(wantLog, i))
					}
				})
			}
		}
	}
}

// mismatch returns the first index where a and b differ, or -1.
func mismatch(a, b []string) int {
	for i := 0; i < len(a) || i < len(b); i++ {
		if at(a, i) != at(b, i) {
			return i
		}
	}
	return -1
}

func at(s []string, i int) string {
	if i < len(s) {
		return s[i]
	}
	return "<none>"
}

// TestRepredictionReuseSavesModelWork pins the work saved: on a fixed trace,
// lava runs the GBDT for at most a quarter of the repredictions it requests
// (ModelCalls). Both counters are deterministic.
func TestRepredictionReuseSavesModelWork(t *testing.T) {
	tr, g := reuseTraceAndModel(t)
	cg := &countedGBDT{GBDTPredictor: g}
	res, err := sim.Run(sim.Config{Trace: tr, Policy: scheduler.NewLAVA(cg, time.Minute)})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("%d placements, %d model calls, %d model evaluations (%.1f%%)",
		res.Placements, res.ModelCalls, cg.evals, 100*float64(cg.evals)/float64(res.ModelCalls))
	if res.ModelCalls == 0 || 4*cg.evals > res.ModelCalls {
		t.Fatalf("%d model evaluations for %d model calls, want at most 25%%", cg.evals, res.ModelCalls)
	}
}
