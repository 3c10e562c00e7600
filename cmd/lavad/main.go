// Command lavad is the online placement daemon: it loads a pool geometry
// (and model training data) from a trace file, trains the requested
// lifetime model, and serves the LAVA scheduling stack over an HTTP JSON
// API — /place, /exit, /tick, /stats, /snapshot, /drain — instead of
// replaying the trace offline.
//
// Usage:
//
//	lavad -trace trace.jsonl                         # LAVA + dist model on :8080
//	lavad -trace trace.jsonl -policy nilas -model gbdt -addr 127.0.0.1:9000
//	lavad -trace trace.jsonl -cells 4 -router feature-hash   # federated fleet
//	lavad -trace trace.jsonl -trace-k 3                      # decision tracing on /trace
//	lavad -trace trace.jsonl -trace-k 8 -trace-out dec.jsonl # + persistent JSONL stream
//	lavad -trace trace.jsonl -admit "latency=100/1m:200"     # SLO admission control
//
// -admit enables per-class token-bucket admission control in front of the
// scheduler: requests carry an SLO class (latency | standard | besteffort;
// missing defaults to standard), over-budget classes get HTTP 429 with a
// retry-at virtual time, and /stats and /drain report per-class counts with
// Jain's fairness index. The buckets refill on virtual-time boundaries, so
// admission decisions replay deterministically — "track" keeps the
// accounting with no limits.
//
// -trace-k K > 0 enables decision tracing: every placement decision is
// recorded with the chosen host and its top-K scored alternatives, held in
// a ring of -trace-buf decisions (default 8192, -1 unbounded) and served
// over GET /trace (filters: vm, host, from_ns, to_ns, after, limit; in
// fleet mode add cell=N). -trace-out streams decisions to a JSONL file as
// they happen (single-cell only). Tracing is observe-only — placement
// decisions are identical with it on or off.
//
// With -cells N > 1 the daemon serves a federated fleet: N independent
// per-cell event loops (parallel across cores) behind a router chosen by
// -router (round-robin | least-utilized | feature-hash), the same HTTP
// surface, rolled-up /stats and /drain.
//
// Replaying the same trace against the daemon with cmd/lavaload reproduces
// `lavasim -trace trace.jsonl` byte-for-byte — per cell, in fleet mode
// with the static routers (round-robin, feature-hash); least-utilized is
// served live from the fleet's commitment ledger and intentionally
// diverges from the offline router's ground-truth-lifetime heap. See
// internal/serve for the determinism contract. SIGINT/SIGTERM shut the
// listener down gracefully and stop the event loop.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"lava"
	"lava/internal/model"
	"lava/internal/model/gbdt"
	"lava/internal/trace"
)

func main() {
	var (
		tracePath = flag.String("trace", "", "trace file: pool geometry, warm-up/horizon, and model training data (required)")
		addr      = flag.String("addr", "127.0.0.1:8080", "listen address")
		policy    = flag.String("policy", "lava", "wastemin | bestfit | la-binary | nilas | lava")
		modelKind = flag.String("model", "dist", "oracle | gbdt | km | dist (lifetime model for lifetime-aware policies)")
		trees     = flag.Int("trees", 400, "GBDT trees when training in-process")
		refresh   = flag.Duration("cache", time.Minute, "host score cache refresh interval (0 disables)")
		tick      = flag.Duration("tick", 0, "policy tick period (default 5m)")
		sample    = flag.Duration("sample", 0, "metric sampling period (default 1h)")
		queue     = flag.Int("queue", 0, "admission queue depth (default 256)")
		cells     = flag.Int("cells", 1, "serving cells; > 1 federates the pool behind a router")
		router    = flag.String("router", "feature-hash", "fleet router: round-robin | least-utilized | feature-hash")
		traceK    = flag.Int("trace-k", 0, "record decision traces with this many scored alternatives (0 disables; served at /trace)")
		traceBuf  = flag.Int("trace-buf", 0, "decision trace ring capacity (0 = default 8192, -1 = unbounded)")
		traceOut  = flag.String("trace-out", "", "stream recorded decisions to this JSONL file (single-cell only; requires -trace-k)")
		scenName  = flag.String("scenario", "", "serve under a named operational scenario (see lavasim -list-scenarios); forces fleet mode")
		scenSeed  = flag.Int64("seed", 0, "scenario randomness seed (must match the offline arm for parity)")
		admit     = flag.String("admit", "", `SLO admission control, e.g. "latency=100/1m:200,standard=50/1m" (refill/window[:burst] per class) or "track" for accounting without limits`)
	)
	flag.Parse()
	if *tracePath == "" {
		fatal(fmt.Errorf("-trace is required"))
	}

	f, err := os.Open(*tracePath)
	if err != nil {
		fatal(err)
	}
	tr, err := trace.Read(f)
	f.Close()
	if err != nil {
		fatal(err)
	}
	if err := tr.Validate(); err != nil {
		fatal(err)
	}

	pred, err := buildModel(tr, *modelKind, *trees)
	if err != nil {
		fatal(err)
	}
	// The -cache flag uses 0 for "disabled"; the facade's zero value means
	// "default", so map explicitly.
	cacheRefresh := *refresh
	if cacheRefresh == 0 {
		cacheRefresh = -1
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	sc := lava.ServeConfig{
		Policy:       lava.PolicyKind(*policy),
		Pred:         pred,
		CacheRefresh: cacheRefresh,
		TickEvery:    *tick,
		SampleEvery:  *sample,
		QueueDepth:   *queue,
		TraceK:       *traceK,
		TraceCap:     *traceBuf,
		Admission:    *admit,
	}
	if *traceOut != "" {
		if *traceK <= 0 {
			fatal(fmt.Errorf("-trace-out requires -trace-k > 0"))
		}
		if *cells > 1 {
			fatal(fmt.Errorf("-trace-out is single-cell only; query /trace?cell=N in fleet mode"))
		}
		tf, err := os.Create(*traceOut)
		if err != nil {
			fatal(err)
		}
		defer tf.Close()
		sc.TraceOut = tf
	}
	if *cells > 1 || *scenName != "" {
		// A scenario needs the fleet stack even single-cell: its tick
		// injectors fire inside the fleet's per-cell event loops.
		what := *scenName
		if what == "" {
			what = "steady"
		}
		fmt.Fprintf(os.Stderr, "lavad: pool %s (%d hosts, %d cells via %s), policy %s, model %s, scenario %s, horizon %v\n",
			tr.PoolName, tr.Hosts, *cells, *router, *policy, pred.Name(), what, tr.End())
		fmt.Fprintf(os.Stderr, "lavad: listening on http://%s\n", *addr)
		err = lava.ServeFleet(ctx, *addr, tr, lava.FleetConfig{
			ServeConfig:  sc,
			Cells:        *cells,
			Router:       lava.RouterKind(*router),
			Scenario:     *scenName,
			ScenarioSeed: *scenSeed,
		})
	} else {
		fmt.Fprintf(os.Stderr, "lavad: pool %s (%d hosts), policy %s, model %s, horizon %v\n",
			tr.PoolName, tr.Hosts, *policy, pred.Name(), tr.End())
		fmt.Fprintf(os.Stderr, "lavad: listening on http://%s\n", *addr)
		err = lava.Serve(ctx, *addr, tr, sc)
	}
	if err != nil {
		fatal(err)
	}
	fmt.Fprintln(os.Stderr, "lavad: shut down")
}

// buildModel trains the requested lifetime model on the trace's records.
func buildModel(tr *trace.Trace, kind string, trees int) (model.Predictor, error) {
	switch kind {
	case "oracle":
		return model.Oracle{}, nil
	case "km":
		return model.TrainKM(tr.Records, nil)
	case "dist":
		return model.TrainDistTable(tr.Records, nil)
	case "gbdt":
		return model.TrainGBDT(tr.Records, gbdt.Params{Trees: trees})
	default:
		return nil, fmt.Errorf("unknown model kind %q", kind)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "lavad:", err)
	os.Exit(1)
}
