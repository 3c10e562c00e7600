// Package lava is the public facade of the LAVA reproduction: lifetime-aware
// VM allocation with learned distributions and adaptation to mispredictions
// (MLSys 2025).
//
// The facade wires together the internal packages for the common end-to-end
// flow — generate (or load) a trace, pick a lifetime model and a scheduling
// policy, replay the trace through the simulator, and read the bin-packing
// metrics the paper reports:
//
//	tr, _ := lava.GenerateTrace(lava.TraceConfig{Hosts: 64, TargetUtil: 0.65,
//	    Days: 14, PrefillDays: 10, Seed: 1})
//	pred, _ := lava.TrainModel(tr, lava.ModelGBDT)
//	res, _ := lava.Simulate(tr, lava.PolicyLAVA, pred)
//	fmt.Println(res.AvgEmptyHostFrac)
//
// Lower-level control (custom scoring chains, defragmentation engines,
// stranding probes, causal analysis) is available in the internal packages;
// see DESIGN.md for the map.
package lava

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"time"

	"lava/internal/cell"
	"lava/internal/model"
	"lava/internal/model/gbdt"
	"lava/internal/ptrace"
	"lava/internal/runner"
	"lava/internal/scenario"
	"lava/internal/scheduler"
	"lava/internal/serve"
	"lava/internal/sim"
	"lava/internal/simtime"
	"lava/internal/slo"
	"lava/internal/trace"
	"lava/internal/workload"
)

// Trace is a replayable VM trace.
type Trace = trace.Trace

// Result is a simulation outcome.
type Result = sim.Result

// Predictor estimates remaining VM lifetimes.
type Predictor = model.Predictor

// TraceConfig configures synthetic trace generation.
type TraceConfig struct {
	Name        string  // pool name (default "pool")
	Hosts       int     // number of hosts (default 64)
	TargetUtil  float64 // steady-state CPU utilization (default 0.65)
	Days        int     // steady-state days to generate (default 14)
	PrefillDays int     // warm-up days before the measured window (default 10)
	Seed        int64
	E2          bool // use the cost-optimized E2 mix instead of C2
}

// GenerateTrace builds a production-like synthetic trace (see
// internal/workload for the distributional guarantees).
func GenerateTrace(cfg TraceConfig) (*Trace, error) {
	if cfg.Name == "" {
		cfg.Name = "pool"
	}
	if cfg.Hosts == 0 {
		cfg.Hosts = 64
	}
	if cfg.TargetUtil == 0 {
		cfg.TargetUtil = 0.65
	}
	if cfg.Days == 0 {
		cfg.Days = 14
	}
	if cfg.PrefillDays == 0 {
		cfg.PrefillDays = 10
	}
	var mix []workload.TypeSpec
	if cfg.E2 {
		mix = workload.E2Mix()
	}
	return workload.Generate(workload.PoolSpec{
		Name:       cfg.Name,
		Zone:       "zone-a",
		Hosts:      cfg.Hosts,
		TargetUtil: cfg.TargetUtil,
		Duration:   time.Duration(cfg.Days) * simtime.Day,
		Prefill:    time.Duration(cfg.PrefillDays) * simtime.Day,
		Seed:       cfg.Seed,
		Diurnal:    0.3,
		Mix:        mix,
	})
}

// ModelKind selects a lifetime model family.
type ModelKind string

// Supported model families (Table 4).
const (
	ModelGBDT   ModelKind = "gbdt"   // production model: gradient-boosted trees
	ModelKM     ModelKind = "km"     // stratified Kaplan-Meier lookup table
	ModelDist   ModelKind = "dist"   // empirical-distribution table
	ModelOracle ModelKind = "oracle" // ground-truth lifetimes
)

// TrainModel fits a lifetime model of the given kind on the trace's records.
// ModelOracle needs no training and ignores the trace.
func TrainModel(tr *Trace, kind ModelKind) (Predictor, error) {
	switch kind {
	case ModelGBDT:
		return model.TrainGBDT(tr.Records, gbdt.Params{Trees: 400})
	case ModelKM:
		return model.TrainKM(tr.Records, nil)
	case ModelDist:
		return model.TrainDistTable(tr.Records, nil)
	case ModelOracle:
		return model.Oracle{}, nil
	default:
		return nil, fmt.Errorf("lava: unknown model kind %q", kind)
	}
}

// PolicyKind selects a scheduling algorithm.
type PolicyKind string

// Supported policies.
const (
	PolicyWasteMin PolicyKind = "wastemin"  // production baseline (no lifetimes)
	PolicyBestFit  PolicyKind = "bestfit"   // classic best fit
	PolicyLABinary PolicyKind = "la-binary" // Barbalho et al., one-shot predictions
	PolicyNILAS    PolicyKind = "nilas"     // non-invasive lifetime-aware scheduling
	PolicyLAVA     PolicyKind = "lava"      // lifetime-aware VM allocation
)

// NewPolicy builds a policy over the given predictor with the default
// 1-minute host-score cache. The lifetime-unaware baselines accept a nil
// predictor.
func NewPolicy(kind PolicyKind, pred Predictor) (scheduler.Policy, error) {
	return newPolicy(kind, pred, time.Minute)
}

// newPolicy builds a policy with an explicit cache refresh interval
// (0 disables caching).
func newPolicy(kind PolicyKind, pred Predictor, refresh time.Duration) (scheduler.Policy, error) {
	switch kind {
	case PolicyWasteMin:
		return scheduler.NewWasteMin(), nil
	case PolicyBestFit:
		return scheduler.NewBestFit(), nil
	case PolicyLABinary, PolicyNILAS, PolicyLAVA:
		if pred == nil {
			return nil, fmt.Errorf("lava: policy %q needs a predictor", kind)
		}
		switch kind {
		case PolicyLABinary:
			return scheduler.NewLABinary(pred), nil
		case PolicyNILAS:
			return scheduler.NewNILAS(pred, refresh), nil
		default:
			return scheduler.NewLAVA(pred, refresh), nil
		}
	default:
		return nil, fmt.Errorf("lava: unknown policy kind %q", kind)
	}
}

// Simulate replays the trace under the policy and returns the metrics.
func Simulate(tr *Trace, kind PolicyKind, pred Predictor) (*Result, error) {
	pol, err := NewPolicy(kind, pred)
	if err != nil {
		return nil, err
	}
	return sim.Run(sim.Config{Trace: tr, Policy: pol})
}

// SimSpec names one simulation in a SimulateMany batch.
type SimSpec struct {
	Name   string // identifies the run in errors; defaults to pool/policy
	Trace  *Trace
	Policy PolicyKind
	Pred   Predictor // may be nil for lifetime-unaware policies
}

// SimulateMany replays the specs concurrently across a bounded worker pool
// (parallel <= 0 uses GOMAXPROCS) and returns results in spec order.
// Results are identical to running each spec sequentially — see
// internal/runner for the determinism contract. The first failure cancels
// the remaining runs; cancelling ctx stops the batch at the next run
// boundary.
func SimulateMany(ctx context.Context, parallel int, specs ...SimSpec) ([]*Result, error) {
	jobs := make([]runner.Job, len(specs))
	for i, s := range specs {
		s := s
		name := s.Name
		if name == "" {
			name = s.Trace.PoolName + "/" + string(s.Policy)
		}
		jobs[i] = runner.Job{Name: name, Run: func() (*sim.Result, error) {
			// Policies carry mutable caches, so each run builds its own.
			pol, err := NewPolicy(s.Policy, s.Pred)
			if err != nil {
				return nil, err
			}
			return sim.Run(sim.Config{Trace: s.Trace, Policy: pol})
		}}
	}
	results, err := (&runner.Batch{Parallel: parallel}).Run(ctx, jobs)
	if err != nil {
		return nil, fmt.Errorf("lava: %w", err)
	}
	out := make([]*Result, len(results))
	for i := range results {
		out[i] = results[i].Result
	}
	return out, nil
}

// RouterKind selects a cell router for multi-cell federations.
type RouterKind string

// Supported routers (see internal/cell).
const (
	RouterRoundRobin    RouterKind = "round-robin"    // spread arrivals cyclically
	RouterLeastUtilized RouterKind = "least-utilized" // balance committed load
	RouterFeatureHash   RouterKind = "feature-hash"   // stable affinity routing
)

// ScenarioNames lists the built-in scenario ids (internal/scenario):
// operational-event overlays — arrival surges, maintenance-drain waves,
// correlated failures, capacity crunches, mispredicting model pushes — that
// compose onto any trace. "steady" is the unmodified control arm.
func ScenarioNames() []string { return scenario.Names() }

// ScenarioConfig shapes a SimulateScenario run.
type ScenarioConfig struct {
	// Scenario is a built-in scenario id (ScenarioNames); "" or "steady"
	// replays the trace unmodified.
	Scenario string

	// Seed drives scenario randomness (burst sampling, failure placement).
	Seed int64

	// Cells shards the workload across this many independent cells
	// (default 1: a single pool, no federation).
	Cells int

	// Router picks how records map to cells (default RouterFeatureHash).
	Router RouterKind

	// CacheRefresh is the host-score cache refresh interval for
	// lifetime-aware policies: 0 means the default (1 minute), negative
	// disables caching.
	CacheRefresh time.Duration

	// Parallel is the worker budget for the per-cell simulations: 1 runs
	// sequentially, <= 0 uses GOMAXPROCS. Results are identical at any
	// setting.
	Parallel int
}

// ComposeScenario applies a named scenario's trace-level events (surges,
// flash crowds) to a trace and returns the composed copy; the input is
// never mutated. This is the exact composition SimulateScenario and a
// scenario-enabled fleet (FleetConfig.Scenario) perform internally —
// exported so load drivers can replay the same composed arrival stream
// against a live fleet and byte-compare the outcome with the offline run.
func ComposeScenario(tr *Trace, name string, seed int64) (*Trace, error) {
	if name == "" {
		name = "steady"
	}
	spec, err := scenario.ByName(name, tr, seed)
	if err != nil {
		return nil, err
	}
	return spec.ComposeTrace(tr)
}

// SimulateScenario composes a named scenario onto the trace, shards the
// result across a multi-cell federation, replays every cell concurrently
// under the policy, and rolls the per-cell metrics back up. Deterministic
// given (trace, cfg.Seed) at any Parallel setting.
func SimulateScenario(ctx context.Context, tr *Trace, kind PolicyKind, pred Predictor, cfg ScenarioConfig) (*cell.Rollup, error) {
	name := cfg.Scenario
	if name == "" {
		name = "steady"
	}
	spec, err := scenario.ByName(name, tr, cfg.Seed)
	if err != nil {
		return nil, err
	}
	cells := cfg.Cells
	if cells <= 0 {
		cells = 1
	}
	routerKind := cfg.Router
	if routerKind == "" {
		routerKind = RouterFeatureHash
	}

	composed, err := spec.ComposeTrace(tr)
	if err != nil {
		return nil, err
	}
	plan, err := cell.PlanCells(composed, string(routerKind), cells)
	if err != nil {
		return nil, err
	}

	if pred != nil {
		pred = spec.WrapModel(pred)
	}
	refresh := cfg.CacheRefresh
	switch {
	case refresh == 0:
		refresh = time.Minute
	case refresh < 0:
		refresh = 0
	}
	jobs := make([]runner.Job, len(plan.Cells))
	for i, ct := range plan.Cells {
		i, ct := i, ct
		jobs[i] = runner.Job{Name: ct.PoolName, Seed: cfg.Seed, Run: func() (*sim.Result, error) {
			pol, err := newPolicy(kind, pred, refresh)
			if err != nil {
				return nil, err
			}
			return sim.Run(sim.Config{Trace: ct, Policy: pol, Injectors: spec.Injectors(i)})
		}}
	}
	results, err := (&runner.Batch{Parallel: cfg.Parallel}).Run(ctx, jobs)
	if err != nil {
		return nil, fmt.Errorf("lava: scenario %s: %w", name, err)
	}
	sims := make([]*sim.Result, len(results))
	for i := range results {
		sims[i] = results[i].Result
	}
	return cell.RollUp(plan.Router, plan.Hosts, sims)
}

// ServeConfig shapes NewServer and Serve.
type ServeConfig struct {
	// Policy is the serving policy (default PolicyLAVA).
	Policy PolicyKind

	// Pred is the lifetime model behind lifetime-aware policies; nil is
	// fine for PolicyWasteMin/PolicyBestFit.
	Pred Predictor

	// CacheRefresh is the host-score cache refresh interval, with
	// ScenarioConfig's convention: 0 = default (1 minute), negative =
	// disabled.
	CacheRefresh time.Duration

	// TickEvery/SampleEvery default to the simulator's 5m / 1h.
	TickEvery   time.Duration
	SampleEvery time.Duration

	// QueueDepth bounds the admission queue (default 256).
	QueueDepth int

	// TraceK > 0 enables decision tracing: every placement decision is
	// recorded with the chosen host and its top-TraceK scored alternatives,
	// queryable over GET /trace. Tracing is observe-only — decisions are
	// identical with it on or off.
	TraceK int

	// TraceCap bounds the in-memory trace ring in decisions (0 = the
	// serving default of 8192, negative = unbounded). Older decisions are
	// overwritten once the ring is full.
	TraceCap int

	// TraceOut, if non-nil, additionally streams every recorded decision
	// as a JSON line the moment it is made (ignored in fleet mode, where
	// per-cell streams would interleave nondeterministically — query each
	// cell's ring instead).
	TraceOut io.Writer

	// Admission configures SLO-class token-bucket admission control, as a
	// spec string parsed by slo.ParseConfig:
	//
	//	"latency=100/1m:200,standard=50/1m"   per-class refill/window[:burst]
	//	"track"                               no limits, per-class accounting only
	//	""                                    admission layer off entirely
	//
	// Unlisted classes stay unlimited. Rejected placements answer HTTP 429
	// with the class and the virtual time of the next token; they consume
	// their sequence turn but never a placement.
	Admission string
}

// NewServer builds an online placement server (internal/serve) over the
// trace's pool geometry: the daemon form of Simulate. The trace's records
// are not replayed — clients drive placements over the HTTP API
// (Server.Handler) or the typed methods; replaying the same trace through
// serve.Client.Replay reproduces Simulate's result byte-for-byte.
func NewServer(tr *Trace, cfg ServeConfig) (*serve.Server, error) {
	kind := cfg.Policy
	if kind == "" {
		kind = PolicyLAVA
	}
	refresh := cfg.CacheRefresh
	switch {
	case refresh == 0:
		refresh = time.Minute
	case refresh < 0:
		refresh = 0
	}
	pol, err := newPolicy(kind, cfg.Pred, refresh)
	if err != nil {
		return nil, err
	}
	adm, err := slo.ParseConfig(cfg.Admission)
	if err != nil {
		return nil, err
	}
	sc := serve.FromTrace(tr)
	sc.Policy = pol
	sc.TickEvery = cfg.TickEvery
	sc.SampleEvery = cfg.SampleEvery
	sc.QueueDepth = cfg.QueueDepth
	sc.TraceK = cfg.TraceK
	sc.TraceCap = cfg.TraceCap
	sc.TraceOut = cfg.TraceOut
	sc.SLO = adm
	return serve.New(sc)
}

// Serve runs a placement server on addr until ctx is cancelled, then shuts
// the listener down gracefully and stops the event loop. It blocks for the
// server's lifetime; the error is http.ErrServerClosed-free (a clean
// shutdown returns nil).
func Serve(ctx context.Context, addr string, tr *Trace, cfg ServeConfig) error {
	srv, err := NewServer(tr, cfg)
	if err != nil {
		return err
	}
	defer srv.Close()
	return serveHTTP(ctx, addr, srv.Handler())
}

// FleetConfig shapes NewFleet and ServeFleet: the single-server ServeConfig
// plus the federation dimensions.
type FleetConfig struct {
	ServeConfig

	// Cells is the number of independent serving cells (default 1). Each
	// cell owns its own pool, policy instance and event loop, so a fleet
	// serves placements in parallel across cores.
	Cells int

	// Router picks how placements map to cells (default RouterFeatureHash).
	// RouterLeastUtilized is served live: it consults the fleet's running
	// commitment ledger instead of the offline router's ground-truth
	// lifetime heap.
	Router RouterKind

	// Scenario, when non-empty, runs the fleet under a named operational
	// scenario (ScenarioNames): the fleet's pool geometry comes from the
	// scenario-composed trace, every cell gets the scenario's tick
	// injectors (drain waves, failures, crunches fire live inside the
	// cell event loops), and the predictor is wrapped with the scenario's
	// model events. A client replaying the composed trace (ComposeScenario)
	// against such a fleet reproduces SimulateScenario byte-for-byte.
	Scenario string

	// ScenarioSeed drives scenario randomness; must match the seed of the
	// offline arm being compared against.
	ScenarioSeed int64

	// ClassMix labels the replayed event stream with SLO classes (see
	// AssignClasses; seeded by ScenarioSeed). A live fleet ignores it —
	// online requests carry their class on the wire — but
	// ReplayFleetOffline needs it to reconstruct the classed stream a
	// lavaload -class-mix replay sends, scenario-added arrivals included.
	ClassMix string
}

// NewFleet builds a federated placement front-end (serve.Fleet) over the
// trace's pool geometry: hosts split evenly across cfg.Cells exactly as
// cell.SplitHosts shards them offline, one policy instance per cell.
// Replaying a trace against the fleet reproduces cell.PlanCells + per-cell
// Simulate byte-for-byte for the statically routed router kinds — the
// parity test in internal/serve asserts it.
func NewFleet(tr *Trace, cfg FleetConfig) (*serve.Fleet, error) {
	fc, _, err := buildFleetConfig(tr, cfg)
	if err != nil {
		return nil, err
	}
	return serve.NewFleet(fc)
}

// buildFleetConfig resolves a facade FleetConfig into the serve-layer one:
// scenario composition, policy factory, router and admission defaults. It
// also returns the (possibly scenario-composed) trace the fleet geometry
// came from — the event stream an offline reference replay must use.
// Shared by NewFleet and ReplayFleetOffline so the two arms of a parity
// comparison cannot drift in setup.
func buildFleetConfig(tr *Trace, cfg FleetConfig) (serve.FleetConfig, *Trace, error) {
	kind := cfg.Policy
	if kind == "" {
		kind = PolicyLAVA
	}
	var spec *scenario.Spec
	if cfg.Scenario != "" {
		s, err := scenario.ByName(cfg.Scenario, tr, cfg.ScenarioSeed)
		if err != nil {
			return serve.FleetConfig{}, nil, err
		}
		spec = &s
		composed, err := s.ComposeTrace(tr)
		if err != nil {
			return serve.FleetConfig{}, nil, err
		}
		tr = composed
	}
	if cfg.ClassMix != "" {
		// Label after scenario composition so scenario-added arrivals get
		// classes too — the same compose-then-label order lavaload uses.
		labeled, err := AssignClasses(tr, cfg.ClassMix, cfg.ScenarioSeed)
		if err != nil {
			return serve.FleetConfig{}, nil, err
		}
		tr = labeled
	}
	pred := cfg.Pred
	if spec != nil && pred != nil {
		pred = spec.WrapModel(pred)
	}
	refresh := cfg.CacheRefresh
	switch {
	case refresh == 0:
		refresh = time.Minute
	case refresh < 0:
		refresh = 0
	}
	router := cfg.Router
	if router == "" {
		router = RouterFeatureHash
	}
	adm, err := slo.ParseConfig(cfg.Admission)
	if err != nil {
		return serve.FleetConfig{}, nil, err
	}
	fc := serve.FleetFromTrace(tr)
	if spec != nil {
		fc.Injectors = spec.Injectors
	}
	fc.Cells = cfg.Cells
	if fc.Cells <= 0 {
		fc.Cells = 1
	}
	fc.Router = string(router)
	fc.TickEvery = cfg.TickEvery
	fc.SampleEvery = cfg.SampleEvery
	fc.QueueDepth = cfg.QueueDepth
	fc.TraceK = cfg.TraceK
	fc.TraceCap = cfg.TraceCap
	fc.SLO = adm
	fc.NewPolicy = func(int) (scheduler.Policy, error) {
		return newPolicy(kind, pred, refresh)
	}
	return fc, tr, nil
}

// ReplayFleetOffline computes, without any servers or HTTP, the exact drain
// report a fleet built by NewFleet(tr, cfg) produces when the trace's event
// stream is replayed against it (serve.Client.Replay, any concurrency): the
// offline arm of the federated parity harness, admission gate included. The
// scenario composition, cell split, routing and token-bucket decisions all
// run through the same code paths the live fleet uses, just sequentially.
func ReplayFleetOffline(tr *Trace, cfg FleetConfig) (*serve.FleetDrainResponse, error) {
	fc, composed, err := buildFleetConfig(tr, cfg)
	if err != nil {
		return nil, err
	}
	roll, err := serve.RunScriptOffline(fc, serve.OpsFromTrace(composed))
	if err != nil {
		return nil, err
	}
	pol, err := fc.NewPolicy(0)
	if err != nil {
		return nil, err
	}
	resp := serve.FleetReportOf(fc.PoolName, pol.Name(), roll)
	return &resp, nil
}

// ServeFleet runs a federated placement fleet on addr until ctx is
// cancelled: the multi-cell form of Serve, same HTTP surface, rolled-up
// stats and drain. It blocks for the fleet's lifetime; a clean shutdown
// returns nil.
func ServeFleet(ctx context.Context, addr string, tr *Trace, cfg FleetConfig) error {
	fleet, err := NewFleet(tr, cfg)
	if err != nil {
		return err
	}
	defer fleet.Close()
	return serveHTTP(ctx, addr, fleet.Handler())
}

// serveHTTP runs handler on addr until ctx cancels, then shuts the
// listener down gracefully. Shared by Serve and ServeFleet.
func serveHTTP(ctx context.Context, addr string, handler http.Handler) error {
	hs := &http.Server{Addr: addr, Handler: handler}
	errc := make(chan error, 1)
	go func() { errc <- hs.ListenAndServe() }()
	select {
	case <-ctx.Done():
		shutCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := hs.Shutdown(shutCtx); err != nil {
			return err
		}
		return nil
	case err := <-errc:
		if err == http.ErrServerClosed {
			return nil
		}
		return err
	}
}

// ReplayOptions shapes ReplayTrace. The zero value replays serially, as
// fast as the server accepts, and drains at the end.
type ReplayOptions = serve.ReplayOptions

// ReplayReport is the outcome of ReplayTrace: request count, wall time,
// client-observed latency summary, and (unless SkipDrain) the server's
// final aggregates.
type ReplayReport = serve.ReplayReport

// ReplayTrace replays the trace's event stream against a placement server
// at baseURL (e.g. "http://127.0.0.1:8080"): the library form of
// cmd/lavaload. Requests are sequence-numbered, so the served decisions
// match an offline Simulate of the same trace byte-for-byte at any
// concurrency.
func ReplayTrace(ctx context.Context, baseURL string, tr *Trace, opt ReplayOptions) (*ReplayReport, error) {
	return (&serve.Client{Base: baseURL}).Replay(ctx, tr, opt)
}

// AssignClasses labels a trace's records with SLO classes drawn from a mix
// spec — "latency=1,standard=8,besteffort=1" style weights over the three
// classes (see internal/slo.ParseMix) — and returns the labeled copy; the
// input is never mutated. Assignment is a pure function of (seed, record
// ID): independent of record order, so both arms of an online/offline
// comparison label identically, and stable under scenario composition.
// Classes never influence placement or routing — only admission and
// per-class accounting.
func AssignClasses(tr *Trace, mix string, seed int64) (*Trace, error) {
	m, err := slo.ParseMix(mix)
	if err != nil {
		return nil, err
	}
	if m.Zero() {
		return tr, nil
	}
	return slo.AssignClasses(tr, m, seed), nil
}

// --- decision tracing & counterfactual replay ---------------------------

// TraceOptions configures a decision recorder (see internal/ptrace): K is
// the number of scored alternatives kept per decision, Capacity bounds the
// ring (0 = unbounded), Out optionally streams decisions as JSON lines.
type TraceOptions = ptrace.Options

// TraceRecorder is a ring-buffered recorder of placement decisions.
type TraceRecorder = ptrace.Recorder

// TraceDecision is one recorded decision: the event kind, virtual time,
// VM, chosen host, deciding chain level and the top-K scored alternatives.
type TraceDecision = ptrace.Decision

// TraceFilter selects decisions from a recorder; see TraceRecorder.Query.
type TraceFilter = ptrace.Filter

// TraceQueryResult is a filtered, paginated page of recorded decisions.
type TraceQueryResult = ptrace.QueryResult

// TraceReplayConfig shapes ReplayDecisions: the recorded pool geometry
// plus the candidate policy to re-price the stream under.
type TraceReplayConfig = ptrace.ReplayConfig

// TraceReplayReport is a counterfactual replay outcome: per-decision
// matches, divergences and regret.
type TraceReplayReport = ptrace.Report

// NewTraceRecorder builds a decision recorder to pass to SimulateTraced
// (or internal/sim's Config.Tracer directly).
func NewTraceRecorder(opt TraceOptions) *TraceRecorder { return ptrace.New(opt) }

// SimulateTraced is Simulate with a decision recorder attached: every
// placement decision lands in rec alongside the simulation's normal
// metrics. Tracing is observe-only — the Result is identical to an
// untraced Simulate.
func SimulateTraced(tr *Trace, kind PolicyKind, pred Predictor, rec *TraceRecorder) (*Result, error) {
	pol, err := NewPolicy(kind, pred)
	if err != nil {
		return nil, err
	}
	return sim.Run(sim.Config{Trace: tr, Policy: pol, Tracer: rec})
}

// ReplayDecisions feeds a recorded decision stream through a different
// policy without re-simulating (counterfactual replay): the pool follows
// the recorded trajectory while the candidate policy is asked what it
// would have chosen at every decision. See internal/ptrace for the parity
// contract (self-replay is exact; re-simulation agrees at the first
// divergence). The stream must include creation records, i.e. come from
// an unbounded recorder.
func ReplayDecisions(cfg TraceReplayConfig, decisions []TraceDecision) (*TraceReplayReport, error) {
	return ptrace.Replay(cfg, decisions)
}

// Compare runs several policies on the same trace and returns results keyed
// by policy kind — the quickest way to reproduce the paper's headline
// comparison on one pool. The policies run concurrently via SimulateMany.
func Compare(tr *Trace, pred Predictor, kinds ...PolicyKind) (map[PolicyKind]*Result, error) {
	if len(kinds) == 0 {
		kinds = []PolicyKind{PolicyWasteMin, PolicyLABinary, PolicyNILAS, PolicyLAVA}
	}
	specs := make([]SimSpec, len(kinds))
	for i, k := range kinds {
		specs[i] = SimSpec{Trace: tr, Policy: k, Pred: pred}
	}
	results, err := SimulateMany(context.Background(), 0, specs...)
	if err != nil {
		return nil, err
	}
	out := make(map[PolicyKind]*Result, len(kinds))
	for i, k := range kinds {
		out[k] = results[i]
	}
	return out, nil
}
