package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"lava"
	"lava/internal/model"
	"lava/internal/scheduler"
	"lava/internal/serve"
	"lava/internal/trace"
)

const (
	serveCells = 2
	// openRate and openRequests shape the open-loop phase: the first
	// openRequests requests of the stream are released at openRate per
	// second. The rest of the stream runs closed-loop.
	openRate     = 4000.0
	openRequests = 12000
	seqHeader    = "X-Perfbench-Seq"
)

// rig is the serving harness of one run: a loopback HTTP server in front of
// the current unit's fleet, and a serve.Client over a pooled transport with
// one connection per CPU, opened once before anything is measured.
type rig struct {
	conns  int
	dials  atomic.Int64
	fleet  atomic.Pointer[http.Handler]
	spans  *tracer // handler and client round-trip spans; nil when untraced
	hs     *http.Server
	served chan error
	http   *http.Client
	client *serve.Client

	warmMu   sync.Mutex
	warmN    int
	warmDone chan struct{}
}

type seqKey struct{}

// seqTransport copies a request's sequence number from its context into a
// header, so the handler span and the client span of one request share it.
type seqTransport struct{ base http.RoundTripper }

func (t seqTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if seq, ok := req.Context().Value(seqKey{}).(uint64); ok {
		req = req.Clone(req.Context())
		req.Header.Set(seqHeader, strconv.FormatUint(seq, 10))
	}
	return t.base.RoundTrip(req)
}

func newRig() (*rig, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	g := &rig{conns: runtime.NumCPU(), served: make(chan error, 1), warmDone: make(chan struct{})}
	g.hs = &http.Server{Handler: g}
	go func() { g.served <- g.hs.Serve(ln) }()
	var d net.Dialer
	tr := &http.Transport{
		DialContext: func(ctx context.Context, network, addr string) (net.Conn, error) {
			g.dials.Add(1)
			return d.DialContext(ctx, network, addr)
		},
		MaxConnsPerHost:     g.conns,
		MaxIdleConns:        g.conns,
		MaxIdleConnsPerHost: g.conns,
		DisableCompression:  true,
	}
	g.http = &http.Client{Transport: seqTransport{tr}}
	g.client = &serve.Client{Base: "http://" + ln.Addr().String(), HTTPClient: g.http}
	return g, g.warm()
}

// ServeHTTP is the middleware around Fleet.Handler(): it times each
// sequenced request, and serves the warm-up barrier.
func (g *rig) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path == "/perfbench/warm" {
		g.warmArrive(w)
		return
	}
	h := *g.fleet.Load()
	seq, err := strconv.ParseInt(r.Header.Get(seqHeader), 10, 64)
	if g.spans == nil || err != nil {
		h.ServeHTTP(w, r)
		return
	}
	start := time.Now()
	h.ServeHTTP(w, r)
	g.spans.add(kHandler, seq, start, time.Now())
}

// warm opens every pooled connection before anything is timed: each of
// conns concurrent requests waits at the barrier until all have arrived,
// so the transport must dial one connection for each.
func (g *rig) warm() error {
	errs := make(chan error, g.conns)
	for range g.conns {
		go func() {
			resp, err := g.http.Get(g.client.Base + "/perfbench/warm")
			if err == nil {
				resp.Body.Close()
				if resp.StatusCode != http.StatusNoContent {
					err = fmt.Errorf("warm-up: HTTP %d", resp.StatusCode)
				}
			}
			errs <- err
		}()
	}
	for range g.conns {
		if err := <-errs; err != nil {
			return err
		}
	}
	return nil
}

func (g *rig) warmArrive(w http.ResponseWriter) {
	g.warmMu.Lock()
	if g.warmN++; g.warmN == g.conns {
		close(g.warmDone)
	}
	g.warmMu.Unlock()
	select {
	case <-g.warmDone:
		w.WriteHeader(http.StatusNoContent)
	case <-time.After(10 * time.Second):
		w.WriteHeader(http.StatusGatewayTimeout)
	}
}

func (g *rig) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	err := g.hs.Shutdown(ctx)
	if serr := <-g.served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	g.http.CloseIdleConnections()
	return err
}

// send issues op i of the stream as sequence number i+1 and reports whether
// a placement failed for lack of capacity.
func (g *rig) send(ctx context.Context, ops []serve.Op, i int) (noCapacity bool, err error) {
	seq := uint64(i + 1)
	if g.spans != nil {
		ctx = context.WithValue(ctx, seqKey{}, seq)
		start := time.Now()
		defer func() { g.spans.add(kClientRTT, int64(seq), start, time.Now()) }()
	}
	op := ops[i]
	switch op.Kind {
	case serve.OpPlace:
		resp, err := g.client.Place(ctx, serve.PlaceRequest{Seq: seq, At: op.At, Record: op.Rec})
		return err == nil && !resp.Placed, err
	case serve.OpExit:
		_, err := g.client.Exit(ctx, serve.ExitRequest{Seq: seq, At: op.At, ID: op.VM})
		return false, err
	}
	return false, fmt.Errorf("unexpected op kind %v", op.Kind)
}

// served is one unit's outcome: a whole stream replayed against a fresh
// fleet.
type served struct {
	lat        []float64 // open loop: completion minus due time, µs
	openCores  float64   // open loop: process CPU time over wall time
	late       []float64 // open loop: release minus due time, µs
	closedWall time.Duration
	closedOps  int
	closedPl   int       // placements sent in the closed-loop phase
	rtt        []float64 // closed loop: round trip of each request, µs
	noCapacity int
	drain      serve.FleetDrainResponse
	stats      serve.FleetStats
}

// unit replays the whole stream against the fleet: the first openRequests
// requests open-loop, the rest closed-loop with one worker per connection,
// then drains.
func (g *rig) unit(ctx context.Context, fleet http.Handler, ops []serve.Op) (served, error) {
	g.fleet.Store(&fleet)
	var u served
	nOpen := min(openRequests, len(ops))
	var noCap atomic.Int64
	fail := make(chan error, g.conns) // each worker of a phase sends at most once

	// Open loop: a generator releases request i at its due time by spinning
	// on the clock (time.Sleep overshoots sub-millisecond gaps by ~1ms), and
	// conns workers send released requests in order.
	u.lat = make([]float64, nOpen)
	u.late = make([]float64, nOpen)
	interval := time.Duration(float64(time.Second) / openRate)
	jobs := make(chan int, nOpen) // one slot per release: the generator never blocks
	var wg sync.WaitGroup
	start, cpu0 := time.Now(), cpuTime()
	for range g.conns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				nc, err := g.send(ctx, ops, i)
				if err != nil {
					fail <- err
					return
				}
				if nc {
					noCap.Add(1)
				}
				due := start.Add(time.Duration(i) * interval)
				u.lat[i] = float64(time.Since(due)) / 1e3
			}
		}()
	}
	for i := range nOpen {
		due := start.Add(time.Duration(i) * interval)
		for {
			d := time.Until(due)
			if d <= 0 {
				break
			}
			if d > 2*time.Millisecond {
				time.Sleep(d - 1500*time.Microsecond)
			}
		}
		u.late[i] = float64(time.Since(due)) / 1e3
		jobs <- i
	}
	close(jobs)
	wg.Wait()
	u.openCores = float64(cpuTime()-cpu0) / float64(time.Since(start))
	select {
	case err := <-fail:
		return u, err
	default:
	}

	// Closed loop: each worker sends its next request when the previous
	// one completes.
	var next atomic.Int64
	next.Store(int64(nOpen))
	var placed atomic.Int64
	u.rtt = make([]float64, len(ops)-nOpen)
	start = time.Now()
	for range g.conns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(ops) {
					return
				}
				sent := time.Now()
				nc, err := g.send(ctx, ops, i)
				u.rtt[i-nOpen] = float64(time.Since(sent)) / 1e3
				if err != nil {
					fail <- err
					return
				}
				if nc {
					noCap.Add(1)
				}
				if ops[i].Kind == serve.OpPlace {
					placed.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	u.closedWall = time.Since(start)
	u.closedOps = len(ops) - nOpen
	u.closedPl = int(placed.Load())
	u.noCapacity = int(noCap.Load())
	select {
	case err := <-fail:
		return u, err
	default:
	}
	if err := g.getJSON(ctx, "/stats", &u.stats); err != nil {
		return u, err
	}
	var err error
	u.drain, err = g.client.DrainFleet(ctx)
	return u, err
}

func (g *rig) getJSON(ctx context.Context, path string, out any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, g.client.Base+path, nil)
	if err != nil {
		return err
	}
	resp, err := g.http.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: HTTP %d", path, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// runServeFleet is the HTTP, sequencer and cell-queue workload: a 2-cell
// feature-hash fleet running LAVA over the distribution model, served on
// loopback, replaying a 256-host trace's Place/Exit stream.
func runServeFleet(r *run) error {
	var (
		tr   *trace.Trace
		pred model.Predictor
	)
	err := r.setup(func() (err error) {
		tr, err = lava.GenerateTrace(lava.TraceConfig{Name: "serve", Hosts: 256, Days: 5, PrefillDays: 5, Seed: r.seed})
		return err
	}, func() (err error) {
		pred, err = lava.TrainModel(tr, lava.ModelDist)
		return err
	})
	if err != nil {
		return err
	}
	cfg := lava.FleetConfig{
		ServeConfig: lava.ServeConfig{Policy: lava.PolicyLAVA, Pred: pred},
		Cells:       serveCells,
		Router:      lava.RouterFeatureHash,
	}
	ref, err := lava.ReplayFleetOffline(tr, cfg)
	if err != nil {
		return err
	}
	want, err := json.Marshal(ref)
	if err != nil {
		return fmt.Errorf("encode offline drain report: %w", err)
	}
	ops := serve.OpsFromTrace(tr)

	g, err := newRig()
	if err != nil {
		return err
	}
	ctx, cancel := context.WithTimeout(context.Background(), 150*time.Second)
	defer cancel()
	err = serveUnits(ctx, r, g, tr, cfg, pred, ops, want)
	if cerr := g.close(); err == nil {
		err = cerr
	}
	if err == nil && g.dials.Load() != int64(g.conns) {
		err = wrong("client dialed %d connections, want %d", g.dials.Load(), g.conns)
	}
	if err == nil && r.traced {
		r.set("serve.dials", float64(g.dials.Load()), "count")
	}
	return err
}

// check is the serving output check: the drain report must equal the
// offline fleet replay of the same trace and config byte for byte.
func (u *served) check(want []byte) error {
	got, err := json.Marshal(u.drain)
	if err != nil {
		return fmt.Errorf("encode drain report: %w", err)
	}
	if !bytes.Equal(got, want) {
		return wrong("fleet drain report differs from lava.ReplayFleetOffline:\n got %s\nwant %s", got, want)
	}
	return nil
}

func serveUnits(ctx context.Context, r *run, g *rig, tr *trace.Trace, cfg lava.FleetConfig, pred model.Predictor, ops []serve.Op, want []byte) error {
	count := func(u *served) {
		r.res.Attempted += int64(len(ops))
		r.res.Failed += int64(u.noCapacity)
	}
	var (
		rps, pps, lat, rtt, late []float64
		refWalls                 []float64
		allocs                   allocCounters
		placed                   int
		live                     float64
		cores                    []float64
		drain                    serve.FleetDrainResponse
	)
	untraced := func() error {
		fleet, err := lava.NewFleet(tr, cfg)
		if err != nil {
			return err
		}
		before := readAllocs()
		u, err := g.unit(ctx, fleet.Handler(), ops)
		c := readAllocs().since(before)
		if err == nil && len(rps) == 0 {
			// Live heap with the drained fleet still referenced, measured
			// on the first unit, before any samples are kept.
			live = heapLiveMB()
		}
		fleet.Close()
		if err != nil {
			return err
		}
		if err := u.check(want); err != nil {
			return err
		}
		count(&u)
		allocs = allocCounters{allocs.objects + c.objects, allocs.bytes + c.bytes, allocs.gcs + c.gcs}
		placed += u.drain.Metrics.Placements
		rps = append(rps, float64(u.closedOps)/u.closedWall.Seconds())
		pps = append(pps, float64(u.closedPl)/u.closedWall.Seconds())
		refWalls = append(refWalls, u.closedWall.Seconds())
		lat = append(lat, u.lat...)
		rtt = append(rtt, u.rtt...)
		late = append(late, u.late...)
		cores = append(cores, u.openCores)
		drain = u.drain
		return nil
	}
	n, err := units(r.budget(), r.minUnits(), untraced)
	if err != nil {
		return err
	}
	if !r.traced {
		r.set("placements_per_s", median(pps), "1/s")
		r.set("throughput_rps", median(rps), "1/s")
		r.set("latency_p90_ms", windowedQuantile(rtt, 0.9)/1e3, "ms")
		r.set("packing_density", drain.Metrics.AvgPackingDensity, "ratio")
		r.set("mem_live_mb", live, "MB")
		fmt.Printf("peak RSS %.1f MB, open-loop phase busy %.2f cores\n", peakRSSMB(), median(cores))
		fmt.Printf("units %d, %d closed-loop round trips: p50 %.4f ms, p99 %.4f ms\n",
			n, len(rtt), windowedQuantile(rtt, 0.5)/1e3, windowedQuantile(rtt, 0.99)/1e3)
		fmt.Printf("%d open-loop requests at %.0f req/s, latency from due time: p50 %.4f ms, p90 %.4f ms, p99 %.4f ms; generator late p99 %.3f ms\n",
			len(lat), openRate, windowedQuantile(lat, 0.5)/1e3, windowedQuantile(lat, 0.9)/1e3,
			windowedQuantile(lat, 0.99)/1e3, quantile(late, 0.99)/1e3)
		return nil
	}
	r.setRuntime(allocs, n, placed)

	// Traced units: the same fleet built from the serve layer directly, so
	// each cell's policy and predictor can be wrapped.
	g.spans = newTracer(r.start)
	var (
		mu         sync.Mutex
		tracers    = []*tracer{g.spans}
		pols       []*tracedPolicy
		walls      []float64
		wallSum    time.Duration
		placements int
		traced     int
		applyNS    float64
		applyN     int64
	)
	fc := serve.FleetFromTrace(tr)
	fc.Cells = serveCells
	fc.Router = string(lava.RouterFeatureHash)
	fc.NewPolicy = func(int) (scheduler.Policy, error) {
		t := newTracer(r.start)
		pol, err := lava.NewPolicy(lava.PolicyLAVA, &tracedPredictor{Predictor: pred, tr: t})
		if err != nil {
			return nil, err
		}
		tp := &tracedPolicy{Policy: pol, tr: t}
		mu.Lock()
		tracers = append(tracers, t)
		pols = append(pols, tp)
		mu.Unlock()
		return tp, nil
	}
	traced, err = units(r.seconds-r.budget(), 1, func() error {
		fleet, err := serve.NewFleet(fc)
		if err != nil {
			return err
		}
		t0 := time.Now()
		u, err := g.unit(ctx, fleet.Handler(), ops)
		wallSum += time.Since(t0)
		fleet.Close()
		if err != nil {
			return err
		}
		if err := u.check(want); err != nil {
			return err
		}
		count(&u)
		for _, c := range u.stats.CellStats {
			if c.Latency != nil {
				applyNS += c.Latency.AvgMs * 1e6 * float64(c.Latency.Requests)
				applyN += c.Latency.Requests
			}
		}
		walls = append(walls, u.closedWall.Seconds())
		placements += u.drain.Metrics.Placements
		late = append(late, u.late...)
		return nil
	})
	if err != nil {
		return err
	}
	var stats layerStats
	for _, t := range tracers {
		stats.add(t)
	}
	sent := int64(traced * len(ops))
	if stats.count[kHandler] != sent || stats.count[kClientRTT] != sent || applyN != sent {
		return wrong("traced %d requests: %d handler spans, %d client spans, %d applied by the cells",
			sent, stats.count[kHandler], stats.count[kClientRTT], applyN)
	}
	r.setLayers(&stats, pols, wallSum, placements)
	apply := applyNS / float64(applyN) / 1e3
	r.set("serve.client_rtt_p50_us", quantile(stats.durs[kClientRTT], 0.5), "us")
	r.set("serve.handler_p50_us", quantile(stats.durs[kHandler], 0.5), "us")
	r.set("serve.handler_p90_us", quantile(stats.durs[kHandler], 0.9), "us")
	r.set("serve.handler_minus_engine_us", stats.meanUS(kHandler)-apply, "us")
	r.set("serve.outside_handler_us", stats.meanUS(kClientRTT)-stats.meanUS(kHandler), "us")
	r.set("serve.loop_apply_avg_us", apply, "us")
	r.set("serve.gen_late_p99_ms", quantile(late, 0.99)/1e3, "ms")
	r.set("sim.empty_host_frac", drain.Metrics.AvgEmptyHostFrac, "ratio")
	r.set("trace_overhead_frac", median(walls)/median(refWalls)-1, "ratio")
	return r.writeSpans(tracers)
}
