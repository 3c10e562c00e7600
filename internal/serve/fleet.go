package serve

import (
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"lava/internal/cell"
	"lava/internal/cluster"
	"lava/internal/metrics"
	"lava/internal/ptrace"
	"lava/internal/resources"
	"lava/internal/runner"
	"lava/internal/scheduler"
	"lava/internal/sim"
	"lava/internal/slo"
	"lava/internal/trace"
)

// FleetConfig configures a Fleet. The geometry fields describe the whole
// federation; hosts are split across cells exactly as cell.SplitHosts does
// for offline sharding, which is what makes a served fleet comparable —
// byte-for-byte — to cell.PlanCells + per-cell sim.Run.
type FleetConfig struct {
	PoolName  string
	Hosts     int // total hosts across the federation
	HostShape resources.Vector

	// WarmUp and Horizon play their serve.Config roles for every cell.
	// Fleet parity with offline sharding requires an explicit Horizon: a
	// zero horizon makes each offline cell measure until its own last exit,
	// which no front-end can know in advance.
	WarmUp  time.Duration
	Horizon time.Duration

	// Cells is the number of independent event loops (>= 1). Each owns its
	// own pool and policy and runs on its own goroutine, so a fleet is
	// parallel across cores in a way a single Server cannot be.
	Cells int

	// Router picks how placements map to cells: "round-robin" and
	// "feature-hash" are the static offline routers applied to the live
	// stream, "least-utilized" is upgraded online to consult the fleet's
	// live commitment ledger (admitted minus exited CPU per cell) instead
	// of the offline router's ground-truth lifetime heap. Empty means
	// feature-hash.
	Router string

	// NewPolicy builds the policy instance for one cell. Policies carry
	// mutable caches and must never be shared across event loops, hence a
	// factory rather than a value.
	NewPolicy func(cellIdx int) (scheduler.Policy, error)

	// TickEvery, SampleEvery and QueueDepth are per-cell serve.Config
	// settings.
	TickEvery   time.Duration
	SampleEvery time.Duration
	QueueDepth  int

	// Injectors builds the injector set for one cell (e.g. a scenario
	// spec's per-cell injectors). Like NewPolicy it is a factory, not a
	// value: injectors carry per-cell RNG state and must never be shared
	// across event loops. Cells created later by SplitCell call it with
	// their new index. Nil means no injectors.
	Injectors func(cellIdx int) []sim.Injector

	// TraceK and TraceCap are the per-cell serve.Config tracing settings:
	// each cell records its own decision stream (there is no useful global
	// interleaving — cells are independent event loops), queryable via
	// /trace?cell=N or rolled up by /trace.
	TraceK   int
	TraceCap int

	// SLO enables the fleet's front-door admission gate: every placement is
	// charged against its class's token bucket under the routing lock, at
	// its global sequencing turn, before any routing state moves — so the
	// admit/reject stream is a pure function of the sequenced request order
	// and the offline script runner reproduces it exactly. Rejections
	// consume their global routing turn (later sequence numbers never park
	// behind them) but no cell sequence slot. Cells run with tracking-only
	// SLO configs behind the gate, so per-class lifecycle counts roll up
	// without double admission control.
	SLO *slo.Config
}

// FleetFromTrace derives the federation geometry from a trace header, with
// the trace's measurement end as every cell's horizon (the offline
// equivalent: cell.Shard copies the base horizon into each cell).
func FleetFromTrace(tr *trace.Trace) FleetConfig {
	return FleetConfig{
		PoolName:  tr.PoolName,
		Hosts:     tr.Hosts,
		HostShape: tr.HostShape(),
		WarmUp:    tr.WarmUp,
		Horizon:   tr.End(),
	}
}

// Fleet federates N per-cell Servers behind one front-end with the same
// HTTP surface as a single Server. Placements are routed to cells; exits
// follow the VM they name; ticks fan out; stats and drains roll up.
//
// Sequenced streams survive routing: the front-end holds a global reorder
// stage that admits sequence numbers strictly in order, routes each request
// under the routing lock, stamps it with the target cell's own contiguous
// sequence number, and releases it. Dispatch to the cells is concurrent —
// per-cell reorder buffers restore each cell's stream — so a replay fanned
// across connections runs the cells genuinely in parallel while every cell
// still sees exactly the event sequence offline sharding would hand it.
type Fleet struct {
	cfg    FleetConfig
	policy string // policy name, for stats/drain payloads

	draining atomic.Bool

	mu   sync.Mutex
	cond *sync.Cond
	// Sequencer, topology and cell set (all under mu; elasticity ops grow
	// cells and cellSeq, so readers snapshot them under the lock).
	topo      *topology
	cells     []*Server
	nextSeq   uint64         // the global sequence number admitted next
	parked    map[uint64]int // waiter count per not-yet-admitted sequence
	inflight  int            // admitted requests not yet answered by their cell
	cellSeq   []uint64       // last per-cell sequence number issued
	closed    bool
	flushed   bool // a drain flushed the sequencer: nothing may park anymore
	drainBusy bool
	finalSet  bool
	finalRoll *cell.Rollup
	finalErr  error
}

// NewFleet builds and starts a fleet: N cells, N event loops.
func NewFleet(cfg FleetConfig) (*Fleet, error) {
	if cfg.Cells <= 0 {
		return nil, fmt.Errorf("serve: fleet needs at least one cell, got %d", cfg.Cells)
	}
	if cfg.Hosts < cfg.Cells {
		return nil, fmt.Errorf("serve: %d hosts cannot form %d cells", cfg.Hosts, cfg.Cells)
	}
	if cfg.NewPolicy == nil {
		return nil, errors.New("serve: fleet config needs a policy factory")
	}
	if cfg.PoolName == "" {
		cfg.PoolName = "pool"
	}
	hosts := cell.SplitHosts(cfg.Hosts, cfg.Cells)
	cfg.SLO = cfg.SLO.Normalize()
	topo, err := newTopology(cfg.Router, hosts)
	if err != nil {
		return nil, err
	}
	topo.gate = slo.NewGate(cfg.SLO)
	f := &Fleet{
		cfg:     cfg,
		topo:    topo,
		nextSeq: 1,
		parked:  make(map[uint64]int),
		cellSeq: make([]uint64, cfg.Cells),
	}
	f.cond = sync.NewCond(&f.mu)

	f.cells = make([]*Server, cfg.Cells)
	for i := range f.cells {
		s, err := newCellServer(cfg, i, hosts[i])
		if err != nil {
			for _, s := range f.cells[:i] {
				s.Close()
			}
			return nil, err
		}
		f.cells[i] = s
		if i == 0 {
			f.policy = s.cfg.Policy.Name()
		}
	}
	return f, nil
}

// newCellServer builds and starts the per-cell Server for cell idx, from
// the same fleet config whether the cell is original (NewFleet) or carved
// out later (SplitCell).
func newCellServer(cfg FleetConfig, idx, hosts int) (*Server, error) {
	pol, err := cfg.NewPolicy(idx)
	if err == nil && pol == nil {
		err = errors.New("serve: fleet policy factory returned nil")
	}
	if err != nil {
		return nil, fmt.Errorf("serve: fleet cell %d: %w", idx, err)
	}
	var inj []sim.Injector
	if cfg.Injectors != nil {
		inj = cfg.Injectors(idx)
	}
	s, err := New(Config{
		// The offline counterpart (cell.Shard) names cells the same
		// way; keeping the names aligned keeps drain payloads diffable.
		PoolName:    fmt.Sprintf("%s/cell-%d", cfg.PoolName, idx),
		Hosts:       hosts,
		HostShape:   cfg.HostShape,
		WarmUp:      cfg.WarmUp,
		Horizon:     cfg.Horizon,
		Policy:      pol,
		TickEvery:   cfg.TickEvery,
		SampleEvery: cfg.SampleEvery,
		Injectors:   inj,
		QueueDepth:  cfg.QueueDepth,
		TraceK:      cfg.TraceK,
		TraceCap:    cfg.TraceCap,
		SLO:         cellSLO(cfg),
	})
	if err != nil {
		return nil, fmt.Errorf("serve: fleet cell %d: %w", idx, err)
	}
	return s, nil
}

// RouterName reports the active routing discipline.
func (f *Fleet) RouterName() string { return f.topo.kind }

// Cells reports the number of cells, including retired ones.
func (f *Fleet) Cells() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.cells)
}

// CellHosts returns the per-cell host counts (a copy; retired cells weigh
// zero).
func (f *Fleet) CellHosts() []int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([]int(nil), f.topo.hosts...)
}

// snapshotCells copies the cell set and retirement flags under the lock;
// elasticity ops may grow or retire cells at any moment.
func (f *Fleet) snapshotCells() (cells []*Server, retired []bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([]*Server(nil), f.cells...), append([]bool(nil), f.topo.retired...)
}

// Close stops every cell's event loop and wakes all parked waiters with
// ErrClosed. Close does not drain; call Drain first for a graceful finish.
func (f *Fleet) Close() {
	f.mu.Lock()
	f.closed = true
	f.cond.Broadcast()
	cells := append([]*Server(nil), f.cells...)
	f.mu.Unlock()
	for _, s := range cells {
		s.Close()
	}
}

// enterSeqLocked blocks (releasing the lock while parked) until seq is the
// next global sequence number. On nil return the caller still holds the
// lock, owns the routing turn, and must call advanceLocked before
// unlocking.
func (f *Fleet) enterSeqLocked(seq uint64) error {
	for seq > f.nextSeq && !f.closed && !f.flushed {
		f.parked[seq]++
		f.cond.Wait()
		f.parked[seq]--
		if f.parked[seq] == 0 {
			delete(f.parked, seq)
		}
	}
	switch {
	case f.closed:
		return ErrClosed
	case f.flushed:
		// A drain already flushed the sequencer; nothing may enter anymore
		// (mirrors the per-cell loop's post-drain rejection).
		return ErrDraining
	case seq < f.nextSeq:
		if f.draining.Load() {
			// The drain's flush jumped the cursor past this sequence while
			// the request was in flight: it was never processed, so
			// reporting it stale ("already processed") would lie. Draining
			// is the truthful answer, exactly as for post-flush arrivals.
			return ErrDraining
		}
		return errStaleSeq
	}
	return nil
}

// advanceLocked consumes the routing turn enterSeqLocked granted: the next
// sequence number is admitted and the request counts as in flight until
// doneDispatch.
func (f *Fleet) advanceLocked() {
	f.nextSeq++
	f.inflight++
	f.cond.Broadcast()
}

// doneDispatch marks one admitted request as fully answered by its cell.
func (f *Fleet) doneDispatch() {
	f.mu.Lock()
	f.inflight--
	f.cond.Broadcast()
	f.mu.Unlock()
}

// nextCellSeqLocked issues the next contiguous sequence number for cell c.
func (f *Fleet) nextCellSeqLocked(c int) uint64 {
	f.cellSeq[c]++
	return f.cellSeq[c]
}

// Place routes one VM placement to a cell. Semantics match Server.Place;
// seq > 0 enrolls the request in the fleet-wide strictly ordered stream.
func (f *Fleet) Place(rec trace.Record, at time.Duration, seq uint64) (host cluster.HostID, placed bool, err error) {
	if f.draining.Load() {
		return 0, false, ErrDraining
	}
	f.mu.Lock()
	if seq > 0 {
		if err := f.enterSeqLocked(seq); err != nil {
			f.mu.Unlock()
			return 0, false, err
		}
	} else if f.closed {
		f.mu.Unlock()
		return 0, false, ErrClosed
	}
	c, rerr := f.topo.routeCreate(&rec, at)
	var srv *Server
	var cs uint64
	if rerr == nil {
		srv = f.cells[c]
		if seq > 0 {
			cs = f.nextCellSeqLocked(c)
		}
	}
	if seq > 0 {
		// The routing turn is consumed even when routing failed (every cell
		// drained): later sequence numbers must not park forever behind it.
		f.advanceLocked()
	}
	f.mu.Unlock()

	if rerr != nil {
		if seq > 0 {
			f.doneDispatch()
		}
		return 0, false, rerr
	}
	host, placed, err = srv.Place(rec, at, cs)
	if seq > 0 {
		f.doneDispatch()
	}
	return host, placed, err
}

// ExitVM routes a VM exit to the cell that admitted the VM. Exits of VMs
// the fleet never routed report removed=false without touching any cell;
// routed exits always reach their cell — even when the placement failed for
// capacity — because the cell's clock must advance past the exit time
// exactly as an offline replay of the cell's shard would.
func (f *Fleet) ExitVM(id cluster.VMID, at time.Duration, seq uint64) (removed bool, err error) {
	if f.draining.Load() {
		return false, ErrDraining
	}
	f.mu.Lock()
	if seq > 0 {
		if err := f.enterSeqLocked(seq); err != nil {
			f.mu.Unlock()
			return false, err
		}
	} else if f.closed {
		f.mu.Unlock()
		return false, ErrClosed
	}
	c, ok := f.topo.routeExit(id)
	var srv *Server
	var cs uint64
	if ok {
		srv = f.cells[c]
		if seq > 0 {
			cs = f.nextCellSeqLocked(c)
		}
	}
	if seq > 0 {
		f.advanceLocked()
	}
	f.mu.Unlock()

	if !ok {
		if seq > 0 {
			f.doneDispatch()
		}
		return false, nil
	}
	removed, err = srv.ExitVM(id, at, cs)
	if seq > 0 {
		f.doneDispatch()
	}
	return removed, err
}

// Tick advances every live cell's virtual time to at and returns the
// furthest time reached. Sequenced ticks consume one fleet sequence number
// and one per-cell sequence number in every live cell, so they order
// correctly against the sequenced placement stream on each side of the
// fan-out. Retired cells are skipped: their clocks freeze at merge time
// and jump to the horizon when the fleet drains.
func (f *Fleet) Tick(at time.Duration, seq uint64) (now time.Duration, err error) {
	if f.draining.Load() {
		return 0, ErrDraining
	}
	f.mu.Lock()
	if seq > 0 {
		if err := f.enterSeqLocked(seq); err != nil {
			f.mu.Unlock()
			return 0, err
		}
	} else if f.closed {
		f.mu.Unlock()
		return 0, ErrClosed
	}
	cells := append([]*Server(nil), f.cells...)
	skip := append([]bool(nil), f.topo.retired...)
	cs := make([]uint64, len(cells))
	if seq > 0 {
		for c := range cells {
			if !skip[c] {
				cs[c] = f.nextCellSeqLocked(c)
			}
		}
		f.advanceLocked()
	}
	f.mu.Unlock()

	nows := make([]time.Duration, len(cells))
	err = fanOut(len(cells), func(c int) error {
		if skip[c] {
			return nil
		}
		n, err := cells[c].Tick(at, cs[c])
		nows[c] = n
		return err
	})
	if seq > 0 {
		f.doneDispatch()
	}
	for _, n := range nows {
		if n > now {
			now = n
		}
	}
	return now, err
}

// fanOut runs fn for cells 0..n-1 concurrently and returns the joined
// errors (in cell order).
func fanOut(n int, fn func(c int) error) error {
	errs := make([]error, n)
	var wg sync.WaitGroup
	for c := 0; c < n; c++ {
		c := c
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[c] = fn(c)
		}()
	}
	wg.Wait()
	return errors.Join(errs...)
}

// FleetSnapshot is the /snapshot payload of a fleet: one read-only sample
// per cell, taken concurrently at each cell's current virtual time.
type FleetSnapshot struct {
	Cells []metrics.Sample `json:"cells"`
}

// Snapshot measures every cell without advancing time. Retired cells
// answer too — their pools are frozen at merge time.
func (f *Fleet) Snapshot() (FleetSnapshot, error) {
	cells, _ := f.snapshotCells()
	out := FleetSnapshot{Cells: make([]metrics.Sample, len(cells))}
	err := fanOut(len(cells), func(c int) error {
		s, err := cells[c].Snapshot()
		out.Cells[c] = s
		return err
	})
	return out, err
}

// FleetStats is the /stats payload of a fleet: summed serving counters over
// the federation plus the per-cell breakdown.
type FleetStats struct {
	Pool       string        `json:"pool"`
	Policy     string        `json:"policy"`
	Router     string        `json:"router"`
	CellCount  int           `json:"cells"`
	Hosts      int           `json:"hosts"`
	VMs        int           `json:"vms"`
	NowNS      time.Duration `json:"now_ns"` // furthest cell clock
	Placements int           `json:"placements"`
	Exits      int           `json:"exits"`
	Failed     int           `json:"failed"`
	ModelCalls int64         `json:"model_calls,omitempty"`
	QueueDepth int           `json:"queue_depth"`
	// Pending counts sequenced requests parked fleet-wide: in the global
	// sequencer and in every cell's reorder buffer.
	Pending  int  `json:"pending_seq"`
	Draining bool `json:"draining"`
	// Retired lists cells merged away by elasticity ops: still visible in
	// CellStats (their counters are real history) but excluded from the
	// Hosts/VMs/NowNS totals — their capacity moved to the surviving cell.
	Retired []int `json:"retired_cells,omitempty"`
	// SLO merges the front-door gate's admission counters with the cells'
	// per-class lifecycle counts (omitted when the SLO layer is off).
	SLO       *slo.Summary `json:"slo,omitempty"`
	CellStats []Stats      `json:"cell_stats"`
}

// Stats gathers per-cell serving counters and rolls them up.
func (f *Fleet) Stats() (FleetStats, error) {
	cells, retired := f.snapshotCells()
	st := FleetStats{
		Pool:      f.cfg.PoolName,
		Policy:    f.policy,
		Router:    f.RouterName(),
		CellCount: len(cells),
		Draining:  f.draining.Load(),
		CellStats: make([]Stats, len(cells)),
	}
	err := fanOut(len(cells), func(c int) error {
		s, err := cells[c].Stats()
		st.CellStats[c] = s
		return err
	})
	if err != nil {
		return FleetStats{}, err
	}
	for c, s := range st.CellStats {
		if retired[c] {
			st.Retired = append(st.Retired, c)
		} else {
			st.Hosts += s.Hosts
			st.VMs += s.VMs
			if s.NowNS > st.NowNS {
				st.NowNS = s.NowNS
			}
		}
		st.Placements += s.Placements
		st.Exits += s.Exits
		st.Failed += s.Failed
		st.ModelCalls += s.ModelCalls
		st.QueueDepth += s.QueueDepth
		st.Pending += s.Pending
	}
	var gateCounts map[string]*slo.Counts
	f.mu.Lock()
	for _, n := range f.parked {
		st.Pending += n
	}
	if f.topo.gate != nil {
		gateCounts = f.topo.gate.Counts()
	}
	f.mu.Unlock()
	if gateCounts != nil {
		subs := make([]*slo.Summary, 0, len(st.CellStats))
		for _, cs := range st.CellStats {
			subs = append(subs, cs.SLO)
		}
		st.SLO = slo.MergeFrontDoor(gateCounts, subs, 0, 0, false)
	}
	return st, nil
}

// Drain gracefully finishes the federation: new mutating work is rejected,
// the global sequencer is flushed — parked requests released strictly in
// ascending sequence order, gaps notwithstanding — every in-flight dispatch
// is allowed to land, and then every cell drains concurrently. The per-cell
// results roll up through cell.RollUp into the fleet-level report.
// Idempotent: later calls return the same rollup.
func (f *Fleet) Drain() (*cell.Rollup, error) {
	f.draining.Store(true)
	f.mu.Lock()
	for f.drainBusy && !f.finalSet && !f.closed {
		f.cond.Wait()
	}
	if f.finalSet {
		roll, err := f.finalRoll, f.finalErr
		f.mu.Unlock()
		return roll, err
	}
	if f.closed {
		f.mu.Unlock()
		return nil, ErrClosed
	}
	f.drainBusy = true
	// Flush the sequencer: open the gate for the lowest parked sequence,
	// let its waiter route (advancing nextSeq), repeat; then wait out the
	// dispatches. Releasing one gap at a time keeps the flushed requests
	// routing in ascending sequence order, exactly like the per-cell
	// reorder buffer's gap flush.
	for !f.closed {
		if len(f.parked) > 0 {
			min := uint64(0)
			for q := range f.parked {
				if min == 0 || q < min {
					min = q
				}
			}
			if min > f.nextSeq {
				f.nextSeq = min
			}
			f.cond.Broadcast()
			f.cond.Wait()
			continue
		}
		if f.inflight > 0 {
			f.cond.Wait()
			continue
		}
		break
	}
	f.flushed = true
	f.cond.Broadcast()
	closed := f.closed
	cells := append([]*Server(nil), f.cells...)
	hosts := append([]int(nil), f.topo.hosts...)
	f.mu.Unlock()
	if closed {
		f.mu.Lock()
		f.drainBusy = false
		f.cond.Broadcast()
		f.mu.Unlock()
		return nil, ErrClosed
	}

	results := make([]*sim.Result, len(cells))
	err := fanOut(len(cells), func(c int) error {
		// Retired cells drain like any other: Server.Drain is idempotent
		// and their machines advance from merge time to the horizon here.
		res, err := cells[c].Drain()
		results[c] = res
		return err
	})
	var roll *cell.Rollup
	if err == nil {
		roll, err = cell.RollUp(f.RouterName(), hosts, results)
	}
	f.mu.Lock()
	if err == nil {
		// Fold the front-door gate's admission counters into the rollup —
		// the same attachment RunScriptOffline applies, so the drain report
		// stays byte-identical between the arms. The sequencer is flushed
		// and no dispatch is in flight: the counters are final.
		attachFrontDoorLocked(f.topo, roll)
	}
	f.finalRoll, f.finalErr, f.finalSet = roll, err, true
	f.drainBusy = false
	f.cond.Broadcast()
	f.mu.Unlock()
	return roll, err
}

// FleetDrainResponse is the wire form of a fleet drain: the single-server
// DrainResponse fields hold the host-weighted fleet rollup (so single-pool
// clients keep working unchanged), and the federation breakdown rides
// alongside.
type FleetDrainResponse struct {
	Pool      string          `json:"pool"`
	Policy    string          `json:"policy"`
	Metrics   *runner.Metrics `json:"metrics"`
	SeriesLen int             `json:"series_len"`

	Router     string          `json:"router,omitempty"`
	Hosts      []int           `json:"hosts,omitempty"`
	UtilSpread float64         `json:"util_spread,omitempty"`
	Cells      []DrainResponse `json:"cells,omitempty"`
}

// drainResponse assembles the wire payload from a rollup.
func (f *Fleet) drainResponse(roll *cell.Rollup) FleetDrainResponse {
	return FleetReportOf(f.cfg.PoolName, f.policy, roll)
}

// Handler returns the fleet's HTTP API — the same six endpoints a single
// Server exposes, with rolled-up payloads where the federation shows:
//
//	POST /place    PlaceRequest  -> PlaceResponse (routed to a cell)
//	POST /exit     ExitRequest   -> ExitResponse  (follows the VM's cell)
//	POST /tick     TickRequest   -> TickResponse  (fan-out)
//	GET  /stats                  -> FleetStats
//	GET  /snapshot               -> FleetSnapshot
//	GET  /trace                  -> FleetTraceResponse
//	POST /drain                  -> FleetDrainResponse
//
// /trace takes the single-server filter parameters plus cell=N to restrict
// the query to one cell; without it every cell answers, in cell order.
//
// The /admin endpoints are the fleet elasticity surface; each op is
// sequenced through the same global sequencer as the request stream:
//
//	POST /admin/add-hosts      AdminAddHostsRequest   -> AdminOKResponse
//	POST /admin/remove-host    AdminRemoveHostRequest -> AdminOKResponse
//	POST /admin/drain-cell     AdminCellRequest       -> AdminOKResponse
//	POST /admin/rehydrate-cell AdminCellRequest       -> AdminOKResponse
//	POST /admin/split-cell     AdminSplitRequest      -> AdminSplitResponse
//	POST /admin/merge-cells    AdminMergeRequest      -> AdminOKResponse
//	POST /admin/rebalance      AdminRebalanceRequest  -> AdminRebalanceResponse
func (f *Fleet) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/place", f.handlePlace)
	mux.HandleFunc("/exit", f.handleExit)
	mux.HandleFunc("/tick", f.handleTick)
	mux.HandleFunc("/stats", f.handleStats)
	mux.HandleFunc("/snapshot", f.handleSnapshot)
	mux.HandleFunc("/trace", f.handleTrace)
	mux.HandleFunc("/drain", f.handleDrain)
	mux.HandleFunc("/admin/add-hosts", f.handleAddHosts)
	mux.HandleFunc("/admin/remove-host", f.handleRemoveHost)
	mux.HandleFunc("/admin/drain-cell", f.handleDrainCell)
	mux.HandleFunc("/admin/rehydrate-cell", f.handleRehydrateCell)
	mux.HandleFunc("/admin/split-cell", f.handleSplitCell)
	mux.HandleFunc("/admin/merge-cells", f.handleMergeCells)
	mux.HandleFunc("/admin/rebalance", f.handleRebalance)
	return mux
}

// CellTracer returns cell c's decision recorder, nil when tracing is
// disabled or c is out of range.
func (f *Fleet) CellTracer(c int) *ptrace.Recorder {
	cells, _ := f.snapshotCells()
	if c < 0 || c >= len(cells) {
		return nil
	}
	return cells[c].Tracer()
}

// CellTrace is one cell's page of a fleet trace query.
type CellTrace struct {
	Cell int `json:"cell"`
	ptrace.QueryResult
}

// FleetTraceResponse is the /trace payload of a fleet: one filtered page
// per queried cell.
type FleetTraceResponse struct {
	Cells []CellTrace `json:"cells"`
}

func (f *Fleet) handleTrace(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		methodErr(w)
		return
	}
	if f.cfg.TraceK <= 0 {
		writeStatus(w, http.StatusNotFound, errors.New("serve: tracing disabled (set TraceK)"))
		return
	}
	flt, err := traceFilter(r)
	if err != nil {
		writeStatus(w, http.StatusBadRequest, err)
		return
	}
	servers, _ := f.snapshotCells()
	cells := make([]int, 0, len(servers))
	if v := r.URL.Query().Get("cell"); v != "" {
		c, err := strconv.Atoi(v)
		if err != nil || c < 0 || c >= len(servers) {
			writeStatus(w, http.StatusBadRequest, fmt.Errorf("serve: bad cell %q (fleet has %d)", v, len(servers)))
			return
		}
		cells = append(cells, c)
	} else {
		for c := range servers {
			cells = append(cells, c)
		}
	}
	out := FleetTraceResponse{Cells: make([]CellTrace, 0, len(cells))}
	for _, c := range cells {
		out.Cells = append(out.Cells, CellTrace{Cell: c, QueryResult: servers[c].Tracer().Query(flt)})
	}
	writeJSON(w, out)
}

func (f *Fleet) handlePlace(w http.ResponseWriter, r *http.Request) {
	var req PlaceRequest
	if !decode(w, r, http.MethodPost, &req) {
		return
	}
	host, placed, err := f.Place(req.Record, req.At, req.Seq)
	if err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, PlaceResponse{Host: host, Placed: placed})
}

func (f *Fleet) handleExit(w http.ResponseWriter, r *http.Request) {
	var req ExitRequest
	if !decode(w, r, http.MethodPost, &req) {
		return
	}
	removed, err := f.ExitVM(req.ID, req.At, req.Seq)
	if err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, ExitResponse{Removed: removed})
}

func (f *Fleet) handleTick(w http.ResponseWriter, r *http.Request) {
	var req TickRequest
	if !decode(w, r, http.MethodPost, &req) {
		return
	}
	now, err := f.Tick(req.At, req.Seq)
	if err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, TickResponse{Now: now})
}

func (f *Fleet) handleStats(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		methodErr(w)
		return
	}
	st, err := f.Stats()
	if err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, st)
}

func (f *Fleet) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		methodErr(w)
		return
	}
	snap, err := f.Snapshot()
	if err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, snap)
}

func (f *Fleet) handleDrain(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		methodErr(w)
		return
	}
	roll, err := f.Drain()
	if err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, f.drainResponse(roll))
}
