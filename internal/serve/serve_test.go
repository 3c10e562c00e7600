package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"lava/internal/cluster"
	"lava/internal/model"
	"lava/internal/resources"
	"lava/internal/runner"
	"lava/internal/scheduler"
	"lava/internal/sim"
	"lava/internal/simtime"
	"lava/internal/trace"
	"lava/internal/workload"
)

// smallTrace generates a quick production-like trace.
func smallTrace(t *testing.T, hosts, days int, seed int64) *trace.Trace {
	t.Helper()
	tr, err := workload.Generate(workload.PoolSpec{
		Name: "serve-test", Zone: "z1", Hosts: hosts, TargetUtil: 0.6,
		Duration: time.Duration(days) * simtime.Day, Prefill: 2 * simtime.Day,
		Seed: seed, Diurnal: 0.3,
	})
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// TestServedReplayParity is the headline contract: replaying a trace
// through the HTTP API with concurrent, sequence-numbered clients produces
// final aggregates byte-identical to offline sim.Run on the same trace.
func TestServedReplayParity(t *testing.T) {
	tr := smallTrace(t, 16, 3, 7)
	pred, err := model.TrainDistTable(tr.Records, nil)
	if err != nil {
		t.Fatal(err)
	}

	offline, err := sim.Run(sim.Config{Trace: tr, Policy: scheduler.NewLAVA(pred, time.Minute)})
	if err != nil {
		t.Fatal(err)
	}
	want, err := json.Marshal(runner.MetricsOf(offline))
	if err != nil {
		t.Fatal(err)
	}

	cfg := FromTrace(tr)
	cfg.Policy = scheduler.NewLAVA(pred, time.Minute)
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()

	client := &Client{Base: hs.URL}
	rep, err := client.Replay(context.Background(), tr, ReplayOptions{Concurrency: 8})
	if err != nil {
		t.Fatal(err)
	}
	got, err := json.Marshal(rep.Final.Metrics)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("served replay diverged from offline run:\nserved:  %s\noffline: %s", got, want)
	}
	if rep.Final.SeriesLen != offline.Series.Len() {
		t.Fatalf("series length %d != offline %d", rep.Final.SeriesLen, offline.Series.Len())
	}
	if rep.Serving == nil || rep.Serving.Requests == 0 {
		t.Fatal("replay reported no latency observations")
	}
}

// TestSequencedAdmissionOrder floods the server with sequence-numbered
// placements from shuffled concurrent goroutines; every VM fills a whole
// host, so host IDs expose processing order: VM with seq i must land on
// host i-1 under best-fit regardless of arrival interleaving.
func TestSequencedAdmissionOrder(t *testing.T) {
	const n = 24
	shape := resources.Vector{CPUMilli: 1000, MemoryMB: 1000, SSDGB: 10}
	s, err := New(Config{
		PoolName:  "order",
		Hosts:     n,
		HostShape: shape,
		Policy:    scheduler.NewBestFit(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	order := rand.New(rand.NewSource(1)).Perm(n)
	var wg sync.WaitGroup
	hosts := make([]cluster.HostID, n)
	for _, idx := range order {
		idx := idx
		wg.Add(1)
		go func() {
			defer wg.Done()
			rec := trace.Record{
				ID:       cluster.VMID(idx + 1),
				Arrival:  time.Duration(idx) * time.Second,
				Lifetime: time.Hour,
				Shape:    shape,
			}
			h, placed, err := s.Place(rec, rec.Arrival, uint64(idx+1))
			if err != nil || !placed {
				t.Errorf("place %d: placed=%v err=%v", idx, placed, err)
				return
			}
			hosts[idx] = h
		}()
	}
	wg.Wait()
	for i, h := range hosts {
		if h != cluster.HostID(i) {
			t.Fatalf("seq %d placed on host %d; admission order not sequential", i+1, h)
		}
	}
}

// TestOrderBatch pins the canonical in-batch ordering: reads first, then
// time-ordered events with exits before placements, ties broken by VM ID,
// drains last.
func TestOrderBatch(t *testing.T) {
	mk := func(kind reqKind, at time.Duration, id cluster.VMID) *request {
		r := newRequest(kind)
		r.at = at
		if kind == reqExit {
			r.id = id
		} else {
			r.rec.ID = id
		}
		return r
	}
	batch := []*request{
		mk(reqPlace, 5, 2),
		mk(reqDrain, 0, 0),
		mk(reqPlace, 5, 1),
		mk(reqExit, 5, 9),
		mk(reqStats, 0, 0),
		mk(reqTick, 3, 0),
	}
	orderBatch(batch)
	wantKinds := []reqKind{reqStats, reqTick, reqExit, reqPlace, reqPlace, reqDrain}
	for i, k := range wantKinds {
		if batch[i].kind != k {
			t.Fatalf("position %d: got kind %d want %d", i, batch[i].kind, k)
		}
	}
	if batch[3].rec.ID != 1 || batch[4].rec.ID != 2 {
		t.Fatalf("equal-time placements not ID-ordered: %d then %d", batch[3].rec.ID, batch[4].rec.ID)
	}
}

// TestHandlers is the API table test: methods, payloads, and status codes.
func TestHandlers(t *testing.T) {
	shape := resources.Vector{CPUMilli: 4000, MemoryMB: 8192, SSDGB: 100}
	s, err := New(Config{PoolName: "api", Hosts: 4, HostShape: shape, Policy: scheduler.NewBestFit()})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	hs := httptest.NewServer(s.Handler())
	defer hs.Close()

	place := `{"record":{"id":1,"arrival_ns":1000000000,"lifetime_ns":3600000000000,` +
		`"shape":{"CPUMilli":1000,"MemoryMB":1024,"SSDGB":0},"features":{}}}`
	cases := []struct {
		name   string
		method string
		path   string
		body   string
		status int
		expect string // substring of the response body
	}{
		{"place ok", "POST", "/place", place, 200, `"placed":true`},
		{"place wrong method", "GET", "/place", "", 405, "method not allowed"},
		{"place bad json", "POST", "/place", "{nope", 400, "bad request body"},
		{"place unknown field", "POST", "/place", `{"bogus":1}`, 400, "bad request body"},
		{"exit running vm", "POST", "/exit", `{"at_ns":2000000000,"id":1}`, 200, `"removed":true`},
		{"exit unknown vm", "POST", "/exit", `{"at_ns":3000000000,"id":99}`, 200, `"removed":false`},
		{"tick", "POST", "/tick", `{"at_ns":7200000000000}`, 200, `"now_ns":7200000000000`},
		{"stats", "GET", "/stats", "", 200, `"pool":"api"`},
		{"stats wrong method", "POST", "/stats", "{}", 405, "method not allowed"},
		{"snapshot", "GET", "/snapshot", "", 200, `"empty_host_frac"`},
		{"drain", "POST", "/drain", "{}", 200, `"metrics"`},
		{"place after drain", "POST", "/place", place, 503, "draining"},
		{"drain idempotent", "POST", "/drain", "{}", 200, `"metrics"`},
		{"stats after drain", "GET", "/stats", "", 200, `"draining":true`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			req, err := http.NewRequest(tc.method, hs.URL+tc.path, bytes.NewReader([]byte(tc.body)))
			if err != nil {
				t.Fatal(err)
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			var buf bytes.Buffer
			if _, err := buf.ReadFrom(resp.Body); err != nil {
				t.Fatal(err)
			}
			if resp.StatusCode != tc.status {
				t.Fatalf("status %d want %d (body %s)", resp.StatusCode, tc.status, buf.String())
			}
			if !bytes.Contains(buf.Bytes(), []byte(tc.expect)) {
				t.Fatalf("body %q missing %q", buf.String(), tc.expect)
			}
		})
	}
}

// TestSequenceConflicts verifies the 409 mapping for stale and duplicate
// sequence numbers.
func TestSequenceConflicts(t *testing.T) {
	shape := resources.Vector{CPUMilli: 1000, MemoryMB: 1000, SSDGB: 0}
	s, err := New(Config{PoolName: "seq", Hosts: 2, HostShape: shape, Policy: scheduler.NewBestFit()})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	rec := trace.Record{ID: 1, Lifetime: time.Hour, Shape: shape}
	if _, _, err := s.Place(rec, 0, 1); err != nil {
		t.Fatal(err)
	}
	rec.ID = 2
	if _, _, err := s.Place(rec, time.Second, 1); err == nil {
		t.Fatal("reused sequence number must be rejected")
	}
}

// TestDrainFlushesPendingSequences checks that a drain processes buffered
// out-of-order sequenced requests (in seq order) rather than abandoning
// their clients.
func TestDrainFlushesPendingSequences(t *testing.T) {
	shape := resources.Vector{CPUMilli: 1000, MemoryMB: 1000, SSDGB: 0}
	s, err := New(Config{PoolName: "flush", Hosts: 4, HostShape: shape, Policy: scheduler.NewBestFit()})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	// seq 2 arrives without seq 1: it parks in the reorder buffer.
	done := make(chan error, 1)
	go func() {
		rec := trace.Record{ID: 2, Lifetime: time.Hour, Shape: shape}
		_, _, err := s.Place(rec, time.Second, 2)
		done <- err
	}()
	// Wait until the request is parked.
	deadline := time.Now().Add(5 * time.Second)
	for {
		st, err := s.Stats()
		if err != nil {
			t.Fatal(err)
		}
		if st.Pending == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("sequenced request never parked in the reorder buffer")
		}
		time.Sleep(time.Millisecond)
	}

	res, err := s.Drain()
	if err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatalf("parked request not flushed by drain: %v", err)
	}
	if res.Placements != 1 {
		t.Fatalf("drain result has %d placements, want the flushed one", res.Placements)
	}
	// New mutating work is refused; reads still serve.
	if _, _, err := s.Place(trace.Record{ID: 3, Lifetime: time.Hour, Shape: shape}, 0, 0); err == nil {
		t.Fatal("post-drain placement must be refused")
	}
	if _, err := s.Snapshot(); err != nil {
		t.Fatalf("post-drain snapshot failed: %v", err)
	}
}

// TestSequencedRequestAfterDrainRejected covers the drain race: a
// sequenced request that slipped past the handler's draining check and
// reaches the loop after the drain completed must be answered with
// ErrDraining, not parked in the reorder buffer forever.
func TestSequencedRequestAfterDrainRejected(t *testing.T) {
	shape := resources.Vector{CPUMilli: 1000, MemoryMB: 1000, SSDGB: 0}
	s, err := New(Config{PoolName: "race", Hosts: 2, HostShape: shape, Policy: scheduler.NewBestFit()})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, err := s.Drain(); err != nil {
		t.Fatal(err)
	}
	// Bypass submit()'s draining fast-path to model the race where the
	// request was enqueued concurrently with the drain.
	r := newRequest(reqPlace)
	r.rec = trace.Record{ID: 7, Lifetime: time.Hour, Shape: shape}
	r.seq = 9 // a gap: nothing could ever release it
	s.reqs <- r
	select {
	case resp := <-r.resp:
		if resp.err == nil {
			t.Fatal("post-drain sequenced request succeeded")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("post-drain sequenced request parked forever")
	}
}

// TestCloseUnblocksClients verifies that Close answers in-flight waiters
// instead of leaking them.
func TestCloseUnblocksClients(t *testing.T) {
	shape := resources.Vector{CPUMilli: 1000, MemoryMB: 1000, SSDGB: 0}
	s, err := New(Config{PoolName: "close", Hosts: 2, HostShape: shape, Policy: scheduler.NewBestFit()})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		// seq 5 with no predecessors parks forever — until Close.
		_, _, err := s.Place(trace.Record{ID: 1, Lifetime: time.Hour, Shape: shape}, 0, 5)
		done <- err
	}()
	time.Sleep(10 * time.Millisecond)
	s.Close()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("parked client got a success response from Close")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Close leaked a parked client")
	}
	if _, _, err := s.Place(trace.Record{ID: 2, Lifetime: time.Hour, Shape: shape}, 0, 0); err == nil {
		t.Fatal("closed server accepted work")
	}
}

// TestClampBatchRestoresCanonicalOrder is the backward-virtual-time
// regression: a placement carrying a timestamp older than the machine's
// position must not sort ahead of an exit it actually applies after. With
// the clamp, both land on the machine's current time and the canonical
// exits-before-places order decides.
func TestClampBatchRestoresCanonicalOrder(t *testing.T) {
	place := newRequest(reqPlace)
	place.at, place.rec.ID = 10, 2
	exit := newRequest(reqExit)
	exit.at, exit.id = 100, 9
	batch := []*request{place, exit}

	clampBatch(batch, 200)
	orderBatch(batch)
	if batch[0].kind != reqExit || batch[1].kind != reqPlace {
		t.Fatalf("backward place sorted ahead of the exit: got %d then %d", batch[0].kind, batch[1].kind)
	}
	if place.at != 200 || exit.at != 200 {
		t.Fatalf("stale times not clamped to now: place %v exit %v", place.at, exit.at)
	}
	// Reads and drains are untouched: they sort by kind, not at.
	stats := newRequest(reqStats)
	stats.at = -5
	clampBatch([]*request{stats}, 200)
	if stats.at != -5 {
		t.Fatalf("non-mutating request clamped to %v", stats.at)
	}
}

// TestBackwardTimeClampedOnAPI pins the documented serving semantics end to
// end: Place, ExitVM and Tick with at < Now apply at the server's current
// time — no error, no time travel.
func TestBackwardTimeClampedOnAPI(t *testing.T) {
	shape := resources.Vector{CPUMilli: 1000, MemoryMB: 1000, SSDGB: 0}
	s, err := New(Config{PoolName: "clamp", Hosts: 2, HostShape: shape, Policy: scheduler.NewBestFit()})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	if _, err := s.Tick(2*time.Hour, 0); err != nil {
		t.Fatal(err)
	}
	// Backward tick: clamped, reports the time actually reached.
	now, err := s.Tick(time.Hour, 0)
	if err != nil {
		t.Fatalf("backward tick errored: %v", err)
	}
	if now != 2*time.Hour {
		t.Fatalf("backward tick reached %v, want the clamped 2h", now)
	}
	// Backward placement and exit: both apply at the current time.
	if _, placed, err := s.Place(trace.Record{ID: 1, Lifetime: time.Hour, Shape: shape}, 30*time.Minute, 0); err != nil || !placed {
		t.Fatalf("backward place: placed=%v err=%v", placed, err)
	}
	if removed, err := s.ExitVM(1, 45*time.Minute, 0); err != nil || !removed {
		t.Fatalf("backward exit: removed=%v err=%v", removed, err)
	}
	st, err := s.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.NowNS != 2*time.Hour {
		t.Fatalf("backward events moved time to %v", st.NowNS)
	}
	if st.Placements != 1 || st.Exits != 1 {
		t.Fatalf("clamped events not counted: %+v", st)
	}
}

// TestDrainFlushesGappedPendingInOrder covers the multi-gap flush branch:
// several sequenced requests parked behind missing predecessors must be
// applied in ascending sequence order by the drain (observable through
// best-fit host assignment with whole-host VMs), and the buffer's cursor
// must land past the highest flushed sequence.
func TestDrainFlushesGappedPendingInOrder(t *testing.T) {
	shape := resources.Vector{CPUMilli: 1000, MemoryMB: 1000, SSDGB: 0}
	s, err := New(Config{PoolName: "gaps", Hosts: 4, HostShape: shape, Policy: scheduler.NewBestFit()})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	// Seqs 2, 4, 5 park (1 and 3 never arrive). Whole-host VMs under
	// best-fit expose application order as host IDs 0, 1, 2.
	seqs := []uint64{2, 4, 5}
	hosts := make([]cluster.HostID, len(seqs))
	var wg sync.WaitGroup
	for i, q := range seqs {
		i, q := i, q
		wg.Add(1)
		go func() {
			defer wg.Done()
			rec := trace.Record{ID: cluster.VMID(q), Lifetime: time.Hour, Shape: shape}
			h, placed, err := s.Place(rec, time.Duration(q)*time.Second, q)
			if err != nil || !placed {
				t.Errorf("seq %d: placed=%v err=%v", q, placed, err)
				return
			}
			hosts[i] = h
		}()
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		st, err := s.Stats()
		if err != nil {
			t.Fatal(err)
		}
		if st.Pending == len(seqs) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("only %d of %d sequenced requests parked", st.Pending, len(seqs))
		}
		time.Sleep(time.Millisecond)
	}

	res, err := s.Drain()
	if err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	if res.Placements != len(seqs) {
		t.Fatalf("drain flushed %d placements, want %d", res.Placements, len(seqs))
	}
	for i := range seqs {
		if hosts[i] != cluster.HostID(i) {
			t.Fatalf("flush order broken: seq %d landed on host %d, want %d", seqs[i], hosts[i], i)
		}
	}

	// After the flush, drained is set and nextSeq is seqs[last]+1 = 6: any
	// late sequenced request — stale, in-gap, or future — must be answered
	// with ErrDraining rather than parked forever or misreported as stale.
	for _, q := range []uint64{3, 6} {
		r := newRequest(reqPlace)
		r.rec = trace.Record{ID: cluster.VMID(100 + q), Lifetime: time.Hour, Shape: shape}
		r.seq = q
		s.reqs <- r
		select {
		case resp := <-r.resp:
			if !errors.Is(resp.err, ErrDraining) {
				t.Fatalf("post-drain seq %d: got %v, want ErrDraining", q, resp.err)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("post-drain seq %d parked forever", q)
		}
	}
}

// TestSnapshotDoesNotAdvanceTime pins /snapshot's read-only semantics.
func TestSnapshotDoesNotAdvanceTime(t *testing.T) {
	shape := resources.Vector{CPUMilli: 1000, MemoryMB: 1000, SSDGB: 0}
	s, err := New(Config{PoolName: "snap", Hosts: 2, HostShape: shape, Policy: scheduler.NewBestFit()})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, err := s.Tick(2*time.Hour, 0); err != nil {
		t.Fatal(err)
	}
	sample, err := s.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if sample.Time != 2*time.Hour {
		t.Fatalf("snapshot at %v, want the ticked time", sample.Time)
	}
	st, err := s.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.NowNS != 2*time.Hour {
		t.Fatalf("snapshot advanced time to %v", st.NowNS)
	}
}
