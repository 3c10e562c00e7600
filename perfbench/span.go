package main

import (
	"bufio"
	"compress/gzip"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"sync"
	"time"
)

// kind names the layer boundary a span was recorded at.
type kind uint8

const (
	kSimCreate kind = iota
	kSimExit
	kSimAdvance
	kSchedule
	kOnPlaced
	kOnExited
	kOnTick
	kPredict
	kHandler
	kClientRTT
	numKinds
)

var kindNames = [numKinds]string{
	"sim.create", "sim.exit", "sim.advance",
	"scheduler.schedule", "scheduler.on_placed", "scheduler.on_exited", "scheduler.on_tick",
	"model.predict", "serve.handler", "serve.client_rtt",
}

// span is one timed call across a layer boundary. Spans of one placement
// share the VM ID; spans of one served request share its sequence number.
type span struct {
	start, end int64 // ns since the tracer's epoch (monotonic)
	id         int64
	parent     int32 // index of the enclosing span in the same tracer, -1 at top level
	kind       kind
}

// tracer keeps spans in memory until the run ends. Nested spans
// (begin/end) come from one goroutine: an event loop. Flat spans (add) may
// come from many goroutines and take the lock.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
	open  []int32
}

func newTracer(epoch time.Time) *tracer { return &tracer{epoch: epoch} }

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

func (t *tracer) begin(k kind, id int64) int32 {
	parent := int32(-1)
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	i := int32(len(t.spans))
	t.spans = append(t.spans, span{start: t.now(), id: id, parent: parent, kind: k})
	t.open = append(t.open, i)
	return i
}

func (t *tracer) end(i int32) {
	t.spans[i].end = t.now()
	t.open = t.open[:len(t.open)-1]
}

// add records a completed top-level span; safe for concurrent use.
func (t *tracer) add(k kind, id int64, start, end time.Time) {
	t.mu.Lock()
	t.spans = append(t.spans, span{start: int64(start.Sub(t.epoch)), end: int64(end.Sub(t.epoch)), id: id, parent: -1, kind: k})
	t.mu.Unlock()
}

// layerStats aggregates spans per kind: count, total and self time (a
// span's duration minus the part its child spans cover), plus every
// duration for the kinds whose percentiles are reported.
type layerStats struct {
	count [numKinds]int64
	total [numKinds]int64
	self  [numKinds]int64
	durs  [numKinds][]float64 // µs
}

var sampledKinds = [numKinds]bool{kSchedule: true, kHandler: true, kClientRTT: true}

func (s *layerStats) add(t *tracer) {
	t.mu.Lock()
	defer t.mu.Unlock()
	child := make([]int64, len(t.spans))
	for _, sp := range t.spans {
		if sp.parent >= 0 {
			child[sp.parent] += sp.end - sp.start
		}
	}
	for i, sp := range t.spans {
		d := sp.end - sp.start
		s.count[sp.kind]++
		s.total[sp.kind] += d
		s.self[sp.kind] += d - child[i]
		if sampledKinds[sp.kind] {
			s.durs[sp.kind] = append(s.durs[sp.kind], float64(d)/1e3)
		}
	}
}

// meanSelfUS is the mean self time of one kind in µs (0 when absent).
func (s *layerStats) meanSelfUS(k kind) float64 {
	if s.count[k] == 0 {
		return 0
	}
	return float64(s.self[k]) / float64(s.count[k]) / 1e3
}

// meanUS is the mean duration of one kind in µs (0 when absent).
func (s *layerStats) meanUS(k kind) float64 {
	if s.count[k] == 0 {
		return 0
	}
	return float64(s.total[k]) / float64(s.count[k]) / 1e3
}

// quantile returns the q-quantile of raw samples by linear interpolation
// between closest ranks; it sorts xs in place. Empty input gives 0.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	slices.Sort(xs)
	pos := q * float64(len(xs)-1)
	lo := int(pos)
	if lo+1 >= len(xs) {
		return xs[len(xs)-1]
	}
	return xs[lo] + (pos-float64(lo))*(xs[lo+1]-xs[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// latWindow is the window, in consecutive samples, of windowedQuantile.
const latWindow = 1000

// windowedQuantile splits samples, in the order they were taken, into
// windows of latWindow and returns the median over whole windows of each
// window's q-quantile: a tail estimate that a burst of machine noise
// confined to a few windows cannot move. xs is left unchanged.
func windowedQuantile(xs []float64, q float64) float64 {
	var per []float64
	buf := make([]float64, latWindow)
	for i := 0; i+latWindow <= len(xs); i += latWindow {
		copy(buf, xs[i:i+latWindow])
		per = append(per, quantile(buf, q))
	}
	return median(per)
}

// writeSpans writes every span of the tracers as gzipped TSV: kind, start
// and end in ns since the run's epoch, the parent's row number (-1 for
// none) and the shared id.
func writeSpans(path string, tracers []*tracer) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	zw, _ := gzip.NewWriterLevel(f, gzip.BestSpeed) // fails only on an invalid level
	w := bufio.NewWriterSize(zw, 1<<16)
	fmt.Fprintln(w, "kind\tstart_ns\tend_ns\tparent\tid")
	var line []byte
	base := 0
	for _, t := range tracers {
		t.mu.Lock()
		for _, sp := range t.spans {
			parent := -1
			if sp.parent >= 0 {
				parent = base + int(sp.parent)
			}
			line = append(line[:0], kindNames[sp.kind]...)
			line = append(line, '\t')
			line = strconv.AppendInt(line, sp.start, 10)
			line = append(line, '\t')
			line = strconv.AppendInt(line, sp.end, 10)
			line = append(line, '\t')
			line = strconv.AppendInt(line, int64(parent), 10)
			line = append(line, '\t')
			line = strconv.AppendInt(line, sp.id, 10)
			line = append(line, '\n')
			w.Write(line) // a write error sticks and is returned by Flush
		}
		base += len(t.spans)
		t.mu.Unlock()
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := zw.Close(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
