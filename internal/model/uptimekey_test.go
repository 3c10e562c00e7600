package model

import (
	"math"
	"sort"
	"testing"
	"time"

	"lava/internal/features"
	"lava/internal/model/gbdt"
	"lava/internal/simtime"
)

// keyProbeUptimes returns sorted uptimes that probe every bin edge of the
// GBDT's uptime column: zero, a few ns on either side of each edge (edges
// are log10 hours, converted back to a Duration), each gap's midpoint, and
// uptimes past the lifetime cap.
func keyProbeUptimes(edges []float64) []time.Duration {
	ups := []time.Duration{0, 1, time.Second}
	for i, e := range edges {
		u := simtime.FromHours(math.Pow(10, e))
		for d := time.Duration(-3); d <= 3; d++ {
			if u+d >= 0 {
				ups = append(ups, u+d)
			}
		}
		if i+1 < len(edges) {
			ups = append(ups, simtime.FromHours(math.Pow(10, (e+edges[i+1])/2)))
		}
	}
	for _, d := range []time.Duration{0, 1, time.Hour, 30 * simtime.Day, 365 * simtime.Day} {
		ups = append(ups, simtime.CapLifetime+d)
	}
	sort.Slice(ups, func(i, j int) bool { return ups[i] < ups[j] })
	return ups
}

// TestGBDTUptimeKeyContract pins the UptimeKeyer contract on the production
// model size: for every sampled VM, uptimes with equal keys give a
// bit-identical log-hours output and the same remaining lifetime.
func TestGBDTUptimeKeyContract(t *testing.T) {
	tr := testTrace(t, 2, 41)
	g, err := TrainGBDT(tr.Records, gbdt.Params{Trees: 400})
	if err != nil {
		t.Fatal(err)
	}
	ups := keyProbeUptimes(g.M.Edges[features.UptimeColumn])

	keys := make([]int64, len(ups))
	distinct := 1
	for i, u := range ups {
		keys[i] = g.UptimeKey(u)
		if i > 0 && keys[i] < keys[i-1] {
			t.Fatalf("key not monotone in uptime: key(%v)=%d < key(%v)=%d", u, keys[i], ups[i-1], keys[i-1])
		}
		if i > 0 && keys[i] != keys[i-1] {
			distinct++
		}
	}
	if distinct < len(g.M.Edges[features.UptimeColumn])/2 {
		t.Fatalf("probe uptimes cover %d keys for %d edges", distinct, len(g.M.Edges[features.UptimeColumn]))
	}

	step := len(tr.Records) / 40
	for r := 0; r < len(tr.Records); r += step {
		vm := vmFromRecord(tr.Records[r])
		logOut := func(u time.Duration) float64 {
			x := g.Enc.Encode(vm.Feat, uptimeLog10(u))
			return g.M.Predict(x[:])
		}
		first := 0 // index of the first probe with the current key
		for i, u := range ups {
			if keys[i] != keys[first] {
				first = i
				continue
			}
			if i == first {
				continue
			}
			u0 := ups[first]
			if a, b := math.Float64bits(logOut(u0)), math.Float64bits(logOut(u)); a != b {
				t.Fatalf("vm %d: key %d: log output at %v (%x) != at %v (%x)", vm.ID, keys[i], u0, a, u, b)
			}
			if a, b := g.PredictRemaining(vm, u0), g.PredictRemaining(vm, u); a != b {
				t.Fatalf("vm %d: key %d: remaining at %v (%v) != at %v (%v)", vm.ID, keys[i], u0, a, u, b)
			}
		}
	}
}

// TestUptimeKeyOfFallsBackToUptime: predictors without UptimeKeyer, and
// wrappers that do not forward it, key on the exact uptime.
func TestUptimeKeyOfFallsBackToUptime(t *testing.T) {
	tr := testTrace(t, 2, 41)
	g, err := TrainGBDT(tr.Records, gbdt.Params{Trees: 5})
	if err != nil {
		t.Fatal(err)
	}
	u := 90 * time.Minute
	if got := UptimeKeyOf(g, u); got != g.UptimeKey(u) {
		t.Fatalf("UptimeKeyOf(gbdt) = %d, want its UptimeKey %d", got, g.UptimeKey(u))
	}
	for _, p := range []Predictor{Oracle{}, Capped{P: g}} {
		if got := UptimeKeyOf(p, u); got != int64(u) {
			t.Fatalf("UptimeKeyOf(%s) = %d, want the uptime %d", p.Name(), got, int64(u))
		}
	}
}
