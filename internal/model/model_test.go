package model

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"lava/internal/cluster"
	"lava/internal/model/eval"
	"lava/internal/model/gbdt"
	"lava/internal/simtime"
	"lava/internal/trace"
	"lava/internal/workload"
)

func testTrace(t *testing.T, days int, seed int64) *trace.Trace {
	return poolTrace(t, 24, days, seed)
}

func poolTrace(tb testing.TB, hosts, days int, seed int64) *trace.Trace {
	tb.Helper()
	tr, err := workload.Generate(workload.PoolSpec{
		Name: "model-test", Zone: "z1", Hosts: hosts, TargetUtil: 0.6,
		Duration: time.Duration(days) * simtime.Day, Seed: seed,
	})
	if err != nil {
		tb.Fatal(err)
	}
	return tr
}

func vmFromRecord(r trace.Record) *cluster.VM {
	return &cluster.VM{ID: r.ID, Shape: r.Shape, Feat: r.Feat, TrueLifetime: r.Lifetime}
}

func TestOracle(t *testing.T) {
	vm := &cluster.VM{ID: 1, TrueLifetime: 10 * time.Hour}
	var o Oracle
	if got := o.PredictRemaining(vm, 0); got != 10*time.Hour {
		t.Fatalf("oracle at 0 = %v", got)
	}
	if got := o.PredictRemaining(vm, 4*time.Hour); got != 6*time.Hour {
		t.Fatalf("oracle at 4h = %v", got)
	}
	// Outlived: falls back to the growing floor, never zero.
	got := o.PredictRemaining(vm, 20*time.Hour)
	if got != MinRemaining(20*time.Hour) || got <= 0 {
		t.Fatalf("oracle beyond lifetime = %v", got)
	}
}

func TestMinRemainingGrows(t *testing.T) {
	if MinRemaining(0) != time.Minute {
		t.Fatalf("MinRemaining(0) = %v", MinRemaining(0))
	}
	if got := MinRemaining(100 * time.Hour); got != 10*time.Hour {
		t.Fatalf("MinRemaining(100h) = %v, want 10h", got)
	}
}

func TestNoisyOracleDeterministicPerVM(t *testing.T) {
	n := &NoisyOracle{Accuracy: 0.5, Seed: 1}
	vm := &cluster.VM{ID: 42, TrueLifetime: 24 * time.Hour}
	a := n.PredictedLifetime(vm)
	b := n.PredictedLifetime(vm)
	if a != b {
		t.Fatal("noisy oracle must be deterministic per VM")
	}
}

func TestNoisyOracleAccuracyExtremes(t *testing.T) {
	vmAt := func(id int64) *cluster.VM {
		return &cluster.VM{ID: cluster.VMID(id), TrueLifetime: 24 * time.Hour}
	}
	perfect := &NoisyOracle{Accuracy: 1.0, Seed: 7}
	nWrong := 0
	for i := int64(0); i < 200; i++ {
		p := perfect.PredictedLifetime(vmAt(i))
		if eval.Log10Error(p, 24*time.Hour) > 0.05 {
			nWrong++
		}
	}
	if nWrong != 0 {
		t.Fatalf("accuracy=1 produced %d large errors", nWrong)
	}
	broken := &NoisyOracle{Accuracy: 0.0, Seed: 7}
	nBig := 0
	for i := int64(0); i < 200; i++ {
		p := broken.PredictedLifetime(vmAt(i))
		if eval.Log10Error(p, 24*time.Hour) > 1 {
			nBig++
		}
	}
	if nBig < 100 {
		t.Fatalf("accuracy=0 produced only %d/200 large errors", nBig)
	}
}

func TestNoisyOracleCap(t *testing.T) {
	n := &NoisyOracle{Accuracy: 0, Seed: 3}
	for i := int64(0); i < 500; i++ {
		vm := &cluster.VM{ID: cluster.VMID(i), TrueLifetime: 10 * simtime.Day}
		if p := n.PredictedLifetime(vm); p > 14*simtime.Day {
			t.Fatalf("prediction %v exceeds 14-day cap", p)
		}
	}
}

func TestCapped(t *testing.T) {
	vm := &cluster.VM{ID: 1, TrueLifetime: 30 * simtime.Day}
	c := Capped{P: Oracle{}}
	if got := c.PredictRemaining(vm, 0); got != simtime.CapLifetime {
		t.Fatalf("capped = %v, want %v", got, simtime.CapLifetime)
	}
}

func TestBuildExamplesAugmentation(t *testing.T) {
	recs := []trace.Record{{ID: 1, Lifetime: 8 * time.Hour}}
	exs := BuildExamples(recs)
	if len(exs) != len(UptimeFractions) {
		t.Fatalf("examples = %d, want %d", len(exs), len(UptimeFractions))
	}
	// First example: zero uptime, label = log10(8h).
	if exs[0].UptimeLog10 != ZeroUptimeLog10 {
		t.Fatalf("first uptime = %v", exs[0].UptimeLog10)
	}
	// Half-lifetime example: remaining 4h -> log10(4).
	found := false
	for _, ex := range exs {
		if ex.Log10Hours > 0.6 && ex.Log10Hours < 0.61 {
			found = true
		}
	}
	if !found {
		t.Fatalf("missing half-lifetime example: %+v", exs)
	}
}

func TestBuildExamplesCapsLabels(t *testing.T) {
	recs := []trace.Record{{ID: 1, Lifetime: 40 * simtime.Day}}
	for _, ex := range BuildExamples(recs) {
		if ex.Log10Hours > simtime.Log10Hours(simtime.CapLifetime)+1e-9 {
			t.Fatalf("label %v exceeds 168h cap", ex.Log10Hours)
		}
	}
}

func TestSplitRecords(t *testing.T) {
	tr := testTrace(t, 2, 5)
	train, test := SplitRecords(tr.Records, 0.25, 9)
	if len(train)+len(test) != len(tr.Records) {
		t.Fatal("split lost records")
	}
	frac := float64(len(test)) / float64(len(tr.Records))
	if frac < 0.2 || frac > 0.3 {
		t.Fatalf("test fraction = %v, want ~0.25", frac)
	}
	// Determinism.
	tr2, te2 := SplitRecords(tr.Records, 0.25, 9)
	if len(tr2) != len(train) || len(te2) != len(test) {
		t.Fatal("split not deterministic")
	}
}

func TestDistTableBimodalReprediction(t *testing.T) {
	// Build records with a bimodal category: half 1d, half 7d lifetimes.
	var recs []trace.Record
	for i := 0; i < 200; i++ {
		lt := 24 * time.Hour
		if i%2 == 0 {
			lt = 7 * 24 * time.Hour
		}
		recs = append(recs, trace.Record{
			ID: cluster.VMID(i), Lifetime: lt,
			Feat: vmFromRecord(trace.Record{}).Feat,
		})
	}
	dt, err := TrainDistTable(recs, nil)
	if err != nil {
		t.Fatal(err)
	}
	vm := vmFromRecord(recs[0])
	// At uptime 0: mean of mixture = 4 days.
	at0 := dt.PredictRemaining(vm, 0)
	if at0 < 3*simtime.Day || at0 > 5*simtime.Day {
		t.Fatalf("PredictRemaining(0) = %v, want ~4d", at0)
	}
	// After 2 days: only the 7d mode remains -> ~5 days left. This is the
	// reprediction advantage of Fig. 2.
	at2 := dt.PredictRemaining(vm, 2*simtime.Day)
	if at2 < 4*simtime.Day || at2 > 6*simtime.Day {
		t.Fatalf("PredictRemaining(2d) = %v, want ~5d", at2)
	}
}

func TestGBDTPredictorLearnsWorkload(t *testing.T) {
	tr := testTrace(t, 6, 11)
	train, test := SplitRecords(tr.Records, 0.3, 1)
	g, err := TrainGBDT(train, gbdt.Params{Trees: 60})
	if err != nil {
		t.Fatal(err)
	}
	// Separation: long-lived categories must be predicted far longer than
	// short ones at uptime 0.
	var predicted, actual []time.Duration
	for _, r := range test {
		vm := vmFromRecord(r)
		predicted = append(predicted, g.PredictRemaining(vm, 0))
		lt := r.Lifetime
		if lt > simtime.CapLifetime {
			lt = simtime.CapLifetime
		}
		actual = append(actual, lt)
	}
	if len(actual) > 2000 {
		predicted, actual = predicted[:2000], actual[:2000]
	}
	c, err := eval.CIndex(predicted, actual)
	if err != nil {
		t.Fatal(err)
	}
	if c < 0.75 {
		t.Fatalf("GBDT C-index = %v, want >= 0.75", c)
	}
}

func TestKMAndCoxPredictorsTrain(t *testing.T) {
	tr := testTrace(t, 3, 13)
	train, test := SplitRecords(tr.Records, 0.2, 2)

	kmPred, err := TrainKM(train, nil)
	if err != nil {
		t.Fatal(err)
	}
	if kmPred.S.Strata() == 0 {
		t.Fatal("KM learned no strata")
	}
	vm := vmFromRecord(test[0])
	if kmPred.PredictRemaining(vm, 0) <= 0 {
		t.Fatal("KM prediction must be positive")
	}
	if kmPred.PredictRemaining(vm, 200*simtime.Day) <= 0 {
		t.Fatal("KM prediction beyond support must be positive")
	}
}

func TestPredictorNames(t *testing.T) {
	names := map[string]bool{}
	for _, p := range []Predictor{Oracle{}, &NoisyOracle{}, Capped{P: Oracle{}}} {
		if p.Name() == "" {
			t.Fatal("empty predictor name")
		}
		names[p.Name()] = true
	}
	if len(names) != 3 {
		t.Fatalf("names not distinct: %v", names)
	}
}

func TestGBDTBundleRoundTrip(t *testing.T) {
	tr := testTrace(t, 2, 21)
	g, err := TrainGBDT(tr.Records, gbdt.Params{Trees: 20})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := g.Save(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := LoadGBDT(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10 && i < len(tr.Records); i++ {
		vm := vmFromRecord(tr.Records[i])
		for _, up := range []time.Duration{0, time.Hour, 10 * time.Hour} {
			if got.PredictRemaining(vm, up) != g.PredictRemaining(vm, up) {
				t.Fatalf("prediction mismatch after round trip (vm %d, uptime %v)", vm.ID, up)
			}
		}
	}
	if _, err := LoadGBDT(bytes.NewBufferString("junk")); err == nil {
		t.Fatal("garbage bundle must fail to load")
	}
	if _, err := LoadGBDT(bytes.NewBufferString("{}")); err == nil {
		t.Fatal("empty bundle must fail to load")
	}
}

func TestLoadGBDTRejectsCyclicTree(t *testing.T) {
	tr := testTrace(t, 2, 21)
	g, err := TrainGBDT(tr.Records, gbdt.Params{Trees: 5})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := g.Save(&buf); err != nil {
		t.Fatal(err)
	}
	// The first tree's root splits into nodes 1 and 2; pointing its left
	// child back at itself would make every prediction loop forever.
	const root = `"l":1,"r":2`
	doc := buf.String()
	if !strings.Contains(doc, root) {
		t.Fatalf("saved bundle has no root split %s", root)
	}
	cyclic := strings.Replace(doc, root, `"l":0,"r":2`, 1)
	if _, err := LoadGBDT(strings.NewReader(cyclic)); err == nil {
		t.Fatal("bundle with a cyclic tree must fail to load")
	}
}

func TestGBDTPredictRemainingDoesNotAllocate(t *testing.T) {
	tr := testTrace(t, 2, 21)
	g, err := TrainGBDT(tr.Records, gbdt.Params{Trees: 20})
	if err != nil {
		t.Fatal(err)
	}
	vm := vmFromRecord(tr.Records[0])
	allocs := testing.AllocsPerRun(100, func() {
		g.PredictRemaining(vm, time.Hour)
	})
	if allocs != 0 {
		t.Fatalf("%v allocs per GBDT PredictRemaining, want 0", allocs)
	}
}

// BenchmarkGBDTPredictRemaining times one reprediction of the production
// model: 400 trees trained on a 64-host trace, cycling over its VMs and a
// spread of uptimes.
func BenchmarkGBDTPredictRemaining(b *testing.B) {
	tr := poolTrace(b, 64, 7, 31)
	g, err := TrainGBDT(tr.Records, gbdt.Params{Trees: 400})
	if err != nil {
		b.Fatal(err)
	}
	vms := make([]*cluster.VM, 0, 512)
	for _, r := range tr.Records {
		if len(vms) == cap(vms) {
			break
		}
		vms = append(vms, vmFromRecord(r))
	}
	b.ReportAllocs()
	for i := 0; b.Loop(); i++ {
		g.PredictRemaining(vms[i%len(vms)], time.Duration(i%8)*time.Hour)
	}
}
