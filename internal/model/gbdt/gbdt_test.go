package gbdt

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
	"unsafe"
)

// synth builds a regression problem with known structure: y depends on
// feature 0 (step), feature 1 (linear), and noise; feature 2 is irrelevant.
func synth(n int, seed int64) ([][]float64, []float64) {
	rng := rand.New(rand.NewSource(seed))
	X := make([][]float64, n)
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		a, b, c := rng.Float64(), rng.Float64(), rng.Float64()
		X[i] = []float64{a, b, c}
		y[i] = 3*b + 0.05*rng.NormFloat64()
		if a > 0.5 {
			y[i] += 2
		}
	}
	return X, y
}

// encoderLevels is how many distinct values each column of the
// production feature vector takes: five target-encoded categories, three
// booleans, CPU, memory, and a near-continuous uptime.
var encoderLevels = [11]int{3, 14, 8, 64, 4, 2, 2, 2, 6, 7, 256}

// synthWide builds a regression problem shaped like the production model's
// input: 11 columns in [0, 1) with encoderLevels distinct values each,
// skewed toward low levels as category frequencies are, and a target
// driven mostly by the high-cardinality category and the uptime. With 6000
// rows, its 400-tree model walks 3.4 nodes per tree on average, as the
// production model on a 64-host trace does (3.5).
func synthWide(n int, seed int64) ([][]float64, []float64) {
	rng := rand.New(rand.NewSource(seed))
	X := make([][]float64, n)
	y := make([]float64, n)
	for i := range X {
		row := make([]float64, len(encoderLevels))
		for f, l := range encoderLevels {
			u := rng.Float64()
			row[f] = math.Floor(float64(l)*u*u*u) / float64(l)
		}
		X[i] = row
		y[i] = 2*row[3] + row[10] + 0.5*row[1] - 0.3*row[8]*row[9] + 0.2*row[5] + 0.1*rng.NormFloat64()
	}
	return X, y
}

// productionShaped trains a model the size of the one lava.TrainModel
// builds: 11 features (features.NumColumns) and 400 trees.
func productionShaped(tb testing.TB) *Model {
	tb.Helper()
	X, y := synthWide(6000, 9)
	m, err := Train(X, y, Params{Trees: 400})
	if err != nil {
		tb.Fatal(err)
	}
	return m
}

// perNodePredict is the reference kernel: it walks every tree over the raw
// vector and bins the node's feature again at each internal node. Predict
// must agree with it bit for bit.
func perNodePredict(m *Model, x []float64) float64 {
	out := m.Bias
	for _, t := range m.Trees {
		n := 0
		for {
			nd := t.Nodes[n]
			if nd.Feature == -1 {
				out += nd.Value
				break
			}
			if binValue(m.Edges[nd.Feature], x[nd.Feature]) <= nd.Bin {
				n = int(nd.Left)
			} else {
				n = int(nd.Right)
			}
		}
	}
	return out
}

func TestPredictMatchesPerNodeWalk(t *testing.T) {
	m := productionShaped(t)
	if m.NumFeat != 11 || m.NumTrees() != 400 {
		t.Fatalf("model has %d features, %d trees", m.NumFeat, m.NumTrees())
	}
	rng := rand.New(rand.NewSource(10))
	// Special values per feature: every bin edge exactly, its neighbours,
	// values below the first and above the last edge, ±Inf and NaN.
	special := make([][]float64, m.NumFeat)
	for f, es := range m.Edges {
		vs := []float64{math.Inf(-1), math.Inf(1), math.NaN(), -1e300, 1e300}
		if len(es) > 0 {
			vs = append(vs, es[0]-1, es[len(es)-1]+1)
		}
		for _, e := range es {
			vs = append(vs, e, math.Nextafter(e, math.Inf(-1)), math.Nextafter(e, math.Inf(1)))
		}
		special[f] = vs
	}
	check := func(x []float64) {
		t.Helper()
		got, want := m.Predict(x), perNodePredict(m, x)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("Predict(%v) = %v, per-node walk = %v", x, got, want)
		}
	}
	for i := 0; i < 2000; i++ {
		x := make([]float64, m.NumFeat)
		for f := range x {
			x[f] = rng.Float64()*1.2 - 0.1
		}
		check(x)
	}
	for f, vs := range special {
		for _, v := range vs {
			for k := 0; k < 8; k++ {
				x := make([]float64, m.NumFeat)
				for g, sp := range special {
					x[g] = sp[rng.Intn(len(sp))]
				}
				x[f] = v
				check(x)
			}
		}
	}
}

func TestNodeIs16Bytes(t *testing.T) {
	if got := unsafe.Sizeof(node{}); got != 16 {
		t.Fatalf("node is %d bytes, want 16", got)
	}
}

// TestSaveFormatPinned pins the model file format: field names, their
// order and number formatting must not change, or saved models stop
// loading elsewhere.
func TestSaveFormatPinned(t *testing.T) {
	m := &Model{
		Bias: 0.5,
		Trees: []tree{{Nodes: []node{
			{Feature: 1, Bin: 2, Left: 1, Right: 2},
			{Feature: -1, Left: -1, Right: -1, Value: -0.25},
			{Feature: -1, Left: -1, Right: -1, Value: 0.75},
		}}},
		Edges:    [][]float64{{1}, {1, 2, 3.5}},
		Gain:     []float64{0, 4.5},
		NumFeat:  2,
		TrainedN: 40,
	}
	const want = `{"bias":0.5,"trees":[{"nodes":[` +
		`{"f":1,"b":2,"l":1,"r":2,"v":0},` +
		`{"f":-1,"b":0,"l":-1,"r":-1,"v":-0.25},` +
		`{"f":-1,"b":0,"l":-1,"r":-1,"v":0.75}]}],` +
		`"edges":[[1],[1,2,3.5]],"gain":[0,4.5],"num_features":2,"trained_examples":40}` + "\n"
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	if buf.String() != want {
		t.Fatalf("Save =\n%s\nwant\n%s", buf.String(), want)
	}
	got, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if p := got.Predict([]float64{0, 2}); p != 0.25 {
		t.Fatalf("Predict after load = %v, want 0.25", p)
	}
}

func TestLoadRejectsMalformedTrees(t *testing.T) {
	const leaf = `{"f":-1,"l":-1,"r":-1,"v":1}`
	model := func(nodes string) string {
		return `{"bias":0,"trees":[{"nodes":[` + nodes + `]}],"edges":[[0.5],[0.5]],"gain":[0,0],"num_features":2}`
	}
	if _, err := Load(strings.NewReader(model(`{"f":0,"b":0,"l":1,"r":2},` + leaf + "," + leaf))); err != nil {
		t.Fatalf("well-formed model rejected: %v", err)
	}
	manyEdges := make([]string, 256)
	for i := range manyEdges {
		manyEdges[i] = fmt.Sprint(i)
	}
	cases := map[string]string{
		"child points back to ancestor": model(`{"f":0,"b":0,"l":1,"r":2},{"f":1,"b":0,"l":0,"r":2},` + leaf),
		"child points to itself":        model(`{"f":0,"b":0,"l":0,"r":1},` + leaf),
		"child past the last node":      model(`{"f":0,"b":0,"l":1,"r":3},` + leaf + "," + leaf),
		"negative child":                model(`{"f":0,"b":0,"l":-1,"r":1},` + leaf),
		"feature >= num_features":       model(`{"f":2,"b":0,"l":1,"r":2},` + leaf + "," + leaf),
		"feature < -1":                  model(`{"f":-2,"b":0,"l":1,"r":2},` + leaf + "," + leaf),
		"feature overflows int16":       model(`{"f":40000,"b":0,"l":1,"r":2},` + leaf + "," + leaf),
		"empty tree":                    model(``),
		"more than 255 edges": `{"bias":0,"trees":[],"edges":[[` + strings.Join(manyEdges, ",") +
			`]],"gain":[0],"num_features":1}`,
	}
	for name, doc := range cases {
		if _, err := Load(strings.NewReader(doc)); err == nil {
			t.Errorf("%s: Load accepted the model", name)
		}
	}
}

func TestTrainRejectsTooManyLeaves(t *testing.T) {
	X, y := synth(100, 11)
	if _, err := Train(X, y, Params{Trees: 1, MaxLeaves: MaxLeaves + 1}); err == nil {
		t.Fatalf("MaxLeaves %d must fail", MaxLeaves+1)
	}
	if _, err := Train(X, y, Params{Trees: 1, MaxLeaves: MaxLeaves}); err != nil {
		t.Fatalf("MaxLeaves %d: %v", MaxLeaves, err)
	}
}

func mse(m *Model, X [][]float64, y []float64) float64 {
	s := 0.0
	for i := range X {
		d := m.Predict(X[i]) - y[i]
		s += d * d
	}
	return s / float64(len(X))
}

func TestTrainReducesError(t *testing.T) {
	X, y := synth(2000, 1)
	m, err := Train(X, y, Params{Trees: 100})
	if err != nil {
		t.Fatal(err)
	}
	Xt, yt := synth(500, 2)
	got := mse(m, Xt, yt)
	// Variance of y is ~ 3^2/12 + 1 ≈ 1.75; a fitted model should be far
	// below it.
	if got > 0.2 {
		t.Fatalf("test MSE = %v, want < 0.2", got)
	}
}

func TestBiasOnlyModel(t *testing.T) {
	// Constant target: every prediction equals the bias regardless of x.
	X := [][]float64{{0}, {1}, {2}, {3}}
	y := []float64{5, 5, 5, 5}
	m, err := Train(X, y, Params{Trees: 3, MinLeafSamples: 1})
	if err != nil {
		t.Fatal(err)
	}
	if got := m.Predict([]float64{99}); math.Abs(got-5) > 1e-9 {
		t.Fatalf("constant-target prediction = %v, want 5", got)
	}
}

func TestTrainRejectsBadInput(t *testing.T) {
	if _, err := Train(nil, nil, Params{}); err == nil {
		t.Fatal("empty training set must fail")
	}
	if _, err := Train([][]float64{{1}}, []float64{1, 2}, Params{}); err == nil {
		t.Fatal("mismatched lengths must fail")
	}
	if _, err := Train([][]float64{{1}, {1, 2}}, []float64{1, 2}, Params{}); err == nil {
		t.Fatal("ragged rows must fail")
	}
}

func TestImportanceIdentifiesRelevantFeatures(t *testing.T) {
	X, y := synth(3000, 3)
	m, err := Train(X, y, Params{Trees: 60})
	if err != nil {
		t.Fatal(err)
	}
	imp := m.Importance()
	if len(imp) != 3 {
		t.Fatalf("importance length = %d", len(imp))
	}
	sum := imp[0] + imp[1] + imp[2]
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("importance sums to %v, want 1", sum)
	}
	// Features 0 and 1 drive the target; feature 2 is noise.
	if imp[2] > 0.05 {
		t.Errorf("irrelevant feature importance = %v, want ~0", imp[2])
	}
	if imp[0] < 0.1 || imp[1] < 0.1 {
		t.Errorf("relevant features under-weighted: %v", imp)
	}
}

func TestDeterministicTraining(t *testing.T) {
	X, y := synth(500, 4)
	m1, err := Train(X, y, Params{Trees: 20})
	if err != nil {
		t.Fatal(err)
	}
	m2, err := Train(X, y, Params{Trees: 20})
	if err != nil {
		t.Fatal(err)
	}
	probe := []float64{0.3, 0.7, 0.1}
	if m1.Predict(probe) != m2.Predict(probe) {
		t.Fatal("training is not deterministic")
	}
}

func TestMaxLeavesRespected(t *testing.T) {
	X, y := synth(2000, 5)
	m, err := Train(X, y, Params{Trees: 5, MaxLeaves: 8, MinLeafSamples: 1})
	if err != nil {
		t.Fatal(err)
	}
	for ti, tr := range m.Trees {
		leaves := 0
		for _, n := range tr.Nodes {
			if n.Feature == -1 {
				leaves++
			}
		}
		if leaves > 8 {
			t.Fatalf("tree %d has %d leaves, want <= 8", ti, leaves)
		}
		// A binary tree with L leaves has 2L-1 nodes.
		if len(tr.Nodes) != 2*leaves-1 {
			t.Fatalf("tree %d has %d nodes for %d leaves", ti, len(tr.Nodes), leaves)
		}
	}
}

func TestMinLeafSamplesRespected(t *testing.T) {
	X, y := synth(200, 6)
	m, err := Train(X, y, Params{Trees: 3, MinLeafSamples: 50})
	if err != nil {
		t.Fatal(err)
	}
	// With 200 samples and min 50 per leaf, a tree can have at most 4
	// leaves.
	for _, tr := range m.Trees {
		leaves := 0
		for _, n := range tr.Nodes {
			if n.Feature == -1 {
				leaves++
			}
		}
		if leaves > 4 {
			t.Fatalf("tree has %d leaves despite MinLeafSamples=50", leaves)
		}
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	X, y := synth(500, 7)
	m, err := Train(X, y, Params{Trees: 10})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		probe := []float64{float64(i) / 20, float64(i%5) / 5, 0.5}
		if got.Predict(probe) != m.Predict(probe) {
			t.Fatalf("prediction mismatch after round trip at probe %d", i)
		}
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	if _, err := Load(bytes.NewBufferString("not json")); err == nil {
		t.Fatal("garbage must fail to load")
	}
	if _, err := Load(bytes.NewBufferString(`{"num_features":0}`)); err == nil {
		t.Fatal("malformed model must fail to load")
	}
}

func TestBinValue(t *testing.T) {
	edges := []float64{1, 2, 3}
	cases := []struct {
		x    float64
		want uint8
	}{
		{0.5, 0}, {1, 1}, {1.5, 1}, {2, 2}, {2.9, 2}, {3, 3}, {100, 3},
	}
	for _, c := range cases {
		if got := binValue(edges, c.x); got != c.want {
			t.Errorf("binValue(%v) = %d, want %d", c.x, got, c.want)
		}
	}
}

// BenchmarkPredict times one prediction of a production-shaped model (11
// features, 400 trees), cycling over probes so no single path stays hot.
func BenchmarkPredict(b *testing.B) {
	m := productionShaped(b)
	probes, _ := synthWide(256, 12)
	b.ReportAllocs()
	for i := 0; b.Loop(); i++ {
		m.Predict(probes[i%len(probes)])
	}
}
