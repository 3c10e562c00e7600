package gbdt

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"sort"
)

// MaxLeaves is the largest Params.MaxLeaves Train accepts: a tree with L
// leaves has 2L-1 nodes, and node indices are int16.
const MaxLeaves = 16384

// Params are the training hyperparameters. Zero values take the defaults in
// brackets, which mirror the paper's Appendix B configuration scaled down
// for synthetic data.
type Params struct {
	Trees          int     // number of boosting rounds [200]
	LearningRate   float64 // shrinkage [0.1]
	MaxLeaves      int     // best-first growth stops at this many leaves [32]
	MinLeafSamples int     // minimum samples per leaf [20]
	Bins           int     // histogram bins per feature, <= 256 [64]
}

func (p Params) withDefaults() Params {
	if p.Trees == 0 {
		p.Trees = 200
	}
	if p.LearningRate == 0 {
		p.LearningRate = 0.1
	}
	if p.MaxLeaves == 0 {
		p.MaxLeaves = 32
	}
	if p.MinLeafSamples == 0 {
		p.MinLeafSamples = 20
	}
	if p.Bins == 0 {
		p.Bins = 64
	}
	if p.Bins > 256 {
		p.Bins = 256
	}
	return p
}

// node is one tree node, 16 bytes. Leaves have Feature == -1 and carry
// Value; internal nodes route binned feature values <= Bin to Left, else
// Right. Children always have higher indices than their parent.
type node struct {
	Feature int16   `json:"f"`
	Bin     uint8   `json:"b"`
	Left    int16   `json:"l"`
	Right   int16   `json:"r"`
	Value   float64 `json:"v"`
}

type tree struct {
	Nodes []node `json:"nodes"`
}

// Model is a trained GBDT ensemble.
type Model struct {
	Bias     float64     `json:"bias"`
	Trees    []tree      `json:"trees"`
	Edges    [][]float64 `json:"edges"` // per-feature bin upper edges (len = bins-1)
	Gain     []float64   `json:"gain"`  // cumulative split gain per feature (Fig. 11)
	NumFeat  int         `json:"num_features"`
	TrainedN int         `json:"trained_examples"`
}

// Train fits a GBDT regressor on rows X (n x f) with targets y.
func Train(X [][]float64, y []float64, p Params) (*Model, error) {
	if len(X) == 0 || len(X) != len(y) {
		return nil, errors.New("gbdt: empty or mismatched training data")
	}
	p = p.withDefaults()
	if p.MaxLeaves > MaxLeaves {
		return nil, fmt.Errorf("gbdt: MaxLeaves %d exceeds %d", p.MaxLeaves, MaxLeaves)
	}
	nf := len(X[0])
	n := len(X)
	if nf > math.MaxInt16 {
		return nil, fmt.Errorf("gbdt: %d features exceed %d", nf, math.MaxInt16)
	}
	for i, row := range X {
		if len(row) != nf {
			return nil, fmt.Errorf("gbdt: row %d has %d features, want %d", i, len(row), nf)
		}
	}

	m := &Model{NumFeat: nf, Gain: make([]float64, nf), TrainedN: n}
	m.Edges = computeEdges(X, nf, p.Bins)

	// Bin the matrix row-major: row i is rows[i*nf : (i+1)*nf], the same
	// layout Predict bins a single vector into.
	rows := make([]uint8, n*nf)
	for i := 0; i < n; i++ {
		m.binRow(rows[i*nf:(i+1)*nf], X[i])
	}

	// Bias = mean target; residual boosting on squared loss.
	sum := 0.0
	for _, v := range y {
		sum += v
	}
	m.Bias = sum / float64(n)

	pred := make([]float64, n)
	for i := range pred {
		pred[i] = m.Bias
	}
	resid := make([]float64, n)

	idx := make([]int, n)
	builder := treeBuilder{rows: rows, nf: nf, p: p, gain: m.Gain,
		sums: make([]float64, nf*256), cnts: make([]int, nf*256)}
	for t := 0; t < p.Trees; t++ {
		for i := range resid {
			resid[i] = y[i] - pred[i]
		}
		for i := range idx {
			idx[i] = i
		}
		tr := builder.build(idx, resid)
		// Apply shrinkage by scaling leaf values once, then update preds.
		for i := range tr.Nodes {
			if tr.Nodes[i].Feature == -1 {
				tr.Nodes[i].Value *= p.LearningRate
			}
		}
		for i := 0; i < n; i++ {
			pred[i] += tr.walk(rows[i*nf : (i+1)*nf])
		}
		m.Trees = append(m.Trees, tr)
	}
	return m, nil
}

// computeEdges derives per-feature bin edges from value quantiles.
func computeEdges(X [][]float64, nf, bins int) [][]float64 {
	n := len(X)
	edges := make([][]float64, nf)
	vals := make([]float64, n)
	for f := 0; f < nf; f++ {
		for i := 0; i < n; i++ {
			vals[i] = X[i][f]
		}
		sort.Float64s(vals)
		var es []float64
		for b := 1; b < bins; b++ {
			q := vals[b*n/bins]
			if len(es) == 0 || q > es[len(es)-1] {
				es = append(es, q)
			}
		}
		edges[f] = es
	}
	return edges
}

// binValue maps x to its bin index: the count of edges <= x.
func binValue(edges []float64, x float64) uint8 {
	// First edge > x.
	i := sort.SearchFloat64s(edges, math.Nextafter(x, math.Inf(1)))
	return uint8(i)
}

// Bin returns the bin Predict maps value x of feature f to. Every tree
// reads only bins, so two vectors that differ in one feature predict the
// same whenever that feature's values share a bin.
func (m *Model) Bin(f int, x float64) int { return int(binValue(m.Edges[f], x)) }

// binRow bins the raw feature vector x into bins, one entry per feature.
func (m *Model) binRow(bins []uint8, x []float64) {
	for f := range bins {
		bins[f] = binValue(m.Edges[f], x[f])
	}
}

// --- tree construction ------------------------------------------------------

type treeBuilder struct {
	rows []uint8 // row-major binned training matrix
	nf   int
	p    Params
	gain []float64
	sums []float64 // per-(feature, bin) histogram scratch, nf*256
	cnts []int
}

// splitCand describes the best split found for a leaf.
type splitCand struct {
	node    int16 // node index in the growing tree
	idx     []int // samples at the node
	feature int
	bin     uint8
	gain    float64
	sum     float64
	left    []int
	right   []int
}

// build grows one regression tree best-first on residuals r over samples idx.
func (b *treeBuilder) build(idx []int, r []float64) tree {
	var tr tree
	sum := 0.0
	for _, i := range idx {
		sum += r[i]
	}
	tr.Nodes = append(tr.Nodes, node{Feature: -1, Left: -1, Right: -1, Value: sum / float64(len(idx))})

	// Candidate heap ordered by gain (simple slice; MaxLeaves is small).
	var cands []splitCand
	if c, ok := b.bestSplit(0, idx, r); ok {
		cands = append(cands, c)
	}
	leaves := 1
	for leaves < b.p.MaxLeaves && len(cands) > 0 {
		// Pop max-gain candidate.
		best := 0
		for i := range cands {
			if cands[i].gain > cands[best].gain {
				best = i
			}
		}
		c := cands[best]
		cands = append(cands[:best], cands[best+1:]...)

		// Materialize the split.
		li := int16(len(tr.Nodes))
		ls := 0.0
		for _, i := range c.left {
			ls += r[i]
		}
		rs := 0.0
		for _, i := range c.right {
			rs += r[i]
		}
		tr.Nodes = append(tr.Nodes, node{Feature: -1, Left: -1, Right: -1, Value: ls / float64(len(c.left))})
		ri := int16(len(tr.Nodes))
		tr.Nodes = append(tr.Nodes, node{Feature: -1, Left: -1, Right: -1, Value: rs / float64(len(c.right))})
		tr.Nodes[c.node].Feature = int16(c.feature)
		tr.Nodes[c.node].Bin = c.bin
		tr.Nodes[c.node].Left = li
		tr.Nodes[c.node].Right = ri
		b.gain[c.feature] += c.gain
		leaves++

		if cl, ok := b.bestSplit(li, c.left, r); ok {
			cands = append(cands, cl)
		}
		if cr, ok := b.bestSplit(ri, c.right, r); ok {
			cands = append(cands, cr)
		}
	}
	return tr
}

// bestSplit finds the max-variance-reduction split of samples idx. One pass
// over the rows fills every feature's histogram; each bin sums its samples
// in idx order.
func (b *treeBuilder) bestSplit(nodeIdx int16, idx []int, r []float64) (splitCand, bool) {
	if len(idx) < 2*b.p.MinLeafSamples {
		return splitCand{}, false
	}
	total := 0.0
	for _, i := range idx {
		total += r[i]
	}
	n := float64(len(idx))
	baseScore := total * total / n

	nf := b.nf
	sums, cnts := b.sums, b.cnts
	clear(sums)
	clear(cnts)
	for _, i := range idx {
		row := b.rows[i*nf : (i+1)*nf]
		for f, bn := range row {
			sums[f*256+int(bn)] += r[i]
			cnts[f*256+int(bn)]++
		}
	}

	bestGain := 1e-12
	bestFeat, bestBin := -1, uint8(0)
	for f := 0; f < nf; f++ {
		fs, fc := sums[f*256:(f+1)*256], cnts[f*256:(f+1)*256]
		maxBin := 255
		for maxBin > 0 && fc[maxBin] == 0 {
			maxBin--
		}
		cumSum, cumCnt := 0.0, 0
		for bn := 0; bn < maxBin; bn++ { // split "<= bn"
			cumSum += fs[bn]
			cumCnt += fc[bn]
			if cumCnt < b.p.MinLeafSamples || len(idx)-cumCnt < b.p.MinLeafSamples {
				continue
			}
			rSum := total - cumSum
			rCnt := float64(len(idx) - cumCnt)
			gain := cumSum*cumSum/float64(cumCnt) + rSum*rSum/rCnt - baseScore
			if gain > bestGain {
				bestGain, bestFeat, bestBin = gain, f, uint8(bn)
			}
		}
	}
	if bestFeat < 0 {
		return splitCand{}, false
	}
	c := splitCand{node: nodeIdx, idx: idx, feature: bestFeat, bin: bestBin, gain: bestGain, sum: total}
	for _, i := range idx {
		if b.rows[i*nf+bestFeat] <= bestBin {
			c.left = append(c.left, i)
		} else {
			c.right = append(c.right, i)
		}
	}
	return c, true
}

// walk returns the value of the leaf that the binned feature vector bins
// reaches. Training and Predict both use it, so they cannot disagree.
func (t *tree) walk(bins []uint8) float64 {
	nodes := t.Nodes
	i := 0
	for {
		nd := &nodes[i]
		if nd.Feature < 0 {
			return nd.Value
		}
		if bins[nd.Feature] <= nd.Bin {
			i = int(nd.Left)
		} else {
			i = int(nd.Right)
		}
	}
}

// Predict returns the ensemble prediction for a raw feature vector. It bins
// each feature once, then walks every tree over the bins, summing leaf
// values in tree order.
func (m *Model) Predict(x []float64) float64 {
	// The bins live on the stack for up to 16 features; the production
	// model has 11.
	var buf [16]uint8
	var bins []uint8
	if m.NumFeat <= len(buf) {
		bins = buf[:m.NumFeat]
	} else {
		bins = make([]uint8, m.NumFeat)
	}
	m.binRow(bins, x)
	out := m.Bias
	for ti := range m.Trees {
		out += m.Trees[ti].walk(bins)
	}
	return out
}

// Importance returns normalized per-feature split gains (the "split score"
// of Fig. 11). The slice sums to 1 unless no splits were made.
func (m *Model) Importance() []float64 {
	out := make([]float64, len(m.Gain))
	total := 0.0
	for _, g := range m.Gain {
		total += g
	}
	if total == 0 {
		return out
	}
	for i, g := range m.Gain {
		out[i] = g / total
	}
	return out
}

// NumTrees returns the ensemble size.
func (m *Model) NumTrees() int { return len(m.Trees) }

// Save serializes the model as JSON. The paper compiles the model into the
// scheduler binary; we keep an explicit codec so cmd/trainmodel can hand
// models to cmd/lavasim.
func (m *Model) Save(w io.Writer) error {
	return json.NewEncoder(w).Encode(m)
}

// Load deserializes a model written by Save.
func Load(r io.Reader) (*Model, error) {
	var m Model
	if err := json.NewDecoder(r).Decode(&m); err != nil {
		return nil, fmt.Errorf("gbdt: load: %w", err)
	}
	if err := m.Validate(); err != nil {
		return nil, fmt.Errorf("gbdt: load: %w", err)
	}
	return &m, nil
}

// Validate checks the invariants Predict relies on to end without
// panicking: every feature has at most 255 edges (bins fit a uint8), every
// tree is non-empty, every node's Feature is -1 (leaf) or a valid column,
// and every internal node's children lie in the tree at higher indices
// than the node, so each walk moves strictly forward and terminates.
func (m *Model) Validate() error {
	if m.NumFeat <= 0 || len(m.Edges) != m.NumFeat {
		return errors.New("malformed model")
	}
	for f, es := range m.Edges {
		if len(es) > 255 {
			return fmt.Errorf("feature %d has %d bin edges, max 255", f, len(es))
		}
	}
	for ti, t := range m.Trees {
		if len(t.Nodes) == 0 {
			return fmt.Errorf("tree %d is empty", ti)
		}
		for i, nd := range t.Nodes {
			if nd.Feature < -1 || int(nd.Feature) >= m.NumFeat {
				return fmt.Errorf("tree %d node %d: feature %d out of range", ti, i, nd.Feature)
			}
			if nd.Feature == -1 {
				continue
			}
			for _, c := range [2]int16{nd.Left, nd.Right} {
				if int(c) <= i || int(c) >= len(t.Nodes) {
					return fmt.Errorf("tree %d node %d: child %d out of range (%d, %d)", ti, i, c, i, len(t.Nodes))
				}
			}
		}
	}
	return nil
}
