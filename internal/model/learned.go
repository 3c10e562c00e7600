package model

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"time"

	"lava/internal/cluster"
	"lava/internal/features"
	"lava/internal/model/cox"
	"lava/internal/model/gbdt"
	"lava/internal/model/km"
	"lava/internal/model/mlp"
	"lava/internal/simtime"
	"lava/internal/trace"
)

// uptimeLog10 encodes an uptime for the model's uptime feature column.
func uptimeLog10(uptime time.Duration) float64 {
	if uptime <= 0 {
		return ZeroUptimeLog10
	}
	return simtime.Log10Hours(uptime)
}

// clampRemaining bounds a model output to [1 minute, cap]. Learned models
// are trained on capped labels (Appendix B), so their outputs should already
// be below the cap; the clamp protects the schedulers from pathological
// extrapolation.
func clampRemaining(d time.Duration) time.Duration {
	if d < time.Minute {
		return time.Minute
	}
	if d > simtime.CapLifetime {
		return simtime.CapLifetime
	}
	return d
}

// --- GBDT ---------------------------------------------------------------

// GBDTPredictor is the production model of the paper: a gradient-boosted
// regression forest over the Table 3 features plus uptime, predicting log10
// remaining hours (§3).
type GBDTPredictor struct {
	Enc *features.Encoder
	M   *gbdt.Model
}

// TrainGBDT trains the production-style model from trace records, using
// the uptime-augmented survival examples of §3.
func TrainGBDT(records []trace.Record, p gbdt.Params) (*GBDTPredictor, error) {
	exs := BuildExamples(records)
	if len(exs) == 0 {
		return nil, fmt.Errorf("model: no training examples")
	}
	enc := features.Fit(exs)
	X := make([][]float64, len(exs))
	y := make([]float64, len(exs))
	for i, ex := range exs {
		x := enc.Encode(ex.F, ex.UptimeLog10)
		X[i] = x[:]
		y[i] = ex.Log10Hours
	}
	m, err := gbdt.Train(X, y, p)
	if err != nil {
		return nil, err
	}
	return &GBDTPredictor{Enc: enc, M: m}, nil
}

// Name implements Predictor.
func (g *GBDTPredictor) Name() string { return "gbdt" }

// PredictRemaining implements Predictor.
func (g *GBDTPredictor) PredictRemaining(vm *cluster.VM, uptime time.Duration) time.Duration {
	x := g.Enc.Encode(vm.Feat, uptimeLog10(uptime))
	logh := g.M.Predict(x[:])
	return clampRemaining(simtime.FromHours(math.Pow(10, logh)))
}

// UptimeKey implements UptimeKeyer: the uptime column's bin. The other
// columns are fixed for a VM, so equal bins reach the same leaves in every
// tree.
func (g *GBDTPredictor) UptimeKey(uptime time.Duration) int64 {
	return int64(g.M.Bin(features.UptimeColumn, uptimeLog10(uptime)))
}

// --- MLP ----------------------------------------------------------------

// MLPPredictor is the neural-network regression baseline of Table 4.
type MLPPredictor struct {
	Enc *features.Encoder
	M   *mlp.Model
}

// TrainMLP trains the neural-network baseline on the same augmented
// examples as the GBDT.
func TrainMLP(records []trace.Record, p mlp.Params) (*MLPPredictor, error) {
	exs := BuildExamples(records)
	if len(exs) == 0 {
		return nil, fmt.Errorf("model: no training examples")
	}
	enc := features.Fit(exs)
	X := make([][]float64, len(exs))
	y := make([]float64, len(exs))
	for i, ex := range exs {
		x := enc.Encode(ex.F, ex.UptimeLog10)
		X[i] = x[:]
		y[i] = ex.Log10Hours
	}
	m, err := mlp.Train(X, y, p)
	if err != nil {
		return nil, err
	}
	return &MLPPredictor{Enc: enc, M: m}, nil
}

// Name implements Predictor.
func (m *MLPPredictor) Name() string { return "mlp" }

// PredictRemaining implements Predictor.
func (m *MLPPredictor) PredictRemaining(vm *cluster.VM, uptime time.Duration) time.Duration {
	x := m.Enc.Encode(vm.Feat, uptimeLog10(uptime))
	logh := m.M.Predict(x[:])
	return clampRemaining(simtime.FromHours(math.Pow(10, logh)))
}

// --- Stratified Kaplan-Meier ----------------------------------------------

// KMPredictor is the stratified Kaplan-Meier lookup-table baseline
// (Table 4, §7).
type KMPredictor struct {
	S   *km.Stratified
	Key func(features.Features) string
}

// TrainKM fits per-stratum KM curves from trace records. Records are
// treated as uncensored (synthetic traces carry complete lifetimes).
func TrainKM(records []trace.Record, key func(features.Features) string) (*KMPredictor, error) {
	if key == nil {
		key = DefaultKey
	}
	obs := make([]km.Observation, len(records))
	strata := make([]string, len(records))
	for i, r := range records {
		obs[i] = km.Observation{Duration: r.Lifetime, Event: true}
		strata[i] = key(r.Feat)
	}
	s, err := km.FitStratified(obs, strata, features.MinCategoryCount)
	if err != nil {
		return nil, err
	}
	return &KMPredictor{S: s, Key: key}, nil
}

// Name implements Predictor.
func (k *KMPredictor) Name() string { return "stratified-km" }

// PredictRemaining implements Predictor via restricted-mean remaining life.
func (k *KMPredictor) PredictRemaining(vm *cluster.VM, uptime time.Duration) time.Duration {
	rem := k.S.ExpRemaining(k.Key(vm.Feat), uptime)
	if rem <= 0 {
		return MinRemaining(uptime)
	}
	return rem
}

// --- Cox proportional hazards -----------------------------------------------

// CoxPredictor is the linear Cox PH baseline of Table 4.
type CoxPredictor struct {
	Enc *features.Encoder
	M   *cox.Model
}

// TrainCox fits the Cox baseline. Unlike the regression models, Cox is a
// native survival model: no uptime augmentation is used, and repredictions
// come from the conditional survival function.
func TrainCox(records []trace.Record, opt cox.Options) (*CoxPredictor, error) {
	exs := make([]features.Example, len(records))
	for i, r := range records {
		lt := r.Lifetime
		if lt > simtime.CapLifetime {
			lt = simtime.CapLifetime
		}
		exs[i] = features.Example{F: r.Feat, Log10Hours: simtime.Log10Hours(lt), UptimeLog10: ZeroUptimeLog10}
	}
	enc := features.Fit(exs)
	subjects := make([]cox.Subject, len(records))
	for i, r := range records {
		x := enc.Encode(r.Feat, ZeroUptimeLog10)
		subjects[i] = cox.Subject{
			X:        x[:],
			Duration: r.Lifetime,
			Event:    true,
		}
	}
	m, err := cox.Fit(subjects, opt)
	if err != nil {
		return nil, err
	}
	return &CoxPredictor{Enc: enc, M: m}, nil
}

// Name implements Predictor.
func (c *CoxPredictor) Name() string { return "linear-cox" }

// PredictRemaining implements Predictor.
func (c *CoxPredictor) PredictRemaining(vm *cluster.VM, uptime time.Duration) time.Duration {
	x := c.Enc.Encode(vm.Feat, ZeroUptimeLog10)
	rem := c.M.ExpRemaining(x[:], uptime)
	if rem <= 0 {
		return MinRemaining(uptime)
	}
	return rem
}

// gbdtBundle serializes a GBDT predictor: model plus its feature encoder.
type gbdtBundle struct {
	Encoder *features.Encoder `json:"encoder"`
	Model   *gbdt.Model       `json:"model"`
}

// Save persists the predictor (model + encoder) as JSON.
func (g *GBDTPredictor) Save(w io.Writer) error {
	return json.NewEncoder(w).Encode(gbdtBundle{Encoder: g.Enc, Model: g.M})
}

// LoadGBDT restores a predictor written by Save.
func LoadGBDT(r io.Reader) (*GBDTPredictor, error) {
	var b gbdtBundle
	if err := json.NewDecoder(r).Decode(&b); err != nil {
		return nil, fmt.Errorf("model: load gbdt: %w", err)
	}
	if b.Encoder == nil || b.Model == nil || b.Model.NumFeat != features.NumColumns {
		return nil, fmt.Errorf("model: load gbdt: malformed bundle")
	}
	if err := b.Model.Validate(); err != nil {
		return nil, fmt.Errorf("model: load gbdt: %w", err)
	}
	return &GBDTPredictor{Enc: b.Encoder, M: b.Model}, nil
}
