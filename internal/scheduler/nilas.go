package scheduler

import (
	"time"

	"lava/internal/cluster"
	"lava/internal/model"
	"lava/internal/simtime"
)

// NILAS is Non-Invasive Lifetime-Aware Scheduling (§4.2): it computes
// ∆T = max(predicted_vm_exit_time − host_exit_time, 0), where the host exit
// time is the maximum of the *repredicted* remaining lifetimes of the VMs
// already on the host, quantizes ∆T into the temporal-cost buckets, and
// inserts that cost one level above the bin packing score. Within a bucket,
// hosts pack by the baseline's waste-minimization criteria — the
// "equivalence classes" of §4.2.
type NILAS struct {
	chain CachedChain
	cache *ExitCache
	et    *epochTemporal // non-nil for the epoch-quantized variant (epoch.go)
}

// NewNILAS builds the NILAS policy over the given predictor. refresh is the
// host-score cache interval of Appendix G.3 (zero disables caching, i.e.
// hosts are re-scored on every request).
//
// On the incremental engine the packing levels are cached by VM shape; the
// temporal cost stays dynamic (it depends on the candidate VM's repredicted
// exit), so it is evaluated on every feasible host exactly as the exhaustive
// path does — including the exit-cache refreshes and model-call counts.
func NewNILAS(pred model.Predictor, refresh time.Duration) *NILAS {
	n := &NILAS{cache: NewExitCache(pred, refresh)}
	n.chain = CachedChain{Chain: Chain{ChainName: "nilas", Scorers: append([]Scorer{
		ScorerFunc{FuncName: "temporal-cost", F: n.temporalCost},
	}, nilasPackingScorers()...)}, Dynamic: []bool{true}}
	return n
}

// SetEngine switches the policy between the incremental and exhaustive
// scoring engines (see CachedChain).
func (n *NILAS) SetEngine(e Engine) { n.chain.SetEngine(e) }

func (n *NILAS) engineOf() Engine { return n.chain.engine }

func (n *NILAS) cacheWork() CacheWork { return n.chain.work }

// EnableTrace implements Traceable (see Chain.EnableTrace).
func (n *NILAS) EnableTrace(k int) { n.chain.EnableTrace(k) }

// LastCapture implements Traceable.
func (n *NILAS) LastCapture() *Capture { return n.chain.LastCapture() }

// AppendLevelScores implements the counterfactual pricing hook (see
// Chain.AppendLevelScores).
func (n *NILAS) AppendLevelScores(dst []float64, h *cluster.Host, vm *cluster.VM, now time.Duration) []float64 {
	return n.chain.AppendLevelScores(dst, h, vm, now)
}

// alignment scores hosts by how *similar* their exit is to the VM's,
// quantized with the temporal-cost buckets. It is not part of the default
// chain: under noisy model predictions, preferring exact exit matches
// amplifies prediction error, and in our studies the minimal chain
// (temporal cost straight above the packing scores, as §4.2 describes)
// packs better. WithAlignment exposes it for ablations.
func (n *NILAS) alignment(h *cluster.Host, vm *cluster.VM, now time.Duration) float64 {
	if h.Empty() {
		// No alignment information; sort after perfectly aligned hosts but
		// let the bucket structure below decide against occupied hosts
		// with huge slack.
		return float64(len(simtime.TemporalCostBuckets))
	}
	vmExit := n.cache.PredictVMExit(vm, now)
	hostExit := n.cache.HostExit(h, now)
	slack := hostExit - vmExit
	if slack < 0 {
		slack = 0
	}
	return float64(simtime.TemporalCost(slack))
}

// nilasPackingScorers are the bin-packing levels below the temporal cost:
// concentrate within an equivalence class (best fit) before shaping the
// leftover (waste-min) — concentration is what lets lifetime-aligned hosts
// drain as a unit.
func nilasPackingScorers() []Scorer {
	return []Scorer{AvoidEmptyScorer(), BestFitScorer(), WasteMinScorer()}
}

// temporalCost computes the quantized NILAS score for placing vm on h.
func (n *NILAS) temporalCost(h *cluster.Host, vm *cluster.VM, now time.Duration) float64 {
	vmExit := n.cache.PredictVMExit(vm, now)
	hostExit := n.cache.HostExit(h, now)
	deltaT := vmExit - hostExit
	if deltaT < 0 {
		deltaT = 0
	}
	return float64(simtime.TemporalCost(deltaT))
}

// Name implements Policy ("nilas", or "nilas-epoch" for the quantized
// variant).
func (n *NILAS) Name() string { return n.chain.ChainName }

// Schedule implements Policy.
func (n *NILAS) Schedule(pool *cluster.Pool, vm *cluster.VM, now time.Duration) (*cluster.Host, error) {
	if n.et != nil {
		// Epoch variant: classify the VM up front on both engines. The
		// cached engine needs the quantized remaining lifetime for its
		// context key; warming the memoized reprediction here keeps the
		// exhaustive engine's model-call count identical even when a single
		// feasible host lets the chain skip scoring entirely.
		n.cache.Remaining(vm, now)
	}
	return n.chain.Schedule(pool, vm, now)
}

// OnPlaced implements Policy: re-score the host (G.3 rule 1) and record the
// initial prediction for diagnostics.
func (n *NILAS) OnPlaced(_ *cluster.Pool, h *cluster.Host, vm *cluster.VM, now time.Duration) {
	if vm.InitialPrediction == 0 {
		vm.InitialPrediction = n.cache.InitialPrediction(vm, now)
	}
	n.cache.Invalidate(h.ID)
	if n.et != nil {
		n.et.onPlaced(h, vm, now)
	}
}

// OnExited implements Policy: re-score the host (G.3 rule 2).
func (n *NILAS) OnExited(_ *cluster.Pool, h *cluster.Host, _ *cluster.VM, _ time.Duration) {
	n.cache.Invalidate(h.ID)
	if n.et != nil {
		n.et.onExited(h)
	}
}

// OnTick implements Policy (no-op; cache staleness is handled on read).
func (n *NILAS) OnTick(*cluster.Pool, time.Duration) {}

// ModelCalls reports predictor invocations (Fig. 17 telemetry).
func (n *NILAS) ModelCalls() int64 { return n.cache.Predictions }

// Cache exposes the exit cache for ablation studies.
func (n *NILAS) Cache() *ExitCache { return n.cache }

// WithAlignment returns a copy of the policy with an extra exit-alignment
// level between the temporal cost and the packing scores. Used by ablation
// studies (see the alignment doc comment for why it is not the default).
func (n *NILAS) WithAlignment() *NILAS {
	out := &NILAS{cache: n.cache}
	out.chain = CachedChain{Chain: Chain{ChainName: "nilas-aligned", Scorers: append([]Scorer{
		ScorerFunc{FuncName: "temporal-cost", F: out.temporalCost},
		ScorerFunc{FuncName: "exit-alignment", F: out.alignment},
	}, nilasPackingScorers()...)}, Dynamic: []bool{true, true}}
	return out
}
