package scheduler

import (
	"time"

	"lava/internal/cluster"
	"lava/internal/model"
	"lava/internal/simtime"
)

// This file implements the epoch-quantized temporal-cost level and the
// NILAS/LAVA variants built on it. The motivation is scale: the exact
// temporal cost depends on the candidate VM's repredicted exit *and* the
// continuously moving clock, so the incremental engine must keep it Dynamic
// — re-evaluated on every feasible host of every placement, O(feasible
// hosts) per decision. At 250k–1M hosts that term dominates and per-decision
// latency grows linearly with the pool again, which is exactly what the
// score cache exists to prevent.
//
// The epoch variants trade bucket-boundary precision for cacheability:
// virtual time is quantized into fixed epochs (1–2h, comparable to the
// coarser temporal-cost buckets), and within an epoch the temporal score is
// a pure function of (host exit estimate, VM remaining-lifetime bucket).
// How the incremental engine exploits that depends on where the level sits
// in the chain:
//
//   - NILAS-epoch: the temporal level is level 0, the bucket key. It is
//     static: the engine caches it per (shape, remaining-lifetime bucket)
//     context like the packing levels, re-scoring a host only when a
//     placement or exit dirties it, and invalidates everything at once when
//     the clock crosses an epoch boundary (CachedChain.Epoch). The dynamic-
//     level full scan is gone; the rollover rebuild is the price.
//   - LAVA-epoch: the class level decides first and the temporal level only
//     breaks ties inside the winning class bucket, exactly like exact LAVA.
//     The temporal level is therefore Dynamic under a static class level,
//     evaluated on the winning bucket only, and the context is (shape, LAVA
//     class). Nothing cached depends on the epoch, so rollovers invalidate
//     nothing. What the quantization still buys here is an O(1) score per
//     candidate: the host estimate is a running max instead of ExitCache's
//     rescan of the host's VMs.
//
// Equivalence between engines is the usual structural argument: both run
// the same scorer over the same candidates, the host-exit estimates are
// maintained by the policy hooks (which fire identically on both engines),
// and the memoized reprediction is pre-warmed once per Schedule so model-
// call counts match. The epoch variants are NOT placement-identical to
// exact NILAS/LAVA — quantization moves some decisions across bucket
// boundaries — they are separate, coarser policies with the same structure,
// each bit-reproducible and engine-identical in its own right.

// DefaultEpoch is the default temporal quantization step of the epoch
// policy variants: two hours, the same order as the mid-range temporal-cost
// bucket widths, so quantization noise stays within about one bucket.
const DefaultEpoch = 2 * time.Hour

// epochTemporal computes the epoch-quantized temporal cost. It maintains
// its own conservative host-exit estimate — the running max over the
// repredicted exits of the VMs placed on the host, reset when the host
// drains — instead of ExitCache's rescan, so scoring never repredicts
// hosted VMs and stays O(1) per host.
type epochTemporal struct {
	cache *ExitCache
	epoch time.Duration
	exits []time.Duration // dense by HostID: max predicted exit of placed VMs
}

func (e *epochTemporal) grow(id cluster.HostID) {
	for int(id) >= len(e.exits) {
		e.exits = append(e.exits, 0)
	}
}

// onPlaced folds the placed VM's predicted exit into the host estimate. The
// reprediction is memoized from the scheduling pass that chose the host, so
// this adds no model calls on either engine.
func (e *epochTemporal) onPlaced(h *cluster.Host, vm *cluster.VM, now time.Duration) {
	e.grow(h.ID)
	if exit := now + e.cache.Remaining(vm, now); exit > e.exits[h.ID] {
		e.exits[h.ID] = exit
	}
}

// onExited resets the estimate when the host drains. Partial exits keep the
// running max: it is an upper bound by construction, and recomputing the
// true max would repredict every remaining VM — the O(VMs) cost this level
// exists to avoid.
func (e *epochTemporal) onExited(h *cluster.Host) {
	if h.Empty() {
		e.grow(h.ID)
		e.exits[h.ID] = 0
	}
}

// score is the epoch-quantized temporal cost: both exit times are snapped
// onto the epoch grid before the NILAS ∆T bucketing. Within one epoch the
// result depends only on the host's exit estimate and the VM's quantized
// remaining lifetime, which is what lets NILAS-epoch cache it as a static
// level keyed by that bucket; CachedChain.Epoch triggers the full
// invalidation when now crosses an epoch boundary. LAVA-epoch evaluates it
// as a dynamic level.
func (e *epochTemporal) score(h *cluster.Host, vm *cluster.VM, now time.Duration) float64 {
	es := now - now%e.epoch // epoch start
	hx := es                // empty or already-drained hosts exit "now", floored to the grid
	if int(h.ID) < len(e.exits) && e.exits[h.ID] > es {
		hx = e.exits[h.ID]
	}
	qv := simtime.TemporalCost(e.cache.Remaining(vm, now))
	vmExit := es + simtime.TemporalCostBuckets[qv]
	deltaT := vmExit - hx
	if deltaT < 0 {
		deltaT = 0
	}
	return float64(simtime.TemporalCost(deltaT))
}

// NewNILASEpoch builds the epoch-quantized NILAS variant: the same scorer
// chain shape as NewNILAS, with the exact temporal cost replaced by the
// epoch-quantized level above. Every level is static, so the incremental
// engine serves whole decisions from cache and rebuilds each context once
// per epoch; epoch is the quantization step (DefaultEpoch when zero).
func NewNILASEpoch(pred model.Predictor, refresh, epoch time.Duration) *NILAS {
	if epoch <= 0 {
		epoch = DefaultEpoch
	}
	n := &NILAS{cache: NewExitCache(pred, refresh)}
	n.et = &epochTemporal{cache: n.cache, epoch: epoch}
	n.chain = CachedChain{Chain: Chain{ChainName: "nilas-epoch", Scorers: append([]Scorer{
		ScorerFunc{FuncName: "temporal-epoch", F: n.et.score},
	}, nilasPackingScorers()...)},
		ClassOf: func(vm *cluster.VM, now time.Duration) int32 {
			return int32(simtime.TemporalCost(n.cache.Remaining(vm, now)))
		},
		Epoch: epoch,
	}
	return n
}

// NewLAVAEpoch builds the epoch-quantized LAVA variant: class preference
// and packing levels as in NewLAVA, temporal tie-break through the epoch
// grid. As in NewLAVA the temporal level is dynamic and the cache context is
// (shape, LAVA class): the class level decides first, so the epoch score is
// only ever evaluated on the winning class bucket, and an epoch rollover
// leaves every cached level valid.
func NewLAVAEpoch(pred model.Predictor, refresh, epoch time.Duration) *LAVA {
	if epoch <= 0 {
		epoch = DefaultEpoch
	}
	l := &LAVA{cache: NewExitCache(pred, refresh)}
	l.et = &epochTemporal{cache: l.cache, epoch: epoch}
	l.chain = CachedChain{Chain: Chain{ChainName: "lava-epoch", Scorers: append([]Scorer{
		ScorerFunc{FuncName: "lava-class", F: l.classScore},
		ScorerFunc{FuncName: "temporal-epoch", F: l.et.score},
	}, nilasPackingScorers()...)},
		Dynamic: []bool{false, true},
		ClassOf: func(vm *cluster.VM, now time.Duration) int32 { return int32(l.vmClass(vm, now)) },
	}
	return l
}
