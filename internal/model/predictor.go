package model

import (
	"math"
	"math/rand"
	"time"

	"lava/internal/cluster"
	"lava/internal/simtime"
)

// Predictor estimates the remaining lifetime of a VM. Implementations must
// be safe for concurrent use and deterministic given the same inputs: a VM
// and its uptime Tu. PredictRemaining returns E(Tr | Tu) — "given a VM has
// been running for interval Tu, what is the expected remaining lifetime?"
// (§3).
//
// Calling PredictRemaining with uptime 0 yields the initial (schedule-time)
// prediction; subsequent calls with growing uptime are the repredictions
// that distinguish NILAS/LAVA from one-shot approaches.
type Predictor interface {
	Name() string
	PredictRemaining(vm *cluster.VM, uptime time.Duration) time.Duration
}

// UptimeKeyer is an optional Predictor extension that lets callers reuse a
// VM's last reprediction instead of running the model again. Its contract:
// for every VM, two uptimes with equal keys give bit-identical
// PredictRemaining results. A model whose output changes with uptime only
// at discrete points (the GBDT's uptime bin edges) returns the index of the
// interval the uptime falls in.
//
// For a predictor without it, callers key on the uptime in nanoseconds,
// which is exact by the determinism contract above. Wrappers whose output
// is not a function of (VM, uptime-key) alone must not forward it: a
// scenario model swap changes models at a wall-clock boundary inside one
// uptime bin.
type UptimeKeyer interface {
	UptimeKey(uptime time.Duration) int64
}

// UptimeKeyOf returns p's key for uptime: its UptimeKey when p implements
// UptimeKeyer, the uptime in nanoseconds otherwise.
func UptimeKeyOf(p Predictor, uptime time.Duration) int64 {
	if k, ok := p.(UptimeKeyer); ok {
		return k.UptimeKey(uptime)
	}
	return int64(uptime)
}

// MinRemaining is the floor applied to remaining-lifetime predictions. A
// model that believes a VM should already be gone cannot return zero
// forever: the fallback grows with uptime (10% of it) so host exit
// estimates stay finite and monotone, matching the empirical-distribution
// fallback in internal/dist.
func MinRemaining(uptime time.Duration) time.Duration {
	min := time.Duration(float64(uptime) * 0.1)
	if min < time.Minute {
		min = time.Minute
	}
	return min
}

// --- Oracle ---------------------------------------------------------------

// Oracle predicts using ground-truth lifetimes from the trace. It is the
// "oracular predictor" of Fig. 6 / Fig. 16.
type Oracle struct{}

// Name implements Predictor.
func (Oracle) Name() string { return "oracle" }

// PredictRemaining returns the true remaining lifetime.
func (Oracle) PredictRemaining(vm *cluster.VM, uptime time.Duration) time.Duration {
	rem := vm.TrueLifetime - uptime
	if rem <= 0 {
		return MinRemaining(uptime)
	}
	return rem
}

// --- Noisy oracle (Appendix G.1) -------------------------------------------

// NoisyOracle implements the accuracy sweep of Fig. 15: each VM is
// deterministically categorized as correctly predicted (probability =
// Accuracy) or mispredicted, and a Gaussian error in the Log10 domain is
// applied to its lifetime label (sigma 0.001 when correct, 3.0 when not).
// Predictions are capped to [0, 14 days] as in the paper.
//
// The perturbed lifetime is fixed per VM (seeded by VM ID), so repeated
// repredictions are consistent: the noisy oracle models a flawed model, not
// a noisy channel.
type NoisyOracle struct {
	Accuracy     float64 // fraction of VMs predicted correctly, in [0,1]
	Seed         int64
	SigmaCorrect float64 // log10-domain sigma for correct VMs (default 0.001)
	SigmaWrong   float64 // log10-domain sigma for mispredicted VMs (default 3)
}

// Name implements Predictor.
func (n *NoisyOracle) Name() string { return "noisy-oracle" }

// PredictedLifetime returns the perturbed total lifetime for the VM.
func (n *NoisyOracle) PredictedLifetime(vm *cluster.VM) time.Duration {
	rng := rand.New(rand.NewSource(n.Seed ^ int64(vm.ID)*0x5851F42D4C957F2D))
	sigmaC := n.SigmaCorrect
	if sigmaC == 0 {
		sigmaC = 0.001
	}
	sigmaW := n.SigmaWrong
	if sigmaW == 0 {
		sigmaW = 3
	}
	sigma := sigmaW
	if rng.Float64() < n.Accuracy {
		sigma = sigmaC
	}
	logh := simtime.Log10Hours(vm.TrueLifetime) + sigma*rng.NormFloat64()
	d := simtime.FromHours(math.Pow(10, logh))
	const cap = 14 * simtime.Day
	if d > cap {
		d = cap
	}
	if d < time.Second {
		d = time.Second
	}
	return d
}

// PredictRemaining returns perturbed-lifetime minus uptime, floored.
func (n *NoisyOracle) PredictRemaining(vm *cluster.VM, uptime time.Duration) time.Duration {
	rem := n.PredictedLifetime(vm) - uptime
	if rem <= 0 {
		return MinRemaining(uptime)
	}
	return rem
}

// --- Capping wrapper --------------------------------------------------------

// Capped bounds another predictor's output, mirroring the production cap of
// 7 days on lifetime labels (Appendix B).
type Capped struct {
	P   Predictor
	Cap time.Duration // zero means simtime.CapLifetime (168h)
}

// Name implements Predictor.
func (c Capped) Name() string { return c.P.Name() + "-capped" }

// PredictRemaining clamps the wrapped prediction to [0, Cap].
func (c Capped) PredictRemaining(vm *cluster.VM, uptime time.Duration) time.Duration {
	cap := c.Cap
	if cap == 0 {
		cap = simtime.CapLifetime
	}
	rem := c.P.PredictRemaining(vm, uptime)
	if rem > cap {
		return cap
	}
	return rem
}
