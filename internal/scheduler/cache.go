package scheduler

import (
	"time"

	"lava/internal/cluster"
	"lava/internal/model"
)

// ExitCache computes and caches repredicted host exit times — "the maximum
// of the repredicted remaining VM lifetimes on the host" (§4.2) — with the
// refresh policy of Appendix G.3: a host is re-scored when 1) a VM is added,
// 2) a VM exits, or 3) the cached estimate goes stale past the refresh
// interval. A refresh interval of zero disables caching (always recompute).
//
// A re-score reuses each VM's previous reprediction when the model cannot
// have changed its answer: same VM, same uptime key (model.UptimeKeyOf).
// For the GBDT that is "uptime still in the same bin", which holds for most
// rescans; for other predictors it is "same uptime".
type ExitCache struct {
	Pred    model.Predictor
	Refresh time.Duration

	// hosts is indexed by HostID and grown on demand.
	hosts []hostEntry

	// Predictions counts requested repredictions, the quantity the caching
	// ablation (Fig. 17) and the latency study (Fig. 8) care about. A
	// reprediction served from a VM's previous one still counts: the
	// counter measures the policy's demand on the model, not model work.
	Predictions int64

	// Single-entry memo for the VM being scheduled (see Remaining).
	memoVM  cluster.VMID
	memoNow time.Duration
	memoRem time.Duration
	memoSet bool

	// Re-score buffers: the host's VMs in ID order, and a copy of its
	// previous repredictions while the new ones overwrite them in place.
	vms  []*cluster.VM
	prev []vmRem
}

// hostEntry is one host's slot in the dense column.
type hostEntry struct {
	exit       time.Duration
	computedAt time.Duration
	valid      bool

	// rems are the repredictions of the host's VMs at its last re-score,
	// sorted by VM ID.
	rems []vmRem
}

// vmRem is one VM's last reprediction and the uptime key it was made at.
// The VM is held by pointer so an ID reused by a later VM never inherits
// an exited VM's answer.
type vmRem struct {
	vm  *cluster.VM
	key int64
	rem time.Duration
}

// NewExitCache builds a cache over the given predictor.
func NewExitCache(pred model.Predictor, refresh time.Duration) *ExitCache {
	return &ExitCache{Pred: pred, Refresh: refresh}
}

// entry returns the host's slot, growing the column to cover id.
func (c *ExitCache) entry(id cluster.HostID) *hostEntry {
	if n := int(id) + 1; n > len(c.hosts) {
		c.hosts = append(c.hosts, make([]hostEntry, n-len(c.hosts))...)
	}
	return &c.hosts[id]
}

// HostExit returns the estimated absolute exit time of the host: the time
// at which its last VM is predicted to leave. Empty hosts exit "now".
func (c *ExitCache) HostExit(h *cluster.Host, now time.Duration) time.Duration {
	if h.Empty() {
		return now
	}
	e := c.entry(h.ID)
	if c.Refresh > 0 && e.valid && now-e.computedAt < c.Refresh {
		return e.exit
	}
	exit := c.compute(e, h, now)
	if c.Refresh > 0 {
		e.exit, e.computedAt, e.valid = exit, now, true
	}
	return exit
}

// compute repredicts every VM on the host and takes the max exit. It walks
// the host's VMs and the entry's previous repredictions together in ID
// order, reusing a previous answer whose VM and uptime key match; the new
// list replaces the old, so VMs that left drop out. Each host keeps its own
// buffer, sized by its own VM count.
func (c *ExitCache) compute(e *hostEntry, h *cluster.Host, now time.Duration) time.Duration {
	c.vms = h.AppendVMs(c.vms[:0])
	c.prev = append(c.prev[:0], e.rems...)
	prev, next := c.prev, e.rems[:0]
	max := now
	for _, vm := range c.vms {
		c.Predictions++
		up := vm.Uptime(now)
		key := model.UptimeKeyOf(c.Pred, up)
		for len(prev) > 0 && prev[0].vm.ID < vm.ID {
			prev = prev[1:]
		}
		var rem time.Duration
		if len(prev) > 0 && prev[0].vm == vm && prev[0].key == key {
			rem = prev[0].rem
		} else {
			rem = c.Pred.PredictRemaining(vm, up)
		}
		next = append(next, vmRem{vm: vm, key: key, rem: rem})
		if exit := now + rem; exit > max {
			max = exit
		}
	}
	// Clear the slots past the new list and the copy, so spare buffer
	// space does not keep exited VMs reachable.
	clear(next[len(next):cap(next)])
	clear(c.prev)
	e.rems = next
	return max
}

// Remaining repredicts the VM's remaining lifetime at time now, memoizing
// the result for the duration of a scheduling pass: scorers consult the
// same VM against every candidate host, but the model only needs to run
// once ("we re-score in parallel VMs only on considered hosts", §5).
func (c *ExitCache) Remaining(vm *cluster.VM, now time.Duration) time.Duration {
	if c.memoVM == vm.ID && c.memoNow == now && c.memoSet {
		return c.memoRem
	}
	c.Predictions++
	rem := c.Pred.PredictRemaining(vm, vm.Uptime(now))
	c.memoVM, c.memoNow, c.memoRem, c.memoSet = vm.ID, now, rem, true
	return rem
}

// InitialPrediction returns the VM's uptime-0 prediction, the one-shot
// value policies record in VM.InitialPrediction. A VM placed at its
// creation time was just repredicted at uptime 0 by Remaining, so the memo
// answers; otherwise the model runs. Either way the call is not counted in
// Predictions and leaves the memo as it was.
func (c *ExitCache) InitialPrediction(vm *cluster.VM, now time.Duration) time.Duration {
	if c.memoSet && c.memoVM == vm.ID && c.memoNow == now && vm.Uptime(now) == 0 {
		return c.memoRem
	}
	return c.Pred.PredictRemaining(vm, 0)
}

// PredictVMExit returns the repredicted absolute exit time of a single VM.
func (c *ExitCache) PredictVMExit(vm *cluster.VM, now time.Duration) time.Duration {
	return now + c.Remaining(vm, now)
}

// Invalidate marks the host's cached exit stale (called on VM add/exit and
// on LAVA deadline events). The VMs' repredictions stay for reuse.
func (c *ExitCache) Invalidate(id cluster.HostID) {
	if int(id) < len(c.hosts) {
		c.hosts[id].valid = false
	}
}
