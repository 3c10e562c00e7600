package cluster

import (
	"cmp"
	"fmt"
	"slices"
	"time"

	"lava/internal/resources"
	"lava/internal/simtime"
)

// HostID identifies a host within a pool.
type HostID int32

// HostState is the LAVA host state (§4.3), mirroring LLAMA's page states.
type HostState int

// Host states. Hosts without any VM are StateEmpty; the first placement
// under LAVA opens them; once >=90% full they transition to recycling and
// accept only shorter-lived VMs.
const (
	StateEmpty HostState = iota
	StateOpen
	StateRecycling
)

// String renders the state name.
func (s HostState) String() string {
	switch s {
	case StateEmpty:
		return "empty"
	case StateOpen:
		return "open"
	case StateRecycling:
		return "recycling"
	default:
		return fmt.Sprintf("state(%d)", int(s))
	}
}

// RecyclingThreshold is the occupancy fraction (of CPU or memory) at which
// an open host transitions to recycling (§4.3: "over 90% of the resources").
const RecyclingThreshold = 0.9

// Host is a physical machine. All hosts in a pool share one capacity shape
// (§G.2: "all server host hardware is the same within each pool").
type Host struct {
	ID       HostID
	Capacity resources.Vector

	used resources.Vector
	vms  map[VMID]*VM // lazily allocated on first placement; nil while never used

	// Unavailable marks hosts drained for defragmentation or maintenance;
	// the scheduler skips them (§4.4).
	Unavailable bool

	// LAVA per-host state (§4.3). Class, State and Deadline are maintained
	// by the LAVA policy through the methods below; other policies leave
	// them at their zero values.
	State    HostState
	Class    simtime.LifetimeClass
	Deadline time.Duration // sim time at which the current class expires
	residual map[VMID]bool // residual VMs of the current class epoch; nil when empty
}

// NewHost builds an empty host with the given capacity. The vms and residual
// maps are allocated lazily on first use: at million-host scale most hosts
// are cold for long stretches, and two eager map headers per host dominate
// the resident footprint of an otherwise idle pool. Lookups, deletes and
// ranges over nil maps are safe, so only the insertion paths allocate.
func NewHost(id HostID, capacity resources.Vector) *Host {
	return &Host{ID: id, Capacity: capacity}
}

// Used returns the currently allocated resource vector.
func (h *Host) Used() resources.Vector { return h.used }

// Free returns the currently free resource vector.
func (h *Host) Free() resources.Vector { return h.Capacity.Sub(h.used) }

// NumVMs returns the number of VMs currently on the host.
func (h *Host) NumVMs() int { return len(h.vms) }

// Empty reports whether no VM is running on the host.
func (h *Host) Empty() bool { return len(h.vms) == 0 }

// Fits reports whether a VM of the given shape fits into the free capacity.
func (h *Host) Fits(shape resources.Vector) bool {
	return shape.Fits(h.Free())
}

// VM returns the VM with the given ID, or nil.
func (h *Host) VM(id VMID) *VM { return h.vms[id] }

// VMs returns the hosted VMs sorted by ID. Sorting keeps every consumer
// deterministic; no scheduling decision may depend on map iteration order.
func (h *Host) VMs() []*VM {
	return h.AppendVMs(make([]*VM, 0, len(h.vms)))
}

// AppendVMs appends the hosted VMs to dst in ID order and returns the
// extended slice. It allocates only when dst lacks capacity, so hot paths
// can rescan a host into a reused buffer.
func (h *Host) AppendVMs(dst []*VM) []*VM {
	n := len(dst)
	for _, vm := range h.vms {
		dst = append(dst, vm)
	}
	slices.SortFunc(dst[n:], func(a, b *VM) int { return cmp.Compare(a.ID, b.ID) })
	return dst
}

// add places vm on the host. It returns an error when the shape does not
// fit or the ID is already present. Callers go through Pool.Place.
func (h *Host) add(vm *VM) error {
	if _, ok := h.vms[vm.ID]; ok {
		return fmt.Errorf("host %d: vm %d already present", h.ID, vm.ID)
	}
	if !h.Fits(vm.Shape) {
		return fmt.Errorf("host %d: vm %d (%s) does not fit free %s", h.ID, vm.ID, vm.Shape, h.Free())
	}
	if h.vms == nil {
		h.vms = make(map[VMID]*VM)
	}
	h.vms[vm.ID] = vm
	h.used = h.used.Add(vm.Shape)
	vm.Host = h
	return nil
}

// remove releases vm from the host. Callers go through Pool.Exit/Migrate.
func (h *Host) remove(id VMID) (*VM, error) {
	vm, ok := h.vms[id]
	if !ok {
		return nil, fmt.Errorf("host %d: vm %d not present", h.ID, id)
	}
	delete(h.vms, id)
	delete(h.residual, id)
	h.used = h.used.Sub(vm.Shape)
	vm.Host = nil
	return vm, nil
}

// MaxUtilization returns the max of CPU and memory utilization, the LAVA
// open->recycling trigger quantity.
func (h *Host) MaxUtilization() float64 {
	return resources.MaxUtilization(h.used, h.Capacity)
}

// --- LAVA state machine -------------------------------------------------

// OpenAs transitions an empty host to the open state with the given class,
// setting its misprediction deadline to now + 1.1x the class upper bound.
func (h *Host) OpenAs(class simtime.LifetimeClass, now time.Duration) {
	h.State = StateOpen
	h.Class = class
	h.Deadline = now + class.Deadline()
}

// StartRecycling transitions an open host to recycling. All VMs currently
// present become the residual set (§4.3).
func (h *Host) StartRecycling() {
	h.State = StateRecycling
	h.markAllResidual()
}

// markAllResidual labels every current VM as residual. A host with no VMs
// keeps a nil residual map.
func (h *Host) markAllResidual() {
	if len(h.vms) == 0 {
		h.residual = nil
		return
	}
	h.residual = make(map[VMID]bool, len(h.vms))
	for id := range h.vms {
		h.residual[id] = true
	}
}

// ResidualCount returns the number of residual VMs still running.
func (h *Host) ResidualCount() int { return len(h.residual) }

// IsResidual reports whether the VM is part of the residual set.
func (h *Host) IsResidual(id VMID) bool { return h.residual[id] }

// DemoteClass reduces the host's lifetime class by one after all residual
// VMs exited (Fig. 5b). The remaining VMs become the new residual set and
// the deadline restarts for the new class.
func (h *Host) DemoteClass(now time.Duration) {
	h.Class = h.Class.Dec()
	h.Deadline = now + h.Class.Deadline()
	h.markAllResidual()
}

// PromoteClass bumps the host's lifetime class after a deadline expiry, the
// misprediction-adaptation move (Fig. 5c). All current VMs become residual.
func (h *Host) PromoteClass(now time.Duration) {
	h.Class = h.Class.Inc()
	h.Deadline = now + h.Class.Deadline()
	h.markAllResidual()
}

// ResetLAVA clears all LAVA state; used when a host becomes empty.
func (h *Host) ResetLAVA() {
	h.State = StateEmpty
	h.Class = 0
	h.Deadline = 0
	h.residual = nil
}

// Clone deep-copies the host, including its VM set (VM structs are copied
// shallowly but re-pointed to the clone). Used by the stranding pipeline,
// which packs hypothetical VMs into a copy of the pool (§2.3).
func (h *Host) Clone() *Host {
	c := &Host{
		ID:          h.ID,
		Capacity:    h.Capacity,
		used:        h.used,
		Unavailable: h.Unavailable,
		State:       h.State,
		Class:       h.Class,
		Deadline:    h.Deadline,
	}
	if len(h.vms) > 0 {
		c.vms = make(map[VMID]*VM, len(h.vms))
		for id, vm := range h.vms {
			cp := *vm
			cp.Host = c
			c.vms[id] = &cp
		}
	}
	if len(h.residual) > 0 {
		c.residual = make(map[VMID]bool, len(h.residual))
		for id := range h.residual {
			c.residual[id] = true
		}
	}
	return c
}

func (h *Host) String() string {
	return fmt.Sprintf("host%d[%s %s vms=%d used=%s]", h.ID, h.State, h.Class, len(h.vms), h.used)
}
