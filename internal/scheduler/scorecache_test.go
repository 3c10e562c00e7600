package scheduler

import (
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"lava/internal/cluster"
	"lava/internal/model"
	"lava/internal/resources"
)

// twin is one side of a differential run: its own pool and its own policy
// instance, fed the identical operation stream as its sibling. VM structs
// are never shared between twins (policies mutate InitialPrediction and the
// pool sets the Host back-pointer).
type twin struct {
	p   *cluster.Pool
	pol Policy
}

func newTwin(hosts int, mk func() Policy, engine Engine) *twin {
	tw := &twin{p: cluster.NewPool("twin", hosts, resources.Cores(16, 16*4096, 0)), pol: mk()}
	SetEngine(tw.pol, engine)
	return tw
}

func (tw *twin) vm(id cluster.VMID, cores int64, created, life time.Duration) *cluster.VM {
	return &cluster.VM{ID: id, Shape: resources.Cores(cores, cores*4096, 0), Created: created, TrueLifetime: life}
}

// cachedPolicies are the policies ported onto the incremental engine,
// including the rollout wrapper.
func cachedPolicies() map[string]func() Policy {
	return map[string]func() Policy{
		"wastemin":  func() Policy { return NewWasteMin() },
		"bestfit":   func() Policy { return NewBestFit() },
		"la-binary": func() Policy { return NewLABinary(model.Oracle{}) },
		"nilas":     func() Policy { return NewNILAS(model.Oracle{}, time.Minute) },
		"lava":      func() Policy { return NewLAVA(model.Oracle{}, time.Minute) },
		"nilas-epoch": func() Policy {
			return NewNILASEpoch(model.Oracle{}, time.Minute, DefaultEpoch)
		},
		"lava-epoch": func() Policy {
			return NewLAVAEpoch(model.Oracle{}, time.Minute, DefaultEpoch)
		},
		"rollout": func() Policy {
			return NewSwitched(NewWasteMin(), NewLAVA(model.Oracle{}, time.Minute), 20*time.Hour)
		},
	}
}

// TestCachedMatchesExhaustiveRandom is the scheduler-level differential
// property: the incremental engine and the exhaustive reference, driven
// with an identical random stream of arrivals, exits, migrations, host
// withdrawals and ticks, must make bit-identical decisions at every step.
func TestCachedMatchesExhaustiveRandom(t *testing.T) {
	for name, mk := range cachedPolicies() {
		name, mk := name, mk
		t.Run(name, func(t *testing.T) {
			f := func(seed int64) bool {
				rng := rand.New(rand.NewSource(seed))
				const hosts = 8
				a := newTwin(hosts, mk, EngineCached)
				b := newTwin(hosts, mk, EngineExhaustive)
				var live []cluster.VMID
				vms := map[cluster.VMID][2]*cluster.VM{}
				now := time.Duration(0)
				for step := 0; step < 160; step++ {
					now += time.Duration(rng.Intn(45)) * time.Minute
					a.pol.OnTick(a.p, now)
					b.pol.OnTick(b.p, now)
					switch r := rng.Float64(); {
					case r < 0.55 || len(live) == 0: // arrival
						id := cluster.VMID(100000*seed + int64(step))
						cores := int64(1 + rng.Intn(8))
						life := time.Duration(1+rng.Intn(200)) * time.Hour
						va := a.vm(id, cores, now, life)
						vb := b.vm(id, cores, now, life)
						ha, errA := a.pol.Schedule(a.p, va, now)
						hb, errB := b.pol.Schedule(b.p, vb, now)
						if (errA == nil) != (errB == nil) {
							t.Logf("step %d: error divergence: cached=%v exhaustive=%v", step, errA, errB)
							return false
						}
						if errA != nil {
							continue
						}
						if ha.ID != hb.ID {
							t.Logf("step %d: cached picked host %d, exhaustive host %d", step, ha.ID, hb.ID)
							return false
						}
						if err := a.p.Place(va, ha); err != nil {
							t.Fatal(err)
						}
						if err := b.p.Place(vb, hb); err != nil {
							t.Fatal(err)
						}
						a.pol.OnPlaced(a.p, ha, va, now)
						b.pol.OnPlaced(b.p, hb, vb, now)
						live = append(live, id)
						vms[id] = [2]*cluster.VM{va, vb}
					case r < 0.85: // exit
						i := rng.Intn(len(live))
						id := live[i]
						live = append(live[:i], live[i+1:]...)
						pair := vms[id]
						delete(vms, id)
						hha, _, err := a.p.Exit(id)
						if err != nil {
							t.Fatal(err)
						}
						hhb, _, err := b.p.Exit(id)
						if err != nil {
							t.Fatal(err)
						}
						a.pol.OnExited(a.p, hha, pair[0], now)
						b.pol.OnExited(b.p, hhb, pair[1], now)
					case r < 0.93: // migration (defrag-style: hooks on both ends)
						if len(live) == 0 {
							continue
						}
						id := live[rng.Intn(len(live))]
						pair := vms[id]
						dst := cluster.HostID(rng.Intn(hosts))
						srcA := a.p.HostOf(id)
						if srcA == nil || srcA.ID == dst || !a.p.Host(dst).Fits(pair[0].Shape) || a.p.Host(dst).Unavailable {
							continue
						}
						if _, err := a.p.Migrate(id, a.p.Host(dst)); err != nil {
							t.Fatal(err)
						}
						if _, err := b.p.Migrate(id, b.p.Host(dst)); err != nil {
							t.Fatal(err)
						}
						a.pol.OnExited(a.p, srcA, pair[0], now)
						b.pol.OnExited(b.p, b.p.Host(srcA.ID), pair[1], now)
						a.pol.OnPlaced(a.p, a.p.Host(dst), pair[0], now)
						b.pol.OnPlaced(b.p, b.p.Host(dst), pair[1], now)
					default: // withdraw/restore a host out of band
						id := cluster.HostID(rng.Intn(hosts))
						fl := !a.p.Host(id).Unavailable
						a.p.Host(id).Unavailable = fl
						a.p.InvalidateHost(id)
						b.p.Host(id).Unavailable = fl
						b.p.InvalidateHost(id)
					}
				}
				return true
			}
			if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestScoreCacheExitThenReplaceSameTick covers the tightest invalidation
// window: a VM exits a host and the very next placement, at the same
// simulated instant, must see the freed capacity and the changed scores.
func TestScoreCacheExitThenReplaceSameTick(t *testing.T) {
	p := cluster.NewPool("t", 2, resources.Cores(16, 16*4096, 0))
	pol := NewWasteMin()
	now := time.Hour

	// Fill host 0 completely, host 1 partially; warm the cache.
	fill := &cluster.VM{ID: 1, Shape: resources.Cores(16, 16*4096, 0), Created: 0, TrueLifetime: 10 * time.Hour}
	if err := p.Place(fill, p.Host(0)); err != nil {
		t.Fatal(err)
	}
	small := &cluster.VM{ID: 2, Shape: resources.Cores(2, 2*4096, 0), Created: 0, TrueLifetime: 10 * time.Hour}
	if err := p.Place(small, p.Host(1)); err != nil {
		t.Fatal(err)
	}
	probe := &cluster.VM{ID: 3, Shape: resources.Cores(4, 4*4096, 0), Created: now, TrueLifetime: time.Hour}
	h, err := pol.Schedule(p, probe, now)
	if err != nil || h.ID != 1 {
		t.Fatalf("warm-up schedule = %v, %v; want host 1 (host 0 is full)", h, err)
	}

	// Exit the full host's VM and immediately re-schedule at the same tick:
	// host 0 is now feasible and non-empty... no — it became empty, so the
	// avoid-empty level must still prefer host 1. Then exit host 1's VM too
	// and the cache must flip the preference to pure tie-break.
	if _, _, err := p.Exit(1); err != nil {
		t.Fatal(err)
	}
	h, err = pol.Schedule(p, probe, now)
	if err != nil || h.ID != 1 {
		t.Fatalf("after exit: schedule = %v, %v; want non-empty host 1", h, err)
	}
	if _, _, err := p.Exit(2); err != nil {
		t.Fatal(err)
	}
	h, err = pol.Schedule(p, probe, now)
	if err != nil || h.ID != 0 {
		t.Fatalf("all empty: schedule = %v, %v; want lowest-ID host 0", h, err)
	}

	// Replace on the same host in the same tick: place back onto host 0 and
	// the next decision must treat it as non-empty again.
	if err := p.Place(&cluster.VM{ID: 4, Shape: resources.Cores(2, 2*4096, 0), Created: now, TrueLifetime: time.Hour}, p.Host(0)); err != nil {
		t.Fatal(err)
	}
	h, err = pol.Schedule(p, probe, now)
	if err != nil || h.ID != 0 {
		t.Fatalf("after replace: schedule = %v, %v; want non-empty host 0", h, err)
	}
}

// TestScoreCacheRecyclingInvalidation drives a LAVA host through the
// open -> recycling transition (which happens inside OnPlaced, after the
// pool event fired) and checks the cached class scores re-bucket the host.
func TestScoreCacheRecyclingInvalidation(t *testing.T) {
	l := NewLAVA(model.Oracle{}, time.Minute)
	p := cluster.NewPool("t", 3, resources.Cores(16, 16*4096, 0))

	// Open host 0 with a long (LC3) VM, then pack it past 90%: it recycles.
	longVM := &cluster.VM{ID: 1, Shape: resources.Cores(8, 8*4096, 0), Created: 0, TrueLifetime: 50 * time.Hour}
	h, err := l.Schedule(p, longVM, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Place(longVM, h); err != nil {
		t.Fatal(err)
	}
	l.OnPlaced(p, h, longVM, 0)
	big := &cluster.VM{ID: 2, Shape: resources.Cores(7, 7*4096, 0), Created: 0, TrueLifetime: 50 * time.Hour}
	hb, err := l.Schedule(p, big, 0)
	if err != nil {
		t.Fatal(err)
	}
	if hb.ID != h.ID {
		t.Fatalf("second long VM on host %d, want co-located on %d", hb.ID, h.ID)
	}
	if err := p.Place(big, hb); err != nil {
		t.Fatal(err)
	}
	l.OnPlaced(p, hb, big, 0)
	if h.State != cluster.StateRecycling {
		t.Fatalf("host state = %v, want recycling at >=90%%", h.State)
	}

	// A short (LC1) VM must now prefer the recycling higher-class host over
	// opening a fresh one (Algorithm 3 level 1) — that preference is only
	// visible if the cache saw the recycling transition.
	short := &cluster.VM{ID: 3, Shape: resources.Cores(1, 4096, 0), Created: 0, TrueLifetime: 30 * time.Minute}
	hs, err := l.Schedule(p, short, 0)
	if err != nil {
		t.Fatal(err)
	}
	if hs.ID != h.ID {
		t.Fatalf("short filler on host %d, want recycling host %d", hs.ID, h.ID)
	}
}

// TestScoreCacheMigrationInvalidation checks Pool.Migrate dirties both ends:
// best-fit scores must reflect the moved load on the next decision.
func TestScoreCacheMigrationInvalidation(t *testing.T) {
	p := cluster.NewPool("t", 3, resources.Cores(16, 16*4096, 0))
	pol := NewBestFit()
	v1 := &cluster.VM{ID: 1, Shape: resources.Cores(4, 4*4096, 0), Created: 0, TrueLifetime: time.Hour}
	v2 := &cluster.VM{ID: 2, Shape: resources.Cores(8, 8*4096, 0), Created: 0, TrueLifetime: time.Hour}
	if err := p.Place(v1, p.Host(0)); err != nil {
		t.Fatal(err)
	}
	if err := p.Place(v2, p.Host(1)); err != nil {
		t.Fatal(err)
	}
	probe := &cluster.VM{ID: 3, Shape: resources.Cores(2, 2*4096, 0), Created: 0, TrueLifetime: time.Hour}
	h, err := pol.Schedule(p, probe, 0)
	if err != nil || h.ID != 1 {
		t.Fatalf("schedule = %v, %v; want fullest host 1", h, err)
	}
	// Move the big VM to host 2: fullest flips from 1 to 2.
	if _, err := p.Migrate(2, p.Host(2)); err != nil {
		t.Fatal(err)
	}
	h, err = pol.Schedule(p, probe, 0)
	if err != nil || h.ID != 2 {
		t.Fatalf("after migrate: schedule = %v, %v; want new fullest host 2", h, err)
	}
}

// TestScoreCacheUnavailableInvalidation checks the explicit InvalidateHost
// escape hatch: out-of-band availability flips enter the cached feasible
// set only through it.
func TestScoreCacheUnavailableInvalidation(t *testing.T) {
	p := cluster.NewPool("t", 2, resources.Cores(16, 16*4096, 0))
	pol := NewWasteMin()
	probe := &cluster.VM{ID: 1, Shape: resources.Cores(2, 2*4096, 0), Created: 0, TrueLifetime: time.Hour}
	if h, err := pol.Schedule(p, probe, 0); err != nil || h.ID != 0 {
		t.Fatalf("schedule = %v, %v; want host 0", h, err)
	}
	p.Host(0).Unavailable = true
	p.InvalidateHost(0)
	if h, err := pol.Schedule(p, probe, 0); err != nil || h.ID != 1 {
		t.Fatalf("withdrawn: schedule = %v, %v; want host 1", h, err)
	}
	p.Host(0).Unavailable = false
	p.InvalidateHost(0)
	if h, err := pol.Schedule(p, probe, 0); err != nil || h.ID != 0 {
		t.Fatalf("restored: schedule = %v, %v; want host 0", h, err)
	}
}

// TestDirtyAllRebuild checks the coarse invalidation hammer: after direct
// host mutations with no events at all, DirtyAll alone must resynchronize
// every context.
func TestDirtyAllRebuild(t *testing.T) {
	p := cluster.NewPool("t", 2, resources.Cores(16, 16*4096, 0))
	pol := NewWasteMin().(*CachedChain)
	probe := &cluster.VM{ID: 1, Shape: resources.Cores(2, 2*4096, 0), Created: 0, TrueLifetime: time.Hour}
	if h, err := pol.Schedule(p, probe, 0); err != nil || h.ID != 0 {
		t.Fatalf("schedule = %v, %v; want host 0", h, err)
	}
	p.Host(0).Unavailable = true // silent mutation: no event published
	pol.DirtyAll()
	if h, err := pol.Schedule(p, probe, 0); err != nil || h.ID != 1 {
		t.Fatalf("after DirtyAll: schedule = %v, %v; want host 1", h, err)
	}
}

// TestEngineSwitchAndReporting exercises SetEngine/EngineOf across the
// policy surface, including releasing the cache and rebinding.
func TestEngineSwitchAndReporting(t *testing.T) {
	p := cluster.NewPool("t", 4, resources.Cores(16, 16*4096, 0))
	pol := NewLAVA(model.Oracle{}, time.Minute)
	if EngineOf(pol) != EngineCached {
		t.Fatalf("default engine = %v, want EngineCached", EngineOf(pol))
	}
	probe := &cluster.VM{ID: 1, Shape: resources.Cores(2, 2*4096, 0), Created: 0, TrueLifetime: time.Hour}
	h1, err := pol.Schedule(p, probe, 0)
	if err != nil {
		t.Fatal(err)
	}
	SetEngine(pol, EngineExhaustive)
	if EngineOf(pol) != EngineExhaustive {
		t.Fatalf("engine after switch = %v, want EngineExhaustive", EngineOf(pol))
	}
	h2, err := pol.Schedule(p, probe, 0)
	if err != nil {
		t.Fatal(err)
	}
	if h1.ID != h2.ID {
		t.Fatalf("engines disagree: cached host %d, exhaustive host %d", h1.ID, h2.ID)
	}
	SetEngine(pol, EngineCached)
	h3, err := pol.Schedule(p, probe, 0)
	if err != nil {
		t.Fatal(err)
	}
	if h3.ID != h1.ID {
		t.Fatalf("rebound cache host %d, want %d", h3.ID, h1.ID)
	}
	// Plain chains have no switch and report the exhaustive engine.
	if e := EngineOf(&Chain{ChainName: "custom"}); e != EngineExhaustive {
		t.Fatalf("plain chain engine = %v, want EngineExhaustive", e)
	}
}

// TestCachedContextEviction schedules more distinct shapes than the context
// cap and verifies decisions stay correct after evicted contexts return.
func TestCachedContextEviction(t *testing.T) {
	p := cluster.NewPool("t", 4, resources.Cores(64, 64*4096, 0))
	pol := NewWasteMin()
	anchor := &cluster.VM{ID: 1, Shape: resources.Cores(2, 2*4096, 0), Created: 0, TrueLifetime: time.Hour}
	if err := p.Place(anchor, p.Host(2)); err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 2; round++ {
		for i := 0; i < maxCachedContexts+8; i++ {
			shape := resources.Vector{CPUMilli: int64(1000 + i), MemoryMB: 4096}
			probe := &cluster.VM{ID: cluster.VMID(100 + i), Shape: shape, Created: 0, TrueLifetime: time.Hour}
			h, err := pol.Schedule(p, probe, 0)
			if err != nil {
				t.Fatal(err)
			}
			if h.ID != 2 {
				t.Fatalf("round %d shape %d: host %d, want non-empty host 2", round, i, h.ID)
			}
		}
	}
}

// replayCacheWork drives one policy on the cached engine through a fixed
// arrival/exit stream spanning about 12h of virtual time (six DefaultEpoch
// boundaries) and returns its score-cache work counters. The stream does
// not depend on the policy's decisions, and the pool is large enough that
// no arrival fails, so every policy sees the same VMs at the same times.
func replayCacheWork(t *testing.T, mk func() Policy) CacheWork {
	t.Helper()
	rng := rand.New(rand.NewSource(7))
	tw := newTwin(48, mk, EngineCached)
	// One lifetime per LAVA class, so every class context occurs.
	lives := []time.Duration{20 * time.Minute, 3 * time.Hour, 30 * time.Hour, 300 * time.Hour}
	var live []cluster.VMID
	now := time.Duration(0)
	for step := 0; step < 600; step++ {
		now += time.Duration(1+rng.Intn(2)) * time.Minute
		tw.pol.OnTick(tw.p, now)
		if rng.Float64() < 0.4 && len(live) > 0 {
			i := rng.Intn(len(live))
			h, vm, err := tw.p.Exit(live[i])
			if err != nil {
				t.Fatal(err)
			}
			live = append(live[:i], live[i+1:]...)
			tw.pol.OnExited(tw.p, h, vm, now)
			continue
		}
		vm := tw.vm(cluster.VMID(step+1), int64(1+rng.Intn(4)), now, lives[rng.Intn(len(lives))])
		h, err := tw.pol.Schedule(tw.p, vm, now)
		if err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		if err := tw.p.Place(vm, h); err != nil {
			t.Fatal(err)
		}
		tw.pol.OnPlaced(tw.p, h, vm, now)
		live = append(live, vm.ID)
	}
	if n := now / DefaultEpoch; n < 3 {
		t.Fatalf("stream crossed %d epoch boundaries, want >= 3", n)
	}
	return CacheWorkOf(tw.pol)
}

// TestEpochRolloverWork pins where the epoch variants pay for their
// quantization. LAVA-epoch scores its temporal level dynamically inside the
// winning class bucket, so a rollover must invalidate nothing: it rebuilds
// each context exactly once, when the context is created, and creates the
// same (shape, class) contexts as exact LAVA. NILAS-epoch keys its buckets
// by the epoch score and must still rebuild at rollovers.
func TestEpochRolloverWork(t *testing.T) {
	pols := cachedPolicies()
	lava := replayCacheWork(t, pols["lava"])
	lavaEpoch := replayCacheWork(t, pols["lava-epoch"])
	nilasEpoch := replayCacheWork(t, pols["nilas-epoch"])
	t.Logf("lava %+v", lava)
	t.Logf("lava-epoch %+v", lavaEpoch)
	t.Logf("nilas-epoch %+v", nilasEpoch)
	if lava.Contexts == 0 || lava.Rebuilds != lava.Contexts {
		t.Fatalf("lava: %d rebuilds for %d contexts, want one per context", lava.Rebuilds, lava.Contexts)
	}
	if lavaEpoch.Rebuilds != lavaEpoch.Contexts {
		t.Fatalf("lava-epoch: %d rebuilds for %d contexts, want one per context (no rollover rebuilds)",
			lavaEpoch.Rebuilds, lavaEpoch.Contexts)
	}
	if lavaEpoch.Contexts != lava.Contexts {
		t.Fatalf("lava-epoch created %d contexts, lava %d; want the same (shape, class) keys",
			lavaEpoch.Contexts, lava.Contexts)
	}
	if nilasEpoch.Rebuilds <= nilasEpoch.Contexts {
		t.Fatalf("nilas-epoch: %d rebuilds for %d contexts, want rollover rebuilds on top",
			nilasEpoch.Rebuilds, nilasEpoch.Contexts)
	}
	if lavaEpoch.DirtyHosts == 0 || lavaEpoch.RebuildHosts == 0 {
		t.Fatalf("lava-epoch counted no rescoring work: %+v", lavaEpoch)
	}
}

// TestWasteMinScoreAllocs keeps the waste-min level, which every cached
// policy evaluates once per rescored host, allocation-free.
func TestWasteMinScoreAllocs(t *testing.T) {
	p := cluster.NewPool("t", 1, resources.Cores(16, 16*4096, 0))
	vm := &cluster.VM{ID: 1, Shape: resources.Cores(3, 5000, 0), TrueLifetime: time.Hour}
	s, h := WasteMinScorer(), p.Host(0)
	if n := testing.AllocsPerRun(100, func() { s.Score(h, vm, 0) }); n != 0 {
		t.Fatalf("WasteMinScorer().Score allocates %v objects per call, want 0", n)
	}
}
