package scheduler

import (
	"sort"
	"time"

	"lava/internal/cluster"
	"lava/internal/resources"
)

// This file implements the incremental scoring engine. The observation
// (§7 of the paper: production deployment) is that host state only changes
// on VM place/exit/migrate and on reprediction deadlines, yet the exhaustive
// Chain rescores every feasible host from scratch on every placement —
// O(hosts x scorers) per decision. The CachedChain below subscribes to the
// pool's host-event surface (cluster.Subscribe), keeps per-context candidate
// sets with cached per-host chain scores, and on Schedule touches only the
// hosts dirtied since the last call plus the winning score bucket.
//
// Equivalence to the exhaustive path is structural, not statistical: both
// engines run the same epsilon-filter core (Chain.applyChain) over the same
// candidates in the same ID order, with static levels read from cache and
// time-varying levels recomputed through the original Scorer. The
// differential tests (scorecache_test.go, internal/experiments, and the CI
// determinism gate) verify byte-identical results on full experiment
// matrices.

// Engine selects the Schedule implementation of a chain policy.
type Engine int

// Engines. EngineCached is the default for every built-in policy;
// EngineExhaustive is the reference full-rescore path kept for differential
// testing and benchmarking.
const (
	EngineCached Engine = iota
	EngineExhaustive
)

// CacheContext is the key under which per-host chain scores are cached.
// Static scorer levels must be pure functions of (host state, context): two
// Schedule calls whose VMs map to the same context must observe bit-identical
// static scores for an unchanged host. The shape covers the packing scorers
// (waste-min, best-fit); Class carries policy-specific discrimination such
// as the LAVA lifetime class of the VM being placed.
type CacheContext struct {
	Shape resources.Vector
	Class int32
}

// maxCachedContexts bounds the per-policy context population (distinct VM
// shapes x classes). Workload mixes are small and discrete — the fig6 mix
// has ~21 shapes, times four LAVA lifetime classes ~84 contexts; NILAS-epoch
// multiplies by the ~11 quantized remaining-lifetime buckets instead, of
// which only a handful are populated per shape in practice — so the cap
// sits above the realistic population and exists only to keep memory
// bounded under adversarial inputs (memory ceiling: contexts x hosts x
// levels x 8 bytes). The least-recently-used context is evicted and rebuilt
// on demand if it ever returns; eviction thrash shows up directly in the
// scale benchmarks, so keep the cap comfortably above the live population.
const maxCachedContexts = 256

// CachedChain is a Chain wrapped in the incremental score-cache engine. The
// zero value of the extra fields gives a fully static chain (every level
// cached); Dynamic marks levels that must be recomputed on every call, and
// TimeVarying disables caching for the whole chain (see DirtyAll).
//
// Like Chain, a CachedChain must not be shared by concurrent simulations.
// It additionally binds to one pool at a time: scheduling against a
// different pool unsubscribes from the old one and rebuilds the cache.
type CachedChain struct {
	Chain

	// Dynamic[i] marks scorer i as time- or VM-varying beyond the context
	// key (e.g. the NILAS temporal cost, which depends on the candidate
	// VM's repredicted exit). Dynamic levels are evaluated through the
	// original Scorer on exactly the candidates the exhaustive path would
	// evaluate them on, so side effects (exit-cache refreshes, model-call
	// counters) stay identical between engines. A dynamic level 0 disables
	// bucketing: every feasible host is a candidate, as in the exhaustive
	// path.
	Dynamic []bool

	// ClassOf extends the cache context beyond the VM shape. nil means the
	// shape alone determines every static score.
	ClassOf func(vm *cluster.VM, now time.Duration) int32

	// TimeVarying is the DirtyAll escape hatch for chains whose scores
	// change with the clock even when no host event fires (LA-Binary's
	// host class silently decays as time passes). Such a chain would need
	// DirtyAll before every Schedule, so the engine skips the cache
	// bookkeeping entirely and delegates to the exhaustive path — same
	// results, none of the pointless maintenance.
	TimeVarying bool

	// Epoch is the middle ground between fully static and TimeVarying:
	// static scores that are pure within a fixed quantum of virtual time
	// (NILAS-epoch's level-0 temporal score, see epoch.go). When set, every
	// cached score is invalidated whenever now crosses an Epoch boundary —
	// one DirtyAll per epoch instead of per Schedule, paid as one full
	// rebuild per live context. A chain whose epoch-quantized level is not
	// level 0 should make that level Dynamic instead (LAVA-epoch), which
	// needs no rollover at all.
	Epoch time.Duration

	engine   Engine
	epochIdx int64 // 1 + the epoch index the cache was last valid for
	pool     *cluster.Pool
	cancel   func()
	hosts    []*cluster.Host // pool.Hosts(); hosts[i].ID == i (checked at bind)

	sets   map[CacheContext]*candSet
	list   []*candSet // same sets, for event fan-out and eviction
	useSeq uint64
	cur    *candSet // context of the Schedule in progress (levelScore)
	work   CacheWork
}

// CacheWork counts the incremental engine's maintenance work since the
// policy was built. The counts depend only on the operation stream, so
// they repeat exactly from run to run and can be gated without noise.
type CacheWork struct {
	Contexts     int64 // candidate sets created (including re-creations after eviction)
	Rebuilds     int64 // full rescans: context creation, DirtyAll, epoch rollover
	RebuildHosts int64 // hosts scored by full rescans
	DirtyHosts   int64 // hosts scored by dirty updates
}

// NewCachedChain wraps chain in the incremental score-cache engine. dynamic
// marks the time/VM-varying levels (nil: all static); classOf extends the
// cache context beyond the VM shape (nil: shape only). See the CachedChain
// field docs for the exact contracts.
func NewCachedChain(chain Chain, dynamic []bool, classOf func(*cluster.VM, time.Duration) int32) *CachedChain {
	return &CachedChain{Chain: chain, Dynamic: dynamic, ClassOf: classOf}
}

// SetEngine switches between the incremental and the exhaustive engine.
// Switching to EngineExhaustive releases the cache and the pool
// subscription; switching back rebinds lazily on the next Schedule.
func (c *CachedChain) SetEngine(e Engine) {
	c.engine = e
	if e == EngineExhaustive {
		c.unbind()
	}
}

// EngineOf reports the engine a policy currently runs on; policies without
// an engine switch (plain Chains, custom policies) report EngineExhaustive.
func EngineOf(p Policy) Engine {
	if s, ok := p.(interface{ engineOf() Engine }); ok {
		return s.engineOf()
	}
	return EngineExhaustive
}

func (c *CachedChain) engineOf() Engine { return c.engine }

// CacheWorkOf reports the score-cache work counters of a policy on the
// incremental engine; policies without a score cache report zeros.
func CacheWorkOf(p Policy) CacheWork {
	if s, ok := p.(interface{ cacheWork() CacheWork }); ok {
		return s.cacheWork()
	}
	return CacheWork{}
}

func (c *CachedChain) cacheWork() CacheWork { return c.work }

// SetEngine flips a policy (and any policies it wraps, e.g. both arms of a
// Switched rollout) onto the given engine. Policies without an engine
// switch are returned unchanged.
func SetEngine(p Policy, e Engine) Policy {
	if s, ok := p.(interface{ SetEngine(Engine) }); ok {
		s.SetEngine(e)
	}
	return p
}

// DirtyAll invalidates every cached score and candidate set; the next
// Schedule per context rebuilds from the live pool. Components that bulk-
// mutate host state without per-host events can use it as a coarse hammer;
// chains whose scorers are genuinely time-varying should set TimeVarying
// instead, which is equivalent to DirtyAll before every Schedule.
func (c *CachedChain) DirtyAll() {
	for _, cs := range c.list {
		cs.allDirty = true
		cs.dirty = cs.dirty[:0]
	}
}

// EnableTrace implements Traceable. Beyond arming the embedded chain it
// classifies level 0: a dynamic level 0 (or a TimeVarying chain) must never
// be evaluated outside the filter scan, so single-candidate decisions are
// recorded unscored on both engines.
func (c *CachedChain) EnableTrace(k int) {
	c.Chain.EnableTrace(k)
	if c.Chain.tr != nil {
		c.Chain.tr.dyn0 = c.dyn(0) || c.TimeVarying
	}
}

// dyn reports whether level li is dynamic.
func (c *CachedChain) dyn(li int) bool {
	return li < len(c.Dynamic) && c.Dynamic[li]
}

// Schedule implements Policy. In cached mode it syncs the context's
// candidate set with the hosts dirtied since the last call, then filters
// only the winning level-0 bucket (or, when level 0 is dynamic, the
// feasible set) through the shared epsilon-filter core.
func (c *CachedChain) Schedule(pool *cluster.Pool, vm *cluster.VM, now time.Duration) (*cluster.Host, error) {
	if c.engine == EngineExhaustive || c.TimeVarying || !c.bind(pool) {
		return c.Chain.Schedule(pool, vm, now)
	}
	if c.Epoch > 0 {
		// Epoch rollover: every cached epoch-quantized score just changed.
		// (+1 keeps the zero value distinct from epoch 0, so the first
		// Schedule also takes this branch — harmless, sets start all-dirty.)
		if idx := int64(now/c.Epoch) + 1; idx != c.epochIdx {
			c.epochIdx = idx
			c.DirtyAll()
		}
	}
	ctx := CacheContext{Shape: vm.Shape}
	if c.ClassOf != nil {
		ctx.Class = c.ClassOf(vm, now)
	}
	cs := c.lookup(ctx)
	c.sync(cs, vm, now)

	candidates := cs.candidates(c.cand[:0], c.hosts)
	c.cand = candidates
	if len(candidates) == 0 {
		if c.Chain.tr != nil {
			c.Chain.tr.begin(0)
		}
		return nil, ErrNoCapacity
	}
	// A static level 0 was consumed by the bucket structure: the winning
	// bucket is exactly the set of feasible hosts with the minimal level-0
	// score, i.e. the survivors of the exhaustive level-0 filter. Bucketed
	// level-0 scorers must therefore return discrete values separated by
	// more than the filter epsilon — all built-in level-0 scorers return
	// small integers.
	from := 1
	if c.dyn(0) {
		from = 0
	}
	if t := c.Chain.tr; t != nil {
		if c.dyn(0) {
			// Dynamic level 0: candidates is the full feasible set and
			// applyChain starts at 0, so capture rides the filter scan
			// exactly as on the exhaustive engine.
			t.begin(len(candidates))
		} else {
			// Static level 0: read the K best (score, ID) pairs straight
			// off the sorted buckets. A one-member winning bucket among
			// several feasible hosts means level 0 decided — the filter
			// the exhaustive engine would have run at level 0.
			t.captureBuckets(cs)
			if t.Feasible > 1 && len(candidates) == 1 {
				t.Level = 0
			}
		}
	}
	c.cur = cs
	candidates = c.applyChain(candidates, from, c, vm, now)
	c.cur = nil
	if t := c.Chain.tr; t != nil && !t.scored {
		// Single feasible host under a dynamic level 0: record it unscored,
		// as the exhaustive path does (see capState.captureSingle).
		t.captureSingle(&c.Chain, candidates[0], vm, now)
	}
	return candidates[0], nil
}

// levelScore implements levelScorer: dynamic levels go through the original
// Scorer, static levels read the cached value.
func (c *CachedChain) levelScore(li int, h *cluster.Host, vm *cluster.VM, now time.Duration) float64 {
	if c.dyn(li) {
		return c.Scorers[li].Score(h, vm, now)
	}
	return c.cur.vals[int(h.ID)*len(c.Scorers)+li]
}

// bind attaches the cache to the pool, subscribing to its host events. It
// reports false (permanent exhaustive fallback for this pool) when the
// pool's host IDs are not dense 0..n-1, which the ID-indexed cache arrays
// rely on; NewPool always numbers hosts densely.
func (c *CachedChain) bind(pool *cluster.Pool) bool {
	if c.pool == pool {
		return c.hosts != nil
	}
	c.unbind()
	c.pool = pool
	hosts := pool.Hosts()
	if n := len(hosts); n == 0 || int(hosts[0].ID) != 0 || int(hosts[n-1].ID) != n-1 {
		return false
	}
	c.hosts = hosts
	c.sets = make(map[CacheContext]*candSet)
	c.cancel = pool.Subscribe(c.hostChanged)
	return true
}

// unbind releases the subscription and the cached state.
func (c *CachedChain) unbind() {
	if c.cancel != nil {
		c.cancel()
		c.cancel = nil
	}
	c.pool = nil
	c.hosts = nil
	c.sets = nil
	c.list = nil
	c.cur = nil
}

// hostChanged is the pool-event listener: O(contexts) dirty-bit flips, no
// rescoring — that happens lazily at the next Schedule of each context.
// Membership events (host add/remove) invalidate the ID-indexed cache
// arrays wholesale: the cache unbinds and the next Schedule rebinds against
// the pool's new host set — or falls back to the exhaustive engine if the
// removal left the IDs non-dense.
func (c *CachedChain) hostChanged(h *cluster.Host, ev cluster.HostEvent) {
	if ev == cluster.HostAdded || ev == cluster.HostRemoved {
		c.unbind()
		return
	}
	for _, cs := range c.list {
		cs.markDirty(h.ID)
	}
}

// lookup returns the context's candidate set, creating (all-dirty) or
// LRU-evicting as needed.
func (c *CachedChain) lookup(ctx CacheContext) *candSet {
	cs := c.sets[ctx]
	if cs == nil {
		if len(c.list) >= maxCachedContexts {
			c.evictLRU()
		}
		cs = newCandSet(ctx, len(c.hosts), len(c.Scorers), c.dyn(0))
		c.work.Contexts++
		c.sets[ctx] = cs
		c.list = append(c.list, cs)
	}
	c.useSeq++
	cs.lastUsed = c.useSeq
	return cs
}

// evictLRU drops the least-recently-scheduled context.
func (c *CachedChain) evictLRU() {
	lru := 0
	for i, cs := range c.list {
		if cs.lastUsed < c.list[lru].lastUsed {
			lru = i
		}
	}
	delete(c.sets, c.list[lru].ctx)
	c.list[lru] = c.list[len(c.list)-1]
	c.list = c.list[:len(c.list)-1]
}

// sync brings the candidate set up to date with every host event observed
// since its last Schedule. Steady state dirties one or two hosts per
// placement, so this is the only per-host work on the hot path.
func (c *CachedChain) sync(cs *candSet, vm *cluster.VM, now time.Duration) {
	if cs.allDirty {
		cs.rebuild(c, vm, now)
		return
	}
	for _, id := range cs.dirty {
		cs.isDirty[id] = false
		cs.update(c, id, vm, now)
	}
	cs.dirty = cs.dirty[:0]
}

// candSet is one context's incremental candidate structure: per-host cached
// static scores plus either score-keyed buckets (static level 0) or a flat
// ID-ordered feasible list (dynamic level 0). Membership means "feasible
// for the context's shape and available" — exactly AppendFeasible's
// predicate — so Schedule never rescans the pool for feasibility either.
type candSet struct {
	ctx     CacheContext
	nLevels int
	dyn0    bool

	feasible []bool    // per host: currently a member
	vals     []float64 // nHosts x nLevels cached scores (static levels only)
	isDirty  []bool
	dirty    []cluster.HostID
	allDirty bool
	lastUsed uint64

	feasIDs []cluster.HostID      // dyn0: ID-sorted members
	keys    []float64             // sorted live bucket keys
	buckets map[float64]*scoreBkt // level-0 score -> members
}

// scoreBkt is one level-0 score bucket; ids stay host-ID sorted so the
// filter sees candidates in the same order as the exhaustive scan.
type scoreBkt struct {
	ids []cluster.HostID
}

func newCandSet(ctx CacheContext, nHosts, nLevels int, dyn0 bool) *candSet {
	cs := &candSet{
		ctx:      ctx,
		nLevels:  nLevels,
		dyn0:     dyn0,
		feasible: make([]bool, nHosts),
		vals:     make([]float64, nHosts*nLevels),
		isDirty:  make([]bool, nHosts),
		allDirty: true,
	}
	if !dyn0 {
		cs.buckets = make(map[float64]*scoreBkt)
	}
	return cs
}

// markDirty queues a host for rescoring at the next Schedule.
func (cs *candSet) markDirty(id cluster.HostID) {
	if cs.allDirty || cs.isDirty[id] {
		return
	}
	cs.isDirty[id] = true
	cs.dirty = append(cs.dirty, id)
}

// rebuild rescans the whole pool (context creation, DirtyAll). Hosts are
// visited in ID order so bucket member lists come out sorted for free.
func (cs *candSet) rebuild(c *CachedChain, vm *cluster.VM, now time.Duration) {
	c.work.Rebuilds++
	for i := range cs.feasible {
		cs.feasible[i] = false
		cs.isDirty[i] = false
	}
	cs.dirty = cs.dirty[:0]
	cs.feasIDs = cs.feasIDs[:0]
	cs.keys = cs.keys[:0]
	if cs.buckets != nil && len(cs.buckets) > 0 {
		cs.buckets = make(map[float64]*scoreBkt)
	}
	for id, h := range c.hosts {
		if h.Unavailable || !h.Fits(cs.ctx.Shape) {
			continue
		}
		cs.feasible[id] = true
		cs.score(c, h, vm, now)
		c.work.RebuildHosts++
		if cs.dyn0 {
			cs.feasIDs = append(cs.feasIDs, cluster.HostID(id))
			continue
		}
		key := cs.vals[id*cs.nLevels]
		b := cs.buckets[key]
		if b == nil {
			b = &scoreBkt{}
			cs.buckets[key] = b
			cs.keys = append(cs.keys, key)
		}
		b.ids = append(b.ids, cluster.HostID(id))
	}
	sort.Float64s(cs.keys)
	cs.allDirty = false
}

// update re-derives one dirty host: membership out, fresh feasibility and
// static scores, membership back in.
func (cs *candSet) update(c *CachedChain, id cluster.HostID, vm *cluster.VM, now time.Duration) {
	h := c.hosts[id]
	if cs.feasible[id] {
		cs.removeMember(id)
	}
	feas := !h.Unavailable && h.Fits(cs.ctx.Shape)
	cs.feasible[id] = feas
	if !feas {
		return
	}
	cs.score(c, h, vm, now)
	c.work.DirtyHosts++
	cs.insertMember(id)
}

// score fills the host's static-level score row. The (vm, now) arguments
// are whatever Schedule is in flight; the static-purity contract makes the
// values valid for the whole context.
func (cs *candSet) score(c *CachedChain, h *cluster.Host, vm *cluster.VM, now time.Duration) {
	row := int(h.ID) * cs.nLevels
	for li, s := range c.Scorers {
		if !c.dyn(li) {
			cs.vals[row+li] = s.Score(h, vm, now)
		}
	}
}

// insertMember adds the host to the candidate structure (sorted by ID).
func (cs *candSet) insertMember(id cluster.HostID) {
	if cs.dyn0 {
		insertID(&cs.feasIDs, id)
		return
	}
	key := cs.vals[int(id)*cs.nLevels]
	b := cs.buckets[key]
	if b == nil {
		b = &scoreBkt{}
		cs.buckets[key] = b
		i := sort.SearchFloat64s(cs.keys, key)
		cs.keys = append(cs.keys, 0)
		copy(cs.keys[i+1:], cs.keys[i:])
		cs.keys[i] = key
	}
	insertID(&b.ids, id)
}

// removeMember drops the host, pruning its bucket if it empties. The old
// bucket key is read from the cached score row, which is only rewritten by
// score() after removal.
func (cs *candSet) removeMember(id cluster.HostID) {
	if cs.dyn0 {
		removeID(&cs.feasIDs, id)
		return
	}
	key := cs.vals[int(id)*cs.nLevels]
	b := cs.buckets[key]
	removeID(&b.ids, id)
	if len(b.ids) == 0 {
		delete(cs.buckets, key)
		i := sort.SearchFloat64s(cs.keys, key)
		cs.keys = append(cs.keys[:i], cs.keys[i+1:]...)
	}
}

// candidates appends the Schedule candidates to dst in host-ID order: the
// winning (lowest-key) bucket, or the whole feasible set when level 0 is
// dynamic.
func (cs *candSet) candidates(dst []*cluster.Host, hosts []*cluster.Host) []*cluster.Host {
	ids := cs.feasIDs
	if !cs.dyn0 {
		if len(cs.keys) == 0 {
			return dst
		}
		ids = cs.buckets[cs.keys[0]].ids
	}
	for _, id := range ids {
		dst = append(dst, hosts[id])
	}
	return dst
}

// insertID adds id to the sorted slice (no-op duplicates are impossible:
// callers track membership via feasible[]).
func insertID(ids *[]cluster.HostID, id cluster.HostID) {
	s := *ids
	i := sort.Search(len(s), func(i int) bool { return s[i] >= id })
	s = append(s, 0)
	copy(s[i+1:], s[i:])
	s[i] = id
	*ids = s
}

// removeID drops id from the sorted slice.
func removeID(ids *[]cluster.HostID, id cluster.HostID) {
	s := *ids
	i := sort.Search(len(s), func(i int) bool { return s[i] >= id })
	if i < len(s) && s[i] == id {
		*ids = append(s[:i], s[i+1:]...)
	}
}
