package main

import (
	"errors"
	"time"

	"lava/internal/cluster"
	"lava/internal/model"
	"lava/internal/scheduler"
)

// tracedPolicy forwards every scheduler.Policy call to the wrapped policy
// inside a span, counts capacity failures, and counts the host events of
// the pool it schedules on through a cluster.Pool.Subscribe listener.
type tracedPolicy struct {
	scheduler.Policy
	tr *tracer

	pool       *cluster.Pool
	hostEvents int64
	noCapacity int64
}

// ModelCalls forwards the wrapped policy's model telemetry: sim.Machine and
// serve read it through an interface check, so a wrapper without it would
// silently report zero model calls.
func (p *tracedPolicy) ModelCalls() int64 {
	if mc, ok := p.Policy.(interface{ ModelCalls() int64 }); ok {
		return mc.ModelCalls()
	}
	return 0
}

func (p *tracedPolicy) watch(pool *cluster.Pool) {
	if pool != p.pool {
		p.pool = pool
		pool.Subscribe(func(*cluster.Host, cluster.HostEvent) { p.hostEvents++ })
	}
}

func (p *tracedPolicy) Schedule(pool *cluster.Pool, vm *cluster.VM, now time.Duration) (*cluster.Host, error) {
	p.watch(pool)
	i := p.tr.begin(kSchedule, int64(vm.ID))
	h, err := p.Policy.Schedule(pool, vm, now)
	p.tr.end(i)
	if errors.Is(err, scheduler.ErrNoCapacity) {
		p.noCapacity++
	}
	return h, err
}

func (p *tracedPolicy) OnPlaced(pool *cluster.Pool, h *cluster.Host, vm *cluster.VM, now time.Duration) {
	i := p.tr.begin(kOnPlaced, int64(vm.ID))
	p.Policy.OnPlaced(pool, h, vm, now)
	p.tr.end(i)
}

func (p *tracedPolicy) OnExited(pool *cluster.Pool, h *cluster.Host, vm *cluster.VM, now time.Duration) {
	i := p.tr.begin(kOnExited, int64(vm.ID))
	p.Policy.OnExited(pool, h, vm, now)
	p.tr.end(i)
}

func (p *tracedPolicy) OnTick(pool *cluster.Pool, now time.Duration) {
	p.watch(pool)
	i := p.tr.begin(kOnTick, -1)
	p.Policy.OnTick(pool, now)
	p.tr.end(i)
}

// tracedPredictor times every model.Predictor call; its span count is the
// model call count.
type tracedPredictor struct {
	model.Predictor
	tr *tracer
}

func (p *tracedPredictor) PredictRemaining(vm *cluster.VM, uptime time.Duration) time.Duration {
	i := p.tr.begin(kPredict, int64(vm.ID))
	d := p.Predictor.PredictRemaining(vm, uptime)
	p.tr.end(i)
	return d
}
