// Package serve turns the LAVA stack into an online placement service: a
// long-running daemon (cmd/lavad) that answers VM placement and exit
// requests over an HTTP JSON API instead of replaying a prerecorded trace
// offline.
//
// # Architecture
//
// The server is built around a single-writer event loop over a
// sim.Machine — the same incremental stepping engine internal/sim's
// offline Run uses. All pool and policy mutation happens on the loop
// goroutine; HTTP handlers only build request values, enqueue them on the
// admission queue, and wait for their response. This preserves
// cluster.Pool's single-writer concurrency contract without a single lock
// around the hot path, and it is what makes a served replay byte-identical
// to an offline simulation: both drive one engine, in one goroutine, in
// one deterministic order.
//
// # Admission batching and determinism
//
// The admission queue is a buffered channel. Each loop iteration drains
// everything currently queued into a batch and orders it canonically —
// by virtual time, then exits before placements (the trace event-stream
// convention), then VM ID — so one batch of concurrent requests is
// processed the same way regardless of goroutine arrival interleaving.
//
// Clients that need *global* determinism (the replay client, the parity
// test) additionally stamp each request with a strictly increasing
// sequence number. Sequenced requests pass through a reorder buffer: the
// loop processes seq 1, 2, 3, ... in order no matter how the concurrent
// HTTP deliveries interleave, so an 8-way concurrent replay of a trace
// makes exactly the same placement decisions as `lava.Simulate` on that
// trace.
//
// # Drain and snapshot semantics
//
// /snapshot reads the pool's current bin-packing metrics without advancing
// virtual time. /drain performs the graceful shutdown handshake: new
// mutating requests are rejected with 503, everything already admitted
// (including buffered sequenced requests) is processed, the machine is
// advanced to its horizon, and the final post-warm-up aggregates — the
// exact fields an offline run reports — are computed once and returned.
// Reads keep working on the frozen pool after the drain.
//
// # Federation (Fleet)
//
// Fleet puts N Servers — one pool, policy and event loop each — behind a
// single front-end with the same HTTP surface, which is how the serving
// path uses more than one core: cells advance independently and only meet
// at routing, stats rollup and drain. Placements route through the
// internal/cell router family (round-robin and feature-hash applied
// statically to the live stream; least-utilized served from a live
// commitment ledger), exits follow the VM they name, ticks fan out, and
// /drain rolls per-cell results up through cell.RollUp.
//
// A fleet-wide sequenced stream stays strictly ordered across the split: a
// global reorder stage admits sequence numbers in order, routes each
// request, stamps it with its cell's own contiguous sequence number, and
// releases it — dispatch is concurrent and each cell's reorder buffer
// restores that cell's order. Every cell therefore observes exactly the
// event subsequence cell.Shard would hand it offline, and the fleet parity
// test asserts per-cell byte equality against cell.PlanCells + sim.Run.
package serve
