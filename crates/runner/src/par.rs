//! Node-local task execution for the conservative-lookahead parallel
//! event engine ([`EngineKind::Parallel`](crate::sim::EngineKind)).
//!
//! ## The conservative-window invariant
//!
//! The MAC's interframe spacings are strictly positive (SIFS 10 µs, DIFS
//! 50 µs), and every path that puts a frame on the air runs through a MAC
//! timer (DIFS/backoff expiry, the SIFS response timer, the post-CTS SIFS
//! timer). Receiving a frame, reacting to a link failure, accepting an
//! application packet, or firing a *protocol* timer therefore **cannot
//! start a transmission synchronously** — it can only arm timers. That is
//! the same lower bound that justified batching all of a transmission's
//! receiver completions into one heap event (PR 4); here it buys more:
//! within one timestamp, the handling of
//!
//! * application arrivals ([`Event::App`]),
//! * protocol timers ([`Event::ProtoTimer`]), and
//! * whole-transmission completions ([`Event::TxComplete`]) — every
//!   receiver's signal end, frame delivery, protocol reaction (the SRP
//!   flood processing that is ~25 % of the dense profile) and the
//!   transmitter's own tx-end
//!
//! touches **only the owning node's state** (its channel [`NodeState`]
//! slice, MAC, routing protocol, RNG stream and carrier flags) plus
//! read-only shared context. Everything global — heap insertions, timer
//! tokens, metrics, traces, channel statistics — is emitted as an [`Op`]
//! into a per-worker buffer instead of being applied in place.
//!
//! The harness partitions the window's tasks by a node-ownership sharding
//! and executes shards concurrently; afterwards it drains the op buffers
//! in canonical *(task index, emission order)* — exactly the order the
//! serial batched engine would have produced — so the trial output is
//! **bit-identical** to [`EngineKind::Batched`] at any worker count,
//! including 1.
//!
//! A window is the maximal run of window-safe events sharing the head
//! timestamp, in heap order. MAC timers and dynamics events are not
//! window-safe (a MAC timer is where transmissions begin; dynamics rewire
//! the world): they dispatch serially, and one behind a run ends it
//! without being popped. So a window pops exactly the events the serial
//! walk pops — the queue only ever cancels MAC timers, and every delay
//! is positive, so nothing a window task does can remove or precede an
//! event the window already holds. Each op replays through the very
//! statement the serial dispatch runs (`mac_set`, `mac_cancel` and
//! `proto_set` schedule and cancel directly), in the same order, so heap
//! sequence numbers and every later pop match the batched engine bit for
//! bit. The window's channel epilogue (receiver-vector recycling and
//! in-flight retirement) runs after the merge; it touches no per-node
//! state, and no transmission can begin before it.

use std::collections::VecDeque;
use std::sync::Arc;

use rand::rngs::SmallRng;

use slr_mobility::MobilityScript;
use slr_netsim::admittance::Admittance;
use slr_netsim::time::{SimDuration, SimTime};
use slr_protocols::{DataDropReason, DataPacket, ProtoCtx, ProtoEffect, RoutingProtocol, DATA_TTL};
use slr_radio::{ChannelShard, Mac, MacEffect, MacTimer, TxFrames, TxId};
use slr_traffic::TrafficScript;

use crate::sim::Payload;
use crate::trace::TraceEvent;

/// One unit of window work, owned entirely by `owner`'s node state.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Task {
    /// The node whose state this task mutates (shard selector).
    pub owner: u32,
    pub kind: TaskKind,
}

#[derive(Debug, Clone, Copy)]
pub(crate) enum TaskKind {
    /// A scripted application packet enters at its source (traffic index).
    App(u32),
    /// A routing-protocol timer fired (token; epoch pre-checked by the
    /// window builder — epochs cannot change inside a window).
    ProtoTimer(u64),
    /// One receiver's signal of `tx` completes (channel bookkeeping,
    /// frame delivery, busy→idle reaction, protocol processing).
    RxComplete(TxId),
    /// The transmitter-side tail of a completed transmission (epoch
    /// pre-checked): the MAC's `on_tx_end`.
    TxEndTail,
}

/// A deferred global side effect, applied by the harness at merge time in
/// canonical order. Each variant mirrors one side-effecting statement of
/// the serial dispatch path — the op *stream* of a window is the exact
/// sequence of global mutations the batched engine would have performed.
#[derive(Debug)]
pub(crate) enum Op {
    /// Arm (re-arm) a MAC timer: cancel the node's existing token for
    /// this kind, schedule anew, store the token.
    MacSet {
        node: u32,
        kind: MacTimer,
        delay: SimDuration,
    },
    /// Cancel a MAC timer if armed.
    MacCancel {
        node: u32,
        kind: MacTimer,
    },
    /// Schedule a protocol timer (the node's current epoch is attached at
    /// apply time; it cannot change inside a window).
    ProtoSet {
        node: u32,
        token: u64,
        delay: SimDuration,
    },
    /// `metrics.record_control(kind)`.
    Control {
        kind: &'static str,
    },
    /// `metrics.data_tx += 1`.
    DataTx,
    /// `metrics.data_originated += 1`.
    Originated,
    /// A data packet was lost, replayed through `Sim::drop_data` (which
    /// traces and counts it).
    Drop {
        node: u32,
        uid: u64,
        reason: DataDropReason,
    },
    /// Link-failure classification counters.
    LinkFailGated,
    LinkFailInRange,
    LinkFailOutOfRange,
    /// A local delivery at `node`, replayed through `Sim::record_delivery`
    /// (which traces and counts it) with the path's geodesic stretch
    /// ([`stretch_hops`]).
    Delivery {
        node: u32,
        uid: u64,
        origin: SimTime,
        hops: u32,
        min_hops: u32,
    },
    /// A packet-trace record (emitted only when tracing is enabled; drops
    /// and deliveries trace through their own ops).
    Trace {
        uid: u64,
        ev: TraceEvent,
    },
}

/// A delivered packet's geodesic stretch terms at `node`: hops taken (the
/// originator sends at full TTL, each forwarder decrements once) and the
/// straight-line minimum at radio range.
pub(crate) fn stretch_hops(
    dp: &DataPacket,
    node: usize,
    now: SimTime,
    mobility: &MobilityScript,
    rx_range_m: f64,
) -> (u32, u32) {
    let hops = u32::from(DATA_TTL - dp.ttl) + 1;
    let line = mobility
        .position(dp.src, now)
        .distance(&mobility.position(node, now));
    (hops, (line / rx_range_m).ceil() as u32)
}

/// Read-only context shared by every worker of a window. Nothing in here
/// is mutated while a window is in flight: admittance and epochs only
/// change through dynamics events, positions only matter through the
/// (frozen) mobility script, and the in-flight frame table cannot grow
/// because no transmission can begin inside the window.
pub(crate) struct SharedCtx<'a> {
    pub now: SimTime,
    pub frames: &'a TxFrames<'a, Payload>,
    pub admittance: &'a Admittance,
    pub mobility: &'a MobilityScript,
    pub traffic: &'a TrafficScript,
    pub has_dynamics: bool,
    pub rx_range_m: f64,
    pub trace_on: bool,
}

/// The disjoint mutable slice of per-node harness state one worker owns
/// for the duration of a window (nodes `base .. base + macs.len()`).
pub(crate) struct Shard<'a> {
    pub base: usize,
    pub macs: &'a mut [Mac<Payload>],
    pub protos: &'a mut [Box<dyn RoutingProtocol>],
    pub rngs: &'a mut [SmallRng],
    pub sensitive: &'a mut [bool],
    pub stale: &'a mut [bool],
    pub chan: ChannelShard<'a>,
}

impl Shard<'_> {
    /// Whether `node` belongs to this shard.
    pub fn owns(&self, node: u32) -> bool {
        let n = node as usize;
        n >= self.base && n < self.base + self.macs.len()
    }

    /// Runs one handler of `node`'s routing protocol at `now` with the
    /// node's RNG stream: the shard-local twin of `Sim::proto_call`.
    fn proto_call(
        &mut self,
        node: usize,
        now: SimTime,
        f: impl FnOnce(&mut dyn RoutingProtocol, &mut ProtoCtx<'_>) -> Vec<ProtoEffect>,
    ) -> Vec<ProtoEffect> {
        let i = node - self.base;
        let mut ctx = ProtoCtx {
            now,
            rng: &mut self.rngs[i],
        };
        f(&mut *self.protos[i], &mut ctx)
    }
}

/// Per-worker scratch, persistent across windows (the parallel engine's
/// per-worker equivalent of the serial path's pooled work queues and
/// reusable MAC-effect buffer — nothing allocates in steady state).
#[derive(Default)]
pub(crate) struct WorkerScratch {
    /// Emitted ops, tagged with the global task index (ascending: each
    /// worker walks its tasks in window order).
    pub ops: Vec<(u32, Op)>,
    /// Reusable MAC-effect buffer (per-worker: MAC calls on different
    /// shards must not share one scratch vector).
    pub fx: Vec<MacEffect<Payload>>,
    /// Reusable node-local work queue.
    pub work: VecDeque<LocalWork>,
}

/// Pending node-local work inside one task (the node is the task owner).
pub(crate) enum LocalWork {
    Mac(MacEffect<Payload>),
    Proto(ProtoEffect),
}

/// Executes one task against its owner's shard, appending every global
/// side effect to `scratch.ops` tagged with `idx`. Mirrors the serial
/// dispatch + drain of `sim.rs` statement for statement; the two must be
/// kept in lockstep (the engine-equivalence suite holds them to it).
pub(crate) fn run_task(
    idx: u32,
    task: &Task,
    shard: &mut Shard<'_>,
    ctx: &SharedCtx<'_>,
    scratch: &mut WorkerScratch,
) {
    let node = task.owner as usize;
    debug_assert!(shard.owns(task.owner));
    let mut work = std::mem::take(&mut scratch.work);
    debug_assert!(work.is_empty());
    match task.kind {
        TaskKind::App(i) => {
            let spec = ctx.traffic.packets()[i as usize];
            let packet = DataPacket {
                src: spec.src,
                dst: spec.dst,
                uid: ctx.traffic.uid(i as usize),
                origin_time: ctx.now,
                bytes: spec.bytes,
                ttl: DATA_TTL,
                source_route: None,
            };
            scratch.ops.push((idx, Op::Originated));
            if ctx.trace_on {
                scratch.ops.push((
                    idx,
                    Op::Trace {
                        uid: packet.uid,
                        ev: TraceEvent::Originated {
                            node: spec.src,
                            time: ctx.now,
                        },
                    },
                ));
            }
            // A crashed source cannot inject traffic; the offered packet
            // still counts against delivery.
            if !ctx.admittance.node_is_up(spec.src) {
                let (node, uid) = (task.owner, packet.uid);
                let reason = DataDropReason::NodeDown;
                scratch.ops.push((idx, Op::Drop { node, uid, reason }));
            } else {
                let fx =
                    shard.proto_call(node, ctx.now, |p, pctx| p.on_data_from_app(pctx, packet));
                work.extend(fx.into_iter().map(LocalWork::Proto));
            }
        }
        TaskKind::ProtoTimer(token) => {
            let fx = shard.proto_call(node, ctx.now, |p, pctx| p.on_timer(pctx, token));
            work.extend(fx.into_iter().map(LocalWork::Proto));
        }
        TaskKind::RxComplete(tx) => {
            let r = shard.chan.finish_rx(ctx.frames, node, tx, ctx.now);
            // The engine-independent tail of a signal completion (see
            // `Sim::after_finish_rx`): frame delivery and busy→idle
            // notification for the node's current MAC.
            if !ctx.has_dynamics || ctx.admittance.node_is_up(node) {
                if let Some(frame) = r.frame {
                    mac_call(node, shard, ctx, scratch, &mut work, |mac, now, fx| {
                        mac.on_rx_frame_into(frame, now, fx)
                    });
                }
                if r.became_idle {
                    if shard.sensitive[node - shard.base] {
                        mac_call(node, shard, ctx, scratch, &mut work, |mac, now, fx| {
                            mac.on_channel_idle_into(now, fx)
                        });
                    } else {
                        // The only effect an insensitive MAC takes from an
                        // idle notification is the carrier flag; replay it
                        // lazily.
                        shard.stale[node - shard.base] = true;
                    }
                }
            }
        }
        TaskKind::TxEndTail => {
            mac_call(node, shard, ctx, scratch, &mut work, |mac, now, fx| {
                mac.on_tx_end_into(now, fx)
            });
        }
    }
    drain(idx, node, shard, ctx, scratch, &mut work);
    scratch.work = work;
}

/// Runs one MAC call through the worker's reusable effect scratch,
/// queueing its effects onto `work` — the shard-local mirror of
/// `Sim::mac_call`, including the lazy carrier resync from channel ground
/// truth (the shard's own node range answers `is_busy`).
fn mac_call(
    node: usize,
    shard: &mut Shard<'_>,
    ctx: &SharedCtx<'_>,
    scratch: &mut WorkerScratch,
    work: &mut VecDeque<LocalWork>,
    f: impl FnOnce(&mut Mac<Payload>, SimTime, &mut Vec<MacEffect<Payload>>),
) {
    let i = node - shard.base;
    if shard.stale[i] {
        shard.stale[i] = false;
        let busy = shard.chan.is_busy(node);
        shard.macs[i].set_carrier(busy);
    }
    let mut fx = std::mem::take(&mut scratch.fx);
    debug_assert!(fx.is_empty());
    f(&mut shard.macs[i], ctx.now, &mut fx);
    shard.sensitive[i] = shard.macs[i].transition_sensitive();
    work.extend(fx.drain(..).map(LocalWork::Mac));
    scratch.fx = fx;
}

/// Processes queued node-local effects until quiescent — the shard-local
/// mirror of `Sim::drain` + `apply_mac` + `apply_proto`, with every
/// global mutation emitted as an [`Op`] instead.
fn drain(
    idx: u32,
    node: usize,
    shard: &mut Shard<'_>,
    ctx: &SharedCtx<'_>,
    scratch: &mut WorkerScratch,
    work: &mut VecDeque<LocalWork>,
) {
    while let Some(w) = work.pop_front() {
        match w {
            LocalWork::Mac(eff) => apply_mac_local(idx, node, eff, shard, ctx, scratch, work),
            LocalWork::Proto(eff) => apply_proto_local(idx, node, eff, shard, ctx, scratch, work),
        }
    }
}

fn apply_mac_local(
    idx: u32,
    node: usize,
    eff: MacEffect<Payload>,
    shard: &mut Shard<'_>,
    ctx: &SharedCtx<'_>,
    scratch: &mut WorkerScratch,
    work: &mut VecDeque<LocalWork>,
) {
    match eff {
        MacEffect::StartTx(_) => {
            // The conservative-lookahead invariant: window-safe events can
            // arm timers but never transmit synchronously (all four
            // transmit paths run through MAC timers, which dispatch
            // serially). Reaching this arm means the MAC grew a
            // transmit-without-timer path and the window discipline is
            // unsound — fail loudly rather than corrupt the trial.
            panic!(
                "MacEffect::StartTx emitted inside a conservative dispatch \
                 window (node {node}): window-safe events must not transmit"
            );
        }
        MacEffect::SetTimer(kind, delay) => {
            scratch.ops.push((
                idx,
                Op::MacSet {
                    node: node as u32,
                    kind,
                    delay,
                },
            ));
        }
        MacEffect::CancelTimer(kind) => {
            scratch.ops.push((
                idx,
                Op::MacCancel {
                    node: node as u32,
                    kind,
                },
            ));
        }
        MacEffect::Deliver { from, payload } => {
            let fx = match payload {
                Payload::Control(cp) => {
                    let cp = Arc::unwrap_or_clone(cp);
                    shard.proto_call(node, ctx.now, |p, pctx| {
                        p.on_control_received(pctx, from, cp)
                    })
                }
                Payload::Data(dp) => {
                    let dp = Arc::unwrap_or_clone(dp);
                    shard.proto_call(node, ctx.now, |p, pctx| p.on_data_received(pctx, from, dp))
                }
            };
            work.extend(fx.into_iter().map(LocalWork::Proto));
        }
        MacEffect::TxDone { .. } => {}
        MacEffect::TxFailed { dst, payload } => {
            let d = ctx
                .mobility
                .position(node, ctx.now)
                .distance(&ctx.mobility.position(dst, ctx.now));
            let op = if !ctx.admittance.allows(node, dst) {
                Op::LinkFailGated
            } else if d <= ctx.rx_range_m {
                Op::LinkFailInRange
            } else {
                Op::LinkFailOutOfRange
            };
            scratch.ops.push((idx, op));
            let pkt = match payload {
                Payload::Data(dp) => Some(Arc::unwrap_or_clone(dp)),
                Payload::Control(_) => None,
            };
            if let (Some(dp), true) = (&pkt, ctx.trace_on) {
                scratch.ops.push((
                    idx,
                    Op::Trace {
                        uid: dp.uid,
                        ev: TraceEvent::ForwardFailed {
                            from: node,
                            to: dst,
                            time: ctx.now,
                        },
                    },
                ));
            }
            let fx = shard.proto_call(node, ctx.now, |p, pctx| p.on_link_failure(pctx, dst, pkt));
            work.extend(fx.into_iter().map(LocalWork::Proto));
        }
        MacEffect::Dropped { payload, .. } => {
            // Interface-queue overflow; data packets are lost here.
            if let Payload::Data(dp) = payload {
                let (node, uid) = (node as u32, dp.uid);
                let reason = DataDropReason::IfqOverflow;
                scratch.ops.push((idx, Op::Drop { node, uid, reason }));
            }
        }
    }
}

fn apply_proto_local(
    idx: u32,
    node: usize,
    eff: ProtoEffect,
    shard: &mut Shard<'_>,
    ctx: &SharedCtx<'_>,
    scratch: &mut WorkerScratch,
    work: &mut VecDeque<LocalWork>,
) {
    match eff {
        ProtoEffect::SendControl { packet, next_hop } => {
            scratch.ops.push((
                idx,
                Op::Control {
                    kind: packet.kind_name(),
                },
            ));
            let bytes = packet.wire_bytes();
            mac_call(node, shard, ctx, scratch, work, |mac, now, fx| {
                mac.enqueue_into(
                    Payload::Control(Arc::new(packet)),
                    next_hop,
                    bytes,
                    true,
                    now,
                    fx,
                )
            });
        }
        ProtoEffect::SendData { packet, next_hop } => {
            scratch.ops.push((idx, Op::DataTx));
            if ctx.trace_on {
                scratch.ops.push((
                    idx,
                    Op::Trace {
                        uid: packet.uid,
                        ev: TraceEvent::Forwarded {
                            from: node,
                            to: next_hop,
                            time: ctx.now,
                        },
                    },
                ));
            }
            let bytes = packet.bytes
                + packet
                    .source_route
                    .as_ref()
                    .map(|sr| sr.wire_bytes())
                    .unwrap_or(0);
            mac_call(node, shard, ctx, scratch, work, |mac, now, fx| {
                mac.enqueue_into(
                    Payload::Data(Arc::new(packet)),
                    Some(next_hop),
                    bytes,
                    false,
                    now,
                    fx,
                )
            });
        }
        ProtoEffect::DeliverLocal(dp) => {
            let (hops, min_hops) = stretch_hops(&dp, node, ctx.now, ctx.mobility, ctx.rx_range_m);
            scratch.ops.push((
                idx,
                Op::Delivery {
                    node: node as u32,
                    uid: dp.uid,
                    origin: dp.origin_time,
                    hops,
                    min_hops,
                },
            ));
        }
        ProtoEffect::DropData { packet, reason } => {
            let (node, uid) = (node as u32, packet.uid);
            scratch.ops.push((idx, Op::Drop { node, uid, reason }));
        }
        ProtoEffect::SetTimer { token, delay } => {
            scratch.ops.push((
                idx,
                Op::ProtoSet {
                    node: node as u32,
                    token,
                    delay,
                },
            ));
        }
    }
}

/// Splits `n` nodes into `w` near-equal contiguous ranges: the node
/// ownership map of one window. Returns the `w + 1` ascending bounds.
#[cfg(test)]
pub(crate) fn shard_bounds(n: usize, w: usize) -> Vec<usize> {
    let mut bounds = Vec::new();
    shard_bounds_into(n, w, &mut bounds);
    bounds
}

/// [`shard_bounds`] into a reused buffer (one window's bounds are hot-path
/// state; the dispatcher keeps the vector across windows).
pub(crate) fn shard_bounds_into(n: usize, w: usize, bounds: &mut Vec<usize>) {
    let w = w.max(1);
    let chunk = n.div_ceil(w).max(1);
    bounds.clear();
    bounds.reserve(w + 1);
    for i in 0..=w {
        bounds.push((i * chunk).min(n));
    }
}

/// The worker owning `node` under [`shard_bounds`]`(n, w)`.
pub(crate) fn worker_of(node: u32, n: usize, w: usize) -> usize {
    let chunk = n.div_ceil(w.max(1)).max(1);
    ((node as usize) / chunk).min(w.saturating_sub(1))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bounds_cover_and_ascend() {
        for n in [0usize, 1, 2, 5, 100, 4999, 5000] {
            for w in [1usize, 2, 3, 7, 8, 16] {
                let b = shard_bounds(n, w);
                assert_eq!(b.len(), w + 1);
                assert_eq!(b[0], 0);
                assert_eq!(*b.last().unwrap(), n);
                for i in 0..w {
                    assert!(b[i] <= b[i + 1]);
                    for node in b[i]..b[i + 1] {
                        assert_eq!(worker_of(node as u32, n, w), i, "n={n} w={w} node={node}");
                    }
                }
            }
        }
    }
}
