//! Isolated replays: one layer's public API driven directly, at the
//! workload's node count, density, mobility script and protocol set, after
//! an untimed warm-up eighth. They give unit costs (ns per call) that the
//! in-situ phase totals can be held against.

use std::hint::black_box;
use std::time::Instant;

use rand::rngs::SmallRng;
use rand::SeedableRng;
use slr_core::{new_order, Frac32, Fraction, LabelInterner, SplitLabel};
use slr_mobility::MobilityScript;
use slr_netsim::pool::{with_core_pool, WindowExec};
use slr_netsim::time::{SimDuration, SimTime};
use slr_netsim::EventQueue;
use slr_protocols::aodv::{AodvMessage, AodvRreq};
use slr_protocols::dsr::{DsrMessage, DsrRreq};
use slr_protocols::ldr::{LdrMessage, LdrRreq};
use slr_protocols::olsr::{OlsrHello, OlsrMessage, OlsrTc};
use slr_protocols::srp::{SrpMessage, SrpRreq};
use slr_protocols::{ControlPacket, ProtoCtx};
use slr_radio::{Channel, Frame, FrameKind, Mac, MacEffect, MacTimer, NeighborQuery};
use slr_runner::medium::{MediumView, PositionTracker};
use slr_runner::scenario::ProtocolKind;
use slr_runner::Scenario;

/// A co-prime stride, so successive operations visit nodes out of order.
const STRIDE: u64 = 7919;

/// What the replays take from the workload.
pub struct Inputs<'a> {
    pub scenario: &'a Scenario,
    pub script: &'a MobilityScript,
    pub protocols: &'a [ProtocolKind],
    pub workers: usize,
    /// Divides every operation count (the smoke run uses 100).
    pub shrink: u64,
}

/// Nanoseconds per call of `op` over `ops` calls, after `ops / 8` untimed
/// ones (steady-state numbers, not cold-cache ones).
fn ns_per_op(ops: u64, mut op: impl FnMut(u64)) -> f64 {
    let warm = ops / 8;
    (0..warm).for_each(&mut op);
    let t0 = Instant::now();
    (warm..warm + ops).for_each(&mut op);
    t0.elapsed().as_nanos() as f64 / ops as f64
}

pub type Metric = (&'static str, f64);

type Replay = fn(&Inputs<'_>) -> Vec<Metric>;

/// Every replay with the name of its `layer.*` span. A replay of a layer
/// the workload never enters (a protocol it does not run) reports 0.
pub const REPLAYS: [(&str, Replay); 8] = [
    ("layer.netsim.queue", queue),
    ("layer.netsim.spatial", spatial),
    ("layer.runner.medium", medium),
    ("layer.radio.channel", channel),
    ("layer.radio.mac", mac),
    ("layer.protocols", protocols),
    ("layer.core", core),
    ("layer.netsim.pool", pool),
];

/// The event queue at a steady live size of four events per node: the
/// classic hold (pop the minimum, schedule a successor), and the MAC's
/// arm-cancel-rearm pattern (ACK/CTS timeouts that almost never fire).
fn queue(inp: &Inputs<'_>) -> Vec<Metric> {
    let live = 4 * inp.scenario.nodes as u64;
    let ops = 400_000 / inp.shrink;
    let mut q: EventQueue<u64> = EventQueue::new();
    for i in 0..live {
        q.schedule(SimTime::from_nanos(i * STRIDE % 1_000_000), i);
    }
    let hold = ns_per_op(ops, |i| {
        let ev = q.pop().expect("steady live size");
        let delay = SimDuration::from_nanos(1 + i * STRIDE % 1_000_000);
        q.schedule(ev.time + delay, ev.event);
    });
    black_box(q.len());

    let mut q: EventQueue<u64> = EventQueue::new();
    let timeout = SimDuration::from_micros(700);
    let mut tokens: Vec<_> = (0..live)
        .map(|i| q.schedule(SimTime::from_nanos(i) + timeout, i))
        .collect();
    let rearm = ns_per_op(ops, |i| {
        let slot = (i * STRIDE % live) as usize;
        q.cancel(tokens[slot]);
        tokens[slot] = q.schedule(SimTime::from_nanos(live + i) + timeout, slot as u64);
    });
    black_box(q.heap_len());
    vec![
        ("netsim.queue.ns_per_hold", hold),
        ("netsim.queue.ns_per_cancel_rearm", rearm),
    ]
}

/// The production spatial index (the tracker's, at t = 0): exact
/// carrier-sense-range queries, and how many bucket candidates each
/// neighbor found cost (scanned ÷ useful, ≥ 1).
fn spatial(inp: &Inputs<'_>) -> Vec<Metric> {
    let range = inp.scenario.mac.phy.cs_range_m;
    let tracker = PositionTracker::new(inp.script, range);
    let index = tracker.index();
    let n = index.len() as u64;
    let mut out = Vec::new();
    let per_query = ns_per_op(100_000 / inp.shrink, |i| {
        out.clear();
        index.neighbors_within((i * STRIDE % n) as usize, range, &mut out);
        black_box(out.len());
    });
    let (mut scanned, mut useful) = (0usize, 0usize);
    for i in 0..(2_000 / inp.shrink).max(20) {
        let node = (i * STRIDE % n) as usize;
        out.clear();
        index.candidates_within(index.point(node), range, &mut out);
        scanned += out.len();
        out.clear();
        index.neighbors_within(node, range, &mut out);
        useful += out.len();
    }
    vec![
        ("netsim.spatial.ns_per_query", per_query),
        (
            "netsim.spatial.candidates_per_neighbor",
            scanned as f64 / useful.max(1) as f64,
        ),
    ]
}

/// How many transmissions `step` apart a replay may time (at most 50 000)
/// so that, warm-up included, it stays inside the trial's duration — past
/// its end a mobility script no longer moves anyone.
fn airtimes_within(inp: &Inputs<'_>, step: SimDuration) -> u64 {
    let fit = inp.scenario.end.as_nanos() / step.as_nanos() * 8 / 9;
    (50_000 / inp.shrink).min(fit).max(1)
}

/// The per-transmission medium path: bring the tracker to `now`, then one
/// exact neighbor query, transmissions a 512-byte airtime apart. A mobile
/// script pays update + query, a static one query only.
fn medium(inp: &Inputs<'_>) -> Vec<Metric> {
    let phy = inp.scenario.mac.phy;
    let airtime = phy.airtime(512 + 34);
    let mut tracker = PositionTracker::new(inp.script, phy.cs_range_m);
    let n = inp.script.len() as u64;
    let mut out = Vec::new();
    let mut now = SimTime::ZERO;
    let per_tx = ns_per_op(airtimes_within(inp, airtime), |i| {
        tracker.sync_to(inp.script, now);
        out.clear();
        MediumView::new(&tracker, inp.script, now).neighbors_within(
            (i * STRIDE % n) as usize,
            phy.cs_range_m,
            &mut out,
        );
        black_box(out.len());
        now += airtime;
    });
    vec![("runner.medium.replay_ns_per_tx", per_tx)]
}

/// The channel at the workload's degree: start a broadcast data frame,
/// then the batched completion walk the production engine performs.
fn channel(inp: &Inputs<'_>) -> Vec<Metric> {
    let phy = inp.scenario.mac.phy;
    let mut tracker = PositionTracker::new(inp.script, phy.cs_range_m);
    let n = inp.script.len();
    let mut chan: Channel<u32> = Channel::new(n, phy);
    let gap = SimDuration::from_micros(50);
    let ops = airtimes_within(inp, phy.airtime(512 + 34) + gap);
    let (mut begin_ns, mut finish_ns, mut signals) = (0u128, 0u128, 0u64);
    let mut now = SimTime::ZERO;
    for i in 0..ops + ops / 8 {
        let frame = Frame {
            kind: FrameKind::Data,
            src: (i * STRIDE % n as u64) as usize,
            dst: None,
            bytes: 512 + 34,
            nav: SimDuration::ZERO,
            payload: Some(0u32),
            seq: i,
        };
        tracker.sync_to(inp.script, now);
        let view = MediumView::new(&tracker, inp.script, now);
        let t0 = Instant::now();
        let begin = chan.begin_tx(frame, now, &view);
        let t1 = Instant::now();
        now += begin.airtime;
        let receivers = chan.take_tx_receivers(begin.tx_id);
        for r in &receivers {
            black_box(
                chan.finish_rx_batched(r.node as usize, begin.tx_id, now)
                    .frame,
            );
        }
        let count = receivers.len() as u64;
        chan.recycle_receivers(receivers);
        chan.finish_tx_batched(begin.tx_id);
        let t2 = Instant::now();
        if i >= ops / 8 {
            begin_ns += (t1 - t0).as_nanos();
            finish_ns += (t2 - t1).as_nanos();
            signals += count;
        }
        now += gap;
    }
    vec![
        (
            "radio.channel.ns_per_begin_tx",
            begin_ns as f64 / ops as f64,
        ),
        (
            "radio.channel.ns_per_finish_rx",
            finish_ns as f64 / signals.max(1) as f64,
        ),
    ]
}

/// The MAC state machine through the buffer-reusing entry points the
/// harness uses: one broadcast contention cycle (enqueue → timers → start
/// → end of transmission), and the unicast receive path with its ACK.
fn mac(inp: &Inputs<'_>) -> Vec<Metric> {
    let cfg = inp.scenario.mac;
    let ops = 100_000 / inp.shrink;
    let mut fx: Vec<MacEffect<u32>> = Vec::new();

    let mut mac: Mac<u32> = Mac::new(0, cfg, 7);
    let mut now = SimTime::ZERO;
    let broadcast = ns_per_op(ops, |_| {
        fx.clear();
        mac.enqueue_into(1, None, 48, true, now, &mut fx);
        for _ in 0..4 {
            let timer = fx.iter().find_map(|e| match e {
                MacEffect::SetTimer(k, d) => Some((*k, *d)),
                _ => None,
            });
            let Some((kind, delay)) = timer else { break };
            now += delay;
            fx.clear();
            mac.on_timer_into(kind, now, &mut fx);
            if fx.iter().any(|e| matches!(e, MacEffect::StartTx(_))) {
                now += SimDuration::from_micros(500);
                fx.clear();
                mac.on_tx_end_into(now, &mut fx);
                break;
            }
        }
        now += SimDuration::from_micros(100);
    });

    let mut mac: Mac<u32> = Mac::new(0, cfg, 7);
    let mut now = SimTime::ZERO;
    let rx = ns_per_op(ops, |i| {
        now += SimDuration::from_millis(1);
        let frame = Frame {
            kind: FrameKind::Data,
            src: 3,
            dst: Some(0),
            bytes: 512 + 34,
            nav: SimDuration::ZERO,
            payload: Some(9u32),
            seq: i + 1,
        };
        fx.clear();
        mac.on_rx_frame_into(frame, now, &mut fx);
        black_box(fx.len());
        // Send the ACK so the state machine returns to idle.
        now += SimDuration::from_micros(10);
        fx.clear();
        mac.on_timer_into(MacTimer::RespSifs, now, &mut fx);
        now += SimDuration::from_micros(300);
        fx.clear();
        mac.on_tx_end_into(now, &mut fx);
    });
    vec![
        ("radio.mac.ns_per_broadcast_cycle", broadcast),
        ("radio.mac.ns_per_rx_unicast", rx),
    ]
}

/// `on_control_received` on one node of each protocol the workload runs,
/// its tables grown to the workload's size first: an on-demand protocol
/// learns the endpoints of the flows (a route per request originator), a
/// link-state one learns every node.
fn protocols(inp: &Inputs<'_>) -> Vec<Metric> {
    let n = inp.scenario.nodes;
    let origins = (2 * inp.scenario.flows()).clamp(1, n.saturating_sub(4).max(1)) as u64;
    let mut rng = SmallRng::seed_from_u64(1);
    let mut out = Vec::new();
    // The replayed node is 1, its neighbor 3, the sought destination 2;
    // originators start at 4.
    let mut rreq = |kind: ProtocolKind, make: &dyn Fn(usize, u64) -> ControlPacket| -> f64 {
        if !inp.protocols.contains(&kind) {
            return 0.0;
        }
        let mut node = kind.build(1);
        ns_per_op(20_000 / inp.shrink, |i| {
            // Distinct floods reach a node about every 100 ms in these
            // workloads; at that spacing duplicate caches expire as in a
            // trial while every originator's route stays fresh.
            let mut ctx = ProtoCtx {
                now: SimTime::from_secs(1) + SimDuration::from_millis(100 * i),
                rng: &mut rng,
            };
            let packet = make(4 + (i % origins) as usize, i + 1);
            black_box(node.on_control_received(&mut ctx, 3, packet).len());
        })
    };
    out.push((
        "protocols.srp.ns_per_rreq",
        rreq(ProtocolKind::Srp, &|src, id| {
            ControlPacket::Srp(SrpMessage::Rreq(SrpRreq {
                src,
                rreq_id: id,
                dst: 2,
                dst_seqno: 0,
                fd: Fraction::one(),
                unknown: true,
                reset: false,
                dest_only: false,
                no_advert: false,
                d: 1,
                ttl: 5,
                src_seqno: 1,
                src_lfd: Fraction::new(1, 2).expect("proper fraction"),
                src_ld: 1,
            }))
        }),
    ));
    out.push((
        "protocols.aodv.ns_per_rreq",
        rreq(ProtocolKind::Aodv, &|orig, id| {
            ControlPacket::Aodv(AodvMessage::Rreq(AodvRreq {
                orig,
                orig_seqno: id,
                rreq_id: id,
                dst: 2,
                dst_seqno: 0,
                unknown: true,
                hop_count: 1,
                ttl: 5,
            }))
        }),
    ));
    out.push((
        "protocols.dsr.ns_per_rreq",
        rreq(ProtocolKind::Dsr, &|orig, id| {
            ControlPacket::Dsr(DsrMessage::Rreq(DsrRreq {
                orig,
                rreq_id: id,
                target: 2,
                route: vec![orig, 3],
                ttl: 5,
            }))
        }),
    ));
    out.push((
        "protocols.ldr.ns_per_rreq",
        rreq(ProtocolKind::Ldr, &|orig, id| {
            ControlPacket::Ldr(LdrMessage::Rreq(LdrRreq {
                orig,
                rreq_id: id,
                dst: 2,
                dst_seqno: 0,
                fd: u32::MAX,
                unknown: true,
                reset: false,
                hop_count: 1,
                ttl: 5,
            }))
        }),
    ));
    let (hello, tc) = if inp.protocols.contains(&ProtocolKind::Olsr) {
        olsr(inp, &mut rng)
    } else {
        (0.0, 0.0)
    };
    out.push(("protocols.olsr.ns_per_hello", hello));
    out.push(("protocols.olsr.ns_per_tc", tc));
    out
}

/// OLSR on node 0 of a ring lattice with the workload's node count and
/// mean degree: HELLOs from its neighbors, then TCs from every node, each
/// of which recomputes the routing table over the whole learnt topology.
/// Messages are 1 µs apart, so nothing learnt expires during the replay.
fn olsr(inp: &Inputs<'_>, rng: &mut SmallRng) -> (f64, f64) {
    let n = inp.scenario.nodes;
    let tracker = PositionTracker::new(inp.script, inp.scenario.mac.phy.cs_range_m);
    let mut buf = Vec::new();
    for node in 0..n {
        tracker
            .index()
            .neighbors_within(node, inp.scenario.mac.phy.rx_range_m, &mut buf);
    }
    let half = (buf.len() / n / 2).clamp(1, (n - 1) / 2);
    let around = |v: usize| -> Vec<usize> {
        (1..=half)
            .flat_map(|k| [(v + k) % n, (v + n - k) % n])
            .collect()
    };
    let neighbors = around(0);
    let mut node = ProtocolKind::Olsr.build(0);
    let mut now = SimTime::from_secs(1);
    let mut deliver = |packet: OlsrMessage, from: usize| {
        now += SimDuration::from_micros(1);
        let mut ctx = ProtoCtx { now, rng };
        black_box(
            node.on_control_received(&mut ctx, from, ControlPacket::Olsr(packet))
                .len(),
        );
    };
    let ops = 4_000 / inp.shrink;
    let hello = ns_per_op(ops.max(2 * neighbors.len() as u64), |i| {
        let origin = neighbors[i as usize % neighbors.len()];
        deliver(
            OlsrMessage::Hello(OlsrHello {
                origin,
                sym_neighbors: around(origin),
                heard_neighbors: Vec::new(),
                mprs: vec![0],
            }),
            origin,
        );
    });
    let tc = ns_per_op(ops.max(2 * n as u64), |i| {
        let origin = 1 + i as usize % (n - 1);
        deliver(
            OlsrMessage::Tc(OlsrTc {
                origin,
                seq: i + 1,
                selectors: around(origin),
                ttl: 8,
            }),
            neighbors[i as usize % neighbors.len()],
        );
    });
    (hello, tc)
}

/// The label algebra under SRP: Algorithm 1 over its four cases, mediant
/// splitting down the worst-case (Fibonacci) chain, and label interning
/// over as many distinct labels as the workload has nodes.
fn core(inp: &Inputs<'_>) -> Vec<Metric> {
    if !inp.protocols.contains(&ProtocolKind::Srp) {
        return vec![
            ("core.neworder.ns_per_call", 0.0),
            ("core.fraction.ns_per_mediant", 0.0),
            ("core.intern.ns_per_intern", 0.0),
        ];
    }
    let ops = 400_000 / inp.shrink;
    let label = |sn: u64, num: u32, den: u32| -> SplitLabel<u32> {
        SplitLabel::new(sn, Fraction::new(num, den).expect("proper fraction"))
    };
    // (own, cached, advertised): next-element, split, keep-own, infeasible.
    let cases = [
        (label(1, 1, 2), label(1, 2, 3), label(2, 1, 3)),
        (label(1, 1, 2), label(2, 2, 3), label(2, 1, 3)),
        (label(3, 1, 2), label(3, 2, 3), label(3, 1, 3)),
        (label(5, 1, 2), label(0, 1, 1), label(4, 1, 3)),
    ];
    let neworder = ns_per_op(ops, |i| {
        let (own, cached, adv) = cases[i as usize % cases.len()];
        black_box(new_order(black_box(own), black_box(cached), black_box(adv)));
    });
    let (mut a, mut b) = (Frac32::zero(), Frac32::one());
    let mediant = ns_per_op(ops, |_| match black_box(a).checked_mediant(&black_box(b)) {
        Some(m) => (a, b) = (b, m),
        None => (a, b) = (Frac32::zero(), Frac32::one()),
    });
    let distinct = inp.scenario.nodes.clamp(2, 1 << 20) as u64;
    let mut interner: LabelInterner<u32> = LabelInterner::new();
    let intern = ns_per_op(ops, |i| {
        let num = (i * STRIDE % distinct) as u32;
        black_box(interner.intern(label(1, num, distinct as u32)));
    });
    vec![
        ("core.neworder.ns_per_call", neworder),
        ("core.fraction.ns_per_mediant", mediant),
        ("core.intern.ns_per_intern", intern),
    ]
}

/// The cost floor of one pooled window: an empty job through the pool the
/// parallel engine stands up, at the workload's worker count.
fn pool(inp: &Inputs<'_>) -> Vec<Metric> {
    let workers = inp.workers;
    let barrier = with_core_pool(workers - 1, |pool| {
        let session = pool.session();
        ns_per_op(20_000 / inp.shrink, |_| {
            session.run_window(workers, &|shard| {
                black_box(shard);
            });
        })
    });
    vec![("netsim.pool.ns_per_barrier", barrier)]
}
