//! The sweep/statistics/report pipeline end to end, plus regression
//! coverage for loss accounting (TTL expiry must show up as a loss, not
//! vanish from the delivery denominator).

use slr_mobility::Position;
use slr_netsim::admittance::DynAction;
use slr_netsim::time::SimTime;
use slr_protocols::{
    DataDropReason, DataPacket, ProtoCtx, ProtoEffect, ProtoStats, RoutingProtocol,
};
use slr_runner::experiment::{run_sweep, Metric, SweepConfig};
use slr_runner::registry::{Family, SweepParam};
use slr_runner::report::{render_figure, render_json, render_table1, render_trend};
use slr_runner::scenario::{ProtocolKind, Scenario};
use slr_runner::sim::Sim;
use slr_runner::stats::MeanCi;
use slr_runner::trace::{PacketFate, TraceEvent};
use slr_runner::Metrics;
use slr_traffic::{PacketSpec, TrafficScript};

#[test]
fn sweep_statistics_and_reports() {
    let cfg = SweepConfig {
        seed: 5,
        trials: 2,
        values: vec![150],
        threads: 2,
        ..SweepConfig::default()
    };
    let protocols = [ProtocolKind::Srp, ProtocolKind::Ldr];
    let result = run_sweep(&protocols, &cfg);

    // Every cell has exactly `trials` samples.
    for p in &protocols {
        let m = result.point(*p, 150, Metric::DeliveryRatio);
        assert_eq!(m.n, 2);
        assert!(m.mean > 0.0 && m.mean <= 1.0);
    }

    // Table and figures render with all rows.
    let table = render_table1(&result);
    assert!(table.contains("SRP") && table.contains("LDR"));
    for (metric, title) in [
        (Metric::MacDrops, "Fig. 3"),
        (Metric::DeliveryRatio, "Fig. 4"),
        (Metric::NetworkLoad, "Fig. 5"),
        (Metric::Latency, "Fig. 6"),
        (Metric::AvgSeqno, "Fig. 7"),
    ] {
        let fig = render_figure(&result, metric, title);
        assert!(fig.contains(title));
        assert!(fig.contains("150"));
    }
    let trend = render_trend(&result, Metric::DeliveryRatio);
    assert!(trend.contains("SRP"));

    // JSON export carries the same aggregates.
    let json = render_json(&result);
    assert!(json.contains("\"family\": \"paper-sweep\""));
    assert!(json.contains("\"protocol\":\"SRP\""));
    assert!(json.contains("\"value\":150"));
    assert_eq!(json.matches('{').count(), json.matches('}').count());

    // Table-I style aggregation equals the single-pause point here.
    let overall = result.overall(ProtocolKind::Srp, Metric::DeliveryRatio);
    let point = result.point(ProtocolKind::Srp, 150, Metric::DeliveryRatio);
    assert!((overall.mean - point.mean).abs() < 1e-12);
}

/// An adversarial protocol that bounces every data packet back to its
/// sender — the worst-case transient forwarding loop (what OLSR does
/// briefly with stale topology views), guaranteed to exhaust `DATA_TTL`.
struct PingPong {
    node: usize,
}

impl RoutingProtocol for PingPong {
    fn name(&self) -> &'static str {
        "PINGPONG"
    }
    fn on_start(&mut self, _ctx: &mut ProtoCtx<'_>) -> Vec<ProtoEffect> {
        Vec::new()
    }
    fn on_data_from_app(
        &mut self,
        _ctx: &mut ProtoCtx<'_>,
        mut packet: DataPacket,
    ) -> Vec<ProtoEffect> {
        packet.ttl -= 1;
        let next_hop = 1 - self.node;
        vec![ProtoEffect::SendData { packet, next_hop }]
    }
    fn on_data_received(
        &mut self,
        _ctx: &mut ProtoCtx<'_>,
        from: usize,
        mut packet: DataPacket,
    ) -> Vec<ProtoEffect> {
        if packet.dst == self.node {
            return vec![ProtoEffect::DeliverLocal(packet)];
        }
        if packet.ttl == 0 {
            return vec![ProtoEffect::DropData {
                packet,
                reason: DataDropReason::TtlExpired,
            }];
        }
        packet.ttl -= 1;
        vec![ProtoEffect::SendData {
            packet,
            next_hop: from,
        }]
    }
    fn on_control_received(
        &mut self,
        _ctx: &mut ProtoCtx<'_>,
        _from: usize,
        _packet: slr_protocols::ControlPacket,
    ) -> Vec<ProtoEffect> {
        Vec::new()
    }
    fn on_timer(&mut self, _ctx: &mut ProtoCtx<'_>, _token: u64) -> Vec<ProtoEffect> {
        Vec::new()
    }
    fn on_link_failure(
        &mut self,
        _ctx: &mut ProtoCtx<'_>,
        _next_hop: usize,
        _packet: Option<DataPacket>,
    ) -> Vec<ProtoEffect> {
        Vec::new()
    }
    fn stats(&self) -> ProtoStats {
        ProtoStats::default()
    }
}

#[test]
fn ttl_expiry_is_counted_as_a_loss() {
    // Regression: a packet whose TTL burns out in a forwarding loop must
    // be recorded as a ttl-expired drop AND stay in the delivery
    // denominator — transient-loop losses (e.g. OLSR's) must not
    // silently vanish from delivery statistics.
    let mut scenario = Scenario::quick(ProtocolKind::Olsr, 0, 1, 0);
    scenario.nodes = 3;
    scenario.end = SimTime::from_secs(20);
    // Nodes 0 and 1 adjacent; the destination (node 2) is far out of
    // range, so the packet ping-pongs between 0 and 1 until TTL = 0.
    let positions = vec![
        Position::new(0.0, 0.0),
        Position::new(50.0, 0.0),
        Position::new(100_000.0, 0.0),
    ];
    let traffic = TrafficScript::from_packets(vec![PacketSpec {
        time: SimTime::from_secs(1),
        src: 0,
        dst: 2,
        bytes: 512,
        flow: 0,
    }]);
    let protos: Vec<Box<dyn RoutingProtocol>> = (0..3)
        .map(|i| Box::new(PingPong { node: i }) as Box<dyn RoutingProtocol>)
        .collect();
    let mut sim = Sim::with_protocols(scenario, positions, traffic, protos);
    sim.enable_trace(16);
    let (summary, trace) = sim.run_traced();

    assert_eq!(summary.originated, 1);
    assert_eq!(summary.delivered, 0);
    assert_eq!(
        summary.delivery_ratio, 0.0,
        "TTL-expired packet must count against delivery"
    );
    assert_eq!(
        trace.fate(0),
        PacketFate::Dropped(DataDropReason::TtlExpired),
        "trace: {}",
        trace.render(0)
    );
    // The packet consumed exactly DATA_TTL forwarding transmissions.
    assert_eq!(trace.hop_count(0) as u8, slr_protocols::DATA_TTL);
}

#[test]
fn ttl_drop_lands_in_the_metrics_breakdown() {
    let mut scenario = Scenario::quick(ProtocolKind::Olsr, 0, 2, 0);
    scenario.nodes = 3;
    scenario.end = SimTime::from_secs(20);
    let positions = vec![
        Position::new(0.0, 0.0),
        Position::new(50.0, 0.0),
        Position::new(100_000.0, 0.0),
    ];
    let traffic = TrafficScript::from_packets(vec![PacketSpec {
        time: SimTime::from_secs(1),
        src: 0,
        dst: 2,
        bytes: 512,
        flow: 0,
    }]);
    let protos: Vec<Box<dyn RoutingProtocol>> = (0..3)
        .map(|i| Box::new(PingPong { node: i }) as Box<dyn RoutingProtocol>)
        .collect();
    let (summary, metrics) =
        Sim::with_protocols(scenario, positions, traffic, protos).run_detailed();
    assert_eq!(metrics.drops.get("ttl-expired"), Some(&1));
    // Accounting identity: everything originated is delivered or dropped.
    let dropped: u64 = metrics.drops.values().sum();
    assert_eq!(summary.originated, summary.delivered + dropped);
}

#[test]
fn confidence_intervals_behave() {
    let tight = MeanCi::from_samples(&[1.0, 1.0, 1.0, 1.0]);
    assert_eq!(tight.ci95, 0.0);
    let loose = MeanCi::from_samples(&[0.0, 2.0]);
    assert!(loose.ci95 > 1.0);
    assert!(tight.overlaps(&MeanCi::from_samples(&[1.0, 1.0])));
}

/// A traced crash-rejoin trial on a static 4×4 grid (180 m spacing)
/// whose interface queues hold two frames, so they overflow, with one
/// flow source (node 0) crashed from 12 s to 16 s, so that its offered
/// packets are lost as `node-down`. Three CBR flows at 20 packets/s.
fn lossy_crash_rejoin_trial(kind: ProtocolKind) -> Sim {
    let mut scenario = Family::CrashRejoin.scenario_at(kind, 3, 0, false, SweepParam::Nodes, 16);
    scenario.mac.queue_capacity = 2;
    scenario.end = SimTime::from_secs(25);
    let positions = (0..16)
        .map(|i| Position::new(180.0 * (i % 4) as f64, 180.0 * (i / 4) as f64))
        .collect();
    let packets = [(0, 15), (3, 12), (5, 10)]
        .iter()
        .enumerate()
        .flat_map(|(flow, &(src, dst))| {
            (0..300).map(move |k| PacketSpec {
                time: SimTime::from_millis(5_000 + 50 * k + 7 * flow as u64),
                src,
                dst,
                bytes: 512,
                flow,
            })
        })
        .collect();
    let mut sim =
        Sim::with_static_topology(scenario, positions, TrafficScript::from_packets(packets));
    sim.inject_dynamics(SimTime::from_secs(12), DynAction::NodeCrash(0));
    sim.inject_dynamics(SimTime::from_secs(16), DynAction::NodeRejoin(0));
    sim
}

/// The packet trace and the metrics count the same packets: every
/// origination, forwarding transmission, drop (by reason, interface-queue
/// overflows and crashed sources included) and delivery the metrics count
/// is in the trace, and every traced packet ends delivered, dropped or
/// — only when lost inside a crashed node or still queued at the end —
/// in flight.
#[test]
fn trace_agrees_with_metrics() {
    for kind in ProtocolKind::all() {
        let (summary, trace) = lossy_crash_rejoin_trial(kind).run_traced();
        let (_, metrics) = lossy_crash_rejoin_trial(kind).run_detailed();
        let name = kind.name();
        let events = || trace.iter().flat_map(|(_, evs)| evs.iter());
        let originated = events()
            .filter(|e| matches!(e, TraceEvent::Originated { .. }))
            .count() as u64;
        let forwarded = events()
            .filter(|e| matches!(e, TraceEvent::Forwarded { .. }))
            .count() as u64;
        let mut traced_drops = Metrics::new();
        for e in events() {
            if let TraceEvent::Dropped { reason, .. } = e {
                traced_drops.record_drop(*reason);
            }
        }
        let delivered = trace
            .iter()
            .filter(|(_, evs)| {
                evs.iter()
                    .any(|e| matches!(e, TraceEvent::Delivered { .. }))
            })
            .count() as u64;
        let (mut fate_delivered, mut fate_dropped, mut in_flight) = (0u64, 0u64, 0u64);
        for (uid, _) in trace.iter() {
            match trace.fate(uid) {
                PacketFate::Delivered => fate_delivered += 1,
                PacketFate::Dropped(_) => fate_dropped += 1,
                PacketFate::InFlight => in_flight += 1,
            }
        }
        assert_eq!(originated, metrics.data_originated, "{name}: originations");
        assert_eq!(
            originated, summary.originated,
            "{name}: summary originations"
        );
        assert_eq!(
            forwarded, metrics.data_tx,
            "{name}: forwarding transmissions"
        );
        assert!(
            metrics.drops.contains_key("ifq-overflow") && metrics.drops.contains_key("node-down"),
            "{name}: the trial must run both harness drop paths: {:?}",
            metrics.drops
        );
        assert_eq!(traced_drops.drops, metrics.drops, "{name}: drops by reason");
        assert_eq!(delivered, metrics.data_delivered, "{name}: deliveries");
        // Packets a crash wipes out of a node's queues are counted
        // nowhere, so a few may end in flight: the fates must still add up.
        let dropped: u64 = metrics.drops.values().sum();
        assert_eq!(
            (fate_delivered, fate_dropped),
            (metrics.data_delivered, dropped),
            "{name}: fates"
        );
        assert_eq!(
            metrics.data_originated,
            fate_delivered + fate_dropped + in_flight,
            "{name}: every originated packet has one fate"
        );
    }
}
