//! Cross-crate machine check of Theorem 3: SRP stays loop-free at every
//! instant of a full wireless simulation with mobility, contention, losses
//! and link failures.

use slr_core::{Fraction, SplitLabel32, SuccessorEdge};
use slr_mobility::Position;
use slr_netsim::time::{SimDuration, SimTime};
use slr_protocols::{
    ControlPacket, DataPacket, NodeId, ProtoCtx, ProtoEffect, ProtoStats, RoutingProtocol,
    SuccessorView,
};
use slr_runner::scenario::{ProtocolKind, Scenario};
use slr_runner::sim::Sim;
use slr_traffic::TrafficScript;

#[test]
fn srp_loop_free_during_mobile_simulation() {
    // A scaled-down mobile scenario: constant mobility (pause 0) drives
    // route churn; the oracle checks the global successor graph every
    // simulated second for cycles and label-order violations.
    let mut scenario = Scenario::quick(ProtocolKind::Srp, 0, 1234, 0);
    scenario.nodes = 30;
    scenario.end = SimTime::from_secs(80);
    scenario.set_flows(8);
    let (summary, _soft) = Sim::new(scenario).run_with_loop_oracle(SimDuration::from_secs(1));
    // Some traffic must actually have flowed for the check to mean much.
    assert!(
        summary.originated > 500,
        "originated {}",
        summary.originated
    );
    assert!(
        summary.delivery_ratio > 0.5,
        "delivery {}",
        summary.delivery_ratio
    );
}

#[test]
fn srp_loop_free_across_seeds() {
    for seed in [1u64, 2, 3] {
        let mut scenario = Scenario::quick(ProtocolKind::Srp, 50, seed, 0);
        scenario.nodes = 20;
        scenario.end = SimTime::from_secs(40);
        scenario.set_flows(5);
        let (_, _) = Sim::new(scenario).run_with_loop_oracle(SimDuration::from_secs(2));
    }
}

#[test]
fn srp_never_increments_sequence_numbers_under_churn() {
    // The Fig. 7 invariant, end to end: mediant splitting absorbs all
    // repair work; the destination-controlled sequence number never moves.
    let mut scenario = Scenario::quick(ProtocolKind::Srp, 0, 77, 0);
    scenario.nodes = 30;
    scenario.end = SimTime::from_secs(60);
    scenario.set_flows(8);
    let summary = Sim::new(scenario).run();
    assert_eq!(summary.avg_seqno, 0.0, "SRP seqno must stay fixed");
    // And the denominators stay far below the 32-bit reset threshold.
    assert!(summary.max_fd_denominator < 1_000_000_000);
}

/// A silent protocol whose successor graph toward destination 0 is fixed
/// at construction: plants a chosen graph in front of the harness oracle.
struct Planted {
    node: NodeId,
    label: SplitLabel32,
    succs: Vec<(NodeId, SplitLabel32)>,
}

impl RoutingProtocol for Planted {
    fn name(&self) -> &'static str {
        "PLANTED"
    }
    fn on_start(&mut self, _ctx: &mut ProtoCtx<'_>) -> Vec<ProtoEffect> {
        Vec::new()
    }
    fn on_data_from_app(&mut self, _ctx: &mut ProtoCtx<'_>, _p: DataPacket) -> Vec<ProtoEffect> {
        Vec::new()
    }
    fn on_data_received(
        &mut self,
        _ctx: &mut ProtoCtx<'_>,
        _from: NodeId,
        _p: DataPacket,
    ) -> Vec<ProtoEffect> {
        Vec::new()
    }
    fn on_control_received(
        &mut self,
        _ctx: &mut ProtoCtx<'_>,
        _from: NodeId,
        _p: ControlPacket,
    ) -> Vec<ProtoEffect> {
        Vec::new()
    }
    fn on_timer(&mut self, _ctx: &mut ProtoCtx<'_>, _token: u64) -> Vec<ProtoEffect> {
        Vec::new()
    }
    fn on_link_failure(
        &mut self,
        _ctx: &mut ProtoCtx<'_>,
        _next_hop: NodeId,
        _p: Option<DataPacket>,
    ) -> Vec<ProtoEffect> {
        Vec::new()
    }
    fn stats(&self) -> ProtoStats {
        ProtoStats::default()
    }
    fn successor_view(&self) -> Option<&dyn SuccessorView> {
        Some(self)
    }
}

impl SuccessorView for Planted {
    fn destinations(&self, out: &mut Vec<NodeId>) {
        if !self.succs.is_empty() {
            out.push(0);
        }
    }
    fn label(&self, dst: NodeId) -> SplitLabel32 {
        if dst == 0 {
            self.label
        } else {
            SplitLabel32::unassigned()
        }
    }
    fn successors(&self, dst: NodeId, _now: SimTime, out: &mut Vec<SuccessorEdge<u32>>) {
        if dst == 0 {
            out.extend(self.succs.iter().map(|&(to, recorded)| SuccessorEdge {
                from: self.node,
                to,
                own: self.label,
                recorded,
            }));
        }
    }
}

fn l(num: u32, den: u32) -> SplitLabel32 {
    SplitLabel32::new(1, Fraction::new(num, den).unwrap())
}

/// The oracle's verdict on a 3-node trial whose nodes hold `graph`
/// (each node's label and successors toward destination 0).
fn oracle_on(graph: [(SplitLabel32, Vec<(NodeId, SplitLabel32)>); 3]) -> Result<u64, String> {
    let mut scenario = Scenario::quick(ProtocolKind::Srp, 0, 1, 0);
    scenario.nodes = 3;
    let positions = (0..3)
        .map(|i| Position::new(50.0 * i as f64, 0.0))
        .collect();
    let protos = graph
        .into_iter()
        .enumerate()
        .map(|(node, (label, succs))| {
            Box::new(Planted { node, label, succs }) as Box<dyn RoutingProtocol>
        })
        .collect();
    Sim::with_protocols(
        scenario,
        positions,
        TrafficScript::from_packets(vec![]),
        protos,
    )
    .check_loop_freedom()
}

#[test]
fn oracle_accepts_an_ordered_successor_chain() {
    // 2 -> 1 -> 0, each edge recorded one step below its owner.
    let verdict = oracle_on([
        (SplitLabel32::destination(1), vec![]),
        (l(1, 2), vec![(0, l(0, 1))]),
        (l(2, 3), vec![(1, l(1, 2))]),
    ]);
    assert_eq!(verdict, Ok(0));
}

#[test]
fn oracle_reports_a_cycle_of_locally_ordered_edges() {
    // 1 <-> 2: each edge satisfies own ≺ recorded on its own, so only
    // the Theorem 3 acyclicity check can see the loop.
    let err = oracle_on([
        (SplitLabel32::destination(1), vec![]),
        (l(3, 4), vec![(2, l(2, 3))]),
        (l(2, 3), vec![(1, l(1, 2))]),
    ])
    .unwrap_err();
    assert!(
        err.starts_with("Theorem 3 broken for dest 0: successor cycle [1, 2]"),
        "{err}"
    );
}

#[test]
fn oracle_reports_an_edge_out_of_order() {
    // Node 1's own label equals the ordering it recorded for 0: not a
    // strict precedence, so Definition 1 is broken without any cycle.
    let err = oracle_on([
        (SplitLabel32::destination(1), vec![]),
        (l(1, 2), vec![(0, l(1, 2))]),
        (SplitLabel32::unassigned(), vec![]),
    ])
    .unwrap_err();
    assert!(
        err.starts_with("Definition 1 broken for dest 0: edge 1 -> 0"),
        "{err}"
    );
}
