//! Per-trial metric collection: exactly the quantities the paper reports.

use std::collections::BTreeMap;

use slr_netsim::admittance::DynAction;
use slr_netsim::time::SimTime;
use slr_protocols::DataDropReason;

/// Counters accumulated during one trial.
#[derive(Debug, Clone, Default)]
pub struct Metrics {
    /// CBR packets handed to the routing layer at their sources.
    pub data_originated: u64,
    /// CBR packets delivered at their destinations (unique uids).
    pub data_delivered: u64,
    /// Duplicate deliveries suppressed (multipath/salvage artifacts).
    pub duplicate_deliveries: u64,
    /// Sum of end-to-end latencies of delivered packets (seconds).
    pub latency_sum: f64,
    /// Routing control packets handed to the MAC (per-hop transmissions;
    /// the "network load" numerator).
    pub control_sent: u64,
    /// Control packets by type name.
    pub control_by_kind: BTreeMap<&'static str, u64>,
    /// Data-plane forwarding transmissions (per hop).
    pub data_tx: u64,
    /// Routing-layer data drops by reason.
    pub drops: BTreeMap<&'static str, u64>,
    /// MAC-level drops summed over nodes (retry limit + IFQ overflow).
    pub mac_drops: u64,
    /// MAC drops from exhausted unicast retries.
    pub mac_drop_retry: u64,
    /// MAC drops from interface-queue overflow.
    pub mac_drop_ifq: u64,
    /// Unicast data-frame transmissions at the MAC (incl. retries).
    pub mac_tx_data: u64,
    /// Link failures where the next hop was physically in range
    /// (contention-induced false failures).
    pub link_failures_in_range: u64,
    /// Link failures where the next hop had moved out of range.
    pub link_failures_out_of_range: u64,
    /// Link failures where the next hop was administratively gated by
    /// network dynamics (churn outage, partition, crashed node).
    pub link_failures_gated: u64,
    /// Administrative link-down events applied.
    pub dynamics_link_down: u64,
    /// Administrative link-up (repair) events applied.
    pub dynamics_link_up: u64,
    /// Node crash events applied.
    pub dynamics_crashes: u64,
    /// Node rejoin events applied.
    pub dynamics_rejoins: u64,
    /// Partition set/clear events applied.
    pub dynamics_partition_events: u64,
    /// Sum of route-repair-episode latencies in seconds. An episode
    /// opens at a disruptive dynamics event (further disruptions while
    /// it is open do not start new episodes) and closes at the next
    /// first-time delivery of any packet — i.e. this measures how long
    /// the network as a whole goes without delivering after disruption
    /// begins, not a per-event or per-flow repair time.
    pub route_repair_latency_sum: f64,
    /// Number of closed route-repair episodes.
    pub route_repairs: u64,
    /// Loop-freedom oracle checkpoints executed (0 when not under the
    /// oracle).
    pub oracle_checks: u64,
    /// Soft label-order violations the oracle observed (hard violations
    /// abort the trial).
    pub oracle_soft_violations: u64,
    /// Channel collisions observed.
    pub collisions: u64,
    /// Discrete events the simulator processed. Engine-dependent by
    /// design (the batched engine folds a transmission's receiver
    /// completions into one event), so it lives here for diagnostics and
    /// benchmarks but is deliberately *not* part of [`TrialSummary`],
    /// whose equality is the cross-engine bit-identity check.
    pub sim_events: u64,
    /// Sum over nodes of own-sequence-number increments (Fig. 7).
    pub seqno_increments_total: u64,
    /// Largest SRP feasible-distance denominator seen on any node.
    pub max_fd_denominator: u64,
    /// Route discoveries summed over nodes.
    pub discoveries: u64,
    /// Path resets requested (SRP/LDR).
    pub resets: u64,
    /// Adversarial actions performed (forgeries, replays, drops, delays,
    /// sybil floods) summed over adversarial nodes; 0 in honest trials.
    pub adversary_actions: u64,
    /// Control packets the audit layer rejected at honest nodes (SRP
    /// RREQs impersonating their source at distance 0, and everything a
    /// blacklisted neighbor sends); 0 in honest trials.
    pub audit_rejections: u64,
    /// Sum over first-time deliveries of geodesic stretch: hops taken
    /// divided by the minimum hop count at radio range over the
    /// straight-line src–dst distance. Like `sim_events`, it is
    /// diagnostics, not [`TrialSummary`].
    pub stretch_sum: f64,
    /// First-time deliveries contributing to `stretch_sum`.
    pub stretch_count: u64,
    delivered_uids: DeliveryLedger,
}

/// Bounded delivery dedup over flow-structured uids
/// (`(flow << 32) | seq`, see `TrafficScript::uid`).
///
/// A set of every delivered uid grows without bound for the whole trial —
/// at 100k nodes with long durations that set alone rivals the protocol
/// state. The ledger instead keeps one bit window per flow: a `base`
/// below which every seq is known delivered, plus a bitset for the seqs
/// above it. Fully-delivered leading words compact into `base`, so the
/// window tracks the reorder span (bounded by one flow's in-flight
/// packets), not the trial length. Dedup decisions are exactly those of
/// such a set: a (flow, seq) pair is accepted the first time it is seen
/// and rejected after.
#[derive(Debug, Clone, Default)]
struct DeliveryLedger {
    flows: Vec<FlowWindow>,
}

#[derive(Debug, Clone, Default)]
struct FlowWindow {
    /// Every seq below this is delivered.
    base: u32,
    /// Delivery bits for seqs `base .. base + 64 * bits.len()`.
    bits: Vec<u64>,
}

impl FlowWindow {
    /// Returns `true` if `seq` was not delivered before, marking it.
    fn insert(&mut self, seq: u32) -> bool {
        if seq < self.base {
            return false;
        }
        let off = (seq - self.base) as usize;
        let (word, bit) = (off / 64, off % 64);
        if word >= self.bits.len() {
            self.bits.resize(word + 1, 0);
        }
        let mask = 1u64 << bit;
        if self.bits[word] & mask != 0 {
            return false;
        }
        self.bits[word] |= mask;
        let lead = self.bits.iter().take_while(|&&w| w == u64::MAX).count();
        if lead > 0 {
            self.bits.drain(..lead);
            self.base += (lead * 64) as u32;
        }
        true
    }

    fn mem_bytes(&self) -> usize {
        self.bits.capacity() * std::mem::size_of::<u64>()
    }
}

impl DeliveryLedger {
    fn insert(&mut self, uid: u64) -> bool {
        let flow = (uid >> 32) as usize;
        let seq = uid as u32;
        if flow >= self.flows.len() {
            self.flows.resize_with(flow + 1, FlowWindow::default);
        }
        self.flows[flow].insert(seq)
    }

    fn mem_bytes(&self) -> usize {
        self.flows.capacity() * std::mem::size_of::<FlowWindow>()
            + self.flows.iter().map(FlowWindow::mem_bytes).sum::<usize>()
    }
}

impl Metrics {
    /// Creates an empty metrics collector.
    pub fn new() -> Self {
        Metrics::default()
    }

    /// Records a delivery; returns `true` if it was the first for this uid.
    pub fn record_delivery(&mut self, uid: u64, origin: SimTime, now: SimTime) -> bool {
        if self.delivered_uids.insert(uid) {
            self.data_delivered += 1;
            self.latency_sum += now.saturating_since(origin).as_secs_f64();
            true
        } else {
            self.duplicate_deliveries += 1;
            false
        }
    }

    /// Live heap bytes of the delivery-dedup state — the only metrics
    /// structure whose size scales with traffic volume rather than node
    /// or flow count, hence the one the bounded-memory regression watches.
    pub fn dedup_mem_bytes(&self) -> usize {
        self.delivered_uids.mem_bytes()
    }

    /// Records one delivered packet's geodesic stretch.
    pub fn record_stretch(&mut self, hops: u32, min_hops: u32) {
        self.stretch_sum += f64::from(hops) / f64::from(min_hops.max(1));
        self.stretch_count += 1;
    }

    /// Mean geodesic stretch of first-time deliveries, if any were
    /// recorded (always ≥ 1 − ε up to the hop-count granularity; lower in
    /// denser networks, where near-straight multihop paths exist).
    pub fn geodesic_stretch(&self) -> Option<f64> {
        (self.stretch_count > 0).then(|| self.stretch_sum / self.stretch_count as f64)
    }

    /// Records a routing-layer data drop.
    pub fn record_drop(&mut self, reason: DataDropReason) {
        let key = match reason {
            DataDropReason::NoRoute => "no-route",
            DataDropReason::TtlExpired => "ttl-expired",
            DataDropReason::BufferOverflow => "buffer-overflow",
            DataDropReason::BufferTimeout => "buffer-timeout",
            DataDropReason::SalvageFailed => "salvage-failed",
            DataDropReason::NodeDown => "node-down",
        };
        *self.drops.entry(key).or_insert(0) += 1;
    }

    /// Records one applied dynamics action.
    pub fn record_dynamics(&mut self, action: &DynAction) {
        match action {
            DynAction::LinkDown(..) => self.dynamics_link_down += 1,
            DynAction::LinkUp(..) => self.dynamics_link_up += 1,
            DynAction::NodeCrash(..) => self.dynamics_crashes += 1,
            DynAction::NodeRejoin(..) => self.dynamics_rejoins += 1,
            DynAction::PartitionSet(..) | DynAction::PartitionClear => {
                self.dynamics_partition_events += 1
            }
        }
    }

    /// Total administrative dynamics events applied.
    pub fn dynamics_events(&self) -> u64 {
        self.dynamics_link_down
            + self.dynamics_link_up
            + self.dynamics_crashes
            + self.dynamics_rejoins
            + self.dynamics_partition_events
    }

    /// Mean route-repair-episode latency in seconds (see
    /// [`Metrics::route_repair_latency_sum`] for the episode semantics;
    /// 0 without dynamics events).
    pub fn mean_route_repair_latency(&self) -> f64 {
        if self.route_repairs == 0 {
            return 0.0;
        }
        self.route_repair_latency_sum / self.route_repairs as f64
    }

    /// Records a control packet transmission.
    pub fn record_control(&mut self, kind: &'static str) {
        self.control_sent += 1;
        *self.control_by_kind.entry(kind).or_insert(0) += 1;
    }

    /// Delivery ratio: delivered / originated (§V metric 1).
    pub fn delivery_ratio(&self) -> f64 {
        if self.data_originated == 0 {
            return 0.0;
        }
        self.data_delivered as f64 / self.data_originated as f64
    }

    /// Network load: control packets sent / data packets delivered
    /// (§V metric 2).
    pub fn network_load(&self) -> f64 {
        if self.data_delivered == 0 {
            return self.control_sent as f64;
        }
        self.control_sent as f64 / self.data_delivered as f64
    }

    /// Mean end-to-end latency in seconds (§V metric 3).
    pub fn mean_latency(&self) -> f64 {
        if self.data_delivered == 0 {
            return 0.0;
        }
        self.latency_sum / self.data_delivered as f64
    }
}

/// Live heap bytes per harness subsystem, snapshotted from a running
/// trial (`Sim::mem_report`). Capacity-based: counts what the allocator
/// holds, not just what is in use, because capacity is what bounds the
/// reachable N. The per-node quotient is the scale profile's headline
/// number (the benchmark's `runner.mem.bytes_per_node`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MemReport {
    /// Node count the per-node quotients divide by.
    pub nodes: usize,
    /// Routing-protocol state summed over nodes: each boxed instance
    /// plus the tables, buffers and interners it owns.
    pub proto_bytes: usize,
    /// MAC state summed over nodes: each inline `Mac` plus its queues
    /// and dedup filter, and the armed-timer slots.
    pub mac_bytes: usize,
    /// Shared-channel state (per-node radio state, in-flight window).
    pub channel_bytes: usize,
    /// Spatial index + position tracker.
    pub spatial_bytes: usize,
    /// Pending-event queue: heap, slot table and the scripted traffic
    /// stream kept beside the heap.
    pub queue_bytes: usize,
    /// Metrics bookkeeping (delivery dedup windows).
    pub metrics_bytes: usize,
}

impl MemReport {
    /// Total accounted bytes.
    pub fn total(&self) -> usize {
        self.proto_bytes
            + self.mac_bytes
            + self.channel_bytes
            + self.spatial_bytes
            + self.queue_bytes
            + self.metrics_bytes
    }

    /// Accounted bytes per node.
    pub fn bytes_per_node(&self) -> f64 {
        self.total() as f64 / self.nodes.max(1) as f64
    }
}

/// The per-trial summary consumed by the statistics layer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrialSummary {
    /// Delivery ratio.
    pub delivery_ratio: f64,
    /// Network load.
    pub network_load: f64,
    /// Mean latency (s).
    pub latency: f64,
    /// Average MAC drops per node (Fig. 3).
    pub mac_drops_per_node: f64,
    /// Average own-sequence-number increments per node (Fig. 7).
    pub avg_seqno: f64,
    /// Largest feasible-distance denominator (SRP diagnostics).
    pub max_fd_denominator: u64,
    /// Packets originated (sanity checking).
    pub originated: u64,
    /// Packets delivered.
    pub delivered: u64,
    /// Administrative dynamics events applied during the trial.
    pub dynamics_events: u64,
    /// Mean route-repair-episode latency (s): disruption onset to the
    /// next first-time delivery, overlapping disruptions merged.
    pub repair_latency: f64,
    /// Loop-freedom oracle checkpoints executed (0 off-oracle). Part of
    /// the summary so the cross-engine bit-identity contract covers the
    /// oracle's sampling schedule, not just the trial's outcome.
    pub oracle_checks: u64,
    /// Soft label-order violations the oracle observed (0 off-oracle).
    pub oracle_soft_violations: u64,
    /// Adversarial actions performed (0 in honest trials). Nonzero means
    /// the misbehaviour scripts actually fired.
    pub adversary_actions: u64,
    /// Control packets the honest nodes' audit layer rejected (0 in
    /// honest trials). Nonzero means containment actually engaged.
    pub audit_rejections: u64,
}

impl Metrics {
    /// Produces the trial summary for `n` nodes.
    pub fn summarize(&self, nodes: usize) -> TrialSummary {
        TrialSummary {
            delivery_ratio: self.delivery_ratio(),
            network_load: self.network_load(),
            latency: self.mean_latency(),
            mac_drops_per_node: self.mac_drops as f64 / nodes.max(1) as f64,
            avg_seqno: self.seqno_increments_total as f64 / nodes.max(1) as f64,
            max_fd_denominator: self.max_fd_denominator,
            originated: self.data_originated,
            delivered: self.data_delivered,
            dynamics_events: self.dynamics_events(),
            repair_latency: self.mean_route_repair_latency(),
            oracle_checks: self.oracle_checks,
            oracle_soft_violations: self.oracle_soft_violations,
            adversary_actions: self.adversary_actions,
            audit_rejections: self.audit_rejections,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delivery_accounting_dedups() {
        let mut m = Metrics::new();
        m.data_originated = 2;
        assert!(m.record_delivery(1, SimTime::ZERO, SimTime::from_secs(1)));
        assert!(!m.record_delivery(1, SimTime::ZERO, SimTime::from_secs(2)));
        assert!(m.record_delivery(2, SimTime::ZERO, SimTime::from_secs(3)));
        assert_eq!(m.data_delivered, 2);
        assert_eq!(m.duplicate_deliveries, 1);
        assert!((m.delivery_ratio() - 1.0).abs() < 1e-12);
        assert!((m.mean_latency() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn network_load() {
        let mut m = Metrics::new();
        m.data_originated = 10;
        m.record_delivery(1, SimTime::ZERO, SimTime::from_secs(1));
        for _ in 0..5 {
            m.record_control("srp-rreq");
        }
        assert!((m.network_load() - 5.0).abs() < 1e-12);
        assert_eq!(m.control_by_kind["srp-rreq"], 5);
    }

    #[test]
    fn summary_normalizes_per_node() {
        let mut m = Metrics::new();
        m.data_originated = 1;
        m.mac_drops = 500;
        m.seqno_increments_total = 120;
        let s = m.summarize(100);
        assert!((s.mac_drops_per_node - 5.0).abs() < 1e-12);
        assert!((s.avg_seqno - 1.2).abs() < 1e-12);
    }

    #[test]
    fn zero_division_guards() {
        let m = Metrics::new();
        assert_eq!(m.delivery_ratio(), 0.0);
        assert_eq!(m.mean_latency(), 0.0);
        assert_eq!(m.mean_route_repair_latency(), 0.0);
    }

    #[test]
    fn dynamics_accounting() {
        let mut m = Metrics::new();
        m.record_dynamics(&DynAction::LinkDown(0, 1));
        m.record_dynamics(&DynAction::LinkUp(0, 1));
        m.record_dynamics(&DynAction::NodeCrash(2));
        m.record_dynamics(&DynAction::NodeRejoin(2));
        m.record_dynamics(&DynAction::PartitionSet(vec![0, 0, 1]));
        m.record_dynamics(&DynAction::PartitionClear);
        assert_eq!(m.dynamics_events(), 6);
        m.route_repair_latency_sum = 3.0;
        m.route_repairs = 2;
        let s = m.summarize(3);
        assert_eq!(s.dynamics_events, 6);
        assert!((s.repair_latency - 1.5).abs() < 1e-12);
    }

    #[test]
    fn ledger_compacts_and_stays_bounded() {
        let mut m = Metrics::new();
        // 10k in-order deliveries on flow 0: the window compacts behind
        // the delivery front instead of growing with the trial.
        for seq in 0..10_000u64 {
            assert!(m.record_delivery(seq, SimTime::ZERO, SimTime::from_secs(1)));
            assert!(!m.record_delivery(seq, SimTime::ZERO, SimTime::from_secs(1)));
        }
        // A hashset would hold all 10k uids (≥ 80 KiB); the compacted
        // window is a few words plus per-flow struct overhead.
        assert!(
            m.dedup_mem_bytes() <= 1024,
            "in-order flow window grew: {} bytes",
            m.dedup_mem_bytes()
        );
        // A compacted-away seq is still recognized as a duplicate.
        assert!(!m.record_delivery(0, SimTime::ZERO, SimTime::from_secs(2)));
        // Other flows keep independent windows.
        let uid = (1u64 << 32) | 77;
        assert!(m.record_delivery(uid, SimTime::ZERO, SimTime::from_secs(2)));
        assert!(!m.record_delivery(uid, SimTime::ZERO, SimTime::from_secs(2)));
        assert_eq!(m.data_delivered, 10_001);
        assert_eq!(m.duplicate_deliveries, 10_002);
    }

    #[test]
    fn node_down_drops_are_counted_losses() {
        let mut m = Metrics::new();
        m.data_originated = 2;
        m.record_drop(DataDropReason::NodeDown);
        m.record_delivery(1, SimTime::ZERO, SimTime::from_secs(1));
        assert_eq!(m.drops["node-down"], 1);
        assert!((m.delivery_ratio() - 0.5).abs() < 1e-12);
    }
}
