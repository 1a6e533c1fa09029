//! The common routing-protocol interface.
//!
//! Every protocol (SRP and the four baselines) is a passive state machine
//! behind [`RoutingProtocol`]: the harness feeds it packets, timers and
//! link-failure notifications; it answers with [`ProtoEffect`]s. This keeps
//! protocols unit-testable without a radio stack and guarantees identical
//! treatment in the experiment harness.
//!
//! The route-pending buffer, expanding ring, timer tokens and RERR rate
//! limit the four on-demand protocols share live in [`crate::discovery`].

use rand::rngs::SmallRng;

use slr_netsim::time::{SimDuration, SimTime};

use crate::aodv::AodvMessage;
use crate::dsr::DsrMessage;
use crate::ldr::LdrMessage;
use crate::olsr::OlsrMessage;
use crate::srp::SrpMessage;

/// Node identifier (dense indices, as in the simulator).
pub type NodeId = usize;

/// Default TTL for data packets (kills transient forwarding loops in
/// protocols that are not loop-free at every instant, e.g. OLSR).
pub const DATA_TTL: u8 = 64;

/// A data packet traveling the network.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DataPacket {
    /// Originating node.
    pub src: NodeId,
    /// Final destination.
    pub dst: NodeId,
    /// Unique id per origination (for delivery accounting).
    pub uid: u64,
    /// Application-layer origination time (end-to-end latency basis).
    pub origin_time: SimTime,
    /// Payload bytes.
    pub bytes: u32,
    /// Remaining hop budget.
    pub ttl: u8,
    /// DSR source route: the full node path `src … dst` plus the index of
    /// the next hop to visit. `None` for table-driven protocols.
    pub source_route: Option<SourceRoute>,
}

/// A DSR-style source route carried in a data packet header.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SourceRoute {
    /// The full path, starting at the originator and ending at the
    /// destination.
    pub hops: Vec<NodeId>,
    /// Index into `hops` of the next node to visit.
    pub next: usize,
}

impl SourceRoute {
    /// Creates a route positioned after the originator.
    ///
    /// # Panics
    ///
    /// Panics if the path has fewer than two hops.
    pub fn new(hops: Vec<NodeId>) -> Self {
        assert!(hops.len() >= 2, "source route needs at least src and dst");
        SourceRoute { hops, next: 1 }
    }

    /// The next hop to forward to, if any remain.
    pub fn next_hop(&self) -> Option<NodeId> {
        self.hops.get(self.next).copied()
    }

    /// Extra header bytes this route adds on the wire (4 bytes per hop).
    pub fn wire_bytes(&self) -> u32 {
        4 * self.hops.len() as u32
    }
}

/// A routing control packet (any protocol).
#[derive(Debug, Clone, PartialEq)]
pub enum ControlPacket {
    /// Split-label Routing Protocol (the paper's contribution).
    Srp(SrpMessage),
    /// Ad hoc On-demand Distance Vector.
    Aodv(AodvMessage),
    /// Dynamic Source Routing.
    Dsr(DsrMessage),
    /// Labeled Distance Routing.
    Ldr(LdrMessage),
    /// Optimized Link State Routing.
    Olsr(OlsrMessage),
}

impl ControlPacket {
    /// Approximate on-the-wire size of the packet in bytes.
    pub fn wire_bytes(&self) -> u32 {
        match self {
            ControlPacket::Srp(m) => m.wire_bytes(),
            ControlPacket::Aodv(m) => m.wire_bytes(),
            ControlPacket::Dsr(m) => m.wire_bytes(),
            ControlPacket::Ldr(m) => m.wire_bytes(),
            ControlPacket::Olsr(m) => m.wire_bytes(),
        }
    }

    /// Short packet-type name for statistics.
    pub fn kind_name(&self) -> &'static str {
        match self {
            ControlPacket::Srp(m) => m.kind_name(),
            ControlPacket::Aodv(m) => m.kind_name(),
            ControlPacket::Dsr(m) => m.kind_name(),
            ControlPacket::Ldr(m) => m.kind_name(),
            ControlPacket::Olsr(m) => m.kind_name(),
        }
    }
}

/// Why a data packet was abandoned by the routing layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DataDropReason {
    /// No route and discovery failed (or is not attempted).
    NoRoute,
    /// The packet's TTL reached zero.
    TtlExpired,
    /// The route-pending buffer overflowed.
    BufferOverflow,
    /// The packet waited too long for a route.
    BufferTimeout,
    /// Salvaging after a link failure was impossible.
    SalvageFailed,
    /// The node was administratively down (crashed) when the application
    /// offered the packet.
    NodeDown,
}

/// Requests a routing protocol makes of the harness.
#[derive(Debug, Clone, PartialEq)]
pub enum ProtoEffect {
    /// Transmit a control packet; `next_hop = None` broadcasts to all
    /// neighbors.
    SendControl {
        /// The packet.
        packet: ControlPacket,
        /// Unicast next hop, or `None` for local broadcast.
        next_hop: Option<NodeId>,
    },
    /// Forward a data packet to a neighbor.
    SendData {
        /// The packet (TTL already decremented by the protocol).
        packet: DataPacket,
        /// Unicast next hop.
        next_hop: NodeId,
    },
    /// The packet reached its destination here.
    DeliverLocal(DataPacket),
    /// The protocol abandoned the packet.
    DropData {
        /// The packet.
        packet: DataPacket,
        /// The reason, for loss accounting.
        reason: DataDropReason,
    },
    /// Ask for `on_timer(token)` after `delay`. Tokens are
    /// protocol-defined; protocols must tolerate stale fires.
    SetTimer {
        /// Opaque token echoed back on expiry.
        token: u64,
        /// Delay from now.
        delay: SimDuration,
    },
}

/// Per-call context handed to the protocol.
pub struct ProtoCtx<'a> {
    /// Current simulation time.
    pub now: SimTime,
    /// The protocol's deterministic RNG stream.
    pub rng: &'a mut SmallRng,
}

/// Statistics the harness samples at the end of a run (Fig. 7 metric and
/// SRP-specific diagnostics).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ProtoStats {
    /// How many times this node incremented its *own* sequence number
    /// (Fig. 7: "average node sequence number"; SRP is exactly 0).
    pub own_seqno_increments: u64,
    /// Largest feasible-distance denominator observed (SRP; §V reports the
    /// maximum stayed under 840 million).
    pub max_fd_denominator: u64,
    /// Route discoveries initiated.
    pub discoveries: u64,
    /// Path resets requested (SRP T/D bits; LDR reset requests).
    pub resets_requested: u64,
    /// Deliberate misbehaviours performed by this node (nonzero only on
    /// adversarial nodes wrapped in [`crate::adversary::Adversary`]).
    pub adversarial_actions: u64,
    /// Control packets rejected by this node's validation layer (nonzero
    /// only on honest nodes wrapped in [`crate::audit::Audit`]).
    pub audit_rejections: u64,
}

/// A routing protocol instance living on one node.
///
/// `Send` is a supertrait: the parallel event engine ships disjoint
/// per-node protocol instances to worker threads inside a dispatch
/// window. Protocols are plain-data state machines (tables, buffers,
/// deterministic RNG streams), so the bound is free; it only rules out
/// thread-bound internals like `Rc` appearing in a future protocol.
pub trait RoutingProtocol: Send {
    /// Protocol name for reports ("SRP", "AODV", …).
    fn name(&self) -> &'static str;

    /// Called once at simulation start (schedule periodic timers here).
    fn on_start(&mut self, ctx: &mut ProtoCtx<'_>) -> Vec<ProtoEffect>;

    /// Called when this node restarts cold after a crash (all protocol
    /// state already discarded). Defaults to [`RoutingProtocol::on_start`];
    /// protocols whose safety depends on state not vanishing silently
    /// (e.g. SRP's ordering invariants) override this to announce the
    /// reboot so neighbors purge stale routes through them — the
    /// equivalent of AODV's post-reboot rule (RFC 3561 §6.13).
    fn on_rejoin(&mut self, ctx: &mut ProtoCtx<'_>) -> Vec<ProtoEffect> {
        self.on_start(ctx)
    }

    /// The local application wants `packet` delivered to `packet.dst`.
    fn on_data_from_app(&mut self, ctx: &mut ProtoCtx<'_>, packet: DataPacket) -> Vec<ProtoEffect>;

    /// A data packet arrived from neighbor `from`.
    fn on_data_received(
        &mut self,
        ctx: &mut ProtoCtx<'_>,
        from: NodeId,
        packet: DataPacket,
    ) -> Vec<ProtoEffect>;

    /// A control packet arrived from neighbor `from`.
    fn on_control_received(
        &mut self,
        ctx: &mut ProtoCtx<'_>,
        from: NodeId,
        packet: ControlPacket,
    ) -> Vec<ProtoEffect>;

    /// A timer requested via [`ProtoEffect::SetTimer`] fired.
    fn on_timer(&mut self, ctx: &mut ProtoCtx<'_>, token: u64) -> Vec<ProtoEffect>;

    /// The MAC exhausted retries toward `next_hop`. If the lost frame
    /// carried a data packet it is returned for salvage; lost control
    /// packets report `None`.
    fn on_link_failure(
        &mut self,
        ctx: &mut ProtoCtx<'_>,
        next_hop: NodeId,
        packet: Option<DataPacket>,
    ) -> Vec<ProtoEffect>;

    /// End-of-run statistics.
    fn stats(&self) -> ProtoStats;

    /// Running count of deliberate misbehaviours this node has performed.
    /// Zero for every honest protocol; the adversary wrapper overrides
    /// it, and the harness polls the sum to trigger oracle checks after
    /// every adversarial action.
    fn adversarial_actions(&self) -> u64 {
        0
    }

    /// Dynamic downcast hook, used by the harness for protocol-specific
    /// oracles (e.g. SRP's global loop-freedom check).
    fn as_any(&self) -> &dyn std::any::Any;

    /// Live heap bytes of this node's routing state, for the per-node
    /// memory report at scale. Protocols without accounting report 0 so
    /// the report understates rather than guesses.
    fn mem_bytes(&self) -> usize {
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn source_route_navigation() {
        let r = SourceRoute::new(vec![1, 5, 9, 3]);
        assert_eq!(r.next_hop(), Some(5));
        let mut r2 = r.clone();
        r2.next += 1;
        assert_eq!(r2.next_hop(), Some(9));
        r2.next = 4;
        assert_eq!(r2.next_hop(), None);
        assert_eq!(r.wire_bytes(), 16);
    }

    #[test]
    #[should_panic(expected = "at least")]
    fn source_route_too_short() {
        let _ = SourceRoute::new(vec![1]);
    }
}
