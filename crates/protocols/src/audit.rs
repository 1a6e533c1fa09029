//! Control-plane audit wrapper: the one local check an honest node can
//! make on SRP input that no honest neighbor can fail.
//!
//! When a scenario puts [`crate::adversary::Adversary`] liars on the
//! field, every *honest* node's protocol instance is wrapped in an
//! [`Audit`], which checks first-hop identity before the inner state
//! machine sees a packet: an SRP RREQ carrying `d = 0` claims that its
//! sender *is* the solicitation source, so if the MAC-layer sender
//! differs the packet is an impersonation. The rule is
//! [`check_distance_zero`], the predicate `slr-check` asserts on every
//! in-flight RREQ of every reachable state.
//!
//! Checks on content are left out on purpose. Van Glabbeek et al. prove
//! that no local check on content defends a sequence-number protocol
//! against a determined liar, and the obvious ones strike honest
//! neighbors: Definition 5 asks only for a fraction in `[0, 1]`, so
//! honest labels such as 2/4 are not in lowest terms, and a neighbor that
//! reboots cold advertises a lower sequence number than before. The audit is containment, not immunity; the global
//! loop-freedom oracle remains the ground truth.
//!
//! Each rejection adds a strike against the sending neighbor; at
//! [`STRIKE_LIMIT`] the neighbor is blacklisted and all its further SRP
//! control traffic is dropped, each packet counted as a rejection.
//! Counters surface through [`ProtoStats::audit_rejections`] into the
//! trial summary.

use std::collections::BTreeMap;

use slr_core::invariant::check_distance_zero;

use crate::api::{
    ControlPacket, DataPacket, NodeId, ProtoCtx, ProtoEffect, ProtoStats, RoutingProtocol,
    SuccessorView,
};
use crate::srp::SrpMessage;

/// Strikes after which a neighbor's control traffic is ignored outright.
pub const STRIKE_LIMIT: u32 = 3;

/// The audit wrapper around one honest node's protocol instance.
///
/// `successor_view` forwards to the inner protocol so the loop-freedom
/// oracle still reaches the real routing tables.
pub struct Audit {
    inner: Box<dyn RoutingProtocol>,
    strikes: BTreeMap<NodeId, u32>,
    rejections: u64,
}

impl Audit {
    /// Wraps `inner` in the validation layer.
    pub fn new(inner: Box<dyn RoutingProtocol>) -> Self {
        Audit {
            inner,
            strikes: BTreeMap::new(),
            rejections: 0,
        }
    }

    /// Rejections counted so far (testing/diagnostics).
    pub fn rejections(&self) -> u64 {
        self.rejections
    }
}

impl RoutingProtocol for Audit {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn on_start(&mut self, ctx: &mut ProtoCtx<'_>) -> Vec<ProtoEffect> {
        self.inner.on_start(ctx)
    }

    fn on_rejoin(&mut self, ctx: &mut ProtoCtx<'_>) -> Vec<ProtoEffect> {
        self.inner.on_rejoin(ctx)
    }

    fn on_data_from_app(&mut self, ctx: &mut ProtoCtx<'_>, packet: DataPacket) -> Vec<ProtoEffect> {
        self.inner.on_data_from_app(ctx, packet)
    }

    fn on_data_received(
        &mut self,
        ctx: &mut ProtoCtx<'_>,
        from: NodeId,
        packet: DataPacket,
    ) -> Vec<ProtoEffect> {
        self.inner.on_data_received(ctx, from, packet)
    }

    fn on_control_received(
        &mut self,
        ctx: &mut ProtoCtx<'_>,
        from: NodeId,
        packet: ControlPacket,
    ) -> Vec<ProtoEffect> {
        if let ControlPacket::Srp(msg) = &packet {
            if self.strikes.get(&from).is_some_and(|&s| s >= STRIKE_LIMIT) {
                self.rejections += 1;
                return Vec::new();
            }
            if let SrpMessage::Rreq(q) = msg {
                if check_distance_zero::<u32>(q.src, from, q.d).is_err() {
                    *self.strikes.entry(from).or_insert(0) += 1;
                    self.rejections += 1;
                    return Vec::new();
                }
            }
        }
        self.inner.on_control_received(ctx, from, packet)
    }

    fn on_timer(&mut self, ctx: &mut ProtoCtx<'_>, token: u64) -> Vec<ProtoEffect> {
        self.inner.on_timer(ctx, token)
    }

    fn on_link_failure(
        &mut self,
        ctx: &mut ProtoCtx<'_>,
        next_hop: NodeId,
        packet: Option<DataPacket>,
    ) -> Vec<ProtoEffect> {
        self.inner.on_link_failure(ctx, next_hop, packet)
    }

    fn stats(&self) -> ProtoStats {
        let mut st = self.inner.stats();
        st.audit_rejections = self.rejections;
        st
    }

    fn successor_view(&self) -> Option<&dyn SuccessorView> {
        self.inner.successor_view()
    }

    /// The inner protocol plus one strike-map entry per struck neighbor.
    fn mem_bytes(&self) -> usize {
        self.inner.mem_bytes() + self.strikes.len() * std::mem::size_of::<(NodeId, u32)>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::srp::{Srp, SrpConfig, SrpRrep, SrpRreq};
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    use slr_core::{Frac32, Fraction, SplitLabel32};
    use slr_netsim::time::SimTime;

    fn ctx_at(rng: &mut SmallRng, secs: u64) -> ProtoCtx<'_> {
        ProtoCtx {
            now: SimTime::from_secs(secs),
            rng,
        }
    }

    fn audited() -> Audit {
        Audit::new(Box::new(Srp::new(0, SrpConfig::default())))
    }

    fn rrep(dst: NodeId, dst_seqno: u64, lfd: Frac32) -> ControlPacket {
        ControlPacket::Srp(SrpMessage::Rrep(SrpRrep {
            rreq_src: 0,
            rreq_id: 1,
            dst,
            dst_seqno,
            lfd,
            ld: 1,
            no_reverse: false,
        }))
    }

    /// An RREQ from `src`, `d` hops out, soliciting node 9.
    fn rreq(src: NodeId, d: u32, fd: Frac32) -> ControlPacket {
        ControlPacket::Srp(SrpMessage::Rreq(SrpRreq {
            src,
            rreq_id: 1,
            dst: 9,
            dst_seqno: 0,
            fd,
            unknown: true,
            reset: false,
            dest_only: false,
            no_advert: false,
            d,
            ttl: 16,
            src_seqno: 0,
            src_lfd: Fraction::zero(),
            src_ld: 0,
        }))
    }

    #[test]
    fn honest_traffic_passes_clean() {
        let mut a = audited();
        let mut rng = SmallRng::seed_from_u64(1);
        // Honest labels need not be in lowest terms: the next element of
        // 1/3 is 2/4, and a mediant of non-neighbors such as 6/9 is
        // unreduced too.
        let _ = a.on_control_received(
            &mut ctx_at(&mut rng, 1),
            4,
            rrep(9, 5, Fraction::new(2, 4).unwrap()),
        );
        let _ = a.on_control_received(
            &mut ctx_at(&mut rng, 1),
            6,
            rreq(6, 0, Fraction::new(6, 9).unwrap()),
        );
        // A neighbor that rebooted cold advertises an older seqno.
        let _ = a.on_control_received(
            &mut ctx_at(&mut rng, 2),
            4,
            rrep(9, 2, Fraction::new(1, 3).unwrap()),
        );
        // The same reply twice: an exact recurrence proves no lie.
        let twice = rrep(9, 7, Fraction::new(1, 2).unwrap());
        let _ = a.on_control_received(&mut ctx_at(&mut rng, 3), 5, twice.clone());
        let _ = a.on_control_received(&mut ctx_at(&mut rng, 3), 5, twice);
        assert_eq!(a.rejections(), 0, "honest content must not strike");
    }

    #[test]
    fn seqno_regression_is_rejected() {
        let mut a = audited();
        let mut rng = SmallRng::seed_from_u64(2);
        let fresh = Fraction::new(1, 2).unwrap();
        let _ = a.on_control_received(&mut ctx_at(&mut rng, 1), 4, rrep(9, 5, fresh));
        // An older seqno from the same neighbor is no lie (it may have
        // rebooted cold), so the audit does not strike it ...
        let _ = a.on_control_received(
            &mut ctx_at(&mut rng, 2),
            4,
            rrep(9, 2, Fraction::new(1, 3).unwrap()),
        );
        assert_eq!(a.rejections(), 0);
        // ... but SRP's label order rejects it: the route stays at seqno 5.
        let view = a.successor_view().expect("the wrapper forwards the view");
        let mut edges = Vec::new();
        view.successors(9, SimTime::from_secs(2), &mut edges);
        let hops: Vec<_> = edges.iter().map(|e| (e.from, e.to, e.recorded)).collect();
        assert_eq!(hops, vec![(0, 4, SplitLabel32::new(5, fresh))]);
    }

    #[test]
    fn sybil_first_hop_impersonation_is_rejected() {
        let mut a = audited();
        let mut rng = SmallRng::seed_from_u64(3);
        // Claims to be node 7, zero hops out, but arrives from node 4.
        let _ = a.on_control_received(&mut ctx_at(&mut rng, 1), 4, rreq(7, 0, Fraction::one()));
        assert_eq!(a.rejections(), 1);
        // One hop further out, relaying 7's flood is honest.
        let _ = a.on_control_received(&mut ctx_at(&mut rng, 1), 4, rreq(7, 1, Fraction::one()));
        assert_eq!(a.rejections(), 1);
    }

    #[test]
    fn strikes_blacklist_the_neighbor() {
        let mut a = audited();
        let mut rng = SmallRng::seed_from_u64(4);
        for _ in 0..STRIKE_LIMIT {
            let _ = a.on_control_received(&mut ctx_at(&mut rng, 1), 4, rreq(7, 0, Fraction::one()));
        }
        assert_eq!(a.rejections(), u64::from(STRIKE_LIMIT));
        let inner = Srp::new(0, SrpConfig::default()).mem_bytes();
        assert_eq!(a.mem_bytes(), inner + std::mem::size_of::<(NodeId, u32)>());
        // Even a well-formed fresh packet is now ignored.
        let _ = a.on_control_received(
            &mut ctx_at(&mut rng, 3),
            4,
            rrep(9, 50, Fraction::new(1, 5).unwrap()),
        );
        assert_eq!(a.rejections(), u64::from(STRIKE_LIMIT) + 1);
        // A different neighbor is unaffected.
        let _ = a.on_control_received(
            &mut ctx_at(&mut rng, 4),
            5,
            rrep(9, 50, Fraction::new(1, 5).unwrap()),
        );
        assert_eq!(a.rejections(), u64::from(STRIKE_LIMIT) + 1);
    }

    #[test]
    fn successor_view_reaches_inner_srp() {
        let mut a = audited();
        let mut rng = SmallRng::seed_from_u64(6);
        let lfd = Fraction::new(1, 2).unwrap();
        let _ = a.on_control_received(&mut ctx_at(&mut rng, 1), 4, rrep(9, 5, lfd));
        assert_eq!(a.rejections(), 0);
        // The accepted reply installed 4 as a successor toward 9 in the
        // inner engine, and the view reached through the wrapper sees it.
        let view = a.successor_view().expect("the wrapper forwards the view");
        let mut dests = Vec::new();
        view.destinations(&mut dests);
        assert_eq!(dests, vec![9]);
        let mut edges = Vec::new();
        view.successors(9, SimTime::from_secs(1), &mut edges);
        let hops: Vec<_> = edges.iter().map(|e| (e.from, e.to, e.recorded)).collect();
        assert_eq!(hops, vec![(0, 4, SplitLabel32::new(5, lfd))]);
    }
}
