//! Control-plane audit wrapper: per-neighbor validation for honest nodes
//! in adversarial trials.
//!
//! When a scenario puts [`crate::adversary::Adversary`] liars on the
//! field, every *honest* node's protocol instance is wrapped in an
//! [`Audit`] that validates incoming control traffic before the inner
//! state machine sees it. The checks are exactly the ones a node can make
//! **locally** — van Glabbeek et al. prove no local check suffices
//! against a determined Byzantine neighbor, so the audit is containment,
//! not immunity (the global loop-freedom oracle remains the ground
//! truth):
//!
//! * **Stern–Brocot membership** — every advertised feasible distance
//!   must be a node of the Stern–Brocot tree: a proper fraction in lowest
//!   terms. Honest SRP labels are built exclusively by mediant splitting,
//!   which preserves both properties; forged fractions that fail either
//!   are provably not labels.
//! * **First-hop identity** — a RREQ carrying `d = 0` claims its sender
//!   *is* the solicitation source; if the MAC-layer sender differs, the
//!   packet is a sybil impersonation.
//! * **Per-neighbor sequence monotonicity** — a neighbor's advertised
//!   sequence number for a destination never regresses honestly (the
//!   destination alone increments it); a regression marks a replayed or
//!   stale update.
//! * **Replay detection** — a byte-identical RREP recurring from the
//!   same neighbor for the same flood is a replay: honest repliers answer
//!   a flood once and relay labels are pairwise distinct mediants, so an
//!   exact recurrence cannot arise from fresh processing.
//!
//! Each rejection adds a strike against the sending neighbor; at
//! [`STRIKE_LIMIT`] the neighbor is blacklisted and all its further
//! control traffic is ignored. Counters surface through
//! [`ProtoStats::audit_rejections`] into the trial summary.

use std::collections::{BTreeMap, BTreeSet};

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
    /// Highest advertised sequence number seen per `(neighbor, dest)`.
    seqno_high: BTreeMap<(NodeId, NodeId), u64>,
    /// Fingerprints of accepted RREPs, content included — two honest
    /// repliers to one flood may relay through the same neighbor, so only
    /// an *identical* recurrence marks a replay.
    #[allow(clippy::type_complexity)]
    seen_rreps: BTreeSet<(NodeId, NodeId, u64, NodeId, u64, u32, u32, u32)>,
    strikes: BTreeMap<NodeId, u32>,
    audits: u64,
    rejections: u64,
}

impl Audit {
    /// Wraps `inner` in the validation layer.
    pub fn new(inner: Box<dyn RoutingProtocol>) -> Self {
        Audit {
            inner,
            seqno_high: BTreeMap::new(),
            seen_rreps: BTreeSet::new(),
            strikes: BTreeMap::new(),
            audits: 0,
            rejections: 0,
        }
    }

    /// Rejections counted so far (testing/diagnostics).
    pub fn rejections(&self) -> u64 {
        self.rejections
    }

    fn strike(&mut self, from: NodeId) {
        *self.strikes.entry(from).or_insert(0) += 1;
        self.rejections += 1;
    }

    /// Enforces advertised-seqno monotonicity for `(from, dest)`. Returns
    /// `false` (a strike) on regression.
    fn check_seqno(&mut self, from: NodeId, dest: NodeId, seqno: u64) -> bool {
        let high = self.seqno_high.entry((from, dest)).or_insert(seqno);
        if seqno < *high {
            return false;
        }
        *high = seqno;
        true
    }

    /// Validates one incoming SRP message; `true` means accept.
    fn validate(&mut self, from: NodeId, msg: &SrpMessage) -> bool {
        match msg {
            SrpMessage::Rreq(q) => {
                if !q.fd.is_reduced() || !q.src_lfd.is_reduced() {
                    return false;
                }
                // d = 0 means "I am the solicitation source": the
                // link-layer sender must match the claimed identity.
                if q.d == 0 && q.src != from {
                    return false;
                }
                // The advertisement half vouches for a route to `src`.
                if !q.no_advert && !self.check_seqno(from, q.src, q.src_seqno) {
                    return false;
                }
                true
            }
            SrpMessage::Rrep(r) => {
                if !r.lfd.is_reduced() {
                    return false;
                }
                if !self.check_seqno(from, r.dst, r.dst_seqno) {
                    return false;
                }
                // A byte-identical recurrence of an accepted reply from
                // the same neighbor is a replay.
                self.seen_rreps.insert((
                    from,
                    r.rreq_src,
                    r.rreq_id,
                    r.dst,
                    r.dst_seqno,
                    r.lfd.num(),
                    r.lfd.den(),
                    r.ld,
                ))
            }
            SrpMessage::Rerr(_) => true,
        }
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
            if self.strikes.get(&from).copied().unwrap_or(0) >= STRIKE_LIMIT {
                self.rejections += 1;
                return Vec::new();
            }
            self.audits += 1;
            if !self.validate(from, msg) {
                self.strike(from);
                return Vec::new();
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

    fn mem_bytes(&self) -> usize {
        self.inner.mem_bytes()
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

    #[test]
    fn stern_brocot_membership() {
        // A Stern–Brocot node is a proper fraction in lowest terms; `0/1`
        // and `1/1` are the tree's virtual endpoints (destination and
        // unassigned) and are valid labels.
        assert!(Fraction::<u32>::new(1, 2).unwrap().is_reduced());
        assert!(Fraction::<u32>::new(0, 1).unwrap().is_reduced());
        assert!(Fraction::<u32>::new(1, 1).unwrap().is_reduced());
        assert!(Fraction::<u32>::new(2, 3).unwrap().is_reduced());
    }

    #[test]
    fn seqno_regression_is_rejected() {
        let mut a = audited();
        let mut rng = SmallRng::seed_from_u64(1);
        let _ = a.on_control_received(
            &mut ctx_at(&mut rng, 1),
            4,
            rrep(9, 5, Fraction::new(1, 2).unwrap()),
        );
        assert_eq!(a.rejections(), 0);
        // An older sequence number from the same neighbor = replay/stale.
        let _ = a.on_control_received(
            &mut ctx_at(&mut rng, 2),
            4,
            rrep(9, 2, Fraction::new(1, 3).unwrap()),
        );
        assert_eq!(a.rejections(), 1);
    }

    #[test]
    fn duplicate_rrep_is_rejected() {
        let mut a = audited();
        let mut rng = SmallRng::seed_from_u64(2);
        let p = rrep(9, 0, Fraction::new(1, 2).unwrap());
        let _ = a.on_control_received(&mut ctx_at(&mut rng, 1), 4, p.clone());
        assert_eq!(a.rejections(), 0);
        let _ = a.on_control_received(&mut ctx_at(&mut rng, 2), 4, p);
        assert_eq!(a.rejections(), 1);
    }

    #[test]
    fn sybil_first_hop_impersonation_is_rejected() {
        let mut a = audited();
        let mut rng = SmallRng::seed_from_u64(3);
        let forged = ControlPacket::Srp(SrpMessage::Rreq(SrpRreq {
            src: 7, // claims to be node 7...
            rreq_id: 1,
            dst: 9,
            dst_seqno: 0,
            fd: Fraction::one(),
            unknown: true,
            reset: false,
            dest_only: false,
            no_advert: false,
            d: 0, // ...zero hops out...
            ttl: 16,
            src_seqno: 0,
            src_lfd: Fraction::zero(),
            src_ld: 0,
        }));
        // ...but arrives from node 4.
        let _ = a.on_control_received(&mut ctx_at(&mut rng, 1), 4, forged);
        assert_eq!(a.rejections(), 1);
    }

    #[test]
    fn strikes_blacklist_the_neighbor() {
        let mut a = audited();
        let mut rng = SmallRng::seed_from_u64(4);
        let _ = a.on_control_received(
            &mut ctx_at(&mut rng, 1),
            4,
            rrep(9, 9, Fraction::new(1, 2).unwrap()),
        );
        for s in 0..STRIKE_LIMIT {
            let _ = a.on_control_received(
                &mut ctx_at(&mut rng, 2),
                4,
                rrep(9, s as u64, Fraction::new(1, 3).unwrap()),
            );
        }
        let before = a.rejections();
        // Even a well-formed fresh packet is now ignored.
        let _ = a.on_control_received(
            &mut ctx_at(&mut rng, 3),
            4,
            rrep(9, 50, Fraction::new(1, 5).unwrap()),
        );
        assert_eq!(a.rejections(), before + 1);
        // A different neighbor is unaffected.
        let _ = a.on_control_received(
            &mut ctx_at(&mut rng, 4),
            5,
            rrep(9, 50, Fraction::new(1, 5).unwrap()),
        );
        assert_eq!(a.rejections(), before + 1);
    }

    #[test]
    fn honest_traffic_passes_clean() {
        let mut a = audited();
        let mut rng = SmallRng::seed_from_u64(5);
        for (i, seq) in [0u64, 0, 1, 3].into_iter().enumerate() {
            // Same or rising seqnos with distinct labels: the honest
            // shape of repeated adverts within one seqno epoch.
            let _ = a.on_control_received(
                &mut ctx_at(&mut rng, 1 + seq),
                4,
                rrep(9, seq, Fraction::new(1, 2 + i as u32).unwrap()),
            );
        }
        assert_eq!(a.rejections(), 0, "monotone seqnos must not strike");
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
