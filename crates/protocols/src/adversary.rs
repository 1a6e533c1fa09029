//! Adversarial participant wrapper: Byzantine, sybil and chaos nodes.
//!
//! The harness selects a seeded subset of nodes per trial and wraps their
//! protocol instance in an [`Adversary`]. The wrapper leaves the inner
//! state machine intact — an adversarial node still *routes* honestly for
//! itself — but mutates the node's **outgoing control traffic** at the
//! protocol boundary, which is exactly the attack surface van Glabbeek et
//! al. ("Sequence Numbers Do Not Guarantee Loop Freedom") prove
//! sequence-number protocols cannot locally defend:
//!
//! * [`AdversaryKind::Byzantine`] — label forgery: outgoing SRP
//!   advertisements get inflated sequence numbers and artificially
//!   attractive (small) feasible distances, and previously overheard
//!   control packets are replayed verbatim later;
//! * [`AdversaryKind::Sybil`] — identity splitting: outgoing RREQs are
//!   re-attributed to other (victim) identities with forged attractive
//!   advertisements, including whole-cloth RREQ floods that honest relays
//!   then propagate on the victim's behalf;
//! * [`AdversaryKind::Chaos`] — traffic disruption: outgoing control
//!   packets are probabilistically dropped or delayed, and overheard
//!   packets are replayed out of order (deliberate link flapping is
//!   compiled runner-side into the dynamics schedule).
//!
//! Every mutation draws from the node's deterministic protocol RNG
//! stream, so adversarial trials stay bit-identical across event engines
//! and worker counts: protocol callbacks occur in the same canonical
//! order under every engine, hence the wrapper's draws do too.

use rand::Rng;

use slr_core::Fraction;
use slr_netsim::time::SimDuration;

use crate::api::{
    ControlPacket, DataPacket, NodeId, ProtoCtx, ProtoEffect, ProtoStats, RoutingProtocol,
    SuccessorView,
};
use crate::srp::{SrpMessage, SrpRreq};

/// Which misbehaviour script an adversarial node runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdversaryKind {
    /// Lie about labels and sequence numbers; replay stale updates.
    Byzantine,
    /// Split identity: forge control traffic under other nodes' names.
    Sybil,
    /// Drop, delay and replay control traffic (plus runner-side flaps).
    Chaos,
}

impl AdversaryKind {
    /// Short name for reports and scenario descriptions.
    pub fn name(&self) -> &'static str {
        match self {
            AdversaryKind::Byzantine => "byzantine",
            AdversaryKind::Sybil => "sybil",
            AdversaryKind::Chaos => "chaos",
        }
    }
}

/// Timer-token namespace for the wrapper's own timers. Route discovery
/// (SRP, AODV, DSR, LDR) owns bit 63 and OLSR the small integers, so
/// bit 59 is free across every inner protocol; the wrapper intercepts
/// these tokens before the inner machine ever sees them.
const ADV_TOKEN_BIT: u64 = 1 << 59;
/// The periodic misbehaviour heartbeat.
const ADV_TICK: u64 = ADV_TOKEN_BIT;
/// How many overheard control packets the replay cache retains.
const REPLAY_CACHE: usize = 8;

/// A routing protocol wrapper that makes the node misbehave.
///
/// `successor_view` forwards to the inner protocol so the loop-freedom
/// oracle can still read the node's real tables.
pub struct Adversary {
    inner: Box<dyn RoutingProtocol>,
    kind: AdversaryKind,
    node: NodeId,
    nodes: usize,
    /// Overheard control packets available for replay, oldest first.
    cache: Vec<ControlPacket>,
    /// Delayed outgoing packets keyed by timer token.
    held: Vec<(u64, ControlPacket, Option<NodeId>)>,
    next_hold: u64,
    actions: u64,
}

impl Adversary {
    /// Wraps `inner` (running on `node` of `nodes`) in misbehaviour `kind`.
    pub fn new(
        inner: Box<dyn RoutingProtocol>,
        kind: AdversaryKind,
        node: NodeId,
        nodes: usize,
    ) -> Self {
        Adversary {
            inner,
            kind,
            node,
            nodes,
            cache: Vec::new(),
            held: Vec::new(),
            next_hold: 0,
            actions: 0,
        }
    }

    /// A node id other than our own (sybil victim identity).
    fn other_node(&self, rng: &mut rand::rngs::SmallRng) -> NodeId {
        if self.nodes <= 1 {
            return self.node;
        }
        let pick = rng.gen_range(0..self.nodes - 1);
        if pick >= self.node {
            pick + 1
        } else {
            pick
        }
    }

    /// Remembers an overheard control packet for later replay.
    fn overhear(&mut self, packet: &ControlPacket) {
        if self.cache.len() >= REPLAY_CACHE {
            self.cache.remove(0);
        }
        self.cache.push(packet.clone());
    }

    /// Forges the advertisement half of an SRP RREQ in place: inflated
    /// source sequence number, minimal claimed feasible distance.
    fn forge_rreq_advert(rreq: &mut SrpRreq, rng: &mut rand::rngs::SmallRng) {
        rreq.src_seqno += rng.gen_range(1u64..=3);
        rreq.src_lfd = Fraction::zero();
        rreq.src_ld = rng.gen_range(0..=1);
        rreq.no_advert = false;
    }

    /// Applies the kind-specific mutation script to one outgoing effect.
    /// Returns the (possibly empty, possibly multi-element) replacement.
    fn mangle(&mut self, ctx: &mut ProtoCtx<'_>, effect: ProtoEffect, out: &mut Vec<ProtoEffect>) {
        let ProtoEffect::SendControl { packet, next_hop } = effect else {
            out.push(effect);
            return;
        };
        match self.kind {
            AdversaryKind::Byzantine => {
                let packet = if let ControlPacket::Srp(msg) = packet {
                    let msg = match msg {
                        SrpMessage::Rrep(mut rrep) if ctx.rng.gen_bool(0.5) => {
                            // Attractive forgery: higher sequence number
                            // and a minimal last-hop feasible distance
                            // make the lie supersede every honest advert.
                            rrep.dst_seqno += ctx.rng.gen_range(1u64..=3);
                            rrep.lfd = Fraction::zero();
                            rrep.ld = ctx.rng.gen_range(0..=1);
                            self.actions += 1;
                            SrpMessage::Rrep(rrep)
                        }
                        SrpMessage::Rreq(mut rreq) if ctx.rng.gen_bool(0.5) => {
                            Self::forge_rreq_advert(&mut rreq, ctx.rng);
                            self.actions += 1;
                            SrpMessage::Rreq(rreq)
                        }
                        other => other,
                    };
                    ControlPacket::Srp(msg)
                } else {
                    packet
                };
                out.push(ProtoEffect::SendControl { packet, next_hop });
            }
            AdversaryKind::Sybil => {
                let packet = if let ControlPacket::Srp(SrpMessage::Rreq(mut rreq)) = packet {
                    if ctx.rng.gen_bool(0.5) {
                        // Re-attribute the flood to a victim identity with
                        // a fresh flood id (defeating duplicate
                        // suppression) and a forged attractive
                        // advertisement. `d` is sometimes left at 0, which
                        // claims "I *am* the victim" one hop out — the
                        // locally detectable half of the attack.
                        rreq.src = self.other_node(ctx.rng);
                        rreq.rreq_id = (1 << 32) | ctx.rng.gen::<u32>() as u64;
                        rreq.d = ctx.rng.gen_range(0..=2);
                        Self::forge_rreq_advert(&mut rreq, ctx.rng);
                        self.actions += 1;
                    }
                    ControlPacket::Srp(SrpMessage::Rreq(rreq))
                } else {
                    packet
                };
                out.push(ProtoEffect::SendControl { packet, next_hop });
            }
            AdversaryKind::Chaos => {
                if ctx.rng.gen_bool(0.25) {
                    // Selective drop: the packet silently vanishes.
                    self.actions += 1;
                } else if ctx.rng.gen_bool(0.25) {
                    // Delay: hold the packet and release it 50–500 ms
                    // later, out of order with the rest of the stream.
                    let token = ADV_TOKEN_BIT | 1 | (self.next_hold << 1);
                    self.next_hold += 1;
                    let delay = SimDuration::from_millis(ctx.rng.gen_range(50..=500));
                    self.held.push((token, packet, next_hop));
                    out.push(ProtoEffect::SetTimer { token, delay });
                    self.actions += 1;
                } else {
                    out.push(ProtoEffect::SendControl { packet, next_hop });
                }
            }
        }
    }

    /// Post-processes an inner callback's effects through the mutation
    /// script.
    fn mangle_all(&mut self, ctx: &mut ProtoCtx<'_>, fx: Vec<ProtoEffect>) -> Vec<ProtoEffect> {
        let mut out = Vec::with_capacity(fx.len());
        for e in fx {
            self.mangle(ctx, e, &mut out);
        }
        out
    }

    /// The periodic heartbeat: replay an overheard packet (Byzantine and
    /// chaos), or flood a whole-cloth forged RREQ under a victim identity
    /// (sybil), then rearm.
    fn tick(&mut self, ctx: &mut ProtoCtx<'_>) -> Vec<ProtoEffect> {
        let mut out = Vec::new();
        match self.kind {
            AdversaryKind::Byzantine | AdversaryKind::Chaos => {
                if !self.cache.is_empty() && ctx.rng.gen_bool(0.7) {
                    let idx = ctx.rng.gen_range(0..self.cache.len());
                    out.push(ProtoEffect::SendControl {
                        packet: self.cache[idx].clone(),
                        next_hop: None,
                    });
                    self.actions += 1;
                }
            }
            AdversaryKind::Sybil => {
                if ctx.rng.gen_bool(0.5) {
                    let src = self.other_node(ctx.rng);
                    let dst = self.other_node(ctx.rng);
                    let mut rreq = SrpRreq {
                        src,
                        rreq_id: (1 << 32) | ctx.rng.gen::<u32>() as u64,
                        dst,
                        dst_seqno: 0,
                        fd: Fraction::one(),
                        unknown: true,
                        reset: false,
                        dest_only: false,
                        no_advert: false,
                        d: ctx.rng.gen_range(0..=2),
                        ttl: 16,
                        src_seqno: 0,
                        src_lfd: Fraction::zero(),
                        src_ld: 0,
                    };
                    Self::forge_rreq_advert(&mut rreq, ctx.rng);
                    out.push(ProtoEffect::SendControl {
                        packet: ControlPacket::Srp(SrpMessage::Rreq(rreq)),
                        next_hop: None,
                    });
                    self.actions += 1;
                }
            }
        }
        out.push(self.arm_tick(ctx));
        out
    }

    /// Schedules the next heartbeat 0.5–1.5 s out (jittered so adversary
    /// traffic does not phase-lock with protocol timers).
    fn arm_tick(&mut self, ctx: &mut ProtoCtx<'_>) -> ProtoEffect {
        ProtoEffect::SetTimer {
            token: ADV_TICK,
            delay: SimDuration::from_millis(ctx.rng.gen_range(500..=1500)),
        }
    }
}

impl RoutingProtocol for Adversary {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn on_start(&mut self, ctx: &mut ProtoCtx<'_>) -> Vec<ProtoEffect> {
        let fx = self.inner.on_start(ctx);
        let mut out = self.mangle_all(ctx, fx);
        out.push(self.arm_tick(ctx));
        out
    }

    fn on_rejoin(&mut self, ctx: &mut ProtoCtx<'_>) -> Vec<ProtoEffect> {
        let fx = self.inner.on_rejoin(ctx);
        let mut out = self.mangle_all(ctx, fx);
        out.push(self.arm_tick(ctx));
        out
    }

    fn on_data_from_app(&mut self, ctx: &mut ProtoCtx<'_>, packet: DataPacket) -> Vec<ProtoEffect> {
        let fx = self.inner.on_data_from_app(ctx, packet);
        self.mangle_all(ctx, fx)
    }

    fn on_data_received(
        &mut self,
        ctx: &mut ProtoCtx<'_>,
        from: NodeId,
        packet: DataPacket,
    ) -> Vec<ProtoEffect> {
        let fx = self.inner.on_data_received(ctx, from, packet);
        self.mangle_all(ctx, fx)
    }

    fn on_control_received(
        &mut self,
        ctx: &mut ProtoCtx<'_>,
        from: NodeId,
        packet: ControlPacket,
    ) -> Vec<ProtoEffect> {
        if matches!(self.kind, AdversaryKind::Byzantine | AdversaryKind::Chaos) {
            self.overhear(&packet);
        }
        let fx = self.inner.on_control_received(ctx, from, packet);
        self.mangle_all(ctx, fx)
    }

    fn on_timer(&mut self, ctx: &mut ProtoCtx<'_>, token: u64) -> Vec<ProtoEffect> {
        if token & ADV_TOKEN_BIT != 0 {
            if token == ADV_TICK {
                return self.tick(ctx);
            }
            // A delayed packet matured; release it.
            if let Some(pos) = self.held.iter().position(|(t, _, _)| *t == token) {
                let (_, packet, next_hop) = self.held.remove(pos);
                return vec![ProtoEffect::SendControl { packet, next_hop }];
            }
            return Vec::new();
        }
        let fx = self.inner.on_timer(ctx, token);
        self.mangle_all(ctx, fx)
    }

    fn on_link_failure(
        &mut self,
        ctx: &mut ProtoCtx<'_>,
        next_hop: NodeId,
        packet: Option<DataPacket>,
    ) -> Vec<ProtoEffect> {
        let fx = self.inner.on_link_failure(ctx, next_hop, packet);
        self.mangle_all(ctx, fx)
    }

    fn stats(&self) -> ProtoStats {
        let mut st = self.inner.stats();
        st.adversarial_actions = self.actions;
        st
    }

    fn adversarial_actions(&self) -> u64 {
        self.actions
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
    use crate::srp::{Srp, SrpConfig};
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    use slr_core::SplitLabel32;
    use slr_netsim::time::SimTime;

    fn ctx_at(rng: &mut SmallRng, secs: u64) -> ProtoCtx<'_> {
        ProtoCtx {
            now: SimTime::from_secs(secs),
            rng,
        }
    }

    fn adversary(kind: AdversaryKind) -> Adversary {
        let inner = Box::new(Srp::new(3, SrpConfig::default()));
        Adversary::new(inner, kind, 3, 10)
    }

    #[test]
    fn start_arms_heartbeat() {
        let mut a = adversary(AdversaryKind::Byzantine);
        let mut rng = SmallRng::seed_from_u64(7);
        let fx = a.on_start(&mut ctx_at(&mut rng, 0));
        assert!(fx
            .iter()
            .any(|e| matches!(e, ProtoEffect::SetTimer { token, .. } if *token == ADV_TICK)));
    }

    #[test]
    fn sybil_tick_forges_foreign_identity() {
        let mut a = adversary(AdversaryKind::Sybil);
        let mut rng = SmallRng::seed_from_u64(1);
        let _ = a.on_start(&mut ctx_at(&mut rng, 0));
        let mut forged = 0;
        for s in 1..50 {
            for e in a.on_timer(&mut ctx_at(&mut rng, s), ADV_TICK) {
                if let ProtoEffect::SendControl {
                    packet: ControlPacket::Srp(SrpMessage::Rreq(q)),
                    ..
                } = e
                {
                    assert_ne!(q.src, 3, "sybil must not flood under its own name");
                    assert!(q.src < 10);
                    forged += 1;
                }
            }
        }
        assert!(forged > 0, "sybil heartbeat never forged a flood");
        assert!(a.adversarial_actions() > 0);
    }

    #[test]
    fn chaos_delay_round_trips_through_timer() {
        let mut a = adversary(AdversaryKind::Chaos);
        let mut rng = SmallRng::seed_from_u64(2);
        let rerr = ControlPacket::Srp(SrpMessage::Rerr(crate::srp::SrpRerr {
            unreachable: vec![1],
            cold_reboot: false,
        }));
        // Push the same outgoing packet through until a delay fires.
        let mut delayed_token = None;
        for _ in 0..200 {
            let mut out = Vec::new();
            let mut ctx = ctx_at(&mut rng, 1);
            a.mangle(
                &mut ctx,
                ProtoEffect::SendControl {
                    packet: rerr.clone(),
                    next_hop: Some(4),
                },
                &mut out,
            );
            if let Some(ProtoEffect::SetTimer { token, .. }) = out
                .iter()
                .find(|e| matches!(e, ProtoEffect::SetTimer { .. }))
            {
                delayed_token = Some(*token);
                break;
            }
        }
        let token = delayed_token.expect("chaos never delayed in 200 tries");
        let fx = a.on_timer(&mut ctx_at(&mut rng, 2), token);
        assert!(
            matches!(
                &fx[..],
                [ProtoEffect::SendControl { packet, next_hop: Some(4) }] if *packet == rerr
            ),
            "delayed packet must be released verbatim: {fx:?}"
        );
    }

    #[test]
    fn byzantine_replays_overheard_packets() {
        let mut a = adversary(AdversaryKind::Byzantine);
        let mut rng = SmallRng::seed_from_u64(3);
        let rerr = ControlPacket::Srp(SrpMessage::Rerr(crate::srp::SrpRerr {
            unreachable: vec![7],
            cold_reboot: false,
        }));
        let _ = a.on_control_received(&mut ctx_at(&mut rng, 1), 5, rerr.clone());
        let mut replayed = false;
        for s in 2..40 {
            for e in a.on_timer(&mut ctx_at(&mut rng, s), ADV_TICK) {
                if matches!(&e, ProtoEffect::SendControl { packet, .. } if *packet == rerr) {
                    replayed = true;
                }
            }
        }
        assert!(replayed, "byzantine heartbeat never replayed the cache");
    }

    #[test]
    fn successor_view_reaches_inner_srp() {
        let a = adversary(AdversaryKind::Byzantine);
        let view = a.successor_view().expect("the wrapper forwards the view");
        assert_eq!(view.label(3), SplitLabel32::destination(1));
    }
}
