//! The SRP protocol engine: Procedures 1–4, Algorithm 1, SDC and the
//! Eq. 9–11 relay rules from §III of the paper.

use std::sync::Arc;

use slr_core::{
    maintains_order, needs_denominator_reset, new_order, reduce_label, Frac32, LabelHandle,
    LabelInterner, SplitLabel32, SuccessorEdge, SuccessorEntry, SuccessorTable,
};
use slr_netsim::time::{SimDuration, SimTime};
use slr_netsim::VecMap;

use crate::api::{
    ControlPacket, DataDropReason, DataPacket, NodeId, ProtoCtx, ProtoEffect, ProtoStats,
    RoutingProtocol, SuccessorView,
};
use crate::discovery::{forward_all, Attempt, Discovery, DiscoveryConfig, FloodId, Forwarded};
use crate::srp::messages::{SrpMessage, SrpRerr, SrpRrep, SrpRreq};

/// How SRP picks among its feasible successors when forwarding data.
///
/// The paper leaves multipath policy open ("We do not specify a mechanism
/// to choose good multi-paths … A simple implementation of SRP could use a
/// single successor chosen from the min-hop set", §III) and evaluates
/// uni-path SRP (§V). Both options below preserve loop freedom — every
/// successor in the table is feasible by construction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MultipathPolicy {
    /// Always the minimum-distance successor (the paper's evaluated mode).
    #[default]
    SingleMinHop,
    /// Rotate across all feasible successors per destination — spreads
    /// load over the DAG at the cost of packet reordering.
    RoundRobin,
}

/// Denominator threshold that triggers a path-reset probe (10⁹, §III).
const MAX_DENOM: u64 = 1_000_000_000;

/// The §V "lying" scale constant (k = 10000).
const LIE_K: u64 = 10_000;

/// Feasible-distance denominator at which Set Route attempts the Farey
/// reduction of §VI (replace the raw mediant with
/// [`slr_core::reduce_label`]'s simplest order-preserving fraction).
/// `2^27` (1.34×10⁸) sits only 1.31× above the largest denominator
/// measured: 102 420 742 on one paper-scale SRP trial (`slrsim --scenario
/// paper-sweep --paper --protocol srp --values 900 --trials 1 --json`,
/// seed 42, `max_fd_denominator`). Runs at that scale and below adopt the
/// paper's unreduced mediants bit for bit; a longer or denser run may
/// cross the threshold and reduce.
const REDUCE_DEN_THRESHOLD: u32 = 1 << 27;

/// SRP tunables (paper defaults). Constant for a trial: the harness
/// builds one instance per protocol kind and every node's [`Srp`] shares
/// it through an `Arc`.
#[derive(Debug, Clone, Copy)]
pub struct SrpConfig {
    /// Label retention after route invalidation (60 s, §III).
    pub delete_period: SimDuration,
    /// Minimum hops a RREQ must travel before an intermediate node may
    /// reply (§V's false-positive-RREP heuristic).
    pub min_reply_hops: u32,
    /// Active-route lifetime without use.
    pub route_lifetime: SimDuration,
    /// Procedure 1: ring timeouts, the route-pending buffer, the RERR
    /// rate limit and the retention of Procedure 2's engaged-calculation
    /// cache, which lives in the discovery's flood log.
    pub discovery: DiscoveryConfig,
    /// Data-plane successor choice (§III leaves this open; the paper's
    /// evaluation is uni-path).
    pub multipath: MultipathPolicy,
}

impl Default for SrpConfig {
    fn default() -> Self {
        SrpConfig {
            delete_period: SimDuration::from_secs(60),
            min_reply_hops: 2,
            route_lifetime: SimDuration::from_secs(10),
            discovery: DiscoveryConfig::default(),
            multipath: MultipathPolicy::SingleMinHop,
        }
    }
}

/// Per-destination routing state (`O_A^T`, `d_A^T`, `S_A^T`).
#[derive(Debug, Clone)]
struct DestState {
    label: SplitLabel32,
    dist: u32,
    /// Each entry's `confirmed` stamp is a [`SimTime`] in nanoseconds;
    /// an entry unconfirmed for ROUTE_LIFETIME is pruned (see
    /// [`slr_core::SuccessorEntry::confirmed`]).
    succs: SuccessorTable<NodeId, u32>,
    /// Route expiry (refreshed on use). The route is *active* while
    /// `now < expires` and the successor set is non-empty (Definition 2).
    expires: SimTime,
    /// When the cached label may be forgotten (DELETE_PERIOD after the
    /// route became invalid); `None` while the route is active.
    forget_at: Option<SimTime>,
    /// Round-robin cursor for [`MultipathPolicy::RoundRobin`].
    rr_counter: u32,
}

impl DestState {
    fn unassigned() -> Self {
        DestState {
            label: SplitLabel32::unassigned(),
            dist: u32::MAX,
            succs: SuccessorTable::new(),
            expires: SimTime::ZERO,
            forget_at: None,
            rr_counter: 0,
        }
    }
}

/// When a successor entry was last confirmed.
fn confirmed_at(e: &SuccessorEntry<NodeId, u32>) -> SimTime {
    SimTime::from_nanos(e.confirmed)
}

/// Whether a successor entry has gone unconfirmed for `lifetime`.
fn is_stale(e: &SuccessorEntry<NodeId, u32>, now: SimTime, lifetime: SimDuration) -> bool {
    now.saturating_since(confirmed_at(e)) >= lifetime
}

/// Engaged-calculation cache entry (Procedure 2): `{O_#, lasthop}` of
/// `{A, ID_A, O_#, lasthop}`, logged per flood `(A, ID_A)` in the
/// discovery's flood log.
///
/// The cached solicitation ordering is an interned [`LabelHandle`] — the
/// flood delivers the same few orderings to every node it reaches, and
/// this cache is the highest-population table at scale.
#[derive(Debug, Clone, Copy)]
struct RreqCache {
    cached: LabelHandle,
    last_hop: NodeId,
    replied: bool,
}

/// The Split-label Routing Protocol instance on one node.
///
/// `Clone` exists for the model checker (`slr-check`), which snapshots
/// whole instances while enumerating interleavings; the simulation
/// harness never clones a live protocol.
#[derive(Clone)]
pub struct Srp {
    node: NodeId,
    cfg: Arc<SrpConfig>,
    /// Our own destination sequence number (64-bit, non-zero at init,
    /// Definition 7). Only we may increment it.
    own_seqno: u64,
    seqno_increments: u64,
    dests: VecMap<NodeId, DestState>,
    discovery: Discovery<RreqCache>,
    /// The highest destination sequence number ever *held* per
    /// destination. Unlike the label, this survives DELETE_PERIOD
    /// forgetting (the AODV §6.13 discipline): a destination's sequence
    /// number never decreases in honest operation, so an advertisement
    /// below the floor is provably stale or forged and re-adopting it
    /// after the label was forgotten can close a routing loop two honest
    /// nodes' local order checks cannot see.
    seqno_floor: VecMap<NodeId, u64>,
    /// Interner backing the [`RreqCache`] handles (per node: the protocol
    /// state machine owns no trial-wide shared state, and the parallel
    /// engine ships instances across threads).
    interner: LabelInterner<u32>,
    max_denominator: u64,
    resets_requested: u64,
}

impl Srp {
    /// Creates the SRP instance for `node`. Pass an `Arc` to share one
    /// configuration among many nodes; a plain [`SrpConfig`] is wrapped in
    /// a fresh one.
    pub fn new(node: NodeId, cfg: impl Into<Arc<SrpConfig>>) -> Self {
        let cfg = cfg.into();
        Srp {
            node,
            own_seqno: 1,
            seqno_increments: 0,
            dests: VecMap::default(),
            discovery: Discovery::new(&cfg.discovery),
            cfg,
            seqno_floor: VecMap::default(),
            interner: LabelInterner::new(),
            max_denominator: 1,
            resets_requested: 0,
        }
    }

    /// Live heap bytes of this node's protocol state, per table: the
    /// per-destination records (`dests`), the successor sets they own,
    /// route discovery (attempts, route-pending buffer, RERR stamps and
    /// the flood log holding the engaged-calculation cache), the
    /// sequence-number floors and the label interner. Counts capacities
    /// (what the allocator holds), not lengths.
    pub fn mem_breakdown(&self) -> [(&'static str, usize); 5] {
        [
            ("dests", self.dests.mem_bytes()),
            (
                "successors",
                self.dests.values().map(|ds| ds.succs.mem_bytes()).sum(),
            ),
            ("discovery", self.discovery.mem_bytes()),
            ("seqno_floor", self.seqno_floor.mem_bytes()),
            ("interner", self.interner.mem_bytes()),
        ]
    }

    /// Live heap bytes of this node's protocol state: the sum of
    /// [`Srp::mem_breakdown`].
    pub fn mem_bytes(&self) -> usize {
        self.mem_breakdown().iter().map(|(_, bytes)| bytes).sum()
    }

    /// Our current label (ordering) for destination `t`.
    fn label_for(&mut self, t: NodeId, now: SimTime) -> SplitLabel32 {
        if t == self.node {
            return SplitLabel32::destination(self.own_seqno);
        }
        match self.dests.get(&t) {
            Some(ds) => {
                if let Some(forget) = ds.forget_at {
                    if now >= forget {
                        self.dests.remove(&t);
                        return SplitLabel32::unassigned();
                    }
                }
                ds.label
            }
            None => SplitLabel32::unassigned(),
        }
    }

    /// Per-entry expiry: drop successors whose recorded ordering has not
    /// been re-confirmed (advertisement or data-plane use) within
    /// ROUTE_LIFETIME, invalidating the route if the set empties. This is
    /// the half of Definition 2 the per-destination `expires` clock cannot
    /// provide — see [`slr_core::SuccessorEntry::confirmed`].
    fn prune_stale_succs(&mut self, t: NodeId, now: SimTime) {
        // Test-only regression flag: disable the PR 7 fix so the model
        // checker can re-find the DELETE_PERIOD equal-seqno re-adoption
        // loop. Never enabled in a shipping build.
        if cfg!(feature = "regress-pr7-entry-expiry") {
            return;
        }
        let lifetime = self.cfg.route_lifetime;
        let Some(ds) = self.dests.get_mut(&t) else {
            return;
        };
        let before = ds.succs.len();
        ds.succs.retain(|e| !is_stale(e, now, lifetime));
        if before > 0 && ds.succs.is_empty() && ds.forget_at.is_none() {
            ds.forget_at = Some(now + self.cfg.delete_period);
        }
    }

    /// Whether we have an active route to `t` (Definition 2), applying
    /// lazy expiry.
    fn route_active(&mut self, t: NodeId, now: SimTime) -> bool {
        self.prune_stale_succs(t, now);
        let expired = match self.dests.get(&t) {
            Some(ds) => !ds.succs.is_empty() && now >= ds.expires,
            None => false,
        };
        if expired {
            self.invalidate(t, now);
        }
        self.dests
            .get(&t)
            .map(|ds| !ds.succs.is_empty())
            .unwrap_or(false)
    }

    /// Invalidates the route to `t`, starting the DELETE_PERIOD clock on
    /// its label (Definition 3).
    fn invalidate(&mut self, t: NodeId, now: SimTime) {
        if let Some(ds) = self.dests.get_mut(&t) {
            ds.succs.clear();
            if ds.forget_at.is_none() {
                ds.forget_at = Some(now + self.cfg.delete_period);
            }
        }
    }

    /// Forwards a data packet via a feasible successor chosen by the
    /// configured [`MultipathPolicy`]; hands it back if no active route
    /// exists.
    fn try_forward(&mut self, mut packet: DataPacket, now: SimTime) -> Forwarded {
        if !self.route_active(packet.dst, now) {
            return Err(packet);
        }
        if packet.ttl == 0 {
            return Ok(vec![ProtoEffect::DropData {
                packet,
                reason: DataDropReason::TtlExpired,
            }]);
        }
        let policy = self.cfg.multipath;
        let ds = self.dests.get_mut(&packet.dst).expect("active route");
        let next_hop = match policy {
            MultipathPolicy::SingleMinHop => {
                ds.succs.best_successor().expect("active route").neighbor
            }
            MultipathPolicy::RoundRobin => {
                let hops: Vec<NodeId> = ds.succs.iter().map(|e| e.neighbor).collect();
                let pick = hops[ds.rr_counter as usize % hops.len()];
                ds.rr_counter = ds.rr_counter.wrapping_add(1);
                pick
            }
        };
        ds.expires = now + self.cfg.route_lifetime;
        ds.succs.confirm(&next_hop, now.as_nanos());
        packet.ttl -= 1;
        Ok(vec![ProtoEffect::SendData { packet, next_hop }])
    }

    /// One ring of Procedure 1 (*Initiate Solicitation*): floods the
    /// solicitation and arms its timeout. Retries keep the T bit clear —
    /// SRP resets are label-driven, not retry-driven.
    fn send_rreq(&mut self, ring: Attempt, now: SimTime, fx: &mut Vec<ProtoEffect>) {
        let dst = ring.dst;
        let rreq_id = self.originate(now);

        let label = self.label_for(dst, now);
        let unknown = label.is_unassigned();
        // The §V lying heuristic: understate the advertised ordering so
        // only strictly better nodes reply.
        let fd = if unknown {
            Frac32::one()
        } else {
            label.fd().lie_down(LIE_K).unwrap_or_else(Frac32::one)
        };
        let rreq = SrpRreq {
            src: self.node,
            rreq_id,
            dst,
            dst_seqno: label.seqno(),
            fd,
            unknown,
            reset: false,
            dest_only: false,
            no_advert: false,
            d: 0,
            ttl: ring.ttl(),
            src_seqno: self.own_seqno,
            src_lfd: Frac32::zero(),
            src_ld: 0,
        };
        fx.push(ProtoEffect::SendControl {
            packet: ControlPacket::Srp(SrpMessage::Rreq(rreq)),
            next_hop: None,
        });
        self.cfg.discovery.arm(ring, fx);
    }

    /// Takes the request id of a solicitation of our own. We are *active*
    /// for our own calculation: mark engaged so the flood cannot re-enter.
    fn originate(&mut self, now: SimTime) -> u64 {
        let cached = self.interner.intern(SplitLabel32::unassigned());
        let engaged = RreqCache {
            cached,
            last_hop: self.node,
            replied: false,
        };
        self.discovery.originate(self.node, now, engaged)
    }

    /// Procedure 3 (*Set Route*): process a feasible advertisement from
    /// `from` for destination `t`. Returns the adopted new label, or `None`
    /// if the advertisement had to be dropped.
    fn set_route(
        &mut self,
        t: NodeId,
        from: NodeId,
        adv: SplitLabel32,
        adv_dist: u32,
        cached: SplitLabel32,
        now: SimTime,
    ) -> Option<SplitLabel32> {
        if t == self.node {
            return None;
        }
        self.prune_stale_succs(t, now);
        let own = self.label_for(t, now);
        if !own.precedes(&adv) {
            return None; // infeasible at this node
        }
        // DELETE_PERIOD forgetting erases the label but not the
        // sequence-number floor: once this node has held seqno `s` for
        // `t`, an advertisement below `s` is stale (or forged — honest
        // destinations never decrease their number) and adopting it
        // fresh would restart the order from a point other nodes'
        // recorded orderings have already moved past.
        if adv.seqno() < self.seqno_floor.get(&t).copied().unwrap_or(0) {
            return None;
        }
        let g = new_order(own, cached, adv);
        if !g.label.is_finite() {
            return None;
        }
        // Theorem 6 only guarantees the result maintains order under
        // Facts 1–2 (own ≺ adv, cached ≺ adv). Fact 1 is checked above;
        // Fact 2 holds by construction of the cached solicitation in
        // honest operation, but a forged advertisement can violate it —
        // e.g. adv == cached makes the split mediant *equal* its bounds
        // instead of lying strictly between them, and installing that
        // label breaks the Eq. 5 successor invariant the loop-freedom
        // proof rests on. Re-verify Definition 1 and drop otherwise.
        if !maintains_order(&g.label, &own, &cached, &adv, None) {
            return None;
        }
        // §VI Farey reduction: once the raw mediant's denominator crosses
        // the configured width threshold, adopt the *simplest* fraction
        // satisfying the same Definition 1 inequalities instead. The
        // successor floor keeps every same-seqno successor that survives
        // line 13 strictly below the reduced label (Eq. 6).
        let mut adopted = g.label;
        if adopted.fd().den() >= REDUCE_DEN_THRESHOLD {
            let succ_floor = self.dests.get(&t).and_then(|ds| {
                ds.succs
                    .iter()
                    .map(|e| e.label)
                    .filter(|l| adopted.precedes(l) && l.seqno() == adopted.seqno())
                    .map(|l| l.fd())
                    .max()
            });
            if let Some(r) = reduce_label(&g.label, &own, &cached, &adv, succ_floor) {
                adopted = r;
            }
        }
        let ds = self.dests.entry(t).or_insert_with(DestState::unassigned);
        ds.label = adopted;
        // Line 13 of Algorithm 1.
        ds.succs.prune_out_of_order(&adopted);
        let dist = adv_dist.saturating_add(1);
        ds.succs.insert(from, adv, dist, now.as_nanos());
        ds.dist = ds
            .succs
            .best_successor()
            .map(|e| e.distance)
            .unwrap_or(dist);
        ds.expires = now + self.cfg.route_lifetime;
        ds.forget_at = None;
        let floor = self.seqno_floor.entry(t).or_insert(0);
        *floor = (*floor).max(adopted.seqno());
        let den = adopted.fd().den() as u64;
        if den > self.max_denominator {
            self.max_denominator = den;
        }
        // Debug builds re-verify the Definition 1 invariants at the only
        // point that installs or rewrites successor entries, so every
        // integration/proptest run invariant-checks for free. Release
        // builds compile this out (the 100k-node scale profile is
        // untouched).
        #[cfg(debug_assertions)]
        self.debug_assert_local_order(t);
        Some(adopted)
    }

    /// Definition 1 (Eq. 5) and the floor/label consistency checks for
    /// one destination's installed successor set, as hard assertions.
    /// Compiled only under `debug_assertions`; both historical SRP loops
    /// were *globally* cyclic while every node stayed locally order-clean,
    /// so these asserts must hold even under the `regress-*` flags — the
    /// global half (Theorem 3 acyclicity) needs the model checker's
    /// cross-node view.
    #[cfg(debug_assertions)]
    fn debug_assert_local_order(&self, t: NodeId) {
        use slr_core::invariant::{check_edge_order, SuccessorEdge};
        let Some(ds) = self.dests.get(&t) else {
            return;
        };
        let edges: Vec<SuccessorEdge<u32>> = ds
            .succs
            .iter()
            .map(|e| SuccessorEdge {
                from: self.node,
                to: e.neighbor,
                own: ds.label,
                recorded: e.label,
            })
            .collect();
        if let Err(v) = check_edge_order(t, &edges) {
            panic!("SRP local invariant broken at node {}: {v}", self.node);
        }
        let floor = self.seqno_floor.get(&t).copied().unwrap_or(0);
        assert!(
            ds.succs.is_empty() || floor >= ds.label.seqno(),
            "node {}: seqno floor {} below installed label seqno {} for dest {}",
            self.node,
            floor,
            ds.label.seqno(),
            t
        );
    }

    /// Broadcast a RERR for `lost` (rate-limited per destination).
    fn send_rerr(&mut self, lost: Vec<NodeId>, now: SimTime, fx: &mut Vec<ProtoEffect>) {
        if let Some(unreachable) = self
            .discovery
            .rerr_due(&self.cfg.discovery, lost, |&d| d, now)
        {
            fx.push(ProtoEffect::SendControl {
                packet: ControlPacket::Srp(SrpMessage::Rerr(SrpRerr {
                    unreachable,
                    cold_reboot: false,
                })),
                next_hop: None,
            });
        }
    }

    /// Procedure 2 (*Relay Solicitation*) plus destination/SDC replies.
    fn handle_rreq(
        &mut self,
        ctx: &mut ProtoCtx<'_>,
        prev: NodeId,
        rreq: SrpRreq,
    ) -> Vec<ProtoEffect> {
        let mut fx = Vec::new();
        let now = ctx.now;
        self.discovery.sweep(&self.cfg.discovery, now);
        if rreq.src == self.node {
            return fx; // our own flood echoed back
        }
        // Become engaged: cache {A, ID_A, O_#, lasthop}.
        let key = (rreq.src, rreq.rreq_id);
        let solicited = if rreq.unknown {
            SplitLabel32::unassigned()
        } else {
            SplitLabel32::new(rreq.dst_seqno, rreq.fd)
        };
        let engaged = || RreqCache {
            cached: self.interner.intern(solicited),
            last_hop: prev,
            replied: false,
        };
        if !self.discovery.first_sight(key, now, engaged) {
            return fx; // not passive for this calculation
        }

        // Learn the route to the source from the RREQ's advertisement
        // piece (Procedure 3 with an unassigned cached ordering).
        let mut reverse_built = true;
        if !rreq.no_advert {
            let adv = SplitLabel32::new(rreq.src_seqno, rreq.src_lfd);
            // The advertisement's measured distance grows with the flood.
            if self
                .set_route(rreq.src, prev, adv, rreq.d, SplitLabel32::unassigned(), now)
                .is_none()
                && !self.route_active(rreq.src, now)
            {
                reverse_built = false;
            }
        } else {
            reverse_built = self.route_active(rreq.src, now);
        }

        // The solicitation is direct evidence its originator currently
        // has no usable route to the destination. If the originator is
        // still in our successor set for that destination — possible only
        // when our state outlived its (it restarted cold faster than our
        // route expired) — answering from that route would hand it a path
        // through itself and close a two-node cycle the moment it adopts
        // the reply. Drop the stale edge first.
        // (`regress-pr2-cold-reboot` disables this purge — together with
        // the cold-reboot RERR in `on_rejoin` — so the model checker can
        // re-find the PR 2 crash–rejoin cycle. Never enabled in a
        // shipping build.)
        let stale_requester = if cfg!(feature = "regress-pr2-cold-reboot") {
            false
        } else {
            match self.dests.get_mut(&rreq.dst) {
                Some(ds) if ds.succs.contains(&rreq.src) => {
                    ds.succs.remove(&rreq.src);
                    ds.succs.is_empty()
                }
                _ => false,
            }
        };
        if stale_requester {
            self.invalidate(rreq.dst, now);
        }

        // Destination reply: T may respond to any solicitation for itself.
        if rreq.dst == self.node {
            if rreq.reset {
                // A reset must carry a strictly larger sequence number.
                self.own_seqno = self.own_seqno.max(rreq.dst_seqno) + 1;
                self.seqno_increments += 1;
            } else if !rreq.unknown && rreq.dst_seqno > self.own_seqno {
                // Stale-clock guard: the network can never legitimately
                // know a larger seqno, but be safe (64-bit timestamps make
                // this unreachable in practice).
                self.own_seqno = rreq.dst_seqno + 1;
                self.seqno_increments += 1;
            }
            self.discovery.flood_mut(key).expect("just logged").replied = true;
            fx.push(ProtoEffect::SendControl {
                packet: ControlPacket::Srp(SrpMessage::Rrep(SrpRrep {
                    rreq_src: rreq.src,
                    rreq_id: rreq.rreq_id,
                    dst: self.node,
                    dst_seqno: self.own_seqno,
                    lfd: Frac32::zero(),
                    ld: 0,
                    no_reverse: !reverse_built,
                })),
                next_hop: Some(prev),
            });
            return fx;
        }

        // Intermediate reply under the Start Distance Condition, gated by
        // the §V several-hops heuristic and the D bit.
        let own = self.label_for(rreq.dst, now);
        let sdc = self.route_active(rreq.dst, now)
            && (own.seqno() > rreq.dst_seqno || (solicited.precedes(&own) && !rreq.reset));
        if sdc && !rreq.dest_only && rreq.d >= self.cfg.min_reply_hops {
            let ds = self.dests.get(&rreq.dst).expect("active route");
            let (label, dist) = (ds.label, ds.dist);
            self.discovery.flood_mut(key).expect("just logged").replied = true;
            fx.push(ProtoEffect::SendControl {
                packet: ControlPacket::Srp(SrpMessage::Rrep(SrpRrep {
                    rreq_src: rreq.src,
                    rreq_id: rreq.rreq_id,
                    dst: rreq.dst,
                    dst_seqno: label.seqno(),
                    lfd: label.fd(),
                    ld: dist,
                    no_reverse: !reverse_built,
                })),
                next_hop: Some(prev),
            });
            return fx;
        }

        // Relay (Eqs. 9–11).
        if rreq.ttl <= 1 {
            return fx; // flood exhausted
        }
        let own_unassigned = own.is_unassigned();
        let new_ordering = if rreq.unknown && own_unassigned {
            SplitLabel32::unassigned()
        } else if own.seqno() > rreq.dst_seqno {
            own
        } else if own.seqno() == rreq.dst_seqno && !own_unassigned {
            SplitLabel32::min_label(own, solicited)
        } else {
            solicited
        };
        let new_reset = if (rreq.unknown && own_unassigned) || own.seqno() > rreq.dst_seqno {
            false
        } else if !solicited.precedes(&own) && rreq.fd.mediant_overflows(&own.fd()) {
            true
        } else {
            rreq.reset
        };

        // Advertisement piece for the relayed RREQ: our route to the source.
        let (no_advert, src_seqno, src_lfd, src_ld) = if self.route_active(rreq.src, now) {
            let srcs = self.dests.get(&rreq.src).expect("active route");
            (false, srcs.label.seqno(), srcs.label.fd(), srcs.dist)
        } else {
            (true, rreq.src_seqno, rreq.src_lfd, rreq.src_ld)
        };

        let relayed = SrpRreq {
            src: rreq.src,
            rreq_id: rreq.rreq_id,
            dst: rreq.dst,
            dst_seqno: new_ordering.seqno(),
            fd: new_ordering.fd(),
            unknown: new_ordering.is_unassigned(),
            reset: new_reset,
            dest_only: rreq.dest_only,
            no_advert,
            d: rreq.d + 1,
            ttl: rreq.ttl - 1,
            src_seqno,
            src_lfd,
            src_ld,
        };
        // D-bit probes travel the unicast forward path; floods broadcast.
        let next_hop = if rreq.dest_only {
            if self.route_active(rreq.dst, now) {
                self.dests
                    .get(&rreq.dst)
                    .and_then(|ds| ds.succs.best_successor())
                    .map(|e| e.neighbor)
            } else {
                None // cannot advance a probe without a route: drop
            }
        } else {
            None
        };
        if rreq.dest_only && next_hop.is_none() {
            return fx;
        }
        fx.push(ProtoEffect::SendControl {
            packet: ControlPacket::Srp(SrpMessage::Rreq(relayed)),
            next_hop,
        });
        fx
    }

    /// Procedures 3–4: process and possibly relay an advertisement.
    fn handle_rrep(
        &mut self,
        ctx: &mut ProtoCtx<'_>,
        _prev_from: NodeId,
        rrep: SrpRrep,
    ) -> Vec<ProtoEffect> {
        let mut fx = Vec::new();
        let now = ctx.now;
        let from = _prev_from;
        let t = rrep.dst;
        let terminus = rrep.rreq_src == self.node;
        let adv = SplitLabel32::new(rrep.dst_seqno, rrep.lfd);

        let flood = (rrep.rreq_src, rrep.rreq_id);
        // Procedure 3: the terminus (and nodes without a cached ordering)
        // use the unassigned cached ordering.
        let cached = if terminus {
            SplitLabel32::unassigned()
        } else {
            match self.discovery.flood(flood) {
                Some(c) => self.interner.get(c.cached),
                None => return fx, // not engaged: cannot route the reply
            }
        };

        match self.set_route(t, from, adv, rrep.ld, cached, now) {
            Some(new_label) => {
                if terminus {
                    let held = self.discovery.settle(t);
                    forward_all(held, &mut fx, |p| self.try_forward(p, now));
                    // MAX_DENOM reset probe (Procedure 3).
                    if needs_denominator_reset(&new_label, MAX_DENOM) {
                        self.resets_requested += 1;
                        self.send_reset_probe(t, now, &mut fx);
                    }
                } else {
                    self.relay_reply(flood, t, rrep.no_reverse, &mut fx);
                }
            }
            None => {
                // Infeasible: a relay with an active route may issue a new
                // advertisement from its own label (Procedure 4); otherwise
                // the advertisement dies here.
                if !terminus && self.route_active(t, now) {
                    self.relay_reply(flood, t, rrep.no_reverse, &mut fx);
                } else if terminus && self.route_active(t, now) {
                    // An infeasible reply but some route exists: use it.
                    let held = self.discovery.settle(t);
                    forward_all(held, &mut fx, |p| self.try_forward(p, now));
                }
            }
        }
        fx
    }

    /// Answers `flood` once, along the reverse hop its engaged entry
    /// cached, advertising our own label and distance for `t` (which must
    /// have an active route).
    fn relay_reply(
        &mut self,
        flood: FloodId,
        t: NodeId,
        no_reverse: bool,
        fx: &mut Vec<ProtoEffect>,
    ) {
        let Some(c) = self.discovery.flood_mut(flood) else {
            return;
        };
        if std::mem::replace(&mut c.replied, true) {
            return;
        }
        let ds = self.dests.get(&t).expect("active route");
        fx.push(ProtoEffect::SendControl {
            packet: ControlPacket::Srp(SrpMessage::Rrep(SrpRrep {
                rreq_src: flood.0,
                rreq_id: flood.1,
                dst: t,
                dst_seqno: ds.label.seqno(),
                lfd: ds.label.fd(),
                ld: ds.dist,
                no_reverse,
            })),
            next_hop: Some(c.last_hop),
        });
    }

    /// Sends the unicast D-bit path-reset probe toward `t`.
    fn send_reset_probe(&mut self, t: NodeId, now: SimTime, fx: &mut Vec<ProtoEffect>) {
        if !self.route_active(t, now) {
            return;
        }
        let next = self
            .dests
            .get(&t)
            .and_then(|ds| ds.succs.best_successor())
            .map(|e| e.neighbor)
            .expect("active route");
        let rreq_id = self.originate(now);
        let label = self.label_for(t, now);
        let rreq = SrpRreq {
            src: self.node,
            rreq_id,
            dst: t,
            dst_seqno: label.seqno(),
            fd: label.fd(),
            unknown: label.is_unassigned(),
            reset: true,
            dest_only: true,
            no_advert: false,
            d: 0,
            ttl: 64,
            src_seqno: self.own_seqno,
            src_lfd: Frac32::zero(),
            src_ld: 0,
        };
        fx.push(ProtoEffect::SendControl {
            packet: ControlPacket::Srp(SrpMessage::Rreq(rreq)),
            next_hop: Some(next),
        });
    }

    fn handle_rerr(&mut self, now: SimTime, prev: NodeId, rerr: SrpRerr) -> Vec<ProtoEffect> {
        let mut fx = Vec::new();
        let mut lost = Vec::new();
        // R bit: the sender rebooted cold, so *every* successor edge
        // toward it is stale — purge it from all destinations, not just
        // the listed ones. Keeping any such edge would let the rebooted
        // node (label-unassigned, so it accepts any route offer) adopt a
        // path back through us and close a loop.
        if rerr.cold_reboot {
            let dests: Vec<NodeId> = self.dests.keys().copied().collect();
            for t in dests {
                let ds = self.dests.get_mut(&t).expect("iterating keys");
                if ds.succs.contains(&prev) {
                    ds.succs.remove(&prev);
                    if ds.succs.is_empty() {
                        self.invalidate(t, now);
                        lost.push(t);
                    }
                }
            }
        }
        for t in rerr.unreachable {
            let became_invalid = {
                match self.dests.get_mut(&t) {
                    Some(ds) if ds.succs.contains(&prev) => {
                        ds.succs.remove(&prev);
                        ds.succs.is_empty()
                    }
                    _ => false,
                }
            };
            if became_invalid {
                self.invalidate(t, now);
                lost.push(t);
            }
        }
        self.send_rerr(lost, now, &mut fx);
        fx
    }
}

impl RoutingProtocol for Srp {
    fn name(&self) -> &'static str {
        "SRP"
    }

    fn on_start(&mut self, _ctx: &mut ProtoCtx<'_>) -> Vec<ProtoEffect> {
        Vec::new() // purely on-demand
    }

    fn on_rejoin(&mut self, _ctx: &mut ProtoCtx<'_>) -> Vec<ProtoEffect> {
        // Test-only regression flag (see `prune_stale_succs` for the
        // PR 7 twin): silence the cold-reboot announcement so the model
        // checker can re-find the PR 2 crash–rejoin cycle.
        if cfg!(feature = "regress-pr2-cold-reboot") {
            return Vec::new();
        }
        // Cold reboot: announce it so neighbors purge every stale
        // successor edge toward this node before it re-acquires labels
        // (see [`SrpRerr::cold_reboot`]). Without the announcement, a
        // neighbor still routing through us — its route outlived our
        // crash — could answer our upcoming solicitations from that very
        // route and the successor graph would close into a loop.
        vec![ProtoEffect::SendControl {
            packet: ControlPacket::Srp(SrpMessage::Rerr(SrpRerr {
                unreachable: Vec::new(),
                cold_reboot: true,
            })),
            next_hop: None,
        }]
    }

    fn on_data_from_app(&mut self, ctx: &mut ProtoCtx<'_>, packet: DataPacket) -> Vec<ProtoEffect> {
        let now = ctx.now;
        if packet.dst == self.node {
            return vec![ProtoEffect::DeliverLocal(packet)];
        }
        let packet = match self.try_forward(packet, now) {
            Ok(fx) => return fx,
            Err(packet) => packet,
        };
        let mut fx = Vec::new();
        if let Some(ring) = self.discovery.hold(packet, now, &mut fx) {
            self.send_rreq(ring, now, &mut fx);
        }
        fx
    }

    fn on_data_received(
        &mut self,
        ctx: &mut ProtoCtx<'_>,
        from: NodeId,
        packet: DataPacket,
    ) -> Vec<ProtoEffect> {
        let now = ctx.now;
        if packet.dst == self.node {
            return vec![ProtoEffect::DeliverLocal(packet)];
        }
        let packet = match self.try_forward(packet, now) {
            Ok(fx) => return fx,
            Err(packet) => packet,
        };
        // No successor: route error to the data packet's last hop (§II),
        // then hold the packet and repair locally.
        let mut fx = Vec::new();
        fx.push(ProtoEffect::SendControl {
            packet: ControlPacket::Srp(SrpMessage::Rerr(SrpRerr {
                unreachable: vec![packet.dst],
                cold_reboot: false,
            })),
            next_hop: Some(from),
        });
        if let Some(ring) = self.discovery.hold(packet, now, &mut fx) {
            self.send_rreq(ring, now, &mut fx);
        }
        fx
    }

    fn on_control_received(
        &mut self,
        ctx: &mut ProtoCtx<'_>,
        from: NodeId,
        packet: ControlPacket,
    ) -> Vec<ProtoEffect> {
        let ControlPacket::Srp(msg) = packet else {
            return Vec::new();
        };
        match msg {
            SrpMessage::Rreq(r) => self.handle_rreq(ctx, from, r),
            SrpMessage::Rrep(r) => self.handle_rrep(ctx, from, r),
            SrpMessage::Rerr(r) => self.handle_rerr(ctx.now, from, r),
        }
    }

    fn on_timer(&mut self, ctx: &mut ProtoCtx<'_>, token: u64) -> Vec<ProtoEffect> {
        let mut fx = Vec::new();
        let now = ctx.now;
        let Some(due) = self
            .discovery
            .on_timer(&self.cfg.discovery, token, now, &mut fx)
        else {
            return fx;
        };
        if self.route_active(due.dst, now) {
            self.discovery.cancel(due.dst);
        } else if let Some(ring) = self.discovery.retry(due, &mut fx) {
            self.send_rreq(ring, now, &mut fx);
        }
        fx
    }

    fn on_link_failure(
        &mut self,
        ctx: &mut ProtoCtx<'_>,
        next_hop: NodeId,
        packet: Option<DataPacket>,
    ) -> Vec<ProtoEffect> {
        let mut fx = Vec::new();
        let now = ctx.now;
        // Break the next hop everywhere.
        let mut lost = Vec::new();
        let dests: Vec<NodeId> = self.dests.keys().copied().collect();
        for t in dests {
            let ds = self.dests.get_mut(&t).expect("iterating keys");
            if ds.succs.contains(&next_hop) {
                ds.succs.remove(&next_hop);
                if ds.succs.is_empty() {
                    self.invalidate(t, now);
                    lost.push(t);
                }
            }
        }
        self.send_rerr(lost, now, &mut fx);
        // Packet cache: resend the dropped packet over an alternate
        // successor, or repair.
        if let Some(p) = packet {
            match self.try_forward(p, now) {
                Ok(out) => fx.extend(out),
                Err(p) => {
                    if let Some(ring) = self.discovery.hold(p, now, &mut fx) {
                        self.send_rreq(ring, now, &mut fx);
                    }
                }
            }
        }
        fx
    }

    fn stats(&self) -> ProtoStats {
        ProtoStats {
            own_seqno_increments: self.seqno_increments,
            max_fd_denominator: self.max_denominator,
            discoveries: self.discovery.started(),
            resets_requested: self.resets_requested,
            adversarial_actions: 0,
            audit_rejections: 0,
        }
    }

    fn successor_view(&self) -> Option<&dyn SuccessorView> {
        Some(self)
    }

    fn mem_bytes(&self) -> usize {
        Srp::mem_bytes(self)
    }
}

/// The live successor graph. Labels are read as stored (no
/// DELETE_PERIOD expiry); successor entries apply the engine's
/// per-entry freshness horizon.
impl SuccessorView for Srp {
    fn destinations(&self, out: &mut Vec<NodeId>) {
        out.extend(
            self.dests
                .iter()
                .filter(|(_, d)| !d.succs.is_empty())
                .map(|(t, _)| *t),
        );
    }

    fn label(&self, dst: NodeId) -> SplitLabel32 {
        if dst == self.node {
            return SplitLabel32::destination(self.own_seqno);
        }
        self.dests
            .get(&dst)
            .map(|d| d.label)
            .unwrap_or_else(SplitLabel32::unassigned)
    }

    fn successors(&self, dst: NodeId, now: SimTime, out: &mut Vec<SuccessorEdge<u32>>) {
        let Some(d) = self.dests.get(&dst) else {
            return;
        };
        let (own, lifetime) = (self.label(dst), self.cfg.route_lifetime);
        out.extend(
            d.succs
                .iter()
                // Mirror the engine: under the entry-expiry regression flag
                // the freshness horizon does not exist, so the graph keeps
                // stale entries.
                .filter(|e| {
                    cfg!(feature = "regress-pr7-entry-expiry") || !is_stale(e, now, lifetime)
                })
                .map(|e| SuccessorEdge {
                    from: self.node,
                    to: e.neighbor,
                    own,
                    recorded: e.label,
                }),
        );
    }
}

/// Canonical state serialization for the model checker: every
/// behavior-relevant field, with stored absolute times rewritten as
/// deltas from `now` (clamped at the horizon that governs them) so two
/// states that behave identically hash identically regardless of the
/// absolute clock. Pure statistics counters (`seqno_increments`,
/// [`Discovery::started`], `resets_requested`, `max_denominator`) are
/// excluded — they never influence a protocol decision.
#[cfg(feature = "model-check")]
impl crate::model::ModelCheckable for Srp {
    fn model_canonical(&self, now: SimTime, out: &mut Vec<u8>) {
        use crate::model::{age, put};
        fn put_label(out: &mut Vec<u8>, l: &SplitLabel32) {
            put(out, l.seqno());
            put(out, l.fd().num() as u64);
            put(out, l.fd().den() as u64);
        }
        /// Time remaining until a stored deadline (0 once passed).
        fn remaining(out: &mut Vec<u8>, deadline: SimTime, now: SimTime) {
            put(out, deadline.saturating_since(now).as_nanos());
        }

        put(out, 0xA0);
        put(out, self.node as u64);
        put(out, self.own_seqno);
        put(out, self.discovery.last_rreq_id());

        put(out, 0xA1);
        put(out, self.dests.len() as u64);
        for (&t, ds) in self.dests.iter() {
            put(out, t as u64);
            put_label(out, &ds.label);
            put(out, ds.dist as u64);
            put(out, ds.succs.len() as u64);
            for e in ds.succs.iter() {
                put(out, e.neighbor as u64);
                put_label(out, &e.label);
                put(out, e.distance as u64);
            }
            // Confirmation ages follow as a list of their own: a fixed
            // encoding keeps state counts comparable across versions.
            put(out, ds.succs.len() as u64);
            for e in ds.succs.iter() {
                put(out, e.neighbor as u64);
                age(out, now, confirmed_at(e), self.cfg.route_lifetime);
            }
            remaining(out, ds.expires, now);
            match ds.forget_at {
                None => put(out, u64::MAX),
                Some(f) => remaining(out, f, now),
            }
            put(out, ds.rr_counter as u64);
        }

        self.discovery
            .model_canonical(&self.cfg.discovery, now, out, |out, c| {
                put_label(out, &self.interner.get(c.cached));
                put(out, c.last_hop as u64);
                put(out, c.replied as u64);
            });

        put(out, 0xA6);
        put(out, self.seqno_floor.len() as u64);
        for (&d, &floor) in self.seqno_floor.iter() {
            put(out, d as u64);
            put(out, floor);
        }

        put(out, 0xA7);
        remaining(out, self.discovery.next_sweep_at(), now);
    }

    fn model_seqno_floor(&self, dst: NodeId) -> u64 {
        self.seqno_floor.get(&dst).copied().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    use slr_core::Fraction;

    /// The successors toward `dst`, with their recorded orderings, that
    /// the view reports at `now`.
    fn successors(b: &Srp, dst: NodeId, now: SimTime) -> Vec<(NodeId, SplitLabel32)> {
        let mut edges = Vec::new();
        SuccessorView::successors(b, dst, now, &mut edges);
        assert!(edges
            .iter()
            .all(|e| e.from == b.node && e.own == b.label(dst)));
        edges.iter().map(|e| (e.to, e.recorded)).collect()
    }

    fn ctx_at(rng: &mut SmallRng, secs: u64) -> ProtoCtx<'_> {
        ProtoCtx {
            now: SimTime::from_secs(secs),
            rng,
        }
    }

    fn data(src: NodeId, dst: NodeId, uid: u64) -> DataPacket {
        DataPacket {
            src,
            dst,
            uid,
            origin_time: SimTime::ZERO,
            bytes: 512,
            ttl: 64,
            source_route: None,
        }
    }

    fn rreq_of(fx: &[ProtoEffect]) -> Option<SrpRreq> {
        fx.iter().find_map(|e| match e {
            ProtoEffect::SendControl {
                packet: ControlPacket::Srp(SrpMessage::Rreq(r)),
                ..
            } => Some(r.clone()),
            _ => None,
        })
    }

    fn rrep_of(fx: &[ProtoEffect]) -> Option<(SrpRrep, Option<NodeId>)> {
        fx.iter().find_map(|e| match e {
            ProtoEffect::SendControl {
                packet: ControlPacket::Srp(SrpMessage::Rrep(r)),
                next_hop,
            } => Some((r.clone(), *next_hop)),
            _ => None,
        })
    }

    /// End-to-end discovery over the line 0–1–2 (0 seeks 2).
    #[test]
    fn three_node_discovery_builds_labels() {
        let mut rng = SmallRng::seed_from_u64(1);
        let mut a = Srp::new(0, SrpConfig::default());
        let mut b = Srp::new(1, SrpConfig::default());
        let mut c = Srp::new(2, SrpConfig::default());

        // 0 originates data for 2: buffers + RREQ.
        let fx = a.on_data_from_app(&mut ctx_at(&mut rng, 1), data(0, 2, 1));
        let rreq = rreq_of(&fx).expect("RREQ issued");
        assert!(rreq.unknown, "no stored ordering for 2");
        assert_eq!(rreq.d, 0);

        // 1 relays.
        let fx = b.on_control_received(
            &mut ctx_at(&mut rng, 1),
            0,
            ControlPacket::Srp(SrpMessage::Rreq(rreq)),
        );
        let relayed = rreq_of(&fx).expect("relayed");
        assert_eq!(relayed.d, 1);
        assert!(relayed.unknown);

        // 2 (the destination) replies.
        let fx = c.on_control_received(
            &mut ctx_at(&mut rng, 1),
            1,
            ControlPacket::Srp(SrpMessage::Rreq(relayed)),
        );
        let (rrep, nh) = rrep_of(&fx).expect("destination replies");
        assert_eq!(nh, Some(1));
        assert!(rrep.lfd.is_zero(), "destination advertises 0/1");
        assert_eq!(rrep.ld, 0);

        // 1 adopts label 1/2 (next-element of 0/1) and relays to 0.
        let fx = b.on_control_received(
            &mut ctx_at(&mut rng, 1),
            2,
            ControlPacket::Srp(SrpMessage::Rrep(rrep)),
        );
        let (rrep2, nh2) = rrep_of(&fx).expect("relayed reply");
        assert_eq!(nh2, Some(0));
        assert_eq!(rrep2.lfd, Fraction::new(1, 2).unwrap());
        assert_eq!(rrep2.ld, 1);

        // 0 adopts 2/3 and flushes the buffered packet toward 1.
        let fx = a.on_control_received(
            &mut ctx_at(&mut rng, 1),
            1,
            ControlPacket::Srp(SrpMessage::Rrep(rrep2)),
        );
        assert!(
            fx.iter()
                .any(|e| matches!(e, ProtoEffect::SendData { next_hop: 1, .. })),
            "{fx:?}"
        );
        assert_eq!(
            a.label_for(2, SimTime::from_secs(1)).fd(),
            Fraction::new(2, 3).unwrap()
        );
        // Sequence numbers never moved (the Fig. 7 invariant).
        assert_eq!(a.stats().own_seqno_increments, 0);
        assert_eq!(b.stats().own_seqno_increments, 0);
        assert_eq!(c.stats().own_seqno_increments, 0);
    }

    /// Regression: a forged advertisement equal to the cached solicitation
    /// ordering violates Fact 2 and makes Algorithm 1's split mediant
    /// degenerate — mediant(1/2, 1/2) = 2/4, numerically *equal* to its
    /// bounds instead of strictly between them. Installing it would record
    /// a successor ordering the node's own label does not strictly precede
    /// (Eq. 5), the invariant Theorem 3's loop-freedom proof rests on.
    /// Set Route must drop the advertisement instead.
    #[test]
    fn forged_degenerate_mediant_advertisement_is_dropped() {
        let mut rng = SmallRng::seed_from_u64(3);
        let mut b = Srp::new(1, SrpConfig::default());
        let half = Fraction::new(1, 2).unwrap();
        // Engaged relay whose cached minimum-predecessor ordering is
        // (3, 1/2) for the flood (src 0, id 7).
        let cached = b.interner.intern(SplitLabel32::new(3, half));
        assert!(b
            .discovery
            .first_sight((0, 7), SimTime::ZERO, || RreqCache {
                cached,
                last_hop: 0,
                replied: false,
            }));
        // A reply advertising *exactly* the cached ordering — honest
        // repliers always advertise a strictly lower one.
        let forged = SrpRrep {
            rreq_src: 0,
            rreq_id: 7,
            dst: 9,
            dst_seqno: 3,
            lfd: half,
            ld: 1,
            no_reverse: false,
        };
        let fx = b.on_control_received(
            &mut ctx_at(&mut rng, 2),
            5,
            ControlPacket::Srp(SrpMessage::Rrep(forged)),
        );
        assert!(
            rrep_of(&fx).is_none(),
            "forged reply must not be relayed: {fx:?}"
        );
        assert!(
            !b.label_for(9, SimTime::from_secs(2)).is_finite(),
            "no label may be installed from degenerate bounds"
        );
    }

    /// Regression: the per-destination sequence-number floor survives
    /// DELETE_PERIOD forgetting. Forged floods can carry non-monotone
    /// victim sequence numbers; a node that once held seqno 3 for a
    /// destination and then forgot its label must not re-adopt the
    /// destination at seqno 1 — that restarts the order from a point the
    /// network's recorded orderings have moved past, and two honest
    /// nodes doing so can close a cycle no local order check sees.
    #[test]
    fn seqno_floor_survives_label_forgetting() {
        let mut b = Srp::new(1, SrpConfig::default());
        let now = SimTime::from_secs(1);
        // Adopt dest 9 at seqno 3 via neighbor 2.
        let adv = SplitLabel32::new(3, Fraction::new(1, 2).unwrap());
        assert!(b
            .set_route(9, 2, adv, 1, SplitLabel32::unassigned(), now)
            .is_some());
        // Invalidate and let DELETE_PERIOD pass: the label is forgotten.
        b.invalidate(9, now);
        let later = now + b.cfg.delete_period + SimDuration::from_secs(1);
        assert!(!b.label_for(9, later).is_finite(), "label forgotten");
        // A staler advertisement (seqno 1) must stay rejected...
        let stale = SplitLabel32::new(1, Fraction::new(1, 4).unwrap());
        assert!(
            b.set_route(9, 5, stale, 1, SplitLabel32::unassigned(), later)
                .is_none(),
            "below-floor advertisement re-adopted after forgetting"
        );
        // ...while one at or above the floor is still usable.
        let fresh = SplitLabel32::new(3, Fraction::new(1, 4).unwrap());
        assert!(b
            .set_route(9, 5, fresh, 1, SplitLabel32::unassigned(), later)
            .is_some());
    }

    #[test]
    fn unconfirmed_successor_entry_expires_within_route_lifetime() {
        // Bug harvest (sybil audit, seed 1, trial 9): node 13 forgot its
        // label for dest 10 after DELETE_PERIOD, then passively
        // re-adopted a *regressed* ordering at the same sequence number
        // through node 9 — which still held the successor entry recorded
        // from 13's old label, because per-destination route refreshes
        // (driven by unrelated adverts) kept the whole DestState alive.
        // The two honest nodes formed a successor cycle no local order
        // check could see. The fix: a successor entry unconfirmed for
        // ROUTE_LIFETIME is pruned, and ROUTE_LIFETIME < DELETE_PERIOD
        // guarantees every stale entry pointing at a node is gone before
        // that node may restart its label.
        let cfg = SrpConfig::default();
        assert!(
            cfg.delete_period > cfg.route_lifetime,
            "per-entry expiry is only sound if entries die before labels may restart"
        );
        let mut b = Srp::new(9, cfg);
        let now = SimTime::from_secs(1);
        // Two successors toward dest 10: the destination itself and 13.
        let direct = SplitLabel32::new(17, Fraction::new(0, 1).unwrap());
        let via_13 = SplitLabel32::new(17, Fraction::new(2, 3).unwrap());
        assert!(b
            .set_route(10, 13, via_13, 2, SplitLabel32::unassigned(), now)
            .is_some());
        assert!(b
            .set_route(10, 10, direct, 0, SplitLabel32::unassigned(), now)
            .is_some());
        // Keep the *route* alive through fresh direct adverts while 13
        // stays silent past ROUTE_LIFETIME — exactly the refresh pattern
        // that used to immortalize the stale entry.
        let later = now + b.cfg.route_lifetime + SimDuration::from_secs(1);
        assert!(b
            .set_route(10, 10, direct, 0, SplitLabel32::unassigned(), later)
            .is_some());
        assert!(b.route_active(10, later), "route itself stays active");
        let succs = successors(&b, 10, later);
        assert!(
            succs.iter().all(|(n, _)| *n != 13),
            "unconfirmed entry for 13 must be pruned: {succs:?}"
        );
        assert!(
            succs.iter().any(|(n, _)| *n == 10),
            "freshly confirmed successor must survive"
        );
    }

    #[test]
    fn re_advertised_successor_lives_from_its_re_advertisement() {
        let mut rng = SmallRng::seed_from_u64(13);
        let mut b = Srp::new(1, SrpConfig::default());
        let lifetime = b.cfg.route_lifetime;
        let first = SimTime::from_secs(1);
        let adv = SplitLabel32::new(3, Fraction::new(1, 2).unwrap());
        assert!(b
            .set_route(9, 5, adv, 1, SplitLabel32::unassigned(), first)
            .is_some());
        // The link to 5 breaks, then 5 advertises again (a fresher
        // sequence number, so the retained label accepts it).
        let _ = b.on_link_failure(&mut ctx_at(&mut rng, 2), 5, None);
        assert!(successors(&b, 9, SimTime::from_secs(2)).is_empty());
        let again = SimTime::from_secs(8);
        let adv = SplitLabel32::new(4, Fraction::new(1, 2).unwrap());
        assert!(b
            .set_route(9, 5, adv, 1, SplitLabel32::unassigned(), again)
            .is_some());
        // Past first install + ROUTE_LIFETIME the entry still stands...
        let past_first = first + lifetime + SimDuration::from_secs(1);
        assert!(b.route_active(9, past_first));
        assert_eq!(successors(&b, 9, past_first).len(), 1);
        // ...until re-advertisement + ROUTE_LIFETIME.
        let horizon = again + lifetime;
        let just_before = |t: SimTime| SimTime::from_nanos(t.as_nanos() - 1);
        assert_eq!(successors(&b, 9, just_before(horizon)).len(), 1);
        assert!(successors(&b, 9, horizon).is_empty());
        // A re-advertisement while the entry is still installed (same
        // sequence number, so line 13 keeps it) restamps it too.
        let third = SimTime::from_secs(15);
        let adv = SplitLabel32::new(4, Fraction::new(1, 3).unwrap());
        assert!(b
            .set_route(9, 5, adv, 1, SplitLabel32::unassigned(), third)
            .is_some());
        assert_eq!(successors(&b, 9, third), vec![(5, adv)]);
        let horizon = third + lifetime;
        assert_eq!(successors(&b, 9, just_before(horizon)).len(), 1);
        assert!(successors(&b, 9, horizon).is_empty());
        assert!(!b.route_active(9, horizon));
    }

    #[test]
    fn forwarding_reconfirms_the_successor_it_uses() {
        let mut rng = SmallRng::seed_from_u64(14);
        let mut b = Srp::new(9, SrpConfig::default());
        let lifetime = b.cfg.route_lifetime;
        let now = SimTime::from_secs(1);
        // Two successors toward 10: node 13 (3 hops) and 10 itself.
        let via_13 = SplitLabel32::new(17, Fraction::new(2, 3).unwrap());
        let direct = SplitLabel32::new(17, Fraction::new(0, 1).unwrap());
        assert!(b
            .set_route(10, 13, via_13, 2, SplitLabel32::unassigned(), now)
            .is_some());
        assert!(b
            .set_route(10, 10, direct, 0, SplitLabel32::unassigned(), now)
            .is_some());
        // Data at t1 goes to the min-hop successor, 10.
        let t1 = SimTime::from_secs(7);
        let fx = b.on_data_from_app(&mut ctx_at(&mut rng, 7), data(9, 10, 1));
        assert!(
            fx.iter()
                .any(|e| matches!(e, ProtoEffect::SendData { next_hop: 10, .. })),
            "{fx:?}"
        );
        // The used successor outlives install + ROUTE_LIFETIME; the
        // unused one does not.
        let past_install = now + lifetime;
        let hops: Vec<NodeId> = successors(&b, 10, past_install)
            .iter()
            .map(|(n, _)| *n)
            .collect();
        assert_eq!(hops, vec![10]);
        // The used one lasts until t1 + ROUTE_LIFETIME.
        let horizon = t1 + lifetime;
        let just_before = SimTime::from_nanos(horizon.as_nanos() - 1);
        assert_eq!(successors(&b, 10, just_before).len(), 1);
        assert!(successors(&b, 10, horizon).is_empty());
    }

    #[test]
    fn mem_breakdown_counts_every_table_once() {
        let mut rng = SmallRng::seed_from_u64(15);
        let mut a = Srp::new(0, SrpConfig::default());
        assert_eq!(a.mem_bytes(), 0);
        // Data for an unknown destination: buffered, solicitation cached.
        let _ = a.on_data_from_app(&mut ctx_at(&mut rng, 1), data(0, 9, 1));
        // A route to another destination.
        let adv = SplitLabel32::new(2, Fraction::new(1, 2).unwrap());
        assert!(a
            .set_route(
                4,
                3,
                adv,
                1,
                SplitLabel32::unassigned(),
                SimTime::from_secs(1)
            )
            .is_some());
        let parts = a.mem_breakdown();
        for (name, bytes) in parts {
            assert!(bytes > 0, "{name} not counted");
        }
        let names: Vec<&str> = parts.iter().map(|(n, _)| *n).collect();
        assert_eq!(
            names,
            [
                "dests",
                "successors",
                "discovery",
                "seqno_floor",
                "interner"
            ]
        );
        assert_eq!(parts.iter().map(|(_, b)| b).sum::<usize>(), a.mem_bytes());
        // One route, one successor: exactly one successor slot.
        assert_eq!(
            parts[1].1,
            std::mem::size_of::<SuccessorEntry<NodeId, u32>>()
        );
    }

    /// The flood log is the highest-population table at scale: one entry
    /// must not outgrow the 40 B of the cache entry it replaced.
    #[test]
    fn flood_log_entry_fits_in_40_bytes() {
        use crate::discovery::{Flood, FloodId};
        assert!(std::mem::size_of::<(FloodId, Flood<RreqCache>)>() <= 40);
    }

    #[test]
    fn lying_heuristic_applied_to_rreq() {
        let mut rng = SmallRng::seed_from_u64(2);
        let mut a = Srp::new(0, SrpConfig::default());
        // Give node 0 a label for destination 9 by feeding it a reply.
        let cached = a.interner.intern(SplitLabel32::unassigned());
        assert!(a
            .discovery
            .first_sight((0, 999), SimTime::ZERO, || RreqCache {
                cached,
                last_hop: 0,
                replied: false,
            }));
        let rrep = SrpRrep {
            rreq_src: 0,
            rreq_id: 999,
            dst: 9,
            dst_seqno: 5,
            lfd: Fraction::new(1, 2).unwrap(),
            ld: 1,
            no_reverse: false,
        };
        let _ = a.on_control_received(
            &mut ctx_at(&mut rng, 1),
            3,
            ControlPacket::Srp(SrpMessage::Rrep(rrep)),
        );
        let label = a.label_for(9, SimTime::from_secs(1));
        assert_eq!(label.fd(), Fraction::new(2, 3).unwrap());

        // Invalidate the route but keep the label; a new discovery lies.
        a.invalidate(9, SimTime::from_secs(2));
        let fx = a.on_data_from_app(&mut ctx_at(&mut rng, 3), data(0, 9, 7));
        let rreq = rreq_of(&fx).expect("discovery starts");
        assert!(!rreq.unknown);
        // True ordering 2/3 → lie (2-1)/(3-1) = 1/2.
        assert_eq!(rreq.fd, Fraction::new(1, 2).unwrap());
        assert_eq!(rreq.dst_seqno, 5);
    }

    #[test]
    fn intermediate_reply_requires_min_hops_and_sdc() {
        let mut rng = SmallRng::seed_from_u64(3);
        let mut b = Srp::new(1, SrpConfig::default());
        // Node 1 holds an active route to 9 with label (5, 1/2).
        let cached = b.interner.intern(SplitLabel32::unassigned());
        assert!(b
            .discovery
            .first_sight((1, 999), SimTime::ZERO, || RreqCache {
                cached,
                last_hop: 1,
                replied: false,
            }));
        let seed_rrep = SrpRrep {
            rreq_src: 1,
            rreq_id: 999,
            dst: 9,
            dst_seqno: 5,
            lfd: Fraction::new(1, 3).unwrap(),
            ld: 1,
            no_reverse: false,
        };
        let _ = b.on_control_received(
            &mut ctx_at(&mut rng, 1),
            4,
            ControlPacket::Srp(SrpMessage::Rrep(seed_rrep)),
        );
        assert!(b.route_active(9, SimTime::from_secs(1)));

        // A solicitation that has traveled 0 hops: heuristic blocks reply.
        let rreq = SrpRreq {
            src: 7,
            rreq_id: 1,
            dst: 9,
            dst_seqno: 5,
            fd: Fraction::new(3, 4).unwrap(),
            unknown: false,
            reset: false,
            dest_only: false,
            no_advert: true,
            d: 0,
            ttl: 5,
            src_seqno: 1,
            src_lfd: Frac32::one(),
            src_ld: 0,
        };
        let fx = b.on_control_received(
            &mut ctx_at(&mut rng, 1),
            7,
            ControlPacket::Srp(SrpMessage::Rreq(rreq.clone())),
        );
        assert!(rrep_of(&fx).is_none(), "0-hop RREQ must not be answered");
        assert!(rreq_of(&fx).is_some(), "relayed instead");

        // Same solicitation after 2 hops (fresh rreq id): SDC satisfied
        // (solicited (5, 3/4) ≺ ours (5, ~1/2-range)) → reply.
        let rreq2 = SrpRreq {
            rreq_id: 2,
            d: 2,
            ..rreq
        };
        let fx = b.on_control_received(
            &mut ctx_at(&mut rng, 1),
            7,
            ControlPacket::Srp(SrpMessage::Rreq(rreq2.clone())),
        );
        let (rrep, _) = rrep_of(&fx).expect("SDC reply after 2 hops");
        assert_eq!(rrep.dst, 9);

        // Out-of-order solicitation (fraction below ours) with same seqno:
        // SDC fails → relay only.
        let rreq3 = SrpRreq {
            rreq_id: 3,
            d: 2,
            fd: Fraction::new(1, 10).unwrap(),
            ..rreq2
        };
        let fx = b.on_control_received(
            &mut ctx_at(&mut rng, 1),
            7,
            ControlPacket::Srp(SrpMessage::Rreq(rreq3)),
        );
        assert!(rrep_of(&fx).is_none());
        assert!(rreq_of(&fx).is_some());
    }

    #[test]
    fn relay_strengthens_ordering_eq10() {
        let mut rng = SmallRng::seed_from_u64(4);
        let mut b = Srp::new(1, SrpConfig::default());
        // Node 1 has a *fresher* stale label (seqno 7) for 9 but no route.
        let mut ds = DestState::unassigned();
        ds.label = SplitLabel32::new(7, Fraction::new(2, 3).unwrap());
        ds.dist = 2;
        b.dests.insert(9, ds);
        let rreq = SrpRreq {
            src: 7,
            rreq_id: 1,
            dst: 9,
            dst_seqno: 5,
            fd: Fraction::new(1, 2).unwrap(),
            unknown: false,
            reset: true,
            dest_only: false,
            no_advert: true,
            d: 1,
            ttl: 5,
            src_seqno: 1,
            src_lfd: Frac32::one(),
            src_ld: 0,
        };
        let fx = b.on_control_received(
            &mut ctx_at(&mut rng, 1),
            7,
            ControlPacket::Srp(SrpMessage::Rreq(rreq)),
        );
        let relayed = rreq_of(&fx).expect("relayed");
        // Eq. 10 second arm: sn_B > sn_# → relay our ordering.
        assert_eq!(relayed.dst_seqno, 7);
        assert_eq!(relayed.fd, Fraction::new(2, 3).unwrap());
        // Eq. 11 second arm: reset bit cleared.
        assert!(!relayed.reset);
    }

    #[test]
    fn relay_sets_reset_on_fraction_overflow() {
        let mut rng = SmallRng::seed_from_u64(5);
        let mut b = Srp::new(1, SrpConfig::default());
        let big = Fraction::<u32>::new(u32::MAX - 2, u32::MAX - 1).unwrap();
        let mut ds = DestState::unassigned();
        ds.label = SplitLabel32::new(5, big);
        ds.dist = 2;
        b.dests.insert(9, ds);
        // Solicitation at the same seqno whose fraction is *above* ours
        // (so we are out of order) and overflows on mediant.
        let rreq = SrpRreq {
            src: 7,
            rreq_id: 1,
            dst: 9,
            dst_seqno: 5,
            fd: Fraction::<u32>::new(u32::MAX - 3, u32::MAX - 2).unwrap(),
            unknown: false,
            reset: false,
            dest_only: false,
            no_advert: true,
            d: 1,
            ttl: 5,
            src_seqno: 1,
            src_lfd: Frac32::one(),
            src_ld: 0,
        };
        let fx = b.on_control_received(
            &mut ctx_at(&mut rng, 1),
            7,
            ControlPacket::Srp(SrpMessage::Rreq(rreq)),
        );
        let relayed = rreq_of(&fx).expect("relayed");
        assert!(relayed.reset, "Eq. 11 third arm must set the T bit");
    }

    #[test]
    fn destination_bumps_seqno_only_on_reset() {
        let mut rng = SmallRng::seed_from_u64(6);
        let mut t = Srp::new(9, SrpConfig::default());
        let base = SrpRreq {
            src: 7,
            rreq_id: 1,
            dst: 9,
            dst_seqno: 1,
            fd: Frac32::one(),
            unknown: true,
            reset: false,
            dest_only: false,
            no_advert: true,
            d: 3,
            ttl: 5,
            src_seqno: 1,
            src_lfd: Frac32::one(),
            src_ld: 0,
        };
        let fx = t.on_control_received(
            &mut ctx_at(&mut rng, 1),
            3,
            ControlPacket::Srp(SrpMessage::Rreq(base.clone())),
        );
        let (rrep, _) = rrep_of(&fx).expect("destination replies");
        assert_eq!(rrep.dst_seqno, 1, "no reset → seqno unchanged");
        assert_eq!(t.stats().own_seqno_increments, 0);

        let fx = t.on_control_received(
            &mut ctx_at(&mut rng, 1),
            3,
            ControlPacket::Srp(SrpMessage::Rreq(SrpRreq {
                rreq_id: 2,
                reset: true,
                ..base
            })),
        );
        let (rrep, _) = rrep_of(&fx).expect("reset reply");
        assert_eq!(rrep.dst_seqno, 2, "reset → strictly larger seqno");
        assert_eq!(t.stats().own_seqno_increments, 1);
    }

    #[test]
    fn link_failure_salvages_via_alternate_successor() {
        let mut rng = SmallRng::seed_from_u64(7);
        let mut a = Srp::new(0, SrpConfig::default());
        // Two successors toward 9.
        let mut ds = DestState::unassigned();
        ds.label = SplitLabel32::new(1, Fraction::new(1, 2).unwrap());
        // Both confirmed at t = 0, within ROUTE_LIFETIME of every use below.
        ds.succs
            .insert(1, SplitLabel32::new(1, Fraction::new(1, 3).unwrap()), 2, 0);
        ds.succs
            .insert(2, SplitLabel32::new(1, Fraction::new(1, 4).unwrap()), 3, 0);
        ds.dist = 2;
        ds.expires = SimTime::from_secs(100);
        a.dests.insert(9, ds);

        let fx = a.on_link_failure(&mut ctx_at(&mut rng, 1), 1, Some(data(5, 9, 42)));
        // The packet is resent via the alternate successor (node 2), and
        // no RERR is needed (route still valid).
        assert!(
            fx.iter()
                .any(|e| matches!(e, ProtoEffect::SendData { next_hop: 2, .. })),
            "{fx:?}"
        );
        assert!(!fx.iter().any(|e| matches!(
            e,
            ProtoEffect::SendControl {
                packet: ControlPacket::Srp(SrpMessage::Rerr(_)),
                ..
            }
        )));

        // Losing the second successor invalidates and RERRs.
        let fx = a.on_link_failure(&mut ctx_at(&mut rng, 2), 2, None);
        assert!(fx.iter().any(|e| matches!(
            e,
            ProtoEffect::SendControl {
                packet: ControlPacket::Srp(SrpMessage::Rerr(_)),
                ..
            }
        )));
        assert!(!a.route_active(9, SimTime::from_secs(2)));
    }

    #[test]
    fn discovery_retries_and_gives_up() {
        let mut rng = SmallRng::seed_from_u64(8);
        let mut a = Srp::new(0, SrpConfig::default());
        let fx = a.on_data_from_app(&mut ctx_at(&mut rng, 1), data(0, 9, 1));
        let r0 = rreq_of(&fx).expect("first ring");
        assert_eq!(r0.ttl, 5);
        // First timer: second ring.
        let fx = a.on_timer(&mut ctx_at(&mut rng, 2), Attempt { dst: 9, n: 0 }.token());
        let r1 = rreq_of(&fx).expect("second ring");
        assert_eq!(r1.ttl, 16);
        // Second timer: third ring.
        let fx = a.on_timer(&mut ctx_at(&mut rng, 4), Attempt { dst: 9, n: 1 }.token());
        let r2 = rreq_of(&fx).expect("third ring");
        assert_eq!(r2.ttl, 64);
        // Third timer: give up, drop the buffered packet.
        let fx = a.on_timer(&mut ctx_at(&mut rng, 10), Attempt { dst: 9, n: 2 }.token());
        assert!(fx.iter().any(|e| matches!(
            e,
            ProtoEffect::DropData {
                reason: DataDropReason::NoRoute,
                ..
            }
        )));
        assert!(a.discovery.is_idle());
    }

    #[test]
    fn route_expires_without_use_and_label_is_retained() {
        let mut rng = SmallRng::seed_from_u64(9);
        let mut a = Srp::new(0, SrpConfig::default());
        let cached = a.interner.intern(SplitLabel32::unassigned());
        assert!(a
            .discovery
            .first_sight((0, 999), SimTime::ZERO, || RreqCache {
                cached,
                last_hop: 0,
                replied: false,
            }));
        let rrep = SrpRrep {
            rreq_src: 0,
            rreq_id: 999,
            dst: 9,
            dst_seqno: 5,
            lfd: Fraction::new(1, 2).unwrap(),
            ld: 1,
            no_reverse: false,
        };
        let _ = a.on_control_received(
            &mut ctx_at(&mut rng, 1),
            3,
            ControlPacket::Srp(SrpMessage::Rrep(rrep)),
        );
        assert!(a.route_active(9, SimTime::from_secs(5)));
        // 10 s of disuse: the route lapses but the label survives…
        assert!(!a.route_active(9, SimTime::from_secs(20)));
        let l = a.label_for(9, SimTime::from_secs(20));
        assert!(!l.is_unassigned());
        // …until DELETE_PERIOD passes.
        let l = a.label_for(9, SimTime::from_secs(90));
        assert!(l.is_unassigned());
    }

    #[test]
    fn duplicate_rreq_ignored() {
        let mut rng = SmallRng::seed_from_u64(10);
        let mut b = Srp::new(1, SrpConfig::default());
        let rreq = SrpRreq {
            src: 7,
            rreq_id: 1,
            dst: 9,
            dst_seqno: 0,
            fd: Frac32::one(),
            unknown: true,
            reset: false,
            dest_only: false,
            no_advert: true,
            d: 1,
            ttl: 5,
            src_seqno: 1,
            src_lfd: Frac32::one(),
            src_ld: 0,
        };
        let fx = b.on_control_received(
            &mut ctx_at(&mut rng, 1),
            7,
            ControlPacket::Srp(SrpMessage::Rreq(rreq.clone())),
        );
        assert!(rreq_of(&fx).is_some());
        let fx = b.on_control_received(
            &mut ctx_at(&mut rng, 1),
            8,
            ControlPacket::Srp(SrpMessage::Rreq(rreq)),
        );
        assert!(fx.is_empty(), "engaged node ignores duplicates");
    }

    #[test]
    fn round_robin_multipath_rotates_successors() {
        let mut rng = SmallRng::seed_from_u64(12);
        let cfg = SrpConfig {
            multipath: MultipathPolicy::RoundRobin,
            ..SrpConfig::default()
        };
        let mut a = Srp::new(0, cfg);
        let mut ds = DestState::unassigned();
        ds.label = SplitLabel32::new(1, Fraction::new(1, 2).unwrap());
        // Both confirmed at t = 0, within ROUTE_LIFETIME of every use below.
        ds.succs
            .insert(1, SplitLabel32::new(1, Fraction::new(1, 3).unwrap()), 2, 0);
        ds.succs
            .insert(2, SplitLabel32::new(1, Fraction::new(1, 4).unwrap()), 2, 0);
        ds.expires = SimTime::from_secs(100);
        a.dests.insert(9, ds);

        let mut hops = Vec::new();
        for uid in 0..4 {
            let fx = a.on_data_from_app(&mut ctx_at(&mut rng, 1), data(0, 9, uid));
            let hop = fx
                .iter()
                .find_map(|e| match e {
                    ProtoEffect::SendData { next_hop, .. } => Some(*next_hop),
                    _ => None,
                })
                .expect("forwarded");
            hops.push(hop);
        }
        assert_eq!(
            hops,
            vec![1, 2, 1, 2],
            "round robin alternates feasible successors"
        );

        // Uni-path always picks the min-hop (min id on ties) successor.
        let mut b = Srp::new(0, SrpConfig::default());
        let mut ds = DestState::unassigned();
        ds.label = SplitLabel32::new(1, Fraction::new(1, 2).unwrap());
        // Both confirmed at t = 0, within ROUTE_LIFETIME of every use below.
        ds.succs
            .insert(1, SplitLabel32::new(1, Fraction::new(1, 3).unwrap()), 2, 0);
        ds.succs
            .insert(2, SplitLabel32::new(1, Fraction::new(1, 4).unwrap()), 2, 0);
        ds.expires = SimTime::from_secs(100);
        b.dests.insert(9, ds);
        for uid in 0..3 {
            let fx = b.on_data_from_app(&mut ctx_at(&mut rng, 1), data(0, 9, uid));
            assert!(fx
                .iter()
                .any(|e| matches!(e, ProtoEffect::SendData { next_hop: 1, .. })));
        }
    }

    #[test]
    fn rreq_advertisement_builds_route_to_source() {
        let mut rng = SmallRng::seed_from_u64(11);
        let mut b = Srp::new(1, SrpConfig::default());
        let rreq = SrpRreq {
            src: 7,
            rreq_id: 1,
            dst: 9,
            dst_seqno: 0,
            fd: Frac32::one(),
            unknown: true,
            reset: false,
            dest_only: false,
            no_advert: false,
            d: 0,
            ttl: 5,
            src_seqno: 3,
            src_lfd: Frac32::zero(),
            src_ld: 0,
        };
        let _ = b.on_control_received(
            &mut ctx_at(&mut rng, 1),
            7,
            ControlPacket::Srp(SrpMessage::Rreq(rreq)),
        );
        assert!(
            b.route_active(7, SimTime::from_secs(1)),
            "learned route to source"
        );
        let l = b.label_for(7, SimTime::from_secs(1));
        assert_eq!(l.seqno(), 3);
        assert_eq!(l.fd(), Fraction::new(1, 2).unwrap());
    }
}
