//! DSR (Dynamic Source Routing) — baseline protocol.
//!
//! Implements the draft-ietf-manet-dsr-07 mechanisms the paper simulates:
//! route discovery with accumulated routes, replies from the target or from
//! intermediate route caches, source routes carried in data packets, a path
//! route cache, packet salvaging on link failure, and route errors that
//! scrub broken links from caches. Packet paths are inherently loop-free.
//!
//! DSR's well-known failure mode at high load — stale cached routes being
//! handed out faster than errors can scrub them — is what drives its
//! collapse in Figs. 3–4 of the paper; the cache here deliberately keeps
//! the draft's long lifetimes so that behaviour is reproduced rather than
//! patched.

use slr_netsim::time::{SimDuration, SimTime};
use slr_netsim::FastHashMap;

use crate::api::{
    ControlPacket, DataDropReason, DataPacket, NodeId, ProtoCtx, ProtoEffect, ProtoStats,
    RoutingProtocol, SourceRoute,
};
use crate::discovery::{Attempt, Discovery, DiscoveryConfig};

/// DSR route request with its accumulated route record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DsrRreq {
    /// Originator.
    pub orig: NodeId,
    /// Flood identifier.
    pub rreq_id: u64,
    /// Sought node.
    pub target: NodeId,
    /// Nodes traversed so far (starts as `[orig]`).
    pub route: Vec<NodeId>,
    /// Remaining flood TTL.
    pub ttl: u8,
}

/// DSR route reply carrying a complete path.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DsrRrep {
    /// The discovery originator the reply travels to.
    pub orig: NodeId,
    /// The flood this answers.
    pub rreq_id: u64,
    /// Full path `orig … target`.
    pub route: Vec<NodeId>,
}

/// DSR route error: a broken link.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DsrRerr {
    /// Upstream endpoint of the broken link (the detector).
    pub from: NodeId,
    /// The unreachable downstream endpoint.
    pub to: NodeId,
    /// The node the error is reported to (the packet's source).
    pub orig: NodeId,
}

/// All DSR control packets.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DsrMessage {
    /// Route request.
    Rreq(DsrRreq),
    /// Route reply.
    Rrep(DsrRrep),
    /// Route error.
    Rerr(DsrRerr),
}

impl DsrMessage {
    /// Approximate wire size in bytes (4 bytes per recorded hop).
    pub fn wire_bytes(&self) -> u32 {
        match self {
            DsrMessage::Rreq(r) => 16 + 4 * r.route.len() as u32,
            DsrMessage::Rrep(r) => 12 + 4 * r.route.len() as u32,
            DsrMessage::Rerr(_) => 16,
        }
    }

    /// Packet-type name for statistics.
    pub fn kind_name(&self) -> &'static str {
        match self {
            DsrMessage::Rreq(_) => "dsr-rreq",
            DsrMessage::Rrep(_) => "dsr-rrep",
            DsrMessage::Rerr(_) => "dsr-rerr",
        }
    }
}

/// DSR runs route discovery on the defaults.
const DISCOVERY: &DiscoveryConfig = &DiscoveryConfig::DEFAULT;

/// Maximum cached paths.
const CACHE_CAPACITY: usize = 64;

/// Cached-path lifetime (deliberately long; see module docs).
const CACHE_LIFETIME: SimDuration = SimDuration::from_secs(300);

/// Salvage attempts allowed per packet.
const SALVAGE_LIMIT: u8 = 15;

#[derive(Debug, Clone)]
struct CachedPath {
    path: Vec<NodeId>,
    expires: SimTime,
}

/// The DSR instance on one node.
pub struct Dsr {
    node: NodeId,
    cache: Vec<CachedPath>,
    discovery: Discovery,
    salvage_counts: FastHashMap<u64, u8>,
}

impl Dsr {
    /// Creates the DSR instance for `node`.
    pub fn new(node: NodeId) -> Self {
        Dsr {
            node,
            cache: Vec::new(),
            discovery: Discovery::new(DISCOVERY),
            salvage_counts: FastHashMap::default(),
        }
    }

    /// Caches a path (any direction of use is allowed since links are
    /// assumed symmetric). Evicts the oldest entry when full.
    fn cache_path(&mut self, path: &[NodeId], now: SimTime) {
        if path.len() < 2 {
            return;
        }
        if repeats_a_node(path) {
            return;
        }
        let expires = now + CACHE_LIFETIME;
        if let Some(e) = self.cache.iter_mut().find(|c| c.path == path) {
            e.expires = expires;
            return;
        }
        if self.cache.len() >= CACHE_CAPACITY {
            // Evict the entry expiring soonest.
            if let Some((idx, _)) = self.cache.iter().enumerate().min_by_key(|(_, c)| c.expires) {
                self.cache.remove(idx);
            }
        }
        self.cache.push(CachedPath {
            path: path.to_vec(),
            expires,
        });
    }

    /// Finds the shortest cached sub-path from this node to `dst`, read
    /// in either direction (links are symmetric); the first in cache order
    /// wins a tie. Each path is scanned in place and only the winner is
    /// copied out. Cached paths hold no node twice (`cache_path` rejects
    /// duplicates, `scrub_link` only truncates), so a path holds at most
    /// one sub-path between the two nodes, running forward when `dst`
    /// comes after this node and backward when it comes before.
    fn find_route(&mut self, dst: NodeId, now: SimTime) -> Option<Vec<NodeId>> {
        self.cache.retain(|c| c.expires > now);
        let mut best: Option<(&[NodeId], usize, usize)> = None;
        for c in &self.cache {
            debug_assert!(!repeats_a_node(&c.path), "cached path {:?}", c.path);
            let Some(i) = c.path.iter().position(|&n| n == self.node) else {
                continue;
            };
            let Some(j) = c.path.iter().position(|&n| n == dst) else {
                continue;
            };
            if i != j && best.map_or(true, |(_, bi, bj)| i.abs_diff(j) < bi.abs_diff(bj)) {
                best = Some((&c.path, i, j));
            }
        }
        best.map(|(path, i, j)| {
            if i < j {
                path[i..=j].to_vec()
            } else {
                path[j..=i].iter().rev().copied().collect()
            }
        })
    }

    /// Removes every cached path that uses the directed link `a → b` (in
    /// either direction, since links are symmetric). Paths are truncated
    /// before the broken link rather than discarded.
    fn scrub_link(&mut self, a: NodeId, b: NodeId) {
        let mut updated = Vec::new();
        for c in self.cache.drain(..) {
            let mut cut = c.path.len();
            for i in 0..c.path.len() - 1 {
                let (x, y) = (c.path[i], c.path[i + 1]);
                if (x == a && y == b) || (x == b && y == a) {
                    cut = i + 1;
                    break;
                }
            }
            if cut >= 2 {
                updated.push(CachedPath {
                    path: c.path[..cut].to_vec(),
                    expires: c.expires,
                });
            }
        }
        self.cache = updated;
    }

    fn send_with_route(&mut self, mut packet: DataPacket, route: Vec<NodeId>) -> Vec<ProtoEffect> {
        let sr = SourceRoute::new(route);
        let next = sr.next_hop().expect("route has at least two hops");
        packet.source_route = Some(sr);
        if packet.ttl == 0 {
            return vec![ProtoEffect::DropData {
                packet,
                reason: DataDropReason::TtlExpired,
            }];
        }
        packet.ttl -= 1;
        vec![ProtoEffect::SendData {
            packet,
            next_hop: next,
        }]
    }

    /// Floods one ring of a discovery and arms its timeout.
    fn send_rreq(&mut self, ring: Attempt, now: SimTime, fx: &mut Vec<ProtoEffect>) {
        let rreq_id = self.discovery.originate(self.node, now, ());
        fx.push(ProtoEffect::SendControl {
            packet: ControlPacket::Dsr(DsrMessage::Rreq(DsrRreq {
                orig: self.node,
                rreq_id,
                target: ring.dst,
                route: vec![self.node],
                ttl: ring.ttl(),
            })),
            next_hop: None,
        });
        DISCOVERY.arm(ring, fx);
    }

    /// Ends the discovery for `dst`, sending the packets held for it if
    /// the cache now has a route; without one they stay held.
    fn flush_buffer(&mut self, dst: NodeId, now: SimTime, fx: &mut Vec<ProtoEffect>) {
        if self.discovery.buffer().has_for(dst) {
            if let Some(route) = self.find_route(dst, now) {
                for p in self.discovery.settle(dst) {
                    fx.extend(self.send_with_route(p, route.clone()));
                }
            }
        }
        self.discovery.cancel(dst);
    }

    fn handle_rreq(
        &mut self,
        ctx: &mut ProtoCtx<'_>,
        _prev: NodeId,
        rreq: DsrRreq,
    ) -> Vec<ProtoEffect> {
        let mut fx = Vec::new();
        let now = ctx.now;
        self.discovery.sweep(DISCOVERY, now);
        let flood = (rreq.orig, rreq.rreq_id);
        if rreq.orig == self.node
            || rreq.route.contains(&self.node)
            || !self.discovery.first_sight(flood, now, || ())
        {
            return fx;
        }

        // The accumulated record is a route back to the originator.
        let mut here = rreq.route.clone();
        here.push(self.node);
        let back: Vec<NodeId> = here.iter().rev().copied().collect();
        self.cache_path(&back, now);

        if rreq.target == self.node {
            // Reply with the full recorded route.
            let next = *here
                .get(here.len() - 2)
                .expect("record has at least the originator");
            fx.push(ProtoEffect::SendControl {
                packet: ControlPacket::Dsr(DsrMessage::Rrep(DsrRrep {
                    orig: rreq.orig,
                    rreq_id: rreq.rreq_id,
                    route: here,
                })),
                next_hop: Some(next),
            });
            return fx;
        }

        // Cached-route reply: splice our cached path to the target, if the
        // concatenation is loop-free.
        if let Some(tail) = self.find_route(rreq.target, now) {
            let mut full = rreq.route.clone();
            let mut ok = true;
            for n in &tail {
                if full.contains(n) {
                    ok = false;
                    break;
                }
                full.push(*n);
            }
            if ok {
                let next = *rreq.route.last().expect("non-empty record");
                fx.push(ProtoEffect::SendControl {
                    packet: ControlPacket::Dsr(DsrMessage::Rrep(DsrRrep {
                        orig: rreq.orig,
                        rreq_id: rreq.rreq_id,
                        route: full,
                    })),
                    next_hop: Some(next),
                });
                return fx;
            }
        }

        if rreq.ttl <= 1 {
            return fx;
        }
        fx.push(ProtoEffect::SendControl {
            packet: ControlPacket::Dsr(DsrMessage::Rreq(DsrRreq {
                route: here,
                ttl: rreq.ttl - 1,
                ..rreq
            })),
            next_hop: None,
        });
        fx
    }

    fn handle_rrep(
        &mut self,
        ctx: &mut ProtoCtx<'_>,
        _prev: NodeId,
        rrep: DsrRrep,
    ) -> Vec<ProtoEffect> {
        let mut fx = Vec::new();
        let now = ctx.now;
        self.cache_path(&rrep.route, now);
        if rrep.orig == self.node {
            // All buffered packets that the new route can serve.
            let dsts: Vec<NodeId> = rrep.route.iter().skip(1).copied().collect();
            for d in dsts {
                self.flush_buffer(d, now, &mut fx);
            }
            return fx;
        }
        // Relay toward the originator along the recorded route.
        if let Some(pos) = rrep.route.iter().position(|&n| n == self.node) {
            if pos > 0 {
                let next = rrep.route[pos - 1];
                fx.push(ProtoEffect::SendControl {
                    packet: ControlPacket::Dsr(DsrMessage::Rrep(rrep)),
                    next_hop: Some(next),
                });
            }
        }
        fx
    }

    fn handle_rerr(&mut self, now: SimTime, rerr: DsrRerr) -> Vec<ProtoEffect> {
        let mut fx = Vec::new();
        self.scrub_link(rerr.from, rerr.to);
        if rerr.orig == self.node {
            return fx;
        }
        // Forward toward the reported source if we still know a way.
        if let Some(route) = self.find_route(rerr.orig, now) {
            let next = route[1];
            fx.push(ProtoEffect::SendControl {
                packet: ControlPacket::Dsr(DsrMessage::Rerr(rerr)),
                next_hop: Some(next),
            });
        }
        fx
    }
}

/// Whether some node appears twice in `path`.
fn repeats_a_node(path: &[NodeId]) -> bool {
    path.iter()
        .enumerate()
        .any(|(i, n)| path[i + 1..].contains(n))
}

impl RoutingProtocol for Dsr {
    fn name(&self) -> &'static str {
        "DSR"
    }

    fn on_start(&mut self, _ctx: &mut ProtoCtx<'_>) -> Vec<ProtoEffect> {
        Vec::new()
    }

    fn on_data_from_app(&mut self, ctx: &mut ProtoCtx<'_>, packet: DataPacket) -> Vec<ProtoEffect> {
        let now = ctx.now;
        if packet.dst == self.node {
            return vec![ProtoEffect::DeliverLocal(packet)];
        }
        if let Some(route) = self.find_route(packet.dst, now) {
            return self.send_with_route(packet, route);
        }
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
        mut packet: DataPacket,
    ) -> Vec<ProtoEffect> {
        let now = ctx.now;
        let _ = from;
        if packet.dst == self.node {
            return vec![ProtoEffect::DeliverLocal(packet)];
        }
        // Follow the source route.
        if let Some(sr) = &mut packet.source_route {
            // Cache what the header teaches us.
            self.cache_path(&sr.hops, now);
            sr.next += 1;
            if let Some(next) = sr.next_hop() {
                if packet.ttl == 0 {
                    return vec![ProtoEffect::DropData {
                        packet,
                        reason: DataDropReason::TtlExpired,
                    }];
                }
                packet.ttl -= 1;
                return vec![ProtoEffect::SendData {
                    packet,
                    next_hop: next,
                }];
            }
        }
        // Malformed or exhausted source route.
        vec![ProtoEffect::DropData {
            packet,
            reason: DataDropReason::NoRoute,
        }]
    }

    fn on_control_received(
        &mut self,
        ctx: &mut ProtoCtx<'_>,
        from: NodeId,
        packet: ControlPacket,
    ) -> Vec<ProtoEffect> {
        let ControlPacket::Dsr(msg) = packet else {
            return Vec::new();
        };
        match msg {
            DsrMessage::Rreq(r) => self.handle_rreq(ctx, from, r),
            DsrMessage::Rrep(r) => self.handle_rrep(ctx, from, r),
            DsrMessage::Rerr(r) => self.handle_rerr(ctx.now, r),
        }
    }

    fn on_timer(&mut self, ctx: &mut ProtoCtx<'_>, token: u64) -> Vec<ProtoEffect> {
        let mut fx = Vec::new();
        let now = ctx.now;
        let Some(due) = self.discovery.on_timer(DISCOVERY, token, now, &mut fx) else {
            return fx;
        };
        if self.find_route(due.dst, now).is_some() {
            self.flush_buffer(due.dst, now, &mut fx);
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
        self.scrub_link(self.node, next_hop);
        let Some(mut p) = packet else {
            return fx;
        };
        // Report the broken link to the packet's source.
        if p.src != self.node {
            if let Some(route) = self.find_route(p.src, now) {
                fx.push(ProtoEffect::SendControl {
                    packet: ControlPacket::Dsr(DsrMessage::Rerr(DsrRerr {
                        from: self.node,
                        to: next_hop,
                        orig: p.src,
                    })),
                    next_hop: Some(route[1]),
                });
            }
        }
        // Salvage: re-route from our own cache, up to the salvage limit.
        let salvages = self.salvage_counts.entry(p.uid).or_insert(0);
        if *salvages < SALVAGE_LIMIT {
            *salvages += 1;
            if let Some(route) = self.find_route(p.dst, now) {
                p.source_route = None;
                fx.extend(self.send_with_route(p, route));
                return fx;
            }
            // No cached alternative: hold and rediscover.
            if let Some(ring) = self.discovery.hold(p, now, &mut fx) {
                self.send_rreq(ring, now, &mut fx);
            }
        } else {
            fx.push(ProtoEffect::DropData {
                packet: p,
                reason: DataDropReason::SalvageFailed,
            });
        }
        fx
    }

    fn stats(&self) -> ProtoStats {
        ProtoStats {
            own_seqno_increments: 0,
            max_fd_denominator: 0,
            discoveries: self.discovery.started(),
            resets_requested: 0,
            adversarial_actions: 0,
            audit_rejections: 0,
        }
    }

    fn mem_bytes(&self) -> usize {
        use std::mem::size_of;
        let paths: usize = self.cache.iter().map(|c| c.path.capacity()).sum();
        self.discovery.mem_bytes()
            + self.cache.capacity() * size_of::<CachedPath>()
            + paths * size_of::<NodeId>()
            + self.salvage_counts.capacity() * size_of::<(u64, u8)>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::discovery::{Flood, FloodId};
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

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

    /// The sub-slice of `path` from `from` to `to`, if both appear in order.
    fn subpath(path: &[NodeId], from: NodeId, to: NodeId) -> Option<Vec<NodeId>> {
        let i = path.iter().position(|&n| n == from)?;
        let j = path[i..].iter().position(|&n| n == to)? + i;
        if j > i {
            Some(path[i..=j].to_vec())
        } else {
            None
        }
    }

    /// The copying lookup `find_route` replaced: every path tried forward
    /// and reversed through `subpath`, the strictly shorter kept.
    fn find_route_oracle(cache: &[CachedPath], from: NodeId, dst: NodeId) -> Option<Vec<NodeId>> {
        let mut best: Option<Vec<NodeId>> = None;
        for c in cache {
            let rev: Vec<NodeId> = c.path.iter().rev().copied().collect();
            for sub in [subpath(&c.path, from, dst), subpath(&rev, from, dst)]
                .into_iter()
                .flatten()
            {
                if best.as_ref().map_or(true, |b| sub.len() < b.len()) {
                    best = Some(sub);
                }
            }
        }
        best
    }

    /// `find_route` answers exactly as the copying oracle on random
    /// duplicate-free caches, scrubbed ones, ties and self-lookups
    /// included.
    #[test]
    fn find_route_matches_subpath_oracle() {
        use rand::Rng;
        let now = SimTime::from_secs(1);
        for seed in 0..300u64 {
            let mut rng = SmallRng::seed_from_u64(seed);
            let mut b = Dsr::new(0);
            for _ in 0..rng.gen_range(0..12usize) {
                let mut nodes: Vec<NodeId> = (0..10).collect();
                for k in (1..nodes.len()).rev() {
                    nodes.swap(k, rng.gen_range(0..=k));
                }
                nodes.truncate(rng.gen_range(2..8usize));
                b.cache_path(&nodes, now);
            }
            for _ in 0..rng.gen_range(0..3u32) {
                b.scrub_link(rng.gen_range(0..10), rng.gen_range(0..10));
            }
            for dst in 0..10 {
                let want = find_route_oracle(&b.cache, 0, dst);
                assert_eq!(b.find_route(dst, now), want, "seed {seed} dst {dst}");
            }
        }
    }

    #[test]
    fn subpath_extraction() {
        assert_eq!(subpath(&[1, 2, 3, 4], 2, 4), Some(vec![2, 3, 4]));
        assert_eq!(subpath(&[1, 2, 3, 4], 4, 2), None);
        assert_eq!(subpath(&[1, 2, 3], 9, 3), None);
        assert_eq!(subpath(&[1, 2, 3], 1, 1), None);
    }

    #[test]
    fn discovery_accumulates_route_and_replies() {
        let mut rng = SmallRng::seed_from_u64(1);
        let mut a = Dsr::new(0);
        let mut b = Dsr::new(1);
        let mut c = Dsr::new(2);

        let fx = a.on_data_from_app(&mut ctx_at(&mut rng, 1), data(0, 2, 1));
        let rreq = fx
            .iter()
            .find_map(|e| match e {
                ProtoEffect::SendControl {
                    packet: ControlPacket::Dsr(DsrMessage::Rreq(r)),
                    ..
                } => Some(r.clone()),
                _ => None,
            })
            .expect("rreq");
        assert_eq!(rreq.route, vec![0]);

        let fx = b.on_control_received(
            &mut ctx_at(&mut rng, 1),
            0,
            ControlPacket::Dsr(DsrMessage::Rreq(rreq)),
        );
        let relayed = fx
            .iter()
            .find_map(|e| match e {
                ProtoEffect::SendControl {
                    packet: ControlPacket::Dsr(DsrMessage::Rreq(r)),
                    ..
                } => Some(r.clone()),
                _ => None,
            })
            .expect("relay");
        assert_eq!(relayed.route, vec![0, 1]);

        let fx = c.on_control_received(
            &mut ctx_at(&mut rng, 1),
            1,
            ControlPacket::Dsr(DsrMessage::Rreq(relayed)),
        );
        let (rrep, nh) = fx
            .iter()
            .find_map(|e| match e {
                ProtoEffect::SendControl {
                    packet: ControlPacket::Dsr(DsrMessage::Rrep(r)),
                    next_hop,
                } => Some((r.clone(), *next_hop)),
                _ => None,
            })
            .expect("target replies");
        assert_eq!(rrep.route, vec![0, 1, 2]);
        assert_eq!(nh, Some(1));

        let fx = b.on_control_received(
            &mut ctx_at(&mut rng, 1),
            2,
            ControlPacket::Dsr(DsrMessage::Rrep(rrep.clone())),
        );
        assert!(fx.iter().any(|e| matches!(
            e,
            ProtoEffect::SendControl {
                packet: ControlPacket::Dsr(DsrMessage::Rrep(_)),
                next_hop: Some(0),
            }
        )));

        let fx = a.on_control_received(
            &mut ctx_at(&mut rng, 1),
            1,
            ControlPacket::Dsr(DsrMessage::Rrep(rrep)),
        );
        // The buffered packet leaves with a full source route.
        let sent = fx
            .iter()
            .find_map(|e| match e {
                ProtoEffect::SendData { packet, next_hop } => Some((packet.clone(), *next_hop)),
                _ => None,
            })
            .expect("flushed");
        assert_eq!(sent.1, 1);
        assert_eq!(sent.0.source_route.as_ref().unwrap().hops, vec![0, 1, 2]);
    }

    #[test]
    fn forwarding_follows_source_route() {
        let mut rng = SmallRng::seed_from_u64(2);
        let mut b = Dsr::new(1);
        let mut p = data(0, 2, 9);
        p.source_route = Some(SourceRoute::new(vec![0, 1, 2]));
        let fx = b.on_data_received(&mut ctx_at(&mut rng, 1), 0, p);
        assert!(fx
            .iter()
            .any(|e| matches!(e, ProtoEffect::SendData { next_hop: 2, .. })));
    }

    #[test]
    fn cached_route_reply() {
        let mut rng = SmallRng::seed_from_u64(3);
        let mut b = Dsr::new(1);
        b.cache_path(&[1, 5, 9], SimTime::from_secs(1));
        let rreq = DsrRreq {
            orig: 0,
            rreq_id: 1,
            target: 9,
            route: vec![0],
            ttl: 5,
        };
        let fx = b.on_control_received(
            &mut ctx_at(&mut rng, 1),
            0,
            ControlPacket::Dsr(DsrMessage::Rreq(rreq)),
        );
        let rrep = fx
            .iter()
            .find_map(|e| match e {
                ProtoEffect::SendControl {
                    packet: ControlPacket::Dsr(DsrMessage::Rrep(r)),
                    ..
                } => Some(r.clone()),
                _ => None,
            })
            .expect("cache reply");
        assert_eq!(rrep.route, vec![0, 1, 5, 9]);
    }

    #[test]
    fn salvage_uses_alternate_cached_route() {
        let mut rng = SmallRng::seed_from_u64(4);
        let mut b = Dsr::new(1);
        b.cache_path(&[1, 4, 9], SimTime::from_secs(1));
        let mut p = data(0, 9, 7);
        p.source_route = Some(SourceRoute::new(vec![0, 1, 5, 9]));
        let fx = b.on_link_failure(&mut ctx_at(&mut rng, 1), 5, Some(p));
        let sent = fx
            .iter()
            .find_map(|e| match e {
                ProtoEffect::SendData { packet, next_hop } => Some((packet.clone(), *next_hop)),
                _ => None,
            })
            .expect("salvaged");
        assert_eq!(sent.1, 4);
        assert_eq!(sent.0.source_route.as_ref().unwrap().hops, vec![1, 4, 9]);
    }

    #[test]
    fn salvage_limit_drops() {
        let mut rng = SmallRng::seed_from_u64(5);
        let mut b = Dsr::new(1);
        b.cache_path(&[1, 4, 9], SimTime::from_secs(1));
        let p = data(0, 9, 7);
        let salvage_failed = |fx: &[ProtoEffect]| {
            fx.iter().any(|e| {
                matches!(
                    e,
                    ProtoEffect::DropData {
                        reason: DataDropReason::SalvageFailed,
                        ..
                    }
                )
            })
        };
        // Every failure up to the limit salvages the packet over node 4.
        for _ in 0..SALVAGE_LIMIT {
            let fx = b.on_link_failure(&mut ctx_at(&mut rng, 1), 5, Some(p.clone()));
            assert!(!salvage_failed(&fx), "{fx:?}");
            assert!(fx
                .iter()
                .any(|e| matches!(e, ProtoEffect::SendData { next_hop: 4, .. })));
        }
        // The next failure for the same packet exceeds the limit.
        let fx = b.on_link_failure(&mut ctx_at(&mut rng, 1), 4, Some(p));
        assert!(salvage_failed(&fx), "{fx:?}");
    }

    #[test]
    fn rerr_scrubs_cache() {
        let mut rng = SmallRng::seed_from_u64(6);
        let mut b = Dsr::new(1);
        b.cache_path(&[1, 5, 9], SimTime::from_secs(1));
        assert!(b.find_route(9, SimTime::from_secs(1)).is_some());
        let rerr = DsrRerr {
            from: 5,
            to: 9,
            orig: 1,
        };
        let _ = b.on_control_received(
            &mut ctx_at(&mut rng, 1),
            5,
            ControlPacket::Dsr(DsrMessage::Rerr(rerr)),
        );
        assert!(b.find_route(9, SimTime::from_secs(1)).is_none());
        assert!(
            b.find_route(5, SimTime::from_secs(1)).is_some(),
            "prefix survives"
        );
    }

    #[test]
    fn timer_flushes_once_a_route_appears_and_gives_up_after_the_last_ring() {
        let mut rng = SmallRng::seed_from_u64(7);
        let mut a = Dsr::new(0);
        let _ = a.on_data_from_app(&mut ctx_at(&mut rng, 1), data(0, 9, 1));
        // The cache learns a path while the first ring is out (overheard
        // traffic): the timer sends the held packet instead of retrying.
        a.cache_path(&[0, 4, 9], SimTime::from_secs(1));
        let fx = a.on_timer(&mut ctx_at(&mut rng, 2), Attempt { dst: 9, n: 0 }.token());
        let [ProtoEffect::SendData {
            packet,
            next_hop: 4,
        }] = &fx[..]
        else {
            panic!("expected one flushed packet: {fx:?}");
        };
        assert_eq!(packet.source_route.as_ref().unwrap().hops, [0, 4, 9]);
        assert!(a.discovery.is_idle() && a.discovery.buffer().is_empty());

        let mut b = Dsr::new(0);
        let _ = b.on_data_from_app(&mut ctx_at(&mut rng, 1), data(0, 9, 1));
        for n in 0..2 {
            let fx = b.on_timer(&mut ctx_at(&mut rng, 2), Attempt { dst: 9, n }.token());
            assert!(matches!(
                fx[..],
                [
                    ProtoEffect::SendControl { .. },
                    ProtoEffect::SetTimer { .. }
                ]
            ));
        }
        let fx = b.on_timer(&mut ctx_at(&mut rng, 3), Attempt { dst: 9, n: 2 }.token());
        assert!(matches!(
            fx[..],
            [ProtoEffect::DropData {
                reason: DataDropReason::NoRoute,
                ..
            }]
        ));
        assert_eq!(b.stats().discoveries, 4);
    }

    #[test]
    fn full_cache_evicts_the_path_expiring_soonest() {
        let mut b = Dsr::new(1);
        for i in 0..CACHE_CAPACITY as NodeId {
            b.cache_path(&[1, 100 + i], SimTime::from_secs(i as u64));
        }
        assert_eq!(b.cache.len(), CACHE_CAPACITY);
        let now = SimTime::from_secs(100);
        b.cache_path(&[1, 999], now);
        assert_eq!(b.cache.len(), CACHE_CAPACITY);
        assert!(b.find_route(100, now).is_none(), "the oldest path is gone");
        assert!(b.find_route(101, now).is_some() && b.find_route(999, now).is_some());
    }

    /// A node that hears one flood a second for three flood lifetimes
    /// logs only the last lifetime's: the sweep forgets the rest.
    #[test]
    fn flood_log_holds_one_lifetime() {
        let mut rng = SmallRng::seed_from_u64(9);
        let mut b = Dsr::new(1);
        let lifetime = 120;
        assert_eq!(
            DISCOVERY.rreq_cache_lifetime,
            SimDuration::from_secs(lifetime)
        );
        for id in 0..=3 * lifetime {
            let rreq = DsrRreq {
                orig: 7,
                rreq_id: id,
                target: 9,
                route: vec![7],
                ttl: 1,
            };
            let _ = b.on_control_received(
                &mut ctx_at(&mut rng, id),
                7,
                ControlPacket::Dsr(DsrMessage::Rreq(rreq)),
            );
        }
        let logged: Vec<u64> = (0..=3 * lifetime)
            .filter(|&id| b.discovery.flood((7, id)).is_some())
            .collect();
        assert_eq!(logged, Vec::from_iter(2 * lifetime + 1..=3 * lifetime));
        let entry = std::mem::size_of::<(FloodId, Flood<()>)>();
        assert!(b.mem_bytes() >= logged.len() * entry);
    }

    #[test]
    fn cache_rejects_looping_paths_and_expires() {
        let mut b = Dsr::new(1);
        b.cache_path(&[1, 5, 1, 9], SimTime::from_secs(1));
        assert!(b.cache.is_empty());
        b.cache_path(&[1, 5, 9], SimTime::from_secs(1));
        assert!(b.find_route(9, SimTime::from_secs(2)).is_some());
        assert!(b.find_route(9, SimTime::from_secs(10_000)).is_none());
    }
}
