//! OLSR (Optimized Link State Routing) — proactive baseline.
//!
//! Implements the draft-ietf-manet-olsr-06 core the paper compares against:
//! periodic HELLOs for link sensing and two-hop neighborhood discovery,
//! multipoint relay (MPR) selection by greedy set cover, TC messages
//! flooded through MPRs advertising MPR-selector sets, and shortest-path
//! route computation over the learned topology. As a proactive protocol it
//! pays a constant control overhead (Fig. 5) to win on latency (Fig. 6);
//! it is *not* loop-free at every instant — transient loops after topology
//! changes are killed by the data TTL.

use rand::Rng;

use slr_netsim::compact::VecMap;
use slr_netsim::time::{SimDuration, SimTime};

use crate::api::{
    ControlPacket, DataDropReason, DataPacket, NodeId, ProtoCtx, ProtoEffect, ProtoStats,
    RoutingProtocol,
};

/// An OLSR HELLO message (1-hop broadcast, never forwarded).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OlsrHello {
    /// Sender.
    pub origin: NodeId,
    /// Neighbors heard symmetrically.
    pub sym_neighbors: Vec<NodeId>,
    /// Neighbors heard only one-way so far.
    pub heard_neighbors: Vec<NodeId>,
    /// The sender's chosen multipoint relays.
    pub mprs: Vec<NodeId>,
}

/// An OLSR TC (topology control) message, flooded via MPRs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OlsrTc {
    /// Message originator.
    pub origin: NodeId,
    /// Originator's advertised-neighbor sequence number.
    pub seq: u64,
    /// The originator's MPR selectors (nodes that chose it as MPR).
    pub selectors: Vec<NodeId>,
    /// Remaining flood TTL.
    pub ttl: u8,
}

/// All OLSR control packets.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum OlsrMessage {
    /// Periodic neighbor sensing.
    Hello(OlsrHello),
    /// Topology control flood.
    Tc(OlsrTc),
}

impl OlsrMessage {
    /// Approximate wire size in bytes.
    pub fn wire_bytes(&self) -> u32 {
        match self {
            OlsrMessage::Hello(h) => {
                16 + 4 * (h.sym_neighbors.len() + h.heard_neighbors.len() + h.mprs.len()) as u32
            }
            OlsrMessage::Tc(t) => 16 + 4 * t.selectors.len() as u32,
        }
    }

    /// Packet-type name for statistics.
    pub fn kind_name(&self) -> &'static str {
        match self {
            OlsrMessage::Hello(_) => "olsr-hello",
            OlsrMessage::Tc(_) => "olsr-tc",
        }
    }
}

/// HELLO interval (draft default).
const HELLO_INTERVAL: SimDuration = SimDuration::from_secs(2);

/// TC interval (draft default).
const TC_INTERVAL: SimDuration = SimDuration::from_secs(5);

/// Jitter applied to both intervals (± up to this much).
const JITTER: SimDuration = SimDuration::from_millis(500);

/// Neighbor hold time (3 × hello).
const NEIGHBOR_HOLD: SimDuration = SimDuration::from_secs(6);

/// Topology hold time (3 × tc).
const TOPOLOGY_HOLD: SimDuration = SimDuration::from_secs(15);

/// TC flood TTL.
const TC_TTL: u8 = 64;

const TOKEN_HELLO: u64 = 1;
const TOKEN_TC: u64 = 2;

/// A 1-hop neighbor: the link to it and, from its HELLOs, the two-hop
/// neighborhood behind it (both learned and expired together).
#[derive(Debug, Clone)]
struct Neighbor {
    sym: bool,
    expires: SimTime,
    /// The neighbor's own symmetric neighbors, ascending, no duplicates.
    sym_neighbors: Vec<NodeId>,
}

/// What one origin's latest TC advertised.
#[derive(Debug, Clone)]
struct Advertised {
    /// The origin's MPR selectors, ascending, no duplicates.
    selectors: Vec<NodeId>,
    expires: SimTime,
    seq: u64,
}

/// A message's node list as a set: ascending, no duplicates.
fn sorted_set(mut ids: Vec<NodeId>) -> Vec<NodeId> {
    ids.sort_unstable();
    ids.dedup();
    ids
}

/// How many elements of `a` the ascending list `b` holds.
fn count_common(a: &[NodeId], b: &[NodeId]) -> usize {
    a.iter().filter(|x| b.binary_search(x).is_ok()).count()
}

const UNREACHED: usize = usize::MAX;

/// The routing table, and the buffers its rebuild reuses so that a
/// rebuild allocates nothing once they have grown to the topology's size.
///
/// Node ids come off the wire, so nothing here is sized by an id: nodes
/// are addressed by their position in the sorted `nodes` list.
#[derive(Debug, Default)]
struct RouteTable {
    /// Every node some known link touches, ascending.
    nodes: Vec<NodeId>,
    /// Per entry of `nodes`, the position in `nodes` of the first hop
    /// towards it, or `UNREACHED`.
    first_hop: Vec<usize>,
    /// Scratch: every known link in both directions, sorted; `offsets[i]..
    /// offsets[i + 1]` are the links leaving `nodes[i]`, ascending by far end.
    edges: Vec<(NodeId, NodeId)>,
    offsets: Vec<usize>,
    /// Scratch: the BFS queue (positions in `nodes`).
    queue: Vec<usize>,
}

impl RouteTable {
    fn add_link(&mut self, a: NodeId, b: NodeId) {
        self.edges.push((a, b));
        self.edges.push((b, a));
    }

    /// Shortest paths from `me` over the links added since `edges` was
    /// last cleared. Breadth-first, FIFO, each node's neighbors taken in
    /// ascending id order: that order decides which of several equally
    /// short paths wins, and with it the trial's output. The first hop is
    /// carried along the search instead of being walked back afterwards.
    fn rebuild(&mut self, me: NodeId) {
        self.edges.sort_unstable();
        self.edges.dedup();
        self.nodes.clear();
        self.offsets.clear();
        for (i, &(a, _)) in self.edges.iter().enumerate() {
            if self.nodes.last() != Some(&a) {
                self.nodes.push(a);
                self.offsets.push(i);
            }
        }
        self.offsets.push(self.edges.len());
        self.first_hop.clear();
        self.first_hop.resize(self.nodes.len(), UNREACHED);
        let Ok(me) = self.nodes.binary_search(&me) else {
            return;
        };
        // Marks the root visited during the search; cleared below, the
        // table holds no route to ourselves.
        self.first_hop[me] = me;
        self.queue.clear();
        self.queue.push(me);
        let mut head = 0;
        while let Some(&u) = self.queue.get(head) {
            head += 1;
            for &(_, far) in &self.edges[self.offsets[u]..self.offsets[u + 1]] {
                let v = self
                    .nodes
                    .binary_search(&far)
                    .expect("every link is listed from both ends");
                if self.first_hop[v] == UNREACHED {
                    self.first_hop[v] = if u == me { v } else { self.first_hop[u] };
                    self.queue.push(v);
                }
            }
        }
        self.first_hop[me] = UNREACHED;
    }

    fn next_hop(&self, dst: NodeId) -> Option<NodeId> {
        let i = self.nodes.binary_search(&dst).ok()?;
        // `UNREACHED` is past the end of any list.
        self.nodes.get(self.first_hop[i]).copied()
    }

    fn mem_bytes(&self) -> usize {
        use std::mem::size_of;
        self.nodes.capacity() * size_of::<NodeId>()
            + self.edges.capacity() * size_of::<(NodeId, NodeId)>()
            + (self.first_hop.capacity() + self.offsets.capacity() + self.queue.capacity())
                * size_of::<usize>()
    }
}

/// The OLSR instance on one node.
pub struct Olsr {
    node: NodeId,
    neighbors: VecMap<NodeId, Neighbor>,
    /// Chosen multipoint relays, ascending.
    mprs: Vec<NodeId>,
    /// Neighbors that chose us as MPR, ascending.
    selectors: Vec<NodeId>,
    /// TC topology by advertising origin.
    topology: VecMap<NodeId, Advertised>,
    tc_seq: u64,
    /// Never later than the earliest expiry in `neighbors` and `topology`
    /// (exact after a sweep, possibly early between sweeps), so `expire`
    /// can return without looking while `now` is before it.
    next_expiry: SimTime,
    /// The table as of the last rebuild; read through [`Olsr::next_hop`].
    routes: RouteTable,
    /// Set where the table used to be recomputed on the spot: a HELLO, a
    /// fresh TC, a link failure. The rebuild happens at the next read.
    routes_dirty: bool,
    /// Per-packet re-route attempts after link failures.
    reroutes: VecMap<u64, u8>,
    started: bool,
    #[cfg(test)]
    rebuilds: u64,
}

/// Maximum times one packet may be re-routed after link failures before
/// OLSR gives up on it.
const REROUTE_LIMIT: u8 = 3;

impl Olsr {
    /// Creates the OLSR instance for `node`.
    pub fn new(node: NodeId) -> Self {
        Olsr {
            node,
            neighbors: VecMap::new(),
            mprs: Vec::new(),
            selectors: Vec::new(),
            topology: VecMap::new(),
            tc_seq: 0,
            next_expiry: SimTime::MAX,
            routes: RouteTable::default(),
            routes_dirty: false,
            reroutes: VecMap::new(),
            started: false,
            #[cfg(test)]
            rebuilds: 0,
        }
    }

    /// Drops neighbors and topology entries whose hold time has run out
    /// (`expires <= now`). Called on every message, so it must cost
    /// nothing while nothing can have expired.
    fn expire(&mut self, now: SimTime) {
        if now < self.next_expiry {
            return;
        }
        self.neighbors.retain(|_, n| n.expires > now);
        self.topology.retain(|_, t| t.expires > now);
        self.next_expiry = self
            .neighbors
            .values()
            .map(|n| n.expires)
            .chain(self.topology.values().map(|t| t.expires))
            .min()
            .unwrap_or(SimTime::MAX);
    }

    /// `expire` for the two timers, the only callers that do not go on to
    /// mark the table dirty. The table is a snapshot of the link state as
    /// of the last HELLO, fresh TC or link failure; a rebuild still
    /// pending from then must run before this sweep takes entries away,
    /// or it would route over fewer links than the snapshot had.
    fn expire_on_timer(&mut self, now: SimTime) {
        let removes = |expires: SimTime| expires <= now;
        if self.routes_dirty
            && now >= self.next_expiry
            && (self.neighbors.values().any(|n| removes(n.expires))
                || self.topology.values().any(|t| removes(t.expires)))
        {
            self.rebuild_routes();
        }
        self.expire(now);
    }

    fn sym_neighbors(&self) -> Vec<NodeId> {
        self.neighbors
            .iter()
            .filter(|(_, n)| n.sym)
            .map(|(id, _)| *id)
            .collect()
    }

    /// Greedy MPR selection: cover every strict 2-hop neighbor.
    fn select_mprs(&mut self) {
        let one_hop = self.sym_neighbors();
        let mut uncovered: Vec<NodeId> = Vec::new();
        for n in self.neighbors.values().filter(|n| n.sym) {
            uncovered.extend(
                n.sym_neighbors
                    .iter()
                    .filter(|t| **t != self.node && one_hop.binary_search(t).is_err()),
            );
        }
        let mut uncovered = sorted_set(uncovered);
        let behind = |n: &NodeId| -> &[NodeId] {
            self.neighbors
                .get(n)
                .map_or(&[], |nb| nb.sym_neighbors.as_slice())
        };
        let mut mprs: Vec<NodeId> = Vec::new();
        while !uncovered.is_empty() {
            // Pick the neighbor covering the most uncovered 2-hop nodes
            // (of equals, the highest id: `max_by_key` keeps the last).
            let best = one_hop
                .iter()
                .filter(|n| !mprs.contains(n))
                .max_by_key(|n| count_common(behind(n), &uncovered));
            let Some(&best) = best else { break };
            let before = uncovered.len();
            uncovered.retain(|t| behind(&best).binary_search(t).is_err());
            if uncovered.len() == before {
                break;
            }
            mprs.push(best);
        }
        mprs.sort_unstable();
        self.mprs = mprs;
    }

    /// Rebuilds the routing table: shortest paths over 1-hop links, the
    /// two-hop neighborhood from HELLOs (draft §10: route records for
    /// two-hop neighbors use the advertising neighbor as next hop) and
    /// TC-advertised links.
    fn rebuild_routes(&mut self) {
        self.routes.edges.clear();
        for (&id, n) in self.neighbors.iter().filter(|(_, n)| n.sym) {
            self.routes.add_link(self.node, id);
            for &s in &n.sym_neighbors {
                self.routes.add_link(id, s);
            }
        }
        for (&origin, t) in self.topology.iter() {
            for &s in &t.selectors {
                self.routes.add_link(origin, s);
            }
        }
        self.routes.rebuild(self.node);
        self.routes_dirty = false;
        #[cfg(test)]
        {
            self.rebuilds += 1;
        }
    }

    /// The next hop towards `dst`, bringing the table up to date first.
    fn next_hop(&mut self, dst: NodeId) -> Option<NodeId> {
        if self.routes_dirty {
            self.rebuild_routes();
        }
        self.routes.next_hop(dst)
    }

    fn hello(&mut self, now: SimTime) -> OlsrHello {
        self.expire_on_timer(now);
        self.select_mprs();
        OlsrHello {
            origin: self.node,
            sym_neighbors: self.sym_neighbors(),
            heard_neighbors: self
                .neighbors
                .iter()
                .filter(|(_, n)| !n.sym)
                .map(|(id, _)| *id)
                .collect(),
            mprs: self.mprs.clone(),
        }
    }

    fn handle_hello(&mut self, now: SimTime, h: OlsrHello) {
        let sym = h.sym_neighbors.contains(&self.node) || h.heard_neighbors.contains(&self.node);
        let expires = now + NEIGHBOR_HOLD;
        self.next_expiry = self.next_expiry.min(expires);
        self.neighbors.insert(
            h.origin,
            Neighbor {
                sym,
                expires,
                sym_neighbors: sorted_set(h.sym_neighbors),
            },
        );
        let at = self.selectors.binary_search(&h.origin);
        match (h.mprs.contains(&self.node), at) {
            (true, Err(i)) => self.selectors.insert(i, h.origin),
            (false, Ok(i)) => {
                self.selectors.remove(i);
            }
            _ => {}
        }
        self.expire(now);
        self.routes_dirty = true;
    }

    fn handle_tc(&mut self, now: SimTime, prev: NodeId, tc: OlsrTc) -> Vec<ProtoEffect> {
        let mut fx = Vec::new();
        if tc.origin == self.node {
            return fx;
        }
        let fresh = self
            .topology
            .get(&tc.origin)
            .map(|known| tc.seq > known.seq)
            .unwrap_or(true);
        if !fresh {
            return fx;
        }
        let expires = now + TOPOLOGY_HOLD;
        self.next_expiry = self.next_expiry.min(expires);
        self.topology.insert(
            tc.origin,
            Advertised {
                selectors: sorted_set(tc.selectors.clone()),
                expires,
                seq: tc.seq,
            },
        );
        self.expire(now);
        self.routes_dirty = true;
        // Forward iff the previous hop selected us as MPR.
        if tc.ttl > 1 && self.selectors.binary_search(&prev).is_ok() {
            fx.push(ProtoEffect::SendControl {
                packet: ControlPacket::Olsr(OlsrMessage::Tc(OlsrTc {
                    ttl: tc.ttl - 1,
                    ..tc
                })),
                next_hop: None,
            });
        }
        fx
    }

    fn jittered(&self, base: SimDuration, rng: &mut impl Rng) -> SimDuration {
        let j = JITTER.as_nanos();
        if j == 0 {
            return base;
        }
        let delta = rng.gen_range(0..=2 * j) as i128 - j as i128;
        let ns = (base.as_nanos() as i128 + delta).max(1) as u64;
        SimDuration::from_nanos(ns)
    }
}

impl RoutingProtocol for Olsr {
    fn name(&self) -> &'static str {
        "OLSR"
    }

    fn on_start(&mut self, ctx: &mut ProtoCtx<'_>) -> Vec<ProtoEffect> {
        self.started = true;
        // Desynchronise nodes with a random initial phase.
        let h = self.jittered(SimDuration::from_millis(100), ctx.rng);
        let t = self.jittered(SimDuration::from_millis(700), ctx.rng);
        vec![
            ProtoEffect::SetTimer {
                token: TOKEN_HELLO,
                delay: h,
            },
            ProtoEffect::SetTimer {
                token: TOKEN_TC,
                delay: t,
            },
        ]
    }

    fn on_data_from_app(
        &mut self,
        ctx: &mut ProtoCtx<'_>,
        mut packet: DataPacket,
    ) -> Vec<ProtoEffect> {
        let _ = ctx;
        if packet.dst == self.node {
            return vec![ProtoEffect::DeliverLocal(packet)];
        }
        match self.next_hop(packet.dst) {
            Some(next_hop) if packet.ttl > 0 => {
                packet.ttl -= 1;
                vec![ProtoEffect::SendData { packet, next_hop }]
            }
            Some(_) => vec![ProtoEffect::DropData {
                packet,
                reason: DataDropReason::TtlExpired,
            }],
            None => vec![ProtoEffect::DropData {
                packet,
                reason: DataDropReason::NoRoute,
            }],
        }
    }

    fn on_data_received(
        &mut self,
        ctx: &mut ProtoCtx<'_>,
        _from: NodeId,
        packet: DataPacket,
    ) -> Vec<ProtoEffect> {
        // Same forwarding logic as locally originated traffic.
        self.on_data_from_app(ctx, packet)
    }

    fn on_control_received(
        &mut self,
        ctx: &mut ProtoCtx<'_>,
        from: NodeId,
        packet: ControlPacket,
    ) -> Vec<ProtoEffect> {
        let ControlPacket::Olsr(msg) = packet else {
            return Vec::new();
        };
        match msg {
            OlsrMessage::Hello(h) => {
                self.handle_hello(ctx.now, h);
                Vec::new()
            }
            OlsrMessage::Tc(tc) => self.handle_tc(ctx.now, from, tc),
        }
    }

    fn on_timer(&mut self, ctx: &mut ProtoCtx<'_>, token: u64) -> Vec<ProtoEffect> {
        let now = ctx.now;
        let mut fx = Vec::new();
        match token {
            TOKEN_HELLO => {
                let hello = self.hello(now);
                fx.push(ProtoEffect::SendControl {
                    packet: ControlPacket::Olsr(OlsrMessage::Hello(hello)),
                    next_hop: None,
                });
                let d = self.jittered(HELLO_INTERVAL, ctx.rng);
                fx.push(ProtoEffect::SetTimer {
                    token: TOKEN_HELLO,
                    delay: d,
                });
            }
            TOKEN_TC => {
                self.expire_on_timer(now);
                if !self.selectors.is_empty() {
                    self.tc_seq += 1;
                    fx.push(ProtoEffect::SendControl {
                        packet: ControlPacket::Olsr(OlsrMessage::Tc(OlsrTc {
                            origin: self.node,
                            seq: self.tc_seq,
                            selectors: self.selectors.clone(),
                            ttl: TC_TTL,
                        })),
                        next_hop: None,
                    });
                }
                let d = self.jittered(TC_INTERVAL, ctx.rng);
                fx.push(ProtoEffect::SetTimer {
                    token: TOKEN_TC,
                    delay: d,
                });
            }
            _ => {}
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
        // Drop the link immediately rather than waiting for hold expiry.
        self.neighbors.remove(&next_hop);
        self.expire(ctx.now);
        self.routes_dirty = true;
        if let Some(p) = packet {
            // Bounded re-routing over the updated table: a packet that
            // keeps hitting dead links is abandoned rather than allowed to
            // wander on stale topology.
            let tries = self.reroutes.entry(p.uid).or_insert(0);
            if *tries < REROUTE_LIMIT {
                *tries += 1;
                fx.extend(self.on_data_from_app(ctx, p));
            } else {
                fx.push(ProtoEffect::DropData {
                    packet: p,
                    reason: DataDropReason::SalvageFailed,
                });
            }
        }
        fx
    }

    fn stats(&self) -> ProtoStats {
        ProtoStats::default()
    }

    /// Capacities of every table, the sets inside them, and the route
    /// table with its rebuild scratch.
    fn mem_bytes(&self) -> usize {
        let ids = |v: &Vec<NodeId>| v.capacity() * std::mem::size_of::<NodeId>();
        self.neighbors.mem_bytes()
            + self
                .neighbors
                .values()
                .map(|n| ids(&n.sym_neighbors))
                .sum::<usize>()
            + self.topology.mem_bytes()
            + self
                .topology
                .values()
                .map(|t| ids(&t.selectors))
                .sum::<usize>()
            + ids(&self.mprs)
            + ids(&self.selectors)
            + self.reroutes.mem_bytes()
            + self.routes.mem_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    use std::collections::{BTreeMap, BTreeSet, VecDeque};

    fn ctx_at(rng: &mut SmallRng, secs: u64) -> ProtoCtx<'_> {
        ctx_at_ms(rng, secs * 1000)
    }

    fn ctx_at_ms(rng: &mut SmallRng, ms: u64) -> ProtoCtx<'_> {
        ProtoCtx {
            now: SimTime::from_millis(ms),
            rng,
        }
    }

    fn hello(origin: NodeId, sym: &[NodeId], heard: &[NodeId], mprs: &[NodeId]) -> ControlPacket {
        ControlPacket::Olsr(OlsrMessage::Hello(OlsrHello {
            origin,
            sym_neighbors: sym.to_vec(),
            heard_neighbors: heard.to_vec(),
            mprs: mprs.to_vec(),
        }))
    }

    fn tc(origin: NodeId, seq: u64, selectors: &[NodeId], ttl: u8) -> ControlPacket {
        ControlPacket::Olsr(OlsrMessage::Tc(OlsrTc {
            origin,
            seq,
            selectors: selectors.to_vec(),
            ttl,
        }))
    }

    fn data(dst: NodeId, uid: u64, ttl: u8) -> DataPacket {
        DataPacket {
            src: 0,
            dst,
            uid,
            origin_time: SimTime::ZERO,
            bytes: 512,
            ttl,
            source_route: None,
        }
    }

    impl Olsr {
        /// The route computation as it was when it ran on every HELLO,
        /// fresh TC and link failure (`recompute_routes`, kept but for
        /// ordered maps in place of hashed ones): the oracle the lazy,
        /// scratch-reusing table is held against.
        fn eager_routes(&self) -> BTreeMap<NodeId, NodeId> {
            let mut adj: BTreeMap<NodeId, BTreeSet<NodeId>> = BTreeMap::new();
            let mut add = |a: NodeId, b: NodeId| {
                adj.entry(a).or_default().insert(b);
                adj.entry(b).or_default().insert(a);
            };
            for n in self.sym_neighbors() {
                add(self.node, n);
            }
            for (n, nb) in self.neighbors.iter() {
                if nb.sym {
                    for s in &nb.sym_neighbors {
                        add(*n, *s);
                    }
                }
            }
            for (origin, t) in self.topology.iter() {
                for s in &t.selectors {
                    add(*origin, *s);
                }
            }
            let mut routes = BTreeMap::new();
            let mut prev: BTreeMap<NodeId, NodeId> = BTreeMap::new();
            let mut q = VecDeque::new();
            prev.insert(self.node, self.node);
            q.push_back(self.node);
            while let Some(u) = q.pop_front() {
                if let Some(ns) = adj.get(&u) {
                    for &v in ns {
                        if let std::collections::btree_map::Entry::Vacant(e) = prev.entry(v) {
                            e.insert(u);
                            q.push_back(v);
                        }
                    }
                }
            }
            for (&dest, _) in prev.iter() {
                if dest == self.node {
                    continue;
                }
                // Walk back to find the first hop.
                let mut cur = dest;
                while prev[&cur] != self.node {
                    cur = prev[&cur];
                }
                routes.insert(dest, cur);
            }
            routes
        }

        /// The table as it stands, without bringing it up to date.
        fn route_map(&self) -> BTreeMap<NodeId, NodeId> {
            let t = &self.routes;
            t.nodes
                .iter()
                .filter_map(|&d| Some((d, t.next_hop(d)?)))
                .collect()
        }
    }

    #[test]
    fn control_traffic_alone_never_rebuilds_the_table() {
        let mut rng = SmallRng::seed_from_u64(20);
        let mut o = Olsr::new(0);
        for i in 0..50u64 {
            let from = 1 + (i as usize % 4);
            let _ = o.on_control_received(
                &mut ctx_at_ms(&mut rng, 1000 + i),
                from,
                hello(from, &[0, 5 + from], &[], &[0]),
            );
            let _ = o.on_control_received(
                &mut ctx_at_ms(&mut rng, 1000 + i),
                from,
                tc(20 + from, i + 1, &[5 + from], 8),
            );
        }
        assert!(o.routes_dirty);
        assert_eq!(o.rebuilds, 0);
    }

    #[test]
    fn a_hundred_fresh_tcs_cost_one_rebuild_at_the_first_data_packet() {
        let mut rng = SmallRng::seed_from_u64(21);
        let mut o = Olsr::new(0);
        let _ = o.on_control_received(&mut ctx_at(&mut rng, 1), 1, hello(1, &[0, 5], &[], &[]));
        for seq in 1..=100u64 {
            let _ = o.on_control_received(&mut ctx_at(&mut rng, 1), 1, tc(7, seq, &[5], 8));
        }
        assert_eq!(o.rebuilds, 0);
        let fx = o.on_data_from_app(&mut ctx_at(&mut rng, 2), data(7, 1, 64));
        assert_eq!(
            fx,
            vec![ProtoEffect::SendData {
                packet: data(7, 1, 63),
                next_hop: 1
            }]
        );
        assert_eq!(o.rebuilds, 1);
        // A clean table is read as it is.
        let _ = o.on_data_received(&mut ctx_at(&mut rng, 2), 1, data(5, 2, 64));
        assert_eq!(o.rebuilds, 1);
    }

    /// The table is a snapshot of the link state at the last HELLO, fresh
    /// TC or link failure; the timers expire entries without recomputing
    /// it. So a route through a neighbor that a timer has since expired is
    /// still used — by the eager code because it never looked again, by
    /// the lazy code only because the timer flushes the pending rebuild
    /// before it removes anything.
    #[test]
    fn timer_expiry_flushes_the_pending_rebuild_first() {
        let hold_ms = NEIGHBOR_HOLD.as_nanos() / 1_000_000;
        let mut rng = SmallRng::seed_from_u64(22);
        let mut o = Olsr::new(0);
        let _ = o.on_control_received(&mut ctx_at(&mut rng, 1), 1, hello(1, &[0, 5], &[], &[]));
        assert_eq!(o.eager_routes(), BTreeMap::from([(1, 1), (5, 1)]));
        // Dirty, but this timer removes nothing: no reason to rebuild yet.
        let _ = o.on_timer(&mut ctx_at(&mut rng, 2), TOKEN_TC);
        assert_eq!(o.rebuilds, 0);
        // Neighbor 1 expires under the HELLO timer.
        let _ = o.on_timer(&mut ctx_at_ms(&mut rng, 1000 + hold_ms + 1), TOKEN_HELLO);
        assert!(o.neighbors.is_empty());
        assert_eq!(o.rebuilds, 1);
        let fx = o.on_data_from_app(&mut ctx_at(&mut rng, 8), data(5, 1, 64));
        assert_eq!(
            fx,
            vec![ProtoEffect::SendData {
                packet: data(5, 1, 63),
                next_hop: 1
            }],
            "the stale route via the expired neighbor, as the eager table had it"
        );
        assert_eq!(o.rebuilds, 1);
        // The next control message recomputes over what is left.
        let _ = o.on_control_received(&mut ctx_at(&mut rng, 8), 2, hello(2, &[0], &[], &[]));
        let fx = o.on_data_from_app(&mut ctx_at(&mut rng, 8), data(5, 2, 64));
        assert!(matches!(
            fx[..],
            [ProtoEffect::DropData {
                reason: DataDropReason::NoRoute,
                ..
            }]
        ));
    }

    #[test]
    fn expiry_watermark_never_hides_an_expired_entry() {
        let mut rng = SmallRng::seed_from_u64(23);
        let mut o = Olsr::new(0);
        let _ = o.on_control_received(&mut ctx_at(&mut rng, 1), 1, hello(1, &[0], &[], &[]));
        let _ = o.on_control_received(&mut ctx_at(&mut rng, 3), 2, hello(2, &[0], &[], &[]));
        let _ = o.on_control_received(&mut ctx_at(&mut rng, 3), 2, tc(9, 1, &[2], 8));
        assert_eq!(o.next_expiry, SimTime::from_secs(7));
        // Refreshing the oldest entry leaves the watermark early, never late.
        let _ = o.on_control_received(&mut ctx_at(&mut rng, 5), 1, hello(1, &[0], &[], &[]));
        assert_eq!(o.next_expiry, SimTime::from_secs(7));
        // A sweep that finds nothing makes it exact again.
        o.expire(SimTime::from_secs(7));
        assert_eq!((o.neighbors.len(), o.topology.len()), (2, 1));
        assert_eq!(o.next_expiry, SimTime::from_secs(9));
        // `expires <= now` goes, to the nanosecond.
        o.expire(SimTime::from_nanos(SimTime::from_secs(9).as_nanos() - 1));
        assert_eq!(o.neighbors.len(), 2);
        o.expire(SimTime::from_secs(9));
        assert_eq!(o.sym_neighbors(), vec![1]);
        o.expire(SimTime::from_secs(18));
        assert!(o.neighbors.is_empty() && o.topology.is_empty());
        assert_eq!(o.next_expiry, SimTime::MAX);
    }

    #[test]
    fn ids_off_the_wire_do_not_size_the_table() {
        let mut rng = SmallRng::seed_from_u64(24);
        let mut o = Olsr::new(0);
        let far = NodeId::MAX;
        let _ = o.on_control_received(&mut ctx_at(&mut rng, 1), 1, hello(1, &[0, far], &[], &[]));
        let _ = o.on_control_received(&mut ctx_at(&mut rng, 1), 1, tc(far - 1, 1, &[far], 8));
        assert_eq!(o.next_hop(far - 1), Some(1));
        assert_eq!(o.route_map(), o.eager_routes());
        assert!(
            o.mem_bytes() > 0 && o.mem_bytes() < 4096,
            "{}",
            o.mem_bytes()
        );
    }

    /// One thing that can happen to a node, to apply to a node and its twin.
    #[derive(Clone)]
    enum Op {
        Control(NodeId, ControlPacket),
        Timer(u64),
        LinkFailure(NodeId, Option<DataPacket>),
        Data(DataPacket),
    }

    impl Op {
        fn apply(self, o: &mut Olsr, rng: &mut SmallRng, now_ms: u64) -> Vec<ProtoEffect> {
            let ctx = &mut ctx_at_ms(rng, now_ms);
            match self {
                Op::Control(from, msg) => o.on_control_received(ctx, from, msg),
                Op::Timer(token) => o.on_timer(ctx, token),
                Op::LinkFailure(hop, packet) => o.on_link_failure(ctx, hop, packet),
                Op::Data(packet) => o.on_data_received(ctx, 1, packet),
            }
        }
    }

    /// Drives one node through random interleavings of everything that can
    /// happen to it and holds the lazy table, at every read, to the eager
    /// computation made at the last place the old code recomputed — and
    /// every effect to a twin whose table is brought up to date at exactly
    /// those places.
    #[test]
    fn lazy_table_matches_the_eager_reference_under_random_interleavings() {
        use rand::Rng;
        const IDS: usize = 12;
        for seed in 0..48u64 {
            let mut script = SmallRng::seed_from_u64(1000 + seed);
            let (mut rng_lazy, mut rng_twin) =
                (SmallRng::seed_from_u64(seed), SmallRng::seed_from_u64(seed));
            let mut lazy = Olsr::new(0);
            let mut twin = Olsr::new(0);
            let mut reference: BTreeMap<NodeId, NodeId> = BTreeMap::new();
            let mut now_ms = 0u64;
            let mut reads = 0u64;
            let subset = |r: &mut SmallRng| -> Vec<NodeId> {
                let n = r.gen_range(0..5usize);
                (0..n).map(|_| r.gen_range(0..IDS)).collect()
            };
            for step in 0..600 {
                // Mostly bursts, sometimes a gap past a hold time.
                now_ms += match script.gen_range(0..10u32) {
                    0..=5 => script.gen_range(0..50u64),
                    6..=8 => script.gen_range(500..3000u64),
                    _ => script.gen_range(5000..16000u64),
                };
                let ctx = format!("seed {seed} step {step} t={now_ms}ms");
                // `recomputed`: the old code rebuilt the table inside this
                // operation; `read`: the operation looks a route up.
                let kind = script.gen_range(0..12u32);
                let (op, recomputed, mut read) = match kind {
                    0..=2 => {
                        let from = script.gen_range(1..IDS);
                        let msg = hello(
                            from,
                            &subset(&mut script),
                            &subset(&mut script),
                            &subset(&mut script),
                        );
                        (Op::Control(from, msg), true, false)
                    }
                    3..=5 => {
                        let origin = script.gen_range(0..IDS);
                        let seq = script.gen_range(0..8u64);
                        let fresh =
                            origin != 0 && twin.topology.get(&origin).map_or(true, |t| seq > t.seq);
                        let msg = tc(origin, seq, &subset(&mut script), script.gen_range(0..4));
                        (Op::Control(script.gen_range(1..IDS), msg), fresh, false)
                    }
                    6 => (Op::Timer(TOKEN_HELLO), false, false),
                    7 => (Op::Timer(TOKEN_TC), false, false),
                    8 => {
                        let packet = script
                            .gen_bool(0.7)
                            .then(|| data(script.gen_range(0..=IDS), script.gen_range(0..6), 64));
                        let read = packet.as_ref().is_some_and(|p| p.dst != 0);
                        (
                            Op::LinkFailure(script.gen_range(1..IDS), packet),
                            true,
                            read,
                        )
                    }
                    _ => {
                        let packet = data(
                            script.gen_range(0..=IDS),
                            100 + step,
                            script.gen_range(0..3),
                        );
                        let read = packet.dst != 0;
                        (Op::Data(packet), false, read)
                    }
                };
                let fx_lazy = op.clone().apply(&mut lazy, &mut rng_lazy, now_ms);
                let fx_twin = op.apply(&mut twin, &mut rng_twin, now_ms);
                // A packet out of re-route attempts is dropped without a
                // look at the table.
                read &= !matches!(
                    fx_lazy[..],
                    [ProtoEffect::DropData {
                        reason: DataDropReason::SalvageFailed,
                        ..
                    }]
                );
                assert_eq!(fx_lazy, fx_twin, "{ctx}: effects");
                if recomputed {
                    assert!(lazy.routes_dirty || read, "{ctx}: no dirty mark");
                    if twin.routes_dirty {
                        twin.rebuild_routes();
                    }
                    reference = twin.eager_routes();
                    assert_eq!(lazy.eager_routes(), reference, "{ctx}: link state");
                }
                assert!(!twin.routes_dirty, "{ctx}: twin not eager");
                assert_eq!(twin.route_map(), reference, "{ctx}: eager twin's table");
                if read {
                    reads += 1;
                    assert!(!lazy.routes_dirty, "{ctx}: read a dirty table");
                    assert_eq!(lazy.route_map(), reference, "{ctx}: lazy table");
                }
            }
            assert!(reads > 50, "seed {seed}: only {reads} reads");
            assert!(
                lazy.rebuilds < twin.rebuilds,
                "seed {seed}: lazy rebuilt {} times, eager {}",
                lazy.rebuilds,
                twin.rebuilds
            );
        }
    }

    #[test]
    fn link_sensing_promotes_to_sym() {
        let mut rng = SmallRng::seed_from_u64(1);
        let mut o = Olsr::new(0);
        // First hello from 1 does not mention us: asymmetric.
        let _ = o.on_control_received(&mut ctx_at(&mut rng, 1), 1, hello(1, &[], &[], &[]));
        assert!(o.sym_neighbors().is_empty());
        // Second hello lists us as heard: now symmetric.
        let _ = o.on_control_received(&mut ctx_at(&mut rng, 2), 1, hello(1, &[], &[0], &[]));
        assert_eq!(o.sym_neighbors(), vec![1]);
    }

    #[test]
    fn routes_via_two_hop_neighborhood() {
        let mut rng = SmallRng::seed_from_u64(2);
        let mut o = Olsr::new(0);
        // 1 is a sym neighbor whose sym neighbors include 5.
        let _ = o.on_control_received(&mut ctx_at(&mut rng, 1), 1, hello(1, &[0, 5], &[], &[]));
        assert_eq!(o.next_hop(5), Some(1));
        assert_eq!(o.next_hop(1), Some(1));
    }

    #[test]
    fn tc_extends_topology() {
        let mut rng = SmallRng::seed_from_u64(3);
        let mut o = Olsr::new(0);
        let _ = o.on_control_received(&mut ctx_at(&mut rng, 1), 1, hello(1, &[0, 5], &[], &[]));
        // TC from node 7 advertising selector 5: link 7–5 known.
        let tc = ControlPacket::Olsr(OlsrMessage::Tc(OlsrTc {
            origin: 7,
            seq: 1,
            selectors: vec![5],
            ttl: 10,
        }));
        let _ = o.on_control_received(&mut ctx_at(&mut rng, 1), 1, tc);
        assert_eq!(o.next_hop(7), Some(1), "0→1→5→7");
    }

    #[test]
    fn tc_forwarded_only_by_selected_mprs() {
        let mut rng = SmallRng::seed_from_u64(4);
        let mut o = Olsr::new(0);
        // Node 1 chose us as MPR.
        let _ = o.on_control_received(&mut ctx_at(&mut rng, 1), 1, hello(1, &[0], &[], &[0]));
        let tc = OlsrTc {
            origin: 9,
            seq: 1,
            selectors: vec![4],
            ttl: 10,
        };
        let fx = o.on_control_received(
            &mut ctx_at(&mut rng, 1),
            1,
            ControlPacket::Olsr(OlsrMessage::Tc(tc.clone())),
        );
        assert!(fx
            .iter()
            .any(|e| matches!(e, ProtoEffect::SendControl { .. })));
        // From a node that did not select us: no forwarding (and the TC is
        // stale anyway the second time).
        let mut o2 = Olsr::new(0);
        let _ = o2.on_control_received(&mut ctx_at(&mut rng, 1), 2, hello(2, &[0], &[], &[]));
        let fx = o2.on_control_received(
            &mut ctx_at(&mut rng, 1),
            2,
            ControlPacket::Olsr(OlsrMessage::Tc(tc)),
        );
        assert!(fx.is_empty());
    }

    #[test]
    fn mpr_selection_covers_two_hop() {
        let mut rng = SmallRng::seed_from_u64(5);
        let mut o = Olsr::new(0);
        // Neighbors 1 and 2; 1 covers {5, 6}, 2 covers {6}.
        let _ = o.on_control_received(&mut ctx_at(&mut rng, 1), 1, hello(1, &[0, 5, 6], &[], &[]));
        let _ = o.on_control_received(&mut ctx_at(&mut rng, 1), 2, hello(2, &[0, 6], &[], &[]));
        o.select_mprs();
        assert!(o.mprs.contains(&1), "1 covers everything");
        assert!(!o.mprs.contains(&2), "2 adds no coverage");
    }

    #[test]
    fn hello_timer_reschedules_and_emits() {
        let mut rng = SmallRng::seed_from_u64(6);
        let mut o = Olsr::new(0);
        let fx = o.on_start(&mut ctx_at(&mut rng, 0));
        assert_eq!(fx.len(), 2);
        let fx = o.on_timer(&mut ctx_at(&mut rng, 1), TOKEN_HELLO);
        assert!(fx.iter().any(|e| matches!(
            e,
            ProtoEffect::SendControl {
                packet: ControlPacket::Olsr(OlsrMessage::Hello(_)),
                ..
            }
        )));
        assert!(fx.iter().any(|e| matches!(
            e,
            ProtoEffect::SetTimer {
                token: TOKEN_HELLO,
                ..
            }
        )));
    }

    #[test]
    fn no_route_drops_data() {
        let mut rng = SmallRng::seed_from_u64(7);
        let mut o = Olsr::new(0);
        let p = DataPacket {
            src: 0,
            dst: 9,
            uid: 1,
            origin_time: SimTime::ZERO,
            bytes: 512,
            ttl: 64,
            source_route: None,
        };
        let fx = o.on_data_from_app(&mut ctx_at(&mut rng, 1), p);
        assert!(fx.iter().any(|e| matches!(
            e,
            ProtoEffect::DropData {
                reason: DataDropReason::NoRoute,
                ..
            }
        )));
    }

    #[test]
    fn link_failure_reroutes() {
        let mut rng = SmallRng::seed_from_u64(8);
        let mut o = Olsr::new(0);
        let _ = o.on_control_received(&mut ctx_at(&mut rng, 1), 1, hello(1, &[0, 5], &[], &[]));
        let _ = o.on_control_received(&mut ctx_at(&mut rng, 1), 2, hello(2, &[0, 5], &[], &[]));
        // Route to 5 exists via 1 or 2; kill whichever is in use.
        let first = o.next_hop(5).unwrap();
        let p = DataPacket {
            src: 0,
            dst: 5,
            uid: 1,
            origin_time: SimTime::ZERO,
            bytes: 512,
            ttl: 64,
            source_route: None,
        };
        let fx = o.on_link_failure(&mut ctx_at(&mut rng, 2), first, Some(p));
        let other = if first == 1 { 2 } else { 1 };
        assert!(
            fx.iter()
                .any(|e| matches!(e, ProtoEffect::SendData { next_hop, .. } if *next_hop == other)),
            "{fx:?}"
        );
    }
}
