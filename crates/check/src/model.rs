//! The closed system the checker explores: N protocol instances on a
//! fixed topology, an in-flight message multiset, pending timers, link
//! state and budgets for every source of nondeterminism.
//!
//! ## Abstractions (and why they are sound)
//!
//! * **Time is quantized** to 1 s [`Action::Tick`]s with a tick budget.
//!   All protocol horizons in the model configuration are whole seconds,
//!   so every lazy-expiry comparison (`now >= expires`, `age >= lifetime`)
//!   changes value only at tick boundaries — exploring just those
//!   boundaries loses no behavior.
//! * **Timers fire nondeterministically** ([`Action::FireTimer`] ignores
//!   the requested delay): an over-approximation of every real schedule,
//!   so any loop reachable under real timing is reachable here.
//! * **Broadcast expands at emission** into one in-flight copy per
//!   neighbor whose link is up; each copy is independently delivered,
//!   dropped or duplicated — the radio's per-receiver loss model, minus
//!   the geometry.
//! * **Unicast transmissions** can additionally fail with MAC feedback
//!   ([`Action::LinkFail`] → `on_link_failure` at the sender), matching
//!   the harness's no-ACK callback.
//! * **Crash–rejoin** wipes a node to a fresh instance (cold reboot) and
//!   clears its timers; its in-flight messages stay in the air.
//!
//! State identity is a canonical byte serialization: protocol state via
//! [`ModelCheckable::model_canonical`] (clock-relative, statistics
//! excluded), plus links, budgets, the sorted message multiset and
//! timers. Two states with equal encodings behave identically under
//! every action sequence, which is what makes BFS dedup sound.

use core::fmt;

use rand::rngs::SmallRng;
use rand::SeedableRng;
use slr_core::invariant::{check_destination, check_distance_zero, check_floor_monotone};
use slr_netsim::time::{SimDuration, SimTime};
use slr_protocols::api::{ControlPacket, DataPacket, NodeId, ProtoCtx, ProtoEffect, DATA_TTL};
use slr_protocols::model::ModelCheckable;
use slr_protocols::srp::{SrpConfig, SrpMessage};

/// One application traffic budget: `budget` sends from `src` to `dst`.
#[derive(Debug, Clone, Copy)]
pub struct Flow {
    /// Originating node.
    pub src: NodeId,
    /// Destination node.
    pub dst: NodeId,
    /// How many times [`Action::AppSend`] may fire for this flow.
    pub budget: u8,
}

/// A fully specified closed system + exploration budgets.
#[derive(Debug, Clone)]
pub struct ModelConfig {
    /// Registry name (traces reference configs by name).
    pub name: &'static str,
    /// One-line description for `--list-configs`.
    pub about: &'static str,
    /// Node count (ids `0..nodes`).
    pub nodes: usize,
    /// Undirected edges, each as `(lo, hi)` with `lo < hi`.
    pub edges: Vec<(usize, usize)>,
    /// Application traffic budgets.
    pub flows: Vec<Flow>,
    /// How many 1 s clock ticks the exploration may take.
    pub max_ticks: u32,
    /// Per-node crash budget (`len == nodes`).
    pub crash_budget: Vec<u8>,
    /// Per-edge link up/down transition budget (`len == edges.len()`).
    pub link_budget: Vec<u8>,
    /// Whether in-flight messages may be silently lost.
    pub allow_drop: bool,
    /// How many times each in-flight message may be duplicated.
    pub dup_budget: u8,
    /// BFS depth bound (actions after the prefix).
    pub max_depth: usize,
    /// BFS distinct-state budget.
    pub max_states: usize,
    /// Deterministic scripted prefix applied before exploration starts
    /// (positions the system at an interesting frontier cheaply).
    pub prefix: Vec<Action>,
    /// The SRP tuning the instances run with (see
    /// [`crate::configs::model_srp_config`]).
    pub srp: SrpConfig,
}

impl ModelConfig {
    /// Index of the undirected edge `{a, b}`, if present.
    pub fn edge_index(&self, a: NodeId, b: NodeId) -> Option<usize> {
        let key = (a.min(b), a.max(b));
        self.edges.iter().position(|&e| e == key)
    }

    /// Neighbors of `i` in ascending order.
    pub fn neighbors(&self, i: NodeId) -> Vec<NodeId> {
        let mut out: Vec<NodeId> = self
            .edges
            .iter()
            .filter_map(|&(a, b)| {
                if a == i {
                    Some(b)
                } else if b == i {
                    Some(a)
                } else {
                    None
                }
            })
            .collect();
        out.sort_unstable();
        out
    }
}

/// One nondeterministic transition of the closed system.
///
/// Message-valued actions (`Deliver`/`Drop`/`Duplicate`/`LinkFail`)
/// reference the in-flight multiset by index; the multiset is kept sorted
/// by canonical message encoding, so indices are deterministic and traces
/// replay exactly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Action {
    /// Advance the quantized clock by 1 s.
    Tick,
    /// The application hands flow `flow`'s next packet to its source.
    AppSend {
        /// Index into [`ModelConfig::flows`].
        flow: usize,
    },
    /// Deliver in-flight message `msg` to its receiver.
    Deliver {
        /// Index into the sorted in-flight multiset.
        msg: usize,
    },
    /// Lose in-flight message `msg` silently.
    Drop {
        /// Index into the sorted in-flight multiset.
        msg: usize,
    },
    /// Duplicate in-flight message `msg` (MAC retransmission ghost).
    Duplicate {
        /// Index into the sorted in-flight multiset.
        msg: usize,
    },
    /// Fail unicast message `msg` with MAC feedback to its sender.
    LinkFail {
        /// Index into the sorted in-flight multiset.
        msg: usize,
    },
    /// Fire a pending protocol timer (any time: over-approximation).
    FireTimer {
        /// The node whose timer fires.
        node: NodeId,
        /// The timer token, as passed to `SetTimer`.
        token: u64,
    },
    /// Take link `edge` down.
    LinkDown {
        /// Index into [`ModelConfig::edges`].
        edge: usize,
    },
    /// Bring link `edge` back up.
    LinkUp {
        /// Index into [`ModelConfig::edges`].
        edge: usize,
    },
    /// Crash node `node` (state wiped to a fresh cold-boot instance).
    Crash {
        /// The node that crashes.
        node: NodeId,
    },
    /// Rejoin crashed node `node` (fires `on_rejoin`).
    Rejoin {
        /// The node that rejoins.
        node: NodeId,
    },
}

impl fmt::Display for Action {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Action::Tick => write!(f, "tick"),
            Action::AppSend { flow } => write!(f, "appsend {flow}"),
            Action::Deliver { msg } => write!(f, "deliver {msg}"),
            Action::Drop { msg } => write!(f, "drop {msg}"),
            Action::Duplicate { msg } => write!(f, "dup {msg}"),
            Action::LinkFail { msg } => write!(f, "linkfail {msg}"),
            Action::FireTimer { node, token } => write!(f, "timer {node} {token}"),
            Action::LinkDown { edge } => write!(f, "linkdown {edge}"),
            Action::LinkUp { edge } => write!(f, "linkup {edge}"),
            Action::Crash { node } => write!(f, "crash {node}"),
            Action::Rejoin { node } => write!(f, "rejoin {node}"),
        }
    }
}

impl Action {
    /// Parses the [`fmt::Display`] form back (trace files store these).
    pub fn parse(s: &str) -> Result<Action, String> {
        let mut it = s.split_whitespace();
        let head = it.next().ok_or("empty action")?;
        let mut num = |what: &str| -> Result<u64, String> {
            it.next()
                .ok_or_else(|| format!("action '{s}': missing {what}"))?
                .parse::<u64>()
                .map_err(|e| format!("action '{s}': bad {what}: {e}"))
        };
        let a = match head {
            "tick" => Action::Tick,
            "appsend" => Action::AppSend {
                flow: num("flow")? as usize,
            },
            "deliver" => Action::Deliver {
                msg: num("msg")? as usize,
            },
            "drop" => Action::Drop {
                msg: num("msg")? as usize,
            },
            "dup" => Action::Duplicate {
                msg: num("msg")? as usize,
            },
            "linkfail" => Action::LinkFail {
                msg: num("msg")? as usize,
            },
            "timer" => Action::FireTimer {
                node: num("node")? as NodeId,
                token: num("token")?,
            },
            "linkdown" => Action::LinkDown {
                edge: num("edge")? as usize,
            },
            "linkup" => Action::LinkUp {
                edge: num("edge")? as usize,
            },
            "crash" => Action::Crash {
                node: num("node")? as NodeId,
            },
            "rejoin" => Action::Rejoin {
                node: num("node")? as NodeId,
            },
            _ => return Err(format!("unknown action '{s}'")),
        };
        Ok(a)
    }
}

/// An in-flight transmission (one receiver — broadcast is expanded at
/// emission).
#[derive(Debug, Clone)]
pub struct Msg {
    /// Transmitting node.
    pub from: NodeId,
    /// Receiving node.
    pub to: NodeId,
    /// Whether this was a unicast (MAC feedback possible).
    pub unicast: bool,
    /// Remaining duplication budget for this copy.
    pub dups_left: u8,
    /// The payload.
    pub payload: Payload,
    /// Cached canonical encoding (sort key + state hash input).
    enc: Vec<u8>,
}

/// A message payload.
#[derive(Debug, Clone)]
pub enum Payload {
    /// A routing-control packet.
    Control(ControlPacket),
    /// A data packet.
    Data(DataPacket),
}

impl Msg {
    fn new(from: NodeId, to: NodeId, unicast: bool, dups_left: u8, payload: Payload) -> Msg {
        let mut m = Msg {
            from,
            to,
            unicast,
            dups_left,
            payload,
            enc: Vec::new(),
        };
        m.reencode();
        m
    }

    fn reencode(&mut self) {
        let mut enc = Vec::with_capacity(64);
        enc.extend_from_slice(&(self.from as u64).to_le_bytes());
        enc.extend_from_slice(&(self.to as u64).to_le_bytes());
        enc.push(self.unicast as u8);
        enc.push(self.dups_left);
        match &self.payload {
            Payload::Control(c) => {
                enc.push(1);
                // `SrpMessage` carries labels, flags and node ids but no
                // timestamps, so its Debug form is a stable canonical
                // encoding (checked by `control_debug_has_no_timestamps`
                // below).
                enc.extend_from_slice(format!("{c:?}").as_bytes());
            }
            Payload::Data(p) => {
                enc.push(2);
                // origin_time is masked: it is a latency statistic the
                // protocol never reads, and encoding it would leak the
                // absolute clock into state identity.
                enc.extend_from_slice(&(p.src as u64).to_le_bytes());
                enc.extend_from_slice(&(p.dst as u64).to_le_bytes());
                enc.extend_from_slice(&p.uid.to_le_bytes());
                enc.extend_from_slice(&(p.bytes as u64).to_le_bytes());
                enc.push(p.ttl);
            }
        }
        self.enc = enc;
    }

    /// The canonical encoding (for sorting and hashing).
    pub fn encoding(&self) -> &[u8] {
        &self.enc
    }

    /// Short human-readable form for diagnostics.
    pub fn describe(&self) -> String {
        match &self.payload {
            Payload::Control(c) => format!("{} -> {}: {c:?}", self.from, self.to),
            Payload::Data(p) => format!(
                "{} -> {}: Data(src={}, dst={}, uid={}, ttl={})",
                self.from, self.to, p.src, p.dst, p.uid, p.ttl
            ),
        }
    }
}

/// The full exploration state: protocol instances + network + budgets.
#[derive(Clone)]
pub struct State<P> {
    /// One protocol instance per node.
    pub nodes: Vec<P>,
    /// Whether each node is up.
    pub alive: Vec<bool>,
    /// Remaining crash budget per node.
    pub crashes_left: Vec<u8>,
    /// Whether each edge is up.
    pub links_up: Vec<bool>,
    /// Remaining link-transition budget per edge.
    pub link_toggles_left: Vec<u8>,
    /// Remaining sends per flow.
    pub flows_left: Vec<u8>,
    /// Remaining clock ticks.
    pub ticks_left: u32,
    /// The quantized clock.
    pub now: SimTime,
    /// In-flight messages, sorted by canonical encoding.
    pub inflight: Vec<Msg>,
    /// Pending `(node, token)` timers, sorted.
    pub timers: Vec<(NodeId, u64)>,
}

/// A model = configuration + a factory for fresh protocol instances
/// (used at init and on crash).
pub struct Model<'a, P> {
    /// The system configuration.
    pub cfg: &'a ModelConfig,
    /// Builds the cold-boot instance for a node.
    pub make: &'a dyn Fn(NodeId, &ModelConfig) -> P,
}

/// The protocols under model check never draw randomness on these code
/// paths (SRP is fully deterministic); a fixed-seed throwaway RNG
/// satisfies the `ProtoCtx` contract without adding hidden state. A
/// protocol that *does* consume entropy would need the RNG lifted into
/// [`State`] and its internal state folded into the canonical encoding.
fn throwaway_rng() -> SmallRng {
    SmallRng::seed_from_u64(0x5112_c4ec)
}

impl<P: ModelCheckable> Model<'_, P> {
    /// The cold-boot state: fresh instances, all links up, no traffic.
    pub fn start(&self) -> State<P> {
        let n = self.cfg.nodes;
        let mut st = State {
            nodes: (0..n).map(|i| (self.make)(i, self.cfg)).collect(),
            alive: vec![true; n],
            crashes_left: self.cfg.crash_budget.clone(),
            links_up: vec![true; self.cfg.edges.len()],
            link_toggles_left: self.cfg.link_budget.clone(),
            flows_left: self.cfg.flows.iter().map(|f| f.budget).collect(),
            ticks_left: self.cfg.max_ticks,
            now: SimTime::ZERO,
            inflight: Vec::new(),
            timers: Vec::new(),
        };
        for i in 0..n {
            let mut rng = throwaway_rng();
            let fx = st.nodes[i].on_start(&mut ProtoCtx {
                now: st.now,
                rng: &mut rng,
            });
            self.process_effects(&mut st, i, fx);
        }
        st
    }

    fn push_msg(&self, st: &mut State<P>, m: Msg) {
        let at = st
            .inflight
            .partition_point(|x| x.encoding() <= m.encoding());
        st.inflight.insert(at, m);
    }

    fn process_effects(&self, st: &mut State<P>, i: NodeId, fx: Vec<ProtoEffect>) {
        for e in fx {
            match e {
                ProtoEffect::SendControl { packet, next_hop } => match next_hop {
                    Some(j) => self.push_msg(
                        st,
                        Msg::new(i, j, true, self.cfg.dup_budget, Payload::Control(packet)),
                    ),
                    None => {
                        // Broadcast: one independent copy per neighbor
                        // currently reachable at the radio level.
                        for j in self.cfg.neighbors(i) {
                            let e = self.cfg.edge_index(i, j).expect("neighbor edge");
                            if st.links_up[e] {
                                self.push_msg(
                                    st,
                                    Msg::new(
                                        i,
                                        j,
                                        false,
                                        self.cfg.dup_budget,
                                        Payload::Control(packet.clone()),
                                    ),
                                );
                            }
                        }
                    }
                },
                ProtoEffect::SendData { packet, next_hop } => self.push_msg(
                    st,
                    Msg::new(
                        i,
                        next_hop,
                        true,
                        self.cfg.dup_budget,
                        Payload::Data(packet),
                    ),
                ),
                ProtoEffect::SetTimer { token, .. } => {
                    // Delay intentionally ignored: timers fire at any
                    // later point (see module docs).
                    if !st.timers.contains(&(i, token)) {
                        st.timers.push((i, token));
                        st.timers.sort_unstable();
                    }
                }
                ProtoEffect::DeliverLocal(_) | ProtoEffect::DropData { .. } => {}
            }
        }
    }

    fn deliverable(&self, st: &State<P>, m: &Msg) -> bool {
        if !st.alive[m.to] {
            return false;
        }
        match self.cfg.edge_index(m.from, m.to) {
            Some(e) => st.links_up[e],
            None => false,
        }
    }

    /// Every action applicable in `st`, in a fixed canonical order.
    pub fn enumerate(&self, st: &State<P>) -> Vec<Action> {
        let mut out = Vec::new();
        if st.ticks_left > 0 {
            out.push(Action::Tick);
        }
        for (f, flow) in self.cfg.flows.iter().enumerate() {
            if st.flows_left[f] > 0 && st.alive[flow.src] {
                out.push(Action::AppSend { flow: f });
            }
        }
        for (i, m) in st.inflight.iter().enumerate() {
            if self.deliverable(st, m) {
                out.push(Action::Deliver { msg: i });
            }
        }
        if self.cfg.allow_drop {
            for i in 0..st.inflight.len() {
                out.push(Action::Drop { msg: i });
            }
        }
        for (i, m) in st.inflight.iter().enumerate() {
            if m.dups_left > 0 {
                out.push(Action::Duplicate { msg: i });
            }
        }
        for (i, m) in st.inflight.iter().enumerate() {
            if m.unicast && st.alive[m.from] {
                out.push(Action::LinkFail { msg: i });
            }
        }
        for &(node, token) in &st.timers {
            if st.alive[node] {
                out.push(Action::FireTimer { node, token });
            }
        }
        for e in 0..self.cfg.edges.len() {
            if st.link_toggles_left[e] > 0 {
                if st.links_up[e] {
                    out.push(Action::LinkDown { edge: e });
                } else {
                    out.push(Action::LinkUp { edge: e });
                }
            }
        }
        for i in 0..self.cfg.nodes {
            if st.alive[i] && st.crashes_left[i] > 0 {
                out.push(Action::Crash { node: i });
            }
        }
        for i in 0..self.cfg.nodes {
            if !st.alive[i] {
                out.push(Action::Rejoin { node: i });
            }
        }
        out
    }

    /// Applies one action. Errors (budget exhausted, bad index, …) only
    /// occur for hand-written scripts; actions from [`Self::enumerate`]
    /// always apply.
    pub fn apply(&self, st: &mut State<P>, a: Action) -> Result<(), String> {
        match a {
            Action::Tick => {
                if st.ticks_left == 0 {
                    return Err("tick budget exhausted".into());
                }
                st.ticks_left -= 1;
                st.now += SimDuration::from_secs(1);
            }
            Action::AppSend { flow } => {
                let f = *self
                    .cfg
                    .flows
                    .get(flow)
                    .ok_or_else(|| format!("no flow {flow}"))?;
                if st.flows_left[flow] == 0 {
                    return Err(format!("flow {flow} budget exhausted"));
                }
                if !st.alive[f.src] {
                    return Err(format!("flow {flow} source {} is down", f.src));
                }
                st.flows_left[flow] -= 1;
                // Deterministic uid independent of interleaving order.
                let uid = flow as u64 * 1000 + st.flows_left[flow] as u64;
                let packet = DataPacket {
                    src: f.src,
                    dst: f.dst,
                    uid,
                    origin_time: st.now,
                    bytes: 512,
                    ttl: DATA_TTL,
                    source_route: None,
                };
                let mut rng = throwaway_rng();
                let fx = st.nodes[f.src].on_data_from_app(
                    &mut ProtoCtx {
                        now: st.now,
                        rng: &mut rng,
                    },
                    packet,
                );
                self.process_effects(st, f.src, fx);
            }
            Action::Deliver { msg } => {
                if msg >= st.inflight.len() {
                    return Err(format!("no in-flight message {msg}"));
                }
                if !self.deliverable(st, &st.inflight[msg]) {
                    return Err(format!("message {msg} not deliverable"));
                }
                let m = st.inflight.remove(msg);
                let mut rng = throwaway_rng();
                let mut ctx = ProtoCtx {
                    now: st.now,
                    rng: &mut rng,
                };
                let fx = match m.payload {
                    Payload::Control(c) => st.nodes[m.to].on_control_received(&mut ctx, m.from, c),
                    Payload::Data(p) => st.nodes[m.to].on_data_received(&mut ctx, m.from, p),
                };
                self.process_effects(st, m.to, fx);
            }
            Action::Drop { msg } => {
                if !self.cfg.allow_drop {
                    return Err("drops disabled in this config".into());
                }
                if msg >= st.inflight.len() {
                    return Err(format!("no in-flight message {msg}"));
                }
                st.inflight.remove(msg);
            }
            Action::Duplicate { msg } => {
                if msg >= st.inflight.len() {
                    return Err(format!("no in-flight message {msg}"));
                }
                if st.inflight[msg].dups_left == 0 {
                    return Err(format!("message {msg} duplication budget exhausted"));
                }
                let mut orig = st.inflight.remove(msg);
                orig.dups_left -= 1;
                orig.reencode();
                let mut copy = orig.clone();
                copy.dups_left = 0;
                copy.reencode();
                self.push_msg(st, orig);
                self.push_msg(st, copy);
            }
            Action::LinkFail { msg } => {
                if msg >= st.inflight.len() {
                    return Err(format!("no in-flight message {msg}"));
                }
                if !st.inflight[msg].unicast {
                    return Err(format!("message {msg} is not unicast"));
                }
                if !st.alive[st.inflight[msg].from] {
                    return Err(format!("message {msg} sender is down"));
                }
                let m = st.inflight.remove(msg);
                let packet = match m.payload {
                    Payload::Data(p) => Some(p),
                    Payload::Control(_) => None,
                };
                let mut rng = throwaway_rng();
                let fx = st.nodes[m.from].on_link_failure(
                    &mut ProtoCtx {
                        now: st.now,
                        rng: &mut rng,
                    },
                    m.to,
                    packet,
                );
                self.process_effects(st, m.from, fx);
            }
            Action::FireTimer { node, token } => {
                let at = st
                    .timers
                    .iter()
                    .position(|&t| t == (node, token))
                    .ok_or_else(|| format!("no pending timer ({node}, {token})"))?;
                st.timers.remove(at);
                if st.alive[node] {
                    let mut rng = throwaway_rng();
                    let fx = st.nodes[node].on_timer(
                        &mut ProtoCtx {
                            now: st.now,
                            rng: &mut rng,
                        },
                        token,
                    );
                    self.process_effects(st, node, fx);
                }
            }
            Action::LinkDown { edge } => {
                if edge >= self.cfg.edges.len() {
                    return Err(format!("no edge {edge}"));
                }
                if !st.links_up[edge] {
                    return Err(format!("edge {edge} already down"));
                }
                if st.link_toggles_left[edge] == 0 {
                    return Err(format!("edge {edge} transition budget exhausted"));
                }
                st.links_up[edge] = false;
                st.link_toggles_left[edge] -= 1;
            }
            Action::LinkUp { edge } => {
                if edge >= self.cfg.edges.len() {
                    return Err(format!("no edge {edge}"));
                }
                if st.links_up[edge] {
                    return Err(format!("edge {edge} already up"));
                }
                if st.link_toggles_left[edge] == 0 {
                    return Err(format!("edge {edge} transition budget exhausted"));
                }
                st.links_up[edge] = true;
                st.link_toggles_left[edge] -= 1;
            }
            Action::Crash { node } => {
                if node >= self.cfg.nodes || !st.alive[node] {
                    return Err(format!("node {node} not up"));
                }
                if st.crashes_left[node] == 0 {
                    return Err(format!("node {node} crash budget exhausted"));
                }
                st.crashes_left[node] -= 1;
                st.alive[node] = false;
                // Cold reboot: volatile protocol state and armed timers
                // are gone; transmissions already in the air are not.
                st.nodes[node] = (self.make)(node, self.cfg);
                st.timers.retain(|&(n, _)| n != node);
            }
            Action::Rejoin { node } => {
                if node >= self.cfg.nodes || st.alive[node] {
                    return Err(format!("node {node} not down"));
                }
                st.alive[node] = true;
                let mut rng = throwaway_rng();
                let fx = st.nodes[node].on_rejoin(&mut ProtoCtx {
                    now: st.now,
                    rng: &mut rng,
                });
                self.process_effects(st, node, fx);
            }
        }
        Ok(())
    }

    /// Canonical byte serialization of the whole system state.
    pub fn canonical(&self, st: &State<P>) -> Vec<u8> {
        let mut out = Vec::with_capacity(1024);
        out.extend_from_slice(&(st.ticks_left as u64).to_le_bytes());
        for i in 0..self.cfg.nodes {
            out.push(st.alive[i] as u8);
            out.push(st.crashes_left[i]);
            st.nodes[i].model_canonical(st.now, &mut out);
        }
        for e in 0..self.cfg.edges.len() {
            out.push(st.links_up[e] as u8);
            out.push(st.link_toggles_left[e]);
        }
        out.extend_from_slice(&st.flows_left);
        out.extend_from_slice(&(st.inflight.len() as u64).to_le_bytes());
        for m in &st.inflight {
            out.extend_from_slice(&(m.encoding().len() as u64).to_le_bytes());
            out.extend_from_slice(m.encoding());
        }
        out.extend_from_slice(&(st.timers.len() as u64).to_le_bytes());
        for &(n, t) in &st.timers {
            out.extend_from_slice(&(n as u64).to_le_bytes());
            out.extend_from_slice(&t.to_le_bytes());
        }
        out
    }

    /// Per-node, per-destination seqno floors (for the monotonicity
    /// check across a transition).
    pub fn floors(&self, st: &State<P>) -> Vec<u64> {
        let n = self.cfg.nodes;
        let mut out = vec![0u64; n * n];
        for i in 0..n {
            for t in 0..n {
                out[i * n + t] = st.nodes[i].model_seqno_floor(t);
            }
        }
        out
    }

    /// Checks every state invariant; `prev_floors` is the parent state's
    /// [`Self::floors`] and `crashed` the node (if any) wiped by the
    /// transition, whose floor reset is legitimate.
    pub fn check_invariants(
        &self,
        st: &State<P>,
        prev_floors: Option<(&[u64], Option<NodeId>)>,
    ) -> Option<String> {
        let n = self.cfg.nodes;
        // Theorem 3 + Definition 1 per destination, over live nodes.
        let mut edges = Vec::new();
        for t in 0..n {
            edges.clear();
            for i in 0..n {
                if i != t && st.alive[i] {
                    st.nodes[i].successors(t, st.now, &mut edges);
                }
            }
            if let Err(v) = check_destination(t, n, &edges) {
                return Some(v.to_string());
            }
        }
        // Audit-layer distance-0 identity on in-flight RREQs.
        for m in &st.inflight {
            if let Payload::Control(ControlPacket::Srp(SrpMessage::Rreq(r))) = &m.payload {
                if let Err(v) = check_distance_zero::<u32>(r.src, m.from, r.d) {
                    return Some(v.to_string());
                }
            }
        }
        // Floor monotonicity across the transition.
        if let Some((prev, crashed)) = prev_floors {
            for i in 0..n {
                if Some(i) == crashed || !st.alive[i] {
                    continue;
                }
                for t in 0..n {
                    if let Err(v) = check_floor_monotone::<u32>(
                        i,
                        t,
                        prev[i * n + t],
                        st.nodes[i].model_seqno_floor(t),
                    ) {
                        return Some(v.to_string());
                    }
                }
            }
        }
        None
    }

    /// The node legitimately wiped by `a` (floor-reset exemption).
    pub fn crashed_by(a: Action) -> Option<NodeId> {
        match a {
            Action::Crash { node } => Some(node),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The canonical message encoding leans on `ControlPacket`'s Debug
    /// form; that is only sound while SRP messages carry no timestamps.
    /// Guard it structurally: every field of every SRP message type is
    /// spelled out here, so adding a `SimTime` field forces this test
    /// (and the encoding decision) to be revisited.
    #[test]
    fn control_debug_has_no_timestamps() {
        use slr_core::Frac32;
        use slr_protocols::srp::{SrpRerr, SrpRrep, SrpRreq};
        let rreq = SrpRreq {
            src: 1,
            rreq_id: 2,
            dst: 3,
            dst_seqno: 4,
            fd: Frac32::one(),
            unknown: false,
            reset: false,
            dest_only: false,
            no_advert: false,
            d: 0,
            ttl: 5,
            src_seqno: 1,
            src_lfd: Frac32::zero(),
            src_ld: 0,
        };
        let rrep = SrpRrep {
            rreq_src: 1,
            rreq_id: 2,
            dst: 3,
            dst_seqno: 4,
            lfd: Frac32::zero(),
            ld: 0,
            no_reverse: false,
        };
        let rerr = SrpRerr {
            unreachable: vec![1],
            cold_reboot: false,
        };
        for s in [
            format!("{:?}", SrpMessage::Rreq(rreq)),
            format!("{:?}", SrpMessage::Rrep(rrep)),
            format!("{:?}", SrpMessage::Rerr(rerr)),
        ] {
            assert!(
                !s.contains("SimTime") && !s.contains("origin_time"),
                "timestamp leaked into control Debug encoding: {s}"
            );
        }
    }

    #[test]
    fn action_strings_round_trip() {
        let actions = [
            Action::Tick,
            Action::AppSend { flow: 2 },
            Action::Deliver { msg: 7 },
            Action::Drop { msg: 0 },
            Action::Duplicate { msg: 3 },
            Action::LinkFail { msg: 1 },
            Action::FireTimer {
                node: 4,
                token: 9_223_372_036_854_775_809,
            },
            Action::LinkDown { edge: 1 },
            Action::LinkUp { edge: 1 },
            Action::Crash { node: 2 },
            Action::Rejoin { node: 2 },
        ];
        for a in actions {
            assert_eq!(Action::parse(&a.to_string()).unwrap(), a);
        }
        assert!(Action::parse("warp 3").is_err());
        assert!(Action::parse("deliver").is_err());
    }
}
