//! An 802.11-DCF-style MAC state machine.
//!
//! Implements the contention behaviour the paper's evaluation depends on:
//! carrier sense with DIFS deferral, slotted binary-exponential backoff
//! with freezing, NAV (virtual carrier sense) from overheard frames,
//! optional RTS/CTS for large unicast frames, SIFS-spaced ACKs with retry
//! limits, broadcast without acknowledgment, and a bounded interface queue
//! with priority for routing control packets.
//!
//! Two events matter to routing protocols above:
//!
//! * [`MacEffect::TxFailed`] — a unicast frame exhausted its retries; this
//!   is the "link-layer unicast loss detection, without hello packets" the
//!   paper's protocols use to break next hops and salvage packets (§V);
//! * [`MacEffect::Dropped`] — interface-queue overflow, counted along with
//!   retry failures as *MAC drops* (Fig. 3).
//!
//! The MAC is a passive state machine: inputs are method calls, outputs are
//! [`MacEffect`]s the harness interprets (start a transmission on the
//! channel, arm or cancel a timer, deliver a payload upward, …).

use std::collections::VecDeque;
use std::sync::Arc;

use slr_netsim::VecMap;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use slr_netsim::time::{SimDuration, SimTime};

use crate::frame::{Frame, FrameKind, ACK_BYTES, CTS_BYTES, DATA_OVERHEAD_BYTES, RTS_BYTES};
use crate::phy::PhyConfig;

/// MAC configuration (802.11 DSSS timing at 2 Mbps by default). A trial
/// holds one instance, shared by every node's [`Mac`] through an `Arc`.
#[derive(Debug, Clone, Copy)]
pub struct MacConfig {
    /// PHY parameters (airtime computation, ranges).
    pub phy: PhyConfig,
    /// Slot time (20 µs).
    pub slot: SimDuration,
    /// Short interframe space (10 µs).
    pub sifs: SimDuration,
    /// DCF interframe space (50 µs).
    pub difs: SimDuration,
    /// Minimum contention window (31).
    pub cw_min: u32,
    /// Maximum contention window (1023).
    pub cw_max: u32,
    /// Retry limit for RTS and small frames (7).
    pub short_retry_limit: u32,
    /// Retry limit for large frames sent after RTS (4).
    pub long_retry_limit: u32,
    /// Unicast frames strictly larger than this use RTS/CTS (bytes,
    /// including MAC overhead).
    pub rts_threshold: u32,
    /// Interface queue capacity in frames (50, as in ns-2/GloMoSim).
    pub queue_capacity: usize,
}

impl Default for MacConfig {
    fn default() -> Self {
        MacConfig {
            phy: PhyConfig::default(),
            slot: SimDuration::from_micros(20),
            sifs: SimDuration::from_micros(10),
            difs: SimDuration::from_micros(50),
            cw_min: 31,
            cw_max: 1023,
            short_retry_limit: 7,
            long_retry_limit: 4,
            rts_threshold: 256,
            queue_capacity: 50,
        }
    }
}

/// Logical MAC timers. At most one of each kind is armed at a time; the
/// harness maps `(node, timer)` to an event token.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MacTimer {
    /// DIFS deferral before backoff.
    Difs,
    /// Backoff countdown (armed for the full remaining duration).
    Backoff,
    /// CTS timeout after an RTS.
    Cts,
    /// ACK timeout after unicast data.
    Ack,
    /// SIFS before sending a response frame (CTS or ACK).
    RespSifs,
    /// SIFS before sending data after receiving CTS.
    TxSifs,
    /// Wake-up when the NAV expires.
    NavEnd,
}

impl MacTimer {
    /// Number of timer kinds (size for dense per-node timer tables).
    pub const COUNT: usize = 7;

    /// A dense index in `0..COUNT`, stable per kind — harnesses keep
    /// per-node timer tokens in a flat array instead of a hash map (timer
    /// arm/cancel is the hottest bookkeeping in a trial).
    pub fn index(self) -> usize {
        match self {
            MacTimer::Difs => 0,
            MacTimer::Backoff => 1,
            MacTimer::Cts => 2,
            MacTimer::Ack => 3,
            MacTimer::RespSifs => 4,
            MacTimer::TxSifs => 5,
            MacTimer::NavEnd => 6,
        }
    }
}

/// Why the MAC dropped a payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DropReason {
    /// The interface queue was full.
    IfqOverflow,
    /// Unicast retry limit exceeded.
    RetryLimit,
}

/// Outputs of the MAC state machine.
#[derive(Debug, Clone, PartialEq)]
pub enum MacEffect<P> {
    /// Put a frame on the air now. The harness informs the channel and
    /// schedules `on_tx_end` at now + airtime.
    StartTx(Frame<P>),
    /// Arm (or re-arm) a timer.
    SetTimer(MacTimer, SimDuration),
    /// Cancel a timer if armed.
    CancelTimer(MacTimer),
    /// Deliver a received payload to the layer above.
    Deliver {
        /// The transmitting (previous-hop) node.
        from: usize,
        /// The payload.
        payload: P,
    },
    /// A queued frame finished successfully (ACK received, or broadcast
    /// transmitted).
    TxDone {
        /// Unicast destination, `None` for broadcast.
        dst: Option<usize>,
    },
    /// A unicast frame exhausted its retries: link-layer loss detection.
    /// The payload is returned to the routing layer for salvage.
    TxFailed {
        /// The unreachable next hop.
        dst: usize,
        /// The payload that was not delivered.
        payload: P,
    },
    /// A payload was dropped without transmission attempts completing.
    Dropped {
        /// The payload.
        payload: P,
        /// Why it was dropped.
        reason: DropReason,
    },
}

/// MAC statistics (per node).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MacCounters {
    /// Data frames transmitted (unicast attempts incl. retries).
    pub tx_data: u64,
    /// Broadcast data frames transmitted.
    pub tx_broadcast: u64,
    /// RTS frames transmitted.
    pub tx_rts: u64,
    /// CTS frames transmitted.
    pub tx_cts: u64,
    /// ACK frames transmitted.
    pub tx_ack: u64,
    /// Frames dropped: retry limit exceeded.
    pub drop_retry: u64,
    /// Frames dropped: interface queue overflow.
    pub drop_ifq: u64,
    /// Payloads delivered upward.
    pub rx_delivered: u64,
    /// Duplicate unicast frames suppressed (still acknowledged).
    pub rx_duplicates: u64,
}

impl MacCounters {
    /// Total MAC-level drops (the paper's Fig. 3 metric).
    pub fn total_drops(&self) -> u64 {
        self.drop_retry + self.drop_ifq
    }
}

/// A payload handed to the MAC for transmission.
#[derive(Debug, Clone)]
struct Outgoing<P> {
    payload: P,
    dst: Option<usize>,
    bytes_on_air: u32,
}

#[derive(Debug, Clone)]
struct CurrentTx<P> {
    out: Outgoing<P>,
    seq: u64,
    short_retries: u32,
    long_retries: u32,
    use_rts: bool,
    cts_received: bool,
}

/// The access (own-traffic) sub-machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Access {
    /// Nothing staged.
    Idle,
    /// Frame staged, waiting for the medium to become free.
    WantTx,
    /// DIFS running.
    Difs,
    /// Backoff countdown running.
    Backoff,
    /// Transmitting RTS.
    TxRts,
    /// Waiting for CTS.
    WaitCts,
    /// SIFS before data (after CTS).
    SifsData,
    /// Transmitting data.
    TxData,
    /// Waiting for ACK.
    WaitAck,
}

/// A SIFS-spaced response owed to a peer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Response {
    Cts { to: usize, nav: SimDuration },
    Ack { to: usize },
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum RespState {
    Sifs(Response),
    Tx,
}

/// The per-node MAC entity.
pub struct Mac<P> {
    /// One instance per trial, shared by every node's MAC.
    cfg: Arc<MacConfig>,
    node: usize,
    rng: SmallRng,

    hi_queue: VecDeque<Outgoing<P>>,
    lo_queue: VecDeque<Outgoing<P>>,
    current: Option<CurrentTx<P>>,

    access: Access,
    response: Option<RespState>,

    cw: u32,
    slots_remaining: u32,
    backoff_started: SimTime,

    phys_busy: bool,
    transmitting: bool,
    nav_until: SimTime,

    next_seq: u64,
    /// Last data sequence number delivered per source (duplicate filter).
    /// Neighbor-count-bounded, lookup-only: a compact sorted-vec map
    /// beats a per-node hash table's fixed overhead at 100k+ nodes.
    rx_dedup: VecMap<usize, u64>,

    /// Statistics.
    pub counters: MacCounters,
}

impl<P: Clone> Mac<P> {
    /// Creates a MAC for `node` with its own deterministic RNG stream.
    /// Pass an `Arc` to share one configuration among a trial's MACs; a
    /// plain [`MacConfig`] is wrapped in a fresh one.
    pub fn new(node: usize, cfg: impl Into<Arc<MacConfig>>, seed: u64) -> Self {
        let cfg = cfg.into();
        Mac {
            cw: cfg.cw_min,
            cfg,
            node,
            rng: SmallRng::seed_from_u64(seed),
            hi_queue: VecDeque::new(),
            lo_queue: VecDeque::new(),
            current: None,
            access: Access::Idle,
            response: None,
            slots_remaining: 0,
            backoff_started: SimTime::ZERO,
            phys_busy: false,
            transmitting: false,
            nav_until: SimTime::ZERO,
            next_seq: 0,
            rx_dedup: VecMap::new(),
            counters: MacCounters::default(),
        }
    }

    /// This MAC's node id.
    pub fn node(&self) -> usize {
        self.node
    }

    /// Live heap bytes of this MAC's queues and receive-dedup table.
    pub fn mem_bytes(&self) -> usize {
        let out = std::mem::size_of::<Outgoing<P>>();
        (self.hi_queue.capacity() + self.lo_queue.capacity()) * out + self.rx_dedup.mem_bytes()
    }

    /// Whether this MAC currently believes the physical carrier is busy.
    /// Diagnostic: the harness's channel is the ground truth; the two
    /// views must agree whenever the node is up (the crash–rejoin
    /// regression tests hold the harness to exactly that).
    pub fn carrier_busy(&self) -> bool {
        self.phys_busy
    }

    /// Overwrites the carrier view without running the freeze/resume
    /// machinery. For harnesses that *elide* busy/idle notifications to
    /// transition-insensitive MACs (see [`Mac::transition_sensitive`])
    /// and lazily resynchronize from channel ground truth before the
    /// next input — behaviorally identical to having delivered every
    /// elided notification, since an insensitive MAC's only reaction to
    /// one is this assignment.
    pub fn set_carrier(&mut self, busy: bool) {
        self.phys_busy = busy;
    }

    /// Whether a carrier busy/idle transition can change this MAC's
    /// behavior *right now*: deferring or counting down (freeze/resume
    /// act), or holding a frame waiting for the medium (idle resumes
    /// access). In every other state a transition's entire effect is the
    /// `phys_busy` flag itself, which [`Mac::set_carrier`] can replay
    /// later.
    pub fn transition_sensitive(&self) -> bool {
        matches!(self.access, Access::WantTx | Access::Difs | Access::Backoff)
    }

    /// Queue length (both priorities).
    pub fn queue_len(&self) -> usize {
        self.hi_queue.len() + self.lo_queue.len() + usize::from(self.current.is_some())
    }

    /// Hands a payload to the MAC. `dst = None` broadcasts. `priority`
    /// selects the control queue (drained before data, as routing packets
    /// are prioritized in ns-2/GloMoSim interface queues).
    ///
    /// Like every MAC input, it appends its effects to a caller-supplied
    /// buffer: the harness's hot path reuses one scratch vector across
    /// every MAC call.
    pub fn enqueue_into(
        &mut self,
        payload: P,
        dst: Option<usize>,
        payload_bytes: u32,
        priority: bool,
        now: SimTime,
        fx: &mut Vec<MacEffect<P>>,
    ) {
        if self.queue_len() >= self.cfg.queue_capacity {
            self.counters.drop_ifq += 1;
            fx.push(MacEffect::Dropped {
                payload,
                reason: DropReason::IfqOverflow,
            });
            return;
        }
        let out = Outgoing {
            payload,
            dst,
            bytes_on_air: payload_bytes + DATA_OVERHEAD_BYTES,
        };
        if priority {
            self.hi_queue.push_back(out);
        } else {
            self.lo_queue.push_back(out);
        }
        if self.access == Access::Idle {
            self.stage_next(fx);
            self.reevaluate(now, fx);
        }
    }

    /// Physical carrier went busy at this node.
    pub fn on_channel_busy_into(&mut self, now: SimTime, fx: &mut Vec<MacEffect<P>>) {
        self.phys_busy = true;
        self.freeze(now, fx);
    }

    /// Physical carrier went idle at this node.
    pub fn on_channel_idle_into(&mut self, now: SimTime, fx: &mut Vec<MacEffect<P>>) {
        self.phys_busy = false;
        self.reevaluate(now, fx);
    }

    /// A frame was received intact.
    pub fn on_rx_frame_into(&mut self, frame: Frame<P>, now: SimTime, fx: &mut Vec<MacEffect<P>>) {
        if !frame.addressed_to(self.node) {
            // Virtual carrier sense: honour the frame's NAV.
            if frame.nav > SimDuration::ZERO {
                let until = now + frame.nav;
                if until > self.nav_until {
                    self.nav_until = until;
                }
                self.freeze(now, fx);
            }
            return;
        }
        match frame.kind {
            FrameKind::Data => {
                if frame.is_broadcast() {
                    self.counters.rx_delivered += 1;
                    fx.push(MacEffect::Deliver {
                        from: frame.src,
                        payload: frame.payload.expect("data frames carry payloads"),
                    });
                } else {
                    // Acknowledge, then deliver if not a duplicate.
                    let dup = self.rx_dedup.get(&frame.src) == Some(&frame.seq);
                    if self.response.is_none() && !self.transmitting {
                        self.response = Some(RespState::Sifs(Response::Ack { to: frame.src }));
                        fx.push(MacEffect::SetTimer(MacTimer::RespSifs, self.cfg.sifs));
                    }
                    if dup {
                        self.counters.rx_duplicates += 1;
                    } else {
                        self.rx_dedup.insert(frame.src, frame.seq);
                        self.counters.rx_delivered += 1;
                        fx.push(MacEffect::Deliver {
                            from: frame.src,
                            payload: frame.payload.expect("data frames carry payloads"),
                        });
                    }
                }
            }
            FrameKind::Rts => {
                // Respond with CTS when our NAV allows and we are free.
                if now >= self.nav_until && self.response.is_none() && !self.transmitting {
                    // CTS reserves: SIFS + data + SIFS + ACK. The RTS's nav
                    // already covers this; reuse it minus CTS airtime+SIFS.
                    let cts_air = self.cfg.phy.airtime(CTS_BYTES);
                    let nav = frame
                        .nav
                        .as_nanos()
                        .saturating_sub((self.cfg.sifs + cts_air).as_nanos());
                    self.response = Some(RespState::Sifs(Response::Cts {
                        to: frame.src,
                        nav: SimDuration::from_nanos(nav),
                    }));
                    fx.push(MacEffect::SetTimer(MacTimer::RespSifs, self.cfg.sifs));
                }
            }
            FrameKind::Cts => {
                if self.access == Access::WaitCts {
                    fx.push(MacEffect::CancelTimer(MacTimer::Cts));
                    if let Some(cur) = &mut self.current {
                        cur.cts_received = true;
                    }
                    self.access = Access::SifsData;
                    fx.push(MacEffect::SetTimer(MacTimer::TxSifs, self.cfg.sifs));
                }
            }
            FrameKind::Ack => {
                if self.access == Access::WaitAck {
                    fx.push(MacEffect::CancelTimer(MacTimer::Ack));
                    let cur = self.current.take().expect("WaitAck implies current");
                    fx.push(MacEffect::TxDone { dst: cur.out.dst });
                    self.cw = self.cfg.cw_min;
                    self.access = Access::Idle;
                    self.stage_next(fx);
                    self.reevaluate(now, fx);
                }
            }
        }
    }

    /// Our transmission finished (scheduled by the harness at tx start +
    /// airtime).
    pub fn on_tx_end_into(&mut self, now: SimTime, fx: &mut Vec<MacEffect<P>>) {
        self.transmitting = false;
        if matches!(self.response, Some(RespState::Tx)) {
            self.response = None;
            self.reevaluate(now, fx);
            return;
        }
        match self.access {
            Access::TxRts => {
                self.access = Access::WaitCts;
                let timeout = self.cfg.sifs
                    + self.cfg.phy.airtime(CTS_BYTES)
                    + self.cfg.slot.saturating_mul(2);
                fx.push(MacEffect::SetTimer(MacTimer::Cts, timeout));
            }
            Access::TxData => {
                let broadcast = self
                    .current
                    .as_ref()
                    .map(|c| c.out.dst.is_none())
                    .unwrap_or(true);
                if broadcast {
                    let cur = self.current.take().expect("TxData implies current");
                    fx.push(MacEffect::TxDone { dst: cur.out.dst });
                    self.cw = self.cfg.cw_min;
                    self.access = Access::Idle;
                    self.stage_next(fx);
                    self.reevaluate(now, fx);
                } else {
                    self.access = Access::WaitAck;
                    let timeout = self.cfg.sifs
                        + self.cfg.phy.airtime(ACK_BYTES)
                        + self.cfg.slot.saturating_mul(2);
                    fx.push(MacEffect::SetTimer(MacTimer::Ack, timeout));
                }
            }
            _ => {}
        }
    }

    /// A MAC timer fired.
    pub fn on_timer_into(&mut self, timer: MacTimer, now: SimTime, fx: &mut Vec<MacEffect<P>>) {
        match timer {
            MacTimer::Difs => {
                if self.access == Access::Difs {
                    if self.slots_remaining == 0 {
                        self.transmit_current(now, fx);
                    } else {
                        self.access = Access::Backoff;
                        self.backoff_started = now;
                        fx.push(MacEffect::SetTimer(
                            MacTimer::Backoff,
                            self.cfg.slot.saturating_mul(self.slots_remaining as u64),
                        ));
                    }
                }
            }
            MacTimer::Backoff => {
                if self.access == Access::Backoff {
                    self.slots_remaining = 0;
                    self.transmit_current(now, fx);
                }
            }
            MacTimer::Cts => {
                if self.access == Access::WaitCts {
                    self.retry(true, now, fx);
                }
            }
            MacTimer::Ack => {
                if self.access == Access::WaitAck {
                    let long = self.current.as_ref().map(|c| c.use_rts).unwrap_or(false);
                    self.retry(!long, now, fx);
                }
            }
            MacTimer::RespSifs => {
                if let Some(RespState::Sifs(resp)) = self.response {
                    self.response = Some(RespState::Tx);
                    let frame = match resp {
                        Response::Cts { to, nav } => {
                            self.counters.tx_cts += 1;
                            Frame {
                                kind: FrameKind::Cts,
                                src: self.node,
                                dst: Some(to),
                                bytes: CTS_BYTES,
                                nav,
                                payload: None,
                                seq: 0,
                            }
                        }
                        Response::Ack { to } => {
                            self.counters.tx_ack += 1;
                            Frame {
                                kind: FrameKind::Ack,
                                src: self.node,
                                dst: Some(to),
                                bytes: ACK_BYTES,
                                nav: SimDuration::ZERO,
                                payload: None,
                                seq: 0,
                            }
                        }
                    };
                    self.transmitting = true;
                    fx.push(MacEffect::StartTx(frame));
                }
            }
            MacTimer::TxSifs => {
                if self.access == Access::SifsData {
                    self.send_data(now, fx);
                }
            }
            MacTimer::NavEnd => {
                self.reevaluate(now, fx);
            }
        }
    }

    /// Whether the medium is free for access-machine purposes.
    fn medium_free(&self, now: SimTime) -> bool {
        !self.phys_busy && !self.transmitting && now >= self.nav_until
    }

    /// Stage the next queued frame into `current`, drawing its backoff.
    fn stage_next(&mut self, _fx: &mut Vec<MacEffect<P>>) {
        if self.current.is_some() {
            return;
        }
        let out = match self
            .hi_queue
            .pop_front()
            .or_else(|| self.lo_queue.pop_front())
        {
            Some(o) => o,
            None => {
                self.access = Access::Idle;
                return;
            }
        };
        let use_rts = out.dst.is_some() && out.bytes_on_air > self.cfg.rts_threshold;
        let seq = self.next_seq;
        self.next_seq += 1;
        self.current = Some(CurrentTx {
            out,
            seq,
            short_retries: 0,
            long_retries: 0,
            use_rts,
            cts_received: false,
        });
        self.slots_remaining = self.rng.gen_range(0..=self.cw);
        self.access = Access::WantTx;
    }

    /// Freeze DIFS/backoff on busy medium.
    fn freeze(&mut self, now: SimTime, fx: &mut Vec<MacEffect<P>>) {
        match self.access {
            Access::Difs => {
                fx.push(MacEffect::CancelTimer(MacTimer::Difs));
                self.access = Access::WantTx;
            }
            Access::Backoff => {
                fx.push(MacEffect::CancelTimer(MacTimer::Backoff));
                let elapsed = now.saturating_since(self.backoff_started).as_nanos();
                let consumed = (elapsed / self.cfg.slot.as_nanos().max(1)) as u32;
                self.slots_remaining = self.slots_remaining.saturating_sub(consumed);
                self.access = Access::WantTx;
            }
            _ => {}
        }
    }

    /// Resume the access machine if the medium permits.
    fn reevaluate(&mut self, now: SimTime, fx: &mut Vec<MacEffect<P>>) {
        if self.response.is_some() {
            return;
        }
        if self.access == Access::Idle && self.current.is_none() {
            self.stage_next(fx);
        }
        if self.access != Access::WantTx {
            return;
        }
        if self.medium_free(now) {
            self.access = Access::Difs;
            fx.push(MacEffect::SetTimer(MacTimer::Difs, self.cfg.difs));
        } else if !self.phys_busy && !self.transmitting && self.nav_until > now {
            // Only the NAV holds us: arm a wake-up.
            fx.push(MacEffect::SetTimer(MacTimer::NavEnd, self.nav_until - now));
        }
    }

    /// Transmit the staged frame (RTS first if configured).
    fn transmit_current(&mut self, now: SimTime, fx: &mut Vec<MacEffect<P>>) {
        let cur = match &self.current {
            Some(c) => c.clone(),
            None => {
                self.access = Access::Idle;
                return;
            }
        };
        if cur.use_rts && !cur.cts_received {
            // RTS reserves CTS + DATA + ACK + 3×SIFS.
            let nav = self.cfg.sifs
                + self.cfg.phy.airtime(CTS_BYTES)
                + self.cfg.sifs
                + self.cfg.phy.airtime(cur.out.bytes_on_air)
                + self.cfg.sifs
                + self.cfg.phy.airtime(ACK_BYTES);
            self.counters.tx_rts += 1;
            self.access = Access::TxRts;
            self.transmitting = true;
            fx.push(MacEffect::StartTx(Frame {
                kind: FrameKind::Rts,
                src: self.node,
                dst: cur.out.dst,
                bytes: RTS_BYTES,
                nav,
                payload: None,
                seq: cur.seq,
            }));
        } else {
            self.send_data(now, fx);
        }
    }

    /// Put the staged data frame on the air.
    fn send_data(&mut self, _now: SimTime, fx: &mut Vec<MacEffect<P>>) {
        let cur = match &self.current {
            Some(c) => c.clone(),
            None => {
                self.access = Access::Idle;
                return;
            }
        };
        let nav = if cur.out.dst.is_some() {
            // Reserve for SIFS + ACK.
            self.cfg.sifs + self.cfg.phy.airtime(ACK_BYTES)
        } else {
            SimDuration::ZERO
        };
        if cur.out.dst.is_some() {
            self.counters.tx_data += 1;
        } else {
            self.counters.tx_broadcast += 1;
        }
        self.access = Access::TxData;
        self.transmitting = true;
        fx.push(MacEffect::StartTx(Frame {
            kind: FrameKind::Data,
            src: self.node,
            dst: cur.out.dst,
            bytes: cur.out.bytes_on_air,
            nav,
            payload: Some(cur.out.payload),
            seq: cur.seq,
        }));
    }

    /// Handle a failed RTS (no CTS) or data (no ACK) attempt.
    fn retry(&mut self, short: bool, now: SimTime, fx: &mut Vec<MacEffect<P>>) {
        let exceeded = {
            let cur = self.current.as_mut().expect("retry implies current");
            if short {
                cur.short_retries += 1;
                cur.short_retries > self.cfg.short_retry_limit
            } else {
                cur.long_retries += 1;
                cur.long_retries > self.cfg.long_retry_limit
            }
        };
        // A fresh RTS/CTS exchange is needed for the retransmission.
        if let Some(cur) = self.current.as_mut() {
            cur.cts_received = false;
        }
        if exceeded {
            let cur = self.current.take().expect("checked above");
            let dead = cur.out.dst.expect("only unicast frames retry");
            self.counters.drop_retry += 1;
            fx.push(MacEffect::TxFailed {
                dst: dead,
                payload: cur.out.payload,
            });
            // Purge queued frames headed to the same dead neighbor
            // (ns-2/GloMoSim interface queues do this on link failure);
            // each goes back to the routing layer for salvage without
            // burning another retry cycle.
            for q in [&mut self.hi_queue, &mut self.lo_queue] {
                let mut keep = VecDeque::with_capacity(q.len());
                while let Some(out) = q.pop_front() {
                    if out.dst == Some(dead) {
                        self.counters.drop_retry += 1;
                        fx.push(MacEffect::TxFailed {
                            dst: dead,
                            payload: out.payload,
                        });
                    } else {
                        keep.push_back(out);
                    }
                }
                *q = keep;
            }
            self.cw = self.cfg.cw_min;
            self.access = Access::Idle;
            self.stage_next(fx);
            self.reevaluate(now, &mut *fx);
        } else {
            self.cw = ((self.cw + 1) * 2 - 1).min(self.cfg.cw_max);
            self.slots_remaining = self.rng.gen_range(0..=self.cw);
            self.access = Access::WantTx;
            self.reevaluate(now, fx);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    type M = Mac<u32>;

    fn mac() -> M {
        Mac::new(0, MacConfig::default(), 7)
    }

    fn t(us: u64) -> SimTime {
        SimTime::from_micros(us)
    }

    /// Runs one MAC input and returns the effects it appended.
    fn effects(input: impl FnOnce(&mut Vec<MacEffect<u32>>)) -> Vec<MacEffect<u32>> {
        let mut fx = Vec::new();
        input(&mut fx);
        fx
    }

    fn has_start_tx(fx: &[MacEffect<u32>], kind: FrameKind) -> bool {
        fx.iter()
            .any(|e| matches!(e, MacEffect::StartTx(f) if f.kind == kind))
    }

    fn timer_set(fx: &[MacEffect<u32>], k: MacTimer) -> Option<SimDuration> {
        fx.iter().find_map(|e| match e {
            MacEffect::SetTimer(kind, d) if *kind == k => Some(*d),
            _ => None,
        })
    }

    /// Drives a lone MAC through DIFS + backoff until it emits a data tx.
    fn drive_to_tx(
        m: &mut M,
        mut now: SimTime,
        mut fx: Vec<MacEffect<u32>>,
    ) -> (SimTime, Vec<MacEffect<u32>>) {
        for _ in 0..8 {
            if has_start_tx(&fx, FrameKind::Data) || has_start_tx(&fx, FrameKind::Rts) {
                return (now, fx);
            }
            if let Some(d) = timer_set(&fx, MacTimer::Difs) {
                now += d;
                fx = effects(|fx| m.on_timer_into(MacTimer::Difs, now, fx));
            } else if let Some(d) = timer_set(&fx, MacTimer::Backoff) {
                now += d;
                fx = effects(|fx| m.on_timer_into(MacTimer::Backoff, now, fx));
            } else {
                break;
            }
        }
        (now, fx)
    }

    #[test]
    fn broadcast_goes_out_after_difs_and_backoff() {
        let mut m = mac();
        let fx = effects(|fx| m.enqueue_into(1, None, 48, true, t(0), fx));
        assert!(timer_set(&fx, MacTimer::Difs).is_some(), "{fx:?}");
        let (now, fx) = drive_to_tx(&mut m, t(0), fx);
        assert!(has_start_tx(&fx, FrameKind::Data));
        // Broadcast: no ACK timer; TxDone on tx end.
        let fx = effects(|fx| m.on_tx_end_into(now + SimDuration::from_micros(500), fx));
        assert!(fx
            .iter()
            .any(|e| matches!(e, MacEffect::TxDone { dst: None })));
        assert_eq!(m.counters.tx_broadcast, 1);
    }

    #[test]
    fn small_unicast_skips_rts() {
        let mut m = mac();
        let fx = effects(|fx| m.enqueue_into(1, Some(2), 100, true, t(0), fx));
        let (_, fx) = drive_to_tx(&mut m, t(0), fx);
        assert!(has_start_tx(&fx, FrameKind::Data), "{fx:?}");
        assert!(!has_start_tx(&fx, FrameKind::Rts));
    }

    #[test]
    fn large_unicast_uses_rts_cts() {
        let mut m = mac();
        let fx = effects(|fx| m.enqueue_into(1, Some(2), 512, false, t(0), fx));
        let (now, fx) = drive_to_tx(&mut m, t(0), fx);
        assert!(has_start_tx(&fx, FrameKind::Rts), "{fx:?}");
        // RTS done → CTS timer armed.
        let fx = effects(|fx| m.on_tx_end_into(now, fx));
        assert!(timer_set(&fx, MacTimer::Cts).is_some());
        // CTS arrives → SIFS then data.
        let cts = Frame {
            kind: FrameKind::Cts,
            src: 2,
            dst: Some(0),
            bytes: CTS_BYTES,
            nav: SimDuration::from_micros(3000),
            payload: None,
            seq: 0,
        };
        let fx = effects(|fx| m.on_rx_frame_into(cts, now, fx));
        assert!(timer_set(&fx, MacTimer::TxSifs).is_some());
        let fx =
            effects(|fx| m.on_timer_into(MacTimer::TxSifs, now + SimDuration::from_micros(10), fx));
        assert!(has_start_tx(&fx, FrameKind::Data));
        // Data done → ACK timer; ACK arrives → TxDone.
        let fx = effects(|fx| m.on_tx_end_into(now + SimDuration::from_micros(3000), fx));
        assert!(timer_set(&fx, MacTimer::Ack).is_some());
        let ack = Frame {
            kind: FrameKind::Ack,
            src: 2,
            dst: Some(0),
            bytes: ACK_BYTES,
            nav: SimDuration::ZERO,
            payload: None,
            seq: 0,
        };
        let fx = effects(|fx| m.on_rx_frame_into(ack, now + SimDuration::from_micros(3300), fx));
        assert!(fx
            .iter()
            .any(|e| matches!(e, MacEffect::TxDone { dst: Some(2) })));
    }

    #[test]
    fn retry_limit_reports_link_failure() {
        let mut m = mac();
        let fx = effects(|fx| m.enqueue_into(42, Some(3), 100, true, t(0), fx));
        let (mut now, mut fx) = drive_to_tx(&mut m, t(0), fx);
        let mut failures = 0;
        for _ in 0..40 {
            assert!(has_start_tx(&fx, FrameKind::Data));
            now += SimDuration::from_micros(800);
            fx = effects(|fx| m.on_tx_end_into(now, fx));
            let Some(d) = timer_set(&fx, MacTimer::Ack) else {
                panic!("no ack timer")
            };
            now += d;
            fx = effects(|fx| m.on_timer_into(MacTimer::Ack, now, fx));
            if let Some(MacEffect::TxFailed { dst, payload }) =
                fx.iter().find(|e| matches!(e, MacEffect::TxFailed { .. }))
            {
                assert_eq!(*dst, 3);
                assert_eq!(*payload, 42);
                failures += 1;
                break;
            }
            let r = drive_to_tx(&mut m, now, fx);
            now = r.0;
            fx = r.1;
        }
        assert_eq!(failures, 1);
        assert_eq!(m.counters.drop_retry, 1);
        // 7 retries + original attempt = 8 data transmissions.
        assert_eq!(m.counters.tx_data, 8);
    }

    #[test]
    fn retry_failure_purges_queue_to_dead_neighbor() {
        let mut m = mac();
        let fx0 = effects(|fx| m.enqueue_into(1, Some(3), 100, true, t(0), fx));
        // Two more frames to the same neighbor and one to another.
        let _ = effects(|fx| m.enqueue_into(2, Some(3), 100, true, t(0), fx));
        let _ = effects(|fx| m.enqueue_into(3, Some(4), 100, true, t(0), fx));
        let _ = effects(|fx| m.enqueue_into(4, Some(3), 100, true, t(0), fx));
        let (mut now, mut fx) = drive_to_tx(&mut m, t(0), fx0);
        let mut failed_payloads = Vec::new();
        for _ in 0..40 {
            now += SimDuration::from_micros(800);
            if has_start_tx(&fx, FrameKind::Data) {
                fx = effects(|fx| m.on_tx_end_into(now, fx));
            }
            if let Some(d) = timer_set(&fx, MacTimer::Ack) {
                now += d;
                fx = effects(|fx| m.on_timer_into(MacTimer::Ack, now, fx));
            }
            for e in &fx {
                if let MacEffect::TxFailed { dst, payload } = e {
                    assert_eq!(*dst, 3);
                    failed_payloads.push(*payload);
                }
            }
            if !failed_payloads.is_empty() {
                break;
            }
            let r = drive_to_tx(&mut m, now, fx);
            now = r.0;
            fx = r.1;
        }
        // The failing frame AND both queued frames to node 3 fail together;
        // the frame to node 4 survives in the queue.
        assert_eq!(failed_payloads, vec![1, 2, 4]);
        assert_eq!(m.counters.drop_retry, 3);
        assert_eq!(m.queue_len(), 1);
    }

    #[test]
    fn ifq_overflow_drops() {
        let mut m = mac();
        let mut dropped = 0;
        for i in 0..60 {
            let fx = effects(|fx| m.enqueue_into(i, Some(1), 512, false, t(0), fx));
            dropped += fx
                .iter()
                .filter(|e| {
                    matches!(
                        e,
                        MacEffect::Dropped {
                            reason: DropReason::IfqOverflow,
                            ..
                        }
                    )
                })
                .count();
        }
        assert_eq!(dropped, 10, "50-frame queue: 60 offered, 10 dropped");
        assert_eq!(m.counters.drop_ifq, 10);
    }

    #[test]
    fn backoff_freezes_and_resumes() {
        let mut m = mac();
        let fx = effects(|fx| m.enqueue_into(1, None, 48, true, t(0), fx));
        let d = timer_set(&fx, MacTimer::Difs).unwrap();
        let fx = effects(|fx| m.on_timer_into(MacTimer::Difs, t(0) + d, fx));
        // If backoff drew zero slots the frame is already out; re-seed until
        // we get a backoff (seed 7 draws > 0 for the first frame; assert so).
        let Some(bd) = timer_set(&fx, MacTimer::Backoff) else {
            panic!("expected non-zero backoff with this seed");
        };
        let slots = bd.as_nanos() / MacConfig::default().slot.as_nanos();
        assert!(slots >= 1);
        // Busy arrives mid-backoff: freeze after 2 slots.
        let freeze_at = t(0) + d + MacConfig::default().slot.saturating_mul(2);
        let fx = effects(|fx| m.on_channel_busy_into(freeze_at, fx));
        assert!(fx
            .iter()
            .any(|e| matches!(e, MacEffect::CancelTimer(MacTimer::Backoff))));
        // Idle again: DIFS restarts, then the *remaining* slots count down.
        let fx =
            effects(|fx| m.on_channel_idle_into(freeze_at + SimDuration::from_micros(300), fx));
        let d2 = timer_set(&fx, MacTimer::Difs).unwrap();
        let fx = effects(|fx| {
            m.on_timer_into(
                MacTimer::Difs,
                freeze_at + SimDuration::from_micros(300) + d2,
                fx,
            )
        });
        if let Some(bd2) = timer_set(&fx, MacTimer::Backoff) {
            let slots2 = bd2.as_nanos() / MacConfig::default().slot.as_nanos();
            assert!(
                slots2 <= slots.saturating_sub(2),
                "slots must shrink: {slots} → {slots2}"
            );
        } else {
            // All slots consumed → direct transmission is also valid.
            assert!(has_start_tx(&fx, FrameKind::Data));
        }
    }

    #[test]
    fn nav_defers_access() {
        let mut m = mac();
        // Overhear a frame reserving the medium for 5 ms.
        let overheard = Frame {
            kind: FrameKind::Rts,
            src: 5,
            dst: Some(6),
            bytes: RTS_BYTES,
            nav: SimDuration::from_millis(5),
            payload: None,
            seq: 0,
        };
        let _ = effects(|fx| m.on_rx_frame_into(overheard, t(100), fx));
        let fx = effects(|fx| m.enqueue_into(1, None, 48, true, t(101), fx));
        // Medium virtually busy: no DIFS; NAV wake-up armed instead.
        assert!(timer_set(&fx, MacTimer::Difs).is_none(), "{fx:?}");
        assert!(timer_set(&fx, MacTimer::NavEnd).is_some());
        // After NAV expiry the access resumes.
        let fx = effects(|fx| {
            m.on_timer_into(MacTimer::NavEnd, t(100) + SimDuration::from_millis(5), fx)
        });
        assert!(timer_set(&fx, MacTimer::Difs).is_some());
    }

    #[test]
    fn unicast_data_is_acked_and_delivered_once() {
        let mut m = mac();
        let data = Frame {
            kind: FrameKind::Data,
            src: 4,
            dst: Some(0),
            bytes: 546,
            nav: SimDuration::ZERO,
            payload: Some(99),
            seq: 11,
        };
        let fx = effects(|fx| m.on_rx_frame_into(data.clone(), t(10), fx));
        assert!(fx.iter().any(|e| matches!(
            e,
            MacEffect::Deliver {
                from: 4,
                payload: 99
            }
        )));
        assert!(timer_set(&fx, MacTimer::RespSifs).is_some());
        let fx = effects(|fx| m.on_timer_into(MacTimer::RespSifs, t(20), fx));
        assert!(has_start_tx(&fx, FrameKind::Ack));
        let _ = effects(|fx| m.on_tx_end_into(t(300), fx));
        // The retransmission (same seq) is acked but not re-delivered.
        let fx = effects(|fx| m.on_rx_frame_into(data, t(1000), fx));
        assert!(!fx.iter().any(|e| matches!(e, MacEffect::Deliver { .. })));
        assert_eq!(m.counters.rx_duplicates, 1);
        assert_eq!(m.counters.rx_delivered, 1);
    }

    #[test]
    fn rts_triggers_cts_response() {
        let mut m = mac();
        let rts = Frame {
            kind: FrameKind::Rts,
            src: 2,
            dst: Some(0),
            bytes: RTS_BYTES,
            nav: SimDuration::from_millis(3),
            payload: None,
            seq: 0,
        };
        let fx = effects(|fx| m.on_rx_frame_into(rts, t(50), fx));
        assert!(timer_set(&fx, MacTimer::RespSifs).is_some());
        let fx = effects(|fx| m.on_timer_into(MacTimer::RespSifs, t(60), fx));
        assert!(has_start_tx(&fx, FrameKind::Cts));
        assert_eq!(m.counters.tx_cts, 1);
    }

    #[test]
    fn control_priority_preempts_data_queue() {
        let mut m = mac();
        // Fill with a low-priority frame first, then a control frame.
        let _ = effects(|fx| m.enqueue_into(1, Some(9), 512, false, t(0), fx));
        let _ = effects(|fx| m.enqueue_into(2, Some(9), 48, true, t(0), fx));
        // First staged frame is the data frame (already current)...
        // Complete it via retry-failure to see what comes next.
        let (mut now, mut fx) = drive_to_tx(&mut m, t(0), vec![]);
        // It must be the 512 B one (payload 1) — already staged before the
        // control packet arrived. Fail it quickly.
        for _ in 0..20 {
            if m.current.is_none() {
                break;
            }
            if has_start_tx(&fx, FrameKind::Rts) || has_start_tx(&fx, FrameKind::Data) {
                now += SimDuration::from_micros(800);
                fx = effects(|fx| m.on_tx_end_into(now, fx));
            }
            if let Some(d) = timer_set(&fx, MacTimer::Cts) {
                now += d;
                fx = effects(|fx| m.on_timer_into(MacTimer::Cts, now, fx));
            } else if let Some(d) = timer_set(&fx, MacTimer::Ack) {
                now += d;
                fx = effects(|fx| m.on_timer_into(MacTimer::Ack, now, fx));
            } else {
                let r = drive_to_tx(&mut m, now, fx);
                now = r.0;
                fx = r.1;
            }
        }
        // After the first frame fails, the control frame (payload 2) is
        // staged next: it was queued in the priority queue.
        assert!(m.current.is_some() || m.queue_len() > 0);
    }
}
