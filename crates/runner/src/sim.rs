//! The simulation harness: wires the mobility script, traffic script,
//! shared channel, per-node MACs and per-node routing protocols into one
//! deterministic discrete-event loop.
//!
//! Everything below the harness is a passive state machine; this module
//! owns the only event loop and interprets every effect, so cross-layer
//! interactions (carrier-sense callbacks, link-failure notifications,
//! timer bookkeeping) live in exactly one place.

use std::collections::VecDeque;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use rand::rngs::SmallRng;
use rand::SeedableRng;

use slr_mobility::{MobilityScript, Position};
use slr_netsim::admittance::{Admittance, DynAction};
use slr_netsim::pool::{with_core_pool, WindowExec};
use slr_netsim::rng::{derive_seed, stream};
use slr_netsim::time::{SimDuration, SimTime};
use slr_netsim::{EventToken, Simulator};
use slr_protocols::{
    Adversary, Audit, ControlPacket, DataDropReason, DataPacket, ProtoCtx, ProtoEffect,
    RoutingProtocol, DATA_TTL,
};
use slr_radio::{
    BeginTx, BruteForceMedium, Channel, Frame, FrameKind, Mac, MacEffect, MacTimer, NeighborQuery,
    PrecomputedQuery, Receiver, TxId, ValidatingQuery,
};
use slr_traffic::TrafficScript;

use crate::medium::{MediumView, PositionTracker, CELL_PAD_M};
use crate::metrics::{MemReport, Metrics, TrialSummary};
use crate::par::{self, Op, Shard, SharedCtx, SpecCtx, Task, TaskKind, WorkerScratch};
use crate::scenario::{MobilitySpec, Scenario, TopologySpec};
use crate::trace::{TraceEvent, TraceLog};

/// Upper-layer payloads carried in MAC data frames.
///
/// Reference-counted: a frame's payload is cloned once per perceiving
/// receiver and again per MAC retry attempt, and control packets are
/// ~100-byte enums — at dense scale the deep copies were measurable.
/// The receiving protocol takes ownership at delivery (`try_unwrap`
/// avoids the copy whenever the reference is unique by then).
///
/// *Atomically* reference-counted since the parallel engine: the workers
/// of one dispatch window clone a transmission's payload concurrently
/// (one clone per completing receiver) straight out of the channel's
/// shared in-flight table.
#[derive(Debug, Clone, PartialEq)]
pub enum Payload {
    /// A routing control packet.
    Control(Arc<ControlPacket>),
    /// A data-plane packet.
    Data(Arc<DataPacket>),
}

/// Harness events. Protocol-timer and transmission-end events carry the
/// node's *crash epoch* at scheduling time: a crash increments the epoch,
/// so events addressed to the node's pre-crash incarnation are recognized
/// as stale and only their channel bookkeeping runs. The receivers of a
/// transmission are checked against no epoch — crashed receivers are
/// quarantined channel-side ([`Channel::crash_receiver`]), and busy/idle
/// transitions track the physical medium, reaching whichever MAC
/// incarnation is up at fire time.
#[derive(Debug, Clone, Copy)]
enum Event {
    /// A scripted application packet enters the network at its source.
    App(usize),
    /// A MAC timer fired.
    MacTimer(usize, MacTimer),
    /// A routing-protocol timer fired (node, epoch, token).
    ProtoTimer(usize, u64, u64),
    /// A whole transmission ended (node, epoch, tx): every receiver
    /// signal completes in ascending node order from the channel's
    /// retained receiver set, then the transmitter side — one heap event
    /// per transmission.
    TxComplete(usize, u64, TxId),
    /// The indexed entry of the dynamics script fires.
    Dynamics(usize),
}

/// Pending work produced by state machines.
enum Work {
    Mac(usize, MacEffect<Payload>),
    Proto(usize, ProtoEffect),
}

/// Whether an event may join a conservative dispatch window: its handling
/// must be provably node-local. MAC timers are the only events that can
/// start a transmission (global: medium query, channel mutation, busy
/// fan-out to other nodes); dynamics rewire admittance, epochs and whole
/// node stacks.
fn window_safe(ev: &Event) -> bool {
    matches!(
        ev,
        Event::App(_) | Event::ProtoTimer(..) | Event::TxComplete(..)
    )
}

/// Builds the protocol stack for one node, applying the scenario's
/// adversarial wrapping: masked nodes run the misbehaviour script
/// ([`Adversary`]), honest nodes carry the validation layer ([`Audit`]).
/// With no adversaries in the trial (`mask` empty) the bare protocol is
/// returned, so non-adversarial trials are bit-unchanged. Used both at
/// assembly and on crash–rejoin rebuilds, so a restarted node keeps its
/// role.
fn build_protocol(scenario: &Scenario, mask: &[bool], node: usize) -> Box<dyn RoutingProtocol> {
    let inner = scenario.protocol.build(node);
    if mask.is_empty() {
        return inner;
    }
    match scenario.adversary.kind() {
        Some(kind) if mask[node] => Box::new(Adversary::new(inner, kind, node, mask.len())),
        Some(_) => Box::new(Audit::new(inner)),
        None => inner,
    }
}

/// How transmission-end processing is dispatched. Both engines schedule
/// one `TxComplete` heap event per transmission and execute the identical
/// receiver-completion logic in the identical effective order; they
/// differ only in which thread runs it, and must therefore produce
/// bit-identical trials (the golden corpus and the engine property tests
/// in the workspace root hold them to exactly that).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum EngineKind {
    /// Receivers complete in ascending node order from the channel's
    /// retained receiver set, then the transmitter, all on the
    /// dispatching thread (the serial production path).
    #[default]
    Batched,
    /// The batched scheduling, dispatched through conservative
    /// same-timestamp windows whose node-local tasks (receiver
    /// completions, protocol reactions, application arrivals, protocol
    /// timers) execute concurrently on a persistent worker pool (see
    /// [`Sim::set_workers`]); global side effects merge in canonical
    /// order, so output is bit-identical to [`EngineKind::Batched`] at
    /// any worker count. MAC timers (the only events that can start a
    /// transmission — DIFS/SIFS > 0 is the conservative-lookahead bound)
    /// and dynamics events still dispatch serially between windows.
    Parallel,
}

impl EngineKind {
    /// The engine's CLI spelling (`--engine` value), used by the JSON
    /// config echo.
    pub fn name(self) -> &'static str {
        match self {
            EngineKind::Batched => "batched",
            EngineKind::Parallel => "parallel",
        }
    }
}

/// One running trial.
pub struct Sim {
    scenario: Scenario,
    master: u64,
    sim: Simulator<Event>,
    channel: Channel<Payload>,
    macs: Vec<Mac<Payload>>,
    protos: Vec<Box<dyn RoutingProtocol>>,
    proto_rngs: Vec<SmallRng>,
    mobility: MobilityScript,
    traffic: TrafficScript,
    /// Incrementally-maintained spatial index over node positions.
    tracker: PositionTracker,
    /// Scratch snapshot for spatial validation and geographic partition
    /// recomputes (reused, never reallocated).
    snapshot: Vec<Position>,
    /// When the snapshot was last filled (static scripts fill it once).
    snapshot_at: Option<SimTime>,
    /// Whether no node ever moves (snapshot never goes stale).
    static_script: bool,
    /// How transmission-end events are dispatched.
    engine: EngineKind,
    /// Cross-check every neighbor query against the brute-force oracle.
    validate_spatial: bool,
    /// Whether `startup` has run (guards partial stepping via
    /// [`Sim::advance_until`] followed by a full run).
    started: bool,
    /// Per-node armed MAC timers, a flat `[Option<EventToken>]` per node
    /// indexed by [`MacTimer::index`] — timer arm/cancel is the hottest
    /// bookkeeping in a trial and a hash map here was measurable.
    mac_timers: Vec<[Option<EventToken>; MacTimer::COUNT]>,
    /// Recycled work queues (no allocation per dispatched event).
    work_pool: Vec<VecDeque<Work>>,
    /// Reusable MAC-effect buffer handed to `Mac::*_into` calls (one
    /// scratch vector instead of an allocation per MAC invocation).
    mac_fx: Vec<MacEffect<Payload>>,
    /// Per-node cache of [`Mac::transition_sensitive`]: whether a carrier
    /// busy/idle transition can change the MAC's behavior right now.
    /// Maintained after every MAC call; lets the harness elide the
    /// notification fan-out to quiescent MACs (the single most frequent
    /// MAC call at dense scale — tens of millions of no-ops per trial).
    mac_sensitive: Vec<bool>,
    /// Nodes whose MAC carrier view went stale through an elided
    /// notification; resynchronized from channel ground truth at the
    /// node's next MAC input (`mac_call`), before anything can read it.
    carrier_stale: Vec<bool>,
    /// The administrative link/node filter the channel consults.
    admittance: Admittance,
    /// Compiled dynamics schedule, time-sorted.
    dynamics: Vec<(SimTime, DynAction)>,
    /// Whether any dynamics are scheduled (guards admittance checks and
    /// the receiver gate on the hot path).
    has_dynamics: bool,
    /// Which nodes run adversarial scripts this trial (empty when the
    /// trial fields no adversaries; when non-empty, every honest node
    /// carries the audit/validation layer instead).
    adversary_mask: Vec<bool>,
    /// Per-node crash epoch (bumped on every crash).
    epochs: Vec<u64>,
    /// Earliest unanswered disruption (route-repair latency clock).
    pending_repair: Option<SimTime>,
    trace: Option<TraceLog>,
    /// Worker count for [`EngineKind::Parallel`] (1 = inline windowed
    /// execution, no threads). Ignored by the batched engine.
    workers: usize,
    /// Reusable window buffers for the parallel engine.
    win: WindowBufs,
    /// Persistent per-worker scratch (op buffers, MAC-effect buffers,
    /// work queues) for the parallel engine.
    par_scratch: Vec<WorkerScratch>,
    /// Whether heap insertions are being deferred into [`Sim::pend`]
    /// (true exactly while a window merge runs).
    merging: bool,
    /// Deferred heap insertions of the in-progress merge, in canonical
    /// emission order; survivors bulk-insert at merge end. A later
    /// set/cancel for the same MAC timer marks the earlier entry dead —
    /// dead entries never consume sequence numbers, which cannot change
    /// pop order (sequence only tie-breaks *coexisting* same-time
    /// entries).
    pend: Vec<Pend>,
    /// Reusable bulk-insert staging for [`Sim::flush_pend`].
    pend_items: Vec<(SimTime, Event)>,
    pend_tokens: Vec<EventToken>,
    pend_macs: Vec<Option<(u32, MacTimer)>>,
    /// The staged speculative neighbor set for the MAC timer currently
    /// being merge-dispatched: `(node, tracker generation at capture)`.
    /// Consumed by [`Sim::begin_tx_on_medium`] iff the node transmits and
    /// the tracker generation still matches.
    spec_node: Option<(u32, u64)>,
    /// The staged speculative `(node, distance)` pairs for `spec_node`.
    spec_buf: Vec<(usize, f64)>,
    /// Window-occupancy statistics for the parallel engine (cheap
    /// counters, always maintained; wall-clock shares only when
    /// [`Sim::enable_window_stats`] turned timing on).
    wstats: WindowStats,
    /// Whether to pay for the serial/parallel wall-clock attribution.
    wstats_timing: bool,
    /// Per-phase wall-clock accumulators (batched engine only; enabled by
    /// [`Sim::enable_phase_timing`]).
    phase: Option<Box<PhaseTimes>>,
    /// Metrics for the trial.
    pub metrics: Metrics,
}

/// Reusable buffers of the windowed dispatcher — the inline (width = 1)
/// path allocates nothing in steady state; the pooled path still builds
/// its short-lived shard/slot vectors per window, since those hold
/// borrows that cannot outlive the window.
#[derive(Default)]
struct WindowBufs {
    /// The events popped into the current window, in heap-pop order.
    events: Vec<Event>,
    /// The window's node-local tasks, in canonical order.
    tasks: Vec<Task>,
    /// Transmissions completing in this window: `(tx, receivers)` for the
    /// post-merge channel epilogue (receiver-vector recycling + in-flight
    /// retirement, exactly where the serial walk would have done it).
    txs: Vec<(TxId, Vec<Receiver>)>,
    /// The window's shard bounds (recomputed in place).
    bounds: Vec<usize>,
    /// Outer vector collecting each worker's op buffer for the merge (the
    /// inner vectors live in [`WorkerScratch`] between windows).
    op_lists: Vec<Vec<(u32, Op)>>,
    /// Accepted hopped MAC timers with their window-time positions; a
    /// later safe event may join only while its owners are outside every
    /// timer's padded carrier-sense disc. Doubles as the hop count for
    /// the window stats.
    macs: Vec<(u32, f64, f64)>,
    /// Completed speculations, collected from the worker scratches after
    /// the parallel phase: `(node, worker, start, len)` into that
    /// worker's `spec_pairs`.
    spec_done: Vec<(u32, u32, u32, u32)>,
    /// Tracker generation the window's speculation context was frozen at.
    spec_gen: u64,
}

/// One deferred heap insertion (see [`Sim::pend`]).
struct Pend {
    time: SimTime,
    event: Event,
    dead: bool,
    /// `Some((node, kind))` iff this is a MAC-timer arm whose token must
    /// land in the node's timer slot after the bulk insert.
    mac: Option<(u32, MacTimer)>,
}

/// Window-occupancy statistics of one parallel-engine trial — the
/// observable behind the widened-window performance claims (the
/// benchmark's `runner.par.*` metrics). Counters are worker-count
/// independent diagnostics; the wall-clock fields need
/// [`Sim::enable_window_stats`].
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct WindowStats {
    /// Events dispatched serially between windows (MAC timers that could
    /// not hop, dynamics).
    pub serial_events: u64,
    /// Conservative windows executed.
    pub windows: u64,
    /// Windows that contain at least one hopped MAC timer.
    pub widened_windows: u64,
    /// Events dispatched through windows.
    pub windowed_events: u64,
    /// Events in windows of two or more events.
    pub multi_events: u64,
    /// Largest window, in events.
    pub max_width: u64,
    /// MAC timers that hopped into windows.
    pub mac_hops: u64,
    /// Speculative medium queries consumed at merge time.
    pub spec_hits: u64,
    /// Speculations discarded (tracker generation moved, or the staged
    /// node did not transmit with a matching query).
    pub spec_misses: u64,
    /// Wall clock of the serial sections (inter-window dispatch, window
    /// build, merge and epilogue). Zero unless timing is enabled.
    pub serial_ns: u64,
    /// Wall clock of the windows' task-execution phase. Zero unless
    /// timing is enabled.
    pub parallel_ns: u64,
}

impl WindowStats {
    /// Mean events per window.
    pub fn mean_width(&self) -> f64 {
        if self.windows == 0 {
            return 0.0;
        }
        self.windowed_events as f64 / self.windows as f64
    }

    /// Share of all dispatched events that rode in a multi-event window.
    pub fn multi_share(&self) -> f64 {
        let total = self.windowed_events + self.serial_events;
        if total == 0 {
            return 0.0;
        }
        self.multi_events as f64 / total as f64
    }

    /// Share of the measured dispatch wall clock spent in serial
    /// sections (needs timing; 1.0 when nothing parallel ran).
    pub fn serial_share(&self) -> f64 {
        let total = self.serial_ns + self.parallel_ns;
        if total == 0 {
            return 1.0;
        }
        self.serial_ns as f64 / total as f64
    }
}

/// Where a serial trial's wall clock goes, by harness phase (see
/// [`Sim::enable_phase_timing`]): the attribution behind the
/// benchmark's `runner.sim.phase_*_s` metrics, which is what makes the
/// parallel engine's `runner.par.speedup_vs_batched` explainable — only
/// the signal / MAC / protocol phases parallelize; the medium query runs
/// inside MAC timer dispatch, which stays serial.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PhaseTimes {
    /// Neighbor queries + transmission starts (`begin_tx` through the
    /// configured medium).
    pub medium: Duration,
    /// Per-receiver signal completion (channel bookkeeping).
    pub signal: Duration,
    /// MAC state-machine invocations.
    pub mac: Duration,
    /// Routing-protocol invocations.
    pub proto: Duration,
}

/// What one [`Sim::pump`] call accomplished.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Pumped {
    /// Nothing left before the horizon.
    Idle,
    /// One serial event dispatched (`dynamics` reports whether it was a
    /// dynamics action — the loop-freedom oracle checks right after those).
    Event { dynamics: bool },
    /// One conservative window of node-local tasks executed.
    Window,
}

/// A window is executed on the pool only when it has at least this many
/// tasks per participating worker; smaller windows run inline on the
/// dispatching thread (same code, same canonical order — the threshold is
/// pure scheduling and cannot affect output).
const PAR_MIN_TASKS_PER_WORKER: usize = 3;

/// Phase selector for the wall-clock attribution probes.
#[derive(Clone, Copy)]
enum PhaseSel {
    Medium,
    Signal,
    Mac,
    Proto,
}

impl Sim {
    /// Builds a trial from its scenario: lays out the topology, generates
    /// the mobility and traffic scripts (protocol-independent streams) and
    /// instantiates every node.
    pub fn new(scenario: Scenario) -> Self {
        let master = scenario.master_seed();
        let n = scenario.nodes;

        let mobility = match (scenario.mobility, scenario.topology) {
            // The paper's original path: waypoint trajectories draw their
            // own uniform starting positions (stream-compatible with the
            // pre-registry harness).
            (MobilitySpec::RandomWaypoint { .. }, TopologySpec::UniformRandom) => {
                MobilityScript::generate(
                    n,
                    &scenario.waypoint_config().expect("waypoint mobility"),
                    &mut stream(master, "mobility", 0),
                )
            }
            // Structured layout + mobility: start from the layout, then
            // wander over a terrain that encloses it.
            (MobilitySpec::RandomWaypoint { .. }, topology) => {
                let starts =
                    topology.positions(n, &scenario.terrain, &mut stream(master, "topology", 0));
                let mut cfg = scenario.waypoint_config().expect("waypoint mobility");
                cfg.terrain = topology.enclosing_terrain(n, scenario.terrain);
                MobilityScript::generate_from(&starts, &cfg, &mut stream(master, "mobility", 0))
            }
            (MobilitySpec::Static, topology) => {
                let positions =
                    topology.positions(n, &scenario.terrain, &mut stream(master, "topology", 0));
                MobilityScript::stationary(&positions)
            }
        };
        let traffic = match scenario.traffic.locality_m {
            None => TrafficScript::generate(
                n,
                &scenario.traffic_config(),
                &mut stream(master, "traffic", 0),
            ),
            // Locality-bounded sinks need the layout; existing families
            // keep locality off and stay stream-identical to the uniform
            // generator above.
            Some(max_dist_m) => TrafficScript::generate_local(
                &scenario.traffic_config(),
                &mut stream(master, "traffic", 0),
                &mobility.positions_at(SimTime::ZERO),
                max_dist_m,
            ),
        };
        Sim::assemble(scenario, mobility, traffic, None)
    }

    /// Convenience constructor with a static topology and explicit traffic
    /// (used by tests and examples).
    pub fn with_static_topology(
        scenario: Scenario,
        positions: Vec<Position>,
        traffic: TrafficScript,
    ) -> Self {
        Sim::assemble(
            scenario,
            MobilityScript::stationary(&positions),
            traffic,
            None,
        )
    }

    /// Like [`Sim::with_static_topology`], but with caller-supplied
    /// protocol instances (one per position) instead of
    /// `scenario.protocol`. Tests use this to wire adversarial or
    /// instrumented protocols into the real harness, e.g. to exercise
    /// loss-accounting paths that well-behaved protocols rarely hit.
    ///
    /// # Panics
    ///
    /// Panics if `protos.len() != positions.len()`.
    pub fn with_protocols(
        scenario: Scenario,
        positions: Vec<Position>,
        traffic: TrafficScript,
        protos: Vec<Box<dyn RoutingProtocol>>,
    ) -> Self {
        assert_eq!(
            protos.len(),
            positions.len(),
            "one protocol instance per node"
        );
        Sim::assemble(
            scenario,
            MobilityScript::stationary(&positions),
            traffic,
            Some(protos),
        )
    }

    /// Shared tail of every constructor: instantiates the channel, MACs,
    /// protocols and RNG streams, and compiles the dynamics schedule from
    /// the protocol-independent `"dynamics"` stream (all protocols face
    /// identical link flaps per trial, mirroring how mobility and traffic
    /// scripts are fixed across protocols).
    fn assemble(
        scenario: Scenario,
        mobility: MobilityScript,
        traffic: TrafficScript,
        protos: Option<Vec<Box<dyn RoutingProtocol>>>,
    ) -> Self {
        let master = scenario.master_seed();
        let positions = mobility.positions_at(SimTime::ZERO);
        let n = positions.len();
        let tracker = PositionTracker::new(&mobility, scenario.mac.phy.cs_range_m);
        let static_script = mobility.is_static();
        let channel = Channel::new(n, scenario.mac.phy);
        let macs = (0..n)
            .map(|i| Mac::new(i, scenario.mac, derive_seed(master, &[0x6d61, i as u64])))
            .collect();
        // The adversarial cast draws from its own protocol-independent
        // stream (like dynamics and traffic): every protocol faces the
        // identical misbehaving nodes per (seed, trial).
        let victims = scenario
            .adversary
            .select_victims(n, &mut stream(master, "adversary", 0));
        let mut adversary_mask = vec![false; if victims.is_empty() { 0 } else { n }];
        for &v in &victims {
            adversary_mask[v] = true;
        }
        let protos: Vec<Box<dyn RoutingProtocol>> = protos.unwrap_or_else(|| {
            (0..n)
                .map(|i| build_protocol(&scenario, &adversary_mask, i))
                .collect()
        });
        let proto_rngs = (0..n)
            .map(|i| SmallRng::seed_from_u64(derive_seed(master, &[0x7072, i as u64])))
            .collect();
        let mut dynamics = scenario.dynamics.compile(
            &positions,
            scenario.mac.phy.rx_range_m,
            scenario.traffic_start,
            scenario.end,
            &mut stream(master, "dynamics", 0),
        );
        // Chaos adversaries flap their own links on purpose: their
        // crash–rejoin pairs join the compiled dynamics schedule. The
        // stable sort keeps same-time entries in generation order.
        let flaps = scenario.adversary.compile_flaps(
            &victims,
            scenario.traffic_start,
            scenario.end,
            &mut stream(master, "adversary", 1),
        );
        if !flaps.is_empty() {
            dynamics.extend(flaps);
            dynamics.sort_by_key(|(t, _)| *t);
        }
        Sim {
            scenario,
            master,
            sim: Simulator::new(),
            channel,
            macs,
            protos,
            proto_rngs,
            mobility,
            traffic,
            tracker,
            snapshot: positions,
            snapshot_at: Some(SimTime::ZERO),
            static_script,
            engine: EngineKind::default(),
            validate_spatial: false,
            started: false,
            mac_timers: vec![[None; MacTimer::COUNT]; n],
            work_pool: Vec::new(),
            mac_fx: Vec::new(),
            mac_sensitive: vec![false; n],
            carrier_stale: vec![false; n],
            admittance: Admittance::new(n),
            has_dynamics: !dynamics.is_empty(),
            dynamics,
            adversary_mask,
            epochs: vec![0; n],
            pending_repair: None,
            trace: None,
            workers: 1,
            win: WindowBufs::default(),
            par_scratch: Vec::new(),
            merging: false,
            pend: Vec::new(),
            pend_items: Vec::new(),
            pend_tokens: Vec::new(),
            pend_macs: Vec::new(),
            spec_node: None,
            spec_buf: Vec::new(),
            wstats: WindowStats::default(),
            wstats_timing: false,
            phase: None,
            metrics: Metrics::new(),
        }
    }

    /// Enables per-packet tracing for up to `capacity` packets (see
    /// [`crate::trace::TraceLog`]).
    pub fn enable_trace(&mut self, capacity: usize) {
        self.trace = Some(TraceLog::new(capacity));
    }

    /// Selects how transmission-end events are dispatched (batched by
    /// default).
    pub fn set_engine(&mut self, engine: EngineKind) {
        self.engine = engine;
    }

    /// Builder form of [`Sim::set_engine`].
    pub fn with_engine(mut self, engine: EngineKind) -> Self {
        self.set_engine(engine);
        self
    }

    /// Sets the worker count for [`EngineKind::Parallel`]: window tasks
    /// execute `workers`-way concurrent (the dispatching thread plus
    /// `workers - 1` pooled threads). `1` keeps the windowed dispatch but
    /// runs every task inline. Output is bit-identical across worker
    /// counts by construction; this only trades wall clock. No effect on
    /// the batched engine.
    ///
    /// # Panics
    ///
    /// Panics if `workers` is zero.
    pub fn set_workers(&mut self, workers: usize) {
        assert!(workers >= 1, "at least one worker (the dispatch thread)");
        self.workers = workers;
    }

    /// Builder form of [`Sim::set_workers`].
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.set_workers(workers);
        self
    }

    /// Turns on wall-clock attribution of the parallel engine's serial
    /// vs. parallel sections in [`Sim::window_stats`]. Off by default —
    /// the counters are always maintained, only the `Instant` probes are
    /// gated (they are per-event, so never free).
    pub fn enable_window_stats(&mut self) {
        self.wstats_timing = true;
    }

    /// Window-occupancy statistics accumulated so far (parallel engine;
    /// all-zero under the batched engine).
    pub fn window_stats(&self) -> WindowStats {
        self.wstats
    }

    /// Runs the trial with serial/parallel wall-clock attribution enabled
    /// and returns the summary plus the window-occupancy statistics —
    /// the probe behind the benchmark's `runner.par.*` metrics.
    pub fn run_with_window_stats(mut self) -> (TrialSummary, WindowStats) {
        self.enable_window_stats();
        self.run_loop();
        let stats = self.wstats;
        let nodes = self.scenario.nodes;
        let metrics = self.finalize_metrics();
        (metrics.summarize(nodes), stats)
    }

    /// Accumulates per-phase wall-clock attribution (medium / signal /
    /// MAC / protocol) during the trial, reported by [`Sim::run_phased`].
    /// Batched engine only — the parallel engine's workers overlap phases
    /// by design, so per-phase wall clock is not well-defined there.
    pub fn enable_phase_timing(&mut self) {
        self.phase = Some(Box::default());
    }

    /// Cross-checks the answer to every neighbor query the channel asks —
    /// from the spatial index or from a parallel worker's speculation —
    /// against the brute-force oracle over exact positions for the rest
    /// of the trial, panicking with a diagnostic on the first divergence
    /// (`slrsim --validate-spatial`). Output is unchanged.
    pub fn enable_spatial_validation(&mut self) {
        self.validate_spatial = true;
    }

    /// Runs the trial and returns the summary plus the packet trace
    /// (empty if tracing was not enabled).
    pub fn run_traced(mut self) -> (TrialSummary, TraceLog) {
        if self.trace.is_none() {
            self.enable_trace(usize::MAX);
        }
        self.run_loop();
        let nodes = self.scenario.nodes;
        let trace = self.trace.take().expect("enabled above");
        let metrics = self.finalize_metrics();
        (metrics.summarize(nodes), trace)
    }

    /// Runs the trial and returns both the summary and the full metrics
    /// (drop breakdowns, per-kind control counts, …).
    pub fn run_detailed(self) -> (TrialSummary, Metrics) {
        let mut sim = self;
        sim.run_loop();
        let nodes = sim.scenario.nodes;
        let metrics = sim.finalize_metrics();
        (metrics.summarize(nodes), metrics)
    }

    /// Runs the trial to completion and returns its summary.
    pub fn run(self) -> TrialSummary {
        self.run_detailed().0
    }

    /// Like [`Sim::run_detailed`], but drives the trial under an
    /// *external* window executor instead of standing up a private pool —
    /// the unified core budget: a sweep submits each trial as a job to
    /// one work-stealing pool and the trial publishes its windows' shards
    /// back into the same pool through `exec`. [`Sim::set_workers`] still
    /// caps this trial's window width.
    pub fn run_detailed_under(mut self, exec: &dyn WindowExec) -> (TrialSummary, Metrics) {
        self.ensure_started();
        let end = self.scenario.end;
        while self.pump(end, Some(exec)) != Pumped::Idle {}
        let nodes = self.scenario.nodes;
        let metrics = self.finalize_metrics();
        (metrics.summarize(nodes), metrics)
    }

    /// Like [`Sim::run_detailed`], additionally reporting the end-of-run
    /// per-subsystem memory footprint ([`Sim::mem_report`]) — the probe
    /// behind the benchmark's `runner.mem.*` metrics.
    pub fn run_with_mem_report(self) -> (TrialSummary, Metrics, MemReport) {
        let mut sim = self;
        sim.run_loop();
        let report = sim.mem_report();
        let nodes = sim.scenario.nodes;
        let metrics = sim.finalize_metrics();
        (metrics.summarize(nodes), metrics, report)
    }

    /// Like [`Sim::run_detailed`], additionally reporting where the wall
    /// clock went by harness phase (enables phase timing if the caller
    /// has not already). The attribution behind the benchmark's
    /// `runner.sim.phase_*_s` metrics; meaningful under the batched engine.
    pub fn run_phased(mut self) -> (TrialSummary, Metrics, PhaseTimes) {
        if self.phase.is_none() {
            self.enable_phase_timing();
        }
        self.run_loop();
        let phases = *self.phase.take().expect("enabled above");
        let nodes = self.scenario.nodes;
        let metrics = self.finalize_metrics();
        (metrics.summarize(nodes), metrics, phases)
    }

    /// Phase-timing probe: the start instant, taken only when enabled.
    #[inline]
    fn ph_t0(&self) -> Option<Instant> {
        if self.phase.is_some() {
            Some(Instant::now())
        } else {
            None
        }
    }

    /// Phase-timing probe: accumulates the elapsed time since `t0`.
    #[inline]
    fn ph_add(&mut self, t0: Option<Instant>, sel: PhaseSel) {
        if let (Some(p), Some(t0)) = (self.phase.as_deref_mut(), t0) {
            let d = t0.elapsed();
            match sel {
                PhaseSel::Medium => p.medium += d,
                PhaseSel::Signal => p.signal += d,
                PhaseSel::Mac => p.mac += d,
                PhaseSel::Proto => p.proto += d,
            }
        }
    }

    /// Schedules the scripted inputs (application packets, dynamics
    /// events) and starts every protocol.
    fn startup(&mut self) {
        for (i, p) in self.traffic.packets().iter().enumerate() {
            self.sim.schedule_at(p.time, Event::App(i));
        }
        for (i, (time, _)) in self.dynamics.iter().enumerate() {
            self.sim.schedule_at(*time, Event::Dynamics(i));
        }
        for node in 0..self.protos.len() {
            let fx = {
                let mut ctx = ProtoCtx {
                    now: SimTime::ZERO,
                    rng: &mut self.proto_rngs[node],
                };
                self.protos[node].on_start(&mut ctx)
            };
            self.drain_proto(node, fx);
        }
    }

    /// Runs `startup` exactly once per trial, however the trial is
    /// driven (full run, oracle run, or partial stepping).
    fn ensure_started(&mut self) {
        if !self.started {
            self.started = true;
            self.startup();
        }
    }

    fn run_loop(&mut self) {
        self.ensure_started();
        let end = self.scenario.end;
        self.drive(end);
    }

    /// Drives the trial to `end`, standing up the unified core pool once
    /// for the whole run when the parallel engine wants more than one
    /// worker. A trial driven *under* an external pool (the sweep's
    /// unified budget — [`Sim::run_detailed_under`]) never reaches this
    /// branch with `workers > 1`.
    fn drive(&mut self, end: SimTime) {
        if self.engine == EngineKind::Parallel && self.workers > 1 {
            let threads = self.workers - 1;
            let this = &mut *self;
            with_core_pool(threads, move |pool| {
                let sess = pool.session();
                while this.pump(end, Some(&sess)) != Pumped::Idle {}
            });
        } else {
            while self.pump(end, None) != Pumped::Idle {}
        }
    }

    /// Processes one unit of work strictly before `end`: a single serial
    /// event (batched engine; lone MAC-timer and dynamics events under
    /// the parallel engine) or one conservative window of
    /// node-local tasks, possibly widened with independent MAC timers
    /// (see the invariant write-up in [`crate::par`]).
    fn pump(&mut self, end: SimTime, exec: Option<&dyn WindowExec>) -> Pumped {
        if self.engine != EngineKind::Parallel {
            return match self.sim.next_before(end) {
                Some(ev) => {
                    let dynamics = matches!(ev.event, Event::Dynamics(_));
                    self.dispatch(ev.event);
                    Pumped::Event { dynamics }
                }
                None => Pumped::Idle,
            };
        }
        let (t, head_safe, head_mac) = match self.sim.peek_event() {
            Some((t, ev)) if t < end => (t, window_safe(ev), matches!(ev, Event::MacTimer(..))),
            _ => return Pumped::Idle,
        };
        if !head_safe && !head_mac {
            let t0 = self.ws_t0();
            let ev = self.sim.next().expect("peeked above");
            let dynamics = matches!(ev.event, Event::Dynamics(_));
            self.dispatch(ev.event);
            self.wstats.serial_events += 1;
            self.ws_serial(t0);
            return Pumped::Event { dynamics };
        }
        // Pop the maximal run of compatible events sharing the head
        // timestamp, in heap order. The conservative bound (every newly
        // scheduled event is strictly later than `t`: SIFS/DIFS, airtimes
        // and timer delays are all positive) means nothing processed here
        // can insert ahead of anything popped here; an event arriving *at*
        // `t` during the window sorts after every already-scheduled entry
        // by sequence number and is picked up by the next pump.
        //
        // Every MAC timer joins: it dispatches *serially at the merge
        // cursor*, after the worker barrier, so it canonically observes
        // everything sequenced before it regardless of spatial overlap.
        // Its padded carrier-sense disc (`cs_range_m + CELL_PAD_M`, a
        // superset of any fan-out its dispatch can perform) is recorded,
        // and a later *safe* event joins only while its owners stay clear
        // of every accepted disc — a worker-run task inside a disc would
        // miss the timer's merge-time writes. See `crate::par` for the
        // full soundness argument.
        let t0 = self.ws_t0();
        let mut events = std::mem::take(&mut self.win.events);
        debug_assert!(events.is_empty());
        debug_assert!(self.win.macs.is_empty());
        let mut synced = false;
        // A MAC-timer head is popped *provisionally*: its window-time
        // position is only looked up (and its disc only recorded) once a
        // second same-timestamp event actually peeks — a single-event
        // "window" short-circuits to the plain serial dispatch below, so
        // sparse regions never pay for the tracker sync.
        let mut head_pending = head_mac;
        let head_ev = self.sim.next().expect("peeked above").event;
        events.push(head_ev);
        loop {
            // Copy the joining decision's inputs out of the peeked
            // borrow before mutating anything.
            enum Peeked {
                App(usize),
                Proto(usize, u64),
                Tx(usize, TxId),
                Mac(usize),
                Stop,
            }
            let peeked = match self.sim.peek_event() {
                Some((t2, ev)) if t2 == t => match *ev {
                    Event::App(i) => Peeked::App(i),
                    Event::ProtoTimer(node, epoch, _) => Peeked::Proto(node, epoch),
                    Event::TxComplete(node, _, tx) => Peeked::Tx(node, tx),
                    Event::MacTimer(node, _) => Peeked::Mac(node),
                    _ => Peeked::Stop,
                },
                _ => Peeked::Stop,
            };
            if matches!(peeked, Peeked::Stop) {
                break;
            }
            // Commit the provisional head: record its disc now that the
            // window is known to grow past it.
            if head_pending {
                if !synced {
                    self.tracker.sync_to(&self.mobility, t);
                    synced = true;
                }
                let Event::MacTimer(head_node, _) = events[0] else {
                    unreachable!("head_pending implies a MAC-timer head");
                };
                self.join_mac(head_node, t);
                head_pending = false;
            }
            let joins = match peeked {
                Peeked::App(i) => self.mac_clear(self.traffic.packets()[i].src, t),
                // A stale proto timer is an epoch-gated no-op: no owner.
                Peeked::Proto(node, epoch) => epoch != self.epochs[node] || self.mac_clear(node, t),
                Peeked::Tx(node, tx) => {
                    self.mac_clear(node, t)
                        && self
                            .channel
                            .tx_receivers(tx)
                            .iter()
                            .all(|r| self.mac_clear(r.node as usize, t))
                }
                Peeked::Mac(node) => {
                    if !synced {
                        self.tracker.sync_to(&self.mobility, t);
                        synced = true;
                    }
                    self.join_mac(node, t);
                    true
                }
                Peeked::Stop => unreachable!("handled above"),
            };
            if !joins {
                break;
            }
            let ev = self.sim.next().expect("peeked above").event;
            events.push(ev);
        }
        let out = if events.len() == 1 {
            // A one-event window would only route the same serial
            // dispatch through task assembly and merge — output-identical
            // by the canonical-order argument, pure overhead — so
            // dispatch it directly. A lone MAC timer (nothing else peeked
            // at `t`, or the one peeked safe event failed its disc test)
            // counts as a serial event; a lone safe event still counts as
            // a width-1 window so the occupancy stats describe window
            // *composition*, not the execution shortcut.
            let ev = events.pop().expect("pushed above");
            if matches!(ev, Event::MacTimer(..)) {
                self.wstats.serial_events += 1;
            } else {
                self.wstats.windows += 1;
                self.wstats.windowed_events += 1;
                self.wstats.max_width = self.wstats.max_width.max(1);
            }
            self.dispatch(ev);
            Pumped::Event { dynamics: false }
        } else {
            let macs = self.win.macs.len() as u64;
            self.wstats.windows += 1;
            self.wstats.windowed_events += events.len() as u64;
            if events.len() >= 2 {
                self.wstats.multi_events += events.len() as u64;
            }
            self.wstats.max_width = self.wstats.max_width.max(events.len() as u64);
            self.wstats.mac_hops += macs;
            if macs > 0 {
                self.wstats.widened_windows += 1;
            }
            self.ws_serial(t0);
            self.execute_window(t, &events, exec);
            Pumped::Window
        };
        events.clear();
        self.win.events = events;
        if matches!(out, Pumped::Event { .. }) {
            self.win.macs.clear();
            self.ws_serial(t0);
        }
        out
    }

    /// Processes events strictly before `horizon` (clamped to the
    /// scenario end), starting the trial if needed. A stepping hook for
    /// tests and diagnostics that must observe or perturb mid-trial state
    /// (e.g. the crash-mid-reception regression tests); the run methods
    /// continue seamlessly afterwards. Under the parallel engine the
    /// windows run inline (no pool is stood up for partial stepping) —
    /// which cannot change output, only wall clock.
    pub fn advance_until(&mut self, horizon: SimTime) {
        self.ensure_started();
        let end = self.scenario.end.min(horizon);
        while self.pump(end, None) != Pumped::Idle {}
    }

    /// The current virtual time.
    pub fn now(&self) -> SimTime {
        self.sim.now()
    }

    /// Appends a dynamics action at `time`, after the compiled schedule
    /// (tests use this to place crash/rejoin events at sub-airtime
    /// precision the stochastic compiler cannot target).
    ///
    /// # Panics
    ///
    /// Panics if `time` is in the simulation's past.
    pub fn inject_dynamics(&mut self, time: SimTime, action: DynAction) {
        let idx = self.dynamics.len();
        self.dynamics.push((time, action));
        self.has_dynamics = true;
        if self.started {
            self.sim.schedule_at(time, Event::Dynamics(idx));
        }
        // Otherwise `startup` schedules it along with the compiled script.
    }

    /// Whether `node`'s medium is physically busy (ground truth).
    pub fn channel_is_busy(&self, node: usize) -> bool {
        self.channel.is_busy(node)
    }

    /// The carrier state `node`'s MAC will act on at its next input.
    /// Must agree with [`Sim::channel_is_busy`] whenever the node is up.
    /// (Elided notifications leave the MAC's stored flag stale until the
    /// lazy resync; this reports the effective, post-resync view.)
    pub fn mac_carrier_busy(&self, node: usize) -> bool {
        if self.carrier_stale[node] {
            self.channel.is_busy(node)
        } else {
            self.macs[node].carrier_busy()
        }
    }

    /// Collisions the channel has counted so far (mid-trial diagnostic;
    /// the final figure lands in the metrics at trial end).
    pub fn channel_collisions(&self) -> u64 {
        self.channel.stats.collisions
    }

    /// Live heap bytes per subsystem at this instant (capacity-based; see
    /// [`MemReport`]). Cheap enough to sample mid-trial: every term is a
    /// capacity read or a short iteration over per-node structures.
    pub fn mem_report(&self) -> MemReport {
        MemReport {
            nodes: self.scenario.nodes,
            proto_bytes: self.protos.iter().map(|p| p.mem_bytes()).sum(),
            mac_bytes: self.macs.iter().map(Mac::mem_bytes).sum::<usize>()
                + self.mac_timers.capacity()
                    * std::mem::size_of::<[Option<EventToken>; MacTimer::COUNT]>(),
            channel_bytes: self.channel.mem_bytes(),
            spatial_bytes: self.tracker.mem_bytes(),
            queue_bytes: self.sim.queue_mem_bytes(),
            metrics_bytes: self.metrics.dedup_mem_bytes(),
        }
    }

    fn dispatch(&mut self, ev: Event) {
        match ev {
            Event::App(i) => {
                let spec = self.traffic.packets()[i];
                let packet = DataPacket {
                    src: spec.src,
                    dst: spec.dst,
                    uid: self.traffic.uid(i),
                    origin_time: self.sim.now(),
                    bytes: spec.bytes,
                    ttl: DATA_TTL,
                    source_route: None,
                };
                self.metrics.data_originated += 1;
                let now = self.sim.now();
                if let Some(tr) = &mut self.trace {
                    tr.record(
                        packet.uid,
                        TraceEvent::Originated {
                            node: spec.src,
                            time: now,
                        },
                    );
                }
                // A crashed source cannot inject traffic; the offered
                // packet still counts against delivery (losses must not
                // vanish from the denominator).
                if !self.admittance.node_is_up(spec.src) {
                    if let Some(tr) = &mut self.trace {
                        tr.record(
                            packet.uid,
                            TraceEvent::Dropped {
                                node: spec.src,
                                reason: DataDropReason::NodeDown,
                                time: now,
                            },
                        );
                    }
                    self.metrics.record_drop(DataDropReason::NodeDown);
                    return;
                }
                let t0 = self.ph_t0();
                let fx = {
                    let mut ctx = ProtoCtx {
                        now,
                        rng: &mut self.proto_rngs[spec.src],
                    };
                    self.protos[spec.src].on_data_from_app(&mut ctx, packet)
                };
                self.ph_add(t0, PhaseSel::Proto);
                self.drain_proto(spec.src, fx);
            }
            Event::ProtoTimer(node, epoch, token) => {
                if epoch != self.epochs[node] {
                    return; // Timer owned by a pre-crash incarnation.
                }
                let now = self.sim.now();
                let t0 = self.ph_t0();
                let fx = {
                    let mut ctx = ProtoCtx {
                        now,
                        rng: &mut self.proto_rngs[node],
                    };
                    self.protos[node].on_timer(&mut ctx, token)
                };
                self.ph_add(t0, PhaseSel::Proto);
                self.drain_proto(node, fx);
            }
            Event::MacTimer(node, kind) => {
                self.mac_timers[node][kind.index()] = None;
                let now = self.sim.now();
                self.mac_call_drain(node, |mac, fx| mac.on_timer_into(kind, now, fx));
            }
            Event::TxComplete(node, epoch, tx_id) => {
                // The whole transmission in one event: each receiver's
                // signal completes (ascending node order, each one's
                // effects fully drained before the next), then the
                // transmitter side. Channel bookkeeping runs
                // unconditionally; the transmitter's MAC only hears about
                // it if the node has not crashed since.
                let now = self.sim.now();
                let receivers = self.channel.take_tx_receivers(tx_id);
                for r in &receivers {
                    let t0 = self.ph_t0();
                    let outcome = self.channel.finish_rx_batched(r.node as usize, tx_id, now);
                    self.ph_add(t0, PhaseSel::Signal);
                    self.after_finish_rx(r.node as usize, outcome, now);
                }
                self.channel.recycle_receivers(receivers);
                self.channel.finish_tx_batched(tx_id);
                if epoch != self.epochs[node] {
                    return;
                }
                self.mac_call_drain(node, |mac, fx| mac.on_tx_end_into(now, fx));
            }
            Event::Dynamics(idx) => {
                let action = self.dynamics[idx].1.clone();
                self.apply_dynamics(action);
            }
        }
    }

    /// Executes one conservative window: expands its events into
    /// node-local tasks (canonical order: events in heap-pop order; a
    /// transmission's receivers in ascending node order, then its
    /// transmitter — exactly the serial batched walk), runs them sharded
    /// by node ownership (on the work-stealing executor when the window
    /// is big enough, inline otherwise), then replays every buffered
    /// global side effect in canonical (task, emission) order — hopped
    /// MAC timers dispatching serially at their canonical positions —
    /// and retires the window's transmissions. Bit-identical to
    /// dispatching the same events through the serial batched path, at
    /// any worker count.
    fn execute_window(&mut self, now: SimTime, events: &[Event], exec: Option<&dyn WindowExec>) {
        // Execution width, decided from a counting pass before anything
        // is mutated: pooled workers only pay off past a per-worker grain
        // of *worker* tasks (MAC-fire placeholders run at the merge, so
        // they don't count). The width is clamped to the node count (a
        // shard needs at least one node) and to the executor's shard
        // capacity.
        let n = self.protos.len();
        let mut worker_tasks = 0usize;
        for ev in events {
            match *ev {
                Event::App(_) => worker_tasks += 1,
                Event::ProtoTimer(node, epoch, _) => {
                    // The epoch gate the serial dispatch applies at fire
                    // time; epochs cannot change inside a window.
                    if epoch == self.epochs[node] {
                        worker_tasks += 1;
                    }
                }
                Event::TxComplete(node, epoch, tx) => {
                    worker_tasks += self.channel.tx_receivers(tx).len();
                    if epoch == self.epochs[node] {
                        worker_tasks += 1;
                    }
                }
                Event::MacTimer(..) => {}
                _ => unreachable!("non-windowable event in a window"),
            }
        }
        let width = match exec {
            Some(exec) => {
                let cap = self.workers.min(exec.shard_cap()).min(n.max(1));
                if cap > 1 && worker_tasks >= cap * PAR_MIN_TASKS_PER_WORKER {
                    cap
                } else {
                    1
                }
            }
            None => 1,
        };
        if width == 1 {
            // No shard can run concurrently with another, so the
            // task/op/merge machinery would reproduce the serial walk at
            // a detour: dispatching the events in pop order *is* the
            // batched engine, bit for bit. This keeps the window path's
            // cost proportional to the parallelism actually available.
            let t_ser = self.ws_t0();
            for &ev in events {
                self.dispatch(ev);
            }
            self.win.macs.clear();
            self.ws_serial(t_ser);
            return;
        }
        let mut tasks = std::mem::take(&mut self.win.tasks);
        let mut txs = std::mem::take(&mut self.win.txs);
        debug_assert!(tasks.is_empty() && txs.is_empty());
        for ev in events {
            match *ev {
                Event::App(i) => {
                    let src = self.traffic.packets()[i].src;
                    tasks.push(Task {
                        owner: src as u32,
                        kind: TaskKind::App(i as u32),
                    });
                }
                Event::ProtoTimer(node, epoch, token) => {
                    if epoch == self.epochs[node] {
                        tasks.push(Task {
                            owner: node as u32,
                            kind: TaskKind::ProtoTimer(token),
                        });
                    }
                }
                Event::TxComplete(node, epoch, tx) => {
                    let receivers = self.channel.take_tx_receivers(tx);
                    for r in &receivers {
                        tasks.push(Task {
                            owner: r.node,
                            kind: TaskKind::RxComplete(tx),
                        });
                    }
                    if epoch == self.epochs[node] {
                        tasks.push(Task {
                            owner: node as u32,
                            kind: TaskKind::TxEndTail,
                        });
                    }
                    txs.push((tx, receivers));
                }
                // A hopped MAC timer: a placeholder task holding its
                // canonical slot in the merge order. Workers never
                // execute it — they may *speculate* its medium query —
                // and it dispatches serially at the merge cursor.
                Event::MacTimer(node, kind) => {
                    tasks.push(Task {
                        owner: node as u32,
                        kind: TaskKind::MacFire(kind),
                    });
                }
                _ => unreachable!("non-windowable event in a window"),
            }
        }
        let mut bounds = std::mem::take(&mut self.win.bounds);
        par::shard_bounds_into(n, width, &mut bounds);
        while self.par_scratch.len() < width {
            self.par_scratch.push(WorkerScratch::default());
        }

        let t_par = self.ws_t0();
        let mut chan_delivered = 0u64;
        let mut chan_collisions = 0u64;
        let mut ops_by_worker = std::mem::take(&mut self.win.op_lists);
        debug_assert!(ops_by_worker.is_empty());
        self.win.spec_gen = self.tracker.generation();
        {
            let (frames, mut chan_shards) = self.channel.par_views(&bounds);
            let ctx = SharedCtx {
                now,
                frames: &frames,
                admittance: &self.admittance,
                mobility: &self.mobility,
                traffic: &self.traffic,
                has_dynamics: self.has_dynamics,
                rx_range_m: self.scenario.mac.phy.rx_range_m,
                trace_on: self.trace.is_some(),
                // Width > 1 here, so another worker can overlap the
                // speculation with real task work.
                spec: (!self.win.macs.is_empty()).then(|| SpecCtx {
                    view: self.tracker.view(),
                    cs_range_m: self.scenario.mac.phy.cs_range_m,
                }),
            };
            // Split every per-node table at the same bounds.
            let mut shards: Vec<Shard<'_>> = Vec::with_capacity(width);
            {
                let mut macs: &mut [Mac<Payload>] = &mut self.macs;
                let mut protos: &mut [Box<dyn RoutingProtocol>] = &mut self.protos;
                let mut rngs: &mut [SmallRng] = &mut self.proto_rngs;
                let mut sens: &mut [bool] = &mut self.mac_sensitive;
                let mut stale: &mut [bool] = &mut self.carrier_stale;
                for (w, chan) in chan_shards.drain(..).enumerate() {
                    let len = bounds[w + 1] - bounds[w];
                    let (m, m_rest) = macs.split_at_mut(len);
                    let (p, p_rest) = protos.split_at_mut(len);
                    let (r, r_rest) = rngs.split_at_mut(len);
                    let (se, se_rest) = sens.split_at_mut(len);
                    let (st, st_rest) = stale.split_at_mut(len);
                    macs = m_rest;
                    protos = p_rest;
                    rngs = r_rest;
                    sens = se_rest;
                    stale = st_rest;
                    shards.push(Shard {
                        base: bounds[w],
                        macs: m,
                        protos: p,
                        rngs: r,
                        sensitive: se,
                        stale: st,
                        chan,
                    });
                }
            }

            let exec = exec.expect("width > 1 implies an executor");
            let taken: Vec<WorkerScratch> = self.par_scratch.drain(..width).collect();
            let slots: Vec<Mutex<Option<(Shard<'_>, WorkerScratch)>>> = shards
                .into_iter()
                .zip(taken)
                .map(|pair| Mutex::new(Some(pair)))
                .collect();
            let tasks_ref: &[Task] = &tasks;
            let ctx_ref = &ctx;
            exec.run_window(width, &|wi| {
                let slot = &slots[wi];
                let (mut shard, mut scratch) =
                    slot.lock().expect("window slot").take().expect("filled");
                debug_assert!(scratch.ops.is_empty());
                for (i, task) in tasks_ref.iter().enumerate() {
                    if !shard.owns(task.owner) {
                        continue;
                    }
                    if matches!(task.kind, TaskKind::MacFire(_)) {
                        // Pre-compute the hopped timer's medium query
                        // while the window is in flight; validated
                        // against the tracker generation at the merge.
                        par::speculate_medium(task, ctx_ref, &mut scratch);
                    } else {
                        par::run_task(i as u32, task, &mut shard, ctx_ref, &mut scratch);
                    }
                }
                *slot.lock().expect("window slot") = Some((shard, scratch));
            });
            for (w, slot) in slots.into_iter().enumerate() {
                let (shard, mut scratch) =
                    slot.into_inner().expect("window mutex").expect("refilled");
                chan_delivered += shard.chan.delivered;
                chan_collisions += shard.chan.collisions;
                ops_by_worker.push(std::mem::take(&mut scratch.ops));
                for m in scratch.spec_meta.drain(..) {
                    self.win.spec_done.push((m.node, w as u32, m.start, m.len));
                }
                self.par_scratch.push(scratch);
            }
        }
        self.ws_parallel(t_par);
        let t_ser = self.ws_t0();
        self.channel.stats.delivered += chan_delivered;
        self.channel.stats.collisions += chan_collisions;

        // Replay the buffered global effects in canonical order: tasks in
        // window order, each task's ops in emission order; hopped MAC
        // timers dispatch in place, seeing exactly the global state the
        // serial walk would have built before them. Each worker's buffer
        // is already sorted by task index (it walked its tasks in window
        // order), so the merge is a cursor walk. Schedule/cancel effects
        // are deferred into the pend buffer throughout (`merging`), then
        // flushed as one canonical-order bulk insert.
        for v in &mut ops_by_worker {
            v.reverse(); // pop from the back = front of the op stream
        }
        self.merging = true;
        for (t, task) in tasks.iter().enumerate() {
            if let TaskKind::MacFire(kind) = task.kind {
                self.stage_spec(task.owner);
                self.dispatch(Event::MacTimer(task.owner as usize, kind));
                self.spec_node = None;
                continue;
            }
            let w = if width == 1 {
                0
            } else {
                par::worker_of(task.owner, n, width)
            };
            while ops_by_worker[w]
                .last()
                .is_some_and(|(ti, _)| *ti == t as u32)
            {
                let (_, op) = ops_by_worker[w].pop().expect("checked");
                self.apply_op(op, now);
            }
        }
        self.merging = false;
        self.flush_pend();
        debug_assert!(ops_by_worker.iter().all(|v| v.is_empty()));
        // Hand the (now empty, capacity-retaining) op buffers back.
        for (i, v) in ops_by_worker.drain(..).enumerate() {
            self.par_scratch[i].ops = v;
            self.par_scratch[i].spec_pairs.clear();
        }
        self.win.op_lists = ops_by_worker;
        self.win.bounds = bounds;
        self.win.spec_done.clear();
        self.win.macs.clear();

        // Channel epilogue, in window order: recycle each transmission's
        // receiver vector and retire its in-flight entry — the tail of
        // the serial batched walk. Sound even with hopped MAC timers in
        // the window: retirement touches no per-node state (the taken
        // entry is a `None` hole until the deque front-compacts) and
        // `TxId` allocation (`base + len`) is invariant under the
        // compaction, so nothing a merge-time timer reads or allocates
        // can tell deferred retirement from the batched interleaving.
        for (tx, receivers) in txs.drain(..) {
            self.channel.recycle_receivers(receivers);
            self.channel.finish_tx_batched(tx);
        }
        tasks.clear();
        self.win.tasks = tasks;
        self.win.txs = txs;
        self.ws_serial(t_ser);
    }

    /// Window-stats timing probe: the start instant, only when enabled.
    #[inline]
    fn ws_t0(&self) -> Option<Instant> {
        if self.wstats_timing {
            Some(Instant::now())
        } else {
            None
        }
    }

    /// Accumulates elapsed serial-section wall clock since `t0`.
    #[inline]
    fn ws_serial(&mut self, t0: Option<Instant>) {
        if let Some(t0) = t0 {
            self.wstats.serial_ns += t0.elapsed().as_nanos() as u64;
        }
    }

    /// Accumulates elapsed parallel-section wall clock since `t0`.
    #[inline]
    fn ws_parallel(&mut self, t0: Option<Instant>) {
        if let Some(t0) = t0 {
            self.wstats.parallel_ns += t0.elapsed().as_nanos() as u64;
        }
    }

    /// Tests whether `node` sits outside the padded carrier-sense disc
    /// of every accepted hopped MAC timer (vacuously true when none are
    /// in the window — the common case, which pays no position lookup).
    /// The tracker is always synced to `t` before the first disc is
    /// recorded, so positions here are window-time exact.
    #[inline]
    fn mac_clear(&self, node: usize, t: SimTime) -> bool {
        if self.win.macs.is_empty() {
            return true;
        }
        let range = self.scenario.mac.phy.cs_range_m + CELL_PAD_M;
        let r2 = range * range;
        let p = self.tracker.position(node, t);
        self.win.macs.iter().all(|&(_, x, y)| {
            let (dx, dy) = (p.x - x, p.y - y);
            dx * dx + dy * dy > r2
        })
    }

    /// Admits a same-timestamp MAC timer into the window under
    /// construction — unconditionally. The timer dispatches serially at
    /// the merge cursor, after every worker task has completed, so it
    /// canonically observes all state sequenced before it; nothing about
    /// the already-accepted events can make admission unsound. What the
    /// admission *constrains* is the future: the timer's dispatch can
    /// read or write any node inside its carrier-sense range at `t`, so
    /// its padded disc (`cs_range_m + CELL_PAD_M`, squared-distance test
    /// — the pad dwarfs any f64 rounding between this test and the
    /// dispatch's own exact-distance arithmetic) is recorded, and every
    /// later safe joiner must keep its owners outside all recorded discs
    /// ([`Sim::mac_clear`]).
    fn join_mac(&mut self, node: usize, t: SimTime) {
        let p = self.tracker.position(node, t);
        self.win.macs.push((node as u32, p.x, p.y));
    }

    /// Stages the speculative neighbor set for `node`'s imminent
    /// MAC-timer dispatch, if some worker completed one this window; the
    /// staged buffer is consumed (generation-checked) by
    /// [`Sim::begin_tx_on_medium`] iff the dispatch actually transmits.
    fn stage_spec(&mut self, node: u32) {
        self.spec_node = None;
        for &(sn, w, start, len) in &self.win.spec_done {
            if sn == node {
                let (start, len) = (start as usize, len as usize);
                self.spec_buf.clear();
                self.spec_buf.extend_from_slice(
                    &self.par_scratch[w as usize].spec_pairs[start..start + len],
                );
                self.spec_node = Some((node, self.win.spec_gen));
                return;
            }
        }
    }

    /// Arms a MAC timer: the serial path schedules directly; during a
    /// window merge the insertion is deferred into the pend buffer (the
    /// real token lands in the slot at [`Sim::flush_pend`]). Either way
    /// any previously armed instance — real or pending — is cancelled
    /// first, preserving the at-most-one-live-per-(node, kind) invariant.
    fn mac_set(&mut self, node: usize, kind: MacTimer, delay: SimDuration) {
        if let Some(tok) = self.mac_timers[node][kind.index()].take() {
            self.sim.cancel(tok);
        }
        if self.merging {
            self.kill_pending_mac(node, kind);
            let time = self.sim.now() + delay;
            self.pend.push(Pend {
                time,
                event: Event::MacTimer(node, kind),
                dead: false,
                mac: Some((node as u32, kind)),
            });
        } else {
            let tok = self.sim.schedule_in(delay, Event::MacTimer(node, kind));
            self.mac_timers[node][kind.index()] = Some(tok);
        }
    }

    /// Disarms a MAC timer (real token or pending insertion).
    fn mac_cancel(&mut self, node: usize, kind: MacTimer) {
        if let Some(tok) = self.mac_timers[node][kind.index()].take() {
            self.sim.cancel(tok);
        }
        if self.merging {
            self.kill_pending_mac(node, kind);
        }
    }

    /// Schedules a protocol timer, deferring into the pend buffer during
    /// a merge (proto timers carry no cancellation tokens, so no
    /// kill-scan is needed).
    fn proto_set(&mut self, node: usize, token: u64, delay: SimDuration) {
        let ev = Event::ProtoTimer(node, self.epochs[node], token);
        if self.merging {
            let time = self.sim.now() + delay;
            self.pend.push(Pend {
                time,
                event: ev,
                dead: false,
                mac: None,
            });
        } else {
            self.sim.schedule_in(delay, ev);
        }
    }

    /// Marks the (at most one) live pending insertion for `(node, kind)`
    /// dead. Back-scan: a re-arm always follows the latest instance.
    fn kill_pending_mac(&mut self, node: usize, kind: MacTimer) {
        for p in self.pend.iter_mut().rev() {
            if !p.dead {
                if let Some((pn, pk)) = p.mac {
                    if pn == node as u32 && pk == kind {
                        p.dead = true;
                        return;
                    }
                }
            }
        }
    }

    /// Flushes the merge's deferred insertions as one slab-aware bulk
    /// insert, in pend (= canonical serial) order, then lands the fresh
    /// MAC-timer tokens in their slots. Dead entries are skipped before
    /// the queue ever sees them, so they consume no sequence numbers —
    /// sound because sequence numbers only tie-break *coexisting*
    /// same-time entries, and the relative order of the surviving
    /// insertions is unchanged.
    fn flush_pend(&mut self) {
        debug_assert!(self.pend_items.is_empty() && self.pend_macs.is_empty());
        let mut pend = std::mem::take(&mut self.pend);
        for p in pend.drain(..) {
            if p.dead {
                continue;
            }
            self.pend_items.push((p.time, p.event));
            self.pend_macs.push(p.mac);
        }
        self.pend = pend;
        let mut items = std::mem::take(&mut self.pend_items);
        let mut tokens = std::mem::take(&mut self.pend_tokens);
        self.sim.schedule_bulk(&mut items, &mut tokens);
        debug_assert_eq!(tokens.len(), self.pend_macs.len());
        for (tok, mac) in tokens.drain(..).zip(self.pend_macs.drain(..)) {
            if let Some((node, kind)) = mac {
                debug_assert!(
                    self.mac_timers[node as usize][kind.index()].is_none(),
                    "pending MAC arm raced a live token"
                );
                self.mac_timers[node as usize][kind.index()] = Some(tok);
            }
        }
        items.clear();
        self.pend_items = items;
        self.pend_tokens = tokens;
    }

    /// Applies one buffered global side effect — each arm is the exact
    /// statement the serial dispatch path would have executed in place.
    fn apply_op(&mut self, op: Op, now: SimTime) {
        match op {
            Op::MacSet { node, kind, delay } => self.mac_set(node as usize, kind, delay),
            Op::MacCancel { node, kind } => self.mac_cancel(node as usize, kind),
            Op::ProtoSet { node, token, delay } => self.proto_set(node as usize, token, delay),
            Op::Control { kind } => self.metrics.record_control(kind),
            Op::DataTx => self.metrics.data_tx += 1,
            Op::Originated => self.metrics.data_originated += 1,
            Op::Drop { reason } => self.metrics.record_drop(reason),
            Op::IfqDrop => *self.metrics.drops.entry("ifq-overflow").or_insert(0) += 1,
            Op::LinkFailGated => self.metrics.link_failures_gated += 1,
            Op::LinkFailInRange => self.metrics.link_failures_in_range += 1,
            Op::LinkFailOutOfRange => self.metrics.link_failures_out_of_range += 1,
            Op::Delivery { uid, origin } => {
                if self.metrics.record_delivery(uid, origin, now) {
                    // First delivery after a disruption closes the
                    // route-repair latency clock.
                    if let Some(t0) = self.pending_repair.take() {
                        self.metrics.route_repair_latency_sum +=
                            now.saturating_since(t0).as_secs_f64();
                        self.metrics.route_repairs += 1;
                    }
                }
            }
            Op::Trace { uid, ev } => {
                if let Some(tr) = &mut self.trace {
                    tr.record(uid, ev);
                }
            }
        }
    }

    /// The tail of one receiver's signal completion: frame delivery and
    /// busy→idle notification for the node's *current* MAC (the parallel
    /// engine's workers run the same steps in `par::run_task`).
    ///
    /// Crash semantics: a receiver that crashed mid-reception had its
    /// signals quarantined channel-side ([`Channel::crash_receiver`]), so
    /// no frame and no collision can surface here. Busy/idle transitions
    /// describe the physical medium at the node's radio, so they reach
    /// whichever MAC incarnation is up now — a fresh post-rejoin MAC that
    /// was resynced to "busy" on rejoin would otherwise stay deaf to the
    /// medium going quiet and defer forever. A node that is *down* has no
    /// radio to notify; the rejoin path resyncs it from `Channel::is_busy`.
    fn after_finish_rx(&mut self, node: usize, r: slr_radio::FinishRx<Payload>, now: SimTime) {
        if self.has_dynamics && !self.admittance.node_is_up(node) {
            return;
        }
        let mut work = self.take_work();
        if let Some(frame) = r.frame {
            self.mac_call(node, &mut work, |mac, fx| {
                mac.on_rx_frame_into(frame, now, fx)
            });
        }
        if r.became_idle {
            if self.mac_sensitive[node] {
                self.mac_call(node, &mut work, |mac, fx| mac.on_channel_idle_into(now, fx));
            } else {
                // The only effect an insensitive MAC takes from an idle
                // notification is the carrier flag; replay it lazily.
                self.carrier_stale[node] = true;
            }
        }
        self.drain(work);
    }

    /// Applies one dynamics action: updates the admittance, performs the
    /// protocol-state consequences (crash = all state dropped, rejoin =
    /// cold restart), and keeps the repair-latency clock.
    fn apply_dynamics(&mut self, action: DynAction) {
        let now = self.sim.now();
        // A partition cut is geographic: recompute the slabs from the
        // nodes' *current* positions so mobility since compile time
        // cannot leave a component internally disconnected (identical to
        // the compiled assignment on static topologies).
        let action = match action {
            DynAction::PartitionSet(compiled) => {
                let k = compiled.iter().copied().max().unwrap_or(1) as usize + 1;
                self.fill_snapshot(now);
                DynAction::PartitionSet(crate::dynamics::slab_assignment(&self.snapshot, k))
            }
            other => other,
        };
        self.metrics.record_dynamics(&action);
        if action.is_disruptive() && self.pending_repair.is_none() {
            self.pending_repair = Some(now);
        }
        self.admittance.apply(&action);
        match action {
            DynAction::NodeCrash(i) => {
                // The node loses power: every pending MAC timer dies with
                // it, and fresh (empty) MAC and protocol state stand ready
                // for the rejoin. The epoch bump quarantines every event
                // still addressed to the old incarnation, and the new
                // seeds are epoch-qualified so the restarted node does not
                // replay its previous backoff/jitter stream.
                self.epochs[i] += 1;
                let epoch = self.epochs[i];
                for slot in self.mac_timers[i].iter_mut() {
                    if let Some(tok) = slot.take() {
                        self.sim.cancel(tok);
                    }
                }
                self.macs[i] = Mac::new(
                    i,
                    self.scenario.mac,
                    derive_seed(self.master, &[0x6d61, i as u64, epoch]),
                );
                self.protos[i] = build_protocol(&self.scenario, &self.adversary_mask, i);
                self.proto_rngs[i] =
                    SmallRng::seed_from_u64(derive_seed(self.master, &[0x7072, i as u64, epoch]));
                // The fresh MAC boots idle and quiescent; its carrier
                // view resyncs from channel ground truth at its next
                // input (signals may still be in flight at the antenna).
                self.mac_sensitive[i] = false;
                self.carrier_stale[i] = true;
                // The dead radio cannot decode its in-flight receptions:
                // quarantine them channel-side so their eventual
                // completion counts neither a delivery nor a collision
                // (their RF energy still occupies the node's medium).
                self.channel.crash_receiver(i);
            }
            DynAction::NodeRejoin(i) => {
                let mut work = self.take_work();
                // The reborn radio samples the medium before anything
                // else: a signal still in flight at its position (crash
                // and rejoin within one airtime) must reach carrier
                // sense, or the fresh MAC — born believing the medium
                // idle — would transmit straight over it.
                if self.channel.is_busy(i) {
                    self.mac_call(i, &mut work, |mac, fx| mac.on_channel_busy_into(now, fx));
                }
                // Cold restart: the protocol boots as at t = 0, plus any
                // reboot announcement it chooses to make (SRP broadcasts
                // a cold-reboot RERR so neighbors purge stale routes
                // through it).
                let fx = {
                    let mut ctx = ProtoCtx {
                        now,
                        rng: &mut self.proto_rngs[i],
                    };
                    self.protos[i].on_rejoin(&mut ctx)
                };
                work.extend(fx.into_iter().map(|e| Work::Proto(i, e)));
                self.drain(work);
            }
            _ => {}
        }
    }

    /// An empty work queue from the pool (allocation-free steady state).
    fn take_work(&mut self) -> VecDeque<Work> {
        self.work_pool.pop().unwrap_or_default()
    }

    /// Processes queued effects until quiescent, then pools the queue.
    fn drain(&mut self, mut work: VecDeque<Work>) {
        while let Some(w) = work.pop_front() {
            match w {
                Work::Mac(node, eff) => self.apply_mac(node, eff, &mut work),
                Work::Proto(node, eff) => self.apply_proto(node, eff, &mut work),
            }
        }
        self.work_pool.push(work);
    }

    /// Runs one MAC call through the reusable effect scratch, queuing
    /// its effects for `node` onto `work`.
    fn mac_call(
        &mut self,
        node: usize,
        work: &mut VecDeque<Work>,
        f: impl FnOnce(&mut Mac<Payload>, &mut Vec<MacEffect<Payload>>),
    ) {
        if self.carrier_stale[node] {
            self.carrier_stale[node] = false;
            let busy = self.channel.is_busy(node);
            self.macs[node].set_carrier(busy);
        }
        let mut fx = std::mem::take(&mut self.mac_fx);
        debug_assert!(fx.is_empty());
        let t0 = self.ph_t0();
        f(&mut self.macs[node], &mut fx);
        self.ph_add(t0, PhaseSel::Mac);
        self.mac_sensitive[node] = self.macs[node].transition_sensitive();
        work.extend(fx.drain(..).map(|e| Work::Mac(node, e)));
        self.mac_fx = fx;
    }

    /// [`Sim::mac_call`] followed immediately by a full drain.
    fn mac_call_drain(
        &mut self,
        node: usize,
        f: impl FnOnce(&mut Mac<Payload>, &mut Vec<MacEffect<Payload>>),
    ) {
        let mut work = self.take_work();
        self.mac_call(node, &mut work, f);
        self.drain(work);
    }

    /// Drains one node's protocol effects.
    fn drain_proto(&mut self, node: usize, fx: Vec<ProtoEffect>) {
        let mut work = self.take_work();
        work.extend(fx.into_iter().map(|e| Work::Proto(node, e)));
        self.drain(work);
    }

    /// Refreshes the full-position snapshot to `now` (no-op for static
    /// scripts and repeated calls at the same instant; the buffer is
    /// reused, never reallocated).
    fn fill_snapshot(&mut self, now: SimTime) {
        if self.snapshot_at == Some(now) || (self.static_script && self.snapshot_at.is_some()) {
            return;
        }
        self.mobility.positions_into(now, &mut self.snapshot);
        self.snapshot_at = Some(now);
    }

    /// Starts `frame` on the channel.
    ///
    /// Syncs the incremental tracker and answers from the spatial index,
    /// or from a worker's speculation staged for this transmitter. Under
    /// `--validate-spatial` whichever of the two answers is cross-checked
    /// against the brute-force oracle over the exact full snapshot.
    /// Scenarios without a dynamics schedule skip the admittance gate
    /// entirely — this is the simulator's hottest loop.
    fn begin_tx_on_medium(&mut self, frame: Frame<Payload>, now: SimTime) -> BeginTx {
        let src = frame.src;
        if self.validate_spatial {
            self.fill_snapshot(now);
        }
        self.tracker.sync_to(&self.mobility, now);
        // Consume a staged speculative neighbor set iff it is for this
        // transmitter and the tracker generation has not moved since the
        // workers computed it.
        let spec_fresh = match self.spec_node {
            Some((n, generation)) if n as usize == src => {
                if generation == self.tracker.generation() {
                    self.wstats.spec_hits += 1;
                    true
                } else {
                    self.wstats.spec_misses += 1;
                    false
                }
            }
            _ => false,
        };
        let view = MediumView::new(&self.tracker, &self.mobility, now);
        let pre = PrecomputedQuery {
            inner: &view,
            src,
            range: self.scenario.mac.phy.cs_range_m,
            pairs: &self.spec_buf,
        };
        let answer: &dyn NeighborQuery = if spec_fresh { &pre } else { &view };
        let oracle = BruteForceMedium(&self.snapshot);
        let checked = ValidatingQuery {
            fast: answer,
            oracle: &oracle,
        };
        let medium: &dyn NeighborQuery = if self.validate_spatial {
            &checked
        } else {
            answer
        };
        if self.has_dynamics {
            let adm = &self.admittance;
            self.channel
                .begin_tx_gated(frame, now, medium, |s, v| adm.allows(s, v))
        } else {
            self.channel.begin_tx(frame, now, medium)
        }
    }

    fn apply_mac(&mut self, node: usize, eff: MacEffect<Payload>, work: &mut VecDeque<Work>) {
        let now = self.sim.now();
        match eff {
            MacEffect::StartTx(frame) => {
                debug_assert!(
                    self.admittance.node_is_up(node),
                    "crashed node {node} attempted to transmit"
                );
                self.account_tx(&frame);
                // The channel consults the admittance per receiver: gated
                // links (churn outage, partition, crashed node) perceive
                // nothing, so unicasts toward them burn MAC retries and
                // surface as link failures to the routing layer.
                let t0 = self.ph_t0();
                let begin = self.begin_tx_on_medium(frame, now);
                self.ph_add(t0, PhaseSel::Medium);
                let end_at = now + begin.airtime;
                // During a window merge the insertion joins the pend
                // buffer (never cancelled, so no kill-scan bookkeeping).
                let ev = Event::TxComplete(node, self.epochs[node], begin.tx_id);
                if self.merging {
                    self.pend.push(Pend {
                        time: end_at,
                        event: ev,
                        dead: false,
                        mac: None,
                    });
                } else {
                    self.sim.schedule_at(end_at, ev);
                }
                // Busy fan-out, computed once per tx from the channel's
                // signal sets: only nodes whose medium actually went
                // idle → busy hear anything, and a transmission that
                // flips nobody skips the walk entirely.
                if begin.fresh_busy > 0 {
                    let t0 = self.ph_t0();
                    let mut fx = std::mem::take(&mut self.mac_fx);
                    for r in self.channel.tx_receivers(begin.tx_id) {
                        if !r.fresh_busy {
                            continue;
                        }
                        let v = r.node as usize;
                        if self.mac_sensitive[v] {
                            // Sensitive implies non-stale: the flag only
                            // becomes sensitive inside `mac_call`, which
                            // resynchronizes first.
                            debug_assert!(!self.carrier_stale[v]);
                            self.macs[v].on_channel_busy_into(now, &mut fx);
                            self.mac_sensitive[v] = self.macs[v].transition_sensitive();
                            work.extend(fx.drain(..).map(|e| Work::Mac(v, e)));
                        } else {
                            self.carrier_stale[v] = true;
                        }
                    }
                    self.mac_fx = fx;
                    self.ph_add(t0, PhaseSel::Mac);
                }
            }
            MacEffect::SetTimer(kind, delay) => self.mac_set(node, kind, delay),
            MacEffect::CancelTimer(kind) => self.mac_cancel(node, kind),
            MacEffect::Deliver { from, payload } => match payload {
                Payload::Control(cp) => {
                    let cp = Arc::try_unwrap(cp).unwrap_or_else(|arc| (*arc).clone());
                    let t0 = self.ph_t0();
                    let fx = {
                        let mut ctx = ProtoCtx {
                            now,
                            rng: &mut self.proto_rngs[node],
                        };
                        self.protos[node].on_control_received(&mut ctx, from, cp)
                    };
                    self.ph_add(t0, PhaseSel::Proto);
                    for e in fx {
                        work.push_back(Work::Proto(node, e));
                    }
                }
                Payload::Data(dp) => {
                    let dp = Arc::try_unwrap(dp).unwrap_or_else(|arc| (*arc).clone());
                    let t0 = self.ph_t0();
                    let fx = {
                        let mut ctx = ProtoCtx {
                            now,
                            rng: &mut self.proto_rngs[node],
                        };
                        self.protos[node].on_data_received(&mut ctx, from, dp)
                    };
                    self.ph_add(t0, PhaseSel::Proto);
                    for e in fx {
                        work.push_back(Work::Proto(node, e));
                    }
                }
            },
            MacEffect::TxDone { .. } => {}
            MacEffect::TxFailed { dst, payload } => {
                let d = self
                    .mobility
                    .position(node, now)
                    .distance(&self.mobility.position(dst, now));
                if !self.admittance.allows(node, dst) {
                    self.metrics.link_failures_gated += 1;
                } else if d <= self.scenario.mac.phy.rx_range_m {
                    self.metrics.link_failures_in_range += 1;
                } else {
                    self.metrics.link_failures_out_of_range += 1;
                }
                let pkt = match payload {
                    Payload::Data(dp) => {
                        Some(Arc::try_unwrap(dp).unwrap_or_else(|arc| (*arc).clone()))
                    }
                    Payload::Control(_) => None,
                };
                if let (Some(dp), Some(tr)) = (&pkt, &mut self.trace) {
                    tr.record(
                        dp.uid,
                        TraceEvent::ForwardFailed {
                            from: node,
                            to: dst,
                            time: now,
                        },
                    );
                }
                let t0 = self.ph_t0();
                let fx = {
                    let mut ctx = ProtoCtx {
                        now,
                        rng: &mut self.proto_rngs[node],
                    };
                    self.protos[node].on_link_failure(&mut ctx, dst, pkt)
                };
                self.ph_add(t0, PhaseSel::Proto);
                for e in fx {
                    work.push_back(Work::Proto(node, e));
                }
            }
            MacEffect::Dropped { payload, .. } => {
                // IFQ overflow; data packets are lost here.
                if let Payload::Data(_) = payload {
                    *self.metrics.drops.entry("ifq-overflow").or_insert(0) += 1;
                }
            }
        }
    }

    fn apply_proto(&mut self, node: usize, eff: ProtoEffect, work: &mut VecDeque<Work>) {
        let now = self.sim.now();
        match eff {
            ProtoEffect::SendControl { packet, next_hop } => {
                self.metrics.record_control(packet.kind_name());
                let bytes = packet.wire_bytes();
                self.mac_call(node, work, |mac, fx| {
                    mac.enqueue_into(
                        Payload::Control(Arc::new(packet)),
                        next_hop,
                        bytes,
                        true,
                        now,
                        fx,
                    )
                });
            }
            ProtoEffect::SendData { packet, next_hop } => {
                self.metrics.data_tx += 1;
                if let Some(tr) = &mut self.trace {
                    tr.record(
                        packet.uid,
                        TraceEvent::Forwarded {
                            from: node,
                            to: next_hop,
                            time: now,
                        },
                    );
                }
                let bytes = packet.bytes
                    + packet
                        .source_route
                        .as_ref()
                        .map(|sr| sr.wire_bytes())
                        .unwrap_or(0);
                self.mac_call(node, work, |mac, fx| {
                    mac.enqueue_into(
                        Payload::Data(Arc::new(packet)),
                        Some(next_hop),
                        bytes,
                        false,
                        now,
                        fx,
                    )
                });
            }
            ProtoEffect::DeliverLocal(dp) => {
                if let Some(tr) = &mut self.trace {
                    tr.record(dp.uid, TraceEvent::Delivered { node, time: now });
                }
                if self.metrics.record_delivery(dp.uid, dp.origin_time, now) {
                    // First delivery after a disruption closes the
                    // route-repair latency clock.
                    if let Some(t0) = self.pending_repair.take() {
                        self.metrics.route_repair_latency_sum +=
                            now.saturating_since(t0).as_secs_f64();
                        self.metrics.route_repairs += 1;
                    }
                    // Geodesic stretch: hops taken (the originator sends
                    // at full TTL, each forwarder decrements once) vs the
                    // straight-line minimum at radio range.
                    let hops = u32::from(DATA_TTL - dp.ttl) + 1;
                    let line = self
                        .mobility
                        .position(dp.src, now)
                        .distance(&self.mobility.position(node, now));
                    let min_hops = (line / self.scenario.mac.phy.rx_range_m).ceil() as u32;
                    self.metrics.record_stretch(hops, min_hops);
                }
            }
            ProtoEffect::DropData { packet, reason } => {
                if let Some(tr) = &mut self.trace {
                    tr.record(
                        packet.uid,
                        TraceEvent::Dropped {
                            node,
                            reason,
                            time: now,
                        },
                    );
                }
                self.metrics.record_drop(reason);
            }
            ProtoEffect::SetTimer { token, delay } => self.proto_set(node, token, delay),
        }
    }

    fn account_tx(&mut self, frame: &Frame<Payload>) {
        if frame.kind == FrameKind::Data {
            // Control counting happens at enqueue time (per routing-layer
            // packet, not per MAC retry); nothing to do here.
        }
    }

    fn finalize_metrics(mut self) -> Metrics {
        self.metrics.sim_events = self.sim.processed();
        for mac in &self.macs {
            self.metrics.mac_drops += mac.counters.total_drops();
            self.metrics.mac_drop_retry += mac.counters.drop_retry;
            self.metrics.mac_drop_ifq += mac.counters.drop_ifq;
            self.metrics.mac_tx_data += mac.counters.tx_data;
        }
        self.metrics.collisions = self.channel.stats.collisions;
        for p in &self.protos {
            let st = p.stats();
            self.metrics.seqno_increments_total += st.own_seqno_increments;
            self.metrics.max_fd_denominator =
                self.metrics.max_fd_denominator.max(st.max_fd_denominator);
            self.metrics.discoveries += st.discoveries;
            self.metrics.resets += st.resets_requested;
            self.metrics.adversary_actions += st.adversarial_actions;
            self.metrics.audit_rejections += st.audit_rejections;
        }
        self.metrics
    }

    /// Which nodes run adversarial scripts this trial (empty when the
    /// scenario fields no adversaries).
    pub fn adversary_mask(&self) -> &[bool] {
        &self.adversary_mask
    }

    /// Access to per-node protocol state (testing/diagnostics).
    pub fn protocol(&self, node: usize) -> &dyn RoutingProtocol {
        self.protos[node].as_ref()
    }

    /// Machine-checks Theorem 3 on the *live* SRP state: for every
    /// destination, the global successor graph must be acyclic and every
    /// successor edge must point at a strictly lower recorded ordering.
    ///
    /// Returns the number of edges whose successor's *current* label has
    /// drifted out of order (possible only across DELETE_PERIOD forgetting;
    /// must not coincide with a cycle).
    ///
    /// # Panics
    ///
    /// Panics if the protocol under test is not SRP.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated invariant.
    pub fn check_srp_loop_freedom(&self) -> Result<u64, String> {
        use slr_core::dag::find_cycle;
        use slr_protocols::srp::Srp;

        let srps: Vec<&Srp> = self
            .protos
            .iter()
            .map(|p| {
                p.as_any()
                    .downcast_ref::<Srp>()
                    .expect("loop-freedom oracle requires SRP")
            })
            .collect();
        let n = srps.len();
        let mut dests: Vec<usize> = srps.iter().flat_map(|s| s.oracle_destinations()).collect();
        dests.sort_unstable();
        dests.dedup();

        // In adversarial trials the loop-freedom contract is scoped to
        // the *honest subgraph*: an adversary advertises labels it does
        // not hold, so edges out of it encode its lies, not SRP state —
        // they are excluded from the cycle check and the soft census.
        // The per-edge recorded-ordering invariant stays global: it is
        // maintained locally by each node's (honest) inner engine
        // regardless of what its neighbors inject.
        let adversarial = |i: usize| self.adversary_mask.get(i).copied().unwrap_or(false);
        let now = self.now();
        let mut soft_violations = 0u64;
        for t in dests {
            let mut edges = Vec::new();
            for (i, srp) in srps.iter().enumerate() {
                let own = srp.oracle_label(t);
                for (j, recorded) in srp.oracle_successors(t, now) {
                    // Hard invariant: the node's label strictly precedes
                    // the ordering recorded for each successor (Eqs. 5–6).
                    if !own.precedes(&recorded) {
                        return Err(format!(
                            "dest {t}: node {i} label {own} !≺ recorded {recorded} at {j}"
                        ));
                    }
                    if adversarial(i) {
                        continue;
                    }
                    edges.push((i, j));
                    // Soft check: the successor's current label should
                    // still be in order unless it was forgotten.
                    let current = srps[j].oracle_label(t);
                    if !adversarial(j)
                        && !current.is_unassigned()
                        && !own.precedes(&current)
                        && j != t
                    {
                        soft_violations += 1;
                    }
                }
            }
            // Hard invariant: no routing loops, ever (Theorem 3).
            if let Some(cycle) = find_cycle(n, &edges) {
                // Dump each cycle node's label and successor entries so a
                // violation report is diagnosable post-mortem.
                let detail: Vec<String> = cycle
                    .iter()
                    .map(|&i| {
                        let succs: Vec<String> = srps[i]
                            .oracle_successors(t, now)
                            .into_iter()
                            .map(|(j, r)| format!("{j}:{r}"))
                            .collect();
                        format!(
                            "node {i} label {} succs [{}]",
                            srps[i].oracle_label(t),
                            succs.join(", ")
                        )
                    })
                    .collect();
                return Err(format!(
                    "dest {t}: successor cycle {cycle:?} — {}",
                    detail.join("; ")
                ));
            }
        }
        Ok(soft_violations)
    }

    /// Like [`Sim::run`], but additionally runs the SRP loop-freedom
    /// oracle every `check_interval` of virtual time, panicking on any
    /// hard violation. Returns the summary and the total count of soft
    /// order violations observed.
    ///
    /// Works under every engine — the ISSUE-4 principle that the oracle
    /// stays in the loop while the machinery around it is restructured
    /// (cf. *Sequence Numbers Do Not Guarantee Loop Freedom*). Periodic
    /// checkpoints land only at *timestamp boundaries* (the queue holds
    /// nothing more at the current instant), which every engine reaches
    /// in the identical sequence however it groups same-time events into
    /// dispatch units — so the sampling instants, the soft-violation
    /// census, and the check count are bit-identical across engines and
    /// worker counts. Adversarial trials additionally check after every
    /// instant at which an adversary acted.
    pub fn run_with_loop_oracle(mut self, check_interval: SimDuration) -> (TrialSummary, u64) {
        self.ensure_started();
        let end = self.scenario.end;
        let (mut soft, mut checks) = if self.engine == EngineKind::Parallel && self.workers > 1 {
            let threads = self.workers - 1;
            let this = &mut self;
            with_core_pool(threads, move |pool| {
                let sess = pool.session();
                this.oracle_loop(end, check_interval, Some(&sess))
            })
        } else {
            self.oracle_loop(end, check_interval, None)
        };
        soft += self
            .check_srp_loop_freedom()
            .unwrap_or_else(|e| panic!("loop-freedom violated: {e}"));
        checks += 1;
        self.metrics.oracle_checks = checks;
        self.metrics.oracle_soft_violations = soft;
        let nodes = self.scenario.nodes;
        let metrics = self.finalize_metrics();
        (metrics.summarize(nodes), soft)
    }

    /// The oracle-checked drive loop behind [`Sim::run_with_loop_oracle`]:
    /// returns `(soft violations, checks)` accumulated before the final
    /// end-of-trial check.
    fn oracle_loop(
        &mut self,
        end: SimTime,
        check_interval: SimDuration,
        exec: Option<&dyn WindowExec>,
    ) -> (u64, u64) {
        let mut next_check = SimTime::ZERO + check_interval;
        let mut soft = 0u64;
        let mut checks = 0u64;
        let has_adversaries = !self.adversary_mask.is_empty();
        let mut adv_actions = 0u64;
        loop {
            let pumped = self.pump(end, exec);
            if pumped == Pumped::Idle {
                break;
            }
            // Dynamics events are the adversarial moments: check the
            // instant *after* each one fires, not just on the periodic
            // grid, so a transient loop opened by a link flap cannot hide
            // between checkpoints. (Dynamics dispatch solo under every
            // engine, so these checks land at identical points too.)
            let force_check = matches!(pumped, Pumped::Event { dynamics: true });
            // Periodic checks sample only at timestamp boundaries — the
            // queue holds nothing more at `now` — which every engine
            // reaches in the identical sequence however it groups
            // same-time events into dispatch units (single events,
            // batched transmissions, or parallel windows). Checking
            // mid-timestamp would observe engine-dependent intermediate
            // states and diverge the soft census.
            let now = self.sim.now();
            let boundary = self.sim.peek_event().map_or(true, |(t, _)| t > now);
            // After any instant at which an adversary acted (forged,
            // replayed, dropped, delayed, flooded), check immediately: a
            // forged label that opens a loop must not hide until the
            // next grid point.
            let adv_acted = has_adversaries && boundary && {
                let total: u64 = self.protos.iter().map(|p| p.adversarial_actions()).sum();
                // `!=`, not `>`: a chaos self-crash rebuilds the wrapper
                // and resets its counter, so the sum can decrease.
                let acted = total != adv_actions;
                adv_actions = total;
                acted
            };
            if force_check || adv_acted || (boundary && now >= next_check) {
                soft += self
                    .check_srp_loop_freedom()
                    .unwrap_or_else(|e| panic!("loop-freedom violated: {e}"));
                checks += 1;
                next_check = now + check_interval;
            }
        }
        (soft, checks)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{ProtocolKind, Scenario};
    use slr_netsim::time::SimTime;
    use slr_traffic::PacketSpec;

    /// A 5-node line with 200 m spacing; node 0 sends CBR to node 4.
    fn line_trial(kind: ProtocolKind) -> TrialSummary {
        let mut scenario = Scenario::quick(kind, 900, 7, 0);
        scenario.end = SimTime::from_secs(60);
        let positions: Vec<Position> = (0..5)
            .map(|i| Position::new(200.0 * i as f64, 0.0))
            .collect();
        let packets: Vec<PacketSpec> = (0..100)
            .map(|i| PacketSpec {
                time: SimTime::from_millis(15_000 + i * 250),
                src: 0,
                dst: 4,
                bytes: 512,
                flow: 0,
            })
            .collect();
        scenario.nodes = 5;
        let sim =
            Sim::with_static_topology(scenario, positions, TrafficScript::from_packets(packets));
        sim.run()
    }

    #[test]
    fn srp_delivers_on_static_line() {
        let s = line_trial(ProtocolKind::Srp);
        assert_eq!(s.originated, 100);
        assert!(
            s.delivery_ratio > 0.95,
            "SRP static line delivery {} too low",
            s.delivery_ratio
        );
        assert!(s.avg_seqno == 0.0, "SRP must not touch sequence numbers");
        assert!(s.latency > 0.0 && s.latency < 0.5, "latency {}", s.latency);
    }

    #[test]
    fn aodv_delivers_on_static_line() {
        let s = line_trial(ProtocolKind::Aodv);
        assert!(s.delivery_ratio > 0.95, "AODV {}", s.delivery_ratio);
    }

    #[test]
    fn dsr_delivers_on_static_line() {
        let s = line_trial(ProtocolKind::Dsr);
        assert!(s.delivery_ratio > 0.95, "DSR {}", s.delivery_ratio);
    }

    #[test]
    fn ldr_delivers_on_static_line() {
        let s = line_trial(ProtocolKind::Ldr);
        assert!(s.delivery_ratio > 0.95, "LDR {}", s.delivery_ratio);
    }

    #[test]
    fn olsr_delivers_on_static_line() {
        let s = line_trial(ProtocolKind::Olsr);
        assert!(s.delivery_ratio > 0.9, "OLSR {}", s.delivery_ratio);
    }

    #[test]
    fn deterministic_across_runs() {
        let a = line_trial(ProtocolKind::Srp);
        let b = line_trial(ProtocolKind::Srp);
        assert_eq!(a, b, "same scenario+seed must reproduce bit-identically");
    }
}
