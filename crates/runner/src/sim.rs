//! The simulation harness: wires the mobility script, traffic script,
//! shared channel, per-node MACs and per-node routing protocols into one
//! deterministic discrete-event loop.
//!
//! Everything below the harness is a passive state machine; this module
//! owns the only event loop and interprets every effect, so cross-layer
//! interactions (carrier-sense callbacks, link-failure notifications,
//! timer bookkeeping) live in exactly one place.
//!
//! Five hook points carry every cross-cutting concern, one call site
//! each: `proto_call` (the only place a protocol handler runs, timed
//! under the protocol phase), `trace` (the only packet-trace guard),
//! `drop_data` (every data-packet loss — routing drops, crashed sources
//! and interface-queue overflows — traced and counted together),
//! `record_delivery` (every delivery, traced and counted) and `finish`
//! (the trial's end, shared by every `run_*` entry point). The parallel
//! engine's window merge replays through the same hooks, and its workers
//! reach protocols through the shard-local twin of `proto_call`.

use std::collections::VecDeque;
use std::sync::{Arc, Mutex};
use std::time::Duration;
#[expect(
    clippy::disallowed_types,
    reason = "host-clock phase and window timing; never feeds simulation state"
)]
use std::time::Instant;

use rand::rngs::SmallRng;
use rand::SeedableRng;

use slr_core::invariant::{check_acyclic, check_edge_order, InvariantViolation};
use slr_mobility::{MobilityScript, Position};
use slr_netsim::admittance::{Admittance, DynAction};
use slr_netsim::pool::{with_core_pool, WindowExec};
use slr_netsim::rng::{derive_seed, stream};
use slr_netsim::time::{SimDuration, SimTime};
use slr_netsim::{EventToken, Scheduled, Simulator};
use slr_protocols::{
    Adversary, Audit, ControlPacket, DataDropReason, DataPacket, ProtoCtx, ProtoEffect,
    RoutingProtocol, SuccessorView, DATA_TTL,
};
use slr_radio::{
    BeginTx, BruteForceMedium, Channel, Frame, Mac, MacConfig, MacEffect, MacTimer, NeighborQuery,
    Receiver, TxId, ValidatingQuery,
};
use slr_traffic::TrafficScript;

use crate::medium::{MediumView, PositionTracker};
use crate::metrics::{MemReport, Metrics, TrialSummary};
use crate::par::{self, Op, Shard, SharedCtx, Task, TaskKind, WorkerScratch};
use crate::scenario::{MobilitySpec, Scenario, TopologySpec};
use crate::trace::{TraceEvent, TraceLog};

/// Upper-layer payloads carried in MAC data frames.
///
/// Reference-counted: a frame's payload is cloned once per perceiving
/// receiver and again per MAC retry attempt, and control packets are
/// ~100-byte enums — at dense scale the deep copies were measurable.
/// The receiving protocol takes ownership at delivery
/// (`Arc::unwrap_or_clone` avoids the copy whenever the reference is
/// unique by then).
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
    /// [`Sim::with_workers`]); global side effects merge in canonical
    /// order, so output is bit-identical to [`EngineKind::Batched`] at
    /// any worker count. MAC timers (the only events that can start a
    /// transmission — DIFS/SIFS > 0 is the conservative-lookahead bound)
    /// and dynamics events dispatch serially between windows.
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
    /// The trial's one MAC configuration, shared by every node's MAC
    /// (a crash rebuild reuses it).
    mac_cfg: Arc<MacConfig>,
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
    /// Window-occupancy statistics for the parallel engine (cheap
    /// counters, always maintained; wall-clock shares only when
    /// [`Sim::run_with_window_stats`] turned timing on).
    wstats: WindowStats,
    /// Whether to pay for the serial/parallel wall-clock attribution.
    wstats_timing: bool,
    /// Per-phase wall-clock accumulators (batched engine only; enabled by
    /// [`Sim::run_phased`]).
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
    events: Vec<Scheduled<Event>>,
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
}

/// Window-occupancy statistics of one parallel-engine trial (the
/// benchmark's `runner.par.*` metrics). Counters are worker-count
/// independent diagnostics; the wall-clock fields are filled only by
/// [`Sim::run_with_window_stats`].
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct WindowStats {
    /// Events dispatched serially between windows (MAC timers, dynamics).
    pub serial_events: u64,
    /// Conservative windows executed.
    pub windows: u64,
    /// Events dispatched through windows.
    pub windowed_events: u64,
    /// Events in windows of two or more events.
    pub multi_events: u64,
    /// Largest window, in events.
    pub max_width: u64,
    /// Always 0: MAC timers never join windows. Kept only because the
    /// benchmark reads it; goes with the benchmark's next schema change.
    pub mac_hops: u64,
    /// Always 0: no medium query is speculated. Kept only because the
    /// benchmark reads it; goes with the benchmark's next schema change.
    pub spec_hits: u64,
    /// Always 0, like [`WindowStats::spec_hits`].
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
/// [`Sim::run_phased`]): the attribution behind the
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
        let mac_cfg = Arc::new(scenario.mac);
        let macs = (0..n)
            .map(|i| {
                let seed = derive_seed(master, &[0x6d61, i as u64]);
                Mac::new(i, Arc::clone(&mac_cfg), seed)
            })
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
            mac_cfg,
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
    pub fn with_engine(mut self, engine: EngineKind) -> Self {
        self.engine = engine;
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
    pub fn with_workers(mut self, workers: usize) -> Self {
        assert!(workers >= 1, "at least one worker (the dispatch thread)");
        self.workers = workers;
        self
    }

    /// Runs the trial with serial/parallel wall-clock attribution enabled
    /// and returns the summary plus the window-occupancy statistics —
    /// the probe behind the benchmark's `runner.par.*` metrics. (The
    /// counters are always maintained; only the `Instant` probes are
    /// gated, since they are per-event and never free.)
    pub fn run_with_window_stats(mut self) -> (TrialSummary, WindowStats) {
        self.wstats_timing = true;
        self.run_loop();
        let stats = self.wstats;
        (self.finish().0, stats)
    }

    /// Cross-checks the spatial index's answer to every neighbor query
    /// the channel asks against the brute-force oracle over exact
    /// positions for the rest of the trial, panicking with a diagnostic
    /// on the first divergence (`slrsim --validate-spatial`). Output is
    /// unchanged.
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
        let trace = self.trace.take().expect("enabled above");
        (self.finish().0, trace)
    }

    /// Runs the trial and returns both the summary and the full metrics
    /// (drop breakdowns, per-kind control counts, …).
    pub fn run_detailed(mut self) -> (TrialSummary, Metrics) {
        self.run_loop();
        self.finish()
    }

    /// Runs the trial to completion and returns its summary.
    pub fn run(self) -> TrialSummary {
        self.run_detailed().0
    }

    /// Like [`Sim::run_detailed`], additionally reporting the end-of-run
    /// per-subsystem memory footprint ([`Sim::mem_report`]) — the probe
    /// behind the benchmark's `runner.mem.*` metrics.
    pub fn run_with_mem_report(mut self) -> (TrialSummary, Metrics, MemReport) {
        self.run_loop();
        let report = self.mem_report();
        let (summary, metrics) = self.finish();
        (summary, metrics, report)
    }

    /// Like [`Sim::run_detailed`], additionally reporting where the wall
    /// clock went by harness phase (medium / signal / MAC / protocol).
    /// The attribution behind the benchmark's `runner.sim.phase_*_s`
    /// metrics; meaningful under the batched engine only — the parallel
    /// engine's workers overlap phases by design, so per-phase wall clock
    /// is not well-defined there.
    pub fn run_phased(mut self) -> (TrialSummary, Metrics, PhaseTimes) {
        self.phase = Some(Box::default());
        self.run_loop();
        let phases = *self.phase.take().expect("enabled above");
        let (summary, metrics) = self.finish();
        (summary, metrics, phases)
    }

    /// Phase-timing probe: the start instant, taken only when enabled.
    #[inline]
    #[expect(
        clippy::disallowed_types,
        reason = "host-clock profiling; never feeds simulation state"
    )]
    fn ph_t0(&self) -> Option<Instant> {
        if self.phase.is_some() {
            Some(Instant::now())
        } else {
            None
        }
    }

    /// Phase-timing probe: accumulates the elapsed time since `t0`.
    #[inline]
    #[expect(
        clippy::disallowed_types,
        reason = "host-clock profiling; never feeds simulation state"
    )]
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

    /// Runs one handler of `node`'s routing protocol at the current time
    /// with the node's RNG stream, timed under the protocol phase: the
    /// only place the serial harness calls into a protocol.
    fn proto_call(
        &mut self,
        node: usize,
        f: impl FnOnce(&mut dyn RoutingProtocol, &mut ProtoCtx<'_>) -> Vec<ProtoEffect>,
    ) -> Vec<ProtoEffect> {
        let t0 = self.ph_t0();
        let mut ctx = ProtoCtx {
            now: self.sim.now(),
            rng: &mut self.proto_rngs[node],
        };
        let fx = f(&mut *self.protos[node], &mut ctx);
        self.ph_add(t0, PhaseSel::Proto);
        fx
    }

    /// Records `ev` in packet `uid`'s trace when tracing is enabled.
    #[inline]
    fn trace(&mut self, uid: u64, ev: TraceEvent) {
        if let Some(tr) = &mut self.trace {
            tr.record(uid, ev);
        }
    }

    /// A data packet is lost at `node`: traces the drop and counts it
    /// under `reason`. Every data loss the metrics count passes here.
    fn drop_data(&mut self, node: usize, uid: u64, reason: DataDropReason) {
        let time = self.sim.now();
        self.trace(uid, TraceEvent::Dropped { node, reason, time });
        self.metrics.record_drop(reason);
    }

    /// Schedules the scripted inputs (application packets, dynamics
    /// events) and starts every protocol. The time-sorted packet script
    /// goes beside the heap in one stream; dynamics events stay on it.
    fn startup(&mut self) {
        self.sim.schedule_sorted(
            self.traffic
                .packets()
                .iter()
                .enumerate()
                .map(|(i, p)| (p.time, Event::App(i))),
        );
        for (i, (time, _)) in self.dynamics.iter().enumerate() {
            self.sim.schedule_at(*time, Event::Dynamics(i));
        }
        for node in 0..self.protos.len() {
            let fx = self.proto_call(node, |p, ctx| p.on_start(ctx));
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
        self.drive(|_, _| {});
    }

    /// Drives the trial to its end, calling `step` after every unit of
    /// work [`Sim::pump`] processes (the loop oracle checks there; plain
    /// runs pass a no-op). Stands up the trial's window pool once for the
    /// whole run when the parallel engine wants more than one worker.
    fn drive(&mut self, mut step: impl FnMut(&mut Self, Pumped)) {
        self.ensure_started();
        let end = self.scenario.end;
        let mut pump_to_end = |sim: &mut Self, exec: Option<&dyn WindowExec>| loop {
            match sim.pump(end, exec) {
                Pumped::Idle => return,
                pumped => step(sim, pumped),
            }
        };
        if self.engine == EngineKind::Parallel && self.workers > 1 {
            with_core_pool(self.workers - 1, |pool| {
                pump_to_end(self, Some(&pool.session()));
            });
        } else {
            pump_to_end(self, None);
        }
    }

    /// Processes one unit of work strictly before `end`: a single serial
    /// event (batched engine; MAC-timer and dynamics events under the
    /// parallel engine) or one conservative window of node-local tasks
    /// (see the invariant write-up in [`crate::par`]).
    fn pump(&mut self, end: SimTime, exec: Option<&dyn WindowExec>) -> Pumped {
        if self.engine != EngineKind::Parallel {
            return match self.sim.next_before(end) {
                Some(ev) => {
                    let dynamics = matches!(ev.event, Event::Dynamics(_));
                    self.dispatch(ev);
                    Pumped::Event { dynamics }
                }
                None => Pumped::Idle,
            };
        }
        let head_safe = match self.sim.peek_event() {
            Some((t, ev)) if t < end => window_safe(ev),
            _ => return Pumped::Idle,
        };
        let t0 = self.ws_t0();
        let head = self.sim.next().expect("peeked above");
        if !head_safe {
            let dynamics = matches!(head.event, Event::Dynamics(_));
            self.dispatch(head);
            self.wstats.serial_events += 1;
            self.ws_serial(t0);
            return Pumped::Event { dynamics };
        }
        // Pop the maximal run of window-safe events sharing the head
        // timestamp, in heap order; a MAC timer or dynamics event ends it
        // unpopped. Every newly scheduled event is strictly later than
        // `t` (SIFS/DIFS, airtimes and timer delays are all positive) and
        // no window-safe event is ever cancelled, so the run is exactly
        // what the serial walk pops at `t` before its next MAC timer.
        let t = head.time;
        let mut events = std::mem::take(&mut self.win.events);
        debug_assert!(events.is_empty());
        events.push(head);
        while self
            .sim
            .peek_event()
            .is_some_and(|(t2, ev)| t2 == t && window_safe(ev))
        {
            events.push(self.sim.next().expect("peeked above"));
        }
        let width = events.len() as u64;
        self.wstats.windows += 1;
        self.wstats.windowed_events += width;
        if width >= 2 {
            self.wstats.multi_events += width;
        }
        self.wstats.max_width = self.wstats.max_width.max(width);
        if width == 1 {
            // A one-event window would only route the same serial dispatch
            // through task assembly, the pool and the merge — the output
            // is identical, and one transmission's receivers do not pay
            // for a pooled window — so dispatch it directly. It still
            // counts as a window: the stats describe window composition.
            let ev = events.pop().expect("pushed above");
            self.dispatch(ev);
            self.ws_serial(t0);
        } else {
            self.ws_serial(t0);
            self.execute_window(t, &events, exec);
            events.clear();
        }
        self.win.events = events;
        Pumped::Window
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
    /// `queue_bytes` counts the traffic script's capacity beside the heap
    /// until the trial ends, popped packets included.
    pub fn mem_report(&self) -> MemReport {
        MemReport {
            nodes: self.scenario.nodes,
            proto_bytes: self
                .protos
                .iter()
                .map(|p| std::mem::size_of_val(&**p) + p.mem_bytes())
                .sum(),
            mac_bytes: self.macs.iter().map(Mac::mem_bytes).sum::<usize>()
                + self.macs.capacity() * std::mem::size_of::<Mac<Payload>>()
                + self.mac_timers.capacity()
                    * std::mem::size_of::<[Option<EventToken>; MacTimer::COUNT]>(),
            channel_bytes: self.channel.mem_bytes(),
            spatial_bytes: self.tracker.mem_bytes(),
            queue_bytes: self.sim.queue_mem_bytes(),
            metrics_bytes: self.metrics.dedup_mem_bytes(),
        }
    }

    fn dispatch(&mut self, ev: Scheduled<Event>) {
        match ev.event {
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
                let time = self.sim.now();
                let node = spec.src;
                self.trace(packet.uid, TraceEvent::Originated { node, time });
                // A crashed source cannot inject traffic; the offered
                // packet still counts against delivery (losses must not
                // vanish from the denominator).
                if !self.admittance.node_is_up(node) {
                    self.drop_data(node, packet.uid, DataDropReason::NodeDown);
                    return;
                }
                let fx = self.proto_call(node, |p, ctx| p.on_data_from_app(ctx, packet));
                self.drain_proto(node, fx);
            }
            Event::ProtoTimer(node, epoch, token) => {
                if epoch != self.epochs[node] {
                    return; // Timer owned by a pre-crash incarnation.
                }
                let fx = self.proto_call(node, |p, ctx| p.on_timer(ctx, token));
                self.drain_proto(node, fx);
            }
            Event::MacTimer(node, kind) => {
                // Tripwire: only the armed instance may fire. Disarming
                // (re-arm, cancel, crash) cancels through the queue, so a
                // mismatch means an engine popped a timer the serial walk
                // would have cancelled first.
                let armed = self.mac_timers[node][kind.index()].take();
                debug_assert_eq!(
                    armed,
                    Some(ev.token),
                    "node {node}'s {kind:?} timer fired after being disarmed"
                );
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
    /// global side effect in canonical (task, emission) order and retires
    /// the window's transmissions. Bit-identical to dispatching the same
    /// events through the serial batched path, at any worker count.
    fn execute_window(
        &mut self,
        now: SimTime,
        events: &[Scheduled<Event>],
        exec: Option<&dyn WindowExec>,
    ) {
        // Execution width, decided from a counting pass before anything
        // is mutated: pooled workers only pay off past a per-worker grain
        // of tasks. The width is clamped to the node count (a shard needs
        // at least one node) and to the executor's shard capacity.
        let n = self.protos.len();
        let mut worker_tasks = 0usize;
        for ev in events {
            match ev.event {
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
            for ev in events {
                self.dispatch(ev.clone());
            }
            self.ws_serial(t_ser);
            return;
        }
        let mut tasks = std::mem::take(&mut self.win.tasks);
        let mut txs = std::mem::take(&mut self.win.txs);
        debug_assert!(tasks.is_empty() && txs.is_empty());
        for ev in events {
            match ev.event {
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
                    if shard.owns(task.owner) {
                        par::run_task(i as u32, task, &mut shard, ctx_ref, &mut scratch);
                    }
                }
                *slot.lock().expect("window slot") = Some((shard, scratch));
            });
            for slot in slots {
                let (shard, mut scratch) =
                    slot.into_inner().expect("window mutex").expect("refilled");
                chan_delivered += shard.chan.delivered;
                chan_collisions += shard.chan.collisions;
                ops_by_worker.push(std::mem::take(&mut scratch.ops));
                self.par_scratch.push(scratch);
            }
        }
        self.ws_parallel(t_par);
        let t_ser = self.ws_t0();
        self.channel.stats.delivered += chan_delivered;
        self.channel.stats.collisions += chan_collisions;

        // Replay the buffered global effects in canonical order: tasks in
        // window order, each task's ops in emission order, each op through
        // the statement the serial dispatch runs. Each worker's buffer is
        // already sorted by task index (it walked its tasks in window
        // order), so the merge is a cursor walk.
        for v in &mut ops_by_worker {
            v.reverse(); // pop from the back = front of the op stream
        }
        for (t, task) in tasks.iter().enumerate() {
            let w = par::worker_of(task.owner, n, width);
            while ops_by_worker[w]
                .last()
                .is_some_and(|(ti, _)| *ti == t as u32)
            {
                let (_, op) = ops_by_worker[w].pop().expect("checked");
                self.apply_op(op);
            }
        }
        debug_assert!(ops_by_worker.iter().all(|v| v.is_empty()));
        // Hand the (now empty, capacity-retaining) op buffers back.
        for (i, v) in ops_by_worker.drain(..).enumerate() {
            self.par_scratch[i].ops = v;
        }
        self.win.op_lists = ops_by_worker;
        self.win.bounds = bounds;

        // Channel epilogue, in window order: recycle each transmission's
        // receiver vector and retire its in-flight entry — the tail of
        // the serial batched walk. Deferring it past the merge is sound:
        // retirement touches no per-node state (the taken entry is a
        // `None` hole until the deque front-compacts), and no
        // transmission can begin inside a window.
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
    #[expect(
        clippy::disallowed_types,
        reason = "host-clock profiling; never feeds simulation state"
    )]
    fn ws_t0(&self) -> Option<Instant> {
        if self.wstats_timing {
            Some(Instant::now())
        } else {
            None
        }
    }

    /// Accumulates elapsed serial-section wall clock since `t0`.
    #[inline]
    #[expect(
        clippy::disallowed_types,
        reason = "host-clock profiling; never feeds simulation state"
    )]
    fn ws_serial(&mut self, t0: Option<Instant>) {
        if let Some(t0) = t0 {
            self.wstats.serial_ns += t0.elapsed().as_nanos() as u64;
        }
    }

    /// Accumulates elapsed parallel-section wall clock since `t0`.
    #[inline]
    #[expect(
        clippy::disallowed_types,
        reason = "host-clock profiling; never feeds simulation state"
    )]
    fn ws_parallel(&mut self, t0: Option<Instant>) {
        if let Some(t0) = t0 {
            self.wstats.parallel_ns += t0.elapsed().as_nanos() as u64;
        }
    }

    /// Arms a MAC timer, cancelling any previously armed instance first
    /// (at most one live timer per (node, kind)).
    fn mac_set(&mut self, node: usize, kind: MacTimer, delay: SimDuration) {
        self.mac_cancel(node, kind);
        let tok = self.sim.schedule_in(delay, Event::MacTimer(node, kind));
        self.mac_timers[node][kind.index()] = Some(tok);
    }

    /// Disarms a MAC timer if armed.
    fn mac_cancel(&mut self, node: usize, kind: MacTimer) {
        if let Some(tok) = self.mac_timers[node][kind.index()].take() {
            self.sim.cancel(tok);
        }
    }

    /// Schedules a protocol timer for the node's current incarnation.
    fn proto_set(&mut self, node: usize, token: u64, delay: SimDuration) {
        let ev = Event::ProtoTimer(node, self.epochs[node], token);
        self.sim.schedule_in(delay, ev);
    }

    /// Applies one buffered global side effect — each arm is the exact
    /// statement the serial dispatch path would have executed in place.
    fn apply_op(&mut self, op: Op) {
        match op {
            Op::MacSet { node, kind, delay } => self.mac_set(node as usize, kind, delay),
            Op::MacCancel { node, kind } => self.mac_cancel(node as usize, kind),
            Op::ProtoSet { node, token, delay } => self.proto_set(node as usize, token, delay),
            Op::Control { kind } => self.metrics.record_control(kind),
            Op::DataTx => self.metrics.data_tx += 1,
            Op::Originated => self.metrics.data_originated += 1,
            Op::Drop { node, uid, reason } => self.drop_data(node as usize, uid, reason),
            Op::LinkFailGated => self.metrics.link_failures_gated += 1,
            Op::LinkFailInRange => self.metrics.link_failures_in_range += 1,
            Op::LinkFailOutOfRange => self.metrics.link_failures_out_of_range += 1,
            Op::Delivery {
                node,
                uid,
                origin,
                hops,
                min_hops,
            } => self.record_delivery(node as usize, uid, origin, hops, min_hops),
            Op::Trace { uid, ev } => self.trace(uid, ev),
        }
    }

    /// Delivery bookkeeping, shared by the serial dispatch and the window
    /// merge: traces the arrival at `node`, counts the delivery and, the
    /// first time `uid` arrives, closes the route-repair latency clock
    /// left open by a disruption and records the path's geodesic stretch.
    fn record_delivery(
        &mut self,
        node: usize,
        uid: u64,
        origin: SimTime,
        hops: u32,
        min_hops: u32,
    ) {
        let now = self.sim.now();
        self.trace(uid, TraceEvent::Delivered { node, time: now });
        if self.metrics.record_delivery(uid, origin, now) {
            if let Some(t0) = self.pending_repair.take() {
                self.metrics.route_repair_latency_sum += now.saturating_since(t0).as_secs_f64();
                self.metrics.route_repairs += 1;
            }
            self.metrics.record_stretch(hops, min_hops);
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
                    Arc::clone(&self.mac_cfg),
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
                let fx = self.proto_call(i, |p, ctx| p.on_rejoin(ctx));
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
    /// Syncs the incremental tracker and answers from the spatial index;
    /// under `--validate-spatial` every answer is cross-checked against
    /// the brute-force oracle over the exact full snapshot. Scenarios
    /// without a dynamics schedule skip the admittance gate entirely —
    /// this is the simulator's hottest loop.
    fn begin_tx_on_medium(&mut self, frame: Frame<Payload>, now: SimTime) -> BeginTx {
        if self.validate_spatial {
            self.fill_snapshot(now);
        }
        self.tracker.sync_to(&self.mobility, now);
        let view = MediumView::new(&self.tracker, &self.mobility, now);
        let oracle = BruteForceMedium(&self.snapshot);
        let checked = ValidatingQuery {
            fast: &view,
            oracle: &oracle,
        };
        let medium: &dyn NeighborQuery = if self.validate_spatial {
            &checked
        } else {
            &view
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
                // The channel consults the admittance per receiver: gated
                // links (churn outage, partition, crashed node) perceive
                // nothing, so unicasts toward them burn MAC retries and
                // surface as link failures to the routing layer.
                let t0 = self.ph_t0();
                let begin = self.begin_tx_on_medium(frame, now);
                self.ph_add(t0, PhaseSel::Medium);
                let end_at = now + begin.airtime;
                let ev = Event::TxComplete(node, self.epochs[node], begin.tx_id);
                self.sim.schedule_at(end_at, ev);
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
            MacEffect::Deliver { from, payload } => {
                let fx = match payload {
                    Payload::Control(cp) => {
                        let cp = Arc::unwrap_or_clone(cp);
                        self.proto_call(node, |p, ctx| p.on_control_received(ctx, from, cp))
                    }
                    Payload::Data(dp) => {
                        let dp = Arc::unwrap_or_clone(dp);
                        self.proto_call(node, |p, ctx| p.on_data_received(ctx, from, dp))
                    }
                };
                work.extend(fx.into_iter().map(|e| Work::Proto(node, e)));
            }
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
                    Payload::Data(dp) => Some(Arc::unwrap_or_clone(dp)),
                    Payload::Control(_) => None,
                };
                if let Some(dp) = &pkt {
                    let (from, to, time) = (node, dst, now);
                    self.trace(dp.uid, TraceEvent::ForwardFailed { from, to, time });
                }
                let fx = self.proto_call(node, |p, ctx| p.on_link_failure(ctx, dst, pkt));
                work.extend(fx.into_iter().map(|e| Work::Proto(node, e)));
            }
            MacEffect::Dropped { payload, .. } => {
                // Interface-queue overflow; data packets are lost here.
                if let Payload::Data(dp) = payload {
                    self.drop_data(node, dp.uid, DataDropReason::IfqOverflow);
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
                let (from, to, time) = (node, next_hop, now);
                self.trace(packet.uid, TraceEvent::Forwarded { from, to, time });
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
                let (hops, min_hops) = par::stretch_hops(
                    &dp,
                    node,
                    now,
                    &self.mobility,
                    self.scenario.mac.phy.rx_range_m,
                );
                self.record_delivery(node, dp.uid, dp.origin_time, hops, min_hops);
            }
            ProtoEffect::DropData { packet, reason } => self.drop_data(node, packet.uid, reason),
            ProtoEffect::SetTimer { token, delay } => self.proto_set(node, token, delay),
        }
    }

    /// Ends the trial: folds the per-node MAC, channel and protocol
    /// counters into the metrics and summarizes them. The common tail of
    /// every `run_*` entry point.
    fn finish(mut self) -> (TrialSummary, Metrics) {
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
        (self.metrics.summarize(self.scenario.nodes), self.metrics)
    }

    /// Machine-checks the live successor graph of every destination:
    /// every edge must satisfy Definition 1 (`own ≺ recorded`,
    /// [`check_edge_order`]) and the honest subgraph must be acyclic
    /// (Theorem 3, [`check_acyclic`]).
    ///
    /// Returns the number of edges whose successor's *current* label has
    /// drifted out of order (possible only across DELETE_PERIOD forgetting;
    /// must not coincide with a cycle).
    ///
    /// # Panics
    ///
    /// Panics if a node's protocol exposes no [`SuccessorView`].
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated invariant.
    pub fn check_loop_freedom(&self) -> Result<u64, String> {
        let views: Vec<&dyn SuccessorView> = self
            .protos
            .iter()
            .map(|p| {
                p.successor_view().unwrap_or_else(|| {
                    panic!("loop-freedom oracle: {} has no successor view", p.name())
                })
            })
            .collect();
        let n = views.len();
        let mut dests = Vec::new();
        for view in &views {
            view.destinations(&mut dests);
        }
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
        let mut edges = Vec::new();
        for t in dests {
            edges.clear();
            for view in &views {
                view.successors(t, now, &mut edges);
            }
            check_edge_order(t, &edges).map_err(|v| v.to_string())?;
            edges.retain(|e| !adversarial(e.from));
            // Soft check: the successor's current label should still be
            // in order unless it was forgotten.
            soft_violations += edges
                .iter()
                .filter(|e| {
                    let current = views[e.to].label(t);
                    !adversarial(e.to)
                        && !current.is_unassigned()
                        && !e.own.precedes(&current)
                        && e.to != t
                })
                .count() as u64;
            if let Err(v) = check_acyclic(t, n, &edges) {
                // Each cycle node's label and successor entries, so a
                // violation report is diagnosable post-mortem.
                let mut report = v.to_string();
                if let InvariantViolation::Cycle { nodes, .. } = &v {
                    for &i in nodes {
                        report += &format!(" — node {i} label {} succs", views[i].label(t));
                        for e in edges.iter().filter(|e| e.from == i) {
                            report += &format!(" {}:{}", e.to, e.recorded);
                        }
                    }
                }
                return Err(report);
            }
        }
        Ok(soft_violations)
    }

    /// Like [`Sim::run`], but additionally runs the loop-freedom oracle
    /// ([`Sim::check_loop_freedom`]) every `check_interval` of virtual
    /// time, panicking on any hard violation. The summary's
    /// `oracle_checks` and `oracle_soft_violations` count the checkpoints
    /// and the soft order violations observed.
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
    pub fn run_with_loop_oracle(mut self, check_interval: SimDuration) -> TrialSummary {
        let mut next_check = SimTime::ZERO + check_interval;
        let mut soft = 0u64;
        let mut checks = 0u64;
        let has_adversaries = !self.adversary_mask.is_empty();
        let mut adv_actions = 0u64;
        self.drive(|sim, pumped| {
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
            let now = sim.sim.now();
            let boundary = sim.sim.peek_event().map_or(true, |(t, _)| t > now);
            // After any instant at which an adversary acted (forged,
            // replayed, dropped, delayed, flooded), check immediately: a
            // forged label that opens a loop must not hide until the
            // next grid point.
            let adv_acted = has_adversaries && boundary && {
                let total: u64 = sim.protos.iter().map(|p| p.adversarial_actions()).sum();
                // `!=`, not `>`: a chaos self-crash rebuilds the wrapper
                // and resets its counter, so the sum can decrease.
                let acted = total != adv_actions;
                adv_actions = total;
                acted
            };
            if force_check || adv_acted || (boundary && now >= next_check) {
                soft += sim
                    .check_loop_freedom()
                    .unwrap_or_else(|e| panic!("loop-freedom violated: {e}"));
                checks += 1;
                next_check = now + check_interval;
            }
        });
        soft += self
            .check_loop_freedom()
            .unwrap_or_else(|e| panic!("loop-freedom violated: {e}"));
        checks += 1;
        self.metrics.oracle_checks = checks;
        self.metrics.oracle_soft_violations = soft;
        self.finish().0
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
