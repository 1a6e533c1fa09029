//! The named scenario registry: every workload family the harness can run,
//! each sweepable over any scalar scenario parameter.
//!
//! A [`Family`] is a named recipe that turns `(protocol, seed, trial,
//! scale)` into a [`Scenario`]; a [`SweepParam`] names the scalar knob an
//! experiment varies across points. Together they generalize the paper's
//! single pause-time sweep: `slrsim --scenario grid --param nodes
//! --values 9,25,49` runs a node-count sweep over static grids with the
//! same statistics/report pipeline the §V reproduction uses.
//!
//! Families beyond the paper:
//!
//! * [`Family::Grid`] / [`Family::Line`] — static structured topologies:
//!   connectivity and loop-freedom without churn (the setting where
//!   sequence-number protocols are *supposed* to be safe; see van
//!   Glabbeek et al., arXiv:1512.08891, for why topology shape matters);
//! * [`Family::Disc`] — every node within (or near) radio range of every
//!   other: pure contention stress with bursty Poisson arrivals;
//! * [`Family::Scaling`] — node-count scaling at constant density,
//!   mirroring how link-reversal/backpressure evaluations scale networks
//!   (Rai et al., arXiv:1503.06857);
//! * [`Family::Churn`] / [`Family::Partition`] / [`Family::CrashRejoin`] —
//!   static grids under *administrative* topology dynamics (seeded link
//!   flaps, planned partition/heal, node crash–rejoin): the adversarial
//!   link-dynamics setting in which sequence-number protocols are known to
//!   loop (van Glabbeek et al., arXiv:1512.08891) and the direct test of
//!   the paper's loop-free-at-every-instant thesis.

use slr_mobility::Terrain;
use slr_netsim::time::{SimDuration, SimTime, MAX_SECS};
use slr_traffic::ArrivalProcess;

use crate::adversary::AdversarySpec;
use crate::dynamics::DynamicsSpec;
use crate::scenario::{MobilitySpec, ProtocolKind, Scenario, TopologySpec, TrafficSpec};

/// The scalar scenario parameter a sweep varies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SweepParam {
    /// Random-waypoint pause time in seconds (the paper's x-axis).
    Pause,
    /// Number of nodes.
    Nodes,
    /// Number of simultaneous flows.
    Flows,
    /// Per-flow packet rate in packets/second.
    PacketRate,
    /// Maximum node speed in m/s.
    MaxSpeed,
    /// Link-churn rate in down transitions per link per minute.
    ChurnRate,
    /// Adversarial node fraction in percent.
    Adversaries,
}

impl SweepParam {
    /// Every sweepable parameter.
    pub const ALL: [SweepParam; 7] = [
        SweepParam::Pause,
        SweepParam::Nodes,
        SweepParam::Flows,
        SweepParam::PacketRate,
        SweepParam::MaxSpeed,
        SweepParam::ChurnRate,
        SweepParam::Adversaries,
    ];

    /// CLI / JSON name.
    pub fn name(&self) -> &'static str {
        match self {
            SweepParam::Pause => "pause",
            SweepParam::Nodes => "nodes",
            SweepParam::Flows => "flows",
            SweepParam::PacketRate => "rate",
            SweepParam::MaxSpeed => "speed",
            SweepParam::ChurnRate => "churn",
            SweepParam::Adversaries => "adversaries",
        }
    }

    /// Axis label used in reports.
    pub fn label(&self) -> &'static str {
        match self {
            SweepParam::Pause => "Pause Time (seconds)",
            SweepParam::Nodes => "Number of Nodes",
            SweepParam::Flows => "Concurrent Flows",
            SweepParam::PacketRate => "Packets/s per Flow",
            SweepParam::MaxSpeed => "Max Speed (m/s)",
            SweepParam::ChurnRate => "Link Flaps per Minute",
            SweepParam::Adversaries => "Adversarial Nodes (%)",
        }
    }

    /// Parses a CLI name.
    pub fn parse(s: &str) -> Option<SweepParam> {
        SweepParam::ALL
            .into_iter()
            .find(|p| p.name() == s.to_ascii_lowercase())
    }

    /// Applies `value` to `scenario`.
    pub fn apply(&self, scenario: &mut Scenario, value: u64) {
        match self {
            SweepParam::Pause => scenario.set_pause(SimDuration::from_secs(value)),
            SweepParam::Nodes => scenario.nodes = value as usize,
            SweepParam::Flows => scenario.set_flows(value as usize),
            SweepParam::PacketRate => scenario.traffic.packets_per_second = value as f64,
            SweepParam::MaxSpeed => {
                if let MobilitySpec::RandomWaypoint { max_speed, .. } = &mut scenario.mobility {
                    *max_speed = (value as f64).max(0.2);
                }
            }
            SweepParam::ChurnRate => match &mut scenario.dynamics {
                DynamicsSpec::LinkChurn {
                    flaps_per_minute, ..
                } => *flaps_per_minute = value as f64,
                dynamics => {
                    *dynamics = DynamicsSpec::LinkChurn {
                        flaps_per_minute: value as f64,
                        mean_down_secs: 2.0,
                    }
                }
            },
            SweepParam::Adversaries => match &mut scenario.adversary {
                // Byzantine is the default misbehaviour when the base
                // scenario fields none; the adversary families (and
                // --adversary) pick the kind, the sweep sets the fraction.
                AdversarySpec::None => {
                    scenario.adversary = AdversarySpec::Byzantine { percent: value }
                }
                spec => spec.set_percent(value),
            },
        }
    }

    /// Rejects values that would build a degenerate scenario (and panic a
    /// sweep worker with an opaque message deep in script generation).
    pub fn validate_value(&self, value: u64) -> Result<(), String> {
        match self {
            SweepParam::Pause if value > MAX_SECS => Err(format!(
                "pause must be at most {MAX_SECS} s (the simulated clock's range), got {value}"
            )),
            SweepParam::Nodes if value < 2 => Err(format!("nodes must be >= 2, got {value}")),
            // The spatial index numbers nodes with `u32` ids.
            SweepParam::Nodes if value > u64::from(u32::MAX) => {
                Err(format!("nodes must be at most {}, got {value}", u32::MAX))
            }
            SweepParam::Flows if value < 1 => Err("flows must be >= 1".to_string()),
            SweepParam::PacketRate if value < 1 => Err("rate must be >= 1 packet/s".to_string()),
            SweepParam::MaxSpeed if value < 1 => Err("speed must be >= 1 m/s".to_string()),
            SweepParam::ChurnRate if !(1..=60).contains(&value) => {
                Err(format!("churn must be 1..=60 flaps/min, got {value}"))
            }
            SweepParam::Adversaries if !(1..=49).contains(&value) => {
                Err(format!("adversaries must be 1..=49 percent, got {value}"))
            }
            _ => Ok(()),
        }
    }
}

/// A named scenario family.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Family {
    /// The paper's §V evaluation: uniform random placement, random
    /// waypoint mobility, CBR flows, swept over pause time.
    PaperSweep,
    /// Static near-square grid (180 m spacing): multihop connectivity and
    /// loop-freedom with zero churn; swept over node count.
    Grid,
    /// Static line (200 m spacing): the paper's Fig. 1 topology scaled
    /// up; maximal hop counts per node; swept over node count.
    Line,
    /// High-density disc (250 m radius, everyone near everyone) with
    /// bursty Poisson traffic: contention stress; swept over flow count.
    Disc,
    /// Node-count scaling at constant density (≈1 node / 13 200 m², the
    /// paper's density), random waypoint, CBR; swept 50 → 300 nodes.
    Scaling,
    /// Static grid under seeded per-link up/down churn; swept over the
    /// churn rate (link flaps per minute).
    Churn,
    /// Static grid cut into geographic components mid-run and healed
    /// later; swept over node count.
    Partition,
    /// Static grid where nodes crash (drop all state) mid-run and restart
    /// cold later; swept over node count.
    CrashRejoin,
    /// Thousand-node scale: a constant-density disc of 1,000–5,000
    /// continuously-moving nodes — the massively-dense regime (Catanuto
    /// et al., INFOCOM 2007) that the spatial-index medium and the
    /// incremental position tracker exist to make tractable; swept over
    /// node count.
    Dense,
    /// Static grid where a fraction of the nodes forges labels/seqnos
    /// and replays stale updates; honest nodes carry the audit layer;
    /// swept over the adversarial fraction.
    Byzantine,
    /// Static grid where a fraction of the nodes forges control traffic
    /// under stolen identities; swept over the adversarial fraction.
    Sybil,
    /// Static grid where a fraction of the nodes drops/delays/replays
    /// control traffic and flaps its own links on purpose; swept over
    /// the adversarial fraction.
    Chaos,
    /// Hundred-thousand-node scale: a constant-density static disc of
    /// 100k–1M nodes with locality-bounded flows (sinks within
    /// [`Family::HUGE_LOCALITY_M`] of the source — a uniform pair on such
    /// a disc is hundreds of hops apart, far past the data TTL). The
    /// memory-lean profile's home turf; sweeping max speed turns it into
    /// the slow-waypoint variant. Swept over node count.
    Huge,
}

impl Family {
    /// Every registered family, in presentation order.
    pub const ALL: [Family; 13] = [
        Family::PaperSweep,
        Family::Grid,
        Family::Line,
        Family::Disc,
        Family::Scaling,
        Family::Churn,
        Family::Partition,
        Family::CrashRejoin,
        Family::Dense,
        Family::Huge,
        Family::Byzantine,
        Family::Sybil,
        Family::Chaos,
    ];

    /// The dense family's target density: one node per this many square
    /// meters (≈10 neighbors within the 250 m reception range — sparse
    /// enough that the O(N) brute-force scan, not the local degree,
    /// dominates an unindexed channel).
    pub const DENSE_AREA_PER_NODE_M2: f64 = 20_000.0;

    /// The huge family's flow-locality radius: sinks land within this
    /// many meters of the source, ≈ 8 hops at the 250 m reception range
    /// — comfortably inside the 64-hop data TTL, so delivery failures
    /// measure the protocol, not an unreachable script.
    pub const HUGE_LOCALITY_M: f64 = 2_000.0;

    /// CLI / JSON name.
    pub fn name(&self) -> &'static str {
        match self {
            Family::PaperSweep => "paper-sweep",
            Family::Grid => "grid",
            Family::Line => "line",
            Family::Disc => "disc",
            Family::Scaling => "scaling",
            Family::Churn => "churn",
            Family::Partition => "partition",
            Family::CrashRejoin => "crash-rejoin",
            Family::Dense => "dense",
            Family::Huge => "huge",
            Family::Byzantine => "byzantine",
            Family::Sybil => "sybil",
            Family::Chaos => "chaos",
        }
    }

    /// One-line description for `--list-scenarios`.
    pub fn summary(&self) -> &'static str {
        match self {
            Family::PaperSweep => {
                "the paper's §V setup: random waypoint + CBR, swept over pause time"
            }
            Family::Grid => "static near-square grid, no churn, swept over node count",
            Family::Line => "static line (maximal hop count), swept over node count",
            Family::Disc => "high-density disc + Poisson bursts, swept over flow count",
            Family::Scaling => "constant-density node-count scaling, 50→300 nodes",
            Family::Churn => "static grid under seeded link up/down churn, swept over churn rate",
            Family::Partition => "static grid split into components mid-run, then healed",
            Family::CrashRejoin => "static grid with nodes crashing cold and rejoining mid-run",
            Family::Dense => {
                "constant-density mobile disc at 1000-5000 nodes, swept over node count"
            }
            Family::Huge => {
                "memory-lean 100k+-node static disc with locality-bounded flows, swept over node count"
            }
            Family::Byzantine => {
                "static grid with label/seqno-forging nodes, swept over adversary fraction"
            }
            Family::Sybil => {
                "static grid with identity-forging nodes, swept over adversary fraction"
            }
            Family::Chaos => {
                "static grid with drop/delay/replay + self-flapping nodes, swept over fraction"
            }
        }
    }

    /// Parses a CLI name.
    pub fn parse(s: &str) -> Option<Family> {
        let lower = s.to_ascii_lowercase();
        match lower.as_str() {
            // Back-compat aliases.
            "paper" | "paper-sweep" | "pause" => Some(Family::PaperSweep),
            _ => Family::ALL.into_iter().find(|f| f.name() == lower),
        }
    }

    /// Whether sweeping `param` actually changes this family's scenarios.
    /// Mobility knobs (pause, speed) are meaningless on static families,
    /// and the churn rate only exists under churn dynamics — sweeping
    /// either elsewhere would produce identical points.
    pub fn supports(&self, param: SweepParam) -> bool {
        match param {
            SweepParam::Pause => matches!(self, Family::PaperSweep | Family::Scaling),
            // On the huge family the speed sweep *selects* the
            // slow-waypoint variant (the base disc is static).
            SweepParam::MaxSpeed => {
                matches!(self, Family::PaperSweep | Family::Scaling | Family::Huge)
            }
            SweepParam::ChurnRate => matches!(self, Family::Churn),
            SweepParam::Adversaries => {
                matches!(self, Family::Byzantine | Family::Sybil | Family::Chaos)
            }
            SweepParam::Nodes | SweepParam::Flows | SweepParam::PacketRate => true,
        }
    }

    /// The parameter this family sweeps by default.
    pub fn default_param(&self) -> SweepParam {
        match self {
            Family::PaperSweep => SweepParam::Pause,
            Family::Grid
            | Family::Line
            | Family::Scaling
            | Family::Partition
            | Family::CrashRejoin
            | Family::Dense
            | Family::Huge => SweepParam::Nodes,
            Family::Disc => SweepParam::Flows,
            Family::Churn => SweepParam::ChurnRate,
            Family::Byzantine | Family::Sybil | Family::Chaos => SweepParam::Adversaries,
        }
    }

    /// The default sweep values (paper scale or quick scale).
    pub fn default_values(&self, paper_scale: bool) -> Vec<u64> {
        match (self, paper_scale) {
            (Family::PaperSweep, _) => crate::experiment::PAUSE_TIMES.to_vec(),
            (Family::Grid, false) => vec![9, 25, 49],
            (Family::Grid, true) => vec![25, 49, 100],
            (Family::Line, _) => vec![5, 8, 12],
            (Family::Disc, false) => vec![5, 10, 20],
            (Family::Disc, true) => vec![10, 20, 30, 40],
            (Family::Scaling, false) => vec![30, 60, 90],
            (Family::Scaling, true) => vec![50, 100, 150, 200, 250, 300],
            (Family::Churn, false) => vec![2, 6, 12],
            (Family::Churn, true) => vec![2, 6, 12, 24],
            (Family::Partition | Family::CrashRejoin, false) => vec![16, 25],
            (Family::Partition | Family::CrashRejoin, true) => vec![25, 49, 100],
            (Family::Dense, false) => vec![500, 1000],
            (Family::Dense, true) => vec![1000, 2000, 5000],
            (Family::Huge, false) => vec![100_000],
            (Family::Huge, true) => vec![100_000, 250_000, 500_000, 1_000_000],
            (Family::Byzantine | Family::Sybil | Family::Chaos, false) => vec![10, 25],
            (Family::Byzantine | Family::Sybil | Family::Chaos, true) => vec![5, 10, 25, 40],
        }
    }

    /// The family's base scenario before any sweep parameter is applied.
    pub fn base(
        &self,
        protocol: ProtocolKind,
        seed: u64,
        trial: u64,
        paper_scale: bool,
    ) -> Scenario {
        match self {
            Family::PaperSweep => {
                if paper_scale {
                    Scenario::paper(protocol, 0, seed, trial)
                } else {
                    Scenario::quick(protocol, 0, seed, trial)
                }
            }
            Family::Grid => {
                let mut s = Scenario::quick(protocol, 0, seed, trial);
                s.nodes = if paper_scale { 100 } else { 25 };
                s.topology = TopologySpec::Grid { spacing: 180.0 };
                s.mobility = MobilitySpec::Static;
                s.traffic = TrafficSpec::paper_cbr(if paper_scale { 30 } else { 5 });
                s.end = SimTime::from_secs(if paper_scale { 310 } else { 70 });
                s
            }
            Family::Line => {
                let mut s = Scenario::quick(protocol, 0, seed, trial);
                s.nodes = 8;
                s.topology = TopologySpec::Line { spacing: 200.0 };
                s.mobility = MobilitySpec::Static;
                s.traffic = TrafficSpec::paper_cbr(3);
                s.end = SimTime::from_secs(if paper_scale { 160 } else { 70 });
                s
            }
            Family::Disc => {
                let mut s = Scenario::quick(protocol, 0, seed, trial);
                s.nodes = if paper_scale { 75 } else { 40 };
                s.topology = TopologySpec::Disc { radius: 250.0 };
                s.mobility = MobilitySpec::Static;
                s.traffic = TrafficSpec {
                    arrival: ArrivalProcess::Poisson,
                    ..TrafficSpec::paper_cbr(if paper_scale { 30 } else { 15 })
                };
                s.end = SimTime::from_secs(if paper_scale { 160 } else { 80 });
                s
            }
            Family::Scaling => {
                let mut s = if paper_scale {
                    Scenario::paper(protocol, 120, seed, trial)
                } else {
                    Scenario::quick(protocol, 120, seed, trial)
                };
                if !paper_scale {
                    s.end = SimTime::from_secs(120);
                }
                Family::scale_terrain(&mut s);
                s
            }
            Family::Dense => {
                // Mobile on purpose: a thousand continuously-moving nodes
                // is the regime where an unindexed medium must rebuild an
                // O(N) snapshot per transmission — exactly what the
                // incremental tracker + spatial index exist to kill.
                let mut s = Scenario::quick(protocol, 0, seed, trial);
                s.nodes = if paper_scale { 2000 } else { 1000 };
                s.mobility = MobilitySpec::RandomWaypoint {
                    pause: SimDuration::ZERO,
                    max_speed: 20.0,
                };
                s.traffic = TrafficSpec::paper_cbr(if paper_scale { 40 } else { 20 });
                s.end = SimTime::from_secs(if paper_scale { 60 } else { 40 });
                Family::scale_disc(&mut s);
                s
            }
            Family::Huge => {
                // The memory-lean scale profile: static on purpose, so
                // the per-node table footprint — not mobility churn — is
                // what the trial exercises. Short runs and few flows keep
                // a 100k-node trial affordable on one core; the sinks are
                // locality-bounded so the script stays deliverable.
                let mut s = Scenario::quick(protocol, 0, seed, trial);
                s.nodes = 100_000;
                s.mobility = MobilitySpec::Static;
                s.traffic = TrafficSpec {
                    locality_m: Some(Family::HUGE_LOCALITY_M),
                    ..TrafficSpec::paper_cbr(if paper_scale { 30 } else { 10 })
                };
                s.traffic_start = SimTime::from_secs(5);
                s.end = SimTime::from_secs(if paper_scale { 60 } else { 30 });
                Family::scale_disc(&mut s);
                s
            }
            // The adversary families share the static-grid substrate too:
            // every anomaly is attributable to the misbehaving nodes, not
            // to mobility or environmental churn.
            Family::Byzantine | Family::Sybil | Family::Chaos => {
                let mut s = Family::Grid.base(protocol, seed, trial, paper_scale);
                s.nodes = if paper_scale { 49 } else { 16 };
                s.traffic = TrafficSpec::paper_cbr(if paper_scale { 15 } else { 5 });
                s.end = SimTime::from_secs(if paper_scale { 310 } else { 80 });
                s.adversary = match self {
                    Family::Byzantine => AdversarySpec::default_byzantine(),
                    Family::Sybil => AdversarySpec::default_sybil(),
                    Family::Chaos => AdversarySpec::default_chaos(),
                    _ => unreachable!("outer match narrows to adversary families"),
                };
                s
            }
            // The dynamics families share a static-grid substrate so every
            // connectivity change is attributable to the dynamics schedule
            // alone, not to mobility.
            Family::Churn | Family::Partition | Family::CrashRejoin => {
                let mut s = Family::Grid.base(protocol, seed, trial, paper_scale);
                s.nodes = if paper_scale { 49 } else { 16 };
                s.traffic = TrafficSpec::paper_cbr(if paper_scale { 15 } else { 5 });
                s.end = SimTime::from_secs(if paper_scale { 310 } else { 80 });
                s.dynamics = match self {
                    Family::Churn => DynamicsSpec::default_churn(),
                    Family::Partition => DynamicsSpec::default_partition(),
                    Family::CrashRejoin => {
                        DynamicsSpec::default_crash(if paper_scale { 5 } else { 2 })
                    }
                    _ => unreachable!("outer match narrows to dynamics families"),
                };
                s
            }
        }
    }

    /// A scenario with `param = value` applied; family-specific coupled
    /// adjustments (terrain growth, grid extent) happen here.
    #[allow(clippy::too_many_arguments)]
    pub fn scenario_at(
        &self,
        protocol: ProtocolKind,
        seed: u64,
        trial: u64,
        paper_scale: bool,
        param: SweepParam,
        value: u64,
    ) -> Scenario {
        let mut s = self.base(protocol, seed, trial, paper_scale);
        if param == SweepParam::Pause && !paper_scale {
            // Pause sweep values stay in paper units ({0, 50, …, 900});
            // quick scenarios compress them by the same 6× factor as the
            // run length, on every waypoint family — a raw 900 s pause on
            // a 120–160 s quick run would freeze the network at every
            // point above the duration.
            s.set_pause(SimDuration::from_secs(value / 6));
        } else {
            param.apply(&mut s, value);
        }
        if *self == Family::Scaling && param == SweepParam::Nodes {
            // Constant density: terrain area grows linearly with nodes.
            Family::scale_terrain(&mut s);
        }
        if *self == Family::Dense && param == SweepParam::Nodes {
            // Constant density: disc area grows linearly with nodes.
            Family::scale_disc(&mut s);
        }
        if *self == Family::Huge {
            if param == SweepParam::Nodes {
                Family::scale_disc(&mut s);
            }
            if param == SweepParam::MaxSpeed {
                // The slow-waypoint variant: drifting nodes with long
                // pauses, not the dense family's continuous 20 m/s churn
                // (`apply` no-ops on a static base, so the variant is
                // selected here).
                s.mobility = MobilitySpec::RandomWaypoint {
                    pause: SimDuration::from_secs(30),
                    max_speed: (value as f64).max(0.2),
                };
            }
        }
        s
    }

    /// Resizes the terrain to the paper's density for `s.nodes` nodes
    /// (height stays 600 m; width grows linearly).
    fn scale_terrain(s: &mut Scenario) {
        let area_per_node = 2200.0 * 600.0 / 100.0;
        let width = (area_per_node * s.nodes as f64 / 600.0).max(600.0);
        s.terrain = Terrain::new(width, 600.0);
    }

    /// Sets a disc topology sized for [`Family::DENSE_AREA_PER_NODE_M2`]
    /// at `s.nodes` nodes, with a terrain square enclosing it.
    fn scale_disc(s: &mut Scenario) {
        let radius = Family::dense_disc_radius(s.nodes);
        s.topology = TopologySpec::Disc { radius };
        s.terrain = Terrain::new(2.0 * radius, 2.0 * radius);
    }

    /// Radius of the dense family's disc for `nodes` nodes at
    /// [`Family::DENSE_AREA_PER_NODE_M2`].
    pub fn dense_disc_radius(nodes: usize) -> f64 {
        (nodes as f64 * Family::DENSE_AREA_PER_NODE_M2 / core::f64::consts::PI).sqrt()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip() {
        for f in Family::ALL {
            assert_eq!(Family::parse(f.name()), Some(f), "{}", f.name());
        }
        assert_eq!(Family::parse("PAPER"), Some(Family::PaperSweep));
        assert_eq!(Family::parse("nope"), None);
        for p in SweepParam::ALL {
            assert_eq!(SweepParam::parse(p.name()), Some(p));
        }
    }

    #[test]
    fn defaults_are_sane() {
        for f in Family::ALL {
            for scale in [false, true] {
                let values = f.default_values(scale);
                assert!(!values.is_empty(), "{} has no default values", f.name());
                let s = f.scenario_at(ProtocolKind::Srp, 1, 0, scale, f.default_param(), values[0]);
                assert!(s.nodes >= 2, "{}: degenerate node count", f.name());
                assert!(s.flows() >= 1);
                assert!(s.end > s.traffic_start);
            }
        }
    }

    #[test]
    fn paper_sweep_keeps_quick_pause_scaling() {
        let s =
            Family::PaperSweep.scenario_at(ProtocolKind::Srp, 42, 0, false, SweepParam::Pause, 900);
        // Quick mode maps the paper's 900 s to 150 s.
        assert_eq!(s.pause(), SimDuration::from_secs(150));
        let p =
            Family::PaperSweep.scenario_at(ProtocolKind::Srp, 42, 0, true, SweepParam::Pause, 900);
        assert_eq!(p.pause(), SimDuration::from_secs(900));
    }

    #[test]
    fn every_waypoint_family_compresses_quick_pause() {
        // Pause sweep values are paper units on every family that supports
        // them; a raw 900 s pause would outlast the whole quick run.
        for f in [Family::PaperSweep, Family::Scaling] {
            let s = f.scenario_at(ProtocolKind::Srp, 1, 0, false, SweepParam::Pause, 900);
            assert_eq!(
                s.pause(),
                SimDuration::from_secs(150),
                "{}: quick pause not compressed",
                f.name()
            );
            let p = f.scenario_at(ProtocolKind::Srp, 1, 0, true, SweepParam::Pause, 900);
            assert_eq!(p.pause(), SimDuration::from_secs(900));
        }
    }

    #[test]
    fn static_families_reject_mobility_params() {
        for f in [Family::Grid, Family::Line, Family::Disc] {
            assert!(!f.supports(SweepParam::Pause), "{}", f.name());
            assert!(!f.supports(SweepParam::MaxSpeed), "{}", f.name());
            assert!(f.supports(SweepParam::Nodes));
        }
        assert!(Family::Scaling.supports(SweepParam::Pause));
    }

    #[test]
    fn grid_nodes_sweep_changes_layout_only() {
        let a = Family::Grid.scenario_at(ProtocolKind::Srp, 1, 0, false, SweepParam::Nodes, 9);
        let b = Family::Grid.scenario_at(ProtocolKind::Srp, 1, 0, false, SweepParam::Nodes, 49);
        assert_eq!(a.nodes, 9);
        assert_eq!(b.nodes, 49);
        assert_eq!(a.flows(), b.flows());
        assert_eq!(a.mobility, MobilitySpec::Static);
    }

    #[test]
    fn scaling_preserves_density() {
        let density = |s: &Scenario| s.nodes as f64 / s.terrain.area();
        let a = Family::Scaling.scenario_at(ProtocolKind::Srp, 1, 0, true, SweepParam::Nodes, 50);
        let b = Family::Scaling.scenario_at(ProtocolKind::Srp, 1, 0, true, SweepParam::Nodes, 300);
        assert!(
            (density(&a) - density(&b)).abs() / density(&a) < 0.05,
            "density drifted: {} vs {}",
            density(&a),
            density(&b)
        );
        assert!(b.terrain.width > a.terrain.width * 5.0);
    }

    #[test]
    fn dynamics_families_carry_their_specs() {
        let c = Family::Churn.base(ProtocolKind::Srp, 1, 0, false);
        assert_eq!(c.dynamics.name(), "churn");
        assert_eq!(c.mobility, MobilitySpec::Static);
        assert_eq!(c.topology.name(), "grid");
        let p = Family::Partition.base(ProtocolKind::Srp, 1, 0, false);
        assert_eq!(p.dynamics.name(), "partition");
        let r = Family::CrashRejoin.base(ProtocolKind::Srp, 1, 0, false);
        assert_eq!(r.dynamics.name(), "crash-rejoin");
        assert!(r.describe().contains("crash-rejoin dynamics"));
    }

    #[test]
    fn churn_rate_sweep_applies() {
        let s =
            Family::Churn.scenario_at(ProtocolKind::Srp, 1, 0, false, SweepParam::ChurnRate, 12);
        match s.dynamics {
            DynamicsSpec::LinkChurn {
                flaps_per_minute, ..
            } => assert_eq!(flaps_per_minute, 12.0),
            other => panic!("expected churn dynamics, got {other:?}"),
        }
        // Only the churn family sweeps the churn rate.
        for f in Family::ALL {
            assert_eq!(f.supports(SweepParam::ChurnRate), f == Family::Churn);
        }
        assert!(SweepParam::ChurnRate.validate_value(0).is_err());
        assert!(SweepParam::ChurnRate.validate_value(61).is_err());
        assert!(SweepParam::ChurnRate.validate_value(6).is_ok());
    }

    #[test]
    fn adversary_families_carry_their_specs() {
        for (f, name) in [
            (Family::Byzantine, "byzantine"),
            (Family::Sybil, "sybil"),
            (Family::Chaos, "chaos"),
        ] {
            let s = f.base(ProtocolKind::Srp, 1, 0, false);
            assert_eq!(s.adversary.name(), name);
            assert_eq!(s.mobility, MobilitySpec::Static);
            assert_eq!(s.topology.name(), "grid");
            assert_eq!(f.default_param(), SweepParam::Adversaries);
            let swept = f.scenario_at(ProtocolKind::Srp, 1, 0, false, SweepParam::Adversaries, 25);
            assert_eq!(swept.adversary.percent(), 25);
            assert_eq!(
                swept.adversary.name(),
                name,
                "sweep sets fraction, keeps kind"
            );
            assert!(s.describe().contains("adversaries"), "{}", s.describe());
        }
        // Sweeping the fraction on a family without a kind defaults to
        // byzantine misbehaviour.
        let mut s = Family::Grid.base(ProtocolKind::Srp, 1, 0, false);
        SweepParam::Adversaries.apply(&mut s, 10);
        assert_eq!(s.adversary.name(), "byzantine");
        assert_eq!(s.adversary.percent(), 10);
        assert!(SweepParam::Adversaries.validate_value(0).is_err());
        assert!(SweepParam::Adversaries.validate_value(50).is_err());
        assert!(SweepParam::Adversaries.validate_value(25).is_ok());
        // Only the adversary families sweep the fraction.
        for f in [
            Family::Grid,
            Family::Churn,
            Family::Dense,
            Family::PaperSweep,
        ] {
            assert!(!f.supports(SweepParam::Adversaries), "{}", f.name());
        }
    }

    #[test]
    fn dense_preserves_density_across_node_sweep() {
        let radius = |s: &Scenario| match s.topology {
            TopologySpec::Disc { radius } => radius,
            other => panic!("dense must lay out on a disc, got {other:?}"),
        };
        let a = Family::Dense.scenario_at(ProtocolKind::Srp, 1, 0, true, SweepParam::Nodes, 1000);
        let b = Family::Dense.scenario_at(ProtocolKind::Srp, 1, 0, true, SweepParam::Nodes, 5000);
        assert_eq!(a.nodes, 1000);
        assert_eq!(b.nodes, 5000);
        let density =
            |s: &Scenario| s.nodes as f64 / (core::f64::consts::PI * radius(s) * radius(s));
        assert!(
            (density(&a) - density(&b)).abs() / density(&a) < 1e-9,
            "density drifted: {} vs {}",
            density(&a),
            density(&b)
        );
        assert!(
            (1.0 / density(&a) - Family::DENSE_AREA_PER_NODE_M2).abs() < 1e-6,
            "unexpected area per node {}",
            1.0 / density(&a)
        );
        assert_eq!(
            a.mobility,
            MobilitySpec::RandomWaypoint {
                pause: SimDuration::ZERO,
                max_speed: 20.0
            }
        );
        // The family's axis is scale; pause/speed/churn stay fixed.
        assert!(!Family::Dense.supports(SweepParam::Pause));
        assert!(!Family::Dense.supports(SweepParam::MaxSpeed));
        assert!(!Family::Dense.supports(SweepParam::ChurnRate));
        assert!(Family::Dense.supports(SweepParam::Flows));
        // The terrain encloses the disc (waypoint overlays stay sane).
        assert!(a.terrain.width >= 2.0 * radius(&a) - 1e-9);
    }

    #[test]
    fn disc_uses_poisson() {
        let s = Family::Disc.scenario_at(ProtocolKind::Srp, 1, 0, false, SweepParam::Flows, 10);
        assert_eq!(s.traffic.name(), "poisson");
        assert_eq!(s.flows(), 10);
        assert_eq!(s.topology.name(), "disc");
    }
}
