//! Scenario configuration: everything one trial needs, decomposed into
//! composable topology / mobility / traffic specs.
//!
//! A [`Scenario`] is the full recipe for one simulation trial. It is built
//! from four orthogonal pieces:
//!
//! * [`TopologySpec`] — how initial node positions are laid out
//!   (uniform random, grid, line, disc);
//! * [`MobilitySpec`] — whether and how nodes move (static, random
//!   waypoint);
//! * [`TrafficSpec`] — the offered load (CBR or Poisson flows);
//! * [`DynamicsSpec`] — scheduled topology events (link churn,
//!   partition/heal, node crash–rejoin).
//!
//! Named combinations live in [`crate::registry`]; the paper's §V setup is
//! [`Scenario::paper`] (uniform random + waypoint + CBR, no dynamics).

use std::sync::{Arc, OnceLock};

use slr_mobility::{Position, Terrain, WaypointConfig};
use slr_netsim::time::{SimDuration, SimTime};
use slr_protocols::aodv::Aodv;
use slr_protocols::dsr::Dsr;
use slr_protocols::ldr::Ldr;
use slr_protocols::olsr::Olsr;
use slr_protocols::srp::{Srp, SrpConfig};
use slr_protocols::RoutingProtocol;
use slr_radio::MacConfig;
use slr_traffic::{ArrivalProcess, TrafficConfig};

use rand::Rng;

pub use crate::adversary::AdversarySpec;
pub use crate::dynamics::DynamicsSpec;

/// The protocol under test.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ProtocolKind {
    /// Split-label Routing Protocol (the paper's contribution).
    Srp,
    /// SRP with round-robin multipath forwarding (ablation; the paper
    /// evaluates uni-path SRP and leaves multipath choice open).
    SrpMultipath,
    /// Ad hoc On-demand Distance Vector.
    Aodv,
    /// Dynamic Source Routing.
    Dsr,
    /// Labeled Distance Routing.
    Ldr,
    /// Optimized Link State Routing.
    Olsr,
}

impl ProtocolKind {
    /// Display name.
    pub fn name(&self) -> &'static str {
        match self {
            ProtocolKind::Srp => "SRP",
            ProtocolKind::SrpMultipath => "SRP-MP",
            ProtocolKind::Aodv => "AODV",
            ProtocolKind::Dsr => "DSR",
            ProtocolKind::Ldr => "LDR",
            ProtocolKind::Olsr => "OLSR",
        }
    }

    /// The five protocols in the paper's plotting order.
    pub fn all() -> [ProtocolKind; 5] {
        [
            ProtocolKind::Srp,
            ProtocolKind::Ldr,
            ProtocolKind::Aodv,
            ProtocolKind::Dsr,
            ProtocolKind::Olsr,
        ]
    }

    /// Whether the protocol runs the SRP engine (uni- or multipath) —
    /// the protocols the loop-freedom oracle can check.
    pub fn runs_srp(&self) -> bool {
        matches!(self, ProtocolKind::Srp | ProtocolKind::SrpMultipath)
    }

    /// Parses a CLI name (`srp`, `srp-mp`, `aodv`, `dsr`, `ldr`, `olsr`).
    pub fn parse(s: &str) -> Option<ProtocolKind> {
        match s.to_ascii_lowercase().as_str() {
            "srp" => Some(ProtocolKind::Srp),
            "srp-mp" | "srpmp" => Some(ProtocolKind::SrpMultipath),
            "aodv" => Some(ProtocolKind::Aodv),
            "dsr" => Some(ProtocolKind::Dsr),
            "ldr" => Some(ProtocolKind::Ldr),
            "olsr" => Some(ProtocolKind::Olsr),
            _ => None,
        }
    }

    /// Instantiates the protocol for `node`. Every SRP node of one kind
    /// shares a single [`SrpConfig`].
    pub fn build(&self, node: usize) -> Box<dyn RoutingProtocol> {
        static SRP: OnceLock<Arc<SrpConfig>> = OnceLock::new();
        static SRP_MP: OnceLock<Arc<SrpConfig>> = OnceLock::new();
        match self {
            ProtocolKind::Srp => {
                let cfg = SRP.get_or_init(|| Arc::new(SrpConfig::default()));
                Box::new(Srp::new(node, Arc::clone(cfg)))
            }
            ProtocolKind::SrpMultipath => {
                let cfg = SRP_MP.get_or_init(|| {
                    Arc::new(SrpConfig {
                        multipath: slr_protocols::srp::MultipathPolicy::RoundRobin,
                        ..SrpConfig::default()
                    })
                });
                Box::new(Srp::new(node, Arc::clone(cfg)))
            }
            ProtocolKind::Aodv => Box::new(Aodv::new(node)),
            ProtocolKind::Dsr => Box::new(Dsr::new(node)),
            ProtocolKind::Ldr => Box::new(Ldr::new(node)),
            ProtocolKind::Olsr => Box::new(Olsr::new(node)),
        }
    }
}

/// How the initial node positions are laid out.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TopologySpec {
    /// Uniform random placement on the terrain (the paper's setup).
    UniformRandom,
    /// A near-square rectangular grid, row-major, `spacing` meters apart.
    Grid {
        /// Distance between adjacent grid nodes in meters.
        spacing: f64,
    },
    /// A single line along the x-axis, `spacing` meters apart.
    Line {
        /// Distance between adjacent nodes in meters.
        spacing: f64,
    },
    /// Uniform random placement inside a disc of `radius` meters —
    /// high-density contention stress when the radius is within radio
    /// range.
    Disc {
        /// Disc radius in meters.
        radius: f64,
    },
}

impl TopologySpec {
    /// Short name used in descriptions and JSON output.
    pub fn name(&self) -> &'static str {
        match self {
            TopologySpec::UniformRandom => "uniform",
            TopologySpec::Grid { .. } => "grid",
            TopologySpec::Line { .. } => "line",
            TopologySpec::Disc { .. } => "disc",
        }
    }

    /// Generates the `n` initial positions. Only random layouts draw from
    /// `rng`; structured ones are deterministic in `n`.
    pub fn positions<R: Rng + ?Sized>(
        &self,
        n: usize,
        terrain: &Terrain,
        rng: &mut R,
    ) -> Vec<Position> {
        match *self {
            TopologySpec::UniformRandom => (0..n)
                .map(|_| {
                    Position::new(
                        rng.gen_range(0.0..terrain.width),
                        rng.gen_range(0.0..terrain.height),
                    )
                })
                .collect(),
            TopologySpec::Grid { spacing } => {
                let cols = (n as f64).sqrt().ceil().max(1.0) as usize;
                (0..n)
                    .map(|i| {
                        Position::new(spacing * (i % cols) as f64, spacing * (i / cols) as f64)
                    })
                    .collect()
            }
            TopologySpec::Line { spacing } => (0..n)
                .map(|i| Position::new(spacing * i as f64, 0.0))
                .collect(),
            TopologySpec::Disc { radius } => (0..n)
                .map(|_| {
                    // Uniform over the disc area: r ∝ sqrt(u).
                    let r = radius * rng.gen_range(0.0f64..1.0).sqrt();
                    let theta = rng.gen_range(0.0..core::f64::consts::TAU);
                    Position::new(radius + r * theta.cos(), radius + r * theta.sin())
                })
                .collect(),
        }
    }

    /// A terrain that encloses every position this layout can produce for
    /// `n` nodes (used so waypoint destinations stay near the structure).
    pub fn enclosing_terrain(&self, n: usize, fallback: Terrain) -> Terrain {
        match *self {
            TopologySpec::UniformRandom => fallback,
            TopologySpec::Grid { spacing } => {
                let cols = (n as f64).sqrt().ceil().max(1.0) as usize;
                let rows = n.div_ceil(cols);
                Terrain::new(
                    spacing * cols.saturating_sub(1).max(1) as f64,
                    spacing * rows.saturating_sub(1).max(1) as f64,
                )
            }
            TopologySpec::Line { spacing } => {
                Terrain::new(spacing * n.saturating_sub(1).max(1) as f64, spacing)
            }
            TopologySpec::Disc { radius } => Terrain::new(2.0 * radius, 2.0 * radius),
        }
    }
}

/// Whether and how nodes move.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum MobilitySpec {
    /// Nodes never leave their initial positions.
    Static,
    /// The paper's random waypoint model.
    RandomWaypoint {
        /// Pause time at each waypoint.
        pause: SimDuration,
        /// Maximum node speed in m/s (paper: 20).
        max_speed: f64,
    },
}

impl MobilitySpec {
    /// Short name used in descriptions and JSON output.
    pub fn name(&self) -> &'static str {
        match self {
            MobilitySpec::Static => "static",
            MobilitySpec::RandomWaypoint { .. } => "waypoint",
        }
    }
}

/// The offered load: flow shape plus the arrival process inside a flow.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrafficSpec {
    /// How packets are spaced inside a flow (CBR or Poisson).
    pub arrival: ArrivalProcess,
    /// Simultaneous flows.
    pub flows: usize,
    /// (Mean) packets per second per flow.
    pub packets_per_second: f64,
    /// Payload bytes per packet.
    pub packet_bytes: u32,
    /// Mean exponential flow lifetime in seconds.
    pub mean_flow_secs: f64,
    /// When set, flow sinks are sampled within this many meters of the
    /// source over the initial layout instead of uniformly — keeps paths
    /// inside the data TTL on huge-scale discs, where a uniform pair
    /// would be hundreds of hops apart.
    pub locality_m: Option<f64>,
}

impl TrafficSpec {
    /// The paper's CBR shape at a given flow count.
    pub fn paper_cbr(flows: usize) -> Self {
        TrafficSpec {
            arrival: ArrivalProcess::Cbr,
            flows,
            packets_per_second: 4.0,
            packet_bytes: 512,
            mean_flow_secs: 60.0,
            locality_m: None,
        }
    }

    /// Short name used in descriptions and JSON output.
    pub fn name(&self) -> &'static str {
        self.arrival.name()
    }

    /// Lowers into the traffic crate's configuration.
    pub fn to_config(&self, start: SimTime, end: SimTime) -> TrafficConfig {
        TrafficConfig {
            concurrent_flows: self.flows,
            packets_per_second: self.packets_per_second,
            packet_bytes: self.packet_bytes,
            mean_flow_secs: self.mean_flow_secs,
            arrival: self.arrival,
            start,
            end,
        }
    }
}

/// Full configuration of one simulation trial.
#[derive(Debug, Clone, Copy)]
pub struct Scenario {
    /// Protocol under test.
    pub protocol: ProtocolKind,
    /// Base seed of the experiment (combined with `trial`).
    pub seed: u64,
    /// Trial index; topology, mobility and traffic depend on
    /// `(seed, trial)` only, never on the protocol (§V's fixed scripts).
    pub trial: u64,
    /// Number of nodes (paper: 100).
    pub nodes: usize,
    /// Terrain for random placement and waypoint destinations
    /// (paper: 2200 m × 600 m).
    pub terrain: Terrain,
    /// Simulation end time.
    pub end: SimTime,
    /// When traffic starts.
    pub traffic_start: SimTime,
    /// Initial node layout.
    pub topology: TopologySpec,
    /// Node motion model.
    pub mobility: MobilitySpec,
    /// Offered load.
    pub traffic: TrafficSpec,
    /// Scheduled topology dynamics.
    pub dynamics: DynamicsSpec,
    /// Adversarial participants (Byzantine/sybil/chaos nodes).
    pub adversary: AdversarySpec,
    /// MAC configuration. A trial holds it once: every node's MAC
    /// shares one `Arc` built from it.
    pub mac: MacConfig,
}

impl Scenario {
    /// The paper's configuration at a given pause time (900 s, 100 nodes,
    /// 30 flows).
    pub fn paper(protocol: ProtocolKind, pause_secs: u64, seed: u64, trial: u64) -> Self {
        Scenario {
            protocol,
            seed,
            trial,
            nodes: 100,
            terrain: Terrain::paper(),
            end: SimTime::from_secs(910),
            traffic_start: SimTime::from_secs(10),
            topology: TopologySpec::UniformRandom,
            mobility: MobilitySpec::RandomWaypoint {
                pause: SimDuration::from_secs(pause_secs),
                max_speed: 20.0,
            },
            traffic: TrafficSpec::paper_cbr(30),
            dynamics: DynamicsSpec::None,
            adversary: AdversarySpec::None,
            mac: MacConfig::default(),
        }
    }

    /// A scaled-down configuration that preserves node density and offered
    /// load per unit area: 50 nodes on a half-area terrain, 15 flows,
    /// 150 s of traffic. Pause times are scaled by the same 6× factor as
    /// the run length (900 s → 150 s), so the paper's sweep
    /// {0, 50, …, 900} maps onto {0, 8, …, 150} and "pause = run length"
    /// still means a static network. Used by the quick modes of the
    /// benchmark binaries.
    pub fn quick(protocol: ProtocolKind, pause_secs: u64, seed: u64, trial: u64) -> Self {
        Scenario {
            protocol,
            seed,
            trial,
            nodes: 50,
            terrain: Terrain::new(1100.0, 600.0),
            end: SimTime::from_secs(160),
            traffic_start: SimTime::from_secs(10),
            topology: TopologySpec::UniformRandom,
            mobility: MobilitySpec::RandomWaypoint {
                pause: SimDuration::from_secs(pause_secs / 6),
                max_speed: 20.0,
            },
            traffic: TrafficSpec::paper_cbr(15),
            dynamics: DynamicsSpec::None,
            adversary: AdversarySpec::None,
            mac: MacConfig::default(),
        }
    }

    /// The waypoint pause time (`ZERO` for static scenarios).
    pub fn pause(&self) -> SimDuration {
        match self.mobility {
            MobilitySpec::Static => SimDuration::ZERO,
            MobilitySpec::RandomWaypoint { pause, .. } => pause,
        }
    }

    /// Sets the waypoint pause time (no-op for static scenarios).
    pub fn set_pause(&mut self, new_pause: SimDuration) {
        if let MobilitySpec::RandomWaypoint { pause, .. } = &mut self.mobility {
            *pause = new_pause;
        }
    }

    /// Maximum node speed (0 for static scenarios).
    pub fn max_speed(&self) -> f64 {
        match self.mobility {
            MobilitySpec::Static => 0.0,
            MobilitySpec::RandomWaypoint { max_speed, .. } => max_speed,
        }
    }

    /// Number of simultaneous traffic flows.
    pub fn flows(&self) -> usize {
        self.traffic.flows
    }

    /// Sets the number of simultaneous traffic flows.
    pub fn set_flows(&mut self, n: usize) {
        self.traffic.flows = n;
    }

    /// The waypoint configuration, if this scenario is mobile.
    pub fn waypoint_config(&self) -> Option<WaypointConfig> {
        match self.mobility {
            MobilitySpec::Static => None,
            MobilitySpec::RandomWaypoint { pause, max_speed } => Some(WaypointConfig {
                terrain: self.terrain,
                min_speed: 0.1,
                max_speed,
                pause,
                duration: self.end.saturating_since(SimTime::ZERO),
            }),
        }
    }

    /// The traffic configuration for this scenario.
    pub fn traffic_config(&self) -> TrafficConfig {
        self.traffic.to_config(self.traffic_start, self.end)
    }

    /// The master seed for this `(seed, trial)` pair.
    pub fn master_seed(&self) -> u64 {
        slr_netsim::rng::derive_seed(self.seed, &[self.trial])
    }

    /// One-line description for logs and reports.
    pub fn describe(&self) -> String {
        let dynamics = match self.dynamics {
            DynamicsSpec::None => String::new(),
            other => format!(", {} dynamics", other.name()),
        };
        let adversary = match self.adversary {
            AdversarySpec::None => String::new(),
            other => format!(", {}% {} adversaries", other.percent(), other.name()),
        };
        format!(
            "{} nodes, {}/{} topology/mobility, {} traffic ({} flows){}{}, {} s",
            self.nodes,
            self.topology.name(),
            self.mobility.name(),
            self.traffic.name(),
            self.flows(),
            dynamics,
            adversary,
            self.end.as_secs_f64(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_scenario_matches_section_v() {
        let s = Scenario::paper(ProtocolKind::Srp, 300, 42, 0);
        assert_eq!(s.nodes, 100);
        assert_eq!(s.flows(), 30);
        assert!((s.terrain.width - 2200.0).abs() < 1e-9);
        assert!((s.terrain.height - 600.0).abs() < 1e-9);
        assert_eq!(s.pause(), SimDuration::from_secs(300));
        assert_eq!(s.topology, TopologySpec::UniformRandom);
        assert_eq!(s.traffic.name(), "cbr");
    }

    #[test]
    fn master_seed_ignores_protocol() {
        let a = Scenario::paper(ProtocolKind::Srp, 0, 42, 3).master_seed();
        let b = Scenario::paper(ProtocolKind::Aodv, 0, 42, 3).master_seed();
        assert_eq!(a, b, "mobility/traffic seeds must not depend on protocol");
        let c = Scenario::paper(ProtocolKind::Srp, 0, 42, 4).master_seed();
        assert_ne!(a, c);
    }

    #[test]
    fn protocol_factory_builds_all() {
        for kind in ProtocolKind::all() {
            let p = kind.build(0);
            assert_eq!(p.name(), kind.name());
        }
    }

    #[test]
    fn protocol_names_round_trip() {
        for kind in ProtocolKind::all() {
            assert_eq!(ProtocolKind::parse(&kind.name().to_lowercase()), Some(kind));
        }
        assert_eq!(
            ProtocolKind::parse("srp-mp"),
            Some(ProtocolKind::SrpMultipath)
        );
        assert_eq!(ProtocolKind::parse("bogus"), None);
    }

    #[test]
    fn grid_topology_is_deterministic_and_spaced() {
        use slr_netsim::rng::stream;
        let t = Terrain::paper();
        let spec = TopologySpec::Grid { spacing: 180.0 };
        let a = spec.positions(9, &t, &mut stream(1, "topo", 0));
        let b = spec.positions(9, &t, &mut stream(2, "topo", 0));
        assert_eq!(a, b, "grid ignores the RNG");
        assert_eq!(a.len(), 9);
        // 3×3 grid: neighbors along a row are exactly 180 m apart.
        assert!((a[0].distance(&a[1]) - 180.0).abs() < 1e-9);
        assert!((a[0].distance(&a[3]) - 180.0).abs() < 1e-9);
    }

    #[test]
    fn line_topology_is_a_line() {
        use slr_netsim::rng::stream;
        let t = Terrain::paper();
        let spec = TopologySpec::Line { spacing: 200.0 };
        let p = spec.positions(5, &t, &mut stream(1, "topo", 0));
        for (i, pos) in p.iter().enumerate() {
            assert!((pos.x - 200.0 * i as f64).abs() < 1e-9);
            assert_eq!(pos.y, 0.0);
        }
    }

    #[test]
    fn disc_topology_stays_in_disc() {
        use slr_netsim::rng::stream;
        let t = Terrain::paper();
        let spec = TopologySpec::Disc { radius: 250.0 };
        let center = Position::new(250.0, 250.0);
        for p in spec.positions(200, &t, &mut stream(3, "topo", 0)) {
            assert!(p.distance(&center) <= 250.0 + 1e-9);
        }
    }

    #[test]
    fn uniform_topology_fills_terrain() {
        use slr_netsim::rng::stream;
        let t = Terrain::paper();
        let spec = TopologySpec::UniformRandom;
        let p = spec.positions(500, &t, &mut stream(4, "topo", 0));
        assert!(p.iter().all(|p| t.contains(p)));
        // Coverage sanity: some node lands in each horizontal third.
        for third in 0..3 {
            let lo = t.width * third as f64 / 3.0;
            let hi = t.width * (third + 1) as f64 / 3.0;
            assert!(p.iter().any(|p| p.x >= lo && p.x < hi));
        }
    }

    #[test]
    fn spec_accessors_mutate() {
        let mut s = Scenario::quick(ProtocolKind::Srp, 0, 1, 0);
        s.set_flows(7);
        assert_eq!(s.flows(), 7);
        s.set_pause(SimDuration::from_secs(9));
        assert_eq!(s.pause(), SimDuration::from_secs(9));
        s.traffic = TrafficSpec {
            arrival: ArrivalProcess::Poisson,
            flows: 3,
            packets_per_second: 2.0,
            packet_bytes: 256,
            mean_flow_secs: 30.0,
            locality_m: None,
        };
        assert_eq!(s.traffic_config().concurrent_flows, 3);
        assert_eq!(s.traffic_config().arrival, ArrivalProcess::Poisson);
    }
}
