//! # slr-runner — the experiment harness
//!
//! Assembles a full trial of the paper's evaluation (§V): a random-waypoint
//! mobility script and a CBR traffic script (identical across protocols per
//! trial), a shared wireless channel, one DCF MAC and one routing protocol
//! per node — then drives the single deterministic event loop and collects
//! the paper's metrics (delivery ratio, network load, latency, MAC drops,
//! node sequence numbers).
//!
//! ```no_run
//! use slr_runner::experiment::{run_sweep, SweepConfig, PAUSE_TIMES};
//! use slr_runner::registry::Family;
//! use slr_runner::report::render_table1;
//! use slr_runner::scenario::ProtocolKind;
//!
//! // The paper's pause-time sweep…
//! let cfg = SweepConfig { trials: 3, values: PAUSE_TIMES.to_vec(), ..SweepConfig::default() };
//! let result = run_sweep(&ProtocolKind::all(), &cfg);
//! println!("{}", render_table1(&result));
//!
//! // …or any registered family's default sweep (e.g. static grids).
//! let cfg = SweepConfig::for_family(Family::Grid, false);
//! let result = run_sweep(&ProtocolKind::all(), &cfg);
//! println!("{}", render_table1(&result));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod adversary;
pub mod cli;
pub mod dynamics;
pub mod experiment;
pub mod medium;
pub mod metrics;
mod par;
pub mod registry;
pub mod report;
pub mod scenario;
pub mod sim;
pub mod stats;
pub mod trace;

pub use adversary::AdversarySpec;
pub use cli::{parse_cli, CliAction, Invocation};
pub use dynamics::DynamicsSpec;
pub use experiment::{run_sweep, run_trial, Metric, SweepConfig, SweepResult, PAUSE_TIMES};
pub use medium::{MediumView, PositionTracker};
pub use metrics::{MemReport, Metrics, TrialSummary};
pub use registry::{Family, SweepParam};
pub use scenario::{MobilitySpec, ProtocolKind, Scenario, TopologySpec, TrafficSpec};
pub use sim::{EngineKind, Payload, PhaseTimes, Sim};
pub use stats::MeanCi;
pub use trace::{PacketFate, TraceEvent, TraceLog};
