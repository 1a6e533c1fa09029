//! # slr-netsim — deterministic discrete-event simulation engine
//!
//! The simulation substrate for the SLR/SRP reproduction. The paper's
//! evaluation ran in GloMoSim; this crate provides the equivalent kernel:
//! a virtual clock, a cancellable event queue with stable FIFO tie-breaking
//! (bit-reproducible runs per seed), and named deterministic RNG streams so
//! mobility and traffic are identical across protocols within a trial.
//!
//! The engine is policy-free: higher layers (radio, protocols, harness)
//! define their own event enums and drive [`Simulator::next_before`] in a
//! plain loop.
//!
//! ```
//! use slr_netsim::{SimDuration, SimTime, Simulator};
//!
//! #[derive(Debug)]
//! enum Ev { Hello(u32) }
//!
//! let mut sim = Simulator::new();
//! sim.schedule_in(SimDuration::from_millis(10), Ev::Hello(1));
//! while let Some(ev) = sim.next_before(SimTime::from_secs(1)) {
//!     match ev.event { Ev::Hello(n) => assert_eq!(n, 1) }
//! }
//! ```

// `deny`, not `forbid`: the scoped worker pool (`pool`) is the one module
// allowed to use `unsafe` — the classic lifetime erasure every persistent
// scoped thread pool needs — with its safety argument documented in place.
// Everything else in the crate remains unsafe-free.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod admittance;
pub mod compact;
pub mod deque;
pub mod engine;
pub mod hash;
pub mod pool;
pub mod queue;
pub mod rng;
pub mod spatial;
pub mod time;

pub use admittance::{Admittance, DynAction};
pub use compact::VecMap;
pub use deque::StealDeque;
pub use engine::Simulator;
pub use hash::{FastHashMap, FastHashSet, FastHasher};
pub use pool::{with_core_pool, CorePool, CoreSession, WindowExec};
pub use queue::{EventQueue, EventToken, Scheduled};
pub use spatial::SpatialIndex;
pub use time::{SimDuration, SimTime};
