//! # slr-radio — the wireless substrate
//!
//! PHY, channel and MAC models replacing GloMoSim's 802.11 stack in the
//! SLR/SRP reproduction:
//!
//! * [`phy::PhyConfig`] — 2 Mbps timing, 250 m reception / 550 m
//!   carrier-sense ranges, `d⁻⁴` power law with 10× capture;
//! * [`channel::Channel`] — the shared medium: per-receiver signal
//!   tracking, collisions, capture, half-duplex, busy/idle transitions;
//! * [`medium::NeighborQuery`] — how the channel sees space: exact
//!   positions plus carrier-sense-range neighbor sets, answered by a
//!   grid-bucketed spatial index (cost per transmission follows the
//!   nodes bucketed around the transmitter instead of N) and checkable
//!   against a brute-force scan (the reference oracle);
//! * [`mac::Mac`] — a DCF-style MAC: DIFS + slotted binary-exponential
//!   backoff with freezing, NAV, RTS/CTS above a size threshold,
//!   SIFS-spaced ACKs with retry limits, link-failure notification to the
//!   routing layer, and a 50-frame priority interface queue with drop
//!   accounting (the Fig. 3 metric).
//!
//! All three are passive state machines driven by the experiment harness;
//! see `slr-runner` for the wiring.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod channel;
pub mod frame;
pub mod mac;
pub mod medium;
pub mod phy;

pub use channel::{
    BeginTx, Channel, ChannelShard, ChannelStats, FinishRx, Receiver, TxFrames, TxId,
};
pub use frame::{Frame, FrameKind};
pub use mac::{DropReason, Mac, MacConfig, MacCounters, MacEffect, MacTimer};
pub use medium::{BruteForceMedium, NeighborQuery, ValidatingQuery};
pub use phy::PhyConfig;
