//! # slr-protocols — MANET routing protocols behind one state-machine API
//!
//! The five protocols of the paper's evaluation (§V):
//!
//! * [`srp::Srp`] — **Split-label Routing Protocol**, the paper's
//!   contribution: loop-free at every instant via dense proper-fraction
//!   labels (`slr-core`), inherently multi-path, destination-controlled
//!   sequence number used only as an overflow reset;
//! * [`aodv::Aodv`] — on-demand distance vector with destination sequence
//!   numbers (draft-10 semantics);
//! * [`dsr::Dsr`] — source routing with path caches and salvaging
//!   (draft-07 semantics);
//! * [`ldr::Ldr`] — labeled distance routing (PODC '03): integer feasible
//!   distances + destination sequence numbers;
//! * [`olsr::Olsr`] — proactive link-state with multipoint relays
//!   (draft-06 semantics).
//!
//! All five implement [`api::RoutingProtocol`]: events in, effects out —
//! no protocol touches a socket, timer wheel or radio directly, which is
//! what lets the harness guarantee identical mobility, traffic and MAC
//! behaviour across protocols within a trial. The four on-demand ones
//! share one route discovery, [`discovery::Discovery`] (Procedure 1).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod adversary;
pub mod aodv;
pub mod api;
pub mod audit;
pub mod discovery;
pub mod dsr;
pub mod ldr;
#[cfg(feature = "model-check")]
pub mod model;
pub mod olsr;
pub mod srp;

pub use adversary::{Adversary, AdversaryKind};
pub use api::{
    ControlPacket, DataDropReason, DataPacket, NodeId, ProtoCtx, ProtoEffect, ProtoStats,
    RoutingProtocol, SourceRoute, SuccessorView, DATA_TTL,
};
pub use audit::Audit;
