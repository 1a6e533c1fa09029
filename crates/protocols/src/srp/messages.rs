//! SRP packet formats (§III of the paper).
//!
//! SRP reuses AODV's RREQ/RREP/RERR packets "with extensive modifications
//! to the packet fields". A RREQ has two parts: the *solicitation*
//! `{src, rreqid, dst, dstseqno, F, d, flags}` and the *advertisement*
//! `{src, srcseqno, lfd, ld, lifetime, flags}` — a node relaying a RREQ
//! with an active route to the source advertises that route, letting the
//! network learn reverse routes for free. The paper adds four flags:
//!
//! * **U** — the solicitation carries no stored ordering for the target;
//! * **T** (`rr`) — reset required: an ordering violation could occur and
//!   the path must be reset by the destination (Eq. 11);
//! * **D** — only the destination may answer (used for the MAX_DENOM
//!   path-reset probe);
//! * **N** — the RREQ is no longer an advertisement for its source.
//!
//! The paper's RACK packet acknowledges RREPs over unreliable links; in
//! this reproduction the MAC's link-layer acknowledgment subsumes it (the
//! harness reports unicast control losses through `on_link_failure`), so no
//! RACK message is defined.

use slr_core::Frac32;

use crate::api::NodeId;

/// A route request: solicitation plus optional source advertisement.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SrpRreq {
    /// Issuer of the solicitation.
    pub src: NodeId,
    /// Source-specific flood identifier (controls duplicate suppression).
    pub rreq_id: u64,
    /// The sought destination `T`.
    pub dst: NodeId,
    /// Solicitation ordering: destination sequence number `sn_#`.
    pub dst_seqno: u64,
    /// Solicitation ordering: feasible-distance fraction `F` (with the §V
    /// "lying" heuristic already applied by the issuer).
    pub fd: Frac32,
    /// U bit: the issuer has no stored information about `dst`.
    pub unknown: bool,
    /// T bit (`rr`): reset required (Eq. 11).
    pub reset: bool,
    /// D bit: only the destination may reply.
    pub dest_only: bool,
    /// N bit: this RREQ no longer advertises a route to `src`.
    pub no_advert: bool,
    /// Measured distance traversed so far (hop count with unit costs).
    pub d: u32,
    /// Remaining flood TTL.
    pub ttl: u8,
    /// Advertisement piece: source sequence number.
    pub src_seqno: u64,
    /// Advertisement piece: last-hop feasible distance toward `src`.
    pub src_lfd: Frac32,
    /// Advertisement piece: last-hop measured distance toward `src`.
    pub src_ld: u32,
}

/// A route reply — the advertisement `?` for destination `dst`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SrpRrep {
    /// The solicitation issuer this reply answers (reply terminus).
    pub rreq_src: NodeId,
    /// The solicitation's flood identifier.
    pub rreq_id: u64,
    /// The advertised destination `T`.
    pub dst: NodeId,
    /// Advertised ordering: sequence number.
    pub dst_seqno: u64,
    /// Advertised ordering: last-hop feasible distance `LF`.
    pub lfd: Frac32,
    /// Last-hop measured distance `ld`.
    pub ld: u32,
    /// N bit: the replier could not build a reverse path from the RREQ's
    /// advertisement.
    pub no_reverse: bool,
}

/// A route error: destinations that became unreachable through the sender.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SrpRerr {
    /// Destinations now unreachable via the sender.
    pub unreachable: Vec<NodeId>,
    /// R bit: the sender restarted cold and holds *no* routing state —
    /// every route through it is unreachable, not just the listed ones.
    /// Receivers must purge the sender from every successor set (the
    /// SRP analogue of AODV's post-reboot rule, RFC 3561 §6.13); without
    /// it, stale pre-crash successor edges toward the rebooted node can
    /// close into routing loops once it re-acquires labels.
    pub cold_reboot: bool,
}

/// All SRP control packets.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SrpMessage {
    /// Route request.
    Rreq(SrpRreq),
    /// Route reply.
    Rrep(SrpRrep),
    /// Route error.
    Rerr(SrpRerr),
}

impl SrpMessage {
    /// Approximate wire size in bytes.
    pub fn wire_bytes(&self) -> u32 {
        match self {
            // solicitation (28) + advertisement (20)
            SrpMessage::Rreq(_) => 48,
            SrpMessage::Rrep(_) => 36,
            SrpMessage::Rerr(r) => 8 + 4 * r.unreachable.len() as u32,
        }
    }

    /// Packet-type name for statistics.
    pub fn kind_name(&self) -> &'static str {
        match self {
            SrpMessage::Rreq(_) => "srp-rreq",
            SrpMessage::Rrep(_) => "srp-rrep",
            SrpMessage::Rerr(_) => "srp-rerr",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use slr_core::Fraction;

    #[test]
    fn wire_sizes() {
        let rreq = SrpMessage::Rreq(SrpRreq {
            src: 1,
            rreq_id: 1,
            dst: 2,
            dst_seqno: 0,
            fd: Fraction::one(),
            unknown: true,
            reset: false,
            dest_only: false,
            no_advert: false,
            d: 0,
            ttl: 5,
            src_seqno: 1,
            src_lfd: Fraction::zero(),
            src_ld: 0,
        });
        assert_eq!(rreq.wire_bytes(), 48);
        assert_eq!(rreq.kind_name(), "srp-rreq");
        let rerr = SrpMessage::Rerr(SrpRerr {
            unreachable: vec![1, 2, 3],
            cold_reboot: false,
        });
        assert_eq!(rerr.wire_bytes(), 20);
    }
}
