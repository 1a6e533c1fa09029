//! Per-packet event tracing.
//!
//! When enabled on a [`crate::sim::Sim`], every data packet's life is
//! recorded — origination, each forwarding hop, delivery or drop — which
//! makes routing pathologies (loops, detours, salvage chains) directly
//! inspectable in tests and during protocol debugging.

use std::collections::BTreeMap;

use slr_netsim::time::SimTime;
use slr_protocols::{DataDropReason, NodeId};

/// One event in a packet's life.
#[derive(Debug, Clone, PartialEq)]
pub enum TraceEvent {
    /// The application handed the packet to the routing layer.
    Originated {
        /// Source node.
        node: NodeId,
        /// When.
        time: SimTime,
    },
    /// The routing layer forwarded the packet to a neighbor.
    Forwarded {
        /// Forwarding node.
        from: NodeId,
        /// Chosen next hop.
        to: NodeId,
        /// When.
        time: SimTime,
    },
    /// A forwarding attempt failed at the MAC (retries exhausted): the
    /// packet never reached `to`; the routing layer gets it back for
    /// salvage. Pairs with the most recent matching [`TraceEvent::Forwarded`].
    ForwardFailed {
        /// The node whose transmission failed.
        from: NodeId,
        /// The unreachable next hop.
        to: NodeId,
        /// When.
        time: SimTime,
    },
    /// The packet reached its destination.
    Delivered {
        /// Destination node.
        node: NodeId,
        /// When.
        time: SimTime,
    },
    /// The packet was lost: abandoned by the routing layer, offered at a
    /// crashed source, or dropped by a full MAC interface queue
    /// ([`DataDropReason::IfqOverflow`]).
    Dropped {
        /// Node where the drop happened.
        node: NodeId,
        /// Why.
        reason: DataDropReason,
        /// When.
        time: SimTime,
    },
}

impl TraceEvent {
    /// The time the event happened.
    pub fn time(&self) -> SimTime {
        match self {
            TraceEvent::Originated { time, .. }
            | TraceEvent::Forwarded { time, .. }
            | TraceEvent::ForwardFailed { time, .. }
            | TraceEvent::Delivered { time, .. }
            | TraceEvent::Dropped { time, .. } => *time,
        }
    }
}

/// A packet's final fate, as recorded by the trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PacketFate {
    /// Delivered to its destination.
    Delivered,
    /// Lost, for the given reason — interface-queue overflows included,
    /// so every drop the metrics count has a fate here.
    Dropped(DataDropReason),
    /// Still somewhere in the network when the simulation ended.
    InFlight,
}

/// The trace store for one trial. Bounded: tracing stops accepting *new*
/// packets beyond `capacity` uids (events for already-traced packets keep
/// accumulating), so long runs cannot exhaust memory.
#[derive(Debug, Clone)]
pub struct TraceLog {
    by_uid: BTreeMap<u64, Vec<TraceEvent>>,
    capacity: usize,
}

impl TraceLog {
    /// Creates a trace store tracking at most `capacity` packets.
    pub fn new(capacity: usize) -> Self {
        TraceLog {
            by_uid: BTreeMap::new(),
            capacity,
        }
    }

    /// Records an event for packet `uid`.
    pub fn record(&mut self, uid: u64, event: TraceEvent) {
        if let Some(events) = self.by_uid.get_mut(&uid) {
            events.push(event);
            return;
        }
        if self.by_uid.len() < self.capacity {
            self.by_uid.insert(uid, vec![event]);
        }
    }

    /// Number of packets traced.
    pub fn len(&self) -> usize {
        self.by_uid.len()
    }

    /// Whether nothing was traced.
    pub fn is_empty(&self) -> bool {
        self.by_uid.is_empty()
    }

    /// The raw events of one packet, in order.
    pub fn events(&self, uid: u64) -> &[TraceEvent] {
        self.by_uid.get(&uid).map(Vec::as_slice).unwrap_or(&[])
    }

    /// The node path the packet took: origin, then each next hop in
    /// forwarding order (re-forwards after salvage appear as they
    /// happened).
    pub fn path(&self, uid: u64) -> Vec<NodeId> {
        let mut path = Vec::new();
        for e in self.events(uid) {
            match e {
                TraceEvent::Originated { node, .. } => path.push(*node),
                TraceEvent::Forwarded { to, .. } => path.push(*to),
                _ => {}
            }
        }
        path
    }

    /// Number of forwarding transmissions the packet consumed (including
    /// attempts that later failed at the MAC).
    pub fn hop_count(&self, uid: u64) -> usize {
        self.events(uid)
            .iter()
            .filter(|e| matches!(e, TraceEvent::Forwarded { .. }))
            .count()
    }

    /// The successful hops the packet actually traversed, as directed
    /// `(from, to)` edges in time order: forwarding attempts the MAC
    /// later reported as failed (the packet never reached `to`) are
    /// excluded. This is the packet's physical trajectory, the right
    /// object for loop analysis — the raw [`TraceLog::path`] also lists
    /// next hops that never received the packet.
    pub fn successful_hops(&self, uid: u64) -> Vec<(NodeId, NodeId)> {
        // (from, to, failed): a ForwardFailed cancels the most recent
        // unmatched attempt on the same directed edge.
        let mut hops: Vec<(NodeId, NodeId, bool)> = Vec::new();
        for e in self.events(uid) {
            match e {
                TraceEvent::Forwarded { from, to, .. } => hops.push((*from, *to, false)),
                TraceEvent::ForwardFailed { from, to, .. } => {
                    if let Some(h) = hops
                        .iter_mut()
                        .rev()
                        .find(|h| h.0 == *from && h.1 == *to && !h.2)
                    {
                        h.2 = true;
                    }
                }
                _ => {}
            }
        }
        hops.into_iter()
            .filter(|h| !h.2)
            .map(|h| (h.0, h.1))
            .collect()
    }

    /// The packet's final fate.
    pub fn fate(&self, uid: u64) -> PacketFate {
        for e in self.events(uid).iter().rev() {
            match e {
                TraceEvent::Delivered { .. } => return PacketFate::Delivered,
                TraceEvent::Dropped { reason, .. } => return PacketFate::Dropped(*reason),
                _ => {}
            }
        }
        PacketFate::InFlight
    }

    /// Iterates over `(uid, events)` pairs in uid order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, &[TraceEvent])> {
        self.by_uid.iter().map(|(k, v)| (*k, v.as_slice()))
    }

    /// Renders one packet's trace as a compact single line, e.g.
    /// `uid 7: 0 →1 →4 ✓ (3 hops, 0.021s)`.
    pub fn render(&self, uid: u64) -> String {
        let events = self.events(uid);
        if events.is_empty() {
            return format!("uid {uid}: (not traced)");
        }
        let mut out = format!("uid {uid}:");
        let mut start = None;
        let mut end = None;
        for e in events {
            match e {
                TraceEvent::Originated { node, time } => {
                    out.push_str(&format!(" {node}"));
                    start = Some(*time);
                }
                TraceEvent::Forwarded { to, .. } => out.push_str(&format!(" →{to}")),
                TraceEvent::ForwardFailed { to, .. } => out.push_str(&format!(" ⇥{to}")),
                TraceEvent::Delivered { time, .. } => {
                    out.push_str(" ✓");
                    end = Some(*time);
                }
                TraceEvent::Dropped { reason, time, .. } => {
                    out.push_str(&format!(" ✗({reason:?})"));
                    end = Some(*time);
                }
            }
        }
        if let (Some(s), Some(e)) = (start, end) {
            out.push_str(&format!(
                " ({} hops, {:.4}s)",
                self.hop_count(uid),
                e.saturating_since(s).as_secs_f64()
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ms: u64) -> SimTime {
        SimTime::from_millis(ms)
    }

    #[test]
    fn records_path_and_fate() {
        let mut log = TraceLog::new(10);
        log.record(
            1,
            TraceEvent::Originated {
                node: 0,
                time: t(0),
            },
        );
        log.record(
            1,
            TraceEvent::Forwarded {
                from: 0,
                to: 3,
                time: t(1),
            },
        );
        log.record(
            1,
            TraceEvent::Forwarded {
                from: 3,
                to: 7,
                time: t(2),
            },
        );
        log.record(
            1,
            TraceEvent::Delivered {
                node: 7,
                time: t(3),
            },
        );
        assert_eq!(log.path(1), vec![0, 3, 7]);
        assert_eq!(log.hop_count(1), 2);
        assert_eq!(log.fate(1), PacketFate::Delivered);
        let line = log.render(1);
        assert!(line.contains("uid 1"), "{line}");
        assert!(line.contains('✓'));
    }

    #[test]
    fn dropped_and_inflight_fates() {
        let mut log = TraceLog::new(10);
        log.record(
            2,
            TraceEvent::Originated {
                node: 4,
                time: t(0),
            },
        );
        log.record(
            2,
            TraceEvent::Dropped {
                node: 4,
                reason: DataDropReason::NoRoute,
                time: t(5),
            },
        );
        assert_eq!(log.fate(2), PacketFate::Dropped(DataDropReason::NoRoute));
        log.record(
            3,
            TraceEvent::Originated {
                node: 1,
                time: t(1),
            },
        );
        assert_eq!(log.fate(3), PacketFate::InFlight);
        assert_eq!(log.fate(99), PacketFate::InFlight);
    }

    #[test]
    fn capacity_bounds_new_packets_only() {
        let mut log = TraceLog::new(1);
        log.record(
            1,
            TraceEvent::Originated {
                node: 0,
                time: t(0),
            },
        );
        log.record(
            2,
            TraceEvent::Originated {
                node: 0,
                time: t(0),
            },
        );
        assert_eq!(log.len(), 1);
        // Existing packets keep accumulating.
        log.record(
            1,
            TraceEvent::Forwarded {
                from: 0,
                to: 1,
                time: t(1),
            },
        );
        assert_eq!(log.events(1).len(), 2);
        assert!(log.events(2).is_empty());
    }

    #[test]
    fn successful_hops_exclude_failed_attempts() {
        let mut log = TraceLog::new(4);
        log.record(
            9,
            TraceEvent::Originated {
                node: 0,
                time: t(0),
            },
        );
        // 0→1 ok, 1→2 fails, 1→3 ok (salvage), 3→2 ok.
        for (from, to, ms) in [(0, 1, 1), (1, 2, 2), (1, 3, 4), (3, 2, 5)] {
            log.record(
                9,
                TraceEvent::Forwarded {
                    from,
                    to,
                    time: t(ms),
                },
            );
        }
        log.record(
            9,
            TraceEvent::ForwardFailed {
                from: 1,
                to: 2,
                time: t(3),
            },
        );
        assert_eq!(log.successful_hops(9), vec![(0, 1), (1, 3), (3, 2)]);
        assert_eq!(log.hop_count(9), 4, "hop_count keeps failed attempts");
        assert!(log.render(9).contains('⇥'), "{}", log.render(9));
    }

    #[test]
    fn event_time_accessor() {
        let e = TraceEvent::Forwarded {
            from: 0,
            to: 1,
            time: t(9),
        };
        assert_eq!(e.time(), t(9));
    }
}
