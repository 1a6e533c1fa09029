//! Property tests for the MAC state machine: conservation and
//! single-transmitter invariants under randomized event interleavings.
//!
//! The harness mirrors the real simulator's contract: it owns the timers
//! the MAC arms (`SetTimer` replaces, `CancelTimer` removes), acknowledges
//! every transmission with `on_tx_end_into`, and never delivers events the MAC
//! did not cause. Within that contract, any interleaving must satisfy:
//!
//! 1. **Single transmitter** — the MAC never starts a transmission while
//!    one is in flight.
//! 2. **Conservation** — once drained with no peer responding, every
//!    accepted unicast payload comes back exactly once as `TxFailed`;
//!    every broadcast completes with `TxDone`; queue overflow is reported
//!    as `Dropped`. Nothing is lost, nothing is duplicated.

use proptest::prelude::*;

use slr_netsim::hash::FastHashMap;
use slr_netsim::time::{SimDuration, SimTime};
use slr_radio::{Mac, MacConfig, MacEffect, MacTimer};

/// Runs one MAC input and returns the effects it appended.
fn effects(input: impl FnOnce(&mut Vec<MacEffect<u64>>)) -> Vec<MacEffect<u64>> {
    let mut fx = Vec::new();
    input(&mut fx);
    fx
}

struct Harness {
    mac: Mac<u64>,
    now: SimTime,
    timers: FastHashMap<MacTimer, SimTime>,
    transmitting: Option<SimTime>, // end time of the in-flight frame
    failed: Vec<u64>,
    done_broadcasts: u64,
    dropped: Vec<u64>,
}

impl Harness {
    fn new(seed: u64) -> Self {
        Harness {
            mac: Mac::new(0, MacConfig::default(), seed),
            now: SimTime::ZERO,
            timers: FastHashMap::default(),
            transmitting: None,
            failed: Vec::new(),
            done_broadcasts: 0,
            dropped: Vec::new(),
        }
    }

    fn apply(&mut self, fx: Vec<MacEffect<u64>>) {
        for e in fx {
            match e {
                MacEffect::StartTx(frame) => {
                    assert!(
                        self.transmitting.is_none(),
                        "MAC started a transmission while one was in flight"
                    );
                    // Model airtime coarsely from the frame size.
                    let airtime = SimDuration::from_micros(200 + frame.bytes as u64 * 4);
                    self.transmitting = Some(self.now + airtime);
                }
                MacEffect::SetTimer(kind, delay) => {
                    self.timers.insert(kind, self.now + delay);
                }
                MacEffect::CancelTimer(kind) => {
                    self.timers.remove(&kind);
                }
                MacEffect::TxFailed { payload, .. } => self.failed.push(payload),
                MacEffect::TxDone { dst } => {
                    if dst.is_none() {
                        self.done_broadcasts += 1;
                    }
                }
                MacEffect::Dropped { payload, .. } => self.dropped.push(payload),
                MacEffect::Deliver { .. } => {}
            }
        }
    }

    /// Advances to the next pending completion (tx end or earliest timer).
    /// Returns false when fully quiescent.
    fn step(&mut self) -> bool {
        let tx_end = self.transmitting;
        let timer = self
            .timers
            .iter()
            .min_by_key(|(_, t)| **t)
            .map(|(k, t)| (*k, *t));
        match (tx_end, timer) {
            (Some(te), Some((k, tt))) => {
                if te <= tt {
                    self.finish_tx(te);
                } else {
                    self.fire_timer(k, tt);
                }
            }
            (Some(te), None) => self.finish_tx(te),
            (None, Some((k, tt))) => self.fire_timer(k, tt),
            (None, None) => return false,
        }
        true
    }

    fn finish_tx(&mut self, at: SimTime) {
        self.now = at;
        self.transmitting = None;
        let fx = effects(|fx| self.mac.on_tx_end_into(self.now, fx));
        self.apply(fx);
    }

    fn fire_timer(&mut self, kind: MacTimer, at: SimTime) {
        self.now = at;
        self.timers.remove(&kind);
        let fx = effects(|fx| self.mac.on_timer_into(kind, self.now, fx));
        self.apply(fx);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// With no peer ever responding, every accepted unicast fails exactly
    /// once, every broadcast completes, and queue overflow accounts for
    /// the rest. The single-transmitter invariant holds throughout.
    #[test]
    fn mac_conserves_payloads(
        seed in 0u64..1_000,
        frames in prop::collection::vec((prop::bool::ANY, 40u32..600, prop::bool::ANY), 1..70),
    ) {
        let mut h = Harness::new(seed);
        let mut unicasts = Vec::new();
        let mut broadcasts = 0u64;
        let mut offered = 0u64;
        for (i, (unicast, bytes, priority)) in frames.iter().enumerate() {
            let uid = i as u64;
            offered += 1;
            let dst = if *unicast { Some(3) } else { None };
            let fx = effects(|fx| h.mac.enqueue_into(uid, dst, *bytes, *priority, h.now, fx));
            let overflowed = fx
                .iter()
                .any(|e| matches!(e, MacEffect::Dropped { .. }));
            h.apply(fx);
            if !overflowed {
                if *unicast {
                    unicasts.push(uid);
                } else {
                    broadcasts += 1;
                }
            }
            // Occasionally let the MAC make progress mid-stream.
            if i % 7 == 3 {
                for _ in 0..20 {
                    if !h.step() {
                        break;
                    }
                }
            }
        }
        // Drain to quiescence (bounded: every frame terminates in finitely
        // many retries).
        let mut steps = 0u32;
        while h.step() {
            steps += 1;
            prop_assert!(steps < 200_000, "MAC failed to quiesce");
        }
        // Conservation.
        let mut failed = h.failed.clone();
        failed.sort_unstable();
        let mut expect = unicasts.clone();
        expect.sort_unstable();
        prop_assert_eq!(&failed, &expect, "every accepted unicast fails exactly once");
        prop_assert_eq!(h.done_broadcasts, broadcasts);
        prop_assert_eq!(
            h.dropped.len() as u64 + failed.len() as u64 + broadcasts,
            offered,
            "accepted + overflowed = offered"
        );
    }

    /// Busy/idle flapping mid-backoff never wedges the MAC or breaks the
    /// single-transmitter invariant.
    #[test]
    fn mac_survives_carrier_flapping(
        seed in 0u64..1_000,
        flaps in prop::collection::vec(1u64..2_000, 1..40),
    ) {
        let mut h = Harness::new(seed);
        let fx = effects(|fx| h.mac.enqueue_into(1, None, 100, true, h.now, fx));
        h.apply(fx);
        let mut busy = false;
        for us in flaps {
            h.now += SimDuration::from_micros(us);
            // Can't be "physically busy" while we ourselves transmit —
            // finish any in-flight frame first, as the channel would.
            if h.transmitting.is_some() {
                let te = h.transmitting.unwrap().max(h.now);
                h.finish_tx(te);
            }
            let fx = if busy {
                effects(|fx| h.mac.on_channel_idle_into(h.now, fx))
            } else {
                effects(|fx| h.mac.on_channel_busy_into(h.now, fx))
            };
            busy = !busy;
            h.apply(fx);
        }
        if busy {
            let now = h.now;
            let fx = effects(|fx| h.mac.on_channel_idle_into(now, fx));
            h.apply(fx);
        }
        let mut steps = 0u32;
        while h.step() {
            steps += 1;
            prop_assert!(steps < 100_000, "MAC wedged after flapping");
        }
        prop_assert_eq!(h.done_broadcasts, 1, "the broadcast still completes");
    }
}
