//! Hostile cross-thread stress for the window pool.
//!
//! The unit tests in `pool.rs` cover the contract; these tests attack the
//! synchronization under the conditions the parallel engine actually
//! produces at scale — thousands of back-to-back windows from the pool's
//! one owner with every other thread stealing, and panics thrown
//! mid-steal with the session reused afterwards. Run under
//! ThreadSanitizer in the nightly workflow (see
//! `.github/workflows/nightly.yml`) these same tests double as a
//! data-race probe for the pool's `unsafe` core.

use std::sync::atomic::{AtomicU64, Ordering};

use slr_netsim::pool::{with_core_pool, WindowExec};

/// The steal-heavy hostile case: one owner publishes thousands of
/// back-to-back windows while four thieves race it for shards. The shard
/// count cycles through 1 (the inline path) up to 16 so the two dispatch
/// paths interleave, and each burst of windows runs through a freshly
/// claimed session on the pool's one slot, so a released slot must serve
/// its next owner cleanly. Every shard must run exactly once per window
/// with the right data, no matter who steals it.
#[test]
fn steal_heavy_cross_session_windows() {
    const SESSIONS: usize = 6;
    const WINDOWS: u64 = 1_500;
    const MAX_SHARDS: usize = 16;
    with_core_pool(4, |pool| {
        for j in 0..SESSIONS {
            let session = pool.session();
            for w in 0..WINDOWS {
                let shards = 1 + ((w as usize + j) % MAX_SHARDS);
                let hits = [const { AtomicU64::new(0) }; MAX_SHARDS];
                session.run_window(shards, &|i| {
                    hits[i].fetch_add(w ^ ((i as u64) << 32), Ordering::Relaxed);
                });
                for (i, h) in hits.iter().enumerate().take(shards) {
                    assert_eq!(
                        h.load(Ordering::Relaxed),
                        w ^ ((i as u64) << 32),
                        "session {j} window {w}"
                    );
                }
                // Shards past the window's width must never run.
                for h in hits.iter().skip(shards) {
                    assert_eq!(h.load(Ordering::Relaxed), 0, "session {j} window {w}");
                }
            }
        }
    });
}

/// Worker panics mid-steal: the owner runs hundreds of windows that each
/// panic on a late shard — stolen by a thief or popped by the owner,
/// depending on the race — with clean full-width windows in between to
/// keep the thieves busy. The panic must re-raise on the owner (after all
/// shards finished or were abandoned), the same session must serve a
/// clean window immediately afterwards, and none of it may poison the
/// pool for the next owner.
#[test]
fn core_pool_survives_shard_panic_mid_steal() {
    with_core_pool(4, |pool| {
        let session = pool.session();
        for w in 0..300u64 {
            let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                session.run_window(8, &|i| {
                    if i == 5 {
                        panic!("injected shard failure, window {w}");
                    }
                });
            }));
            assert!(r.is_err(), "window {w}: shard panic must reach the owner");
            // The same session must be fully serviceable right after.
            let hits = [const { AtomicU64::new(0) }; 4];
            session.run_window(4, &|i| {
                hits[i].fetch_add(1, Ordering::Relaxed);
            });
            for (i, h) in hits.iter().enumerate() {
                assert_eq!(h.load(Ordering::Relaxed), 1, "window {w} shard {i}");
            }
            let hits = [const { AtomicU64::new(0) }; 8];
            session.run_window(8, &|i| {
                hits[i].fetch_add(1, Ordering::Relaxed);
            });
            for h in &hits {
                assert_eq!(h.load(Ordering::Relaxed), 1, "window {w}");
            }
        }
        drop(session);
        let next = pool.session();
        let total = AtomicU64::new(0);
        next.run_window(8, &|i| {
            total.fetch_add(i as u64, Ordering::Relaxed);
        });
        assert_eq!(total.load(Ordering::Relaxed), 28);
    });
}
