//! Hostile cross-thread stress for the unified core pool.
//!
//! The unit tests in `pool.rs` cover the contract; these tests attack the
//! synchronization under the conditions the parallel engine actually
//! produces at scale — thousands of back-to-back windows, steal-heavy
//! contention with more window-owning sessions than threads, and panics
//! thrown mid-steal with the pool reused afterwards. Run under
//! ThreadSanitizer in the nightly workflow (see
//! `.github/workflows/nightly.yml`) these same tests double as a
//! data-race probe for the pool's `unsafe` core.

use std::sync::atomic::{AtomicU64, Ordering};

use slr_netsim::pool::{with_core_pool, WindowExec};

/// The steal-heavy hostile case for the *unified* core pool: several
/// concurrent trial jobs each publish thousands of windows with varying
/// shard counts through their own sessions while the caller drives yet
/// another session from outside the pool — so every thread alternates
/// between running its own shards, stealing from other sessions' deques
/// and picking fresh trial jobs off the injector. More jobs than threads
/// keeps the injector non-empty while windows are in flight, and the
/// shard count cycles through 1 (the inline path) up to 16 so the two
/// dispatch paths interleave per job. Every shard must run exactly once
/// per window with the right data, no matter who steals it.
#[test]
fn steal_heavy_cross_session_windows() {
    const JOBS: usize = 6;
    const WINDOWS: u64 = 1_500;
    const MAX_SHARDS: usize = 16;
    let finished: Vec<AtomicU64> = (0..JOBS).map(|_| AtomicU64::new(0)).collect();
    with_core_pool(4, |pool| {
        for j in 0..JOBS {
            let finished = &finished;
            pool.submit(Box::new(move |exec| {
                for w in 0..WINDOWS {
                    let shards = 1 + ((w as usize + j) % MAX_SHARDS);
                    let hits = [const { AtomicU64::new(0) }; MAX_SHARDS];
                    exec.run_window(shards, &|i| {
                        hits[i].fetch_add(w ^ ((i as u64) << 32), Ordering::Relaxed);
                    });
                    for (i, h) in hits.iter().enumerate().take(shards) {
                        assert_eq!(
                            h.load(Ordering::Relaxed),
                            w ^ ((i as u64) << 32),
                            "job {j} window {w}"
                        );
                    }
                    // Shards past the window's width must never run.
                    for h in hits.iter().skip(shards) {
                        assert_eq!(h.load(Ordering::Relaxed), 0, "job {j} window {w}");
                    }
                }
                finished[j].fetch_add(1, Ordering::Relaxed);
            }));
        }
        // The caller competes as a window owner of its own while the
        // trial jobs are still in flight, then helps drain the injector.
        {
            let session = pool.session();
            for w in 0..WINDOWS {
                let hits = [const { AtomicU64::new(0) }; MAX_SHARDS];
                session.run_window(MAX_SHARDS, &|i| {
                    hits[i].fetch_add(w + i as u64 + 1, Ordering::Relaxed);
                });
                for (i, h) in hits.iter().enumerate() {
                    assert_eq!(
                        h.load(Ordering::Relaxed),
                        w + i as u64 + 1,
                        "caller window {w}"
                    );
                }
            }
        }
        pool.wait_all();
        for (j, f) in finished.iter().enumerate() {
            assert_eq!(f.load(Ordering::Relaxed), 1, "job {j} did not complete");
        }
    });
}

/// Worker panics mid-steal on the unified pool: one trial job runs
/// hundreds of windows that each panic on a late shard — stolen by a
/// thief or popped by the owner, depending on the race — while clean
/// trial jobs keep the thieves busy on the same sessions. The panic
/// must re-raise on the window's *owner* (after all shards finished or
/// were abandoned), the same session must serve a clean window
/// immediately afterwards, and none of it may disturb the concurrent
/// jobs or poison the pool.
#[test]
fn core_pool_survives_shard_panic_mid_steal() {
    const CLEAN_JOBS: usize = 8;
    let completed = AtomicU64::new(0);
    with_core_pool(4, |pool| {
        pool.submit(Box::new(|exec| {
            for w in 0..300u64 {
                let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    exec.run_window(8, &|i| {
                        if i == 5 {
                            panic!("injected shard failure, window {w}");
                        }
                    });
                }));
                assert!(r.is_err(), "window {w}: shard panic must reach the owner");
                // The same session must be fully serviceable right after.
                let hits = [const { AtomicU64::new(0) }; 4];
                exec.run_window(4, &|i| {
                    hits[i].fetch_add(1, Ordering::Relaxed);
                });
                for (i, h) in hits.iter().enumerate() {
                    assert_eq!(h.load(Ordering::Relaxed), 1, "window {w} shard {i}");
                }
            }
        }));
        for _ in 0..CLEAN_JOBS {
            let completed = &completed;
            pool.submit(Box::new(move |exec| {
                for _ in 0..300u64 {
                    let hits = [const { AtomicU64::new(0) }; 8];
                    exec.run_window(8, &|i| {
                        hits[i].fetch_add(1, Ordering::Relaxed);
                    });
                    for h in &hits {
                        assert_eq!(h.load(Ordering::Relaxed), 1);
                    }
                }
                completed.fetch_add(1, Ordering::Relaxed);
            }));
        }
        pool.wait_all();
    });
    assert_eq!(completed.load(Ordering::Relaxed), CLEAN_JOBS as u64);
}
