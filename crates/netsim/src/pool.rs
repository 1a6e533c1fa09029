//! A persistent scoped work-stealing pool for the parallel engine's
//! same-timestamp windows.
//!
//! The parallel event engine dispatches hundreds of thousands of tiny
//! windows per trial; spawning threads per window would dwarf the work.
//! [`with_core_pool`] spawns its threads **once** per trial, and the
//! trial's event loop — the pool's one window owner, holding the single
//! [`CoreSession`] — publishes each window's shards on a [`StealDeque`]
//! for those threads to steal. Idle threads spin briefly (windows arrive
//! back-to-back in the hot phase of a dense trial), then park on a
//! condvar so an idle pool costs nothing. Trials themselves run
//! concurrently on the sweep's scoped threads, each with its own pool.
//!
//! ## Safety
//!
//! This is the only module in the workspace that uses `unsafe`. The whole
//! of it is the classic scoped-pool lifetime erasure in
//! [`CoreSession::run_window`]: a `&dyn Fn(usize)` is published to other
//! threads through a raw pointer whose lifetime is erased, which is
//! sound because
//!
//! * a pool has one session slot and a session is `!Sync`, so one owner
//!   thread at a time writes the pointer, and only between windows;
//! * `run_window` does not return until every stolen shard has finished
//!   running the job (checked through the acquire-loaded `pending`
//!   counter), so the borrow outlives every dereference;
//! * thieves only read the pointer after stealing a shard that was
//!   pushed *after* the pointer write (the deque's release/acquire pair
//!   orders the two), and the owner only overwrites it after observing
//!   the previous window's completion — no data race on the slot;
//! * the job must be `Sync` (it is shared by the owner and every thief
//!   concurrently) and the data it touches is partitioned by the caller
//!   (each shard index addresses its own disjoint shard).

#![allow(unsafe_code)]

use std::cell::{Cell, UnsafeCell};
use std::marker::PhantomData;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex};

use crate::deque::StealDeque;

/// The erased form a job is stored in while a window is in flight (raw
/// trait-object pointers default to `'static`; validity is bounded by the
/// window as documented above, not by the type).
type JobPtr = *const (dyn Fn(usize) + Sync);

/// Spins this many times looking for work before parking. Windows in
/// the dense hot phase arrive within microseconds of each other; parking
/// between them would pay a syscall round-trip per window. The count is
/// deliberately modest so an oversubscribed host (workers > cores)
/// degrades to parking instead of burning whole timeslices.
const SPIN_ROUNDS: u32 = 256;

/// Something that can execute one same-timestamp window's shards.
///
/// The parallel engine builds a window, picks a shard count, and hands a
/// `job` here; the executor must invoke `job(i)` exactly once for every
/// `i in 0..shards` (on any threads, in any order) and return only after
/// all invocations have completed, which is what makes borrowing from
/// the caller's stack sound. Which thread runs which shard is explicitly
/// *not* part of the contract: the engine's canonical merge keys side
/// effects by shard index, so executor scheduling can never reach
/// simulation output.
pub trait WindowExec {
    /// Upper bound on useful `shards` values (executor capacity).
    fn shard_cap(&self) -> usize;
    /// Runs the window to completion.
    ///
    /// # Panics
    ///
    /// Panics if `job` panicked on any shard (after all shards finished
    /// or were abandoned, so borrowed data is no longer referenced).
    fn run_window(&self, shards: usize, job: &(dyn Fn(usize) + Sync));
}

/// Shard-deque capacity: windows never need more shards than this, and
/// [`CoreSession::shard_cap`] clamps requests to it.
const SESSION_DEQUE_CAP: usize = 256;

/// The pool's one window-owner slot: the deque thieves steal shard
/// indices from, plus the lifetime-erased job pointer they run them
/// through.
struct SessionCtl {
    /// Claimed by the one [`CoreSession`], if any.
    in_use: AtomicBool,
    /// The current window's job. Written by the owner while the session
    /// is inactive, read by thieves only after a successful steal of a
    /// shard pushed *after* the write (release/acquire via the deque).
    job: UnsafeCell<Option<JobPtr>>,
    /// Shard indices of the in-flight window, stealable by any worker.
    deque: StealDeque,
    /// Shards handed to the deque and not yet finished executing.
    pending: AtomicUsize,
    /// Whether a window is in flight (thieves may look at the deque).
    active: AtomicBool,
    /// Whether any shard of the current window panicked.
    panicked: AtomicBool,
}

// SAFETY: the raw job pointer is the only non-Sync field; the owner only
// writes it while `active` is false and `pending` is zero, and thieves
// only read it after stealing a shard whose push happened after the
// write (the deque's release/acquire pair orders the two) — see
// `CoreSession::run_window`.
unsafe impl Sync for SessionCtl {}

struct CoreCtl {
    shutdown: AtomicBool,
    session: SessionCtl,
    lot: Mutex<()>,
    bell: Condvar,
}

impl CoreCtl {
    /// Work-availability check for the park path. Must be conservative
    /// (never claim "nothing" when the owner's stores are visible): the
    /// owner stores before taking the lot lock, so a parker holding the
    /// lock either sees the work or parks before the owner's notify.
    fn has_work_hint(&self) -> bool {
        let s = &self.session;
        s.active.load(Ordering::Acquire) && !s.deque.is_empty_hint()
    }

    /// Lock-then-notify so a concurrent parker cannot miss the wakeup.
    fn ring(&self) {
        {
            let _g = self.lot.lock().expect("core lot");
        }
        self.bell.notify_all();
    }
}

/// Handle to the work-stealing pool, valid inside one [`with_core_pool`]
/// scope. Windows reach its threads through the one [`CorePool::session`].
pub struct CorePool<'p> {
    ctl: &'p CoreCtl,
    threads: usize,
}

/// The claimed window-owner slot of a pool; the [`WindowExec`] the
/// parallel engine drives its same-timestamp windows through. Released
/// on drop. Not `Sync`, which the safety argument above relies on:
///
/// ```compile_fail
/// fn shared<T: Sync>() {}
/// shared::<slr_netsim::pool::CoreSession<'static>>();
/// ```
pub struct CoreSession<'p> {
    ctl: &'p CoreCtl,
    threads: usize,
    /// `!Sync`: windows are published from one thread at a time.
    _owner: PhantomData<Cell<()>>,
}

/// Runs `f` with a pool of `threads` persistent shard thieves. The
/// calling thread is not a pool worker, but it runs shards itself inside
/// [`CoreSession::run_window`], so a trial that wants `w` workers asks
/// for `w - 1` threads. `threads == 0` runs every window inline on the
/// caller.
///
/// # Panics
///
/// Re-raises `f`'s panic (after retiring the workers).
pub fn with_core_pool<R>(threads: usize, f: impl FnOnce(&CorePool<'_>) -> R) -> R {
    let ctl = CoreCtl {
        shutdown: AtomicBool::new(false),
        session: SessionCtl {
            in_use: AtomicBool::new(false),
            job: UnsafeCell::new(None),
            deque: StealDeque::new(SESSION_DEQUE_CAP),
            pending: AtomicUsize::new(0),
            active: AtomicBool::new(false),
            panicked: AtomicBool::new(false),
        },
        lot: Mutex::new(()),
        bell: Condvar::new(),
    };
    std::thread::scope(|s| {
        for _ in 0..threads {
            s.spawn(|| core_worker_loop(&ctl));
        }
        let pool = CorePool { ctl: &ctl, threads };
        // Retire the workers however `f` exits, or the scope would wait
        // on parked threads forever.
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(&pool)));
        ctl.shutdown.store(true, Ordering::Release);
        ctl.ring();
        r.unwrap_or_else(|p| std::panic::resume_unwind(p))
    })
}

impl CorePool<'_> {
    /// Claims the pool's window-owner slot. The caller (the thread
    /// driving one trial's event loop) publishes each same-timestamp
    /// window through the returned session; the pool threads steal its
    /// shards.
    ///
    /// # Panics
    ///
    /// Panics if the slot is already claimed: a pool has one owner.
    pub fn session(&self) -> CoreSession<'_> {
        let taken = self.ctl.session.in_use.swap(true, Ordering::Acquire);
        assert!(!taken, "core pool session already claimed");
        CoreSession {
            ctl: self.ctl,
            threads: self.threads,
            _owner: PhantomData,
        }
    }
}

impl Drop for CoreSession<'_> {
    fn drop(&mut self) {
        let sctl = &self.ctl.session;
        debug_assert!(!sctl.active.load(Ordering::Acquire));
        sctl.in_use.store(false, Ordering::Release);
    }
}

impl WindowExec for CoreSession<'_> {
    fn shard_cap(&self) -> usize {
        self.ctl.session.deque.capacity()
    }

    fn run_window(&self, shards: usize, job: &(dyn Fn(usize) + Sync)) {
        debug_assert!(shards <= self.shard_cap());
        // No thieves exist, or nothing to share: run inline in shard
        // order (the merge re-establishes canonical order either way).
        if self.threads == 0 || shards <= 1 {
            for i in 0..shards {
                job(i);
            }
            return;
        }
        let sctl = &self.ctl.session;
        debug_assert!(!sctl.active.load(Ordering::Acquire));
        debug_assert_eq!(sctl.pending.load(Ordering::Acquire), 0);
        // SAFETY: the previous window (if any) fully completed —
        // `pending` reached 0 below before `active` was cleared — so no
        // thief still reads the slot; the erased pointer stays valid
        // until this call returns, and every thief dereference is
        // ordered before the `pending` decrement we wait on.
        unsafe {
            let erased: JobPtr =
                std::mem::transmute::<*const (dyn Fn(usize) + Sync + '_), JobPtr>(job);
            *sctl.job.get() = Some(erased);
        }
        sctl.panicked.store(false, Ordering::Relaxed);
        sctl.pending.store(shards - 1, Ordering::Release);
        for i in 1..shards {
            let pushed = sctl.deque.push(i);
            debug_assert!(pushed, "shard_cap() bounds the shard count");
        }
        sctl.active.store(true, Ordering::Release);
        self.ctl.ring();

        // Run shard 0 (and whatever the thieves leave us) inline. A
        // panic must not unwind past in-flight steals: discard our
        // remaining shards, wait out the thieves, then resume it. Each
        // popped shard is taken off `pending` *before* it runs — `pending`
        // exists so we can wait out thieves still referencing the job
        // pointer, and a popped shard can no longer be stolen; counting
        // it after the run would leak the decrement if the shard panics
        // (the drain below only sees shards still in the deque) and spin
        // this wait forever.
        let mine = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            job(0);
            while let Some(i) = sctl.deque.pop() {
                sctl.pending.fetch_sub(1, Ordering::Release);
                job(i);
            }
        }));
        if mine.is_err() {
            while sctl.deque.pop().is_some() {
                sctl.pending.fetch_sub(1, Ordering::Release);
            }
        }
        let mut spins = 0u32;
        while sctl.pending.load(Ordering::Acquire) != 0 {
            spins += 1;
            if spins < SPIN_ROUNDS {
                std::hint::spin_loop();
            } else {
                std::thread::yield_now();
            }
        }
        sctl.active.store(false, Ordering::Release);
        if let Err(p) = mine {
            std::panic::resume_unwind(p);
        }
        if sctl.panicked.load(Ordering::Relaxed) {
            panic!("window shard panicked on a pool thread (see backtrace above)");
        }
    }
}

/// Steals and runs one shard of the in-flight window, if any. Returns
/// whether anything ran.
fn try_steal(ctl: &CoreCtl) -> bool {
    let sctl = &ctl.session;
    if !sctl.active.load(Ordering::Acquire) {
        return false;
    }
    let Some(i) = sctl.deque.steal() else {
        return false;
    };
    // SAFETY: the stolen shard was pushed after the owner staged the job
    // pointer; the deque's release/acquire ordering makes the staging
    // visible, and the owner cannot invalidate the pointer until our
    // `pending` decrement is observed.
    let job = unsafe { (*sctl.job.get()).expect("active session without a job") };
    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        // SAFETY: valid until `pending` reaches zero, see above.
        unsafe { (*job)(i) }
    }));
    if outcome.is_err() {
        sctl.panicked.store(true, Ordering::Relaxed);
    }
    sctl.pending.fetch_sub(1, Ordering::Release);
    true
}

fn core_worker_loop(ctl: &CoreCtl) {
    let mut spins = 0u32;
    loop {
        if try_steal(ctl) {
            spins = 0;
            continue;
        }
        if ctl.shutdown.load(Ordering::Acquire) {
            return;
        }
        spins += 1;
        if spins < SPIN_ROUNDS {
            std::hint::spin_loop();
        } else {
            let g = ctl.lot.lock().expect("core lot");
            if !ctl.has_work_hint() && !ctl.shutdown.load(Ordering::Acquire) {
                let _g = ctl.bell.wait(g).expect("core bell");
            }
            spins = 0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn core_session_windows_complete_with_thieves() {
        with_core_pool(3, |pool| {
            let sess = pool.session();
            for round in 0..200u64 {
                let shards = 1 + (round as usize % 6);
                let hits: [AtomicU64; 6] = std::array::from_fn(|_| AtomicU64::new(0));
                sess.run_window(shards, &|i| {
                    hits[i].fetch_add(round + 1, Ordering::Relaxed);
                });
                for (i, h) in hits.iter().enumerate() {
                    let want = if i < shards { round + 1 } else { 0 };
                    assert_eq!(h.load(Ordering::Relaxed), want, "round {round} shard {i}");
                }
            }
        });
    }

    #[test]
    fn core_pool_window_shard_panic_propagates_to_owner() {
        let result = std::panic::catch_unwind(|| {
            with_core_pool(2, |pool| {
                let sess = pool.session();
                sess.run_window(3, &|i| {
                    if i == 1 {
                        panic!("shard boom");
                    }
                });
            });
        });
        assert!(result.is_err(), "shard panic must surface in run_window");
    }

    /// A pool has one window owner: a second concurrent claim panics, and
    /// a released slot can be claimed again. With no threads the owner
    /// runs every shard inline.
    #[test]
    fn core_pool_has_one_session_slot() {
        with_core_pool(0, |pool| {
            let sess = pool.session();
            let second = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                drop(pool.session());
            }));
            assert!(second.is_err(), "a second owner must be refused");
            let total = AtomicU64::new(0);
            sess.run_window(4, &|i| {
                total.fetch_add(i as u64 + 1, Ordering::Relaxed);
            });
            assert_eq!(total.load(Ordering::Relaxed), 10);
            drop(sess);
            drop(pool.session());
        });
    }
}
