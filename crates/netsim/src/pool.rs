//! A persistent scoped work-stealing pool: the unified core budget.
//!
//! The parallel event engine dispatches hundreds of thousands of tiny
//! same-timestamp windows per trial; spawning threads per window (or even
//! per trial phase) would dwarf the work. [`CorePool`] spawns its threads
//! **once** per scope and serves two granularities from them: coarse
//! trial jobs (a shared FIFO injector — cross-trial sweep parallelism)
//! and fine window shards (per-session [`StealDeque`]s — intra-trial
//! parallelism). An idle thread steals whatever exists: shards first
//! (they block a window owner), then trial jobs. Idle threads spin
//! briefly (windows arrive back-to-back in the hot phase of a dense
//! trial), then park on a condvar so an idle pool costs nothing.
//!
//! ## Safety
//!
//! This is the only module in the workspace that uses `unsafe`. The whole
//! of it is the classic scoped-pool lifetime erasure in
//! [`CoreSession::run_window`]: a `&dyn Fn(usize)` is published to other
//! threads through a raw pointer whose lifetime is erased, which is
//! sound because
//!
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

use std::cell::UnsafeCell;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex};
use std::time::Duration;

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
pub trait WindowExec: Sync {
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

/// A trial-scale job drawn from the unified pool's injector. It receives
/// the window executor for the thread it lands on, so an intra-trial
/// parallel engine inside the job shares the same core budget.
pub type TrialJob<'env> = Box<dyn FnOnce(&dyn WindowExec) + Send + 'env>;

/// Per-session shard-deque capacity: windows never need more shards than
/// this, and [`CoreSession::shard_cap`] clamps requests to it.
const SESSION_DEQUE_CAP: usize = 256;

/// One window-owner slot: the deque thieves steal shard indices from,
/// plus the lifetime-erased job pointer they run them through.
struct SessionCtl {
    /// Claimed by exactly one owner thread at a time.
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

// SAFETY: the raw job pointer is the only non-Sync field; owners only
// write it while `active` is false and `pending` is zero, and thieves
// only read it after stealing a shard whose push happened after the
// write (the deque's release/acquire pair orders the two) — see
// `CoreSession::run_window`.
unsafe impl Sync for SessionCtl {}

struct CoreCtl<'env> {
    /// Coarse trial jobs, FIFO.
    injector: Mutex<VecDeque<TrialJob<'env>>>,
    submitted: AtomicUsize,
    completed: AtomicUsize,
    /// Whether any trial job panicked (re-raised when the scope ends).
    job_panicked: AtomicBool,
    shutdown: AtomicBool,
    sessions: Box<[SessionCtl]>,
    lot: Mutex<()>,
    bell: Condvar,
}

impl CoreCtl<'_> {
    /// Work-availability check for the park path. Must be conservative
    /// (never claim "nothing" when a publisher's stores are visible):
    /// both publishers store before taking the lot lock, so a parker
    /// holding the lock either sees the work or parks before the
    /// publisher's notify.
    fn has_work_hint(&self) -> bool {
        if !self.injector.lock().expect("core injector").is_empty() {
            return true;
        }
        self.sessions
            .iter()
            .any(|s| s.active.load(Ordering::Acquire) && !s.deque.is_empty_hint())
    }

    /// Lock-then-notify so a concurrent parker cannot miss the wakeup.
    fn ring(&self) {
        {
            let _g = self.lot.lock().expect("core lot");
        }
        self.bell.notify_all();
    }
}

/// Handle to the unified work-stealing pool, valid inside one
/// [`with_core_pool`] scope.
///
/// Two granularities draw from the same threads: trial jobs submitted via
/// [`CorePool::submit`] (cross-trial sweep parallelism), and window
/// shards published through a [`CoreSession`] (intra-trial parallelism).
/// Idle threads steal whichever work exists, so a sweep's tail (one slow
/// trial left) automatically converts its spare threads into intra-trial
/// window workers, and a single trial converts them into shard thieves.
pub struct CorePool<'p, 'env> {
    ctl: &'p CoreCtl<'env>,
    threads: usize,
}

/// A claimed window-owner slot on the unified pool; the [`WindowExec`]
/// the parallel engine drives its same-timestamp windows through.
/// Released on drop.
pub struct CoreSession<'p, 'env> {
    ctl: &'p CoreCtl<'env>,
    slot: usize,
    threads: usize,
}

/// Runs `f` with a unified pool of `threads` persistent workers. The
/// calling thread is not a pool worker, but participates when it runs
/// windows through a [`CorePool::session`] or waits in
/// [`CorePool::wait_all`] (both execute queued work inline), so the
/// budget for a saturated host is `threads = cores - 1` plus the caller,
/// or simply `cores` when the caller mostly blocks. `threads == 0`
/// degrades to running everything inline on the caller.
///
/// Submitted trial jobs may borrow anything that outlives the
/// `with_core_pool` call (the `'env` bound); all of them are run to
/// completion before this returns (even if `f` forgot to wait), unless
/// `f` unwinds, in which case not-yet-started jobs are dropped.
///
/// # Panics
///
/// Re-raises `f`'s panic; otherwise panics if any trial job panicked.
pub fn with_core_pool<'env, R>(threads: usize, f: impl FnOnce(&CorePool<'_, 'env>) -> R) -> R {
    let ctl = CoreCtl {
        injector: Mutex::new(VecDeque::new()),
        submitted: AtomicUsize::new(0),
        completed: AtomicUsize::new(0),
        job_panicked: AtomicBool::new(false),
        shutdown: AtomicBool::new(false),
        // One slot per thread that can own a window concurrently: every
        // pool worker (each runs at most one trial job at a time) plus
        // the caller, with slack for nested/exotic callers.
        sessions: (0..threads + 4)
            .map(|_| SessionCtl {
                in_use: AtomicBool::new(false),
                job: UnsafeCell::new(None),
                deque: StealDeque::new(SESSION_DEQUE_CAP),
                pending: AtomicUsize::new(0),
                active: AtomicBool::new(false),
                panicked: AtomicBool::new(false),
            })
            .collect(),
        lot: Mutex::new(()),
        bell: Condvar::new(),
    };
    std::thread::scope(|s| {
        for _ in 0..threads {
            let ctl = &ctl;
            s.spawn(move || core_worker_loop(ctl));
        }
        let pool = CorePool { ctl: &ctl, threads };
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(&pool)));
        match r {
            // Normal exit: drain every remaining job (the API promise),
            // then retire the workers.
            Ok(_) => pool.wait_all(),
            // `f` unwound: drop unstarted jobs so workers can retire.
            Err(_) => {
                let dropped = {
                    let mut inj = ctl.injector.lock().expect("core injector");
                    let n = inj.len();
                    inj.clear();
                    n
                };
                ctl.completed.fetch_add(dropped, Ordering::AcqRel);
            }
        }
        ctl.shutdown.store(true, Ordering::Release);
        ctl.ring();
        match r {
            Ok(r) => {
                // Workers are joined by the scope right after this; any
                // in-flight job panic has already been recorded because
                // wait_all saw every job complete.
                if ctl.job_panicked.load(Ordering::Acquire) {
                    panic!("core pool trial job panicked (see worker backtrace above)");
                }
                r
            }
            Err(p) => std::panic::resume_unwind(p),
        }
    })
}

impl<'env> CorePool<'_, 'env> {
    /// Number of spawned pool threads.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Enqueues a trial job. It runs on some pool thread (or on the
    /// caller inside [`CorePool::wait_all`]) exactly once.
    pub fn submit(&self, job: TrialJob<'env>) {
        self.ctl.submitted.fetch_add(1, Ordering::AcqRel);
        self.ctl
            .injector
            .lock()
            .expect("core injector")
            .push_back(job);
        self.ctl.ring();
    }

    /// Blocks until every job submitted so far has completed, helping
    /// with queued trial jobs and stealable window shards in the
    /// meantime (this is what makes `threads == 0` work: the caller runs
    /// everything itself).
    pub fn wait_all(&self) {
        loop {
            if self.ctl.completed.load(Ordering::Acquire)
                >= self.ctl.submitted.load(Ordering::Acquire)
            {
                return;
            }
            if !try_one_unit(self.ctl) {
                // Nothing stealable right now; park briefly. The timeout
                // is a progress guarantee, not the wake path — completed
                // jobs ring the bell.
                let g = self.ctl.lot.lock().expect("core lot");
                if !self.ctl.has_work_hint()
                    && self.ctl.completed.load(Ordering::Acquire)
                        < self.ctl.submitted.load(Ordering::Acquire)
                {
                    let _ = self
                        .ctl
                        .bell
                        .wait_timeout(g, Duration::from_millis(1))
                        .expect("core bell");
                }
            }
        }
    }

    /// Claims a window-owner slot. The caller (typically: the thread
    /// driving one trial's event loop) publishes each same-timestamp
    /// window through the returned session; idle pool threads steal its
    /// shards.
    ///
    /// # Panics
    ///
    /// Panics if every slot is claimed (more concurrent owners than
    /// `threads + 4` — only possible if callers hoard sessions).
    pub fn session(&self) -> CoreSession<'_, 'env> {
        acquire_session(self.ctl, self.threads)
    }
}

fn acquire_session<'p, 'env>(ctl: &'p CoreCtl<'env>, threads: usize) -> CoreSession<'p, 'env> {
    for (slot, s) in ctl.sessions.iter().enumerate() {
        if s.in_use
            .compare_exchange(false, true, Ordering::Acquire, Ordering::Relaxed)
            .is_ok()
        {
            return CoreSession { ctl, slot, threads };
        }
    }
    panic!("core pool session slots exhausted");
}

impl CoreSession<'_, '_> {
    fn sctl(&self) -> &SessionCtl {
        &self.ctl.sessions[self.slot]
    }
}

impl Drop for CoreSession<'_, '_> {
    fn drop(&mut self) {
        debug_assert!(!self.sctl().active.load(Ordering::Acquire));
        self.sctl().in_use.store(false, Ordering::Release);
    }
}

impl WindowExec for CoreSession<'_, '_> {
    fn shard_cap(&self) -> usize {
        self.sctl().deque.capacity()
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
        let sctl = self.sctl();
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

/// One unit of work, preferring fine-grained shards (they block a window
/// owner) over coarse trial jobs. Returns whether anything ran.
fn try_one_unit(ctl: &CoreCtl<'_>) -> bool {
    for sctl in ctl.sessions.iter() {
        if !sctl.active.load(Ordering::Acquire) {
            continue;
        }
        if let Some(i) = sctl.deque.steal() {
            // SAFETY: the stolen shard was pushed after the owner staged
            // the job pointer; the deque's release/acquire ordering makes
            // the staging visible, and the owner cannot invalidate the
            // pointer until our `pending` decrement is observed.
            let job = unsafe { (*sctl.job.get()).expect("active session without a job") };
            let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                // SAFETY: valid until `pending` reaches zero, see above.
                unsafe { (*job)(i) }
            }));
            if outcome.is_err() {
                sctl.panicked.store(true, Ordering::Relaxed);
            }
            sctl.pending.fetch_sub(1, Ordering::Release);
            return true;
        }
    }
    let job = ctl.injector.lock().expect("core injector").pop_front();
    if let Some(job) = job {
        // `threads = 1` on a worker-held session: thieves are "everyone
        // else", which run_window only needs as a zero/nonzero hint.
        let sess = acquire_session(ctl, 1);
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| job(&sess)));
        drop(sess);
        if outcome.is_err() {
            ctl.job_panicked.store(true, Ordering::Relaxed);
        }
        ctl.completed.fetch_add(1, Ordering::AcqRel);
        ctl.ring();
        return true;
    }
    false
}

fn core_worker_loop(ctl: &CoreCtl<'_>) {
    let mut spins = 0u32;
    loop {
        if try_one_unit(ctl) {
            spins = 0;
            continue;
        }
        if ctl.shutdown.load(Ordering::Acquire)
            && ctl.injector.lock().expect("core injector").is_empty()
        {
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
    fn core_pool_runs_every_trial_job_once() {
        let hits: [AtomicU64; 16] = std::array::from_fn(|_| AtomicU64::new(0));
        with_core_pool(3, |pool| {
            for (i, h) in hits.iter().enumerate() {
                pool.submit(Box::new(move |_exec| {
                    h.fetch_add(i as u64 + 1, Ordering::Relaxed);
                }));
            }
            pool.wait_all();
            for (i, h) in hits.iter().enumerate() {
                assert_eq!(h.load(Ordering::Relaxed), i as u64 + 1);
            }
        });
    }

    #[test]
    fn core_pool_zero_threads_runs_jobs_on_caller_in_wait_all() {
        let sum = AtomicU64::new(0);
        let sum_ref = &sum;
        with_core_pool(0, |pool| {
            for _ in 0..8u64 {
                pool.submit(Box::new(move |exec| {
                    // Window execution inside a trial job, inline.
                    let part = AtomicU64::new(0);
                    exec.run_window(4, &|s| {
                        part.fetch_add(s as u64 + 1, Ordering::Relaxed);
                    });
                    assert_eq!(part.load(Ordering::Relaxed), 10);
                    sum_ref.fetch_add(1, Ordering::Relaxed);
                }));
            }
            pool.wait_all();
        });
        assert_eq!(sum.load(Ordering::Relaxed), 8);
    }

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
    fn core_pool_mixes_trial_jobs_and_windows() {
        // Trial jobs running their own windows while the caller also runs
        // windows through its own session: both granularities draw from
        // the same three threads. (Submitted jobs must borrow data that
        // outlives the pool scope — the `'env` bound — hence `done`
        // lives outside the closure.)
        let done = AtomicU64::new(0);
        let done = &done;
        with_core_pool(3, |pool| {
            for _ in 0..6 {
                pool.submit(Box::new(move |exec| {
                    let total = AtomicU64::new(0);
                    for _ in 0..50 {
                        exec.run_window(3, &|i| {
                            total.fetch_add(i as u64, Ordering::Relaxed);
                        });
                    }
                    assert_eq!(total.load(Ordering::Relaxed), 50 * 3);
                    done.fetch_add(1, Ordering::Relaxed);
                }));
            }
            let sess = pool.session();
            for _ in 0..50 {
                let total = AtomicU64::new(0);
                sess.run_window(4, &|i| {
                    total.fetch_add(i as u64 + 1, Ordering::Relaxed);
                });
                assert_eq!(total.load(Ordering::Relaxed), 10);
            }
            drop(sess);
            pool.wait_all();
            assert_eq!(done.load(Ordering::Relaxed), 6);
        });
    }

    #[test]
    fn core_pool_trial_job_panic_propagates_at_scope_end() {
        let result = std::panic::catch_unwind(|| {
            with_core_pool(2, |pool| {
                pool.submit(Box::new(|_exec| panic!("trial boom")));
                pool.wait_all();
            });
        });
        assert!(result.is_err(), "job panic must fail the scope");
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

    #[test]
    fn core_pool_drains_jobs_submitted_without_wait() {
        let hits = AtomicU64::new(0);
        with_core_pool(2, |pool| {
            for _ in 0..10 {
                pool.submit(Box::new(|_exec| {
                    hits.fetch_add(1, Ordering::Relaxed);
                }));
            }
            // No wait_all: the scope itself must drain before returning.
        });
        assert_eq!(hits.load(Ordering::Relaxed), 10);
    }
}
