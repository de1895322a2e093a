//! A worker pool for frontier expansion, with a deterministic result-merge
//! contract.
//!
//! The frontier engine used to open a fresh `std::thread::scope` for every
//! BFS layer chunk it expanded.  Real workloads are full of *small* layers —
//! a handful of nodes per property per round — so thread spawn/join overhead
//! dominated exactly the regime batching was meant to speed up.  [`scoped`]
//! instead spawns one set of workers per engine run: the workers persist
//! across every layer of every property the engine drives (a round's task
//! list interleaves all of them) and park on a condvar between rounds.
//!
//! # Determinism contract
//!
//! [`Pool::run`] takes an ordered task list and returns one result per task
//! **in task order**, no matter how many workers ran them or who claimed
//! which: every task writes its result into its own index-addressed slot,
//! and the caller reassembles the slots positionally.  Scheduling therefore
//! affects wall-clock only; the engine's merge loop sees expansions in
//! frontier order and replays verdicts, witnesses, budget cutoffs and
//! consult totals byte-identically for every `threads` setting.  (The
//! `hit`/`miss` *split* of shared caches can still vary with physical
//! interleaving — totals and verdicts cannot.)
//!
//! # Scheduling
//!
//! A round publishes its task list with one shared atomic cursor.  Every
//! worker — the caller participates as worker 0 — claims the next unclaimed
//! task index with a `fetch_add` until the cursor runs past the end, so each
//! task runs exactly once and idle workers never wait on a busy one.  No
//! worker ever holds one lock while taking another, so there is no lock
//! order to get wrong.  `threads = 1` (or a round of at most one task) runs
//! inline on the caller with no synchronization at all.
//!
//! On two cores more threads buy little or nothing (the README gives the
//! `pool` bench numbers), so `threads = 1` stays the default; the pool's
//! job is to keep the multi-threaded path correct.
//!
//! # Why scoped rather than a free-standing pool
//!
//! The workspace forbids `unsafe` code, so job closures cannot be
//! lifetime-erased and shipped to detached threads; instead the workers are
//! scoped to one [`scoped`] call and borrow the job (and everything it
//! captures) directly.  The engine wraps its whole run loop in one call, so
//! the "persistent" pool lives exactly as long as the work it exists for —
//! thousands of rounds per spawn instead of a spawn per round.
//!
//! Worker panics are caught per task and re-raised on the calling thread by
//! [`Pool::run`], so a panicking oracle behaves as it did under the
//! per-layer `thread::scope`.

use std::any::Any;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread;

use accltl_obs::metrics::LazyCounter;
use accltl_obs::trace;

/// Individual tasks executed by pool workers (multi-worker rounds only;
/// inline rounds never publish a cursor).  Aggregated once per
/// [`Round::drain`] call, so the always-on cost is one cached-handle atomic
/// add per worker per round.
static POOL_TASKS: LazyCounter = LazyCounter::new("pool.tasks");

/// Locks a mutex, recovering the guard if a panicking thread poisoned it —
/// the pool re-raises the panic itself, so poison adds no information.
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// One round of work: an ordered task list, the shared claim cursor over
/// it, and one result slot per task.
struct Round<T, U> {
    tasks: Vec<T>,
    /// The next unclaimed task index; claims are `fetch_add`s, so every
    /// index below `tasks.len()` is handed to exactly one worker.
    cursor: AtomicUsize,
    results: Vec<Mutex<Option<U>>>,
    /// Tasks not yet completed; the last finisher notifies `done`.
    remaining: AtomicUsize,
    done_lock: Mutex<()>,
    done: Condvar,
    /// First panic payload raised by a task, re-raised by [`Pool::run`].
    panic: Mutex<Option<Box<dyn Any + Send>>>,
}

impl<T, U> Round<T, U> {
    /// Runs tasks as worker `slot`, claiming one index at a time from the
    /// shared cursor until every task has been claimed.
    fn drain(&self, job: &impl Fn(&T) -> U, slot: usize) {
        let mut claimed = 0u64;
        loop {
            // `Relaxed`: a claim publishes no data.  Workers receive the
            // tasks through the team-state lock, and results travel through
            // their slot mutexes plus the `AcqRel` countdown of `remaining`.
            let index = self.cursor.fetch_add(1, Ordering::Relaxed);
            if index >= self.tasks.len() {
                break;
            }
            claimed += 1;
            let _task_span = trace::span_fields(
                "pool.task",
                &[("worker", slot as u64), ("start", index as u64), ("len", 1)],
            );
            match panic::catch_unwind(AssertUnwindSafe(|| job(&self.tasks[index]))) {
                Ok(result) => *lock(&self.results[index]) = Some(result),
                Err(payload) => {
                    let mut first = lock(&self.panic);
                    if first.is_none() {
                        *first = Some(payload);
                    }
                }
            }
            if self.remaining.fetch_sub(1, Ordering::AcqRel) == 1 {
                // Take the lock so the notify cannot race between the
                // caller's check of `remaining` and its wait.
                let _sync = lock(&self.done_lock);
                self.done.notify_all();
            }
        }
        if claimed > 0 {
            POOL_TASKS.add(claimed);
        }
    }
}

/// The coordination state shared between the caller and the workers of one
/// [`scoped`] call.
struct Shared<T, U> {
    state: Mutex<TeamState<T, U>>,
    work_ready: Condvar,
}

struct TeamState<T, U> {
    /// Bumped per published round; workers wake when it moves.
    epoch: u64,
    shutdown: bool,
    round: Option<Arc<Round<T, U>>>,
}

/// A handle for submitting rounds of tasks to the workers of one [`scoped`]
/// call.  See the module docs for the determinism contract.
pub struct Pool<'env, T, U, F> {
    job: &'env F,
    shared: Option<&'env Shared<T, U>>,
    threads: usize,
}

impl<T, U, F> Pool<'_, T, U, F>
where
    T: Send + Sync,
    U: Send,
    F: Fn(&T) -> U + Sync,
{
    /// Runs `job` over every task and returns the results in task order.
    /// Panics raised by tasks are re-raised here, on the calling thread.
    pub fn run(&self, tasks: Vec<T>) -> Vec<U> {
        let count = tasks.len();
        let inline = self.shared.is_none() || count <= 1;
        let _round_span = trace::span_fields(
            "pool.round",
            &[
                ("tasks", count as u64),
                ("workers", if inline { 1 } else { self.threads as u64 }),
            ],
        );
        let Some(shared) = self.shared.filter(|_| count > 1) else {
            // Single worker or trivial round: run inline, no coordination.
            return tasks.iter().map(self.job).collect();
        };

        let round = Arc::new(Round {
            tasks,
            cursor: AtomicUsize::new(0),
            results: (0..count).map(|_| Mutex::new(None)).collect(),
            remaining: AtomicUsize::new(count),
            done_lock: Mutex::new(()),
            done: Condvar::new(),
            panic: Mutex::new(None),
        });

        {
            let mut state = lock(&shared.state);
            state.epoch += 1;
            state.round = Some(Arc::clone(&round));
        }
        shared.work_ready.notify_all();

        // The caller is worker 0; workers 1.. were spawned by `scoped`.
        round.drain(self.job, 0);
        {
            let mut sync = lock(&round.done_lock);
            while round.remaining.load(Ordering::Acquire) != 0 {
                sync = round
                    .done
                    .wait(sync)
                    .unwrap_or_else(PoisonError::into_inner);
            }
        }
        // Unpublish so the round's buffers free once the workers drop their
        // handles, instead of living until the next round replaces it.
        lock(&shared.state).round = None;

        if let Some(payload) = lock(&round.panic).take() {
            panic::resume_unwind(payload);
        }
        // Workers may still hold their `Arc` clone for an instant after the
        // last decrement, so take the results out of the slots rather than
        // unwrapping the `Arc`.
        round
            .results
            .iter()
            .map(|slot| {
                lock(slot)
                    .take()
                    .expect("pool invariant: every task leaves a result or a panic")
            })
            .collect()
    }
}

/// Unparks on `work_ready`, drains each newly published round, and exits on
/// shutdown.
fn worker<T, U>(shared: &Shared<T, U>, job: &(impl Fn(&T) -> U + Sync), slot: usize) {
    let mut seen_epoch = 0;
    loop {
        let round = {
            let mut state = lock(&shared.state);
            loop {
                if state.shutdown {
                    return;
                }
                if state.epoch != seen_epoch {
                    seen_epoch = state.epoch;
                    break state.round.clone();
                }
                state = shared
                    .work_ready
                    .wait(state)
                    .unwrap_or_else(PoisonError::into_inner);
            }
        };
        if let Some(round) = round {
            round.drain(job, slot);
        }
    }
}

/// Signals shutdown when the caller's closure unwinds as well as when it
/// returns, so workers never outlive the scope join.
struct ShutdownGuard<'a, T, U>(&'a Shared<T, U>);

impl<T, U> Drop for ShutdownGuard<'_, T, U> {
    fn drop(&mut self) {
        lock(&self.0.state).shutdown = true;
        self.0.work_ready.notify_all();
    }
}

/// Spawns `threads - 1` workers (the caller is the remaining one), hands
/// `body` a [`Pool`] for submitting rounds of `job` tasks, and joins the
/// workers when `body` returns.  With `threads <= 1` no thread is spawned
/// and every round runs inline on the caller.
pub fn scoped<T, U, F, R>(threads: usize, job: F, body: impl FnOnce(&Pool<'_, T, U, F>) -> R) -> R
where
    T: Send + Sync,
    U: Send,
    F: Fn(&T) -> U + Sync,
{
    let threads = threads.max(1);
    if threads == 1 {
        return body(&Pool {
            job: &job,
            shared: None,
            threads,
        });
    }
    let shared = Shared {
        state: Mutex::new(TeamState {
            epoch: 0,
            shutdown: false,
            round: None,
        }),
        work_ready: Condvar::new(),
    };
    thread::scope(|scope| {
        let _shutdown = ShutdownGuard(&shared);
        for slot in 1..threads {
            let shared = &shared;
            let job = &job;
            scope.spawn(move || worker(shared, job, slot));
        }
        body(&Pool {
            job: &job,
            shared: Some(&shared),
            threads,
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_come_back_in_task_order() {
        for threads in [1, 2, 4, 8] {
            let got = scoped(
                threads,
                |&x: &usize| x * 2,
                |pool| pool.run((0..100).collect()),
            );
            assert_eq!(got, (0..100).map(|x| x * 2).collect::<Vec<_>>());
        }
    }

    #[test]
    fn many_rounds_reuse_one_worker_set() {
        scoped(
            4,
            |&x: &u64| x + 1,
            |pool| {
                for round in 0..50u64 {
                    let got = pool.run(vec![round, round + 1, round + 2]);
                    assert_eq!(got, vec![round + 1, round + 2, round + 3]);
                }
                // Empty and single-task rounds run inline on the caller.
                assert!(pool.run(Vec::new()).is_empty());
                assert_eq!(pool.run(vec![9]), vec![10]);
            },
        );
    }

    #[test]
    fn threads_beyond_task_count_are_harmless() {
        let got = scoped(16, |&x: &i32| -x, |pool| pool.run(vec![1, 2, 3]));
        assert_eq!(got, vec![-1, -2, -3]);
    }

    /// Regression test for a lock-order deadlock in an earlier drain, where
    /// a worker held its own task queue's lock while taking a neighbour's
    /// and two idle workers could wait on each other.  Many oversubscribed
    /// pools with many small rounds make such interleavings likely; a
    /// watchdog turns a hang into a failure.
    #[test]
    fn oversubscribed_small_rounds_never_deadlock() {
        let (done, finished) = std::sync::mpsc::channel();
        thread::spawn(move || {
            for _ in 0..200 {
                scoped(
                    8,
                    |&x: &usize| x + 1,
                    |pool| {
                        for round in 0..200usize {
                            let got = pool.run(vec![round, round + 1, round + 2, round + 3]);
                            assert_eq!(got, vec![round + 1, round + 2, round + 3, round + 4]);
                        }
                    },
                );
            }
            done.send(()).expect("watchdog is listening");
        });
        finished
            .recv_timeout(std::time::Duration::from_secs(60))
            .expect("pool stress run did not finish within 60 s: workers deadlocked");
    }

    /// The claim cursor hands every task to exactly one worker: over many
    /// oversubscribed rounds, each task id is executed once — never
    /// skipped, never run twice by two workers racing for it.  A double
    /// claim also breaks the round's countdown, which can hang the caller,
    /// so the rounds run under a watchdog.
    #[test]
    fn oversubscribed_rounds_run_every_task_exactly_once() {
        const ROUNDS: usize = 500;
        const TASKS: usize = 7;
        let (done, finished) = std::sync::mpsc::channel();
        thread::spawn(move || {
            let runs: Vec<AtomicUsize> = (0..ROUNDS * TASKS).map(|_| AtomicUsize::new(0)).collect();
            scoped(
                8,
                |&task: &usize| {
                    runs[task].fetch_add(1, Ordering::Relaxed);
                    task
                },
                |pool| {
                    for round in 0..ROUNDS {
                        let tasks: Vec<usize> = (round * TASKS..(round + 1) * TASKS).collect();
                        assert_eq!(pool.run(tasks.clone()), tasks);
                    }
                },
            );
            let counts: Vec<usize> = runs.iter().map(|c| c.load(Ordering::Relaxed)).collect();
            done.send(counts).expect("watchdog is listening");
        });
        let counts = finished
            .recv_timeout(std::time::Duration::from_secs(60))
            .expect("pool rounds did not finish within 60 s");
        for (task, count) in counts.iter().enumerate() {
            assert_eq!(*count, 1, "task {task}");
        }
    }

    #[test]
    fn worker_panics_reach_the_caller() {
        let result = panic::catch_unwind(AssertUnwindSafe(|| {
            scoped(
                4,
                |&x: &usize| {
                    assert_ne!(x, 7, "boom");
                    x
                },
                |pool| pool.run((0..32).collect()),
            )
        }));
        assert!(result.is_err());
    }
}
