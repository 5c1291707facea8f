//! The parallel multi-seed experiment engine.
//!
//! Every quantified claim in the paper is verified by sweeping seeds,
//! `N` and adversary schedules through the deterministic simulator, so
//! simulator *throughput* is reproduction throughput. [`SweepRunner`] fans
//! independent `(seed, SimConfig)` runs across OS threads with
//! **deterministic result ordering**: results land in seed-indexed slots,
//! so the output is bit-identical whether the sweep ran on 1 thread or 64
//! (`tests/sweep_determinism.rs` enforces this).
//!
//! A vendored-free implementation on `std::thread::scope` + an atomic work
//! counter: runs are coarse (milliseconds each), so work-stealing
//! granularity is irrelevant and a shared counter is optimal.

use esync_core::outbox::Protocol;
use esync_sim::{Report, SimConfig, SimError, World};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Fans independent simulation runs across threads.
#[derive(Debug, Clone)]
pub struct SweepRunner {
    threads: usize,
}

impl Default for SweepRunner {
    fn default() -> Self {
        SweepRunner::new()
    }
}

impl SweepRunner {
    /// A runner using every available core (override with the
    /// `SWEEP_THREADS` environment variable; unparsable or zero values
    /// fall back to auto-detection).
    pub fn new() -> Self {
        let threads = std::env::var("SWEEP_THREADS")
            .ok()
            .and_then(|v| v.parse().ok())
            .filter(|&n: &usize| n > 0)
            .unwrap_or_else(|| {
                std::thread::available_parallelism()
                    .map(|n| n.get())
                    .unwrap_or(1)
            });
        SweepRunner::with_threads(threads)
    }

    /// A runner with an explicit thread count.
    ///
    /// # Panics
    ///
    /// Panics if `threads == 0`.
    pub fn with_threads(threads: usize) -> Self {
        assert!(threads > 0, "at least one thread required");
        SweepRunner { threads }
    }

    /// The configured thread count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Runs `job(0..count)` across the thread pool, returning results in
    /// index order regardless of completion order.
    ///
    /// # Errors
    ///
    /// Returns the error of the smallest-index failing job (matching what
    /// a serial loop would report), discarding later results.
    pub fn run_fn<F>(&self, count: u64, job: F) -> Result<Vec<Report>, SimError>
    where
        F: Fn(u64) -> Result<Report, SimError> + Sync,
    {
        self.fan_out(count, || (), |(), i| job(i))
    }

    /// Runs `seeds` independent simulations, seed `i` under `mk_cfg(i)`.
    ///
    /// Each worker builds **one** [`World`] for its first seed and
    /// [`World::reset`]s it for every subsequent one, so a sweep's
    /// thousands of runs reuse the event queue's slab/ring and the
    /// per-process harness allocations instead of rebuilding them per
    /// seed. `World::reset` is bit-identical to fresh construction, so
    /// results are unchanged.
    ///
    /// # Errors
    ///
    /// Returns the error of the smallest failing seed.
    pub fn run_seeds<P, C, F>(
        &self,
        seeds: u64,
        mk_cfg: C,
        mk_protocol: F,
    ) -> Result<Vec<Report>, SimError>
    where
        P: Protocol,
        C: Fn(u64) -> SimConfig + Sync,
        F: Fn() -> P + Sync,
    {
        // One reusable world per worker; `None` until its first seed.
        self.fan_out(
            seeds,
            || None,
            |world: &mut Option<World<P>>, seed| {
                let cfg = mk_cfg(seed);
                let world = match world {
                    Some(w) => {
                        w.reset(cfg);
                        w
                    }
                    None => world.insert(World::new(cfg, mk_protocol())),
                };
                world.run_to_completion()
            },
        )
    }

    /// The one fan-out under both runners: workers claim indices from a
    /// shared counter, each threading its own `init()` state through its
    /// jobs, and results land in index-ordered slots. One thread (or one
    /// job) runs serially on the calling thread. Either way the error of
    /// the smallest failing index is the one returned.
    fn fan_out<S, I, J>(&self, count: u64, init: I, job: J) -> Result<Vec<Report>, SimError>
    where
        I: Fn() -> S + Sync,
        J: Fn(&mut S, u64) -> Result<Report, SimError> + Sync,
    {
        if self.threads == 1 || count <= 1 {
            let mut state = init();
            return (0..count).map(|i| job(&mut state, i)).collect();
        }
        let next = AtomicU64::new(0);
        let slots: Vec<Mutex<Option<Result<Report, SimError>>>> =
            (0..count).map(|_| Mutex::new(None)).collect();
        let workers = self.threads.min(count as usize);
        std::thread::scope(|s| {
            for _ in 0..workers {
                s.spawn(|| {
                    let mut state = init();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= count {
                            break;
                        }
                        let result = job(&mut state, i);
                        *slots[i as usize].lock().expect("slot lock") = Some(result);
                    }
                });
            }
        });
        slots
            .into_iter()
            .map(|slot| {
                slot.into_inner()
                    .expect("slot lock")
                    .expect("every index was claimed exactly once")
            })
            .collect()
    }

    /// Runs a seed sweep and packages it as a timed, serializable
    /// [`crate::artifact::SweepSummary`] (with the exact seed-0
    /// configuration embedded for reproducibility).
    ///
    /// # Errors
    ///
    /// Returns the error of the smallest failing seed.
    pub fn sweep_seeds<P, C, F>(
        &self,
        label: &str,
        seeds: u64,
        mk_cfg: C,
        mk_protocol: F,
    ) -> Result<SweepOutcome, SimError>
    where
        P: Protocol,
        C: Fn(u64) -> SimConfig + Sync,
        F: Fn() -> P + Sync,
    {
        let started = Instant::now();
        let reports = self.run_seeds(seeds, &mk_cfg, mk_protocol)?;
        let wall = started.elapsed();
        let summary = crate::artifact::SweepSummary::from_reports(
            label,
            Some(mk_cfg(0)),
            &reports,
            self.threads,
            wall,
        );
        Ok(SweepOutcome { reports, summary })
    }

    /// Like [`SweepRunner::sweep_seeds`] but for arbitrary per-index jobs
    /// (custom world setup, message injection, …). `config` is the
    /// representative configuration embedded in the artifact, if any.
    ///
    /// # Errors
    ///
    /// Returns the error of the smallest failing index.
    pub fn sweep_fn<F>(
        &self,
        label: &str,
        count: u64,
        config: Option<SimConfig>,
        job: F,
    ) -> Result<SweepOutcome, SimError>
    where
        F: Fn(u64) -> Result<Report, SimError> + Sync,
    {
        let started = Instant::now();
        let reports = self.run_fn(count, job)?;
        let wall = started.elapsed();
        let summary = crate::artifact::SweepSummary::from_reports(
            label,
            config,
            &reports,
            self.threads,
            wall,
        );
        Ok(SweepOutcome { reports, summary })
    }
}

/// A completed sweep: the raw per-seed reports plus the serializable
/// summary destined for a `BENCH_*.json` artifact.
#[derive(Debug, Clone)]
pub struct SweepOutcome {
    /// One report per seed, in seed order.
    pub reports: Vec<Report>,
    /// The aggregate destined for the JSON artifact.
    pub summary: crate::artifact::SweepSummary,
}

#[cfg(test)]
mod tests {
    use super::*;
    use esync_core::paxos::session::SessionPaxos;
    use esync_sim::PreStability;

    fn cfg(seed: u64) -> SimConfig {
        SimConfig::builder(3)
            .seed(seed)
            .stability_at_millis(150)
            .pre_stability(PreStability::chaos())
            .build()
            .unwrap()
    }

    #[test]
    fn results_are_in_seed_order() {
        let reports = SweepRunner::with_threads(4)
            .run_seeds(8, cfg, SessionPaxos::new)
            .unwrap();
        assert_eq!(reports.len(), 8);
        for (i, r) in reports.iter().enumerate() {
            assert_eq!(r.seed, i as u64);
        }
    }

    #[test]
    fn parallel_equals_serial() {
        let serial = SweepRunner::with_threads(1)
            .run_seeds(6, cfg, SessionPaxos::new)
            .unwrap();
        let parallel = SweepRunner::with_threads(3)
            .run_seeds(6, cfg, SessionPaxos::new)
            .unwrap();
        for (a, b) in serial.iter().zip(&parallel) {
            assert_eq!(a.decided_at, b.decided_at);
            assert_eq!(a.msgs_sent, b.msgs_sent);
            assert_eq!(a.events, b.events);
        }
    }

    #[test]
    fn first_error_wins() {
        let runner = SweepRunner::with_threads(4);
        let err = runner
            .run_fn(8, |i| {
                if i >= 2 {
                    Err(SimError::Timeout {
                        at: esync_sim::SimTime::from_millis(i),
                    })
                } else {
                    World::new(cfg(i), SessionPaxos::new()).run_to_completion()
                }
            })
            .unwrap_err();
        match err {
            SimError::Timeout { at } => assert_eq!(at, esync_sim::SimTime::from_millis(2)),
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn sweep_summary_carries_config_and_stats() {
        let outcome = SweepRunner::with_threads(2)
            .sweep_seeds("test-sweep", 4, cfg, SessionPaxos::new)
            .unwrap();
        let s = &outcome.summary;
        assert_eq!(s.label, "test-sweep");
        assert_eq!(s.seeds, 4);
        assert_eq!(s.threads, 2);
        assert!(s.config.is_some());
        assert_eq!(s.records.len(), 4);
        assert!(s.runs_per_sec > 0.0);
        let d = s.delay_after_ts_delta.as_ref().expect("some decided");
        assert!(d.min <= d.median && d.median <= d.p99 && d.p99 <= d.max);
    }
}
