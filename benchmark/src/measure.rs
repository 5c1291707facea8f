//! Measurement helpers shared by the workload units: span accumulators,
//! clock-read calibration, `/proc` readers, quantiles and the fingerprint
//! that proves two simulator runs identical.

use crate::timed::Tally;
use std::hash::{Hash, Hasher};
use std::hint::black_box;
use std::time::Instant;

/// A benchmark-side span accumulator: a call count and the host
/// nanoseconds the calls took.
#[derive(Debug, Clone, Copy, Default)]
pub struct Span {
    pub calls: u64,
    pub ns: u64,
}

impl Span {
    /// Adds one call that started at `since`; returns the instant it
    /// ended, so adjacent spans can share a clock read.
    #[inline]
    pub fn close(&mut self, since: Instant) -> Instant {
        let now = Instant::now();
        self.calls += 1;
        self.ns += (now - since).as_nanos() as u64;
        now
    }

    /// Adds `calls` calls covered by one clock interval.
    pub fn close_many(&mut self, since: Instant, calls: u64) {
        self.calls += calls;
        self.ns += since.elapsed().as_nanos() as u64;
    }
}

/// The machine's clock speed right now: the microseconds a fixed
/// register-only loop takes (median of seven bursts, about a millisecond
/// in all).
fn clock_probe_us() -> f64 {
    let mut bursts = [0.0f64; 7];
    for b in &mut bursts {
        let t = Instant::now();
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let mut acc = 0u64;
        for _ in 0..100_000u32 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            acc = acc.wrapping_add(x);
        }
        black_box(acc);
        *b = t.elapsed().as_nanos() as f64 / 1e3;
    }
    bursts.sort_by(f64::total_cmp);
    bursts[3]
}

/// The machine's memory speed right now: the microseconds 6 000 dependent
/// loads take from the cache this box's tenants share (median of five
/// bursts, about a millisecond, after some two to fill the buffer).
///
/// The buffer is twice this box's per-core L2 (2 MiB). Filling it front to
/// back pushes its first half out of L2, and the loads then walk that half
/// one cache line at a time, each line once, so every one of them misses
/// L2. The buffer lives only inside the call and is small enough never to
/// set the workload's peak resident set.
fn memory_probe_us() -> f64 {
    const WORDS: usize = 1 << 20;
    const LINES: usize = WORDS / 2 / 16;
    const LOADS: usize = 6_000;
    let mut buffer = vec![1u32; WORDS];
    black_box(&mut buffer);
    let mut bursts = [0.0f64; 5];
    assert!(
        bursts.len() * LOADS < LINES,
        "each line is loaded at most once"
    );
    let mut line = 0usize;
    for b in &mut bursts {
        let t = Instant::now();
        for _ in 0..LOADS {
            // A full-period congruential walk over the lines. The loaded
            // word (always 1) is part of the next address, so the loads
            // cannot overlap.
            line = (line * 5 + buffer[line * 16] as usize) % LINES;
        }
        black_box(line);
        *b = t.elapsed().as_nanos() as f64 / 1e3;
    }
    bursts.sort_by(f64::total_cmp);
    bursts[2]
}

/// The middle of what the probes read on the box this benchmark was
/// defined on (clock: 145 undisturbed, 186 disturbed; memory: 600 to 900).
/// They anchor the unit of scaled host time and nothing else.
pub const NOMINAL_CLOCK_US: f64 = 165.0;
pub const NOMINAL_MEMORY_US: f64 = 700.0;

/// Speed normalisation of host time.
///
/// This box's speed has two moving parts that the benchmark does not
/// control: the core's clock runs in one of two states 1.28 apart, and
/// the latency of the cache shared with other tenants drifts by a factor
/// of up to 1.7. Both change every few seconds to minutes (README,
/// "Noise"). Every unit is therefore bracketed by a pair of probes and
/// its host times multiplied by
/// `(NOMINAL_CLOCK_US / clock)^c * (NOMINAL_MEMORY_US / memory)^m`, where
/// `c` and `m` are how strongly the workload follows each part
/// (`spec::Workload::speed_exponents`, measured by `benchmark calibrate`).
#[derive(Debug, Clone, Copy)]
pub struct Speed {
    clock_us: f64,
    memory_us: f64,
    took: std::time::Duration,
}

impl Speed {
    pub fn probe() -> Speed {
        let t = Instant::now();
        Speed {
            clock_us: clock_probe_us(),
            memory_us: memory_probe_us(),
            took: t.elapsed(),
        }
    }

    /// Probes again and returns the means of the two readings.
    pub fn finish(self) -> Speed {
        Speed {
            clock_us: (self.clock_us + clock_probe_us()) / 2.0,
            memory_us: (self.memory_us + memory_probe_us()) / 2.0,
            took: self.took,
        }
    }

    /// How long the opening probe took: not part of the unit's set-up.
    pub fn took(&self) -> std::time::Duration {
        self.took
    }

    pub fn clock_us(&self) -> f64 {
        self.clock_us
    }

    pub fn memory_us(&self) -> f64 {
        self.memory_us
    }

    /// What to multiply host time by, for a workload with these exponents.
    pub fn scale(&self, (clock_exp, memory_exp): (f64, f64)) -> f64 {
        (NOMINAL_CLOCK_US / self.clock_us).powf(clock_exp)
            * (NOMINAL_MEMORY_US / self.memory_us).powf(memory_exp)
    }
}

/// What the instruments themselves cost, measured at the start of every
/// traced unit so the ledger rows can be corrected for it, and the speed
/// scale of the unit (1 until [`Calibration::scale_by`]).
#[derive(Debug, Clone, Copy)]
pub struct Calibration {
    /// One `Instant::now()`.
    pub read_ns: f64,
    /// What a `Timed` callback with an empty body records (the part of
    /// the instrument that falls inside its own interval).
    pub timed_inside_ns: f64,
    /// What a `Timed` callback with an empty body costs its caller.
    pub timed_call_ns: f64,
    /// The [`Speed`] scale applied to every corrected time.
    pub scale: f64,
}

impl Calibration {
    pub fn measure() -> Calibration {
        const N: u64 = 200_000;
        let t = Instant::now();
        for _ in 0..N {
            black_box(Instant::now());
        }
        let read_ns = t.elapsed().as_nanos() as f64 / N as f64;
        let (inside, call) = crate::timed::calibrate(N);
        Calibration {
            read_ns,
            timed_inside_ns: inside,
            timed_call_ns: call,
            scale: 1.0,
        }
    }

    pub fn scale_by(&mut self, scale: f64) {
        self.scale = scale;
    }

    /// The true time of `t`'s calls: what was recorded minus the
    /// instrument's share of each interval, at nominal speed.
    pub fn timed_true_ns(&self, t: Tally) -> f64 {
        (t.ns as f64 - self.timed_inside_ns * t.calls as f64).max(0.0) * self.scale
    }

    /// The true time of a benchmark-side span (one clock read falls
    /// inside each interval), at nominal speed.
    pub fn span_true_ns(&self, s: Span) -> f64 {
        (s.ns as f64 - self.read_ns * s.calls as f64).max(0.0) * self.scale
    }

    /// The true time of one of `s`'s calls, at nominal speed.
    pub fn per_call_ns(&self, s: Span) -> f64 {
        self.span_true_ns(s) / s.calls.max(1) as f64
    }

    /// What the `Timed` instrument cost the callers of `calls` callbacks,
    /// at nominal speed.
    pub fn instrument_ns(&self, calls: u64) -> f64 {
        self.timed_call_ns * calls as f64 * self.scale
    }

    /// An uncorrected host duration at nominal speed.
    pub fn host_ns(&self, d: std::time::Duration) -> f64 {
        d.as_nanos() as f64 * self.scale
    }
}

/// Linear-interpolated quantile over `(bucket lower bound, count)` pairs
/// (the shape of `HistogramSummary::buckets`), with `max` closing the
/// last bucket. The program's own `p50_ns`/`p99_ns` are bucket lower
/// bounds, about 3% apart; interpolating keeps every digit the histogram
/// holds.
pub fn bucket_quantile(buckets: &[(u64, u64)], max: u64, q: f64) -> f64 {
    let total: u64 = buckets.iter().map(|b| b.1).sum();
    if total == 0 {
        return 0.0;
    }
    let rank = q * total as f64;
    let mut seen = 0.0;
    for (i, &(lo, count)) in buckets.iter().enumerate() {
        let next = seen + count as f64;
        if next >= rank {
            // The bucket's width is 1/32 of its octave; the last one is
            // closed by the recorded maximum.
            let width = if lo < 32 {
                1
            } else {
                1u64 << (63 - lo.leading_zeros() - 5)
            };
            let hi = if i + 1 == buckets.len() {
                max.max(lo)
            } else {
                lo + width
            };
            let frac = (rank - seen) / count as f64;
            return lo as f64 + frac * (hi - lo) as f64;
        }
        seen = next;
    }
    max as f64
}

/// Exact quantile of a sample (nearest rank with linear interpolation).
pub fn sample_quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let pos = q * (sorted.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// Median and quartiles as Python's `statistics.quantiles(v, n=4)`
/// computes them (the exclusive method), which is what the driver uses.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    let n = v.len();
    match n {
        0 => (0.0, 0.0, 0.0),
        1 => (v[0], v[0], v[0]),
        _ => {
            let at = |k: usize| {
                let pos = k as f64 * (n + 1) as f64 / 4.0;
                let j = (pos.floor() as usize).clamp(1, n - 1);
                let frac = pos - j as f64;
                v[j - 1] + (v[j] - v[j - 1]) * frac
            };
            (at(1), at(2), at(3))
        }
    }
}

pub fn median(values: &[f64]) -> f64 {
    quartiles(values).1
}

/// A deterministic hash of a value's `Debug` rendering: equal runs of the
/// deterministic simulator print equal text in every process
/// (`DefaultHasher::new` uses fixed keys).
pub fn fingerprint(parts: &[&dyn std::fmt::Debug]) -> u64 {
    let mut h = std::collections::hash_map::DefaultHasher::new();
    for p in parts {
        format!("{p:?}").hash(&mut h);
    }
    // Results travel as JSON numbers; keep the 53 bits an f64 carries.
    h.finish() >> 11
}

fn proc_field(path: &str, key: &str) -> Option<u64> {
    let text = std::fs::read_to_string(path).ok()?;
    let line = text.lines().find(|l| l.starts_with(key))?;
    line[key.len()..].split_whitespace().next()?.parse().ok()
}

/// Peak resident set of this process, MiB.
pub fn peak_rss_mb() -> f64 {
    proc_field("/proc/self/status", "VmHWM:").map_or(0.0, |kb| kb as f64 / 1024.0)
}

/// CPU time and context switches of this process's threads, from
/// `/proc/self/task/*`: exact nanoseconds, but only threads still alive
/// are listed — read it while the threads of interest run.
#[derive(Debug, Clone, Copy, Default)]
pub struct ThreadUsage {
    /// On-CPU nanoseconds of the calling (driver) thread.
    pub driver_cpu_ns: u64,
    /// On-CPU nanoseconds of every other thread.
    pub others_cpu_ns: u64,
    /// Voluntary plus involuntary context switches, all threads.
    pub ctx_switches: u64,
}

impl ThreadUsage {
    pub fn read() -> ThreadUsage {
        let mut u = ThreadUsage::default();
        let me = std::fs::read_link("/proc/thread-self")
            .ok()
            .and_then(|p| p.file_name().map(|f| f.to_string_lossy().into_owned()));
        let Ok(tasks) = std::fs::read_dir("/proc/self/task") else {
            return u;
        };
        for task in tasks.flatten() {
            let dir = task.path();
            let cpu = std::fs::read_to_string(dir.join("schedstat"))
                .ok()
                .and_then(|s| {
                    s.split_whitespace()
                        .next()
                        .and_then(|x| x.parse::<u64>().ok())
                })
                .unwrap_or(0);
            if Some(task.file_name().to_string_lossy().into_owned()) == me {
                u.driver_cpu_ns += cpu;
            } else {
                u.others_cpu_ns += cpu;
            }
            let status = dir.join("status");
            let status = status.to_string_lossy();
            u.ctx_switches += proc_field(&status, "voluntary_ctxt_switches:").unwrap_or(0)
                + proc_field(&status, "nonvoluntary_ctxt_switches:").unwrap_or(0);
        }
        u
    }

    pub fn since(&self, base: &ThreadUsage) -> ThreadUsage {
        ThreadUsage {
            driver_cpu_ns: self.driver_cpu_ns.saturating_sub(base.driver_cpu_ns),
            others_cpu_ns: self.others_cpu_ns.saturating_sub(base.others_cpu_ns),
            ctx_switches: self.ctx_switches.saturating_sub(base.ctx_switches),
        }
    }
}

/// User plus system CPU seconds of the whole process so far, exited
/// threads included (`/proc/self/stat`, in 10 ms ticks).
pub fn process_cpu_s() -> f64 {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return 0.0;
    };
    // Fields after the parenthesised command name; utime and stime are
    // the 14th and 15th of the line.
    let rest = stat.rsplit_once(')').map_or("", |x| x.1);
    let f: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| f.get(i).and_then(|x| x.parse::<f64>().ok()).unwrap_or(0.0);
    (ticks(11) + ticks(12)) / 100.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_pythons_exclusive_method() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 2.0, 3.0));
        assert_eq!(median(&[4.0, 1.0]), 2.5);
    }

    #[test]
    fn bucket_quantile_interpolates_inside_the_bucket() {
        // 10 samples in [64, 66), 10 in [66, 68): the median sits on the
        // boundary, p75 halfway into the second bucket.
        let b = [(64, 10), (66, 10)];
        assert_eq!(bucket_quantile(&b, 67, 0.5), 66.0);
        assert_eq!(bucket_quantile(&b, 67, 0.75), 66.5);
        assert_eq!(bucket_quantile(&[], 0, 0.5), 0.0);
    }

    #[test]
    fn fingerprints_tell_runs_apart() {
        assert_eq!(fingerprint(&[&1u32, &"a"]), fingerprint(&[&1u32, &"a"]));
        assert_ne!(fingerprint(&[&1u32, &"a"]), fingerprint(&[&2u32, &"a"]));
    }
}
