//! Opt-in per-kernel wall-clock accounting.
//!
//! When enabled, [`Facile::analyze`](crate::Facile::analyze) records the
//! duration of every component-kernel invocation into process-wide
//! relaxed counters, so `--stats` can report where
//! prediction time goes without a separate `fig4` run. Disabled (the
//! default), the cost is one relaxed load per kernel call; the timers
//! themselves only run while enabled, so production throughput is
//! unaffected.
//!
//! Alongside count/mean/max, each kernel keeps a log2-bucketed latency
//! histogram (64 buckets cover the full `u64` nanosecond range), from
//! which the snapshot derives p50 and p99 estimates. Bucketing costs one
//! more relaxed increment per invocation and no allocation; the
//! percentile error is bounded by the bucket width (a factor of two),
//! which is plenty to tell "tight distribution" from "mean hides a slow
//! tail" in `--stats` output.

use facile_explain::Component;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

static ENABLED: AtomicBool = AtomicBool::new(false);

/// Log2 latency buckets per kernel: bucket `b` holds durations in
/// `[2^(b-1), 2^b)` nanoseconds (bucket 0 holds 0–1 ns).
const BUCKETS: usize = 64;

struct Cell {
    count: AtomicU64,
    total_ns: AtomicU64,
    max_ns: AtomicU64,
    hist: [AtomicU64; BUCKETS],
}

#[allow(clippy::declare_interior_mutable_const)]
const ZERO_BUCKET: AtomicU64 = AtomicU64::new(0);

#[allow(clippy::declare_interior_mutable_const)]
const ZERO: Cell = Cell {
    count: AtomicU64::new(0),
    total_ns: AtomicU64::new(0),
    max_ns: AtomicU64::new(0),
    hist: [ZERO_BUCKET; BUCKETS],
};

static CELLS: [Cell; Component::ALL.len()] = [ZERO; Component::ALL.len()];

/// The histogram bucket of a duration: the position of its highest set
/// bit, so each bucket spans a factor of two.
fn bucket_of(ns: u64) -> usize {
    (64 - ns.leading_zeros() as usize).min(BUCKETS - 1)
}

/// A representative duration for bucket `b`: the geometric-ish midpoint
/// `1.5 * 2^(b-1)` of its `[2^(b-1), 2^b)` range.
fn bucket_mid_ns(b: usize) -> f64 {
    if b == 0 {
        0.0
    } else {
        1.5 * (1u64 << (b - 1)) as f64
    }
}

/// Turn kernel timing on or off, process-wide.
pub fn set_enabled(enabled: bool) {
    ENABLED.store(enabled, Ordering::Relaxed);
}

/// Whether kernel timing is currently on.
#[must_use]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Record one kernel invocation (called by `Facile::analyze` when
/// [`enabled`] — callers outside the crate normally never need this).
pub fn record(kernel: Component, ns: u64) {
    let cell = &CELLS[kernel as usize];
    cell.count.fetch_add(1, Ordering::Relaxed);
    cell.total_ns.fetch_add(ns, Ordering::Relaxed);
    cell.max_ns.fetch_max(ns, Ordering::Relaxed);
    cell.hist[bucket_of(ns)].fetch_add(1, Ordering::Relaxed);
}

/// Aggregated timing of one component kernel.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct KernelTiming {
    /// Invocations recorded.
    pub count: u64,
    /// Mean time per invocation, in microseconds (0 when `count == 0`).
    pub mean_us: f64,
    /// Median invocation, in microseconds, estimated from the log2
    /// histogram (accurate to within its factor-of-two bucket).
    pub p50_us: f64,
    /// 99th-percentile invocation, in microseconds (same estimate).
    pub p99_us: f64,
    /// Slowest invocation, in microseconds.
    pub max_us: f64,
}

/// The smallest bucket whose cumulative count reaches `rank` (1-based),
/// rendered as its representative midpoint in microseconds.
fn percentile_us(hist: &[AtomicU64; BUCKETS], rank: u64) -> f64 {
    let mut seen = 0u64;
    for (b, slot) in hist.iter().enumerate() {
        seen += slot.load(Ordering::Relaxed);
        if seen >= rank {
            return bucket_mid_ns(b) / 1e3;
        }
    }
    0.0
}

/// Snapshot of all kernels, indexed by discriminant: read entry
/// `kernel as usize` (NOT the position in [`Component::ALL`], whose
/// tie-break order swaps Lsd and Dsb).
#[must_use]
pub fn snapshot() -> [KernelTiming; Component::ALL.len()] {
    let mut out = [KernelTiming::default(); Component::ALL.len()];
    for (cell, slot) in CELLS.iter().zip(out.iter_mut()) {
        let count = cell.count.load(Ordering::Relaxed);
        let total = cell.total_ns.load(Ordering::Relaxed);
        let max = cell.max_ns.load(Ordering::Relaxed);
        // Percentile ranks (1-based, ceiling): p50 of 2 samples is the
        // 1st, p99 of 200 samples is the 198th.
        let (p50, p99) = if count == 0 {
            (0.0, 0.0)
        } else {
            (
                percentile_us(&cell.hist, count.div_ceil(2)),
                percentile_us(&cell.hist, (count * 99).div_ceil(100)),
            )
        };
        *slot = KernelTiming {
            count,
            #[allow(clippy::cast_precision_loss)]
            mean_us: if count == 0 {
                0.0
            } else {
                total as f64 / count as f64 / 1e3
            },
            p50_us: p50,
            p99_us: p99,
            #[allow(clippy::cast_precision_loss)]
            max_us: max as f64 / 1e3,
        };
    }
    out
}

/// Reset all counters to zero (the enabled flag is left as-is).
pub fn reset() {
    for cell in &CELLS {
        cell.count.store(0, Ordering::Relaxed);
        cell.total_ns.store(0, Ordering::Relaxed);
        cell.max_ns.store(0, Ordering::Relaxed);
        for slot in &cell.hist {
            slot.store(0, Ordering::Relaxed);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The cells are process-wide and `reset()` clears all of them, so
    /// tests that record and reset must not interleave.
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

    #[test]
    fn record_and_snapshot() {
        let _g = LOCK
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        reset();
        record(Component::Ports, 2_000);
        record(Component::Ports, 4_000);
        record(Component::Precedence, 10_000);
        let snap = snapshot();
        let ports = snap[Component::Ports as usize];
        assert_eq!(ports.count, 2);
        assert!((ports.mean_us - 3.0).abs() < 1e-9);
        assert!((ports.max_us - 4.0).abs() < 1e-9);
        assert_eq!(snap[Component::Precedence as usize].count, 1);
        reset();
        assert_eq!(snapshot()[Component::Ports as usize].count, 0);
    }

    #[test]
    fn buckets_partition_durations() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(u64::MAX), BUCKETS - 1);
        // Every bucket's midpoint lies inside its range.
        for b in 1..BUCKETS - 1 {
            let lo = (1u64 << (b - 1)) as f64;
            let hi = (1u64 << b) as f64;
            let mid = bucket_mid_ns(b);
            assert!(lo <= mid && mid < hi, "bucket {b}: {lo} <= {mid} < {hi}");
        }
    }

    #[test]
    fn percentiles_separate_tight_body_from_slow_tail() {
        let _g = LOCK
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        reset();
        // Ten fast invocations (~1 µs) and one slow outlier (~1 ms): the
        // outlier is the top sample, so nearest-rank p99 (the 11th of 11)
        // lands in its bucket while the median stays in the fast body.
        for _ in 0..10 {
            record(Component::Dec, 1_000);
        }
        record(Component::Dec, 1_000_000);
        let t = snapshot()[Component::Dec as usize];
        assert_eq!(t.count, 11);
        assert!(
            t.p50_us < 2.0,
            "p50 {} should sit in the fast body",
            t.p50_us
        );
        assert!(
            t.p99_us > 100.0,
            "p99 {} should surface the slow tail",
            t.p99_us
        );
        assert!(t.p50_us <= t.p99_us && t.p99_us <= t.max_us);
        reset();
    }

    #[test]
    fn single_sample_percentiles_agree() {
        let _g = LOCK
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        reset();
        record(Component::Issue, 5_000);
        let t = snapshot()[Component::Issue as usize];
        // One sample: p50 and p99 are the same bucket, within a factor
        // of two of the true 5 µs duration.
        assert_eq!(t.p50_us, t.p99_us);
        assert!(t.p50_us >= 2.5 && t.p50_us <= 10.0, "got {}", t.p50_us);
        reset();
    }

    #[test]
    fn disabled_by_default() {
        assert!(!enabled());
        set_enabled(true);
        assert!(enabled());
        set_enabled(false);
    }
}
