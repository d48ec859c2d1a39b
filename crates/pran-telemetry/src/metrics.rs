//! Metrics: the one log-bucket histogram ([`LogBuckets`], at the two
//! resolutions the workspace uses; its counters held by value, so a hot
//! loop can fold samples into one on its own stack and merge once) and a
//! registry of named, labeled instruments.
//!
//! The registry is a process-wide, lock-protected map from
//! `(name, sorted labels)` to an instrument (counter, gauge or
//! [`LogHistogram`]). Snapshots are deterministic — instruments come out
//! sorted by name then labels — and serde round-trippable so bench
//! binaries can stamp them into result files.

use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::Duration;

use serde::{Deserialize, Serialize};

use crate::lock;

/// Base-2 buckets: 40 reach ~12.7 days in microseconds.
const EXPS: usize = 40;

/// A mergeable base-2 logarithmic histogram over microsecond values in
/// `LEN` counters: each of the 40 power-of-two buckets split into
/// [`SUBS`](Self::SUBS)` = LEN / 40` equal sub-buckets, a power of two
/// (the count is the parameter because stable Rust cannot size an array
/// by an expression of another const parameter).
///
/// Bucket `e` covers `[2^e, 2^(e+1))` µs (bucket 0 also absorbs
/// sub-microsecond samples, the top bucket everything past its edge);
/// buckets narrower than the sub-bucket count stay whole. Quantiles
/// interpolate inside the rank's sub-bucket, so their error is bounded
/// by one sub-bucket width — a relative `1 / SUBS` — and the tracked
/// min/max tighten the edge buckets, so single-valued histograms report
/// the true value rather than a bucket edge. [`LogBuckets::merge`] is an
/// element-wise sum: the merged histogram is identical, serialized bytes
/// included, to one built from the concatenated samples, for any split
/// or merge order.
///
/// The counters are held by value, so a histogram allocates nothing and
/// a hot loop can fold samples into one on its own stack and
/// [`merge`](Self::merge) it once. The workspace uses exactly two
/// resolutions: [`LogHistogram`] (40 counters — metrics, registries,
/// reports) and `pran_insight::live::LogSketch` (320 counters, 12.5 % —
/// per-cell and per-server live quantiles).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LogBuckets<const LEN: usize> {
    buckets: [u64; LEN],
    count: u64,
    /// Sum in microseconds (for the mean).
    sum_us: u64,
    max_us: u64,
    /// `u64::MAX` while empty — the identity of `min`, as 0 is `max`'s —
    /// so recording and merging need no branch on the count; read and
    /// written as 0 then.
    min_us: u64,
}

/// The workspace's standard histogram: one counter per power of two.
pub type LogHistogram = LogBuckets<EXPS>;

impl<const LEN: usize> LogBuckets<LEN> {
    /// Sub-buckets per power-of-two bucket; quantile estimates of values
    /// ≥ `SUBS` µs carry at most `1 / SUBS` relative error.
    pub const SUBS: usize = LEN / EXPS;
    const SUB_SHIFT: usize = {
        assert!(
            LEN.is_multiple_of(EXPS) && (LEN / EXPS).is_power_of_two(),
            "LogBuckets holds 40 × a power of two counters"
        );
        (LEN / EXPS).trailing_zeros() as usize
    };

    /// Empty histogram.
    pub fn new() -> Self {
        // Evaluating the shift rejects a count that is not 40 × 2^k.
        let _ = Self::SUB_SHIFT;
        LogBuckets {
            buckets: [0; LEN],
            count: 0,
            sum_us: 0,
            max_us: 0,
            min_us: u64::MAX,
        }
    }

    #[inline]
    fn index(us: u64) -> usize {
        if us == 0 {
            return 0;
        }
        let exp = (63 - us.leading_zeros() as usize).min(EXPS - 1);
        let sub = if exp >= Self::SUB_SHIFT {
            (((us - (1u64 << exp)) >> (exp - Self::SUB_SHIFT)) as usize).min(Self::SUBS - 1)
        } else {
            0
        };
        (exp << Self::SUB_SHIFT) + sub
    }

    /// `[lo, hi)` of a populated bucket. The top bucket is open-ended.
    fn edges(idx: usize) -> (u64, u64) {
        let (exp, sub) = (idx >> Self::SUB_SHIFT, (idx & (Self::SUBS - 1)) as u64);
        let base = 1u64 << exp;
        let (lo, hi) = if exp >= Self::SUB_SHIFT {
            let width = base >> Self::SUB_SHIFT;
            (base + sub * width, base + (sub + 1) * width)
        } else {
            (base, base << 1)
        };
        (
            if idx == 0 { 0 } else { lo },
            if idx == LEN - 1 { u64::MAX } else { hi },
        )
    }

    /// Record a duration.
    #[inline]
    pub fn record(&mut self, d: Duration) {
        self.record_us(d.as_micros() as u64);
    }

    /// Record a value already truncated to whole microseconds — the
    /// zero-conversion entry point for hot paths that keep time as
    /// integer nanoseconds (`record_us(ns / 1000)` lands in exactly the
    /// bucket `record(Duration::from_nanos(ns))` would). Allocation-free.
    #[inline]
    pub fn record_us(&mut self, us: u64) {
        self.record_us_n(us, 1);
    }

    /// Record `n` samples of the same whole-µs value at once: the state,
    /// serialized bytes included, that `n` calls of
    /// [`record_us`](Self::record_us) leave. `n == 0` records nothing and
    /// touches neither bound. Allocation-free.
    #[inline]
    pub fn record_us_n(&mut self, us: u64, n: u64) {
        if n == 0 {
            return;
        }
        self.buckets[Self::index(us)] += n;
        self.count += n;
        self.sum_us += us * n;
        self.max_us = self.max_us.max(us);
        self.min_us = self.min_us.min(us);
    }

    /// Number of samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Mean of recorded durations.
    pub fn mean(&self) -> Duration {
        match self.sum_us.checked_div(self.count) {
            Some(mean) => Duration::from_micros(mean),
            None => Duration::ZERO,
        }
    }

    /// Maximum recorded duration.
    pub fn max(&self) -> Duration {
        Duration::from_micros(self.max_us)
    }

    /// Minimum recorded duration ([`Duration::ZERO`] when empty).
    pub fn min(&self) -> Duration {
        Duration::from_micros(self.min_us())
    }

    /// The minimum in µs as it reads and is written: 0 when empty.
    fn min_us(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min_us
        }
    }

    /// Sum of all recorded durations.
    pub fn sum(&self) -> Duration {
        Duration::from_micros(self.sum_us)
    }

    /// Approximate quantile with linear interpolation inside the bucket.
    ///
    /// Convenience wrapper over [`LogBuckets::try_quantile`] that maps
    /// the empty-histogram case to [`Duration::ZERO`]. Anything that
    /// *emits* quantiles (bench envelopes, insight tables) must use
    /// `try_quantile` and render the empty case as `null`/`-`: a masked
    /// zero reads as a perfect p99 and sails through regression gates.
    pub fn quantile(&self, q: f64) -> Duration {
        self.try_quantile(q).unwrap_or(Duration::ZERO)
    }

    /// Approximate quantile with linear interpolation inside the bucket,
    /// or `None` when the histogram is empty.
    ///
    /// The q-quantile sample's bucket is located by cumulative count, then
    /// the estimate interpolates between the bucket edges, tightened by
    /// the observed min/max so the extreme buckets don't overshoot.
    /// Accurate to the sub-bucket's resolution; exact (no interpolation)
    /// for single-sample histograms.
    pub fn try_quantile(&self, q: f64) -> Option<Duration> {
        assert!((0.0..=1.0).contains(&q), "quantile must be in [0,1]");
        if self.count == 0 {
            return None;
        }
        if self.count == 1 {
            // min == max == the one sample: return it exactly rather than
            // interpolating against a bucket edge.
            return Some(Duration::from_micros(self.min_us));
        }
        Some(Duration::from_micros(self.quantile_interpolated(q)))
    }

    fn quantile_interpolated(&self, q: f64) -> u64 {
        let target = (q * self.count as f64).ceil().max(1.0) as u64;
        // Rank 1 is exactly the observed minimum and rank `count` is
        // exactly the observed maximum — no need to interpolate (and
        // interpolation can't recover them when they share a sparse
        // bucket with nothing else, e.g. q=1.0 of {0, 1h}).
        if target <= 1 {
            return self.min_us;
        }
        if target >= self.count {
            return self.max_us;
        }
        let mut seen = 0u64;
        for (idx, &b) in self.buckets.iter().enumerate() {
            if b == 0 {
                continue;
            }
            if seen + b >= target {
                let (lo_edge, hi_edge) = Self::edges(idx);
                let hi = hi_edge.min(self.max_us.saturating_add(1));
                let lo = lo_edge.max(self.min_us).min(hi - 1);
                // `target - seen` is the 1-based rank of the quantile
                // sample *within* this bucket (1..=b). Interpolating with
                // the 0-based rank keeps the first in-bucket sample pinned
                // to the bucket's lower edge, so a sample sitting exactly
                // on a boundary (e.g. p50 of {512, 1024}) reports the
                // boundary value instead of drifting toward the bucket top.
                let frac = (target - seen - 1) as f64 / b as f64;
                let v = lo as f64 + frac * (hi - lo) as f64;
                return (v.round() as u64).clamp(lo, hi - 1);
            }
            seen += b;
        }
        self.max_us
    }

    /// Reset to empty.
    pub fn reset(&mut self) {
        *self = Self::new();
    }

    /// Merge another histogram into this one (exact: see the type docs).
    /// An empty one changes nothing.
    pub fn merge(&mut self, other: &Self) {
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
        self.count += other.count;
        self.sum_us += other.sum_us;
        self.max_us = self.max_us.max(other.max_us);
        self.min_us = self.min_us.min(other.min_us);
    }
}

impl<const LEN: usize> Default for LogBuckets<LEN> {
    fn default() -> Self {
        Self::new()
    }
}

// Hand-written serde: the vendored derive does not take generics. Key
// order is the wire form `PoolMetrics` and registry snapshots commit to.
impl<const LEN: usize> Serialize for LogBuckets<LEN> {
    fn serialize<S: serde::Sink>(&self, sink: &mut S) {
        sink.begin_object(5);
        sink.field("buckets", &self.buckets);
        sink.field("count", &self.count);
        sink.field("sum_us", &self.sum_us);
        sink.field("max_us", &self.max_us);
        sink.field("min_us", &self.min_us());
        sink.end_object();
    }
}

/// [`LogBuckets`] of any resolution as it is read; which one the
/// buckets are for shows in their number alone. Not derived, because a
/// derive does not validate that number against `LEN`.
#[derive(Deserialize)]
struct LogBucketsWire {
    buckets: Vec<u64>,
    count: u64,
    sum_us: u64,
    max_us: u64,
    min_us: u64,
}

impl<const LEN: usize> Deserialize for LogBuckets<LEN> {
    fn read(r: &mut serde::Reader<'_>) -> Result<Self, serde::Error> {
        let wire = LogBucketsWire::read(r)?;
        let got = wire.buckets.len();
        let buckets = <[u64; LEN]>::try_from(wire.buckets)
            .map_err(|_| serde::Error::new(format!("expected {LEN} buckets, got {got}")))?;
        Ok(LogBuckets {
            buckets,
            count: wire.count,
            sum_us: wire.sum_us,
            max_us: wire.max_us,
            min_us: if wire.count == 0 {
                u64::MAX
            } else {
                wire.min_us
            },
        })
    }
}

// ---------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------

/// One instrument in the registry.
#[derive(Debug, Clone, PartialEq)]
enum Instrument {
    Counter(u64),
    Gauge(f64),
    Histogram(Box<LogHistogram>),
}

type Key = (String, Vec<(String, String)>);

fn key(name: &str, labels: &[(&str, &str)]) -> Key {
    let mut labels: Vec<(String, String)> = labels
        .iter()
        .map(|(k, v)| (k.to_string(), v.to_string()))
        .collect();
    labels.sort();
    (name.to_string(), labels)
}

/// A registry of named, labeled instruments.
///
/// Lookups allocate the key, so the registry suits per-solve and
/// per-epoch granularity, not per-sample hot loops — aggregate locally
/// (e.g. in a [`LogHistogram`]) and merge in afterwards.
#[derive(Debug, Default)]
pub struct Registry {
    instruments: Mutex<BTreeMap<Key, Instrument>>,
}

impl Registry {
    /// Empty registry.
    pub const fn new() -> Self {
        Registry {
            instruments: Mutex::new(BTreeMap::new()),
        }
    }

    /// Add `by` to a counter, creating it at zero.
    pub fn inc(&self, name: &str, labels: &[(&str, &str)], by: u64) {
        let mut map = lock(&self.instruments);
        match map
            .entry(key(name, labels))
            .or_insert(Instrument::Counter(0))
        {
            Instrument::Counter(c) => *c += by,
            other => *other = Instrument::Counter(by),
        }
    }

    /// Set a gauge to its latest value.
    pub fn gauge(&self, name: &str, labels: &[(&str, &str)], value: f64) {
        lock(&self.instruments).insert(key(name, labels), Instrument::Gauge(value));
    }

    /// Record a duration into a histogram instrument.
    pub fn observe(&self, name: &str, labels: &[(&str, &str)], d: Duration) {
        let mut map = lock(&self.instruments);
        match map
            .entry(key(name, labels))
            .or_insert_with(|| Instrument::Histogram(Box::default()))
        {
            Instrument::Histogram(h) => h.record(d),
            other => {
                let mut h = Box::<LogHistogram>::default();
                h.record(d);
                *other = Instrument::Histogram(h);
            }
        }
    }

    /// Merge a locally-aggregated histogram into a histogram instrument.
    pub fn merge_histogram(&self, name: &str, labels: &[(&str, &str)], h: &LogHistogram) {
        let mut map = lock(&self.instruments);
        match map
            .entry(key(name, labels))
            .or_insert_with(|| Instrument::Histogram(Box::default()))
        {
            Instrument::Histogram(existing) => existing.merge(h),
            other => *other = Instrument::Histogram(Box::new(h.clone())),
        }
    }

    /// Deterministic snapshot: instruments sorted by name, then labels.
    pub fn snapshot(&self) -> RegistrySnapshot {
        let map = lock(&self.instruments);
        RegistrySnapshot {
            instruments: map
                .iter()
                .map(|((name, labels), instrument)| InstrumentSnapshot {
                    name: name.clone(),
                    labels: labels
                        .iter()
                        .map(|(k, v)| Label {
                            key: k.clone(),
                            value: v.clone(),
                        })
                        .collect(),
                    value: match instrument {
                        Instrument::Counter(c) => InstrumentValue::Counter(*c),
                        Instrument::Gauge(g) => InstrumentValue::Gauge(*g),
                        Instrument::Histogram(h) => InstrumentValue::Histogram(h.clone()),
                    },
                })
                .collect(),
        }
    }

    /// Remove every instrument.
    pub fn clear(&self) {
        lock(&self.instruments).clear();
    }
}

/// The process-wide registry instrumented code records into.
pub fn global() -> &'static Registry {
    static GLOBAL: Registry = Registry::new();
    &GLOBAL
}

/// One label key/value pair in a snapshot.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Label {
    /// Label key.
    pub key: String,
    /// Label value.
    pub value: String,
}

/// The value a snapshotted instrument held.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum InstrumentValue {
    /// Monotonic counter.
    Counter(u64),
    /// Latest-value gauge.
    Gauge(f64),
    /// Duration distribution.
    Histogram(Box<LogHistogram>),
}

/// One instrument captured by [`Registry::snapshot`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct InstrumentSnapshot {
    /// Instrument name.
    pub name: String,
    /// Sorted labels.
    pub labels: Vec<Label>,
    /// Captured value.
    pub value: InstrumentValue,
}

/// A point-in-time capture of a whole [`Registry`].
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct RegistrySnapshot {
    /// Instruments sorted by name, then labels.
    pub instruments: Vec<InstrumentSnapshot>,
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The finer resolution, as `pran_insight::live::LogSketch` names it.
    type LogSketch = LogBuckets<320>;

    fn us(x: u64) -> Duration {
        Duration::from_micros(x)
    }

    /// Declare tests that run one resolution-generic check at both
    /// resolutions the workspace instantiates.
    macro_rules! at_both_resolutions {
        ($($name:ident => $check:ident;)*) => {$(
            #[test]
            fn $name() {
                $check::<40>();
                $check::<320>();
            }
        )*};
    }

    at_both_resolutions! {
        histogram_basic_stats => basic_stats;
        empty_histogram_safe => empty_safe;
        single_value_quantiles_are_exact => single_value_exact;
        pinned_quantiles_uniform_distribution => pinned_uniform;
        pinned_quantiles_bimodal_distribution => pinned_bimodal;
        pinned_quantiles_constant_distribution => pinned_constant;
        boundary_samples_do_not_drift_toward_bucket_top => boundary_samples;
        saturated_bucket_quantile => saturated_bucket;
        histogram_zero_and_huge => zero_and_huge;
        histogram_merge_tracks_min_max => merge_tracks_min_max;
        merge_is_exact => merge_exact;
        quantiles_stay_within_one_bucket_of_truth => within_one_bucket;
        multiplicity_record_is_n_records => record_n_is_n_records;
        zero_multiplicity_records_nothing => record_zero_is_a_no_op;
    }

    fn record_n_is_n_records<const S: usize>() {
        for base in [&[][..], &[3u64, 700, 1 << 20][..]] {
            for us in [0u64, 1, 2, 5, 100, 1023, 1024, 99_999, 1 << 45] {
                for n in 0..6u64 {
                    let mut one_by_one = LogBuckets::<S>::new();
                    for &v in base {
                        one_by_one.record_us(v);
                    }
                    let mut at_once = one_by_one.clone();
                    (0..n).for_each(|_| one_by_one.record_us(us));
                    at_once.record_us_n(us, n);
                    assert_eq!(
                        serde_json::to_string(&at_once).unwrap(),
                        serde_json::to_string(&one_by_one).unwrap(),
                        "{n} × {us} µs onto {base:?}"
                    );
                }
            }
        }
    }

    /// A histogram merged once — how `PoolShard::execute` folds the
    /// samples it does not count into its dense per-µs tables — equals
    /// the same samples recorded one by one into the target, serialized
    /// bytes included: onto an empty and a populated
    /// histogram, at 0 µs and past the top bucket's edge, with `n > 1`
    /// and with `n == 0`, split across two histograms or in one.
    #[test]
    fn stack_histogram_merged_once_equals_per_sample_records() {
        let all = [
            (0u64, 1u64),
            (0, 3),
            (1, 1),
            (7, 2),
            (512, 1),
            (999, 0),
            (1023, 5),
            (1 << 20, 1),
            (1 << 39, 2),
            (1 << 45, 1),
            (u64::MAX >> 8, 4),
        ];
        // With and without the 0 µs samples, so the merged minimum is
        // the stack histogram's own and not a zero either side starts
        // from.
        for samples in [&all[..], &all[2..]] {
            for base in [&[][..], &[3u64, 700, 1 << 41][..]] {
                let mut one_by_one = LogHistogram::new();
                for &v in base {
                    one_by_one.record_us(v);
                }
                let (mut once, mut twice) = (one_by_one.clone(), one_by_one.clone());
                let (mut folded, mut left, mut right) = (
                    LogHistogram::new(),
                    LogHistogram::new(),
                    LogHistogram::new(),
                );
                for (i, &(us, n)) in samples.iter().enumerate() {
                    one_by_one.record_us_n(us, n);
                    folded.record_us_n(us, n);
                    let half = if i % 2 == 0 { &mut left } else { &mut right };
                    if n == 1 {
                        half.record_us(us);
                    } else {
                        half.record_us_n(us, n);
                    }
                }
                once.merge(&folded);
                twice.merge(&left);
                twice.merge(&right);
                let bytes = serde_json::to_string(&one_by_one).unwrap();
                let case = format!("{samples:?} onto {base:?}");
                assert_eq!(serde_json::to_string(&once).unwrap(), bytes, "{case}");
                assert_eq!(serde_json::to_string(&twice).unwrap(), bytes, "{case}");
                assert_eq!(once, one_by_one, "{case}");
            }
        }
        // An empty histogram — and one fed only zero counts — leaves the
        // count and both bounds alone, on an empty histogram and a
        // populated one; empty, it reads and writes a 0 µs minimum.
        let mut idle = LogHistogram::new();
        idle.record_us_n(5, 0);
        for base in [&[][..], &[900u64, 1000][..]] {
            let mut h = LogHistogram::new();
            for &v in base {
                h.record_us(v);
            }
            let before = h.clone();
            h.merge(&LogHistogram::new());
            h.merge(&idle);
            assert_eq!(h, before);
            assert_eq!(
                (h.min(), h.max(), h.count()),
                (before.min(), before.max(), before.count())
            );
        }
        let empty = serde_json::to_string(&idle).unwrap();
        assert!(empty.ends_with("\"max_us\":0,\"min_us\":0}"), "{empty}");
        assert_eq!(idle.min(), Duration::ZERO);
        assert_eq!(serde_json::from_str::<LogHistogram>(&empty).unwrap(), idle);
    }

    fn record_zero_is_a_no_op<const S: usize>() {
        // On an empty histogram a zero-count record must not become the
        // minimum, and on a populated one it must move neither bound:
        // rank 1 and rank `count` report exactly `min_us` and `max_us`.
        let mut h = LogBuckets::<S>::new();
        h.record_us_n(5, 0);
        assert_eq!(h, LogBuckets::<S>::new());
        h.record_us(900);
        h.record_us(1000);
        h.record_us_n(5, 0);
        h.record_us_n(1 << 30, 0);
        assert_eq!(h.count(), 2);
        assert_eq!(h.try_quantile(0.0), Some(us(900)));
        assert_eq!(h.try_quantile(1.0), Some(us(1000)));
    }

    fn basic_stats<const S: usize>() {
        let mut h = LogBuckets::<S>::new();
        for &v in &[10u64, 20, 40, 80] {
            h.record(us(v));
        }
        assert_eq!(h.count(), 4);
        assert_eq!(h.mean(), us(37));
        assert_eq!(h.max(), us(80));
        assert_eq!(h.min(), us(10));
    }

    fn empty_safe<const S: usize>() {
        let h = LogBuckets::<S>::new();
        assert_eq!(h.mean(), Duration::ZERO);
        assert_eq!(h.sum(), Duration::ZERO);
        assert_eq!(h.quantile(0.99), Duration::ZERO);
        assert_eq!(h.quantile(0.0), Duration::ZERO);
        assert_eq!(h.try_quantile(0.5), None);
        assert_eq!(h.try_quantile(0.0), None);
        assert_eq!(h.try_quantile(1.0), None);
    }

    fn single_value_exact<const S: usize>() {
        let mut h = LogBuckets::<S>::new();
        h.record(Duration::from_millis(50));
        for q in [0.0, 0.5, 0.95, 0.99, 1.0] {
            assert_eq!(h.quantile(q), Duration::from_millis(50), "q={q}");
            assert_eq!(h.try_quantile(q), Some(Duration::from_millis(50)), "q={q}");
        }
        // A single sample sitting on no bucket boundary must come back
        // exactly, not as a bucket-edge interpolation.
        let mut odd = LogBuckets::<S>::new();
        odd.record(us(777));
        assert_eq!(odd.try_quantile(0.5), Some(us(777)));
        assert_eq!(odd.try_quantile(0.99), Some(us(777)));
    }

    fn pinned_uniform<const S: usize>() {
        // 1..=1000 µs uniform: exact p50 = 500, p95 = 950, p99 = 990.
        // The histogram is accurate to its bucket resolution with min/max
        // tightening; pin each estimate to a window around truth.
        let mut h = LogBuckets::<S>::new();
        for i in 1..=1000u64 {
            h.record(us(i));
        }
        let p50 = h.try_quantile(0.50).unwrap();
        let p95 = h.try_quantile(0.95).unwrap();
        let p99 = h.try_quantile(0.99).unwrap();
        assert!(p50 >= us(450) && p50 <= us(550), "p50 {p50:?}");
        assert!(p95 >= us(850) && p95 <= us(1000), "p95 {p95:?}");
        assert!(p99 >= us(900) && p99 <= us(1000), "p99 {p99:?}");
        assert!(p50 <= p95 && p95 <= p99);
        assert_eq!(h.sum(), us(500_500));
    }

    fn pinned_bimodal<const S: usize>() {
        // 90 samples at 100 µs, 10 at 10 000 µs: p50 sits in the low
        // mode's bucket [64,128) clamped below by min=100; p95 and p99
        // interpolate inside the high mode's bucket [8192, 10001) capped
        // above by max=10 000.
        let mut h = LogBuckets::<S>::new();
        for _ in 0..90 {
            h.record(us(100));
        }
        for _ in 0..10 {
            h.record(us(10_000));
        }
        let p50 = h.try_quantile(0.50).unwrap();
        let p95 = h.try_quantile(0.95).unwrap();
        let p99 = h.try_quantile(0.99).unwrap();
        assert!(p50 >= us(100) && p50 < us(128), "p50 {p50:?}");
        assert!(p95 >= us(8192) && p95 <= us(10_000), "p95 {p95:?}");
        assert!(p99 >= us(8192) && p99 <= us(10_000), "p99 {p99:?}");
        assert!(p50 <= p95 && p95 <= p99);
    }

    fn pinned_constant<const S: usize>() {
        // Every sample identical: min == max forces all quantiles to the
        // constant regardless of bucket interpolation.
        let mut h = LogBuckets::<S>::new();
        for _ in 0..37 {
            h.record(us(300));
        }
        for q in [0.0, 0.5, 0.95, 0.99, 1.0] {
            assert_eq!(h.try_quantile(q), Some(us(300)), "q={q}");
        }
    }

    fn boundary_samples<const S: usize>() {
        // Two samples on power-of-two boundaries: the median is the lower
        // sample itself. The old interpolation used the 1-based in-bucket
        // rank and reported p50 ≈ 1023 for {512, 1024}.
        let mut h = LogBuckets::<S>::new();
        h.record(us(512));
        h.record(us(1024));
        assert_eq!(h.try_quantile(0.50), Some(us(512)));
        assert_eq!(h.try_quantile(0.95), Some(us(1024)));
        assert_eq!(h.try_quantile(0.99), Some(us(1024)));
        assert_eq!(h.try_quantile(1.0), Some(us(1024)));

        // Merged histograms built from disjoint halves must agree with a
        // single histogram over the union — quantiles are a function of
        // the merged buckets alone.
        let mut left = LogBuckets::<S>::new();
        let mut right = LogBuckets::<S>::new();
        let mut whole = LogBuckets::<S>::new();
        for v in [512u64, 513, 700, 1023] {
            left.record(us(v));
            whole.record(us(v));
        }
        for v in [1024u64, 1500, 2047, 4096] {
            right.record(us(v));
            whole.record(us(v));
        }
        left.merge(&right);
        for q in [0.25, 0.50, 0.75, 0.95, 0.99] {
            assert_eq!(left.try_quantile(q), whole.try_quantile(q), "q={q}");
        }
        // p50 of 8 samples targets rank 4 (value 1023, bucket [512,1024)):
        // the estimate must stay inside that bucket, not spill past it.
        let p50 = left.try_quantile(0.50).unwrap();
        assert!(p50 >= us(512) && p50 < us(1024), "p50 {p50:?}");
    }

    fn saturated_bucket<const S: usize>() {
        let mut h = LogBuckets::<S>::new();
        // 2^45 µs lands past the last bucket edge and must saturate into
        // the top bucket without overshooting the observed max.
        for _ in 0..3 {
            h.record(us(1 << 45));
        }
        assert_eq!(h.quantile(0.5), us(1 << 45));
        assert_eq!(h.quantile(1.0), us(1 << 45));
    }

    fn zero_and_huge<const S: usize>() {
        let mut h = LogBuckets::<S>::new();
        h.record(Duration::ZERO);
        h.record(Duration::from_secs(3600));
        assert_eq!(h.count(), 2);
        assert_eq!(h.min(), Duration::ZERO);
        assert!(h.quantile(1.0) >= Duration::from_secs(3600));
    }

    fn merge_tracks_min_max<const S: usize>() {
        let mut a = LogBuckets::<S>::new();
        let mut b = LogBuckets::<S>::new();
        a.record(us(5));
        b.record(us(500));
        a.merge(&b);
        assert_eq!(a.count(), 2);
        assert_eq!(a.max(), us(500));
        assert_eq!(a.min(), us(5));
        let mut empty = LogBuckets::<S>::new();
        empty.merge(&a);
        assert_eq!(empty.min(), us(5));
        a.merge(&LogBuckets::<S>::new());
        assert_eq!(a.count(), 2);
    }

    fn merge_exact<const S: usize>() {
        let mut whole = LogBuckets::<S>::new();
        let mut left = LogBuckets::<S>::new();
        let mut right = LogBuckets::<S>::new();
        for v in [0u64, 1, 7, 8, 100, 512, 513, 1023, 1024, 99_999, 1 << 45] {
            whole.record_us(v);
            left.record_us(v);
        }
        for v in [3u64, 64, 700, 5000, 1 << 20] {
            whole.record_us(v);
            right.record_us(v);
        }
        left.merge(&right);
        assert_eq!(left, whole, "merge must equal the union exactly");
        assert_eq!(
            serde_json::to_string(&left).unwrap(),
            serde_json::to_string(&whole).unwrap(),
            "byte-identical serialization"
        );
        let back: LogBuckets<S> =
            serde_json::from_str(&serde_json::to_string(&whole).unwrap()).unwrap();
        assert_eq!(back, whole);
        left.reset();
        assert_eq!(left, LogBuckets::<S>::new());
    }

    /// Width of the (sub-)bucket holding `v`, written out independently
    /// of the implementation's `edges`.
    fn bucket_width<const S: usize>(v: u64) -> u64 {
        if v < 2 {
            return 2; // bucket 0 is [0, 2)
        }
        let shift = (S / 40).trailing_zeros() as usize;
        let exp = 63 - v.leading_zeros() as usize;
        1u64 << if exp >= shift { exp - shift } else { exp }
    }

    fn within_one_bucket<const S: usize>() {
        // splitmix64: a fixed stream, so a failure names its round.
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = move || {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        for round in 0..400 {
            // Mixed magnitudes: sub-µs and tiny values, power-of-two
            // edges, and a log-uniform spread up to ~2^39 µs.
            let n = 1 + (next() % 200) as usize;
            let mut samples: Vec<u64> = (0..n)
                .map(|_| match next() % 4 {
                    0 => next() % 10,
                    1 => 1u64 << (next() % 40),
                    2 => (1u64 << (next() % 40)) - 1,
                    _ => next() >> (25 + next() % 39),
                })
                .collect();
            let mut h = LogBuckets::<S>::new();
            for &v in &samples {
                h.record_us(v);
            }
            samples.sort_unstable();
            let mut last = 0u64;
            for q in [0.0, 0.01, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99, 0.999, 1.0] {
                let rank = ((q * n as f64).ceil().max(1.0) as usize).min(n);
                let exact = samples[rank - 1];
                let est = h.try_quantile(q).unwrap().as_micros() as u64;
                assert!(
                    est.abs_diff(exact) < bucket_width::<S>(exact),
                    "round {round} q={q}: estimate {est} vs exact {exact} (n={n})"
                );
                assert!(est >= last, "round {round}: quantiles must be monotone");
                assert!(est >= samples[0] && est <= samples[n - 1]);
                last = est;
            }
        }
    }

    #[test]
    fn histogram_wire_form_is_pinned() {
        // `PoolMetrics`, `EpochRecord` and registry snapshots embed this
        // shape in committed results: 40 counters, this key order.
        let mut h = LogHistogram::new();
        for v in [0u64, 1, 3, 100, 1000, 1 << 45] {
            h.record_us(v);
        }
        let mut buckets = [0u64; 40];
        buckets[0] = 2; // 0 and 1
        buckets[1] = 1; // 3
        buckets[6] = 1; // 100
        buckets[9] = 1; // 1000
        buckets[39] = 1; // 2^45 saturates into the top bucket
        let counters: Vec<String> = buckets.iter().map(u64::to_string).collect();
        let literal = format!(
            "{{\"buckets\":[{}],\"count\":6,\"sum_us\":35184372089936,\
             \"max_us\":35184372088832,\"min_us\":0}}",
            counters.join(",")
        );
        assert_eq!(serde_json::to_string(&h).unwrap(), literal);
        let back: LogHistogram = serde_json::from_str(&literal).unwrap();
        assert_eq!(back, h);
        // The two resolutions are different wire types: a 320-counter
        // sketch does not deserialize as a histogram, nor the reverse.
        let sketch = serde_json::to_string(&LogSketch::new()).unwrap();
        assert!(serde_json::from_str::<LogHistogram>(&sketch).is_err());
        assert!(serde_json::from_str::<LogSketch>(&literal).is_err());
    }

    #[test]
    fn sketch_quantiles_agree_with_histogram_where_both_are_exact() {
        // Samples on power-of-two boundaries are exact at either
        // resolution, as are constant and single-sample sets.
        for samples in [vec![512u64, 1024], vec![300; 9], vec![777]] {
            let mut h = LogHistogram::new();
            let mut s = LogSketch::new();
            for &v in &samples {
                h.record_us(v);
                s.record_us(v);
            }
            for q in [0.0, 0.5, 0.95, 0.99, 1.0] {
                assert_eq!(h.try_quantile(q), s.try_quantile(q), "{samples:?} q={q}");
            }
        }
    }

    #[test]
    fn sketch_relative_error_is_bounded() {
        let mut s = LogSketch::new();
        for v in 1..=10_000u64 {
            s.record_us(v);
        }
        for (q, truth) in [(0.5, 5000.0), (0.95, 9500.0), (0.99, 9900.0)] {
            let est = s.try_quantile(q).unwrap().as_micros() as f64;
            let rel = (est - truth).abs() / truth;
            assert!(rel <= 1.0 / LogSketch::SUBS as f64, "q={q} rel={rel}");
        }
        assert_eq!(s.try_quantile(0.0), Some(us(1)));
        assert_eq!(s.try_quantile(1.0), Some(us(10_000)));
    }

    #[test]
    fn registry_snapshot_is_deterministic_and_roundtrips() {
        let r = Registry::new();
        r.inc("solves", &[("kind", "ffd")], 2);
        r.inc("solves", &[("kind", "bfd")], 1);
        r.gauge("utilization", &[], 0.75);
        r.observe("solve_time", &[("kind", "ffd")], us(1500));
        r.observe("solve_time", &[("kind", "ffd")], us(2500));
        // Label order at the call site must not matter.
        r.inc("multi", &[("b", "2"), ("a", "1")], 1);
        r.inc("multi", &[("a", "1"), ("b", "2")], 1);

        let snap = r.snapshot();
        let names: Vec<&str> = snap.instruments.iter().map(|i| i.name.as_str()).collect();
        let mut sorted = names.clone();
        sorted.sort();
        assert_eq!(names, sorted);
        let multi = snap.instruments.iter().find(|i| i.name == "multi").unwrap();
        assert_eq!(multi.value, InstrumentValue::Counter(2));

        let json = serde_json::to_string(&snap).unwrap();
        let back: RegistrySnapshot = serde_json::from_str(&json).unwrap();
        assert_eq!(back, snap);

        r.clear();
        assert!(r.snapshot().instruments.is_empty());
    }

    #[test]
    fn a_poisoned_registry_still_records_and_snapshots() {
        let r = Registry::new();
        r.inc("before", &[], 1);
        std::thread::scope(|scope| {
            let holder = scope.spawn(|| {
                let _map = lock(&r.instruments);
                panic!("a holder of the registry's lock panics");
            });
            assert!(holder.join().is_err());
        });
        assert!(r.instruments.is_poisoned());
        r.inc("before", &[], 1);
        r.gauge("level", &[], 0.5);
        r.observe("time", &[], us(1500));
        r.merge_histogram("time", &[], &LogHistogram::new());
        let snap = r.snapshot();
        let names: Vec<&str> = snap.instruments.iter().map(|i| i.name.as_str()).collect();
        assert_eq!(names, ["before", "level", "time"]);
        assert_eq!(snap.instruments[0].value, InstrumentValue::Counter(2));
        r.clear();
        assert!(r.snapshot().instruments.is_empty());
    }
}
