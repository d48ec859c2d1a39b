//! What every workload shares: the run context, the operation tally and
//! the shapes of an untraced and a traced result.

use std::collections::BTreeMap;
use std::time::Instant;

use crate::calib::{HostLevel, Timed};
use crate::spans::Span;

/// `MetroConfig::workers` in every workload, fixed and recorded — never
/// `default_eval`'s `shards.clamp(1, 8)`, which would tie the result to
/// the shard count instead of the host.
pub const WORKERS: usize = 2;

/// Set-ups repeat past the fifth until they have taken this long together.
const SETUP_FLOOR_S: f64 = 0.2;
/// However short a set-up is, it repeats no more often than this.
const MAX_SETUPS: usize = 64;

/// Run context of one workload process.
pub struct Ctx {
    /// Seeds input generation only; the program under test receives the
    /// generated inputs.
    pub seed: u64,
    /// How long the timed part measures, seconds.
    pub seconds: f64,
    /// 1/8-size smoke mode: one set-up, one rep.
    pub quick: bool,
    /// Process start, the origin of `setup_s`.
    pub started: Instant,
}

impl Ctx {
    /// Divisor applied to every workload size (8 in `--quick`).
    pub fn div(&self) -> usize {
        if self.quick {
            8
        } else {
            1
        }
    }

    /// Set up at least five times — more while the set-ups so far took
    /// under [`SETUP_FLOOR_S`], up to [`MAX_SETUPS`], so that a
    /// millisecond set-up is a median of dozens; once in `--quick` —
    /// timing each (the first from process start) into `out.setup_s` in
    /// calibrated seconds, and keep the last. The previous set-up is
    /// dropped before the next begins: `resident_live`'s live tap is
    /// process-global, and a runner dropped late would disarm its
    /// successor's.
    pub fn set_up<T>(&self, out: &mut Untraced, mut build: impl FnMut() -> T) -> T {
        let mut host = HostLevel::new(&[1]);
        let began = Instant::now();
        let mut built = None;
        loop {
            let before = if out.setup_s.is_empty() {
                self.started.elapsed().as_secs_f64()
            } else {
                0.0
            };
            drop(built.take());
            let (value, timed) = host.time(&mut build);
            let whole = timed.part(before + timed.raw_s);
            out.raw_setup_s.push(whole.raw_s);
            out.setup_s.push(whole.cal_s);
            let enough = out.setup_s.len() >= 5
                && (began.elapsed().as_secs_f64() >= SETUP_FLOOR_S
                    || out.setup_s.len() >= MAX_SETUPS);
            if self.quick || enough {
                return value;
            }
            built = Some(value);
        }
    }

    /// Whether a time-bounded loop that began at `since` should stop.
    pub fn spent(&self, since: Instant, share: f64) -> bool {
        since.elapsed().as_secs_f64() >= self.seconds * share
    }
}

/// Operations attempted and failed, with the first few failure reasons.
#[derive(Debug, Default)]
pub struct Tally {
    /// Operations attempted (timed ops and correctness checks alike).
    pub ops: u64,
    /// Operations that failed; a failed op misses any latency limit.
    pub failed: u64,
    /// Why, for the first few.
    pub reasons: Vec<String>,
}

impl Tally {
    /// Count one operation; `why` is only evaluated on failure.
    pub fn op(&mut self, ok: bool, why: impl FnOnce() -> String) {
        self.ops += 1;
        if !ok {
            self.failed += 1;
            if self.reasons.len() < 8 {
                self.reasons.push(why());
            }
        }
    }
}

/// A metric shown by name and unit but not part of the driver's contract
/// (the ISSUE-12 names of workload-specific metrics, sample counts, …).
pub type Extra = (&'static str, f64, &'static str);

/// Result of an untraced run: the samples behind the end-to-end metrics.
/// Rates and latencies are in calibrated seconds (see [`crate::calib`]);
/// the wall-clock readings ride along for display.
#[derive(Debug, Default)]
pub struct Untraced {
    /// Calibrated seconds of each set-up (construction, input
    /// generation, reduced-size warm-up, socket bind); the first starts
    /// at process start.
    pub setup_s: Vec<f64>,
    /// [`Untraced::setup_s`] in wall seconds.
    pub raw_setup_s: Vec<f64>,
    /// Work units per calibrated second, one sample per rep.
    pub rates: Vec<f64>,
    /// Latency of the workload's operation, calibrated milliseconds,
    /// pooled over reps.
    pub op_ms: Vec<f64>,
    /// [`Untraced::rates`] per wall second.
    pub raw_rates: Vec<f64>,
    /// [`Untraced::op_ms`] in wall milliseconds.
    pub raw_op_ms: Vec<f64>,
    /// Host level of every timed interval.
    pub levels: Vec<f64>,
    /// Operation tally.
    pub tally: Tally,
    /// Named extras for display and `out/<workload>.json`.
    pub extras: Vec<Extra>,
}

impl Untraced {
    /// Record a rep that is also the workload's operation: `units` of
    /// work in `wall`.
    pub fn rep(&mut self, units: f64, wall: Timed) {
        self.rate(units, wall);
        self.op(wall);
    }

    /// Record a rate sample: `units` of work in `wall`.
    pub fn rate(&mut self, units: f64, wall: Timed) {
        self.rates.push(units / wall.cal_s);
        self.raw_rates.push(units / wall.raw_s);
    }

    /// Record one operation's latency.
    pub fn op(&mut self, wall: Timed) {
        self.op_ms.push(wall.cal_s * 1e3);
        self.raw_op_ms.push(wall.raw_s * 1e3);
    }
}

/// Result of a traced run: per-layer metrics by catalog name (absent =
/// the layer was idle, reported as 0), plus the spans behind them.
#[derive(Debug, Default)]
pub struct Traced {
    /// Per-layer values by catalog name.
    pub layers: BTreeMap<&'static str, f64>,
    /// Operation tally.
    pub tally: Tally,
    /// Every span recorded.
    pub spans: Vec<Span>,
}

impl Traced {
    /// Record one per-layer value.
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            crate::catalog::PER_LAYER.iter().any(|l| l.name == name),
            "{name} is not in the catalog"
        );
        self.layers.insert(name, value);
    }
}
