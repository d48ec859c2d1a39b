//! Live, in-process insight: streaming attribution and mergeable
//! sketches.
//!
//! [`spans`](crate::spans) answers "where did the budget go" *after* a
//! run. This module answers it *during* one. A [`LiveFold`] is one
//! shard's running answer: per-cell and per-server [`LogSketch`]es —
//! the workspace's one log-bucket histogram at 8 sub-buckets per power
//! of two, so quantile error is bounded by 1/[`LogSketch::SUBS`] and
//! merges are *exact* — and per-cell critical-path blame, the same
//! fronthaul / queue / steal / compute attribution as
//! [`critical_paths`](crate::spans::critical_paths), computed
//! incrementally with its own arithmetic.
//!
//! The fold has one per-record function, [`LiveFold::record`], and two
//! feeders. `PoolShard::execute` owns a fold and, while
//! `pran_telemetry::live::armed()`, records each executed subframe where
//! it finishes, from the integers the scheduler just produced — no
//! event, ring or drain per task. [`LiveFold::fold_shard`] feeds the same
//! function from `subframe` events decoded through [`Subframe::decode`]:
//! the oracle the in-shard path is held equal to, and what reads a trace
//! that was recorded elsewhere. Cells and servers are partitioned by
//! shard, so the metro-wide view is the shards' folds side by side
//! ([`MetroFold`]): scalar sums and a bounded top-k at the join, nothing
//! per event, the same for any worker count. `tests/live_insight.rs`
//! holds the view equal to the post-hoc reference, cell by cell, over
//! resident soaks exported to JSONL and parsed back.
//!
//! Nothing here judges an objective: the fold explains misses, and
//! [`SloMonitor`](crate::slo::SloMonitor) judges each epoch's values,
//! burn rates included.

use std::cmp::Reverse;

use pran_telemetry::metrics::LogBuckets;
use pran_telemetry::trace::TraceEvent;
use pran_telemetry::Subframe;
use serde::Serialize;

use crate::spans::STAGE_NAMES;

/// The mergeable quantile sketch behind the live per-cell and per-server
/// latencies: [`LogBuckets`] at 8 sub-buckets per power of two (12.5 %
/// worst-case relative error for values ≥ 8 µs).
pub type LogSketch = LogBuckets<320>;

// ---------------------------------------------------------------------
// LiveFold: the streaming attribution engine
// ---------------------------------------------------------------------

/// Streaming attribution state over one cell/server id space — a
/// shard's own (what `PoolShard` keeps), or any space a caller maps
/// decoded events into ([`LiveFold::fold_shard`]'s offsets).
///
/// Construct once (all allocation happens here); [`LiveFold::record`],
/// [`LiveFold::steal`] and [`LiveFold::settle`] are allocation-free in
/// steady state, which is what lets the zero-alloc harness run with the
/// live plane armed. Aggregates are sums and sketch-bucket increments,
/// so the state is independent of the order records arrive in.
#[derive(Debug, Clone, PartialEq)]
pub struct LiveFold {
    budget_us: u64,
    /// Per-cell attributed stage totals (µs) across missed deadlines,
    /// [`STAGE_NAMES`] order.
    cell_blame: Vec<[u64; 4]>,
    cell_misses: Vec<u64>,
    /// Per-cell sojourn (release → finish) sketches over *all* subframes.
    cell_latency: Vec<LogSketch>,
    /// Per-server sojourn sketches (keyed by the server that ran the
    /// task).
    server_latency: Vec<LogSketch>,
    server_tasks: Vec<u64>,
    totals: [u64; 4],
    tasks: u64,
    misses: u64,
    events: u64,
    /// `(thief core, instant µs)` of the steals seen since the last
    /// [`settle`](LiveFold::settle).
    steals: Vec<(u64, u64)>,
    /// Stolen tasks that missed, waiting for `settle`: which steal
    /// split their wait is only known once every steal is in.
    stolen_misses: Vec<(usize, Subframe)>,
}

// Manual impl: the two settle buffers are working state, not aggregate
// state (both are empty between epochs).
impl Serialize for LiveFold {
    fn serialize<S: serde::Sink>(&self, sink: &mut S) {
        sink.begin_object(10);
        sink.field("budget_us", &self.budget_us);
        sink.field("cell_blame", &self.cell_blame);
        sink.field("cell_misses", &self.cell_misses);
        sink.field("cell_latency", &self.cell_latency);
        sink.field("server_latency", &self.server_latency);
        sink.field("server_tasks", &self.server_tasks);
        sink.field("totals", &self.totals);
        sink.field("tasks", &self.tasks);
        sink.field("misses", &self.misses);
        sink.field("events", &self.events);
        sink.end_object();
    }
}

impl LiveFold {
    /// New fold over `cells` cells and `servers` servers; `budget_us` is
    /// the HARQ budget deadlines derive from.
    pub fn new(cells: usize, servers: usize, budget_us: u64) -> Self {
        LiveFold {
            budget_us,
            cell_blame: vec![[0u64; 4]; cells],
            cell_misses: vec![0; cells],
            cell_latency: (0..cells).map(|_| LogSketch::new()).collect(),
            server_latency: (0..servers).map(|_| LogSketch::new()).collect(),
            server_tasks: vec![0; servers],
            totals: [0; 4],
            tasks: 0,
            misses: 0,
            events: 0,
            steals: Vec::with_capacity(1024),
            stolen_misses: Vec::with_capacity(1024),
        }
    }

    /// Fold one executed subframe of `cell` that ran on `server` (`None`
    /// = not known; it still counts per cell). `task.cell` is not read:
    /// the caller has already mapped it into this fold's id space, and
    /// ids past the space are counted in the scalars only. `task` must
    /// not finish before its release — no scheduler produces that and
    /// [`Subframe::decode`] rejects it.
    ///
    /// A stolen task that missed is attributed at the next
    /// [`settle`](LiveFold::settle); everything else lands here.
    #[inline]
    pub fn record(&mut self, cell: usize, server: Option<usize>, task: &Subframe) {
        self.events += 1;
        self.tasks += 1;
        let sojourn = task.finish_us - task.release_us;
        if let Some(sketch) = self.cell_latency.get_mut(cell) {
            sketch.record_us(sojourn);
        }
        if let Some(server) = server {
            if let Some(sketch) = self.server_latency.get_mut(server) {
                sketch.record_us(sojourn);
                self.server_tasks[server] += 1;
            }
        }
        if task.missed() {
            if task.stolen {
                self.stolen_misses.push((cell, *task));
            } else {
                self.blame(cell, task);
            }
        }
    }

    /// Note one work-steal: core `thief` grabbed a batch at `at_us` on
    /// its clock (an `rt.steal` event's `thief` and timestamp).
    #[inline]
    pub fn steal(&mut self, thief: u64, at_us: u64) {
        self.events += 1;
        self.steals.push((thief, at_us));
    }

    /// Close a batch of records — one shard-epoch, the span
    /// `spans::critical_paths` would see as one event stream: attribute
    /// the stolen misses against every steal noted since the last call,
    /// then forget both.
    pub fn settle(&mut self) {
        for i in 0..self.stolen_misses.len() {
            let (cell, task) = self.stolen_misses[i];
            self.blame(cell, &task);
        }
        self.stolen_misses.clear();
        self.steals.clear();
    }

    /// Attribute one missed task: `[arrival, finish]` partitioned into
    /// fronthaul / queue / steal / compute the way
    /// `spans::critical_paths` does. A stolen task's wait splits at the
    /// latest steal by its core between its release and its start.
    fn blame(&mut self, cell: usize, task: &Subframe) {
        let arrival = task
            .deadline_us
            .saturating_sub(self.budget_us)
            .min(task.release_us);
        let start = task.start_us.max(task.release_us).min(task.finish_us);
        let steal_at = if task.stolen {
            let by_core = self.steals.iter().filter(|(thief, at)| {
                Some(*thief) == task.core && *at >= task.release_us && *at <= start
            });
            by_core.map(|(_, at)| *at).max()
        } else {
            None
        };
        let queue_end = steal_at.unwrap_or(start);
        let stage_us = [
            task.release_us - arrival,
            queue_end - task.release_us,
            start - queue_end,
            task.finish_us - start,
        ];
        self.misses += 1;
        for (slot, us) in self.totals.iter_mut().zip(stage_us) {
            *slot += us;
        }
        if let Some(blame) = self.cell_blame.get_mut(cell) {
            for (slot, us) in blame.iter_mut().zip(stage_us) {
                *slot += us;
            }
            self.cell_misses[cell] += 1;
        }
    }

    /// Fold one shard-epoch of decoded events: the second feeder of
    /// [`record`](LiveFold::record) / [`steal`](LiveFold::steal), closed
    /// by one [`settle`](LiveFold::settle).
    ///
    /// `cell_offset`/`server_offset` map the shard's local ids into this
    /// fold's space; `assignment[local_cell]` is the shard's cell →
    /// local-server placement for the epoch (tasks of unplaced cells
    /// still count per cell, just not per server). Records that do not
    /// decode are counted as events and otherwise skipped —
    /// `validate_jsonl` is where they get reported. Allocation-free.
    pub fn fold_shard(
        &mut self,
        events: &[TraceEvent],
        cell_offset: usize,
        server_offset: usize,
        assignment: &[Option<usize>],
    ) {
        for event in events {
            match Subframe::decode(event) {
                Some(Ok(task)) => {
                    let local_cell = task.cell as usize;
                    let server = assignment.get(local_cell).copied().flatten();
                    self.record(
                        cell_offset + local_cell,
                        server.map(|s| server_offset + s),
                        &task,
                    );
                }
                Some(Err(_)) => self.events += 1,
                None => match (event.name, event.field_u64("thief")) {
                    ("rt.steal", Some(thief)) => self.steal(thief, event.ts_us),
                    _ => self.events += 1,
                },
            }
        }
        self.settle();
    }

    /// Total attributed microseconds per stage, [`STAGE_NAMES`] order —
    /// equal to `spans::attribution_totals` over the post-hoc paths.
    pub fn totals(&self) -> [(&'static str, u64); 4] {
        std::array::from_fn(|i| (STAGE_NAMES[i], self.totals[i]))
    }

    /// Subframe tasks folded so far.
    pub fn tasks(&self) -> u64 {
        self.tasks
    }

    /// Missed deadlines attributed so far.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// All records consumed: subframe tasks, steals, and — through
    /// [`fold_shard`](LiveFold::fold_shard) — events of any other name.
    pub fn events(&self) -> u64 {
        self.events
    }

    /// Cells in the id space.
    pub fn cell_count(&self) -> usize {
        self.cell_blame.len()
    }

    /// Servers in the id space.
    pub fn server_count(&self) -> usize {
        self.server_latency.len()
    }

    /// One cell's attributed stage totals, [`STAGE_NAMES`] order.
    pub fn cell_blame(&self, cell: usize) -> [u64; 4] {
        self.cell_blame.get(cell).copied().unwrap_or([0; 4])
    }

    /// One cell's missed-deadline count.
    pub fn cell_misses(&self, cell: usize) -> u64 {
        self.cell_misses.get(cell).copied().unwrap_or(0)
    }

    /// One cell's sojourn sketch.
    pub fn cell_latency(&self, cell: usize) -> Option<&LogSketch> {
        self.cell_latency.get(cell)
    }

    /// One server's sojourn sketch.
    pub fn server_latency(&self, server: usize) -> Option<&LogSketch> {
        self.server_latency.get(server)
    }

    /// Tasks folded onto one server.
    pub fn server_tasks(&self, server: usize) -> u64 {
        self.server_tasks.get(server).copied().unwrap_or(0)
    }
}

// ---------------------------------------------------------------------
// MetroFold: the shards' folds side by side
// ---------------------------------------------------------------------

/// A ranked entry: `(Reverse(value), id, count)` sorts worst-first with
/// ties to the lower id (ids are unique, so the count never decides).
type Ranked = (Reverse<u64>, usize, u64);

/// The `k` smallest items offered, kept sorted: one comparison for an
/// item that does not rank, an insertion into ≤ `k` for one that does.
struct TopK {
    k: usize,
    best: Vec<Ranked>,
}

impl TopK {
    fn new(k: usize) -> Self {
        TopK {
            k,
            best: Vec::with_capacity(k + 1),
        }
    }

    /// Whether an item no smaller than `bound` could still rank.
    fn admits(&self, bound: &Ranked) -> bool {
        self.best.len() < self.k || self.best.last().is_some_and(|worst| bound < worst)
    }

    fn offer(&mut self, item: Ranked) {
        if self.admits(&item) {
            let at = self.best.partition_point(|b| *b < item);
            self.best.insert(at, item);
            self.best.truncate(self.k);
        }
    }

    /// `(id, value, count)` worst-first.
    fn into_ranking(self) -> Vec<(usize, u64, u64)> {
        let ranked = self.best.into_iter();
        ranked.map(|(Reverse(v), id, n)| (id, v, n)).collect()
    }
}

/// The metro-wide live view: every shard's [`LiveFold`] side by side,
/// in shard order. Cells and servers are partitioned by shard, so global
/// id = the shard's offset (the cells / servers of the shards before it)
/// + local id, scalars are sums over shards, and nothing is merged.
#[derive(Debug, Clone)]
pub struct MetroFold<'a> {
    parts: Vec<&'a LiveFold>,
}

// The parts in shard order: byte-identical for any worker count because
// each part is.
impl Serialize for MetroFold<'_> {
    fn serialize<S: serde::Sink>(&self, sink: &mut S) {
        self.parts.serialize(sink);
    }
}

impl<'a> MetroFold<'a> {
    /// The view over `parts`, one per shard in shard order.
    pub fn new(parts: Vec<&'a LiveFold>) -> Self {
        MetroFold { parts }
    }

    /// The shards' folds, in shard order.
    pub fn parts(&self) -> &[&'a LiveFold] {
        &self.parts
    }

    /// Subframe tasks folded across the metro.
    pub fn tasks(&self) -> u64 {
        self.parts.iter().map(|p| p.tasks).sum()
    }

    /// Missed deadlines attributed across the metro.
    pub fn misses(&self) -> u64 {
        self.parts.iter().map(|p| p.misses).sum()
    }

    /// Records consumed across the metro (see [`LiveFold::events`]).
    pub fn events(&self) -> u64 {
        self.parts.iter().map(|p| p.events).sum()
    }

    /// Total attributed microseconds per stage, [`STAGE_NAMES`] order.
    pub fn totals(&self) -> [(&'static str, u64); 4] {
        std::array::from_fn(|i| (STAGE_NAMES[i], self.parts.iter().map(|p| p.totals[i]).sum()))
    }

    /// Cells across the metro.
    pub fn cell_count(&self) -> usize {
        self.parts.iter().map(|p| p.cell_count()).sum()
    }

    /// The part holding global `cell`, and the cell's id there.
    fn locate_cell(&self, mut cell: usize) -> Option<(&'a LiveFold, usize)> {
        for part in &self.parts {
            if cell < part.cell_count() {
                return Some((part, cell));
            }
            cell -= part.cell_count();
        }
        None
    }

    /// One cell's attributed stage totals, by global id.
    pub fn cell_blame(&self, cell: usize) -> [u64; 4] {
        self.locate_cell(cell)
            .map_or([0; 4], |(part, local)| part.cell_blame(local))
    }

    /// One cell's missed-deadline count, by global id.
    pub fn cell_misses(&self, cell: usize) -> u64 {
        self.locate_cell(cell)
            .map_or(0, |(part, local)| part.cell_misses(local))
    }

    /// The worst `k` cells by a blame key: total attributed blame when
    /// `stage` is `None`, or one stage's share (by [`STAGE_NAMES`]
    /// index — index 0, fronthaul, ranks cells by *link* blame).
    /// Returns `(cell, blame_us, misses)` sorted worst-first, ties by
    /// cell id; cells with zero blame are omitted. One pass, keeping `k`.
    pub fn top_cells(&self, k: usize, stage: Option<usize>) -> Vec<(usize, u64, u64)> {
        let mut top = TopK::new(k);
        let mut offset = 0;
        for part in &self.parts {
            for (cell, blame) in part.cell_blame.iter().enumerate() {
                let us = match stage {
                    Some(s) => blame[s],
                    None => blame.iter().sum(),
                };
                if us > 0 {
                    top.offer((Reverse(us), offset + cell, part.cell_misses[cell]));
                }
            }
            offset += part.cell_count();
        }
        top.into_ranking()
    }

    /// The worst `k` servers by sojourn p99 (µs); servers with no tasks
    /// are omitted. Returns `(server, p99_us, tasks)` worst-first, ties
    /// by server id. A sketch's p99 is at most its maximum, so only
    /// servers whose maximum could still rank pay for a quantile.
    pub fn top_servers(&self, k: usize) -> Vec<(usize, u64, u64)> {
        let mut top = TopK::new(k);
        let mut offset = 0;
        for part in &self.parts {
            for (server, sketch) in part.server_latency.iter().enumerate() {
                let id = offset + server;
                let max_us = sketch.max().as_micros() as u64;
                if !top.admits(&(Reverse(max_us), id, 0)) {
                    continue;
                }
                if let Some(p99) = sketch.try_quantile(0.99) {
                    let p99_us = p99.as_micros() as u64;
                    top.offer((Reverse(p99_us), id, part.server_tasks[server]));
                }
            }
            offset += part.server_count();
        }
        top.into_ranking()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spans::{attribution_totals, critical_paths, DEFAULT_BUDGET_US};
    use pran_telemetry::export::{parse_jsonl, to_jsonl};
    use pran_telemetry::trace::Domain;

    fn task(cell: u64, release: u64, start: u64, finish: u64, deadline: u64) -> Subframe {
        Subframe {
            cell,
            release_us: release,
            start_us: start,
            finish_us: finish,
            deadline_us: deadline,
            core: None,
            stolen: false,
        }
    }

    fn subframe(cell: u64, release: u64, start: u64, finish: u64, deadline: u64) -> TraceEvent {
        task(cell, release, start, finish, deadline).to_event(None)
    }

    /// The live == post-hoc differential, through the wire format: a
    /// one-shard fold over `events` must equal the sums over the
    /// reference's critical paths of the same events exported to JSONL
    /// and parsed back.
    fn assert_fold_equals_reference(fold: &LiveFold, events: &[TraceEvent]) {
        let parsed = parse_jsonl(&to_jsonl(events)).unwrap();
        let paths = critical_paths(&parsed, fold.budget_us);
        let mut blame = vec![[0u64; 4]; fold.cell_count()];
        let mut misses = vec![0u64; fold.cell_count()];
        for path in &paths {
            let cell = path.cell as usize;
            for (slot, stage) in blame[cell].iter_mut().zip(STAGE_NAMES) {
                *slot += path.stage_us(stage);
            }
            misses[cell] += 1;
        }
        for cell in 0..fold.cell_count() {
            assert_eq!(fold.cell_blame(cell), blame[cell], "cell {cell} blame");
            assert_eq!(fold.cell_misses(cell), misses[cell], "cell {cell} misses");
        }
        assert_eq!(fold.totals(), attribution_totals(&paths));
        assert_eq!(fold.misses(), paths.len() as u64);
    }

    #[test]
    fn fold_attributes_misses_like_spans() {
        let events = vec![
            subframe(0, 100, 150, 900, 2000),    // on time
            subframe(1, 1120, 1920, 3120, 3000), // missed
        ];
        let mut fold = LiveFold::new(4, 2, DEFAULT_BUDGET_US);
        let assignment = [Some(1), Some(0), None, None];
        fold.fold_shard(&events, 0, 0, &assignment);
        assert_eq!(fold.tasks(), 2);
        assert_eq!(fold.misses(), 1);
        let blame = fold.cell_blame(1);
        assert_eq!(blame, [120, 800, 0, 1200]);
        assert_eq!(fold.totals()[3], ("compute", 1200));
        assert_eq!(fold.cell_misses(1), 1);
        assert_eq!(fold.cell_misses(0), 0);
        // Sojourn sketches: cell 0 → server 1, cell 1 → server 0.
        assert_eq!(fold.cell_latency(0).unwrap().count(), 1);
        assert_eq!(fold.server_latency(1).unwrap().count(), 1);
        assert_eq!(fold.server_tasks(0), 1);
        let view = MetroFold::new(vec![&fold]);
        assert_eq!(view.top_cells(8, None), vec![(1, 2120, 1)]);
        assert_eq!(view.top_cells(8, Some(0)), vec![(1, 120, 1)]);
        assert_eq!(view.top_servers(8), vec![(0, 2000, 1), (1, 800, 1)]);
        assert_fold_equals_reference(&fold, &events);
    }

    #[test]
    fn fold_skips_undecodable_subframes() {
        let events = vec![
            // Finishes before its release; stage arithmetic must not run.
            subframe(0, 100, 50, 60, 10),
            TraceEvent::new(70, Domain::Sim, "subframe", &[("cell", 1u64.into())]),
            subframe(1, 1120, 1920, 3120, 3000),
        ];
        let mut fold = LiveFold::new(2, 1, DEFAULT_BUDGET_US);
        fold.fold_shard(&events, 0, 0, &[Some(0), Some(0)]);
        assert_eq!(fold.events(), 3);
        assert_eq!(fold.tasks(), 1);
        assert_eq!(fold.misses(), 1);
        assert_eq!(fold.cell_latency(0).unwrap().count(), 0);
        assert_fold_equals_reference(&fold, &events);
    }

    /// Two shards' worth of records — on-time, late, stolen and late,
    /// with steals that do and do not match — as local `(cell, server,
    /// task)` triples plus each shard's steals.
    #[allow(clippy::type_complexity)]
    fn two_shards() -> [(Vec<(usize, usize, Subframe)>, Vec<(u64, u64)>); 2] {
        let stolen = |core, t: Subframe| Subframe {
            core: Some(core),
            stolen: true,
            ..t
        };
        let pinned = |core, t: Subframe| Subframe {
            core: Some(core),
            ..t
        };
        [
            (
                vec![
                    (0, 1, task(0, 100, 150, 900, 2000)),
                    (1, 0, task(1, 1120, 1920, 3120, 3000)),
                    (2, 1, task(2, 40, 2600, 2900, 2000)),
                    (1, 0, task(1, 2100, 2100, 2400, 4000)),
                ],
                vec![],
            ),
            (
                vec![
                    (0, 0, stolen(3, task(0, 2100, 2600, 4400, 4000))),
                    (1, 0, stolen(1, task(1, 1000, 1700, 3300, 3000))),
                    (1, 0, pinned(1, task(1, 2000, 3300, 5200, 4000))),
                    (2, 1, stolen(2, task(2, 0, 10, 700, 2000))),
                ],
                // Core 3 stole twice inside the first task's wait (the
                // later one counts) and once after its start; core 1's
                // steal precedes its task's release; core 2's task is
                // on time.
                vec![(3, 2200), (3, 2500), (3, 2700), (1, 900), (2, 5)],
            ),
        ]
    }

    #[test]
    fn side_by_side_parts_equal_one_fold_over_the_decoded_events() {
        // The in-shard feeder: one fold per shard, local ids, records and
        // steals as the scheduler hands them over.
        let shards = two_shards();
        let mut parts = [LiveFold::new(3, 2, 2000), LiveFold::new(3, 2, 2000)];
        for (part, (tasks, steals)) in parts.iter_mut().zip(&shards) {
            for &(thief, at_us) in steals {
                part.steal(thief, at_us);
            }
            for (cell, server, task) in tasks {
                part.record(*cell, Some(*server), task);
            }
            part.settle();
        }
        // The decoded feeder: one fold over the metro's id space, each
        // shard's records as trace events (steals last: `settle` must not
        // depend on where in the stream they sit).
        let mut whole = LiveFold::new(6, 4, 2000);
        for (shard, (tasks, steals)) in shards.iter().enumerate() {
            let mut assignment = [None; 3];
            let mut events: Vec<TraceEvent> = Vec::new();
            for (cell, server, task) in tasks {
                assignment[*cell] = Some(*server);
                events.push(task.to_event(None));
            }
            for &(thief, at_us) in steals {
                let fields = [("thief", thief.into())];
                events.push(TraceEvent::new(at_us, Domain::Sim, "rt.steal", &fields));
            }
            whole.fold_shard(&events, shard * 3, shard * 2, &assignment);
            assert_fold_equals_reference(&parts[shard], &events);
        }

        let view = MetroFold::new(parts.iter().collect());
        assert_eq!(parts[1].cell_blame(0), [100, 400, 100, 1800]);
        assert_eq!(parts[1].cell_blame(1), [0, 700 + 1300, 0, 1600 + 1900]);
        assert_eq!(
            (view.tasks(), view.misses(), view.events(), view.totals()),
            (
                whole.tasks(),
                whole.misses(),
                whole.events(),
                whole.totals()
            )
        );
        assert_eq!((view.tasks(), view.misses(), view.events()), (8, 5, 13));
        assert_eq!(view.cell_count(), whole.cell_count());
        for cell in 0..7 {
            assert_eq!(view.cell_blame(cell), whole.cell_blame(cell), "{cell}");
            assert_eq!(view.cell_misses(cell), whole.cell_misses(cell), "{cell}");
        }
        for (shard, part) in parts.iter().enumerate() {
            for cell in 0..3 {
                assert_eq!(
                    part.cell_latency(cell),
                    whole.cell_latency(shard * 3 + cell)
                );
            }
            for server in 0..2 {
                let global = shard * 2 + server;
                assert_eq!(part.server_latency(server), whole.server_latency(global));
                assert_eq!(part.server_tasks(server), whole.server_tasks(global));
            }
        }
        let single = MetroFold::new(vec![&whole]);
        for k in [0, 1, 2, 10] {
            assert_eq!(view.top_cells(k, None), single.top_cells(k, None));
            assert_eq!(view.top_cells(k, Some(1)), single.top_cells(k, Some(1)));
            assert_eq!(view.top_servers(k), single.top_servers(k));
        }
        assert_eq!(view.top_cells(10, None).len(), 4, "cells with blame");
    }

    #[test]
    fn bounded_top_k_equals_a_full_sort() {
        // Pseudo-random blame and sojourns over 3 parts; the bounded
        // selection must return the prefix of the fully sorted ranking,
        // ties (frequent: values are drawn from a small range) included.
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = move |modulo: u64| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x % modulo
        };
        let parts: Vec<LiveFold> = (0..3)
            .map(|_| {
                let mut part = LiveFold::new(40, 12, 2000);
                for _ in 0..600 {
                    let (cell, server) = (next(40) as usize, next(12) as usize);
                    let release = next(50);
                    let finish = release + 1500 + next(8) * 100;
                    let t = task(0, release, release + next(300), finish, 2000);
                    part.record(cell, (server != 11).then_some(server), &t);
                }
                part.settle();
                part
            })
            .collect();
        let view = MetroFold::new(parts.iter().collect());
        for stage in [None, Some(0), Some(1), Some(3)] {
            let mut all: Vec<(usize, u64, u64)> = (0..view.cell_count())
                .map(|cell| {
                    let blame = view.cell_blame(cell);
                    let us = stage.map_or(blame.iter().sum(), |s| blame[s]);
                    (cell, us, view.cell_misses(cell))
                })
                .filter(|(_, us, _)| *us > 0)
                .collect();
            all.sort_by_key(|(cell, us, _)| (Reverse(*us), *cell));
            for k in [1, 7, 500] {
                let want = &all[..k.min(all.len())];
                assert_eq!(view.top_cells(k, stage), want, "{stage:?} k={k}");
            }
        }
        let mut all: Vec<(usize, u64, u64)> = Vec::new();
        for (p, part) in parts.iter().enumerate() {
            for server in 0..12 {
                let sketch = part.server_latency(server).unwrap();
                if let Some(p99) = sketch.try_quantile(0.99) {
                    all.push((
                        p * 12 + server,
                        p99.as_micros() as u64,
                        part.server_tasks(server),
                    ));
                }
            }
        }
        assert_eq!(all.len(), 33, "server 11 of each part ran nothing");
        all.sort_by_key(|(server, p99, _)| (Reverse(*p99), *server));
        for k in [1, 5, 33, 100] {
            assert_eq!(view.top_servers(k), &all[..k.min(all.len())], "k={k}");
        }
    }

    #[test]
    fn steal_attribution_matches_posthoc() {
        let events = vec![
            TraceEvent::new(
                2500,
                Domain::Sim,
                "rt.steal",
                &[
                    ("thief", 3u64.into()),
                    ("home", 0u64.into()),
                    ("tasks", 1u64.into()),
                ],
            ),
            Subframe {
                core: Some(3),
                stolen: true,
                ..task(2, 2100, 2600, 4400, 4000)
            }
            .to_event(None),
        ];
        let mut fold = LiveFold::new(4, 1, 2000);
        fold.fold_shard(&events, 0, 0, &[None, None, Some(0), None]);
        assert_eq!(fold.cell_blame(2), [100, 400, 100, 1800]);
        assert_fold_equals_reference(&fold, &events);
    }
}
