//! The greedy non-preemptive dispatcher, on struct-of-arrays task sets.
//!
//! The pool dispatches once per server per trace step (millions of calls
//! of a few cells each), so nothing here allocates in steady state:
//!
//! * [`TaskBatch`] keeps release/deadline/service as flat `u64`
//!   nanosecond columns (task id = row index), so batched cost
//!   evaluation walks each column cache-linearly;
//! * [`SimScratch`] owns the admission and priority orders, the packed
//!   words, the core clocks and the ready bitset, reused across calls;
//! * [`simulate_into`] writes finish/missed columns into a caller-owned
//!   [`BatchOutcome`], [`dispatch_grid`] its responses on a [`TtiGrid`]
//!   checked once into a [`GridOutcome`].
//!
//! Both paths put each task on the first core to free (ties to the
//! lowest id), read from one flat clock per core:
//!
//! * **ready queue** (`run_queue`) — every policy on any batch. The
//!   ready set is one bitset over *priority positions*, and the lowest
//!   set bit is the task to run: the released task with the least
//!   `(key, row)`, the key the deadline (EDF), the laxity (LLF) or the
//!   release (FIFO, and each partitioned core as a one-core queue of its
//!   own cells). Under a release key a task's position is its admission
//!   index; under EDF on a batch whose deadline column never decreases
//!   (checked in O(n); the pool's jittered steps are pushed TTI-major to
//!   be one) it is the row; any other batch sorts its rows once by
//!   `(key, row)` and a task's position is its rank there;
//! * **grid** ([`dispatch_grid`]) — EDF when every cell releases one
//!   task on each TTI of one grid under one budget (an ideal fronthaul):
//!   the queue then pops TTI-major with the cells ascending, so the
//!   assignment is made TTI by TTI with no task rows, sort or queue at
//!   all, and a TTI that finds every core free replays TTI 0.
//!
//! The admission sort and the priority sort compare one packed word per
//! row: the key (release, deadline or laxity, in ns) above the low `b`
//! bits and the row in them, `b` the bit width of `n − 1` (at least 1).
//! While every key is below `2^(64 − b)` a `u64` word orders exactly as
//! the `(key, row)` pair; a batch with a release or deadline past that
//! (absolute times of hours on very large batches) runs the same code on
//! `u128` words.
//!
//! `tests` below hold both paths, under every source of positions, to a
//! dispatcher on `(key, row)` tuple heaps and a `(free_at, core)` core
//! heap (`heap_only`) on randomized batches, and `realtime`'s hand-worked
//! cases pin the dispatcher's answers.

use super::{Policy, RtTask};

/// Flat struct-of-arrays task set: row `i` is task `i`.
#[derive(Debug, Clone, Default)]
pub struct TaskBatch {
    /// Cell of each task (partitioned policies key on this).
    pub cell: Vec<u32>,
    /// Absolute release time in nanoseconds.
    pub release_ns: Vec<u64>,
    /// Absolute deadline in nanoseconds.
    pub deadline_ns: Vec<u64>,
    /// Service time on one core in nanoseconds.
    pub service_ns: Vec<u64>,
}

impl TaskBatch {
    /// Empty batch.
    pub fn new() -> Self {
        TaskBatch::default()
    }

    /// Append one task row.
    #[inline]
    pub fn push(&mut self, cell: u32, release_ns: u64, deadline_ns: u64, service_ns: u64) {
        self.cell.push(cell);
        self.release_ns.push(release_ns);
        self.deadline_ns.push(deadline_ns);
        self.service_ns.push(service_ns);
    }

    /// Append one task per `(releases[i], deadlines[i])` pair, all for the
    /// same cell with the same service time — the per-cell subframe-grid
    /// shape, appended column-wise instead of `releases.len()` pushes.
    ///
    /// # Panics
    /// Panics if the slices differ in length.
    #[inline]
    pub fn push_run(&mut self, cell: u32, releases: &[u64], deadlines: &[u64], service_ns: u64) {
        assert_eq!(releases.len(), deadlines.len(), "grid slices must match");
        let n = releases.len();
        self.cell.resize(self.cell.len() + n, cell);
        self.release_ns.extend_from_slice(releases);
        self.deadline_ns.extend_from_slice(deadlines);
        self.service_ns
            .resize(self.service_ns.len() + n, service_ns);
    }

    /// Drop all rows, keeping the columns' capacity.
    #[inline]
    pub fn clear(&mut self) {
        self.cell.clear();
        self.release_ns.clear();
        self.deadline_ns.clear();
        self.service_ns.clear();
    }

    /// Number of tasks.
    #[inline]
    pub fn len(&self) -> usize {
        self.cell.len()
    }

    /// Whether the batch holds no tasks.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.cell.is_empty()
    }

    /// Build a batch from [`RtTask`]s. Requires dense ids
    /// (`tasks[i].id == i`), the layout the pool generates.
    ///
    /// # Panics
    /// Panics when ids are not dense or a time does not fit `u64` ns.
    pub fn from_tasks(tasks: &[RtTask]) -> Self {
        let n = tasks.len();
        let mut batch = TaskBatch {
            cell: Vec::with_capacity(n),
            release_ns: Vec::with_capacity(n),
            deadline_ns: Vec::with_capacity(n),
            service_ns: Vec::with_capacity(n),
        };
        for (i, t) in tasks.iter().enumerate() {
            assert_eq!(t.id, i, "task ids must be dense row indices");
            batch.push(
                t.cell as u32,
                u64::try_from(t.release.as_nanos()).expect("release fits u64 ns"),
                u64::try_from(t.deadline.as_nanos()).expect("deadline fits u64 ns"),
                u64::try_from(t.service.as_nanos()).expect("service fits u64 ns"),
            );
        }
        batch
    }
}

/// Reusable scheduler scratch: packed sort words of both widths and the
/// per-row buffers, reused across calls.
#[derive(Debug, Default)]
pub struct SimScratch {
    /// Sort words of batches whose keys pack into `u64`.
    narrow: Vec<u64>,
    /// Sort words of the rest.
    wide: Vec<u128>,
    rows: Rows,
}

impl SimScratch {
    /// Empty scratch.
    pub fn new() -> Self {
        SimScratch::default()
    }
}

/// The per-row buffers of [`SimScratch`]: all of it but the sort words.
#[derive(Debug, Default)]
struct Rows {
    /// Task rows in admission order.
    order: Vec<u32>,
    /// Task rows in `(key, row)` order, built only when neither the
    /// admission order nor the row order is the priority order.
    by_key: Vec<u32>,
    /// Each row's position in `by_key`.
    rank: Vec<u32>,
    /// Per-core free times, ns.
    core_free: Vec<u64>,
    /// The ready set's words: one bit per priority position.
    ready: Vec<u64>,
}

/// A `(key, row)` pair packed into one integer: the key above the low
/// `bits` bits, the row in them. Words order as their pairs while every
/// key is below `2^(width − bits)`.
trait Word: Copy + Ord {
    fn pack(key: u64, row: u32, bits: u32) -> Self;
    /// The row: the low `bits` bits.
    fn row(self, bits: u32) -> u32;
}

impl Word for u64 {
    #[inline]
    fn pack(key: u64, row: u32, bits: u32) -> Self {
        key << bits | u64::from(row)
    }
    #[inline]
    fn row(self, bits: u32) -> u32 {
        self as u32 & u32::MAX >> (32 - bits)
    }
}

impl Word for u128 {
    #[inline]
    fn pack(key: u64, row: u32, bits: u32) -> Self {
        u128::from(key) << bits | u128::from(row)
    }
    #[inline]
    fn row(self, bits: u32) -> u32 {
        self as u32 & u32::MAX >> (32 - bits)
    }
}

/// Low bits a packed word gives its row in an `n`-row batch: the bit
/// width of `n − 1`, at least 1.
fn row_bits(n: usize) -> u32 {
    (usize::BITS - n.saturating_sub(1).leading_zeros()).max(1)
}

/// Whether every key of `batch` packs into a `u64` word beside a row of
/// `bits` bits: every release and deadline below `2^(64 − bits)` (a
/// laxity key, `deadline − service`, is no larger than its deadline).
fn packs_in_u64(batch: &TaskBatch, bits: u32) -> bool {
    let times = batch.release_ns.iter().chain(&batch.deadline_ns);
    times.fold(0, |any, &t| any | t) >> (64 - bits) == 0
}

/// Caller-owned output columns of [`simulate_into`].
#[derive(Debug, Clone, Default)]
pub struct BatchOutcome {
    /// Finish time per task in nanoseconds.
    pub finish_ns: Vec<u64>,
    /// Deadline-miss flag per task.
    pub missed: Vec<bool>,
    /// Busy time accumulated per core, nanoseconds.
    pub core_busy_ns: Vec<u64>,
    /// Time the last task finished, nanoseconds.
    pub makespan_ns: u64,
}

impl BatchOutcome {
    /// Empty outcome.
    pub fn new() -> Self {
        BatchOutcome::default()
    }

    /// Number of missed deadlines.
    pub fn misses(&self) -> usize {
        self.missed.iter().filter(|&&m| m).count()
    }

    /// Fraction of tasks missing their deadline.
    pub fn miss_ratio(&self) -> f64 {
        if self.missed.is_empty() {
            0.0
        } else {
            self.misses() as f64 / self.missed.len() as f64
        }
    }

    /// Task `i` of `batch` as the `subframe` record [`simulate_into`]
    /// emits for it.
    #[inline]
    pub fn subframe(&self, batch: &TaskBatch, i: usize) -> pran_telemetry::Subframe {
        subframe_record(
            batch.cell[i],
            batch.release_ns[i],
            batch.deadline_ns[i],
            batch.service_ns[i],
            self.finish_ns[i],
        )
    }
}

/// One dispatched task as its `subframe` record: every time truncated to
/// whole µs, start reconstructed as finish − service on the µs grid
/// (non-preemptive dispatch runs each task contiguously).
#[inline]
fn subframe_record(
    cell: u32,
    release_ns: u64,
    deadline_ns: u64,
    service_ns: u64,
    finish_ns: u64,
) -> pran_telemetry::Subframe {
    let finish = finish_ns / 1_000;
    pran_telemetry::Subframe {
        cell: u64::from(cell),
        release_us: release_ns / 1_000,
        start_us: finish.saturating_sub(service_ns / 1_000),
        finish_us: finish,
        deadline_us: deadline_ns / 1_000,
        core: None,
        stolen: false,
    }
}

/// A TTI grid, checked once: every cell releases one task at each
/// `release_ns[t]`, strictly increasing, due one budget later. Build it
/// once per pool and hand it to every [`dispatch_grid`] call.
#[derive(Debug, Clone)]
pub struct TtiGrid {
    /// Release of each TTI, ns.
    release_ns: Vec<u64>,
    /// Deadline of each TTI, ns: its release plus `budget_ns`.
    deadline_ns: Vec<u64>,
    /// The grid's one `deadline − release`, ns.
    budget_ns: u64,
}

impl TtiGrid {
    /// The grid of TTIs released at `release_ns` and due at `deadline_ns`.
    ///
    /// # Panics
    /// Panics if the grid is empty, its slices differ in length, its
    /// releases do not strictly increase or its `deadline − release` is not
    /// one non-negative value.
    pub fn new(release_ns: &[u64], deadline_ns: &[u64]) -> Self {
        assert_eq!(
            release_ns.len(),
            deadline_ns.len(),
            "grid slices must match"
        );
        let first = *release_ns.first().expect("a grid has a TTI");
        let budget_ns = deadline_ns[0].wrapping_sub(first);
        assert!(
            release_ns.windows(2).all(|w| w[0] < w[1])
                && (release_ns.iter().zip(deadline_ns))
                    .all(|(&r, &d)| d.checked_sub(r) == Some(budget_ns)),
            "a grid's releases strictly increase under one deadline budget"
        );
        TtiGrid {
            release_ns: release_ns.to_vec(),
            deadline_ns: deadline_ns.to_vec(),
            budget_ns,
        }
    }

    /// Release of each TTI, ns.
    pub fn release_ns(&self) -> &[u64] {
        &self.release_ns
    }

    /// Deadline of each TTI, ns.
    pub fn deadline_ns(&self) -> &[u64] {
        &self.deadline_ns
    }

    /// The grid's one `deadline − release` budget, ns: a task misses its
    /// deadline exactly when its response exceeds this.
    pub fn budget_ns(&self) -> u64 {
        self.budget_ns
    }
}

/// Caller-owned output of [`dispatch_grid`]: the response
/// (`finish − release`) of every (TTI, cell) task, stored once per
/// distinct schedule — a TTI that replays TTI 0 shares TTI 0's block.
#[derive(Debug, Clone, Default)]
pub struct GridOutcome {
    /// Cells per TTI (rows per block).
    cells: usize,
    /// Per TTI, the block holding its responses: 0 for TTI 0 and every
    /// TTI that replays it.
    block: Vec<u32>,
    /// TTIs that replayed TTI 0.
    replays: usize,
    /// Responses in ns: block `b` holds cell `c` at row `b × cells + c`.
    response_ns: Vec<u64>,
}

impl GridOutcome {
    /// Empty outcome.
    pub fn new() -> Self {
        GridOutcome::default()
    }

    /// Responses of TTI `t`'s tasks, ns, one per cell in cell order.
    #[inline]
    fn responses(&self, t: usize) -> &[u64] {
        let first = self.block[t] as usize * self.cells;
        &self.response_ns[first..first + self.cells]
    }

    /// Each distinct block of responses with the number of TTIs it stands
    /// for: TTI 0's first, counting every TTI that replayed it, then one
    /// per TTI dispatched on its own. Folding each block with its
    /// multiplicity folds every task exactly once.
    pub fn blocks(&self) -> impl Iterator<Item = (&[u64], u64)> + '_ {
        let first_multiplicity = 1 + self.replays as u64;
        (0..self.block.len() - self.replays).map(move |b| {
            let block = &self.response_ns[b * self.cells..(b + 1) * self.cells];
            (block, if b == 0 { first_multiplicity } else { 1 })
        })
    }

    /// Cell `c`'s task of TTI `t` as the `subframe` record
    /// [`simulate_into`] emits for the same task of the expanded batch;
    /// `grid` is the one this outcome was dispatched on, `cell` and
    /// `service_ns` that cell's id and service time.
    #[inline]
    pub fn subframe(
        &self,
        grid: &TtiGrid,
        t: usize,
        c: usize,
        cell: u32,
        service_ns: u64,
    ) -> pran_telemetry::Subframe {
        let release = grid.release_ns[t];
        subframe_record(
            cell,
            release,
            release + grid.budget_ns,
            service_ns,
            release + self.responses(t)[c],
        )
    }
}

/// Simulate a batch on `cores` identical cores under `policy`, writing
/// results into `out`. Non-preemptive and work-conserving: whenever a
/// core is free and tasks are ready, the policy's best ready task starts
/// immediately. Emits one `subframe` trace event per task, in row order,
/// when telemetry is on.
///
/// # Panics
/// Panics if `cores == 0`.
pub fn simulate_into(
    batch: &TaskBatch,
    cores: usize,
    policy: Policy,
    scratch: &mut SimScratch,
    out: &mut BatchOutcome,
) {
    assert!(cores >= 1, "need at least one core");
    let n = batch.len();
    out.finish_ns.clear();
    out.finish_ns.resize(n, 0);
    out.missed.clear();
    out.missed.resize(n, false);
    out.core_busy_ns.clear();
    out.core_busy_ns.resize(cores, 0);
    out.makespan_ns = 0;

    let bits = row_bits(n);
    let SimScratch { narrow, wide, rows } = scratch;
    if packs_in_u64(batch, bits) {
        dispatch(batch, policy, bits, narrow, rows, out);
    } else {
        dispatch(batch, policy, bits, wide, rows, out);
    }

    if pran_telemetry::enabled() {
        for i in 0..n {
            out.subframe(batch, i).emit(Some(policy.label()));
        }
    }
}

/// [`simulate_into`]'s dispatch on `W` words, `bits` of them the row,
/// into `out`'s reset columns. Every policy runs on one ready set, a
/// bitset over priority positions, and only where a position comes from
/// differs.
fn dispatch<W: Word>(
    batch: &TaskBatch,
    policy: Policy,
    bits: u32,
    words: &mut Vec<W>,
    rows: &mut Rows,
    out: &mut BatchOutcome,
) {
    let Rows {
        order,
        by_key,
        rank,
        core_free,
        ready,
    } = rows;
    let n = batch.len() as u32;
    let cores = out.core_busy_ns.len();
    // Partitioned: cell % cores binds each row to one core, and each
    // core's rows run as a one-core queue of their own.
    let partitioned = policy == Policy::Partitioned;
    for part in 0..if partitioned { cores } else { 1 } {
        let slots = if partitioned {
            part..part + 1
        } else {
            0..cores
        };
        if partitioned {
            let mine = (0..n).filter(|&i| batch.cell[i as usize] as usize % cores == part);
            sort_order(batch, mine, bits, words, order);
        } else {
            sort_order(batch, 0..n, bits, words, order);
        }
        let (finish_ns, missed) = (&mut out.finish_ns[..], &mut out.missed[..]);
        let busy = &mut out.core_busy_ns[slots];
        let makespan = match policy {
            // Release key: `(release, row)` order is admission order.
            Policy::GlobalFifo | Policy::Partitioned => run_queue(
                batch,
                order,
                ready,
                |next, _| next,
                |pos| order[pos],
                core_free,
                finish_ns,
                missed,
                busy,
            ),
            // Deadlines that never decrease (checked in O(n)): `(deadline,
            // row)` order is row order.
            Policy::GlobalEdf if batch.deadline_ns.is_sorted() => run_queue(
                batch,
                order,
                ready,
                |_, row| row as usize,
                |pos| pos as u32,
                core_free,
                finish_ns,
                missed,
                busy,
            ),
            // Any other batch: each row's rank in one `(key, row)` sort.
            Policy::GlobalEdf | Policy::GlobalLlf => {
                let slack = policy == Policy::GlobalLlf;
                rank_rows(batch, slack, bits, words, by_key, rank);
                run_queue(
                    batch,
                    order,
                    ready,
                    |_, row| rank[row as usize] as usize,
                    |pos| by_key[pos],
                    core_free,
                    finish_ns,
                    missed,
                    busy,
                )
            }
        };
        out.makespan_ns = out.makespan_ns.max(makespan);
    }
}

/// Write `rows` into `order` in admission order, `(release, row)`: each
/// row packed with its release into one word, the words sorted, the rows
/// unpacked.
fn sort_order<W: Word>(
    batch: &TaskBatch,
    rows: impl Iterator<Item = u32>,
    bits: u32,
    words: &mut Vec<W>,
    order: &mut Vec<u32>,
) {
    words.clear();
    words.extend(rows.map(|i| W::pack(batch.release_ns[i as usize], i, bits)));
    words.sort_unstable();
    order.clear();
    order.extend(words.iter().map(|w| w.row(bits)));
}

/// Write every row into `by_key` in `(key, row)` order, the key the
/// deadline or, with `slack`, the laxity `deadline − service`, and each
/// row's position there into `rank`.
fn rank_rows<W: Word>(
    batch: &TaskBatch,
    slack: bool,
    bits: u32,
    words: &mut Vec<W>,
    by_key: &mut Vec<u32>,
    rank: &mut Vec<u32>,
) {
    let (deadline, service) = (&batch.deadline_ns, &batch.service_ns);
    words.clear();
    words.extend((0..batch.len()).map(|r| {
        let key = if slack {
            deadline[r].saturating_sub(service[r])
        } else {
            deadline[r]
        };
        W::pack(key, r as u32, bits)
    }));
    words.sort_unstable();
    by_key.clear();
    by_key.extend(words.iter().map(|w| w.row(bits)));
    rank.resize(by_key.len(), 0);
    for (pos, &row) in by_key.iter().enumerate() {
        rank[row as usize] = pos as u32;
    }
}

/// The core that frees first, ties to the lowest id — the core a
/// `(free_at, core)` min-heap would pop. Selects rather than branches:
/// across server-steps, which core wins is data the branch predictor
/// cannot learn.
#[inline]
fn first_free(core_free: &[u64]) -> usize {
    let (mut c, mut best) = (0usize, core_free[0]);
    for (k, &free) in core_free.iter().enumerate().skip(1) {
        let earlier = free < best;
        c = if earlier { k } else { c };
        best = if earlier { free } else { best };
    }
    c
}

/// Dispatch `grid` on `CORES` identical cores: each of the cells
/// releases one task on every TTI of the grid that needs
/// `service_ns[cell]` on one core. Responses go to `out`.
///
/// This is [`simulate_into`] under `GlobalEdf` (or `GlobalFifo`) on the
/// expanded batch — one row per (cell, TTI), cell-major, as
/// [`TaskBatch::push_run`] writes it — without building it: sorted by
/// `(release, row)` those rows are TTI-major with the cells ascending,
/// and one budget makes `(deadline, row)` order them the same way, so
/// the ready queue pops them in that order. Here the assignment is made
/// TTI by TTI, each TTI's cells in cell order onto the first core to
/// free, the core clocks carried from TTI to TTI.
/// The clocks are a `[u64; CORES]`, so they stay in registers.
///
/// A TTI whose release finds every core free starts from TTI 0's state
/// shifted by its release, so each of its tasks finishes as long after
/// its release as in TTI 0, and misses where it missed. Such a TTI costs
/// one check and a shift of TTI 0's end state, and shares TTI 0's block
/// in `out`. Which free core takes a task can then differ from
/// [`simulate_into`]'s choice (and with it the per-core busy time, which
/// `out` does not carry); no finish time can.
///
/// The grid was checked when it was built ([`TtiGrid::new`]), so a call
/// checks nothing. `CORES == 0` does not compile.
pub fn dispatch_grid<const CORES: usize>(
    service_ns: &[u64],
    grid: &TtiGrid,
    out: &mut GridOutcome,
) {
    const { assert!(CORES >= 1, "need at least one core") };
    let first = grid.release_ns[0];
    out.cells = service_ns.len();
    out.block.clear();
    out.replays = 0;
    out.response_ns.clear();
    let mut core_free = [0u64; CORES];
    let mut first_tti_end = core_free;
    let mut blocks = 0u32;
    for (t, &release) in grid.release_ns.iter().enumerate() {
        if t > 0 && core_free.iter().all(|&f| f <= release) {
            let shift = release - first;
            core_free = first_tti_end.map(|end| end + shift);
            out.block.push(0);
            out.replays += 1;
            continue;
        }
        out.block.push(blocks);
        blocks += 1;
        for &service in service_ns {
            let c = first_free(&core_free);
            let end = core_free[c].max(release) + service;
            // A select per core, not a store at `c`, keeps the clocks in
            // registers.
            for (k, free) in core_free.iter_mut().enumerate() {
                *free = if k == c { end } else { *free };
            }
            out.response_ns.push(end - release);
        }
        if t == 0 {
            first_tti_end = core_free;
        }
    }
}

/// The ready set: one bit per priority position, the lowest set bit the
/// best. `low` is the first word that may hold one: a push below it moves
/// it down, a pop walks it up past empty words.
struct ReadyBits<'a> {
    words: &'a mut [u64],
    low: usize,
    len: usize,
}

impl<'a> ReadyBits<'a> {
    /// An empty set of positions below `positions`, on `words`.
    fn new(words: &'a mut Vec<u64>, positions: usize) -> Self {
        words.clear();
        words.resize(positions.div_ceil(64), 0);
        let low = words.len();
        ReadyBits { words, low, len: 0 }
    }

    #[inline]
    fn push(&mut self, pos: usize) {
        let word = pos / 64;
        self.words[word] |= 1 << (pos % 64);
        self.low = self.low.min(word);
        self.len += 1;
    }

    /// The lowest position in the set, removed. The set is not empty.
    #[inline]
    fn pop(&mut self) -> usize {
        while self.words[self.low] == 0 {
            self.low += 1;
        }
        let word = self.words[self.low];
        self.words[self.low] = word & (word - 1);
        self.len -= 1;
        self.low * 64 + word.trailing_zeros() as usize
    }

    #[inline]
    fn is_empty(&self) -> bool {
        self.len == 0
    }
}

/// Greedy non-preemptive dispatch of `order`'s tasks over the
/// `core_busy_ns.len()` cores, writing finish/missed at the tasks' rows:
/// the task admitted `next`-th is ready at position `pos_of(next, row)`,
/// and the lowest ready position, `row_at` its row, runs first. Returns
/// the makespan.
#[allow(clippy::too_many_arguments)] // split borrows of scratch and outcome
fn run_queue(
    batch: &TaskBatch,
    order: &[u32],
    ready: &mut Vec<u64>,
    pos_of: impl Fn(usize, u32) -> usize,
    row_at: impl Fn(usize) -> u32,
    core_free: &mut Vec<u64>,
    finish_ns: &mut [u64],
    missed: &mut [bool],
    core_busy_ns: &mut [u64],
) -> u64 {
    let n = order.len();
    core_free.clear();
    core_free.resize(core_busy_ns.len(), 0);
    let mut ready = ReadyBits::new(ready, n);

    let mut makespan = 0u64;
    let mut next = 0usize;
    while next < n || !ready.is_empty() {
        // Start time is when the earliest core frees up; admit everything
        // released by then so the policy chooses among all ready tasks —
        // or, with none ready, everything released by the next release.
        let core = first_free(core_free);
        let start = core_free[core];
        let admit_by = if ready.is_empty() {
            start.max(batch.release_ns[order[next] as usize])
        } else {
            start
        };
        while next < n && batch.release_ns[order[next] as usize] <= admit_by {
            ready.push(pos_of(next, order[next]));
            next += 1;
        }
        let i = row_at(ready.pop()) as usize;
        let begin = start.max(batch.release_ns[i]);
        let end = begin + batch.service_ns[i];
        finish_ns[i] = end;
        missed[i] = end > batch.deadline_ns[i];
        core_busy_ns[core] += batch.service_ns[i];
        makespan = makespan.max(end);
        core_free[core] = end;
    }
    makespan
}

#[cfg(test)]
mod tests {
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    use super::*;

    /// Deterministic xorshift so the differential sweep needs no RNG dep.
    struct Rng(u64);
    impl Rng {
        fn next(&mut self) -> u64 {
            let mut x = self.0;
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            self.0 = x;
            x
        }
    }

    fn random_batch(rng: &mut Rng, n: usize, cells: u64) -> TaskBatch {
        let mut batch = TaskBatch::new();
        for _ in 0..n {
            let release = rng.next() % 4_000_000;
            // Mix exact-µs and odd-ns values so truncation paths and
            // tie-breaking both get exercised.
            let service = 100_000 + rng.next() % 2_000_003;
            let deadline = release + rng.next() % 3_000_001;
            batch.push((rng.next() % cells) as u32, release, deadline, service);
        }
        batch
    }

    /// The dispatcher on tuple heaps, on fresh buffers: rows admitted in
    /// `(release, row)` order from a tuple sort into a `(policy key, row)`
    /// ready min-heap, each popped onto the core a `(free_at, core)`
    /// min-heap pops — what every path of [`simulate_into`] must equal.
    fn heap_only(batch: &TaskBatch, cores: usize, policy: Policy) -> BatchOutcome {
        let n = batch.len();
        let mut out = BatchOutcome {
            finish_ns: vec![0; n],
            missed: vec![false; n],
            core_busy_ns: vec![0; cores],
            makespan_ns: 0,
        };
        let (release, deadline, service) =
            (&batch.release_ns, &batch.deadline_ns, &batch.service_ns);
        let key = |i: u32| {
            let i = i as usize;
            match policy {
                Policy::GlobalEdf => deadline[i],
                Policy::GlobalLlf => deadline[i].saturating_sub(service[i]),
                Policy::GlobalFifo | Policy::Partitioned => release[i],
            }
        };
        // One dispatch run per (tasks, the cores they may use).
        let runs: Vec<(Vec<u32>, std::ops::Range<usize>)> = match policy {
            Policy::Partitioned => (0..cores)
                .map(|c| {
                    let mine =
                        (0..n as u32).filter(|&i| batch.cell[i as usize] as usize % cores == c);
                    (mine.collect(), c..c + 1)
                })
                .collect(),
            _ => vec![((0..n as u32).collect(), 0..cores)],
        };
        for (mut order, slots) in runs {
            order.sort_unstable_by_key(|&i| (release[i as usize], i));
            let mut core_free: BinaryHeap<Reverse<(u64, u32)>> =
                slots.map(|c| Reverse((0, c as u32))).collect();
            let mut ready: BinaryHeap<Reverse<(u64, u32)>> = BinaryHeap::new();
            let mut next = 0usize;
            while next < order.len() || !ready.is_empty() {
                let Reverse((free_at, core)) = *core_free.peek().expect("cores exist");
                if ready.is_empty() {
                    // Jump to the next release.
                    let t = release[order[next] as usize].max(free_at);
                    while next < order.len() && release[order[next] as usize] <= t {
                        ready.push(Reverse((key(order[next]), order[next])));
                        next += 1;
                    }
                    continue;
                }
                let start = free_at;
                while next < order.len() && release[order[next] as usize] <= start {
                    ready.push(Reverse((key(order[next]), order[next])));
                    next += 1;
                }
                let Reverse((_, i)) = ready.pop().expect("ready non-empty");
                let i = i as usize;
                let end = start.max(release[i]) + service[i];
                out.finish_ns[i] = end;
                out.missed[i] = end > deadline[i];
                out.core_busy_ns[core as usize] += service[i];
                out.makespan_ns = out.makespan_ns.max(end);
                core_free.pop();
                core_free.push(Reverse((end, core)));
            }
        }
        out
    }

    /// [`simulate_into`] on a fresh scratch and outcome.
    fn fresh(batch: &TaskBatch, cores: usize, policy: Policy) -> BatchOutcome {
        let mut out = BatchOutcome::new();
        simulate_into(batch, cores, policy, &mut SimScratch::new(), &mut out);
        out
    }

    /// Every column of an outcome, for whole-outcome comparisons.
    fn columns(out: &BatchOutcome) -> (Vec<u64>, Vec<bool>, Vec<u64>, u64) {
        let (finish, missed) = (out.finish_ns.clone(), out.missed.clone());
        (finish, missed, out.core_busy_ns.clone(), out.makespan_ns)
    }

    /// EDF on batches with one `deadline − release` budget, the shape of
    /// every subframe batch an ideal fronthaul delivers, goes through the
    /// ready queue like any other and must match the tuple heaps exactly.
    #[test]
    fn uniform_offset_edf_matches_reference() {
        let mut rng = Rng(0xDEADBEEFCAFEF00D);
        let mut scratch = SimScratch::new();
        let mut out = BatchOutcome::new();
        for round in 0..40 {
            let n = 1 + (round % 23);
            let offset = 1_500_000 + rng.next() % 1_000_000;
            let mut batch = TaskBatch::new();
            for _ in 0..n {
                let release = (rng.next() % 4) * 1_000_000;
                let cell = (rng.next() % 7) as u32;
                let service = 100_000 + rng.next() % 2_000_003;
                batch.push(cell, release, release + offset, service);
            }
            for cores in [1, 2, 4] {
                simulate_into(&batch, cores, Policy::GlobalEdf, &mut scratch, &mut out);
                let heap = heap_only(&batch, cores, Policy::GlobalEdf);
                assert_eq!(
                    columns(&out),
                    columns(&heap),
                    "round {round}, cores {cores}"
                );
            }
        }
    }

    /// FIFO and partitioned dispatch queue by release on any batch, the
    /// partitioned one core at a time; both must match the tuple heaps,
    /// and reused buffers must give what fresh ones give.
    #[test]
    fn matches_reference_on_random_sets() {
        let mut rng = Rng(0x9E3779B97F4A7C15);
        let mut scratch = SimScratch::new();
        let mut out = BatchOutcome::new();
        for round in 0..40 {
            let n = 1 + (round % 17);
            let batch = random_batch(&mut rng, n, 5);
            for cores in [1, 2, 4] {
                for policy in [Policy::GlobalFifo, Policy::Partitioned] {
                    simulate_into(&batch, cores, policy, &mut scratch, &mut out);
                    let label = format!("round {round}, {policy:?}, cores {cores}");
                    let heap = heap_only(&batch, cores, policy);
                    assert_eq!(columns(&out), columns(&heap), "{label}");
                    let fresh = fresh(&batch, cores, policy);
                    assert_eq!(columns(&out), columns(&fresh), "{label}");
                }
            }
        }
    }

    /// `n` rows of the pool's jittered shape: cells of 4 TTIs, cell-major,
    /// 1 ms apart, each deadline pinned 2 ms after its TTI, one report in
    /// ten dropped, and jitter in 100 µs steps up to 800 µs so that
    /// releases often tie.
    fn jittered_grid(rng: &mut Rng, n: usize) -> TaskBatch {
        let mut batch = TaskBatch::new();
        for cell in 0.. {
            let service = 100_000 + rng.next() % 600_001;
            for tti in 0..4 {
                if batch.len() == n {
                    return batch;
                }
                if rng.next().is_multiple_of(10) {
                    continue;
                }
                let jitter = (rng.next() % 9) * 100_000;
                let release = tti * 1_000_000;
                batch.push(cell, release + jitter, release + 2_000_000, service);
            }
        }
        unreachable!("cells never run out")
    }

    /// Move every release and deadline of `batch` by one amount, so that
    /// its times reach to just under or past the `u64` packing limit.
    fn to_the_packing_limit(rng: &mut Rng, batch: &mut TaskBatch) {
        let base = (1u64 << (64 - row_bits(batch.len()))) - rng.next() % 3_000_000;
        let times = batch.release_ns.iter_mut().chain(&mut batch.deadline_ns);
        times.for_each(|t| *t += base);
    }

    /// [`simulate_into`] against the tuple heaps, every column, under every
    /// policy on 1/2/3/4/8 cores, one scratch reused throughout.
    fn assert_every_policy_matches(
        batch: &TaskBatch,
        scratch: &mut SimScratch,
        out: &mut BatchOutcome,
        label: &str,
    ) {
        for policy in Policy::all() {
            for cores in [1, 2, 3, 4, 8] {
                simulate_into(batch, cores, policy, scratch, out);
                let heap = heap_only(batch, cores, policy);
                assert_eq!(
                    columns(out),
                    columns(&heap),
                    "{label}, {policy:?}, {cores} cores"
                );
            }
        }
    }

    /// The packed dispatcher against the tuple heaps, every column, under
    /// every policy over 1/2/3/4/8 cores and 1–150 rows, one scratch
    /// reused throughout: random batches, jittered grids (cell-major, so
    /// EDF ranks their rows) and random batches moved to just under and
    /// past the `u64` packing limit, so both word widths run.
    #[test]
    fn packed_dispatch_matches_the_tuple_heaps() {
        let mut rng = Rng(0x5EED_2026_0F0F_0034);
        let mut scratch = SimScratch::new();
        let mut out = BatchOutcome::new();
        let (mut wide, mut queued) = (0, 0);
        let rounds = 1_200;
        for round in 0..rounds {
            let n = 1 + (rng.next() % 150) as usize;
            let batch = match round % 3 {
                0 => random_batch(&mut rng, n, 5),
                1 => jittered_grid(&mut rng, n),
                _ => {
                    let mut batch = random_batch(&mut rng, n, 5);
                    to_the_packing_limit(&mut rng, &mut batch);
                    batch
                }
            };
            wide += usize::from(!packs_in_u64(&batch, row_bits(n)));
            // EDF pops out of admission order only under more than one
            // `deadline − release` budget.
            let budget = |i: usize| batch.deadline_ns[i] - batch.release_ns[i];
            queued += usize::from((1..n).any(|i| budget(i) != budget(0)));
            let label = format!("round {round}, {n} rows");
            assert_every_policy_matches(&batch, &mut scratch, &mut out, &label);
        }
        assert!(
            wide > rounds / 6 && queued > rounds / 2,
            "{wide} wide and {queued} queued batches of {rounds}"
        );
    }

    /// EDF on rows whose deadlines never decrease takes the row as its
    /// priority position; it must match the tuple heaps, every column, on 1–300 rows (across
    /// the 64-, 128- and 256-row word edges), with releases and deadlines
    /// on a coarse grid so that both often tie, over 1/2/3/4/8 cores, on
    /// `u64` words and on batches moved past the packing limit (`u128`).
    #[test]
    fn row_bitset_matches_the_tuple_heaps() {
        let mut rng = Rng(0xB175_E7ED_F0F0_2026);
        let mut scratch = SimScratch::new();
        let mut out = BatchOutcome::new();
        let (mut wide, mut edges) = (0, 0);
        for round in 0..600 {
            let n = match round % 4 {
                // Every size at and either side of a word edge.
                0 => [1, 63, 64, 65, 127, 128, 129, 255, 256, 257][round / 4 % 10],
                _ => 1 + (rng.next() % 300) as usize,
            };
            let mut tasks: Vec<(u64, u64, u64, u32)> = (0..n)
                .map(|_| {
                    let release = (rng.next() % 40) * 100_000;
                    let deadline = release + (rng.next() % 30) * 100_000;
                    let service = 50_000 + rng.next() % 700_001;
                    (deadline, release, service, (rng.next() % 9) as u32)
                })
                .collect();
            tasks.sort_by_key(|&(deadline, ..)| deadline);
            let mut batch = TaskBatch::new();
            for (deadline, release, service, cell) in tasks {
                batch.push(cell, release, deadline, service);
            }
            if round % 2 == 1 {
                to_the_packing_limit(&mut rng, &mut batch);
            }
            assert!(batch.deadline_ns.is_sorted());
            wide += usize::from(!packs_in_u64(&batch, row_bits(n)));
            edges += usize::from(n > 64);
            for cores in [1, 2, 3, 4, 8] {
                simulate_into(&batch, cores, Policy::GlobalEdf, &mut scratch, &mut out);
                assert_eq!(
                    columns(&out),
                    columns(&heap_only(&batch, cores, Policy::GlobalEdf)),
                    "round {round}, {cores} cores, {n} rows"
                );
            }
        }
        assert!(
            wide > 100 && edges > 300,
            "{wide} wide, {edges} past one word"
        );
    }

    /// `n` rows in `(key, row)` order by one key, ties on a 100 µs grid, the
    /// other key left to fall where the random services put it: with
    /// `by_laxity` the laxity `deadline − service` never decreases (and the
    /// deadlines mostly do somewhere), without it the deadline never does.
    fn sorted_by_one_key(rng: &mut Rng, n: usize, by_laxity: bool) -> TaskBatch {
        let mut keys: Vec<u64> = (0..n).map(|_| (rng.next() % 40) * 100_000).collect();
        keys.sort_unstable();
        let mut batch = TaskBatch::new();
        for key in keys {
            let service = 50_000 + rng.next() % 2_000_001;
            let deadline = if by_laxity { key + service } else { key };
            let release = deadline.saturating_sub(rng.next() % 4_000_000);
            batch.push((rng.next() % 9) as u32, release, deadline, service);
        }
        batch
    }

    /// The one ready set at its edges, all four policies against the tuple
    /// heaps: every size at and beside the bitset's 64-, 128- and 256-row
    /// word edges, on random batches, on batches whose laxities are sorted
    /// and whose deadlines are not, and on the reverse, each on `u64` words
    /// and moved past the packing limit (`u128`); then partitioned batches
    /// whose parts are empty or hold a single row.
    #[test]
    fn one_ready_set_matches_the_tuple_heaps_at_its_edges() {
        let mut rng = Rng(0x0BE5_E7ED_6E55_2026);
        let mut scratch = SimScratch::new();
        let mut out = BatchOutcome::new();
        let laxity_ns = |b: &TaskBatch, i: usize| b.deadline_ns[i].saturating_sub(b.service_ns[i]);
        let (mut wide, mut laxity_only, mut deadline_only) = (0, 0, 0);
        for n in [1, 2, 63, 64, 65, 127, 128, 129, 255, 256, 257] {
            for shape in 0..6 {
                let mut batch = match shape / 2 {
                    0 => random_batch(&mut rng, n, 9),
                    1 => sorted_by_one_key(&mut rng, n, true),
                    _ => sorted_by_one_key(&mut rng, n, false),
                };
                if shape % 2 == 1 {
                    to_the_packing_limit(&mut rng, &mut batch);
                }
                wide += usize::from(!packs_in_u64(&batch, row_bits(n)));
                let laxity_sorted =
                    (1..n).all(|i| laxity_ns(&batch, i - 1) <= laxity_ns(&batch, i));
                let deadline_sorted = batch.deadline_ns.is_sorted();
                laxity_only += usize::from(laxity_sorted && !deadline_sorted);
                deadline_only += usize::from(deadline_sorted && !laxity_sorted);
                let label = format!("{n} rows, shape {shape}");
                assert_every_policy_matches(&batch, &mut scratch, &mut out, &label);
            }
        }
        assert!(
            wide >= 30 && laxity_only >= 18 && deadline_only >= 18,
            "{wide} wide, {laxity_only} sorted by laxity alone, {deadline_only} by deadline alone"
        );
        // Every row in one cell (every part but one empty), or each in a
        // cell of its own (parts of one row up to `n = cores`).
        for cores in [1, 2, 3, 4, 8] {
            for n in 1..=cores + 1 {
                for one_cell in [true, false] {
                    let mut batch = random_batch(&mut rng, n, 1);
                    if !one_cell {
                        batch.cell = (0..n as u32).collect();
                    }
                    simulate_into(&batch, cores, Policy::Partitioned, &mut scratch, &mut out);
                    let heap = heap_only(&batch, cores, Policy::Partitioned);
                    assert_eq!(
                        columns(&out),
                        columns(&heap),
                        "{n} rows on {cores} cores, one cell: {one_cell}"
                    );
                }
            }
        }
    }

    /// The pool's jittered steps push rows TTI-major so that EDF takes the
    /// row as its priority position (`pran-sim`'s
    /// `jittered_steps_hand_edf_deadline_ordered_rows` holds that half).
    /// This half: EDF on such a batch builds no priority order and gives
    /// the tuple heaps' answer, while LLF on the same batch ranks every row.
    #[test]
    fn edf_on_sorted_deadlines_builds_no_priority_order() {
        let mut rng = Rng(0x50F7_ED0F_2026_0050);
        for round in 0..100 {
            let cells = 1 + (rng.next() % 40) as u32;
            let service: Vec<u64> = (0..cells).map(|_| 100_000 + rng.next() % 900_001).collect();
            let mut batch = TaskBatch::new();
            for at in [0, 1_000_000, 2_000_000, 3_000_000] {
                for cell in 0..cells {
                    if !rng.next().is_multiple_of(10) {
                        let release = at + (rng.next() % 9) * 100_000;
                        batch.push(cell, release, at + 2_000_000, service[cell as usize]);
                    }
                }
            }
            assert!(batch.deadline_ns.is_sorted());
            for cores in [1, 2, 4] {
                let (mut scratch, mut out) = (SimScratch::new(), BatchOutcome::new());
                simulate_into(&batch, cores, Policy::GlobalEdf, &mut scratch, &mut out);
                let label = format!("round {round}, {cores} cores");
                assert!(scratch.rows.by_key.is_empty(), "{label}");
                let heap = heap_only(&batch, cores, Policy::GlobalEdf);
                assert_eq!(columns(&out), columns(&heap), "{label}");
                simulate_into(&batch, cores, Policy::GlobalLlf, &mut scratch, &mut out);
                assert_eq!(scratch.rows.by_key.len(), batch.len(), "{label}");
            }
        }
    }

    /// One jittered task set as the pool builds it, cell-major (ranked by
    /// deadline: they fall at each new cell) and TTI-major (positions are
    /// rows):
    /// every task finishes at the same time and misses alike either way.
    #[test]
    fn cell_and_tti_major_rows_give_each_task_one_answer() {
        let mut rng = Rng(0x7171_CE11_2026_0049);
        let mut scratch = SimScratch::new();
        let (mut by_cell, mut by_tti) = (BatchOutcome::new(), BatchOutcome::new());
        let mut missed = 0;
        for round in 0..400 {
            let cells = 1 + (rng.next() % 40) as u32;
            let ttis = 1 + rng.next() % 6;
            // `(cell, tti) → (release, deadline, service)`, one in ten lost.
            let mut tasks = Vec::new();
            for cell in 0..cells {
                let service = 100_000 + rng.next() % 900_001;
                for tti in 0..ttis {
                    if !rng.next().is_multiple_of(10) {
                        let jitter = (rng.next() % 9) * 100_000;
                        let at = tti * 1_000_000;
                        tasks.push((cell, tti, at + jitter, at + 2_000_000, service));
                    }
                }
            }
            let batch_of = |tasks: &[(u32, u64, u64, u64, u64)]| {
                let mut batch = TaskBatch::new();
                for &(cell, _, release, deadline, service) in tasks {
                    batch.push(cell, release, deadline, service);
                }
                batch
            };
            let cell_major = batch_of(&tasks);
            let mut tti_tasks = tasks.clone();
            tti_tasks.sort_by_key(|&(cell, tti, ..)| (tti, cell));
            let tti_major = batch_of(&tti_tasks);
            assert!(tti_major.deadline_ns.is_sorted());
            for cores in [1, 2, 4] {
                let edf = Policy::GlobalEdf;
                simulate_into(&cell_major, cores, edf, &mut scratch, &mut by_cell);
                simulate_into(&tti_major, cores, edf, &mut scratch, &mut by_tti);
                let answers = |tasks: &[(u32, u64, u64, u64, u64)], out: &BatchOutcome| {
                    let mut answers: Vec<_> = (tasks.iter().zip(&out.finish_ns))
                        .zip(&out.missed)
                        .map(|((&(cell, tti, ..), &finish), &missed)| (cell, tti, finish, missed))
                        .collect();
                    answers.sort_unstable();
                    answers
                };
                assert_eq!(
                    answers(&tasks, &by_cell),
                    answers(&tti_tasks, &by_tti),
                    "round {round}, {cores} cores"
                );
                assert_eq!(
                    (&by_cell.core_busy_ns, by_cell.makespan_ns),
                    (&by_tti.core_busy_ns, by_tti.makespan_ns)
                );
                missed += by_tti.misses();
            }
        }
        assert!(missed > 0, "the sweep must miss deadlines");
    }

    /// The width switch at its edge, for `n = 2` (`b = 1`: keys below
    /// `2^63`) and `n = 3` (`b = 2`: below `2^62`). Row 0's deadline is
    /// the largest key, 1 ms past the releases: at the limit − 1 the batch
    /// packs into `u64` words, one larger it runs on `u128`, and on one
    /// EDF core both give the schedule worked out here. (A `u64` word of
    /// the larger key would wrap below every other and run row 0 first.)
    ///
    /// * `n = 2`: row 1 (due at +5 µs) runs 0 → 4 µs, row 0 4 → 7 µs.
    /// * `n = 3`: row 1 runs 0 → 4 µs; row 2, released at +1 µs and due
    ///   at +6 µs, then 4 → 5 µs; row 0 last, 5 → 8 µs.
    #[test]
    fn width_switch_at_the_packing_limit() {
        let us = 1_000u64;
        assert_eq!((row_bits(1), row_bits(2), row_bits(3)), (1, 1, 2));
        let cases = [
            (2usize, 1u64 << 63, &[7u64, 4][..], 7u64),
            (3, 1 << 62, &[8, 4, 5], 8),
        ];
        for (n, limit, finish_us, makespan_us) in cases {
            assert_eq!(row_bits(n), 64 - limit.trailing_zeros());
            let r = limit - 1_000 * us;
            for top in [limit - 1, limit] {
                let mut batch = TaskBatch::new();
                batch.push(0, r, top, 3 * us);
                batch.push(1, r, r + 5 * us, 4 * us);
                if n == 3 {
                    batch.push(2, r + us, r + 6 * us, us);
                }
                assert_eq!(packs_in_u64(&batch, row_bits(n)), top < limit);
                let out = fresh(&batch, 1, Policy::GlobalEdf);
                let finish: Vec<u64> = finish_us.iter().map(|f| r + f * us).collect();
                let expected = (
                    finish,
                    vec![false; n],
                    vec![makespan_us * us],
                    r + makespan_us * us,
                );
                assert_eq!(columns(&out), expected, "{n} rows, top key {top}");
                let heap = heap_only(&batch, 1, Policy::GlobalEdf);
                assert_eq!(columns(&heap), expected, "{n} rows, top key {top}");
            }
        }
    }

    #[test]
    fn reuse_across_differently_sized_batches() {
        let mut rng = Rng(42);
        let mut scratch = SimScratch::new();
        let mut out = BatchOutcome::new();
        // Shrinking sizes must not leave stale rows behind, on any path.
        for n in [13usize, 4, 9, 1] {
            let batch = random_batch(&mut rng, n, 3);
            for policy in Policy::all() {
                simulate_into(&batch, 2, policy, &mut scratch, &mut out);
                assert_eq!(out.finish_ns.len(), n);
                let fresh = fresh(&batch, 2, policy);
                assert_eq!(columns(&out), columns(&fresh), "{policy:?}, {n} tasks");
            }
        }
    }

    /// [`dispatch_grid`] into `out`, held to
    /// [`simulate_into`]`(GlobalEdf)` on the expanded cell-major batch:
    /// the same finish and missed values for every (cell, TTI).
    fn assert_grid_is_edf<const CORES: usize>(
        service: &[u64],
        releases: &[u64],
        deadlines: &[u64],
        out: &mut GridOutcome,
    ) {
        let grid = TtiGrid::new(releases, deadlines);
        dispatch_grid::<CORES>(service, &grid, out);
        let mut batch = TaskBatch::new();
        for (cell, &s) in service.iter().enumerate() {
            batch.push_run(cell as u32, releases, deadlines, s);
        }
        let edf = fresh(&batch, CORES, Policy::GlobalEdf);
        let ttis = releases.len();
        for (cell, &s) in service.iter().enumerate() {
            for (t, &deadline) in deadlines.iter().enumerate() {
                let row = cell * ttis + t;
                let finish = releases[t] + out.responses(t)[cell];
                assert_eq!(
                    (finish, finish > deadline),
                    (edf.finish_ns[row], edf.missed[row]),
                    "cell {cell}, TTI {t}, {CORES} cores, services {service:?}"
                );
                assert_eq!(
                    out.subframe(&grid, t, cell, cell as u32, s),
                    edf.subframe(&batch, row)
                );
            }
        }
        let folded: u64 = out.blocks().map(|(b, n)| b.len() as u64 * n).sum();
        assert_eq!(folded, batch.len() as u64, "blocks fold every task once");
    }

    /// Random grids with a 2 ms budget and 0–3 ms services, so TTIs carry
    /// over, replay TTI 0 and miss; the outcome is reused across
    /// differently sized grids. Half the grids have the 1 ms period, half
    /// 1–3 ms gaps, where a TTI can carry over from one that replayed.
    #[test]
    fn grid_dispatch_is_edf_on_the_expanded_batch() {
        const BUDGET: u64 = 2_000_000;
        let mut rng = Rng(0x6B1D_5EED_0F0F_2026);
        let mut out = GridOutcome::new();
        let (mut carried, mut replayed, mut missed, mut after_replay) = (0, 0, 0, 0);
        for round in 0..800 {
            let ttis = 1 + (rng.next() % 10) as usize;
            let cells = 1 + (rng.next() % 12) as usize;
            let mut releases = vec![0u64];
            for _ in 1..ttis {
                let gap = match round / 4 % 2 {
                    0 => 1_000_000,
                    _ => 1_000_000 + rng.next() % 2_000_001,
                };
                releases.push(releases.last().unwrap() + gap);
            }
            let deadlines: Vec<u64> = releases.iter().map(|r| r + BUDGET).collect();
            let service: Vec<u64> = (0..cells).map(|_| rng.next() % 3_000_001).collect();
            let (s, r, d) = (&service[..], &releases[..], &deadlines[..]);
            match round % 4 {
                0 => assert_grid_is_edf::<1>(s, r, d, &mut out),
                1 => assert_grid_is_edf::<2>(s, r, d, &mut out),
                2 => assert_grid_is_edf::<4>(s, r, d, &mut out),
                _ => assert_grid_is_edf::<8>(s, r, d, &mut out),
            }
            replayed += out.block[1..].iter().filter(|&&b| b == 0).count();
            carried += out.block[1..].iter().filter(|&&b| b != 0).count();
            after_replay += out
                .block
                .windows(2)
                .skip(1)
                .filter(|w| w[0] == 0 && w[1] != 0)
                .count();
            missed += (0..ttis)
                .flat_map(|t| out.responses(t))
                .filter(|&&r| r > BUDGET)
                .count();
        }
        assert!(
            carried > 0 && replayed > 0 && missed > 0 && after_replay > 0,
            "the sweep must carry ({carried}), replay ({replayed}), miss ({missed}) \
             and carry over from a replay ({after_replay})"
        );
    }

    /// Five 600 µs cells on four cores, released at 0, 1, 3 and 4 ms with
    /// a 1 ms budget. TTI 0: cells 0–3 start at once, cell 4 waits for
    /// core 0 and finishes at 1.2 ms, past its deadline and past TTI 1's
    /// release. TTI 1 therefore carries over: cells 0–2 take the free
    /// cores at 1 ms, cell 3 waits for core 0 (1.2 → 1.8 ms) and cell 4
    /// for core 1 (1.6 → 2.2 ms). Every core is free again by 3 ms, so
    /// TTI 2 replays TTI 0, its miss included, and leaves core 0 busy
    /// until 4.2 ms: TTI 3 carries over from it exactly as TTI 1 did.
    #[test]
    fn hand_worked_grid_carries_then_replays() {
        let us = 1_000u64;
        let service = [600 * us; 5];
        let releases = [0, 1_000 * us, 3_000 * us, 4_000 * us];
        let deadlines = releases.map(|r| r + 1_000 * us);
        let mut out = GridOutcome::new();
        assert_grid_is_edf::<4>(&service, &releases, &deadlines, &mut out);
        let tti0 = [600 * us, 600 * us, 600 * us, 600 * us, 1_200 * us];
        let carried = [600 * us, 600 * us, 600 * us, 800 * us, 1_200 * us];
        assert_eq!(out.responses(0), tti0);
        assert_eq!(out.responses(1), carried);
        assert_eq!(out.responses(2), tti0);
        assert_eq!(out.responses(3), carried);
        assert_eq!(out.block, [0, 1, 0, 2]);
        let blocks: Vec<(&[u64], u64)> = out.blocks().collect();
        assert_eq!(blocks, [(&tti0[..], 2), (&carried, 1), (&carried, 1)]);
        assert_eq!(releases[2] + out.responses(2)[4], 4_200 * us);
    }

    #[test]
    #[should_panic(expected = "one deadline budget")]
    fn grid_rejects_a_second_budget() {
        TtiGrid::new(&[0, 1_000], &[2_000, 2_500]);
    }

    #[test]
    fn empty_batch() {
        let mut scratch = SimScratch::new();
        let mut out = BatchOutcome::new();
        simulate_into(
            &TaskBatch::new(),
            4,
            Policy::GlobalEdf,
            &mut scratch,
            &mut out,
        );
        assert_eq!(out.misses(), 0);
        assert_eq!(out.makespan_ns, 0);
        assert_eq!(out.core_busy_ns, vec![0; 4]);
    }

    #[test]
    #[should_panic(expected = "at least one core")]
    fn zero_cores_rejected() {
        simulate_into(
            &TaskBatch::new(),
            0,
            Policy::GlobalEdf,
            &mut SimScratch::new(),
            &mut BatchOutcome::new(),
        );
    }
}
