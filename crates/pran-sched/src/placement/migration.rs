//! Migration planning between consecutive placements.
//!
//! Re-solving placement from scratch every epoch would churn cells between
//! servers (each move interrupts a cell for the state-transfer window), so
//! the controller plans *incremental* repacks: keep the current assignment
//! wherever it is still feasible and move the minimum load necessary.

use serde::{Deserialize, Serialize};

use super::{Allowed, CellDemand, Placement, PlacementInstance, ServerLoad, ServerSpec};

/// One cell move.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Move {
    /// The migrating cell.
    pub cell: usize,
    /// `None` when the cell was previously unplaced.
    pub from: Option<usize>,
    /// Destination server.
    pub to: usize,
}

/// A set of moves turning one placement into another.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MigrationPlan {
    /// The moves, in no particular order.
    pub moves: Vec<Move>,
}

impl MigrationPlan {
    /// Number of cells that change servers.
    pub fn len(&self) -> usize {
        self.moves.len()
    }

    /// True when no cell moves.
    pub fn is_empty(&self) -> bool {
        self.moves.is_empty()
    }
}

/// Diff two placements into a migration plan.
///
/// # Panics
/// Panics if the placements have different lengths.
pub fn diff(old: &Placement, new: &Placement) -> MigrationPlan {
    assert_eq!(
        old.assignment.len(),
        new.assignment.len(),
        "placement size mismatch"
    );
    let moves = old
        .assignment
        .iter()
        .zip(new.assignment.iter())
        .enumerate()
        .filter_map(|(cell, (o, n))| match (o, n) {
            (_, None) => None, // becoming unplaced is an eviction, not a move
            (Some(a), Some(b)) if a == b => None,
            (o, Some(b)) => Some(Move {
                cell,
                from: *o,
                to: *b,
            }),
        })
        .collect();
    MigrationPlan { moves }
}

/// Incrementally repair `current` for the demands in `instance`:
/// keep every assignment that still fits, move the fewest/lightest cells
/// off overloaded servers, and place any unplaced cells.
///
/// The selection rule, which every caller's results depend on:
/// - **Evictions.** Each overloaded server, in id order, sheds its cells
///   lightest first, by `(gops, id)`, until it fits: the fewest and
///   lightest evictions that resolve it.
/// - **Order.** The unplaced cells (ascending id), then the evictees in
///   eviction order, are placed by decreasing demand; the sort is stable,
///   so equal demands keep that order.
/// - **Target.** Among the allowed servers that fit, the one left with the
///   minimum residual general capacity, `capacity − load − need`; equal
///   residuals go to the lowest id. A cell with a decode share first tries
///   the accelerated servers alone, then the whole pool.
///
/// Cost: O(cells + servers) to rebuild the loads and find the evictees,
/// then, when any cell must be placed, O(servers log servers) to index the
/// servers by load and O(log servers) per placed cell for each class of
/// identical server specs. A per-cell mask ([`Allowed::PerCell`],
/// [`Allowed::Product`]) is tested while walking the index, so a cell
/// barred from most servers walks past them, as a scan would.
///
/// Returns the new placement and the plan. The result is guaranteed
/// capacity-feasible when it validates; cells that fit nowhere remain
/// unplaced (the admission layer above decides what to drop).
pub fn incremental_repack(
    instance: &PlacementInstance,
    current: &Placement,
) -> (Placement, MigrationPlan) {
    repack(
        &instance.cells,
        &instance.servers,
        &instance.allowed,
        current,
    )
}

/// [`incremental_repack`] over an instance's parts, so the warm placer can
/// pair its booked demands with the caller's servers and mask without
/// copying either.
pub(super) fn repack(
    cells: &[CellDemand],
    servers: &[ServerSpec],
    allowed: &Allowed,
    current: &Placement,
) -> (Placement, MigrationPlan) {
    assert_eq!(
        current.assignment.len(),
        cells.len(),
        "placement size mismatch"
    );
    let mut assignment = current.assignment.clone();
    // Clear assignments that are no longer allowed (topology changed).
    for (cell, slot) in assignment.iter_mut().enumerate() {
        if let Some(s) = *slot {
            if s >= servers.len() || !allowed.is_allowed(cell, s) {
                *slot = None;
            }
        }
    }

    let mut load = vec![ServerLoad::default(); servers.len()];
    for (cell, slot) in assignment.iter().enumerate() {
        if let Some(s) = slot {
            let l = servers[*s].load_of(&cells[cell]);
            load[*s].general += l.general;
            load[*s].decode += l.decode;
        }
    }

    let mut to_place: Vec<usize> = assignment
        .iter()
        .enumerate()
        .filter_map(|(c, a)| a.is_none().then_some(c))
        .collect();
    evict_overloads(cells, servers, &mut assignment, &mut load, &mut to_place);
    if to_place.is_empty() {
        return (
            Placement { assignment },
            MigrationPlan { moves: Vec::new() },
        );
    }

    // Place evicted/unplaced cells best-fit-decreasing into residual room.
    // Cells with a decode share first try accelerated servers (affinity,
    // matching `heuristics::place`), then the whole pool.
    to_place.sort_by(|&a, &b| {
        cells[b]
            .gops
            .partial_cmp(&cells[a].gops)
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    let mut index = FitIndex::new(servers, allowed, &load);
    for cell in to_place {
        let demand = cells[cell];
        let row = allowed.row(cell);
        let admits = |s: usize, need: ServerLoad| {
            servers[s].fits_decode(load[s].decode + need.decode) && row.allows(s)
        };
        let target = if demand.decode_gops > 0.0 {
            index
                .best_fit(&demand, true, admits)
                .or_else(|| index.best_fit(&demand, false, admits))
        } else {
            index.best_fit(&demand, false, admits)
        };
        if let Some(s) = target {
            let l = servers[s].load_of(&demand);
            let before = load[s].general;
            load[s].general += l.general;
            load[s].decode += l.decode;
            index.moved(s, before, load[s].general);
            assignment[cell] = Some(s);
        }
    }

    let new = Placement { assignment };
    let plan = diff(current, &new);
    (new, plan)
}

/// Evict the lightest cells from each overloaded server until it fits —
/// lightest-first minimizes moved load while freeing capacity slowly,
/// but guarantees progress; ties broken by id for determinism. Both
/// resources count: a server whose accelerator is over-committed is
/// overloaded even with general headroom to spare. Overload is judged by
/// the same tolerance `validate` uses: a placement that validates must
/// never be churned here.
fn evict_overloads(
    cells: &[CellDemand],
    servers: &[ServerSpec],
    assignment: &mut [Option<usize>],
    load: &mut [ServerLoad],
    to_place: &mut Vec<usize>,
) {
    // Residents by server, built on the first overload: one counting sort
    // over the assignment, cells ascending within a server. Evicting from
    // one server leaves every other server's list as it was.
    let mut residents: Option<(Vec<usize>, Vec<usize>)> = None;
    for (s, spec) in servers.iter().enumerate() {
        if spec.fits_load(load[s]) {
            continue;
        }
        let (start, cells_by_server) =
            residents.get_or_insert_with(|| residents_by_server(assignment, servers.len()));
        let resident = &mut cells_by_server[start[s]..start[s + 1]];
        resident.sort_by(|&a, &b| {
            cells[a]
                .gops
                .partial_cmp(&cells[b].gops)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.cmp(&b))
        });
        for &cell in resident.iter() {
            if spec.fits_load(load[s]) {
                break;
            }
            let l = spec.load_of(&cells[cell]);
            load[s].general -= l.general;
            load[s].decode -= l.decode;
            assignment[cell] = None;
            to_place.push(cell);
        }
    }
}

/// The placed cells grouped by server, ascending within each: server `s`
/// holds `cells[start[s]..start[s + 1]]` of the returned `(start, cells)`.
fn residents_by_server(assignment: &[Option<usize>], servers: usize) -> (Vec<usize>, Vec<usize>) {
    let mut start = vec![0usize; servers + 1];
    for &s in assignment.iter().flatten() {
        start[s + 1] += 1;
    }
    for s in 0..servers {
        start[s + 1] += start[s];
    }
    let mut next = start.clone();
    let mut cells = vec![0usize; start[servers]];
    for (cell, slot) in assignment.iter().enumerate() {
        if let Some(s) = *slot {
            cells[next[s]] = cell;
            next[s] += 1;
        }
    }
    (start, cells)
}

/// The servers a best fit may choose among, ordered by fullness within
/// each class of identical specs, so a best fit is a binary search and a
/// short walk instead of a scan over every server.
///
/// Servers of one class share `load_of`, the `fits`/`fits_decode`
/// thresholds and the room arithmetic of [`Fill`], and within a class
/// both the fit test and the room a cell leaves are monotone in the
/// fullness: the class's best fit is the fullest member that fits, and
/// the lowest tag among the members whose room left rounds to the same
/// bits.
///
/// A member is named by its tag, the order equal rooms resolve in: a
/// repack tags each server with its id, the cold best fit
/// (`heuristics::place`) with its rank in opening order. A member is
/// *closed* until it opens: a repack's servers are all open, while the
/// cold best fit opens a server when its first cell lands there and asks
/// each class for its lowest closed tag.
pub(super) struct FitIndex {
    fill: Fill,
    classes: Vec<SpecClass>,
    /// Per tag, its class in `classes`; meaningful for indexed tags.
    class_of: Vec<usize>,
}

/// What a [`FitIndex`] entry holds, with the fit test and the room left
/// written as its user's scan writes them, so that a rounding tie
/// resolves as that scan resolves it.
#[derive(Clone, Copy)]
enum Fill {
    /// The general load: `need` fits when `load + need` does and leaves
    /// `capacity − load − need` (a repack).
    Load,
    /// The residual general room: `need` fits when `capacity − residual +
    /// need` does and leaves `residual − need` (the cold best fit). Held
    /// negated, so that a fuller server sorts higher either way.
    Residual,
}

impl Fill {
    /// The entry value of `x`, the load or the residual: larger is fuller.
    fn value(self, x: f64) -> f64 {
        match self {
            Fill::Load => x,
            Fill::Residual => -x,
        }
    }

    /// Whether `need` more general GOPS fit a member at entry value `v`.
    fn fits(self, spec: &ServerSpec, v: f64, need: f64) -> bool {
        match self {
            Fill::Load => spec.fits(v + need),
            Fill::Residual => {
                let residual = -v;
                spec.fits(spec.capacity_gops - residual + need)
            }
        }
    }

    /// The general room `need` leaves on a member at entry value `v`.
    fn left(self, spec: &ServerSpec, v: f64, need: f64) -> f64 {
        match self {
            Fill::Load => spec.capacity_gops - v - need,
            Fill::Residual => -v - need,
        }
    }

    /// The entry value of a member no cell has landed on.
    fn empty(self, spec: &ServerSpec) -> f64 {
        match self {
            Fill::Load => 0.0,
            Fill::Residual => self.value(spec.capacity_gops),
        }
    }
}

struct SpecClass {
    /// The first member of the class; every member has its capacity and
    /// accelerator decode capacity.
    spec: ServerSpec,
    /// One [`entry`] per open member, ascending: by fullness, then by
    /// descending tag, so a walk down meets a value's lowest tag first.
    entries: Vec<u128>,
    /// The closed members' tags, descending: the lowest is last.
    closed: Vec<usize>,
}

impl SpecClass {
    fn holds(&self, spec: &ServerSpec) -> bool {
        let decode = |s: &ServerSpec| s.accelerator.map(|a| a.decode_capacity_gops.to_bits());
        self.spec.capacity_gops.to_bits() == spec.capacity_gops.to_bits()
            && decode(&self.spec) == decode(spec)
    }

    /// Offer this class's best open fit for `demand` against `best`, a
    /// `(room left, tag)` found so far: less room wins, then the lower
    /// tag — what `min_by` over the members in tag order keeps.
    /// `admits(tag, need)` tests what the index does not order by: the
    /// cell's mask and the decode share.
    fn best_fit(
        &self,
        fill: Fill,
        demand: &CellDemand,
        admits: &impl Fn(usize, ServerLoad) -> bool,
        best: &mut Option<(f64, usize)>,
    ) {
        let spec = &self.spec;
        let need = spec.load_of(demand);
        let entries = &self.entries;
        // The fit test is monotone in the value (rounding is), so the
        // entries below `i` are exactly those with general room.
        let mut i = entries.partition_point(|&e| fill.fits(spec, value(e), need.general));
        while i > 0 {
            let e = entries[i - 1];
            // The room left only grows down the walk: stop past the best.
            let left = fill.left(spec, value(e), need.general);
            if best.is_some_and(|(r, _)| left > r) {
                return;
            }
            let t = tag(e);
            if !admits(t, need) {
                i -= 1;
                continue;
            }
            if best.is_none_or(|(r, b)| left < r || (left == r && t < b)) {
                *best = Some((left, t));
            }
            // The rest of this value's entries have higher tags.
            i = entries[..i - 1].partition_point(|&f| f >> 64 < e >> 64);
        }
    }
}

/// Whether `allowed` leaves server `s` open to some cell: a server mask
/// shared by every cell is applied when indexing, a per-cell one during
/// the walk.
fn usable(allowed: &Allowed, s: usize) -> bool {
    match allowed {
        Allowed::Uniform(mask) => mask[s],
        Allowed::Product(p) => p.servers[s],
        Allowed::All | Allowed::PerCell(_) => true,
    }
}

impl FitIndex {
    /// A repack's index: every usable server open at its general load,
    /// tagged with its id.
    fn new(servers: &[ServerSpec], allowed: &Allowed, load: &[ServerLoad]) -> Self {
        let mut index = FitIndex::empty(Fill::Load, servers.len());
        for (s, spec) in servers.iter().enumerate() {
            if usable(allowed, s) {
                let c = index.join(s, spec);
                index.classes[c].entries.push(entry(load[s].general, s));
            }
        }
        for class in &mut index.classes {
            class.entries.sort_unstable();
        }
        index
    }

    /// The cold best fit's index: every usable server closed, tagged with
    /// its rank in `open_order`.
    pub(super) fn closed(servers: &[ServerSpec], allowed: &Allowed, open_order: &[usize]) -> Self {
        let mut index = FitIndex::empty(Fill::Residual, open_order.len());
        for (rank, &s) in open_order.iter().enumerate().rev() {
            if usable(allowed, s) {
                let c = index.join(rank, &servers[s]);
                index.classes[c].closed.push(rank);
            }
        }
        index
    }

    fn empty(fill: Fill, tags: usize) -> Self {
        FitIndex {
            fill,
            classes: Vec::new(),
            class_of: vec![0; tags],
        }
    }

    /// Record `tag`'s class, founding it for `spec` if it is new.
    fn join(&mut self, tag: usize, spec: &ServerSpec) -> usize {
        let c = match self.classes.iter().position(|c| c.holds(spec)) {
            Some(c) => c,
            None => {
                self.classes.push(SpecClass {
                    spec: *spec,
                    entries: Vec::new(),
                    closed: Vec::new(),
                });
                self.classes.len() - 1
            }
        };
        self.class_of[tag] = c;
        c
    }

    /// The open member with the least room left for `demand`, ties to the
    /// lowest tag, among the accelerated classes only if `accel_only`.
    pub(super) fn best_fit(
        &self,
        demand: &CellDemand,
        accel_only: bool,
        admits: impl Fn(usize, ServerLoad) -> bool,
    ) -> Option<usize> {
        let mut best = None;
        for class in &self.classes {
            if !accel_only || class.spec.accelerator.is_some() {
                class.best_fit(self.fill, demand, &admits, &mut best);
            }
        }
        best.map(|(_, t)| t)
    }

    /// The lowest closed tag `demand` fits and `admits`, among the
    /// accelerated classes only if `accel_only`.
    pub(super) fn first_closed(
        &self,
        demand: &CellDemand,
        accel_only: bool,
        admits: impl Fn(usize, ServerLoad) -> bool,
    ) -> Option<usize> {
        let mut first: Option<usize> = None;
        for class in &self.classes {
            let spec = &class.spec;
            let need = spec.load_of(demand);
            if (accel_only && spec.accelerator.is_none())
                || !self.fill.fits(spec, self.fill.empty(spec), need.general)
                || !spec.fits_decode(need.decode)
            {
                continue;
            }
            if let Some(&t) = class.closed.iter().rev().find(|&&t| admits(t, need)) {
                if first.is_none_or(|f| t < f) {
                    first = Some(t);
                }
            }
        }
        first
    }

    /// Open closed member `tag` at `x`, its load or residual.
    pub(super) fn open(&mut self, tag: usize, x: f64) {
        let class = &mut self.classes[self.class_of[tag]];
        let at = class
            .closed
            .iter()
            .rposition(|&t| t == tag)
            .expect("a member opens once");
        class.closed.remove(at);
        let new = entry(self.fill.value(x), tag);
        let to = class.entries.partition_point(|&e| e < new);
        class.entries.insert(to, new);
    }

    /// Move open member `tag` from `before` to `after`, its load or
    /// residual.
    pub(super) fn moved(&mut self, tag: usize, before: f64, after: f64) {
        let entries = &mut self.classes[self.class_of[tag]].entries;
        let from = entries
            .binary_search(&entry(self.fill.value(before), tag))
            .expect("an open member is indexed");
        let new = entry(self.fill.value(after), tag);
        let to = entries.partition_point(|&e| e < new);
        if to > from {
            entries[from..to].rotate_left(1);
            entries[to - 1] = new;
        } else {
            entries[to..=from].rotate_right(1);
            entries[to] = new;
        }
    }
}

/// `x`'s rank in [`f64::total_cmp`]'s order as an unsigned integer, so
/// the small negative loads evictions can leave sort below +0.0, in order.
fn key(x: f64) -> u64 {
    let bits = x.to_bits();
    if bits >> 63 == 1 {
        !bits
    } else {
        bits | 1 << 63
    }
}

/// The inverse of [`key`].
fn unkey(k: u64) -> f64 {
    f64::from_bits(if k >> 63 == 1 { k & !(1 << 63) } else { !k })
}

/// A [`SpecClass`] entry: the value above, `u64::MAX − tag` below.
fn entry(value: f64, tag: usize) -> u128 {
    u128::from(key(value)) << 64 | u128::from(u64::MAX - tag as u64)
}

fn value(entry: u128) -> f64 {
    unkey((entry >> 64) as u64)
}

fn tag(entry: u128) -> usize {
    (u64::MAX - entry as u64) as usize
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::placement::heuristics::{place, Heuristic};
    use crate::placement::{Accelerator, ProductMask};
    use pran_fronthaul::Reachability;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn diff_finds_moves() {
        let old = Placement {
            assignment: vec![Some(0), Some(1), None],
        };
        let new = Placement {
            assignment: vec![Some(0), Some(2), Some(1)],
        };
        let plan = diff(&old, &new);
        assert_eq!(plan.len(), 2);
        assert!(plan.moves.contains(&Move {
            cell: 1,
            from: Some(1),
            to: 2
        }));
        assert!(plan.moves.contains(&Move {
            cell: 2,
            from: None,
            to: 1
        }));
    }

    #[test]
    fn identical_placements_no_moves() {
        let p = Placement {
            assignment: vec![Some(0), Some(1)],
        };
        assert!(diff(&p, &p).is_empty());
    }

    #[test]
    fn stable_when_still_feasible() {
        let inst = PlacementInstance::uniform(&[40.0, 40.0, 40.0], 3, 100.0);
        let current = Placement {
            assignment: vec![Some(0), Some(0), Some(1)],
        };
        let (new, plan) = incremental_repack(&inst, &current);
        assert!(plan.is_empty(), "feasible placement must not churn");
        assert_eq!(new, current);
    }

    #[test]
    fn repack_resolves_overload_with_few_moves() {
        // Server 0 overloaded after demand growth: 60+60 > 100.
        let inst = PlacementInstance::uniform(&[60.0, 60.0, 10.0], 3, 100.0);
        let current = Placement {
            assignment: vec![Some(0), Some(0), Some(1)],
        };
        let (new, plan) = incremental_repack(&inst, &current);
        assert!(inst.validate(&new).is_ok(), "{:?}", inst.validate(&new));
        assert_eq!(plan.len(), 1, "one move suffices: {plan:?}");
    }

    #[test]
    fn repack_places_new_cells() {
        let inst = PlacementInstance::uniform(&[50.0, 30.0], 2, 100.0);
        let current = Placement {
            assignment: vec![Some(0), None],
        };
        let (new, plan) = incremental_repack(&inst, &current);
        assert!(inst.validate(&new).is_ok());
        assert_eq!(plan.len(), 1);
        assert_eq!(plan.moves[0].from, None);
    }

    #[test]
    fn repack_leaves_unplaceable_cells_out() {
        let inst = PlacementInstance::uniform(&[90.0, 90.0, 90.0], 2, 100.0);
        let current = Placement {
            assignment: vec![Some(0), Some(1), None],
        };
        let (new, plan) = incremental_repack(&inst, &current);
        assert_eq!(new.placed(), 2);
        assert!(plan.is_empty());
    }

    #[test]
    fn repack_handles_topology_shrink() {
        // Server 1 disappears (allowed matrix forbids it now).
        let mut inst = PlacementInstance::uniform(&[50.0, 40.0], 2, 100.0);
        inst.allowed = vec![vec![true, false], vec![true, false]].into();
        let current = Placement {
            assignment: vec![Some(1), Some(0)],
        };
        let (new, plan) = incremental_repack(&inst, &current);
        assert!(inst.validate(&new).is_ok());
        assert_eq!(plan.len(), 1);
        assert_eq!(new.assignment[0], Some(0));
    }

    /// Pinned from `tests/tests/proptest_cross.proptest-regressions`:
    /// FFD packs both cells onto one server at 199.985/200 GOPS; a 0.18 %
    /// growth pushes it to 200.35 and repack must move exactly one cell —
    /// the lighter one — onto the empty spare, never leaving an overload.
    #[test]
    fn pinned_regression_growth_just_past_capacity() {
        let demands = [81.11015613411035, 118.87534850668013];
        let growth = 1.0018224024772355;
        let inst = PlacementInstance::uniform(&demands, 2, 200.0);
        let seed = place(&inst, Heuristic::FirstFitDecreasing);
        assert!(seed.complete());
        assert_eq!(seed.placement.assignment, vec![Some(0), Some(0)]);

        let grown: Vec<f64> = demands.iter().map(|d| d * growth).collect();
        let grown_inst = PlacementInstance::uniform(&grown, 2, 200.0);
        let (new, plan) = incremental_repack(&grown_inst, &seed.placement);
        assert!(
            grown_inst.validate(&new).is_ok(),
            "{:?}",
            grown_inst.validate(&new)
        );
        assert_eq!(plan.len(), 1, "one move suffices: {plan:?}");
        assert_eq!(plan.moves[0].cell, 0, "the lighter cell moves");
    }

    /// A placement at capacity-plus-float-dust validates as feasible and
    /// therefore must not be churned: overload detection uses the same
    /// tolerance as `validate`, not a strict compare.
    #[test]
    fn repack_ignores_float_dust_overload() {
        let inst = PlacementInstance::uniform(&[120.00000001, 80.0], 2, 200.0);
        let current = Placement {
            assignment: vec![Some(0), Some(0)],
        };
        assert!(inst.validate(&current).is_ok());
        let (new, plan) = incremental_repack(&inst, &current);
        assert!(
            plan.is_empty(),
            "feasible-within-tolerance placement churned: {plan:?}"
        );
        assert_eq!(new, current);
    }

    #[test]
    fn repack_resolves_accelerator_overload() {
        use crate::placement::Accelerator;
        // Server 0's accelerator shrinks in-flight (say a firmware cap):
        // decode 50 on a 40-GOPS accelerator must evict a cell even though
        // the general load (60/200) is comfortable.
        let mut inst = PlacementInstance::uniform(&[30.0, 30.0], 2, 200.0);
        inst.servers[0].accelerator = Some(Accelerator {
            decode_capacity_gops: 40.0,
            decode_speedup: 4.0,
        });
        inst.servers[1].accelerator = Some(Accelerator {
            decode_capacity_gops: 40.0,
            decode_speedup: 4.0,
        });
        inst.cells[0].decode_gops = 25.0;
        inst.cells[1].decode_gops = 25.0;
        let current = Placement {
            assignment: vec![Some(0), Some(0)],
        };
        let (new, plan) = incremental_repack(&inst, &current);
        assert!(inst.validate(&new).is_ok(), "{:?}", inst.validate(&new));
        assert_eq!(plan.len(), 1, "one decode eviction suffices: {plan:?}");
    }

    #[test]
    fn repack_composes_with_heuristic_seed() {
        // Start from an FFD placement, grow demands 20 %, repack.
        let demands: Vec<f64> = (0..20).map(|i| 15.0 + (i as f64 * 9.1) % 40.0).collect();
        let inst = PlacementInstance::uniform(&demands, 20, 100.0);
        let seed = place(&inst, Heuristic::FirstFitDecreasing);
        let grown: Vec<f64> = demands.iter().map(|d| d * 1.2).collect();
        let grown_inst = PlacementInstance::uniform(&grown, 20, 100.0);
        let (new, plan) = incremental_repack(&grown_inst, &seed.placement);
        assert!(grown_inst.validate(&new).is_ok());
        // Churn should be a small fraction of cells.
        assert!(plan.len() <= 10, "churn {} too high", plan.len());
    }

    fn accelerated(id: usize, capacity: f64, decode: f64) -> ServerSpec {
        ServerSpec {
            accelerator: Some(Accelerator {
                decode_capacity_gops: decode,
                decode_speedup: 4.0,
            }),
            ..ServerSpec::plain(id, capacity, 1.0)
        }
    }

    fn instance(gops: &[f64], servers: Vec<ServerSpec>) -> PlacementInstance {
        PlacementInstance {
            cells: gops
                .iter()
                .enumerate()
                .map(|(id, &g)| CellDemand::flat(id, g))
                .collect(),
            servers,
            allowed: Allowed::All,
        }
    }

    /// Three servers at the same load leave the same residual: the lowest
    /// id takes the cell, wherever the three sit among the others.
    #[test]
    fn equal_loads_go_to_the_lowest_id() {
        // Server 0 is too full, server 1 empty, servers 4, 2 and 3 hold
        // 40 each; the new 40-GOPS cell leaves 20 on each of those three.
        let servers = (0..5).map(|s| ServerSpec::plain(s, 100.0, 1.0)).collect();
        let inst = instance(&[70.0, 40.0, 40.0, 40.0, 40.0], servers);
        let current = Placement {
            assignment: vec![Some(0), Some(4), Some(2), Some(3), None],
        };
        let (new, plan) = incremental_repack(&inst, &current);
        assert_eq!(new.assignment[4], Some(2));
        assert_eq!(
            plan.moves,
            vec![Move {
                cell: 4,
                from: None,
                to: 2
            }]
        );
    }

    /// Loads of 1.0 and 1.0 + ε differ, but `100 − load` rounds both to
    /// 99.0, so the residuals are equal bits: the lower id wins, not the
    /// heavier server.
    #[test]
    fn residuals_equal_after_rounding_go_to_the_lower_id() {
        let heavier = 1.0 + f64::EPSILON;
        assert_eq!(100.0 - 1.0 - 50.0, 100.0 - heavier - 50.0);
        let servers = (0..2).map(|s| ServerSpec::plain(s, 100.0, 1.0)).collect();
        let inst = instance(&[1.0, heavier, 50.0], servers);
        let current = Placement {
            assignment: vec![Some(0), Some(1), None],
        };
        let (new, _) = incremental_repack(&inst, &current);
        assert_eq!(new.assignment[2], Some(0));

        // Swapped ids: the heavier server is now the lower id and wins.
        let current = Placement {
            assignment: vec![Some(1), Some(0), None],
        };
        let (new, _) = incremental_repack(&inst, &current);
        assert_eq!(new.assignment[2], Some(0));
    }

    /// A decode share no accelerator can hold sends the cell to the whole
    /// pool, where it still fits no accelerated server (no spill): only a
    /// plain server with room takes it.
    #[test]
    fn oversized_decode_share_falls_back_to_the_whole_pool() {
        let servers = vec![
            accelerated(0, 100.0, 40.0),
            ServerSpec::plain(1, 100.0, 1.0),
            accelerated(2, 100.0, 40.0),
        ];
        let mut inst = instance(&[60.0, 60.0, 50.0], servers);
        inst.cells[0].decode_gops = 50.0;
        inst.cells[1].decode_gops = 30.0;
        let current = Placement {
            assignment: vec![None, None, Some(1)],
        };
        // Cell 0 fits no accelerator and the plain server holds 50: it
        // stays out. Cell 1's share fits: servers 0 and 2 leave the same
        // 70, so server 0 takes it.
        let (new, _) = incremental_repack(&inst, &current);
        assert_eq!(new.assignment, vec![None, Some(0), Some(1)]);

        // With 70 free on the plain server, cell 0 falls back to it.
        inst.cells[2].gops = 30.0;
        let (new, _) = incremental_repack(&inst, &current);
        assert_eq!(new.assignment, vec![Some(1), Some(0), Some(1)]);
    }

    /// Equal demands keep their order through the decreasing-demand sort:
    /// the unplaced cell first, then the evictees in server order, each
    /// taking the tightest of three gaps in turn.
    #[test]
    fn equal_demand_evictees_are_placed_in_stable_order() {
        // Servers 0 and 1 are overloaded (60 + 50 each) and each sheds
        // its lighter cell (1, then 3); cell 4 was unplaced. The three
        // 50s go, in the order [4, 1, 3], to the gaps of 50 (server 2),
        // 55 (server 3) and 60 (server 4).
        let servers = (0..5).map(|s| ServerSpec::plain(s, 100.0, 1.0)).collect();
        let inst = instance(&[60.0, 50.0, 60.0, 50.0, 50.0, 50.0, 45.0, 40.0], servers);
        let current = Placement {
            assignment: vec![
                Some(0),
                Some(0),
                Some(1),
                Some(1),
                None,
                Some(2),
                Some(3),
                Some(4),
            ],
        };
        let (new, plan) = incremental_repack(&inst, &current);
        assert_eq!(
            new.assignment,
            vec![
                Some(0),
                Some(3),
                Some(1),
                Some(4),
                Some(2),
                Some(2),
                Some(3),
                Some(4)
            ]
        );
        assert_eq!(plan.len(), 3);
    }

    #[test]
    fn key_follows_total_order() {
        let values = [
            f64::NEG_INFINITY,
            -1e300,
            -1.0,
            -1e-14,
            -f64::MIN_POSITIVE,
            -5e-324,
            -0.0,
            0.0,
            5e-324,
            1e-14,
            1.0,
            1.0 + f64::EPSILON,
            1e300,
            f64::INFINITY,
        ];
        for pair in values.windows(2) {
            assert!(key(pair[0]) < key(pair[1]), "{pair:?}");
        }
        for v in values {
            assert_eq!(unkey(key(v)).to_bits(), v.to_bits());
        }
        for s in [0, 1, 7, 1 << 20] {
            let e = entry(-1e-14, s);
            assert_eq!((value(e), tag(e)), (-1e-14, s));
        }
    }

    /// `repack` as it was written before the index: every re-placed cell
    /// scans every server, every overloaded server scans every cell. The
    /// oracle the index is held to.
    fn scan_repack(
        cells: &[CellDemand],
        servers: &[ServerSpec],
        allowed: &Allowed,
        current: &Placement,
    ) -> (Placement, MigrationPlan) {
        let mut assignment = current.assignment.clone();
        for (cell, slot) in assignment.iter_mut().enumerate() {
            if let Some(s) = *slot {
                if s >= servers.len() || !allowed.is_allowed(cell, s) {
                    *slot = None;
                }
            }
        }
        let mut load = vec![ServerLoad::default(); servers.len()];
        for (cell, slot) in assignment.iter().enumerate() {
            if let Some(s) = slot {
                let l = servers[*s].load_of(&cells[cell]);
                load[*s].general += l.general;
                load[*s].decode += l.decode;
            }
        }
        let mut to_place: Vec<usize> = assignment
            .iter()
            .enumerate()
            .filter_map(|(c, a)| a.is_none().then_some(c))
            .collect();
        for s in 0..servers.len() {
            if servers[s].fits_load(load[s]) {
                continue;
            }
            let mut resident: Vec<usize> = assignment
                .iter()
                .enumerate()
                .filter_map(|(c, a)| (*a == Some(s)).then_some(c))
                .collect();
            resident.sort_by(|&a, &b| {
                cells[a]
                    .gops
                    .partial_cmp(&cells[b].gops)
                    .unwrap_or(std::cmp::Ordering::Equal)
                    .then(a.cmp(&b))
            });
            for cell in resident {
                if servers[s].fits_load(load[s]) {
                    break;
                }
                let l = servers[s].load_of(&cells[cell]);
                load[s].general -= l.general;
                load[s].decode -= l.decode;
                assignment[cell] = None;
                to_place.push(cell);
            }
        }
        to_place.sort_by(|&a, &b| {
            cells[b]
                .gops
                .partial_cmp(&cells[a].gops)
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        let has_accel = servers.iter().any(|s| s.accelerator.is_some());
        for cell in to_place {
            let demand = cells[cell];
            let row = allowed.row(cell);
            let best_fit = |accel_only: bool, load: &[ServerLoad]| {
                (0..servers.len())
                    .filter(|&s| {
                        let spec = &servers[s];
                        let l = spec.load_of(&demand);
                        (!accel_only || spec.accelerator.is_some())
                            && row.allows(s)
                            && spec.fits_load(ServerLoad {
                                general: load[s].general + l.general,
                                decode: load[s].decode + l.decode,
                            })
                    })
                    .min_by(|&a, &b| {
                        let ra = servers[a].capacity_gops
                            - load[a].general
                            - servers[a].load_of(&demand).general;
                        let rb = servers[b].capacity_gops
                            - load[b].general
                            - servers[b].load_of(&demand).general;
                        ra.partial_cmp(&rb).unwrap_or(std::cmp::Ordering::Equal)
                    })
            };
            let target = if has_accel && demand.decode_gops > 0.0 {
                best_fit(true, &load).or_else(|| best_fit(false, &load))
            } else {
                best_fit(false, &load)
            };
            if let Some(s) = target {
                let l = servers[s].load_of(&demand);
                load[s].general += l.general;
                load[s].decode += l.decode;
                assignment[cell] = Some(s);
            }
        }
        let new = Placement { assignment };
        let plan = diff(current, &new);
        (new, plan)
    }

    /// One random repack input. Every case mixes two capacities, plain and
    /// accelerated servers, and one of four mask shapes; its demands are
    /// drawn one of four ways:
    /// - quantized to 5 GOPS, so residuals tie exactly;
    /// - continuous, with cells past capacity stacked on a few servers,
    ///   whose eviction leaves float dust, negative as often as not;
    /// - at the fit boundary: a cell's demand is `capacity·(1 + 1e-9) −
    ///   load` of some server, give or take a few ulps;
    /// - a handful of cells over many empty servers.
    fn random_case(rng: &mut SmallRng) -> (PlacementInstance, Placement) {
        let specs = [
            ServerSpec::plain(0, 100.0, 1.0),
            ServerSpec::plain(0, 160.0, 1.0),
            accelerated(0, 100.0, 40.0),
            accelerated(0, 160.0, 25.0),
        ];
        let shape = rng.gen_range(0..4u32);
        let n_servers = if shape == 3 {
            rng.gen_range(8..=40usize)
        } else {
            rng.gen_range(1..=12usize)
        };
        let n_cells = if shape == 3 {
            rng.gen_range(1..=4usize)
        } else {
            rng.gen_range(0..=24usize)
        };
        let kinds = rng.gen_range(1..=specs.len());
        let servers: Vec<ServerSpec> = (0..n_servers)
            .map(|id| ServerSpec {
                id,
                ..specs[rng.gen_range(0..kinds)]
            })
            .collect();
        let host = |rng: &mut SmallRng| rng.gen_range(0..n_servers.min(3));
        let mut assignment = vec![None; n_cells];
        let mut cells: Vec<CellDemand> = Vec::with_capacity(n_cells);
        for (id, slot) in assignment.iter_mut().enumerate() {
            let gops = match shape {
                0 => 5.0 * rng.gen_range(1..=24u32) as f64,
                1 if rng.gen_bool(0.15) => rng.gen_range(100.0..200.0),
                _ => rng.gen_range(0.5..60.0),
            };
            let decode_gops = match rng.gen_range(0..4u32) {
                0 => 0.0,
                1 if shape == 0 => 5.0 * (gops / 5.0 * rng.gen_range(0.0..1.0f64)).floor(),
                _ => gops * rng.gen_range(0.0..1.0),
            };
            *slot = match shape {
                1 => rng.gen_bool(0.8).then(|| host(rng)),
                2 => (id % 2 == 0 && id / 2 < n_servers).then_some(id / 2),
                _ => rng.gen_bool(0.5).then(|| rng.gen_range(0..n_servers)),
            };
            cells.push(CellDemand {
                id,
                gops,
                decode_gops,
            });
        }
        if shape == 2 {
            // Odd cells land just inside or outside some server's room.
            for cell in (1..n_cells).step_by(2) {
                let s = rng.gen_range(0..n_servers);
                let spec = &servers[s];
                let held: f64 = (0..n_cells)
                    .filter(|&c| assignment[c] == Some(s))
                    .map(|c| spec.load_of(&cells[c]).general)
                    .sum();
                let room = spec.capacity_gops * (1.0 + ServerSpec::FIT_TOLERANCE) - held;
                let mut gops = room.max(0.0);
                for _ in 0..rng.gen_range(0..4u32) {
                    gops = if rng.gen_bool(0.5) {
                        f64::from_bits(gops.to_bits() + 1)
                    } else {
                        f64::from_bits(gops.to_bits().saturating_sub(1))
                    };
                }
                cells[cell].gops = gops;
                cells[cell].decode_gops = 0.0;
            }
        }
        let allowed = match rng.gen_range(0..4u32) {
            0 => Allowed::All,
            1 => Allowed::Uniform((0..n_servers).map(|_| rng.gen_bool(0.8)).collect()),
            2 => Allowed::PerCell(
                (0..n_cells)
                    .map(|_| (0..n_servers).map(|_| rng.gen_bool(0.7)).collect())
                    .collect(),
            ),
            _ => Allowed::Product(Box::new(ProductMask {
                cells: (0..n_cells).map(|_| rng.gen_bool(0.9)).collect(),
                servers: (0..n_servers).map(|_| rng.gen_bool(0.85)).collect(),
                reach: rng.gen_bool(0.5).then(|| {
                    let rows: Vec<Vec<bool>> = (0..3)
                        .map(|_| (0..n_servers).map(|_| rng.gen_bool(0.7)).collect())
                        .collect();
                    Reachability::from_rows(
                        (0..n_cells).map(|_| rows[rng.gen_range(0..3usize)].clone()),
                    )
                }),
            })),
        };
        (
            PlacementInstance {
                cells,
                servers,
                allowed,
            },
            Placement { assignment },
        )
    }

    /// The index picks what the scan picks: the same placement and plan,
    /// bit for bit, on 20,000 random inputs.
    #[test]
    fn index_matches_the_scan() {
        let mut rng = SmallRng::seed_from_u64(35);
        let mut moved = 0;
        for case in 0..20_000 {
            let (inst, current) = random_case(&mut rng);
            let got = incremental_repack(&inst, &current);
            let want = scan_repack(&inst.cells, &inst.servers, &inst.allowed, &current);
            assert_eq!(got, want, "case {case}: {inst:?} from {current:?}");
            moved += got.1.len();
        }
        assert!(moved > 50_000, "the cases barely move anything: {moved}");
    }
}
