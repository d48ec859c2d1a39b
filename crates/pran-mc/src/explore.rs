//! The exhaustive explorer: breadth-first enumeration of every
//! operation interleaving up to a depth bound, with canonical-state
//! deduplication and per-transition invariant checks.
//!
//! ## Why deduplication is exact, and symmetry is a *diagnostic*
//!
//! The textbook move for a pool of identical servers is to prune modulo
//! server permutations. That is only sound when the transition relation
//! commutes with the permutation group — and here it does not:
//! `incremental_repack` and [`pran::apps::FailoverApp`] break best-fit
//! and eviction ties by *id order*, so two states that differ only by a
//! server relabelling can evolve to states that are not relabellings of
//! each other (the tie falls the other way). The
//! `tie_breaking_breaks_server_symmetry` test below exhibits this on a
//! three-server instance. Pruning by symmetry would therefore silently
//! skip reachable states, which is disqualifying for a checker whose
//! headline claim is the word "every".
//!
//! So: dedup hashes the *exact* canonical byte encoding of a state
//! (sound unconditionally — identical states have identical futures,
//! and BFS reaches every state at its minimal depth first, maximising
//! the residual depth explored from it), while the symmetry-reduced
//! orbit count under server permutations is computed on the side and
//! reported as [`McReport::orbit_states`] — a measure of how much
//! smaller the space *looks* modulo relabelling, and of how much of the
//! state count is tie-breaking echo. Both keys are encoded into reused
//! buffers, so a transition allocates a key only when it discovers a
//! state.
//!
//! ## The discovery tree
//!
//! Each discovered state is recorded once, as the state it was first
//! reached from plus one operation; a state's path is rebuilt from them
//! only where a report needs one. Under [`Conformance::Every`] the
//! concrete controller is carried down that tree on the host's cores,
//! rather than replayed from the root for each state: a state reached by
//! an operation the controller never hears of shares its parent's
//! controller and drill verdict, and each other state forks its parent's.
//! The verdicts merge in discovery order, so the report does not depend
//! on the core count.

use std::collections::{BTreeMap, HashSet, VecDeque};
use std::num::NonZeroUsize;
use std::ops::Range;
use std::thread;
use std::time::Duration;

use pran::PoolView;
use pran_chaos::{InvariantChecker, InvariantKind, Violation};

use crate::conformance::{check_tree, Conformance};
use crate::model::{Model, Operation, StateView, StepOutcome};

/// Cap on fully-recorded violations (counts are always complete).
const MAX_RECORDED: usize = 32;

/// One invariant violation found during exploration, with the schedule
/// that produces it. BFS order makes the first recorded violation
/// minimal-depth.
#[derive(Debug, Clone)]
pub struct McViolation {
    /// Which invariant broke.
    pub kind: InvariantKind,
    /// Operations from the initial state up to and including the
    /// violating transition.
    pub path: Vec<Operation>,
    /// Human-readable specifics (cell/server ids, measured vs bound).
    pub detail: String,
}

impl McViolation {
    /// The schedule as a compact arrow-joined string for reports.
    pub fn schedule(&self) -> String {
        self.path
            .iter()
            .map(|op| op.to_string())
            .collect::<Vec<_>>()
            .join(" → ")
    }
}

/// What an exploration found.
#[derive(Debug, Clone)]
pub struct McReport {
    /// Semantics label (`linearizable` / `stale_k`).
    pub semantics: String,
    /// Depth bound the exploration ran to.
    pub depth: usize,
    /// Unique states discovered (including the initial state).
    pub states: usize,
    /// Transitions explored (each unique state × each enabled op).
    pub transitions: usize,
    /// Transitions that landed on an already-seen state.
    pub dedup_hits: usize,
    /// States modulo server permutations (diagnostic; see module docs).
    pub orbit_states: usize,
    /// Complete violation tally per invariant label.
    pub violation_counts: BTreeMap<&'static str, usize>,
    /// Recorded violations (first `MAX_RECORDED`; minimal-depth first).
    pub violations: Vec<McViolation>,
    /// Discovered states checked against the concrete controller, the
    /// initial one excluded.
    pub conformance_checked: usize,
    /// Divergences between model and controller (must be empty).
    pub conformance_failures: Vec<String>,
}

impl McReport {
    /// Fraction of explored transitions that were duplicates — the
    /// interleaving collapse the canonical hashing bought.
    pub fn dedup_ratio(&self) -> f64 {
        if self.transitions == 0 {
            0.0
        } else {
            self.dedup_hits as f64 / self.transitions as f64
        }
    }

    /// Total violations across all kinds.
    pub fn total_violations(&self) -> usize {
        self.violation_counts.values().sum()
    }

    /// No violations and no conformance divergence.
    pub fn ok(&self) -> bool {
        self.total_violations() == 0 && self.conformance_failures.is_empty()
    }
}

/// The discovery tree: every state [`explore`] discovered, as the state
/// it was first reached from and the operation that reached it. Ids are
/// discovery order: 0 is the initial state, and state `id > 0` is entry
/// `id - 1`. BFS appends each state's children together and expands
/// states in id order, so parents never decrease along the entries and
/// each state's children are one contiguous run of ids.
#[derive(Debug, Default)]
pub(crate) struct Tree(Vec<(u32, Operation)>);

impl Tree {
    /// Record a state reached from `parent` by `op`; returns its id.
    fn push(&mut self, parent: u32, op: Operation) -> u32 {
        self.0.push((parent, op));
        u32::try_from(self.0.len()).expect("fewer than 2^32 states")
    }

    /// Discovered states, the initial one excluded.
    pub(crate) fn len(&self) -> usize {
        self.0.len()
    }

    /// The operation that first reached state `id > 0`.
    pub(crate) fn op(&self, id: u32) -> Operation {
        self.0[id as usize - 1].1
    }

    /// The ids of `id`'s children.
    pub(crate) fn children(&self, id: u32) -> Range<u32> {
        let start = self.0.partition_point(|&(parent, _)| parent < id);
        let end = self.0.partition_point(|&(parent, _)| parent <= id);
        start as u32 + 1..end as u32 + 1
    }

    /// The operations from the initial state to state `id`.
    pub(crate) fn path(&self, mut id: u32) -> Vec<Operation> {
        let mut path = Vec::new();
        while id > 0 {
            let (parent, op) = self.0[id as usize - 1];
            path.push(op);
            id = parent;
        }
        path.reverse();
        path
    }
}

/// Exact canonical byte encoding of a state under a server relabelling
/// `perm` (`perm[old_id] = new_id`), written over `buf`. The identity
/// permutation gives the dedup key; minimising over all permutations
/// gives the orbit key ([`orbit_key_into`]).
fn encode_into(state: &StateView, perm: &[usize], buf: &mut Vec<u8>) {
    let n = perm.len();
    buf.clear();
    for c in &state.cells {
        buf.push(u8::from(c.active));
        buf.push(c.last.map_or(0, |l| l + 1));
        buf.push(c.peak.map_or(0, |p| p + 1));
    }
    for p in &state.placement {
        buf.push(p.map_or(0, |s| perm[s] as u8 + 1));
    }
    // `believed`, then `truth`, each indexed by relabelled server id.
    let believed = buf.len();
    let truth = believed + n;
    buf.resize(truth + n, 0);
    for (s, &to) in perm.iter().enumerate() {
        buf[believed + to] = u8::from(state.believed[s]);
        buf[truth + to] = u8::from(state.truth[s]);
    }
    for notice in &state.pending {
        buf.push(perm[notice.server] as u8);
        buf.push(u8::from(notice.up));
        // Ages are bounded by the staleness bound k (delivery is forced
        // at age k), which McConfig validation keeps under 255.
        buf.push(notice.age.min(u32::from(u8::MAX)) as u8);
    }
}

/// All permutations of `0..n` (n ≤ 5 enforced by `Model::new`).
pub(crate) fn permutations(n: usize) -> Vec<Vec<usize>> {
    let mut out = Vec::new();
    let mut items: Vec<usize> = (0..n).collect();
    heap_permute(&mut items, n, &mut out);
    out
}

fn heap_permute(items: &mut Vec<usize>, k: usize, out: &mut Vec<Vec<usize>>) {
    if k <= 1 {
        out.push(items.clone());
        return;
    }
    for i in 0..k {
        heap_permute(items, k - 1, out);
        if k.is_multiple_of(2) {
            items.swap(i, k - 1);
        } else {
            items.swap(0, k - 1);
        }
    }
}

/// Lexicographically minimal encoding over all server relabellings,
/// written over `best`; `probe` is scratch.
fn orbit_key_into(
    state: &StateView,
    perms: &[Vec<usize>],
    best: &mut Vec<u8>,
    probe: &mut Vec<u8>,
) {
    let (first, rest) = perms
        .split_first()
        .expect("at least the identity permutation");
    encode_into(state, first, best);
    for perm in rest {
        encode_into(state, perm, probe);
        if probe < best {
            std::mem::swap(best, probe);
        }
    }
}

/// Invariant checks on one transition's outcome, judged against
/// *physical truth* (not the controller's belief — that gap is the whole
/// point of the stale-view experiment). The checks are the chaos
/// harness's own [`InvariantChecker`], so any violation found here
/// reads as `pran_chaos::run_scenario` reports it:
///
/// * after an `Epoch`: [`InvariantChecker::check_view`] on the model's
///   view (refilled into `view`) and its truth, then the unserved-demand
///   fraction of the active cells — the model's proxy for the
///   deadline-miss ratio, as it has no data plane — within
///   the system's `slo.miss_ratio_max`;
/// * on any transition that displaced cells: each cell's outage, by
///   [`InvariantChecker::check_outage`].
///
/// The violations are left in `checker`; the model keeps no clock, so
/// each is stamped at zero.
fn check_transition(
    model: &Model,
    op: Operation,
    outcome: &StepOutcome,
    checker: &mut InvariantChecker,
    view: &mut PoolView,
) {
    let at = Duration::ZERO;
    if op == Operation::Epoch {
        model.view_into(&outcome.next, view);
        checker.check_view(at, view, &outcome.next.truth);
        let (mut total, mut unserved) = (0.0f64, 0.0f64);
        for cell in view.cells.iter().filter(|c| c.active) {
            total += cell.predicted_gops;
            if cell.server.is_none() {
                unserved += cell.predicted_gops;
            }
        }
        let bound = model.config().sys.slo.miss_ratio_max;
        if total > 0.0 && unserved / total > bound {
            checker.flag(
                InvariantKind::MissRatioExceeded,
                at,
                format!(
                    "unserved demand fraction {:.4} exceeds miss-ratio bound {bound:.4}",
                    unserved / total
                ),
            );
        }
    }
    for &(cell, outage) in &outcome.outages {
        checker.check_outage(at, cell, outage);
    }
}

/// Breadth-first exhaustive exploration of `model` up to its configured
/// depth, with invariant checks on every transition and, under
/// [`Conformance::Every`], every discovered state checked against a
/// concrete controller carried down the discovery tree on the host's
/// cores.
pub fn explore(model: &Model) -> McReport {
    explore_on(
        model,
        thread::available_parallelism().map_or(1, NonZeroUsize::get),
    )
}

/// [`explore`] with the conformance walk on `workers` threads; the
/// report does not depend on `workers`.
fn explore_on(model: &Model, workers: usize) -> McReport {
    let (mut report, tree) = explore_tree(model);
    if model.config().conformance == Conformance::Every {
        report.conformance_checked = tree.len();
        report.conformance_failures = check_tree(model, &tree, workers).0;
    }
    report
}

/// The exploration without its conformance checks, and the discovery
/// tree they walk.
fn explore_tree(model: &Model) -> (McReport, Tree) {
    let cfg = model.config();
    let perms = permutations(cfg.servers);
    let mut report = McReport {
        semantics: cfg.semantics.label(),
        depth: cfg.depth,
        states: 0,
        transitions: 0,
        dedup_hits: 0,
        orbit_states: 0,
        violation_counts: BTreeMap::new(),
        violations: Vec::new(),
        conformance_checked: 0,
        conformance_failures: Vec::new(),
    };
    for kind in InvariantKind::all() {
        report.violation_counts.insert(kind.label(), 0);
    }

    let mut seen: HashSet<Vec<u8>> = HashSet::new();
    let mut orbits: HashSet<Vec<u8>> = HashSet::new();
    let identity: Vec<usize> = (0..cfg.servers).collect();
    let (mut key, mut orbit, mut probe) = (Vec::new(), Vec::new(), Vec::new());
    // Record `state` and its orbit; false if it was seen before. The keys
    // are encoded into reused buffers, so only a new key allocates.
    let mut discover = |state: &StateView| {
        encode_into(state, &identity, &mut key);
        if seen.contains(key.as_slice()) {
            return false;
        }
        seen.insert(key.clone());
        orbit_key_into(state, &perms, &mut orbit, &mut probe);
        if !orbits.contains(orbit.as_slice()) {
            orbits.insert(orbit.clone());
        }
        true
    };
    let initial = model.initial_state();
    discover(&initial);
    let mut tree = Tree::default();
    let mut checker = InvariantChecker::new(cfg.sys.slo);
    let mut view = PoolView::default();
    // (state, its id in `tree`, its depth)
    let mut queue: VecDeque<(StateView, u32, usize)> = VecDeque::new();
    if cfg.depth > 0 {
        queue.push_back((initial, 0, 0));
    }

    // Every queued state is expanded: one found at the depth bound is
    // counted and checked, never queued.
    while let Some((state, node, depth)) = queue.pop_front() {
        for op in model.enabled_ops(&state) {
            let outcome = model.apply(&state, op);
            report.transitions += 1;
            check_transition(model, op, &outcome, &mut checker, &mut view);
            for Violation { kind, detail, .. } in checker.take_violations() {
                *report.violation_counts.entry(kind.label()).or_insert(0) += 1;
                if report.violations.len() < MAX_RECORDED {
                    let mut path = tree.path(node);
                    path.push(op);
                    report.violations.push(McViolation { kind, path, detail });
                }
            }
            if !discover(&outcome.next) {
                report.dedup_hits += 1;
                continue;
            }
            let child = tree.push(node, op);
            if depth + 1 < cfg.depth {
                queue.push_back((outcome.next, child, depth + 1));
            }
        }
    }
    report.states = seen.len();
    report.orbit_states = orbits.len();
    (report, tree)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::conformance::replay_path;
    use crate::model::{McCell, McConfig};
    use crate::view::{OpMix, ViewSemantics};
    use pran::SystemConfig;

    /// The key oracle: `state`'s encoding under `perm`, into a fresh
    /// buffer through two temporary liveness vectors.
    fn encode(state: &StateView, perm: &[usize]) -> Vec<u8> {
        let n = perm.len();
        let mut buf = Vec::new();
        for c in &state.cells {
            buf.push(u8::from(c.active));
            buf.push(c.last.map_or(0, |l| l + 1));
            buf.push(c.peak.map_or(0, |p| p + 1));
        }
        for p in &state.placement {
            buf.push(p.map_or(0, |s| perm[s] as u8 + 1));
        }
        let mut believed = vec![0u8; n];
        let mut truth = vec![0u8; n];
        for s in 0..n {
            believed[perm[s]] = u8::from(state.believed[s]);
            truth[perm[s]] = u8::from(state.truth[s]);
        }
        buf.extend_from_slice(&believed);
        buf.extend_from_slice(&truth);
        for notice in &state.pending {
            buf.push(perm[notice.server] as u8);
            buf.push(u8::from(notice.up));
            buf.push(notice.age.min(u32::from(u8::MAX)) as u8);
        }
        buf
    }

    /// The orbit-key oracle: the minimal fresh encoding.
    fn orbit_key(s: &StateView, perms: &[Vec<usize>]) -> Vec<u8> {
        perms.iter().map(|p| encode(s, p)).min().unwrap()
    }

    fn tiny(semantics: ViewSemantics, depth: usize) -> Model {
        Model::new(McConfig {
            sys: SystemConfig::default_eval(2),
            cells: 2,
            servers: 2,
            levels: vec![0.5],
            semantics,
            depth,
            mix: OpMix::default(),
            max_down: 1,
            churn_extra: 0,
            conformance: Conformance::Every,
        })
    }

    #[test]
    fn linearizable_tiny_instance_is_clean() {
        let report = explore(&tiny(ViewSemantics::Linearizable, 4));
        assert!(report.ok(), "violations: {:?}", report.violations);
        assert!(report.states > 1);
        assert!(report.dedup_hits > 0, "interleavings must collapse");
        assert!(report.conformance_checked > 0);
        assert!(report.orbit_states <= report.states);
    }

    #[test]
    fn stale_tiny_instance_finds_the_stale_placement_hazard() {
        let report = explore(&tiny(ViewSemantics::Stale { k: 2 }, 4));
        assert!(
            report.violation_counts[InvariantKind::PlacementValid.label()] > 0,
            "a silent crash followed by an epoch must strand a cell: {:?}",
            report.violation_counts
        );
        assert!(
            report.conformance_failures.is_empty(),
            "{:?}",
            report.conformance_failures
        );
        // BFS: the first recorded counterexample is minimal.
        let first = &report.violations[0];
        assert!(first.path.len() <= 4);
        assert!(first.path.contains(&Operation::Epoch));
    }

    #[test]
    fn deeper_exploration_dominates_shallower() {
        let shallow = explore(&tiny(ViewSemantics::Linearizable, 3));
        let deep = explore(&tiny(ViewSemantics::Linearizable, 4));
        assert!(deep.states >= shallow.states);
        assert!(deep.transitions > shallow.transitions);
    }

    /// The reason dedup does not prune modulo server permutations: id-order
    /// tie-breaking makes the transition relation non-equivariant. Two
    /// states that are exact relabellings of each other evolve, under the
    /// *same* operation, into states that are not relabellings of each
    /// other — best-fit resolves the residual tie toward the lower id in
    /// both, and the hosted cells differ.
    #[test]
    fn tie_breaking_breaks_server_symmetry() {
        let model = Model::new(McConfig {
            sys: SystemConfig::default_eval(3),
            cells: 3,
            servers: 3,
            levels: vec![0.5],
            semantics: ViewSemantics::Linearizable,
            depth: 6,
            mix: OpMix::default(),
            max_down: 1,
            churn_extra: 0,
            conformance: Conformance::Off,
        });
        // Cells 0 and 1 identical (reported, placed apart); cell 2 fresh.
        let mut a = model.initial_state();
        for c in 0..2 {
            a.cells[c] = McCell {
                active: true,
                last: Some(0),
                peak: Some(0),
            };
        }
        a.placement = vec![Some(0), Some(1), None];
        let mut b = a.clone();
        b.placement = vec![Some(1), Some(0), None]; // swap servers 0↔1
        let perms = permutations(3);
        assert_eq!(orbit_key(&a, &perms), orbit_key(&b, &perms), "same orbit");
        let a2 = model.apply(&a, Operation::Epoch).next;
        let b2 = model.apply(&b, Operation::Epoch).next;
        assert_ne!(
            orbit_key(&a2, &perms),
            orbit_key(&b2, &perms),
            "successors land in different orbits: cell 2 joins whichever \
             identical-looking server wins the id tie-break, and the cell \
             it now shares a server with differs"
        );
    }

    /// The buffered keys are byte for byte the fresh encodings, so the
    /// dedup and orbit counts cannot move.
    #[test]
    fn buffered_keys_match_fresh_encodings() {
        let model = Model::new(McConfig {
            depth: 6,
            ..McConfig::headline_stale(2)
        });
        let (_, tree) = explore_tree(&model);
        let mut states = vec![model.initial_state()];
        for &(parent, op) in &tree.0 {
            states.push(model.apply(&states[parent as usize], op).next);
        }
        let perms = permutations(model.config().servers);
        let (mut key, mut orbit, mut probe) = (Vec::new(), Vec::new(), Vec::new());
        for s in states {
            for perm in &perms {
                encode_into(&s, perm, &mut key);
                assert_eq!(key, encode(&s, perm), "{s:?} under {perm:?}");
            }
            orbit_key_into(&s, &perms, &mut orbit, &mut probe);
            assert_eq!(orbit, orbit_key(&s, &perms), "{s:?}");
        }
    }

    /// The tree walk's verdict on every discovered state is
    /// [`replay_path`]'s on that state's path from the root. The stale
    /// instances hold the states that share a parent's controller and
    /// drill verdict to it.
    #[test]
    fn the_tree_walk_agrees_with_per_path_replay() {
        let at_depth_5 = |cfg: McConfig| McConfig { depth: 5, ..cfg };
        let stale_churn = McConfig {
            semantics: ViewSemantics::Stale { k: 2 },
            ..McConfig::churn()
        };
        for cfg in [
            at_depth_5(McConfig::headline()),
            at_depth_5(McConfig::headline_stale(1)),
            at_depth_5(McConfig::headline_stale(2)),
            at_depth_5(McConfig::headline_stale(3)),
            McConfig::churn(),
            stale_churn,
        ] {
            let model = Model::new(cfg);
            let (_, tree) = explore_tree(&model);
            assert!(tree.len() > 100);
            let replayed: Vec<String> = (1..=tree.len() as u32)
                .filter_map(|id| replay_path(&model, &tree.path(id)).err())
                .collect();
            assert_eq!(check_tree(&model, &tree, 2).0, replayed);
        }
    }

    /// Each controller object is round-tripped once. Under stale views a
    /// state reached by `Fail` or `Recover` shares its parent's
    /// controller, unless it is a work item (depth ≤ 2), which is reached
    /// fresh; under linearizable views every state has its own.
    #[test]
    fn each_controller_is_round_tripped_once() {
        for (cfg, pinned) in [
            // Every state checked.
            (McConfig::headline(), 6_037),
            // 16,993 states reached by a driven operation, 33 work items
            // reached by a physical-only one; 18,889 share a controller.
            (McConfig::headline_stale(2), 17_026),
        ] {
            let stale = cfg.semantics != ViewSemantics::Linearizable;
            let model = Model::new(McConfig { depth: 8, ..cfg });
            let (_, tree) = explore_tree(&model);
            let own = (1..=tree.len() as u32)
                .filter(|&id| {
                    let physical = matches!(
                        tree.op(id),
                        Operation::Fail { .. } | Operation::Recover { .. }
                    );
                    !(stale && physical) || tree.path(id).len() <= 2
                })
                .count();
            let (failures, round_trips) = check_tree(&model, &tree, 2);
            assert!(failures.is_empty(), "{failures:?}");
            assert_eq!(round_trips, own);
            assert_eq!(round_trips, pinned);
        }
    }

    /// A step-level divergence poisons its subtree with the message each
    /// descendant's own replay stops at; the walk and the per-path replay
    /// agree element for element, whether the step fails inside a work
    /// item's prefix or below the cut.
    #[test]
    fn a_failed_step_poisons_its_subtree_as_replay_would() {
        let model = Model::new(McConfig::headline());
        let report = Operation::Report { cell: 0, level: 1 };
        // `Deliver` has no backlog to deliver under linearizable views.
        let mut tree = Tree::default();
        for (parent, op) in [
            (0, report),                                  // 1
            (0, Operation::Deliver),                      // 2: fails at step 0
            (1, Operation::Epoch),                        // 3
            (2, Operation::Epoch),                        // 4
            (2, Operation::Report { cell: 1, level: 0 }), // 5
            (3, Operation::Deliver),                      // 6: fails at step 2
            (3, Operation::Epoch),                        // 7
            (4, Operation::Epoch),                        // 8
            (6, Operation::Epoch),                        // 9
        ] {
            tree.push(parent, op);
        }
        let expected: Vec<String> = (1..=tree.len() as u32)
            .filter_map(|id| replay_path(&model, &tree.path(id)).err())
            .collect();
        assert_eq!(expected.len(), 6, "{expected:?}");
        for workers in [1, 2, 5] {
            assert_eq!(check_tree(&model, &tree, workers).0, expected);
        }
    }

    #[test]
    fn the_report_does_not_depend_on_the_worker_count() {
        let mut cfg = McConfig::headline_stale(2);
        cfg.depth = 5;
        let model = Model::new(cfg);
        let one = format!("{:?}", explore_on(&model, 1));
        for workers in [2, 3, 7] {
            assert_eq!(format!("{:?}", explore_on(&model, workers)), one);
        }
    }

    #[test]
    fn outage_bound_violations_are_flagged() {
        // Zero outage budget: every crash that displaces a placed cell
        // must be flagged, even under linearizable views.
        let mut model_cfg = McConfig {
            sys: SystemConfig::default_eval(2),
            cells: 2,
            servers: 2,
            levels: vec![0.5],
            semantics: ViewSemantics::Linearizable,
            depth: 3,
            mix: OpMix::default(),
            max_down: 1,
            churn_extra: 0,
            conformance: Conformance::Off,
        };
        model_cfg.sys.slo.outage_p99_max = Duration::ZERO;
        let report = explore(&Model::new(model_cfg));
        assert!(report.violation_counts[InvariantKind::OutageExceeded.label()] > 0);
    }
}
