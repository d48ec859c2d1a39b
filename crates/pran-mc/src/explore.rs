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
//! state count is tie-breaking echo.

use std::collections::{BTreeMap, HashSet, VecDeque};

use pran_chaos::InvariantKind;
use pran_sched::placement::ServerSpec;

use crate::conformance::replay_path;
use crate::model::{Model, Operation, StateView};

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
    /// Paths replayed against the concrete controller.
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

/// Exact canonical byte encoding of a state under a server relabelling
/// `perm` (`perm[old_id] = new_id`). The identity permutation gives the
/// dedup key; minimising over all permutations gives the orbit key.
fn encode(state: &StateView, perm: &[usize]) -> Vec<u8> {
    let n = perm.len();
    let mut buf = Vec::with_capacity(state.cells.len() * 4 + n * 2 + state.pending.len() * 3 + 4);
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
        // Ages are bounded by the staleness bound k (delivery is forced
        // at age k), which McConfig validation keeps under 255.
        buf.push(notice.age.min(u32::from(u8::MAX)) as u8);
    }
    buf
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

/// Lexicographically minimal encoding over all server relabellings.
fn orbit_key(state: &StateView, perms: &[Vec<usize>]) -> Vec<u8> {
    perms
        .iter()
        .map(|perm| encode(state, perm))
        .min()
        .expect("at least the identity permutation")
}

/// Invariant checks on one transition's outcome, judged against
/// *physical truth* (not the controller's belief — that gap is the whole
/// point of the stale-view experiment). Checks mirror the chaos
/// harness's epoch-boundary checks so that any violation found here is
/// reproducible through `pran_chaos::run_scenario`:
///
/// * after an `Epoch`: every active cell placed, no cell on a
///   truth-dead server, per-server load within [`ServerSpec::fits`]'s
///   tolerance, and the unserved-demand fraction (the model's proxy for
///   the deadline-miss ratio) within `miss_ratio_bound`;
/// * on any transition that displaced cells: each cell's outage within
///   `outage_bound`.
fn check_transition(
    model: &Model,
    op: Operation,
    next: &StateView,
) -> Vec<(InvariantKind, String)> {
    let mut found = Vec::new();
    let bounds = &model.config().sys.chaos;
    if op == Operation::Epoch {
        let mut loads = vec![0.0f64; next.truth.len()];
        let mut total = 0.0f64;
        let mut unserved = 0.0f64;
        for (cell, c) in next.cells.iter().enumerate() {
            if !c.active {
                continue;
            }
            let demand = model.predicted(next, cell);
            total += demand;
            match next.placement[cell] {
                None => {
                    unserved += demand;
                    found.push((
                        InvariantKind::PlacementValid,
                        format!("cell {cell} unplaced at epoch check"),
                    ));
                }
                Some(s) => {
                    loads[s] += demand;
                    if !next.truth[s] {
                        found.push((
                            InvariantKind::PlacementValid,
                            format!("cell {cell} placed on dead server {s} (stale view)"),
                        ));
                    }
                }
            }
        }
        for (s, &load) in loads.iter().enumerate() {
            let spec = ServerSpec::plain(s, model.config().sys.pool.capacity_gops, 1.0);
            if !spec.fits(load) {
                found.push((
                    InvariantKind::CapacityBound,
                    format!(
                        "server {s} loaded {load:.1} GOPS over {:.1} GOPS capacity",
                        spec.capacity_gops
                    ),
                ));
            }
        }
        if total > 0.0 && unserved / total > bounds.miss_ratio_bound {
            found.push((
                InvariantKind::MissRatioExceeded,
                format!(
                    "unserved demand fraction {:.4} exceeds miss-ratio bound {:.4}",
                    unserved / total,
                    bounds.miss_ratio_bound
                ),
            ));
        }
    }
    found
}

/// Breadth-first exhaustive exploration of `model` up to its configured
/// depth, with invariant checks on every transition and conformance
/// replays per the configured policy.
pub fn explore(model: &Model) -> McReport {
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

    let initial = model.initial_state();
    let mut seen: HashSet<Vec<u8>> = HashSet::new();
    let mut orbits: HashSet<Vec<u8>> = HashSet::new();
    let identity: Vec<usize> = (0..cfg.servers).collect();
    seen.insert(encode(&initial, &identity));
    orbits.insert(orbit_key(&initial, &perms));
    let mut queue: VecDeque<(StateView, Vec<Operation>)> = VecDeque::new();
    if cfg.depth > 0 {
        queue.push_back((initial, Vec::new()));
    }
    let mut discovered = 0usize;

    // Every queued state is expanded: one found at the depth bound is
    // counted and replayed, never queued.
    while let Some((state, path)) = queue.pop_front() {
        for op in model.enabled_ops(&state) {
            let outcome = model.apply(&state, op);
            report.transitions += 1;
            let mut violated = check_transition(model, op, &outcome.next);
            for &(cell, outage) in &outcome.outages {
                if outage > cfg.sys.chaos.outage_bound {
                    violated.push((
                        InvariantKind::OutageExceeded,
                        format!(
                            "cell {cell} outage {outage:?} exceeds bound {:?}",
                            cfg.sys.chaos.outage_bound
                        ),
                    ));
                }
            }
            for (kind, detail) in violated {
                *report.violation_counts.entry(kind.label()).or_insert(0) += 1;
                if report.violations.len() < MAX_RECORDED {
                    let mut vpath = path.clone();
                    vpath.push(op);
                    report.violations.push(McViolation {
                        kind,
                        path: vpath,
                        detail,
                    });
                }
            }
            let key = encode(&outcome.next, &identity);
            if !seen.insert(key) {
                report.dedup_hits += 1;
                continue;
            }
            orbits.insert(orbit_key(&outcome.next, &perms));
            let mut npath = path.clone();
            npath.push(op);
            discovered += 1;
            if cfg.conformance.should_check(discovered) {
                report.conformance_checked += 1;
                if let Err(divergence) = replay_path(model, &npath) {
                    report.conformance_failures.push(divergence);
                }
            }
            if npath.len() < cfg.depth {
                queue.push_back((outcome.next, npath));
            }
        }
    }
    report.states = seen.len();
    report.orbit_states = orbits.len();
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::conformance::Conformance;
    use crate::model::{McCell, McConfig};
    use crate::view::{OpMix, ViewSemantics};
    use pran::SystemConfig;
    use std::time::Duration;

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
        model_cfg.sys.chaos.outage_bound = Duration::ZERO;
        let report = explore(&Model::new(model_cfg));
        assert!(report.violation_counts[InvariantKind::OutageExceeded.label()] > 0);
    }
}
