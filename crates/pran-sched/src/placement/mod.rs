//! Cell→server placement: the coarse timescale of PRAN's two-timescale
//! resource manager.
//!
//! Every few seconds-to-minutes the controller re-decides which pool server
//! processes which cell, packing predicted per-cell compute demand (GOPS)
//! into server capacities while respecting fronthaul feasibility. The exact
//! formulation ([`ilp`]) is a bin-packing ILP — NP-hard — and the fast path
//! ([`heuristics`]) is first-fit/best-fit-decreasing; experiment E5
//! quantifies the optimality gap and the solve-time ratio between them.

pub mod admission;
pub mod dimensioning;
pub mod heuristics;
pub mod ilp;
pub mod migration;
pub mod warm;

pub use warm::{WarmConfig, WarmConfigError, WarmPlacer, WarmStats, WARM_GAP_FACTOR};

use pran_fronthaul::Reachability;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Compute demand of one cell for the next placement epoch.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CellDemand {
    /// Dense cell id (index into the instance).
    pub id: usize,
    /// Predicted sustained GOPS requirement (total pooled demand, decode
    /// included).
    pub gops: f64,
    /// Turbo-decode share of `gops` that a server-side hardware
    /// accelerator can absorb (`0 ≤ decode_gops ≤ gops`; 0.0 for
    /// split/direction combinations that pool no decode, and for
    /// demands serialized before accelerator offload existed).
    #[serde(default)]
    pub decode_gops: f64,
}

impl CellDemand {
    /// A demand with no accelerable share — the pre-split default.
    pub fn flat(id: usize, gops: f64) -> Self {
        CellDemand {
            id,
            gops,
            decode_gops: 0.0,
        }
    }
}

/// Hardware turbo-decode offload attached to a server.
///
/// Accelerated servers price decode on a distinct cost curve (Kundu et
/// al.): a cell's `decode_gops` lands on the accelerator's separate
/// capacity pool instead of the server's general-purpose budget.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Accelerator {
    /// Decode capacity in GOPS, accounted separately from the server's
    /// general `capacity_gops`.
    pub decode_capacity_gops: f64,
    /// Factor by which the accelerator shortens decode service time
    /// relative to a general-purpose core (consumed by the pool
    /// simulator's per-class service-time tables).
    pub decode_speedup: f64,
}

impl Accelerator {
    /// Evaluation default: enough decode capacity for ~1 fully loaded
    /// UL cell, at a 4× service-time speedup.
    pub fn default_eval() -> Self {
        Accelerator {
            decode_capacity_gops: 80.0,
            decode_speedup: 4.0,
        }
    }
}

/// One pool server.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ServerSpec {
    /// Dense server id (index into the instance).
    pub id: usize,
    /// Compute capacity in GOPS.
    pub capacity_gops: f64,
    /// Cost of powering this server (objective weight; 1.0 = count
    /// servers).
    pub cost: f64,
    /// Optional turbo-decode offload hardware.
    pub accelerator: Option<Accelerator>,
}

/// Two-resource load on one server: general-purpose GOPS plus the decode
/// GOPS absorbed by its accelerator (always 0.0 on plain servers).
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct ServerLoad {
    /// Load on the general-purpose cores.
    pub general: f64,
    /// Load on the decode accelerator.
    pub decode: f64,
}

impl ServerSpec {
    /// The relative tolerance of every capacity test: a load fits up to
    /// `capacity · (1 + FIT_TOLERANCE)`.
    pub const FIT_TOLERANCE: f64 = 1e-9;

    /// A plain (unaccelerated) server.
    pub fn plain(id: usize, capacity_gops: f64, cost: f64) -> Self {
        ServerSpec {
            id,
            capacity_gops,
            cost,
            accelerator: None,
        }
    }

    /// Whether `load` GOPS fits this server's general-purpose capacity,
    /// within the same relative tolerance
    /// [`PlacementInstance::validate`] applies.
    ///
    /// Every capacity comparison in the placement stack (heuristics,
    /// incremental repack, validation) must route through this predicate:
    /// if one layer admits with a looser tolerance than another rejects
    /// with, a placement can be simultaneously "feasible" and "overloaded"
    /// — the repack layer then migrates cells off servers that validate
    /// fine, churning on float dust.
    pub fn fits(&self, load: f64) -> bool {
        load <= self.capacity_gops * (1.0 + Self::FIT_TOLERANCE)
    }

    /// Whether a decode load fits the accelerator, with the same relative
    /// tolerance as [`ServerSpec::fits`]. A plain server accepts only a
    /// zero decode load — but plain servers never *accrue* decode load
    /// (see [`ServerSpec::load_of`]), so this holds trivially for them.
    pub fn fits_decode(&self, decode_load: f64) -> bool {
        let cap = self.accelerator.map_or(0.0, |a| a.decode_capacity_gops);
        decode_load <= cap * (1.0 + Self::FIT_TOLERANCE)
    }

    /// Whether a two-resource load fits both capacities.
    pub fn fits_load(&self, load: ServerLoad) -> bool {
        self.fits(load.general) && self.fits_decode(load.decode)
    }

    /// How `cell` loads this server: on a plain server the whole demand
    /// hits the general cores; on an accelerated server the decode share
    /// is carved out onto the accelerator.
    ///
    /// With `decode_gops == 0.0` (the pre-split default) the general
    /// load is exactly `gops` on either class — `gops - 0.0` is the
    /// identical f64 — which keeps homogeneous pools bit-identical to
    /// the single-resource accounting this replaces.
    #[inline]
    pub fn load_of(&self, cell: &CellDemand) -> ServerLoad {
        if self.accelerator.is_some() {
            ServerLoad {
                general: cell.gops - cell.decode_gops,
                decode: cell.decode_gops,
            }
        } else {
            ServerLoad {
                general: cell.gops,
                decode: 0.0,
            }
        }
    }
}

/// Fronthaul-feasibility mask of a placement instance: which servers may
/// serve which cells.
///
/// The common cases — "no restriction" and "one liveness mask shared by
/// every cell" — used to be encoded as a dense `Vec<Vec<bool>>`, which
/// cost O(cells × servers) heap churn per repack just to say "only live
/// servers". The enum keeps those cases O(1)/O(servers), gives a control
/// plane the factored form its constraints really have, and leaves the
/// full per-cell matrix available for arbitrary ones.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub enum Allowed {
    /// Every cell may run on every server.
    #[default]
    All,
    /// One server mask shared by every cell (e.g. "only live servers").
    Uniform(Vec<bool>),
    /// Full `matrix[cell][server]` feasibility.
    PerCell(Vec<Vec<bool>>),
    /// Cell mask ∧ server mask ∧ fronthaul reach. Boxed: held inline it
    /// makes the enum 104 bytes with a niche-encoded tag, and every test
    /// of the older variants pays for decoding it (`heuristics::place`
    /// under a `Uniform` mask ran 17 % slower).
    Product(Box<ProductMask>),
}

/// Feasibility as a product of independent factors: a pair is allowed
/// when the cell is active, the server is usable and the cell's site
/// reaches the server's. Its owner keeps it across epochs and flips one
/// entry when one cell or server changes state; nothing here is ever
/// cells × servers big.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct ProductMask {
    /// Per cell: registered and not deregistered.
    pub cells: Vec<bool>,
    /// Per server: usable, i.e. alive and not drained.
    pub servers: Vec<bool>,
    /// Fronthaul reach by cell class; `None` when every site reaches
    /// every server.
    pub reach: Option<Reachability>,
}

impl Allowed {
    /// Whether `cell` may run on `server`.
    #[inline]
    pub fn is_allowed(&self, cell: usize, server: usize) -> bool {
        match self {
            Allowed::All => true,
            Allowed::Uniform(mask) => mask[server],
            Allowed::PerCell(m) => m[cell][server],
            Allowed::Product(_) => self.row(cell).allows(server),
        }
    }

    /// The servers `cell` may run on, resolved once so a scan over
    /// servers tests slices it already holds instead of walking the enum
    /// (and, for a product, its box and three vectors) per server.
    #[inline]
    pub fn row(&self, cell: usize) -> AllowedRow<'_> {
        let (open, first, second) = match self {
            Allowed::All => (true, None, None),
            Allowed::Uniform(mask) => (true, Some(mask.as_slice()), None),
            Allowed::PerCell(m) => (true, Some(m[cell].as_slice()), None),
            Allowed::Product(p) => match &p.reach {
                None => (p.cells[cell], Some(p.servers.as_slice()), None),
                Some(reach) => {
                    let row = reach.row(cell);
                    (
                        p.cells[cell] && row.is_some(),
                        Some(p.servers.as_slice()),
                        row,
                    )
                }
            },
        };
        AllowedRow {
            open,
            first,
            second,
        }
    }
}

/// One cell's row of an [`Allowed`]: see [`Allowed::row`].
#[derive(Debug, Clone, Copy)]
pub struct AllowedRow<'a> {
    /// False when the cell may run nowhere.
    open: bool,
    /// Server masks that must both hold; `None` holds everywhere.
    first: Option<&'a [bool]>,
    second: Option<&'a [bool]>,
}

impl AllowedRow<'_> {
    /// Whether the row's cell may run on `server`.
    #[inline]
    pub fn allows(&self, server: usize) -> bool {
        self.open && self.first.is_none_or(|m| m[server]) && self.second.is_none_or(|m| m[server])
    }
}

/// Dense matrices convert directly; an empty matrix means "all allowed"
/// (the legacy `Vec<Vec<bool>>` sentinel).
impl From<Vec<Vec<bool>>> for Allowed {
    fn from(m: Vec<Vec<bool>>) -> Self {
        if m.is_empty() {
            Allowed::All
        } else {
            Allowed::PerCell(m)
        }
    }
}

/// A placement problem instance.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PlacementInstance {
    /// Per-cell compute demands.
    pub cells: Vec<CellDemand>,
    /// Pool servers.
    pub servers: Vec<ServerSpec>,
    /// Whether fronthaul latency permits serving each cell from each
    /// server's site.
    pub allowed: Allowed,
}

/// A (partial) assignment of cells to servers.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Placement {
    /// `assignment[cell] = Some(server)` or `None` if unplaced.
    pub assignment: Vec<Option<usize>>,
}

/// Why a placement is invalid.
#[derive(Debug, Clone, PartialEq)]
pub enum PlacementError {
    /// A cell has no server.
    Unplaced(usize),
    /// A cell sits on a fronthaul-infeasible server.
    NotAllowed {
        /// Offending cell.
        cell: usize,
        /// Disallowed server.
        server: usize,
    },
    /// A server's capacity is exceeded.
    OverCapacity {
        /// Overloaded server.
        server: usize,
        /// Placed load in GOPS.
        load: f64,
        /// Server capacity in GOPS.
        capacity: f64,
    },
    /// A server's decode-accelerator capacity is exceeded.
    DecodeOverCapacity {
        /// Overloaded server.
        server: usize,
        /// Placed decode load in GOPS.
        load: f64,
        /// Accelerator capacity in GOPS (0.0 for plain servers).
        capacity: f64,
    },
    /// Assignment vector length does not match the instance.
    ShapeMismatch,
}

impl fmt::Display for PlacementError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlacementError::Unplaced(c) => write!(f, "cell {c} is unplaced"),
            PlacementError::NotAllowed { cell, server } => {
                write!(f, "cell {cell} may not be served from server {server}")
            }
            PlacementError::OverCapacity {
                server,
                load,
                capacity,
            } => {
                write!(
                    f,
                    "server {server} overloaded: {load:.1}/{capacity:.1} GOPS"
                )
            }
            PlacementError::DecodeOverCapacity {
                server,
                load,
                capacity,
            } => {
                write!(
                    f,
                    "server {server} decode accelerator overloaded: \
                     {load:.1}/{capacity:.1} GOPS"
                )
            }
            PlacementError::ShapeMismatch => write!(f, "assignment length mismatch"),
        }
    }
}

impl PlacementInstance {
    /// Build an instance with uniform servers and no fronthaul restriction.
    pub fn uniform(cell_gops: &[f64], num_servers: usize, capacity_gops: f64) -> Self {
        PlacementInstance {
            cells: cell_gops
                .iter()
                .enumerate()
                .map(|(id, &gops)| CellDemand::flat(id, gops))
                .collect(),
            servers: (0..num_servers)
                .map(|id| ServerSpec::plain(id, capacity_gops, 1.0))
                .collect(),
            allowed: Allowed::All,
        }
    }

    /// Whether any server in the pool carries a decode accelerator (the
    /// cheap gate the heuristics use before paying for affinity logic).
    pub fn has_accelerators(&self) -> bool {
        self.servers.iter().any(|s| s.accelerator.is_some())
    }

    /// Whether `cell` may run on `server`.
    #[inline]
    pub fn is_allowed(&self, cell: usize, server: usize) -> bool {
        self.allowed.is_allowed(cell, server)
    }

    /// Check a placement against all constraints.
    pub fn validate(&self, p: &Placement) -> Result<(), PlacementError> {
        if p.assignment.len() != self.cells.len() {
            return Err(PlacementError::ShapeMismatch);
        }
        let mut load = vec![ServerLoad::default(); self.servers.len()];
        for (cell, assigned) in p.assignment.iter().enumerate() {
            match assigned {
                None => return Err(PlacementError::Unplaced(cell)),
                Some(s) => {
                    if !self.is_allowed(cell, *s) {
                        return Err(PlacementError::NotAllowed { cell, server: *s });
                    }
                    let l = self.servers[*s].load_of(&self.cells[cell]);
                    load[*s].general += l.general;
                    load[*s].decode += l.decode;
                }
            }
        }
        for (server, &l) in load.iter().enumerate() {
            self.check_load(server, l)?;
        }
        Ok(())
    }

    /// Check moving `cell` onto `server` under `assignment`: the one
    /// admission rule for a single move. The pair must pass the mask
    /// (`NotAllowed`), and the server must fit the cell-order sum of its
    /// other residents' loads plus the cell's (`OverCapacity`, or
    /// `DecodeOverCapacity` on an accelerator). Both ids must be in range.
    pub fn validate_move(
        &self,
        assignment: &[Option<usize>],
        cell: usize,
        server: usize,
    ) -> Result<(), PlacementError> {
        if !self.is_allowed(cell, server) {
            return Err(PlacementError::NotAllowed { cell, server });
        }
        let spec = &self.servers[server];
        let mut load = ServerLoad::default();
        for (c, assigned) in assignment.iter().enumerate() {
            if c != cell && *assigned == Some(server) {
                let l = spec.load_of(&self.cells[c]);
                load.general += l.general;
                load.decode += l.decode;
            }
        }
        let own = spec.load_of(&self.cells[cell]);
        load.general += own.general;
        load.decode += own.decode;
        self.check_load(server, load)
    }

    /// Whether `server` carries `load`, as the error `validate` reports.
    fn check_load(&self, server: usize, load: ServerLoad) -> Result<(), PlacementError> {
        let spec = &self.servers[server];
        if !spec.fits(load.general) {
            return Err(PlacementError::OverCapacity {
                server,
                load: load.general,
                capacity: spec.capacity_gops,
            });
        }
        if !spec.fits_decode(load.decode) {
            let capacity = spec.accelerator.map_or(0.0, |a| a.decode_capacity_gops);
            return Err(PlacementError::DecodeOverCapacity {
                server,
                load: load.decode,
                capacity,
            });
        }
        Ok(())
    }

    /// General-purpose GOPS load per server under a placement (the
    /// decode share absorbed by accelerators is excluded; see
    /// [`PlacementInstance::server_loads_split`] for both resources).
    pub fn server_loads(&self, p: &Placement) -> Vec<f64> {
        self.server_loads_split(p)
            .iter()
            .map(|l| l.general)
            .collect()
    }

    /// Two-resource load per server under a placement.
    pub fn server_loads_split(&self, p: &Placement) -> Vec<ServerLoad> {
        let mut load = vec![ServerLoad::default(); self.servers.len()];
        for (cell, assigned) in p.assignment.iter().enumerate() {
            if let Some(s) = assigned {
                let l = self.servers[*s].load_of(&self.cells[cell]);
                load[*s].general += l.general;
                load[*s].decode += l.decode;
            }
        }
        load
    }

    /// Number of servers hosting at least one cell.
    pub fn servers_used(&self, p: &Placement) -> usize {
        self.server_loads_split(p)
            .iter()
            .filter(|l| l.general > 0.0 || l.decode > 0.0)
            .count()
    }

    /// Total cost of the servers in use.
    pub fn cost(&self, p: &Placement) -> f64 {
        self.server_loads_split(p)
            .iter()
            .zip(&self.servers)
            .filter(|(l, _)| l.general > 0.0 || l.decode > 0.0)
            .map(|(_, s)| s.cost)
            .sum()
    }

    /// Total demand.
    pub fn total_gops(&self) -> f64 {
        self.cells.iter().map(|c| c.gops).sum()
    }

    /// A lower bound on servers used (uniform-capacity L1 bound; uses the
    /// largest capacity, so it is valid for heterogeneous pools too).
    ///
    /// The demand is divided by the load a server admits,
    /// `capacity · (1 + FIT_TOLERANCE)` ([`ServerSpec::fits`]), and the
    /// quotient is lowered by the most that float summation can have
    /// raised it (a relative `(cells + 2) · ε`) before it is rounded up:
    /// a packing whose every server [`PlacementInstance::validate`]
    /// accepts never uses fewer.
    ///
    /// Where a server is accelerated, a cell's decode share may leave its
    /// cores, so the bound is the larger of two counts. Core load counts
    /// each cell at the least it puts on any server's cores, `gops −
    /// decode_gops` (what an accelerated server carries), against the
    /// largest core capacity. Core and decode load together, the whole
    /// demand, count against the most one server carries on its cores and
    /// its accelerator, with one more `ε` for the split `gops −
    /// decode_gops`. A pool with no accelerator reads as the one count it
    /// always was.
    pub fn lower_bound_servers(&self) -> usize {
        let most = |per_server: fn(&ServerSpec) -> f64| {
            self.servers.iter().map(per_server).fold(0.0f64, f64::max)
        };
        let max_cap = most(|s| s.capacity_gops);
        let terms = self.cells.len() + 2;
        if !self.has_accelerators() {
            if max_cap == 0.0 {
                return if self.cells.is_empty() { 0 } else { usize::MAX };
            }
            return servers_for(self.total_gops(), max_cap, terms);
        }
        let core = self.cells.iter().map(|c| c.gops - c.decode_gops).sum();
        let whole =
            most(|s| s.capacity_gops + s.accelerator.map_or(0.0, |a| a.decode_capacity_gops));
        servers_for(core, max_cap, terms).max(servers_for(self.total_gops(), whole, terms + 1))
    }
}

/// The fewest servers that carry `load` GOPS when each admits
/// `per_server · (1 + FIT_TOLERANCE)`, the quotient first lowered by a
/// relative `terms · ε` for the float sums that made `load` (see
/// [`PlacementInstance::lower_bound_servers`]). A load no server can take
/// asks for `usize::MAX`.
fn servers_for(load: f64, per_server: f64, terms: usize) -> usize {
    let servers = load / (per_server * (1.0 + ServerSpec::FIT_TOLERANCE));
    let summation = terms as f64 * f64::EPSILON;
    (servers - servers * summation).ceil() as usize
}

impl Placement {
    /// All-unplaced placement for `n` cells.
    pub fn empty(n: usize) -> Self {
        Placement {
            assignment: vec![None; n],
        }
    }

    /// Number of placed cells.
    pub fn placed(&self) -> usize {
        self.assignment.iter().filter(|a| a.is_some()).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn instance() -> PlacementInstance {
        PlacementInstance::uniform(&[50.0, 60.0, 70.0], 3, 100.0)
    }

    #[test]
    fn validate_catches_unplaced() {
        let inst = instance();
        let p = Placement::empty(3);
        assert_eq!(inst.validate(&p), Err(PlacementError::Unplaced(0)));
    }

    #[test]
    fn validate_catches_overload() {
        let inst = instance();
        let p = Placement {
            assignment: vec![Some(0), Some(0), Some(1)],
        };
        assert!(matches!(
            inst.validate(&p),
            Err(PlacementError::OverCapacity { server: 0, .. })
        ));
    }

    #[test]
    fn validate_catches_disallowed() {
        let mut inst = instance();
        inst.allowed = vec![vec![true, true, false]; 3].into();
        let p = Placement {
            assignment: vec![Some(2), Some(0), Some(1)],
        };
        assert_eq!(
            inst.validate(&p),
            Err(PlacementError::NotAllowed { cell: 0, server: 2 })
        );
    }

    #[test]
    fn row_agrees_with_is_allowed_for_every_variant() {
        let reach = Reachability {
            class_of: vec![0, 1, 0],
            rows: vec![vec![true, true, false], vec![false, false, true]],
        };
        let product = |reach| {
            Allowed::Product(Box::new(ProductMask {
                cells: vec![true, true, false, true],
                servers: vec![true, false, true],
                reach,
            }))
        };
        let masks = [
            Allowed::All,
            Allowed::Uniform(vec![true, false, true]),
            vec![
                vec![true, false, false],
                vec![false, true, true],
                vec![false; 3],
                vec![true; 3],
            ]
            .into(),
            product(None),
            // Cell 2 is inactive; cell 3 has no class: neither runs anywhere.
            product(Some(reach)),
        ];
        for mask in &masks {
            for cell in 0..4 {
                let row = mask.row(cell);
                for server in 0..3 {
                    assert_eq!(
                        row.allows(server),
                        mask.is_allowed(cell, server),
                        "{mask:?}: cell {cell} × server {server}"
                    );
                }
            }
        }
        let bound = &masks[4];
        assert!(bound.is_allowed(0, 0) && !bound.is_allowed(0, 1) && !bound.is_allowed(0, 2));
        assert!(bound.is_allowed(1, 2) && !bound.is_allowed(1, 0));
        assert!((0..3).all(|s| !bound.is_allowed(2, s) && !bound.is_allowed(3, s)));
    }

    #[test]
    fn validate_accepts_good_placement() {
        let inst = instance();
        let p = Placement {
            assignment: vec![Some(0), Some(1), Some(2)],
        };
        assert!(inst.validate(&p).is_ok());
        assert_eq!(inst.servers_used(&p), 3);
        assert_eq!(inst.cost(&p), 3.0);
    }

    #[test]
    fn shape_mismatch() {
        let inst = instance();
        let p = Placement::empty(2);
        assert_eq!(inst.validate(&p), Err(PlacementError::ShapeMismatch));
    }

    #[test]
    fn lower_bound() {
        let inst = instance();
        assert_eq!(inst.lower_bound_servers(), 2); // 180 GOPS / 100
        let empty = PlacementInstance::uniform(&[], 2, 100.0);
        assert_eq!(empty.lower_bound_servers(), 0);
    }

    /// Four cells of `100 + ε` GOPS on 400-GOPS servers: up to
    /// ε = 1e-7 their sum is inside the fit tolerance, so one server
    /// holds them and the bound says one; past it, two.
    #[test]
    fn lower_bound_admits_the_fit_tolerance() {
        use crate::placement::heuristics::{place, Heuristic};
        let sums = [1e-8, 5e-8, 9e-8, 1e-7, 1.5e-7, 1e-6].map(|eps| {
            let inst = PlacementInstance::uniform(&[100.0 + eps; 4], 4, 400.0);
            let ffd = place(&inst, Heuristic::FirstFitDecreasing).placement;
            assert!(inst.validate(&ffd).is_ok(), "ε = {eps}");
            let used = inst.servers_used(&ffd);
            assert_eq!(inst.lower_bound_servers(), used, "ε = {eps}");
            used
        });
        assert_eq!(sums, [1, 1, 1, 1, 2, 2]);
    }

    /// One accelerated server (id 0) and one plain server (id 1), with
    /// cells carrying a decode share.
    fn accel_instance() -> PlacementInstance {
        let mut inst = PlacementInstance::uniform(&[80.0, 80.0], 2, 100.0);
        inst.servers[0].accelerator = Some(Accelerator {
            decode_capacity_gops: 50.0,
            decode_speedup: 4.0,
        });
        inst.cells[0].decode_gops = 40.0;
        inst.cells[1].decode_gops = 40.0;
        inst
    }

    /// Two 80-GOPS cells, 40 of each decode: their cores fit one
    /// 100-GOPS server, but no server carries 160 GOPS on cores and
    /// accelerator together (100 + 50 at most).
    #[test]
    fn lower_bound_counts_core_and_whole_demand_apart() {
        let inst = accel_instance();
        assert_eq!(inst.lower_bound_servers(), 2);
        let mut roomy = accel_instance();
        roomy.servers[0].accelerator = Some(Accelerator::default_eval());
        assert_eq!(roomy.lower_bound_servers(), 1);
        let p = Placement {
            assignment: vec![Some(0), Some(0)],
        };
        assert!(roomy.validate(&p).is_ok());
    }

    #[test]
    fn accelerator_carves_decode_off_general_load() {
        let inst = accel_instance();
        let p = Placement {
            assignment: vec![Some(0), Some(1)],
        };
        let loads = inst.server_loads_split(&p);
        // Accelerated server: 80 − 40 general, 40 decode.
        assert_eq!(
            loads[0],
            ServerLoad {
                general: 40.0,
                decode: 40.0
            }
        );
        // Plain server: full 80 general, decode never accrues.
        assert_eq!(
            loads[1],
            ServerLoad {
                general: 80.0,
                decode: 0.0
            }
        );
        assert!(inst.validate(&p).is_ok());
    }

    #[test]
    fn validate_catches_decode_overload() {
        let inst = accel_instance();
        // Both cells on the accelerated server: general 80 fits 100, but
        // decode 80 exceeds the 50-GOPS accelerator.
        let p = Placement {
            assignment: vec![Some(0), Some(0)],
        };
        assert!(matches!(
            inst.validate(&p),
            Err(PlacementError::DecodeOverCapacity { server: 0, .. })
        ));
        // On the plain server the same two cells are a plain 160-GOPS
        // general overload.
        let p = Placement {
            assignment: vec![Some(1), Some(1)],
        };
        assert!(matches!(
            inst.validate(&p),
            Err(PlacementError::OverCapacity { server: 1, .. })
        ));
    }

    #[test]
    fn zero_decode_share_is_bitwise_neutral() {
        // The refactor's identity anchor: with decode_gops == 0.0 the
        // general load is the exact same f64 on either server class.
        let cell = CellDemand::flat(0, 73.25);
        let plain = ServerSpec::plain(0, 100.0, 1.0);
        let mut accel = plain;
        accel.accelerator = Some(Accelerator::default_eval());
        assert_eq!(
            plain.load_of(&cell).general.to_bits(),
            accel.load_of(&cell).general.to_bits()
        );
        assert_eq!(accel.load_of(&cell).decode, 0.0);
    }

    #[test]
    fn fits_load_checks_both_resources() {
        let mut s = ServerSpec::plain(0, 100.0, 1.0);
        assert!(s.fits_load(ServerLoad {
            general: 100.0,
            decode: 0.0
        }));
        assert!(!s.fits_load(ServerLoad {
            general: 100.1,
            decode: 0.0
        }));
        assert!(!s.fits_load(ServerLoad {
            general: 0.0,
            decode: 0.1
        }));
        s.accelerator = Some(Accelerator {
            decode_capacity_gops: 30.0,
            decode_speedup: 4.0,
        });
        assert!(s.fits_load(ServerLoad {
            general: 100.0,
            decode: 30.0
        }));
        assert!(!s.fits_load(ServerLoad {
            general: 100.0,
            decode: 30.1
        }));
    }

    #[test]
    fn validate_move_admits_to_the_tolerance_and_no_further() {
        let cap = 100.0;
        let limit = cap * (1.0 + ServerSpec::FIT_TOLERANCE);
        let resident = 50.0;
        let at_edge = cap * (1.0 + 5e-10) - resident;
        let mut past = limit - resident;
        while resident + past <= limit {
            past = past.next_up();
        }
        let mut inst = PlacementInstance::uniform(&[resident, at_edge, past], 2, cap);
        let on_0 = [Some(0), None, None];
        assert!(resident + at_edge > cap + 1e-9, "past an absolute slack");
        assert_eq!(inst.validate_move(&on_0, 1, 0), Ok(()));
        assert_eq!(
            inst.validate_move(&on_0, 2, 0),
            Err(PlacementError::OverCapacity {
                server: 0,
                load: resident + past,
                capacity: cap,
            })
        );
        // A cell already on the server is not counted twice.
        assert_eq!(inst.validate_move(&[Some(0), Some(0), None], 1, 0), Ok(()));

        // A masked server and an out-of-reach one refuse before capacity.
        inst.allowed = Allowed::Product(Box::new(ProductMask {
            cells: vec![true; 3],
            servers: vec![true, false],
            reach: None,
        }));
        let refused = |server| Err(PlacementError::NotAllowed { cell: 0, server });
        assert_eq!(inst.validate_move(&[None; 3], 0, 1), refused(1));
        inst.allowed = Allowed::Product(Box::new(ProductMask {
            cells: vec![true; 3],
            servers: vec![true, true],
            reach: Some(Reachability {
                class_of: vec![0, 0, 0],
                rows: vec![vec![false, true]],
            }),
        }));
        assert_eq!(inst.validate_move(&[None; 3], 0, 0), refused(0));
        assert_eq!(inst.validate_move(&[None; 3], 0, 1), Ok(()));
    }

    #[test]
    fn validate_move_sums_the_other_residents_in_cell_order_then_the_cell() {
        // Moving cell 0: its residents first, (0.2 + 0.3) + 0.1 = 0.6,
        // where index order gives (0.1 + 0.2) + 0.3 = 0.6000000000000001.
        // Moving cell 3: its residents in cell order give the latter,
        // where the reverse order gives 0.6.
        let inst = PlacementInstance::uniform(&[0.1, 0.2, 0.3, 0.0], 1, 0.5);
        let load = |cell| match inst.validate_move(&[Some(0); 4], cell, 0) {
            Err(PlacementError::OverCapacity { load, .. }) => load,
            other => panic!("expected an overload, got {other:?}"),
        };
        assert_eq!(load(0).to_bits(), 0.6f64.to_bits());
        assert_eq!(load(3).to_bits(), ((0.1f64 + 0.2) + 0.3).to_bits());
        assert_ne!(0.6f64.to_bits(), ((0.1f64 + 0.2) + 0.3).to_bits());

        // The decode share is checked on an accelerator as `validate` does.
        let accel = accel_instance();
        assert!(matches!(
            accel.validate_move(&[Some(0), None], 1, 0),
            Err(PlacementError::DecodeOverCapacity { server: 0, .. })
        ));
        assert_eq!(accel.validate_move(&[Some(0), None], 1, 1), Ok(()));
    }

    #[test]
    fn server_loads_accumulate() {
        let inst = instance();
        let p = Placement {
            assignment: vec![Some(1), Some(1), Some(2)],
        };
        // 50+60 > 100 → invalid, but loads still computable.
        assert_eq!(inst.server_loads(&p), vec![0.0, 110.0, 70.0]);
    }
}
