//! Multi-site pool topology: front-ends, pool sites, and the reachability
//! they induce.
//!
//! PRAN's deployment question is *where the pool lives*: a close-by edge
//! site serves every split but holds few (expensive) servers; a regional
//! datacenter is cheap and big but only reachable within the latency
//! budget of higher splits. A [`Topology`] holds the geometry and answers
//! the two questions the placement layer asks: which (cell, server) pairs
//! are feasible, and what does each server cost.

use pran_phy::frame::{AntennaConfig, Bandwidth};
use pran_phy::mcs::Mcs;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::time::Duration;

use crate::budget::FronthaulPath;
use crate::split::FunctionalSplit;

/// Fiber routes are longer than geometry: typical detour factor.
pub const ROUTE_FACTOR: f64 = 1.4;

/// A pool site: a location hosting servers.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Site {
    /// Dense site id.
    pub id: usize,
    /// Position in meters.
    pub position: (f64, f64),
    /// Servers hosted here.
    pub servers: usize,
    /// Capacity per server in GOPS.
    pub server_capacity_gops: f64,
    /// Cost weight per server (edge space is expensive).
    pub server_cost: f64,
}

/// A cell's front-end radio location.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FrontEnd {
    /// Dense cell id.
    pub cell: usize,
    /// Position in meters.
    pub position: (f64, f64),
}

/// The deployment geometry plus the radio/split parameters that set
/// per-TTI burst sizes.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Topology {
    /// Pool sites.
    pub sites: Vec<Site>,
    /// Cell front-ends (`front_ends[i].cell == i`).
    pub front_ends: Vec<FrontEnd>,
    /// Functional split in use (sets bandwidth and latency tolerance).
    pub split: FunctionalSplit,
    /// Carrier bandwidth of every cell.
    pub bandwidth: Bandwidth,
    /// Antenna configuration of every cell.
    pub antennas: AntennaConfig,
    /// Traffic-weighted MCS for burst sizing.
    pub mcs: Mcs,
    /// Link rate of fronthaul paths, bit/s.
    pub link_rate_bps: f64,
    /// Switch hops per path.
    pub switch_hops: u32,
}

/// Fronthaul reachability of every (cell, server) pair, stored as what it
/// is: a handful of distinct server rows shared by the cells that have
/// them, not a cells × servers matrix.
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct Reachability {
    /// `class_of[cell]` indexes `rows`. Cells past the end reach nothing.
    pub class_of: Vec<usize>,
    /// `rows[class][server]`: whether a cell of that class reaches the
    /// server.
    pub rows: Vec<Vec<bool>>,
}

impl Reachability {
    /// Group identical per-cell rows into classes, numbered in the order
    /// first seen.
    pub fn from_rows(cell_rows: impl IntoIterator<Item = Vec<bool>>) -> Self {
        let mut ids: BTreeMap<Vec<bool>, usize> = BTreeMap::new();
        let mut reach = Reachability::default();
        for row in cell_rows {
            let next = reach.rows.len();
            let class = *ids.entry(row).or_insert_with_key(|row| {
                reach.rows.push(row.clone());
                next
            });
            reach.class_of.push(class);
        }
        reach
    }

    /// The server row of `cell`, `None` for a cell the topology does not
    /// know.
    pub fn row(&self, cell: usize) -> Option<&[bool]> {
        self.class_of.get(cell).map(|&k| self.rows[k].as_slice())
    }

    /// Whether `cell` reaches `server`.
    #[inline]
    pub fn allows(&self, cell: usize, server: usize) -> bool {
        self.row(cell).is_some_and(|row| row[server])
    }
}

impl Topology {
    /// Total servers across sites.
    pub fn total_servers(&self) -> usize {
        self.sites.iter().map(|s| s.servers).sum()
    }

    /// The site hosting global server index `server`.
    ///
    /// # Panics
    /// Panics if the index is out of range.
    pub fn site_of_server(&self, server: usize) -> &Site {
        let mut base = 0;
        for site in &self.sites {
            if server < base + site.servers {
                return site;
            }
            base += site.servers;
        }
        panic!("server index {server} out of range");
    }

    /// Fronthaul path from a cell's front-end to a site.
    pub fn path(&self, cell: usize, site: &Site) -> FronthaulPath {
        let fe = &self.front_ends[cell];
        let dx = fe.position.0 - site.position.0;
        let dy = fe.position.1 - site.position.1;
        let fiber_m = (dx * dx + dy * dy).sqrt() * ROUTE_FACTOR;
        FronthaulPath {
            fiber_m,
            link_rate_bps: self.link_rate_bps,
            switch_hops: self.switch_hops,
            per_hop: Duration::from_micros(5),
        }
    }

    /// Per-TTI fronthaul burst at full load, bytes.
    pub fn bytes_per_tti(&self) -> usize {
        (self
            .split
            .bandwidth_bps(self.bandwidth, self.antennas, 1.0, self.mcs)
            * 1e-3
            / 8.0) as usize
    }

    /// Transport burst used for latency accounting: one OFDM symbol's
    /// worth. Fronthaul streams symbol by symbol (it never buffers a whole
    /// TTI before sending), so the last-byte latency of a subframe is
    /// propagation + one symbol's serialization, pipelined.
    pub fn burst_bytes(&self) -> usize {
        (self.bytes_per_tti() / pran_phy::frame::SYMBOLS_PER_SUBFRAME as usize).max(64)
    }

    /// Whether a cell can be served from a site, given the per-subframe
    /// `service_time` the pool needs.
    pub fn feasible(&self, cell: usize, site: &Site, service_time: Duration) -> bool {
        let path = self.path(cell, site);
        let bytes = self.burst_bytes();
        path.feasible(bytes, service_time)
            && path.one_way(bytes) <= self.split.max_one_way_latency()
    }

    /// Which servers each cell can reach, as the placement layer consumes
    /// it. Every server of a site shares the site's latency, so a cell's
    /// row is fixed by one verdict per site: cells are grouped by that
    /// verdict and each class is expanded to a server row once.
    pub fn reachability(&self, service_time: Duration) -> Reachability {
        let by_site = Reachability::from_rows((0..self.front_ends.len()).map(|cell| {
            self.sites
                .iter()
                .map(|site| self.feasible(cell, site, service_time))
                .collect()
        }));
        let reach = Reachability {
            rows: by_site
                .rows
                .iter()
                .map(|verdicts| {
                    verdicts
                        .iter()
                        .zip(&self.sites)
                        .flat_map(|(&ok, site)| std::iter::repeat_n(ok, site.servers))
                        .collect()
                })
                .collect(),
            class_of: by_site.class_of,
        };
        if pran_telemetry::enabled() {
            let per_class: Vec<usize> = reach
                .rows
                .iter()
                .map(|row| row.iter().filter(|&&ok| ok).count())
                .collect();
            let feasible_pairs: usize = reach.class_of.iter().map(|&k| per_class[k]).sum();
            pran_telemetry::trace::mono_event(
                "fronthaul.allowed",
                &[
                    ("cells", self.front_ends.len().into()),
                    ("servers", self.total_servers().into()),
                    ("feasible_pairs", feasible_pairs.into()),
                    ("service_us", (service_time.as_micros() as u64).into()),
                ],
            );
        }
        reach
    }

    /// Per-server `(capacity_gops, cost)` pairs in global server order.
    pub fn server_specs(&self) -> Vec<(f64, f64)> {
        self.sites
            .iter()
            .flat_map(|s| std::iter::repeat_n((s.server_capacity_gops, s.server_cost), s.servers))
            .collect()
    }
}

/// A canonical two-tier deployment: one edge site near the cells and one
/// regional datacenter `regional_km` away.
pub fn edge_regional(
    cells: usize,
    cell_spacing_m: f64,
    edge_servers: usize,
    regional_servers: usize,
    regional_km: f64,
    split: FunctionalSplit,
) -> Topology {
    let front_ends = (0..cells)
        .map(|cell| FrontEnd {
            cell,
            position: ((cell as f64) * cell_spacing_m, 0.0),
        })
        .collect();
    let center = (cells as f64 - 1.0) * cell_spacing_m / 2.0;
    Topology {
        sites: vec![
            Site {
                id: 0,
                position: (center, 5_000.0),
                servers: edge_servers,
                server_capacity_gops: 400.0,
                server_cost: 3.0, // edge space: expensive
            },
            Site {
                id: 1,
                position: (center, regional_km * 1000.0),
                servers: regional_servers,
                server_capacity_gops: 400.0,
                server_cost: 1.0,
            },
        ],
        front_ends,
        split,
        bandwidth: Bandwidth::Mhz20,
        antennas: AntennaConfig::pran_default(),
        mcs: Mcs::new(20),
        link_rate_bps: 10e9,
        switch_hops: 2,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn service() -> Duration {
        Duration::from_micros(1200)
    }

    #[test]
    fn edge_always_reachable_regional_depends_on_split() {
        for (split, expect_regional) in [
            (FunctionalSplit::TimeDomainIq, false), // 250 µs tolerance
            (FunctionalSplit::FrequencyDomain, false),
            (FunctionalSplit::TransportBlocks, true), // 6 ms tolerance
        ] {
            let topo = edge_regional(4, 1000.0, 2, 8, 80.0, split);
            let reach = topo.reachability(service());
            assert_eq!(
                reach.rows.len(),
                1,
                "{split}: every cell sees the same sites"
            );
            for cell in 0..4 {
                let row = reach.row(cell).unwrap();
                // First 2 columns = edge servers, rest regional.
                assert!(row[0] && row[1], "{split}: cell {cell} must reach the edge");
                for &r in &row[2..] {
                    assert_eq!(
                        r, expect_regional,
                        "{split}: regional reachability wrong for cell {cell}"
                    );
                }
            }
        }
    }

    #[test]
    fn server_bookkeeping() {
        let topo = edge_regional(3, 500.0, 2, 5, 60.0, FunctionalSplit::TransportBlocks);
        assert_eq!(topo.total_servers(), 7);
        assert_eq!(topo.site_of_server(0).id, 0);
        assert_eq!(topo.site_of_server(1).id, 0);
        assert_eq!(topo.site_of_server(2).id, 1);
        assert_eq!(topo.site_of_server(6).id, 1);
        let specs = topo.server_specs();
        assert_eq!(specs.len(), 7);
        assert_eq!(specs[0].1, 3.0, "edge cost");
        assert_eq!(specs[2].1, 1.0, "regional cost");
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn server_index_checked() {
        let topo = edge_regional(2, 500.0, 1, 1, 60.0, FunctionalSplit::TransportBlocks);
        topo.site_of_server(2);
    }

    #[test]
    fn route_factor_lengthens_paths() {
        let topo = edge_regional(1, 0.0, 1, 1, 80.0, FunctionalSplit::TransportBlocks);
        let site = &topo.sites[1];
        let p = topo.path(0, site);
        // Geometric distance ≥ 75 km → fiber ≥ that × 1.4.
        assert!(p.fiber_m > 100_000.0, "fiber {} m", p.fiber_m);
    }

    #[test]
    fn tighter_service_time_shrinks_reach() {
        // With almost the whole HARQ budget spent on compute, even the
        // transport-block split cannot reach the regional site.
        let topo = edge_regional(2, 500.0, 1, 4, 80.0, FunctionalSplit::TransportBlocks);
        let relaxed = topo.reachability(Duration::from_micros(500));
        let tight = topo.reachability(Duration::from_micros(2_800));
        assert!(relaxed.allows(0, 1), "regional reachable with slack");
        assert!(
            !tight.allows(0, 1),
            "regional out of reach when compute eats the budget"
        );
        assert!(
            !relaxed.allows(2, 0),
            "a cell without a front-end reaches nothing"
        );
    }
}
