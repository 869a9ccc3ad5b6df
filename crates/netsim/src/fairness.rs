//! Max-min fair bandwidth allocation over a topology's directed links.
//!
//! When several TCP flows share bottlenecks, their steady-state goodput is
//! well approximated by the max-min fair allocation: every flow gets as
//! much as possible subject to no link exceeding capacity, and no flow can
//! gain without a poorer flow losing. The classic water-filling algorithm:
//! repeatedly find the most constrained link, freeze its flows at the fair
//! share, and continue. Demand-limited flows freeze at their demand as
//! soon as the rising water level reaches it.
//!
//! This module maps node paths onto the one canonical engine in
//! [`crate::waterfill`]: [`max_min_allocation`] is its from-scratch fill,
//! [`FairShareEngine`] its standing incremental solution, and both assign
//! the same bits.

use crate::flow::FlowId;
use crate::topo::{LinkId, NodeIdx, Topology};
use crate::waterfill::{max_min_rates, Waterfill, WaterfillMetrics, WaterfillStats};
use std::collections::{BTreeMap, BTreeSet};

/// One flow's view for the allocator: its links and optional demand cap.
#[derive(Debug, Clone)]
pub struct AllocFlow {
    /// Links the flow traverses (direction-collapsed; see note below).
    pub links: Vec<(LinkId, Direction)>,
    /// Demand cap in Mbps; `None` = greedy.
    pub demand: Option<f64>,
}

/// Direction of traversal over an undirected link record (full-duplex
/// links have independent capacity per direction).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Direction {
    /// From `link.a` to `link.b`.
    Forward,
    /// From `link.b` to `link.a`.
    Reverse,
}

/// Derives the directed link sequence of a node path.
pub fn directed_links(
    topo: &Topology,
    path: &[NodeIdx],
) -> Result<Vec<(LinkId, Direction)>, crate::NetsimError> {
    let mut out = Vec::with_capacity(path.len().saturating_sub(1));
    for w in path.windows(2) {
        let lid = topo.link_between(w[0], w[1])?;
        let link = topo.link(lid);
        let dir = if link.a == w[0] {
            Direction::Forward
        } else {
            Direction::Reverse
        };
        out.push((lid, dir));
    }
    Ok(out)
}

/// Dense engine index of a directed link: `2·link + direction`.
fn dense(lid: LinkId, dir: Direction) -> usize {
    2 * lid.0 as usize + usize::from(dir == Direction::Reverse)
}

fn dense_links(links: &[(LinkId, Direction)]) -> Vec<usize> {
    links.iter().map(|&(lid, dir)| dense(lid, dir)).collect()
}

/// Computes the max-min fair allocation: one from-scratch fill of the
/// canonical engine ([`max_min_rates`]) over every directed link's
/// capacity. Returns one rate per flow, in input order. Flows crossing
/// failed links get 0.
pub fn max_min_allocation(topo: &Topology, flows: &[AllocFlow]) -> Vec<f64> {
    let mut headroom = Vec::with_capacity(2 * topo.link_count());
    for l in 0..topo.link_count() {
        let cap = topo.link(LinkId(l as u32)).capacity_mbps;
        headroom.extend([cap, cap]);
    }
    let live: Vec<(usize, Vec<usize>)> = flows
        .iter()
        .enumerate()
        .filter(|(_, f)| f.links.iter().all(|(lid, _)| topo.link(*lid).up))
        .map(|(i, f)| (i, dense_links(&f.links)))
        .collect();
    let solved = max_min_rates(
        &headroom,
        live.iter()
            .map(|(i, links)| (links.as_slice(), flows[*i].demand)),
    );
    let mut rates = vec![0.0; flows.len()];
    for ((i, _), r) in live.iter().zip(solved) {
        rates[*i] = r;
    }
    rates
}

/// The simulator's incremental max-min allocator: a thin adapter from
/// `(LinkId, Direction)` paths onto the canonical [`Waterfill`], whose
/// dense links are the topology's directed links (`2·link + dir`, each
/// with its link's capacity as headroom).
///
/// A flow whose path crosses a failed link stays *outside* the engine
/// at rate 0 until a restore revives it, so the engine never sees a
/// dead flow. Every rate is therefore exactly what a from-scratch
/// [`max_min_allocation`] of the live flows assigns, bit for bit — a
/// proptest in `netsim/tests` pins that equality after every event.
#[derive(Debug, Default)]
pub struct FairShareEngine {
    wf: Waterfill,
    /// Flows stalled on a failed link, with their demand.
    dead: BTreeMap<FlowId, Option<f64>>,
    /// Flows that died since the last resolve (reported at rate 0).
    died: BTreeSet<FlowId>,
}

impl FairShareEngine {
    /// A fresh engine with no flows.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a flow. `links: None` means the path crosses a failed
    /// link right now — the flow is tracked but dead (rate 0) until a
    /// restore revives it. Re-inserting an existing id replaces it.
    pub fn insert_flow(
        &mut self,
        topo: &Topology,
        id: FlowId,
        links: Option<Vec<(LinkId, Direction)>>,
        demand: Option<f64>,
    ) {
        self.remove_flow(id);
        match links {
            None => self.bury(id, demand),
            Some(links) => {
                self.sync_links(topo);
                self.wf.insert(id.0, &dense_links(&links), demand);
            }
        }
    }

    /// Unregisters a flow, seeding neighbors that can grow into the
    /// capacity it releases.
    pub fn remove_flow(&mut self, id: FlowId) {
        self.wf.remove(id.0);
        self.dead.remove(&id);
        self.died.remove(&id);
    }

    /// Repoints a flow at a new link set (`None` = now dead). Used for
    /// reroutes and for link up/down transitions, where the caller
    /// re-derives the path's live links.
    pub fn set_links(
        &mut self,
        topo: &Topology,
        id: FlowId,
        links: Option<Vec<(LinkId, Direction)>>,
    ) {
        match (links, self.dead.get(&id).copied()) {
            (None, Some(_)) => {}
            (None, None) => {
                if let Some(demand) = self.wf.demand_of(id.0) {
                    self.wf.remove(id.0);
                    self.bury(id, demand);
                }
            }
            (Some(links), Some(demand)) => {
                self.dead.remove(&id);
                self.sync_links(topo);
                self.wf.insert(id.0, &dense_links(&links), demand);
            }
            (Some(links), None) => {
                self.sync_links(topo);
                self.wf.set_links(id.0, &dense_links(&links));
            }
        }
    }

    /// Changes a flow's elastic demand in place (`None` = greedy). A
    /// dead flow just records it and re-enters the fill with it when it
    /// revives.
    pub fn set_demand(&mut self, id: FlowId, demand: Option<f64>) {
        match self.dead.get_mut(&id) {
            Some(d) => *d = demand,
            None => self.wf.set_demand(id.0, demand),
        }
    }

    /// Applies a link's new capacity (both directions): all its member
    /// flows re-solve. Call after updating the topology.
    pub fn capacity_changed(&mut self, topo: &Topology, lid: LinkId) {
        self.sync_links(topo);
        let cap = topo.link(lid).capacity_mbps;
        for dir in [Direction::Forward, Direction::Reverse] {
            self.wf.set_headroom(dense(lid, dir), cap);
        }
    }

    /// Re-solves everything the batched events since the last resolve
    /// touched, returning `(flow, new raw rate)` for every flow whose
    /// rate changed — sorted by flow id, so downstream share updates
    /// replay deterministically.
    pub fn resolve(&mut self) -> Vec<(FlowId, f64)> {
        let mut out: BTreeMap<FlowId, f64> = std::mem::take(&mut self.died)
            .into_iter()
            .map(|id| (id, 0.0))
            .collect();
        out.extend(self.wf.resolve().into_iter().map(|(id, r)| (FlowId(id), r)));
        out.into_iter().collect()
    }

    /// Current raw rate of a flow (0 for dead flows).
    pub fn rate(&self, id: FlowId) -> Option<f64> {
        self.wf
            .rate(id.0)
            .or_else(|| self.dead.contains_key(&id).then_some(0.0))
    }

    /// All `(flow, raw rate)` pairs, sorted by flow id.
    pub fn rates(&self) -> Vec<(FlowId, f64)> {
        let mut all: BTreeMap<FlowId, f64> = self.dead.keys().map(|&id| (id, 0.0)).collect();
        all.extend(self.wf.rates().into_iter().map(|(id, r)| (FlowId(id), r)));
        all.into_iter().collect()
    }

    /// Number of live (non-dead) flows.
    pub fn live_flows(&self) -> usize {
        self.wf.flow_count()
    }

    /// Audit counters (a snapshot; the live instruments are
    /// [`FairShareEngine::metrics`]).
    pub fn stats(&self) -> WaterfillStats {
        self.wf.stats()
    }

    /// The live `obsv` instruments behind [`FairShareEngine::stats`].
    pub fn metrics(&self) -> &WaterfillMetrics {
        self.wf.metrics()
    }

    /// Parks a flow outside the engine at rate 0.
    fn bury(&mut self, id: FlowId, demand: Option<f64>) {
        self.dead.insert(id, demand);
        self.died.insert(id);
    }

    /// Grows the engine's dense link table to cover every topology link.
    fn sync_links(&mut self, topo: &Topology) {
        while self.wf.link_count() < 2 * topo.link_count() {
            let cap = topo
                .link(LinkId((self.wf.link_count() / 2) as u32))
                .capacity_mbps;
            self.wf.add_link(cap);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topo::{global_p4_lab, NodeKind};

    fn flow_on(topo: &Topology, names: &[&str], demand: Option<f64>) -> AllocFlow {
        let path = topo.path_by_names(names).unwrap();
        AllocFlow {
            links: directed_links(topo, &path).unwrap(),
            demand,
        }
    }

    #[test]
    fn single_flow_takes_bottleneck() {
        let t = global_p4_lab();
        let f = flow_on(&t, &["host1", "MIA", "SAO", "AMS", "host2"], None);
        let rates = max_min_allocation(&t, &[f]);
        assert!((rates[0] - 20.0).abs() < 1e-9);
    }

    #[test]
    fn three_greedy_flows_share_tunnel1_equally() {
        // Experiment 2, phase 1: all flows on MIA-SAO-AMS (20 Mbps).
        let t = global_p4_lab();
        let flows: Vec<AllocFlow> = (0..3)
            .map(|_| flow_on(&t, &["host1", "MIA", "SAO", "AMS", "host2"], None))
            .collect();
        let rates = max_min_allocation(&t, &flows);
        for r in &rates {
            assert!((r - 20.0 / 3.0).abs() < 1e-9, "rates {rates:?}");
        }
    }

    #[test]
    fn split_flows_use_their_own_bottlenecks() {
        // Experiment 2, phase 2: tunnels 1 (20), 2 (10), 3 (5).
        let t = global_p4_lab();
        let flows = vec![
            flow_on(&t, &["host1", "MIA", "SAO", "AMS", "host2"], None),
            flow_on(&t, &["host1", "MIA", "CHI", "AMS", "host2"], None),
            flow_on(&t, &["host1", "MIA", "CAL", "CHI", "AMS", "host2"], None),
        ];
        let rates = max_min_allocation(&t, &flows);
        assert!((rates[0] - 20.0).abs() < 1e-9);
        assert!((rates[1] - 10.0).abs() < 1e-9);
        assert!((rates[2] - 5.0).abs() < 1e-9);
    }

    #[test]
    fn demand_limited_flow_leaves_capacity_to_others() {
        let t = global_p4_lab();
        let flows = vec![
            flow_on(&t, &["MIA", "SAO", "AMS"], Some(4.0)),
            flow_on(&t, &["MIA", "SAO", "AMS"], None),
        ];
        let rates = max_min_allocation(&t, &flows);
        assert!((rates[0] - 4.0).abs() < 1e-9);
        assert!((rates[1] - 16.0).abs() < 1e-9);
    }

    #[test]
    fn no_link_oversubscribed() {
        let t = global_p4_lab();
        let flows = vec![
            flow_on(&t, &["host1", "MIA", "SAO", "AMS", "host2"], None),
            flow_on(&t, &["host1", "MIA", "SAO", "AMS", "host2"], Some(3.0)),
            flow_on(&t, &["host1", "MIA", "CHI", "AMS", "host2"], None),
            flow_on(&t, &["host1", "MIA", "CAL", "CHI", "AMS", "host2"], None),
        ];
        let rates = max_min_allocation(&t, &flows);
        // Recompute per-directed-link usage and compare with capacity.
        let mut usage: BTreeMap<(LinkId, Direction), f64> = BTreeMap::new();
        for (f, r) in flows.iter().zip(&rates) {
            for &(lid, dir) in &f.links {
                *usage.entry((lid, dir)).or_insert(0.0) += r;
            }
        }
        for ((lid, _), used) in usage {
            assert!(
                used <= t.link(lid).capacity_mbps + 1e-9,
                "link {lid:?} over capacity: {used}"
            );
        }
    }

    #[test]
    fn failed_link_zeroes_flows() {
        let mut t = global_p4_lab();
        let mia = t.node("MIA").unwrap();
        let sao = t.node("SAO").unwrap();
        let f = flow_on(&t, &["MIA", "SAO", "AMS"], None);
        let lid = t.link_between(mia, sao).unwrap();
        t.link_mut(lid).up = false;
        let rates = max_min_allocation(&t, &[f]);
        assert_eq!(rates[0], 0.0);
    }

    #[test]
    fn opposite_directions_do_not_contend() {
        // Full-duplex: a->b and b->a flows each get full capacity.
        let mut t = Topology::new();
        let a = t.add_node("a", NodeKind::Host);
        let b = t.add_node("b", NodeKind::Host);
        t.add_link(a, b, 10.0, 1.0);
        let fwd = AllocFlow {
            links: directed_links(&t, &[a, b]).unwrap(),
            demand: None,
        };
        let rev = AllocFlow {
            links: directed_links(&t, &[b, a]).unwrap(),
            demand: None,
        };
        let rates = max_min_allocation(&t, &[fwd, rev]);
        assert!((rates[0] - 10.0).abs() < 1e-9);
        assert!((rates[1] - 10.0).abs() < 1e-9);
    }

    #[test]
    fn empty_flow_set() {
        let t = global_p4_lab();
        assert!(max_min_allocation(&t, &[]).is_empty());
    }

    #[test]
    fn classic_three_flow_two_link_example() {
        // Chain a-b-c, both links 10: long flow a-c competes on both,
        // short flows a-b and b-c. Max-min: all get 5.
        let mut t = Topology::new();
        let a = t.add_node("a", NodeKind::Core);
        let b = t.add_node("b", NodeKind::Core);
        let c = t.add_node("c", NodeKind::Core);
        t.add_link(a, b, 10.0, 1.0);
        t.add_link(b, c, 10.0, 1.0);
        let flows = vec![
            AllocFlow {
                links: directed_links(&t, &[a, b, c]).unwrap(),
                demand: None,
            },
            AllocFlow {
                links: directed_links(&t, &[a, b]).unwrap(),
                demand: None,
            },
            AllocFlow {
                links: directed_links(&t, &[b, c]).unwrap(),
                demand: None,
            },
        ];
        let rates = max_min_allocation(&t, &flows);
        for r in &rates {
            assert!((r - 5.0).abs() < 1e-9, "{rates:?}");
        }
    }

    #[test]
    fn heterogeneous_chain_gives_maxmin_not_equal_split() {
        // a-b at 10, b-c at 4: the long flow a-c freezes at the b-c
        // bottleneck (4), after which the short a-b flow takes the
        // leftover 6 — the defining max-min property.
        let mut t = Topology::new();
        let a = t.add_node("a", NodeKind::Core);
        let b = t.add_node("b", NodeKind::Core);
        let c = t.add_node("c", NodeKind::Core);
        t.add_link(a, b, 10.0, 1.0);
        t.add_link(b, c, 4.0, 1.0);
        let flows = vec![
            AllocFlow {
                links: directed_links(&t, &[a, b, c]).unwrap(),
                demand: None,
            },
            AllocFlow {
                links: directed_links(&t, &[a, b]).unwrap(),
                demand: None,
            },
        ];
        let rates = max_min_allocation(&t, &flows);
        assert!((rates[0] - 4.0).abs() < 1e-9, "{rates:?}");
        assert!((rates[1] - 6.0).abs() < 1e-9, "{rates:?}");
    }
}
