//! Incremental shared-link water-fill: the million-flow control plane.
//!
//! [`crate::optimizer::assign_flows_shared`] recomputes the entire
//! max-min matrix on every call — fine for hundreds of flows, hopeless
//! for 100k. This module keeps a *standing* max-min solution over a
//! [`SharedLinkModel`] and patches it: flow arrivals, departures,
//! reroutes, demand changes and headroom changes re-water-fill only the
//! affected links' saturation sets, mirroring the component-local
//! re-solve `netsim::FairShareEngine` proved out for the event core.
//! The full recompute stays available as the audited fallback
//! ([`SharedWaterfill::full_rates`] / [`SharedWaterfill::audit`]).
//!
//! # The bit-identity contract
//!
//! Unlike the netsim engine (which pins incremental ≡ full only to a
//! float tolerance), this engine is *canonical*: every committed rate
//! is a pure function of the saturation structure, independent of how
//! the solver got there.
//!
//! * Per-round link shares are always computed fresh as
//!   `(headroom − Σ determined member rates) / active count`, with the
//!   sum taken over the link's full member set in flow-id order —
//!   never by decrementing a running residual. A member whose rate is
//!   not yet determined contributes nothing, so the float accumulation
//!   order of the determined subset is identical whether the other
//!   members are "active in this solve" or "pinned from a previous
//!   solve". (The fill caches each link's sum between rounds, but only
//!   re-uses it while no member's determined state changed — a cache
//!   hit returns the exact bits the full re-summation would.)
//! * The expansion scan compares water levels **bitwise** (no epsilon):
//!   after a restricted solve, each touched link's canonical joint
//!   level `λ = (headroom − Σ below-level rates) / |at-level members|`
//!   is recomputed, and any outside member whose pinned rate differs
//!   from the level it would get in a full recompute joins the
//!   component for the next iteration. The fixpoint is therefore
//!   exactly the full-recompute solution, bit for bit — pinned by the
//!   `incremental_waterfill` proptest.
//!
//! Fast paths (a demand-limited arrival under slack links, a zero-rate
//! departure) skip the solve entirely; both are exact, not
//! approximate, because the skipped solve would assign the same bits.
//!
//! # Why the hot paths are arrays, not maps
//!
//! At 100k standing flows a backbone link carries thousands of member
//! flows, and every solve walks the touched links' full member sets
//! (the canonical sums above demand it). Pointer-chasing a
//! `BTreeSet<u64>` per member and a `BTreeMap` per rate lookup put a
//! ~100 ns constant on each visit — the difference between a sub-ms
//! and a 100 ms tick. So flows live in a dense slot arena
//! (`ids: id → slot` is consulted once per *event*, never per member)
//! and each link's member list is a flow-id-sorted `Vec<(id, slot)>`:
//! every canonical walk is a contiguous scan with indexed loads, and
//! the id ordering the contract sums in is the Vec order itself.
//! Patches also *pre-seed* the at-level peers of any saturated link
//! they touch (arrival, growth, reroute — not just release), so the
//! common squeeze converges in one restricted solve instead of paying
//! a full expansion iteration to discover those peers.

use crate::optimizer::SharedLinkModel;
use netsim::{WaterfillMetrics, WaterfillStats};
use std::collections::{BTreeMap, BTreeSet};

/// Slack margin for the *fast-path gates only* (never for rates): a
/// demand-limited arrival takes the fast path when every link keeps
/// more than this much spare beyond the demand.
const EPS: f64 = 1e-9;

/// Restricted-solve iterations before escalating to the full flow set.
const MAX_EXPANSIONS: usize = 8;

/// Demand-limited freeze tolerance inside the fill, identical to the
/// legacy progressive water-fill's freeze test so both describe the
/// same structure.
const DEMAND_TOL: f64 = 1e-12;

#[derive(Debug, Clone)]
struct WfFlow {
    tunnel: usize,
    demand: Option<f64>,
    rate: f64,
}

impl WfFlow {
    /// Exact at-demand test: demand-limited freezes assign exactly `d`,
    /// so bitwise `>=` is the canonical membership test.
    fn at_demand(&self) -> bool {
        self.demand.is_some_and(|d| self.rate >= d)
    }
}

/// A standing incremental max-min solution over a [`SharedLinkModel`].
///
/// Flows are identified by caller-chosen `u64` ids (sorted iteration
/// order is the determinism contract). Tunnels and links are the
/// model's indices; the model's `headroom` seeds the engine's and can
/// be patched per-link afterwards with
/// [`SharedWaterfill::set_headroom`].
#[derive(Debug)]
pub struct SharedWaterfill {
    headroom: Vec<f64>,
    tunnel_links: Vec<Vec<usize>>,
    /// Flow id → arena slot; the only per-event map lookup.
    ids: BTreeMap<u64, u32>,
    /// Dense flow arena; freed slots are recycled via `free`.
    slots: Vec<WfFlow>,
    free: Vec<u32>,
    /// Per link: `(id, slot)` members sorted by flow id — the canonical
    /// summation order, walked contiguously.
    members: Vec<Vec<(u64, u32)>>,
    seeds: BTreeSet<u64>,
    changed: BTreeMap<u64, f64>,
    /// Cached Σ member rates per link (flow-id order), for the O(1)
    /// fast-path residual gate. Recomputed canonically on read when
    /// dirty — never drifts.
    used_cache: Vec<f64>,
    used_dirty: Vec<bool>,
    /// Slot → position in the current solve's `order`, `-1` outside it.
    /// A reusable scratch so membership tests in the solver hot loops
    /// are indexed loads, not map probes; entries are reset on solve
    /// exit.
    scratch_pos: Vec<i32>,
    stats: WaterfillMetrics,
}

/// What one restricted fill produced, alongside the pre-solve link
/// statistics its build walk collected for free.
struct FillOutcome {
    /// `(flow, rate)` for the solved set, flow-id order.
    rates: BTreeMap<u64, f64>,
    /// Links picked as bottlenecks, with their frozen share.
    picked: BTreeMap<usize, f64>,
    /// The same rates by `order` position, for O(1) overlay lookups.
    by_pos: Vec<f64>,
    /// Per touched link: pre-solve `(Σ member rates, max member rate)`
    /// — the canonical id-order sum and the water-level anchor, both
    /// computed in the same walk that classified the members.
    pre: BTreeMap<usize, (f64, f64)>,
}

impl SharedWaterfill {
    /// A fresh engine over the model's links and tunnels, no flows yet.
    pub fn new(model: &SharedLinkModel) -> Self {
        let links = model.headroom.len();
        SharedWaterfill {
            headroom: model.headroom.clone(),
            tunnel_links: model.tunnel_links.clone(),
            ids: BTreeMap::new(),
            slots: Vec::new(),
            free: Vec::new(),
            members: vec![Vec::new(); links],
            seeds: BTreeSet::new(),
            changed: BTreeMap::new(),
            used_cache: vec![0.0; links],
            used_dirty: vec![false; links],
            scratch_pos: Vec::new(),
            stats: WaterfillMetrics::default(),
        }
    }

    /// Number of links.
    pub fn link_count(&self) -> usize {
        self.headroom.len()
    }

    /// Number of tunnels.
    pub fn tunnel_count(&self) -> usize {
        self.tunnel_links.len()
    }

    /// Number of managed flows.
    pub fn flow_count(&self) -> usize {
        self.ids.len()
    }

    /// Registers a flow on `tunnel`. `demand: None` = greedy.
    /// Re-inserting an existing id replaces it.
    ///
    /// Fast path, proven exact by the max-min certificate: a
    /// demand-limited arrival whose every link keeps spare capacity
    /// beyond the demand saturates nothing, so no other flow's
    /// certificate link changes and the arrival's own rate is exactly
    /// its demand — the same bits a solve would assign.
    ///
    /// # Panics
    /// Panics when `tunnel` is out of range — a wiring bug, like
    /// handing `with_tunnel_caps` the wrong cap count.
    pub fn insert(&mut self, id: u64, tunnel: usize, demand: Option<f64>) {
        assert!(
            tunnel < self.tunnel_links.len(),
            "tunnel index out of range"
        );
        if self.ids.contains_key(&id) {
            self.remove(id);
        }
        let links = self.tunnel_links[tunnel].clone();
        let fast = demand.is_some_and(|d| links.iter().all(|&l| self.residual(l) > d + EPS));
        let rate = if fast {
            // detlint: allow(bare-panic) — `fast` implies `demand.is_some()` one line up.
            demand.expect("fast implies demand")
        } else {
            0.0
        };
        if !fast {
            // Pre-seed the squeeze: an arrival that will contend on a
            // saturated link pulls that link's at-level peers into the
            // same solve, so the restricted solve converges without an
            // expansion iteration discovering them.
            self.level_seeds(&links, id);
        }
        let slot = match self.free.pop() {
            Some(s) => {
                self.slots[s as usize] = WfFlow {
                    tunnel,
                    demand,
                    rate,
                };
                s
            }
            None => {
                self.slots.push(WfFlow {
                    tunnel,
                    demand,
                    rate,
                });
                (self.slots.len() - 1) as u32
            }
        };
        for &l in &links {
            let mem = &mut self.members[l];
            let pos = mem.partition_point(|&(m, _)| m < id);
            mem.insert(pos, (id, slot));
            self.used_dirty[l] = true;
        }
        self.ids.insert(id, slot);
        if fast {
            self.stats.fast_path_events.inc();
            self.changed.insert(id, rate);
        } else {
            self.seeds.insert(id);
        }
    }

    /// Unregisters a flow, seeding neighbors entitled to grow into the
    /// capacity it releases. A zero-rate departure releases nothing and
    /// skips the solve — the departure fast path.
    pub fn remove(&mut self, id: u64) {
        let Some(slot) = self.ids.get(&id).copied() else {
            return;
        };
        let f = self.slots[slot as usize].clone();
        let links = self.tunnel_links[f.tunnel].clone();
        if f.rate > 0.0 {
            self.level_seeds(&links, id);
        } else {
            self.stats.fast_path_events.inc();
        }
        for &l in &links {
            let mem = &mut self.members[l];
            if let Ok(pos) = mem.binary_search_by_key(&id, |&(m, _)| m) {
                mem.remove(pos);
            }
            self.used_dirty[l] = true;
        }
        self.ids.remove(&id);
        self.free.push(slot);
        self.seeds.remove(&id);
        self.changed.remove(&id);
    }

    /// Reroutes a flow onto a new tunnel, seeding both the release side
    /// and the flow itself.
    ///
    /// # Panics
    /// Panics when `tunnel` is out of range (wiring bug).
    pub fn set_tunnel(&mut self, id: u64, tunnel: usize) {
        assert!(
            tunnel < self.tunnel_links.len(),
            "tunnel index out of range"
        );
        let Some(slot) = self.ids.get(&id).copied() else {
            return;
        };
        let f = self.slots[slot as usize].clone();
        if f.tunnel == tunnel {
            return;
        }
        let old_links = self.tunnel_links[f.tunnel].clone();
        if f.rate > 0.0 {
            self.level_seeds(&old_links, id);
        }
        for &l in &old_links {
            let mem = &mut self.members[l];
            if let Ok(pos) = mem.binary_search_by_key(&id, |&(m, _)| m) {
                mem.remove(pos);
            }
            self.used_dirty[l] = true;
        }
        let new_links = self.tunnel_links[tunnel].clone();
        // Pre-seed the landing side's at-level peers too — the arrival
        // squeeze, same as a fresh insert on a saturated tunnel.
        self.level_seeds(&new_links, id);
        for &l in &new_links {
            let mem = &mut self.members[l];
            let pos = mem.partition_point(|&(m, _)| m < id);
            mem.insert(pos, (id, slot));
            self.used_dirty[l] = true;
        }
        let f = &mut self.slots[slot as usize];
        f.tunnel = tunnel;
        f.rate = 0.0;
        self.seeds.insert(id);
    }

    /// Changes a flow's offered load (`None` = greedy). Both directions
    /// seed the flow's saturated links' at-level peers: shrinking below
    /// the current rate releases capacity they are entitled to grow
    /// into, growing squeezes them — either way they belong in the same
    /// restricted solve.
    pub fn set_demand(&mut self, id: u64, demand: Option<f64>) {
        let Some(slot) = self.ids.get(&id).copied() else {
            return;
        };
        if self.slots[slot as usize].demand == demand {
            return;
        }
        let links = self.tunnel_links[self.slots[slot as usize].tunnel].clone();
        self.level_seeds(&links, id);
        self.slots[slot as usize].demand = demand;
        self.seeds.insert(id);
    }

    /// Changes a link's headroom; all its member flows re-solve.
    ///
    /// # Panics
    /// Panics when `link` is out of range (wiring bug).
    pub fn set_headroom(&mut self, link: usize, mbps: f64) {
        assert!(link < self.headroom.len(), "link index out of range");
        if self.headroom[link] == mbps {
            return;
        }
        self.headroom[link] = mbps;
        self.seeds
            .extend(self.members[link].iter().map(|&(m, _)| m));
    }

    /// Re-solves everything the batched patches since the last resolve
    /// touched, returning `(flow, new rate)` for every flow whose rate
    /// changed — sorted by flow id.
    pub fn resolve(&mut self) -> Vec<(u64, f64)> {
        let seeds = std::mem::take(&mut self.seeds);
        let comp: BTreeSet<u64> = seeds
            .into_iter()
            .filter(|id| self.ids.contains_key(id))
            .collect();
        if !comp.is_empty() {
            self.solve(comp);
        }
        std::mem::take(&mut self.changed).into_iter().collect()
    }

    /// Current rate of a flow.
    pub fn rate(&self, id: u64) -> Option<f64> {
        self.ids.get(&id).map(|&s| self.slots[s as usize].rate)
    }

    /// The tunnel a flow currently sits on (for diff-patching a
    /// standing engine against a freshly decided placement).
    pub fn tunnel_of(&self, id: u64) -> Option<usize> {
        self.ids.get(&id).map(|&s| self.slots[s as usize].tunnel)
    }

    /// A flow's current elastic demand (`Some(None)` = present and
    /// greedy, `None` = unknown flow).
    pub fn demand_of(&self, id: u64) -> Option<Option<f64>> {
        self.ids.get(&id).map(|&s| self.slots[s as usize].demand)
    }

    /// All `(flow, rate)` pairs, sorted by flow id.
    pub fn rates(&self) -> Vec<(u64, f64)> {
        self.ids
            .iter()
            .map(|(id, &s)| (*id, self.slots[s as usize].rate))
            .collect()
    }

    /// The audited fallback: a from-scratch canonical water-fill over
    /// every flow, ignoring (and not touching) the standing solution.
    /// [`SharedWaterfill::resolve`] must always land on exactly these
    /// bits — that is the incremental ≡ recompute contract.
    pub fn full_rates(&self) -> Vec<(u64, f64)> {
        let order: Vec<u64> = self.ids.keys().copied().collect();
        let order_slots: Vec<u32> = order.iter().map(|id| self.ids[id]).collect();
        let mut pos = vec![-1i32; self.slots.len()];
        for (i, &s) in order_slots.iter().enumerate() {
            pos[s as usize] = i as i32;
        }
        let out = self.fill(&order, &order_slots, &pos);
        out.rates.into_iter().collect()
    }

    /// `true` when the standing solution equals the full recompute bit
    /// for bit. Call after [`SharedWaterfill::resolve`].
    pub fn audit(&self) -> bool {
        self.rates()
            .into_iter()
            .zip(self.full_rates())
            .all(|((ia, ra), (ib, rb))| ia == ib && ra.to_bits() == rb.to_bits())
    }

    /// Audit counters (a snapshot; the live instruments are
    /// [`SharedWaterfill::metrics`]).
    pub fn stats(&self) -> WaterfillStats {
        self.stats.snapshot()
    }

    /// The live `obsv` instruments — register under
    /// `framework.waterfill.incremental` via [`WaterfillMetrics::register`].
    pub fn metrics(&self) -> &WaterfillMetrics {
        &self.stats
    }

    /// Remaining capacity of `link` under current rates. Canonical on
    /// every read: the cache is recomputed (full member sum in id
    /// order) whenever a member's rate or the membership changed.
    fn residual(&mut self, link: usize) -> f64 {
        if self.used_dirty[link] {
            self.used_cache[link] = self.members[link]
                .iter()
                .map(|&(_, s)| self.slots[s as usize].rate)
                .sum();
            self.used_dirty[link] = false;
        }
        self.headroom[link] - self.used_cache[link]
    }

    /// Seeds the at-level members of each saturated link in `links`
    /// (excluding `skip`) — the flows a patch at that link squeezes or
    /// releases, depending on the direction of the change. Unsaturated
    /// links constrain nobody and skip through.
    fn level_seeds(&mut self, links: &[usize], skip: u64) {
        for &l in links {
            let mut used = 0.0;
            let mut level = f64::NEG_INFINITY;
            for &(_, s) in &self.members[l] {
                let r = self.slots[s as usize].rate;
                used += r;
                level = level.max(r);
            }
            if self.headroom[l] - used > EPS {
                continue;
            }
            for &(m, s) in &self.members[l] {
                if m == skip {
                    continue;
                }
                let mf = &self.slots[s as usize];
                if !mf.at_demand() && mf.rate >= level {
                    self.seeds.insert(m);
                }
            }
        }
    }

    fn solve(&mut self, mut comp: BTreeSet<u64>) {
        let mut iterations = 0usize;
        loop {
            let full = iterations >= MAX_EXPANSIONS || comp.len() * 2 > self.ids.len();
            if full {
                comp = self.ids.keys().copied().collect();
            }
            let order: Vec<u64> = comp.iter().copied().collect();
            let order_slots: Vec<u32> = order.iter().map(|id| self.ids[id]).collect();
            // Publish slot → order position into the reusable scratch so
            // every membership test below is an indexed load. Comp only
            // grows across iterations (and a full solve covers every
            // flow), so the next iteration's pass overwrites every entry
            // this one set; explicit reset happens only on return.
            if self.scratch_pos.len() < self.slots.len() {
                self.scratch_pos.resize(self.slots.len(), -1);
            }
            for (i, &s) in order_slots.iter().enumerate() {
                self.scratch_pos[s as usize] = i as i32;
            }
            let out = self.fill(&order, &order_slots, &self.scratch_pos);
            if full {
                self.stats.full_solves.inc();
                self.commit(&out.rates);
                for &s in &order_slots {
                    self.scratch_pos[s as usize] = -1;
                }
                return;
            }
            // Per-link rate delta of the solved set, for the O(comp)
            // overload estimate below. Gate only, never a rate: its EPS
            // slack absorbs the float drift vs a canonical re-summation.
            let mut delta: BTreeMap<usize, f64> = BTreeMap::new();
            for (i, &s) in order_slots.iter().enumerate() {
                let f = &self.slots[s as usize];
                let d = out.by_pos[i] - f.rate;
                for &l in &self.tunnel_links[f.tunnel] {
                    *delta.entry(l).or_insert(0.0) += d;
                }
            }
            // Expansion scan, rate comparisons bitwise: join every
            // outside member whose pinned rate differs from what the
            // full recompute would assign at this link. Slack links
            // (no pre-solve saturation, not picked) classify nobody and
            // skip without a member walk — backbone trunks with
            // headroom never pay it.
            let mut joins: BTreeSet<u64> = BTreeSet::new();
            for (&l, &(pre_used, pre_max)) in &out.pre {
                let rate_now = |s: u32| match self.scratch_pos[s as usize] {
                    p if p >= 0 => out.by_pos[p as usize],
                    _ => self.slots[s as usize].rate,
                };
                let est = pre_used + delta.get(&l).copied().unwrap_or(0.0);
                if self.headroom[l] - est < -EPS {
                    // Overload safety net: pull everyone in.
                    joins.extend(
                        self.members[l]
                            .iter()
                            .filter(|&&(_, s)| self.scratch_pos[s as usize] < 0)
                            .map(|&(m, _)| m),
                    );
                    continue;
                }
                // Level anchor: the *lower* of the pre-solve level and
                // this solve's picked level, so both squeezed (level
                // fell) and lifted (level rose) members classify as
                // at-level.
                let saturated = !self.members[l].is_empty() && self.headroom[l] - pre_used <= EPS;
                let level = match (saturated.then_some(pre_max), out.picked.get(&l)) {
                    (Some(p), Some(n)) => Some(p.min(*n)),
                    (Some(p), None) => Some(p),
                    (None, Some(n)) => Some(*n),
                    (None, None) => None,
                };
                let Some(level) = level else {
                    continue;
                };
                // Canonical joint level over the at-level members —
                // exactly the share a full recompute computes when it
                // picks this link as a bottleneck.
                let mut below_sum = 0.0;
                let mut at_level = 0usize;
                for &(_, s) in &self.members[l] {
                    let r = rate_now(s);
                    let capped = self.slots[s as usize].demand.is_some_and(|d| r >= d);
                    if !capped && r >= level {
                        at_level += 1;
                    } else {
                        below_sum += r;
                    }
                }
                if at_level == 0 {
                    continue;
                }
                let joint = ((self.headroom[l] - below_sum).max(0.0)) / at_level as f64;
                let lam_mismatch = out.picked.get(&l).is_some_and(|lam| *lam != joint);
                for &(m, s) in &self.members[l] {
                    if self.scratch_pos[s as usize] >= 0 {
                        continue;
                    }
                    let r = self.slots[s as usize].rate;
                    let capped = self.slots[s as usize].demand.is_some_and(|d| r >= d);
                    let at = !capped && r >= level;
                    if r > joint || (at && (joint != r || lam_mismatch)) {
                        joins.insert(m);
                    }
                }
            }
            if joins.is_empty() {
                self.stats.incremental_solves.inc();
                self.commit(&out.rates);
                for &s in &order_slots {
                    self.scratch_pos[s as usize] = -1;
                }
                return;
            }
            self.stats.expansions.inc();
            comp.extend(joins);
            iterations += 1;
        }
    }

    fn commit(&mut self, new_rates: &BTreeMap<u64, f64>) {
        for (id, r) in new_rates {
            // detlint: allow(bare-panic) — the fill only rates flows it was handed.
            let slot = *self.ids.get(id).expect("solved flows exist");
            let f = &mut self.slots[slot as usize];
            if f.rate != *r {
                f.rate = *r;
                self.changed.insert(*id, *r);
                for &l in &self.tunnel_links[f.tunnel] {
                    self.used_dirty[l] = true;
                }
            }
        }
    }

    /// The canonical water-fill restricted to `order` (every other
    /// flow's rate is pinned): global demand-limited freezing first,
    /// otherwise the bottleneck link's active members freeze at the
    /// minimum share, ties to the smallest link index. Per-round link
    /// shares are recomputed fresh from the full member set in flow-id
    /// order — see the module docs for why that makes the result a
    /// pure function of the saturation structure. Between rounds each
    /// link's `(used, active)` is cached and re-summed only when one of
    /// its members froze, which is bit-identical to re-summing every
    /// round (no member state changed means the same walk yields the
    /// same bits) and turns the per-round cost from O(all touched
    /// members) into O(members of links whose state moved).
    fn fill(&self, order: &[u64], order_slots: &[u32], pos: &[i32]) -> FillOutcome {
        let n = order.len();
        let mut rates = vec![0.0f64; n];
        let mut frozen = vec![false; n];
        // Per touched link: members in id order, inside flows by
        // position, outside flows by pinned rate — plus the cached
        // canonical (used, active) for the current frozen state.
        enum Member {
            In(usize),
            Out(f64),
        }
        struct LinkState {
            mem: Vec<Member>,
            used: f64,
            active: usize,
            dirty: bool,
        }
        // The tunnel (hence link set) of each inside flow, for dirtying
        // its links when it freezes.
        let mut flow_tunnel = vec![0usize; n];
        let mut links: BTreeMap<usize, LinkState> = BTreeMap::new();
        let mut pre: BTreeMap<usize, (f64, f64)> = BTreeMap::new();
        for (i, &slot) in order_slots.iter().enumerate() {
            let f = &self.slots[slot as usize];
            flow_tunnel[i] = f.tunnel;
            let tunnel_links = &self.tunnel_links[f.tunnel];
            if tunnel_links.is_empty() {
                frozen[i] = true;
                rates[i] = f.demand.unwrap_or(0.0);
                continue;
            }
            for &l in tunnel_links {
                if links.contains_key(&l) {
                    continue;
                }
                // One fused walk per link: member classification plus
                // the pre-solve canonical Σ rates and water level the
                // expansion scan anchors on.
                let mut used = 0.0f64;
                let mut level = f64::NEG_INFINITY;
                let mem = self.members[l]
                    .iter()
                    .map(|&(_, s)| {
                        let mf = &self.slots[s as usize];
                        used += mf.rate;
                        level = level.max(mf.rate);
                        match pos[s as usize] {
                            p if p >= 0 => Member::In(p as usize),
                            _ => Member::Out(mf.rate),
                        }
                    })
                    .collect();
                pre.insert(l, (used, level));
                links.insert(
                    l,
                    LinkState {
                        mem,
                        used: 0.0,
                        active: 0,
                        dirty: true,
                    },
                );
            }
        }
        let mut picked: BTreeMap<usize, f64> = BTreeMap::new();
        let mut unfrozen = frozen.iter().filter(|f| !**f).count();
        for _round in 0..n + links.len() + 1 {
            if unfrozen == 0 {
                break;
            }
            let mut min_share = f64::INFINITY;
            let mut min_link: Option<usize> = None;
            for (l, ls) in links.iter_mut() {
                if ls.dirty {
                    // The canonical full re-summation, id order.
                    let mut used = 0.0;
                    let mut active = 0usize;
                    for m in &ls.mem {
                        match m {
                            Member::Out(r) => used += r,
                            Member::In(pos) => {
                                if frozen[*pos] {
                                    used += rates[*pos];
                                } else {
                                    active += 1;
                                }
                            }
                        }
                    }
                    ls.used = used;
                    ls.active = active;
                    ls.dirty = false;
                }
                if ls.active == 0 {
                    continue;
                }
                let share = (self.headroom[*l] - ls.used).max(0.0) / ls.active as f64;
                let better = match min_link {
                    None => true,
                    Some(k) => share < min_share || (share == min_share && *l < k),
                };
                if better {
                    min_share = share;
                    min_link = Some(*l);
                }
            }
            let Some(bottleneck) = min_link else { break };
            let mut froze: Vec<usize> = Vec::new();
            let demand_limited: Vec<usize> = (0..n)
                .filter(|&i| {
                    !frozen[i]
                        && self.slots[order_slots[i] as usize]
                            .demand
                            .is_some_and(|d| d <= min_share + DEMAND_TOL)
                })
                .collect();
            if demand_limited.is_empty() {
                picked.insert(bottleneck, min_share);
                // Collecting first releases the `links` borrow before
                // the dirtying pass below.
                let at_bottleneck: Vec<usize> = links[&bottleneck]
                    .mem
                    .iter()
                    .filter_map(|m| match m {
                        Member::In(pos) if !frozen[*pos] => Some(*pos),
                        _ => None,
                    })
                    .collect();
                for pos in at_bottleneck {
                    frozen[pos] = true;
                    rates[pos] = min_share;
                    froze.push(pos);
                }
            } else {
                for i in demand_limited {
                    frozen[i] = true;
                    rates[i] = self.slots[order_slots[i] as usize]
                        .demand
                        // detlint: allow(bare-panic) — membership required demand above.
                        .expect("checked demand-limited");
                    froze.push(i);
                }
            }
            unfrozen -= froze.len();
            for i in froze {
                for l in &self.tunnel_links[flow_tunnel[i]] {
                    if let Some(ls) = links.get_mut(l) {
                        ls.dirty = true;
                    }
                }
            }
        }
        FillOutcome {
            rates: order.iter().copied().zip(rates.iter().copied()).collect(),
            picked,
            by_pos: rates,
            pre,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::optimizer::SharedLinkModel;

    /// Two pairs, two tunnels each; tunnels 1 and 2 share link 2.
    fn model() -> SharedLinkModel {
        SharedLinkModel::new(
            vec![20.0, 10.0, 10.0, 20.0, 10.0],
            vec![vec![0], vec![1, 2], vec![2, 3], vec![4]],
            vec![vec![0, 1], vec![2, 3]],
        )
    }

    #[test]
    fn greedy_flows_split_a_shared_link() {
        let mut wf = SharedWaterfill::new(&model());
        wf.insert(1, 1, None);
        wf.insert(2, 2, None);
        let rates: BTreeMap<u64, f64> = wf.resolve().into_iter().collect();
        assert_eq!(rates[&1], 5.0);
        assert_eq!(rates[&2], 5.0);
        assert!(wf.audit());
    }

    #[test]
    fn demand_limited_arrival_takes_the_fast_path() {
        let mut wf = SharedWaterfill::new(&model());
        wf.insert(1, 0, Some(3.0));
        assert_eq!(wf.resolve(), vec![(1, 3.0)]);
        assert_eq!(wf.stats().fast_path_events, 1);
        assert_eq!(wf.stats().incremental_solves + wf.stats().full_solves, 0);
        assert!(wf.audit());
    }

    #[test]
    fn departure_releases_capacity_to_the_level_peers() {
        let mut wf = SharedWaterfill::new(&model());
        wf.insert(1, 1, None);
        wf.insert(2, 2, None);
        wf.resolve();
        wf.remove(1);
        let rates: BTreeMap<u64, f64> = wf.resolve().into_iter().collect();
        assert_eq!(rates[&2], 10.0);
        assert!(wf.audit());
    }

    #[test]
    fn demand_ramp_patches_in_place() {
        let mut wf = SharedWaterfill::new(&model());
        wf.insert(1, 1, Some(2.0));
        wf.insert(2, 2, None);
        wf.resolve();
        assert_eq!(wf.rate(1), Some(2.0));
        assert_eq!(wf.rate(2), Some(8.0));
        // Ramp the mouse up: now both contend for link 2's 10 Mb/s.
        wf.set_demand(1, Some(6.0));
        let rates: BTreeMap<u64, f64> = wf.resolve().into_iter().collect();
        assert_eq!(rates[&1], 5.0);
        assert_eq!(rates[&2], 5.0);
        assert!(wf.audit());
        // Ramp back down: peer reclaims the release.
        wf.set_demand(1, Some(1.0));
        let rates: BTreeMap<u64, f64> = wf.resolve().into_iter().collect();
        assert_eq!(rates[&1], 1.0);
        assert_eq!(rates[&2], 9.0);
        assert!(wf.audit());
    }

    #[test]
    fn reroute_moves_the_contention() {
        let mut wf = SharedWaterfill::new(&model());
        wf.insert(1, 1, None);
        wf.insert(2, 2, None);
        wf.resolve();
        wf.set_tunnel(1, 0);
        let rates: BTreeMap<u64, f64> = wf.resolve().into_iter().collect();
        assert_eq!(rates[&1], 20.0);
        assert_eq!(rates[&2], 10.0);
        assert!(wf.audit());
    }

    #[test]
    fn headroom_change_reflows_members() {
        let mut wf = SharedWaterfill::new(&model());
        wf.insert(1, 1, None);
        wf.insert(2, 2, None);
        wf.resolve();
        wf.set_headroom(2, 4.0);
        let rates: BTreeMap<u64, f64> = wf.resolve().into_iter().collect();
        assert_eq!(rates[&1], 2.0);
        assert_eq!(rates[&2], 2.0);
        assert!(wf.audit());
    }

    #[test]
    fn no_link_is_oversubscribed() {
        let mut wf = SharedWaterfill::new(&model());
        for id in 0..12u64 {
            wf.insert(
                id,
                (id % 4) as usize,
                if id % 3 == 0 { None } else { Some(1.5) },
            );
        }
        wf.resolve();
        let mut used = [0.0f64; 5];
        for (id, r) in wf.rates() {
            for &l in &model().tunnel_links[(id % 4) as usize] {
                used[l] += r;
            }
        }
        for (l, u) in used.iter().enumerate() {
            assert!(
                *u <= model().headroom[l] + 1e-6,
                "link {l} oversubscribed: {u}"
            );
        }
        assert!(wf.audit());
    }

    #[test]
    fn slot_recycling_survives_churn() {
        // Arena slots are recycled through the free list; a departing
        // id must never alias a survivor's rate or membership.
        let mut wf = SharedWaterfill::new(&model());
        wf.insert(1, 1, None);
        wf.insert(2, 2, None);
        wf.resolve();
        wf.remove(1);
        wf.insert(3, 1, Some(2.0));
        wf.resolve();
        assert_eq!(wf.rate(1), None);
        assert_eq!(wf.rate(3), Some(2.0));
        assert_eq!(wf.tunnel_of(3), Some(1));
        assert_eq!(wf.flow_count(), 2);
        assert!(wf.audit());
    }
}
