//! The canonical max-min water-fill: the one engine behind every
//! max-min rate in the workspace.
//!
//! Links are dense indices with a headroom each; flows are caller-chosen
//! `u64` ids, each registered with its own link list. The simulator's
//! [`crate::FairShareEngine`] registers a path's directed links
//! (`2·link + direction`), the controller a tunnel's links, and
//! [`max_min_rates`] runs one from-scratch fill over scratch input (the
//! one-shot [`crate::fairness::max_min_allocation`] and the optimizer's
//! placement scoring).
//!
//! A [`Waterfill`] keeps a *standing* max-min solution and patches it:
//! flow arrivals, departures, reroutes, demand changes and headroom
//! changes re-water-fill only the affected links' saturation sets. The
//! full recompute stays available as the audited reference
//! ([`Waterfill::full_rates`] / [`Waterfill::audit`]).
//!
//! # The bit-identity contract
//!
//! The fill is *canonical*: every committed rate is a pure function of
//! the saturation structure, independent of how the solver got there.
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
//! ~100 ns constant on each visit. So flows live in a dense slot arena
//! (`ids: id → slot` is consulted once per *event*, never per member)
//! and each link's member list is a flow-id-sorted `Vec<(id, slot)>`:
//! every canonical walk is a contiguous scan with indexed loads, and
//! the id ordering the contract sums in is the Vec order itself.
//! Patches also *pre-seed* the at-level peers of any saturated link
//! they touch (arrival, growth, reroute — not just release), so the
//! common squeeze converges in one restricted solve instead of paying
//! a full expansion iteration to discover those peers.

use std::collections::{BTreeMap, BTreeSet};

/// Slack margin for the *fast-path gates only* (never for rates): a
/// demand-limited arrival takes the fast path when every link keeps
/// more than this much spare beyond the demand.
const EPS: f64 = 1e-9;

/// Restricted-solve iterations before escalating to the full flow set.
const MAX_EXPANSIONS: usize = 8;

/// Demand-limited freeze tolerance inside the fill: a flow whose demand
/// is within this of the round's water level freezes at its demand.
const DEMAND_TOL: f64 = 1e-12;

/// Audit counters for the incremental fill: how often the restricted
/// solve sufficed versus escalating to a full water-fill.
///
/// This is a point-in-time *snapshot* of [`WaterfillMetrics`] — the
/// live storage is `obsv` counters, shared with any attached metrics
/// registry; this plain struct remains the stable accessor type.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct WaterfillStats {
    /// Restricted (component-local) solves that converged.
    pub incremental_solves: u64,
    /// Solves that escalated to the full flow set (audited fallback).
    pub full_solves: u64,
    /// Component-expansion iterations across all solves.
    pub expansions: u64,
    /// Events absorbed with no water-fill at all (e.g. a demand-limited
    /// arrival onto links with spare capacity).
    pub fast_path_events: u64,
}

/// The live audit instruments behind [`WaterfillStats`]: `obsv`
/// counters, so a scenario's metrics registry can watch the engine
/// without the engine knowing about snapshots or epochs.
#[derive(Debug, Clone, Default)]
pub struct WaterfillMetrics {
    /// Restricted solves that converged.
    pub incremental_solves: obsv::Counter,
    /// Escalations to the full flow set.
    pub full_solves: obsv::Counter,
    /// Component-expansion iterations.
    pub expansions: obsv::Counter,
    /// Events absorbed with no water-fill.
    pub fast_path_events: obsv::Counter,
}

impl WaterfillMetrics {
    /// Current values as a plain struct.
    pub fn snapshot(&self) -> WaterfillStats {
        WaterfillStats {
            incremental_solves: self.incremental_solves.get(),
            full_solves: self.full_solves.get(),
            expansions: self.expansions.get(),
            fast_path_events: self.fast_path_events.get(),
        }
    }

    /// Exposes the live counters in `registry` under
    /// `{prefix}.{field}` (e.g. `netsim.waterfill.expansions`).
    pub fn register(&self, registry: &obsv::Registry, prefix: &str) {
        registry.adopt_counter(
            &format!("{prefix}.incremental_solves"),
            &self.incremental_solves,
        );
        registry.adopt_counter(&format!("{prefix}.full_solves"), &self.full_solves);
        registry.adopt_counter(&format!("{prefix}.expansions"), &self.expansions);
        registry.adopt_counter(
            &format!("{prefix}.fast_path_events"),
            &self.fast_path_events,
        );
    }
}

#[derive(Debug, Clone, Default)]
struct WfFlow {
    links: Vec<usize>,
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

/// One from-scratch canonical fill over scratch input: flow `i` crosses
/// the links of the `i`-th item (indices into `headroom`) and offers
/// its demand (`None` = greedy). Returns one rate per flow, in input
/// order — the same bits a [`Waterfill`] holding these flows under ids
/// `0, 1, …` settles on.
///
/// # Panics
/// Panics when a link index is out of range (wiring bug).
pub fn max_min_rates<'a>(
    headroom: &[f64],
    flows: impl IntoIterator<Item = (&'a [usize], Option<f64>)>,
) -> Vec<f64> {
    let mut wf = Waterfill::new(headroom.to_vec());
    for (i, (links, demand)) in flows.into_iter().enumerate() {
        wf.attach(i as u64, links, demand, 0.0);
    }
    wf.full_rates().into_iter().map(|(_, r)| r).collect()
}

/// A standing incremental max-min solution over dense links.
///
/// Flows are identified by caller-chosen `u64` ids (sorted iteration
/// order is the determinism contract) and each carries its own link
/// list. The headroom handed to [`Waterfill::new`] can be patched
/// per-link afterwards with [`Waterfill::set_headroom`].
#[derive(Debug, Default)]
pub struct Waterfill {
    headroom: Vec<f64>,
    /// Flow id → arena slot; the only per-event map lookup.
    ids: BTreeMap<u64, u32>,
    /// Dense flow arena; freed slots are recycled via `free`.
    slots: Vec<WfFlow>,
    free: Vec<u32>,
    /// Per link: `(id, slot)` members sorted by flow id — the canonical
    /// summation order, walked contiguously.
    members: Vec<Vec<(u64, u32)>>,
    seeds: BTreeSet<u64>,
    /// Rate each flow held before its first change since the last
    /// resolve (0 for arrivals) — what `resolve` reports against.
    before: BTreeMap<u64, f64>,
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
    /// Links picked as bottlenecks, with their frozen share.
    picked: BTreeMap<usize, f64>,
    /// The solved rates by `order` position.
    by_pos: Vec<f64>,
    /// Per touched link: pre-solve `(Σ member rates, max member rate)`
    /// — the canonical id-order sum and the water-level anchor, both
    /// computed in the same walk that classified the members.
    pre: BTreeMap<usize, (f64, f64)>,
}

impl Waterfill {
    /// A fresh engine over `headroom.len()` links, no flows yet.
    pub fn new(headroom: Vec<f64>) -> Self {
        let links = headroom.len();
        Waterfill {
            headroom,
            members: vec![Vec::new(); links],
            used_cache: vec![0.0; links],
            used_dirty: vec![false; links],
            ..Self::default()
        }
    }

    /// Number of links.
    pub fn link_count(&self) -> usize {
        self.headroom.len()
    }

    /// Appends a link with `headroom`, returning its index.
    pub fn add_link(&mut self, headroom: f64) -> usize {
        self.headroom.push(headroom);
        self.members.push(Vec::new());
        self.used_cache.push(0.0);
        self.used_dirty.push(false);
        self.headroom.len() - 1
    }

    /// Number of flows.
    pub fn flow_count(&self) -> usize {
        self.ids.len()
    }

    /// Registers a flow crossing `links`. `demand: None` = greedy.
    /// Re-inserting an existing id replaces it.
    ///
    /// Fast path, proven exact by the max-min certificate: a
    /// demand-limited arrival whose every link keeps spare capacity
    /// beyond the demand saturates nothing, so no other flow's
    /// certificate link changes and the arrival's own rate is exactly
    /// its demand — the same bits a solve would assign.
    ///
    /// # Panics
    /// Panics when a link index is out of range (wiring bug).
    pub fn insert(&mut self, id: u64, links: &[usize], demand: Option<f64>) {
        self.check_links(links);
        if self.ids.contains_key(&id) {
            self.remove(id);
        }
        let fast = demand.is_some_and(|d| links.iter().all(|&l| self.residual(l) > d + EPS));
        if fast {
            // detlint: allow(bare-panic) — `fast` implies `demand.is_some()` one line up.
            let rate = demand.expect("fast implies demand");
            self.attach(id, links, demand, rate);
            self.stats.fast_path_events.inc();
            self.before.entry(id).or_insert(0.0);
        } else {
            // Pre-seed the squeeze: an arrival that will contend on a
            // saturated link pulls that link's at-level peers into the
            // same solve, so the restricted solve converges without an
            // expansion iteration discovering them.
            self.level_seeds(links, id);
            self.attach(id, links, demand, 0.0);
            self.seeds.insert(id);
        }
    }

    /// Unregisters a flow, seeding neighbors entitled to grow into the
    /// capacity it releases. A zero-rate departure releases nothing and
    /// skips the solve — the departure fast path.
    pub fn remove(&mut self, id: u64) {
        let Some(slot) = self.ids.remove(&id) else {
            return;
        };
        let links = std::mem::take(&mut self.slots[slot as usize].links);
        if self.slots[slot as usize].rate > 0.0 {
            self.level_seeds(&links, id);
        } else {
            self.stats.fast_path_events.inc();
        }
        self.detach(id, &links);
        self.free.push(slot);
        self.seeds.remove(&id);
        self.before.remove(&id);
    }

    /// Reroutes a flow onto `links`, seeding both the release side and
    /// the flow itself. An unchanged link list is a no-op.
    ///
    /// # Panics
    /// Panics when a link index is out of range (wiring bug).
    pub fn set_links(&mut self, id: u64, links: &[usize]) {
        self.check_links(links);
        let Some(slot) = self.ids.get(&id).copied() else {
            return;
        };
        if self.slots[slot as usize].links == links {
            return;
        }
        let old_links = std::mem::take(&mut self.slots[slot as usize].links);
        let old_rate = self.slots[slot as usize].rate;
        if old_rate > 0.0 {
            self.level_seeds(&old_links, id);
        }
        self.detach(id, &old_links);
        // Pre-seed the landing side's at-level peers too — the arrival
        // squeeze, same as a fresh insert on a saturated path.
        self.level_seeds(links, id);
        self.join(id, slot, links);
        // The flow re-enters the fill from zero, like an arrival.
        let f = &mut self.slots[slot as usize];
        f.links = links.to_vec();
        f.rate = 0.0;
        self.before.entry(id).or_insert(old_rate);
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
        let links = std::mem::take(&mut self.slots[slot as usize].links);
        self.level_seeds(&links, id);
        let f = &mut self.slots[slot as usize];
        f.links = links;
        f.demand = demand;
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
        std::mem::take(&mut self.before)
            .into_iter()
            .filter_map(|(id, was)| {
                let now = self.rate(id)?;
                (now != was).then_some((id, now))
            })
            .collect()
    }

    /// Current rate of a flow.
    pub fn rate(&self, id: u64) -> Option<f64> {
        self.ids.get(&id).map(|&s| self.slots[s as usize].rate)
    }

    /// The links a flow currently crosses (for diff-patching a standing
    /// engine against a freshly decided placement).
    pub fn links_of(&self, id: u64) -> Option<&[usize]> {
        self.ids
            .get(&id)
            .map(|&s| self.slots[s as usize].links.as_slice())
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

    /// The audited reference: a from-scratch canonical water-fill over
    /// every flow, ignoring (and not touching) the standing solution.
    /// [`Waterfill::resolve`] must always land on exactly these bits —
    /// that is the incremental ≡ recompute contract.
    pub fn full_rates(&self) -> Vec<(u64, f64)> {
        let order: Vec<u64> = self.ids.keys().copied().collect();
        let order_slots: Vec<u32> = self.ids.values().copied().collect();
        let mut pos = vec![-1i32; self.slots.len()];
        for (i, &s) in order_slots.iter().enumerate() {
            pos[s as usize] = i as i32;
        }
        let out = self.fill(&order_slots, &pos);
        order.into_iter().zip(out.by_pos).collect()
    }

    /// `true` when the standing solution equals the full recompute bit
    /// for bit. Call after [`Waterfill::resolve`].
    pub fn audit(&self) -> bool {
        self.rates()
            .into_iter()
            .zip(self.full_rates())
            .all(|((ia, ra), (ib, rb))| ia == ib && ra.to_bits() == rb.to_bits())
    }

    /// Audit counters (a snapshot; the live instruments are
    /// [`Waterfill::metrics`]).
    pub fn stats(&self) -> WaterfillStats {
        self.stats.snapshot()
    }

    /// The live `obsv` instruments — expose them via
    /// [`WaterfillMetrics::register`].
    pub fn metrics(&self) -> &WaterfillMetrics {
        &self.stats
    }

    fn check_links(&self, links: &[usize]) {
        assert!(
            links.iter().all(|&l| l < self.headroom.len()),
            "link index out of range"
        );
    }

    /// Stores a flow in a (recycled) slot and joins its links' member
    /// lists at its id position; no seeding, no solve.
    fn attach(&mut self, id: u64, links: &[usize], demand: Option<f64>, rate: f64) {
        let flow = WfFlow {
            links: links.to_vec(),
            demand,
            rate,
        };
        let slot = match self.free.pop() {
            Some(s) => {
                self.slots[s as usize] = flow;
                s
            }
            None => {
                self.slots.push(flow);
                (self.slots.len() - 1) as u32
            }
        };
        self.join(id, slot, links);
        self.ids.insert(id, slot);
    }

    /// Adds `(id, slot)` to the member lists of `links` at its id position.
    fn join(&mut self, id: u64, slot: u32, links: &[usize]) {
        for &l in links {
            let mem = &mut self.members[l];
            let pos = mem.partition_point(|&(m, _)| m < id);
            mem.insert(pos, (id, slot));
            self.used_dirty[l] = true;
        }
    }

    /// Drops `id` from the member lists of `links`.
    fn detach(&mut self, id: u64, links: &[usize]) {
        for &l in links {
            let mem = &mut self.members[l];
            if let Ok(pos) = mem.binary_search_by_key(&id, |&(m, _)| m) {
                mem.remove(pos);
            }
            self.used_dirty[l] = true;
        }
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
            let out = self.fill(&order_slots, &self.scratch_pos);
            if full {
                self.stats.full_solves.inc();
                self.commit(&order, &order_slots, &out.by_pos);
                return;
            }
            // Per-link rate delta of the solved set, for the O(comp)
            // overload estimate below. Gate only, never a rate: its EPS
            // slack absorbs the float drift vs a canonical re-summation.
            let mut delta: BTreeMap<usize, f64> = BTreeMap::new();
            for (i, &s) in order_slots.iter().enumerate() {
                let f = &self.slots[s as usize];
                let d = out.by_pos[i] - f.rate;
                for &l in &f.links {
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
                self.commit(&order, &order_slots, &out.by_pos);
                return;
            }
            self.stats.expansions.inc();
            comp.extend(joins);
            iterations += 1;
        }
    }

    /// Writes a solve's rates back and resets the position scratch.
    fn commit(&mut self, order: &[u64], order_slots: &[u32], rates: &[f64]) {
        for ((&id, &slot), &r) in order.iter().zip(order_slots).zip(rates) {
            self.scratch_pos[slot as usize] = -1;
            let f = &mut self.slots[slot as usize];
            if f.rate != r {
                self.before.entry(id).or_insert(f.rate);
                f.rate = r;
                for &l in &f.links {
                    self.used_dirty[l] = true;
                }
            }
        }
    }

    /// The canonical water-fill restricted to the flows in
    /// `order_slots` (every other flow's rate is pinned): global
    /// demand-limited freezing first, otherwise the bottleneck link's
    /// active members freeze at the minimum share, ties to the smallest
    /// link index. Per-round link shares are recomputed fresh from the
    /// full member set in flow-id order — see the module docs for why
    /// that makes the result a pure function of the saturation
    /// structure. Between rounds each link's `(used, active)` is cached
    /// and re-summed only when one of its members froze, which is
    /// bit-identical to re-summing every round (no member state changed
    /// means the same walk yields the same bits) and turns the
    /// per-round cost from O(all touched members) into O(members of
    /// links whose state moved).
    fn fill(&self, order_slots: &[u32], pos: &[i32]) -> FillOutcome {
        let n = order_slots.len();
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
        let mut links: BTreeMap<usize, LinkState> = BTreeMap::new();
        let mut pre: BTreeMap<usize, (f64, f64)> = BTreeMap::new();
        for (i, &slot) in order_slots.iter().enumerate() {
            let f = &self.slots[slot as usize];
            if f.links.is_empty() {
                frozen[i] = true;
                rates[i] = f.demand.unwrap_or(0.0);
                continue;
            }
            for &l in &f.links {
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
            for i in 0..n {
                if frozen[i] {
                    continue;
                }
                if let Some(d) = self.slots[order_slots[i] as usize].demand {
                    if d <= min_share + DEMAND_TOL {
                        frozen[i] = true;
                        rates[i] = d;
                        froze.push(i);
                    }
                }
            }
            if froze.is_empty() {
                picked.insert(bottleneck, min_share);
                for m in &links[&bottleneck].mem {
                    if let Member::In(pos) = m {
                        if !frozen[*pos] {
                            frozen[*pos] = true;
                            rates[*pos] = min_share;
                            froze.push(*pos);
                        }
                    }
                }
            }
            unfrozen -= froze.len();
            for i in froze {
                for l in &self.slots[order_slots[i] as usize].links {
                    if let Some(ls) = links.get_mut(l) {
                        ls.dirty = true;
                    }
                }
            }
        }
        FillOutcome {
            picked,
            by_pos: rates,
            pre,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Tunnels of two pairs over five links; tunnels 1 and 2 share
    /// link 2.
    const TUNNELS: [&[usize]; 4] = [&[0], &[1, 2], &[2, 3], &[4]];

    fn engine() -> Waterfill {
        Waterfill::new(vec![20.0, 10.0, 10.0, 20.0, 10.0])
    }

    #[test]
    fn greedy_flows_split_a_shared_link() {
        let mut wf = engine();
        wf.insert(1, TUNNELS[1], None);
        wf.insert(2, TUNNELS[2], None);
        let rates: BTreeMap<u64, f64> = wf.resolve().into_iter().collect();
        assert_eq!(rates[&1], 5.0);
        assert_eq!(rates[&2], 5.0);
        assert!(wf.audit());
    }

    #[test]
    fn demand_limited_arrival_takes_the_fast_path() {
        let mut wf = engine();
        wf.insert(1, TUNNELS[0], Some(3.0));
        assert_eq!(wf.resolve(), vec![(1, 3.0)]);
        assert_eq!(wf.stats().fast_path_events, 1);
        assert_eq!(wf.stats().incremental_solves + wf.stats().full_solves, 0);
        assert!(wf.audit());
    }

    #[test]
    fn departure_releases_capacity_to_the_level_peers() {
        let mut wf = engine();
        wf.insert(1, TUNNELS[1], None);
        wf.insert(2, TUNNELS[2], None);
        wf.resolve();
        wf.remove(1);
        let rates: BTreeMap<u64, f64> = wf.resolve().into_iter().collect();
        assert_eq!(rates[&2], 10.0);
        assert!(wf.audit());
    }

    #[test]
    fn demand_ramp_patches_in_place() {
        let mut wf = engine();
        wf.insert(1, TUNNELS[1], Some(2.0));
        wf.insert(2, TUNNELS[2], None);
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
        let mut wf = engine();
        wf.insert(1, TUNNELS[1], None);
        wf.insert(2, TUNNELS[2], None);
        wf.resolve();
        wf.set_links(1, TUNNELS[0]);
        let rates: BTreeMap<u64, f64> = wf.resolve().into_iter().collect();
        assert_eq!(rates[&1], 20.0);
        assert_eq!(rates[&2], 10.0);
        assert!(wf.audit());
    }

    #[test]
    fn reroute_onto_a_starved_link_reports_the_drop() {
        let mut wf = engine();
        wf.insert(1, TUNNELS[0], None);
        wf.resolve();
        wf.set_headroom(4, 0.0);
        wf.set_links(1, TUNNELS[3]);
        assert_eq!(wf.resolve(), vec![(1, 0.0)]);
        assert!(wf.audit());
    }

    #[test]
    fn headroom_change_reflows_members() {
        let mut wf = engine();
        wf.insert(1, TUNNELS[1], None);
        wf.insert(2, TUNNELS[2], None);
        wf.resolve();
        wf.set_headroom(2, 4.0);
        let rates: BTreeMap<u64, f64> = wf.resolve().into_iter().collect();
        assert_eq!(rates[&1], 2.0);
        assert_eq!(rates[&2], 2.0);
        assert!(wf.audit());
    }

    #[test]
    fn no_link_is_oversubscribed() {
        let mut wf = engine();
        for id in 0..12u64 {
            let demand = if id % 3 == 0 { None } else { Some(1.5) };
            wf.insert(id, TUNNELS[(id % 4) as usize], demand);
        }
        wf.resolve();
        let mut used = [0.0f64; 5];
        for (id, r) in wf.rates() {
            for &l in TUNNELS[(id % 4) as usize] {
                used[l] += r;
            }
        }
        for (l, u) in used.iter().enumerate() {
            assert!(
                u <= &(engine().headroom[l] + 1e-6),
                "link {l} oversubscribed: {u}"
            );
        }
        assert!(wf.audit());
    }

    #[test]
    fn slot_recycling_survives_churn() {
        // Arena slots are recycled through the free list; a departing
        // id must never alias a survivor's rate or membership.
        let mut wf = engine();
        wf.insert(1, TUNNELS[1], None);
        wf.insert(2, TUNNELS[2], None);
        wf.resolve();
        wf.remove(1);
        wf.insert(3, TUNNELS[1], Some(2.0));
        wf.resolve();
        assert_eq!(wf.rate(1), None);
        assert_eq!(wf.rate(3), Some(2.0));
        assert_eq!(wf.links_of(3), Some(TUNNELS[1]));
        assert_eq!(wf.flow_count(), 2);
        assert!(wf.audit());
    }

    #[test]
    fn scratch_fill_matches_the_standing_engine() {
        let flows: Vec<(&[usize], Option<f64>)> = (0..9u64)
            .map(|i| (TUNNELS[(i % 4) as usize], (i % 2 == 0).then_some(2.5)))
            .collect();
        let scratch = max_min_rates(&engine().headroom, flows.iter().copied());
        let mut wf = engine();
        for (i, &(links, demand)) in flows.iter().enumerate() {
            wf.insert(i as u64, links, demand);
        }
        wf.resolve();
        let standing: Vec<u64> = wf.rates().iter().map(|(_, r)| r.to_bits()).collect();
        let scratch: Vec<u64> = scratch.iter().map(|r| r.to_bits()).collect();
        assert_eq!(standing, scratch);
    }
}
