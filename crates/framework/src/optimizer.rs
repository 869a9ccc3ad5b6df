//! The Optimizer: objective functions and the flow→tunnel assignment
//! search — per-tunnel bottleneck for a single managed pair, and the
//! **link-level shared-capacity engine** for a traffic matrix of pairs.
//!
//! "The path QoS estimations are sent to the Optimizer, which selects the
//! optimal route based on the defined objective function."
//!
//! The paper's testbed manages one ingress/egress pair over mutually
//! disjoint tunnels, so a tunnel is fully described by one bottleneck
//! capacity and [`assign_flows`] searches over those. With **N managed
//! pairs** the candidate tunnels of different pairs overlap on shared
//! links, which breaks the bottleneck-per-tunnel model: two tunnels'
//! "capacities" may be the *same* physical headroom counted twice. The
//! [`SharedLinkModel`] therefore decomposes every candidate tunnel into
//! its directed links, tracks residual headroom per link, and
//! [`assign_flows_shared`] water-fills flows across pairs so that **no
//! shared link is ever oversubscribed** (exhaustive placement for small
//! batches, online greedy for large ones — mirroring the single-pair
//! engine's split). A single-pair network keeps calling
//! [`assign_flows`], so its decisions stay bit-for-bit identical.

use crate::hecate::PathForecast;
use crate::{FrameworkError, PairId};

/// Objective functions the framework supports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Objective {
    /// Minimize predicted/measured RTT (Experiment 1).
    MinLatency,
    /// Maximize predicted available bandwidth (Experiment 2).
    MaxBandwidth,
    /// Minimize the maximum predicted link utilization (Sec. III).
    MinMaxUtilization,
}

/// Picks the best single path for a new flow given per-path forecasts of
/// the relevant metric (RTT for [`Objective::MinLatency`], available
/// bandwidth otherwise).
pub fn select_path(
    objective: Objective,
    forecasts: &[PathForecast],
) -> Result<&PathForecast, FrameworkError> {
    if forecasts.is_empty() {
        return Err(FrameworkError::NoFeasiblePath);
    }
    let best = match objective {
        Objective::MinLatency => forecasts
            .iter()
            .min_by(|a, b| a.mean().total_cmp(&b.mean())),
        Objective::MaxBandwidth => forecasts
            .iter()
            .max_by(|a, b| a.mean().total_cmp(&b.mean())),
        Objective::MinMaxUtilization => forecasts.iter().max_by(|a, b| a.min().total_cmp(&b.min())),
    };
    best.ok_or(FrameworkError::NoFeasiblePath)
}

/// An assignment of flows to tunnels (flow `i` → tunnel index
/// `assignment[i]`).
#[derive(Debug, Clone, PartialEq)]
pub struct Assignment {
    /// Per-flow tunnel index (into the capacities slice).
    pub tunnel_of_flow: Vec<usize>,
    /// Predicted aggregate throughput under the single-bottleneck model.
    pub predicted_total: f64,
    /// Predicted rate of the worst-off flow (the fairness tie-breaker:
    /// among equal-total assignments, nobody gets starved — e.g. parked
    /// on a zero-capacity tunnel).
    pub predicted_min_rate: f64,
}

/// Exhaustively searches the flow→tunnel assignment maximizing predicted
/// aggregate throughput under a single-bottleneck-per-tunnel model:
/// flows on tunnel `t` share `capacity[t]`, so a used tunnel contributes
/// `min(capacity[t], sum of member demands or capacity)`.
///
/// This reproduces the paper's Experiment-2 decision: with three greedy
/// flows and predicted capacities 20/10/5, the optimum is one flow per
/// tunnel (total 35) rather than all on the fattest (20).
///
/// Flows' demands: `None` = greedy.
pub fn assign_flows(
    capacities: &[f64],
    demands: &[Option<f64>],
) -> Result<Assignment, FrameworkError> {
    let k = capacities.len();
    let n = demands.len();
    if k == 0 || n == 0 {
        return Err(FrameworkError::NoFeasiblePath);
    }
    // Exhaustive over k^n assignments: callers with more flows than
    // that bound go through the controller's greedy fallback.
    let fits = u32::try_from(n)
        .ok()
        .and_then(|n| k.checked_pow(n))
        .is_some_and(|space| space <= 1_000_000);
    if !fits {
        return Err(FrameworkError::NoFeasiblePath);
    }
    let mut best: Option<Assignment> = None;
    let mut counter = vec![0usize; n];
    loop {
        let (total, min_rate) = score_assignment(capacities, demands, &counter);
        let better = match &best {
            None => true,
            Some(b) => {
                let total_tie = (total - b.predicted_total).abs() <= 1e-12;
                let rate_tie = (min_rate - b.predicted_min_rate).abs() <= 1e-12;
                total > b.predicted_total + 1e-12
                    || (total_tie && min_rate > b.predicted_min_rate + 1e-12)
                    // Full tie: prefer the lexicographically smallest
                    // vector — earlier flows stay on earlier tunnels,
                    // matching the paper's "one flow moves to tunnel 2
                    // and another to tunnel 3" (flow 1 stays put).
                    || (total_tie && rate_tie && counter < b.tunnel_of_flow)
            }
        };
        if better {
            best = Some(Assignment {
                tunnel_of_flow: counter.clone(),
                predicted_total: total,
                predicted_min_rate: min_rate,
            });
        }
        // increment the mixed-radix counter
        let mut pos = 0;
        loop {
            if pos == n {
                return best.ok_or(FrameworkError::NoFeasiblePath);
            }
            counter[pos] += 1;
            if counter[pos] < k {
                break;
            }
            counter[pos] = 0;
            pos += 1;
        }
    }
}

/// Predicted `(total throughput, minimum per-flow rate)` of an
/// assignment under the single-bottleneck model.
#[allow(clippy::needless_range_loop)] // tunnel index addresses capacities and membership together
fn score_assignment(
    capacities: &[f64],
    demands: &[Option<f64>],
    assignment: &[usize],
) -> (f64, f64) {
    let k = capacities.len();
    let mut total = 0.0;
    let mut min_rate = f64::INFINITY;
    for t in 0..k {
        let members: Vec<usize> = (0..demands.len()).filter(|&i| assignment[i] == t).collect();
        if members.is_empty() {
            continue;
        }
        // max-min share within the tunnel: greedy flows split what
        // demand-limited flows leave behind.
        let cap = capacities[t];
        let mut limited: Vec<f64> = Vec::new();
        let mut greedy = 0usize;
        for &i in &members {
            match demands[i] {
                Some(d) => limited.push(d),
                None => greedy += 1,
            }
        }
        let mut used: f64 = 0.0;
        // demand-limited flows get min(demand, fair share) — approximate
        // by water-filling inside the tunnel
        limited.sort_by(|a, b| a.total_cmp(b));
        let mut remaining = cap;
        let mut remaining_members = limited.len() + greedy;
        for d in limited {
            let fair = remaining / remaining_members as f64;
            let got = d.min(fair);
            min_rate = min_rate.min(got);
            used += got;
            remaining -= got;
            remaining_members -= 1;
        }
        if greedy > 0 {
            min_rate = min_rate.min(remaining / greedy as f64);
            used += remaining; // greedy flows consume the rest
        }
        total += used.min(cap);
    }
    if !min_rate.is_finite() {
        min_rate = 0.0;
    }
    (total, min_rate)
}

/// A managed flow presented to the shared-link assignment engine: which
/// pair it belongs to (selecting its candidate tunnel set) and its
/// offered load (`None` = greedy).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FlowDemand {
    /// The managed pair the flow travels on.
    pub pair: PairId,
    /// Offered load in Mbps; `None` = greedy.
    pub demand: Option<f64>,
}

/// The link-level capacity model the multi-pair optimizer assigns over.
///
/// * `headroom[l]` — residual Mbps available to managed traffic on
///   directed link `l` (from telemetry / control-plane state);
/// * `tunnel_links[t]` — candidate tunnel `t` decomposed into the
///   indices of the directed links it crosses (tunnels of *different*
///   pairs may share entries — that sharing is the whole point);
/// * `candidates[p]` — the global tunnel indices pair `p` may use
///   (disjoint within the pair, overlapping across pairs).
///
/// Per-tunnel *forecast* caps are folded in as synthetic private links
/// via [`SharedLinkModel::with_tunnel_caps`], so one water-fill respects
/// both shared physical headroom and Hecate's predictions.
#[derive(Debug, Clone, PartialEq)]
pub struct SharedLinkModel {
    /// Residual headroom per directed link (Mbps).
    pub headroom: Vec<f64>,
    /// Tunnel index → directed-link indices (into `headroom`).
    pub tunnel_links: Vec<Vec<usize>>,
    /// Pair index → candidate tunnel indices.
    pub candidates: Vec<Vec<usize>>,
    /// How many leading entries of `headroom` are physical links; the
    /// rest are synthetic per-tunnel forecast caps.
    pub real_links: usize,
}

impl SharedLinkModel {
    /// A model over physical links only (no forecast caps yet).
    pub fn new(
        headroom: Vec<f64>,
        tunnel_links: Vec<Vec<usize>>,
        candidates: Vec<Vec<usize>>,
    ) -> Self {
        let real_links = headroom.len();
        SharedLinkModel {
            headroom,
            tunnel_links,
            candidates,
            real_links,
        }
    }

    /// Folds per-tunnel forecast capacities into the model as one
    /// synthetic private link per tunnel: tunnel `t`'s flows are then
    /// capped both by every shared physical link *and* by Hecate's
    /// predicted capacity `caps[t]`, under the same water-fill.
    ///
    /// # Panics
    /// Panics when `caps` is not one capacity per tunnel, or when caps
    /// were already folded in (stacking a second set of synthetic links
    /// would silently double-cap every tunnel).
    pub fn with_tunnel_caps(mut self, caps: &[f64]) -> Self {
        assert_eq!(caps.len(), self.tunnel_links.len(), "one cap per tunnel");
        assert_eq!(
            self.headroom.len(),
            self.real_links,
            "forecast caps already folded into this model"
        );
        for (t, cap) in caps.iter().enumerate() {
            let idx = self.headroom.len();
            self.headroom.push(cap.max(0.0));
            self.tunnel_links[t].push(idx);
        }
        self
    }
}

/// A multi-pair assignment: per-flow tunnel choice plus the predicted
/// max-min rates the water-fill scored it with.
#[derive(Debug, Clone, PartialEq)]
pub struct SharedAssignment {
    /// Flow `i` → global tunnel index (into the model's `tunnel_links`).
    pub tunnel_of_flow: Vec<usize>,
    /// Predicted per-flow rate under the shared-link water-fill; the
    /// rates respect every link's headroom by construction.
    pub rate_of_flow: Vec<f64>,
    /// Sum of predicted rates.
    pub predicted_total: f64,
    /// Predicted rate of the worst-off flow (fairness tie-breaker).
    pub predicted_min_rate: f64,
}

/// Exhaustive search is `∏ |candidates(pair)|` *water-fills* — each one
/// a multi-round pass over every flow's links, an order of magnitude
/// costlier than the single-pair engine's closed-form tunnel scoring —
/// so the cutover to the online greedy placement sits lower than the
/// legacy engine's `100_000`-assignment bound (e.g. a 16-pair tick with
/// 2 candidates each, 2^16 assignments, goes greedy).
const SHARED_EXHAUSTIVE_BOUND: u64 = 10_000;

/// Which placement search [`assign_flows_shared_with`] ran.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SolverKind {
    /// Mixed-radix enumeration of every assignment.
    Exhaustive,
    /// Online greedy water-fill placement.
    Greedy,
}

impl SolverKind {
    /// Stable label, recorded as the `decide.solve` span's `solver` arg.
    pub fn label(self) -> &'static str {
        match self {
            SolverKind::Exhaustive => "exhaustive",
            SolverKind::Greedy => "greedy",
        }
    }
}

/// Tuning knobs for the shared-link optimizer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OptimizerConfig {
    /// Assignment-space ceiling for the exhaustive placement search:
    /// batches with `∏ |candidates(pair)|` at or below this run
    /// [`SolverKind::Exhaustive`], larger batches fall back to
    /// [`SolverKind::Greedy`]. The default (10 000) keeps a 13-pair /
    /// 2-candidate tick exhaustive and sends anything bigger greedy;
    /// raise it to buy placement quality with CPU, or drop it to 0 to
    /// force greedy everywhere.
    pub exhaustive_bound: u64,
}

impl Default for OptimizerConfig {
    fn default() -> Self {
        OptimizerConfig {
            exhaustive_bound: SHARED_EXHAUSTIVE_BOUND,
        }
    }
}

/// Assigns every flow to one of its pair's candidate tunnels so that
/// the **sum of predicted rates never exceeds any directed link's
/// headroom** — the invariant the bottleneck-per-tunnel model cannot
/// provide once candidate tunnels overlap across pairs.
///
/// Small batches are placed exhaustively (maximize predicted total,
/// then worst-off flow rate, then lexicographically-earliest choice —
/// the single-pair engine's tie-break, so earlier flows stay on earlier
/// tunnels); large batches fall back to an online greedy water-fill.
/// Either way the returned rates come from one final canonical max-min
/// fill over the chosen assignment, so the no-oversubscription
/// invariant holds exactly.
pub fn assign_flows_shared(
    model: &SharedLinkModel,
    flows: &[FlowDemand],
) -> Result<SharedAssignment, FrameworkError> {
    assign_flows_shared_with(model, flows, &OptimizerConfig::default()).map(|(a, _)| a)
}

/// [`assign_flows_shared`] with explicit [`OptimizerConfig`] knobs,
/// also reporting which placement search ran (the `decide.solve` span
/// records it).
pub fn assign_flows_shared_with(
    model: &SharedLinkModel,
    flows: &[FlowDemand],
    config: &OptimizerConfig,
) -> Result<(SharedAssignment, SolverKind), FrameworkError> {
    if flows.is_empty() || model.tunnel_links.is_empty() {
        return Err(FrameworkError::NoFeasiblePath);
    }
    for f in flows {
        if model
            .candidates
            .get(f.pair.index())
            .is_none_or(|c| c.is_empty())
        {
            return Err(FrameworkError::NoFeasiblePath);
        }
    }
    let space = flows.iter().try_fold(1u64, |acc, f| {
        acc.checked_mul(model.candidates[f.pair.index()].len() as u64)
    });
    let (choice, solver) = match space {
        Some(s) if s <= config.exhaustive_bound => {
            (exhaustive_shared(model, flows), SolverKind::Exhaustive)
        }
        _ => (greedy_shared(model, flows), SolverKind::Greedy),
    };
    let (rate_of_flow, predicted_total, predicted_min_rate) = shared_rates(model, flows, &choice);
    Ok((
        SharedAssignment {
            tunnel_of_flow: choice,
            rate_of_flow,
            predicted_total,
            predicted_min_rate,
        },
        solver,
    ))
}

/// Exhaustive placement: mixed-radix enumeration over each flow's
/// candidate list, scored by [`shared_rates`].
fn exhaustive_shared(model: &SharedLinkModel, flows: &[FlowDemand]) -> Vec<usize> {
    let n = flows.len();
    let radix: Vec<&[usize]> = flows
        .iter()
        .map(|f| model.candidates[f.pair.index()].as_slice())
        .collect();
    let mut counter = vec![0usize; n];
    let mut best: Option<(Vec<usize>, f64, f64)> = None;
    loop {
        let choice: Vec<usize> = counter.iter().zip(&radix).map(|(&c, r)| r[c]).collect();
        let (_, total, min_rate) = shared_rates(model, flows, &choice);
        let better = match &best {
            None => true,
            Some((b_choice, b_total, b_min)) => {
                let total_tie = (total - b_total).abs() <= 1e-12;
                let rate_tie = (min_rate - b_min).abs() <= 1e-12;
                total > b_total + 1e-12
                    || (total_tie && min_rate > b_min + 1e-12)
                    || (total_tie && rate_tie && choice < *b_choice)
            }
        };
        if better {
            best = Some((choice, total, min_rate));
        }
        // increment the mixed-radix counter
        let mut pos = 0;
        loop {
            if pos == n {
                return best.expect("at least one assignment scored").0;
            }
            counter[pos] += 1;
            if counter[pos] < radix[pos].len() {
                break;
            }
            counter[pos] = 0;
            pos += 1;
        }
    }
}

/// Online greedy placement for huge batches: each flow takes the
/// candidate tunnel currently offering it the best estimated share
/// (demand-limited flows reserve their demand on every crossed link,
/// greedy flows split residuals evenly). O(flows × tunnels × links).
fn greedy_shared(model: &SharedLinkModel, flows: &[FlowDemand]) -> Vec<usize> {
    let mut reserved = vec![0.0f64; model.headroom.len()];
    let mut greedy_count = vec![0usize; model.headroom.len()];
    let mut choice = Vec::with_capacity(flows.len());
    for f in flows {
        let share = |t: usize| -> f64 {
            model.tunnel_links[t]
                .iter()
                .map(|&l| {
                    let residual = (model.headroom[l] - reserved[l]).max(0.0);
                    let split = residual / (greedy_count[l] + 1) as f64;
                    match f.demand {
                        Some(d) => d.min(split),
                        None => split,
                    }
                })
                .fold(f64::INFINITY, f64::min)
        };
        let best = model.candidates[f.pair.index()]
            .iter()
            .copied()
            .max_by(|&a, &b| share(a).total_cmp(&share(b)))
            .expect("candidate sets validated non-empty");
        for &l in &model.tunnel_links[best] {
            match f.demand {
                Some(d) => reserved[l] += d,
                None => greedy_count[l] += 1,
            }
        }
        choice.push(best);
    }
    choice
}

/// Max-min rates of one concrete assignment — one from-scratch fill
/// of the canonical engine ([`netsim::waterfill::max_min_rates`]), so
/// the sum of returned rates respects every link's headroom and a
/// standing [`netsim::Waterfill`] holding the same flows under ids
/// `0, 1, …` lands on the same bits. Returns `(rates, total, min)`.
fn shared_rates(
    model: &SharedLinkModel,
    flows: &[FlowDemand],
    choice: &[usize],
) -> (Vec<f64>, f64, f64) {
    let rate = netsim::waterfill::max_min_rates(
        &model.headroom,
        flows
            .iter()
            .zip(choice)
            .map(|(f, &t)| (model.tunnel_links[t].as_slice(), f.demand)),
    );
    let total = rate.iter().sum();
    let min_rate = rate.iter().copied().fold(f64::INFINITY, f64::min);
    (
        rate,
        total,
        if min_rate.is_finite() { min_rate } else { 0.0 },
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn forecast(path: &str, values: Vec<f64>) -> PathForecast {
        PathForecast {
            path: path.to_string(),
            values,
        }
    }

    #[test]
    fn min_latency_picks_smallest_mean() {
        let fs = vec![
            forecast("t1", vec![58.0, 60.0]),
            forecast("t2", vec![16.0, 17.0]),
        ];
        let best = select_path(Objective::MinLatency, &fs).unwrap();
        assert_eq!(best.path, "t2");
    }

    #[test]
    fn max_bandwidth_picks_largest_mean() {
        let fs = vec![
            forecast("t1", vec![20.0]),
            forecast("t2", vec![10.0]),
            forecast("t3", vec![5.0]),
        ];
        assert_eq!(
            select_path(Objective::MaxBandwidth, &fs).unwrap().path,
            "t1"
        );
    }

    #[test]
    fn min_max_utilization_prefers_stable_floor() {
        // t1 has a higher mean but a worse worst-case.
        let fs = vec![
            forecast("t1", vec![30.0, 1.0]),
            forecast("t2", vec![12.0, 11.0]),
        ];
        assert_eq!(
            select_path(Objective::MinMaxUtilization, &fs).unwrap().path,
            "t2"
        );
    }

    #[test]
    fn empty_forecasts_error() {
        assert!(select_path(Objective::MaxBandwidth, &[]).is_err());
    }

    #[test]
    fn fig12_assignment_is_one_flow_per_tunnel() {
        // Predicted capacities 20/10/5, three greedy flows: the optimum
        // uses all three tunnels (35 total), not all-on-tunnel1 (20).
        let a = assign_flows(&[20.0, 10.0, 5.0], &[None, None, None]).unwrap();
        let mut used: Vec<usize> = a.tunnel_of_flow.clone();
        used.sort_unstable();
        assert_eq!(used, vec![0, 1, 2], "each tunnel gets exactly one flow");
        assert!((a.predicted_total - 35.0).abs() < 1e-9);
    }

    #[test]
    fn all_flows_one_tunnel_scores_its_capacity() {
        let (total, _) = score_assignment(&[20.0, 10.0, 5.0], &[None, None, None], &[0, 0, 0]);
        assert!((total - 20.0).abs() < 1e-12);
    }

    #[test]
    fn demand_limited_flows_share_sensibly() {
        // Two 3 Mbps flows + one greedy on a 20 Mbps tunnel: 3+3+14.
        let (total, _) = score_assignment(&[20.0], &[Some(3.0), Some(3.0), None], &[0, 0, 0]);
        assert!((total - 20.0).abs() < 1e-12);
        // Without the greedy flow: 3 + 3 = 6.
        let (total2, _) = score_assignment(&[20.0], &[Some(3.0), Some(3.0)], &[0, 0]);
        assert!((total2 - 6.0).abs() < 1e-12);
    }

    #[test]
    fn small_demands_prefer_spreading_anyway() {
        // Two 2 Mbps flows across 20/10: any assignment delivers 4; the
        // search must still terminate and return a valid assignment.
        let a = assign_flows(&[20.0, 10.0], &[Some(2.0), Some(2.0)]).unwrap();
        assert!((a.predicted_total - 4.0).abs() < 1e-9);
    }

    #[test]
    fn empty_inputs_rejected() {
        assert!(assign_flows(&[], &[None]).is_err());
        assert!(assign_flows(&[10.0], &[]).is_err());
    }

    #[test]
    fn oversized_search_spaces_are_rejected_not_panics() {
        // 3^13 > 10^6 assignments, and 2^100 overflows u64 outright.
        assert!(assign_flows(&[20.0, 10.0, 5.0], &[None; 13]).is_err());
        assert!(assign_flows(&[20.0, 10.0], &[None; 100]).is_err());
    }

    // ---- shared-link (multi-pair) engine ----

    /// Two pairs, two tunnels each; pair 0's tunnel 1 and pair 1's
    /// tunnel 0 share the middle link (index 2).
    ///
    /// ```text
    /// link:      0     1     2      3     4
    /// headroom: 20    10    10     20    10
    /// tunnels:  [0]  [1,2] [2,3]  [4]
    /// pair 0:  t0 t1        pair 1: t2 t3
    /// ```
    fn shared_model() -> SharedLinkModel {
        SharedLinkModel::new(
            vec![20.0, 10.0, 10.0, 20.0, 10.0],
            vec![vec![0], vec![1, 2], vec![2, 3], vec![4]],
            vec![vec![0, 1], vec![2, 3]],
        )
    }

    fn greedy(pair: usize) -> FlowDemand {
        FlowDemand {
            pair: PairId(pair),
            demand: None,
        }
    }

    /// The invariant the whole refactor exists for: on every directed
    /// link, the sum of assigned rates never exceeds the headroom.
    fn assert_no_oversubscription(model: &SharedLinkModel, flows: &[FlowDemand]) {
        let a = assign_flows_shared(model, flows).unwrap();
        let mut used = vec![0.0f64; model.headroom.len()];
        for (i, &t) in a.tunnel_of_flow.iter().enumerate() {
            for &l in &model.tunnel_links[t] {
                used[l] += a.rate_of_flow[i];
            }
        }
        for (l, (&u, &h)) in used.iter().zip(&model.headroom).enumerate() {
            assert!(
                u <= h + 1e-9,
                "link {l} oversubscribed: {u} > {h} (assignment {a:?})"
            );
        }
    }

    #[test]
    fn shared_engine_never_oversubscribes_a_shared_link() {
        let model = shared_model();
        // Greedy flows on both pairs: the optimum avoids piling both
        // pairs onto the shared link 2.
        assert_no_oversubscription(&model, &[greedy(0), greedy(1)]);
        assert_no_oversubscription(&model, &[greedy(0), greedy(0), greedy(1), greedy(1)]);
        // Demand-limited mixes.
        assert_no_oversubscription(
            &model,
            &[
                FlowDemand {
                    pair: PairId(0),
                    demand: Some(7.0),
                },
                greedy(1),
                FlowDemand {
                    pair: PairId(1),
                    demand: Some(30.0), // more than any path carries
                },
            ],
        );
        // Large batch: the greedy fallback must hold the invariant too
        // (2^40 assignments overflow the exhaustive bound).
        let many: Vec<FlowDemand> = (0..40).map(|i| greedy(i % 2)).collect();
        assert_no_oversubscription(&model, &many);
    }

    #[test]
    fn shared_engine_routes_pairs_around_contention() {
        // One greedy flow per pair. Piling both onto tunnels sharing
        // link 2 (t1 + t2) yields 10 total; keeping pair 0 on t0 (20)
        // and pair 1 on either of its tunnels (10) yields 30. Among the
        // 30-total optima the tie-break keeps the lexicographically
        // earliest choice, [t0, t2].
        let a = assign_flows_shared(&shared_model(), &[greedy(0), greedy(1)]).unwrap();
        assert_eq!(a.tunnel_of_flow, vec![0, 2]);
        assert!((a.predicted_total - 30.0).abs() < 1e-9, "{a:?}");
    }

    #[test]
    fn shared_engine_respects_candidate_sets() {
        // Every flow must land on a tunnel its own pair declared.
        let model = shared_model();
        let flows: Vec<FlowDemand> = (0..6).map(|i| greedy(i % 2)).collect();
        let a = assign_flows_shared(&model, &flows).unwrap();
        for (f, &t) in flows.iter().zip(&a.tunnel_of_flow) {
            assert!(
                model.candidates[f.pair.index()].contains(&t),
                "flow of {:?} landed on foreign tunnel {t}",
                f.pair
            );
        }
    }

    #[test]
    fn shared_engine_single_pair_matches_bottleneck_engine() {
        // One pair over disjoint tunnels is exactly the legacy model:
        // the link-level search must pick the same spread (one flow per
        // tunnel, Fig 12) with the same predicted total.
        let model = SharedLinkModel::new(
            vec![20.0, 10.0, 5.0],
            vec![vec![0], vec![1], vec![2]],
            vec![vec![0, 1, 2]],
        );
        let flows = [greedy(0), greedy(0), greedy(0)];
        let shared = assign_flows_shared(&model, &flows).unwrap();
        let legacy = assign_flows(&[20.0, 10.0, 5.0], &[None, None, None]).unwrap();
        assert_eq!(shared.tunnel_of_flow, legacy.tunnel_of_flow);
        assert!((shared.predicted_total - legacy.predicted_total).abs() < 1e-9);
    }

    #[test]
    fn forecast_caps_bind_through_synthetic_links() {
        // Physical headroom says 20, the forecast says tunnel 0 only
        // carries 4: the water-fill must honor the tighter cap and send
        // the greedy flow to tunnel 1 instead.
        let model =
            SharedLinkModel::new(vec![20.0, 10.0], vec![vec![0], vec![1]], vec![vec![0, 1]])
                .with_tunnel_caps(&[4.0, 9.0]);
        assert_eq!(model.real_links, 2);
        let a = assign_flows_shared(&model, &[greedy(0)]).unwrap();
        assert_eq!(a.tunnel_of_flow, vec![1]);
        assert!((a.predicted_total - 9.0).abs() < 1e-9, "{a:?}");
    }

    #[test]
    fn shared_engine_rejects_bad_inputs() {
        let model = shared_model();
        assert!(assign_flows_shared(&model, &[]).is_err());
        // Unknown pair index.
        assert!(assign_flows_shared(&model, &[greedy(7)]).is_err());
        // A pair with an empty candidate set.
        let empty = SharedLinkModel::new(vec![10.0], vec![vec![0]], vec![vec![]]);
        assert!(assign_flows_shared(&empty, &[greedy(0)]).is_err());
    }

    #[test]
    fn water_fill_is_max_min_fair_on_a_shared_bottleneck() {
        // Three greedy flows forced through one 12 Mbps link: 4 each.
        let model = SharedLinkModel::new(vec![12.0], vec![vec![0]], vec![vec![0]]);
        let flows = [greedy(0), greedy(0), greedy(0)];
        let a = assign_flows_shared(&model, &flows).unwrap();
        for r in &a.rate_of_flow {
            assert!((r - 4.0).abs() < 1e-9, "{a:?}");
        }
        assert!((a.predicted_min_rate - 4.0).abs() < 1e-9);
        // A demand-limited flow leaves its spare share to the greedy.
        let mixed = [
            FlowDemand {
                pair: PairId(0),
                demand: Some(2.0),
            },
            greedy(0),
        ];
        let a = assign_flows_shared(&model, &mixed).unwrap();
        assert!((a.rate_of_flow[0] - 2.0).abs() < 1e-9, "{a:?}");
        assert!((a.rate_of_flow[1] - 10.0).abs() < 1e-9, "{a:?}");
    }
}
