//! The benchmark's workloads: three scenario descriptions, each built
//! from the run's `--seed` (passed through as `Scenario.seed`), so the
//! same seed always gives the same inputs.
//!
//! Flow arrivals, demand ramps, background load and faults are all
//! scripted in simulated time: a slow controller cannot lower the load
//! it is offered (the loop is closed only in wall-clock terms — one run
//! at a time, as fast as the host allows).

use framework::OptimizerConfig;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use scenarios::events::{EventKind, EventSpec, LinkPick};
use scenarios::{FlowPlan, PlaneMode, Scenario, TopologySpec, TrafficSpec};

/// One benchmark workload.
pub struct Workload {
    /// Name passed as `--workload`.
    pub name: &'static str,
    /// Seed to quote results at.
    pub default_seed: u64,
    /// Seed kept out of tuning, for checking later claims.
    pub held_out_seed: u64,
    /// Builds the scenario for a seed.
    pub build: fn(u64) -> Scenario,
    /// Horizon scale for the self-test's short cut.
    pub smoke_factor: f64,
    /// Scenarios the end-to-end run times per seed (see
    /// [`Workload::scenarios`]).
    pub variants: u64,
}

impl Workload {
    /// The scenarios the end-to-end run times for `seed`: the seed's own
    /// scenario first, then `variants - 1` more built from seeds derived
    /// from it. A workload whose cost follows its seed-drawn graph is
    /// timed over several graphs, so one heavy or light draw moves its
    /// times less. The traced run uses the first scenario only.
    pub fn scenarios(&self, seed: u64) -> Vec<Scenario> {
        (0..self.variants)
            .map(|i| (self.build)(seed ^ i.wrapping_mul(0xa076_1d64_78bd_642f)))
            .collect()
    }
}

/// Every workload, in `BENCHMARK.json` order.
pub const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "scale1k-churn",
        default_seed: 1,
        held_out_seed: 9001,
        build: scale1k_churn,
        smoke_factor: 0.1,
        variants: 1,
    },
    Workload {
        name: "multipair-control",
        default_seed: 1,
        held_out_seed: 9002,
        build: multipair_control,
        smoke_factor: 0.2,
        variants: 4,
    },
    Workload {
        name: "packet-fattree",
        default_seed: 1,
        held_out_seed: 9003,
        build: packet_fattree,
        smoke_factor: 0.3,
        variants: 4,
    },
];

/// Looks a workload up by name.
pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// `scenarios::scale_1k()` at the run's seed: a 1000-node Waxman WAN,
/// ~100k churning elastic flows, 2 managed pairs, one link failure and
/// restore. Event dispatch and the max-min water-fill dominate.
///
/// The catalog's two managed flows (one greedy) become 48 small
/// demand-declared ones: a greedy flow's goodput is whatever its
/// seed-drawn path leaves over, which moved the quality figures by half
/// their value between seeds; 48 declared flows average it out.
pub fn scale1k_churn(seed: u64) -> Scenario {
    let mut s = scenarios::scale_1k();
    s.name = "scale1k-churn".into();
    s.flows = managed_flows(2, 24, None, (0.05, 0.2), 4, seed);
    s.seed = seed;
    s
}

/// Managed flows for `pairs` pairs, `per_pair` each, round-robin over
/// the pairs. With `greedy_every = Some(n)` every n-th flow is greedy;
/// the others declare demands evenly spread over `lo..hi` Mb/s, dealt
/// out in a seed-shuffled order — the seed moves which flow gets which
/// demand, not the demand mix, so quality figures stay comparable
/// across seeds. Arrivals are spread over the first `arrival_epochs`
/// epochs.
fn managed_flows(
    pairs: usize,
    per_pair: usize,
    greedy_every: Option<usize>,
    (lo, hi): (f64, f64),
    arrival_epochs: u64,
    seed: u64,
) -> Vec<FlowPlan> {
    let n = pairs * per_pair;
    let greedy = |i: usize| greedy_every.is_some_and(|g| i.is_multiple_of(g));
    let declared = (0..n).filter(|&i| !greedy(i)).count();
    let mut demands: Vec<f64> = (0..declared)
        .map(|j| lo + (hi - lo) * (j as f64 + 0.5) / declared as f64)
        .collect();
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed_f10a_ba5e_0001);
    for j in (1..demands.len()).rev() {
        demands.swap(j, rng.gen_range(0..=j));
    }
    let mut next = demands.into_iter();
    (0..n)
        .map(|i| FlowPlan {
            label: format!("f{i}"),
            demand_mbps: if greedy(i) { None } else { next.next() },
            start_epoch: (i / pairs) as u64 % arrival_epochs,
            pair: i % pairs,
        })
        .collect()
}

/// A 100-node Waxman WAN with 16 managed pairs (2 tunnels each) and
/// 1024 demand-declared managed flows under diurnal-gravity background,
/// a flap storm and a link failure on pair 0's primary, consulted every
/// epoch (119 consultations). Hecate forecasts and the controller's
/// shared-link placement dominate, then the runner's per-flow
/// bookkeeping.
///
/// Sizing: with greedy flows the goodput tracks each seed's graph, and
/// 2k flows at 0.05–0.2 Mb/s overloaded some seeds' graphs more than
/// others, so both quality and run time moved with the seed. 1024
/// flows at 0.025–0.1 Mb/s miss their SLO in 1.5–4.5% of flow-epochs, at
/// load peaks and faults.
///
/// Run time still follows the seed-drawn graph (30–32 tunnels, 315–445
/// links), so the end-to-end run times four variants per seed.
pub fn multipair_control(seed: u64) -> Scenario {
    let pairs = 16;
    Scenario {
        name: "multipair-control".into(),
        topology: TopologySpec::Waxman {
            n: 100,
            alpha: 0.5,
            beta: 0.15,
        },
        // Many background pairs put varying load on every tunnel, so
        // Hecate's fit work (which grows with a series' variance) is
        // alike from seed to seed.
        traffic: TrafficSpec::DiurnalGravity {
            pairs: 800,
            total_mbps: 150.0,
            amplitude: 0.6,
            period_epochs: 40.0,
        },
        events: vec![
            EventSpec {
                at_epoch: 30,
                kind: EventKind::FlapStorm {
                    link: LinkPick::PrimaryHop(1),
                    flaps: 4,
                    period_epochs: 8,
                },
            },
            EventSpec {
                at_epoch: 70,
                kind: EventKind::LinkDown {
                    link: LinkPick::PrimaryHop(2),
                    restore_after: Some(20),
                },
            },
        ],
        flows: managed_flows(pairs, 64, None, (0.025, 0.1), 8, seed),
        pairs,
        horizon_epochs: 120,
        decision_every: 1,
        k_tunnels: 2,
        slo_fraction: 0.8,
        elastic: None,
        optimizer: OptimizerConfig::default(),
        plane: PlaneMode::Fluid,
        seed,
    }
}

/// A k=8 fat-tree on the packet plane: 8 pairs × 4 flows (one greedy
/// per pair, offered at the plane's 8 Mb/s default), 4 tunnels per
/// pair, PolKA routeIDs forwarded hop by hop with proof-of-transit
/// checks, one failure and restore, a consultation every 5 epochs.
/// Packet forwarding and Hecate model refits dominate.
///
/// The graph is fixed, but the seed-drawn background moves goodput and
/// Hecate's fit work, and run time with them (about 7% between seeds
/// 12 and 15), so the end-to-end run times four variants per seed.
pub fn packet_fattree(seed: u64) -> Scenario {
    let pairs = 8;
    Scenario {
        name: "packet-fattree".into(),
        topology: TopologySpec::FatTree { k: 8 },
        traffic: TrafficSpec::Gravity {
            pairs: 48,
            total_mbps: 40.0,
        },
        events: vec![EventSpec {
            at_epoch: 20,
            kind: EventKind::LinkDown {
                link: LinkPick::PrimaryHop(1),
                restore_after: Some(10),
            },
        }],
        flows: managed_flows(pairs, 4, Some(4), (0.05, 0.2), 4, seed),
        pairs,
        horizon_epochs: 120,
        decision_every: 5,
        k_tunnels: 4,
        slo_fraction: 0.8,
        elastic: None,
        optimizer: OptimizerConfig::default(),
        plane: PlaneMode::Packet,
        seed,
    }
}
