//! Multi-pair traffic-matrix control, end to end: N managed
//! ingress/egress pairs over one shared substrate, pair-scoped
//! telemetry, per-pair candidate sets, and the shared-link optimizer's
//! no-oversubscription invariant — on both planes.

use framework::controller::{decide_flows_pairs, SequenceLog};
use framework::dataloop::DataplaneConfig;
use framework::optimizer::{
    assign_flows_shared, FlowDemand, Objective, SharedLinkModel, SolverKind,
};
use framework::scheduler::FlowRequest;
use framework::telemetry::{Metric, SeriesKey};
use framework::{HecateService, OptimizerConfig, PairId, SelfDrivingNetwork, TelemetryService};

fn two_pair_mesh() -> SelfDrivingNetwork {
    // Ring of 12 with chords: plenty of disjoint paths for both pairs.
    let topo = netsim::topo::mesh(12, 3, 10.0);
    SelfDrivingNetwork::over_topology_pairs(topo, &[("n0", "n6"), ("n3", "n9")], 2, 1).unwrap()
}

fn req(label: &str, pair: usize, demand: Option<f64>) -> FlowRequest {
    FlowRequest {
        label: label.to_string(),
        tos: 32,
        demand_mbps: demand,
        start_ms: 0,
        pair: PairId(pair),
    }
}

#[test]
fn pairs_get_scoped_walkable_tunnels_and_private_namespaces() {
    let sdn = two_pair_mesh();
    assert_eq!(sdn.pair_count(), 2);
    // Pair-scoped tunnel names, both pairs, global order = pair order.
    assert_eq!(
        sdn.tunnel_names(),
        vec!["p0/tunnel1", "p0/tunnel2", "p1/tunnel1", "p1/tunnel2"]
    );
    assert_eq!(
        sdn.pair_tunnel_names(PairId(1)).unwrap(),
        &["p1/tunnel1".to_string(), "p1/tunnel2".to_string()]
    );
    assert_eq!(sdn.pair_endpoints(PairId(0)), Some(("n0", "n6")));
    assert_eq!(sdn.pair_scope(PairId(0)), Some("p0"));
    // Every tunnel's PolKA route walks the emulated data plane.
    for name in sdn.tunnel_names() {
        let compiled = sdn.tunnel(&name).unwrap();
        let visited =
            freertr::resolve::walk_route(compiled, &sdn.sim.topo, sdn.allocator()).unwrap();
        assert_eq!(visited, compiled.node_path, "{name}");
        // The owning pair's edge knows the tunnel.
        let pair = if name.starts_with("p0") { 0 } else { 1 };
        let edge = sdn.pair_edge(PairId(pair)).unwrap();
        assert!(edge.running_config().tunnel(&name).is_some());
    }
}

#[test]
fn one_agent_per_distinct_ingress() {
    // Two pairs sharing an ingress share one freeRtr agent; their
    // scoped tunnel ids coexist on it without collision.
    let topo = netsim::topo::mesh(12, 3, 10.0);
    let sdn =
        SelfDrivingNetwork::over_topology_pairs(topo, &[("n0", "n6"), ("n0", "n4")], 2, 1).unwrap();
    let e0 = sdn.pair_edge(PairId(0)).unwrap();
    let e1 = sdn.pair_edge(PairId(1)).unwrap();
    assert_eq!(e0.name(), e1.name());
    let cfg = e0.running_config();
    assert!(cfg.tunnel("p0/tunnel1").is_some());
    assert!(cfg.tunnel("p1/tunnel1").is_some());
}

#[test]
fn telemetry_is_keyed_pair_tunnel_metric_without_aliasing() {
    let mut sdn = two_pair_mesh();
    sdn.advance(10_000).unwrap();
    // Both pairs' series exist under their scoped names and are
    // distinct stores (the collision regression: same local tunnel id,
    // different pair, different series).
    let k0 = SeriesKey::new("p0/tunnel1", Metric::AvailableBandwidth);
    let k1 = SeriesKey::new("p1/tunnel1", Metric::AvailableBandwidth);
    assert!(
        sdn.telemetry.len(&k0) >= 9,
        "have {}",
        sdn.telemetry.len(&k0)
    );
    assert!(sdn.telemetry.len(&k1) >= 9);
    // The legacy bare name must NOT exist on a multi-pair network.
    let bare = SeriesKey::new("tunnel1", Metric::AvailableBandwidth);
    assert!(sdn.telemetry.is_empty(&bare));
}

#[test]
fn flows_admit_migrate_and_reoptimize_across_pairs() {
    let mut sdn = two_pair_mesh();
    sdn.advance(30_000).unwrap(); // warm telemetry for both pairs
    let decisions = sdn
        .admit_flows(
            &[req("a", 0, None), req("b", 1, Some(3.0)), req("c", 1, None)],
            Objective::MaxBandwidth,
        )
        .unwrap();
    // Every flow lands on a tunnel of its own pair.
    assert!(decisions[0].tunnel.starts_with("p0/"));
    assert!(decisions[1].tunnel.starts_with("p1/"));
    assert!(decisions[2].tunnel.starts_with("p1/"));
    assert_eq!(sdn.flow_pair("a"), Some(PairId(0)));
    assert_eq!(sdn.flow_pair("b"), Some(PairId(1)));
    sdn.advance(45_000).unwrap();
    assert!(sdn.flow_rate("a").unwrap() > 1.0);
    assert!(sdn.flow_rate("b").unwrap() > 2.0);
    // Migration to a foreign pair's tunnel is refused (it would
    // connect the wrong endpoints)...
    assert!(sdn.migrate_flow("a", "p1/tunnel1").is_err());
    // ...while migration within the pair is one PBR rewrite.
    sdn.migrate_flow("a", "p0/tunnel2").unwrap();
    assert_eq!(sdn.flow_tunnel("a"), Some("p0/tunnel2"));
    // Reoptimization over the whole matrix keeps every flow on its
    // own pair.
    sdn.advance(60_000).unwrap();
    let moves = sdn.reoptimize_bandwidth().unwrap();
    assert_eq!(moves.len(), 3);
    for (label, tunnel) in &moves {
        let pair = sdn.flow_pair(label).unwrap();
        let scope = format!("p{}/", pair.index());
        assert!(tunnel.starts_with(&scope), "{label} -> {tunnel}");
    }
}

#[test]
fn shared_link_model_never_oversubscribes() {
    // The SDN-built model + the shared engine: assigned rates must
    // respect every physical directed link's headroom.
    let mut sdn = two_pair_mesh();
    sdn.advance(20_000).unwrap();
    sdn.admit_flows(
        &[req("a", 0, None), req("b", 1, None), req("c", 1, Some(4.0))],
        Objective::MaxBandwidth,
    )
    .unwrap();
    sdn.advance(30_000).unwrap();
    let model = sdn.link_model(true);
    let flows = [
        FlowDemand {
            pair: PairId(0),
            demand: None,
        },
        FlowDemand {
            pair: PairId(1),
            demand: None,
        },
        FlowDemand {
            pair: PairId(1),
            demand: Some(4.0),
        },
    ];
    let a = assign_flows_shared(&model, &flows).unwrap();
    let mut used = vec![0.0; model.headroom.len()];
    for (i, &t) in a.tunnel_of_flow.iter().enumerate() {
        for &l in &model.tunnel_links[t] {
            used[l] += a.rate_of_flow[i];
        }
    }
    for (l, (&u, &h)) in used.iter().zip(&model.headroom).enumerate() {
        assert!(u <= h + 1e-9, "directed link {l}: {u} > {h}");
    }
}

#[test]
fn packet_plane_probes_every_pairs_tunnels() {
    // The packet plane attaches one probe per tunnel of *every* pair
    // and managed sources per pair; counters feed the scoped series.
    let mut sdn = two_pair_mesh();
    sdn.attach_dataplane(DataplaneConfig::default()).unwrap();
    sdn.admit_flows(
        &[req("a", 0, Some(2.0)), req("b", 1, Some(2.0))],
        Objective::MaxBandwidth,
    )
    .unwrap();
    sdn.packet_epoch().unwrap();
    let r = sdn.packet_epoch().unwrap();
    assert_eq!(r.tunnel_available.len(), 4, "{r:?}");
    for (name, avail) in &r.tunnel_available {
        assert!(
            name.starts_with("p0/") || name.starts_with("p1/"),
            "unscoped tunnel {name}"
        );
        assert!(*avail >= 0.0);
    }
    for label in ["a", "b"] {
        let g = r
            .flow_goodput
            .iter()
            .find(|(l, _)| l == label)
            .map(|(_, g)| *g)
            .unwrap();
        assert!((g - 2.0).abs() < 0.5, "{label} delivered {g}");
        // Measured goodput lands in the store under the flow label.
        assert!(sdn
            .telemetry
            .last(&SeriesKey::new(label, Metric::FlowRate))
            .is_some());
    }
    assert_eq!(r.pot_rejected, 0);
    assert!(r.delivered > 0);
}

#[test]
fn batch_with_an_unknown_pair_is_rejected_before_any_install() {
    // A bad pair index must fail the whole batch up front — not after
    // the earlier requests were already installed and started.
    let mut sdn = two_pair_mesh();
    let err = sdn.admit_flows(
        &[req("ok", 0, None), req("bad", 7, None)],
        Objective::MaxBandwidth,
    );
    assert!(err.is_err());
    assert_eq!(sdn.flow_pair("ok"), None, "no partial installation");
    assert!(sdn.flow_rate("ok").is_none());
}

#[test]
fn single_flow_admission_goes_through_the_shared_engine() {
    // admit_flow on a multi-pair network is admit_flows with a batch
    // of one: the decision comes from the shared-link model, lands on
    // the request's own pair, and a bad pair index is refused.
    let mut sdn = two_pair_mesh();
    sdn.advance(30_000).unwrap();
    let d0 = sdn
        .admit_flow(&req("a", 0, None), Objective::MaxBandwidth)
        .unwrap();
    let d1 = sdn
        .admit_flow(&req("b", 1, None), Objective::MaxBandwidth)
        .unwrap();
    assert!(d0.tunnel.starts_with("p0/"), "{d0:?}");
    assert!(d1.tunnel.starts_with("p1/"), "{d1:?}");
    assert!(sdn
        .admit_flow(&req("c", 9, None), Objective::MaxBandwidth)
        .is_err());
}

#[test]
#[should_panic(expected = "already folded")]
fn tunnel_caps_cannot_be_stacked_twice() {
    let sdn = two_pair_mesh();
    let caps = vec![1.0; sdn.tunnel_names().len()];
    let _ = sdn
        .link_model(false)
        .with_tunnel_caps(&caps)
        .with_tunnel_caps(&caps);
}

#[test]
fn discovery_lands_in_the_owning_pairs_candidate_set() {
    let mut sdn = two_pair_mesh();
    // Discovery for pair 1's exact endpoints joins pair 1's candidate
    // set, under its namespace and on its edge agent.
    let created = sdn.discover_tunnels("n3", "n9", 4).unwrap();
    assert!(!created.is_empty());
    for id in &created {
        assert!(id.starts_with("p1/auto"), "{id}");
        assert!(sdn
            .pair_tunnel_names(PairId(1))
            .unwrap()
            .contains(&id.to_string()));
        assert!(!sdn
            .pair_tunnel_names(PairId(0))
            .unwrap()
            .contains(&id.to_string()));
        assert!(sdn
            .pair_edge(PairId(1))
            .unwrap()
            .running_config()
            .tunnel(id)
            .is_some());
    }
    // Endpoints no pair owns are refused on a multi-pair network: no
    // pair could ever route a flow onto such a tunnel.
    assert!(sdn.discover_tunnels("n1", "n5", 2).is_err());
}

#[test]
fn single_pair_keeps_legacy_names_through_the_pairs_constructor() {
    // over_topology == over_topology_pairs with one pair: bare tunnel
    // names, PairId(0) everywhere — the N=1 compatibility shim.
    let topo = netsim::topo::mesh(12, 3, 10.0);
    let sdn = SelfDrivingNetwork::over_topology_pairs(topo, &[("n0", "n6")], 3, 1).unwrap();
    assert_eq!(sdn.tunnel_names(), vec!["tunnel1", "tunnel2", "tunnel3"]);
    assert_eq!(sdn.pair_scope(PairId(0)), Some(""));
}

/// Deterministic xorshift for the synthetic decision models below.
struct Rng(u64);
impl Rng {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }
    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
    fn level(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (self.below(10_000) as f64 / 10_000.0) * (hi - lo)
    }
}

/// `pairs` pairs, two tunnels each: a private access link per tunnel
/// plus a trunk shared by groups of three pairs.
fn synthetic_pair_model(pairs: usize, rng: &mut Rng) -> (SharedLinkModel, Vec<String>) {
    let trunks = pairs.div_ceil(3);
    let mut headroom: Vec<f64> = (0..trunks).map(|_| rng.level(8.0, 40.0)).collect();
    let mut tunnel_links = Vec::new();
    let mut candidates = Vec::new();
    let mut names = Vec::new();
    for p in 0..pairs {
        let mut cand = Vec::new();
        for t in 0..2usize {
            let access = headroom.len();
            headroom.push(rng.level(4.0, 25.0));
            cand.push(tunnel_links.len());
            tunnel_links.push(vec![(p / 3 + t) % trunks, access]);
            names.push(format!("p{p}/tunnel{t}"));
        }
        candidates.push(cand);
    }
    (
        SharedLinkModel::new(headroom, tunnel_links, candidates),
        names,
    )
}

/// Warm available-bandwidth telemetry for a random subset of the
/// series; the rest stay cold.
fn synthetic_store(names: &[String], rng: &mut Rng) -> TelemetryService {
    let ts = TelemetryService::new(1000);
    for name in names {
        if rng.below(5) == 0 {
            continue;
        }
        let level = rng.level(3.0, 30.0);
        for t in 0..40u64 {
            ts.insert(
                &SeriesKey::new(name, Metric::AvailableBandwidth),
                t * 1000,
                level + (t as f64 / 7.0).sin() * 0.5,
            );
        }
    }
    ts
}

fn synthetic_requests(pairs: usize, n: usize, rng: &mut Rng) -> Vec<FlowRequest> {
    (0..n)
        .map(|i| FlowRequest {
            label: format!("f{i}"),
            tos: 32,
            demand_mbps: match rng.below(3) {
                0 => None,
                _ => Some(rng.level(0.5, 10.0)),
            },
            start_ms: 0,
            pair: PairId(rng.below(pairs as u64) as usize),
        })
        .collect()
}

#[test]
fn cold_start_sends_each_flow_to_its_pairs_first_candidate() {
    let mut rng = Rng(99);
    let (model, names) = synthetic_pair_model(5, &mut rng);
    let ts = TelemetryService::new(10);
    let reqs = synthetic_requests(5, 7, &mut rng);
    let mut log = SequenceLog::default();
    let (decisions, solver) = decide_flows_pairs(
        &HecateService::new(),
        &ts,
        &reqs,
        &names,
        &model,
        Objective::MaxBandwidth,
        &OptimizerConfig::default(),
        &mut log,
    )
    .unwrap();
    assert_eq!(decisions.len(), reqs.len());
    for (req, d) in reqs.iter().zip(&decisions) {
        let first = &names[model.candidates[req.pair.index()][0]];
        assert_eq!(&d.tunnel, first, "{req:?}");
        assert!(!d.used_forecast);
        assert_eq!(d.score, None);
    }
    assert_eq!(solver, None, "cold start never reaches the solver");
    assert!(log.steps().contains(&"fallbackArbitraryPath".to_string()));
}

#[test]
fn solver_kind_reports_the_configured_cutoff() {
    let mut rng = Rng(7);
    let (model, names) = synthetic_pair_model(4, &mut rng);
    let ts = synthetic_store(&names, &mut Rng(3));
    let reqs = synthetic_requests(4, 5, &mut rng);
    let hecate = HecateService::new();
    let solve = |config: &OptimizerConfig| {
        decide_flows_pairs(
            &hecate,
            &ts,
            &reqs,
            &names,
            &model,
            Objective::MaxBandwidth,
            config,
            &mut SequenceLog::default(),
        )
        .unwrap()
        .1
    };
    // Default cutoff: 2^5 assignments fit the exhaustive search.
    assert_eq!(
        solve(&OptimizerConfig::default()),
        Some(SolverKind::Exhaustive)
    );
    // Cutoff forced to zero: the same batch goes greedy.
    let greedy = OptimizerConfig {
        exhaustive_bound: 0,
    };
    assert_eq!(solve(&greedy), Some(SolverKind::Greedy));
}

#[test]
fn multi_pair_admission_emits_one_solve_span_with_the_solver() {
    let mut sdn = two_pair_mesh();
    let sink = obsv::RecordingSink::shared();
    sdn.set_obsv(obsv::Obsv::to(sink.clone()));
    sdn.advance(30_000).unwrap();
    sdn.admit_flows(
        &[req("a", 0, None), req("b", 1, Some(3.0)), req("c", 1, None)],
        Objective::MaxBandwidth,
    )
    .unwrap();
    let solves: Vec<_> = sink
        .snapshot()
        .into_iter()
        .filter(|r| r.name == "decide.solve" && r.kind == obsv::RecordKind::End)
        .collect();
    assert_eq!(solves.len(), 1, "{solves:?}");
    assert!(
        solves[0]
            .args
            .iter()
            .any(|(k, v)| *k == "solver" && matches!(v, obsv::Value::Str(_))),
        "{:?}",
        solves[0].args
    );
}
