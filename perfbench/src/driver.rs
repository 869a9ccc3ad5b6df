//! The traced driver: performs `Scenario::run`'s set-up and epoch
//! sequence (under `Policy::Hecate`) by calling each layer's public
//! function, and wraps every call in a span. It must reproduce the
//! untraced scorecard exactly — `sim_events`, the aggregate series and
//! median flow rate bit for bit, migrations and blames — which proves
//! it measured the same work. The one addition: it calls
//! `forecast_all` itself just before each consultation, so Hecate's
//! share is timed on its own; the consultation's own forecast is then
//! served from the cache with the same values.

use crate::spans::Recorder;
use framework::dataloop::DataplaneConfig;
use framework::scheduler::FlowRequest;
use framework::telemetry::Metric;
use framework::{Objective, PairId, SelfDrivingNetwork};
use scenarios::events::{compile_events, CompiledAction, LinkAction};
use scenarios::traffic::{headroom_scale, link_load};
use scenarios::zoo::endpoint_pairs;
use scenarios::{PlaneMode, Scenario};
use std::collections::BTreeMap;

/// Span names whose self-time is a layer's time; every other span
/// (`run`, `setup`, `epoch`, `controller.consult`) is structure, and
/// its self-time is the run's unattributed share.
pub const LAYER_SPANS: [&str; 17] = [
    "setup.topology",
    "setup.endpoint_pairs",
    "setup.background",
    "setup.events",
    "setup.elastic",
    "setup.network",
    "setup.dataplane",
    "netsim.run_until",
    "telemetry.collect",
    "runner.link_events",
    "runner.flow_rate",
    "runner.blame",
    "runner.consult_diff",
    "hecate.forecast",
    "controller.admit",
    "controller.reoptimize",
    "dataplane.packet_epoch",
];

/// The packet plane the runner attaches (same constants as
/// `scenarios::runner`).
fn dataplane_config() -> DataplaneConfig {
    DataplaneConfig {
        epoch_ms: 1000,
        probe_rate_mbps: 0.2,
        probe_bytes: 250,
        default_flow_mbps: 8.0,
        flow_bytes: 1250,
    }
}

/// A network set up from a scenario, plus what the epoch loop needs.
pub struct Ready {
    /// The assembled network.
    sdn: SelfDrivingNetwork,
    /// The metrics registry attached to `sdn` (blame evidence).
    registry: obsv::Registry,
    actions: Vec<CompiledAction>,
    loads: BTreeMap<netsim::LinkId, Vec<f64>>,
    scale: f64,
    links: Links,
    /// Elastic events scheduled.
    elastic_events: u64,
    /// Tunnels compiled and installed.
    tunnels: u64,
}

/// The runner's set-up, from the scenario value to a ready network,
/// one span per public set-up call.
pub fn setup(s: &Scenario, rec: &mut Recorder) -> Result<Ready, String> {
    let err = |e: scenarios::ScenarioError| e.to_string();
    let npairs = s.pairs.max(1);
    let topo = rec.time("setup.topology", || s.topology.build(s.seed));
    let pair_nodes = rec.time("setup.endpoint_pairs", || endpoint_pairs(&topo, npairs));
    let pair_names: Vec<(String, String)> = pair_nodes
        .iter()
        .map(|&(a, b)| (topo.node_name(a).to_string(), topo.node_name(b).to_string()))
        .collect();
    let (loads, scale) = rec.time("setup.background", || {
        let bg = s.traffic.background(
            &topo,
            s.horizon_epochs,
            s.seed.wrapping_mul(0x9e3779b97f4a7c15),
        );
        let loads = link_load(&topo, &bg, s.horizon_epochs);
        let scale = headroom_scale(&topo, &loads);
        (loads, scale)
    });
    let raw_caps: Vec<f64> = topo.links().iter().map(|l| l.capacity_mbps).collect();
    let link_names: Vec<(String, String)> = topo
        .links()
        .iter()
        .map(|l| {
            (
                topo.node_name(l.a).to_string(),
                topo.node_name(l.b).to_string(),
            )
        })
        .collect();
    let refs: Vec<(&str, &str)> = pair_names
        .iter()
        .map(|(a, b)| (a.as_str(), b.as_str()))
        .collect();
    let mut sdn = rec
        .time("setup.network", || {
            SelfDrivingNetwork::over_topology_pairs(topo, &refs, s.k_tunnels, s.seed)
        })
        .map_err(|e| e.to_string())?;
    sdn.set_optimizer_config(s.optimizer);
    let tunnels = sdn.tunnel_names().len() as u64;
    let actions = rec
        .time("setup.events", || {
            let primary_name = sdn.pair_tunnel_names(PairId(0))?.first()?.clone();
            let primary = sdn.tunnel(&primary_name)?.node_path.clone();
            Some(compile_events(&s.events, &sdn.sim.topo, &primary))
        })
        .ok_or("pair 0 has no primary tunnel")?
        .map_err(err)?;
    let mut elastic_events = 0u64;
    if let Some(spec) = &s.elastic {
        rec.time("setup.elastic", || -> Result<(), String> {
            let compiled = scenarios::elastic::compile_elastic(
                &sdn.sim.topo,
                spec,
                s.horizon_epochs,
                s.seed.wrapping_mul(0x9e3779b97f4a7c15).wrapping_add(1),
            );
            for (at_ms, ev) in compiled {
                if let netsim::Event::StartFlow { id, .. } = &ev {
                    sdn.sim.mark_background(*id);
                }
                sdn.sim.schedule(at_ms, ev).map_err(|e| e.to_string())?;
                elastic_events += 1;
            }
            Ok(())
        })?;
    }
    if s.plane == PlaneMode::Packet {
        rec.time("setup.dataplane", || {
            sdn.attach_dataplane(dataplane_config())
        })
        .map_err(|e| e.to_string())?;
    }
    let bundle = obsv::Obsv {
        tracer: obsv::Tracer::off(),
        metrics: obsv::Registry::default(),
    };
    sdn.set_obsv(bundle.clone());
    Ok(Ready {
        sdn,
        registry: bundle.metrics,
        actions,
        loads,
        scale,
        links: Links {
            names: link_names,
            raw_caps,
            down_since: BTreeMap::new(),
            drain: BTreeMap::new(),
            applied: BTreeMap::new(),
        },
        elastic_events,
        tunnels,
    })
}

/// Work counts the driver saw, per layer.
#[derive(Debug, Default)]
pub struct Counts {
    pub link_events: u64,
    pub capacity_updates: u64,
    pub flow_rate_reads: u64,
    pub collect_calls: u64,
    pub netsim_events: u64,
    pub consults: u64,
    pub consult_errors: u64,
    pub cache_hits: u64,
    pub cache_updates: u64,
    pub cache_refits: u64,
    pub delivered: u64,
    pub dropped: u64,
    pub pot_rejected: u64,
    pub rewrites: u64,
    pub elastic_events: u64,
    pub tunnels: u64,
}

/// What the traced run produced: the scorecard fields it must
/// reproduce, plus end-of-run state only the driver can see.
#[derive(Debug)]
pub struct Outcome {
    pub aggregate_series: Vec<f64>,
    pub p50_flow_mbps: f64,
    pub sim_events: u64,
    pub migrations: u64,
    pub blames: Vec<obsv_analyze::Blame>,
    pub slo_violation_epochs: u64,
    pub counts: Counts,
    /// `Some(audit)` when the controller's standing water-fill exists.
    pub waterfill_audit: Option<bool>,
    /// The controller water-fill's counters at the end of the run.
    pub controller_waterfill: netsim::WaterfillStats,
    /// The simulator water-fill's counters at the end of the run.
    pub netsim_waterfill: netsim::WaterfillStats,
}

/// The runner's per-link bookkeeping, indexed like the topology's
/// link list.
struct Links {
    names: Vec<(String, String)>,
    raw_caps: Vec<f64>,
    /// Links scripted down, with the epoch they went down.
    down_since: BTreeMap<usize, u64>,
    /// Links scripted to a capacity scale below 1.
    drain: BTreeMap<usize, f64>,
    /// The capacity last applied, per link that changed.
    applied: BTreeMap<usize, f64>,
}

impl Links {
    /// Index of the link between two named endpoints (as the runner
    /// finds it).
    fn index(&self, a: &str, b: &str) -> Result<usize, String> {
        self.names
            .iter()
            .position(|(x, y)| (x == a && y == b) || (x == b && y == a))
            .ok_or_else(|| format!("no link {a}-{b}"))
    }

    fn name(&self, lid: usize) -> String {
        let (a, b) = &self.names[lid];
        format!("{a}-{b}")
    }
}

/// Runs the scenario under `Policy::Hecate` with one span per layer
/// call, inside a `run` root span.
pub fn run(s: &Scenario, rec: &mut Recorder) -> Result<Outcome, String> {
    rec.enter("run");
    rec.enter("setup");
    let ready = setup(s, rec);
    rec.exit();
    let out = ready.and_then(|r| epochs(s, r, rec));
    rec.exit();
    out
}

fn epochs(s: &Scenario, ready: Ready, rec: &mut Recorder) -> Result<Outcome, String> {
    let fe = |e: framework::FrameworkError| e.to_string();
    let Ready {
        mut sdn,
        registry,
        actions,
        loads,
        scale,
        mut links,
        elastic_events,
        tunnels,
    } = ready;
    let npairs = s.pairs.max(1);
    let mut counts = Counts {
        elastic_events,
        tunnels,
        ..Counts::default()
    };
    let mut blames: Vec<obsv_analyze::Blame> = Vec::new();
    let mut blame_prev = registry.snapshot();
    let labels: Vec<String> = s.flows.iter().map(|f| f.label.clone()).collect();
    let mut started = vec![false; s.flows.len()];
    let mut migrations = 0u64;
    let mut aggregate = Vec::with_capacity(s.horizon_epochs as usize);
    let mut flow_samples: Vec<f64> = Vec::new();
    let mut slo_violations = 0u64;
    let mut cursor = 0usize;
    let names = sdn.tunnel_names();
    let pair_of = |label: &str| -> usize {
        s.flows
            .iter()
            .find(|f| f.label == label)
            .map(|f| f.pair)
            .unwrap_or(0)
    };

    for e in 0..s.horizon_epochs {
        rec.enter("epoch");
        // (1) scripted link events, (2) effective capacities.
        rec.time("runner.link_events", || -> Result<(), String> {
            while cursor < actions.len() && actions[cursor].epoch <= e {
                let act = &actions[cursor];
                cursor += 1;
                match act.action {
                    LinkAction::SetUp(up) => {
                        sdn.set_link_state(&act.a, &act.b, up).map_err(fe)?;
                        counts.link_events += 1;
                        let lid = links.index(&act.a, &act.b)?;
                        if up {
                            links.down_since.remove(&lid);
                        } else {
                            links.down_since.entry(lid).or_insert(e);
                        }
                    }
                    LinkAction::SetScale(f) => {
                        let lid = links.index(&act.a, &act.b)?;
                        if (f - 1.0).abs() < 1e-12 {
                            links.drain.remove(&lid);
                        } else {
                            links.drain.insert(lid, f);
                        }
                    }
                }
            }
            for (i, &raw) in links.raw_caps.iter().enumerate() {
                let bg_now = loads
                    .get(&netsim::LinkId(i as u32))
                    .map(|v| v[e as usize] * scale)
                    .unwrap_or(0.0);
                let factor = links.drain.get(&i).copied().unwrap_or(1.0);
                let cap = ((raw - bg_now).max(raw * 0.05)) * factor;
                let last = links.applied.get(&i).copied().unwrap_or(raw);
                if (cap - last).abs() > 1e-9 {
                    let (a, b) = &links.names[i];
                    sdn.set_link_capacity(a, b, cap).map_err(fe)?;
                    counts.capacity_updates += 1;
                    links.applied.insert(i, cap);
                }
            }
            Ok(())
        })?;
        // (3) admit managed flows due this epoch.
        let mut due: Vec<FlowRequest> = Vec::new();
        for (i, plan) in s.flows.iter().enumerate() {
            if !started[i] && plan.start_epoch <= e {
                started[i] = true;
                due.push(FlowRequest {
                    label: plan.label.clone(),
                    tos: 32u8.wrapping_mul(i as u8 + 1),
                    demand_mbps: plan.demand_mbps,
                    start_ms: e * 1000,
                    pair: PairId(plan.pair),
                });
            }
        }
        if !due.is_empty() {
            rec.time("controller.admit", || {
                sdn.admit_flows(&due, Objective::MaxBandwidth)
            })
            .map_err(fe)?;
        }
        // (4) advance one epoch: `SelfDrivingNetwork::advance`'s loop
        // on the fluid plane, one packet window on the packet plane.
        let mut packet_goodput: BTreeMap<String, f64> = BTreeMap::new();
        match s.plane {
            PlaneMode::Fluid => {
                let until = (e + 1) * 1000;
                while sdn.sim.now_ms() < until {
                    if !sdn.scheduler.due(sdn.sim.now_ms()).is_empty() {
                        return Err("scenario flows never go through the scheduler".into());
                    }
                    let next = (sdn.sim.now_ms() + sdn.sample_ms).min(until);
                    let sample_ms = sdn.sample_ms;
                    let before = sdn.sim.events_processed();
                    rec.time("netsim.run_until", || sdn.sim.run_until(next, sample_ms));
                    counts.netsim_events += sdn.sim.events_processed() - before;
                    rec.time("telemetry.collect", || sdn.collect_telemetry())
                        .map_err(fe)?;
                    counts.collect_calls += 1;
                }
            }
            PlaneMode::Packet => {
                let report = rec
                    .time("dataplane.packet_epoch", || sdn.packet_epoch())
                    .map_err(fe)?;
                counts.delivered += report.delivered;
                counts.dropped += report.dropped;
                counts.pot_rejected += report.pot_rejected;
                counts.rewrites += report.rewrites;
                packet_goodput = report.flow_goodput.into_iter().collect();
            }
        }
        // (5) per-flow rates and SLO.
        let (total, violated) = rec.time("runner.flow_rate", || {
            let mut total = 0.0;
            let mut violated: Vec<usize> = Vec::new();
            for (i, plan) in s.flows.iter().enumerate() {
                if !started[i] {
                    continue;
                }
                let rate = match s.plane {
                    PlaneMode::Fluid => sdn.flow_rate(&plan.label).unwrap_or(0.0),
                    PlaneMode::Packet => packet_goodput.get(&plan.label).copied().unwrap_or(0.0),
                };
                counts.flow_rate_reads += 1;
                total += rate;
                flow_samples.push(rate);
                if let Some(demand) = plan.demand_mbps {
                    if e >= plan.start_epoch + 2 && rate < s.slo_fraction * demand {
                        violated.push(i);
                    }
                }
            }
            (total, violated)
        });
        aggregate.push(total);
        if !violated.is_empty() {
            slo_violations += 1;
            let blame = rec.time("runner.blame", || {
                blame_for(
                    s,
                    &sdn,
                    e,
                    &violated,
                    &registry.snapshot().delta(&blame_prev),
                    &links,
                )
            });
            blames.push(blame);
        }
        // (6) consultation: Hecate forecasts, then the optimizer.
        let decision_due =
            s.decision_every > 0 && (e + 1) % s.decision_every == 0 && e + 1 < s.horizon_epochs;
        if decision_due {
            rec.enter("controller.consult");
            counts.consults += 1;
            let before_stats = sdn.hecate.cache_stats();
            rec.time("hecate.forecast", || {
                sdn.hecate
                    .forecast_all(&sdn.telemetry, &names, Metric::AvailableBandwidth)
            });
            let after_stats = sdn.hecate.cache_stats();
            counts.cache_hits += after_stats.hits - before_stats.hits;
            counts.cache_updates += after_stats.updates - before_stats.updates;
            counts.cache_refits += after_stats.refits - before_stats.refits;
            let before: Vec<Option<String>> = rec.time("runner.consult_diff", || {
                labels
                    .iter()
                    .map(|l| sdn.flow_tunnel(l).map(str::to_string))
                    .collect()
            });
            let reoptimized = rec.time("controller.reoptimize", || sdn.reoptimize_bandwidth());
            match reoptimized {
                // Warm-up (too little telemetry): the policy skips
                // the round, as the runner does.
                Err(_) => counts.consult_errors += 1,
                Ok(_) => {
                    migrations += rec.time("runner.consult_diff", || {
                        let mut moves = vec![0u64; npairs];
                        for (l, b) in labels.iter().zip(&before) {
                            if sdn.flow_tunnel(l).map(str::to_string) != *b {
                                moves[pair_of(l)] += 1;
                            }
                        }
                        moves.iter().sum::<u64>()
                    });
                }
            }
            rec.exit();
        }
        rec.time("runner.blame", || blame_prev = registry.snapshot());
        rec.exit();
    }
    Ok(Outcome {
        aggregate_series: aggregate,
        p50_flow_mbps: scenarios::scorecard::percentile(&flow_samples, 0.50),
        sim_events: sdn.sim.events_processed(),
        migrations,
        blames,
        slo_violation_epochs: slo_violations,
        counts,
        waterfill_audit: sdn.waterfill().map(|wf| wf.audit()),
        controller_waterfill: sdn.waterfill().map(|wf| wf.stats()).unwrap_or_default(),
        netsim_waterfill: sdn.sim.waterfill_stats(),
    })
}

/// The runner's root-cause attribution for one violating epoch.
fn blame_for(
    s: &Scenario,
    sdn: &SelfDrivingNetwork,
    e: u64,
    violated: &[usize],
    window: &obsv::MetricsSnapshot,
    links: &Links,
) -> obsv_analyze::Blame {
    let mut squeezed: Vec<(String, String, f64)> = Vec::new();
    for &i in violated {
        let plan = &s.flows[i];
        let (Some(demand), Some(tname)) = (
            plan.demand_mbps,
            sdn.flow_tunnel(&plan.label).map(str::to_string),
        ) else {
            continue;
        };
        let Some(tunnel) = sdn.tunnel(&tname) else {
            continue;
        };
        let worst = tunnel
            .node_path
            .windows(2)
            .filter_map(|hop| {
                let a = sdn.sim.topo.node_name(hop[0]);
                let b = sdn.sim.topo.node_name(hop[1]);
                links.index(a, b).ok()
            })
            .map(|lid| {
                let cap = links.applied.get(&lid).copied();
                (lid, cap.unwrap_or(links.raw_caps[lid]))
            })
            .min_by(|(_, x), (_, y)| x.total_cmp(y));
        if let Some((lid, cap)) = worst {
            if cap < s.slo_fraction * demand {
                squeezed.push((plan.label.clone(), links.name(lid), cap));
            }
        }
    }
    obsv_analyze::attribute(&obsv_analyze::EpochEvidence {
        epoch: e,
        violated_flows: violated.iter().map(|&i| s.flows[i].label.clone()).collect(),
        down_links: links
            .down_since
            .iter()
            .map(|(&lid, &since)| (links.name(lid), e.saturating_sub(since)))
            .collect(),
        drained_links: links
            .drain
            .iter()
            .map(|(&lid, &f)| (links.name(lid), f))
            .collect(),
        packet_drops: window.counter("dataplane.packet.drops"),
        pot_rejects: window.counter("dataplane.packet.pot_rejects"),
        waterfill_solves: window.counter("netsim.waterfill.incremental_solves")
            + window.counter("netsim.waterfill.full_solves"),
        cache_refits: window.counter("hecate.cache.refits"),
        squeezed,
    })
}
