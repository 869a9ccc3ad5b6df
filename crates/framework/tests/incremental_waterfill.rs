//! The controller's two users of the canonical water-fill agree bit
//! for bit: the optimizer's placement scoring ([`assign_flows_shared`])
//! and the standing [`netsim::Waterfill`] the controller patches per
//! re-optimization run the same fill, so mirroring a decided placement
//! into a standing engine reproduces every predicted rate exactly.

use framework::optimizer::{assign_flows_shared, FlowDemand, SharedLinkModel};
use framework::PairId;
use netsim::Waterfill;

/// Four pairs, two candidate tunnels each; each tunnel crosses a
/// private access link and one of two trunks shared across pairs.
fn trunk_model() -> SharedLinkModel {
    let mut headroom = vec![18.5, 31.25];
    let mut tunnel_links = Vec::new();
    let mut candidates = Vec::new();
    for p in 0..4usize {
        let mut cand = Vec::new();
        for t in 0..2usize {
            headroom.push(4.0 + 3.3 * (2 * p + t) as f64);
            cand.push(tunnel_links.len());
            tunnel_links.push(vec![(p / 2 + t) % 2, headroom.len() - 1]);
        }
        candidates.push(cand);
    }
    SharedLinkModel::new(headroom, tunnel_links, candidates)
}

#[test]
fn standing_engine_matches_assign_flows_shared_totals() {
    let model = trunk_model();
    let flows: Vec<FlowDemand> = (0..6)
        .map(|i| FlowDemand {
            pair: PairId(i % 4),
            demand: if i % 2 == 0 { None } else { Some(3.0) },
        })
        .collect();
    let assignment = assign_flows_shared(&model, &flows).unwrap();
    let mut wf = Waterfill::new(model.headroom.clone());
    for (i, (f, &t)) in flows.iter().zip(&assignment.tunnel_of_flow).enumerate() {
        wf.insert(i as u64, &model.tunnel_links[t], f.demand);
    }
    wf.resolve();
    assert!(wf.audit());
    let standing: Vec<u64> = wf.rates().iter().map(|(_, r)| r.to_bits()).collect();
    let predicted: Vec<u64> = assignment
        .rate_of_flow
        .iter()
        .map(|r| r.to_bits())
        .collect();
    assert_eq!(standing, predicted, "{assignment:?} vs {:?}", wf.rates());
}
