//! Pins the canonical engine's core contract **bit for bit**: after
//! every patch (arrival / departure / reroute / demand change /
//! headroom change), [`Waterfill::resolve`]'s standing solution must
//! equal [`Waterfill::full_rates`] — the audited from-scratch
//! recompute — with `f64::to_bits` equality, under random cross-pair
//! interleavings on a controller-shaped tunnel model.
//!
//! The canonical fill makes every rate a pure function of the
//! saturation structure (see the `netsim::waterfill` module docs), so
//! incremental and full solves cannot even differ in the last ulp.

use netsim::Waterfill;
use proptest::prelude::*;

/// Deterministic xorshift so each proptest case derives its own event
/// sequence from one seed.
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
    fn mbps(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (self.below(10_000) as f64 / 10_000.0) * (hi - lo)
    }
}

/// `(headroom, tunnel → links, pair → candidate tunnels)`.
type Model = (Vec<f64>, Vec<Vec<usize>>, Vec<Vec<usize>>);

/// A shared-trunk model across `pairs` pairs: every pair has a private
/// access link per tunnel plus a trunk link shared by a group of
/// pairs — so saturation sets genuinely couple across pairs, the case
/// the expansion scan must get right.
fn grid_model(pairs: usize, group: usize, rng: &mut Rng) -> Model {
    let trunks = pairs.div_ceil(group);
    let mut headroom = Vec::new();
    let mut tunnel_links = Vec::new();
    let mut candidates = Vec::new();
    // trunk links first
    for _ in 0..trunks {
        headroom.push(rng.mbps(8.0, 40.0));
    }
    for p in 0..pairs {
        let mut cand = Vec::new();
        for t in 0..2usize {
            let access = headroom.len();
            headroom.push(rng.mbps(4.0, 25.0));
            let trunk = (p / group + t) % trunks;
            cand.push(tunnel_links.len());
            tunnel_links.push(vec![trunk, access]);
        }
        candidates.push(cand);
    }
    (headroom, tunnel_links, candidates)
}

fn assert_bitwise(wf: &Waterfill, step: usize, seed: u64) {
    let standing = wf.rates();
    let full = wf.full_rates();
    assert_eq!(standing.len(), full.len());
    for ((ia, ra), (ib, rb)) in standing.iter().zip(&full) {
        assert_eq!(ia, ib);
        assert!(
            ra.to_bits() == rb.to_bits(),
            "step {step} (seed {seed}): flow {ia} incremental {ra:.17} != full {rb:.17}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// ≥4 pairs, random arrival/departure/reroute/demand/capacity
    /// interleavings: incremental ≡ recompute, bitwise, at every step.
    #[test]
    fn incremental_equals_recompute_bitwise(seed in 1u64..5_000) {
        let mut rng = Rng(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1);
        let pairs = 4 + rng.below(5) as usize; // 4..=8
        let (headroom, tunnels, candidates) = grid_model(pairs, 3, &mut rng);
        let mut wf = Waterfill::new(headroom);
        let mut live: Vec<(u64, usize)> = Vec::new(); // (id, pair)
        let mut next_id = 0u64;
        let steps = 60 + rng.below(60) as usize;
        for step in 0..steps {
            match rng.below(10) {
                // Arrival (weighted heaviest, mixed greedy/demand).
                0..=3 => {
                    let pair = rng.below(pairs as u64) as usize;
                    let cand = &candidates[pair];
                    let tunnel = cand[rng.below(cand.len() as u64) as usize];
                    let demand = match rng.below(3) {
                        0 => None,
                        _ => Some(rng.mbps(0.2, 12.0)),
                    };
                    wf.insert(next_id, &tunnels[tunnel], demand);
                    live.push((next_id, pair));
                    next_id += 1;
                }
                // Departure.
                4..=5 => {
                    if !live.is_empty() {
                        let i = rng.below(live.len() as u64) as usize;
                        let (id, _) = live.swap_remove(i);
                        wf.remove(id);
                    }
                }
                // Reroute onto the pair's other candidate.
                6 => {
                    if !live.is_empty() {
                        let i = rng.below(live.len() as u64) as usize;
                        let (id, pair) = live[i];
                        let cand = &candidates[pair];
                        let tunnel = cand[rng.below(cand.len() as u64) as usize];
                        wf.set_links(id, &tunnels[tunnel]);
                    }
                }
                // Demand ramp (up, down, or to greedy).
                7..=8 => {
                    if !live.is_empty() {
                        let i = rng.below(live.len() as u64) as usize;
                        let (id, _) = live[i];
                        let demand = match rng.below(4) {
                            0 => None,
                            _ => Some(rng.mbps(0.1, 15.0)),
                        };
                        wf.set_demand(id, demand);
                    }
                }
                // Headroom change (trunk or access).
                _ => {
                    let link = rng.below(wf.link_count() as u64) as usize;
                    wf.set_headroom(link, rng.mbps(2.0, 40.0));
                }
            }
            wf.resolve();
            assert_bitwise(&wf, step, seed);
        }
        // The point of the machinery: the interleaving must actually
        // have exercised the cheap paths, not escalated every event.
        let stats = wf.stats();
        prop_assert!(
            stats.incremental_solves + stats.fast_path_events > 0,
            "no incremental work happened: {stats:?}"
        );
    }
}
