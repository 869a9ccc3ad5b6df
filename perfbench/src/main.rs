//! The repository benchmark: seeded scenario workloads run through the
//! program's real entry point, `Scenario::run(Policy::Hecate)`, for the
//! end-to-end metrics (`--trace 0`), and through the traced driver
//! ([`driver`]) for the per-layer metrics (`--trace 1`).
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! perfbench --selftest
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`. Any failed check
//! makes `correct` false and the exit code 1. The benchmark is one
//! process and starts no threads of its own; the program's freeRtr
//! agent threads and Hecate's forecast pool are part of what it
//! measures. See README.md for the workloads and metrics.

// Wall-clock timing is what a benchmark measures.
#![allow(clippy::disallowed_methods)]

mod driver;
mod spans;
mod workloads;

use scenarios::{Policy, Scenario, Scorecard};
use spans::Recorder;
use std::time::Instant;
use workloads::Workload;

/// One reported figure.
struct Figure {
    name: String,
    value: f64,
    unit: &'static str,
}

/// Figures in report order, plus the raw timing samples behind them.
#[derive(Default)]
struct Figures {
    list: Vec<Figure>,
    samples: Vec<(&'static str, Vec<f64>)>,
}

impl Figures {
    /// The value of a figure (NaN when absent).
    fn get(&self, name: &str) -> f64 {
        self.list
            .iter()
            .find(|f| f.name == name)
            .map_or(f64::NAN, |f| f.value)
    }

    fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        self.list.push(Figure {
            name: name.to_string(),
            value,
            unit,
        });
    }
}

/// Pass/fail bookkeeping for one benchmark run.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
}

impl Tally {
    /// Counts one operation; a failure records why.
    fn op(&mut self, result: Result<(), String>) {
        self.attempted += 1;
        if let Err(why) = result {
            self.failed += 1;
            self.problems.push(why);
        }
    }

    /// A check that fails the run without being an operation.
    fn check(&mut self, ok: bool, why: impl FnOnce() -> String) {
        if !ok {
            self.problems.push(why());
        }
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Option<Args>, String> {
    if argv == ["--selftest"] {
        return Ok(None);
    }
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Some(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    }))
}

fn median(v: &[f64]) -> f64 {
    quantile(v, 0.5)
}

/// Linear-interpolated quantile of the samples (0 when empty).
fn quantile(v: &[f64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let pos = q * (s.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}

fn ns_to_ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

fn share(part: f64, whole: f64) -> f64 {
    if whole > 0.0 {
        part / whole
    } else {
        0.0
    }
}

/// The process's peak resident set, MB (`VmHWM`).
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".into())
}

/// Demand-declared flow-epochs past the two-epoch grace period: the
/// operations the SLO is judged on.
fn slo_flow_epochs(s: &Scenario) -> u64 {
    s.flows
        .iter()
        .filter(|f| f.demand_mbps.is_some())
        .map(|f| s.horizon_epochs.saturating_sub(f.start_epoch + 2))
        .sum()
}

/// The scorecard checks every run must pass.
fn check_card(card: &Scorecard) -> Result<(), String> {
    if card.blames.len() as u64 != card.slo_violation_epochs {
        return Err(format!(
            "{} blames for {} SLO-violation epochs",
            card.blames.len(),
            card.slo_violation_epochs
        ));
    }
    if let Some(x) = card
        .aggregate_series
        .iter()
        .find(|x| !(x.is_finite() && **x >= 0.0))
    {
        return Err(format!("aggregate sample {x} is not finite and >= 0"));
    }
    Ok(())
}

/// One untraced `Scenario::run`, timed and checked; later runs must
/// replay the first scorecard bit for bit.
fn timed_run(
    s: &Scenario,
    first: &mut Option<Scorecard>,
    tally: &mut Tally,
) -> Option<(Took, Scorecard)> {
    let (took, result) = timed(|| s.run(Policy::Hecate));
    let card = match result {
        Ok(card) => card,
        Err(e) => {
            tally.op(Err(format!("Scenario::run: {e}")));
            return None;
        }
    };
    let replay = match first {
        Some(f) if *f != card => Err("scorecard differs between runs of one seed".to_string()),
        _ => Ok(()),
    };
    tally.op(check_card(&card).and(replay));
    first.get_or_insert_with(|| card.clone());
    Some((took, card))
}

/// One untraced set-up, timed.
fn timed_setup(s: &Scenario, tally: &mut Tally) -> Option<Took> {
    let (took, ready) = timed(|| driver::setup(s, &mut Recorder::off()));
    let ok = ready.is_ok();
    tally.op(ready.map(drop).map_err(|e| format!("set-up: {e}")));
    ok.then_some(took)
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
}

/// Linux's clock id for the CPU time of every thread of the process.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// CPU time this process's threads (live and exited) have run, in
/// seconds. Unlike wall time it leaves out the time the host stole from
/// the virtual CPUs.
fn process_cpu_s() -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `struct timespec` (two 64-bit
    // fields on 64-bit Linux) for the whole call, and the clock id is
    // a constant Linux supports.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// Wall and CPU seconds of one timed operation.
#[derive(Clone, Copy)]
struct Took {
    wall_s: f64,
    cpu_s: f64,
}

/// Runs `f`, timing it on both clocks.
fn timed<T>(f: impl FnOnce() -> T) -> (Took, T) {
    // detlint: allow(wall-clock) — the benchmark's measurement; it never
    // feeds back into the program under test.
    let (t, c) = (Instant::now(), process_cpu_s());
    let out = f();
    let took = Took {
        wall_s: t.elapsed().as_secs_f64(),
        cpu_s: process_cpu_s() - c,
    };
    (took, out)
}

/// True while another round of `cost` seconds still fits the budget.
fn fits(start: Instant, cost: f64, seconds: f64) -> bool {
    start.elapsed().as_secs_f64() + cost <= seconds
}

/// The end-to-end figures (`--trace 0`) over a workload's scenarios:
/// `setups[i]`, `runs[i]` and `cards[i]` belong to `scenarios[i]`.
/// Times are process CPU seconds: on a shared virtual machine, wall
/// time also counts the time the host stole from the virtual CPUs. Each
/// time is the mean over the scenarios of that scenario's median, and
/// each quality figure the mean over their scorecards (with one
/// scenario, simply its median and its scorecard).
fn end_to_end(
    scenarios: &[Scenario],
    setups: &[Vec<Took>],
    runs: &[Vec<Took>],
    cards: &[Scorecard],
    rss_mb: f64,
) -> Figures {
    let mean = |v: Vec<f64>| v.iter().sum::<f64>() / v.len() as f64;
    let cpu = |v: &[Vec<Took>]| {
        mean(
            v.iter()
                .map(|t| median(&t.iter().map(|t| t.cpu_s).collect::<Vec<_>>()))
                .collect(),
        )
    };
    let (setup_s, run_s) = (cpu(setups), cpu(runs));
    let missed: usize = cards
        .iter()
        .flat_map(|c| &c.blames)
        .map(|b| b.flows.len())
        .sum();
    let judged: u64 = scenarios.iter().map(slo_flow_epochs).sum();
    let mut f = Figures::default();
    f.put("setup_s", setup_s, "s");
    f.put("run_s", run_s, "s");
    f.put(
        "sim_seconds_per_s",
        share(scenarios[0].horizon_epochs as f64, run_s - setup_s),
        "1/s",
    );
    f.put("peak_rss_mb", rss_mb, "MB");
    f.put(
        "goodput_mbps",
        mean(cards.iter().map(|c| c.mean_aggregate_mbps).collect()),
        "Mb/s",
    );
    f.put(
        "flow_p50_mbps",
        mean(cards.iter().map(|c| c.p50_flow_mbps).collect()),
        "Mb/s",
    );
    f.put(
        "slo_met_share",
        1.0 - share(missed as f64, judged as f64),
        "share",
    );
    f
}

/// Timed set-ups per round: enough for about half a second of set-up,
/// so a cheap set-up's median rests on many samples.
fn setups_per_round(warm_up: Took) -> usize {
    ((0.5 / warm_up.wall_s.max(1e-3)).ceil() as usize).clamp(1, 8)
}

fn measure(scenarios: &[Scenario], seconds: f64, tally: &mut Tally) -> Option<Figures> {
    // detlint: allow(wall-clock) — bounds the run to `--seconds`; never
    // reaches the program under test.
    let start = Instant::now();
    // Warm-up: one untimed set-up fills the allocator and page cache.
    let reps = setups_per_round(timed_setup(&scenarios[0], tally)?);
    let n = scenarios.len();
    // (scenario, time) of every timed set-up and run, in order.
    let mut setup_log: Vec<(usize, Took)> = Vec::new();
    let mut run_log: Vec<(usize, Took)> = Vec::new();
    let mut firsts: Vec<Option<Scorecard>> = vec![None; n];
    let mut rss = None;
    // Rounds of set-ups and one run, cycling through the scenarios:
    // every scenario once, then more while the next round still fits.
    for round in 0.. {
        let i = round % n;
        for _ in 0..reps {
            setup_log.push((i, timed_setup(&scenarios[i], tally)?));
        }
        run_log.push((i, timed_run(&scenarios[i], &mut firsts[i], tally)?.0));
        // The peak after the first run: later rounds only add the
        // allocator's retained memory, which varies from run to run.
        if rss.is_none() {
            match peak_rss_mb() {
                Ok(mb) => rss = Some(mb),
                Err(e) => {
                    tally.check(false, || e);
                    return None;
                }
            }
        }
        let wall =
            |log: &[(usize, Took)]| median(&log.iter().map(|t| t.1.wall_s).collect::<Vec<_>>());
        let cost = wall(&run_log) + reps as f64 * wall(&setup_log);
        if round + 1 >= n && !fits(start, cost, seconds) {
            break;
        }
    }
    let cards: Vec<Scorecard> = firsts.into_iter().collect::<Option<_>>()?;
    let by_scenario = |log: &[(usize, Took)]| -> Vec<Vec<Took>> {
        (0..n)
            .map(|i| log.iter().filter(|t| t.0 == i).map(|t| t.1).collect())
            .collect()
    };
    let mut f = end_to_end(
        scenarios,
        &by_scenario(&setup_log),
        &by_scenario(&run_log),
        &cards,
        rss?,
    );
    let column = |log: &[(usize, Took)], c: fn(&Took) -> f64| log.iter().map(|t| c(&t.1)).collect();
    f.samples = vec![
        ("setup_wall_s", column(&setup_log, |t| t.wall_s)),
        ("setup_cpu_s", column(&setup_log, |t| t.cpu_s)),
        ("run_scenario", run_log.iter().map(|t| t.0 as f64).collect()),
        ("run_wall_s", column(&run_log, |t| t.wall_s)),
        ("run_cpu_s", column(&run_log, |t| t.cpu_s)),
    ];
    Some(f)
}

/// Checks that the traced driver reproduced the untraced scorecard and
/// the end-of-run conditions only the driver can see.
fn check_outcome(s: &Scenario, card: &Scorecard, out: &driver::Outcome) -> Result<(), String> {
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    if out.sim_events != card.sim_events {
        return Err(format!(
            "driver saw {} sim events, Scenario::run {}",
            out.sim_events, card.sim_events
        ));
    }
    if bits(&out.aggregate_series) != bits(&card.aggregate_series)
        || out.p50_flow_mbps.to_bits() != card.p50_flow_mbps.to_bits()
    {
        return Err("driver's flow rates differ from Scenario::run's".into());
    }
    if out.migrations != card.migrations {
        return Err(format!(
            "driver made {} migrations, Scenario::run {}",
            out.migrations, card.migrations
        ));
    }
    if out.blames != card.blames || out.slo_violation_epochs != card.slo_violation_epochs {
        return Err("driver's SLO blames differ from Scenario::run's".into());
    }
    // Once a multi-pair consultation has succeeded, the controller's
    // standing water-fill must exist and match its recompute.
    let placed = out.counts.consults > out.counts.consult_errors;
    if out.waterfill_audit == Some(false)
        || (s.pairs > 1 && placed && out.waterfill_audit.is_none())
    {
        return Err(format!(
            "controller water-fill audit: {:?}",
            out.waterfill_audit
        ));
    }
    if out.counts.pot_rejected != 0 {
        return Err(format!("{} packets failed PoT", out.counts.pot_rejected));
    }
    Ok(())
}

/// One traced driver run's per-layer figures.
fn layer_figures(rec: &Recorder, out: &driver::Outcome) -> Figures {
    let selfs = rec.self_times();
    let self_ms = |name: &str| ns_to_ms(selfs.get(name).copied().unwrap_or(0));
    let ms = |v: Vec<u64>| v.into_iter().map(ns_to_ms).collect::<Vec<f64>>();
    let c = &out.counts;
    let wall_ns: u64 = rec
        .spans()
        .iter()
        .filter(|s| s.parent.is_none())
        .map(spans::Span::duration_ns)
        .sum();
    let attributed: u64 = driver::LAYER_SPANS
        .iter()
        .map(|n| selfs.get(n).copied().unwrap_or(0))
        .sum();
    let mut f = Figures::default();
    for name in [
        "setup.topology",
        "setup.endpoint_pairs",
        "setup.background",
        "setup.events",
        "setup.elastic",
        "setup.network",
        "setup.dataplane",
    ] {
        f.put(&format!("{name}_ms"), self_ms(name), "ms");
    }
    f.put("setup.elastic_events", c.elastic_events as f64, "count");
    f.put("setup.tunnels", c.tunnels as f64, "count");

    let sim_ms = self_ms("netsim.run_until");
    f.put("netsim.run_until_ms", sim_ms, "ms");
    f.put(
        "netsim.run_until_p50_ms",
        median(&ms(rec.sums_by_parent("netsim.run_until"))),
        "ms",
    );
    f.put("netsim.events", c.netsim_events as f64, "count");
    f.put(
        "netsim.ns_per_event",
        share(sim_ms * 1e6, c.netsim_events as f64),
        "ns",
    );
    waterfill_figures(&mut f, "netsim.waterfill", &out.netsim_waterfill);
    let nw = &out.netsim_waterfill;
    f.put(
        "netsim.waterfill.full_share",
        share(
            nw.full_solves as f64,
            (nw.incremental_solves + nw.full_solves) as f64,
        ),
        "share",
    );

    f.put("runner.link_events_ms", self_ms("runner.link_events"), "ms");
    f.put("runner.link_events", c.link_events as f64, "count");
    f.put(
        "runner.capacity_updates",
        c.capacity_updates as f64,
        "count",
    );
    f.put("runner.flow_rate_ms", self_ms("runner.flow_rate"), "ms");
    f.put("runner.flow_rate_reads", c.flow_rate_reads as f64, "count");
    f.put("runner.blame_ms", self_ms("runner.blame"), "ms");
    f.put(
        "runner.consult_diff_ms",
        self_ms("runner.consult_diff"),
        "ms",
    );
    f.put("telemetry.collect_ms", self_ms("telemetry.collect"), "ms");
    f.put("telemetry.collect_calls", c.collect_calls as f64, "count");

    f.put("hecate.forecast_ms", self_ms("hecate.forecast"), "ms");
    f.put(
        "hecate.forecast_p50_ms",
        median(&ms(rec.durations("hecate.forecast"))),
        "ms",
    );
    f.put("hecate.cache.hits", c.cache_hits as f64, "count");
    f.put("hecate.cache.updates", c.cache_updates as f64, "count");
    f.put("hecate.cache.refits", c.cache_refits as f64, "count");
    f.put(
        "hecate.cache.reuse_share",
        share(
            (c.cache_hits + c.cache_updates) as f64,
            (c.cache_hits + c.cache_updates + c.cache_refits) as f64,
        ),
        "share",
    );

    f.put(
        "controller.reoptimize_ms",
        self_ms("controller.reoptimize"),
        "ms",
    );
    f.put("controller.admit_ms", self_ms("controller.admit"), "ms");
    f.put("controller.consults", c.consults as f64, "count");
    f.put(
        "controller.consult_errors",
        c.consult_errors as f64,
        "count",
    );
    let consults = ms(rec.durations("controller.consult"));
    f.put("controller.consult_p50_ms", median(&consults), "ms");
    f.put("controller.consult_p90_ms", quantile(&consults, 0.9), "ms");
    f.put("controller.migrations", out.migrations as f64, "count");
    waterfill_figures(&mut f, "controller.waterfill", &out.controller_waterfill);

    let packet_ms = self_ms("dataplane.packet_epoch");
    let packets = (c.delivered + c.dropped) as f64;
    f.put("dataplane.packet_epoch_ms", packet_ms, "ms");
    f.put("dataplane.delivered", c.delivered as f64, "count");
    f.put("dataplane.dropped", c.dropped as f64, "count");
    f.put("dataplane.pot_rejected", c.pot_rejected as f64, "count");
    f.put("dataplane.rewrites", c.rewrites as f64, "count");
    f.put(
        "dataplane.ns_per_packet",
        share(packet_ms * 1e6, packets),
        "ns",
    );
    f.put(
        "dataplane.delivery_share",
        share(c.delivered as f64, packets),
        "share",
    );

    f.put("trace.wall_s", wall_ns as f64 / 1e9, "s");
    f.put(
        "trace.unattributed_share",
        share((wall_ns - attributed) as f64, wall_ns as f64),
        "share",
    );
    f
}

fn waterfill_figures(f: &mut Figures, prefix: &str, w: &netsim::WaterfillStats) {
    f.put(
        &format!("{prefix}.incremental_solves"),
        w.incremental_solves as f64,
        "count",
    );
    f.put(
        &format!("{prefix}.full_solves"),
        w.full_solves as f64,
        "count",
    );
    f.put(
        &format!("{prefix}.expansions"),
        w.expansions as f64,
        "count",
    );
    f.put(
        &format!("{prefix}.fast_path_events"),
        w.fast_path_events as f64,
        "count",
    );
}

/// Profile closure: the layers' self-times plus the unattributed share
/// must add up to the traced wall.
fn check_closure(rec: &Recorder, f: &Figures) -> Result<(), String> {
    if !rec.balanced() {
        return Err("a span was left open".into());
    }
    let get = |n: &str| f.get(n);
    let wall_ms = get("trace.wall_s") * 1e3;
    let layers_ms: f64 = driver::LAYER_SPANS
        .iter()
        .map(|n| get(&format!("{n}_ms")))
        .sum();
    let closed = layers_ms + get("trace.unattributed_share") * wall_ms;
    if (closed - wall_ms).abs() > 1e-6 * wall_ms.max(1.0) {
        return Err(format!(
            "profile does not close: {closed} ms of {wall_ms} ms"
        ));
    }
    Ok(())
}

/// One untraced run plus one traced driver run, checked against each
/// other; returns the untraced run's wall time with the traced figures.
fn traced_pair(s: &Scenario, tally: &mut Tally) -> Option<(f64, Figures)> {
    let mut first = None;
    let (took, card) = timed_run(s, &mut first, tally)?;
    let mut rec = Recorder::on();
    let out = driver::run(s, &mut rec);
    let out = match out.and_then(|o| check_outcome(s, &card, &o).map(|()| o)) {
        Ok(o) => o,
        Err(e) => {
            tally.op(Err(format!("traced driver: {e}")));
            return None;
        }
    };
    let figures = layer_figures(&rec, &out);
    tally.op(check_closure(&rec, &figures));
    Some((took.wall_s, figures))
}

fn trace(s: &Scenario, seconds: f64, tally: &mut Tally) -> Option<Figures> {
    // detlint: allow(wall-clock) — bounds the run to `--seconds`; never
    // reaches the program under test.
    let start = Instant::now();
    let mut untraced = Vec::new();
    let mut walls = Vec::new();
    let mut rounds: Vec<Figures> = Vec::new();
    loop {
        let (run_s, figures) = traced_pair(s, tally)?;
        untraced.push(run_s);
        walls.push(figures.get("trace.wall_s"));
        rounds.push(figures);
        if !fits(start, median(&untraced) + median(&walls), seconds) {
            break;
        }
    }
    // Times are medians over the rounds; counts repeat exactly.
    let mut out = Figures::default();
    for (i, fig) in rounds[0].list.iter().enumerate() {
        let values: Vec<f64> = rounds.iter().map(|r| r.list[i].value).collect();
        if fig.unit == "count" {
            tally.check(values.iter().all(|v| *v == fig.value), || {
                format!("{} differs between traced runs", fig.name)
            });
        }
        out.put(&fig.name, median(&values), fig.unit);
    }
    out.put(
        "trace.overhead_share",
        share(median(&walls) - median(&untraced), median(&untraced)),
        "share",
    );
    out.samples = vec![("untraced_run_s", untraced), ("traced_wall_s", walls)];
    Some(out)
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The result line. Values print with every digit (`f64`'s shortest
/// round-trip form).
fn result_line(correct: bool, tally: &Tally, figures: &Figures) -> String {
    let metrics: Vec<String> = figures
        .list
        .iter()
        .map(|f| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(&f.name),
                f.value,
                json_str(f.unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.attempted,
        tally.failed,
        metrics.join(", ")
    )
}

fn bench(args: &Args, w: &Workload) -> i32 {
    let scenarios = w.scenarios(args.seed);
    let mut tally = Tally::default();
    let figures = if args.trace {
        trace(&scenarios[0], args.seconds, &mut tally)
    } else {
        measure(&scenarios, args.seconds, &mut tally)
    };
    let figures = figures.unwrap_or_default();
    if let Some(f) = figures.list.iter().find(|f| !f.value.is_finite()) {
        tally.check(false, || format!("{} is not finite", f.name));
    }
    tally.check(!figures.list.is_empty(), || "no figures measured".into());
    let correct = tally.problems.is_empty() && tally.failed == 0;
    println!(
        "{{\"workload\": {}, \"seed\": {}, \"default_seed\": {}, \"held_out_seed\": {}, \"trace\": {}, \"samples\": {{{}}}, \"problems\": [{}]}}",
        json_str(w.name),
        args.seed,
        w.default_seed,
        w.held_out_seed,
        args.trace,
        figures
            .samples
            .iter()
            .map(|(n, v)| format!("{}: {v:?}", json_str(n)))
            .collect::<Vec<_>>()
            .join(", "),
        tally.problems.iter().map(|p| json_str(p)).collect::<Vec<_>>().join(", ")
    );
    for p in &tally.problems {
        eprintln!("perfbench: {p}");
    }
    println!("{}", result_line(correct, &tally, &figures));
    if correct {
        0
    } else {
        1
    }
}

/// Runs a short cut of every workload through both paths: the driver
/// must reproduce `Scenario::run`, and every figure of both modes is
/// listed (name and unit) for the caller to check against
/// `BENCHMARK.json`.
fn selftest() -> i32 {
    let mut ok = true;
    let mut lines = Vec::new();
    for w in &workloads::WORKLOADS {
        let scenarios: Vec<Scenario> = w
            .scenarios(w.default_seed)
            .into_iter()
            .map(|s| s.scaled(w.smoke_factor))
            .collect();
        let mut tally = Tally::default();
        let e2e = measure(&scenarios, 0.0, &mut tally);
        let layers = trace(&scenarios[0], 0.0, &mut tally);
        let passed = tally.problems.is_empty() && e2e.is_some() && layers.is_some();
        for p in &tally.problems {
            eprintln!("perfbench selftest {}: {p}", w.name);
        }
        ok &= passed;
        let list = |f: Option<Figures>| {
            f.unwrap_or_default()
                .list
                .iter()
                .map(|x| format!("[{}, {}]", json_str(&x.name), json_str(x.unit)))
                .collect::<Vec<_>>()
                .join(", ")
        };
        lines.push(format!(
            "{{\"workload\": {}, \"passed\": {passed}, \"end_to_end\": [{}], \"per_layer\": [{}]}}",
            json_str(w.name),
            list(e2e),
            list(layers)
        ));
    }
    println!("{{\"selftest\": [{}]}}", lines.join(", "));
    if ok {
        0
    } else {
        1
    }
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let code = match parse_args(&argv) {
        Ok(None) => selftest(),
        Ok(Some(args)) => match workloads::find(&args.workload) {
            Some(w) => bench(&args, w),
            None => {
                let names: Vec<&str> = workloads::WORKLOADS.iter().map(|w| w.name).collect();
                eprintln!(
                    "perfbench: unknown workload {} (have {names:?})",
                    args.workload
                );
                2
            }
        },
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> | --selftest"
            );
            2
        }
    };
    std::process::exit(code);
}
