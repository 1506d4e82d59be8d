//! HopsFS-CL benchmark: runs one named workload for one seed, checks the
//! outputs, and prints every metric by name with its unit. The last line of
//! standard output is one JSON object: `{"correct", "attempted", "failed",
//! "metrics"}`, with the end-to-end metrics (`--trace 0`) or the per-layer
//! metrics (`--trace 1`).
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload spotify --seed 1 --seconds 10 --trace 0
//! ```
//!
//! See `perfbench/README.md` for the workloads, the metrics and what each
//! layer metric should move.

mod alloc;
mod check;
mod deploy;
mod hostclock;
mod measure;
mod refstorm;
mod stats;
mod trace;

use deploy::{Deployment, Role, SetupTimes, Workload};
use hostclock::HostCost;
use measure::{ClassHists, Probe, Window};
use simnet::SimDuration;
use std::process::ExitCode;
use std::time::Instant;
use workload::Mix;

#[global_allocator]
static ALLOCATOR: alloc::Counting = alloc::Counting;

/// Open-loop latency limit: p99.9 of a rung's ops, simulated.
const SLO_MS: f64 = 50.0;
/// The knee of the open-loop cell (fig_overload's saturation rate).
const KNEE_OPS: f64 = 5400.0;
/// Offered-rate ladder, as multiples of the knee.
const LADDER: [f64; 9] = [0.5, 0.65, 0.8, 0.85, 0.9, 0.95, 1.0, 1.5, 2.0];
/// The rung whose latencies are reported (below the knee).
const NOMINAL: f64 = 0.8;
/// Simulated seconds of measurement per requested second, per workload. On
/// a 2-thread x86-64 host the windows take one to two times `--seconds` of
/// host time; fixed, so the simulated window never depends on the host.
const SPOTIFY_SIM_PER_S: f64 = 0.5;
const MUTATIONS_SIM_PER_S: f64 = 0.5;
const OPENLOOP_SIM_PER_S: f64 = 24.0;
/// Window of the checked and traced runs, as a share of one measured window.
const CHECK_SHARE: f64 = 0.25;
/// Independent deployments per closed-loop run, each seeded from the run's
/// seed. Which namenode a session picks is random per seed, and the
/// resulting load imbalance moves the latency tail from seed to seed; the
/// median over three placements keeps one from setting a run's numbers.
const CLOSED_DEPLOYMENTS: u64 = 3;
/// The nominal rung measures this many deployments, seeded from the run's
/// seed, each `NOMINAL_WEIGHT` times as long as another rung, and reports
/// the median of their latency quantiles: its p99.9 rests on rare arrival
/// bursts, which differ from seed to seed.
const NOMINAL_DEPLOYMENTS: u64 = 9;
const NOMINAL_WEIGHT: f64 = 4.0;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or(format!("unknown workload {value}"))?)
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| format!("bad seconds {value}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("seconds out of range: {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

type Metrics = Vec<(String, f64, &'static str)>;

/// One measured window of a deployment.
fn measure(d: &mut Deployment, window: SimDuration, role: Role) -> Window {
    let open = Probe::take(d);
    let end = d.sim.now() + window;
    d.open_window(role);
    let host = HostCost::run(&mut d.sim, end);
    d.close_window();
    let close = Probe::take(d);
    Window::between(d, &open, &close, host)
}

/// Simulated metrics that must repeat exactly between the checked and the
/// traced run of a seed.
fn fingerprint(w: &Window) -> Metrics {
    let mut out = w.simulated_layers();
    out.extend(latency_metrics(std::slice::from_ref(&w.lat)));
    out.push(("ops_ok".into(), w.ok as f64, "count"));
    out.push(("ops_err".into(), w.err as f64, "count"));
    out.push(("ops_dropped".into(), w.dropped as f64, "count"));
    out.push(("cross_az_bytes".into(), w.cross_az_bytes as f64, "B"));
    out
}

/// Outcome of the checked run and, with `--trace 1`, the traced run.
struct Checked {
    setups: Vec<SetupTimes>,
    problems: Vec<String>,
    trace: Metrics,
}

/// Deploys twice more with the same seed and window: a checked run (drain,
/// audit, invariants) and, if asked, a traced run whose simulated metrics
/// must equal the checked run's.
fn checked_runs(deploy: impl Fn(Role) -> Deployment, window: SimDuration, traced: bool) -> Checked {
    let mut d = deploy(Role::Check);
    let start = d.sim.now();
    let w = measure(&mut d, window, Role::Check);
    let (mut problems, audited) = check::verify(&mut d);
    eprintln!(
        "checked run: {audited} acked mutations audited, {} problems",
        problems.len()
    );
    let mut setups = vec![d.setup];
    drop(d);
    let mut trace_metrics = Vec::new();
    if traced {
        let mut t = deploy(Role::Traced);
        assert_eq!(
            t.sim.now(),
            start,
            "checked and traced windows must open together"
        );
        let tw = measure(&mut t, window, Role::Traced);
        let (a, b) = (fingerprint(&w), fingerprint(&tw));
        for ((name, x, _), (_, y, _)) in a.iter().zip(&b) {
            if x.to_bits() != y.to_bits() {
                problems.push(format!(
                    "tracing perturbed {name}: {x} untraced vs {y} traced"
                ));
            }
        }
        eprintln!("traced run: {} spans", t.sim.spans().len());
        trace_metrics = trace::attribute(&t.sim, start);
        trace_metrics.push((
            "trace.overhead_frac".into(),
            tw.host.robust_s() / w.host.robust_s() - 1.0,
            "frac",
        ));
        setups.push(t.setup);
    }
    Checked {
        setups,
        problems,
        trace: trace_metrics,
    }
}

/// Per-layer metrics of the set-up phases (medians over every set-up).
fn setup_layers(setups: &[SetupTimes]) -> Metrics {
    let med = |f: fn(&SetupTimes) -> f64| stats::median(&setups.iter().map(f).collect::<Vec<_>>());
    vec![
        ("bench.setup.deploy_s".into(), med(|s| s.deploy_s), "s"),
        ("bench.setup.load_s".into(), med(|s| s.load_s), "s"),
        ("bench.setup.warmup_s".into(), med(|s| s.warmup_s), "s"),
    ]
}

/// Latency quantiles of each deployment, then their median across
/// deployments: a pooled tail would follow the most unlucky deployment.
fn latency_metrics(parts: &[ClassHists]) -> Metrics {
    let med =
        |f: fn(&ClassHists) -> f64| stats::median(&parts.iter().map(f).collect::<Vec<_>>()) / 1e6;
    vec![
        (
            "read_p50_ms".into(),
            med(|h| stats::quantile(&h.read, 0.5)),
            "ms",
        ),
        ("read_p999_ms".into(), med(|h| stats::p999(&h.read)), "ms"),
        (
            "write_p50_ms".into(),
            med(|h| stats::quantile(&h.write, 0.5)),
            "ms",
        ),
        ("write_p999_ms".into(), med(|h| stats::p999(&h.write)), "ms"),
    ]
}

/// Measures one deployment per seed, each for `window`, and pools their
/// windows; also returns each deployment's latency histograms.
fn measure_pooled(
    seeds: impl IntoIterator<Item = u64>,
    deploy: impl Fn(u64) -> Deployment,
    window: SimDuration,
    setups: &mut Vec<SetupTimes>,
    rss: &mut f64,
) -> (Window, Vec<ClassHists>) {
    let mut pooled: Option<Window> = None;
    let mut parts = Vec::new();
    for seed in seeds {
        let mut d = deploy(seed);
        let w = measure(&mut d, window, Role::Measure);
        *rss = rss.max(alloc::peak_rss_mb().unwrap_or(0.0));
        setups.push(d.setup);
        parts.push(w.lat.clone());
        match &mut pooled {
            Some(p) => p.absorb(&w),
            None => pooled = Some(w),
        }
    }
    (pooled.expect("at least one deployment"), parts)
}

fn ok_frac(w: &Window) -> f64 {
    w.ok as f64 / (w.ok + w.err + w.dropped).max(1) as f64
}

/// Everything one workload process measured.
struct Report {
    end_to_end: Metrics,
    per_layer: Metrics,
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
}

impl Report {
    /// Completes a workload's end-to-end metrics with the host ones, and
    /// gathers the per-layer metrics of its measured windows `all`. Every
    /// deployment's set-up, checked and traced runs included, is a sample.
    fn new(
        mut end_to_end: Metrics,
        all: &Window,
        mut setups: Vec<SetupTimes>,
        rss: f64,
        ref_ns: f64,
        checked: Checked,
    ) -> Report {
        setups.extend(checked.setups);
        let setup_s = stats::median(&setups.iter().map(SetupTimes::total_s).collect::<Vec<_>>());
        end_to_end.push(("setup_s".into(), setup_s, "s"));
        end_to_end.push(("peak_rss_mb".into(), rss, "MB"));
        eprintln!(
            "windows: {:.2} s host wall, {:.2} s robust",
            all.host.wall_s(),
            all.host.robust_s()
        );
        let mut per_layer = setup_layers(&setups);
        per_layer.extend(all.host_layers());
        per_layer.push(("simnet.ref_ns_per_event".into(), ref_ns, "ns/event"));
        per_layer.extend(all.simulated_layers());
        per_layer.extend(checked.trace);
        Report {
            end_to_end,
            per_layer,
            attempted: all.completed(),
            failed: all.err,
            problems: checked.problems,
        }
    }
}

/// A deployment seed derived from the run's seed (splitmix64 finalizer).
fn sub_seed(seed: u64, k: u64) -> u64 {
    let mut z = seed.wrapping_add(k.wrapping_add(1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn run_closed(args: &Args, mix: Mix, per_s: f64, ref_ns: f64) -> Report {
    let window = SimDuration::from_secs_f64(args.seconds * per_s / CLOSED_DEPLOYMENTS as f64);
    let mut setups = Vec::new();
    let mut rss: f64 = 0.0;
    let (w, parts) = measure_pooled(
        (0..CLOSED_DEPLOYMENTS).map(|k| sub_seed(args.seed, k)),
        |seed| deploy::closed_loop(mix, seed, Role::Measure),
        window,
        &mut setups,
        &mut rss,
    );
    let checked = checked_runs(
        |role| deploy::closed_loop(mix, sub_seed(args.seed, 0), role),
        window.mul_f64(CHECK_SHARE),
        args.trace,
    );

    let slo_ns = (SLO_MS * 1e6) as u64;
    let mut end_to_end: Metrics = vec![("ops_per_s".into(), w.ok as f64 / w.sim_s, "ops/s")];
    end_to_end.extend(latency_metrics(&parts));
    end_to_end.extend([
        ("ok_frac".to_string(), ok_frac(&w), "frac"),
        (
            "max_rate_under_slo".into(),
            stats::count_at_most(&w.lat.all, slo_ns) as f64 / w.sim_s,
            "ops/s",
        ),
        (
            "cross_az_bytes_per_op".into(),
            w.cross_az_bytes as f64 / w.ok.max(1) as f64,
            "B/op",
        ),
    ]);
    Report::new(end_to_end, &w, setups, rss, ref_ns, checked)
}

/// Whether a rung meets the latency limit: no failed op, no arrival queued
/// or dropped at the client, and p99.9 within the limit.
fn meets_slo(w: &Window) -> bool {
    w.err == 0
        && w.dropped == 0
        && w.ol_arrival_queue_max == 0
        && stats::p999(&w.lat.all) <= SLO_MS * 1e6
}

fn run_open(args: &Args, ref_ns: f64) -> Report {
    let weights = LADDER.len() as f64 - 1.0 + NOMINAL_WEIGHT * NOMINAL_DEPLOYMENTS as f64;
    let base = SimDuration::from_secs_f64(args.seconds * OPENLOOP_SIM_PER_S / weights);
    let mut setups = Vec::new();
    let mut rungs = Vec::new();
    let mut rss: f64 = 0.0;
    for &mult in &LADDER {
        // The nominal rung pools several seeds' deployments (see
        // NOMINAL_DEPLOYMENTS); every other rung is one deployment.
        let seeds: Vec<u64> = if mult == NOMINAL {
            (0..NOMINAL_DEPLOYMENTS)
                .map(|k| sub_seed(args.seed, k))
                .collect()
        } else {
            vec![args.seed]
        };
        let window = if mult == NOMINAL {
            base.mul_f64(NOMINAL_WEIGHT)
        } else {
            base
        };
        let deploy = |seed| deploy::open_loop(seed, mult * KNEE_OPS, Role::Measure);
        let (w, parts) = measure_pooled(seeds, deploy, window, &mut setups, &mut rss);
        eprintln!(
            "rung {mult:.2}x: offered {:.0}/s goodput {:.0}/s p99.9 {:.2} ms err {} dropped {} queue max {}",
            w.offered as f64 / w.sim_s,
            w.ok as f64 / w.sim_s,
            stats::p999(&w.lat.all) / 1e6,
            w.err,
            w.dropped,
            w.ol_arrival_queue_max
        );
        if parts.len() > 1 {
            let p999s = |f: fn(&ClassHists) -> &simnet::Histogram| {
                parts
                    .iter()
                    .map(|h| format!("{:.2}", stats::p999(f(h)) / 1e6))
                    .collect::<Vec<_>>()
            };
            eprintln!(
                "  per deployment: read p99.9 {:?} write p99.9 {:?} ms",
                p999s(|h| &h.read),
                p999s(|h| &h.write)
            );
        }
        rungs.push((mult, w, parts));
    }
    let top = &rungs.last().expect("ladder is not empty").1;
    let (_, nominal, nominal_parts) = rungs
        .iter()
        .find(|(m, _, _)| *m == NOMINAL)
        .expect("nominal rung on the ladder");
    let max_rate = rungs
        .iter()
        .take_while(|(_, w, _)| meets_slo(w))
        .last()
        .map_or(0.0, |(_, w, _)| w.offered as f64 / w.sim_s);
    let checked = checked_runs(
        |role| deploy::open_loop(args.seed, LADDER[LADDER.len() - 1] * KNEE_OPS, role),
        base.mul_f64(CHECK_SHARE),
        args.trace,
    );

    let mut all = rungs[0].1.clone();
    for (_, w, _) in &rungs[1..] {
        all.absorb(w);
    }
    let mut end_to_end: Metrics = vec![("ops_per_s".into(), top.ok as f64 / top.sim_s, "ops/s")];
    end_to_end.extend(latency_metrics(nominal_parts));
    end_to_end.extend([
        ("ok_frac".to_string(), ok_frac(top), "frac"),
        ("max_rate_under_slo".into(), max_rate, "ops/s"),
        (
            "cross_az_bytes_per_op".into(),
            nominal.cross_az_bytes as f64 / nominal.ok.max(1) as f64,
            "B/op",
        ),
    ]);
    Report::new(end_to_end, &all, setups, rss, ref_ns, checked)
}

fn json_metrics(metrics: &Metrics) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload spotify|mutations|openloop --seed N --seconds S --trace 0|1"
            );
            return ExitCode::from(2);
        }
    };
    let start = Instant::now();
    let (ref_ns, ref_events) = refstorm::ns_per_event();
    eprintln!("kernel reference: {ref_ns:.1} ns/event over {ref_events} events");
    let report = match args.workload {
        Workload::OpenLoop => run_open(&args, ref_ns),
        Workload::Spotify => run_closed(&args, Mix::SPOTIFY, SPOTIFY_SIM_PER_S, ref_ns),
        Workload::Mutations => {
            run_closed(&args, deploy::MUTATIONS_MIX, MUTATIONS_SIM_PER_S, ref_ns)
        }
    };
    for (name, value, unit) in report.end_to_end.iter().chain(&report.per_layer) {
        println!("{name:<44} {value:>16.6} {unit}");
    }
    for p in &report.problems {
        eprintln!("CHECK FAILED: {p}");
    }
    let all_finite = report
        .end_to_end
        .iter()
        .chain(&report.per_layer)
        .all(|(_, v, _)| v.is_finite());
    let correct = report.problems.is_empty() && all_finite;
    let metrics = if args.trace {
        &report.per_layer
    } else {
        &report.end_to_end
    };
    eprintln!(
        "total host time {:.1} s, process peak RSS {:.0} MB",
        start.elapsed().as_secs_f64(),
        alloc::peak_rss_mb().unwrap_or(0.0)
    );
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        report.attempted,
        report.failed,
        json_metrics(metrics)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
