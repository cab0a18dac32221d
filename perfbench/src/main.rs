//! End-to-end ladder benchmark for `bbec`.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <table1-ladder|wide-cones|serve-mixed> [--seed N] [--seconds S] [--trace 0|1]
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- --write-reference
//! ```
//!
//! With `--trace 0` a run checks rounds of its workload in a closed loop for
//! `--seconds` and reports the end-to-end metrics; with `--trace 1` it
//! alternates untraced and traced rounds and reports the per-layer metrics.
//! Every verdict is checked against `reference.txt` and every
//! counterexample is replayed. The last line of standard output is one JSON
//! object; the exit code is 0 when every output was correct, 1 when one was
//! not, 2 on a usage or set-up error. See `README.md` for the workloads.

mod check;
mod layers;
mod pool;
mod reference;
mod serve;

use check::Observed;
use pool::{Instance, Workload};
use reference::{rung_name, Reference, LADDER};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 7;

/// Apply-step budget of every BDD rung window in `table1-ladder` (the
/// `bbec check --step-limit` knob) and of every `serve-mixed` request (the
/// protocol's `step_limit`). Without it the default ladder sifts for
/// minutes on some carves; a step budget, unlike a time limit, fires at
/// the same point on every run, so verdicts and counts repeat exactly.
const STEP_LIMIT: u64 = 75_000;

/// What a round draws per design. `wide-cones` leaves out the mutations
/// only the joint BDD rungs convict, to stay bound by the front end.
fn mix(workload: Workload) -> pool::Mix {
    match workload {
        Workload::Table1Ladder => pool::Mix { bdd_errors: true, shallow: 12 },
        Workload::WideCones => pool::Mix { bdd_errors: false, shallow: 40 },
        Workload::ServeMixed => pool::Mix { bdd_errors: true, shallow: 6 },
    }
}

/// One check or request of a round.
#[derive(Debug)]
pub struct Sample {
    /// Index of the instance in the workload's pool.
    pub index: usize,
    pub latency_ms: f64,
    /// The reduced outcome, or why the check failed outright.
    pub result: Result<Observed, String>,
    /// Served from the full-result cache (serve-mixed only).
    pub cached: bool,
    /// Cones the service re-checked (serve-mixed only).
    pub cones_rechecked: u64,
    /// No cached cone contributed; its `ResourceStats` durations belong to
    /// rung spans of this round (the honesty self-test's basis).
    pub cold: bool,
}

pub fn host_parallelism() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

/// Nearest-rank quantile of unsorted values (0 for none).
pub fn quantile(values: &[f64], q: f64) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n => v[((q * n as f64).ceil() as usize).clamp(1, n) - 1],
    }
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn usage(msg: &str) -> ! {
    eprintln!("perfbench: {msg}");
    eprintln!(
        "usage: perfbench --workload <table1-ladder|wide-cones|serve-mixed> [--seed N] [--seconds S] \
         [--trace 0|1] | --write-reference"
    );
    std::process::exit(2)
}

fn parse_args() -> Args {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.iter().any(|a| a == "--write-reference") {
        for w in Workload::ALL {
            if let Err(e) = reference::generate(w) {
                usage(&e);
            }
        }
        std::process::exit(0);
    }
    let mut args =
        Args { workload: Workload::Table1Ladder, seed: 2001, seconds: 10.0, trace: false };
    let mut workload = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().unwrap_or_else(|| usage(&format!("{flag} needs a value")));
        let bad = || -> String { format!("bad value `{value}` for {flag}") };
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(value).unwrap_or_else(|| usage(&bad())))
            }
            "--seed" => args.seed = value.parse().unwrap_or_else(|_| usage(&bad())),
            "--seconds" => args.seconds = value.parse().unwrap_or_else(|_| usage(&bad())),
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage(&bad()),
                }
            }
            _ => usage(&format!("unknown flag {flag}")),
        }
    }
    args.workload = workload.unwrap_or_else(|| usage("--workload is required"));
    args
}

/// Everything a run needs before the clock starts.
struct Prepared {
    pool: Vec<Instance>,
    reference: Reference,
    /// Pool indices of one round, in order.
    order: Vec<usize>,
    /// serve-mixed: the request lines of one round.
    requests: Vec<(usize, String)>,
}

/// Generates circuits, carves, mutations and serialised inputs, and picks
/// the seeded round (the service itself is built per round).
fn prepare(workload: Workload, seed: u64) -> Result<Prepared, String> {
    let pool = pool::pool(workload);
    let reference = Reference::load(workload)?;
    let order = match workload {
        Workload::ServeMixed => serve::round(&pool, &reference, seed, mix(workload)),
        _ => pool::round(&pool, &reference, seed, mix(workload)),
    };
    let requests = match workload {
        Workload::ServeMixed => order
            .iter()
            .enumerate()
            .map(|(k, &i)| (i, serve::request_line(&format!("q{k}"), &pool[i], STEP_LIMIT)))
            .collect(),
        _ => Vec::new(),
    };
    Ok(Prepared { pool, reference, order, requests })
}

/// One round: the samples, the service counters (serve-mixed) and the
/// round's wall time.
struct Round {
    samples: Vec<Sample>,
    service: Option<serve::ServiceCounters>,
    wall: Duration,
}

fn run_round(
    workload: Workload,
    p: &Prepared,
    tracer: &bbec_trace::Tracer,
) -> Result<Round, String> {
    let start = Instant::now();
    let (samples, service) = match workload {
        Workload::ServeMixed => {
            let (samples, counters) =
                serve::serve_round(&p.requests, serve::config(tracer.clone()))?;
            (samples, Some(counters))
        }
        _ => {
            let step_limit = (workload == Workload::Table1Ladder).then_some(STEP_LIMIT);
            let settings = bbec_core::CheckSettings {
                step_limit,
                tracer: tracer.clone(),
                ..bbec_core::CheckSettings::default()
            };
            (check::check_round(&p.pool, &p.order, &settings, host_parallelism()), None)
        }
    };
    Ok(Round { samples, service, wall: start.elapsed() })
}

/// The correctness gate: per sample, why it is wrong (if it is).
///
/// A sample is wrong when the check failed with a non-budget error, when
/// its verdict or deciding rung differs from what the reference implies
/// given the rungs that ran out of budget, or when its counterexample does
/// not replay on the parsed instance.
fn judge(samples: &[&Sample], p: &Prepared) -> Vec<Option<String>> {
    let mut replayed: BTreeMap<(usize, Vec<bool>, Option<usize>), Option<String>> = BTreeMap::new();
    samples
        .iter()
        .map(|s| {
            let inst = &p.pool[s.index];
            let obs = match &s.result {
                Ok(obs) => obs,
                Err(e) => return Some(format!("{}: {e}", inst.id)),
            };
            let Some(truth) = p.reference.truth(&inst.id) else {
                return Some(format!("{}: no reference entry", inst.id));
            };
            let expected = truth.expected_error_rung(&obs.aborted);
            if obs.error_rung != expected {
                let show = |r: Option<bbec_core::Method>| {
                    r.map_or("no error".to_string(), |m| format!("error at {m}"))
                };
                return Some(format!(
                    "{}: expected {}, got {}",
                    inst.id,
                    show(expected),
                    show(obs.error_rung)
                ));
            }
            let cex = obs.counterexample.as_ref()?;
            replayed
                .entry((s.index, cex.inputs.clone(), cex.output))
                .or_insert_with(|| {
                    let replay = check::parse_instance(inst).and_then(|(spec, partial)| {
                        bbec_core::validate_counterexample(&spec, &partial, cex)
                    });
                    replay
                        .err()
                        .map(|e| format!("{}: counterexample does not replay: {e}", inst.id))
                })
                .clone()
        })
        .collect()
}

/// Peak resident set of this process (`VmHWM`), in MiB.
fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("/proc/self/status: {e}"))?;
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kib / 1024.0)
}

fn json_metrics(metrics: &[(&str, &str, f64)]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, unit, v)| format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"))
        .collect();
    format!("{{{}}}", body.join(", "))
}

fn fail(e: String) -> ! {
    eprintln!("perfbench: {e}");
    std::process::exit(2)
}

fn main() {
    let args = parse_args();
    let workload = args.workload;
    println!(
        "perfbench workload={} seed={} seconds={} trace={} host_parallelism={} profile={}",
        workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        host_parallelism(),
        if cfg!(debug_assertions) { "debug" } else { "release" },
    );

    let mut setup_times = Vec::new();
    let mut prepared = None;
    for _ in 0..SETUP_REPS {
        let start = Instant::now();
        let p = prepare(workload, args.seed).unwrap_or_else(|e| fail(e));
        setup_times.push(start.elapsed().as_secs_f64());
        prepared = Some(std::hint::black_box(p));
    }
    let p = prepared.expect("at least one set-up");
    let setup_s = median(&setup_times);
    let deep = p
        .order
        .iter()
        .filter(|&&i| !p.reference.truth(&p.pool[i].id).is_some_and(|t| t.is_shallow()))
        .count();
    println!(
        "round: {} {} over {} pool instances ({deep} not decided by r.p.)",
        p.order.len(),
        if workload == Workload::ServeMixed { "requests" } else { "checks" },
        p.pool.len(),
    );

    let off = bbec_trace::Tracer::disabled();
    let start = Instant::now();
    let mut rounds: Vec<Round> = Vec::new();
    let mut traced: Vec<(Round, layers::RoundLayers)> = Vec::new();
    if args.trace {
        // Untraced and traced rounds alternate, at least two of each, so
        // the traced rounds can be compared count for count.
        while traced.len() < 2 || start.elapsed().as_secs_f64() < args.seconds {
            rounds.push(run_round(workload, &p, &off).unwrap_or_else(|e| fail(e)));
            let tracer = bbec_trace::Tracer::new();
            let round = run_round(workload, &p, &tracer).unwrap_or_else(|e| fail(e));
            let l = layers::round_layers(&tracer.finish(), &round.samples, round.service.as_ref());
            traced.push((round, l));
        }
    } else {
        while rounds.is_empty() || start.elapsed().as_secs_f64() < args.seconds {
            rounds.push(run_round(workload, &p, &off).unwrap_or_else(|e| fail(e)));
        }
    }
    let timed = start.elapsed().as_secs_f64();
    let walls: Vec<String> =
        rounds.iter().map(|r| format!("{:.2}", r.wall.as_secs_f64())).collect();
    println!("untraced round walls (s): {}", walls.join(" "));

    // Correctness gate over every sample of every round.
    let all: Vec<&Sample> =
        rounds.iter().chain(traced.iter().map(|(r, _)| r)).flat_map(|r| &r.samples).collect();
    let verdicts = judge(&all, &p);
    let failed = verdicts.iter().filter(|v| v.is_some()).count();
    for why in verdicts.iter().flatten().take(10) {
        println!("WRONG {why}");
    }
    let attempted = all.len();
    let budget_hits =
        all.iter().filter(|s| s.result.as_ref().is_ok_and(|o| !o.aborted.is_empty())).count();
    let mut correct = failed == 0;

    let metrics: Vec<(&str, &str, f64)> = if args.trace {
        let (layer_metrics, ok) = report_layers(&rounds, &traced);
        correct &= ok;
        layer_metrics
    } else {
        let latencies: Vec<f64> = all.iter().map(|s| s.latency_ms).collect();
        let p90 = quantile(&latencies, 0.9);
        let unit = if workload == Workload::ServeMixed { "requests/s" } else { "checks/s" };
        let rss = peak_rss_mib().unwrap_or_else(|e| fail(e));
        let rows = [
            ("setup_s", "s", setup_s, format!("median of {SETUP_REPS} set-ups")),
            (
                "throughput_per_s",
                "1/s",
                attempted as f64 / timed,
                format!("{unit}: {attempted} in {timed:.2} s, {} rounds", rounds.len()),
            ),
            ("latency_p50_ms", "ms", median(&latencies), format!("{attempted} samples")),
            (
                "latency_p90_ms",
                "ms",
                p90,
                format!(
                    "{attempted} samples, {} above",
                    latencies.iter().filter(|&&l| l > p90).count()
                ),
            ),
            ("peak_rss_mib", "MiB", rss, "VmHWM of the run".to_string()),
        ];
        println!("{:<20} {:>14} {:<6} basis", "metric", "value", "unit");
        for (name, unit, value, basis) in &rows {
            println!("{name:<20} {value:>14.4} {unit:<6} {basis}");
        }
        rows.iter().map(|(n, u, v, _)| (*n, *u, *v)).collect()
    };
    println!(
        "failed_frac = {} ({failed} / {attempted}); budget_abort_frac = {} ({budget_hits} / {attempted})",
        failed as f64 / attempted as f64,
        budget_hits as f64 / attempted as f64,
    );
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
        json_metrics(&metrics)
    );
    std::process::exit(if correct { 0 } else { 1 });
}

/// Prints the per-layer table of a traced run and returns its metrics and
/// whether the traced run's own checks held: the deterministic counts
/// repeat exactly across traced rounds, and no rung's span time is below
/// the `ResourceStats::duration` sum of the same rung.
fn report_layers(
    untraced: &[Round],
    traced: &[(Round, layers::RoundLayers)],
) -> (Vec<(&'static str, &'static str, f64)>, bool) {
    let mut ok = true;
    let mut out = Vec::new();
    println!(
        "{:<30} {:>14} {:<6} (median over {} traced rounds)",
        "layer metric",
        "value",
        "unit",
        traced.len()
    );
    for (name, unit) in layers::METRICS {
        let values: Vec<f64> = traced.iter().map(|(_, l)| l.values[name]).collect();
        let value = median(&values);
        println!("{name:<30} {value:>14.4} {unit}");
        out.push((name, unit, value));
    }
    let plain: f64 = untraced.iter().map(|r| r.wall.as_secs_f64()).sum();
    let with: f64 = traced.iter().map(|(r, _)| r.wall.as_secs_f64()).sum();
    let ratio = with / plain;
    println!(
        "{:<30} {ratio:>14.4} {} (traced {with:.3} s / untraced {plain:.3} s, {} rounds each)",
        layers::OVERHEAD.0,
        layers::OVERHEAD.1,
        traced.len()
    );
    out.push((layers::OVERHEAD.0, layers::OVERHEAD.1, ratio));

    let first = &traced[0].1.counts;
    for (k, (_, l)) in traced.iter().enumerate().skip(1) {
        for (name, value) in &l.counts {
            if first.get(name) != Some(value) {
                println!(
                    "NONDETERMINISM {name}: traced round 1 counted {:?}, round {} counted {value}",
                    first.get(name),
                    k + 1
                );
                ok = false;
            }
        }
    }
    let digest: Vec<String> = first.iter().map(|(n, v)| format!("{n}={v}")).collect();
    println!("deterministic counts: {}", digest.join(" "));
    for (_, l) in traced {
        for (k, m) in LADDER.iter().enumerate() {
            if l.rung_span_ms[k] + 1e-9 < l.rung_stats_ms[k] {
                println!(
                    "HONESTY {}: rung spans {:.3} ms < ResourceStats::duration sum {:.3} ms",
                    layers::rung_metric(*m),
                    l.rung_span_ms[k],
                    l.rung_stats_ms[k]
                );
                ok = false;
            }
        }
    }
    let l = &traced[0].1;
    let row: Vec<String> = LADDER
        .iter()
        .enumerate()
        .map(|(k, m)| {
            format!("{} {:.1}/{:.1}", rung_name(*m), l.rung_span_ms[k], l.rung_stats_ms[k])
        })
        .collect();
    println!("rung span ms / ResourceStats ms (cold checks, round 1): {}", row.join(", "));
    (out, ok)
}
