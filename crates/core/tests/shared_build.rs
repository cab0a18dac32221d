//! Shared builds across ladder rungs: [`CheckLadder::run`] builds the
//! specification BDDs and the Z_i simulation once per run and forks them
//! per rung. These tests pin down that the forks change nothing a check
//! reports, that the tracer counts a shared build once, and that a budget
//! abort inside a shared build is replayed only when a rebuild would abort
//! the same way.

use bbec_core::checks::{self, CheckLadder, LadderReport, StageResult};
use bbec_core::{CheckOutcome, CheckSettings, Method, PartialCircuit};
use bbec_netlist::mutate::Mutation;
use bbec_netlist::{generators, Circuit, GateKind};
use bbec_trace::{AttrValue, Trace, TraceEvent, Tracer};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::{Duration, Instant};

type Check =
    fn(&Circuit, &PartialCircuit, &CheckSettings) -> Result<CheckOutcome, bbec_core::CheckError>;

/// The five free functions, in ladder order.
const FREE: [Check; 5] = [
    checks::random_patterns,
    checks::symbolic_01x,
    checks::local_check,
    checks::output_exact,
    checks::input_exact,
];

/// A generated instance: 1 or 2 boxes, a planted mutation on two seeds
/// out of three.
fn instance(seed: u64) -> Option<(Circuit, PartialCircuit)> {
    let spec = generators::random_logic("shared", 7, 40, 3, seed);
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5B5B);
    let host = if seed.is_multiple_of(3) {
        spec.clone()
    } else {
        let roots: Vec<_> = spec.outputs().iter().map(|&(_, s)| s).collect();
        let cone = spec.fanin_cone_gates(&roots);
        Mutation::random(&spec, &cone, &mut rng)?.apply(&spec).ok()?
    };
    let boxes = 1 + (seed % 2) as usize;
    let partial = PartialCircuit::random_black_boxes(&host, 0.2, boxes, &mut rng).ok()?;
    Some((spec, partial))
}

/// The free functions run one by one, stopping at the first error.
fn one_by_one(spec: &Circuit, partial: &PartialCircuit, s: &CheckSettings) -> Vec<CheckOutcome> {
    let mut outcomes = Vec::new();
    for check in FREE {
        let outcome = check(spec, partial, s).expect("unbudgeted checks finish");
        let stop = outcome.is_error();
        outcomes.push(outcome);
        if stop {
            break;
        }
    }
    outcomes
}

fn assert_same(seed: u64, report: &LadderReport, free: &[CheckOutcome]) {
    assert!(report.budget_exceeded().is_empty(), "seed {seed}: unbudgeted ladder aborted");
    let ladder: Vec<&CheckOutcome> = report.outcomes().collect();
    assert_eq!(ladder.len(), free.len(), "seed {seed}: rungs run");
    for (a, b) in ladder.iter().zip(free) {
        let at = format!("seed {seed}, {}", b.method);
        assert_eq!(a.method, b.method, "{at}");
        assert_eq!(a.verdict, b.verdict, "{at}");
        assert_eq!(a.counterexample, b.counterexample, "{at}");
        assert_eq!(a.stats.apply_steps, b.stats.apply_steps, "{at}: apply steps");
        assert_eq!(a.stats.peak_check_nodes, b.stats.peak_check_nodes, "{at}: peak nodes");
        assert_eq!(a.stats.impl_nodes, b.stats.impl_nodes, "{at}: impl nodes");
    }
}

#[test]
fn shared_builds_match_the_free_functions() {
    let reordering = [
        CheckSettings { dynamic_reordering: false, ..CheckSettings::default() },
        CheckSettings { dynamic_reordering: true, reorder_threshold: 64, ..Default::default() },
    ];
    for base in reordering {
        // Few patterns, so most instances climb to the BDD rungs.
        let s = CheckSettings { random_patterns: 8, ..base };
        let (mut instances, mut reached_ie, mut errors, mut reorders) = (0, 0, 0, 0);
        for seed in 0..64u64 {
            let Some((spec, partial)) = instance(seed) else { continue };
            let report = CheckLadder::with_settings(s.clone()).run(&spec, &partial).unwrap();
            let free = one_by_one(&spec, &partial, &s);
            assert_same(seed, &report, &free);
            instances += 1;
            reached_ie += usize::from(free.len() == 5);
            errors += usize::from(report.deciding_method().is_some());
            reorders += free.iter().map(|o| o.stats.reorder_passes).sum::<u64>();
        }
        assert!(instances >= 48, "only {instances} instances generated");
        assert!(reached_ie >= 8 && errors >= 8, "{reached_ie} reached ie, {errors} errors");
        assert_eq!(reorders > 0, s.dynamic_reordering, "{reorders} reorder passes");
    }
}

fn spans<'a>(trace: &'a Trace, name: &str) -> Vec<&'a [(String, AttrValue)]> {
    trace
        .events()
        .iter()
        .filter_map(|e| match e {
            TraceEvent::Span { name: n, attrs, .. } if *n == name => Some(attrs.as_slice()),
            _ => None,
        })
        .collect()
}

/// Whether each `core.ladder_rung` span, in order, carries `replayed`.
fn replayed_rungs(trace: &Trace) -> Vec<bool> {
    spans(trace, "core.ladder_rung")
        .iter()
        .map(|attrs| attrs.iter().any(|(k, v)| k == "replayed" && *v == AttrValue::Bool(true)))
        .collect()
}

/// `(method, reason, has stats)` of every budget-exceeded rung.
fn aborts(report: &LadderReport) -> Vec<(Method, String, bool)> {
    report
        .stages
        .iter()
        .filter_map(|s| match s {
            StageResult::BudgetExceeded { method, reason, stats, .. } => {
                Some((*method, reason.clone(), stats.is_some()))
            }
            StageResult::Finished(_) => None,
        })
        .collect()
}

/// A clean carve whose specification build alone overruns `step_limit`.
fn run_traced(extra: CheckSettings) -> (LadderReport, Trace) {
    let spec = generators::magnitude_comparator(8);
    let partial = PartialCircuit::black_box_gates(&spec, &[2]).unwrap();
    let tracer = Tracer::new();
    let s = CheckSettings { tracer: tracer.clone(), ..extra };
    let report = CheckLadder::with_settings(s).run(&spec, &partial).unwrap();
    (report, tracer.finish())
}

fn tight() -> CheckSettings {
    CheckSettings {
        dynamic_reordering: false,
        random_patterns: 64,
        step_limit: Some(20),
        ..CheckSettings::default()
    }
}

#[test]
fn aborted_spec_build_is_built_once_and_replayed() {
    let (report, trace) = run_traced(tight());
    assert_eq!(spans(&trace, "core.sim").len(), 1, "the spec is built once per ladder");
    let aborts = aborts(&report);
    let methods: Vec<Method> = aborts.iter().map(|a| a.0).collect();
    assert_eq!(
        methods,
        [Method::Symbolic01X, Method::Local, Method::OutputExact, Method::InputExact]
    );
    let reason = &aborts[0].1;
    assert!(reason.contains("step"), "reason: {reason}");
    assert!(aborts[0].2, "the rung that ran the build keeps its stats");
    for (method, r, has_stats) in &aborts[1..] {
        assert_eq!(r, reason, "{method} must report the build's reason");
        assert!(!has_stats, "{method} replayed the abort and ran nothing");
    }
    assert_eq!(replayed_rungs(&trace), [false, false, true, true, true]);
}

#[test]
fn aborted_zi_build_is_built_once_and_replayed() {
    // The specification is free to build (its outputs are buffered
    // inputs); the implementation is a multiplier whose Z_i simulation
    // overruns the step limit.
    let imp = generators::array_multiplier(4);
    let mut b = Circuit::builder("wires");
    let inputs: Vec<_> = (0..imp.inputs().len()).map(|i| b.input(&format!("x{i}"))).collect();
    for (j, (name, _)) in imp.outputs().iter().enumerate() {
        let s = b.gate(GateKind::Buf, &[inputs[j % inputs.len()]]);
        b.output(name, s);
    }
    let spec = b.build().unwrap();
    let partial = PartialCircuit::black_box_gates(&imp, &[0]).unwrap();
    let tracer = Tracer::new();
    let s = CheckSettings { tracer: tracer.clone(), step_limit: Some(30), ..tight() };
    let mut ladder = CheckLadder::with_settings(s);
    ladder.stages.retain(|&m| m != Method::RandomPatterns);
    let report = ladder.run(&spec, &partial).unwrap();
    let trace = tracer.finish();

    assert_eq!(spans(&trace, "core.sim").len(), 2, "one spec build, one Z_i build");
    let aborts = aborts(&report);
    assert_eq!(aborts.len(), 4, "every rung overruns: {aborts:?}");
    let (loc, oe, ie) = (&aborts[1], &aborts[2], &aborts[3]);
    assert_eq!(loc.0, Method::Local);
    assert!(loc.2, "the rung that ran the Z_i build keeps its stats");
    for later in [oe, ie] {
        assert_eq!(later.1, loc.1, "{} must report the build's reason", later.0);
        assert!(!later.2, "{} replayed the abort", later.0);
    }
    assert_eq!(replayed_rungs(&trace), [false, false, true, true]);
}

#[test]
fn wall_clock_budgets_rebuild_instead_of_replaying() {
    let later = Instant::now() + Duration::from_secs(3600);
    for extra in [
        CheckSettings { time_limit: Some(Duration::from_secs(3600)), ..tight() },
        CheckSettings { deadline: Some(later), ..tight() },
    ] {
        let (report, trace) = run_traced(extra);
        assert_eq!(spans(&trace, "core.sim").len(), 4, "each BDD rung rebuilds the spec");
        let aborts = aborts(&report);
        assert_eq!(aborts.len(), 4);
        for (method, reason, has_stats) in &aborts {
            assert!(reason.contains("step"), "{method}: {reason}");
            assert!(has_stats, "{method} ran its own build");
        }
        assert!(replayed_rungs(&trace).iter().all(|&r| !r), "nothing is replayed");
    }
}

/// The value of counter `name` in a finished trace (0 if never added).
fn counter(trace: &Trace, name: &str) -> u64 {
    trace
        .events()
        .iter()
        .find_map(|e| match e {
            TraceEvent::Counter { name: n, value, .. } if n == name => Some(*value),
            _ => None,
        })
        .unwrap_or(0)
}

#[test]
fn tracer_counts_a_shared_build_once() {
    let spec = generators::magnitude_comparator(6);
    let partial = PartialCircuit::black_box_gates(&spec, &[3, 9]).unwrap();
    for reordering in [false, true] {
        // `rungs` local checks in a row share one Z_i build.
        let run = |rungs: usize| {
            let tracer = Tracer::new();
            let s = CheckSettings {
                tracer: tracer.clone(),
                dynamic_reordering: reordering,
                reorder_threshold: 64,
                ..CheckSettings::default()
            };
            let mut ladder = CheckLadder::with_settings(s);
            ladder.stages = vec![Method::Local; rungs];
            let report = ladder.run(&spec, &partial).unwrap();
            assert_eq!(report.outcomes().count(), rungs, "the carve is clean");
            let trace = tracer.finish();
            let steps: Vec<u64> = report.outcomes().map(|o| o.stats.apply_steps).collect();
            (counter(&trace, "bdd.apply_steps"), steps)
        };
        let (one, stats) = run(1);
        let (two, _) = run(2);
        let (three, stats3) = run(3);
        // Every rung's stats cost the check as if it built alone …
        assert!(stats3.iter().all(|&s| s == stats[0]), "{stats3:?} vs {stats:?}");
        // … while the tracer sees the build once: a rung on its own sends
        // build plus body, and each further rung only its body.
        assert_eq!(one, stats[0], "reordering {reordering}");
        let body = two - one;
        assert!(body < stats[0], "reordering {reordering}: a further rung re-sent the build");
        assert_eq!(three - two, body, "reordering {reordering}");
    }
}
