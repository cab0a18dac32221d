//! Integration tests for the extension modules through the public facade:
//! fault localisation, bounded sequential checking, the exact checks, the
//! netlist optimiser and BDD forest serialisation working together.

use bbec::core::diagnose::{confirm_region, locate_single_gate_repairs};
use bbec::core::unroll::{unroll, SequentialCircuit};
use bbec::core::{checks, CheckSettings, PartialCircuit, Verdict};
use bbec::netlist::mutate::{Mutation, MutationKind};
use bbec::netlist::{generators, opt, Circuit};

fn settings() -> CheckSettings {
    CheckSettings { dynamic_reordering: false, random_patterns: 300, ..CheckSettings::default() }
}

/// Localisation agrees with the input-exact check: confirmed sites pass it
/// when boxed, rejected sites fail it.
#[test]
fn diagnosis_and_session_are_consistent() {
    let spec = generators::magnitude_comparator(4);
    let bug = spec
        .gates()
        .iter()
        .position(|g| g.kind == bbec::netlist::GateKind::Or)
        .expect("comparator has ORs") as u32;
    let faulty = Mutation { gate: bug, kind: MutationKind::TypeChange }.apply(&spec).unwrap();
    let all: Vec<u32> = (0..faulty.gates().len() as u32).collect();
    let sites = locate_single_gate_repairs(&spec, &faulty, &all, &settings()).unwrap();
    assert!(sites.iter().any(|s| s.gates == vec![bug]));

    for &g in &all {
        let Ok(partial) = PartialCircuit::black_box_gates(&faulty, &[g]) else {
            continue;
        };
        let verdict = checks::input_exact(&spec, &partial, &settings()).unwrap().verdict;
        let confirmed = sites.iter().any(|s| s.gates == vec![g]);
        assert_eq!(
            verdict == Verdict::NoErrorFound,
            confirmed,
            "input-exact and scan disagree on gate {g}"
        );
    }
}

/// Optimised specifications are drop-in: every check verdict is identical
/// against the raw and the optimised spec.
#[test]
fn optimizer_is_transparent_to_checks() {
    let raw = generators::random_logic("ot", 7, 60, 3, 21);
    let optimized = opt::optimize(&raw).unwrap();
    assert!(bbec::sat::tseitin::check_equivalence(&raw, &optimized).is_none());
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    let mut rng = StdRng::seed_from_u64(2);
    let roots: Vec<_> = raw.outputs().iter().map(|&(_, s)| s).collect();
    let cone = raw.fanin_cone_gates(&roots);
    for _ in 0..5 {
        let m = Mutation::random(&raw, &cone, &mut rng).unwrap();
        let faulty = m.apply(&raw).unwrap();
        let Ok(partial) = PartialCircuit::random_black_boxes(&faulty, 0.15, 1, &mut rng) else {
            continue;
        };
        let against_raw = checks::output_exact(&raw, &partial, &settings()).unwrap().verdict;
        let against_opt = checks::output_exact(&optimized, &partial, &settings()).unwrap().verdict;
        assert_eq!(against_raw, against_opt, "{}", m.describe(&raw));
    }
}

/// Unrolled sequential circuits survive a BDD forest round-trip: the
/// unrolled spec's output functions serialise and reload bit-exactly.
#[test]
fn unrolled_spec_bdds_round_trip_through_serialisation() {
    // Small sequential toggle circuit.
    let mut b = Circuit::builder("tgl");
    let en = b.input("en");
    let s0 = b.input("s0");
    let n0 = b.xor2(s0, en);
    b.output("q", s0);
    b.output("n0", n0);
    let tc = b.build().unwrap();
    let seq = SequentialCircuit::new(tc, vec![(1, 1)], vec![false]).unwrap();
    let unrolled = unroll(&seq, 4).unwrap();

    let mut ctx = bbec::core::SymbolicContext::new(&unrolled, &settings());
    let outs = ctx.build_outputs(&unrolled).unwrap();
    let text = ctx.manager.write_forest(&outs);
    let mut m2 = bbec::bdd::BddManager::new();
    let loaded = m2.read_forest(&text).unwrap();
    let n = unrolled.inputs().len();
    for bits in 0..1u32 << n {
        let assign_circ: Vec<bool> = (0..n).map(|i| bits >> i & 1 == 1).collect();
        let expect = unrolled.eval(&assign_circ).unwrap();
        // Context variables are in DFS order; map positionally.
        let mut assign_bdd = vec![false; ctx.manager.var_count().max(m2.var_count())];
        for (pos, &v) in ctx.input_vars().iter().enumerate() {
            assign_bdd[v.index() as usize] = assign_circ[pos];
        }
        for ((&a, &b2), &e) in outs.iter().zip(&loaded).zip(&expect) {
            assert_eq!(ctx.manager.eval(a, &assign_bdd), e);
            assert_eq!(m2.eval(b2, &assign_bdd), e);
        }
    }
}

/// `confirm_region` composes with the convex closure on multi-gate regions.
#[test]
fn region_confirmation_with_closure() {
    let spec = generators::ripple_carry_adder(4);
    let bug = 7u32;
    let faulty =
        Mutation { gate: bug, kind: MutationKind::ToggleOutputInverter }.apply(&spec).unwrap();
    // A sloppy hypothesis around the bug: gates 5..=9 (not convex a priori).
    let region: Vec<u32> = (5..=9).collect();
    let site = confirm_region(&spec, &faulty, &region, &settings()).unwrap();
    let site = site.expect("region containing the bug must be confirmed");
    assert!(site.gates.contains(&bug));
}
