//! Rung-verdict invariance: the packed random-pattern rung and its scalar
//! reference implementation must agree everywhere.
//!
//! Both rungs draw the same 64-lane pattern stream (the packed engine
//! sweeps it a block at a time, the scalar one consumes it lane by lane),
//! so agreement here genuinely tests the simulation engines, not RNG luck.
//! The suite covers the committed fuzz fixture corpus, generated instances
//! with planted errors, and the 0,1,X-rung monotonicity link (an rp error
//! implies a symbolic_01x error).

use bbec::core::{checks, CheckSettings, PartialCircuit, Verdict};
use bbec::netlist::{generators, Circuit, Mutation};
use bbec::oracle::fixture::read_pair;
use bbec::oracle::scalar::random_patterns_scalar;
use std::path::PathBuf;

fn settings() -> CheckSettings {
    CheckSettings { random_patterns: 512, dynamic_reordering: false, ..CheckSettings::default() }
}

fn assert_invariant(name: &str, spec: &Circuit, partial: &PartialCircuit) {
    let s = settings();
    let packed = checks::random_patterns(spec, partial, &s)
        .unwrap_or_else(|e| panic!("{name}: packed rung failed: {e}"));
    let scalar = random_patterns_scalar(spec, partial, &s)
        .unwrap_or_else(|e| panic!("{name}: scalar rung failed: {e}"));
    assert_eq!(packed.verdict, scalar.verdict, "{name}: packed and scalar rung verdicts differ");
    // On an error both engines see the same stream, so the first erring
    // pattern — and with it the witness — is identical.
    assert_eq!(
        packed.counterexample, scalar.counterexample,
        "{name}: packed and scalar rungs found different witnesses"
    );
    if packed.verdict == Verdict::NoErrorFound {
        assert_eq!(
            packed.stats.patterns, scalar.stats.patterns,
            "{name}: clean runs must sweep the same pattern count"
        );
    }
}

#[test]
fn fixture_corpus_verdicts_are_engine_invariant() {
    for stem in ["boundary_01x", "boundary_local", "boundary_oe", "boundary_ie"] {
        let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join(format!("tests/fixtures/fuzz/{stem}_spec.blif"));
        let (spec, partial) =
            read_pair(&path).unwrap_or_else(|e| panic!("{stem}: fixture load failed: {e}"));
        assert_invariant(stem, &spec, &partial);
    }
}

#[test]
fn generated_instances_are_engine_invariant() {
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    let mut rng = StdRng::seed_from_u64(0x51_1A_4E);
    let mut errors_seen = 0u32;
    for seed in 0..24u64 {
        let spec = generators::random_logic("inv", 8, 36, 4, seed);
        // Two thirds get a planted mutation so both branches (error found /
        // clean sweep) are exercised.
        let host = if seed % 3 != 0 {
            let roots: Vec<_> = spec.outputs().iter().map(|&(_, s)| s).collect();
            let cone = spec.fanin_cone_gates(&roots);
            match Mutation::random(&spec, &cone, &mut rng) {
                Some(m) => m.apply(&spec).unwrap(),
                None => spec.clone(),
            }
        } else {
            spec.clone()
        };
        let Ok(partial) = PartialCircuit::black_box_gates(&host, &[2]) else { continue };
        let s = settings();
        let packed = checks::random_patterns(&spec, &partial, &s).unwrap();
        if packed.verdict == Verdict::ErrorFound {
            errors_seen += 1;
        }
        assert_invariant(&format!("seed {seed}"), &spec, &partial);
    }
    assert!(errors_seen > 0, "the sweep must exercise the error-found branch");
}

#[test]
fn rp_errors_are_confirmed_by_the_symbolic_rung() {
    // Monotonicity link on the fixture corpus: whenever the packed rp rung
    // errs, the stronger symbolic 0,1,X rung errs too.
    for stem in ["boundary_01x", "boundary_local", "boundary_oe", "boundary_ie"] {
        let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join(format!("tests/fixtures/fuzz/{stem}_spec.blif"));
        let (spec, partial) = read_pair(&path).unwrap();
        let s = settings();
        let rp = checks::random_patterns(&spec, &partial, &s).unwrap();
        if rp.verdict == Verdict::ErrorFound {
            let sym = checks::symbolic_01x(&spec, &partial, &s).unwrap();
            assert_eq!(
                sym.verdict,
                Verdict::ErrorFound,
                "{stem}: rp errored but the stronger 0,1,X rung stayed clean"
            );
        }
    }
}
