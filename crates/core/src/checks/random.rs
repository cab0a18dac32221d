//! The non-symbolic baseline: 0,1,X simulation with random patterns
//! (column `r.p.` of the paper's tables).
//!
//! Patterns run through the bit-parallel dual-rail engine
//! ([`bbec_netlist::bitsim`]): 64 patterns per block, the specification on
//! the two-valued fast path and the partial implementation dual-rail with
//! black-box outputs injected as all-X lanes. The scalar reference
//! implementation (`bbec_oracle::scalar::random_patterns_scalar`) draws the
//! *same* pattern stream lane by lane, so verdicts are invariant between
//! the two by construction — the differential suite and the `sim_micro`
//! benchmark both lean on that.

use crate::checks::validate_interface;
use crate::partial::PartialCircuit;
use crate::report::{
    CheckError, CheckOutcome, CheckSettings, Counterexample, Method, ResourceStats, Verdict,
};
use bbec_netlist::bitsim::{self, BitSim};
use bbec_netlist::Circuit;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Instant;

/// One 64-lane block of the shared pattern stream: one word per input,
/// lane `j` of word `i` is input `i` of pattern `block·64 + j`.
fn next_block(rng: &mut StdRng, words: &mut [u64]) {
    for w in words.iter_mut() {
        *w = rng.next_u64();
    }
}

/// Simulates `settings.random_patterns` random vectors through the partial
/// implementation in 0,1,X logic and compares definite outputs against the
/// specification.
///
/// An error is reported when some output is *definitely* wrong — i.e. wrong
/// no matter how the black boxes behave. This is the weakest (and with
/// large pattern counts, often the slowest) method of the paper; the
/// bit-parallel engine sweeps 64 patterns per topo walk to compensate.
///
/// # Errors
///
/// [`CheckError::InterfaceMismatch`] if spec and implementation interfaces
/// differ; [`CheckError::Netlist`] on simulation failures.
pub fn random_patterns(
    spec: &Circuit,
    partial: &PartialCircuit,
    settings: &CheckSettings,
) -> Result<CheckOutcome, CheckError> {
    validate_interface(spec, partial)?;
    let start = Instant::now();
    let mut rng = StdRng::seed_from_u64(settings.seed);
    let n = spec.inputs().len();
    let mut spec_sim = BitSim::new(spec);
    let mut impl_sim = BitSim::new(partial.circuit());
    let mut words = vec![0u64; n];
    let zero_xs = vec![0u64; n];
    let mut spec_out = vec![0u64; spec.outputs().len()];
    let total = settings.random_patterns as u64;
    let mut patterns = 0u64;
    let outcome = |verdict, counterexample, patterns, duration| CheckOutcome {
        method: Method::RandomPatterns,
        verdict,
        counterexample,
        stats: ResourceStats { duration, patterns, ..ResourceStats::default() },
    };
    while patterns < total {
        let lanes = bitsim::LANES.min((total - patterns) as usize);
        let live = bitsim::lane_mask(lanes);
        next_block(&mut rng, &mut words);
        spec_out.copy_from_slice(spec_sim.eval_block(&words)?);
        let (got_ones, got_xs) = impl_sim.eval_ternary_block(&words, &zero_xs)?;
        // Wrong = definite lane whose value differs from the spec's. The
        // witness is the first erring *pattern* (lowest lane across all
        // outputs), then the first erring output within it — the same scan
        // order as the scalar reference, so witnesses agree exactly.
        let mut any_wrong = 0u64;
        for (j, &expect) in spec_out.iter().enumerate() {
            any_wrong |= !got_xs[j] & (got_ones[j] ^ expect) & live;
        }
        if any_wrong != 0 {
            let lane = any_wrong.trailing_zeros() as usize;
            let j = spec_out
                .iter()
                .enumerate()
                .position(|(j, &expect)| bitsim::lane(!got_xs[j] & (got_ones[j] ^ expect), lane))
                .expect("some output is wrong at this lane");
            let inputs: Vec<bool> = words.iter().map(|&w| bitsim::lane(w, lane)).collect();
            let cex = Counterexample { inputs, output: Some(j) };
            crate::cex::validate_counterexample(spec, partial, &cex).map_err(|detail| {
                CheckError::CounterexampleRejected { method: Method::RandomPatterns, detail }
            })?;
            settings.tracer.counter_add("sim.patterns", patterns + lane as u64 + 1);
            return Ok(outcome(
                Verdict::ErrorFound,
                Some(cex),
                patterns + lane as u64 + 1,
                start.elapsed(),
            ));
        }
        patterns += lanes as u64;
    }
    settings.tracer.counter_add("sim.patterns", patterns);
    Ok(outcome(Verdict::NoErrorFound, None, patterns, start.elapsed()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PartialCircuit;
    use bbec_netlist::generators;
    use bbec_netlist::mutate::{Mutation, MutationKind};

    fn fast_settings() -> CheckSettings {
        CheckSettings { random_patterns: 500, ..CheckSettings::default() }
    }

    #[test]
    fn clean_partial_passes() {
        let c = generators::ripple_carry_adder(4);
        let p = PartialCircuit::black_box_gates(&c, &[3, 4]).unwrap();
        let out = random_patterns(&c, &p, &fast_settings()).unwrap();
        assert_eq!(out.verdict, Verdict::NoErrorFound);
        assert_eq!(out.method, Method::RandomPatterns);
        assert_eq!(out.stats.patterns, 500);
    }

    #[test]
    fn gross_error_outside_box_is_caught() {
        let c = generators::ripple_carry_adder(4);
        // Invert the final carry output (gate far from the box).
        let last = (c.gates().len() - 1) as u32;
        let faulty =
            Mutation { gate: last, kind: MutationKind::ToggleOutputInverter }.apply(&c).unwrap();
        let p = PartialCircuit::black_box_gates(&faulty, &[0]).unwrap();
        let out = random_patterns(&c, &p, &fast_settings()).unwrap();
        assert_eq!(out.verdict, Verdict::ErrorFound);
        let cex = out.counterexample.expect("witness");
        // Verify the witness: the partial implementation's definite output
        // disagrees with the spec.
        let tv: Vec<bbec_netlist::Tv> =
            cex.inputs.iter().map(|&b| bbec_netlist::Tv::from(b)).collect();
        let got = p.circuit().eval_ternary(&tv).unwrap();
        let expect = c.eval(&cex.inputs).unwrap();
        let j = cex.output.unwrap();
        assert_eq!(got[j].to_bool(), Some(!expect[j]));
        assert!(out.stats.patterns >= 1);
    }

    #[test]
    fn error_hidden_behind_x_is_missed() {
        // An error whose effect always passes through the black box is
        // invisible to 0,1,X-based methods: outputs read X, never "wrong".
        let mut b = bbec_netlist::Circuit::builder("spec");
        let x = b.input("x");
        let y = b.input("y");
        let g = b.and2(x, y);
        let f = b.or2(g, x);
        b.output("f", f);
        let spec = b.build().unwrap();
        // Faulty copy: the AND became OR — but we black-box the OR gate
        // downstream, so every disagreement is masked by the box.
        let faulty = Mutation { gate: 0, kind: MutationKind::TypeChange }.apply(&spec).unwrap();
        let p = PartialCircuit::black_box_gates(&faulty, &[1]).unwrap();
        let out = random_patterns(&spec, &p, &fast_settings()).unwrap();
        assert_eq!(out.verdict, Verdict::NoErrorFound);
    }

    #[test]
    fn deterministic_in_seed() {
        let c = generators::magnitude_comparator(4);
        let p = PartialCircuit::black_box_gates(&c, &[0]).unwrap();
        let a = random_patterns(&c, &p, &fast_settings()).unwrap();
        let b = random_patterns(&c, &p, &fast_settings()).unwrap();
        assert_eq!(a.verdict, b.verdict);
    }
}
