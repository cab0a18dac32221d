//! The scalar reference implementation of the random-pattern rung.
//!
//! [`random_patterns_scalar`] simulates one pattern at a time, drawing the
//! same pattern stream as the packed [`bbec_core::checks::random_patterns`], so the
//! two agree on every verdict and witness. It is the differential
//! baseline of the packed engine and the `sim_micro` speedup denominator;
//! the checker itself never runs it.

use bbec_core::{
    validate_counterexample, CheckError, CheckOutcome, CheckSettings, Counterexample, Method,
    PartialCircuit, ResourceStats, Verdict,
};
use bbec_netlist::{bitsim, Circuit, EvalScratch, Tv};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Instant;

/// The scalar reference implementation of the random-pattern rung: one
/// pattern at a time through [`Circuit::eval_ternary_into`]/
/// [`Circuit::eval_into`], drawing the same pattern stream as
/// [`bbec_core::checks::random_patterns`] so the two are verdict-invariant. Kept as the
/// differential baseline and the `sim_micro` speedup denominator.
///
/// # Errors
///
/// As [`bbec_core::checks::random_patterns`].
pub fn random_patterns_scalar(
    spec: &Circuit,
    partial: &PartialCircuit,
    settings: &CheckSettings,
) -> Result<CheckOutcome, CheckError> {
    bbec_core::checks::validate_interface(spec, partial)?;
    let start = Instant::now();
    let mut rng = StdRng::seed_from_u64(settings.seed);
    let n = spec.inputs().len();
    let mut words = vec![0u64; n];
    let mut scratch = EvalScratch::default();
    let mut inputs: Vec<bool> = vec![false; n];
    let mut tv: Vec<Tv> = vec![Tv::X; n];
    let mut got: Vec<Tv> = Vec::new();
    let mut expect: Vec<bool> = Vec::new();
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
        for w in words.iter_mut() {
            *w = rng.next_u64();
        }
        for lane in 0..lanes {
            for (i, &w) in words.iter().enumerate() {
                inputs[i] = bitsim::lane(w, lane);
                tv[i] = Tv::from(inputs[i]);
            }
            partial.circuit().eval_ternary_into(&tv, &mut scratch, &mut got)?;
            spec.eval_into(&inputs, &mut scratch, &mut expect)?;
            for (j, (g, &e)) in got.iter().zip(&expect).enumerate() {
                if let Some(v) = g.to_bool() {
                    if v != e {
                        let cex = Counterexample { inputs: inputs.clone(), output: Some(j) };
                        validate_counterexample(spec, partial, &cex).map_err(|detail| {
                            CheckError::CounterexampleRejected {
                                method: Method::RandomPatterns,
                                detail,
                            }
                        })?;
                        return Ok(outcome(
                            Verdict::ErrorFound,
                            Some(cex),
                            patterns + lane as u64 + 1,
                            start.elapsed(),
                        ));
                    }
                }
            }
        }
        patterns += lanes as u64;
    }
    Ok(outcome(Verdict::NoErrorFound, None, patterns, start.elapsed()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use bbec_core::checks;
    use bbec_netlist::generators;
    use bbec_netlist::mutate::{Mutation, MutationKind};

    fn fast_settings() -> CheckSettings {
        CheckSettings { random_patterns: 500, ..CheckSettings::default() }
    }

    #[test]
    fn packed_and_scalar_rungs_share_one_verdict() {
        // Clean and mutated generator circuits: verdicts (and pattern
        // tallies on clean runs) must agree between the packed engine and
        // the scalar reference.
        let s = fast_settings();
        for seed in 0..12u64 {
            let c = generators::random_logic("rp", 7, 28, 3, seed);
            let host = if seed % 3 == 0 {
                let last = (c.gates().len() - 1) as u32;
                Mutation { gate: last, kind: MutationKind::ToggleOutputInverter }.apply(&c).unwrap()
            } else {
                c.clone()
            };
            let Ok(p) = PartialCircuit::black_box_gates(&host, &[1]) else { continue };
            let packed = checks::random_patterns(&c, &p, &s).unwrap();
            let scalar = random_patterns_scalar(&c, &p, &s).unwrap();
            assert_eq!(packed.verdict, scalar.verdict, "seed {seed}");
            if packed.verdict == Verdict::NoErrorFound {
                assert_eq!(packed.stats.patterns, scalar.stats.patterns, "seed {seed}");
            }
        }
    }
}
