//! Structural preprocessing: sweep spec and implementation before the
//! ladder runs.
//!
//! The [`preprocess`] stage applies [`bbec_netlist::strash`] sweeping to
//! both sides of a check: constants propagate, structurally identical
//! internal points merge, and dead logic disappears — so every rung,
//! shard and engine downstream operates on smaller circuits. Black boxes
//! are opaque barriers: box output nets stay undriven leaves and every
//! box pin is protected, then remapped onto the swept host, so the
//! rebuilt [`PartialCircuit`] has the same boxes wired to equivalent
//! nets.
//!
//! The sweep preserves the *ternary* (0,1,X) function of every kept
//! point over primary inputs and box outputs — see the `strash` module
//! docs for which rewrites qualify — which makes it verdict-invariant
//! for the whole ladder: the Kleene-semantics rungs (`r.p.`, `0,1,X`,
//! `loc.`) and the quantification rungs (`oe`, `ie`) all compute the
//! same answers on the swept pair. The differential oracle enforces this
//! with a dedicated sweep-on/off engine pair.

use crate::partial::{BlackBox, PartialCircuit};
use crate::report::{CheckError, CheckSettings};
use bbec_netlist::strash::{self, SweepStats};
use bbec_netlist::Circuit;

/// Reduction statistics of one preprocessing run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PreprocessReport {
    /// Sweep statistics of the specification.
    pub spec: SweepStats,
    /// Sweep statistics of the partial implementation's host circuit.
    pub imp: SweepStats,
    /// Internal points the swept spec and implementation share under
    /// joint structural hashing (inputs unified by position). A trace
    /// statistic: the engines still consume the two circuits separately.
    pub shared_points: usize,
}

/// A preprocessed check instance: the swept pair plus statistics.
#[derive(Debug, Clone)]
pub struct Preprocessed {
    /// Swept specification (same input/output interface).
    pub spec: Circuit,
    /// Swept partial implementation (same boxes, remapped pins).
    pub partial: PartialCircuit,
    /// What the sweep accomplished.
    pub report: PreprocessReport,
}

/// Sweeps a spec/implementation pair ahead of the ladder.
///
/// Emits a `core.preprocess` span with the merged-point counts on the
/// settings' tracer.
///
/// # Errors
///
/// [`CheckError::InvalidPartial`] if the swept host no longer satisfies
/// the partial-circuit invariants (cannot happen for pairs accepted by
/// [`PartialCircuit::new`], since protected pins are remapped totally).
pub fn preprocess(
    spec: &Circuit,
    partial: &PartialCircuit,
    settings: &CheckSettings,
) -> Result<Preprocessed, CheckError> {
    let span = settings.tracer.span("core.preprocess");
    let spec_swept = strash::sweep(spec);
    let (swept_partial, imp_stats) = sweep_partial(partial)?;
    let shared_points = strash::shared_point_count(&spec_swept.circuit, swept_partial.circuit());

    let report = PreprocessReport { spec: spec_swept.stats, imp: imp_stats, shared_points };
    span.set_attr("spec_gates_before", report.spec.gates_before);
    span.set_attr("spec_gates_after", report.spec.gates_after);
    span.set_attr("spec_merged_points", report.spec.merged_points);
    span.set_attr("impl_gates_before", report.imp.gates_before);
    span.set_attr("impl_gates_after", report.imp.gates_after);
    span.set_attr("impl_merged_points", report.imp.merged_points);
    span.set_attr("const_folded", report.spec.const_folded + report.imp.const_folded);
    span.set_attr("shared_points", report.shared_points);
    Ok(Preprocessed { spec: spec_swept.circuit, partial: swept_partial, report })
}

/// Sweeps only the partial implementation, protecting and remapping
/// every box pin, for callers that sweep their specification once and
/// check many partial implementations against it.
///
/// # Errors
///
/// As [`preprocess`].
pub fn sweep_partial(partial: &PartialCircuit) -> Result<(PartialCircuit, SweepStats), CheckError> {
    let host = partial.circuit();
    let mut protect: Vec<bbec_netlist::SignalId> = Vec::new();
    for b in partial.boxes() {
        protect.extend(b.inputs.iter().copied());
        protect.extend(b.outputs.iter().copied());
    }
    let swept = strash::sweep_protected(host, &protect);
    let boxes: Vec<BlackBox> = partial
        .boxes()
        .iter()
        .map(|b| {
            let map = |s: &bbec_netlist::SignalId| {
                swept.signal_map[s.index()].expect("protected pin materialized")
            };
            BlackBox {
                name: b.name.clone(),
                inputs: b.inputs.iter().map(map).collect(),
                outputs: b.outputs.iter().map(map).collect(),
            }
        })
        .collect();
    Ok((PartialCircuit::new(swept.circuit, boxes)?, swept.stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checks;
    use crate::report::{Method, Verdict};
    use bbec_netlist::generators;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn settings() -> CheckSettings {
        CheckSettings { dynamic_reordering: false, ..CheckSettings::default() }
    }

    #[test]
    fn preprocess_keeps_boxes_and_interfaces() {
        let spec = generators::ripple_carry_adder(4);
        let mut rng = StdRng::seed_from_u64(11);
        let partial = PartialCircuit::random_black_boxes(&spec, 0.2, 2, &mut rng).unwrap();
        let pre = preprocess(&spec, &partial, &settings()).unwrap();
        assert_eq!(pre.spec.inputs().len(), spec.inputs().len());
        assert_eq!(pre.spec.outputs().len(), spec.outputs().len());
        assert_eq!(pre.partial.boxes().len(), partial.boxes().len());
        for (a, b) in partial.boxes().iter().zip(pre.partial.boxes()) {
            assert_eq!(a.inputs.len(), b.inputs.len());
            assert_eq!(a.outputs.len(), b.outputs.len());
        }
    }

    #[test]
    fn preprocess_preserves_verdicts_across_the_ladder() {
        let spec = generators::magnitude_comparator(4);
        let mut rng = StdRng::seed_from_u64(23);
        for round in 0..6 {
            let Ok(partial) = PartialCircuit::random_black_boxes(&spec, 0.2, 2, &mut rng) else {
                continue;
            };
            let pre = preprocess(&spec, &partial, &settings()).unwrap();
            for method in
                [Method::Symbolic01X, Method::Local, Method::OutputExact, Method::InputExact]
            {
                let run = |s: &Circuit, p: &PartialCircuit| -> Verdict {
                    let out = match method {
                        Method::Symbolic01X => checks::symbolic_01x(s, p, &settings()),
                        Method::Local => checks::local_check(s, p, &settings()),
                        Method::OutputExact => checks::output_exact(s, p, &settings()),
                        Method::InputExact => checks::input_exact(s, p, &settings()),
                        _ => unreachable!(),
                    };
                    out.unwrap().verdict
                };
                assert_eq!(
                    run(&spec, &partial),
                    run(&pre.spec, &pre.partial),
                    "{method} diverged on round {round}"
                );
            }
        }
    }

    #[test]
    fn preprocess_records_reduction() {
        // A circuit with duplicate logic: the sweep must merge something.
        let mut b = Circuit::builder("dup");
        let x = b.input("x");
        let y = b.input("y");
        let a1 = b.and2(x, y);
        let a2 = b.and2(x, y);
        let bb = b.signal("bb_out");
        let f = b.or2(a1, bb);
        let g = b.or2(a2, bb);
        b.output("f", f);
        b.output("g", g);
        let host = b.build_allow_undriven().unwrap();
        let partial = PartialCircuit::new(
            host,
            vec![BlackBox { name: "B".into(), inputs: vec![x], outputs: vec![bb] }],
        )
        .unwrap();

        let mut sb = Circuit::builder("spec");
        let x = sb.input("x");
        let y = sb.input("y");
        let a = sb.and2(x, y);
        let f = sb.or2(a, x);
        let g = sb.or2(a, x);
        sb.output("f", f);
        sb.output("g", g);
        let spec = sb.build().unwrap();

        let pre = preprocess(&spec, &partial, &settings()).unwrap();
        assert!(pre.report.imp.merged_points >= 1, "{:?}", pre.report);
        assert!(pre.report.spec.merged_points >= 1, "{:?}", pre.report);
        assert!(pre.report.shared_points >= 1, "and(x,y) is shared: {:?}", pre.report);
    }
}
