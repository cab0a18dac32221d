//! The `bbec check` path of the `table1-ladder` and `wide-cones`
//! workloads: parse the serialised pair, sweep it, run the five-rung
//! ladder with [`ParallelChecker`].

use crate::pool::{Format, Instance};
use crate::reference::LADDER;
use crate::Sample;
use bbec_core::checks::{LadderReport, StageResult};
use bbec_core::{BlackBox, CheckSettings, Counterexample, Method, ParallelChecker, PartialCircuit};
use bbec_netlist::{aiger, blif, Circuit};
use std::time::Instant;

/// Parses an instance the way `bbec check` reads its two files: BLIF
/// undriven signals become one box over every primary input, AIGER boxes
/// come from the `bbec-box` annotations.
pub fn parse_instance(inst: &Instance) -> Result<(Circuit, PartialCircuit), String> {
    let (spec, imp, boxes) = match inst.format {
        Format::Blif => {
            let spec = blif::parse(&inst.spec).map_err(|e| format!("{}: spec: {e}", inst.id))?;
            let imp = blif::parse(&inst.imp)
                .or_else(|_| blif::parse_allow_undriven(&inst.imp))
                .map_err(|e| format!("{}: implementation: {e}", inst.id))?;
            let boxes = vec![BlackBox {
                name: "BB1".to_string(),
                inputs: imp.inputs().to_vec(),
                outputs: imp.undriven_signals(),
            }];
            (spec, imp, boxes)
        }
        Format::Aiger => {
            let spec = aiger::parse(inst.spec.as_bytes())
                .map_err(|e| format!("{}: spec: {e}", inst.id))?
                .circuit;
            let parsed = aiger::parse(inst.imp.as_bytes())
                .map_err(|e| format!("{}: implementation: {e}", inst.id))?;
            let resolve = |names: &[String]| {
                names
                    .iter()
                    .map(|n| {
                        parsed
                            .circuit
                            .find_signal(n)
                            .ok_or(format!("{}: unknown box pin {n}", inst.id))
                    })
                    .collect::<Result<Vec<_>, _>>()
            };
            let boxes = parsed
                .boxes
                .iter()
                .map(|b| {
                    Ok(BlackBox {
                        name: b.name.clone(),
                        inputs: resolve(&b.inputs)?,
                        outputs: resolve(&b.outputs)?,
                    })
                })
                .collect::<Result<Vec<_>, String>>()?;
            (spec, parsed.circuit, boxes)
        }
    };
    let partial = PartialCircuit::new(imp, boxes).map_err(|e| format!("{}: {e}", inst.id))?;
    Ok((spec, partial))
}

/// One `bbec check` run: parse, sweep, ladder. The benchmark's own
/// `bench.check` and `bench.parse` spans frame the calls.
pub fn run_check(
    inst: &Instance,
    settings: &CheckSettings,
    jobs: usize,
) -> Result<LadderReport, String> {
    let tracer = &settings.tracer;
    let _check = tracer.span("bench.check");
    let (spec, partial) = {
        let _parse = tracer.span("bench.parse");
        parse_instance(inst)?
    };
    let pre =
        bbec_core::preprocess::preprocess(&spec, &partial, settings).map_err(|e| e.to_string())?;
    ParallelChecker::new(settings.clone(), jobs)
        .run(&pre.spec, &pre.partial)
        .map_err(|e| e.to_string())
}

/// What a ladder reported, reduced to what the correctness gate and the
/// metrics use.
#[derive(Debug, Clone, Default)]
pub struct Observed {
    /// The rung that found an error, if any.
    pub error_rung: Option<Method>,
    /// Rungs that ran out of budget.
    pub aborted: Vec<Method>,
    pub counterexample: Option<Counterexample>,
    /// Per ladder rung, the sum of `ResourceStats::duration` in ms.
    pub stats_ms: [f64; 5],
}

impl Observed {
    /// The rung the verdict comes from: the erring one, or else the
    /// strongest rung that finished.
    pub fn decided(&self) -> Option<Method> {
        self.error_rung.or_else(|| LADDER.into_iter().rev().find(|m| !self.aborted.contains(m)))
    }

    pub fn from_report(report: &LadderReport) -> Observed {
        let mut stats_ms = [0.0; 5];
        for stage in &report.stages {
            let stats = match stage {
                StageResult::Finished(o) => Some(o.stats),
                StageResult::BudgetExceeded { stats, .. } => *stats,
            };
            if let (Some(k), Some(s)) = (LADDER.iter().position(|&m| m == stage.method()), stats) {
                stats_ms[k] += s.duration.as_secs_f64() * 1e3;
            }
        }
        Observed {
            error_rung: report.deciding_method(),
            aborted: report.budget_exceeded(),
            counterexample: report.counterexample().cloned(),
            stats_ms,
        }
    }
}

/// Checks the instances of one round in order, closed loop.
pub fn check_round(
    pool: &[Instance],
    order: &[usize],
    settings: &CheckSettings,
    jobs: usize,
) -> Vec<Sample> {
    order
        .iter()
        .map(|&index| {
            let start = Instant::now();
            let result = run_check(&pool[index], settings, jobs);
            let latency_ms = start.elapsed().as_secs_f64() * 1e3;
            Sample {
                index,
                latency_ms,
                result: result.map(|r| Observed::from_report(&r)),
                cached: false,
                cones_rechecked: 0,
                cold: true,
            }
        })
        .collect()
}
