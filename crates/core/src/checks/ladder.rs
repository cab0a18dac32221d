//! The escalation strategy of the paper's conclusion: run the checks
//! cheapest-first and stop at the first error.
//!
//! A rung that exhausts its resource budget no longer sinks the whole
//! ladder: it is recorded as a [`StageResult::BudgetExceeded`] entry and
//! the ladder proceeds, so the final verdict is that of the strongest rung
//! that actually finished.
//!
//! The BDD rungs share their builds: the specification's BDDs and the Z_i
//! simulation of the partial implementation are built once per run and
//! forked per rung ([`SharedBuilds`]).

use crate::checks::{random_patterns, symbolic_01x_with, SpecBase, ZiSetup};
use crate::partial::PartialCircuit;
use crate::report::{
    BudgetAbort, CheckError, CheckOutcome, CheckSettings, Counterexample, Method, ResourceStats,
    Verdict,
};
use bbec_netlist::Circuit;
use std::time::{Duration, Instant};

/// Runs a configurable sequence of checks, stopping at the first error.
///
/// The default sequence is the paper's recommendation: "first use 0,1,X
/// based simulation with only a few random patterns, then symbolic 0,1,X
/// simulation, Z_i simulation with local check, with output exact check and
/// finally with input exact check." The SAT-based stages
/// ([`Method::SatDualRail`], [`Method::SatOutputExact`]) may be mixed in;
/// only [`Method::ExactDecomposition`] is excluded (it has its own entry
/// point with a table-size budget).
#[derive(Debug, Clone)]
pub struct CheckLadder {
    /// Shared settings for all stages.
    pub settings: CheckSettings,
    /// The stages, in execution order.
    pub stages: Vec<Method>,
    /// CEGAR refinement budget for [`Method::SatOutputExact`] stages.
    pub sat_refinement_budget: usize,
}

impl Default for CheckLadder {
    fn default() -> Self {
        CheckLadder {
            settings: CheckSettings::default(),
            stages: vec![
                Method::RandomPatterns,
                Method::Symbolic01X,
                Method::Local,
                Method::OutputExact,
                Method::InputExact,
            ],
            sat_refinement_budget: 100_000,
        }
    }
}

/// What happened to one rung of the ladder.
#[derive(Debug, Clone, PartialEq)]
pub enum StageResult {
    /// The rung ran to completion and produced a verdict.
    Finished(CheckOutcome),
    /// The rung exceeded its resource budget; the ladder carried on.
    BudgetExceeded {
        /// The method that was cut short.
        method: Method,
        /// Which limit fired.
        reason: String,
        /// Resources consumed up to the abort, when recorded.
        stats: Option<ResourceStats>,
        /// Wall-clock time the rung ran before the budget fired.
        elapsed: Duration,
    },
}

impl StageResult {
    /// The method this rung ran.
    pub fn method(&self) -> Method {
        match self {
            StageResult::Finished(o) => o.method,
            StageResult::BudgetExceeded { method, .. } => *method,
        }
    }

    /// Wall-clock time of the rung, whether it finished or was cut short.
    pub fn elapsed(&self) -> Duration {
        match self {
            StageResult::Finished(o) => o.stats.duration,
            StageResult::BudgetExceeded { elapsed, .. } => *elapsed,
        }
    }

    /// The outcome, when the rung finished.
    pub fn outcome(&self) -> Option<&CheckOutcome> {
        match self {
            StageResult::Finished(o) => Some(o),
            StageResult::BudgetExceeded { .. } => None,
        }
    }

    /// Resources the rung consumed, when recorded (always, if it finished).
    pub fn stats(&self) -> Option<ResourceStats> {
        match self {
            StageResult::Finished(o) => Some(o.stats),
            StageResult::BudgetExceeded { stats, .. } => *stats,
        }
    }

    /// Whether this rung ran out of budget.
    pub fn is_budget_exceeded(&self) -> bool {
        matches!(self, StageResult::BudgetExceeded { .. })
    }
}

/// The trace of a ladder run: one entry per executed rung, including rungs
/// that ran out of budget.
#[derive(Debug, Clone, PartialEq)]
pub struct LadderReport {
    /// Result of each executed stage (stops after the first error).
    pub stages: Vec<StageResult>,
}

impl LadderReport {
    /// The outcomes of the rungs that finished, in execution order.
    pub fn outcomes(&self) -> impl Iterator<Item = &CheckOutcome> {
        self.stages.iter().filter_map(StageResult::outcome)
    }

    /// The overall verdict: an error iff some *finished* rung found one.
    /// Budget-exceeded rungs contribute nothing (the verdict is that of
    /// the strongest rung that completed).
    pub fn verdict(&self) -> Verdict {
        if self.outcomes().any(CheckOutcome::is_error) {
            Verdict::ErrorFound
        } else {
            Verdict::NoErrorFound
        }
    }

    /// The method that found the error, if any.
    pub fn deciding_method(&self) -> Option<Method> {
        self.outcomes().find(|o| o.is_error()).map(|o| o.method)
    }

    /// The counterexample of the deciding stage, if one was produced.
    pub fn counterexample(&self) -> Option<&Counterexample> {
        self.outcomes().find(|o| o.is_error()).and_then(|o| o.counterexample.as_ref())
    }

    /// The methods that ran out of budget, in execution order.
    pub fn budget_exceeded(&self) -> Vec<Method> {
        self.stages.iter().filter(|s| s.is_budget_exceeded()).map(StageResult::method).collect()
    }
}

impl CheckLadder {
    /// A ladder with default stages and the given settings.
    pub fn with_settings(settings: CheckSettings) -> Self {
        CheckLadder { settings, ..CheckLadder::default() }
    }

    /// Runs the stages in order, stopping at the first error.
    ///
    /// A rung that exceeds its resource budget is recorded in the report
    /// and the ladder continues with the next stage.
    ///
    /// # Errors
    ///
    /// Propagates the first non-budget stage failure ([`CheckError`]); a
    /// stage asking for [`Method::ExactDecomposition`] is rejected — it has
    /// its own entry point with extra parameters.
    pub fn run(
        &self,
        spec: &Circuit,
        partial: &PartialCircuit,
    ) -> Result<LadderReport, CheckError> {
        let mut shared = SharedBuilds::new(spec, partial, &self.settings);
        let mut stages = Vec::new();
        for (i, &stage) in self.stages.iter().enumerate() {
            let span = self.settings.tracer.span("core.ladder_rung");
            span.set_attr("method", stage.label());
            self.settings.progress.set_task(stage.label());
            let rung_start = Instant::now();
            let later = &self.stages[i + 1..];
            let result = match stage {
                Method::RandomPatterns => random_patterns(spec, partial, &self.settings),
                Method::Symbolic01X => shared.symbolic_01x(later),
                Method::Local | Method::OutputExact | Method::InputExact => {
                    shared.zi_check(stage, later, rung_start)
                }
                Method::SatDualRail => {
                    crate::sat_checks::sat_dual_rail(spec, partial, &self.settings)
                }
                Method::SatOutputExact => crate::sat_checks::sat_output_exact(
                    spec,
                    partial,
                    &self.settings,
                    self.sat_refinement_budget,
                ),
                other => {
                    return Err(CheckError::InvalidPartial(format!(
                        "method {other} cannot run inside a ladder"
                    )))
                }
            };
            span.set_attr("budget_exceeded", matches!(&result, Err(CheckError::BudgetExceeded(_))));
            if std::mem::take(&mut shared.replayed) {
                span.set_attr("replayed", true);
            }
            drop(span);
            if Self::push_stage(&mut stages, stage, result, rung_start.elapsed())? {
                break;
            }
        }
        Ok(LadderReport { stages })
    }

    /// Records one rung; returns `Ok(true)` when the ladder should stop.
    fn push_stage(
        stages: &mut Vec<StageResult>,
        method: Method,
        result: Result<CheckOutcome, CheckError>,
        elapsed: Duration,
    ) -> Result<bool, CheckError> {
        match result {
            Ok(outcome) => {
                let stop = outcome.is_error();
                stages.push(StageResult::Finished(outcome));
                Ok(stop)
            }
            Err(CheckError::BudgetExceeded(abort)) => {
                stages.push(StageResult::BudgetExceeded {
                    method,
                    reason: abort.reason,
                    stats: abort.stats,
                    elapsed,
                });
                Ok(false)
            }
            Err(e) => Err(e),
        }
    }
}

/// Whether a rung works on the Z_i simulation ([`ZiSetup`]).
fn is_zi(method: Method) -> bool {
    matches!(method, Method::Local | Method::OutputExact | Method::InputExact)
}

/// One shared build of a ladder run.
enum Shared<T> {
    /// Not built yet, handed over to its last user, or lost to a
    /// wall-clock abort (a later rung rebuilds it).
    Unbuilt,
    Ready(T),
    /// The build hit a step or node cap; the reason, for later rungs.
    Aborted(String),
}

impl<T> Shared<T> {
    /// The built value for one rung: a fork when `keep` (a later rung still
    /// needs it), the value itself otherwise.
    fn hand_out(&mut self, mut value: T, keep: bool, fork: fn(&mut T) -> T) -> T {
        if keep {
            let copy = fork(&mut value);
            *self = Shared::Ready(value);
            copy
        } else {
            value
        }
    }

    /// Records a failed build when a rebuild would fail the same way.
    fn note_failure(&mut self, err: &CheckError, replayable: bool) {
        if let (CheckError::BudgetExceeded(abort), true) = (err, replayable) {
            *self = Shared::Aborted(abort.reason.clone());
        }
    }
}

/// The BDD builds one [`CheckLadder::run`] shares across its rungs: the
/// spec base (context plus specification BDDs, used by 0,1,X and the Z_i
/// rungs) and the Z_i base (the spec base plus the Z_i simulation, used by
/// local, output-exact and input-exact). Each is built lazily by the first
/// rung that needs it; every rung runs on a fork, except the last rung
/// needing a base, which takes the base itself.
///
/// A budget abort inside a shared build is replayed instead of rebuilt
/// when the budget has no wall-clock part: step and node caps fire at the
/// same point on every rebuild, so later rungs report the same reason
/// (without statistics — nothing ran). Under a time limit or deadline a
/// rebuild may get further, so later rungs rebuild.
struct SharedBuilds<'a> {
    spec: &'a Circuit,
    partial: &'a PartialCircuit,
    settings: &'a CheckSettings,
    replayable: bool,
    spec_base: Shared<SpecBase>,
    zi_base: Shared<ZiSetup>,
    /// Set when the current rung's result is a replayed abort.
    replayed: bool,
}

impl<'a> SharedBuilds<'a> {
    fn new(spec: &'a Circuit, partial: &'a PartialCircuit, settings: &'a CheckSettings) -> Self {
        SharedBuilds {
            spec,
            partial,
            settings,
            replayable: settings.time_limit.is_none() && settings.deadline.is_none(),
            spec_base: Shared::Unbuilt,
            zi_base: Shared::Unbuilt,
            replayed: false,
        }
    }

    fn replay(&mut self, reason: String) -> CheckError {
        self.replayed = true;
        CheckError::BudgetExceeded(BudgetAbort::new(reason))
    }

    /// The spec base for one rung (or for building the Z_i base); `keep`
    /// says whether a later rung still needs it.
    fn spec_base(&mut self, keep: bool) -> Result<SpecBase, CheckError> {
        let base = match std::mem::replace(&mut self.spec_base, Shared::Unbuilt) {
            Shared::Ready(base) => base,
            Shared::Aborted(reason) => {
                self.spec_base = Shared::Aborted(reason.clone());
                return Err(self.replay(reason));
            }
            Shared::Unbuilt => SpecBase::build(self.spec, self.settings)
                .inspect_err(|e| self.spec_base.note_failure(e, self.replayable))?,
        };
        Ok(self.spec_base.hand_out(base, keep, SpecBase::fork))
    }

    fn symbolic_01x(&mut self, later: &[Method]) -> Result<CheckOutcome, CheckError> {
        let zi_unbuilt = matches!(self.zi_base, Shared::Unbuilt);
        let keep = later.iter().any(|&m| m == Method::Symbolic01X || (zi_unbuilt && is_zi(m)));
        let mut base = self.spec_base(keep)?;
        symbolic_01x_with(&mut base.ctx, &base.spec_bdds, self.spec, self.partial)
    }

    fn zi_check(
        &mut self,
        method: Method,
        later: &[Method],
        rung_start: Instant,
    ) -> Result<CheckOutcome, CheckError> {
        self.zi_setup(later, rung_start)?.run(method, self.spec, self.partial)
    }

    /// The Z_i setup for one rung, ready to run.
    fn zi_setup(&mut self, later: &[Method], rung_start: Instant) -> Result<ZiSetup, CheckError> {
        let base = match std::mem::replace(&mut self.zi_base, Shared::Unbuilt) {
            Shared::Ready(base) => base,
            Shared::Aborted(reason) => {
                self.zi_base = Shared::Aborted(reason.clone());
                return Err(self.replay(reason));
            }
            Shared::Unbuilt => {
                let spec_base = self.spec_base(later.contains(&Method::Symbolic01X))?;
                ZiSetup::build(spec_base, self.spec, self.partial)
                    .inspect_err(|e| self.zi_base.note_failure(e, self.replayable))?
            }
        };
        let keep = later.iter().any(|&m| is_zi(m));
        let mut setup = self.zi_base.hand_out(base, keep, ZiSetup::fork);
        setup.start_rung(rung_start);
        Ok(setup)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::samples;

    fn ladder() -> CheckLadder {
        let settings = CheckSettings {
            dynamic_reordering: false,
            random_patterns: 200,
            ..CheckSettings::default()
        };
        CheckLadder::with_settings(settings)
    }

    #[test]
    fn clean_design_runs_all_stages() {
        let (spec, partial) = samples::completable_pair();
        let report = ladder().run(&spec, &partial).unwrap();
        assert_eq!(report.verdict(), Verdict::NoErrorFound);
        assert_eq!(report.stages.len(), 5);
        assert_eq!(report.outcomes().count(), 5);
        assert_eq!(report.deciding_method(), None);
        assert!(report.budget_exceeded().is_empty());
    }

    #[test]
    fn stops_at_the_cheapest_sufficient_stage() {
        let (spec, partial) = samples::detected_only_by_local();
        let report = ladder().run(&spec, &partial).unwrap();
        assert_eq!(report.verdict(), Verdict::ErrorFound);
        assert_eq!(report.deciding_method(), Some(Method::Local));
        // 0,1,X ran and passed; nothing after the deciding stage ran.
        assert_eq!(report.stages.len(), 3);
    }

    #[test]
    fn escalates_to_input_exact_when_needed() {
        let (spec, partial) = samples::detected_only_by_input_exact();
        let report = ladder().run(&spec, &partial).unwrap();
        assert_eq!(report.deciding_method(), Some(Method::InputExact));
        assert_eq!(report.stages.len(), 5);
    }

    #[test]
    fn rejects_foreign_stages() {
        let (spec, partial) = samples::completable_pair();
        let mut l = ladder();
        l.stages = vec![Method::ExactDecomposition];
        assert!(l.run(&spec, &partial).is_err());
    }

    #[test]
    fn per_rung_telemetry_is_recorded() {
        let (spec, partial) = samples::completable_pair();
        let report = ladder().run(&spec, &partial).unwrap();
        for outcome in report.outcomes() {
            if outcome.method != Method::RandomPatterns {
                assert!(
                    outcome.stats.apply_steps > 0,
                    "{} must record apply steps",
                    outcome.method
                );
            }
        }
    }

    /// A rung handed the Z_i base long after it was built gets the same
    /// time-limit window as a rung that just built it, whether it gets a
    /// fork or the base itself.
    #[test]
    fn late_zi_rungs_get_a_full_time_window() {
        let (spec, partial) = samples::detected_only_by_input_exact();
        let limit = Duration::from_secs(30);
        let settings = CheckSettings {
            dynamic_reordering: false,
            time_limit: Some(limit),
            ..CheckSettings::default()
        };
        let window = |s: &ZiSetup| s.deadline().expect("armed").duration_since(Instant::now());
        let mut shared = SharedBuilds::new(&spec, &partial, &settings);
        let fresh = window(&shared.zi_setup(&[Method::OutputExact], Instant::now()).unwrap());
        assert!(fresh > limit - Duration::from_secs(1), "{fresh:?}");
        // A slow rung in between: a deadline left as it was at the build
        // would eat into the next rungs' windows.
        let slow = Duration::from_millis(1500);
        std::thread::sleep(slow);
        let forked = window(&shared.zi_setup(&[Method::InputExact], Instant::now()).unwrap());
        std::thread::sleep(slow);
        let taken = window(&shared.zi_setup(&[], Instant::now()).unwrap());
        for (what, w) in [("fork", forked), ("base", taken)] {
            assert!(w + slow / 2 > fresh, "{what}: window {w:?} vs fresh {fresh:?}");
        }
    }

    /// A ladder whose input-exact rung exceeds a tiny step budget still
    /// reports the verdict of the strongest finished rung, and the rungs
    /// before it, which share its builds, are unaffected.
    #[test]
    fn budget_exceeded_rung_degrades_gracefully() {
        let (spec, partial) = samples::detected_only_by_input_exact();
        let base = CheckSettings {
            dynamic_reordering: false,
            random_patterns: 50,
            node_limit: None,
            ..CheckSettings::default()
        };

        // Calibrate: run the BDD rungs unbudgeted and record each rung's
        // deterministic step cost (reordering is off, so the ladder's
        // rungs charge the exact same step counts).
        let mut max_earlier = 0;
        for check in [crate::checks::symbolic_01x, crate::checks::local_check] {
            max_earlier = max_earlier.max(check(&spec, &partial, &base).unwrap().stats.apply_steps);
        }
        let oe = crate::checks::output_exact(&spec, &partial, &base).unwrap();
        max_earlier = max_earlier.max(oe.stats.apply_steps);
        let ie = crate::checks::input_exact(&spec, &partial, &base).unwrap();
        assert_eq!(ie.verdict, Verdict::ErrorFound, "sample is detected only by input-exact");
        assert!(
            ie.stats.apply_steps > max_earlier,
            "input-exact must be the most expensive rung here"
        );

        // A step limit that admits every rung except input-exact.
        let tight = CheckSettings { step_limit: Some(max_earlier), ..base };
        let l = CheckLadder::with_settings(tight);
        let report = l.run(&spec, &partial).unwrap();

        assert_eq!(report.stages.len(), 5);
        assert_eq!(report.budget_exceeded(), vec![Method::InputExact]);
        match &report.stages[4] {
            StageResult::BudgetExceeded { method: Method::InputExact, reason, stats, .. } => {
                assert!(reason.contains("step"), "reason: {reason}");
                assert!(stats.is_some(), "per-rung telemetry must survive the abort");
            }
            other => panic!("expected a budget-exceeded rung, got {other:?}"),
        }
        // The error is invisible to the finished rungs, so the degraded
        // verdict is "no error found" — from the strongest finished rung.
        assert_eq!(report.verdict(), Verdict::NoErrorFound);
        assert_eq!(report.deciding_method(), None);
        let oe_rung = report.stages[3].outcome().expect("output-exact finished");
        assert_eq!(oe_rung.stats.apply_steps, oe.stats.apply_steps);
    }
}
