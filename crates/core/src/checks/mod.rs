//! The paper's ladder of black-box equivalence checks.
//!
//! All checks share the same contract: **sound** (an error is reported only
//! if no black-box implementation can repair the design) but differently
//! **complete**. From weakest to strongest:
//!
//! 1. [`random_patterns`] — plain 0,1,X simulation on random vectors,
//! 2. [`symbolic_01x`] — symbolic 0,1,X simulation (Section 2.1),
//! 3. [`local_check`] — Z_i simulation, per-output check (Lemma 2.1),
//! 4. [`output_exact`] — joint condition over all outputs (Lemma 2.2),
//! 5. [`input_exact`] — respects the boxes' actual input pins
//!    (equation (1)); exact when there is a single black box
//!    (Theorem 2.2).
//!
//! [`exact_decomposition`] implements the NP-complete criterion of
//! Theorem 2.1 by brute force for tiny boxes; [`CheckLadder`] runs the
//! methods cheapest-first as the paper's conclusion recommends.
//!
//! Every BDD-based check runs under the resource governor configured by
//! [`crate::CheckSettings`]: exceeding the node, step, or time budget
//! surfaces as [`CheckError::BudgetExceeded`] — a value, not a panic — and
//! leaves the manager usable for weaker checks or later queries.

mod exact;
mod ladder;
mod random;
mod ternary;
mod zi;

pub use exact::{exact_decomposition, BoxTable, ExactOutcome};
pub use ladder::{CheckLadder, LadderReport, StageResult};
pub use random::random_patterns;
pub use ternary::symbolic_01x;
pub(crate) use ternary::symbolic_01x_with;
pub(crate) use zi::ZiSetup;
pub use zi::{input_exact, local_check, output_exact};

use crate::partial::PartialCircuit;
use crate::report::{BudgetAbort, CheckError, CheckSettings, ResourceStats};
use crate::symbolic::SymbolicContext;
use bbec_bdd::{Bdd, OpTelemetry};
use bbec_netlist::Circuit;
use std::time::Instant;

/// Validates that spec and partial implementation share an interface.
///
/// Public only for the reference implementations outside this crate,
/// which must reject a mismatch exactly as the checks do.
#[doc(hidden)]
pub fn validate_interface(spec: &Circuit, partial: &PartialCircuit) -> Result<(), CheckError> {
    let imp = partial.circuit();
    if spec.inputs().len() != imp.inputs().len() {
        return Err(CheckError::InterfaceMismatch {
            detail: format!(
                "{} spec inputs vs {} implementation inputs",
                spec.inputs().len(),
                imp.inputs().len()
            ),
        });
    }
    if spec.outputs().len() != imp.outputs().len() {
        return Err(CheckError::InterfaceMismatch {
            detail: format!(
                "{} spec outputs vs {} implementation outputs",
                spec.outputs().len(),
                imp.outputs().len()
            ),
        });
    }
    Ok(())
}

/// A context holding the specification's output BDDs `f_j`: what every
/// BDD-based check builds first. A ladder builds it once and forks it per
/// rung.
#[derive(Debug)]
pub(crate) struct SpecBase {
    pub(crate) ctx: SymbolicContext,
    pub(crate) spec_bdds: Vec<Bdd>,
}

impl SpecBase {
    /// Builds a fresh context and the specification's BDDs, under a budget
    /// window of their own.
    pub(crate) fn build(spec: &Circuit, settings: &CheckSettings) -> Result<SpecBase, CheckError> {
        let mut ctx = SymbolicContext::new(spec, settings);
        let probe = CheckProbe::begin(&mut ctx);
        match ctx.build_outputs(spec) {
            Ok(spec_bdds) => Ok(SpecBase { ctx, spec_bdds }),
            Err(e) => Err(probe.annotate(&ctx, e)),
        }
    }

    /// An independent copy (see [`SymbolicContext::fork`]).
    pub(crate) fn fork(&mut self) -> SpecBase {
        SpecBase { ctx: self.ctx.fork(), spec_bdds: self.spec_bdds.clone() }
    }
}

/// Per-check resource probe: arms the context's budget window, snapshots
/// the governor's telemetry, and turns the deltas into [`ResourceStats`]
/// on both the success and the abort path.
#[derive(Clone)]
pub(crate) struct CheckProbe {
    start: Instant,
    telemetry: OpTelemetry,
    live_before: usize,
    /// Counter snapshot for the tracer, taken only when it is enabled, so
    /// [`CheckProbe::stats`] can flush the deltas as counters.
    traced: Option<TraceMark>,
}

/// What the tracer has already been sent: the governor's telemetry and
/// the per-op cache counters at one point.
#[derive(Clone)]
struct TraceMark {
    telemetry: OpTelemetry,
    cache_by_op: Vec<(&'static str, u64, u64)>,
}

impl TraceMark {
    fn take(ctx: &SymbolicContext) -> Option<TraceMark> {
        ctx.tracer().enabled().then(|| TraceMark {
            telemetry: ctx.manager.telemetry(),
            cache_by_op: ctx.manager.cache_stats_by_op(),
        })
    }
}

impl CheckProbe {
    /// Arms a fresh budget window on `ctx` and starts measuring.
    pub(crate) fn begin(ctx: &mut SymbolicContext) -> Self {
        ctx.arm_budget();
        ctx.manager.reset_peak();
        CheckProbe {
            start: Instant::now(),
            telemetry: ctx.manager.telemetry(),
            live_before: ctx.manager.stats().live_nodes,
            traced: TraceMark::take(ctx),
        }
    }

    /// Marks everything `ctx` has done so far as already sent to the
    /// tracer. A shared build calls this once a fork carrying its work has
    /// been handed out, so later forks report only their own work.
    pub(crate) fn mark_traced(&mut self, ctx: &SymbolicContext) {
        self.traced = TraceMark::take(ctx);
    }

    /// Starts the wall clock no earlier than `at`, so a check on a fork of
    /// a base built by an earlier rung is not charged that rung's time.
    pub(crate) fn clock_from(&mut self, at: Instant) {
        self.start = self.start.max(at);
    }

    /// Stats for a check that ran to completion (or up to an abort).
    ///
    /// When tracing is on, this is also the manager counter flush point:
    /// the per-operation cache deltas, apply steps and GC/reorder pass
    /// counts since the trace mark accumulate into the tracer (deltas add
    /// up correctly across the short-lived managers of one-shot checks).
    /// The trace mark equals the window start except on the later forks
    /// of a shared build (see [`CheckProbe::mark_traced`]), so the tracer
    /// counts the work that ran, while the returned stats cost the check
    /// as if it had built everything itself.
    pub(crate) fn stats(&self, ctx: &SymbolicContext, impl_nodes: usize) -> ResourceStats {
        let delta = ctx.manager.telemetry().since(&self.telemetry);
        let peak = ctx.manager.stats().peak_live_nodes;
        if let Some(mark) = &self.traced {
            let tracer = ctx.tracer();
            let delta = ctx.manager.telemetry().since(&mark.telemetry);
            for (now, was) in ctx.manager.cache_stats_by_op().iter().zip(&mark.cache_by_op) {
                let hits = now.1.saturating_sub(was.1);
                let misses = now.2.saturating_sub(was.2);
                if hits > 0 {
                    tracer.counter_add(&format!("bdd.cache.{}.hits", now.0), hits);
                }
                if misses > 0 {
                    tracer.counter_add(&format!("bdd.cache.{}.misses", now.0), misses);
                }
            }
            tracer.counter_add("bdd.apply_steps", delta.apply_steps);
            tracer.counter_add("bdd.gc.passes", delta.gc_passes);
            tracer.counter_add("bdd.reorder.passes", delta.reorder_passes);
            tracer.record("bdd.live_peak", peak as u64);
        }
        let mut stats = ResourceStats {
            impl_nodes,
            peak_check_nodes: peak.saturating_sub(self.live_before),
            duration: self.start.elapsed(),
            ..ResourceStats::default()
        };
        stats.absorb_telemetry(&delta);
        stats
    }

    /// Converts a budget abort into a [`CheckError`] carrying the partial
    /// resource statistics, after dropping the aborted check's protections.
    pub(crate) fn abort(
        &self,
        ctx: &mut SymbolicContext,
        guard: Guard,
        e: bbec_bdd::BudgetExceeded,
    ) -> CheckError {
        guard.release_all(ctx);
        let reason = e.to_string();
        // Postmortem first: the flight-recorder tail shows what the core
        // was doing when the budget fired, spliced into the trace (and any
        // streaming sink) before the abort propagates.
        ctx.manager.dump_flight_recorder(&reason);
        let stats = self.stats(ctx, 0);
        CheckError::BudgetExceeded(BudgetAbort::new(reason).with_stats(stats))
    }

    /// Attaches this probe's partial statistics to a budget abort that was
    /// converted to [`CheckError`] further down (e.g. inside the symbolic
    /// simulator, which releases its own protections before returning).
    pub(crate) fn annotate(&self, ctx: &SymbolicContext, err: CheckError) -> CheckError {
        match err {
            CheckError::BudgetExceeded(abort) if abort.stats.is_none() => {
                ctx.manager.dump_flight_recorder(&abort.reason);
                let stats = self.stats(ctx, 0);
                CheckError::BudgetExceeded(abort.with_stats(stats))
            }
            other => other,
        }
    }
}

/// Tracks the BDD protections a check has taken so they can be released
/// exactly once on every exit path (normal completion or budget abort).
///
/// Protections on sticky nodes (projections, constants) are no-ops in the
/// manager, so tracking them here is harmless.
#[derive(Default)]
pub(crate) struct Guard {
    held: Vec<Bdd>,
}

impl Guard {
    pub(crate) fn new() -> Self {
        Guard::default()
    }

    /// Protects `f` and remembers to release it later.
    pub(crate) fn keep(&mut self, ctx: &mut SymbolicContext, f: Bdd) -> Bdd {
        ctx.manager.protect(f);
        self.held.push(f);
        f
    }

    /// Releases one tracked handle early (e.g. a superseded accumulator).
    pub(crate) fn drop_one(&mut self, ctx: &mut SymbolicContext, f: Bdd) {
        if let Some(i) = self.held.iter().rposition(|&h| h == f) {
            self.held.swap_remove(i);
            ctx.manager.release(f);
        }
    }

    /// Releases every tracked protection.
    pub(crate) fn release_all(self, ctx: &mut SymbolicContext) {
        for f in self.held {
            ctx.manager.release(f);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bbec_netlist::generators;

    #[test]
    fn interface_mismatch_detected() {
        let spec = generators::ripple_carry_adder(3);
        let other = generators::ripple_carry_adder(4);
        let p = crate::PartialCircuit::black_box_gates(&other, &[0]).unwrap();
        assert!(matches!(validate_interface(&spec, &p), Err(CheckError::InterfaceMismatch { .. })));
    }

    #[test]
    fn guard_releases_each_protection_once() {
        let spec = generators::ripple_carry_adder(2);
        let settings = crate::CheckSettings::default();
        let mut ctx = SymbolicContext::new(&spec, &settings);
        let x = ctx.manager.var(ctx.input_vars()[0]);
        let y = ctx.manager.var(ctx.input_vars()[1]);
        ctx.manager.collect_garbage();
        let live_base = ctx.manager.stats().live_nodes;
        let f = ctx.manager.and(x, y);

        let mut guard = Guard::new();
        guard.keep(&mut ctx, f);
        guard.keep(&mut ctx, f);
        guard.drop_one(&mut ctx, f);

        // One protection still held: f survives a collection.
        ctx.manager.collect_garbage();
        assert!(ctx.manager.stats().live_nodes > live_base, "held protection must keep f alive");

        // After the final release the footprint returns to the baseline.
        guard.release_all(&mut ctx);
        ctx.manager.collect_garbage();
        assert_eq!(ctx.manager.stats().live_nodes, live_base, "guard must balance protect/release");
    }
}
