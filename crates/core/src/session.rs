//! An amortised checking session: the specification's BDDs are built once
//! and reused across many partial implementations.
//!
//! The experiment pattern of the paper — one specification, hundreds of
//! error insertions, a check per insertion — rebuilds the specification
//! BDDs from scratch on every call when using the free functions in
//! [`crate::checks`]. A [`CheckSession`] builds them once into a base
//! context and runs every check on a fork of it
//! ([`SymbolicContext::fork`](crate::SymbolicContext::fork)).
//!
//! A fork is an exact copy, so each check starts from the state a fresh
//! one-shot check would have after its specification build: same nodes,
//! same variables, same budget window. Nothing a check adds — its `Z` and
//! `I` variables, its intermediates, the protections of its Z_i
//! simulation, a budget abort's leftovers — reaches the base, so every
//! check sees the same node budget and the base never needs rebuilding.

use crate::checks::{self, symbolic_01x_with, SpecBase, ZiSetup};
use crate::partial::PartialCircuit;
use crate::report::{CheckError, CheckOutcome, CheckSettings, Method};
use bbec_netlist::Circuit;

/// Reusable checking state for one specification.
#[derive(Debug)]
pub struct CheckSession {
    spec: Circuit,
    settings: CheckSettings,
    base: SpecBase,
}

impl CheckSession {
    /// Builds the session and the specification's BDDs.
    ///
    /// # Errors
    ///
    /// [`CheckError::Netlist`] if the specification is not a complete
    /// circuit; [`CheckError::BudgetExceeded`] if building the
    /// specification BDDs already blows the configured budget.
    pub fn new(spec: Circuit, settings: CheckSettings) -> Result<CheckSession, CheckError> {
        // With sweeping on, the spec is reduced once, before its BDDs are
        // built; each checked partial is swept per call in `check`.
        let spec = if settings.sweep { bbec_netlist::strash::sweep(&spec).circuit } else { spec };
        let base = SpecBase::build(&spec, &settings)?;
        Ok(CheckSession { spec, settings, base })
    }

    /// The checked specification.
    pub fn spec(&self) -> &Circuit {
        &self.spec
    }

    /// BDD nodes of the specification (the paper's column 4).
    pub fn spec_node_count(&self) -> usize {
        self.base.ctx.manager.node_count_many(&self.base.spec_bdds)
    }

    /// Runs one BDD-based check against a partial implementation.
    ///
    /// Supported methods: [`Method::RandomPatterns`],
    /// [`Method::Symbolic01X`], [`Method::Local`], [`Method::OutputExact`],
    /// [`Method::InputExact`]. SAT methods have no per-session state worth
    /// amortising; call [`crate::sat_checks`] directly.
    ///
    /// # Errors
    ///
    /// The underlying check's errors. A [`CheckError::BudgetExceeded`]
    /// leaves the session as it was: the check ran on a fork.
    pub fn check(
        &mut self,
        partial: &PartialCircuit,
        method: Method,
    ) -> Result<CheckOutcome, CheckError> {
        if self.settings.sweep {
            let (swept, _) = crate::preprocess::sweep_partial(partial)?;
            return self.check_prepared(&swept, method);
        }
        self.check_prepared(partial, method)
    }

    fn check_prepared(
        &mut self,
        partial: &PartialCircuit,
        method: Method,
    ) -> Result<CheckOutcome, CheckError> {
        let spec = &self.spec;
        match method {
            Method::RandomPatterns => checks::random_patterns(spec, partial, &self.settings),
            Method::Symbolic01X => {
                let mut fork = self.base.fork();
                symbolic_01x_with(&mut fork.ctx, &fork.spec_bdds, spec, partial)
            }
            Method::Local | Method::OutputExact | Method::InputExact => {
                ZiSetup::build(self.base.fork(), spec, partial)?.run(method, spec, partial)
            }
            other => {
                Err(CheckError::InvalidPartial(format!("method {other} is not session-managed")))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::Verdict;
    use bbec_netlist::generators;
    use bbec_netlist::mutate::Mutation;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn settings() -> CheckSettings {
        CheckSettings { dynamic_reordering: false, ..CheckSettings::default() }
    }

    #[test]
    fn session_matches_free_functions() {
        let spec = generators::magnitude_comparator(5);
        let mut session = CheckSession::new(spec.clone(), settings()).unwrap();
        let mut rng = StdRng::seed_from_u64(3);
        let roots: Vec<_> = spec.outputs().iter().map(|&(_, s)| s).collect();
        let cone = spec.fanin_cone_gates(&roots);
        for _ in 0..8 {
            let m = Mutation::random(&spec, &cone, &mut rng).unwrap();
            let faulty = m.apply(&spec).unwrap();
            let Ok(partial) = PartialCircuit::random_black_boxes(&faulty, 0.1, 1, &mut rng) else {
                continue;
            };
            for method in
                [Method::Symbolic01X, Method::Local, Method::OutputExact, Method::InputExact]
            {
                let via_session = session.check(&partial, method).unwrap().verdict;
                let direct = match method {
                    Method::Symbolic01X => {
                        checks::symbolic_01x(&spec, &partial, &settings()).unwrap().verdict
                    }
                    Method::Local => {
                        checks::local_check(&spec, &partial, &settings()).unwrap().verdict
                    }
                    Method::OutputExact => {
                        checks::output_exact(&spec, &partial, &settings()).unwrap().verdict
                    }
                    Method::InputExact => {
                        checks::input_exact(&spec, &partial, &settings()).unwrap().verdict
                    }
                    _ => unreachable!(),
                };
                assert_eq!(via_session, direct, "{method} on {}", m.describe(&spec));
            }
        }
    }

    #[test]
    fn session_base_var_count_never_grows() {
        let spec = generators::ripple_carry_adder(3);
        let mut session = CheckSession::new(spec.clone(), settings()).unwrap();
        let vars = session.base.ctx.manager.var_count();
        assert_eq!(vars, spec.inputs().len(), "the base holds the input variables only");
        let mut rng = StdRng::seed_from_u64(9);
        for _ in 0..12 {
            let partial = PartialCircuit::random_black_boxes(&spec, 0.2, 2, &mut rng).unwrap();
            for method in [Method::Symbolic01X, Method::OutputExact, Method::InputExact] {
                let out = session.check(&partial, method).unwrap();
                assert_eq!(out.verdict, Verdict::NoErrorFound, "boxed spec is completable");
                assert_eq!(session.base.ctx.manager.var_count(), vars, "{method} grew the base");
            }
        }
    }

    /// Checks used to run in the session's one shared manager, so each
    /// Z_i simulation left its protected signals and `Z` projections
    /// behind, and the node budget of every later check counted them.
    #[test]
    fn node_budget_is_the_same_for_every_check() {
        let spec = generators::magnitude_comparator(8);
        let mut rng = StdRng::seed_from_u64(4);
        let partial = PartialCircuit::random_black_boxes(&spec, 0.3, 1, &mut rng).unwrap();
        let s = CheckSettings { node_limit: Some(1_050), ..settings() };
        let free = checks::output_exact(&spec, &partial, &s).unwrap();
        let mut session = CheckSession::new(spec, s).unwrap();
        for k in 0..6 {
            let out = session
                .check(&partial, Method::OutputExact)
                .unwrap_or_else(|e| panic!("check {k} of the same pair failed: {e}"));
            assert_eq!(out.verdict, free.verdict, "check {k}");
            assert_eq!(out.stats.apply_steps, free.stats.apply_steps, "check {k}");
            assert_eq!(out.stats.peak_check_nodes, free.stats.peak_check_nodes, "check {k}");
        }
    }

    #[test]
    fn session_survives_budget_aborts_without_refresh() -> Result<(), CheckError> {
        let spec = generators::sec32();
        let tight = CheckSettings {
            node_limit: Some(2_000), // absurdly small: every check aborts
            dynamic_reordering: false,
            ..CheckSettings::default()
        };
        // Even constructing the spec BDDs blows a 2k budget, so `new` fails
        // cleanly as a value…
        assert!(matches!(CheckSession::new(spec, tight), Err(CheckError::BudgetExceeded(_))));
        // …while a budget that admits the spec but not the expensive checks
        // aborts per-check and keeps the session usable in place.
        let spec = generators::magnitude_comparator(12);
        let medium = CheckSettings {
            node_limit: Some(3_000),
            dynamic_reordering: false,
            ..CheckSettings::default()
        };
        let mut session = CheckSession::new(spec.clone(), medium).unwrap();
        let spec_nodes = session.spec_node_count();
        let mut rng = StdRng::seed_from_u64(4);
        let partial = PartialCircuit::random_black_boxes(&spec, 0.3, 1, &mut rng).unwrap();
        let mut aborted = 0;
        for _ in 0..3 {
            match session.check(&partial, Method::InputExact) {
                Err(CheckError::BudgetExceeded(abort)) => {
                    aborted += 1;
                    assert!(!abort.reason.is_empty());
                }
                Ok(_) => {}
                // Any non-budget error is a genuine failure: propagate it
                // instead of panicking.
                Err(e) => return Err(e),
            }
            // The specification BDDs survived the abort untouched…
            assert_eq!(session.spec_node_count(), spec_nodes);
            // …and the cheap check still works right after.
            let ok = session.check(&partial, Method::Symbolic01X);
            assert!(ok.is_ok() || matches!(ok, Err(CheckError::BudgetExceeded(_))));
        }
        assert!(aborted > 0, "node budget should have fired at least once");
        Ok(())
    }

    #[test]
    fn spec_node_count_is_stable_across_checks() {
        let spec = generators::alu_181();
        let mut session = CheckSession::new(spec.clone(), settings()).unwrap();
        let before = session.spec_node_count();
        let mut rng = StdRng::seed_from_u64(5);
        let partial = PartialCircuit::random_black_boxes(&spec, 0.1, 1, &mut rng).unwrap();
        let _ = session.check(&partial, Method::OutputExact).unwrap();
        assert_eq!(session.spec_node_count(), before);
    }
}
