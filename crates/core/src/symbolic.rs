//! Symbolic simulation: from netlists to BDDs.
//!
//! Three flavours, mirroring the paper:
//!
//! * plain simulation of complete circuits (the specification's `f_j`),
//! * **Z_i simulation** of partial circuits — every black-box output becomes
//!   a fresh BDD variable `Z_i` (Section 2.2),
//! * **0,1,X simulation** — each signal is a pair `(is0, is1)` of BDDs over
//!   the primary inputs; `X` is the state where both are false
//!   (Section 2.1; equivalent to an MTBDD with terminals {0,1,X}).

use crate::partial::PartialCircuit;
use crate::report::{CheckError, CheckSettings};
use bbec_bdd::{Bdd, BddManager, BddVar, Budget, ReorderSettings, SatAssignment};
use bbec_netlist::{Circuit, GateKind, SignalId};
use std::time::{Duration, Instant};

/// A ternary signal value encoded as two BDDs over the primary inputs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TernaryBdd {
    /// Characteristic function of "this signal is definitely 0".
    pub is0: Bdd,
    /// Characteristic function of "this signal is definitely 1".
    pub is1: Bdd,
}

/// The result of Z_i simulation of a partial circuit.
#[derive(Debug, Clone)]
pub struct PartialSymbolic {
    /// `g_j`: one BDD per primary output, over input and Z variables.
    pub outputs: Vec<Bdd>,
    /// The Z variables, grouped per box (paper's `O_j`), boxes in
    /// topological order.
    pub z_vars_by_box: Vec<Vec<BddVar>>,
    /// All Z variables flattened.
    pub all_z_vars: Vec<BddVar>,
    /// BDD of every host-circuit signal (the `h` functions of the
    /// input-exact check are the entries for box-input signals).
    pub signal_bdds: Vec<Option<Bdd>>,
}

/// The result of 0,1,X simulation: output pairs plus the protections the
/// simulation took, so the caller can release them when done.
#[derive(Debug, Clone)]
pub struct TernarySim {
    /// One `(is0, is1)` pair per primary output.
    pub outputs: Vec<TernaryBdd>,
    /// Every handle the simulation protected (released by
    /// [`TernarySim::release`]).
    protected: Vec<Bdd>,
}

impl TernarySim {
    /// Releases every protection the simulation took.
    pub fn release(self, manager: &mut BddManager) {
        for f in self.protected {
            manager.release(f);
        }
    }
}

/// A BDD manager wired to a circuit interface: one variable per primary
/// input, allocated in a fanin-first (DFS) static order.
#[derive(Debug)]
pub struct SymbolicContext {
    /// The underlying manager; exposed so checks can run further operations.
    pub manager: BddManager,
    input_vars: Vec<BddVar>,
    node_limit: Option<usize>,
    step_limit: Option<u64>,
    time_limit: Option<Duration>,
    /// Absolute run deadline ([`CheckSettings::deadline`]); unlike
    /// `time_limit` it is *not* restarted by [`SymbolicContext::arm_budget`].
    deadline: Option<Instant>,
    /// Warm pool the manager came from ([`CheckSettings::pool`]); the
    /// manager is recycled back on drop.
    pool: Option<bbec_bdd::ManagerPool>,
}

impl Drop for SymbolicContext {
    fn drop(&mut self) {
        if let Some(pool) = self.pool.take() {
            pool.recycle(std::mem::take(&mut self.manager));
        }
    }
}

impl SymbolicContext {
    /// Creates a context for circuits with `reference`'s input interface.
    ///
    /// The static variable order interleaves inputs by a depth-first walk
    /// from the outputs (a standard netlist ordering heuristic); dynamic
    /// reordering is enabled according to `settings`.
    ///
    /// With [`CheckSettings::pool`] set, the manager is acquired from the
    /// warm pool instead of constructed — recycled managers have been
    /// [`BddManager::reset`] and behave bit-identically to fresh ones, so
    /// the pool never changes a verdict, only the allocation ramp-up.
    pub fn new(reference: &Circuit, settings: &CheckSettings) -> SymbolicContext {
        let reorder = ReorderSettings {
            threshold: settings.reorder_threshold,
            enabled: settings.dynamic_reordering,
            ..ReorderSettings::default()
        };
        let mut manager = match &settings.pool {
            Some(pool) => {
                let mut m = pool.acquire();
                m.set_reorder_settings(reorder);
                m
            }
            None if settings.dynamic_reordering => BddManager::with_reordering(reorder),
            None => BddManager::new(),
        };
        manager.set_tracer(settings.tracer.clone());
        manager.set_progress(settings.progress.clone());
        manager.set_cache_capacity_bits(settings.cache_bits);
        let order = dfs_input_order(reference);
        let mut input_vars = vec![None; reference.inputs().len()];
        for pos in order {
            input_vars[pos] = Some(manager.new_var());
        }
        let input_vars: Vec<BddVar> =
            input_vars.into_iter().map(|v| v.expect("all inputs ordered")).collect();
        let mut ctx = SymbolicContext {
            manager,
            input_vars,
            node_limit: settings.node_limit,
            step_limit: settings.step_limit,
            time_limit: settings.time_limit,
            deadline: settings.deadline,
            pool: settings.pool.clone(),
        };
        ctx.arm_budget();
        ctx
    }

    /// An independent copy of this context in its current state: the
    /// manager is a [`BddManager::fork`], so every handle built so far
    /// stays valid in the copy and the copy's operations run exactly as
    /// they would have on this context. Budget settings and the warm pool
    /// carry over; nothing is re-armed.
    pub fn fork(&mut self) -> SymbolicContext {
        SymbolicContext {
            manager: self.manager.fork(),
            input_vars: self.input_vars.clone(),
            node_limit: self.node_limit,
            step_limit: self.step_limit,
            time_limit: self.time_limit,
            deadline: self.deadline,
            pool: self.pool.clone(),
        }
    }

    /// (Re-)arms the resource governor: opens a fresh step window and, when
    /// a time limit is configured, starts its deadline **now**. Checks call
    /// this at the start of each run so every check gets the full budget.
    ///
    /// The absolute [`CheckSettings::deadline`] is deliberately *not*
    /// restarted: re-arming per check (or per shard worker) keeps the
    /// earliest of `now + time_limit` and the fixed global deadline, so a
    /// worker spawned late in the run still honors the run-wide wall-clock
    /// limit instead of receiving a fresh window.
    pub fn arm_budget(&mut self) {
        if self.node_limit.is_none()
            && self.step_limit.is_none()
            && self.time_limit.is_none()
            && self.deadline.is_none()
        {
            self.manager.set_budget(None);
            return;
        }
        self.manager.set_budget(Some(Budget {
            max_live_nodes: self.node_limit,
            max_steps: self.step_limit,
            deadline: self.window_deadline(Duration::ZERO),
        }));
    }

    /// Restarts the time-limit window as if it had been armed `spent` ago,
    /// keeping the step window: a check handed a fork of a build made
    /// earlier gets the window it would have had right after building it
    /// itself. Without a time limit the deadline is left as it is.
    pub(crate) fn restart_time_window(&mut self, spent: Duration) {
        if self.time_limit.is_some() {
            self.manager.set_deadline(self.window_deadline(spent));
        }
    }

    /// The earliest of the time-limit window (armed `spent` ago) and the
    /// run-wide deadline.
    fn window_deadline(&self, spent: Duration) -> Option<Instant> {
        let window = self.time_limit.map(|d| Instant::now() + d.saturating_sub(spent));
        match (window, self.deadline) {
            (Some(w), Some(g)) => Some(w.min(g)),
            (w, g) => w.or(g),
        }
    }

    /// The BDD variable of each primary input, in declaration order.
    pub fn input_vars(&self) -> &[BddVar] {
        &self.input_vars
    }

    /// The observability sink this context (and its manager) reports to.
    pub fn tracer(&self) -> &bbec_trace::Tracer {
        self.manager.tracer()
    }

    /// Builds the output BDDs of a complete circuit (the spec's `f_j`).
    ///
    /// # Errors
    ///
    /// [`CheckError::Netlist`] if an output cone contains undriven signals —
    /// use [`SymbolicContext::build_partial`] for partial circuits.
    pub fn build_outputs(&mut self, circuit: &Circuit) -> Result<Vec<Bdd>, CheckError> {
        let signals = self.simulate(circuit, |_, _| None)?;
        circuit
            .outputs()
            .iter()
            .map(|&(ref name, s)| {
                signals[s.index()].ok_or_else(|| {
                    CheckError::Netlist(bbec_netlist::NetlistError::Undriven(name.clone()))
                })
            })
            .collect()
    }

    /// Z_i simulation: builds the partial implementation's `g_j` with one
    /// fresh variable per black-box output.
    ///
    /// # Errors
    ///
    /// [`CheckError::BudgetExceeded`] if the armed budget runs out; the
    /// manager stays usable and this simulation's protections are released.
    pub fn build_partial(
        &mut self,
        partial: &PartialCircuit,
    ) -> Result<PartialSymbolic, CheckError> {
        // Allocate Z variables per box, in topological box order.
        let mut z_vars_by_box = Vec::new();
        let mut all_z_vars = Vec::new();
        let mut z_of_signal: Vec<Option<BddVar>> = vec![None; partial.circuit().signal_count()];
        for b in partial.boxes() {
            let vars: Vec<BddVar> = b
                .outputs
                .iter()
                .map(|&o| {
                    let v = self.manager.new_var();
                    z_of_signal[o.index()] = Some(v);
                    v
                })
                .collect();
            all_z_vars.extend(&vars);
            z_vars_by_box.push(vars);
        }
        let signals =
            self.simulate(partial.circuit(), |m, s| z_of_signal[s.index()].map(|v| m.var(v)))?;
        let outputs = partial
            .circuit()
            .outputs()
            .iter()
            .map(|&(_, s)| signals[s.index()].expect("outputs driven or boxed"))
            .collect();
        Ok(PartialSymbolic { outputs, z_vars_by_box, all_z_vars, signal_bdds: signals })
    }

    /// Symbolic 0,1,X simulation of a partial circuit: black-box outputs
    /// start as `X`, and every signal's `(is0, is1)` pair is computed over
    /// the primary input variables only.
    ///
    /// # Errors
    ///
    /// [`CheckError::BudgetExceeded`] if the armed budget runs out; the
    /// manager stays usable and this simulation's protections are released.
    pub fn build_ternary(&mut self, circuit: &Circuit) -> Result<TernarySim, CheckError> {
        let tracer = self.manager.tracer().clone();
        let span = tracer.span("core.sim01x");
        span.set_attr("circuit", circuit.name());
        span.set_attr("gates", circuit.topo_order().len());
        let false_ = self.manager.constant(false);
        let x_value = TernaryBdd { is0: false_, is1: false_ };
        let mut signals: Vec<TernaryBdd> = vec![x_value; circuit.signal_count()];
        let mut protected: Vec<Bdd> = Vec::new();
        for (pos, &s) in circuit.inputs().iter().enumerate() {
            let v = self.manager.var(self.input_vars[pos]);
            // Protect the negated rail: reordering garbage-collects.
            let nv = self.manager.not(v);
            self.manager.protect(nv);
            protected.push(nv);
            signals[s.index()] = TernaryBdd { is0: nv, is1: v };
        }
        let mut inputs_buf: Vec<TernaryBdd> = Vec::new();
        for &g in circuit.topo_order() {
            let gate = &circuit.gates()[g as usize];
            inputs_buf.clear();
            inputs_buf.extend(gate.inputs.iter().map(|&s| signals[s.index()]));
            let out = match self.try_eval_ternary_gate(gate.kind, &inputs_buf) {
                Ok(out) => out,
                Err(e) => {
                    for f in protected {
                        self.manager.release(f);
                    }
                    return Err(e.into());
                }
            };
            self.manager.protect(out.is0);
            self.manager.protect(out.is1);
            protected.push(out.is0);
            protected.push(out.is1);
            signals[gate.output.index()] = out;
            if tracer.enabled() {
                // Wavefront progress: one tick per simulated gate.
                tracer.counter_add("core.sim.gates", 1);
            }
            self.manager.maybe_reorder();
        }
        let outputs = circuit.outputs().iter().map(|&(_, s)| signals[s.index()]).collect();
        Ok(TernarySim { outputs, protected })
    }

    /// Maps a BDD satisfying assignment back to a primary-input vector.
    pub fn witness_inputs(&self, assignment: &SatAssignment) -> Vec<bool> {
        self.input_vars.iter().map(|&v| assignment.value(v).unwrap_or(false)).collect()
    }

    /// Core simulation loop; `leaf` supplies BDDs for undriven signals.
    ///
    /// On success every computed signal is left protected (h functions and
    /// outputs must survive the garbage collections that reordering
    /// performs). On a budget abort, this loop's protections are released
    /// before the error propagates, leaving the manager as it was.
    fn simulate(
        &mut self,
        circuit: &Circuit,
        leaf: impl Fn(&mut BddManager, SignalId) -> Option<Bdd>,
    ) -> Result<Vec<Option<Bdd>>, CheckError> {
        let tracer = self.manager.tracer().clone();
        let span = tracer.span("core.sim");
        span.set_attr("circuit", circuit.name());
        span.set_attr("gates", circuit.topo_order().len());
        let mut signals: Vec<Option<Bdd>> = vec![None; circuit.signal_count()];
        for (pos, &s) in circuit.inputs().iter().enumerate() {
            signals[s.index()] = Some(self.manager.var(self.input_vars[pos]));
        }
        for s in circuit.undriven_signals() {
            signals[s.index()] = leaf(&mut self.manager, s);
        }
        let mut protected: Vec<Bdd> = Vec::new();
        let mut buf: Vec<Bdd> = Vec::new();
        for &g in circuit.topo_order() {
            let gate = &circuit.gates()[g as usize];
            buf.clear();
            for &inp in &gate.inputs {
                match signals[inp.index()] {
                    Some(b) => buf.push(b),
                    None => {
                        return Err(CheckError::Netlist(bbec_netlist::NetlistError::Undriven(
                            circuit.signal_name(inp).to_string(),
                        )))
                    }
                }
            }
            let out = match self.try_eval_gate(gate.kind, &buf) {
                Ok(out) => out,
                Err(e) => {
                    for f in protected {
                        self.manager.release(f);
                    }
                    return Err(e.into());
                }
            };
            self.manager.protect(out);
            protected.push(out);
            signals[gate.output.index()] = Some(out);
            if tracer.enabled() {
                // Wavefront progress: one tick per simulated gate.
                tracer.counter_add("core.sim.gates", 1);
            }
            self.manager.maybe_reorder();
        }
        Ok(signals)
    }

    pub(crate) fn try_eval_gate(
        &mut self,
        kind: GateKind,
        inputs: &[Bdd],
    ) -> Result<Bdd, bbec_bdd::BudgetExceeded> {
        let m = &mut self.manager;
        Ok(match kind {
            GateKind::And => m.try_and_many(inputs)?,
            GateKind::Or => m.try_or_many(inputs)?,
            GateKind::Nand => {
                let a = m.try_and_many(inputs)?;
                m.try_not(a)?
            }
            GateKind::Nor => {
                let a = m.try_or_many(inputs)?;
                m.try_not(a)?
            }
            GateKind::Xor => m.try_xor_many(inputs)?,
            GateKind::Xnor => {
                let a = m.try_xor_many(inputs)?;
                m.try_not(a)?
            }
            GateKind::Not => m.try_not(inputs[0])?,
            GateKind::Buf => inputs[0],
            GateKind::Const0 => m.constant(false),
            GateKind::Const1 => m.constant(true),
        })
    }

    fn try_eval_ternary_gate(
        &mut self,
        kind: GateKind,
        inputs: &[TernaryBdd],
    ) -> Result<TernaryBdd, bbec_bdd::BudgetExceeded> {
        type BResult<T> = Result<T, bbec_bdd::BudgetExceeded>;
        let m = &mut self.manager;
        let and_fold = |m: &mut BddManager, inputs: &[TernaryBdd]| -> BResult<TernaryBdd> {
            let is1s: Vec<Bdd> = inputs.iter().map(|t| t.is1).collect();
            let is0s: Vec<Bdd> = inputs.iter().map(|t| t.is0).collect();
            Ok(TernaryBdd { is1: m.try_and_many(&is1s)?, is0: m.try_or_many(&is0s)? })
        };
        let or_fold = |m: &mut BddManager, inputs: &[TernaryBdd]| -> BResult<TernaryBdd> {
            let is1s: Vec<Bdd> = inputs.iter().map(|t| t.is1).collect();
            let is0s: Vec<Bdd> = inputs.iter().map(|t| t.is0).collect();
            Ok(TernaryBdd { is1: m.try_or_many(&is1s)?, is0: m.try_and_many(&is0s)? })
        };
        let xor_fold = |m: &mut BddManager, inputs: &[TernaryBdd]| -> BResult<TernaryBdd> {
            let mut acc = inputs[0];
            for t in &inputs[1..] {
                let a = m.try_and(acc.is1, t.is0)?;
                let b = m.try_and(acc.is0, t.is1)?;
                let c = m.try_and(acc.is0, t.is0)?;
                let d = m.try_and(acc.is1, t.is1)?;
                acc = TernaryBdd { is1: m.try_or(a, b)?, is0: m.try_or(c, d)? };
            }
            Ok(acc)
        };
        let negate = |t: TernaryBdd| TernaryBdd { is0: t.is1, is1: t.is0 };
        Ok(match kind {
            GateKind::And => and_fold(m, inputs)?,
            GateKind::Or => or_fold(m, inputs)?,
            GateKind::Nand => negate(and_fold(m, inputs)?),
            GateKind::Nor => negate(or_fold(m, inputs)?),
            GateKind::Xor => xor_fold(m, inputs)?,
            GateKind::Xnor => negate(xor_fold(m, inputs)?),
            GateKind::Not => negate(inputs[0]),
            GateKind::Buf => inputs[0],
            GateKind::Const0 => TernaryBdd { is0: m.constant(true), is1: m.constant(false) },
            GateKind::Const1 => TernaryBdd { is0: m.constant(false), is1: m.constant(true) },
        })
    }
}

/// Orders input positions by a depth-first, fanin-first walk from the
/// outputs; inputs never reached are appended in declaration order.
fn dfs_input_order(circuit: &Circuit) -> Vec<usize> {
    let mut pos_of_signal = vec![usize::MAX; circuit.signal_count()];
    for (pos, &s) in circuit.inputs().iter().enumerate() {
        pos_of_signal[s.index()] = pos;
    }
    let mut order = Vec::new();
    let mut seen_input = vec![false; circuit.inputs().len()];
    let mut seen_sig = vec![false; circuit.signal_count()];
    let mut stack: Vec<SignalId> = circuit.outputs().iter().rev().map(|&(_, s)| s).collect();
    while let Some(s) = stack.pop() {
        if std::mem::replace(&mut seen_sig[s.index()], true) {
            continue;
        }
        let pos = pos_of_signal[s.index()];
        if pos != usize::MAX && !seen_input[pos] {
            seen_input[pos] = true;
            order.push(pos);
        }
        if let Some(gate) = circuit.driver_of(s) {
            for &inp in gate.inputs.iter().rev() {
                stack.push(inp);
            }
        }
    }
    for (pos, seen) in seen_input.iter().enumerate() {
        if !seen {
            order.push(pos);
        }
    }
    order
}

#[cfg(test)]
mod tests {
    use super::*;
    use bbec_netlist::generators;

    fn settings() -> CheckSettings {
        CheckSettings { dynamic_reordering: false, ..CheckSettings::default() }
    }

    #[test]
    fn spec_bdds_match_simulation() {
        let c = generators::ripple_carry_adder(3);
        let mut ctx = SymbolicContext::new(&c, &settings());
        let outs = ctx.build_outputs(&c).unwrap();
        for bits in 0..128u32 {
            let inputs: Vec<bool> = (0..7).map(|i| bits >> i & 1 == 1).collect();
            let expect = c.eval(&inputs).unwrap();
            // Map input values onto BDD variables.
            let mut assign = vec![false; ctx.manager.var_count()];
            for (pos, &v) in ctx.input_vars().iter().enumerate() {
                assign[v.index() as usize] = inputs[pos];
            }
            for (o, &e) in outs.iter().zip(&expect) {
                assert_eq!(ctx.manager.eval(*o, &assign), e, "bits {bits:07b}");
            }
        }
    }

    #[test]
    fn partial_bdds_depend_on_z() {
        let c = generators::ripple_carry_adder(2);
        let p = crate::PartialCircuit::black_box_gates(&c, &[0]).unwrap();
        let mut ctx = SymbolicContext::new(&c, &settings());
        let sym = ctx.build_partial(&p).unwrap();
        assert_eq!(sym.all_z_vars.len(), 1);
        let z = sym.all_z_vars[0];
        // Some output must depend on Z (gate 0 feeds sum0).
        let depends = sym.outputs.iter().any(|&o| ctx.manager.support(o).contains(&z));
        assert!(depends);
    }

    #[test]
    fn zi_simulation_restores_function_when_z_composed() {
        // Substituting the removed gate's true function for Z must give back
        // the specification exactly.
        let c = generators::magnitude_comparator(3);
        let gate = 2u32;
        let p = crate::PartialCircuit::black_box_gates(&c, &[gate]).unwrap();
        let mut ctx = SymbolicContext::new(&c, &settings());
        let spec = ctx.build_outputs(&c).unwrap();
        let sym = ctx.build_partial(&p).unwrap();
        // Rebuild the removed gate's true function from the host's signal
        // BDDs (its inputs are still driven in the host).
        let removed = &c.gates()[gate as usize];
        let ins: Vec<Bdd> =
            removed.inputs.iter().map(|&s| sym.signal_bdds[s.index()].expect("driven")).collect();
        let true_fn = ctx.try_eval_gate(removed.kind, &ins).unwrap();
        let z = sym.all_z_vars[0];
        for (g, f) in sym.outputs.iter().zip(&spec) {
            let composed = ctx.manager.compose(*g, z, true_fn);
            assert_eq!(composed, *f);
        }
    }

    #[test]
    fn ternary_pairs_are_disjoint_and_sound() {
        let c = generators::ripple_carry_adder(2);
        let p = crate::PartialCircuit::black_box_gates(&c, &[1, 2]).unwrap();
        let mut ctx = SymbolicContext::new(&c, &settings());
        let sim = ctx.build_ternary(p.circuit()).unwrap();
        let pairs = sim.outputs.clone();
        for t in &pairs {
            // is0 ∧ is1 must be unsatisfiable.
            let both = ctx.manager.and(t.is0, t.is1);
            assert!(ctx.manager.is_contradiction(both));
        }
        // Cross-check against the netlist's ternary simulator.
        for bits in 0..32u32 {
            let inputs: Vec<bool> = (0..5).map(|i| bits >> i & 1 == 1).collect();
            let tv: Vec<bbec_netlist::Tv> =
                inputs.iter().map(|&b| bbec_netlist::Tv::from(b)).collect();
            let expect = p.circuit().eval_ternary(&tv).unwrap();
            let mut assign = vec![false; ctx.manager.var_count()];
            for (pos, &v) in ctx.input_vars().iter().enumerate() {
                assign[v.index() as usize] = inputs[pos];
            }
            for (t, e) in pairs.iter().zip(&expect) {
                let is0 = ctx.manager.eval(t.is0, &assign);
                let is1 = ctx.manager.eval(t.is1, &assign);
                match e {
                    bbec_netlist::Tv::Zero => assert!(is0 && !is1),
                    bbec_netlist::Tv::One => assert!(is1 && !is0),
                    bbec_netlist::Tv::X => assert!(!is0 && !is1),
                }
            }
        }
    }

    #[test]
    fn dfs_order_touches_every_input() {
        let c = generators::masked_alu14();
        let order = dfs_input_order(&c);
        let mut sorted = order.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..60).collect::<Vec<_>>());
    }

    #[test]
    fn absolute_deadline_survives_rearming() {
        let s = CheckSettings {
            dynamic_reordering: false,
            deadline: Some(Instant::now() - Duration::from_millis(1)),
            ..CheckSettings::default()
        };
        // Big enough that the build charges well over 1024 apply steps
        // (the deadline is polled every 1024 steps).
        let c = generators::array_multiplier(6);
        let mut ctx = SymbolicContext::new(&c, &s);
        // Re-arming opens a fresh step window but must keep the expired
        // global deadline instead of granting a new one.
        ctx.arm_budget();
        let err = ctx.build_outputs(&c);
        assert!(
            matches!(err, Err(CheckError::BudgetExceeded(_))),
            "expired global deadline must abort the build"
        );
    }

    #[test]
    fn reordering_during_simulation_is_safe() {
        let s = CheckSettings {
            dynamic_reordering: true,
            reorder_threshold: 64, // force frequent reordering
            ..CheckSettings::default()
        };
        let c = generators::magnitude_comparator(6);
        let mut ctx = SymbolicContext::new(&c, &s);
        let outs = ctx.build_outputs(&c).unwrap();
        assert!(ctx.manager.stats().reorderings > 0, "threshold should have triggered");
        for bits in (0..4096u32).step_by(97) {
            let inputs: Vec<bool> = (0..12).map(|i| bits >> i & 1 == 1).collect();
            let expect = c.eval(&inputs).unwrap();
            let mut assign = vec![false; ctx.manager.var_count()];
            for (pos, &v) in ctx.input_vars().iter().enumerate() {
                assign[v.index() as usize] = inputs[pos];
            }
            for (o, &e) in outs.iter().zip(&expect) {
                assert_eq!(ctx.manager.eval(*o, &assign), e);
            }
        }
    }
}
