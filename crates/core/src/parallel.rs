//! Parallel check engine: cone-of-influence output sharding across
//! per-worker BDD managers.
//!
//! The per-output rungs of the paper's ladder (random patterns, symbolic
//! 0,1,X, local check) decide each primary output independently, so the
//! output set can be partitioned into **shards** — groups of outputs whose
//! fanin cones overlap — and each shard checked on its own worker thread
//! with a private [`bbec_bdd`] manager. Nothing is shared between workers:
//! every shard gets its own cone-of-influence subcircuits (spec and
//! implementation side), its own manager, computed cache and resource
//! budget, so no locks sit on the BDD hot path.
//!
//! The joint rungs (output-exact, input-exact and the SAT stages) quantify
//! over *all* outputs at once and cannot be sharded; they run sequentially
//! on the full circuits after the sharded phase, exactly as in
//! [`CheckLadder`].
//!
//! ## Determinism
//!
//! The engine runs the *identical* sharded pipeline regardless of the job
//! count — `jobs = 1` executes the same shard decomposition sequentially.
//! Shards are planned deterministically (union-find over shared cone
//! signals, ordered by lowest member output), every shard runs the same
//! mini-ladder with the same seed, and results are merged in shard order
//! after all workers join. Verdicts and counterexamples are therefore
//! bit-identical across job counts; only wall-clock time changes.
//!
//! ## Soundness of the shard checks
//!
//! A shard's spec subcircuit contains the full fanin cone of its outputs,
//! so those outputs are functions of the shard's inputs alone; a shard
//! counterexample extends to a full-circuit counterexample by assigning
//! the remaining inputs arbitrarily (the engine uses `false`). Black boxes
//! are clipped to the shard: a box contributes the outputs that feed the
//! shard's cone (treated as free unknowns by the per-output rungs, which
//! never read box *input* pins — only the input-exact check does, and it
//! never runs on shards).

use crate::checks::{CheckLadder, LadderReport, StageResult};
use crate::partial::{BlackBox, PartialCircuit};
use crate::report::{
    CheckError, CheckOutcome, CheckSettings, Counterexample, Method, ResourceStats, Verdict,
};
use bbec_netlist::Circuit;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;

/// One unit of sharded work: a group of outputs with overlapping cones and
/// the extracted spec/implementation subcircuits that decide them.
#[derive(Debug, Clone)]
pub struct Shard {
    /// Parent output positions this shard checks (ascending).
    pub output_positions: Vec<usize>,
    /// Parent input positions both shard circuits expose, ascending. The
    /// spec and implementation sides share this interface by construction.
    pub input_positions: Vec<usize>,
    /// Cone-of-influence subcircuit of the specification.
    pub spec: Circuit,
    /// Cone-of-influence partial implementation with clipped black boxes.
    pub partial: PartialCircuit,
}

/// Runs the check ladder with the per-output rungs sharded across worker
/// threads, each owning a private BDD manager.
///
/// Produces the same [`LadderReport`] shape as [`CheckLadder`]: one
/// [`StageResult`] per executed method, stopping at the first error. The
/// per-output stages carry resource statistics merged across shards
/// (steps/hits summed, peaks and durations maxed).
#[derive(Debug, Clone)]
pub struct ParallelChecker {
    /// Shared settings; the tracer forks one child per shard and the
    /// absolute [`CheckSettings::deadline`] is honored by every worker.
    pub settings: CheckSettings,
    /// Worker threads for the sharded phase (`0` and `1` both mean
    /// sequential in-place execution). The job count never changes
    /// verdicts, only wall-clock time.
    pub jobs: usize,
    /// The stages to run, in ladder order. Per-output stages
    /// (`r.p.`, `0,1,X`, `loc.`) form the sharded phase; all others run
    /// jointly on the full circuits afterwards.
    pub stages: Vec<Method>,
    /// CEGAR refinement budget for [`Method::SatOutputExact`] stages.
    pub sat_refinement_budget: usize,
}

impl ParallelChecker {
    /// A checker with the paper's default five-rung ladder.
    pub fn new(settings: CheckSettings, jobs: usize) -> Self {
        let CheckLadder { stages, sat_refinement_budget, .. } = CheckLadder::default();
        ParallelChecker { settings, jobs, stages, sat_refinement_budget }
    }

    /// Whether a method decides each output independently and can shard.
    pub fn is_per_output(method: Method) -> bool {
        matches!(method, Method::RandomPatterns | Method::Symbolic01X | Method::Local)
    }

    /// Runs the ladder: sharded per-output phase first, joint phase after.
    ///
    /// # Errors
    ///
    /// Propagates the first non-budget failure, in shard order for the
    /// sharded phase ([`CheckError`]); budget-exceeded rungs are recorded
    /// in the report and do not fail the run.
    pub fn run(
        &self,
        spec: &Circuit,
        partial: &PartialCircuit,
    ) -> Result<LadderReport, CheckError> {
        Ok(self.run_reusing(spec, partial, |_, _| None)?.0)
    }

    /// [`ParallelChecker::run`] with per-shard report reuse. `reuse` is
    /// asked once per planned shard, in shard order, before any shard
    /// runs; a shard it answers is merged from that report instead of
    /// running. Also returns the reports of the shards that did run, with
    /// their shard index (the service fills its cone cache from them).
    ///
    /// # Errors
    ///
    /// As [`ParallelChecker::run`].
    pub(crate) fn run_reusing(
        &self,
        spec: &Circuit,
        partial: &PartialCircuit,
        mut reuse: impl FnMut(usize, &Shard) -> Option<LadderReport>,
    ) -> Result<(LadderReport, Vec<(usize, LadderReport)>), CheckError> {
        crate::checks::validate_interface(spec, partial)?;
        let pre;
        let (spec, partial) = if self.settings.sweep {
            pre = crate::preprocess::preprocess(spec, partial, &self.settings)?;
            (&pre.spec, &pre.partial)
        } else {
            (spec, partial)
        };
        let phase_a: Vec<Method> =
            self.stages.iter().copied().filter(|&m| Self::is_per_output(m)).collect();
        let phase_b: Vec<Method> =
            self.stages.iter().copied().filter(|&m| !Self::is_per_output(m)).collect();

        let mut stages: Vec<StageResult> = Vec::new();
        let mut fresh = Vec::new();
        let mut error_found = false;
        if !phase_a.is_empty() {
            let shards = plan_shards(spec, partial)?;
            if !shards.is_empty() {
                let reused: Vec<Option<LadderReport>> =
                    shards.iter().enumerate().map(|(i, shard)| reuse(i, shard)).collect();
                let ran: Vec<bool> = reused.iter().map(Option::is_none).collect();
                let reports = self.run_sharded(&shards, &phase_a, reused)?;
                error_found =
                    merge_shard_reports(spec, partial, &shards, &reports, &phase_a, &mut stages)?;
                fresh = reports.into_iter().enumerate().filter(|&(i, _)| ran[i]).collect();
            }
        }
        if !error_found && !phase_b.is_empty() {
            let ladder = CheckLadder {
                settings: self.settings.clone(),
                stages: phase_b,
                sat_refinement_budget: self.sat_refinement_budget,
            };
            stages.extend(ladder.run(spec, partial)?.stages);
        }
        Ok((LadderReport { stages }, fresh))
    }

    /// Runs the per-output mini-ladder on every shard whose `reused` entry
    /// is `None` and returns all shard reports in shard order.
    fn run_sharded(
        &self,
        shards: &[Shard],
        phase_a: &[Method],
        reused: Vec<Option<LadderReport>>,
    ) -> Result<Vec<LadderReport>, CheckError> {
        let phase_span = self.settings.tracer.span("core.parallel_phase");
        phase_span.set_attr("shards", shards.len());
        let jobs = self.jobs.clamp(1, shards.len());
        phase_span.set_attr("jobs", jobs);

        // One child tracer and one ladder per shard, fixed before any
        // worker starts, so the schedule cannot influence what runs.
        let children: Vec<bbec_trace::Tracer> =
            shards.iter().map(|_| self.settings.tracer.child()).collect();
        let ladders: Vec<CheckLadder> = children
            .iter()
            .enumerate()
            .map(|(i, child)| CheckLadder {
                settings: CheckSettings {
                    tracer: child.clone(),
                    // Each worker reports heartbeats under its own region;
                    // the scoped handles share one engine-wide rate gate
                    // and step counter, so the emission rate stays bounded
                    // regardless of the job count.
                    progress: self.settings.progress.scoped(&format!("shard {i}")),
                    ..self.settings.clone()
                },
                stages: phase_a.to_vec(),
                sat_refinement_budget: self.sat_refinement_budget,
            })
            .collect();

        let todo: Vec<usize> = (0..shards.len()).filter(|&i| reused[i].is_none()).collect();
        let slots: Mutex<Vec<Option<Result<LadderReport, CheckError>>>> =
            Mutex::new(reused.into_iter().map(|r| r.map(Ok)).collect());
        // Workers claim shards in order and stop claiming after a failure:
        // every shard before the first failing one has been claimed and
        // runs to the end, so that failure is the one the run returns.
        let (next, failed) = (AtomicUsize::new(0), AtomicBool::new(false));
        let work = || {
            while !failed.load(Ordering::SeqCst) {
                let Some(&i) = todo.get(next.fetch_add(1, Ordering::SeqCst)) else { break };
                let result = ladders[i].run(&shards[i].spec, &shards[i].partial);
                failed.fetch_or(result.is_err(), Ordering::SeqCst);
                slots.lock().unwrap()[i] = Some(result);
            }
        };
        if jobs <= 1 {
            work();
        } else {
            std::thread::scope(|scope| {
                for _ in 0..jobs.min(todo.len()) {
                    scope.spawn(work);
                }
            });
        }

        // Graft every worker's span tree under one parent span per shard,
        // in shard order, so the merged trace is schedule-independent.
        for (i, (child, shard)) in children.iter().zip(shards).enumerate() {
            let span = self.settings.tracer.span("core.parallel_shard");
            span.set_attr("shard", i);
            span.set_attr("outputs", shard.output_positions.len());
            span.set_attr("inputs", shard.input_positions.len());
            self.settings.tracer.adopt(&child.finish());
        }
        drop(phase_span);

        // The first non-budget error (by shard index) fails the whole run,
        // exactly as in the sequential ladder. An unrun shard follows a
        // failed one, so collecting stops before reaching it.
        let reports = slots.into_inner().unwrap().into_iter();
        reports.map(|r| r.expect("shard ran, was reused or follows a failure")).collect()
    }
}

/// Merges per-shard mini-ladder reports into one stage list per method.
/// Returns `Ok(true)` when an error stops the ladder. Reused and freshly
/// computed shard reports are merged alike: the merge is deterministic in
/// shard order, so the two are indistinguishable.
///
/// # Errors
///
/// [`CheckError::CounterexampleRejected`] if a shard witness, lifted to the
/// parent input space, fails concrete replay against the *full* circuits —
/// the end-to-end guarantee that sharding and lifting preserved it.
fn merge_shard_reports(
    spec: &Circuit,
    partial: &PartialCircuit,
    shards: &[Shard],
    reports: &[LadderReport],
    phase_a: &[Method],
    stages: &mut Vec<StageResult>,
) -> Result<bool, CheckError> {
    for (mi, &method) in phase_a.iter().enumerate() {
        // A shard report is shorter than `mi + 1` only if the shard found
        // an error at an earlier rung — in which case the merge stopped
        // there and this loop iteration is never reached.
        let entries: Vec<&StageResult> = reports.iter().filter_map(|r| r.stages.get(mi)).collect();
        let stats = merged_stats(&entries);

        let error = entries.iter().enumerate().find_map(|(si, e)| match e {
            StageResult::Finished(o) if o.is_error() => Some((si, o)),
            _ => None,
        });
        if let Some((si, outcome)) = error {
            // `entries[si]` belongs to `shards[si]`: every shard that
            // reached rung `mi` has an entry, and those that stopped
            // earlier would have stopped this merge at that rung.
            let cex = outcome
                .counterexample
                .as_ref()
                .map(|c| lift_counterexample(&shards[si], c, spec.inputs().len()));
            if let Some(c) = &cex {
                crate::cex::validate_counterexample(spec, partial, c).map_err(|detail| {
                    CheckError::CounterexampleRejected {
                        method,
                        detail: format!("shard {si} lifted witness: {detail}"),
                    }
                })?;
            }
            stages.push(StageResult::Finished(CheckOutcome {
                method,
                verdict: Verdict::ErrorFound,
                counterexample: cex,
                stats,
            }));
            return Ok(true);
        }

        let abort = entries.iter().enumerate().find_map(|(si, e)| match e {
            StageResult::BudgetExceeded { reason, .. } => Some((si, reason.clone())),
            _ => None,
        });
        if let Some((si, reason)) = abort {
            let elapsed = entries.iter().map(|e| e.elapsed()).max().unwrap_or_default();
            stages.push(StageResult::BudgetExceeded {
                method,
                reason: format!("shard {si}: {reason}"),
                stats: Some(stats),
                elapsed,
            });
            continue;
        }

        stages.push(StageResult::Finished(CheckOutcome {
            method,
            verdict: Verdict::NoErrorFound,
            counterexample: None,
            stats,
        }));
    }
    Ok(false)
}

/// Merges shard stage statistics: additive counters sum, peaks and
/// wall-clock durations take the maximum across shards (the workers ran
/// concurrently, so the slowest shard bounds the phase).
fn merged_stats(entries: &[&StageResult]) -> ResourceStats {
    let mut merged = ResourceStats::default();
    for s in entries.iter().filter_map(|e| e.stats()) {
        merged.impl_nodes += s.impl_nodes;
        merged.peak_check_nodes = merged.peak_check_nodes.max(s.peak_check_nodes);
        merged.duration = merged.duration.max(s.duration);
        merged.apply_steps += s.apply_steps;
        merged.cache_hits += s.cache_hits;
        merged.cache_misses += s.cache_misses;
        merged.gc_passes += s.gc_passes;
        merged.reorder_passes += s.reorder_passes;
        merged.patterns += s.patterns;
    }
    merged
}

/// Lifts a shard counterexample to the parent input space: shard inputs
/// keep their values, inputs outside the shard (which cannot influence the
/// shard's outputs) default to `false`.
fn lift_counterexample(
    shard: &Shard,
    cex: &Counterexample,
    parent_inputs: usize,
) -> Counterexample {
    let mut inputs = vec![false; parent_inputs];
    for (k, &pos) in shard.input_positions.iter().enumerate() {
        inputs[pos] = cex.inputs.get(k).copied().unwrap_or(false);
    }
    let output = cex.output.map(|o| shard.output_positions[o]);
    Counterexample { inputs, output }
}

/// Plans the shard decomposition for a spec/implementation pair.
///
/// Two outputs land in the same shard iff their fanin cones share a
/// non-input signal on either side — a shared gate, or a shared black-box
/// output on the implementation side. Primary inputs are shared freely
/// (each shard exposes the union of the spec-side and implementation-side
/// cone inputs, so both sides keep matching interfaces). Shards are
/// ordered by their smallest member output position; the plan is a pure
/// function of the two circuits.
///
/// # Errors
///
/// [`CheckError::InterfaceMismatch`] if the output counts differ;
/// [`CheckError::InvalidPartial`] if a clipped shard violates the partial
/// structure (cannot happen for inputs accepted by [`PartialCircuit::new`]).
pub fn plan_shards(spec: &Circuit, partial: &PartialCircuit) -> Result<Vec<Shard>, CheckError> {
    crate::checks::validate_interface(spec, partial)?;
    let n = spec.outputs().len();
    let mut parent = (0..n).collect::<Vec<usize>>();

    fn find(parent: &mut [usize], mut x: usize) -> usize {
        while parent[x] != x {
            parent[x] = parent[parent[x]];
            x = parent[x];
        }
        x
    }
    fn union(parent: &mut [usize], a: usize, b: usize) {
        let (ra, rb) = (find(parent, a), find(parent, b));
        if ra != rb {
            // Deterministic representative: the smaller root wins.
            let (lo, hi) = (ra.min(rb), ra.max(rb));
            parent[hi] = lo;
        }
    }

    for circuit in [spec, partial.circuit()] {
        let mut is_input = vec![false; circuit.signal_count()];
        for &s in circuit.inputs() {
            is_input[s.index()] = true;
        }
        // First output whose cone contains each non-input signal.
        let mut owner: Vec<Option<usize>> = vec![None; circuit.signal_count()];
        let mut claim = |sig: bbec_netlist::SignalId, p: usize, parent: &mut [usize]| {
            if is_input[sig.index()] {
                return;
            }
            match owner[sig.index()] {
                Some(prev) => union(parent, prev, p),
                None => owner[sig.index()] = Some(p),
            }
        };
        for (p, &(_, root)) in circuit.outputs().iter().enumerate() {
            claim(root, p, &mut parent);
            for g in circuit.fanin_cone_gates(&[root]) {
                let gate = &circuit.gates()[g as usize];
                claim(gate.output, p, &mut parent);
                for &inp in &gate.inputs {
                    claim(inp, p, &mut parent);
                }
            }
        }
    }

    // Group outputs by root, ordered by smallest member (== the root,
    // because union always keeps the smaller index as representative).
    let mut groups: Vec<Vec<usize>> = vec![Vec::new(); n];
    for p in 0..n {
        let r = find(&mut parent, p);
        groups[r].push(p);
    }

    let mut shards = Vec::new();
    for group in groups.into_iter().filter(|g| !g.is_empty()) {
        // The union of both sides' cone inputs keeps the interfaces equal.
        let mut input_positions = spec.cone_input_positions(&group);
        input_positions.extend(partial.circuit().cone_input_positions(&group));
        input_positions.sort_unstable();
        input_positions.dedup();

        let spec_cone = spec.cone_subcircuit(&group, &input_positions);
        let impl_cone = partial.circuit().cone_subcircuit(&group, &input_positions);
        debug_assert_eq!(spec_cone.input_positions, impl_cone.input_positions);
        debug_assert_eq!(spec_cone.output_positions, impl_cone.output_positions);

        // Clip each black box to the shard: keep the outputs feeding the
        // cone; inputs are clipped to in-cone signals (the per-output
        // rungs never read them, and clipping keeps the host valid).
        let mut boxes = Vec::new();
        for b in partial.boxes() {
            let outputs: Vec<_> =
                b.outputs.iter().filter_map(|&s| impl_cone.signal_map[s.index()]).collect();
            if outputs.is_empty() {
                continue;
            }
            let inputs: Vec<_> =
                b.inputs.iter().filter_map(|&s| impl_cone.signal_map[s.index()]).collect();
            boxes.push(BlackBox { name: b.name.clone(), inputs, outputs });
        }
        let shard_partial = PartialCircuit::new(impl_cone.circuit, boxes)?;

        shards.push(Shard {
            output_positions: spec_cone.output_positions,
            input_positions: spec_cone.input_positions,
            spec: spec_cone.circuit,
            partial: shard_partial,
        });
    }
    shards.sort_by_key(|s| s.output_positions[0]);
    Ok(shards)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::samples;
    use bbec_netlist::{generators, Mutation, Tv};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn settings() -> CheckSettings {
        CheckSettings {
            dynamic_reordering: false,
            random_patterns: 200,
            ..CheckSettings::default()
        }
    }

    /// Disjoint cones shard one-per-output; shared logic merges shards.
    #[test]
    fn shard_plan_follows_cone_overlap() {
        let spec = generators::disjoint_cones(8, 4, 10, 7);
        let partial = PartialCircuit::black_box_gates(&spec, &[0]).unwrap();
        let shards = plan_shards(&spec, &partial).unwrap();
        assert_eq!(shards.len(), 8, "independent blocks shard per output");
        for (i, s) in shards.iter().enumerate() {
            assert_eq!(s.output_positions, vec![i]);
            assert_eq!(s.spec.inputs().len(), s.partial.circuit().inputs().len());
            assert_eq!(s.spec.outputs().len(), 1);
        }

        // An adder chains carries through every output: one shard.
        let adder = generators::ripple_carry_adder(4);
        let p = PartialCircuit::black_box_gates(&adder, &[0]).unwrap();
        let shards = plan_shards(&adder, &p).unwrap();
        assert_eq!(shards.len(), 1, "overlapping cones must merge");
        assert_eq!(shards[0].output_positions, (0..adder.outputs().len()).collect::<Vec<_>>());
    }

    /// The black box lands (clipped) exactly in the shards its outputs feed.
    #[test]
    fn shard_plan_clips_black_boxes() {
        let spec = generators::disjoint_cones(4, 3, 8, 11);
        // Black-box one gate of block 0's cone.
        let g = spec.fanin_cone_gates(&[spec.outputs()[0].1])[0];
        let partial = PartialCircuit::black_box_gates(&spec, &[g]).unwrap();
        let shards = plan_shards(&spec, &partial).unwrap();
        assert_eq!(shards.len(), 4);
        assert_eq!(shards[0].partial.boxes().len(), 1, "box feeds shard 0");
        for s in &shards[1..] {
            assert!(s.partial.boxes().is_empty(), "box must not leak into other shards");
        }
    }

    /// jobs=1 and jobs=4 produce bit-identical reports on a clean design.
    #[test]
    fn job_count_does_not_change_clean_reports() {
        let (spec, partial) = samples::completable_pair();
        let seq = ParallelChecker::new(settings(), 1).run(&spec, &partial).unwrap();
        let par = ParallelChecker::new(settings(), 4).run(&spec, &partial).unwrap();
        assert_eq!(seq.verdict(), Verdict::NoErrorFound);
        assert_eq!(seq.verdict(), par.verdict());
        assert_eq!(seq.stages.len(), par.stages.len());
        for (a, b) in seq.stages.iter().zip(&par.stages) {
            assert_eq!(a.method(), b.method());
            assert_eq!(a.outcome().map(|o| o.verdict), b.outcome().map(|o| o.verdict));
        }
    }

    /// A shard-found error lifts its counterexample into the parent input
    /// space and the lifted vector actually distinguishes the circuits.
    #[test]
    fn shard_error_lifts_counterexample() {
        let spec = generators::disjoint_cones(6, 4, 12, 3);
        let mut rng = StdRng::seed_from_u64(5);
        let all: Vec<u32> = (0..spec.gates().len() as u32).collect();
        let mutated = Mutation::random(&spec, &all, &mut rng).unwrap().apply(&spec).unwrap();
        let partial = PartialCircuit::black_box_gates(&mutated, &[0]).unwrap();

        let report = ParallelChecker::new(settings(), 4).run(&spec, &partial).unwrap();
        let sequential = ParallelChecker::new(settings(), 1).run(&spec, &partial).unwrap();
        assert_eq!(report.verdict(), sequential.verdict());
        assert_eq!(report.counterexample(), sequential.counterexample());
        let per_output_decided =
            report.deciding_method().is_some_and(ParallelChecker::is_per_output);
        if let (Some(cex), true) = (report.counterexample(), per_output_decided) {
            assert_eq!(cex.inputs.len(), spec.inputs().len(), "cex must be in parent space");
            // A per-output witness exposes an output difference under the
            // partial implementation's ternary semantics (X counts: the
            // implementation cannot resolve to the spec's value).
            let tv: Vec<Tv> = cex.inputs.iter().map(|&b| b.into()).collect();
            let s = spec.eval_ternary(&tv).unwrap();
            let i = partial.circuit().eval_ternary(&tv).unwrap();
            if let Some(o) = cex.output {
                assert_ne!(s[o], i[o], "lifted cex must distinguish output {o}");
            }
        }
    }

    /// The joint rungs still run (sequentially) after a clean phase A.
    #[test]
    fn joint_rungs_follow_the_sharded_phase() {
        let (spec, partial) = samples::detected_only_by_input_exact();
        let report = ParallelChecker::new(settings(), 4).run(&spec, &partial).unwrap();
        assert_eq!(report.verdict(), Verdict::ErrorFound);
        assert_eq!(report.deciding_method(), Some(Method::InputExact));
        assert_eq!(report.stages.len(), 5);
    }

    /// A budget abort in one shard degrades that rung, not the run.
    #[test]
    fn shard_budget_abort_degrades_gracefully() {
        let (spec, partial) = samples::detected_only_by_input_exact();
        let tight = CheckSettings { step_limit: Some(1), ..settings() };
        let report = ParallelChecker::new(tight, 4).run(&spec, &partial).unwrap();
        let exceeded = report.budget_exceeded();
        assert!(
            exceeded.contains(&Method::Symbolic01X) || exceeded.contains(&Method::Local),
            "a symbolic shard rung must trip the 1-step budget, got {exceeded:?}"
        );
        // Sharded-phase abort reasons carry the shard index; joint-phase
        // rungs keep their plain reasons.
        for s in &report.stages {
            if let StageResult::BudgetExceeded { method, reason, .. } = s {
                if ParallelChecker::is_per_output(*method) {
                    assert!(reason.starts_with("shard "), "reason: {reason}");
                }
            }
        }
    }

    /// Merged traces are schedule-independent and schema-valid.
    #[test]
    fn merged_trace_is_deterministic_in_shape() {
        let spec = generators::disjoint_cones(4, 3, 8, 9);
        let partial = PartialCircuit::black_box_gates(&spec, &[0]).unwrap();
        let shape_of = |jobs: usize| {
            let tracer = bbec_trace::Tracer::new();
            let s = CheckSettings { tracer: tracer.clone(), ..settings() };
            ParallelChecker::new(s, jobs).run(&spec, &partial).unwrap();
            let trace = tracer.finish();
            bbec_trace::schema::validate_stream(&trace.to_jsonl()).unwrap();
            trace
                .events()
                .iter()
                .filter_map(|e| match e {
                    bbec_trace::TraceEvent::Span { name, depth, .. } => Some((*name, *depth)),
                    _ => None,
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(shape_of(1), shape_of(4), "span tree must not depend on the schedule");
    }
}
