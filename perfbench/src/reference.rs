//! The reference list: the ground-truth verdict and deciding rung of every
//! pool instance, kept in `reference.txt` beside this crate.
//!
//! A line reads `<workload> <instance> error <rung>` or
//! `<workload> <instance> none`. The truth is what the unbounded ladder
//! reports; `--write-reference` regenerates the file (see [`generate`]).

use crate::check::parse_instance;
use crate::pool::{self, Workload};
use bbec_core::{CheckSettings, Method, ParallelChecker, Verdict};
use std::collections::HashMap;

/// The five rungs, cheapest first.
pub const LADDER: [Method; 5] = [
    Method::RandomPatterns,
    Method::Symbolic01X,
    Method::Local,
    Method::OutputExact,
    Method::InputExact,
];

/// Ground truth of one instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Truth {
    /// The unbounded ladder stops with an error at this rung.
    Error(Method),
    /// No rung finds an error.
    NoError,
}

impl Truth {
    /// Decided by the random-pattern rung, before any BDD is built.
    pub fn is_shallow(self) -> bool {
        self == Truth::Error(Method::RandomPatterns)
    }

    /// The rung at which a correct ladder reports the error when the rungs
    /// in `aborted` ran out of budget: the first finished rung at or after
    /// the true one (each rung detects every error a cheaper one does), or
    /// `None` when the truth is "no error" or every such rung aborted.
    pub fn expected_error_rung(self, aborted: &[Method]) -> Option<Method> {
        match self {
            Truth::NoError => None,
            Truth::Error(rung) => {
                LADDER.into_iter().skip_while(|&m| m != rung).find(|m| !aborted.contains(m))
            }
        }
    }
}

/// Short rung names used in metric names and the reference file.
pub fn rung_name(m: Method) -> &'static str {
    match m {
        Method::RandomPatterns => "rp",
        Method::Symbolic01X => "01x",
        Method::Local => "loc",
        Method::OutputExact => "oe",
        Method::InputExact => "ie",
        _ => "other",
    }
}

/// Maps a rung name or a paper label (`r.p.`, `0,1,X`, …) to its method.
pub fn parse_rung(name: &str) -> Option<Method> {
    LADDER.into_iter().find(|&m| rung_name(m) == name || m.label() == name)
}

/// The parsed reference list of one workload.
pub struct Reference {
    truths: HashMap<String, Truth>,
}

impl Reference {
    /// Loads the entries of `workload` from the compiled-in list.
    pub fn load(workload: Workload) -> Result<Reference, String> {
        let mut truths = HashMap::new();
        for (n, line) in include_str!("../reference.txt").lines().enumerate() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let fields: Vec<&str> = line.split_whitespace().collect();
            let truth = match fields.as_slice() {
                [_, _, "none"] => Truth::NoError,
                [_, _, "error", rung] => Truth::Error(
                    parse_rung(rung)
                        .ok_or_else(|| format!("reference line {}: bad rung", n + 1))?,
                ),
                _ => return Err(format!("reference line {}: malformed", n + 1)),
            };
            if fields[0] == workload.name() {
                truths.insert(fields[1].to_string(), truth);
            }
        }
        Ok(Reference { truths })
    }

    pub fn truth(&self, id: &str) -> Option<Truth> {
        self.truths.get(id).copied()
    }
}

/// Prints the reference lines of `workload`'s pool: each instance runs
/// the ladder with no step limit and with dynamic reordering off (the
/// variable order never changes a verdict, and without sifting every
/// instance finishes in seconds).
///
/// For a single box that reads every primary input, the input-exact rung
/// is equivalent to the output-exact one (a box that sees the whole input
/// can choose its outputs per input), so the ladder stops at `oe` there:
/// that is where the unbounded input-exact rung spends minutes.
pub fn generate(workload: Workload) -> Result<(), String> {
    let settings = CheckSettings { dynamic_reordering: false, ..CheckSettings::default() };
    let jobs = crate::host_parallelism();
    for inst in pool::pool(workload) {
        let (spec, partial) = parse_instance(&inst)?;
        let all_inputs = partial.boxes().len() == 1 && {
            let mut pins = partial.boxes()[0].inputs.clone();
            pins.sort_unstable();
            let mut inputs = partial.circuit().inputs().to_vec();
            inputs.sort_unstable();
            pins == inputs
        };
        let mut checker = ParallelChecker::new(settings.clone(), jobs);
        if all_inputs {
            checker.stages.retain(|&m| m != Method::InputExact);
        }
        let pre = bbec_core::preprocess::preprocess(&spec, &partial, &settings)
            .map_err(|e| format!("{}: {e}", inst.id))?;
        let report =
            checker.run(&pre.spec, &pre.partial).map_err(|e| format!("{}: {e}", inst.id))?;
        if !report.budget_exceeded().is_empty() {
            return Err(format!("{}: the reference run exceeded a budget", inst.id));
        }
        let truth = match report.verdict() {
            Verdict::ErrorFound => {
                format!(
                    "error {}",
                    rung_name(report.deciding_method().expect("errors have a rung"))
                )
            }
            Verdict::NoErrorFound => "none".to_string(),
        };
        println!("{} {} {truth}", workload.name(), inst.id);
    }
    Ok(())
}
