//! Check outcomes, resource accounting and configuration.

use std::error::Error;
use std::fmt;
use std::time::Duration;

/// The checking methods of the paper (plus the SAT future-work arm).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Method {
    /// Non-symbolic 0,1,X simulation with random patterns (column `r.p.`).
    RandomPatterns,
    /// Symbolic 0,1,X simulation (Section 2.1).
    Symbolic01X,
    /// Symbolic Z_i simulation with the local check (Lemma 2.1).
    Local,
    /// The output-exact check (Lemma 2.2).
    OutputExact,
    /// The input-exact check (equation (1)).
    InputExact,
    /// Brute-force decomposition check (Theorem 2.1, tiny boxes only).
    ExactDecomposition,
    /// SAT-based dual-rail 0,1,X check.
    SatDualRail,
    /// SAT/CEGAR-based output-exact check.
    SatOutputExact,
}

impl Method {
    /// Short column label as used in the paper's tables.
    pub fn label(self) -> &'static str {
        match self {
            Method::RandomPatterns => "r.p.",
            Method::Symbolic01X => "0,1,X",
            Method::Local => "loc.",
            Method::OutputExact => "oe",
            Method::InputExact => "ie",
            Method::ExactDecomposition => "exact",
            Method::SatDualRail => "sat-01x",
            Method::SatOutputExact => "sat-oe",
        }
    }
}

impl fmt::Display for Method {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// The answer of a check.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// The partial implementation cannot be extended to a correct design.
    ErrorFound,
    /// No error found at this check's accuracy (only the input-exact check
    /// with a single black box turns this into "definitely completable").
    NoErrorFound,
}

impl Verdict {
    /// The verdict's name in ledger records and service responses.
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::ErrorFound => "error_found",
            Verdict::NoErrorFound => "no_error_found",
        }
    }
}

/// A distinguishing primary-input assignment, when a check produces one.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Counterexample {
    /// Primary input values in declaration order.
    pub inputs: Vec<bool>,
    /// The output observed to be wrong, if attributable to a single output.
    pub output: Option<usize>,
}

/// Resource usage of one check, in the units of the paper's tables, plus
/// the resource governor's per-check operation telemetry.
///
/// Inside a [`crate::checks::CheckLadder`] the Z_i rungs share one Z_i
/// build. Every field but `duration` still costs each rung as if it had
/// run alone, build included, so it equals the free function's. `duration`
/// is the rung's own wall-clock time: the build counts only in the rung
/// that ran it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ResourceStats {
    /// BDD nodes representing the partial implementation (columns 10–13).
    pub impl_nodes: usize,
    /// Additional peak BDD nodes during the check itself (columns 14–16).
    pub peak_check_nodes: usize,
    /// Wall-clock time of the check.
    pub duration: Duration,
    /// Cache-miss recursion steps of the BDD operator core.
    pub apply_steps: u64,
    /// Computed-table hits during the check.
    pub cache_hits: u64,
    /// Computed-table misses during the check.
    pub cache_misses: u64,
    /// Garbage-collection passes during the check.
    pub gc_passes: u64,
    /// Dynamic-reordering passes during the check.
    pub reorder_passes: u64,
    /// Simulation patterns evaluated (random-pattern rung: lanes swept by
    /// the bit-parallel engine, counted up to the erring lane on an error).
    pub patterns: u64,
}

impl ResourceStats {
    /// Copies the governor's per-window counters into this record.
    pub fn absorb_telemetry(&mut self, t: &bbec_bdd::OpTelemetry) {
        self.apply_steps = t.apply_steps;
        self.cache_hits = t.cache_hits;
        self.cache_misses = t.cache_misses;
        self.gc_passes = t.gc_passes;
        self.reorder_passes = t.reorder_passes;
    }
}

/// The complete result of one check invocation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckOutcome {
    pub method: Method,
    pub verdict: Verdict,
    /// A witness input vector, when the method can produce one.
    pub counterexample: Option<Counterexample>,
    pub stats: ResourceStats,
}

impl CheckOutcome {
    /// Whether an error was found.
    pub fn is_error(&self) -> bool {
        self.verdict == Verdict::ErrorFound
    }
}

/// Tunables shared by the BDD-based checks.
#[derive(Debug, Clone)]
pub struct CheckSettings {
    /// Enable dynamic (sifting) reordering, as the paper's experiments do.
    pub dynamic_reordering: bool,
    /// Live-node threshold that first triggers automatic reordering.
    pub reorder_threshold: usize,
    /// Patterns for [`crate::checks::random_patterns`] (paper: 5000).
    pub random_patterns: usize,
    /// Seed for the random-pattern check.
    pub seed: u64,
    /// Abort a BDD-based check with [`CheckError::BudgetExceeded`] once its
    /// manager holds this many live nodes (`None` = unbounded).
    pub node_limit: Option<usize>,
    /// Abort a BDD-based check once it has charged this many apply steps
    /// (`None` = unbounded). Steps are a machine-independent cost unit.
    pub step_limit: Option<u64>,
    /// Abort a BDD-based check after this much wall-clock time
    /// (`None` = unbounded). Each check (ladder rung) gets a fresh window
    /// of this length; to bound a whole run use [`CheckSettings::deadline`].
    /// A Z_i check's window includes its Z_i build; a ladder rung handed a
    /// build shared with earlier rungs gets the rest of the window as if it
    /// had just built it itself.
    pub time_limit: Option<Duration>,
    /// Absolute wall-clock deadline for the whole run (`None` = unbounded).
    /// Unlike `time_limit`, this is *not* re-armed per check window, so it
    /// is honored globally — the parallel engine stamps one deadline into
    /// every shard worker's settings. When both are set, whichever falls
    /// earlier fires.
    pub deadline: Option<std::time::Instant>,
    /// Run the structural-sweeping preprocessor ([`crate::preprocess`])
    /// on the spec/implementation pair before checking. Verdict-invariant
    /// by construction (the sweep preserves ternary functions at every
    /// kept point); off by default so callers opt in per entry point. The
    /// CLI leaves it false and sweeps up front itself (unless `--no-sweep`
    /// is given), so every method benefits; a `bbec serve` request sets it
    /// with `"sweep":true`.
    pub sweep: bool,
    /// Computed-table (apply/ITE cache) capacity exponent: the cache holds
    /// at most `2^cache_bits` entries and is evicted wholesale when full.
    /// Clamped to [`bbec_bdd::MIN_CACHE_BITS`]`..=`[`bbec_bdd::MAX_CACHE_BITS`].
    pub cache_bits: u32,
    /// Observability sink shared by every check run with these settings:
    /// the symbolic context hands a clone to its BDD manager, the ladder
    /// opens one span per rung, and the per-output checks nest inside.
    /// Disabled by default (a no-op costing one branch per call site).
    pub tracer: bbec_trace::Tracer,
    /// Live heartbeat engine: the symbolic context hands a clone to its
    /// BDD manager (ticked from the amortised budget pulse), the ladder
    /// labels the current rung as the task, and the parallel engine scopes
    /// a per-shard region for each worker. Disabled by default.
    pub progress: bbec_trace::Progress,
    /// Warm [`bbec_bdd::ManagerPool`] the symbolic context draws its BDD
    /// manager from (and recycles it to on drop). `None` — the default —
    /// constructs a fresh manager per context. Purely a performance knob
    /// for long-lived processes: recycled managers behave bit-identically
    /// to fresh ones, so like the tracer this does not participate in
    /// [`crate::ledger::settings_key`].
    pub pool: Option<bbec_bdd::ManagerPool>,
}

impl Default for CheckSettings {
    fn default() -> Self {
        CheckSettings {
            dynamic_reordering: true,
            reorder_threshold: 65_536,
            random_patterns: 5_000,
            seed: 0xB1AC_B0C5,
            node_limit: Some(4_000_000),
            step_limit: None,
            time_limit: None,
            deadline: None,
            sweep: false,
            cache_bits: bbec_bdd::DEFAULT_CACHE_BITS,
            tracer: bbec_trace::Tracer::disabled(),
            progress: bbec_trace::Progress::disabled(),
            pool: None,
        }
    }
}

/// Details of an aborted check: what fired, and what the check had spent
/// when it fired.
#[derive(Debug, Clone, Default)]
pub struct BudgetAbort {
    /// Human-readable description of the exceeded limit.
    pub reason: String,
    /// Resources consumed up to the abort, when the check recorded them.
    pub stats: Option<ResourceStats>,
}

impl BudgetAbort {
    /// An abort with a reason and no recorded statistics.
    pub fn new(reason: impl Into<String>) -> Self {
        BudgetAbort { reason: reason.into(), stats: None }
    }

    /// Attaches partial resource statistics.
    pub fn with_stats(mut self, stats: ResourceStats) -> Self {
        self.stats = Some(stats);
        self
    }
}

impl fmt::Display for BudgetAbort {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.reason)
    }
}

/// Errors raised by the checks.
#[derive(Debug)]
pub enum CheckError {
    /// Specification and implementation interfaces differ.
    InterfaceMismatch { detail: String },
    /// An underlying netlist operation failed.
    Netlist(bbec_netlist::NetlistError),
    /// A partial-circuit structural invariant is violated.
    InvalidPartial(String),
    /// A resource budget was exceeded; the session/manager stays usable.
    BudgetExceeded(BudgetAbort),
    /// A check produced a counterexample that failed concrete replay
    /// validation ([`crate::cex::validate_counterexample`]) — an internal
    /// soundness bug in the reporting engine, never a property of the
    /// checked design.
    CounterexampleRejected {
        /// The check that produced the refuted witness.
        method: Method,
        /// Why replay refuted it.
        detail: String,
    },
}

impl fmt::Display for CheckError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckError::InterfaceMismatch { detail } => {
                write!(f, "interface mismatch: {detail}")
            }
            CheckError::Netlist(e) => write!(f, "netlist error: {e}"),
            CheckError::InvalidPartial(msg) => write!(f, "invalid partial circuit: {msg}"),
            CheckError::BudgetExceeded(abort) => write!(f, "budget exceeded: {abort}"),
            CheckError::CounterexampleRejected { method, detail } => {
                write!(f, "{method} produced a counterexample that fails replay: {detail}")
            }
        }
    }
}

impl Error for CheckError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            CheckError::Netlist(e) => Some(e),
            _ => None,
        }
    }
}

impl From<bbec_netlist::NetlistError> for CheckError {
    fn from(e: bbec_netlist::NetlistError) -> Self {
        CheckError::Netlist(e)
    }
}

impl From<bbec_bdd::BudgetExceeded> for CheckError {
    fn from(e: bbec_bdd::BudgetExceeded) -> Self {
        CheckError::BudgetExceeded(BudgetAbort::new(e.to_string()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_match_paper_columns() {
        assert_eq!(Method::RandomPatterns.label(), "r.p.");
        assert_eq!(Method::Symbolic01X.label(), "0,1,X");
        assert_eq!(Method::Local.label(), "loc.");
        assert_eq!(Method::OutputExact.label(), "oe");
        assert_eq!(Method::InputExact.label(), "ie");
    }

    #[test]
    fn default_settings_mirror_paper() {
        let s = CheckSettings::default();
        assert!(s.dynamic_reordering);
        assert_eq!(s.random_patterns, 5_000);
    }

    #[test]
    fn error_display_is_informative() {
        let e = CheckError::InvalidPartial("box output driven".to_string());
        assert!(e.to_string().contains("box output driven"));
    }
}
