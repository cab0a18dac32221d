//! The node store: per-level unique tables, reference counting and garbage
//! collection.

use crate::budget::{Budget, BudgetExceeded};
use crate::cache::OpCache;
use crate::hasher::pair_hash;
use bbec_trace::{FlightOp, FlightRecorder, OpTelemetry, Progress, Tracer};

/// A handle to a BDD node owned by a [`BddManager`].
///
/// A handle is a **tagged edge**: bits `[31:1]` are the node index inside
/// the manager and bit `0` is the complement flag, so `f` and `¬f` share
/// one node and negation is a single bit flip. Copying a handle is free
/// and does not affect reference counts. A handle obtained from a manager
/// stays valid until the node is reclaimed by garbage collection; protect
/// handles you keep across [`BddManager::collect_garbage`] or
/// [`BddManager::reorder`] with [`BddManager::protect`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Bdd(pub(crate) u32);

impl Bdd {
    /// The raw tagged-edge bits (node index `<< 1 |` complement flag),
    /// mainly useful for debugging.
    pub fn index(self) -> u32 {
        self.0
    }

    /// Returns `true` if this handle is one of the two constants.
    pub fn is_const(self) -> bool {
        self.0 <= 1
    }

    /// The node index this edge points at (complement bit stripped).
    #[inline]
    pub(crate) fn node_index(self) -> u32 {
        self.0 >> 1
    }

    /// Whether this edge carries the complement tag.
    #[inline]
    pub(crate) fn is_complemented(self) -> bool {
        self.0 & 1 == 1
    }
}

/// Tagged edge of the constant `true`: the terminal node, uncomplemented.
pub(crate) const TRUE: u32 = 0;
/// Tagged edge of the constant `false`: the terminal node, complemented.
pub(crate) const FALSE: u32 = 1;

/// A BDD variable, identified independently of its current level.
///
/// Variables keep their identity when the manager reorders levels; use
/// [`BddManager::level_of`] to find where a variable currently sits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct BddVar(pub(crate) u32);

impl BddVar {
    /// The creation index of this variable (0 for the first `new_var`).
    pub fn index(self) -> u32 {
        self.0
    }
}

pub(crate) const NIL: u32 = u32::MAX;
pub(crate) const TERMINAL_LEVEL: u32 = u32::MAX;
/// Reference count value treated as "pinned forever" (constants, projections).
const STICKY_REFS: u32 = u32::MAX / 2;

/// One stored node. `lo`/`hi` are **tagged edges** ([`Bdd`] bit layout);
/// the canonical form keeps `hi` uncomplemented — a complemented then-edge
/// is normalised away by `mk` into the complement bit of the parent edge.
/// `next` chains node *indices* (untagged) through the unique table.
#[derive(Debug, Clone)]
pub(crate) struct Node {
    pub(crate) level: u32,
    pub(crate) lo: u32,
    pub(crate) hi: u32,
    pub(crate) refs: u32,
    /// Next node in the unique-table bucket chain, or `NIL`.
    pub(crate) next: u32,
}

/// One unique table per level, chained through `Node::next`.
#[derive(Debug, Default, Clone)]
pub(crate) struct SubTable {
    pub(crate) buckets: Vec<u32>,
    pub(crate) count: usize,
}

impl SubTable {
    fn new() -> Self {
        SubTable { buckets: vec![NIL; 16], count: 0 }
    }

    #[inline]
    fn bucket_of(&self, lo: u32, hi: u32) -> usize {
        (pair_hash(lo, hi) as usize) & (self.buckets.len() - 1)
    }
}

/// Settings steering automatic sifting inside [`BddManager::maybe_reorder`].
#[derive(Debug, Clone)]
pub struct ReorderSettings {
    /// Reordering is considered once the live node count exceeds this value.
    pub threshold: usize,
    /// After a reordering pass the threshold is set to `live * growth`.
    pub growth: f64,
    /// A variable stops sifting in one direction once the total size exceeds
    /// `max_growth` times the size at the start of its sift.
    pub max_growth: f64,
    /// Whether `maybe_reorder` does anything at all.
    pub enabled: bool,
}

impl Default for ReorderSettings {
    fn default() -> Self {
        ReorderSettings { threshold: 4096, growth: 2.0, max_growth: 1.2, enabled: true }
    }
}

/// Usage statistics of a manager, in the units the paper reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct BddStats {
    /// Currently live (externally or internally referenced) nodes, excluding
    /// the two constants.
    pub live_nodes: usize,
    /// High-water mark of `live_nodes` since creation or the last
    /// [`BddManager::reset_peak`].
    pub peak_live_nodes: usize,
    /// Total nodes ever allocated (excluding reuse from the free list).
    pub allocated_nodes: usize,
    /// Number of completed reordering passes.
    pub reorderings: usize,
    /// Nodes reclaimed by garbage collection so far.
    pub collected_nodes: usize,
}

/// Owner of all BDD nodes; every operation is a method on the manager.
///
/// # Example
///
/// ```rust
/// use bbec_bdd::BddManager;
///
/// let mut m = BddManager::new();
/// let v = m.new_var();
/// let f = m.var(v);
/// let g = m.not(f);
/// let h = m.or(f, g);           // x ∨ ¬x ≡ 1
/// assert_eq!(h, m.constant(true));
/// ```
#[derive(Debug)]
pub struct BddManager {
    pub(crate) nodes: Vec<Node>,
    pub(crate) free: Vec<u32>,
    pub(crate) tables: Vec<SubTable>,
    pub(crate) level_to_var: Vec<u32>,
    pub(crate) var_to_level: Vec<u32>,
    /// Projection node for each variable (always protected).
    pub(crate) projections: Vec<u32>,
    pub(crate) cache: OpCache,
    pub(crate) dead: usize,
    live: usize,
    peak: usize,
    allocated: usize,
    reorderings: usize,
    collected: usize,
    pub(crate) reorder_settings: ReorderSettings,
    /// Resource caps enforced by the budgeted `try_*` operations.
    budget: Option<Budget>,
    /// Cumulative apply steps (cache-miss recursion steps) ever charged.
    steps: u64,
    /// `steps` value when the current budget window was armed.
    window_start: u64,
    /// Completed garbage-collection passes.
    gc_passes: u64,
    /// Observability sink; disabled (free) by default.
    pub(crate) tracer: Tracer,
    /// Heartbeat engine, ticked from the amortised pulse in
    /// [`BddManager::charge_step`]; disabled (free) by default.
    progress: Progress,
    /// Postmortem ring of recent operations, armed alongside the tracer.
    flight: FlightRecorder,
    /// Cache evictions already attributed to a flight `apply_window` op.
    flight_evictions: u64,
}

impl Default for BddManager {
    fn default() -> Self {
        Self::new()
    }
}

impl BddManager {
    /// Creates an empty manager containing only the terminal node (both
    /// constants are edges to it: `true` plain, `false` complemented).
    pub fn new() -> Self {
        let terminal = Node { level: TERMINAL_LEVEL, lo: 0, hi: 0, refs: STICKY_REFS, next: NIL };
        BddManager {
            nodes: vec![terminal],
            free: Vec::new(),
            tables: Vec::new(),
            level_to_var: Vec::new(),
            var_to_level: Vec::new(),
            projections: Vec::new(),
            cache: OpCache::new(),
            dead: 0,
            live: 0,
            peak: 0,
            allocated: 0,
            reorderings: 0,
            collected: 0,
            reorder_settings: ReorderSettings { enabled: false, ..ReorderSettings::default() },
            budget: None,
            steps: 0,
            window_start: 0,
            gc_passes: 0,
            tracer: Tracer::disabled(),
            progress: Progress::disabled(),
            flight: FlightRecorder::disabled(),
            flight_evictions: 0,
        }
    }

    /// Installs the observability sink. Pass an enabled [`Tracer`] to
    /// collect spans (GC, reordering), histograms (apply recursion depth,
    /// unique-table probe lengths) and per-operation cache counters; the
    /// default disabled tracer costs a single branch on the hot paths.
    ///
    /// An enabled tracer also arms the flight recorder (a bounded ring of
    /// recent operations dumped on aborts, see
    /// [`BddManager::dump_flight_recorder`]); a disabled tracer disarms it.
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.flight = if tracer.enabled() {
            FlightRecorder::with_capacity(bbec_trace::DEFAULT_FLIGHT_CAPACITY)
        } else {
            FlightRecorder::disabled()
        };
        self.flight_evictions = self.cache.evictions();
        self.tracer = tracer;
    }

    /// Installs the heartbeat engine. An enabled [`Progress`] is ticked
    /// from the same amortised point as the deadline check (every 1024
    /// apply steps) with this manager's live node count and the fraction
    /// of the current budget window consumed; the default disabled engine
    /// costs one branch per pulse, nothing per step.
    pub fn set_progress(&mut self, progress: Progress) {
        self.progress = progress;
    }

    /// The recent-operation ring armed by [`BddManager::set_tracer`].
    pub fn flight_recorder(&self) -> &FlightRecorder {
        &self.flight
    }

    /// Dumps the flight recorder's retained tail into the tracer (as
    /// `flight.dump` + `flight.op` record events). Call on the abort path
    /// — budget exceeded, deadline expiry — so the trace ships a
    /// postmortem of the last operations; a panic unwinding through the
    /// manager dumps automatically (see its `Drop`). No-op when tracer or
    /// recorder is disabled.
    pub fn dump_flight_recorder(&self, reason: &str) {
        self.flight.dump(&self.tracer, reason);
    }

    /// The currently installed observability sink.
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// Per-operation computed-table `(name, hits, misses)` rows, for
    /// cache-effectiveness telemetry per operator kind.
    pub fn cache_stats_by_op(&self) -> Vec<(&'static str, u64, u64)> {
        self.cache.stats_by_op().to_vec()
    }

    /// Rebounds the computed table to `2^bits` entries (clamped to
    /// [`crate::MIN_CACHE_BITS`]`..=`[`crate::MAX_CACHE_BITS`]). A full
    /// table is evicted wholesale on the next insert; correctness is
    /// unaffected, only recomputation cost.
    pub fn set_cache_capacity_bits(&mut self, bits: u32) {
        self.cache.set_capacity_bits(bits);
    }

    /// The current computed-table capacity exponent.
    pub fn cache_capacity_bits(&self) -> u32 {
        self.cache.capacity_bits()
    }

    /// Number of forced whole-table evictions caused by the capacity bound
    /// (distinct from the clears every GC/reorder pass performs anyway).
    pub fn cache_evictions(&self) -> u64 {
        self.cache.evictions()
    }

    /// Installs (or clears) the resource budget and starts a fresh
    /// step-accounting window.
    ///
    /// The budget is enforced only by the fallible `try_*` operations; the
    /// plain infallible operations, variable creation and reordering run
    /// unbudgeted. Hitting a cap aborts the in-flight operation with a
    /// [`BudgetExceeded`] value and leaves the manager fully usable: every
    /// protected node survives, and the aborted operation's intermediates
    /// are dead nodes reclaimed by the next [`BddManager::collect_garbage`].
    pub fn set_budget(&mut self, budget: Option<Budget>) {
        self.budget = budget;
        self.window_start = self.steps;
    }

    /// Moves the wall-clock deadline of the installed budget, keeping its
    /// step window. Does nothing when no budget is installed.
    pub fn set_deadline(&mut self, deadline: Option<std::time::Instant>) {
        if let Some(budget) = &mut self.budget {
            budget.deadline = deadline;
        }
    }

    /// The currently installed budget, if any.
    pub fn budget(&self) -> Option<Budget> {
        self.budget
    }

    /// Cumulative operation counters for telemetry; diff two snapshots with
    /// [`OpTelemetry::since`] to cost one window of work.
    pub fn telemetry(&self) -> OpTelemetry {
        OpTelemetry {
            apply_steps: self.steps,
            cache_hits: self.cache.hits(),
            cache_misses: self.cache.misses(),
            gc_passes: self.gc_passes,
            reorder_passes: self.reorderings as u64,
            peak_live_nodes: self.peak,
        }
    }

    /// Charges one apply step against the current budget window.
    #[inline]
    pub(crate) fn charge_step(&mut self) -> Result<(), BudgetExceeded> {
        self.steps += 1;
        if self.steps & 0x3FF == 0 {
            // Amortised slow path: clock read for the deadline, heartbeat
            // tick, flight-recorder window — none belong on the per-step
            // path, and all run fine without a budget armed.
            self.pulse()?;
        }
        let Some(budget) = &self.budget else { return Ok(()) };
        if let Some(limit) = budget.max_steps {
            if self.steps - self.window_start > limit {
                return Err(BudgetExceeded::Steps { limit });
            }
        }
        Ok(())
    }

    /// The every-1024-steps slow path of [`BddManager::charge_step`].
    #[cold]
    fn pulse(&mut self) -> Result<(), BudgetExceeded> {
        if self.flight.enabled() {
            let evictions = self.cache.evictions();
            self.flight.record(FlightOp {
                step: self.steps,
                kind: "apply_window",
                a: self.live as u64,
                b: evictions - self.flight_evictions,
            });
            self.flight_evictions = evictions;
        }
        if self.progress.enabled() {
            self.progress.tick(1024, self.live as u64, self.budget_fraction());
        }
        if let Some(deadline) = self.budget.as_ref().and_then(|b| b.deadline) {
            if std::time::Instant::now() >= deadline {
                return Err(BudgetExceeded::Deadline);
            }
        }
        Ok(())
    }

    /// Fraction of the current budget window consumed: the furthest-along
    /// of the step and live-node budgets, clamped to 1. `None` without an
    /// armed budget (or one with no step/node caps).
    pub fn budget_fraction(&self) -> Option<f64> {
        let budget = self.budget.as_ref()?;
        let mut frac: Option<f64> = None;
        if let Some(limit) = budget.max_steps.filter(|&l| l > 0) {
            frac = Some((self.steps - self.window_start) as f64 / limit as f64);
        }
        if let Some(limit) = budget.max_live_nodes.filter(|&l| l > 0) {
            let f = self.live as f64 / limit as f64;
            frac = Some(frac.map_or(f, |g| g.max(f)));
        }
        frac.map(|f| f.min(1.0))
    }

    /// Runs `op` with the budget temporarily removed; the infallible
    /// operation wrappers are built on this.
    pub(crate) fn run_unbudgeted<T>(
        &mut self,
        op: impl FnOnce(&mut Self) -> Result<T, BudgetExceeded>,
    ) -> T {
        let saved = self.budget.take();
        let result = op(self);
        self.budget = saved;
        result.expect("BDD operation without a budget cannot be aborted")
    }

    /// Creates a manager with automatic reordering enabled, mirroring the
    /// paper's "dynamic reordering was activated during all experiments".
    pub fn with_reordering(settings: ReorderSettings) -> Self {
        let mut m = Self::new();
        m.reorder_settings = settings;
        m
    }

    /// Replaces the automatic-reordering settings. Used by warm-pool
    /// consumers to reconfigure a recycled manager ([`BddManager::reset`]
    /// restores the disabled default of [`BddManager::new`]).
    pub fn set_reorder_settings(&mut self, settings: ReorderSettings) {
        self.reorder_settings = settings;
    }

    /// Restores the manager to the state of a freshly constructed
    /// [`BddManager::new`] while keeping the big allocations warm: the node
    /// arena's capacity and the computed table's hash-map allocation
    /// survive, so a recycled manager skips the growth/rehash ramp-up of a
    /// cold one. Every variable, node, statistic, budget and observability
    /// sink is dropped — behaviour after a reset is bit-identical to a
    /// fresh manager's.
    pub fn reset(&mut self) {
        self.nodes.truncate(1);
        self.nodes[0] = Node { level: TERMINAL_LEVEL, lo: 0, hi: 0, refs: STICKY_REFS, next: NIL };
        self.free.clear();
        self.tables.clear();
        self.level_to_var.clear();
        self.var_to_level.clear();
        self.projections.clear();
        self.cache.reset();
        self.dead = 0;
        self.live = 0;
        self.peak = 0;
        self.allocated = 0;
        self.reorderings = 0;
        self.collected = 0;
        self.reorder_settings = ReorderSettings { enabled: false, ..ReorderSettings::default() };
        self.budget = None;
        self.steps = 0;
        self.window_start = 0;
        self.gc_passes = 0;
        self.tracer = Tracer::disabled();
        self.progress = Progress::disabled();
        self.flight = FlightRecorder::disabled();
        self.flight_evictions = 0;
    }

    /// Returns an independent manager in exactly this manager's state, so
    /// that operations on either side behave as they would on a manager
    /// that had run the same history itself.
    ///
    /// The fork copies the node arena, the unique tables, the variable
    /// order, the reordering settings (including the grown threshold), the
    /// budget and its step window, every counter and the peak, and the
    /// observability sinks. Every [`Bdd`] handle of this manager denotes
    /// the same function in the fork. The computed table is not copied:
    /// its entries move into a read-only layer that both sides share, and
    /// each side inserts into a private map of its own (see
    /// `OpCache::fork`), so a fork costs one arena copy.
    pub fn fork(&mut self) -> BddManager {
        BddManager {
            // Same capacity as the parent's arena: a fork grows right away,
            // and an exact-size clone would reallocate (old and new arena
            // both resident) on its first allocation.
            nodes: {
                let mut nodes = Vec::with_capacity(self.nodes.capacity());
                nodes.extend_from_slice(&self.nodes);
                nodes
            },
            free: self.free.clone(),
            tables: self.tables.clone(),
            level_to_var: self.level_to_var.clone(),
            var_to_level: self.var_to_level.clone(),
            projections: self.projections.clone(),
            cache: self.cache.fork(),
            dead: self.dead,
            live: self.live,
            peak: self.peak,
            allocated: self.allocated,
            reorderings: self.reorderings,
            collected: self.collected,
            reorder_settings: self.reorder_settings.clone(),
            budget: self.budget,
            steps: self.steps,
            window_start: self.window_start,
            gc_passes: self.gc_passes,
            tracer: self.tracer.clone(),
            progress: self.progress.clone(),
            flight: self.flight.clone(),
            flight_evictions: self.flight_evictions,
        }
    }

    /// The constant `true` or `false` function.
    pub fn constant(&self, value: bool) -> Bdd {
        Bdd(if value { TRUE } else { FALSE })
    }

    /// Number of variables created so far.
    pub fn var_count(&self) -> usize {
        self.var_to_level.len()
    }

    /// Creates a fresh variable at the bottom of the current order.
    pub fn new_var(&mut self) -> BddVar {
        let var = self.var_to_level.len() as u32;
        let level = self.level_to_var.len() as u32;
        self.var_to_level.push(level);
        self.level_to_var.push(var);
        self.tables.push(SubTable::new());
        let node = self.mk(level, FALSE, TRUE);
        // Projections are pinned so `var()` handles never dangle. The fresh
        // node was counted as dead by `mk`; un-count it.
        self.nodes[node.node_index() as usize].refs = STICKY_REFS;
        self.dead -= 1;
        self.projections.push(node.0);
        BddVar(var)
    }

    /// Creates `n` fresh variables.
    pub fn new_vars(&mut self, n: usize) -> Vec<BddVar> {
        (0..n).map(|_| self.new_var()).collect()
    }

    /// The projection function of `var` (the BDD for the literal `var`).
    ///
    /// # Panics
    ///
    /// Panics if `var` does not belong to this manager.
    pub fn var(&self, var: BddVar) -> Bdd {
        Bdd(self.projections[var.0 as usize])
    }

    /// The negative literal `¬var` — built lazily, so it needs `&mut self`.
    pub fn nvar(&mut self, var: BddVar) -> Bdd {
        let v = self.var(var);
        self.not(v)
    }

    /// Current level of a variable (0 is the topmost level).
    pub fn level_of(&self, var: BddVar) -> u32 {
        self.var_to_level[var.0 as usize]
    }

    /// Variable currently sitting at `level`.
    pub fn var_at_level(&self, level: u32) -> BddVar {
        BddVar(self.level_to_var[level as usize])
    }

    /// The variable labelling the root node of `f`.
    ///
    /// Returns `None` for the constants.
    pub fn root_var(&self, f: Bdd) -> Option<BddVar> {
        let level = self.nodes[f.node_index() as usize].level;
        if level == TERMINAL_LEVEL {
            None
        } else {
            Some(BddVar(self.level_to_var[level as usize]))
        }
    }

    /// The `else` (low, `var = 0`) cofactor of the root node of `f`.
    ///
    /// # Panics
    ///
    /// Panics if `f` is a constant.
    pub fn low(&self, f: Bdd) -> Bdd {
        assert!(!f.is_const(), "constants have no cofactors");
        // The root's complement tag distributes onto both child edges.
        Bdd(self.nodes[f.node_index() as usize].lo ^ (f.0 & 1))
    }

    /// The `then` (high, `var = 1`) cofactor of the root node of `f`.
    ///
    /// # Panics
    ///
    /// Panics if `f` is a constant.
    pub fn high(&self, f: Bdd) -> Bdd {
        assert!(!f.is_const(), "constants have no cofactors");
        Bdd(self.nodes[f.node_index() as usize].hi ^ (f.0 & 1))
    }

    /// Level of the node a tagged edge points at.
    #[inline]
    pub(crate) fn level(&self, edge: u32) -> u32 {
        self.nodes[(edge >> 1) as usize].level
    }

    /// Finds or creates the node `(level, lo, hi)`, infallibly.
    ///
    /// This is the unbudgeted path used by variable creation, reordering
    /// and I/O — contexts where an abort mid-mutation would be unsound.
    /// The budgeted operator core goes through [`BddManager::try_mk`].
    pub(crate) fn mk(&mut self, level: u32, lo: u32, hi: u32) -> Bdd {
        match self.mk_checked(level, lo, hi, false) {
            Ok(node) => node,
            Err(_) => unreachable!("unbudgeted mk cannot be aborted"),
        }
    }

    /// Budgeted variant of [`BddManager::mk`]: fails with
    /// [`BudgetExceeded::Nodes`] if allocating a fresh node would grow the
    /// manager past [`Budget::max_live_nodes`].
    pub(crate) fn try_mk(&mut self, level: u32, lo: u32, hi: u32) -> Result<Bdd, BudgetExceeded> {
        self.mk_checked(level, lo, hi, true)
    }

    /// Finds or creates the node for the edge triple `(level, lo, hi)`.
    ///
    /// Maintains the three canonicity invariants: no node with equal
    /// children, no two nodes with the same `(level, lo, hi)` triple, and
    /// no complemented then-edge — a complement tag on `hi` is pushed onto
    /// both children and returned on the result edge instead, so `f` and
    /// `¬f` always resolve to the same stored node.
    fn mk_checked(
        &mut self,
        level: u32,
        lo: u32,
        hi: u32,
        budgeted: bool,
    ) -> Result<Bdd, BudgetExceeded> {
        if lo == hi {
            return Ok(Bdd(lo));
        }
        // Canonical form: complement tags live on incoming edges only.
        let flip = hi & 1;
        let (lo, hi) = (lo ^ flip, hi ^ flip);
        debug_assert!(self.level(lo) > level && self.level(hi) > level, "children must be below");
        let table = &self.tables[level as usize];
        let bucket = table.bucket_of(lo, hi);
        let mut cursor = table.buckets[bucket];
        let mut probe: u64 = 0;
        while cursor != NIL {
            let n = &self.nodes[cursor as usize];
            probe += 1;
            if n.lo == lo && n.hi == hi {
                // A dead hit is implicitly resurrected: its children were
                // never decremented, so nothing needs fixing up here.
                if self.tracer.enabled() {
                    self.tracer.record("bdd.unique.probe", probe);
                }
                return Ok(Bdd((cursor << 1) | flip));
            }
            cursor = n.next;
        }
        if self.tracer.enabled() {
            self.tracer.record("bdd.unique.probe", probe);
        }
        // Allocate. (Garbage collection mid-operation would free the
        // unprotected intermediates held on the recursion stack, so the
        // limit can only abort, never rescue.)
        if budgeted {
            if let Some(limit) = self.budget.as_ref().and_then(|b| b.max_live_nodes) {
                if self.live >= limit {
                    return Err(BudgetExceeded::Nodes { limit });
                }
            }
        }
        let idx = if let Some(idx) = self.free.pop() {
            self.nodes[idx as usize] = Node { level, lo, hi, refs: 0, next: NIL };
            idx
        } else {
            let idx = self.nodes.len() as u32;
            self.nodes.push(Node { level, lo, hi, refs: 0, next: NIL });
            self.allocated += 1;
            idx
        };
        self.inc_node(lo);
        self.inc_node(hi);
        self.live += 1;
        // Fresh nodes start unreferenced; they count as dead until a parent
        // or an external protection claims them.
        self.dead += 1;
        if self.live > self.peak {
            self.peak = self.live;
        }
        self.table_insert(level, idx);
        Ok(Bdd((idx << 1) | flip))
    }

    pub(crate) fn table_insert(&mut self, level: u32, idx: u32) {
        if self.tables[level as usize].count + 1 > self.tables[level as usize].buckets.len() {
            // Grow and rehash the chains.
            let new_len = self.tables[level as usize].buckets.len() * 2;
            let old =
                std::mem::replace(&mut self.tables[level as usize].buckets, vec![NIL; new_len]);
            for mut cursor in old {
                while cursor != NIL {
                    let next = self.nodes[cursor as usize].next;
                    let (lo, hi) = {
                        let n = &self.nodes[cursor as usize];
                        (n.lo, n.hi)
                    };
                    let b = (pair_hash(lo, hi) as usize) & (new_len - 1);
                    self.nodes[cursor as usize].next = self.tables[level as usize].buckets[b];
                    self.tables[level as usize].buckets[b] = cursor;
                    cursor = next;
                }
            }
        }
        let (lo, hi) = {
            let n = &self.nodes[idx as usize];
            (n.lo, n.hi)
        };
        let table = &mut self.tables[level as usize];
        let bucket = table.bucket_of(lo, hi);
        self.nodes[idx as usize].next = table.buckets[bucket];
        table.buckets[bucket] = idx;
        table.count += 1;
    }

    /// Unlinks `idx` from its unique table (it must be present).
    pub(crate) fn table_remove(&mut self, level: u32, idx: u32) {
        let (lo, hi) = {
            let n = &self.nodes[idx as usize];
            (n.lo, n.hi)
        };
        let table = &self.tables[level as usize];
        let bucket = table.bucket_of(lo, hi);
        let mut cursor = self.tables[level as usize].buckets[bucket];
        if cursor == idx {
            self.tables[level as usize].buckets[bucket] = self.nodes[idx as usize].next;
        } else {
            loop {
                let next = self.nodes[cursor as usize].next;
                assert_ne!(next, NIL, "node missing from its unique table");
                if next == idx {
                    self.nodes[cursor as usize].next = self.nodes[idx as usize].next;
                    break;
                }
                cursor = next;
            }
        }
        self.tables[level as usize].count -= 1;
        self.nodes[idx as usize].next = NIL;
    }

    /// Increments the reference count of the node a tagged edge points at.
    #[inline]
    pub(crate) fn inc_node(&mut self, edge: u32) {
        let node = &mut self.nodes[(edge >> 1) as usize];
        if node.refs < STICKY_REFS {
            let was_dead = node.refs == 0 && node.level != TERMINAL_LEVEL;
            node.refs += 1;
            if was_dead {
                self.dead -= 1;
            }
        }
    }

    /// Decrements the reference count of the node a tagged edge points at.
    #[inline]
    pub(crate) fn dec_node(&mut self, edge: u32) {
        let node = &mut self.nodes[(edge >> 1) as usize];
        if node.refs >= STICKY_REFS || node.level == TERMINAL_LEVEL {
            return;
        }
        debug_assert!(node.refs > 0, "reference count underflow");
        node.refs -= 1;
        if node.refs == 0 {
            self.dead += 1;
        }
    }

    /// Protects `f` from garbage collection (increments its reference count).
    ///
    /// Returns `f` for convenient chaining.
    pub fn protect(&mut self, f: Bdd) -> Bdd {
        self.inc_node(f.0);
        f
    }

    /// Releases a protection previously taken with [`BddManager::protect`].
    ///
    /// The node is not freed immediately; it becomes reclaimable by the next
    /// [`BddManager::collect_garbage`].
    pub fn release(&mut self, f: Bdd) {
        self.dec_node(f.0);
    }

    /// Number of dead (unreferenced, reclaimable) nodes.
    pub fn dead_nodes(&self) -> usize {
        self.dead
    }

    /// Reclaims every dead node and clears the operation caches.
    ///
    /// Returns the number of nodes freed.
    pub fn collect_garbage(&mut self) -> usize {
        if self.dead == 0 {
            return 0;
        }
        let span = if self.tracer.enabled() {
            let s = self.tracer.span("bdd.gc");
            s.set_attr("live_before", self.live);
            Some(s)
        } else {
            None
        };
        self.cache.clear();
        let mut freed = 0;
        // Top-down: freeing a parent may kill children at lower levels only.
        for level in 0..self.tables.len() as u32 {
            let bucket_count = self.tables[level as usize].buckets.len();
            for b in 0..bucket_count {
                let mut prev = NIL;
                let mut cursor = self.tables[level as usize].buckets[b];
                while cursor != NIL {
                    let next = self.nodes[cursor as usize].next;
                    if self.nodes[cursor as usize].refs == 0 {
                        if prev == NIL {
                            self.tables[level as usize].buckets[b] = next;
                        } else {
                            self.nodes[prev as usize].next = next;
                        }
                        self.tables[level as usize].count -= 1;
                        let (lo, hi) = {
                            let n = &self.nodes[cursor as usize];
                            (n.lo, n.hi)
                        };
                        self.dec_node(lo);
                        self.dec_node(hi);
                        self.nodes[cursor as usize] =
                            Node { level: 0, lo: NIL, hi: NIL, refs: 0, next: NIL };
                        self.free.push(cursor);
                        self.dead -= 1;
                        self.live -= 1;
                        freed += 1;
                    } else {
                        prev = cursor;
                    }
                    cursor = next;
                }
            }
        }
        debug_assert_eq!(self.dead, 0);
        self.collected += freed;
        self.gc_passes += 1;
        if let Some(s) = span {
            s.set_attr("freed", freed);
            s.set_attr("live_after", self.live);
            self.tracer.record("bdd.gc.freed", freed as u64);
        }
        self.flight.record(FlightOp {
            step: self.steps,
            kind: "gc",
            a: freed as u64,
            b: self.live as u64,
        });
        freed
    }

    /// Current statistics snapshot.
    pub fn stats(&self) -> BddStats {
        BddStats {
            live_nodes: self.live,
            peak_live_nodes: self.peak,
            allocated_nodes: self.allocated,
            reorderings: self.reorderings,
            collected_nodes: self.collected,
        }
    }

    /// Resets the peak-live-nodes high-water mark to the current live count.
    pub fn reset_peak(&mut self) {
        self.peak = self.live;
    }

    pub(crate) fn note_reordering(&mut self) {
        self.reorderings += 1;
    }

    /// Records one flight-recorder operation at the current step count
    /// (no-op while the recorder is disarmed).
    pub(crate) fn flight_note(&mut self, kind: &'static str, a: u64, b: u64) {
        self.flight.record(FlightOp { step: self.steps, kind, a, b });
    }

    pub(crate) fn live_count(&self) -> usize {
        self.live
    }

    pub(crate) fn adjust_live(&mut self, delta: isize) {
        self.live = (self.live as isize + delta) as usize;
        if self.live > self.peak {
            self.peak = self.live;
        }
    }

    /// Exhaustive structural self-check used by the test-suite.
    ///
    /// Verifies the ROBDD invariants (ordered, reduced, hash-consed), the
    /// complement-edge canonical form (no complemented then-edges) and that
    /// stored reference counts match the actual parent counts.
    ///
    /// # Panics
    ///
    /// Panics with a description of the first violated invariant.
    pub fn check_invariants(&self) {
        let mut seen = vec![false; self.nodes.len()];
        let mut parents = vec![0u64; self.nodes.len()];
        for (level, table) in self.tables.iter().enumerate() {
            let mut chained = 0;
            for &head in &table.buckets {
                let mut cursor = head;
                while cursor != NIL {
                    let n = &self.nodes[cursor as usize];
                    assert_eq!(n.level as usize, level, "node in wrong table");
                    assert!(!seen[cursor as usize], "node chained twice");
                    seen[cursor as usize] = true;
                    assert_ne!(n.lo, n.hi, "unreduced node");
                    assert_eq!(n.hi & 1, 0, "complemented then-edge violates canonical form");
                    assert!(
                        self.level(n.lo) > n.level && self.level(n.hi) > n.level,
                        "order violated"
                    );
                    parents[(n.lo >> 1) as usize] += 1;
                    parents[(n.hi >> 1) as usize] += 1;
                    chained += 1;
                    cursor = n.next;
                }
            }
            assert_eq!(chained, table.count, "table count out of sync");
        }
        let mut free_set = vec![false; self.nodes.len()];
        for &f in &self.free {
            free_set[f as usize] = true;
        }
        for idx in 1..self.nodes.len() {
            if free_set[idx] {
                continue;
            }
            assert!(seen[idx], "live node missing from unique table");
            let n = &self.nodes[idx];
            if n.refs < STICKY_REFS {
                assert!(
                    u64::from(n.refs) >= parents[idx],
                    "refcount {} below parent count {} at node {}",
                    n.refs,
                    parents[idx],
                    idx
                );
            }
        }
    }
}

impl Drop for BddManager {
    fn drop(&mut self) {
        // A panic unwinding through a traced manager still gets its
        // postmortem: the last recorded operations reach the trace (and
        // any streaming sink) before the ring is lost. Orderly drops stay
        // silent — the abort paths dump explicitly with a precise reason.
        if std::thread::panicking() {
            self.flight.dump(&self.tracer, "panic");
        }
    }
}

// The parallel check engine moves whole managers into scoped worker
// threads (shared-nothing: one private manager per worker). This assertion
// turns any future non-`Send` field into a compile error at the source.
const _: fn() = || {
    fn assert_send<T: Send>() {}
    assert_send::<BddManager>();
};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constants_are_distinct() {
        let m = BddManager::new();
        assert_ne!(m.constant(false), m.constant(true));
        assert!(m.constant(true).is_const());
    }

    #[test]
    fn mk_is_hash_consed() {
        let mut m = BddManager::new();
        let v = m.new_var();
        let a = m.var(v);
        let b = m.var(v);
        assert_eq!(a, b);
        let n1 = m.mk(0, 1, 0);
        let n2 = m.mk(0, 1, 0);
        assert_eq!(n1, n2);
        m.check_invariants();
    }

    #[test]
    fn mk_reduces_equal_children() {
        let mut m = BddManager::new();
        let _v = m.new_var();
        let n = m.mk(0, FALSE, FALSE);
        assert_eq!(n, m.constant(false));
        let n = m.mk(0, TRUE, TRUE);
        assert_eq!(n, m.constant(true));
    }

    #[test]
    fn complemented_then_edge_normalises_to_dual_node() {
        let mut m = BddManager::new();
        let v = m.new_var();
        // (level 0, lo=1, hi=0) is ¬x: it must reuse the projection node of
        // x with the complement bit set, not allocate a second node.
        let nx = m.mk(0, TRUE, FALSE);
        let x = m.var(v);
        assert_eq!(nx, m.not(x));
        assert_eq!(nx.node_index(), x.node_index(), "x and ¬x must share a node");
        assert!(nx.is_complemented() != x.is_complemented());
        m.check_invariants();
    }

    #[test]
    fn projection_shape() {
        let mut m = BddManager::new();
        let v = m.new_var();
        let f = m.var(v);
        assert_eq!(m.low(f), m.constant(false));
        assert_eq!(m.high(f), m.constant(true));
        assert_eq!(m.root_var(f), Some(v));
    }

    #[test]
    fn gc_reclaims_unprotected_nodes() {
        let mut m = BddManager::new();
        let v = m.new_var();
        let w = m.new_var();
        let (a, b) = (m.var(v), m.var(w));
        let f = m.and(a, b);
        let live_before = m.stats().live_nodes;
        // f is unprotected: one AND node dies.
        assert_eq!(m.dead_nodes(), 1);
        let freed = m.collect_garbage();
        assert_eq!(freed, 1);
        assert_eq!(m.stats().live_nodes, live_before - 1);
        // Rebuilding works fine afterwards.
        let f2 = m.and(a, b);
        assert!(!f2.is_const());
        let _ = f;
        m.check_invariants();
    }

    #[test]
    fn protect_prevents_collection() {
        let mut m = BddManager::new();
        let v = m.new_var();
        let w = m.new_var();
        let (a, b) = (m.var(v), m.var(w));
        let f = m.and(a, b);
        m.protect(f);
        assert_eq!(m.collect_garbage(), 0);
        m.release(f);
        assert_eq!(m.collect_garbage(), 1);
        m.check_invariants();
    }

    #[test]
    fn resurrection_via_mk() {
        let mut m = BddManager::new();
        let v = m.new_var();
        let w = m.new_var();
        let (a, b) = (m.var(v), m.var(w));
        let f = m.and(a, b);
        assert_eq!(m.dead_nodes(), 1);
        let g = m.and(a, b); // cache or unique-table hit resurrects
        assert_eq!(f, g);
        m.check_invariants();
    }

    /// Builds a chain of carry-like functions over fresh variables,
    /// protecting each result and offering a reorder between steps.
    fn grow(m: &mut BddManager, vars: usize, salt: usize) -> Vec<Bdd> {
        let base = m.var_count();
        let vs = m.new_vars(vars);
        let mut out = Vec::new();
        let mut acc = m.constant(salt.is_multiple_of(2));
        for (i, &v) in vs.iter().enumerate() {
            let x = m.var(v);
            let y = m.var(BddVar(((i * 7 + salt) % (base + vars)) as u32));
            let t = m.xor(x, y);
            let u = m.and(acc, t);
            acc = m.or(u, x);
            out.push(m.protect(acc));
            m.maybe_reorder();
        }
        out
    }

    /// Everything observable about a manager's state, for comparisons.
    fn observe(m: &BddManager, roots: &[Bdd]) -> impl PartialEq + std::fmt::Debug {
        let order: Vec<u32> = (0..m.var_count() as u32).map(|l| m.var_at_level(l).0).collect();
        (
            roots.to_vec(),
            m.stats(),
            m.telemetry(),
            m.cache_stats_by_op(),
            m.cache_evictions(),
            m.dead_nodes(),
            order,
        )
    }

    #[test]
    fn fork_and_parent_match_a_fresh_history() {
        let fresh = || {
            let mut m = BddManager::with_reordering(ReorderSettings {
                threshold: 24,
                ..ReorderSettings::default()
            });
            m.set_cache_capacity_bits(crate::MIN_CACHE_BITS);
            m.set_budget(Some(Budget { max_steps: Some(1 << 40), ..Budget::default() }));
            m
        };
        let mut parent = fresh();
        let first = grow(&mut parent, 10, 1);
        assert!(parent.stats().reorderings > 0, "the shared history must sift");
        let mut fork = parent.fork();
        // Both sides continue differently; each must match a manager that
        // ran its whole history alone.
        let on_fork = grow(&mut fork, 6, 2);
        let on_parent = grow(&mut parent, 8, 3);
        for (salt, vars, side, roots) in [(2, 6, &fork, &on_fork), (3, 8, &parent, &on_parent)] {
            let mut alone = fresh();
            assert_eq!(grow(&mut alone, 10, 1), first);
            let again = grow(&mut alone, vars, salt);
            assert_eq!(observe(side, roots), observe(&alone, &again), "salt {salt}");
            side.check_invariants();
            let assign: Vec<bool> = (0..alone.var_count()).map(|i| i % 3 == 0).collect();
            for (&a, &b) in roots.iter().zip(&again) {
                assert_eq!(side.eval(a, &assign), alone.eval(b, &assign));
            }
        }
        // Handles from before the fork still denote the same functions.
        let assign: Vec<bool> = (0..fork.var_count()).map(|i| i % 2 == 0).collect();
        for &f in &first {
            assert_eq!(fork.eval(f, &assign), parent.eval(f, &assign));
        }
    }

    #[test]
    fn peak_tracks_high_water() {
        let mut m = BddManager::new();
        let vars = m.new_vars(8);
        let lits: Vec<Bdd> = vars.iter().map(|&v| m.var(v)).collect();
        let mut f = m.constant(true);
        for &l in &lits {
            f = m.and(f, l);
        }
        let peak = m.stats().peak_live_nodes;
        assert!(peak >= 8 + 7, "peak {peak} too small");
        m.collect_garbage();
        assert_eq!(m.stats().peak_live_nodes, peak);
    }
}
