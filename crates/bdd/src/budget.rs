//! The resource governor: explicit, value-level budgets for BDD operations.
//!
//! A [`Budget`] caps what one *window* of work (typically one equivalence
//! check) may consume: live nodes, apply steps, wall-clock time. The
//! budgeted `try_*` operations on [`crate::BddManager`] return
//! [`BudgetExceeded`] instead of panicking when a cap is hit; the manager
//! itself stays fully usable — in-flight intermediates are simply left
//! unprotected for the next garbage collection, while the unique table and
//! every protected node survive.

use std::time::Instant;

/// Resource caps for budgeted (`try_*`) BDD operations.
///
/// All limits are optional; a budget with every field `None` never fires.
/// Install one with [`crate::BddManager::set_budget`], which also starts a
/// new step-accounting window.
#[derive(Debug, Clone, Copy, Default)]
pub struct Budget {
    /// Abort once the manager holds this many live nodes and an operation
    /// needs to allocate another one.
    pub max_live_nodes: Option<usize>,
    /// Abort once the current window has charged this many apply steps
    /// (cache-miss recursion steps of the operator core).
    pub max_steps: Option<u64>,
    /// Abort once the wall clock passes this instant. Checked every 1024
    /// steps, so overshoot is bounded and cheap operations pay nothing.
    pub deadline: Option<Instant>,
}

impl Budget {
    /// A budget with no limits set (equivalent to running unbudgeted).
    pub fn unlimited() -> Self {
        Budget::default()
    }

    /// Caps live nodes only.
    pub fn nodes(limit: usize) -> Self {
        Budget { max_live_nodes: Some(limit), ..Budget::default() }
    }

    /// Caps apply steps only.
    pub fn steps(limit: u64) -> Self {
        Budget { max_steps: Some(limit), ..Budget::default() }
    }
}

/// The error returned by budgeted BDD operations when a [`Budget`] cap is
/// hit.
///
/// The manager remains consistent and usable: previously protected BDDs are
/// untouched, and the intermediates of the aborted operation are dead nodes
/// reclaimed by the next [`crate::BddManager::collect_garbage`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BudgetExceeded {
    /// The live-node cap was hit while allocating a node.
    Nodes {
        /// The configured [`Budget::max_live_nodes`].
        limit: usize,
    },
    /// The apply-step cap of the current window was hit.
    Steps {
        /// The configured [`Budget::max_steps`].
        limit: u64,
    },
    /// The wall-clock deadline passed.
    Deadline,
}

impl std::fmt::Display for BudgetExceeded {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BudgetExceeded::Nodes { limit } => {
                write!(f, "BDD node budget of {limit} live nodes exceeded")
            }
            BudgetExceeded::Steps { limit } => {
                write!(f, "BDD apply-step budget of {limit} steps exceeded")
            }
            BudgetExceeded::Deadline => write!(f, "BDD wall-clock deadline exceeded"),
        }
    }
}

impl std::error::Error for BudgetExceeded {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_names_each_limit() {
        assert!(BudgetExceeded::Nodes { limit: 7 }.to_string().contains("7 live nodes"));
        assert!(BudgetExceeded::Steps { limit: 9 }.to_string().contains("9 steps"));
        assert!(BudgetExceeded::Deadline.to_string().contains("deadline"));
    }

    #[test]
    fn constructors() {
        let b = Budget::nodes(10);
        assert_eq!(b.max_live_nodes, Some(10));
        assert!(b.max_steps.is_none());
        let b = Budget::steps(10);
        assert_eq!(b.max_steps, Some(10));
        assert!(Budget::unlimited().max_live_nodes.is_none());
    }
}
