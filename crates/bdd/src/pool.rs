//! Warm manager pool: a bounded, thread-safe stack of reset managers.
//!
//! A long-lived process that runs many checks pays the same ramp-up on
//! every one: the node arena grows from empty and the computed table's
//! hash map rehashes through every power of two. The pool amortises that
//! cost by recycling managers between checks — [`ManagerPool::recycle`]
//! calls [`BddManager::reset`], which drops every node, variable and
//! statistic but keeps the arena and table allocations warm, so the next
//! [`ManagerPool::acquire`] returns a manager that behaves bit-identically
//! to a fresh one while skipping the growth ramp.
//!
//! The pool is a plain mutex-guarded stack: acquisition order is
//! last-recycled-first (best cache locality), the bound caps idle memory,
//! and managers recycled into a full pool are simply dropped. Cloning a
//! pool clones the handle, not the managers — all clones share one stack.

use crate::manager::BddManager;
use std::sync::{Arc, Mutex};

/// Counters describing how effective a pool has been.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PoolStats {
    /// Acquisitions served by a recycled manager.
    pub hits: u64,
    /// Acquisitions that had to construct a fresh manager.
    pub misses: u64,
    /// Managers returned through [`ManagerPool::recycle`] and kept.
    pub recycled: u64,
    /// Managers dropped because the pool was full.
    pub dropped: u64,
    /// Managers currently idle in the pool.
    pub idle: usize,
}

#[derive(Debug)]
struct PoolInner {
    idle: Vec<BddManager>,
    capacity: usize,
    hits: u64,
    misses: u64,
    recycled: u64,
    dropped: u64,
}

/// A bounded, shareable pool of warm [`BddManager`]s.
#[derive(Debug, Clone)]
pub struct ManagerPool {
    inner: Arc<Mutex<PoolInner>>,
}

impl ManagerPool {
    /// Creates a pool keeping at most `capacity` idle managers (a capacity
    /// of zero disables recycling — every acquire constructs fresh).
    pub fn new(capacity: usize) -> Self {
        ManagerPool {
            inner: Arc::new(Mutex::new(PoolInner {
                idle: Vec::new(),
                capacity,
                hits: 0,
                misses: 0,
                recycled: 0,
                dropped: 0,
            })),
        }
    }

    /// Takes a manager from the pool, or constructs a fresh one when the
    /// pool is empty. Recycled managers have been [`BddManager::reset`] and
    /// are indistinguishable from fresh ones apart from their warm
    /// allocations.
    pub fn acquire(&self) -> BddManager {
        let mut inner = self.inner.lock().expect("pool lock poisoned");
        match inner.idle.pop() {
            Some(m) => {
                inner.hits += 1;
                m
            }
            None => {
                inner.misses += 1;
                BddManager::new()
            }
        }
    }

    /// Resets `manager` and returns it to the pool; drops it when the pool
    /// already holds its capacity of idle managers.
    pub fn recycle(&self, mut manager: BddManager) {
        manager.reset();
        let mut inner = self.inner.lock().expect("pool lock poisoned");
        if inner.idle.len() < inner.capacity {
            inner.idle.push(manager);
            inner.recycled += 1;
        } else {
            inner.dropped += 1;
        }
    }

    /// Effectiveness counters (hits, misses, recycled, dropped, idle).
    pub fn stats(&self) -> PoolStats {
        let inner = self.inner.lock().expect("pool lock poisoned");
        PoolStats {
            hits: inner.hits,
            misses: inner.misses,
            recycled: inner.recycled,
            dropped: inner.dropped,
            idle: inner.idle.len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Builds a small function mix and returns a stable signature of the
    /// manager's end state (node count + one satisfying-assignment count).
    fn exercise(m: &mut BddManager) -> (usize, usize, f64) {
        let vars = m.new_vars(6);
        let lits: Vec<_> = vars.iter().map(|&v| m.var(v)).collect();
        let mut acc = m.constant(false);
        for pair in lits.chunks(2) {
            let t = m.and(pair[0], pair[1]);
            acc = m.xor(acc, t);
        }
        m.protect(acc);
        let stats = m.stats();
        (stats.live_nodes, stats.allocated_nodes, m.sat_count(acc))
    }

    #[test]
    fn recycled_manager_reproduces_fresh_results() {
        let pool = ManagerPool::new(2);
        let mut fresh = BddManager::new();
        let expect = exercise(&mut fresh);

        let mut first = pool.acquire();
        let _ = exercise(&mut first);
        pool.recycle(first);

        let mut second = pool.acquire();
        assert_eq!(second.var_count(), 0, "recycled manager must start empty");
        assert_eq!(second.stats().live_nodes, 0);
        assert_eq!(exercise(&mut second), expect, "recycled run must be bit-identical");
        second.check_invariants();
        pool.recycle(second);

        let s = pool.stats();
        assert_eq!(s.hits, 1);
        assert_eq!(s.misses, 1);
        assert_eq!(s.recycled, 2);
        assert_eq!(s.idle, 1);
    }

    #[test]
    fn capacity_bounds_idle_managers() {
        let pool = ManagerPool::new(1);
        pool.recycle(BddManager::new());
        pool.recycle(BddManager::new());
        let s = pool.stats();
        assert_eq!(s.idle, 1, "second recycle must be dropped");
        assert_eq!(s.dropped, 1);

        let zero = ManagerPool::new(0);
        zero.recycle(BddManager::new());
        assert_eq!(zero.stats().idle, 0, "zero-capacity pool never retains");
    }

    #[test]
    fn reset_clears_budget_and_telemetry() {
        let mut m = BddManager::new();
        let vars = m.new_vars(4);
        let a = m.var(vars[0]);
        let b = m.var(vars[1]);
        let f = m.and(a, b);
        m.protect(f);
        m.set_budget(Some(crate::Budget {
            max_live_nodes: Some(10),
            max_steps: Some(10),
            deadline: None,
        }));
        m.reset();
        assert_eq!(m.var_count(), 0);
        assert!(m.budget().is_none(), "reset must disarm the budget");
        let t = m.telemetry();
        assert_eq!((t.apply_steps, t.cache_hits, t.cache_misses), (0, 0, 0));
        assert_eq!(m.stats().peak_live_nodes, 0);
        // And the reset manager still works.
        let v = m.new_var();
        let x = m.var(v);
        let nx = m.not(x);
        assert_eq!(m.or(x, nx), m.constant(true));
        m.check_invariants();
    }
}
