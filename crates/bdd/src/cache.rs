//! The computed table: memoisation for the recursive operator core.

use crate::hasher::FxBuildHasher;
use std::collections::HashMap;
use std::sync::Arc;

/// Operation tags for computed-table keys.
///
/// With complement edges the operator set is smaller than the public API:
/// `not` is a tag flip (no table traffic at all), `or`/`nand`/`nor` reach
/// the table as `and` through De Morgan, `xnor` as `xor`, and `forall` as
/// `exists` through quantifier duality — so every dual pair shares one set
/// of cache entries.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) enum Op {
    And,
    Xor,
    Ite,
    Exists,
    /// Functional composition; the substituted variable is the third key slot.
    Compose,
    /// Generalised cofactor / restrict against a cube.
    Restrict,
    /// Relational product: existential quantification of a conjunction.
    AndExists,
}

impl Op {
    /// Number of operation kinds (the per-op stat arrays are this long).
    pub(crate) const COUNT: usize = 7;

    #[inline]
    pub(crate) fn index(self) -> usize {
        self as usize
    }

    /// Stable lower-case name used in tracer counter names.
    pub(crate) fn name(self) -> &'static str {
        match self {
            Op::And => "and",
            Op::Xor => "xor",
            Op::Ite => "ite",
            Op::Exists => "exists",
            Op::Compose => "compose",
            Op::Restrict => "restrict",
            Op::AndExists => "and_exists",
        }
    }

    pub(crate) fn all() -> [Op; Op::COUNT] {
        [Op::And, Op::Xor, Op::Ite, Op::Exists, Op::Compose, Op::Restrict, Op::AndExists]
    }
}

/// Default computed-table capacity exponent: `2^22` (~4M) entries.
///
/// Large enough that typical checks never hit the cap (bounded eviction is
/// a memory-safety valve, not a tuning default), small enough to bound a
/// runaway worker to a predictable footprint.
pub const DEFAULT_CACHE_BITS: u32 = 22;

/// Smallest accepted capacity exponent (1024 entries).
pub const MIN_CACHE_BITS: u32 = 10;

/// Largest accepted capacity exponent (2^30 entries).
pub const MAX_CACHE_BITS: u32 = 30;

/// Clamps a requested capacity exponent into the supported range.
pub fn clamp_cache_bits(bits: u32) -> u32 {
    bits.clamp(MIN_CACHE_BITS, MAX_CACHE_BITS)
}

/// Memo table shared by all recursive operations.
///
/// Entries hold *unprotected* node indices, so the cache must be cleared
/// whenever nodes may be reclaimed (garbage collection, reordering).
/// Capacity is bounded at `2^capacity_bits` entries; inserting into a full
/// table drops the whole table (a deterministic, allocation-free eviction
/// policy — the recursion simply recomputes, charging steps as usual).
/// Hit/miss counters are kept per operation kind so the tracer can report
/// cache effectiveness per operator; the aggregate accessors sum them.
///
/// [`OpCache::fork`] splits the table into a read-only `frozen` layer,
/// shared by the parent and the fork, and one private map per side for new
/// entries. The two layers never hold the same key (a lookup misses both
/// before its result is inserted), so their sizes add up to what one
/// cloned table would hold, and eviction and hit/miss behaviour match a
/// clone exactly.
#[derive(Debug)]
pub(crate) struct OpCache {
    map: Map,
    frozen: Option<Arc<Map>>,
    capacity: usize,
    evictions: u64,
    hits: [u64; Op::COUNT],
    misses: [u64; Op::COUNT],
}

type Map = HashMap<(Op, u32, u32, u32), u32, FxBuildHasher>;

impl Default for OpCache {
    fn default() -> Self {
        OpCache::with_capacity_bits(DEFAULT_CACHE_BITS)
    }
}

impl OpCache {
    pub(crate) fn new() -> Self {
        OpCache::default()
    }

    pub(crate) fn with_capacity_bits(bits: u32) -> Self {
        OpCache {
            map: HashMap::default(),
            frozen: None,
            capacity: 1usize << clamp_cache_bits(bits),
            evictions: 0,
            hits: [0; Op::COUNT],
            misses: [0; Op::COUNT],
        }
    }

    /// Rebounds the table to `2^bits` entries (clamped), evicting every
    /// current entry if it no longer fits.
    pub(crate) fn set_capacity_bits(&mut self, bits: u32) {
        self.capacity = 1usize << clamp_cache_bits(bits);
        if self.len() > self.capacity {
            self.clear();
            self.evictions += 1;
        }
    }

    /// Entries held, counting both the private map and the frozen layer.
    fn len(&self) -> usize {
        self.map.len() + self.frozen.as_ref().map_or(0, |f| f.len())
    }

    /// Moves every private entry into the frozen layer and returns a table
    /// that shares it: same entries, counters and capacity, and an empty
    /// private map of its own. The layer is copied only if another fork
    /// still holds it.
    pub(crate) fn fork(&mut self) -> OpCache {
        if !self.map.is_empty() {
            let mut own = std::mem::take(&mut self.map);
            match &mut self.frozen {
                Some(layer) => {
                    // Merge the smaller map into the larger one and free
                    // the smaller one's allocation.
                    let layer = Arc::make_mut(layer);
                    if own.len() > layer.len() {
                        std::mem::swap(layer, &mut own);
                    }
                    layer.extend(own);
                    layer.shrink_to_fit();
                }
                None => {
                    // A map cleared by GC or sifting keeps its allocation;
                    // the layer lives as long as its forks, so compact it.
                    own.shrink_to_fit();
                    self.frozen = Some(Arc::new(own));
                }
            }
        }
        OpCache {
            map: HashMap::default(),
            frozen: self.frozen.clone(),
            capacity: self.capacity,
            evictions: self.evictions,
            hits: self.hits,
            misses: self.misses,
        }
    }

    pub(crate) fn capacity_bits(&self) -> u32 {
        self.capacity.trailing_zeros()
    }

    /// Full-table evictions forced by the capacity bound so far.
    pub(crate) fn evictions(&self) -> u64 {
        self.evictions
    }

    #[inline]
    pub(crate) fn get(&mut self, op: Op, a: u32, b: u32, c: u32) -> Option<u32> {
        let key = (op, a, b, c);
        let r = match &self.frozen {
            Some(layer) => self.map.get(&key).or_else(|| layer.get(&key)),
            None => self.map.get(&key),
        }
        .copied();
        if r.is_some() {
            self.hits[op.index()] += 1;
        } else {
            self.misses[op.index()] += 1;
        }
        r
    }

    #[inline]
    pub(crate) fn put(&mut self, op: Op, a: u32, b: u32, c: u32, result: u32) {
        if self.len() >= self.capacity {
            self.clear();
            self.evictions += 1;
        }
        self.map.insert((op, a, b, c), result);
    }

    /// Drops every entry, including this side's share of the frozen layer.
    pub(crate) fn clear(&mut self) {
        self.map.clear();
        self.frozen = None;
    }

    /// Restores the table to its just-constructed state while keeping the
    /// map's allocation warm: entries, per-op counters and the eviction
    /// total all go to zero; the capacity bound is preserved.
    pub(crate) fn reset(&mut self) {
        self.clear();
        self.evictions = 0;
        self.hits = [0; Op::COUNT];
        self.misses = [0; Op::COUNT];
    }

    /// Cumulative lookup hits over all operations (survives [`OpCache::clear`]).
    pub(crate) fn hits(&self) -> u64 {
        self.hits.iter().sum()
    }

    /// Cumulative lookup misses over all operations (survives [`OpCache::clear`]).
    pub(crate) fn misses(&self) -> u64 {
        self.misses.iter().sum()
    }

    /// Per-operation `(name, hits, misses)` rows, one per [`Op`] kind.
    pub(crate) fn stats_by_op(&self) -> [(&'static str, u64, u64); Op::COUNT] {
        Op::all().map(|op| (op.name(), self.hits[op.index()], self.misses[op.index()]))
    }

    #[allow(dead_code)]
    pub(crate) fn hit_rate(&self) -> f64 {
        let (hits, misses) = (self.hits(), self.misses());
        if hits + misses == 0 {
            0.0
        } else {
            hits as f64 / (hits + misses) as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A flat copy holding every entry in one private map: what a fork
    /// would be if it cloned the table instead of sharing a frozen layer.
    fn flat_clone(c: &OpCache) -> OpCache {
        let mut map = c.map.clone();
        if let Some(layer) = &c.frozen {
            map.extend(layer.iter().map(|(k, v)| (*k, *v)));
        }
        OpCache { map, frozen: None, ..*c }
    }

    /// The manager's access pattern: a lookup, then an insert on a miss.
    fn lookup_or_insert(c: &mut OpCache, key: u32) -> Option<u32> {
        let r = c.get(Op::And, key, key ^ 1, 0);
        if r.is_none() {
            c.put(Op::And, key, key ^ 1, 0, key.wrapping_mul(3));
        }
        r
    }

    #[test]
    fn frozen_layer_behaves_like_a_cloned_table() {
        let cap = 1u32 << MIN_CACHE_BITS;
        let mut parent = OpCache::with_capacity_bits(MIN_CACHE_BITS);
        for k in 0..cap / 2 {
            lookup_or_insert(&mut parent, k);
        }
        // Fork twice in a row, as a ladder forks one base per rung; the
        // second fork also moves entries added after the first.
        let mut first = parent.fork();
        for k in cap / 2..cap * 3 / 4 {
            lookup_or_insert(&mut parent, k);
        }
        let mut reference_parent = flat_clone(&parent);
        let mut child = parent.fork();
        let mut reference_child = flat_clone(&child);
        let mut state = 0x2545_f491u32;
        for step in 0..6 * cap {
            state ^= state << 13;
            state ^= state >> 17;
            state ^= state << 5;
            let key = state % (3 * cap);
            for (layered, flat) in
                [(&mut child, &mut reference_child), (&mut parent, &mut reference_parent)]
            {
                if step % 1500 == 1499 {
                    layered.clear();
                    flat.clear();
                }
                assert_eq!(lookup_or_insert(layered, key), lookup_or_insert(flat, key));
                assert_eq!(layered.len(), flat.len(), "step {step}");
                assert_eq!(layered.evictions(), flat.evictions(), "step {step}");
                assert_eq!(layered.stats_by_op(), flat.stats_by_op(), "step {step}");
            }
        }
        assert!(child.evictions() > 0 && child.frozen.is_none(), "eviction drops the layer");
        // The first fork kept the entries it saw, untouched by the others.
        assert_eq!(first.get(Op::And, 1, 0, 0), Some(3));
        assert_eq!(first.get(Op::And, cap - 1, (cap - 1) ^ 1, 0), None);
    }

    #[test]
    fn round_trips_entries() {
        let mut c = OpCache::new();
        assert_eq!(c.get(Op::And, 2, 3, 0), None);
        c.put(Op::And, 2, 3, 0, 7);
        assert_eq!(c.get(Op::And, 2, 3, 0), Some(7));
        assert_eq!(c.get(Op::Xor, 2, 3, 0), None);
        c.clear();
        assert_eq!(c.get(Op::And, 2, 3, 0), None);
    }

    #[test]
    fn capacity_bound_evicts_wholesale() {
        let mut c = OpCache::with_capacity_bits(0); // clamps to MIN_CACHE_BITS
        assert_eq!(c.capacity_bits(), MIN_CACHE_BITS);
        let cap = 1u32 << MIN_CACHE_BITS;
        for i in 0..cap {
            c.put(Op::And, i, i, 0, i);
        }
        assert_eq!(c.evictions(), 0);
        assert_eq!(c.get(Op::And, 0, 0, 0), Some(0));
        // The table is full: one more insert drops everything, then lands.
        c.put(Op::And, cap, cap, 0, cap);
        assert_eq!(c.evictions(), 1);
        assert_eq!(c.get(Op::And, 0, 0, 0), None);
        assert_eq!(c.get(Op::And, cap, cap, 0), Some(cap));
    }

    #[test]
    fn shrinking_capacity_evicts_oversized_table() {
        let mut c = OpCache::with_capacity_bits(12);
        for i in 0..2048u32 {
            c.put(Op::Xor, i, i, 0, i);
        }
        c.set_capacity_bits(10);
        assert_eq!(c.evictions(), 1);
        assert_eq!(c.get(Op::Xor, 1, 1, 0), None);
        // Growing back is free.
        c.set_capacity_bits(40); // clamps to MAX_CACHE_BITS
        assert_eq!(c.capacity_bits(), MAX_CACHE_BITS);
        assert_eq!(c.evictions(), 1);
    }

    #[test]
    fn per_op_stats_sum_to_aggregate() {
        let mut c = OpCache::new();
        c.put(Op::And, 2, 3, 0, 7);
        let _ = c.get(Op::And, 2, 3, 0); // and: 1 hit
        let _ = c.get(Op::And, 9, 9, 0); // and: 1 miss
        let _ = c.get(Op::Ite, 2, 3, 4); // ite: 1 miss
        assert_eq!(c.hits(), 1);
        assert_eq!(c.misses(), 2);
        let by_op = c.stats_by_op();
        let and = by_op.iter().find(|(n, _, _)| *n == "and").unwrap();
        assert_eq!((and.1, and.2), (1, 1));
        let ite = by_op.iter().find(|(n, _, _)| *n == "ite").unwrap();
        assert_eq!((ite.1, ite.2), (0, 1));
        assert_eq!(by_op.iter().map(|r| r.1).sum::<u64>(), c.hits());
        assert_eq!(by_op.iter().map(|r| r.2).sum::<u64>(), c.misses());
    }
}
