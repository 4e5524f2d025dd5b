//! Bounded, byte-accounted caching: a sharded segmented-LRU plus a
//! process-global memory budget.
//!
//! Every memo table that makes this workspace fast (the engine's
//! block-annotation cache, the external result cache) is a pure memoization: evicting an entry can never
//! change a result, only the time it takes to recompute it. That makes
//! a bounded cache the natural containment tool for the adversarial
//! regime a long-running server faces — an endless stream of *distinct*
//! blocks that would otherwise grow every table without limit.
//!
//! The building blocks:
//!
//! * [`HeapSize`] — how many bytes of owned heap storage a key or value
//!   drags along, so caches are bounded in *bytes* (the unit operators
//!   budget in), not entry counts.
//! * [`SlruCache`] — a sharded **segmented LRU**: new entries enter a
//!   *probation* segment; an entry touched again while on probation is
//!   promoted to a *protected* segment, so one streaming scan of
//!   never-reused keys cannot flush the hot working set. Hits only set
//!   a referenced bit (clock-style), so the warm path stays O(1) with
//!   no list splicing; the referenced bits are consumed lazily by the
//!   eviction scan. Shards are guarded by [`PoisonlessMutex`] so one
//!   contained panic cannot wedge the cache.
//! * [`GlobalBudget`] — a process-wide byte budget with high/low
//!   watermarks: when the accounted total crosses the high watermark,
//!   every registered [`Shrinkable`] member is shrunk proportionally
//!   toward the low watermark, and each edge crossing is logged exactly
//!   once.

use crate::fxhash::{FxBuildHasher, FxHashMap};
use crate::sync::PoisonlessMutex;
use std::borrow::Borrow;
use std::collections::VecDeque;
use std::hash::{BuildHasher, Hash};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock, Weak};

/// Bytes of owned heap storage reachable from a value (excluding the
/// value's own inline `size_of` footprint, which the container that
/// stores it accounts for separately).
///
/// Implementations are *accounting policy*, not forensic truth: shared
/// (`Arc`ed) substructure should be counted by exactly one owner and
/// treated as pointer-sized by everyone else, so a process-global
/// budget sums cache contributions without double counting.
pub trait HeapSize {
    /// Owned heap bytes reachable from `self`.
    fn heap_bytes(&self) -> usize;
}

macro_rules! zero_heap {
    ($($t:ty),* $(,)?) => {
        $(impl HeapSize for $t {
            fn heap_bytes(&self) -> usize { 0 }
        })*
    };
}

zero_heap!(
    u8,
    u16,
    u32,
    u64,
    usize,
    i8,
    i16,
    i32,
    i64,
    isize,
    f32,
    f64,
    bool,
    char,
    ()
);

impl<T: HeapSize> HeapSize for Option<T> {
    fn heap_bytes(&self) -> usize {
        self.as_ref().map_or(0, HeapSize::heap_bytes)
    }
}

impl<T: HeapSize> HeapSize for Vec<T> {
    fn heap_bytes(&self) -> usize {
        self.capacity() * std::mem::size_of::<T>()
            + self.iter().map(HeapSize::heap_bytes).sum::<usize>()
    }
}

impl<T: HeapSize> HeapSize for Box<[T]> {
    fn heap_bytes(&self) -> usize {
        self.len() * std::mem::size_of::<T>() + self.iter().map(HeapSize::heap_bytes).sum::<usize>()
    }
}

impl HeapSize for String {
    fn heap_bytes(&self) -> usize {
        self.capacity()
    }
}

impl HeapSize for Arc<str> {
    fn heap_bytes(&self) -> usize {
        self.len()
    }
}

impl<A: HeapSize, B: HeapSize> HeapSize for (A, B) {
    fn heap_bytes(&self) -> usize {
        self.0.heap_bytes() + self.1.heap_bytes()
    }
}

impl<A: HeapSize, B: HeapSize, C: HeapSize> HeapSize for (A, B, C) {
    fn heap_bytes(&self) -> usize {
        self.0.heap_bytes() + self.1.heap_bytes() + self.2.heap_bytes()
    }
}

impl<T: Copy + Default + HeapSize, const N: usize> HeapSize for crate::SmallVec<T, N> {
    fn heap_bytes(&self) -> usize {
        self.spill_bytes()
    }
}

/// Number of independent lock shards (a power of two; selection is a
/// mask of the key hash). Matches the sharding the pre-bounded memo
/// tables used.
const SHARDS: usize = 16;

/// Accounted fixed cost per resident entry: the hash-map node, the
/// queue node (which carries a clone of the key), and the segment
/// bookkeeping. An estimate — the point of accounting is a stable,
/// deterministic proxy for memory, not allocator forensics.
const ENTRY_OVERHEAD: usize = 64;

/// Fraction (numerator / 10) of a shard's capacity the protected
/// segment may occupy before promotions start demoting its LRU tail
/// back to probation. 8/10 is the classic SLRU split.
const PROTECTED_TENTHS: usize = 8;

#[derive(Debug)]
struct Entry<V> {
    value: V,
    /// Accounted bytes of this entry (overhead + key + value heap).
    bytes: usize,
    /// Matches the live queue node for this entry; a queue node whose
    /// stamp disagrees is stale and is skipped by the eviction scan.
    stamp: u64,
    /// Clock bit: set on every hit, consumed by the eviction scan.
    referenced: bool,
    /// Which segment the entry lives in.
    protected: bool,
}

#[derive(Debug)]
struct Shard<K, V> {
    map: FxHashMap<K, Entry<V>>,
    /// Insertion-ordered queue of probation entries (newest at back).
    probation: VecDeque<(K, u64)>,
    /// Clock queue of protected entries.
    protected: VecDeque<(K, u64)>,
    /// Accounted bytes resident in this shard.
    bytes: usize,
    /// Accounted bytes of the protected segment.
    protected_bytes: usize,
    /// Monotonic stamp source for queue/entry pairing.
    next_stamp: u64,
}

impl<K, V> Default for Shard<K, V> {
    fn default() -> Self {
        Shard {
            map: FxHashMap::default(),
            probation: VecDeque::new(),
            protected: VecDeque::new(),
            bytes: 0,
            protected_bytes: 0,
            next_stamp: 0,
        }
    }
}

/// What one shard operation changed, applied to the cache-wide atomics
/// (and the attached [`GlobalBudget`]) *after* the shard lock is
/// released, so budget-triggered shrinks never run under a shard lock.
#[derive(Debug, Default, Clone, Copy)]
struct Delta {
    added: usize,
    freed: usize,
    evicted: u64,
}

impl<K: Hash + Eq + Clone + HeapSize, V: HeapSize> Shard<K, V> {
    fn entry_bytes(key: &K, value: &V) -> usize {
        // The queue node clones the key, so key heap counts twice.
        ENTRY_OVERHEAD
            + std::mem::size_of::<K>()
            + 2 * key.heap_bytes()
            + std::mem::size_of::<V>()
            + value.heap_bytes()
    }

    /// Evict exactly one entry (probation first, then a clock scan of
    /// the protected segment). Returns the freed bytes, or `None` when
    /// the shard is empty.
    fn evict_one(&mut self, shard_cap: usize) -> Option<usize> {
        // Probation scan: referenced entries are promoted (their second
        // touch proved reuse), unreferenced ones are evicted.
        while let Some((key, stamp)) = self.probation.pop_front() {
            let Some(e) = self.map.get_mut(&key) else {
                continue;
            };
            if e.stamp != stamp || e.protected {
                continue; // stale queue node
            }
            if e.referenced {
                e.referenced = false;
                e.protected = true;
                self.protected_bytes += e.bytes;
                self.protected.push_back((key, stamp));
                self.rebalance_protected(shard_cap);
                continue;
            }
            let bytes = e.bytes;
            self.map.remove(&key);
            self.bytes -= bytes;
            return Some(bytes);
        }
        // Protected clock scan: first pass clears referenced bits, so
        // the loop terminates after at most one full revolution.
        while let Some((key, stamp)) = self.protected.pop_front() {
            let Some(e) = self.map.get_mut(&key) else {
                continue;
            };
            if e.stamp != stamp || !e.protected {
                continue;
            }
            if e.referenced {
                e.referenced = false;
                self.protected.push_back((key, stamp));
                continue;
            }
            let bytes = e.bytes;
            self.map.remove(&key);
            self.bytes -= bytes;
            self.protected_bytes -= bytes;
            return Some(bytes);
        }
        None
    }

    /// Demote the protected segment's LRU tail back to probation while
    /// the segment exceeds its share of the shard capacity.
    fn rebalance_protected(&mut self, shard_cap: usize) {
        let protected_cap = shard_cap / 10 * PROTECTED_TENTHS;
        while self.protected_bytes > protected_cap {
            let Some((key, stamp)) = self.protected.pop_front() else {
                return;
            };
            let Some(e) = self.map.get_mut(&key) else {
                continue;
            };
            if e.stamp != stamp || !e.protected {
                continue;
            }
            e.protected = false;
            self.protected_bytes -= e.bytes;
            self.probation.push_back((key, stamp));
        }
    }

    /// Evict until the shard holds at most `target` accounted bytes.
    fn evict_to(&mut self, target: usize, shard_cap: usize, delta: &mut Delta) {
        while self.bytes > target {
            match self.evict_one(shard_cap) {
                Some(freed) => {
                    delta.freed += freed;
                    delta.evicted += 1;
                }
                None => return,
            }
        }
    }
}

/// A thread-safe, sharded, byte-bounded segmented-LRU cache.
///
/// Values are mutated and read in place under the shard lock via
/// closures (the workspace's caches store `Arc`-heavy entries whose
/// relevant parts are cheap to clone *inside* the closure). Byte
/// accounting is recomputed whenever a value is created or mutated;
/// plain reads only set the entry's clock bit.
///
/// Capacity is enforced per shard at `capacity / 16`, so a pathological
/// key distribution cannot let one shard starve the others.
#[derive(Debug)]
pub struct SlruCache<K, V> {
    label: &'static str,
    shards: [PoisonlessMutex<Shard<K, V>>; SHARDS],
    hasher: FxBuildHasher,
    capacity: AtomicUsize,
    bytes: AtomicUsize,
    evictions: AtomicU64,
    budget: OnceLock<Arc<GlobalBudget>>,
}

impl<K: Hash + Eq + Clone + HeapSize, V: HeapSize> SlruCache<K, V> {
    /// An empty cache holding at most `capacity` accounted bytes
    /// (`usize::MAX` for effectively unbounded-but-accounted).
    #[must_use]
    pub fn new(label: &'static str, capacity: usize) -> SlruCache<K, V> {
        SlruCache {
            label,
            shards: std::array::from_fn(|_| PoisonlessMutex::new(Shard::default())),
            hasher: FxBuildHasher::default(),
            capacity: AtomicUsize::new(capacity),
            bytes: AtomicUsize::new(0),
            evictions: AtomicU64::new(0),
            budget: OnceLock::new(),
        }
    }

    /// The cache's label (used in budget logs and stats).
    #[must_use]
    pub fn label(&self) -> &'static str {
        self.label
    }

    fn shard_index<Q: Hash + ?Sized>(&self, key: &Q) -> usize {
        // High bits: the low bits of an Fx hash are the weakest.
        (self.hasher.hash_one(key) as usize >> 48) & (SHARDS - 1)
    }

    fn shard_cap(&self) -> usize {
        self.capacity.load(Ordering::Relaxed) / SHARDS
    }

    /// Apply a shard delta to the cache-wide counters and the attached
    /// budget. Called after the shard lock is dropped.
    fn settle(&self, delta: Delta) {
        if delta.added > 0 {
            self.bytes.fetch_add(delta.added, Ordering::Relaxed);
        }
        if delta.freed > 0 {
            self.bytes.fetch_sub(delta.freed, Ordering::Relaxed);
        }
        if delta.evicted > 0 {
            self.evictions.fetch_add(delta.evicted, Ordering::Relaxed);
        }
        if let Some(budget) = self.budget.get() {
            if delta.freed > delta.added {
                budget.sub(delta.freed - delta.added);
            } else if delta.added > delta.freed {
                budget.add(delta.added - delta.freed);
            }
        }
    }

    /// Read a resident value through `f`, marking the entry as
    /// recently used. Returns `None` on a miss.
    pub fn read<Q, R>(&self, key: &Q, f: impl FnOnce(&V) -> R) -> Option<R>
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        let mut shard = self.shards[self.shard_index(key)].lock();
        let e = shard.map.get_mut(key)?;
        e.referenced = true;
        Some(f(&e.value))
    }

    /// Get-or-create the entry for `key` and apply `with` to its value
    /// in place. On a vacant slot `make_key`/`make` build the owned key
    /// and initial value; the value's accounted bytes are recomputed
    /// after `with` runs (it may grow the value), and the shard is then
    /// evicted back under its capacity share.
    ///
    /// Run heavy computation *before* calling this and let `with` only
    /// publish the result — the closures execute under the shard lock.
    pub fn get_or_insert_with<Q, R>(
        &self,
        key: &Q,
        make_key: impl FnOnce() -> K,
        make: impl FnOnce() -> V,
        with: impl FnOnce(&mut V) -> R,
    ) -> R
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        let shard_cap = self.shard_cap();
        let mut delta = Delta::default();
        let result;
        {
            let mut guard = self.shards[self.shard_index(key)].lock();
            let shard = &mut *guard;
            if let Some(e) = shard.map.get_mut(key) {
                // The key is unchanged, so only the value's heap
                // contribution can move.
                let before = e.value.heap_bytes();
                result = with(&mut e.value);
                let after = e.value.heap_bytes();
                e.referenced = true;
                if after >= before {
                    let grown = after - before;
                    e.bytes += grown;
                    if e.protected {
                        shard.protected_bytes += grown;
                    }
                    shard.bytes += grown;
                    delta.added += grown;
                } else {
                    let shrunk = before - after;
                    e.bytes -= shrunk;
                    if e.protected {
                        shard.protected_bytes -= shrunk;
                    }
                    shard.bytes -= shrunk;
                    delta.freed += shrunk;
                }
            } else {
                let owned_key = make_key();
                let mut value = make();
                result = with(&mut value);
                let bytes = Shard::entry_bytes(&owned_key, &value);
                let stamp = shard.next_stamp;
                shard.next_stamp += 1;
                shard.probation.push_back((owned_key.clone(), stamp));
                shard.map.insert(
                    owned_key,
                    Entry {
                        value,
                        bytes,
                        stamp,
                        referenced: false,
                        protected: false,
                    },
                );
                shard.bytes += bytes;
                delta.added += bytes;
            }
            shard.evict_to(shard_cap, shard_cap, &mut delta);
        }
        self.settle(delta);
        result
    }

    /// Insert `value` for `key` if the key is absent. First writer wins
    /// (matching every memo table in this workspace: a racing duplicate
    /// computed the same value). An existing entry is marked as used.
    pub fn insert(&self, key: K, value: V) {
        let probe = key.clone();
        self.get_or_insert_with(&probe, move || key, move || value, |_| ());
    }

    /// Visit every resident `(key, value)` pair. Shards are visited in
    /// index order while holding one shard lock at a time; entries are
    /// not marked as used.
    pub fn for_each(&self, mut f: impl FnMut(&K, &V)) {
        for s in &self.shards {
            let shard = s.lock();
            for (k, e) in &shard.map {
                f(k, &e.value);
            }
        }
    }

    /// Number of resident entries.
    #[must_use]
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.lock().map.len()).sum()
    }

    /// Whether the cache holds no entries.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Accounted bytes currently resident.
    #[must_use]
    pub fn bytes(&self) -> usize {
        self.bytes.load(Ordering::Relaxed)
    }

    /// The configured capacity in accounted bytes.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.capacity.load(Ordering::Relaxed)
    }

    /// Lifetime eviction count (reset by [`SlruCache::clear`]).
    #[must_use]
    pub fn evictions(&self) -> u64 {
        self.evictions.load(Ordering::Relaxed)
    }

    /// Change the capacity, evicting down to it if the cache is over.
    pub fn set_capacity(&self, capacity: usize) {
        self.capacity.store(capacity, Ordering::Relaxed);
        self.shrink_to(capacity);
    }

    /// Evict until at most `target` accounted bytes remain (each shard
    /// is brought under its proportional share).
    pub fn shrink_to(&self, target: usize) {
        let shard_cap = self.shard_cap();
        let per_shard = target / SHARDS;
        for s in &self.shards {
            let mut delta = Delta::default();
            s.lock().evict_to(per_shard, shard_cap, &mut delta);
            self.settle(delta);
        }
    }

    /// Drop every entry and reset the byte/eviction counters. Releases
    /// the freed bytes from the attached budget; outstanding `Arc`s
    /// held by callers stay valid.
    pub fn clear(&self) {
        let mut freed = 0;
        for s in &self.shards {
            let mut shard = s.lock();
            freed += shard.bytes;
            shard.map.clear();
            shard.probation.clear();
            shard.protected.clear();
            shard.bytes = 0;
            shard.protected_bytes = 0;
        }
        self.bytes.store(0, Ordering::Relaxed);
        self.evictions.store(0, Ordering::Relaxed);
        if let Some(budget) = self.budget.get() {
            budget.sub(freed);
        }
    }

    /// Attach a process-global budget: from now on every byte delta is
    /// reported to it (crossing its high watermark triggers a
    /// proportional shrink of all registered members). The cache's
    /// current occupancy is added to the budget immediately. A second
    /// attach is ignored.
    pub fn set_budget(&self, budget: &Arc<GlobalBudget>) {
        if self.budget.set(Arc::clone(budget)).is_ok() {
            budget.add(self.bytes());
        }
    }
}

impl<K: Hash + Eq + Clone + HeapSize + Send, V: HeapSize + Send> Shrinkable for SlruCache<K, V> {
    fn label(&self) -> &'static str {
        self.label
    }

    fn accounted_bytes(&self) -> usize {
        self.bytes()
    }

    fn shrink_toward(&self, target: usize) {
        self.shrink_to(target);
    }
}

/// A cache (or cache-like table) that a [`GlobalBudget`] can ask to
/// give memory back.
pub trait Shrinkable: Send + Sync {
    /// Short name used in budget logs.
    fn label(&self) -> &'static str;
    /// Accounted bytes currently held.
    fn accounted_bytes(&self) -> usize;
    /// Evict down toward `target` accounted bytes (best effort).
    fn shrink_toward(&self, target: usize);
}

/// A process-global memory budget with high/low watermarks.
///
/// Caches report byte deltas via [`GlobalBudget::add`]/[`GlobalBudget::sub`].
/// When the accounted total crosses `high`, every registered
/// [`Shrinkable`] member is shrunk *proportionally* toward the `low`
/// watermark (each member's target is its share of `low` scaled by its
/// current occupancy), and the transition is logged exactly once per
/// edge; the matching "receded below low" edge is logged when the
/// total next falls under `low`.
#[derive(Debug)]
pub struct GlobalBudget {
    high: usize,
    low: usize,
    total: AtomicUsize,
    members: PoisonlessMutex<Vec<Weak<dyn Shrinkable>>>,
    shrinks: AtomicU64,
    high_crossings: AtomicU64,
    over_high: AtomicBool,
    shrinking: AtomicBool,
    log: bool,
}

impl GlobalBudget {
    /// A budget that shrinks members toward `low` whenever the
    /// accounted total exceeds `high`. `log` controls the once-per-edge
    /// stderr watermark messages.
    #[must_use]
    pub fn new(high: usize, low: usize, log: bool) -> Arc<GlobalBudget> {
        Arc::new(GlobalBudget {
            high,
            low: low.min(high),
            total: AtomicUsize::new(0),
            members: PoisonlessMutex::new(Vec::new()),
            shrinks: AtomicU64::new(0),
            high_crossings: AtomicU64::new(0),
            over_high: AtomicBool::new(false),
            shrinking: AtomicBool::new(false),
            log,
        })
    }

    /// Register a member for proportional shrinking. Members are held
    /// weakly: a dropped cache simply stops participating.
    pub fn register(&self, member: Weak<dyn Shrinkable>) {
        self.members.lock().push(member);
    }

    /// The high watermark in bytes.
    #[must_use]
    pub fn high(&self) -> usize {
        self.high
    }

    /// The low watermark in bytes.
    #[must_use]
    pub fn low(&self) -> usize {
        self.low
    }

    /// Accounted bytes currently reported by all attached caches.
    #[must_use]
    pub fn total(&self) -> usize {
        self.total.load(Ordering::Relaxed)
    }

    /// How many proportional shrink passes have run.
    #[must_use]
    pub fn shrinks(&self) -> u64 {
        self.shrinks.load(Ordering::Relaxed)
    }

    /// How many times the total has crossed the high watermark upward.
    #[must_use]
    pub fn high_crossings(&self) -> u64 {
        self.high_crossings.load(Ordering::Relaxed)
    }

    /// Report `delta` newly accounted bytes; may trigger a shrink pass.
    pub fn add(&self, delta: usize) {
        if delta == 0 {
            return;
        }
        let total = self.total.fetch_add(delta, Ordering::Relaxed) + delta;
        if total > self.high {
            self.shrink_all(total);
        }
    }

    /// Report `delta` released bytes.
    pub fn sub(&self, delta: usize) {
        if delta == 0 {
            return;
        }
        // Saturating: a racing clear() can momentarily over-report.
        let mut cur = self.total.load(Ordering::Relaxed);
        loop {
            let next = cur.saturating_sub(delta);
            match self
                .total
                .compare_exchange_weak(cur, next, Ordering::Relaxed, Ordering::Relaxed)
            {
                Ok(_) => {
                    cur = next;
                    break;
                }
                Err(now) => cur = now,
            }
        }
        if cur < self.low && self.over_high.swap(false, Ordering::Relaxed) && self.log {
            eprintln!(
                "facile: memory budget receded below low watermark ({} / {} bytes)",
                cur, self.low
            );
        }
    }

    /// Proportionally shrink every live member toward the low
    /// watermark. Re-entrancy (a shrink-triggered delta re-crossing the
    /// watermark) is cut off by a guard flag.
    fn shrink_all(&self, total_now: usize) {
        if self.shrinking.swap(true, Ordering::Acquire) {
            return;
        }
        if !self.over_high.swap(true, Ordering::Relaxed) {
            self.high_crossings.fetch_add(1, Ordering::Relaxed);
            if self.log {
                eprintln!(
                    "facile: memory budget crossed high watermark ({} / {} bytes); shrinking caches toward {} bytes",
                    total_now, self.high, self.low
                );
            }
        }
        let members: Vec<Arc<dyn Shrinkable>> = {
            let mut guard = self.members.lock();
            guard.retain(|w| w.strong_count() > 0);
            guard.iter().filter_map(Weak::upgrade).collect()
        };
        if !members.is_empty() && total_now > 0 {
            for m in &members {
                // Each member keeps its occupancy share of the low
                // watermark: target_i = bytes_i * low / total.
                let bytes = m.accounted_bytes();
                let target = ((bytes as u128 * self.low as u128) / total_now as u128) as usize;
                m.shrink_toward(target);
            }
            self.shrinks.fetch_add(1, Ordering::Relaxed);
        }
        self.shrinking.store(false, Ordering::Release);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cache(cap: usize) -> SlruCache<Box<[u8]>, Vec<u8>> {
        SlruCache::new("test", cap)
    }

    fn key(i: u32) -> Box<[u8]> {
        i.to_le_bytes().to_vec().into_boxed_slice()
    }

    #[test]
    fn read_hits_and_misses() {
        let c = cache(usize::MAX);
        assert!(c.read(&key(1)[..], |_| ()).is_none());
        c.insert(key(1), vec![7; 10]);
        assert_eq!(c.read(&key(1)[..], |v| v.len()), Some(10));
        assert_eq!(c.len(), 1);
        assert!(c.bytes() > 10);
    }

    #[test]
    fn byte_accounting_is_exact_and_clears() {
        let c = cache(usize::MAX);
        for i in 0..100 {
            c.insert(key(i), vec![0; i as usize]);
        }
        let expected: usize = (0..100u32)
            .map(|i| {
                ENTRY_OVERHEAD
                    + std::mem::size_of::<Box<[u8]>>()
                    + 2 * 4
                    + std::mem::size_of::<Vec<u8>>()
                    + i as usize
            })
            .sum();
        assert_eq!(c.bytes(), expected);
        c.clear();
        assert_eq!(c.bytes(), 0);
        assert_eq!(c.len(), 0);
        assert_eq!(c.evictions(), 0);
    }

    #[test]
    fn capacity_bounds_occupancy() {
        let c = cache(16 * 1024);
        for i in 0..10_000 {
            c.insert(key(i), vec![0; 64]);
        }
        assert!(c.bytes() <= 16 * 1024, "bytes {} over cap", c.bytes());
        assert!(c.evictions() > 0);
        assert!(c.len() < 10_000);
    }

    #[test]
    fn reused_entries_survive_a_streaming_scan() {
        // Touch a small hot set twice so it is promoted to protected,
        // then stream thousands of cold keys through; the hot set must
        // survive.
        let c = cache(SHARDS * 2048);
        for i in 0..8 {
            c.insert(key(i), vec![0; 16]);
        }
        for i in 0..8 {
            assert!(c.read(&key(i)[..], |_| ()).is_some());
        }
        // Force eviction scans so the referenced hot set is promoted.
        for i in 1000..9000 {
            c.insert(key(i), vec![0; 16]);
        }
        let survivors = (0..8).filter(|&i| contains(&c, &key(i))).count();
        assert!(
            survivors >= 6,
            "only {survivors}/8 hot entries survived the scan"
        );
    }

    /// Presence check without touching the clock bit.
    fn contains(c: &SlruCache<Box<[u8]>, Vec<u8>>, k: &[u8]) -> bool {
        let mut found = false;
        c.for_each(|key, _| {
            if &key[..] == k {
                found = true;
            }
        });
        found
    }

    #[test]
    fn update_in_place_reaccounts() {
        let c = cache(usize::MAX);
        c.insert(key(1), Vec::new());
        let before = c.bytes();
        c.get_or_insert_with(
            &key(1)[..],
            || key(1),
            Vec::new,
            |v| {
                *v = vec![0; 100];
            },
        );
        assert_eq!(c.bytes(), before + 100);
        assert_eq!(c.len(), 1);
        c.get_or_insert_with(
            &key(1)[..],
            || key(1),
            Vec::new,
            |v| {
                *v = vec![0; 10];
            },
        );
        assert_eq!(c.bytes(), before + 10);
    }

    #[test]
    fn shrink_to_and_set_capacity() {
        let c = cache(usize::MAX);
        for i in 0..1000 {
            c.insert(key(i), vec![0; 64]);
        }
        let full = c.bytes();
        c.shrink_to(full / 2);
        assert!(c.bytes() <= full / 2 + full / 8);
        c.set_capacity(4096);
        assert!(c.bytes() <= 4096);
        assert_eq!(c.capacity(), 4096);
    }

    #[test]
    fn budget_triggers_proportional_shrink_once_per_edge() {
        let a = Arc::new(cache(usize::MAX));
        let b = Arc::new(cache(usize::MAX));
        let budget = GlobalBudget::new(64 * 1024, 32 * 1024, false);
        budget.register(Arc::downgrade(&a) as Weak<dyn Shrinkable>);
        budget.register(Arc::downgrade(&b) as Weak<dyn Shrinkable>);
        a.set_budget(&budget);
        b.set_budget(&budget);
        for i in 0..400 {
            a.insert(key(i), vec![0; 64]);
            b.insert(key(i), vec![0; 192]);
        }
        assert!(budget.shrinks() >= 1);
        assert!(budget.high_crossings() >= 1);
        assert!(
            budget.total() <= budget.high(),
            "total {} stayed over high {}",
            budget.total(),
            budget.high()
        );
        assert_eq!(budget.total(), a.bytes() + b.bytes());
        // The bigger member gave back more.
        assert!(a.evictions() > 0 || b.evictions() > 0);
    }

    #[test]
    fn heap_size_impls() {
        assert_eq!(1u64.heap_bytes(), 0);
        assert_eq!(vec![1u8, 2, 3].heap_bytes(), vec![1u8, 2, 3].capacity());
        let b: Box<[u8]> = vec![1, 2, 3, 4].into();
        assert_eq!(b.heap_bytes(), 4);
        assert_eq!(String::with_capacity(32).heap_bytes(), 32);
        assert_eq!((vec![0u8; 7], 1u32).heap_bytes(), 7);
        assert_eq!(Some(vec![0u8; 5]).heap_bytes(), 5);
        assert_eq!(None::<Vec<u8>>.heap_bytes(), 0);
        let mut sv: crate::SmallVec<u8, 4> = crate::SmallVec::new();
        sv.extend([1, 2, 3]);
        assert_eq!(sv.heap_bytes(), 0);
        sv.extend([4, 5, 6]);
        assert!(sv.heap_bytes() >= 6);
    }
}
