//! The sharded LRU raw-SQL result cache.
//!
//! The TCP `sql` op evaluates client-supplied statements; repeated
//! statements cost a hash probe instead of a parse and an execution.
//! Entries are keyed by the [`normalize_sql`]'d client text, so spellings
//! that differ only in whitespace, keyword case or a trailing `;` share
//! one entry. Text normalization lives **only** at that boundary, where
//! text is the input format.
//!
//! ## Why Algorithm 2's assignments are not cached
//!
//! `suggest` evaluates thousands of assignments per claim, each a ~10
//! instruction postfix program over `f64`s (see `scrutinizer_core::qgen`).
//! Caching them was measured and lost: a probe builds a key, hashes it,
//! locks a shard, relinks the LRU and bumps counters shared across cores,
//! which costs more than the evaluation it skips. On the checker-loop
//! benchmark's `small_binary` workload (2-core container) the cache
//! answered 96 % of ~8,800 lookups per suggest, yet evaluating every
//! assignment directly cut the per-suggest `execute` stage from 4.3 ms
//! to 0.23 ms and `suggest_p50_ms` from 5.4 ms to 0.56 ms. In-process
//! (the `engine` bench), the 12-claim suggestion pipeline took 7.3 ms
//! with a warm cache and 12.6 ms with a cold one, against 2.1 ms with
//! none.
//!
//! ## Structure
//!
//! The map is split into power-of-two shards, each an independent
//! `Mutex<LruShard>`; a key touches exactly one shard, so concurrent
//! sessions rarely contend. Each shard is a classic intrusive-list LRU
//! over a slab of nodes — no allocation churn on hits, O(1) touch and
//! eviction. Hit/miss counters are global atomics (see
//! [`stats`](crate::stats)).

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::hash::{BuildHasher, Hash};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use scrutinizer_data::hash::FxBuildHasher;

/// The cached outcome of evaluating one query.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CachedResult {
    /// The query evaluated to this finite value.
    Value(f64),
    /// Evaluation failed (parse error, missing cell, non-numeric operand,
    /// non-finite result). Failures are cached too: a client re-sending a
    /// bad statement costs a probe, not a parse.
    Failed,
}

impl CachedResult {
    /// The value, if the query evaluated.
    pub fn value(self) -> Option<f64> {
        match self {
            CachedResult::Value(v) => Some(v),
            CachedResult::Failed => None,
        }
    }
}

const NIL: u32 = u32::MAX;

struct Node<K> {
    key: K,
    result: CachedResult,
    prev: u32,
    next: u32,
}

/// One LRU shard: slab-backed intrusive doubly-linked list, most recent at
/// `head`.
struct LruShard<K> {
    map: HashMap<K, u32, FxBuildHasher>,
    nodes: Vec<Node<K>>,
    free: Vec<u32>,
    head: u32,
    tail: u32,
    capacity: usize,
}

impl<K: Hash + Eq + Clone> LruShard<K> {
    fn new(capacity: usize) -> Self {
        LruShard {
            map: HashMap::with_hasher(FxBuildHasher::default()),
            nodes: Vec::with_capacity(capacity.min(1024)),
            free: Vec::new(),
            head: NIL,
            tail: NIL,
            capacity: capacity.max(1),
        }
    }

    fn unlink(&mut self, index: u32) {
        let (prev, next) = {
            let node = &self.nodes[index as usize];
            (node.prev, node.next)
        };
        if prev != NIL {
            self.nodes[prev as usize].next = next;
        } else {
            self.head = next;
        }
        if next != NIL {
            self.nodes[next as usize].prev = prev;
        } else {
            self.tail = prev;
        }
    }

    fn push_front(&mut self, index: u32) {
        let old_head = self.head;
        {
            let node = &mut self.nodes[index as usize];
            node.prev = NIL;
            node.next = old_head;
        }
        if old_head != NIL {
            self.nodes[old_head as usize].prev = index;
        } else {
            self.tail = index;
        }
        self.head = index;
    }

    fn get(&mut self, key: &K) -> Option<CachedResult> {
        let index = *self.map.get(key)?;
        if index != self.head {
            self.unlink(index);
            self.push_front(index);
        }
        Some(self.nodes[index as usize].result)
    }

    fn insert(&mut self, key: K, result: CachedResult) {
        match self.map.entry(key) {
            Entry::Occupied(slot) => {
                let index = *slot.get();
                self.nodes[index as usize].result = result;
                if index != self.head {
                    self.unlink(index);
                    self.push_front(index);
                }
            }
            Entry::Vacant(slot) => {
                let key = slot.key().clone();
                let index = if let Some(reused) = self.free.pop() {
                    let node = &mut self.nodes[reused as usize];
                    node.key = key;
                    node.result = result;
                    reused
                } else {
                    let index = self.nodes.len() as u32;
                    self.nodes.push(Node {
                        key,
                        result,
                        prev: NIL,
                        next: NIL,
                    });
                    index
                };
                slot.insert(index);
                self.push_front(index);
                if self.map.len() > self.capacity {
                    let victim = self.tail;
                    debug_assert_ne!(victim, NIL);
                    self.unlink(victim);
                    // disjoint field borrows: no key clone under the lock
                    self.map.remove(&self.nodes[victim as usize].key);
                    self.free.push(victim);
                }
            }
        }
    }

    fn clear(&mut self) {
        self.map.clear();
        self.nodes.clear();
        self.free.clear();
        self.head = NIL;
        self.tail = NIL;
    }
}

/// The concurrent, sharded query-result cache, generic over the key (the
/// engine keys it with [`normalize_sql`]'d statement text).
pub struct QueryCache<K = String> {
    shards: Vec<Mutex<LruShard<K>>>,
    shard_bits: u32,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl<K: Hash + Eq + Clone> QueryCache<K> {
    /// A cache holding up to `capacity` entries across `shards` shards
    /// (rounded up to a power of two).
    pub fn new(capacity: usize, shards: usize) -> Self {
        let shard_count = shards.clamp(1, 1024).next_power_of_two();
        let per_shard = capacity.div_ceil(shard_count).max(1);
        QueryCache {
            shards: (0..shard_count)
                .map(|_| Mutex::new(LruShard::new(per_shard)))
                .collect(),
            shard_bits: shard_count.trailing_zeros(),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    fn shard_for(&self, key: &K) -> &Mutex<LruShard<K>> {
        if self.shard_bits == 0 {
            return &self.shards[0];
        }
        // FxHash's low bits are nearly constant for short keys; Fibonacci-mix
        // and take the top bits for the shard index instead.
        let hashed = FxBuildHasher::default().hash_one(key);
        let mixed = hashed.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        &self.shards[(mixed >> (64 - self.shard_bits)) as usize]
    }

    /// Looks up `key`, counting the hit or miss.
    pub fn get(&self, key: &K) -> Option<CachedResult> {
        let found = self
            .shard_for(key)
            .lock()
            .expect("cache shard poisoned")
            .get(key);
        match found {
            Some(_) => self.hits.fetch_add(1, Ordering::Relaxed),
            None => self.misses.fetch_add(1, Ordering::Relaxed),
        };
        found
    }

    /// Inserts (or refreshes) `key`.
    pub fn insert(&self, key: K, result: CachedResult) {
        self.shard_for(&key)
            .lock()
            .expect("cache shard poisoned")
            .insert(key, result);
    }

    /// Looks up `key`, computing and caching on a miss. The closure runs
    /// outside every shard lock, so concurrent misses on one shard don't
    /// serialize their evaluations.
    pub fn get_or_insert_with(
        &self,
        key: &K,
        evaluate: impl FnOnce() -> CachedResult,
    ) -> CachedResult {
        if let Some(found) = self.get(key) {
            return found;
        }
        let computed = evaluate();
        self.insert(key.clone(), computed);
        computed
    }

    /// Entries currently cached.
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().expect("cache shard poisoned").map.len())
            .sum()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drops every entry (counters are kept; they describe traffic, not
    /// contents).
    pub fn clear(&self) {
        for shard in &self.shards {
            shard.lock().expect("cache shard poisoned").clear();
        }
    }

    /// Lifetime hits.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Lifetime misses.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Lifetime hit rate in `[0, 1]` (0 when unused).
    pub fn hit_rate(&self) -> f64 {
        let hits = self.hits() as f64;
        let total = hits + self.misses() as f64;
        if total == 0.0 {
            0.0
        } else {
            hits / total
        }
    }
}

/// Canonicalizes SQL text for cache keying: collapses whitespace runs,
/// uppercases bare keywords, trims, and strips a trailing semicolon.
/// Quoted strings pass through untouched. Used only at the raw-SQL TCP
/// endpoint boundary.
pub fn normalize_sql(sql: &str) -> String {
    const KEYWORDS: [&str; 5] = ["SELECT", "FROM", "WHERE", "AND", "OR"];
    let mut out = String::with_capacity(sql.len());
    let mut chars = sql.trim().trim_end_matches(';').trim().chars().peekable();
    let mut word = String::new();
    let mut pending_space = false;
    let flush_word = |out: &mut String, word: &mut String| {
        if word.is_empty() {
            return;
        }
        let upper = word.to_ascii_uppercase();
        if KEYWORDS.contains(&upper.as_str()) {
            out.push_str(&upper);
        } else {
            out.push_str(word);
        }
        word.clear();
    };
    while let Some(c) = chars.next() {
        match c {
            '\'' => {
                flush_word(&mut out, &mut word);
                if pending_space {
                    out.push(' ');
                    pending_space = false;
                }
                out.push('\'');
                for inner in chars.by_ref() {
                    out.push(inner);
                    if inner == '\'' {
                        break;
                    }
                }
            }
            c if c.is_whitespace() => {
                flush_word(&mut out, &mut word);
                pending_space = !out.is_empty();
            }
            c => {
                if word.is_empty() && pending_space {
                    out.push(' ');
                    pending_space = false;
                }
                word.push(c);
            }
        }
    }
    flush_word(&mut out, &mut word);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_after_insert_miss_before() {
        let cache: QueryCache<String> = QueryCache::new(64, 4);
        assert_eq!(cache.get(&"q:a".to_string()), None);
        cache.insert("q:a".to_string(), CachedResult::Value(1.5));
        assert_eq!(
            cache.get(&"q:a".to_string()),
            Some(CachedResult::Value(1.5))
        );
        assert_eq!(cache.hits(), 1);
        assert_eq!(cache.misses(), 1);
        assert!((cache.hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn failed_evaluations_are_cached_too() {
        let cache: QueryCache<String> = QueryCache::new(8, 1);
        let mut calls = 0;
        for _ in 0..3 {
            let result = cache.get_or_insert_with(&"q:bad".to_string(), || {
                calls += 1;
                CachedResult::Failed
            });
            assert_eq!(result, CachedResult::Failed);
        }
        assert_eq!(calls, 1);
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let cache: QueryCache<String> = QueryCache::new(2, 1);
        cache.insert("a".to_string(), CachedResult::Value(1.0));
        cache.insert("b".to_string(), CachedResult::Value(2.0));
        assert!(cache.get(&"a".to_string()).is_some()); // refresh a; b is now oldest
        cache.insert("c".to_string(), CachedResult::Value(3.0));
        assert_eq!(
            cache.get(&"b".to_string()),
            None,
            "b should have been evicted"
        );
        assert!(cache.get(&"a".to_string()).is_some());
        assert!(cache.get(&"c".to_string()).is_some());
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn reinsert_updates_in_place() {
        let cache: QueryCache<String> = QueryCache::new(4, 1);
        cache.insert("a".to_string(), CachedResult::Value(1.0));
        cache.insert("a".to_string(), CachedResult::Value(9.0));
        assert_eq!(cache.get(&"a".to_string()), Some(CachedResult::Value(9.0)));
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn clear_empties_every_shard() {
        let cache: QueryCache<String> = QueryCache::new(100, 8);
        for i in 0..100 {
            cache.insert(format!("k{i}"), CachedResult::Value(i as f64));
        }
        assert!(!cache.is_empty());
        cache.clear();
        assert!(cache.is_empty());
    }

    #[test]
    fn heavy_insertion_respects_capacity() {
        let cache: QueryCache<String> = QueryCache::new(128, 8);
        for i in 0..10_000 {
            cache.insert(format!("key-{i}"), CachedResult::Value(i as f64));
        }
        assert!(
            cache.len() <= 128 + 8,
            "len {} exceeds capacity slack",
            cache.len()
        );
    }

    #[test]
    fn normalize_sql_canonicalizes() {
        assert_eq!(
            normalize_sql("  select a.2017   from GED a\n where a.Index = 'PG  x' ; "),
            "SELECT a.2017 FROM GED a WHERE a.Index = 'PG  x'"
        );
        assert_eq!(
            normalize_sql("SELECT 1 FROM T a WHERE x AND y"),
            normalize_sql("select  1\tfrom T a where x and y;")
        );
    }

    #[test]
    fn plan_keyed_cache_round_trips() {
        let cache: QueryCache = QueryCache::new(16, 2);
        let key = normalize_sql("select  a.2017 from T a;");
        assert_eq!(cache.get(&key), None);
        cache.insert(key.clone(), CachedResult::Value(4.0));
        assert_eq!(
            cache.get(&normalize_sql("SELECT a.2017\nFROM T a")),
            Some(CachedResult::Value(4.0)),
            "normalized spellings share one entry"
        );
        let bad = normalize_sql("select nope from T a");
        cache.insert(bad.clone(), CachedResult::Failed);
        assert_eq!(cache.get(&bad), Some(CachedResult::Failed));
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn concurrent_access_is_consistent() {
        use std::sync::Arc;
        let cache: Arc<QueryCache<String>> = Arc::new(QueryCache::new(1024, 16));
        let handles: Vec<_> = (0..8)
            .map(|t| {
                let cache = Arc::clone(&cache);
                std::thread::spawn(move || {
                    for i in 0..2_000u64 {
                        let key = format!("k{}", (t * 7 + i) % 500);
                        let got = cache.get_or_insert_with(&key, || {
                            CachedResult::Value(((t * 7 + i) % 500) as f64)
                        });
                        assert_eq!(got, CachedResult::Value(((t * 7 + i) % 500) as f64));
                    }
                })
            })
            .collect();
        for handle in handles {
            handle.join().unwrap();
        }
        assert!(cache.hits() > 0);
    }
}
