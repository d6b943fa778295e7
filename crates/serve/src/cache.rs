//! The result cache: canonical request key → finished exploration.
//!
//! Soundness rests on PR 1's determinism contract: a `FlowReport` is a
//! pure function of the canonical request (benchmark, machine, algorithm,
//! seed, repeats, effort), independent of worker count or wall-clock, so
//! an exact key match can be served verbatim — the cached bytes are what a
//! fresh run would produce. Eviction is LRU with a fixed entry cap; hit and
//! miss counts are kept for `/metrics`.

use std::collections::{HashMap, VecDeque};
use std::sync::{Arc, Mutex};

use isex_engine::{lock_unpoisoned, RunMetrics};
use isex_flow::FlowReport;

/// A finished exploration, shared between the cache and in-flight waiters.
#[derive(Clone, Debug)]
pub struct CachedResult {
    /// The whole-program report.
    pub report: FlowReport,
    /// The producing run's telemetry (returned verbatim on hits — the
    /// provenance fields describe the run that actually computed it).
    pub metrics: RunMetrics,
}

/// Cache counters for `/metrics`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that fell through to the engine.
    pub misses: u64,
    /// Entries currently held.
    pub entries: usize,
    /// Entry cap.
    pub capacity: usize,
}

impl CacheStats {
    /// Hits over lookups, 0.0 when nothing was looked up.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

struct Inner {
    map: HashMap<String, Arc<CachedResult>>,
    /// Keys from least- to most-recently used.
    order: VecDeque<String>,
    hits: u64,
    misses: u64,
}

/// A bounded, counted, LRU result cache.
pub struct ResultCache {
    inner: Mutex<Inner>,
    capacity: usize,
}

impl ResultCache {
    /// A cache holding at most `capacity` results (`0` disables caching:
    /// every lookup misses and inserts are dropped).
    pub fn new(capacity: usize) -> Self {
        ResultCache {
            inner: Mutex::new(Inner {
                map: HashMap::new(),
                order: VecDeque::new(),
                hits: 0,
                misses: 0,
            }),
            capacity,
        }
    }

    /// Looks up `key`, counting the outcome and refreshing LRU order on a
    /// hit.
    pub fn lookup(&self, key: &str) -> Option<Arc<CachedResult>> {
        let mut inner = lock_unpoisoned(&self.inner);
        match inner.map.get(key).cloned() {
            Some(hit) => {
                inner.hits += 1;
                if let Some(pos) = inner.order.iter().position(|k| k == key) {
                    inner.order.remove(pos);
                    inner.order.push_back(key.to_string());
                }
                Some(hit)
            }
            None => {
                inner.misses += 1;
                None
            }
        }
    }

    /// Inserts a finished result, evicting the least-recently-used entry
    /// when full. Re-inserting an existing key refreshes its entry.
    pub fn insert(&self, key: String, result: Arc<CachedResult>) {
        if self.capacity == 0 {
            return;
        }
        let mut inner = lock_unpoisoned(&self.inner);
        if inner.map.insert(key.clone(), result).is_none() {
            inner.order.push_back(key);
            while inner.order.len() > self.capacity {
                if let Some(evicted) = inner.order.pop_front() {
                    inner.map.remove(&evicted);
                }
            }
        }
    }

    /// Current counters.
    pub fn stats(&self) -> CacheStats {
        let inner = lock_unpoisoned(&self.inner);
        CacheStats {
            hits: inner.hits,
            misses: inner.misses,
            entries: inner.map.len(),
            capacity: self.capacity,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn result() -> Arc<CachedResult> {
        Arc::new(CachedResult {
            report: FlowReport {
                program: "t".into(),
                selected: Vec::new(),
                total_area: 0.0,
                cycles_before: 1,
                cycles_after: 1,
                per_block: Vec::new(),
                explored_blocks: 0,
                iterations: 0,
                degraded: false,
            },
            metrics: RunMetrics::empty(0, 1),
        })
    }

    #[test]
    fn counts_hits_and_misses() {
        let cache = ResultCache::new(4);
        assert!(cache.lookup("a").is_none());
        cache.insert("a".into(), result());
        assert!(cache.lookup("a").is_some());
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.entries), (1, 1, 1));
        assert!((s.hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn evicts_least_recently_used() {
        let cache = ResultCache::new(2);
        cache.insert("a".into(), result());
        cache.insert("b".into(), result());
        assert!(cache.lookup("a").is_some()); // refresh a; b is now LRU
        cache.insert("c".into(), result());
        assert!(cache.lookup("b").is_none(), "b was evicted");
        assert!(cache.lookup("a").is_some());
        assert!(cache.lookup("c").is_some());
    }

    #[test]
    fn zero_capacity_disables_caching() {
        let cache = ResultCache::new(0);
        cache.insert("a".into(), result());
        assert!(cache.lookup("a").is_none());
        assert_eq!(cache.stats().entries, 0);
    }
}
