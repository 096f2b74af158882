//! A small LRU cache for hot response bodies.
//!
//! Keys embed the engine's generation tag, so entries cached against
//! an older store generation simply stop being asked for after a
//! refresh (the server also clears the cache on swap, keeping the map
//! from accumulating dead generations). Hits, misses, and evictions
//! are counted per endpoint under
//! `serve.cache.{hit,miss,evict}{endpoint=...}`; eviction credits the
//! endpoint doing the inserting. Counter handles are fetched once per
//! endpoint and cached, so the steady-state cost per lookup is one
//! relaxed atomic increment, not a registry lock.
//!
//! A zero-capacity cache is a configuration error: [`LruCache::new`]
//! rejects it. Callers that genuinely want no caching (a daemon whose
//! `ServeOptions::cache_cap` is 0) use [`LruCache::disabled`] and skip
//! the cache path entirely via [`LruCache::is_enabled`].

use std::collections::HashMap;
use std::sync::Arc;
use telemetry::Counter;

/// Pre-fetched counter handles for one endpoint label.
#[derive(Debug)]
struct EndpointCounters {
    hit: Counter,
    miss: Counter,
    evict: Counter,
}

/// Least-recently-used response cache. Not thread-safe by itself; the
/// server wraps it in a mutex.
#[derive(Debug)]
pub struct LruCache {
    cap: usize,
    tick: u64,
    map: HashMap<String, (u64, Arc<Vec<u8>>)>,
    counters: HashMap<&'static str, EndpointCounters>,
}

impl LruCache {
    /// A cache holding at most `cap` bodies. `cap == 0` is rejected:
    /// a cache that can hold nothing silently turns every `put` into
    /// a no-op, which is a misconfiguration, not a cache. Use
    /// [`LruCache::disabled`] to opt out of caching explicitly.
    pub fn new(cap: usize) -> Result<LruCache, String> {
        if cap == 0 {
            return Err(
                "cache capacity 0 is invalid; use LruCache::disabled() to disable caching"
                    .to_string(),
            );
        }
        Ok(LruCache {
            cap,
            tick: 0,
            map: HashMap::with_capacity(cap.min(1024)),
            counters: HashMap::new(),
        })
    }

    /// An explicitly disabled cache: stores nothing, every lookup
    /// misses. [`LruCache::is_enabled`] lets the server skip the
    /// cache path (and its mutex) entirely.
    pub fn disabled() -> LruCache {
        LruCache {
            cap: 0,
            tick: 0,
            map: HashMap::new(),
            counters: HashMap::new(),
        }
    }

    /// False for a [`LruCache::disabled`] cache.
    pub fn is_enabled(&self) -> bool {
        self.cap > 0
    }

    fn counters(&mut self, endpoint: &'static str) -> &EndpointCounters {
        self.counters.entry(endpoint).or_insert_with(|| {
            let labels = &[("endpoint", endpoint)];
            EndpointCounters {
                hit: telemetry::counter_with("serve.cache.hit", labels),
                miss: telemetry::counter_with("serve.cache.miss", labels),
                evict: telemetry::counter_with("serve.cache.evict", labels),
            }
        })
    }

    /// Looks up `key`, refreshing its recency on a hit. The hit/miss
    /// is counted against `endpoint`.
    pub fn get(&mut self, key: &str, endpoint: &'static str) -> Option<Arc<Vec<u8>>> {
        self.tick += 1;
        let tick = self.tick;
        match self.map.get_mut(key) {
            Some((stamp, body)) => {
                *stamp = tick;
                let body = Arc::clone(body);
                self.counters(endpoint).hit.inc();
                Some(body)
            }
            None => {
                self.counters(endpoint).miss.inc();
                None
            }
        }
    }

    /// Inserts `key`, evicting the least-recently-used entry when
    /// full (counted against the inserting `endpoint`). The linear
    /// eviction scan is fine at the cache sizes the daemon runs with
    /// (hundreds of entries).
    pub fn put(&mut self, key: String, endpoint: &'static str, body: Arc<Vec<u8>>) {
        if self.cap == 0 {
            return;
        }
        self.tick += 1;
        if self.map.len() >= self.cap && !self.map.contains_key(&key) {
            if let Some(oldest) = self
                .map
                .iter()
                .min_by_key(|(_, (stamp, _))| *stamp)
                .map(|(k, _)| k.clone())
            {
                self.map.remove(&oldest);
                self.counters(endpoint).evict.inc();
            }
        }
        self.map.insert(key, (self.tick, body));
    }

    /// Drops every entry (called when a refresh swaps the engine).
    pub fn clear(&mut self) {
        self.map.clear();
    }

    /// Number of cached bodies.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn body(s: &str) -> Arc<Vec<u8>> {
        Arc::new(s.as_bytes().to_vec())
    }

    #[test]
    fn hit_miss_and_lru_eviction() {
        let mut cache = LruCache::new(2).unwrap();
        assert!(cache.is_enabled());
        assert!(cache.get("a", "classify").is_none());
        cache.put("a".into(), "classify", body("A"));
        cache.put("b".into(), "classify", body("B"));
        assert_eq!(*cache.get("a", "classify").unwrap(), b"A".to_vec());
        // `b` is now the least recently used entry: inserting `c`
        // evicts it, not `a`.
        cache.put("c".into(), "classify", body("C"));
        assert_eq!(cache.len(), 2);
        assert!(cache.get("b", "classify").is_none());
        assert!(cache.get("a", "classify").is_some());
        assert!(cache.get("c", "classify").is_some());
    }

    #[test]
    fn zero_capacity_is_rejected() {
        let err = LruCache::new(0).unwrap_err();
        assert!(err.contains("capacity 0"), "{err}");
    }

    #[test]
    fn disabled_cache_stores_nothing() {
        let mut cache = LruCache::disabled();
        assert!(!cache.is_enabled());
        cache.put("a".into(), "classify", body("A"));
        assert!(cache.get("a", "classify").is_none());
        assert!(cache.is_empty());
    }

    #[test]
    fn capacity_one_evicts_in_insertion_order() {
        // The degenerate capacity: every distinct insert evicts the
        // previous resident, and the survivor is always the newest.
        let mut cache = LruCache::new(1).unwrap();
        cache.put("a".into(), "classify", body("A"));
        assert!(cache.get("a", "classify").is_some());
        cache.put("b".into(), "churn", body("B"));
        assert_eq!(cache.len(), 1);
        assert!(cache.get("a", "classify").is_none(), "a was evicted");
        assert_eq!(*cache.get("b", "churn").unwrap(), b"B".to_vec());
        // Re-inserting the resident key must not evict it.
        cache.put("b".into(), "churn", body("B2"));
        assert_eq!(cache.len(), 1);
        assert_eq!(*cache.get("b", "churn").unwrap(), b"B2".to_vec());
    }

    #[test]
    fn counters_are_labeled_by_endpoint() {
        let tel = telemetry::Telemetry::new();
        let _in = tel.enter();
        let mut cache = LruCache::new(1).unwrap();
        cache.put("inv".into(), "campaigns", body("I"));
        assert!(cache.get("inv", "campaigns").is_some());
        assert!(cache.get("gone", "campaigns").is_none());
        let count = |name| {
            tel.registry()
                .counter_with(name, &[("endpoint", "campaigns")])
        };
        assert_eq!(count("serve.cache.hit").get(), 1);
        assert_eq!(count("serve.cache.miss").get(), 1);
    }

    #[test]
    fn clear_empties_the_map() {
        let mut cache = LruCache::new(4).unwrap();
        cache.put("a".into(), "classify", body("A"));
        cache.clear();
        assert!(cache.get("a", "classify").is_none());
    }
}
