//! Matcher-result posting cache.
//!
//! Regex and negative matchers can't use posting lists directly: the index
//! has to scan the label's whole value space (regex union) or walk every
//! candidate series (negatives). Dashboards re-issue the same selectors every
//! refresh, so memoizing `matcher set → series ids` turns that repeated scan
//! into a hash lookup.
//!
//! Correctness hinges on invalidation: every entry is tagged with the
//! [`LabelIndex`](crate::index::LabelIndex) generation it was computed at,
//! and the index bumps its generation on every series creation or removal.
//! A lookup with a newer generation treats the entry as dead — the cache can
//! never serve ids across a membership change.

use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

use parking_lot::Mutex;

use ceems_metrics::matcher::LabelMatcher;

use crate::types::SeriesId;

/// One memoized matcher resolution.
#[derive(Debug)]
struct Entry {
    /// Index generation the ids were computed at.
    generation: u64,
    /// Logical clock of the last hit, for LRU eviction.
    last_used: u64,
    /// The resolved, sorted series ids.
    ids: Arc<Vec<SeriesId>>,
}

/// LRU cache of matcher-set resolutions, generation-checked.
#[derive(Debug, Default)]
pub struct PostingCache {
    capacity: usize,
    clock: u64,
    entries: HashMap<String, Entry>,
    hits: u64,
    misses: u64,
}

/// Hit/miss counters, exposed for introspection and tests.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups served from the cache.
    pub hits: u64,
    /// Lookups that fell through to the index (including stale entries).
    pub misses: u64,
    /// Entries currently resident.
    pub len: usize,
}

impl PostingCache {
    /// Cache holding at most `capacity` entries. Zero disables caching:
    /// every lookup misses and inserts are dropped.
    pub fn new(capacity: usize) -> PostingCache {
        PostingCache {
            capacity,
            ..PostingCache::default()
        }
    }

    /// Fetches the ids for `key` if present and computed at `generation`.
    /// A stale entry (older generation) is evicted and reported as a miss.
    pub fn get(&mut self, key: &str, generation: u64) -> Option<Arc<Vec<SeriesId>>> {
        match self.entries.get_mut(key) {
            Some(e) if e.generation == generation => {
                self.clock += 1;
                e.last_used = self.clock;
                self.hits += 1;
                Some(Arc::clone(&e.ids))
            }
            Some(_) => {
                self.entries.remove(key);
                self.misses += 1;
                None
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    /// Stores a resolution computed at `generation`, evicting the least
    /// recently used entry if the cache is full.
    pub fn insert(&mut self, key: String, generation: u64, ids: Arc<Vec<SeriesId>>) {
        if self.capacity == 0 {
            return;
        }
        if self.entries.len() >= self.capacity && !self.entries.contains_key(&key) {
            if let Some(victim) = self
                .entries
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| k.clone())
            {
                self.entries.remove(&victim);
            }
        }
        self.clock += 1;
        self.entries.insert(
            key,
            Entry {
                generation,
                last_used: self.clock,
                ids,
            },
        );
    }

    /// Drops every entry (used when the caller wants a hard reset).
    pub fn clear(&mut self) {
        self.entries.clear();
    }

    /// Counters snapshot.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits,
            misses: self.misses,
            len: self.entries.len(),
        }
    }
}

/// Number of independently locked [`PostingCache`] shards. Concurrent
/// selects resolving different keys take different locks, so the cache no
/// longer serializes the resolve phase of selects on different threads.
const CACHE_SHARDS: usize = 8;

/// A [`PostingCache`] split over `CACHE_SHARDS` (8) independently locked
/// shards, keyed by key hash. Capacity is divided evenly (rounding up) so
/// the configured total is an upper bound across shards; LRU eviction is
/// per shard, an acceptable approximation for dashboard-shaped workloads.
#[derive(Debug)]
pub struct ShardedPostingCache {
    shards: Vec<Mutex<PostingCache>>,
}

impl ShardedPostingCache {
    /// Sharded cache holding at most ~`capacity` entries in total. Zero
    /// disables caching in every shard.
    pub fn new(capacity: usize) -> ShardedPostingCache {
        let shards = if capacity == 0 { 1 } else { CACHE_SHARDS.min(capacity) };
        let per_shard = capacity.div_ceil(shards);
        ShardedPostingCache {
            shards: (0..shards)
                .map(|_| Mutex::new(PostingCache::new(per_shard)))
                .collect(),
        }
    }

    fn shard(&self, key: &str) -> &Mutex<PostingCache> {
        let mut h = std::collections::hash_map::DefaultHasher::new();
        key.hash(&mut h);
        &self.shards[h.finish() as usize % self.shards.len()]
    }

    /// Fetches `key`'s ids if cached at `generation` (see
    /// [`PostingCache::get`]).
    pub fn get(&self, key: &str, generation: u64) -> Option<Arc<Vec<SeriesId>>> {
        self.shard(key).lock().get(key, generation)
    }

    /// Stores a resolution computed at `generation`.
    pub fn insert(&self, key: String, generation: u64, ids: Arc<Vec<SeriesId>>) {
        self.shard(&key).lock().insert(key, generation, ids);
    }

    /// Counters aggregated over all shards.
    pub fn stats(&self) -> CacheStats {
        let mut total = CacheStats::default();
        for shard in &self.shards {
            let s = shard.lock().stats();
            total.hits += s.hits;
            total.misses += s.misses;
            total.len += s.len;
        }
        total
    }
}

/// Canonical cache key for a matcher set, or `None` when the query is not
/// worth caching.
///
/// Exact-only selectors already resolve through sorted posting-list
/// intersections — caching them would just duplicate the index. Only sets
/// containing at least one regex or negative matcher (the scan-heavy shapes)
/// get a key. Matchers are rendered and sorted so `{a="1", b=~"x"}` and
/// `{b=~"x", a="1"}` share an entry.
pub fn cache_key(matchers: &[LabelMatcher]) -> Option<String> {
    if matchers.is_empty() || matchers.iter().all(|m| m.is_exact()) {
        return None;
    }
    let mut parts: Vec<String> = matchers.iter().map(|m| m.to_string()).collect();
    parts.sort_unstable();
    // 0x1f (unit separator) can't appear unescaped in a rendered matcher.
    Some(parts.join("\x1f"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ceems_metrics::matcher::MatchOp;

    fn ids(v: &[SeriesId]) -> Arc<Vec<SeriesId>> {
        Arc::new(v.to_vec())
    }

    #[test]
    fn hit_requires_matching_generation() {
        let mut c = PostingCache::new(4);
        c.insert("k".into(), 7, ids(&[1, 2]));
        assert_eq!(c.get("k", 7).as_deref(), Some(&vec![1, 2]));
        // Generation moved: stale entry must not be served.
        assert!(c.get("k", 8).is_none());
        // And it was evicted, not kept around.
        assert_eq!(c.stats().len, 0);
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let mut c = PostingCache::new(2);
        c.insert("a".into(), 1, ids(&[1]));
        c.insert("b".into(), 1, ids(&[2]));
        // Touch "a" so "b" becomes the LRU victim.
        assert!(c.get("a", 1).is_some());
        c.insert("c".into(), 1, ids(&[3]));
        assert!(c.get("b", 1).is_none());
        assert!(c.get("a", 1).is_some());
        assert!(c.get("c", 1).is_some());
    }

    #[test]
    fn zero_capacity_disables_caching() {
        let mut c = PostingCache::new(0);
        c.insert("k".into(), 1, ids(&[1]));
        assert!(c.get("k", 1).is_none());
        assert_eq!(c.stats().len, 0);
    }

    #[test]
    fn sharded_cache_round_trips_and_aggregates_stats() {
        // Capacity well above the key count so per-shard LRU never evicts
        // even under a skewed key→shard hash.
        let c = ShardedPostingCache::new(256);
        for i in 0..32u64 {
            c.insert(format!("k{i}"), 1, ids(&[i]));
        }
        for i in 0..32u64 {
            assert_eq!(c.get(&format!("k{i}"), 1).as_deref(), Some(&vec![i]));
        }
        assert!(c.get("k0", 2).is_none(), "stale generation must miss");
        let s = c.stats();
        assert_eq!(s.hits, 32);
        assert_eq!(s.misses, 1);
        assert_eq!(s.len, 31, "stale entry evicted on miss");
    }

    #[test]
    fn sharded_cache_zero_capacity_disables() {
        let c = ShardedPostingCache::new(0);
        c.insert("k".into(), 1, ids(&[1]));
        assert!(c.get("k", 1).is_none());
        assert_eq!(c.stats().len, 0);
    }

    #[test]
    fn key_skips_exact_only_and_empty_sets() {
        assert!(cache_key(&[]).is_none());
        assert!(cache_key(&[LabelMatcher::eq("a", "1")]).is_none());
        let re = LabelMatcher::new("b", MatchOp::Re, "x.*").unwrap();
        assert!(cache_key(&[LabelMatcher::eq("a", "1"), re]).is_some());
        let ne = LabelMatcher::new("b", MatchOp::Ne, "x").unwrap();
        assert!(cache_key(&[ne]).is_some());
    }

    #[test]
    fn key_is_order_insensitive() {
        let re = LabelMatcher::new("b", MatchOp::Re, "x.*").unwrap();
        let eq = LabelMatcher::eq("a", "1");
        let k1 = cache_key(&[eq.clone(), re.clone()]).unwrap();
        let k2 = cache_key(&[re, eq]).unwrap();
        assert_eq!(k1, k2);
    }

    #[test]
    fn key_distinguishes_different_sets() {
        let re1 = LabelMatcher::new("b", MatchOp::Re, "x.*").unwrap();
        let re2 = LabelMatcher::new("b", MatchOp::Re, "y.*").unwrap();
        assert_ne!(cache_key(std::slice::from_ref(&re1)), cache_key(&[re2]));
        let nre = LabelMatcher::new("b", MatchOp::Nre, "x.*").unwrap();
        assert_ne!(cache_key(&[re1]), cache_key(&[nre]));
    }
}
