//! Step-aligned, extent-based results cache.
//!
//! Keys combine the tenant, the *normalized* expression (so formatting
//! variants share entries), the step, the grid phase (`start mod step` —
//! two requests only share grid points when their phases match), and the
//! extent's exact step span. Interior extents of a split query always span
//! their full aligned window, so they are shared by any request that
//! covers that window on the same grid; boundary extents are reused by
//! repeats of the same request shape (the dominant dashboard-reload case).
//!
//! Values are immutable [`ExtentData`] snapshots of past results. The
//! frontend never inserts extents newer than `now − recent_window`, so
//! entries describe settled history and need no invalidation. A byte
//! budget bounds the cache, charged with each extent's heap footprint;
//! eviction is least-recently-used.

use std::collections::HashMap;
use std::mem::size_of;
use std::sync::Arc;

use parking_lot::Mutex;

use ceems_metrics::labels::LabelSet;
use ceems_tsdb::{Sample, SeriesData};

use crate::split::ExtentData;

/// What an extent holds on the heap: its series, each one's shared label
/// set (every label a pair of shared strings) and its samples.
fn footprint(data: &ExtentData) -> usize {
    // An `Arc`'s allocation carries two counts before its value.
    const ARC: usize = 2 * size_of::<usize>();
    let series = |s: &SeriesData| {
        let labels: usize = s
            .labels
            .iter()
            .map(|(k, v)| 2 * (size_of::<Arc<str>>() + ARC) + k.len() + v.len())
            .sum();
        size_of::<SeriesData>()
            + ARC
            + size_of::<LabelSet>()
            + labels
            + s.samples.capacity() * size_of::<Sample>()
    };
    size_of::<ExtentData>() + data.iter().map(series).sum::<usize>()
}

/// Cache key: one extent of one logical query shape for one tenant.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct ExtentKey {
    /// Tenant (from `X-Grafana-User`; empty for anonymous).
    pub tenant: String,
    /// Normalized expression rendering.
    pub expr: String,
    /// Step width (ms).
    pub step_ms: i64,
    /// Grid phase: `start.rem_euclid(step)` (ms).
    pub phase_ms: i64,
    /// First step of the extent (ms).
    pub first_step_ms: i64,
    /// Last step of the extent (ms).
    pub last_step_ms: i64,
}

struct Entry {
    data: Arc<ExtentData>,
    bytes: usize,
    last_used: u64,
}

struct Inner {
    map: HashMap<ExtentKey, Entry>,
    bytes: usize,
    tick: u64,
}

/// A byte-bounded LRU over extent results. `capacity_bytes == 0` disables
/// the cache (every lookup misses, inserts are dropped).
pub struct ResultsCache {
    capacity_bytes: usize,
    inner: Mutex<Inner>,
}

impl ResultsCache {
    /// Creates a cache with the given byte budget.
    pub fn new(capacity_bytes: usize) -> ResultsCache {
        ResultsCache {
            capacity_bytes,
            inner: Mutex::new(Inner { map: HashMap::new(), bytes: 0, tick: 0 }),
        }
    }

    /// Current resident bytes.
    pub fn bytes(&self) -> usize {
        self.inner.lock().bytes
    }

    /// Number of cached extents.
    pub fn len(&self) -> usize {
        self.inner.lock().map.len()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Fetches an extent, refreshing its recency.
    pub fn get(&self, key: &ExtentKey) -> Option<Arc<ExtentData>> {
        let mut inner = self.inner.lock();
        inner.tick += 1;
        let tick = inner.tick;
        let entry = inner.map.get_mut(key)?;
        entry.last_used = tick;
        Some(entry.data.clone())
    }

    /// Inserts an extent, evicting least-recently-used entries if the byte
    /// budget overflows. Entries larger than the whole budget are dropped.
    pub fn put(&self, key: ExtentKey, data: Arc<ExtentData>) {
        let bytes = footprint(&data);
        if bytes > self.capacity_bytes {
            return;
        }
        let mut inner = self.inner.lock();
        inner.tick += 1;
        let tick = inner.tick;
        if let Some(old) = inner.map.insert(key, Entry { data, bytes, last_used: tick }) {
            inner.bytes -= old.bytes;
        }
        inner.bytes += bytes;
        while inner.bytes > self.capacity_bytes {
            // O(n) victim scan; entry counts stay small (each entry is a
            // whole extent, not a sample).
            let victim = inner
                .map
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| k.clone());
            match victim {
                Some(k) => {
                    if let Some(e) = inner.map.remove(&k) {
                        inner.bytes -= e.bytes;
                    }
                }
                None => break,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ceems_metrics::labels;

    fn key(first: i64) -> ExtentKey {
        ExtentKey {
            tenant: "alice".into(),
            expr: "sum(x)".into(),
            step_ms: 15_000,
            phase_ms: 0,
            first_step_ms: first,
            last_step_ms: first + 60_000,
        }
    }

    fn data(samples: usize) -> Arc<ExtentData> {
        let samples = (0..samples as i64)
            .map(|i| Sample::new(i * 15_000, 1.0))
            .collect();
        Arc::new(vec![SeriesData::new(labels! {"__name__" => "x"}, samples)])
    }

    #[test]
    fn get_put_and_lru_eviction() {
        let one = footprint(&data(10));
        let cache = ResultsCache::new(one * 2 + one / 2); // room for 2
        cache.put(key(0), data(10));
        cache.put(key(1), data(10));
        assert!(cache.get(&key(0)).is_some());
        assert_eq!(cache.len(), 2);
        // Touch key(0) so key(1) is the LRU victim.
        cache.get(&key(0));
        cache.put(key(2), data(10));
        assert_eq!(cache.len(), 2);
        assert!(cache.get(&key(1)).is_none());
        assert!(cache.get(&key(0)).is_some());
        assert!(cache.get(&key(2)).is_some());
        assert!(cache.bytes() <= one * 2 + one / 2);
    }

    #[test]
    fn zero_budget_disables() {
        let cache = ResultsCache::new(0);
        cache.put(key(0), data(1));
        assert!(cache.get(&key(0)).is_none());
        assert!(cache.is_empty());
    }

    #[test]
    fn oversized_entry_rejected() {
        let cache = ResultsCache::new(64);
        cache.put(key(0), data(1000));
        assert!(cache.is_empty());
    }
}
