//! Long-term storage: replication, downsampling and fan-in queries
//! (the Thanos role in the paper's Fig. 1).
//!
//! The hot TSDB keeps a bounded window; [`LongTermStore::replicate`] seals
//! windows into immutable [`Block`]s and simultaneously produces 5-minute
//! downsampled series (`avg/min/max/count` with a `__rollup__` label).
//! [`FanInQuerier`] answers PromQL selects across hot + cold transparently.

use parking_lot::RwLock;

use ceems_metrics::matcher::LabelMatcher;

use crate::block::Block;
use crate::promql::Queryable;
use crate::storage::Tsdb;
use crate::types::SeriesData;

/// Downsampling resolution (5 minutes, like Thanos' first level).
pub const DOWNSAMPLE_MS: i64 = 5 * 60 * 1000;

/// Label marking downsampled series.
pub const ROLLUP_LABEL: &str = "__rollup__";

/// The cold store.
#[derive(Default)]
pub struct LongTermStore {
    blocks: RwLock<Vec<Block>>,
    downsampled: Tsdb,
}

impl LongTermStore {
    /// Empty store.
    pub fn new() -> LongTermStore {
        LongTermStore::default()
    }

    /// Replicates everything in `[start, end]` from the hot TSDB into a new
    /// block, and appends downsampled aggregates. Returns the number of
    /// series replicated.
    pub fn replicate(&self, hot: &Tsdb, start_ms: i64, end_ms: i64) -> usize {
        let series = hot.select(&[], start_ms, end_ms);
        let n = series.len();
        if n == 0 {
            return 0;
        }
        for s in &series {
            self.downsample_series(s);
        }
        self.blocks.write().push(Block::from_series(series));
        n
    }

    fn downsample_series(&self, s: &SeriesData) {
        let mut window_start = None;
        let mut bucket: Vec<f64> = Vec::new();
        let flush = |start: i64, bucket: &mut Vec<f64>| {
            if bucket.is_empty() {
                return;
            }
            let t = start + DOWNSAMPLE_MS - 1;
            let sum: f64 = bucket.iter().sum();
            let count = bucket.len() as f64;
            let min = bucket.iter().copied().fold(f64::INFINITY, f64::min);
            let max = bucket.iter().copied().fold(f64::NEG_INFINITY, f64::max);
            for (rollup, v) in [
                ("avg", sum / count),
                ("min", min),
                ("max", max),
                ("count", count),
            ] {
                self.downsampled
                    .append(&s.labels.with(ROLLUP_LABEL, rollup), t, v);
            }
            bucket.clear();
        };
        for sample in &s.samples {
            let w = sample.t_ms - sample.t_ms.rem_euclid(DOWNSAMPLE_MS);
            match window_start {
                None => window_start = Some(w),
                Some(cur) if cur != w => {
                    flush(cur, &mut bucket);
                    window_start = Some(w);
                }
                _ => {}
            }
            bucket.push(sample.v);
        }
        if let Some(cur) = window_start {
            flush(cur, &mut bucket);
        }
    }

    /// Number of blocks held.
    pub fn block_count(&self) -> usize {
        self.blocks.read().len()
    }

    /// Total compressed bytes across blocks.
    pub fn byte_len(&self) -> usize {
        self.blocks.read().iter().map(|b| b.byte_len()).sum()
    }

    /// Raw (full-resolution) select across blocks.
    pub fn select_raw(&self, matchers: &[LabelMatcher], tmin: i64, tmax: i64) -> Vec<SeriesData> {
        let blocks = self.blocks.read();
        let mut by_labels: Vec<SeriesData> = Vec::new();
        for b in blocks.iter() {
            for s in b.select(matchers, tmin, tmax) {
                match by_labels.iter_mut().find(|e| e.labels == s.labels) {
                    Some(existing) => existing.samples.extend(s.samples),
                    None => by_labels.push(s),
                }
            }
        }
        for s in &mut by_labels {
            s.samples.sort_by_key(|x| x.t_ms);
            s.samples.dedup_by_key(|x| x.t_ms);
        }
        by_labels
    }

    /// Downsampled select: `rollup` is one of `avg/min/max/count`.
    pub fn select_downsampled(
        &self,
        matchers: &[LabelMatcher],
        rollup: &str,
        tmin: i64,
        tmax: i64,
    ) -> Vec<SeriesData> {
        let mut ms: Vec<LabelMatcher> = matchers.to_vec();
        ms.push(LabelMatcher::eq(ROLLUP_LABEL, rollup));
        self.downsampled
            .select(&ms, tmin, tmax)
            .into_iter()
            .map(|mut s| {
                s.labels = std::sync::Arc::new(s.labels.without(ROLLUP_LABEL));
                s
            })
            .collect()
    }
}

/// A queryable view over hot + cold storage: samples newer than the hot
/// horizon come from the hot TSDB, older ones from the cold store's raw
/// blocks, merged per series.
pub struct FanInQuerier {
    hot: std::sync::Arc<Tsdb>,
    cold: std::sync::Arc<LongTermStore>,
    /// Timestamps >= this are served by the hot TSDB.
    pub hot_horizon_ms: i64,
}

impl FanInQuerier {
    /// Creates the fan-in view.
    pub fn new(
        hot: std::sync::Arc<Tsdb>,
        cold: std::sync::Arc<LongTermStore>,
        hot_horizon_ms: i64,
    ) -> FanInQuerier {
        FanInQuerier {
            hot,
            cold,
            hot_horizon_ms,
        }
    }
}

impl Queryable for FanInQuerier {
    fn select(&self, matchers: &[LabelMatcher], tmin: i64, tmax: i64) -> Vec<SeriesData> {
        let wants_cold = tmin < self.hot_horizon_ms;
        let wants_hot = tmax >= self.hot_horizon_ms;

        // When the range straddles the horizon, scan the cold blocks on a
        // scoped sibling thread while this thread queries the hot TSDB.
        // Merge order stays cold-then-hot, so results match the sequential
        // path exactly.
        let (cold, hot) = if wants_cold && wants_hot {
            std::thread::scope(|scope| {
                let cold_handle = scope.spawn(|| {
                    self.cold
                        .select_raw(matchers, tmin, tmax.min(self.hot_horizon_ms - 1))
                });
                let hot = self.hot.select(matchers, tmin.max(self.hot_horizon_ms), tmax);
                (cold_handle.join().expect("cold fan-in panicked"), hot)
            })
        } else if wants_cold {
            (
                self.cold
                    .select_raw(matchers, tmin, tmax.min(self.hot_horizon_ms - 1)),
                Vec::new(),
            )
        } else {
            (
                Vec::new(),
                self.hot.select(matchers, tmin.max(self.hot_horizon_ms), tmax),
            )
        };

        let mut out: Vec<SeriesData> = Vec::new();
        for s in cold.into_iter().chain(hot) {
            match out.iter_mut().find(|e| e.labels == s.labels) {
                Some(existing) => existing.samples.extend(s.samples),
                None => out.push(s),
            }
        }
        for s in &mut out {
            s.samples.sort_by_key(|x| x.t_ms);
            s.samples.dedup_by_key(|x| x.t_ms);
        }
        out.retain(|s| !s.samples.is_empty());
        // Cold-then-hot first-seen order depends on which side of the
        // horizon the window touches; `Queryable::select` promises an
        // order that does not depend on the window.
        out.sort_by(|a, b| a.labels.cmp(&b.labels));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ceems_metrics::labels;
    use std::sync::Arc;

    fn hot_with_data(n_minutes: i64) -> Tsdb {
        let hot = Tsdb::default();
        let ls = labels! {"__name__" => "power_watts", "instance" => "n1"};
        for i in 0..(n_minutes * 4) {
            hot.append(&ls, i * 15_000, 100.0 + (i % 4) as f64);
        }
        hot
    }

    #[test]
    fn replicate_builds_blocks_and_downsamples() {
        let hot = hot_with_data(30);
        let lt = LongTermStore::new();
        let n = lt.replicate(&hot, 0, 15 * 60_000 - 1);
        assert_eq!(n, 1);
        assert_eq!(lt.block_count(), 1);

        let raw = lt.select_raw(&[LabelMatcher::eq("instance", "n1")], 0, i64::MAX);
        assert_eq!(raw.len(), 1);
        assert_eq!(raw[0].samples.len(), 60); // 15 min at 15 s

        // Downsampled: 3 windows of 5 min.
        let avg = lt.select_downsampled(&[], "avg", 0, i64::MAX);
        assert_eq!(avg.len(), 1);
        assert_eq!(avg[0].samples.len(), 3);
        assert!((avg[0].samples[0].v - 101.5).abs() < 1e-9);
        let count = lt.select_downsampled(&[], "count", 0, i64::MAX);
        assert_eq!(count[0].samples[0].v, 20.0);
        let max = lt.select_downsampled(&[], "max", 0, i64::MAX);
        assert_eq!(max[0].samples[0].v, 103.0);
        // Rollup label stripped from results.
        assert_eq!(avg[0].labels.get(ROLLUP_LABEL), None);
    }

    #[test]
    fn replicate_empty_window_is_noop() {
        let hot = Tsdb::default();
        let lt = LongTermStore::new();
        assert_eq!(lt.replicate(&hot, 0, 1000), 0);
        assert_eq!(lt.block_count(), 0);
    }

    #[test]
    fn fan_in_merges_hot_and_cold() {
        let hot = Arc::new(hot_with_data(30));
        let lt = Arc::new(LongTermStore::new());
        // Seal the first 15 minutes into the cold store, then drop them
        // from the hot TSDB via retention.
        lt.replicate(&hot, 0, 15 * 60_000 - 1);
        let horizon = 15 * 60_000;
        let fan = FanInQuerier::new(hot.clone(), lt.clone(), horizon);

        let got = fan.select(&[LabelMatcher::eq("__name__", "power_watts")], 0, i64::MAX);
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].samples.len(), 120);
        // Continuity across the horizon.
        assert!(got[0].samples.windows(2).all(|w| w[0].t_ms < w[1].t_ms));

        // Cold-only range.
        let got = fan.select(&[], 0, 10 * 60_000);
        assert_eq!(got[0].samples.len(), 41);
        // Hot-only range.
        let got = fan.select(&[], 20 * 60_000, 25 * 60_000);
        assert_eq!(got[0].samples.len(), 21);
    }

    #[test]
    fn fan_in_supports_promql() {
        use crate::promql::{instant_query, parse_expr, Value};
        let hot = Arc::new(hot_with_data(30));
        let lt = Arc::new(LongTermStore::new());
        lt.replicate(&hot, 0, 15 * 60_000 - 1);
        let fan = FanInQuerier::new(hot, lt, 15 * 60_000);
        let v = instant_query(
            &fan,
            &parse_expr("avg_over_time(power_watts[10m])").unwrap(),
            12 * 60_000,
        )
        .unwrap();
        let Value::Vector(v) = v else { panic!() };
        assert_eq!(v.len(), 1);
        assert!((v[0].1 - 101.5).abs() < 0.2);
    }
}
