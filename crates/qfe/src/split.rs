//! Range-splitting arithmetic and result merging.
//!
//! A `query_range` request evaluates the expression on the step grid
//! `start, start+step, …, ≤ end`. This engine evaluates every step
//! independently (see `ceems_tsdb::promql::eval::range_query`), so
//! partitioning the *grid* across sub-requests — rather than the wall-clock
//! interval — reproduces the unsplit evaluation exactly: each step is
//! computed by exactly one sub-request, against the same storage, with the
//! same per-step lookback. The split boundaries are `split_interval`-aligned
//! in absolute time ("day-aligned" at the default interval), which is what
//! makes interior extents shareable between requests with different
//! endpoints.
//!
//! Merging reconstructs the unsplit response *byte for byte*: extents are
//! typed series decoded by `ceems_tsdb::promapi`, whose encoder is the
//! TSDB's own and for which decode∘encode is the identity, and series order
//! is rebuilt by the first-seen rule the unsplit evaluator uses (see
//! [`merge_extents`]). The merge of a single fetched extent would write
//! the bytes the TSDB sent, so the frontend does not run it: an untraced
//! one-extent miss is relayed as the TSDB wrote it, and decoded only when
//! the extent goes into the cache.

use std::collections::hash_map::{Entry, HashMap};

use ceems_metrics::labels::LabelSet;
use ceems_tsdb::SeriesData;

/// The evaluation grid of a `query_range` request (all times in ms).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct StepGrid {
    /// First step.
    pub start_ms: i64,
    /// Inclusive upper bound; the last step is the largest grid point ≤ this.
    pub end_ms: i64,
    /// Step width (> 0).
    pub step_ms: i64,
}

impl StepGrid {
    /// All step timestamps, ascending.
    pub fn steps(self) -> impl Iterator<Item = i64> {
        let (start, end, step) = (self.start_ms, self.end_ms, self.step_ms);
        (0..).map(move |i| start + i * step).take_while(move |t| *t <= end)
    }

    /// True when the grid holds no steps (`start > end`).
    pub fn is_empty(&self) -> bool {
        self.start_ms > self.end_ms
    }

    /// Number of steps.
    pub fn len(&self) -> usize {
        if self.is_empty() {
            0
        } else {
            ((self.end_ms - self.start_ms) / self.step_ms + 1) as usize
        }
    }
}

/// One split extent: the contiguous run of grid steps falling inside a
/// single `split_interval`-aligned window.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Extent {
    /// Window index (`floor(t / split_interval)` of every contained step).
    pub chunk: i64,
    /// First contained grid step (ms).
    pub first_step_ms: i64,
    /// Last contained grid step (ms).
    pub last_step_ms: i64,
    /// Step width, copied from the grid (ms).
    pub step_ms: i64,
}

impl Extent {
    /// Number of steps in the extent (always ≥ 1 by construction).
    pub fn step_count(&self) -> usize {
        ((self.last_step_ms - self.first_step_ms) / self.step_ms + 1) as usize
    }
}

/// Partitions a grid into extents of at most one aligned window each.
/// Returns an empty vec for an empty grid.
pub fn split_grid(grid: StepGrid, split_interval_ms: i64) -> Vec<Extent> {
    let mut out: Vec<Extent> = Vec::new();
    for t in grid.steps() {
        let chunk = t.div_euclid(split_interval_ms);
        match out.last_mut() {
            Some(e) if e.chunk == chunk => e.last_step_ms = t,
            _ => out.push(Extent {
                chunk,
                first_step_ms: t,
                last_step_ms: t,
                step_ms: grid.step_ms,
            }),
        }
    }
    out
}

/// A fetched or cached extent: the sub-query's series in the order the
/// TSDB answered them, decoded by `ceems_tsdb::promapi`.
pub type ExtentData = Vec<SeriesData>;

/// Merges extent results (ascending, non-overlapping, each holding only its
/// own steps) back into the unsplit answer's series.
///
/// Ordering proof: the unsplit evaluator lists series by the step they
/// are first seen at, series first seen at one step in that step's element
/// order (`ceems_tsdb::promql::range_query`); an instant evaluation's
/// elements at a step do not depend on the grid around it. Each extent
/// came from the same evaluator over its own steps, so it lists its series
/// in that order too. A series new at extent `k` was first seen inside `k`,
/// after every series first seen in earlier extents; appending each
/// extent's new series in the extent's order therefore lists all series in
/// first-seen order, and appending each series' samples extent by extent
/// keeps them in step order. The merged series encode, through the TSDB's
/// own encoder, to the bytes of the unsplit answer.
pub fn merge_extents<'a>(extents: impl IntoIterator<Item = &'a ExtentData>) -> Vec<SeriesData> {
    let mut merged: Vec<SeriesData> = Vec::new();
    let mut index: HashMap<&LabelSet, usize> = HashMap::new();
    for series in extents.into_iter().flatten() {
        match index.entry(&*series.labels) {
            Entry::Occupied(at) => merged[*at.get()].samples.extend_from_slice(&series.samples),
            Entry::Vacant(at) => {
                at.insert(merged.len());
                merged.push(series.clone());
            }
        }
    }
    merged
}

#[cfg(test)]
mod tests {
    use super::*;
    use ceems_metrics::labels;
    use ceems_tsdb::Sample;

    fn steps(e: &Extent) -> impl Iterator<Item = i64> {
        let (start_ms, end_ms, step_ms) = (e.first_step_ms, e.last_step_ms, e.step_ms);
        StepGrid { start_ms, end_ms, step_ms }.steps()
    }

    #[test]
    fn grid_steps_match_range_query_rule() {
        let g = StepGrid { start_ms: 10, end_ms: 70, step_ms: 30 };
        assert_eq!(g.steps().collect::<Vec<_>>(), vec![10, 40, 70]);
        assert_eq!(g.len(), 3);
        let empty = StepGrid { start_ms: 100, end_ms: 50, step_ms: 10 };
        assert!(empty.is_empty());
        assert_eq!(empty.steps().count(), 0);
    }

    #[test]
    fn split_is_aligned_and_complete() {
        let g = StepGrid { start_ms: 50, end_ms: 350, step_ms: 40 };
        let extents = split_grid(g, 100);
        // Steps: 50 90 | 130 170 | 210 250 290 | 330
        assert_eq!(extents.len(), 4);
        assert_eq!(extents[0], Extent { chunk: 0, first_step_ms: 50, last_step_ms: 90, step_ms: 40 });
        assert_eq!(extents[2].first_step_ms, 210);
        assert_eq!(extents[2].last_step_ms, 290);
        let all: Vec<i64> = extents.iter().flat_map(steps).collect();
        assert_eq!(all, g.steps().collect::<Vec<_>>());
    }

    #[test]
    fn negative_times_split_with_floor_semantics() {
        let g = StepGrid { start_ms: -250, end_ms: 50, step_ms: 100 };
        let extents = split_grid(g, 200);
        let all: Vec<i64> = extents.iter().flat_map(steps).collect();
        assert_eq!(all, vec![-250, -150, -50, 50]);
        assert_eq!(extents[0].chunk, -2);
    }

    #[test]
    fn merge_rebuilds_first_seen_order() {
        // Extent 1 (steps 0,10): series a appears at 10. Extent 2 (steps
        // 20,30): b at 20, a at 30 — output order must be [a, b].
        let mk = |name: &str, samples: &[(i64, f64)]| {
            let samples = samples.iter().map(|&(t, v)| Sample::new(t, v)).collect();
            SeriesData::new(labels! {"n" => name}, samples)
        };
        let d1 = vec![mk("a", &[(10, 1.0)])];
        let d2 = vec![mk("b", &[(20, 2.0)]), mk("a", &[(30, 3.0)])];
        let merged = merge_extents([&d1, &d2]);
        assert_eq!(merged.len(), 2);
        assert_eq!(merged[0], mk("a", &[(10, 1.0), (30, 3.0)]));
        assert_eq!(merged[1], mk("b", &[(20, 2.0)]));
    }
}
