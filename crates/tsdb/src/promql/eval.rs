//! Expression evaluation.
//!
//! One evaluator serves instant and range queries: it runs each operator
//! over the whole step grid (an instant query is the one-point grid), series
//! by series with the steps in the inner loop. Every label set an operator
//! derives — `__name__` dropped, a matching signature, a group key — is
//! computed once per input series per query, and each element carries its
//! place among its step's elements, so operators whose result depends on
//! that order (aggregations, `topk`, `histogram_quantile`, the output merge)
//! see exactly what one instant evaluation per step would have shown them.
//! [`super::reference`] keeps that step-at-a-time evaluator for the tests.
//!
//! Reads and label sets live in a plan ([`PreparedQuery`]): a one-shot
//! query makes a fresh one, a standing query keeps one from one evaluation
//! to the next.
//! Operators carry label ids of the plan's table, not label sets.

use std::cmp::Ordering;
use std::collections::HashMap;
use std::ops::RangeInclusive;
use std::sync::Arc;

use ceems_metrics::labels::LabelSet;
use ceems_metrics::matcher::LabelMatcher;

use crate::types::{Sample, SeriesData};

use super::plan::{LabelId, Labels, PreparedQuery, PreparedRead, Refresh};
use super::{AggOp, BinOp, CmpOp, Expr, Grouping, VectorSelector};

/// Anything the engine can read series from (the hot TSDB, or the fan-in
/// view over hot + long-term storage).
pub trait Queryable: Send + Sync {
    /// Series matching `matchers` with samples in `[tmin, tmax]`, series
    /// without one omitted. Narrowing the window must only drop samples and
    /// emptied series, never reorder: [`range_query`] walks one wide read.
    fn select(&self, matchers: &[LabelMatcher], tmin: i64, tmax: i64) -> Vec<SeriesData>;

    /// What an instant selector reads: the last sample in `[tmin, tmax]` of
    /// each matching series, in [`Self::select`]'s order. A source that can
    /// find it without materialising the window overrides this.
    fn select_instant(
        &self,
        matchers: &[LabelMatcher],
        tmin: i64,
        tmax: i64,
    ) -> Vec<(Arc<LabelSet>, Sample)> {
        self.select(matchers, tmin, tmax)
            .into_iter()
            .filter_map(|s| Some((s.labels, *s.samples.last()?)))
            .collect()
    }

    /// Brings `read` up to the window `[tmin, tmax]` of its matchers: after
    /// it the read holds what [`Self::select`] (a read of last samples:
    /// [`Self::select_instant`]) returns for that window, in that order.
    /// This default reads the window again; a source that can carry a read
    /// over from its last window overrides it.
    fn select_prepared(&self, read: &mut PreparedRead, tmin: i64, tmax: i64) -> Refresh {
        read.fill(self, tmin, tmax)
    }
}

impl Queryable for crate::storage::Tsdb {
    fn select(&self, matchers: &[LabelMatcher], tmin: i64, tmax: i64) -> Vec<SeriesData> {
        crate::storage::Tsdb::select(self, matchers, tmin, tmax)
    }

    fn select_instant(
        &self,
        matchers: &[LabelMatcher],
        tmin: i64,
        tmax: i64,
    ) -> Vec<(Arc<LabelSet>, Sample)> {
        crate::storage::Tsdb::select_instant(self, matchers, tmin, tmax)
    }

    fn select_prepared(&self, read: &mut PreparedRead, tmin: i64, tmax: i64) -> Refresh {
        crate::storage::Tsdb::select_prepared(self, read, tmin, tmax)
    }
}

/// Evaluation result.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    /// A scalar.
    Scalar(f64),
    /// An instant vector.
    Vector(Vec<(LabelSet, f64)>),
    /// A range vector (only produced by range selectors, only consumed by
    /// `*_over_time` / `rate`-family functions).
    Matrix(Vec<SeriesData>),
}

/// Evaluation error.
#[derive(Clone, Debug, PartialEq)]
pub struct EvalError(pub String);

impl std::fmt::Display for EvalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "promql eval error: {}", self.0)
    }
}

impl std::error::Error for EvalError {}

/// Default instant-selector lookback (Prometheus: 5 minutes).
pub const DEFAULT_LOOKBACK_MS: i64 = 5 * 60 * 1000;

/// Evaluates an expression at one instant with the default lookback.
pub fn instant_query(db: &dyn Queryable, expr: &Expr, t_ms: i64) -> Result<Value, EvalError> {
    instant_query_with_lookback(db, expr, t_ms, DEFAULT_LOOKBACK_MS)
}

/// Evaluates an expression at one instant with a custom lookback (the
/// recording-rule engine uses a much tighter window than Prometheus's 5 m so
/// series that stopped being written — finished jobs — go stale promptly
/// instead of being re-recorded with fresh timestamps).
///
/// [`PreparedQuery::instant`] on a fresh plan.
pub fn instant_query_with_lookback(
    db: &dyn Queryable,
    expr: &Expr,
    t_ms: i64,
    lookback_ms: i64,
) -> Result<Value, EvalError> {
    let mut plan = PreparedQuery::default();
    let shared = plan.instant_shared(db, expr, t_ms, lookback_ms)?;
    // Outputs the plan alone shared are moved out, not copied.
    drop(plan);
    Ok(shared.into_value())
}

/// An instant evaluation's result, labels as ids of the plan's label table
/// (valid until the plan's next evaluation).
#[derive(Clone, Debug, PartialEq)]
pub(crate) enum Evaluated {
    /// A scalar.
    Scalar(f64),
    /// An instant vector, in evaluation order.
    Vector(Vec<(LabelId, f64)>),
    /// A range vector.
    Matrix(Vec<SeriesData>),
}

/// A [`Value`] whose vector labels are still shared with a plan's table.
enum Shared {
    Scalar(f64),
    Vector(Vec<(Arc<LabelSet>, f64)>),
    Matrix(Vec<SeriesData>),
}

impl Shared {
    /// Label sets no one else holds are moved out, the rest copied.
    fn into_value(self) -> Value {
        match self {
            Shared::Scalar(v) => Value::Scalar(v),
            Shared::Vector(v) => Value::Vector(
                v.into_iter()
                    .map(|(labels, x)| (Arc::unwrap_or_clone(labels), x))
                    .collect(),
            ),
            Shared::Matrix(m) => Value::Matrix(m),
        }
    }
}

impl PreparedQuery {
    /// Evaluates `expr` at `t_ms` with `lookback_ms` for instant selectors,
    /// through this plan: each selector window is brought up to date from
    /// where the plan's last evaluation left it
    /// ([`Queryable::select_prepared`]), and label sets numbered then keep
    /// their ids. The result is bit for bit, and in the order of,
    /// [`instant_query_with_lookback`]'s.
    pub fn instant(
        &mut self,
        db: &dyn Queryable,
        expr: &Expr,
        t_ms: i64,
        lookback_ms: i64,
    ) -> Result<Value, EvalError> {
        Ok(self.instant_shared(db, expr, t_ms, lookback_ms)?.into_value())
    }

    fn instant_shared(
        &mut self,
        db: &dyn Queryable,
        expr: &Expr,
        t_ms: i64,
        lookback_ms: i64,
    ) -> Result<Shared, EvalError> {
        Ok(match self.evaluate(db, expr, t_ms, lookback_ms)? {
            Evaluated::Scalar(v) => Shared::Scalar(v),
            Evaluated::Vector(v) => Shared::Vector(
                v.into_iter()
                    .map(|(id, x)| (self.labels.get(id), x))
                    .collect(),
            ),
            Evaluated::Matrix(m) => Shared::Matrix(m),
        })
    }

    /// [`Self::instant`] with the vector's labels as ids of the plan's
    /// label table.
    pub(crate) fn evaluate(
        &mut self,
        db: &dyn Queryable,
        expr: &Expr,
        t_ms: i64,
        lookback_ms: i64,
    ) -> Result<Evaluated, EvalError> {
        self.next_round();
        let grid = Grid {
            start: t_ms,
            step: 1,
            points: 1,
            lookback_ms,
            instant: true,
        };
        self.refresh = self.read(db, expr, grid);
        let eval = Eval {
            reads: &self.reads,
            labels: &self.labels,
            grid,
        };
        eval.eval(expr).map_err(|f| f.err).map(|v| match v {
            Operand::Scalar(v) => Evaluated::Scalar(v[0]),
            Operand::Vector(v) => {
                // One point per series on a one-point grid.
                let mut rows: Vec<(u32, LabelId, f64)> = v
                    .series
                    .into_iter()
                    .map(|s| (v.points[s.lo].key, s.labels, v.points[s.lo].v))
                    .collect();
                rows.sort_unstable_by_key(|r| r.0);
                Evaluated::Vector(rows.into_iter().map(|(_, labels, x)| (labels, x)).collect())
            }
            Operand::Range(sel) => Evaluated::Matrix(eval.read(sel).matrix()),
        })
    }

    /// Brings the reads up to `grid` ([`Grid::read`]) and makes room in the
    /// label table for what they hold.
    fn read(&mut self, db: &dyn Queryable, expr: &Expr, grid: Grid) -> Refresh {
        let refresh = grid.read(db, expr, &mut self.reads);
        self.labels
            .reserve(self.reads.iter().map(|r| r.series.len()).sum());
        refresh
    }
}

/// Most steps one range query may evaluate (Prometheus's limit).
pub const MAX_RANGE_POINTS: usize = 11_000;

/// Number of steps on the grid `start, start + step, … ≤ end`: `0` when
/// `end < start`, an error when `step` is not positive or the grid holds
/// more than [`MAX_RANGE_POINTS`]. Never walks the grid.
pub fn range_points(start_ms: i64, end_ms: i64, step_ms: i64) -> Result<usize, EvalError> {
    if step_ms <= 0 {
        return Err(EvalError("step must be positive".into()));
    }
    if end_ms < start_ms {
        return Ok(0);
    }
    // A span that overflows i64 is over the cap at any step.
    match end_ms.checked_sub(start_ms).map(|span| span / step_ms) {
        Some(n) if n < MAX_RANGE_POINTS as i64 => Ok(n as usize + 1),
        _ => Err(EvalError(
            "exceeded maximum resolution of 11,000 points per timeseries; use a larger step".into(),
        )),
    }
}

/// Evaluates an expression over `[start, end]` at `step` intervals,
/// returning one series per result label set in first-seen order —
/// bit for bit what one instant evaluation per step would give.
///
/// The step count is bounded by [`MAX_RANGE_POINTS`] before anything is read
/// or allocated; then each distinct selector window of the expression is
/// read from `db` once, and every operator runs over the whole grid on the
/// calling thread.
pub fn range_query(
    db: &dyn Queryable,
    expr: &Expr,
    start_ms: i64,
    end_ms: i64,
    step_ms: i64,
) -> Result<Vec<SeriesData>, EvalError> {
    let points = range_points(start_ms, end_ms, step_ms)?;
    if let Some(t) = ceems_obs::trace::current() {
        t.add_count("steps", points as u64);
    }
    if points == 0 {
        return Ok(Vec::new());
    }
    let grid = Grid {
        start: start_ms,
        step: step_ms,
        points,
        lookback_ms: DEFAULT_LOOKBACK_MS,
        instant: false,
    };
    let mut plan = PreparedQuery::default();
    plan.read(db, expr, grid);
    let eval = Eval {
        reads: &plan.reads,
        labels: &plan.labels,
        grid,
    };
    match eval.eval(expr).map_err(|f| f.err)? {
        Operand::Scalar(v) => Ok(vec![SeriesData::new(
            LabelSet::empty(),
            v.iter()
                .enumerate()
                .map(|(k, &x)| Sample::new(grid.t(k), x))
                .collect(),
        )]),
        Operand::Vector(v) => Ok(grid.merge(v, &plan.labels)),
        Operand::Range(_) => Err(EvalError(
            "range query over a range selector is not allowed".into(),
        )),
    }
}

// ---------------------------------------------------------------------------
// The grid and the values on it
// ---------------------------------------------------------------------------

/// The steps `start + k × step`, `k < points`, evaluated at once.
#[derive(Clone, Copy)]
struct Grid {
    start: i64,
    step: i64,
    points: usize,
    lookback_ms: i64,
    /// An instant query: instant selectors read with `select_instant`.
    instant: bool,
}

impl Grid {
    fn t(&self, k: usize) -> i64 {
        self.start + k as i64 * self.step
    }

    /// Whether `sel` is read as last samples, and the window it needs over
    /// the whole grid.
    fn window(&self, sel: &VectorSelector) -> (bool, (i64, i64)) {
        let back = sel.range_ms.unwrap_or(self.lookback_ms);
        let latest = self.instant && sel.range_ms.is_none();
        if self.instant {
            // Exactly the window an instant evaluation reads.
            let at = self.start - sel.offset_ms;
            return (latest, (at - back, at));
        }
        let end = self.t(self.points - 1);
        (
            latest,
            (
                self.start
                    .saturating_sub(sel.offset_ms)
                    .saturating_sub(back),
                end.saturating_sub(sel.offset_ms),
            ),
        )
    }

    /// Brings `reads` up to the distinct selector windows of `expr`, each
    /// read once, in selector order. A read left by an earlier evaluation
    /// that reads the same matchers the same way is handed to its source to
    /// carry over; any other is replaced. Returns the costliest refresh.
    fn read(&self, db: &dyn Queryable, expr: &Expr, reads: &mut Vec<PreparedRead>) -> Refresh {
        let mut refresh = Refresh::Reused;
        let mut n = 0;
        for sel in expr.selectors() {
            let (latest, (tmin, tmax)) = self.window(sel);
            if reads[..n]
                .iter()
                .any(|r| r.answers(&sel.matchers, latest, tmin, tmax))
            {
                continue;
            }
            if !reads
                .get(n)
                .is_some_and(|r| r.is_for(&sel.matchers, latest))
            {
                let fresh = PreparedRead::new(&sel.matchers, latest);
                match reads.get_mut(n) {
                    Some(r) => *r = fresh,
                    None => reads.push(fresh),
                }
            }
            refresh = refresh.max(db.select_prepared(&mut reads[n], tmin, tmax));
            n += 1;
        }
        reads.truncate(n);
        refresh
    }

    /// The steps whose window `[t − offset − back, t − offset]` can hold a
    /// sample of a series spanning `[first, last]`.
    fn steps_touching(
        &self,
        first: i64,
        last: i64,
        offset: i64,
        back: i64,
    ) -> Option<RangeInclusive<usize>> {
        let (start, step) = (self.start as i128, self.step as i128);
        let lo = (first as i128 + offset as i128 - start + step - 1).div_euclid(step);
        let hi = (last as i128 + offset as i128 + back as i128 - start).div_euclid(step);
        let hi = hi.min(self.points as i128 - 1);
        let lo = lo.max(0);
        (lo <= hi).then_some(lo as usize..=hi as usize)
    }

    /// A vector as series in first-seen order: elements with equal label
    /// sets become one series, their samples in step and then element order.
    fn merge(&self, v: Vector, labels: &Labels) -> Vec<SeriesData> {
        let sets: Vec<Arc<LabelSet>> = v.series.iter().map(|s| labels.get(s.labels)).collect();
        let mut slot_of: HashMap<&LabelSet, usize> = HashMap::with_capacity(v.series.len());
        // Per output series: the (step, key) it is first seen at.
        let mut first: Vec<(u32, u32)> = Vec::new();
        let slots: Vec<usize> = v
            .series
            .iter()
            .zip(&sets)
            .map(|(s, set)| {
                let p = v.points[s.lo];
                let slot = *slot_of.entry(&**set).or_insert_with(|| {
                    first.push((p.step, p.key));
                    first.len() - 1
                });
                first[slot] = first[slot].min((p.step, p.key));
                slot
            })
            .collect();
        // Series of each slot, in series order.
        let mut members: Vec<Vec<usize>> = vec![Vec::new(); first.len()];
        for (i, &slot) in slots.iter().enumerate() {
            members[slot].push(i);
        }
        let mut order: Vec<usize> = (0..first.len()).collect();
        order.sort_unstable_by_key(|&slot| first[slot]);
        order
            .into_iter()
            .map(|slot| {
                let sample = |p: &Point| Sample::new(self.t(p.step as usize), p.v);
                let ms = &members[slot];
                let samples = if let [one] = ms[..] {
                    v.points_of(&v.series[one]).iter().map(sample).collect()
                } else {
                    let mut all: Vec<Point> = ms
                        .iter()
                        .flat_map(|&i| v.points_of(&v.series[i]).iter().copied())
                        .collect();
                    all.sort_unstable_by_key(|p| (p.step, p.key));
                    all.iter().map(sample).collect()
                };
                SeriesData::new(sets[ms[0]].clone(), samples)
            })
            .collect()
    }
}

/// One element of an instant vector at one step: the step, the element's
/// place among that step's elements (ascending `key` is the order one instant
/// evaluation lists them in; keys are unique within a step) and its value.
#[derive(Clone, Copy)]
struct Point {
    step: u32,
    key: u32,
    v: f64,
}

/// One series of a [`Vector`]: its labels and its points
/// `points[lo..hi]`, in step order, at most one per step.
struct Series {
    labels: LabelId,
    lo: usize,
    hi: usize,
}

/// An instant vector over the grid: series with at least one point, whose
/// point runs follow each other in `points`. Memory follows the points
/// produced, not series × steps.
#[derive(Default)]
struct Vector {
    series: Vec<Series>,
    points: Vec<Point>,
}

/// A vector's elements step by step: `items[at[k]..at[k + 1]]` are step
/// `k`'s `(series, key, value)` in key order.
struct Steps {
    at: Vec<usize>,
    items: Vec<(u32, u32, f64)>,
}

impl Steps {
    fn at(&self, k: usize) -> &[(u32, u32, f64)] {
        &self.items[self.at[k]..self.at[k + 1]]
    }
}

impl Vector {
    fn points_of(&self, s: &Series) -> &[Point] {
        &self.points[s.lo..s.hi]
    }

    /// Ends the series whose points were pushed since `lo`, if there are any.
    fn close(&mut self, lo: usize, labels: impl FnOnce() -> LabelId) {
        if self.points.len() > lo {
            let hi = self.points.len();
            self.series.push(Series {
                labels: labels(),
                lo,
                hi,
            });
        }
    }

    /// A scalar as a vector argument: one element with no labels (`empty`)
    /// per step.
    fn from_scalar(s: &[f64], empty: LabelId) -> Vector {
        let points: Vec<Point> = s
            .iter()
            .enumerate()
            .map(|(k, &v)| Point {
                step: k as u32,
                key: 0,
                v,
            })
            .collect();
        Vector {
            series: vec![Series {
                labels: empty,
                lo: 0,
                hi: points.len(),
            }],
            points,
        }
    }

    /// A vector from points produced step by step, each tagged with its
    /// series' index in `labels`.
    fn from_tagged(labels: Vec<LabelId>, tagged: Vec<(u32, Point)>) -> Vector {
        let mut at = vec![0usize; labels.len() + 1];
        for &(tag, _) in &tagged {
            at[tag as usize + 1] += 1;
        }
        for i in 1..at.len() {
            at[i] += at[i - 1];
        }
        let mut fill = at.clone();
        let mut points = vec![
            Point {
                step: 0,
                key: 0,
                v: 0.0
            };
            tagged.len()
        ];
        for (tag, p) in tagged {
            points[fill[tag as usize]] = p;
            fill[tag as usize] += 1;
        }
        let series = labels
            .into_iter()
            .enumerate()
            .filter(|&(i, _)| at[i] < at[i + 1])
            .map(|(i, labels)| Series {
                labels,
                lo: at[i],
                hi: at[i + 1],
            })
            .collect();
        Vector { series, points }
    }

    /// Every element mapped (`None` drops it) in place; a series that keeps
    /// any gets its labels through `labels`, once.
    fn map(
        self,
        mut labels: impl FnMut(LabelId) -> LabelId,
        mut f: impl FnMut(&Point) -> Option<f64>,
    ) -> Vector {
        let Vector { series, mut points } = self;
        let mut out = Vec::with_capacity(series.len());
        let mut w = 0;
        for s in series {
            let lo = w;
            for r in s.lo..s.hi {
                let p = points[r];
                if let Some(v) = f(&p) {
                    points[w] = Point { v, ..p };
                    w += 1;
                }
            }
            if w > lo {
                out.push(Series {
                    labels: labels(s.labels),
                    lo,
                    hi: w,
                });
            }
        }
        points.truncate(w);
        Vector {
            series: out,
            points,
        }
    }

    /// The elements step by step, each step's in key order.
    fn by_step(&self, points: usize) -> Steps {
        let mut at = vec![0usize; points + 1];
        for p in &self.points {
            at[p.step as usize + 1] += 1;
        }
        for k in 1..at.len() {
            at[k] += at[k - 1];
        }
        let mut fill = at.clone();
        let mut items = vec![(0u32, 0u32, 0.0f64); self.points.len()];
        for (i, s) in self.series.iter().enumerate() {
            for p in self.points_of(s) {
                let k = p.step as usize;
                items[fill[k]] = (i as u32, p.key, p.v);
                fill[k] += 1;
            }
        }
        for k in 0..points {
            let step = &mut items[at[k]..at[k + 1]];
            if !step.is_sorted_by_key(|x| x.1) {
                step.sort_unstable_by_key(|x| x.1);
            }
        }
        Steps { at, items }
    }
}

/// An operand on the grid.
enum Operand<'e> {
    /// One value per step.
    Scalar(Vec<f64>),
    /// An instant vector.
    Vector(Vector),
    /// A range selector, read by the function that reduces it.
    Range(&'e VectorSelector),
}

/// The first error of an evaluation in step order: the step, then the error
/// evaluation order meets first there.
struct Fail {
    step: usize,
    err: EvalError,
}

/// An error every step raises (a type or arity error), so step 0 first.
fn fail(msg: impl Into<String>) -> Fail {
    Fail {
        step: 0,
        err: EvalError(msg.into()),
    }
}

pub(super) const DUP_MATCHING: &str = "right operand has duplicate series per matching \
     signature; narrow it with on(...)/ignoring(...) or aggregate first";
pub(super) const DUP_COMPARE: &str =
    "right operand has duplicate series per matching signature; aggregate it first";

// ---------------------------------------------------------------------------
// The evaluator
// ---------------------------------------------------------------------------

#[derive(Clone, Copy)]
struct Eval<'w> {
    reads: &'w [PreparedRead],
    labels: &'w Labels,
    grid: Grid,
}

impl<'w> Eval<'w> {
    /// The read that holds `sel`'s window.
    fn read(&self, sel: &VectorSelector) -> &'w PreparedRead {
        let (latest, (tmin, tmax)) = self.grid.window(sel);
        self.reads
            .iter()
            .find(|r| r.answers(&sel.matchers, latest, tmin, tmax))
            .expect("every selector's window was read")
    }

    /// `signature(_, grouping)` through the plan's labels, as a key: equal
    /// signatures are one id.
    fn derive(&self, grouping: &Grouping) -> impl Fn(LabelId) -> LabelId + 'w {
        let (labels, slot) = (self.labels, self.labels.slot(grouping, true));
        move |id| labels.derive(slot, id)
    }

    /// A label set without `__name__`, through the plan's labels: an output
    /// series' labels, not a key.
    fn drop_name(&self) -> impl Fn(LabelId) -> LabelId + 'w {
        let (labels, slot) = (self.labels, self.labels.slot(&Grouping::None, false));
        move |id| labels.derive(slot, id)
    }

    /// Evaluates `expr` over the grid, or finds its first error in step
    /// order. Operands are evaluated — and checked — in the order one
    /// instant evaluation takes, and stop at their first failure; a failure
    /// at step `s > 0` may still hide an earlier one behind it (a later
    /// operand, a check after it), so the prefix `[0, s)` is evaluated again.
    fn eval<'e>(&self, expr: &'e Expr) -> Result<Operand<'e>, Fail> {
        match self.node(expr) {
            Err(f) if f.step > 0 => {
                let prefix = Eval {
                    grid: Grid {
                        points: f.step,
                        ..self.grid
                    },
                    ..*self
                };
                prefix.eval(expr)?;
                Err(f)
            }
            r => r,
        }
    }

    fn node<'e>(&self, expr: &'e Expr) -> Result<Operand<'e>, Fail> {
        match expr {
            Expr::Number(v) => Ok(Operand::Scalar(vec![*v; self.grid.points])),
            Expr::Neg(inner) => match self.eval(inner)? {
                Operand::Scalar(v) => Ok(Operand::Scalar(v.into_iter().map(|x| -x).collect())),
                Operand::Vector(v) => Ok(Operand::Vector(v.map(|l| l, |p| Some(-p.v)))),
                Operand::Range(_) => Err(fail("cannot negate a range vector")),
            },
            Expr::Selector(sel) => Ok(match sel.range_ms {
                None => Operand::Vector(self.instant(sel)),
                Some(_) => Operand::Range(sel),
            }),
            Expr::Func { name, args } => self.func(name, args),
            Expr::Binary {
                op,
                lhs,
                rhs,
                matching,
            } => {
                let l = self.eval(lhs)?;
                let r = self.eval(rhs)?;
                self.binary(*op, l, r, matching)
            }
            Expr::Compare {
                op,
                bool_mode,
                lhs,
                rhs,
            } => {
                let l = self.eval(lhs)?;
                let r = self.eval(rhs)?;
                self.compare(*op, *bool_mode, l, r)
            }
            Expr::Agg {
                op,
                grouping,
                param,
                expr,
            } => {
                let Operand::Vector(v) = self.eval(expr)? else {
                    return Err(fail("aggregation expects an instant vector"));
                };
                let k = match param {
                    Some(p) => match self.eval(p)? {
                        Operand::Scalar(k) => Some(k),
                        _ => return Err(fail("topk/bottomk k must be a scalar")),
                    },
                    None => None,
                };
                if matches!(op, AggOp::Topk | AggOp::Bottomk) {
                    let k = k.ok_or_else(|| fail("topk/bottomk need k"))?;
                    return Ok(Operand::Vector(self.rank(v, &k, *op == AggOp::Bottomk)));
                }
                Ok(Operand::Vector(self.aggregate(*op, grouping, v)))
            }
        }
    }

    /// An instant selector: per series, the last sample within the lookback
    /// of each step, found with one forward cursor.
    fn instant(&self, sel: &VectorSelector) -> Vector {
        let mut out = Vector::default();
        let read = self.read(sel);
        if read.latest {
            for (i, (f, last)) in read.lasts().enumerate() {
                let lo = out.points.len();
                out.points.push(Point {
                    step: 0,
                    key: i as u32,
                    v: last.v,
                });
                out.close(lo, || self.labels.id_of(f));
            }
            return out;
        }
        let (offset, back) = (sel.offset_ms, self.grid.lookback_ms);
        for (i, (f, samples)) in read.windows().enumerate() {
            let (first, last) = (samples[0], samples[samples.len() - 1]);
            let Some(steps) = self
                .grid
                .steps_touching(first.t_ms, last.t_ms, offset, back)
            else {
                continue;
            };
            let lo = out.points.len();
            let mut hi = 0;
            for k in steps {
                let at = self.grid.t(k).saturating_sub(offset);
                while hi < samples.len() && samples[hi].t_ms <= at {
                    hi += 1;
                }
                if hi > 0 && samples[hi - 1].t_ms >= at.saturating_sub(back) {
                    out.points.push(Point {
                        step: k as u32,
                        key: i as u32,
                        v: samples[hi - 1].v,
                    });
                }
            }
            out.close(lo, || self.labels.id_of(f));
        }
        out
    }

    /// A range function: per series, `f(step, window)` of each step whose
    /// window `[t − offset − range, t − offset]` holds a sample, the window
    /// a slice between two forward cursors; the name is dropped.
    fn over_range(
        &self,
        sel: &VectorSelector,
        mut f: impl FnMut(usize, &[Sample]) -> Option<f64>,
    ) -> Vector {
        let read = self.read(sel);
        debug_assert!(!read.latest, "range selectors are read with select");
        let unnamed = self.drop_name();
        let (offset, range) = (sel.offset_ms, sel.range_ms.unwrap_or(0));
        let mut out = Vector::default();
        for (i, (series, samples)) in read.windows().enumerate() {
            let (first, last) = (samples[0], samples[samples.len() - 1]);
            let Some(steps) = self
                .grid
                .steps_touching(first.t_ms, last.t_ms, offset, range)
            else {
                continue;
            };
            let lo_point = out.points.len();
            let (mut lo, mut hi) = (0, 0);
            for k in steps {
                let at = self.grid.t(k).saturating_sub(offset);
                let tmin = at.saturating_sub(range);
                while lo < samples.len() && samples[lo].t_ms < tmin {
                    lo += 1;
                }
                while hi < samples.len() && samples[hi].t_ms <= at {
                    hi += 1;
                }
                if lo < hi {
                    if let Some(v) = f(k, &samples[lo..hi]) {
                        out.points.push(Point {
                            step: k as u32,
                            key: i as u32,
                            v,
                        });
                    }
                }
            }
            out.close(lo_point, || unnamed(self.labels.id_of(series)));
        }
        out
    }

    fn arg<'e>(&self, name: &str, args: &'e [Expr], i: usize) -> Result<Operand<'e>, Fail> {
        self.eval(args.get(i).ok_or_else(|| Fail {
            step: 0,
            err: arity(name),
        })?)
    }

    fn vector_arg(&self, name: &str, args: &[Expr], i: usize) -> Result<Vector, Fail> {
        match self.arg(name, args, i)? {
            Operand::Vector(v) => Ok(v),
            Operand::Scalar(s) => Ok(Vector::from_scalar(&s, self.labels.empty())),
            Operand::Range(_) => Err(fail(format!("{name} expects an instant vector"))),
        }
    }

    fn scalar_arg(&self, name: &str, args: &[Expr], i: usize) -> Result<Vec<f64>, Fail> {
        match self.arg(name, args, i)? {
            Operand::Scalar(s) => Ok(s),
            _ => Err(fail(format!("{name} expects a scalar argument"))),
        }
    }

    fn func<'e>(&self, name: &str, args: &'e [Expr]) -> Result<Operand<'e>, Fail> {
        let drop_name = self.drop_name();
        if let Some(f) = range_fn(name) {
            return match self.arg(name, args, 0)? {
                Operand::Range(sel) => Ok(Operand::Vector(self.over_range(sel, |_, s| f(s)))),
                _ => Err(fail(format!("{name} expects a range vector"))),
            };
        }
        Ok(match name {
            "abs" | "ceil" | "floor" => {
                let f = match name {
                    "abs" => f64::abs,
                    "ceil" => f64::ceil,
                    _ => f64::floor,
                };
                Operand::Vector(
                    self.vector_arg(name, args, 0)?
                        .map(drop_name, |p| Some(f(p.v))),
                )
            }
            "clamp_min" | "clamp_max" => {
                let bound = self.scalar_arg(name, args, 1)?;
                let is_min = name == "clamp_min";
                Operand::Vector(self.vector_arg(name, args, 0)?.map(drop_name, |p| {
                    let b = bound[p.step as usize];
                    Some(if is_min { p.v.max(b) } else { p.v.min(b) })
                }))
            }
            "scalar" => {
                let v = self.vector_arg(name, args, 0)?;
                let mut seen = vec![(0u32, f64::NAN); self.grid.points];
                for p in &v.points {
                    let at = &mut seen[p.step as usize];
                    *at = (at.0 + 1, p.v);
                }
                Operand::Scalar(
                    seen.into_iter()
                        .map(|(n, v)| if n == 1 { v } else { f64::NAN })
                        .collect(),
                )
            }
            "quantile_over_time" => {
                let q = self.scalar_arg(name, args, 0)?;
                match self.arg(name, args, 1)? {
                    Operand::Range(sel) => {
                        Operand::Vector(self.over_range(sel, |k, s| quantile_over(s, q[k])))
                    }
                    _ => return Err(fail("quantile_over_time expects a range vector")),
                }
            }
            "histogram_quantile" => {
                let q = self.scalar_arg(name, args, 0)?;
                Operand::Vector(self.histogram_quantile(&q, self.vector_arg(name, args, 1)?))
            }
            other => return Err(fail(format!("unknown function {other:?}"))),
        })
    }

    fn binary<'e>(
        &self,
        op: BinOp,
        l: Operand<'e>,
        r: Operand<'e>,
        matching: &Grouping,
    ) -> Result<Operand<'e>, Fail> {
        let drop_name = self.drop_name();
        Ok(Operand::Vector(match (l, r) {
            (Operand::Scalar(a), Operand::Scalar(b)) => {
                return Ok(Operand::Scalar(
                    a.iter().zip(&b).map(|(&a, &b)| op.apply(a, b)).collect(),
                ))
            }
            (Operand::Vector(v), Operand::Scalar(s)) => {
                v.map(drop_name, |p| Some(op.apply(p.v, s[p.step as usize])))
            }
            (Operand::Scalar(s), Operand::Vector(v)) => {
                v.map(drop_name, |p| Some(op.apply(s[p.step as usize], p.v)))
            }
            (Operand::Vector(lv), Operand::Vector(rv)) => {
                self.matched(lv, &rv, matching, DUP_MATCHING, drop_name, |l, r| {
                    Some(op.apply(l, r))
                })?
            }
            _ => return Err(fail("binary operators are not defined on range vectors")),
        }))
    }

    /// Comparison with Prometheus semantics: filtering by default (surviving
    /// elements keep their labels — including `__name__` — and values), 0/1
    /// per element with the `bool` modifier. Vector-vector comparison
    /// matches on the full label signature like unmodified arithmetic.
    fn compare<'e>(
        &self,
        op: CmpOp,
        bool_mode: bool,
        l: Operand<'e>,
        r: Operand<'e>,
    ) -> Result<Operand<'e>, Fail> {
        let as_bool = |keep: bool| if keep { 1.0 } else { 0.0 };
        let pick = |x: f64, keep: bool| {
            if bool_mode {
                Some(as_bool(keep))
            } else {
                keep.then_some(x)
            }
        };
        let drop_name = self.drop_name();
        let labels = |l: LabelId| if bool_mode { drop_name(l) } else { l };
        Ok(Operand::Vector(match (l, r) {
            (Operand::Scalar(a), Operand::Scalar(b)) => {
                if !bool_mode {
                    return Err(fail(
                        "comparison between two scalars needs the bool modifier",
                    ));
                }
                return Ok(Operand::Scalar(
                    a.iter()
                        .zip(&b)
                        .map(|(&a, &b)| as_bool(op.apply(a, b)))
                        .collect(),
                ));
            }
            (Operand::Vector(v), Operand::Scalar(s)) => {
                v.map(labels, |p| pick(p.v, op.apply(p.v, s[p.step as usize])))
            }
            (Operand::Scalar(s), Operand::Vector(v)) => {
                v.map(labels, |p| pick(p.v, op.apply(s[p.step as usize], p.v)))
            }
            (Operand::Vector(lv), Operand::Vector(rv)) => {
                self.matched(lv, &rv, &Grouping::None, DUP_COMPARE, labels, |l, r| {
                    pick(l, op.apply(l, r))
                })?
            }
            _ => return Err(fail("comparisons are not defined on range vectors")),
        }))
    }

    /// Vector matching: each left element meets the right element of its
    /// signature at its step, `f(left, right)` is its value (`None` drops
    /// it) and its labels come through `labels`. The right side must be
    /// unique per signature at every step (many-to-one is granted
    /// implicitly and the LEFT labels stay, which the Eq. (1) rules need to
    /// retain `uuid` when dividing by node-level series); the first step
    /// where it is not fails with `dup`.
    fn matched(
        &self,
        lv: Vector,
        rv: &Vector,
        grouping: &Grouping,
        dup: &str,
        mut labels: impl FnMut(LabelId) -> LabelId,
        mut f: impl FnMut(f64, f64) -> Option<f64>,
    ) -> Result<Vector, Fail> {
        // Signatures numbered in order of first appearance on the right.
        let signature = self.derive(grouping);
        let (call, mut sigs) = (self.labels.call(), 0);
        let rsig: Vec<u32> = rv
            .series
            .iter()
            .map(|s| self.labels.number(call, signature(s.labels), &mut sigs))
            .collect();
        let sigs = sigs as usize;
        // Right series by signature: `by_sig[sig_at[g]..sig_at[g + 1]]`.
        let mut sig_at = vec![0usize; sigs + 1];
        for &g in &rsig {
            sig_at[g as usize + 1] += 1;
        }
        for g in 1..sig_at.len() {
            sig_at[g] += sig_at[g - 1];
        }
        let mut fill = sig_at.clone();
        let mut by_sig = vec![0usize; rsig.len()];
        for (i, &g) in rsig.iter().enumerate() {
            by_sig[fill[g as usize]] = i;
            fill[g as usize] += 1;
        }
        // Two right series of one signature at one step: the first such step.
        let mut first_dup: Option<u32> = None;
        for g in 0..sigs {
            let members = &by_sig[sig_at[g]..sig_at[g + 1]];
            if members.len() < 2 {
                continue;
            }
            let mut steps: Vec<u32> = members
                .iter()
                .flat_map(|&i| rv.points_of(&rv.series[i]).iter().map(|p| p.step))
                .collect();
            steps.sort_unstable();
            if let Some(w) = steps.windows(2).find(|w| w[0] == w[1]) {
                first_dup = Some(first_dup.map_or(w[0], |d| d.min(w[0])));
            }
        }
        if let Some(step) = first_dup {
            return Err(Fail {
                step: step as usize,
                err: EvalError(dup.into()),
            });
        }

        let mut out = Vector::default();
        let mut cursors: Vec<usize> = Vec::new();
        let Vector { series, points } = lv;
        for s in series {
            let Some(g) = self.labels.numbered(call, signature(s.labels)) else {
                continue;
            };
            let members = &by_sig[sig_at[g as usize]..sig_at[g as usize + 1]];
            cursors.clear();
            cursors.extend(members.iter().map(|&i| rv.series[i].lo));
            let lo = out.points.len();
            for p in &points[s.lo..s.hi] {
                // At most one member has a point at this step.
                let mut partner = None;
                for (c, &i) in cursors.iter_mut().zip(members) {
                    let hi = rv.series[i].hi;
                    while *c < hi && rv.points[*c].step < p.step {
                        *c += 1;
                    }
                    if *c < hi && rv.points[*c].step == p.step {
                        partner = Some(rv.points[*c].v);
                    }
                }
                if let Some(v) = partner.and_then(|r| f(p.v, r)) {
                    out.points.push(Point { v, ..*p });
                }
            }
            out.close(lo, || labels(s.labels));
        }
        Ok(out)
    }

    /// Each series' group under `grouping`'s signature, groups numbered in
    /// order of first appearance, and each group's labels; a series given as
    /// `None` joins no group (its number is meaningless).
    fn groups(
        &self,
        series: impl Iterator<Item = Option<LabelId>>,
        grouping: &Grouping,
    ) -> (Vec<u32>, Vec<LabelId>) {
        let signature = self.derive(grouping);
        let call = self.labels.call();
        let mut labels: Vec<LabelId> = Vec::new();
        let group = series
            .map(|s| {
                let Some(s) = s else { return u32::MAX };
                let key = signature(s);
                let mut next = labels.len() as u32;
                let g = self.labels.number(call, key, &mut next);
                if next as usize > labels.len() {
                    labels.push(key);
                }
                g
            })
            .collect();
        (group, labels)
    }

    /// `sum`, `avg`, … : groups are assigned once per series; each step
    /// combines its members' values in the step's element order, and the
    /// groups of a step come in the order their first member does.
    fn aggregate(&self, op: AggOp, grouping: &Grouping, v: Vector) -> Vector {
        let (group, labels) = match grouping {
            // One group, with no labels: nothing to derive.
            Grouping::None => (vec![0; v.series.len()], vec![self.labels.empty()]),
            by => self.groups(v.series.iter().map(|s| Some(s.labels)), by),
        };
        let steps = v.by_step(self.grid.points);
        // A step's values by group, each group's in element order:
        // `values[at[g]..at[g] + n[g]]`.
        let (mut at, mut n) = (vec![0usize; labels.len()], vec![0usize; labels.len()]);
        let mut values: Vec<f64> = Vec::new();
        let mut touched: Vec<(u32, u32)> = Vec::new();
        let mut tagged: Vec<(u32, Point)> = Vec::new();
        for k in 0..self.grid.points {
            let items = steps.at(k);
            for &(series, key, _) in items {
                let g = group[series as usize];
                if n[g as usize] == 0 {
                    touched.push((g, key));
                }
                n[g as usize] += 1;
            }
            let mut end = 0;
            for &(g, _) in &touched {
                let g = g as usize;
                (at[g], end, n[g]) = (end, end + n[g], 0);
            }
            values.resize(end, 0.0);
            for &(series, _, x) in items {
                let g = group[series as usize] as usize;
                values[at[g] + n[g]] = x;
                n[g] += 1;
            }
            for (g, key) in touched.drain(..) {
                let g_at = g as usize;
                let v = combine(op, &values[at[g_at]..at[g_at] + n[g_at]]);
                n[g_at] = 0;
                tagged.push((
                    g,
                    Point {
                        step: k as u32,
                        key,
                        v,
                    },
                ));
            }
        }
        Vector::from_tagged(labels, tagged)
    }

    /// `topk` / `bottomk`: each step's elements ranked as one instant
    /// evaluation ranks them; the survivors keep their labels.
    fn rank(&self, v: Vector, k: &[f64], bottom: bool) -> Vector {
        let steps = v.by_step(self.grid.points);
        let mut tagged: Vec<(u32, Point)> = Vec::new();
        let mut items: Vec<(u32, f64)> = Vec::new();
        for (step, &k) in k.iter().enumerate() {
            items.clear();
            items.extend(steps.at(step).iter().map(|&(series, _, x)| (series, x)));
            rank(&mut items, |x| x.1, bottom, k as usize);
            for (key, &(series, v)) in items.iter().enumerate() {
                let (step, key) = (step as u32, key as u32);
                tagged.push((series, Point { step, key, v }));
            }
        }
        Vector::from_tagged(v.series.into_iter().map(|s| s.labels).collect(), tagged)
    }

    /// Prometheus `histogram_quantile`: `_bucket` elements grouped by their
    /// non-`le` labels (once per series), each group interpolated per step.
    fn histogram_quantile(&self, q: &[f64], v: Vector) -> Vector {
        let les: Vec<Option<f64>> = v
            .series
            .iter()
            .map(|s| le_bound(&self.labels.get(s.labels)))
            .collect();
        let (group, labels) = self.groups(
            v.series
                .iter()
                .zip(&les)
                .map(|(s, le)| le.and(Some(s.labels))),
            &Grouping::Without(vec!["le".to_string()]),
        );
        let buckets: Vec<Option<(u32, f64)>> = group
            .iter()
            .zip(les)
            .map(|(&g, le)| Some((g, le?)))
            .collect();
        let steps = v.by_step(self.grid.points);
        let mut bs: Vec<Vec<(f64, f64)>> = vec![Vec::new(); labels.len()];
        let mut touched: Vec<(u32, u32)> = Vec::new();
        let mut tagged: Vec<(u32, Point)> = Vec::new();
        for (k, &q) in q.iter().enumerate() {
            for &(series, key, count) in steps.at(k) {
                let Some((g, le)) = buckets[series as usize] else {
                    continue;
                };
                if bs[g as usize].is_empty() {
                    touched.push((g, key));
                }
                bs[g as usize].push((le, count));
            }
            for (g, key) in touched.drain(..) {
                let v = bucket_quantile(q, &mut bs[g as usize]);
                bs[g as usize].clear();
                tagged.push((
                    g,
                    Point {
                        step: k as u32,
                        key,
                        v,
                    },
                ));
            }
        }
        Vector::from_tagged(labels, tagged)
    }
}

// ---------------------------------------------------------------------------
// Shared with the reference evaluator
// ---------------------------------------------------------------------------

/// Signature used for grouping / vector matching: restrict or drop labels,
/// always dropping `__name__`.
pub(super) fn signature(labels: &LabelSet, grouping: &Grouping) -> LabelSet {
    match grouping {
        Grouping::None => labels.drop_names(&[]),
        Grouping::By(keep) => labels.restrict_to(keep),
        Grouping::Without(drop) => labels.drop_names(drop),
    }
}

/// One group's value of aggregation `op` (not `topk`/`bottomk`) over its
/// members' values, in element order.
pub(super) fn combine(op: AggOp, vals: &[f64]) -> f64 {
    match op {
        AggOp::Sum => vals.iter().sum(),
        AggOp::Avg => vals.iter().sum::<f64>() / vals.len() as f64,
        AggOp::Min => vals.iter().copied().fold(f64::INFINITY, f64::min),
        AggOp::Max => vals.iter().copied().fold(f64::NEG_INFINITY, f64::max),
        AggOp::Count => vals.len() as f64,
        AggOp::Stddev | AggOp::Stdvar => {
            let mean = vals.iter().sum::<f64>() / vals.len() as f64;
            let var = vals.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / vals.len() as f64;
            if op == AggOp::Stdvar {
                var
            } else {
                var.sqrt()
            }
        }
        AggOp::Topk | AggOp::Bottomk => unreachable!("ranked, not combined"),
    }
}

/// `topk` (`bottom`: `bottomk`) of `v` by `value`: a stable sort, largest
/// first and NaN below every number, reversed for `bottomk`. The order is
/// total, so ties keep element order (reversed for `bottomk`) and the result
/// does not depend on the element type the sort moves.
pub(super) fn rank<T>(v: &mut Vec<T>, value: impl Fn(&T) -> f64, bottom: bool, k: usize) {
    v.sort_by(|a, b| {
        let (a, b) = (value(a), value(b));
        match (a.is_nan(), b.is_nan()) {
            (false, false) => b.partial_cmp(&a).unwrap_or(Ordering::Equal),
            (a_nan, b_nan) => a_nan.cmp(&b_nan),
        }
    });
    if bottom {
        v.reverse();
    }
    v.truncate(k);
}

/// Counter-reset-adjusted increase over a window of samples.
///
/// Returns `(increase, span_seconds)` or `None` with fewer than 2 samples.
fn counter_increase(samples: &[Sample]) -> Option<(f64, f64)> {
    if samples.len() < 2 {
        return None;
    }
    let mut corrections = 0.0;
    let mut prev = samples[0].v;
    for s in &samples[1..] {
        if s.v < prev {
            corrections += prev; // counter reset (e.g. RAPL wraparound)
        }
        prev = s.v;
    }
    let increase = samples.last().unwrap().v + corrections - samples[0].v;
    let span_s = (samples.last().unwrap().t_ms - samples[0].t_ms) as f64 / 1000.0;
    Some((increase, span_s))
}

/// What a range function makes of one window; `None` leaves the series out
/// at that step.
pub(super) type Reduce = fn(&[Sample]) -> Option<f64>;

/// The reduction of a range function other than `quantile_over_time`.
pub(super) fn range_fn(name: &str) -> Option<Reduce> {
    let f: Reduce = match name {
        "rate" => |s| counter_increase(s).and_then(|(inc, span)| (span > 0.0).then(|| inc / span)),
        "increase" => |s| counter_increase(s).map(|(inc, _)| inc),
        "irate" => |s| {
            if s.len() < 2 {
                return None;
            }
            let a = s[s.len() - 2];
            let b = s[s.len() - 1];
            let dv = if b.v >= a.v { b.v - a.v } else { b.v };
            let dt = (b.t_ms - a.t_ms) as f64 / 1000.0;
            (dt > 0.0).then(|| dv / dt)
        },
        "delta" => |s| (s.len() >= 2).then(|| s.last().unwrap().v - s[0].v),
        "avg_over_time" => {
            |s| (!s.is_empty()).then(|| s.iter().map(|x| x.v).sum::<f64>() / s.len() as f64)
        }
        "sum_over_time" => |s| (!s.is_empty()).then(|| s.iter().map(|x| x.v).sum()),
        "min_over_time" => |s| s.iter().map(|x| x.v).min_by(|a, b| a.total_cmp(b)),
        "max_over_time" => |s| s.iter().map(|x| x.v).max_by(|a, b| a.total_cmp(b)),
        "count_over_time" => |s| (!s.is_empty()).then_some(s.len() as f64),
        "last_over_time" => |s| s.last().map(|x| x.v),
        _ => return None,
    };
    Some(f)
}

/// `quantile_over_time(q, …)` of one window.
pub(super) fn quantile_over(s: &[Sample], q: f64) -> Option<f64> {
    if s.is_empty() {
        return None;
    }
    let mut vals: Vec<f64> = s.iter().map(|x| x.v).collect();
    vals.sort_by(|a, b| a.total_cmp(b));
    Some(quantile_sorted(&vals, q))
}

/// Linear-interpolated quantile of pre-sorted values.
fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let q = q.clamp(0.0, 1.0);
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// A `_bucket` series' upper bound; `None` when `le` is absent or not a
/// number (the series is skipped).
pub(super) fn le_bound(labels: &LabelSet) -> Option<f64> {
    match labels.get("le")? {
        "+Inf" => Some(f64::INFINITY),
        v => v.parse::<f64>().ok(),
    }
}

/// The `q` quantile of one histogram's `(upper bound, cumulative count)`
/// buckets, interpolated within the bucket that holds it; NaN without a
/// `+Inf` bucket or observations.
pub(super) fn bucket_quantile(q: f64, bs: &mut [(f64, f64)]) -> f64 {
    bs.sort_by(|a, b| a.0.total_cmp(&b.0));
    let Some(&(top, total)) = bs.last() else {
        return f64::NAN;
    };
    if total <= 0.0 || !top.is_infinite() {
        return f64::NAN;
    }
    let rank = q.clamp(0.0, 1.0) * total;
    let mut prev_bound = 0.0;
    let mut prev_count = 0.0;
    for &(bound, count) in bs.iter() {
        if count >= rank {
            if bound.is_infinite() {
                return prev_bound;
            }
            let width = bound - prev_bound;
            let in_bucket = count - prev_count;
            let frac = if in_bucket > 0.0 {
                (rank - prev_count) / in_bucket
            } else {
                0.0
            };
            return prev_bound + width * frac;
        }
        prev_bound = bound;
        prev_count = count;
    }
    prev_bound
}

pub(super) fn arity(name: &str) -> EvalError {
    EvalError(format!("wrong number of arguments for {name}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::promql::parse_expr;
    use crate::storage::Tsdb;
    use ceems_metrics::labels;
    use ceems_metrics::labels::METRIC_NAME_LABEL;

    fn db() -> Tsdb {
        let db = Tsdb::default();
        // Counter: 10 J/s on n1, 20 J/s on n2, sampled every 15 s for 10 min.
        for i in 0..41i64 {
            let t = i * 15_000;
            db.append(
                &labels! {"__name__" => "energy_joules_total", "instance" => "n1"},
                t,
                (i * 150) as f64,
            );
            db.append(
                &labels! {"__name__" => "energy_joules_total", "instance" => "n2"},
                t,
                (i * 300) as f64,
            );
            db.append(
                &labels! {"__name__" => "mem_bytes", "instance" => "n1"},
                t,
                1000.0,
            );
            db.append(
                &labels! {"__name__" => "mem_bytes", "instance" => "n2"},
                t,
                3000.0,
            );
        }
        db
    }

    fn instant(db: &Tsdb, q: &str, t: i64) -> Value {
        instant_query(db, &parse_expr(q).unwrap(), t).unwrap()
    }

    fn vector_of(v: Value) -> Vec<(LabelSet, f64)> {
        match v {
            Value::Vector(v) => v,
            other => panic!("expected vector, got {other:?}"),
        }
    }

    #[test]
    fn instant_selector_takes_latest_in_lookback() {
        let db = db();
        let v = vector_of(instant(&db, "mem_bytes{instance=\"n1\"}", 600_000));
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].1, 1000.0);
        // Past the lookback window the series disappears.
        let v = vector_of(instant(&db, "mem_bytes", 600_000 + DEFAULT_LOOKBACK_MS + 1));
        assert!(v.is_empty());
    }

    #[test]
    fn rate_recovers_watts() {
        let db = db();
        let v = vector_of(instant(&db, "rate(energy_joules_total[2m])", 600_000));
        assert_eq!(v.len(), 2);
        for (labels, rate) in v {
            let expect = if labels.get("instance") == Some("n1") { 10.0 } else { 20.0 };
            assert!((rate - expect).abs() < 1e-9, "rate={rate}");
            assert_eq!(labels.get(METRIC_NAME_LABEL), None);
        }
    }

    #[test]
    fn rate_handles_counter_reset() {
        let db = Tsdb::default();
        let ls = labels! {"__name__" => "wrap_total"};
        // 100/s counter that wraps at t=45s back to a small value.
        let vals = [0.0, 1500.0, 3000.0, 200.0, 1700.0];
        for (i, v) in vals.iter().enumerate() {
            db.append(&ls, i as i64 * 15_000, *v);
        }
        let v = vector_of(instant(&db, "rate(wrap_total[2m])", 60_000));
        // increase = 1700 + 3000 - 0 = 4700 over 60 s.
        assert!((v[0].1 - 4700.0 / 60.0).abs() < 1e-9, "got {}", v[0].1);
    }

    #[test]
    fn comparison_filters_and_keeps_labels() {
        let db = db();
        // Only n2 (3000 bytes) exceeds 2000; filter keeps labels and value,
        // including the metric name, like Prometheus.
        let v = vector_of(instant(&db, "mem_bytes > 2000", 600_000));
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].0.get("instance"), Some("n2"));
        assert_eq!(v[0].0.get(METRIC_NAME_LABEL), Some("mem_bytes"));
        assert_eq!(v[0].1, 3000.0);

        // Nothing violates an impossible threshold: empty vector, no error.
        let v = vector_of(instant(&db, "mem_bytes > 1e9", 600_000));
        assert!(v.is_empty());

        // bool mode maps every element to 0/1 and drops the name.
        let v = vector_of(instant(&db, "mem_bytes > bool 2000", 600_000));
        assert_eq!(v.len(), 2);
        for (labels, x) in v {
            let expect = if labels.get("instance") == Some("n2") { 1.0 } else { 0.0 };
            assert_eq!(x, expect);
            assert_eq!(labels.get(METRIC_NAME_LABEL), None);
        }

        // Comparison binds looser than arithmetic.
        let v = vector_of(instant(&db, "mem_bytes / 1000 >= 3", 600_000));
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].1, 3.0);

        // Vector-vector: mem_bytes != mem_bytes is empty.
        let v = vector_of(instant(&db, "mem_bytes != mem_bytes", 600_000));
        assert!(v.is_empty());

        // Scalar-scalar without bool is an error.
        assert!(instant_query(&db, &parse_expr("1 > 2").unwrap(), 0).is_err());
        assert_eq!(instant(&db, "1 > bool 2", 0), Value::Scalar(0.0));
    }

    #[test]
    fn binary_vector_vector_matches_on_labels() {
        let db = db();
        let v = vector_of(instant(
            &db,
            "rate(energy_joules_total[2m]) * mem_bytes",
            600_000,
        ));
        assert_eq!(v.len(), 2);
        for (labels, x) in v {
            let expect = if labels.get("instance") == Some("n1") {
                10.0 * 1000.0
            } else {
                20.0 * 3000.0
            };
            assert!((x - expect).abs() < 1e-6);
        }
    }

    #[test]
    fn binary_scalar_forms() {
        let db = db();
        assert_eq!(instant(&db, "1 + 2 * 3", 0), Value::Scalar(7.0));
        let v = vector_of(instant(&db, "mem_bytes / 1000", 600_000));
        assert_eq!(v.len(), 2);
        let v = vector_of(instant(&db, "0.9 * mem_bytes", 600_000));
        assert!(v.iter().any(|(_, x)| *x == 900.0));
        assert!(v.iter().any(|(_, x)| *x == 2700.0));
    }

    #[test]
    fn aggregations() {
        let db = db();
        let v = vector_of(instant(&db, "sum(mem_bytes)", 600_000));
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].1, 4000.0);
        assert!(v[0].0.is_empty());

        let v = vector_of(instant(&db, "avg(mem_bytes)", 600_000));
        assert_eq!(v[0].1, 2000.0);

        let v = vector_of(instant(&db, "sum by (instance) (mem_bytes)", 600_000));
        assert_eq!(v.len(), 2);

        let v = vector_of(instant(&db, "count(mem_bytes)", 600_000));
        assert_eq!(v[0].1, 2.0);

        let v = vector_of(instant(&db, "topk(1, mem_bytes)", 600_000));
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].1, 3000.0);

        let v = vector_of(instant(&db, "bottomk(1, mem_bytes)", 600_000));
        assert_eq!(v[0].1, 1000.0);

        let v = vector_of(instant(&db, "max(mem_bytes)", 600_000));
        assert_eq!(v[0].1, 3000.0);
        let v = vector_of(instant(&db, "min(mem_bytes)", 600_000));
        assert_eq!(v[0].1, 1000.0);
    }

    #[test]
    fn over_time_functions() {
        let db = db();
        let v = vector_of(instant(
            &db,
            "avg_over_time(mem_bytes{instance=\"n1\"}[2m])",
            600_000,
        ));
        assert_eq!(v[0].1, 1000.0);
        let v = vector_of(instant(
            &db,
            "count_over_time(mem_bytes{instance=\"n1\"}[1m])",
            600_000,
        ));
        assert_eq!(v[0].1, 5.0); // 60s window at 15s cadence: t=540..600
        let v = vector_of(instant(
            &db,
            "max_over_time(energy_joules_total{instance=\"n2\"}[2m])",
            600_000,
        ));
        assert_eq!(v[0].1, 12_000.0);
    }

    #[test]
    fn clamp_abs_scalar() {
        let db = db();
        let v = vector_of(instant(&db, "clamp_max(mem_bytes, 1500)", 600_000));
        assert!(v.iter().all(|(_, x)| *x <= 1500.0));
        let v = vector_of(instant(&db, "clamp_min(mem_bytes, 1500)", 600_000));
        assert!(v.iter().all(|(_, x)| *x >= 1500.0));
        assert_eq!(
            instant(&db, "scalar(sum(mem_bytes))", 600_000),
            Value::Scalar(4000.0)
        );
        let v = vector_of(instant(&db, "abs(0 - mem_bytes)", 600_000));
        assert!(v.iter().all(|(_, x)| *x > 0.0));
    }

    #[test]
    fn offset_shifts_evaluation() {
        let db = db();
        let v = vector_of(instant(
            &db,
            "energy_joules_total{instance=\"n1\"} offset 5m",
            600_000,
        ));
        // At t=300s the counter was 20*150=3000.
        assert_eq!(v[0].1, 3000.0);
    }

    #[test]
    fn range_query_produces_series() {
        let db = db();
        let expr = parse_expr("rate(energy_joules_total[2m])").unwrap();
        let series = range_query(&db, &expr, 200_000, 600_000, 100_000).unwrap();
        assert_eq!(series.len(), 2);
        for s in &series {
            assert_eq!(s.samples.len(), 5);
            assert!(s.samples.windows(2).all(|w| w[0].t_ms < w[1].t_ms));
        }
        // Scalar expression over a range.
        let series = range_query(&db, &parse_expr("42").unwrap(), 0, 30_000, 10_000).unwrap();
        assert_eq!(series.len(), 1);
        assert_eq!(series[0].samples.len(), 4);
        assert!(range_query(&db, &parse_expr("1").unwrap(), 0, 10, 0).is_err());
    }

    #[test]
    fn eq1_conservation_shape() {
        // A miniature Eq. (1): two jobs on a node split 0.9*P_ipmi by CPU
        // time share; per-job powers must sum to 0.9*P_ipmi.
        let db = Tsdb::default();
        for i in 0..41i64 {
            let t = i * 15_000;
            db.append(&labels! {"__name__" => "ipmi_watts", "instance" => "n1"}, t, 500.0);
            // job A: 3 cores busy; job B: 1 core busy; node total 4.
            db.append(
                &labels! {"__name__" => "job_cpu_seconds_total", "uuid" => "a", "instance" => "n1"},
                t,
                (i * 45) as f64,
            );
            db.append(
                &labels! {"__name__" => "job_cpu_seconds_total", "uuid" => "b", "instance" => "n1"},
                t,
                (i * 15) as f64,
            );
            db.append(
                &labels! {"__name__" => "node_cpu_seconds_total", "instance" => "n1"},
                t,
                (i * 60) as f64,
            );
        }
        let q = "0.9 * scalar(ipmi_watts) * rate(job_cpu_seconds_total[2m]) / scalar(rate(node_cpu_seconds_total[2m]))";
        let v = vector_of(instant(&db, q, 600_000));
        assert_eq!(v.len(), 2);
        let total: f64 = v.iter().map(|(_, x)| x).sum();
        assert!((total - 450.0).abs() < 1e-6, "total={total}");
        let a = v.iter().find(|(l, _)| l.get("uuid") == Some("a")).unwrap().1;
        assert!((a - 337.5).abs() < 1e-6);
    }

    #[test]
    fn error_cases() {
        let db = db();
        let e = instant_query(&db, &parse_expr("rate(mem_bytes)").unwrap(), 0);
        assert!(e.is_err()); // rate needs a range vector
        let e = instant_query(&db, &parse_expr("mem_bytes + mem_bytes[5m]").unwrap(), 0);
        assert!(e.is_err());
        let e = instant_query(&db, &parse_expr("sum(mem_bytes[5m])").unwrap(), 0);
        assert!(e.is_err());
    }

    #[test]
    fn on_ignoring_cross_metric_matching() {
        let db = Tsdb::default();
        db.append(&labels! {"__name__" => "a", "instance" => "n1", "mode" => "x"}, 0, 10.0);
        db.append(&labels! {"__name__" => "b", "instance" => "n1"}, 0, 5.0);
        // Without a modifier, signatures differ (mode label) → empty result.
        let v = vector_of(instant(&db, "a / b", 1000));
        assert!(v.is_empty());
        // on(instance) matches them.
        let v = vector_of(instant(&db, "a / on (instance) b", 1000));
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].1, 2.0);
        // ignoring(mode) does too.
        let v = vector_of(instant(&db, "a / ignoring (mode) b", 1000));
        assert_eq!(v.len(), 1);
    }
}

#[cfg(test)]
mod quantile_tests {
    use super::*;
    use ceems_metrics::labels;

    #[test]
    fn quantile_sorted_interpolates() {
        let v = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(quantile_sorted(&v, 0.0), 1.0);
        assert_eq!(quantile_sorted(&v, 1.0), 4.0);
        assert_eq!(quantile_sorted(&v, 0.5), 2.5);
        assert!(quantile_sorted(&[], 0.5).is_nan());
        assert_eq!(quantile_sorted(&[7.0], 0.9), 7.0);
    }

    #[test]
    fn histogram_quantile_end_to_end() {
        let db = crate::storage::Tsdb::default();
        // A request-latency histogram: buckets 0.1/0.5/1.0/+Inf with
        // cumulative counts 50/90/99/100.
        for (le, c) in [("0.1", 50.0), ("0.5", 90.0), ("1.0", 99.0), ("+Inf", 100.0)] {
            db.append(
                &labels! {"__name__" => "lat_bucket", "le" => le, "instance" => "n1"},
                1000,
                c,
            );
        }
        let expr = crate::promql::parse_expr("histogram_quantile(0.5, lat_bucket)").unwrap();
        let Value::Vector(v) = instant_query(&db, &expr, 2000).unwrap() else {
            panic!()
        };
        assert_eq!(v.len(), 1);
        // Median is inside the first bucket: 50/50 of the way to 0.1.
        assert!((v[0].1 - 0.1).abs() < 1e-9, "p50={}", v[0].1);

        let expr = crate::promql::parse_expr("histogram_quantile(0.95, lat_bucket)").unwrap();
        let Value::Vector(v) = instant_query(&db, &expr, 2000).unwrap() else {
            panic!()
        };
        // 95th: rank 95 lands in (0.5, 1.0] bucket: 0.5 + (95-90)/9 * 0.5.
        assert!((v[0].1 - (0.5 + 5.0 / 9.0 * 0.5)).abs() < 1e-9, "p95={}", v[0].1);

        // le label is consumed; instance remains.
        assert_eq!(v[0].0.get("le"), None);
        assert_eq!(v[0].0.get("instance"), Some("n1"));
    }

    #[test]
    fn quantile_over_time_on_series() {
        let db = crate::storage::Tsdb::default();
        let ls = labels! {"__name__" => "g"};
        for (i, v) in [5.0, 1.0, 3.0, 2.0, 4.0].iter().enumerate() {
            db.append(&ls, i as i64 * 15_000, *v);
        }
        let expr = crate::promql::parse_expr("quantile_over_time(0.5, g[2m])").unwrap();
        let Value::Vector(v) = instant_query(&db, &expr, 60_000).unwrap() else {
            panic!()
        };
        assert_eq!(v[0].1, 3.0);
    }

    #[test]
    fn stddev_and_stdvar() {
        let db = crate::storage::Tsdb::default();
        for (i, v) in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0].iter().enumerate() {
            db.append(
                &labels! {"__name__" => "s", "i" => &format!("{i}")},
                1000,
                *v,
            );
        }
        let expr = crate::promql::parse_expr("stddev(s)").unwrap();
        let Value::Vector(v) = instant_query(&db, &expr, 2000).unwrap() else {
            panic!()
        };
        assert!((v[0].1 - 2.0).abs() < 1e-9); // classic example: σ = 2
        let expr = crate::promql::parse_expr("stdvar(s)").unwrap();
        let Value::Vector(v) = instant_query(&db, &expr, 2000).unwrap() else {
            panic!()
        };
        assert!((v[0].1 - 4.0).abs() < 1e-9);
    }

    #[test]
    fn histogram_quantile_degenerate_inputs() {
        // Missing +Inf bucket → NaN; zero total → NaN.
        assert!(bucket_quantile(0.9, &mut [(1.0, 5.0)]).is_nan());
        assert!(bucket_quantile(0.9, &mut [(f64::INFINITY, 0.0)]).is_nan());
        // A non-numeric or absent le skips the series entirely.
        assert_eq!(le_bound(&labels! {"le" => "bogus"}), None);
        assert_eq!(le_bound(&labels! {"x" => "1"}), None);
        assert_eq!(le_bound(&labels! {"le" => "+Inf"}), Some(f64::INFINITY));
        let db = crate::storage::Tsdb::default();
        db.append(&labels! {"__name__" => "b", "le" => "bogus"}, 1000, 5.0);
        db.append(&labels! {"__name__" => "b", "x" => "1"}, 1000, 5.0);
        db.append(&labels! {"__name__" => "b", "le" => "1.0", "g" => "a"}, 1000, 5.0);
        let expr = crate::promql::parse_expr("histogram_quantile(0.9, b)").unwrap();
        let Value::Vector(v) = instant_query(&db, &expr, 2000).unwrap() else {
            panic!()
        };
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].0, labels! {"g" => "a"});
        assert!(v[0].1.is_nan());
    }
}

#[cfg(test)]
mod range_tests {
    use super::*;
    use crate::longterm::{FanInQuerier, LongTermStore};
    use crate::promql::parse_expr;
    use crate::storage::Tsdb;
    use ceems_metrics::labels;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    /// The algorithm `range_query` replaced, kept as the reference: one
    /// instant evaluation per step against the source itself, merged in
    /// first-seen order.
    use crate::promql::reference::range_query as stepwise;

    /// Bit-level equality: NaN (0/0 at a first step) must match NaN, and
    /// nothing laxer than exact bits, order and error text counts.
    fn assert_same(db: &dyn Queryable, q: &str, start_ms: i64, end_ms: i64, step_ms: i64) {
        let expr = parse_expr(q).unwrap();
        let got = range_query(db, &expr, start_ms, end_ms, step_ms);
        let want = stepwise(db, &expr, start_ms, end_ms, step_ms);
        let at = format!("{q} over {start_ms}..{end_ms}/{step_ms}");
        match (got, want) {
            (Ok(got), Ok(want)) => {
                let labels =
                    |m: &[SeriesData]| m.iter().map(|s| s.labels.clone()).collect::<Vec<_>>();
                assert_eq!(
                    labels(&got),
                    labels(&want),
                    "{at}: series or their order diverged"
                );
                for (g, w) in got.iter().zip(&want) {
                    let bits = |s: &SeriesData| {
                        s.samples
                            .iter()
                            .map(|x| (x.t_ms, x.v.to_bits()))
                            .collect::<Vec<_>>()
                    };
                    assert_eq!(bits(g), bits(w), "{at}: {:?} diverged", g.labels);
                }
            }
            (Err(got), Err(want)) => assert_eq!(got, want, "{at}"),
            (got, want) => panic!("{at}: ok/err diverged: {got:?} vs {want:?}"),
        }
    }

    #[test]
    fn range_query_matches_stepwise_instant_evaluation() {
        let db = Tsdb::default();
        for i in 0..80i64 {
            let t = i * 15_000;
            for n in 0..7 {
                db.append(
                    &labels! {"__name__" => "energy_joules_total", "instance" => format!("n{n}")},
                    t,
                    (i * (100 + n)) as f64,
                );
            }
            db.append(
                &labels! {"__name__" => "mem_bytes", "instance" => "n1"},
                t,
                0.1 * i as f64,
            );
        }
        // A series that appears only late in the range: step results differ
        // in series membership, exercising the merge ordering.
        for i in 50..80i64 {
            db.append(
                &labels! {"__name__" => "mem_bytes", "instance" => "late"},
                i * 15_000,
                7.0,
            );
        }

        for q in [
            "rate(energy_joules_total[2m])",
            "sum(rate(energy_joules_total[2m]))",
            "mem_bytes",
            "avg by (instance) (mem_bytes)",
            "sum(energy_joules_total) / sum(mem_bytes)",
            "42",
            "sum(energy_joules_total offset 5m)",
            "topk(2, rate(energy_joules_total[1m]))",
            "mem_bytes / mem_bytes",
            "rate(energy_joules_total[2m]) / on (instance) energy_joules_total",
            // Errors surface identically: at the first step, and as the
            // evaluator's own error rather than the merge's.
            "histogram_quantile(0.9, mem_bytes) + bogus{x=\"1\"}",
            "energy_joules_total + mem_bytes[5m]",
            "mem_bytes[1m]",
            // A duplicate right-hand signature from the step `late` appears
            // at; an error every step raises beats it, left before right.
            "energy_joules_total / on () mem_bytes",
            "mem_bytes > on_missing",
            "(energy_joules_total / on () mem_bytes) + mem_bytes[1m]",
            "rate(energy_joules_total[1m]) - (mem_bytes / ignoring (instance) mem_bytes)",
            "(mem_bytes / ignoring (instance) mem_bytes) - rate(energy_joules_total)",
            "sum(mem_bytes) > mem_bytes",
            // Grouping, nesting, ranking with ties, duplicate output sets.
            "sum by (instance) (mem_bytes)",
            "avg without (instance) (rate(energy_joules_total[2m]))",
            "sum(sum by (instance) (energy_joules_total) / 7)",
            "count(topk(3, mem_bytes))",
            "stddev(energy_joules_total) + stdvar(mem_bytes)",
            "topk(2, energy_joules_total * 0)",
            "bottomk(3, mem_bytes)",
            "topk(scalar(count(mem_bytes)), energy_joules_total)",
            "{__name__=~\"mem_bytes|energy_joules_total\"} * 0",
            "rate({__name__=~\".+\"}[2m])",
            // Comparisons, functions, scalars per step.
            "energy_joules_total > 3000",
            "mem_bytes >= bool 1",
            "mem_bytes == mem_bytes",
            "2 < bool scalar(mem_bytes)",
            "clamp_min(energy_joules_total, scalar(mem_bytes) * 1000)",
            "clamp_max(-mem_bytes, 1)",
            "quantile_over_time(0.9, energy_joules_total[3m])",
            "histogram_quantile(0.5, energy_joules_total)",
            "abs(scalar(sum(mem_bytes)))",
        ] {
            // One step, a few, the full range, and a step wider than the
            // lookback (steps whose windows leave gaps between them).
            for (start, end, step) in [
                (600_000, 600_000, 15_000),
                (0, 60_000, 15_000),
                (0, 1_200_000, 15_000),
                (7_000, 1_500_000, 400_000),
            ] {
                assert_same(&db, q, start, end, step);
            }
        }
    }

    /// `topk` over more candidates than a sort handles by insertion, with
    /// ties and NaNs (which once made the sort panic: its comparator was
    /// not a total order).
    #[test]
    fn wide_rankings_with_ties_and_nan_match_stepwise() {
        let db = Tsdb::default();
        for i in 0..40i64 {
            for n in 0..33i64 {
                let v = match (n * 7 + i) % 11 {
                    0 if n % 3 == 0 => f64::NAN,
                    r => (r % 4) as f64,
                };
                // A third of the series start late, a third stop early.
                if (n % 3 != 1 || i >= 12) && (n % 3 != 2 || i < 30) {
                    db.append(
                        &labels! {"__name__" => "w", "n" => format!("{n:02}")},
                        i * 15_000,
                        v,
                    );
                }
            }
        }
        for q in [
            "topk(10, w)",
            "bottomk(25, w)",
            "topk(5, sum by (n) (w))",
            "sum(topk(30, w))",
            "bottomk(4, w > bool 1)",
        ] {
            assert_same(&db, q, 0, 600_000, 15_000);
            assert_same(&db, q, 300_000, 300_000, 15_000);
        }
    }

    /// Counts the selects that reach the wrapped source.
    struct Counting<'a>(&'a Tsdb, AtomicUsize);

    impl Queryable for Counting<'_> {
        fn select(&self, matchers: &[LabelMatcher], tmin: i64, tmax: i64) -> Vec<SeriesData> {
            self.1.fetch_add(1, Ordering::Relaxed);
            self.0.select(matchers, tmin, tmax)
        }
    }

    #[test]
    fn source_selects_follow_selectors_not_steps() {
        let db = Tsdb::default();
        for i in 0..100i64 {
            db.append(
                &labels! {"__name__" => "a", "instance" => "n1"},
                i * 15_000,
                (i + 1) as f64,
            );
            db.append(
                &labels! {"__name__" => "b", "instance" => "n1"},
                i * 15_000,
                2.0,
            );
        }
        let selects = |q: &str, end_ms: i64| {
            let counting = Counting(&db, AtomicUsize::new(0));
            let expr = parse_expr(q).unwrap();
            let got = range_query(&counting, &expr, 0, end_ms, 15_000).unwrap();
            assert_eq!(got, stepwise(&db, &expr, 0, end_ms, 15_000).unwrap(), "{q}");
            counting.1.into_inner()
        };
        for end_ms in [0, 15_000, 1_200_000] {
            assert_eq!(selects("sum(a) / sum(b)", end_ms), 2);
            assert_eq!(selects("a / a", end_ms), 1);
            // The 5m instant window of `a` is covered by the 10m range read.
            assert_eq!(selects("rate(a[10m]) + a", end_ms), 1);
            assert_eq!(selects("a - a offset 1m", end_ms), 2);
            assert_eq!(selects("1 + 1", end_ms), 0);
        }
    }

    #[test]
    fn resolution_is_bounded_before_any_step_runs() {
        let db = Tsdb::default();
        let one = parse_expr("1").unwrap();
        assert_eq!(
            range_points(0, 10_999 * 15_000, 15_000),
            Ok(MAX_RANGE_POINTS)
        );
        assert_eq!(
            range_query(&db, &one, 0, 10_999, 1).unwrap()[0]
                .samples
                .len(),
            MAX_RANGE_POINTS
        );
        for (start, end, step) in [
            (0, 11_000, 1),
            (0, 9_999_999_999_000, 1),
            (0, i64::MAX, 15_000),
            (i64::MIN, i64::MAX, i64::MAX),
        ] {
            let err = range_query(&db, &one, start, end, step).unwrap_err();
            assert!(
                err.0
                    .starts_with("exceeded maximum resolution of 11,000 points"),
                "{err}"
            );
        }
        assert_eq!(
            range_points(0, 10, 0),
            Err(EvalError("step must be positive".into()))
        );
        // `end < start` stays an empty matrix, however far apart.
        assert_eq!(
            range_query(&db, &one, i64::MAX, i64::MIN, 1),
            Ok(Vec::new())
        );
        // The last step may sit on `i64::MAX` without overflowing past it.
        let top = range_query(&db, &one, i64::MAX - 2, i64::MAX, 1).unwrap();
        assert_eq!(top[0].samples.len(), 3);
    }

    /// `select_instant` is `select` and the last sample of each series,
    /// from any source.
    fn assert_instant_is_last_of_select(
        db: &dyn Queryable,
        matchers: &[LabelMatcher],
        tmin: i64,
        tmax: i64,
    ) {
        let want: Vec<(Arc<LabelSet>, Sample)> = db
            .select(matchers, tmin, tmax)
            .into_iter()
            .filter_map(|s| Some((s.labels, *s.samples.last()?)))
            .collect();
        let got = db.select_instant(matchers, tmin, tmax);
        assert_eq!(got, want, "{matchers:?} over {tmin}..{tmax}");
    }

    /// Windows ending on and between samples, from empty to everything.
    fn instant_windows(end_ms: i64) -> impl Iterator<Item = (i64, i64)> {
        let ends = (0..=end_ms)
            .step_by(7_000)
            .chain([-1, end_ms + 400_000, i64::MAX]);
        ends.flat_map(|tmax| {
            [
                0,
                1,
                15_000,
                75_000,
                DEFAULT_LOOKBACK_MS,
                3_600_000,
                i64::MAX,
            ]
            .map(move |back| (tmax.saturating_sub(back), tmax))
        })
        .chain([(i64::MIN, i64::MAX), (10, 5)])
    }

    #[test]
    fn tsdb_select_instant_is_the_last_sample_of_select() {
        let db = Tsdb::new(crate::storage::TsdbConfig {
            retention_ms: 1_200_000,
            ..Default::default()
        });
        // One sample; inside a stride; a full chunk; just past a cut; three
        // chunks; and one that stopped early (older than most windows).
        for (name, n, step) in [
            ("one", 1i64, 15_000i64),
            ("few", 17, 15_000),
            ("full", 240, 15_000),
            ("cut", 241, 15_000),
            ("long", 560, 5_000),
            ("gone", 30, 1_000),
        ] {
            for i in 0..n {
                // Every ninth timestamp repeats: the later value must win.
                let t = (i - i / 9) * step;
                db.append(
                    &labels! {"__name__" => "m", "s" => name},
                    t,
                    (i * 3) as f64 + 0.5,
                );
            }
        }
        let all = [LabelMatcher::eq("__name__", "m")];
        let one = [LabelMatcher::eq("s", "long")];
        let none = [LabelMatcher::eq("s", "absent")];
        let check = |db: &Tsdb| {
            for (tmin, tmax) in instant_windows(3_600_000) {
                for m in [&all[..], &one, &none] {
                    assert_instant_is_last_of_select(db, m, tmin, tmax);
                }
            }
        };
        check(&db);
        assert_eq!(db.select_latest(&all).len(), 6);
        assert_eq!(db.delete_series(&[LabelMatcher::eq("s", "full")]), 1);
        check(&db);
        // Drops `one`, `few` and `gone` whole and the first chunk of `long`.
        assert_eq!(db.enforce_retention(3_000_000), 3);
        check(&db);
        assert_eq!(db.select_latest(&all).len(), 2);
    }

    /// Counts `select` and `select_instant` reads apart.
    struct Reads<'a>(&'a Tsdb, AtomicUsize, AtomicUsize);

    impl Queryable for Reads<'_> {
        fn select(&self, matchers: &[LabelMatcher], tmin: i64, tmax: i64) -> Vec<SeriesData> {
            self.1.fetch_add(1, Ordering::Relaxed);
            self.0.select(matchers, tmin, tmax)
        }

        fn select_instant(
            &self,
            matchers: &[LabelMatcher],
            tmin: i64,
            tmax: i64,
        ) -> Vec<(Arc<LabelSet>, Sample)> {
            self.2.fetch_add(1, Ordering::Relaxed);
            self.0.select_instant(matchers, tmin, tmax)
        }
    }

    fn stopping_series() -> Tsdb {
        let db = Tsdb::default();
        for i in 0..300i64 {
            for n in 0..3 {
                // `n2` stops early, so late steps find it out of lookback.
                if n < 2 || i < 100 {
                    db.append(
                        &labels! {"__name__" => "a", "instance" => format!("n{n}")},
                        i * 15_000 + n,
                        (i * (n + 1)) as f64,
                    );
                }
            }
        }
        db
    }

    /// The forward cursors find, at every step, the sample the source's
    /// `select_instant` (and the window `select`) returns for that step.
    #[test]
    fn grid_cursors_read_what_each_step_would_select() {
        let db = stopping_series();
        for q in [
            "a",
            "a offset 10m",
            "rate(a[4m])",
            "last_over_time(a[1m] offset 3m)",
            "a + rate(a[4m]) - a offset 10m",
        ] {
            for (start, end, step) in [(60_000, 4_500_000, 37_000), (0, 4_500_000, 15_000)] {
                assert_same(&db, q, start, end, step);
            }
        }
    }

    /// An instant query is the one-point grid, and reads as one instant
    /// evaluation did: `select_instant` for instant selectors, `select` for
    /// range selectors, each distinct window once.
    #[test]
    fn instant_queries_read_instant_selectors_with_select_instant() {
        let db = stopping_series();
        let t = 2_000_000;
        for (q, selects, instants) in [
            ("a", 0, 1),
            ("a / a", 0, 1),
            ("a - a offset 10m", 0, 2),
            ("rate(a[4m]) + a", 1, 1),
            ("sum(rate(a[1m])) / sum(rate(a[5m]))", 2, 0),
            ("a[1m]", 1, 0),
        ] {
            let reads = Reads(&db, AtomicUsize::new(0), AtomicUsize::new(0));
            let expr = parse_expr(q).unwrap();
            let got = instant_query(&reads, &expr, t);
            let want = crate::promql::reference::instant_query_with_lookback(
                &db,
                &expr,
                t,
                DEFAULT_LOOKBACK_MS,
            );
            assert_eq!(got, want, "{q}");
            assert_eq!(
                (reads.1.into_inner(), reads.2.into_inner()),
                (selects, instants),
                "{q}"
            );
        }
    }

    #[test]
    fn fan_in_select_instant_is_the_last_sample_of_select_across_the_horizon() {
        let hot = Arc::new(Tsdb::default());
        for i in 0..160i64 {
            for (instance, from) in [("old", 0), ("young", 90)] {
                if i >= from {
                    hot.append(
                        &labels! {"__name__" => "power_watts", "instance" => instance},
                        i * 15_000,
                        100.0 + i as f64,
                    );
                }
            }
        }
        let horizon = 15 * 60_000;
        let cold = Arc::new(LongTermStore::new());
        cold.replicate(&hot, 0, horizon - 1);
        let fan = FanInQuerier::new(hot, cold, horizon);
        for (tmin, tmax) in instant_windows(40 * 60_000) {
            assert_instant_is_last_of_select(&fan, &[], tmin, tmax);
        }
    }

    /// Hot + cold fan-in. Cold-then-hot merging would hand a straddling
    /// window `old` first and a hot-only window the hot index order
    /// (`young`, `mid`, `old`); a three-term float sum shows the difference.
    #[test]
    fn fan_in_range_query_matches_stepwise() {
        let hot = Arc::new(Tsdb::default());
        let series = |instance: &str| labels! {"__name__" => "power_watts", "instance" => instance};
        // `young` and `mid` come first in the hot index but only start
        // after the horizon; `old` spans it.
        hot.append(&series("young"), 20 * 60_000, 0.1);
        hot.append(&series("mid"), 18 * 60_000, 1e-3);
        for i in 0..160i64 {
            hot.append(&series("old"), i * 15_000, 100.0 + (i % 7) as f64 / 3.0);
            if i > 80 {
                hot.append(&series("young"), i * 15_000, 0.1 * i as f64);
                hot.append(&series("mid"), i * 15_000, 1e-3 * (i as f64).sqrt());
            }
        }
        let horizon = 15 * 60_000;
        let cold = Arc::new(LongTermStore::new());
        cold.replicate(&hot, 0, horizon - 1);
        let fan = FanInQuerier::new(hot, cold, horizon);

        for q in [
            "power_watts",
            "sum(power_watts)",
            "rate(power_watts[3m])",
            "avg_over_time(power_watts[10m]) / on (instance) power_watts",
            "topk(1, power_watts)",
        ] {
            for (start, end, step) in [(0, 40 * 60_000, 15_000), (14 * 60_000, 22 * 60_000, 60_000)]
            {
                assert_same(&fan, q, start, end, step);
            }
        }
    }
}
