//! Expression evaluation.

use std::collections::HashMap;
use std::sync::Arc;

use ceems_metrics::labels::{LabelSet, METRIC_NAME_LABEL};
use ceems_metrics::matcher::LabelMatcher;

use crate::types::{Sample, SeriesData};

use super::{AggOp, BinOp, CmpOp, Expr, Grouping};

/// Anything the engine can read series from (the hot TSDB, or the fan-in
/// view over hot + long-term storage).
pub trait Queryable: Send + Sync {
    /// Series matching `matchers` with samples in `[tmin, tmax]`, series
    /// without one omitted. Narrowing the window must only drop samples and
    /// emptied series, never reorder: [`range_query`] slices one wide read.
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

/// Evaluation context: the data source plus the instant-selector lookback.
#[derive(Clone, Copy)]
pub struct EvalCtx<'a> {
    /// Data source.
    pub db: &'a dyn Queryable,
    /// Instant-selector lookback window (Prometheus defaults to 5 m; the
    /// recording-rule engine uses a much tighter window so series that
    /// stopped being written — finished jobs — go stale promptly instead
    /// of being re-recorded with fresh timestamps).
    pub lookback_ms: i64,
}

/// Evaluates an expression at one instant with the default lookback.
pub fn instant_query(db: &dyn Queryable, expr: &Expr, t_ms: i64) -> Result<Value, EvalError> {
    eval(
        &EvalCtx {
            db,
            lookback_ms: DEFAULT_LOOKBACK_MS,
        },
        expr,
        t_ms,
    )
}

/// Evaluates an expression at one instant with a custom lookback.
pub fn instant_query_with_lookback(
    db: &dyn Queryable,
    expr: &Expr,
    t_ms: i64,
    lookback_ms: i64,
) -> Result<Value, EvalError> {
    eval(&EvalCtx { db, lookback_ms }, expr, t_ms)
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

/// One selector's series over the whole query window, in `db`'s order.
struct Window<'a> {
    matchers: &'a [LabelMatcher],
    tmin: i64,
    tmax: i64,
    series: Vec<SeriesData>,
}

impl Window<'_> {
    fn covers(&self, matchers: &[LabelMatcher], tmin: i64, tmax: i64) -> bool {
        self.matchers == matchers && self.tmin <= tmin && tmax <= self.tmax
    }
}

/// The source one range query evaluates against: each distinct selector
/// window of the expression is read from `db` once, and every per-step
/// `select` inside one is answered by slicing that read.
struct Prefetched<'a> {
    db: &'a dyn Queryable,
    windows: Vec<Window<'a>>,
}

impl<'a> Prefetched<'a> {
    fn new(db: &'a dyn Queryable, expr: &'a Expr, start_ms: i64, end_ms: i64) -> Self {
        let mut windows: Vec<Window<'a>> = Vec::new();
        for sel in expr.selectors() {
            let back = sel.range_ms.unwrap_or(DEFAULT_LOOKBACK_MS);
            let tmin = start_ms.saturating_sub(sel.offset_ms).saturating_sub(back);
            let tmax = end_ms.saturating_sub(sel.offset_ms);
            if !windows.iter().any(|w| w.covers(&sel.matchers, tmin, tmax)) {
                let series = db.select(&sel.matchers, tmin, tmax);
                windows.push(Window {
                    matchers: &sel.matchers,
                    tmin,
                    tmax,
                    series,
                });
            }
        }
        Prefetched { db, windows }
    }

    /// The held read that answers `[tmin, tmax]` of `matchers`, if any.
    fn window(&self, matchers: &[LabelMatcher], tmin: i64, tmax: i64) -> Option<&Window<'a>> {
        self.windows.iter().find(|w| w.covers(matchers, tmin, tmax))
    }
}

/// `samples[lo..hi]` is the part of a sorted series inside `[tmin, tmax]`.
fn bounds(samples: &[Sample], tmin: i64, tmax: i64) -> (usize, usize) {
    (
        samples.partition_point(|x| x.t_ms < tmin),
        samples.partition_point(|x| x.t_ms <= tmax),
    )
}

impl Queryable for Prefetched<'_> {
    fn select(&self, matchers: &[LabelMatcher], tmin: i64, tmax: i64) -> Vec<SeriesData> {
        let Some(window) = self.window(matchers, tmin, tmax) else {
            return self.db.select(matchers, tmin, tmax);
        };
        window
            .series
            .iter()
            .filter_map(|s| {
                let (lo, hi) = bounds(&s.samples, tmin, tmax);
                (lo < hi).then(|| SeriesData::new(s.labels.clone(), s.samples[lo..hi].to_vec()))
            })
            .collect()
    }

    fn select_instant(
        &self,
        matchers: &[LabelMatcher],
        tmin: i64,
        tmax: i64,
    ) -> Vec<(Arc<LabelSet>, Sample)> {
        let Some(window) = self.window(matchers, tmin, tmax) else {
            return self.db.select_instant(matchers, tmin, tmax);
        };
        window
            .series
            .iter()
            .filter_map(|s| {
                let (lo, hi) = bounds(&s.samples, tmin, tmax);
                (lo < hi).then(|| (s.labels.clone(), s.samples[hi - 1]))
            })
            .collect()
    }
}

/// Evaluates an expression over `[start, end]` at `step` intervals,
/// returning one series per result label set in first-seen order.
///
/// Every step is a full instant evaluation on the calling thread, but the
/// storage is read once per selector, not once per step: the steps run
/// against a private `Prefetched` view of `db`. The step count is bounded by
/// [`MAX_RANGE_POINTS`] before anything is read or allocated.
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
    let source = Prefetched::new(db, expr, start_ms, end_ms);
    // Series in first-seen order; `slot` finds a label set's place in it.
    let mut out: Vec<SeriesData> = Vec::new();
    let mut slot: HashMap<LabelSet, usize> = HashMap::new();
    for i in 0..points as i64 {
        let t = start_ms + i * step_ms;
        let vec = match instant_query(&source, expr, t)? {
            Value::Scalar(v) => vec![(LabelSet::empty(), v)],
            Value::Vector(vec) => vec,
            Value::Matrix(_) => {
                return Err(EvalError(
                    "range query over a range selector is not allowed".into(),
                ))
            }
        };
        for (labels, v) in vec {
            let at = *slot.entry(labels).or_insert_with_key(|labels| {
                out.push(SeriesData::new(labels.clone(), Vec::new()));
                out.len() - 1
            });
            out[at].samples.push(Sample::new(t, v));
        }
    }
    Ok(out)
}

fn eval(ctx: &EvalCtx<'_>, expr: &Expr, t_ms: i64) -> Result<Value, EvalError> {
    let db = ctx.db;
    match expr {
        Expr::Number(v) => Ok(Value::Scalar(*v)),
        Expr::Neg(inner) => match eval(ctx, inner, t_ms)? {
            Value::Scalar(v) => Ok(Value::Scalar(-v)),
            Value::Vector(v) => Ok(Value::Vector(
                v.into_iter().map(|(l, x)| (l, -x)).collect(),
            )),
            Value::Matrix(_) => Err(EvalError("cannot negate a range vector".into())),
        },
        Expr::Selector(sel) => {
            let at = t_ms - sel.offset_ms;
            match sel.range_ms {
                // Instant: last sample within the lookback window.
                None => Ok(Value::Vector(
                    db.select_instant(&sel.matchers, at - ctx.lookback_ms, at)
                        .into_iter()
                        .map(|(labels, last)| ((*labels).clone(), last.v))
                        .collect(),
                )),
                Some(range) => {
                    let series = db.select(&sel.matchers, at - range, at);
                    Ok(Value::Matrix(series))
                }
            }
        }
        Expr::Func { name, args } => eval_func(ctx, name, args, t_ms),
        Expr::Binary {
            op,
            lhs,
            rhs,
            matching,
        } => {
            let l = eval(ctx, lhs, t_ms)?;
            let r = eval(ctx, rhs, t_ms)?;
            eval_binary(*op, l, r, matching)
        }
        Expr::Compare {
            op,
            bool_mode,
            lhs,
            rhs,
        } => {
            let l = eval(ctx, lhs, t_ms)?;
            let r = eval(ctx, rhs, t_ms)?;
            eval_compare(*op, *bool_mode, l, r)
        }
        Expr::Agg {
            op,
            grouping,
            param,
            expr,
        } => {
            let v = eval(ctx, expr, t_ms)?;
            let Value::Vector(vec) = v else {
                return Err(EvalError("aggregation expects an instant vector".into()));
            };
            let k = match param {
                Some(p) => match eval(ctx, p, t_ms)? {
                    Value::Scalar(k) => Some(k as usize),
                    _ => return Err(EvalError("topk/bottomk k must be a scalar".into())),
                },
                None => None,
            };
            Ok(Value::Vector(aggregate(*op, grouping, k, vec)?))
        }
    }
}

/// Signature used for grouping / vector matching: restrict or drop labels,
/// always dropping `__name__`.
fn signature(labels: &LabelSet, grouping: &Grouping) -> LabelSet {
    match grouping {
        Grouping::None => labels.drop_names(&[]),
        Grouping::By(keep) => labels.restrict_to(keep),
        Grouping::Without(drop) => labels.drop_names(drop),
    }
}

fn aggregate(
    op: AggOp,
    grouping: &Grouping,
    k: Option<usize>,
    vec: Vec<(LabelSet, f64)>,
) -> Result<Vec<(LabelSet, f64)>, EvalError> {
    // topk/bottomk keep original labels and simply filter.
    if matches!(op, AggOp::Topk | AggOp::Bottomk) {
        let k = k.ok_or_else(|| EvalError("topk/bottomk need k".into()))?;
        let mut v = vec;
        v.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal));
        if op == AggOp::Bottomk {
            v.reverse();
        }
        v.truncate(k);
        return Ok(v);
    }

    // Grouping collapses to one entry when Grouping::None: signature is the
    // full label set minus __name__ — not what we want. sum(expr) with no
    // grouping collapses everything.
    // Groups in first-seen order; `slot` finds a key's place in it.
    let mut groups: Vec<(LabelSet, Vec<f64>)> = Vec::new();
    let mut slot: HashMap<LabelSet, usize> = HashMap::new();
    for (labels, v) in vec {
        let key = match grouping {
            Grouping::None => LabelSet::empty(),
            _ => signature(&labels, grouping),
        };
        let at = *slot.entry(key).or_insert_with_key(|key| {
            groups.push((key.clone(), Vec::new()));
            groups.len() - 1
        });
        groups[at].1.push(v);
    }
    Ok(groups
        .into_iter()
        .map(|(key, vals)| {
            let out = match op {
                AggOp::Sum => vals.iter().sum(),
                AggOp::Avg => vals.iter().sum::<f64>() / vals.len() as f64,
                AggOp::Min => vals.iter().copied().fold(f64::INFINITY, f64::min),
                AggOp::Max => vals.iter().copied().fold(f64::NEG_INFINITY, f64::max),
                AggOp::Count => vals.len() as f64,
                AggOp::Stddev | AggOp::Stdvar => {
                    let mean = vals.iter().sum::<f64>() / vals.len() as f64;
                    let var = vals.iter().map(|v| (v - mean).powi(2)).sum::<f64>()
                        / vals.len() as f64;
                    if op == AggOp::Stdvar { var } else { var.sqrt() }
                }
                AggOp::Topk | AggOp::Bottomk => unreachable!(),
            };
            (key, out)
        })
        .collect())
}

fn eval_binary(
    op: BinOp,
    l: Value,
    r: Value,
    matching: &Grouping,
) -> Result<Value, EvalError> {
    match (l, r) {
        (Value::Scalar(a), Value::Scalar(b)) => Ok(Value::Scalar(op.apply(a, b))),
        (Value::Vector(v), Value::Scalar(s)) => Ok(Value::Vector(
            v.into_iter()
                .map(|(l, x)| (l.without(METRIC_NAME_LABEL), op.apply(x, s)))
                .collect(),
        )),
        (Value::Scalar(s), Value::Vector(v)) => Ok(Value::Vector(
            v.into_iter()
                .map(|(l, x)| (l.without(METRIC_NAME_LABEL), op.apply(s, x)))
                .collect(),
        )),
        (Value::Vector(lv), Value::Vector(rv)) => {
            // Vector matching: the right side must be unique per signature;
            // the left side may be many-to-one (Prometheus would demand an
            // explicit `group_left`; this engine grants it implicitly and
            // keeps the LEFT labels on the output, which is what the Eq. (1)
            // rules need to retain `uuid` when dividing by node-level
            // series).
            let mut rmap: HashMap<LabelSet, f64> = HashMap::new();
            for (labels, v) in &rv {
                let sig = signature(labels, matching);
                if rmap.insert(sig, *v).is_some() {
                    return Err(EvalError(
                        "right operand has duplicate series per matching signature; \
                         narrow it with on(...)/ignoring(...) or aggregate first"
                            .into(),
                    ));
                }
            }
            let mut out = Vec::new();
            for (labels, lval) in lv {
                let sig = signature(&labels, matching);
                if let Some(&rval) = rmap.get(&sig) {
                    out.push((labels.without(METRIC_NAME_LABEL), op.apply(lval, rval)));
                }
            }
            Ok(Value::Vector(out))
        }
        _ => Err(EvalError(
            "binary operators are not defined on range vectors".into(),
        )),
    }
}

/// Comparison with Prometheus semantics: filtering by default (surviving
/// elements keep their labels — including `__name__` — and values), 0/1
/// per element with the `bool` modifier. Vector-vector comparison matches
/// on the full label signature like unmodified arithmetic matching.
fn eval_compare(op: CmpOp, bool_mode: bool, l: Value, r: Value) -> Result<Value, EvalError> {
    let as_bool = |keep: bool| if keep { 1.0 } else { 0.0 };
    match (l, r) {
        (Value::Scalar(a), Value::Scalar(b)) => {
            if !bool_mode {
                return Err(EvalError(
                    "comparison between two scalars needs the bool modifier".into(),
                ));
            }
            Ok(Value::Scalar(as_bool(op.apply(a, b))))
        }
        (Value::Vector(v), Value::Scalar(s)) => Ok(Value::Vector(
            v.into_iter()
                .filter_map(|(labels, x)| {
                    let keep = op.apply(x, s);
                    if bool_mode {
                        Some((labels.without(METRIC_NAME_LABEL), as_bool(keep)))
                    } else if keep {
                        Some((labels, x))
                    } else {
                        None
                    }
                })
                .collect(),
        )),
        (Value::Scalar(s), Value::Vector(v)) => Ok(Value::Vector(
            v.into_iter()
                .filter_map(|(labels, x)| {
                    let keep = op.apply(s, x);
                    if bool_mode {
                        Some((labels.without(METRIC_NAME_LABEL), as_bool(keep)))
                    } else if keep {
                        Some((labels, x))
                    } else {
                        None
                    }
                })
                .collect(),
        )),
        (Value::Vector(lv), Value::Vector(rv)) => {
            let mut rmap: HashMap<LabelSet, f64> = HashMap::new();
            for (labels, v) in &rv {
                let sig = signature(labels, &Grouping::None);
                if rmap.insert(sig, *v).is_some() {
                    return Err(EvalError(
                        "right operand has duplicate series per matching signature; \
                         aggregate it first"
                            .into(),
                    ));
                }
            }
            let mut out = Vec::new();
            for (labels, lval) in lv {
                let sig = signature(&labels, &Grouping::None);
                let Some(&rval) = rmap.get(&sig) else { continue };
                let keep = op.apply(lval, rval);
                if bool_mode {
                    out.push((labels.without(METRIC_NAME_LABEL), as_bool(keep)));
                } else if keep {
                    out.push((labels, lval));
                }
            }
            Ok(Value::Vector(out))
        }
        _ => Err(EvalError(
            "comparisons are not defined on range vectors".into(),
        )),
    }
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

fn eval_func(
    ctx: &EvalCtx<'_>,
    name: &str,
    args: &[Expr],
    t_ms: i64,
) -> Result<Value, EvalError> {
    let matrix_arg = |i: usize| -> Result<Vec<SeriesData>, EvalError> {
        match eval(ctx, args.get(i).ok_or_else(|| arity(name))?, t_ms)? {
            Value::Matrix(m) => Ok(m),
            _ => Err(EvalError(format!("{name} expects a range vector"))),
        }
    };
    let vector_arg = |i: usize| -> Result<Vec<(LabelSet, f64)>, EvalError> {
        match eval(ctx, args.get(i).ok_or_else(|| arity(name))?, t_ms)? {
            Value::Vector(v) => Ok(v),
            Value::Scalar(s) => Ok(vec![(LabelSet::empty(), s)]),
            _ => Err(EvalError(format!("{name} expects an instant vector"))),
        }
    };
    let scalar_arg = |i: usize| -> Result<f64, EvalError> {
        match eval(ctx, args.get(i).ok_or_else(|| arity(name))?, t_ms)? {
            Value::Scalar(s) => Ok(s),
            _ => Err(EvalError(format!("{name} expects a scalar argument"))),
        }
    };

    // Range-vector functions: map each series to one point, dropping name.
    let over_time = |m: Vec<SeriesData>, f: &dyn Fn(&[Sample]) -> Option<f64>| -> Value {
        Value::Vector(
            m.into_iter()
                .filter_map(|s| {
                    f(&s.samples).map(|v| (s.labels.without(METRIC_NAME_LABEL), v))
                })
                .collect(),
        )
    };

    match name {
        "rate" => Ok(over_time(matrix_arg(0)?, &|s| {
            counter_increase(s).and_then(|(inc, span)| (span > 0.0).then(|| inc / span))
        })),
        "increase" => Ok(over_time(matrix_arg(0)?, &|s| {
            counter_increase(s).map(|(inc, _)| inc)
        })),
        "irate" => Ok(over_time(matrix_arg(0)?, &|s| {
            if s.len() < 2 {
                return None;
            }
            let a = s[s.len() - 2];
            let b = s[s.len() - 1];
            let dv = if b.v >= a.v { b.v - a.v } else { b.v };
            let dt = (b.t_ms - a.t_ms) as f64 / 1000.0;
            (dt > 0.0).then(|| dv / dt)
        })),
        "delta" => Ok(over_time(matrix_arg(0)?, &|s| {
            (s.len() >= 2).then(|| s.last().unwrap().v - s[0].v)
        })),
        "avg_over_time" => Ok(over_time(matrix_arg(0)?, &|s| {
            (!s.is_empty()).then(|| s.iter().map(|x| x.v).sum::<f64>() / s.len() as f64)
        })),
        "sum_over_time" => Ok(over_time(matrix_arg(0)?, &|s| {
            (!s.is_empty()).then(|| s.iter().map(|x| x.v).sum())
        })),
        "min_over_time" => Ok(over_time(matrix_arg(0)?, &|s| {
            s.iter().map(|x| x.v).min_by(|a, b| a.total_cmp(b))
        })),
        "max_over_time" => Ok(over_time(matrix_arg(0)?, &|s| {
            s.iter().map(|x| x.v).max_by(|a, b| a.total_cmp(b))
        })),
        "count_over_time" => Ok(over_time(matrix_arg(0)?, &|s| {
            (!s.is_empty()).then_some(s.len() as f64)
        })),
        "last_over_time" => Ok(over_time(matrix_arg(0)?, &|s| s.last().map(|x| x.v))),
        "abs" | "ceil" | "floor" => {
            let f = match name {
                "abs" => f64::abs,
                "ceil" => f64::ceil,
                _ => f64::floor,
            };
            Ok(Value::Vector(
                vector_arg(0)?
                    .into_iter()
                    .map(|(l, v)| (l.without(METRIC_NAME_LABEL), f(v)))
                    .collect(),
            ))
        }
        "clamp_min" | "clamp_max" => {
            let bound = scalar_arg(1)?;
            let is_min = name == "clamp_min";
            Ok(Value::Vector(
                vector_arg(0)?
                    .into_iter()
                    .map(|(l, v)| {
                        let v = if is_min { v.max(bound) } else { v.min(bound) };
                        (l.without(METRIC_NAME_LABEL), v)
                    })
                    .collect(),
            ))
        }
        "scalar" => {
            let v = vector_arg(0)?;
            Ok(Value::Scalar(if v.len() == 1 { v[0].1 } else { f64::NAN }))
        }
        "quantile_over_time" => {
            let q = scalar_arg(0)?;
            match eval(ctx, args.get(1).ok_or_else(|| arity(name))?, t_ms)? {
                Value::Matrix(m) => Ok(over_time(m, &|s| {
                    if s.is_empty() {
                        return None;
                    }
                    let mut vals: Vec<f64> = s.iter().map(|x| x.v).collect();
                    vals.sort_by(|a, b| a.total_cmp(b));
                    Some(quantile_sorted(&vals, q))
                })),
                _ => Err(EvalError(
                    "quantile_over_time expects a range vector".into(),
                )),
            }
        }
        "histogram_quantile" => {
            let q = scalar_arg(0)?;
            let buckets = vector_arg(1)?;
            Ok(Value::Vector(histogram_quantile(q, buckets)))
        }
        other => Err(EvalError(format!("unknown function {other:?}"))),
    }
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

/// Prometheus `histogram_quantile`: group `_bucket` samples by their
/// non-`le` labels and interpolate within the bucket holding the quantile.
fn histogram_quantile(q: f64, buckets: Vec<(LabelSet, f64)>) -> Vec<(LabelSet, f64)> {
    let mut groups: HashMap<LabelSet, Vec<(f64, f64)>> = HashMap::new();
    let mut order = Vec::new();
    for (labels, count) in buckets {
        let le = match labels.get("le") {
            Some("+Inf") => f64::INFINITY,
            Some(v) => match v.parse::<f64>() {
                Ok(b) => b,
                Err(_) => continue,
            },
            None => continue,
        };
        let key = labels.drop_names(&["le".to_string()]);
        if !groups.contains_key(&key) {
            order.push(key.clone());
        }
        groups.entry(key).or_default().push((le, count));
    }
    order
        .into_iter()
        .filter_map(|key| {
            let mut bs = groups.remove(&key)?;
            bs.sort_by(|a, b| a.0.total_cmp(&b.0));
            let total = bs.last()?.1;
            if total <= 0.0 || !bs.last()?.0.is_infinite() {
                return Some((key, f64::NAN));
            }
            let rank = q.clamp(0.0, 1.0) * total;
            let mut prev_bound = 0.0;
            let mut prev_count = 0.0;
            for &(bound, count) in &bs {
                if count >= rank {
                    if bound.is_infinite() {
                        return Some((key, prev_bound));
                    }
                    let width = bound - prev_bound;
                    let in_bucket = count - prev_count;
                    let frac = if in_bucket > 0.0 {
                        (rank - prev_count) / in_bucket
                    } else {
                        0.0
                    };
                    return Some((key, prev_bound + width * frac));
                }
                prev_bound = bound;
                prev_count = count;
            }
            Some((key, prev_bound))
        })
        .collect()
}

fn arity(name: &str) -> EvalError {
    EvalError(format!("wrong number of arguments for {name}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::promql::parse_expr;
    use crate::storage::Tsdb;
    use ceems_metrics::labels;

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
        let out = histogram_quantile(
            0.9,
            vec![(labels! {"le" => "1.0"}, 5.0)],
        );
        assert!(out[0].1.is_nan());
        let out = histogram_quantile(
            0.9,
            vec![(labels! {"le" => "+Inf"}, 0.0)],
        );
        assert!(out[0].1.is_nan());
        // Non-numeric le skipped entirely.
        let out = histogram_quantile(0.9, vec![(labels! {"le" => "bogus"}, 5.0)]);
        assert!(out.is_empty());
        // No le label at all.
        let out = histogram_quantile(0.9, vec![(labels! {"x" => "1"}, 5.0)]);
        assert!(out.is_empty());
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
    fn stepwise(
        db: &dyn Queryable,
        expr: &Expr,
        start_ms: i64,
        end_ms: i64,
        step_ms: i64,
    ) -> Result<Vec<SeriesData>, EvalError> {
        let mut out: Vec<SeriesData> = Vec::new();
        let mut t = start_ms;
        while t <= end_ms {
            let vec = match instant_query(db, expr, t)? {
                Value::Scalar(v) => vec![(LabelSet::empty(), v)],
                Value::Vector(vec) => vec,
                Value::Matrix(_) => {
                    return Err(EvalError(
                        "range query over a range selector is not allowed".into(),
                    ))
                }
            };
            for (labels, v) in vec {
                match out.iter_mut().find(|s| *s.labels == labels) {
                    Some(s) => s.samples.push(Sample::new(t, v)),
                    None => out.push(SeriesData::new(labels, vec![Sample::new(t, v)])),
                }
            }
            t += step_ms;
        }
        Ok(out)
    }

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

    #[test]
    fn prefetched_select_instant_is_the_last_sample_of_select_at_every_step() {
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
        let expr = parse_expr("a + rate(a[4m]) - a offset 10m").unwrap();
        let (start, end, step) = (60_000, 4_500_000, 37_000);
        let source = Prefetched::new(&db, &expr, start, end);
        for t in (start..=end).step_by(step as usize) {
            for sel in expr.selectors() {
                let at = t - sel.offset_ms;
                let tmin = at - sel.range_ms.unwrap_or(DEFAULT_LOOKBACK_MS);
                assert_instant_is_last_of_select(&source, &sel.matchers, tmin, at);
                assert_eq!(
                    source.select_instant(&sel.matchers, tmin, at),
                    db.select_instant(&sel.matchers, tmin, at)
                );
            }
        }
        // A window the prefetch does not hold goes to the source.
        assert_instant_is_last_of_select(&source, &[LabelMatcher::eq("__name__", "a")], 0, end * 2);
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
