//! The step-at-a-time evaluator the engine replaced, kept as the reference
//! the tests compare it with: one instant evaluation per step, each reading
//! its selectors from the source, merged into series in first-seen order.
//! Nothing in production calls it.

use std::cmp::Ordering;
use std::collections::HashMap;

use ceems_metrics::labels::{LabelSet, METRIC_NAME_LABEL};

use crate::types::{Sample, SeriesData};

use super::eval::{
    arity, bucket_quantile, combine, le_bound, range_fn, signature, EvalError, Queryable, Value,
    DEFAULT_LOOKBACK_MS,
};
use super::{AggOp, BinOp, CmpOp, Expr, Grouping};

/// Evaluation context: the data source plus the instant-selector lookback.
#[derive(Clone, Copy)]
struct EvalCtx<'a> {
    db: &'a dyn Queryable,
    lookback_ms: i64,
}

/// One instant evaluation at `t_ms`, reading straight from `db`.
pub fn instant_query_with_lookback(
    db: &dyn Queryable,
    expr: &Expr,
    t_ms: i64,
    lookback_ms: i64,
) -> Result<Value, EvalError> {
    eval(&EvalCtx { db, lookback_ms }, expr, t_ms)
}

/// One instant evaluation per step of `start, start + step, … ≤ end`,
/// merged into one series per label set in first-seen order (a label set
/// seen twice in one step gets both samples).
pub fn range_query(
    db: &dyn Queryable,
    expr: &Expr,
    start_ms: i64,
    end_ms: i64,
    step_ms: i64,
) -> Result<Vec<SeriesData>, EvalError> {
    super::eval::range_points(start_ms, end_ms, step_ms)?;
    let mut out: Vec<SeriesData> = Vec::new();
    let mut slot: HashMap<LabelSet, usize> = HashMap::new();
    let mut t = start_ms;
    while t <= end_ms {
        let vec = match instant_query_with_lookback(db, expr, t, DEFAULT_LOOKBACK_MS)? {
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
        match t.checked_add(step_ms) {
            Some(next) => t = next,
            None => break,
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
            Value::Vector(v) => Ok(Value::Vector(v.into_iter().map(|(l, x)| (l, -x)).collect())),
            Value::Matrix(_) => Err(EvalError("cannot negate a range vector".into())),
        },
        Expr::Selector(sel) => {
            let at = t_ms - sel.offset_ms;
            match sel.range_ms {
                None => Ok(Value::Vector(
                    db.select_instant(&sel.matchers, at - ctx.lookback_ms, at)
                        .into_iter()
                        .map(|(labels, last)| ((*labels).clone(), last.v))
                        .collect(),
                )),
                Some(range) => Ok(Value::Matrix(db.select(&sel.matchers, at - range, at))),
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
            let Value::Vector(vec) = eval(ctx, expr, t_ms)? else {
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

fn aggregate(
    op: AggOp,
    grouping: &Grouping,
    k: Option<usize>,
    vec: Vec<(LabelSet, f64)>,
) -> Result<Vec<(LabelSet, f64)>, EvalError> {
    if matches!(op, AggOp::Topk | AggOp::Bottomk) {
        let k = k.ok_or_else(|| EvalError("topk/bottomk need k".into()))?;
        let mut v = vec;
        rank(&mut v, |x| x.1, op == AggOp::Bottomk, k);
        return Ok(v);
    }
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
        .map(|(key, vals)| (key, combine(op, &vals)))
        .collect())
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

/// Vector matching: the right side must be unique per signature; the left
/// side may be many-to-one and keeps its labels.
fn matched(
    lv: Vec<(LabelSet, f64)>,
    rv: &[(LabelSet, f64)],
    matching: &Grouping,
    dup: &str,
) -> Result<Vec<(LabelSet, f64, f64)>, EvalError> {
    let mut rmap: HashMap<LabelSet, f64> = HashMap::new();
    for (labels, v) in rv {
        if rmap.insert(signature(labels, matching), *v).is_some() {
            return Err(EvalError(dup.into()));
        }
    }
    Ok(lv
        .into_iter()
        .filter_map(|(labels, l)| {
            let r = *rmap.get(&signature(&labels, matching))?;
            Some((labels, l, r))
        })
        .collect())
}

fn eval_binary(op: BinOp, l: Value, r: Value, matching: &Grouping) -> Result<Value, EvalError> {
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
        (Value::Vector(lv), Value::Vector(rv)) => Ok(Value::Vector(
            matched(lv, &rv, matching, super::eval::DUP_MATCHING)?
                .into_iter()
                .map(|(labels, l, r)| (labels.without(METRIC_NAME_LABEL), op.apply(l, r)))
                .collect(),
        )),
        _ => Err(EvalError(
            "binary operators are not defined on range vectors".into(),
        )),
    }
}

fn eval_compare(op: CmpOp, bool_mode: bool, l: Value, r: Value) -> Result<Value, EvalError> {
    let as_bool = |keep: bool| if keep { 1.0 } else { 0.0 };
    let pick = |labels: LabelSet, x: f64, keep: bool| {
        if bool_mode {
            Some((labels.without(METRIC_NAME_LABEL), as_bool(keep)))
        } else {
            keep.then_some((labels, x))
        }
    };
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
                .filter_map(|(labels, x)| pick(labels, x, op.apply(x, s)))
                .collect(),
        )),
        (Value::Scalar(s), Value::Vector(v)) => Ok(Value::Vector(
            v.into_iter()
                .filter_map(|(labels, x)| pick(labels, x, op.apply(s, x)))
                .collect(),
        )),
        (Value::Vector(lv), Value::Vector(rv)) => Ok(Value::Vector(
            matched(lv, &rv, &Grouping::None, super::eval::DUP_COMPARE)?
                .into_iter()
                .filter_map(|(labels, l, r)| pick(labels, l, op.apply(l, r)))
                .collect(),
        )),
        _ => Err(EvalError(
            "comparisons are not defined on range vectors".into(),
        )),
    }
}

fn eval_func(ctx: &EvalCtx<'_>, name: &str, args: &[Expr], t_ms: i64) -> Result<Value, EvalError> {
    let arg = |i: usize| eval(ctx, args.get(i).ok_or_else(|| arity(name))?, t_ms);
    let vector_arg = |i: usize| -> Result<Vec<(LabelSet, f64)>, EvalError> {
        match arg(i)? {
            Value::Vector(v) => Ok(v),
            Value::Scalar(s) => Ok(vec![(LabelSet::empty(), s)]),
            _ => Err(EvalError(format!("{name} expects an instant vector"))),
        }
    };
    let scalar_arg = |i: usize| -> Result<f64, EvalError> {
        match arg(i)? {
            Value::Scalar(s) => Ok(s),
            _ => Err(EvalError(format!("{name} expects a scalar argument"))),
        }
    };
    // Range-vector functions: map each series to one point, dropping name.
    let over_time = |m: Vec<SeriesData>, f: &dyn Fn(&[Sample]) -> Option<f64>| -> Value {
        Value::Vector(
            m.into_iter()
                .filter_map(|s| f(&s.samples).map(|v| (s.labels.without(METRIC_NAME_LABEL), v)))
                .collect(),
        )
    };

    if let Some(f) = range_fn(name) {
        return match arg(0)? {
            Value::Matrix(m) => Ok(over_time(m, &f)),
            _ => Err(EvalError(format!("{name} expects a range vector"))),
        };
    }
    match name {
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
            match arg(1)? {
                Value::Matrix(m) => Ok(over_time(m, &|s| super::eval::quantile_over(s, q))),
                _ => Err(EvalError(
                    "quantile_over_time expects a range vector".into(),
                )),
            }
        }
        "histogram_quantile" => {
            let q = scalar_arg(0)?;
            Ok(Value::Vector(histogram_quantile(q, vector_arg(1)?)))
        }
        other => Err(EvalError(format!("unknown function {other:?}"))),
    }
}

/// Groups `_bucket` samples by their non-`le` labels, first-seen order.
fn histogram_quantile(q: f64, buckets: Vec<(LabelSet, f64)>) -> Vec<(LabelSet, f64)> {
    let mut groups: Vec<(LabelSet, Vec<(f64, f64)>)> = Vec::new();
    let mut slot: HashMap<LabelSet, usize> = HashMap::new();
    for (labels, count) in buckets {
        let Some(le) = le_bound(&labels) else {
            continue;
        };
        let key = labels.drop_names(&["le".to_string()]);
        let at = *slot.entry(key).or_insert_with_key(|key| {
            groups.push((key.clone(), Vec::new()));
            groups.len() - 1
        });
        groups[at].1.push((le, count));
    }
    groups
        .into_iter()
        .map(|(key, mut bs)| (key, bucket_quantile(q, &mut bs)))
        .collect()
}
