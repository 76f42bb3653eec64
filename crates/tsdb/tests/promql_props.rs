//! Property tests of the PromQL engine against closed-form expectations.

use ceems_metrics::labels::{LabelSet, LabelSetBuilder};
use ceems_tsdb::promql::{instant_query, parse_expr, range_query, reference, EvalError, Queryable, Value};
use ceems_tsdb::{SeriesData, Tsdb};
use proptest::prelude::*;

fn db_with_series(series: &[(String, Vec<f64>)], step_ms: i64) -> Tsdb {
    let db = Tsdb::default();
    for (name, values) in series {
        let labels = LabelSetBuilder::new()
            .label("__name__", "m")
            .label("instance", name.clone())
            .build();
        for (i, v) in values.iter().enumerate() {
            db.append(&labels, i as i64 * step_ms, *v);
        }
    }
    db
}

/// `range_query` against the stepwise reference — one instant evaluation
/// per step reading the source itself, merged in first-seen order — on
/// series, order, `(t, value bits)` and error text.
fn same_as_stepwise(
    db: &dyn Queryable,
    q: &str,
    start_ms: i64,
    end_ms: i64,
    step_ms: i64,
) {
    type Out = Result<Vec<(LabelSet, Vec<(i64, u64)>)>, EvalError>;
    let expr = parse_expr(q).unwrap();
    let got: Out = range_query(db, &expr, start_ms, end_ms, step_ms).map(|m| bits(&m));
    let want: Out = reference::range_query(db, &expr, start_ms, end_ms, step_ms).map(|m| bits(&m));
    prop_assert_eq!(got, want, "{} over {}..{}/{}", q, start_ms, end_ms, step_ms);
}

/// Labels in order, then `(t, value bits)` per series: NaN equals NaN and
/// nothing laxer than identical bits passes.
fn bits(m: &[SeriesData]) -> Vec<(LabelSet, Vec<(i64, u64)>)> {
    m.iter()
        .map(|s| {
            (
                (*s.labels).clone(),
                s.samples.iter().map(|x| (x.t_ms, x.v.to_bits())).collect(),
            )
        })
        .collect()
}

fn vector(v: Value) -> Vec<(ceems_metrics::labels::LabelSet, f64)> {
    match v {
        Value::Vector(v) => v,
        other => panic!("expected vector, got {other:?}"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// rate() of any non-decreasing counter is non-negative, and equals
    /// total increase / span when there are no resets.
    #[test]
    fn rate_of_monotonic_counter(increments in proptest::collection::vec(0.0f64..1000.0, 4..40)) {
        let mut acc = 0.0;
        let values: Vec<f64> = increments.iter().map(|d| { acc += d; acc }).collect();
        let n = values.len() as i64;
        let total_increase = values.last().unwrap() - values[0];
        let span_s = (n - 1) as f64 * 15.0;

        let db = db_with_series(&[("n1".to_string(), values)], 15_000);
        let window_s = n * 15;
        let q = format!("rate(m[{window_s}s])");
        let v = vector(instant_query(&db, &parse_expr(&q).unwrap(), (n - 1) * 15_000).unwrap());
        prop_assert_eq!(v.len(), 1);
        let rate = v[0].1;
        prop_assert!(rate >= 0.0);
        prop_assert!((rate - total_increase / span_s).abs() < 1e-6,
            "rate={} expected={}", rate, total_increase / span_s);
    }

    /// sum() equals the arithmetic sum of the latest values; avg, min, max
    /// agree with their definitions.
    #[test]
    fn aggregations_match_definitions(
        values in proptest::collection::vec(-1e6f64..1e6, 1..12)
    ) {
        let series: Vec<(String, Vec<f64>)> = values
            .iter()
            .enumerate()
            .map(|(i, v)| (format!("n{i}"), vec![*v]))
            .collect();
        let db = db_with_series(&series, 15_000);
        let at = 1000;

        let sum = vector(instant_query(&db, &parse_expr("sum(m)").unwrap(), at).unwrap())[0].1;
        let avg = vector(instant_query(&db, &parse_expr("avg(m)").unwrap(), at).unwrap())[0].1;
        let min = vector(instant_query(&db, &parse_expr("min(m)").unwrap(), at).unwrap())[0].1;
        let max = vector(instant_query(&db, &parse_expr("max(m)").unwrap(), at).unwrap())[0].1;
        let count = vector(instant_query(&db, &parse_expr("count(m)").unwrap(), at).unwrap())[0].1;

        let want_sum: f64 = values.iter().sum();
        prop_assert!((sum - want_sum).abs() < values.len() as f64);
        prop_assert!((avg - want_sum / values.len() as f64).abs() < 1.0);
        prop_assert_eq!(min, values.iter().copied().fold(f64::INFINITY, f64::min));
        prop_assert_eq!(max, values.iter().copied().fold(f64::NEG_INFINITY, f64::max));
        prop_assert_eq!(count, values.len() as f64);
    }

    /// A range query's series at each step equals the instant query there.
    #[test]
    fn range_query_is_pointwise_instant(vals in proptest::collection::vec(0.0f64..100.0, 4..20)) {
        let db = db_with_series(&[("n1".to_string(), vals.clone())], 15_000);
        let expr = parse_expr("sum(m)").unwrap();
        let end = (vals.len() as i64 - 1) * 15_000;
        let series = range_query(&db, &expr, 0, end, 15_000).unwrap();
        prop_assert_eq!(series.len(), 1);
        for s in &series[0].samples {
            let inst = vector(instant_query(&db, &expr, s.t_ms).unwrap())[0].1;
            prop_assert_eq!(s.v, inst, "at t={}", s.t_ms);
        }
    }

    /// A range query equals one instant query per step of the stepwise
    /// reference, bit for bit and in first-seen series order, over series
    /// that start and stop mid-grid, with counter resets, NaN samples and
    /// gaps, on any grid and offset: selectors and range functions,
    /// grouping and nested aggregations, rankings with ties, matching with
    /// `on`/`ignoring` (and its duplicate-signature error), comparisons,
    /// per-step scalars, and a right-hand side that turns duplicate late.
    #[test]
    fn range_query_is_stepwise_instant(
        series in proptest::collection::vec(
            (
                0usize..30,
                proptest::collection::vec(
                    proptest::option::of(prop_oneof![
                        4 => 0.0f64..1000.0,
                        1 => (0u8..4).prop_map(f64::from),
                        1 => Just(f64::NAN),
                    ]),
                    1..60,
                ),
            ),
            1..8,
        ),
        // Everything on a 5 s lattice, samples every 15 s: a third of
        // the window edges land exactly on a sample.
        start in -20i64..120,
        span in 0i64..240,
        step in 1i64..140,
        offset in prop_oneof![2 => Just(0i64), 1 => 1i64..120],
        window_late in (3i64..180, 0i64..80),
    ) {
        let (window, late) = window_late;
        let (start_ms, span_ms, step_ms) = (start * 5_000, span * 5_000, step * 5_000);
        let (offset_s, window_s) = (offset * 5, window * 5);
        let db = Tsdb::default();
        for (n, (lead, slots)) in series.iter().enumerate() {
            let labels = LabelSetBuilder::new()
                .label("__name__", "m")
                .label("instance", format!("n{n}"))
                .label("g", ["a", "b", "c"][n % 3])
                .label("le", ["0.5", "1", "+Inf", "2"][n % 4])
                .build();
            for (i, v) in slots.iter().enumerate() {
                if let Some(v) = v {
                    db.append(&labels, (lead + i) as i64 * 15_000, *v);
                }
            }
        }
        // `d{k="b"}` shares `d{k="a"}`'s empty signature from slot `late` on.
        for i in 0..90i64 {
            db.append(&LabelSet::from_pairs([("__name__", "d"), ("k", "a")]), i * 15_000, 2.0);
            if i >= late {
                db.append(&LabelSet::from_pairs([("__name__", "d"), ("k", "b")]), i * 15_000, 3.0);
            }
        }
        let m = if offset_s == 0 { "m".to_string() } else { format!("m offset {offset_s}s") };
        for q in [
            format!("rate(m[{window_s}s] offset {offset_s}s)"),
            format!("sum({m})"),
            format!("avg({m})"),
            format!("min({m})"),
            format!("max({m})"),
            format!("count({m})"),
            format!("{m} / m"),
            format!("m - {m}"),
            format!("2 * {m}"),
            format!("{m} + {m}"),
            format!("sum by (g) ({m})"),
            format!("avg without (instance, le) ({m})"),
            format!("sum(sum by (g) ({m}) / 3)"),
            format!("topk(2, sum by (g) ({m}) * 0)"),
            format!("max by (le) (sum without (instance) ({m}))"),
            format!("topk(2, {m})"),
            format!("bottomk(2, {m})"),
            format!("topk(1, {m} * 0)"),
            format!("sum(topk(3, {m}) / 7)"),
            format!("{m} / on (g) m"),
            format!("m / ignoring (instance, le) {m}"),
            format!("{m} > 500"),
            format!("{m} > bool 500"),
            format!("m < {m}"),
            format!("m >= bool {m}"),
            format!("clamp_min({m}, scalar(m))"),
            format!("histogram_quantile(0.5, sum by (le, g) ({m}))"),
            format!("quantile_over_time(0.75, m[{window_s}s] offset {offset_s}s)"),
            format!("{m} * on () d"),
            format!("(d / on () d) + rate(m[{window_s}s])"),
        ] {
            same_as_stepwise(&db, &q, start_ms, start_ms + span_ms, step_ms);
        }
    }

    /// Arithmetic identities hold on vectors.
    #[test]
    fn vector_arithmetic_identities(vals in proptest::collection::vec(1.0f64..1000.0, 1..8)) {
        let series: Vec<(String, Vec<f64>)> = vals
            .iter()
            .enumerate()
            .map(|(i, v)| (format!("n{i}"), vec![*v]))
            .collect();
        let db = db_with_series(&series, 15_000);
        let at = 1000;
        // m / m == 1 for every series.
        let v = vector(instant_query(&db, &parse_expr("m / m").unwrap(), at).unwrap());
        prop_assert_eq!(v.len(), vals.len());
        for (_, x) in &v {
            prop_assert!((x - 1.0).abs() < 1e-12);
        }
        // m - m == 0.
        let v = vector(instant_query(&db, &parse_expr("m - m").unwrap(), at).unwrap());
        for (_, x) in &v {
            prop_assert_eq!(*x, 0.0);
        }
        // 2*m == m+m.
        let twice = vector(instant_query(&db, &parse_expr("2 * m").unwrap(), at).unwrap());
        let added = vector(instant_query(&db, &parse_expr("m + m").unwrap(), at).unwrap());
        for (l, x) in &twice {
            let other = added.iter().find(|(l2, _)| l2 == l).unwrap().1;
            prop_assert_eq!(*x, other);
        }
    }

    /// The parser either errors or produces something the evaluator can
    /// process without panicking.
    #[test]
    fn engine_never_panics(query in "[ -~]{0,48}") {
        let db = db_with_series(&[("n1".to_string(), vec![1.0, 2.0])], 15_000);
        if let Ok(expr) = parse_expr(&query) {
            let _ = instant_query(&db, &expr, 30_000);
        }
    }
}
