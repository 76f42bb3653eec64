//! Static analysis of parsed PromQL for the query frontend.
//!
//! The frontend (`ceems-qfe`) splits long `query_range` requests into
//! day-aligned sub-ranges and caches immutable past results. Both tricks
//! need facts only the parser knows:
//!
//! * [`normalize`] — a canonical rendering of the expression (sorted
//!   matchers and grouping labels, millisecond durations) so that
//!   whitespace/ordering variants of the same query share one cache key;
//! * [`max_selector_lookback_ms`] — how far back any selector reaches,
//!   which bounds the overlap a sub-range needs for `rate`/`increase`/
//!   `*_over_time` to be bit-for-bit identical to the unsplit query;
//! * [`split_safety`] — whether per-step evaluation is provably
//!   independent of the enclosing request window. `topk`/`bottomk` and
//!   offset-bearing selectors are conservatively refused (mirroring
//!   production query frontends) and must pass through verbatim.

use ceems_metrics::matcher::LabelMatcher;

use super::eval::DEFAULT_LOOKBACK_MS;
use super::{AggOp, BinOp, Expr, Grouping, VectorSelector};

/// Whether an expression may be split into sub-ranges and cached.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SplitSafety {
    /// Per-step evaluation only reads samples within `max_lookback_ms`
    /// before the step; sub-ranges overlap by that much and merge exactly.
    Safe {
        /// Maximum lookback of any selector in the expression (ms).
        max_lookback_ms: i64,
    },
    /// The analyzer could not prove independence; the frontend must pass
    /// the query through verbatim, unsplit and uncached.
    Unsafe {
        /// Human-readable reason, surfaced in traces and logs.
        reason: String,
    },
}

/// Canonical rendering of an expression for use as a cache key.
///
/// Matchers are sorted by `(label, op, value)`, grouping and matching
/// labels are sorted, durations are rendered in milliseconds, and numbers
/// use Rust's shortest round-trip form — so any two query strings that
/// parse to the same tree render identically.
pub fn normalize(expr: &Expr) -> String {
    let mut out = String::new();
    render(expr, &mut out);
    out
}

fn render(expr: &Expr, out: &mut String) {
    match expr {
        Expr::Number(n) => out.push_str(&format!("{n:?}")),
        Expr::Selector(sel) => render_selector(sel, out),
        Expr::Neg(inner) => {
            out.push_str("-(");
            render(inner, out);
            out.push(')');
        }
        Expr::Binary { op, lhs, rhs, matching } => {
            out.push('(');
            render(lhs, out);
            out.push(' ');
            out.push_str(match op {
                BinOp::Add => "+",
                BinOp::Sub => "-",
                BinOp::Mul => "*",
                BinOp::Div => "/",
            });
            match matching {
                Grouping::None => {}
                Grouping::By(ls) => {
                    out.push_str(" on(");
                    out.push_str(&sorted_csv(ls));
                    out.push(')');
                }
                Grouping::Without(ls) => {
                    out.push_str(" ignoring(");
                    out.push_str(&sorted_csv(ls));
                    out.push(')');
                }
            }
            out.push(' ');
            render(rhs, out);
            out.push(')');
        }
        Expr::Agg { op, grouping, param, expr } => {
            out.push_str(match op {
                AggOp::Sum => "sum",
                AggOp::Avg => "avg",
                AggOp::Min => "min",
                AggOp::Max => "max",
                AggOp::Count => "count",
                AggOp::Topk => "topk",
                AggOp::Bottomk => "bottomk",
                AggOp::Stddev => "stddev",
                AggOp::Stdvar => "stdvar",
            });
            match grouping {
                Grouping::None => {}
                Grouping::By(ls) => {
                    out.push_str(" by(");
                    out.push_str(&sorted_csv(ls));
                    out.push(')');
                }
                Grouping::Without(ls) => {
                    out.push_str(" without(");
                    out.push_str(&sorted_csv(ls));
                    out.push(')');
                }
            }
            out.push('(');
            if let Some(p) = param {
                render(p, out);
                out.push_str(", ");
            }
            render(expr, out);
            out.push(')');
        }
        Expr::Func { name, args } => {
            out.push_str(name);
            out.push('(');
            for (i, a) in args.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                render(a, out);
            }
            out.push(')');
        }
        Expr::Compare { op, bool_mode, lhs, rhs } => {
            out.push('(');
            render(lhs, out);
            out.push(' ');
            out.push_str(op.as_str());
            if *bool_mode {
                out.push_str(" bool");
            }
            out.push(' ');
            render(rhs, out);
            out.push(')');
        }
    }
}

fn render_selector(sel: &VectorSelector, out: &mut String) {
    let mut matchers: Vec<&LabelMatcher> = sel.matchers.iter().collect();
    matchers.sort_by(|a, b| {
        (a.name.as_str(), a.op.as_str(), a.value.as_str())
            .cmp(&(b.name.as_str(), b.op.as_str(), b.value.as_str()))
    });
    out.push('{');
    for (i, m) in matchers.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&m.name);
        out.push_str(m.op.as_str());
        out.push_str(&format!("{:?}", m.value));
    }
    out.push('}');
    if let Some(r) = sel.range_ms {
        out.push_str(&format!("[{r}ms]"));
    }
    if sel.offset_ms != 0 {
        out.push_str(&format!(" offset {}ms", sel.offset_ms));
    }
}

fn sorted_csv(labels: &[String]) -> String {
    let mut ls: Vec<&str> = labels.iter().map(String::as_str).collect();
    ls.sort_unstable();
    ls.join(",")
}

/// Maximum distance (ms) before an evaluation step that any selector in
/// `expr` reads. Instant selectors contribute the staleness lookback
/// window; range selectors contribute their range.
pub fn max_selector_lookback_ms(expr: &Expr) -> i64 {
    expr.selectors()
        .iter()
        .map(|sel| sel.range_ms.unwrap_or(DEFAULT_LOOKBACK_MS))
        .max()
        .unwrap_or(0)
}

/// Decides whether `expr` may be range-split and result-cached.
///
/// Everything this engine evaluates is per-step independent, but the
/// frontend still refuses `topk`/`bottomk` (their membership churns
/// step-to-step, so cached extents would pin stale rankings in
/// production engines) and offset-bearing selectors (the offset shifts
/// the immutability horizon a cache would need to track). Unknown
/// constructs cannot reach this function — the parser rejects them — but
/// the match stays exhaustive so a future `Expr` variant fails closed at
/// compile time rather than silently defaulting to "safe".
pub fn split_safety(expr: &Expr) -> SplitSafety {
    match check(expr) {
        Some(reason) => SplitSafety::Unsafe { reason },
        None => SplitSafety::Safe { max_lookback_ms: max_selector_lookback_ms(expr) },
    }
}

fn check(expr: &Expr) -> Option<String> {
    match expr {
        Expr::Number(_) => None,
        Expr::Selector(sel) => {
            if sel.offset_ms != 0 {
                Some(format!("selector with offset {}ms", sel.offset_ms))
            } else {
                None
            }
        }
        Expr::Neg(inner) => check(inner),
        Expr::Binary { lhs, rhs, .. } => check(lhs).or_else(|| check(rhs)),
        Expr::Agg { op, param, expr, .. } => match op {
            AggOp::Topk | AggOp::Bottomk => Some(format!(
                "{} ranks across series per step",
                if *op == AggOp::Topk { "topk" } else { "bottomk" }
            )),
            _ => param.as_deref().and_then(check).or_else(|| check(expr)),
        },
        Expr::Func { args, .. } => args.iter().find_map(check),
        Expr::Compare { lhs, rhs, .. } => check(lhs).or_else(|| check(rhs)),
    }
}

#[cfg(test)]
mod tests {
    use super::super::parse_expr;
    use super::*;

    #[test]
    fn normalize_canonicalizes_matcher_and_grouping_order() {
        let a = parse_expr(r#"sum by (user, project) (rate(foo{b="2",a="1"}[2m]))"#).unwrap();
        let b = parse_expr(r#"sum by(project,user)(rate(foo{a="1",  b="2"}[120s]))"#).unwrap();
        assert_eq!(normalize(&a), normalize(&b));
        assert!(normalize(&a).contains("[120000ms]"));
    }

    #[test]
    fn normalize_distinguishes_different_queries() {
        let a = parse_expr(r#"rate(foo{a="1"}[2m])"#).unwrap();
        let b = parse_expr(r#"rate(foo{a="2"}[2m])"#).unwrap();
        let c = parse_expr(r#"rate(foo{a="1"}[3m])"#).unwrap();
        assert_ne!(normalize(&a), normalize(&b));
        assert_ne!(normalize(&a), normalize(&c));
    }

    #[test]
    fn lookback_takes_max_over_selectors() {
        let e = parse_expr(r#"sum(rate(foo[10m])) + avg(bar)"#).unwrap();
        assert_eq!(max_selector_lookback_ms(&e), 10 * 60 * 1000);
        let instant = parse_expr("foo").unwrap();
        assert_eq!(max_selector_lookback_ms(&instant), DEFAULT_LOOKBACK_MS);
    }

    #[test]
    fn safety_accepts_dashboard_queries() {
        for q in [
            r#"sum(uuid:ceems_cpu_time:rate{uuid="u1"})"#,
            r#"sum(rate(ceems_compute_unit_perf_flops_total{uuid="u1"}[2m])) / 1e9"#,
            "avg by (user) (foo) - min_over_time(bar[5m])",
        ] {
            let e = parse_expr(q).unwrap();
            assert!(matches!(split_safety(&e), SplitSafety::Safe { .. }), "{q}");
        }
    }

    #[test]
    fn safety_refuses_topk_and_offset() {
        let topk = parse_expr("topk(3, foo)").unwrap();
        assert!(matches!(split_safety(&topk), SplitSafety::Unsafe { .. }));
        let off = parse_expr("sum(rate(foo[2m] offset 1h))").unwrap();
        assert!(matches!(split_safety(&off), SplitSafety::Unsafe { .. }));
        let nested = parse_expr("sum(topk(2, foo)) + bar").unwrap();
        assert!(matches!(split_safety(&nested), SplitSafety::Unsafe { .. }));
    }
}
