//! PromQL-subset query engine.
//!
//! Implements the slice of PromQL that CEEMS actually uses for its
//! dashboards and recording rules (the Eq. (1) rules in §III are plain
//! arithmetic over `rate()`s and instant vectors):
//!
//! * instant and range vector selectors with label matchers and `offset`
//! * `rate`, `irate`, `increase`, `delta`, `*_over_time`
//! * `abs`, `ceil`, `floor`, `clamp_min`, `clamp_max`, `scalar`
//! * binary arithmetic (`+ - * /`) with one-to-one label matching and
//!   `on(...)`/`ignoring(...)` modifiers
//! * aggregations `sum/avg/min/max/count/topk/bottomk` with
//!   `by(...)`/`without(...)`
//!
//! Deviation from Prometheus, documented for honesty: `rate`/`increase` do
//! not extrapolate to the window boundaries; they divide the
//! counter-reset-adjusted delta by the observed span. For the steady scrape
//! intervals of this system the difference is a constant factor ≤
//! `interval/range`.

pub mod analyze;
pub mod eval;
pub mod lexer;
pub mod parser;
pub mod plan;
#[doc(hidden)]
pub mod reference;

use std::sync::Arc;

use ceems_metrics::matcher::LabelMatcher;

pub use analyze::{max_selector_lookback_ms, normalize, split_safety, SplitSafety};
pub use eval::{
    instant_query, instant_query_with_lookback, range_query, EvalError, Queryable, Value,
};
pub use eval::{range_points, MAX_RANGE_POINTS};
pub use parser::parse_expr;
pub use plan::{PreparedRead, Refresh};

/// Binary arithmetic operator.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BinOp {
    /// `+`
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// `/`
    Div,
}

impl BinOp {
    /// Applies the operator.
    pub fn apply(self, a: f64, b: f64) -> f64 {
        match self {
            BinOp::Add => a + b,
            BinOp::Sub => a - b,
            BinOp::Mul => a * b,
            BinOp::Div => a / b,
        }
    }
}

/// Comparison operator (`> < >= <= == !=`), used by alert-rule expressions
/// to turn a signal into a set of violating series.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CmpOp {
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `==`
    Eq,
    /// `!=`
    Ne,
}

impl CmpOp {
    /// Applies the comparison.
    pub fn apply(self, a: f64, b: f64) -> bool {
        match self {
            CmpOp::Gt => a > b,
            CmpOp::Ge => a >= b,
            CmpOp::Lt => a < b,
            CmpOp::Le => a <= b,
            CmpOp::Eq => a == b,
            CmpOp::Ne => a != b,
        }
    }

    /// Source form of the operator.
    pub fn as_str(self) -> &'static str {
        match self {
            CmpOp::Gt => ">",
            CmpOp::Ge => ">=",
            CmpOp::Lt => "<",
            CmpOp::Le => "<=",
            CmpOp::Eq => "==",
            CmpOp::Ne => "!=",
        }
    }
}

/// Aggregation operator.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AggOp {
    /// `sum`
    Sum,
    /// `avg`
    Avg,
    /// `min`
    Min,
    /// `max`
    Max,
    /// `count`
    Count,
    /// `topk(k, ...)`
    Topk,
    /// `bottomk(k, ...)`
    Bottomk,
    /// `stddev` (population standard deviation)
    Stddev,
    /// `stdvar` (population variance)
    Stdvar,
}

/// Aggregation / vector-matching label grouping.
#[derive(Clone, Debug, PartialEq, Default)]
pub enum Grouping {
    /// Collapse everything.
    #[default]
    None,
    /// Keep only these labels.
    By(Vec<String>),
    /// Drop these labels (and `__name__`).
    Without(Vec<String>),
}

/// A vector (or range-vector) selector.
#[derive(Clone, Debug)]
pub struct VectorSelector {
    /// Label matchers, including the `__name__` matcher when a metric name
    /// was written. Shared: a query plan's read keeps them.
    pub matchers: Arc<[LabelMatcher]>,
    /// `[5m]` range in ms, when this is a range selector.
    pub range_ms: Option<i64>,
    /// `offset 1h` in ms.
    pub offset_ms: i64,
}

/// Parsed expression.
#[derive(Clone, Debug)]
pub enum Expr {
    /// Literal scalar.
    Number(f64),
    /// Instant/range vector selector.
    Selector(VectorSelector),
    /// Unary negation.
    Neg(Box<Expr>),
    /// Binary arithmetic.
    Binary {
        /// Operator.
        op: BinOp,
        /// Left operand.
        lhs: Box<Expr>,
        /// Right operand.
        rhs: Box<Expr>,
        /// `on(...)`/`ignoring(...)` vector-matching modifier.
        matching: Grouping,
    },
    /// Aggregation.
    Agg {
        /// Operator.
        op: AggOp,
        /// `by`/`without` grouping.
        grouping: Grouping,
        /// `k` parameter for topk/bottomk.
        param: Option<Box<Expr>>,
        /// Aggregated expression.
        expr: Box<Expr>,
    },
    /// Function call.
    Func {
        /// Function name.
        name: String,
        /// Arguments.
        args: Vec<Expr>,
    },
    /// Comparison. Prometheus filter semantics by default: the result
    /// keeps the left-hand elements (labels and values untouched) for
    /// which the comparison holds — which is exactly the "violating
    /// series" set an alert rule needs. With the `bool` modifier the
    /// result maps every element to 0/1 instead of filtering.
    Compare {
        /// Operator.
        op: CmpOp,
        /// `bool` modifier: return 0/1 instead of filtering.
        bool_mode: bool,
        /// Left operand.
        lhs: Box<Expr>,
        /// Right operand.
        rhs: Box<Expr>,
    },
}

impl Expr {
    /// Every selector in the expression, depth-first and left to right
    /// (an aggregation's parameter before its body).
    pub fn selectors(&self) -> Vec<&VectorSelector> {
        let children: Vec<&Expr> = match self {
            Expr::Number(_) => Vec::new(),
            Expr::Selector(sel) => return vec![sel],
            Expr::Neg(inner) => vec![inner],
            Expr::Binary { lhs, rhs, .. } | Expr::Compare { lhs, rhs, .. } => vec![lhs, rhs],
            Expr::Agg { param, expr, .. } => param.iter().chain([expr]).map(|e| &**e).collect(),
            Expr::Func { args, .. } => args.iter().collect(),
        };
        children.into_iter().flat_map(Expr::selectors).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn selectors_walk_depth_first_left_to_right_param_before_body() {
        let e = parse_expr("topk(scalar(k), a) + rate(b[1m]) > clamp_max(-c, d offset 1m) + 2")
            .unwrap();
        let names: Vec<&str> = e
            .selectors()
            .iter()
            .map(|s| s.matchers[0].value.as_str())
            .collect();
        assert_eq!(names, ["k", "a", "b", "c", "d"]);
        assert!(parse_expr("1 + 2").unwrap().selectors().is_empty());
    }
}
