//! Recursive-descent / Pratt parser for the PromQL subset.
//!
//! Queries come from outside the process, so their nesting is bounded
//! ([`MAX_DEPTH`]): the parser recurses once per level, and so does every
//! walk over the tree it returns (evaluation, planning, splitting, drop).

use ceems_metrics::labels::METRIC_NAME_LABEL;
use ceems_metrics::matcher::{LabelMatcher, MatchOp};

use super::lexer::{lex, LexError, Token};
use super::{AggOp, BinOp, CmpOp, Expr, Grouping, VectorSelector};

/// Parse error.
#[derive(Clone, Debug, PartialEq)]
pub struct ParseError(pub String);

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "promql parse error: {}", self.0)
    }
}

impl std::error::Error for ParseError {}

impl From<LexError> for ParseError {
    fn from(e: LexError) -> Self {
        ParseError(e.to_string())
    }
}

/// How deep a query may nest: parentheses, unary signs, function and
/// aggregation arguments and operands each count a level, and so does
/// every node between the root of the parsed tree and its deepest leaf.
/// Deeper is a parse error. The deepest tree allowed evaluates and drops
/// within a 2 MiB thread stack, what an HTTP worker gets, in a debug build.
pub const MAX_DEPTH: usize = 128;

/// Parses a query string into an expression.
pub fn parse_expr(input: &str) -> Result<Expr, ParseError> {
    let tokens = lex(input)?;
    let mut p = Parser {
        tokens,
        pos: 0,
        depth: 0,
    };
    let (expr, _) = p.parse_binary(0)?;
    if p.pos != p.tokens.len() {
        return Err(ParseError(format!(
            "trailing tokens starting at {:?}",
            p.tokens[p.pos]
        )));
    }
    Ok(expr)
}

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
    /// Levels of recursion the parser is in.
    depth: usize,
}

/// A parsed expression and its height: nodes on the longest path from it
/// down to a leaf.
type Node = (Expr, usize);

fn too_deep() -> ParseError {
    ParseError(format!("expression nests deeper than {MAX_DEPTH} levels"))
}

/// The height of a node over children at most `below` high.
fn above(below: usize) -> Result<usize, ParseError> {
    match below + 1 {
        height if height > MAX_DEPTH => Err(too_deep()),
        height => Ok(height),
    }
}

fn agg_op(name: &str) -> Option<AggOp> {
    Some(match name {
        "sum" => AggOp::Sum,
        "avg" => AggOp::Avg,
        "min" => AggOp::Min,
        "max" => AggOp::Max,
        "count" => AggOp::Count,
        "stddev" => AggOp::Stddev,
        "stdvar" => AggOp::Stdvar,
        "topk" => AggOp::Topk,
        "bottomk" => AggOp::Bottomk,
        _ => return None,
    })
}

const FUNCTIONS: &[&str] = &[
    "rate",
    "irate",
    "increase",
    "delta",
    "avg_over_time",
    "sum_over_time",
    "min_over_time",
    "max_over_time",
    "count_over_time",
    "last_over_time",
    "abs",
    "ceil",
    "floor",
    "clamp_min",
    "clamp_max",
    "scalar",
    "histogram_quantile",
    "quantile_over_time",
];

impl Parser {
    fn peek(&self) -> Option<&Token> {
        self.tokens.get(self.pos)
    }

    fn bump(&mut self) -> Option<Token> {
        let t = self.tokens.get(self.pos).cloned();
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    /// Goes one level down; an error past [`MAX_DEPTH`].
    fn descend(&mut self) -> Result<(), ParseError> {
        self.depth += 1;
        match self.depth > MAX_DEPTH {
            true => Err(too_deep()),
            false => Ok(()),
        }
    }

    fn expect(&mut self, t: &Token) -> Result<(), ParseError> {
        match self.bump() {
            Some(got) if &got == t => Ok(()),
            got => Err(ParseError(format!("expected {t:?}, got {got:?}"))),
        }
    }

    fn parse_binary(&mut self, min_prec: u8) -> Result<Node, ParseError> {
        self.descend()?;
        // Comparisons bind loosest (precedence 1), so `a + b > c * d`
        // parses as `(a + b) > (c * d)` like Prometheus.
        let (mut lhs, mut height) = self.parse_unary()?;
        loop {
            enum Op {
                Arith(BinOp),
                Cmp(CmpOp),
            }
            let (op, prec) = match self.peek() {
                Some(Token::Gt) => (Op::Cmp(CmpOp::Gt), 1),
                Some(Token::Ge) => (Op::Cmp(CmpOp::Ge), 1),
                Some(Token::Lt) => (Op::Cmp(CmpOp::Lt), 1),
                Some(Token::Le) => (Op::Cmp(CmpOp::Le), 1),
                Some(Token::EqEq) => (Op::Cmp(CmpOp::Eq), 1),
                Some(Token::Ne) => (Op::Cmp(CmpOp::Ne), 1),
                Some(Token::Plus) => (Op::Arith(BinOp::Add), 2),
                Some(Token::Minus) => (Op::Arith(BinOp::Sub), 2),
                Some(Token::Star) => (Op::Arith(BinOp::Mul), 3),
                Some(Token::Slash) => (Op::Arith(BinOp::Div), 3),
                _ => break,
            };
            if prec < min_prec {
                break;
            }
            self.bump();
            match op {
                Op::Arith(op) => {
                    // Optional on(...)/ignoring(...) vector matching.
                    let matching = self.parse_matching_modifier()?;
                    let (rhs, rhs_height) = self.parse_binary(prec + 1)?;
                    height = above(height.max(rhs_height))?;
                    lhs = Expr::Binary {
                        op,
                        lhs: Box::new(lhs),
                        rhs: Box::new(rhs),
                        matching,
                    };
                }
                Op::Cmp(op) => {
                    let mut bool_mode = false;
                    if let Some(Token::Ident(k)) = self.peek() {
                        if k == "bool" {
                            self.bump();
                            bool_mode = true;
                        }
                    }
                    let (rhs, rhs_height) = self.parse_binary(prec + 1)?;
                    height = above(height.max(rhs_height))?;
                    lhs = Expr::Compare {
                        op,
                        bool_mode,
                        lhs: Box::new(lhs),
                        rhs: Box::new(rhs),
                    };
                }
            }
        }
        self.depth -= 1;
        Ok((lhs, height))
    }

    fn parse_matching_modifier(&mut self) -> Result<Grouping, ParseError> {
        if let Some(Token::Ident(name)) = self.peek() {
            match name.as_str() {
                "on" => {
                    self.bump();
                    return Ok(Grouping::By(self.parse_label_list()?));
                }
                "ignoring" => {
                    self.bump();
                    return Ok(Grouping::Without(self.parse_label_list()?));
                }
                _ => {}
            }
        }
        Ok(Grouping::None)
    }

    fn parse_unary(&mut self) -> Result<Node, ParseError> {
        let sign = match self.peek() {
            Some(Token::Minus) => Token::Minus,
            Some(Token::Plus) => Token::Plus,
            _ => return self.parse_primary(),
        };
        self.bump();
        self.descend()?;
        let (operand, height) = self.parse_unary()?;
        self.depth -= 1;
        match sign {
            Token::Minus => Ok((Expr::Neg(Box::new(operand)), above(height)?)),
            _ => Ok((operand, height)),
        }
    }

    fn parse_primary(&mut self) -> Result<Node, ParseError> {
        match self.bump() {
            Some(Token::Number(v)) => Ok((Expr::Number(v), 1)),
            Some(Token::LParen) => {
                let inner = self.parse_binary(0)?;
                self.expect(&Token::RParen)?;
                Ok(inner)
            }
            Some(Token::LBrace) => {
                // Bare matcher selector: {job="x"}.
                let matchers = self.parse_matchers_body()?;
                self.finish_selector(matchers)
            }
            Some(Token::Ident(name)) => {
                // Aggregation?
                if let Some(op) = agg_op(&name) {
                    if matches!(self.peek(), Some(Token::LParen) | Some(Token::Ident(_))) {
                        return self.parse_agg(op);
                    }
                }
                // Function call?
                if self.peek() == Some(&Token::LParen) && FUNCTIONS.contains(&name.as_str()) {
                    self.bump();
                    let mut args = Vec::new();
                    let mut height = 0;
                    if self.peek() != Some(&Token::RParen) {
                        loop {
                            let (arg, arg_height) = self.parse_binary(0)?;
                            args.push(arg);
                            height = height.max(arg_height);
                            if self.peek() == Some(&Token::Comma) {
                                self.bump();
                            } else {
                                break;
                            }
                        }
                    }
                    self.expect(&Token::RParen)?;
                    return Ok((Expr::Func { name, args }, above(height)?));
                }
                // Metric selector.
                let mut matchers =
                    vec![LabelMatcher::eq(METRIC_NAME_LABEL, name)];
                if self.peek() == Some(&Token::LBrace) {
                    self.bump();
                    matchers.extend(self.parse_matchers_body()?);
                }
                self.finish_selector(matchers)
            }
            other => Err(ParseError(format!("unexpected token {other:?}"))),
        }
    }

    /// Parses `[range]` and `offset` suffixes after a selector.
    fn finish_selector(&mut self, matchers: Vec<LabelMatcher>) -> Result<Node, ParseError> {
        let mut range_ms = None;
        if self.peek() == Some(&Token::LBracket) {
            self.bump();
            match self.bump() {
                Some(Token::Duration(ms)) => range_ms = Some(ms),
                other => return Err(ParseError(format!("expected duration, got {other:?}"))),
            }
            self.expect(&Token::RBracket)?;
        }
        let mut offset_ms = 0;
        if let Some(Token::Ident(k)) = self.peek() {
            if k == "offset" {
                self.bump();
                match self.bump() {
                    Some(Token::Duration(ms)) => offset_ms = ms,
                    other => {
                        return Err(ParseError(format!(
                            "expected duration after offset, got {other:?}"
                        )))
                    }
                }
            }
        }
        let selector = VectorSelector {
            matchers: matchers.into(),
            range_ms,
            offset_ms,
        };
        Ok((Expr::Selector(selector), 1))
    }

    fn parse_matchers_body(&mut self) -> Result<Vec<LabelMatcher>, ParseError> {
        let mut matchers = Vec::new();
        loop {
            if self.peek() == Some(&Token::RBrace) {
                self.bump();
                break;
            }
            let name = match self.bump() {
                Some(Token::Ident(n)) => n,
                other => return Err(ParseError(format!("expected label name, got {other:?}"))),
            };
            let op = match self.bump() {
                Some(Token::Eq) => MatchOp::Eq,
                Some(Token::Ne) => MatchOp::Ne,
                Some(Token::Re) => MatchOp::Re,
                Some(Token::Nre) => MatchOp::Nre,
                other => return Err(ParseError(format!("expected matcher op, got {other:?}"))),
            };
            let value = match self.bump() {
                Some(Token::Str(s)) => s,
                other => return Err(ParseError(format!("expected string, got {other:?}"))),
            };
            matchers.push(
                LabelMatcher::new(name, op, value)
                    .map_err(|e| ParseError(format!("bad matcher pattern: {e}")))?,
            );
            match self.peek() {
                Some(Token::Comma) => {
                    self.bump();
                }
                Some(Token::RBrace) => {}
                other => return Err(ParseError(format!("expected ',' or '}}', got {other:?}"))),
            }
        }
        Ok(matchers)
    }

    fn parse_agg(&mut self, op: AggOp) -> Result<Node, ParseError> {
        // Grouping may appear before or after the parens:
        //   sum by (a) (expr)   or   sum(expr) by (a)
        let mut grouping = self.parse_grouping_clause()?;
        self.expect(&Token::LParen)?;
        let mut args = Vec::new();
        let mut height = 0;
        loop {
            let (arg, arg_height) = self.parse_binary(0)?;
            args.push(arg);
            height = height.max(arg_height);
            if self.peek() == Some(&Token::Comma) {
                self.bump();
            } else {
                break;
            }
        }
        self.expect(&Token::RParen)?;
        if matches!(grouping, Grouping::None) {
            grouping = self.parse_grouping_clause()?;
        }
        let (param, expr) = match (op, args.len()) {
            (AggOp::Topk | AggOp::Bottomk, 2) => {
                let mut it = args.into_iter();
                (Some(Box::new(it.next().unwrap())), Box::new(it.next().unwrap()))
            }
            (AggOp::Topk | AggOp::Bottomk, n) => {
                return Err(ParseError(format!("topk/bottomk need 2 args, got {n}")))
            }
            (_, 1) => (None, Box::new(args.into_iter().next().unwrap())),
            (_, n) => return Err(ParseError(format!("aggregation needs 1 arg, got {n}"))),
        };
        let agg = Expr::Agg {
            op,
            grouping,
            param,
            expr,
        };
        Ok((agg, above(height)?))
    }

    fn parse_grouping_clause(&mut self) -> Result<Grouping, ParseError> {
        if let Some(Token::Ident(k)) = self.peek() {
            match k.as_str() {
                "by" => {
                    self.bump();
                    return Ok(Grouping::By(self.parse_label_list()?));
                }
                "without" => {
                    self.bump();
                    return Ok(Grouping::Without(self.parse_label_list()?));
                }
                _ => {}
            }
        }
        Ok(Grouping::None)
    }

    fn parse_label_list(&mut self) -> Result<Vec<String>, ParseError> {
        self.expect(&Token::LParen)?;
        let mut labels = Vec::new();
        loop {
            match self.bump() {
                Some(Token::Ident(n)) => labels.push(n),
                Some(Token::RParen) if labels.is_empty() => return Ok(labels),
                other => return Err(ParseError(format!("expected label, got {other:?}"))),
            }
            match self.bump() {
                Some(Token::Comma) => {}
                Some(Token::RParen) => break,
                other => return Err(ParseError(format!("expected ',' or ')', got {other:?}"))),
            }
        }
        Ok(labels)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plain_selector() {
        let e = parse_expr("node_power_watts{instance=\"n1\",job!=\"x\"}").unwrap();
        let Expr::Selector(sel) = e else { panic!("not a selector") };
        assert_eq!(sel.matchers.len(), 3);
        assert_eq!(sel.matchers[0].value, "node_power_watts");
        assert!(sel.range_ms.is_none());
    }

    #[test]
    fn range_selector_with_offset() {
        let e = parse_expr("rapl_joules_total[5m] offset 1h").unwrap();
        let Expr::Selector(sel) = e else { panic!() };
        assert_eq!(sel.range_ms, Some(300_000));
        assert_eq!(sel.offset_ms, 3_600_000);
    }

    #[test]
    fn function_and_nesting() {
        let e = parse_expr("rate(cpu_seconds_total{mode!=\"idle\"}[5m])").unwrap();
        let Expr::Func { name, args } = e else { panic!() };
        assert_eq!(name, "rate");
        assert_eq!(args.len(), 1);
    }

    #[test]
    fn precedence() {
        // 1 + 2 * 3 parses as 1 + (2*3).
        let e = parse_expr("1 + 2 * 3").unwrap();
        let Expr::Binary { op: BinOp::Add, rhs, .. } = e else { panic!() };
        assert!(matches!(*rhs, Expr::Binary { op: BinOp::Mul, .. }));
    }

    #[test]
    fn aggregation_forms() {
        for q in [
            "sum by (user) (job_power_watts)",
            "sum(job_power_watts) by (user)",
            "sum without (instance) (job_power_watts)",
        ] {
            let e = parse_expr(q).unwrap();
            let Expr::Agg { op: AggOp::Sum, grouping, .. } = e else {
                panic!("{q} did not parse as agg")
            };
            assert!(!matches!(grouping, Grouping::None), "{q}");
        }
        let e = parse_expr("topk(3, job_energy_joules)").unwrap();
        let Expr::Agg { op: AggOp::Topk, param, .. } = e else { panic!() };
        assert!(param.is_some());
    }

    #[test]
    fn eq1_shaped_expression_parses() {
        // The §III power-attribution rule shape.
        let q = "0.9 * ipmi_watts * (rate(rapl_cpu_joules_total[2m]) / (rate(rapl_cpu_joules_total[2m]) + rate(rapl_dram_joules_total[2m]))) * (rate(job_cpu_seconds_total[2m]) / rate(node_cpu_seconds_total[2m])) + 0.1 * ipmi_watts / node_jobs_running";
        assert!(parse_expr(q).is_ok());
    }

    #[test]
    fn comparisons_bind_loosest() {
        // a + b > c * 2 parses as (a+b) > (c*2).
        let e = parse_expr("a + b > c * 2").unwrap();
        let Expr::Compare { op: CmpOp::Gt, bool_mode: false, lhs, rhs } = e else {
            panic!("not a comparison")
        };
        assert!(matches!(*lhs, Expr::Binary { op: BinOp::Add, .. }));
        assert!(matches!(*rhs, Expr::Binary { op: BinOp::Mul, .. }));

        let e = parse_expr("sum(up) == bool 3").unwrap();
        assert!(matches!(e, Expr::Compare { op: CmpOp::Eq, bool_mode: true, .. }));

        // `!=` outside braces is a comparison, inside braces a matcher.
        let e = parse_expr("up{job!=\"a\"} != 1").unwrap();
        assert!(matches!(e, Expr::Compare { op: CmpOp::Ne, .. }));
    }

    #[test]
    fn unary_minus() {
        let e = parse_expr("-3 + 4").unwrap();
        let Expr::Binary { lhs, .. } = e else { panic!() };
        assert!(matches!(*lhs, Expr::Neg(_)));
        assert!(parse_expr("+5").is_ok());
    }

    #[test]
    fn on_ignoring_modifiers() {
        let e = parse_expr("a / on (instance) b").unwrap();
        let Expr::Binary { matching, .. } = e else { panic!() };
        assert_eq!(matching, Grouping::By(vec!["instance".into()]));
        let e = parse_expr("a * ignoring (mode) b").unwrap();
        let Expr::Binary { matching, .. } = e else { panic!() };
        assert_eq!(matching, Grouping::Without(vec!["mode".into()]));
    }

    #[test]
    fn errors() {
        assert!(parse_expr("").is_err());
        assert!(parse_expr("rate(").is_err());
        assert!(parse_expr("up{").is_err());
        assert!(parse_expr("up{a=}").is_err());
        assert!(parse_expr("up[5]").is_err());
        assert!(parse_expr("sum(a, b)").is_err());
        assert!(parse_expr("topk(a)").is_err());
        assert!(parse_expr("1 2").is_err());
        assert!(parse_expr("up{a=~\"(\"}").is_err());
    }

    #[test]
    fn bare_brace_selector() {
        let e = parse_expr("{uuid=\"slurm-123\"}").unwrap();
        let Expr::Selector(sel) = e else { panic!() };
        assert_eq!(sel.matchers.len(), 1);
    }

    #[test]
    fn empty_matchers_ok() {
        let e = parse_expr("up{}").unwrap();
        let Expr::Selector(sel) = e else { panic!() };
        assert_eq!(sel.matchers.len(), 1);
    }

    /// Runs `f` on a thread with the 2 MiB stack an HTTP worker has.
    fn on_a_worker_stack<T: Send>(f: impl FnOnce() -> T + Send) -> T {
        std::thread::scope(|s| {
            let worker = std::thread::Builder::new().stack_size(2 << 20);
            worker.spawn_scoped(s, f).unwrap().join().unwrap()
        })
    }

    /// Each recursive form, `n` levels of it around `up`.
    fn nests(n: usize) -> [(&'static str, String); 7] {
        [
            ("parens", format!("{}up{}", "(".repeat(n), ")".repeat(n))),
            ("unary minus", format!("{}up", "-".repeat(n))),
            ("unary plus", format!("{}up", "+".repeat(n))),
            (
                "function calls",
                format!("{}up{}", "abs(".repeat(n), ")".repeat(n)),
            ),
            (
                "aggregations",
                format!("{}up{}", "sum(".repeat(n), ")".repeat(n)),
            ),
            ("a chain of operators", format!("up{}", " - up".repeat(n))),
            (
                "nested operands",
                format!("{}up{}", "up / (".repeat(n), ")".repeat(n)),
            ),
        ]
    }

    #[test]
    fn nesting_past_the_bound_is_an_error_not_an_abort() {
        on_a_worker_stack(|| {
            // 4 000 levels aborted the process before the bound.
            for n in [MAX_DEPTH + 1, 4_000, 100_000] {
                for (form, query) in nests(n) {
                    let err = parse_expr(&query).unwrap_err();
                    assert!(
                        err.0.contains("nests deeper than 128"),
                        "{form} x{n}: {err}"
                    );
                }
            }
        });
    }

    #[test]
    fn the_deepest_tree_accepted_evaluates_and_drops_on_a_worker_stack() {
        use crate::promql::{instant_query, normalize, range_query, split_safety};
        use crate::Tsdb;
        use ceems_metrics::labels;

        let db = Tsdb::default();
        for t in 0..20 {
            db.append(
                &labels! {"__name__" => "up", "job" => "ceems"},
                t * 15_000,
                1.0,
            );
        }
        on_a_worker_stack(|| {
            for (form, _) in nests(0) {
                let query = |n: usize| nests(n).into_iter().find(|f| f.0 == form).unwrap().1;
                // A nested operand is two levels: the operand and its parens.
                let n = (0..=MAX_DEPTH)
                    .rev()
                    .find(|n| parse_expr(&query(*n)).is_ok())
                    .unwrap();
                assert!(n >= MAX_DEPTH / 2 - 1, "{form}: only {n} levels parse");
                let deepest = parse_expr(&query(n)).unwrap();
                assert!(!normalize(&deepest).is_empty());
                let _ = split_safety(&deepest);
                assert!(!deepest.selectors().is_empty());
                instant_query(&db, &deepest, 285_000).unwrap();
                range_query(&db, &deepest, 0, 285_000, 15_000).unwrap();
                drop(deepest);
            }
        });
    }
}
