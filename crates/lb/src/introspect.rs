//! Query introspection: which compute units does a PromQL query touch?
//!
//! The LB parses the query and walks the AST collecting `uuid` matchers.
//! `uuid="slurm-1"` contributes one unit; `uuid=~"slurm-1|slurm-2"`
//! contributes each alternative (the pattern must be a plain alternation of
//! literals — anything fancier is rejected as unverifiable, which fails
//! closed).

use ceems_metrics::matcher::MatchOp;
use ceems_tsdb::promql::parse_expr;

/// The result of introspecting one query.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Introspection {
    /// Every selector carried verifiable uuid matchers; these are the uuids.
    Units(Vec<String>),
    /// At least one selector had no uuid matcher (query reads beyond any
    /// single unit) — only admins may run it.
    Unscoped,
    /// The query could not be parsed or a uuid pattern was unverifiable.
    Unverifiable,
}

/// Introspects a query string.
pub fn introspect(query: &str) -> Introspection {
    let Ok(expr) = parse_expr(query) else {
        return Introspection::Unverifiable;
    };
    let mut uuids = Vec::new();
    let mut unscoped = false;
    let mut unverifiable = false;
    for sel in expr.selectors() {
        let mut found = false;
        for m in sel.matchers.iter() {
            if m.name != "uuid" {
                continue;
            }
            match m.op {
                MatchOp::Eq if !m.value.is_empty() => {
                    uuids.push(m.value.clone());
                    found = true;
                }
                MatchOp::Re => match split_plain_alternation(&m.value) {
                    Some(ids) => {
                        uuids.extend(ids);
                        found = true;
                    }
                    None => unverifiable = true,
                },
                _ => unverifiable = true,
            }
        }
        if !found {
            unscoped = true;
        }
    }
    if unverifiable {
        Introspection::Unverifiable
    } else if unscoped {
        Introspection::Unscoped
    } else {
        uuids.sort();
        uuids.dedup();
        Introspection::Units(uuids)
    }
}

/// Splits `a|b|c` into literals; `None` if any branch contains regex
/// metacharacters.
fn split_plain_alternation(pattern: &str) -> Option<Vec<String>> {
    let mut out = Vec::new();
    for part in pattern.split('|') {
        if part.is_empty()
            || part
                .chars()
                .any(|c| !(c.is_ascii_alphanumeric() || c == '-' || c == '_' || c == ':'))
        {
            return None;
        }
        out.push(part.to_string());
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_uuid_matcher() {
        assert_eq!(
            introspect("ceems_compute_unit_cpu_user_seconds_total{uuid=\"slurm-42\"}"),
            Introspection::Units(vec!["slurm-42".into()])
        );
    }

    #[test]
    fn regex_alternation() {
        assert_eq!(
            introspect("rate(power{uuid=~\"slurm-1|slurm-2\"}[5m])"),
            Introspection::Units(vec!["slurm-1".into(), "slurm-2".into()])
        );
    }

    #[test]
    fn uuid_in_every_selector_of_binary_expr() {
        assert_eq!(
            introspect("a{uuid=\"slurm-1\"} / b{uuid=\"slurm-1\"}"),
            Introspection::Units(vec!["slurm-1".into()])
        );
        // One side missing uuid → unscoped.
        assert_eq!(
            introspect("a{uuid=\"slurm-1\"} / b"),
            Introspection::Unscoped
        );
    }

    #[test]
    fn unscoped_queries_detected() {
        assert_eq!(introspect("node_power_watts"), Introspection::Unscoped);
        assert_eq!(
            introspect("sum(rate(cpu_seconds_total[5m]))"),
            Introspection::Unscoped
        );
        // Pure scalar expressions have no selectors at all: fine.
        assert_eq!(introspect("1 + 2"), Introspection::Units(vec![]));
    }

    #[test]
    fn unverifiable_patterns_fail_closed() {
        assert_eq!(
            introspect("power{uuid=~\"slurm-.*\"}"),
            Introspection::Unverifiable
        );
        assert_eq!(
            introspect("power{uuid!=\"slurm-1\"}"),
            Introspection::Unverifiable
        );
        assert_eq!(introspect("power{uuid=\"\"}"), Introspection::Unverifiable);
        assert_eq!(introspect("%%%garbage"), Introspection::Unverifiable);
    }

    #[test]
    fn nested_expressions_walked() {
        assert_eq!(
            introspect("topk(3, sum by (uuid) (rate(x{uuid=~\"slurm-9\"}[1m])))"),
            Introspection::Units(vec!["slurm-9".into()])
        );
    }

    #[test]
    fn dedup_uuids() {
        assert_eq!(
            introspect("a{uuid=\"u1\"} + a{uuid=\"u1\"} offset 5m"),
            Introspection::Units(vec!["u1".into()])
        );
    }
}
