//! Alert rules, evaluated in the order they are written.
//!
//! An alert rule is a PromQL expression whose result vector is the set of
//! currently violating series — comparisons (`expr > threshold`) filter a
//! signal down to exactly that set. Each violating series becomes one
//! alert, labeled with the series labels plus `alertname` and the rule's
//! static labels.
//!
//! A rule may read the synthetic [`ALERTS_METRIC`] series that alert rules
//! produce (meta-alerts like "three or more nodes firing power
//! anomalies"). The rules run as one Prometheus rule group: in order, so a
//! meta-rule sees the `ALERTS` that earlier rules wrote in this evaluation,
//! and what later rules wrote in the previous one, within the lookback.

use ceems_metrics::labels::LabelSet;
use ceems_tsdb::promql::{parse_expr, Expr};
use ceems_tsdb::rules::referenced_names;

/// Name of the synthetic series alert rules produce and meta-rules read.
/// Mirrors Prometheus: one `ALERTS{alertname=..., alertstate=...}` sample
/// per active alert per evaluation.
pub const ALERTS_METRIC: &str = "ALERTS";

/// One alert rule.
#[derive(Clone, Debug)]
pub struct AlertRule {
    /// Alert name (`alertname` label on every alert it raises).
    pub name: String,
    /// Source form of the expression (sent verbatim to remote query
    /// sources).
    pub expr_src: String,
    /// Parsed expression (evaluated directly by local sources).
    pub expr: Expr,
    /// How long a series must stay violating before the alert transitions
    /// from pending to firing. `0` fires immediately.
    pub for_ms: i64,
    /// Static labels stamped on every alert from this rule (e.g.
    /// `severity`). Routing and silencing match on these.
    pub labels: Vec<(String, String)>,
    /// Annotations; values are templates over `{{ $labels.x }}` and
    /// `{{ $value }}`, rendered per alert.
    pub annotations: Vec<(String, String)>,
}

impl AlertRule {
    /// Parses `expr` and builds a rule. Fails on invalid PromQL or an
    /// empty name.
    pub fn new(name: impl Into<String>, expr: &str, for_ms: i64) -> Result<AlertRule, String> {
        let name = name.into();
        if name.is_empty() {
            return Err("alert rule needs a name".into());
        }
        if for_ms < 0 {
            return Err(format!("alert rule {name:?}: negative for duration"));
        }
        let parsed = parse_expr(expr).map_err(|e| format!("alert rule {name:?}: {e}"))?;
        Ok(AlertRule {
            name,
            expr_src: expr.to_string(),
            expr: parsed,
            for_ms,
            labels: Vec::new(),
            annotations: Vec::new(),
        })
    }

    /// Adds a static label.
    pub fn with_label(mut self, name: impl Into<String>, value: impl Into<String>) -> AlertRule {
        self.labels.push((name.into(), value.into()));
        self
    }

    /// Adds an annotation template.
    pub fn with_annotation(
        mut self,
        name: impl Into<String>,
        template: impl Into<String>,
    ) -> AlertRule {
        self.annotations.push((name.into(), template.into()));
        self
    }
}

/// A compiled set of alert rules: the rules, run in the order given, and
/// which of them read `ALERTS`.
#[derive(Clone, Debug)]
pub struct RuleSet {
    /// The rules, in evaluation order.
    pub rules: Vec<AlertRule>,
    /// Whether each rule reads the `ALERTS` series (evaluated against the
    /// service's local alert-state store rather than the query source).
    meta: Vec<bool>,
}

impl RuleSet {
    /// Marks the rules that read `ALERTS`.
    pub fn compile(rules: Vec<AlertRule>) -> RuleSet {
        let meta = rules
            .iter()
            .map(|r| {
                let mut names = Vec::new();
                referenced_names(&r.expr, &mut names);
                names.iter().any(|n| n == ALERTS_METRIC)
            })
            .collect();
        RuleSet { rules, meta }
    }

    /// Whether rule `i` reads the `ALERTS` series. Meta-rules may only
    /// reference `ALERTS`; other selectors in the same expression resolve
    /// against the alert-state store and come back empty.
    pub fn is_meta(&self, i: usize) -> bool {
        self.meta[i]
    }
}

/// Renders an annotation template: `{{ $labels.name }}` substitutes the
/// alert's label, `{{ $value }}` the violating sample value. Unknown
/// placeholders render empty; text outside `{{ }}` passes through.
pub fn render_template(template: &str, labels: &LabelSet, value: f64) -> String {
    let mut out = String::with_capacity(template.len());
    let mut rest = template;
    while let Some(start) = rest.find("{{") {
        out.push_str(&rest[..start]);
        let after = &rest[start + 2..];
        let Some(end) = after.find("}}") else {
            // Unterminated placeholder: emit verbatim.
            out.push_str(&rest[start..]);
            return out;
        };
        let inner = after[..end].trim();
        if inner == "$value" {
            // Shortest round-trip form, like the normalizer renders
            // numbers, so traces stay byte-stable across runs.
            out.push_str(&format!("{value:?}"));
        } else if let Some(name) = inner.strip_prefix("$labels.") {
            if let Some(v) = labels.get(name.trim()) {
                out.push_str(v);
            }
        }
        rest = &after[end + 2..];
    }
    out.push_str(rest);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use ceems_metrics::labels;

    #[test]
    fn rule_parses_and_carries_metadata() {
        let r = AlertRule::new("HighPower", "instance:ceems_total:watts > 500", 60_000)
            .unwrap()
            .with_label("severity", "warning")
            .with_annotation("summary", "{{ $labels.instance }} at {{ $value }} W");
        assert_eq!(r.name, "HighPower");
        assert_eq!(r.for_ms, 60_000);
        assert!(AlertRule::new("", "up", 0).is_err());
        assert!(AlertRule::new("x", "up{", 0).is_err());
        assert!(AlertRule::new("x", "up", -1).is_err());
    }

    fn meta_flags_and_names(set: &RuleSet) -> (Vec<bool>, Vec<&str>) {
        let meta = (0..set.rules.len()).map(|i| set.is_meta(i)).collect();
        let names = set.rules.iter().map(|r| r.name.as_str()).collect();
        (meta, names)
    }

    #[test]
    fn meta_rules_level_after_plain_rules() {
        // Written after the plain rules, the meta-rule runs after them.
        let rules = vec![
            AlertRule::new("A", "watts > 1", 0).unwrap(),
            AlertRule::new("B", "joules > 2", 0).unwrap(),
            AlertRule::new(
                "ManyFiring",
                "sum(ALERTS{alertstate=\"firing\"}) >= 3",
                0,
            )
            .unwrap(),
        ];
        let set = RuleSet::compile(rules);
        let (meta, names) = meta_flags_and_names(&set);
        assert_eq!(meta, [false, false, true]);
        assert_eq!(names, ["A", "B", "ManyFiring"], "compile keeps the order");
    }

    #[test]
    fn independent_rules_share_one_level() {
        let rules = vec![
            AlertRule::new("A", "watts > 1", 0).unwrap(),
            AlertRule::new("B", "joules > 2", 0).unwrap(),
        ];
        let set = RuleSet::compile(rules);
        let (meta, names) = meta_flags_and_names(&set);
        assert_eq!(meta, [false, false]);
        assert_eq!(names, ["A", "B"]);
    }

    #[test]
    fn meta_chain_deepens_the_dag() {
        // Meta-rules after meta-rules, a plain rule between: each is
        // flagged on its own and none is moved.
        let rules = vec![
            AlertRule::new("A", "watts > 1", 0).unwrap(),
            AlertRule::new("M1", "sum(ALERTS) > 1", 0).unwrap(),
            AlertRule::new("B", "joules > 2", 0).unwrap(),
            AlertRule::new("M2", "sum(ALERTS) > 2", 0).unwrap(),
        ];
        let set = RuleSet::compile(rules);
        let (meta, names) = meta_flags_and_names(&set);
        assert_eq!(meta, [false, true, false, true]);
        assert_eq!(names, ["A", "M1", "B", "M2"], "compile keeps the order");
    }

    #[test]
    fn templates_render_labels_and_value() {
        let ls = labels! {"instance" => "n3", "uuid" => "slurm-9"};
        assert_eq!(
            render_template("{{ $labels.instance }}: {{$value}} W", &ls, 512.5),
            "n3: 512.5 W"
        );
        assert_eq!(render_template("{{ $labels.missing }}!", &ls, 0.0), "!");
        assert_eq!(render_template("no placeholders", &ls, 0.0), "no placeholders");
        assert_eq!(render_template("{{ broken", &ls, 0.0), "{{ broken");
    }
}
