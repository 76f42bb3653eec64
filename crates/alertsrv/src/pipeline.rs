//! Notification routing and grouping.
//!
//! Alerts flow: dedup (label fingerprint) → silence filter → routing tree
//! (first matching route wins) → grouping (`group_by` labels) →
//! timed delivery (`group_wait` / `group_interval` / `repeat_interval`,
//! applied by the service). This module owns the routing/grouping half;
//! the timers live with the service's durable group state.

use ceems_metrics::labels::LabelSet;
use ceems_metrics::matcher::LabelMatcher;

/// One route: matchers that claim alerts, the sink they go to, and an
/// optional `group_by` override.
#[derive(Clone, Debug)]
pub struct Route {
    /// Route name (prefixes group keys, so per-route groups never merge).
    pub name: String,
    /// An alert takes this route when every matcher matches.
    pub matchers: Vec<LabelMatcher>,
    /// Sink name deliveries go to.
    pub sink: String,
    /// Override of the tree-level `group_by` labels.
    pub group_by: Option<Vec<String>>,
}

/// The routing tree: ordered routes with a default fallback.
#[derive(Clone, Debug)]
pub struct RoutingTree {
    /// Routes, tried in order; first match wins.
    pub routes: Vec<Route>,
    /// Sink for alerts no route claims.
    pub default_sink: String,
    /// Labels notifications group by (default: `alertname`).
    pub group_by: Vec<String>,
}

impl RoutingTree {
    /// A tree with no routes: everything goes to `default_sink`, grouped
    /// by `alertname`.
    pub fn new(default_sink: impl Into<String>) -> RoutingTree {
        RoutingTree {
            routes: Vec::new(),
            default_sink: default_sink.into(),
            group_by: vec!["alertname".to_string()],
        }
    }

    /// Appends a route.
    pub fn with_route(mut self, route: Route) -> RoutingTree {
        self.routes.push(route);
        self
    }

    /// Resolves an alert's route: `(route_name, sink, group_by)`.
    pub fn route_for(&self, labels: &LabelSet) -> (&str, &str, &[String]) {
        for r in &self.routes {
            if r.matchers.iter().all(|m| m.matches(labels)) {
                return (
                    r.name.as_str(),
                    r.sink.as_str(),
                    r.group_by.as_deref().unwrap_or(&self.group_by),
                );
            }
        }
        ("default", self.default_sink.as_str(), &self.group_by)
    }

    /// The group key for an alert on a route: route name plus the sorted
    /// `group_by` label values. Stable across runs and restarts.
    pub fn group_key(route: &str, labels: &LabelSet, group_by: &[String]) -> String {
        let restricted = labels.restrict_to(group_by);
        let mut pairs: Vec<(&str, &str)> = restricted.iter().collect();
        pairs.sort();
        let body: Vec<String> = pairs
            .iter()
            .map(|(k, v)| format!("{k}={v:?}"))
            .collect();
        format!("{route}:{{{}}}", body.join(","))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ceems_metrics::labels;

    #[test]
    fn first_matching_route_wins() {
        let tree = RoutingTree::new("log")
            .with_route(Route {
                name: "pages".into(),
                matchers: vec![LabelMatcher::eq("severity", "critical")],
                sink: "webhook".into(),
                group_by: Some(vec!["alertname".into(), "nodegroup".into()]),
            })
            .with_route(Route {
                name: "tickets".into(),
                matchers: vec![LabelMatcher::eq("severity", "warning")],
                sink: "log".into(),
                group_by: None,
            });

        let crit = labels! {"alertname" => "A", "severity" => "critical", "nodegroup" => "gpu"};
        let (route, sink, group_by) = tree.route_for(&crit);
        assert_eq!((route, sink), ("pages", "webhook"));
        assert_eq!(group_by, &["alertname".to_string(), "nodegroup".to_string()]);

        let warn = labels! {"alertname" => "A", "severity" => "warning"};
        assert_eq!(tree.route_for(&warn).0, "tickets");

        let other = labels! {"alertname" => "A"};
        let (route, sink, _) = tree.route_for(&other);
        assert_eq!((route, sink), ("default", "log"));
    }

    #[test]
    fn group_keys_are_stable_and_scoped() {
        let a = labels! {"alertname" => "X", "instance" => "n1", "uuid" => "u1"};
        let b = labels! {"alertname" => "X", "instance" => "n2", "uuid" => "u2"};
        let by = vec!["alertname".to_string()];
        // Same alertname → same group regardless of other labels.
        assert_eq!(
            RoutingTree::group_key("default", &a, &by),
            RoutingTree::group_key("default", &b, &by)
        );
        // Different routes never share groups.
        assert_ne!(
            RoutingTree::group_key("default", &a, &by),
            RoutingTree::group_key("pages", &a, &by)
        );
        // Finer group_by splits.
        let fine = vec!["alertname".to_string(), "instance".to_string()];
        assert_ne!(
            RoutingTree::group_key("default", &a, &fine),
            RoutingTree::group_key("default", &b, &fine)
        );
    }
}
