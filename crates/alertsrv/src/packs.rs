//! Built-in rule packs over the stack's own signals.
//!
//! Each pack is one rule over series the stack already produces — the S3
//! attribution records, the emissions exporter's staleness gauge, or the
//! LB's replica health gauges (the latter two must be scraped into the
//! TSDB the alert source queries).

use crate::rules::AlertRule;

/// Per-project energy budget: fires per `uuid` whose attributed power
/// (summed over the nodes it runs on) exceeds `budget_watts`.
pub fn energy_budget(budget_watts: f64, for_ms: i64) -> AlertRule {
    AlertRule::new(
        "ProjectEnergyBudgetExceeded",
        &format!("sum by(uuid) (uuid:ceems_power:watts) > {budget_watts}"),
        for_ms,
    )
    .expect("built-in rule must parse")
    .with_label("severity", "warning")
    .with_label("pack", "energy_budget")
    .with_annotation(
        "summary",
        "project {{ $labels.uuid }} draws {{ $value }} W, over its energy budget",
    )
}

/// Emission-factor source down: fires per zone whose factor age exceeds
/// `max_age_s` seconds — the provider chain has been serving retained
/// (last-known-good) values for that long.
pub fn emission_factor_stale(max_age_s: f64, for_ms: i64) -> AlertRule {
    AlertRule::new(
        "EmissionFactorSourceDown",
        &format!("ceems_emissions_factor_age_seconds > {max_age_s}"),
        for_ms,
    )
    .expect("built-in rule must parse")
    .with_label("severity", "warning")
    .with_label("pack", "emission_factor")
    .with_annotation(
        "summary",
        "emission factors for {{ $labels.country_code }} are {{ $value }} s stale",
    )
}

/// Node power anomaly: fires per node whose total attributed power
/// exceeds `max_watts`.
pub fn node_power_anomaly(max_watts: f64, for_ms: i64) -> AlertRule {
    AlertRule::new(
        "NodePowerAnomaly",
        &format!("instance:ceems_total:watts > {max_watts}"),
        for_ms,
    )
    .expect("built-in rule must parse")
    .with_label("severity", "critical")
    .with_label("pack", "node_power")
    .with_annotation(
        "summary",
        "node {{ $labels.instance }} draws {{ $value }} W",
    )
}

/// Replica WAL lag: fires per LB backend lagging more than `max_records`
/// WAL records behind the freshest replica.
pub fn replica_wal_lag(max_records: f64, for_ms: i64) -> AlertRule {
    AlertRule::new(
        "ReplicaWalLagHigh",
        &format!("ceems_lb_backend_wal_lag_records > {max_records}"),
        for_ms,
    )
    .expect("built-in rule must parse")
    .with_label("severity", "warning")
    .with_label("pack", "replica_lag")
    .with_annotation(
        "summary",
        "replica {{ $labels.backend }} lags {{ $value }} WAL records",
    )
}

/// Meta-monitoring (S22): a stack component stopped answering its own
/// `/metrics` self-scrape — `ceems_meta_up` (written per target by the
/// meta-monitor into the `__ceems_meta__` tenant) dropped to zero.
pub fn component_down(for_ms: i64) -> AlertRule {
    AlertRule::new("ComponentDown", "ceems_meta_up == 0", for_ms)
        .expect("built-in rule must parse")
        .with_label("severity", "critical")
        .with_label("pack", "meta")
        .with_annotation(
            "summary",
            "component {{ $labels.component }} ({{ $labels.instance }}) is not answering its metrics scrape",
        )
}

/// Meta-monitoring (S22): a component's self-scrape data has gone stale —
/// the last successful scrape is more than `max_age_s` seconds old even
/// though meta passes keep running.
pub fn meta_scrape_stale(max_age_s: f64, for_ms: i64) -> AlertRule {
    AlertRule::new(
        "MetaScrapeStale",
        &format!("ceems_meta_scrape_staleness_seconds > {max_age_s}"),
        for_ms,
    )
    .expect("built-in rule must parse")
    .with_label("severity", "warning")
    .with_label("pack", "meta")
    .with_annotation(
        "summary",
        "self-scrape of {{ $labels.component }} ({{ $labels.instance }}) is {{ $value }} s stale",
    )
}

/// Meta-monitoring (S22): circuit breakers at the LB are opening in a
/// storm — more than `max_opens` opens over the last five minutes of
/// self-scraped LB telemetry.
pub fn breaker_open_storm(max_opens: f64, for_ms: i64) -> AlertRule {
    AlertRule::new(
        "BreakerOpenStorm",
        &format!(
            "sum by(backend) (increase(ceems_lb_breaker_events_total{{event=\"open\"}}[5m])) > {max_opens}"
        ),
        for_ms,
    )
    .expect("built-in rule must parse")
    .with_label("severity", "critical")
    .with_label("pack", "meta")
    .with_annotation(
        "summary",
        "backend {{ $labels.backend }} breaker opened {{ $value }} times in 5m",
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rules::RuleSet;

    #[test]
    fn packs_parse_and_level_flat() {
        let set = RuleSet::compile(vec![
            energy_budget(900.0, 60_000),
            emission_factor_stale(600.0, 0),
            node_power_anomaly(1200.0, 30_000),
            replica_wal_lag(100.0, 0),
            component_down(0),
            meta_scrape_stale(90.0, 0),
            breaker_open_storm(3.0, 0),
        ]);
        // None of the packs read ALERTS.
        assert_eq!(set.rules.len(), 7);
        assert!((0..7).all(|i| !set.is_meta(i)));
    }

    #[test]
    fn thresholds_land_in_the_expression() {
        let r = energy_budget(512.0, 0);
        assert!(r.expr_src.contains("> 512"));
        assert_eq!(r.name, "ProjectEnergyBudgetExceeded");
        assert!(r.labels.iter().any(|(k, v)| k == "severity" && v == "warning"));
    }
}
