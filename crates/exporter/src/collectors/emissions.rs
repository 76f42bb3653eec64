//! Emission-factor collector: exposes the current gCO₂e/kWh of each
//! configured provider so recording rules can multiply energy by it
//! (§II.A.c).

use std::sync::Arc;

use ceems_emissions::EmissionProvider;
use ceems_metrics::model::MetricType;
use ceems_metrics::registry::Collector;
use ceems_metrics::sink::Sink;
use ceems_simnode::clock::SimClock;

/// The emissions collector.
pub struct EmissionsCollector {
    providers: Vec<Arc<dyn EmissionProvider>>,
    zone: String,
    clock: SimClock,
}

impl EmissionsCollector {
    /// Creates a collector for a pinned zone over a set of providers.
    pub fn new(
        providers: Vec<Arc<dyn EmissionProvider>>,
        zone: impl Into<String>,
        clock: SimClock,
    ) -> EmissionsCollector {
        EmissionsCollector {
            providers,
            zone: zone.into(),
            clock,
        }
    }
}

impl Collector for EmissionsCollector {
    fn collect(&self, out: &mut dyn Sink) {
        let now = self.clock.now_ms();
        let mut factors = Vec::new();
        let mut ages = Vec::new();
        for p in &self.providers {
            if let Some(f) = p.factor(&self.zone, now) {
                factors.push((p.name(), f));
            }
            for (zone, age_ms) in p.factor_ages_ms(now) {
                ages.push((p.name(), zone, age_ms as f64 / 1000.0));
            }
        }

        out.family(
            "ceems_emissions_gCo2_kWh",
            "Current emission factor by provider",
            MetricType::Gauge,
        );
        for (provider, f) in factors {
            out.sample("", &[("provider", provider), ("country_code", &self.zone)], f);
        }
        // Staleness of each retention wrapper's zones: how long since the
        // underlying source chain last answered. Scraped into the TSDB so
        // the "emission-factor source down" alert rule has a real signal.
        if ages.is_empty() {
            return;
        }
        out.family(
            "ceems_emissions_factor_age_seconds",
            "Seconds since the emission-factor source chain last resolved each zone",
            MetricType::Gauge,
        );
        for (provider, zone, age_s) in &ages {
            out.sample("", &[("provider", provider), ("country_code", zone)], *age_s);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ceems_emissions::owid::OwidStatic;
    use ceems_emissions::rte::RteSimulated;

    #[test]
    fn exposes_each_covering_provider() {
        let clock = SimClock::new();
        let c = EmissionsCollector::new(
            vec![Arc::new(RteSimulated::default()), Arc::new(OwidStatic)],
            "FR",
            clock,
        );
        let fams = c.families();
        assert_eq!(fams[0].metrics.len(), 2);
        let providers: Vec<_> = fams[0]
            .metrics
            .iter()
            .map(|m| m.labels.get("provider").unwrap().to_string())
            .collect();
        assert!(providers.contains(&"rte".to_string()));
        assert!(providers.contains(&"owid".to_string()));
    }

    #[test]
    fn uncovered_zone_yields_partial() {
        let clock = SimClock::new();
        let c = EmissionsCollector::new(
            vec![Arc::new(RteSimulated::default()), Arc::new(OwidStatic)],
            "DE", // RTE is France-only
            clock,
        );
        let fams = c.families();
        assert_eq!(fams[0].metrics.len(), 1);
        assert_eq!(fams[0].metrics[0].labels.get("provider"), Some("owid"));
    }
}
