//! The updater: the API server's single writer.
//!
//! On each poll it (1) fetches units that changed since the last poll from
//! the resource manager, (2) queries the TSDB for each unit's aggregate
//! metrics, (3) upserts rows, (4) recomputes per-user/project usage
//! rollups, and (5) applies the §II.C cardinality cleanup: units that
//! lived shorter than the cutoff get their TSDB series deleted.

use std::collections::BTreeSet;
use std::sync::Arc;

use ceems_relstore::{Db, DbError, Filter, Value};
use ceems_tsdb::{Tsdb, TsdbClient};

use crate::metrics_source::MetricSource;
use crate::rm::{ResourceManagerClient, UnitInfo};
use crate::schema::{create_tables, unit_cols, usage_cols, UNITS_TABLE, USAGE_TABLE};

/// Admin access to the TSDB (series deletion).
pub trait TsdbAdmin: Send + Sync {
    /// Deletes all series carrying `uuid="<uuid>"`. Returns series deleted.
    fn delete_unit_series(&self, uuid: &str) -> usize;
}

impl TsdbAdmin for Arc<Tsdb> {
    fn delete_unit_series(&self, uuid: &str) -> usize {
        let m = ceems_metrics::matcher::LabelMatcher::eq("uuid", uuid);
        self.delete_series(&[m])
    }
}

impl TsdbAdmin for TsdbClient {
    fn delete_unit_series(&self, uuid: &str) -> usize {
        self.delete_series(&format!("{{uuid=\"{uuid}\"}}"))
    }
}

/// Updater configuration.
#[derive(Clone, Debug)]
pub struct UpdaterConfig {
    /// Metric holding per-unit power in watts (the recording-rule output of
    /// Eq. (1)); must carry a `uuid` label.
    pub power_metric: String,
    /// Query returning the current emission factor (gCO₂e/kWh) as a single
    /// series/scalar.
    pub emission_factor_query: String,
    /// Units shorter than this (seconds) are purged from the TSDB when they
    /// reach a terminal state.
    pub cleanup_cutoff_s: f64,
}

impl Default for UpdaterConfig {
    fn default() -> Self {
        UpdaterConfig {
            power_metric: "uuid:ceems_power:watts".to_string(),
            emission_factor_query:
                "avg(ceems_emissions_gCo2_kWh{provider=\"rte\"})".to_string(),
            cleanup_cutoff_s: 0.0,
        }
    }
}

/// Poll statistics.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct UpdaterStats {
    /// Units upserted across all polls.
    pub units_upserted: u64,
    /// TSDB series deleted by the cardinality cleanup.
    pub series_deleted: u64,
    /// Units purged (their short life fell under the cutoff).
    pub units_purged: u64,
}

/// The updater.
pub struct Updater {
    db: Db,
    rm: Arc<dyn ResourceManagerClient>,
    metrics: Arc<dyn MetricSource>,
    tsdb_admin: Option<Arc<dyn TsdbAdmin>>,
    config: UpdaterConfig,
    last_poll_ms: i64,
    purged: BTreeSet<String>,
    stats: UpdaterStats,
}

impl Updater {
    /// Creates an updater owning the relational DB.
    pub fn new(
        mut db: Db,
        rm: Arc<dyn ResourceManagerClient>,
        metrics: Arc<dyn MetricSource>,
        tsdb_admin: Option<Arc<dyn TsdbAdmin>>,
        config: UpdaterConfig,
    ) -> Result<Updater, DbError> {
        create_tables(&mut db)?;
        Ok(Updater {
            db,
            rm,
            metrics,
            tsdb_admin,
            config,
            last_poll_ms: 0,
            purged: BTreeSet::new(),
            stats: UpdaterStats::default(),
        })
    }

    /// Read access to the DB (the API layer and the LB's direct-DB checks).
    pub fn db(&self) -> &Db {
        &self.db
    }

    /// Mutable DB access (snapshotting, backups).
    pub fn db_mut(&mut self) -> &mut Db {
        &mut self.db
    }

    /// Statistics so far.
    pub fn stats(&self) -> UpdaterStats {
        self.stats
    }

    /// One poll at simulated time `now_ms`.
    pub fn poll(&mut self, now_ms: i64) -> Result<(), DbError> {
        // Small overlap so boundary updates are never missed; upserts are
        // idempotent.
        let since = (self.last_poll_ms - 1000).max(0);
        let units = self.rm.units_since(since);
        for unit in units {
            let row = self.unit_row(&unit, now_ms);
            self.db.upsert(UNITS_TABLE, row)?;
            self.stats.units_upserted += 1;
            self.maybe_cleanup(&unit);
        }
        self.recompute_usage(now_ms)?;
        self.last_poll_ms = now_ms;
        Ok(())
    }

    fn unit_row(&self, u: &UnitInfo, now_ms: i64) -> Vec<Value> {
        let end_ms = u.ended_at_ms.unwrap_or(now_ms);
        let elapsed_s = u
            .started_at_ms
            .map(|s| ((end_ms - s).max(0)) as f64 / 1000.0)
            .unwrap_or(0.0);

        let mut row = vec![Value::Null; unit_cols::COUNT];
        row[unit_cols::UUID] = u.uuid.as_str().into();
        row[unit_cols::RESOURCE_MANAGER] = u.resource_manager.as_str().into();
        row[unit_cols::USER] = u.user.as_str().into();
        row[unit_cols::PROJECT] = u.project.as_str().into();
        row[unit_cols::PARTITION] = u.partition.as_str().into();
        row[unit_cols::STATE] = u.state.as_str().into();
        row[unit_cols::SUBMITTED_AT] = Value::Int(u.submitted_at_ms);
        row[unit_cols::STARTED_AT] = u.started_at_ms.map(Value::Int).unwrap_or(Value::Null);
        row[unit_cols::ENDED_AT] = u.ended_at_ms.map(Value::Int).unwrap_or(Value::Null);
        row[unit_cols::ELAPSED_S] = Value::Real(elapsed_s);
        row[unit_cols::NNODES] = Value::Int(u.nnodes as i64);
        row[unit_cols::NCPUS] = Value::Int(u.ncpus as i64);
        row[unit_cols::NGPUS] = Value::Int(u.ngpus as i64);
        row[unit_cols::UPDATED_AT] = Value::Int(now_ms);

        // Aggregate metrics need a started unit and a usable window.
        if u.started_at_ms.is_none() || elapsed_s < 30.0 {
            return row;
        }
        let window_s = (elapsed_s as i64).max(60);
        let uuid = &u.uuid;

        // CPU usage %: counter increase over the window vs core-seconds.
        let cpu_q = format!(
            "sum(increase(ceems_compute_unit_cpu_user_seconds_total{{uuid=\"{uuid}\"}}[{window_s}s])) + sum(increase(ceems_compute_unit_cpu_system_seconds_total{{uuid=\"{uuid}\"}}[{window_s}s]))"
        );
        if let Some(cpu_s) = self.metrics.scalar(&cpu_q, end_ms) {
            let pct = cpu_s / (elapsed_s * u.ncpus.max(1) as f64) * 100.0;
            row[unit_cols::AVG_CPU_USAGE] = Value::Real(pct.clamp(0.0, 100.0));
        }

        // Average memory.
        let mem_q = format!(
            "sum(avg_over_time(ceems_compute_unit_memory_used_bytes{{uuid=\"{uuid}\"}}[{window_s}s]))"
        );
        if let Some(mem) = self.metrics.scalar(&mem_q, end_ms) {
            row[unit_cols::AVG_MEM] = Value::Real(mem);
        }

        // Average GPU utilisation (via the recording rule joining the GPU
        // map with DCGM utilisation).
        let gpu_q = format!(
            "avg(avg_over_time(uuid:ceems_gpu_util:pct{{uuid=\"{uuid}\"}}[{window_s}s]))"
        );
        if u.ngpus > 0 {
            if let Some(gpu) = self.metrics.scalar(&gpu_q, end_ms) {
                row[unit_cols::AVG_GPU_USAGE] = Value::Real(gpu.clamp(0.0, 100.0));
            }
        }

        // Energy: mean attributed power × elapsed.
        let power_q = format!(
            "sum(avg_over_time({}{{uuid=\"{uuid}\"}}[{window_s}s]))",
            self.config.power_metric
        );
        if let Some(avg_w) = self.metrics.scalar(&power_q, end_ms) {
            // Sensor noise can push short windows fractionally negative;
            // energy is physical, clamp at zero.
            let kwh = (avg_w * elapsed_s / 3.6e6).max(0.0);
            row[unit_cols::ENERGY_KWH] = Value::Real(kwh);
            // Emissions: energy × current factor.
            if let Some(factor) = self
                .metrics
                .scalar(&self.config.emission_factor_query, end_ms)
            {
                row[unit_cols::EMISSIONS_G] = Value::Real(kwh * factor);
            }
        }
        row
    }

    fn maybe_cleanup(&mut self, u: &UnitInfo) {
        if self.config.cleanup_cutoff_s <= 0.0 {
            return;
        }
        let Some(admin) = &self.tsdb_admin else {
            return;
        };
        let terminal = matches!(
            u.state.as_str(),
            "COMPLETED" | "FAILED" | "CANCELLED" | "TIMEOUT"
        );
        if !terminal || self.purged.contains(&u.uuid) {
            return;
        }
        let elapsed_s = match (u.started_at_ms, u.ended_at_ms) {
            (Some(s), Some(e)) => ((e - s).max(0)) as f64 / 1000.0,
            _ => return,
        };
        if elapsed_s < self.config.cleanup_cutoff_s {
            let n = admin.delete_unit_series(&u.uuid);
            self.stats.series_deleted += n as u64;
            self.stats.units_purged += 1;
            self.purged.insert(u.uuid.clone());
        }
    }

    /// Recomputes the usage rollups from the units table.
    fn recompute_usage(&mut self, now_ms: i64) -> Result<(), DbError> {
        use ceems_relstore::Aggregate;
        let rollups = self.db.aggregate(
            UNITS_TABLE,
            &Filter::True,
            &["user", "project"],
            &[
                Aggregate::Count,
                Aggregate::Sum("total_energy_kwh".into()),
                Aggregate::Sum("total_emissions_g".into()),
            ],
        )?;
        // CPU/GPU hours need elapsed×cores which the aggregate layer cannot
        // express; compute per group with a filtered scan.
        for r in rollups {
            let user = r[0].as_text().unwrap_or("").to_string();
            let project = r[1].as_text().unwrap_or("").to_string();
            let count = r[2].as_int().unwrap_or(0);
            let energy = r[3].as_real().unwrap_or(0.0);
            let emissions = r[4].as_real().unwrap_or(0.0);

            let units = self.db.query(
                UNITS_TABLE,
                &ceems_relstore::Query::all().filter(Filter::And(vec![
                    Filter::Eq("user".into(), user.as_str().into()),
                    Filter::Eq("project".into(), project.as_str().into()),
                ])),
            )?;
            let mut cpu_hours = 0.0;
            let mut gpu_hours = 0.0;
            for u in &units {
                let elapsed_h = u[unit_cols::ELAPSED_S].as_real().unwrap_or(0.0) / 3600.0;
                cpu_hours += elapsed_h * u[unit_cols::NCPUS].as_real().unwrap_or(0.0);
                gpu_hours += elapsed_h * u[unit_cols::NGPUS].as_real().unwrap_or(0.0);
            }

            self.db.upsert(
                USAGE_TABLE,
                vec![
                    format!("{user}|{project}").into(),
                    user.into(),
                    project.into(),
                    Value::Int(count),
                    Value::Real(cpu_hours),
                    Value::Real(gpu_hours),
                    Value::Real(energy),
                    Value::Real(emissions),
                    Value::Int(now_ms),
                ],
            )?;
        }
        Ok(())
    }

    /// Checks unit ownership — the primitive behind the LB's access control.
    pub fn verify_ownership(&self, user: &str, uuid: &str) -> bool {
        verify_ownership_in_db(&self.db, user, uuid)
    }
}

/// Direct-DB ownership check (the LB uses this when it can reach the DB
/// file, falling back to the HTTP API otherwise — §II.C architecture).
pub fn verify_ownership_in_db(db: &Db, user: &str, uuid: &str) -> bool {
    match db.get(UNITS_TABLE, &uuid.into()) {
        Ok(Some(row)) => row[unit_cols::USER].as_text() == Some(user),
        _ => false,
    }
}

/// Reads a usage rollup row for display.
pub fn usage_row_values(row: &[Value]) -> (String, String, i64, f64, f64, f64, f64) {
    (
        row[usage_cols::USER].as_text().unwrap_or("").to_string(),
        row[usage_cols::PROJECT].as_text().unwrap_or("").to_string(),
        row[usage_cols::NUM_UNITS].as_int().unwrap_or(0),
        row[usage_cols::CPU_HOURS].as_real().unwrap_or(0.0),
        row[usage_cols::GPU_HOURS].as_real().unwrap_or(0.0),
        row[usage_cols::ENERGY_KWH].as_real().unwrap_or(0.0),
        row[usage_cols::EMISSIONS_G].as_real().unwrap_or(0.0),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics_source::TsdbLocalSource;
    use ceems_metrics::labels;
    use ceems_relstore::Query;

    struct FakeRm {
        units: Vec<UnitInfo>,
    }

    impl ResourceManagerClient for FakeRm {
        fn name(&self) -> &'static str {
            "fake"
        }
        fn units_since(&self, since_ms: i64) -> Vec<UnitInfo> {
            self.units
                .iter()
                .filter(|u| u.submitted_at_ms >= since_ms || u.ended_at_ms.is_some())
                .cloned()
                .collect()
        }
    }

    fn unit(uuid: &str, user: &str, started: i64, ended: Option<i64>) -> UnitInfo {
        UnitInfo {
            uuid: uuid.into(),
            resource_manager: "slurm".into(),
            user: user.into(),
            project: "proj".into(),
            partition: "cpu".into(),
            state: if ended.is_some() { "COMPLETED" } else { "RUNNING" }.into(),
            submitted_at_ms: started - 1000,
            started_at_ms: Some(started),
            ended_at_ms: ended,
            nnodes: 1,
            ncpus: 8,
            ngpus: 0,
        }
    }

    fn tmpdir(tag: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!(
            "ceems-upd-{tag}-{}-{}",
            std::process::id(),
            std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .unwrap()
                .as_nanos()
        ))
    }

    fn tsdb_with_unit_metrics(uuid: &str) -> Arc<Tsdb> {
        let db = Arc::new(Tsdb::default());
        for i in 0..41i64 {
            let t = i * 15_000;
            // 6 busy cores of 8 → 75% usage; split user/system.
            db.append(
                &labels! {"__name__" => "ceems_compute_unit_cpu_user_seconds_total", "uuid" => uuid, "instance" => "n1"},
                t,
                (i as f64) * 15.0 * 5.5,
            );
            db.append(
                &labels! {"__name__" => "ceems_compute_unit_cpu_system_seconds_total", "uuid" => uuid, "instance" => "n1"},
                t,
                (i as f64) * 15.0 * 0.5,
            );
            db.append(
                &labels! {"__name__" => "ceems_compute_unit_memory_used_bytes", "uuid" => uuid, "instance" => "n1"},
                t,
                (16u64 << 30) as f64,
            );
            db.append(
                &labels! {"__name__" => "uuid:ceems_power:watts", "uuid" => uuid, "instance" => "n1"},
                t,
                360.0,
            );
            db.append(
                &labels! {"__name__" => "ceems_emissions_gCo2_kWh", "provider" => "rte", "instance" => "n1"},
                t,
                50.0,
            );
        }
        db
    }

    #[test]
    fn poll_fills_aggregates_and_rollups() {
        let tsdb = tsdb_with_unit_metrics("slurm-7");
        let rm = Arc::new(FakeRm {
            units: vec![unit("slurm-7", "alice", 0, Some(600_000))],
        });
        let dir = tmpdir("agg");
        let mut upd = Updater::new(
            Db::open(&dir).unwrap(),
            rm,
            Arc::new(TsdbLocalSource::new(tsdb)),
            None,
            UpdaterConfig::default(),
        )
        .unwrap();
        upd.poll(600_000).unwrap();
        assert_eq!(upd.stats().units_upserted, 1);

        let rows = upd.db().query(UNITS_TABLE, &Query::all()).unwrap();
        assert_eq!(rows.len(), 1);
        let r = &rows[0];
        // 6 of 8 cores → 75%.
        let cpu = r[unit_cols::AVG_CPU_USAGE].as_real().unwrap();
        assert!((cpu - 75.0).abs() < 2.0, "cpu={cpu}");
        let mem = r[unit_cols::AVG_MEM].as_real().unwrap();
        assert!((mem - (16u64 << 30) as f64).abs() < 1e6);
        // 360 W for 600 s = 0.06 kWh.
        let kwh = r[unit_cols::ENERGY_KWH].as_real().unwrap();
        assert!((kwh - 0.06).abs() < 1e-6, "kwh={kwh}");
        // 0.06 kWh × 50 g/kWh = 3 g.
        let g = r[unit_cols::EMISSIONS_G].as_real().unwrap();
        assert!((g - 3.0).abs() < 1e-6, "g={g}");

        // Usage rollup exists.
        let usage = upd.db().query(USAGE_TABLE, &Query::all()).unwrap();
        assert_eq!(usage.len(), 1);
        let (user, project, n, cpu_h, _gpu_h, energy, em) = usage_row_values(&usage[0]);
        assert_eq!((user.as_str(), project.as_str(), n), ("alice", "proj", 1));
        assert!((cpu_h - 8.0 * 600.0 / 3600.0).abs() < 1e-9);
        assert!((energy - 0.06).abs() < 1e-6);
        assert!((em - 3.0).abs() < 1e-6);

        // Ownership checks.
        assert!(upd.verify_ownership("alice", "slurm-7"));
        assert!(!upd.verify_ownership("bob", "slurm-7"));
        assert!(!upd.verify_ownership("alice", "slurm-999"));

        std::fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn cleanup_purges_short_units() {
        let tsdb = tsdb_with_unit_metrics("slurm-9");
        assert!(tsdb.series_count() > 0);
        let short = UnitInfo {
            state: "COMPLETED".into(),
            ..unit("slurm-9", "bob", 0, Some(20_000))
        };
        let rm = Arc::new(FakeRm { units: vec![short] });
        let dir = tmpdir("clean");
        let admin: Arc<dyn TsdbAdmin> = Arc::new(tsdb.clone());
        let mut upd = Updater::new(
            Db::open(&dir).unwrap(),
            rm,
            Arc::new(TsdbLocalSource::new(tsdb.clone())),
            Some(admin),
            UpdaterConfig {
                cleanup_cutoff_s: 60.0,
                ..Default::default()
            },
        )
        .unwrap();
        upd.poll(30_000).unwrap();
        assert_eq!(upd.stats().units_purged, 1);
        assert!(upd.stats().series_deleted >= 4);
        // uuid-labelled series gone; the emissions series survives.
        assert_eq!(
            tsdb.select(
                &[ceems_metrics::matcher::LabelMatcher::eq("uuid", "slurm-9")],
                0,
                i64::MAX
            )
            .len(),
            0
        );
        assert!(tsdb.series_count() >= 1);
        // Second poll does not double-purge.
        upd.poll(40_000).unwrap();
        assert_eq!(upd.stats().units_purged, 1);
        std::fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn pending_units_have_no_aggregates() {
        let tsdb = Arc::new(Tsdb::default());
        let mut u = unit("slurm-1", "x", 0, None);
        u.submitted_at_ms = 0;
        u.started_at_ms = None;
        u.state = "PENDING".into();
        let rm = Arc::new(FakeRm { units: vec![u] });
        let dir = tmpdir("pend");
        let mut upd = Updater::new(
            Db::open(&dir).unwrap(),
            rm,
            Arc::new(TsdbLocalSource::new(tsdb)),
            None,
            UpdaterConfig::default(),
        )
        .unwrap();
        upd.poll(10_000).unwrap();
        let rows = upd.db().query(UNITS_TABLE, &Query::all()).unwrap();
        assert!(rows[0][unit_cols::AVG_CPU_USAGE].is_null());
        assert!(rows[0][unit_cols::ENERGY_KWH].is_null());
        std::fs::remove_dir_all(dir).unwrap();
    }
}
