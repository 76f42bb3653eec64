//! The updater: the API server's single writer.
//!
//! On each poll it (1) fetches units that changed since the last poll from
//! the resource manager, (2) asks the TSDB — once per aggregate, for every
//! unit together — what happened since the previous poll and folds that
//! interval into the aggregates each unit's row already holds, (3)
//! recomputes per-user/project usage rollups over the units as they will
//! be, (4) commits the unit rows that changed and the usage rows as one
//! write, and (5) applies the §II.C cardinality cleanup: units that lived
//! shorter than the cutoff get their TSDB series deleted.
//!
//! The five aggregate queries are standing queries: the updater keeps a
//! [`PreparedQuery`] for each, so an in-process source reads only the
//! samples that arrived since the last poll, and a poll costs what changed.
//!
//! The fold's invariant: a row whose `elapsed_s` reached
//! `MIN_ELAPSED_S` (30 s) holds aggregates over `[started_at, min(ended_at,
//! updated_at)]`, and nothing younger than that frontier has been folded.
//! The frontier is read back from the row on every poll, so a restarted
//! updater over the same `Db` continues where the last one stopped, and a
//! unit reported twice over the same interval folds nothing twice. A poll
//! in which the TSDB fails to answer one of the five queries folds nothing:
//! every frontier stays where it was, the resource manager is asked again
//! from the same point and no series is cleaned up, so the next poll that
//! is answered folds the whole gap.

use std::cmp::Ordering;
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::sync::Arc;

use ceems_metrics::labels::LabelSet;
use ceems_metrics::matcher::LabelMatcher;
use ceems_metrics::Histogram;
use ceems_relstore::{Db, DbError, Row, Value};
use ceems_tsdb::promql::eval::DEFAULT_LOOKBACK_MS;
use ceems_tsdb::promql::{parse_expr, PreparedQuery};
use ceems_tsdb::QuerySource;

use crate::rm::{ResourceManagerClient, UnitInfo};
use crate::schema::{create_tables, unit_cols, usage_cols, UNITS_TABLE, USAGE_TABLE};

/// Units younger than this get no aggregates yet: such a window holds fewer
/// than two scrapes, so no rate can be taken over it.
const MIN_ELAPSED_S: f64 = 30.0;

/// Shortest range the interval queries look back over. A poll interval
/// below two scrape intervals would otherwise leave `rate` a single sample;
/// the means of the wider window stand in for the interval's.
const MIN_WINDOW_MS: i64 = 60_000;

/// A second name for [`QuerySource`], which code such as `e2ebench`'s
/// pipeline still spells for the cleanup's TSDB.
pub use ceems_tsdb::QuerySource as TsdbAdmin;

/// The instant vector of `query` at `t_ms` under Prometheus's 5 m lookback,
/// or the source's error. A query that does not parse is no data: asking
/// again would not change it.
pub(crate) fn instant(
    source: &dyn QuerySource,
    query: &str,
    t_ms: i64,
    plan: &mut PreparedQuery,
) -> Result<Vec<(LabelSet, f64)>, String> {
    let Ok(expr) = parse_expr(query) else {
        return Ok(Vec::new());
    };
    source.instant(query, &expr, t_ms, DEFAULT_LOOKBACK_MS, plan)
}

/// The one value of a vector of one sample.
pub(crate) fn scalar(v: &[(LabelSet, f64)]) -> Option<f64> {
    match v {
        [(_, x)] => Some(*x),
        _ => None,
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
            emission_factor_query: "avg(ceems_emissions_gCo2_kWh{provider=\"rte\"})".to_string(),
            cleanup_cutoff_s: 0.0,
        }
    }
}

/// Poll statistics.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct UpdaterStats {
    /// Unit rows written across all polls. A row that would change nothing
    /// but its `updated_at_ms` is not written.
    pub units_upserted: u64,
    /// Instant queries sent to the TSDB across all polls.
    pub tsdb_queries: u64,
    /// Unit intervals folded into stored aggregates across all polls.
    pub units_folded: u64,
    /// TSDB series deleted by the cardinality cleanup.
    pub series_deleted: u64,
    /// Units purged (their short life fell under the cutoff).
    pub units_purged: u64,
    /// Polls in which a TSDB query failed: they folded nothing and left
    /// every frontier for the next poll.
    pub failed_polls: u64,
    /// Unit intervals whose energy was folded with no emissions, because
    /// the emission factor query answered nothing: the unit's emissions
    /// miss that energy.
    pub unpriced_intervals: u64,
}

/// What every unit did over one query window, keyed by `uuid`.
#[derive(Default)]
struct IntervalAggregates {
    /// Mean busy cores (user + system).
    cpu_cores: HashMap<String, f64>,
    /// Mean memory in bytes, summed over the unit's nodes.
    mem_bytes: HashMap<String, f64>,
    /// Mean GPU utilisation in percent, averaged over the unit's GPUs.
    gpu_pct: HashMap<String, f64>,
    /// Mean attributed power in watts, summed over the unit's nodes.
    power_w: HashMap<String, f64>,
    /// Emission factor (gCO₂e/kWh) at the end of the window.
    emission_factor: Option<f64>,
}

fn by_uuid(vector: Vec<(LabelSet, f64)>) -> HashMap<String, f64> {
    vector
        .into_iter()
        .filter_map(|(labels, v)| Some((labels.get("uuid")?.to_string(), v)))
        .collect()
}

/// Folds one interval's mean into a running time-weighted mean: `before_s`
/// seconds are already in the cell, `covered_s` are being added.
fn fold_mean(cell: &mut Value, v: f64, before_s: f64, covered_s: f64) {
    *cell = Value::Real(match cell.as_real() {
        Some(old) if before_s > 0.0 => (old * before_s + v * covered_s) / (before_s + covered_s),
        _ => v,
    });
}

/// The part of a unit's life its row does not cover yet.
struct Unfolded {
    /// Where the row's aggregates stop (the unit's start when it has none).
    from_ms: i64,
    /// Seconds already in the row.
    before_s: f64,
    /// Seconds to add: up to the unit's end, or now while it runs.
    covered_s: f64,
}

fn unfolded(u: &UnitInfo, stored: Option<&[Value]>, now_ms: i64) -> Option<Unfolded> {
    let start_ms = u.started_at_ms?;
    let until_ms = u.ended_at_ms.unwrap_or(now_ms);
    if ((until_ms - start_ms) as f64 / 1000.0) < MIN_ELAPSED_S {
        return None;
    }
    // The stored row folded up to its own write only if the unit was old
    // enough by then; its `elapsed_s` says so.
    let from_ms = stored
        .filter(|row| row[unit_cols::ELAPSED_S].as_real() >= Some(MIN_ELAPSED_S))
        .and_then(|row| row[unit_cols::UPDATED_AT].as_int())
        .map_or(start_ms, |folded_until| folded_until.max(start_ms));
    (from_ms < until_ms).then(|| Unfolded {
        from_ms,
        before_s: (from_ms - start_ms) as f64 / 1000.0,
        covered_s: (until_ms - from_ms) as f64 / 1000.0,
    })
}

/// The unit's row as of `now_ms`: what the resource manager reports, with
/// the aggregates carried over from the stored row.
fn unit_row(u: &UnitInfo, stored: Option<&[Value]>, now_ms: i64) -> Vec<Value> {
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
    if let Some(stored) = stored {
        let aggregates = unit_cols::AVG_CPU_USAGE..=unit_cols::EMISSIONS_G;
        row[aggregates.clone()].clone_from_slice(&stored[aggregates]);
    }
    row
}

/// Adds one interval to the aggregates in `row`: energy and emissions
/// accumulate, the averages stay time-weighted means over the unit's life.
/// Returns whether energy went in with no factor to price it.
fn fold_interval(
    row: &mut [Value],
    u: &UnitInfo,
    span: &Unfolded,
    interval: &IntervalAggregates,
) -> bool {
    let uuid = u.uuid.as_str();
    let mut mean = |col: usize, v: f64| fold_mean(&mut row[col], v, span.before_s, span.covered_s);
    if let Some(cores) = interval.cpu_cores.get(uuid) {
        let pct = cores / u.ncpus.max(1) as f64 * 100.0;
        mean(unit_cols::AVG_CPU_USAGE, pct.clamp(0.0, 100.0));
    }
    if let Some(&mem) = interval.mem_bytes.get(uuid) {
        mean(unit_cols::AVG_MEM, mem);
    }
    if let Some(gpu) = interval.gpu_pct.get(uuid) {
        mean(unit_cols::AVG_GPU_USAGE, gpu.clamp(0.0, 100.0));
    }
    if let Some(watts) = interval.power_w.get(uuid) {
        // Sensor noise can push short windows fractionally negative;
        // energy is physical, clamp at zero.
        let kwh = (watts * span.covered_s / 3.6e6).max(0.0);
        let mut add = |col: usize, v: f64| {
            row[col] = Value::Real(row[col].as_real().unwrap_or(0.0) + v);
        };
        add(unit_cols::ENERGY_KWH, kwh);
        // Each interval is priced at the factor of its own time.
        match interval.emission_factor {
            Some(factor) => add(unit_cols::EMISSIONS_G, kwh * factor),
            None => return true,
        }
    }
    false
}

/// Whether writing `row` over `stored` changes a column other than the
/// `updated_at_ms` stamp in column `stamp`, a real to the bit.
fn changes(stored: Option<&Row>, row: &Row, stamp: usize) -> bool {
    let same = |(a, b): (&Value, &Value)| match (a, b) {
        (Value::Real(x), Value::Real(y)) => x.to_bits() == y.to_bits(),
        (Value::Real(_), _) | (_, Value::Real(_)) => false,
        _ => a == b,
    };
    stored.is_none_or(|stored| {
        let mut cells = stored.iter().zip(row).enumerate();
        !cells.all(|(col, cells)| col == stamp || same(cells))
    })
}

/// The updater.
pub struct Updater {
    db: Db,
    rm: Arc<dyn ResourceManagerClient>,
    source: Arc<dyn QuerySource>,
    cleanup: Option<Arc<dyn QuerySource>>,
    config: UpdaterConfig,
    /// One plan per aggregate query, in [`Updater::query_interval`]'s order.
    plans: [PreparedQuery; 5],
    last_poll_ms: i64,
    purged: BTreeSet<String>,
    stats: UpdaterStats,
    poll_duration: Histogram,
}

impl Updater {
    /// Creates an updater owning the relational DB. It reads its aggregates
    /// from `source` and deletes short units' series through `cleanup`
    /// (no cleanup when `None`).
    pub fn new(
        mut db: Db,
        rm: Arc<dyn ResourceManagerClient>,
        source: Arc<dyn QuerySource>,
        cleanup: Option<Arc<dyn QuerySource>>,
        config: UpdaterConfig,
    ) -> Result<Updater, DbError> {
        create_tables(&mut db)?;
        Ok(Updater {
            db,
            rm,
            source,
            cleanup,
            config,
            plans: Default::default(),
            last_poll_ms: 0,
            purged: BTreeSet::new(),
            stats: UpdaterStats::default(),
            poll_duration: Histogram::new(Histogram::duration_buckets()),
        })
    }

    /// Read access to the DB (the API layer and the LB's direct-DB checks).
    pub fn db(&self) -> &Db {
        &self.db
    }

    /// Mutable DB access (compacting the log now, tests).
    pub fn db_mut(&mut self) -> &mut Db {
        &mut self.db
    }

    /// Statistics so far.
    pub fn stats(&self) -> UpdaterStats {
        self.stats
    }

    /// Wall time of each [`Updater::poll`], in seconds.
    pub fn poll_duration(&self) -> &Histogram {
        &self.poll_duration
    }

    /// One poll at simulated time `now_ms`.
    pub fn poll(&mut self, now_ms: i64) -> Result<(), DbError> {
        let _timer = self.poll_duration.start_timer();
        // Small overlap so boundary updates are never missed; upserts are
        // idempotent and a finished unit's frontier already sits at its end.
        let since = (self.last_poll_ms - 1000).max(0);
        let units = self.rm.units_since(since);

        // Each unit's row so far, and the part of its life not yet folded.
        let mut rows = Vec::with_capacity(units.len());
        let table = self.db.table(UNITS_TABLE)?;
        for u in &units {
            let stored = table.get(&u.uuid.as_str().into()).map(Vec::as_slice);
            rows.push((unit_row(u, stored, now_ms), unfolded(u, stored, now_ms)));
        }

        // One window reaching back to the oldest frontier serves every unit:
        // a series holds nothing before its unit started, and a unit whose
        // frontier is younger takes the window's mean over its own seconds.
        let oldest = rows
            .iter()
            .filter_map(|(_, span)| Some(span.as_ref()?.from_ms))
            .min();
        let interval = match oldest {
            Some(from_ms) => self.query_interval((now_ms - from_ms).max(MIN_WINDOW_MS), now_ms),
            None => Ok(IntervalAggregates::default()),
        };

        let mut unit_rows = Vec::with_capacity(units.len());
        for (u, (mut row, span)) in units.iter().zip(rows) {
            match (span, &interval) {
                (Some(span), Ok(interval)) => {
                    let unpriced = fold_interval(&mut row, u, &span, interval);
                    self.stats.unpriced_intervals += u64::from(unpriced);
                    self.stats.units_folded += 1;
                }
                // Nothing folded: the frontier stays for the next poll.
                (Some(span), Err(_)) => row[unit_cols::UPDATED_AT] = Value::Int(span.from_ms),
                (None, _) => {}
            }
            unit_rows.push(row);
        }
        // Pending units and finished ones reported again come out as
        // stored but for the stamp, which only the fold of a unit whose
        // `elapsed_s` moves reads: they stay as stored.
        let table = self.db.table(UNITS_TABLE)?;
        unit_rows
            .retain(|row| changes(table.get(&row[unit_cols::UUID]), row, unit_cols::UPDATED_AT));
        let mut usage = {
            // A unit reported twice in one poll: its last row is the one
            // that stays.
            let fresh: BTreeMap<&Value, &Row> =
                unit_rows.iter().map(|r| (&r[unit_cols::UUID], r)).collect();
            let stored = self.db.table(UNITS_TABLE)?.scan();
            usage_rows(overlay(stored, &fresh), now_ms)
        };
        // So does a usage row: its stamp is when it last changed.
        let table = self.db.table(USAGE_TABLE)?;
        usage.retain(|row| {
            changes(
                table.get(&row[usage_cols::KEY]),
                row,
                usage_cols::UPDATED_AT,
            )
        });
        let upserted = unit_rows.len() as u64;
        let writes = unit_rows.into_iter().map(|row| (UNITS_TABLE, row));
        self.db.commit(
            writes.chain(usage.into_iter().map(|row| (USAGE_TABLE, row))),
            [],
        )?;
        self.stats.units_upserted += upserted;
        // After a failed query a short unit's series wait for the poll that
        // bills them, and the units that changed are asked for again.
        if interval.is_ok() {
            for u in &units {
                self.maybe_cleanup(u);
            }
            self.last_poll_ms = now_ms;
        } else {
            self.stats.failed_polls += 1;
        }
        Ok(())
    }

    /// Asks the TSDB what every unit did over `[now − window, now]`: one
    /// instant query per aggregate, whatever the number of units. Stops at
    /// the first query the source fails to answer.
    fn query_interval(
        &mut self,
        window_ms: i64,
        now_ms: i64,
    ) -> Result<IntervalAggregates, String> {
        let source = &*self.source;
        let sent = &mut self.stats.tsdb_queries;
        let mut ask = |query: &str, plan: &mut PreparedQuery| {
            *sent += 1;
            instant(source, query, now_ms, plan)
        };
        let [cpu, mem, gpu, power, factor] = &mut self.plans;
        // Range selectors are closed at both ends. A slope wants both
        // boundary samples; a mean must leave the sample stamped at the
        // previous poll to the fold that already counted it.
        let closed = format!("[{window_ms}ms]");
        let w = format!("[{}ms]", window_ms - 1);
        Ok(IntervalAggregates {
            cpu_cores: by_uuid(ask(
                &format!(
                    "sum by (uuid) (rate(ceems_compute_unit_cpu_user_seconds_total{closed})) \
                     + sum by (uuid) (rate(ceems_compute_unit_cpu_system_seconds_total{closed}))"
                ),
                cpu,
            )?),
            mem_bytes: by_uuid(ask(
                &format!("sum by (uuid) (avg_over_time(ceems_compute_unit_memory_used_bytes{w}))"),
                mem,
            )?),
            // Via the recording rule joining the GPU map with DCGM
            // utilisation; units without GPUs have no such series.
            gpu_pct: by_uuid(ask(
                &format!("avg by (uuid) (avg_over_time(uuid:ceems_gpu_util:pct{w}))"),
                gpu,
            )?),
            power_w: by_uuid(ask(
                &format!(
                    "sum by (uuid) (avg_over_time({}{w}))",
                    self.config.power_metric
                ),
                power,
            )?),
            emission_factor: scalar(&ask(&self.config.emission_factor_query, factor)?),
        })
    }

    fn maybe_cleanup(&mut self, u: &UnitInfo) {
        if self.config.cleanup_cutoff_s <= 0.0 {
            return;
        }
        let Some(cleanup) = &self.cleanup else {
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
            let n = cleanup.delete_series(&[LabelMatcher::eq("uuid", u.uuid.as_str())]);
            self.stats.series_deleted += n as u64;
            self.stats.units_purged += 1;
            self.purged.insert(u.uuid.clone());
        }
    }

    /// Checks unit ownership — the primitive behind the LB's access control.
    pub fn verify_ownership(&self, user: &str, uuid: &str) -> bool {
        verify_ownership_in_db(&self.db, user, uuid)
    }
}

/// The units table in primary-key order with `fresh` (rows by primary key)
/// written over it: what a scan will return once `fresh` is upserted.
fn overlay<'a>(
    stored: impl Iterator<Item = &'a Row>,
    fresh: &'a BTreeMap<&'a Value, &'a Row>,
) -> impl Iterator<Item = &'a Row> {
    let mut stored = stored.peekable();
    let mut fresh = fresh.iter().peekable();
    std::iter::from_fn(move || {
        let order = match (stored.peek(), fresh.peek()) {
            (Some(s), Some((pk, _))) => s[unit_cols::UUID].cmp(pk),
            (Some(_), None) => Ordering::Less,
            (None, _) => Ordering::Greater,
        };
        match order {
            Ordering::Less => stored.next(),
            Ordering::Equal => {
                stored.next();
                fresh.next().map(|(_, row)| *row)
            }
            Ordering::Greater => fresh.next().map(|(_, row)| *row),
        }
    })
}

/// The usage rollups in one pass over `units`, in primary-key order. Energy
/// and emissions sum as `Iterator::sum` does over the non-NULL cells: from
/// −0.0, and adding −0.0 changes no sum, so an all-NULL group stores −0.0.
fn usage_rows<'a>(units: impl Iterator<Item = &'a Row>, now_ms: i64) -> Vec<Row> {
    use unit_cols::*;
    // (units, core-hours, GPU-hours, kWh, g) per (user, project).
    let mut groups = BTreeMap::new();
    for u in units {
        let text = |col: usize| u[col].as_text().unwrap_or("");
        let real = |col: usize, null: f64| u[col].as_real().unwrap_or(null);
        let g = groups
            .entry((text(USER), text(PROJECT)))
            .or_insert((0, 0.0, 0.0, -0.0, -0.0));
        let elapsed_h = real(ELAPSED_S, 0.0) / 3600.0;
        g.0 += 1;
        g.1 += elapsed_h * real(NCPUS, 0.0);
        g.2 += elapsed_h * real(NGPUS, 0.0);
        g.3 += real(ENERGY_KWH, -0.0);
        g.4 += real(EMISSIONS_G, -0.0);
    }
    groups
        .into_iter()
        .map(|((user, project), (n, cpu_h, gpu_h, kwh, g))| {
            vec![
                format!("{user}|{project}").into(),
                user.into(),
                project.into(),
                Value::Int(n),
                Value::Real(cpu_h),
                Value::Real(gpu_h),
                Value::Real(kwh),
                Value::Real(g),
                Value::Int(now_ms),
            ]
        })
        .collect()
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
    use ceems_metrics::labels;
    use ceems_relstore::Query;
    use ceems_tsdb::Tsdb;
    use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};

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
            state: if ended.is_some() {
                "COMPLETED"
            } else {
                "RUNNING"
            }
            .into(),
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

    /// 6 busy cores of 8 (75 % usage), 16 GiB and 360 W for ten minutes,
    /// at 50 g/kWh.
    fn tsdb_with_unit_metrics(uuid: &str) -> Arc<Tsdb> {
        let db = Arc::new(Tsdb::default());
        append_unit(&db, uuid, 0, 600_000, |_| STEADY);
        append_factor(&db, 600_000, |_| 50.0);
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
            tsdb,
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

    /// A TSDB that does not answer folds nothing: the poll still commits
    /// the unit's row, with no aggregates, and deletes nothing.
    #[test]
    fn an_unreachable_tsdb_reads_as_no_data() {
        let short = UnitInfo {
            state: "COMPLETED".into(),
            ..unit("slurm-3", "bob", 0, Some(40_000))
        };
        let rm = Arc::new(FakeRm { units: vec![short] });
        let dir = tmpdir("dead");
        let dead: Arc<dyn QuerySource> =
            Arc::new(ceems_tsdb::TsdbClient::new("http://127.0.0.1:1"));
        let mut upd = Updater::new(
            Db::open(&dir).unwrap(),
            rm,
            dead.clone(),
            Some(dead),
            UpdaterConfig {
                cleanup_cutoff_s: 60.0,
                ..Default::default()
            },
        )
        .unwrap();
        upd.poll(60_000).unwrap();
        assert_eq!(aggregates(&stored(&upd, "slurm-3")), [None; 5]);
        assert_eq!(upd.stats().series_deleted, 0);
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
        let admin: Arc<dyn QuerySource> = tsdb.clone();
        let mut upd = Updater::new(
            Db::open(&dir).unwrap(),
            rm,
            tsdb.clone(),
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
            tsdb,
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

    /// A resource manager reporting every unit on every poll.
    struct EveryPollRm(Vec<UnitInfo>);

    impl ResourceManagerClient for EveryPollRm {
        fn name(&self) -> &'static str {
            "every-poll"
        }
        fn units_since(&self, _since_ms: i64) -> Vec<UnitInfo> {
            self.0.clone()
        }
    }

    /// A pending backlog and a finished unit, reported on every poll, are
    /// written once, and so are their usage rows: later polls would change
    /// only their `updated_at_ms`.
    #[test]
    fn rows_that_would_change_only_their_stamp_are_written_once() {
        let tsdb = tsdb_with_unit_metrics("slurm-7");
        let mut units = vec![unit("slurm-7", "alice", 0, Some(600_000))];
        for i in 0..5 {
            let mut u = unit(&format!("slurm-{}", 100 + i), "bob", 0, None);
            (u.started_at_ms, u.state) = (None, "PENDING".into());
            units.push(u);
        }
        let dir = tmpdir("once");
        let mut upd = Updater::new(
            Db::open(&dir).unwrap(),
            Arc::new(EveryPollRm(units)),
            tsdb,
            None,
            UpdaterConfig::default(),
        )
        .unwrap();
        for now_ms in [660_000, 720_000, 780_000] {
            upd.poll(now_ms).unwrap();
        }
        assert_eq!(upd.stats().units_upserted, 6);
        let mut logged = BTreeMap::<(String, String), usize>::new();
        ceems_relstore::wal::replay(&dir.join("wal"), |commit, _| {
            for rec in commit {
                if let ceems_relstore::wal::WalRecord::Upsert { table, row } = rec {
                    // Both tables' keys are their first column.
                    *logged
                        .entry((table.clone(), row[0].to_string()))
                        .or_default() += 1;
                }
            }
            true
        })
        .unwrap();
        let tables: Vec<&str> = logged.keys().map(|(table, _)| table.as_str()).collect();
        assert_eq!(
            tables,
            [[UNITS_TABLE; 6].as_slice(), &[USAGE_TABLE; 2]].concat()
        );
        assert!(logged.values().all(|&n| n == 1), "{logged:?}");
        let kwh = stored(&upd, "slurm-7")[unit_cols::ENERGY_KWH]
            .as_real()
            .unwrap();
        assert!((kwh - 0.06).abs() < 1e-6, "kwh={kwh}");
        let usage = upd.db().query(USAGE_TABLE, &Query::all()).unwrap();
        // Stamped by the first poll, the one that last changed it.
        assert_eq!(usage[0][usage_cols::UPDATED_AT], Value::Int(660_000));
        std::fs::remove_dir_all(dir).unwrap();
    }

    /// A resource manager replaying fixed unit lifecycles against a clock
    /// the test sets: each unit is reported as it looks at that time, and
    /// finished units are re-reported on every poll.
    struct ClockRm {
        units: Vec<UnitInfo>,
        now_ms: AtomicI64,
    }

    impl ClockRm {
        fn new(units: Vec<UnitInfo>) -> Arc<ClockRm> {
            Arc::new(ClockRm {
                units,
                now_ms: AtomicI64::new(0),
            })
        }
    }

    impl ResourceManagerClient for ClockRm {
        fn name(&self) -> &'static str {
            "clock"
        }
        fn units_since(&self, _since_ms: i64) -> Vec<UnitInfo> {
            let now = self.now_ms.load(Ordering::SeqCst);
            self.units
                .iter()
                .filter(|u| u.submitted_at_ms <= now)
                .map(|u| {
                    let mut u = u.clone();
                    if u.started_at_ms.is_some_and(|s| s > now) {
                        u.started_at_ms = None;
                        u.ended_at_ms = None;
                        u.state = "PENDING".into();
                    } else if u.ended_at_ms.is_some_and(|e| e > now) {
                        u.ended_at_ms = None;
                        u.state = "RUNNING".into();
                    }
                    u
                })
                .collect()
        }
    }

    /// Counts the instant queries that reach the wrapped source.
    struct Counting {
        inner: Arc<Tsdb>,
        queries: AtomicU64,
    }

    impl QuerySource for Counting {
        fn instant(
            &self,
            src: &str,
            expr: &ceems_tsdb::promql::Expr,
            t_ms: i64,
            lookback_ms: i64,
            plan: &mut PreparedQuery,
        ) -> Result<Vec<(LabelSet, f64)>, String> {
            self.queries.fetch_add(1, Ordering::SeqCst);
            self.inner.instant(src, expr, t_ms, lookback_ms, plan)
        }

        fn delete_series(&self, matchers: &[LabelMatcher]) -> usize {
            self.inner.delete_series(matchers)
        }
    }

    /// What a unit does at one instant.
    struct Load {
        cores: f64,
        mem: f64,
        gpu_pct: f64,
        watts: f64,
    }

    const STEADY: Load = Load {
        cores: 6.0,
        mem: (16u64 << 30) as f64,
        gpu_pct: 40.0,
        watts: 360.0,
    };

    /// Appends `uuid`'s series every 15 s over `[start_ms, end_ms]`; the CPU
    /// counters integrate `load(t).cores`, split 90/10 into user/system.
    fn append_unit(db: &Tsdb, uuid: &str, start_ms: i64, end_ms: i64, load: impl Fn(i64) -> Load) {
        let (mut user, mut system) = (0.0, 0.0);
        for t in (start_ms..=end_ms).step_by(15_000) {
            let l = load(t);
            for (name, v) in [
                ("ceems_compute_unit_cpu_user_seconds_total", user),
                ("ceems_compute_unit_cpu_system_seconds_total", system),
                ("ceems_compute_unit_memory_used_bytes", l.mem),
                ("uuid:ceems_power:watts", l.watts),
            ] {
                db.append(
                    &labels! {"__name__" => name, "uuid" => uuid, "instance" => "n1"},
                    t,
                    v,
                );
            }
            db.append(
                &labels! {"__name__" => "uuid:ceems_gpu_util:pct", "uuid" => uuid, "gpu" => "0"},
                t,
                l.gpu_pct,
            );
            user += l.cores * 15.0 * 0.9;
            system += l.cores * 15.0 * 0.1;
        }
    }

    fn append_factor(db: &Tsdb, end_ms: i64, factor: impl Fn(i64) -> f64) {
        for t in (0..=end_ms).step_by(15_000) {
            db.append(
                &labels! {"__name__" => "ceems_emissions_gCo2_kWh", "provider" => "rte"},
                t,
                factor(t),
            );
        }
    }

    fn open_updater(
        dir: &std::path::Path,
        rm: Arc<ClockRm>,
        source: Arc<dyn QuerySource>,
    ) -> Updater {
        Updater::new(
            Db::open(dir).unwrap(),
            rm,
            source,
            None,
            UpdaterConfig::default(),
        )
        .unwrap()
    }

    fn poll_at(upd: &mut Updater, rm: &ClockRm, now_ms: i64) {
        rm.now_ms.store(now_ms, Ordering::SeqCst);
        upd.poll(now_ms).unwrap();
    }

    fn stored(upd: &Updater, uuid: &str) -> Vec<Value> {
        upd.db().get(UNITS_TABLE, &uuid.into()).unwrap().unwrap()
    }

    /// `[cpu %, memory, gpu %, kWh, g]` of a stored row.
    fn aggregates(row: &[Value]) -> [Option<f64>; 5] {
        [
            unit_cols::AVG_CPU_USAGE,
            unit_cols::AVG_MEM,
            unit_cols::AVG_GPU_USAGE,
            unit_cols::ENERGY_KWH,
            unit_cols::EMISSIONS_G,
        ]
        .map(|col| row[col].as_real())
    }

    /// The same five aggregates from one evaluation of the unit's whole
    /// life at its end — the per-unit expressions `poll` used to send for
    /// every running unit on every poll, kept as the reference the fold is
    /// checked against.
    fn one_shot(src: &dyn QuerySource, u: &UnitInfo, now_ms: i64) -> [Option<f64>; 5] {
        let cfg = UpdaterConfig::default();
        let end_ms = u.ended_at_ms.unwrap_or(now_ms);
        let elapsed_s = (end_ms - u.started_at_ms.unwrap()) as f64 / 1000.0;
        let window_s = (elapsed_s as i64).max(60);
        let uuid = &u.uuid;
        let value = |query: &str| {
            scalar(&instant(src, query, end_ms, &mut PreparedQuery::default()).unwrap())
        };
        let cpu = value(&format!(
                    "sum(increase(ceems_compute_unit_cpu_user_seconds_total{{uuid=\"{uuid}\"}}[{window_s}s])) + sum(increase(ceems_compute_unit_cpu_system_seconds_total{{uuid=\"{uuid}\"}}[{window_s}s]))"
                ))
            .map(|cpu_s| (cpu_s / (elapsed_s * u.ncpus.max(1) as f64) * 100.0).clamp(0.0, 100.0));
        let mem = value(&format!(
                "sum(avg_over_time(ceems_compute_unit_memory_used_bytes{{uuid=\"{uuid}\"}}[{window_s}s]))"
            ));
        let gpu = value(&format!(
            "avg(avg_over_time(uuid:ceems_gpu_util:pct{{uuid=\"{uuid}\"}}[{window_s}s]))"
        ))
        .map(|g| g.clamp(0.0, 100.0));
        let kwh = value(&format!(
            "sum(avg_over_time({}{{uuid=\"{uuid}\"}}[{window_s}s]))",
            cfg.power_metric
        ))
        .map(|avg_w| (avg_w * elapsed_s / 3.6e6).max(0.0));
        let g = kwh.and_then(|kwh| Some(kwh * value(&cfg.emission_factor_query)?));
        [cpu, mem, gpu, kwh, g]
    }

    #[test]
    fn queries_per_poll_do_not_grow_with_units() {
        let mut sent_by_n = Vec::new();
        for n in [1usize, 50, 500] {
            let tsdb = Arc::new(Tsdb::default());
            let mut units = Vec::new();
            for i in 0..n {
                let uuid = format!("slurm-{i}");
                append_unit(&tsdb, &uuid, 0, 180_000, |_| STEADY);
                units.push(UnitInfo {
                    ngpus: 1,
                    ..unit(&uuid, "alice", 0, None)
                });
            }
            append_factor(&tsdb, 180_000, |_| 50.0);
            let source = Arc::new(Counting {
                inner: tsdb,
                queries: AtomicU64::new(0),
            });
            let rm = ClockRm::new(units);
            let dir = tmpdir("count");
            let mut upd = open_updater(&dir, rm.clone(), source.clone());
            for (polls, now_ms) in [(1, 60_000), (2, 120_000), (3, 180_000)] {
                let before = source.queries.load(Ordering::SeqCst);
                poll_at(&mut upd, &rm, now_ms);
                let sent = source.queries.load(Ordering::SeqCst) - before;
                assert!((1..=6).contains(&sent), "{sent} queries for {n} units");
                sent_by_n.push((n, sent));
                assert_eq!(
                    upd.stats().tsdb_queries,
                    source.queries.load(Ordering::SeqCst)
                );
                assert_eq!(upd.stats().units_folded, (polls * n) as u64);
            }
            // Every unit was folded, not just counted.
            let kwh = stored(&upd, &format!("slurm-{}", n - 1))[unit_cols::ENERGY_KWH]
                .as_real()
                .unwrap();
            assert!((kwh - 360.0 * 180.0 / 3.6e6).abs() < 1e-9, "kwh={kwh}");
            std::fs::remove_dir_all(dir).unwrap();
        }
        assert!(
            sent_by_n.iter().all(|(_, sent)| *sent == sent_by_n[0].1),
            "{sent_by_n:?}"
        );
    }

    #[test]
    fn incremental_fold_matches_one_shot_evaluation() {
        // Irregular poll times, none aligned with the 15 s scrape grid but
        // the last, which lands after the unit's end.
        let polls = [
            47_000, 131_000, 200_000, 463_000, 519_000, 790_000, 1_201_000, 1_260_000,
        ];
        let end_ms = 1_200_000;
        let varying = |t: i64| {
            let phase = (t as f64 / 200_000.0).sin();
            Load {
                cores: 4.0 + 2.0 * phase,
                mem: (8u64 << 30) as f64 * (1.0 + 0.5 * phase),
                gpu_pct: 50.0 + 30.0 * phase,
                watts: 300.0 + 100.0 * phase,
            }
        };
        let tsdb = Arc::new(Tsdb::default());
        append_unit(&tsdb, "slurm-1", 0, end_ms, varying);
        append_unit(&tsdb, "slurm-2", 0, end_ms, |_| STEADY);
        append_factor(&tsdb, 1_260_000, |_| 50.0);
        let units: Vec<UnitInfo> = ["slurm-1", "slurm-2"]
            .iter()
            .map(|uuid| UnitInfo {
                ngpus: 1,
                ..unit(uuid, "alice", 0, Some(end_ms))
            })
            .collect();
        let source = tsdb;
        let rm = ClockRm::new(units.clone());
        let dir = tmpdir("oneshot");
        let mut upd = open_updater(&dir, rm.clone(), source.clone());
        for now_ms in polls {
            poll_at(&mut upd, &rm, now_ms);
        }

        let folded = aggregates(&stored(&upd, "slurm-1"));
        let reference = one_shot(source.as_ref(), &units[0], 1_260_000);
        for (name, (got, want)) in ["cpu", "mem", "gpu", "kwh", "g"]
            .iter()
            .zip(folded.iter().zip(reference))
        {
            let (got, want) = (got.unwrap(), want.unwrap());
            assert!(
                (got - want).abs() <= 0.02 * want,
                "{name}: folded {got}, one-shot {want}"
            );
        }

        // Constant inputs: the fold loses nothing to the poll boundaries.
        let folded = aggregates(&stored(&upd, "slurm-2"));
        let reference = one_shot(source.as_ref(), &units[1], 1_260_000);
        for (got, want) in folded.iter().zip(reference) {
            let (got, want) = (got.unwrap(), want.unwrap());
            assert!(
                (got - want).abs() <= 1e-9 * want,
                "folded {got}, one-shot {want}"
            );
        }
        assert!((folded[3].unwrap() - 360.0 * 1200.0 / 3.6e6).abs() < 1e-12);
        std::fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn each_interval_is_priced_at_its_own_emission_factor() {
        let tsdb = Arc::new(Tsdb::default());
        append_unit(&tsdb, "slurm-1", 0, 600_000, |_| STEADY);
        append_factor(&tsdb, 600_000, |t| if t <= 300_000 { 50.0 } else { 100.0 });
        let rm = ClockRm::new(vec![unit("slurm-1", "alice", 0, Some(600_000))]);
        let dir = tmpdir("factor");
        let mut upd = open_updater(&dir, rm.clone(), tsdb);
        poll_at(&mut upd, &rm, 300_000);
        poll_at(&mut upd, &rm, 600_000);
        let row = stored(&upd, "slurm-1");
        // 360 W: 0.03 kWh at 50 g/kWh, then 0.03 kWh at 100 g/kWh.
        let kwh = row[unit_cols::ENERGY_KWH].as_real().unwrap();
        assert!((kwh - 0.06).abs() < 1e-9, "kwh={kwh}");
        let g = row[unit_cols::EMISSIONS_G].as_real().unwrap();
        assert!((g - 4.5).abs() < 1e-9, "g={g}");
        std::fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn repeated_polls_and_reports_fold_nothing_twice() {
        let tsdb = Arc::new(Tsdb::default());
        append_unit(&tsdb, "slurm-1", 0, 300_000, |_| STEADY);
        append_unit(&tsdb, "slurm-2", 0, 120_000, |_| STEADY);
        append_factor(&tsdb, 300_000, |_| 50.0);
        let rm = ClockRm::new(vec![
            unit("slurm-1", "alice", 0, None),
            unit("slurm-2", "alice", 0, Some(120_000)),
        ]);
        let dir = tmpdir("idem");
        let mut upd = open_updater(&dir, rm.clone(), tsdb);
        poll_at(&mut upd, &rm, 60_000);
        poll_at(&mut upd, &rm, 180_000);
        let running = stored(&upd, "slurm-1");
        let finished = stored(&upd, "slurm-2");
        let folds = upd.stats().units_folded;

        // The same instant again: nothing new to cover.
        poll_at(&mut upd, &rm, 180_000);
        assert_eq!(stored(&upd, "slurm-1"), running);
        assert_eq!(stored(&upd, "slurm-2"), finished);
        assert_eq!(upd.stats().units_folded, folds);

        // Later polls report the finished unit again; only `updated_at_ms`
        // of its row moves.
        poll_at(&mut upd, &rm, 240_000);
        let again = stored(&upd, "slurm-2");
        assert_eq!(
            again[..unit_cols::UPDATED_AT],
            finished[..unit_cols::UPDATED_AT]
        );
        assert_eq!(upd.stats().units_folded, folds + 1);
        let kwh = again[unit_cols::ENERGY_KWH].as_real().unwrap();
        assert!((kwh - 360.0 * 120.0 / 3.6e6).abs() < 1e-12, "kwh={kwh}");
        std::fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn restarted_updater_continues_from_the_rows() {
        let tsdb = Arc::new(Tsdb::default());
        let ramp = |t: i64| Load {
            watts: 200.0 + t as f64 / 3_000.0,
            ..STEADY
        };
        append_unit(&tsdb, "slurm-1", 0, 600_000, ramp);
        append_unit(&tsdb, "slurm-2", 100_000, 400_000, ramp);
        append_factor(&tsdb, 660_000, |t| 40.0 + t as f64 / 20_000.0);
        let units = vec![
            unit("slurm-1", "alice", 0, Some(600_000)),
            unit("slurm-2", "bob", 100_000, Some(400_000)),
        ];
        let source: Arc<dyn QuerySource> = tsdb;
        let polls = [60_000, 130_000, 250_000, 310_000, 455_000, 660_000];

        let run = |tag: &str, restart_before: Option<usize>| {
            let rm = ClockRm::new(units.clone());
            let dir = tmpdir(tag);
            let mut upd = open_updater(&dir, rm.clone(), source.clone());
            for (i, &now_ms) in polls.iter().enumerate() {
                if restart_before == Some(i) {
                    drop(upd);
                    upd = open_updater(&dir, rm.clone(), source.clone());
                }
                poll_at(&mut upd, &rm, now_ms);
            }
            let rows = upd.db().query(UNITS_TABLE, &Query::all()).unwrap();
            let usage = upd.db().query(USAGE_TABLE, &Query::all()).unwrap();
            std::fs::remove_dir_all(dir).unwrap();
            (rows, usage)
        };
        let uninterrupted = run("steady", None);
        assert!(uninterrupted.0[0][unit_cols::ENERGY_KWH].as_real().unwrap() > 0.0);
        // Restarts while both run, and after one of them ended unseen.
        assert_eq!(run("restart-a", Some(3)), uninterrupted);
        assert_eq!(run("restart-b", Some(5)), uninterrupted);
    }

    /// Answers as the TSDB it wraps unless it is down, as a TSDB that
    /// restarts or a write route with no leader answers.
    struct Flaky {
        inner: Arc<Tsdb>,
        down: AtomicBool,
    }

    impl QuerySource for Flaky {
        fn instant(
            &self,
            src: &str,
            expr: &ceems_tsdb::promql::Expr,
            t_ms: i64,
            lookback_ms: i64,
            plan: &mut PreparedQuery,
        ) -> Result<Vec<(LabelSet, f64)>, String> {
            if self.down.load(Ordering::SeqCst) {
                return Err("connection refused".into());
            }
            self.inner.instant(src, expr, t_ms, lookback_ms, plan)
        }

        fn delete_series(&self, matchers: &[LabelMatcher]) -> usize {
            if self.down.load(Ordering::SeqCst) {
                return 0;
            }
            self.inner.delete_series(matchers)
        }
    }

    /// Reports what changed since `since_ms`, as slurmdbd does: every unit
    /// not finished yet, and the finished ones that ended since.
    struct ChangedSince(Arc<ClockRm>);

    impl ResourceManagerClient for ChangedSince {
        fn name(&self) -> &'static str {
            "changed-since"
        }
        fn units_since(&self, since_ms: i64) -> Vec<UnitInfo> {
            let units = self.0.units_since(since_ms).into_iter();
            units
                .filter(|u| u.ended_at_ms.is_none_or(|end| end >= since_ms))
                .collect()
        }
    }

    /// One unit at 360 W from 0 s to `end_ms`, priced at 50 g/kWh, polled
    /// every 120 s up to 720 s; the polls at 240 s and 360 s find the TSDB
    /// down. Units shorter than 900 s are cleaned up. Returns the unit's
    /// billed kWh and grams and the updater's stats.
    fn billed_across_failed_polls(tag: &str, end_ms: i64) -> (f64, f64, UpdaterStats) {
        let tsdb = Arc::new(Tsdb::default());
        append_unit(&tsdb, "slurm-1", 0, end_ms, |_| STEADY);
        append_factor(&tsdb, 720_000, |_| 50.0);
        let source = Arc::new(Flaky {
            inner: tsdb,
            down: AtomicBool::new(false),
        });
        let clock = ClockRm::new(vec![unit("slurm-1", "alice", 0, Some(end_ms))]);
        let dir = tmpdir(tag);
        let mut upd = Updater::new(
            Db::open(&dir).unwrap(),
            Arc::new(ChangedSince(clock.clone())),
            source.clone(),
            Some(source.clone()),
            UpdaterConfig {
                cleanup_cutoff_s: 900.0,
                ..Default::default()
            },
        )
        .unwrap();
        for now_ms in (120_000..=720_000).step_by(120_000) {
            let down = now_ms == 240_000 || now_ms == 360_000;
            source.down.store(down, Ordering::SeqCst);
            poll_at(&mut upd, &clock, now_ms);
        }
        let [.., kwh, g] = aggregates(&stored(&upd, "slurm-1"));
        std::fs::remove_dir_all(dir).unwrap();
        (kwh.unwrap(), g.unwrap(), upd.stats())
    }

    fn assert_close(got: f64, want: f64) {
        assert!((got / want - 1.0).abs() < 1e-9, "got {got}, want {want}");
    }

    /// Two failed polls leave their four minutes to the next poll that is
    /// answered: the unit is billed its whole life. Moving the frontier
    /// on a failed poll billed 0.036 kWh and 1.8 g.
    #[test]
    fn failed_polls_leave_their_window_to_the_next() {
        let (kwh, g, stats) = billed_across_failed_polls("failed-polls", 600_000);
        assert_close(kwh, 0.06);
        assert_close(g, 3.0);
        assert_eq!(stats.units_purged, 1);
        assert_eq!(stats.failed_polls, 2);
    }

    /// A unit that ends between two failed polls is reported again and
    /// billed by the next poll that is answered, and only then are its
    /// series cleaned up.
    #[test]
    fn a_unit_ending_in_a_failed_window_is_billed_before_cleanup() {
        let (kwh, g, stats) = billed_across_failed_polls("ends-in-gap", 300_000);
        // 360 W for 300 s at 50 g/kWh.
        assert_close(kwh, 0.03);
        assert_close(g, 1.5);
        assert_eq!(stats.units_purged, 1);
        assert!(stats.series_deleted > 0);
    }

    /// A source that answers energy but no emission factor: the energy is
    /// billed, the interval unpriced, and each such interval counted; once
    /// the factor is there the intervals are priced and the count stays.
    #[test]
    fn an_interval_without_a_factor_is_counted_unpriced() {
        let tsdb = Arc::new(Tsdb::default());
        append_unit(&tsdb, "slurm-1", 0, 480_000, |_| STEADY);
        let rm = ClockRm::new(vec![unit("slurm-1", "alice", 0, None)]);
        let dir = tmpdir("unpriced");
        let mut upd = open_updater(&dir, rm.clone(), tsdb.clone());
        poll_at(&mut upd, &rm, 120_000);
        poll_at(&mut upd, &rm, 240_000);
        let [.., kwh, g] = aggregates(&stored(&upd, "slurm-1"));
        // 360 W for 240 s, and no grams at all.
        assert_close(kwh.unwrap(), 0.024);
        assert_eq!(g, None);
        assert_eq!(
            (upd.stats().unpriced_intervals, upd.stats().units_folded),
            (2, 2)
        );
        append_factor(&tsdb, 480_000, |_| 50.0);
        poll_at(&mut upd, &rm, 360_000);
        poll_at(&mut upd, &rm, 480_000);
        let [.., kwh, g] = aggregates(&stored(&upd, "slurm-1"));
        assert_close(kwh.unwrap(), 0.048);
        // Only the last 240 s were priced.
        assert_close(g.unwrap(), 0.024 * 50.0);
        assert_eq!(
            (upd.stats().unpriced_intervals, upd.stats().units_folded),
            (2, 4)
        );
        std::fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn unit_living_between_two_polls_gets_its_aggregates() {
        let tsdb = Arc::new(Tsdb::default());
        append_unit(&tsdb, "slurm-1", 0, 180_000, |_| STEADY);
        // Starts 5 s after one poll, ends 10 s before the next.
        append_unit(&tsdb, "slurm-2", 65_000, 110_000, |_| STEADY);
        append_factor(&tsdb, 180_000, |_| 50.0);
        let short = unit("slurm-2", "bob", 65_000, Some(110_000));
        let rm = ClockRm::new(vec![unit("slurm-1", "alice", 0, None), short.clone()]);
        let source = tsdb;
        let dir = tmpdir("between");
        let mut upd = open_updater(&dir, rm.clone(), source.clone());
        poll_at(&mut upd, &rm, 60_000);
        poll_at(&mut upd, &rm, 120_000);
        let row = stored(&upd, "slurm-2");
        assert_eq!(row[unit_cols::ELAPSED_S].as_real(), Some(45.0));
        let folded = aggregates(&row);
        let reference = one_shot(source.as_ref(), &short, 120_000);
        for (got, want) in folded.iter().zip(reference).take(2) {
            let (got, want) = (got.unwrap(), want.unwrap());
            assert!(
                (got - want).abs() <= 1e-9 * want,
                "folded {got}, one-shot {want}"
            );
        }
        let kwh = folded[3].unwrap();
        assert!((kwh - 360.0 * 45.0 / 3.6e6).abs() < 1e-12, "kwh={kwh}");
        assert!((folded[4].unwrap() - kwh * 50.0).abs() < 1e-12);
        std::fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn units_younger_than_thirty_seconds_wait_then_fold_from_their_start() {
        let tsdb = Arc::new(Tsdb::default());
        append_unit(&tsdb, "slurm-1", 40_000, 180_000, |_| STEADY);
        append_factor(&tsdb, 180_000, |_| 50.0);
        let rm = ClockRm::new(vec![unit("slurm-1", "alice", 40_000, None)]);
        let dir = tmpdir("young");
        let mut upd = open_updater(&dir, rm.clone(), tsdb);
        // 20 s old: a row, no aggregates, nothing folded.
        poll_at(&mut upd, &rm, 60_000);
        let row = stored(&upd, "slurm-1");
        assert_eq!(row[unit_cols::ELAPSED_S].as_real(), Some(20.0));
        assert_eq!(aggregates(&row), [None; 5]);
        assert_eq!(upd.stats().units_folded, 0);
        assert_eq!(upd.stats().tsdb_queries, 0);
        // 80 s old: the first fold reaches back to the start, not to the
        // poll that skipped it.
        poll_at(&mut upd, &rm, 120_000);
        let kwh = stored(&upd, "slurm-1")[unit_cols::ENERGY_KWH]
            .as_real()
            .unwrap();
        assert!((kwh - 360.0 * 80.0 / 3.6e6).abs() < 1e-12, "kwh={kwh}");
        std::fs::remove_dir_all(dir).unwrap();
    }

    /// A source that evaluates every query with a fresh plan, whatever plan
    /// the updater hands it: the one-shot reference for kept plans.
    struct FreshPlans(Arc<Tsdb>);

    impl QuerySource for FreshPlans {
        fn instant(
            &self,
            src: &str,
            expr: &ceems_tsdb::promql::Expr,
            t_ms: i64,
            lookback_ms: i64,
            _plan: &mut PreparedQuery,
        ) -> Result<Vec<(LabelSet, f64)>, String> {
            self.0
                .instant(src, expr, t_ms, lookback_ms, &mut PreparedQuery::default())
        }

        fn delete_series(&self, matchers: &[LabelMatcher]) -> usize {
            self.0.delete_series(matchers)
        }
    }

    /// Under churn — units pending, starting, ending, and short ones purged
    /// from the TSDB, which invalidates every plan's reads — an updater
    /// that keeps its plans from poll to poll writes what one evaluating
    /// every query afresh writes: the same rows and the same WAL bytes.
    #[test]
    fn kept_plans_write_what_fresh_plans_write() {
        // Unit i: submitted every 20 s, pending up to 90 s, running 45 s
        // (purged: under the 60 s cutoff) to 15 min.
        let units: Vec<UnitInfo> = (0..40i64)
            .map(|i| {
                let submitted = 20_000 * i;
                let start = submitted + 30_000 * (i % 4);
                let run = if i % 5 == 0 {
                    45_000
                } else {
                    120_000 + 37_000 * (i % 23)
                };
                UnitInfo {
                    submitted_at_ms: submitted,
                    ngpus: usize::from(i % 3 == 0),
                    ..unit(
                        &format!("slurm-{i}"),
                        ["alice", "bob"][i as usize % 2],
                        start,
                        Some(start + run),
                    )
                }
            })
            .collect();
        // Scrapes every 15 s up to `to_ms`, from where the last call left off.
        let scrape = |db: &Tsdb, from_ms: i64, to_ms: i64| {
            let first = (from_ms / 15_000 + 1) * 15_000;
            for t in (first..=to_ms).step_by(15_000) {
                for (i, u) in units.iter().enumerate() {
                    let (start, end) = (u.started_at_ms.unwrap(), u.ended_at_ms.unwrap());
                    if t < start || t > end {
                        continue;
                    }
                    let ran_s = (t - start) as f64 / 1000.0;
                    let cores = 2.0 + (i % 7) as f64;
                    let watts = 150.0 + 10.0 * i as f64 + (t as f64 / 50_000.0).sin() * 40.0;
                    for (name, v) in [
                        (
                            "ceems_compute_unit_cpu_user_seconds_total",
                            cores * ran_s * 0.9,
                        ),
                        (
                            "ceems_compute_unit_cpu_system_seconds_total",
                            cores * ran_s * 0.1,
                        ),
                        (
                            "ceems_compute_unit_memory_used_bytes",
                            1e9 * (1 + i % 5) as f64,
                        ),
                        ("uuid:ceems_power:watts", watts),
                    ] {
                        db.append(
                            &labels! {"__name__" => name, "uuid" => u.uuid.as_str(), "instance" => "n1"},
                            t,
                            v,
                        );
                    }
                    if u.ngpus > 0 {
                        db.append(
                            &labels! {"__name__" => "uuid:ceems_gpu_util:pct", "uuid" => u.uuid.as_str(), "gpu" => "0"},
                            t,
                            30.0 + (i % 50) as f64,
                        );
                    }
                }
                db.append(
                    &labels! {"__name__" => "ceems_emissions_gCo2_kWh", "provider" => "rte"},
                    t,
                    40.0 + (t / 60_000 % 7) as f64,
                );
            }
        };
        let run = |tag: &str, kept: bool| {
            let tsdb = Arc::new(Tsdb::default());
            let source: Arc<dyn QuerySource> = match kept {
                true => tsdb.clone(),
                false => Arc::new(FreshPlans(tsdb.clone())),
            };
            let rm = ClockRm::new(units.clone());
            let dir = tmpdir(tag);
            let mut upd = Updater::new(
                Db::open(&dir).unwrap(),
                rm.clone(),
                source,
                Some(Arc::new(tsdb.clone())),
                UpdaterConfig {
                    cleanup_cutoff_s: 60.0,
                    ..Default::default()
                },
            )
            .unwrap();
            let mut last = 0;
            // Irregular polls, off the scrape grid, across the whole churn.
            for k in 1..=32i64 {
                let now_ms = 60_000 * k + 7_000 * (k % 3);
                scrape(&tsdb, last, now_ms);
                last = now_ms;
                poll_at(&mut upd, &rm, now_ms);
            }
            let rows = upd.db().query(UNITS_TABLE, &Query::all()).unwrap();
            let usage = upd.db().query(USAGE_TABLE, &Query::all()).unwrap();
            let wal: Vec<Vec<u8>> = ceems_relstore::log::list_segments(&dir.join("wal"))
                .unwrap()
                .into_iter()
                .map(|(_, path)| std::fs::read(path).unwrap())
                .collect();
            let stats = upd.stats();
            std::fs::remove_dir_all(dir).unwrap();
            (bits(&rows), bits(&usage), wal, stats)
        };
        let kept = run("kept-plans", true);
        let fresh = run("fresh-plans", false);
        let stats = kept.3;
        assert!(
            stats.units_purged >= 5 && stats.series_deleted > 0,
            "{stats:?}"
        );
        assert!(stats.units_folded > 200, "{stats:?}");
        assert_eq!(kept.3, fresh.3);
        assert_eq!(kept.0, fresh.0);
        assert_eq!(kept.1, fresh.1);
        assert!(kept.2.iter().map(Vec::len).sum::<usize>() > 0);
        assert!(kept.2 == fresh.2, "the WAL bytes differ");
        // Every unit got its aggregates, purged ones included.
        let energy = kept
            .0
            .iter()
            .filter(|r| !r[unit_cols::ENERGY_KWH].contains("Null"));
        assert_eq!(energy.count(), units.len());
    }

    /// `Value` equality is numeric; reals are compared by their bits.
    fn bits(rows: &[Vec<Value>]) -> Vec<Vec<String>> {
        rows.iter()
            .map(|r| {
                r.iter()
                    .map(|v| match v {
                        Value::Real(x) => format!("real:{:016x}", x.to_bits()),
                        v => format!("{v:?}"),
                    })
                    .collect()
            })
            .collect()
    }

    mod rollups {
        use super::*;
        use proptest::prelude::*;

        const USERS: [&str; 3] = ["alice", "bob", "carol"];
        const PROJECTS: [&str; 3] = ["p1", "p2", "p3"];
        /// Every row of this group has NULL energy and emissions.
        const NULL_GROUP: (&str, &str) = ("nul", "none");

        /// A row written straight into the units table between polls.
        #[derive(Clone, Debug)]
        struct Written {
            slot: usize,
            group: (usize, usize),
            elapsed_s: f64,
            ncpus: i64,
            ngpus: i64,
            energy_kwh: Option<f64>,
            emissions_g: Option<f64>,
        }

        fn group(g: (usize, usize)) -> (&'static str, &'static str) {
            USERS
                .get(g.0)
                .map(|u| (*u, PROJECTS[g.1]))
                .unwrap_or(NULL_GROUP)
        }

        fn written() -> impl Strategy<Value = Written> {
            let real = || prop_oneof![Just(0.0), 1e-6..1e-2f64, 0.1..1e4f64];
            (
                0usize..12,
                (0usize..4, 0usize..3),
                (0.0..1e5f64, 0i64..128, 0i64..8),
                proptest::option::of(real()),
                proptest::option::of(real()),
            )
                .prop_map(|(slot, group, (elapsed_s, ncpus, ngpus), e, g)| Written {
                    slot,
                    group,
                    elapsed_s,
                    ncpus,
                    ngpus,
                    energy_kwh: e,
                    emissions_g: g,
                })
        }

        fn write(db: &mut Db, w: &Written, now_ms: i64) {
            let (user, project) = group(w.group);
            let nullify = (user, project) == NULL_GROUP;
            let mut row = vec![Value::Null; unit_cols::COUNT];
            row[unit_cols::UUID] = format!("row-{}", w.slot).into();
            row[unit_cols::RESOURCE_MANAGER] = "test".into();
            row[unit_cols::USER] = user.into();
            row[unit_cols::PROJECT] = project.into();
            row[unit_cols::PARTITION] = "cpu".into();
            row[unit_cols::STATE] = "COMPLETED".into();
            row[unit_cols::SUBMITTED_AT] = Value::Int(0);
            row[unit_cols::ELAPSED_S] = Value::Real(w.elapsed_s);
            row[unit_cols::NNODES] = Value::Int(1);
            row[unit_cols::NCPUS] = Value::Int(w.ncpus);
            row[unit_cols::NGPUS] = Value::Int(w.ngpus);
            if !nullify {
                row[unit_cols::ENERGY_KWH] = w.energy_kwh.map_or(Value::Null, Value::Real);
                row[unit_cols::EMISSIONS_G] = w.emissions_g.map_or(Value::Null, Value::Real);
            }
            row[unit_cols::UPDATED_AT] = Value::Int(now_ms);
            db.upsert(UNITS_TABLE, row).unwrap();
        }

        /// The usage rows as the generic group-by plus one indexed re-query
        /// per group computed them: a per-group filter over primary-key
        /// ordered rows, energy and emissions summed with `Iterator::sum`.
        fn reference(db: &Db, now_ms: i64) -> Vec<Vec<Value>> {
            let units: Vec<&Vec<Value>> = db.table(UNITS_TABLE).unwrap().scan().collect();
            let groups: BTreeSet<(&str, &str)> = units
                .iter()
                .map(|u| {
                    (
                        u[unit_cols::USER].as_text().unwrap(),
                        u[unit_cols::PROJECT].as_text().unwrap(),
                    )
                })
                .collect();
            let mut out = Vec::new();
            for (user, project) in groups {
                let rows: Vec<&&Vec<Value>> = units
                    .iter()
                    .filter(|u| {
                        u[unit_cols::USER].as_text() == Some(user)
                            && u[unit_cols::PROJECT].as_text() == Some(project)
                    })
                    .collect();
                let sum =
                    |col: usize| -> f64 { rows.iter().filter_map(|u| u[col].as_real()).sum() };
                let (mut cpu_hours, mut gpu_hours) = (0.0, 0.0);
                for u in &rows {
                    let elapsed_h = u[unit_cols::ELAPSED_S].as_real().unwrap_or(0.0) / 3600.0;
                    cpu_hours += elapsed_h * u[unit_cols::NCPUS].as_real().unwrap_or(0.0);
                    gpu_hours += elapsed_h * u[unit_cols::NGPUS].as_real().unwrap_or(0.0);
                }
                out.push(vec![
                    format!("{user}|{project}").into(),
                    user.into(),
                    project.into(),
                    Value::Int(rows.len() as i64),
                    Value::Real(cpu_hours),
                    Value::Real(gpu_hours),
                    Value::Real(sum(unit_cols::ENERGY_KWH)),
                    Value::Real(sum(unit_cols::EMISSIONS_G)),
                    Value::Int(now_ms),
                ]);
            }
            out
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(32))]

            #[test]
            fn usage_rows_match_the_group_by_reference(
                jobs in proptest::collection::vec(
                    (0usize..3, 0usize..3, 0i64..600_000, 0i64..600_000, 1usize..64, 0usize..4),
                    0..10,
                ),
                polls in proptest::collection::vec(
                    (1i64..120_000, proptest::collection::vec(written(), 0..6)),
                    1..6,
                ),
            ) {
                let units: Vec<UnitInfo> = jobs
                    .iter()
                    .enumerate()
                    .map(|(i, &(u, p, start, run, ncpus, ngpus))| UnitInfo {
                        project: PROJECTS[p].into(),
                        ncpus,
                        ngpus,
                        ..unit(&format!("slurm-{i}"), USERS[u], start + 1000, Some(start + 1000 + run))
                    })
                    .collect();
                let rm = ClockRm::new(units);
                let dir = tmpdir("rollup-props");
                let mut upd = open_updater(
                    &dir,
                    rm.clone(),
                    Arc::new(Tsdb::default()),
                );
                // Usage rows are upserted, never deleted: a group whose units
                // all moved away keeps its last rollup.
                let mut expected = BTreeMap::new();
                let mut now_ms = 0;
                for (step, writes) in &polls {
                    now_ms += step;
                    for w in writes {
                        write(upd.db_mut(), w, now_ms);
                    }
                    poll_at(&mut upd, &rm, now_ms);
                    // A row that would change only its stamp stays as it was.
                    for row in reference(upd.db(), now_ms) {
                        let key = row[usage_cols::KEY].clone();
                        let unstamped =
                            |r: &Vec<Value>| bits(&[r[..usage_cols::UPDATED_AT].to_vec()]);
                        let kept = expected.get(&key);
                        if kept.is_none_or(|kept| unstamped(kept) != unstamped(&row)) {
                            expected.insert(key, row);
                        }
                    }
                    let expected: Vec<Vec<Value>> = expected.values().cloned().collect();
                    let usage = upd.db().query(USAGE_TABLE, &Query::all()).unwrap();
                    prop_assert_eq!(bits(&usage), bits(&expected));
                }
                std::fs::remove_dir_all(dir).unwrap();
            }
        }

        #[test]
        fn an_all_null_group_stores_negative_zero() {
            let rm = ClockRm::new(Vec::new());
            let dir = tmpdir("rollup-null");
            let mut upd = open_updater(&dir, rm.clone(), Arc::new(Tsdb::default()));
            let w = Written {
                slot: 0,
                group: (USERS.len(), 0),
                elapsed_s: 3600.0,
                ncpus: 4,
                ngpus: 0,
                energy_kwh: None,
                emissions_g: None,
            };
            write(upd.db_mut(), &w, 0);
            poll_at(&mut upd, &rm, 1000);
            let row = upd
                .db()
                .get(USAGE_TABLE, &"nul|none".into())
                .unwrap()
                .unwrap();
            assert_eq!(
                row[usage_cols::ENERGY_KWH].as_real().map(f64::to_bits),
                Some((-0.0f64).to_bits())
            );
            assert_eq!(
                row[usage_cols::EMISSIONS_G].as_real().map(f64::to_bits),
                Some((-0.0f64).to_bits())
            );
            assert_eq!(row[usage_cols::CPU_HOURS].as_real(), Some(4.0));
            std::fs::remove_dir_all(dir).unwrap();
        }
    }
}
