//! The long-term record (the API server's aggregates) and continuous
//! backup (Litestream role) integrated with live stack data — the
//! right-hand side of Fig. 1.

use ceems::apiserver::schema::{unit_cols, usage_cols, UNITS_TABLE, USAGE_TABLE};
use ceems::metrics::matcher::LabelMatcher;
use ceems::prelude::*;
use ceems::relstore::backup::{restore, Replicator};
use ceems::relstore::Value;

fn tmpdir(tag: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!(
        "ceems-it-{tag}-{}-{}",
        std::process::id(),
        std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .unwrap()
            .as_nanos()
    ))
}

/// A row with its reals as bits: `Value` equality is numeric.
fn bits(row: &[Value]) -> Vec<String> {
    row.iter()
        .map(|v| match v {
            Value::Real(x) => format!("real:{:016x}", x.to_bits()),
            v => format!("{v:?}"),
        })
        .collect()
}

/// The stack keeps no cold copy of the TSDB: a finished job's `units` row
/// and its user's `usage` row are the long-term record (§II.B.b). Once the
/// updater has folded the job's whole life, deleting its raw series — what
/// retention does to an old job — changes neither row.
#[test]
fn aggregates_outlive_the_raw_series() {
    let mut stack = CeemsStack::build_default();
    let id = stack
        .submit(JobRequest {
            user: "archivist".into(),
            account: "records".into(),
            partition: "cpu-intel".into(),
            nodes: 1,
            cores_per_node: 8,
            memory_per_node: 16 << 30,
            gpus_per_node: 0,
            walltime_s: 1200,
            workload: WorkloadProfile::CpuBound { intensity: 0.8 },
        })
        .unwrap();
    let uuid = format!("slurm-{id}");
    let interval_s = stack.config().updater_interval_s;
    let get = |stack: &CeemsStack, table: &str, key: &str| {
        stack.updater.lock().db().get(table, &key.into()).unwrap()
    };

    // Run until the job is over and the updater has polled three times past
    // its end: the poll overlap can report a finished job twice, not thrice.
    let interval_ms = (interval_s * 1000.0) as i64;
    let unit = loop {
        stack.run_for(interval_s, 15.0);
        let now = stack.clock.now_ms();
        assert!(now < 3 * 3_600_000, "{uuid} never finished");
        if let Some(row) = get(&stack, UNITS_TABLE, &uuid) {
            if row[unit_cols::ENDED_AT]
                .as_int()
                .is_some_and(|end| now > end + 3 * interval_ms)
            {
                break row;
            }
        }
    };
    let usage_key = "archivist|records";
    let usage = get(&stack, USAGE_TABLE, usage_key).expect("usage row");
    assert!(
        unit[unit_cols::ENERGY_KWH].as_real() > Some(0.0),
        "{unit:?}"
    );
    assert!(
        unit[unit_cols::EMISSIONS_G].as_real() > Some(0.0),
        "{unit:?}"
    );
    assert_eq!(usage[usage_cols::NUM_UNITS].as_int(), Some(1));

    let uuid_series = [LabelMatcher::eq("uuid", &uuid)];
    assert!(stack.tsdb.delete_series(&uuid_series) > 0);
    assert!(stack.tsdb.select_latest(&uuid_series).is_empty());

    let polls = stack.stats().updater_polls;
    stack.run_for(5.0 * interval_s, 15.0);
    assert!(stack.stats().updater_polls >= polls + 5);

    let unit_after = get(&stack, UNITS_TABLE, &uuid).expect("units row");
    assert_eq!(bits(&unit_after), bits(&unit));
    // Every poll rewrites the usage rollups and stamps them; the stamp
    // moves, the rollup is recomputed from the units rows alone.
    let usage_after = get(&stack, USAGE_TABLE, usage_key).expect("usage row");
    assert!(usage_after[usage_cols::UPDATED_AT].as_int() > usage[usage_cols::UPDATED_AT].as_int());
    assert_eq!(
        bits(&usage_after[..usage_cols::UPDATED_AT]),
        bits(&usage[..usage_cols::UPDATED_AT])
    );
    assert!(stack.tsdb.select_latest(&uuid_series).is_empty());
}

#[test]
fn api_db_continuous_backup_survives_crash() {
    let db_dir = tmpdir("db");
    let bk_dir = tmpdir("bk");
    let rs_dir = tmpdir("rs");

    let cfg = CeemsConfig {
        churn: Some(ChurnSettings {
            users: 6,
            projects: 2,
            arrivals_per_hour: 240.0,
        }),
        ..CeemsConfig::default()
    };
    let mut stack = CeemsStack::build(cfg, &db_dir).unwrap();
    let mut replicator = Replicator::new(&db_dir, &bk_dir).unwrap();

    // Run with periodic replication, like the litestream sidecar. Halfway
    // the database compacts its log: the generation goes on over the
    // snapshot's segment and keeps the segments the database deleted.
    let first_segment = || {
        let segments = ceems::relstore::log::list_segments(&db_dir.join("wal")).unwrap();
        segments[0].0
    };
    for round in 0..6 {
        stack.run_for(300.0, 15.0);
        if round == 3 {
            stack.updater.lock().db_mut().snapshot().unwrap();
            assert!(first_segment() > 0, "the compaction deleted segments");
        }
        replicator.sync().unwrap();
    }
    let all_units = |db: &ceems::relstore::Db| {
        let rows = db.query(UNITS_TABLE, &ceems::relstore::Query::all()).unwrap();
        rows.iter().map(|r| bits(r)).collect::<Vec<_>>()
    };
    let live_units = all_units(stack.updater.lock().db());
    assert!(live_units.len() > 5, "only {} units", live_units.len());

    // "Crash": drop the stack, restore from the backup alone.
    drop(stack);
    let restored = restore(&bk_dir, &rs_dir).unwrap();
    assert_eq!(all_units(&restored), live_units);

    // Ownership checks still work on the restored database.
    let some_row = restored
        .query(
            ceems::apiserver::schema::UNITS_TABLE,
            &ceems::relstore::Query::all().limit(1),
        )
        .unwrap();
    let user = some_row[0][ceems::apiserver::schema::unit_cols::USER]
        .as_text()
        .unwrap()
        .to_string();
    let uuid = some_row[0][ceems::apiserver::schema::unit_cols::UUID]
        .as_text()
        .unwrap()
        .to_string();
    assert!(ceems::apiserver::updater::verify_ownership_in_db(
        &restored, &user, &uuid
    ));
    assert!(!ceems::apiserver::updater::verify_ownership_in_db(
        &restored,
        "intruder",
        &uuid
    ));

    for d in [db_dir, bk_dir, rs_dir] {
        std::fs::remove_dir_all(d).ok();
    }
}

#[test]
fn cardinality_cleanup_reduces_series() {
    // E10: short jobs create series churn; the updater purges them.
    let db_dir = tmpdir("card");
    let cfg = CeemsConfig {
        cleanup_cutoff_s: 600.0, // purge anything shorter than 10 min
        churn: Some(ChurnSettings {
            users: 8,
            projects: 2,
            arrivals_per_hour: 600.0,
        }),
        ..CeemsConfig::default()
    };
    let mut stack = CeemsStack::build(cfg, &db_dir).unwrap();
    stack.run_for(3600.0, 15.0);

    let purged = stack.updater.lock().stats().units_purged;
    let deleted = stack.updater.lock().stats().series_deleted;
    assert!(purged > 0, "no short units purged");
    assert!(deleted >= purged, "deleted {deleted} < purged {purged}");

    // Purged units have no uuid-labelled series left in the TSDB.
    let upd = stack.updater.lock();
    let rows = upd
        .db()
        .query(
            ceems::apiserver::schema::UNITS_TABLE,
            &ceems::relstore::Query::all(),
        )
        .unwrap();
    drop(upd);
    let mut checked = 0;
    for r in &rows {
        let elapsed = r[ceems::apiserver::schema::unit_cols::ELAPSED_S]
            .as_real()
            .unwrap_or(0.0);
        let state = r[ceems::apiserver::schema::unit_cols::STATE]
            .as_text()
            .unwrap_or("");
        let uuid = r[ceems::apiserver::schema::unit_cols::UUID]
            .as_text()
            .unwrap();
        let terminal = matches!(state, "COMPLETED" | "FAILED" | "CANCELLED" | "TIMEOUT");
        if terminal && elapsed < 600.0 && elapsed > 0.0 {
            let series = stack
                .tsdb
                .select_latest(&[LabelMatcher::eq("uuid", uuid)]);
            assert!(series.is_empty(), "{uuid} ({elapsed}s) still has series");
            checked += 1;
        }
    }
    assert!(checked > 0, "no purged unit verified");
    std::fs::remove_dir_all(db_dir).ok();
}
