//! Model-based property tests: the relational store (with its log,
//! recovery and indices) must behave exactly like a plain `BTreeMap` under
//! any sequence of upserts and deletes — including after a crash-and-recover
//! at any point a disk can fail.

use std::collections::BTreeMap;
use std::sync::Arc;

use ceems_relstore::log::ScriptedDiskFaults;
use ceems_relstore::{Column, ColumnType, Db, Filter, Query, Schema, Value};
use proptest::prelude::*;

#[derive(Clone, Debug)]
enum Op {
    Upsert {
        key: u8,
        payload: i64,
        user: u8,
        energy: f64,
    },
    Delete {
        key: u8,
    },
    /// Compact the log now (`Db::snapshot`).
    Snapshot,
    Reopen,
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        6 => (any::<u8>(), any::<i64>(), 0u8..4, real()).prop_map(|(key, payload, user, energy)| {
            Op::Upsert { key, payload, user, energy }
        }),
        2 => any::<u8>().prop_map(|key| Op::Delete { key }),
        1 => Just(Op::Snapshot),
        1 => Just(Op::Reopen),
    ]
}

/// Reals a reopen must give back bit for bit: the infinities and NaNs
/// JSON has no number for among them.
fn real() -> impl Strategy<Value = f64> {
    prop_oneof![
        Just(f64::INFINITY),
        Just(f64::NEG_INFINITY),
        Just(f64::NAN),
        Just(-f64::NAN),
        Just(f64::from_bits(0x7ff0_0000_0000_0001)),
        Just(-0.0),
        proptest::num::f64::ANY,
    ]
}

fn schema() -> Schema {
    Schema::new(
        vec![
            Column::required("key", ColumnType::Int),
            Column::required("payload", ColumnType::Int),
            Column::required("user", ColumnType::Text),
            Column::nullable("energy", ColumnType::Real),
        ],
        "key",
        &["user"],
    )
    .unwrap()
}

fn tmpdir(seed: u64) -> std::path::PathBuf {
    std::env::temp_dir().join(format!(
        "ceems-relprop-{}-{}-{}",
        std::process::id(),
        seed,
        std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .unwrap()
            .as_nanos()
    ))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn store_matches_model(ops in proptest::collection::vec(arb_op(), 1..60), seed in any::<u64>()) {
        let dir = tmpdir(seed);
        let mut db = Db::open(&dir).unwrap();
        db.create_table("t", schema()).unwrap();
        let mut model: BTreeMap<i64, (i64, String, u64)> = BTreeMap::new();

        for op in &ops {
            match op {
                Op::Upsert { key, payload, user, energy } => {
                    let user = format!("user{user}");
                    db.upsert(
                        "t",
                        vec![
                            Value::Int(*key as i64),
                            Value::Int(*payload),
                            user.clone().into(),
                            Value::Real(*energy),
                        ],
                    )
                    .unwrap();
                    model.insert(*key as i64, (*payload, user, energy.to_bits()));
                }
                Op::Delete { key } => {
                    let existed_db = db.delete("t", &Value::Int(*key as i64)).unwrap();
                    let existed_model = model.remove(&(*key as i64)).is_some();
                    prop_assert_eq!(existed_db, existed_model);
                }
                Op::Snapshot => db.snapshot().unwrap(),
                Op::Reopen => {
                    drop(db);
                    db = Db::open(&dir).unwrap();
                }
            }

            // Full-state equivalence after every op.
            let rows = db.query("t", &Query::all()).unwrap();
            prop_assert_eq!(rows.len(), model.len());
            for row in &rows {
                let k = row[0].as_int().unwrap();
                let (payload, user, energy) = model.get(&k).expect("row not in model");
                prop_assert_eq!(row[1].as_int().unwrap(), *payload);
                prop_assert_eq!(row[2].as_text().unwrap(), user.as_str());
                prop_assert_eq!(row[3].as_real().unwrap().to_bits(), *energy);
            }
        }

        // Secondary-index queries agree with a model scan.
        for user_id in 0u8..4 {
            let user = format!("user{user_id}");
            let via_index = db
                .query(
                    "t",
                    &Query::all().filter(Filter::Eq("user".into(), user.as_str().into())),
                )
                .unwrap();
            let via_model = model.values().filter(|(_, u, _)| *u == user).count();
            prop_assert_eq!(via_index.len(), via_model, "user {}", user);
        }

        // Final recovery check: everything survives a reopen.
        drop(db);
        let db = Db::open(&dir).unwrap();
        prop_assert_eq!(db.table("t").unwrap().len(), model.len());

        std::fs::remove_dir_all(dir).ok();
    }
}

/// Write system calls this thread has made, where the kernel reports them.
fn thread_writes() -> Option<u64> {
    let io = std::fs::read_to_string("/proc/thread-self/io").ok()?;
    let line = io.lines().find(|l| l.starts_with("syscw:"))?;
    line["syscw:".len()..].trim().parse().ok()
}

type Model = BTreeMap<i64, (i64, String)>;

/// The table `t` as the model holds it.
fn held(db: &Db) -> Model {
    let rows = db.query("t", &Query::all()).unwrap();
    rows.iter()
        .map(|r| {
            let user = r[2].as_text().unwrap().to_string();
            (r[0].as_int().unwrap(), (r[1].as_int().unwrap(), user))
        })
        .collect()
}

/// Upserts `(key, payload, user)` and deletes of keys, as `Db::commit`
/// takes them.
type CommitOps = (Vec<(u8, i64, u8)>, Vec<u8>);

fn commit(db: &mut Db, (upserts, deletes): &CommitOps) -> Result<(), ceems_relstore::DbError> {
    let rows = upserts.iter().map(|(k, payload, user)| {
        let row = vec![
            Value::Int(*k as i64),
            Value::Int(*payload),
            format!("user{user}").into(),
            Value::Null,
        ];
        ("t", row)
    });
    let keys = deletes.iter().map(|k| ("t", Value::Int(*k as i64)));
    db.commit(rows, keys)
}

/// `model` after the commit: its deletes, then its upserts.
fn committed(model: &Model, (upserts, deletes): &CommitOps) -> Model {
    let mut model = model.clone();
    for k in deletes {
        model.remove(&(*k as i64));
    }
    for (k, payload, user) in upserts {
        model.insert(*k as i64, (*payload, format!("user{user}")));
    }
    model
}

fn wal_bytes(dir: &std::path::Path) -> u64 {
    let segments = std::fs::read_dir(dir.join("wal")).unwrap();
    segments.map(|e| e.unwrap().metadata().unwrap().len()).sum()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// A commit mixing upserts and deletes is one `write` (none when it
    /// changes nothing: a delete of an absent key logs nothing), leaves the
    /// tables a model applying its deletes then its upserts would, and
    /// replays to the same tables after a reopen.
    #[test]
    fn a_mixed_commit_is_one_write_and_replays_to_the_same_tables(
        commits in proptest::collection::vec(
            (
                proptest::collection::vec((0u8..16, any::<i64>(), 0u8..4), 0..6),
                proptest::collection::vec(0u8..16, 0..6),
            ),
            1..20,
        ),
        seed in any::<u64>(),
    ) {
        let dir = tmpdir(seed);
        let mut db = Db::open(&dir).unwrap();
        db.create_table("t", schema()).unwrap();
        let mut model = Model::new();

        for ops in &commits {
            let (upserts, deletes) = ops;
            let logs = !upserts.is_empty()
                || deletes.iter().any(|k| model.contains_key(&(*k as i64)));
            model = committed(&model, ops);

            let (bytes, writes) = (wal_bytes(&dir), thread_writes());
            commit(&mut db, ops).unwrap();
            if let (Some(before), Some(after)) = (writes, thread_writes()) {
                prop_assert_eq!(after - before, u64::from(logs));
            }
            prop_assert_eq!(wal_bytes(&dir) > bytes, logs);

            prop_assert_eq!(held(&db), model.clone());
            drop(db);
            db = Db::open(&dir).unwrap();
            prop_assert_eq!(held(&db), model.clone());
        }
        std::fs::remove_dir_all(dir).ok();
    }
}

/// A disk failure injected under one commit.
#[derive(Clone, Debug)]
enum Fault {
    /// Part of the commit is written, then `EIO`; the writer cuts it back.
    ShortWrite(f64),
    /// The write lands, its `fsync` fails.
    FsyncEio,
    /// Part of the commit is written and the process dies before it can
    /// cut the tail.
    TornTail(f64),
}

fn arb_fault() -> impl Strategy<Value = Fault> {
    prop_oneof![
        (0.0..1.0f64).prop_map(Fault::ShortWrite),
        Just(Fault::FsyncEio),
        (0.0..1.0f64).prop_map(Fault::TornTail),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Under `fsync = always` (what `Db::open` uses), a fault under one
    /// commit fails that commit alone: it is visible nowhere, not even in
    /// part (in memory, after the crash a torn tail stands for, after a
    /// reopen), and every commit that returned `Ok`, before it or after,
    /// survives the reopen.
    #[test]
    fn every_acknowledged_commit_survives_a_crash_and_no_partial_one_shows(
        commits in proptest::collection::vec(
            (
                proptest::collection::vec((0u8..16, any::<i64>(), 0u8..4), 1..6),
                proptest::collection::vec(0u8..16, 0..4),
            ),
            1..12,
        ),
        crash_at in any::<usize>(),
        fault in arb_fault(),
        seed in any::<u64>(),
    ) {
        let dir = tmpdir(seed);
        let mut db = Db::open(&dir).unwrap();
        db.create_table("t", schema()).unwrap();
        let mut model = Model::new();
        let crash_at = crash_at % commits.len();

        for (i, ops) in commits.iter().enumerate() {
            if i == crash_at {
                let faults = match fault {
                    Fault::ShortWrite(keep) => ScriptedDiskFaults::new().with_short_write(0, keep),
                    Fault::FsyncEio => ScriptedDiskFaults::new().with_fsync_failures(1),
                    Fault::TornTail(keep) => ScriptedDiskFaults::new()
                        .with_short_write(0, keep)
                        .leaving_torn_tails(),
                };
                db.set_disk_faults(Arc::new(faults));
                prop_assert!(commit(&mut db, ops).is_err());
                prop_assert_eq!(held(&db), model.clone());
                if matches!(fault, Fault::TornTail(_)) {
                    drop(db);
                    db = Db::open(&dir).unwrap();
                    prop_assert_eq!(held(&db), model.clone());
                }
            } else {
                commit(&mut db, ops).unwrap();
                model = committed(&model, ops);
            }
        }
        drop(db);
        let db = Db::open(&dir).unwrap();
        prop_assert_eq!(held(&db), model);
        std::fs::remove_dir_all(dir).ok();
    }
}
