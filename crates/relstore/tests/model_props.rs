//! Model-based property tests: the relational store (with WAL, recovery
//! and indices) must behave exactly like a plain `BTreeMap` under any
//! sequence of upserts and deletes — including after a crash-and-recover.

use std::collections::BTreeMap;

use ceems_relstore::{Column, ColumnType, Db, Filter, Query, Schema, Value};
use proptest::prelude::*;

#[derive(Clone, Debug)]
enum Op {
    Upsert { key: u8, payload: i64, user: u8 },
    Delete { key: u8 },
    Snapshot,
    Reopen,
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        6 => (any::<u8>(), any::<i64>(), 0u8..4).prop_map(|(key, payload, user)| Op::Upsert {
            key,
            payload,
            user
        }),
        2 => any::<u8>().prop_map(|key| Op::Delete { key }),
        1 => Just(Op::Snapshot),
        1 => Just(Op::Reopen),
    ]
}

fn schema() -> Schema {
    Schema::new(
        vec![
            Column::required("key", ColumnType::Int),
            Column::required("payload", ColumnType::Int),
            Column::required("user", ColumnType::Text),
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
        let mut model: BTreeMap<i64, (i64, String)> = BTreeMap::new();

        for op in &ops {
            match op {
                Op::Upsert { key, payload, user } => {
                    let user = format!("user{user}");
                    db.upsert(
                        "t",
                        vec![
                            Value::Int(*key as i64),
                            Value::Int(*payload),
                            user.clone().into(),
                        ],
                    )
                    .unwrap();
                    model.insert(*key as i64, (*payload, user));
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
                let (payload, user) = model.get(&k).expect("row not in model");
                prop_assert_eq!(row[1].as_int().unwrap(), *payload);
                prop_assert_eq!(row[2].as_text().unwrap(), user.as_str());
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
            let via_model = model.values().filter(|(_, u)| *u == user).count();
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
        let mut model: BTreeMap<i64, (i64, String)> = BTreeMap::new();

        for (upserts, deletes) in &commits {
            let logs = !upserts.is_empty()
                || deletes.iter().any(|k| model.contains_key(&(*k as i64)));
            for k in deletes {
                model.remove(&(*k as i64));
            }
            for (k, payload, user) in upserts {
                model.insert(*k as i64, (*payload, format!("user{user}")));
            }
            let rows = upserts.iter().map(|(k, payload, user)| {
                let row = vec![Value::Int(*k as i64), Value::Int(*payload), format!("user{user}").into()];
                ("t", row)
            });
            let keys = deletes.iter().map(|k| ("t", Value::Int(*k as i64)));

            let (bytes, writes) = (wal_bytes(&dir), thread_writes());
            db.commit(rows, keys).unwrap();
            if let (Some(before), Some(after)) = (writes, thread_writes()) {
                prop_assert_eq!(after - before, u64::from(logs));
            }
            prop_assert_eq!(wal_bytes(&dir) > bytes, logs);

            let held = |db: &Db| -> BTreeMap<i64, (i64, String)> {
                let rows = db.query("t", &Query::all()).unwrap();
                rows.iter()
                    .map(|r| {
                        let user = r[2].as_text().unwrap().to_string();
                        (r[0].as_int().unwrap(), (r[1].as_int().unwrap(), user))
                    })
                    .collect()
            };
            prop_assert_eq!(held(&db), model.clone());
            drop(db);
            db = Db::open(&dir).unwrap();
            prop_assert_eq!(held(&db), model.clone());
        }
        std::fs::remove_dir_all(dir).ok();
    }
}
