//! The database: durable tables behind a WAL, with snapshot + replay
//! recovery.
//!
//! Write access is `&mut self`: the type system enforces the single-writer
//! discipline the paper uses to justify SQLite ("only one go routine writes
//! to DB at a configured interval"). Concurrent readers share snapshots via
//! cloned tables or wrap the `Db` in a lock at a higher layer.

use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};

use serde::{Deserialize, Serialize};

use crate::query::Query;
use crate::schema::Schema;
use crate::table::Table;
use crate::value::{Row, Value};
use crate::wal::{Wal, WalError, WalRecord};

/// Database error.
#[derive(Debug)]
pub enum DbError {
    /// Filesystem / WAL failure.
    Storage(String),
    /// Schema violation.
    Schema(String),
    /// Unknown table.
    NoSuchTable(String),
}

impl std::fmt::Display for DbError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DbError::Storage(m) => write!(f, "storage error: {m}"),
            DbError::Schema(m) => write!(f, "schema error: {m}"),
            DbError::NoSuchTable(t) => write!(f, "no such table: {t}"),
        }
    }
}

impl std::error::Error for DbError {}

impl From<WalError> for DbError {
    fn from(e: WalError) -> Self {
        DbError::Storage(e.to_string())
    }
}

impl From<std::io::Error> for DbError {
    fn from(e: std::io::Error) -> Self {
        DbError::Storage(e.to_string())
    }
}

#[derive(Serialize, Deserialize)]
struct Snapshot {
    tables: BTreeMap<String, Table>,
}

/// An embedded relational database rooted at a directory.
pub struct Db {
    dir: PathBuf,
    tables: BTreeMap<String, Table>,
    wal: Wal,
}

const SNAPSHOT_FILE: &str = "snapshot.json";
const META_FILE: &str = "schemas.json";
const WAL_DIR: &str = "wal";

impl Db {
    /// Opens (creating if needed) a database in `dir`, recovering state from
    /// the latest snapshot plus WAL replay.
    pub fn open(dir: &Path) -> Result<Db, DbError> {
        fs::create_dir_all(dir)?;
        let mut tables: BTreeMap<String, Table> = BTreeMap::new();

        // 1. Snapshot, if present.
        let snap_path = dir.join(SNAPSHOT_FILE);
        if snap_path.exists() {
            let data = fs::read_to_string(&snap_path)?;
            let snap: Snapshot =
                serde_json::from_str(&data).map_err(|e| DbError::Storage(e.to_string()))?;
            tables = snap.tables;
        }

        // 2. Schemas created after the snapshot.
        let meta_path = dir.join(META_FILE);
        if meta_path.exists() {
            let data = fs::read_to_string(&meta_path)?;
            let schemas: BTreeMap<String, Schema> =
                serde_json::from_str(&data).map_err(|e| DbError::Storage(e.to_string()))?;
            for (name, schema) in schemas {
                tables.entry(name).or_insert_with(|| Table::new(schema));
            }
        }

        // 3. WAL replay (upserts/deletes are idempotent, so replaying
        //    records already covered by the snapshot is harmless).
        let (wal, records) = Wal::recover(&dir.join(WAL_DIR), 4 << 20)?;
        for rec in records {
            apply(&mut tables, rec)?;
        }
        Ok(Db {
            dir: dir.to_path_buf(),
            tables,
            wal,
        })
    }

    /// The database directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Creates a table if it does not already exist.
    pub fn create_table(&mut self, name: &str, schema: Schema) -> Result<(), DbError> {
        if self.tables.contains_key(name) {
            return Ok(());
        }
        self.tables.insert(name.to_string(), Table::new(schema));
        self.persist_meta()
    }

    fn persist_meta(&self) -> Result<(), DbError> {
        let schemas: BTreeMap<&String, &Schema> =
            self.tables.iter().map(|(n, t)| (n, t.schema())).collect();
        let json = serde_json::to_string(&schemas).map_err(|e| DbError::Storage(e.to_string()))?;
        write_atomic(&self.dir.join(META_FILE), json.as_bytes())?;
        Ok(())
    }

    /// Table names.
    pub fn table_names(&self) -> Vec<String> {
        self.tables.keys().cloned().collect()
    }

    /// Immutable access to a table.
    pub fn table(&self, name: &str) -> Result<&Table, DbError> {
        self.tables
            .get(name)
            .ok_or_else(|| DbError::NoSuchTable(name.to_string()))
    }

    /// Inserts or replaces a row (WAL first, then apply).
    pub fn upsert(&mut self, table: &str, row: Row) -> Result<(), DbError> {
        self.upsert_all([(table, row)])
    }

    /// Inserts or replaces rows, in any tables, as one commit: every row is
    /// validated, then all are logged with one write, then applied in
    /// order. A bad row or an unknown table fails the commit before
    /// anything is logged, so the WAL never contains bad rows.
    pub fn upsert_all<'t>(
        &mut self,
        rows: impl IntoIterator<Item = (&'t str, Row)>,
    ) -> Result<(), DbError> {
        let records = rows
            .into_iter()
            .map(|(table, row)| {
                let schema = self.table(table)?.schema();
                let row = schema
                    .validate(row)
                    .map_err(|e| DbError::Schema(e.to_string()))?;
                Ok(WalRecord::Upsert {
                    table: table.to_string(),
                    row,
                })
            })
            .collect::<Result<Vec<_>, DbError>>()?;
        self.wal.append_all(&records)?;
        for rec in records {
            apply(&mut self.tables, rec)?;
        }
        Ok(())
    }

    /// Deletes by primary key; returns true if a row was removed.
    pub fn delete(&mut self, table: &str, pk: &Value) -> Result<bool, DbError> {
        if !self.tables.contains_key(table) {
            return Err(DbError::NoSuchTable(table.to_string()));
        }
        self.wal.append(&WalRecord::Delete {
            table: table.to_string(),
            pk: pk.clone(),
        })?;
        Ok(self.tables.get_mut(table).unwrap().delete(pk).is_some())
    }

    /// Point lookup.
    pub fn get(&self, table: &str, pk: &Value) -> Result<Option<Row>, DbError> {
        Ok(self.table(table)?.get(pk).cloned())
    }

    /// Runs a query.
    pub fn query(&self, table: &str, q: &Query) -> Result<Vec<Row>, DbError> {
        Ok(q.run(self.table(table)?))
    }

    /// Writes a snapshot, checkpoints the WAL and drops old segments.
    pub fn snapshot(&mut self) -> Result<(), DbError> {
        let snap = Snapshot {
            tables: self.tables.clone(),
        };
        let json = serde_json::to_string(&snap).map_err(|e| DbError::Storage(e.to_string()))?;
        write_atomic(&self.dir.join(SNAPSHOT_FILE), json.as_bytes())?;
        let seq = self.wal.append(&WalRecord::Checkpoint)?;
        self.wal.truncate_before(seq)?;
        Ok(())
    }

    /// Punctual backup: copies the whole database directory (snapshot first
    /// so the copy is current). This is the API server's built-in backup.
    pub fn backup_to(&mut self, dest: &Path) -> Result<(), DbError> {
        self.snapshot()?;
        copy_dir(&self.dir, dest)?;
        Ok(())
    }
}

/// Applies one logged record; a record for a table that does not exist
/// (any more) is skipped.
fn apply(tables: &mut BTreeMap<String, Table>, rec: WalRecord) -> Result<(), DbError> {
    match rec {
        WalRecord::Upsert { table, row } => {
            if let Some(t) = tables.get_mut(&table) {
                t.upsert(row).map_err(|e| DbError::Schema(e.to_string()))?;
            }
        }
        WalRecord::Delete { table, pk } => {
            if let Some(t) = tables.get_mut(&table) {
                t.delete(&pk);
            }
        }
        WalRecord::Checkpoint => {}
    }
    Ok(())
}

/// Recursively copies a directory.
pub(crate) fn copy_dir(src: &Path, dest: &Path) -> std::io::Result<()> {
    fs::create_dir_all(dest)?;
    for entry in fs::read_dir(src)? {
        let entry = entry?;
        let target = dest.join(entry.file_name());
        if entry.file_type()?.is_dir() {
            copy_dir(&entry.path(), &target)?;
        } else {
            fs::copy(entry.path(), target)?;
        }
    }
    Ok(())
}

fn write_atomic(path: &Path, data: &[u8]) -> std::io::Result<()> {
    let tmp = path.with_extension("tmp");
    fs::write(&tmp, data)?;
    fs::rename(tmp, path)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{Column, ColumnType};

    fn tmpdir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "ceems-db-{}-{}-{}",
            name,
            std::process::id(),
            std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .unwrap()
                .as_nanos()
        ));
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn jobs_schema() -> Schema {
        Schema::new(
            vec![
                Column::required("uuid", ColumnType::Text),
                Column::required("user", ColumnType::Text),
                Column::required("energy", ColumnType::Real),
            ],
            "uuid",
            &["user"],
        )
        .unwrap()
    }

    #[test]
    fn crud_and_query() {
        let dir = tmpdir("crud");
        let mut db = Db::open(&dir).unwrap();
        db.create_table("jobs", jobs_schema()).unwrap();
        db.upsert("jobs", vec!["j1".into(), "alice".into(), 5.0.into()])
            .unwrap();
        db.upsert("jobs", vec!["j2".into(), "bob".into(), 7.0.into()])
            .unwrap();
        assert_eq!(db.get("jobs", &"j1".into()).unwrap().unwrap()[1], Value::Text("alice".into()));
        assert!(db.delete("jobs", &"j1".into()).unwrap());
        assert!(!db.delete("jobs", &"j1".into()).unwrap());
        let rows = db.query("jobs", &Query::all()).unwrap();
        assert_eq!(rows.len(), 1);

        assert!(matches!(
            db.upsert("nope", vec![]),
            Err(DbError::NoSuchTable(_))
        ));
        assert!(matches!(
            db.upsert("jobs", vec!["x".into()]),
            Err(DbError::Schema(_))
        ));
        fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn recovery_from_wal_without_snapshot() {
        let dir = tmpdir("walrec");
        {
            let mut db = Db::open(&dir).unwrap();
            db.create_table("jobs", jobs_schema()).unwrap();
            for i in 0..20 {
                db.upsert(
                    "jobs",
                    vec![format!("j{i}").into(), "alice".into(), (i as f64).into()],
                )
                .unwrap();
            }
            db.delete("jobs", &"j0".into()).unwrap();
        } // no snapshot taken
        let db = Db::open(&dir).unwrap();
        assert_eq!(db.table("jobs").unwrap().len(), 19);
        assert!(db.get("jobs", &"j0".into()).unwrap().is_none());
        assert_eq!(
            db.get("jobs", &"j7".into()).unwrap().unwrap()[2],
            Value::Real(7.0)
        );
        fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn recovery_from_snapshot_plus_tail() {
        let dir = tmpdir("snaprec");
        {
            let mut db = Db::open(&dir).unwrap();
            db.create_table("jobs", jobs_schema()).unwrap();
            db.upsert("jobs", vec!["j1".into(), "a".into(), 1.0.into()])
                .unwrap();
            db.snapshot().unwrap();
            db.upsert("jobs", vec!["j2".into(), "b".into(), 2.0.into()])
                .unwrap();
        }
        let db = Db::open(&dir).unwrap();
        assert_eq!(db.table("jobs").unwrap().len(), 2);
        fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn punctual_backup_restores() {
        let dir = tmpdir("bak");
        let bdir = tmpdir("bak-dest");
        {
            let mut db = Db::open(&dir).unwrap();
            db.create_table("jobs", jobs_schema()).unwrap();
            db.upsert("jobs", vec!["j1".into(), "a".into(), 1.0.into()])
                .unwrap();
            db.backup_to(&bdir).unwrap();
        }
        let restored = Db::open(&bdir).unwrap();
        assert_eq!(restored.table("jobs").unwrap().len(), 1);
        fs::remove_dir_all(dir).unwrap();
        fs::remove_dir_all(bdir).unwrap();
    }

    #[test]
    fn create_table_is_idempotent_and_survives_restart() {
        let dir = tmpdir("meta");
        {
            let mut db = Db::open(&dir).unwrap();
            db.create_table("jobs", jobs_schema()).unwrap();
            db.create_table("jobs", jobs_schema()).unwrap();
        }
        let db = Db::open(&dir).unwrap();
        assert_eq!(db.table_names(), vec!["jobs".to_string()]);
        fs::remove_dir_all(dir).unwrap();
    }
}
