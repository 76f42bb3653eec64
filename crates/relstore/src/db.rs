//! The database: durable tables behind a log, with snapshot + replay
//! recovery.
//!
//! Write access is `&mut self`: the type system enforces the single-writer
//! discipline the paper uses to justify SQLite ("only one go routine writes
//! to DB at a configured interval"). Concurrent readers share snapshots via
//! cloned tables or wrap the `Db` in a lock at a higher layer.
//!
//! A commit is one frame of the segmented log ([`crate::log`]), synced
//! before [`Db::commit`] returns ([`FsyncMode::Always`], like SQLite's
//! `synchronous=FULL`): it survives a crash whole once it returned, and a
//! torn one replays as nothing.

use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use serde::{Deserialize, Serialize};

use crate::log::{self, DiskFaults, FsyncMode, Log, WalOptions, WalPosition};
use crate::query::Query;
use crate::schema::Schema;
use crate::table::Table;
use crate::value::{Row, Value};
use crate::wal::{self, Commit, WalRecord};

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
    log: Log,
}

const SNAPSHOT_FILE: &str = "snapshot.json";
const META_FILE: &str = "schemas.json";
const WAL_DIR: &str = "wal";

impl Db {
    /// Opens (creating if needed) a database in `dir`, recovering state from
    /// the latest snapshot plus log replay. Every commit is synced before it
    /// returns ([`FsyncMode::Always`]).
    pub fn open(dir: &Path) -> Result<Db, DbError> {
        fs::create_dir_all(dir)?;
        // 1. Snapshot, if present.
        let snap: Option<Snapshot> = read_json(&dir.join(SNAPSHOT_FILE))?;
        let mut tables = snap.map_or_else(BTreeMap::new, |snap| snap.tables);

        // 2. Schemas created after the snapshot.
        let schemas: Option<BTreeMap<String, Schema>> = read_json(&dir.join(META_FILE))?;
        for (name, schema) in schemas.into_iter().flatten() {
            tables.entry(name).or_insert_with(|| Table::new(schema));
        }

        // 3. Log replay (upserts/deletes are idempotent, so replaying
        //    records already covered by the snapshot is harmless): the lines
        //    an older build logged, then the frames.
        let wal_dir = dir.join(WAL_DIR);
        fs::create_dir_all(&wal_dir)?;
        let (lines, line_files) = wal::read_lines(&wal_dir)?;
        let opts = WalOptions {
            fsync: FsyncMode::Always,
            ..WalOptions::default()
        };
        let (log, records) = wal::recover(&wal_dir, opts)?;
        for rec in lines.into_iter().chain(records) {
            apply(&mut tables, rec)?;
        }
        let mut db = Db {
            dir: dir.to_path_buf(),
            tables,
            log,
        };
        // The lines go into a snapshot and are not read again.
        if !line_files.is_empty() {
            db.snapshot()?;
            for path in line_files {
                fs::remove_file(path)?;
            }
            log::sync_dir(&wal_dir);
        }
        Ok(db)
    }

    /// Installs a disk-fault injector under the log and the snapshot writes
    /// (crash-point testing).
    pub fn set_disk_faults(&mut self, faults: Arc<dyn DiskFaults>) {
        self.log.set_disk_faults(faults);
    }

    /// Where the next commit goes in the log. [`Db::snapshot`] starts a
    /// new segment, so the offset is what the log holds past the snapshot
    /// for as long as the segment number stays the one it started.
    pub fn log_position(&self) -> WalPosition {
        self.log.position()
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
        self.write_durable(META_FILE, &schemas)
    }

    /// Writes `value` as JSON to the file `name` durably
    /// ([`log::write_durable`]).
    fn write_durable(&self, name: &str, value: &impl Serialize) -> Result<(), DbError> {
        let json = serde_json::to_vec(value).map_err(|e| DbError::Storage(e.to_string()))?;
        log::write_durable(&self.dir.join(name), &json, self.log.disk_faults())?;
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

    /// Inserts or replaces a row: a [`Db::commit`] of one.
    pub fn upsert(&mut self, table: &str, row: Row) -> Result<(), DbError> {
        self.commit([(table, row)], [])
    }

    /// Deletes by primary key, a [`Db::commit`] of one; returns true if a
    /// row was removed.
    pub fn delete(&mut self, table: &str, pk: &Value) -> Result<bool, DbError> {
        let held = self.table(table)?.get(pk).is_some();
        self.commit([], [(table, pk.clone())])?;
        Ok(held)
    }

    /// Applies upserts and deletes, in any tables, as one commit: every row
    /// is validated, then all records are logged as one frame with one
    /// write and one sync, then applied, the deletes first (a key in both
    /// lists ends up upserted). A bad row, an unknown table or a failed
    /// write or sync fails the commit with nothing applied or left in the
    /// log ([`Log::commit`]); a commit that changes nothing (a delete of a key
    /// the table does not hold) writes and syncs nothing.
    pub fn commit<'t>(
        &mut self,
        upserts: impl IntoIterator<Item = (&'t str, Row)>,
        deletes: impl IntoIterator<Item = (&'t str, Value)>,
    ) -> Result<(), DbError> {
        let mut records = Vec::new();
        for (table, pk) in deletes {
            if self.table(table)?.get(&pk).is_some() {
                records.push(WalRecord::Delete {
                    table: table.to_string(),
                    pk,
                });
            }
        }
        for (table, row) in upserts {
            let row = self
                .table(table)?
                .schema()
                .validate(row)
                .map_err(|e| DbError::Schema(e.to_string()))?;
            records.push(WalRecord::Upsert {
                table: table.to_string(),
                row,
            });
        }
        if records.is_empty() {
            return Ok(());
        }
        self.log.commit(&Commit(&records))?;
        for rec in records {
            apply(&mut self.tables, rec)?;
        }
        Ok(())
    }

    /// Point lookup.
    pub fn get(&self, table: &str, pk: &Value) -> Result<Option<Row>, DbError> {
        Ok(self.table(table)?.get(pk).cloned())
    }

    /// Runs a query.
    pub fn query(&self, table: &str, q: &Query) -> Result<Vec<Row>, DbError> {
        Ok(q.run(self.table(table)?))
    }

    /// Writes a snapshot durably, then starts a new log segment and drops
    /// the older ones, which the snapshot covers. A failed snapshot leaves
    /// every segment in place.
    pub fn snapshot(&mut self) -> Result<(), DbError> {
        let snap = Snapshot {
            tables: self.tables.clone(),
        };
        self.write_durable(SNAPSHOT_FILE, &snap)?;
        let seq = self.log.rotate()?;
        log::truncate_before(&self.dir.join(WAL_DIR), seq)?;
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

/// The JSON in the file at `path`, if there is one.
fn read_json<T: Deserialize>(path: &Path) -> Result<Option<T>, DbError> {
    if !path.exists() {
        return Ok(None);
    }
    let data = fs::read(path)?;
    let value = serde_json::from_slice(&data).map_err(|e| DbError::Storage(e.to_string()))?;
    Ok(Some(value))
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

    fn jobs(db: &Db) -> Vec<Row> {
        db.query("jobs", &Query::all()).unwrap()
    }

    fn job(i: usize) -> Row {
        vec![format!("j{i}").into(), "alice".into(), (i as f64).into()]
    }

    /// The log's segments in `dir`, with their bytes.
    fn segment_bytes(dir: &Path) -> Vec<(u64, Vec<u8>)> {
        let segments = log::list_segments(&dir.join(WAL_DIR)).unwrap();
        segments
            .into_iter()
            .map(|(seq, path)| (seq, fs::read(path).unwrap()))
            .collect()
    }

    /// A directory the line-format log wrote opens with the same tables,
    /// loses its `.log` files to a snapshot, and takes commits that replay.
    #[test]
    fn old_line_format_directories_still_open() {
        let dir = tmpdir("lines");
        let mut db = Db::open(&dir).unwrap();
        db.create_table("jobs", jobs_schema()).unwrap();
        drop(db);
        fs::remove_dir_all(dir.join(WAL_DIR)).unwrap();
        fs::create_dir_all(dir.join(WAL_DIR)).unwrap();
        let records: Vec<WalRecord> = (0..5)
            .map(|i| WalRecord::Upsert {
                table: "jobs".into(),
                row: job(i),
            })
            .chain([
                WalRecord::Checkpoint,
                WalRecord::Delete {
                    table: "jobs".into(),
                    pk: "j1".into(),
                },
            ])
            .collect();
        for (seq, part) in [(0, &records[..4]), (1, &records[4..])] {
            let mut text = String::new();
            for record in part {
                let json = serde_json::to_string(record).unwrap();
                text += &format!("{:08x} {json}\n", log::crc32(json.as_bytes()));
            }
            fs::write(dir.join(WAL_DIR).join(format!("wal-{seq:012}.log")), text).unwrap();
        }
        let mut want = BTreeMap::new();
        want.insert("jobs".to_string(), Table::new(jobs_schema()));
        for record in records {
            apply(&mut want, record).unwrap();
        }
        let want = want["jobs"].scan().cloned().collect::<Vec<_>>();
        assert_eq!(want.len(), 4);

        let mut db = Db::open(&dir).unwrap();
        assert_eq!(jobs(&db), want);
        assert!(wal::read_lines(&dir.join(WAL_DIR)).unwrap().1.is_empty());
        db.upsert("jobs", job(9)).unwrap();
        drop(db);
        let db = Db::open(&dir).unwrap();
        assert_eq!(jobs(&db).len(), 5);
        assert_eq!(jobs(&db)[..4], want[..4]);
        fs::remove_dir_all(dir).unwrap();
    }

    /// A crash can cut a commit's frame at any byte: it replays whole
    /// (only when all of it is there) or not at all.
    #[test]
    fn a_torn_commit_replays_all_or_nothing() {
        let dir = tmpdir("torn-commit");
        let mut db = Db::open(&dir).unwrap();
        db.create_table("jobs", jobs_schema()).unwrap();
        db.commit((0..3).map(|i| ("jobs", job(i))), []).unwrap();
        drop(db);
        let [(seq, bytes)] = &segment_bytes(&dir)[..] else {
            panic!("one segment expected");
        };
        let path = dir.join(WAL_DIR).join(log::segment_file_name(*seq));
        for cut in 0..=bytes.len() {
            fs::write(&path, &bytes[..cut]).unwrap();
            let rows = jobs(&Db::open(&dir).unwrap()).len();
            let whole = cut == bytes.len();
            assert_eq!(
                rows,
                if whole { 3 } else { 0 },
                "cut at {cut} of {}",
                bytes.len()
            );
        }
        fs::remove_dir_all(dir).unwrap();
    }

    /// A snapshot whose fsync fails returns the error before a segment is
    /// dropped, and the database still reopens to every commit. (The
    /// snapshot file is synced before the log rotates, so the fsync the
    /// fault fails is the snapshot file's.)
    #[test]
    fn a_failed_snapshot_keeps_every_segment() {
        let dir = tmpdir("snap-fsync");
        let mut db = Db::open(&dir).unwrap();
        db.create_table("jobs", jobs_schema()).unwrap();
        db.upsert("jobs", job(1)).unwrap();
        db.snapshot().unwrap();
        db.upsert("jobs", job(2)).unwrap();
        let before = segment_bytes(&dir);
        let snapshot = fs::read(dir.join(SNAPSHOT_FILE)).unwrap();
        db.set_disk_faults(Arc::new(
            log::ScriptedDiskFaults::new().with_fsync_failures(1),
        ));
        assert!(db.snapshot().is_err());
        assert_eq!(segment_bytes(&dir), before);
        assert_eq!(fs::read(dir.join(SNAPSHOT_FILE)).unwrap(), snapshot);
        drop(db);
        assert_eq!(jobs(&Db::open(&dir).unwrap()).len(), 2);
        fs::remove_dir_all(dir).unwrap();
    }

    /// What a failed commit leaves past the log's end when its cut-back
    /// fails (a torn tail the writer did not repair) is overwritten by the
    /// next commit, and cut before its segment is sealed: it never replays
    /// and never hides a later commit.
    #[test]
    fn a_failed_cut_back_is_overwritten_by_the_next_commit() {
        let dir = tmpdir("cut-back");
        let mut db = Db::open(&dir).unwrap();
        db.create_table("jobs", jobs_schema()).unwrap();
        db.upsert("jobs", job(1)).unwrap();
        let at = db.log.position();
        db.set_disk_faults(Arc::new(
            log::ScriptedDiskFaults::new()
                .with_short_write(0, 0.9)
                .leaving_torn_tails(),
        ));
        let failed = [("jobs", job(2)), ("jobs", job(5)), ("jobs", job(6))];
        assert!(db.commit(failed, []).is_err());
        assert_eq!(db.log.position(), at);
        db.upsert("jobs", job(3)).unwrap();
        let end = db.log.position().offset;
        let seg0 = || segment_bytes(&dir)[0].1.len() as u64;
        assert!(seg0() > end, "the failed commit's tail is still on disk");
        assert_eq!(jobs(&db), vec![job(1), job(3)]);
        db.log.rotate().unwrap();
        assert_eq!(seg0(), end);
        db.upsert("jobs", job(4)).unwrap();
        drop(db);
        let reopened = Db::open(&dir).unwrap();
        assert_eq!(jobs(&reopened), vec![job(1), job(3), job(4)]);
        fs::remove_dir_all(dir).unwrap();
    }

    /// A commit that changes nothing leaves the log as it was.
    #[test]
    fn an_empty_commit_writes_nothing() {
        let dir = tmpdir("empty-commit");
        let mut db = Db::open(&dir).unwrap();
        db.create_table("jobs", jobs_schema()).unwrap();
        db.upsert("jobs", job(1)).unwrap();
        let (at, syncs) = (db.log.position(), db.log.sync_stats().0);
        db.commit([], [("jobs", "absent".into())]).unwrap();
        assert!(!db.delete("jobs", &"absent".into()).unwrap());
        assert_eq!((db.log.position(), db.log.sync_stats().0), (at, syncs));
        db.upsert("jobs", job(2)).unwrap();
        assert_eq!(db.log.sync_stats().0, syncs + 1, "a commit is synced");
        fs::remove_dir_all(dir).unwrap();
    }
}
