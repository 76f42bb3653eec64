//! The database: tables behind one segmented log, which is all it keeps
//! on disk.
//!
//! Write access is `&mut self`: the type system enforces the single-writer
//! discipline the paper uses to justify SQLite ("only one go routine writes
//! to DB at a configured interval"). Concurrent readers share snapshots via
//! cloned tables or wrap the `Db` in a lock at a higher layer.
//!
//! A commit is one frame of the segmented log ([`crate::log`]), synced
//! before [`Db::commit`] returns ([`FsyncMode::Always`], like SQLite's
//! `synchronous=FULL`): it survives a crash whole once it returned, and a
//! torn one replays as nothing. A table's creation is a commit too. A
//! snapshot is one more: every table and row, at the start of a segment,
//! after which the older segments go. The database takes one by itself
//! whenever the log has grown past the last one and a segment, so the log
//! stays within about twice the live tables, as SQLite checkpoints its own
//! WAL.

use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use crate::log::{self, DiskFaults, FsyncMode, Log, WalOptions, WalPosition};
use crate::query::Query;
use crate::schema::Schema;
use crate::table::Table;
use crate::value::{Row, Value};
use crate::wal::{self, Commit, Snapshot, WalRecord};

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

/// An embedded relational database rooted at a directory.
pub struct Db {
    dir: PathBuf,
    tables: BTreeMap<String, Table>,
    log: Log,
    /// The log's segment size: with the last snapshot frame, how far the
    /// log grows before the database snapshots itself.
    segment_bytes: u64,
    /// Bytes of the last snapshot frame. After an open, of the log's first
    /// frame, which is the last snapshot once one was taken.
    snapshot_bytes: u64,
    /// Bytes logged after that frame.
    since_snapshot: u64,
}

const WAL_DIR: &str = "wal";

impl Db {
    /// Opens (creating if needed) a database in `dir`, recovering its
    /// tables by replaying the log. Every commit is synced before it
    /// returns ([`FsyncMode::Always`]). A directory holding a file an older
    /// build wrote (`snapshot.json`, `schemas.json`, `wal/wal-*.log`) is
    /// refused with an error naming it: this build does not read them.
    pub fn open(dir: &Path) -> Result<Db, DbError> {
        let opts = WalOptions {
            fsync: FsyncMode::Always,
            ..WalOptions::default()
        };
        Db::open_with(dir, opts)
    }

    fn open_with(dir: &Path, opts: WalOptions) -> Result<Db, DbError> {
        let wal_dir = dir.join(WAL_DIR);
        fs::create_dir_all(&wal_dir)?;
        let older = ["snapshot.json", "schemas.json"].map(|name| dir.join(name));
        let lines = log::numbered(&wal_dir, "wal-", ".log")?;
        let lines = lines.into_iter().map(|(_, path)| path);
        if let Some(path) = older.into_iter().chain(lines).find(|p| p.exists()) {
            let path = path.display();
            return Err(DbError::Storage(format!(
                "{path} is an older build's file, which this build does not read"
            )));
        }

        // A snapshot frame starts every table over and re-states its rows,
        // so whatever frames were left before one replay harmlessly.
        let mut tables = BTreeMap::new();
        let (mut first_frame, mut logged, mut applied) = (None, 0, Ok(()));
        let end = wal::replay(&wal_dir, |records, frame| {
            first_frame.get_or_insert(frame);
            logged += frame;
            applied = records
                .into_iter()
                .try_for_each(|rec| apply(&mut tables, rec));
            applied.is_ok()
        })?;
        applied?;
        let snapshot_bytes = first_frame.unwrap_or(0);
        Ok(Db {
            dir: dir.to_path_buf(),
            tables,
            log: Log::open_at(&wal_dir, opts, end.at)?,
            segment_bytes: opts.segment_bytes,
            snapshot_bytes,
            since_snapshot: logged - snapshot_bytes,
        })
    }

    /// Installs a disk-fault injector under the log (crash-point testing).
    pub fn set_disk_faults(&mut self, faults: Arc<dyn DiskFaults>) {
        self.log.set_disk_faults(faults);
    }

    /// Where the next commit goes in the log. A snapshot starts a new
    /// segment, so the offset is what the log holds past the snapshot for
    /// as long as the segment number stays the one it started.
    pub fn log_position(&self) -> WalPosition {
        self.log.position()
    }

    /// The database directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Creates a table if it does not already exist: a commit of its
    /// `Create` record.
    pub fn create_table(&mut self, name: &str, schema: Schema) -> Result<(), DbError> {
        if self.tables.contains_key(name) {
            return Ok(());
        }
        self.write(vec![WalRecord::Create {
            table: name.to_string(),
            schema,
        }])
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
        self.write(records)
    }

    /// Logs `records` as one commit and applies them. Then, once the log
    /// has grown past both the last snapshot frame and a segment since that
    /// frame, snapshots: a failed snapshot keeps every segment, does not
    /// fail the commit, and is tried again after the next one.
    fn write(&mut self, records: Vec<WalRecord>) -> Result<(), DbError> {
        let before = self.log.position();
        self.log.commit(&Commit(&records))?;
        let after = self.log.position();
        // A commit that rotated the log starts its new segment.
        self.since_snapshot += after.offset
            - if after.seq == before.seq {
                before.offset
            } else {
                0
            };
        for rec in records {
            apply(&mut self.tables, rec)?;
        }
        if self.since_snapshot > self.snapshot_bytes.max(self.segment_bytes) {
            let _ = self.snapshot();
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

    /// Compacts the log: starts a new segment, commits every table and row
    /// to it as one frame ([`Snapshot`]), then deletes the segments before
    /// it. A failed snapshot leaves every segment in place; a crash before
    /// the deletes leaves segments that replay harmlessly before the frame.
    pub fn snapshot(&mut self) -> Result<(), DbError> {
        let seq = self.log.rotate()?;
        self.log.commit(&Snapshot(&self.tables))?;
        log::truncate_before(&self.dir.join(WAL_DIR), seq)?;
        self.snapshot_bytes = self.log.position().offset;
        self.since_snapshot = 0;
        Ok(())
    }
}

/// Applies one logged record: a record for a table that does not exist is
/// skipped, and a `Create` starts its table over, empty.
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
        WalRecord::Create { table, schema } => {
            let schema = schema
                .checked()
                .map_err(|e| DbError::Schema(e.to_string()))?;
            tables.insert(table, Table::new(schema));
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
        assert_eq!(
            db.get("jobs", &"j1".into()).unwrap().unwrap()[1],
            Value::Text("alice".into())
        );
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

    /// Each file an older build kept beside or in the log makes the open
    /// fail with an error naming it, and nothing is replayed or cut.
    #[test]
    fn older_files_are_refused_by_name() {
        for older in ["snapshot.json", "schemas.json", "wal/wal-000000000003.log"] {
            let dir = tmpdir("older");
            let mut db = Db::open(&dir).unwrap();
            db.create_table("jobs", jobs_schema()).unwrap();
            db.upsert("jobs", job(1)).unwrap();
            drop(db);
            let segments = segment_bytes(&dir);
            fs::write(dir.join(older), b"{}").unwrap();
            let Err(DbError::Storage(e)) = Db::open(&dir) else {
                panic!("{older} was not refused");
            };
            assert!(e.contains(&dir.join(older).display().to_string()), "{e}");
            assert_eq!(segment_bytes(&dir), segments);
            fs::remove_file(dir.join(older)).unwrap();
            assert_eq!(jobs(&Db::open(&dir).unwrap()), vec![job(1)]);
            fs::remove_dir_all(dir).unwrap();
        }
    }

    /// The directory's only entry is `wal/`, and that holds only segments,
    /// after tables, commits and snapshots.
    #[test]
    fn a_database_writes_nothing_but_segments() {
        let dir = tmpdir("only-segments");
        let mut db = Db::open(&dir).unwrap();
        db.create_table("jobs", jobs_schema()).unwrap();
        db.upsert("jobs", job(1)).unwrap();
        db.snapshot().unwrap();
        db.create_table("more", jobs_schema()).unwrap();
        db.upsert("more", job(2)).unwrap();
        let names = |dir: &Path| -> Vec<String> {
            let entries = fs::read_dir(dir).unwrap();
            let mut names: Vec<String> = entries
                .map(|e| e.unwrap().file_name().into_string().unwrap())
                .collect();
            names.sort();
            names
        };
        assert_eq!(names(&dir), ["wal"]);
        let segments = names(&dir.join(WAL_DIR));
        assert!(
            segments
                .iter()
                .all(|n| n.starts_with("wal-") && n.ends_with(".seg")),
            "{segments:?}"
        );
        drop(db);
        let db = Db::open(&dir).unwrap();
        assert_eq!(db.table_names(), ["jobs", "more"]);
        assert_eq!(
            (jobs(&db), db.query("more", &Query::all()).unwrap()),
            (vec![job(1)], vec![job(2)])
        );
        fs::remove_dir_all(dir).unwrap();
    }

    /// A crash can cut a commit's frame at any byte: it replays whole
    /// (only when all of it is there) or not at all.
    #[test]
    fn a_torn_commit_replays_all_or_nothing() {
        let dir = tmpdir("torn-commit");
        let mut db = Db::open(&dir).unwrap();
        db.create_table("jobs", jobs_schema()).unwrap();
        let created = db.log_position().offset as usize;
        db.commit((0..3).map(|i| ("jobs", job(i))), []).unwrap();
        drop(db);
        let [(seq, bytes)] = &segment_bytes(&dir)[..] else {
            panic!("one segment expected");
        };
        let path = dir.join(WAL_DIR).join(log::segment_file_name(*seq));
        for cut in created..=bytes.len() {
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

    /// A snapshot that fails, sealing the segment (its fsync) or writing
    /// its frame, returns the error before a segment is dropped, and the
    /// database still reopens to every commit.
    #[test]
    fn a_failed_snapshot_keeps_every_segment() {
        let faults = [
            log::ScriptedDiskFaults::new().with_fsync_failures(1),
            log::ScriptedDiskFaults::new().with_short_write(0, 0.5),
        ];
        for fault in faults {
            let dir = tmpdir("snap-fault");
            let mut db = Db::open(&dir).unwrap();
            db.create_table("jobs", jobs_schema()).unwrap();
            db.upsert("jobs", job(1)).unwrap();
            db.snapshot().unwrap();
            db.upsert("jobs", job(2)).unwrap();
            let before = segment_bytes(&dir);
            db.set_disk_faults(Arc::new(fault));
            assert!(db.snapshot().is_err());
            let after = segment_bytes(&dir);
            assert!(
                before.iter().all(|seg| after.contains(seg)),
                "{before:?} {after:?}"
            );
            drop(db);
            assert_eq!(jobs(&Db::open(&dir).unwrap()), vec![job(1), job(2)]);
            fs::remove_dir_all(dir).unwrap();
        }
    }

    /// A database over small segments, its table `jobs` filled with
    /// `live` rows.
    fn small(name: &str, live: usize) -> (PathBuf, Db) {
        let dir = tmpdir(name);
        let opts = WalOptions {
            segment_bytes: 4 << 10,
            fsync: FsyncMode::Never,
        };
        let mut db = Db::open_with(&dir, opts).unwrap();
        db.create_table("jobs", jobs_schema()).unwrap();
        db.commit((0..live).map(|i| ("jobs", job(i))), []).unwrap();
        (dir, db)
    }

    fn log_bytes(dir: &Path) -> u64 {
        segment_bytes(dir).iter().map(|(_, b)| b.len() as u64).sum()
    }

    /// Commits rewriting the live rows twenty times over leave the log
    /// within twice the larger of the last snapshot frame and a segment,
    /// plus one commit, and it reopens to the live tables.
    #[test]
    fn the_log_stays_within_twice_a_snapshot_or_segment() {
        let live = 200;
        let (dir, mut db) = small("bound", live);
        let one_commit = |db: &Db| db.log_position().offset;
        let (mut largest_commit, mut commits) = (0, 0);
        for round in 0..22 {
            for i in round..live {
                let row = vec![
                    format!("j{i}").into(),
                    "bob".into(),
                    ((round * i) as f64).into(),
                ];
                let at = one_commit(&db);
                db.upsert("jobs", row).unwrap();
                commits += 1;
                largest_commit = largest_commit.max(one_commit(&db).saturating_sub(at));
                let bound = 2 * db.snapshot_bytes.max(db.segment_bytes) + largest_commit;
                assert!(log_bytes(&dir) <= bound, "{} > {bound}", log_bytes(&dir));
            }
            db.delete("jobs", &format!("j{round}").into()).unwrap();
        }
        assert!(commits >= 20 * (live - 22), "{commits} commits");
        assert!(
            db.snapshot_bytes > db.segment_bytes,
            "the live rows outgrow a segment"
        );
        let want = jobs(&db);
        assert_eq!(want.len(), live - 22);
        drop(db);
        assert_eq!(jobs(&Db::open(&dir).unwrap()), want);
        fs::remove_dir_all(dir).unwrap();
    }

    /// A crash after the snapshot frame is synced, before the segments it
    /// covers are deleted: they replay before the frame, to the same tables,
    /// all of them or any of them (the ones holding the deletes missing).
    #[test]
    fn a_crash_before_the_old_segments_go_reopens_to_the_same_tables() {
        let (dir, mut db) = small("snap-crash", 100);
        for i in 0..40 {
            db.delete("jobs", &format!("j{i}").into()).unwrap();
            db.upsert("jobs", job(i + 1000)).unwrap();
        }
        let older = segment_bytes(&dir);
        assert!(older.len() > 2);
        db.snapshot().unwrap();
        db.upsert("jobs", job(7)).unwrap();
        let want = jobs(&db);
        drop(db);
        let path = |seq: u64| dir.join(WAL_DIR).join(log::segment_file_name(seq));
        let some: [fn(usize) -> bool; 3] = [|_| true, |i| i < 2, |i| i % 2 == 1];
        for left in some {
            let left: Vec<_> = older.iter().enumerate().filter(|(i, _)| left(*i)).collect();
            for (_, (seq, bytes)) in &left {
                fs::write(path(*seq), bytes).unwrap();
            }
            assert_eq!(jobs(&Db::open(&dir).unwrap()), want);
            for (_, (seq, _)) in &left {
                fs::remove_file(path(*seq)).unwrap();
            }
        }
        fs::remove_dir_all(dir).unwrap();
    }

    /// A snapshot the database takes by itself that fails does not fail
    /// the commit behind it; the next commit takes it.
    #[test]
    fn a_failed_compaction_is_retried_after_the_next_commit() {
        let (dir, mut db) = small("retry", 10);
        // Commits of one length, up to the last before the one that
        // outgrows a segment.
        let mut i = 10;
        loop {
            let before = db.since_snapshot;
            db.upsert("jobs", job(i)).unwrap();
            i += 1;
            let commit = db.since_snapshot - before;
            if db.since_snapshot + commit > db.snapshot_bytes.max(db.segment_bytes) {
                break;
            }
        }
        let segments = segment_bytes(&dir);
        // `Never` syncs nothing: the short write is the snapshot frame's.
        db.set_disk_faults(Arc::new(
            log::ScriptedDiskFaults::new().with_short_write(1, 0.5),
        ));
        db.upsert("jobs", job(i)).unwrap();
        let after = segment_bytes(&dir);
        assert_eq!(after[0].0, segments[0].0, "no segment was deleted");
        assert!(
            after.len() > segments.len(),
            "the snapshot's segment was started"
        );
        assert!(db.since_snapshot > db.segment_bytes);
        db.upsert("jobs", job(i + 1)).unwrap();
        assert_eq!(db.since_snapshot, 0);
        assert_eq!(segment_bytes(&dir).len(), 1);
        let want = jobs(&db);
        assert_eq!(want.len(), i + 2);
        assert!(i < 100, "job rows of one length");
        drop(db);
        assert_eq!(jobs(&Db::open(&dir).unwrap()), want);
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
