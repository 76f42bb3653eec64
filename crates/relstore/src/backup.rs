//! Litestream-style continuous replication.
//!
//! Litestream tails SQLite's WAL and ships segments to object storage,
//! organised into *generations* (a new generation starts whenever the WAL
//! lineage is broken). [`Replicator`] does the same against [`crate::log`]
//! segments on a local "remote" directory: call [`Replicator::sync`] on an
//! interval and every new or grown segment is mirrored; [`restore`]
//! rebuilds a database directory from a generation's segments. A
//! generation is segments only: it keeps the segments a snapshot let the
//! database delete, which replay harmlessly before the snapshot's frame.

use std::fs;
use std::path::{Path, PathBuf};

use crate::db::{Db, DbError};
use crate::log::list_segments;

/// Continuously mirrors a database directory into a backup directory.
pub struct Replicator {
    db_dir: PathBuf,
    backup_dir: PathBuf,
    generation: u64,
    syncs: u64,
}

impl Replicator {
    /// Creates a replicator shipping `db_dir` into `backup_dir`.
    pub fn new(db_dir: &Path, backup_dir: &Path) -> std::io::Result<Replicator> {
        fs::create_dir_all(backup_dir)?;
        // Resume the latest generation, or start generation 0.
        let generation = list_generations(backup_dir)?.last().copied().unwrap_or(0);
        Ok(Replicator {
            db_dir: db_dir.to_path_buf(),
            backup_dir: backup_dir.to_path_buf(),
            generation,
            syncs: 0,
        })
    }

    /// Current generation number.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Number of sync passes performed.
    pub fn syncs(&self) -> u64 {
        self.syncs
    }

    fn gen_dir(&self) -> PathBuf {
        self.backup_dir.join(format!("generation-{:04}", self.generation))
    }

    /// One replication pass: copies new or changed log segments. Returns
    /// the number of files copied.
    pub fn sync(&mut self) -> std::io::Result<usize> {
        self.syncs += 1;
        copy_segments(&self.db_dir, &self.gen_dir())
    }

    /// Starts a new generation.
    pub fn new_generation(&mut self) -> std::io::Result<()> {
        self.generation += 1;
        fs::create_dir_all(self.gen_dir())?;
        Ok(())
    }
}

/// Copies the log segments of the database in `from` that `to` lacks or
/// holds at another length. Returns how many were copied.
fn copy_segments(from: &Path, to: &Path) -> std::io::Result<usize> {
    fs::create_dir_all(to.join("wal"))?;
    let mut copied = 0;
    for (_, seg) in list_segments(&from.join("wal"))? {
        let dest = to.join("wal").join(seg.file_name().expect("a listed segment has a name"));
        let changed = match fs::metadata(&dest) {
            Ok(held) => held.len() != fs::metadata(&seg)?.len(),
            Err(_) => true,
        };
        if changed {
            fs::copy(&seg, &dest)?;
            copied += 1;
        }
    }
    Ok(copied)
}

/// Lists generation numbers present in a backup directory.
pub fn list_generations(backup_dir: &Path) -> std::io::Result<Vec<u64>> {
    let mut out = Vec::new();
    if !backup_dir.exists() {
        return Ok(out);
    }
    for entry in fs::read_dir(backup_dir)? {
        let entry = entry?;
        if let Some(n) = entry
            .file_name()
            .to_string_lossy()
            .strip_prefix("generation-")
            .and_then(|s| s.parse::<u64>().ok())
        {
            out.push(n);
        }
    }
    out.sort();
    Ok(out)
}

/// Restores the latest generation from `backup_dir` into `target_dir` and
/// opens the recovered database.
pub fn restore(backup_dir: &Path, target_dir: &Path) -> Result<Db, DbError> {
    let generations = list_generations(backup_dir)?;
    let latest = generations
        .last()
        .ok_or_else(|| DbError::Storage("no generations in backup".to_string()))?;
    let gen_dir = backup_dir.join(format!("generation-{:04}", latest));
    copy_segments(&gen_dir, target_dir)?;
    Db::open(target_dir)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{Column, ColumnType, Schema};
    use crate::value::Value;

    fn tmpdir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "ceems-bkp-{}-{}-{}",
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

    fn schema() -> Schema {
        Schema::new(
            vec![
                Column::required("id", ColumnType::Int),
                Column::required("v", ColumnType::Real),
            ],
            "id",
            &[],
        )
        .unwrap()
    }

    #[test]
    fn replicate_and_restore() {
        let db_dir = tmpdir("src");
        let bk_dir = tmpdir("dst");
        let rs_dir = tmpdir("restored");

        let mut db = Db::open(&db_dir).unwrap();
        db.create_table("t", schema()).unwrap();
        let mut repl = Replicator::new(&db_dir, &bk_dir).unwrap();

        let mut total_copied = 0;
        for i in 0..10 {
            db.upsert("t", vec![Value::Int(i), Value::Real(i as f64)])
                .unwrap();
            if i % 3 == 0 {
                total_copied += repl.sync().unwrap();
            }
        }
        total_copied += repl.sync().unwrap();
        assert!(total_copied >= 1);
        // A sync with no intervening writes copies nothing.
        assert_eq!(repl.sync().unwrap(), 0);
        drop(db);

        let restored = restore(&bk_dir, &rs_dir).unwrap();
        assert_eq!(restored.table("t").unwrap().len(), 10);

        for d in [db_dir, bk_dir, rs_dir] {
            fs::remove_dir_all(d).unwrap();
        }
    }

    #[test]
    fn generations_advance() {
        let db_dir = tmpdir("gsrc");
        let bk_dir = tmpdir("gdst");
        let mut db = Db::open(&db_dir).unwrap();
        db.create_table("t", schema()).unwrap();
        let mut repl = Replicator::new(&db_dir, &bk_dir).unwrap();
        repl.sync().unwrap();
        assert_eq!(repl.generation(), 0);
        db.snapshot().unwrap();
        repl.new_generation().unwrap();
        repl.sync().unwrap();
        assert_eq!(repl.generation(), 1);
        assert_eq!(list_generations(&bk_dir).unwrap(), vec![0, 1]);

        // A fresh replicator resumes the latest generation.
        let repl2 = Replicator::new(&db_dir, &bk_dir).unwrap();
        assert_eq!(repl2.generation(), 1);

        fs::remove_dir_all(db_dir).unwrap();
        fs::remove_dir_all(bk_dir).unwrap();
    }

    #[test]
    fn restore_without_backup_fails() {
        let empty = tmpdir("none");
        let target = tmpdir("tgt");
        assert!(restore(&empty, &target).is_err());
        fs::remove_dir_all(empty).unwrap();
        fs::remove_dir_all(target).unwrap();
    }

    #[test]
    fn restore_survives_in_flight_writes() {
        // Sync mid-stream, write more, sync again; restore sees everything
        // because WAL segments are replayed idempotently.
        let db_dir = tmpdir("mid");
        let bk_dir = tmpdir("mid-bk");
        let rs_dir = tmpdir("mid-rs");
        let mut db = Db::open(&db_dir).unwrap();
        db.create_table("t", schema()).unwrap();
        let mut repl = Replicator::new(&db_dir, &bk_dir).unwrap();
        db.upsert("t", vec![Value::Int(1), Value::Real(1.0)]).unwrap();
        repl.sync().unwrap();
        db.upsert("t", vec![Value::Int(2), Value::Real(2.0)]).unwrap();
        repl.sync().unwrap();
        let restored = restore(&bk_dir, &rs_dir).unwrap();
        assert_eq!(restored.table("t").unwrap().len(), 2);
        for d in [db_dir, bk_dir, rs_dir] {
            fs::remove_dir_all(d).unwrap();
        }
    }
}
