//! The TSDB facade: append, select, delete, retention.
//!
//! The read path is two-phase. **Resolve** runs under the index read lock
//! just long enough to turn matchers into `(SeriesId, Arc<LabelSet>)` pairs
//! (consulting the generation-checked posting cache for scan-heavy matcher
//! shapes). **Materialize** then reads chunk data without any index lock,
//! on the calling thread. A query plan's read (`Tsdb::select_prepared`)
//! carries both over: resolution while no series is removed, each series'
//! window from a decode cursor.

use std::collections::HashMap;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use parking_lot::{Mutex, RwLock};

use ceems_metrics::labels::LabelSet;
use ceems_metrics::matcher::LabelMatcher;
use ceems_metrics::{Counter, Histogram};
use ceems_obs::trace;

use crate::cache::{cache_key, CacheStats, ShardedPostingCache};
use crate::head::{Head, SeriesStore, STRIPES};
use crate::index::LabelIndex;
use crate::par::{cores, fan_out};
use crate::promql::plan::{Basis, Followed, PreparedRead, Refresh, Window};
use crate::types::{Sample, SeriesData, SeriesId};
use crate::wal::{
    self, Check, Checkpoint, CheckpointView, EpochSpan, Interner, Wal, WalOptions, WalPosition,
    WalRecord,
};

/// TSDB configuration.
#[derive(Clone, Debug)]
pub struct TsdbConfig {
    /// Retention window in ms (samples older than `now - retention` are
    /// dropped by [`Tsdb::enforce_retention`]).
    pub retention_ms: i64,
    /// Not read by the TSDB: a select runs on the calling thread. Callers
    /// size [`crate::rules::RuleEngine::with_eval_threads`] from the same
    /// configured value.
    pub query_threads: usize,
    /// Capacity of the matcher-result posting cache (entries). `0` disables
    /// caching entirely.
    pub posting_cache_size: usize,
}

impl Default for TsdbConfig {
    fn default() -> Self {
        TsdbConfig {
            retention_ms: 30 * 24 * 3_600_000,
            query_threads: 4,
            posting_cache_size: 128,
        }
    }
}

/// Generation-invalidated cache of label-introspection results, so hot
/// dashboard endpoints (`/api/v1/labels`, `/api/v1/label/:name/values`)
/// stop re-collecting the whole posting key space per request.
#[derive(Debug, Default)]
struct LabelsCache {
    generation: u64,
    names: Option<Arc<Vec<String>>>,
    values: HashMap<String, Arc<Vec<String>>>,
}

impl LabelsCache {
    /// Drops cached results when the index generation moved.
    fn sync(&mut self, generation: u64) {
        if self.generation != generation {
            self.names = None;
            self.values.clear();
            self.generation = generation;
        }
    }
}

/// Latency instruments for the storage hot paths. Always present and
/// lock-free to record; a `/metrics` registry renders them via
/// [`crate::selfmon::TsdbCollector`]. Observation sites are chosen so the
/// per-sample ingest path pays nothing: ingest is timed per *batch* (one
/// observation per scrape pass), selects per call.
#[derive(Clone)]
pub struct TsdbInstruments {
    /// `append_batch` wall time (one group commit: WAL log + head apply).
    pub ingest_seconds: Histogram,
    /// Whole two-phase select wall time (resolve + materialize).
    pub select_seconds: Histogram,
    /// Phase-1 resolve wall time (index lock + posting cache).
    pub select_resolve_seconds: Histogram,
    /// One WAL group commit (`Wal::log`: encode + write + fsync policy).
    pub wal_append_seconds: Histogram,
    /// Stop-the-world checkpoint wall time.
    pub checkpoint_seconds: Histogram,
    /// Samples [`Tsdb::append_refs`] was handed by series id (a source's
    /// cache knew the line).
    pub series_ref_hits: Counter,
    /// Samples [`Tsdb::append_refs`] resolved by label set (new series,
    /// job churn, a cold cache).
    pub series_ref_misses: Counter,
    /// [`Tsdb::append_refs`] batches refused because a series removal had
    /// outdated the caller's ids.
    pub stale_ref_batches: Counter,
}

impl Default for TsdbInstruments {
    fn default() -> Self {
        TsdbInstruments {
            ingest_seconds: Histogram::new(Histogram::duration_buckets()),
            select_seconds: Histogram::new(Histogram::duration_buckets()),
            select_resolve_seconds: Histogram::new(Histogram::duration_buckets()),
            wal_append_seconds: Histogram::new(Histogram::duration_buckets()),
            checkpoint_seconds: Histogram::new(Histogram::duration_buckets()),
            series_ref_hits: Counter::new(),
            series_ref_misses: Counter::new(),
            stale_ref_batches: Counter::new(),
        }
    }
}

/// WAL attachment of a durable TSDB: the writer and its directory.
struct WalState {
    dir: PathBuf,
    /// The segmented writer. One [`Wal::log`] call under this lock is one
    /// group commit.
    wal: Mutex<Wal>,
    /// WAL write failures (the database keeps serving; durability is
    /// degraded and the counter surfaces it).
    errors: AtomicU64,
}

/// Leadership-epoch state (S24): the current epoch plus the history of
/// `(epoch, start_records)` spans, durable via `EpochBump` WAL records and
/// checkpoint fields.
#[derive(Debug, Clone)]
struct EpochState {
    epoch: u64,
    history: Vec<EpochSpan>,
}

impl Default for EpochState {
    fn default() -> Self {
        EpochState {
            epoch: 0,
            history: vec![EpochSpan { epoch: 0, start_records: 0 }],
        }
    }
}

/// An append was rejected because it carried a stale leadership epoch —
/// the writer was fenced by a newer leader's durable epoch bump.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StaleEpoch {
    /// The epoch the write carried.
    pub write_epoch: u64,
    /// The database's current epoch.
    pub current_epoch: u64,
}

impl std::fmt::Display for StaleEpoch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "stale-epoch: write at epoch {} fenced by epoch {}",
            self.write_epoch, self.current_epoch
        )
    }
}

/// How [`Tsdb::append_refs`] names the series of a sample.
#[derive(Clone, Debug, PartialEq)]
pub enum SeriesRef {
    /// An id an earlier `append_refs` on the same database returned; valid
    /// while [`Tsdb::ref_token`] reads what it read then.
    Id(SeriesId),
    /// The label set (it must include `__name__`); looked up, created on
    /// first sight.
    Labels(LabelSet),
}

/// What the series ids a database handed out are valid under: which
/// database it is, and how many times it has removed series. Ids from one
/// token must not be used under another.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RefToken {
    instance: u64,
    removals: u64,
}

/// Why [`Tsdb::append_refs`] wrote nothing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RefError {
    /// The token is not the database's current one: the ids in the batch
    /// may name removed series, or another database's.
    Stale,
    /// The write carried a stale leadership epoch.
    Fenced(StaleEpoch),
}

/// Replayed samples applied at a time: the batch, at 24 bytes a sample,
/// stays within a few times a segment's size.
const REPLAY_BATCH: usize = 1 << 18;

/// Replayed samples a thread is started for. Fewer take less time to
/// append than starting a thread costs (≈ 0.5 ms on the 2-vCPU container);
/// the owners' shares are then appended one after another on the calling
/// thread.
const REPLAY_THREAD_SAMPLES: usize = 1 << 14;

/// Distinguishes the databases of one process in a [`RefToken`].
static NEXT_INSTANCE: AtomicU64 = AtomicU64::new(0);

/// The time series database.
pub struct Tsdb {
    /// Appenders hold `read` across (log record → apply to head); the
    /// checkpointer and every series removal hold `write`. So a checkpoint
    /// never snapshots a record logged but not yet applied, WAL log order
    /// equals head apply order, and `removals` cannot move while an
    /// appender that compared it is still writing.
    gate: RwLock<()>,
    instance: u64,
    /// Times series were removed (delete, retention, resync, replayed
    /// tombstones). Written under `gate.write()` only.
    removals: AtomicU64,
    index: RwLock<LabelIndex>,
    head: Head,
    config: TsdbConfig,
    posting_cache: ShardedPostingCache,
    labels_cache: RwLock<LabelsCache>,
    appended: AtomicU64,
    out_of_order: AtomicU64,
    /// Durability attachment; `None` for the in-memory-only database.
    wal: Option<WalState>,
    /// A follower's view of the leader position it has applied up to;
    /// reported to the LB in place of the local WAL position.
    upstream_pos: Mutex<Option<WalPosition>>,
    /// Leadership epoch + history (S24).
    epoch_state: Mutex<EpochState>,
    /// Whether this node currently serves writes. A standalone database is
    /// its own leader; the failover coordinator flips this on promotion and
    /// demotion.
    leader: std::sync::atomic::AtomicBool,
    /// Appends rejected for carrying a stale epoch.
    fenced_writes: AtomicU64,
    instruments: TsdbInstruments,
}

impl Default for Tsdb {
    fn default() -> Self {
        Self::new(TsdbConfig::default())
    }
}

impl Tsdb {
    /// Creates an empty in-memory TSDB (no WAL).
    pub fn new(config: TsdbConfig) -> Tsdb {
        Tsdb {
            gate: RwLock::new(()),
            instance: NEXT_INSTANCE.fetch_add(1, Ordering::Relaxed),
            removals: AtomicU64::new(0),
            index: RwLock::new(LabelIndex::new()),
            head: Head::default(),
            posting_cache: ShardedPostingCache::new(config.posting_cache_size),
            labels_cache: RwLock::new(LabelsCache::default()),
            config,
            appended: AtomicU64::new(0),
            out_of_order: AtomicU64::new(0),
            wal: None,
            upstream_pos: Mutex::new(None),
            epoch_state: Mutex::new(EpochState::default()),
            leader: std::sync::atomic::AtomicBool::new(true),
            fenced_writes: AtomicU64::new(0),
            instruments: TsdbInstruments::default(),
        }
    }

    /// The storage latency instruments (shared handles; clone freely).
    pub fn instruments(&self) -> &TsdbInstruments {
        &self.instruments
    }

    /// Opens (or creates) a durable TSDB backed by a WAL directory.
    ///
    /// Recovery loads the newest valid checkpoint, replays every segment at
    /// or after the sequence it covers, truncates a torn tail if the last
    /// write was interrupted, and attaches the writer at the replay end —
    /// head, index (including ids, generation, and tombstone effects), and
    /// counters come back exactly as they were. It runs on
    /// `available_parallelism` threads, and all of it is done on return.
    pub fn open(dir: impl AsRef<Path>, opts: WalOptions, config: TsdbConfig) -> io::Result<Tsdb> {
        Self::open_on(dir.as_ref(), opts, config, cores())
    }

    /// [`Self::open`] on at most `workers` threads; with one, everything
    /// runs on the calling thread. Each label string is decoded once, for
    /// the checkpoint and the log alike.
    fn open_on(
        dir: &Path,
        opts: WalOptions,
        config: TsdbConfig,
        workers: usize,
    ) -> io::Result<Tsdb> {
        fs::create_dir_all(dir)?;
        let mut names = Interner::default();
        let mut restored = None;
        for (_, path) in wal::list_checkpoints(dir)?.into_iter().rev() {
            let bytes = fs::read(&path)?;
            let Some(view) = CheckpointView::parse(&bytes, &mut names) else {
                continue;
            };
            // A checkpoint that fails a check leaves part of itself behind:
            // the next one goes into a database of its own.
            let db = Tsdb::new(config.clone());
            if db.restore(&view, workers) {
                let start = WalPosition {
                    seq: view.header.covers_seq,
                    offset: 0,
                    records: view.header.records,
                };
                restored = Some((db, start));
                break;
            }
        }
        let (mut db, start) =
            restored.unwrap_or_else(|| (Tsdb::new(config), WalPosition::default()));

        // Replay the segments after it. A torn or corrupt frame ends the
        // log: the writer cuts its segment there and deletes later segments,
        // so it resumes on a clean frame boundary.
        let end = db.replay(dir, start, workers, &mut names)?;
        let writer = Wal::open_at(dir, opts, end)?;
        db.wal = Some(WalState {
            dir: dir.to_path_buf(),
            wal: Mutex::new(writer),
            errors: AtomicU64::new(0),
        });
        Ok(db)
    }

    /// Puts a checkpoint into this new database on at most `workers`
    /// threads. One registers the series in the index, in id order; the
    /// others (and it, once done) check the CRC and decode ranges of series
    /// straight into the head. `false` when a check failed: the database
    /// then holds part of the checkpoint and is to be dropped.
    fn restore(&self, view: &CheckpointView<'_>, workers: usize) -> bool {
        enum Part {
            Index,
            Check(Check),
        }
        let checks = view.checks();
        // As `decode_checkpoint`: a checkpoint of one range is restored on
        // the calling thread, where starting another costs more than it
        // saves.
        let threads = workers.min(checks.len() - 1);
        let checks = checks.into_iter().map(Part::Check);
        let parts: Vec<Part> = std::iter::once(Part::Index).chain(checks).collect();
        let passed = fan_out(
            &parts,
            threads,
            || true,
            |passed, part| {
                *passed &= match part {
                    Part::Index => {
                        let mut idx = self.index.write();
                        for (id, labels) in &view.series {
                            idx.insert_replayed(*id, Arc::clone(labels));
                        }
                        idx.set_next_id(view.header.next_id);
                        idx.set_generation(view.header.generation);
                        true
                    }
                    Part::Check(Check::Crc) => view.crc_ok(),
                    Part::Check(Check::Series(range)) => range.clone().all(|i| {
                        let Some(store) = view.store(i) else {
                            return false;
                        };
                        if store.sample_count() > 0 {
                            self.head.install(view.series[i].0, store);
                        }
                        true
                    }),
                }
            },
        );
        if !passed.into_iter().all(|passed| passed) {
            return false;
        }
        let header = &view.header;
        self.appended.store(header.appended, Ordering::Relaxed);
        self.out_of_order
            .store(header.out_of_order, Ordering::Relaxed);
        let mut es = self.epoch_state.lock();
        es.epoch = header.epoch;
        if !header.epoch_history.is_empty() {
            es.history = header.epoch_history.clone();
        }
        true
    }

    /// Replays the log in `dir` from `start` on at most `workers` threads
    /// and returns where it ends. The calling thread reads and checks each
    /// frame, and applies in log order the series creations (to the index)
    /// and the epoch bumps. Samples gather until a tombstone or a retention
    /// cut, the end of the log or [`REPLAY_BATCH`] of them; then each worker
    /// applies those in the head stripes it owns, stripe by stripe, before
    /// the removal is applied.
    fn replay(
        &self,
        dir: &Path,
        start: WalPosition,
        workers: usize,
        names: &mut Interner,
    ) -> io::Result<WalPosition> {
        let mut idx = self.index.write();
        let mut samples = Vec::new();
        let end = wal::walk_log(dir, start, names, |at, rec| match rec {
            WalRecord::SeriesCreate { id, labels } => idx.insert_replayed(id, Arc::new(labels)),
            // Epoch bumps replay with their exact log position so the
            // restored history matches what the leader wrote.
            WalRecord::EpochBump { epoch } => self.observe_epoch(epoch, at.records),
            WalRecord::Samples(batch) => {
                samples.extend(batch);
                if samples.len() >= REPLAY_BATCH {
                    self.apply_replayed(&mut samples, workers);
                }
            }
            rec @ (WalRecord::Tombstone(_) | WalRecord::Retention { .. }) => {
                self.apply_replayed(&mut samples, workers);
                self.apply_removal(&mut idx, &rec);
            }
        })?;
        self.apply_replayed(&mut samples, workers);
        Ok(end.at)
    }

    /// Applies replayed samples for `workers` owners, each of a fixed run of
    /// head stripes ([`Head::append_owned`]), on as many threads as there
    /// are [`REPLAY_THREAD_SAMPLES`] to go round, and empties `samples`.
    fn apply_replayed(&self, samples: &mut Vec<(SeriesId, i64, f64)>, workers: usize) {
        if samples.is_empty() {
            return;
        }
        let owners: Vec<usize> = (0..workers.clamp(1, STRIPES)).collect();
        let threads = owners.len().min(samples.len() / REPLAY_THREAD_SAMPLES);
        let counts = fan_out(
            &owners,
            threads,
            || (0, 0),
            |counts, &owner| {
                let (owned, appended) = self.head.append_owned(owner, owners.len(), samples);
                *counts = (counts.0 + owned, counts.1 + appended);
            },
        );
        let (owned, appended) = counts
            .into_iter()
            .fold((0, 0), |a, c| (a.0 + c.0, a.1 + c.1));
        self.appended.fetch_add(appended, Ordering::Relaxed);
        self.out_of_order
            .fetch_add(owned - appended, Ordering::Relaxed);
        samples.clear();
    }

    /// Logs records to the WAL if one is attached. Write errors are counted
    /// and swallowed: ingest availability beats durability here, and the
    /// error counter lets operators alarm on it.
    fn log_wal(&self, recs: &[WalRecord]) {
        if let Some(ws) = &self.wal {
            let start = Instant::now();
            if ws.wal.lock().log(recs).is_err() {
                ws.errors.fetch_add(1, Ordering::Relaxed);
            }
            self.instruments
                .wal_append_seconds
                .observe(start.elapsed().as_secs_f64());
        }
    }

    /// Resolves a label set to its series id, creating (and WAL-logging the
    /// creation of) the series on first sight. The create record is logged
    /// *inside* the index write-lock critical section so no concurrent
    /// appender can log samples for an id before its create record.
    fn resolve_or_create_id(&self, labels: &LabelSet) -> SeriesId {
        // Hash the label set once; both the read-path lookup and the
        // slow-path create reuse the fingerprint.
        let fp = labels.fingerprint();
        if let Some(id) = self.index.read().lookup_with_fingerprint(labels, fp) {
            return id;
        }
        let mut idx = self.index.write();
        if let Some(id) = idx.lookup_with_fingerprint(labels, fp) {
            return id; // lost the create race; the winner logged it
        }
        let id = idx.get_or_create_with_fingerprint(labels, fp);
        self.log_wal(&[WalRecord::SeriesCreate {
            id,
            labels: labels.clone(),
        }]);
        id
    }

    /// Applies resolved samples to the head, maintaining the counters.
    fn apply_samples(&self, samples: &[(SeriesId, i64, f64)]) {
        let mut appended = 0;
        for &(id, t_ms, v) in samples {
            appended += u64::from(self.head.append(id, Sample::new(t_ms, v)).is_ok());
        }
        self.appended.fetch_add(appended, Ordering::Relaxed);
        self.out_of_order
            .fetch_add(samples.len() as u64 - appended, Ordering::Relaxed);
    }

    /// Appends one sample for a label set (the set must include
    /// `__name__`). Out-of-order samples are counted and dropped.
    pub fn append(&self, labels: &LabelSet, t_ms: i64, v: f64) {
        let _gate = self.gate.read();
        let id = self.resolve_or_create_id(labels);
        if self.wal.is_some() {
            self.log_wal(&[WalRecord::Samples(vec![(id, t_ms, v)])]);
        }
        self.apply_samples(&[(id, t_ms, v)]);
    }

    /// Logs resolved samples as one WAL `Samples` record — one writer
    /// lock, one `write`, at most one fsync — and applies them to the head.
    /// The caller holds `gate.read()` and times the batch from `start`.
    fn commit_samples(&self, samples: Vec<(SeriesId, i64, f64)>, start: Instant) {
        let rec = WalRecord::Samples(samples);
        self.log_wal(std::slice::from_ref(&rec));
        let WalRecord::Samples(samples) = rec else {
            unreachable!()
        };
        self.apply_samples(&samples);
        self.instruments
            .ingest_seconds
            .observe(start.elapsed().as_secs_f64());
    }

    /// Appends a batch of samples as one group commit: every series id is
    /// resolved, then the whole batch becomes a single WAL record before
    /// being applied to the head.
    pub fn append_batch(&self, batch: &[(LabelSet, i64, f64)]) {
        if batch.is_empty() {
            return;
        }
        let start = Instant::now();
        let _gate = self.gate.read();
        let samples = batch
            .iter()
            .map(|(labels, t_ms, v)| (self.resolve_or_create_id(labels), *t_ms, *v))
            .collect();
        self.commit_samples(samples, start);
    }

    /// Rejects — and counts — a write whose leadership-epoch stamp does not
    /// match the database's current epoch (S24), so a deposed leader (or
    /// traffic still routed through one) can never land writes past the
    /// fence.
    fn check_fence(&self, epoch: u64) -> Result<(), StaleEpoch> {
        let current = self.current_epoch();
        if epoch != current || !self.is_leader() {
            self.fenced_writes.fetch_add(1, Ordering::Relaxed);
            return Err(StaleEpoch {
                write_epoch: epoch,
                current_epoch: current,
            });
        }
        Ok(())
    }

    /// Appends a batch stamped with the writer's believed leadership epoch.
    /// A stamp that is not the database's current epoch is refused and
    /// counted (a deposed leader cannot write past the fence).
    pub fn append_batch_fenced(
        &self,
        epoch: u64,
        batch: &[(LabelSet, i64, f64)],
    ) -> Result<(), StaleEpoch> {
        self.check_fence(epoch)?;
        self.append_batch(batch);
        Ok(())
    }

    /// The token series ids returned by [`Self::append_refs`] are valid
    /// under right now.
    pub fn ref_token(&self) -> RefToken {
        RefToken {
            instance: self.instance,
            removals: self.removals.load(Ordering::SeqCst),
        }
    }

    /// Counts one removal of series; the caller holds `gate.write()`, so no
    /// appender that compared the old count is still writing.
    fn note_removal(&self) {
        self.removals.fetch_add(1, Ordering::SeqCst);
    }

    /// [`Self::append_batch`] for a writer that remembers series ids: the
    /// same single group commit in the order given, with [`SeriesRef::Id`]
    /// samples skipping the label-set lookup. Returns the ids the
    /// [`SeriesRef::Labels`] samples resolved to, in order, for the caller
    /// to remember under `token`.
    ///
    /// `token` must be the [`Self::ref_token`] the batch's ids were returned
    /// under. It is compared under the gate series removals hold
    /// exclusively; when it is not current nothing is written and the
    /// caller must forget its ids. `epoch`, when given, fences the write as
    /// [`Self::append_batch_fenced`] does.
    pub fn append_refs(
        &self,
        token: RefToken,
        epoch: Option<u64>,
        refs: &[(SeriesRef, i64, f64)],
    ) -> Result<Vec<SeriesId>, RefError> {
        if let Some(epoch) = epoch {
            self.check_fence(epoch).map_err(RefError::Fenced)?;
        }
        let ins = &self.instruments;
        let resolved = self
            .commit_refs(token, refs)
            .inspect_err(|_| ins.stale_ref_batches.inc())?;
        ins.series_ref_hits.add((refs.len() - resolved.len()) as f64);
        ins.series_ref_misses.add(resolved.len() as f64);
        Ok(resolved)
    }

    /// [`Self::append_refs`] without an epoch and outside the ingest
    /// counters: how the rule engine writes its outputs.
    pub(crate) fn commit_refs(
        &self,
        token: RefToken,
        refs: &[(SeriesRef, i64, f64)],
    ) -> Result<Vec<SeriesId>, RefError> {
        let start = Instant::now();
        let _gate = self.gate.read();
        if token != self.ref_token() {
            return Err(RefError::Stale);
        }
        let mut resolved = Vec::new();
        let samples: Vec<(SeriesId, i64, f64)> = refs
            .iter()
            .map(|(series, t_ms, v)| {
                let id = match series {
                    SeriesRef::Id(id) => *id,
                    SeriesRef::Labels(labels) => {
                        let id = self.resolve_or_create_id(labels);
                        resolved.push(id);
                        id
                    }
                };
                (id, *t_ms, *v)
            })
            .collect();
        if !samples.is_empty() {
            self.commit_samples(samples, start);
        }
        Ok(resolved)
    }

    /// Applies one replayed/streamed record without logging it (recovery).
    fn apply_record(&self, rec: &WalRecord) {
        match rec {
            WalRecord::SeriesCreate { id, labels } => {
                self.index
                    .write()
                    .insert_replayed(*id, Arc::new(labels.clone()));
            }
            WalRecord::Samples(samples) => self.apply_samples(samples),
            WalRecord::Tombstone(_) | WalRecord::Retention { .. } => {
                self.apply_removal(&mut self.index.write(), rec)
            }
            WalRecord::EpochBump { epoch } => {
                // Streamed from a leader: adopt the epoch at the position
                // this follower has applied up to (leader record units).
                let at = self.reported_wal_position().records;
                self.observe_epoch(*epoch, at);
            }
        }
    }

    /// Applies a replayed or streamed tombstone or retention cut under the
    /// index lock the caller holds. Other records remove nothing.
    fn apply_removal(&self, idx: &mut LabelIndex, rec: &WalRecord) {
        match rec {
            WalRecord::Tombstone(ids) => {
                self.note_removal();
                for &id in ids {
                    self.head.remove(id);
                    idx.remove(id);
                }
            }
            WalRecord::Retention { cutoff_ms } => {
                let emptied = self.head.drop_before(*cutoff_ms);
                if !emptied.is_empty() {
                    self.note_removal();
                }
                for &id in &emptied {
                    idx.remove(id);
                }
            }
            _ => {}
        }
    }

    /// Applies records streamed from a leader (replica catch-up). They are
    /// logged to the local WAL first when one is attached, so a follower is
    /// itself durable and can serve further followers.
    pub fn apply_wal_records(&self, recs: &[WalRecord]) {
        if recs.is_empty() {
            return;
        }
        // A record that removes series needs the gate to itself, like the
        // local removals: an appender must not be writing to ids it drops.
        let removes = recs
            .iter()
            .any(|r| matches!(r, WalRecord::Tombstone(_) | WalRecord::Retention { .. }));
        let (_shared, _exclusive) = match removes {
            true => (None, Some(self.gate.write())),
            false => (Some(self.gate.read()), None),
        };
        // Streamed epoch bumps are pinned to their exact position in leader
        // record units (record `i` of this batch is leader record `base+i`)
        // so a promoted follower's epoch history is byte-accurate for
        // rejoin truncation.
        let base = self.reported_wal_position().records;
        self.log_wal(recs);
        for (i, rec) in recs.iter().enumerate() {
            if let WalRecord::EpochBump { epoch } = rec {
                self.observe_epoch(*epoch, base + i as u64);
            } else {
                self.apply_record(rec);
            }
        }
    }

    /// Phase 1 of the read path: matchers → `(id, labels)` pairs, holding
    /// the index read lock only for id resolution. Label sets are `Arc`
    /// clones of the registry's, never deep copies.
    fn resolve(&self, matchers: &[LabelMatcher]) -> Vec<(SeriesId, Arc<LabelSet>)> {
        self.resolve_in(&self.index.read(), matchers)
    }

    /// [`Self::resolve`] under an index lock the caller holds.
    fn resolve_in(
        &self,
        idx: &LabelIndex,
        matchers: &[LabelMatcher],
    ) -> Vec<(SeriesId, Arc<LabelSet>)> {
        let ids: Arc<Vec<SeriesId>> = match cache_key(matchers) {
            Some(key) if self.config.posting_cache_size > 0 => {
                // The generation is read under the same index read lock the
                // ids are resolved under, so a cached entry is exactly the
                // resolution the live index would produce.
                let generation = idx.generation();
                match self.posting_cache.get(&key, generation) {
                    Some(ids) => ids,
                    None => {
                        let ids = Arc::new(idx.select(matchers));
                        self.posting_cache.insert(key, generation, Arc::clone(&ids));
                        ids
                    }
                }
            }
            _ => Arc::new(idx.select(matchers)),
        };
        ids.iter()
            .filter_map(|&id| idx.labels(id).map(|l| (id, Arc::clone(l))))
            .collect()
    }

    /// Selects series matching `matchers` with samples in `[tmin, tmax]`.
    /// Series with no samples in range are omitted.
    pub fn select(&self, matchers: &[LabelMatcher], tmin: i64, tmax: i64) -> Vec<SeriesData> {
        let t0 = Instant::now();
        let resolved = self.resolve(matchers);
        let t1 = Instant::now();
        let out: Vec<SeriesData> = resolved
            .into_iter()
            .filter_map(|(id, labels)| {
                let samples = self.head.read(id, tmin, tmax);
                (!samples.is_empty()).then_some(SeriesData { labels, samples })
            })
            .collect();
        let samples = out.iter().map(|s| s.samples.len() as u64).sum();
        self.note_select(t0, t1, out.len() as u64, samples);
        out
    }

    /// Books one select: the two latency histograms and the trace counts.
    fn note_select(&self, t0: Instant, resolved_at: Instant, series: u64, samples: u64) {
        let ins = &self.instruments;
        ins.select_resolve_seconds
            .observe((resolved_at - t0).as_secs_f64());
        ins.select_seconds.observe(t0.elapsed().as_secs_f64());
        if let Some(t) = trace::current() {
            t.add_count("selects", 1);
            t.add_count("series", series);
            t.add_count("samples", samples);
        }
    }

    /// The last sample in `[tmin, tmax]` of each matching series, in
    /// [`Self::select`]'s order, series without one omitted — what an
    /// instant selector reads. A window that reaches a series' newest
    /// sample decodes nothing ([`crate::head::SeriesStore::last_in`]).
    pub fn select_instant(
        &self,
        matchers: &[LabelMatcher],
        tmin: i64,
        tmax: i64,
    ) -> Vec<(Arc<LabelSet>, Sample)> {
        let t0 = Instant::now();
        let resolved = self.resolve(matchers);
        let t1 = Instant::now();
        let out: Vec<(Arc<LabelSet>, Sample)> = resolved
            .into_iter()
            .filter_map(|(id, labels)| Some((labels, self.head.last_in(id, tmin, tmax)?)))
            .collect();
        self.note_select(t0, t1, out.len() as u64, out.len() as u64);
        out
    }

    /// Brings one selector window of a [`crate::promql::PreparedQuery`] up to
    /// `[tmin, tmax]`: afterwards the read holds what [`Self::select`] (a
    /// read of last samples: [`Self::select_instant`]) returns for that
    /// window. A read of this database is carried over while its
    /// [`Self::ref_token`] holds and, for a range read, its window only
    /// moved forward: the series created since are taken in from the tail
    /// of the selector's `__name__` posting list, and each series reads on
    /// from its cursor, decoding only what was appended. Anything else is
    /// resolved and read from scratch.
    pub(crate) fn select_prepared(&self, read: &mut PreparedRead, tmin: i64, tmax: i64) -> Refresh {
        let t0 = Instant::now();
        let refresh = {
            // Under the gate no removal is half done: the token and the
            // index agree.
            let _gate = self.gate.read();
            let idx = self.index.read();
            let now = Basis {
                token: self.ref_token(),
                next_id: idx.next_id(),
                backfills: idx.backfills(),
            };
            let carried = read.basis.filter(|then| {
                (then.token, then.backfills) == (now.token, now.backfills)
                    && (read.latest || (read.tmin <= tmin && read.tmax <= tmax))
            });
            let added = match (carried, read.metric_name()) {
                (Some(then), _) if then.next_id == now.next_id => Some(Vec::new()),
                (Some(then), Some(name)) => {
                    Some(idx.select_since(name, &read.matchers, then.next_id))
                }
                _ => None,
            };
            // What was read of a series still followed holds while the
            // window only moved forward, in this database.
            let forward =
                read.basis.is_some() && !read.latest && read.tmin <= tmin && read.tmax <= tmax;
            read.basis = Some(now);
            match added {
                Some(ids) if ids.is_empty() => Refresh::Reused,
                Some(ids) => {
                    let labelled = |id| Some(Followed::new(id, Arc::clone(idx.labels(id)?)));
                    read.series.extend(ids.into_iter().filter_map(labelled));
                    Refresh::Extended
                }
                None => {
                    read.follow(self.resolve_in(&idx, &read.matchers), forward);
                    Refresh::Rebuilt
                }
            }
        };
        let resolved_at = Instant::now();
        let (mut series, mut samples) = (0, 0);
        if read.latest {
            for f in &mut read.series {
                f.last = self.head.last_in(f.id, tmin, tmax);
                series += u64::from(f.last.is_some());
            }
            samples = series;
        } else {
            read.held.resize_with(read.series.len(), Window::default);
            for (f, w) in read.series.iter().zip(&mut read.held) {
                let went_on = match &mut w.cursor {
                    Some(cursor) => self.head.read_on(f.id, cursor, tmax, &mut w.samples),
                    None => false,
                };
                if !went_on {
                    w.samples.clear();
                    w.start = 0;
                    w.cursor = self.head.read_window(f.id, tmin, tmax, &mut w.samples);
                }
                w.trim(tmin);
                let n = (w.samples.len() - w.start) as u64;
                (series, samples) = (series + u64::from(n > 0), samples + n);
            }
        }
        (read.tmin, read.tmax) = (tmin, tmax);
        self.note_select(t0, resolved_at, series, samples);
        refresh
    }

    /// Latest sample per matching series (used by instant queries without a
    /// lookback window and by dashboards).
    pub fn select_latest(&self, matchers: &[LabelMatcher]) -> Vec<(Arc<LabelSet>, Sample)> {
        self.select_instant(matchers, i64::MIN, i64::MAX)
    }

    /// Deletes matching series outright (the §II.C cardinality cleanup:
    /// CEEMS removes metrics of workloads shorter than a cutoff).
    /// Returns how many series were deleted.
    pub fn delete_series(&self, matchers: &[LabelMatcher]) -> usize {
        let _gate = self.gate.write();
        let mut idx = self.index.write();
        let ids = idx.select(matchers);
        if !ids.is_empty() && self.wal.is_some() {
            // Logged under the index write lock: no appender can interleave
            // a create/sample record for these ids before the tombstone.
            self.log_wal(&[WalRecord::Tombstone(ids.clone())]);
        }
        if !ids.is_empty() {
            self.note_removal();
        }
        for &id in &ids {
            self.head.remove(id);
            idx.remove(id);
        }
        ids.len()
    }

    /// Drops data older than `now_ms - retention`; unregisters series left
    /// empty. Returns the number of series removed.
    pub fn enforce_retention(&self, now_ms: i64) -> usize {
        let cutoff = now_ms - self.config.retention_ms;
        let _gate = self.gate.write();
        if self.wal.is_some() {
            self.log_wal(&[WalRecord::Retention { cutoff_ms: cutoff }]);
        }
        let emptied = self.head.drop_before(cutoff);
        if !emptied.is_empty() {
            self.note_removal();
        }
        let mut idx = self.index.write();
        for &id in &emptied {
            idx.remove(id);
        }
        emptied.len()
    }

    /// Live series count (the cardinality the paper worries about).
    pub fn series_count(&self) -> usize {
        self.index.read().series_count()
    }

    /// Total samples successfully appended.
    pub fn samples_appended(&self) -> u64 {
        self.appended.load(Ordering::Relaxed)
    }

    /// Out-of-order samples dropped.
    pub fn out_of_order_dropped(&self) -> u64 {
        self.out_of_order.load(Ordering::Relaxed)
    }

    /// All label names, shared from a generation-invalidated cache. The
    /// cached path takes only shared locks, so concurrent introspection
    /// requests never serialize on each other.
    pub fn label_names(&self) -> Arc<Vec<String>> {
        let idx = self.index.read();
        let generation = idx.generation();
        {
            let cache = self.labels_cache.read();
            if cache.generation == generation {
                if let Some(names) = &cache.names {
                    return Arc::clone(names);
                }
            }
        }
        let names = Arc::new(idx.label_names());
        let mut cache = self.labels_cache.write();
        cache.sync(generation);
        cache.names = Some(Arc::clone(&names));
        names
    }

    /// All values of a label, shared from a generation-invalidated cache.
    /// Only names that exist in the index are cached: arbitrary client
    /// queries for bogus label names must not grow the map unboundedly
    /// between generation bumps.
    pub fn label_values(&self, name: &str) -> Arc<Vec<String>> {
        let idx = self.index.read();
        let generation = idx.generation();
        {
            let cache = self.labels_cache.read();
            if cache.generation == generation {
                if let Some(values) = cache.values.get(name) {
                    return Arc::clone(values);
                }
            }
        }
        let values = Arc::new(idx.label_values(name));
        if !values.is_empty() {
            let mut cache = self.labels_cache.write();
            cache.sync(generation);
            cache.values.insert(name.to_string(), Arc::clone(&values));
        }
        values
    }

    /// Number of label-value result sets currently cached (test hook for
    /// the bogus-name bound).
    #[cfg(test)]
    fn cached_label_value_sets(&self) -> usize {
        self.labels_cache.read().values.len()
    }

    /// Head series the index does not know (test hook: an append to a
    /// removed id would leave one).
    #[cfg(test)]
    pub(crate) fn orphan_head_series(&self) -> usize {
        let idx = self.index.read();
        let head = self.head.snapshot();
        head.iter().filter(|(id, _)| idx.labels(*id).is_none()).count()
    }

    /// Posting-cache hit/miss counters (aggregated over shards).
    pub fn posting_cache_stats(&self) -> CacheStats {
        self.posting_cache.stats()
    }

    /// Approximate compressed bytes held in the head.
    pub fn storage_bytes(&self) -> usize {
        self.head.byte_len()
    }

    // -- Leadership epochs / failover (S24) ---------------------------------

    /// The current leadership epoch.
    pub fn current_epoch(&self) -> u64 {
        self.epoch_state.lock().epoch
    }

    /// The epoch history: each epoch and the monotone record count at which
    /// it began. A rejoining old leader truncates its WAL to the successor
    /// epoch's `start_records` — everything past it was never replicated
    /// (never acknowledged) and is divergent.
    pub fn epoch_history(&self) -> Vec<EpochSpan> {
        self.epoch_state.lock().history.clone()
    }

    /// Whether this node currently serves writes.
    pub fn is_leader(&self) -> bool {
        self.leader.load(Ordering::Relaxed)
    }

    /// Flips the leader flag (failover coordinator only).
    pub fn set_leader(&self, leader: bool) {
        self.leader.store(leader, Ordering::Relaxed);
    }

    /// Appends rejected for carrying a stale epoch.
    pub fn fenced_writes(&self) -> u64 {
        self.fenced_writes.load(Ordering::Relaxed)
    }

    /// Adopts a newer epoch observed in the record stream (replay or
    /// follower catch-up). Older or equal epochs are ignored.
    fn observe_epoch(&self, epoch: u64, start_records: u64) {
        let mut es = self.epoch_state.lock();
        if epoch > es.epoch {
            es.epoch = epoch;
            es.history.push(EpochSpan {
                epoch,
                start_records,
            });
        }
    }

    /// Durably advances the leadership epoch (promotion). The bump record
    /// is logged and fsynced *before* the state flips, so the fence
    /// survives a crash: a rejoining deposed leader always finds the bump
    /// in the successor's history. `start_records` is the replicated
    /// record count the new epoch begins at (the promoted follower's
    /// caught-up position). Errors if `new_epoch` does not advance.
    pub fn bump_epoch(&self, new_epoch: u64, start_records: u64) -> io::Result<u64> {
        let _gate = self.gate.write();
        {
            let es = self.epoch_state.lock();
            if new_epoch <= es.epoch {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidInput,
                    format!("epoch must advance: {} -> {new_epoch}", es.epoch),
                ));
            }
        }
        if let Some(ws) = &self.wal {
            let mut w = ws.wal.lock();
            w.log(&[WalRecord::EpochBump { epoch: new_epoch }])?;
            w.sync()?;
        }
        let mut es = self.epoch_state.lock();
        es.epoch = new_epoch;
        es.history.push(EpochSpan {
            epoch: new_epoch,
            start_records,
        });
        Ok(new_epoch)
    }

    /// Maps a monotone record count to this node's on-disk WAL position
    /// (S24 rejoin: a truncated old leader resumes catch-up at the record
    /// count it kept, but the new leader's segment layout differs). `None`
    /// when the count predates the newest checkpoint (segments GC'd — the
    /// rejoiner must re-bootstrap) or lies past the log end.
    pub fn locate_records(&self, target: u64) -> io::Result<Option<WalPosition>> {
        let ws = self
            .wal
            .as_ref()
            .ok_or_else(|| io::Error::new(io::ErrorKind::Unsupported, "no WAL attached"))?;
        let _gate = self.gate.write();
        let start = wal::log_start(&ws.dir)?;
        if start.records > target {
            return Ok(None);
        }
        let mut found = None;
        let end = wal::walk_log(&ws.dir, start, &mut Interner::default(), |at, _| {
            if at.records == target {
                found = Some(at);
            }
        })?;
        Ok(found.or((end.at.records == target).then_some(end.at)))
    }

    // -- WAL / durability ---------------------------------------------------

    /// Whether a WAL is attached.
    pub fn wal_enabled(&self) -> bool {
        self.wal.is_some()
    }

    /// WAL write failures since open (0 when no WAL).
    pub fn wal_errors(&self) -> u64 {
        self.wal
            .as_ref()
            .map_or(0, |w| w.errors.load(Ordering::Relaxed))
    }

    /// Installs a disk-fault injector on the attached WAL (chaos testing).
    /// No-op when the database runs without a WAL.
    pub fn set_wal_disk_faults(&self, faults: std::sync::Arc<dyn crate::wal::DiskFaults>) {
        if let Some(ws) = &self.wal {
            ws.wal.lock().set_disk_faults(faults);
        }
    }

    /// Fsync telemetry since open: `(calls, cumulative_seconds)`; zeros when
    /// no WAL is attached.
    pub fn wal_sync_stats(&self) -> (u64, f64) {
        match &self.wal {
            Some(ws) => {
                let (calls, ns) = ws.wal.lock().sync_stats();
                (calls, ns as f64 / 1e9)
            }
            None => (0, 0.0),
        }
    }

    /// Drops every live series (tombstoning them in the local WAL when one
    /// is attached), returning how many were dropped. Used by a follower
    /// re-bootstrapping after its catch-up segment was garbage-collected on
    /// the leader: checkpoint bootstrap requires an empty database.
    pub fn clear_for_resync(&self) -> usize {
        let _gate = self.gate.write();
        let mut idx = self.index.write();
        let ids: Vec<SeriesId> = idx.all_series().into_iter().map(|(id, _)| id).collect();
        if ids.is_empty() {
            return 0;
        }
        if self.wal.is_some() {
            self.log_wal(&[WalRecord::Tombstone(ids.clone())]);
        }
        self.note_removal();
        for &id in &ids {
            self.head.remove(id);
            idx.remove(id);
        }
        ids.len()
    }

    /// The local writer's position, if a WAL is attached.
    pub fn wal_position(&self) -> Option<WalPosition> {
        self.wal.as_ref().map(|w| w.wal.lock().position())
    }

    /// Records the leader position this follower has applied up to; from
    /// then on [`Self::reported_wal_position`] reports it instead of the
    /// local writer's position (whose segment layout differs).
    pub fn set_upstream_wal_position(&self, pos: WalPosition) {
        *self.upstream_pos.lock() = Some(pos);
    }

    /// Clears the recorded upstream position: a follower promoted to leader
    /// reports its own WAL position from here on.
    pub fn clear_upstream_wal_position(&self) {
        *self.upstream_pos.lock() = None;
    }

    /// The position health checks compare across replicas: the upstream
    /// position a follower has applied up to, else the local WAL position,
    /// else zeros.
    pub fn reported_wal_position(&self) -> WalPosition {
        if let Some(pos) = *self.upstream_pos.lock() {
            return pos;
        }
        self.wal_position().unwrap_or_default()
    }

    /// Takes a checkpoint: rotates the log, snapshots every live series
    /// plus the index clocks under the gate (no append can be mid-flight),
    /// writes the checkpoint durably, and garbage-collects covered segments
    /// and older checkpoints. Returns the covered sequence number.
    pub fn checkpoint(&self) -> io::Result<u64> {
        let ws = self.wal.as_ref().ok_or_else(|| {
            io::Error::new(io::ErrorKind::Unsupported, "checkpoint requires a WAL")
        })?;
        let _timer = self.instruments.checkpoint_seconds.start_timer();
        let _gate = self.gate.write();
        let (covers_seq, records) = {
            let mut w = ws.wal.lock();
            (w.rotate()?, w.position().records)
        };

        let idx = self.index.read();
        let mut stores = self.head.snapshot().into_iter().peekable();
        // Drive off the index: a registered series with no head store yet
        // still checkpoints (with no samples), and orphan head entries for
        // unregistered ids are skipped — queries can't see either state
        // differently, and the restored index matches exactly. Both sides
        // are sorted by id.
        let series: Vec<(SeriesId, Arc<LabelSet>, SeriesStore)> = idx
            .all_series()
            .into_iter()
            .map(|(id, labels)| {
                while stores.next_if(|(head_id, _)| *head_id < id).is_some() {}
                let store = stores.next_if(|(head_id, _)| *head_id == id);
                (id, labels, store.map(|(_, s)| s).unwrap_or_default())
            })
            .collect();
        let (epoch, epoch_history) = {
            let es = self.epoch_state.lock();
            (es.epoch, es.history.clone())
        };
        let ckpt = Checkpoint {
            covers_seq,
            generation: idx.generation(),
            next_id: idx.next_id(),
            appended: self.appended.load(Ordering::Relaxed),
            out_of_order: self.out_of_order.load(Ordering::Relaxed),
            records,
            epoch,
            epoch_history,
            series,
        };
        drop(idx);

        wal::write_checkpoint(&ws.dir, &ckpt)?;
        wal::gc_covered(&ws.dir, covers_seq)?;
        Ok(covers_seq)
    }

    /// On-disk WAL segments as `(seq, bytes)`, oldest first.
    pub fn wal_segments(&self) -> io::Result<Vec<(u64, u64)>> {
        let ws = self
            .wal
            .as_ref()
            .ok_or_else(|| io::Error::new(io::ErrorKind::Unsupported, "no WAL attached"))?;
        let mut out = Vec::new();
        for (seq, path) in wal::list_segments(&ws.dir)? {
            out.push((seq, fs::metadata(&path)?.len()));
        }
        Ok(out)
    }

    /// Reads segment `seq` from byte `offset` for a catching-up follower.
    /// `Ok(None)` means the segment no longer exists (garbage-collected
    /// behind a checkpoint — the follower must re-bootstrap). The bytes may
    /// end mid-frame if the writer is racing; [`wal::decode_frames`]
    /// handles that.
    pub fn read_wal_segment(&self, seq: u64, offset: u64) -> io::Result<Option<Vec<u8>>> {
        let ws = self
            .wal
            .as_ref()
            .ok_or_else(|| io::Error::new(io::ErrorKind::Unsupported, "no WAL attached"))?;
        let path = ws.dir.join(wal::segment_file_name(seq));
        let data = match fs::read(&path) {
            Ok(d) => d,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(e),
        };
        Ok(Some(
            data.get(offset as usize..).map(<[u8]>::to_vec).unwrap_or_default(),
        ))
    }

    /// The newest checkpoint file as raw bytes plus the sequence it covers
    /// (follower bootstrap payload). `Ok(None)` when none was taken yet.
    pub fn wal_checkpoint_bytes(&self) -> io::Result<Option<(u64, Vec<u8>)>> {
        let ws = self
            .wal
            .as_ref()
            .ok_or_else(|| io::Error::new(io::ErrorKind::Unsupported, "no WAL attached"))?;
        for (seq, path) in wal::list_checkpoints(&ws.dir)?.into_iter().rev() {
            let bytes = fs::read(&path)?;
            if wal::decode_checkpoint(&bytes).is_some() {
                return Ok(Some((seq, bytes)));
            }
        }
        Ok(None)
    }

    /// Loads a leader's checkpoint into this (empty) database by converting
    /// it into a record stream — a follower bootstrapping this way is
    /// itself durable when it has its own WAL. Returns the position the
    /// checkpoint corresponds to in the leader's log.
    pub fn load_checkpoint_bytes(&self, bytes: &[u8]) -> io::Result<WalPosition> {
        let ckpt = wal::decode_checkpoint(bytes)
            .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "corrupt checkpoint"))?;
        if self.series_count() > 0 {
            return Err(io::Error::new(
                io::ErrorKind::AlreadyExists,
                "checkpoint bootstrap requires an empty database",
            ));
        }
        for (id, labels, store) in &ckpt.series {
            let mut recs = vec![WalRecord::SeriesCreate {
                id: *id,
                labels: (**labels).clone(),
            }];
            let mut samples = store.iter().map(|s| (*id, s.t_ms, s.v)).peekable();
            while samples.peek().is_some() {
                let batch = samples.by_ref().take(wal::BOOTSTRAP_BATCH).collect();
                recs.push(WalRecord::Samples(batch));
            }
            self.apply_wal_records(&recs);
        }
        {
            let mut es = self.epoch_state.lock();
            if ckpt.epoch > es.epoch {
                es.epoch = ckpt.epoch;
                if !ckpt.epoch_history.is_empty() {
                    es.history = ckpt.epoch_history.clone();
                }
            }
        }
        Ok(WalPosition {
            seq: ckpt.covers_seq,
            offset: 0,
            records: ckpt.records,
        })
    }
}

#[cfg(test)]
mod recovery_props;

#[cfg(test)]
mod tests {
    use super::*;
    use ceems_metrics::labels;
    use ceems_metrics::matcher::MatchOp;

    fn db_with_data() -> Tsdb {
        let db = Tsdb::default();
        for i in 0..100i64 {
            db.append(
                &labels! {"__name__" => "power", "instance" => "n1"},
                i * 1000,
                100.0 + i as f64,
            );
            db.append(
                &labels! {"__name__" => "power", "instance" => "n2"},
                i * 1000,
                200.0,
            );
        }
        db
    }

    #[test]
    fn append_select_roundtrip() {
        let db = db_with_data();
        assert_eq!(db.series_count(), 2);
        assert_eq!(db.samples_appended(), 200);

        let got = db.select(&[LabelMatcher::eq("__name__", "power")], 0, i64::MAX);
        assert_eq!(got.len(), 2);
        let n1 = got
            .iter()
            .find(|s| s.labels.get("instance") == Some("n1"))
            .unwrap();
        assert_eq!(n1.samples.len(), 100);
        assert_eq!(n1.samples[10].v, 110.0);

        let ranged = db.select(&[LabelMatcher::eq("instance", "n1")], 5_000, 9_000);
        assert_eq!(ranged[0].samples.len(), 5);
    }

    #[test]
    fn out_of_order_counted_not_stored() {
        let db = Tsdb::default();
        let ls = labels! {"__name__" => "m"};
        db.append(&ls, 1000, 1.0);
        db.append(&ls, 500, 2.0);
        assert_eq!(db.out_of_order_dropped(), 1);
        assert_eq!(db.samples_appended(), 1);
        let got = db.select(&[LabelMatcher::eq("__name__", "m")], 0, i64::MAX);
        assert_eq!(got[0].samples.len(), 1);
    }

    #[test]
    fn select_latest() {
        let db = db_with_data();
        let latest = db.select_latest(&[LabelMatcher::eq("instance", "n1")]);
        assert_eq!(latest.len(), 1);
        assert_eq!(latest[0].1.t_ms, 99_000);
        assert_eq!(latest[0].1.v, 199.0);
    }

    #[test]
    fn delete_series_purges() {
        let db = db_with_data();
        let n = db.delete_series(&[LabelMatcher::eq("instance", "n1")]);
        assert_eq!(n, 1);
        assert_eq!(db.series_count(), 1);
        assert!(db
            .select(&[LabelMatcher::eq("instance", "n1")], 0, i64::MAX)
            .is_empty());
        // n2 untouched.
        assert_eq!(
            db.select(&[LabelMatcher::eq("instance", "n2")], 0, i64::MAX)[0]
                .samples
                .len(),
            100
        );
    }

    #[test]
    fn retention_enforcement() {
        let db = Tsdb::new(TsdbConfig {
            retention_ms: 10_000,
            ..TsdbConfig::default()
        });
        let ls = labels! {"__name__" => "old"};
        for i in 0..500i64 {
            db.append(&ls, i * 100, 0.0); // 0..50s
        }
        // At t=70s with 10s retention, cutoff=60s: all chunks end <=50s.
        let removed = db.enforce_retention(70_000);
        assert_eq!(removed, 1);
        assert_eq!(db.series_count(), 0);
    }

    #[test]
    fn label_introspection() {
        let db = db_with_data();
        assert!(db.label_names().contains(&"instance".to_string()));
        assert_eq!(*db.label_values("instance"), vec!["n1", "n2"]);
        assert!(db.storage_bytes() > 0);
        // Cached results are shared, then invalidated on membership change.
        let before = db.label_values("instance");
        assert!(Arc::ptr_eq(&before, &db.label_values("instance")));
        db.append(&labels! {"__name__" => "power", "instance" => "n3"}, 0, 1.0);
        assert_eq!(*db.label_values("instance"), vec!["n1", "n2", "n3"]);
    }

    #[test]
    fn bogus_label_names_do_not_grow_cache() {
        let db = db_with_data();
        // Warm the cache with a real name.
        assert!(!db.label_values("instance").is_empty());
        assert_eq!(db.cached_label_value_sets(), 1);
        // A client spraying arbitrary names at /api/v1/label/:name/values
        // must not grow memory on a quiescent database.
        for i in 0..1000 {
            assert!(db.label_values(&format!("no_such_label_{i}")).is_empty());
        }
        assert_eq!(db.cached_label_value_sets(), 1);
        // The real name is still served from cache.
        let a = db.label_values("instance");
        assert!(Arc::ptr_eq(&a, &db.label_values("instance")));
    }

    fn wide_db(series: usize) -> Tsdb {
        let db = Tsdb::default();
        for i in 0..series {
            let ls = labels! {"__name__" => "wide", "instance" => format!("n{i:04}")};
            for t in 0..20i64 {
                db.append(&ls, t * 1000, (i as f64) + t as f64);
            }
        }
        db
    }

    #[test]
    fn posting_cache_serves_and_invalidates() {
        let db = wide_db(50);
        let re = LabelMatcher::new("instance", MatchOp::Re, "n00.*").unwrap();
        let m = [LabelMatcher::eq("__name__", "wide"), re];

        let first = db.select(&m, 0, i64::MAX);
        let miss_stats = db.posting_cache_stats();
        assert_eq!(miss_stats.hits, 0);
        assert!(miss_stats.misses >= 1);

        let second = db.select(&m, 0, i64::MAX);
        assert_eq!(first, second);
        assert!(db.posting_cache_stats().hits >= 1, "repeat query must hit");

        // A new series matching the selector must appear despite the cache.
        let ls = labels! {"__name__" => "wide", "instance" => "n0099"};
        db.append(&ls, 0, 7.0);
        let third = db.select(&m, 0, i64::MAX);
        assert_eq!(third.len(), first.len() + 1);

        // Deletion must propagate too.
        db.delete_series(&[LabelMatcher::eq("instance", "n0001")]);
        let fourth = db.select(&m, 0, i64::MAX);
        assert_eq!(fourth.len(), first.len());
        assert!(fourth.iter().all(|s| s.labels.get("instance") != Some("n0001")));
    }

    #[test]
    fn exact_selectors_bypass_posting_cache() {
        let db = wide_db(10);
        db.select(&[LabelMatcher::eq("__name__", "wide")], 0, i64::MAX);
        db.select(&[LabelMatcher::eq("__name__", "wide")], 0, i64::MAX);
        let stats = db.posting_cache_stats();
        assert_eq!(stats.hits + stats.misses, 0, "exact-only sets never touch the cache");
    }

    #[test]
    fn append_refs_is_append_batch_with_remembered_ids() {
        let db = Tsdb::default();
        let (a, b) = (labels! {"__name__" => "a"}, labels! {"__name__" => "b"});
        let token = db.ref_token();
        let by_labels = |ls: &LabelSet| SeriesRef::Labels(ls.clone());
        let first = [(by_labels(&a), 1, 1.0), (by_labels(&b), 1, 2.0), (by_labels(&a), 2, 3.0)];
        let ids = db.append_refs(token, None, &first).unwrap();
        assert_eq!(ids.len(), 3);
        assert_eq!(ids[0], ids[2]);
        assert_ne!(ids[0], ids[1]);
        let second = [(SeriesRef::Id(ids[1]), 5, 5.0), (SeriesRef::Id(ids[0]), 5, 6.0)];
        assert!(db.append_refs(token, None, &second).unwrap().is_empty());
        assert_eq!(db.samples_appended(), 5);
        assert_eq!(db.series_count(), 2);
        let sel = db.select(&[LabelMatcher::eq("__name__", "a")], 0, i64::MAX);
        assert_eq!(sel[0].samples.iter().map(|s| s.v).collect::<Vec<_>>(), vec![1.0, 3.0, 6.0]);
        let ins = db.instruments();
        assert_eq!((ins.series_ref_hits.get(), ins.series_ref_misses.get()), (2.0, 3.0));
    }

    #[test]
    fn append_refs_refuses_a_token_from_before_a_removal_or_another_database() {
        let db = Tsdb::default();
        let ls = labels! {"__name__" => "m"};
        let token = db.ref_token();
        let id = db
            .append_refs(token, None, &[(SeriesRef::Labels(ls.clone()), 1, 1.0)])
            .unwrap()[0];
        // Removing nothing outdates nothing.
        assert_eq!(db.delete_series(&[LabelMatcher::eq("__name__", "absent")]), 0);
        assert_eq!(db.ref_token(), token);
        assert_eq!(db.delete_series(&[LabelMatcher::eq("__name__", "m")]), 1);
        assert_ne!(db.ref_token(), token);

        let by_id = [(SeriesRef::Id(id), 2, 2.0)];
        assert_eq!(db.append_refs(token, None, &by_id), Err(RefError::Stale));
        assert_eq!(Tsdb::default().append_refs(token, None, &by_id), Err(RefError::Stale));
        assert_eq!(db.samples_appended(), 1);
        assert_eq!(db.orphan_head_series(), 0);
        assert_eq!(db.instruments().stale_ref_batches.get(), 1.0);

        // Fenced like `append_batch_fenced`: refused, counted, not written.
        let err = db.append_refs(db.ref_token(), Some(7), &by_id).unwrap_err();
        assert!(matches!(err, RefError::Fenced(StaleEpoch { write_epoch: 7, current_epoch: 0 })));
        assert_eq!(db.fenced_writes(), 1);
        assert_eq!(db.samples_appended(), 1);
    }

    #[test]
    fn zero_cache_size_disables_posting_cache() {
        let db = Tsdb::new(TsdbConfig {
            posting_cache_size: 0,
            ..TsdbConfig::default()
        });
        db.append(&labels! {"__name__" => "m", "x" => "1"}, 0, 1.0);
        let re = LabelMatcher::new("x", MatchOp::Re, ".+").unwrap();
        db.select(std::slice::from_ref(&re), 0, i64::MAX);
        db.select(&[re], 0, i64::MAX);
        assert_eq!(db.posting_cache_stats().hits, 0);
    }

    // -- Checkpoints carry the head's chunks --------------------------------

    fn temp_dir(tag: &str) -> PathBuf {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "ceems-storage-{tag}-{}-{}",
            std::process::id(),
            NEXT.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn ckpt_config() -> TsdbConfig {
        TsdbConfig {
            retention_ms: 2_500_000,
            ..TsdbConfig::default()
        }
    }

    fn big_segments() -> WalOptions {
        WalOptions {
            segment_bytes: 64 << 20,
            fsync: wal::FsyncMode::Never,
        }
    }

    /// A history in three parts. The first fills more than one chunk of
    /// five series, leaves a short-lived one behind and deletes one; the
    /// second creates a series, drops an out-of-order sample and cuts
    /// retention through the first chunks (and the short-lived series);
    /// the third goes on appending to the open chunks.
    fn history(db: &Tsdb, part: usize) {
        let power = |i: usize| labels! {"__name__" => "power", "instance" => format!("n{i}")};
        let steps = [0..300i64, 300..420, 420..460][part].clone();
        for step in steps {
            let t = step * 15_000;
            let mut batch: Vec<(LabelSet, i64, f64)> = (0..5)
                .filter(|i| !(part > 0 && *i == 3))
                .map(|i| (power(i), t, (step * 150 + i as i64) as f64))
                .collect();
            if step < 10 {
                batch.push((labels! {"__name__" => "short"}, t, f64::NAN));
            }
            if step >= 330 {
                batch.push((labels! {"__name__" => "late", "gpu" => "0"}, t, -0.0));
            }
            if step == 350 {
                batch.push((power(0), t - 60_000, 0.0));
            }
            db.append_batch(&batch);
        }
        match part {
            0 => assert_eq!(db.delete_series(&[LabelMatcher::eq("instance", "n3")]), 1),
            1 => assert_eq!(db.enforce_retention(420 * 15_000), 1),
            _ => {}
        }
    }

    /// Selected series as `(labels, time, value bits)` rows: the history
    /// holds a NaN.
    fn bits(series: Vec<SeriesData>) -> Vec<(Arc<LabelSet>, i64, u64)> {
        let rows = |s: SeriesData| {
            let samples = s.samples.into_iter();
            samples.map(move |x| (Arc::clone(&s.labels), x.t_ms, x.v.to_bits()))
        };
        series.into_iter().flat_map(rows).collect()
    }

    /// Everything a restored database is held to.
    fn assert_same_database(got: &Tsdb, want: &Tsdb, context: &str) {
        assert_eq!(
            bits(got.select(&[], i64::MIN, i64::MAX)),
            bits(want.select(&[], i64::MIN, i64::MAX)),
            "{context}: select over all time"
        );
        let power = [LabelMatcher::eq("__name__", "power")];
        for (tmin, tmax) in [(i64::MIN, i64::MAX), (0, 4_000_000), (6_000_000, 6_100_000)] {
            assert_eq!(
                bits(got.select(&power, tmin, tmax)),
                bits(want.select(&power, tmin, tmax)),
                "{context}: select {tmin}..{tmax}"
            );
            let instant = |db: &Tsdb| -> Vec<(Arc<LabelSet>, i64, u64)> {
                db.select_instant(&[], tmin, tmax)
                    .into_iter()
                    .map(|(l, s)| (l, s.t_ms, s.v.to_bits()))
                    .collect()
            };
            assert_eq!(instant(got), instant(want), "{context}: select_instant {tmin}..{tmax}");
        }
        assert_eq!(got.storage_bytes(), want.storage_bytes(), "{context}: storage_bytes");
        assert_eq!(got.series_count(), want.series_count(), "{context}: series_count");
        assert_eq!(got.samples_appended(), want.samples_appended(), "{context}: samples_appended");
        assert_eq!(got.out_of_order_dropped(), want.out_of_order_dropped(), "{context}");
        let clocks = |db: &Tsdb| {
            let idx = db.index.read();
            (idx.generation(), idx.next_id())
        };
        assert_eq!(clocks(got), clocks(want), "{context}: index generation and next_id");
        assert_eq!(got.head.snapshot(), want.head.snapshot(), "{context}: chunks and resume points");
        assert_eq!(got.orphan_head_series(), 0);
    }

    #[test]
    fn checkpoint_and_reopen_twice_is_a_database_never_closed() {
        let dir = temp_dir("reopen");
        let never_closed = Tsdb::new(ckpt_config());
        for part in 0..2 {
            let db = Tsdb::open(&dir, big_segments(), ckpt_config()).unwrap();
            history(&db, part);
            history(&never_closed, part);
            db.checkpoint().unwrap();
            assert_same_database(&db, &never_closed, &format!("before close {part}"));
        }
        // Nothing but the second checkpoint (and an empty segment) is left
        // to open from.
        assert_eq!(wal::list_checkpoints(&dir).unwrap().len(), 1);
        let db = Tsdb::open(&dir, big_segments(), ckpt_config()).unwrap();
        assert_same_database(&db, &never_closed, "reopened from the second checkpoint");
        // The restored open chunks take the appends the originals take.
        history(&db, 2);
        history(&never_closed, 2);
        assert_same_database(&db, &never_closed, "after more ingest");
        drop(db);
        let db = Tsdb::open(&dir, big_segments(), ckpt_config()).unwrap();
        assert_same_database(&db, &never_closed, "checkpoint plus a replayed tail");
        let _ = fs::remove_dir_all(&dir);
    }

    /// Flips, in the newest checkpoint of `dir`, the sign of the second
    /// timestamp delta of one open chunk; `fix_crc` then makes the CRC agree
    /// with the damage.
    fn damage_newest_checkpoint(dir: &Path, fix_crc: bool) {
        let (_, path) = wal::list_checkpoints(dir).unwrap().pop().unwrap();
        let mut bytes = fs::read(&path).unwrap();
        let ckpt = wal::decode_checkpoint(&bytes).unwrap();
        let (_, _, store) = ckpt.series.iter().find(|(_, _, s)| s.sample_count() > 2).unwrap();
        let chunk = store.chunks().last().unwrap().as_bytes();
        let at = bytes.windows(chunk.len()).position(|w| w == chunk).unwrap();
        bytes[at + 24] ^= 0x80;
        if fix_crc {
            wal::fix_crc(&mut bytes);
        }
        assert!(wal::decode_checkpoint(&bytes).is_none());
        fs::write(&path, bytes).unwrap();
    }

    #[test]
    fn a_checkpoint_with_a_bad_chunk_is_skipped_as_a_crc_mismatch_is() {
        for fix_crc in [false, true] {
            let dir = temp_dir("badchunk");
            let kept = temp_dir("badchunk-kept");
            fs::create_dir_all(&kept).unwrap();
            let reference = Tsdb::new(ckpt_config());
            {
                let db = Tsdb::open(&dir, big_segments(), ckpt_config()).unwrap();
                history(&db, 0);
                db.checkpoint().unwrap();
                history(&db, 1);
                // The second checkpoint collects the first and the segment
                // after it: keep both, as an operator's copy would.
                for entry in fs::read_dir(&dir).unwrap() {
                    let path = entry.unwrap().path();
                    fs::copy(&path, kept.join(path.file_name().unwrap())).unwrap();
                }
                db.checkpoint().unwrap();
                history(&db, 2);
            }
            (0..3).for_each(|part| history(&reference, part));
            damage_newest_checkpoint(&dir, fix_crc);

            // No older checkpoint: the open neither panics nor fails, and
            // has only the last segment to go by.
            let alone = Tsdb::open(&dir, big_segments(), ckpt_config()).unwrap();
            assert!(alone.samples_appended() < reference.samples_appended());
            drop(alone);

            for entry in fs::read_dir(&kept).unwrap() {
                let path = entry.unwrap().path();
                fs::copy(&path, dir.join(path.file_name().unwrap())).unwrap();
            }
            assert_eq!(wal::list_checkpoints(&dir).unwrap().len(), 2);
            let db = Tsdb::open(&dir, big_segments(), ckpt_config()).unwrap();
            assert_same_database(&db, &reference, &format!("older checkpoint, fix_crc {fix_crc}"));
            let _ = fs::remove_dir_all(&dir);
            let _ = fs::remove_dir_all(&kept);
        }
    }

    /// A directory whose newest checkpoint an older writer wrote opens to
    /// the same database, and its next checkpoint is `CKPT3`.
    fn an_older_checkpoint_opens_to_the_same_state(
        name: &str,
        magic: &[u8],
        encode: fn(&wal::Checkpoint) -> Vec<u8>,
    ) {
        let dir = temp_dir(name);
        let reference = Tsdb::new(ckpt_config());
        {
            let db = Tsdb::open(&dir, big_segments(), ckpt_config()).unwrap();
            history(&db, 0);
            history(&db, 1);
            db.checkpoint().unwrap();
            history(&db, 2);
        }
        (0..3).for_each(|part| history(&reference, part));
        // The file an older build would have written.
        let (_, path) = wal::list_checkpoints(&dir).unwrap().pop().unwrap();
        let ckpt = wal::decode_checkpoint(&fs::read(&path).unwrap()).unwrap();
        let older = encode(&ckpt);
        assert!(older.starts_with(magic));
        fs::write(&path, older).unwrap();

        let db = Tsdb::open(&dir, big_segments(), ckpt_config()).unwrap();
        let what = format!("opened from {}", String::from_utf8_lossy(magic));
        assert_same_database(&db, &reference, &what);
        // The next checkpoint is written in the current format.
        db.checkpoint().unwrap();
        let (_, path) = wal::list_checkpoints(&dir).unwrap().pop().unwrap();
        assert!(fs::read(&path).unwrap().starts_with(b"CKPT3"));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_ckpt1_directory_opens_to_the_same_state() {
        an_older_checkpoint_opens_to_the_same_state("ckpt1", b"CKPT1", wal::encode_checkpoint_v1);
    }

    #[test]
    fn a_ckpt2_directory_opens_to_the_same_state() {
        an_older_checkpoint_opens_to_the_same_state("ckpt2", b"CKPT2", wal::encode_checkpoint_v2);
    }

    #[test]
    fn a_follower_bootstraps_from_chunks_into_records() {
        let dir = temp_dir("bootstrap");
        let leader = Tsdb::open(&dir, big_segments(), ckpt_config()).unwrap();
        history(&leader, 0);
        leader.checkpoint().unwrap();
        let (seq, bytes) = leader.wal_checkpoint_bytes().unwrap().unwrap();
        let follower = Tsdb::new(ckpt_config());
        let pos = follower.load_checkpoint_bytes(&bytes).unwrap();
        assert_eq!((pos.seq, pos.offset), (seq, 0));
        assert_eq!(
            bits(follower.select(&[], i64::MIN, i64::MAX)),
            bits(leader.select(&[], i64::MIN, i64::MAX))
        );
        assert_eq!(follower.storage_bytes(), leader.storage_bytes());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_failed_fsync_under_a_series_create_keeps_the_series_for_replay() {
        let dir = temp_dir("fsync-create");
        let always = WalOptions {
            segment_bytes: 64 << 20,
            fsync: wal::FsyncMode::Always,
        };
        let ls = labels! {"__name__" => "power", "instance" => "n1"};
        let leader = Tsdb::open(&dir, always, ckpt_config()).unwrap();
        // The first fsync is the one after the series' create record; the
        // index has the series by then, so the record must stay in the log.
        leader.set_wal_disk_faults(Arc::new(wal::ScriptedDiskFaults::new().with_fsync_failures(1)));
        leader.append(&ls, 1_000, 1.0);
        leader.append(&ls, 2_000, 2.0);
        assert_eq!(leader.wal_errors(), 1);
        assert_eq!(leader.wal_position().unwrap().records, 3);
        let want = bits(leader.select(&[], i64::MIN, i64::MAX));
        assert_eq!(want.len(), 2);

        // A follower catching up from the segment applies all three records.
        let bytes = leader.read_wal_segment(0, 0).unwrap().unwrap();
        let (records, _) = wal::decode_frames(&bytes);
        assert_eq!(records.len(), 3);
        let follower = Tsdb::new(ckpt_config());
        follower.apply_wal_records(&records);
        assert_eq!(bits(follower.select(&[], i64::MIN, i64::MAX)), want);

        // So does a restart.
        drop(leader);
        let reopened = Tsdb::open(&dir, always, ckpt_config()).unwrap();
        assert_eq!(bits(reopened.select(&[], i64::MIN, i64::MAX)), want);
        assert_eq!(reopened.wal_position().unwrap().records, 3);
        let _ = fs::remove_dir_all(&dir);
    }

    // -- One checked walk over the log --------------------------------------

    /// `(seq, offset)` of every frame in `dir`'s segments, read from the
    /// length headers alone.
    fn frame_starts(dir: &Path) -> Vec<(u64, u64)> {
        let mut out = Vec::new();
        for (seq, path) in wal::list_segments(dir).unwrap() {
            let data = fs::read(path).unwrap();
            let mut pos = 0;
            while pos + 8 <= data.len() {
                out.push((seq, pos as u64));
                pos += 8 + u32::from_le_bytes(data[pos..pos + 4].try_into().unwrap()) as usize;
            }
        }
        out
    }

    fn copy_dir(from: &Path, to: &Path) {
        fs::create_dir_all(to).unwrap();
        for entry in fs::read_dir(from).unwrap() {
            let path = entry.unwrap().path();
            fs::copy(&path, to.join(path.file_name().unwrap())).unwrap();
        }
    }

    #[test]
    fn a_corrupt_middle_frame_ends_the_log_for_replay_locate_and_truncate() {
        let dir = temp_dir("corrupt-frame");
        let small = WalOptions {
            segment_bytes: 256,
            fsync: wal::FsyncMode::Never,
        };
        let db = Tsdb::open(&dir, small, ckpt_config()).unwrap();
        let ls = labels! {"__name__" => "m", "instance" => "n1"};
        for i in 0..60i64 {
            db.append(&ls, i * 1000, i as f64);
        }
        let frames = frame_starts(&dir);
        assert_eq!(
            frames.len(),
            61,
            "one series create, then one frame per sample"
        );
        let k = frames.len() / 2;
        let (seq_k, off_k) = frames[k];
        assert!(
            frames.last().unwrap().0 > seq_k,
            "valid segments follow the damage"
        );

        // One payload byte of frame k; its header stays intact.
        let path = dir.join(wal::segment_file_name(seq_k));
        let mut bytes = fs::read(&path).unwrap();
        bytes[off_k as usize + 8] ^= 0xff;
        fs::write(&path, bytes).unwrap();
        let at_k = WalPosition {
            seq: seq_k,
            offset: off_k,
            records: k as u64,
        };

        assert_eq!(db.locate_records(k as u64).unwrap(), Some(at_k));
        assert_eq!(db.locate_records(k as u64 + 1).unwrap(), None);
        assert_eq!(db.locate_records(frames.len() as u64).unwrap(), None);
        drop(db);

        // Truncation sees k records: nothing past k + 1 to drop, and a cut
        // at k drops no record but takes the damaged frame and every
        // later segment with it.
        let copy = temp_dir("corrupt-frame-copy");
        copy_dir(&dir, &copy);
        let sizes = |d: &Path| -> Vec<u64> {
            wal::list_segments(d)
                .unwrap()
                .into_iter()
                .map(|(_, p)| fs::metadata(p).unwrap().len())
                .collect()
        };
        let before = sizes(&copy);
        assert_eq!(
            wal::truncate_to_records(&copy, k as u64 + 1).unwrap(),
            wal::TruncateOutcome::AlreadyShort
        );
        assert_eq!(
            sizes(&copy),
            before,
            "a log shorter than the target is left alone"
        );
        assert_eq!(
            wal::truncate_to_records(&copy, k as u64).unwrap(),
            wal::TruncateOutcome::AlreadyShort
        );
        assert_eq!(frame_starts(&copy), frames[..k]);
        assert_eq!(
            wal::truncate_to_records(&copy, k as u64 - 3).unwrap(),
            wal::TruncateOutcome::Truncated { dropped_records: 3 }
        );

        // Replay stops at frame k: k - 1 samples, the writer resumes there.
        let db = Tsdb::open(&dir, small, ckpt_config()).unwrap();
        assert_eq!(db.wal_position(), Some(at_k));
        let got = db.select(&[LabelMatcher::eq("__name__", "m")], 0, i64::MAX);
        assert_eq!(got[0].samples.len(), k - 1);
        assert_eq!(frame_starts(&dir), frames[..k]);
        assert_eq!(db.locate_records(k as u64).unwrap(), Some(at_k));
        let _ = fs::remove_dir_all(&dir);
        let _ = fs::remove_dir_all(&copy);
    }
}
