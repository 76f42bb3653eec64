//! Replica catch-up: a follower TSDB streams a leader's WAL over HTTP.
//!
//! The leader serves its log through the [`crate::httpapi`] WAL endpoints;
//! a [`WalFollower`] bootstraps from the newest checkpoint (when one
//! exists), then tails segment bytes from its position, applying decoded
//! records through [`crate::storage::Tsdb::apply_wal_records`] — so a
//! follower with its own WAL directory is itself durable. After every
//! apply the follower records the leader position it has reached; the
//! load balancer compares that against the leader's to demote stale
//! replicas.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use ceems_http::resilience::Backoff;
use ceems_http::{Client, Status};
use ceems_metrics::Counter;

use crate::client::{CallError, TsdbClient};
use crate::storage::Tsdb;
use crate::wal::{decode_frames, WalPosition};

/// HTTP status the leader answers with when a requested segment was
/// garbage-collected behind a checkpoint.
pub const STATUS_GONE: Status = Status(410);

/// Why following failed.
#[derive(Debug)]
pub enum FollowError {
    /// Transport-level failure talking to the leader.
    Http(String),
    /// The leader answered, but unusably (no WAL, bad payload).
    Leader(String),
    /// Local I/O failure applying the stream.
    Io(std::io::Error),
}

impl fmt::Display for FollowError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FollowError::Http(e) => write!(f, "leader unreachable: {e}"),
            FollowError::Leader(e) => write!(f, "leader error: {e}"),
            FollowError::Io(e) => write!(f, "local apply failed: {e}"),
        }
    }
}

impl std::error::Error for FollowError {}

impl From<CallError> for FollowError {
    fn from(e: CallError) -> FollowError {
        match e {
            CallError::Transport(e) => FollowError::Http(e),
            CallError::Api(e) => FollowError::Leader(e),
        }
    }
}

/// Longest single backoff a leader-supplied `Retry-After` can impose.
const MAX_BACKOFF: Duration = Duration::from_secs(5);

static FOLLOWER_SEQ: AtomicU64 = AtomicU64::new(0);

/// Streams a leader's WAL into a local TSDB.
pub struct WalFollower {
    leader: TsdbClient,
    db: Arc<Tsdb>,
    pos: WalPosition,
    resyncs: Counter,
    follower_id: String,
    backoff_until: Option<Instant>,
    rate_limited: Counter,
    transport_backoff_base: Duration,
    transport_backoff_max: Duration,
    backoff_seed: u64,
    transport_retries: Counter,
}

impl WalFollower {
    /// Creates a follower of the leader at `leader_base_url` (no trailing
    /// slash), starting from position zero. Call [`Self::bootstrap`] before
    /// tailing so a checkpointed leader's GC'd history is recovered.
    pub fn new(db: Arc<Tsdb>, leader_base_url: impl Into<String>) -> WalFollower {
        let n = FOLLOWER_SEQ.fetch_add(1, Ordering::Relaxed);
        let follower_id = format!("follower-{}-{n}", std::process::id());
        WalFollower {
            leader: TsdbClient::new(leader_base_url)
                .with_client(Client::new().with_header("x-wal-follower", follower_id.clone())),
            db,
            pos: WalPosition::default(),
            resyncs: Counter::new(),
            follower_id,
            backoff_until: None,
            rate_limited: Counter::new(),
            transport_backoff_base: Duration::from_millis(5),
            transport_backoff_max: Duration::from_millis(250),
            backoff_seed: n,
            transport_retries: Counter::new(),
        }
    }

    /// Overrides the jittered backoff range used between retries when the
    /// leader is unreachable at the transport level.
    pub fn with_transport_backoff(mut self, base: Duration, max: Duration) -> WalFollower {
        self.transport_backoff_base = base;
        self.transport_backoff_max = max.max(base);
        self
    }

    /// Fixes the backoff jitter seed (deterministic tests).
    pub fn with_backoff_seed(mut self, seed: u64) -> WalFollower {
        self.backoff_seed = seed;
        self
    }

    /// How many transport-level failures were retried with backoff during
    /// [`Self::catch_up`] loops.
    pub fn transport_retries(&self) -> u64 {
        self.transport_retries.get() as u64
    }

    /// Overrides the `x-wal-follower` identity sent with every fetch (the
    /// leader's rate limiter buckets per identity).
    pub fn with_follower_id(mut self, id: impl Into<String>) -> WalFollower {
        self.follower_id = id.into();
        self.leader = self
            .leader
            .with_client(Client::new().with_header("x-wal-follower", self.follower_id.clone()));
        self
    }

    /// How many fetches the leader has answered with `429 Too Many
    /// Requests`.
    pub fn rate_limited(&self) -> u64 {
        self.rate_limited.get() as u64
    }

    /// Remaining leader-imposed backoff, when one is active.
    fn backoff_remaining(&self) -> Option<Duration> {
        let until = self.backoff_until?;
        let now = Instant::now();
        if now < until {
            Some(until - now)
        } else {
            None
        }
    }

    /// The leader position this follower has applied up to.
    pub fn position(&self) -> WalPosition {
        self.pos
    }

    /// How many times this follower fell behind the leader's GC horizon and
    /// re-bootstrapped from a checkpoint.
    pub fn resyncs(&self) -> u64 {
        self.resyncs.get() as u64
    }

    /// Asks the leader for its current position.
    pub fn leader_position(&self) -> Result<WalPosition, FollowError> {
        let report = self.leader.wal_position()?;
        if !report.wal_enabled {
            return Err(FollowError::Leader("leader has no WAL attached".into()));
        }
        Ok(report.pos)
    }

    /// Maps a replicated record count onto the leader's own segment layout
    /// (`/api/v1/wal/locate`). `Ok(None)` means the leader has checkpointed
    /// past that count — the rejoiner must re-bootstrap instead.
    pub fn locate_on_leader(&self, records: u64) -> Result<Option<WalPosition>, FollowError> {
        let resp = self
            .leader
            .get(&format!("/api/v1/wal/locate?records={records}"))?;
        if resp.status == STATUS_GONE {
            return Ok(None);
        }
        if !resp.status.is_success() {
            return Err(FollowError::Leader(format!(
                "locate returned {}",
                resp.status.0
            )));
        }
        let v: serde_json::Value = serde_json::from_slice(&resp.body)
            .map_err(|e| FollowError::Leader(e.to_string()))?;
        let data = &v["data"];
        Ok(Some(WalPosition {
            seq: data["seq"].as_u64().unwrap_or(0),
            offset: data["offset"].as_u64().unwrap_or(0),
            records: data["records"].as_u64().unwrap_or(records),
        }))
    }

    /// Resumes tailing at a known replicated record count: locates it on
    /// the leader (whose segment layout differs from any local one) and
    /// tails from there. Falls back to a full checkpoint re-bootstrap when
    /// the leader GC'd that far back — the divergence-safe rejoin path for
    /// a truncated ex-leader that kept its prefix.
    pub fn resume_from_records(&mut self, records: u64) -> Result<(), FollowError> {
        match self.locate_on_leader(records)? {
            Some(pos) => {
                self.pos = pos;
                self.db.set_upstream_wal_position(pos);
                Ok(())
            }
            None => {
                self.resyncs.inc();
                self.db.clear_for_resync();
                self.pos = WalPosition::default();
                self.bootstrap()
            }
        }
    }

    /// Initializes an empty follower: loads the leader's newest checkpoint
    /// if it has one (recovering history whose segments were GC'd), else
    /// starts tailing from the leader's oldest segment.
    pub fn bootstrap(&mut self) -> Result<(), FollowError> {
        let resp = self.leader.get("/api/v1/wal/checkpoint")?;
        if resp.status.is_success() {
            self.pos = self
                .db
                .load_checkpoint_bytes(&resp.body)
                .map_err(FollowError::Io)?;
        } else if resp.status == Status::NOT_FOUND {
            self.pos = WalPosition::default();
        } else {
            return Err(FollowError::Leader(format!(
                "checkpoint fetch returned {}",
                resp.status.0
            )));
        }
        self.db.set_upstream_wal_position(self.pos);
        Ok(())
    }

    /// Fetches and applies one chunk of WAL from the current position.
    /// Returns the number of records applied (0 when the follower is at the
    /// leader's tip, or when it raced a partially-written frame — retry).
    pub fn poll_once(&mut self) -> Result<u64, FollowError> {
        if self.backoff_remaining().is_some() {
            // Still inside a leader-imposed Retry-After window: stay off
            // the wire entirely.
            return Ok(0);
        }
        self.backoff_until = None;
        let resp = self.leader.get(&format!(
            "/api/v1/wal/fetch?seq={}&offset={}",
            self.pos.seq, self.pos.offset
        ))?;
        if resp.status == Status::TOO_MANY_REQUESTS {
            // The leader is shedding us; honor its Retry-After (parsed as
            // delta-seconds by ceems-http) and report no progress.
            let wait = resp
                .retry_after_secs()
                .map(Duration::from_secs_f64)
                .unwrap_or(Duration::from_millis(50))
                .min(MAX_BACKOFF);
            self.backoff_until = Some(Instant::now() + wait);
            self.rate_limited.inc();
            return Ok(0);
        }
        if resp.status == STATUS_GONE {
            // The leader checkpointed past us; our partial state cannot be
            // reconciled record-by-record. Drop it and re-bootstrap from the
            // leader's checkpoint, exactly as a freshly-started follower
            // would. The next poll tails from the recovered position.
            self.resyncs.inc();
            self.db.clear_for_resync();
            self.pos = WalPosition::default();
            self.bootstrap()?;
            return Ok(0);
        }
        if !resp.status.is_success() {
            return Err(FollowError::Leader(format!(
                "fetch returned {}",
                resp.status.0
            )));
        }
        let last_seq: u64 = resp
            .header("x-wal-last-seq")
            .and_then(|s| s.parse().ok())
            .unwrap_or(self.pos.seq);

        let (records, consumed) = decode_frames(&resp.body);
        let applied = records.len() as u64;
        if applied > 0 {
            self.db.apply_wal_records(&records);
            self.pos.offset += consumed as u64;
            self.pos.records += applied;
            self.db.set_upstream_wal_position(self.pos);
        } else if resp.body.is_empty() && last_seq > self.pos.seq {
            // Drained this segment and the leader has rotated: move on.
            self.pos.seq += 1;
            self.pos.offset = 0;
            self.db.set_upstream_wal_position(self.pos);
        }
        Ok(applied)
    }

    /// Polls until the follower has applied at least as many records as the
    /// leader had logged when the loop iteration asked. Returns the total
    /// records applied. Errors out after `max_stalls` consecutive polls
    /// with no progress while still behind.
    ///
    /// Transport-level failures (leader unreachable) do not kill the loop
    /// immediately: they are retried up to `max_stalls` times under capped
    /// exponential backoff with full jitter, so a follower whose leader is
    /// restarting neither tight-loops on a dead socket nor gives up on the
    /// first refused connection.
    pub fn catch_up(&mut self, max_stalls: u32) -> Result<u64, FollowError> {
        let backoff = Backoff::seeded(
            self.transport_backoff_base,
            self.transport_backoff_max,
            self.backoff_seed,
        );
        let mut total = 0u64;
        let mut stalls = 0u32;
        let mut transport_failures = 0u32;
        loop {
            let target = match self.leader_position() {
                Ok(t) => t,
                Err(e @ FollowError::Http(_)) => {
                    transport_failures += 1;
                    if transport_failures > max_stalls {
                        return Err(e);
                    }
                    self.transport_retries.inc();
                    std::thread::sleep(backoff.next_delay());
                    continue;
                }
                Err(e) => return Err(e),
            };
            if self.pos.records >= target.records {
                return Ok(total);
            }
            let pos_before = self.pos;
            let applied = match self.poll_once() {
                Ok(a) => a,
                Err(e @ FollowError::Http(_)) => {
                    transport_failures += 1;
                    if transport_failures > max_stalls {
                        return Err(e);
                    }
                    self.transport_retries.inc();
                    std::thread::sleep(backoff.next_delay());
                    continue;
                }
                Err(e) => return Err(e),
            };
            transport_failures = 0;
            backoff.reset();
            total += applied;
            if applied == 0 && self.pos == pos_before {
                stalls += 1;
                if stalls > max_stalls {
                    return Err(FollowError::Leader(format!(
                        "no progress after {max_stalls} polls at {:?} (leader at {:?})",
                        self.pos, target
                    )));
                }
                // Rate-limited polls wait out (a slice of) the leader's
                // Retry-After instead of hammering it every 2 ms.
                let wait = self
                    .backoff_remaining()
                    .unwrap_or(Duration::from_millis(2))
                    .min(Duration::from_millis(250));
                std::thread::sleep(wait);
            } else {
                stalls = 0;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::storage::{Tsdb, TsdbConfig};

    #[test]
    fn unreachable_leader_backs_off_then_errors() {
        let db = Arc::new(Tsdb::new(TsdbConfig::default()));
        // Port 1 refuses connections immediately on any sane test host.
        let mut f = WalFollower::new(db, "http://127.0.0.1:1")
            .with_transport_backoff(Duration::from_millis(1), Duration::from_millis(4))
            .with_backoff_seed(7);
        let start = Instant::now();
        let err = f.catch_up(3).unwrap_err();
        assert!(
            matches!(err, FollowError::Http(_)),
            "expected transport error, got {err}"
        );
        // 3 retries happened under backoff before the 4th failure gave up.
        assert_eq!(f.transport_retries(), 3);
        assert!(
            start.elapsed() < Duration::from_secs(30),
            "backoff must stay capped"
        );
    }

    #[test]
    fn transport_backoff_is_deterministic() {
        let mk = || {
            Backoff::seeded(Duration::from_millis(1), Duration::from_millis(64), 42)
        };
        let a = mk();
        let b = mk();
        for _ in 0..10 {
            assert_eq!(a.next_delay(), b.next_delay());
        }
    }
}
