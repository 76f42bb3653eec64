//! Leader failover for the TSDB replication group (S24).
//!
//! A [`ReplicationGroup`] runs N durable TSDB nodes — one leader serving
//! writes, the rest [`WalFollower`]s streaming its WAL — and a
//! deterministic failover coordinator driven by an external clock (the
//! stack's sim clock), so chaos tests replay identically per seed:
//!
//! * **Probe**: every `probe_interval_ms` the coordinator probes the
//!   leader's `/api/v1/wal/position` directly. Misses accumulate; after
//!   `election_timeout_ms` without a successful probe an election runs.
//! * **Election**: among reachable followers the highest
//!   `(epoch, replicated records, node id)` wins, gated on being within
//!   `min_catchup_records` of the dead leader's last reported position.
//!   The winner durably bumps the epoch ([`Tsdb::bump_epoch`] logs and
//!   fsyncs an `EpochBump` record *before* the role flips) — the fence:
//!   any write stamped with the old epoch is now rejected with
//!   `409 stale-epoch` by every node that has seen the bump.
//! * **Re-route**: the shared [`WriteRouter`] repoints at the new leader
//!   and new epoch; in-process writers (scrape, stream sink, rule writes)
//!   pick it up on their next append. Surviving followers re-target their
//!   catch-up streams at the new leader, resuming at their replicated
//!   record count via `/api/v1/wal/locate`.
//! * **Rejoin**: a restarted ex-leader compares its WAL tail against the
//!   new leader's epoch history, truncates the divergent suffix (records
//!   past the successor epoch's `start_records` were never replicated —
//!   never acknowledged by the cluster), reopens, and re-enters as a
//!   follower through the ordinary catch-up protocol. If the new leader
//!   had ever checkpoint-resynced (its local record units no longer match
//!   the stream's), the rejoiner re-bootstraps from a checkpoint instead —
//!   slower, never wrong.
//!
//! Every transition appends a line to the coordinator's event log; the log
//! is the failover trace chaos tests compare across same-seed runs (it
//! contains node ids, epochs and record counts — never ports or wall
//! times).

use std::io;
use std::path::PathBuf;
use std::sync::Arc;

use parking_lot::RwLock;

use ceems_http::{Client, HttpServer, ServerConfig};
use ceems_metrics::labels::LabelSet;
use ceems_obs::trace::QueryTrace;
use ceems_obs::TraceSink;

use crate::client::TsdbClient;
use crate::httpapi::{api_router, NowFn};
use crate::replica::WalFollower;
use crate::storage::{StaleEpoch, Tsdb, TsdbConfig};
use crate::wal::{self, TruncateOutcome, WalOptions};

/// Failover tuning (the YAML `failover:` section).
#[derive(Debug, Clone, Copy)]
pub struct FailoverConfig {
    /// How often the coordinator probes the leader, in coordinator-clock
    /// milliseconds.
    pub probe_interval_ms: i64,
    /// How long the leader may stay unreachable before an election runs.
    pub election_timeout_ms: i64,
    /// A follower must be within this many records of the dead leader's
    /// last reported position to be promotable; elections defer (the group
    /// stays leaderless, writes fail fast) until a candidate qualifies.
    pub min_catchup_records: u64,
    /// Catch-up polls granted to each follower per [`ReplicationGroup::tick`].
    pub catchup_polls: u32,
}

impl Default for FailoverConfig {
    fn default() -> Self {
        FailoverConfig {
            probe_interval_ms: 1_000,
            election_timeout_ms: 3_000,
            min_catchup_records: u64::MAX,
            catchup_polls: 64,
        }
    }
}

/// A node's current role in the group.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeRole {
    /// Serving writes at the current epoch.
    Leader,
    /// Streaming the leader's WAL.
    Follower,
    /// Killed or deposed; must rejoin before serving again.
    Down,
}

struct Node {
    id: String,
    dir: PathBuf,
    db: Arc<Tsdb>,
    server: Option<HttpServer>,
    url: String,
    follower: Option<WalFollower>,
    role: NodeRole,
    /// Local WAL record counts still match the replicated stream's units
    /// (falsified by a checkpoint resync; a non-aligned leader forces
    /// rejoiners onto the full re-bootstrap path).
    aligned: bool,
}

/// The current write route: who serves writes, at which epoch.
#[derive(Clone)]
pub struct Route {
    /// The epoch writes must be stamped with.
    pub epoch: u64,
    /// The leader's node id (empty while leaderless).
    pub leader_id: String,
    /// The leader's base URL (HTTP writers).
    pub leader_url: String,
    /// The leader's database (in-process writers). `None` while leaderless.
    pub db: Option<Arc<Tsdb>>,
}

/// Shared, swappable handle to the current leader. In-process writers
/// (scrape, stream sink, rule writes) capture a clone at build time and
/// follow every failover without re-wiring.
#[derive(Clone)]
pub struct WriteRouter {
    inner: Arc<RwLock<Route>>,
}

impl WriteRouter {
    fn new(route: Route) -> WriteRouter {
        WriteRouter {
            inner: Arc::new(RwLock::new(route)),
        }
    }

    /// A snapshot of the current route.
    pub fn route(&self) -> Route {
        self.inner.read().clone()
    }

    /// The current write epoch.
    pub fn epoch(&self) -> u64 {
        self.inner.read().epoch
    }

    /// The current leader's database, when one is elected.
    pub fn leader_db(&self) -> Option<Arc<Tsdb>> {
        self.inner.read().db.clone()
    }

    /// Appends through the current route, stamped with the route's epoch.
    /// Fails fast while leaderless; a concurrent failover between snapshot
    /// and append surfaces as the fence's `StaleEpoch`.
    pub fn append_batch(&self, batch: &[(LabelSet, i64, f64)]) -> Result<(), String> {
        let route = self.route();
        let Some(db) = route.db else {
            return Err("no leader elected".to_string());
        };
        db.append_batch_fenced(route.epoch, batch)
            .map_err(|e: StaleEpoch| e.to_string())
    }

    fn swap(&self, route: Route) {
        *self.inner.write() = route;
    }
}

/// A replication group with automatic leader failover.
pub struct ReplicationGroup {
    cfg: FailoverConfig,
    wal_opts: WalOptions,
    tsdb_cfg: TsdbConfig,
    now: NowFn,
    nodes: Vec<Node>,
    leader: Option<usize>,
    /// Last coordinator time the leader answered a probe.
    leader_ok_ms: i64,
    /// The leader's reported record count at its last successful probe —
    /// the yardstick `min_catchup_records` measures candidates against.
    leader_records: u64,
    last_probe_ms: i64,
    epoch: u64,
    router: WriteRouter,
    events: Vec<String>,
    failovers: u64,
    probe_client: Client,
    trace_sink: Option<Arc<TraceSink>>,
}

impl ReplicationGroup {
    /// Builds an `n`-node group under `base_dir` (one WAL directory per
    /// node), elects node 0 leader at epoch 1, and starts the remaining
    /// nodes as followers streaming from genesis. `now` is the
    /// coordinator's clock (the stack passes its sim clock) — it stamps the
    /// event log and paces probes, so a fixed seed replays identically.
    pub fn new(
        base_dir: &std::path::Path,
        n: usize,
        wal_opts: WalOptions,
        tsdb_cfg: TsdbConfig,
        cfg: FailoverConfig,
        now: NowFn,
    ) -> io::Result<ReplicationGroup> {
        assert!(n >= 2, "a replication group needs at least 2 nodes");
        let mut nodes = Vec::with_capacity(n);
        for i in 0..n {
            let id = format!("node-{i}");
            let dir = base_dir.join(&id);
            let db = Arc::new(Tsdb::open(&dir, wal_opts, tsdb_cfg.clone())?);
            db.set_leader(false);
            let server = HttpServer::serve(
                ServerConfig::ephemeral(),
                api_router(db.clone(), now.clone()),
            )
            .map_err(io::Error::other)?;
            let url = server.base_url().to_string();
            nodes.push(Node {
                id,
                dir,
                db,
                server: Some(server),
                url,
                follower: None,
                role: NodeRole::Follower,
                aligned: true,
            });
        }

        // Node 0 leads. A fresh group starts at epoch 1 so epoch 0 can
        // never be a valid write epoch; a reopened group resumes from
        // whatever epoch its WAL recorded.
        let start_ms = now();
        let leader_db = nodes[0].db.clone();
        let epoch = if leader_db.current_epoch() == 0 {
            let at = leader_db.reported_wal_position().records;
            leader_db.bump_epoch(1, at)?
        } else {
            leader_db.current_epoch()
        };
        leader_db.set_leader(true);
        nodes[0].role = NodeRole::Leader;
        let leader_url = nodes[0].url.clone();
        for node in nodes.iter_mut().skip(1) {
            let f = WalFollower::new(node.db.clone(), leader_url.clone())
                .with_follower_id(node.id.clone());
            node.follower = Some(f);
        }

        let router = WriteRouter::new(Route {
            epoch,
            leader_id: nodes[0].id.clone(),
            leader_url,
            db: Some(leader_db),
        });
        let mut group = ReplicationGroup {
            cfg,
            wal_opts,
            tsdb_cfg,
            now,
            nodes,
            leader: Some(0),
            leader_ok_ms: start_ms,
            leader_records: 0,
            last_probe_ms: i64::MIN / 2,
            epoch,
            router,
            events: Vec::new(),
            failovers: 0,
            probe_client: Client::new(),
            trace_sink: None,
        };
        group.event(start_ms, format!("start epoch={epoch} leader=node-0 nodes={n}"));
        Ok(group)
    }

    /// Attaches the shared trace sink: elections record an `election` stage
    /// through it, so failovers show up in the durable trace store.
    pub fn with_trace_sink(mut self, sink: Arc<TraceSink>) -> ReplicationGroup {
        self.trace_sink = Some(sink);
        self
    }

    /// The shared write route (clone freely; every clone follows failovers).
    pub fn write_router(&self) -> WriteRouter {
        self.router.clone()
    }

    /// The current epoch.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The current leader's node id, when one is elected.
    pub fn leader_id(&self) -> Option<&str> {
        self.leader.map(|i| self.nodes[i].id.as_str())
    }

    /// Completed failovers (elections that promoted a new leader).
    pub fn failovers(&self) -> u64 {
        self.failovers
    }

    /// Fenced (stale-epoch) writes rejected across all nodes.
    pub fn fenced_writes(&self) -> u64 {
        self.nodes.iter().map(|n| n.db.fenced_writes()).sum()
    }

    /// The coordinator's event log: one line per transition (probe misses,
    /// elections, re-routes, rejoins). Deterministic under a fixed clock
    /// and kill schedule — the failover trace.
    pub fn events(&self) -> Vec<String> {
        self.events.clone()
    }

    /// Node ids with their roles, in creation order.
    pub fn roles(&self) -> Vec<(String, NodeRole)> {
        self.nodes.iter().map(|n| (n.id.clone(), n.role)).collect()
    }

    /// The node's database (tests compare replica contents).
    pub fn node_db(&self, id: &str) -> Option<Arc<Tsdb>> {
        self.node_idx(id).map(|i| self.nodes[i].db.clone())
    }

    fn node_idx(&self, id: &str) -> Option<usize> {
        self.nodes.iter().position(|n| n.id == id)
    }

    fn event(&mut self, now_ms: i64, line: String) {
        self.events.push(format!("t={now_ms} {line}"));
    }

    /// Kills a node: its HTTP server stops answering (probes, catch-up and
    /// routed writes all start failing). State on disk is kept — the node
    /// can [`Self::rejoin`] later.
    pub fn kill(&mut self, id: &str) {
        let now_ms = (self.now)();
        let Some(i) = self.node_idx(id) else { return };
        if let Some(server) = self.nodes[i].server.take() {
            server.shutdown();
        }
        self.nodes[i].follower = None;
        if self.nodes[i].role != NodeRole::Leader {
            // A killed follower is down immediately; a killed leader stays
            // nominally Leader until the probe timeout deposes it — that
            // window is exactly the failover gap the tests measure.
            self.nodes[i].role = NodeRole::Down;
        }
        self.event(now_ms, format!("kill node={id}"));
    }

    /// Drives the coordinator one step at coordinator time `now_ms`: pumps
    /// follower catch-up, probes the leader on its interval, and runs an
    /// election once the leader has been unreachable past the timeout.
    pub fn tick(&mut self, now_ms: i64) {
        // Pump followers first so election-time positions are as fresh as
        // the surviving replicas can be.
        for node in &mut self.nodes {
            if let Some(f) = &mut node.follower {
                for _ in 0..self.cfg.catchup_polls {
                    match f.poll_once() {
                        Ok(0) | Err(_) => break,
                        Ok(_) => {}
                    }
                }
            }
        }

        if now_ms - self.last_probe_ms < self.cfg.probe_interval_ms {
            return;
        }
        self.last_probe_ms = now_ms;

        let Some(leader_idx) = self.leader else {
            // Leaderless: retry the election every probe interval (a
            // deferred election may now have a caught-up candidate).
            self.elect(now_ms);
            return;
        };
        match self.probe(leader_idx) {
            Some(records) => {
                self.leader_ok_ms = now_ms;
                self.leader_records = records;
            }
            None => {
                let down_for = now_ms - self.leader_ok_ms;
                let id = self.nodes[leader_idx].id.clone();
                self.event(now_ms, format!("probe-miss leader={id} down_for_ms={down_for}"));
                if down_for >= self.cfg.election_timeout_ms {
                    self.nodes[leader_idx].role = NodeRole::Down;
                    self.leader = None;
                    self.event(now_ms, format!("depose leader={id}"));
                    self.elect(now_ms);
                }
            }
        }
    }

    /// Probes a node's WAL position over HTTP (the direct probe — a dead
    /// server refuses the connection). Returns its reported record count.
    fn probe(&self, idx: usize) -> Option<u64> {
        let node = &self.nodes[idx];
        node.server.as_ref()?;
        let api = TsdbClient::new(node.url.as_str()).with_client(self.probe_client.clone());
        Some(api.wal_position().ok()?.pos.records)
    }

    /// Runs one election round. Deterministic: candidates are the live
    /// followers, the highest `(epoch, records, id)` wins, and the winner
    /// must be within `min_catchup_records` of the dead leader's last
    /// reported position — otherwise the election defers and the group
    /// stays leaderless until the next tick.
    fn elect(&mut self, now_ms: i64) {
        let qtrace = QueryTrace::begin(None);
        let stage = qtrace.stage("election");

        let mut best: Option<(u64, u64, usize)> = None;
        for (i, node) in self.nodes.iter().enumerate() {
            if node.role != NodeRole::Follower || node.server.is_none() {
                continue;
            }
            let key = (
                node.db.current_epoch(),
                node.db.reported_wal_position().records,
                i,
            );
            // Node ids are `node-<i>`, so the index IS the stable tiebreak.
            if best.is_none_or(|b| key > b) {
                best = Some(key);
            }
        }
        let Some((cand_epoch, cand_records, winner)) = best else {
            self.event(now_ms, "election-deferred reason=no-candidates".to_string());
            stage.finish();
            return;
        };
        if self.leader_records.saturating_sub(cand_records) > self.cfg.min_catchup_records {
            self.event(
                now_ms,
                format!(
                    "election-deferred reason=catchup best={cand_records} leader_had={}",
                    self.leader_records
                ),
            );
            stage.finish();
            return;
        }

        let new_epoch = self.epoch.max(cand_epoch) + 1;
        let winner_id = self.nodes[winner].id.clone();
        {
            let node = &mut self.nodes[winner];
            node.follower = None;
            // Durable fence first: the bump is logged + fsynced before the
            // role flips, so a crash mid-promotion never leaves a fenceless
            // leader.
            if let Err(e) = node.db.bump_epoch(new_epoch, cand_records) {
                self.event(now_ms, format!("election-failed node={winner_id} err={e}"));
                stage.finish();
                return;
            }
            node.db.clear_upstream_wal_position();
            node.db.set_leader(true);
            node.role = NodeRole::Leader;
        }
        self.leader = Some(winner);
        self.leader_ok_ms = now_ms;
        self.leader_records = cand_records;
        self.epoch = new_epoch;
        self.failovers += 1;

        let leader_url = self.nodes[winner].url.clone();
        // Surviving followers re-target the new leader, resuming at their
        // own replicated record count via the locate handshake.
        for i in 0..self.nodes.len() {
            if i == winner || self.nodes[i].role != NodeRole::Follower {
                continue;
            }
            let node = &mut self.nodes[i];
            if node.server.is_none() {
                continue;
            }
            let records = node.db.reported_wal_position().records;
            let mut f = WalFollower::new(node.db.clone(), leader_url.clone())
                .with_follower_id(node.id.clone());
            match f.resume_from_records(records) {
                Ok(()) => node.follower = Some(f),
                Err(e) => {
                    let id = node.id.clone();
                    self.event(now_ms, format!("repoint-failed node={id} err={e}"));
                }
            }
        }

        self.event(
            now_ms,
            format!("elect epoch={new_epoch} leader={winner_id} records={cand_records}"),
        );
        self.router.swap(Route {
            epoch: new_epoch,
            leader_id: winner_id,
            leader_url,
            db: Some(self.nodes[winner].db.clone()),
        });
        stage.finish();
        if let Some(sink) = &self.trace_sink {
            sink.offer("tsdb", "failover", "system", &qtrace.report());
        }
    }

    /// Rejoins a killed node as a follower of the current leader:
    /// truncates whatever WAL suffix diverged past the successor epoch
    /// (records the cluster never acknowledged), reopens the database from
    /// the kept prefix, and resumes catch-up. Falls back to a full
    /// checkpoint re-bootstrap when the prefix is unusable (the leader
    /// checkpointed past it, or the leader's record units are not aligned
    /// with the stream).
    pub fn rejoin(&mut self, id: &str) -> io::Result<()> {
        let now_ms = (self.now)();
        let i = self
            .node_idx(id)
            .ok_or_else(|| io::Error::new(io::ErrorKind::NotFound, format!("no node {id}")))?;
        if self.nodes[i].server.is_some() {
            return Err(io::Error::new(
                io::ErrorKind::AlreadyExists,
                format!("{id} is still up"),
            ));
        }
        let leader_idx = self.leader.ok_or_else(|| {
            io::Error::new(io::ErrorKind::NotFound, "no leader to rejoin under")
        })?;
        let leader_url = self.nodes[leader_idx].url.clone();
        let leader_aligned = self.nodes[leader_idx].aligned;

        // Where did the logs diverge? The first epoch the rejoiner has not
        // seen starts at `start_records` in the shared record units —
        // everything past it on the rejoiner's disk was never replicated.
        let my_epoch = self.nodes[i].db.current_epoch();
        let divergence = self.nodes[leader_idx]
            .db
            .epoch_history()
            .iter()
            .filter(|s| s.epoch > my_epoch)
            .map(|s| s.start_records)
            .min();

        let mut truncated = 0u64;
        let mut full_resync = !leader_aligned;
        if let (Some(target), false) = (divergence, full_resync) {
            match wal::truncate_to_records(&self.nodes[i].dir, target)? {
                TruncateOutcome::AlreadyShort => {}
                TruncateOutcome::Truncated { dropped_records } => truncated = dropped_records,
                // The local checkpoint already covers past the divergence
                // point: the prefix cannot be carved out file-level.
                TruncateOutcome::NeedsResync => full_resync = true,
            }
        }

        // Reopen from the kept prefix; the old Arc (and its file handles)
        // is dropped with the node swap below.
        let db = Arc::new(Tsdb::open(
            &self.nodes[i].dir,
            self.wal_opts,
            self.tsdb_cfg.clone(),
        )?);
        db.set_leader(false);
        let kept = db.wal_position().map_or(0, |p| p.records);
        let mut follower =
            WalFollower::new(db.clone(), leader_url).with_follower_id(id.to_string());
        if full_resync {
            db.clear_for_resync();
            follower.bootstrap().map_err(io::Error::other)?;
        } else {
            follower.resume_from_records(kept).map_err(io::Error::other)?;
        }
        follower.catch_up(16).map_err(io::Error::other)?;

        let server = HttpServer::serve(
            ServerConfig::ephemeral(),
            api_router(db.clone(), self.now.clone()),
        )
        .map_err(io::Error::other)?;
        let node = &mut self.nodes[i];
        node.url = server.base_url().to_string();
        node.server = Some(server);
        node.db = db;
        node.follower = Some(follower);
        node.role = NodeRole::Follower;
        node.aligned = !full_resync && node.aligned;
        self.event(
            now_ms,
            format!(
                "rejoin node={id} truncated={truncated} resync={full_resync} from_records={kept}"
            ),
        );
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ceems_metrics::labels;
    use ceems_metrics::matcher::LabelMatcher;
    use std::sync::atomic::{AtomicI64, Ordering};

    fn tmp(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!(
            "ceems-election-{tag}-{}-{}",
            std::process::id(),
            std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .unwrap()
                .as_nanos()
        ))
    }

    fn sim_clock() -> (Arc<AtomicI64>, NowFn) {
        let t = Arc::new(AtomicI64::new(0));
        let t2 = t.clone();
        (t, Arc::new(move || t2.load(Ordering::Relaxed)))
    }

    fn group(dir: &std::path::Path, now: NowFn) -> ReplicationGroup {
        ReplicationGroup::new(
            dir,
            3,
            WalOptions::default(),
            TsdbConfig::default(),
            FailoverConfig {
                probe_interval_ms: 100,
                election_timeout_ms: 300,
                min_catchup_records: u64::MAX,
                catchup_polls: 64,
            },
            now,
        )
        .unwrap()
    }

    #[test]
    fn failover_promotes_reroutes_and_fences() {
        let dir = tmp("basic");
        let (clock, now) = sim_clock();
        let mut g = group(&dir, now);
        let router = g.write_router();
        let series = labels! {"__name__" => "watts", "uuid" => "u1"};

        assert_eq!(g.epoch(), 1);
        assert_eq!(g.leader_id(), Some("node-0"));
        for i in 0..50i64 {
            router.append_batch(&[(series.clone(), i * 1000, i as f64)]).unwrap();
            clock.fetch_add(100, Ordering::Relaxed);
            g.tick(clock.load(Ordering::Relaxed));
        }
        let old_epoch = router.epoch();
        let old_db = router.leader_db().unwrap();

        g.kill("node-0");
        // Probe misses accumulate until the timeout deposes node-0.
        for _ in 0..6 {
            clock.fetch_add(100, Ordering::Relaxed);
            g.tick(clock.load(Ordering::Relaxed));
        }
        assert_eq!(g.failovers(), 1);
        assert_eq!(g.epoch(), old_epoch + 1);
        let new_leader = g.leader_id().unwrap().to_string();
        assert_ne!(new_leader, "node-0");

        // The route moved; a write through it lands on the new leader.
        assert_eq!(router.epoch(), old_epoch + 1);
        router.append_batch(&[(series.clone(), 60_000, 60.0)]).unwrap();

        // The fence: the dead leader's epoch is rejected everywhere live.
        let fenced = g
            .node_db(&new_leader)
            .unwrap()
            .append_batch_fenced(old_epoch, &[(series.clone(), 61_000, 61.0)]);
        assert!(fenced.is_err(), "stale epoch must be fenced");
        // And the old leader itself (if something still holds its handle)
        // rejects writes stamped with the NEW epoch: it never saw the bump.
        assert!(old_db.append_batch_fenced(g.epoch(), &[(series, 62_000, 62.0)]).is_err());
        assert!(g.fenced_writes() >= 2);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn rejoin_truncates_divergent_tail_and_converges() {
        let dir = tmp("rejoin");
        let (clock, now) = sim_clock();
        let mut g = group(&dir, now);
        let router = g.write_router();
        let series = labels! {"__name__" => "watts", "uuid" => "u1"};
        for i in 0..30i64 {
            router.append_batch(&[(series.clone(), i * 1000, i as f64)]).unwrap();
            clock.fetch_add(100, Ordering::Relaxed);
            g.tick(clock.load(Ordering::Relaxed));
        }

        // Unreplicated (unacked) writes land on the leader, then it dies
        // before any follower could stream them: the divergent tail.
        g.kill("node-0");
        let old_db = g.node_db("node-0").unwrap();
        for i in 30..35i64 {
            old_db.append_batch_fenced(1, &[(series.clone(), i * 1000, i as f64)]).unwrap();
        }
        for _ in 0..6 {
            clock.fetch_add(100, Ordering::Relaxed);
            g.tick(clock.load(Ordering::Relaxed));
        }
        assert_eq!(g.failovers(), 1);

        // Post-failover writes the rejoiner must converge onto.
        for i in 35..45i64 {
            router.append_batch(&[(series.clone(), i * 1000, 1000.0 + i as f64)]).unwrap();
        }
        g.rejoin("node-0").unwrap();
        for _ in 0..4 {
            clock.fetch_add(100, Ordering::Relaxed);
            g.tick(clock.load(Ordering::Relaxed));
        }

        let rejoined = g.node_db("node-0").unwrap();
        let got = rejoined.select(&[LabelMatcher::eq("__name__", "watts")], 0, i64::MAX);
        assert_eq!(got.len(), 1);
        let ts: Vec<i64> = got[0].samples.iter().map(|s| s.t_ms).collect();
        // Acked prefix (0..30) and post-failover writes (35..45) present;
        // the divergent tail (30..35, values 30..35) truncated — never
        // resurrected.
        assert!(ts.contains(&29_000));
        assert!(ts.contains(&44_000));
        for i in 30..35i64 {
            let at = got[0].samples.iter().find(|s| s.t_ms == i * 1000);
            assert!(
                at.is_none_or(|s| s.v >= 1000.0),
                "truncated write resurrected at t={}: {at:?}",
                i * 1000
            );
        }
        // Byte-identical to the leader's view of the same selector.
        let leader_db = router.leader_db().unwrap();
        let want = leader_db.select(&[LabelMatcher::eq("__name__", "watts")], 0, i64::MAX);
        assert_eq!(got[0].samples, want[0].samples);
        assert!(g.events().iter().any(|e| e.contains("rejoin node=node-0")));
        std::fs::remove_dir_all(&dir).ok();
    }
}
