//! Replica catch-up over HTTP: a follower started empty streams the
//! leader's checkpoint + WAL segments through the Prometheus-style API and
//! ends up answering queries identically to the leader.

use std::fs;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use ceems_http::{HttpServer, ServerConfig};
use ceems_metrics::labels;
use ceems_metrics::labels::LabelSet;
use ceems_metrics::matcher::LabelMatcher;
use ceems_tsdb::httpapi::api_router;
use ceems_tsdb::promql::{instant_query, parse_expr, range_query};
use ceems_tsdb::replica::WalFollower;
use ceems_tsdb::wal::{FsyncMode, WalOptions};
use ceems_tsdb::{Tsdb, TsdbConfig};

static DIR_ID: AtomicU64 = AtomicU64::new(0);

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "ceems-replica-{tag}-{}-{}",
        std::process::id(),
        DIR_ID.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = fs::remove_dir_all(&dir);
    dir
}

fn config() -> TsdbConfig {
    TsdbConfig {
        retention_ms: i64::MAX,
        query_threads: 2,
        posting_cache_size: 16,
    }
}

fn wal_opts() -> WalOptions {
    WalOptions {
        segment_bytes: 1024, // many small segments: the follower must walk them
        fsync: FsyncMode::Never,
    }
}

fn open_leader(dir: &PathBuf) -> Arc<Tsdb> {
    Arc::new(Tsdb::open(dir, wal_opts(), config()).unwrap())
}

fn serve(db: Arc<Tsdb>) -> HttpServer {
    let router = api_router(db, Arc::new(|| 10_000_000));
    HttpServer::serve(ServerConfig::ephemeral(), router).unwrap()
}

fn ingest(db: &Tsdb, steps: std::ops::Range<i64>) {
    for step in steps {
        let t = step * 15_000;
        let mut batch: Vec<(LabelSet, i64, f64)> = Vec::new();
        for i in 0..5 {
            batch.push((
                labels! {"__name__" => "power", "instance" => format!("n{i}")},
                t,
                200.0 + i as f64 + step as f64,
            ));
        }
        batch.push((labels! {"__name__" => "up", "instance" => "n0"}, t, 1.0));
        db.append_batch(&batch);
    }
}

fn assert_same_answers(follower: &Tsdb, leader: &Tsdb, context: &str) {
    assert_eq!(
        follower.select(&[], i64::MIN, i64::MAX),
        leader.select(&[], i64::MIN, i64::MAX),
        "{context}: dumps differ"
    );
    for q in ["sum(power)", "power", "up"] {
        let expr = parse_expr(q).unwrap();
        assert_eq!(
            instant_query(follower, &expr, 600_000),
            instant_query(leader, &expr, 600_000),
            "{context}: instant {q}"
        );
        assert_eq!(
            range_query(follower, &expr, 0, 600_000, 15_000),
            range_query(leader, &expr, 0, 600_000, 15_000),
            "{context}: range {q}"
        );
    }
}

#[test]
fn empty_follower_catches_up_and_serves_same_results() {
    let leader_dir = temp_dir("leader");
    let leader = open_leader(&leader_dir);
    ingest(&leader, 0..10);
    // Checkpoint mid-history so bootstrap exercises the checkpoint path
    // *and* tailing the segments written after it.
    leader.checkpoint().unwrap();
    ingest(&leader, 10..25);
    leader.delete_series(&[LabelMatcher::eq("instance", "n3")]);
    ingest(&leader, 25..30);
    let server = serve(leader.clone());

    let follower_db = Arc::new(Tsdb::new(config()));
    let mut follower = WalFollower::new(follower_db.clone(), server.base_url());
    follower.bootstrap().unwrap();
    follower.catch_up(50).unwrap();

    assert_same_answers(&follower_db, &leader, "initial catch-up");
    // The follower reports the leader's applied position for LB health.
    let leader_records = leader.wal_position().unwrap().records;
    assert_eq!(follower_db.reported_wal_position().records, leader_records);

    // Leader keeps moving; an incremental catch-up converges again.
    ingest(&leader, 30..40);
    leader.delete_series(&[LabelMatcher::eq("instance", "n1")]);
    follower.catch_up(50).unwrap();
    assert_same_answers(&follower_db, &leader, "incremental catch-up");

    server.shutdown();
    let _ = fs::remove_dir_all(&leader_dir);
}

#[test]
fn durable_follower_survives_its_own_crash() {
    // The follower can itself be WAL-backed: after catch-up, kill it,
    // reopen from its directory, and it still matches the leader.
    let leader_dir = temp_dir("leader2");
    let follower_dir = temp_dir("follower2");
    let leader = open_leader(&leader_dir);
    ingest(&leader, 0..20);
    let server = serve(leader.clone());

    {
        let follower_db = Arc::new(Tsdb::open(&follower_dir, wal_opts(), config()).unwrap());
        let mut follower = WalFollower::new(follower_db.clone(), server.base_url());
        follower.bootstrap().unwrap();
        follower.catch_up(50).unwrap();
        assert_same_answers(&follower_db, &leader, "before follower crash");
    }
    let reopened = Tsdb::open(&follower_dir, wal_opts(), config()).unwrap();
    assert_same_answers(&reopened, &leader, "after follower crash");

    server.shutdown();
    let _ = fs::remove_dir_all(&leader_dir);
    let _ = fs::remove_dir_all(&follower_dir);
}

#[test]
fn gc_behind_follower_auto_resyncs() {
    let leader_dir = temp_dir("leader3");
    let leader = open_leader(&leader_dir);
    ingest(&leader, 0..10);
    let server = serve(leader.clone());

    let follower_db = Arc::new(Tsdb::new(config()));
    let mut follower = WalFollower::new(follower_db.clone(), server.base_url());
    follower.bootstrap().unwrap();
    follower.catch_up(50).unwrap();
    assert_eq!(follower.resyncs(), 0);

    // Leader checkpoints and GCs every segment the follower was tailing.
    // The follower's next fetch gets 410 Gone and it re-bootstraps from
    // the checkpoint on its own, then converges.
    ingest(&leader, 10..20);
    leader.checkpoint().unwrap();
    follower.catch_up(50).unwrap();
    assert_eq!(follower.resyncs(), 1);
    assert_same_answers(&follower_db, &leader, "post-GC auto-resync");

    // The resynced follower keeps tailing normally afterwards.
    ingest(&leader, 20..30);
    follower.catch_up(50).unwrap();
    assert_eq!(follower.resyncs(), 1);
    assert_same_answers(&follower_db, &leader, "post-resync incremental");

    server.shutdown();
    let _ = fs::remove_dir_all(&leader_dir);
}

#[test]
fn follower_refuses_leader_without_wal() {
    let leader = Arc::new(Tsdb::new(config()));
    ingest(&leader, 0..2);
    let server = serve(leader.clone());
    let follower_db = Arc::new(Tsdb::new(config()));
    let follower = WalFollower::new(follower_db, server.base_url());
    assert!(follower.leader_position().is_err());
    server.shutdown();
}

#[test]
fn rate_limited_follower_backs_off_and_still_converges() {
    let leader_dir = temp_dir("leader4");
    let leader = open_leader(&leader_dir);
    // Many 1 KiB segments force a long poll sequence, so a tiny token
    // bucket is guaranteed to fire mid-catch-up.
    ingest(&leader, 0..40);

    let limiter = ceems_tsdb::httpapi::WalFetchLimiter::new(200.0, 2.0);
    let mut opts = ceems_tsdb::httpapi::ApiOptions::new(Arc::new(|| 10_000_000));
    opts.wal_fetch_limit = Some(limiter.clone());
    let router = ceems_tsdb::httpapi::api_router_with(leader.clone(), opts);
    let server = HttpServer::serve(ServerConfig::ephemeral(), router).unwrap();

    let follower_db = Arc::new(Tsdb::new(config()));
    let mut follower = WalFollower::new(follower_db.clone(), server.base_url())
        .with_follower_id("test-follower");
    follower.bootstrap().unwrap();
    follower.catch_up(200).unwrap();

    assert!(
        follower.rate_limited() > 0,
        "expected the leader's token bucket to shed some fetches"
    );
    assert!(limiter.throttled_counter().get() >= follower.rate_limited() as f64);
    assert_same_answers(&follower_db, &leader, "rate-limited catch-up");

    server.shutdown();
    let _ = fs::remove_dir_all(&leader_dir);
}
