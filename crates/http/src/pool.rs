//! Client-side keep-alive connection pool (S20).
//!
//! Every [`crate::Client`] owns (and its clones share) a per-host pool of
//! idle keep-alive connections. A checkout revalidates the socket before
//! reuse — age against the idle TTL, then one non-blocking peek: a pooled
//! connection with pending bytes or EOF was closed (or corrupted) by the
//! server and is discarded instead of carrying a request. The pool is
//! bounded per host; overflow check-ins just close the socket.

use std::collections::HashMap;
use std::net::TcpStream;
use std::os::unix::io::AsRawFd;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use parking_lot::Mutex;

use crate::sys;

/// Idle connections a pool retains per `host:port` authority.
pub const DEFAULT_POOL_PER_HOST: usize = 8;

/// How long an idle pooled connection stays eligible for reuse. Kept well
/// under the server's default 60 s `idle_timeout` so most checkouts don't
/// race the server-side reaper (the peek-revalidation catches those that
/// do).
pub const DEFAULT_IDLE_TTL: Duration = Duration::from_secs(30);

struct Idle {
    stream: TcpStream,
    since: Instant,
}

/// Reuse/miss/discard counters, for benches and tests.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Checkouts satisfied by a pooled connection.
    pub reused: u64,
    /// Checkouts that had to open a fresh connection.
    pub fresh: u64,
    /// Pooled connections discarded at checkout (stale, EOF, stray bytes).
    pub discarded: u64,
}

/// A per-host pool of idle keep-alive connections.
pub struct Pool {
    max_per_host: usize,
    idle_ttl: Duration,
    idle: Mutex<HashMap<String, Vec<Idle>>>,
    reused: AtomicU64,
    fresh: AtomicU64,
    discarded: AtomicU64,
}

impl std::fmt::Debug for Pool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Pool")
            .field("max_per_host", &self.max_per_host)
            .field("idle_ttl", &self.idle_ttl)
            .field("stats", &self.stats())
            .finish()
    }
}

impl Default for Pool {
    fn default() -> Self {
        Pool::new(DEFAULT_POOL_PER_HOST)
    }
}

impl Pool {
    /// Creates a pool retaining up to `max_per_host` idle connections per
    /// authority. `0` disables pooling entirely (every checkout misses,
    /// every check-in closes).
    pub fn new(max_per_host: usize) -> Pool {
        Pool {
            max_per_host,
            idle_ttl: DEFAULT_IDLE_TTL,
            idle: Mutex::new(HashMap::new()),
            reused: AtomicU64::new(0),
            fresh: AtomicU64::new(0),
            discarded: AtomicU64::new(0),
        }
    }

    /// The per-host bound.
    pub fn max_per_host(&self) -> usize {
        self.max_per_host
    }

    /// Pops a validated idle connection for `authority`, newest first
    /// (LIFO keeps the working set warm and lets the tail age out).
    pub fn checkout(&self, authority: &str) -> Option<TcpStream> {
        loop {
            let idle = {
                let mut map = self.idle.lock();
                let list = map.get_mut(authority)?;
                let idle = list.pop();
                if list.is_empty() {
                    map.remove(authority);
                }
                idle?
            };
            // Still usable when a non-blocking peek sees *nothing*:
            // readable zero bytes is EOF, readable data is protocol junk
            // from a connection that carried no outstanding request.
            if idle.since.elapsed() <= self.idle_ttl && sys::is_quiet(idle.stream.as_raw_fd()) {
                self.reused.fetch_add(1, Ordering::Relaxed);
                return Some(idle.stream);
            }
            self.discarded.fetch_add(1, Ordering::Relaxed);
            // Stale or dead: drop it and try the next one.
        }
    }

    /// Returns a connection after a fully-framed response. Drops it when
    /// the per-host bound is reached.
    pub fn checkin(&self, authority: &str, stream: TcpStream) {
        if self.max_per_host == 0 {
            return;
        }
        let mut map = self.idle.lock();
        let list = map.entry(authority.to_string()).or_default();
        if list.len() < self.max_per_host {
            list.push(Idle {
                stream,
                since: Instant::now(),
            });
        }
    }

    /// Records a checkout that went to a fresh connection.
    pub fn note_fresh(&self) {
        self.fresh.fetch_add(1, Ordering::Relaxed);
    }

    /// Idle connections currently pooled (all hosts).
    pub fn idle_count(&self) -> usize {
        self.idle.lock().values().map(Vec::len).sum()
    }

    /// Counter snapshot.
    pub fn stats(&self) -> PoolStats {
        PoolStats {
            reused: self.reused.load(Ordering::Relaxed),
            fresh: self.fresh.load(Ordering::Relaxed),
            discarded: self.discarded.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;
    use std::net::TcpListener;

    fn pair() -> (TcpStream, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let a = TcpStream::connect(addr).unwrap();
        let (b, _) = listener.accept().unwrap();
        (a, b)
    }

    #[test]
    fn checkout_returns_checked_in_connection() {
        let pool = Pool::new(4);
        let (a, _b) = pair();
        pool.checkin("h:1", a);
        assert_eq!(pool.idle_count(), 1);
        assert!(pool.checkout("h:1").is_some());
        assert_eq!(pool.idle_count(), 0);
        assert_eq!(pool.stats().reused, 1);
    }

    #[test]
    fn per_host_bound_enforced() {
        let pool = Pool::new(2);
        let mut keep = Vec::new();
        for _ in 0..4 {
            let (a, b) = pair();
            keep.push(b);
            pool.checkin("h:1", a);
        }
        assert_eq!(pool.idle_count(), 2, "overflow check-ins dropped");
    }

    #[test]
    fn zero_sized_pool_disables_pooling() {
        let pool = Pool::new(0);
        let (a, _b) = pair();
        pool.checkin("h:1", a);
        assert_eq!(pool.idle_count(), 0);
        assert!(pool.checkout("h:1").is_none());
    }

    #[test]
    fn dead_connection_discarded_at_checkout() {
        let pool = Pool::new(4);
        let (a, b) = pair();
        pool.checkin("h:1", a);
        drop(b); // server closed while idle
        std::thread::sleep(Duration::from_millis(20));
        assert!(pool.checkout("h:1").is_none());
        assert_eq!(pool.stats().discarded, 1);
    }

    #[test]
    fn connection_with_stray_bytes_discarded() {
        let pool = Pool::new(4);
        let (a, mut b) = pair();
        pool.checkin("h:1", a);
        b.write_all(b"garbage").unwrap();
        std::thread::sleep(Duration::from_millis(20));
        assert!(pool.checkout("h:1").is_none());
        assert_eq!(pool.stats().discarded, 1);
    }

    #[test]
    fn hosts_are_isolated() {
        let pool = Pool::new(4);
        let (a, _b1) = pair();
        pool.checkin("h:1", a);
        assert!(pool.checkout("other:2").is_none());
        assert!(pool.checkout("h:1").is_some());
    }
}
