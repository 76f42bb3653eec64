//! Shared resilience primitives for every inter-component hop.
//!
//! One policy, used everywhere: the LB forwarding to the query frontend and
//! the backend pool, the query frontend fanning out to replicas, the WAL
//! follower streaming from its leader, the API-server updater querying the
//! TSDB, and the emission-factor provider chain. The primitives are:
//!
//! * [`Backoff`] — exponential backoff with **full jitter**, seedable so the
//!   chaos harness replays identical schedules.
//! * [`RetryPolicy`] — bounded attempts around a fallible operation, with an
//!   optional total deadline spanning all attempts.
//! * [`CircuitBreaker`] — a closed → open → half-open → closed breaker with
//!   an injectable millisecond clock for table-driven tests.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::Mutex;

/// SplitMix64 — the mixing function behind all deterministic jitter and
/// fault decisions in the stack. Public so the fault layer and tests share
/// one definition.
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// FNV-1a over bytes; used to fold endpoint names into fault/jitter seeds.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    for b in bytes {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

fn wall_seed() -> u64 {
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_nanos() as u64)
        .unwrap_or(0x5EED)
}

/// Exponential backoff with full jitter.
///
/// The n-th delay is uniform in `[0, min(max, base · 2ⁿ))` ("full jitter",
/// the AWS architecture-blog variant that minimises synchronized retry
/// storms). The jitter stream is a SplitMix64 sequence, so a fixed seed
/// produces a fixed delay schedule.
#[derive(Debug)]
pub struct Backoff {
    base: Duration,
    max: Duration,
    attempt: AtomicU64,
    rng: AtomicU64,
}

impl Backoff {
    /// Backoff seeded from the wall clock (production use).
    pub fn new(base: Duration, max: Duration) -> Backoff {
        Backoff::seeded(base, max, wall_seed())
    }

    /// Backoff with a fixed jitter seed (deterministic tests / chaos runs).
    pub fn seeded(base: Duration, max: Duration, seed: u64) -> Backoff {
        Backoff {
            base,
            max,
            attempt: AtomicU64::new(0),
            rng: AtomicU64::new(splitmix64(seed)),
        }
    }

    /// Next delay in the schedule; each call advances the attempt counter.
    pub fn next_delay(&self) -> Duration {
        let n = self.attempt.fetch_add(1, Ordering::Relaxed).min(20) as u32;
        let ceiling = self
            .base
            .saturating_mul(1u32 << n.min(20))
            .min(self.max)
            .max(Duration::from_micros(1));
        let r = {
            let mut cur = self.rng.load(Ordering::Relaxed);
            loop {
                let next = splitmix64(cur);
                match self.rng.compare_exchange_weak(
                    cur,
                    next,
                    Ordering::Relaxed,
                    Ordering::Relaxed,
                ) {
                    Ok(_) => break next,
                    Err(seen) => cur = seen,
                }
            }
        };
        let frac = (r >> 11) as f64 / (1u64 << 53) as f64;
        ceiling.mul_f64(frac)
    }

    /// Resets the attempt counter (after a success).
    pub fn reset(&self) {
        self.attempt.store(0, Ordering::Relaxed);
    }
}

/// A retry policy: bounded attempts, full-jitter backoff between them and an
/// optional deadline over the whole sequence.
#[derive(Clone, Debug)]
pub struct RetryPolicy {
    /// Total attempts (1 = no retries).
    pub max_attempts: u32,
    /// First backoff ceiling.
    pub base_delay: Duration,
    /// Backoff ceiling cap.
    pub max_delay: Duration,
    /// Optional total budget across all attempts and sleeps.
    pub deadline: Option<Duration>,
    /// Jitter seed.
    pub seed: u64,
}

impl RetryPolicy {
    /// Policy with `max_attempts` and the default 10 ms → 500 ms backoff.
    pub fn new(max_attempts: u32) -> RetryPolicy {
        RetryPolicy {
            max_attempts: max_attempts.max(1),
            base_delay: Duration::from_millis(10),
            max_delay: Duration::from_millis(500),
            deadline: None,
            seed: wall_seed(),
        }
    }

    /// A policy that never retries.
    pub fn disabled() -> RetryPolicy {
        RetryPolicy::new(1)
    }

    /// Sets the backoff range.
    pub fn with_backoff(mut self, base: Duration, max: Duration) -> RetryPolicy {
        self.base_delay = base;
        self.max_delay = max;
        self
    }

    /// Sets the total deadline.
    pub fn with_deadline(mut self, deadline: Duration) -> RetryPolicy {
        self.deadline = Some(deadline);
        self
    }

    /// Fixes the jitter seed (deterministic tests).
    pub fn with_seed(mut self, seed: u64) -> RetryPolicy {
        self.seed = seed;
        self
    }

    /// Runs `op` until it succeeds, attempts run out, or the deadline would
    /// be blown by the next sleep. The closure receives the 0-based attempt
    /// index.
    pub fn run<T, E>(&self, mut op: impl FnMut(u32) -> Result<T, E>) -> Result<T, E> {
        let start = Instant::now();
        let backoff = Backoff::seeded(self.base_delay, self.max_delay, self.seed);
        let attempts = self.max_attempts.max(1);
        let mut last_err = None;
        for attempt in 0..attempts {
            match op(attempt) {
                Ok(v) => return Ok(v),
                Err(e) => last_err = Some(e),
            }
            if attempt + 1 >= attempts {
                break;
            }
            let delay = backoff.next_delay();
            if let Some(d) = self.deadline {
                if start.elapsed() + delay >= d {
                    break;
                }
            }
            std::thread::sleep(delay);
        }
        Err(last_err.expect("at least one attempt ran"))
    }

    /// Remaining time under the deadline measured from `start`; `None` when
    /// no deadline is set, `Some(ZERO)` when it has expired.
    pub fn remaining(&self, start: Instant) -> Option<Duration> {
        self.deadline.map(|d| d.saturating_sub(start.elapsed()))
    }
}

/// Millisecond clock used by [`CircuitBreaker`]; injectable for tests.
pub type ClockMs = Arc<dyn Fn() -> u64 + Send + Sync>;

fn wall_clock_ms() -> ClockMs {
    Arc::new(|| {
        std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_millis() as u64)
            .unwrap_or(0)
    })
}

/// Circuit-breaker tuning.
#[derive(Clone, Debug)]
pub struct BreakerConfig {
    /// Consecutive failures that trip the breaker open.
    pub failure_threshold: u32,
    /// Time the breaker stays open before admitting half-open probes.
    pub cooldown_ms: u64,
    /// Concurrent probes admitted while half-open.
    pub half_open_max_probes: u32,
}

impl Default for BreakerConfig {
    fn default() -> Self {
        BreakerConfig {
            failure_threshold: 3,
            cooldown_ms: 1_000,
            half_open_max_probes: 1,
        }
    }
}

/// Breaker states.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BreakerState {
    /// Traffic flows; consecutive failures are counted.
    Closed,
    /// Traffic is rejected until the cooldown elapses.
    Open,
    /// A bounded number of probes test the backend; one failure re-opens.
    HalfOpen,
}

#[derive(Debug)]
struct BreakerInner {
    state: BreakerState,
    consecutive_failures: u32,
    opened_at_ms: u64,
    half_open_inflight: u32,
}

/// A half-open circuit breaker.
///
/// `try_acquire` admits or rejects a call (and performs the open → half-open
/// transition once the cooldown elapses); the caller reports the outcome via
/// `on_success` / `on_failure`.
pub struct CircuitBreaker {
    cfg: BreakerConfig,
    clock: ClockMs,
    inner: Mutex<BreakerInner>,
    opens: AtomicU64,
    rejections: AtomicU64,
}

impl std::fmt::Debug for CircuitBreaker {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CircuitBreaker")
            .field("cfg", &self.cfg)
            .field("state", &self.inner.lock().state)
            .finish()
    }
}

impl CircuitBreaker {
    /// Breaker on the wall clock.
    pub fn new(cfg: BreakerConfig) -> CircuitBreaker {
        CircuitBreaker::with_clock(cfg, wall_clock_ms())
    }

    /// Breaker on an injected clock (table-driven tests).
    pub fn with_clock(cfg: BreakerConfig, clock: ClockMs) -> CircuitBreaker {
        CircuitBreaker {
            cfg,
            clock,
            inner: Mutex::new(BreakerInner {
                state: BreakerState::Closed,
                consecutive_failures: 0,
                opened_at_ms: 0,
                half_open_inflight: 0,
            }),
            opens: AtomicU64::new(0),
            rejections: AtomicU64::new(0),
        }
    }

    /// Current state without side effects (an elapsed cooldown still reports
    /// `Open` until a call probes it).
    pub fn state(&self) -> BreakerState {
        self.inner.lock().state
    }

    /// True when a call *would* be admitted right now. Does not consume a
    /// half-open probe slot; use for cheap filtering (e.g. backend pick).
    pub fn available(&self) -> bool {
        let inner = self.inner.lock();
        match inner.state {
            BreakerState::Closed => true,
            BreakerState::Open => (self.clock)() >= inner.opened_at_ms + self.cfg.cooldown_ms,
            BreakerState::HalfOpen => inner.half_open_inflight < self.cfg.half_open_max_probes,
        }
    }

    /// Admits or rejects a call. Open breakers whose cooldown has elapsed
    /// transition to half-open and admit the caller as the probe.
    pub fn try_acquire(&self) -> bool {
        let now = (self.clock)();
        let mut inner = self.inner.lock();
        let admitted = match inner.state {
            BreakerState::Closed => true,
            BreakerState::Open => {
                if now >= inner.opened_at_ms + self.cfg.cooldown_ms {
                    inner.state = BreakerState::HalfOpen;
                    inner.half_open_inflight = 1;
                    true
                } else {
                    false
                }
            }
            BreakerState::HalfOpen => {
                if inner.half_open_inflight < self.cfg.half_open_max_probes {
                    inner.half_open_inflight += 1;
                    true
                } else {
                    false
                }
            }
        };
        if !admitted {
            self.rejections.fetch_add(1, Ordering::Relaxed);
        }
        admitted
    }

    /// Reports a successful call.
    pub fn on_success(&self) {
        let mut inner = self.inner.lock();
        match inner.state {
            BreakerState::Closed => inner.consecutive_failures = 0,
            BreakerState::HalfOpen => {
                inner.state = BreakerState::Closed;
                inner.consecutive_failures = 0;
                inner.half_open_inflight = 0;
            }
            BreakerState::Open => {}
        }
    }

    /// Reports a failed call.
    pub fn on_failure(&self) {
        let now = (self.clock)();
        let mut inner = self.inner.lock();
        match inner.state {
            BreakerState::Closed => {
                inner.consecutive_failures += 1;
                if inner.consecutive_failures >= self.cfg.failure_threshold {
                    inner.state = BreakerState::Open;
                    inner.opened_at_ms = now;
                    self.opens.fetch_add(1, Ordering::Relaxed);
                }
            }
            BreakerState::HalfOpen => {
                inner.state = BreakerState::Open;
                inner.opened_at_ms = now;
                inner.half_open_inflight = 0;
                self.opens.fetch_add(1, Ordering::Relaxed);
            }
            BreakerState::Open => {}
        }
    }

    /// Forces the breaker closed (an external health probe saw the backend
    /// respond).
    pub fn force_close(&self) {
        let mut inner = self.inner.lock();
        inner.state = BreakerState::Closed;
        inner.consecutive_failures = 0;
        inner.half_open_inflight = 0;
    }

    /// Times the breaker tripped open.
    pub fn opens(&self) -> u64 {
        self.opens.load(Ordering::Relaxed)
    }

    /// Calls rejected while open / half-open-saturated.
    pub fn rejections(&self) -> u64 {
        self.rejections.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64 as StdAtomicU64;

    #[test]
    fn backoff_is_deterministic_and_bounded() {
        let a = Backoff::seeded(Duration::from_millis(10), Duration::from_millis(200), 42);
        let b = Backoff::seeded(Duration::from_millis(10), Duration::from_millis(200), 42);
        for n in 0..12 {
            let da = a.next_delay();
            let db = b.next_delay();
            assert_eq!(da, db, "same seed must give the same schedule");
            let ceiling = Duration::from_millis(10)
                .saturating_mul(1 << n.min(20))
                .min(Duration::from_millis(200));
            assert!(da <= ceiling, "delay {da:?} above ceiling {ceiling:?}");
        }
        let c = Backoff::seeded(Duration::from_millis(10), Duration::from_millis(200), 43);
        let mut diff = false;
        let a = Backoff::seeded(Duration::from_millis(10), Duration::from_millis(200), 42);
        for _ in 0..12 {
            if a.next_delay() != c.next_delay() {
                diff = true;
            }
        }
        assert!(diff, "different seeds should diverge");
    }

    #[test]
    fn retry_policy_stops_after_max_attempts() {
        let policy = RetryPolicy::new(3)
            .with_backoff(Duration::from_micros(10), Duration::from_micros(50))
            .with_seed(7);
        let calls = StdAtomicU64::new(0);
        let r: Result<(), &str> = policy.run(|_| {
            calls.fetch_add(1, Ordering::Relaxed);
            Err("down")
        });
        assert!(r.is_err());
        assert_eq!(calls.load(Ordering::Relaxed), 3);
    }

    #[test]
    fn retry_policy_returns_first_success() {
        let policy = RetryPolicy::new(5)
            .with_backoff(Duration::from_micros(10), Duration::from_micros(50))
            .with_seed(7);
        let r: Result<u32, &str> = policy.run(|attempt| {
            if attempt < 2 {
                Err("down")
            } else {
                Ok(attempt)
            }
        });
        assert_eq!(r, Ok(2));
    }

    #[test]
    fn retry_deadline_cuts_the_sequence_short() {
        let policy = RetryPolicy::new(100)
            .with_backoff(Duration::from_millis(20), Duration::from_millis(20))
            .with_deadline(Duration::from_millis(1))
            .with_seed(7);
        let calls = StdAtomicU64::new(0);
        let start = Instant::now();
        let r: Result<(), &str> = policy.run(|_| {
            calls.fetch_add(1, Ordering::Relaxed);
            Err("down")
        });
        assert!(r.is_err());
        // The first sleep (up to 20 ms) would blow the 1 ms deadline, so at
        // most a couple of attempts run and the loop exits quickly.
        assert!(calls.load(Ordering::Relaxed) <= 2);
        assert!(start.elapsed() < Duration::from_secs(2));
    }

    fn test_breaker(cfg: BreakerConfig) -> (CircuitBreaker, Arc<StdAtomicU64>) {
        let t = Arc::new(StdAtomicU64::new(0));
        let t2 = t.clone();
        let clock: ClockMs = Arc::new(move || t2.load(Ordering::Relaxed));
        (CircuitBreaker::with_clock(cfg, clock), t)
    }

    /// Table-driven walk through the full state machine.
    #[test]
    fn breaker_state_machine_table() {
        #[derive(Debug)]
        enum Step {
            /// (advance clock ms)
            Tick(u64),
            Fail,
            Succeed,
            /// try_acquire must return this.
            Acquire(bool),
            /// state() must equal this.
            Expect(BreakerState),
        }
        use BreakerState::*;
        use Step::*;
        let table: Vec<Step> = vec![
            Expect(Closed),
            Acquire(true),
            Fail,
            Expect(Closed), // 1 failure < threshold 3
            Fail,
            Expect(Closed),
            Succeed, // success resets the consecutive count
            Fail,
            Fail,
            Expect(Closed),
            Fail, // third consecutive → open
            Expect(Open),
            Acquire(false), // rejected while open
            Tick(999),
            Acquire(false), // still inside the 1000 ms cooldown
            Tick(1),
            Acquire(true), // cooldown elapsed → half-open probe admitted
            Expect(HalfOpen),
            Acquire(false), // only one probe slot
            Fail,           // probe failed → open again
            Expect(Open),
            Tick(1_000),
            Acquire(true), // second probe window
            Expect(HalfOpen),
            Succeed, // probe succeeded → closed
            Expect(Closed),
            Acquire(true),
        ];
        let (b, t) = test_breaker(BreakerConfig {
            failure_threshold: 3,
            cooldown_ms: 1_000,
            half_open_max_probes: 1,
        });
        for (i, step) in table.iter().enumerate() {
            match step {
                Tick(ms) => {
                    t.fetch_add(*ms, Ordering::Relaxed);
                }
                Fail => b.on_failure(),
                Succeed => b.on_success(),
                Acquire(want) => {
                    assert_eq!(b.try_acquire(), *want, "step {i}: {step:?}");
                }
                Expect(want) => assert_eq!(b.state(), *want, "step {i}: {step:?}"),
            }
        }
        assert_eq!(b.opens(), 2);
        assert!(b.rejections() >= 3);
    }

    #[test]
    fn breaker_available_does_not_consume_probe_slot() {
        let (b, t) = test_breaker(BreakerConfig {
            failure_threshold: 1,
            cooldown_ms: 100,
            half_open_max_probes: 1,
        });
        b.on_failure();
        assert_eq!(b.state(), BreakerState::Open);
        assert!(!b.available());
        t.store(100, Ordering::Relaxed);
        assert!(b.available());
        assert!(b.available(), "available() must not transition or consume");
        assert_eq!(b.state(), BreakerState::Open);
        assert!(b.try_acquire());
        assert_eq!(b.state(), BreakerState::HalfOpen);
        assert!(!b.available(), "probe slot taken");
    }

    #[test]
    fn breaker_force_close_resets() {
        let (b, _t) = test_breaker(BreakerConfig {
            failure_threshold: 1,
            cooldown_ms: 60_000,
            half_open_max_probes: 1,
        });
        b.on_failure();
        assert_eq!(b.state(), BreakerState::Open);
        b.force_close();
        assert_eq!(b.state(), BreakerState::Closed);
        assert!(b.try_acquire());
    }
}
