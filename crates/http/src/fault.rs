//! Deterministic, seedable HTTP fault injection (chaos layer).
//!
//! A [`FaultPlan`] sits at the client and/or server boundary and decides,
//! per request, whether to inject a fault: added latency, a dropped
//! connection, a synthesized 5xx, a truncated body or a corrupted body.
//! Decisions are a **pure hash** of `(seed, endpoint, per-endpoint request
//! index, rule index)` — no wall clock, no global RNG — so a serially
//! driven harness observes the *same fault trace* for the same seed, which
//! `tests/chaos_soak.rs` asserts.
//!
//! The whole module is compiled only with the non-default `fault` cargo
//! feature; production builds of the hot path (`cargo build --release
//! --no-default-features` at the workspace root) carry zero fault-injection
//! code.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use crate::resilience::{fnv1a, splitmix64};

/// What to inject.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultKind {
    /// Sleep this long before handling the request.
    Latency {
        /// Added delay in milliseconds.
        ms: u64,
    },
    /// Drop the connection without a response (client sees a reset/EOF).
    ConnReset,
    /// Skip the handler and answer with this 5xx status.
    ServerError {
        /// Status code to synthesize (e.g. 500, 502, 503).
        status: u16,
    },
    /// Send the response head but cut the body short mid-write.
    TruncateBody,
    /// Flip bytes in the response body, keeping its length.
    CorruptBody,
}

impl FaultKind {
    /// Stable label used in traces and metrics.
    pub fn label(self) -> &'static str {
        match self {
            FaultKind::Latency { .. } => "latency",
            FaultKind::ConnReset => "reset",
            FaultKind::ServerError { .. } => "5xx",
            FaultKind::TruncateBody => "truncate",
            FaultKind::CorruptBody => "corrupt",
        }
    }
}

/// One match rule: which endpoints, which fault, how often, and an optional
/// per-endpoint request-index window.
#[derive(Clone, Debug)]
pub struct FaultRule {
    /// Substring match on the request path (`*` or empty matches all).
    pub endpoint: String,
    /// Fault to inject when the rule fires.
    pub kind: FaultKind,
    /// Firing probability in `[0, 1]`.
    pub probability: f64,
    /// Fires only when the per-endpoint request index is `>= after`.
    pub after: u64,
    /// Fires only when the per-endpoint request index is `< until`.
    pub until: u64,
}

impl FaultRule {
    /// Rule matching `endpoint` with `probability`, active for all requests.
    pub fn new(endpoint: &str, kind: FaultKind, probability: f64) -> FaultRule {
        FaultRule {
            endpoint: endpoint.to_string(),
            kind,
            probability: probability.clamp(0.0, 1.0),
            after: 0,
            until: u64::MAX,
        }
    }

    /// Restricts the rule to per-endpoint request indices `[after, until)`.
    /// A bounded window is how chaos schedules "end": once every endpoint's
    /// index passes `until`, the plan goes quiet and the stack must converge.
    pub fn between(mut self, after: u64, until: u64) -> FaultRule {
        self.after = after;
        self.until = until;
        self
    }

    fn matches(&self, path: &str, seq: u64) -> bool {
        if seq < self.after || seq >= self.until {
            return false;
        }
        self.endpoint.is_empty() || self.endpoint == "*" || path.contains(&self.endpoint)
    }
}

/// One injected fault, recorded for determinism assertions.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FaultEvent {
    /// Request path the fault fired on.
    pub path: String,
    /// Per-endpoint request index.
    pub seq: u64,
    /// [`FaultKind::label`] of the injected fault.
    pub kind: &'static str,
}

/// A seeded fault schedule shared by reference between clients/servers.
#[derive(Debug, Default)]
pub struct FaultPlan {
    seed: u64,
    rules: Vec<FaultRule>,
    seqs: Mutex<BTreeMap<String, u64>>,
    trace: Mutex<Vec<FaultEvent>>,
    injected: AtomicU64,
    decisions: AtomicU64,
}

impl FaultPlan {
    /// Empty plan with a seed; add rules with [`FaultPlan::with_rule`].
    pub fn new(seed: u64) -> FaultPlan {
        FaultPlan {
            seed,
            ..FaultPlan::default()
        }
    }

    /// Adds a rule (builder style).
    pub fn with_rule(mut self, rule: FaultRule) -> FaultPlan {
        self.rules.push(rule);
        self
    }

    /// Parses a compact spec string:
    ///
    /// ```text
    /// seed=7;latency:*:0.1:40;5xx:/api/v1/query:0.05:503;reset:*:0.02;
    /// truncate:/api/v1/query_range:0.02;corrupt:*:0.01:0:0..200
    /// ```
    ///
    /// Entries are `;`-separated. `seed=N` sets the seed (default 0). Rule
    /// entries are `kind:endpoint:probability[:param][:after..until]` where
    /// `param` is milliseconds for `latency` and a status code for `5xx`.
    pub fn parse_spec(spec: &str) -> Result<FaultPlan, String> {
        let mut plan = FaultPlan::new(0);
        for entry in spec.split(';') {
            let entry = entry.trim();
            if entry.is_empty() {
                continue;
            }
            if let Some(seed) = entry.strip_prefix("seed=") {
                plan.seed = seed
                    .trim()
                    .parse()
                    .map_err(|_| format!("bad seed in {entry:?}"))?;
                continue;
            }
            let fields: Vec<&str> = entry.split(':').collect();
            if fields.len() < 3 {
                return Err(format!(
                    "rule {entry:?} needs kind:endpoint:probability"
                ));
            }
            let endpoint = fields[1];
            let probability: f64 = fields[2]
                .parse()
                .map_err(|_| format!("bad probability in {entry:?}"))?;
            let param = fields.get(3).copied();
            let window = fields.get(4).copied();
            let parse_param = |default: u64| -> Result<u64, String> {
                match param {
                    None | Some("") => Ok(default),
                    Some(p) => p.parse().map_err(|_| format!("bad param in {entry:?}")),
                }
            };
            let kind = match fields[0] {
                "latency" => FaultKind::Latency {
                    ms: parse_param(20)?,
                },
                "reset" => FaultKind::ConnReset,
                "5xx" => FaultKind::ServerError {
                    status: parse_param(503)? as u16,
                },
                "truncate" => FaultKind::TruncateBody,
                "corrupt" => FaultKind::CorruptBody,
                other => return Err(format!("unknown fault kind {other:?}")),
            };
            let mut rule = FaultRule::new(endpoint, kind, probability);
            if let Some(w) = window {
                let (a, b) = w
                    .split_once("..")
                    .ok_or_else(|| format!("bad window in {entry:?}"))?;
                let after = a.parse().map_err(|_| format!("bad window in {entry:?}"))?;
                let until = if b.is_empty() {
                    u64::MAX
                } else {
                    b.parse().map_err(|_| format!("bad window in {entry:?}"))?
                };
                rule = rule.between(after, until);
            }
            plan.rules.push(rule);
        }
        Ok(plan)
    }

    /// The plan's seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Decides whether the next request to `path` gets a fault. Advances the
    /// per-endpoint request index; the first matching rule whose hash draw
    /// lands under its probability wins.
    pub fn decide(&self, path: &str) -> Option<FaultKind> {
        let seq = {
            let mut seqs = self.seqs.lock();
            let e = seqs.entry(path.to_string()).or_insert(0);
            let s = *e;
            *e += 1;
            s
        };
        self.decisions.fetch_add(1, Ordering::Relaxed);
        for (i, rule) in self.rules.iter().enumerate() {
            if !rule.matches(path, seq) {
                continue;
            }
            let mut x = self.seed ^ fnv1a(path.as_bytes());
            x = splitmix64(x ^ seq.wrapping_mul(0x9E37_79B9_7F4A_7C15));
            x = splitmix64(x ^ i as u64);
            let draw = (x >> 11) as f64 / (1u64 << 53) as f64;
            if draw < rule.probability {
                self.injected.fetch_add(1, Ordering::Relaxed);
                self.trace.lock().push(FaultEvent {
                    path: path.to_string(),
                    seq,
                    kind: rule.kind.label(),
                });
                return Some(rule.kind);
            }
        }
        None
    }

    /// Total faults injected so far.
    pub fn injected(&self) -> u64 {
        self.injected.load(Ordering::Relaxed)
    }

    /// Total decisions taken (requests seen).
    pub fn decisions(&self) -> u64 {
        self.decisions.load(Ordering::Relaxed)
    }

    /// Snapshot of every injected fault, in decision order.
    pub fn trace(&self) -> Vec<FaultEvent> {
        self.trace.lock().clone()
    }

    /// Wraps the plan for sharing between a client and a server config.
    pub fn shared(self) -> Arc<FaultPlan> {
        Arc::new(self)
    }
}

/// Deterministically mangles a body in place, preserving its length (XORs
/// every 7th byte with 0x5A — the leading `{`/`[` of a JSON payload is
/// always hit, so corrupted bodies reliably fail to parse).
pub fn corrupt_body(body: &mut [u8]) {
    for (i, b) in body.iter_mut().enumerate() {
        if i % 7 == 0 {
            *b ^= 0x5A;
        }
    }
}

/// Byte count to keep when truncating a body mid-write.
pub fn truncated_len(len: usize) -> usize {
    len / 2
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_trace() {
        let mk = || {
            FaultPlan::new(99)
                .with_rule(FaultRule::new("/api/v1/query", FaultKind::ConnReset, 0.3))
                .with_rule(FaultRule::new(
                    "*",
                    FaultKind::Latency { ms: 5 },
                    0.2,
                ))
        };
        let a = mk();
        let b = mk();
        let paths = ["/api/v1/query", "/api/v1/query_range", "/metrics"];
        for round in 0..200 {
            let p = paths[round % paths.len()];
            assert_eq!(a.decide(p), b.decide(p), "round {round}");
        }
        assert_eq!(a.trace(), b.trace());
        assert!(a.injected() > 0, "expected some injected faults");
        assert!(
            a.injected() < a.decisions(),
            "not every request should fault"
        );
    }

    #[test]
    fn different_seeds_diverge() {
        let a = FaultPlan::new(1).with_rule(FaultRule::new("*", FaultKind::ConnReset, 0.5));
        let b = FaultPlan::new(2).with_rule(FaultRule::new("*", FaultKind::ConnReset, 0.5));
        let mut diff = false;
        for _ in 0..64 {
            if a.decide("/x") != b.decide("/x") {
                diff = true;
            }
        }
        assert!(diff);
    }

    #[test]
    fn window_bounds_the_schedule() {
        let plan = FaultPlan::new(3)
            .with_rule(FaultRule::new("*", FaultKind::ConnReset, 1.0).between(2, 4));
        let got: Vec<bool> = (0..6).map(|_| plan.decide("/p").is_some()).collect();
        assert_eq!(got, vec![false, false, true, true, false, false]);
    }

    #[test]
    fn zero_probability_never_fires_one_always_fires() {
        let never = FaultPlan::new(4).with_rule(FaultRule::new("*", FaultKind::ConnReset, 0.0));
        let always = FaultPlan::new(4).with_rule(FaultRule::new("*", FaultKind::ConnReset, 1.0));
        for _ in 0..50 {
            assert_eq!(never.decide("/p"), None);
            assert_eq!(always.decide("/p"), Some(FaultKind::ConnReset));
        }
    }

    #[test]
    fn endpoint_matching_is_substring() {
        let plan = FaultPlan::new(5)
            .with_rule(FaultRule::new("/api/v1/query", FaultKind::ConnReset, 1.0));
        assert!(plan.decide("/api/v1/query_range").is_some());
        assert!(plan.decide("/metrics").is_none());
    }

    #[test]
    fn spec_roundtrip() {
        let plan = FaultPlan::parse_spec(
            "seed=7;latency:*:0.1:40;5xx:/api/v1/query:0.05:503;reset:*:0.02;corrupt:*:0.01::0..200",
        )
        .unwrap();
        assert_eq!(plan.seed(), 7);
        assert_eq!(plan.rules.len(), 4);
        assert_eq!(plan.rules[0].kind, FaultKind::Latency { ms: 40 });
        assert_eq!(plan.rules[1].kind, FaultKind::ServerError { status: 503 });
        assert_eq!(plan.rules[3].until, 200);
        assert!(FaultPlan::parse_spec("bogus").is_err());
        assert!(FaultPlan::parse_spec("warp:*:0.1").is_err());
        assert!(FaultPlan::parse_spec("latency:*:nan-ish-not-a-number-x").is_err());
    }

    #[test]
    fn corruption_changes_bytes_but_not_length() {
        let mut body = br#"{"status":"success","data":[1,2,3]}"#.to_vec();
        let orig = body.clone();
        corrupt_body(&mut body);
        assert_eq!(body.len(), orig.len());
        assert_ne!(body, orig);
    }
}
