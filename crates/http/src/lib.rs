#![warn(missing_docs)]
//! Event-driven HTTP/1.1 substrate for CEEMS (S5 + S20 in `DESIGN.md`).
//!
//! The Go CEEMS stack leans on `net/http`; this crate provides the subset
//! the stack needs, built on `std::net` plus a hand-rolled epoll server
//! pool (raw syscalls, no external async runtime):
//!
//! * [`types`] — request/response representations and status codes.
//! * [`url`] — percent-coding and query-string parsing.
//! * [`auth`] — HTTP Basic authentication (with an in-repo base64 codec).
//! * [`router`] — path routing with `:param` captures.
//! * [`server`] — a keep-alive HTTP/1.1 server: a fixed pool of threads
//!   waits on one epoll instance holding every connection (non-blocking,
//!   one-shot, write backpressure, idle timeouts), and the thread that
//!   reads a request runs its handler and writes the response, so thread
//!   count stays constant no matter how many sockets are open.
//! * [`sys`] — the raw Linux FFI the server stands on (`epoll`,
//!   `eventfd`, listener backlog, a non-blocking peek, `RLIMIT_NOFILE`).
//! * [`stream`] — streaming response bodies over chunked transfer-encoding
//!   (live query subscriptions and the S23 sample bus hold responses open
//!   through these).
//! * [`client`] — a blocking HTTP/1.1 client used by the scraper, the API
//!   server and the load balancer.
//! * [`pool`] — the client's bounded per-host keep-alive connection pool
//!   with stale-connection revalidation.
//! * [`resilience`] — seeded backoff with full jitter, retry policies and
//!   budgets, and a half-open circuit breaker shared by every hop.
//! * `fault` (behind the non-default `fault` cargo feature) — deterministic
//!   fault injection at the client and server boundary.
//!
//! TLS is intentionally out of scope (see the substitution table in
//! `DESIGN.md`); all the auth-sensitive paths go through [`auth`] instead.

pub mod auth;
pub mod client;
#[cfg(feature = "fault")]
pub mod fault;
pub mod pool;
mod reactor;
pub mod resilience;
pub mod router;
pub mod server;
pub mod stream;
pub mod sys;
pub mod types;
pub mod url;

/// The server's request parser and the client's response readers over
/// plain bytes, for tests that feed them hostile input. Not a stable API.
#[doc(hidden)]
pub mod wire {
    pub use crate::client::{read_response, read_stream};
    pub use crate::reactor::{parse_request, Parse};
}

pub use client::{Client, ClientError, StreamingResponse};
pub use resilience::{BreakerConfig, BreakerState, CircuitBreaker, RetryPolicy};
pub use router::Router;
pub use server::{HttpServer, ServerConfig};
pub use stream::{stream_pair, BodyStream, StreamWriter};
pub use types::{Method, Request, Response, Status};
