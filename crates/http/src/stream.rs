//! Streaming response bodies over chunked transfer-encoding (S23).
//!
//! A handler that wants to hold a response open — a live query
//! subscription, a stream-bus subscribe — calls
//! [`crate::types::Response::streaming`] and gets back a [`StreamWriter`].
//! The response carries the consumer half ([`BodyStream`]); the server
//! thread that ran the handler writes a chunked head and installs a waker,
//! and from then on a `send` marks the connection ready and wakes a server
//! thread through the pool's eventfd to write what is queued
//! (chunk-encoded). The connection always closes at stream end: chunked
//! responses never re-enter keep-alive rotation.
//!
//! Backpressure and shedding (S19): the queue between writer and server is
//! byte-bounded. A consumer that stops reading fills the server's outbound
//! buffer, the queue backs up past its cap, and the stream is marked
//! aborted — the producer observes this as `send` returning `false` and
//! drops the subscriber instead of buffering without bound. Likewise a
//! closed or timed-out connection aborts the stream, so producers never
//! push into the void.

use std::collections::VecDeque;
use std::sync::Arc;

use parking_lot::Mutex;

/// Default cap on bytes queued between a writer and the server before the
/// stream sheds its consumer (4 MiB, matching the server's own outbound
/// backlog cap for streaming connections).
pub const DEFAULT_STREAM_BUFFER: usize = 4 << 20;

struct Inner {
    chunks: VecDeque<Vec<u8>>,
    queued_bytes: usize,
    /// Producer called `close`: drain what is queued, then finish.
    closed: bool,
    /// Consumer is gone (disconnect, timeout, shed): sends are discarded.
    aborted: bool,
}

/// Shared state between one [`StreamWriter`] and one [`BodyStream`].
pub(crate) struct StreamCore {
    inner: Mutex<Inner>,
    /// Installed by the server so `send` wakes a thread to write the
    /// chunk out.
    waker: Mutex<Option<Arc<dyn Fn() + Send + Sync>>>,
    max_buffered: usize,
}

impl StreamCore {
    fn wake(&self) {
        if let Some(w) = self.waker.lock().clone() {
            w();
        }
    }
}

/// Producer half of a streaming response body.
#[derive(Clone)]
pub struct StreamWriter {
    core: Arc<StreamCore>,
}

impl StreamWriter {
    /// Queues one chunk for the consumer. Returns `false` once the stream
    /// is aborted (consumer disconnected or shed) — the producer should
    /// drop the subscription. Empty sends are accepted and ignored.
    pub fn send(&self, data: impl Into<Vec<u8>>) -> bool {
        let data = data.into();
        let mut inner = self.core.inner.lock();
        if inner.aborted {
            return false;
        }
        if inner.closed {
            return false;
        }
        if data.is_empty() {
            return true;
        }
        if inner.queued_bytes + data.len() > self.core.max_buffered {
            // Slow consumer: shed rather than grow without bound.
            inner.aborted = true;
            inner.chunks.clear();
            inner.queued_bytes = 0;
            return false;
        }
        inner.queued_bytes += data.len();
        inner.chunks.push_back(data);
        drop(inner);
        self.core.wake();
        true
    }

    /// Marks the stream finished; queued chunks still drain, then the
    /// terminating chunk is written and the connection closes.
    pub fn close(&self) {
        self.core.inner.lock().closed = true;
        self.core.wake();
    }

    /// True once the consumer is gone and sends are futile.
    pub fn is_aborted(&self) -> bool {
        self.core.inner.lock().aborted
    }

    /// Bytes queued and not yet taken by the server (consumer lag).
    pub fn queued_bytes(&self) -> usize {
        self.core.inner.lock().queued_bytes
    }
}

/// Consumer half of a streaming response body, carried by
/// [`crate::types::Response`] and drained by the server.
#[derive(Clone)]
pub struct BodyStream {
    core: Arc<StreamCore>,
}

impl std::fmt::Debug for BodyStream {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let inner = self.core.inner.lock();
        f.debug_struct("BodyStream")
            .field("queued_bytes", &inner.queued_bytes)
            .field("closed", &inner.closed)
            .field("aborted", &inner.aborted)
            .finish()
    }
}

impl BodyStream {
    /// Takes every queued chunk. The `bool` is true when the producer has
    /// closed the stream and nothing more will arrive. Public so in-process
    /// consumers (the simulated stack, tests) can drain a stream without a
    /// socket; over HTTP the server is the only caller.
    pub fn take_chunks(&self) -> (Vec<Vec<u8>>, bool) {
        let mut inner = self.core.inner.lock();
        let chunks: Vec<Vec<u8>> = inner.chunks.drain(..).collect();
        inner.queued_bytes = 0;
        (chunks, inner.closed)
    }

    /// True when chunks or the producer's close wait to be taken.
    pub(crate) fn has_pending(&self) -> bool {
        let inner = self.core.inner.lock();
        !inner.chunks.is_empty() || (inner.closed && !inner.aborted)
    }

    /// Installs the server's wake callback.
    pub(crate) fn set_waker(&self, waker: Arc<dyn Fn() + Send + Sync>) {
        *self.core.waker.lock() = Some(waker);
    }

    /// Consumer is gone: discard queued data and fail future sends.
    pub fn abort(&self) {
        let mut inner = self.core.inner.lock();
        inner.aborted = true;
        inner.chunks.clear();
        inner.queued_bytes = 0;
    }
}

/// Creates a connected consumer/producer pair with a byte cap on the
/// in-flight queue. [`crate::types::Response::streaming`] is the usual
/// entry point; this is public for in-process consumers that never touch a
/// socket.
pub fn stream_pair(max_buffered: usize) -> (BodyStream, StreamWriter) {
    let core = Arc::new(StreamCore {
        inner: Mutex::new(Inner {
            chunks: VecDeque::new(),
            queued_bytes: 0,
            closed: false,
            aborted: false,
        }),
        waker: Mutex::new(None),
        max_buffered,
    });
    (
        BodyStream { core: core.clone() },
        StreamWriter { core },
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn send_take_close_roundtrip() {
        let (body, writer) = stream_pair(1024);
        assert!(writer.send(b"one".to_vec()));
        assert!(writer.send(b"two".to_vec()));
        let (chunks, closed) = body.take_chunks();
        assert_eq!(chunks, vec![b"one".to_vec(), b"two".to_vec()]);
        assert!(!closed);
        writer.close();
        let (chunks, closed) = body.take_chunks();
        assert!(chunks.is_empty());
        assert!(closed);
        assert!(!writer.send(b"late".to_vec()), "send after close fails");
    }

    #[test]
    fn overfull_queue_sheds_the_stream() {
        let (body, writer) = stream_pair(8);
        assert!(writer.send(b"12345".to_vec()));
        assert!(!writer.send(b"67890".to_vec()), "over cap: shed");
        assert!(writer.is_aborted());
        let (chunks, _) = body.take_chunks();
        assert!(chunks.is_empty(), "aborted queue is discarded");
    }

    #[test]
    fn abort_fails_future_sends_and_wakes() {
        let woken = Arc::new(std::sync::atomic::AtomicUsize::new(0));
        let (body, writer) = stream_pair(1024);
        let w = woken.clone();
        body.set_waker(Arc::new(move || {
            w.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        }));
        assert!(writer.send(b"x".to_vec()));
        assert!(woken.load(std::sync::atomic::Ordering::Relaxed) >= 1);
        body.abort();
        assert!(!writer.send(b"y".to_vec()));
        assert!(writer.is_aborted());
    }
}
