//! Thin raw-libc bindings for the epoll server pool (Linux).
//!
//! The substrate stays zero-heavy-deps: instead of pulling in `libc`/`mio`,
//! this module declares exactly the handful of syscall wrappers the server
//! and the client pool need — epoll, eventfd, a listener with a
//! configurable backlog, a non-blocking peek, and `RLIMIT_NOFILE`
//! introspection for the connection-storm bench. `std`
//! already links the platform libc, so plain `extern "C"` declarations
//! resolve without any new dependency.

#![allow(non_camel_case_types)]

use std::io;
use std::net::{SocketAddr, TcpListener};
use std::os::unix::io::{FromRawFd, RawFd};

use std::ffi::{c_int, c_uint, c_void};

/// Readable.
pub const EPOLLIN: u32 = 0x001;
/// Writable.
pub const EPOLLOUT: u32 = 0x004;
/// Error condition (always reported, no need to request).
pub const EPOLLERR: u32 = 0x008;
/// Hang-up (always reported).
pub const EPOLLHUP: u32 = 0x010;
/// Peer shut down the write half.
pub const EPOLLRDHUP: u32 = 0x2000;
/// Edge-triggered delivery.
pub const EPOLLET: u32 = 1 << 31;
/// Disarm after one event until re-armed with `EPOLL_CTL_MOD`.
pub const EPOLLONESHOT: u32 = 1 << 30;

const EPOLL_CTL_ADD: c_int = 1;
const EPOLL_CTL_DEL: c_int = 2;
const EPOLL_CTL_MOD: c_int = 3;

const EPOLL_CLOEXEC: c_int = 0o2000000;
const EFD_CLOEXEC: c_int = 0o2000000;
const EFD_NONBLOCK: c_int = 0o4000;

const MSG_PEEK: c_int = 0x2;
const MSG_DONTWAIT: c_int = 0x40;

const AF_INET: c_int = 2;
const SOCK_STREAM: c_int = 1;
const SOCK_CLOEXEC: c_int = 0o2000000;
const SOL_SOCKET: c_int = 1;
const SO_REUSEADDR: c_int = 2;

const RLIMIT_NOFILE: c_int = 7;

/// `struct epoll_event`. The kernel ABI packs it on x86-64 only.
#[cfg_attr(target_arch = "x86_64", repr(C, packed))]
#[cfg_attr(not(target_arch = "x86_64"), repr(C))]
#[derive(Clone, Copy)]
pub struct epoll_event {
    /// Ready/interest mask (`EPOLL*` bits).
    pub events: u32,
    /// User data: the server stores a connection's token here.
    pub u64: u64,
}

#[repr(C)]
struct sockaddr_in {
    sin_family: u16,
    sin_port: u16, // network byte order
    sin_addr: u32, // network byte order
    sin_zero: [u8; 8],
}

#[repr(C)]
struct rlimit {
    rlim_cur: u64,
    rlim_max: u64,
}

extern "C" {
    fn epoll_create1(flags: c_int) -> c_int;
    fn epoll_ctl(epfd: c_int, op: c_int, fd: c_int, event: *mut epoll_event) -> c_int;
    fn epoll_wait(epfd: c_int, events: *mut epoll_event, maxevents: c_int, timeout: c_int)
        -> c_int;
    fn eventfd(initval: c_uint, flags: c_int) -> c_int;
    fn read(fd: c_int, buf: *mut c_void, count: usize) -> isize;
    fn write(fd: c_int, buf: *const c_void, count: usize) -> isize;
    fn close(fd: c_int) -> c_int;
    fn recv(fd: c_int, buf: *mut c_void, len: usize, flags: c_int) -> isize;
    fn socket(domain: c_int, ty: c_int, protocol: c_int) -> c_int;
    fn setsockopt(
        fd: c_int,
        level: c_int,
        optname: c_int,
        optval: *const c_void,
        optlen: u32,
    ) -> c_int;
    fn bind(fd: c_int, addr: *const sockaddr_in, addrlen: u32) -> c_int;
    fn listen(fd: c_int, backlog: c_int) -> c_int;
    fn getrlimit(resource: c_int, rlim: *mut rlimit) -> c_int;
    fn setrlimit(resource: c_int, rlim: *const rlimit) -> c_int;
}

fn cvt(ret: c_int) -> io::Result<c_int> {
    if ret < 0 {
        Err(io::Error::last_os_error())
    } else {
        Ok(ret)
    }
}

/// An owned epoll instance.
pub struct Epoll {
    fd: RawFd,
}

impl Epoll {
    /// Creates a close-on-exec epoll instance.
    pub fn new() -> io::Result<Epoll> {
        let fd = cvt(unsafe { epoll_create1(EPOLL_CLOEXEC) })?;
        Ok(Epoll { fd })
    }

    /// Registers `fd` with the given interest mask; `token` comes back in
    /// ready events.
    pub fn add(&self, fd: RawFd, interest: u32, token: u64) -> io::Result<()> {
        let mut ev = epoll_event {
            events: interest,
            u64: token,
        };
        cvt(unsafe { epoll_ctl(self.fd, EPOLL_CTL_ADD, fd, &mut ev) }).map(|_| ())
    }

    /// Changes the interest mask for a registered fd.
    pub fn modify(&self, fd: RawFd, interest: u32, token: u64) -> io::Result<()> {
        let mut ev = epoll_event {
            events: interest,
            u64: token,
        };
        cvt(unsafe { epoll_ctl(self.fd, EPOLL_CTL_MOD, fd, &mut ev) }).map(|_| ())
    }

    /// Deregisters a fd. Errors are ignorable (closing the fd deregisters
    /// too), so this returns nothing.
    pub fn delete(&self, fd: RawFd) {
        let mut ev = epoll_event { events: 0, u64: 0 };
        unsafe {
            epoll_ctl(self.fd, EPOLL_CTL_DEL, fd, &mut ev);
        }
    }

    /// Waits up to `timeout_ms` (-1 = forever) for ready events, filling
    /// `events` and returning how many are valid. EINTR reads as zero
    /// events so callers simply loop.
    pub fn wait(&self, events: &mut [epoll_event], timeout_ms: i32) -> io::Result<usize> {
        let n = unsafe {
            epoll_wait(
                self.fd,
                events.as_mut_ptr(),
                events.len() as c_int,
                timeout_ms,
            )
        };
        if n < 0 {
            let err = io::Error::last_os_error();
            if err.kind() == io::ErrorKind::Interrupted {
                return Ok(0);
            }
            return Err(err);
        }
        Ok(n as usize)
    }
}

impl Drop for Epoll {
    fn drop(&mut self) {
        unsafe {
            close(self.fd);
        }
    }
}

/// An eventfd used to wake a server thread from `epoll_wait` (streaming
/// bodies to pump, shutdown).
pub struct EventFd {
    fd: RawFd,
}

impl EventFd {
    /// Creates a non-blocking close-on-exec eventfd.
    pub fn new() -> io::Result<EventFd> {
        let fd = cvt(unsafe { eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK) })?;
        Ok(EventFd { fd })
    }

    /// The raw fd (for epoll registration).
    pub fn fd(&self) -> RawFd {
        self.fd
    }

    /// Posts one wake-up. Lossy by design: the counter saturating or the
    /// write racing a close are both fine — the woken thread takes
    /// everything pending.
    pub fn notify(&self) {
        let one: u64 = 1;
        unsafe {
            write(self.fd, &one as *const u64 as *const c_void, 8);
        }
    }

    /// Drains the counter after a wake-up.
    pub fn drain(&self) {
        let mut buf: u64 = 0;
        unsafe {
            read(self.fd, &mut buf as *mut u64 as *mut c_void, 8);
        }
    }
}

impl Drop for EventFd {
    fn drop(&mut self) {
        unsafe {
            close(self.fd);
        }
    }
}

// An eventfd is just a counter fd; notify/drain are thread-safe.
unsafe impl Send for EventFd {}
unsafe impl Sync for EventFd {}

/// True when a connected socket has nothing to read and is not at EOF: one
/// `recv(MSG_PEEK | MSG_DONTWAIT)`, which leaves the socket's blocking mode
/// alone.
pub fn is_quiet(fd: RawFd) -> bool {
    let mut probe = 0u8;
    let flags = MSG_PEEK | MSG_DONTWAIT;
    // SAFETY: `probe` is a live one-byte buffer for the whole call, and
    // `recv` writes at most `len` = 1 byte into it; a bad `fd` is an error
    // return, not undefined behaviour.
    let n = unsafe { recv(fd, &mut probe as *mut u8 as *mut c_void, 1, flags) };
    n < 0 && io::Error::last_os_error().kind() == io::ErrorKind::WouldBlock
}

/// Binds a TCP listener with an explicit accept backlog (std hardcodes
/// 128, which a connection storm overflows: SYNs beyond the backlog see
/// resets). IPv4 goes through raw syscalls; anything else falls back to
/// `TcpListener::bind` and the std backlog.
pub fn listen_with_backlog(addr: &str, backlog: i32) -> io::Result<TcpListener> {
    let parsed: SocketAddr = addr
        .parse()
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidInput, format!("bad addr {addr}: {e}")))?;
    let SocketAddr::V4(v4) = parsed else {
        return TcpListener::bind(addr);
    };
    let fd = cvt(unsafe { socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0) })?;
    // From here on the fd must be closed on every error path.
    let result = (|| {
        let yes: c_int = 1;
        cvt(unsafe {
            setsockopt(
                fd,
                SOL_SOCKET,
                SO_REUSEADDR,
                &yes as *const c_int as *const c_void,
                std::mem::size_of::<c_int>() as u32,
            )
        })?;
        let sa = sockaddr_in {
            sin_family: AF_INET as u16,
            sin_port: v4.port().to_be(),
            sin_addr: u32::from_ne_bytes(v4.ip().octets()),
            sin_zero: [0; 8],
        };
        cvt(unsafe { bind(fd, &sa, std::mem::size_of::<sockaddr_in>() as u32) })?;
        cvt(unsafe { listen(fd, backlog.max(1)) })?;
        Ok(())
    })();
    match result {
        Ok(()) => Ok(unsafe { TcpListener::from_raw_fd(fd) }),
        Err(e) => {
            unsafe {
                close(fd);
            }
            Err(e)
        }
    }
}

/// Returns the current `RLIMIT_NOFILE` soft limit, after a best-effort
/// attempt to raise it to at least `want` (capped at the hard limit; root
/// may raise the hard limit too). The connection-storm bench calls this so
/// 2×10k sockets in one process don't trip fd exhaustion.
pub fn raise_nofile_limit(want: u64) -> u64 {
    let mut lim = rlimit {
        rlim_cur: 0,
        rlim_max: 0,
    };
    if unsafe { getrlimit(RLIMIT_NOFILE, &mut lim) } != 0 {
        return 0;
    }
    if lim.rlim_cur >= want {
        return lim.rlim_cur;
    }
    // Within the hard limit first; then try raising the hard limit (works
    // for root / CAP_SYS_RESOURCE, which the CI container has).
    let tries = [
        rlimit {
            rlim_cur: want.min(lim.rlim_max),
            rlim_max: lim.rlim_max,
        },
        rlimit {
            rlim_cur: want,
            rlim_max: want.max(lim.rlim_max),
        },
    ];
    for t in &tries {
        if unsafe { setrlimit(RLIMIT_NOFILE, t) } == 0 && t.rlim_cur >= want {
            return t.rlim_cur;
        }
    }
    if unsafe { getrlimit(RLIMIT_NOFILE, &mut lim) } == 0 {
        lim.rlim_cur
    } else {
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read as _, Write as _};
    use std::net::TcpStream;
    use std::os::unix::io::AsRawFd;

    #[test]
    fn eventfd_wakes_epoll() {
        let ep = Epoll::new().unwrap();
        let ev = EventFd::new().unwrap();
        ep.add(ev.fd(), EPOLLIN, 7).unwrap();
        let mut events = [epoll_event { events: 0, u64: 0 }; 4];
        assert_eq!(ep.wait(&mut events, 0).unwrap(), 0, "no wake yet");
        ev.notify();
        let n = ep.wait(&mut events, 1000).unwrap();
        assert_eq!(n, 1);
        let token = { events[0].u64 };
        assert_eq!(token, 7);
        ev.drain();
        assert_eq!(ep.wait(&mut events, 0).unwrap(), 0, "drained");
    }

    #[test]
    fn listener_with_backlog_accepts() {
        let listener = listen_with_backlog("127.0.0.1:0", 64).unwrap();
        let addr = listener.local_addr().unwrap();
        let mut c = TcpStream::connect(addr).unwrap();
        let (mut s, _) = listener.accept().unwrap();
        c.write_all(b"hi").unwrap();
        let mut buf = [0u8; 2];
        s.read_exact(&mut buf).unwrap();
        assert_eq!(&buf, b"hi");
    }

    #[test]
    fn epoll_reports_socket_readability() {
        let listener = listen_with_backlog("127.0.0.1:0", 16).unwrap();
        let addr = listener.local_addr().unwrap();
        let mut c = TcpStream::connect(addr).unwrap();
        let (s, _) = listener.accept().unwrap();
        s.set_nonblocking(true).unwrap();
        let ep = Epoll::new().unwrap();
        ep.add(s.as_raw_fd(), EPOLLIN | EPOLLRDHUP | EPOLLET, 42)
            .unwrap();
        let mut events = [epoll_event { events: 0, u64: 0 }; 4];
        assert_eq!(ep.wait(&mut events, 0).unwrap(), 0);
        c.write_all(b"x").unwrap();
        let n = ep.wait(&mut events, 1000).unwrap();
        assert_eq!(n, 1);
        let token = { events[0].u64 };
        assert_eq!(token, 42);
        assert_ne!(events[0].events & EPOLLIN, 0);
    }

    #[test]
    fn quiet_peek_sees_data_and_eof_without_consuming() {
        let listener = listen_with_backlog("127.0.0.1:0", 16).unwrap();
        let mut c = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (mut s, _) = listener.accept().unwrap();
        assert!(is_quiet(s.as_raw_fd()), "nothing sent yet");
        c.write_all(b"x").unwrap();
        std::thread::sleep(std::time::Duration::from_millis(20));
        assert!(!is_quiet(s.as_raw_fd()), "a byte is waiting");
        let mut buf = [0u8; 1];
        s.read_exact(&mut buf).unwrap();
        assert_eq!(&buf, b"x", "the peek left the byte");
        assert!(is_quiet(s.as_raw_fd()));
        drop(c);
        std::thread::sleep(std::time::Duration::from_millis(20));
        assert!(!is_quiet(s.as_raw_fd()), "EOF is not quiet");
    }

    #[test]
    fn nofile_limit_query_is_sane() {
        let cur = raise_nofile_limit(1024);
        assert!(cur >= 1024, "soft limit {cur} unexpectedly tiny");
    }
}
