//! A std-only epoll shim: readiness notification without a crate.
//!
//! The container has no mio/tokio/libc, so the reactor talks to the
//! kernel directly through four raw syscall bindings — `epoll_create1`,
//! `epoll_ctl`, `epoll_wait`, and `eventfd` — wrapped here behind a
//! safe, minimal API:
//!
//! * [`Poller`] — one epoll instance; register/modify/deregister file
//!   descriptors with a `u64` token and an [`Interest`] (read and/or
//!   write readiness), then [`Poller::wait`] for [`Event`]s.
//! * [`Waker`] — an `eventfd` registered like any other fd; any thread
//!   may [`Waker::wake`] to make a blocked `wait` return immediately.
//!   This is how worker threads hand completed replies back to the
//!   reactor and how [`crate::server::ServerHandle::stop`] interrupts a
//!   sleeping server without polling.
//! * [`nofile_limit`] — `RLIMIT_NOFILE`, so `--max-connections` can
//!   default to what the kernel will actually allow.
//!
//! This is the only module in the crate allowed to use `unsafe`; the
//! crate root holds `deny(unsafe_code)` and everything above this layer
//! stays in safe Rust. Level-triggered mode is used throughout — the
//! reactor re-arms interest explicitly, which keeps the state machine
//! auditable (no "did we drain to EAGAIN?" edge-trigger hazards).

#![allow(unsafe_code)]

use std::io;
use std::os::fd::RawFd;
use std::time::Duration;

// ---------------------------------------------------------------------------
// Raw kernel interface (x86-64 Linux ABI via the C library).
// ---------------------------------------------------------------------------

mod ffi {
    use std::os::raw::{c_int, c_uint, c_void};

    // `epoll_event` is `__attribute__((packed))` on x86/x86-64 only.
    #[cfg_attr(any(target_arch = "x86_64", target_arch = "x86"), repr(C, packed))]
    #[cfg_attr(not(any(target_arch = "x86_64", target_arch = "x86")), repr(C))]
    #[derive(Clone, Copy)]
    pub struct EpollEvent {
        pub events: u32,
        pub data: u64,
    }

    #[repr(C)]
    pub struct RLimit {
        pub rlim_cur: u64,
        pub rlim_max: u64,
    }

    pub const EPOLLIN: u32 = 0x001;
    pub const EPOLLOUT: u32 = 0x004;
    pub const EPOLLERR: u32 = 0x008;
    pub const EPOLLHUP: u32 = 0x010;
    pub const EPOLLRDHUP: u32 = 0x2000;

    pub const EPOLL_CTL_ADD: c_int = 1;
    pub const EPOLL_CTL_DEL: c_int = 2;
    pub const EPOLL_CTL_MOD: c_int = 3;

    pub const EPOLL_CLOEXEC: c_int = 0o2000000;
    pub const EFD_CLOEXEC: c_int = 0o2000000;
    pub const EFD_NONBLOCK: c_int = 0o4000;

    pub const RLIMIT_NOFILE: c_int = 7;

    extern "C" {
        pub fn epoll_create1(flags: c_int) -> c_int;
        pub fn epoll_ctl(epfd: c_int, op: c_int, fd: c_int, event: *mut EpollEvent) -> c_int;
        pub fn epoll_wait(
            epfd: c_int,
            events: *mut EpollEvent,
            maxevents: c_int,
            timeout: c_int,
        ) -> c_int;
        pub fn eventfd(initval: c_uint, flags: c_int) -> c_int;
        pub fn read(fd: c_int, buf: *mut c_void, count: usize) -> isize;
        pub fn write(fd: c_int, buf: *const c_void, count: usize) -> isize;
        pub fn close(fd: c_int) -> c_int;
        pub fn getrlimit(resource: c_int, rlim: *mut RLimit) -> c_int;
    }
}

fn last_error_if(failed: bool) -> io::Result<()> {
    if failed {
        Err(io::Error::last_os_error())
    } else {
        Ok(())
    }
}

/// `RLIMIT_NOFILE` (soft limit) for this process, when the kernel will
/// say. Connection-count scaling derives from this: a daemon can hold
/// roughly `nofile - slack` sockets before `accept` starts failing.
pub fn nofile_limit() -> Option<u64> {
    let mut lim = ffi::RLimit {
        rlim_cur: 0,
        rlim_max: 0,
    };
    // SAFETY: `lim` is a valid, writable RLimit for the duration of the
    // call; getrlimit writes both fields or fails.
    let rc = unsafe { ffi::getrlimit(ffi::RLIMIT_NOFILE, &mut lim) };
    if rc == 0 {
        Some(lim.rlim_cur)
    } else {
        None
    }
}

// ---------------------------------------------------------------------------
// Interest and events.
// ---------------------------------------------------------------------------

/// Which readiness a registration asks for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Interest {
    /// Wake when the fd is readable (or the peer hung up).
    pub readable: bool,
    /// Wake when the fd accepts more bytes.
    pub writable: bool,
}

impl Interest {
    /// Read readiness only.
    pub const READ: Interest = Interest {
        readable: true,
        writable: false,
    };
    /// Write readiness only.
    pub const WRITE: Interest = Interest {
        readable: false,
        writable: true,
    };
    /// Both directions.
    pub const BOTH: Interest = Interest {
        readable: true,
        writable: true,
    };
    /// Neither direction (registration kept, delivery paused) — used by
    /// the reactor's backpressure to stop reading from a connection
    /// whose replies it cannot flush.
    pub const NONE: Interest = Interest {
        readable: false,
        writable: false,
    };

    fn bits(self) -> u32 {
        let mut bits = ffi::EPOLLRDHUP;
        if self.readable {
            bits |= ffi::EPOLLIN;
        }
        if self.writable {
            bits |= ffi::EPOLLOUT;
        }
        bits
    }
}

/// One readiness notification out of [`Poller::wait`].
#[derive(Debug, Clone, Copy)]
pub struct Event {
    /// The token the fd was registered with.
    pub token: u64,
    /// Readable now (includes peer half-close: a read will not block).
    pub readable: bool,
    /// Writable now.
    pub writable: bool,
    /// Error or hangup condition; the owner should read to the error /
    /// EOF and close.
    pub closed: bool,
}

// ---------------------------------------------------------------------------
// Poller.
// ---------------------------------------------------------------------------

/// One epoll instance (level-triggered).
pub struct Poller {
    epfd: RawFd,
}

impl Poller {
    /// A fresh epoll instance (`CLOEXEC`).
    ///
    /// # Errors
    ///
    /// Propagates `epoll_create1` failure (fd exhaustion).
    pub fn new() -> io::Result<Poller> {
        // SAFETY: no pointers involved; the return value is checked.
        let epfd = unsafe { ffi::epoll_create1(ffi::EPOLL_CLOEXEC) };
        last_error_if(epfd < 0)?;
        Ok(Poller { epfd })
    }

    fn ctl(
        &self,
        op: std::os::raw::c_int,
        fd: RawFd,
        token: u64,
        interest: Interest,
    ) -> io::Result<()> {
        let mut ev = ffi::EpollEvent {
            events: interest.bits(),
            data: token,
        };
        // SAFETY: `ev` is a valid EpollEvent for the duration of the
        // call; the kernel copies it out before returning.
        let rc = unsafe { ffi::epoll_ctl(self.epfd, op, fd, &mut ev) };
        last_error_if(rc < 0)
    }

    /// Registers `fd` under `token` with the given interest.
    ///
    /// # Errors
    ///
    /// Propagates `epoll_ctl` failure (bad fd, duplicate registration).
    pub fn add(&self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
        self.ctl(ffi::EPOLL_CTL_ADD, fd, token, interest)
    }

    /// Re-arms an existing registration with new interest.
    ///
    /// # Errors
    ///
    /// Propagates `epoll_ctl` failure (fd no longer registered).
    pub fn modify(&self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
        self.ctl(ffi::EPOLL_CTL_MOD, fd, token, interest)
    }

    /// Deregisters `fd`. Harmless if the fd was already closed (the
    /// kernel removes closed fds from epoll itself).
    pub fn remove(&self, fd: RawFd) {
        let mut ev = ffi::EpollEvent { events: 0, data: 0 };
        // SAFETY: as in `ctl`; EPOLL_CTL_DEL ignores the event payload
        // (non-NULL only for pre-2.6.9 kernels).
        let _ = unsafe { ffi::epoll_ctl(self.epfd, ffi::EPOLL_CTL_DEL, fd, &mut ev) };
    }

    /// Blocks until readiness, a [`Waker::wake`], or `timeout`; appends
    /// the ready set to `events` (cleared first). `None` blocks
    /// indefinitely. Retries `EINTR` internally.
    ///
    /// # Errors
    ///
    /// Propagates non-`EINTR` `epoll_wait` failures.
    pub fn wait(&self, events: &mut Vec<Event>, timeout: Option<Duration>) -> io::Result<usize> {
        events.clear();
        let timeout_ms: std::os::raw::c_int = match timeout {
            None => -1,
            Some(t) => {
                // Round up so a 0.4ms deadline does not spin at 0ms.
                let ms = t
                    .as_millis()
                    .saturating_add(u128::from(t.subsec_nanos() % 1_000_000 != 0));
                std::os::raw::c_int::try_from(ms).unwrap_or(std::os::raw::c_int::MAX)
            }
        };
        const CAP: usize = 256;
        let mut raw = [ffi::EpollEvent { events: 0, data: 0 }; CAP];
        let n = loop {
            // SAFETY: `raw` is a valid array of CAP events; the kernel
            // writes at most `maxevents` entries.
            let rc = unsafe {
                ffi::epoll_wait(
                    self.epfd,
                    raw.as_mut_ptr(),
                    CAP as std::os::raw::c_int,
                    timeout_ms,
                )
            };
            if rc >= 0 {
                break rc as usize;
            }
            let e = io::Error::last_os_error();
            if e.kind() != io::ErrorKind::Interrupted {
                return Err(e);
            }
        };
        for ev in raw.iter().take(n) {
            let bits = ev.events;
            events.push(Event {
                token: { ev.data },
                readable: bits & (ffi::EPOLLIN | ffi::EPOLLRDHUP) != 0,
                writable: bits & ffi::EPOLLOUT != 0,
                closed: bits & (ffi::EPOLLERR | ffi::EPOLLHUP) != 0,
            });
        }
        Ok(n)
    }
}

impl Drop for Poller {
    fn drop(&mut self) {
        // SAFETY: we own the fd and close it exactly once.
        let _ = unsafe { ffi::close(self.epfd) };
    }
}

// ---------------------------------------------------------------------------
// Waker.
// ---------------------------------------------------------------------------

use std::sync::Arc;

struct WakerFd(RawFd);

impl Drop for WakerFd {
    fn drop(&mut self) {
        // SAFETY: we own the fd and close it exactly once.
        let _ = unsafe { ffi::close(self.0) };
    }
}

/// A cross-thread wakeup for a [`Poller`]: an `eventfd` the reactor
/// registers like any connection. Cloning shares the same fd; `wake`
/// from any thread makes the next (or current) `wait` return with an
/// event on the waker's token. Coalesces: many wakes before a drain
/// cost one event.
#[derive(Clone)]
pub struct Waker {
    fd: Arc<WakerFd>,
}

impl Waker {
    /// A fresh eventfd-backed waker (nonblocking, CLOEXEC).
    ///
    /// # Errors
    ///
    /// Propagates `eventfd` failure.
    pub fn new() -> io::Result<Waker> {
        // SAFETY: no pointers involved; the return value is checked.
        let fd = unsafe { ffi::eventfd(0, ffi::EFD_CLOEXEC | ffi::EFD_NONBLOCK) };
        last_error_if(fd < 0)?;
        Ok(Waker {
            fd: Arc::new(WakerFd(fd)),
        })
    }

    /// The fd to register with the poller (read interest).
    pub fn fd(&self) -> RawFd {
        self.fd.0
    }

    /// Signals the poller. Never blocks: an eventfd at `u64::MAX - 1`
    /// returns `EAGAIN`, which still leaves the counter nonzero and the
    /// poller pending, so the failure is ignorable.
    pub fn wake(&self) {
        let one: u64 = 1;
        // SAFETY: writes 8 bytes from a valid u64; eventfd semantics.
        let _ = unsafe {
            ffi::write(
                self.fd.0,
                (&raw const one).cast(),
                std::mem::size_of::<u64>(),
            )
        };
    }

    /// Clears the pending wakeup so level-triggered polling stops
    /// reporting it. Call on every waker event.
    pub fn drain(&self) {
        let mut counter: u64 = 0;
        // SAFETY: reads 8 bytes into a valid u64; nonblocking, so this
        // returns EAGAIN rather than blocking when already drained.
        let _ = unsafe {
            ffi::read(
                self.fd.0,
                (&raw mut counter).cast(),
                std::mem::size_of::<u64>(),
            )
        };
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};
    use std::net::{TcpListener, TcpStream};

    #[test]
    fn waker_wakes_a_blocked_wait() {
        let poller = Poller::new().unwrap();
        let waker = Waker::new().unwrap();
        poller.add(waker.fd(), 7, Interest::READ).unwrap();
        let remote = waker.clone();
        let t = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(30));
            remote.wake();
        });
        let mut events = Vec::new();
        let n = poller
            .wait(&mut events, Some(Duration::from_secs(5)))
            .unwrap();
        t.join().unwrap();
        assert_eq!(n, 1);
        assert_eq!(events[0].token, 7);
        assert!(events[0].readable);
        waker.drain();
        // Drained: the next wait times out instead of re-reporting.
        let n = poller
            .wait(&mut events, Some(Duration::from_millis(10)))
            .unwrap();
        assert_eq!(n, 0);
    }

    #[test]
    fn socket_readiness_and_interest_changes() {
        use std::os::fd::AsRawFd;
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let mut client = TcpStream::connect(addr).unwrap();
        let (server, _) = listener.accept().unwrap();
        server.set_nonblocking(true).unwrap();

        let poller = Poller::new().unwrap();
        poller.add(server.as_raw_fd(), 42, Interest::READ).unwrap();
        let mut events = Vec::new();

        // Nothing to read yet.
        let n = poller
            .wait(&mut events, Some(Duration::from_millis(10)))
            .unwrap();
        assert_eq!(n, 0);

        client.write_all(b"ping").unwrap();
        let n = poller
            .wait(&mut events, Some(Duration::from_secs(5)))
            .unwrap();
        assert_eq!(n, 1);
        assert_eq!(events[0].token, 42);
        assert!(events[0].readable);

        // Pause interest: the same pending bytes stop being reported.
        poller
            .modify(server.as_raw_fd(), 42, Interest::NONE)
            .unwrap();
        let n = poller
            .wait(&mut events, Some(Duration::from_millis(10)))
            .unwrap();
        assert_eq!(n, 0);

        // Resume and consume.
        poller
            .modify(server.as_raw_fd(), 42, Interest::READ)
            .unwrap();
        let n = poller
            .wait(&mut events, Some(Duration::from_secs(5)))
            .unwrap();
        assert_eq!(n, 1);
        let mut buf = [0u8; 8];
        let got = (&server).read(&mut buf).unwrap();
        assert_eq!(&buf[..got], b"ping");

        // Peer disappears: readable (EOF) is reported.
        drop(client);
        let n = poller
            .wait(&mut events, Some(Duration::from_secs(5)))
            .unwrap();
        assert_eq!(n, 1);
        assert!(events[0].readable || events[0].closed);
        poller.remove(server.as_raw_fd());
    }

    #[test]
    fn nofile_limit_is_sane() {
        let lim = nofile_limit().unwrap();
        assert!(lim >= 64, "soft NOFILE limit implausibly low: {lim}");
    }
}
