//! Readiness polling over raw file descriptors — the I/O half of the
//! serving runtime.
//!
//! The network front door (`ps3_net`) runs a single event-loop task that
//! multiplexes one listener and many non-blocking connections. The loop
//! needs two things the standard library does not expose: a *readiness
//! poll* ("which of these sockets can I read/write without blocking?") and
//! a *waker* ("interrupt the poll from another thread — a ticket just
//! completed"). Both live here so `ps3_runtime` stays the only crate that
//! touches the OS below `std`.
//!
//! [`poll_fds`] is a thin safe wrapper over the POSIX `poll(2)` syscall
//! (declared by hand — this workspace vendors or avoids every external
//! crate, including `libc`). [`writev_fd`] and [`readv_fd`] wrap the
//! matching vectored-I/O syscalls so the event loops can move a whole
//! batch of frames per syscall instead of one. [`Waker`] is the classic
//! self-pipe trick built on [`std::os::unix::net::UnixStream::pair`]:
//! writing one byte to the send half makes the receive half poll readable,
//! and draining it re-arms the edge.
//!
//! Unix-only (the workspace CI targets Linux); the module is compiled out
//! elsewhere and `ps3_net`'s server gates on it.

#![cfg(unix)]

use std::io::{self, Read, Write};
use std::os::raw::{c_int, c_short};
use std::os::unix::io::{AsRawFd, RawFd};
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

/// `poll(2)` event bit: readable without blocking (POSIX `POLLIN`).
const POLLIN: c_short = 0x001;
/// `poll(2)` event bit: writable without blocking (POSIX `POLLOUT`).
const POLLOUT: c_short = 0x004;
/// `poll(2)` revent bit: error condition (POSIX `POLLERR`).
const POLLERR: c_short = 0x008;
/// `poll(2)` revent bit: peer hung up (POSIX `POLLHUP`).
const POLLHUP: c_short = 0x010;
/// `poll(2)` revent bit: invalid fd (POSIX `POLLNVAL`).
const POLLNVAL: c_short = 0x020;

/// The C `struct pollfd`, laid out exactly as `poll(2)` expects.
#[repr(C)]
struct RawPollFd {
    fd: c_int,
    events: c_short,
    revents: c_short,
}

/// `nfds_t` is `unsigned long` on Linux but `unsigned int` on the BSDs and
/// macOS; match the platform so the ABI stays correct everywhere `cfg(unix)`
/// compiles.
#[cfg(target_os = "linux")]
type NfdsT = std::os::raw::c_ulong;
#[cfg(not(target_os = "linux"))]
type NfdsT = std::os::raw::c_uint;

/// The C `struct iovec`, laid out exactly as `readv(2)`/`writev(2)` expect.
///
/// `base` is `*mut` because the one struct serves both directions: `readv`
/// writes through it, `writev` only reads. The safe wrappers below uphold
/// the mutability contract at their own boundaries.
#[repr(C)]
struct RawIoVec {
    base: *mut std::os::raw::c_void,
    len: usize,
}

extern "C" {
    fn poll(fds: *mut RawPollFd, nfds: NfdsT, timeout: c_int) -> c_int;
    fn writev(fd: c_int, iov: *const RawIoVec, iovcnt: c_int) -> isize;
    fn readv(fd: c_int, iov: *const RawIoVec, iovcnt: c_int) -> isize;
}

/// Most buffers a single [`writev_fd`]/[`readv_fd`] call will hand to the
/// kernel. POSIX only guarantees `IOV_MAX >= 16`; every platform this
/// workspace targets allows far more (Linux: 1024), and 64 comfortably
/// covers a full response queue per flush while keeping the on-stack iovec
/// array small. Callers with more buffers loop — the wrappers silently
/// clamp to this many per call and report the bytes actually moved.
pub const IOV_BATCH: usize = 64;

/// Gather-write up to [`IOV_BATCH`] buffers to `fd` with one `writev(2)`
/// call. Returns the number of bytes written, which may stop short of the
/// total mid-buffer (a partial write) — the caller keeps a cursor. Retries
/// transparently on `EINTR`; `WouldBlock` surfaces as an error like any
/// other (the event loop re-arms on writability). Empty input is a no-op
/// `Ok(0)` without touching the fd.
pub fn writev_fd(fd: RawFd, bufs: &[&[u8]]) -> io::Result<usize> {
    if bufs.is_empty() {
        return Ok(0);
    }
    let n = bufs.len().min(IOV_BATCH);
    let mut iov: [RawIoVec; IOV_BATCH] = std::array::from_fn(|_| RawIoVec {
        base: std::ptr::null_mut(),
        len: 0,
    });
    for (slot, buf) in iov.iter_mut().zip(&bufs[..n]) {
        slot.base = buf.as_ptr() as *mut std::os::raw::c_void;
        slot.len = buf.len();
    }
    loop {
        // SAFETY: each iovec points at a live borrowed slice of the stated
        // length; writev(2) only reads through the base pointers.
        let rc = unsafe { writev(fd, iov.as_ptr(), n as c_int) };
        if rc >= 0 {
            return Ok(rc as usize);
        }
        let err = io::Error::last_os_error();
        if err.kind() != io::ErrorKind::Interrupted {
            return Err(err);
        }
    }
}

/// Scatter-read from `fd` into up to [`IOV_BATCH`] buffers with one
/// `readv(2)` call, filling them in order. Returns the bytes read; `Ok(0)`
/// on a stream socket means EOF. Retries transparently on `EINTR`;
/// `WouldBlock` surfaces as an error (the event loop waits for the next
/// readable edge). Empty input is a no-op `Ok(0)`.
pub fn readv_fd(fd: RawFd, bufs: &mut [&mut [u8]]) -> io::Result<usize> {
    if bufs.is_empty() {
        return Ok(0);
    }
    let n = bufs.len().min(IOV_BATCH);
    let mut iov: [RawIoVec; IOV_BATCH] = std::array::from_fn(|_| RawIoVec {
        base: std::ptr::null_mut(),
        len: 0,
    });
    for (slot, buf) in iov.iter_mut().zip(&mut bufs[..n]) {
        slot.base = buf.as_mut_ptr() as *mut std::os::raw::c_void;
        slot.len = buf.len();
    }
    loop {
        // SAFETY: each iovec points at a live exclusively-borrowed slice of
        // the stated length; readv(2) writes at most that many bytes.
        let rc = unsafe { readv(fd, iov.as_ptr(), n as c_int) };
        if rc >= 0 {
            return Ok(rc as usize);
        }
        let err = io::Error::last_os_error();
        if err.kind() != io::ErrorKind::Interrupted {
            return Err(err);
        }
    }
}

/// What a caller wants to be told about one file descriptor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Interest {
    /// Wake when the fd is readable.
    pub readable: bool,
    /// Wake when the fd is writable.
    pub writable: bool,
}

impl Interest {
    /// Readability only (listeners, idle connections, wakers).
    pub const READ: Interest = Interest {
        readable: true,
        writable: false,
    };
    /// Readability and writability (connections with queued output).
    pub const READ_WRITE: Interest = Interest {
        readable: true,
        writable: true,
    };
}

/// One fd in a [`poll_fds`] call: the interest going in, the readiness coming
/// out.
#[derive(Debug)]
pub struct PollEntry {
    fd: RawFd,
    interest: Interest,
    readable: bool,
    writable: bool,
    error: bool,
}

impl PollEntry {
    /// Watch `fd` for `interest`. The readiness flags start false and are
    /// filled in by [`poll_fds`].
    pub fn new(fd: RawFd, interest: Interest) -> Self {
        Self {
            fd,
            interest,
            readable: false,
            writable: false,
            error: false,
        }
    }

    /// The watched descriptor.
    pub fn fd(&self) -> RawFd {
        self.fd
    }

    /// True after [`poll_fds`] if the fd can be read without blocking (this
    /// includes EOF/hangup — a read will return 0, not block).
    pub fn is_readable(&self) -> bool {
        self.readable
    }

    /// True after [`poll_fds`] if the fd can be written without blocking.
    pub fn is_writable(&self) -> bool {
        self.writable
    }

    /// True after [`poll_fds`] on error/hangup/invalid-fd conditions
    /// (`POLLERR`/`POLLHUP`/`POLLNVAL`). Callers should tear the fd down.
    pub fn is_error(&self) -> bool {
        self.error
    }
}

/// Block until at least one entry is ready or `timeout` elapses (`None` =
/// wait forever). Returns the number of ready entries; each entry's
/// readiness flags are updated in place. Retries transparently on `EINTR`.
pub fn poll_fds(entries: &mut [PollEntry], timeout: Option<Duration>) -> io::Result<usize> {
    let mut raw: Vec<RawPollFd> = entries
        .iter()
        .map(|e| RawPollFd {
            fd: e.fd,
            events: {
                let mut ev = 0;
                if e.interest.readable {
                    ev |= POLLIN;
                }
                if e.interest.writable {
                    ev |= POLLOUT;
                }
                ev
            },
            revents: 0,
        })
        .collect();
    let timeout_ms: c_int = match timeout {
        None => -1,
        // Round up so a 1ns timeout still sleeps, and saturate huge values.
        Some(d) => c_int::try_from(d.as_millis().max(u128::from(d.subsec_nanos() > 0)))
            .unwrap_or(c_int::MAX),
    };
    let ready = loop {
        // SAFETY: `raw` is a well-formed, exclusively-borrowed pollfd array
        // whose length is passed alongside it; poll(2) only writes the
        // `revents` fields.
        let rc = unsafe { poll(raw.as_mut_ptr(), raw.len() as NfdsT, timeout_ms) };
        if rc >= 0 {
            break rc as usize;
        }
        let err = io::Error::last_os_error();
        if err.kind() != io::ErrorKind::Interrupted {
            return Err(err);
        }
    };
    for (entry, raw) in entries.iter_mut().zip(&raw) {
        entry.readable = raw.revents & (POLLIN | POLLHUP | POLLERR) != 0;
        entry.writable = raw.revents & POLLOUT != 0;
        entry.error = raw.revents & (POLLERR | POLLHUP | POLLNVAL) != 0;
    }
    Ok(ready)
}

/// Interrupts a [`poll_fds`] call from another thread.
///
/// A `Waker` is a non-blocking socket pair: [`Waker::wake`] writes one byte
/// to the send half, which makes [`Waker::fd`] (the receive half) poll
/// readable. The poll loop registers that fd with [`Interest::READ`] and
/// calls [`Waker::drain`] when it fires. Wakes are *level-coalescing*: any
/// number of `wake` calls between two drains produce one readable edge and
/// cost one `write(2)` — the first arms the waker, the rest see it armed
/// and return — so waking is cheap to do redundantly (the serving front end
/// wakes once per completed ticket).
#[derive(Debug)]
pub struct Waker {
    /// The half the poll loop watches and drains.
    recv: UnixStream,
    /// The half `wake` writes to.
    send: UnixStream,
    /// True from the wake that wrote the pending byte until the drain that
    /// will consume it.
    armed: AtomicBool,
}

impl Waker {
    /// Build a waker (one non-blocking socket pair).
    pub fn new() -> io::Result<Waker> {
        let (send, recv) = UnixStream::pair()?;
        send.set_nonblocking(true)?;
        recv.set_nonblocking(true)?;
        Ok(Waker {
            recv,
            send,
            armed: AtomicBool::new(false),
        })
    }

    /// The fd to register for [`Interest::READ`] in the poll loop.
    pub fn fd(&self) -> RawFd {
        self.recv.as_raw_fd()
    }

    /// Make the poll loop's next (or current) [`poll_fds`] call return.
    /// Safe to call from any thread, any number of times; only the call
    /// that arms the waker writes. Write errors are ignored, as the worst
    /// case is a spurious timeout.
    pub fn wake(&self) {
        // SeqCst read-modify-write on both sides: a wake that finds the
        // waker armed is ordered before the drain that disarms it, which
        // therefore sees everything this caller published before waking.
        if !self.armed.swap(true, Ordering::SeqCst) {
            let _ = (&self.send).write(&[1u8]);
        }
    }

    /// Consume pending wake bytes so the fd stops polling readable. Call
    /// once per poll iteration that observed the waker fd readable, and
    /// look at whatever the wakers published *after* it returns: a wake
    /// that races the drain is either absorbed by it (it found the waker
    /// armed and its work is already visible) or arms the waker afresh.
    pub fn drain(&self) {
        let mut sink = [0u8; 64];
        while let Ok(n) = (&self.recv).read(&mut sink) {
            if n == 0 {
                break;
            }
        }
        // Disarm only once the byte is gone. The other order has a hole: a
        // wake landing between the clear and the read arms the waker and
        // writes, the read swallows that byte, and the waker is left armed
        // over an empty pipe — every later wake returns without writing
        // and the poll loop never hears from anyone again.
        self.armed.swap(false, Ordering::SeqCst);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::{TcpListener, TcpStream};
    use std::thread;
    use std::time::Instant;

    #[test]
    fn waker_wakes_a_blocking_poll() {
        let waker = std::sync::Arc::new(Waker::new().unwrap());
        let remote = std::sync::Arc::clone(&waker);
        let t = thread::spawn(move || {
            thread::sleep(Duration::from_millis(30));
            remote.wake();
        });
        let mut entries = [PollEntry::new(waker.fd(), Interest::READ)];
        let start = Instant::now();
        let ready = poll_fds(&mut entries, Some(Duration::from_secs(10))).unwrap();
        assert_eq!(ready, 1, "waker must interrupt the poll");
        assert!(entries[0].is_readable());
        assert!(
            start.elapsed() < Duration::from_secs(5),
            "poll returned via wake, not timeout"
        );
        waker.drain();
        // Drained: an immediate zero-timeout poll sees nothing.
        let mut entries = [PollEntry::new(waker.fd(), Interest::READ)];
        let ready = poll_fds(&mut entries, Some(Duration::ZERO)).unwrap();
        assert_eq!(ready, 0, "drain must re-arm the waker");
        t.join().unwrap();
    }

    #[test]
    fn redundant_wakes_coalesce_into_one_edge() {
        let waker = Waker::new().unwrap();
        for _ in 0..10_000 {
            waker.wake();
        }
        let mut entries = [PollEntry::new(waker.fd(), Interest::READ)];
        assert_eq!(poll_fds(&mut entries, Some(Duration::ZERO)).unwrap(), 1);
        // Only the arming wake paid a write(2).
        let mut sink = [0u8; 64];
        assert_eq!((&waker.recv).read(&mut sink).unwrap(), 1);
        waker.drain();
        let mut entries = [PollEntry::new(waker.fd(), Interest::READ)];
        assert_eq!(
            poll_fds(&mut entries, Some(Duration::ZERO)).unwrap(),
            0,
            "one drain clears any number of wakes"
        );
        // Drained means disarmed: the next wake writes again.
        waker.wake();
        let mut entries = [PollEntry::new(waker.fd(), Interest::READ)];
        assert_eq!(
            poll_fds(&mut entries, Some(Duration::ZERO)).unwrap(),
            1,
            "a wake after a drain must make the next poll readable"
        );
    }

    #[test]
    fn poll_reports_tcp_readability_and_writability() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let client = TcpStream::connect(addr).unwrap();
        let (server, _) = listener.accept().unwrap();
        server.set_nonblocking(true).unwrap();

        // Nothing sent yet: writable but not readable.
        let mut entries = [PollEntry::new(server.as_raw_fd(), Interest::READ_WRITE)];
        poll_fds(&mut entries, Some(Duration::from_secs(5))).unwrap();
        assert!(entries[0].is_writable());
        assert!(!entries[0].is_readable());

        // After the client writes, the server side polls readable.
        (&client).write_all(b"ping").unwrap();
        let mut entries = [PollEntry::new(server.as_raw_fd(), Interest::READ)];
        let ready = poll_fds(&mut entries, Some(Duration::from_secs(5))).unwrap();
        assert_eq!(ready, 1);
        assert!(entries[0].is_readable());

        // A hung-up peer still reports readable (read returns 0 = EOF).
        drop(client);
        let mut entries = [PollEntry::new(server.as_raw_fd(), Interest::READ)];
        poll_fds(&mut entries, Some(Duration::from_secs(5))).unwrap();
        assert!(entries[0].is_readable(), "EOF must wake readers");
    }

    #[test]
    fn writev_gathers_and_readv_scatters_across_a_socket_pair() {
        let (a, b) = UnixStream::pair().unwrap();
        let frames: [&[u8]; 3] = [b"alpha", b"-", b"omega"];
        let wrote = writev_fd(a.as_raw_fd(), &frames).unwrap();
        assert_eq!(wrote, 11, "loopback writev takes all three buffers");

        let mut head = [0u8; 4];
        let mut tail = [0u8; 16];
        let read = readv_fd(b.as_raw_fd(), &mut [&mut head, &mut tail]).unwrap();
        assert_eq!(read, 11);
        assert_eq!(&head, b"alph");
        assert_eq!(&tail[..7], b"a-omega", "readv fills buffers in order");
    }

    #[test]
    fn vectored_io_honors_nonblocking_and_eof() {
        let (a, b) = UnixStream::pair().unwrap();
        a.set_nonblocking(true).unwrap();
        b.set_nonblocking(true).unwrap();

        // Nothing to read yet: WouldBlock surfaces, not a hang.
        let mut buf = [0u8; 8];
        let err = readv_fd(b.as_raw_fd(), &mut [&mut buf]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::WouldBlock);

        // Empty batches never touch the fd.
        assert_eq!(writev_fd(a.as_raw_fd(), &[]).unwrap(), 0);
        assert_eq!(readv_fd(b.as_raw_fd(), &mut []).unwrap(), 0);

        // A closed peer reads as EOF (Ok(0)), matching plain read(2).
        writev_fd(a.as_raw_fd(), &[b"bye"]).unwrap();
        drop(a);
        let n = readv_fd(b.as_raw_fd(), &mut [&mut buf]).unwrap();
        assert_eq!(&buf[..n], b"bye");
        assert_eq!(readv_fd(b.as_raw_fd(), &mut [&mut buf]).unwrap(), 0);
    }

    #[test]
    fn writev_reports_partial_writes_against_a_full_kernel_buffer() {
        let (a, b) = UnixStream::pair().unwrap();
        a.set_nonblocking(true).unwrap();
        // Stuff the send buffer until WouldBlock: every successful call may
        // be partial, and the byte count is what the caller's cursor needs.
        let chunk = vec![0x5au8; 64 * 1024];
        let mut total = 0usize;
        loop {
            match writev_fd(a.as_raw_fd(), &[&chunk, &chunk]) {
                Ok(n) => {
                    assert!(n > 0, "a zero-byte writev success would spin the loop");
                    total += n;
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) => panic!("unexpected writev error: {e}"),
            }
        }
        assert!(total > 0, "at least one gather write must land");
        drop(b);
    }

    #[test]
    fn zero_timeout_poll_times_out_immediately() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let mut entries = [PollEntry::new(listener.as_raw_fd(), Interest::READ)];
        let ready = poll_fds(&mut entries, Some(Duration::ZERO)).unwrap();
        assert_eq!(ready, 0);
        assert!(!entries[0].is_readable());
    }
}
