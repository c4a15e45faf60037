//! Readiness polling over raw file descriptors — the I/O half of the
//! serving runtime.
//!
//! The network front door (`ps3_net`) runs event-loop tasks that each
//! multiplex many non-blocking connections (one also owns the listener).
//! A loop needs two things the standard library does not expose: a
//! *readiness poll* ("which of these sockets can I read/write without
//! blocking?") and a *waker* ("interrupt the poll from another thread — a
//! ticket just completed"). Both live here so `ps3_runtime` stays the only
//! crate that touches the OS below `std`.
//!
//! [`poll_fds`] is a thin safe wrapper over the POSIX `poll(2)` syscall
//! (declared by hand — this workspace vendors or avoids every external
//! crate, including `libc`). Reading and writing the polled sockets needs
//! nothing below `std`: the loops use [`Read`] and [`Write`] on the streams
//! themselves. [`Waker`] is the classic self-pipe trick built on
//! [`std::os::unix::net::UnixStream::pair`]: writing one byte to the send
//! half makes the receive half poll readable, and draining it re-arms the
//! edge.
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

extern "C" {
    fn poll(fds: *mut RawPollFd, nfds: NfdsT, timeout: c_int) -> c_int;
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
    fn zero_timeout_poll_times_out_immediately() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let mut entries = [PollEntry::new(listener.as_raw_fd(), Interest::READ)];
        let ready = poll_fds(&mut entries, Some(Duration::ZERO)).unwrap();
        assert_eq!(ready, 0);
        assert!(!entries[0].is_readable());
    }
}
