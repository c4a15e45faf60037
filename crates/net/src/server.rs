//! The sharded event-loop TCP server: N readiness-polled tasks feeding
//! the [`Router`].
//!
//! The front door runs as [`ServerConfig::net_shards`] independent event
//! loops (detached [`ThreadPool`] tasks, so `ps3_runtime` remains the only
//! thread-owning crate), each owning a **disjoint** set of connections
//! multiplexed with [`ps3_runtime::poll::poll_fds`]. Shard 0 additionally
//! owns the non-blocking listener and deals accepted sockets round-robin:
//! a connection destined for another shard is handed off through that
//! shard's [`Mailbox`] and self-pipe [`Waker`] — the only cross-shard
//! traffic. After the handoff, a connection's whole life (reads, decodes,
//! submissions, completions, writes) happens on one shard with no
//! cross-shard locking on the hot path.
//!
//! Within a shard, every wakeup works at batch granularity:
//!
//! 1. **Read** — each readable connection is drained with plain [`Read`]
//!    calls (one, unless a read fills it) into the shard's reusable
//!    256 KiB scratch buffer, and every complete [`RequestFrame`] in it is
//!    decoded and submitted through that connection's own [`Tenant`]
//!    handle with `try_submit`, so the router's backpressure and quota
//!    semantics surface on the wire as typed [`ErrorFrame`]s
//!    ([`ErrorCode::QueueFull`] / [`ErrorCode::QuotaExhausted`]) instead of
//!    blocking the loop. A request the answer cache already holds is
//!    answered here: its ticket comes back ready with the cache's shared
//!    `Arc<AnswerOutcome>`, the response frame is encoded from that
//!    outcome straight onto the connection's outbound buffer (no copy of
//!    the answer, no allocation once the buffer pool is warm), and it
//!    leaves in this wakeup's write — no queue, no pump, no waker, no
//!    other thread.
//! 2. **Execute** — misses only. Queue pumps run the work as usual. Each
//!    queued ticket carries one [`on_event`](ps3_core::Ticket::on_event)
//!    hook that records the ticket in the owning shard's event inbox and
//!    pokes its [`Waker`], so a completion — or a progressive request's
//!    refinement — interrupts that shard's poll immediately (no
//!    completion-polling latency).
//! 3. **Write** — one delivery pass over the recorded tickets: a completed
//!    ticket becomes its remaining [`PartialFrame`]s and then its response
//!    frame, encoded the same way from the shared outcome (or an
//!    [`ErrorCode::Internal`] error, if the request panicked); a ticket
//!    still executing flushes the refinements it has so far. Frames queue
//!    on the connection's outbound buffer (`OutBuf`); at the end of the
//!    wakeup every connection with pending output is flushed with one
//!    [`write_vectored`](std::io::Write::write_vectored) gather write — one
//!    `writev(2)` (the flush contract: encode many, flush once per wakeup,
//!    keep a byte cursor across partial writes).
//!
//! Every frame the server sends is a `PROTO_VERSION` frame, including the
//! [`ErrorCode::UnsupportedVersion`] refusal that answers any other
//! version byte before the connection closes.
//!
//! A client that disconnects mid-request just gets its connection state
//! dropped; its in-flight executions complete in the router (and still
//! populate the answer cache) with nobody to deliver to — the pumps never
//! notice. With `net_shards: 1` the server degenerates to the classic
//! single-event-loop design.

#![cfg(unix)]

use std::collections::HashMap;
use std::io::{self, Read};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::os::unix::io::AsRawFd;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use ps3_core::{AnswerOutcome, RouteError, Router, Tenant, Ticket};
use ps3_runtime::poll::{poll_fds, Interest, PollEntry, Waker};
use ps3_runtime::{Mailbox, ThreadPool};

use crate::outbuf::OutBuf;
use crate::proto::{
    ErrorCode, ErrorFrame, Frame, FrameBuffer, PartialFrame, ProtoError, RequestFrame,
    DEFAULT_MAX_FRAME,
};

/// Tuning knobs for [`NetServer::bind`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Largest accepted frame body, in bytes.
    pub max_frame: u32,
    /// Per-connection in-flight request quota (each connection is its own
    /// [`Tenant`]); `None` = unlimited. Exhaustion surfaces as
    /// [`ErrorCode::QuotaExhausted`] rather than queueing. Requests answered
    /// from the answer cache are never in flight and do not count.
    pub per_conn_quota: Option<usize>,
    /// Accepted-connection cap across all shards; the listener stops
    /// accepting (connections queue in the OS backlog) while at the cap.
    pub max_connections: usize,
    /// Independent event loops to run. The default honors the
    /// `PS3_NET_SHARDS` environment variable, falling back to the number
    /// of available cores; values are clamped to at least 1 at bind.
    pub net_shards: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            max_frame: DEFAULT_MAX_FRAME,
            per_conn_quota: Some(64),
            max_connections: 1024,
            net_shards: default_net_shards(),
        }
    }
}

/// `PS3_NET_SHARDS` override, else available cores, else 1.
fn default_net_shards() -> usize {
    if let Ok(raw) = std::env::var("PS3_NET_SHARDS") {
        if let Ok(n) = raw.trim().parse::<usize>() {
            if n >= 1 {
                return n;
            }
        }
    }
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Wire-visible serving counters (monotonic except `open_connections`),
/// aggregated across every shard.
#[derive(Debug, Clone, Copy, Default)]
pub struct ServerStats {
    /// Connections currently open.
    pub open_connections: u64,
    /// Connections accepted over the server's lifetime.
    pub accepted: u64,
    /// Request frames admitted to the router.
    pub requests: u64,
    /// Error frames sent (refusals, malformed frames, panics).
    pub errors: u64,
}

/// Counters shared between the shard loops and [`NetServer`] handles.
#[derive(Debug, Default)]
struct Counters {
    open_connections: AtomicU64,
    accepted: AtomicU64,
    requests: AtomicU64,
    errors: AtomicU64,
}

/// One event loop's cross-thread mailboxes: everything another thread may
/// hand this shard, always paired with a poke of the shard's waker.
struct Shard {
    /// Interrupts this shard's poll (completions, handoffs, shutdown).
    waker: Waker,
    /// Tickets with something to deliver (a refinement or the outcome),
    /// as `(connection token, request id)` — pushed by each ticket's
    /// `on_event` hook, drained by the shard loop. Keeps delivery
    /// O(events) instead of scanning every in-flight ticket of every
    /// connection per wakeup.
    events: Mailbox<(u64, u64)>,
    /// Accepted sockets dealt to this shard by the listener shard.
    handoff: Mailbox<TcpStream>,
    /// Connections this shard has registered (the round-robin evidence).
    accepted: AtomicU64,
}

impl Shard {
    fn new() -> io::Result<Shard> {
        Ok(Shard {
            waker: Waker::new()?,
            events: Mailbox::new(),
            handoff: Mailbox::new(),
            accepted: AtomicU64::new(0),
        })
    }
}

/// State shared between the handle and every shard loop.
struct Shared {
    shutdown: AtomicBool,
    counters: Counters,
    shards: Vec<Arc<Shard>>,
}

/// A running network front door over a [`Router`]. Dropping the handle
/// (or calling [`NetServer::shutdown`]) stops every shard loop, closes
/// every connection, and joins the loop threads; the router itself is
/// left running — shut it down separately.
pub struct NetServer {
    addr: SocketAddr,
    shared: Arc<Shared>,
    /// Pool running one task per shard; dropping it joins the loops.
    pool: Option<Arc<ThreadPool>>,
}

impl NetServer {
    /// Bind `addr` (e.g. `"127.0.0.1:0"` for an OS-assigned port) and
    /// start serving `router` with the default [`ServerConfig`].
    pub fn bind(router: Arc<Router>, addr: impl ToSocketAddrs) -> io::Result<NetServer> {
        Self::bind_with(router, addr, ServerConfig::default())
    }

    /// [`NetServer::bind`] with explicit tuning.
    pub fn bind_with(
        router: Arc<Router>,
        addr: impl ToSocketAddrs,
        config: ServerConfig,
    ) -> io::Result<NetServer> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let n_shards = config.net_shards.max(1);
        let shards = (0..n_shards)
            .map(|_| Shard::new().map(Arc::new))
            .collect::<io::Result<Vec<_>>>()?;
        let shared = Arc::new(Shared {
            shutdown: AtomicBool::new(false),
            counters: Counters::default(),
            shards,
        });
        let pool = Arc::new(ThreadPool::new(n_shards));
        let mut listener = Some(listener);
        for id in 0..n_shards {
            let router = Arc::clone(&router);
            let shared = Arc::clone(&shared);
            let config = config.clone();
            // Shard 0 owns the listener; the others receive handoffs.
            let listener = if id == 0 { listener.take() } else { None };
            pool.spawn(move || ShardLoop::new(id, router, listener, shared, config).run());
        }
        Ok(NetServer {
            addr,
            shared,
            pool: Some(pool),
        })
    }

    /// The bound address (with the real port when bound to port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Serving counters, aggregated across shards.
    pub fn stats(&self) -> ServerStats {
        let c = &self.shared.counters;
        ServerStats {
            open_connections: c.open_connections.load(Ordering::Relaxed),
            accepted: c.accepted.load(Ordering::Relaxed),
            requests: c.requests.load(Ordering::Relaxed),
            errors: c.errors.load(Ordering::Relaxed),
        }
    }

    /// Connections registered per shard over the server's lifetime — the
    /// observable half of the round-robin accept contract (sums to
    /// [`ServerStats::accepted`] once every handoff has been drained).
    pub fn accepted_by_shard(&self) -> Vec<u64> {
        self.shared
            .shards
            .iter()
            .map(|s| s.accepted.load(Ordering::Relaxed))
            .collect()
    }

    /// Stop every shard loop, close every connection, and join the loop
    /// threads. Idempotent; also runs on drop.
    pub fn shutdown(&mut self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        for shard in &self.shared.shards {
            shard.waker.wake();
        }
        // Dropping the pool joins one loop task per shard.
        self.pool = None;
    }
}

impl Drop for NetServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// One accepted connection's state, owned by exactly one shard.
struct Conn {
    stream: TcpStream,
    /// Inbound bytes awaiting frame completion.
    inbound: FrameBuffer,
    /// Outbound frames awaiting the socket (reused encode buffers,
    /// gather-write flush).
    out: OutBuf,
    /// This connection's submission handle (quota = admission control).
    tenant: Tenant,
    /// Queued requests (answer-cache misses) awaiting completion, by
    /// request id.
    in_flight: HashMap<u64, Ticket>,
    /// Close once the write buffer drains (set after a framing error).
    close_after_flush: bool,
    /// Torn down at the end of the current iteration.
    dead: bool,
}

impl Conn {
    /// Gather-write as much buffered output as the socket accepts.
    fn flush(&mut self) {
        match self.out.flush(&self.stream) {
            Ok(true) => {
                if self.close_after_flush {
                    self.dead = true;
                }
            }
            Ok(false) => {} // WouldBlock: resume when the socket polls writable.
            Err(_) => self.dead = true,
        }
    }

    /// True while the poll loop should watch for writability.
    fn wants_write(&self) -> bool {
        self.out.has_pending()
    }
}

/// Bytes of a shard's reusable read buffer: one read drains a connection
/// of everything short of a 256 KiB burst.
const READ_SCRATCH: usize = 256 * 1024;

/// One shard's poll-dispatch-respond loop.
struct ShardLoop {
    id: usize,
    router: Arc<Router>,
    /// Present on shard 0 only — the accepting shard.
    listener: Option<TcpListener>,
    shared: Arc<Shared>,
    /// This shard's own mailboxes (`shared.shards[id]`).
    me: Arc<Shard>,
    config: ServerConfig,
    conns: HashMap<u64, Conn>,
    /// Next connection token; strided by the shard count so tokens are
    /// globally unique without cross-shard coordination.
    next_token: u64,
    /// Round-robin deal cursor (listener shard only).
    rr_next: usize,
    /// Read destination shared by this shard's connections.
    scratch: Box<[u8]>,
}

impl ShardLoop {
    fn new(
        id: usize,
        router: Arc<Router>,
        listener: Option<TcpListener>,
        shared: Arc<Shared>,
        config: ServerConfig,
    ) -> ShardLoop {
        let me = Arc::clone(&shared.shards[id]);
        ShardLoop {
            id,
            router,
            listener,
            shared,
            me,
            config,
            conns: HashMap::new(),
            next_token: id as u64,
            rr_next: 0,
            scratch: vec![0u8; READ_SCRATCH].into_boxed_slice(),
        }
    }

    fn run(mut self) {
        let n_shards = self.shared.shards.len() as u64;
        while !self.shared.shutdown.load(Ordering::SeqCst) {
            // Entry layout per iteration: [waker, listener?, conns...].
            let mut entries = Vec::with_capacity(2 + self.conns.len());
            entries.push(PollEntry::new(self.me.waker.fd(), Interest::READ));
            let accepting = self.listener.is_some()
                && self
                    .shared
                    .counters
                    .open_connections
                    .load(Ordering::Relaxed)
                    < self.config.max_connections as u64;
            if accepting {
                let listener = self.listener.as_ref().expect("accepting implies listener");
                entries.push(PollEntry::new(listener.as_raw_fd(), Interest::READ));
            }
            let mut tokens = Vec::with_capacity(self.conns.len());
            for (&token, conn) in &self.conns {
                let interest = if conn.wants_write() {
                    Interest::READ_WRITE
                } else {
                    Interest::READ
                };
                entries.push(PollEntry::new(conn.stream.as_raw_fd(), interest));
                tokens.push(token);
            }

            // Block until traffic, a completed ticket's wake, a handoff,
            // or shutdown.
            if poll_fds(&mut entries, None).is_err() {
                // EINTR is retried inside poll_fds; anything else here is
                // unrecoverable for the loop.
                break;
            }

            let mut it = entries.iter();
            let waker_entry = it.next().expect("waker entry");
            if waker_entry.is_readable() {
                self.me.waker.drain();
                if self.shared.shutdown.load(Ordering::SeqCst) {
                    break;
                }
            }
            // Register sockets the listener shard dealt to this shard.
            for stream in self.me.handoff.drain() {
                self.register(stream, n_shards);
            }
            if accepting && it.next().expect("listener entry").is_readable() {
                self.accept_ready(n_shards);
            }
            for (entry, token) in it.zip(tokens) {
                let Some(conn) = self.conns.get_mut(&token) else {
                    continue;
                };
                if entry.is_readable() {
                    read_ready(
                        conn,
                        token,
                        &self.me,
                        &self.shared,
                        self.config.max_frame,
                        &mut self.scratch,
                    );
                }
            }

            self.deliver_events();

            // One gather-write per connection with output, per wakeup —
            // every frame queued above leaves in a single write unless
            // the socket pushes back (then it resumes on writability).
            for conn in self.conns.values_mut() {
                if conn.out.has_pending() || conn.close_after_flush {
                    conn.flush();
                }
            }

            let before = self.conns.len();
            self.conns.retain(|_, conn| {
                if conn.dead {
                    self.shared
                        .counters
                        .open_connections
                        .fetch_sub(1, Ordering::Relaxed);
                }
                !conn.dead
            });
            if self.conns.len() != before && self.id != 0 {
                // Freed capacity: the listener shard may be parked at the
                // connection cap with the listener out of its poll set.
                self.shared.shards[0].waker.wake();
            }
        }
        // Shutdown: dropping connections drops their tickets; in-flight
        // executions finish in the router with nobody to deliver to.
        self.conns.clear();
    }

    /// Accept every connection the backlog holds right now (listener
    /// shard only), dealing them round-robin across all shards.
    fn accept_ready(&mut self, n_shards: u64) {
        loop {
            if self
                .shared
                .counters
                .open_connections
                .load(Ordering::Relaxed)
                >= self.config.max_connections as u64
            {
                break;
            }
            let accepted = self
                .listener
                .as_ref()
                .expect("accept on listener shard")
                .accept();
            match accepted {
                Ok((stream, _peer)) => {
                    if stream.set_nonblocking(true).is_err() {
                        continue;
                    }
                    let _ = stream.set_nodelay(true);
                    self.shared
                        .counters
                        .open_connections
                        .fetch_add(1, Ordering::Relaxed);
                    self.shared
                        .counters
                        .accepted
                        .fetch_add(1, Ordering::Relaxed);
                    let target = self.rr_next % n_shards as usize;
                    self.rr_next += 1;
                    if target == self.id {
                        self.register(stream, n_shards);
                    } else {
                        let shard = &self.shared.shards[target];
                        shard.handoff.push(stream);
                        shard.waker.wake();
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => break,
            }
        }
    }

    /// Adopt a socket into this shard's poll set.
    fn register(&mut self, stream: TcpStream, n_shards: u64) {
        let token = self.next_token;
        self.next_token += n_shards;
        let tenant = self
            .router
            .tenant(format!("net-conn-{token}"), self.config.per_conn_quota);
        self.conns.insert(
            token,
            Conn {
                stream,
                inbound: FrameBuffer::new(self.config.max_frame),
                out: OutBuf::new(),
                tenant,
                in_flight: HashMap::new(),
                close_after_flush: false,
                dead: false,
            },
        );
        self.me.accepted.fetch_add(1, Ordering::Relaxed);
    }

    /// Move what every recorded ticket holds onto its connection's write
    /// queue — O(events), driven by the `(token, request_id)` pairs the
    /// `on_event` hooks recorded, never by scanning in-flight tickets. A
    /// completed ticket is retired with its remaining partials and its
    /// response; one still executing flushes its partials so far. Requests
    /// complete in any order; the correlation id sorts it out client-side.
    /// Events for connections that died in the meantime, or for tickets
    /// already retired, are skipped.
    fn deliver_events(&mut self) {
        let max_frame = self.config.max_frame;
        for (token, request_id) in self.me.events.drain() {
            let Some(conn) = self.conns.get_mut(&token) else {
                continue;
            };
            let Some(ticket) = conn.in_flight.get(&request_id) else {
                continue;
            };
            match ticket.poll_take() {
                Some(result) => {
                    let ticket = conn.in_flight.remove(&request_id).expect("looked up above");
                    push_completion(conn, &self.shared, request_id, &ticket, result, max_frame);
                }
                None => push_partials(&mut conn.out, request_id, ticket, max_frame),
            }
        }
    }
}

/// Queue every refinement the ticket holds as [`PartialFrame`]s.
fn push_partials(out: &mut OutBuf, request_id: u64, ticket: &Ticket, max_frame: u32) {
    for update in ticket.take_progress() {
        let frame = Frame::Partial(PartialFrame { request_id, update });
        out.push_frame(&frame, max_frame);
    }
}

/// Queue a finished request's frames on its connection: any refinements
/// still in the ticket first (the executing pump queues updates before it
/// fulfills, so partials always precede their final response), then the
/// response frame, encoded from the shared outcome — or an
/// [`ErrorCode::Internal`] error, if the request panicked.
fn push_completion(
    conn: &mut Conn,
    shared: &Shared,
    request_id: u64,
    ticket: &Ticket,
    result: std::thread::Result<Arc<AnswerOutcome>>,
    max_frame: u32,
) {
    push_partials(&mut conn.out, request_id, ticket, max_frame);
    match result {
        Ok(outcome) => conn.out.push_response(request_id, &outcome, max_frame),
        Err(payload) => {
            shared.counters.errors.fetch_add(1, Ordering::Relaxed);
            let mut message = payload
                .downcast_ref::<&str>()
                .map(|s| (*s).to_owned())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "request panicked".to_owned());
            // Panic payloads are arbitrary; keep the wire frame
            // small whatever they contain.
            if message.len() > 512 {
                let mut end = 512;
                while !message.is_char_boundary(end) {
                    end -= 1;
                }
                message.truncate(end);
            }
            conn.out.push_frame(
                &Frame::Error(ErrorFrame {
                    request_id,
                    code: ErrorCode::Internal,
                    message,
                }),
                max_frame,
            );
        }
    }
}

/// Drain a readable socket with one read (looping only if the scratch
/// filled completely), then decode and dispatch every complete frame
/// before the router sees the first one.
fn read_ready(
    conn: &mut Conn,
    token: u64,
    me: &Arc<Shard>,
    shared: &Arc<Shared>,
    max_frame: u32,
    scratch: &mut [u8],
) {
    loop {
        match (&conn.stream).read(scratch) {
            Ok(0) => {
                // Peer closed — possibly mid-request. Tear the state
                // down; outstanding tickets drop harmlessly.
                conn.dead = true;
                return;
            }
            Ok(n) => {
                conn.inbound.push(&scratch[..n]);
                if n < scratch.len() {
                    // The socket gave less than we could take: drained.
                    break;
                }
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
            Err(_) => {
                conn.dead = true;
                return;
            }
        }
    }
    loop {
        match conn.inbound.next_frame() {
            Ok(Some(Frame::Request(req))) => submit(conn, token, me, shared, max_frame, req),
            Ok(Some(_)) => {
                // Clients must not send server-kind frames.
                shared.counters.errors.fetch_add(1, Ordering::Relaxed);
                conn.out.push_frame(
                    &Frame::Error(ErrorFrame {
                        request_id: 0,
                        code: ErrorCode::Malformed,
                        message: "clients send request frames only".into(),
                    }),
                    max_frame,
                );
            }
            Ok(None) => break,
            Err(err) => {
                // Framing is unrecoverable: answer with a typed error
                // and close once it has flushed.
                shared.counters.errors.fetch_add(1, Ordering::Relaxed);
                let code = match &err {
                    ProtoError::BadVersion(_) => ErrorCode::UnsupportedVersion,
                    ProtoError::FrameTooLarge { .. } => ErrorCode::FrameTooLarge,
                    _ => ErrorCode::Malformed,
                };
                conn.out.push_frame(
                    &Frame::Error(ErrorFrame {
                        request_id: 0,
                        code,
                        message: err.to_string(),
                    }),
                    max_frame,
                );
                conn.close_after_flush = true;
                break;
            }
        }
    }
}

/// Submit one decoded request through the connection's tenant.
fn submit(
    conn: &mut Conn,
    token: u64,
    me: &Arc<Shard>,
    shared: &Arc<Shared>,
    max_frame: u32,
    req: RequestFrame,
) {
    let request_id = req.request_id;
    if conn.in_flight.contains_key(&request_id) {
        // Correlation ids must be unique per connection while in
        // flight; silently replacing the ticket would cross answers.
        shared.counters.errors.fetch_add(1, Ordering::Relaxed);
        conn.out.push_frame(
            &Frame::Error(ErrorFrame {
                request_id,
                code: ErrorCode::Malformed,
                message: "request id already in flight on this connection".into(),
            }),
            max_frame,
        );
        return;
    }
    match conn.tenant.try_submit(req.into_query_request()) {
        Ok(ticket) => {
            shared.counters.requests.fetch_add(1, Ordering::Relaxed);
            // An answer-cache hit comes back ready (as does a miss a fast
            // pump already finished): its frame joins this read pass's
            // output and this wakeup's write, and nothing is registered.
            if let Some(result) = ticket.poll_take() {
                push_completion(conn, shared, request_id, &ticket, result, max_frame);
                return;
            }
            let hook_shard = Arc::clone(me);
            // The hook only records the ticket and pokes the poll; the
            // shard loop delivers. (Should a pump queue a refinement or
            // finish between the `poll_take` above and this registration,
            // the hook runs here and the event is delivered later in this
            // same wakeup.)
            ticket.on_event(move || {
                hook_shard.events.push((token, request_id));
                hook_shard.waker.wake();
            });
            conn.in_flight.insert(request_id, ticket);
        }
        Err(err) => {
            shared.counters.errors.fetch_add(1, Ordering::Relaxed);
            let code = match &err {
                RouteError::UnknownTable(_) => ErrorCode::UnknownTable,
                RouteError::QueueFull(_) => ErrorCode::QueueFull,
                RouteError::QuotaExhausted(_) => ErrorCode::QuotaExhausted,
                RouteError::Closed(_) => ErrorCode::Shutdown,
                // Refused whole, like the duplicate id above: framing is
                // intact, so the connection stays open.
                RouteError::InvalidQuery(..) => ErrorCode::Malformed,
            };
            let message = err.to_string();
            conn.out.push_frame(
                &Frame::Error(ErrorFrame {
                    request_id,
                    code,
                    message,
                }),
                max_frame,
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shard_count_defaults_honor_the_env_override_shape() {
        // Not an env-mutating test (that would race the process); just pin
        // the clamp and fallback logic the default path builds on.
        let config = ServerConfig::default();
        assert!(config.net_shards >= 1, "default shard count is positive");
        let explicit = ServerConfig {
            net_shards: 3,
            ..ServerConfig::default()
        };
        assert_eq!(explicit.net_shards, 3);
    }

    #[test]
    fn token_stride_keeps_tokens_globally_unique() {
        // Shard s hands out tokens s, s+n, s+2n, ...: disjoint across
        // shards by construction. Pin the arithmetic the hooks rely on
        // (a completion keyed by token must never reach a foreign conn).
        let n = 4u64;
        let mut seen = std::collections::HashSet::new();
        for shard in 0..n {
            let mut next = shard;
            for _ in 0..8 {
                assert!(seen.insert(next), "token {next} dealt twice");
                next += n;
            }
        }
    }
}
