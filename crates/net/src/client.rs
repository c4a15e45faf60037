//! A blocking client for the PS3 wire protocol — what tests, examples,
//! and simple integrations speak to a [`NetServer`](crate::server) with.
//!
//! [`NetClient`] owns one TCP connection. The synchronous path is
//! [`NetClient::request`]: encode, send, block for the matching reply.
//! Pipelining is the split pair [`NetClient::send`] (fire off any number
//! of requests) and [`NetClient::recv`] (collect replies in completion
//! order, correlated by request id). A reply is the decoded
//! [`ResponseFrame`] itself ([`RemoteAnswer`]); nothing is rebuilt from it.
//! [`NetClient::request_streaming`] flips the request's progressive flag
//! and returns the refining [`ProgressUpdate`]s alongside the final answer.

use std::collections::{HashMap, VecDeque};
use std::io::{self, Read, Write};
use std::net::{TcpStream, ToSocketAddrs};

use ps3_core::{ProgressUpdate, QueryRequest};

use crate::proto::{
    encode_request_into, ErrorFrame, Frame, FrameBuffer, ProtoError, ResponseFrame,
    DEFAULT_MAX_FRAME,
};

/// Queued-but-unsent request bytes above this threshold force a flush on
/// the next [`NetClient::send`], bounding how much a fire-and-forget
/// burst can buffer client-side (64 KiB ≈ hundreds of typical requests).
const OUTGOING_FLUSH_THRESHOLD: usize = 64 * 1024;

/// Why a client call failed.
#[derive(Debug)]
pub enum ClientError {
    /// The socket failed (including a server that closed the connection).
    Io(io::Error),
    /// The server sent bytes this client could not decode.
    Proto(ProtoError),
    /// The server answered with a typed refusal.
    Server(ErrorFrame),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "socket error: {e}"),
            ClientError::Proto(e) => write!(f, "protocol error: {e}"),
            ClientError::Server(e) => {
                write!(
                    f,
                    "server refused request {}: {:?}: {}",
                    e.request_id, e.code, e.message
                )
            }
        }
    }
}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> Self {
        ClientError::Io(e)
    }
}

impl From<ProtoError> for ClientError {
    fn from(e: ProtoError) -> Self {
        ClientError::Proto(e)
    }
}

impl std::error::Error for ClientError {}

/// A served answer, as seen from the client side of the wire: the
/// response frame itself, which carries the answer, its
/// [`AnswerMeta`](ps3_core::AnswerMeta) and its sketch. The alias stays
/// because the frozen `ps3_e2e` benchmark builds and reads answers under
/// this name.
pub type RemoteAnswer = ResponseFrame;

/// Everything a progressive request produced: zero or more refinements
/// (in `seq` order — cache hits answer in a single frame) and the final
/// answer, which is bit-identical to what a non-progressive request for
/// the same `(table, query, method, planned frac, seed)` returns.
#[derive(Debug, Clone, PartialEq)]
pub struct StreamedAnswer {
    /// The refinements, in stream order.
    pub partials: Vec<ProgressUpdate>,
    /// The final answer.
    pub answer: RemoteAnswer,
}

/// One frame from the server: an answer or a typed refusal, either way
/// carrying the correlation id it belongs to.
#[derive(Debug, Clone, PartialEq)]
pub enum ServerReply {
    /// A successful answer.
    Answer(RemoteAnswer),
    /// A typed refusal.
    Error(ErrorFrame),
}

impl ServerReply {
    /// The correlation id this reply answers.
    pub fn request_id(&self) -> u64 {
        match self {
            ServerReply::Answer(a) => a.request_id,
            ServerReply::Error(e) => e.request_id,
        }
    }
}

/// A blocking connection to a PS3 network front door.
///
/// Requests queue client-side: [`NetClient::send`] encodes into an
/// outgoing buffer without touching the socket, and the whole batch goes
/// out in **one** write on the first blocking receive (or past a size
/// threshold, or an explicit [`NetClient::flush`]). A pipelined burst of
/// N small requests therefore costs one syscall, not N — the serving
/// benches measure the protocol, not the client's syscall count.
pub struct NetClient {
    stream: TcpStream,
    inbound: FrameBuffer,
    /// Encoded request frames not yet written to the socket.
    outgoing: Vec<u8>,
    next_id: u64,
    /// Replies that arrived while waiting for a different id (pipelined
    /// requests complete in any order), in arrival order.
    parked: VecDeque<ServerReply>,
    /// Partial frames collected per request id, awaiting their final
    /// response.
    partials: HashMap<u64, Vec<ProgressUpdate>>,
}

impl NetClient {
    /// Connect to a server.
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<NetClient> {
        let stream = TcpStream::connect(addr)?;
        let _ = stream.set_nodelay(true);
        Ok(NetClient {
            stream,
            inbound: FrameBuffer::new(DEFAULT_MAX_FRAME),
            outgoing: Vec::new(),
            next_id: 1,
            parked: VecDeque::new(),
            partials: HashMap::new(),
        })
    }

    /// Queue one request without waiting; returns its correlation id.
    /// The frame is encoded into the outgoing buffer and written together
    /// with every other queued request when the client next blocks for a
    /// reply ([`NetClient::recv`] / [`NetClient::recv_for`]), when the
    /// buffer crosses its size threshold, or on [`NetClient::flush`]. The
    /// frame is encoded from the borrowed request, which is not copied. A
    /// frame that refuses to encode leaves the queue and the next id
    /// untouched.
    pub fn send(&mut self, req: &QueryRequest) -> Result<u64, ClientError> {
        if self.outgoing.len() >= OUTGOING_FLUSH_THRESHOLD {
            self.flush()?;
        }
        let request_id = self.next_id;
        encode_request_into(request_id, req, &mut self.outgoing)?;
        self.next_id += 1;
        Ok(request_id)
    }

    /// Write every queued request to the socket in one batch. Called
    /// implicitly before any blocking receive; explicit calls only matter
    /// for fire-and-forget patterns that never read a reply.
    pub fn flush(&mut self) -> Result<(), ClientError> {
        if !self.outgoing.is_empty() {
            self.stream.write_all(&self.outgoing)?;
            self.outgoing.clear();
        }
        Ok(())
    }

    /// Block for the next reply, in server completion order: replies
    /// parked by [`NetClient::recv_for`] come first, in the order they
    /// arrived.
    pub fn recv(&mut self) -> Result<ServerReply, ClientError> {
        match self.parked.pop_front() {
            Some(reply) => Ok(reply),
            None => self.read_reply(),
        }
    }

    /// Block for the reply to `request_id` specifically, parking any other
    /// replies that arrive first. A **connection-level** error frame
    /// (request id 0 — an undecodable frame, an unsupported version, an
    /// over-cap length; the server closes after sending one) is returned
    /// immediately whatever id was asked for: no reply with the requested
    /// id can ever arrive after it, so parking it would turn the server's
    /// typed refusal into an opaque EOF.
    pub fn recv_for(&mut self, request_id: u64) -> Result<ServerReply, ClientError> {
        let parked = self
            .parked
            .iter()
            .position(|r| r.request_id() == request_id);
        if let Some(reply) = parked.and_then(|at| self.parked.remove(at)) {
            return Ok(reply);
        }
        loop {
            let reply = self.read_reply()?;
            let is_conn_level = matches!(&reply, ServerReply::Error(e) if e.request_id == 0);
            if reply.request_id() == request_id || is_conn_level {
                return Ok(reply);
            }
            self.parked.push_back(reply);
        }
    }

    /// The synchronous convenience path: send, block for the matching
    /// reply, and surface server refusals as [`ClientError::Server`].
    pub fn request(&mut self, req: &QueryRequest) -> Result<RemoteAnswer, ClientError> {
        let id = self.send(req)?;
        let reply = self.recv_for(id);
        // Whatever happened, this id is settled: drop any stashed partials
        // nobody will collect.
        self.partials.remove(&id);
        match reply? {
            ServerReply::Answer(answer) => Ok(answer),
            ServerReply::Error(err) => Err(ClientError::Server(err)),
        }
    }

    /// Send with the progressive flag set and collect the whole stream:
    /// every [`ProgressUpdate`] refinement plus the final answer. How many
    /// partials arrive is the server's choice — a cache hit answers in one
    /// frame with no partials at all.
    pub fn request_streaming(&mut self, req: &QueryRequest) -> Result<StreamedAnswer, ClientError> {
        let req = req.clone().progressive();
        let id = self.send(&req)?;
        let reply = self.recv_for(id);
        let partials = self.partials.remove(&id).unwrap_or_default();
        match reply? {
            ServerReply::Answer(answer) => Ok(StreamedAnswer { partials, answer }),
            ServerReply::Error(err) => Err(ClientError::Server(err)),
        }
    }

    /// Partial frames stashed for `request_id` so far (without waiting).
    /// [`NetClient::request_streaming`] is the usual way to consume
    /// partials; this is the escape hatch for pipelined [`NetClient::send`]
    /// users.
    pub fn take_partials(&mut self, request_id: u64) -> Vec<ProgressUpdate> {
        self.partials.remove(&request_id).unwrap_or_default()
    }

    /// Read frames off the socket until one complete reply decodes.
    /// Partial frames are not replies: they are stashed for their request
    /// id and reading continues. Queued requests are flushed before the
    /// first blocking read — the other half of the send-batching contract
    /// (waiting for a reply to a request the socket never saw would
    /// deadlock).
    fn read_reply(&mut self) -> Result<ServerReply, ClientError> {
        loop {
            if let Some(frame) = self.inbound.next_frame()? {
                match frame {
                    Frame::Response(resp) => return Ok(ServerReply::Answer(resp)),
                    Frame::Error(err) => return Ok(ServerReply::Error(err)),
                    Frame::Partial(part) => {
                        self.partials
                            .entry(part.request_id)
                            .or_default()
                            .push(part.update);
                        continue;
                    }
                    Frame::Request(_) => {
                        return Err(ClientError::Proto(ProtoError::Invalid(
                            "server sent a request frame",
                        )))
                    }
                };
            }
            self.flush()?;
            let mut chunk = [0u8; 16 * 1024];
            let n = self.stream.read(&mut chunk)?;
            if n == 0 {
                return Err(ClientError::Io(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "server closed the connection",
                )));
            }
            self.inbound.push(&chunk[..n]);
        }
    }
}

impl Drop for NetClient {
    /// Best-effort flush of queued requests a fire-and-forget caller never
    /// followed with a receive; errors are ignored (the connection is
    /// going away either way).
    fn drop(&mut self) {
        let _ = self.flush();
    }
}
