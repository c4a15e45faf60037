//! The PS3 wire protocol: length-prefixed, versioned binary frames.
//!
//! Everything on the wire is a **frame**: a 4-byte little-endian body
//! length followed by the body, which starts with a fixed header
//! (`version`, `kind`, `request_id`) and continues with a kind-specific
//! payload. Four kinds exist: [`RequestFrame`] (client → server: a table
//! route, a [`QuerySpec`] in the byte grammar of [`ps3_query::codec`] — the
//! same one frozen artifacts store their training workload in — and the
//! method/[`Budget`]/seed triple),
//! [`ResponseFrame`] (server → client: the [`QueryAnswer`] with its
//! [`AnswerMeta`] — execution stats and error estimate), [`PartialFrame`]
//! (server → client: a refining [`ProgressUpdate`] on a progressive
//! request), and
//! [`ErrorFrame`] (server → client: a typed refusal). Every field, the
//! query and the embedded answer sketch included, is written and read by
//! the workspace's one byte codec, `ps3_storage::codec`'s
//! [`Writer`]/[`Reader`] — no serde, no external crates — and every
//! multi-byte integer is little-endian. Frames carry the in-process types
//! themselves; this module owns only their byte grammar.
//!
//! `docs/PROTOCOL.md` documents the byte layout with worked examples; a
//! doc-test in this crate encodes those exact frames and asserts the
//! documented bytes, so the document cannot silently drift from the code.
//!
//! ## One dialect
//!
//! There is exactly one grammar, [`PROTO_VERSION`]. The `version` byte is
//! checked first, on both sides; any other value is
//! [`ProtoError::BadVersion`], which the server answers with
//! [`ErrorCode::UnsupportedVersion`] (itself a [`PROTO_VERSION`] frame)
//! before closing. Nothing is negotiated and nothing is downgraded.
//!
//! ## Forward compatibility
//!
//! - Unknown frame kinds and payload tags are errors, not skips — the
//!   grammar is closed.
//! - Decoders ignore bytes past the fields they know *at the end of a
//!   frame body*, so a minor revision may append new trailing fields
//!   without bumping the version; anything structural bumps it.

use ps3_core::{
    AggError, AnswerMeta, Budget, ErrorEstimate, Method, ProgressUpdate, QueryRequest, TableRoute,
};
use ps3_query::codec::{decode_query_spec, encode_query_spec};
use ps3_query::{GroupKey, QueryAnswer, QuerySpec};
use ps3_sketch::codec::{decode_answer_sketch, encode_answer_sketch};
use ps3_sketch::AnswerSketch;
use ps3_storage::codec::{CodecError, Reader, Writer};

/// The protocol version this build speaks (the first body byte of every
/// frame) — the only one it encodes or decodes.
pub const PROTO_VERSION: u8 = 3;

/// Default cap on one frame's body length (16 MiB). Both sides refuse
/// larger frames before buffering them, so a corrupt or hostile length
/// prefix cannot balloon memory.
pub const DEFAULT_MAX_FRAME: u32 = 16 * 1024 * 1024;

/// Frame kind byte: request.
const KIND_REQUEST: u8 = 1;
/// Frame kind byte: response.
const KIND_RESPONSE: u8 = 2;
/// Frame kind byte: error.
const KIND_ERROR: u8 = 3;
/// Frame kind byte: partial (progressive) answer.
const KIND_PARTIAL: u8 = 4;

/// Request flags byte: bit 0 requests progressive streaming.
const FLAG_PROGRESSIVE: u8 = 1;
/// Budget tag byte: an explicit partition fraction.
const BUDGET_FRACTION: u8 = 0;
/// Budget tag byte: a relative-error target.
const BUDGET_ERROR_TARGET: u8 = 1;
/// Budget tag byte: a latency target in milliseconds.
const BUDGET_LATENCY_TARGET: u8 = 2;

/// Why a frame failed to decode (or a value refused to encode).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProtoError {
    /// The body ended before a field it promised.
    Truncated,
    /// The version byte differs from [`PROTO_VERSION`].
    BadVersion(u8),
    /// An unknown frame kind byte.
    BadKind(u8),
    /// An unknown tag byte for the named grammar rule.
    BadTag {
        /// Which grammar rule was being decoded.
        what: &'static str,
        /// The offending byte.
        tag: u8,
    },
    /// A string field held invalid UTF-8.
    BadUtf8,
    /// A frame's declared body length exceeds the configured cap.
    FrameTooLarge {
        /// The declared body length.
        len: u32,
        /// The cap it exceeded.
        max: u32,
    },
    /// A structurally invalid value (empty aggregate list, excessive
    /// nesting, a router-local table id in a wire route, …).
    Invalid(&'static str),
}

impl std::fmt::Display for ProtoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProtoError::Truncated => write!(f, "frame body truncated"),
            ProtoError::BadVersion(v) => {
                write!(
                    f,
                    "protocol version {v} (this build speaks {PROTO_VERSION})"
                )
            }
            ProtoError::BadKind(k) => write!(f, "unknown frame kind {k}"),
            ProtoError::BadTag { what, tag } => write!(f, "unknown {what} tag {tag}"),
            ProtoError::BadUtf8 => write!(f, "invalid UTF-8 in string field"),
            ProtoError::FrameTooLarge { len, max } => {
                write!(f, "frame body of {len} bytes exceeds the {max}-byte cap")
            }
            ProtoError::Invalid(what) => write!(f, "invalid frame: {what}"),
        }
    }
}

impl std::error::Error for ProtoError {}

/// The byte codec's failures — in the frame's own fields, its query or its
/// answer sketch — are frame failures: same variant, same payload. A schema
/// complaint cannot come out of a decode (the bytes name no table); it maps
/// to `Invalid` so the conversion is total.
impl From<CodecError> for ProtoError {
    fn from(e: CodecError) -> Self {
        match e {
            CodecError::Truncated => ProtoError::Truncated,
            CodecError::BadTag { what, tag } => ProtoError::BadTag { what, tag },
            CodecError::BadUtf8 => ProtoError::BadUtf8,
            CodecError::Invalid(what) => ProtoError::Invalid(what),
            CodecError::BadColumn { .. } => ProtoError::Invalid("query does not fit the table"),
        }
    }
}

/// Typed refusal codes carried by [`ErrorFrame`]. The discriminants are
/// the wire bytes and are frozen.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum ErrorCode {
    /// The request's route named no registered table.
    UnknownTable = 1,
    /// The router's request queue is at capacity — wire-visible
    /// backpressure; retry later.
    QueueFull = 2,
    /// The connection's in-flight quota is exhausted — wire-visible
    /// admission control; wait for an outstanding answer.
    QuotaExhausted = 3,
    /// The router has shut down.
    Shutdown = 4,
    /// The frame failed to decode (the server closes the connection after
    /// sending this — framing is unrecoverable once desynchronized), or a
    /// decoded request was refused whole — a duplicate in-flight id, a
    /// column the table does not have — which leaves the connection open.
    Malformed = 5,
    /// The version byte is one this server does not speak.
    UnsupportedVersion = 6,
    /// The declared frame length exceeds the server's cap.
    FrameTooLarge = 7,
    /// The request panicked while executing.
    Internal = 8,
}

impl ErrorCode {
    /// Decode a wire byte.
    pub fn from_byte(b: u8) -> Result<ErrorCode, ProtoError> {
        Ok(match b {
            1 => ErrorCode::UnknownTable,
            2 => ErrorCode::QueueFull,
            3 => ErrorCode::QuotaExhausted,
            4 => ErrorCode::Shutdown,
            5 => ErrorCode::Malformed,
            6 => ErrorCode::UnsupportedVersion,
            7 => ErrorCode::FrameTooLarge,
            8 => ErrorCode::Internal,
            tag => {
                return Err(ProtoError::BadTag {
                    what: "error code",
                    tag,
                })
            }
        })
    }
}

/// One decoded frame.
#[derive(Debug, Clone, PartialEq)]
pub enum Frame {
    /// Client → server: execute a query.
    Request(RequestFrame),
    /// Server → client: the answer.
    Response(ResponseFrame),
    /// Server → client: a refining intermediate answer.
    Partial(PartialFrame),
    /// Server → client: a typed refusal.
    Error(ErrorFrame),
}

/// A client's query submission.
#[derive(Debug, Clone, PartialEq)]
pub struct RequestFrame {
    /// Client-chosen correlation id, echoed verbatim in the response.
    pub request_id: u64,
    /// Target table: `None` routes to a single-table router's default
    /// table, `Some(name)` resolves by name. (Router-local [`TableRoute::Id`]s
    /// are meaningless across a wire and refuse to encode.)
    pub table: Option<String>,
    /// Sampling method.
    pub method: Method,
    /// What to spend: an explicit partition fraction, or a declarative
    /// error/latency target for the server's planner to resolve.
    pub budget: Budget,
    /// Determinism seed: equal `(table, query, method, planned frac, seed)`
    /// yields bit-identical answers.
    pub seed: u64,
    /// Stream refining partial answers before the final response (served
    /// best-effort — cache hits answer in one frame).
    pub progressive: bool,
    /// The query itself: a scalar aggregate query or a sketch-class query.
    pub query: QuerySpec,
}

impl RequestFrame {
    /// Package a [`QueryRequest`] for the wire. Fails on a
    /// [`TableRoute::Id`] route (ids are router-local).
    pub fn from_request(request_id: u64, req: &QueryRequest) -> Result<RequestFrame, ProtoError> {
        let table = match &req.table {
            TableRoute::Default => None,
            TableRoute::Named(name) => Some(name.clone()),
            TableRoute::Id(_) => {
                return Err(ProtoError::Invalid(
                    "table ids are router-local; route by name over the wire",
                ))
            }
        };
        Ok(RequestFrame {
            request_id,
            table,
            method: req.method,
            budget: req.budget,
            seed: req.seed,
            progressive: req.progressive,
            query: req.query.clone(),
        })
    }

    /// Rebuild the router-side [`QueryRequest`].
    pub fn into_query_request(self) -> QueryRequest {
        let table = match self.table {
            None => TableRoute::Default,
            Some(name) => TableRoute::Named(name),
        };
        QueryRequest {
            query: self.query,
            method: self.method,
            budget: self.budget,
            seed: self.seed,
            table,
            progressive: self.progressive,
        }
    }
}

/// A server's answer: the answer itself plus how it was produced. The
/// answer's groups iterate in key order, so equal answers encode to equal
/// bytes.
#[derive(Debug, Clone, PartialEq)]
pub struct ResponseFrame {
    /// Echo of the request's correlation id.
    pub request_id: u64,
    /// The (approximate) answer.
    pub answer: QueryAnswer,
    /// How the answer was produced: partitions read, picker latency, the
    /// planned fraction, exactness, and per-aggregate error estimates —
    /// the same [`AnswerMeta`] the router reports locally.
    pub meta: AnswerMeta,
    /// The merged answer sketch behind a sketch-class answer — `None` for
    /// scalar answers.
    pub sketch: Option<AnswerSketch>,
}

impl ResponseFrame {
    /// Package an executed outcome for the wire.
    pub fn from_outcome(request_id: u64, outcome: &ps3_core::AnswerOutcome) -> ResponseFrame {
        ResponseFrame {
            request_id,
            answer: outcome.answer.clone(),
            meta: outcome.meta.clone(),
            sketch: outcome.sketch.clone(),
        }
    }

    /// A copy of [`ResponseFrame::answer`]. The frozen `ps3_e2e` benchmark
    /// calls it; other code reads the field.
    pub fn to_answer(&self) -> QueryAnswer {
        self.answer.clone()
    }

    /// A copy of [`ResponseFrame::meta`]. The frozen `ps3_e2e` benchmark
    /// calls it; other code reads the field.
    pub fn to_meta(&self) -> AnswerMeta {
        self.meta.clone()
    }
}

/// A refining intermediate answer on a progressive request.
///
/// Zero or more partials precede the final [`ResponseFrame`]; each covers
/// strictly more partitions than the last (`update.partitions_total` is
/// always `> update.partitions_done` — the last batch arrives as the final
/// response, never as a partial), and the final response is bit-identical
/// to what a non-progressive request would have returned.
#[derive(Debug, Clone, PartialEq)]
pub struct PartialFrame {
    /// Echo of the request's correlation id.
    pub request_id: u64,
    /// The refinement: its position in the stream, partitions combined so
    /// far and in total, the intermediate answer and its summary relative
    /// error (NaN when the prefix is too small to estimate from).
    pub update: ProgressUpdate,
}

/// A server's typed refusal.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ErrorFrame {
    /// Echo of the request's correlation id (0 when the failure predates
    /// one, e.g. an undecodable frame).
    pub request_id: u64,
    /// What went wrong.
    pub code: ErrorCode,
    /// Human-readable detail (never required for program logic).
    pub message: String,
}

// ---------------------------------------------------------------------------
// Encoding
// ---------------------------------------------------------------------------

fn method_byte(m: Method) -> u8 {
    match m {
        Method::Random => 0,
        Method::RandomFilter => 1,
        Method::Lss => 2,
        Method::Ps3 => 3,
    }
}

/// The shared row-block grammar of response and partial frames:
/// `[n_aggs: u16][n_rows: u32]` then per row `[key_words: u16][key…][values…]`,
/// one row per group in ascending key order. Every group must carry
/// `n_aggs` values: a ragged answer would decode to a different one.
fn encode_rows(w: &mut Writer<'_>, answer: &QueryAnswer) -> Result<(), ProtoError> {
    let n_aggs = answer.groups.values().next().map_or(0, Vec::len);
    w.u16_len(n_aggs, "aggregate lists cap at 65535")?;
    w.u32_len(answer.groups.len(), "answers cap at 2^32-1 rows")?;
    for (key, values) in &answer.groups {
        if values.len() != n_aggs {
            return Err(ProtoError::Invalid(
                "answer groups carry different value counts",
            ));
        }
        w.u16_len(key.0.len(), "group keys cap at 65535 words")?;
        for word in &key.0 {
            w.u64(*word);
        }
        for v in values {
            w.f64(*v);
        }
    }
    Ok(())
}

/// The one version check both directions share.
fn check_version(version: u8) -> Result<(), ProtoError> {
    if version == PROTO_VERSION {
        Ok(())
    } else {
        Err(ProtoError::BadVersion(version))
    }
}

/// Encode a frame into its full wire form: `[body_len: u32 LE][body]`.
///
/// Fails ([`ProtoError::Invalid`]) on values that do not fit their length
/// fields (a >64 KiB string, a >65535-entry list) rather than truncating
/// them into a frame that would decode to something else.
pub fn encode_frame(frame: &Frame) -> Result<Vec<u8>, ProtoError> {
    let mut wire = Vec::with_capacity(64);
    encode_frame_at_into(frame, PROTO_VERSION, &mut wire)?;
    Ok(wire)
}

/// [`encode_frame`] into a caller-owned buffer: appends the full wire form
/// (`[body_len: u32 LE][body]`) to `out` without allocating. `version`
/// must be [`PROTO_VERSION`] — anything else is refused with
/// [`ProtoError::BadVersion`], never encoded in another dialect.
///
/// On error `out` is restored to its original length — a refused frame
/// leaves no partial bytes behind, so the buffer can hold a queue of
/// already-encoded frames. This is the serving path's per-connection
/// encode primitive; `encode_frame` is the convenience wrapper that pays
/// one allocation for callers without a buffer to reuse.
pub fn encode_frame_at_into(
    frame: &Frame,
    version: u8,
    out: &mut Vec<u8>,
) -> Result<(), ProtoError> {
    check_version(version)?;
    let start = out.len();
    let encoded = Writer::new(out)
        .blob("frame bodies cap at 2^32-1 bytes", |w| {
            encode_frame_body(frame, w)
        })
        .map_err(ProtoError::from)
        .and_then(|body| body);
    if encoded.is_err() {
        out.truncate(start);
    }
    encoded
}

/// Write one frame body; the caller prefixes its length and rolls back on
/// error.
fn encode_frame_body(frame: &Frame, w: &mut Writer<'_>) -> Result<(), ProtoError> {
    w.u8(PROTO_VERSION);
    match frame {
        Frame::Request(req) => {
            w.u8(KIND_REQUEST);
            w.u64(req.request_id);
            match &req.table {
                None => w.u8(0),
                Some(name) => {
                    w.u8(1);
                    w.str(name)?;
                }
            }
            w.u8(method_byte(req.method));
            let (tag, value) = match req.budget {
                Budget::Fraction(f) => (BUDGET_FRACTION, f),
                Budget::ErrorTarget { rel_err } => (BUDGET_ERROR_TARGET, rel_err),
                Budget::LatencyTarget { ms } => (BUDGET_LATENCY_TARGET, ms),
            };
            w.u8(tag);
            w.f64(value);
            w.u64(req.seed);
            w.u8(if req.progressive { FLAG_PROGRESSIVE } else { 0 });
            encode_query_spec(w, &req.query)?;
        }
        Frame::Response(resp) => {
            w.u8(KIND_RESPONSE);
            w.u64(resp.request_id);
            encode_rows(w, &resp.answer)?;
            let meta = &resp.meta;
            w.u32(meta.partitions_read);
            w.f64(meta.picker_ms);
            // The error contract: planned fraction, exactness, summary and
            // per-aggregate `[ci_half_width][rel_err]` estimates.
            w.f64(meta.planned_frac);
            w.u8(u8::from(meta.exact));
            let error = &meta.error_estimate;
            w.f64(error.rel_err);
            w.u16_len(error.per_agg.len(), "aggregate lists cap at 65535")?;
            for agg in &error.per_agg {
                w.f64(agg.ci_half_width);
                w.f64(agg.rel_err);
            }
            match &resp.sketch {
                None => w.u8(0),
                Some(s) => {
                    w.u8(1);
                    let what = "answer sketches cap at 2^32-1 bytes";
                    w.blob(what, |w| encode_answer_sketch(s, w))?;
                }
            }
        }
        Frame::Partial(part) => {
            w.u8(KIND_PARTIAL);
            w.u64(part.request_id);
            let update = &part.update;
            w.u32(update.seq);
            w.u32(update.partitions_done);
            w.u32(update.partitions_total);
            encode_rows(w, &update.answer)?;
            w.f64(update.rel_err);
        }
        Frame::Error(err) => {
            w.u8(KIND_ERROR);
            w.u64(err.request_id);
            w.u8(err.code as u8);
            w.str(&err.message)?;
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Decoding
// ---------------------------------------------------------------------------

/// Read a row block back into its answer. Rows must be strictly
/// ascending by key, as [`encode_rows`] writes them: rows out of order or
/// a repeated key would decode to an answer that encodes to other bytes.
fn decode_rows(r: &mut Reader) -> Result<QueryAnswer, ProtoError> {
    let n_aggs = r.u16()? as usize;
    let n_rows = r.u32()? as usize;
    let mut rows: Vec<(GroupKey, Vec<f64>)> = Vec::with_capacity(n_rows.min(4096));
    for _ in 0..n_rows {
        let key_words = r.u16()? as usize;
        let key = GroupKey((0..key_words).map(|_| r.u64()).collect::<Result<_, _>>()?);
        if rows.last().is_some_and(|(last, _)| *last >= key) {
            return Err(ProtoError::Invalid(
                "answer rows not strictly ascending by key",
            ));
        }
        let values = (0..n_aggs).map(|_| r.f64()).collect::<Result<_, _>>()?;
        rows.push((key, values));
    }
    Ok(QueryAnswer {
        groups: rows.into_iter().collect(),
    })
}

/// Decode one frame *body* (the bytes after the 4-byte length prefix).
/// A version byte other than [`PROTO_VERSION`] is
/// [`ProtoError::BadVersion`]. Trailing bytes past the known grammar are
/// ignored (see the module docs on forward compatibility).
pub fn decode_body(body: &[u8]) -> Result<Frame, ProtoError> {
    let mut r = Reader::new(body);
    check_version(r.u8()?)?;
    let kind = r.u8()?;
    let request_id = r.u64()?;
    match kind {
        KIND_REQUEST => {
            let table = match r.u8()? {
                0 => None,
                1 => Some(r.str()?),
                tag => {
                    return Err(ProtoError::BadTag {
                        what: "table route",
                        tag,
                    })
                }
            };
            let method = match r.u8()? {
                0 => Method::Random,
                1 => Method::RandomFilter,
                2 => Method::Lss,
                3 => Method::Ps3,
                tag => {
                    return Err(ProtoError::BadTag {
                        what: "method",
                        tag,
                    })
                }
            };
            let tag = r.u8()?;
            let value = r.f64()?;
            let budget = match tag {
                BUDGET_FRACTION => Budget::Fraction(value),
                BUDGET_ERROR_TARGET => Budget::ErrorTarget { rel_err: value },
                BUDGET_LATENCY_TARGET => Budget::LatencyTarget { ms: value },
                tag => {
                    return Err(ProtoError::BadTag {
                        what: "budget",
                        tag,
                    })
                }
            };
            let seed = r.u64()?;
            let flags = r.u8()?;
            if flags & !FLAG_PROGRESSIVE != 0 {
                return Err(ProtoError::Invalid("unknown request flag bits"));
            }
            let progressive = flags & FLAG_PROGRESSIVE != 0;
            let query = decode_query_spec(&mut r)?;
            Ok(Frame::Request(RequestFrame {
                request_id,
                table,
                method,
                budget,
                seed,
                progressive,
                query,
            }))
        }
        KIND_RESPONSE => {
            let answer = decode_rows(&mut r)?;
            let partitions_read = r.u32()?;
            let picker_ms = r.f64()?;
            let planned_frac = r.f64()?;
            let exact = match r.u8()? {
                0 => false,
                1 => true,
                tag => {
                    return Err(ProtoError::BadTag {
                        what: "exactness flag",
                        tag,
                    })
                }
            };
            let rel_err = r.f64()?;
            let n = r.u16()? as usize;
            let per_agg = (0..n)
                .map(|_| {
                    Ok(AggError {
                        ci_half_width: r.f64()?,
                        rel_err: r.f64()?,
                    })
                })
                .collect::<Result<Vec<_>, ProtoError>>()?;
            let error_estimate = ErrorEstimate { per_agg, rel_err };
            let sketch = match r.u8()? {
                0 => None,
                1 => Some(r.blob(decode_answer_sketch)?),
                tag => {
                    return Err(ProtoError::BadTag {
                        what: "sketch presence flag",
                        tag,
                    })
                }
            };
            Ok(Frame::Response(ResponseFrame {
                request_id,
                answer,
                meta: AnswerMeta {
                    partitions_read,
                    picker_ms,
                    error_estimate,
                    planned_frac,
                    exact,
                },
                sketch,
            }))
        }
        KIND_PARTIAL => {
            let seq = r.u32()?;
            let partitions_done = r.u32()?;
            let partitions_total = r.u32()?;
            let answer = decode_rows(&mut r)?;
            Ok(Frame::Partial(PartialFrame {
                request_id,
                update: ProgressUpdate {
                    seq,
                    partitions_done,
                    partitions_total,
                    answer,
                    rel_err: r.f64()?,
                },
            }))
        }
        KIND_ERROR => {
            let code = ErrorCode::from_byte(r.u8()?)?;
            Ok(Frame::Error(ErrorFrame {
                request_id,
                code,
                message: r.str()?,
            }))
        }
        kind => Err(ProtoError::BadKind(kind)),
    }
}

/// Incremental frame assembly over a byte stream.
///
/// Feed raw socket reads in with [`FrameBuffer::push`], then pull complete
/// frames with [`FrameBuffer::next_frame`] until it yields `Ok(None)`.
/// The length prefix is validated against the buffer's cap *before* the
/// body is awaited, so one bad prefix can never commit the peer to
/// buffering gigabytes.
#[derive(Debug)]
pub struct FrameBuffer {
    buf: Vec<u8>,
    /// Bytes of `buf` already consumed by yielded frames (compacted lazily).
    consumed: usize,
    max_frame: u32,
}

impl FrameBuffer {
    /// A buffer accepting bodies up to `max_frame` bytes.
    pub fn new(max_frame: u32) -> FrameBuffer {
        FrameBuffer {
            buf: Vec::new(),
            consumed: 0,
            max_frame,
        }
    }

    /// Append raw bytes from the stream.
    pub fn push(&mut self, bytes: &[u8]) {
        // Compact before growing: yielded-frame bytes at the front are dead.
        if self.consumed > 0 {
            self.buf.drain(..self.consumed);
            self.consumed = 0;
        }
        self.buf.extend_from_slice(bytes);
    }

    /// Decode the next complete frame, if one has fully arrived. Errors
    /// are unrecoverable for the connection: framing is lost once a body
    /// fails to parse or a length prefix lies.
    pub fn next_frame(&mut self) -> Result<Option<Frame>, ProtoError> {
        let pending = &self.buf[self.consumed..];
        let Ok(body_len) = Reader::new(pending).u32() else {
            return Ok(None);
        };
        if body_len > self.max_frame {
            return Err(ProtoError::FrameTooLarge {
                len: body_len,
                max: self.max_frame,
            });
        }
        let total = 4 + body_len as usize;
        if pending.len() < total {
            return Ok(None);
        }
        let frame = decode_body(&pending[4..total])?;
        self.consumed += total;
        Ok(Some(frame))
    }

    /// Bytes buffered but not yet consumed by a yielded frame.
    pub fn pending_len(&self) -> usize {
        self.buf.len() - self.consumed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ps3_query::{AggExpr, Clause, CmpOp, Predicate, Query, ScalarExpr, SketchQuery};
    use ps3_storage::ColId;

    fn sample_query() -> Query {
        Query::new(
            vec![
                AggExpr::sum(ScalarExpr::col(ColId(0)).mul(ScalarExpr::col(ColId(1)))),
                AggExpr::count(),
                AggExpr::avg(ScalarExpr::col(ColId(1)).add(ScalarExpr::Literal(2.5))).filtered(
                    Predicate::Clause(Clause::Cmp {
                        col: ColId(0),
                        op: CmpOp::Ge,
                        value: -3.25,
                    }),
                ),
            ],
            Some(Predicate::And(vec![
                Predicate::Or(vec![
                    Predicate::Clause(Clause::Cmp {
                        col: ColId(1),
                        op: CmpOp::Lt,
                        value: 9.5,
                    }),
                    Predicate::Clause(Clause::In {
                        col: ColId(2),
                        values: vec!["aa".into(), "bb".into()],
                        negated: true,
                    }),
                ]),
                Predicate::Not(Box::new(Predicate::Clause(Clause::Contains {
                    col: ColId(2),
                    needle: "x".into(),
                    negated: false,
                }))),
            ])),
            vec![ColId(2), ColId(0)],
        )
    }

    /// An answer with `groups`, in any order.
    fn answer(groups: &[(&[u64], &[f64])]) -> QueryAnswer {
        let groups = groups
            .iter()
            .map(|(k, v)| (GroupKey((*k).into()), v.to_vec()));
        QueryAnswer {
            groups: groups.collect(),
        }
    }

    /// Answer metadata with a zero picker latency.
    fn meta(
        partitions_read: u32,
        planned_frac: f64,
        exact: bool,
        error: ErrorEstimate,
    ) -> AnswerMeta {
        AnswerMeta {
            partitions_read,
            picker_ms: 0.0,
            error_estimate: error,
            planned_frac,
            exact,
        }
    }

    /// A plain request for `query`: id 1, default route, PS3, fraction
    /// 0.25, seed 1, not progressive.
    fn request(query: impl Into<QuerySpec>) -> RequestFrame {
        RequestFrame {
            request_id: 1,
            table: None,
            method: Method::Ps3,
            budget: Budget::Fraction(0.25),
            seed: 1,
            progressive: false,
            query: query.into(),
        }
    }

    #[test]
    fn request_frames_roundtrip_bit_exactly() {
        let frame = Frame::Request(RequestFrame {
            request_id: 0xDEAD_BEEF_0BAD_F00D,
            table: Some("lineitem".into()),
            method: Method::Ps3,
            budget: Budget::Fraction(0.125),
            seed: 42,
            progressive: true,
            query: sample_query().into(),
        });
        let wire = encode_frame(&frame).expect("encodes");
        let decoded = decode_body(&wire[4..]).expect("decode");
        assert_eq!(decoded, frame);
        // The length prefix covers exactly the body.
        let len = u32::from_le_bytes(wire[..4].try_into().unwrap()) as usize;
        assert_eq!(len, wire.len() - 4);
    }

    #[test]
    fn declarative_budgets_roundtrip() {
        for budget in [
            Budget::ErrorTarget { rel_err: 0.05 },
            Budget::LatencyTarget { ms: 4.5 },
            Budget::Fraction(0.3),
        ] {
            let frame = Frame::Request(RequestFrame {
                budget,
                ..request(sample_query())
            });
            let wire = encode_frame(&frame).expect("encodes");
            assert_eq!(decode_body(&wire[4..]).expect("decode"), frame);
        }
    }

    fn sample_sketch_queries() -> Vec<SketchQuery> {
        let pred = Predicate::Clause(Clause::Cmp {
            col: ColId(1),
            op: CmpOp::Lt,
            value: 9.5,
        });
        vec![
            SketchQuery::percentile(ColId(0), 0.5),
            SketchQuery::percentile(ColId(0), 1.0).filtered(pred.clone()),
            SketchQuery::distinct(ColId(2)),
            SketchQuery::top_k(ColId(2), 5).filtered(pred),
        ]
    }

    #[test]
    fn sketch_requests_roundtrip() {
        for (i, sq) in sample_sketch_queries().into_iter().enumerate() {
            let frame = Frame::Request(RequestFrame {
                request_id: i as u64,
                table: Some("t".into()),
                ..request(sq)
            });
            let wire = encode_frame(&frame).expect("encodes");
            assert_eq!(wire[4], PROTO_VERSION, "version byte");
            assert_eq!(decode_body(&wire[4..]).expect("decode"), frame);
        }
    }

    /// One query touching every `Clause`/`CmpOp`/`BinOp`/`AggFunc` variant
    /// under a nested NOT/OR.
    fn every_variant_query() -> Query {
        let cmp = |col, op, value| Predicate::Clause(Clause::Cmp { col, op, value });
        let text = |negated| {
            Predicate::Clause(Clause::Contains {
                col: ColId(3),
                needle: "né".into(),
                negated,
            })
        };
        Query::new(
            vec![
                AggExpr::sum(
                    ScalarExpr::col(ColId(0))
                        .add(ScalarExpr::Literal(-0.0))
                        .sub(ScalarExpr::col(ColId(1)))
                        .mul(ScalarExpr::Literal(1e300))
                        .div(ScalarExpr::col(ColId(7))),
                ),
                AggExpr::count().filtered(Predicate::Not(Box::new(text(true)))),
                AggExpr::avg(ScalarExpr::col(ColId(1))),
            ],
            Some(Predicate::Not(Box::new(Predicate::Or(vec![
                Predicate::And(vec![
                    cmp(ColId(0), CmpOp::Eq, 1.0),
                    cmp(ColId(1), CmpOp::Ne, -2.5),
                    cmp(ColId(2), CmpOp::Lt, f64::INFINITY),
                ]),
                Predicate::Not(Box::new(Predicate::Or(vec![
                    cmp(ColId(0), CmpOp::Le, 0.0),
                    cmp(ColId(1), CmpOp::Gt, 7.0),
                    cmp(ColId(2), CmpOp::Ge, 1e-9),
                ]))),
                Predicate::Clause(Clause::In {
                    col: ColId(3),
                    values: vec![String::new(), "a".into(), "bc".into()],
                    negated: false,
                }),
                text(false),
                Predicate::And(vec![]),
            ])))),
            vec![ColId(3), ColId(0)],
        )
    }

    /// The referee for "the wire did not move": the FNV-1a digest of
    /// `encode_frame` over a fixed request list, recorded before the `Query`
    /// grammar moved to `ps3_query::codec`.
    #[test]
    fn request_wire_bytes_match_the_recorded_digest() {
        let mut specs: Vec<QuerySpec> = vec![sample_query().into()];
        specs.extend(sample_sketch_queries().into_iter().map(QuerySpec::from));
        specs.push(every_variant_query().into());
        let mut wire = Vec::new();
        let mut frames = 0u64;
        for spec in &specs {
            for budget in [
                Budget::Fraction(0.125),
                Budget::ErrorTarget { rel_err: 0.05 },
                Budget::LatencyTarget { ms: 4.5 },
            ] {
                for progressive in [false, true] {
                    frames += 1;
                    let frame = Frame::Request(RequestFrame {
                        request_id: frames,
                        table: Some("lineitem".into()),
                        budget,
                        progressive,
                        ..request(spec.clone())
                    });
                    wire.extend(encode_frame(&frame).expect("encodes"));
                }
            }
        }
        assert_eq!(frames, 36);
        let digest = ps3_storage::format::fnv1a(&wire);
        assert_eq!(digest, 0xB2EC_DCB6_BF5D_BE37, "request bytes moved");
    }

    #[test]
    fn sketch_answers_roundtrip() {
        let mut q = ps3_sketch::QuantileSketch::new();
        for i in 0..200 {
            q.insert(f64::from(i) * 0.5);
        }
        let frame = ResponseFrame {
            request_id: 9,
            answer: answer(&[(&[], &[49.75])]),
            meta: meta(4, 1.0, false, ErrorEstimate::no_signal(1)),
            sketch: Some(AnswerSketch::Quantile(q)),
        };
        let wire = encode_frame(&Frame::Response(frame.clone())).expect("encodes");
        let Frame::Response(decoded) = decode_body(&wire[4..]).expect("decode") else {
            panic!("wrong kind");
        };
        // The merged sketch survives the wire bit-exactly.
        assert_eq!(decoded, frame);
    }

    #[test]
    fn hostile_sketch_params_are_rejected_not_panics() {
        // Which parameters and tags the grammar refuses is held beside it
        // (`ps3_query`'s codec properties). Here: a refusal crosses
        // `decode_body` as the same typed error, variant and payload intact.
        let frame = Frame::Request(request(SketchQuery::percentile(ColId(0), 0.5)));
        let wire = encode_frame(&frame).expect("encodes");
        // Body: version kind id(8) route method budget(1+8) seed(8) flags
        // → spec tag at body offset 30, func tag at 31, p bits at 32..40.
        let p_off = 4 + 32;
        let mut bad_p = wire.clone();
        bad_p[p_off..p_off + 8].copy_from_slice(&2.0f64.to_bits().to_le_bytes());
        assert_eq!(
            decode_body(&bad_p[4..]),
            Err(ProtoError::Invalid("percentile fraction must be in [0, 1]")),
        );
        let mut bad_spec = wire;
        bad_spec[4 + 30] = 7;
        assert_eq!(
            decode_body(&bad_spec[4..]),
            Err(ProtoError::BadTag {
                what: "query spec",
                tag: 7
            }),
        );
    }

    #[test]
    fn corrupt_sketch_blobs_are_invalid_not_panics() {
        let frame = ResponseFrame {
            request_id: 2,
            answer: QueryAnswer::default(),
            meta: meta(1, 1.0, true, ErrorEstimate::exact_for(0)),
            sketch: Some(AnswerSketch::Distinct(ps3_sketch::DistinctSketch::new())),
        };
        let wire = encode_frame(&Frame::Response(frame)).expect("encodes");
        // Flip every byte of the body once; each decode errors or succeeds,
        // never panics.
        for pos in 4..wire.len() {
            let mut bad = wire.clone();
            bad[pos] ^= 0xFF;
            let _ = decode_body(&bad[4..]);
        }
        // A poisoned blob tag is the codec's typed BadTag. Body: header(10)
        // rows(6) partitions_read(4) picker_ms(8) planned_frac(8) exact(1)
        // rel_err(8) n_errs(2) has_sketch(1) blob_len(4) → tag at 52.
        let mut bad = wire.clone();
        assert_eq!(bad[4 + 52], ps3_sketch::codec::tags::DISTINCT);
        bad[4 + 52] = 0xEE;
        let (what, tag) = ("answer sketch", 0xEE);
        assert_eq!(
            decode_body(&bad[4..]),
            Err(ProtoError::BadTag { what, tag })
        );
        // Truncating inside the blob is Truncated, not a panic.
        for cut in 4..wire.len() {
            let _ = decode_body(&wire[4..cut]);
        }
    }

    #[test]
    fn partial_frames_roundtrip_bit_exactly() {
        let frame = Frame::Partial(PartialFrame {
            request_id: 0xFEED,
            update: ProgressUpdate {
                seq: 2,
                partitions_done: 6,
                partitions_total: 8,
                answer: answer(&[(&[1], &[3.5, -0.0]), (&[2], &[f64::NAN, 4.0])]),
                rel_err: 0.125,
            },
        });
        let wire = encode_frame(&frame).expect("encodes");
        let Frame::Partial(decoded) = decode_body(&wire[4..]).expect("decode") else {
            panic!("wrong kind");
        };
        let update = decoded.update;
        assert_eq!(decoded.request_id, 0xFEED);
        assert_eq!(
            (update.seq, update.partitions_done, update.partitions_total),
            (2, 6, 8)
        );
        assert_eq!(update.rel_err, 0.125);
        assert_eq!(update.answer.num_groups(), 2);
        let nan = update.answer.groups[&GroupKey(Box::new([2]))][0];
        assert_eq!(nan.to_bits(), f64::NAN.to_bits());
    }

    #[test]
    fn response_frames_roundtrip_and_rebuild_the_answer() {
        let error = ErrorEstimate {
            per_agg: vec![
                AggError {
                    ci_half_width: 3.0,
                    rel_err: 0.1,
                },
                AggError::no_signal(),
                AggError {
                    ci_half_width: 0.5,
                    rel_err: 0.02,
                },
            ],
            rel_err: 0.1,
        };
        let frame = ResponseFrame {
            request_id: 7,
            answer: answer(&[
                (&[], &[1.5, f64::NAN.to_bits() as f64, -0.0]),
                (&[3, 9], &[2.0, 4.0, 8.0]),
            ]),
            meta: AnswerMeta {
                picker_ms: 0.25,
                ..meta(12, 0.2, false, error)
            },
            sketch: None,
        };
        let wire = encode_frame(&Frame::Response(frame.clone())).expect("encodes");
        let Frame::Response(decoded) = decode_body(&wire[4..]).expect("decode") else {
            panic!("wrong kind");
        };
        assert_eq!(decoded, frame);
        assert_eq!(decoded.to_meta(), frame.meta);
        let answer = decoded.to_answer();
        assert_eq!(answer.num_groups(), 2);
        assert_eq!(
            answer.groups[&GroupKey(vec![3, 9].into_boxed_slice())],
            vec![2.0, 4.0, 8.0]
        );
    }

    /// A response and a partial frame carrying `answer`.
    fn answer_frames(answer: QueryAnswer) -> [Frame; 2] {
        let update = ProgressUpdate {
            seq: 0,
            partitions_done: 1,
            partitions_total: 2,
            answer: answer.clone(),
            rel_err: 0.5,
        };
        [
            Frame::Response(ResponseFrame {
                request_id: 5,
                answer,
                meta: meta(2, 0.5, false, ErrorEstimate::no_signal(1)),
                sketch: None,
            }),
            Frame::Partial(PartialFrame {
                request_id: 5,
                update,
            }),
        ]
    }

    /// Row blocks a server never writes — rows out of key order, or one key
    /// twice — are refused: the answer they would build encodes to other
    /// bytes.
    #[test]
    fn rows_out_of_key_order_or_repeated_are_invalid() {
        let frames = answer_frames(answer(&[(&[1], &[3.5]), (&[2], &[4.0])]));
        // The row block starts after the header (10 bytes), and for a
        // partial after seq/done/total (12 more); then n_aggs(2) n_rows(4),
        // and per row key_words(2) key(8) value(8).
        for (frame, block) in frames.into_iter().zip([10, 22]) {
            let wire = encode_frame(&frame).expect("encodes");
            assert_eq!(decode_body(&wire[4..]), Ok(frame));
            let (first, second) = (4 + block + 8, 4 + block + 26);
            let with_keys = |a: u64, b: u64| {
                let mut bad = wire.clone();
                bad[first..first + 8].copy_from_slice(&a.to_le_bytes());
                bad[second..second + 8].copy_from_slice(&b.to_le_bytes());
                bad
            };
            for bad in [with_keys(2, 1), with_keys(1, 1)] {
                assert_eq!(
                    decode_body(&bad[4..]),
                    Err(ProtoError::Invalid(
                        "answer rows not strictly ascending by key"
                    ))
                );
            }
        }
    }

    /// A group with a different value count than the first would decode as
    /// a different answer, so it refuses to encode and leaves no bytes.
    #[test]
    fn ragged_answers_refuse_to_encode() {
        for frame in answer_frames(answer(&[(&[1], &[1.0, 2.0]), (&[2], &[3.0])])) {
            let mut out = vec![0xAA];
            assert_eq!(
                encode_frame_at_into(&frame, PROTO_VERSION, &mut out),
                Err(ProtoError::Invalid(
                    "answer groups carry different value counts"
                ))
            );
            assert_eq!(out, [0xAA], "a refused frame leaves no bytes behind");
        }
    }

    #[test]
    fn nan_and_negative_zero_survive_the_wire_bit_exactly() {
        let weird = f64::from_bits(0x7FF8_0000_0000_1234); // NaN with payload
        let key = [(-0.0f64).to_bits()];
        let frame = Frame::Response(ResponseFrame {
            request_id: 1,
            answer: answer(&[(&key, &[weird, -0.0])]),
            meta: meta(0, 0.1, false, ErrorEstimate::no_signal(2)),
            sketch: None,
        });
        let wire = encode_frame(&frame).expect("encodes");
        let Frame::Response(decoded) = decode_body(&wire[4..]).unwrap() else {
            panic!("wrong kind");
        };
        let values = &decoded.answer.groups[&GroupKey(Box::new(key))];
        assert_eq!(values[0].to_bits(), weird.to_bits());
        assert_eq!(values[1].to_bits(), (-0.0f64).to_bits());
    }

    #[test]
    fn error_frames_roundtrip() {
        let frame = Frame::Error(ErrorFrame {
            request_id: 99,
            code: ErrorCode::QueueFull,
            message: "request queue is full".into(),
        });
        let wire = encode_frame(&frame).expect("encodes");
        assert_eq!(decode_body(&wire[4..]).unwrap(), frame);
    }

    #[test]
    fn version_and_kind_mismatches_are_rejected() {
        let frame = Frame::Error(ErrorFrame {
            request_id: 0,
            code: ErrorCode::Internal,
            message: String::new(),
        });
        // One dialect: the retired versions are refused exactly like one
        // that never existed, in both directions.
        for version in [0, 1, 2, 4, 9] {
            let mut wire = encode_frame(&frame).expect("encodes");
            wire[4] = version;
            assert_eq!(
                decode_body(&wire[4..]),
                Err(ProtoError::BadVersion(version))
            );
            let mut out = vec![0xAA];
            assert_eq!(
                encode_frame_at_into(&frame, version, &mut out),
                Err(ProtoError::BadVersion(version))
            );
            assert_eq!(out, [0xAA], "a refused frame leaves no bytes behind");
        }
        let mut wire = encode_frame(&frame).expect("encodes");
        wire[5] = 200; // kind byte
        assert_eq!(decode_body(&wire[4..]), Err(ProtoError::BadKind(200)));
    }

    #[test]
    fn truncated_bodies_and_garbage_tags_error_instead_of_panicking() {
        let frame = Frame::Request(request(sample_query()));
        let wire = encode_frame(&frame).expect("encodes");
        // Every proper prefix of the body either truncates or (rarely, if a
        // prefix happens to end on a field boundary) parses; it never panics.
        for cut in 0..wire.len() - 4 {
            let _ = decode_body(&wire[4..4 + cut]);
        }
        // Garbage at every byte position decodes or errors, never panics.
        for pos in 4..wire.len() {
            let mut bad = wire.clone();
            bad[pos] ^= 0xFF;
            let _ = decode_body(&bad[4..]);
        }
    }

    #[test]
    fn frame_buffer_reassembles_across_arbitrary_splits() {
        let frames = [
            Frame::Request(request(sample_query())),
            Frame::Error(ErrorFrame {
                request_id: 2,
                code: ErrorCode::Shutdown,
                message: "bye".into(),
            }),
        ];
        let mut wire = Vec::new();
        for f in &frames {
            wire.extend_from_slice(&encode_frame(f).expect("encodes"));
        }
        // Feed the stream one byte at a time; both frames must reassemble.
        let mut buf = FrameBuffer::new(DEFAULT_MAX_FRAME);
        let mut got = Vec::new();
        for b in &wire {
            buf.push(std::slice::from_ref(b));
            while let Some(frame) = buf.next_frame().expect("clean stream") {
                got.push(frame);
            }
        }
        assert_eq!(got.as_slice(), frames.as_slice());
        assert_eq!(buf.pending_len(), 0);
    }

    #[test]
    fn values_too_large_for_their_length_fields_refuse_to_encode() {
        // A needle longer than a u16 length field must error, not truncate
        // into a frame that decodes to a different query.
        let huge = Frame::Request(request(Query::new(
            vec![AggExpr::count()],
            Some(Predicate::Clause(Clause::Contains {
                col: ColId(0),
                needle: "x".repeat(70_000),
                negated: false,
            })),
            vec![],
        )));
        assert!(matches!(encode_frame(&huge), Err(ProtoError::Invalid(_))));

        let wide_in = Frame::Request(request(Query::new(
            vec![AggExpr::count()],
            Some(Predicate::Clause(Clause::In {
                col: ColId(0),
                values: (0..70_000).map(|i| i.to_string()).collect(),
                negated: false,
            })),
            vec![],
        )));
        assert!(matches!(
            encode_frame(&wide_in),
            Err(ProtoError::Invalid(_))
        ));
    }

    #[test]
    fn oversized_length_prefix_is_refused_before_buffering() {
        let mut buf = FrameBuffer::new(1024);
        buf.push(&(4096u32).to_le_bytes());
        assert_eq!(
            buf.next_frame(),
            Err(ProtoError::FrameTooLarge {
                len: 4096,
                max: 1024
            })
        );
    }

    #[test]
    fn trailing_bytes_after_known_fields_are_ignored() {
        // Forward-compat: a future minor revision may append fields.
        let frame = Frame::Error(ErrorFrame {
            request_id: 3,
            code: ErrorCode::Internal,
            message: "m".into(),
        });
        let mut wire = encode_frame(&frame).expect("encodes");
        wire.extend_from_slice(&[0xAB, 0xCD]); // future fields
        let len = (wire.len() - 4) as u32;
        wire[..4].copy_from_slice(&len.to_le_bytes());
        assert_eq!(decode_body(&wire[4..]).unwrap(), frame);
    }

    #[test]
    fn request_frame_round_trips_through_query_request() {
        let req = QueryRequest::ps3(sample_query(), 0.1, 1)
            .on_table("events")
            .with_error_target(0.05)
            .progressive();
        let frame = RequestFrame::from_request(17, &req).expect("named routes encode");
        let rebuilt = frame.into_query_request();
        assert_eq!(rebuilt.query, req.query);
        assert_eq!(rebuilt.table, req.table);
        assert_eq!(rebuilt.seed, req.seed);
        assert_eq!(rebuilt.budget, Budget::ErrorTarget { rel_err: 0.05 });
        assert!(rebuilt.progressive);
        // Id routes are router-local and refuse to encode; the refusal is
        // exercised end-to-end in tests/net_serving.rs where a real router
        // can mint one.
    }

    #[test]
    fn unknown_budget_tags_and_flag_bits_are_rejected() {
        let frame = Frame::Request(request(Query::new(vec![AggExpr::count()], None, vec![])));
        let wire = encode_frame(&frame).expect("encodes");
        // Body layout: version, kind, id(8), table tag, method → budget tag
        // at body offset 12, flags at offset 29 (tag + f64 + seed after it).
        let mut bad_tag = wire.clone();
        bad_tag[4 + 12] = 9;
        assert_eq!(
            decode_body(&bad_tag[4..]),
            Err(ProtoError::BadTag {
                what: "budget",
                tag: 9
            }),
        );
        let mut bad_flags = wire;
        bad_flags[4 + 29] = 0x80;
        assert_eq!(
            decode_body(&bad_flags[4..]),
            Err(ProtoError::Invalid("unknown request flag bits")),
        );
    }
}
