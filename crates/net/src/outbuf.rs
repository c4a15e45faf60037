//! Per-connection outbound frame queue with buffer reuse and vectored
//! flush.
//!
//! The serving hot path encodes one frame per answer; doing that into a
//! fresh `Vec` per frame made the allocator a per-response cost. An
//! [`OutBuf`] instead keeps a pool of recycled encode buffers per
//! connection: each queued frame is encoded into a recycled buffer via
//! [`encode_frame_at_into`](crate::proto::encode_frame_at_into), and a
//! flush hands the whole queue to the kernel with one
//! [`writev_fd`](ps3_runtime::poll::writev_fd) gather write. Partial
//! writes are resumed from a cursor over the head frame; fully-written
//! buffers go back to the pool. The `fresh_allocs` counter exists so a
//! test can assert the steady state allocates nothing per frame.
//!
//! The encode step enforces the outbound frame cap: a frame that exceeds
//! it (or fails to encode — an over-wide group key, an overlong message)
//! degrades to a typed [`ErrorCode::FrameTooLarge`] refusal for the same
//! request id instead of wedging the client, whose `FrameBuffer` would
//! reject the oversized length prefix and lose framing permanently. The
//! refusal itself is a small constant-size frame (well under any sane cap,
//! and under every client's own limit).

#![cfg(unix)]

use std::collections::VecDeque;
use std::io;
use std::os::unix::io::RawFd;

use ps3_runtime::poll::{writev_fd, IOV_BATCH};

use crate::proto::{encode_frame_at_into, ErrorCode, ErrorFrame, Frame, PROTO_VERSION};

/// Recycled encode buffers kept per connection. A connection's queue
/// depth is bounded by its in-flight quota (default 64); keeping half
/// that many spares covers bursts without hoarding.
const MAX_SPARE: usize = 32;

/// Buffers that grew beyond this capacity are dropped instead of
/// recycled, so one huge answer does not pin its allocation for the
/// connection's lifetime.
const MAX_SPARE_CAPACITY: usize = 256 * 1024;

/// Outbound side of one connection: encoded frames awaiting the socket.
#[derive(Debug, Default)]
pub(crate) struct OutBuf {
    /// Encoded frames in send order; the head may be partially written.
    queue: VecDeque<Vec<u8>>,
    /// Bytes of the head frame already accepted by the socket.
    head_written: usize,
    /// Bytes queued and not yet written.
    pending: usize,
    /// Recycled encode buffers.
    spare: Vec<Vec<u8>>,
    /// Buffers allocated because no spare was available — the churn
    /// metric the steady-state test pins to zero.
    fresh_allocs: u64,
}

impl OutBuf {
    pub(crate) fn new() -> OutBuf {
        OutBuf::default()
    }

    /// Queue `frame` for delivery, degrading over-cap frames to typed
    /// refusals (see the module docs). Reuses a spare buffer when one is
    /// available; the allocation only happens while the connection is
    /// still growing its pool.
    pub(crate) fn push_frame(&mut self, frame: &Frame, max_frame: u32) {
        let mut buf = match self.spare.pop() {
            Some(b) => b,
            None => {
                self.fresh_allocs += 1;
                Vec::with_capacity(256)
            }
        };
        encode_outbound_into(frame, max_frame, &mut buf);
        self.pending += buf.len();
        self.queue.push_back(buf);
    }

    /// True while bytes are queued — the poll loop's write-interest signal.
    pub(crate) fn has_pending(&self) -> bool {
        self.pending > 0
    }

    /// Fresh encode-buffer allocations over the connection's lifetime —
    /// observable only by the churn test; production code never reads it.
    #[cfg(test)]
    pub(crate) fn fresh_allocs(&self) -> u64 {
        self.fresh_allocs
    }

    /// Gather-write the whole queue to `fd` with as few `writev(2)` calls
    /// as it takes (one, in the common case). Returns `Ok(true)` when the
    /// queue drained, `Ok(false)` when the socket stopped accepting bytes
    /// (`WouldBlock` — the cursor remembers where to resume), and `Err`
    /// when the connection is unusable.
    pub(crate) fn flush(&mut self, fd: RawFd) -> io::Result<bool> {
        while !self.queue.is_empty() {
            let mut iov: Vec<&[u8]> = Vec::with_capacity(self.queue.len().min(IOV_BATCH));
            let mut frames = self.queue.iter();
            let head = frames.next().expect("non-empty queue has a head");
            iov.push(&head[self.head_written..]);
            iov.extend(frames.take(IOV_BATCH - 1).map(Vec::as_slice));
            match writev_fd(fd, &iov) {
                Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
                Ok(n) => self.advance(n),
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(false),
                Err(e) => return Err(e),
            }
        }
        Ok(true)
    }

    /// Account `n` written bytes: retire fully-sent frames into the spare
    /// pool and move the cursor within the frame the write stopped in.
    fn advance(&mut self, mut n: usize) {
        self.pending -= n;
        while n > 0 {
            let head_left = self.queue[0].len() - self.head_written;
            if n < head_left {
                self.head_written += n;
                return;
            }
            n -= head_left;
            self.head_written = 0;
            let mut buf = self.queue.pop_front().expect("accounted frame exists");
            if self.spare.len() < MAX_SPARE && buf.capacity() <= MAX_SPARE_CAPACITY {
                buf.clear();
                self.spare.push(buf);
            }
        }
    }
}

/// Encode a server→client frame into `buf` (cleared first), enforcing the
/// outbound frame cap by degrading to an [`ErrorCode::FrameTooLarge`]
/// refusal — see the module docs.
pub(crate) fn encode_outbound_into(frame: &Frame, max_frame: u32, buf: &mut Vec<u8>) {
    buf.clear();
    match encode_frame_at_into(frame, PROTO_VERSION, buf) {
        Ok(()) if buf.len() - 4 <= max_frame as usize => {}
        _ => {
            buf.clear();
            let request_id = match frame {
                Frame::Request(f) => f.request_id,
                Frame::Response(f) => f.request_id,
                Frame::Partial(f) => f.request_id,
                Frame::Error(f) => f.request_id,
            };
            let refusal = Frame::Error(ErrorFrame {
                request_id,
                code: ErrorCode::FrameTooLarge,
                message: "answer exceeds the response frame cap; \
                          narrow the query or raise max_frame"
                    .into(),
            });
            encode_frame_at_into(&refusal, PROTO_VERSION, buf)
                .expect("static error frames always encode");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::{decode_body, ResponseFrame, DEFAULT_MAX_FRAME};
    use ps3_core::{AnswerMeta, ErrorEstimate};
    use ps3_query::{GroupKey, QueryAnswer};
    use std::io::Read;
    use std::os::unix::io::AsRawFd;
    use std::os::unix::net::UnixStream;

    fn encode_outbound(frame: &Frame, max_frame: u32) -> Vec<u8> {
        let mut buf = Vec::new();
        encode_outbound_into(frame, max_frame, &mut buf);
        buf
    }

    /// A response with one group per key in `keys`, each carrying
    /// `values(key)`.
    fn response(
        request_id: u64,
        keys: std::ops::Range<u64>,
        values: impl Fn(u64) -> Vec<f64>,
    ) -> ResponseFrame {
        let answer = QueryAnswer {
            groups: keys.map(|k| (GroupKey(Box::new([k])), values(k))).collect(),
        };
        let n_aggs = answer.groups.values().next().map_or(0, Vec::len);
        ResponseFrame {
            request_id,
            answer,
            meta: AnswerMeta {
                partitions_read: 1,
                picker_ms: 0.0,
                error_estimate: ErrorEstimate::no_signal(n_aggs),
                planned_frac: 0.5,
                exact: false,
            },
            sketch: None,
        }
    }

    #[test]
    fn over_cap_responses_degrade_to_a_typed_refusal() {
        // A response bigger than the outbound cap must become a decodable
        // FrameTooLarge error for the same request id — never an oversized
        // frame the client's FrameBuffer would choke on.
        let big = Frame::Response(response(42, 0..64, |i| vec![i as f64]));
        let wire = encode_outbound(&big, 64);
        let body_len = u32::from_le_bytes(wire[..4].try_into().unwrap());
        assert!(
            body_len < 128,
            "the refusal is a small constant-size frame any client \
             accepts (got {body_len} bytes)"
        );
        match decode_body(&wire[4..]).expect("refusal decodes") {
            Frame::Error(e) => {
                assert_eq!(e.code, ErrorCode::FrameTooLarge);
                assert_eq!(e.request_id, 42, "refusal keeps the correlation id");
            }
            other => panic!("expected error frame, got {other:?}"),
        }

        // Under the cap, the response passes through unchanged.
        let small = Frame::Response(response(7, 0..0, |_| vec![]));
        let wire = encode_outbound(&small, DEFAULT_MAX_FRAME);
        assert_eq!(decode_body(&wire[4..]).expect("decodes"), small);
    }

    #[test]
    fn steady_state_sends_frames_without_fresh_allocations() {
        // The whole point of OutBuf: after the pool warms up, pushing and
        // flushing frames recycles buffers instead of allocating. Blocking
        // sockets keep the flush deterministic (every writev completes).
        let (sender, mut receiver) = UnixStream::pair().unwrap();
        let mut out = OutBuf::new();
        let frame = Frame::Response(response(1, 0..0, |_| vec![]));

        let burst = 4;
        for _ in 0..burst {
            out.push_frame(&frame, DEFAULT_MAX_FRAME);
        }
        assert!(out.flush(sender.as_raw_fd()).unwrap());
        let warm = out.fresh_allocs();
        assert!(
            warm <= burst as u64,
            "at most one allocation per queued frame"
        );

        let mut sink = vec![0u8; 64 * 1024];
        for _ in 0..50 {
            for _ in 0..burst {
                out.push_frame(&frame, DEFAULT_MAX_FRAME);
            }
            assert!(out.flush(sender.as_raw_fd()).unwrap());
            // Keep the socket buffer empty so blocking writes never stall
            // (a short read is fine — draining is all that matters here).
            let drained = receiver.read(&mut sink).unwrap();
            assert!(drained > 0, "the flush above wrote bytes");
        }
        assert_eq!(
            out.fresh_allocs(),
            warm,
            "steady-state frames must reuse pooled encode buffers"
        );
    }

    #[test]
    fn partial_writes_resume_at_the_cursor_byte_exactly() {
        // Stuff a nonblocking socket until WouldBlock, drain the peer,
        // resume — the receiver must see the exact queued byte stream.
        let (sender, mut receiver) = UnixStream::pair().unwrap();
        sender.set_nonblocking(true).unwrap();
        receiver.set_nonblocking(true).unwrap();

        let big = Frame::Response(response(3, 0..20_000, |i| vec![i as f64, -(i as f64)]));
        let mut expected = Vec::new();
        let mut out = OutBuf::new();
        for _ in 0..4 {
            encode_frame_at_into(&big, PROTO_VERSION, &mut expected).unwrap();
            out.push_frame(&big, DEFAULT_MAX_FRAME);
        }

        let mut got = Vec::new();
        let mut chunk = vec![0u8; 96 * 1024];
        loop {
            let drained = out.flush(sender.as_raw_fd()).unwrap();
            match receiver.read(&mut chunk) {
                Ok(n) => got.extend_from_slice(&chunk[..n]),
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {}
                Err(e) => panic!("receiver: {e}"),
            }
            if drained && !out.has_pending() && got.len() == expected.len() {
                break;
            }
        }
        assert!(
            got == expected,
            "resumed writes must not skip or repeat bytes"
        );
    }
}
