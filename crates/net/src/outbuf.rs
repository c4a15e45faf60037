//! Per-connection outbound frame queue with buffer reuse and vectored
//! flush.
//!
//! The serving hot path encodes one frame per answer; doing that into a
//! fresh `Vec` per frame made the allocator a per-response cost. An
//! [`OutBuf`] instead keeps a pool of recycled encode buffers per
//! connection: each queued frame is encoded into a recycled buffer via
//! [`encode_frame_at_into`](crate::proto::encode_frame_at_into) — a reply
//! straight from the shared outcome it carries, so serving a cached answer
//! copies none of it — and a flush hands the whole queue to any [`Write`]
//! with one [`write_vectored`](Write::write_vectored) call (on a socket,
//! one `writev(2)` gather write). Partial writes are resumed from a cursor
//! over the head frame; fully-written buffers go back to the pool. The
//! `fresh_allocs` counter exists so a test can assert the steady state
//! allocates nothing per frame.
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
use std::io::{self, IoSlice, Write};

use ps3_core::AnswerOutcome;

use crate::proto::{
    encode_frame_at_into, encode_outcome_into, ErrorCode, ErrorFrame, Frame, ProtoError,
    PROTO_VERSION,
};

/// Recycled encode buffers kept per connection. A connection's queue
/// depth is bounded by its in-flight quota (default 64); keeping half
/// that many spares covers bursts without hoarding.
const MAX_SPARE: usize = 32;

/// Buffers that grew beyond this capacity are dropped instead of
/// recycled, so one huge answer does not pin its allocation for the
/// connection's lifetime.
const MAX_SPARE_CAPACITY: usize = 256 * 1024;

/// Most frames one `write_vectored` call is handed (Linux's `IOV_MAX` is
/// 1024); a longer queue takes another call.
const IOV_BATCH: usize = 64;

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
        let request_id = match frame {
            Frame::Request(f) => f.request_id,
            Frame::Response(f) => f.request_id,
            Frame::Partial(f) => f.request_id,
            Frame::Error(f) => f.request_id,
        };
        self.push_with(request_id, max_frame, |buf| {
            encode_frame_at_into(frame, PROTO_VERSION, buf)
        });
    }

    /// Queue the reply to `request_id` carrying `outcome`, encoded from the
    /// shared outcome itself: no copy of the answer, and into a warmed
    /// buffer no allocation at all. The bytes (and any over-cap refusal)
    /// are those [`push_frame`](Self::push_frame) queues for the owned
    /// `ResponseFrame::from_outcome(request_id, outcome)`.
    pub(crate) fn push_response(
        &mut self,
        request_id: u64,
        outcome: &AnswerOutcome,
        max_frame: u32,
    ) {
        self.push_with(request_id, max_frame, |buf| {
            encode_outcome_into(request_id, outcome, buf)
        });
    }

    /// Queue one frame written by `encode` into a recycled buffer. A frame
    /// over the outbound cap, or one that fails to encode, is replaced by
    /// an [`ErrorCode::FrameTooLarge`] refusal for `request_id` (see the
    /// module docs).
    fn push_with(
        &mut self,
        request_id: u64,
        max_frame: u32,
        encode: impl FnOnce(&mut Vec<u8>) -> Result<(), ProtoError>,
    ) {
        // Spares are recycled empty, so the frame starts at byte 0.
        let mut buf = match self.spare.pop() {
            Some(b) => b,
            None => {
                self.fresh_allocs += 1;
                Vec::with_capacity(256)
            }
        };
        match encode(&mut buf) {
            Ok(()) if buf.len() - 4 <= max_frame as usize => {}
            _ => {
                buf.clear();
                let refusal = Frame::Error(ErrorFrame {
                    request_id,
                    code: ErrorCode::FrameTooLarge,
                    message: "answer exceeds the response frame cap; \
                              narrow the query or raise max_frame"
                        .into(),
                });
                encode_frame_at_into(&refusal, PROTO_VERSION, &mut buf)
                    .expect("static error frames always encode");
            }
        }
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

    /// Gather-write the whole queue to `w` with as few `write_vectored`
    /// calls as it takes (one, in the common case). Returns `Ok(true)` when
    /// the queue drained, `Ok(false)` when the writer stopped accepting
    /// bytes (`WouldBlock` — the cursor remembers where to resume), and
    /// `Err` when the connection is unusable. `Interrupted` retries.
    pub(crate) fn flush(&mut self, mut w: impl Write) -> io::Result<bool> {
        while let Some(head) = self.queue.front() {
            let iov: Vec<IoSlice> = std::iter::once(&head[self.head_written..])
                .chain(self.queue.iter().skip(1).map(Vec::as_slice))
                .take(IOV_BATCH)
                .map(IoSlice::new)
                .collect();
            match w.write_vectored(&iov) {
                Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
                Ok(n) => self.advance(n),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::{decode_body, encode_frame, ResponseFrame, DEFAULT_MAX_FRAME};
    use ps3_core::{AggError, AnswerMeta, ErrorEstimate};
    use ps3_query::{GroupKey, QueryAnswer};
    use ps3_sketch::{AnswerSketch, QuantileSketch};
    use std::alloc::{GlobalAlloc, Layout, System};
    use std::cell::Cell;
    use std::io::Read;
    use std::os::unix::net::UnixStream;

    /// The system allocator, counting the calling thread's allocations and
    /// reallocations apart (the test harness runs each test on a thread of
    /// its own).
    struct Counting;

    thread_local! {
        static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
        static REALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    }

    // SAFETY: every call is forwarded unchanged to `System`; the counters
    // are const-initialised thread-local `Cell`s with no destructor, so
    // touching them neither allocates nor runs after thread teardown.
    unsafe impl GlobalAlloc for Counting {
        unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
            ALLOCATIONS.with(|n| n.set(n.get() + 1));
            System.alloc(layout)
        }

        unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
            System.dealloc(ptr, layout)
        }

        unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
            REALLOCATIONS.with(|n| n.set(n.get() + 1));
            System.realloc(ptr, layout, new_size)
        }
    }

    #[global_allocator]
    static GLOBAL: Counting = Counting;

    /// Allocations and reallocations one closure made.
    #[derive(Debug, PartialEq, Eq)]
    struct Counts {
        allocs: u64,
        reallocs: u64,
    }

    fn allocations_in(f: impl FnOnce()) -> Counts {
        let now = || (ALLOCATIONS.with(Cell::get), REALLOCATIONS.with(Cell::get));
        let (allocs, reallocs) = now();
        f();
        let (allocs_after, reallocs_after) = now();
        Counts {
            allocs: allocs_after - allocs,
            reallocs: reallocs_after - reallocs,
        }
    }

    /// The bytes `push` queues on a fresh buffer, as one frame.
    fn queued(push: impl FnOnce(&mut OutBuf)) -> Vec<u8> {
        let mut out = OutBuf::new();
        push(&mut out);
        assert_eq!(out.queue.len(), 1, "one push queues one frame");
        out.queue.pop_front().expect("queued frame")
    }

    fn encode_outbound(frame: &Frame, max_frame: u32) -> Vec<u8> {
        queued(|out| out.push_frame(frame, max_frame))
    }

    /// An executed outcome with the given groups (every group carrying
    /// `n_aggs` values), per-aggregate error estimates and sketch.
    fn outcome(
        groups: impl IntoIterator<Item = (Vec<u64>, Vec<f64>)>,
        sketch: Option<AnswerSketch>,
    ) -> AnswerOutcome {
        let answer = QueryAnswer {
            groups: groups
                .into_iter()
                .map(|(k, v)| (GroupKey(k.into()), v))
                .collect(),
        };
        let n_aggs = answer.groups.values().next().map_or(0, Vec::len);
        AnswerOutcome {
            answer,
            selection: Vec::new(),
            meta: AnswerMeta {
                partitions_read: 13,
                picker_ms: 0.375,
                error_estimate: ErrorEstimate {
                    per_agg: (0..n_aggs)
                        .map(|i| AggError {
                            ci_half_width: 2.5 * i as f64,
                            rel_err: if i == 0 { f64::NAN } else { 0.125 },
                        })
                        .collect(),
                    rel_err: 0.125,
                },
                planned_frac: 0.1,
                exact: false,
            },
            sketch,
        }
    }

    /// A grouped outcome of `n` one-word keys, two aggregates each.
    fn grouped(n: u64) -> AnswerOutcome {
        outcome(
            (0..n).map(|k| (vec![k * 7], vec![k as f64, -0.5 * k as f64])),
            None,
        )
    }

    /// A response with one group per key in `keys`, each carrying
    /// `values(key)`.
    fn response(
        request_id: u64,
        keys: std::ops::Range<u64>,
        values: impl Fn(u64) -> Vec<f64>,
    ) -> ResponseFrame {
        let groups = keys.map(|k| (vec![k], values(k)));
        ResponseFrame::from_outcome(request_id, &outcome(groups, None))
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
        // sockets keep the flush deterministic (every write completes).
        let (sender, mut receiver) = UnixStream::pair().unwrap();
        let mut out = OutBuf::new();
        let frame = Frame::Response(response(1, 0..0, |_| vec![]));

        let burst = 4;
        for _ in 0..burst {
            out.push_frame(&frame, DEFAULT_MAX_FRAME);
        }
        assert!(out.flush(&sender).unwrap());
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
            assert!(out.flush(&sender).unwrap());
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
            let drained = out.flush(&sender).unwrap();
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

    /// A writer with every fault a socket can show: it accepts 1, 7 or
    /// 4,096 bytes per call in turn, and fails every 3rd call with
    /// `Interrupted` and every 5th with `WouldBlock`.
    #[derive(Default)]
    struct Faulty {
        calls: usize,
        accepted: usize,
        got: Vec<u8>,
    }

    impl Write for Faulty {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.write_vectored(&[IoSlice::new(buf)])
        }

        fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> io::Result<usize> {
            self.calls += 1;
            if self.calls.is_multiple_of(3) {
                return Err(io::ErrorKind::Interrupted.into());
            }
            if self.calls.is_multiple_of(5) {
                return Err(io::ErrorKind::WouldBlock.into());
            }
            let mut room = [1, 7, 4096][self.accepted % 3];
            self.accepted += 1;
            let before = self.got.len();
            for buf in bufs {
                let take = buf.len().min(room);
                self.got.extend_from_slice(&buf[..take]);
                room -= take;
                if room == 0 {
                    break;
                }
            }
            Ok(self.got.len() - before)
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn flush_rides_out_short_writes_interrupts_and_would_block() {
        // 70 frames outnumber one call's 64 slices; their sizes vary so
        // the short writes stop at every kind of offset.
        let mut out = OutBuf::new();
        let mut expected = Vec::new();
        for id in 0..70 {
            let frame = Frame::Response(response(id, 0..id % 9 * 5, |k| vec![k as f64]));
            encode_frame_at_into(&frame, PROTO_VERSION, &mut expected).unwrap();
            out.push_frame(&frame, DEFAULT_MAX_FRAME);
        }
        let mut w = Faulty::default();
        let mut would_block = 0;
        while !out.flush(&mut w).expect("faults are not errors") {
            would_block += 1;
            assert!(would_block < 10_000, "the flush must make progress");
        }
        assert!(!out.has_pending());
        assert!(w.got == expected, "the written bytes are the queued frames");
        assert!(would_block > 0 && w.calls >= 3, "every fault was injected");

        // A writer that takes nothing would spin the loop: it is an error.
        out.push_frame(
            &Frame::Response(response(70, 0..0, |_| vec![])),
            DEFAULT_MAX_FRAME,
        );
        let err = out.flush(&mut [0u8; 0][..]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::WriteZero);
    }

    #[test]
    fn served_replies_are_the_owned_frame_bytes() {
        // The server encodes straight from the shared outcome; a client
        // cannot tell: every byte is the owned `from_outcome` frame's.
        let mut quantile = QuantileSketch::new();
        for i in 0..200 {
            quantile.insert(f64::from(i) * 0.5);
        }
        let outcomes = [
            outcome([(vec![], vec![1.5, f64::NAN, -0.0])], None),
            outcome([], None),
            outcome([(vec![], vec![4.0]), (vec![3, u64::MAX], vec![-1.0])], None),
            grouped(20),
            outcome(
                [(vec![], vec![49.75])],
                Some(AnswerSketch::Quantile(quantile)),
            ),
        ];
        for (i, o) in outcomes.iter().enumerate() {
            let id = 1000 + i as u64;
            let owned = Frame::Response(ResponseFrame::from_outcome(id, o));
            let wire = queued(|out| out.push_response(id, o, DEFAULT_MAX_FRAME));
            assert_eq!(wire, encode_frame(&owned).unwrap(), "outcome {i}");
            // Over a cap the reply does not fit: the same refusal bytes.
            let cap = (wire.len() - 5) as u32;
            let refused = queued(|out| out.push_response(id, o, cap));
            assert_eq!(refused, encode_outbound(&owned, cap), "outcome {i} refused");
            let Frame::Error(e) = decode_body(&refused[4..]).unwrap() else {
                panic!("outcome {i}: an over-cap reply must be refused");
            };
            assert_eq!((e.code, e.request_id), (ErrorCode::FrameTooLarge, id));
        }
    }

    #[test]
    fn a_cached_reply_encodes_without_allocating() {
        // Counted, not timed: into a warmed buffer the served reply
        // allocates nothing, where the owned frame copies every group (a
        // boxed key and a value vector each, plus the map's nodes).
        const GROUPS: u64 = 20;
        let o = grouped(GROUPS);
        let mut out = OutBuf::new();
        out.push_response(1, &o, DEFAULT_MAX_FRAME);
        out.advance(out.pending);

        let served = allocations_in(|| out.push_response(2, &o, DEFAULT_MAX_FRAME));
        out.advance(out.pending);
        let owned = allocations_in(|| {
            let frame = Frame::Response(ResponseFrame::from_outcome(3, &o));
            out.push_frame(&frame, DEFAULT_MAX_FRAME);
        });
        let nothing = Counts {
            allocs: 0,
            reallocs: 0,
        };
        assert_eq!(
            served, nothing,
            "a served reply copies and allocates nothing"
        );
        assert!(
            owned.allocs >= 2 * GROUPS,
            "the owned frame allocates per group ({owned:?} for {GROUPS} groups)"
        );
    }

    #[test]
    fn a_reply_decodes_its_rows_at_exact_size() {
        // Counted, not timed: a row costs its boxed key and its value
        // vector, each allocated at its final length and never regrown or
        // shrunk. What remains is per reply: the row list, the map's nodes
        // and the per-aggregate error list.
        let decoded = |o: &AnswerOutcome| {
            let wire = encode_frame(&Frame::Response(ResponseFrame::from_outcome(7, o))).unwrap();
            let mut frame = None;
            let counts = allocations_in(|| frame = Some(decode_body(&wire[4..]).unwrap()));
            let frame = frame.expect("decoded");
            assert_eq!(
                encode_frame(&frame).unwrap(),
                wire,
                "the rows survive the wire"
            );
            counts
        };
        // 20 one-word keys, two values each: the row list, two leaves under
        // one root, and the error list.
        assert_eq!(
            decoded(&grouped(20)),
            Counts {
                allocs: 2 * 20 + 1 + 3 + 1,
                reallocs: 0
            }
        );
        // The empty key boxes nothing, `[3, u64::MAX]` one two-word slice;
        // three values each: the row list, one leaf, and the error list.
        let mixed = outcome(
            [
                (vec![], vec![4.0, f64::NAN, -0.0]),
                (vec![3, u64::MAX], vec![-1.0, 0.5, 2.0]),
            ],
            None,
        );
        assert_eq!(
            decoded(&mixed),
            Counts {
                allocs: 2 * 2 - 1 + 1 + 1 + 1,
                reallocs: 0
            }
        );
    }
}
