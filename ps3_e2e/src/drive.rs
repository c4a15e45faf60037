//! Load generators: a closed loop with a sliding window over `NetClient`,
//! and an open-loop scheduler that sends on the clock whatever the server
//! is doing.

use std::collections::HashMap;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::os::unix::io::AsRawFd;
use std::time::{Duration, Instant};

use ps3_net::proto::{
    encode_frame_at_into, Frame, FrameBuffer, RequestFrame, DEFAULT_MAX_FRAME, PROTO_VERSION,
};
use ps3_net::{ErrorCode, NetClient, RemoteAnswer, ServerReply};
use ps3_runtime::{poll_fds, Interest, PollEntry};

use crate::requests::{Req, Workload};
use crate::speed::Reference;
use crate::summary::mean;

/// How one request ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Status {
    /// An answer frame.
    Ok,
    /// `QueueFull` or `QuotaExhausted`: the server shed the request.
    Refused,
    /// Any other error frame.
    Errored,
}

impl Status {
    fn of(reply: &ServerReply) -> Status {
        match reply {
            ServerReply::Answer(_) => Status::Ok,
            ServerReply::Error(e)
                if matches!(e.code, ErrorCode::QueueFull | ErrorCode::QuotaExhausted) =>
            {
                Status::Refused
            }
            ServerReply::Error(_) => Status::Errored,
        }
    }
}

/// One measured request.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// When it was sent (closed loop) or due (open loop), ns from the start
    /// of the phase.
    pub start_ns: u64,
    /// Reply time minus `start_ns`.
    pub latency_us: f64,
    /// How it ended.
    pub status: Status,
}

impl Sample {
    /// When the reply arrived, ns from the start of the phase.
    pub fn end_ns(&self) -> u64 {
        self.start_ns + (self.latency_us * 1e3) as u64
    }
}

/// What a measured phase produced.
#[derive(Default)]
pub struct Phase {
    /// Every request, in list order.
    pub samples: Vec<Sample>,
    /// The answers to the first requests of the list (`record` of them), for
    /// the verify pass. `None` where the server did not answer.
    pub recorded: Vec<(Req, Option<RemoteAnswer>)>,
    /// Closed loop only: where each whole block of the list ends, as a count
    /// of requests sent.
    pub ends: Vec<usize>,
    /// What the reference work took each time it ran, in microseconds: after
    /// every block of a closed loop, before and after an open loop (the
    /// caller's job: the scheduler must keep to the clock).
    pub ref_us: Vec<f64>,
    /// Wall-clock of the phase, the reference work included.
    pub wall_s: f64,
    /// Wall-clock of the phase without the reference work.
    pub busy_s: f64,
    /// Open loop only: how late each send left, against its due time.
    pub late_us: Vec<f64>,
    /// Open loop only: false when the backlog was still growing at the end.
    pub valid: bool,
}

/// Send `reqs` one at a time and discard the answers (warm-up).
pub fn warm_up(client: &mut NetClient, workload: &Workload, reqs: &[Req]) {
    for &req in reqs {
        workload
            .with_request(req, |r| client.request(r))
            .expect("warm-up request served");
    }
}

/// Closed loop: keep `window` requests in flight for about `seconds`.
/// `block_ends` is asked after every reply, with the number of replies so
/// far, whether a block of the list ends there. At a block end the loop
/// stops sending, waits for the requests in flight, and runs the reference
/// work once (`speed.rs`) while the server is idle; the requests sent since
/// the last block end make up the block (`Phase::ends`). The phase stops at
/// the block end nearest to `seconds`.
pub fn closed_loop(
    client: &mut NetClient,
    workload: &mut Workload,
    window: usize,
    seconds: f64,
    record: usize,
    reference: &mut Reference,
    mut block_ends: impl FnMut(usize) -> bool,
) -> Phase {
    let mut phase = Phase {
        valid: true,
        ..Phase::default()
    };
    let mut in_flight: HashMap<u64, usize> = HashMap::with_capacity(window * 2);
    let started = Instant::now();
    let mut draining = false;
    let mut done = 0usize;
    let mut reference_s = 0.0;
    loop {
        while !draining && in_flight.len() < window {
            let index = phase.samples.len();
            let req = workload.next_req();
            let start_ns = started.elapsed().as_nanos() as u64;
            let id = workload
                .with_request(req, |r| client.send(r))
                .expect("request encodes");
            in_flight.insert(id, index);
            phase.samples.push(Sample {
                start_ns,
                latency_us: 0.0,
                status: Status::Errored,
            });
            if index < record {
                phase.recorded.push((req, None));
            }
        }
        if in_flight.is_empty() {
            // A block has ended and its last reply is in.
            phase.ends.push(phase.samples.len());
            let busy = started.elapsed().as_secs_f64() - reference_s;
            let took_us = reference.run();
            phase.ref_us.push(took_us);
            reference_s += took_us / 1e6;
            if busy + busy / phase.ends.len() as f64 / 2.0 >= seconds {
                break;
            }
            draining = false;
            continue;
        }
        let reply = client.recv().expect("connection stays up");
        let end_ns = started.elapsed().as_nanos() as u64;
        let index = in_flight
            .remove(&reply.request_id())
            .expect("reply to a request in flight");
        let sample = &mut phase.samples[index];
        sample.latency_us = (end_ns - sample.start_ns) as f64 / 1e3;
        sample.status = Status::of(&reply);
        if let (true, ServerReply::Answer(answer)) = (index < record, reply) {
            phase.recorded[index].1 = Some(answer);
        }
        done += 1;
        draining |= block_ends(done);
    }
    phase.wall_s = started.elapsed().as_secs_f64();
    phase.busy_s = phase.wall_s - reference_s;
    phase
}

/// What the open-loop scheduler needs from a connection. The benchmark's
/// implementation is [`RawConn`]; the unit test substitutes one that stalls.
pub trait Transport {
    /// Send request number `index` of the schedule without waiting.
    fn send(&mut self, index: usize);
    /// Wait up to `timeout` for replies; return those that arrived.
    fn poll(&mut self, timeout: Duration) -> Vec<(usize, ServerReply)>;
}

/// Below this distance from a due time the scheduler polls without
/// sleeping: a kernel time-out rounds up to whole milliseconds, and the send
/// must leave on time.
const SPIN_BELOW: Duration = Duration::from_micros(1500);
/// Fewer outstanding requests than this never count as a growing backlog:
/// at a third of capacity the mean is below one, and a run may fairly end
/// while one cold plan holds a few requests up.
const BACKLOG_FLOOR: f64 = 8.0;

/// Open loop: send request `i` at `due_ns[i]` whether or not earlier ones
/// were answered, and time each from its due time, so a stall is charged to
/// every request that waited behind it. A run whose backlog is still growing
/// when the last request is due — more outstanding than twice the mean over
/// the first half of the run (over the whole run, steady linear growth reads
/// as exactly twice its own mean), and more than [`BACKLOG_FLOOR`] — is
/// marked invalid: its latencies depend on when the run was cut off, not on
/// the server. Every reply is recorded.
pub fn open_loop(conn: &mut impl Transport, reqs: &[Req], due_ns: &[u64]) -> Phase {
    let mut phase = Phase {
        samples: due_ns
            .iter()
            .map(|&start_ns| Sample {
                start_ns,
                latency_us: 0.0,
                status: Status::Errored,
            })
            .collect(),
        recorded: reqs.iter().map(|&req| (req, None)).collect(),
        ..Phase::default()
    };
    let mut outstanding_at_due = Vec::with_capacity(due_ns.len());
    let mut outstanding = 0usize;
    let started = Instant::now();
    let mut next = 0usize;
    while next < due_ns.len() || outstanding > 0 {
        let now = started.elapsed();
        let timeout = match due_ns.get(next).map(|&ns| Duration::from_nanos(ns)) {
            Some(due) if now >= due => {
                outstanding_at_due.push(outstanding as f64);
                phase.late_us.push((now - due).as_nanos() as f64 / 1e3);
                conn.send(next);
                outstanding += 1;
                next += 1;
                continue;
            }
            Some(due) => (due - now).saturating_sub(SPIN_BELOW),
            None => Duration::from_millis(100),
        };
        for (index, reply) in conn.poll(timeout) {
            let end_ns = started.elapsed().as_nanos() as u64;
            let sample = &mut phase.samples[index];
            sample.latency_us = end_ns.saturating_sub(sample.start_ns) as f64 / 1e3;
            sample.status = Status::of(&reply);
            if let ServerReply::Answer(answer) = reply {
                phase.recorded[index].1 = Some(answer);
            }
            outstanding -= 1;
        }
    }
    phase.wall_s = started.elapsed().as_secs_f64();
    phase.busy_s = phase.wall_s;
    let backlog_at_end = outstanding_at_due.last().copied().unwrap_or(0.0);
    let first_half = &outstanding_at_due[..outstanding_at_due.len() / 2];
    phase.valid = backlog_at_end <= (2.0 * mean(first_half)).max(BACKLOG_FLOOR);
    phase
}

/// One connection speaking the wire protocol through `ps3_net::proto`, with
/// a readiness poll in front of every read. `NetClient` only blocks, and an
/// open loop on one thread has to watch the clock while it waits.
pub struct RawConn<'a> {
    stream: TcpStream,
    inbound: FrameBuffer,
    outgoing: Vec<u8>,
    workload: &'a Workload,
    reqs: &'a [Req],
}

impl<'a> RawConn<'a> {
    /// Connect to the server; request `i` of the schedule is `reqs[i]`.
    pub fn connect(
        addr: SocketAddr,
        workload: &'a Workload,
        reqs: &'a [Req],
    ) -> io::Result<RawConn<'a>> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(RawConn {
            stream,
            inbound: FrameBuffer::new(DEFAULT_MAX_FRAME),
            outgoing: Vec::new(),
            workload,
            reqs,
        })
    }
}

impl Transport for RawConn<'_> {
    fn send(&mut self, index: usize) {
        // Correlation id 0 is the server's connection-level error id.
        let id = index as u64 + 1;
        self.outgoing.clear();
        self.workload.with_request(self.reqs[index], |req| {
            let frame = Frame::Request(RequestFrame::from_request(id, req).expect("request fits"));
            encode_frame_at_into(&frame, PROTO_VERSION, &mut self.outgoing).expect("frame encodes");
        });
        self.stream
            .write_all(&self.outgoing)
            .expect("connection stays up");
    }

    fn poll(&mut self, timeout: Duration) -> Vec<(usize, ServerReply)> {
        let mut entry = [PollEntry::new(self.stream.as_raw_fd(), Interest::READ)];
        let ready = poll_fds(&mut entry, Some(timeout)).expect("poll the connection");
        if ready > 0 {
            let mut chunk = [0u8; 64 * 1024];
            let n = self.stream.read(&mut chunk).expect("connection stays up");
            assert!(n > 0, "server closed the connection");
            self.inbound.push(&chunk[..n]);
        }
        let mut replies = Vec::new();
        while let Some(frame) = self.inbound.next_frame().expect("server frames decode") {
            let reply = match frame {
                Frame::Response(resp) => ServerReply::Answer(RemoteAnswer {
                    request_id: resp.request_id,
                    answer: resp.to_answer(),
                    meta: resp.to_meta(),
                    sketch: resp.sketch,
                }),
                Frame::Error(err) => ServerReply::Error(err),
                Frame::Partial(_) | Frame::Request(_) => continue,
            };
            assert!(reply.request_id() > 0, "connection-level error: {reply:?}");
            replies.push((reply.request_id() as usize - 1, reply));
        }
        replies
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ps3_net::ErrorFrame;

    /// Answers nothing until `stall_until`, then everything sent so far,
    /// then each request on the first poll after it was sent.
    struct Stalling {
        started: Instant,
        stall_until: Duration,
        pending: Vec<usize>,
    }

    impl Transport for Stalling {
        fn send(&mut self, index: usize) {
            self.pending.push(index);
        }

        fn poll(&mut self, timeout: Duration) -> Vec<(usize, ServerReply)> {
            if self.started.elapsed() < self.stall_until {
                std::thread::sleep(timeout.min(Duration::from_millis(1)));
                return Vec::new();
            }
            if self.pending.is_empty() {
                std::thread::sleep(timeout.min(Duration::from_millis(1)));
            }
            self.pending
                .drain(..)
                .map(|index| {
                    let refusal = ErrorFrame {
                        request_id: index as u64 + 1,
                        code: ErrorCode::QueueFull,
                        message: String::new(),
                    };
                    (index, ServerReply::Error(refusal))
                })
                .collect()
        }
    }

    fn run(stall_ms: u64, n: usize, gap_ms: u64) -> Phase {
        let reqs = vec![
            Req {
                template: 0,
                seed: 0
            };
            n
        ];
        let due_ns: Vec<u64> = (0..n as u64).map(|i| i * gap_ms * 1_000_000).collect();
        let mut conn = Stalling {
            started: Instant::now(),
            stall_until: Duration::from_millis(stall_ms),
            pending: Vec::new(),
        };
        open_loop(&mut conn, &reqs, &due_ns)
    }

    #[test]
    fn a_stall_is_charged_from_the_due_time_to_every_request_behind_it() {
        // 20 requests 2 ms apart; the stub answers nothing for 30 ms.
        let phase = run(30, 20, 2);
        assert!(phase.valid, "the backlog drained before the end");
        for (i, sample) in phase.samples.iter().enumerate() {
            assert_eq!(
                sample.start_ns,
                i as u64 * 2_000_000,
                "timed from the due time"
            );
            assert_eq!(sample.status, Status::Refused);
        }
        // Request 0 was due at 0 and answered after the stall: 30 ms, less
        // the moment the stub's clock started before the scheduler's.
        // Request 10 was due at 20 ms: it waited the remaining ~10 ms.
        assert!(phase.samples[0].latency_us >= 29_900.0);
        assert!(phase.samples[10].latency_us >= 9_000.0);
        assert!(phase.samples[10].latency_us < phase.samples[0].latency_us);
        // Sends kept leaving on schedule during the stall.
        assert_eq!(phase.late_us.len(), 20);
        let worst = phase.late_us.iter().cloned().fold(0.0, f64::max);
        assert!(worst < 5_000.0, "generator ran {worst} us late");
    }

    #[test]
    fn a_backlog_still_growing_at_the_end_is_flagged_invalid() {
        // 40 requests 1 ms apart against a stub that never answers in time:
        // 39 are outstanding when the last is due, ~10 on average over the
        // first half.
        let phase = run(60, 40, 1);
        assert!(!phase.valid);
    }
}
