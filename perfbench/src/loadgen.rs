//! Open-loop load over one TCP connection, driven by two threads.
//!
//! Arrivals follow a seeded Poisson schedule fixed before the phase
//! starts. The sender (the calling thread) sleeps until each request is
//! due and never spins, so it leaves the cores to the server. It sends
//! every request already due on waking, and records how late it ran.
//! Each request is timed from its *intended* send time, so a stall also
//! counts against the requests queued behind it. The receiver thread
//! pairs replies with requests in FIFO order (the server's connection
//! writer answers in submission order).

use metaai_math::rng::SimRng;
use metaai_serve::wire::{self, Request, Response};
use std::io::{BufReader, BufWriter, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::mpsc::{self, Receiver, Sender};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Head start between fixing a phase's schedule and its first arrival.
const LEAD: Duration = Duration::from_millis(5);

/// The instant a phase about to be sent starts: its schedule's offsets
/// count from here.
pub fn phase_start() -> Instant {
    Instant::now() + LEAD
}

/// Longest wait for any one reply before the connection counts as dead.
const REPLY_TIMEOUT: Duration = Duration::from_secs(60);

/// Arrival offsets of a Poisson process at `rate` per second over
/// `duration`, drawn from the stream `(seed, label)`.
pub fn poisson_schedule(seed: u64, label: &str, rate: f64, duration: Duration) -> Vec<Duration> {
    let mut rng = SimRng::derive(seed, label);
    let horizon = duration.as_secs_f64();
    let mut t = 0.0;
    let mut out = Vec::with_capacity((rate * horizon * 1.1) as usize + 16);
    loop {
        // 1 − U lies in (0, 1], so the logarithm is finite.
        t += -(1.0 - rng.uniform()).ln() / rate;
        if t >= horizon {
            return out;
        }
        out.push(Duration::from_secs_f64(t));
    }
}

/// One model's encoded request frames, one per input, restamped per
/// send with the request id and sample index.
pub struct Target {
    frames: Vec<Vec<u8>>,
}

impl Target {
    /// Encodes an `INFER_MODEL` frame for wire id `model` per input.
    pub fn new(model: u32, inputs: &[metaai_math::CVec]) -> Self {
        let frames = inputs
            .iter()
            .map(|x| {
                Request::InferModel {
                    model,
                    id: 0,
                    sample_index: 0,
                    deadline_us: 0,
                    input: x.as_slice().to_vec(),
                }
                .encode()
            })
            .collect();
        Target { frames }
    }
}

/// How a request ended.
#[derive(Clone, Debug)]
pub enum Outcome {
    /// Scored on deployment `epoch`.
    Scored {
        epoch: u64,
        predicted: usize,
        scores: Vec<f64>,
    },
    /// An ERROR reply with this [`metaai_serve::ServeError`] code
    /// (1 = shed, 2 = expired).
    Refused(u8),
    /// No well-formed reply: closed, timed out, undecodable, wrong id.
    Broken,
}

/// One request's record.
#[derive(Clone, Debug)]
pub struct Reply {
    /// Request id, also its sample index.
    pub seq: u64,
    /// Index of the [`Target`] it went to.
    pub target: usize,
    /// From intended send time to reply, µs.
    pub latency_us: f64,
    /// How far behind schedule it was written, µs.
    pub late_us: f64,
    pub outcome: Outcome,
}

enum Note {
    Sent {
        seq: u64,
        target: usize,
        due: Instant,
        late_us: f64,
    },
    EndOfPhase,
}

/// An open connection with its receiver thread.
pub struct Conn {
    writer: BufWriter<TcpStream>,
    notes: Sender<Note>,
    phases: Receiver<Vec<Reply>>,
    receiver: JoinHandle<()>,
}

impl Conn {
    pub fn open(addr: SocketAddr) -> Result<Conn, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
        let _ = stream.set_nodelay(true);
        stream
            .set_read_timeout(Some(REPLY_TIMEOUT))
            .map_err(|e| format!("read timeout: {e}"))?;
        let read_half = stream.try_clone().map_err(|e| format!("clone: {e}"))?;
        let (notes, note_rx) = mpsc::channel();
        let (phase_tx, phases) = mpsc::channel();
        let receiver = std::thread::Builder::new()
            .name("perfbench-recv".to_string())
            .spawn(move || receive(read_half, note_rx, phase_tx))
            .map_err(|e| format!("spawn receiver: {e}"))?;
        Ok(Conn {
            // Holds several 12.5 KB request frames, so a burst of due
            // requests leaves in few syscalls.
            writer: BufWriter::with_capacity(64 * 1024, stream),
            notes,
            phases,
            receiver,
        })
    }

    /// Sends one request per `schedule` offset from `start`, request `k`
    /// carrying id and sample index `first_seq + k` and going to target
    /// `route(seq)`, with input `seq mod len`. Returns once every reply
    /// is in, ordered by `seq`.
    pub fn run_phase(
        &mut self,
        start: Instant,
        schedule: &[Duration],
        first_seq: u64,
        targets: &mut [Target],
        route: impl Fn(u64) -> usize,
    ) -> Result<Vec<Reply>, String> {
        for (k, offset) in schedule.iter().enumerate() {
            let seq = first_seq + k as u64;
            let due = start + *offset;
            let mut now = Instant::now();
            if due > now {
                self.writer.flush().map_err(|e| format!("send: {e}"))?;
                std::thread::sleep(due - now);
                now = Instant::now();
            }
            let target = route(seq);
            let frames = &mut targets[target].frames;
            let n = frames.len() as u64;
            let frame = &mut frames[(seq % n) as usize];
            Request::restamp_infer(frame, seq, seq);
            let late_us = now.saturating_duration_since(due).as_secs_f64() * 1e6;
            self.notes
                .send(Note::Sent {
                    seq,
                    target,
                    due,
                    late_us,
                })
                .map_err(|_| "receiver thread exited".to_string())?;
            wire::write_frame(&mut self.writer, frame).map_err(|e| format!("send: {e}"))?;
        }
        self.writer.flush().map_err(|e| format!("send: {e}"))?;
        self.notes
            .send(Note::EndOfPhase)
            .map_err(|_| "receiver thread exited".to_string())?;
        self.phases
            .recv()
            .map_err(|_| "receiver thread exited".to_string())
    }

    /// Closes the connection and joins the receiver.
    pub fn close(self) -> Result<(), String> {
        let Conn {
            writer,
            notes,
            phases,
            receiver,
        } = self;
        drop(notes);
        drop(phases);
        if let Ok(stream) = writer.into_inner() {
            let _ = stream.shutdown(std::net::Shutdown::Both);
        }
        receiver
            .join()
            .map_err(|_| "receiver thread panicked".to_string())
    }
}

fn receive(stream: TcpStream, notes: Receiver<Note>, phases: Sender<Vec<Reply>>) {
    let mut reader = BufReader::with_capacity(64 * 1024, stream);
    let mut replies = Vec::new();
    let mut dead = false;
    for note in notes {
        let (seq, target, due, late_us) = match note {
            Note::Sent {
                seq,
                target,
                due,
                late_us,
            } => (seq, target, due, late_us),
            Note::EndOfPhase => {
                if phases.send(std::mem::take(&mut replies)).is_err() {
                    return;
                }
                continue;
            }
        };
        let frame = if dead {
            None
        } else {
            wire::read_frame(&mut reader).ok().flatten()
        };
        let latency_us = due.elapsed().as_secs_f64() * 1e6;
        let outcome = match frame.map(|f| Response::decode(&f)) {
            Some(Ok(Response::Score {
                id,
                epoch,
                predicted,
                scores,
            })) if id == seq => Outcome::Scored {
                epoch,
                predicted: predicted as usize,
                scores,
            },
            Some(Ok(Response::Error { id, code })) if id == seq => Outcome::Refused(code),
            _ => {
                // The stream offset can no longer be trusted.
                dead = true;
                Outcome::Broken
            }
        };
        replies.push(Reply {
            seq,
            target,
            latency_us,
            late_us,
            outcome,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedules_repeat_per_seed_and_differ_across_seeds() {
        let d = Duration::from_secs(2);
        let a = poisson_schedule(7, "phase", 1000.0, d);
        let b = poisson_schedule(7, "phase", 1000.0, d);
        let c = poisson_schedule(8, "phase", 1000.0, d);
        let other_label = poisson_schedule(7, "other", 1000.0, d);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_ne!(a, other_label);
    }

    #[test]
    fn schedules_are_sorted_inside_the_window_at_the_rate() {
        let d = Duration::from_secs(4);
        let s = poisson_schedule(3, "rate", 2000.0, d);
        assert!(s.windows(2).all(|w| w[0] <= w[1]));
        assert!(s.iter().all(|&t| t < d));
        // 8000 expected arrivals; Poisson sd ≈ 89.
        let n = s.len() as f64;
        assert!((n - 8000.0).abs() < 450.0, "{n}");
    }
}
