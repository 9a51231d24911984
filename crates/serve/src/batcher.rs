//! The work-conserving micro-batcher: a bounded submission queue whose
//! consumers take whatever is queued, up to `max_batch` requests, the
//! moment they are free.
//!
//! There is no separate scheduler thread — the policy lives in
//! `BatchQueue::next_batch`, which every scoring worker calls in a loop.
//! Batches larger than one form only from requests that arrived while
//! every worker was busy. The hot path is one mutex + two condvars; the
//! queue counts idle workers and blocked submitters so that `notify_*`
//! (a syscall even with no waiter) runs only when someone waits.
//!
//! Replies travel over per-request oneshot channels
//! (`mpsc::sync_channel(1)`): submission returns a [`Ticket`] the caller
//! blocks on, so a thousand in-flight requests cost a thousand parked
//! receivers, not a thousand threads.

use crate::metrics::{record, ModelMetrics};
use crate::{OverflowPolicy, ServeConfig, ServeError};
use metaai_math::CVec;
use std::collections::VecDeque;
use std::sync::mpsc::{self, Receiver, SyncSender};
use std::sync::{Condvar, Mutex};
use std::time::Instant;

/// One inference to serve.
#[derive(Clone, Debug)]
pub struct ScoreRequest {
    /// Caller-chosen correlation id, echoed in the response.
    pub id: u64,
    /// Per-sample RNG index: the request scores exactly as position
    /// `sample_index` of an offline batch run (channel realization, sync
    /// residual, and noise draws included).
    pub sample_index: u64,
    /// Transmitted symbol vector (length must match the deployment).
    pub input: CVec,
    /// Drop the request unscored if a worker reaches it after this time.
    pub deadline: Option<Instant>,
}

/// The scored reply.
#[derive(Clone, Debug)]
pub struct ScoreResponse {
    /// Echo of [`ScoreRequest::id`].
    pub id: u64,
    /// Deployment epoch that scored this request.
    pub epoch: u64,
    /// `argmax` of `scores`.
    pub predicted: usize,
    /// Receiver-side class scores.
    pub scores: Vec<f64>,
}

/// A queued request together with its reply channel.
pub(crate) struct Pending {
    pub request: ScoreRequest,
    pub enqueued_at: Instant,
    pub reply: SyncSender<Result<ScoreResponse, ServeError>>,
}

impl Pending {
    /// Sends the reply, ignoring an already-departed caller.
    pub(crate) fn resolve(self, result: Result<ScoreResponse, ServeError>) {
        let _ = self.reply.send(result);
    }
}

/// Handle to one in-flight request.
#[derive(Debug)]
pub struct Ticket {
    rx: Receiver<Result<ScoreResponse, ServeError>>,
}

impl Ticket {
    /// Blocks until the request is scored, dropped, or the pool dies.
    pub fn wait(self) -> Result<ScoreResponse, ServeError> {
        self.rx.recv().unwrap_or(Err(ServeError::Disconnected))
    }

    /// Non-blocking check: `None` while the request is still in flight.
    /// Lets a response writer batch up already-resolved replies (one
    /// flush per drained run) and fall back to [`wait`](Self::wait) only
    /// after flushing what it has.
    pub fn try_wait(&self) -> Option<Result<ScoreResponse, ServeError>> {
        match self.rx.try_recv() {
            Ok(outcome) => Some(outcome),
            Err(mpsc::TryRecvError::Empty) => None,
            Err(mpsc::TryRecvError::Disconnected) => Some(Err(ServeError::Disconnected)),
        }
    }
}

struct QueueState {
    queue: VecDeque<Pending>,
    shutdown: bool,
    /// Workers parked on `not_empty`.
    idle_workers: usize,
    /// `Block` submitters parked on `not_full`.
    blocked_submitters: usize,
}

/// The bounded submission queue + dequeue policy shared by submitters and
/// scoring workers.
pub struct BatchQueue {
    state: Mutex<QueueState>,
    /// Signalled on push to an idle worker, and on shutdown.
    not_empty: Condvar,
    /// Signalled on dequeue to blocked submitters, and on shutdown.
    not_full: Condvar,
    capacity: usize,
    policy: OverflowPolicy,
    max_batch: usize,
    /// Per-model instruments, when this queue belongs to a registered
    /// model. The aggregate `metaai.serve.*` instruments are recorded
    /// either way.
    model_metrics: Option<ModelMetrics>,
}

impl BatchQueue {
    /// A queue with the given batching/backpressure parameters.
    pub fn new(config: &ServeConfig) -> Self {
        Self::build(config, None)
    }

    /// A queue that also records the per-model instrument dimension.
    pub(crate) fn with_metrics(config: &ServeConfig, metrics: ModelMetrics) -> Self {
        Self::build(config, Some(metrics))
    }

    fn build(config: &ServeConfig, model_metrics: Option<ModelMetrics>) -> Self {
        assert!(config.max_batch >= 1, "a batch holds at least one request");
        assert!(
            config.queue_capacity >= 1,
            "the queue admits at least one request"
        );
        BatchQueue {
            state: Mutex::new(QueueState {
                queue: VecDeque::with_capacity(config.queue_capacity.min(4096)),
                shutdown: false,
                idle_workers: 0,
                blocked_submitters: 0,
            }),
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
            capacity: config.queue_capacity,
            policy: config.policy,
            max_batch: config.max_batch,
            model_metrics,
        }
    }

    /// This queue's per-model instruments, gated on telemetry being
    /// enabled (`None` for plain queues or when telemetry is off).
    #[inline]
    fn model_tele(&self) -> Option<&ModelMetrics> {
        self.model_metrics.as_ref().and_then(ModelMetrics::on)
    }

    /// Admits a request, applying the overflow policy when the queue is
    /// full. Returns the caller's [`Ticket`] on admission.
    pub fn submit(&self, request: ScoreRequest) -> Result<Ticket, ServeError> {
        let mut st = self.state.lock().expect("serve queue poisoned");
        loop {
            if st.shutdown {
                return Err(ServeError::ShuttingDown);
            }
            if st.queue.len() < self.capacity {
                break;
            }
            match self.policy {
                OverflowPolicy::Shed => {
                    record!(self.model_tele(), |m| m.shed_total.inc());
                    return Err(ServeError::Overloaded);
                }
                OverflowPolicy::Block => {
                    st.blocked_submitters += 1;
                    st = self.not_full.wait(st).expect("serve queue poisoned");
                    st.blocked_submitters -= 1;
                }
            }
        }
        let (tx, rx) = std::sync::mpsc::sync_channel(1);
        st.queue.push_back(Pending {
            request,
            enqueued_at: Instant::now(),
            reply: tx,
        });
        record!(self.model_tele(), |m| {
            m.requests.inc();
            m.queue_depth.set(st.queue.len() as f64);
        });
        let wake_worker = st.idle_workers > 0;
        drop(st);
        if wake_worker {
            self.not_empty.notify_one();
        }
        Ok(Ticket { rx })
    }

    /// Blocks until at least one request is queued, then takes up to
    /// `max_batch` of them at once; returns `None` once the queue is shut
    /// down *and* drained. There is no flush deadline: a free worker
    /// never waits while a request is queued.
    pub(crate) fn next_batch(&self) -> Option<Vec<Pending>> {
        let mut st = self.state.lock().expect("serve queue poisoned");
        while st.queue.is_empty() {
            if st.shutdown {
                return None;
            }
            st.idle_workers += 1;
            st = self.not_empty.wait(st).expect("serve queue poisoned");
            st.idle_workers -= 1;
        }
        let take = st.queue.len().min(self.max_batch);
        let batch: Vec<Pending> = st.queue.drain(..take).collect();
        record!(self.model_tele(), |m| {
            m.batches.inc();
            m.batch_size.observe(batch.len() as f64);
            m.queue_depth.set(st.queue.len() as f64);
        });
        // Submitters blocked on a full queue can proceed; if requests
        // remain, hand them to an idle worker right away.
        let wake_submitters = st.blocked_submitters > 0;
        let wake_worker = !st.queue.is_empty() && st.idle_workers > 0;
        drop(st);
        if wake_submitters {
            self.not_full.notify_all();
        }
        if wake_worker {
            self.not_empty.notify_one();
        }
        Some(batch)
    }

    /// Stops admission and wakes every waiter. Workers drain what is
    /// already queued (`next_batch` keeps returning batches until empty),
    /// then see `None` and exit.
    pub fn shutdown(&self) {
        let mut st = self.state.lock().expect("serve queue poisoned");
        st.shutdown = true;
        drop(st);
        self.not_empty.notify_all();
        self.not_full.notify_all();
    }

    /// Current queue depth (racy; for monitoring and tests).
    pub fn depth(&self) -> usize {
        self.state.lock().expect("serve queue poisoned").queue.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::time::Duration;

    fn config(max_batch: usize, cap: usize, policy: OverflowPolicy) -> ServeConfig {
        ServeConfig {
            max_batch,
            queue_capacity: cap,
            workers: 1,
            policy,
        }
    }

    fn request(i: u64) -> ScoreRequest {
        ScoreRequest {
            id: i,
            sample_index: i,
            input: CVec::from_vec(vec![metaai_math::C64 { re: 1.0, im: 0.0 }]),
            deadline: None,
        }
    }

    #[test]
    fn takes_at_most_max_batch_requests() {
        let q = BatchQueue::new(&config(3, 64, OverflowPolicy::Shed));
        let _tickets: Vec<Ticket> = (0..5).map(|i| q.submit(request(i)).unwrap()).collect();
        let batch = q.next_batch().expect("batch");
        assert_eq!(batch.len(), 3);
        assert_eq!(q.depth(), 2);
        // The remainder goes out at once, without waiting for more.
        assert_eq!(q.next_batch().expect("batch").len(), 2);
    }

    #[test]
    fn a_blocked_consumer_takes_a_single_request_without_waiting() {
        let q = Arc::new(BatchQueue::new(&config(100, 64, OverflowPolicy::Shed)));
        let (tx, rx) = mpsc::channel();
        let consumer = {
            let q = q.clone();
            std::thread::spawn(move || tx.send(q.next_batch().expect("batch").len()))
        };
        // Submit only once the consumer is parked in `next_batch`.
        while q.state.lock().unwrap().idle_workers == 0 {
            std::thread::sleep(Duration::from_millis(1));
        }
        let _ticket = q.submit(request(0)).unwrap();
        // One request, taken as soon as it was queued although max_batch
        // is 100 (generous bound for slow machines).
        let taken = rx.recv_timeout(Duration::from_secs(5));
        assert_eq!(taken, Ok(1), "the parked consumer was not woken");
        consumer.join().unwrap().unwrap();
        assert_eq!(q.state.lock().unwrap().idle_workers, 0);
    }

    #[test]
    fn shed_policy_rejects_when_full() {
        let q = BatchQueue::new(&config(8, 2, OverflowPolicy::Shed));
        let _t0 = q.submit(request(0)).unwrap();
        let _t1 = q.submit(request(1)).unwrap();
        assert_eq!(q.submit(request(2)).unwrap_err(), ServeError::Overloaded);
        // Shedding did not disturb the admitted requests.
        assert_eq!(q.depth(), 2);
    }

    #[test]
    fn block_policy_waits_for_a_dequeue() {
        let q = Arc::new(BatchQueue::new(&config(1, 1, OverflowPolicy::Block)));
        let _t0 = q.submit(request(0)).unwrap();
        let consumer = {
            let q = q.clone();
            std::thread::spawn(move || {
                std::thread::sleep(Duration::from_millis(50));
                q.next_batch().expect("batch").len()
            })
        };
        let started = Instant::now();
        let _t1 = q.submit(request(1)).expect("unblocked after a dequeue");
        assert!(
            started.elapsed() >= Duration::from_millis(30),
            "submit returned before the queue had space"
        );
        assert_eq!(consumer.join().unwrap(), 1);
        assert_eq!(q.state.lock().unwrap().blocked_submitters, 0);
    }

    #[test]
    fn shutdown_drains_admitted_requests_then_stops() {
        let q = BatchQueue::new(&config(2, 64, OverflowPolicy::Shed));
        let _tickets: Vec<Ticket> = (0..5).map(|i| q.submit(request(i)).unwrap()).collect();
        q.shutdown();
        assert_eq!(q.submit(request(9)).unwrap_err(), ServeError::ShuttingDown);
        // Admitted work keeps flowing out (in order, max_batch at a time)
        // until the queue is empty, then the consumer sees None.
        let mut drained = Vec::new();
        while let Some(batch) = q.next_batch() {
            drained.extend(batch.into_iter().map(|p| p.request.id));
        }
        assert_eq!(drained, vec![0, 1, 2, 3, 4]);
        assert!(q.next_batch().is_none());
    }

    #[test]
    fn dropping_a_pending_reply_disconnects_the_ticket() {
        let q = BatchQueue::new(&config(1, 4, OverflowPolicy::Shed));
        let ticket = q.submit(request(0)).unwrap();
        let batch = q.next_batch().expect("batch");
        drop(batch);
        assert_eq!(ticket.wait().unwrap_err(), ServeError::Disconnected);
    }
}
