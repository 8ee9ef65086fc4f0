//! The service core: one bounded FIFO job queue drained by the worker
//! pool.
//!
//! Connections *submit* jobs and wait on a reply channel; execution
//! happens on a fixed pool of worker threads sized to cores. Admission
//! checks `len < capacity` under the queue lock, so the bound is exact:
//! the observable depth never exceeds capacity, and no request is shed
//! while a slot is free. Workers take jobs in arrival order.

use crate::proto::JobSpec;
use std::collections::VecDeque;
use std::sync::mpsc::Sender;
use std::sync::{Condvar, Mutex, MutexGuard};
use std::time::Instant;

/// What a queued job executes: one generation, or a batch of
/// independent single-space generations sharing one parse and one queue
/// slot.
#[derive(Debug)]
pub(crate) enum Work {
    /// One `gen`: a kernel or one multi-statement space set.
    Single(JobSpec),
    /// A `batch`: each space generates independently; replies stream
    /// back per space in submission order.
    Batch {
        /// Shared effort/id defaults for every space.
        base: JobSpec,
        /// The spaces, one independent generation each.
        spaces: Vec<String>,
    },
}

/// One reply to one task (a `gen`, or one space of a `batch`), sent from
/// a worker back to the submitting connection, which owns the socket
/// formatting (line protocol or HTTP/JSON).
pub(crate) struct TaskReply {
    /// Task id: the job id, or `id#i` for space `i` of a batch.
    pub id: String,
    /// Source tag (kernel name or `adhoc[n]`).
    pub source: String,
    /// The generated output, or a one-line error message.
    pub outcome: Result<crate::JobOutput, String>,
}

/// A queued job: the work, its identity, and the channel its replies
/// stream back on.
pub(crate) struct Job {
    /// Request id (client-chosen or daemon-assigned `r-NNNNNN`).
    pub id: String,
    /// Peer address, for the request log.
    pub peer: String,
    /// What to run.
    pub work: Work,
    /// When the job was admitted (queue-wait measurement).
    pub enqueued: Instant,
    /// Where replies go; dropped unsent on shutdown, which the
    /// submitting side observes as a closed channel.
    pub reply: Sender<TaskReply>,
}

/// The queued jobs and the shutdown flag, behind one lock so a worker
/// cannot miss a stop between checking the flag and going to sleep.
#[derive(Default)]
struct Inner {
    jobs: VecDeque<Job>,
    stopped: bool,
}

/// The bounded FIFO job queue.
pub(crate) struct Queue {
    inner: Mutex<Inner>,
    ready: Condvar,
    capacity: usize,
}

impl Queue {
    pub(crate) fn new(capacity: usize) -> Queue {
        Queue {
            inner: Mutex::new(Inner::default()),
            ready: Condvar::new(),
            capacity,
        }
    }

    /// Admission: appends the job if and only if the queue holds fewer
    /// than `capacity` jobs.
    ///
    /// # Errors
    ///
    /// Returns the job back when the queue is full — the caller owns the
    /// `busy` reply.
    // The Err variant carries the whole Job on purpose: the caller needs
    // it back (id, reply channel) to answer `busy` without a clone.
    #[allow(clippy::result_large_err)]
    pub(crate) fn try_push(&self, job: Job) -> Result<(), Job> {
        {
            let mut inner = self.lock();
            if inner.jobs.len() >= self.capacity {
                return Err(job);
            }
            inner.jobs.push_back(job);
        }
        self.ready.notify_one();
        Ok(())
    }

    /// Blocking pop of the oldest job. Returns `None` only at shutdown.
    pub(crate) fn pop(&self) -> Option<Job> {
        let mut inner = self.lock();
        loop {
            if inner.stopped {
                return None;
            }
            if let Some(job) = inner.jobs.pop_front() {
                return Some(job);
            }
            inner = self.ready.wait(inner).unwrap_or_else(|e| e.into_inner());
        }
    }

    /// Jobs currently queued (not yet picked up by a worker).
    pub(crate) fn len(&self) -> usize {
        self.lock().jobs.len()
    }

    /// The admission bound.
    pub(crate) fn capacity(&self) -> usize {
        self.capacity
    }

    /// Wakes every worker and makes all future pops return `None`.
    /// Queued jobs are dropped; their reply channels close, which the
    /// submitting connections observe and answer as a shutdown error.
    pub(crate) fn stop(&self) {
        let mut inner = self.lock();
        inner.stopped = true;
        inner.jobs.clear();
        drop(inner);
        self.ready.notify_all();
    }

    fn lock(&self) -> MutexGuard<'_, Inner> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::{JobSource, JobSpec};
    use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
    use std::sync::mpsc;
    use std::sync::Arc;
    use std::time::Duration;

    fn job(id: &str) -> (Job, mpsc::Receiver<TaskReply>) {
        let (tx, rx) = mpsc::channel();
        let spec = JobSpec {
            id: None,
            source: JobSource::Kernel {
                name: "gemv".into(),
                n: 8,
            },
            effort: None,
        };
        (
            Job {
                id: id.into(),
                peer: "test".into(),
                work: Work::Single(spec),
                enqueued: Instant::now(),
                reply: tx,
            },
            rx,
        )
    }

    /// Non-blocking pop, for draining in tests.
    fn try_pop(q: &Queue) -> Option<Job> {
        q.lock().jobs.pop_front()
    }

    #[test]
    fn jobs_leave_in_arrival_order() {
        let q = Queue::new(16);
        let mut rxs = Vec::new();
        for i in 0..5 {
            let (j, rx) = job(&format!("j{i}"));
            q.try_push(j).map_err(|j| j.id).unwrap();
            rxs.push(rx);
        }
        assert_eq!(q.len(), 5);
        let order: Vec<String> = (0..5).map(|_| q.pop().unwrap().id).collect();
        assert_eq!(order, ["j0", "j1", "j2", "j3", "j4"]);
        assert_eq!(q.len(), 0);
    }

    #[test]
    fn admission_is_exactly_bounded() {
        let q = Queue::new(5);
        let mut admitted = 0;
        let mut rxs = Vec::new();
        for i in 0..20 {
            let (j, rx) = job(&format!("j{i}"));
            if q.try_push(j).is_ok() {
                admitted += 1;
                rxs.push(rx);
            }
        }
        assert_eq!(admitted, 5, "exactly capacity jobs admitted");
        assert_eq!(q.len(), 5);
    }

    #[test]
    fn zero_capacity_sheds_everything() {
        let q = Queue::new(0);
        let (j, _rx) = job("j");
        assert!(q.try_push(j).is_err());
        assert_eq!(q.len(), 0);
    }

    /// Hammers admission from many threads against a concurrent drainer:
    /// the observed depth never exceeds capacity, and every producer
    /// that retries until admitted gets in.
    #[test]
    fn hammered_admission_never_overshoots_capacity() {
        const CAP: usize = 4;
        const PRODUCERS: usize = 8;
        const PER_PRODUCER: usize = 200;
        let q = Arc::new(Queue::new(CAP));
        let overshoot = Arc::new(AtomicU64::new(0));
        let done = Arc::new(AtomicBool::new(false));

        // Watcher: samples the depth as fast as it can.
        let watcher = {
            let q = Arc::clone(&q);
            let overshoot = Arc::clone(&overshoot);
            let done = Arc::clone(&done);
            std::thread::spawn(move || {
                while !done.load(Ordering::Acquire) {
                    if q.len() > CAP {
                        overshoot.fetch_add(1, Ordering::Relaxed);
                    }
                    std::hint::spin_loop();
                }
            })
        };
        // Drainer: keeps slots churning so producers race admission
        // against release continuously.
        let drainer = {
            let q = Arc::clone(&q);
            let done = Arc::clone(&done);
            std::thread::spawn(move || {
                while !done.load(Ordering::Acquire) {
                    while try_pop(&q).is_some() {}
                    std::thread::yield_now();
                }
            })
        };
        let producers: Vec<_> = (0..PRODUCERS)
            .map(|p| {
                let q = Arc::clone(&q);
                std::thread::spawn(move || {
                    let mut admitted = 0u64;
                    for i in 0..PER_PRODUCER {
                        let (mut j, _rx) = job(&format!("p{p}-{i}"));
                        loop {
                            match q.try_push(j) {
                                Ok(()) => {
                                    admitted += 1;
                                    break;
                                }
                                Err(back) => {
                                    j = back;
                                    std::thread::yield_now();
                                }
                            }
                        }
                    }
                    admitted
                })
            })
            .collect();
        let total: u64 = producers.into_iter().map(|h| h.join().unwrap()).sum();
        done.store(true, Ordering::Release);
        watcher.join().unwrap();
        drainer.join().unwrap();
        assert_eq!(total, (PRODUCERS * PER_PRODUCER) as u64);
        assert_eq!(
            overshoot.load(Ordering::Relaxed),
            0,
            "queue depth exceeded capacity"
        );
    }

    #[test]
    fn pop_blocks_until_stop() {
        let q = Arc::new(Queue::new(8));
        let q2 = Arc::clone(&q);
        let h = std::thread::spawn(move || q2.pop());
        std::thread::sleep(Duration::from_millis(30));
        q.stop();
        assert!(h.join().unwrap().is_none());
    }
}
