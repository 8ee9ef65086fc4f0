//! The service core: one bounded FIFO of accepted connections drained
//! by the worker pool.
//!
//! The accept thread pushes each connection; a worker pops it and carries
//! the request from reading to reply. Admission checks
//! `len < capacity` under the queue lock, so the bound is exact: the
//! observable depth never exceeds capacity, and no connection is shed
//! while a slot is free. Workers take connections in arrival order.

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex, MutexGuard};

/// What to generate and how hard to try.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JobSpec {
    /// Client-chosen request id; the daemon assigns `r-NNNNNN` when absent.
    pub id: Option<String>,
    /// The iteration spaces to scan.
    pub source: JobSource,
    /// Overhead-removal effort (`CodeGen::effort`); daemon default if absent.
    pub effort: Option<usize>,
}

/// Where the iteration spaces come from.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum JobSource {
    /// A named Table 1 kernel recipe at problem size `n`.
    Kernel {
        /// Recipe name (`gemv`, `qr`, `swim`, `gemm`, `lu`).
        name: String,
        /// Problem size the recipe is built at.
        n: i64,
    },
    /// Ad-hoc iteration-space descriptions in the `omega` set syntax,
    /// one statement per set.
    Spaces(Vec<String>),
}

impl JobSource {
    /// Short tag for logs and replies.
    pub fn tag(&self) -> String {
        match self {
            JobSource::Kernel { name, .. } => name.clone(),
            JobSource::Spaces(s) => format!("adhoc[{}]", s.len()),
        }
    }

    /// The request kind label of a `gen` job (`kernel` or `adhoc`) for
    /// the `codegend_requests` family; a `batch` is `batch`.
    pub(crate) fn kind(&self) -> &'static str {
        match self {
            JobSource::Kernel { .. } => "kernel",
            JobSource::Spaces(_) => "adhoc",
        }
    }
}

/// Most spaces one `batch` request may carry; a guard against one request
/// monopolizing a worker for unbounded wall time.
pub const MAX_BATCH_SPACES: usize = 4096;

/// The items and the shutdown flag, behind one lock so a worker cannot
/// miss a stop between checking the flag and going to sleep.
struct Inner<T> {
    items: VecDeque<T>,
    stopped: bool,
}

/// The bounded FIFO hand-off between the accept thread and the workers.
pub(crate) struct Queue<T> {
    inner: Mutex<Inner<T>>,
    ready: Condvar,
    capacity: usize,
}

impl<T> Queue<T> {
    pub(crate) fn new(capacity: usize) -> Queue<T> {
        Queue {
            inner: Mutex::new(Inner {
                items: VecDeque::new(),
                stopped: false,
            }),
            ready: Condvar::new(),
            capacity,
        }
    }

    /// Admission: appends the item if and only if the queue holds fewer
    /// than `capacity` items.
    ///
    /// # Errors
    ///
    /// Returns the item back when the queue is full — the caller owns the
    /// `503` reply.
    pub(crate) fn try_push(&self, item: T) -> Result<(), T> {
        {
            let mut inner = self.lock();
            if inner.items.len() >= self.capacity {
                return Err(item);
            }
            inner.items.push_back(item);
        }
        self.ready.notify_one();
        Ok(())
    }

    /// Blocking pop of the oldest item. Returns `None` only at shutdown.
    pub(crate) fn pop(&self) -> Option<T> {
        let mut inner = self.lock();
        loop {
            if inner.stopped {
                return None;
            }
            if let Some(item) = inner.items.pop_front() {
                return Some(item);
            }
            inner = self.ready.wait(inner).unwrap_or_else(|e| e.into_inner());
        }
    }

    /// Items currently queued (not yet picked up by a worker).
    pub(crate) fn len(&self) -> usize {
        self.lock().items.len()
    }

    /// The admission bound.
    pub(crate) fn capacity(&self) -> usize {
        self.capacity
    }

    /// Wakes every worker and makes all future pops return `None`.
    /// Returns the items still queued, which no worker will take.
    pub(crate) fn stop(&self) -> Vec<T> {
        let mut inner = self.lock();
        inner.stopped = true;
        let left = inner.items.drain(..).collect();
        drop(inner);
        self.ready.notify_all();
        left
    }

    fn lock(&self) -> MutexGuard<'_, Inner<T>> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
    use std::sync::Arc;
    use std::time::Duration;

    /// Non-blocking pop, for draining in tests.
    fn try_pop(q: &Queue<usize>) -> Option<usize> {
        q.lock().items.pop_front()
    }

    #[test]
    fn kind_labels() {
        let kernel = JobSource::Kernel {
            name: "gemv".into(),
            n: 8,
        };
        assert_eq!(kernel.kind(), "kernel");
        assert_eq!(
            JobSource::Spaces(vec!["{ [i] : i = 0 }".into()]).kind(),
            "adhoc"
        );
    }

    #[test]
    fn jobs_leave_in_arrival_order() {
        let q = Queue::new(16);
        for i in 0..5 {
            q.try_push(i).unwrap();
        }
        assert_eq!(q.len(), 5);
        let order: Vec<usize> = (0..5).map(|_| q.pop().unwrap()).collect();
        assert_eq!(order, [0, 1, 2, 3, 4]);
        assert_eq!(q.len(), 0);
    }

    #[test]
    fn admission_is_exactly_bounded() {
        let q = Queue::new(5);
        let admitted = (0..20).filter(|&i| q.try_push(i).is_ok()).count();
        assert_eq!(admitted, 5, "exactly capacity items admitted");
        assert_eq!(q.len(), 5);
    }

    #[test]
    fn zero_capacity_sheds_everything() {
        let q = Queue::new(0);
        assert_eq!(q.try_push(7), Err(7));
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
                        let mut item = p * PER_PRODUCER + i;
                        while let Err(back) = q.try_push(item) {
                            item = back;
                            std::thread::yield_now();
                        }
                        admitted += 1;
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
        let q = Arc::new(Queue::<usize>::new(8));
        let q2 = Arc::clone(&q);
        let h = std::thread::spawn(move || q2.pop());
        std::thread::sleep(Duration::from_millis(30));
        assert!(q.stop().is_empty());
        assert!(h.join().unwrap().is_none());
    }

    #[test]
    fn stop_hands_back_what_is_still_queued() {
        let q = Queue::new(8);
        for i in 0..3 {
            q.try_push(i).unwrap();
        }
        assert_eq!(q.stop(), [0, 1, 2]);
        assert_eq!(q.pop(), None);
    }
}
