//! Bounded MPMC work queue with non-blocking admission.
//!
//! The backpressure primitive for serving paths: producers `try_push` and
//! get an immediate `Err` back when the queue is at capacity (the caller
//! sheds the work — visibly — instead of queueing without bound), while
//! consumers block on `pop` until work or shutdown arrives. The queue
//! exists to make overload an explicit, countable event; the pipeline's
//! own records never pass through it, because they must never be shed.

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex};

/// Queue rejected the item: capacity reached (the item comes back) or the
/// queue was already shut down.
#[derive(Debug, PartialEq, Eq)]
pub enum PushError<T> {
    Full(T),
    Closed(T),
}

struct Inner<T> {
    items: VecDeque<T>,
    closed: bool,
}

/// A fixed-capacity queue shared between an admission side and a worker
/// pool. `Default`s are deliberately absent: capacity is a policy choice.
pub struct BoundedQueue<T> {
    inner: Mutex<Inner<T>>,
    ready: Condvar,
    capacity: usize,
}

impl<T> BoundedQueue<T> {
    pub fn new(capacity: usize) -> BoundedQueue<T> {
        assert!(capacity > 0, "a zero-capacity queue sheds everything");
        BoundedQueue {
            inner: Mutex::new(Inner { items: VecDeque::with_capacity(capacity), closed: false }),
            ready: Condvar::new(),
            capacity,
        }
    }

    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Admit `item`, or hand it back immediately if the queue is full or
    /// closed. Never blocks.
    pub fn try_push(&self, item: T) -> Result<(), PushError<T>> {
        let mut inner = self.lock();
        if inner.closed {
            return Err(PushError::Closed(item));
        }
        if inner.items.len() >= self.capacity {
            return Err(PushError::Full(item));
        }
        inner.items.push_back(item);
        drop(inner);
        self.ready.notify_one();
        Ok(())
    }

    /// Block until an item is available or the queue is closed *and*
    /// drained. `None` means "no more work will ever arrive" — already
    /// admitted items are always delivered before that, so admission
    /// accounting stays exact across shutdown.
    pub fn pop(&self) -> Option<T> {
        let mut inner = self.lock();
        loop {
            if let Some(item) = inner.items.pop_front() {
                return Some(item);
            }
            if inner.closed {
                return None;
            }
            inner = self.ready.wait(inner).unwrap_or_else(std::sync::PoisonError::into_inner);
        }
    }

    /// Stop admitting; wake every blocked consumer. Queued items still
    /// drain through `pop`.
    pub fn close(&self) {
        self.lock().closed = true;
        self.ready.notify_all();
    }

    pub fn len(&self) -> usize {
        self.lock().items.len()
    }

    pub fn is_empty(&self) -> bool {
        self.lock().items.is_empty()
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner<T>> {
        // A consumer that panicked mid-pop leaves the queue consistent —
        // the guard only ever observes complete push/pop effects.
        self.inner.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::thread;

    #[test]
    fn overflow_hands_the_item_back() {
        let q = BoundedQueue::new(2);
        q.try_push(1).unwrap();
        q.try_push(2).unwrap();
        assert_eq!(q.try_push(3), Err(PushError::Full(3)));
        assert_eq!(q.pop(), Some(1));
        q.try_push(3).unwrap();
        assert_eq!(q.len(), 2);
    }

    #[test]
    fn close_drains_admitted_items_then_ends() {
        let q = BoundedQueue::new(4);
        q.try_push("a").unwrap();
        q.try_push("b").unwrap();
        q.close();
        assert_eq!(q.try_push("c"), Err(PushError::Closed("c")));
        assert_eq!(q.pop(), Some("a"));
        assert_eq!(q.pop(), Some("b"));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn admission_accounting_is_exact_under_concurrency() {
        let q = Arc::new(BoundedQueue::new(8));
        let workers: Vec<_> = (0..4)
            .map(|_| {
                let q = Arc::clone(&q);
                thread::spawn(move || {
                    let mut got = 0u64;
                    while q.pop().is_some() {
                        got += 1;
                    }
                    got
                })
            })
            .collect();
        let mut admitted = 0u64;
        let mut shed = 0u64;
        for i in 0..10_000u64 {
            match q.try_push(i) {
                Ok(()) => admitted += 1,
                Err(PushError::Full(_)) => shed += 1,
                Err(PushError::Closed(_)) => unreachable!("queue not closed yet"),
            }
        }
        q.close();
        let consumed: u64 = workers.into_iter().map(|w| w.join().unwrap()).sum();
        assert_eq!(admitted + shed, 10_000, "every attempt is accounted for");
        assert_eq!(consumed, admitted, "every admitted item is consumed");
    }
}
