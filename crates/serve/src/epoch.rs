//! Epoched snapshots: how readers get snapshot isolation.
//!
//! The writer (the single mutation path in [`crate::Server`]) owns a
//! mutable working state — the *tail*. At each commit boundary it seals
//! the tail into an immutable [`Epoch`] and publishes it through the
//! [`EpochStore`]; readers pin the current epoch with one
//! `Arc`-clone under a read lock and evaluate against it lock-free for
//! as long as they like. A query therefore observes either the state
//! before a mutation or after it — never a half-applied round, and
//! never a torn instance, because an [`Epoch`]'s instance is immutable
//! from the moment it is published.
//!
//! Publishing is cheap on both ends. An epoch shares the writer's
//! instance and vocabulary through `Arc`s: the next mutation copies the
//! instance (a few buffer memcpys, see [`bddfc_core::instance`]) only
//! because the epoch still holds it, and a commit whose write interned
//! no new name republishes the previous epoch's vocabulary as is. The
//! replaced epoch is freed after the publication lock is released.
//!
//! The sealed state also records its *segment boundaries*: each
//! successful insert commit seals the facts it appended as one more
//! segment (inserts append, so a segment is a contiguous fact range and
//! `segments` is a cumulative-length vector). A retraction removes facts
//! from the middle of the store, so it reseals it as a single segment.
//! Readers can use the boundaries to attribute facts to commits; the
//! `stats` protocol command reports the segment count.

use bddfc_chase::BudgetExhausted;
use bddfc_core::{Instance, Vocabulary};
use std::sync::{Arc, RwLock};

/// One published, immutable snapshot of the service state.
#[derive(Clone)]
pub struct Epoch {
    /// Monotone epoch id: 0 is the pre-load empty state, each committed
    /// mutation bumps it by one.
    pub id: u64,
    /// The vocabulary as of this epoch (queries parse against a clone,
    /// so reader-side interning never leaks into the shared state).
    pub voc: Arc<Vocabulary>,
    /// The chased instance as of this epoch.
    pub instance: Arc<Instance>,
    /// Cumulative sealed-segment boundaries into `instance.facts()`:
    /// `facts()[segments[i-1]..segments[i]]` is the i-th sealed batch
    /// (with an implicit leading 0). The last entry equals
    /// `instance.len()`.
    pub segments: Arc<Vec<usize>>,
    /// Whether the instance is at a fixpoint of the theory — required
    /// for a non-witnessed query to read as certainly false.
    pub complete: bool,
    /// `Some` iff `!complete`: which budget stopped the closure.
    pub exhausted: Option<BudgetExhausted>,
}

impl Epoch {
    /// The empty epoch 0 over an initial vocabulary.
    pub fn empty(voc: Vocabulary) -> Self {
        Epoch {
            id: 0,
            voc: Arc::new(voc),
            instance: Arc::new(Instance::new()),
            segments: Arc::new(vec![0]),
            complete: true,
            exhausted: None,
        }
    }
}

/// The single-writer/multi-reader publication point for [`Epoch`]s.
pub struct EpochStore {
    current: RwLock<Arc<Epoch>>,
}

impl EpochStore {
    /// A store whose current epoch is `initial`.
    pub fn new(initial: Epoch) -> Self {
        EpochStore { current: RwLock::new(Arc::new(initial)) }
    }

    /// Pins the current epoch: one `Arc` clone under a read lock. The
    /// returned snapshot stays valid (and immutable) however many
    /// epochs are published after it.
    pub fn snapshot(&self) -> Arc<Epoch> {
        self.current.read().expect("epoch lock poisoned").clone()
    }

    /// Publishes `epoch` as the new current state. Called only by the
    /// writer, after the working state is fully closed — readers never
    /// see intermediate rounds. The replaced epoch is released after the
    /// write lock is, so a reader's [`EpochStore::snapshot`] never waits
    /// on freeing it.
    pub fn publish(&self, epoch: Epoch) {
        let replaced = std::mem::replace(
            &mut *self.current.write().expect("epoch lock poisoned"),
            Arc::new(epoch),
        );
        drop(replaced);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshots_survive_later_publishes() {
        let store = EpochStore::new(Epoch::empty(Vocabulary::new()));
        let pinned = store.snapshot();
        assert_eq!(pinned.id, 0);
        let mut voc = Vocabulary::new();
        let p = voc.pred("P", 1);
        let c = voc.constant("c");
        let mut inst = Instance::new();
        inst.insert(bddfc_core::Fact::new(p, vec![c]));
        store.publish(Epoch {
            id: 1,
            voc: Arc::new(voc),
            instance: Arc::new(inst),
            segments: Arc::new(vec![1]),
            complete: true,
            exhausted: None,
        });
        // The old pin still reads the old state; a fresh pin the new.
        assert_eq!(pinned.instance.len(), 0);
        let fresh = store.snapshot();
        assert_eq!(fresh.id, 1);
        assert_eq!(fresh.instance.len(), 1);
        assert_eq!(*fresh.segments, vec![1]);
    }
}
