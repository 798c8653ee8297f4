//! Operation counters: which path each update took, how often structure
//! maintenance fired. These feed the experiment harness and the tests
//! that pin down strategy behaviour (e.g. "with ε = 0 no update may take
//! the extension path").

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

/// How an update was carried out — the outcome classes of Algorithms 1–2.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UpdateOutcome {
    /// New location inside the leaf MBR: leaf rewritten in place.
    InPlace,
    /// Leaf MBR enlarged (uniformly for LBU, directionally for GBU).
    Extended,
    /// Entry moved to a sibling leaf under the same parent.
    Shifted,
    /// Entry re-inserted from an ancestor found by `FindParent`,
    /// `levels` above the leaf.
    Ascended {
        /// Levels climbed above the leaf (1 = re-insert from the parent).
        levels: u16,
    },
    /// Full top-down delete + insert (the fallback, and all TD updates).
    TopDown,
}

impl UpdateOutcome {
    /// Stable label for reports.
    #[must_use]
    pub fn label(&self) -> &'static str {
        match self {
            UpdateOutcome::InPlace => "in_place",
            UpdateOutcome::Extended => "extended",
            UpdateOutcome::Shifted => "shifted",
            UpdateOutcome::Ascended { .. } => "ascended",
            UpdateOutcome::TopDown => "top_down",
        }
    }
}

macro_rules! op_stats {
    ($($(#[$doc:meta])* $field:ident),+ $(,)?) => {
        /// Atomic operation counters kept by the index.
        #[derive(Debug, Default)]
        pub struct OpStats {
            $($(#[$doc])* pub(crate) $field: AtomicU64,)+
        }

        /// Point-in-time copy of [`OpStats`].
        #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
        pub struct OpSnapshot {
            $($(#[$doc])* pub $field: u64,)+
        }

        impl OpStats {
            /// Capture current values.
            #[must_use]
            pub fn snapshot(&self) -> OpSnapshot {
                OpSnapshot {
                    $($field: self.$field.load(Ordering::Relaxed),)+
                }
            }

            /// Zero all counters.
            pub fn reset(&self) {
                $(self.$field.store(0, Ordering::Relaxed);)+
            }
        }

        impl OpSnapshot {
            /// Counter-wise `self − earlier`.
            #[must_use]
            pub fn since(&self, earlier: &OpSnapshot) -> OpSnapshot {
                OpSnapshot {
                    $($field: self.$field.saturating_sub(earlier.$field),)+
                }
            }
        }
    };
}

op_stats! {
    /// Objects inserted.
    inserts,
    /// Objects deleted.
    deletes,
    /// Updates processed (any outcome).
    updates,
    /// Updates resolved in place.
    upd_in_place,
    /// Updates resolved by MBR extension.
    upd_extended,
    /// Updates resolved by sibling shift.
    upd_shifted,
    /// Updates resolved by ascending and re-inserting.
    upd_ascended,
    /// Updates that fell back to a full top-down delete + insert.
    upd_top_down,
    /// Window queries answered.
    queries,
    /// Node splits performed.
    splits,
    /// Nodes dissolved by CondenseTree (underflow).
    condenses,
    /// Entries re-inserted by CondenseTree.
    reinserted_entries,
    /// Entries piggybacked during sibling shifts.
    piggybacked,
    /// R* forced-reinsertion events (overflow treated without a split).
    forced_reinserts,
    /// Entries evicted and re-inserted by R* forced reinsertion.
    forced_reinserted_entries,
    /// Batches that fell off the concurrent (shared-lock) write path
    /// onto the exclusive path: every batch with an insert or a delete,
    /// and every batch of updates one of which is not leaf-local.
    escalations,
    /// Always 0: the shared write path plans updates only, so no leaf is
    /// split to keep an insert on it. Kept because the `perfbench`
    /// harness still reads it; it goes when the harness stops (ROADMAP
    /// item 1a).
    make_room_splits,
}

impl OpStats {
    /// Record one update outcome.
    pub fn record_update(&self, outcome: UpdateOutcome) {
        self.updates.fetch_add(1, Ordering::Relaxed);
        let counter = match outcome {
            UpdateOutcome::InPlace => &self.upd_in_place,
            UpdateOutcome::Extended => &self.upd_extended,
            UpdateOutcome::Shifted => &self.upd_shifted,
            UpdateOutcome::Ascended { .. } => &self.upd_ascended,
            UpdateOutcome::TopDown => &self.upd_top_down,
        };
        counter.fetch_add(1, Ordering::Relaxed);
    }
}

impl fmt::Display for OpSnapshot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "updates={} (in_place={} extended={} shifted={} ascended={} top_down={}) \
             inserts={} deletes={} queries={} splits={} condenses={} reinserted={} piggybacked={} \
             forced_reinserts={} forced_reinserted={} escalations={} make_room_splits={}",
            self.updates,
            self.upd_in_place,
            self.upd_extended,
            self.upd_shifted,
            self.upd_ascended,
            self.upd_top_down,
            self.inserts,
            self.deletes,
            self.queries,
            self.splits,
            self.condenses,
            self.reinserted_entries,
            self.piggybacked,
            self.forced_reinserts,
            self.forced_reinserted_entries,
            self.escalations,
            self.make_room_splits,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn outcome_recording() {
        let s = OpStats::default();
        s.record_update(UpdateOutcome::InPlace);
        s.record_update(UpdateOutcome::InPlace);
        s.record_update(UpdateOutcome::Ascended { levels: 2 });
        s.record_update(UpdateOutcome::TopDown);
        let snap = s.snapshot();
        assert_eq!(snap.updates, 4);
        assert_eq!(snap.upd_in_place, 2);
        assert_eq!(snap.upd_ascended, 1);
        assert_eq!(snap.upd_top_down, 1);
        assert_eq!(snap.upd_extended, 0);
    }

    #[test]
    fn snapshot_delta_and_reset() {
        let s = OpStats::default();
        s.record_update(UpdateOutcome::Shifted);
        let a = s.snapshot();
        s.record_update(UpdateOutcome::Shifted);
        let d = s.snapshot().since(&a);
        assert_eq!(d.upd_shifted, 1);
        s.reset();
        assert_eq!(s.snapshot(), OpSnapshot::default());
    }

    #[test]
    fn labels() {
        assert_eq!(UpdateOutcome::InPlace.label(), "in_place");
        assert_eq!(UpdateOutcome::Ascended { levels: 1 }.label(), "ascended");
        let snap = OpStats::default().snapshot();
        assert!(snap.to_string().contains("updates=0"));
    }
}
