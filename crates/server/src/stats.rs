//! Lock-free service counters.
//!
//! The accounting invariant the chaos suite (and the CI smoke job) checks
//! is **zero orphans**: every accepted job reaches exactly one terminal
//! status, so `accepted == completed + failed` once the server drains.

use tempart_lp::stats::Stat;
use tempart_race::sync::atomic::{AtomicU64, Ordering};

/// Defines the service counters once: the atomic [`Stats`] tallies, one
/// `note_*` bump per counter, and the [`StatsSnapshot`] copy whose
/// [`StatsSnapshot::stats`] prints each counter under its field name.
macro_rules! counters {
    ($($(#[doc = $doc:literal])+ $field:ident $(=> $note:ident)?,)*) => {
        /// Internal counters (relaxed atomics — monotone counts, no
        /// ordering dependencies).
        #[derive(Debug, Default)]
        pub(crate) struct Stats {
            $($field: AtomicU64,)*
        }

        impl Stats {
            $($(pub(crate) fn $note(&self) {
                // audit: allow(atomic-ordering) — the receiver is a macro
                // metavariable the textual lint cannot bind; the expanded
                // sites are the monotone tallies declared on `Stats`.
                self.$field.fetch_add(1, Ordering::Relaxed);
            })?)*

            pub(crate) fn snapshot(&self) -> StatsSnapshot {
                let get = |c: &AtomicU64| c.load(Ordering::Relaxed);
                StatsSnapshot {
                    $($field: get(&self.$field),)*
                }
            }
        }

        /// A point-in-time copy of the service counters.
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
        pub struct StatsSnapshot {
            $($(#[doc = $doc])+ pub $field: u64,)*
        }

        impl StatsSnapshot {
            /// Every counter under its field name, then `orphaned`: the
            /// service half of the stats schema (the solver half is
            /// [`MipStats::stats`](tempart_lp::MipStats::stats)).
            pub fn stats(&self) -> Vec<Stat> {
                vec![
                    $((stringify!($field), self.$field as f64),)*
                    ("orphaned", self.orphaned() as f64),
                ]
            }
        }
    };
}

// hb: relaxed-rmw -> relaxed-load (cell) — every counter is a monotone
// tally bumped by `fetch_add` and read only by `snapshot`; no data is
// published through a count, so `Relaxed` is sufficient on both sides
// (model: `race_models::requeue_drain_no_orphans` pins the ledger).
// hb: relaxed-load (c) — `snapshot`'s closure-parameter reads of the same
// counters.
counters! {
    /// `solve` requests received (before admission).
    submitted => note_submitted,
    /// Jobs admitted to the queue.
    accepted => note_accepted,
    /// Admission refusals other than load shedding (draining, bad budget,
    /// bad spec, bad config).
    rejected => note_rejected,
    /// Load-shed refusals (`queue-full`).
    shed => note_shed,
    /// Jobs that reached a non-`failed` terminal status.
    completed => note_completed,
    /// Jobs that terminated as `failed` (two caught panics, solver error).
    failed => note_failed,
    /// Panic-recovery requeues.
    requeues => note_requeue,
    /// Worker panics caught (injected or real).
    panics => note_panic,
    /// Torn frames observed (real truncation or the `tornframe` site).
    torn_frames => note_torn,
    /// Client connections dropped by the `disconnect` site.
    disconnects => note_disconnect,
    /// Warm-start cache hits that passed exact validation.
    cache_hits,
    /// Cache hits that failed validation and degraded to cold solves.
    cache_stale,
    /// Warm-start lookups that found nothing.
    cache_misses,
    /// Jobs that never consulted the cache (no `warm_start`, or
    /// uncacheable auto-sweep jobs).
    cache_uncached,
}

impl Stats {
    /// Records a terminal summary's cache disposition.
    pub(crate) fn note_cache(&self, disposition: &str) {
        let cell = match disposition {
            "hit" => &self.cache_hits,
            "stale" => &self.cache_stale,
            "miss" => &self.cache_misses,
            _ => &self.cache_uncached,
        };
        cell.fetch_add(1, Ordering::Relaxed);
    }
}

impl StatsSnapshot {
    /// Accepted jobs that never reached a terminal status. Zero after a
    /// graceful drain — the invariant the chaos suite pins.
    pub fn orphaned(&self) -> u64 {
        self.accepted.saturating_sub(self.completed + self.failed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn orphan_accounting() {
        let s = Stats::default();
        s.note_accepted();
        s.note_accepted();
        s.note_completed();
        assert_eq!(s.snapshot().orphaned(), 1);
        s.note_failed();
        assert_eq!(s.snapshot().orphaned(), 0);
        s.note_cache("hit");
        s.note_cache("weird");
        let snap = s.snapshot();
        assert_eq!((snap.cache_hits, snap.cache_uncached), (1, 1));
    }
}
