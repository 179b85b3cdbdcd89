//! The visibility probe: matches writes the generator issued against the
//! values subscriber-side ORM after-write callbacks observe.
//!
//! Each probed row has a key and a value that only grows with every write
//! to it (a sequence number, a revision, a counter). Before an operation is
//! sent, the generator registers `(key, value)` for every probed
//! subscriber with the operation's intended send time. A subscriber's
//! callback reporting `(key, seen)` satisfies every pending expectation of
//! that row with `value <= seen`: the write itself, or a newer one of the
//! same row, is visible. That covers weak delivery, which may skip an
//! intermediate write (one apply satisfies several expectations) or apply
//! an older write late (it satisfies nothing).

use crate::clock::now_ns;
use parking_lot::Mutex;
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};

const SHARDS: usize = 64;

/// One satisfied expectation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Hit {
    /// Probed subscriber index.
    pub sub: usize,
    /// Operation send index.
    pub op: u64,
    /// Intended send time of the operation.
    pub intended_ns: u64,
    /// When the subscriber's callback saw the write (or a newer one).
    pub seen_ns: u64,
}

impl Hit {
    /// Intended send → visible.
    pub fn latency_ns(&self) -> u64 {
        self.seen_ns.saturating_sub(self.intended_ns)
    }
}

#[derive(Debug, Clone, Copy)]
struct Pending {
    value: u64,
    op: u64,
    intended_ns: u64,
}

#[derive(Default)]
struct Row {
    seen: Option<u64>,
    /// Ascending by value.
    pending: VecDeque<Pending>,
}

#[derive(Default)]
struct Shard {
    rows: HashMap<(usize, u64), Row>,
    hits: Vec<Hit>,
}

/// See the module docs.
pub struct Probe {
    subs: usize,
    shards: Vec<Mutex<Shard>>,
    expected: AtomicU64,
    matched: AtomicU64,
}

impl Probe {
    /// A probe over `subs` subscribers, indexed `0..subs`.
    pub fn new(subs: usize) -> Probe {
        Probe {
            subs,
            shards: (0..SHARDS).map(|_| Mutex::new(Shard::default())).collect(),
            expected: AtomicU64::new(0),
            matched: AtomicU64::new(0),
        }
    }

    fn shard(&self, sub: usize, key: u64) -> &Mutex<Shard> {
        let h = key.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ sub as u64;
        &self.shards[(h >> 32) as usize % SHARDS]
    }

    /// Registers operation `op`'s write of `value` to row `key` on every
    /// probed subscriber. Call before the operation is sent.
    pub fn expect(&self, op: u64, key: u64, value: u64, intended_ns: u64) {
        for sub in 0..self.subs {
            self.expected.fetch_add(1, Ordering::Relaxed);
            let mut shard = self.shard(sub, key).lock();
            let shard = &mut *shard;
            let row = shard.rows.entry((sub, key)).or_default();
            if row.seen.is_some_and(|seen| seen >= value) {
                shard.hits.push(Hit {
                    sub,
                    op,
                    intended_ns,
                    seen_ns: now_ns().max(intended_ns),
                });
                self.matched.fetch_add(1, Ordering::Relaxed);
                continue;
            }
            let at = row.pending.partition_point(|p| p.value <= value);
            row.pending.insert(
                at,
                Pending {
                    value,
                    op,
                    intended_ns,
                },
            );
        }
    }

    /// Reports that subscriber `sub` now shows `value` for row `key`.
    pub fn observe(&self, sub: usize, key: u64, value: u64) {
        let now = now_ns();
        let mut shard = self.shard(sub, key).lock();
        let shard = &mut *shard;
        let row = shard.rows.entry((sub, key)).or_default();
        row.seen = Some(row.seen.map_or(value, |s| s.max(value)));
        while row.pending.front().is_some_and(|p| p.value <= value) {
            let p = row.pending.pop_front().expect("front checked");
            shard.hits.push(Hit {
                sub,
                op: p.op,
                intended_ns: p.intended_ns,
                seen_ns: now,
            });
            self.matched.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Expectations registered but not yet satisfied.
    pub fn outstanding(&self) -> u64 {
        self.expected
            .load(Ordering::Relaxed)
            .saturating_sub(self.matched.load(Ordering::Relaxed))
    }

    /// Removes and returns every hit recorded so far.
    pub fn take_hits(&self) -> Vec<Hit> {
        let mut out = Vec::new();
        for shard in &self.shards {
            out.append(&mut shard.lock().hits);
        }
        out
    }

    /// Operations with an expectation still pending on some subscriber.
    pub fn unmatched_ops(&self) -> Vec<u64> {
        let mut ops: Vec<u64> = self
            .shards
            .iter()
            .flat_map(|s| {
                s.lock()
                    .rows
                    .values()
                    .flat_map(|r| r.pending.iter().map(|p| p.op))
                    .collect::<Vec<_>>()
            })
            .collect();
        ops.sort_unstable();
        ops.dedup();
        ops
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ops_of(hits: &[Hit]) -> Vec<(usize, u64)> {
        let mut v: Vec<(usize, u64)> = hits.iter().map(|h| (h.sub, h.op)).collect();
        v.sort_unstable();
        v
    }

    #[test]
    fn exact_apply_satisfies_its_own_write() {
        let p = Probe::new(1);
        p.expect(7, 100, 1, 0);
        assert_eq!(p.outstanding(), 1);
        p.observe(0, 100, 1);
        assert_eq!(p.outstanding(), 0);
        assert_eq!(ops_of(&p.take_hits()), vec![(0, 7)]);
    }

    #[test]
    fn coalesced_weak_apply_satisfies_every_older_write() {
        let p = Probe::new(1);
        for (op, value) in [(1, 10), (2, 20), (3, 30)] {
            p.expect(op, 5, value, 0);
        }
        // Weak delivery skipped 10 and 20: applying 30 shows all three.
        p.observe(0, 5, 30);
        assert_eq!(ops_of(&p.take_hits()), vec![(0, 1), (0, 2), (0, 3)]);
        assert_eq!(p.outstanding(), 0);
    }

    #[test]
    fn late_stale_apply_satisfies_nothing() {
        let p = Probe::new(1);
        p.expect(1, 5, 10, 0);
        p.expect(2, 5, 20, 0);
        p.observe(0, 5, 20);
        assert_eq!(p.take_hits().len(), 2);
        // The older write arrives after the newer one: no new hit, and
        // the row's high-water mark does not regress.
        p.observe(0, 5, 10);
        assert!(p.take_hits().is_empty());
        p.expect(3, 5, 15, 0);
        assert_eq!(p.outstanding(), 0, "15 <= 20 already visible");
    }

    #[test]
    fn partial_apply_leaves_newer_writes_pending() {
        let p = Probe::new(2);
        p.expect(1, 9, 1, 0);
        p.expect(2, 9, 2, 0);
        p.observe(0, 9, 1);
        p.observe(1, 9, 2);
        assert_eq!(ops_of(&p.take_hits()), vec![(0, 1), (1, 1), (1, 2)]);
        assert_eq!(p.outstanding(), 1);
        assert_eq!(p.unmatched_ops(), vec![2]);
        p.observe(0, 9, 2);
        assert_eq!(p.outstanding(), 0);
        assert!(p.unmatched_ops().is_empty());
    }

    #[test]
    fn rows_and_subscribers_are_independent() {
        let p = Probe::new(2);
        p.expect(1, 1, 5, 0);
        p.observe(0, 2, 99);
        p.observe(1, 1, 5);
        assert_eq!(ops_of(&p.take_hits()), vec![(1, 1)]);
        assert_eq!(p.unmatched_ops(), vec![1]);
    }

    #[test]
    fn latency_runs_from_the_intended_send_time() {
        let p = Probe::new(1);
        let intended = now_ns();
        p.expect(1, 1, 1, intended);
        p.observe(0, 1, 1);
        let hit = p.take_hits()[0];
        assert_eq!(hit.intended_ns, intended);
        assert!(hit.seen_ns >= intended);
        assert_eq!(hit.latency_ns(), hit.seen_ns - intended);
    }
}
