//! The event scheduler: a calendar queue with a near-window heap.
//!
//! The simulator's original scheduler was a global `BinaryHeap` keyed by
//! `(time, seq)`. That is O(log n) per operation with n = every pending
//! event in the simulation — at 10^5 flows the heap holds hundreds of
//! thousands of events and every push/pop walks a cold, pointer-hopping
//! tree of large entries. A calendar queue (Brown 1988) exploits what a
//! discrete-event simulation guarantees: pops are monotone in time, and
//! most events are scheduled a short, bounded distance into the future.
//! Events hash into time-indexed buckets ("days"); popping scans the
//! current day and only consults other buckets when the day is empty.
//! Amortized O(1) per operation when event times are reasonably spread.
//!
//! # Memory
//!
//! Storage is proportional to the peak number of *live* events, not to
//! the busiest day any bucket ever held. All buckets share one slab of
//! entry slots; a bucket is a `u32` head index into a singly linked list
//! threaded through the slots' `next` fields. A popped slot goes onto a
//! LIFO free list and the next push reuses it, so a steady-state push does
//! not allocate, and a resize relinks the slab in place. (One `Vec` per
//! bucket would keep each bucket's historical peak capacity: with tens of
//! thousands of buckets that waste dominated the simulator's per-flow
//! memory.)
//!
//! # Determinism
//!
//! Pop order is **exactly** ascending `(time, seq)` — byte-identical to
//! the `BinaryHeap<Reverse<Event>>` it replaces. Two mechanisms make the
//! burst case (many events at the same instant, e.g. 10^5 flow start
//! timers at t=0) both correct and fast:
//!
//! * Events due inside the *current* day are not left in their bucket but
//!   moved into a small `BinaryHeap` (`near`), so same-tick bursts cost
//!   O(log k) per event instead of O(k) bucket rescans.
//! * An event pushed *behind* the current day (time earlier than the
//!   day's start) goes straight into `near`, so it can never be missed by
//!   the forward bucket scan. The simulator never does this (time is
//!   monotone), but the structure stays correct for arbitrary inputs —
//!   the drop-in proptest against a model heap exercises exactly this.
//!
//! The order of entries inside a bucket list never matters: only `near`
//! and the fallback minimum scan decide what pops next, and both compare
//! the full `(at, seq)` key.
//!
//! Bucket count and width adapt to the number of queued events: the
//! calendar resizes (O(n), amortized) when the load factor leaves
//! [1/8, 4], aiming the bucket width at the mean event spacing so a day
//! holds O(1) events. A full fruitless sweep of the calendar (all events
//! far in the future) falls back to a direct O(n) minimum scan and jumps
//! the day straight to it, so sparse tails don't cost a bucket-by-bucket
//! crawl.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// One scheduled entry: priority `(at, seq)` plus the payload.
#[derive(Debug, Clone)]
struct Entry<T> {
    at: u64,
    seq: u64,
    item: T,
}

impl<T> PartialEq for Entry<T> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<T> Eq for Entry<T> {}
impl<T> PartialOrd for Entry<T> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<T> Ord for Entry<T> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.at, self.seq).cmp(&(other.at, other.seq))
    }
}

/// End of a bucket list or of the free list.
const NIL: u32 = u32::MAX;

/// A slab slot: a bucketed entry (`item` is `Some`) or a free slot.
#[derive(Debug)]
struct Slot<T> {
    at: u64,
    seq: u64,
    /// Next slot in the same bucket list, or in the free list.
    next: u32,
    item: Option<T>,
}

/// Calendar-queue event scheduler. See the module docs for the design.
///
/// Priorities are `(at, seq)` pairs popped in ascending order; `seq` is
/// supplied by the caller and must be unique (the simulator uses its
/// event counter), which makes the pop order a total order — there are
/// no ambiguous ties for the bucket layout to leak through.
#[derive(Debug)]
pub struct CalendarQueue<T> {
    /// Entry storage shared by every bucket.
    slab: Vec<Slot<T>>,
    /// Head of the free-slot list (LIFO).
    free: u32,
    /// First slot of each bucket's list; an event lives in bucket
    /// `(at / width) % nbuckets`.
    heads: Vec<u32>,
    /// Power-of-two bucket count minus one.
    mask: usize,
    /// Day width in time units (≥ 1).
    width: u64,
    /// Index of the current day's bucket.
    cur: usize,
    /// Exclusive upper bound of the current day: events with
    /// `at < day_end` are due in this day. u128 so the last day before
    /// `u64::MAX` needs no special casing.
    day_end: u128,
    /// Events due in the current day (or pushed behind it), popped in
    /// exact `(at, seq)` order.
    near: BinaryHeap<Reverse<Entry<T>>>,
    /// Total queued events (buckets + near).
    len: usize,
}

const MIN_BUCKETS: usize = 8;

impl<T> CalendarQueue<T> {
    /// An empty scheduler.
    pub fn new() -> Self {
        CalendarQueue {
            slab: Vec::new(),
            free: NIL,
            heads: vec![NIL; MIN_BUCKETS],
            mask: MIN_BUCKETS - 1,
            width: 1,
            cur: 0,
            day_end: 1,
            near: BinaryHeap::new(),
            len: 0,
        }
    }

    /// Number of queued events.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when nothing is scheduled.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Schedule `item` at priority `(at, seq)`.
    pub fn push(&mut self, at: u64, seq: u64, item: T) {
        self.len += 1;
        if (at as u128) < self.day_end {
            // Due today (or pushed behind the current day): the forward
            // bucket scan must not be able to miss it.
            self.near.push(Reverse(Entry { at, seq, item }));
        } else {
            let slot = Slot {
                at,
                seq,
                next: NIL,
                item: Some(item),
            };
            let i = if self.free == NIL {
                assert!(self.slab.len() < NIL as usize, "slab indices fit in u32");
                self.slab.push(slot);
                self.slab.len() as u32 - 1
            } else {
                let i = self.free;
                self.free = self.slab[i as usize].next;
                self.slab[i as usize] = slot;
                i
            };
            self.link(i);
        }
        if self.len > 4 * self.heads.len() {
            self.resize();
        }
    }

    /// Remove and return the minimum-priority event.
    pub fn pop(&mut self) -> Option<(u64, u64, T)> {
        if self.len == 0 {
            return None;
        }
        if self.near.is_empty() {
            self.advance_to_next_event();
        }
        let Reverse(e) = self.near.pop().expect("advance found an event");
        self.len -= 1;
        if self.len < self.heads.len() / 8 && self.heads.len() > MIN_BUCKETS {
            self.resize();
        }
        Some((e.at, e.seq, e.item))
    }

    /// Prepend live slot `i` to the list of the bucket its time maps to.
    fn link(&mut self, i: u32) {
        let b = ((self.slab[i as usize].at / self.width) as usize) & self.mask;
        self.slab[i as usize].next = self.heads[b];
        self.heads[b] = i;
    }

    /// Move live slot `i`'s entry into `near` and put the slot on the free
    /// list. The caller has already unlinked it from its bucket.
    fn release_to_near(&mut self, i: u32) {
        let slot = &mut self.slab[i as usize];
        let item = slot.item.take().expect("linked slots are live");
        self.near.push(Reverse(Entry {
            at: slot.at,
            seq: slot.seq,
            item,
        }));
        slot.next = self.free;
        self.free = i;
    }

    /// Move every entry of bucket `b` that is due before `day_end` into
    /// `near`.
    fn drain_due(&mut self, b: usize) {
        let mut prev = NIL;
        let mut i = self.heads[b];
        while i != NIL {
            let slot = &self.slab[i as usize];
            let next = slot.next;
            if (slot.at as u128) < self.day_end {
                if prev == NIL {
                    self.heads[b] = next;
                } else {
                    self.slab[prev as usize].next = next;
                }
                self.release_to_near(i);
            } else {
                prev = i;
            }
            i = next;
        }
    }

    /// Walk days forward until at least one due event lands in `near`.
    /// Caller guarantees the queue is non-empty and `near` is empty.
    fn advance_to_next_event(&mut self) {
        for _ in 0..=self.heads.len() {
            self.drain_due(self.cur);
            if !self.near.is_empty() {
                return;
            }
            self.cur = (self.cur + 1) & self.mask;
            self.day_end += self.width as u128;
        }
        // A whole year of empty days: every event is far away. Find the
        // global minimum directly and jump the calendar to its day.
        let at = self
            .slab
            .iter()
            .filter(|s| s.item.is_some())
            .min_by_key(|s| (s.at, s.seq))
            .map(|s| s.at)
            .expect("queue is non-empty");
        self.cur = ((at / self.width) as usize) & self.mask;
        self.day_end = (at as u128 / self.width as u128 + 1) * self.width as u128;
        self.drain_due(self.cur);
    }

    /// Rebuild the calendar for the current event count: bucket count
    /// tracks `len` and the day width tracks the mean spacing of queued
    /// events, so a day holds O(1) events. The slab is relinked in place.
    fn resize(&mut self) {
        let target = (self.len.max(1)).next_power_of_two().max(MIN_BUCKETS);
        let floor = self.day_end.saturating_sub(self.width as u128) as u64;
        let (mut lo, mut hi) = (u64::MAX, 0u64);
        for s in self.slab.iter().filter(|s| s.item.is_some()) {
            lo = lo.min(s.at);
            hi = hi.max(s.at);
        }
        for Reverse(e) in self.near.iter() {
            lo = lo.min(e.at);
            hi = hi.max(e.at);
        }
        let span = hi.saturating_sub(lo.min(floor));
        // Mean spacing, clamped: a zero span (everything same-tick) gets
        // width 1; a huge span (one far-future tail event) is capped so
        // the common near-term events still spread across buckets.
        self.width = (span / self.len.max(1) as u64).clamp(1, u64::MAX / (4 * target as u64));
        self.mask = target - 1;
        self.heads = vec![NIL; target];
        // Anchor the new calendar at the first new-width day boundary at or
        // after the old `day_end`. `day_end` must never move backwards: the
        // near heap holds everything earlier than the old `day_end`, and
        // pop trusts that every bucketed event is later than every near
        // event. (A shrinking width would otherwise pull `day_end` back and
        // strand in-between events in buckets behind the near heap.)
        let w = self.width as u128;
        self.day_end = self.day_end.div_ceil(w) * w;
        self.cur = ((self.day_end / w - 1) % (target as u128)) as usize;
        // Relink every slot under the new geometry. Walking backwards
        // leaves the lowest free index at the head of the free list.
        self.free = NIL;
        for i in (0..self.slab.len() as u32).rev() {
            let slot = &mut self.slab[i as usize];
            if slot.item.is_none() {
                slot.next = self.free;
                self.free = i;
            } else if (slot.at as u128) < self.day_end {
                self.release_to_near(i);
            } else {
                self.link(i);
            }
        }
    }
}

impl<T> Default for CalendarQueue<T> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Drain fully; returns (at, seq) in pop order.
    fn drain(q: &mut CalendarQueue<u32>) -> Vec<(u64, u64)> {
        let mut out = Vec::new();
        while let Some((at, seq, _)) = q.pop() {
            out.push((at, seq));
        }
        out
    }

    #[test]
    fn pops_in_time_then_seq_order() {
        let mut q = CalendarQueue::new();
        q.push(50, 1, 0);
        q.push(10, 2, 0);
        q.push(10, 3, 0);
        q.push(0, 4, 0);
        q.push(50, 5, 0);
        assert_eq!(q.len(), 5);
        assert_eq!(
            drain(&mut q),
            vec![(0, 4), (10, 2), (10, 3), (50, 1), (50, 5)]
        );
        assert!(q.is_empty());
    }

    #[test]
    fn same_tick_burst_preserves_insertion_order() {
        let mut q = CalendarQueue::new();
        for seq in 0..10_000u64 {
            q.push(42, seq, 0);
        }
        let order = drain(&mut q);
        assert!(order
            .iter()
            .enumerate()
            .all(|(i, &(at, seq))| at == 42 && seq == i as u64));
    }

    #[test]
    fn interleaved_push_pop_stays_sorted() {
        let mut q = CalendarQueue::new();
        let mut seq = 0u64;
        let mut popped = Vec::new();
        // Monotone-ish workload with re-pushes relative to the popped time,
        // like timers re-arming off `now`.
        q.push(0, seq, 0);
        seq += 1;
        while let Some((at, s, _)) = q.pop() {
            popped.push((at, s));
            if seq < 2000 {
                q.push(at + (seq % 7) * 3, seq, 0);
                seq += 1;
                q.push(at + 1000 + seq % 13, seq, 0);
                seq += 1;
            }
        }
        let mut sorted = popped.clone();
        sorted.sort();
        assert_eq!(popped, sorted);
        assert_eq!(popped.len(), 2001); // 1 seed + 2 re-pushes per pop while seq < 2000
    }

    #[test]
    fn sparse_far_future_events_are_found() {
        let mut q = CalendarQueue::new();
        // Trigger resizes with a dense cluster, then leave only sparse
        // far-future events, exercising the direct-scan jump.
        for seq in 0..200u64 {
            q.push(seq, seq, 0);
        }
        q.push(1_000_000_000_000, 200, 0);
        q.push(30_000_000_000_000, 201, 0);
        q.push(u64::MAX, 202, 0);
        let order = drain(&mut q);
        assert_eq!(order.len(), 203);
        assert_eq!(order[200], (1_000_000_000_000, 200));
        assert_eq!(order[201], (30_000_000_000_000, 201));
        assert_eq!(order[202], (u64::MAX, 202));
    }

    #[test]
    fn push_behind_current_day_is_not_lost() {
        let mut q = CalendarQueue::new();
        q.push(1_000_000, 0, 0);
        assert_eq!(q.pop().map(|(at, ..)| at), Some(1_000_000));
        // The day has advanced to ~1ms; push an "earlier" event.
        q.push(3, 1, 7);
        q.push(2_000_000, 2, 8);
        assert_eq!(q.pop(), Some((3, 1, 7)));
        assert_eq!(q.pop().map(|(at, ..)| at), Some(2_000_000));
    }

    #[test]
    fn shrink_grow_cycles_keep_everything() {
        let mut q = CalendarQueue::new();
        let mut seq = 0u64;
        for round in 0..5u64 {
            for i in 0..1000u64 {
                q.push(round * 1_000_000 + i * 997, seq, 0);
                seq += 1;
            }
            for _ in 0..900 {
                assert!(q.pop().is_some());
            }
        }
        let rest = drain(&mut q);
        assert_eq!(rest.len(), 500);
        assert!(rest.windows(2).all(|w| w[0] <= w[1]));
    }

    /// Hold workload (pop one event, push one replacement) with the bimodal
    /// delays of a packet simulation: dense sub-millisecond pacing and
    /// transmission events plus a tail of feedback/timeout timers seconds
    /// out. Over many calendar years every bucket takes its turn at being
    /// the dense one; the entry storage retained must still track the live
    /// count, not what each bucket once held.
    #[test]
    fn storage_tracks_live_events_not_bucket_history() {
        let live = 512u64;
        let mut rng = crate::rng::DetRng::new(7);
        let delay = |rng: &mut crate::rng::DetRng| {
            if rng.chance(0.02) {
                1_000_000_000 + rng.below(1_000_000_000)
            } else {
                10_000 + rng.below(990_000)
            }
        };
        let mut q = CalendarQueue::new();
        for seq in 0..live {
            q.push(delay(&mut rng), seq, 0u32);
        }
        let (mut slab, mut near) = (0, 0);
        let (mut last_cur, mut years) = (q.cur, 0);
        for seq in live..live + 600_000 {
            let (at, ..) = q.pop().expect("hold keeps the queue full");
            q.push(at + delay(&mut rng), seq, 0);
            slab = slab.max(q.slab.capacity() as u64);
            near = near.max(q.near.capacity() as u64);
            years += u64::from(q.cur < last_cur);
            last_cur = q.cur;
        }
        assert!(years >= 5, "the run wraps the calendar ({years} years)");
        assert!(
            slab <= 2 * live,
            "{slab} bucket slots for {live} live events"
        );
        assert!(near <= 2 * live, "{near} near slots for {live} live events");
        assert_eq!(q.heads.len(), q.mask + 1, "one head per bucket");
    }
}
