//! Hierarchical timing wheel: the engine's event scheduler.
//!
//! Three levels of 256 slots replace the old global `BinaryHeap`:
//!
//! | level | slot width | horizon from the cursor |
//! |-------|-----------:|------------------------:|
//! | L0    | 2¹⁰ ns ≈ 1 µs   | 2¹⁸ ns ≈ 262 µs  |
//! | L1    | 2¹⁸ ns ≈ 262 µs | 2²⁶ ns ≈ 67 ms   |
//! | L2    | 2²⁶ ns ≈ 67 ms  | 2³⁴ ns ≈ 17.2 s  |
//!
//! Scheduling drops an entry into the innermost level whose horizon
//! covers its deadline — O(1), no comparisons — and anything beyond L2's
//! horizon goes to the sorted far-future heap in [`overflow`] (the only
//! module in this crate allowed to name `BinaryHeap`; lint rule D004).
//! As the cursor advances, higher-level slots *cascade*: their entries
//! redistribute into the levels below, which the slot-width alignment
//! (each level's granularity divides the next) makes exact — a higher
//! level slot boundary can never bisect a lower-level slot.
//!
//! ## Ordering contract
//!
//! Pops come out in `(deadline, insertion sequence)` order — the
//! engine's documented total order, with equal-deadline ties firing in
//! insertion order. Slot residents are unsorted until their slot is
//! drained; the drain sorts once by `(at, seq)` into the `ready` batch,
//! and because `seq` is unique the sort is a total order. The
//! equivalence proptest in `tests/wheel_props.rs` drives this scheduler
//! and a `BinaryHeap` reference model with arbitrary interleaved
//! schedule/advance sequences and asserts identical pop streams.
//!
//! There is no cancellation: the engine never withdraws a scheduled
//! event (stale timers are recognised and ignored when they fire), so
//! every stored entry is live.
//!
//! ## Same-timestamp batching
//!
//! Draining a slot serves every event in it — in particular whole
//! same-timestamp runs — from one scan. Each pop served from an
//! already-drained batch (a peek the old heap would have re-done)
//! increments the `engine.wheel.same_slot_batches` counter.

use std::collections::VecDeque;
use std::mem;

use acdc_stats::time::Nanos;
use acdc_telemetry::Counter;

pub(crate) mod overflow;

const SLOTS: usize = 256;
const WORDS: usize = SLOTS / 64;
const LEVELS: usize = 3;
/// Bit position of each level's slot width (1 µs, 262 µs, 67 ms).
const SHIFTS: [u32; LEVELS] = [10, 18, 26];

/// One scheduled event: deadline, insertion sequence, payload.
struct Entry<T> {
    at: Nanos,
    seq: u64,
    val: T,
}

/// One wheel level: 256 slots plus an occupancy bitmap so the cursor
/// skips empty stretches in O(1) words instead of slot-by-slot.
struct Level<T> {
    slots: Vec<Vec<Entry<T>>>,
    occupied: [u64; WORDS],
}

impl<T> Level<T> {
    fn new() -> Level<T> {
        Level {
            slots: (0..SLOTS).map(|_| Vec::new()).collect(),
            occupied: [0; WORDS],
        }
    }

    fn mark(&mut self, idx: usize) {
        self.occupied[idx / 64] |= 1 << (idx % 64);
    }

    fn unmark(&mut self, idx: usize) {
        self.occupied[idx / 64] &= !(1 << (idx % 64));
    }

    /// Distance (0..SLOTS, wrapping) from slot index `from` to the first
    /// occupied slot, or `None` if the level is empty.
    fn next_occupied(&self, from: usize) -> Option<usize> {
        let (fw, fb) = (from / 64, from % 64);
        let head = self.occupied[fw] >> fb;
        if head != 0 {
            return Some(head.trailing_zeros() as usize);
        }
        for k in 1..=WORDS {
            let wi = (fw + k) % WORDS;
            let base = k * 64 - fb;
            if wi == fw {
                // Wrapped all the way around: only the bits below `from`
                // in the starting word remain.
                let tail = self.occupied[fw] & ((1u64 << fb) - 1);
                return if tail != 0 {
                    Some(base + tail.trailing_zeros() as usize)
                } else {
                    None
                };
            }
            let w = self.occupied[wi];
            if w != 0 {
                return Some(base + w.trailing_zeros() as usize);
            }
        }
        None
    }
}

/// The hierarchical timing wheel (see module docs). Generic over the
/// payload so the equivalence proptest can drive it with plain tokens
/// while the engine stores event kinds.
pub struct TimerWheel<T> {
    levels: [Level<T>; LEVELS],
    overflow: overflow::FarFuture<T>,
    /// The already-drained, `(at, seq)`-sorted batch pops are served
    /// from. Always the globally earliest live entries.
    ready: VecDeque<Entry<T>>,
    /// Absolute L0 slot number `ready` was drained from, while `ready`
    /// is non-empty: same-slot schedules merge straight into the batch.
    drained_slot: Option<u64>,
    /// Time floor: no live entry is earlier than this, and schedules
    /// below it clamp up to it (fire as soon as possible).
    cur: Nanos,
    /// Live (scheduled − popped) entries.
    len: usize,
    /// Set once the first entry of a drained batch has been served;
    /// every further same-batch pop counts a saved re-scan.
    batch_started: bool,
    batches: Counter,
}

impl<T> Default for TimerWheel<T> {
    fn default() -> Self {
        TimerWheel::new()
    }
}

impl<T> TimerWheel<T> {
    /// An empty wheel with its cursor at time zero.
    pub fn new() -> TimerWheel<T> {
        TimerWheel {
            levels: [Level::new(), Level::new(), Level::new()],
            overflow: overflow::FarFuture::new(),
            ready: VecDeque::new(),
            drained_slot: None,
            cur: 0,
            len: 0,
            batch_started: false,
            batches: Counter::standalone(),
        }
    }

    /// Live entries (scheduled, not yet popped).
    pub fn len(&self) -> usize {
        self.len
    }

    /// No live entries?
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Pops served from an already-drained same-slot batch — each one a
    /// peek/rescan the `BinaryHeap` engine would have paid.
    pub fn same_slot_batches(&self) -> u64 {
        self.batches.get()
    }

    /// The live counter cell behind [`TimerWheel::same_slot_batches`],
    /// for adoption into a telemetry registry.
    pub fn batches_cell(&self) -> &Counter {
        &self.batches
    }

    /// Schedule `val` at absolute time `at` with insertion sequence
    /// `seq`. Sequences must be unique and increasing across calls (the
    /// engine's `next_seq` provides this); a deadline earlier than the
    /// cursor clamps up to it, i.e. fires as soon as possible.
    pub fn schedule(&mut self, at: Nanos, seq: u64, val: T) {
        let at = at.max(self.cur);
        self.len += 1;
        let e = Entry { at, seq, val };
        if self.drained_slot == Some(at >> SHIFTS[0]) && !self.ready.is_empty() {
            // The batch covering this deadline is already drained:
            // merge in sequence position instead of re-touching slots.
            let pos = self
                .ready
                .partition_point(|x| (x.at, x.seq) < (e.at, e.seq));
            self.ready.insert(pos, e);
            return;
        }
        self.place(e);
    }

    /// Pop the earliest live entry with deadline ≤ `limit`, as
    /// `(at, seq, payload)`, or `None` if every live entry is later.
    pub fn pop_before(&mut self, limit: Nanos) -> Option<(Nanos, u64, T)> {
        if self.ready.is_empty() && !self.refill(limit) {
            return None;
        }
        if self.ready.front()?.at > limit {
            return None;
        }
        let e = self.ready.pop_front()?;
        if self.ready.is_empty() {
            self.drained_slot = None;
        }
        self.len -= 1;
        if self.batch_started {
            self.batches.inc();
        } else {
            self.batch_started = true;
        }
        Some((e.at, e.seq, e.val))
    }

    /// Deadline of the earliest pending entry.
    pub fn peek_at(&self) -> Option<Nanos> {
        let mut best: Option<Nanos> = None;
        let mut fold = |t: Option<Nanos>| {
            best = match (best, t) {
                (Some(a), Some(b)) => Some(a.min(b)),
                (a, b) => a.or(b),
            };
        };
        fold(self.ready.front().map(|e| e.at));
        for (i, level) in self.levels.iter().enumerate() {
            fold(self.level_min(level, i));
        }
        fold(self.overflow.peek_at());
        best
    }

    /// Earliest deadline stored in `level` (index `i`): the first
    /// occupied slot cursor-outward holds the level minimum (later slots
    /// only hold later deadlines).
    fn level_min(&self, level: &Level<T>, i: usize) -> Option<Nanos> {
        let from = ((self.cur >> SHIFTS[i]) as usize) % SLOTS;
        let idx = (from + level.next_occupied(from)?) % SLOTS;
        level.slots[idx].iter().map(|e| e.at).min()
    }

    /// Drop `e` into the innermost level whose window (256 slots from
    /// the cursor's slot) covers its deadline, else the overflow heap.
    fn place(&mut self, e: Entry<T>) {
        debug_assert!(e.at >= self.cur);
        for (i, &sh) in SHIFTS.iter().enumerate() {
            if (e.at >> sh) - (self.cur >> sh) < SLOTS as u64 {
                let idx = ((e.at >> sh) as usize) % SLOTS;
                self.levels[i].slots[idx].push(e);
                self.levels[i].mark(idx);
                return;
            }
        }
        self.overflow.push(e);
    }

    /// Advance the cursor toward the earliest pending work and drain one
    /// L0 slot into `ready`, cascading higher levels and pulling from
    /// the overflow heap as their boundaries are crossed. Returns false
    /// — touching nothing — when the earliest pending deadline (or its
    /// conservatively-early slot start) exceeds `limit`, so the cursor
    /// never outruns the caller's clock.
    fn refill(&mut self, limit: Nanos) -> bool {
        if self.len == 0 {
            return false;
        }
        loop {
            // Per-level candidate: start time of the first occupied slot.
            let mut cand: [Option<u64>; LEVELS] = [None; LEVELS];
            for (i, level) in self.levels.iter().enumerate() {
                let cs = self.cur >> SHIFTS[i];
                cand[i] = level
                    .next_occupied((cs as usize) % SLOTS)
                    .map(|d| cs + d as u64);
            }
            let t = |i: usize| cand[i].map(|sn| sn << SHIFTS[i]);
            let (c0, c1, c2) = (t(0), t(1), t(2));
            let cof = self.overflow.peek_at();

            let min_aligned = [c0, c1, c2].into_iter().flatten().min();
            let Some(min_t) = [min_aligned, cof].into_iter().flatten().min() else {
                return false;
            };
            if min_t > limit {
                return false;
            }

            // The L0 candidate's slot covers [start, end): an overflow
            // head inside that window must migrate in before the slot
            // may drain (exact times versus aligned slot starts).
            let l0_end = cand[0].map(|sn| (sn << SHIFTS[0]).saturating_add(1 << SHIFTS[0]));
            let overflow_first = match (cof, min_aligned) {
                (Some(of), None) => Some(of),
                (Some(of), Some(ma)) if of <= ma => Some(of),
                (Some(of), _) if c0 == min_aligned && Some(of) < l0_end => Some(of),
                _ => None,
            };

            if let Some(of) = overflow_first {
                self.cur = self.cur.max(of);
                while let Some(at) = self.overflow.peek_at() {
                    if (at >> SHIFTS[LEVELS - 1]) - (self.cur >> SHIFTS[LEVELS - 1]) >= SLOTS as u64
                    {
                        break;
                    }
                    let e = self.overflow.pop().expect("peeked entry exists");
                    self.place(e);
                }
                continue;
            }
            // Cascade outer levels first on ties so their residents land
            // in the inner levels before an inner slot drains.
            if c2.is_some() && (c1.is_none() || c2 <= c1) && (c0.is_none() || c2 <= c0) {
                self.cascade(2, cand[2].expect("c2 is Some"));
                continue;
            }
            if c1.is_some() && (c0.is_none() || c1 <= c0) {
                self.cascade(1, cand[1].expect("c1 is Some"));
                continue;
            }
            let sn = cand[0].expect("some level had the minimum");
            self.cur = self.cur.max(sn << SHIFTS[0]);
            let idx = (sn as usize) % SLOTS;
            let mut batch = mem::take(&mut self.levels[0].slots[idx]);
            self.levels[0].unmark(idx);
            batch.sort_unstable_by_key(|e| (e.at, e.seq));
            self.ready.extend(batch);
            self.drained_slot = Some(sn);
            self.batch_started = false;
            return true;
        }
    }

    /// Move every resident of `level` slot `sn` down into the levels
    /// below (guaranteed to fit once the cursor reaches the slot start).
    fn cascade(&mut self, level: usize, sn: u64) {
        self.cur = self.cur.max(sn << SHIFTS[level]);
        let idx = (sn as usize) % SLOTS;
        let entries = mem::take(&mut self.levels[level].slots[idx]);
        self.levels[level].unmark(idx);
        for e in entries {
            self.place(e);
        }
    }
}
