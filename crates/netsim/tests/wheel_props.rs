//! Scheduler equivalence: the hierarchical timing wheel must be
//! observationally identical to the sorted `(timestamp, insertion
//! sequence)` heap it replaced. For arbitrary interleavings of
//! `schedule` / `advance-and-drain` — deadline mixes spanning
//! every wheel level, the far-future overflow heap, and same-timestamp
//! ties — both schedulers must emit the exact same pop sequence. This is
//! the property that pins the engine's documented total order (equal
//! deadlines fire in insertion order) across the heap → wheel port.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use acdc_netsim::TimerWheel;
use proptest::prelude::*;

/// One scheduler operation. Deltas are relative to the current virtual
/// time, mirroring how the engine always schedules at `now + delay`.
#[derive(Debug, Clone)]
enum Op {
    /// Schedule a timer `dt` past the current floor.
    Schedule { dt: u64 },
    /// Advance the clock by `dt` and drain everything due.
    Advance { dt: u64 },
}

/// Deadline deltas weighted to stress every storage tier: same-slot
/// ties, the three wheel levels (slot sizes 2^10 / 2^18 / 2^26 ns), and
/// the overflow heap past the 2^34 ns horizon.
fn arb_dt() -> impl Strategy<Value = u64> {
    prop_oneof![
        4 => 0u64..4,                          // same-slot ties
        4 => 0u64..(1 << 12),                  // level 0
        3 => (1u64 << 12)..(1 << 20),          // level 1
        3 => (1u64 << 20)..(1 << 28),          // level 2
        2 => (1u64 << 28)..(1 << 36),          // level 2 far + overflow
    ]
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        6 => arb_dt().prop_map(|dt| Op::Schedule { dt }),
        3 => arb_dt().prop_map(|dt| Op::Advance { dt }),
    ]
}

/// The reference scheduler: exactly the engine's old implementation — a
/// min-heap on `(timestamp, sequence)`.
#[derive(Default)]
struct HeapModel {
    heap: BinaryHeap<Reverse<(u64, u64, u32)>>,
}

impl HeapModel {
    fn schedule(&mut self, at: u64, seq: u64, val: u32) {
        self.heap.push(Reverse((at, seq, val)));
    }

    fn pop_before(&mut self, limit: u64) -> Option<(u64, u64, u32)> {
        let &Reverse((at, _, _)) = self.heap.peek()?;
        if at > limit {
            return None;
        }
        self.heap.pop().map(|Reverse(e)| e)
    }
}

proptest! {
    #[test]
    fn wheel_matches_heap_on_arbitrary_op_sequences(
        ops in prop::collection::vec(arb_op(), 1..120),
    ) {
        let mut wheel: TimerWheel<u32> = TimerWheel::new();
        let mut model = HeapModel::default();
        let mut now = 0u64;
        let mut next_seq = 0u64;
        let mut live: Vec<u64> = Vec::new(); // seqs scheduled, not popped

        for op in &ops {
            match *op {
                Op::Schedule { dt } => {
                    let at = now + dt;
                    let seq = next_seq;
                    next_seq += 1;
                    // The payload encodes the seq so value mismatches
                    // are caught independently of ordering mismatches.
                    let val = seq as u32;
                    wheel.schedule(at, seq, val);
                    model.schedule(at, seq, val);
                    live.push(seq);
                }
                Op::Advance { dt } => {
                    let limit = now + dt;
                    loop {
                        let got = wheel.pop_before(limit);
                        let want = model.pop_before(limit);
                        prop_assert_eq!(got, want, "pop divergence at limit {}", limit);
                        match got {
                            Some((at, seq, _)) => {
                                prop_assert!(at <= limit);
                                live.retain(|&s| s != seq);
                            }
                            None => break,
                        }
                    }
                    now = limit;
                }
            }
            prop_assert_eq!(wheel.len(), live.len(), "live-count divergence");
        }

        // Final total drain: everything still pending must come out of
        // both schedulers in the same order.
        loop {
            let got = wheel.pop_before(u64::MAX);
            let want = model.pop_before(u64::MAX);
            prop_assert_eq!(got, want, "final drain divergence");
            if got.is_none() {
                break;
            }
        }
        prop_assert!(wheel.is_empty());
    }

    /// Equal-deadline bursts specifically: N timers on one timestamp,
    /// scheduled in interleaved batches, must fire strictly in insertion
    /// order (the FIFO-tie contract `Network::schedule_timer_at`
    /// documents).
    #[test]
    fn equal_deadline_ties_fire_in_insertion_order(
        base in 0u64..(1 << 30),
        burst in 2usize..24,
    ) {
        let mut wheel: TimerWheel<u32> = TimerWheel::new();
        for seq in 0..burst as u64 {
            wheel.schedule(base, seq, seq as u32);
        }
        let mut fired = Vec::new();
        while let Some((at, seq, val)) = wheel.pop_before(u64::MAX) {
            prop_assert_eq!(at, base);
            prop_assert_eq!(seq as u32, val);
            fired.push(seq);
        }
        let expect: Vec<u64> = (0..burst as u64).collect();
        prop_assert_eq!(fired, expect);
    }
}
