//! Property tests for `FlowTable` capacity invariants: under arbitrary
//! interleavings of create / remove / touch / gc the table never exceeds
//! its cap, its O(1) count always agrees with an actual enumeration, and
//! the whole op sequence is deterministic — same ops ⇒ same survivor set
//! and same admission outcomes, for both admission policies.

use acdc_cc::{CcConfig, CcKind};
use acdc_packet::FlowKey;
use acdc_vswitch::{Admission, AdmissionPolicy, FlowEntry, FlowTable};
use proptest::prelude::*;

const CAP: usize = 8;

#[derive(Debug, Clone, Copy)]
enum Op {
    /// with_entry_or_create the keyed flow, stamping `last_activity`.
    Create(u8, u16),
    /// Remove the keyed flow if present.
    Remove(u8),
    /// Touch the keyed flow's `last_activity` if present.
    Touch(u8, u16),
    /// Garbage-collect at the given time with a fixed idle timeout.
    Gc(u16),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        4 => (0u8..32, 0u16..1000).prop_map(|(k, t)| Op::Create(k, t)),
        2 => (0u8..32).prop_map(Op::Remove),
        2 => (0u8..32, 0u16..1000).prop_map(|(k, t)| Op::Touch(k, t)),
        1 => (0u16..1000).prop_map(Op::Gc),
    ]
}

fn key(i: u8) -> FlowKey {
    FlowKey {
        src_ip: [10, 0, 0, 1],
        dst_ip: [10, 0, 0, 2],
        src_port: 40_000 + u16::from(i),
        dst_port: 80,
    }
}

fn entry(now: u64) -> FlowEntry {
    FlowEntry::new(CcKind::Dctcp, CcConfig::vswitch(1448), now)
}

/// Run `ops` against a fresh bounded table, checking the capacity and
/// count invariants after every step. Returns (admission outcomes,
/// sorted survivor ports) for determinism comparison.
fn run_ops(policy: AdmissionPolicy, ops: &[Op]) -> (Vec<Admission>, Vec<u16>) {
    let t = FlowTable::bounded(CAP, policy);
    let mut admissions = Vec::new();
    for op in ops {
        match *op {
            Op::Create(k, now) => {
                let now = u64::from(now);
                let (_, adm) = t.with_entry_or_create(key(k), || entry(now), |e| e.touch(now));
                admissions.push(adm);
            }
            Op::Remove(k) => {
                t.remove(&key(k));
            }
            Op::Touch(k, now) => {
                t.with_entry(&key(k), |e| e.touch(u64::from(now)));
            }
            Op::Gc(now) => {
                t.gc(u64::from(now), 250);
            }
        }
        // Invariant 1: the cap is never exceeded, not even transiently
        // visible after any op.
        assert!(t.len() <= CAP, "len {} exceeds cap {CAP}", t.len());
        // Invariant 2: the O(1) count agrees with an enumeration.
        let mut enumerated = 0usize;
        t.for_each(|_, _| enumerated += 1);
        assert_eq!(t.len(), enumerated, "count drifted from shard contents");
    }
    let mut survivors = Vec::new();
    t.for_each(|k, _| survivors.push(k.src_port));
    survivors.sort_unstable();
    (admissions, survivors)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn bounded_table_invariants_reject_new(ops in prop::collection::vec(op_strategy(), 1..80)) {
        run_ops(AdmissionPolicy::RejectNew, &ops);
    }

    #[test]
    fn bounded_table_invariants_evict_oldest(ops in prop::collection::vec(op_strategy(), 1..80)) {
        run_ops(AdmissionPolicy::EvictOldestIdle, &ops);
    }

    /// Eviction determinism: replaying the same op sequence on a fresh
    /// table yields the same admission outcomes and the same survivor
    /// set, for both policies.
    #[test]
    fn same_ops_same_survivors(ops in prop::collection::vec(op_strategy(), 1..80)) {
        for policy in [AdmissionPolicy::RejectNew, AdmissionPolicy::EvictOldestIdle] {
            let a = run_ops(policy, &ops);
            let b = run_ops(policy, &ops);
            prop_assert_eq!(&a, &b, "replay diverged under {:?}", policy);
        }
    }

    /// RejectNew never evicts: once admitted, a flow survives until it is
    /// explicitly removed or gc'd — creates alone cannot displace it.
    #[test]
    fn reject_new_never_displaces(extra in prop::collection::vec(0u8..32, 1..40)) {
        let t = FlowTable::bounded(2, AdmissionPolicy::RejectNew);
        t.with_entry_or_create(key(100), || entry(0), |_| ()).0.unwrap();
        t.with_entry_or_create(key(101), || entry(0), |_| ()).0.unwrap();
        for k in extra {
            t.with_entry_or_create(key(k), || entry(1), |_| ());
        }
        prop_assert!(t.with_entry(&key(100), |_| ()).is_some());
        prop_assert!(t.with_entry(&key(101), |_| ()).is_some());
        prop_assert_eq!(t.len(), 2);
    }
}
