//! # acdc-vswitch — AC/DC: congestion control enforced in the vSwitch
//!
//! The paper's contribution, implemented as an Open-vSwitch-style datapath
//! module. Packets between a guest ("VM") TCP stack and the NIC pass
//! through [`AcdcDatapath::egress`] / [`AcdcDatapath::ingress`], which:
//!
//! * reconstruct per-flow congestion-control state by watching sequence
//!   numbers, ACKs and handshakes (§3.1) — stored in a sharded
//!   [`table::FlowTable`] with one lock per shard (the paper's RCU table
//!   adds a spinlock per entry; here steering gives each flow one writer);
//! * implement DCTCP (or any [`acdc_cc`] algorithm, selected per flow by a
//!   [`CcPolicy`]) inside the vSwitch: forcing ECT on egress data, counting
//!   CE-marked bytes at the receiver, and shipping the counts back in
//!   **PACK** TCP options or dedicated **FACK** packets (§3.2);
//! * enforce the computed window by rewriting the TCP receive window on
//!   ACKs headed to the guest — a 2-byte write plus incremental checksum
//!   patch — honouring window scaling, and **police** flows that ignore it
//!   by dropping excess packets (§3.3);
//! * support per-flow differentiation, including the priority-weighted
//!   DCTCP of Equation 1 (§3.4).
//!
//! The datapath is simulator-agnostic and thread-safe: the Criterion CPU
//! benches drive the very same code the simulation uses.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// Check a protocol-state invariant when the `strict-invariants` feature
/// is enabled. Expands to a `debug_assert!`, so it is additionally elided
/// from release builds; without the feature it compiles to nothing while
/// still type-checking the condition.
macro_rules! strict_invariant {
    ($($arg:tt)+) => {
        if cfg!(feature = "strict-invariants") {
            debug_assert!($($arg)+);
        }
    };
}
pub(crate) use strict_invariant;

const fn assert_send_sync<T: Send + Sync>() {}
const fn assert_send<T: Send>() {}

// The worker engine shares the datapath, its table and health ladder
// across threads and moves sinks and entries between them: the build
// fails if any of these loses `Send` (or `Sync`).
const _: () = {
    assert_send_sync::<AcdcDatapath>();
    assert_send_sync::<FlowTable>();
    assert_send_sync::<WorkerSink>();
    assert_send_sync::<health::HealthCell>();
    assert_send::<FlowEntry>();
};

pub mod checkpoint;
pub mod datapath;
pub mod entry;
pub mod health;
pub mod policy;
pub mod rwnd;
pub mod table;
pub mod vcc;

pub use checkpoint::{DatapathCheckpoint, FlowCheckpoint, HubCheckpoint, RecorderCheckpoint};
pub use datapath::{
    AcdcConfig, AcdcCounters, AcdcDatapath, DropReason, FlowStat, Verdict, WorkerSink,
};
pub use entry::{FlowEntry, FlowEntryState};
pub use health::{HealthState, Watermarks};
pub use policy::CcPolicy;
pub use rwnd::{RwndAction, RwndRewriter};
pub use table::{Admission, AdmissionPolicy, FlowTable};
pub use vcc::{AckSignals, EcnFractionCc, VirtualCc};
