//! # acdc-netsim — deterministic discrete-event datacenter network simulator
//!
//! The substrate standing in for the paper's physical testbed (17 servers,
//! 10 GbE NICs, IBM G8264 switches). It simulates:
//!
//! * **links** with configurable rate and propagation delay (serialization
//!   is modelled per packet: a 9 KB frame takes 7.2 µs on a 10 Gbps link);
//! * **switches** with a *shared* buffer pool managed by a Broadcom-style
//!   dynamic threshold, per-port FIFO output queues, and WRED/ECN marking
//!   at a configurable threshold `K` — including the behaviour at the heart
//!   of the ECN-coexistence pathology (Figures 15/16): non-ECT packets are
//!   *dropped* above `K` while ECT packets are *marked*;
//! * **timers** and node-level packet hooks, on which `acdc-core` builds
//!   hosts (guest TCP endpoint + vSwitch datapath + NIC).
//!
//! Everything is deterministic: a single-threaded event loop over a
//! `(time, sequence)`-ordered heap, nanosecond virtual time, and no wall
//! clock anywhere. Experiments are reproducible bit for bit.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod engine;
pub mod link;
pub mod switch;
pub mod tokenbucket;
pub mod wheel;

pub use engine::{Ctx, Network, Node, NodeId, PortCounters, PortDropClass, PortId};
pub use link::LinkSpec;
pub use switch::{SwitchConfig, SwitchCounters, SwitchNode, WredEcnConfig};
pub use tokenbucket::TokenBucket;
pub use wheel::TimerWheel;

pub use acdc_stats::time::{Nanos, MICROSECOND, MILLISECOND, SECOND};

const fn assert_send_sync<T: Send + Sync>() {}

// The switch model and the scheduler's building blocks stay thread-ready:
// the build fails if any of them loses `Send + Sync`. `Network` itself is
// not `Send` (its nodes are `Box<dyn Node>`), so the engine as a whole
// still runs on one thread.
const _: () = {
    assert_send_sync::<SwitchNode>();
    assert_send_sync::<TokenBucket>();
    assert_send_sync::<TimerWheel<u64>>();
};
