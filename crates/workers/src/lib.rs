//! # acdc-workers — run-to-completion parallel datapath workers
//!
//! The paper's deployability argument (§3, §5.2) needs the enforcement
//! path to stay cheap at line rate; a single thread caps that. This
//! crate parallelizes the [`acdc_vswitch::AcdcDatapath`] the way a
//! production vSwitch datapath does — *run-to-completion workers fed by
//! RSS steering* — without giving up the reproduction's determinism
//! contract (DESIGN.md §13).
//!
//! ## The model
//!
//! * **Steering** ([`worker_of`]): a packet goes to worker
//!   `mix(hash64(canonical flow key)) mod N` — symmetric RSS. The key is
//!   direction-normalized first, so data packets and the ACKs flowing
//!   back steer to the same worker; since the ACK path writes the data
//!   direction's flow entry, every entry of a flow has exactly one
//!   writing worker and a worker's flow-table working set is disjoint
//!   from its peers'. (The finalizing mix matters: raw FNV-1a's low bit
//!   is a XOR of input low bits and collapses on mirrored key
//!   populations — see [`steer`]'s module docs.)
//! * **Run to completion**: a worker takes a packet through the whole
//!   datapath (parse → table → CC → rewrite) before the next one; there
//!   is no inter-stage queueing to reorder packets of one flow.
//! * **Per-worker observability** ([`acdc_vswitch::WorkerSink`]): each
//!   worker counts and records into its own telemetry hub; snapshots
//!   merge deterministically afterwards (`acdc_telemetry::merge`).
//!
//! ## Determinism contract
//!
//! Worker count must not change enforcement semantics, and same seed +
//! same `N` must give byte-identical merged snapshots. Two processing
//! modes uphold that at different strengths:
//!
//! * [`WorkerEngine::dispatch`] — the simulator path. Each packet is
//!   processed *immediately, in delivery order*, on its steered worker's
//!   sink. Since nothing is deferred, the sequence of table operations
//!   is identical to the single-threaded path for **any** N: N only
//!   routes where counters bump and events record, and merged counter
//!   totals equal the N=1 totals exactly.
//! * [`WorkerEngine::process_batch_parallel`] — the throughput path
//!   (benches, order-insensitive tests). Packets are grouped per worker
//!   and each worker's OS thread processes its group in submission
//!   order. Packets of one flow — both directions — always stay on one
//!   worker in submission order; batches where distinct workers' flows
//!   are independent (the RSS assumption — true for the bench workloads
//!   and the determinism suite) therefore produce worker-count-independent
//!   per-flow state and merged counter totals. Verdicts are returned in
//!   submission order regardless of which worker produced them.
//!
//! Workers share the datapath's flow table. It has one lock per shard
//! and none per entry: steering already makes each entry single-writer,
//! so the shard lock only has to keep the shard's map itself coherent.
//!
//! Global state transitions (health ladder, gc, occupancy gauges) stay
//! on the datapath's main hub no matter which worker processed the
//! packet, so "the merged view" is always main hub + all worker hubs.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod engine;
pub mod steer;

pub use engine::{Direction, WorkerEngine};
pub use steer::worker_of;

const fn assert_send_sync<T: Send + Sync>() {}

const _: () = assert_send_sync::<WorkerEngine>();
