//! Full-stack AC/DC benchmark: four seeded workloads, the end-to-end
//! metrics a user of the simulator sees, and a per-layer ledger built by
//! a separate traced run. See `README.md` in this package for the
//! workloads, the metrics and how to run it.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bench;
pub mod churn;
pub mod datapath;
pub mod fullstack;
pub mod pairs;
pub mod topo;
pub mod trace;
pub mod util;

use util::Pctl;

/// Simulated-time outcomes: a pure function of the workload and seed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimOut {
    /// Median latency of the workload's latency samples, µs.
    pub lat_p50: Pctl,
    /// 99th-percentile latency, µs.
    pub lat_p99: Pctl,
    /// Useful bytes acknowledged per simulated second, Gbps.
    pub goodput_gbps: f64,
}

impl SimOut {
    /// The outcome of a run that produced no latency samples; its NaN
    /// values fail the finite-metric check.
    pub fn missing() -> SimOut {
        let none = Pctl {
            value: f64::NAN,
            samples: 0,
            beyond: 0,
        };
        SimOut {
            lat_p50: none,
            lat_p99: none,
            goodput_gbps: f64::NAN,
        }
    }
}

/// Counts gathered at layer boundaries during one run.
#[derive(Debug, Clone, Default)]
pub struct Counts {
    /// Engine events processed.
    pub events: u64,
    /// Same-timestamp batches the timing wheel served.
    pub same_slot_batches: u64,
    /// Packets the switch CE-marked.
    pub ecn_marked: u64,
    /// Packets the switch dropped.
    pub switch_dropped: u64,
    /// ACK windows the vSwitches rewrote.
    pub rwnd_rewrites: u64,
    /// PACK options the vSwitches consumed.
    pub packs_received: u64,
    /// Dedicated FACKs the vSwitches sent.
    pub facks_sent: u64,
    /// Packets the policer dropped.
    pub policed_drops: u64,
    /// Flow entries held at the end.
    pub flows: u64,
    /// Connections per host.
    pub conns_per_host: f64,
    /// Guest retransmitted segments.
    pub retransmits: u64,
    /// Guest retransmission timeouts.
    pub rto_timeouts: u64,
    /// Segments handed to or taken from guest endpoints by the harness.
    pub endpoint_pkts: u64,
    /// Entries evicted to admit new flows at the cap.
    pub capacity_evictions: u64,
    /// Entries collected by garbage collection.
    pub gc_evictions: u64,
    /// Bytes of the serialized checkpoint.
    pub checkpoint_bytes: u64,
    /// Digest of everything simulated (see [`util::Digest`]).
    pub digest: u64,
}

/// What one run of a workload measured.
pub struct RunOut {
    /// Deterministic simulated outcomes.
    pub sim: SimOut,
    /// Packets delivered at node ports (full-stack workloads) or
    /// segments through the vSwitch (datapath workloads).
    pub pkts: u64,
    /// Per-layer counts.
    pub counts: Counts,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// Failed correctness checks; a run with any reports no numbers.
    pub violations: Vec<String>,
    /// Workload provenance (virtual span, packets, warm-up, ...).
    pub prov: Vec<(&'static str, String)>,
}
