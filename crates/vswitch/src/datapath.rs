//! The AC/DC datapath: per-packet processing at the vSwitch.
//!
//! The host wires it between the guest stack and the NIC:
//!
//! ```text
//!   VM egress  ──►  AcdcDatapath::egress   ──►  NIC / network
//!   VM ingress ◄──  AcdcDatapath::ingress  ◄──  NIC / network
//! ```
//!
//! Both directions of every connection pass through, so the same object
//! plays the paper's *sender module* (for flows this host originates) and
//! *receiver module* (for flows it terminates).

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use acdc_cc::CcConfig;
use acdc_packet::{Ecn, Ipv4Repr, PackOption, PacketMeta, PoolHandle, Segment, TcpFlags, TcpRepr};
use acdc_stats::time::{Nanos, MILLISECOND, SECOND};
use acdc_telemetry::{Counter, EventKind, Gauge, MetricsRegistry, Telemetry, NO_FLOW};

use crate::entry::FlowEntry;
use crate::health::{HealthCell, HealthState, Watermarks};
use crate::policy::CcPolicy;
use crate::rwnd::RwndAction;
use crate::table::{Admission, AdmissionPolicy, FlowTable};

/// Datapath configuration.
#[derive(Debug, Clone)]
pub struct AcdcConfig {
    /// Master switch: `false` makes both directions pass packets through
    /// untouched (the plain-OVS baseline).
    pub enabled: bool,
    /// MTU in bytes: a PACK that would push a packet past this travels in
    /// a dedicated FACK instead (§3.2).
    pub mtu: usize,
    /// Segment size used to size congestion windows.
    pub mss: u32,
    /// Per-flow congestion-control assignment.
    pub policy: CcPolicy,
    /// Policing (§3.3): drop egress data beyond
    /// `snd_una + cwnd + slack` when set. `None` disables the policer.
    pub police_slack_bytes: Option<u64>,
    /// Floor for the inactivity (inferred-timeout) threshold; the paper's
    /// system settings use RTOmin = 10 ms.
    pub inactivity_floor: Nanos,
    /// Compute windows but do not rewrite them (Figure 9's measurement
    /// mode: RWND is logged and compared against the guest's CWND).
    pub log_only: bool,
    /// Record a `(time, window)` trace in each flow entry.
    pub trace_windows: bool,
    /// Administrative upper bound on the enforced window in bytes — the
    /// §3.4 per-flow bandwidth cap ("bounding RWND", Figure 6b).
    pub max_rwnd_bytes: Option<u64>,
    /// Override the floor of the enforced window (bytes). Default is the
    /// byte-granular sub-segment floor that gives AC/DC its incast edge
    /// over DCTCP's 2-packet minimum (Figure 19); the ablation harness
    /// sets `2 × MSS` here to quantify that choice.
    pub min_window_bytes: Option<u64>,
    /// Ablation: never emit dedicated FACK packets — feedback that cannot
    /// piggyback is dropped. Quantifies what the FACK mechanism buys on
    /// bidirectional traffic (§3.2).
    pub disable_fack: bool,
    /// Hard cap on tracked flow entries (`None` = unbounded). The paper
    /// sizes per-flow state for tens of thousands of connections (§4);
    /// a bounded table makes exhaustion an explicit, tested regime.
    pub max_flows: Option<usize>,
    /// What to do when a new flow arrives with the table at `max_flows`.
    pub admission: AdmissionPolicy,
    /// Idle timeout for the periodic flow-table garbage collection driven
    /// from the host's maintenance tick.
    pub gc_idle_timeout: Nanos,
    /// Occupancy watermarks driving the health degradation ladder
    /// (meaningful only with `max_flows` set).
    pub watermarks: Watermarks,
}

impl AcdcConfig {
    /// The paper's deployment defaults: AC/DC on, DCTCP in the vSwitch.
    pub fn dctcp(mtu: usize) -> AcdcConfig {
        AcdcConfig {
            enabled: true,
            mtu,
            mss: (mtu - 40) as u32,
            policy: CcPolicy::dctcp(),
            police_slack_bytes: None,
            inactivity_floor: 10 * MILLISECOND,
            log_only: false,
            trace_windows: false,
            max_rwnd_bytes: None,
            min_window_bytes: None,
            disable_fack: false,
            max_flows: None,
            admission: AdmissionPolicy::EvictOldestIdle,
            gc_idle_timeout: 30 * SECOND,
            watermarks: Watermarks::default(),
        }
    }

    /// Baseline: plain OVS (datapath disabled).
    pub fn disabled(mtu: usize) -> AcdcConfig {
        AcdcConfig {
            enabled: false,
            ..AcdcConfig::dctcp(mtu)
        }
    }
}

/// Datapath decision for one packet.
#[derive(Debug)]
pub enum Verdict {
    /// Forward the (possibly rewritten) packet.
    Forward(Segment),
    /// Forward the packet and also emit a generated FACK.
    ForwardWithExtra(Segment, Segment),
    /// Consume the packet.
    Drop(DropReason),
}

impl Verdict {
    /// The forwarded packet, if any (test helper).
    pub fn forwarded(self) -> Option<Segment> {
        match self {
            Verdict::Forward(s) | Verdict::ForwardWithExtra(s, _) => Some(s),
            Verdict::Drop(_) => None,
        }
    }
}

/// Why a packet was consumed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DropReason {
    /// The policer caught a flow exceeding its enforced window (§3.3).
    Policed,
    /// A FACK reached the sender module and was absorbed after its
    /// feedback was logged (§3.2).
    FackConsumed,
    /// The headers failed the single fallible parse; wire input never
    /// panics the datapath (it is dropped and counted instead).
    Malformed,
}

/// Datapath event counters. Every field is a [`Counter`] handle into the
/// datapath's [`MetricsRegistry`] (registered under `acdc.<name>`), so
/// the same cells are readable through `snapshot_all()`; the handles
/// deref to `AtomicU64` (the table is shared across threads in the CPU
/// benchmarks), keeping pre-registry call sites source-compatible.
#[derive(Debug)]
pub struct AcdcCounters {
    /// PACK options piggy-backed onto ACKs.
    pub packs_sent: Counter,
    /// Dedicated FACK packets generated.
    pub facks_sent: Counter,
    /// PACK options consumed and stripped at the sender module.
    pub packs_received: Counter,
    /// Receive windows rewritten on ACKs.
    pub rwnd_rewrites: Counter,
    /// Packets dropped by the policer.
    pub policed_drops: Counter,
    /// Timeouts inferred from inactivity.
    pub inferred_timeouts: Counter,
    /// Fast retransmits inferred from duplicate ACKs.
    pub inferred_fast_rtx: Counter,
    /// Feedback lost because FACKs were disabled (ablation only).
    pub feedback_dropped: Counter,
    /// Non-TCP (UDP) packets forwarded untouched.
    pub non_tcp_passthrough: Counter,
    /// Malformed frames dropped by the fallible parse.
    pub malformed_drops: Counter,
    /// Entries collected by the periodic idle/closed garbage collection.
    pub gc_evictions: Counter,
    /// Entries evicted to admit new flows at capacity (evict-oldest-idle).
    pub capacity_evictions: Counter,
    /// New flows refused at the capacity gate (reject-new, or eviction
    /// found no victim); their packets are forwarded untouched.
    pub admission_rejects: Counter,
    /// Packets forwarded untouched because the datapath was in the
    /// `PassThrough` health state.
    pub overload_passthrough: Counter,
    /// RWND rewrites skipped because the flow's window scale was never
    /// learned from a handshake (mid-stream adoption stays log-only).
    pub unscaled_rwnd_skips: Counter,
    /// Health-ladder demotions (toward less intervention).
    pub health_demotions: Counter,
    /// Health-ladder promotions (recovery toward enforcement).
    pub health_promotions: Counter,
    /// Datapath restarts (`AcdcDatapath::reset`).
    pub datapath_resets: Counter,
}

impl AcdcCounters {
    /// Register every counter in `reg` under the `acdc.` prefix.
    fn register(reg: &MetricsRegistry) -> AcdcCounters {
        let c = |name: &str| reg.counter(format!("acdc.{name}"));
        AcdcCounters {
            packs_sent: c("packs_sent"),
            facks_sent: c("facks_sent"),
            packs_received: c("packs_received"),
            rwnd_rewrites: c("rwnd_rewrites"),
            policed_drops: c("policed_drops"),
            inferred_timeouts: c("inferred_timeouts"),
            inferred_fast_rtx: c("inferred_fast_rtx"),
            feedback_dropped: c("feedback_dropped"),
            non_tcp_passthrough: c("non_tcp_passthrough"),
            malformed_drops: c("malformed_drops"),
            gc_evictions: c("gc_evictions"),
            capacity_evictions: c("capacity_evictions"),
            admission_rejects: c("admission_rejects"),
            overload_passthrough: c("overload_passthrough"),
            unscaled_rwnd_skips: c("unscaled_rwnd_skips"),
            health_demotions: c("health_demotions"),
            health_promotions: c("health_promotions"),
            datapath_resets: c("datapath_resets"),
        }
    }

    fn bump(c: &Counter) {
        c.inc();
    }

    /// Load all counters (relaxed). Compatibility accessor: the same
    /// values, under `acdc.`-prefixed names, come out of the registry's
    /// `snapshot_all()`.
    pub fn snapshot(&self) -> Vec<(&'static str, u64)> {
        let ld = |c: &Counter| c.get();
        vec![
            ("packs_sent", ld(&self.packs_sent)),
            ("facks_sent", ld(&self.facks_sent)),
            ("packs_received", ld(&self.packs_received)),
            ("rwnd_rewrites", ld(&self.rwnd_rewrites)),
            ("policed_drops", ld(&self.policed_drops)),
            ("inferred_timeouts", ld(&self.inferred_timeouts)),
            ("inferred_fast_rtx", ld(&self.inferred_fast_rtx)),
            ("feedback_dropped", ld(&self.feedback_dropped)),
            ("non_tcp_passthrough", ld(&self.non_tcp_passthrough)),
            ("malformed_drops", ld(&self.malformed_drops)),
            ("gc_evictions", ld(&self.gc_evictions)),
            ("capacity_evictions", ld(&self.capacity_evictions)),
            ("admission_rejects", ld(&self.admission_rejects)),
            ("overload_passthrough", ld(&self.overload_passthrough)),
            ("unscaled_rwnd_skips", ld(&self.unscaled_rwnd_skips)),
            ("health_demotions", ld(&self.health_demotions)),
            ("health_promotions", ld(&self.health_promotions)),
            ("datapath_resets", ld(&self.datapath_resets)),
        ]
    }
}

/// A per-flow statistics snapshot (see [`AcdcDatapath::flow_stats`]).
#[derive(Debug, Clone)]
pub struct FlowStat {
    /// The flow's 5-tuple key (data direction).
    pub key: acdc_packet::FlowKey,
    /// Enforced algorithm name.
    pub cc_name: &'static str,
    /// Current enforced window, bytes.
    pub cwnd: u64,
    /// Bytes tracked as in flight.
    pub in_flight: u64,
    /// Smoothed RTT estimate, if sampled.
    pub srtt: Option<Nanos>,
    /// Lifetime bytes received for this flow at this host.
    pub rx_total: u64,
    /// Lifetime CE-marked bytes received.
    pub rx_marked: u64,
    /// Packets policed away.
    pub policed: u64,
    /// Awaiting garbage collection.
    pub closing: bool,
}

/// Where one processing context's observability goes: the counters to
/// bump and the hub to record events on. The legacy single-threaded
/// entry points pass the datapath's own counters/hub; the per-worker
/// entry points pass a [`WorkerSink`]'s. Enforcement state (table,
/// health, config) is never duplicated — only observability routes.
struct Obs<'a> {
    counters: &'a AcdcCounters,
    telemetry: &'a Telemetry,
    /// Where this context's segment buffers recycle: the datapath's main
    /// context rotates across the global pool's shards; a worker's
    /// context is pinned to its own shard, so feedback packets built and
    /// FACKs absorbed on a worker stay on that worker's free list.
    pool: PoolHandle<'static>,
}

/// One worker's observability context: a private telemetry hub plus the
/// full `acdc.*` counter set registered in that hub's registry.
///
/// The run-to-completion engine (`acdc-workers`) hands each worker its
/// own sink, so per-packet counting and event recording never interleave
/// nondeterministically across workers; at snapshot time the per-worker
/// hubs merge deterministically (counters sum, events k-way merge — see
/// `acdc-telemetry`'s merge helpers). Global concerns — the health
/// ladder, gc, the occupancy gauges — stay on the datapath's main hub
/// regardless of which sink processed the packet, so a merged view is
/// always "main hub + every worker hub".
pub struct WorkerSink {
    index: usize,
    telemetry: Arc<Telemetry>,
    counters: AcdcCounters,
    /// This worker's pinned view of the global segment pool (shard =
    /// worker index): buffers for feedback packets built here and FACKs
    /// absorbed here recycle through the worker's own free list.
    pool: PoolHandle<'static>,
}

impl WorkerSink {
    /// The worker index this sink was created for (0-based).
    pub fn index(&self) -> usize {
        self.index
    }

    /// The worker's private telemetry hub.
    pub fn telemetry(&self) -> &Arc<Telemetry> {
        &self.telemetry
    }

    /// The worker's counters (same `acdc.*` names as the main hub's).
    pub fn counters(&self) -> &AcdcCounters {
        &self.counters
    }

    /// The worker's pinned segment-pool handle.
    pub fn pool(&self) -> &PoolHandle<'static> {
        &self.pool
    }

    fn obs(&self) -> Obs<'_> {
        Obs {
            counters: &self.counters,
            telemetry: &self.telemetry,
            pool: self.pool,
        }
    }
}

/// The AC/DC datapath instance of one host's vSwitch.
pub struct AcdcDatapath {
    cfg: AcdcConfig,
    table: FlowTable,
    counters: AcdcCounters,
    health: HealthCell,
    /// Any admission reject since the last maintenance check? Promotion
    /// requires a clean interval, not just receded occupancy.
    overload_seen: AtomicBool,
    /// This datapath's observability domain: flight recorder + registry.
    telemetry: Arc<Telemetry>,
    /// Gauge `acdc.flows`: table occupancy, sampled on the tick.
    flows_gauge: Gauge,
    /// Gauge `acdc.health`: current rung (0 = enforcing … 2 = pass-through).
    health_gauge: Gauge,
}

impl AcdcDatapath {
    /// Create a datapath with the given configuration.
    pub fn new(cfg: AcdcConfig) -> AcdcDatapath {
        let telemetry = Telemetry::with_default_capacity();
        let mut table = match cfg.max_flows {
            Some(cap) => FlowTable::bounded(cap, cfg.admission),
            None => FlowTable::new(),
        };
        table.set_telemetry(Arc::clone(&telemetry));
        let counters = AcdcCounters::register(telemetry.registry());
        let flows_gauge = telemetry.registry().gauge("acdc.flows");
        let health_gauge = telemetry.registry().gauge("acdc.health");
        AcdcDatapath {
            cfg,
            table,
            counters,
            health: HealthCell::new(),
            overload_seen: AtomicBool::new(false),
            telemetry,
            flows_gauge,
            health_gauge,
        }
    }

    /// The configuration.
    pub fn config(&self) -> &AcdcConfig {
        &self.cfg
    }

    fn obs(&self) -> Obs<'_> {
        Obs {
            counters: &self.counters,
            telemetry: &self.telemetry,
            pool: acdc_packet::pool::global().rotating(),
        }
    }

    /// Build worker `index`'s observability sink: a fresh telemetry hub
    /// with the full counter set registered under `acdc.*`, plus a
    /// pool handle pinned to the worker's shard. Sinks are cheap and
    /// independent; the engine creates one per worker and merges their
    /// snapshots after a run.
    pub fn worker_sink(&self, index: usize) -> WorkerSink {
        let telemetry = Telemetry::with_default_capacity();
        let counters = AcdcCounters::register(telemetry.registry());
        WorkerSink {
            index,
            telemetry,
            counters,
            pool: acdc_packet::pool::global().pinned(index),
        }
    }

    /// Event counters.
    pub fn counters(&self) -> &AcdcCounters {
        &self.counters
    }

    /// This datapath's telemetry hub (event recorder + metrics registry).
    /// The owning host shares it for NIC-level events and drives the
    /// registry's time-series sampling from its maintenance tick.
    pub fn telemetry(&self) -> &Arc<Telemetry> {
        &self.telemetry
    }

    /// The flow table (inspection; used by experiment probes).
    pub fn table(&self) -> &FlowTable {
        &self.table
    }

    /// Number of tracked flows.
    pub fn flows(&self) -> usize {
        self.table.len()
    }

    /// Current rung of the degradation ladder.
    pub fn health(&self) -> HealthState {
        self.health.get()
    }

    /// Time-stamped health transition trace (restart epochs included).
    pub fn health_trace(&self) -> Vec<(Nanos, HealthState)> {
        self.health.trace()
    }

    fn set_health(&self, now: Nanos, to: HealthState) {
        if let Some((from, to)) = self.health.transition(now, to) {
            if to > from {
                AcdcCounters::bump(&self.counters.health_demotions);
            } else {
                AcdcCounters::bump(&self.counters.health_promotions);
            }
            self.health_gauge.set(to as u64);
            self.telemetry.record(
                now,
                NO_FLOW,
                EventKind::HealthTransition {
                    from: from.name(),
                    to: to.name(),
                },
            );
        }
    }

    /// A flow was refused at the capacity gate: count it, remember the
    /// overload for the promotion logic, and drop to pass-through — if
    /// admission is failing, per-flow work is no longer trustworthy, and
    /// forwarding untouched is always safe (§3.3 fail-safe).
    fn on_admission_reject(&self, obs: &Obs<'_>, now: Nanos, key: &acdc_packet::FlowKey) {
        AcdcCounters::bump(&obs.counters.admission_rejects);
        obs.telemetry
            .record(now, *key, EventKind::AdmissionRejected);
        self.overload_seen.store(true, Ordering::Relaxed);
        self.set_health(now, HealthState::PassThrough);
    }

    /// Bookkeeping after a create-capable table op that was admitted.
    fn note_admission(
        &self,
        obs: &Obs<'_>,
        now: Nanos,
        key: &acdc_packet::FlowKey,
        adm: Admission,
    ) {
        if let Admission::CreatedAfterEviction(n) = adm {
            obs.counters
                .capacity_evictions
                .fetch_add(n as u64, Ordering::Relaxed);
            // Stamped with the admitted flow: the table does not surface
            // the victims' keys, only how many made room.
            obs.telemetry
                .record(now, *key, EventKind::FlowEvicted { reason: "capacity" });
        }
        if adm.created() {
            obs.telemetry.record(now, *key, EventKind::FlowCreated);
            if let Some(cap) = self.cfg.max_flows {
                // Eager demotion on the way up; recovery is left to the
                // maintenance tick (hysteresis lives in `update_health`).
                if self.health.get() == HealthState::Enforcing
                    && self.table.len() * 100 >= cap * usize::from(self.cfg.watermarks.log_only_pct)
                {
                    self.set_health(now, HealthState::LogOnly);
                }
            }
        }
    }

    /// Re-evaluate the ladder against occupancy (maintenance-tick path).
    /// Promotions require occupancy below the recovery watermark *and* a
    /// reject-free interval since the last check.
    fn update_health(&self, now: Nanos) {
        let Some(cap) = self.cfg.max_flows else {
            return;
        };
        let occ = self.table.len() * 100;
        let wm = &self.cfg.watermarks;
        let overload = self.overload_seen.swap(false, Ordering::Relaxed);
        match self.health.get() {
            HealthState::Enforcing => {
                if occ >= cap * usize::from(wm.log_only_pct) {
                    self.set_health(now, HealthState::LogOnly);
                }
            }
            HealthState::LogOnly => {
                if !overload && occ < cap * usize::from(wm.log_recover_pct) {
                    self.set_health(now, HealthState::Enforcing);
                }
            }
            HealthState::PassThrough => {
                if !overload && occ < cap * usize::from(wm.pass_recover_pct) {
                    self.set_health(now, HealthState::LogOnly);
                }
            }
        }
    }

    /// Simulate a vSwitch restart: drop all connection-tracking state and
    /// return to `Enforcing`, marking a restart epoch in the health trace.
    /// In-flight connections are re-adopted from subsequent data packets —
    /// conservatively: a flow whose handshake was lost stays log-only
    /// until a new SYN teaches its window scale. Returns the number of
    /// entries dropped.
    pub fn reset(&self, now: Nanos) -> usize {
        let dropped = self.table.clear();
        // Stamp the GC epoch: flows re-adopted after the restart inherit
        // fresh `last_activity` values, but the stamp guarantees nothing
        // re-created with pre-reset timestamps (checkpoint restores,
        // replayed traces) is spuriously collected by the next sweep.
        self.table.set_epoch(now);
        AcdcCounters::bump(&self.counters.datapath_resets);
        self.overload_seen.store(false, Ordering::Relaxed);
        self.health.force(now, HealthState::Enforcing);
        self.health_gauge.set(HealthState::Enforcing as u64);
        self.telemetry.record(
            now,
            NO_FLOW,
            EventKind::DatapathReset {
                flows_cleared: dropped as u64,
            },
        );
        dropped
    }

    fn cc_config(&self) -> CcConfig {
        let mut cfg = CcConfig::vswitch(self.cfg.mss);
        if let Some(floor) = self.cfg.min_window_bytes {
            cfg.min_window_bytes = floor;
        }
        cfg
    }

    // ------------------------------------------------------------------
    // Checkpoint / restore (DESIGN.md §15)
    // ------------------------------------------------------------------

    /// Capture the datapath's full dynamic state at virtual time `at`.
    /// `worker_hubs` is every worker sink's hub in worker order (empty
    /// for the legacy single-threaded mode); the caller owns matching the
    /// list to the engine actually driving this datapath.
    pub fn checkpoint(
        &self,
        at: Nanos,
        worker_hubs: &[&Telemetry],
    ) -> crate::checkpoint::DatapathCheckpoint {
        use crate::checkpoint::{DatapathCheckpoint, FlowCheckpoint, HubCheckpoint};
        let mut flows: Vec<FlowCheckpoint> = Vec::with_capacity(self.table.len());
        self.table.for_each(|key, e| {
            let state = e.checkpoint_state();
            flows.push(FlowCheckpoint {
                key: *key,
                // Derived, not stored: "receiver-module bytes awaiting
                // PACK feedback" is exactly `rx_total > 0`.
                rx_pending: state.rx_total > 0,
                state,
            });
        });
        flows.sort_by_key(|f| f.key);
        DatapathCheckpoint {
            at,
            workers: worker_hubs.len(),
            gc_epoch: self.table.epoch(),
            overload_seen: self.overload_seen.load(Ordering::Relaxed),
            health_rung: self.health.get().rung(),
            health_trace: self
                .health
                .trace()
                .into_iter()
                .map(|(t, s)| (t, s.rung()))
                .collect(),
            flows,
            main_hub: HubCheckpoint::capture(&self.telemetry),
            worker_hubs: worker_hubs
                .iter()
                .map(|h| HubCheckpoint::capture(h))
                .collect(),
        }
    }

    /// Restore `ckpt` into this datapath — normally a freshly constructed
    /// one of the *same configuration*; any existing flow state is
    /// dropped first. Rebuilds every flow through the regular admission
    /// path (so policy assignment re-runs and must reproduce each flow's
    /// checkpointed CC algorithm), restores the health ladder and its
    /// trace verbatim, stamps the GC epoch, and applies the main hub's
    /// metric values and recorder bookkeeping. Worker hubs are *not*
    /// applied here — the engine owns those; apply
    /// `ckpt.worker_hubs[i]` to each of its sinks' hubs in worker order.
    ///
    /// Errors (configuration/checkpoint mismatch) leave the datapath in a
    /// partially restored state: discard it and restore into a fresh one.
    /// Returns the number of flows restored.
    pub fn restore(&self, ckpt: &crate::checkpoint::DatapathCheckpoint) -> Result<usize, String> {
        use crate::checkpoint::key_label;
        self.table.clear();
        for f in &ckpt.flows {
            if f.rx_pending != (f.state.rx_total > 0) {
                return Err(format!(
                    "flow {} checkpointed rx_pending={} with rx_total={}",
                    key_label(&f.key),
                    f.rx_pending,
                    f.state.rx_total
                ));
            }
            let (restored, _adm) = self.table.with_entry_or_create(
                f.key,
                || {
                    FlowEntry::new(
                        self.cfg.policy.assign(&f.key),
                        self.cc_config(),
                        f.state.last_activity,
                    )
                },
                |e| e.restore_state(&f.state),
            );
            let Some(restored) = restored else {
                return Err(format!(
                    "flow table refused {} during restore (capacity {:?})",
                    key_label(&f.key),
                    self.cfg.max_flows
                ));
            };
            restored.map_err(|e| format!("flow {} {e}", key_label(&f.key)))?;
        }
        self.table.set_epoch(ckpt.gc_epoch);
        self.overload_seen
            .store(ckpt.overload_seen, Ordering::Relaxed);
        self.health.restore(
            HealthState::from_rung(ckpt.health_rung),
            ckpt.health_trace
                .iter()
                .map(|&(t, r)| (t, HealthState::from_rung(r)))
                .collect(),
        );
        // The gauge cells (`acdc.flows`, `acdc.health`) are restored by
        // name like every other metric — NOT refreshed from live state:
        // in the uninterrupted run they hold whatever the last tick (or
        // health transition) wrote, and byte-identity means reproducing
        // exactly that staleness. The next tick resynchronizes them on
        // the same edge it would have anyway.
        ckpt.main_hub.apply(&self.telemetry)?;
        Ok(ckpt.flows.len())
    }

    // ------------------------------------------------------------------
    // Egress: VM → network
    // ------------------------------------------------------------------

    /// Process a packet leaving the guest toward the network.
    pub fn egress(&self, now: Nanos, seg: Segment) -> Verdict {
        self.egress_obs(&self.obs(), now, seg)
    }

    /// [`AcdcDatapath::egress`] with observability routed to a worker's
    /// sink instead of the datapath's main hub. Same table, same health
    /// ladder, same enforcement decisions — only where counters bump and
    /// events record moves, so N workers produce the same packet
    /// transformations as the single-threaded path.
    pub fn egress_via(&self, sink: &WorkerSink, now: Nanos, seg: Segment) -> Verdict {
        self.egress_obs(&sink.obs(), now, seg)
    }

    fn egress_obs(&self, obs: &Obs<'_>, now: Nanos, mut seg: Segment) -> Verdict {
        // The prototype only enforces TCP (the paper leaves UDP tunnels as
        // future work); other protocols pass through untouched (counted
        // even with AC/DC disabled — it is a visibility counter). The
        // protocol check is a single byte read: pass-through traffic and
        // the plain-OVS baseline never parse headers at all.
        if !seg.is_tcp() {
            AcdcCounters::bump(&obs.counters.non_tcp_passthrough);
            return Verdict::Forward(seg);
        }
        if !self.cfg.enabled {
            return Verdict::Forward(seg);
        }
        // Degradation ladder: an overloaded datapath forwards guest
        // packets untouched — no parse, no table work. Always safe: the
        // guest's own congestion control still runs (§3.3 fail-safe).
        let health = self.health.get();
        if health == HealthState::PassThrough {
            AcdcCounters::bump(&obs.counters.overload_passthrough);
            return Verdict::Forward(seg);
        }
        let log_only = self.cfg.log_only || health == HealthState::LogOnly;
        // The single parse of the packet's journey (or a cache hit, when
        // the NIC already verified checksums). Malformed frames are
        // dropped and counted — wire input never panics the datapath.
        let Ok(meta) = seg.try_meta() else {
            AcdcCounters::bump(&obs.counters.malformed_drops);
            obs.telemetry.record(
                now,
                NO_FLOW,
                EventKind::PacketDropped { cause: "malformed" },
            );
            return Verdict::Drop(DropReason::Malformed);
        };
        let key = meta.flow;
        let flags = meta.flags;

        if flags.contains(TcpFlags::RST) {
            self.mark_closing(&key);
            return Verdict::Forward(seg);
        }

        // --- Handshake monitoring (§3.1, §3.3) ---
        if flags.contains(TcpFlags::SYN) {
            self.on_handshake_packet(obs, now, &meta, /*egress=*/ true);
            return Verdict::Forward(seg); // SYNs are never mangled
        }

        // --- Sender module: data packets ---
        if seg.payload_len() > 0 || flags.contains(TcpFlags::FIN) {
            let payload_len = seg.payload_len();
            // Policing: a conforming stack never sends beyond the window
            // we enforced; drop the excess of one that does (§3.3).
            let police = self
                .cfg
                .police_slack_bytes
                .filter(|_| !log_only && payload_len > 0);
            let (tracked, admission) = self.table.with_entry_or_create(
                key,
                || FlowEntry::new(self.cfg.policy.assign(&key), self.cc_config(), now),
                |e| {
                    e.on_egress_data(
                        now,
                        meta.seq,
                        payload_len as u32,
                        flags.contains(TcpFlags::FIN),
                        police,
                    )
                },
            );
            let vm_ecn = match tracked {
                // Table full, flow refused: forward untouched (fail-safe)
                // and let the ladder drop to pass-through.
                None => {
                    self.on_admission_reject(obs, now, &key);
                    return Verdict::Forward(seg);
                }
                Some(Ok(v)) => {
                    self.note_admission(obs, now, &key, admission);
                    v
                }
                Some(Err(reason)) => {
                    AcdcCounters::bump(&obs.counters.policed_drops);
                    obs.telemetry
                        .record(now, key, EventKind::PacketDropped { cause: "policed" });
                    return Verdict::Drop(reason);
                }
            };

            // Force ECT on egress data so switches mark instead of drop
            // (§3.2), and stamp the guest's original ECN capability into
            // the reserved bit for the peer module. Log-only mode
            // (Figure 9's measurement methodology) must not perturb the
            // guest's ECN loop, so it skips all packet rewriting.
            if seg.payload_len() > 0 && !log_only {
                if !seg.ecn().is_ect() {
                    seg.set_ecn(Ecn::Ect0);
                }
                seg.set_reserved(vm_ecn, false);
            }
        }

        // "All egress packets are marked to be ECN-capable on the sender
        // module" (§3.2) — including pure ACKs, so they survive WRED on
        // congested reverse paths.
        if !log_only && !seg.ecn().is_ect() {
            seg.set_ecn(Ecn::Ect0);
        }

        // --- Receiver module: attach feedback to ACKs (§3.2) ---
        if flags.contains(TcpFlags::ACK) {
            // A unidirectional sender has no receiver-role feedback: the
            // common data packet leaves the reverse entry (and its
            // `last_activity`) untouched.
            let feedback = self
                .table
                .with_entry(&key.reverse(), |re| re.drain_feedback(now))
                .flatten();
            if let Some(pack) = feedback {
                if seg.wire_len() + PackOption::WIRE_LEN <= self.cfg.mtu
                    && seg.append_pack_in_place(pack)
                {
                    AcdcCounters::bump(&obs.counters.packs_sent);
                } else if self.cfg.disable_fack {
                    // Ablation: the feedback is simply lost.
                    AcdcCounters::bump(&obs.counters.feedback_dropped);
                } else if let Some(fack) = make_fack(&seg, pack, &obs.pool) {
                    AcdcCounters::bump(&obs.counters.facks_sent);
                    return Verdict::ForwardWithExtra(seg, fack);
                } else {
                    // No room even in a payload-free copy (pathological
                    // option soup): the feedback is lost, not a panic.
                    AcdcCounters::bump(&obs.counters.feedback_dropped);
                }
            }
        }

        Verdict::Forward(seg)
    }

    // ------------------------------------------------------------------
    // Ingress: network → VM
    // ------------------------------------------------------------------

    /// Process a packet arriving from the network toward the guest.
    pub fn ingress(&self, now: Nanos, seg: Segment) -> Verdict {
        self.ingress_obs(&self.obs(), now, seg)
    }

    /// [`AcdcDatapath::ingress`] with observability routed to a worker's
    /// sink (see [`AcdcDatapath::egress_via`]).
    pub fn ingress_via(&self, sink: &WorkerSink, now: Nanos, seg: Segment) -> Verdict {
        self.ingress_obs(&sink.obs(), now, seg)
    }

    fn ingress_obs(&self, obs: &Obs<'_>, now: Nanos, mut seg: Segment) -> Verdict {
        if !seg.is_tcp() {
            AcdcCounters::bump(&obs.counters.non_tcp_passthrough);
            return Verdict::Forward(seg);
        }
        if !self.cfg.enabled {
            return Verdict::Forward(seg);
        }
        // Usually a cache hit: the host NIC's checksum verification has
        // already parsed and cached the metadata.
        let Ok(meta) = seg.try_meta() else {
            AcdcCounters::bump(&obs.counters.malformed_drops);
            obs.telemetry.record(
                now,
                NO_FLOW,
                EventKind::PacketDropped { cause: "malformed" },
            );
            return Verdict::Drop(DropReason::Malformed);
        };
        let key = meta.flow;
        let flags = meta.flags;

        // Degradation ladder: overloaded datapaths do no per-flow work on
        // ingress either, but AC/DC's own wire metadata must never reach
        // a guest — FACKs are consumed, PACKs stripped, reserved bits
        // cleared. All of it is stateless header hygiene.
        let health = self.health.get();
        if health == HealthState::PassThrough {
            AcdcCounters::bump(&obs.counters.overload_passthrough);
            if meta.fack {
                if let Some(pack) = meta.pack {
                    self.absorb_feedback(&key, pack);
                }
                seg.recycle_into(&obs.pool);
                return Verdict::Drop(DropReason::FackConsumed);
            }
            if meta.pack.is_some() {
                AcdcCounters::bump(&obs.counters.packs_received);
                seg.strip_pack_in_place();
            }
            if meta.vm_ece || meta.fack {
                seg.clear_reserved();
            }
            return Verdict::Forward(seg);
        }
        let log_only = self.cfg.log_only || health == HealthState::LogOnly;

        if flags.contains(TcpFlags::RST) {
            self.mark_closing(&key);
            return Verdict::Forward(seg);
        }
        if flags.contains(TcpFlags::SYN) {
            self.on_handshake_packet(obs, now, &meta, /*egress=*/ false);
            return Verdict::Forward(seg);
        }

        let pure_ack = seg.payload_len() == 0
            && flags.contains(TcpFlags::ACK)
            && !flags.intersects(TcpFlags::SYN | TcpFlags::FIN | TcpFlags::RST);

        // --- Sender module: FACKs are logged and absorbed (§3.2) ---
        if meta.fack {
            if let Some(pack) = meta.pack {
                self.absorb_feedback(&key, pack);
            }
            // The FACK still carries an ACK; process congestion control on
            // it so feedback takes effect immediately, then drop it.
            self.sender_ack_processing(obs, now, &mut seg, &meta, pure_ack, false);
            seg.recycle_into(&obs.pool);
            return Verdict::Drop(DropReason::FackConsumed);
        }

        // --- Receiver module: account + launder ECN on data (§3.2) ---
        if seg.payload_len() > 0 {
            let payload_len = seg.payload_len() as u64;
            let ce = seg.ecn().is_ce();
            let (tracked, admission) = self.table.with_entry_or_create(
                key,
                || FlowEntry::new(self.cfg.policy.assign(&key), self.cc_config(), now),
                |e| e.on_data_received(now, payload_len, ce, flags.contains(TcpFlags::FIN)),
            );
            if tracked.is_some() {
                self.note_admission(obs, now, &key, admission);
                // Restore what the sender VM originally put on the wire:
                // ECT if its stack spoke ECN (hiding the CE mark from it
                // is the point — DCTCP in the vSwitch reacts instead),
                // nothing otherwise. Log-only mode leaves packets
                // untouched so the guest's own congestion loop stays
                // intact.
                if !log_only {
                    let target = if meta.vm_ece { Ecn::Ect0 } else { Ecn::NotEct };
                    if seg.ecn() != target {
                        seg.set_ecn(target);
                    }
                }
            } else {
                // Untracked at capacity: leave the wire untouched — an
                // unlaundered CE mark is at worst ignored by a guest that
                // never negotiated ECN.
                self.on_admission_reject(obs, now, &key);
            }
        }

        // --- Sender module: ACK processing + enforcement (§3.1–3.3) ---
        if flags.contains(TcpFlags::ACK) {
            if let Some(pack) = meta.pack {
                self.absorb_feedback(&key, pack);
                AcdcCounters::bump(&obs.counters.packs_received);
                seg.strip_pack_in_place();
            }
            self.sender_ack_processing(obs, now, &mut seg, &meta, pure_ack, !log_only);
            // Hide ECN feedback from the guest so it does not also back
            // off (§3.3): AC/DC is the one reacting. Applied to every
            // non-SYN ACK — the vSwitch owns ECN on this fabric.
            if !log_only && flags.contains(TcpFlags::ECE) {
                seg.clear_tcp_flags(TcpFlags::ECE);
            }
        }

        // Never leak AC/DC metadata into the guest.
        if meta.vm_ece || meta.fack {
            seg.clear_reserved();
        }

        Verdict::Forward(seg)
    }

    /// Fold a PACK's counters into the sender-role feedback accumulators
    /// of the acked flow.
    fn absorb_feedback(&self, ack_key: &acdc_packet::FlowKey, pack: PackOption) {
        self.table
            .with_entry(&ack_key.reverse(), |e| e.absorb_pack(pack));
    }

    /// Connection-tracking + congestion control + RWND enforcement for an
    /// arriving ACK. When `rewrite` is true, the enforcement write is
    /// applied to the segment (it is the one delivered to the guest);
    /// callers fold log-only mode (config flag or health ladder) into it.
    fn sender_ack_processing(
        &self,
        obs: &Obs<'_>,
        now: Nanos,
        seg: &mut Segment,
        meta: &PacketMeta,
        pure_ack: bool,
        rewrite: bool,
    ) {
        let (ack, window) = (meta.ack, meta.window);
        // CC events are stamped with the *data* direction's key (the flow
        // whose window is being enforced), not the arriving ACK's key.
        let data_key = meta.flow.reverse();
        // CC events happen under the shard lock and are counted and
        // published only after the closure returns (W002: the event bus
        // must not be entered while a table lock is held).
        let enforced = self.table.with_entry(&data_key, |e| {
            let outcome = e.on_ack(now, ack, pure_ack, self.cfg.inactivity_floor);
            // Enforcement target: the computed window, bounded by the
            // administrative cap (§3.4).
            let cwnd = e.cc.cwnd().min(self.cfg.max_rwnd_bytes.unwrap_or(u64::MAX));
            e.rwnd.set_target(now, cwnd, self.cfg.trace_windows);
            (e.rwnd.action(window), outcome)
        });

        // Enforcement: overwrite RWND with the computed window, only when
        // that is *smaller* than what the guest advertised (§3.3). Never
        // with an unlearned scale: an entry adopted mid-stream (restart,
        // migration) stays log-only until a handshake teaches the shift —
        // a raw write interpreted through the guest's real scale could be
        // off by 2^14 in either direction. The decision comes from the
        // RWND-rewrite component (`entry.rwnd`, see crate::rwnd).
        if let Some((action, outcome)) = enforced {
            if outcome.fast_retransmit.is_some() {
                AcdcCounters::bump(&obs.counters.inferred_fast_rtx);
            }
            if outcome.timeout.is_some() {
                AcdcCounters::bump(&obs.counters.inferred_timeouts);
            }
            let events = [
                outcome.fast_retransmit.map(|cwnd| EventKind::CwndCut {
                    cause: "fast-retransmit",
                    cwnd,
                }),
                outcome.timeout.map(|cwnd| EventKind::RtoFired { cwnd }),
                outcome
                    .alpha_micros
                    .map(|alpha_micros| EventKind::AlphaUpdate { alpha_micros }),
            ];
            for ev in events.into_iter().flatten() {
                obs.telemetry.record(now, data_key, ev);
            }
            if rewrite {
                match action {
                    RwndAction::Rewrite(raw_target) => {
                        seg.rewrite_window(raw_target);
                        AcdcCounters::bump(&obs.counters.rwnd_rewrites);
                    }
                    RwndAction::KeepGuest => {}
                    RwndAction::ScaleUnlearned => {
                        AcdcCounters::bump(&obs.counters.unscaled_rwnd_skips);
                    }
                }
            }
        }
    }

    /// Record handshake parameters from a SYN or SYN-ACK (§3.1).
    fn on_handshake_packet(&self, obs: &Obs<'_>, now: Nanos, meta: &PacketMeta, egress: bool) {
        let key = meta.flow;
        let flags = meta.flags;
        let wscale = meta.wscale.map(|w| w.min(14));
        // The sender of this SYN advertises the scale used to interpret
        // windows in ACKs *it* will send — i.e. the ACKs of the reverse
        // data direction.
        let rev = key.reverse();
        let (learned, radm) = self.table.with_entry_or_create(
            rev,
            || FlowEntry::new(self.cfg.policy.assign(&rev), self.cc_config(), now),
            |re| {
                re.touch(now);
                re.rwnd.learn(wscale.unwrap_or(0));
            },
        );
        if learned.is_none() {
            self.on_admission_reject(obs, now, &rev);
            return;
        }
        self.note_admission(obs, now, &rev, radm);

        // The VM originating this SYN is the data sender of `key`; its ECN
        // capability (SYN: ECE|CWR, SYN-ACK: ECE) matters at *its own*
        // host's sender module when stamping the reserved bit.
        if egress {
            let vm_ecn = if flags.contains(TcpFlags::ACK) {
                flags.contains(TcpFlags::ECE)
            } else {
                flags.contains(TcpFlags::ECE) && flags.contains(TcpFlags::CWR)
            };
            let (tracked, adm) = self.table.with_entry_or_create(
                key,
                || FlowEntry::new(self.cfg.policy.assign(&key), self.cc_config(), now),
                |e| e.on_syn(now, meta.seq, vm_ecn),
            );
            if tracked.is_none() {
                self.on_admission_reject(obs, now, &key);
                return;
            }
            self.note_admission(obs, now, &key, adm);
        }
    }

    fn mark_closing(&self, key: &acdc_packet::FlowKey) {
        for k in [*key, key.reverse()] {
            self.table.with_entry(&k, |e| e.mark_closing());
        }
    }

    // ------------------------------------------------------------------
    // Maintenance & flexibility features (§3.3)
    // ------------------------------------------------------------------

    /// Periodic tick: infer timeouts for flows whose ACK clock stopped
    /// entirely (no ingress packet will trigger the check).
    pub fn tick(&self, now: Nanos) {
        let floor = self.cfg.inactivity_floor;
        // Timeouts are collected during the sweep and published after it:
        // the event bus must not be entered while a shard lock is held
        // (W002). Same per-flow order as before.
        let mut fired: Vec<(acdc_packet::FlowKey, u64)> = Vec::new();
        self.table.for_each(|key, e| {
            if let Some(cwnd) = e.infer_timeout(now, floor) {
                fired.push((*key, cwnd));
            }
        });
        for (key, cwnd) in &fired {
            AcdcCounters::bump(&self.counters.inferred_timeouts);
            self.telemetry
                .record(now, *key, EventKind::RtoFired { cwnd: *cwnd });
        }
        self.update_health(now);
        // The tick is also the registry's sampling edge: refresh gauges,
        // then push every metric onto its time series.
        self.flows_gauge.set(self.table.len() as u64);
        self.health_gauge.set(self.health.get() as u64);
        self.telemetry.registry().sample(now);
    }

    /// Garbage-collect closed/idle entries (paired with FIN tracking).
    /// Driven from the host's 10 ms maintenance tick; also the moment the
    /// health ladder re-evaluates recovery (occupancy just receded).
    pub fn gc(&self, now: Nanos, idle_timeout: Nanos) -> usize {
        let collected = self.table.gc(now, idle_timeout);
        if collected > 0 {
            self.counters
                .gc_evictions
                .fetch_add(collected as u64, Ordering::Relaxed);
        }
        self.update_health(now);
        collected
    }

    /// Snapshot per-flow statistics for every tracked entry — the
    /// operator-visibility view an administrator gets from the vSwitch
    /// (which flows it is enforcing, at what windows, with how much
    /// congestion feedback).
    pub fn flow_stats(&self) -> Vec<FlowStat> {
        let mut out = Vec::new();
        self.table.for_each(|key, e| {
            out.push(FlowStat {
                key: *key,
                cc_name: e.cc.name(),
                cwnd: e.cc.cwnd(),
                in_flight: e.in_flight(),
                srtt: e.srtt(),
                rx_total: e.rx_total_lifetime(),
                rx_marked: e.rx_marked_lifetime(),
                policed: e.policed(),
                closing: e.closing(),
            });
        });
        out.sort_by_key(|s| s.key);
        out
    }

    /// The passively reconstructed `(snd_una, snd_nxt)` pair for `key`'s
    /// data sender, if the flow is tracked and its sequence state is valid
    /// (paper §3.1). The chaos suite compares this against the endpoint's
    /// ground truth after fault recovery.
    pub fn seq_state(
        &self,
        key: &acdc_packet::FlowKey,
    ) -> Option<(acdc_packet::SeqNumber, acdc_packet::SeqNumber)> {
        let v = self.seq_view(key)?;
        Some((v.snd_una, v.snd_nxt))
    }

    /// The passively reconstructed send pointers for `key`'s data sender
    /// as a [`acdc_packet::SeqView`] — the same currency
    /// `Endpoint::seq_view` exposes for its ground truth, so the two
    /// sides compare without tuple plumbing.
    pub fn seq_view(&self, key: &acdc_packet::FlowKey) -> Option<acdc_packet::SeqView> {
        self.table.with_entry(key, |e| e.seq_view()).flatten()
    }

    /// Generate a TCP Window Update for the data sender of `key` without
    /// waiting for an ACK (§3.3 flexibility): a pure ACK, receiver→sender,
    /// carrying the currently enforced window.
    ///
    /// This packet is meant to be *delivered to the local guest* (the data
    /// sender behind this vSwitch).
    pub fn make_window_update(&self, key: &acdc_packet::FlowKey) -> Option<Segment> {
        let (ack, window) = self
            .table
            .with_entry(key, |e| {
                let v = e.seq_view()?;
                Some((v.snd_una, e.rwnd.raw_window(e.cc.cwnd().max(1))))
            })
            .flatten()?;
        Some(guest_ack(key, ack, window))
    }

    /// Generate `n` duplicate ACKs for the data sender of `key` to trigger
    /// its fast retransmit earlier than its (possibly long) RTO (§3.3,
    /// incast mitigation).
    pub fn make_dup_acks(&self, key: &acdc_packet::FlowKey, n: usize) -> Vec<Segment> {
        let Some((ack, window)) = self
            .table
            .with_entry(key, |e| {
                let v = e.seq_view()?;
                Some((v.snd_una, e.rwnd.raw_window(e.cc.cwnd())))
            })
            .flatten()
        else {
            return Vec::new();
        };
        (0..n).map(|_| guest_ack(key, ack, window)).collect()
    }
}

/// A pure ACK toward the data sender of `key` (receiver → sender),
/// acknowledging `ack` and advertising the raw `window`. Its sequence
/// number is unknown to the vSwitch and left zero: guests ignore seq on
/// in-window pure ACKs.
fn guest_ack(key: &acdc_packet::FlowKey, ack: acdc_packet::SeqNumber, window: u16) -> Segment {
    let mut t = TcpRepr::new(key.dst_port, key.src_port);
    t.flags = TcpFlags::ACK;
    t.ack = ack;
    t.seq = acdc_packet::SeqNumber::ZERO;
    t.window = window;
    let ip = Ipv4Repr {
        src_addr: key.dst_ip,
        dst_addr: key.src_ip,
        protocol: acdc_packet::PROTO_TCP,
        ecn: Ecn::NotEct,
        payload_len: 0,
        ttl: Ipv4Repr::DEFAULT_TTL,
    };
    Segment::new_tcp(ip, t, 0)
}

/// Build a dedicated FACK: a payload-free copy of `ack` carrying the PACK
/// option and the FACK reserved-bit marker. The copy is produced by
/// in-place byte patches on a clone (the paper shifts headers into skb
/// headroom — same idea, no re-emit). The clone's buffer is rented
/// through `pool`, so a worker-built FACK draws on the worker's own
/// shard. `None` when even the payload-free copy has no room for the
/// option; the caller drops the feedback.
fn make_fack(ack: &Segment, pack: PackOption, pool: &PoolHandle<'static>) -> Option<Segment> {
    let mut fack = ack.clone_in(pool);
    fack.set_virtual_payload_len(0);
    fack.strip_pack_in_place();
    let vm_ece = fack.try_meta().ok()?.vm_ece;
    if !fack.append_pack_in_place(pack) {
        return None;
    }
    fack.set_tcp_flags(TcpFlags::ACK);
    fack.set_reserved(vm_ece, true);
    Some(fack)
}
