//! A server node: guest TCP endpoints + AC/DC vSwitch + NIC.
//!
//! The packet path matches Figure 3 of the paper:
//!
//! ```text
//!   app ── Endpoint ── AcdcDatapath::egress ── [rate limiter] ── NIC ─▶ net
//!   app ◀─ Endpoint ◀─ AcdcDatapath::ingress ◀──────────────── NIC ◀─ net
//! ```

use std::any::Any;
use std::collections::VecDeque;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use acdc_netsim::{Ctx, Node, PortId, TokenBucket};

/// TCP-Small-Queues-style cap on bytes each *connection* may park in the
/// NIC queue. As in Linux, a socket is not polled for more data while its
/// share of the queue is above this — bounding sender-side bufferbloat
/// without letting bulk flows starve small ones.
const TSQ_PER_CONN_CAP: u64 = 64 * 1024;

/// Period of the vSwitch maintenance tick. The datapath infers RTOs for
/// flows whose ACK clock stopped *entirely* (outage, burst loss) only
/// from [`AcdcDatapath::tick`] — no ingress packet will ever trigger the
/// inactivity check for them. Matches the default `inactivity_floor`.
const DP_TICK_PERIOD: Nanos = 10 * acdc_stats::time::MILLISECOND;
use acdc_packet::{FlowKey, Segment};
use acdc_stats::time::Nanos;
use acdc_stats::TimeSeries;
use acdc_tcp::{Endpoint, TcpConfig};
use acdc_telemetry::{Counter, EventKind, Telemetry, NO_FLOW};
use acdc_vswitch::{AcdcConfig, AcdcDatapath, Verdict};
use acdc_workers::{Direction, WorkerEngine};
use acdc_workloads::apps::App;

/// Identifies one flow end-to-end in a [`crate::Testbed`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FlowHandle {
    /// Index of the client (active-opening) host.
    pub client_host: usize,
    /// Index of the server (passive) host.
    pub server_host: usize,
    /// The client-side flow key (client → server direction).
    pub key: FlowKey,
}

/// Measurement taps attachable to a connection.
#[derive(Debug, Clone, Copy, Default)]
pub struct ConnTaps {
    /// Sample the guest congestion window over time (Figures 9/10).
    pub trace_cwnd: bool,
    /// Sample the enforced (peer-advertised) receive window over time.
    pub trace_rwnd: bool,
    /// Record per-interval throughput of acknowledged bytes.
    pub tput_bin: Option<Nanos>,
}

struct Conn {
    ep: Endpoint,
    app: Option<Box<dyn App>>,
    start_at: Option<Nanos>,
    stop_at: Option<Nanos>,
    started: bool,
    stopped: bool,
    app_wake: Option<Nanos>,
    /// Bytes of this connection currently in the NIC (or rate-limiter)
    /// queue; the TSQ gate.
    nic_queued: u64,
    tsq_blocked: bool,
    cwnd_trace: Option<TimeSeries>,
    rwnd_trace: Option<TimeSeries>,
    tput: Option<acdc_stats::ThroughputMeter>,
    last_acked: u64,
    /// The deadline this connection is filed at in [`HostNode::due`].
    filed: Option<Nanos>,
    /// Counted in [`HostNode::in_flight`]: has bytes in flight.
    busy: bool,
}

impl Conn {
    /// Earliest time this connection needs serving on its own account:
    /// its endpoint timer, its app's wake-up, or a start or stop not yet
    /// applied.
    fn deadline(&self) -> Option<Nanos> {
        [
            self.ep.next_timer(),
            self.app_wake,
            self.start_at.filter(|_| !self.started),
            self.stop_at.filter(|_| !self.stopped),
        ]
        .into_iter()
        .flatten()
        .min()
    }

    fn sample_taps(&mut self, now: Nanos) {
        if let Some(ts) = &mut self.cwnd_trace {
            let v = self.ep.cwnd() as f64;
            if ts.samples().last().is_none_or(|s| s.value != v) {
                ts.push(now, v);
            }
        }
        if let Some(ts) = &mut self.rwnd_trace {
            let v = self.ep.peer_rwnd() as f64;
            if ts.samples().last().is_none_or(|s| s.value != v) {
                ts.push(now, v);
            }
        }
        if let Some(m) = &mut self.tput {
            let acked = self.ep.acked_bytes();
            if acked > self.last_acked {
                m.record(now, acked - self.last_acked);
                self.last_acked = acked;
            }
        }
    }
}

/// Access to a host's connections for host-level ("multi-connection")
/// applications such as the trace-driven generator.
pub trait MultiConnAccess {
    /// Number of connections on the host.
    fn count(&self) -> usize;
    /// Enqueue bytes on connection `idx`.
    fn send(&mut self, idx: usize, bytes: u64);
    /// Acknowledged stream bytes of connection `idx`.
    fn acked(&self, idx: usize) -> u64;
    /// Queued stream bytes of connection `idx`.
    fn queued(&self, idx: usize) -> u64;
    /// Is connection `idx` established?
    fn established(&self, idx: usize) -> bool;
    /// Wire 5-tuple (egress direction) of connection `idx`, for FCT
    /// attribution.
    fn flow(&self, idx: usize) -> Option<FlowKey> {
        let _ = idx;
        None
    }
}

/// A host-level application spanning all of the host's connections.
pub trait MultiApp: Send {
    /// Poll; return the next absolute wake-up time wanted.
    fn poll(&mut self, now: Nanos, conns: &mut dyn MultiConnAccess) -> Option<Nanos>;
    /// Completed-flow records, if measured.
    fn fct(&self) -> Option<&acdc_workloads::FctRecorder> {
        None
    }
}

struct ConnsAccess<'a> {
    conns: &'a mut [Conn],
    /// Connections written to during this poll (only these need pumping).
    touched: &'a mut Vec<usize>,
}

impl MultiConnAccess for ConnsAccess<'_> {
    fn count(&self) -> usize {
        self.conns.len()
    }
    fn send(&mut self, idx: usize, bytes: u64) {
        self.conns[idx].ep.send(bytes);
        self.touched.push(idx);
    }
    fn acked(&self, idx: usize) -> u64 {
        self.conns[idx].ep.acked_bytes()
    }
    fn queued(&self, idx: usize) -> u64 {
        self.conns[idx].ep.queued_bytes()
    }
    fn established(&self, idx: usize) -> bool {
        self.conns[idx].ep.is_established()
    }
    fn flow(&self, idx: usize) -> Option<FlowKey> {
        Some(self.conns[idx].ep.flow_key())
    }
}

/// Egress rate limiter state (Figure 2's 2 Gbps token bucket).
struct RateLimiter {
    tb: TokenBucket,
    queue: VecDeque<Segment>,
}

/// One simulated server.
pub struct HostNode {
    ip: [u8; 4],
    nic: PortId,
    datapath: Arc<AcdcDatapath>,
    conns: Vec<Conn>,
    by_key: BTreeMap<FlowKey, usize>,
    /// Deadline index: `(deadline, conn)` for every connection that has
    /// one, kept current by [`HostNode::refile`].
    due: BTreeSet<(Nanos, usize)>,
    /// Connections with bytes in flight.
    in_flight: usize,
    /// Connections `unfiled..` were added since the last callback and
    /// are not in the index yet (see [`HostNode::file_new`]).
    unfiled: usize,
    /// Reused buffer of connection indices (the due list of a timer, the
    /// connections the host-level apps wrote to).
    scratch: Vec<usize>,
    multi_apps: Vec<(Box<dyn MultiApp>, Option<Nanos>)>,
    rl: Option<RateLimiter>,
    /// Earliest wake-up currently scheduled with the engine.
    armed: Option<Nanos>,
    /// Packets discarded at the NIC because checksum verification failed
    /// (the FCS model for injected corruption; see `acdc-faults`).
    /// Registered as `"host.corrupt_drops"` in the datapath's telemetry
    /// registry.
    corrupt_drops: Counter,
    /// Next scheduled vSwitch maintenance tick.
    next_dp_tick: Nanos,
    /// RSS-style worker engine: when set, every packet goes through
    /// [`WorkerEngine::dispatch`] (run-to-completion on the steered
    /// worker's sink) instead of the single-threaded entry points.
    workers: Option<WorkerEngine>,
}

impl HostNode {
    /// Create a host with address `ip`, NIC port `nic`, and a fresh
    /// datapath configured by `acdc`.
    pub fn new(ip: [u8; 4], nic: PortId, acdc: AcdcConfig) -> HostNode {
        let datapath = Arc::new(AcdcDatapath::new(acdc));
        let corrupt_drops = datapath
            .telemetry()
            .registry()
            .counter("host.corrupt_drops");
        HostNode {
            ip,
            nic,
            datapath,
            conns: Vec::new(),
            by_key: BTreeMap::new(),
            due: BTreeSet::new(),
            in_flight: 0,
            unfiled: 0,
            scratch: Vec::new(),
            multi_apps: Vec::new(),
            rl: None,
            armed: None,
            corrupt_drops,
            next_dp_tick: DP_TICK_PERIOD,
            workers: None,
        }
    }

    /// Route this host's datapath through an `n`-worker engine
    /// (dispatch mode: packets are steered by flow hash and processed
    /// run-to-completion in delivery order, so enforcement semantics are
    /// identical to the single-threaded path for any `n`; only the
    /// observability routing changes). `n = 0` removes the engine.
    pub fn set_workers(&mut self, n: usize) {
        self.workers = (n > 0).then(|| WorkerEngine::new(&self.datapath, n));
    }

    /// The worker engine, if [`HostNode::set_workers`] installed one.
    pub fn worker_engine(&self) -> Option<&WorkerEngine> {
        self.workers.as_ref()
    }

    /// Swap in a freshly constructed datapath of the same configuration —
    /// the restore half of a checkpoint/restore cycle (DESIGN.md §15).
    /// The host's own NIC counter (`host.corrupt_drops`) is re-registered
    /// in the new hub with its current value carried over, the worker
    /// engine (if any) is rebuilt at the same worker count against the
    /// new datapath, and the maintenance-tick schedule is untouched.
    /// Returns the replaced datapath (still usable read-only, e.g. to
    /// compare against the restored one). A subsequent
    /// `AcdcDatapath::restore` on the new datapath overwrites the carried
    /// counter value with the checkpointed one, by name, like every other
    /// metric.
    pub fn replace_datapath(&mut self) -> Arc<AcdcDatapath> {
        let fresh = Arc::new(AcdcDatapath::new(self.datapath.config().clone()));
        let corrupt_drops = fresh.telemetry().registry().counter("host.corrupt_drops");
        corrupt_drops.add(self.corrupt_drops.get());
        let n = self.workers.as_ref().map_or(0, |e| e.workers());
        self.workers = (n > 0).then(|| WorkerEngine::new(&fresh, n));
        self.corrupt_drops = corrupt_drops;
        std::mem::replace(&mut self.datapath, fresh)
    }

    /// Run a segment through the datapath in the configured mode.
    fn dp_process(&self, now: Nanos, dir: Direction, seg: Segment) -> Verdict {
        match &self.workers {
            Some(engine) => engine.dispatch(&self.datapath, now, dir, seg),
            None => match dir {
                Direction::Egress => self.datapath.egress(now, seg),
                Direction::Ingress => self.datapath.ingress(now, seg),
            },
        }
    }

    /// Packets dropped at the NIC for failing checksum verification
    /// (corrupted in flight by a fault injector).
    pub fn corrupt_drops(&self) -> u64 {
        self.corrupt_drops.get()
    }

    /// The host's telemetry hub (shared with its datapath): NIC-level
    /// drops and all vSwitch events land here.
    pub fn telemetry(&self) -> &Arc<Telemetry> {
        self.datapath.telemetry()
    }

    /// The host's IP.
    pub fn ip(&self) -> [u8; 4] {
        self.ip
    }

    /// The host's vSwitch datapath (counters, flow table).
    pub fn datapath(&self) -> &AcdcDatapath {
        &self.datapath
    }

    /// Install an egress token-bucket rate limiter.
    pub fn set_rate_limit(&mut self, rate_bps: u64, burst_bytes: u64) {
        self.rl = Some(RateLimiter {
            tb: TokenBucket::new(rate_bps, burst_bytes, 0),
            queue: VecDeque::new(),
        });
    }

    /// Install a host-level application (e.g. one of the five concurrent
    /// trace generators of Figure 23). Returns its index.
    pub fn add_multi_app(&mut self, app: Box<dyn MultiApp>) -> usize {
        self.multi_apps.push((app, None));
        self.multi_apps.len() - 1
    }

    /// Host-level application by index.
    pub fn multi_app(&self, idx: usize) -> Option<&dyn MultiApp> {
        self.multi_apps.get(idx).map(|(a, _)| a.as_ref())
    }

    /// Number of host-level applications.
    pub fn multi_app_count(&self) -> usize {
        self.multi_apps.len()
    }

    /// Add a connection. Active ones open at `start_at`; passive ones
    /// wait for a SYN. Returns the connection index.
    pub fn add_connection(
        &mut self,
        cfg: TcpConfig,
        active: bool,
        start_at: Option<Nanos>,
        app: Option<Box<dyn App>>,
        taps: ConnTaps,
    ) -> usize {
        let key = FlowKey {
            src_ip: cfg.local_ip,
            dst_ip: cfg.remote_ip,
            src_port: cfg.local_port,
            dst_port: cfg.remote_port,
        };
        let ep = if active {
            Endpoint::new_active(cfg)
        } else {
            Endpoint::new_passive(cfg)
        };
        let idx = self.conns.len();
        self.conns.push(Conn {
            ep,
            app,
            start_at: if active {
                Some(start_at.unwrap_or(0))
            } else {
                None
            },
            stop_at: None,
            started: !active,
            stopped: false,
            app_wake: None,
            nic_queued: 0,
            tsq_blocked: false,
            cwnd_trace: taps.trace_cwnd.then(TimeSeries::new),
            rwnd_trace: taps.trace_rwnd.then(TimeSeries::new),
            tput: taps
                .tput_bin
                .map(|bin| acdc_stats::ThroughputMeter::new(0).with_bins(bin)),
            last_acked: 0,
            filed: None,
            busy: false,
        });
        self.by_key.insert(key, idx);
        idx
    }

    /// Schedule the end of a long-lived flow (Figure 14).
    pub fn set_stop_at(&mut self, conn: usize, at: Nanos) {
        self.conns[conn].stop_at = Some(at);
        self.refile(conn);
    }

    /// Immutable access to a connection's endpoint.
    pub fn endpoint(&self, conn: usize) -> &Endpoint {
        &self.conns[conn].ep
    }

    /// The per-connection application, if any.
    pub fn app(&self, conn: usize) -> Option<&dyn App> {
        self.conns[conn].app.as_deref()
    }

    /// Recorded congestion-window trace.
    pub fn cwnd_trace(&self, conn: usize) -> Option<&TimeSeries> {
        self.conns[conn].cwnd_trace.as_ref()
    }

    /// Recorded peer-receive-window trace.
    pub fn rwnd_trace(&self, conn: usize) -> Option<&TimeSeries> {
        self.conns[conn].rwnd_trace.as_ref()
    }

    /// Recorded throughput meter.
    pub fn tput(&self, conn: usize) -> Option<&acdc_stats::ThroughputMeter> {
        self.conns[conn].tput.as_ref()
    }

    /// Number of connections.
    pub fn conn_count(&self) -> usize {
        self.conns.len()
    }

    // ------------------------------------------------------------------
    // Internals
    // ------------------------------------------------------------------

    /// Push one endpoint-produced segment through the datapath toward the
    /// NIC; returns the wire bytes that ended up *waiting* in the NIC
    /// queue (TSQ accounting: packets that start serializing immediately
    /// never wait, and the engine only reports queue departures).
    fn send_out(&mut self, ctx: &mut Ctx<'_>, seg: Segment) -> u64 {
        let now = ctx.now();
        match self.dp_process(now, Direction::Egress, seg) {
            Verdict::Forward(s) => self.rl_transmit(ctx, s),
            Verdict::ForwardWithExtra(s, extra) => {
                self.rl_transmit(ctx, s) + self.rl_transmit(ctx, extra)
            }
            Verdict::Drop(_) => 0,
        }
    }

    /// Returns the TSQ-counted bytes (0 for packets that began
    /// transmission immediately or took the rate-limited path, which is
    /// exempt from TSQ accounting).
    fn rl_transmit(&mut self, ctx: &mut Ctx<'_>, seg: Segment) -> u64 {
        let now = ctx.now();
        let nic = self.nic;
        match &mut self.rl {
            None => {
                let queued = if ctx.port_busy(nic) {
                    seg.wire_len() as u64
                } else {
                    0
                };
                ctx.enqueue(nic, seg);
                queued
            }
            Some(rl) => {
                if rl.queue.is_empty() {
                    match rl.tb.try_consume(seg.wire_len(), now) {
                        Ok(()) => ctx.enqueue(nic, seg),
                        Err(_) => rl.queue.push_back(seg),
                    }
                } else {
                    rl.queue.push_back(seg);
                }
                0
            }
        }
    }

    fn rl_drain(&mut self, ctx: &mut Ctx<'_>) {
        let now = ctx.now();
        let nic = self.nic;
        if let Some(rl) = &mut self.rl {
            while let Some(front) = rl.queue.front() {
                match rl.tb.try_consume(front.wire_len(), now) {
                    Ok(()) => {
                        let seg = rl.queue.pop_front().unwrap();
                        ctx.enqueue(nic, seg);
                    }
                    Err(_) => break,
                }
            }
        }
    }

    fn pump(&mut self, ctx: &mut Ctx<'_>, idx: usize) {
        let now = ctx.now();
        loop {
            if self.conns[idx].nic_queued >= TSQ_PER_CONN_CAP {
                self.conns[idx].tsq_blocked = true;
                break;
            }
            let out = self.conns[idx].ep.poll_transmit(now);
            match out {
                Some(seg) => {
                    let n = self.send_out(ctx, seg);
                    self.conns[idx].nic_queued += n;
                }
                None => break,
            }
        }
        self.conns[idx].sample_taps(now);
        self.refile(idx);
    }

    /// File the connections added since the last callback. Only
    /// callbacks read the index, so filing can wait for the next one;
    /// filing while a scenario is built would allocate index nodes
    /// between the growing `conns` reallocations and slow set-up.
    fn file_new(&mut self) {
        while self.unfiled < self.conns.len() {
            self.refile(self.unfiled);
            self.unfiled += 1;
        }
    }

    /// Bring connection `idx`'s entry in the deadline index and its
    /// in-flight count up to date. Every change to a connection ends in
    /// [`HostNode::pump`], which calls this, so the index never goes stale.
    fn refile(&mut self, idx: usize) {
        let c = &mut self.conns[idx];
        let deadline = c.deadline();
        if deadline != c.filed {
            if let Some(t) = c.filed {
                self.due.remove(&(t, idx));
            }
            if let Some(t) = deadline {
                self.due.insert((t, idx));
            }
            c.filed = deadline;
        }
        let busy = c.ep.in_flight() > 0;
        if busy != c.busy {
            c.busy = busy;
            if busy {
                self.in_flight += 1;
            } else {
                self.in_flight -= 1;
            }
        }
    }

    fn poll_app(&mut self, ctx: &mut Ctx<'_>, idx: usize) {
        let now = ctx.now();
        let conn = &mut self.conns[idx];
        if let Some(app) = &mut conn.app {
            conn.app_wake = app.poll(now, &mut conn.ep);
        }
    }

    /// Poll the host-level apps, then pump the connections they queued
    /// data on (the only ones that need it), in index order.
    fn poll_multi(&mut self, ctx: &mut Ctx<'_>) {
        if self.multi_apps.is_empty() {
            return;
        }
        let now = ctx.now();
        let mut touched = std::mem::take(&mut self.scratch);
        for (app, wake) in &mut self.multi_apps {
            let mut access = ConnsAccess {
                conns: &mut self.conns,
                touched: &mut touched,
            };
            *wake = app.poll(now, &mut access);
        }
        touched.sort_unstable();
        touched.dedup();
        for &idx in &touched {
            self.pump(ctx, idx);
        }
        touched.clear();
        self.scratch = touched;
    }

    fn service_conn(&mut self, ctx: &mut Ctx<'_>, idx: usize) {
        let now = ctx.now();
        // Scheduled start / stop.
        let conn = &mut self.conns[idx];
        if !conn.started {
            if let Some(at) = conn.start_at {
                if now >= at {
                    conn.ep.open(now);
                    conn.started = true;
                }
            }
        }
        if !conn.stopped {
            if let Some(at) = conn.stop_at {
                if now >= at {
                    conn.ep.stop_sending();
                    conn.stopped = true;
                }
            }
        }
        // Endpoint timer.
        if self.conns[idx].ep.next_timer().is_some_and(|t| t <= now) {
            self.conns[idx].ep.on_timer(now);
        }
        self.poll_app(ctx, idx);
        self.pump(ctx, idx);
    }

    fn reschedule(&mut self, ctx: &mut Ctx<'_>) {
        let now = ctx.now();
        let mut earliest: Option<Nanos> = None;
        let mut fold = |t: Option<Nanos>| {
            if let Some(t) = t {
                earliest = Some(earliest.map_or(t, |e: Nanos| e.min(t)));
            }
        };
        fold(self.due.first().map(|&(t, _)| t));
        for (_, wake) in &self.multi_apps {
            fold(*wake);
        }
        // Keep the vSwitch maintenance tick alive only while some flow
        // actually has unacknowledged data to watch.
        if self.in_flight > 0 {
            fold(Some(self.next_dp_tick.max(now)));
        }
        if let Some(rl) = &mut self.rl {
            if let Some(front) = rl.queue.front() {
                // Probe the release time without consuming tokens.
                let mut probe = rl.tb.clone();
                match probe.try_consume(front.wire_len(), now) {
                    Ok(()) => fold(Some(now + 1)),
                    Err(at) => fold(Some(at)),
                }
            }
        }
        if let Some(t) = earliest {
            let t = t.max(now);
            // Avoid re-arming for a deadline we already have armed.
            if self.armed.is_none_or(|a| t < a || a <= now) {
                self.armed = Some(t);
                ctx.set_timer(t - now, 0);
            }
        }
    }

    /// Under `strict-invariants` (debug builds): the deadline index and
    /// the in-flight count agree with a recomputation over every
    /// connection. Runs at the end of every callback that can change a
    /// connection.
    fn check_index(&self) {
        if !cfg!(all(feature = "strict-invariants", debug_assertions)) {
            return;
        }
        let (mut earliest, mut filed, mut busy) = (None::<Nanos>, 0, 0);
        for (idx, c) in self.conns.iter().enumerate() {
            let deadline = c.deadline();
            assert_eq!(c.filed, deadline, "connection {idx} filed at its deadline");
            if let Some(t) = deadline {
                earliest = Some(earliest.map_or(t, |e| e.min(t)));
                filed += 1;
            }
            assert_eq!(
                c.busy,
                c.ep.in_flight() > 0,
                "connection {idx} in-flight flag"
            );
            busy += usize::from(c.busy);
        }
        // Every entry is some connection's current filing, and there is
        // one entry per filed connection: the index is exactly the
        // filings.
        for &(t, idx) in &self.due {
            assert_eq!(
                self.conns[idx].filed,
                Some(t),
                "index entry ({t}, {idx}) is current"
            );
        }
        assert_eq!(
            self.due.len(),
            filed,
            "one index entry per filed connection"
        );
        assert_eq!(
            self.due.first().map(|&(t, _)| t),
            earliest,
            "first entry is the earliest deadline"
        );
        assert_eq!(self.in_flight, busy, "in-flight connection count");
    }
}

impl Node for HostNode {
    fn on_packet(&mut self, ctx: &mut Ctx<'_>, _port: PortId, seg: Segment) {
        self.file_new();
        let now = ctx.now();
        // The single parse of the receive path: `try_meta` caches the
        // header metadata every later stage (checksum verify, vSwitch
        // ingress, endpoint demux + processing) reads. Frames that do not
        // even parse are counted at the port and dropped.
        let Ok(meta) = seg.try_meta() else {
            ctx.count_drop(self.nic, acdc_netsim::PortDropClass::Malformed);
            self.datapath.telemetry().record(
                now,
                NO_FLOW,
                EventKind::PacketDropped { cause: "malformed" },
            );
            return;
        };
        // NIC FCS check: damaged frames never reach the vSwitch (loss, as
        // on real hardware). Only injected corruption produces these — the
        // datapath's own rewrites all maintain checksums.
        if !seg.verify_checksums() {
            self.corrupt_drops.inc();
            self.datapath.telemetry().record(
                now,
                meta.flow,
                EventKind::PacketDropped {
                    cause: "corrupt-fcs",
                },
            );
            return;
        }
        let key = meta.flow.reverse();
        match self.dp_process(now, Direction::Ingress, seg) {
            Verdict::Forward(s) => {
                if let Some(&idx) = self.by_key.get(&key) {
                    self.conns[idx].ep.on_segment(now, &s);
                    self.service_conn(ctx, idx);
                    self.poll_multi(ctx);
                }
            }
            Verdict::ForwardWithExtra(..) => unreachable!("ingress never generates packets"),
            Verdict::Drop(_) => {}
        }
        self.rl_drain(ctx);
        self.reschedule(ctx);
        self.check_index();
    }

    fn on_tx_start(&mut self, ctx: &mut Ctx<'_>, port: PortId, seg: &Segment) {
        self.file_new();
        // A packet of ours began serialization: release its TSQ budget and
        // refill the owning connection if the gate had closed on it.
        if port != self.nic {
            return;
        }
        // Locally generated packets always parse; the cache built at
        // egress rides along with the clone the engine hands back.
        let Ok(meta) = seg.try_meta() else {
            return;
        };
        if let Some(&idx) = self.by_key.get(&meta.flow) {
            let c = &mut self.conns[idx];
            c.nic_queued = c.nic_queued.saturating_sub(seg.wire_len() as u64);
            if c.tsq_blocked && c.nic_queued < TSQ_PER_CONN_CAP {
                c.tsq_blocked = false;
                self.pump(ctx, idx);
            }
        }
        self.check_index();
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, _token: u64) {
        self.file_new();
        self.armed = None;
        self.rl_drain(ctx);
        let now = ctx.now();
        if now >= self.next_dp_tick {
            self.datapath.tick(now);
            // Flow-table garbage collection rides the same maintenance
            // tick: closed/idle entries are collected and the datapath
            // re-evaluates its health ladder against the new occupancy.
            self.datapath
                .gc(now, self.datapath.config().gc_idle_timeout);
            self.next_dp_tick = now + DP_TICK_PERIOD;
        }
        // Serve the connections whose own deadline fell due, in index
        // order; no other connection has anything to do.
        let mut due = std::mem::take(&mut self.scratch);
        due.extend(self.due.range(..=(now, usize::MAX)).map(|&(_, idx)| idx));
        due.sort_unstable();
        for &idx in &due {
            self.service_conn(ctx, idx);
        }
        due.clear();
        self.scratch = due;
        self.poll_multi(ctx);
        self.rl_drain(ctx);
        self.reschedule(ctx);
        self.check_index();
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}
