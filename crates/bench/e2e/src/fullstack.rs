//! The two full-stack workloads: `incast` and `websearch`.
//!
//! Both run the whole simulated stack — guest TCP endpoints, the AC/DC
//! vSwitch on every host, NICs, links, the switch and the event engine —
//! on a one-switch star. They are generic over [`Topo`], so the same code
//! drives `Testbed::star` (end-to-end runs) and the wrapped [`Star`]
//! (traced run).
//!
//! [`Star`]: crate::topo::Star

use std::sync::atomic::Ordering;

use acdc_core::host::FlowHandle;
use acdc_core::{Scheme, TraceSender};
use acdc_stats::time::{Nanos, MICROSECOND, MILLISECOND};
use acdc_workloads::{App, AppConn, BulkSender, EchoServer, FctRecorder, FlowSizeDist, PingPong};

use crate::topo::Topo;
use crate::trace::{Layer, Probe};
use crate::util::{pctl, sorted, Digest, Rng};
use crate::{Counts, RunOut, SimOut};

/// Jumbo frames, as in the paper's incast and trace experiments.
pub const MTU: usize = 9_000;

/// `incast`: bulk senders into one receiver.
pub const INCAST_SENDERS: usize = 32;
/// `incast`: every connection opens within this much of time zero. A
/// SYN is not ECN-capable, so once the bottleneck queue passes the
/// marking threshold WRED drops it; opening every connection before the
/// first windows of data reach the bottleneck keeps every handshake from
/// backing off for seconds.
pub const OPEN_JITTER: Nanos = 4 * MICROSECOND;
/// `incast`: each bulk sender starts sending at a seeded time within
/// this span (its data is ECN-capable, so joining late costs no drops).
pub const START_JITTER: Nanos = 20 * MILLISECOND;
/// `incast`: ping-pong probe period.
pub const PROBE_PERIOD: Nanos = MILLISECOND;
/// `incast`: virtual warm-up excluded from every measurement.
pub const INCAST_WARMUP: Nanos = 300 * MILLISECOND;
/// `incast`: measured virtual span (probe samples ≈ span / period).
pub const INCAST_SPAN: Nanos = 1_200 * MILLISECOND;

/// `websearch`: hosts on the star (the paper's 17-server testbed).
pub const WEB_HOSTS: usize = 17;
/// `websearch`: trace generators per host.
pub const WEB_APPS: usize = 5;
/// `websearch`: messages that start before this are warm-up.
pub const WEB_WARMUP: Nanos = 10 * MILLISECOND;
/// `websearch`: generators stop issuing here...
pub const WEB_STOP: Nanos = 150 * MILLISECOND;
/// ...and the run ends here, once the last messages drained (the
/// largest web-search messages need most of this tail).
pub const WEB_END: Nanos = 250 * MILLISECOND;
/// `websearch`: messages under this size are mice.
pub const MICE_BYTES: u64 = 10_000;

/// A built `incast` scenario, ready to run.
pub struct Incast<T> {
    topo: T,
    bulk: Vec<FlowHandle>,
    probe: FlowHandle,
}

/// Build `incast` on a star from `make`: hosts `0..32` send bulk CUBIC
/// (AC/DC enforces DCTCP in every vSwitch) to host 32, host 33 probes
/// host 32's RTT with 64 B ping-pongs every millisecond. The seed
/// jitters when each connection opens, when each sender starts and the
/// probe's phase.
pub fn build_incast<T: Topo>(make: impl FnOnce(usize, Scheme, usize) -> T, seed: u64) -> Incast<T> {
    let n = INCAST_SENDERS;
    let mut topo = make(n + 2, Scheme::acdc(), MTU);
    let mut rng = Rng::new(seed, 1);
    let bulk = (0..n)
        .map(|s| {
            let app = Deferred {
                at: rng.range(0, START_JITTER),
                inner: Box::new(BulkSender::unlimited()),
            };
            let open = rng.range(0, OPEN_JITTER);
            topo.add_flow(s, n, Some(Box::new(app)), None, open)
        })
        .collect();
    let app = Deferred {
        at: rng.range(0, PROBE_PERIOD),
        inner: Box::new(PingPong::new(64, PROBE_PERIOD)),
    };
    let open = rng.range(0, OPEN_JITTER);
    let probe = topo.add_flow(
        n + 1,
        n,
        Some(Box::new(app)),
        Some(Box::new(EchoServer::new())),
        open,
    );
    Incast { topo, bulk, probe }
}

/// A per-connection app that stays idle until `at` and then hands every
/// poll to `inner`: the connection opens at once, its traffic starts at a
/// seeded time.
struct Deferred {
    at: Nanos,
    inner: Box<dyn App>,
}

impl App for Deferred {
    fn poll(&mut self, now: Nanos, conn: &mut dyn AppConn) -> Option<Nanos> {
        if now < self.at {
            Some(self.at)
        } else {
            self.inner.poll(now, conn)
        }
    }

    fn is_done(&self) -> bool {
        self.inner.is_done()
    }

    fn fct(&self) -> Option<&FctRecorder> {
        self.inner.fct()
    }

    fn rtt_samples_ms(&self) -> Option<&[f64]> {
        self.inner.rtt_samples_ms()
    }
}

fn acked<T: Topo>(topo: &mut T, h: FlowHandle) -> u64 {
    let i = topo.client_conn_index(h);
    topo.host(h.client_host).endpoint(i).acked_bytes()
}

fn rtts_us<T: Topo>(topo: &mut T, h: FlowHandle) -> Vec<f64> {
    let i = topo.client_conn_index(h);
    topo.host(h.client_host)
        .app(i)
        .and_then(|a| a.rtt_samples_ms())
        .map(|s| s.iter().map(|ms| ms * 1_000.0).collect())
        .unwrap_or_default()
}

impl<T> Incast<T> {
    /// The topology the scenario was built on.
    pub fn topo(&mut self) -> &mut T {
        &mut self.topo
    }
}

/// Run a built `incast` to the end of its measured span.
pub fn run_incast<T: Topo, P: Probe>(sc: &mut Incast<T>, probe: &P) -> RunOut {
    let topo = &mut sc.topo;
    probe.span(Layer::EngineRun, || topo.net().run_until(INCAST_WARMUP));
    let base: Vec<u64> = sc.bulk.iter().map(|&h| acked(topo, h)).collect();
    let warm_rtts = rtts_us(topo, sc.probe).len();
    let end = INCAST_WARMUP + INCAST_SPAN;
    probe.span(Layer::EngineRun, || topo.net().run_until(end));

    let progress: Vec<u64> = sc
        .bulk
        .iter()
        .zip(&base)
        .map(|(&h, &b)| acked(topo, h) - b)
        .collect();
    let rtts = sorted(rtts_us(topo, sc.probe).split_off(warm_rtts));
    let attempted = sc.bulk.len() as u64 + 1;
    let stalled = progress.iter().filter(|&&p| p == 0).count() as u64;
    if rtts.is_empty() {
        let why = "the RTT probe completed no exchange in the measured span";
        return bail(vec![why.into()], attempted, stalled + 1);
    }
    let sim = SimOut {
        lat_p50: pctl(&rtts, 50.0),
        lat_p99: pctl(&rtts, 99.0),
        goodput_gbps: progress.iter().sum::<u64>() as f64 * 8.0 / INCAST_SPAN as f64,
    };
    let mut out = finish(topo, sim);
    out.attempted = attempted;
    out.failed = stalled;
    out.prov.extend([
        ("virtual_span_ns", INCAST_SPAN.to_string()),
        ("warmup_excluded_ns", INCAST_WARMUP.to_string()),
        ("warmup_excluded_samples", warm_rtts.to_string()),
        ("latency_samples", "64 B ping-pong RTTs".to_string()),
    ]);
    out
}

/// A built `websearch` scenario, ready to run.
pub struct WebSearch<T> {
    topo: T,
}

/// Build `websearch`: 17 hosts, each with five trace generators that
/// each own a persistent connection to every other host (160
/// connections per host). Message sizes follow the web-search CDF from a
/// seeded stream per generator.
pub fn build_websearch<T: Topo>(
    make: impl FnOnce(usize, Scheme, usize) -> T,
    seed: u64,
) -> WebSearch<T> {
    let n = WEB_HOSTS;
    let mut topo = make(n, Scheme::acdc(), MTU);
    let mut rng = Rng::new(seed, 2);
    for i in 0..n {
        for _ in 0..WEB_APPS {
            let conns = (0..n)
                .filter(|&d| d != i)
                .map(|d| {
                    let h = topo.add_flow(i, d, None, None, 0);
                    topo.client_conn_index(h)
                })
                .collect();
            let app = TraceSender::new(conns, FlowSizeDist::web_search(), rng.next_u64(), WEB_STOP);
            topo.add_multi_app(i, Box::new(app));
        }
    }
    WebSearch { topo }
}

impl<T> WebSearch<T> {
    /// The topology the scenario was built on.
    pub fn topo(&mut self) -> &mut T {
        &mut self.topo
    }
}

/// Run a built `websearch` to its end.
pub fn run_websearch<T: Topo, P: Probe>(sc: &mut WebSearch<T>, probe: &P) -> RunOut {
    let topo = &mut sc.topo;
    let acked_all = |topo: &mut T| -> u64 {
        (0..topo.hosts())
            .map(|i| {
                let host = topo.host(i);
                (0..host.conn_count())
                    .map(|c| host.endpoint(c).acked_bytes())
                    .sum::<u64>()
            })
            .sum()
    };
    probe.span(Layer::EngineRun, || topo.net().run_until(WEB_WARMUP));
    let base = acked_all(topo);
    probe.span(Layer::EngineRun, || topo.net().run_until(WEB_STOP));
    let issued_bytes = acked_all(topo) - base;
    probe.span(Layer::EngineRun, || topo.net().run_until(WEB_END));

    let (mut mice, mut completed, mut warm, mut unfinished) = (vec![], 0u64, 0u64, 0);
    for i in 0..topo.hosts() {
        let host = topo.host(i);
        for a in 0..host.multi_app_count() {
            let fct = host
                .multi_app(a)
                .and_then(|m| m.fct())
                .expect("generators record FCTs");
            for s in fct.samples() {
                completed += 1;
                if s.start < WEB_WARMUP {
                    warm += 1;
                } else if s.bytes < MICE_BYTES {
                    mice.push(s.fct() as f64 / 1_000.0);
                }
            }
        }
        // Each generator keeps at most one message in flight per
        // connection, so a client connection with unacknowledged bytes
        // holds exactly one message that never completed.
        for c in 0..host.conn_count() {
            let ep = host.endpoint(c);
            if ep.acked_bytes() < ep.queued_bytes() {
                unfinished += 1;
            }
        }
    }
    let mice = sorted(mice);
    if mice.is_empty() {
        return bail(
            vec!["no mice message completed".into()],
            completed + unfinished,
            unfinished,
        );
    }
    let span = WEB_STOP - WEB_WARMUP;
    let sim = SimOut {
        lat_p50: pctl(&mice, 50.0),
        lat_p99: pctl(&mice, 99.0),
        goodput_gbps: issued_bytes as f64 * 8.0 / span as f64,
    };
    let mut out = finish(topo, sim);
    out.attempted = completed + unfinished;
    out.failed = unfinished;
    out.prov.extend([
        ("virtual_span_ns", span.to_string()),
        ("warmup_excluded_ns", WEB_WARMUP.to_string()),
        ("warmup_excluded_samples", warm.to_string()),
        ("drain_tail_ns", (WEB_END - WEB_STOP).to_string()),
        (
            "latency_samples",
            "FCTs of messages under 10 KB".to_string(),
        ),
    ]);
    out
}

fn bail(violations: Vec<String>, attempted: u64, failed: u64) -> RunOut {
    RunOut {
        sim: SimOut::missing(),
        pkts: 0,
        counts: Counts::default(),
        attempted,
        failed,
        violations,
        prov: Vec::new(),
    }
}

/// Gather the counts every full-stack run reports, check the AC/DC
/// counters and fold the digest.
fn finish<T: Topo>(topo: &mut T, sim: SimOut) -> RunOut {
    let pkts = topo.delivered_pkts();
    let net = topo.net();
    let mut c = Counts {
        events: net.events_processed(),
        same_slot_batches: net.wheel_same_slot_batches(),
        ..Counts::default()
    };
    let sw = topo.switch_counters();
    c.ecn_marked = sw.ce_marked;
    c.switch_dropped = sw.total_drops();
    let mut digest = Digest::default();
    digest.add(c.events);
    digest.add(pkts);
    let mut conns = 0u64;
    for i in 0..topo.hosts() {
        let host = topo.host(i);
        let k = host.datapath().counters();
        c.rwnd_rewrites += k.rwnd_rewrites.load(Ordering::Relaxed);
        c.packs_received += k.packs_received.load(Ordering::Relaxed);
        c.facks_sent += k.facks_sent.load(Ordering::Relaxed);
        c.policed_drops += k.policed_drops.load(Ordering::Relaxed);
        c.flows += host.datapath().flows() as u64;
        conns += host.conn_count() as u64;
        for j in 0..host.conn_count() {
            let ep = host.endpoint(j);
            digest.add(ep.acked_bytes());
            c.retransmits += ep.retransmitted_segments();
            c.rto_timeouts += ep.timeouts();
        }
    }
    c.conns_per_host = conns as f64 / topo.hosts() as f64;
    for v in [sim.lat_p50.value, sim.lat_p99.value, sim.goodput_gbps] {
        digest.add_f64(v);
    }
    c.digest = digest.value();
    let mut violations = Vec::new();
    if c.rwnd_rewrites == 0 || c.packs_received == 0 {
        violations.push(format!(
            "AC/DC never engaged: rwnd_rewrites={} packs_received={}",
            c.rwnd_rewrites, c.packs_received
        ));
    }
    RunOut {
        sim,
        pkts,
        counts: c,
        attempted: 0,
        failed: 0,
        violations,
        prov: vec![("packets", pkts.to_string())],
    }
}
