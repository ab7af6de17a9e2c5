//! Running one workload: repeated set-up and measured runs, the
//! correctness gate, and the metrics both kinds of run report.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use acdc_core::Testbed;

use crate::topo::Star;
use crate::trace::{self, Layer, Trace, Traced, Untraced};
use crate::util::{median, peak_rss_mb};
use crate::{churn, datapath, fullstack, RunOut};

/// The four workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Fig 18/19 incast on the full stack.
    Incast,
    /// Fig 23 web-search trace on the full stack.
    Websearch,
    /// 100k endpoint pairs through two datapaths, no simulator.
    Datapath,
    /// Scripted flow churn through the worker engine into a capped table.
    Churn,
}

impl Workload {
    /// Parse a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        match name {
            "incast" => Some(Workload::Incast),
            "websearch" => Some(Workload::Websearch),
            "datapath" => Some(Workload::Datapath),
            "churn" => Some(Workload::Churn),
            _ => None,
        }
    }

    /// The workload's name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Incast => "incast",
            Workload::Websearch => "websearch",
            Workload::Datapath => "datapath",
            Workload::Churn => "churn",
        }
    }
}

/// One set-up plus one measured run.
pub struct Rep {
    /// Wall seconds of each set-up made for this run.
    pub setup_s: Vec<f64>,
    /// Wall seconds of the measured run.
    pub run_s: f64,
    /// What the run measured.
    pub out: RunOut,
    /// Segment-pool hits and misses during the run.
    pub pool: (u64, u64),
}

#[allow(clippy::disallowed_methods)] // wall-clock is the measurement here
fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t = Instant::now();
    let r = f();
    (r, t.elapsed().as_secs_f64())
}

fn pool_stats() -> (u64, u64) {
    let s = acdc_packet::pool::global().stats();
    (s.hits, s.misses)
}

/// Set-ups per measured run, at most...
const SETUPS_MAX: usize = 20;
/// ...while their total stays under this many seconds.
const SETUP_BUDGET_S: f64 = 0.2;

/// Set up and run `w` once. With `traced`, the full-stack workloads run
/// on the wrapped [`Star`] and every workload records spans during the
/// measured run; the trace is returned alongside.
pub fn rep(w: Workload, seed: u64, traced: bool) -> (Rep, Option<Trace>) {
    // Room for the largest traced run without regrowing the span buffer.
    const SPANS: usize = 1 << 22;
    macro_rules! go {
        ($build:expr, $run:path) => {{
            // Cheap set-ups are repeated so their median is steady; the
            // last scenario built is the one measured.
            let mut setups: Vec<f64> = Vec::new();
            let mut built = None;
            while setups.is_empty()
                || (setups.len() < SETUPS_MAX && setups.iter().sum::<f64>() < SETUP_BUDGET_S)
            {
                drop(built.take());
                let (sc, s) = timed(|| $build);
                built = Some(sc);
                setups.push(s);
            }
            let mut sc = built.expect("at least one set-up ran");
            let pool0 = pool_stats();
            let (out, run_s, tr) = if traced {
                trace::start(SPANS);
                let (out, run_s) = timed(|| $run(&mut sc, &Traced));
                (out, run_s, Some(trace::finish()))
            } else {
                let (out, run_s) = timed(|| $run(&mut sc, &Untraced));
                (out, run_s, None)
            };
            let pool1 = pool_stats();
            drop(sc);
            let pool = (pool1.0 - pool0.0, pool1.1 - pool0.1);
            (
                Rep {
                    setup_s: setups,
                    run_s,
                    out,
                    pool,
                },
                tr,
            )
        }};
    }
    match (w, traced) {
        (Workload::Incast, false) => go!(
            fullstack::build_incast(Testbed::star, seed),
            fullstack::run_incast
        ),
        (Workload::Incast, true) => go!(
            fullstack::build_incast(Star::new, seed),
            fullstack::run_incast
        ),
        (Workload::Websearch, false) => go!(
            fullstack::build_websearch(Testbed::star, seed),
            fullstack::run_websearch
        ),
        (Workload::Websearch, true) => go!(
            fullstack::build_websearch(Star::new, seed),
            fullstack::run_websearch
        ),
        (Workload::Datapath, _) => go!(datapath::build(seed), datapath::run),
        (Workload::Churn, _) => go!(churn::build(seed), churn::run),
    }
}

/// A metric value with its unit.
pub type Metrics = BTreeMap<&'static str, (f64, &'static str)>;

/// The result of a whole benchmark invocation.
pub struct Outcome {
    /// Correctness-check failures (empty when correct).
    pub violations: Vec<String>,
    /// Operations attempted across the reported run.
    pub attempted: u64,
    /// Operations failed across the reported run.
    pub failed: u64,
    /// Metrics by name.
    pub metrics: Metrics,
    /// Provenance key/value pairs.
    pub prov: Vec<(String, String)>,
    /// The last traced run's spans, when tracing.
    pub trace: Option<Trace>,
}

/// Fewest measured runs per invocation, whatever `--seconds` says.
const MIN_REPS: usize = 3;

/// Run `w` repeatedly for at least `seconds` and compute the end-to-end
/// metrics (`traced == false`) or the per-layer ledger (`traced == true`).
#[allow(clippy::disallowed_methods)] // wall-clock is the measurement here
pub fn run(w: Workload, seed: u64, seconds: u64, traced: bool) -> Outcome {
    let budget = Duration::from_secs(seconds);
    let started = Instant::now();
    let mut plain: Vec<Rep> = Vec::new();
    // Only the newest traced run is kept; its spans are large.
    let mut traced_rep: Option<(Rep, Trace)> = None;
    let mut peak_rss = None;
    loop {
        plain.push(rep(w, seed, false).0);
        // The high-water mark after the first run is one set-up plus one
        // run; later runs only add allocator fragmentation.
        peak_rss = peak_rss.or_else(peak_rss_mb);
        if traced {
            let (r, t) = rep(w, seed, true);
            traced_rep = Some((r, t.expect("a traced run returns its trace")));
        }
        let enough = if traced { 1 } else { MIN_REPS };
        if plain.len() >= enough && started.elapsed() >= budget {
            break;
        }
    }

    let first = &plain[0].out;
    let mut violations: Vec<String> = Vec::new();
    for r in plain.iter().chain(traced_rep.iter().map(|(r, _)| r)) {
        violations.extend(r.out.violations.iter().cloned());
        if r.out.counts.digest != first.counts.digest || r.out.sim != first.sim {
            violations.push(format!(
                "simulated digest differs between runs of seed {seed}: {:016x} vs {:016x}",
                r.out.counts.digest, first.counts.digest
            ));
        }
    }
    for p in [first.sim.lat_p50, first.sim.lat_p99] {
        if p.beyond < 10 {
            violations.push(format!(
                "a percentile has {} samples beyond it (of {}); at least 10 are required",
                p.beyond, p.samples
            ));
        }
    }
    if first.attempted == 0 {
        violations.push("the run attempted no operation".into());
    }
    violations.sort();
    violations.dedup();

    let mut prov: Vec<(String, String)> = vec![
        ("workload".into(), w.name().into()),
        ("seed".into(), seed.to_string()),
        ("commit".into(), commit()),
        (
            "available_parallelism".into(),
            std::thread::available_parallelism()
                .map(|n| n.get().to_string())
                .unwrap_or_else(|_| "unknown".into()),
        ),
        (
            "build_profile".into(),
            if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            }
            .into(),
        ),
        ("measured_runs".into(), plain.len().to_string()),
        (
            "run_wall_s".into(),
            plain
                .iter()
                .map(|r| format!("{:.4}", r.run_s))
                .collect::<Vec<_>>()
                .join(" "),
        ),
        ("digest".into(), format!("{:016x}", first.counts.digest)),
        (
            "latency_p50_samples".into(),
            first.sim.lat_p50.samples.to_string(),
        ),
        (
            "latency_p99_samples_beyond".into(),
            first.sim.lat_p99.beyond.to_string(),
        ),
    ];
    prov.extend(first.prov.iter().map(|(k, v)| (k.to_string(), v.clone())));

    let mut metrics = Metrics::new();
    if let Some((r, t)) = &traced_rep {
        let untraced_run = median(&plain.iter().map(|r| r.run_s).collect::<Vec<_>>());
        ledger(&mut metrics, r, t, untraced_run);
    } else {
        let pps: Vec<f64> = plain.iter().map(|r| r.out.pkts as f64 / r.run_s).collect();
        let setup: Vec<f64> = plain
            .iter()
            .flat_map(|r| r.setup_s.iter().copied())
            .collect();
        metrics.insert("sim_pkts_per_s", (median(&pps), "1/s"));
        metrics.insert("setup_s", (median(&setup), "s"));
        metrics.insert("peak_rss_mb", (peak_rss.unwrap_or(f64::NAN), "MiB"));
        metrics.insert("sim_lat_p50_us", (first.sim.lat_p50.value, "us"));
        metrics.insert("sim_lat_p99_us", (first.sim.lat_p99.value, "us"));
        metrics.insert("sim_goodput_gbps", (first.sim.goodput_gbps, "Gbps"));
    }
    for (name, (v, _)) in &metrics {
        if !v.is_finite() {
            violations.push(format!("metric {name} is not a finite number"));
        }
    }
    Outcome {
        violations,
        attempted: first.attempted,
        failed: first.failed,
        metrics,
        prov,
        trace: traced_rep.map(|(_, t)| t),
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

fn p99(durs: &[u64]) -> f64 {
    if durs.is_empty() {
        return 0.0;
    }
    let mut d = durs.to_vec();
    d.sort_unstable();
    let rank = (d.len() * 99).div_ceil(100).max(1);
    d[rank - 1] as f64
}

/// The per-layer ledger of one traced run.
fn ledger(m: &mut Metrics, r: &Rep, t: &Trace, untraced_run_s: f64) {
    let (tot, covered) = trace::totals(t);
    let at = |l: Layer| &tot[l as usize];
    let c = &r.out.counts;
    let wall = t.wall_ns as f64;
    let sum = |ls: &[Layer], f: fn(&trace::LayerTotals) -> u64| -> f64 {
        ls.iter().map(|&l| f(at(l)) as f64).sum()
    };
    let switch = [
        Layer::SwitchPacket,
        Layer::SwitchTxStart,
        Layer::SwitchTimer,
    ];
    let host = [Layer::HostPacket, Layer::HostTxStart, Layer::HostTimer];
    let per_call = |l: Layer| ratio(at(l).self_ns as f64, at(l).count as f64);
    let ms_per_call = |l: Layer| ratio(at(l).total_ns as f64, at(l).count as f64) / 1e6;

    let engine_self = at(Layer::EngineRun).self_ns as f64;
    m.insert("netsim.engine.events", (c.events as f64, "count"));
    m.insert(
        "netsim.engine.self_ns_per_event",
        (ratio(engine_self, c.events as f64), "ns"),
    );
    m.insert(
        "netsim.engine.same_slot_batches",
        (c.same_slot_batches as f64, "count"),
    );
    m.insert("netsim.engine.share", (ratio(engine_self, wall), "ratio"));
    let sw_ns = sum(&switch, |x| x.total_ns);
    m.insert(
        "netsim.switch.ns_per_call",
        (ratio(sw_ns, sum(&switch, |x| x.count)), "ns"),
    );
    m.insert("netsim.switch.share", (ratio(sw_ns, wall), "ratio"));
    m.insert("netsim.switch.ecn_marked", (c.ecn_marked as f64, "count"));
    m.insert("netsim.switch.dropped", (c.switch_dropped as f64, "count"));
    m.insert(
        "core.host.on_packet_ns",
        (per_call(Layer::HostPacket), "ns"),
    );
    m.insert("core.host.on_timer_ns", (per_call(Layer::HostTimer), "ns"));
    m.insert(
        "core.host.on_tx_start_ns",
        (per_call(Layer::HostTxStart), "ns"),
    );
    m.insert(
        "core.host.self_share",
        (ratio(sum(&host, |x| x.self_ns), wall), "ratio"),
    );
    m.insert("core.host.conns_per_host", (c.conns_per_host, "count"));
    let app = at(Layer::AppPoll);
    m.insert(
        "apps.poll_ns",
        (ratio(app.total_ns as f64, app.count as f64), "ns"),
    );
    m.insert("apps.share", (ratio(app.total_ns as f64, wall), "ratio"));
    for (l, name, tail) in [
        (
            Layer::VswEgress,
            "vswitch.egress_ns_per_pkt",
            "vswitch.egress_ns_p99",
        ),
        (
            Layer::VswIngress,
            "vswitch.ingress_ns_per_pkt",
            "vswitch.ingress_ns_p99",
        ),
    ] {
        m.insert(
            name,
            (ratio(at(l).total_ns as f64, at(l).count as f64), "ns"),
        );
        m.insert(tail, (p99(&at(l).durs), "ns"));
    }
    m.insert("vswitch.rwnd_rewrites", (c.rwnd_rewrites as f64, "count"));
    m.insert("vswitch.packs_received", (c.packs_received as f64, "count"));
    m.insert("vswitch.facks_sent", (c.facks_sent as f64, "count"));
    m.insert("vswitch.flows", (c.flows as f64, "count"));
    m.insert(
        "tcp.endpoint_ns_per_pkt",
        (
            ratio(at(Layer::Endpoint).total_ns as f64, c.endpoint_pkts as f64),
            "ns",
        ),
    );
    m.insert("tcp.retransmits", (c.retransmits as f64, "count"));
    m.insert("tcp.timeouts", (c.rto_timeouts as f64, "count"));
    let (hits, misses) = r.pool;
    m.insert(
        "packet.pool.hit_ratio",
        (ratio(hits as f64, (hits + misses) as f64), "ratio"),
    );
    m.insert(
        "packet.pool.misses_per_pkt",
        (ratio(misses as f64, r.out.pkts as f64), "ratio"),
    );
    m.insert(
        "vswitch.table.capacity_evictions",
        (c.capacity_evictions as f64, "count"),
    );
    m.insert(
        "vswitch.table.gc_evictions",
        (c.gc_evictions as f64, "count"),
    );
    m.insert(
        "vswitch.maint_ns_per_tick",
        (
            ratio(
                at(Layer::Maint).total_ns as f64,
                at(Layer::Maint).count as f64,
            ),
            "ns",
        ),
    );
    m.insert(
        "workers.dispatch_ns_per_pkt",
        (
            ratio(
                at(Layer::Dispatch).total_ns as f64,
                at(Layer::Dispatch).count as f64,
            ),
            "ns",
        ),
    );
    m.insert(
        "vswitch.checkpoint.capture_ms",
        (ms_per_call(Layer::CkptCapture), "ms"),
    );
    m.insert(
        "vswitch.checkpoint.to_json_ms",
        (ms_per_call(Layer::CkptToJson), "ms"),
    );
    m.insert(
        "vswitch.checkpoint.from_json_ms",
        (ms_per_call(Layer::CkptFromJson), "ms"),
    );
    m.insert(
        "vswitch.checkpoint.restore_ms",
        (ms_per_call(Layer::CkptRestore), "ms"),
    );
    m.insert(
        "vswitch.checkpoint.bytes",
        (c.checkpoint_bytes as f64, "bytes"),
    );
    m.insert(
        "trace.overhead_ratio",
        (ratio(r.run_s, untraced_run_s), "ratio"),
    );
    m.insert(
        "trace.unattributed_share",
        (ratio(wall - covered as f64, wall), "ratio"),
    );
}

/// The commit the benchmark was built from, read from `.git` in the
/// working directory when it is a git checkout.
fn commit() -> String {
    let read = |p: &str| std::fs::read_to_string(format!(".git/{p}")).ok();
    let head = read("HEAD").map(|h| h.trim().to_string());
    let sha = match head.as_deref().and_then(|h| h.strip_prefix("ref: ")) {
        Some(r) => read(r).map(|s| s.trim().to_string()).or_else(|| {
            read("packed-refs")?
                .lines()
                .find(|l| l.ends_with(r))
                .and_then(|l| l.split_whitespace().next())
                .map(str::to_string)
        }),
        None => head,
    };
    sha.unwrap_or_else(|| "unknown (not a git checkout)".into())
}
