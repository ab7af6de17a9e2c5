//! The `churn` workload: the flow table used for writes.
//!
//! `acdc_soak::ChurnGenerator` scripts (handshake, data, FIN; every 7th
//! flow adopted mid-stream) go through `WorkerEngine::dispatch` (two
//! workers, dispatch mode) into one datapath capped at the soak smoke
//! configuration's `max_flows` with evict-oldest-idle admission. The
//! generator is unseeded; the seed sets how many flows each wave
//! launches and how far apart their packets are, so the seed decides how
//! far past the cap closed-but-uncollected flows pile up. Maintenance
//! (`tick` + `gc`) runs every soak slice of virtual time, and one
//! checkpoint cycle — capture, `to_json`, `from_json`, restore into a
//! fresh datapath — runs at the instant the soak suite checkpoints its
//! smoke run. A few foreground guest TCP pairs exchange open-loop
//! messages through the same datapath the whole time; their completion
//! times are the workload's simulated latency. Set-up plays the first
//! [`WARMUP`] of virtual time, so the measured run starts with the table
//! full.

use std::collections::{BTreeSet, VecDeque};
use std::sync::atomic::Ordering;

use acdc_core::Scheme;
use acdc_packet::Segment;
use acdc_soak::{ChurnConfig, ChurnGenerator, SoakConfig};
use acdc_stats::time::{Nanos, MICROSECOND, MILLISECOND};
use acdc_tcp::Endpoint;
use acdc_telemetry::Telemetry;
use acdc_vswitch::{
    AcdcConfig, AcdcCounters, AcdcDatapath, AdmissionPolicy, DatapathCheckpoint, DropReason,
    Verdict,
};
use acdc_workers::{Direction, WorkerEngine};

use crate::pairs::{round, NoVsw, Pair, Tally, Vsw};
use crate::trace::{Layer, Probe, Untraced};
use crate::util::{pctl, sorted, Digest, Rng};
use crate::{Counts, RunOut, SimOut};

/// Worker count of the dispatch engine.
pub const WORKERS: usize = 2;
/// Where the soak suite's smoke checkpoint/restore test captures
/// (`crates/soak/tests/soak.rs`).
pub const CHECKPOINT_AT: Nanos = 900 * MILLISECOND;
/// Virtual length of a run: the first second of the soak smoke run,
/// which holds its checkpoint instant.
pub const DURATION: Nanos = 1_000 * MILLISECOND;
/// Churn waves are a tenth of the soak smoke's 50 ms period apart,
/// with a tenth of the flows each, so little of the stream is held in
/// memory at once.
pub const WAVE_PERIOD: Nanos = 5 * MILLISECOND;
/// Set-up plays the first stretch of churn, so the measured run starts
/// with the flow table full and evicting.
pub const WARMUP: Nanos = 50 * MILLISECOND;
/// Foreground guest TCP pairs.
pub const FOREGROUND: usize = 8;
/// Foreground round-trip time is twice this.
pub const HALF_RTT: Nanos = 10 * MICROSECOND;
/// Foreground messages are issued until this far before the end.
pub const DRAIN_TAIL: Nanos = 100 * MILLISECOND;
/// Frame size for the churn scripts' peers and the foreground pairs.
pub const MTU: usize = 1_500;

/// One scheduled churn packet.
struct Scripted {
    at: Nanos,
    dir: Direction,
    seg: Segment,
    flow: u64,
}

/// A foreground pair's open-loop message stream.
struct Foreground {
    pair: Pair,
    /// When the next message falls due.
    next_due: Nanos,
    /// The message in flight: (due time, ack target).
    outstanding: Option<(Nanos, u64)>,
    /// Messages issued that fell due after the warm-up.
    issued: u64,
    rng: Rng,
}

/// How far the churn loop has got and what it has seen. Set-up runs the
/// warm-up with it; the measured run continues from there.
#[derive(Default)]
struct Progress {
    t: Nanos,
    next_tick: Nanos,
    tally: Tally,
    /// Churn flows that had a packet dropped.
    failed_flows: BTreeSet<u64>,
    /// Foreground completion times of messages due after the warm-up.
    fct_us: Vec<f64>,
    /// Segments dispatched and churn payload bytes since the warm-up.
    segs: u64,
    churn_payload: u64,
    max_occupancy: usize,
    /// The checkpoint cycle's document size, once it ran.
    checkpoint: Option<Result<u64, String>>,
}

/// A set-up `churn` workload.
pub struct Scenario {
    cfg: AcdcConfig,
    dp: AcdcDatapath,
    engine: WorkerEngine,
    schedule: Schedule,
    fg: Vec<Foreground>,
    slice: Nanos,
    progress: Progress,
}

/// Packets in flow `id`'s script: the handshake (2, skipped by adopted
/// flows), a data segment and its ACK per round, then FIN, FIN-ACK, ACK.
fn script_len(id: u64, cfg: &ChurnConfig) -> usize {
    let adopted = cfg.adopt_every != 0 && id.is_multiple_of(cfg.adopt_every);
    let handshake = if adopted { 0 } else { 2 };
    handshake + 2 * cfg.data_segments as usize + 3
}

/// The churn packet stream in virtual-time order. Waves are generated
/// as they fall due, so only about one wave of packets is held at a time.
struct Schedule {
    gen: ChurnGenerator,
    cfg: ChurnConfig,
    /// Spacing of one flow's packets.
    gap: Nanos,
    next_wave: Nanos,
    pending: VecDeque<Scripted>,
}

impl Schedule {
    /// Lay out the next wave: flow `j` of the wave starts `j` staggers
    /// after the wave, its packets `gap` apart.
    fn add_wave(&mut self) {
        let wave = self.next_wave;
        let stagger = self.cfg.wave_period / self.cfg.flows_per_wave as u64;
        let first = self.gen.launched();
        let mut pkts = self.gen.poll(wave).into_iter();
        let mut all: Vec<Scripted> = self.pending.drain(..).collect();
        for j in 0..self.cfg.flows_per_wave as u64 {
            let id = first + j;
            for k in 0..script_len(id, &self.cfg) {
                let (dir, seg) = pkts.next().expect("script lengths match the generator");
                all.push(Scripted {
                    at: wave + j * stagger + k as u64 * self.gap,
                    dir,
                    seg,
                    flow: id,
                });
            }
        }
        assert!(pkts.next().is_none(), "script lengths match the generator");
        // Stable: earlier waves, and one flow's packets, keep their order
        // on equal times.
        all.sort_by_key(|s| s.at);
        self.pending = all.into();
        self.next_wave += self.cfg.wave_period;
    }

    /// The next packet due before `end`.
    fn pop_before(&mut self, end: Nanos) -> Option<Scripted> {
        while self.next_wave < end {
            self.add_wave();
        }
        if self.pending.front()?.at < end {
            self.pending.pop_front()
        } else {
            None
        }
    }
}

/// Set up the capped datapath, the churn stream and the foreground
/// pairs, and play the warm-up.
pub fn build(seed: u64) -> Scenario {
    // The cap and the maintenance period come from the soak smoke run.
    let soak = SoakConfig::smoke("e2e-churn", WORKERS);
    let mut rng = Rng::new(seed, 4);
    let cfg = ChurnConfig {
        flows_per_wave: rng.range(280, 320) as usize,
        wave_period: WAVE_PERIOD,
        ..soak.churn.clone()
    };
    let schedule = Schedule {
        gen: ChurnGenerator::new(cfg.clone()),
        cfg,
        gap: rng.range(20 * MICROSECOND, 60 * MICROSECOND),
        next_wave: 0,
        pending: VecDeque::new(),
    };

    let fg = (0..FOREGROUND)
        .map(|i| {
            let scheme = Scheme::acdc();
            let (a_ip, b_ip) = ([192, 168, 0, i as u8 + 1], [192, 168, 1, i as u8 + 1]);
            let a_cfg = scheme.tcp_config(a_ip, 20_000, b_ip, 5_001, MTU, rng.next_u64() as u32);
            let b_cfg = scheme.tcp_config(b_ip, 5_001, a_ip, 20_000, MTU, rng.next_u64() as u32);
            let mut a = Endpoint::new_active(a_cfg);
            a.open(0);
            Foreground {
                pair: Pair::new(
                    a,
                    Endpoint::new_passive(b_cfg),
                    Rng::new(seed, 50 + i as u64),
                ),
                next_due: rng.range(0, MILLISECOND),
                outstanding: None,
                issued: 0,
                rng: Rng::new(seed, 100 + i as u64),
            }
        })
        .collect();

    let cfg = AcdcConfig {
        max_flows: Some(soak.max_flows),
        admission: AdmissionPolicy::EvictOldestIdle,
        ..Scheme::acdc().acdc_config(MTU)
    };
    let dp = AcdcDatapath::new(cfg.clone());
    let engine = WorkerEngine::new(&dp, WORKERS);
    let mut sc = Scenario {
        cfg,
        dp,
        engine,
        schedule,
        fg,
        slice: soak.slice,
        progress: Progress {
            next_tick: soak.slice,
            ..Progress::default()
        },
    };
    advance(&mut sc, WARMUP, &Untraced);
    let pr = &mut sc.progress;
    (pr.segs, pr.churn_payload, pr.tally.endpoint_pkts) = (0, 0, 0);
    sc
}

/// The local host's vSwitch, reached through the worker engine.
struct Dispatcher<'a, P> {
    dp: &'a AcdcDatapath,
    engine: &'a WorkerEngine,
    probe: &'a P,
    segs: u64,
}

impl<P: Probe> Dispatcher<'_, P> {
    fn dispatch(&mut self, now: Nanos, dir: Direction, seg: Segment) -> Verdict {
        self.segs += 1;
        self.probe.span(Layer::Dispatch, || {
            self.engine.dispatch(self.dp, now, dir, seg)
        })
    }
}

impl<P: Probe> Vsw for Dispatcher<'_, P> {
    fn egress(&mut self, now: Nanos, seg: Segment) -> Verdict {
        self.dispatch(now, Direction::Egress, seg)
    }
    fn ingress(&mut self, now: Nanos, seg: Segment) -> Verdict {
        self.dispatch(now, Direction::Ingress, seg)
    }
}

/// Checkpoint `dp`, serialize, parse, restore into a fresh datapath with
/// a fresh engine, and check the restored pair re-checkpoints to the
/// same bytes. Returns the new datapath, its engine and the document.
fn checkpoint_cycle<P: Probe>(
    cfg: &AcdcConfig,
    dp: &AcdcDatapath,
    engine: &WorkerEngine,
    at: Nanos,
    probe: &P,
) -> Result<(AcdcDatapath, WorkerEngine, String), String> {
    let hub_arcs = engine.hub_arcs();
    let hub_refs: Vec<&Telemetry> = hub_arcs.iter().map(|h| h.as_ref()).collect();
    let ckpt = probe.span(Layer::CkptCapture, || dp.checkpoint(at, &hub_refs));
    let json = probe.span(Layer::CkptToJson, || ckpt.to_json());
    let parsed = probe.span(Layer::CkptFromJson, || DatapathCheckpoint::from_json(&json))?;
    let (fresh, engine) = probe.span(Layer::CkptRestore, || {
        let fresh = AcdcDatapath::new(cfg.clone());
        fresh.restore(&parsed)?;
        let engine = WorkerEngine::new(&fresh, WORKERS);
        for (i, hub) in parsed.worker_hubs.iter().enumerate() {
            hub.apply(engine.sink(i).telemetry())?;
        }
        Ok::<_, String>((fresh, engine))
    })?;
    let again_arcs = engine.hub_arcs();
    let again_refs: Vec<&Telemetry> = again_arcs.iter().map(|h| h.as_ref()).collect();
    if fresh.checkpoint(at, &again_refs).to_json() != json {
        return Err("the restored datapath re-checkpoints to a different document".into());
    }
    Ok((fresh, engine, json))
}

fn all_counters<'a>(dp: &'a AcdcDatapath, engine: &'a WorkerEngine) -> Vec<&'a AcdcCounters> {
    let mut v = vec![dp.counters()];
    v.extend(engine.sinks().iter().map(|s| s.counters()));
    v
}

/// Play the schedule up to `until` with maintenance, the checkpoint cycle
/// and the foreground exchange interleaved in virtual-time order.
fn advance<P: Probe>(sc: &mut Scenario, until: Nanos, probe: &P) {
    let round_len = 2 * HALF_RTT;
    let issue_until = DURATION - DRAIN_TAIL;
    let pr = &mut sc.progress;
    while pr.t < until {
        let t = pr.t;
        let mut vsw = Dispatcher {
            dp: &sc.dp,
            engine: &sc.engine,
            probe,
            segs: 0,
        };
        for f in &mut sc.fg {
            let a = &mut f.pair.a;
            if f.outstanding.is_none()
                && f.next_due <= t
                && f.next_due < issue_until
                && a.is_established()
            {
                let size = f.rng.range(2_000, 64_000);
                a.send(size);
                f.issued += u64::from(f.next_due >= WARMUP);
                f.outstanding = Some((f.next_due, a.queued_bytes()));
                f.next_due += f.rng.range(50 * MICROSECOND, 450 * MICROSECOND);
            }
            round(
                &mut f.pair,
                t,
                HALF_RTT,
                &mut vsw,
                &mut NoVsw,
                0,
                probe,
                &mut pr.tally,
            );
            // A took in B's ACKs at `t`, at the start of the round.
            if let Some((due, target)) = f.outstanding {
                if f.pair.a.acked_bytes() >= target {
                    if due >= WARMUP {
                        pr.fct_us.push((t - due) as f64 / 1_000.0);
                    }
                    f.outstanding = None;
                }
            }
        }
        let end = t + round_len;
        while let Some(s) = sc.schedule.pop_before(end) {
            pr.churn_payload += s.seg.payload_len() as u64;
            match vsw.dispatch(s.at, s.dir, s.seg) {
                Verdict::Drop(DropReason::FackConsumed)
                | Verdict::Forward(_)
                | Verdict::ForwardWithExtra(..) => {}
                Verdict::Drop(_) => {
                    pr.failed_flows.insert(s.flow);
                }
            }
            pr.max_occupancy = pr.max_occupancy.max(sc.dp.flows());
        }
        pr.segs += vsw.segs;
        if pr.next_tick <= end {
            let (dp, at) = (&sc.dp, pr.next_tick);
            probe.span(Layer::Maint, || {
                dp.tick(at);
                dp.gc(at, sc.cfg.gc_idle_timeout);
            });
            pr.next_tick += sc.slice;
        }
        if pr.checkpoint.is_none() && CHECKPOINT_AT <= end {
            pr.checkpoint = Some(
                checkpoint_cycle(&sc.cfg, &sc.dp, &sc.engine, CHECKPOINT_AT, probe).map(
                    |(dp, engine, json)| {
                        sc.dp = dp;
                        sc.engine = engine;
                        json.len() as u64
                    },
                ),
            );
        }
        pr.t = end;
    }
}

/// Run from the end of the warm-up to the end of the virtual span.
pub fn run<P: Probe>(sc: &mut Scenario, probe: &P) -> RunOut {
    let fg_acked_warm: u64 = sc.fg.iter().map(|f| f.pair.a.acked_bytes()).sum();
    advance(sc, DURATION, probe);
    let cap = sc.cfg.max_flows.expect("churn caps the table");
    let pr = &mut sc.progress;
    let mut violations = Vec::new();
    let issued = sc.fg.iter().map(|f| f.issued).sum::<u64>();
    let unfinished = sc.fg.iter().filter(|f| f.outstanding.is_some()).count() as u64;
    let fg_acked = sc.fg.iter().map(|f| f.pair.a.acked_bytes()).sum::<u64>() - fg_acked_warm;
    let ckpt_bytes = match pr.checkpoint.take() {
        Some(Ok(bytes)) => bytes,
        Some(Err(e)) => {
            violations.push(format!("checkpoint cycle: {e}"));
            0
        }
        None => {
            violations.push("the checkpoint cycle never ran".into());
            0
        }
    };

    let mut refused = 0;
    let mut c = Counts {
        endpoint_pkts: pr.tally.endpoint_pkts,
        flows: sc.dp.flows() as u64,
        checkpoint_bytes: ckpt_bytes,
        ..Counts::default()
    };
    for k in all_counters(&sc.dp, &sc.engine) {
        c.rwnd_rewrites += k.rwnd_rewrites.load(Ordering::Relaxed);
        c.packs_received += k.packs_received.load(Ordering::Relaxed);
        c.facks_sent += k.facks_sent.load(Ordering::Relaxed);
        c.policed_drops += k.policed_drops.load(Ordering::Relaxed);
        c.capacity_evictions += k.capacity_evictions.load(Ordering::Relaxed);
        c.gc_evictions += k.gc_evictions.load(Ordering::Relaxed);
        refused += k.admission_rejects.load(Ordering::Relaxed);
    }
    for f in &sc.fg {
        c.retransmits += f.pair.a.retransmitted_segments() + f.pair.b.retransmitted_segments();
        c.rto_timeouts += f.pair.a.timeouts() + f.pair.b.timeouts();
    }
    if pr.max_occupancy > cap {
        violations.push(format!(
            "occupancy reached {}, above the cap {cap}",
            pr.max_occupancy
        ));
    }
    if pr.tally.dropped != 0 {
        violations.push(format!(
            "{} foreground segments were dropped",
            pr.tally.dropped
        ));
    }
    let failed_churn = pr.failed_flows.len() as u64 + refused;
    let launched = sc.schedule.gen.launched();
    let segs = pr.segs;
    let fct = sorted(std::mem::take(&mut pr.fct_us));
    if fct.is_empty() {
        violations.push("no foreground message completed".into());
        return RunOut {
            sim: SimOut::missing(),
            pkts: segs,
            counts: c,
            attempted: launched + issued,
            failed: failed_churn + unfinished,
            violations,
            prov: Vec::new(),
        };
    }
    let span = DURATION - WARMUP;
    let sim = SimOut {
        lat_p50: pctl(&fct, 50.0),
        lat_p99: pctl(&fct, 99.0),
        goodput_gbps: (pr.churn_payload + fg_acked) as f64 * 8.0 / span as f64,
    };
    let mut digest = Digest::default();
    for v in [
        segs,
        c.capacity_evictions,
        c.gc_evictions,
        c.rwnd_rewrites,
        c.flows,
        ckpt_bytes,
        fg_acked,
    ] {
        digest.add(v);
    }
    for v in [sim.lat_p50.value, sim.lat_p99.value, sim.goodput_gbps] {
        digest.add_f64(v);
    }
    c.digest = digest.value();
    RunOut {
        sim,
        pkts: segs,
        counts: c,
        attempted: launched + issued,
        failed: failed_churn + unfinished,
        violations,
        prov: vec![
            ("packets", segs.to_string()),
            ("virtual_span_ns", span.to_string()),
            ("warmup_excluded_ns", WARMUP.to_string()),
            ("table_cap", cap.to_string()),
            ("max_occupancy", pr.max_occupancy.to_string()),
            ("churn_flows", launched.to_string()),
            ("checkpoint_at_ns", CHECKPOINT_AT.to_string()),
            (
                "latency_samples",
                "foreground message completion times".into(),
            ),
        ],
    }
}
