//! The `datapath` workload: 100k concurrent guest TCP flows through two
//! AC/DC datapaths, with no simulator.
//!
//! Each flow is a real endpoint pair (see [`crate::pairs`]): the sender's
//! segments cross datapath A's egress and datapath B's ingress, the
//! receiver's ACKs cross B's egress and A's ingress. Guest stacks cycle
//! through Table 1's six host stacks. A seed-chosen fixed share of data
//! segments is CE-marked on the wire, so B's receiver module returns PACK
//! feedback and A's sender module keeps rewriting RWND. All flows are
//! established during set-up; the measured run sends each flow's byte
//! budget and ends when every budget is acknowledged.

use std::sync::atomic::Ordering;

use acdc_core::testbed::table1_host_stacks;
use acdc_core::Scheme;
use acdc_stats::time::{Nanos, MICROSECOND};
use acdc_tcp::Endpoint;
use acdc_vswitch::{AcdcDatapath, Verdict};

use crate::pairs::{round, Pair, Tally, Vsw};
use crate::trace::{Layer, Probe, Untraced};
use crate::util::{pctl, sorted, Digest, Rng};
use crate::{Counts, RunOut, SimOut};

/// Concurrent flows.
pub const FLOWS: usize = 100_000;
/// Standard Ethernet frames: the most packets per byte.
pub const MTU: usize = 1_500;
/// One-way delay between the two hosts; a round is twice this.
pub const HALF_RTT: Nanos = 10 * MICROSECOND;
/// A flow still unacknowledged after this many rounds has failed.
const MAX_ROUNDS: u64 = 20_000;

/// One datapath, counting the segments it processes.
struct Dp<'a, P> {
    dp: &'a AcdcDatapath,
    probe: &'a P,
    segs: u64,
}

impl<P: Probe> Vsw for Dp<'_, P> {
    fn egress(&mut self, now: Nanos, seg: acdc_packet::Segment) -> Verdict {
        self.segs += 1;
        self.probe
            .span(Layer::VswEgress, || self.dp.egress(now, seg))
    }
    fn ingress(&mut self, now: Nanos, seg: acdc_packet::Segment) -> Verdict {
        self.segs += 1;
        self.probe
            .span(Layer::VswIngress, || self.dp.ingress(now, seg))
    }
}

/// A set-up `datapath` workload: every flow established.
pub struct Scenario {
    dp_a: AcdcDatapath,
    dp_b: AcdcDatapath,
    pairs: Vec<Pair>,
    budgets: Vec<u64>,
    /// How long before the first measured round each flow's budget was
    /// due; its completion time counts from then.
    due_early: Vec<Nanos>,
    ce_ppm: u64,
    t0: Nanos,
}

fn ip(side: u8, i: usize) -> [u8; 4] {
    [10, side + (i >> 16) as u8, (i >> 8) as u8, i as u8]
}

/// Build the datapaths and endpoint pairs and run every handshake.
pub fn build(seed: u64) -> Scenario {
    let mut rng = Rng::new(seed, 3);
    let stacks = table1_host_stacks();
    let ce_ppm = rng.range(20_000, 80_000);
    let mut pairs = Vec::with_capacity(FLOWS);
    let mut budgets = Vec::with_capacity(FLOWS);
    let mut due_early = Vec::with_capacity(FLOWS);
    for i in 0..FLOWS {
        let scheme = Scheme::acdc_with_host(stacks[i % stacks.len()]);
        let (a_ip, b_ip) = (ip(100, i), ip(200, i));
        let a_port = 10_000 + (i % 50_000) as u16;
        let a_cfg = scheme.tcp_config(a_ip, a_port, b_ip, 5_001, MTU, rng.next_u64() as u32);
        let b_cfg = scheme.tcp_config(b_ip, 5_001, a_ip, a_port, MTU, rng.next_u64() as u32);
        pairs.push(Pair::new(
            Endpoint::new_active(a_cfg),
            Endpoint::new_passive(b_cfg),
            Rng::new(seed, 1_000 + i as u64),
        ));
        budgets.push(rng.range(4_000, 32_000));
        due_early.push(rng.range(0, 2 * HALF_RTT));
    }
    let mut sc = Scenario {
        dp_a: AcdcDatapath::new(Scheme::acdc().acdc_config(MTU)),
        dp_b: AcdcDatapath::new(Scheme::acdc().acdc_config(MTU)),
        pairs,
        budgets,
        due_early,
        ce_ppm,
        t0: 0,
    };
    let mut t = 2 * HALF_RTT;
    for p in &mut sc.pairs {
        p.a.open(t);
    }
    let mut tally = Tally::default();
    let (mut va, mut vb) = (
        Dp {
            dp: &sc.dp_a,
            probe: &Untraced,
            segs: 0,
        },
        Dp {
            dp: &sc.dp_b,
            probe: &Untraced,
            segs: 0,
        },
    );
    while !sc
        .pairs
        .iter()
        .all(|p| p.a.is_established() && p.b.is_established())
    {
        for p in &mut sc.pairs {
            round(p, t, HALF_RTT, &mut va, &mut vb, 0, &Untraced, &mut tally);
        }
        t += 2 * HALF_RTT;
        assert!(t < 100 * 2 * HALF_RTT, "handshakes did not complete");
    }
    sc.t0 = t;
    sc
}

/// Send every flow's budget and run rounds until all are acknowledged.
pub fn run<P: Probe>(sc: &mut Scenario, probe: &P) -> RunOut {
    let mut tally = Tally::default();
    let (mut va, mut vb) = (
        Dp {
            dp: &sc.dp_a,
            probe,
            segs: 0,
        },
        Dp {
            dp: &sc.dp_b,
            probe,
            segs: 0,
        },
    );
    for (p, &b) in sc.pairs.iter_mut().zip(&sc.budgets) {
        p.a.send(b);
    }
    let mut active: Vec<usize> = (0..sc.pairs.len()).collect();
    let mut fct_us = Vec::with_capacity(sc.pairs.len());
    let mut t = sc.t0;
    let mut rounds = 0;
    while !active.is_empty() && rounds < MAX_ROUNDS {
        active.retain(|&i| {
            let p = &mut sc.pairs[i];
            round(
                p, t, HALF_RTT, &mut va, &mut vb, sc.ce_ppm, probe, &mut tally,
            );
            let done = p.a.acked_bytes() >= sc.budgets[i];
            if done {
                // A took in the completing ACK at `t`, at the start of
                // the round.
                fct_us.push((t - (sc.t0 - sc.due_early[i])) as f64 / 1_000.0);
            }
            !done
        });
        t += 2 * HALF_RTT;
        rounds += 1;
    }
    let segs = va.segs + vb.segs;
    let span = t - sc.t0;

    let mut c = Counts {
        endpoint_pkts: tally.endpoint_pkts,
        flows: (sc.dp_a.flows() + sc.dp_b.flows()) as u64,
        ..Counts::default()
    };
    for dp in [&sc.dp_a, &sc.dp_b] {
        let k = dp.counters();
        c.rwnd_rewrites += k.rwnd_rewrites.load(Ordering::Relaxed);
        c.packs_received += k.packs_received.load(Ordering::Relaxed);
        c.facks_sent += k.facks_sent.load(Ordering::Relaxed);
        c.policed_drops += k.policed_drops.load(Ordering::Relaxed);
        c.capacity_evictions += k.capacity_evictions.load(Ordering::Relaxed);
        c.gc_evictions += k.gc_evictions.load(Ordering::Relaxed);
    }
    let mut digest = Digest::default();
    digest.add(segs);
    for p in &sc.pairs {
        digest.add(p.a.acked_bytes());
        c.retransmits += p.a.retransmitted_segments() + p.b.retransmitted_segments();
        c.rto_timeouts += p.a.timeouts() + p.b.timeouts();
    }
    let mut violations = Vec::new();
    if !active.is_empty() {
        violations.push(format!(
            "{} flows were not fully acknowledged",
            active.len()
        ));
    }
    if c.policed_drops != 0 || tally.dropped != 0 {
        violations.push(format!(
            "the datapaths dropped segments: policed {} other {}",
            c.policed_drops, tally.dropped
        ));
    }
    if c.rwnd_rewrites == 0 || c.packs_received == 0 {
        violations.push(format!(
            "AC/DC never engaged: rwnd_rewrites={} packs_received={}",
            c.rwnd_rewrites, c.packs_received
        ));
    }
    let fct = sorted(fct_us);
    let sim = if fct.is_empty() {
        SimOut::missing()
    } else {
        SimOut {
            lat_p50: pctl(&fct, 50.0),
            lat_p99: pctl(&fct, 99.0),
            goodput_gbps: sc.budgets.iter().sum::<u64>() as f64 * 8.0 / span as f64,
        }
    };
    for v in [sim.lat_p50.value, sim.lat_p99.value, sim.goodput_gbps] {
        digest.add_f64(v);
    }
    c.digest = digest.value();
    RunOut {
        sim,
        pkts: segs,
        counts: c,
        attempted: sc.pairs.len() as u64,
        failed: active.len() as u64,
        violations,
        prov: vec![
            ("packets", segs.to_string()),
            ("virtual_span_ns", span.to_string()),
            (
                "warmup_excluded_ns",
                "0 (handshakes run during set-up)".into(),
            ),
            ("ce_marked_ppm", sc.ce_ppm.to_string()),
            ("latency_samples", "flow completion times".into()),
        ],
    }
}
