//! Guest TCP endpoint pairs exchanging segments through vSwitches
//! without the simulator, for the `datapath` and `churn` workloads.
//!
//! Every pair runs in lockstep rounds of one round-trip time: at `t` the
//! A side takes in what B sent last round and transmits; its segments
//! cross A's vSwitch egress and B's vSwitch ingress and reach B at
//! `t + half`; B answers at `t + half` through its own egress, and those
//! segments wait for A's ingress at the next round. Every datapath thus
//! sees its calls in non-decreasing virtual time.

use acdc_packet::{Ecn, Segment};
use acdc_stats::time::Nanos;
use acdc_tcp::Endpoint;
use acdc_vswitch::{DropReason, Verdict};

use crate::trace::{Layer, Probe};
use crate::util::Rng;

/// One host's vSwitch as the pair exchange drives it.
pub trait Vsw {
    /// Guest → network.
    fn egress(&mut self, now: Nanos, seg: Segment) -> Verdict;
    /// Network → guest.
    fn ingress(&mut self, now: Nanos, seg: Segment) -> Verdict;
}

/// A host with no vSwitch: segments pass untouched.
pub struct NoVsw;

impl Vsw for NoVsw {
    fn egress(&mut self, _now: Nanos, seg: Segment) -> Verdict {
        Verdict::Forward(seg)
    }
    fn ingress(&mut self, _now: Nanos, seg: Segment) -> Verdict {
        Verdict::Forward(seg)
    }
}

/// An active (A) and a passive (B) endpoint plus what B sent toward A.
pub struct Pair {
    /// The active opener.
    pub a: Endpoint,
    /// The passive side.
    pub b: Endpoint,
    to_a: Vec<Segment>,
    marks: Rng,
}

impl Pair {
    /// A pair; `marks` draws which of A's data segments get CE-marked.
    pub fn new(a: Endpoint, b: Endpoint, marks: Rng) -> Pair {
        Pair {
            a,
            b,
            to_a: Vec::new(),
            marks,
        }
    }
}

/// Running totals of an exchange.
#[derive(Debug, Default, Clone)]
pub struct Tally {
    /// Segments handed to or taken from an endpoint.
    pub endpoint_pkts: u64,
    /// Segments a vSwitch consumed for any reason but an absorbed FACK.
    pub dropped: u64,
}

/// The segments a verdict lets through; counts real drops.
fn forwarded(v: Verdict, tally: &mut Tally) -> [Option<Segment>; 2] {
    match v {
        Verdict::Forward(s) => [Some(s), None],
        Verdict::ForwardWithExtra(s, extra) => [Some(s), Some(extra)],
        Verdict::Drop(DropReason::FackConsumed) => [None, None],
        Verdict::Drop(_) => {
            tally.dropped += 1;
            [None, None]
        }
    }
}

/// One round of `pair` at `t`. A's data segments are CE-marked on the
/// wire with probability `ce_ppm` per million.
#[allow(clippy::too_many_arguments)]
pub fn round<P: Probe>(
    pair: &mut Pair,
    t: Nanos,
    half: Nanos,
    va: &mut impl Vsw,
    vb: &mut impl Vsw,
    ce_ppm: u64,
    probe: &P,
    tally: &mut Tally,
) {
    let Pair { a, b, to_a, marks } = pair;
    let mut inbox = std::mem::take(to_a);
    for seg in inbox.drain(..) {
        for s in forwarded(va.ingress(t, seg), tally).into_iter().flatten() {
            tally.endpoint_pkts += 1;
            probe.span(Layer::Endpoint, || a.on_segment(t, &s));
        }
    }
    *to_a = inbox;
    if a.next_timer().is_some_and(|at| at <= t) {
        probe.span(Layer::Endpoint, || a.on_timer(t));
    }
    let tb = t + half;
    while let Some(seg) = probe.span(Layer::Endpoint, || a.poll_transmit(t)) {
        tally.endpoint_pkts += 1;
        for mut s in forwarded(va.egress(t, seg), tally).into_iter().flatten() {
            if s.payload_len() > 0 && s.ecn() != Ecn::NotEct && marks.range(0, 1_000_000) < ce_ppm {
                s.mark_ce();
            }
            for s in forwarded(vb.ingress(tb, s), tally).into_iter().flatten() {
                tally.endpoint_pkts += 1;
                probe.span(Layer::Endpoint, || b.on_segment(tb, &s));
            }
        }
    }
    if b.next_timer().is_some_and(|at| at <= tb) {
        probe.span(Layer::Endpoint, || b.on_timer(tb));
    }
    while let Some(seg) = probe.span(Layer::Endpoint, || b.poll_transmit(tb)) {
        tally.endpoint_pkts += 1;
        to_a.extend(forwarded(vb.egress(tb, seg), tally).into_iter().flatten());
    }
}
