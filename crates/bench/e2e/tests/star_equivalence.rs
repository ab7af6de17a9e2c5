//! The traced run's hand-built, adapter-wrapped star must simulate
//! exactly what `Testbed::star` simulates; otherwise the per-layer
//! ledger would describe a different run than the end-to-end metrics.

use acdc_core::{HostNode, Testbed};
use acdc_e2e_bench::fullstack::{build_incast, build_websearch};
use acdc_e2e_bench::topo::{Star, Topo};
use acdc_e2e_bench::trace::{self, Layer};
use acdc_netsim::{NodeId, SwitchNode};
use acdc_stats::time::MILLISECOND;

const SEED: u64 = 11;

/// Everything a run simulated: engine events, then per host and
/// connection the local port, the wire `snd_nxt` (which carries the ISS),
/// the acked bytes, the app's FCT records and RTT samples, then each
/// host-level app's FCT records.
fn fingerprint(topo: &mut impl Topo) -> Vec<u64> {
    let mut out = vec![topo.net().events_processed()];
    for i in 0..topo.hosts() {
        let host = topo.host(i);
        for c in 0..host.conn_count() {
            let ep = host.endpoint(c);
            out.extend([
                u64::from(ep.flow_key().src_port),
                u64::from(ep.wire_snd_nxt().0),
                ep.acked_bytes(),
            ]);
            if let Some(app) = host.app(c) {
                if let Some(fct) = app.fct() {
                    out.extend(fct.samples().iter().flat_map(|s| [s.start, s.end, s.bytes]));
                }
                if let Some(rtts) = app.rtt_samples_ms() {
                    out.extend(rtts.iter().map(|r| r.to_bits()));
                }
            }
        }
        for a in 0..host.multi_app_count() {
            if let Some(fct) = host.multi_app(a).and_then(|m| m.fct()) {
                out.extend(fct.samples().iter().flat_map(|s| [s.start, s.end, s.bytes]));
            }
        }
    }
    out
}

fn assert_same(plain: &mut impl Topo, wrapped: &mut impl Topo) {
    let (a, b) = (fingerprint(plain), fingerprint(wrapped));
    assert!(
        a[0] > 1_000,
        "the short run simulated too little: {} events",
        a[0]
    );
    assert_eq!(a, b, "the wrapped star diverged from Testbed::star");
    assert_eq!(plain.delivered_pkts(), wrapped.delivered_pkts());
}

#[test]
fn wrapped_star_reproduces_testbed_incast() {
    let mut plain = build_incast(Testbed::star, SEED);
    let mut wrapped = build_incast(Star::new, SEED);
    plain.topo().net().run_until(60 * MILLISECOND);
    trace::start(1 << 16);
    wrapped.topo().net().run_until(60 * MILLISECOND);
    let spans = trace::finish();
    assert_same(plain.topo(), wrapped.topo());
    for layer in [Layer::HostPacket, Layer::SwitchPacket, Layer::AppPoll] {
        assert!(
            spans.spans.iter().any(|s| s.layer == layer),
            "no {layer:?} span was recorded"
        );
    }
    // App polls happen inside host callbacks, so they are never
    // top-level spans.
    assert!(spans
        .spans
        .iter()
        .filter(|s| s.layer == Layer::AppPoll)
        .all(|s| s.parent != trace::NO_PARENT));
}

#[test]
fn wrapped_star_reproduces_testbed_websearch() {
    let mut plain = build_websearch(Testbed::star, SEED);
    let mut wrapped = build_websearch(Star::new, SEED);
    plain.topo().net().run_until(30 * MILLISECOND);
    wrapped.topo().net().run_until(30 * MILLISECOND);
    assert_same(plain.topo(), wrapped.topo());
}

#[test]
fn wrapped_nodes_stay_reachable_by_downcast() {
    let mut star = Star::new(3, acdc_core::Scheme::acdc(), 9_000);
    // Node 0 is the switch, hosts follow in order, as in `Testbed`.
    assert!(star.net().node_mut::<SwitchNode>(NodeId(0)).is_some());
    for i in 1..=3 {
        let host = star.net().node_mut::<HostNode>(NodeId(i));
        assert_eq!(
            host.expect("host behind its adapter").ip(),
            [10, 0, 0, i as u8]
        );
    }
}
