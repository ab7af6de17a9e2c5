//! Direct tests of the host node: TSQ gating, rate limiting, timer
//! plumbing — via a minimal two-host network.

use acdc_core::{ConnTaps, Scheme, Testbed};
use acdc_stats::time::{Nanos, MICROSECOND, MILLISECOND, SECOND};
use acdc_tcp::TcpState;
use acdc_workloads::apps::{App, AppConn, BulkSender, MessageSender};
use acdc_workloads::{FctKind, FctRecorder};

/// A bulk flow and a mice flow sharing one host NIC: per-connection TSQ
/// must keep the mice from queueing behind the bulk flow's window.
#[test]
fn tsq_isolates_mice_from_bulk_on_the_same_nic() {
    let mut tb = Testbed::star(3, Scheme::Cubic, 9000);
    // Bulk host 0 → host 1; mice host 0 → host 2 (different receiver, so
    // only the *sender-side* NIC is shared).
    let _bulk = tb.add_flow(
        0,
        1,
        Some(Box::new(BulkSender::unlimited())),
        None,
        0,
        ConnTaps::default(),
    );
    let mice = tb.add_flow(
        0,
        2,
        Some(Box::new(MessageSender::new(
            16_384,
            5 * MILLISECOND,
            None,
            FctKind::Mice,
        ))),
        None,
        0,
        ConnTaps::default(),
    );
    tb.run_until(SECOND);
    let fct = tb.fct_of(mice);
    let mut d = fct.distribution_ms(FctKind::Mice);
    assert!(d.len() > 150, "mice kept flowing: {}", d.len());
    let p99 = d.percentile(99.0).unwrap();
    // Without TSQ the bulk flow would park its whole window (up to the
    // 4 MB receive buffer ≈ 3.3 ms of NIC time) ahead of every mouse.
    assert!(
        p99 < 1.0,
        "mice p99 {p99:.3} ms must stay well under bulk-window bufferbloat"
    );
}

/// The host egress token bucket caps the sum of all its flows.
#[test]
fn rate_limit_applies_to_the_whole_host() {
    let mut tb = Testbed::dumbbell(2, Scheme::Cubic, 9000);
    tb.host_mut(0).set_rate_limit(1_000_000_000, 32_000); // 1 Gbps
    let f1 = tb.add_bulk(0, 2, None, 0);
    let f2 = tb.add_bulk(0, 3, None, 0); // second flow, same host
    let unlimited = tb.add_bulk(1, 3, None, 0); // different host, no limit
    tb.run_until(200 * MILLISECOND);
    let g1 = tb.flow_gbps(f1, 0, 200 * MILLISECOND);
    let g2 = tb.flow_gbps(f2, 0, 200 * MILLISECOND);
    let gu = tb.flow_gbps(unlimited, 0, 200 * MILLISECOND);
    assert!(
        g1 + g2 < 1.1,
        "host limit must bound the sum: {g1:.2} + {g2:.2}"
    );
    assert!(gu > 5.0, "other hosts unaffected: {gu:.2}");
}

/// Flows scheduled to start later actually wait, and `set_flow_stop`
/// freezes a flow's progress at the requested time.
#[test]
fn start_and_stop_schedules_are_honoured() {
    let mut tb = Testbed::dumbbell(2, Scheme::Dctcp, 9000);
    let early = tb.add_bulk(0, 2, None, 0);
    let late = tb.add_bulk(1, 3, None, 100 * MILLISECOND);
    tb.set_flow_stop(early, 50 * MILLISECOND);
    tb.run_until(60 * MILLISECOND);
    let early_at_60 = tb.acked_bytes(early);
    assert!(early_at_60 > 0);
    assert_eq!(tb.acked_bytes(late), 0, "late flow not started yet");
    tb.run_until(200 * MILLISECOND);
    let early_final = tb.acked_bytes(early);
    assert!(
        early_final - early_at_60 < 2_000_000,
        "stopped flow only drained in-flight data ({} more bytes)",
        early_final - early_at_60
    );
    assert!(tb.acked_bytes(late) > 10_000_000, "late flow ran");
}

/// Datapath counters accumulate across all of a host's flows.
#[test]
fn per_host_datapath_counters_aggregate_flows() {
    let mut tb = Testbed::star(3, Scheme::acdc(), 1500);
    let _a = tb.add_bulk(0, 2, Some(2_000_000), 0);
    let _b = tb.add_bulk(0, 2, Some(2_000_000), 0);
    let _c = tb.add_bulk(1, 2, Some(2_000_000), 0);
    tb.run_until(SECOND);
    // Host 0 tracked 2 connections (4 directions), host 1 one (2).
    assert_eq!(tb.host_mut(0).datapath().flows(), 4);
    assert_eq!(tb.host_mut(1).datapath().flows(), 2);
    // The receiver host saw PACK-worthy traffic from both senders.
    let packs = tb
        .host_mut(2)
        .datapath()
        .counters()
        .packs_sent
        .load(std::sync::atomic::Ordering::Relaxed);
    assert!(packs > 0, "receiver-side module attached feedback");
}

/// Hosts keep distinct per-connection ephemeral ports.
#[test]
fn flow_keys_are_unique_per_host() {
    let mut tb = Testbed::star(3, Scheme::Dctcp, 1500);
    let h1 = tb.add_bulk(0, 2, Some(1_000), 0);
    let h2 = tb.add_bulk(0, 2, Some(1_000), 0);
    let h3 = tb.add_bulk(1, 2, Some(1_000), 0);
    assert_ne!(h1.key, h2.key);
    assert_ne!(h1.key.src_port, h2.key.src_port);
    assert_ne!(h1.key, h3.key);
    tb.run_until(100 * MILLISECOND);
    assert_eq!(tb.acked_bytes(h1), 1_000);
    assert_eq!(tb.acked_bytes(h2), 1_000);
    assert_eq!(tb.acked_bytes(h3), 1_000);
}

// ----------------------------------------------------------------------
// Host scheduling: each deadline source wakes the host on its own.
// ----------------------------------------------------------------------

/// Add `n` passive connections on `host` that never see a SYN: idle
/// neighbours for the connections under test.
fn add_idle_listeners(tb: &mut Testbed, host: usize, n: u16) {
    let ip = tb.host_mut(host).ip();
    let peer = [10, 0, 9, 9];
    for i in 0..n {
        let cfg = Scheme::Dctcp.tcp_config(ip, 20_000 + i, peer, 30_000 + i, 1500, u32::from(i));
        tb.host_mut(host)
            .add_connection(cfg, false, None, None, ConnTaps::default());
    }
}

/// An active open scheduled with `start_at` on a host that is otherwise
/// idle — no flow kick at the start time, only one wake-up at zero —
/// sends its SYN exactly at `start_at`.
#[test]
fn start_at_opens_an_idle_hosts_connection_on_time() {
    let mut tb = Testbed::star(2, Scheme::Dctcp, 1500);
    add_idle_listeners(&mut tb, 0, 8);
    let (cip, sip) = (tb.host_mut(0).ip(), tb.host_mut(1).ip());
    let start = 7 * MILLISECOND + 123;
    let ccfg = Scheme::Dctcp.tcp_config(cip, 40_000, sip, 5_001, 1500, 1);
    let scfg = Scheme::Dctcp.tcp_config(sip, 5_001, cip, 40_000, 1500, 2);
    let conn = tb.host_mut(0).add_connection(
        ccfg,
        true,
        Some(start),
        Some(Box::new(BulkSender::new(50_000, FctKind::Background))),
        ConnTaps::default(),
    );
    tb.host_mut(1)
        .add_connection(scfg, false, None, None, ConnTaps::default());
    tb.kick_host(0, 0);

    tb.run_until(start - 1);
    assert_eq!(tb.host_mut(0).endpoint(conn).state(), TcpState::Closed);
    tb.run_until(start);
    assert_eq!(tb.host_mut(0).endpoint(conn).state(), TcpState::SynSent);
    tb.run_until(start + 10 * MILLISECOND);
    assert_eq!(tb.host_mut(0).endpoint(conn).acked_bytes(), 50_000);
}

/// `set_stop_at` called mid-run through `Testbed::host_mut` (which,
/// unlike `set_flow_stop`, schedules no wake-up) truncates the stream
/// exactly at the requested time. The second stop lands on a connection
/// that already finished: it changes nothing visible, but under
/// `strict-invariants` the host's index check sees it filed.
#[test]
fn set_stop_at_through_host_mut_takes_effect_on_time() {
    let mut tb = Testbed::star(2, Scheme::Dctcp, 9000);
    let flow = tb.add_bulk(0, 1, None, 0);
    let done = tb.add_bulk(0, 1, Some(10_000), 0);
    tb.run_until(20 * MILLISECOND);
    assert_eq!(tb.acked_bytes(done), 10_000);
    let idx = tb.client_conn_index(flow);
    let stop = 30 * MILLISECOND + 17;
    tb.host_mut(0).set_stop_at(idx, stop);
    let idle = tb.client_conn_index(done);
    tb.host_mut(0).set_stop_at(idle, 25 * MILLISECOND);

    tb.run_until(stop - 1);
    let unlimited = tb.host_mut(0).endpoint(idx).queued_bytes();
    tb.run_until(stop);
    let truncated = tb.host_mut(0).endpoint(idx).queued_bytes();
    assert!(
        truncated < unlimited,
        "stream truncated at the stop time ({unlimited} -> {truncated})"
    );
    tb.run_until(50 * MILLISECOND);
    assert_eq!(tb.acked_bytes(flow), truncated, "in-flight data drained");
    assert_eq!(tb.acked_bytes(done), 10_000);
}

/// A `MessageSender` asks for a wake-up at every period. With 120 idle
/// passive connections on the same host, each message still leaves on
/// schedule: its FCT (measured from the scheduled send time) stays a
/// network round trip, far below the period.
#[test]
fn periodic_app_wakes_on_time_beside_idle_connections() {
    let mut tb = Testbed::star(2, Scheme::Dctcp, 1500);
    add_idle_listeners(&mut tb, 0, 120);
    let period = MILLISECOND + 7;
    let flow = tb.add_flow(
        0,
        1,
        Some(Box::new(MessageSender::new(
            2_000,
            period,
            None,
            FctKind::Mice,
        ))),
        None,
        0,
        ConnTaps::default(),
    );
    tb.run_until(50 * MILLISECOND);
    assert_eq!(tb.host_mut(0).conn_count(), 121);
    let fct = tb.fct_of(flow);
    assert!(fct.len() >= 48, "one message per period: {}", fct.len());
    for (k, s) in fct.samples().iter().enumerate().skip(1) {
        assert_eq!(s.start - fct.samples()[0].start, k as Nanos * period);
        assert!(
            s.end - s.start < 100 * MICROSECOND,
            "message {k} left late: FCT {} ns",
            s.end - s.start
        );
    }
}

/// Idle until `at` (asking to be woken then), then a bounded transfer.
struct Deferred {
    at: Nanos,
    inner: BulkSender,
}

impl App for Deferred {
    fn poll(&mut self, now: Nanos, conn: &mut dyn AppConn) -> Option<Nanos> {
        if now < self.at {
            Some(self.at)
        } else {
            self.inner.poll(now, conn)
        }
    }

    fn fct(&self) -> Option<&FctRecorder> {
        self.inner.fct()
    }
}

/// An app that returns `Some(at)` before `at` on an established, idle
/// connection starts its traffic exactly at `at`: its wake-up alone
/// brings the host back.
#[test]
fn deferred_app_starts_at_its_requested_wake() {
    let mut tb = Testbed::star(2, Scheme::Dctcp, 1500);
    add_idle_listeners(&mut tb, 0, 8);
    let at = 5 * MILLISECOND + 321;
    let flow = tb.add_flow(
        0,
        1,
        Some(Box::new(Deferred {
            at,
            inner: BulkSender::new(20_000, FctKind::Background),
        })),
        None,
        0,
        ConnTaps::default(),
    );
    tb.run_until(at - 1);
    assert!(tb.client_endpoint(flow).is_established());
    assert_eq!(tb.client_endpoint(flow).queued_bytes(), 0);
    tb.run_until(20 * MILLISECOND);
    let fct = tb.fct_of(flow);
    assert_eq!(fct.len(), 1);
    assert_eq!(fct.samples()[0].start, at, "traffic starts at the wake");
}
