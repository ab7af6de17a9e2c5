//! End-to-end tests of the AC/DC datapath: two vSwitches (host A = data
//! sender, host B = data receiver) processing hand-crafted packets, as in
//! Figure 3 of the paper.

use acdc_cc::CcKind;
use acdc_packet::{
    Ecn, FlowKey, Ipv4Repr, PackOption, Segment, SeqNumber, TcpFlags, TcpOption, TcpRepr, PROTO_TCP,
};
use acdc_vswitch::{
    AcdcConfig, AcdcDatapath, AdmissionPolicy, CcPolicy, DropReason, HealthState, Verdict,
};

const A: [u8; 4] = [10, 0, 0, 1];
const B: [u8; 4] = [10, 0, 0, 2];
const AP: u16 = 40_000;
const BP: u16 = 5_001;
const MTU: usize = 1_500;
const MSS: usize = 1_448;
const ISS_A: u32 = 1_000;
const ISS_B: u32 = 2_000_000;

fn ip(src: [u8; 4], dst: [u8; 4], ecn: Ecn) -> Ipv4Repr {
    Ipv4Repr {
        src_addr: src,
        dst_addr: dst,
        protocol: PROTO_TCP,
        ecn,
        payload_len: 0,
        ttl: 64,
    }
}

fn syn(ecn_capable: bool, wscale: u8) -> Segment {
    let mut t = TcpRepr::new(AP, BP);
    t.seq = SeqNumber(ISS_A);
    t.flags = TcpFlags::SYN;
    if ecn_capable {
        t.flags |= TcpFlags::ECE | TcpFlags::CWR;
    }
    t.window = 65_000;
    t.options = vec![
        TcpOption::MaxSegmentSize(MSS as u16),
        TcpOption::WindowScale(wscale),
    ];
    Segment::new_tcp(ip(A, B, Ecn::NotEct), t, 0)
}

fn synack(ecn_capable: bool, wscale: u8) -> Segment {
    let mut t = TcpRepr::new(BP, AP);
    t.seq = SeqNumber(ISS_B);
    t.ack = SeqNumber(ISS_A + 1);
    t.flags = TcpFlags::SYN | TcpFlags::ACK;
    if ecn_capable {
        t.flags |= TcpFlags::ECE;
    }
    t.window = 65_000;
    t.options = vec![
        TcpOption::MaxSegmentSize(MSS as u16),
        TcpOption::WindowScale(wscale),
    ];
    Segment::new_tcp(ip(B, A, Ecn::NotEct), t, 0)
}

/// Data from A's guest: `off` bytes into the stream, `len` payload.
fn data(off: u32, len: usize, ecn: Ecn) -> Segment {
    let mut t = TcpRepr::new(AP, BP);
    t.seq = SeqNumber(ISS_A + 1 + off);
    t.ack = SeqNumber(ISS_B + 1);
    t.flags = TcpFlags::ACK;
    t.window = 127; // raw, scaled by A's wscale
    Segment::new_tcp(ip(A, B, ecn), t, len)
}

/// ACK from B's guest covering `off` stream bytes, advertising `raw_wnd`.
fn ack(off: u32, raw_wnd: u16) -> Segment {
    let mut t = TcpRepr::new(BP, AP);
    t.seq = SeqNumber(ISS_B + 1);
    t.ack = SeqNumber(ISS_A + 1 + off);
    t.flags = TcpFlags::ACK;
    t.window = raw_wnd;
    Segment::new_tcp(ip(B, A, Ecn::NotEct), t, 0)
}

fn key_ab() -> FlowKey {
    FlowKey {
        src_ip: A,
        dst_ip: B,
        src_port: AP,
        dst_port: BP,
    }
}

/// Set up two datapaths and run the handshake through both.
fn rig(guest_ecn: bool) -> (AcdcDatapath, AcdcDatapath) {
    let dpa = AcdcDatapath::new(AcdcConfig::dctcp(MTU));
    let dpb = AcdcDatapath::new(AcdcConfig::dctcp(MTU));
    handshake(&dpa, &dpb, guest_ecn);
    (dpa, dpb)
}

fn handshake(dpa: &AcdcDatapath, dpb: &AcdcDatapath, guest_ecn: bool) {
    // A guest SYN → dpa egress → wire → dpb ingress → B guest.
    let s = dpa.egress(0, syn(guest_ecn, 9)).forwarded().unwrap();
    let s = dpb.ingress(1_000, s).forwarded().unwrap();
    assert!(s.tcp_flags().contains(TcpFlags::SYN));
    // B guest SYNACK back.
    let sa = dpb.egress(2_000, synack(guest_ecn, 9)).forwarded().unwrap();
    let sa = dpa.ingress(3_000, sa).forwarded().unwrap();
    assert!(sa.tcp_flags().contains(TcpFlags::ACK));
}

#[test]
fn handshake_creates_entries_and_records_wscale() {
    let (dpa, dpb) = rig(false);
    assert!(dpa.flows() >= 2, "two directions tracked");
    assert!(dpb.flows() >= 2);
    dpa.table()
        .with_entry(&key_ab(), |e| {
            // ACKs for A→B data come from B, which advertised wscale 9.
            assert_eq!(e.rwnd.wscale(), 9);
            assert!(e.seq_valid());
            assert_eq!(e.snd_una(), SeqNumber(ISS_A + 1));
        })
        .unwrap();
}

#[test]
fn egress_data_forced_ect_and_reserved_bit_reflects_guest() {
    // Non-ECN guest: packets leave NotEct, must become ECT0 + bit clear.
    let (dpa, _) = rig(false);
    let d = dpa
        .egress(10_000, data(0, MSS, Ecn::NotEct))
        .forwarded()
        .unwrap();
    assert_eq!(d.ecn(), Ecn::Ect0, "AC/DC forces ECT");
    assert!(!d.tcp().vm_ece());
    assert!(d.verify_checksums());

    // ECN guest: bit set.
    let (dpa, _) = rig(true);
    let d = dpa
        .egress(10_000, data(0, MSS, Ecn::Ect0))
        .forwarded()
        .unwrap();
    assert_eq!(d.ecn(), Ecn::Ect0);
    assert!(d.tcp().vm_ece());
    assert!(d.verify_checksums());
}

#[test]
fn receiver_module_strips_ce_and_counts() {
    let (dpa, dpb) = rig(false);
    let d = dpa
        .egress(10_000, data(0, MSS, Ecn::NotEct))
        .forwarded()
        .unwrap();
    let mut d = d;
    d.mark_ce(); // switch marks it
    let delivered = dpb.ingress(20_000, d).forwarded().unwrap();
    // Guest was not ECN-capable → delivered NotEct, reserved bits clear.
    assert_eq!(delivered.ecn(), Ecn::NotEct);
    assert!(!delivered.tcp().vm_ece());
    assert!(delivered.verify_checksums());
    dpb.table()
        .with_entry(&key_ab(), |e| {
            assert_eq!(e.rx_total(), MSS as u64);
            assert_eq!(e.rx_marked(), MSS as u64);
        })
        .unwrap();
}

#[test]
fn ce_stripped_to_ect_for_ecn_guest() {
    let (dpa, dpb) = rig(true);
    let mut d = dpa
        .egress(10_000, data(0, MSS, Ecn::Ect0))
        .forwarded()
        .unwrap();
    d.mark_ce();
    let delivered = dpb.ingress(20_000, d).forwarded().unwrap();
    // Guest spoke ECN → restore ECT0 (hide only the CE mark).
    assert_eq!(delivered.ecn(), Ecn::Ect0);
    assert!(delivered.verify_checksums());
}

#[test]
fn ack_carries_pack_and_sender_consumes_it() {
    let (dpa, dpb) = rig(false);
    // Data A→B, marked in the network.
    let mut d = dpa
        .egress(10_000, data(0, MSS, Ecn::NotEct))
        .forwarded()
        .unwrap();
    d.mark_ce();
    dpb.ingress(20_000, d).forwarded().unwrap();

    // B guest ACKs; dpb egress must attach a PACK with the counts.
    let a = dpb
        .egress(21_000, ack(MSS as u32, 65_000))
        .forwarded()
        .unwrap();
    let pack = a.tcp().pack_option().expect("PACK attached");
    assert_eq!(pack.total_bytes, MSS as u32);
    assert_eq!(pack.marked_bytes, MSS as u32);
    assert!(a.verify_checksums());

    // dpa ingress: PACK stripped before the guest sees the ACK.
    let delivered = dpa.ingress(22_000, a).forwarded().unwrap();
    assert!(delivered.tcp().pack_option().is_none());
    assert!(delivered.verify_checksums());
    assert_eq!(
        dpa.counters()
            .packs_received
            .load(std::sync::atomic::Ordering::Relaxed),
        1
    );
    // Connection tracking advanced.
    assert_eq!(
        dpa.table().with_entry(&key_ab(), |e| e.snd_una()).unwrap(),
        SeqNumber(ISS_A + 1 + MSS as u32)
    );
}

#[test]
fn rwnd_rewritten_smaller_with_wscale() {
    let (dpa, dpb) = rig(false);
    let d = dpa
        .egress(10_000, data(0, MSS, Ecn::NotEct))
        .forwarded()
        .unwrap();
    dpb.ingress(20_000, d).forwarded().unwrap();
    let a = dpb
        .egress(21_000, ack(MSS as u32, 65_000))
        .forwarded()
        .unwrap();
    let delivered = dpa.ingress(22_000, a).forwarded().unwrap();

    let cwnd = dpa.table().with_entry(&key_ab(), |e| e.cc.cwnd()).unwrap();
    let expect_raw = (cwnd >> 9).max(1) as u16;
    assert_eq!(delivered.tcp().window(), expect_raw);
    assert!(u64::from(delivered.tcp().window()) < 65_000);
    assert!(delivered.verify_checksums());
    assert!(
        dpa.counters()
            .rwnd_rewrites
            .load(std::sync::atomic::Ordering::Relaxed)
            >= 1
    );
}

#[test]
fn rwnd_not_rewritten_when_guest_window_already_smaller() {
    let (dpa, dpb) = rig(false);
    let d = dpa
        .egress(10_000, data(0, MSS, Ecn::NotEct))
        .forwarded()
        .unwrap();
    dpb.ingress(20_000, d).forwarded().unwrap();
    // Guest advertises raw 2 (scaled: 1 KB) — far below cwnd.
    let a = dpb.egress(21_000, ack(MSS as u32, 2)).forwarded().unwrap();
    let delivered = dpa.ingress(22_000, a).forwarded().unwrap();
    assert_eq!(delivered.tcp().window(), 2, "original smaller window kept");
}

#[test]
fn ece_feedback_hidden_from_guest() {
    let (dpa, dpb) = rig(true);
    let d = dpa
        .egress(10_000, data(0, MSS, Ecn::Ect0))
        .forwarded()
        .unwrap();
    dpb.ingress(20_000, d).forwarded().unwrap();
    // ACK with ECE set (guest B echoing a mark).
    let mut raw_ack = ack(MSS as u32, 65_000);
    {
        let mut t = raw_ack.tcp_repr().unwrap();
        t.flags |= TcpFlags::ECE;
        raw_ack = Segment::new_tcp(Ipv4Repr::parse(&raw_ack.ip()).unwrap(), t, 0);
    }
    let a = dpb.egress(21_000, raw_ack).forwarded().unwrap();
    let delivered = dpa.ingress(22_000, a).forwarded().unwrap();
    assert!(
        !delivered.tcp_flags().contains(TcpFlags::ECE),
        "ECE must be stripped so the guest does not also back off"
    );
    assert!(delivered.verify_checksums());
}

#[test]
fn pack_overflow_generates_fack() {
    let (dpa, dpb) = rig(false);
    let d = dpa
        .egress(10_000, data(0, MSS, Ecn::NotEct))
        .forwarded()
        .unwrap();
    dpb.ingress(20_000, d).forwarded().unwrap();

    // B sends a full-MTU data packet that also acks: no room for PACK.
    let mut t = TcpRepr::new(BP, AP);
    t.seq = SeqNumber(ISS_B + 1);
    t.ack = SeqNumber(ISS_A + 1 + MSS as u32);
    t.flags = TcpFlags::ACK;
    t.window = 65_000;
    // Full-MTU frame: 20 B IP + 20 B TCP + 1460 B payload.
    let full = Segment::new_tcp(ip(B, A, Ecn::NotEct), t, MTU - 40);
    assert_eq!(full.wire_len(), MTU);

    match dpb.egress(21_000, full) {
        Verdict::ForwardWithExtra(main, fack) => {
            assert!(main.tcp().pack_option().is_none());
            assert!(fack.tcp().is_fack());
            assert_eq!(fack.payload_len(), 0);
            let p = fack.tcp().pack_option().unwrap();
            assert_eq!(p.total_bytes, MSS as u32);
            assert!(p.marked_bytes <= p.total_bytes);
            assert!(fack.verify_checksums());

            // The FACK is absorbed at the sender side.
            match dpa.ingress(22_000, fack) {
                Verdict::Drop(DropReason::FackConsumed) => {}
                v => panic!("expected FACK drop, got {v:?}"),
            }
        }
        v => panic!("expected FACK generation, got {v:?}"),
    }
}

#[test]
fn policing_drops_nonconforming_flow() {
    let mut cfg = AcdcConfig::dctcp(MTU);
    cfg.police_slack_bytes = Some(3 * MSS as u64);
    let dpa = AcdcDatapath::new(cfg);
    let dpb = AcdcDatapath::new(AcdcConfig::dctcp(MTU));
    handshake(&dpa, &dpb, false);

    // Initial vSwitch cwnd = 10 MSS; slack 3 MSS → anything past 13 MSS
    // outstanding must be dropped.
    let mut dropped = 0;
    for i in 0..20u32 {
        match dpa.egress(
            10_000 + u64::from(i),
            data(i * MSS as u32, MSS, Ecn::NotEct),
        ) {
            Verdict::Drop(DropReason::Policed) => dropped += 1,
            Verdict::Forward(_) => {}
            v => panic!("unexpected {v:?}"),
        }
    }
    assert_eq!(dropped, 7, "20 sent, 13 allowed");
    assert_eq!(
        dpa.table().with_entry(&key_ab(), |e| e.policed()).unwrap(),
        7
    );
}

#[test]
fn log_only_mode_computes_but_does_not_rewrite() {
    let mut cfg = AcdcConfig::dctcp(MTU);
    cfg.log_only = true;
    cfg.trace_windows = true;
    let dpa = AcdcDatapath::new(cfg);
    let dpb = AcdcDatapath::new(AcdcConfig::dctcp(MTU));
    handshake(&dpa, &dpb, false);

    let d = dpa
        .egress(10_000, data(0, MSS, Ecn::NotEct))
        .forwarded()
        .unwrap();
    dpb.ingress(20_000, d).forwarded().unwrap();
    let a = dpb
        .egress(21_000, ack(MSS as u32, 65_000))
        .forwarded()
        .unwrap();
    let delivered = dpa.ingress(22_000, a).forwarded().unwrap();
    assert_eq!(delivered.tcp().window(), 65_000, "log-only: untouched");

    dpa.table()
        .with_entry(&key_ab(), |e| {
            assert!(e.rwnd.target() > 0);
            assert!(e.rwnd.trace().unwrap().len() == 1);
        })
        .unwrap();
}

#[test]
fn dupacks_trigger_inferred_fast_retransmit() {
    let (dpa, dpb) = rig(false);
    for i in 0..5u32 {
        let d = dpa
            .egress(
                10_000 + u64::from(i),
                data(i * MSS as u32, MSS, Ecn::NotEct),
            )
            .forwarded()
            .unwrap();
        dpb.ingress(11_000 + u64::from(i), d).forwarded().unwrap();
    }
    // First ACK advances; then three duplicates.
    let a = dpb
        .egress(21_000, ack(MSS as u32, 65_000))
        .forwarded()
        .unwrap();
    dpa.ingress(22_000, a).forwarded().unwrap();
    let cwnd_before = dpa.table().with_entry(&key_ab(), |e| e.cc.cwnd()).unwrap();
    for i in 0..3 {
        let a = dpb
            .egress(23_000 + i, ack(MSS as u32, 65_000))
            .forwarded()
            .unwrap();
        dpa.ingress(24_000 + i, a).forwarded().unwrap();
    }
    assert_eq!(
        dpa.counters()
            .inferred_fast_rtx
            .load(std::sync::atomic::Ordering::Relaxed),
        1
    );
    assert!(
        dpa.table().with_entry(&key_ab(), |e| e.cc.cwnd()).unwrap() < cwnd_before,
        "window cut on 3 dupacks"
    );
}

#[test]
fn disabled_datapath_is_passthrough() {
    let dp = AcdcDatapath::new(AcdcConfig::disabled(MTU));
    let before = data(0, MSS, Ecn::NotEct);
    let bytes_before = before.header_bytes().to_vec();
    let out = dp.egress(0, before).forwarded().unwrap();
    assert_eq!(out.header_bytes(), &bytes_before[..]);
    assert_eq!(dp.flows(), 0);
    let out = dp.ingress(0, out).forwarded().unwrap();
    assert_eq!(out.header_bytes(), &bytes_before[..]);
}

#[test]
fn per_flow_policy_assigns_different_algorithms() {
    let mut cfg = AcdcConfig::dctcp(MTU);
    cfg.policy = CcPolicy::WanSplit {
        dc_prefix: 10,
        datacenter: CcKind::Dctcp,
        wan: CcKind::Cubic,
    };
    let dp = AcdcDatapath::new(cfg);
    // Intra-DC data flow.
    dp.egress(0, data(0, MSS, Ecn::NotEct));
    assert_eq!(
        dp.table().with_entry(&key_ab(), |e| e.cc.name()).unwrap(),
        "dctcp"
    );

    // WAN-bound flow.
    let mut t = TcpRepr::new(AP, 443);
    t.seq = SeqNumber(77);
    t.flags = TcpFlags::ACK;
    let wan = Segment::new_tcp(ip(A, [93, 184, 216, 34], Ecn::NotEct), t, MSS);
    let wan_key = wan.flow_key();
    dp.egress(0, wan);
    assert_eq!(
        dp.table().with_entry(&wan_key, |e| e.cc.name()).unwrap(),
        "cubic"
    );
}

#[test]
fn fin_marks_closing_and_gc_collects() {
    let (dpa, _dpb) = rig(false);
    let flows_before = dpa.flows();
    let mut t = TcpRepr::new(AP, BP);
    t.seq = SeqNumber(ISS_A + 1);
    t.ack = SeqNumber(ISS_B + 1);
    t.flags = TcpFlags::ACK | TcpFlags::FIN;
    let fin = Segment::new_tcp(ip(A, B, Ecn::NotEct), t, 0);
    dpa.egress(50_000, fin);
    let collected = dpa.gc(60_000, u64::MAX);
    assert!(collected >= 1, "FIN-marked entry collected");
    assert!(dpa.flows() < flows_before);
}

#[test]
fn window_update_generation() {
    let (dpa, dpb) = rig(false);
    let d = dpa
        .egress(10_000, data(0, MSS, Ecn::NotEct))
        .forwarded()
        .unwrap();
    dpb.ingress(20_000, d).forwarded().unwrap();
    let wu = dpa.make_window_update(&key_ab()).expect("window update");
    assert!(wu.is_pure_ack());
    assert_eq!(wu.flow_key(), key_ab().reverse());
    let cwnd = dpa.table().with_entry(&key_ab(), |e| e.cc.cwnd()).unwrap();
    let raw = (cwnd >> 9).max(1) as u16;
    assert_eq!(wu.tcp().window(), raw);
    assert!(wu.verify_checksums());
}

#[test]
fn dup_ack_generation() {
    let (dpa, dpb) = rig(false);
    let d = dpa
        .egress(10_000, data(0, MSS, Ecn::NotEct))
        .forwarded()
        .unwrap();
    dpb.ingress(20_000, d).forwarded().unwrap();
    let dups = dpa.make_dup_acks(&key_ab(), 3);
    assert_eq!(dups.len(), 3);
    for dup in &dups {
        assert!(dup.is_pure_ack());
        assert_eq!(dup.tcp().ack_number(), SeqNumber(ISS_A + 1));
        assert!(dup.verify_checksums());
    }
}

#[test]
fn inactivity_tick_infers_timeout() {
    let (dpa, dpb) = rig(false);
    // Send data that never gets acked.
    let d = dpa
        .egress(10_000, data(0, MSS, Ecn::NotEct))
        .forwarded()
        .unwrap();
    dpb.ingress(11_000, d).forwarded().unwrap();
    let cwnd_before = dpa.table().with_entry(&key_ab(), |e| e.cc.cwnd()).unwrap();
    // 50 ms later (RTOmin floor is 10 ms) the tick must infer a timeout.
    dpa.tick(50_000_000);
    assert_eq!(
        dpa.counters()
            .inferred_timeouts
            .load(std::sync::atomic::Ordering::Relaxed),
        1
    );
    assert!(dpa.table().with_entry(&key_ab(), |e| e.cc.cwnd()).unwrap() < cwnd_before);
    // A second immediate tick must not double-fire.
    dpa.tick(50_000_001);
    assert_eq!(
        dpa.counters()
            .inferred_timeouts
            .load(std::sync::atomic::Ordering::Relaxed),
        1
    );
}

#[test]
fn pack_feedback_drives_dctcp_cut() {
    let (dpa, dpb) = rig(false);
    // Establish some progress first so cwnd > floor.
    let mut off = 0u32;
    for i in 0..10 {
        let d = dpa
            .egress(10_000 + i, data(off, MSS, Ecn::NotEct))
            .forwarded()
            .unwrap();
        dpb.ingress(11_000 + i, d).forwarded().unwrap();
        off += MSS as u32;
        let a = dpb
            .egress(12_000 + i, ack(off, 65_000))
            .forwarded()
            .unwrap();
        dpa.ingress(13_000 + i, a).forwarded().unwrap();
    }
    let before = dpa.table().with_entry(&key_ab(), |e| e.cc.cwnd()).unwrap();

    // Now a marked round: data CE-marked → PACK reports it → cut.
    let mut d = dpa
        .egress(50_000, data(off, MSS, Ecn::NotEct))
        .forwarded()
        .unwrap();
    d.mark_ce();
    dpb.ingress(51_000, d).forwarded().unwrap();
    off += MSS as u32;
    let a = dpb.egress(52_000, ack(off, 65_000)).forwarded().unwrap();
    assert!(a.tcp().pack_option().unwrap().marked_bytes > 0);
    dpa.ingress(53_000, a).forwarded().unwrap();

    assert!(
        dpa.table().with_entry(&key_ab(), |e| e.cc.cwnd()).unwrap() < before,
        "marked feedback must shrink the enforced window"
    );
}

#[test]
fn pack_option_survives_only_between_vswitches() {
    // A PACK injected from outside (malformed/spoofed) still gets stripped
    // before reaching the guest.
    let (dpa, dpb) = rig(false);
    let d = dpa
        .egress(10_000, data(0, MSS, Ecn::NotEct))
        .forwarded()
        .unwrap();
    dpb.ingress(20_000, d).forwarded().unwrap();
    let mut t = TcpRepr::new(BP, AP);
    t.seq = SeqNumber(ISS_B + 1);
    t.ack = SeqNumber(ISS_A + 1 + MSS as u32);
    t.flags = TcpFlags::ACK;
    t.window = 65_000;
    t.options = vec![TcpOption::Pack(PackOption {
        total_bytes: 999,
        marked_bytes: 0,
    })];
    let spoofed = Segment::new_tcp(ip(B, A, Ecn::NotEct), t, 0);
    let delivered = dpa.ingress(30_000, spoofed).forwarded().unwrap();
    assert!(delivered.tcp().pack_option().is_none());
}

#[test]
fn udp_passes_through_untouched() {
    let dp = AcdcDatapath::new(AcdcConfig::dctcp(MTU));
    let udp = acdc_packet::UdpRepr {
        src_port: 5353,
        dst_port: 53,
        payload_len: 0,
    };
    let seg = acdc_packet::Segment::new_udp(
        acdc_packet::Ipv4Repr {
            src_addr: A,
            dst_addr: B,
            protocol: acdc_packet::PROTO_UDP,
            ecn: Ecn::NotEct,
            payload_len: 0,
            ttl: 64,
        },
        udp,
        256,
    );
    let bytes_before = seg.header_bytes().to_vec();
    let out = dp.egress(0, seg).forwarded().unwrap();
    assert_eq!(out.header_bytes(), &bytes_before[..], "no mangling");
    assert_eq!(out.ecn(), Ecn::NotEct, "UDP is not forced ECT");
    let out = dp.ingress(1, out).forwarded().unwrap();
    assert_eq!(out.header_bytes(), &bytes_before[..]);
    assert_eq!(dp.flows(), 0, "no connection tracking for UDP");
    assert_eq!(
        dp.counters()
            .non_tcp_passthrough
            .load(std::sync::atomic::Ordering::Relaxed),
        2
    );
}

#[test]
fn flow_stats_snapshot_reflects_activity() {
    let (dpa, dpb) = rig(false);
    let mut off = 0u32;
    for i in 0..5 {
        let mut d = dpa
            .egress(10_000 + i, data(off, MSS, Ecn::NotEct))
            .forwarded()
            .unwrap();
        if i % 2 == 0 {
            d.mark_ce();
        }
        dpb.ingress(11_000 + i, d).forwarded().unwrap();
        off += MSS as u32;
        let a = dpb
            .egress(12_000 + i, ack(off, 65_000))
            .forwarded()
            .unwrap();
        dpa.ingress(13_000 + i, a).forwarded().unwrap();
    }
    // Sender-side view: the enforced flow with its window and RTT.
    let stats = dpa.flow_stats();
    let fwd = stats
        .iter()
        .find(|s| s.key == key_ab())
        .expect("tracked flow");
    assert_eq!(fwd.cc_name, "dctcp");
    assert!(fwd.cwnd > 0);
    assert!(fwd.srtt.is_some(), "RTT sampled from ack clock");
    assert!(!fwd.closing);

    // Receiver-side view: lifetime byte accounting survives feedback
    // resets (the deltas are consumed by PACKs).
    let stats = dpb.flow_stats();
    let rx = stats
        .iter()
        .find(|s| s.key == key_ab())
        .expect("tracked flow at receiver");
    assert_eq!(rx.rx_total, 5 * MSS as u64);
    assert_eq!(rx.rx_marked, 3 * MSS as u64);
}

// ----------------------------------------------------------------------
// Overload safety: bounded admission, degradation ladder, restart
// ----------------------------------------------------------------------

fn counter(dp: &AcdcDatapath, name: &str) -> u64 {
    dp.counters()
        .snapshot()
        .iter()
        .find(|(n, _)| *n == name)
        .unwrap()
        .1
}

/// A SYN from a guest at `sport` (distinct flows for capacity tests).
fn syn_on(sport: u16, wscale: u8) -> Segment {
    let mut t = TcpRepr::new(sport, BP);
    t.seq = SeqNumber(ISS_A);
    t.flags = TcpFlags::SYN;
    t.window = 65_000;
    t.options = vec![
        TcpOption::MaxSegmentSize(MSS as u16),
        TcpOption::WindowScale(wscale),
    ];
    Segment::new_tcp(ip(A, B, Ecn::NotEct), t, 0)
}

/// Data from the guest at `sport`.
fn data_on(sport: u16, off: u32, len: usize) -> Segment {
    let mut t = TcpRepr::new(sport, BP);
    t.seq = SeqNumber(ISS_A + 1 + off);
    t.ack = SeqNumber(ISS_B + 1);
    t.flags = TcpFlags::ACK;
    t.window = 127;
    Segment::new_tcp(ip(A, B, Ecn::NotEct), t, len)
}

#[test]
fn adopted_flow_stays_log_only_until_handshake() {
    let dpa = AcdcDatapath::new(AcdcConfig::dctcp(MTU));
    // No SYN observed: the entry is adopted from a data packet.
    dpa.egress(1_000, data(0, MSS, Ecn::NotEct))
        .forwarded()
        .unwrap();
    dpa.table()
        .with_entry(&key_ab(), |e| {
            assert!(e.seq_valid());
            assert!(!e.rwnd.learned(), "no handshake → scale unlearned");
        })
        .unwrap();
    // This ACK would be rewritten (the initial DCTCP window is far below
    // 65 000 B) had the scale been learned; adopted flows are left alone.
    let a = dpa
        .ingress(2_000, ack(MSS as u32, 65_000))
        .forwarded()
        .unwrap();
    assert_eq!(a.tcp().window(), 65_000, "no rewrite with unlearned scale");
    assert!(counter(&dpa, "unscaled_rwnd_skips") >= 1);
    assert_eq!(counter(&dpa, "rwnd_rewrites"), 0);

    // A (retransmitted) handshake teaches the scale, restoring
    // enforcement for the same flow.
    dpa.egress(3_000, syn(false, 9)).forwarded().unwrap();
    dpa.ingress(4_000, synack(false, 9)).forwarded().unwrap();
    let a = dpa
        .ingress(5_000, ack(MSS as u32, 65_000))
        .forwarded()
        .unwrap();
    assert!(
        a.tcp().window() < 65_000,
        "rewrite active after handshake, got {}",
        a.tcp().window()
    );
    assert!(counter(&dpa, "rwnd_rewrites") >= 1);
}

#[test]
fn reset_drops_state_and_readopts_conservatively() {
    let (dpa, _dpb) = rig(false);
    assert!(dpa.flows() >= 2);
    let dropped = dpa.reset(50_000);
    assert!(dropped >= 2);
    assert_eq!(dpa.flows(), 0);
    assert_eq!(counter(&dpa, "datapath_resets"), 1);
    assert_eq!(dpa.health(), HealthState::Enforcing);
    assert_eq!(dpa.health_trace().len(), 1, "restart epoch recorded");

    // Mid-stream re-adoption from the next data packet...
    dpa.egress(60_000, data(0, MSS, Ecn::NotEct))
        .forwarded()
        .unwrap();
    assert!(dpa.flows() >= 1);
    // ...but the adopted flow is never enforced with the lost scale.
    let a = dpa
        .ingress(70_000, ack(MSS as u32, 65_000))
        .forwarded()
        .unwrap();
    assert_eq!(a.tcp().window(), 65_000);
    assert!(counter(&dpa, "unscaled_rwnd_skips") >= 1);
    assert_eq!(counter(&dpa, "rwnd_rewrites"), 0);
}

#[test]
fn capacity_exhaustion_walks_the_degradation_ladder() {
    let cfg = AcdcConfig {
        max_flows: Some(4),
        admission: AdmissionPolicy::RejectNew,
        ..AcdcConfig::dctcp(MTU)
    };
    let dpa = AcdcDatapath::new(cfg);
    // Flow 1 handshake: 2 entries, 50 % occupancy → still enforcing.
    dpa.egress(0, syn_on(41_000, 9)).forwarded().unwrap();
    assert_eq!(dpa.health(), HealthState::Enforcing);
    // Flow 2: 4 entries, 100 % ≥ the 90 % watermark → log-only.
    dpa.egress(1_000, syn_on(41_001, 9)).forwarded().unwrap();
    assert_eq!(dpa.flows(), 4);
    assert_eq!(dpa.health(), HealthState::LogOnly);
    // Flow 3: the table is full — rejected; drop to pass-through.
    dpa.egress(2_000, syn_on(41_002, 9)).forwarded().unwrap();
    assert_eq!(dpa.flows(), 4);
    assert_eq!(dpa.health(), HealthState::PassThrough);
    assert!(counter(&dpa, "admission_rejects") >= 1);
    assert_eq!(counter(&dpa, "health_demotions"), 2);
    // Unadmitted traffic is forwarded untouched — no forced ECT.
    let d = dpa
        .egress(3_000, data_on(41_002, 0, MSS))
        .forwarded()
        .unwrap();
    assert_eq!(d.ecn(), Ecn::NotEct, "pass-through leaves the wire alone");
    assert!(counter(&dpa, "overload_passthrough") >= 1);
}

#[test]
fn evict_oldest_idle_admits_new_flows_at_capacity() {
    let cfg = AcdcConfig {
        max_flows: Some(2),
        admission: AdmissionPolicy::EvictOldestIdle,
        ..AcdcConfig::dctcp(MTU)
    };
    let dpa = AcdcDatapath::new(cfg);
    dpa.egress(0, syn_on(41_000, 9)).forwarded().unwrap();
    dpa.egress(1_000, syn_on(41_001, 9)).forwarded().unwrap();
    assert_eq!(dpa.flows(), 2, "capacity never exceeded");
    assert!(counter(&dpa, "capacity_evictions") >= 2);
    assert_eq!(counter(&dpa, "admission_rejects"), 0);
    assert_ne!(dpa.health(), HealthState::PassThrough);
}

#[test]
fn ladder_recovers_with_hysteresis_after_gc() {
    let cfg = AcdcConfig {
        max_flows: Some(4),
        admission: AdmissionPolicy::RejectNew,
        ..AcdcConfig::dctcp(MTU)
    };
    let dpa = AcdcDatapath::new(cfg);
    for p in 0..3u16 {
        dpa.egress(u64::from(p), syn_on(41_000 + p, 9))
            .forwarded()
            .unwrap();
    }
    assert_eq!(dpa.health(), HealthState::PassThrough);
    // All guests close; the entries become collectable.
    dpa.table().for_each(|_, e| e.mark_closing());
    // First gc: occupancy drops to zero, but the reject is still
    // "recent" — the overload flag covers the interval up to this check.
    dpa.gc(10_000, 1);
    assert_eq!(dpa.flows(), 0);
    assert_eq!(dpa.health(), HealthState::PassThrough);
    // Clean intervals then promote one rung at a time, never two.
    dpa.gc(20_000, 1);
    assert_eq!(dpa.health(), HealthState::LogOnly);
    dpa.gc(30_000, 1);
    assert_eq!(dpa.health(), HealthState::Enforcing);
    assert_eq!(counter(&dpa, "health_promotions"), 2);
    assert!(counter(&dpa, "gc_evictions") >= 4);
}

// ----------------------------------------------------------------------
// Checkpoint / restore (DESIGN.md §15)
// ----------------------------------------------------------------------

#[test]
fn checkpoint_restore_continues_byte_identically() {
    // Drive real traffic — handshake, data, a CE-marked round — so the
    // checkpoint carries learned scales, CC state and feedback counters.
    let (dpa, dpb) = rig(false);
    let mut off = 0u32;
    for i in 0..6 {
        let mut d = dpa
            .egress(10_000 + i, data(off, MSS, Ecn::NotEct))
            .forwarded()
            .unwrap();
        if i % 3 == 0 {
            d.mark_ce();
        }
        dpb.ingress(11_000 + i, d).forwarded().unwrap();
        off += MSS as u32;
        let a = dpb
            .egress(12_000 + i, ack(off, 65_000))
            .forwarded()
            .unwrap();
        dpa.ingress(13_000 + i, a).forwarded().unwrap();
    }

    let ckpt = dpa.checkpoint(20_000, &[]);
    assert!(ckpt.flows.len() >= 2, "both directions captured");

    // Serialize → parse → restore into a same-config fresh datapath.
    let json = ckpt.to_json();
    let parsed = acdc_vswitch::DatapathCheckpoint::from_json(&json).unwrap();
    let fresh = AcdcDatapath::new(AcdcConfig::dctcp(MTU));
    assert_eq!(fresh.restore(&parsed).unwrap(), ckpt.flows.len());

    // Re-checkpointing the restored datapath reproduces the original
    // document byte for byte — state, counters, health, epoch, recorder.
    assert_eq!(fresh.checkpoint(20_000, &[]).to_json(), json);

    // Both datapaths now process the *same* next packet identically.
    let a1 = dpa.ingress(30_000, ack(off, 65_000)).forwarded().unwrap();
    let a2 = fresh.ingress(30_000, ack(off, 65_000)).forwarded().unwrap();
    assert_eq!(a1.header_bytes(), a2.header_bytes());
    assert_eq!(dpa.counters().snapshot(), fresh.counters().snapshot());
    assert_eq!(
        dpa.table().with_entry(&key_ab(), |e| e.snd_una()).unwrap(),
        fresh
            .table()
            .with_entry(&key_ab(), |e| e.snd_una())
            .unwrap()
    );
}

#[test]
fn restore_rejects_cc_policy_mismatch() {
    let (dpa, _dpb) = rig(false);
    dpa.egress(10_000, data(0, MSS, Ecn::NotEct))
        .forwarded()
        .unwrap();
    let ckpt = dpa.checkpoint(20_000, &[]);
    let mut cfg = AcdcConfig::dctcp(MTU);
    cfg.policy = CcPolicy::Uniform(CcKind::Cubic);
    let wrong = AcdcDatapath::new(cfg);
    let err = wrong.restore(&ckpt).unwrap_err();
    assert!(err.contains("dctcp"), "names the mismatched CC: {err}");
}

#[test]
fn restore_rejects_rx_pending_that_disagrees_with_rx_total() {
    // The checkpoint is input from outside the program: `rx_pending` is
    // derived from `rx_total`, so a document where they disagree is
    // refused rather than silently reinterpreted.
    let (dpa, dpb) = rig(false);
    let d = dpa
        .egress(10_000, data(0, MSS, Ecn::NotEct))
        .forwarded()
        .unwrap();
    dpb.ingress(11_000, d).forwarded().unwrap();
    let ckpt = dpb.checkpoint(20_000, &[]);
    let pending = ckpt
        .flows
        .iter()
        .position(|f| f.state.rx_total > 0)
        .expect("receiver has feedback pending");
    assert!(ckpt.flows[pending].rx_pending, "capture derives the flag");
    let json = ckpt.to_json();
    assert!(AcdcDatapath::new(AcdcConfig::dctcp(MTU))
        .restore(&acdc_vswitch::DatapathCheckpoint::from_json(&json).unwrap())
        .is_ok());

    let mut bad = ckpt.clone();
    bad.flows[pending].rx_pending = false;
    let bad = acdc_vswitch::DatapathCheckpoint::from_json(&bad.to_json()).unwrap();
    let err = AcdcDatapath::new(AcdcConfig::dctcp(MTU))
        .restore(&bad)
        .unwrap_err();
    assert!(err.contains("rx_pending"), "names the field: {err}");

    let mut bad = ckpt;
    let idle = bad
        .flows
        .iter()
        .position(|f| f.state.rx_total == 0)
        .expect("reverse entry has nothing pending");
    bad.flows[idle].rx_pending = true;
    assert!(AcdcDatapath::new(AcdcConfig::dctcp(MTU))
        .restore(&bad)
        .is_err());
}

#[test]
fn restore_rejects_marked_bytes_beyond_total() {
    // The strict-invariants build asserts marked <= total on the next
    // data packet or PACK; a checkpoint breaking that must be refused
    // at restore, not panic later.
    let (dpa, dpb) = rig(false);
    let d = dpa
        .egress(10_000, data(0, MSS, Ecn::NotEct))
        .forwarded()
        .unwrap();
    dpb.ingress(11_000, d).forwarded().unwrap();
    let ckpt = dpb.checkpoint(20_000, &[]);
    let pending = ckpt
        .flows
        .iter()
        .position(|f| f.state.rx_total > 0)
        .expect("receiver has feedback pending");
    for field in ["rx_marked", "rx_marked_lifetime", "fb_marked"] {
        let mut bad = ckpt.clone();
        let s = &mut bad.flows[pending].state;
        match field {
            "rx_marked" => s.rx_marked = s.rx_total + 1,
            "rx_marked_lifetime" => s.rx_marked_lifetime = s.rx_total_lifetime + 1,
            _ => s.fb_marked = s.fb_total + 1,
        }
        let bad = acdc_vswitch::DatapathCheckpoint::from_json(&bad.to_json()).unwrap();
        let err = AcdcDatapath::new(AcdcConfig::dctcp(MTU))
            .restore(&bad)
            .unwrap_err();
        assert!(err.contains(field), "names {field}: {err}");
    }
}

#[test]
fn restore_preserves_unlearned_scale_semantics() {
    // A mid-stream adopted flow (no handshake seen) must stay log-only
    // across a checkpoint/restore cycle — restoring never invents a
    // window scale.
    let dpa = AcdcDatapath::new(AcdcConfig::dctcp(MTU));
    dpa.egress(1_000, data(0, MSS, Ecn::NotEct))
        .forwarded()
        .unwrap();
    let ckpt = dpa.checkpoint(2_000, &[]);
    let fresh = AcdcDatapath::new(AcdcConfig::dctcp(MTU));
    fresh.restore(&ckpt).unwrap();
    assert!(
        !fresh
            .table()
            .with_entry(&key_ab(), |e| e.rwnd.learned())
            .unwrap(),
        "scale still unlearned"
    );
    let a = fresh
        .ingress(3_000, ack(MSS as u32, 65_000))
        .forwarded()
        .unwrap();
    assert_eq!(a.tcp().window(), 65_000, "no rewrite after restore");
    assert!(counter(&fresh, "unscaled_rwnd_skips") >= 1);
    assert_eq!(counter(&fresh, "rwnd_rewrites"), 0);
}

#[test]
fn restore_stamps_gc_epoch_and_shields_flows() {
    const T: u64 = 35_000_000_000;
    let (dpa, _dpb) = rig(false);
    dpa.table().set_epoch(T);
    let ckpt = dpa.checkpoint(T, &[]);
    assert_eq!(ckpt.gc_epoch, T);
    let fresh = AcdcDatapath::new(AcdcConfig::dctcp(MTU));
    fresh.restore(&ckpt).unwrap();
    assert_eq!(fresh.table().epoch(), T);
    // Entries carry handshake-era activity times (~0 ns), but the epoch
    // shields them from the first sweep after restore.
    assert_eq!(fresh.gc(T + 1, 30_000_000_000), 0);
    assert!(fresh.flows() >= 2);
}

#[test]
fn reset_stamps_gc_epoch() {
    let dp = AcdcDatapath::new(AcdcConfig::dctcp(MTU));
    assert_eq!(dp.table().epoch(), 0);
    dp.reset(7_000);
    assert_eq!(
        dp.table().epoch(),
        7_000,
        "restart stamps the GC bookkeeping epoch"
    );
}
