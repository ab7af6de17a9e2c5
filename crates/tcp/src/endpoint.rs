//! The TCP endpoint state machine.
//!
//! One [`Endpoint`] is one side of one connection, pre-bound to a 4-tuple
//! (the simulation knows its flows up front, so there is no listener
//! socket; a passive endpoint simply starts in [`TcpState::Listen`]).
//!
//! Internally all stream positions are **64-bit offsets** (0 = first
//! payload byte); they are converted to and from 32-bit wire sequence
//! numbers at the packet boundary, so arithmetic never worries about
//! wraparound while the wire format stays faithful.
//!
//! The endpoint itself is an *orchestrator* over five disjoint-write
//! components, each owning its mutable state in private fields of its
//! own module, so the compiler enforces the split (DESIGN.md §14):
//!
//! - [`ConnMgmt`](crate::conn::ConnMgmt) — the RFC 793 state machine,
//!   ISN/MSS negotiation and the FIN lifecycle;
//! - [`ReliableDelivery`](crate::reliable::ReliableDelivery) — send
//!   pointers, NewReno recovery, RTT estimation and the RTO timer;
//! - [`FlowCtrl`](crate::flow::FlowCtrl) — the peer's advertised window
//!   and the persist (zero-window probe) timer;
//! - [`Receive`](crate::receive::Receive) — in-order delivery,
//!   out-of-order reassembly and delayed ACKs;
//! - [`EcnSignal`](crate::ecn::EcnSignal) — ECN negotiation, echo state
//!   and CWR/cut signalling.
//!
//! This file holds no mutable protocol state of its own: it parses and
//! builds segments, reads the components through their view methods, and
//! drives every state change through their transition methods.

use acdc_cc::{AckEvent, CcConfig, CongestionControl};
use acdc_packet::{
    Ecn, FlowKey, Ipv4Repr, PacketMeta, Segment, SeqNumber, SeqView, TcpFlags, TcpOption, TcpRepr,
    PROTO_TCP,
};
use acdc_stats::time::Nanos;

use crate::conn::ConnMgmt;
use crate::ecn::EcnSignal;
use crate::flow::FlowCtrl;
use crate::receive::Receive;
use crate::reliable::ReliableDelivery;
use crate::TcpConfig;

/// Connection states (RFC 793 subset; no simultaneous open).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TcpState {
    /// Passive endpoint waiting for a SYN.
    Listen,
    /// Active endpoint that has sent its SYN.
    SynSent,
    /// Passive endpoint that has answered with SYN-ACK.
    SynRcvd,
    /// Data transfer.
    Established,
    /// We closed first; FIN sent, not yet acknowledged.
    FinWait1,
    /// Our FIN is acknowledged; waiting for the peer's.
    FinWait2,
    /// Both sides closed simultaneously: peer's FIN consumed while ours
    /// is still unacknowledged.
    Closing,
    /// Peer closed first; we may still send.
    CloseWait,
    /// We answered the peer's FIN with our own.
    LastAck,
    /// Both FINs exchanged; draining the network.
    TimeWait,
    /// Fully closed.
    Closed,
}

/// One side of a TCP connection.
pub struct Endpoint {
    cfg: TcpConfig,
    cc: Box<dyn CongestionControl>,
    conn: ConnMgmt,
    rel: ReliableDelivery,
    flow: FlowCtrl,
    rcv: Receive,
    ecn: EcnSignal,
}

impl core::fmt::Debug for Endpoint {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("Endpoint")
            .field("state", &self.conn.state())
            .field("snd_una", &self.rel.snd_una())
            .field("snd_nxt", &self.rel.snd_nxt())
            .field("rcv_nxt", &self.rcv.rcv_nxt())
            .field("cwnd", &self.cc.cwnd())
            .finish()
    }
}

impl Endpoint {
    /// Create an active (connecting) endpoint. Call
    /// [`Endpoint::open`] to emit the SYN.
    pub fn new_active(cfg: TcpConfig) -> Endpoint {
        Endpoint::new(cfg, false)
    }

    /// Create a passive endpoint waiting for a SYN.
    pub fn new_passive(cfg: TcpConfig) -> Endpoint {
        Endpoint::new(cfg, true)
    }

    fn new(cfg: TcpConfig, passive: bool) -> Endpoint {
        let cc_cfg = CcConfig::host(cfg.mss);
        let cc = cfg.cc.build(cc_cfg);
        let cc: Box<dyn CongestionControl> = match cfg.cwnd_clamp {
            Some(clamp) => Box::new(acdc_cc::Clamped::new(cc, clamp)),
            None => cc,
        };
        Endpoint {
            conn: ConnMgmt::new(SeqNumber(cfg.iss), cfg.mss, passive),
            rel: ReliableDelivery::new(cfg.rto_min),
            flow: FlowCtrl::new(),
            rcv: Receive::new(),
            ecn: EcnSignal::new(),
            cc,
            cfg,
        }
    }

    // ------------------------------------------------------------------
    // Application interface
    // ------------------------------------------------------------------

    /// Begin the active open (emit a SYN on the next poll).
    pub fn open(&mut self, now: Nanos) {
        self.conn.begin_active_open(now);
        self.arm_rto(now);
    }

    /// Enqueue `bytes` of application data for transmission.
    pub fn send(&mut self, bytes: u64) {
        assert!(!self.conn.fin_queued(), "send() after close()");
        self.rel.enqueue(bytes);
    }

    /// Close the sending direction once all queued data is delivered.
    pub fn close(&mut self) {
        self.conn.queue_close();
    }

    /// Stop offering new data: the stream is truncated at the highest
    /// offset already sent (in-flight data still completes). Used by the
    /// harness to end long-lived flows at a scheduled time (Figure 14's
    /// convergence test adds and removes flows every 30 s).
    pub fn stop_sending(&mut self) {
        if !self.conn.fin_queued() {
            self.rel.truncate_unsent();
        }
    }

    /// Total stream bytes acknowledged by the peer.
    pub fn acked_bytes(&self) -> u64 {
        self.rel.snd_una()
    }

    /// Total stream bytes the application asked to send.
    pub fn queued_bytes(&self) -> u64 {
        self.rel.stream_len()
    }

    /// Total in-order stream bytes received (delivered to the app).
    pub fn delivered_bytes(&self) -> u64 {
        self.rcv.rcv_nxt()
    }

    /// Current state.
    pub fn state(&self) -> TcpState {
        self.conn.state()
    }

    /// The endpoint's configuration.
    pub fn config(&self) -> &TcpConfig {
        &self.cfg
    }

    /// Effective MSS after handshake negotiation.
    pub fn mss(&self) -> u32 {
        self.conn.mss()
    }

    /// Was ECN negotiated on this connection?
    pub fn ecn_negotiated(&self) -> bool {
        self.ecn.ecn_ok()
    }

    /// The wire 5-tuple of this endpoint's *egress* (local → remote)
    /// direction — the same key the vSwitch flow table and the host NIC
    /// demux use.
    pub fn flow_key(&self) -> FlowKey {
        FlowKey {
            src_ip: self.cfg.local_ip,
            dst_ip: self.cfg.remote_ip,
            src_port: self.cfg.local_port,
            dst_port: self.cfg.remote_port,
        }
    }

    /// Is the connection established (data can flow)?
    pub fn is_established(&self) -> bool {
        matches!(
            self.conn.state(),
            TcpState::Established | TcpState::CloseWait | TcpState::FinWait1 | TcpState::FinWait2
        )
    }

    /// Has the connection fully closed (both FINs exchanged + acked)?
    pub fn is_closed(&self) -> bool {
        matches!(self.conn.state(), TcpState::Closed | TcpState::TimeWait)
    }

    /// Current congestion window, bytes (for window tracing, Figure 9/10).
    pub fn cwnd(&self) -> u64 {
        self.cc.cwnd()
    }

    /// The congestion-control algorithm (for inspection).
    pub fn cc(&self) -> &dyn CongestionControl {
        self.cc.as_ref()
    }

    /// Smoothed RTT estimate, if sampled yet.
    pub fn srtt(&self) -> Option<Nanos> {
        self.rel.srtt()
    }

    /// Current retransmission timeout.
    pub fn rto(&self) -> Nanos {
        self.rel.rto()
    }

    /// Segments retransmitted (fast or timeout-driven).
    pub fn retransmitted_segments(&self) -> u64 {
        self.rel.retransmitted_segments()
    }

    /// Retransmission-timeout count.
    pub fn timeouts(&self) -> u64 {
        self.rel.timeouts()
    }

    /// Current RTO backoff exponent: the armed timeout is
    /// `rto() << rto_backoff()` (capped at `rto_max`). Non-zero only
    /// while consecutive timeouts go unrepaired; reset by forward ACK
    /// progress.
    pub fn rto_backoff(&self) -> u32 {
        self.rel.backoff()
    }

    /// The peer's advertised receive window in bytes, as last seen
    /// (after AC/DC rewriting, this *is* the enforced window).
    pub fn peer_rwnd(&self) -> u64 {
        self.flow.peer_rwnd()
    }

    /// Bytes in flight.
    pub fn in_flight(&self) -> u64 {
        self.rel.in_flight()
    }

    /// The send pointers as wire sequence numbers — ground truth for
    /// comparing against the vSwitch's passively reconstructed per-flow
    /// state (paper §3.1; the chaos suite asserts agreement against
    /// `AcdcDatapath::seq_view`).
    pub fn seq_view(&self) -> SeqView {
        SeqView {
            snd_una: self.wire_seq(self.rel.snd_una()),
            // Highest sent: a timeout rewinds `snd_nxt`, but the wire
            // high-water mark is what the switch observed.
            snd_nxt: self.wire_seq(self.rel.snd_nxt().max(self.rel.snd_max())),
        }
    }

    /// `snd_una` as a wire sequence number (see [`Endpoint::seq_view`]).
    pub fn wire_snd_una(&self) -> SeqNumber {
        self.seq_view().snd_una
    }

    /// `snd_nxt` as a wire sequence number (highest sent; see
    /// [`Endpoint::seq_view`]).
    pub fn wire_snd_nxt(&self) -> SeqNumber {
        self.seq_view().snd_nxt
    }

    // ------------------------------------------------------------------
    // Wire sequence mapping
    // ------------------------------------------------------------------

    /// Wire sequence number for a send-stream offset.
    fn wire_seq(&self, off: u64) -> SeqNumber {
        self.conn.iss() + 1u32 + (off as u32)
    }

    /// Wire ACK number for the receive side.
    fn wire_ack(&self) -> SeqNumber {
        let fin_extra = match self.rcv.fin_rcvd() {
            Some(f) if self.rcv.rcv_nxt() >= f => 1u32,
            _ => 0,
        };
        self.conn.irs() + 1u32 + (self.rcv.rcv_nxt() as u32) + fin_extra
    }

    /// Unwrap an incoming wire ACK into a send-stream offset (may exceed
    /// `stream_len` by one when it covers our FIN).
    fn unwrap_ack(&self, ack: SeqNumber) -> Option<u64> {
        let base = self.wire_seq(self.rel.snd_una());
        let d = ack - base; // signed distance
        let candidate = self.rel.snd_una() as i64 + i64::from(d);
        let max_valid = self.rel.snd_max() + if self.conn.fin_sent_ever() { 1 } else { 0 };
        if candidate < 0 || candidate as u64 > max_valid {
            None
        } else {
            Some(candidate as u64)
        }
    }

    /// Unwrap an incoming wire data sequence into a receive-stream offset.
    fn unwrap_seq(&self, seq: SeqNumber) -> i64 {
        let base = self.conn.irs() + 1u32 + (self.rcv.rcv_nxt() as u32);
        let d = seq - base;
        self.rcv.rcv_nxt() as i64 + i64::from(d)
    }

    // ------------------------------------------------------------------
    // Timers
    // ------------------------------------------------------------------

    /// Earliest pending timer deadline, if any. The host arms one timer
    /// and calls [`Endpoint::on_timer`] when it fires.
    pub fn next_timer(&self) -> Option<Nanos> {
        [
            self.rel.rto_deadline(),
            self.rcv.delack_deadline(),
            self.conn.timewait_deadline(),
            self.flow.persist_deadline(),
        ]
        .into_iter()
        .flatten()
        .min()
    }

    fn arm_rto(&mut self, now: Nanos) {
        self.rel.arm_rto(now, self.cfg.rto_max);
    }

    fn maybe_disarm_rto(&mut self) {
        let outstanding = self.rel.snd_nxt() > self.rel.snd_una()
            || (self.conn.fin_sent() && !self.conn.fin_acked())
            || self.conn.need_syn()
            || self.conn.need_synack();
        if !outstanding {
            self.rel.disarm_rto();
        }
    }

    /// Handle timer expiry; the host calls this when `next_timer()` fires.
    pub fn on_timer(&mut self, now: Nanos) {
        self.conn.fire_timewait(now);
        self.rcv.fire_delack(now);
        if let Some(t) = self.rel.rto_deadline() {
            if now >= t {
                self.rel.clear_rto_deadline();
                self.handle_rto(now);
            }
        }
        if let Some(t) = self.flow.persist_deadline() {
            if now >= t {
                let probing_makes_sense = matches!(
                    self.conn.state(),
                    TcpState::Established | TcpState::CloseWait | TcpState::FinWait1
                ) && self.rel.snd_una() < self.rel.stream_len();
                self.flow.on_persist_fire(
                    now,
                    self.rel.rto(),
                    self.cfg.rto_max,
                    probing_makes_sense,
                );
            }
        }
    }

    fn handle_rto(&mut self, now: Nanos) {
        match self.conn.state() {
            TcpState::SynSent => {
                self.conn.retry_syn();
                self.rel.bump_backoff();
                self.arm_rto(now);
            }
            TcpState::SynRcvd => {
                self.conn.retry_synack();
                self.rel.bump_backoff();
                self.arm_rto(now);
            }
            TcpState::Closed | TcpState::Listen | TcpState::TimeWait => {}
            _ => {
                let outstanding = self.rel.snd_nxt() > self.rel.snd_una()
                    || (self.conn.fin_sent() && !self.conn.fin_acked());
                if !outstanding {
                    return;
                }
                self.cc.on_retransmit_timeout(now);
                // Go-back-N: rewind the send pointer; everything from
                // snd_una is resent as the window reopens.
                self.rel.on_timeout_rewind();
                self.conn.rewind_fin();
                self.arm_rto(now);
            }
        }
    }

    // ------------------------------------------------------------------
    // Segment input
    // ------------------------------------------------------------------

    /// Feed an arriving segment (addressed to this endpoint).
    pub fn on_segment(&mut self, now: Nanos, seg: &Segment) {
        // One parse per packet lifetime: the NIC's checksum verification
        // already populated the cache, so this is normally a cache read.
        // A malformed frame (which the NIC should have dropped) is ignored.
        let Ok(meta) = seg.try_meta() else {
            return;
        };
        let flags = meta.flags;

        if flags.contains(TcpFlags::RST) {
            self.conn.on_rst();
            return;
        }

        match self.conn.state() {
            TcpState::Listen => {
                if flags.contains(TcpFlags::SYN) {
                    self.conn.on_listen_syn(meta.seq);
                    self.parse_syn_options(&meta);
                    // ECN negotiation: SYN carries ECE|CWR.
                    self.ecn.negotiate(
                        self.cfg.ecn
                            && flags.contains(TcpFlags::ECE)
                            && flags.contains(TcpFlags::CWR),
                    );
                    self.arm_rto(now);
                }
            }
            TcpState::SynSent => {
                if flags.contains(TcpFlags::SYN) && flags.contains(TcpFlags::ACK) {
                    if self.unwrap_ack(meta.ack) != Some(0) {
                        return; // not acking our SYN
                    }
                    self.conn.complete_active_open(meta.seq);
                    self.parse_syn_options(&meta);
                    self.ecn
                        .negotiate(self.cfg.ecn && flags.contains(TcpFlags::ECE));
                    self.flow.update_window(meta.window, true);
                    self.rel.disarm_rto();
                    if let Some(t0) = self.conn.syn_sent_at() {
                        self.rel
                            .take_rtt_sample(now - t0, self.cfg.rto_min, self.cfg.rto_max);
                    }
                    self.rcv.force_ack();
                }
            }
            _ => {
                self.on_segment_established(now, seg, &meta);
            }
        }
    }

    fn parse_syn_options(&mut self, meta: &PacketMeta) {
        if let Some(mss) = meta.mss {
            self.conn.negotiate_mss(mss);
        }
        if let Some(ws) = meta.wscale {
            self.flow.learn_wscale(ws);
        }
    }

    fn on_segment_established(&mut self, now: Nanos, seg: &Segment, meta: &PacketMeta) {
        let flags = meta.flags;

        // A retransmitted SYN-ACK while we are established: just re-ack.
        if flags.contains(TcpFlags::SYN) {
            if self.conn.state() == TcpState::SynRcvd && flags.contains(TcpFlags::ACK) {
                return;
            }
            self.rcv.force_ack();
            return;
        }

        // SYN-RCVD completes on the first valid ACK.
        if self.conn.state() == TcpState::SynRcvd
            && flags.contains(TcpFlags::ACK)
            && self.unwrap_ack(meta.ack) == Some(0)
        {
            self.conn.complete_passive_open();
            self.rel.disarm_rto();
        }

        if flags.contains(TcpFlags::ACK) {
            self.process_ack(now, seg, meta);
        }
        if seg.payload_len() > 0 || flags.contains(TcpFlags::FIN) {
            self.process_data(now, seg, meta);
        }
    }

    fn process_ack(&mut self, now: Nanos, seg: &Segment, meta: &PacketMeta) {
        let Some(ack_off) = self.unwrap_ack(meta.ack) else {
            return; // out-of-window ACK
        };
        let prev_raw_wnd = self.flow.last_raw_wnd();
        self.flow.update_window(meta.window, false);
        let ece = meta.flags.contains(TcpFlags::ECE);

        // Persist (zero-window probe) management, RFC 793/1122: arm when
        // the peer window closes while data is pending; cancel on reopen.
        if self.flow.peer_rwnd() == 0 {
            if self.rel.snd_nxt() < self.rel.stream_len() && self.flow.persist_deadline().is_none()
            {
                self.flow.arm_persist(now, self.rel.rto());
            }
        } else {
            self.flow.cancel_persist();
            // If a probe byte is still outstanding when the window
            // reopens, hand it back to the normal retransmission machinery.
            if self.rel.snd_nxt() > self.rel.snd_una() && self.rel.rto_deadline().is_none() {
                self.arm_rto(now);
            }
        }

        let fin_ack = self.conn.fin_sent_ever() && ack_off == self.rel.stream_len() + 1;
        let newly_acked = ack_off
            .min(self.rel.snd_max())
            .saturating_sub(self.rel.snd_una());

        if newly_acked == 0 && !fin_ack {
            // Duplicate ACK? Only if it carries no data, no window change,
            // and there is outstanding data (RFC 5681).
            if seg.payload_len() == 0
                && ack_off == self.rel.snd_una()
                && meta.window == prev_raw_wnd
                && self.rel.snd_nxt() > self.rel.snd_una()
                && self.rel.register_dupack() == 3
                && self.rel.recover().is_none()
            {
                // Fast retransmit.
                self.cc.on_fast_retransmit(now);
                self.rel.enter_fast_recovery();
            }
            // ECN processing still applies to duplicate ACKs for DCTCP.
            self.feed_cc_ack(now, 0, ece);
            return;
        }

        // New data acknowledged.
        self.rel.advance_una(ack_off);
        if fin_ack {
            self.conn.note_fin_acked();
        }

        // RTT sample (Karn: probe cleared on retransmission).
        self.rel
            .sample_rtt_from_probe(now, self.cfg.rto_min, self.cfg.rto_max);

        // NewReno recovery bookkeeping.
        self.rel.newreno_post_ack();

        self.feed_cc_ack(now, newly_acked, ece);

        // Restart or stop the retransmission timer.
        if self.rel.snd_nxt() > self.rel.snd_una()
            || (self.conn.fin_sent() && !self.conn.fin_acked())
        {
            self.arm_rto(now);
        } else {
            self.maybe_disarm_rto();
        }

        // Teardown transitions driven by our-FIN acknowledgement.
        if self.conn.fin_acked() && self.conn.on_fin_acked_transition(now, 2 * self.cfg.rto_min) {
            self.rel.clear_rto_deadline();
        }
    }

    fn feed_cc_ack(&mut self, now: Nanos, newly_acked: u64, ece: bool) {
        let dctcp = self.cc.wants_ecn();
        let marked = if dctcp && ece { newly_acked } else { 0 };
        // Linux only grows the window when the flow is actually
        // *cwnd-limited* (tcp_is_cwnd_limited): an application- or
        // NIC-limited flow must not inflate cwnd it never uses (that is
        // how senders avoid unbounded qdisc bufferbloat).
        let in_flight_before = self.rel.in_flight() + newly_acked;
        let cwnd = self.cc.cwnd();
        let cwnd_limited = if self.cc.in_slow_start() {
            cwnd < 2 * in_flight_before
        } else {
            in_flight_before + 2 * u64::from(self.conn.mss()) >= cwnd
        };
        let rtt = if newly_acked > 0 {
            // The sample fed here is the probe-based one; expose the
            // latest srtt to algorithms that want per-ack RTTs.
            self.rel.srtt()
        } else {
            None
        };
        // Classic ECN: react to ECE like loss, at most once per RTT,
        // and schedule CWR signalling.
        if !dctcp
            && self.ecn.ecn_ok()
            && ece
            && self.ecn.can_cut(now, self.rel.srtt(), self.cfg.rto_min)
        {
            self.cc.on_fast_retransmit(now);
            self.ecn.note_cut(now);
        }
        let congestion_signal = marked > 0 || (dctcp && ece);
        if (newly_acked > 0 && cwnd_limited) || congestion_signal {
            self.cc.on_ack(&AckEvent {
                now,
                newly_acked,
                marked,
                rtt,
                in_flight: self.rel.in_flight(),
                ece,
            });
        }
    }

    fn process_data(&mut self, now: Nanos, seg: &Segment, meta: &PacketMeta) {
        let start = self.unwrap_seq(meta.seq);
        let len = seg.payload_len() as u64;

        if meta.flags.contains(TcpFlags::FIN) {
            self.rcv.note_fin((start + len as i64) as u64);
        }

        // ECN feedback bookkeeping (on data packets only).
        if self.ecn.on_data_ecn(
            seg.ecn().is_ce(),
            self.cfg_is_dctcp(),
            meta.flags.contains(TcpFlags::CWR),
        ) {
            self.rcv.force_ack();
        }

        if len > 0 {
            self.rcv.accept(
                start,
                len,
                now,
                self.cfg.delack_segs,
                self.cfg.delack_timeout,
            );
        }

        // Consume the FIN when it is in order.
        if self.rcv.fin_in_order() {
            self.rcv.force_ack();
            if self.conn.on_fin_consumed(now, 2 * self.cfg.rto_min) {
                self.rel.clear_rto_deadline();
            }
        }
    }

    fn cfg_is_dctcp(&self) -> bool {
        self.cc.wants_ecn()
    }

    // ------------------------------------------------------------------
    // Segment output
    // ------------------------------------------------------------------

    /// Advertised receive window in bytes. The simulated application
    /// drains in-order data instantly, so the window is the full buffer;
    /// out-of-order data sits *inside* the advertised span and does not
    /// shrink the right edge (shrinking it would also defeat RFC 5681
    /// duplicate-ACK detection, which requires an unchanged window).
    fn adv_window_bytes(&self) -> u64 {
        self.cfg.rcv_buf
    }

    fn adv_window_raw(&self) -> u16 {
        acdc_packet::scale_rwnd(self.adv_window_bytes(), self.cfg.wscale)
    }

    /// Build the next outgoing segment, if anything needs sending.
    /// Hosts call this in a loop after every event until it yields `None`.
    pub fn poll_transmit(&mut self, now: Nanos) -> Option<Segment> {
        // 1. Handshake packets.
        if self.conn.take_need_syn() {
            return Some(self.make_syn(false));
        }
        if self.conn.take_need_synack() {
            return Some(self.make_syn(true));
        }
        // In TIME-WAIT / CLOSED we still answer retransmitted FINs with a
        // pure ACK (RFC 793) — otherwise the peer wedges in LAST-ACK.
        if matches!(self.conn.state(), TcpState::TimeWait | TcpState::Closed) {
            if self.rcv.ack_now() && self.rcv.fin_rcvd().is_some() {
                self.rcv.clear_ack_state();
                return Some(self.make_ack());
            }
            return None;
        }
        if !self.is_established()
            && !matches!(self.conn.state(), TcpState::LastAck | TcpState::Closing)
        {
            return None;
        }

        // 2. Head retransmission (fast retransmit / partial-ACK hole fill).
        if let Some(len) = self.rel.take_rtx_head(self.conn.mss()) {
            self.arm_rto(now);
            return Some(self.make_data(self.rel.snd_una(), len as usize, false));
        }

        // 2b. Zero-window probe: one byte of real data past the window.
        // Probe retransmission is owned by the *persist* timer (not the
        // RTO, which would needlessly collapse cwnd while the peer is
        // simply full), so no retransmission timer is armed here.
        if self.flow.take_window_probe() {
            let state_ok = matches!(
                self.conn.state(),
                TcpState::Established | TcpState::CloseWait | TcpState::FinWait1
            );
            if state_ok && self.flow.peer_rwnd() == 0 && self.rel.snd_una() < self.rel.stream_len()
            {
                let off = self.rel.snd_una();
                self.rel.extend_for_probe();
                self.rcv.clear_ack_state();
                return Some(self.make_data(off, 1, false));
            }
        }

        // 3. New data within the windows.
        if self.can_send_data() {
            let usable = self.usable_window();
            let remaining = self.rel.stream_len() - self.rel.snd_nxt();
            let len = remaining.min(u64::from(self.conn.mss())).min(usable);
            if len > 0 {
                let off = self.rel.advance_nxt(len);
                // FIN may ride the last data segment.
                let fin = self.fin_ready();
                if fin {
                    self.conn.send_fin();
                }
                self.rel.maybe_arm_rtt_probe(now, off + len);
                if self.rel.rto_deadline().is_none() {
                    self.arm_rto(now);
                }
                self.rcv.clear_ack_state();
                return Some(self.make_data(off, len as usize, fin));
            }
        }

        // 4. A bare FIN once all data is out and acknowledged as sendable.
        if self.fin_ready() && !self.conn.fin_sent() {
            self.conn.send_fin();
            if self.rel.rto_deadline().is_none() {
                self.arm_rto(now);
            }
            self.rcv.clear_ack_state();
            return Some(self.make_data(self.rel.snd_nxt(), 0, true));
        }

        // 5. A pure ACK if one is due.
        if self.rcv.ack_now() {
            self.rcv.clear_ack_state();
            return Some(self.make_ack());
        }

        None
    }

    fn fin_ready(&self) -> bool {
        self.conn.fin_queued()
            && !self.conn.fin_sent()
            && self.rel.snd_nxt() == self.rel.stream_len()
    }

    fn can_send_data(&self) -> bool {
        // LAST-ACK is included: a timeout rewinds `snd_nxt`, and the data
        // ahead of our FIN must still be retransmittable from that state.
        matches!(
            self.conn.state(),
            TcpState::Established
                | TcpState::CloseWait
                | TcpState::FinWait1
                | TcpState::LastAck
                | TcpState::Closing
        ) && self.rel.snd_nxt() < self.rel.stream_len()
    }

    fn usable_window(&self) -> u64 {
        let cwnd = self.cc.cwnd();
        let flow = if self.cfg.ignore_peer_rwnd {
            u64::MAX
        } else {
            // Peer window is relative to snd_una.
            (self.rel.snd_una() + self.flow.peer_rwnd()).saturating_sub(self.rel.snd_nxt())
        };
        let cong = cwnd.saturating_sub(self.rel.in_flight());
        cong.min(flow)
    }

    fn ip_repr(&self, ecn: Ecn) -> Ipv4Repr {
        Ipv4Repr {
            src_addr: self.cfg.local_ip,
            dst_addr: self.cfg.remote_ip,
            protocol: PROTO_TCP,
            ecn,
            payload_len: 0,
            ttl: Ipv4Repr::DEFAULT_TTL,
        }
    }

    fn base_tcp(&self) -> TcpRepr {
        let mut t = TcpRepr::new(self.cfg.local_port, self.cfg.remote_port);
        t.window = self.adv_window_raw();
        t
    }

    fn make_syn(&self, is_synack: bool) -> Segment {
        let mut t = self.base_tcp();
        t.seq = self.conn.iss();
        t.flags = TcpFlags::SYN;
        if is_synack {
            t.flags |= TcpFlags::ACK;
            t.ack = self.conn.irs() + 1u32;
            if self.ecn.ecn_ok() {
                t.flags |= TcpFlags::ECE;
            }
        } else if self.cfg.ecn {
            t.flags |= TcpFlags::ECE | TcpFlags::CWR;
        }
        // SYN windows are never scaled.
        t.window = self.adv_window_bytes().min(u64::from(u16::MAX)) as u16;
        t.options = vec![
            TcpOption::MaxSegmentSize(self.cfg.mss as u16),
            TcpOption::WindowScale(self.cfg.wscale),
            TcpOption::NoOperation,
        ];
        Segment::new_tcp(self.ip_repr(Ecn::NotEct), t, 0)
    }

    fn make_data(&mut self, off: u64, len: usize, fin: bool) -> Segment {
        let mut t = self.base_tcp();
        t.seq = self.wire_seq(off);
        t.ack = self.wire_ack();
        t.flags = TcpFlags::ACK;
        if fin {
            t.flags |= TcpFlags::FIN;
        }
        if len > 0 && self.ecn.take_cwr() {
            t.flags |= TcpFlags::CWR;
        }
        if self.ecn.echo_ece(self.cfg_is_dctcp()) {
            t.flags |= TcpFlags::ECE;
        }
        // DCTCP sets ECT on every packet (Linux marks the whole socket);
        // classic ECN only on data segments (RFC 3168 forbids ECT on pure
        // ACKs).
        let ecn = if self.ecn.ecn_ok() && (len > 0 || self.cfg_is_dctcp()) {
            Ecn::Ect0
        } else {
            Ecn::NotEct
        };
        Segment::new_tcp(self.ip_repr(ecn), t, len)
    }

    fn make_ack(&self) -> Segment {
        let mut t = self.base_tcp();
        t.seq = self.wire_seq(self.rel.snd_nxt());
        t.ack = self.wire_ack();
        t.flags = TcpFlags::ACK;
        if self.ecn.echo_ece(self.cfg_is_dctcp()) {
            t.flags |= TcpFlags::ECE;
        }
        let ecn = if self.ecn.ecn_ok() && self.cfg_is_dctcp() {
            Ecn::Ect0
        } else {
            Ecn::NotEct
        };
        Segment::new_tcp(self.ip_repr(ecn), t, 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use acdc_cc::CcKind;
    use acdc_stats::time::{MICROSECOND, MILLISECOND};

    const A_IP: [u8; 4] = [10, 0, 0, 1];
    const B_IP: [u8; 4] = [10, 0, 0, 2];

    fn pair(cc: CcKind, mss: u32) -> (Endpoint, Endpoint) {
        let mut ca = TcpConfig::new(A_IP, 40000, B_IP, 5001, mss, cc);
        ca.iss = 1_000;
        let mut cb = TcpConfig::new(B_IP, 5001, A_IP, 40000, mss, cc);
        cb.iss = 9_000_000;
        (Endpoint::new_active(ca), Endpoint::new_passive(cb))
    }

    /// A two-endpoint harness with a fixed one-way delay and optional
    /// fault injection on a→b data packets.
    struct Pipe {
        a: Endpoint,
        b: Endpoint,
        delay: Nanos,
        /// In flight: (deliver_at, to_b?, segment)
        wire: Vec<(Nanos, bool, Segment)>,
        now: Nanos,
        /// Drop the n-th a→b data packet (1-based counters).
        drop_nth_data: Vec<u64>,
        data_count: u64,
        /// CE-mark every a→b data packet whose index is in this list.
        mark_nth_data: Vec<u64>,
        /// Mark all data packets a→b.
        mark_all: bool,
        delivered_to_b: u64,
    }

    impl Pipe {
        fn new(a: Endpoint, b: Endpoint, delay: Nanos) -> Pipe {
            Pipe {
                a,
                b,
                delay,
                wire: Vec::new(),
                now: 0,
                drop_nth_data: Vec::new(),
                data_count: 0,
                mark_nth_data: Vec::new(),
                mark_all: false,
                delivered_to_b: 0,
            }
        }

        fn pump_out(&mut self) {
            loop {
                let mut emitted = false;
                while let Some(seg) = self.a.poll_transmit(self.now) {
                    let mut seg = seg;
                    if seg.payload_len() > 0 {
                        self.data_count += 1;
                        if self.drop_nth_data.contains(&self.data_count) {
                            emitted = true;
                            continue; // drop
                        }
                        if (self.mark_all || self.mark_nth_data.contains(&self.data_count))
                            && seg.ecn().is_ect()
                        {
                            seg.mark_ce();
                        }
                    }
                    self.wire.push((self.now + self.delay, true, seg));
                    emitted = true;
                }
                while let Some(seg) = self.b.poll_transmit(self.now) {
                    self.wire.push((self.now + self.delay, false, seg));
                    emitted = true;
                }
                if !emitted {
                    break;
                }
            }
        }

        /// Run the exchange until `deadline` or quiescence.
        fn run(&mut self, deadline: Nanos) {
            self.pump_out();
            loop {
                // Next event: earliest wire delivery or endpoint timer.
                let wire_t = self.wire.iter().map(|w| w.0).min();
                let timer_t = [self.a.next_timer(), self.b.next_timer()]
                    .into_iter()
                    .flatten()
                    .min();
                let next = match (wire_t, timer_t) {
                    (Some(w), Some(t)) => w.min(t),
                    (Some(w), None) => w,
                    (None, Some(t)) => t,
                    (None, None) => break,
                };
                if next > deadline {
                    break;
                }
                self.now = next;
                // Deliver due packets (stable order).
                let mut due: Vec<(Nanos, bool, Segment)> = Vec::new();
                let mut rest = Vec::new();
                for item in self.wire.drain(..) {
                    if item.0 <= self.now {
                        due.push(item);
                    } else {
                        rest.push(item);
                    }
                }
                self.wire = rest;
                for (_, to_b, seg) in due {
                    if to_b {
                        self.delivered_to_b += seg.payload_len() as u64;
                        self.b.on_segment(self.now, &seg);
                    } else {
                        self.a.on_segment(self.now, &seg);
                    }
                    // Hosts drain the endpoint after every packet; do the
                    // same so e.g. each out-of-order arrival produces its
                    // own duplicate ACK.
                    self.pump_out();
                }
                // Fire timers.
                if self.a.next_timer().is_some_and(|t| t <= self.now) {
                    self.a.on_timer(self.now);
                }
                if self.b.next_timer().is_some_and(|t| t <= self.now) {
                    self.b.on_timer(self.now);
                }
                self.pump_out();
            }
        }
    }

    #[test]
    fn handshake_establishes_both_sides() {
        let (mut a, b) = pair(CcKind::Cubic, 1448);
        a.open(0);
        let mut p = Pipe::new(a, b, 50 * MICROSECOND);
        p.run(10 * MILLISECOND);
        assert!(p.a.is_established());
        assert!(p.b.is_established());
        assert_eq!(p.a.state(), TcpState::Established);
        assert_eq!(p.b.state(), TcpState::Established);
        // SYN RTT sampled.
        assert!(p.a.srtt().unwrap() >= 100 * MICROSECOND);
    }

    #[test]
    fn bulk_transfer_delivers_everything() {
        let (mut a, b) = pair(CcKind::Cubic, 1448);
        a.open(0);
        a.send(1_000_000);
        let mut p = Pipe::new(a, b, 50 * MICROSECOND);
        p.run(2_000 * MILLISECOND);
        assert_eq!(p.b.delivered_bytes(), 1_000_000);
        assert_eq!(p.a.acked_bytes(), 1_000_000);
        assert_eq!(p.a.retransmitted_segments(), 0);
    }

    #[test]
    fn mss_negotiation_uses_min() {
        let mut ca = TcpConfig::new(A_IP, 1, B_IP, 2, 8948, CcKind::Cubic);
        ca.iss = 5;
        let cb = TcpConfig::new(B_IP, 2, A_IP, 1, 1448, CcKind::Cubic);
        let mut a = Endpoint::new_active(ca);
        a.open(0);
        a.send(100_000);
        let b = Endpoint::new_passive(cb);
        let mut p = Pipe::new(a, b, 10 * MICROSECOND);
        p.run(MILLISECOND * 500);
        assert_eq!(p.a.mss(), 1448);
        assert_eq!(p.b.delivered_bytes(), 100_000);
    }

    #[test]
    fn fast_retransmit_recovers_from_single_loss() {
        let (mut a, b) = pair(CcKind::Reno, 1448);
        a.open(0);
        a.send(500_000);
        let mut p = Pipe::new(a, b, 50 * MICROSECOND);
        p.drop_nth_data = vec![30];
        p.run(2_000 * MILLISECOND);
        assert_eq!(p.b.delivered_bytes(), 500_000);
        assert!(p.a.retransmitted_segments() >= 1);
        assert_eq!(p.a.timeouts(), 0, "loss should be repaired without RTO");
    }

    #[test]
    fn rto_recovers_from_tail_loss() {
        let (mut a, b) = pair(CcKind::Reno, 1448);
        a.open(0);
        a.send(10 * 1448);
        // Drop the last segment: no dupacks possible → RTO required.
        let mut p = Pipe::new(a, b, 50 * MICROSECOND);
        p.drop_nth_data = vec![10];
        p.run(2_000 * MILLISECOND);
        assert_eq!(p.b.delivered_bytes(), 10 * 1448);
        assert!(p.a.timeouts() >= 1);
    }

    #[test]
    fn multiple_losses_eventually_deliver() {
        let (mut a, b) = pair(CcKind::Cubic, 1448);
        a.open(0);
        a.send(300_000);
        let mut p = Pipe::new(a, b, 50 * MICROSECOND);
        p.drop_nth_data = vec![5, 6, 7, 40, 80, 81, 120];
        p.run(5_000 * MILLISECOND);
        assert_eq!(p.b.delivered_bytes(), 300_000);
        assert_eq!(p.a.acked_bytes(), 300_000);
    }

    #[test]
    fn graceful_close_reaches_closed_states() {
        let (mut a, b) = pair(CcKind::Cubic, 1448);
        a.open(0);
        a.send(10_000);
        let mut p = Pipe::new(a, b, 50 * MICROSECOND);
        p.run(100 * MILLISECOND);
        p.a.close();
        p.b.close();
        p.run(1_000 * MILLISECOND);
        assert!(p.a.is_closed(), "a state {:?}", p.a.state());
        assert!(p.b.is_closed(), "b state {:?}", p.b.state());
    }

    #[test]
    fn flow_control_respects_peer_window() {
        let (mut a, mut b) = pair(CcKind::Cubic, 1000);
        b.cfg.rcv_buf = 4_000; // tiny receive buffer
        a.open(0);
        a.send(1_000_000);
        let mut p = Pipe::new(a, b, 50 * MICROSECOND);
        // Run briefly: sender must never have more than ~4 KB in flight.
        p.run(MILLISECOND);
        assert!(
            p.a.in_flight() <= 4_000,
            "in flight {} exceeds peer window",
            p.a.in_flight()
        );
    }

    #[test]
    fn ignore_peer_rwnd_oversends() {
        let (mut a0, mut b) = pair(CcKind::Cubic, 1000);
        let mut cfg = a0.cfg.clone();
        cfg.ignore_peer_rwnd = true;
        let mut a = Endpoint::new_active(cfg);
        b.cfg.rcv_buf = 4_000;
        a.open(0);
        a.send(100_000_000); // enough that the transfer is still running
        let mut p = Pipe::new(a, b, 50 * MICROSECOND);
        // Stop mid-slow-start so in-flight reflects the congestion window.
        p.run(600 * MICROSECOND);
        assert!(
            p.a.in_flight() > 4_000,
            "non-conforming stack should ignore the window (in flight {})",
            p.a.in_flight()
        );
        let _ = &mut a0;
    }

    #[test]
    fn dctcp_echo_reduces_window_on_marks() {
        let (mut a, b) = pair(CcKind::Dctcp, 1448);
        a.open(0);
        a.send(2_000_000);
        let mut p = Pipe::new(a, b, 50 * MICROSECOND);
        p.mark_all = true;
        p.run(200 * MILLISECOND);
        // Persistent marking must hold the window near the floor.
        assert!(
            p.a.cwnd() < 30_000,
            "cwnd {} should be suppressed by marks",
            p.a.cwnd()
        );
        assert!(p.b.delivered_bytes() > 0);
    }

    #[test]
    fn ecn_negotiation_requires_both_sides() {
        // DCTCP client against a non-ECN server: ecn_ok must be false.
        let mut ca = TcpConfig::new(A_IP, 1, B_IP, 2, 1448, CcKind::Dctcp);
        ca.iss = 7;
        let cb = TcpConfig::new(B_IP, 2, A_IP, 1, 1448, CcKind::Cubic);
        let mut a = Endpoint::new_active(ca);
        a.open(0);
        a.send(10_000);
        let b = Endpoint::new_passive(cb);
        let mut p = Pipe::new(a, b, 10 * MICROSECOND);
        p.run(100 * MILLISECOND);
        assert!(!p.a.ecn_negotiated());
        assert!(!p.b.ecn_negotiated());
        assert_eq!(p.b.delivered_bytes(), 10_000);
    }

    #[test]
    fn wire_sequence_wraparound_mid_transfer() {
        // Put iss near the top of the sequence space so the transfer wraps.
        let mut ca = TcpConfig::new(A_IP, 1, B_IP, 2, 1448, CcKind::Cubic);
        ca.iss = u32::MAX - 20_000;
        let mut cb = TcpConfig::new(B_IP, 2, A_IP, 1, 1448, CcKind::Cubic);
        cb.iss = u32::MAX - 5;
        let mut a = Endpoint::new_active(ca);
        a.open(0);
        a.send(500_000);
        let b = Endpoint::new_passive(cb);
        let mut p = Pipe::new(a, b, 50 * MICROSECOND);
        p.run(2_000 * MILLISECOND);
        assert_eq!(p.b.delivered_bytes(), 500_000);
        assert_eq!(p.a.acked_bytes(), 500_000);
    }

    #[test]
    fn delayed_ack_coalesces() {
        let (mut a, b) = pair(CcKind::Cubic, 1448);
        a.open(0);
        a.send(100 * 1448);
        let mut p = Pipe::new(a, b, 50 * MICROSECOND);
        p.run(500 * MILLISECOND);
        // With delack=2 the receiver sends roughly one ACK per two
        // segments; the sender's stream is fully acked regardless.
        assert_eq!(p.a.acked_bytes(), 100 * 1448);
    }

    #[test]
    fn window_trace_is_observable() {
        let (mut a, b) = pair(CcKind::Cubic, 1448);
        a.open(0);
        a.send(10_000_000);
        let start_cwnd = a.cwnd();
        let mut p = Pipe::new(a, b, 50 * MICROSECOND);
        p.run(20 * MILLISECOND);
        assert!(p.a.cwnd() > start_cwnd, "cwnd should grow during transfer");
    }

    #[test]
    fn seq_view_matches_wire_accessors() {
        let (mut a, b) = pair(CcKind::Cubic, 1448);
        a.open(0);
        a.send(100_000);
        let mut p = Pipe::new(a, b, 50 * MICROSECOND);
        p.run(5 * MILLISECOND);
        let v = p.a.seq_view();
        assert_eq!(v.snd_una, p.a.wire_snd_una());
        assert_eq!(v.snd_nxt, p.a.wire_snd_nxt());
        assert_eq!(u64::from(v.outstanding()), p.a.in_flight());
    }
}
