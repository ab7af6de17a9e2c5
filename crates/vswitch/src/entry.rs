//! Per-flow connection-tracking state (§3.1).
//!
//! One entry exists per *data direction* of a connection — the paper keeps
//! "two flow entries for each connection" (§4). The same struct carries
//! the sender-side role (congestion state, used at the host of the data
//! sender) and the receiver-side role (ECN byte accounting, used at the
//! host of the data receiver); each host only exercises its own half.

use acdc_cc::{CcConfig, CcKind, Clamped};
use acdc_packet::{PackOption, SeqNumber, SeqView};
use acdc_stats::time::Nanos;

use crate::datapath::DropReason;
use crate::rwnd::RwndRewriter;
use crate::vcc::{AckSignals, EcnFractionCc, VirtualCc};

/// Ceiling on the enforced window. The vSwitch CC cannot tell when a
/// guest is application- or NIC-limited (it sees only ACK progress), so
/// on an uncongested path its window would otherwise grow without bound
/// — wasting no bandwidth, but eventually wrapping 32-bit sequence
/// arithmetic in the policer. 32 MB is ≳ 25 ms of 10 GbE, far beyond any
/// datacenter BDP.
pub const MAX_ENFORCED_WINDOW: u64 = 32 << 20;

/// Plain-data image of one [`FlowEntry`] for checkpointing (DESIGN.md
/// §15). Everything that evolves at runtime is here; construction
/// parameters (the assigned [`CcKind`], the [`CcConfig`], the window
/// clamp) are reproduced by the restoring datapath's own policy, and the
/// `cc_name` field lets a restore verify the reproduction matches.
#[derive(Debug, Clone, PartialEq)]
pub struct FlowEntryState {
    /// First unacknowledged wire sequence number.
    pub snd_una: SeqNumber,
    /// Highest wire sequence number sent (+1).
    pub snd_nxt: SeqNumber,
    /// Sequence state initialized?
    pub seq_valid: bool,
    /// Duplicate-ACK counter.
    pub dupacks: u32,
    /// `VirtualCc::name()` of the checkpointed algorithm, for verifying
    /// the restoring policy assigns the same one.
    pub cc_name: String,
    /// The algorithm's dynamic state (`VirtualCc::state_words`).
    pub cc_words: Vec<u64>,
    /// RWND-rewrite state: `(wscale, learned, computed target)` from
    /// [`RwndRewriter::checkpoint_state`].
    pub rwnd: (u8, bool, u64),
    /// Guest negotiated ECN in its SYN.
    pub vm_ecn: bool,
    /// Outstanding RTT probe `(wire seq, send time)`.
    pub rtt_probe: Option<(SeqNumber, Nanos)>,
    /// Smoothed RTT estimate.
    pub srtt: Option<Nanos>,
    /// Time of the last ACK-clock activity.
    pub last_ack_activity: Nanos,
    /// Unconsumed feedback: total bytes.
    pub fb_total: u64,
    /// Unconsumed feedback: marked bytes.
    pub fb_marked: u64,
    /// Packets dropped from this flow by the policer.
    pub policed: u64,
    /// Last published DCTCP alpha (1e-6 units).
    pub last_alpha_micros: Option<u64>,
    /// Receiver role: bytes since last feedback.
    pub rx_total: u64,
    /// Receiver role: CE-marked bytes since last feedback.
    pub rx_marked: u64,
    /// Receiver role: lifetime bytes.
    pub rx_total_lifetime: u64,
    /// Receiver role: lifetime CE-marked bytes.
    pub rx_marked_lifetime: u64,
    /// FIN/RST seen, awaiting GC.
    pub closing: bool,
    /// Last time any packet touched this entry.
    pub last_activity: Nanos,
}

/// Connection-tracking state for one flow direction.
///
/// Only `cc` and `rwnd` are public (and `rwnd` keeps its own state
/// private). The conn-track (§3.1), feedback (§3.2) and lifecycle fields
/// are private to this module: the datapath changes them through the
/// event methods below and reads them through views, so the compiler
/// rejects a write from anywhere else.
///
/// Conn-track state:
///
/// ```compile_fail,E0616
/// fn f(e: &mut acdc_vswitch::FlowEntry) { e.seq_valid = false; }
/// ```
///
/// ```
/// fn f(e: &mut acdc_vswitch::FlowEntry) { e.seq_valid(); }
/// ```
///
/// Feedback state:
///
/// ```compile_fail,E0616
/// fn f(e: &mut acdc_vswitch::FlowEntry) { e.rx_marked += 1; }
/// ```
///
/// ```
/// fn f(e: &mut acdc_vswitch::FlowEntry) { e.rx_marked(); }
/// ```
///
/// Lifecycle state:
///
/// ```compile_fail,E0616
/// fn f(e: &mut acdc_vswitch::FlowEntry) { e.closing = true; }
/// ```
///
/// ```
/// fn f(e: &mut acdc_vswitch::FlowEntry) { e.mark_closing(); }
/// ```
pub struct FlowEntry {
    // ------------------------------------------------------------------
    // Sender role (lives at the host of the data sender)
    // ------------------------------------------------------------------
    /// First unacknowledged wire sequence number.
    snd_una: SeqNumber,
    /// Highest wire sequence number sent (+1, i.e. "next expected send").
    snd_nxt: SeqNumber,
    /// Sequence state initialized (first SYN/data seen)?
    seq_valid: bool,
    /// Duplicate-ACK counter.
    dupacks: u32,
    /// The enforced congestion-control algorithm, behind the
    /// [`VirtualCc`] seam (the sender module feeds it [`AckSignals`]
    /// bundles and enforces whatever window it reports).
    pub cc: Box<dyn VirtualCc>,
    /// The RWND-rewrite component (window scale + enforcement target,
    /// §3.3). Its fields are private; mutation goes through its API.
    pub rwnd: RwndRewriter,
    /// The guest's own stack negotiated ECN (from its SYN); drives the
    /// per-packet reserved-bit marker of §3.2.
    vm_ecn: bool,
    /// RTT probe: (wire seq whose ACK completes the sample, send time).
    rtt_probe: Option<(SeqNumber, Nanos)>,
    /// Smoothed RTT estimate for the inactivity (timeout) heuristic.
    srtt: Option<Nanos>,
    /// Time of the last ACK-clock activity (for inferring timeouts).
    last_ack_activity: Nanos,
    /// Accumulated feedback not yet consumed: total/marked bytes reported
    /// by PACK/FACK options (64-bit accumulators behind u32 wire deltas).
    fb_total: u64,
    /// Marked portion of `fb_total`.
    fb_marked: u64,
    /// Packets dropped from this flow by the policer.
    policed: u64,
    /// Last DCTCP `alpha` (in 1e-6 units) published as an `alpha-update`
    /// telemetry event; events fire only when the estimate moves.
    last_alpha_micros: Option<u64>,

    // ------------------------------------------------------------------
    // Receiver role (lives at the host of the data receiver)
    // ------------------------------------------------------------------
    /// Bytes received for this flow since the last feedback emitted.
    rx_total: u64,
    /// CE-marked bytes received since the last feedback emitted.
    rx_marked: u64,
    /// Lifetime bytes received (never reset; observability).
    rx_total_lifetime: u64,
    /// Lifetime CE-marked bytes received (never reset; observability).
    rx_marked_lifetime: u64,

    // ------------------------------------------------------------------
    // Lifecycle
    // ------------------------------------------------------------------
    /// Entry saw a FIN/RST and awaits garbage collection.
    closing: bool,
    /// Last time any packet touched this entry.
    last_activity: Nanos,
}

/// What one ACK did to a flow's congestion state, for the datapath to
/// count and publish once the table closure has returned. Each field
/// carries the window (or alpha) at the moment of the event.
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct AckOutcome {
    /// Window after a fast retransmit inferred from the third dup ACK.
    pub fast_retransmit: Option<u64>,
    /// Window after a timeout inferred from ACK-clock inactivity.
    pub timeout: Option<u64>,
    /// The new DCTCP alpha (1e-6 units), when it moved.
    pub alpha_micros: Option<u64>,
}

impl FlowEntry {
    /// Fresh entry for a flow assigned algorithm `kind`.
    pub fn new(kind: CcKind, cc_cfg: CcConfig, now: Nanos) -> FlowEntry {
        FlowEntry {
            snd_una: SeqNumber::ZERO,
            snd_nxt: SeqNumber::ZERO,
            seq_valid: false,
            dupacks: 0,
            cc: Box::new(EcnFractionCc::new(Box::new(Clamped::new(
                kind.build(cc_cfg),
                MAX_ENFORCED_WINDOW,
            )))),
            rwnd: RwndRewriter::new(),
            vm_ecn: false,
            rtt_probe: None,
            srtt: None,
            last_ack_activity: now,
            fb_total: 0,
            fb_marked: 0,
            policed: 0,
            last_alpha_micros: None,
            rx_total: 0,
            rx_marked: 0,
            rx_total_lifetime: 0,
            rx_marked_lifetime: 0,
            closing: false,
            last_activity: now,
        }
    }

    // ------------------------------------------------------------------
    // Views
    // ------------------------------------------------------------------

    /// Sequence state initialized (first SYN/data seen)?
    pub fn seq_valid(&self) -> bool {
        self.seq_valid
    }

    /// First unacknowledged wire sequence number.
    pub fn snd_una(&self) -> SeqNumber {
        self.snd_una
    }

    /// The reconstructed send pointers, once sequence state is valid.
    pub(crate) fn seq_view(&self) -> Option<SeqView> {
        self.seq_valid.then_some(SeqView {
            snd_una: self.snd_una,
            snd_nxt: self.snd_nxt,
        })
    }

    /// Duplicate-ACK counter.
    pub fn dupacks(&self) -> u32 {
        self.dupacks
    }

    /// Smoothed RTT estimate, if sampled.
    pub(crate) fn srtt(&self) -> Option<Nanos> {
        self.srtt
    }

    /// Packets dropped from this flow by the policer.
    pub fn policed(&self) -> u64 {
        self.policed
    }

    /// Bytes received since the last feedback emitted.
    pub fn rx_total(&self) -> u64 {
        self.rx_total
    }

    /// CE-marked bytes received since the last feedback emitted.
    pub fn rx_marked(&self) -> u64 {
        self.rx_marked
    }

    /// Lifetime bytes received.
    pub(crate) fn rx_total_lifetime(&self) -> u64 {
        self.rx_total_lifetime
    }

    /// Lifetime CE-marked bytes received.
    pub(crate) fn rx_marked_lifetime(&self) -> u64 {
        self.rx_marked_lifetime
    }

    /// Entry saw a FIN/RST and awaits garbage collection.
    pub(crate) fn closing(&self) -> bool {
        self.closing
    }

    /// Last time any packet touched this entry.
    pub(crate) fn last_activity(&self) -> Nanos {
        self.last_activity
    }

    /// Bytes currently unacknowledged (in flight) per the tracked state.
    pub fn in_flight(&self) -> u64 {
        if !self.seq_valid {
            return 0;
        }
        let d = self.snd_nxt - self.snd_una;
        if d > 0 {
            d as u64
        } else {
            0
        }
    }

    // ------------------------------------------------------------------
    // Lifecycle
    // ------------------------------------------------------------------

    /// A packet touched this entry at `now` (the idle-GC clock).
    pub fn touch(&mut self, now: Nanos) {
        self.last_activity = now;
    }

    /// The flow saw a FIN or RST: collect it on the next GC sweep.
    pub fn mark_closing(&mut self) {
        self.closing = true;
    }

    // ------------------------------------------------------------------
    // Sender role events (§3.1)
    // ------------------------------------------------------------------

    /// The guest's SYN (or SYN-ACK) left with initial sequence `iss`:
    /// seed sequence tracking and remember whether its stack speaks ECN.
    pub(crate) fn on_syn(&mut self, now: Nanos, iss: SeqNumber, vm_ecn: bool) {
        self.touch(now);
        self.vm_ecn = vm_ecn;
        self.snd_una = iss + 1u32;
        self.snd_nxt = iss + 1u32;
        self.seq_valid = true;
    }

    /// The guest sent `len` payload bytes at `seq` (plus a FIN when
    /// `fin`). Adopts sequence state on a flow first seen mid-stream,
    /// polices the segment against the enforced window when
    /// `police_slack` is set (§3.3; a window never rewritten because the
    /// scale is unlearned is not policed), advances `snd_nxt` and keeps
    /// one RTT probe outstanding, invalidating it on a retransmission
    /// (Karn). Returns the guest's ECN capability for the reserved-bit
    /// marker.
    pub(crate) fn on_egress_data(
        &mut self,
        now: Nanos,
        seq: SeqNumber,
        len: u32,
        fin: bool,
        police_slack: Option<u64>,
    ) -> Result<bool, DropReason> {
        self.touch(now);
        let seq_end = seq + len + u32::from(fin);
        if !self.seq_valid {
            self.snd_una = seq;
            self.snd_nxt = seq_end;
            self.seq_valid = true;
        }

        if let Some(slack) = police_slack {
            if self.rwnd.learned() {
                let allowed_end = self.snd_una + (self.cc.cwnd() + slack) as usize;
                if seq_end > allowed_end {
                    self.policed += 1;
                    return Err(DropReason::Policed);
                }
            }
        }

        if seq_end > self.snd_nxt {
            self.snd_nxt = seq_end;
            if self.rtt_probe.is_none() {
                self.rtt_probe = Some((seq_end, now));
            }
        } else if seq < self.snd_nxt {
            // Retransmission: invalidate the RTT probe (Karn).
            if let Some((p, _)) = self.rtt_probe {
                if seq < p {
                    self.rtt_probe = None;
                }
            }
        }
        if fin {
            self.mark_closing();
        }
        Ok(self.vm_ecn)
    }

    /// An ACK for this flow arrived at `now`: advance `snd_una` and take
    /// an RTT sample, count duplicate ACKs (the third is an inferred fast
    /// retransmit), infer a timeout from ACK-clock inactivity, then
    /// consume the accumulated PACK feedback and run the algorithm
    /// (Figure 5) through the [`VirtualCc`] seam.
    pub(crate) fn on_ack(
        &mut self,
        now: Nanos,
        ack: SeqNumber,
        pure_ack: bool,
        inactivity_floor: Nanos,
    ) -> AckOutcome {
        self.touch(now);
        let mut out = AckOutcome::default();
        let mut newly_acked = 0u64;
        let mut rtt_sample = None;

        if self.seq_valid {
            if ack > self.snd_una && ack <= self.snd_nxt {
                newly_acked = (ack - self.snd_una) as u64;
                self.snd_una = ack;
                self.dupacks = 0;
                self.last_ack_activity = now;
                if let Some((probe_seq, sent_at)) = self.rtt_probe {
                    if ack >= probe_seq {
                        let s = now - sent_at;
                        self.record_rtt(s);
                        rtt_sample = Some(s);
                        self.rtt_probe = None;
                    }
                }
            } else if ack == self.snd_una && pure_ack && self.snd_nxt > self.snd_una {
                self.dupacks += 1;
                if self.dupacks == 3 {
                    self.cc.on_fast_retransmit(now);
                    out.fast_retransmit = Some(self.cc.cwnd());
                }
            }
            out.timeout = self.infer_timeout(now, inactivity_floor);
        }

        let marked = self.fb_marked;
        let total = self.fb_total;
        self.fb_total = 0;
        self.fb_marked = 0;
        let in_flight = self.in_flight();
        let rtt = rtt_sample.or(self.srtt);
        if newly_acked > 0 || marked > 0 {
            self.cc.on_ack_signals(&AckSignals {
                now,
                newly_acked,
                marked_bytes: marked,
                total_bytes: total,
                rtt,
                in_flight,
            });
            // Publish alpha movements (quantized; DCTCP-family only).
            if let Some(am) = self.cc.alpha_micros() {
                if self.last_alpha_micros != Some(am) {
                    self.last_alpha_micros = Some(am);
                    out.alpha_micros = Some(am);
                }
            }
        }
        out
    }

    /// Inactivity-inferred timeout (§3.1): data is outstanding and the
    /// ACK clock has been silent past [`Self::inactivity_threshold`].
    /// Returns the window after the algorithm's timeout reaction.
    pub(crate) fn infer_timeout(&mut self, now: Nanos, floor: Nanos) -> Option<u64> {
        if !self.seq_valid || self.snd_una >= self.snd_nxt {
            return None;
        }
        if now.saturating_sub(self.last_ack_activity) <= self.inactivity_threshold(floor) {
            return None;
        }
        self.cc.on_retransmit_timeout(now);
        self.last_ack_activity = now;
        Some(self.cc.cwnd())
    }

    /// Fold a PACK's counters into the feedback accumulators.
    pub(crate) fn absorb_pack(&mut self, pack: PackOption) {
        self.fb_total += u64::from(pack.total_bytes);
        self.fb_marked += u64::from(pack.marked_bytes);
        crate::strict_invariant!(
            self.fb_marked <= self.fb_total,
            "PACK feedback counters inconsistent: marked {} > total {}",
            self.fb_marked,
            self.fb_total
        );
    }

    // ------------------------------------------------------------------
    // Receiver role events (§3.2)
    // ------------------------------------------------------------------

    /// `bytes` of payload arrived at `now`, CE-marked when `ce` (and
    /// closing the flow when `fin`).
    pub(crate) fn on_data_received(&mut self, now: Nanos, bytes: u64, ce: bool, fin: bool) {
        self.touch(now);
        self.rx_total += bytes;
        self.rx_total_lifetime += bytes;
        if ce {
            self.rx_marked += bytes;
            self.rx_marked_lifetime += bytes;
        }
        crate::strict_invariant!(
            self.rx_marked <= self.rx_total && self.rx_marked_lifetime <= self.rx_total_lifetime,
            "PACK receive counters inconsistent: marked {}/{} lifetime {}/{}",
            self.rx_marked,
            self.rx_total,
            self.rx_marked_lifetime,
            self.rx_total_lifetime
        );
        if fin {
            self.mark_closing();
        }
    }

    /// The feedback to piggyback on an ACK leaving at `now`: the byte
    /// counts since the last feedback, reset as they are taken. `None`
    /// (and the entry left untouched) when nothing arrived since.
    pub(crate) fn drain_feedback(&mut self, now: Nanos) -> Option<PackOption> {
        (self.rx_total > 0).then(|| {
            self.touch(now);
            let (total_bytes, marked_bytes) = self.take_feedback();
            PackOption {
                total_bytes,
                marked_bytes,
            }
        })
    }

    /// Take the receiver-role feedback counters as u32 wire deltas,
    /// resetting them (they are deltas "since the last feedback").
    fn take_feedback(&mut self) -> (u32, u32) {
        let total = self.rx_total.min(u64::from(u32::MAX)) as u32;
        let marked = self.rx_marked.min(u64::from(total)) as u32;
        self.rx_total = 0;
        self.rx_marked = 0;
        (total, marked)
    }

    /// Record an RTT sample into the entry's smoothed estimate.
    fn record_rtt(&mut self, sample: Nanos) {
        self.srtt = Some(match self.srtt {
            None => sample,
            Some(s) => (7 * s + sample) / 8,
        });
    }

    /// The inactivity threshold standing in for the guest's RTO: the
    /// vSwitch cannot see the guest timer, so it infers a timeout when
    /// `snd_una < snd_nxt` and nothing has moved for a few RTTs (§3.1).
    fn inactivity_threshold(&self, floor: Nanos) -> Nanos {
        match self.srtt {
            Some(s) => (4 * s).max(floor),
            None => floor,
        }
    }

    // ------------------------------------------------------------------
    // Checkpoint / restore (DESIGN.md §15)
    // ------------------------------------------------------------------

    /// Capture this entry's dynamic state for a checkpoint.
    pub fn checkpoint_state(&self) -> FlowEntryState {
        FlowEntryState {
            snd_una: self.snd_una,
            snd_nxt: self.snd_nxt,
            seq_valid: self.seq_valid,
            dupacks: self.dupacks,
            cc_name: self.cc.name().to_string(),
            cc_words: self.cc.state_words(),
            rwnd: self.rwnd.checkpoint_state(),
            vm_ecn: self.vm_ecn,
            rtt_probe: self.rtt_probe,
            srtt: self.srtt,
            last_ack_activity: self.last_ack_activity,
            fb_total: self.fb_total,
            fb_marked: self.fb_marked,
            policed: self.policed,
            last_alpha_micros: self.last_alpha_micros,
            rx_total: self.rx_total,
            rx_marked: self.rx_marked,
            rx_total_lifetime: self.rx_total_lifetime,
            rx_marked_lifetime: self.rx_marked_lifetime,
            closing: self.closing,
            last_activity: self.last_activity,
        }
    }

    /// Apply a checkpointed state to this freshly constructed entry.
    /// Fails, leaving the entry in an unspecified but valid state, when
    /// a marked-byte counter exceeds its total (a checkpoint is input
    /// from outside the program, and the receive and feedback paths
    /// assume marked ≤ total) or when the checkpointed algorithm does
    /// not match the one this entry was constructed with (name or
    /// state-word layout), which indicates a policy/config mismatch
    /// between checkpoint and restore.
    pub fn restore_state(&mut self, s: &FlowEntryState) -> Result<(), String> {
        for (marked, total, m, t) in [
            ("rx_marked", "rx_total", s.rx_marked, s.rx_total),
            (
                "rx_marked_lifetime",
                "rx_total_lifetime",
                s.rx_marked_lifetime,
                s.rx_total_lifetime,
            ),
            ("fb_marked", "fb_total", s.fb_marked, s.fb_total),
        ] {
            if m > t {
                return Err(format!("checkpointed {marked}={m} exceeds {total}={t}"));
            }
        }
        if self.cc.name() != s.cc_name || !self.cc.load_state_words(&s.cc_words) {
            return Err(format!(
                "checkpointed `{}` CC state the configured policy does not reproduce",
                s.cc_name
            ));
        }
        self.snd_una = s.snd_una;
        self.snd_nxt = s.snd_nxt;
        self.seq_valid = s.seq_valid;
        self.dupacks = s.dupacks;
        let (wscale, learned, target) = s.rwnd;
        self.rwnd.restore_state(wscale, learned, target);
        self.vm_ecn = s.vm_ecn;
        self.rtt_probe = s.rtt_probe;
        self.srtt = s.srtt;
        self.last_ack_activity = s.last_ack_activity;
        self.fb_total = s.fb_total;
        self.fb_marked = s.fb_marked;
        self.policed = s.policed;
        self.last_alpha_micros = s.last_alpha_micros;
        self.rx_total = s.rx_total;
        self.rx_marked = s.rx_marked;
        self.rx_total_lifetime = s.rx_total_lifetime;
        self.rx_marked_lifetime = s.rx_marked_lifetime;
        self.closing = s.closing;
        self.last_activity = s.last_activity;
        Ok(())
    }
}

impl core::fmt::Debug for FlowEntry {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("FlowEntry")
            .field("snd_una", &self.snd_una)
            .field("snd_nxt", &self.snd_nxt)
            .field("cwnd", &self.cc.cwnd())
            .field("cc", &self.cc.name())
            .field("dupacks", &self.dupacks)
            .field("rx_total", &self.rx_total)
            .field("rx_marked", &self.rx_marked)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry() -> FlowEntry {
        FlowEntry::new(CcKind::Dctcp, CcConfig::vswitch(1448), 0)
    }

    #[test]
    fn feedback_counters_reset_on_take() {
        let mut e = entry();
        e.rx_total = 10_000;
        e.rx_marked = 2_500;
        assert_eq!(e.take_feedback(), (10_000, 2_500));
        assert_eq!(e.take_feedback(), (0, 0));
    }

    #[test]
    fn feedback_clamps_marked_to_total() {
        let mut e = entry();
        e.rx_total = 100;
        e.rx_marked = 200; // cannot happen, but must not produce nonsense
        let (t, m) = e.take_feedback();
        assert!(m <= t);
    }

    #[test]
    fn in_flight_tracks_seq_distance() {
        let mut e = entry();
        assert_eq!(e.in_flight(), 0);
        e.seq_valid = true;
        e.snd_una = SeqNumber(1000);
        e.snd_nxt = SeqNumber(6000);
        assert_eq!(e.in_flight(), 5000);
        // Wraparound-safe.
        e.snd_una = SeqNumber(u32::MAX - 100);
        e.snd_nxt = SeqNumber(100);
        assert_eq!(e.in_flight(), 201);
    }

    #[test]
    fn srtt_smooths() {
        let mut e = entry();
        e.record_rtt(800);
        assert_eq!(e.srtt, Some(800));
        e.record_rtt(1600);
        assert_eq!(e.srtt, Some(900));
    }

    #[test]
    fn inactivity_threshold_uses_floor() {
        let mut e = entry();
        assert_eq!(e.inactivity_threshold(10_000_000), 10_000_000);
        e.srtt = Some(5_000_000);
        assert_eq!(e.inactivity_threshold(10_000_000), 20_000_000);
    }
}
