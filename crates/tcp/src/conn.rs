//! Connection management: the RFC 793 state machine, ISN bookkeeping,
//! MSS negotiation and the FIN lifecycle.
//!
//! Every mutation of connection-lifecycle state lives in this file; the
//! [`Endpoint`] orchestrator and the other components read it through
//! the accessor methods only. The fields are private, so the compiler
//! rejects a write from anywhere else:
//!
//! ```compile_fail,E0616
//! fn f(c: &mut acdc_tcp::conn::ConnMgmt) { c.fin_queued = true; }
//! ```
//!
//! ```
//! fn f(c: &mut acdc_tcp::conn::ConnMgmt) { c.fin_queued(); }
//! ```
//!
//! [`Endpoint`]: crate::Endpoint

use acdc_packet::SeqNumber;
use acdc_stats::time::Nanos;

use crate::TcpState;

/// Connection-lifecycle state for one endpoint: where we are in the RFC
/// 793 diagram, the negotiated parameters, and which control packets
/// (SYN / SYN-ACK / FIN) are pending or accounted for.
#[derive(Debug)]
pub struct ConnMgmt {
    state: TcpState,
    /// Our initial send sequence number.
    local_iss: SeqNumber,
    /// The peer's initial sequence number, once learned.
    irs: SeqNumber,
    /// Effective MSS after negotiation.
    eff_mss: u32,
    /// Application requested close.
    fin_queued: bool,
    /// FIN is currently counted as in flight (cleared by a timeout rewind).
    fin_sent: bool,
    /// FIN has been transmitted at least once (ACK validation window).
    fin_sent_ever: bool,
    /// FIN acknowledged.
    fin_acked: bool,
    /// A SYN must be (re)transmitted on the next poll.
    need_syn: bool,
    /// A SYN-ACK must be (re)transmitted on the next poll.
    need_synack: bool,
    /// When the active SYN went out (handshake RTT sample).
    syn_sent_at: Option<Nanos>,
    /// TIME-WAIT expiry.
    timewait_deadline: Option<Nanos>,
}

impl ConnMgmt {
    /// Fresh connection state: `Listen` for a passive endpoint, `Closed`
    /// (awaiting [`ConnMgmt::begin_active_open`]) for an active one.
    pub fn new(iss: SeqNumber, mss: u32, passive: bool) -> ConnMgmt {
        ConnMgmt {
            state: if passive {
                TcpState::Listen
            } else {
                TcpState::Closed
            },
            local_iss: iss,
            irs: SeqNumber(0),
            eff_mss: mss,
            fin_queued: false,
            fin_sent: false,
            fin_sent_ever: false,
            fin_acked: false,
            need_syn: false,
            need_synack: false,
            syn_sent_at: None,
            timewait_deadline: None,
        }
    }

    // ---- views -------------------------------------------------------

    /// Current connection state.
    pub fn state(&self) -> TcpState {
        self.state
    }

    /// Our initial send sequence number.
    pub fn iss(&self) -> SeqNumber {
        self.local_iss
    }

    /// The peer's initial sequence number (zero until learned).
    pub fn irs(&self) -> SeqNumber {
        self.irs
    }

    /// Effective MSS after negotiation.
    pub fn mss(&self) -> u32 {
        self.eff_mss
    }

    /// Has the application requested close?
    pub fn fin_queued(&self) -> bool {
        self.fin_queued
    }

    /// Is our FIN currently counted as in flight?
    pub fn fin_sent(&self) -> bool {
        self.fin_sent
    }

    /// Has our FIN ever been transmitted?
    pub fn fin_sent_ever(&self) -> bool {
        self.fin_sent_ever
    }

    /// Has the peer acknowledged our FIN?
    pub fn fin_acked(&self) -> bool {
        self.fin_acked
    }

    /// Is a SYN retransmission pending?
    pub fn need_syn(&self) -> bool {
        self.need_syn
    }

    /// Is a SYN-ACK retransmission pending?
    pub fn need_synack(&self) -> bool {
        self.need_synack
    }

    /// When the active SYN went out, for the handshake RTT sample.
    pub fn syn_sent_at(&self) -> Option<Nanos> {
        self.syn_sent_at
    }

    /// TIME-WAIT expiry deadline, if armed.
    pub fn timewait_deadline(&self) -> Option<Nanos> {
        self.timewait_deadline
    }

    // ---- transitions -------------------------------------------------

    /// Begin the active open: queue the SYN and record its send time.
    ///
    /// # Panics
    /// If the endpoint was already opened.
    pub fn begin_active_open(&mut self, now: Nanos) {
        assert_eq!(self.state, TcpState::Closed, "open() on used endpoint");
        self.state = TcpState::SynSent;
        self.need_syn = true;
        self.syn_sent_at = Some(now);
    }

    /// The application closed its sending direction.
    pub fn queue_close(&mut self) {
        self.fin_queued = true;
    }

    /// An RST arrived: hard-close the connection.
    pub fn on_rst(&mut self) {
        self.state = TcpState::Closed;
    }

    /// A SYN arrived in `Listen`: record the peer's ISN and queue the
    /// SYN-ACK.
    pub fn on_listen_syn(&mut self, peer_isn: SeqNumber) {
        self.irs = peer_isn;
        self.state = TcpState::SynRcvd;
        self.need_synack = true;
    }

    /// A valid SYN-ACK arrived in `SynSent`: record the peer's ISN and
    /// establish.
    pub fn complete_active_open(&mut self, peer_isn: SeqNumber) {
        self.irs = peer_isn;
        self.state = TcpState::Established;
    }

    /// The first valid ACK completed the passive handshake.
    pub fn complete_passive_open(&mut self) {
        self.state = TcpState::Established;
        self.need_synack = false;
    }

    /// Clamp the MSS to the peer's advertised value.
    pub fn negotiate_mss(&mut self, peer_mss: u16) {
        self.eff_mss = self.eff_mss.min(u32::from(peer_mss));
    }

    /// The retransmission timer fired while our SYN was unanswered.
    pub fn retry_syn(&mut self) {
        self.need_syn = true;
    }

    /// The retransmission timer fired while our SYN-ACK was unanswered.
    pub fn retry_synack(&mut self) {
        self.need_synack = true;
    }

    /// Consume a pending SYN transmission, if one is queued.
    pub fn take_need_syn(&mut self) -> bool {
        let due = self.need_syn;
        self.need_syn = false;
        due
    }

    /// Consume a pending SYN-ACK transmission, if one is queued.
    pub fn take_need_synack(&mut self) -> bool {
        let due = self.need_synack;
        self.need_synack = false;
        due
    }

    /// Our FIN is going out (possibly riding a data segment): account for
    /// it and take the close-side state transition.
    pub fn send_fin(&mut self) {
        self.fin_sent = true;
        self.fin_sent_ever = true;
        match self.state {
            TcpState::Established => self.state = TcpState::FinWait1,
            TcpState::CloseWait => self.state = TcpState::LastAck,
            _ => {}
        }
    }

    /// A timeout rewind un-counts the in-flight FIN (it will be resent
    /// as the send pointer catches back up).
    pub fn rewind_fin(&mut self) {
        self.fin_sent = false;
    }

    /// The peer's ACK covers our FIN.
    pub fn note_fin_acked(&mut self) {
        self.fin_acked = true;
        self.fin_sent = true;
    }

    /// Take the teardown transition driven by our-FIN acknowledgement.
    /// Returns `true` when the retransmission deadline must be cleared
    /// (the connection reached TIME-WAIT or fully closed).
    pub fn on_fin_acked_transition(&mut self, now: Nanos, timewait: Nanos) -> bool {
        match self.state {
            TcpState::FinWait1 => {
                self.state = TcpState::FinWait2;
                false
            }
            TcpState::Closing => {
                self.state = TcpState::TimeWait;
                self.timewait_deadline = Some(now + timewait);
                true
            }
            TcpState::LastAck => {
                self.state = TcpState::Closed;
                true
            }
            _ => false,
        }
    }

    /// The peer's FIN was consumed in order: take the receive-side
    /// teardown transition. Returns `true` when the retransmission
    /// deadline must be cleared (the connection reached TIME-WAIT).
    pub fn on_fin_consumed(&mut self, now: Nanos, timewait: Nanos) -> bool {
        match self.state {
            TcpState::Established => {
                self.state = TcpState::CloseWait;
                false
            }
            TcpState::FinWait2 => {
                self.state = TcpState::TimeWait;
                self.timewait_deadline = Some(now + timewait);
                true
            }
            TcpState::FinWait1 => {
                if self.fin_acked {
                    self.state = TcpState::TimeWait;
                    self.timewait_deadline = Some(now + timewait);
                    true
                } else {
                    // Simultaneous close: our FIN (and possibly data)
                    // still needs acknowledgement — keep the
                    // retransmission machinery alive.
                    self.state = TcpState::Closing;
                    false
                }
            }
            _ => false,
        }
    }

    /// Expire TIME-WAIT if its deadline has passed.
    pub fn fire_timewait(&mut self, now: Nanos) {
        if let Some(t) = self.timewait_deadline {
            if now >= t {
                self.timewait_deadline = None;
                self.state = TcpState::Closed;
            }
        }
    }
}
