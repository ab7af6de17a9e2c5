//! ECN signalling state: negotiation, the DCTCP accurate-echo /
//! classic-ECE receiver state, and the sender-side CWR/cut bookkeeping.
//!
//! Every mutation of the ECN echo and cut state lives in this file. The
//! congestion-control *reaction* to these signals stays in the pluggable
//! `acdc-cc` box; this component only tracks what must be echoed or
//! signalled on the wire. The fields are private, so the compiler
//! rejects a write from anywhere else:
//!
//! ```compile_fail,E0616
//! fn f(s: &mut acdc_tcp::ecn::EcnSignal) { s.ece_latch = true; }
//! ```
//!
//! ```
//! fn f(s: &mut acdc_tcp::ecn::EcnSignal) { s.ece_latch(); }
//! ```
//!
//! [`Endpoint`]: crate::Endpoint

use acdc_stats::time::Nanos;

/// ECN echo and signalling state for one endpoint.
#[derive(Debug)]
pub struct EcnSignal {
    /// ECN negotiated on this connection.
    ecn_ok: bool,
    /// DCTCP-style accurate echo state.
    ce_state: bool,
    /// Classic ECE latch.
    ece_latch: bool,
    /// Classic-ECN: a cut is pending CWR signalling on the next data.
    cwr_pending: bool,
    last_ecn_cut: Option<Nanos>,
}

impl EcnSignal {
    /// Fresh (un-negotiated) ECN state.
    pub fn new() -> EcnSignal {
        EcnSignal {
            ecn_ok: false,
            ce_state: false,
            ece_latch: false,
            cwr_pending: false,
            last_ecn_cut: None,
        }
    }

    // ---- views -------------------------------------------------------

    /// Was ECN negotiated on this connection?
    pub fn ecn_ok(&self) -> bool {
        self.ecn_ok
    }

    /// The DCTCP accurate-echo state (last CE codepoint seen).
    pub fn ce_state(&self) -> bool {
        self.ce_state
    }

    /// The classic ECE latch (set until CWR is seen).
    pub fn ece_latch(&self) -> bool {
        self.ece_latch
    }

    /// Should an outgoing segment carry ECE?
    pub fn echo_ece(&self, dctcp: bool) -> bool {
        if !self.ecn_ok {
            return false;
        }
        if dctcp {
            self.ce_state
        } else {
            self.ece_latch
        }
    }

    // ---- negotiation -------------------------------------------------

    /// Record the handshake's ECN negotiation outcome.
    pub fn negotiate(&mut self, ok: bool) {
        self.ecn_ok = ok;
    }

    // ---- receiver echo -----------------------------------------------

    /// Process the ECN bits of an arriving data segment. Returns `true`
    /// when an immediate ACK must be forced (DCTCP receiver: a CE state
    /// change keeps the echo stream byte-accurate). No-op when ECN was
    /// not negotiated.
    pub fn on_data_ecn(&mut self, ce: bool, dctcp: bool, cwr: bool) -> bool {
        if !self.ecn_ok {
            return false;
        }
        let mut force_ack = false;
        if dctcp {
            if ce != self.ce_state {
                force_ack = true;
                self.ce_state = ce;
            }
        } else if ce {
            self.ece_latch = true;
        }
        if cwr {
            self.ece_latch = false;
        }
        force_ack
    }

    // ---- sender cuts -------------------------------------------------

    /// Classic ECN: may the sender cut again, at most once per RTT? The
    /// RTT estimate falls back to `fallback` until sampled.
    pub fn can_cut(&self, now: Nanos, srtt: Option<Nanos>, fallback: Nanos) -> bool {
        match self.last_ecn_cut {
            None => true,
            Some(t) => now.saturating_sub(t) >= srtt.unwrap_or(fallback),
        }
    }

    /// Record a classic-ECN window cut and schedule CWR signalling on
    /// the next outgoing data.
    pub fn note_cut(&mut self, now: Nanos) {
        self.last_ecn_cut = Some(now);
        self.cwr_pending = true;
    }

    /// Consume the pending CWR signal, if one is scheduled. Call only
    /// when the outgoing segment carries data (CWR rides data segments).
    pub fn take_cwr(&mut self) -> bool {
        let due = self.cwr_pending;
        self.cwr_pending = false;
        due
    }
}

impl Default for EcnSignal {
    fn default() -> EcnSignal {
        EcnSignal::new()
    }
}
