//! Receive-side state: in-order delivery, out-of-order reassembly, the
//! peer-FIN offset and the delayed-ACK machinery.
//!
//! Every mutation of `rcv_nxt`, the out-of-order range set and the
//! ACK-scheduling state lives in this file. The simulated application
//! drains in-order data instantly, so "delivered" and "in-order
//! received" coincide. The fields are private, so the compiler rejects
//! a write from anywhere else:
//!
//! ```compile_fail,E0616
//! fn f(r: &mut acdc_tcp::receive::Receive) { r.rcv_nxt = 0; }
//! ```
//!
//! ```
//! fn f(r: &mut acdc_tcp::receive::Receive) { r.rcv_nxt(); }
//! ```
//!
//! [`Endpoint`]: crate::Endpoint

use acdc_stats::time::Nanos;

/// Receive-side state for one endpoint.
///
/// Out-of-order data is tracked as half-open stream ranges
/// `(start, end)`, kept sorted and disjoint; the invariant is upheld by
/// the merge in [`Receive::accept`] and checked by the component
/// property tests.
#[derive(Debug)]
pub struct Receive {
    /// Next expected in-order stream offset.
    rcv_nxt: u64,
    /// Out-of-order received ranges `(start, end)`, sorted, disjoint.
    ooo: Vec<(u64, u64)>,
    /// Peer FIN offset, once seen.
    fin_rcvd: Option<u64>,
    /// Segments received since the last ACK we sent.
    unacked_segs: u32,
    delack_deadline: Option<Nanos>,
    ack_now: bool,
}

impl Receive {
    /// Fresh receive-side state.
    pub fn new() -> Receive {
        Receive {
            rcv_nxt: 0,
            ooo: Vec::new(),
            fin_rcvd: None,
            unacked_segs: 0,
            delack_deadline: None,
            ack_now: false,
        }
    }

    // ---- views -------------------------------------------------------

    /// Total in-order stream bytes received (delivered to the app).
    pub fn rcv_nxt(&self) -> u64 {
        self.rcv_nxt
    }

    /// The buffered out-of-order ranges (sorted, disjoint).
    pub fn ooo_ranges(&self) -> &[(u64, u64)] {
        &self.ooo
    }

    /// The peer's FIN offset, once seen.
    pub fn fin_rcvd(&self) -> Option<u64> {
        self.fin_rcvd
    }

    /// Is an immediate ACK scheduled?
    pub fn ack_now(&self) -> bool {
        self.ack_now
    }

    /// Armed delayed-ACK deadline, if any.
    pub fn delack_deadline(&self) -> Option<Nanos> {
        self.delack_deadline
    }

    /// Has the peer's FIN been consumed in order?
    pub fn fin_in_order(&self) -> bool {
        matches!(self.fin_rcvd, Some(f) if self.rcv_nxt >= f)
    }

    // ---- input -------------------------------------------------------

    /// Schedule an immediate ACK.
    pub fn force_ack(&mut self) {
        self.ack_now = true;
    }

    /// Record the peer's FIN offset (first sighting wins).
    pub fn note_fin(&mut self, fin_off: u64) {
        if self.fin_rcvd.is_none() {
            self.fin_rcvd = Some(fin_off);
        }
    }

    /// Accept an arriving data span `[start, start + len)` (stream
    /// offsets; `start` may be negative for data below the window after
    /// unwrapping). In-order data advances `rcv_nxt` and drains any
    /// newly contiguous out-of-order ranges under delayed-ACK pacing;
    /// out-of-order data is buffered and acknowledged immediately
    /// (duplicate-ACK fuel for the sender); fully duplicate data is
    /// re-acknowledged immediately.
    pub fn accept(
        &mut self,
        start: i64,
        len: u64,
        now: Nanos,
        delack_segs: u32,
        delack_timeout: Nanos,
    ) {
        let end = start + len as i64;
        if end <= self.rcv_nxt as i64 {
            // Entirely duplicate data → ACK right away (dupack fuel).
            self.ack_now = true;
            return;
        }
        let s = start.max(self.rcv_nxt as i64) as u64;
        let e = end as u64;
        if start as u64 <= self.rcv_nxt && e > self.rcv_nxt {
            // In-order (possibly overlapping) data.
            self.rcv_nxt = e;
            self.drain_ooo();
            self.unacked_segs += 1;
            if self.unacked_segs >= delack_segs {
                self.ack_now = true;
            } else if self.delack_deadline.is_none() {
                self.delack_deadline = Some(now + delack_timeout);
            }
        } else {
            // Out of order: buffer the range, ACK immediately.
            self.insert_ooo(s, e);
            self.ack_now = true;
        }
    }

    fn insert_ooo(&mut self, s: u64, e: u64) {
        if s >= e {
            return;
        }
        self.ooo.push((s, e));
        self.ooo.sort_unstable();
        // Merge overlapping/adjacent ranges.
        let mut merged: Vec<(u64, u64)> = Vec::with_capacity(self.ooo.len());
        for &(s, e) in &self.ooo {
            if let Some(last) = merged.last_mut() {
                if s <= last.1 {
                    last.1 = last.1.max(e);
                    continue;
                }
            }
            merged.push((s, e));
        }
        self.ooo = merged;
    }

    fn drain_ooo(&mut self) {
        while let Some(&(s, e)) = self.ooo.first() {
            if s <= self.rcv_nxt {
                self.rcv_nxt = self.rcv_nxt.max(e);
                self.ooo.remove(0);
            } else {
                break;
            }
        }
    }

    // ---- ACK scheduling ---------------------------------------------

    /// The delayed-ACK timer fired: if segments are still unacknowledged,
    /// promote to an immediate ACK.
    pub fn fire_delack(&mut self, now: Nanos) {
        if let Some(t) = self.delack_deadline {
            if now >= t {
                self.delack_deadline = None;
                if self.unacked_segs > 0 {
                    self.ack_now = true;
                }
            }
        }
    }

    /// An acknowledgement is going out: clear the pending-ACK state.
    pub fn clear_ack_state(&mut self) {
        self.ack_now = false;
        self.unacked_segs = 0;
        self.delack_deadline = None;
    }
}

impl Default for Receive {
    fn default() -> Receive {
        Receive::new()
    }
}
