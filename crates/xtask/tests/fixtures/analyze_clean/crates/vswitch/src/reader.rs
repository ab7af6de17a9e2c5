//! Reading claimed state (and sequential, one-at-a-time table closures)
//! is fine anywhere; only writes cross the component boundary.

use crate::rwnd::Rewriter;
use crate::table::FlowTable;

pub fn observe(r: &Rewriter, table: &FlowTable, a: &FlowKey, b: &FlowKey) -> bool {
    let closing = table.with_entry(a, |e| e.closing);
    let _ = table.with_entry(b, |e| e.closing);
    r.is_learned() && closing.is_some()
}
