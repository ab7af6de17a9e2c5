//! Sequential, one-at-a-time table closures: each shard lock is released
//! before the next closure takes one, so W002 stays quiet.

use crate::table::FlowTable;

pub fn observe(table: &FlowTable, a: &FlowKey, b: &FlowKey) -> bool {
    let closing = table.with_entry(a, |e| e.closing());
    let _ = table.with_entry(b, |e| e.closing());
    closing.is_some()
}
