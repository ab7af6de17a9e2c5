//! Table re-entry from inside a table closure: the inner `with_entry`
//! runs while the outer closure still holds its shard lock, which
//! self-deadlocks whenever both keys share a shard. It is the single
//! W002 finding.

use crate::table::FlowTable;

pub fn mirror_closing(table: &FlowTable, key: &FlowKey) {
    table.with_entry(key, |e| {
        table.with_entry(&key.reverse(), |r| r.closing = e.closing);
    });
}
