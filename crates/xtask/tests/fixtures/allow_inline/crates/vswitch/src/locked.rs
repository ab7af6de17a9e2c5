//! A table re-entry inside a table closure (W002), suppressed by the
//! inline directive on its line.

use crate::table::FlowTable;

pub fn mirror_closing(table: &FlowTable, key: &FlowKey) {
    table.with_entry(key, |e| {
        // acdc-lint: allow(W002) -- fixture: the two keys never share a shard
        table.with_entry(&key.reverse(), |r| r.mark_closing());
    });
}
