pub fn sidestep_admission(table: &FlowTable, key: FlowKey) {
    let (_seen, _adm) = table.with_entry_or_create(key, make_entry, |_| ());
}
