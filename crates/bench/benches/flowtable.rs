//! Criterion benches of the connection-tracking flow table: lookup and
//! insert cost at the paper's scales (10 000s of flows per server [46]),
//! through the sharded table's closure accessors.

use acdc_cc::{CcConfig, CcKind};
use acdc_packet::FlowKey;
use acdc_vswitch::{FlowEntry, FlowTable};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

fn key(i: u32) -> FlowKey {
    FlowKey {
        src_ip: [10, (i >> 16) as u8, (i >> 8) as u8, i as u8],
        dst_ip: [10, 99, 0, 1],
        src_port: 40_000u16.wrapping_add(i as u16),
        dst_port: 5_001,
    }
}

fn entry() -> FlowEntry {
    FlowEntry::new(CcKind::Dctcp, CcConfig::vswitch(1448), 0)
}

fn flowtable(c: &mut Criterion) {
    let mut group = c.benchmark_group("flowtable");
    for n in [100u32, 10_000, 100_000] {
        let table = FlowTable::new();
        for i in 0..n {
            table.with_entry_or_create(key(i), entry, |_| ());
        }
        let mut i = 0u32;
        group.bench_with_input(BenchmarkId::new("lookup_hit", n), &n, |b, &n| {
            b.iter(|| {
                i = (i + 1) % n;
                std::hint::black_box(table.with_entry(&key(i), |_| ()).is_some())
            })
        });
        group.bench_with_input(BenchmarkId::new("lookup_miss", n), &n, |b, &n| {
            b.iter(|| {
                i = (i + 1) % n;
                std::hint::black_box(table.with_entry(&key(i + 10_000_000), |_| ()).is_none())
            })
        });
        group.bench_with_input(BenchmarkId::new("lookup_and_lock", n), &n, |b, &n| {
            b.iter(|| {
                i = (i + 1) % n;
                std::hint::black_box(table.with_entry(&key(i), |e| e.dupacks()).unwrap())
            })
        });
    }

    group.bench_function("insert_remove", |b| {
        let table = FlowTable::new();
        let mut i = 0u32;
        b.iter(|| {
            i = i.wrapping_add(1);
            let k = key(i);
            table.with_entry_or_create(k, entry, |_| ());
            table.remove(&k);
        })
    });

    group.finish();
}

criterion_group!(benches, flowtable);
criterion_main!(benches);
