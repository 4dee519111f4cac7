//! Criterion micro-bench: cache-layer primitives (get / set / gets+cas /
//! codec round-trip) across cluster sizes, and trigger-style list edits
//! (append a row, remove a row by pk) made in place on the encoded list
//! versus decode → edit → encode.
//!
//! ```text
//! cargo bench -p genie-bench --bench cache_ops
//! ```

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use genie_cache::{CacheCluster, CacheOrigin, ClusterConfig, EncodedList, Payload};
use genie_storage::{row, Row, Value};
use std::hint::black_box;

fn bench_cache(c: &mut Criterion) {
    let payload = Payload::Rows(vec![
        row![1i64, "user1", "some bio text", 123i64],
        row![2i64, "user2", "another bio", 456i64],
    ]);

    let mut group = c.benchmark_group("cache_ops");
    for servers in [1usize, 4] {
        let cluster = CacheCluster::new(ClusterConfig {
            servers,
            ..Default::default()
        });
        let h = cluster.handle(CacheOrigin::Application);
        for i in 0..1000 {
            h.set_payload(&format!("k{i}"), &payload, None).unwrap();
        }
        group.bench_with_input(BenchmarkId::new("get", servers), &servers, |b, _| {
            let mut i = 0usize;
            b.iter(|| {
                i = (i + 13) % 1000;
                black_box(h.get(&format!("k{i}")).is_some())
            })
        });
        group.bench_with_input(BenchmarkId::new("set", servers), &servers, |b, _| {
            let mut i = 0usize;
            b.iter(|| {
                i = (i + 13) % 1000;
                h.set_payload(&format!("k{i}"), &payload, None).unwrap();
            })
        });
        group.bench_with_input(BenchmarkId::new("gets_cas", servers), &servers, |b, _| {
            let mut i = 0usize;
            b.iter(|| {
                i = (i + 13) % 1000;
                let key = format!("k{i}");
                let (p, token) = h.gets_payload(&key).unwrap().unwrap();
                h.cas_payload(&key, &p, token, None).unwrap();
            })
        });
    }
    group.bench_function("codec_roundtrip", |b| {
        b.iter(|| {
            let enc = payload.encode();
            black_box(Payload::decode(&enc).unwrap())
        })
    });
    group.finish();
}

/// A joined bookmark row (instance ++ bookmark), shaped like the social
/// app's `user_bookmarks` entries.
fn bookmark_row(id: i64) -> Row {
    row![
        id,
        id % 97,
        1i64,
        "saved",
        Value::Timestamp(1_700_000_000 + id),
        id % 97,
        format!("http://bookmark.example/{}", id % 97),
        format!("about http://bookmark.example/{}", id % 97),
        Value::Timestamp(1_600_000_000 + id)
    ]
}

fn bench_codec_edit(c: &mut Criterion) {
    let mut group = c.benchmark_group("codec_edit");
    let new = bookmark_row(1_000_000);
    for n in [10i64, 329, 2_000] {
        let rows: Vec<Row> = (1..=n).map(bookmark_row).collect();
        let data = Payload::Rows(rows).encode();
        let pk = Value::Int(n / 2);
        group.bench_with_input(BenchmarkId::new("append/editor", n), &n, |b, _| {
            b.iter(|| {
                let list = EncodedList::parse(data.clone()).unwrap().unwrap();
                black_box(list.append(std::slice::from_ref(&new)).data)
            })
        });
        group.bench_with_input(BenchmarkId::new("append/decode_encode", n), &n, |b, _| {
            b.iter(|| {
                let Payload::Rows(mut rows) = Payload::decode(&data).unwrap() else {
                    unreachable!()
                };
                rows.push(new.clone());
                black_box(Payload::Rows(rows).encode())
            })
        });
        group.bench_with_input(BenchmarkId::new("remove_pk/editor", n), &n, |b, _| {
            b.iter(|| {
                let list = EncodedList::parse(data.clone()).unwrap().unwrap();
                black_box(list.remove_pk(&pk).unwrap().unwrap().data)
            })
        });
        group.bench_with_input(
            BenchmarkId::new("remove_pk/decode_encode", n),
            &n,
            |b, _| {
                b.iter(|| {
                    let Payload::Rows(mut rows) = Payload::decode(&data).unwrap() else {
                        unreachable!()
                    };
                    rows.retain(|r| *r.get(0) != pk);
                    black_box(Payload::Rows(rows).encode())
                })
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_cache, bench_codec_edit);
criterion_main!(benches);
