//! Property-based tests for the cache crate.

use bytes::Bytes;
use genie_cache::{
    CacheCluster, CacheError, CacheOrigin, CacheStore, ClusterConfig, Edited, EncodedList, Payload,
    StoreConfig,
};
use genie_storage::{Row, Value};
use proptest::prelude::*;
use std::cmp::Ordering;

fn value_strategy() -> impl Strategy<Value = Value> {
    prop_oneof![
        Just(Value::Null),
        any::<i64>().prop_map(Value::Int),
        any::<f64>().prop_map(Value::Float),
        "[a-zA-Z0-9 '%_]{0,24}".prop_map(Value::Text),
        any::<bool>().prop_map(Value::Bool),
        any::<i64>().prop_map(Value::Timestamp),
    ]
}

fn row_strategy() -> impl Strategy<Value = Row> {
    prop::collection::vec(value_strategy(), 0..8).prop_map(Row::new)
}

fn payload_strategy() -> impl Strategy<Value = Payload> {
    prop_oneof![
        prop::collection::vec(row_strategy(), 0..10).prop_map(Payload::Rows),
        any::<i64>().prop_map(Payload::Count),
        prop::collection::vec(any::<u8>(), 0..64).prop_map(Payload::Raw),
        (prop::collection::vec(row_strategy(), 0..10), any::<bool>())
            .prop_map(|(rows, complete)| Payload::TopK { rows, complete }),
    ]
}

/// Values for edited lists: few distinct ones so comparisons hit,
/// multi-byte UTF-8 text, and the floats whose bytes and `Value`
/// equality disagree or stand out (`-0.0`, NaN, `2.0` equal to `Int(2)`).
fn list_value_strategy() -> impl Strategy<Value = Value> {
    prop_oneof![
        Just(Value::Null),
        (-2i64..4).prop_map(Value::Int),
        prop::sample::select(vec![0.0, -0.0, 2.0, -1.5, f64::NAN]).prop_map(Value::Float),
        "[aé日€ ]{0,5}".prop_map(Value::Text),
        any::<bool>().prop_map(Value::Bool),
        (0i64..3).prop_map(Value::Timestamp),
    ]
}

fn list_row_strategy() -> impl Strategy<Value = Row> {
    prop::collection::vec(list_value_strategy(), 0..5).prop_map(Row::new)
}

/// A `Rows` (flag `None`) or `TopK` (flag `Some(complete)`) list.
fn list_strategy() -> impl Strategy<Value = (Vec<Row>, Option<bool>)> {
    (
        prop::collection::vec(list_row_strategy(), 0..8),
        proptest::option::of(any::<bool>()),
    )
}

/// One editor operation. Keys and slices are either drawn from a cached
/// row (`pick`) or random.
#[derive(Debug, Clone)]
enum EditOp {
    Append(Vec<Row>),
    RemovePk(Value),
    UpsertPk(Row),
    RemoveSlice(usize, Vec<Value>),
    ReplaceSlice(usize, Vec<Value>, Vec<Value>),
    TopKInsert {
        row: Row,
        rank_col: usize,
        descending: bool,
        capacity: usize,
        replacing: Option<Value>,
    },
}

fn edit_op_strategy() -> impl Strategy<Value = (EditOp, Option<prop::sample::Index>)> {
    let op = prop_oneof![
        prop::collection::vec(list_row_strategy(), 0..3).prop_map(EditOp::Append),
        list_value_strategy().prop_map(EditOp::RemovePk),
        list_row_strategy().prop_map(EditOp::UpsertPk),
        (
            0usize..4,
            prop::collection::vec(list_value_strategy(), 0..3)
        )
            .prop_map(|(from, vals)| EditOp::RemoveSlice(from, vals)),
        (
            0usize..4,
            prop::collection::vec(list_value_strategy(), 0..3),
            prop::collection::vec(list_value_strategy(), 0..3),
        )
            .prop_map(|(from, old, new)| EditOp::ReplaceSlice(from, old, new)),
        (
            list_row_strategy(),
            0usize..4,
            any::<bool>(),
            1usize..9,
            proptest::option::of(list_value_strategy()),
        )
            .prop_map(|(row, rank_col, descending, capacity, replacing)| {
                EditOp::TopKInsert {
                    row,
                    rank_col,
                    descending,
                    capacity,
                    replacing,
                }
            }),
    ];
    (op, proptest::option::of(any::<prop::sample::Index>()))
}

/// Points the op's key or slice at the cached row `pick` selects, so most
/// removals and replacements hit. Half the time the key is that row's
/// values in their other numeric type (`Int(2)` for `Float(2.0)` and
/// back): equal as `Value`s, different as bytes.
fn aim(op: EditOp, rows: &[Row], pick: Option<prop::sample::Index>) -> EditOp {
    let Some(k) = pick
        .filter(|_| !rows.is_empty())
        .map(|i| i.index(2 * rows.len()))
    else {
        return op;
    };
    let (target, twin) = (&rows[k / 2], k % 2 == 1);
    let key = |v: &Value| match v {
        Value::Int(x) if twin => Value::Float(*x as f64),
        Value::Float(f) if twin && f.fract() == 0.0 => Value::Int(*f as i64),
        v => v.clone(),
    };
    let pk = key(target.get(0));
    let tail = |from: usize| {
        target
            .values()
            .get(from..)
            .unwrap_or_default()
            .iter()
            .map(key)
            .collect()
    };
    match op {
        EditOp::RemovePk(_) => EditOp::RemovePk(pk),
        EditOp::UpsertPk(row) => {
            let mut vals = row.into_values();
            vals.insert(0, pk);
            EditOp::UpsertPk(Row::new(vals))
        }
        EditOp::RemoveSlice(from, _) => EditOp::RemoveSlice(from, tail(from)),
        EditOp::ReplaceSlice(from, _, new) => EditOp::ReplaceSlice(from, tail(from), new),
        EditOp::TopKInsert {
            row,
            rank_col,
            descending,
            capacity,
            replacing: Some(_),
        } => EditOp::TopKInsert {
            row,
            rank_col,
            descending,
            capacity,
            replacing: Some(pk),
        },
        other => other,
    }
}

fn rank_ahead(new: &Value, cached: &Value, descending: bool) -> bool {
    let ord = new.cmp(cached);
    (if descending { ord.reverse() } else { ord }) == Ordering::Less
}

/// The editor under test.
fn edit_encoded(data: Bytes, op: &EditOp) -> genie_cache::Result<Option<Edited>> {
    let list = EncodedList::parse(data)?.expect("a list payload");
    match op {
        EditOp::Append(rows) => Ok(Some(list.append(rows))),
        EditOp::RemovePk(pk) => list.remove_pk(pk),
        EditOp::UpsertPk(row) => list.upsert_pk(row).map(Some),
        EditOp::RemoveSlice(from, vals) => list.remove_slice(*from, vals),
        EditOp::ReplaceSlice(from, old, new) => list.replace_slice(*from, old, new),
        EditOp::TopKInsert {
            row,
            rank_col,
            descending,
            capacity,
            replacing,
        } => {
            let rank = row.get(*rank_col);
            let ahead = |cached: &Value| rank_ahead(rank, cached, *descending);
            list.top_k_insert(row, *rank_col, ahead, *capacity, replacing.as_ref())
        }
    }
}

/// The oracle: the same edit on decoded rows. `None` when the edit
/// leaves the list alone.
fn edit_decoded(
    mut rows: Vec<Row>,
    complete: Option<bool>,
    op: &EditOp,
) -> Option<(Vec<Row>, Option<bool>)> {
    let slice_is = |r: &Row, from: usize, vals: &[Value]| r.values().get(from..) == Some(vals);
    match op {
        EditOp::Append(new) => rows.extend(new.iter().cloned()),
        EditOp::RemovePk(pk) => {
            let before = rows.len();
            rows.retain(|r| r.get(0) != pk);
            if rows.len() == before {
                return None;
            }
        }
        EditOp::UpsertPk(row) => match rows.iter_mut().find(|r| r.get(0) == row.get(0)) {
            Some(slot) => *slot = row.clone(),
            None => rows.push(row.clone()),
        },
        EditOp::RemoveSlice(from, vals) => {
            let before = rows.len();
            rows.retain(|r| !slice_is(r, *from, vals));
            if rows.len() == before {
                return None;
            }
        }
        EditOp::ReplaceSlice(from, old, new) => {
            let mut touched = false;
            for r in &mut rows {
                if slice_is(r, *from, old) {
                    let mut vals = r.values()[..*from].to_vec();
                    vals.extend(new.iter().cloned());
                    *r = Row::new(vals);
                    touched = true;
                }
            }
            if !touched {
                return None;
            }
        }
        EditOp::TopKInsert {
            row,
            rank_col,
            descending,
            capacity,
            replacing,
        } => {
            if let Some(pk) = replacing {
                rows.retain(|r| r.get(0) != pk);
            }
            let rank = row.get(*rank_col);
            let pos = rows
                .iter()
                .position(|r| rank_ahead(rank, r.get(*rank_col), *descending))
                .unwrap_or(rows.len());
            let mut flag = complete.unwrap_or(false);
            if pos == rows.len() && !flag {
                return None;
            }
            rows.insert(pos, row.clone());
            if rows.len() > *capacity {
                rows.truncate(*capacity);
                flag = false;
            }
            return Some((rows, complete.map(|_| flag)));
        }
    }
    Some((rows, complete))
}

fn list_payload(rows: Vec<Row>, complete: Option<bool>) -> Payload {
    match complete {
        None => Payload::Rows(rows),
        Some(complete) => Payload::TopK { rows, complete },
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// encode → decode is the identity for every payload. (Float NaN
    /// compares equal under the storage ordering `Row` uses.)
    #[test]
    fn codec_roundtrip(p in payload_strategy()) {
        let enc = p.encode();
        let dec = Payload::decode(&enc).unwrap();
        prop_assert_eq!(dec, p);
    }

    /// Single-bit corruption anywhere in the buffer is always detected.
    #[test]
    fn codec_detects_bitflips(p in payload_strategy(), byte in any::<prop::sample::Index>(), bit in 0u8..8) {
        let mut enc = p.encode().to_vec();
        let idx = byte.index(enc.len());
        enc[idx] ^= 1 << bit;
        match Payload::decode(&enc) {
            Err(_) => {}
            // A flip in padding-free formats must change the decoded value
            // OR be caught; if it decodes, it must not silently equal the
            // original (checksum would have caught identity flips).
            Ok(dec) => prop_assert_ne!(dec, p),
        }
    }

    /// Every editor operation writes exactly the bytes `encode` gives for
    /// decode → the same edit on `Vec<Row>`, and reports the same row
    /// count; an edit that matches nothing is reported as such.
    #[test]
    fn list_edits_match_decode_edit_encode(list in list_strategy(), op in edit_op_strategy()) {
        let ((rows, complete), (op, pick)) = (list, op);
        let op = aim(op, &rows, pick);
        let data = list_payload(rows.clone(), complete).encode();
        let got = edit_encoded(data, &op).unwrap();
        let want = edit_decoded(rows, complete, &op);
        match (got, want) {
            (Some(got), Some((rows, complete))) => {
                prop_assert_eq!(got.len, rows.len());
                prop_assert_eq!(got.data, list_payload(rows, complete).encode());
            }
            (None, None) => {}
            (got, want) => prop_assert!(false, "{:?}: editor {:?}, oracle {:?}", op, got, want),
        }
    }

    /// A single corrupted byte (under each mask of the decode test) fails
    /// every operation with a codec error: no edit re-seals corruption.
    #[test]
    fn list_edits_reject_every_corrupted_byte(
        list in list_strategy(),
        op in edit_op_strategy(),
        byte in any::<prop::sample::Index>(),
    ) {
        let ((rows, complete), (op, pick)) = (list, op);
        let op = aim(op, &rows, pick);
        let enc = list_payload(rows, complete).encode().to_vec();
        let i = byte.index(enc.len());
        for mask in [0x01u8, 0x80, 0xFF] {
            let mut bad = enc.clone();
            bad[i] ^= mask;
            let got = edit_encoded(Bytes::from(bad), &op);
            prop_assert!(matches!(got, Err(CacheError::Codec(_))), "byte {} ^ {:#x}: {:?}", i, mask, got);
        }
    }

    /// The LRU store never exceeds its configured byte budget, whatever
    /// the operation mix.
    #[test]
    fn store_memory_bound_holds(
        ops in prop::collection::vec(
            ("[a-d]{1,3}", 0usize..200, any::<bool>()),
            1..150,
        )
    ) {
        let mut s = CacheStore::new(StoreConfig {
            capacity_bytes: 700,
            item_limit_bytes: 400,
            ..Default::default()
        });
        for (key, size, del) in &ops {
            if *del {
                s.delete(key);
            } else {
                let _ = s.set(key, Bytes::from(vec![0u8; *size]), None, 0);
            }
            prop_assert!(s.bytes_used() <= 700, "{} > 700", s.bytes_used());
        }
    }

    /// A cluster behaves exactly like one big hash map for get/set/delete:
    /// sharding must never change observable contents.
    #[test]
    fn cluster_matches_reference_map(
        servers in 1usize..6,
        ops in prop::collection::vec(("[a-z]{1,4}", any::<i64>(), any::<bool>()), 1..120),
    ) {
        use std::collections::HashMap;
        let cluster = CacheCluster::new(ClusterConfig {
            servers,
            capacity_bytes: 16 * 1024 * 1024, // ample: no evictions
            ..Default::default()
        });
        let h = cluster.handle(CacheOrigin::Application);
        let mut reference: HashMap<String, i64> = HashMap::new();
        for (key, val, del) in &ops {
            if *del {
                h.delete(key);
                reference.remove(key);
            } else {
                h.set_payload(key, &Payload::Count(*val), None).unwrap();
                reference.insert(key.clone(), *val);
            }
        }
        for (key, expect) in &reference {
            let got = h.get_payload(key).unwrap().and_then(|p| p.as_count());
            prop_assert_eq!(got, Some(*expect), "key {}", key);
        }
        prop_assert_eq!(cluster.stats().items, reference.len());
    }

    /// CAS loops converge: concurrent-style interleaved read-modify-write
    /// retried on conflict never loses increments.
    #[test]
    fn cas_retry_preserves_all_increments(n in 1usize..60) {
        let cluster = CacheCluster::new(ClusterConfig::default());
        let h = cluster.handle(CacheOrigin::Application);
        h.set_payload("ctr", &Payload::Count(0), None).unwrap();
        for i in 0..n {
            // Simulate a stale-token retry every third increment.
            let (p, token) = h.gets_payload("ctr").unwrap().unwrap();
            let v = p.as_count().unwrap();
            if i % 3 == 0 {
                // Interfering writer bumps the value (and the CAS token).
                h.set_payload("ctr", &Payload::Count(v), None).unwrap();
                // Our stale CAS must fail...
                prop_assert!(h.cas_payload("ctr", &Payload::Count(v + 1), token, None).is_err());
                // ...and the retry with a fresh token must succeed.
                let (p2, t2) = h.gets_payload("ctr").unwrap().unwrap();
                h.cas_payload("ctr", &Payload::Count(p2.as_count().unwrap() + 1), t2, None)
                    .unwrap();
            } else {
                h.cas_payload("ctr", &Payload::Count(v + 1), token, None).unwrap();
            }
        }
        let final_v = h.get_payload("ctr").unwrap().unwrap().as_count().unwrap();
        prop_assert_eq!(final_v, n as i64);
    }
}
