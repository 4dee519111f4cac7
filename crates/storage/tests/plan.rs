//! Planner behaviour tests: which access path gets chosen, what it costs,
//! and that every path returns exactly what a full scan would.

use genie_storage::plan::{AccessPath, Bound};
use genie_storage::{ColumnDef, Database, Expr, IndexDef, Select, TableSchema, Value, ValueType};
use std::collections::BTreeSet;

/// A wall-like table: pk `post_id`, FK `user_id`, timestamp `date_posted`,
/// composite index (user_id, date_posted) plus a single-column status
/// index.
fn wall_db(rows: i64) -> Database {
    let db = Database::default();
    db.create_table(
        TableSchema::builder("wall")
            .pk("post_id")
            .column(ColumnDef::new("user_id", ValueType::Int).not_null())
            .column(ColumnDef::new("date_posted", ValueType::Timestamp).not_null())
            .column(ColumnDef::new("status", ValueType::Int).not_null())
            .build()
            .unwrap(),
    )
    .unwrap();
    db.create_index(
        "wall",
        IndexDef {
            name: "wall_user_date".into(),
            columns: vec!["user_id".into(), "date_posted".into()],
            unique: false,
        },
    )
    .unwrap();
    db.create_index(
        "wall",
        IndexDef {
            name: "wall_status".into(),
            columns: vec!["status".into()],
            unique: false,
        },
    )
    .unwrap();
    for i in 0..rows {
        db.execute_sql(
            "INSERT INTO wall VALUES ($1, $2, $3, $4)",
            &[
                Value::Int(i),
                Value::Int(i % 10),
                Value::Timestamp(1000 + i),
                Value::Int(i % 3),
            ],
        )
        .unwrap();
    }
    db
}

fn explain(db: &Database, sql: &str, params: &[Value]) -> genie_storage::QueryPlan {
    db.explain_sql(sql, params).unwrap()
}

#[test]
fn equality_on_pk_uses_pk_probe() {
    let db = wall_db(100);
    let plan = explain(&db, "SELECT * FROM wall WHERE post_id = 7", &[]);
    assert_eq!(plan.base.path, AccessPath::PkEq { key: Value::Int(7) });
}

#[test]
fn reversed_equality_extracts_too() {
    let db = wall_db(100);
    // `7 = post_id` must plan identically to `post_id = 7`.
    let plan = explain(&db, "SELECT * FROM wall WHERE 7 = post_id", &[]);
    assert_eq!(plan.base.path, AccessPath::PkEq { key: Value::Int(7) });
    let plan = explain(&db, "SELECT * FROM wall WHERE 3 > post_id", &[]);
    assert_eq!(
        plan.base.path,
        AccessPath::PkRange {
            from: Bound::Unbounded,
            to: Bound::Excluded(Value::Int(3)),
        }
    );
}

#[test]
fn and_conjuncts_build_composite_index_key() {
    let db = wall_db(100);
    let plan = explain(
        &db,
        "SELECT * FROM wall WHERE user_id = $1 AND date_posted = TS(1005)",
        &[Value::Int(5)],
    );
    assert_eq!(
        plan.base.path,
        AccessPath::IndexEq {
            index: "wall_user_date".into(),
            key: vec![Value::Int(5), Value::Timestamp(1005)],
        }
    );
}

#[test]
fn range_bounds_merge_into_one_scan() {
    let db = wall_db(100);
    let plan = explain(
        &db,
        "SELECT * FROM wall WHERE user_id = 3 AND date_posted > TS(1010) AND date_posted <= TS(1050)",
        &[],
    );
    assert_eq!(
        plan.base.path,
        AccessPath::IndexRange {
            index: "wall_user_date".into(),
            eq_prefix: vec![Value::Int(3)],
            from: Bound::Excluded(Value::Timestamp(1010)),
            to: Bound::Included(Value::Timestamp(1050)),
        }
    );
    // Conflicting bounds keep the tightest pair.
    let plan = explain(
        &db,
        "SELECT * FROM wall WHERE user_id = 3 AND date_posted > TS(1000) AND date_posted >= TS(1020)",
        &[],
    );
    assert_eq!(
        plan.base.path,
        AccessPath::IndexRange {
            index: "wall_user_date".into(),
            eq_prefix: vec![Value::Int(3)],
            from: Bound::Included(Value::Timestamp(1020)),
            to: Bound::Unbounded,
        }
    );
}

#[test]
fn between_desugars_to_range() {
    let db = wall_db(100);
    let plan = explain(
        &db,
        "SELECT * FROM wall WHERE user_id = 2 AND date_posted BETWEEN TS(1004) AND TS(1040)",
        &[],
    );
    assert_eq!(
        plan.base.path,
        AccessPath::IndexRange {
            index: "wall_user_date".into(),
            eq_prefix: vec![Value::Int(2)],
            from: Bound::Included(Value::Timestamp(1004)),
            to: Bound::Included(Value::Timestamp(1040)),
        }
    );
}

#[test]
fn prefix_equality_scans_composite_index() {
    let db = wall_db(100);
    let plan = explain(&db, "SELECT * FROM wall WHERE user_id = 4", &[]);
    assert_eq!(
        plan.base.path,
        AccessPath::IndexPrefixRange {
            index: "wall_user_date".into(),
            prefix: vec![Value::Int(4)],
        }
    );
}

#[test]
fn in_list_dedups_and_sorts_keys() {
    let db = wall_db(100);
    let plan = explain(
        &db,
        "SELECT * FROM wall WHERE status IN (2, 0, 2, $1, 0)",
        &[Value::Int(0)],
    );
    assert_eq!(
        plan.base.path,
        AccessPath::IndexOr {
            index: "wall_status".into(),
            keys: vec![Value::Int(0), Value::Int(2)],
        }
    );
}

#[test]
fn or_equality_chain_plans_like_in() {
    let db = wall_db(100);
    let plan = explain(
        &db,
        "SELECT * FROM wall WHERE status = 2 OR status = 0",
        &[],
    );
    assert_eq!(
        plan.base.path,
        AccessPath::IndexOr {
            index: "wall_status".into(),
            keys: vec![Value::Int(0), Value::Int(2)],
        }
    );
    // Mixed-column OR is not a multi-key lookup.
    let plan = explain(
        &db,
        "SELECT * FROM wall WHERE status = 2 OR user_id = 0",
        &[],
    );
    assert_eq!(plan.base.path, AccessPath::TableScan);
}

#[test]
fn pk_in_list_probes_instead_of_scanning() {
    let db = wall_db(100);
    let sql = "SELECT * FROM wall WHERE post_id IN (13, 5, 13, 40) ORDER BY post_id";
    let plan = explain(&db, sql, &[]);
    assert_eq!(
        plan.base.path,
        AccessPath::PkOr {
            keys: vec![Value::Int(5), Value::Int(13), Value::Int(40)],
        }
    );
    assert!(plan.order_satisfied, "sorted pk keys give pk order");
    let out = db.execute_sql(sql, &[]).unwrap();
    assert_eq!(out.cost.rows_scanned, 3);
    assert_eq!(out.cost.sorts, 0);
    let ids: Vec<i64> = out
        .result
        .rows
        .iter()
        .map(|r| r.get(0).as_int().unwrap())
        .collect();
    assert_eq!(ids, vec![5, 13, 40]);
}

#[test]
fn composite_index_wins_selectivity_ties() {
    // Single-column and composite indexes whose leading column has the
    // same cardinality tie on estimated rows; the wider matched key must
    // win deterministically.
    let db = Database::default();
    db.execute_sql(
        "CREATE TABLE inv (id INT PRIMARY KEY, to_user INT NOT NULL, status INT NOT NULL)",
        &[],
    )
    .unwrap();
    db.execute_sql("CREATE INDEX inv_user ON inv (to_user)", &[])
        .unwrap();
    db.execute_sql("CREATE INDEX inv_user_status ON inv (to_user, status)", &[])
        .unwrap();
    // All rows share status 0, so distinct(to_user) == distinct(to_user, status).
    for i in 0..60i64 {
        db.execute_sql(
            "INSERT INTO inv VALUES ($1, $2, 0)",
            &[Value::Int(i), Value::Int(i % 20)],
        )
        .unwrap();
    }
    let plan = explain(
        &db,
        "SELECT * FROM inv WHERE to_user = 3 AND status = 0",
        &[],
    );
    assert_eq!(
        plan.base.path,
        AccessPath::IndexEq {
            index: "inv_user_status".into(),
            key: vec![Value::Int(3), Value::Int(0)],
        }
    );
}

#[test]
fn non_indexable_predicates_fall_back_to_scan() {
    let db = wall_db(100);
    for sql in [
        "SELECT * FROM wall",
        "SELECT * FROM wall WHERE date_posted = TS(1010)", // not a leading index column
        "SELECT * FROM wall WHERE status <> 1",
        "SELECT * FROM wall WHERE status + 1 = 2",
        "SELECT * FROM wall WHERE user_id IS NULL",
    ] {
        let plan = explain(&db, sql, &[]);
        assert_eq!(plan.base.path, AccessPath::TableScan, "{sql}");
    }
}

#[test]
fn order_by_on_index_skips_sort() {
    let db = wall_db(100);
    let sel = "SELECT * FROM wall WHERE user_id = 3 ORDER BY date_posted DESC LIMIT 5";
    let plan = explain(&db, sel, &[]);
    assert!(plan.order_satisfied, "{plan}");
    assert!(plan.base.reverse);
    let out = db.execute_sql(sel, &[]).unwrap();
    assert_eq!(out.cost.sorts, 0, "index order must skip the sort");
    // Correct order: newest first.
    let ts: Vec<i64> = out
        .result
        .rows
        .iter()
        .map(|r| r.get(2).as_timestamp().unwrap())
        .collect();
    let mut sorted = ts.clone();
    sorted.sort_by(|a, b| b.cmp(a));
    assert_eq!(ts, sorted);
    assert_eq!(ts.len(), 5);

    // An order the index cannot produce still sorts.
    let out = db
        .execute_sql("SELECT * FROM wall WHERE user_id = 3 ORDER BY status", &[])
        .unwrap();
    assert_eq!(out.cost.sorts, 1);
}

#[test]
fn range_scan_reads_fewer_rows_than_full_scan() {
    let db = wall_db(200);
    let out = db
        .execute_sql(
            "SELECT * FROM wall WHERE user_id = 3 AND date_posted > TS(1100)",
            &[],
        )
        .unwrap();
    // user 3 owns 20 rows; about half are past TS(1100). A full scan
    // would report 200.
    assert!(
        out.cost.rows_scanned <= 20,
        "rows_scanned {} should be bounded by the index range",
        out.cost.rows_scanned
    );
    assert_eq!(out.cost.index_probes, 1);
    let full = db
        .execute_sql("SELECT * FROM wall WHERE status + 1 = 1", &[])
        .unwrap();
    assert_eq!(full.cost.rows_scanned, 200);
}

/// Runs every query two ways — as planned and as a forced full scan —
/// asserts both agree, rows and `COUNT(*)`, and returns the planned rows
/// and counts. Records the planned path kinds in `kinds`.
fn run_against_full_scan(
    db: &Database,
    queries: &[&str],
    kinds: &mut BTreeSet<&'static str>,
) -> Vec<(Vec<genie_storage::Row>, i64)> {
    let count = |sql: &str| {
        db.execute_sql(sql, &[]).unwrap().result.rows[0]
            .get(0)
            .as_int()
            .unwrap()
    };
    let mut out = Vec::new();
    for &sql in queries {
        let planned = db.execute_sql(sql, &[]).unwrap();
        kinds.insert(db.explain_sql(sql, &[]).unwrap().base.path.kind());
        // Defeat the planner by hiding the predicate under a double
        // negation: conjunct extraction does not descend into NOT, and
        // NOT (NOT p) matches exactly the rows p does under three-valued
        // logic.
        let (pred_part, tail) = match sql.find(" ORDER BY") {
            Some(i) => sql.split_at(i),
            None => (sql, ""),
        };
        let scan_pred = pred_part.replacen("WHERE ", "WHERE NOT (NOT (", 1);
        let scan_sql = format!("{scan_pred})){tail}");
        let scanned = db.execute_sql(&scan_sql, &[]).unwrap();
        let scan_plan = db.explain_sql(&scan_sql, &[]).unwrap().base.path;
        assert_eq!(scan_plan, AccessPath::TableScan, "{scan_sql}");
        kinds.insert(scan_plan.kind());
        let key = |r: &genie_storage::Row| r.values().to_vec();
        let mut a = planned.result.rows.clone();
        let mut b = scanned.result.rows.clone();
        // Unordered queries may differ in row order between paths.
        if !sql.contains("ORDER BY") {
            a.sort_by_key(key);
            b.sort_by_key(key);
        }
        assert_eq!(a, b, "{sql}");
        // The COUNT(*) form, which the planner may answer by pushdown.
        let count_sql = pred_part.replacen("SELECT *", "SELECT COUNT(*)", 1);
        let n = count(&count_sql);
        let scan_count_sql = format!("{}))", scan_pred.replacen("SELECT *", "SELECT COUNT(*)", 1));
        assert_eq!(n, count(&scan_count_sql), "{count_sql}");
        out.push((a, n));
    }
    out
}

#[test]
fn every_path_matches_full_scan_semantics() {
    let db = wall_db(150);
    let queries = [
        "SELECT * FROM wall WHERE post_id = 14",
        "SELECT * FROM wall WHERE post_id IN (3, 14, 15, 149)",
        "SELECT * FROM wall WHERE post_id BETWEEN 10 AND 30",
        "SELECT * FROM wall WHERE post_id >= 140",
        "SELECT * FROM wall WHERE post_id BETWEEN 10 AND 30 ORDER BY post_id DESC",
        "SELECT * FROM wall WHERE user_id = 7",
        "SELECT * FROM wall WHERE user_id = 7 AND date_posted = TS(1017)",
        "SELECT * FROM wall WHERE user_id = 7 AND date_posted < TS(1100)",
        "SELECT * FROM wall WHERE user_id = 7 AND date_posted IN (TS(1007), TS(1017), TS(1020))",
        "SELECT * FROM wall WHERE status IN (0, 2)",
        "SELECT * FROM wall WHERE status = 0 OR status = 2",
        "SELECT * FROM wall WHERE user_id = 7 ORDER BY date_posted DESC",
        "SELECT * FROM wall WHERE user_id = 7 ORDER BY date_posted ASC LIMIT 3",
        "SELECT * FROM wall WHERE user_id = 7 AND date_posted < TS(1100) ORDER BY date_posted DESC",
        // Equality on an index key, then its implicit pk suffix: bounded
        // walks of one posting list, both directions, with and without a
        // residual filter, and through a composite index.
        "SELECT * FROM wall WHERE status = 0 ORDER BY post_id DESC LIMIT 4",
        "SELECT * FROM wall WHERE status = 2 ORDER BY post_id ASC LIMIT 5",
        "SELECT * FROM wall WHERE status = 1 AND date_posted > TS(1010) ORDER BY post_id ASC LIMIT 3",
        "SELECT * FROM wall WHERE user_id = 7 ORDER BY date_posted DESC, post_id DESC LIMIT 4",
    ];
    let mut kinds = BTreeSet::new();
    let before = run_against_full_scan(&db, &queries, &mut kinds);
    let all_kinds: BTreeSet<&str> = [
        "TableScan",
        "PkEq",
        "PkOr",
        "PkRange",
        "IndexEq",
        "IndexRange",
        "IndexPrefixRange",
        "IndexOr",
        "IndexInList",
    ]
    .into();
    assert_eq!(kinds, all_kinds);

    // A transaction pinned before another thread moves rows between
    // keys, re-dates and re-statuses them, renumbers one, deletes some
    // and inserts a row on probed keys: every path still reads the
    // pinned snapshot, through stale and newer index entries alike.
    db.execute_sql("BEGIN", &[]).unwrap();
    assert_eq!(run_against_full_scan(&db, &queries, &mut kinds), before);
    let db2 = db.clone();
    std::thread::spawn(move || {
        for sql in [
            "UPDATE wall SET user_id = 7 WHERE post_id IN (3, 13, 23)",
            "UPDATE wall SET user_id = 4 WHERE post_id IN (17, 27)",
            "UPDATE wall SET date_posted = TS(1007) WHERE post_id = 37",
            "UPDATE wall SET date_posted = TS(1500) WHERE post_id = 57",
            "UPDATE wall SET status = 2 WHERE status = 1 AND post_id < 60",
            "DELETE FROM wall WHERE post_id IN (14, 15, 20, 147)",
            // A new pk under unchanged index keys: one row, two postings.
            "UPDATE wall SET post_id = 300 WHERE post_id = 77",
            "INSERT INTO wall VALUES (200, 7, TS(1017), 0)",
        ] {
            db2.execute_sql(sql, &[]).unwrap();
        }
    })
    .join()
    .unwrap();
    let pinned = run_against_full_scan(&db, &queries, &mut kinds);
    assert_eq!(pinned, before, "the pinned snapshot sees no later commit");
    db.execute_sql("COMMIT", &[]).unwrap();
    let after = run_against_full_scan(&db, &queries, &mut kinds);
    for (i, sql) in queries.iter().enumerate() {
        assert_ne!(after[i], before[i], "{sql} must see the later commits");
    }
}

/// A secondary index is ordered by `(key, pk)`: equality on the key and
/// ORDER BY the pk plans as an ordered walk that stops after LIMIT rows.
#[test]
fn pk_suffix_orders_index_equality() {
    let db = wall_db(300);
    for (sql, reverse) in [
        (
            "SELECT * FROM wall WHERE status = 1 ORDER BY post_id DESC LIMIT 3",
            true,
        ),
        (
            "SELECT * FROM wall WHERE status = 1 ORDER BY post_id LIMIT 3",
            false,
        ),
        (
            "SELECT * FROM wall WHERE status = 1 ORDER BY status, post_id DESC LIMIT 3",
            true,
        ),
    ] {
        let plan = explain(&db, sql, &[]);
        assert_eq!(plan.base.path.kind(), "IndexEq", "{sql}");
        assert!(plan.order_satisfied && plan.base.pk_order, "{sql}: {plan}");
        assert_eq!(plan.base.reverse, reverse, "{sql}");
        assert_eq!(plan.fetch_limit, Some(3), "{sql}");
        let out = db.execute_sql(sql, &[]).unwrap();
        assert_eq!(out.cost.rows_scanned, 3, "{sql}");
        assert_eq!(out.cost.sort_rows, 0, "{sql}");
    }
    // Without the pk the walk keeps rid ties; a pk that is not the last
    // ORDER BY key, or runs the other way, still sorts.
    let plan = explain(
        &db,
        "SELECT * FROM wall WHERE status = 1 ORDER BY status LIMIT 3",
        &[],
    );
    assert!(plan.order_satisfied && !plan.base.pk_order, "{plan}");
    for sql in [
        "SELECT * FROM wall WHERE status = 1 ORDER BY post_id, date_posted LIMIT 3",
        "SELECT * FROM wall WHERE user_id = 3 ORDER BY date_posted DESC, post_id ASC LIMIT 3",
    ] {
        assert!(!explain(&db, sql, &[]).order_satisfied, "{sql}");
    }
}

#[test]
fn order_by_ties_with_limit_match_full_scan() {
    // Rows tying on the ORDER BY keys must come back in heap (insertion)
    // order whether or not an index exists — the stable sort's tie order
    // — so LIMIT selects the same rows either way. Exercises both the
    // trailing-index-column trap (index (u, d) ordering u-ties by d) and
    // reverse scans (DESC must not flip rid order within equal keys).
    let make = |indexed: bool| {
        let db = Database::default();
        db.execute_sql(
            "CREATE TABLE t (id INT PRIMARY KEY, u INT NOT NULL, d INT)",
            &[],
        )
        .unwrap();
        if indexed {
            db.execute_sql("CREATE INDEX t_u_d ON t (u, d)", &[])
                .unwrap();
            db.execute_sql("CREATE INDEX t_u ON t (u)", &[]).unwrap();
        }
        // Several rows share u = 2, one with d NULL (sorts first in the
        // index). The last two arrive with smaller ids, so heap (rid)
        // order differs from pk order — the order index postings use.
        for (id, u, d) in [
            (14i64, 2i64, Value::Null),
            (15, 0, Value::Int(50)),
            (16, 2, Value::Int(9)),
            (17, 2, Value::Int(83)),
            (18, 0, Value::Int(1)),
            (19, 2, Value::Int(9)),
            (3, 2, Value::Int(9)),
            (5, 0, Value::Int(50)),
        ] {
            db.execute_sql(
                "INSERT INTO t VALUES ($1, $2, $3)",
                &[Value::Int(id), Value::Int(u), d],
            )
            .unwrap();
        }
        db
    };
    let with_idx = make(true);
    let without_idx = make(false);
    for sql in [
        "SELECT * FROM t WHERE u IN (0, 2) ORDER BY u DESC LIMIT 5",
        "SELECT * FROM t WHERE u IN (0, 2) ORDER BY u ASC LIMIT 3",
        "SELECT * FROM t WHERE u = 2 ORDER BY u LIMIT 2",
        "SELECT * FROM t WHERE u = 2 ORDER BY d DESC LIMIT 2",
        "SELECT * FROM t WHERE u >= 0 ORDER BY u LIMIT 4",
        "SELECT * FROM t WHERE u IN (0, 2)",
        "SELECT * FROM t WHERE u = 2 ORDER BY id DESC LIMIT 2",
        "SELECT * FROM t WHERE u = 2 AND d = 9 ORDER BY id LIMIT 1",
        "SELECT * FROM t WHERE u IN (0, 2) ORDER BY u DESC, id DESC LIMIT 4",
    ] {
        let a = with_idx.execute_sql(sql, &[]).unwrap().result.rows;
        let b = without_idx.execute_sql(sql, &[]).unwrap().result.rows;
        assert_eq!(a, b, "{sql} depends on index presence");
    }
}

#[test]
fn explain_displays_readably() {
    let db = wall_db(50);
    let plan = explain(
        &db,
        "SELECT * FROM wall WHERE user_id = 3 AND date_posted >= TS(1004) ORDER BY date_posted",
        &[],
    );
    let text = plan.to_string();
    assert!(text.contains("IndexRange"), "{text}");
    assert!(text.contains("wall_user_date"), "{text}");
    assert!(text.contains("ordered"), "{text}");
}

#[test]
fn empty_in_list_of_nulls_reads_nothing() {
    let db = wall_db(50);
    let out = db
        .execute_sql("SELECT * FROM wall WHERE status IN (NULL)", &[])
        .unwrap();
    assert!(out.result.rows.is_empty());
    assert_eq!(out.cost.rows_scanned, 0);
}

#[test]
fn inverted_range_is_empty_not_panicking() {
    let db = wall_db(50);
    let out = db
        .execute_sql(
            "SELECT * FROM wall WHERE post_id > 40 AND post_id < 10",
            &[],
        )
        .unwrap();
    assert!(out.result.rows.is_empty());
    let out = db
        .execute_sql(
            "SELECT * FROM wall WHERE user_id = 1 AND date_posted BETWEEN TS(1050) AND TS(1000)",
            &[],
        )
        .unwrap();
    assert!(out.result.rows.is_empty());
}

#[test]
fn float_bound_on_int_pk_still_ranges() {
    let db = wall_db(50);
    let out = db
        .execute_sql("SELECT * FROM wall WHERE post_id < 2.5", &[])
        .unwrap();
    assert_eq!(out.result.rows.len(), 3, "0, 1, 2 are below 2.5");
}

#[test]
fn unique_index_equality_is_point_lookup() {
    let db = Database::default();
    db.execute_sql(
        "CREATE TABLE users (id INT PRIMARY KEY, email TEXT UNIQUE)",
        &[],
    )
    .unwrap();
    for i in 0..20i64 {
        db.execute_sql(
            "INSERT INTO users VALUES ($1, $2)",
            &[Value::Int(i), Value::Text(format!("u{i}@x"))],
        )
        .unwrap();
    }
    let sel = Select::star("users").filter(Expr::col("email").eq(Expr::lit("u7@x")));
    let plan = db.explain(&sel, &[]).unwrap();
    assert_eq!(
        plan.base.path,
        AccessPath::IndexEq {
            index: "users_email_key".into(),
            key: vec![Value::Text("u7@x".into())],
        }
    );
    let out = db.select(&sel, &[]).unwrap();
    assert_eq!(out.result.rows.len(), 1);
    assert_eq!(out.cost.rows_scanned, 1);
}
