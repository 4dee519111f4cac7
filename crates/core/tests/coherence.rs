//! The central invariant of the whole paper, as a property test:
//! **whatever sequence of writes hits the database, a cached object always
//! serves exactly what recomputing its query would return.**
//!
//! We run random operation streams against wall posts / friendships /
//! memberships with CacheGenie installed, and after every operation
//! compare the intercepted (possibly cached) answer against a bypass query
//! straight to the database — for every cache class and for both the
//! update-in-place and invalidate strategies.

use cachegenie::{CacheGenie, CacheableDef, ConsistencyStrategy, GenieConfig, SortOrder};
use genie_cache::{CacheCluster, ClusterConfig};
use genie_orm::{FieldDef, ModelDef, ModelRegistry, OrmSession};
use genie_storage::{Database, Value, ValueType};
use proptest::prelude::*;
use std::sync::Arc;

const USERS: i64 = 4;
const K: usize = 3;

fn registry() -> Arc<ModelRegistry> {
    let mut reg = ModelRegistry::new();
    reg.register(
        ModelDef::builder("User", "users")
            .field(FieldDef::new("username", ValueType::Text))
            .build(),
    )
    .unwrap();
    reg.register(
        ModelDef::builder("WallPost", "wall")
            .foreign_key("user_id", "User")
            .field(FieldDef::new("date_posted", ValueType::Timestamp).indexed())
            .build(),
    )
    .unwrap();
    reg.register(
        ModelDef::builder("Group", "groups")
            .field(FieldDef::new("title", ValueType::Text))
            .build(),
    )
    .unwrap();
    reg.register(
        ModelDef::builder("GroupMembership", "membership")
            .foreign_key("user_id", "User")
            .foreign_key("group_id", "Group")
            .build(),
    )
    .unwrap();
    Arc::new(reg)
}

#[derive(Debug, Clone)]
enum Op {
    PostWall { user: i64, ts: i64 },
    DeleteWallOldest { user: i64 },
    RetimeWallNewest { user: i64, ts: i64 },
    MoveWallPost { from: i64, to: i64 },
    JoinGroup { user: i64, group: i64 },
    LeaveGroup { user: i64, group: i64 },
    RenameGroup { group: i64 },
    ReadWall { user: i64 },
    ReadCount { user: i64 },
    ReadGroups { user: i64 },
}

fn op_strategy() -> impl Strategy<Value = Op> {
    let user = 1..=USERS;
    let group = 1..=3i64;
    prop_oneof![
        (user.clone(), 0..1000i64).prop_map(|(user, ts)| Op::PostWall { user, ts }),
        user.clone().prop_map(|user| Op::DeleteWallOldest { user }),
        (user.clone(), 0..1000i64).prop_map(|(user, ts)| Op::RetimeWallNewest { user, ts }),
        (user.clone(), user.clone()).prop_map(|(from, to)| Op::MoveWallPost { from, to }),
        (user.clone(), group.clone()).prop_map(|(user, group)| Op::JoinGroup { user, group }),
        (user.clone(), group.clone()).prop_map(|(user, group)| Op::LeaveGroup { user, group }),
        group.prop_map(|group| Op::RenameGroup { group }),
        user.clone().prop_map(|user| Op::ReadWall { user }),
        user.clone().prop_map(|user| Op::ReadCount { user }),
        user.prop_map(|user| Op::ReadGroups { user }),
    ]
}

struct Env {
    session: OrmSession,
    genie: CacheGenie,
    rename_seq: i64,
}

fn env(strategy: ConsistencyStrategy) -> Env {
    let reg = registry();
    let db = Database::default();
    reg.sync(&db).unwrap();
    let session = OrmSession::new(db.clone(), Arc::clone(&reg));
    let cluster = CacheCluster::new(ClusterConfig {
        servers: 2,
        ..Default::default()
    });
    let genie = CacheGenie::new(db, cluster, reg, GenieConfig::default());
    genie.install(&session);
    for i in 1..=USERS {
        session
            .create("User", &[("username", format!("u{i}").into())])
            .unwrap();
    }
    for g in 1..=3 {
        session
            .create("Group", &[("title", format!("g{g}").into())])
            .unwrap();
    }
    genie
        .cacheable(
            CacheableDef::top_k(
                "wall_topk",
                "WallPost",
                "date_posted",
                SortOrder::Descending,
                K,
            )
            .where_fields(&["user_id"])
            .reserve(2)
            .strategy(strategy),
        )
        .unwrap();
    genie
        .cacheable(
            CacheableDef::count("wall_count", "WallPost")
                .where_fields(&["user_id"])
                .strategy(strategy),
        )
        .unwrap();
    genie
        .cacheable(
            CacheableDef::link("user_groups", "GroupMembership", "Group", "group_id", "id")
                .where_fields(&["user_id"])
                .strategy(strategy),
        )
        .unwrap();
    Env {
        session,
        genie,
        rename_seq: 0,
    }
}

/// Recomputes ground truth with interception bypassed.
fn bypass<T>(e: &Env, f: impl FnOnce() -> T) -> T {
    e.session.clear_interceptor();
    let out = f();
    e.genie.install(&e.session);
    out
}

fn wall_ids_by_recency(e: &Env, user: i64, limit: u64) -> Vec<(i64, i64)> {
    let qs = e
        .session
        .objects("WallPost")
        .unwrap()
        .filter_eq("user_id", user)
        .order_by("-date_posted")
        .order_by("id") // deterministic tiebreak for comparison only
        .limit(limit);
    e.session
        .all(&qs)
        .unwrap()
        .rows
        .iter()
        .map(|r| (r.get("date_posted").as_timestamp().unwrap(), r.id()))
        .collect()
}

fn apply(e: &mut Env, op: &Op) {
    match op {
        Op::PostWall { user, ts } => {
            e.session
                .create(
                    "WallPost",
                    &[
                        ("user_id", (*user).into()),
                        ("date_posted", Value::Timestamp(*ts)),
                    ],
                )
                .unwrap();
        }
        Op::DeleteWallOldest { user } => {
            let victim = bypass(e, || {
                let qs = e
                    .session
                    .objects("WallPost")
                    .unwrap()
                    .filter_eq("user_id", *user)
                    .order_by("date_posted")
                    .limit(1);
                e.session.all(&qs).unwrap().rows.first().map(|r| r.id())
            });
            if let Some(id) = victim {
                e.session.delete_by_id("WallPost", id).unwrap();
            }
        }
        Op::RetimeWallNewest { user, ts } => {
            let victim = bypass(e, || {
                let qs = e
                    .session
                    .objects("WallPost")
                    .unwrap()
                    .filter_eq("user_id", *user)
                    .order_by("-date_posted")
                    .limit(1);
                e.session.all(&qs).unwrap().rows.first().map(|r| r.id())
            });
            if let Some(id) = victim {
                e.session
                    .update_by_id("WallPost", id, &[("date_posted", Value::Timestamp(*ts))])
                    .unwrap();
            }
        }
        Op::MoveWallPost { from, to } => {
            let victim = bypass(e, || {
                let qs = e
                    .session
                    .objects("WallPost")
                    .unwrap()
                    .filter_eq("user_id", *from)
                    .limit(1);
                e.session.all(&qs).unwrap().rows.first().map(|r| r.id())
            });
            if let Some(id) = victim {
                e.session
                    .update_by_id("WallPost", id, &[("user_id", (*to).into())])
                    .unwrap();
            }
        }
        Op::JoinGroup { user, group } => {
            e.session
                .create(
                    "GroupMembership",
                    &[("user_id", (*user).into()), ("group_id", (*group).into())],
                )
                .unwrap();
        }
        Op::LeaveGroup { user, group } => {
            let victim = bypass(e, || {
                let qs = e
                    .session
                    .objects("GroupMembership")
                    .unwrap()
                    .filter_eq("user_id", *user)
                    .filter_eq("group_id", *group)
                    .limit(1);
                e.session.all(&qs).unwrap().rows.first().map(|r| r.id())
            });
            if let Some(id) = victim {
                e.session.delete_by_id("GroupMembership", id).unwrap();
            }
        }
        Op::RenameGroup { group } => {
            e.rename_seq += 1;
            let title = format!("g{group}-v{}", e.rename_seq);
            e.session
                .update_by_id("Group", *group, &[("title", title.into())])
                .unwrap();
        }
        Op::ReadWall { .. } | Op::ReadCount { .. } | Op::ReadGroups { .. } => {}
    }
    // Reads in the op stream (and after every op below) warm the cache so
    // subsequent triggers have something to maintain.
    match op {
        Op::ReadWall { user } | Op::ReadCount { user } | Op::ReadGroups { user } => {
            check_user(e, *user);
        }
        _ => {}
    }
}

/// Asserts cached answers equal recomputed answers for one user.
fn check_user(e: &Env, user: i64) {
    // --- Top-K ---
    let qs = e
        .session
        .objects("WallPost")
        .unwrap()
        .filter_eq("user_id", user)
        .order_by("-date_posted")
        .limit(K as u64);
    let cached = e.session.all(&qs).unwrap();
    let cached_ts: Vec<i64> = cached
        .rows
        .iter()
        .map(|r| r.get("date_posted").as_timestamp().unwrap())
        .collect();
    let truth = bypass(e, || wall_ids_by_recency(e, user, K as u64));
    let truth_ts: Vec<i64> = truth.iter().map(|(ts, _)| *ts).collect();
    // Compare timestamps (ties may legally order either way).
    assert_eq!(
        cached_ts, truth_ts,
        "top-k divergence for user {user}: cached {cached_ts:?} vs db {truth_ts:?}"
    );

    // --- Count ---
    let qs = e
        .session
        .objects("WallPost")
        .unwrap()
        .filter_eq("user_id", user);
    let (cached_n, _) = e.session.count(&qs).unwrap();
    let truth_n = bypass(e, || {
        let qs = e
            .session
            .objects("WallPost")
            .unwrap()
            .filter_eq("user_id", user);
        e.session.count(&qs).unwrap().0
    });
    assert_eq!(cached_n, truth_n, "count divergence for user {user}");

    // --- Link ---
    let group_model = e.session.registry().model("Group").unwrap().clone();
    let qs = e
        .session
        .objects("GroupMembership")
        .unwrap()
        .join_on(&group_model, "group_id", "id")
        .filter_eq("user_id", user);
    let cached = e.session.all(&qs).unwrap();
    let mut cached_pairs: Vec<(i64, String)> = cached
        .rows
        .iter()
        .map(|r| {
            (
                r.id(),
                r.get("title").as_text().unwrap_or_default().to_owned(),
            )
        })
        .collect();
    cached_pairs.sort();
    let mut truth_pairs = bypass(e, || {
        e.session
            .all(&qs)
            .unwrap()
            .rows
            .iter()
            .map(|r| {
                (
                    r.id(),
                    r.get("title").as_text().unwrap_or_default().to_owned(),
                )
            })
            .collect::<Vec<_>>()
    });
    truth_pairs.sort();
    assert_eq!(cached_pairs, truth_pairs, "link divergence for user {user}");
}

fn run_coherence(strategy: ConsistencyStrategy, ops: &[Op]) {
    let mut e = env(strategy);
    // Warm every user's cached objects so triggers have work to do.
    for u in 1..=USERS {
        check_user(&e, u);
    }
    for op in ops {
        apply(&mut e, op);
        for u in 1..=USERS {
            check_user(&e, u);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn update_in_place_never_diverges(ops in prop::collection::vec(op_strategy(), 1..40)) {
        run_coherence(ConsistencyStrategy::UpdateInPlace, &ops);
    }

    #[test]
    fn invalidate_never_diverges(ops in prop::collection::vec(op_strategy(), 1..40)) {
        run_coherence(ConsistencyStrategy::Invalidate, &ops);
    }
}

/// Deterministic regression-style sequence exercising every trigger path.
#[test]
fn mixed_deterministic_sequence() {
    let ops = vec![
        Op::PostWall { user: 1, ts: 100 },
        Op::PostWall { user: 1, ts: 50 },
        Op::PostWall { user: 1, ts: 150 },
        Op::PostWall { user: 2, ts: 10 },
        Op::ReadWall { user: 1 },
        Op::PostWall { user: 1, ts: 120 },
        Op::DeleteWallOldest { user: 1 },
        Op::DeleteWallOldest { user: 1 },
        Op::DeleteWallOldest { user: 1 },
        Op::RetimeWallNewest { user: 1, ts: 5 },
        Op::MoveWallPost { from: 1, to: 2 },
        Op::JoinGroup { user: 1, group: 1 },
        Op::JoinGroup { user: 1, group: 2 },
        Op::ReadGroups { user: 1 },
        Op::RenameGroup { group: 1 },
        Op::LeaveGroup { user: 1, group: 2 },
        Op::JoinGroup { user: 2, group: 1 },
        Op::RenameGroup { group: 1 },
        Op::ReadCount { user: 2 },
        Op::MoveWallPost { from: 2, to: 1 },
    ];
    run_coherence(ConsistencyStrategy::UpdateInPlace, &ops);
    run_coherence(ConsistencyStrategy::Invalidate, &ops);
}

/// A post retimed from the head of an incomplete Top-K list to below its
/// cached tail must leave the list: the reposition cannot place it, but
/// the stale image must not stay cached at its old rank.
#[test]
fn retimed_post_below_an_incomplete_cached_tail_leaves_the_list() {
    let mut ops: Vec<Op> = (1..=7)
        .map(|i| Op::PostWall {
            user: 1,
            ts: 100 * i,
        })
        .collect();
    ops.push(Op::ReadWall { user: 1 });
    ops.push(Op::RetimeWallNewest { user: 1, ts: 1 });
    ops.push(Op::RetimeWallNewest { user: 1, ts: 2 });
    ops.push(Op::RetimeWallNewest { user: 1, ts: 3 });
    run_coherence(ConsistencyStrategy::UpdateInPlace, &ops);
}
