//! Integration tests of the social app's page loads, with and without
//! CacheGenie — the core check is that caching never changes page
//! behaviour, only where answers come from.

use cachegenie::ConsistencyStrategy;
use genie_social::{build_app, AppConfig, SeedConfig};

fn cfg(strategy: Option<ConsistencyStrategy>) -> AppConfig {
    AppConfig {
        seed: SeedConfig::tiny(),
        strategy,
        ..Default::default()
    }
}

#[test]
fn build_seeds_and_declares() {
    let env = build_app(&cfg(Some(ConsistencyStrategy::UpdateInPlace))).unwrap();
    assert_eq!(env.cached_objects, 14);
    assert_eq!(env.seeded.users, 20);
    assert!(env.seeded.rows > 100);
    assert_eq!(env.db.row_count("users").unwrap(), 20);
    assert!(env.genie.trigger_count() > 30);
}

#[test]
fn nocache_mode_declares_nothing() {
    let env = build_app(&cfg(None)).unwrap();
    assert_eq!(env.cached_objects, 0);
    assert_eq!(env.genie.trigger_count(), 0);
    let stats = env.app.lookup_bm(1).unwrap();
    assert_eq!(stats.cache_ops, 0);
    assert_eq!(stats.cache_hit_queries, 0);
    assert!(stats.queries >= 6);
}

#[test]
fn all_pages_run_and_report_queries() {
    let env = build_app(&cfg(Some(ConsistencyStrategy::UpdateInPlace))).unwrap();
    let a = &env.app;
    for (name, stats) in [
        ("login", a.login(1).unwrap()),
        ("lookup_bm", a.lookup_bm(1).unwrap()),
        ("lookup_fbm", a.lookup_fbm(1).unwrap()),
        (
            "create_bm",
            a.create_bm(1, "http://bookmark.example/1").unwrap(),
        ),
        ("accept_fr", a.accept_fr(1, 2).unwrap()),
        ("view_wall", a.view_wall(1).unwrap()),
        ("post_wall", a.post_wall(1, 2, "hi").unwrap()),
        ("view_groups", a.view_groups(1).unwrap()),
        ("logout", a.logout(1).unwrap()),
    ] {
        assert!(stats.queries > 0, "{name} issued no queries");
    }
}

#[test]
fn write_pages_actually_write() {
    let env = build_app(&cfg(Some(ConsistencyStrategy::UpdateInPlace))).unwrap();
    assert!(
        env.app.login(1).unwrap().writes >= 1,
        "login updates last_login"
    );
    assert!(env.app.create_bm(1, "http://new.example/x").unwrap().writes >= 1);
    assert!(env.app.accept_fr(1, 3).unwrap().writes >= 1);
    assert!(env.app.lookup_bm(1).unwrap().writes == 0);
    assert!(env.app.lookup_fbm(1).unwrap().writes == 0);
}

#[test]
fn second_render_hits_cache() {
    let env = build_app(&cfg(Some(ConsistencyStrategy::UpdateInPlace))).unwrap();
    env.app.lookup_bm(1).unwrap();
    let again = env.app.lookup_bm(1).unwrap();
    assert!(
        again.cache_hit_queries >= again.intercepted_queries / 2,
        "warm page should mostly hit: {again:?}"
    );
    assert!(again.cache_hit_queries > 0);
}

#[test]
fn create_bm_visible_immediately_from_cache() {
    let env = build_app(&cfg(Some(ConsistencyStrategy::UpdateInPlace))).unwrap();
    let before = env.app.lookup_bm(1).unwrap();
    let _ = before;
    env.app.create_bm(1, "http://bookmark.example/3").unwrap();
    // The re-render inside create_bm already checked itself; verify an
    // independent page also sees it, served from cache.
    let sess = env.app.session();
    let qs = env.app.user_bookmarks_qs(1).unwrap();
    let out = sess.all(&qs).unwrap();
    assert!(out.from_cache);
    assert!(out
        .rows
        .iter()
        .any(|r| r.get("url").as_text() == Some("http://bookmark.example/3")));
}

#[test]
fn accept_fr_consumes_pending_invitation() {
    let env = build_app(&cfg(Some(ConsistencyStrategy::UpdateInPlace))).unwrap();
    let sess = env.app.session();
    let (before, _) = sess
        .count(&env.app.pending_invitations_qs(1).unwrap())
        .unwrap();
    if before == 0 {
        return; // tiny seed may leave user 1 without invitations
    }
    let (friends_before, _) = sess.count(&env.app.friends_qs(1).unwrap()).unwrap();
    env.app.accept_fr(1, 2).unwrap();
    let (after, out) = sess
        .count(&env.app.pending_invitations_qs(1).unwrap())
        .unwrap();
    assert_eq!(after, before - 1);
    assert!(out.from_cache, "pending count maintained in place");
    let (friends_after, _) = sess.count(&env.app.friends_qs(1).unwrap()).unwrap();
    assert_eq!(friends_after, friends_before + 1);
}

#[test]
fn caching_never_changes_page_results() {
    // Render the same read pages in NoCache and Update deployments built
    // from the same seed: row counts must agree.
    let plain = build_app(&cfg(None)).unwrap();
    let cached = build_app(&cfg(Some(ConsistencyStrategy::UpdateInPlace))).unwrap();
    for user in 1..=10i64 {
        for (a, b) in [
            (
                plain.app.lookup_bm(user).unwrap(),
                cached.app.lookup_bm(user).unwrap(),
            ),
            (
                plain.app.lookup_fbm(user).unwrap(),
                cached.app.lookup_fbm(user).unwrap(),
            ),
            (
                plain.app.view_wall(user).unwrap(),
                cached.app.view_wall(user).unwrap(),
            ),
        ] {
            assert_eq!(a.queries, b.queries, "user {user}");
        }
        // Independent data-level check on the bookmark list itself.
        let pa = plain
            .app
            .session()
            .all(&plain.app.user_bookmarks_qs(user).unwrap())
            .unwrap();
        let pb = cached
            .app
            .session()
            .all(&cached.app.user_bookmarks_qs(user).unwrap())
            .unwrap();
        let urls = |rows: &[genie_orm::OrmRow]| {
            let mut v: Vec<String> = rows
                .iter()
                .map(|r| r.get("url").as_text().unwrap_or_default().to_owned())
                .collect();
            v.sort();
            v
        };
        assert_eq!(urls(&pa.rows), urls(&pb.rows), "user {user}");
    }
}

#[test]
fn trigger_overhead_shows_up_on_write_pages() {
    let env = build_app(&cfg(Some(ConsistencyStrategy::UpdateInPlace))).unwrap();
    // Warm the caches so triggers have entries to maintain.
    env.app.lookup_bm(1).unwrap();
    env.app.view_wall(1).unwrap();
    let w = env.app.post_wall(1, 2, "x").unwrap();
    assert!(w.db_cost.triggers_fired >= 1, "{:?}", w.db_cost);
    assert!(w.db_cost.trigger_connections >= 1);
}

/// The uncached page chrome's "three newest saves" query reads three
/// rows and sorts none however long the user's history grows: it is a
/// bounded reverse walk of the user's `(user_id, pk)` postings, not a
/// scan-and-sort of every bookmark they ever saved.
#[test]
fn chrome_top3_cost_stays_flat_as_history_grows() {
    let env = build_app(&cfg(None)).unwrap();
    let (app, user) = (&env.app, 1i64);
    let saves = app
        .session()
        .objects("BookmarkInstance")
        .unwrap()
        .filter_eq("user_id", user);
    let (mut history, _) = app.session().count(&saves).unwrap();
    let (sel, params) = app.recent_saves_qs(user).unwrap().compile();
    let mut created = Vec::new();
    let mut costs = Vec::new();
    for target in [10i64, 2_000] {
        while history < target {
            let w = app
                .session()
                .create(
                    "BookmarkInstance",
                    &[
                        ("bookmark_id", 1i64.into()),
                        ("user_id", user.into()),
                        ("description", "saved".into()),
                        ("saved", genie_storage::Value::Timestamp(app.next_ts())),
                    ],
                )
                .unwrap();
            created.push(w.new_id.unwrap());
            history += 1;
        }
        assert_eq!(app.session().count(&saves).unwrap().0, target);
        let out = env.db.select(&sel, &params).unwrap();
        let ids: Vec<i64> = out
            .result
            .rows
            .iter()
            .map(|r| r.get(0).as_int().unwrap())
            .collect();
        let newest: Vec<i64> = created.iter().rev().take(3).copied().collect();
        assert_eq!(ids, newest, "{target} saves: not the three newest");
        costs.push((out.cost.rows_scanned, out.cost.sort_rows, out.cost.sorts));
    }
    assert_eq!(costs[0], (3, 0, 0), "10 saves: {costs:?}");
    assert_eq!(costs[1], costs[0], "cost grew with history: {costs:?}");
}

/// The write-side analogue of the chrome test: a save's trigger edits
/// splice the user's cached `user_bookmarks` list and a friend's cached
/// `friend_bookmarks` list in place. They decode no cached values however
/// long those lists have grown, and the lists stay exactly what the
/// database would answer.
#[test]
fn create_bm_trigger_work_stays_flat_as_history_grows() {
    use genie_cache::CacheOrigin;
    use genie_storage::Row;

    let env = build_app(&cfg(Some(ConsistencyStrategy::UpdateInPlace))).unwrap();
    let (app, user, friend) = (&env.app, 1i64, 2i64);
    // `friend` follows `user`, so the user's saves join into the friend's
    // `friend_bookmarks` list.
    app.session()
        .create(
            "Friendship",
            &[
                ("user_id", friend.into()),
                ("friend_id", user.into()),
                ("added", genie_storage::Value::Timestamp(app.next_ts())),
            ],
        )
        .unwrap();
    let saves = app
        .session()
        .objects("BookmarkInstance")
        .unwrap()
        .filter_eq("user_id", user);
    let lists = [
        ("cg:user_bookmarks:1", app.user_bookmarks_qs(user).unwrap()),
        (
            "cg:friend_bookmarks:2",
            app.friend_bookmarks_qs(friend).unwrap(),
        ),
    ];
    let cache = env.cluster.handle(CacheOrigin::Application);
    let sorted = |mut rows: Vec<Row>| {
        rows.sort_by_key(|r| r.values().to_vec());
        rows
    };
    let (mut history, _) = app.session().count(&saves).unwrap();
    for (round, target) in [10i64, 2_000].into_iter().enumerate() {
        // Grow the history with nothing cached, then cache both lists.
        env.cluster.flush_all();
        while history < target {
            app.session()
                .create(
                    "BookmarkInstance",
                    &[
                        ("bookmark_id", 1i64.into()),
                        ("user_id", user.into()),
                        ("description", "saved".into()),
                        ("saved", genie_storage::Value::Timestamp(app.next_ts())),
                    ],
                )
                .unwrap();
            history += 1;
        }
        for (key, qs) in &lists {
            assert!(!app.session().all(qs).unwrap().from_cache);
            assert!(cache.contains(key), "{key} not filled");
        }

        let before = env.genie.stats();
        app.create_bm(user, &format!("http://flat.example/{round}"))
            .unwrap();
        let after = env.genie.stats();
        history += 1;
        let decoded = after.trigger_values_decoded - before.trigger_values_decoded;
        let updated = after.inplace_updates - before.inplace_updates;
        assert_eq!(decoded, 0, "{target} saves: trigger bodies decoded values");
        assert!(updated >= 1, "{target} saves: no in-place update");

        for (key, qs) in &lists {
            let cached = cache.get_payload(key).unwrap().expect("still cached");
            let cached = cached.as_rows().expect("a row list").to_vec();
            assert!(cached.len() as i64 > target, "{key}: {} rows", cached.len());
            let (sel, params) = qs.compile();
            let fresh = env.db.select(&sel, &params).unwrap().result.rows;
            assert_eq!(sorted(cached), sorted(fresh), "{key} at {target} saves");
        }
    }
}
