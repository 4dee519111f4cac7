//! The cached-object definitions for the social app — the reproduction of
//! the paper's §5.2: porting Pinax to CacheGenie took *14 cached object
//! declarations* (and nothing else), from which CacheGenie generated all
//! triggers.

use cachegenie::{CacheGenie, CacheableDef, ConsistencyStrategy, SortOrder};
use genie_storage::{Result, Value};

/// Declares all 14 cached objects with the given consistency strategy,
/// returning how many were declared.
///
/// # Errors
///
/// Propagates definition/compilation errors.
pub fn define_cached_objects(genie: &CacheGenie, strategy: ConsistencyStrategy) -> Result<usize> {
    let defs = cached_object_defs(strategy);
    let n = defs.len();
    for def in defs {
        genie.cacheable(def)?;
    }
    Ok(n)
}

/// The 14 definitions (see the module docs). Exposed so benches can count
/// and inspect them.
pub fn cached_object_defs(strategy: ConsistencyStrategy) -> Vec<CacheableDef> {
    let s = strategy;
    vec![
        // --- profiles app ---
        CacheableDef::feature("user_by_id", "User")
            .where_fields(&["id"])
            .strategy(s),
        CacheableDef::feature("profile_by_user", "Profile")
            .where_fields(&["user_id"])
            .strategy(s),
        // --- friends app ---
        CacheableDef::feature("friends_of_user", "Friendship")
            .where_fields(&["user_id"])
            .strategy(s),
        CacheableDef::count("friend_count", "Friendship")
            .where_fields(&["user_id"])
            .strategy(s),
        CacheableDef::feature("pending_invitations", "FriendshipInvitation")
            .where_fields(&["to_user_id", "status"])
            .strategy(s),
        CacheableDef::count("pending_invitation_count", "FriendshipInvitation")
            .where_fields(&["to_user_id", "status"])
            .strategy(s),
        // --- bookmarks app ---
        CacheableDef::link(
            "user_bookmarks",
            "BookmarkInstance",
            "Bookmark",
            "bookmark_id",
            "id",
        )
        .where_fields(&["user_id"])
        .strategy(s),
        CacheableDef::count("user_bookmark_count", "BookmarkInstance")
            .where_fields(&["user_id"])
            .strategy(s),
        CacheableDef::count("bookmark_save_count", "BookmarkInstance")
            .where_fields(&["bookmark_id"])
            .strategy(s),
        CacheableDef::link(
            "friend_bookmarks",
            "Friendship",
            "BookmarkInstance",
            "friend_id",
            "user_id",
        )
        .where_fields(&["user_id"])
        .strategy(s),
        // --- wall (the paper's §3.2 running example) ---
        CacheableDef::top_k(
            "latest_wall_posts",
            "WallPost",
            "date_posted",
            SortOrder::Descending,
            20,
        )
        .where_fields(&["user_id"])
        .strategy(s),
        CacheableDef::count("wall_post_count", "WallPost")
            .where_fields(&["user_id"])
            .strategy(s),
        // --- groups ---
        CacheableDef::link("user_groups", "GroupMembership", "Group", "group_id", "id")
            .where_fields(&["user_id"])
            .strategy(s),
        CacheableDef::count("group_member_count", "GroupMembership")
            .where_fields(&["group_id"])
            .strategy(s),
    ]
}

/// The per-user cached objects the coherence sweep checks: every one
/// the page mix can touch for a user.
const SWEPT_OBJECTS: [&str; 7] = [
    "latest_wall_posts",
    "wall_post_count",
    "user_by_id",
    "profile_by_user",
    "friends_of_user",
    "friend_count",
    "user_bookmark_count",
];

/// Cross-checks every per-user cached object the page mix can touch
/// (wall, profile, friends and bookmark count) for users `1..=users`
/// with [`CacheGenie::verify_coherence`]. Returns how many objects were
/// checked and the incoherent ones, as `name(user)`. Run it on a
/// quiescent system.
///
/// # Errors
///
/// Database errors from the sweep's queries.
pub fn sweep_coherence(genie: &CacheGenie, users: i64) -> Result<(u64, Vec<String>)> {
    let mut checked = 0;
    let mut bad = Vec::new();
    for user in 1..=users {
        let params = [Value::Int(user)];
        for name in SWEPT_OBJECTS {
            checked += 1;
            if !genie.verify_coherence(name, &params)? {
                bad.push(format!("{name}({user})"));
            }
        }
    }
    Ok((checked, bad))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::models::build_registry;
    use genie_cache::{CacheCluster, ClusterConfig};
    use genie_storage::Database;
    use std::sync::Arc;

    #[test]
    fn fourteen_objects_as_in_the_paper() {
        assert_eq!(
            cached_object_defs(ConsistencyStrategy::UpdateInPlace).len(),
            14
        );
    }

    #[test]
    fn all_definitions_compile_and_install() {
        let reg = Arc::new(build_registry().unwrap());
        let db = Database::default();
        reg.sync(&db).unwrap();
        let genie = CacheGenie::new(
            db,
            CacheCluster::new(ClusterConfig::default()),
            reg,
            Default::default(),
        );
        let n = define_cached_objects(&genie, ConsistencyStrategy::UpdateInPlace).unwrap();
        assert_eq!(n, 14);
        assert_eq!(genie.object_count(), 14);
        // 11 single-table objects x 3 triggers + 3 link objects x 6 = 51
        // (the paper's port produced 48 for its object set).
        assert_eq!(genie.trigger_count(), 11 * 3 + 3 * 6);
        // The paper reports ~1720 generated lines for its 48 triggers.
        let lines = genie.generated_trigger_lines();
        assert!(
            (800..6000).contains(&lines),
            "generated trigger code should be in the paper's ballpark, got {lines}"
        );
    }
}
