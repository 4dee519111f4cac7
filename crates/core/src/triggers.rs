//! Trigger generation: the paper's §3.2.
//!
//! For each cached object CacheGenie installs INSERT/UPDATE/DELETE
//! triggers on every underlying table (one table for Feature/Count/TopK,
//! two for Link). Each generated trigger also carries a rendered source
//! listing — the artifact the paper counts when it reports "1720 lines of
//! generated trigger code" for Pinax.
//!
//! Trigger bodies follow the paper's four-step recipe: receive the
//! modified row, derive the affected cache key(s), compute the incremental
//! update (or pick invalidation), and apply it with `gets`/`cas`, retrying
//! on CAS conflicts.

use crate::def::{CacheClassKind, ConsistencyStrategy};
use crate::genie::GenieConfig;
use crate::object::ObjectInner;
use crate::stats::GenieStats;
use genie_cache::{CacheError, CacheHandle, Edited, EncodedList};
use genie_storage::{Result, Row, Trigger, TriggerCtx, TriggerEvent, Value};
use std::cmp::Ordering;
use std::sync::Arc;

/// Builds all triggers for one compiled object (none for `Expire`).
pub(crate) fn build_triggers(
    obj: &Arc<ObjectInner>,
    cache: &CacheHandle,
    stats: &Arc<GenieStats>,
    config: &GenieConfig,
) -> Vec<Trigger> {
    if matches!(obj.def.strategy, ConsistencyStrategy::Expire { .. }) {
        return Vec::new();
    }
    let mut out = Vec::new();
    let events = [
        TriggerEvent::Insert,
        TriggerEvent::Update,
        TriggerEvent::Delete,
    ];
    for event in events {
        out.push(make_trigger(
            obj,
            cache,
            stats,
            config,
            &obj.table.clone(),
            event,
            false,
        ));
    }
    if let Some(link) = &obj.link {
        let target = link.target_table.clone();
        for event in events {
            out.push(make_trigger(
                obj, cache, stats, config, &target, event, true,
            ));
        }
    }
    out
}

#[allow(clippy::too_many_arguments)]
fn make_trigger(
    obj: &Arc<ObjectInner>,
    cache: &CacheHandle,
    stats: &Arc<GenieStats>,
    config: &GenieConfig,
    table: &str,
    event: TriggerEvent,
    on_link_target: bool,
) -> Trigger {
    let name = format!(
        "cg_{}_{}_{}",
        obj.def.name,
        table,
        event.to_string().to_lowercase()
    );
    let source = render_source(obj, table, event, on_link_target);
    let o = Arc::clone(obj);
    let c = cache.clone();
    let s = Arc::clone(stats);
    let reuse_conn = config.reuse_trigger_connections;
    let retries = config.cas_retry_limit;
    let body = move |ctx: &mut TriggerCtx<'_>| -> Result<()> {
        // The paper's generated Python triggers open a remote memcached
        // connection on every firing — the dominant trigger cost in §5.3.
        if !reuse_conn {
            ctx.charge_connection_open();
        }
        let ops = if on_link_target {
            fire_link_target(&o, &c, &s, retries, ctx)?
        } else {
            fire_main(&o, &c, &s, retries, ctx)?
        };
        ctx.charge_cache_ops(ops);
        Ok(())
    };
    Trigger::new(name, table, event, body).with_source(source)
}

// ---------------------------------------------------------------------
// Shared gets/modify/cas machinery
// ---------------------------------------------------------------------

/// What a trigger body does to one cached list.
enum Edit {
    /// Store the edited payload (CAS).
    Keep(Edited),
    /// Remove the key (reserve exhausted, wrong shape).
    Drop,
    /// Nothing to do.
    Noop,
}

impl Edit {
    /// Store the edit, or the list unchanged when the edit matched no row.
    fn keep(list: &EncodedList, edited: Option<Edited>) -> Edit {
        Edit::Keep(edited.unwrap_or_else(|| list.unchanged()))
    }

    /// Store the edit; nothing to do when it matched no row.
    fn keep_or_noop(edited: Option<Edited>) -> Edit {
        edited.map_or(Edit::Noop, Edit::Keep)
    }
}

/// The gets → modify → cas loop from the paper's generated trigger, with
/// bounded retries; exhaustion falls back to invalidation (always safe).
///
/// `f` edits the cached list in its encoded form ([`EncodedList`]), so a
/// firing costs O(bytes copied) rather than a decode and re-encode of
/// every row. A list of the wrong shape for `obj` (Top-K or plain rows),
/// or a non-list payload, is dropped; a corrupt one is invalidated.
fn edit_key(
    obj: &ObjectInner,
    cache: &CacheHandle,
    stats: &GenieStats,
    retries: usize,
    key: &str,
    mut f: impl FnMut(&EncodedList) -> genie_cache::Result<Edit>,
) -> u64 {
    let top_k = matches!(obj.def.kind, CacheClassKind::TopK { .. });
    let mut ops = 0;
    for _ in 0..retries.max(1) {
        ops += 1;
        let Some(got) = cache.gets(key) else {
            stats.bump(&stats.trigger_noops);
            return ops;
        };
        let edit = EncodedList::parse(got.data).and_then(|list| match list {
            Some(list) if list.top_k_complete().is_some() == top_k => {
                let edit = f(&list);
                stats.add(&stats.trigger_values_decoded, list.values_decoded());
                edit
            }
            _ => Ok(Edit::Drop),
        });
        match edit {
            Err(_) => {
                ops += 1;
                cache.delete(key);
                stats.bump(&stats.invalidations);
                return ops;
            }
            Ok(Edit::Noop) => {
                stats.bump(&stats.trigger_noops);
                return ops;
            }
            Ok(Edit::Drop) => {
                ops += 1;
                cache.delete(key);
                stats.bump(&stats.key_drops);
                return ops;
            }
            Ok(Edit::Keep(edited)) => {
                ops += 1;
                match cache.cas(key, edited.data, got.cas, None) {
                    Ok(()) => {
                        stats.bump(&stats.inplace_updates);
                        return ops;
                    }
                    Err(CacheError::CasConflict) => {
                        stats.bump(&stats.cas_conflicts);
                        continue;
                    }
                    Err(_) => {
                        ops += 1;
                        cache.delete(key);
                        stats.bump(&stats.invalidations);
                        return ops;
                    }
                }
            }
        }
    }
    // Retry budget exhausted: invalidate rather than risk staleness.
    cache.delete(key);
    stats.bump(&stats.invalidations);
    ops + 1
}

/// Appends `rows` to the row list at `key`.
fn append_rows(
    obj: &ObjectInner,
    cache: &CacheHandle,
    stats: &GenieStats,
    retries: usize,
    key: &str,
    rows: &[Row],
) -> u64 {
    edit_key(obj, cache, stats, retries, key, |list| {
        Ok(Edit::Keep(list.append(rows)))
    })
}

fn invalidate_keys(cache: &CacheHandle, stats: &GenieStats, keys: &[String]) -> u64 {
    let mut ops = 0;
    let mut seen: Vec<&String> = Vec::new();
    for key in keys {
        if seen.contains(&key) {
            continue;
        }
        seen.push(key);
        ops += 1;
        cache.delete(key);
        stats.bump(&stats.invalidations);
    }
    ops
}

fn pk_of(row: &Row) -> &Value {
    row.get(0)
}

// ---------------------------------------------------------------------
// Main-table events
// ---------------------------------------------------------------------

fn fire_main(
    obj: &ObjectInner,
    cache: &CacheHandle,
    stats: &GenieStats,
    retries: usize,
    ctx: &mut TriggerCtx<'_>,
) -> Result<u64> {
    // Invalidate strategy: per-key precise deletion, all classes alike.
    if obj.def.strategy == ConsistencyStrategy::Invalidate {
        let mut keys = Vec::new();
        if let Some(old) = ctx.old {
            keys.push(obj.key_from_row(old));
        }
        if let Some(new) = ctx.new {
            keys.push(obj.key_from_row(new));
        }
        return Ok(invalidate_keys(cache, stats, &keys));
    }
    match &obj.def.kind {
        CacheClassKind::Feature => Ok(fire_feature(obj, cache, stats, retries, ctx)),
        CacheClassKind::Count => Ok(fire_count(obj, cache, stats, ctx)),
        CacheClassKind::TopK { .. } => Ok(fire_top_k(obj, cache, stats, retries, ctx)),
        CacheClassKind::Link { .. } => fire_link_main(obj, cache, stats, retries, ctx),
    }
}

fn fire_feature(
    obj: &ObjectInner,
    cache: &CacheHandle,
    stats: &GenieStats,
    retries: usize,
    ctx: &TriggerCtx<'_>,
) -> u64 {
    match ctx.event {
        TriggerEvent::Insert => {
            let new = ctx.new.expect("insert has NEW");
            append_rows(
                obj,
                cache,
                stats,
                retries,
                &obj.key_from_row(new),
                std::slice::from_ref(new),
            )
        }
        TriggerEvent::Delete => {
            let old = ctx.old.expect("delete has OLD");
            edit_key(obj, cache, stats, retries, &obj.key_from_row(old), |list| {
                Ok(Edit::keep_or_noop(list.remove_pk(pk_of(old))?))
            })
        }
        TriggerEvent::Update => {
            let old = ctx.old.expect("update has OLD");
            let new = ctx.new.expect("update has NEW");
            if obj.key_fields_changed(old, new) {
                // The row moved between keys: remove then add.
                let ops = edit_key(obj, cache, stats, retries, &obj.key_from_row(old), |list| {
                    Ok(Edit::keep(list, list.remove_pk(pk_of(old))?))
                });
                ops + append_rows(
                    obj,
                    cache,
                    stats,
                    retries,
                    &obj.key_from_row(new),
                    std::slice::from_ref(new),
                )
            } else {
                // Replace the row; heal by appending if it was missing.
                edit_key(obj, cache, stats, retries, &obj.key_from_row(new), |list| {
                    Ok(Edit::Keep(list.upsert_pk(new)?))
                })
            }
        }
    }
}

fn fire_count(
    obj: &ObjectInner,
    cache: &CacheHandle,
    stats: &GenieStats,
    ctx: &TriggerCtx<'_>,
) -> u64 {
    let bump = |key: &str, delta: i64| -> u64 {
        match cache.incr(key, delta) {
            Ok(Some(_)) => {
                stats.bump(&stats.inplace_updates);
                1
            }
            Ok(None) => {
                stats.bump(&stats.trigger_noops);
                1
            }
            Err(_) => {
                cache.delete(key);
                stats.bump(&stats.invalidations);
                2
            }
        }
    };
    match ctx.event {
        TriggerEvent::Insert => bump(&obj.key_from_row(ctx.new.expect("NEW")), 1),
        TriggerEvent::Delete => bump(&obj.key_from_row(ctx.old.expect("OLD")), -1),
        TriggerEvent::Update => {
            let old = ctx.old.expect("OLD");
            let new = ctx.new.expect("NEW");
            if obj.key_fields_changed(old, new) {
                bump(&obj.key_from_row(old), -1) + bump(&obj.key_from_row(new), 1)
            } else {
                stats.bump(&stats.trigger_noops);
                0
            }
        }
    }
}

/// Inserts `row` into a Top-K list per the paper's §3.2 algorithm,
/// honouring the completeness flag, after dropping the rows with primary
/// key `replacing`. `Noop` when the row ranks below everything cached and
/// coverage is incomplete: it may or may not belong at the tail, so the
/// list is left alone (the paper's `insert_pos == len` early exit).
fn top_k_insert(
    obj: &ObjectInner,
    list: &EncodedList,
    row: &Row,
    replacing: Option<&Value>,
) -> genie_cache::Result<Edit> {
    let pos = obj.sort_position.expect("Top-K object");
    let rank = row.get(pos);
    let ahead = |cached: &Value| obj.rank_cmp(rank, cached) == Ordering::Less;
    let edited = list.top_k_insert(row, pos, ahead, obj.capacity, replacing)?;
    Ok(Edit::keep_or_noop(edited))
}

/// Removes the row with primary key `pk` from a Top-K list; drops the
/// key once an incomplete list falls below K (reserve exhausted:
/// recompute on the next read).
fn top_k_remove(obj: &ObjectInner, list: &EncodedList, pk: &Value) -> genie_cache::Result<Edit> {
    let complete = list.top_k_complete() == Some(true);
    Ok(match list.remove_pk(pk)? {
        None => Edit::Noop,
        Some(edited) if edited.len < obj.k() && !complete => Edit::Drop,
        Some(edited) => Edit::Keep(edited),
    })
}

fn fire_top_k(
    obj: &ObjectInner,
    cache: &CacheHandle,
    stats: &GenieStats,
    retries: usize,
    ctx: &TriggerCtx<'_>,
) -> u64 {
    match ctx.event {
        TriggerEvent::Insert => {
            let new = ctx.new.expect("NEW");
            edit_key(obj, cache, stats, retries, &obj.key_from_row(new), |list| {
                top_k_insert(obj, list, new, None)
            })
        }
        TriggerEvent::Delete => {
            let old = ctx.old.expect("OLD");
            edit_key(obj, cache, stats, retries, &obj.key_from_row(old), |list| {
                top_k_remove(obj, list, pk_of(old))
            })
        }
        TriggerEvent::Update => {
            let old = ctx.old.expect("OLD");
            let new = ctx.new.expect("NEW");
            if obj.key_fields_changed(old, new) {
                // Moved between lists: delete from old, insert into new.
                edit_key(obj, cache, stats, retries, &obj.key_from_row(old), |list| {
                    top_k_remove(obj, list, pk_of(old))
                }) + edit_key(obj, cache, stats, retries, &obj.key_from_row(new), |list| {
                    top_k_insert(obj, list, new, None)
                })
            } else {
                // Same list: reposition (sort value may have changed).
                edit_key(obj, cache, stats, retries, &obj.key_from_row(new), |list| {
                    match top_k_insert(obj, list, new, Some(pk_of(old)))? {
                        // The row now ranks past the cached range: its
                        // stale image still leaves; the prefix stays right.
                        Edit::Noop => top_k_remove(obj, list, pk_of(old)),
                        edit => Ok(edit),
                    }
                })
            }
        }
    }
}

// ---------------------------------------------------------------------
// Link-class events
// ---------------------------------------------------------------------

/// Combined rows contributed by one base row, fetched from inside the
/// trigger (Postgres triggers query the database the same way).
fn link_rows_for_base(
    obj: &ObjectInner,
    ctx: &mut TriggerCtx<'_>,
    base_pk: &Value,
) -> Result<Vec<Row>> {
    let link = obj.link.as_ref().expect("link object");
    let result = ctx.query(&link.by_pk_template, std::slice::from_ref(base_pk))?;
    Ok(result.rows)
}

fn fire_link_main(
    obj: &ObjectInner,
    cache: &CacheHandle,
    stats: &GenieStats,
    retries: usize,
    ctx: &mut TriggerCtx<'_>,
) -> Result<u64> {
    match ctx.event {
        TriggerEvent::Insert => {
            let new = ctx.new.expect("NEW");
            let key = obj.key_from_row(new);
            // Probe first: skip the DB work when nothing is cached.
            if !cache.contains(&key) {
                stats.bump(&stats.trigger_noops);
                return Ok(1);
            }
            let fresh = link_rows_for_base(obj, ctx, pk_of(new))?;
            Ok(1 + append_rows(obj, cache, stats, retries, &key, &fresh))
        }
        TriggerEvent::Delete => {
            let old = ctx.old.expect("OLD");
            let key = obj.key_from_row(old);
            Ok(edit_key(obj, cache, stats, retries, &key, |list| {
                Ok(Edit::keep_or_noop(list.remove_pk(pk_of(old))?))
            }))
        }
        TriggerEvent::Update => {
            let old = ctx.old.expect("OLD");
            let new = ctx.new.expect("NEW");
            let new_key = obj.key_from_row(new);
            // Drop the stale combined rows for this base row, whether or
            // not it moved between keys.
            let mut ops = edit_key(obj, cache, stats, retries, &obj.key_from_row(old), |list| {
                Ok(Edit::keep(list, list.remove_pk(pk_of(old))?))
            });
            // Add the fresh join image under the new key if it is cached.
            ops += 1;
            if cache.contains(&new_key) {
                let fresh = link_rows_for_base(obj, ctx, pk_of(new))?;
                ops += append_rows(obj, cache, stats, retries, &new_key, &fresh);
            } else {
                stats.bump(&stats.trigger_noops);
            }
            Ok(ops)
        }
    }
}

/// Events on the joined (target) table. Affected base rows — and thus
/// affected cache keys — are found with the reverse query; updates are
/// applied in place where possible.
fn fire_link_target(
    obj: &ObjectInner,
    cache: &CacheHandle,
    stats: &GenieStats,
    retries: usize,
    ctx: &mut TriggerCtx<'_>,
) -> Result<u64> {
    let link = obj.link.as_ref().expect("link object");
    let tc = link.target_column_pos;
    let base_arity = obj.base_arity;

    let affected_keys = |ctx: &mut TriggerCtx<'_>, join_value: &Value| -> Result<Vec<String>> {
        let result = ctx.query(&link.reverse_template, std::slice::from_ref(join_value))?;
        let mut keys: Vec<String> = result.rows.iter().map(|r| obj.key_from_row(r)).collect();
        keys.sort();
        keys.dedup();
        Ok(keys)
    };
    // For every base row that joins `target` on its join column, append
    // base ++ target to the base row's list.
    let append_joined = |ctx: &mut TriggerCtx<'_>, target: &Row| -> Result<u64> {
        let bases = ctx.query(&link.reverse_template, std::slice::from_ref(target.get(tc)))?;
        let mut ops = 0;
        for base in &bases.rows {
            let combined: Vec<Value> = base
                .values()
                .iter()
                .chain(target.values())
                .cloned()
                .collect();
            let key = obj.key_from_row(base);
            ops += append_rows(obj, cache, stats, retries, &key, &[Row::new(combined)]);
        }
        Ok(ops)
    };

    if obj.def.strategy == ConsistencyStrategy::Invalidate {
        let mut keys = Vec::new();
        if let Some(old) = ctx.old {
            keys.extend(affected_keys(ctx, old.get(tc))?);
        }
        if let Some(new) = ctx.new {
            keys.extend(affected_keys(ctx, new.get(tc))?);
        }
        return Ok(invalidate_keys(cache, stats, &keys));
    }

    let mut ops = 0;
    match ctx.event {
        // A new target row may extend cached join results.
        TriggerEvent::Insert => append_joined(ctx, ctx.new.expect("NEW")),
        TriggerEvent::Delete => {
            let old = ctx.old.expect("OLD");
            for key in affected_keys(ctx, old.get(tc))? {
                ops += edit_key(obj, cache, stats, retries, &key, |list| {
                    Ok(Edit::keep_or_noop(
                        list.remove_slice(base_arity, old.values())?,
                    ))
                });
            }
            Ok(ops)
        }
        TriggerEvent::Update => {
            let old = ctx.old.expect("OLD");
            let new = ctx.new.expect("NEW");
            if old.get(tc) != new.get(tc) {
                // The join column moved: old joiners lose the row, new
                // joiners gain it.
                for key in affected_keys(ctx, old.get(tc))? {
                    ops += edit_key(obj, cache, stats, retries, &key, |list| {
                        Ok(Edit::keep(
                            list,
                            list.remove_slice(base_arity, old.values())?,
                        ))
                    });
                }
                Ok(ops + append_joined(ctx, new)?)
            } else {
                // In-place: replace the target portion of matching rows.
                for key in affected_keys(ctx, new.get(tc))? {
                    ops += edit_key(obj, cache, stats, retries, &key, |list| {
                        let edited = list.replace_slice(base_arity, old.values(), new.values())?;
                        Ok(Edit::keep_or_noop(edited))
                    });
                }
                Ok(ops)
            }
        }
    }
}

// ---------------------------------------------------------------------
// Source rendering (the paper's generated-code metric)
// ---------------------------------------------------------------------

/// Renders the trigger body as the Python-like listing CacheGenie would
/// install into Postgres (cf. the generated trigger in §3.2). The listing
/// is what [`genie_storage::TriggerManager::generated_source_lines`]
/// counts for the §5.2 programmer-effort table.
pub(crate) fn render_source(
    obj: &ObjectInner,
    table: &str,
    event: TriggerEvent,
    on_link_target: bool,
) -> String {
    let mut s = String::new();
    let class = obj.def.kind.class_name();
    let strategy = match obj.def.strategy {
        ConsistencyStrategy::UpdateInPlace => "update-in-place",
        ConsistencyStrategy::Invalidate => "invalidate",
        ConsistencyStrategy::Expire { .. } => "expire",
    };
    let ev = event.to_string();
    s.push_str(&format!(
        "# Auto-generated by CacheGenie: {class} object '{}'\n",
        obj.def.name
    ));
    s.push_str(&format!(
        "# AFTER {ev} ON {table} FOR EACH ROW ({strategy})\n"
    ));
    s.push_str("import memcache\n");
    s.push_str("cache = memcache.Client(['cachehost:11211'])\n");
    s.push_str(&format!("table = '{table}'\n"));
    s.push_str(&format!("key_columns = {:?}\n", obj.def.where_fields));
    match event {
        TriggerEvent::Insert => s.push_str("row = trigger_data['new']\n"),
        TriggerEvent::Delete => s.push_str("row = trigger_data['old']\n"),
        TriggerEvent::Update => {
            s.push_str("old_row = trigger_data['old']\n");
            s.push_str("row = trigger_data['new']\n");
        }
    }
    if on_link_target {
        s.push_str("# reverse-map the joined row to affected base rows\n");
        s.push_str(&format!(
            "base_rows = plpy.execute(\"{}\", [row[{}]])\n",
            obj.link
                .as_ref()
                .map(|l| l.reverse_template.to_string())
                .unwrap_or_default(),
            obj.link.as_ref().map(|l| l.target_column_pos).unwrap_or(0),
        ));
        s.push_str("keys = set()\n");
        s.push_str(&format!(
            "for base in base_rows:\n    keys.add('cg:{}:' + ':'.join(str(base[c]) for c in key_columns))\n",
            obj.def.name
        ));
    } else {
        s.push_str(&format!(
            "cache_key = 'cg:{}:' + ':'.join(str(row[c]) for c in key_columns)\n",
            obj.def.name
        ));
        s.push_str("keys = [cache_key]\n");
    }
    if obj.def.strategy == ConsistencyStrategy::Invalidate {
        s.push_str("for key in keys:\n");
        s.push_str("    cache.delete(key)\n");
        return s;
    }
    s.push_str("for key in keys:\n");
    s.push_str("    while True:\n");
    s.push_str("        (cached, cas_token) = cache.gets(key)\n");
    s.push_str("        if cached is None:\n");
    s.push_str("            break  # nothing cached; next read repopulates\n");
    match &obj.def.kind {
        CacheClassKind::Count => {
            let delta = match event {
                TriggerEvent::Insert => "+1",
                TriggerEvent::Delete => "-1",
                TriggerEvent::Update => "0  # adjusted when key columns move",
            };
            s.push_str(&format!("        cached = cached {delta}\n"));
        }
        CacheClassKind::TopK {
            sort_field,
            k,
            reserve,
            ..
        } => {
            s.push_str(&format!("        sort_column = '{sort_field}'\n"));
            s.push_str(&format!("        capacity = {k} + {reserve}\n"));
            match event {
                TriggerEvent::Insert => {
                    s.push_str("        insert_pos = 0\n");
                    s.push_str("        for cached_row in cached:\n");
                    s.push_str("            if row[sort_column] > cached_row[sort_column]:\n");
                    s.push_str("                break\n");
                    s.push_str("            insert_pos += 1\n");
                    s.push_str("        if insert_pos < len(cached) or cached.complete:\n");
                    s.push_str("            cached.insert(insert_pos, row)\n");
                    s.push_str("            del cached[capacity:]\n");
                }
                TriggerEvent::Delete => {
                    s.push_str("        cached = [r for r in cached if r['id'] != row['id']]\n");
                    s.push_str(&format!(
                        "        if len(cached) < {k} and not cached.complete:\n"
                    ));
                    s.push_str("            cache.delete(key)  # reserve exhausted\n");
                    s.push_str("            break\n");
                }
                TriggerEvent::Update => {
                    s.push_str("        cached = [r for r in cached if r['id'] != row['id']]\n");
                    s.push_str("        # reinsert at the new sort position\n");
                    s.push_str("        insert_pos = bisect(cached, row[sort_column])\n");
                    s.push_str("        cached.insert(insert_pos, row)\n");
                }
            }
        }
        _ => match event {
            TriggerEvent::Insert => {
                s.push_str("        cached.append(row)\n");
            }
            TriggerEvent::Delete => {
                s.push_str("        cached = [r for r in cached if r['id'] != row['id']]\n");
            }
            TriggerEvent::Update => {
                s.push_str(
                    "        cached = [row if r['id'] == row['id'] else r for r in cached]\n",
                );
            }
        },
    }
    s.push_str("        if cache.cas(key, cached, cas_token):\n");
    s.push_str("            break\n");
    s.push_str("        # CAS lost the race: reread and retry\n");
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::def::{CacheableDef, SortOrder};
    use genie_orm::{FieldDef, ModelDef, ModelRegistry};
    use genie_storage::ValueType;

    fn registry() -> ModelRegistry {
        let mut reg = ModelRegistry::new();
        reg.register(
            ModelDef::builder("User", "users")
                .field(FieldDef::new("name", ValueType::Text))
                .build(),
        )
        .unwrap();
        reg.register(
            ModelDef::builder("WallPost", "wall")
                .foreign_key("user_id", "User")
                .field(FieldDef::new("date_posted", ValueType::Timestamp))
                .build(),
        )
        .unwrap();
        reg
    }

    fn top_k_obj() -> Arc<ObjectInner> {
        Arc::new(
            ObjectInner::compile(
                CacheableDef::top_k(
                    "latest",
                    "WallPost",
                    "date_posted",
                    SortOrder::Descending,
                    3,
                )
                .where_fields(&["user_id"])
                .reserve(2),
                &registry(),
            )
            .unwrap(),
        )
    }

    fn post(id: i64, user: i64, ts: i64) -> Row {
        genie_storage::row![id, user, Value::Timestamp(ts)]
    }

    fn top_k_list(rows: Vec<Row>, complete: bool) -> EncodedList {
        let data = genie_cache::Payload::TopK { rows, complete }.encode();
        EncodedList::parse(data).unwrap().unwrap()
    }

    /// The stored list of a `Keep` edit, as timestamps and the flag.
    fn kept(edit: Edit) -> (Vec<i64>, bool) {
        let Edit::Keep(edited) = edit else {
            panic!("expected keep");
        };
        let payload = genie_cache::Payload::decode(&edited.data).unwrap();
        let (rows, complete) = payload.as_top_k().unwrap();
        let ts = rows.iter().map(|r| r.get(2).as_timestamp().unwrap());
        (ts.collect(), complete)
    }

    #[test]
    fn top_k_insert_positions() {
        let obj = top_k_obj();
        // Complete list of 2: insert in the middle and at the tail.
        let rows = vec![post(1, 7, 100), post(2, 7, 50)];
        let list = top_k_list(rows.clone(), true);
        let edit = top_k_insert(&obj, &list, &post(3, 7, 75), None).unwrap();
        assert_eq!(kept(edit), (vec![100, 75, 50], true));
        // Tail insert allowed only when complete.
        let edit = top_k_insert(&obj, &list, &post(4, 7, 10), None).unwrap();
        assert_eq!(kept(edit).0.len(), 3);
        let incomplete = top_k_list(rows, false);
        assert!(
            matches!(
                top_k_insert(&obj, &incomplete, &post(4, 7, 10), None).unwrap(),
                Edit::Noop
            ),
            "tail insert into incomplete list must be a no-op"
        );
        // Appends and rank probes decode only the rank column.
        assert_eq!(list.values_decoded(), 4);
    }

    #[test]
    fn top_k_insert_truncates_at_capacity() {
        let obj = top_k_obj(); // capacity 5
        let rows: Vec<Row> = (0..5).map(|i| post(i, 7, 100 - i)).collect();
        let list = top_k_list(rows, true);
        let (ts, complete) = kept(top_k_insert(&obj, &list, &post(99, 7, 98), None).unwrap());
        assert_eq!(ts, vec![100, 99, 98, 98, 97]);
        assert!(!complete, "truncation loses coverage");
    }

    #[test]
    fn top_k_remove_drops_an_exhausted_reserve() {
        let obj = top_k_obj(); // K 3
        let rows: Vec<Row> = (0..3).map(|i| post(i, 7, 100 - i)).collect();
        let incomplete = top_k_list(rows.clone(), false);
        assert!(matches!(
            top_k_remove(&obj, &incomplete, &Value::Int(1)).unwrap(),
            Edit::Drop
        ));
        assert!(matches!(
            top_k_remove(&obj, &incomplete, &Value::Int(9)).unwrap(),
            Edit::Noop
        ));
        let complete = top_k_list(rows, true);
        let edit = top_k_remove(&obj, &complete, &Value::Int(1)).unwrap();
        assert_eq!(kept(edit), (vec![100, 98], true));
    }

    #[test]
    fn source_rendering_is_substantial_and_class_specific() {
        let obj = top_k_obj();
        let src = render_source(&obj, "wall", TriggerEvent::Insert, false);
        assert!(src.lines().count() >= 20, "{src}");
        assert!(src.contains("insert_pos"));
        assert!(src.contains("cas"));
        let del = render_source(&obj, "wall", TriggerEvent::Delete, false);
        assert!(del.contains("reserve exhausted"));
    }

    #[test]
    fn invalidate_strategy_renders_deletes_only() {
        let reg = registry();
        let obj = Arc::new(
            ObjectInner::compile(
                CacheableDef::feature("p", "WallPost")
                    .where_fields(&["user_id"])
                    .strategy(ConsistencyStrategy::Invalidate),
                &reg,
            )
            .unwrap(),
        );
        let src = render_source(&obj, "wall", TriggerEvent::Update, false);
        assert!(src.contains("cache.delete"));
        assert!(!src.contains("cas"));
    }

    #[test]
    fn expire_strategy_builds_no_triggers() {
        let reg = registry();
        let obj = Arc::new(
            ObjectInner::compile(
                CacheableDef::feature("p", "WallPost")
                    .where_fields(&["user_id"])
                    .strategy(ConsistencyStrategy::Expire { ttl: 30 }),
                &reg,
            )
            .unwrap(),
        );
        let cluster = genie_cache::CacheCluster::new(Default::default());
        let handle = cluster.handle(genie_cache::CacheOrigin::Trigger);
        let stats = Arc::new(GenieStats::new());
        let triggers = build_triggers(&obj, &handle, &stats, &GenieConfig::default());
        assert!(triggers.is_empty());
    }

    #[test]
    fn non_link_objects_get_three_triggers() {
        let obj = top_k_obj();
        let cluster = genie_cache::CacheCluster::new(Default::default());
        let handle = cluster.handle(genie_cache::CacheOrigin::Trigger);
        let stats = Arc::new(GenieStats::new());
        let triggers = build_triggers(&obj, &handle, &stats, &GenieConfig::default());
        assert_eq!(triggers.len(), 3);
        assert!(triggers.iter().all(|t| t.table == "wall"));
        assert!(triggers.iter().all(|t| t.source.is_some()));
    }
}
