//! The traced run: per-layer metrics.
//!
//! It makes one untraced wire epoch (for the `server` layer and the
//! server-side page time) and one traced in-process epoch of the same
//! op lists on a fresh deployment: the same [`CONNECTIONS`] threads
//! call the `SocialApp` page functions directly, with
//! [`TimingInterceptor`] installed on the ORM session. Counters come
//! from each layer's public stats calls, as deltas over the measured
//! window of the traced epoch.

use crate::deploy::{deploy, Deployment};
use crate::summary::Summary;
use crate::trace::{self, covered_ns, Span, SpanKind, TimingInterceptor};
use crate::wire::{self, check_state};
use crate::workload::{ConnOps, Op, Workload, CONNECTIONS};
use crate::Metric;
use cachegenie_repro::cache::ClusterStats;
use cachegenie_repro::genie::GenieStatsSnapshot;
use cachegenie_repro::server::{Page, ServerConfig};
use cachegenie_repro::social::{AppEnv, PageStats, SocialApp};
use cachegenie_repro::storage::{
    DbStats, LatchStats, LockStats, PoolStats, Result, StorageError, WalStats,
};
use std::collections::HashMap;
use std::path::Path;
use std::sync::{Arc, Barrier};
use std::time::Instant;

/// Page kinds with a `social.<kind>.p50_us` metric (every kind any
/// workload issues).
const PAGE_KINDS: [Page; 8] = [
    Page::LookupBM,
    Page::LookupFBM,
    Page::CreateBM,
    Page::AcceptFR,
    Page::Wall,
    Page::Groups,
    Page::PostWall,
    Page::BatchPost,
];

/// Largest tolerated gap between a page kind's mean page span and the
/// sum of its layers' self times, as a share of the page span.
const RECONCILE_LIMIT: f64 = 0.10;

/// Attempts per page before a retryable error counts as a failure.
const MAX_ATTEMPTS: u32 = 100;

#[derive(Clone, Copy)]
struct Counters {
    genie: GenieStatsSnapshot,
    cache: ClusterStats,
    db: DbStats,
    locks: LockStats,
    latches: LatchStats,
    pool: PoolStats,
    wal: Option<WalStats>,
}

fn counters(env: &AppEnv) -> Counters {
    Counters {
        genie: env.genie.stats(),
        cache: env.cluster.stats(),
        db: env.db.stats(),
        locks: env.db.lock_stats(),
        latches: env.db.latch_stats(),
        pool: env.db.pool_stats(),
        wal: env.db.wal_stats(),
    }
}

/// Renders one page in process, as the server's page dispatch does.
fn render(app: &SocialApp, op: &Op) -> Result<PageStats> {
    let user = op.user;
    match op.kind {
        Page::LookupBM => app.lookup_bm(user),
        Page::LookupFBM => app.lookup_fbm(user),
        Page::CreateBM => {
            let n = op.arg.unwrap_or(user);
            app.create_bm(user, &format!("http://bookmark.example/{n}"))
        }
        Page::AcceptFR => app.accept_fr(user, op.arg.unwrap_or(user + 1)),
        Page::Wall => app.view_wall(user),
        Page::PostWall => {
            let wall = op.arg.unwrap_or(user);
            app.post_wall(wall, user, &format!("post from {user}"))
        }
        Page::BatchPost => app.post_wall_batch(
            op.arg.unwrap_or(user),
            user,
            ServerConfig::default().batch_posts,
            false,
        ),
        Page::Groups => app.view_groups(user),
        other => Err(StorageError::Unsupported(format!(
            "page {} is not in any workload",
            other.name()
        ))),
    }
}

fn is_retryable(e: &StorageError) -> bool {
    matches!(
        e,
        StorageError::Deadlock { .. }
            | StorageError::WriteConflict { .. }
            | StorageError::LockTimeout { .. }
            | StorageError::TransactionAborted(_)
    )
}

#[derive(Default)]
struct ThreadOut {
    pages: u64,
    retries: u64,
    failed: u64,
    stats: PageStats,
    spans: Vec<Span>,
    violations: Vec<String>,
}

/// Renders `op` (retrying retryable aborts) as request `request`; each
/// attempt is one page span.
fn run_op(app: &SocialApp, op: &Op, request: u64, out: &mut ThreadOut) {
    for _ in 0..MAX_ATTEMPTS {
        match trace::page(request, op.kind, || render(app, op)) {
            Ok(stats) => {
                out.pages += 1;
                out.stats.merge(&stats);
                return;
            }
            Err(e) if is_retryable(&e) => out.retries += 1,
            Err(e) => {
                out.failed += 1;
                out.violations.push(format!("{op:?} failed: {e}"));
                return;
            }
        }
    }
    out.failed += 1;
    out.violations.push(format!(
        "{op:?} still aborted after {MAX_ATTEMPTS} attempts"
    ));
}

struct TracedEpoch {
    out: ThreadOut,
    before: Counters,
    after: Counters,
    history_versions: u64,
    recovery_ms: Option<f64>,
}

fn traced_epoch(
    w: &Workload,
    ops: &[ConnOps],
    wal_dir: &Path,
) -> std::result::Result<TracedEpoch, String> {
    let dep: Deployment = deploy(w, wal_dir).map_err(|e| format!("deploy: {e}"))?;
    let env = &dep.env;
    env.app
        .session()
        .set_interceptor(Arc::new(TimingInterceptor {
            inner: env.genie.clone(),
        }));
    let ready = Barrier::new(CONNECTIONS + 1);
    let go = Barrier::new(CONNECTIONS + 1);
    let base = Instant::now();
    let mut before = None;
    let outs: Vec<ThreadOut> = std::thread::scope(|s| {
        let handles: Vec<_> = ops
            .iter()
            .enumerate()
            .map(|(conn, conn_ops)| {
                let app = env.app.clone();
                let (ready, go) = (&ready, &go);
                s.spawn(move || {
                    let mut warm = ThreadOut::default();
                    for op in &conn_ops.warmup {
                        run_op(&app, op, 0, &mut warm);
                    }
                    ready.wait();
                    go.wait();
                    let mut out = ThreadOut {
                        failed: warm.failed,
                        violations: warm.violations,
                        ..ThreadOut::default()
                    };
                    trace::start(base, conn_ops.measured.len() * 24);
                    for (i, op) in conn_ops.measured.iter().enumerate() {
                        run_op(&app, op, ((conn as u64) << 32) | i as u64, &mut out);
                    }
                    out.spans = trace::finish();
                    out
                })
            })
            .collect();
        ready.wait();
        before = Some(counters(env));
        go.wait();
        handles
            .into_iter()
            .map(|h| h.join().expect("traced thread panicked"))
            .collect()
    });
    let after = counters(env);
    let mut out = ThreadOut::default();
    for o in outs {
        out.pages += o.pages;
        out.retries += o.retries;
        out.failed += o.failed;
        out.stats.merge(&o.stats);
        out.spans.extend(o.spans);
        out.violations.extend(o.violations);
    }
    let history_versions = env.db.version_stats().history_versions;
    let mut recovery_ms = None;
    check_state(&dep, &mut out.violations, &mut recovery_ms);
    drop(dep);
    let _ = std::fs::remove_dir_all(wal_dir);
    Ok(TracedEpoch {
        out,
        before: before.expect("snapshot taken before the window"),
        after,
        history_versions,
        recovery_ms,
    })
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Per-kind span ledger of the traced epoch.
#[derive(Default, Clone, Copy)]
struct KindLedger {
    pages: u64,
    page_ns: u64,
    core_ns: u64,
    storage_ns: u64,
}

/// The traced run of `w`: returns (correct, attempted, failed, metrics).
pub fn traced(w: &Workload, seed: u64, run_dir: &Path) -> (bool, u64, u64, Vec<Metric>) {
    let ops = crate::workload::generate(w, seed);
    let wire = wire::run_epoch(w, &ops, &run_dir.join("wal-wire"));
    let mut violations: Vec<String> = wire
        .violations
        .iter()
        .map(|v| format!("wire: {v}"))
        .collect();
    let te = match traced_epoch(w, &ops, &run_dir.join("wal-traced")) {
        Ok(te) => te,
        Err(e) => {
            println!("VIOLATION traced: {e}");
            return (false, 1, 1, Vec::new());
        }
    };
    violations.extend(te.out.violations.iter().map(|v| format!("traced: {v}")));
    let pages = te.out.pages as f64;
    let per_page = |v: u64| ratio(v as f64, pages);
    let mut m = Vec::new();

    // server: from the untraced wire epoch.
    let client = Summary::of(wire.latencies_s.iter().copied());
    m.push(Metric::new(
        "server.overhead_us",
        (client.mean() - wire.server_page_mean_s) * 1e6,
        "us",
    ));
    m.push(Metric::new(
        "server.page_p99_ms",
        wire.server_page_p99_s * 1e3,
        "ms",
    ));
    m.push(Metric::new("server.shed", wire.shed as f64, "count"));
    m.push(Metric::new(
        "server.retryable",
        wire.retryable as f64,
        "count",
    ));

    // Spans: page spans by (thread-unique request, id), core spans by
    // their parent.
    let spans = &te.out.spans;
    let mut children: HashMap<(u64, u32), Vec<(u64, u64)>> = HashMap::new();
    let mut core_ns_total = 0u64;
    let mut orphans = 0u64;
    let page_ids: std::collections::HashSet<(u64, u32)> = spans
        .iter()
        .filter(|s| s.parent.is_none())
        .map(|s| (s.request, s.id))
        .collect();
    let mut per_outcome: HashMap<&'static str, (u64, u64)> = HashMap::new();
    for s in spans {
        let Some(parent) = s.parent else { continue };
        if !page_ids.contains(&(s.request, parent)) {
            orphans += 1;
        }
        children
            .entry((s.request, parent))
            .or_default()
            .push((s.start_ns, s.end_ns));
        core_ns_total += s.ns();
        let name = match s.kind {
            SpanKind::Hit => "hit",
            SpanKind::Miss => "miss",
            SpanKind::Pass => "pass",
            SpanKind::Fill => "fill",
            SpanKind::Page(_) => unreachable!("page spans have no parent"),
        };
        let e = per_outcome.entry(name).or_default();
        e.0 += 1;
        e.1 += s.ns();
    }
    let mut ledger: HashMap<Page, KindLedger> = HashMap::new();
    let mut page_durations: HashMap<Page, Vec<f64>> = HashMap::new();
    let mut page_ns_total = 0u64;
    let mut storage_ns_total = 0u64;
    for s in spans {
        let SpanKind::Page(kind) = s.kind else {
            continue;
        };
        let mut kids = children.remove(&(s.request, s.id)).unwrap_or_default();
        let core: u64 = kids.iter().map(|&(a, b)| b - a).sum();
        let covered = covered_ns(s.start_ns, s.end_ns, &mut kids);
        let storage = s.ns() - covered;
        let l = ledger.entry(kind).or_default();
        l.pages += 1;
        l.page_ns += s.ns();
        l.core_ns += core;
        l.storage_ns += storage;
        page_ns_total += s.ns();
        storage_ns_total += storage;
        page_durations
            .entry(kind)
            .or_default()
            .push(s.ns() as f64 / 1e3);
    }
    let page_spans = page_ids.len() as f64;

    // social
    for kind in PAGE_KINDS {
        let mut d = Summary::of(page_durations.remove(&kind).unwrap_or_default());
        if d.len() > 0 {
            println!(
                "social.{}: {} page spans, p50 {:.1} us, {}",
                kind.name(),
                d.len(),
                d.median(),
                d.tail_line(1.0, " us")
            );
        }
        m.push(Metric::new(
            format!("social.{}.p50_us", kind.name()),
            d.median(),
            "us",
        ));
    }
    let st = &te.out.stats;
    m.push(Metric::new(
        "social.queries_per_page",
        per_page(st.queries),
        "count",
    ));
    m.push(Metric::new(
        "social.cache_hit_queries_per_page",
        per_page(st.cache_hit_queries),
        "count",
    ));
    m.push(Metric::new(
        "social.writes_per_page",
        per_page(st.writes),
        "count",
    ));

    // core
    let (b, a) = (&te.before, &te.after);
    for (name, calls) in [
        ("hit", "hits"),
        ("miss", "misses"),
        ("pass", "passes"),
        ("fill", "fills"),
    ] {
        let (n, ns) = per_outcome.get(name).copied().unwrap_or_default();
        m.push(Metric::new(
            format!("core.{name}_us"),
            ratio(ns as f64, n as f64) / 1e3,
            "us",
        ));
        m.push(Metric::new(
            format!("core.{calls}_per_page"),
            ratio(n as f64, page_spans),
            "count",
        ));
    }
    m.push(Metric::new(
        "core.self_us_per_page",
        ratio(core_ns_total as f64, page_spans) / 1e3,
        "us",
    ));
    let g = |f: fn(&GenieStatsSnapshot) -> u64| f(&a.genie) - f(&b.genie);
    let hits = g(|s| s.cache_hits);
    m.push(Metric::new(
        "core.hit_ratio",
        ratio(hits as f64, (hits + g(|s| s.cache_misses)) as f64),
        "ratio",
    ));
    m.push(Metric::new(
        "core.inplace_updates",
        g(|s| s.inplace_updates) as f64,
        "count",
    ));
    m.push(Metric::new(
        "core.invalidations",
        g(|s| s.invalidations) as f64,
        "count",
    ));
    m.push(Metric::new(
        "core.fills_dropped",
        g(|s| s.fills_dropped) as f64,
        "count",
    ));
    m.push(Metric::new(
        "core.cas_conflicts",
        g(|s| s.cas_conflicts) as f64,
        "count",
    ));
    m.push(Metric::new(
        "core.trigger_noops",
        g(|s| s.trigger_noops) as f64,
        "count",
    ));
    m.push(Metric::new(
        "core.coalesce_ratio",
        ratio(
            g(|s| s.commit_cache_ops) as f64,
            g(|s| s.commit_cache_ops_naive) as f64,
        ),
        "ratio",
    ));

    // cache
    let c = |f: fn(&ClusterStats) -> u64| f(&a.cache) - f(&b.cache);
    let store_hits = c(|s| s.store.hits);
    m.push(Metric::new(
        "cache.hit_ratio",
        ratio(
            store_hits as f64,
            (store_hits + c(|s| s.store.misses)) as f64,
        ),
        "ratio",
    ));
    let evictions = c(|s| s.store.evictions);
    m.push(Metric::new("cache.evictions", evictions as f64, "count"));
    m.push(Metric::new(
        "cache.bytes_used",
        a.cache.bytes_used as f64,
        "bytes",
    ));
    m.push(Metric::new("cache.items", a.cache.items as f64, "count"));
    m.push(Metric::new(
        "cache.trigger_gets",
        c(|s| s.store.trigger_hits + s.store.trigger_misses) as f64,
        "count",
    ));
    m.push(Metric::new(
        "cache.cas_conflicts",
        c(|s| s.store.cas_conflicts) as f64,
        "count",
    ));

    // storage (the ORM's work is inside the same uncovered page time)
    let cost = &st.db_cost;
    m.push(Metric::new(
        "storage.self_us_per_page",
        ratio(storage_ns_total as f64, page_spans) / 1e3,
        "us",
    ));
    m.push(Metric::new(
        "storage.rows_scanned_per_page",
        per_page(cost.rows_scanned),
        "count",
    ));
    m.push(Metric::new(
        "storage.rows_returned_per_page",
        per_page(cost.rows_returned),
        "count",
    ));
    m.push(Metric::new(
        "storage.scan_ratio",
        ratio(cost.rows_scanned as f64, cost.rows_returned as f64),
        "ratio",
    ));
    m.push(Metric::new(
        "storage.sort_rows_per_page",
        per_page(cost.sort_rows),
        "count",
    ));
    m.push(Metric::new(
        "storage.index_probes_per_page",
        per_page(cost.index_probes),
        "count",
    ));
    m.push(Metric::new(
        "storage.rows_written_per_page",
        per_page(cost.rows_written),
        "count",
    ));
    m.push(Metric::new(
        "storage.trigger_rows_scanned_per_page",
        per_page(cost.trigger_rows_scanned),
        "count",
    ));
    m.push(Metric::new(
        "storage.triggers_fired_per_page",
        per_page(cost.triggers_fired),
        "count",
    ));
    m.push(Metric::new(
        "storage.statements_per_page",
        per_page(a.db.statements - b.db.statements),
        "count",
    ));
    m.push(Metric::new(
        "storage.commits",
        (a.db.commits - b.db.commits) as f64,
        "count",
    ));
    m.push(Metric::new(
        "storage.rollbacks",
        (a.db.rollbacks - b.db.rollbacks) as f64,
        "count",
    ));
    m.push(Metric::new(
        "storage.lock_waits",
        (a.locks.waits - b.locks.waits) as f64,
        "count",
    ));
    m.push(Metric::new(
        "storage.deadlocks",
        (a.locks.deadlocks - b.locks.deadlocks) as f64,
        "count",
    ));
    m.push(Metric::new(
        "storage.latch_waits",
        (a.latches.total_waits() - b.latches.total_waits()) as f64,
        "count",
    ));
    m.push(Metric::new(
        "storage.history_versions",
        te.history_versions as f64,
        "count",
    ));
    let misses = a.pool.misses - b.pool.misses;
    m.push(Metric::new(
        "storage.pool_miss_ratio",
        ratio(misses as f64, (misses + a.pool.hits - b.pool.hits) as f64),
        "ratio",
    ));

    // wal
    let wal = match (b.wal, a.wal) {
        (Some(wb), Some(wa)) => Some((wb, wa)),
        _ => None,
    };
    let wd = |f: fn(&WalStats) -> u64| wal.map_or(0, |(wb, wa)| f(&wa) - f(&wb));
    m.push(Metric::new(
        "wal.syncs_per_page",
        per_page(wd(|s| s.syncs)),
        "count",
    ));
    m.push(Metric::new(
        "wal.records_per_batch",
        ratio(wd(|s| s.records) as f64, wd(|s| s.batches) as f64),
        "count",
    ));
    m.push(Metric::new(
        "wal.bytes_per_row_written",
        ratio(wd(|s| s.bytes) as f64, cost.rows_written as f64),
        "bytes",
    ));
    m.push(Metric::new(
        "wal.checkpoints",
        wd(|s| s.checkpoints) as f64,
        "count",
    ));
    m.push(Metric::new(
        "wal.recovery_ms",
        te.recovery_ms.or(wire.recovery_ms).unwrap_or(0.0),
        "ms",
    ));

    // trace: overhead against the untraced server-side page time, and
    // the per-kind reconciliation of layer self times with page spans.
    let traced_page_mean_s = ratio(page_ns_total as f64, page_spans) / 1e9;
    m.push(Metric::new(
        "trace.overhead_us",
        (traced_page_mean_s - wire.server_page_mean_s) * 1e6,
        "us",
    ));
    let mut worst = 0.0f64;
    let mut kinds: Vec<_> = ledger.into_iter().collect();
    kinds.sort_by_key(|(k, _)| k.index());
    for (kind, l) in kinds {
        let n = l.pages as f64;
        let page_us = l.page_ns as f64 / n / 1e3;
        let core_us = l.core_ns as f64 / n / 1e3;
        let storage_us = l.storage_ns as f64 / n / 1e3;
        let residual = ratio(page_us - core_us - storage_us, page_us);
        worst = worst.max(residual.abs());
        println!(
            "reconcile {:<11} page {page_us:>9.1} us = core {core_us:>8.1} + storage {storage_us:>9.1} (residual {:+.4}%)",
            kind.name(),
            residual * 100.0
        );
    }
    m.push(Metric::new(
        "trace.reconcile_residual_pct",
        worst * 100.0,
        "%",
    ));
    if worst > RECONCILE_LIMIT || orphans > 0 {
        violations.push(format!(
            "layer times do not reconcile with page spans: worst residual {:.2}%, {orphans} orphan spans",
            worst * 100.0
        ));
    }
    println!(
        "traced pages {} ({} retried attempts); tracing overhead {:+.1} us on a {:.1} us server-side page",
        te.out.pages,
        te.out.retries,
        (traced_page_mean_s - wire.server_page_mean_s) * 1e6,
        wire.server_page_mean_s * 1e6
    );

    // Workload separation: each workload exercises the layers it was
    // chosen for and bypasses the others.
    if (evictions > 0) != w.expect_evictions {
        violations.push(format!(
            "cache.evictions = {evictions}, expected {}",
            if w.expect_evictions { "> 0" } else { "0" }
        ));
    }
    if a.wal.is_some() != w.durable {
        violations.push("a write-ahead log exists exactly when the workload is durable".to_owned());
    }
    let inplace = g(|s| s.inplace_updates);
    if !w.writes() && inplace != 0 {
        violations.push(format!("read-only mix made {inplace} in-place updates"));
    }
    for v in &violations {
        println!("VIOLATION {v}");
    }
    let failed = wire.failed + te.out.failed;
    let attempted = te.out.pages + wire.ok + failed;
    (violations.is_empty(), attempted.max(1), failed, m)
}
