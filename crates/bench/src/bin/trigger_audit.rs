//! Effect-pipeline audit: cache ops and trigger firings per workload mix,
//! with a committed baseline so effect-coalescing regressions gate CI —
//! the write-path analogue of `plan_audit`.
//!
//! Runs a small deterministic workload per cache mode (including a
//! transactional batch-post share with aborts) and records the counters
//! that define the commit pipeline's efficiency: triggers fired, physical
//! commit cache ops vs the per-statement naive baseline, rollbacks. It
//! also records what the trigger bodies did to each cached object
//! (in-place updates, invalidations, key drops, no-ops).
//!
//! ```text
//! cargo run --release -p genie-bench --bin trigger_audit                    # report
//! cargo run --release -p genie-bench --bin trigger_audit -- --check        # CI gate
//! cargo run --release -p genie-bench --bin trigger_audit -- --write-baseline
//! ```
//!
//! `--check` fails when triggers fired or cache ops *increase* against the
//! baseline (a coalescing regression), when the deterministic
//! commit/rollback counts drift (the workload changed — regenerate), when
//! coalesced ops exceed the naive baseline (coalescing is broken), or when
//! any edit-outcome count differs from the baseline: a change to how
//! triggers apply their edits must leave the edits themselves unchanged.

use genie_social::SeedConfig;
use genie_workload::{run, CacheMode, WorkloadConfig};

const BASELINE_PATH: &str = "crates/bench/trigger_audit.baseline";

struct Audit {
    name: String,
    commits: u64,
    rollbacks: u64,
    triggers_fired: u64,
    commit_cache_ops: u64,
    commit_cache_ops_naive: u64,
    /// Edit outcomes: in-place updates, invalidations, key drops, no-ops.
    outcomes: [u64; 4],
}

fn config(mode: CacheMode) -> WorkloadConfig {
    WorkloadConfig {
        mode,
        clients: 6,
        sessions_per_client: 8,
        warmup_sessions_per_client: 2,
        pages_per_session: 8,
        seed: SeedConfig {
            users: 120,
            rng_seed: 7,
            ..Default::default()
        },
        db_buffer_pool_bytes: 256 * 1024,
        rng_seed: 11,
        ..Default::default()
    }
}

fn audit(name: &str, cfg: &WorkloadConfig) -> Audit {
    let r = run(cfg).expect("workload run");
    Audit {
        name: name.to_owned(),
        commits: r.db_stats.commits,
        rollbacks: r.db_stats.rollbacks,
        triggers_fired: r.db_stats.triggers_fired,
        commit_cache_ops: r.genie_stats.commit_cache_ops,
        commit_cache_ops_naive: r.genie_stats.commit_cache_ops_naive,
        outcomes: [
            r.genie_stats.inplace_updates,
            r.genie_stats.invalidations,
            r.genie_stats.key_drops,
            r.genie_stats.trigger_noops,
        ],
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let check = args.iter().any(|a| a == "--check");
    let write = args.iter().any(|a| a == "--write-baseline");

    let mut audits = Vec::new();
    for mode in [CacheMode::Update, CacheMode::Invalidate] {
        // The paper's plain per-statement mix…
        audits.push(audit(&format!("{}/plain", mode.label()), &config(mode)));
        // …and the transactional mix exercising the commit pipeline.
        let mut cfg = config(mode);
        cfg.mix.batch_post = 20;
        cfg.batch_abort_pct = 25;
        audits.push(audit(&format!("{}/batch", mode.label()), &cfg));
    }

    println!(
        "{:<20} {:>8} {:>9} {:>9} {:>11} {:>11} {:>8} {:>8} {:>6} {:>6}",
        "mix",
        "commits",
        "rollbacks",
        "triggers",
        "commit_ops",
        "naive_ops",
        "inplace",
        "invalid",
        "drops",
        "noops"
    );
    for a in &audits {
        let [inplace, invalid, drops, noops] = a.outcomes;
        println!(
            "{:<20} {:>8} {:>9} {:>9} {:>11} {:>11} {:>8} {:>8} {:>6} {:>6}",
            a.name,
            a.commits,
            a.rollbacks,
            a.triggers_fired,
            a.commit_cache_ops,
            a.commit_cache_ops_naive,
            inplace,
            invalid,
            drops,
            noops,
        );
    }

    if write {
        std::fs::write(BASELINE_PATH, render_baseline(&audits)).expect("write baseline");
        println!("\nwrote {BASELINE_PATH}");
        return;
    }
    if check {
        match std::fs::read_to_string(BASELINE_PATH) {
            Ok(baseline) => {
                let failures = check_against(&audits, &baseline);
                if failures.is_empty() {
                    println!("\ntrigger_audit --check: all effect counters within baseline");
                } else {
                    eprintln!("\ntrigger_audit --check: {} regression(s):", failures.len());
                    for f in &failures {
                        eprintln!("  {f}");
                    }
                    std::process::exit(1);
                }
            }
            Err(e) => {
                eprintln!("trigger_audit --check: cannot read {BASELINE_PATH}: {e}");
                std::process::exit(1);
            }
        }
    }
}

const OUTCOMES: [&str; 4] = [
    "inplace_updates",
    "invalidations",
    "key_drops",
    "trigger_noops",
];

fn render_baseline(audits: &[Audit]) -> String {
    let mut out = format!(
        "# trigger_audit baseline: mix|commits|rollbacks|triggers_fired|commit_cache_ops|commit_cache_ops_naive|{}\n\
         # Regenerate with: cargo run --release -p genie-bench --bin trigger_audit -- --write-baseline\n",
        OUTCOMES.join("|")
    );
    for a in audits {
        let [inplace, invalid, drops, noops] = a.outcomes;
        out.push_str(&format!(
            "{}|{}|{}|{}|{}|{}|{inplace}|{invalid}|{drops}|{noops}\n",
            a.name,
            a.commits,
            a.rollbacks,
            a.triggers_fired,
            a.commit_cache_ops,
            a.commit_cache_ops_naive,
        ));
    }
    out
}

fn check_against(audits: &[Audit], baseline: &str) -> Vec<String> {
    let mut failures = Vec::new();
    let mut seen = 0usize;
    for line in baseline.lines() {
        if line.starts_with('#') || line.trim().is_empty() {
            continue;
        }
        let parts: Vec<&str> = line.split('|').collect();
        if parts.len() != 10 {
            failures.push(format!("malformed baseline line: {line}"));
            continue;
        }
        let nums: Vec<u64> = parts[1..]
            .iter()
            .filter_map(|p| p.parse::<u64>().ok())
            .collect();
        if nums.len() != 9 {
            failures.push(format!(
                "{}: non-numeric baseline counters: {line}",
                parts[0]
            ));
            continue;
        }
        let (commits, rollbacks, triggers, ops) = (nums[0], nums[1], nums[2], nums[3]);
        let Some(a) = audits.iter().find(|a| a.name == parts[0]) else {
            failures.push(format!("{}: mix disappeared from the audit", parts[0]));
            continue;
        };
        seen += 1;
        // The workload is deterministic: drifted txn counts mean the
        // scenario itself changed and the baseline must be regenerated.
        if a.commits != commits || a.rollbacks != rollbacks {
            failures.push(format!(
                "{}: txn counts drifted (commits {commits} -> {}, rollbacks {rollbacks} -> {})",
                a.name, a.commits, a.rollbacks
            ));
        }
        if a.triggers_fired > triggers {
            failures.push(format!(
                "{}: triggers_fired regressed ({triggers} -> {})",
                a.name, a.triggers_fired
            ));
        }
        if a.commit_cache_ops > ops {
            failures.push(format!(
                "{}: commit cache ops regressed ({ops} -> {})",
                a.name, a.commit_cache_ops
            ));
        }
        if a.commit_cache_ops > a.commit_cache_ops_naive {
            failures.push(format!(
                "{}: coalesced ops ({}) exceed the naive baseline ({}) — coalescing broken",
                a.name, a.commit_cache_ops, a.commit_cache_ops_naive
            ));
        }
        for ((name, &want), &got) in OUTCOMES.iter().zip(&nums[5..]).zip(&a.outcomes) {
            if got != want {
                failures.push(format!("{}: {name} drifted ({want} -> {got})", a.name));
            }
        }
    }
    if seen < audits.len() {
        failures.push(format!(
            "baseline covers {seen} of {} audited mixes — regenerate with --write-baseline",
            audits.len()
        ));
    }
    failures
}
