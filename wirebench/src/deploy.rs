//! Building one deployment of the social app for a workload, and the
//! correctness checks every run ends with.

use crate::workload::Workload;
use cachegenie_repro::cache::ClusterConfig;
use cachegenie_repro::genie::ConsistencyStrategy;
use cachegenie_repro::social::{build_app, build_app_on, AppConfig, AppEnv, SeedConfig};
use cachegenie_repro::storage::{Database, DbConfig, Result, StorageError, Value, WalConfig};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// The per-user cached objects the post-drain sweep cross-checks.
pub const PER_USER_OBJECTS: [&str; 7] = [
    "latest_wall_posts",
    "wall_post_count",
    "user_by_id",
    "profile_by_user",
    "friends_of_user",
    "friend_count",
    "user_bookmark_count",
];

/// One deployment: the app over its database and cache, plus the log
/// directory when durable.
pub struct Deployment {
    /// The deployment.
    pub env: AppEnv,
    /// Write-ahead-log directory (durable workloads only).
    pub wal_dir: Option<PathBuf>,
}

fn app_config(w: &Workload) -> AppConfig {
    AppConfig {
        cluster: ClusterConfig {
            capacity_bytes: w.cache_bytes,
            ..ClusterConfig::default()
        },
        seed: SeedConfig {
            users: w.users,
            ..SeedConfig::default()
        },
        strategy: Some(ConsistencyStrategy::UpdateInPlace),
        ..AppConfig::default()
    }
}

/// The write-ahead-log settings of the durable workload: group commit,
/// no simulated device delay, the default checkpoint cadence.
pub fn wal_config() -> WalConfig {
    WalConfig {
        sync_delay_us: 0,
        ..WalConfig::default()
    }
}

/// Builds and seeds a deployment for `w`. A durable one logs into
/// `wal_dir`, which must not exist yet.
///
/// # Errors
///
/// Schema, seeding, declaration, and log errors.
pub fn deploy(w: &Workload, wal_dir: &Path) -> Result<Deployment> {
    let cfg = app_config(w);
    if !w.durable {
        return Ok(Deployment {
            env: build_app(&cfg)?,
            wal_dir: None,
        });
    }
    let db = Database::create_durable(wal_dir, DbConfig::default(), wal_config())?;
    Ok(Deployment {
        env: build_app_on(db, &cfg)?,
        wal_dir: Some(wal_dir.to_path_buf()),
    })
}

/// Cross-checks every per-user cached object of every seeded user
/// against the database; returns (objects checked, incoherent ones).
///
/// # Errors
///
/// Database errors from the sweep's queries.
pub fn coherence_sweep(env: &AppEnv) -> Result<(u64, Vec<String>)> {
    let mut checked = 0;
    let mut bad = Vec::new();
    for user in 1..=env.seeded.users as i64 {
        let params = [Value::Int(user)];
        for name in PER_USER_OBJECTS {
            checked += 1;
            if !env.genie.verify_coherence(name, &params)? {
                bad.push(format!("{name}({user})"));
            }
        }
    }
    Ok((checked, bad))
}

/// Recovers a copy of the (flushed, quiescent) log of `db` and compares
/// the recovered state's digest with the live one. Returns whether
/// they match and how long recovery took, in milliseconds.
///
/// # Errors
///
/// Copy and recovery errors.
pub fn reopen_check(db: &Database, wal_dir: &Path) -> Result<(bool, f64)> {
    db.wal_flush()?;
    let live = db.content_digest();
    let copy = wal_dir.with_extension("reopen");
    copy_dir(wal_dir, &copy)
        .map_err(|e| StorageError::Wal(format!("copy log {}: {e}", wal_dir.display())))?;
    let t0 = Instant::now();
    let (recovered, _report) = Database::open_with(&copy, DbConfig::default(), wal_config())?;
    let recovery_ms = t0.elapsed().as_secs_f64() * 1e3;
    let same = recovered.content_digest() == live;
    drop(recovered);
    let _ = std::fs::remove_dir_all(&copy);
    Ok((same, recovery_ms))
}

fn copy_dir(from: &Path, to: &Path) -> std::io::Result<()> {
    std::fs::create_dir_all(to)?;
    for entry in std::fs::read_dir(from)? {
        let entry = entry?;
        if entry.file_type()?.is_file() {
            std::fs::copy(entry.path(), to.join(entry.file_name()))?;
        }
    }
    Ok(())
}
