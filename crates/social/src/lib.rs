//! # genie-social
//!
//! The evaluation application of the CacheGenie reproduction: a
//! Pinax-style social network (profiles, friends, bookmarks, wall,
//! groups) built on [`genie_orm`], with the paper's four workload actions
//! (LookupBM / LookupFBM / CreateBM / AcceptFR) as realistic multi-query
//! page loads, the §5.2 set of **14 cached-object definitions**, and a
//! scale-configurable seed-data generator.
//!
//! # Example
//!
//! ```
//! use genie_social::{build_app, AppConfig};
//! use cachegenie::ConsistencyStrategy;
//!
//! # fn main() -> Result<(), genie_storage::StorageError> {
//! let env = build_app(&AppConfig {
//!     seed: genie_social::SeedConfig::tiny(),
//!     strategy: Some(ConsistencyStrategy::UpdateInPlace),
//!     ..Default::default()
//! })?;
//! let stats = env.app.lookup_bm(1)?;
//! assert!(stats.queries >= 5);
//! # Ok(())
//! # }
//! ```

pub mod app;
pub mod cached_objects;
pub mod models;
pub mod seed;

pub use app::{PageStats, SocialApp};
pub use cached_objects::{cached_object_defs, define_cached_objects, sweep_coherence};
pub use models::{build_registry, invitation_status};
pub use seed::{seed, SeedConfig, SeedStats};

use cachegenie::{CacheGenie, ConsistencyStrategy, GenieConfig};
use genie_cache::{CacheCluster, ClusterConfig};
use genie_orm::OrmSession;
use genie_storage::{Database, DbConfig, Result};
use std::sync::Arc;

/// Everything a deployment of the social app consists of.
#[derive(Debug, Clone)]
pub struct AppEnv {
    /// The application facade.
    pub app: SocialApp,
    /// The underlying database.
    pub db: Database,
    /// The cache cluster.
    pub cluster: CacheCluster,
    /// The middleware (present even in NoCache mode, with no objects).
    pub genie: CacheGenie,
    /// How many cached objects were declared.
    pub cached_objects: usize,
    /// What the seeder created.
    pub seeded: SeedStats,
}

/// One-call deployment configuration.
#[derive(Debug, Clone)]
pub struct AppConfig {
    /// Database tuning (buffer pool size drives the disk/CPU dynamics).
    pub db: DbConfig,
    /// Cache cluster shape and capacity.
    pub cluster: ClusterConfig,
    /// CacheGenie tuning.
    pub genie: GenieConfig,
    /// Seed-data scale.
    pub seed: SeedConfig,
    /// `None` = NoCache (no cached objects, no interception);
    /// `Some(strategy)` = declare the 14 objects with that strategy.
    pub strategy: Option<ConsistencyStrategy>,
}

impl Default for AppConfig {
    fn default() -> Self {
        AppConfig {
            db: DbConfig::default(),
            cluster: ClusterConfig::default(),
            genie: GenieConfig::default(),
            seed: SeedConfig::default(),
            strategy: Some(ConsistencyStrategy::UpdateInPlace),
        }
    }
}

/// Builds, seeds, and wires a complete deployment: database + registry
/// sync, seed data, cache cluster, CacheGenie with the 14 cached objects
/// (unless NoCache), interceptor installation.
///
/// # Errors
///
/// Propagates schema, seeding, and declaration errors.
pub fn build_app(config: &AppConfig) -> Result<AppEnv> {
    build_app_on(Database::new(config.db.clone()), config)
}

/// Like [`build_app`], but wires the deployment around an existing
/// database — in particular one reopened with
/// [`Database::open_with_recovery`] after a crash. Schema sync is
/// idempotent over the recovered catalog, and seeding runs only when the
/// `users` table is empty: recovered data is never re-seeded on top of
/// itself.
///
/// # Errors
///
/// Propagates schema, seeding, and declaration errors.
pub fn build_app_on(db: Database, config: &AppConfig) -> Result<AppEnv> {
    let registry = Arc::new(models::build_registry()?);
    registry.sync(&db)?;
    let session = OrmSession::new(db.clone(), Arc::clone(&registry));
    let app = SocialApp::new(session.clone());
    // Seed before declaring cached objects so the bulk load pays no
    // trigger costs (the paper seeds offline, then measures). A database
    // that already carries data (a recovered one) keeps what it has.
    let seeded = if db.row_count("users")? == 0 {
        seed::seed(&app, &config.seed)?
    } else {
        SeedStats {
            users: db.row_count("users")?,
            rows: 0,
        }
    };
    let cluster = CacheCluster::new(config.cluster.clone());
    let genie = CacheGenie::new(
        db.clone(),
        cluster.clone(),
        Arc::clone(&registry),
        config.genie.clone(),
    );
    let cached_objects = match config.strategy {
        Some(strategy) => {
            let n = cached_objects::define_cached_objects(&genie, strategy)?;
            genie.install(&session);
            n
        }
        None => 0,
    };
    Ok(AppEnv {
        app,
        db,
        cluster,
        genie,
        cached_objects,
        seeded,
    })
}
