//! Concurrency: many clients hammering one server must produce zero
//! snapshot violations (every `snapshot` page sees a stable repeat
//! read), zero leaked sessions (the pool returns to fully idle), and a
//! coherent cache.

use genie_server::{Page, Response, ServeClient, Server, ServerConfig};
use genie_social::{build_app, AppConfig, SeedConfig};
use std::sync::atomic::Ordering;

#[test]
fn concurrent_clients_see_stable_snapshots_and_leak_nothing() {
    let env = build_app(&AppConfig {
        seed: SeedConfig::tiny(),
        strategy: Some(cachegenie::ConsistencyStrategy::UpdateInPlace),
        ..Default::default()
    })
    .unwrap();
    let server = Server::start(
        &env,
        ServerConfig {
            workers: 8,
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let addr = server.addr();
    let threads = 8usize;
    let per_thread = 60i64;
    let users = env.seeded.users as i64;
    let handles: Vec<_> = (0..threads)
        .map(|t| {
            std::thread::spawn(move || {
                let mut c = ServeClient::connect(addr).unwrap();
                c.hello(&format!("client-{t}")).unwrap();
                let mut ok = 0u64;
                for n in 0..per_thread {
                    let user = (t as i64 + n) % users + 1;
                    // Interleave MVCC probes with the writes that try
                    // to destabilize them.
                    let (kind, arg) = match n % 4 {
                        0 => (Page::Snapshot, Some(8)),
                        1 => (Page::PostWall, Some(user % users + 1)),
                        2 => (Page::Wall, None),
                        _ => (Page::Snapshot, Some(2)),
                    };
                    match c.page(kind, user, arg).unwrap() {
                        Response::Ok(payload) => {
                            assert!(
                                !payload.contains("consistent=false"),
                                "snapshot page saw instability: {payload}"
                            );
                            ok += 1;
                        }
                        Response::Err { code, reason } => {
                            assert!(genie_server::retryable(code), "fatal error {code} {reason}");
                        }
                    }
                }
                ok
            })
        })
        .collect();
    let served: u64 = handles.into_iter().map(|h| h.join().unwrap()).sum();
    assert!(served > 0);
    assert_eq!(
        server.metrics().snapshot_violations.load(Ordering::Relaxed),
        0,
        "snapshot pages observed torn reads"
    );
    // All sessions must be back before and after shutdown.
    let pool = server.pool_snapshot();
    assert_eq!(pool.idle, pool.capacity, "pool not idle at rest: {pool:?}");
    let report = server.shutdown();
    assert_eq!(report.leaked_sessions, 0, "{report:?}");
    assert_eq!(report.dropped_in_flight, 0, "{report:?}");
    // The cache tier agrees with the database for every swept object.
    let (_, bad) = genie_social::sweep_coherence(&env.genie, users).unwrap();
    assert!(bad.is_empty(), "cache incoherent: {bad:?}");
}
