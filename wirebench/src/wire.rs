//! One over-the-wire epoch: a fresh deployment served by a real
//! [`Server`] on loopback TCP, driven by [`CONNECTIONS`] closed-loop
//! client threads replaying pre-generated op lists, then drained and
//! checked.

use crate::deploy::{coherence_sweep, deploy, reopen_check};
use crate::workload::{ConnOps, Op, Workload, CONNECTIONS};
use cachegenie_repro::server::{retryable, Page, Response, ServeClient, Server, ServerConfig};
use std::path::Path;
use std::sync::Barrier;
use std::time::{Duration, Instant};

/// Attempts per page before a retryable refusal counts as a failure.
const MAX_ATTEMPTS: u32 = 100;
/// Client back-off after a retryable refusal.
const BACKOFF: Duration = Duration::from_micros(200);

/// What one epoch measured and found.
#[derive(Debug, Default)]
pub struct WireEpoch {
    /// Wall time of the deployment build, seeding, server start,
    /// connection set-up, and warm-up, up to the first measured request.
    pub setup_s: f64,
    /// Processor time the process spent on that set-up, seconds.
    pub setup_cpu_s: f64,
    /// The measured window, from the first measured request to the
    /// last response.
    pub window_s: f64,
    /// Measured pages answered OK.
    pub ok: u64,
    /// Measured responses that were retryable refusals (each retried).
    pub retryable: u64,
    /// Measured pages that never got an OK.
    pub failed: u64,
    /// Client-side latency of every OK measured page, seconds, from its
    /// first send to its OK (retries included).
    pub latencies_s: Vec<f64>,
    /// Server-side mean page time over the measured window, seconds.
    pub server_page_mean_s: f64,
    /// Worst per-kind server-side p99 over the server's lifetime,
    /// seconds.
    pub server_page_p99_s: f64,
    /// Requests and connections the server shed.
    pub shed: u64,
    /// Recovery time of the durable log copy, milliseconds.
    pub recovery_ms: Option<f64>,
    /// Share of CPU time the hypervisor stole during the window.
    pub steal: f64,
    /// Processor time the process spent in the window, seconds.
    pub cpu_s: f64,
    /// Correctness violations; empty on a correct epoch.
    pub violations: Vec<String>,
}

#[derive(Default)]
struct ClientTally {
    ok: u64,
    retryable: u64,
    failed: u64,
    latencies_s: Vec<f64>,
    violations: Vec<String>,
    end: Option<Instant>,
}

/// Sends one page, retrying retryable refusals. Returns the latency of
/// the OK answer, or `None` after recording why it never came.
fn send(c: &mut ServeClient, op: &Op, tally: &mut ClientTally, measured: bool) -> Option<f64> {
    let sent = Instant::now();
    for _ in 0..MAX_ATTEMPTS {
        match c.page(op.kind, op.user, op.arg) {
            Ok(Response::Ok(payload)) => {
                let prefix = format!("page={} user={} ", op.kind.name(), op.user);
                if !payload.starts_with(&prefix) {
                    tally
                        .violations
                        .push(format!("{op:?} answered {payload:?}"));
                }
                return Some(sent.elapsed().as_secs_f64());
            }
            Ok(Response::Err { code, .. }) if retryable(code) => {
                if measured {
                    tally.retryable += 1;
                }
                std::thread::sleep(BACKOFF);
            }
            Ok(Response::Err { code, reason }) => {
                tally
                    .violations
                    .push(format!("{op:?} failed: {code} {reason}"));
                return None;
            }
            Err(e) => {
                tally.violations.push(format!("{op:?} i/o: {e}"));
                return None;
            }
        }
    }
    tally.violations.push(format!(
        "{op:?} still refused after {MAX_ATTEMPTS} attempts"
    ));
    None
}

fn client(
    addr: std::net::SocketAddr,
    conn: usize,
    ops: &ConnOps,
    [ready, go, done]: [&Barrier; 3],
) -> ClientTally {
    let mut tally = ClientTally::default();
    let mut c = match ServeClient::connect(addr) {
        Ok(c) => Some(c),
        Err(e) => {
            tally.violations.push(format!("connect: {e}"));
            None
        }
    };
    if let Some(c) = c.as_mut() {
        if let Err(e) = c.hello(&format!("conn-{conn}")) {
            tally.violations.push(format!("hello: {e}"));
        }
        for op in &ops.warmup {
            send(c, op, &mut tally, false);
        }
    }
    ready.wait();
    go.wait();
    if let Some(c) = c.as_mut() {
        tally.latencies_s.reserve(ops.measured.len());
        for op in &ops.measured {
            match send(c, op, &mut tally, true) {
                Some(lat) => {
                    tally.ok += 1;
                    tally.latencies_s.push(lat);
                }
                None => tally.failed += 1,
            }
        }
        tally.end = Some(Instant::now());
    } else {
        tally.failed += ops.measured.len() as u64;
    }
    // Stay alive until the window's processor time has been read.
    done.wait();
    if let Some(c) = c.as_mut() {
        let _ = c.quit();
    }
    tally
}

/// Server-side (pages recorded, summed seconds) over the kinds `w`
/// issues.
fn server_page_totals(server: &Server, w: &Workload) -> (u64, f64) {
    w.mix.iter().fold((0, 0.0), |(n, s), &(page, _)| {
        let h = server.metrics().page_hist(page);
        (n + h.count(), s + h.mean_s() * h.count() as f64)
    })
}

fn kinds(w: &Workload) -> impl Iterator<Item = Page> + '_ {
    w.mix.iter().map(|&(page, _)| page)
}

/// Runs one epoch of `w` over the wire with the given op lists. A
/// durable workload logs into `wal_dir`, which is removed afterwards.
pub fn run_epoch(w: &Workload, ops: &[ConnOps], wal_dir: &Path) -> WireEpoch {
    let mut epoch = WireEpoch::default();
    let t0 = Instant::now();
    let cpu0 = thread_cpu_s();
    let dep = match deploy(w, wal_dir) {
        Ok(d) => d,
        Err(e) => {
            epoch.violations.push(format!("deploy: {e}"));
            let _ = std::fs::remove_dir_all(wal_dir);
            return epoch;
        }
    };
    let server = match Server::start(
        &dep.env,
        ServerConfig {
            workers: CONNECTIONS,
            ..ServerConfig::default()
        },
    ) {
        Ok(s) => s,
        Err(e) => {
            epoch.violations.push(format!("server start: {e}"));
            return epoch;
        }
    };
    let addr = server.addr();
    let ready = Barrier::new(CONNECTIONS + 1);
    let go = Barrier::new(CONNECTIONS + 1);
    let done = Barrier::new(CONNECTIONS + 1);
    let mut before = (0, 0.0);
    let mut start = t0;
    let (mut steal0, mut cpu1, mut cpu2) = ((0, 0), 0.0, 0.0);
    let tallies: Vec<ClientTally> = std::thread::scope(|s| {
        let handles: Vec<_> = ops
            .iter()
            .enumerate()
            .map(|(conn, conn_ops)| {
                let barriers = [&ready, &go, &done];
                s.spawn(move || client(addr, conn, conn_ops, barriers))
            })
            .collect();
        ready.wait();
        before = server_page_totals(&server, w);
        steal0 = cpu_ticks();
        cpu1 = thread_cpu_s();
        start = Instant::now();
        go.wait();
        done.wait();
        cpu2 = thread_cpu_s();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let steal1 = cpu_ticks();
    epoch.steal = (steal1.1 - steal0.1) as f64 / (steal1.0 - steal0.0).max(1) as f64;
    epoch.setup_s = (start - t0).as_secs_f64();
    epoch.setup_cpu_s = cpu1 - cpu0;
    epoch.cpu_s = cpu2 - cpu1;
    let end = tallies.iter().filter_map(|t| t.end).max().unwrap_or(start);
    epoch.window_s = (end - start).as_secs_f64();
    for t in tallies {
        epoch.ok += t.ok;
        epoch.retryable += t.retryable;
        epoch.failed += t.failed;
        epoch.latencies_s.extend(t.latencies_s);
        epoch.violations.extend(t.violations);
    }
    let after = server_page_totals(&server, w);
    if after.0 > before.0 {
        epoch.server_page_mean_s = (after.1 - before.1) / (after.0 - before.0) as f64;
    }
    epoch.server_page_p99_s = kinds(w)
        .map(|p| server.metrics().page_summary(p).p99_s)
        .fold(0.0, f64::max);
    let m = server.metrics();
    epoch.shed = m.requests_shed.load(std::sync::atomic::Ordering::Relaxed)
        + m.connections_shed
            .load(std::sync::atomic::Ordering::Relaxed);
    let report = server.shutdown();
    if report.dropped_in_flight != 0 || report.leaked_sessions != 0 {
        epoch.violations.push(format!("unclean drain: {report:?}"));
    }
    if w.durable && !report.wal_flushed {
        epoch
            .violations
            .push("drain did not flush the log".to_owned());
    }
    check_state(&dep, &mut epoch.violations, &mut epoch.recovery_ms);
    drop(dep);
    let _ = std::fs::remove_dir_all(wal_dir);
    epoch
}

/// The post-run state checks shared by the wire and traced runs: cache
/// coherence for every seeded user, and for a durable deployment the
/// recovered log's digest against the live database.
pub fn check_state(
    dep: &crate::deploy::Deployment,
    violations: &mut Vec<String>,
    recovery_ms: &mut Option<f64>,
) {
    match coherence_sweep(&dep.env) {
        Ok((_, bad)) if bad.is_empty() => {}
        Ok((checked, bad)) => violations.push(format!(
            "{} of {checked} cached objects incoherent, first {}",
            bad.len(),
            bad[0]
        )),
        Err(e) => violations.push(format!("coherence sweep: {e}")),
    }
    if let Some(dir) = &dep.wal_dir {
        match reopen_check(&dep.env.db, dir) {
            Ok((true, ms)) => *recovery_ms = Some(ms),
            Ok((false, _)) => violations.push("recovered log digest differs from live".to_owned()),
            Err(e) => violations.push(format!("log reopen: {e}")),
        }
    }
}

/// (all, steal) CPU ticks so far, from `/proc/stat`.
pub fn cpu_ticks() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let v: Vec<u64> = stat
        .lines()
        .next()
        .unwrap_or_default()
        .split_whitespace()
        .skip(1)
        .filter_map(|x| x.parse().ok())
        .collect();
    (v.iter().sum(), v.get(7).copied().unwrap_or(0))
}

/// Processor time the live threads of this process have used, in
/// seconds: the sum of each thread's on-CPU nanoseconds from
/// `/proc/self/task/*/schedstat`. An epoch's threads are all alive at
/// each reading, so differences between readings count them exactly.
pub fn thread_cpu_s() -> f64 {
    let Ok(tasks) = std::fs::read_dir("/proc/self/task") else {
        return 0.0;
    };
    let ns: u64 = tasks
        .filter_map(|t| std::fs::read_to_string(t.ok()?.path().join("schedstat")).ok())
        .filter_map(|s| s.split_whitespace().next()?.parse::<u64>().ok())
        .sum();
    ns as f64 / 1e9
}
