//! `wirebench` — the repository's benchmark.
//!
//! ```text
//! wirebench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` serves fresh deployments over loopback TCP for `--seconds`
//! seconds, one epoch after another, each replaying the same op lists
//! generated from `--seed`, and reports the epochs' medians of the
//! end-to-end metrics. `--trace 1` runs one untraced wire epoch and one
//! traced in-process epoch and reports the per-layer metrics. Either
//! way the last line of standard output is one JSON object; any
//! correctness violation makes `correct` false and the exit code 1.
//! See `README.md` beside this file.

mod deploy;
mod layers;
mod summary;
mod trace;
mod wire;
mod workload;

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};
use summary::{median, Summary};
use workload::Workload;

/// Epochs a run makes at least, however short `--seconds` is.
const MIN_EPOCHS: usize = 3;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                let names: Vec<_> = workload::all().iter().map(|w| w.name).collect();
                workload = Some(
                    workload::by_name(&value)
                        .ok_or_else(|| format!("unknown workload {value}; one of {names:?}"))?,
                );
            }
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => seconds = Some(value.parse().map_err(|e| format!("--seconds: {e}"))?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10),
        trace: trace.unwrap_or(false),
    })
}

/// One named metric with its unit.
pub struct Metric {
    /// Name as `BENCHMARK.json` lists it.
    pub name: String,
    /// Value as measured.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

impl Metric {
    /// Builds a metric.
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Self {
        Metric {
            name: name.into(),
            value,
            unit,
        }
    }
}

/// The process's peak resident set (`VmHWM`), in MiB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".to_owned()
    }
}

fn print_result(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    );
}

/// The untraced run: wire epochs for `seconds`, reporting medians.
///
/// Throughput and p99 are printed per epoch and over the run but not
/// returned as metrics: on a machine whose hypervisor steals a varying
/// share of the processors, they move with the neighbours' load more
/// than with the program (see `README.md`).
fn end_to_end(args: &Args, run_dir: &Path) -> (bool, u64, u64, Vec<Metric>) {
    let w = &args.workload;
    let ops = workload::generate(w, args.seed);
    let budget = Duration::from_secs(args.seconds);
    let started = Instant::now();
    let mut epochs = Vec::new();
    let mut peak_rss = 0.0;
    while epochs.len() < MIN_EPOCHS || started.elapsed() < budget {
        let e = wire::run_epoch(w, &ops, &run_dir.join(format!("wal-{}", epochs.len())));
        if epochs.is_empty() {
            peak_rss = peak_rss_mb();
        }
        let broken = !e.violations.is_empty();
        epochs.push(e);
        if broken {
            break;
        }
    }
    let mut violations = Vec::new();
    let (mut attempted, mut failed, mut retryable) = (0, 0, 0);
    let mut all = Vec::new();
    let (mut tput, mut p50, mut p99) = (Vec::new(), Vec::new(), Vec::new());
    let (mut cpu, mut setup, mut ok_ratio) = (Vec::new(), Vec::new(), Vec::new());
    for (i, e) in epochs.iter().enumerate() {
        let mut lat = Summary::of(e.latencies_s.iter().copied());
        tput.push(e.ok as f64 / e.window_s.max(1e-9));
        p50.push(lat.median() * 1e3);
        p99.push(lat.pct(99.0) * 1e3);
        cpu.push(e.cpu_s * 1e6 / e.ok.max(1) as f64);
        setup.push(e.setup_cpu_s);
        ok_ratio.push(e.ok as f64 / (e.ok + e.retryable + e.failed).max(1) as f64);
        println!(
            "epoch {i}: setup {:.3} s ({:.3} s of processor), {} pages in {:.3} s = {:.1} pages/s, p50 {:.3} ms, {}, \
             retryable {}, steal {:.1}%, cpu {:.1} us/page; server-side mean {:.3} ms, worst kind p99 {:.3} ms",
            e.setup_s,
            e.setup_cpu_s,
            e.ok,
            e.window_s,
            tput[i],
            p50[i],
            lat.tail_line(1e3, " ms"),
            e.retryable,
            e.steal * 100.0,
            cpu[i],
            e.server_page_mean_s * 1e3,
            e.server_page_p99_s * 1e3
        );
        attempted += e.ok + e.failed;
        failed += e.failed;
        retryable += e.retryable;
        all.extend(e.latencies_s.iter().copied());
        violations.extend(e.violations.iter().map(|v| format!("epoch {i}: {v}")));
    }
    let mut pooled = Summary::of(all);
    println!(
        "{}: {} epochs, {} measured pages, {} retryable refusals; median over epochs: \
         {:.1} pages/s, p99 {:.3} ms; pooled latency p50={:.3} ms, {}",
        w.name,
        epochs.len(),
        pooled.len(),
        retryable,
        median(tput),
        median(p99),
        pooled.median() * 1e3,
        pooled.tail_line(1e3, " ms")
    );
    for v in &violations {
        println!("VIOLATION {v}");
    }
    let metrics = vec![
        Metric::new("p50_ms", median(p50), "ms"),
        Metric::new("cpu_us_per_page", median(cpu), "us"),
        Metric::new("ok_ratio", median(ok_ratio), "ratio"),
        Metric::new("setup_s", median(setup), "s"),
        Metric::new("peak_rss_mb", peak_rss, "MiB"),
    ];
    (
        violations.is_empty() && failed == 0,
        attempted,
        failed,
        metrics,
    )
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("wirebench: {e}");
            std::process::exit(2);
        }
    };
    let run_dir =
        PathBuf::from(".bench_run").join(format!("{}-{}", args.workload.name, std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&run_dir) {
        eprintln!("wirebench: create {}: {e}", run_dir.display());
        std::process::exit(2);
    }
    let (correct, attempted, failed, metrics) = if args.trace {
        layers::traced(&args.workload, args.seed, &run_dir)
    } else {
        end_to_end(&args, &run_dir)
    };
    let _ = std::fs::remove_dir_all(&run_dir);
    let _ = std::fs::remove_dir(".bench_run");
    for m in &metrics {
        println!("{:<40} {:>14.4} {}", m.name, m.value, m.unit);
    }
    print_result(correct, attempted.max(1), failed, &metrics);
    if !correct {
        std::process::exit(1);
    }
}
