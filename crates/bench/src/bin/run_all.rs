//! Runs the paper experiments in sequence: the micro-benchmarks, the
//! programmer-effort table, exp1–5, Table 2 and the ablations. Each
//! writes its CSV into `results/`.
//!
//! `cargo run --release -p genie-bench --bin run_all [-- --quick]`
//!
//! Builds all experiment binaries first (`cargo run --bin run_all` alone
//! would only rebuild this one, and stale siblings would silently run an
//! older calibration).

use std::process::Command;

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    // Ensure every sibling binary is up to date with the current sources.
    let status = Command::new("cargo")
        .args(["build", "--release", "-p", "genie-bench", "--bins"])
        .status();
    match status {
        Ok(s) if s.success() => {}
        other => {
            eprintln!("warning: could not rebuild experiment binaries ({other:?}); running as-is")
        }
    }
    let bins = [
        "microbench",
        "effort_table",
        "exp1_clients",
        "table2_page_latency",
        "exp2_mix",
        "exp3_zipf",
        "exp4_cache_size",
        "exp5_trigger_overhead",
        "ablations",
    ];
    for bin in bins {
        println!("\n=== {bin} ===\n");
        let exe = std::env::current_exe().expect("current exe");
        let dir = exe.parent().expect("bin dir");
        let mut cmd = Command::new(dir.join(bin));
        if quick {
            cmd.arg("--quick");
        }
        let status = cmd
            .status()
            .unwrap_or_else(|e| panic!("failed to launch {bin}: {e} (build with --release first)"));
        assert!(status.success(), "{bin} failed");
    }
    println!("\nAll experiments complete; outputs in results/.");
}
