//! `ledger`: the perf ledger's command line.
//!
//! ```text
//! ledger [--workload NAME] [--seed N] [--seconds S] [--trace 0|1 | --traced]
//!        [--smoke] [--out DIR]
//! ledger compare PARENT_DIR CHANGE_DIR [--benchmark BENCHMARK.json]
//! ledger worker [RSS_DIR]
//! ```
//!
//! With `--workload` the named workload runs in this process and the last
//! line of standard output is its result JSON. Without it every workload
//! runs, one at a time, each in a fresh child process. `worker` is the farm
//! workload's worker process.

use sora_ledger::{compare, run, workloads, Options};
use std::alloc::{GlobalAlloc, Layout, System};
use std::path::PathBuf;
use std::process::{exit, Command, Stdio};

/// Counts allocations through `sim_core::allocmeter`, in traced and
/// untraced runs alike, so the two passes differ only by their timers.
struct CountingAlloc;

// SAFETY: every method forwards to `System` unchanged; `note_alloc` only
// bumps thread-local counters and never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        sim_core::allocmeter::note_alloc(layout.size() as u64);
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    // Forwarded, not left to the default (alloc + memset): `calloc` hands
    // out fresh pages without touching them, and the simulator's
    // horizon-sized rings rely on that for their set-up time and RSS.
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        sim_core::allocmeter::note_alloc(layout.size() as u64);
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        sim_core::allocmeter::note_alloc(new_size.saturating_sub(layout.size()) as u64);
        // SAFETY: `ptr` came from `System` with this layout.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

fn usage(message: &str) -> ! {
    eprintln!(
        "ledger: {message}\n\
         usage: ledger [--workload NAME] [--seed N] [--seconds S] [--trace 0|1 | --traced] \
         [--smoke] [--out DIR]\n\
         \x20      ledger compare PARENT_DIR CHANGE_DIR [--benchmark BENCHMARK.json]\n\
         \x20      ledger worker [RSS_DIR]\n\
         workloads: {}",
        workloads::WORKLOADS.map(|w| w.name).join(", ")
    );
    exit(2)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("worker") => worker(args.get(1)),
        Some("compare") => compare_cmd(&args[1..]),
        _ => run_cmd(&args),
    }
}

/// A farm worker: serves the stdio protocol, then reports its peak RSS in
/// `rss_dir` (the coordinator cannot read it once the process is reaped).
fn worker(rss_dir: Option<&String>) {
    sora_server::worker_loop();
    if let Some(dir) = rss_dir {
        let path = PathBuf::from(dir).join(format!("{}.rss", std::process::id()));
        if let Err(e) = std::fs::write(&path, sora_ledger::peak_rss_mib().to_string()) {
            eprintln!("ledger worker: writing {}: {e}", path.display());
        }
    }
}

fn compare_cmd(args: &[String]) {
    let (dirs, benchmark) = match args {
        [a, b] => ([a, b], "BENCHMARK.json"),
        [a, b, flag, path] if flag == "--benchmark" => ([a, b], path.as_str()),
        _ => usage("compare takes PARENT_DIR CHANGE_DIR [--benchmark PATH]"),
    };
    match compare::compare_dirs(dirs[0].as_ref(), dirs[1].as_ref(), benchmark.as_ref()) {
        Ok((table, bad)) => {
            print!("{table}");
            exit(i32::from(bad))
        }
        Err(e) => usage(&e),
    }
}

fn run_cmd(args: &[String]) {
    let mut opts = Options {
        seed: None,
        seconds: 0.0,
        trace: false,
        smoke: false,
        out: PathBuf::from("target/ledger"),
    };
    let mut workload = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = || {
            it.next()
                .unwrap_or_else(|| usage(&format!("{arg} needs a value")))
        };
        match arg.as_str() {
            "--workload" => {
                let name = value();
                workload = Some(
                    workloads::find(name)
                        .unwrap_or_else(|| usage(&format!("unknown workload {name}"))),
                );
            }
            "--seed" => {
                opts.seed = Some(value().parse().unwrap_or_else(|_| usage("bad --seed")));
            }
            "--seconds" => {
                opts.seconds = value()
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                    .unwrap_or_else(|| usage("bad --seconds"));
            }
            "--trace" => {
                opts.trace = match value().as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage("--trace takes 0 or 1"),
                };
            }
            "--traced" => opts.trace = true,
            "--smoke" => opts.smoke = true,
            "--out" => opts.out = PathBuf::from(value()),
            other => usage(&format!("unknown argument {other}")),
        }
    }
    match workload {
        Some(w) => {
            let report = run(w, &opts);
            if let Err(e) = report.write_record() {
                eprintln!("ledger: writing the record: {e}");
            }
            for line in report.lines() {
                println!("{line}");
            }
            println!("{}", report.result_line());
            if !report.correct() {
                exit(1);
            }
        }
        None => exit(run_all(args)),
    }
}

/// Runs every workload in a fresh child process with the same flags,
/// prints their lines, and returns the exit code.
fn run_all(args: &[String]) -> i32 {
    let exe = std::env::current_exe().unwrap_or_else(|e| usage(&format!("{e}")));
    let mut failed = Vec::new();
    for w in &workloads::WORKLOADS {
        let output = Command::new(&exe)
            .args(args)
            .args(["--workload", w.name])
            .stdin(Stdio::null())
            .stderr(Stdio::inherit())
            .output();
        let ok = match output {
            Ok(out) => {
                let stdout = String::from_utf8_lossy(&out.stdout);
                let mut lines: Vec<&str> = stdout.lines().collect();
                let result = lines.pop().unwrap_or_default();
                for line in lines {
                    println!("{line}");
                }
                out.status.success() && result.contains("\"correct\":true")
            }
            Err(e) => {
                eprintln!("ledger: spawning {}: {e}", w.name);
                false
            }
        };
        if !ok {
            println!("{} FAILED", w.name);
            failed.push(w.name);
        }
    }
    if failed.is_empty() {
        0
    } else {
        eprintln!("ledger: failed workloads: {}", failed.join(", "));
        1
    }
}
