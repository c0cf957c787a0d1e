//! Layered docking benchmark.
//!
//! ```text
//! dockbench --workload <screen-simd|screen-autovec|serve-mixed> --seed N \
//!           --seconds S --trace <0|1>
//! dockbench compare <base.jsonl> <new.jsonl> [BENCHMARK.json]
//! ```
//!
//! An untraced run (`--trace 0`) measures the end-to-end metrics for
//! `--seconds`; a traced run (`--trace 1`) runs a fixed job list through
//! every layer and times calls into each layer's public functions. Both
//! check every output, record the host fingerprint and the host-speed
//! canary in `.dockbench/runs.jsonl`, print a summary on stderr and, as
//! the last line of stdout, one JSON result object. See `README.md`.

mod host;
mod layers;
mod report;
mod screen;
mod serve;
mod shape;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

use mudock_core::Backend;
use mudock_simd::SimdLevel;

use crate::host::Fingerprint;
use crate::report::RunInfo;

const WORKLOADS: [&str; 3] = ["screen-simd", "screen-autovec", "serve-mixed"];

struct Opts {
    workload: &'static str,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse(args: &[String]) -> Result<Opts, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?
            .as_str();
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: '{value}' is not a number"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    *WORKLOADS
                        .iter()
                        .find(|w| **w == value)
                        .ok_or_else(|| format!("unknown workload '{value}'"))?,
                )
            }
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?.max(1)),
            "--trace" => {
                trace = Some(match value {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not '{value}'")),
                })
            }
            _ => return Err(format!("unknown flag '{flag}'")),
        }
    }
    Ok(Opts {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10),
        trace: trace.unwrap_or(false),
    })
}

/// Pin glibc's mmap threshold at its default of 128 KiB. That turns off
/// the dynamic threshold, so blocks of 128 KiB and more (grid sets) go
/// back to the OS when freed and peak RSS follows live data rather than
/// allocator history: with the dynamic threshold, serve-mixed peak RSS
/// varied between 20 and 25 MiB from run to run.
#[cfg(all(target_os = "linux", target_env = "gnu"))]
fn pin_mmap_threshold() {
    const M_MMAP_THRESHOLD: i32 = -3;
    extern "C" {
        fn mallopt(param: i32, value: i32) -> i32;
    }
    // SAFETY: mallopt takes two integers and touches only allocator
    // settings; it runs first in main, before any other thread exists.
    unsafe {
        mallopt(M_MMAP_THRESHOLD, 128 * 1024);
    }
}

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
fn pin_mmap_threshold() {}

fn main() -> ExitCode {
    pin_mmap_threshold();
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("canary") => {
            host::canary_child();
            ExitCode::SUCCESS
        }
        Some("compare") => report::compare(&args[1..]),
        _ => match parse(&args) {
            Ok(opts) => run(&opts),
            Err(e) => {
                eprintln!(
                    "dockbench: {e}\nusage: dockbench --workload <{}> --seed N --seconds S --trace <0|1>",
                    WORKLOADS.join("|")
                );
                ExitCode::from(2)
            }
        },
    }
}

fn run(opts: &Opts) -> ExitCode {
    let canary_before = match host::canary() {
        Ok(c) => c,
        Err(e) => {
            eprintln!("dockbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    // Scratch space (spill tier, result files) inside the checkout.
    let dir = PathBuf::from(format!(".dockbench/work-{}", std::process::id()));
    let seconds = Duration::from_secs(opts.seconds);
    let screen_backend = |w: &str| match w {
        "screen-simd" => Backend::Explicit(SimdLevel::detect()),
        _ => Backend::AutoVec,
    };
    let mut out = match (opts.workload, opts.trace) {
        ("serve-mixed", false) => serve::run(opts.seed, seconds, &dir),
        ("serve-mixed", true) => serve::traced(opts.seed, &dir),
        (w, false) => screen::run(screen_backend(w), opts.seed, seconds),
        (w, true) => screen::traced(screen_backend(w), opts.seed, &dir),
    };
    std::fs::remove_dir_all(&dir).ok();
    let canary_after = match host::canary() {
        Ok(c) => c,
        Err(e) => {
            eprintln!("dockbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    if opts.trace {
        let m = &mut out.metrics;
        m.put(
            "host.peakflops_gflops_before",
            canary_before.peakflops_gflops,
            "GFLOP/s",
        );
        m.put(
            "host.peakflops_gflops_after",
            canary_after.peakflops_gflops,
            "GFLOP/s",
        );
        m.put("host.load_bw_gbs_before", canary_before.load_bw_gbs, "GB/s");
        m.put("host.load_bw_gbs_after", canary_after.load_bw_gbs, "GB/s");
    }
    let info = RunInfo {
        workload: opts.workload,
        seed: opts.seed,
        seconds: opts.seconds,
        trace: opts.trace,
        fingerprint: Fingerprint::of_host(out.threads, out.backend.clone()),
        canary: (canary_before, canary_after),
    };
    report::finish(&info, out)
}
