//! Host fingerprint, host-speed canary and peak resident set.
//!
//! A number is only comparable with another taken on the same host
//! shape, so every run records a [`Fingerprint`]. The canary
//! (`perf::peak`) is recorded beside each run so a host that got
//! faster or slower can be told apart from a code change; no metric
//! is ever normalized by it.

use mudock_serve::wire::Json;
use mudock_simd::SimdLevel;

#[derive(Clone, Debug, PartialEq)]
pub struct Fingerprint {
    pub cpu: String,
    pub simd: String,
    pub nproc: usize,
    /// Docking worker threads of the workload.
    pub threads: usize,
    /// Backend the workload's jobs resolved to.
    pub backend: String,
}

impl Fingerprint {
    pub fn of_host(threads: usize, backend: String) -> Fingerprint {
        Fingerprint {
            cpu: cpu_model(),
            simd: SimdLevel::detect().name().to_string(),
            nproc: nproc(),
            threads,
            backend,
        }
    }

    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("cpu".into(), Json::str(&self.cpu)),
            ("simd".into(), Json::str(&self.simd)),
            ("nproc".into(), Json::usize(self.nproc)),
            ("threads".into(), Json::usize(self.threads)),
            ("backend".into(), Json::str(&self.backend)),
        ])
    }

    pub fn from_json(v: &Json) -> Option<Fingerprint> {
        let s = |k: &str| match v.get(k) {
            Some(Json::Str(s)) => Some(s.clone()),
            _ => None,
        };
        let n = |k: &str| match v.get(k) {
            Some(Json::Num(n)) => n.as_usize(),
            _ => None,
        };
        Some(Fingerprint {
            cpu: s("cpu")?,
            simd: s("simd")?,
            nproc: n("nproc")?,
            threads: n("threads")?,
            backend: s("backend")?,
        })
    }
}

/// CPU model string (`model name` of `/proc/cpuinfo`), or `unknown`.
fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Peak resident set of this process in MiB (`VmHWM`).
pub fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("peak RSS needs /proc/self/status: {e}"))?;
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kib / 1024.0)
}

#[derive(Clone, Copy, Debug)]
pub struct Canary {
    pub peakflops_gflops: f64,
    pub load_bw_gbs: f64,
}

impl Canary {
    pub fn to_json(self) -> Json {
        Json::Obj(vec![
            ("peakflops_gflops".into(), Json::f64(self.peakflops_gflops)),
            ("load_bw_gbs".into(), Json::f64(self.load_bw_gbs)),
        ])
    }
}

/// Body of the `canary` subcommand: print peak scalar GFLOP/s and
/// streaming load GB/s on one line.
pub fn canary_child() {
    let flops = mudock_perf::peak::peakflops_scalar(20_000_000);
    let bw = mudock_perf::peak::load_bandwidth(32, 4);
    println!("{flops} {bw}");
}

/// Run the canary in a child process, so its 32 MiB buffer never
/// counts toward this process's peak resident set.
pub fn canary() -> Result<Canary, String> {
    let exe = std::env::current_exe().map_err(|e| format!("canary: {e}"))?;
    let out = std::process::Command::new(exe)
        .arg("canary")
        .output()
        .map_err(|e| format!("canary: {e}"))?;
    if !out.status.success() {
        return Err(format!("canary exited with {}", out.status));
    }
    let text = String::from_utf8_lossy(&out.stdout);
    let mut it = text.split_whitespace().map(str::parse::<f64>);
    match (it.next(), it.next()) {
        (Some(Ok(f)), Some(Ok(b))) => Ok(Canary {
            peakflops_gflops: f,
            load_bw_gbs: b,
        }),
        _ => Err(format!("canary printed {text:?}")),
    }
}
