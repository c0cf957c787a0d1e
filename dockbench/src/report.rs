//! Results: the metric list, the one-line JSON result, the run record
//! (`.dockbench/runs.jsonl`) and `compare` over two record files.

use std::collections::BTreeMap;
use std::path::Path;
use std::process::ExitCode;
use std::time::Duration;

use mudock_serve::wire::{self, Json};

use crate::host::{Canary, Fingerprint};

/// Exit code of `compare` when the two sides come from different hosts.
const EXIT_FINGERPRINT: u8 = 3;
/// Exit code of `compare` when exact counts of one seed did not repeat.
const EXIT_COUNTS: u8 = 4;

pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

#[derive(Default)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    pub fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }

    fn to_json(&self) -> Json {
        Json::Obj(
            self.0
                .iter()
                .map(|m| {
                    let v = Json::Obj(vec![
                        ("value".into(), Json::f64(m.value)),
                        ("unit".into(), Json::str(m.unit)),
                    ]);
                    (m.name.clone(), v)
                })
                .collect(),
        )
    }
}

/// What one workload run produced.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Output-check failures; any entry fails the run.
    pub problems: Vec<String>,
    pub metrics: Metrics,
    /// Exact counts that must repeat on a fixed seed (traced runs).
    pub counts: Vec<(String, u64)>,
    pub threads: usize,
    pub backend: String,
}

impl Outcome {
    pub fn check(&mut self, ok: bool, problem: impl FnOnce() -> String) {
        if !ok {
            self.problems.push(problem());
        }
    }

    pub fn count(&mut self, name: &str, value: u64) {
        self.counts.push((name.to_string(), value));
        self.metrics.put(name, value as f64, "count");
    }
}

/// Linear-interpolated quantile of unsorted samples (0 when empty).
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn ms(samples: &[Duration]) -> Vec<f64> {
    samples.iter().map(|d| d.as_secs_f64() * 1e3).collect()
}

pub struct RunInfo<'a> {
    pub workload: &'a str,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    pub fingerprint: Fingerprint,
    pub canary: (Canary, Canary),
}

/// Where run records accumulate, relative to the checkout root.
pub const RECORDS: &str = ".dockbench/runs.jsonl";

/// Finish a run: flag exact counts that differ from an earlier traced
/// run of the same seed on this host, append the record, print the
/// human summary to stderr and the result line to stdout.
pub fn finish(info: &RunInfo, mut out: Outcome) -> ExitCode {
    for m in &out.metrics.0 {
        if !m.value.is_finite() {
            out.problems
                .push(format!("metric {} is not finite", m.name));
        }
    }
    if info.trace {
        if let Some(earlier) = earlier_counts(info) {
            let now: BTreeMap<String, u64> = out.counts.iter().cloned().collect();
            if earlier != now {
                out.problems.push(format!(
                    "exact counts differ from an earlier traced run of seed {}: {earlier:?} vs {now:?}",
                    info.seed
                ));
            }
        }
    }
    let correct = out.problems.is_empty();
    let record = Json::Obj(vec![
        ("workload".into(), Json::str(info.workload)),
        ("seed".into(), Json::u64(info.seed)),
        ("seconds".into(), Json::u64(info.seconds)),
        ("trace".into(), Json::Bool(info.trace)),
        ("fingerprint".into(), info.fingerprint.to_json()),
        (
            "canary".into(),
            Json::Obj(vec![
                ("before".into(), info.canary.0.to_json()),
                ("after".into(), info.canary.1.to_json()),
            ]),
        ),
        ("correct".into(), Json::Bool(correct)),
        ("attempted".into(), Json::u64(out.attempted)),
        ("failed".into(), Json::u64(out.failed)),
        (
            "problems".into(),
            Json::Arr(out.problems.iter().map(Json::str).collect()),
        ),
        ("metrics".into(), out.metrics.to_json()),
        (
            "counts".into(),
            Json::Obj(
                out.counts
                    .iter()
                    .map(|(k, v)| (k.clone(), Json::u64(*v)))
                    .collect(),
            ),
        ),
    ]);
    if let Err(e) = append_record(&record) {
        eprintln!("dockbench: cannot write {RECORDS}: {e}");
    }

    let fp = &info.fingerprint;
    eprintln!(
        "dockbench {} seed {} ({}): cpu \"{}\", simd {}, nproc {}, threads {}, backend {}",
        info.workload,
        info.seed,
        if info.trace { "traced" } else { "untraced" },
        fp.cpu,
        fp.simd,
        fp.nproc,
        fp.threads,
        fp.backend
    );
    eprintln!(
        "  canary: {:.3} -> {:.3} GFLOP/s scalar, {:.2} -> {:.2} GB/s load",
        info.canary.0.peakflops_gflops,
        info.canary.1.peakflops_gflops,
        info.canary.0.load_bw_gbs,
        info.canary.1.load_bw_gbs
    );
    for m in &out.metrics.0 {
        eprintln!("  {:<36} {:>14.4} {}", m.name, m.value, m.unit);
    }
    let failed_frac = out.failed as f64 / out.attempted.max(1) as f64;
    eprintln!(
        "  failed_frac {failed_frac} ({} of {})",
        out.failed, out.attempted
    );
    for p in &out.problems {
        eprintln!("  OUTPUT CHECK FAILED: {p}");
    }

    // A failed output check never yields a number.
    let metrics = if correct {
        out.metrics.to_json()
    } else {
        Json::Obj(Vec::new())
    };
    let line = Json::Obj(vec![
        ("correct".into(), Json::Bool(correct)),
        ("attempted".into(), Json::u64(out.attempted.max(1))),
        ("failed".into(), Json::u64(out.failed)),
        ("metrics".into(), metrics),
    ]);
    println!("{}", line.encode());
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn append_record(record: &Json) -> std::io::Result<()> {
    use std::io::Write;
    let path = Path::new(RECORDS);
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut f = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)?;
    writeln!(f, "{}", record.encode())
}

fn read_records(path: &Path) -> Result<Vec<Json>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    text.lines()
        .filter(|l| !l.trim().is_empty())
        .map(|l| wire::parse(l).map_err(|e| format!("{}: {e}", path.display())))
        .collect()
}

fn str_field<'a>(v: &'a Json, k: &str) -> Option<&'a str> {
    match v.get(k) {
        Some(Json::Str(s)) => Some(s),
        _ => None,
    }
}

fn num_field(v: &Json, k: &str) -> Option<f64> {
    match v.get(k) {
        Some(Json::Num(n)) => n.as_f64(),
        _ => None,
    }
}

fn counts_of(v: &Json) -> BTreeMap<String, u64> {
    match v.get("counts") {
        Some(Json::Obj(members)) => members
            .iter()
            .filter_map(|(k, n)| match n {
                Json::Num(n) => n.as_u64().map(|n| (k.clone(), n)),
                _ => None,
            })
            .collect(),
        _ => BTreeMap::new(),
    }
}

/// Counts of the latest earlier correct traced run of this workload and
/// seed on the same host fingerprint, if any.
fn earlier_counts(info: &RunInfo) -> Option<BTreeMap<String, u64>> {
    let records = read_records(Path::new(RECORDS)).ok()?;
    records
        .iter()
        .rev()
        .find(|r| {
            str_field(r, "workload") == Some(info.workload)
                && matches!(r.get("trace"), Some(Json::Bool(true)))
                && matches!(r.get("correct"), Some(Json::Bool(true)))
                && num_field(r, "seed") == Some(info.seed as f64)
                && r.get("fingerprint")
                    .and_then(Fingerprint::from_json)
                    .as_ref()
                    == Some(&info.fingerprint)
        })
        .map(counts_of)
}

/// `compare <base.jsonl> <new.jsonl> [BENCHMARK.json]`: gate the new
/// side's untraced medians against the base side's with the bounds of
/// `BENCHMARK.json`. Exits 3 (refused) when fingerprints differ, 4 when
/// a side's exact counts did not repeat on a seed, 1 on a regression.
pub fn compare(args: &[String]) -> ExitCode {
    let (Some(base), Some(new)) = (args.first(), args.get(1)) else {
        eprintln!("usage: dockbench compare <base.jsonl> <new.jsonl> [BENCHMARK.json]");
        return ExitCode::from(2);
    };
    let spec_path = args.get(2).map_or("BENCHMARK.json", String::as_str);
    let loaded = (|| {
        let spec = wire::parse(
            &std::fs::read_to_string(spec_path).map_err(|e| format!("{spec_path}: {e}"))?,
        )
        .map_err(|e| format!("{spec_path}: {e}"))?;
        Ok::<_, String>((
            spec,
            read_records(Path::new(base))?,
            read_records(Path::new(new))?,
        ))
    })();
    let (spec, base, new) = match loaded {
        Ok(v) => v,
        Err(e) => {
            eprintln!("dockbench compare: {e}");
            return ExitCode::from(2);
        }
    };

    for (side, records) in [("base", &base), ("new", &new)] {
        let mut by_seed: BTreeMap<(String, u64), BTreeMap<String, u64>> = BTreeMap::new();
        for r in records
            .iter()
            .filter(|r| matches!(r.get("trace"), Some(Json::Bool(true))))
        {
            let key = (
                str_field(r, "workload").unwrap_or("").to_string(),
                num_field(r, "seed").unwrap_or(-1.0) as u64,
            );
            let counts = counts_of(r);
            if let Some(prev) = by_seed.insert(key.clone(), counts.clone()) {
                if prev != counts {
                    eprintln!(
                        "dockbench compare: {side}: exact counts of {} seed {} did not repeat",
                        key.0, key.1
                    );
                    return ExitCode::from(EXIT_COUNTS);
                }
            }
        }
    }

    let untraced = |records: &[Json], w: &str| -> Vec<Json> {
        records
            .iter()
            .filter(|r| {
                str_field(r, "workload") == Some(w)
                    && matches!(r.get("trace"), Some(Json::Bool(false)))
                    && matches!(r.get("correct"), Some(Json::Bool(true)))
            })
            .cloned()
            .collect()
    };
    let workloads: Vec<String> = match spec.get("workloads") {
        Some(Json::Arr(ws)) => ws
            .iter()
            .filter_map(|w| str_field(w, "name").map(str::to_string))
            .collect(),
        _ => Vec::new(),
    };
    let metrics: Vec<(String, bool, f64)> = match spec.get("end_to_end") {
        Some(Json::Arr(ms)) => ms
            .iter()
            .filter_map(|m| {
                Some((
                    str_field(m, "name")?.to_string(),
                    str_field(m, "better")? == "lower",
                    num_field(m, "bound")?,
                ))
            })
            .collect(),
        _ => Vec::new(),
    };

    let mut regressions = 0;
    for w in &workloads {
        let (b, n) = (untraced(&base, w), untraced(&new, w));
        if b.is_empty() || n.is_empty() {
            eprintln!("{w}: no untraced runs on one side, skipped");
            continue;
        }
        let fps: Vec<Option<Fingerprint>> = b
            .iter()
            .chain(&n)
            .map(|r| r.get("fingerprint").and_then(Fingerprint::from_json))
            .collect();
        if fps.iter().any(|f| f.is_none() || *f != fps[0]) {
            eprintln!("{w}: refused: the runs come from different host fingerprints");
            return ExitCode::from(EXIT_FINGERPRINT);
        }
        for (name, lower, bound) in &metrics {
            let med = |rs: &[Json]| {
                let v: Vec<f64> = rs
                    .iter()
                    .filter_map(|r| r.get("metrics")?.get(name)?.get("value"))
                    .filter_map(|v| match v {
                        Json::Num(n) => n.as_f64(),
                        _ => None,
                    })
                    .collect();
                quantile(&v, 0.5)
            };
            let (mb, mn) = (med(&b), med(&n));
            let worse = if *lower { mn - mb } else { mb - mn } / mb.abs().max(1e-12);
            let verdict = if worse > *bound {
                regressions += 1;
                "REGRESSION"
            } else {
                "ok"
            };
            eprintln!(
                "{w:<16} {name:<22} base {mb:>12.4} new {mn:>12.4} worse by {:>7.2} % (bound {:.0} %) {verdict}",
                worse * 100.0,
                bound * 100.0
            );
        }
    }
    if regressions > 0 {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
