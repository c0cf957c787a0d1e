//! `screen-simd` and `screen-autovec`: `core::screen_campaign` on one
//! worker thread over a stream of four-ligand jobs against one
//! receptor, at the widest explicit SIMD backend or pinned to
//! `autovec`. Also the campaign layer shared by every traced run.

use std::collections::HashMap;
use std::hash::{DefaultHasher, Hash, Hasher};
use std::hint::black_box;
use std::path::Path;
use std::time::{Duration, Instant};

use mudock_core::{
    dock_ligand, screen, screen_campaign, Backend, DockingEngine, KernelStats, ScreenSummary,
};
use mudock_grids::GridSet;
use mudock_mol::Molecule;

use crate::host;
use crate::layers::{self, Probe};
use crate::report::{ms, quantile, Outcome};
use crate::serve::{self, Clients, NodeCfg};
use crate::shape::{mix, Job, Shape};

/// Docking worker threads of the screen workloads (the paper's
/// single-core Fig. 2a shape).
const THREADS: usize = 1;
/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 5;
/// Jobs of the fixed list a traced run measures.
const TRACED_JOBS: usize = 32;
/// Fewest jobs a run may measure: p90 needs ten samples beyond it.
pub const MIN_JOBS: usize = 100;
/// Probe ligands (from the first jobs) for the kernel and GA layers.
pub const PROBE_JOBS: usize = 4;

/// One ranked ligand: batch index, name, score bits.
pub type Ranked = Vec<(usize, String, u32)>;

/// A summary's top-k ranking, scores as bit patterns.
pub fn top_of(s: &ScreenSummary, k: usize) -> Ranked {
    s.top_k(k)
        .into_iter()
        .map(|i| {
            let r = &s.results[i];
            let score = r.best_score.expect("top_k ranks only scored ligands");
            (i, r.name.clone(), score.to_bits())
        })
        .collect()
}

/// A summary's top-k ranking and every ligand's score bits as one
/// number: summaries compare equal by digest.
fn digest(s: &ScreenSummary, k: usize) -> u64 {
    let mut h = DefaultHasher::new();
    top_of(s, k).hash(&mut h);
    for r in &s.results {
        r.best_score.map(f32::to_bits).hash(&mut h);
    }
    h.finish()
}

/// Grid sets of every receptor a shape's jobs target, built once.
pub struct GridStore {
    grids: HashMap<u64, GridSet>,
    pub builds: Vec<Duration>,
}

impl GridStore {
    pub fn build(shape: &Shape) -> GridStore {
        let mut grids = HashMap::new();
        let mut builds = Vec::new();
        for seed in shape.receptor_seeds() {
            let t0 = Instant::now();
            grids.insert(seed, shape.build_grids(seed));
            builds.push(t0.elapsed());
        }
        GridStore { grids, builds }
    }

    pub fn get(&self, receptor_seed: u64) -> &GridSet {
        &self.grids[&receptor_seed]
    }
}

/// The expected ranking of a job: in-process `screen_campaign`.
pub fn expected(store: &GridStore, job: &Job, threads: usize) -> Ranked {
    let s = screen_campaign(
        store.get(job.receptor_seed),
        &job.ligands(),
        &job.campaign,
        threads,
    );
    top_of(&s, job.campaign.top_k)
}

/// Set up a screen workload `SETUP_REPS` times: receptor generation,
/// grid build and one warmup job. Returns the last grid store, the
/// grid build times and the set-up times.
fn setup(shape: &Shape) -> (GridStore, Vec<Duration>) {
    let mut times = Vec::new();
    let mut builds = Vec::new();
    let mut store = None;
    for _ in 0..SETUP_REPS {
        let t0 = Instant::now();
        let s = GridStore::build(shape);
        let warm = shape.warmup_job();
        black_box(screen_campaign(
            s.get(warm.receptor_seed),
            &warm.ligands(),
            &warm.campaign,
            THREADS,
        ));
        times.push(t0.elapsed());
        builds.extend_from_slice(&s.builds);
        store = Some(s);
    }
    let mut store = store.expect("SETUP_REPS > 0");
    store.builds = builds;
    (store, times)
}

/// The untraced run: jobs until `seconds` of wall-clock have passed.
pub fn run(backend: Backend, seed: u64, seconds: Duration) -> Outcome {
    let shape = Shape::screen(seed, backend);
    let mut out = Outcome {
        threads: THREADS,
        backend: shape.backend().name(),
        ..Outcome::default()
    };
    let (store, setup_times) = setup(&shape);
    let grids = store.get(shape.job(0).receptor_seed);

    // One digest per job, so peak RSS does not grow with how many jobs
    // the host got through.
    let mut latencies = Vec::new();
    let mut results: Vec<u64> = Vec::new();
    let t_run = Instant::now();
    while t_run.elapsed() < seconds {
        let job = shape.job(results.len());
        let ligands = job.ligands();
        let t0 = Instant::now();
        let s = screen_campaign(grids, &ligands, &job.campaign, THREADS);
        let dt = t0.elapsed();
        latencies.push(dt);
        results.push(digest(&s, job.campaign.top_k));
        out.attempted += s.results.len() as u64;
        out.failed += s.results.iter().filter(|r| r.best_score.is_none()).count() as u64;
    }
    let rss = host::peak_rss_mib();

    // Output check: every job against core::screen of the same inputs.
    let verify_threads = host::nproc();
    for (j, seen) in results.iter().enumerate() {
        let job = shape.job(j);
        let reference = screen(
            grids,
            &job.ligands(),
            &job.campaign.dock_params(),
            verify_threads,
        );
        out.check(digest(&reference, job.campaign.top_k) == *seen, || {
            format!("job {j}: screen_campaign differs from core::screen")
        });
    }
    let probe = Probe::new(&shape.job(0).ligands(), mix(seed, 0x7072_6f62));
    layers::check_backends(&mut out, grids, &probe);
    out.check(latencies.len() >= MIN_JOBS, || {
        format!(
            "only {} jobs measured, p90 needs {MIN_JOBS}",
            latencies.len()
        )
    });

    // Median rate over blocks of whole size-table cycles: every block
    // docks the same ligand mix, and a transient stall of the host
    // moves one block, not the median.
    let cycle = shape.jobs_per_cycle();
    let rates: Vec<f64> = latencies
        .chunks_exact(cycle)
        .map(|b| (cycle * shape.ligands_per_job) as f64 / b.iter().sum::<Duration>().as_secs_f64())
        .collect();
    let lat = ms(&latencies);
    let m = &mut out.metrics;
    m.put("ligands_per_s", quantile(&rates, 0.5), "ligands/s");
    m.put("job_latency_p50_ms", quantile(&lat, 0.5), "ms");
    m.put("job_latency_p90_ms", quantile(&lat, 0.9), "ms");
    let setup: Vec<f64> = setup_times.iter().map(Duration::as_secs_f64).collect();
    m.put("setup_s", quantile(&setup, 0.5), "s");
    match rss {
        Ok(v) => m.put("peak_rss_mb", v, "MiB"),
        Err(e) => out.problems.push(e),
    }
    out
}

/// What the campaign-layer legs measured.
pub struct CampaignLegs {
    /// Wall-clock of the `screen_campaign` legs, summed.
    pub untraced: Duration,
    /// Wall-clock of the per-ligand-timed legs, summed.
    pub traced: Duration,
    /// Per-ligand `dock_ligand` times of the traced legs.
    pub dock: Vec<Duration>,
    pub evaluations: u64,
    pub steals: usize,
    pub stats: KernelStats,
    /// Ligands of one leg that got no score.
    pub unscored: u64,
}

/// Run the job list through the campaign layer four times, alternating
/// `screen_campaign` (untraced) with the same pool map timed around
/// each `dock_ligand` call (traced): U T T U. Every leg's rankings must
/// equal `expected`, and kernel counts must repeat across legs.
pub fn campaign_legs(
    out: &mut Outcome,
    jobs: &[Job],
    store: &GridStore,
    threads: usize,
    expected: &[Ranked],
) -> CampaignLegs {
    let ligands: Vec<Vec<Molecule>> = jobs.iter().map(Job::ligands).collect();
    let mut legs = CampaignLegs {
        untraced: Duration::ZERO,
        traced: Duration::ZERO,
        dock: Vec::new(),
        evaluations: 0,
        steals: 0,
        stats: KernelStats::default(),
        unscored: 0,
    };
    let mut leg_stats: Vec<KernelStats> = Vec::new();
    for traced in [false, true, true, false] {
        let mut stats = KernelStats::default();
        for (j, (job, ligs)) in jobs.iter().zip(&ligands).enumerate() {
            let grids = store.get(job.receptor_seed);
            let summary = if traced {
                let engine = DockingEngine::new(grids).expect("benchmark grids fit the engine");
                let params = job.campaign.dock_params();
                let t0 = Instant::now();
                let (timed, pool) = mudock_pool::parallel_map_stats(ligs, threads, |i, lig| {
                    let t = Instant::now();
                    let r = dock_ligand(&engine, lig, &params, i);
                    (r, t.elapsed())
                });
                let elapsed = t0.elapsed();
                legs.traced += elapsed;
                legs.steals += pool.steals;
                let mut results = Vec::with_capacity(timed.len());
                for (r, dt) in timed {
                    legs.dock.push(dt);
                    legs.evaluations += r.evaluations;
                    results.push(r);
                }
                ScreenSummary {
                    results,
                    elapsed,
                    threads,
                    throughput: 0.0,
                }
            } else {
                let t0 = Instant::now();
                let s = screen_campaign(grids, ligs, &job.campaign, threads);
                legs.untraced += t0.elapsed();
                s
            };
            stats.merge(&summary.total_stats());
            if leg_stats.is_empty() {
                legs.unscored += summary
                    .results
                    .iter()
                    .filter(|r| r.best_score.is_none())
                    .count() as u64;
            }
            out.check(top_of(&summary, job.campaign.top_k) == expected[j], || {
                let leg = if traced { "traced" } else { "untraced" };
                format!("job {j}: {leg} campaign ranking differs from the expected one")
            });
        }
        leg_stats.push(stats);
    }
    out.check(leg_stats.iter().all(|s| *s == leg_stats[0]), || {
        format!("kernel counts did not repeat across campaign legs: {leg_stats:?}")
    });
    legs.stats = leg_stats[0];
    legs
}

/// Per-layer metrics of the campaign legs.
pub fn campaign_metrics(out: &mut Outcome, legs: &CampaignLegs, threads: usize) {
    let dock_total: Duration = legs.dock.iter().sum();
    let dock = ms(&legs.dock);
    let m = &mut out.metrics;
    m.put("campaign.dock_ligand_ms_p50", quantile(&dock, 0.5), "ms");
    m.put("campaign.dock_ligand_ms_p90", quantile(&dock, 0.9), "ms");
    // Σ dock time of the traced legs over threads × wall of the untraced
    // legs: both pairs of legs ran the same work.
    m.put(
        "campaign.overhead_frac",
        1.0 - dock_total.as_secs_f64() / (threads as f64 * legs.untraced.as_secs_f64()),
        "ratio",
    );
    m.put("pool.steals", legs.steals as f64 / 2.0, "count");
    m.put(
        "ga.pose_evals_per_s",
        legs.evaluations as f64 / dock_total.as_secs_f64(),
        "evals/s",
    );
    out.count("kernel.poses", legs.stats.poses_scored);
    out.count("kernel.pairs_evaluated", legs.stats.pairs_evaluated);
    out.count("kernel.grid_lookups", legs.stats.grid_lookups);
}

/// Per-layer metrics shared by every traced run: grids, prep, kernels,
/// computed operation mix and GA evolution, on the first jobs' ligands.
pub fn layer_metrics(out: &mut Outcome, shape: &Shape, store: &GridStore, jobs: &[Job], seed: u64) {
    let hot = store.get(jobs[0].receptor_seed);
    layers::grids(&mut out.metrics, &store.builds, hot);
    let all: Vec<Molecule> = jobs.iter().flat_map(Job::ligands).collect();
    layers::prep(&mut out.metrics, &all);
    let probe_ligands: Vec<Molecule> = jobs
        .iter()
        .take(PROBE_JOBS)
        .flat_map(Job::ligands)
        .collect();
    let probe = Probe::new(&probe_ligands, mix(seed, 0x7072_6f62));
    layers::kernels(&mut out.metrics, hot, &probe, shape.backend());
    layers::check_backends(out, hot, &probe);
    layers::opmix(&mut out.metrics, &probe);
    let ga = jobs[0].campaign.ga;
    layers::ga_evolve(&mut out.metrics, hot, &probe, ga, shape.backend(), seed);
}

/// The traced run: the fixed job list through every layer, from the
/// kernels up to the HTTP frontend.
pub fn traced(backend: Backend, seed: u64, dir: &Path) -> Outcome {
    let shape = Shape::screen(seed, backend);
    let mut out = Outcome {
        threads: THREADS,
        backend: shape.backend().name(),
        ..Outcome::default()
    };
    let (store, _) = setup(&shape);
    let jobs: Vec<Job> = (0..TRACED_JOBS).map(|j| shape.job(j)).collect();
    let grids = store.get(jobs[0].receptor_seed);
    let verify_threads = host::nproc();
    let expected: Vec<Ranked> = jobs
        .iter()
        .map(|job| {
            let s = screen(
                grids,
                &job.ligands(),
                &job.campaign.dock_params(),
                verify_threads,
            );
            top_of(&s, job.campaign.top_k)
        })
        .collect();

    let legs = campaign_legs(&mut out, &jobs, &store, THREADS, &expected);
    campaign_metrics(&mut out, &legs, THREADS);
    // Tracing overhead: the traced legs ran the same work as the
    // untraced ones.
    out.metrics.put(
        "trace.overhead_frac",
        1.0 - legs.untraced.as_secs_f64() / legs.traced.as_secs_f64(),
        "ratio",
    );
    let ligands: usize = jobs.iter().map(Job::n_ligands).sum();
    out.attempted = ligands as u64;
    out.failed = legs.unscored;

    layer_metrics(&mut out, &shape, &store, &jobs, seed);
    let node = NodeCfg {
        threads: THREADS,
        job_slots: 1,
        cache_capacity: 4,
        spill: false,
    };
    let clients = Clients {
        clients: 1,
        in_flight: 1,
        poll: Duration::from_micros(500),
    };
    serve::ladder(&mut out, &shape, &node, &clients, 1, dir, &expected);
    out
}
