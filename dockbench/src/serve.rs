//! `serve-mixed`: one in-process `ScreenService` + `NetServer` with two
//! worker threads, driven over loopback HTTP by two closed-loop client
//! connections that each keep three small jobs in flight. Even jobs
//! target one hot receptor (cache hits), odd jobs rotate over more tail
//! receptors than the resident cache holds, with the spill tier on
//! (builds, spills, reloads). Also the serve layers of every traced
//! run: the same job list through the frontend and in-process.

use std::collections::{HashMap, VecDeque};
use std::hash::{DefaultHasher, Hash, Hasher};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use mudock_mol::Molecule;
use mudock_serve::net::client;
use mudock_serve::{
    CacheStats, GridSource, JobHandle, JobId, JobSpec, JobState, NetConfig, NetServer, Priority,
    ScreenService, ServeConfig, SpillConfig, StageTimings,
};

use crate::host;
use crate::report::{ms, quantile, Outcome};
use crate::screen::{self, GridStore, Ranked, MIN_JOBS, SETUP_REPS};
use crate::shape::Shape;

/// Tail receptors. With one hot entry resident, five of the six cache
/// slots rotate over twelve tails, so every tail access is a miss and
/// the evicted entry's spill file has landed long before its next
/// access. The first pass over the tails (the builds) runs one job at a
/// time; after it, every tail miss is a reload of about a millisecond,
/// and evicting a fill still in flight would take five whole jobs on
/// the other executor during one reload. That keeps the cache counts
/// exact. (Overlapping the builds with the reloads instead evicts a
/// build in flight and discards it, so the counts then vary run to run.)
const TAILS: usize = 12;
const SERVE_NODE: NodeCfg = NodeCfg {
    threads: 2,
    job_slots: 2,
    cache_capacity: 6,
    spill: true,
};
const SERVE_CLIENTS: Clients = Clients {
    clients: 2,
    in_flight: 3,
    poll: Duration::from_millis(1),
};
/// Warmup jobs, run one at a time: every tail once, the hot receptor
/// as often.
const WARMUP: usize = 2 * TAILS;
/// Jobs of the fixed list a traced run measures.
const TRACED_JOBS: usize = 600;
/// Completed jobs per block of the throughput median.
const RATE_BLOCK: usize = 100;

#[derive(Clone, Copy)]
pub struct NodeCfg {
    pub threads: usize,
    pub job_slots: usize,
    pub cache_capacity: usize,
    pub spill: bool,
}

#[derive(Clone, Copy)]
pub struct Clients {
    pub clients: usize,
    /// Jobs each client keeps in flight.
    pub in_flight: usize,
    /// Interval between polling rounds.
    pub poll: Duration,
}

/// A started service, optionally behind the HTTP frontend.
struct Node {
    service: Arc<ScreenService>,
    server: Option<NetServer>,
    dir: PathBuf,
    receptors: HashMap<u64, Arc<Molecule>>,
}

impl Node {
    fn start(cfg: &NodeCfg, shape: &Shape, dir: &Path, net: bool) -> Result<Node, String> {
        std::fs::remove_dir_all(dir).ok();
        std::fs::create_dir_all(dir.join("results"))
            .map_err(|e| format!("{}: {e}", dir.display()))?;
        let service = Arc::new(
            ScreenService::try_start(ServeConfig {
                total_threads: cfg.threads,
                job_slots: cfg.job_slots,
                cache_capacity: cfg.cache_capacity,
                spill: cfg.spill.then(|| SpillConfig::new(dir.join("spill"))),
                ..ServeConfig::default()
            })
            .map_err(|e| format!("service start: {e}"))?,
        );
        let server = if net {
            let cfg = NetConfig {
                results_dir: dir.join("results"),
                event_loops: 1,
                ..NetConfig::default()
            };
            Some(
                NetServer::bind("127.0.0.1:0", Arc::clone(&service), cfg)
                    .map_err(|e| format!("loopback bind: {e}"))?,
            )
        } else {
            None
        };
        let receptors = shape
            .receptor_seeds()
            .into_iter()
            .map(|s| {
                let m = Shape::receptor(s)
                    .load()
                    .expect("synthetic receptors always load");
                (s, Arc::new(m))
            })
            .collect();
        Ok(Node {
            service,
            server,
            dir: dir.to_path_buf(),
            receptors,
        })
    }

    fn stop(mut self) {
        if let Some(server) = &mut self.server {
            server.shutdown();
        }
        self.service.shutdown();
        std::fs::remove_dir_all(&self.dir).ok();
    }
}

enum Ticket {
    Net(JobId),
    Local(JobHandle),
}

/// One job as its client saw it end. Kept small and flat: an untraced
/// run holds one per job until the output check, and peak RSS must not
/// grow with how many jobs the host got through. (A record holding the
/// ranking and the stage timings made serve-mixed peak RSS follow host
/// speed: 22.5 MiB at 2940 ligands/s, 17 MiB at 1200.)
pub struct Done {
    pub job: usize,
    pub completed: bool,
    /// Submit to the client seeing the terminal status.
    pub latency: Duration,
    /// [`digest`] of the served ranking.
    pub top: u64,
    pub ligands: usize,
    /// When the client saw the job end.
    pub at: Instant,
}

/// A ranking as one number: rankings compare equal by digest.
pub fn digest(ranking: &Ranked) -> u64 {
    let mut h = DefaultHasher::new();
    ranking.hash(&mut h);
    h.finish()
}

/// What one leg (one job list through one node) measured.
pub struct Leg {
    pub start: Instant,
    pub wall: Duration,
    pub done: Vec<Done>,
    /// Jobs that did not complete, with why.
    pub errors: Vec<(usize, String)>,
    /// Stage timings of the jobs that ended (traced legs only).
    pub stages: Vec<StageTimings>,
    pub cache: CacheStats,
    pub submit_rtt: Vec<Duration>,
    pub poll_rtt: Vec<Duration>,
    /// Status polls that found the job still running (timing-dependent).
    pub running_polls: u64,
    /// Requests the frontend served.
    pub requests: u64,
    pub shed: u64,
}

impl Leg {
    pub fn ligands(&self) -> usize {
        self.done.iter().map(|d| d.ligands).sum()
    }

    /// Median over blocks of `block` consecutive completions of the
    /// block's ligands ÷ the time since the previous block ended: a
    /// transient stall of the host moves one block, not the median.
    pub fn ligands_per_s(&self, block: usize) -> f64 {
        let mut ends: Vec<(Instant, usize)> = self.done.iter().map(|d| (d.at, d.ligands)).collect();
        ends.sort_by_key(|e| e.0);
        let mut since = self.start;
        let rates: Vec<f64> = ends
            .chunks_exact(block)
            .map(|b| {
                let end = b[b.len() - 1].0;
                let ligands: usize = b.iter().map(|e| e.1).sum();
                let rate = ligands as f64 / (end - since).as_secs_f64();
                since = end;
                rate
            })
            .collect();
        quantile(&rates, 0.5)
    }

    /// Requests fixed by the job list: every request except status polls
    /// that found the job still running.
    pub fn work_requests(&self) -> u64 {
        self.requests - self.running_polls
    }

    /// Fold in the jobs of an earlier leg on the same node (the node's
    /// counters in `self` already cover both).
    fn absorb(&mut self, earlier: Leg) {
        self.done.extend(earlier.done);
        self.done.sort_unstable_by_key(|d| d.job);
        self.errors.extend(earlier.errors);
        self.stages.extend(earlier.stages);
        self.submit_rtt.extend(earlier.submit_rtt);
        self.poll_rtt.extend(earlier.poll_rtt);
        self.running_polls += earlier.running_polls;
    }
}

pub enum Until {
    Count(usize),
    Deadline(Duration),
}

#[derive(Default)]
struct ClientLog {
    done: Vec<Done>,
    errors: Vec<(usize, String)>,
    stages: Vec<StageTimings>,
    submit_rtt: Vec<Duration>,
    poll_rtt: Vec<Duration>,
    running_polls: u64,
}

impl ClientLog {
    /// Record a job that failed or was refused.
    fn failed(&mut self, job: usize, latency: Duration, error: String) {
        self.errors.push((job, error));
        self.done.push(Done {
            job,
            completed: false,
            latency,
            top: 0,
            ligands: 0,
            at: Instant::now(),
        });
    }
}

/// Drive jobs `first..` of `shape` through `node` with closed-loop
/// clients until `until`, then drain what is in flight.
fn run_leg(
    node: &Node,
    shape: &Shape,
    first: usize,
    until: Until,
    cc: &Clients,
    traced: bool,
) -> Leg {
    let next = AtomicUsize::new(0);
    let start = Instant::now();
    let logs: Vec<ClientLog> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..cc.clients)
            .map(|_| {
                scope.spawn(|| client_loop(node, shape, first, &until, cc, traced, &next, start))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("benchmark client thread panicked"))
            .collect()
    });
    let conns = node.server.as_ref().map(NetServer::connection_stats);
    let mut leg = Leg {
        start,
        wall: Duration::ZERO,
        done: Vec::new(),
        errors: Vec::new(),
        stages: Vec::new(),
        cache: node.service.stats().cache,
        submit_rtt: Vec::new(),
        poll_rtt: Vec::new(),
        running_polls: 0,
        requests: conns.as_ref().map_or(0, |c| c.requests),
        shed: conns.as_ref().map_or(0, |c| c.shed),
    };
    for log in logs {
        leg.done.extend(log.done);
        leg.errors.extend(log.errors);
        leg.stages.extend(log.stages);
        leg.submit_rtt.extend(log.submit_rtt);
        leg.poll_rtt.extend(log.poll_rtt);
        leg.running_polls += log.running_polls;
    }
    leg.done.sort_unstable_by_key(|d| d.job);
    leg.wall = leg
        .done
        .iter()
        .map(|d| d.at - start)
        .max()
        .unwrap_or_default();
    leg
}

#[allow(clippy::too_many_arguments)]
fn client_loop(
    node: &Node,
    shape: &Shape,
    first: usize,
    until: &Until,
    cc: &Clients,
    traced: bool,
    next: &AtomicUsize,
    start: Instant,
) -> ClientLog {
    let mut conn = node
        .server
        .as_ref()
        .map(|s| client::Client::new(s.local_addr().to_string()));
    let mut log = ClientLog::default();
    let mut inflight: VecDeque<(usize, Instant, Ticket)> = VecDeque::new();
    let mut open = true;
    loop {
        while open && inflight.len() < cc.in_flight {
            let k = next.fetch_add(1, Ordering::SeqCst);
            open = match until {
                Until::Count(n) => k < *n,
                Until::Deadline(d) => start.elapsed() < *d,
            };
            if !open {
                break;
            }
            let j = first + k;
            let job = shape.job(j);
            let source = job.source();
            let t0 = Instant::now();
            let ticket = match &mut conn {
                Some(c) => c
                    .submit(&job.campaign, &job.receptor, &source, Priority::Normal)
                    .map(Ticket::Net)
                    .map_err(|e| e.to_string()),
                None => node
                    .service
                    .try_submit(JobSpec {
                        receptor: Arc::clone(&node.receptors[&job.receptor_seed]),
                        ligands: source,
                        jsonl: Some(node.dir.join("results").join(format!("job-{j}.jsonl"))),
                        ..JobSpec::from(job.campaign.clone())
                    })
                    .map(Ticket::Local)
                    .map_err(|e| e.to_string()),
            };
            if traced && conn.is_some() {
                log.submit_rtt.push(t0.elapsed());
            }
            match ticket {
                Ok(t) => inflight.push_back((j, t0, t)),
                Err(e) => log.failed(j, t0.elapsed(), e),
            }
        }
        if inflight.is_empty() {
            break;
        }
        // One status poll per job in flight per interval.
        std::thread::sleep(cc.poll);
        let mut i = 0;
        while i < inflight.len() {
            let (j, t0, ticket) = &inflight[i];
            let seen = match ticket {
                Ticket::Net(id) => {
                    let tp = Instant::now();
                    let r = conn
                        .as_mut()
                        .expect("net tickets come from a connection")
                        .poll(*id);
                    if traced {
                        log.poll_rtt.push(tp.elapsed());
                    }
                    // The server reads a job's state and its outcome
                    // under two separate locks, so a poll racing the
                    // job's end can see a terminal state without the
                    // outcome. Such a poll counts as one that found the
                    // job running: the next one carries the outcome.
                    match r {
                        Ok(st) if st.is_terminal() => Ok(st
                            .outcome
                            .map(|o| (st.state, o, st.stages, st.ligands_done))),
                        Ok(_) => Ok(None),
                        Err(e) => Err(e.to_string()),
                    }
                }
                Ticket::Local(h) => Ok(h.try_outcome().map(|o| {
                    let (state, done) = (o.state, o.ligands_done);
                    (state, o, Some(h.stage_timings()), done)
                })),
            };
            match seen {
                Ok(None) => {
                    if matches!(ticket, Ticket::Net(_)) {
                        log.running_polls += 1;
                    }
                    i += 1;
                    continue;
                }
                Ok(Some((state, outcome, stages, ligands))) => {
                    let latency = t0.elapsed();
                    let top: Ranked = outcome
                        .top
                        .iter()
                        .map(|r| (r.index, r.name.clone(), r.score.to_bits()))
                        .collect();
                    let completed = state == JobState::Completed;
                    if !completed {
                        let why = format!("{state:?}: {:?}", outcome.error);
                        log.errors.push((*j, why));
                    }
                    if traced {
                        log.stages.extend(stages);
                    }
                    log.done.push(Done {
                        job: *j,
                        completed,
                        latency,
                        top: digest(&top),
                        ligands,
                        at: Instant::now(),
                    });
                }
                Err(e) => log.failed(*j, t0.elapsed(), e),
            }
            inflight.remove(i);
        }
    }
    log
}

/// Check a leg's jobs: every one completed with the expected ranking.
fn check_leg(out: &mut Outcome, leg: &Leg, label: &str, expected: &dyn Fn(usize) -> Ranked) {
    for (job, why) in &leg.errors {
        out.problems
            .push(format!("{label}: job {job} did not complete: {why}"));
    }
    for d in leg.done.iter().filter(|d| d.completed) {
        out.check(d.top == digest(&expected(d.job)), || {
            format!(
                "{label}: job {} served a ranking that differs from screen_campaign",
                d.job
            )
        });
    }
}

fn stage_ms(leg: &Leg, f: impl Fn(&StageTimings) -> Option<u64>) -> Vec<f64> {
    leg.stages
        .iter()
        .filter_map(f)
        .map(|ns| ns as f64 / 1e6)
        .collect()
}

/// The serve layers of a traced run: the job list of `expected`
/// through six fresh nodes — frontend traced, frontend untraced,
/// in-process, in-process, frontend untraced, frontend traced — so
/// each comparison has its legs in alternating order. On each node the
/// first `warmup` jobs run one at a time, untimed; the rest run from
/// `clients`. Returns the traced and untraced frontend ligands/s.
pub fn ladder(
    out: &mut Outcome,
    shape: &Shape,
    node: &NodeCfg,
    clients: &Clients,
    warmup: usize,
    dir: &Path,
    expected: &[Ranked],
) -> (f64, f64) {
    let n = expected.len();
    let one = Clients {
        clients: 1,
        in_flight: 1,
        ..*clients
    };
    // Per leg kind (frontend traced, frontend untraced, in-process):
    // ligands and wall-clock of the concurrent phase.
    let mut rate = [(0usize, Duration::ZERO); 3];
    let mut traced_legs: Vec<Leg> = Vec::new();
    let mut cache_counts: Vec<[u64; 6]> = Vec::new();
    let mut requests: Vec<u64> = Vec::new();
    let mut shed = 0;
    for kind in [0, 1, 2, 2, 1, 0] {
        let (net, traced) = (kind < 2, kind == 0);
        let label = ["frontend traced leg", "frontend leg", "in-process leg"][kind];
        let node = match Node::start(node, shape, dir, net) {
            Ok(node) => node,
            Err(e) => {
                out.problems.push(e);
                return (0.0, 0.0);
            }
        };
        let warm = run_leg(&node, shape, 0, Until::Count(warmup), &one, traced);
        let mut leg = run_leg(
            &node,
            shape,
            warmup,
            Until::Count(n - warmup),
            clients,
            traced,
        );
        node.stop();
        rate[kind].0 += leg.ligands();
        rate[kind].1 += leg.wall;
        leg.absorb(warm);
        check_leg(out, &leg, label, &|j| expected[j].clone());
        out.check(leg.done.len() == n, || {
            format!("{label}: {} of {n} jobs ended", leg.done.len())
        });
        let c = &leg.cache;
        cache_counts.push([
            c.hits,
            c.misses,
            c.misses - c.reloads,
            c.reloads,
            c.spills,
            c.evictions,
        ]);
        if net {
            requests.push(leg.work_requests());
            shed += leg.shed;
        }
        if traced {
            traced_legs.push(leg);
        }
    }
    out.check(cache_counts.iter().all(|c| *c == cache_counts[0]), || {
        format!("cache counts (hits, misses, builds, reloads, spills, evictions) did not repeat across legs: {cache_counts:?}")
    });
    out.check(requests.iter().all(|r| *r == requests[0]), || {
        format!("frontend requests did not repeat across legs: {requests:?}")
    });
    let [lps_nt, lps_nu, lps_in] = rate.map(|(ligands, wall)| ligands as f64 / wall.as_secs_f64());

    let mut merged = traced_legs.pop().expect("two traced legs ran");
    for leg in traced_legs {
        merged.absorb(leg);
    }
    let wait = stage_ms(&merged, |s| s.queue_wait_ns);
    let m = &mut out.metrics;
    m.put("serve.queue_wait_ms_p50", quantile(&wait, 0.5), "ms");
    m.put("serve.queue_wait_ms_p90", quantile(&wait, 0.9), "ms");
    for source in [GridSource::Hit, GridSource::Built, GridSource::Reloaded] {
        let v = stage_ms(&merged, |s| {
            s.grid_ns.filter(|_| s.grid_source == Some(source))
        });
        m.put(
            format!("serve.grid_ms.{}", source.name()),
            quantile(&v, 0.5),
            "ms",
        );
    }
    m.put(
        "serve.dock_ms",
        quantile(&stage_ms(&merged, |s| s.dock_ns), 0.5),
        "ms",
    );
    m.put(
        "serve.sink_ms",
        quantile(&stage_ms(&merged, |s| s.sink_ns), 0.5),
        "ms",
    );
    let hot = (0..n).filter(|&j| shape.job(j).hot).count();
    m.put("serve.hot_job_frac", hot as f64 / n as f64, "ratio");
    let c = merged.cache;
    m.put("cache.hit_ratio", c.hit_rate(), "ratio");
    let submit = ms(&merged.submit_rtt);
    let poll = ms(&merged.poll_rtt);
    m.put("net.submit_rtt_ms_p50", quantile(&submit, 0.5), "ms");
    m.put("net.submit_rtt_ms_p90", quantile(&submit, 0.9), "ms");
    m.put("net.poll_rtt_ms_p50", quantile(&poll, 0.5), "ms");
    m.put("net.poll_rtt_ms_p90", quantile(&poll, 0.9), "ms");
    m.put("net.shed", shed as f64, "count");
    // Base: the same job list submitted in-process.
    m.put("net.overhead_frac", 1.0 - lps_nu / lps_in, "ratio");
    out.count("cache.hits", c.hits);
    out.count("cache.misses", c.misses);
    out.count("cache.builds", c.misses - c.reloads);
    out.count("cache.reloads", c.reloads);
    out.count("cache.spills", c.spills);
    out.count("cache.evictions", c.evictions);
    out.count("net.requests", requests[0]);
    (lps_nt, lps_nu)
}

/// Start the serve-mixed node and run the warmup jobs one at a time.
fn setup(shape: &Shape, dir: &Path) -> Result<Node, String> {
    let node = Node::start(&SERVE_NODE, shape, dir, true)?;
    let one = Clients {
        clients: 1,
        in_flight: 1,
        ..SERVE_CLIENTS
    };
    let warm = run_leg(&node, shape, 0, Until::Count(WARMUP), &one, false);
    if let Some((job, why)) = warm.errors.first() {
        let e = format!("warmup job {job} did not complete: {why}");
        node.stop();
        return Err(e);
    }
    Ok(node)
}

/// The untraced run: jobs from both clients until `seconds` have passed.
pub fn run(seed: u64, seconds: Duration, dir: &Path) -> Outcome {
    let shape = Shape::serve(seed, TAILS);
    let mut out = Outcome {
        threads: SERVE_NODE.threads,
        backend: shape.backend().name(),
        ..Outcome::default()
    };
    let mut setup_s = Vec::new();
    let mut node = None;
    for _ in 0..SETUP_REPS {
        if let Some(old) = node.take() {
            Node::stop(old);
        }
        let t0 = Instant::now();
        match setup(&shape, dir) {
            Ok(n) => node = Some(n),
            Err(e) => {
                out.problems.push(e);
                return out;
            }
        }
        setup_s.push(t0.elapsed().as_secs_f64());
    }
    let node = node.expect("SETUP_REPS > 0");
    let leg = run_leg(
        &node,
        &shape,
        WARMUP,
        Until::Deadline(seconds),
        &SERVE_CLIENTS,
        false,
    );
    let rss = host::peak_rss_mib();
    node.stop();

    let store = GridStore::build(&shape);
    let threads = host::nproc();
    check_leg(&mut out, &leg, "serve-mixed", &|j| {
        screen::expected(&store, &shape.job(j), threads)
    });
    out.attempted = leg.done.len() as u64;
    out.failed = leg.done.iter().filter(|d| !d.completed).count() as u64;
    out.check(leg.done.len() >= MIN_JOBS, || {
        format!(
            "only {} jobs measured, p90 needs {MIN_JOBS}",
            leg.done.len()
        )
    });

    let latency: Vec<Duration> = leg
        .done
        .iter()
        .filter(|d| d.completed)
        .map(|d| d.latency)
        .collect();
    let lat = ms(&latency);
    let m = &mut out.metrics;
    m.put("ligands_per_s", leg.ligands_per_s(RATE_BLOCK), "ligands/s");
    m.put("job_latency_p50_ms", quantile(&lat, 0.5), "ms");
    m.put("job_latency_p90_ms", quantile(&lat, 0.9), "ms");
    m.put("setup_s", quantile(&setup_s, 0.5), "s");
    match rss {
        Ok(v) => m.put("peak_rss_mb", v, "MiB"),
        Err(e) => out.problems.push(e),
    }
    out
}

/// The traced run: a fixed list of jobs through the campaign layer and
/// six serve legs, plus the kernel, GA, prep and grid probes.
pub fn traced(seed: u64, dir: &Path) -> Outcome {
    let shape = Shape::serve(seed, TAILS);
    let mut out = Outcome {
        threads: SERVE_NODE.threads,
        backend: shape.backend().name(),
        ..Outcome::default()
    };
    let store = GridStore::build(&shape);
    let jobs: Vec<_> = (0..TRACED_JOBS).map(|j| shape.job(j)).collect();
    let threads = host::nproc();
    let expected: Vec<Ranked> = jobs
        .iter()
        .map(|j| screen::expected(&store, j, threads))
        .collect();

    let legs = screen::campaign_legs(&mut out, &jobs, &store, SERVE_NODE.threads, &expected);
    screen::campaign_metrics(&mut out, &legs, SERVE_NODE.threads);
    screen::layer_metrics(&mut out, &shape, &store, &jobs, seed);
    let (lps_traced, lps_untraced) = ladder(
        &mut out,
        &shape,
        &SERVE_NODE,
        &SERVE_CLIENTS,
        WARMUP,
        dir,
        &expected,
    );
    out.metrics.put(
        "trace.overhead_frac",
        1.0 - lps_traced / lps_untraced,
        "ratio",
    );
    out.attempted = TRACED_JOBS as u64;
    out
}
