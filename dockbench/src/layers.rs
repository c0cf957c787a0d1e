//! Per-layer probes of the traced runs: grids, ligand preparation, the
//! three pose kernels, whole-pose cost per backend, the operation mix
//! computed from `archsim::opmix`, and GA evolution. Each probe times
//! calls into one layer's public functions from the benchmark's own
//! code; nothing inside the program is instrumented.

use std::hint::black_box;
use std::time::{Duration, Instant};

use mudock_archsim::opmix::{
    INTER_PER_ATOM, INTRA_PER_PAIR, TRANSFORM_RIGID_PER_ATOM, TRANSFORM_TORSION_PER_ATOM,
};
use mudock_core::scoring::{
    inter_energy_reference, inter_energy_simd, intra_energy_reference, intra_energy_simd,
};
use mudock_core::transform::{apply_pose_reference, apply_pose_simd};
use mudock_core::{Backend, DockingEngine, Ga, GaParams, Genotype, LigandPrep};
use mudock_grids::GridSet;
use mudock_mol::{ConformSoA, Molecule, Vec3};
use mudock_simd::SimdLevel;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::report::{ms, quantile, Metrics, Outcome};

/// Random poses scored per probe ligand.
const POSES_PER_LIGAND: usize = 48;
/// Minimum timed wall-clock per kernel probe.
const PROBE_TIME: Duration = Duration::from_millis(150);
/// Half-side of the translation box the probe poses are drawn from (Å).
const POSE_BOX: f32 = 3.0;
/// FLOPs charged per exponential: the polynomial `exp` of the explicit
/// and auto-vectorized kernels (`OpMix::flops`).
const FLOPS_PER_EXP: f64 = 13.0;

/// Prepared probe ligands with fixed random poses.
pub struct Probe {
    preps: Vec<LigandPrep>,
    poses: Vec<Vec<Genotype>>,
}

impl Probe {
    pub fn new(ligands: &[Molecule], seed: u64) -> Probe {
        let mut rng = StdRng::seed_from_u64(seed);
        let preps: Vec<LigandPrep> = ligands
            .iter()
            .filter_map(|m| LigandPrep::new(m.clone()).ok())
            .collect();
        let poses = preps
            .iter()
            .map(|p| {
                (0..POSES_PER_LIGAND)
                    .map(|_| Genotype::random(&mut rng, p.n_torsions(), Vec3::ZERO, POSE_BOX))
                    .collect()
            })
            .collect();
        Probe { preps, poses }
    }

    fn pose_count(&self) -> usize {
        self.preps.len() * POSES_PER_LIGAND
    }

    /// One conformation buffer per probe ligand, sized for it.
    fn scratch(&self) -> Vec<ConformSoA> {
        self.preps
            .iter()
            .map(|p| ConformSoA::with_capacity(p.base.n))
            .collect()
    }
}

/// Repeat `pass` (which does `per_pass` units of work) until
/// [`PROBE_TIME`] has elapsed; microseconds per unit.
fn us_per_unit(per_pass: usize, mut pass: impl FnMut()) -> f64 {
    pass(); // warm caches
    let t0 = Instant::now();
    let mut passes = 0usize;
    while t0.elapsed() < PROBE_TIME {
        pass();
        passes += 1;
    }
    t0.elapsed().as_secs_f64() * 1e6 / (passes * per_pass.max(1)) as f64
}

/// `grids.*`: build time (median of the given builds) and footprint.
pub fn grids(m: &mut Metrics, builds: &[Duration], gs: &GridSet) {
    m.put("grids.build_ms", quantile(&ms(builds), 0.5), "ms");
    m.put("grids.cells", gs.data.len() as f64, "count");
    m.put("grids.bytes", gs.bytes() as f64, "bytes");
}

/// `prep.us_per_ligand`: `LigandPrep::new` over the given ligands.
pub fn prep(m: &mut Metrics, ligands: &[Molecule]) {
    let mut clones: Vec<Molecule> = Vec::new();
    let mut spent = Duration::ZERO;
    let mut done = 0usize;
    while spent < PROBE_TIME {
        clones.clear();
        clones.extend(ligands.iter().cloned());
        let t0 = Instant::now();
        for mol in clones.drain(..) {
            black_box(LigandPrep::new(mol).ok());
        }
        spent += t0.elapsed();
        done += ligands.len();
    }
    m.put(
        "prep.us_per_ligand",
        spent.as_secs_f64() * 1e6 / done.max(1) as f64,
        "us",
    );
}

/// The explicit level whose kernel instances a backend runs: `None`
/// for the libm reference. `AutoVec` runs the one-lane `Scalar`
/// instances, as `DockingEngine::score` dispatches it.
fn kernel_level(backend: Backend) -> Option<SimdLevel> {
    match backend {
        Backend::Reference => None,
        Backend::AutoVec => Some(SimdLevel::Scalar),
        Backend::Explicit(l) => Some(l),
    }
}

/// `kernel.*_us_per_pose` at the workload's backend, `kernel.<b>.pose_us`
/// for every backend this benchmark names (0 where the host cannot run
/// it), and `kernel.autovec_vs_best_ratio`.
pub fn kernels(m: &mut Metrics, grids: &GridSet, probe: &Probe, backend: Backend) {
    let level = kernel_level(backend);
    let n = probe.pose_count();
    let mut confs: Vec<Vec<ConformSoA>> = probe
        .scratch()
        .into_iter()
        .map(|c| vec![c; POSES_PER_LIGAND])
        .collect();
    let transform = us_per_unit(n, || {
        for ((p, poses), confs) in probe.preps.iter().zip(&probe.poses).zip(confs.iter_mut()) {
            for (g, c) in poses.iter().zip(confs.iter_mut()) {
                match level {
                    None => apply_pose_reference(&p.base, &p.plans, g, c),
                    Some(l) => apply_pose_simd(l, &p.base, &p.plans, g, c),
                }
            }
        }
    });
    let inter = us_per_unit(n, || {
        for (p, confs) in probe.preps.iter().zip(&confs) {
            for c in confs {
                black_box(match level {
                    None => inter_energy_reference(grids, c, &p.statics),
                    Some(l) => inter_energy_simd(l, grids, c, &p.statics),
                });
            }
        }
    });
    let intra = us_per_unit(n, || {
        for (p, confs) in probe.preps.iter().zip(&confs) {
            for c in confs {
                black_box(match level {
                    None => intra_energy_reference(c, &p.pairs),
                    Some(l) => intra_energy_simd(l, c, &p.pairs),
                });
            }
        }
    });
    m.put("kernel.transform_us_per_pose", transform, "us");
    m.put("kernel.inter_us_per_pose", inter, "us");
    m.put("kernel.intra_us_per_pose", intra, "us");

    let engine = DockingEngine::new(grids).expect("benchmark grids fit the engine");
    let mut scratch = probe.scratch();
    let mut best_explicit = f64::INFINITY;
    let mut autovec = f64::NAN;
    // Every backend this benchmark names; those the host cannot run read 0.
    let named = [Backend::Reference, Backend::AutoVec]
        .into_iter()
        .chain(SimdLevel::ALL.map(Backend::Explicit));
    for b in named {
        let available = match b {
            Backend::Explicit(l) => l.is_supported(),
            _ => true,
        };
        let us = if available {
            us_per_unit(n, || {
                for ((p, poses), c) in probe.preps.iter().zip(&probe.poses).zip(&mut scratch) {
                    for g in poses {
                        black_box(engine.score(p, g, c, b));
                    }
                }
            })
        } else {
            0.0
        };
        m.put(format!("kernel.{b}.pose_us"), us, "us");
        match b {
            Backend::AutoVec => autovec = us,
            Backend::Explicit(_) if available => best_explicit = best_explicit.min(us),
            _ => {}
        }
    }
    // Base: the fastest explicit-SIMD backend of this host.
    m.put(
        "kernel.autovec_vs_best_ratio",
        autovec / best_explicit,
        "ratio",
    );
}

/// Output check: sampled pose scores of every backend of this host lie
/// within the engine's 5e-3 relative tolerance of `reference`.
pub fn check_backends(out: &mut Outcome, grids: &GridSet, probe: &Probe) {
    let engine = DockingEngine::new(grids).expect("benchmark grids fit the engine");
    for (p, poses) in probe.preps.iter().zip(&probe.poses) {
        let mut scratch = ConformSoA::with_capacity(p.base.n);
        for g in poses.iter().take(4) {
            let reference = engine.score(p, g, &mut scratch, Backend::Reference);
            for b in Backend::available() {
                let got = engine.score(p, g, &mut scratch, b);
                let tol = 5e-3 * reference.abs().max(1.0);
                out.check((got - reference).abs() <= tol, || {
                    format!(
                        "{b} scored {got} against reference {reference} on {}",
                        p.mol.name
                    )
                });
            }
        }
    }
}

/// Computed (not measured) FLOPs, bytes and arithmetic intensity per
/// pose of each kernel, from `archsim::opmix` per-element mixes and the
/// probe ligands' real atom, torsion and pair counts.
pub fn opmix(m: &mut Metrics, probe: &Probe) {
    for name in ["transform", "inter", "intra"] {
        let (mut flops, mut bytes) = (0.0, 0.0);
        for p in &probe.preps {
            let atoms = p.base.n as f64;
            let parts = match name {
                "transform" => vec![
                    (TRANSFORM_RIGID_PER_ATOM, atoms),
                    (TRANSFORM_TORSION_PER_ATOM, atoms * p.n_torsions() as f64),
                ],
                "inter" => vec![(INTER_PER_ATOM, atoms)],
                _ => vec![(INTRA_PER_PAIR, p.pairs.n as f64)],
            };
            for (k, elems) in parts {
                let mix = k.per_element.scaled(elems);
                flops += mix.flops(FLOPS_PER_EXP);
                bytes += 4.0 * (mix.load + mix.store + mix.gather);
            }
        }
        let n = probe.preps.len().max(1) as f64;
        let (flops, bytes) = (flops / n, bytes / n);
        m.put(format!("kernel.{name}.flops_per_pose"), flops, "flop/pose");
        m.put(format!("kernel.{name}.bytes_per_pose"), bytes, "bytes/pose");
        m.put(
            format!("kernel.{name}.ai"),
            flops / bytes.max(1e-12),
            "flop/byte",
        );
    }
}

/// `ga.evolve_us_per_gen`: `Ga::evolve` on populations scored at the
/// workload's backend, `generations` per probe ligand.
pub fn ga_evolve(
    m: &mut Metrics,
    grids: &GridSet,
    probe: &Probe,
    ga: GaParams,
    backend: Backend,
    seed: u64,
) {
    let engine = DockingEngine::new(grids).expect("benchmark grids fit the engine");
    let mut spent = Duration::ZERO;
    let mut calls = 0usize;
    for (i, p) in probe.preps.iter().enumerate() {
        let mut scratch = ConformSoA::with_capacity(p.base.n);
        let mut g = Ga::new(ga, seed ^ i as u64, Vec3::ZERO, POSE_BOX, p.n_torsions());
        let mut pop = g.init_population();
        for _ in 0..ga.generations {
            let fitness: Vec<f32> = pop
                .iter()
                .map(|ind| engine.score(p, ind, &mut scratch, backend))
                .collect();
            let t0 = Instant::now();
            pop = g.evolve(&pop, &fitness);
            spent += t0.elapsed();
            calls += 1;
        }
    }
    m.put(
        "ga.evolve_us_per_gen",
        spent.as_secs_f64() * 1e6 / calls.max(1) as f64,
        "us",
    );
}
