//! Workload inputs: every job the benchmark runs is derived from the
//! run's `--seed` by [`Shape::job`], so the same seed gives the same
//! receptors, ligands and campaigns, and the program receives only
//! these generated inputs.

use mudock_core::{Backend, BackendPolicy, Campaign, CampaignSpec, ChunkPolicy};
use mudock_grids::{GridBuilder, GridDims, GridSet, SimdLevel};
use mudock_mol::{Molecule, Vec3};
use mudock_molio::{parse_models, synthetic_ligand, LigandSpec};
use mudock_serve::{LigandSource, ReceptorSource};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// Receptor atoms (a 300-atom synthetic pocket, as in the paper's
/// single-core runs).
const RECEPTOR_ATOMS: usize = 300;
/// Pocket shell radius of the synthetic receptors (Å).
const POCKET_RADIUS: f32 = 9.0;

/// SplitMix64 finalizer over `seed ^ tag`: decorrelated sub-seeds.
pub fn mix(seed: u64, tag: u64) -> u64 {
    let mut z = (seed ^ tag).wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Ligand sizes every workload cycles through.
const SIZE_TABLE: usize = 64;
/// Seed of the size table: the same for every run.
const SIZE_SEED: u64 = 0x7369_7a65;

/// A fixed draw of `SIZE_TABLE` (heavy atoms, torsions) pairs from the
/// MEDIATE-like distribution of `mudock_molio` (10–50 heavy atoms around
/// ~22, torsions up to a third of them, at most 12). Per-ligand cost
/// grows steeply with size, so runs cycle through this one mix and only
/// the geometry comes from `--seed`: ligands/s then compares across
/// seeds.
fn size_table() -> Vec<LigandSpec> {
    let mut rng = StdRng::seed_from_u64(SIZE_SEED);
    (0..SIZE_TABLE)
        .map(|_| {
            // Box–Muller, as the molio generator draws it.
            let u1: f32 = rng.random::<f32>().max(1e-7);
            let u2: f32 = rng.random();
            let g = (-2.0f32 * u1.ln()).sqrt() * (std::f32::consts::TAU * u2).cos();
            let heavy = ((16.0 * (0.45 * g).exp() + 6.0) as usize).clamp(10, 50);
            LigandSpec {
                heavy_atoms: heavy,
                torsions: rng.random_range(0..=(heavy / 3).min(12)),
            }
        })
        .collect()
}

/// One docking job: a receptor, a small synthetic ligand batch and the
/// campaign that docks it. The same job runs through `screen_campaign`,
/// `ScreenService::submit` and `POST /jobs`.
#[derive(Clone, Debug)]
pub struct Job {
    pub receptor: ReceptorSource,
    /// Receptor seed; the key of the benchmark's own grid store.
    pub receptor_seed: u64,
    /// One synthetic ligand per spec, seeded from this and its slot.
    ligand_seed: u64,
    specs: Vec<LigandSpec>,
    pub campaign: CampaignSpec,
    /// Targets the hot receptor (serve-mixed); always true for screen.
    pub hot: bool,
}

impl Job {
    /// The molecules the program docks, as parsed back from the PDBQT
    /// text every path receives.
    pub fn ligands(&self) -> Vec<Molecule> {
        parse_models(&self.pdbqt())
            .collect::<Result<_, _>>()
            .expect("generated ligands parse back from PDBQT")
    }

    /// The ligands as multi-model PDBQT text, the library format.
    fn pdbqt(&self) -> String {
        let mut text = String::new();
        for (i, spec) in self.specs.iter().enumerate() {
            let mol = synthetic_ligand(mix(self.ligand_seed, i as u64), *spec);
            text.push_str(&format!("MODEL {}\n", i + 1));
            text.push_str(&mudock_molio::write(&mol));
            text.push_str("ENDMDL\n");
        }
        text
    }

    pub fn n_ligands(&self) -> usize {
        self.specs.len()
    }

    /// The job's ligands as the service takes them.
    pub fn source(&self) -> LigandSource {
        LigandSource::from_pdbqt(self.pdbqt())
    }
}

/// The job generator of one workload.
#[derive(Clone, Debug)]
pub struct Shape {
    seed: u64,
    backend: BackendPolicy,
    pub dims: GridDims,
    population: usize,
    generations: usize,
    pub ligands_per_job: usize,
    search_radius: Option<f32>,
    /// Tail receptors the non-hot jobs rotate over (0: every job
    /// targets the hot receptor).
    pub tails: usize,
    sizes: Vec<LigandSpec>,
}

impl Shape {
    /// `screen-simd` / `screen-autovec`: one receptor on all-type grids
    /// at 0.6 Å (39³ points × 16 maps ≈ 0.95 M cells, 3.8 MB), four
    /// MEDIATE-like ligands per job from the size table, 40 × 20 GA
    /// evaluations per ligand.
    pub fn screen(seed: u64, backend: Backend) -> Shape {
        Shape {
            seed,
            backend: BackendPolicy::Fixed(backend),
            dims: GridDims::centered(Vec3::ZERO, 11.3, 0.6),
            population: 40,
            generations: 20,
            ligands_per_job: 4,
            search_radius: None,
            tails: 0,
            sizes: size_table(),
        }
    }

    /// `serve-mixed`: even jobs target one hot receptor, odd jobs
    /// rotate over `tails` receptors; small 25³-point grids so tail
    /// builds and reloads stay cheap; four ligands from the size table
    /// and 30 × 10 GA evaluations per ligand.
    pub fn serve(seed: u64, tails: usize) -> Shape {
        Shape {
            seed,
            backend: BackendPolicy::Detect,
            dims: GridDims::centered(Vec3::ZERO, 7.0, 0.6),
            population: 30,
            generations: 10,
            ligands_per_job: 4,
            search_radius: Some(3.0),
            tails,
            sizes: size_table(),
        }
    }

    /// Jobs that together dock the whole size table once.
    pub fn jobs_per_cycle(&self) -> usize {
        self.sizes.len() / self.ligands_per_job
    }

    /// The SIMD level grids are built at, as the campaign API decides.
    pub fn grid_level(&self) -> SimdLevel {
        self.backend.grid_level()
    }

    /// The backend every job resolves to.
    pub fn backend(&self) -> Backend {
        self.backend.resolve()
    }

    fn hot_seed(&self) -> u64 {
        mix(self.seed, 0x0068_6f74)
    }

    fn tail_seed(&self, t: usize) -> u64 {
        mix(self.seed, 0x7461_696c_0000 + t as u64)
    }

    /// Every receptor seed this shape's jobs can target.
    pub fn receptor_seeds(&self) -> Vec<u64> {
        let mut v = vec![self.hot_seed()];
        v.extend((0..self.tails).map(|t| self.tail_seed(t)));
        v
    }

    pub fn receptor(seed: u64) -> ReceptorSource {
        ReceptorSource::Synth {
            seed,
            atoms: RECEPTOR_ATOMS,
            radius: POCKET_RADIUS,
        }
    }

    /// Job `j` of this workload's stream.
    pub fn job(&self, j: usize) -> Job {
        let hot = self.tails == 0 || j.is_multiple_of(2);
        let receptor_seed = if hot {
            self.hot_seed()
        } else {
            self.tail_seed((j / 2) % self.tails)
        };
        let mut builder = Campaign::builder()
            .name(format!("job-{j}"))
            .population(self.population)
            .generations(self.generations)
            .seed(mix(self.seed, 0x6361_6d70_0000_0000 ^ j as u64))
            .top_k(self.ligands_per_job)
            .chunk(ChunkPolicy::Fixed(self.ligands_per_job))
            .grid_dims(self.dims)
            .backend(self.backend);
        if let Some(r) = self.search_radius {
            builder = builder.search_radius(r);
        }
        Job {
            receptor: Shape::receptor(receptor_seed),
            receptor_seed,
            ligand_seed: mix(self.seed, 0x6c69_6700_0000_0000 ^ j as u64),
            specs: self.specs(j),
            campaign: builder.build().expect("benchmark campaigns are valid"),
            hot,
        }
    }

    /// The sizes of job `j`'s ligands. Each cycle of `jobs_per_cycle`
    /// jobs docks every size once, dealt from a shuffle of the table
    /// that changes from cycle to cycle (and not with the seed), so job
    /// compositions vary and job latencies spread smoothly instead of
    /// bunching at a few fixed job sizes.
    fn specs(&self, j: usize) -> Vec<LigandSpec> {
        let (cycle, slot) = (j / self.jobs_per_cycle(), j % self.jobs_per_cycle());
        let mut order: Vec<usize> = (0..self.sizes.len()).collect();
        let mut rng = StdRng::seed_from_u64(mix(SIZE_SEED, cycle as u64));
        for i in (1..order.len()).rev() {
            order.swap(i, rng.random_range(0..=i));
        }
        let n = self.ligands_per_job;
        order[slot * n..(slot + 1) * n]
            .iter()
            .map(|&k| self.sizes[k])
            .collect()
    }

    /// A job outside the measured stream, used to warm caches.
    pub fn warmup_job(&self) -> Job {
        let mut job = self.job(0);
        job.ligand_seed = mix(self.seed, 0x7761_726d);
        job
    }

    /// Build the grids of one receptor at this shape's level.
    pub fn build_grids(&self, receptor_seed: u64) -> GridSet {
        let receptor = Shape::receptor(receptor_seed)
            .load()
            .expect("synthetic receptors always load");
        GridBuilder::new(&receptor, self.dims).build_simd(self.grid_level())
    }
}
