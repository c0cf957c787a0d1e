//! # mudock-core — the muDock docking engine
//!
//! Rust reproduction of the muDock mini-app at the heart of the paper: a
//! genetic-algorithm pose search (Algorithm 1) over an AutoDock 4-style
//! scoring function (Algorithm 2), with the receptor interaction
//! memoized into AutoGrid-style maps (`mudock-grids`).
//!
//! Every kernel exists in three semantically identical forms, which is the
//! paper's entire experimental axis:
//!
//! | [`Backend`]               | paper analogue                                   |
//! |---------------------------|--------------------------------------------------|
//! | [`Backend::Reference`]    | scalar + `libm` (no vector math → no vectorization, the GCC-on-ARM case) |
//! | [`Backend::AutoVec`]      | plain loops with inline polynomial math, vectorized by LLVM in the host's widest ISA frame ([`autovec`]; `#pragma omp simd` + `-fveclib`) |
//! | [`Backend::Explicit`]     | explicit SIMD via `mudock-simd` (Google Highway) |
//!
//! Runs are described by the [`campaign`] API: a [`CampaignSpec`] built
//! through [`Campaign::builder`] composes a [`BackendPolicy`] (detect,
//! fix, or pin a SIMD level per job), a [`StopPolicy`] (evaluation
//! budgets, deadlines, ranking-stability early termination), and a
//! [`ChunkPolicy`] (fixed or adaptive batch sizing), and lowers to the
//! kernel-level [`DockParams`]. Every entry point — one-shot docking,
//! batch [`screen_campaign`], `mudock-serve` jobs, and the CLI —
//! consumes that one shape.
//!
//! ```
//! use mudock_core::{Backend, DockParams, DockingEngine, GaParams, LigandPrep};
//! use mudock_grids::{GridBuilder, GridDims};
//! use mudock_molio::complex_1a30_like;
//! use mudock_mol::Vec3;
//! use mudock_simd::SimdLevel;
//!
//! let (receptor, ligand) = complex_1a30_like();
//! let mut types: Vec<mudock_ff::AtomType> = ligand.atoms.iter().map(|a| a.ty).collect();
//! types.sort_unstable();
//! types.dedup();
//! let dims = GridDims::centered(Vec3::ZERO, 10.0, 0.75);
//! let maps = GridBuilder::new(&receptor, dims)
//!     .with_types(&types)
//!     .build_simd(SimdLevel::detect());
//!
//! let engine = DockingEngine::new(&maps).unwrap();
//! let prep = LigandPrep::new(ligand).unwrap();
//! let params = DockParams {
//!     ga: GaParams { population: 10, generations: 5, ..Default::default() },
//!     ..Default::default()
//! };
//! let report = engine.dock(&prep, &params).unwrap();
//! assert!(report.best_score.is_finite());
//! assert_eq!(report.evaluations, 50);
//! ```

pub mod autovec;
pub mod campaign;
pub mod engine;
pub mod ga;
pub mod genotype;
pub mod local_search;
pub mod scoring;
pub mod screen;
pub mod stats;
pub mod topk;
pub mod transform;

pub use campaign::{
    BackendPolicy, Campaign, CampaignBuilder, CampaignError, CampaignSpec, ChunkPolicy, ChunkSizer,
    ShardPolicy, StopCheck, StopPolicy, MAX_CHUNK, MAX_SHARD_WEIGHT,
};
pub use engine::{Backend, DockError, DockParams, DockReport, DockingEngine, LigandPrep};
pub use ga::{Ga, GaParams};
pub use genotype::Genotype;
pub use local_search::{solis_wets, LocalSearchResult, SolisWetsParams};
pub use screen::{dock_ligand, ligand_seed, screen, screen_campaign, ScreenResult, ScreenSummary};
pub use stats::KernelStats;
pub use topk::{merge_ranked_partials, TopK};
