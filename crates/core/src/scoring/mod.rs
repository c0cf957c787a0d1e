//! Pose scoring — the paper's Algorithm 2, split into the grid-lookup
//! inter-energy (memory-bound) and pairwise intra-energy (compute-bound)
//! kernels, each with reference and explicit-SIMD implementations here
//! and a compiler-vectorized one in [`crate::autovec`].

pub mod inter;
pub mod intra;
pub mod pairs;

pub use inter::{
    inter_energy_reference, inter_energy_simd, inter_energy_traced, GridAccess, OUT_OF_BOX_PENALTY,
};
pub use intra::{intra_energy_reference, intra_energy_simd};
pub use pairs::PairsSoA;
