//! Intramolecular (intra-energy) scoring — Algorithm 2, lines 10–16.
//!
//! For every non-excluded atom pair within the 8 Å cutoff: electrostatic,
//! van der Waals / H-bond, and desolvation contributions. This is the
//! paper's *compute-bound* kernel: heavy on FMA chains, reciprocals and
//! exponentials, with gathers only for the pair coordinates.
//!
//! Three paths with identical semantics:
//!
//! * [`intra_energy_reference`] — scalar with `libm` math (`f32::exp`).
//!   Library calls in the loop body are exactly what blocks loop
//!   vectorization when no vector math library exists (the paper's
//!   GCC-on-ARM case).
//! * [`crate::autovec::intra_energy_autovec`] — the same arithmetic as
//!   plain loops with inlinable polynomial math: what a compiler
//!   auto-vectorizes when a vector math library *is* available.
//! * [`intra_energy_kernel`] — explicit vectorization (the Highway arm),
//!   at any [`mudock_simd::SimdLevel`] including the one-lane scalar one.

use mudock_ff::params::NB_CUTOFF;
use mudock_ff::terms::{ECLAMP, RMIN};
use mudock_ff::vterms;
use mudock_mol::ConformSoA;
use mudock_simd::{dispatch, Simd, SimdLevel};

use super::pairs::PairsSoA;

/// Scalar reference with `libm` math calls.
pub fn intra_energy_reference(conf: &ConformSoA, pairs: &PairsSoA) -> f32 {
    let cutoff2 = NB_CUTOFF * NB_CUTOFF;
    let mut total = 0.0f32;
    for k in 0..pairs.n {
        let i = pairs.i[k] as usize;
        let j = pairs.j[k] as usize;
        let dx = conf.x[i] - conf.x[j];
        let dy = conf.y[i] - conf.y[j];
        let dz = conf.z[i] - conf.z[j];
        let r2 = dx * dx + dy * dy + dz * dz;
        if r2 > cutoff2 {
            continue;
        }
        let r = r2.sqrt().max(RMIN);
        // vdW / H-bond with smoothing and clamp.
        let rs = mudock_ff::terms::smooth_r(r, pairs.rij[k]);
        let inv_r2 = 1.0 / (rs * rs);
        let inv_r6 = inv_r2 * inv_r2 * inv_r2;
        let inv_r10 = inv_r6 * inv_r2 * inv_r2;
        let inv_r12 = inv_r6 * inv_r6;
        let vdw =
            (pairs.c12[k] * inv_r12 - pairs.c6[k] * inv_r6 - pairs.c10[k] * inv_r10).min(ECLAMP);
        // Electrostatics with distance-dependent dielectric.
        let elec = pairs.qq[k] / (mudock_ff::terms::dielectric(r) * r);
        // Desolvation.
        let sigma2 = 2.0 * mudock_ff::params::DESOLV_SIGMA * mudock_ff::params::DESOLV_SIGMA;
        let des = pairs.sv[k] * (-r2 / sigma2).exp();
        total += vdw + elec + des;
    }
    total
}

/// Width-generic intra-energy kernel (see module docs for the three roles
/// it plays depending on the instantiating backend).
#[inline(always)]
pub fn intra_energy_kernel<S: Simd>(s: S, conf: &ConformSoA, pairs: &PairsSoA) -> f32 {
    let cutoff2 = s.splat(NB_CUTOFF * NB_CUTOFF);
    let rmin = s.splat(RMIN);
    let zero = s.zero();
    let mut acc = s.zero();
    let len = pairs.len_padded();
    debug_assert_eq!(len % S::LANES, 0);

    let mut k = 0;
    while k < len {
        let vi = s.load_i32(&pairs.i[k..]);
        let vj = s.load_i32(&pairs.j[k..]);
        // SAFETY: pair indices are built from the molecule topology and are
        // always < conf.n <= padded array length.
        let (xi, yi, zi, xj, yj, zj) = unsafe {
            (
                s.gather_unchecked(&conf.x, vi),
                s.gather_unchecked(&conf.y, vi),
                s.gather_unchecked(&conf.z, vi),
                s.gather_unchecked(&conf.x, vj),
                s.gather_unchecked(&conf.y, vj),
                s.gather_unchecked(&conf.z, vj),
            )
        };
        let dx = s.sub(xi, xj);
        let dy = s.sub(yi, yj);
        let dz = s.sub(zi, zj);
        let r2 = s.mul_add(dz, dz, s.mul_add(dy, dy, s.mul(dx, dx)));
        let in_cut = s.le(r2, cutoff2);
        if !s.any(in_cut) {
            k += S::LANES;
            continue;
        }
        let r = s.max(s.sqrt(r2), rmin);

        let vdw = vterms::vdw_hbond(
            s,
            r,
            s.load(&pairs.rij[k..]),
            s.load(&pairs.c12[k..]),
            s.load(&pairs.c6[k..]),
            s.load(&pairs.c10[k..]),
        );
        let elec = vterms::electrostatic(s, s.load(&pairs.qq[k..]), r);
        let des = vterms::desolvation(s, s.load(&pairs.sv[k..]), r2);
        let e = s.add(s.add(vdw, elec), des);
        acc = s.add(acc, s.select(in_cut, e, zero));
        k += S::LANES;
    }
    s.reduce_add(acc)
}

/// Dispatch the intra kernel at a runtime-selected level.
pub fn intra_energy_simd(level: SimdLevel, conf: &ConformSoA, pairs: &PairsSoA) -> f32 {
    dispatch!(level, |s| intra_energy_kernel(s, conf, pairs))
}

#[cfg(test)]
mod tests {
    use super::*;
    use mudock_ff::params::PairTable;
    use mudock_ff::terms::pair_energy;
    use mudock_mol::{Molecule, Topology};
    use mudock_molio::{synthetic_ligand, LigandSpec};

    fn prep(seed: u64) -> (Molecule, Topology, ConformSoA, PairsSoA) {
        let m = synthetic_ligand(
            seed,
            LigandSpec {
                heavy_atoms: 25,
                torsions: 5,
            },
        );
        let topo = Topology::build(&m);
        let conf = ConformSoA::from_molecule(&m);
        let pairs = PairsSoA::build(&m, &topo, &PairTable::new());
        (m, topo, conf, pairs)
    }

    #[test]
    fn reference_matches_force_field_pair_sum() {
        // Independent ground truth: sum ff::pair_energy over the topology
        // pair list with the same cutoff.
        let (m, topo, conf, pairs) = prep(3);
        let table = PairTable::new();
        let mut want = 0.0f32;
        for &(i, j) in &topo.pairs {
            let a = &m.atoms[i as usize];
            let b = &m.atoms[j as usize];
            let r = conf.pos(i as usize).distance(conf.pos(j as usize));
            if r * r > NB_CUTOFF * NB_CUTOFF {
                continue;
            }
            want += pair_energy(&table, a.ty, a.charge, b.ty, b.charge, r).total();
        }
        let got = intra_energy_reference(&conf, &pairs);
        assert!(
            (got - want).abs() < 1e-3 * want.abs().max(1.0),
            "{got} vs {want}"
        );
    }

    #[test]
    fn kernel_matches_reference_all_levels() {
        for seed in [1u64, 7, 42] {
            let (_m, _t, conf, pairs) = prep(seed);
            let want = intra_energy_reference(&conf, &pairs);
            for level in SimdLevel::available() {
                let got = intra_energy_simd(level, &conf, &pairs);
                assert!(
                    (got - want).abs() < 2e-3 * want.abs().max(1.0),
                    "seed {seed} {level}: {got} vs {want}"
                );
                let got = crate::autovec::intra_energy_autovec(level, &conf, &pairs);
                assert!(
                    (got - want).abs() < 2e-3 * want.abs().max(1.0),
                    "seed {seed} autovec@{level}: {got} vs {want}"
                );
            }
        }
    }

    #[test]
    fn empty_pair_list_scores_zero() {
        let (_m, _t, conf, _p) = prep(5);
        let empty = PairsSoA::build(
            &Molecule {
                name: String::new(),
                atoms: vec![],
                bonds: vec![],
            },
            &Topology::default(),
            &PairTable::new(),
        );
        assert_eq!(intra_energy_reference(&conf, &empty), 0.0);
        for level in SimdLevel::available() {
            assert_eq!(intra_energy_simd(level, &conf, &empty), 0.0, "{level}");
        }
    }

    #[test]
    fn far_apart_pairs_score_zero() {
        // Stretch the molecule far beyond the cutoff: only excluded/close
        // pairs remain, the rest mask out.
        let (_m, _t, mut conf, pairs) = prep(9);
        for i in 0..conf.n {
            conf.x[i] += 100.0 * i as f32; // > 8 Å between every pair
        }
        let want = intra_energy_reference(&conf, &pairs);
        assert_eq!(want, 0.0);
        for level in SimdLevel::available() {
            assert_eq!(intra_energy_simd(level, &conf, &pairs), 0.0, "{level}");
        }
    }
}
