//! The compiler-vectorized backend ([`Backend::AutoVec`]): the transform,
//! inter and intra kernels as plain Rust loops over the padded SoA arrays,
//! with no [`Simd`](mudock_simd::Simd) calls, vectorized by LLVM.
//!
//! This is the paper's `#pragma omp simd` arm: one scalar-looking code
//! base whose loops the compiler vectorizes because the math is inlinable
//! and the loop shapes allow it. Each entry point is an out-of-line
//! function that runs its body inside [`dispatch!`] at the requested
//! level, so LLVM compiles the loops with the same `#[target_feature]`
//! set the explicit kernels get. Pass [`SimdLevel::detect`] for the
//! host's widest frame. On targets without an x86 backend every level
//! lands in the baseline frame (NEON on aarch64).
//!
//! What the loops need for LLVM to vectorize them:
//!
//! * **No saturating float→int casts.** `round_ties_even() as i32`
//!   scalarizes even under AVX-512. The local `exp` rounds with the `1.5·2²³`
//!   magic constant instead, and the inter kernel builds its grid indices
//!   in `i32` arithmetic from truncated, clamped coordinates.
//! * **No per-element bounds checks.** Chunks are fixed `&[_; LANES]`
//!   views, and the coordinate and grid gathers use `get_unchecked`
//!   behind range checks made once per call or per chunk.
//! * **Independent accumulators.** `LANES` lane sums, added in a fixed
//!   order at the end: LLVM never reorders one serial `f32` sum.
//!
//! Every term uses plain `*` and `+` in the order the `vterms` functions
//! use at the one-lane `Scalar` token. Rust never contracts them to FMA,
//! so every frame gives bit-identical results.
//!
//! [`Backend::AutoVec`]: crate::Backend::AutoVec

use mudock_ff::params::{DESOLV_SIGMA, NB_CUTOFF, SMOOTH};
use mudock_ff::terms::{ECLAMP, RMIN};
use mudock_ff::types::NUM_TYPES;
use mudock_grids::{GridSet, DESOLV_MAP, ELEC_MAP, NUM_MAPS};
use mudock_mol::{AtomStatics, ConformSoA, Quat, PAD};
use mudock_simd::math::{EXP_HI, EXP_LO};
use mudock_simd::{dispatch, SimdLevel};

use crate::genotype::Genotype;
use crate::scoring::inter::OUT_OF_BOX_PENALTY;
use crate::scoring::pairs::PairsSoA;
use crate::transform::TorsionPlan;

/// Lanes per chunk: the padding width, so chunks never have a tail.
const LANES: usize = PAD;

/// Rigid placement then masked torsion rotations, as
/// [`apply_pose_kernel`](crate::transform::apply_pose_kernel) computes
/// them, compiled in the `frame` level's ISA.
#[inline(never)]
pub fn apply_pose_autovec(
    frame: SimdLevel,
    base: &ConformSoA,
    plans: &[TorsionPlan],
    g: &Genotype,
    out: &mut ConformSoA,
) {
    dispatch!(frame, |_s| apply_pose_body(base, plans, g, out));
}

/// Inter energy of `conf` against the grid maps, compiled in the `frame`
/// level's ISA.
#[inline(never)]
pub fn inter_energy_autovec(
    frame: SimdLevel,
    gs: &GridSet,
    conf: &ConformSoA,
    st: &AtomStatics,
) -> f32 {
    dispatch!(frame, |_s| inter_body(gs, conf, st))
}

/// Intra energy over the pair list, compiled in the `frame` level's ISA.
#[inline(never)]
pub fn intra_energy_autovec(frame: SimdLevel, conf: &ConformSoA, pairs: &PairsSoA) -> f32 {
    dispatch!(frame, |_s| intra_body(conf, pairs))
}

#[inline(always)]
fn apply_pose_body(base: &ConformSoA, plans: &[TorsionPlan], g: &Genotype, out: &mut ConformSoA) {
    let len = base.len_padded();
    let m = g.rotation().to_matrix();
    let t = g.translation();
    {
        // Slicing once to `len` lets LLVM drop every bounds check below.
        let (bx, by, bz) = (&base.x[..len], &base.y[..len], &base.z[..len]);
        let (ox, oy, oz) = (&mut out.x[..len], &mut out.y[..len], &mut out.z[..len]);
        for i in 0..len {
            let (x, y, z) = (bx[i], by[i], bz[i]);
            ox[i] = m[2] * z + (m[1] * y + (m[0] * x + t.x));
            oy[i] = m[5] * z + (m[4] * y + (m[3] * x + t.y));
            oz[i] = m[8] * z + (m[7] * y + (m[6] * x + t.z));
        }
    }
    for (k, plan) in plans.iter().enumerate() {
        let pa = out.pos(plan.a);
        let pb = out.pos(plan.b);
        let r = Quat::from_axis_angle(pb - pa, g.torsion(k)).to_matrix();
        let mask = &plan.mask[..len];
        let (ox, oy, oz) = (&mut out.x[..len], &mut out.y[..len], &mut out.z[..len]);
        for i in 0..len {
            let (x, y, z) = (ox[i], oy[i], oz[i]);
            let (vx, vy, vz) = (x - pa.x, y - pa.y, z - pa.z);
            let rx = r[2] * vz + (r[1] * vy + (r[0] * vx + pa.x));
            let ry = r[5] * vz + (r[4] * vy + (r[3] * vx + pa.y));
            let rz = r[8] * vz + (r[7] * vy + (r[6] * vx + pa.z));
            // w ∈ {0, 1} selects exactly between the old and rotated atom.
            let w = mask[i];
            ox[i] = w * (rx - x) + x;
            oy[i] = w * (ry - y) + y;
            oz[i] = w * (rz - z) + z;
        }
    }
}

#[inline(always)]
fn inter_body(gs: &GridSet, conf: &ConformSoA, st: &AtomStatics) -> f32 {
    let dims = &gs.dims;
    let [nx, ny, nz] = dims.npts;
    let stride = gs.stride();
    // The checks every unchecked grid read below relies on.
    assert!(
        nx >= 2 && ny >= 2 && nz >= 2,
        "grid needs two points per axis"
    );
    assert!(
        NUM_MAPS * stride <= gs.data.len() && gs.data.len() <= i32::MAX as usize,
        "grid buffer does not match its dimensions"
    );
    // Upper clamp slightly inside the last cell so truncation lands on n-2.
    let hx = (nx - 1) as f32 - 1e-4;
    let hy = (ny - 1) as f32 - 1e-4;
    let hz = (nz - 1) as f32 - 1e-4;
    assert!(
        hx < (nx - 1) as f32 && hy < (ny - 1) as f32 && hz < (nz - 1) as f32,
        "grid too long along one axis for the f32 cell clamp"
    );
    let (bx, by, bz) = ((nx - 1) as f32, (ny - 1) as f32, (nz - 1) as f32);
    let inv_sp = 1.0 / dims.spacing;
    let o = dims.origin;
    let (sy, sz) = (nx as i32, (nx * ny) as i32);
    let stride_i = stride as i32;
    let elec_base = ELEC_MAP as i32 * stride_i;
    let des_base = DESOLV_MAP as i32 * stride_i;
    let pen_slope = OUT_OF_BOX_PENALTY * dims.spacing;
    let data = gs.data.as_slice();

    let mut acc = [0.0f32; LANES];
    for k in (0..conf.len_padded()).step_by(LANES) {
        let (px, py, pz) = (chunk(&conf.x, k), chunk(&conf.y, k), chunk(&conf.z, k));
        let (ty, q, wt) = (chunk(&st.ty, k), chunk(&st.charge, k), chunk(&st.wt, k));
        let types_ok = ty
            .iter()
            .fold(true, |ok, &t| ok & ((t as u32) < NUM_TYPES as u32));
        assert!(types_ok, "atom type index outside the grid maps");
        for l in 0..LANES {
            let gx = (px[l] - o.x) * inv_sp;
            let gy = (py[l] - o.y) * inv_sp;
            let gz = (pz[l] - o.z) * inv_sp;

            let out_x = max(-gx, 0.0) + max(gx - bx, 0.0);
            let out_y = max(-gy, 0.0) + max(gy - by, 0.0);
            let out_z = max(-gz, 0.0) + max(gz - bz, 0.0);
            let out2 = out_z * out_z + (out_y * out_y + out_x * out_x);
            let penalty = pen_slope * out2.sqrt();

            let cx = min(max(gx, 0.0), hx);
            let cy = min(max(gy, 0.0), hy);
            let cz = min(max(gz, 0.0), hz);
            // SAFETY: `max` maps NaN to 0 and `min` caps +inf, so each
            // coordinate is finite and in [0, n-1): it truncates to a
            // representable i32.
            let (ix, iy, iz): (i32, i32, i32) = unsafe {
                (
                    cx.to_int_unchecked(),
                    cy.to_int_unchecked(),
                    cz.to_int_unchecked(),
                )
            };
            let fx = cx - ix as f32;
            let fy = cy - iy as f32;
            let fz = cz - iz as f32;
            let cell = (iz * ny as i32 + iy) * nx as i32 + ix;

            // SAFETY: ix ≤ nx-2, iy ≤ ny-2 and iz ≤ nz-2 by the clamp and
            // the `hx < nx-1` check above, so all eight corners of `cell`
            // lie inside one map; map bases are below NUM_MAPS (type
            // indices checked for this chunk), and the buffer holds
            // NUM_MAPS maps (checked above).
            let (e_t, e_e, e_d) = unsafe {
                (
                    trilerp(data, ty[l] * stride_i + cell, sy, sz, fx, fy, fz),
                    trilerp(data, elec_base + cell, sy, sz, fx, fy, fz),
                    trilerp(data, des_base + cell, sy, sz, fx, fy, fz),
                )
            };
            let e = q[l] * e_e + (q[l].abs() * e_d + (e_t + penalty));
            // Padding atoms carry weight 0.
            acc[l] += wt[l] * e;
        }
    }
    sum_lanes(&acc)
}

/// Gather the eight corners of the cell at `i000` and interpolate.
///
/// # Safety
/// `i000 + 1 + sy + sz` must index inside `data`, with `i000`, `sy` and
/// `sz` non-negative.
#[inline(always)]
unsafe fn trilerp(data: &[f32], i000: i32, sy: i32, sz: i32, fx: f32, fy: f32, fz: f32) -> f32 {
    let at = |i: i32| *data.get_unchecked(i as usize);
    let (i010, i001) = (i000 + sy, i000 + sz);
    let i011 = i001 + sy;
    let (c000, c100) = (at(i000), at(i000 + 1));
    let (c010, c110) = (at(i010), at(i010 + 1));
    let (c001, c101) = (at(i001), at(i001 + 1));
    let (c011, c111) = (at(i011), at(i011 + 1));
    let c00 = fx * (c100 - c000) + c000;
    let c10 = fx * (c110 - c010) + c010;
    let c01 = fx * (c101 - c001) + c001;
    let c11 = fx * (c111 - c011) + c011;
    let c0 = fy * (c10 - c00) + c00;
    let c1 = fy * (c11 - c01) + c01;
    fz * (c1 - c0) + c0
}

#[inline(always)]
fn intra_body(conf: &ConformSoA, pairs: &PairsSoA) -> f32 {
    let cutoff2 = NB_CUTOFF * NB_CUTOFF;
    let n = conf.len_padded();
    let (x, y, z) = (&conf.x[..n], &conf.y[..n], &conf.z[..n]);
    let mut acc = [0.0f32; LANES];
    for k in (0..pairs.len_padded()).step_by(LANES) {
        let (pi, pj) = (chunk(&pairs.i, k), chunk(&pairs.j, k));
        let in_range = pi.iter().zip(pj).fold(true, |ok, (&i, &j)| {
            ok & ((i as usize) < n) & ((j as usize) < n)
        });
        assert!(in_range, "pair index outside the conformation");
        let mut r2 = [0.0f32; LANES];
        for l in 0..LANES {
            let (i, j) = (pi[l] as usize, pj[l] as usize);
            // SAFETY: i, j < n = len of x, y and z (checked for this chunk).
            let (dx, dy, dz) = unsafe {
                (
                    x.get_unchecked(i) - x.get_unchecked(j),
                    y.get_unchecked(i) - y.get_unchecked(j),
                    z.get_unchecked(i) - z.get_unchecked(j),
                )
            };
            r2[l] = dz * dz + (dy * dy + dx * dx);
        }
        // Whole chunks beyond the cutoff (and all-padding chunks) skip the
        // expensive terms.
        if !r2.iter().fold(false, |any, &v| any | (v <= cutoff2)) {
            continue;
        }
        let (rij, c12, c6, c10) = (
            chunk(&pairs.rij, k),
            chunk(&pairs.c12, k),
            chunk(&pairs.c6, k),
            chunk(&pairs.c10, k),
        );
        let (qq, sv) = (chunk(&pairs.qq, k), chunk(&pairs.sv, k));
        for l in 0..LANES {
            let r = max(r2[l].sqrt(), RMIN);
            let vdw = vdw_hbond(r, rij[l], c12[l], c6[l], c10[l]);
            let e = (vdw + electrostatic(qq[l], r)) + desolvation(sv[l], r2[l]);
            acc[l] += if r2[l] <= cutoff2 { e } else { 0.0 };
        }
    }
    sum_lanes(&acc)
}

/// The `LANES` elements from `k` as a fixed-size view: lane indexing
/// needs no bounds check.
#[inline(always)]
fn chunk<T>(v: &[T], k: usize) -> &[T; LANES] {
    v[k..k + LANES]
        .try_into()
        .expect("a LANES-long slice converts")
}

/// Lane sums added in lane order: the same on every frame.
#[inline(always)]
fn sum_lanes(acc: &[f32; LANES]) -> f32 {
    acc.iter().fold(0.0, |t, &v| t + v)
}

// The scalar math below mirrors `mudock_simd::math` and `mudock_ff::vterms`
// at the one-lane `Scalar` token operation for operation (the tests pin
// them to the bit), with the one change that lets `exp` vectorize.

/// `Scalar::min`: `b` unless `a < b` (so a NaN `a` yields `b`).
#[inline(always)]
fn min(a: f32, b: f32) -> f32 {
    if a < b {
        a
    } else {
        b
    }
}

/// `Scalar::max`: `b` unless `a > b` (so a NaN `a` yields `b`).
#[inline(always)]
fn max(a: f32, b: f32) -> f32 {
    if a > b {
        a
    } else {
        b
    }
}

/// `1.5·2²³`: adding it to |v| < 2²² leaves `round_ties_even(v)` in the
/// low mantissa bits.
const ROUND_MAGIC: f32 = 12_582_912.0;

/// `math::exp` with the round-to-nearest done by the magic constant. The
/// clamp bounds `|x·log2 e|` by 128, well inside the trick's exact range.
#[inline(always)]
fn exp(x: f32) -> f32 {
    const LN2_HI: f32 = 0.693_359_4;
    const LN2_LO: f32 = -2.121_944_4e-4;
    let x = min(max(x, EXP_LO), EXP_HI);
    let m = x * std::f32::consts::LOG2_E + ROUND_MAGIC;
    let n = (m.to_bits() as i32).wrapping_sub(ROUND_MAGIC.to_bits() as i32);
    let nf = n as f32;
    let r = x - nf * LN2_HI;
    let r = r - nf * LN2_LO;
    let mut p = 1.987_569_1e-4;
    p = p * r + 1.398_199_9e-3;
    p = p * r + 8.333_452e-3;
    p = p * r + 4.166_579_6e-2;
    p = p * r + 1.666_666_6e-1;
    p = p * r + 5e-1;
    let y = (p * (r * r) + r) + 1.0;
    let scale = f32::from_bits((n.wrapping_add(127) as u32) << 23);
    y * scale
}

/// `math::recip_nr`: one Newton step on an exact quotient, as the scalar
/// token computes it.
#[inline(always)]
fn recip_nr(a: f32) -> f32 {
    let r = 1.0 / a;
    r * (2.0 - a * r)
}

#[inline(always)]
fn dielectric(r: f32) -> f32 {
    const LAMBDA: f32 = 0.003_627;
    const EPS0: f32 = 78.4;
    const A: f32 = -8.5525;
    const B: f32 = EPS0 - A;
    const K: f32 = 7.7839;
    let e = exp(r * (-LAMBDA * B));
    A + B * recip_nr(e * K + 1.0)
}

#[inline(always)]
fn smooth_r(r: f32, rij: f32) -> f32 {
    let half = SMOOTH * 0.5;
    if r - rij > half {
        r - half
    } else if rij - r > half {
        r + half
    } else {
        rij
    }
}

#[inline(always)]
fn vdw_hbond(r: f32, rij: f32, c12: f32, c6: f32, c10: f32) -> f32 {
    let r = smooth_r(max(r, RMIN), rij);
    let inv_r2 = recip_nr(r * r);
    let inv_r6 = inv_r2 * inv_r2 * inv_r2;
    let inv_r10 = inv_r6 * inv_r2 * inv_r2;
    let inv_r12 = inv_r6 * inv_r6;
    let att = c6 * inv_r6 + c10 * inv_r10;
    min(c12 * inv_r12 - att, ECLAMP)
}

#[inline(always)]
fn electrostatic(qq: f32, r: f32) -> f32 {
    let r = max(r, RMIN);
    qq * recip_nr(dielectric(r) * r)
}

#[inline(always)]
fn desolvation(sv: f32, r2: f32) -> f32 {
    let k = -1.0 / (2.0 * DESOLV_SIGMA * DESOLV_SIGMA);
    sv * exp(r2 * k)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::LigandPrep;
    use crate::scoring::inter::inter_energy_reference;
    use crate::scoring::intra::intra_energy_simd;
    use crate::transform::apply_pose_simd;
    use mudock_ff::types::AtomType;
    use mudock_ff::vterms;
    use mudock_grids::{GridBuilder, GridDims};
    use mudock_mol::Vec3;
    use mudock_molio::complex_1a30_like;
    use mudock_simd::{math, Scalar};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn ligand() -> LigandPrep {
        LigandPrep::new(complex_1a30_like().1).unwrap()
    }

    /// Maps for the ligand's types around the 1a30-like receptor.
    fn grids(prep: &LigandPrep) -> GridSet {
        let rec = complex_1a30_like().0;
        let mut types: Vec<AtomType> = prep.mol.atoms.iter().map(|a| a.ty).collect();
        types.sort_unstable();
        types.dedup();
        let dims = GridDims::centered(Vec3::ZERO, 8.0, 0.8);
        GridBuilder::new(&rec, dims)
            .with_types(&types)
            .build_simd(SimdLevel::detect())
    }

    fn bits(c: &ConformSoA) -> Vec<u32> {
        c.x.iter()
            .chain(&c.y)
            .chain(&c.z)
            .map(|v| v.to_bits())
            .collect()
    }

    #[test]
    fn every_frame_gives_bit_identical_results() {
        let prep = ligand();
        let gs = grids(&prep);
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..40 {
            let g = Genotype::random(&mut rng, prep.n_torsions(), Vec3::ZERO, 6.0);
            let mut want: Option<(Vec<u32>, u32, u32)> = None;
            for frame in SimdLevel::available() {
                let mut conf = ConformSoA::with_capacity(prep.base.n);
                apply_pose_autovec(frame, &prep.base, &prep.plans, &g, &mut conf);
                let inter = inter_energy_autovec(frame, &gs, &conf, &prep.statics);
                let intra = intra_energy_autovec(frame, &conf, &prep.pairs);
                let got = (bits(&conf), inter.to_bits(), intra.to_bits());
                match &want {
                    None => want = Some(got),
                    Some(w) => assert!(*w == got, "{frame} frame differs from scalar"),
                }
            }
        }
    }

    #[test]
    fn transform_matches_the_scalar_token_bit_for_bit() {
        let prep = ligand();
        let mut rng = StdRng::seed_from_u64(4);
        for _ in 0..40 {
            let g = Genotype::random(&mut rng, prep.n_torsions(), Vec3::ZERO, 6.0);
            let mut want = ConformSoA::with_capacity(prep.base.n);
            apply_pose_simd(SimdLevel::Scalar, &prep.base, &prep.plans, &g, &mut want);
            let mut got = ConformSoA::with_capacity(prep.base.n);
            apply_pose_autovec(SimdLevel::detect(), &prep.base, &prep.plans, &g, &mut got);
            assert_eq!(bits(&got), bits(&want));
        }
    }

    #[test]
    fn math_matches_the_scalar_token_bit_for_bit() {
        let s = Scalar::new();
        let mut xs: Vec<f32> = (-2000..=2000).map(|i| i as f32 * 0.0537).collect();
        xs.extend([
            0.0,
            -0.0,
            EXP_LO,
            EXP_HI,
            1e30,
            -1e30,
            f32::INFINITY,
            f32::NAN,
        ]);
        for &x in &xs {
            assert_eq!(exp(x).to_bits(), math::exp(s, x).to_bits(), "exp({x})");
        }
        for i in 1..400 {
            let r = i as f32 * 0.021;
            // A 12-6 vdW pair and a 12-10 H-bond pair.
            for (rij, c12, c6, c10) in [(3.6, 2.1e3, 1.4e1, 0.0), (1.9, 5.3e2, 0.0, 9.7e1)] {
                let (want, got) = (
                    vterms::vdw_hbond(s, r, rij, c12, c6, c10),
                    vdw_hbond(r, rij, c12, c6, c10),
                );
                assert_eq!(got.to_bits(), want.to_bits(), "vdw r={r} rij={rij}");
            }
            let (want, got) = (vterms::electrostatic(s, -3.7, r), electrostatic(-3.7, r));
            assert_eq!(got.to_bits(), want.to_bits(), "elec r={r}");
            let (want, got) = (
                vterms::desolvation(s, 0.21, r * r),
                desolvation(0.21, r * r),
            );
            assert_eq!(got.to_bits(), want.to_bits(), "desolv r={r}");
        }
    }

    #[test]
    fn intra_agrees_with_the_scalar_token_within_summation_order() {
        let prep = ligand();
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..20 {
            let g = Genotype::random(&mut rng, prep.n_torsions(), Vec3::ZERO, 6.0);
            let mut conf = ConformSoA::with_capacity(prep.base.n);
            apply_pose_autovec(SimdLevel::detect(), &prep.base, &prep.plans, &g, &mut conf);
            let want = intra_energy_simd(SimdLevel::Scalar, &conf, &prep.pairs);
            let got = intra_energy_autovec(SimdLevel::detect(), &conf, &prep.pairs);
            assert!(
                (got - want).abs() <= 1e-5 * want.abs().max(1.0),
                "{got} vs {want}"
            );
        }
    }

    /// Flat indices beyond 2²² are where a magic-constant rounding of grid
    /// indices would go wrong; the maps hold a distinct value per cell so
    /// any wrong index shows.
    #[test]
    fn inter_reads_grids_with_indices_beyond_2_pow_22() {
        let prep = ligand();
        let dims = GridDims::centered(Vec3::ZERO, 9.9, 0.3);
        let mut gs = GridSet::empty(dims);
        assert!(gs.data.len() > 1 << 22 && gs.data.len() < 1 << 24);
        for (i, v) in gs.data.iter_mut().enumerate() {
            *v = (i as f32 * 0.618_034).sin();
        }
        gs.built = [true; NUM_MAPS];
        let mut rng = StdRng::seed_from_u64(6);
        for _ in 0..20 {
            let g = Genotype::random(&mut rng, prep.n_torsions(), Vec3::ZERO, 6.0);
            let mut conf = ConformSoA::with_capacity(prep.base.n);
            apply_pose_autovec(SimdLevel::detect(), &prep.base, &prep.plans, &g, &mut conf);
            let want = inter_energy_reference(&gs, &conf, &prep.statics);
            for frame in SimdLevel::available() {
                let got = inter_energy_autovec(frame, &gs, &conf, &prep.statics);
                assert!(
                    (got - want).abs() <= 2e-3 * want.abs().max(1.0),
                    "{frame}: {got} vs {want}"
                );
            }
        }
    }
}
