//! Report generators: each function formats one table/figure of the paper
//! from a shared [`Study`], prints it, and writes a CSV under `results/`.
//! The harness binaries are thin wrappers over these.

use mudock_archsim::{all_archs, all_compilers, compiler, Study};
use mudock_core::Backend;

use crate::fmt;

fn f(v: f64, digits: usize) -> String {
    format!("{v:.digits$}")
}

/// Table I: CPU feature comparison.
pub fn table1() {
    let rows: Vec<Vec<String>> = all_archs()
        .iter()
        .map(|a| {
            vec![
                a.vendor.to_string(),
                a.name.to_string(),
                a.codename.to_string(),
                f(a.max_clock_ghz as f64, 1),
                a.cores_per_socket.to_string(),
                (a.cores_per_socket * a.threads_per_core).to_string(),
                a.vec_ext.to_string(),
                f(a.tdp_w as f64, 0),
                f(a.cost_per_node_hour as f64, 2),
                a.year.to_string(),
            ]
        })
        .collect();
    let headers = [
        "Vendor",
        "CPU",
        "Architecture",
        "Clock(GHz)",
        "Cores*",
        "Threads*",
        "VecExt",
        "TDP(W)",
        "$/NH",
        "Year",
    ];
    println!("TABLE I: Comparison of CPU Features (* per socket)\n");
    println!("{}", fmt::table(&headers, &rows));
    let _ = fmt::write_csv("table1_cpus.csv", &headers, &rows);
}

/// Table II: out-of-order resources.
pub fn table2() {
    let rows: Vec<Vec<String>> = all_archs()
        .iter()
        .map(|a| {
            vec![
                a.codename.to_string(),
                format!("{:?}", a.isa),
                a.scalar_regs.to_string(),
                a.vector_regs.to_string(),
                a.vec_exec_bits.to_string(),
                a.vec_pipes.to_string(),
                a.rob.to_string(),
            ]
        })
        .collect();
    let headers = [
        "Microarch",
        "ISA",
        "ScalarReg",
        "VectorReg",
        "VectorALU",
        "VectorPipes",
        "ROB",
    ];
    println!("TABLE II: Comparison of CPUs out-of-order resources\n");
    println!("{}", fmt::table(&headers, &rows));
    let _ = fmt::write_csv("table2_ooo.csv", &headers, &rows);
}

/// Table III: compiler versions and flags.
pub fn table3() {
    let rows: Vec<Vec<String>> = all_compilers()
        .iter()
        .map(|c| {
            vec![
                c.name.to_string(),
                c.version.to_string(),
                c.flags_x86.unwrap_or("N/A").to_string(),
                c.flags_arm.unwrap_or("N/A").to_string(),
            ]
        })
        .collect();
    let headers = ["Compiler", "Version", "Flags (x86)", "Flags (ARM)"];
    println!("TABLE III: Compiler versions and flags\n");
    println!("{}", fmt::table(&headers, &rows));
    let _ = fmt::write_csv("table3_flags.csv", &headers, &rows);
}

/// Table IV: LLC miss rates, single vs multi-core (Clang).
pub fn table4(study: &Study) {
    let rows: Vec<Vec<String>> = study
        .tables45()
        .iter()
        .map(|r| {
            vec![
                r.arch.clone(),
                format!("{:.2e}", r.llc_miss_single),
                format!("{:.2e}", r.llc_miss_multi),
            ]
        })
        .collect();
    let headers = ["Arch", "Single-core", "Multi-core"];
    println!("TABLE IV (modeled): LLC miss-rate for Clang\n");
    println!("{}", fmt::table(&headers, &rows));
    println!(
        "paper: Grace 1.0e-4→3.4e-4, SPR 2.0e-7→1.0e-5, Genoa 8.7e-5→2.1e-2, A64FX 6.9e-6→7.2e-4\n"
    );
    let _ = fmt::write_csv("table4_llc.csv", &headers, &rows);
}

/// Table V: arithmetic intensity, single vs multi-core (Clang).
pub fn table5(study: &Study) {
    let rows: Vec<Vec<String>> = study
        .tables45()
        .iter()
        .map(|r| vec![r.arch.clone(), f(r.ai_single, 0), f(r.ai_multi, 0)])
        .collect();
    let headers = ["Arch", "AI single", "AI multi"];
    println!("TABLE V (modeled): Arithmetic intensity for Clang\n");
    println!("{}", fmt::table(&headers, &rows));
    println!("paper: Grace 21→9313, SPR 133→12762, Genoa 184→96, A64FX 3700→34\n");
    let _ = fmt::write_csv("table5_ai.csv", &headers, &rows);
}

fn figure_bars(title: &str, csv: &str, points: &[(String, String, f64)], unit: &str) {
    let max = points.iter().map(|p| p.2).fold(0.0f64, f64::max);
    let rows: Vec<Vec<String>> = points
        .iter()
        .map(|(a, c, v)| vec![a.clone(), c.clone(), f(*v, 3), fmt::bar(*v, max, 44)])
        .collect();
    let headers = ["Arch", "Compiler", unit, ""];
    println!("{title}\n");
    println!("{}", fmt::table(&headers, &rows));
    let _ = fmt::write_csv(
        csv,
        &["arch", "compiler", unit],
        &rows.iter().map(|r| r[..3].to_vec()).collect::<Vec<_>>(),
    );
}

/// Figure 2a: single-core execution time, reduced dataset.
pub fn fig2a(study: &Study) {
    let pts: Vec<(String, String, f64)> = study
        .fig2a()
        .into_iter()
        .map(|p| (p.arch, p.compiler, p.value))
        .collect();
    figure_bars(
        "FIGURE 2a (modeled): single-core execution time, reduced dataset",
        "fig2a_single_core.csv",
        &pts,
        "seconds",
    );
    println!("paper shape: HWY fastest on SPR; FCC fastest on A64FX; GCC off-scale on A64FX (444 s); Clang best on Grace/Graviton\n");
}

/// Figure 2b: full-node execution time, MEDIATE-like dataset.
pub fn fig2b(study: &Study) {
    let pts: Vec<(String, String, f64)> = study
        .fig2b()
        .into_iter()
        .map(|p| (p.arch, p.compiler, p.value))
        .collect();
    figure_bars(
        "FIGURE 2b (modeled): full-node execution time, MEDIATE-like dataset",
        "fig2b_multi_core.csv",
        &pts,
        "seconds",
    );
    println!("paper shape: x86 nodes fastest; Graviton comparable to Genoa; A64FX & Grace slower; GCC-on-ARM off-scale\n");
}

/// Figure 3: vectorization ratio + speedup over the no-vec baseline.
pub fn fig3(study: &Study) {
    let rows: Vec<Vec<String>> = study
        .fig3()
        .iter()
        .map(|p| {
            vec![
                p.arch.clone(),
                p.compiler.clone(),
                f(p.vec_ratio, 2),
                f(p.speedup, 2),
                fmt::bar(p.speedup, 8.0, 32),
            ]
        })
        .collect();
    let headers = ["Arch", "Compiler", "Vect-Ratio", "Speedup", ""];
    println!("FIGURE 3 (modeled): vectorization ratio and speedup vs no-vec\n");
    println!("{}", fmt::table(&headers, &rows));
    println!("paper shape: ratio ≈ 1 when vectorization succeeds; ≈ 0 for GCC/NVCC on ARM; largest speedups on 512-bit machines, smallest on Genoa\n");
    let host = crate::HostWorkload::standard(400).backend_comparison();
    if let Some(line) = host_autovec_line(&host) {
        println!("{line}\n");
    }
    let _ = fmt::write_csv(
        "fig3_vectorization.csv",
        &["arch", "compiler", "vect_ratio", "speedup"],
        &rows.iter().map(|r| r[..4].to_vec()).collect::<Vec<_>>(),
    );
}

/// The measured counterpart of a Fig. 3 row, from
/// [`HostWorkload::backend_comparison`](crate::HostWorkload::backend_comparison)
/// rows: the host's AutoVec µs/pose, its time over the fastest explicit
/// SIMD backend's (the base, named), and its speedup over `reference`.
pub fn host_autovec_line(rows: &[(String, f64, f64)]) -> Option<String> {
    let (_, autovec, speedup) = rows.iter().find(|(n, _, _)| n == "autovec")?;
    let (base, best, _) = rows
        .iter()
        .filter(|(n, _, _)| matches!(Backend::parse(n), Some(Backend::Explicit(_))))
        .min_by(|a, b| a.1.total_cmp(&b.1))?;
    Some(format!(
        "HOST (measured): autovec {:.2} µs/pose = {:.2}× the time of the fastest explicit backend ({base}, {:.2} µs/pose); {:.2}× faster than reference",
        autovec * 1e6,
        autovec / best,
        best * 1e6,
        speedup
    ))
}

/// Figure 4: pipeline stall fraction.
pub fn fig4(study: &Study) {
    let pts: Vec<(String, String, f64)> = study
        .fig4()
        .into_iter()
        .map(|p| (p.arch, p.compiler, p.value))
        .collect();
    figure_bars(
        "FIGURE 4 (modeled): stall fraction of the execution pipeline",
        "fig4_stalls.csv",
        &pts,
        "stall-frac",
    );
    println!("paper shape: ≈70 % of A64FX cycles are stalls (small ROB); far less elsewhere\n");
}

/// Figure 5: rooflines per architecture with kernel points.
pub fn fig5(study: &Study) {
    println!("FIGURE 5 (modeled): rooflines (log-log; series in CSV)\n");
    let mut csv_rows: Vec<Vec<String>> = Vec::new();
    for plot in study.fig5() {
        println!(
            "{}: peak {:.0} GFLOP/s, bw {:.0} GB/s, ridge AI {:.2}",
            plot.arch,
            plot.roofline.peak_gflops(),
            plot.roofline.ridge_ai(),
            plot.roofline.ridge_ai()
        );
        for c in &plot.roofline.ceilings {
            println!("  ceiling {:<16} {:>10.1} GFLOP/s", c.name, c.gflops);
        }
        for (comp, ai, gflops) in &plot.points {
            println!(
                "  kernel  {:<8} AI {:>9.1} FLOP/B  attained {:>8.2} GFLOP/s ({:.0}% of roof)",
                comp,
                ai,
                gflops,
                100.0 * gflops / plot.roofline.attainable(*ai)
            );
            csv_rows.push(vec![
                plot.arch.clone(),
                comp.clone(),
                f(*ai, 2),
                f(*gflops, 3),
            ]);
        }
        println!();
    }
    println!(
        "paper shape: all kernel points sit right of the ridge (compute-bound), Section VIII-b\n"
    );
    let _ = fmt::write_csv(
        "fig5_roofline.csv",
        &["arch", "compiler", "ai_flop_per_byte", "gflops"],
        &csv_rows,
    );
}

/// Figure 6: performance-portability matrix + harmonic means.
pub fn fig6(study: &Study) {
    let m = study.fig6();
    println!("FIGURE 6 (modeled): application performance portability\n");
    let mut rows = Vec::new();
    for (r, arch) in m.archs.iter().enumerate() {
        let mut row = vec![arch.clone()];
        for c in 0..m.compilers.len() {
            row.push(match m.eff[r][c] {
                Some(e) => f(e, 2),
                None => "-".into(),
            });
        }
        rows.push(row);
    }
    let mut headers: Vec<&str> = vec!["Arch"];
    for c in &m.compilers {
        headers.push(c);
    }
    println!("{}", fmt::table(&headers, &rows));
    let h = m.harmonic_means();
    print!("HarmonicMean  ");
    for (c, v) in m.compilers.iter().zip(&h) {
        print!("{c}={v:.2}  ");
    }
    println!("\npaper: GCC=0.33 Clang=0.86 HWY=0.83, vendor compilers 0.00\n");
    let _ = fmt::write_csv(
        "fig6_portability.csv",
        &headers.iter().map(|s| &**s).collect::<Vec<_>>(),
        &rows,
    );
}

/// Figure 7: cost and energy per ligand.
pub fn fig7(study: &Study) {
    let rows: Vec<Vec<String>> = study
        .fig7()
        .iter()
        .map(|p| {
            vec![
                p.arch.clone(),
                p.compiler.clone(),
                format!("{:.3}", p.cost_per_ligand * 1e4),
                f(p.energy_per_ligand, 3),
            ]
        })
        .collect();
    let headers = ["Arch", "Compiler", "Cost (1e-4 $)", "Energy (J)"];
    println!("FIGURE 7 (modeled): cost and energy per evaluated ligand\n");
    println!("{}", fmt::table(&headers, &rows));
    println!("paper shape: ARM cheapest per ligand (A64FX best value, SPR close); GCC-on-ARM spikes energy; Grace expensive (GPU-inclusive node pricing)\n");
    let _ = fmt::write_csv(
        "fig7_cost_energy.csv",
        &["arch", "compiler", "cost_usd", "energy_j"],
        &rows,
    );
}

/// Host ground truth: real measurements of the Rust backends on this
/// machine (the experimental axis the model's compiler profiles rest on).
pub fn host_backends(n_poses: usize) {
    let wl = crate::HostWorkload::standard(n_poses);
    let rows: Vec<Vec<String>> = wl
        .backend_comparison()
        .into_iter()
        .map(|(name, secs, speedup)| {
            vec![
                name,
                format!("{:.2}", secs * 1e6),
                f(speedup, 2),
                fmt::bar(speedup, 8.0, 32),
            ]
        })
        .collect();
    let headers = ["Backend", "µs/pose", "Speedup vs reference", ""];
    println!("HOST GROUND TRUTH: pose-scoring backends on this machine\n");
    println!("{}", fmt::table(&headers, &rows));
    let _ = fmt::write_csv(
        "host_backends.csv",
        &["backend", "us_per_pose", "speedup"],
        &rows.iter().map(|r| r[..3].to_vec()).collect::<Vec<_>>(),
    );
}

/// Sanity: make sure every compiler/arch pair the paper evaluates is
/// covered by the study (used by `paper_all`).
pub fn coverage(study: &Study) -> usize {
    let mut n = 0;
    for a in &study.archs {
        for c in &study.compilers {
            if compiler::codegen(c, a).is_some() {
                n += 1;
            }
        }
    }
    n
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn host_autovec_line_names_the_fastest_explicit_base() {
        let rows: Vec<(String, f64, f64)> = [
            ("reference", 16e-6, 1.0),
            ("autovec", 3.2e-6, 5.0),
            ("scalar", 20e-6, 0.8),
            ("avx2", 3.0e-6, 5.33),
            ("avx512", 2.5e-6, 6.4),
        ]
        .into_iter()
        .map(|(n, s, x)| (n.to_string(), s, x))
        .collect();
        let line = host_autovec_line(&rows).unwrap();
        assert!(line.contains("autovec 3.20 µs/pose"), "{line}");
        assert!(line.contains("1.28× the time"), "{line}");
        assert!(line.contains("(avx512, 2.50 µs/pose)"), "{line}");
        assert!(line.contains("5.00× faster than reference"), "{line}");
        // No explicit backend measured: nothing to compare against.
        assert_eq!(host_autovec_line(&rows[..2]), None);
    }
}
