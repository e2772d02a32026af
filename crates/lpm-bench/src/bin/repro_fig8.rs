//! Regenerate Fig. 8: harmonic weighted speedup of four scheduling
//! policies on the Fig. 5 16-core CMP with heterogeneous private L1s
//! (4× each of 4/16/32/64 KiB), running the sixteen SPEC-like workloads.
//!
//! Paper values for comparison:
//! ```text
//! Random        0.7986
//! Round Robin   0.8192
//! NUCA-SA (cg)  0.8742
//! NUCA-SA (fg)  0.9106
//! ```
//! Expected shape: NUCA-SA (fg) > NUCA-SA (cg) > Round Robin ≈ Random.

use lpm_bench::{fig67_profiles, fig8_results, instructions_arg, FULL_INSTRUCTIONS, SEED};

fn main() {
    let n = instructions_arg("repro_fig8", FULL_INSTRUCTIONS / 2);
    eprintln!("profiling 16 workloads × 4 sizes × {n} instructions (parallel) ...");
    let profiles = fig67_profiles(n, SEED);
    eprintln!("running 4 × 16-core CMP schedules (parallel) ...");
    let results = fig8_results(&profiles, n, SEED);

    println!("== Fig. 8 (reproduced): Hsp of different scheduling schemes ==");
    println!(
        "{:<16} {:>10} {:>12}   paper",
        "policy", "Hsp", "Hsp(entitl.)"
    );
    let paper = [0.7986, 0.8192, 0.8742, 0.9106];
    for (eval, p) in results.iter().zip(paper) {
        println!(
            "{:<16} {:>10.4} {:>12.4}   {:.4}",
            eval.scheduler, eval.hsp, eval.hsp_entitled, p
        );
    }

    let random = results[0].hsp;
    let rr = results[1].hsp;
    let cg = results[2].hsp;
    let fg = results[3].hsp;
    println!("\nshape checks:");
    println!(
        "  NUCA-SA(fg) > baselines: {}",
        if fg > rr && fg > random {
            "✓"
        } else {
            "FAILS"
        }
    );
    println!(
        "  NUCA-SA(fg) ≥ NUCA-SA(cg): {}",
        if fg >= cg { "✓" } else { "FAILS" }
    );
    println!(
        "  improvement over Random: {:+.2}% (paper: +12.29%)",
        100.0 * (fg - random) / random
    );
    println!(
        "  improvement over Round Robin: {:+.2}% (paper: +11.16%)",
        100.0 * (fg - rr) / rr
    );

    println!("\nassignment chosen by NUCA-SA (fg):");
    let layout = lpm_core::sched::NucaLayout::fig5();
    for (core, &w) in results[3].assignment.mapping.iter().enumerate() {
        println!(
            "  core {core:>2} ({:>2} KiB L1) ← {}",
            layout.l1_sizes[core] >> 10,
            profiles[w].workload.name()
        );
    }
}
