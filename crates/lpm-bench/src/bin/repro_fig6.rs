//! Regenerate Fig. 6: APC1 of the sixteen workloads on cores with
//! different private L1 data cache sizes (4/16/32/64 KiB).
//!
//! Expected shapes from §V.B of the paper:
//! * 401.bzip2 — flat: 4 KiB is already enough;
//! * 403.gcc — keeps climbing through 64 KiB;
//! * 429.mcf — steps up once the small table fits, then flat;
//! * 433.milc — flat and low (streaming, size-insensitive);
//! * 416.gamess — climbs (compute-bound but cache-friendly).

use lpm_bench::{fig67_profiles, format_profile_table, instructions_arg, FULL_INSTRUCTIONS, SEED};

fn main() {
    let n = instructions_arg("repro_fig6", FULL_INSTRUCTIONS / 2);
    eprintln!("profiling 16 workloads × 4 L1 sizes × {n} instructions (parallel) ...");
    let profiles = fig67_profiles(n, SEED);
    println!("== Fig. 6 (reproduced): APC1 vs private L1 size ==");
    print!(
        "{}",
        format_profile_table(&profiles, "workload / APC1", |p| &p.apc1)
    );
    println!("\nsize-sensitivity summary (best/worst APC1 across sizes):");
    for p in &profiles {
        let worst = p.apc1.iter().cloned().fold(f64::MAX, f64::min);
        println!(
            "{:<22} {:>6.2}x  → needs {} KiB (Δ=1%)",
            p.workload.name(),
            p.best_apc1() / worst,
            p.size_need(0.01) >> 10
        );
    }
}
