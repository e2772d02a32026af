//! Regenerate Fig. 7: APC2 (shared-L2 activity) of the sixteen workloads
//! across private L1 sizes, plus the L2 traffic demand NUCA-SA minimizes.
//!
//! Expected shapes from §V.B:
//! * 401.bzip2 — APC2 stable (nearly no L2 traffic at any size);
//! * 403.gcc — L2 demand decreases at every size step;
//! * 429.mcf — drops at the first size increase, then flat;
//! * 433.milc — unaffected by L1 size;
//! * 416.gamess — demand shrinks noticeably as L1 grows.

use lpm_bench::{fig67_profiles, format_profile_table, instructions_arg, FULL_INSTRUCTIONS, SEED};

fn main() {
    let n = instructions_arg("repro_fig7", FULL_INSTRUCTIONS / 2);
    eprintln!("profiling 16 workloads × 4 L1 sizes × {n} instructions (parallel) ...");
    let profiles = fig67_profiles(n, SEED);
    println!("== Fig. 7 (reproduced): APC2 vs private L1 size ==");
    print!(
        "{}",
        format_profile_table(&profiles, "workload / APC2", |p| &p.apc2)
    );
    println!("\nL2 traffic demand (accesses per instruction — the bandwidth requirement):");
    print!(
        "{}",
        format_profile_table(&profiles, "workload / L2 demand", |p| &p.l2_demand)
    );
}
