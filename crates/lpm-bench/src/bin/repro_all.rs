//! Run every experiment of the paper back to back and print a compact
//! paper-vs-measured summary — the source of the numbers recorded in
//! EXPERIMENTS.md.
//!
//! ```text
//! cargo run --release -p lpm-bench --bin repro_all [instructions]
//! ```

use lpm_bench::{
    fig67_profiles, fig8_results, instructions_arg, interval_results, table1_rows,
    FULL_INSTRUCTIONS, SEED,
};
use lpm_core::validation::{summarize, validate_stall_model};
use lpm_model::example;
use lpm_trace::SpecWorkload;

fn main() {
    let n = instructions_arg("repro_all", FULL_INSTRUCTIONS / 2);

    println!("######## LPM reproduction summary (windows of {n} instructions) ########\n");

    // Fig. 1 — exact.
    let c = example::fig1_counters();
    println!(
        "[Fig. 1] C-AMAT {:.2} (paper 1.6), AMAT {:.2} (paper 3.8) — exact",
        c.camat(),
        c.amat()
    );

    // Table I.
    eprintln!("\n... Table I ...");
    let rows = table1_rows(n, SEED);
    println!("\n[Table I] LPMR1 by configuration (paper: 8.1 / 6.2 / 2.1 / 1.2 / 1.4):");
    for r in &rows {
        println!(
            "  {}: LPMR1 {:>5.2}  LPMR2 {:>5.2}  stall {:>5.1}% of CPIexe  IPC {:.2}",
            r.label,
            r.lpmr1,
            r.lpmr2,
            r.stall_over_cpi_exe * 100.0,
            r.ipc
        );
    }
    println!(
        "  shape: A→C mismatch falls {:.1}x (paper 3.9x); cost E {} < D {}",
        rows[0].lpmr1 / rows[2].lpmr1,
        rows[4].hw.cost(),
        rows[3].hw.cost()
    );

    // Fig. 6/7.
    eprintln!("\n... Fig. 6/7 profiles ...");
    let profiles = fig67_profiles(n, SEED);
    // lpm-lint: allow(P001) fig67_profiles returns one profile per SpecWorkload::ALL entry
    let by_name = |w: SpecWorkload| profiles.iter().find(|p| p.workload == w).expect("profiled");
    let bzip = by_name(SpecWorkload::Bzip2Like);
    let gcc = by_name(SpecWorkload::GccLike);
    let mcf = by_name(SpecWorkload::McfLike);
    let milc = by_name(SpecWorkload::MilcLike);
    let gamess = by_name(SpecWorkload::GamessLike);
    println!("\n[Fig. 6] APC1 spread (max/min across L1 sizes):");
    for p in [bzip, gcc, mcf, milc, gamess] {
        let worst = p.apc1.iter().cloned().fold(f64::MAX, f64::min);
        println!(
            "  {:<22} {:>5.2}x  (APC1 {:.3} → {:.3})",
            p.workload.name(),
            p.best_apc1() / worst,
            p.apc1[0],
            p.apc1[3]
        );
    }
    println!("  paper shapes: bzip2 flat ✓ iff ~1.0x; gcc/gamess climb; milc flat");
    println!("\n[Fig. 7] L2 demand (per instruction) at 4 KiB → 64 KiB:");
    for p in [bzip, gcc, mcf, milc, gamess] {
        println!(
            "  {:<22} {:.4} → {:.4}",
            p.workload.name(),
            p.l2_demand[0],
            p.l2_demand[3]
        );
    }

    // Fig. 8.
    eprintln!("\n... Fig. 8 (4 × 16-core CMP runs) ...");
    let results = fig8_results(&profiles, n, SEED);
    println!("\n[Fig. 8] Hsp (paper: 0.7986 / 0.8192 / 0.8742 / 0.9106):");
    for e in &results {
        println!("  {:<14} {:.4}", e.scheduler, e.hsp);
    }
    let fg = results[3].hsp;
    println!(
        "  NUCA-SA(fg) vs Random {:+.2}% (paper +12.29%), vs RR {:+.2}% (paper +11.16%)",
        100.0 * (fg - results[0].hsp) / results[0].hsp,
        100.0 * (fg - results[1].hsp) / results[1].hsp,
    );

    // Model validation.
    eprintln!("\n... Eq. 12 validation ...");
    let rows = validate_stall_model(&SpecWorkload::ALL, n, SEED);
    let s = summarize(&rows);
    println!(
        "\n[Validation] Eq. 12 vs measured stall over 16 workloads: \
         correlation {:.4}, mean |err| {:.3} cy/instr",
        s.correlation, s.mean_absolute_error
    );

    // Interval study.
    let ivals = interval_results(SEED);
    println!("\n[§IV intervals] timely-detection rates (paper: 96% / 89% / 73%):");
    for r in &ivals {
        println!(
            "  {:>3}-cycle interval, {:>2}-cycle action: {:>5.1}%",
            r.interval,
            r.action_cost,
            100.0 * r.rate()
        );
    }

    println!("\n######## done ########");
}
