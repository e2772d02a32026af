//! Regenerate Table I: LPMRs under configurations with incremental
//! parallelism, measured on the bwaves-like workload.
//!
//! Paper values for comparison (410.bwaves on GEM5):
//! ```text
//! cfg  LPMR1  LPMR2  LPMR3
//! A      8.1    9.6    6.4
//! B      6.2    9.3    8.1
//! C      2.1    3.1    5.8
//! D      1.2    1.6    2.3
//! E      1.4    1.9    2.6
//! ```
//! Expected shape: LPMR1 falls steeply with added parallelism, the knee
//! sits at C, and E trades a little ratio for lower hardware cost than D.

use lpm_bench::{format_table1, instructions_arg, table1_rows, FULL_INSTRUCTIONS, SEED};

fn main() {
    let n = instructions_arg("repro_table1", FULL_INSTRUCTIONS);
    eprintln!("measuring 5 configurations × {n} instructions (parallel) ...");
    let rows = table1_rows(n, SEED);
    println!("== Table I (reproduced) ==");
    print!("{}", format_table1(&rows));

    println!("\npaper (for shape comparison):");
    println!("config  LPMR1  LPMR2  LPMR3");
    for (l, a, b, c) in [
        ("A", 8.1, 9.6, 6.4),
        ("B", 6.2, 9.3, 8.1),
        ("C", 2.1, 3.1, 5.8),
        ("D", 1.2, 1.6, 2.3),
        ("E", 1.4, 1.9, 2.6),
    ] {
        println!("{l:<6} {a:>6.1} {b:>6.1} {c:>6.1}");
    }

    let a = &rows[0];
    let c = &rows[2];
    println!(
        "\nshape check: LPMR1 A→C = {:.2}→{:.2} ({}), IPC gain {:.2}x",
        a.lpmr1,
        c.lpmr1,
        if c.lpmr1 < a.lpmr1 {
            "falls ✓"
        } else {
            "FAILS"
        },
        c.ipc / a.ipc
    );
    let d = &rows[3];
    let e = &rows[4];
    println!(
        "cost check: E({}) < D({}) with LPMR1 {:.2} vs {:.2} — the Case III trim",
        e.hw.cost(),
        d.hw.cost(),
        e.lpmr1,
        d.lpmr1
    );
}
