//! Model-validation table: Eq. (12)'s stall-time prediction vs the
//! simulator's ground truth, for the full workload suite. The LPM
//! algorithm steers by this prediction; its fidelity is what makes the
//! whole approach work.
//!
//! ```text
//! cargo run --release -p lpm-bench --bin repro_validation [instructions]
//! ```

use lpm_bench::{instructions_arg, SEED};
use lpm_core::validation::{summarize, validate_stall_model};
use lpm_trace::SpecWorkload;

fn main() {
    let n = instructions_arg("repro_validation", 30_000);
    eprintln!("validating Eq. 12 across 16 workloads × {n} instructions ...");
    let rows = validate_stall_model(&SpecWorkload::ALL, n, SEED);
    println!(
        "{:<22} {:>9} {:>9} {:>7} {:>8} {:>8}",
        "workload", "measured", "Eq.12", "err%", "LPMR1", "overlap"
    );
    for r in &rows {
        println!(
            "{:<22} {:>9.4} {:>9.4} {:>6.1}% {:>8.2} {:>8.3}",
            r.workload.name(),
            r.measured,
            r.predicted,
            100.0 * r.relative_error(),
            r.lpmr1,
            r.overlap,
        );
    }
    let s = summarize(&rows);
    println!(
        "\nmean |err| {:.3} cy/instr (max {:.3})   mean rel. err {:.1}%   correlation {:.4}",
        s.mean_absolute_error,
        s.max_absolute_error,
        100.0 * s.mean_relative_error,
        s.correlation
    );
    println!(
        "(stall times are cycles/instruction; predictions use only the \
         analyzer counters the LPM algorithm reads online. Relative error \
         is dominated by compute-bound workloads whose stall is near zero — \
         their absolute error is a few hundredths of a cycle.)"
    );
}
