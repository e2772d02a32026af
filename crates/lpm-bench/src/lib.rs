//! Shared experiment harness: every table and figure of the paper has one
//! function here that regenerates it. The `repro_*` binaries print the
//! results; EXPERIMENTS.md records the paper-vs-measured comparison; and
//! the `benchmark/` package times the same functions end to end.

use lpm_core::burst::{BurstStudy, DetectionResult};
use lpm_core::design_space::{measure_config, HwConfig, TableIRow};
use lpm_core::profile::{profile_suite, WorkloadProfile, FIG5_L1_SIZES};
use lpm_core::sched::{evaluate_schedule, NucaLayout, ScheduleEvaluation, SchedulerKind};
use lpm_sim::SystemConfig;
use lpm_trace::{Generator, SpecWorkload};

/// Default instruction count per measurement window for full-size repro
/// runs (the paper samples 10 billion; our substrate reaches steady state
/// after one working-set lap, so tens of thousands suffice per window).
pub const FULL_INSTRUCTIONS: usize = 60_000;

/// Default seed used by all repro binaries.
pub const SEED: u64 = 7;

/// Parse a repro binary's optional instruction-count argument: `None`
/// gives `default`; anything but a positive decimal integer is an error
/// (`0` would make every measured ratio non-positive, and `3e4` is not
/// a count).
fn parse_instructions(arg: Option<&str>, default: usize) -> Result<usize, String> {
    let Some(arg) = arg else {
        return Ok(default);
    };
    match arg.parse::<usize>() {
        Ok(0) => Err("instructions must be positive, got 0".into()),
        Ok(n) => Ok(n),
        Err(_) => Err(format!(
            "instructions must be a positive integer, got {arg:?}"
        )),
    }
}

/// The first command-line argument as an instruction count (see
/// [`parse_instructions`]). On a bad value, prints one usage line
/// naming `bin` and exits 2.
pub fn instructions_arg(bin: &str, default: usize) -> usize {
    let arg = std::env::args().nth(1);
    parse_instructions(arg.as_deref(), default).unwrap_or_else(|e| {
        eprintln!("usage: {bin} [instructions]  (default {default}): {e}");
        std::process::exit(2);
    })
}

/// The base configuration for the 16-core scheduling study: shared
/// resources scaled to 16-core proportions (an 8 MiB LLC and 4 DRAM
/// channels — a 2 MiB L2 and 2 channels, adequate for one core, would
/// drown the study in bandwidth contention the paper's testbed does not
/// have).
pub fn study_config() -> SystemConfig {
    let mut cfg = SystemConfig::default();
    cfg.l2.size_bytes = 8 << 20;
    cfg.l2.mshrs = 32;
    cfg.l2.banks = 8;
    cfg.l2.ports = 8;
    cfg.dram.channels = 4;
    cfg
}

/// Regenerate Table I: the five configurations A–E measured on the
/// bwaves-like workload.
pub fn table1_rows(instructions: usize, seed: u64) -> Vec<TableIRow> {
    let trace = SpecWorkload::BwavesLike
        .generator()
        .generate(instructions, 11);
    let base = SystemConfig::default();
    let mut rows: Vec<Option<TableIRow>> = (0..HwConfig::TABLE_I.len()).map(|_| None).collect();
    std::thread::scope(|s| {
        for (slot, (label, hw)) in rows.iter_mut().zip(HwConfig::TABLE_I) {
            let trace = &trace;
            let base = &base;
            s.spawn(move || {
                *slot = Some(measure_config(label, hw, base, trace, seed));
            });
        }
    });
    // lpm-lint: allow(P001) scope guarantees each spawned thread filled its slot
    rows.into_iter().map(|r| r.expect("row measured")).collect()
}

/// Regenerate the Fig. 6/7 profile data: all sixteen workloads across the
/// four Fig. 5 L1 sizes, in parallel.
pub fn fig67_profiles(instructions: usize, seed: u64) -> Vec<WorkloadProfile> {
    let base = study_config();
    let mut out: Vec<Option<WorkloadProfile>> =
        (0..SpecWorkload::ALL.len()).map(|_| None).collect();
    std::thread::scope(|s| {
        for (slot, w) in out.iter_mut().zip(SpecWorkload::ALL) {
            let base = &base;
            s.spawn(move || {
                *slot = Some(
                    profile_suite(&[w], &FIG5_L1_SIZES, base, instructions, seed)
                        .pop()
                        // lpm-lint: allow(P001) profile_suite returns one profile per requested workload
                        .expect("one profile"),
                );
            });
        }
    });
    // lpm-lint: allow(P001) scope guarantees each spawned thread filled its slot
    out.into_iter().map(|p| p.expect("profiled")).collect()
}

/// Regenerate Fig. 8: the four scheduling policies on the 16-core Fig. 5
/// CMP, evaluated by harmonic weighted speedup. Requires the Fig. 6/7
/// profiles (pass the result of [`fig67_profiles`]).
pub fn fig8_results(
    profiles: &[WorkloadProfile],
    instructions: usize,
    seed: u64,
) -> Vec<ScheduleEvaluation> {
    let layout = NucaLayout::fig5();
    let base = study_config();
    let policies = [
        SchedulerKind::Random { seed: 3 },
        SchedulerKind::RoundRobin,
        SchedulerKind::NucaSa { slack: 0.10 },
        SchedulerKind::NucaSa { slack: 0.01 },
    ];
    let mut out: Vec<Option<ScheduleEvaluation>> = (0..policies.len()).map(|_| None).collect();
    std::thread::scope(|s| {
        for (slot, kind) in out.iter_mut().zip(policies) {
            let layout = &layout;
            let base = &base;
            s.spawn(move || {
                *slot = Some(evaluate_schedule(
                    kind,
                    layout,
                    profiles,
                    base,
                    instructions,
                    seed,
                ));
            });
        }
    });
    // lpm-lint: allow(P001) scope guarantees each spawned thread filled its slot
    out.into_iter().map(|e| e.expect("evaluated")).collect()
}

/// Regenerate the §IV measurement-interval study: detection rates at the
/// paper's three operating points.
pub fn interval_results(seed: u64) -> [DetectionResult; 3] {
    BurstStudy::default().paper_operating_points(seed)
}

/// Render a Table I row set as an aligned text table.
pub fn format_table1(rows: &[TableIRow]) -> String {
    let mut s = String::new();
    s.push_str(&format!(
        "{:<6} {:>5} {:>4} {:>4} {:>5} {:>5} {:>7} | {:>7} {:>7} {:>7} {:>9} {:>6}\n",
        "config",
        "width",
        "IW",
        "ROB",
        "ports",
        "MSHR",
        "L2inter",
        "LPMR1",
        "LPMR2",
        "LPMR3",
        "stall/exe",
        "IPC"
    ));
    for r in rows {
        s.push_str(&format!(
            "{:<6} {:>5} {:>4} {:>4} {:>5} {:>5} {:>7} | {:>7.2} {:>7.2} {:>7.2} {:>8.1}% {:>6.2}\n",
            r.label,
            r.hw.issue_width,
            r.hw.iw_size,
            r.hw.rob_size,
            r.hw.l1_ports,
            r.hw.mshrs,
            r.hw.l2_banks,
            r.lpmr1,
            r.lpmr2,
            r.lpmr3,
            r.stall_over_cpi_exe * 100.0,
            r.ipc,
        ));
    }
    s
}

/// Render a Fig. 6-style APC table (`metric` selects which profile vector
/// to print).
pub fn format_profile_table(
    profiles: &[WorkloadProfile],
    header: &str,
    metric: impl Fn(&WorkloadProfile) -> &[f64],
) -> String {
    let mut s = String::new();
    s.push_str(&format!(
        "{:<22} {:>9} {:>9} {:>9} {:>9}\n",
        header, "4 KiB", "16 KiB", "32 KiB", "64 KiB"
    ));
    for p in profiles {
        let m = metric(p);
        s.push_str(&format!(
            "{:<22} {:>9.4} {:>9.4} {:>9.4} {:>9.4}\n",
            p.workload.name(),
            m[0],
            m[1],
            m[2],
            m[3]
        ));
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_harness_runs_at_small_scale() {
        let rows = table1_rows(6_000, 1);
        assert_eq!(rows.len(), 5);
        let text = format_table1(&rows);
        assert!(text.contains('A') && text.contains('E'));
    }

    #[test]
    fn instruction_argument_is_a_positive_integer() {
        assert_eq!(parse_instructions(Some("30000"), 7), Ok(30_000));
        assert_eq!(parse_instructions(None, 7), Ok(7));
        assert!(parse_instructions(Some("0"), 7).is_err());
        assert!(parse_instructions(Some("3e4"), 7).is_err());
    }

    #[test]
    fn interval_harness_is_ordered() {
        let [a, b, c] = interval_results(SEED);
        assert!(a.rate() >= b.rate() && b.rate() >= c.rate());
    }
}
