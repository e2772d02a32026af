//! The traced replicas describe the same work the untraced run does:
//! they return exactly what the functions they mirror return.

use std::time::Instant;

use lpm_benchmark::replica::{traced_point, traced_schedule};
use lpm_benchmark::spans::{ThreadTrace, Trace};
use lpm_core::design_space::HwConfig;
use lpm_core::profile::profile_suite;
use lpm_core::sched::{evaluate_schedule, fig8_policies, NucaLayout};
use lpm_harness::{evaluate_row, FaultClass, SweepSpec};
use lpm_sim::SystemConfig;
use lpm_trace::SpecWorkload;

#[test]
fn traced_point_matches_evaluate_row() {
    let spec = SweepSpec {
        configs: vec![("A".into(), HwConfig::A), ("C".into(), HwConfig::C)],
        workloads: vec![SpecWorkload::BwavesLike, SpecWorkload::McfLike],
        seeds: vec![5],
        fault_seeds: vec![None, Some(9)],
        fault_class: FaultClass::All,
        instructions: 6_000,
        intervals: 2,
        interval_cycles: 3_000,
        warmup_instructions: 2_000,
        ..SweepSpec::default()
    };
    let mut tt = ThreadTrace::new(Instant::now());
    for p in spec.points() {
        let (result, work) = traced_point(&p, &spec, &mut tt).expect("replica runs");
        let row = evaluate_row(&p, &spec);
        assert_eq!(Some(&result), row.result(), "point {}", p.label());
        assert_eq!(work.cycles, result.total_cycles);
        assert!(work.measured_cycles > 0 && work.retired > 0);
        assert_eq!(work.events, result.telemetry.events.len() as u64);
    }
    let mut trace = Trace::default();
    trace.merge(tt);
    let totals = trace.totals();
    for name in [
        "trace.generate",
        "sim.build",
        "sim.warmup",
        "core.controller",
    ] {
        assert_eq!(totals[name].count, spec.len() as u64, "{name}");
    }
}

#[test]
fn traced_schedule_matches_evaluate_schedule() {
    let layout = NucaLayout::small(&[4, 64], 1);
    let workloads = [SpecWorkload::GccLike, SpecWorkload::Bzip2Like];
    let base = SystemConfig::default();
    let profiles = profile_suite(&workloads, &[4 << 10, 64 << 10], &base, 4_000, 3);
    for (i, kind) in fig8_policies(3).into_iter().enumerate() {
        let want = evaluate_schedule(kind, &layout, &profiles, &base, 4_000, 3);
        let mut tt = ThreadTrace::new(Instant::now());
        let (got, work) =
            traced_schedule(kind, &layout, &profiles, &base, 4_000, 3, i as u64, &mut tt)
                .expect("replica runs");
        assert_eq!(got.ipc_shared, want.ipc_shared, "{}", want.scheduler);
        assert_eq!(format!("{got:?}"), format!("{want:?}"));
        assert!(work.cycles > work.measured_cycles && work.retired > 0);
    }
}
