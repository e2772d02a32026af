//! End-to-end telemetry guarantees, asserted over the real simulator:
//!
//! 1. The no-op `NullRecorder` run is bit-for-bit identical to one that
//!    compiles the cycle-attribution instrumentation in
//!    (`Profiled<NullRecorder>`), so observing attribution costs the
//!    run nothing but time (the zero-cost-when-disabled contract).
//! 2. Recording through a `RingRecorder` *observes* the run without
//!    perturbing it: every `IntervalRecord` matches the unrecorded run
//!    exactly, including faulted runs (the fault schedule must not
//!    shift when onset logging is on).
//! 3. Fault-injection events carry the seed and onset cycle, and the
//!    event log agrees with the injector's own totals.
//! 4. A recorded run exports to JSONL and CSV and round-trips.

use lpm_core::design_space::HwConfig;
use lpm_core::online::{IntervalRecord, OnlineLpmController};
use lpm_model::Grain;
use lpm_sim::{FaultConfig, System, SystemConfig};
use lpm_telemetry::{
    Event, NullRecorder, Profiled, Recorder, RingRecorder, RunSummary, TelemetryLog,
};
use lpm_trace::{Generator, SpecWorkload};

const INTERVAL: u64 = 10_000;
const INTERVALS: usize = 6;

/// The controller's whole run, unbudgeted, into `rec`.
fn run<R: Recorder>(
    sys: &mut System,
    ctl: &mut OnlineLpmController,
    rec: &mut R,
) -> Vec<IntervalRecord> {
    ctl.try_run_recorded_budgeted(sys, INTERVALS, rec, None)
        .expect("controller run")
}

fn fresh_run(fault_seed: Option<u64>) -> (System, OnlineLpmController) {
    let trace = SpecWorkload::BwavesLike.generator().generate(300_000, 11);
    let base = HwConfig::A.apply(&SystemConfig::default());
    let mut sys = System::new_looping(base, trace, 100, 1);
    sys.cmp_mut().warm_up(30_000);
    if let Some(seed) = fault_seed {
        sys.enable_faults(FaultConfig::all(seed));
    }
    let ctl = if fault_seed.is_some() {
        OnlineLpmController::new_hardened(HwConfig::A, INTERVAL, Grain::Custom(0.5))
            .expect("valid controller config")
    } else {
        OnlineLpmController::new(HwConfig::A, INTERVAL, Grain::Custom(0.5))
            .expect("valid controller config")
    };
    (sys, ctl)
}

/// Bitwise comparison of two adaptation logs (f64 fields compared by
/// bit pattern, not approximately).
fn assert_logs_identical(a: &[IntervalRecord], b: &[IntervalRecord]) {
    assert_eq!(a.len(), b.len(), "different interval counts");
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        assert_eq!(x.cycle, y.cycle, "interval {i}: cycle");
        assert_eq!(x.hw, y.hw, "interval {i}: hw");
        assert_eq!(
            format!("{:?}", x.action),
            format!("{:?}", y.action),
            "interval {i}: action"
        );
        assert_eq!(x.ipc.to_bits(), y.ipc.to_bits(), "interval {i}: ipc");
        assert_eq!(
            x.stall_budget_met, y.stall_budget_met,
            "interval {i}: budget"
        );
        assert_eq!(
            x.measurement.lpmr1.to_bits(),
            y.measurement.lpmr1.to_bits(),
            "interval {i}: lpmr1"
        );
        assert_eq!(
            x.measurement.lpmr2.to_bits(),
            y.measurement.lpmr2.to_bits(),
            "interval {i}: lpmr2"
        );
    }
}

#[test]
fn null_recorder_matches_plain_run_bit_for_bit() {
    let (mut sys_a, mut ctl_a) = fresh_run(None);
    let log_a = run(&mut sys_a, &mut ctl_a, &mut NullRecorder);
    let (mut sys_b, mut ctl_b) = fresh_run(None);
    let mut profiled = Profiled::new(NullRecorder);
    let log_b = run(&mut sys_b, &mut ctl_b, &mut profiled);
    assert_logs_identical(&log_a, &log_b);
    assert_eq!(sys_a.now(), sys_b.now());
    assert_eq!(ctl_a.hw, ctl_b.hw);
    // The instrumented side really observed the run.
    assert!(profiled.attribution().cycles > 0, "attribution saw nothing");
}

#[test]
fn ring_recorder_observes_without_perturbing() {
    let (mut sys_a, mut ctl_a) = fresh_run(None);
    let log_a = run(&mut sys_a, &mut ctl_a, &mut NullRecorder);
    let (mut sys_b, mut ctl_b) = fresh_run(None);
    let mut rec = RingRecorder::default();
    let log_b = run(&mut sys_b, &mut ctl_b, &mut rec);
    assert_logs_identical(&log_a, &log_b);
    assert_eq!(sys_a.now(), sys_b.now());
    // One snapshot per recorded interval, one decision event each.
    assert_eq!(rec.snapshots().len(), log_b.len());
    let decisions = rec.events().filter(|e| e.kind() == "decision").count();
    assert_eq!(decisions, log_b.len());
}

#[test]
fn ring_recorder_does_not_shift_the_fault_schedule() {
    let (mut sys_a, mut ctl_a) = fresh_run(Some(42));
    let log_a = run(&mut sys_a, &mut ctl_a, &mut NullRecorder);
    let stats_a = sys_a.fault_stats().unwrap();
    let (mut sys_b, mut ctl_b) = fresh_run(Some(42));
    let mut rec = RingRecorder::default();
    let log_b = run(&mut sys_b, &mut ctl_b, &mut rec);
    let stats_b = sys_b.fault_stats().unwrap();
    assert_logs_identical(&log_a, &log_b);
    assert_eq!(stats_a, stats_b, "onset logging perturbed the schedule");
}

#[test]
fn fault_events_carry_seed_and_cycle_and_match_injector_totals() {
    let (mut sys, mut ctl) = fresh_run(Some(7));
    let mut rec = RingRecorder::default();
    run(&mut sys, &mut ctl, &mut rec);
    let stats = sys.fault_stats().unwrap();
    let total_started =
        stats.spike_events + stats.storm_events + stats.stall_events + stats.squeeze_events;
    let mut seen = 0u64;
    let mut last_cycle = 0u64;
    for e in rec.events() {
        if let Event::FaultInjected {
            cycle,
            seed,
            duration,
            kind,
        } = e
        {
            seen += 1;
            assert_eq!(*seed, 7, "fault event lost its seed");
            assert!(*duration > 0);
            assert!(*cycle <= sys.now());
            assert!(*cycle >= last_cycle, "fault events out of cycle order");
            last_cycle = *cycle;
            assert!(
                ["dram-spike", "refresh-storm", "bank-stall", "mshr-squeeze"]
                    .contains(&kind.as_str()),
                "unknown fault class {kind:?}"
            );
        }
    }
    assert_eq!(
        seen, total_started,
        "event log disagrees with injector totals"
    );
}

#[test]
fn recorded_run_exports_and_round_trips() {
    let (mut sys, mut ctl) = fresh_run(Some(42));
    let mut rec = RingRecorder::default();
    run(&mut sys, &mut ctl, &mut rec);
    let summary = RunSummary {
        total_cycles: sys.now(),
        health: Some(ctl.health().to_telemetry()),
        faults: sys.fault_stats().map(|fs| fs.to_telemetry(Some(42))),
        ..RunSummary::default()
    };
    let log = rec.into_log(summary);
    assert!(!log.snapshots.is_empty());
    // Every snapshot carries the full per-layer C-AMAT read-out.
    for s in &log.snapshots {
        assert!(s.layers.iter().any(|l| l.name == "L1"));
        assert!(s.layers.iter().any(|l| l.name == "L2"));
        assert!(s.layers.iter().any(|l| l.name == "DRAM"));
        assert!(s.cycles > 0, "no cycle samples accumulated");
    }
    let jsonl = log.to_jsonl();
    let back = TelemetryLog::from_jsonl(&jsonl).unwrap();
    assert_eq!(back, log);
    assert_eq!(back.summary.faults.unwrap().seed, Some(42));
    let csv = log.to_csv();
    let back_csv = TelemetryLog::from_csv(&csv).unwrap();
    assert_eq!(back_csv.snapshots, log.snapshots);
    let human = log.human_summary();
    assert!(human.contains("telemetry summary"));
    assert!(human.contains("seed 42"));
}
