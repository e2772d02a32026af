//! Demonstrate the paper's deployment model: online, interval-driven LPM
//! optimization of a *running* reconfigurable system (§IV: "all the steps
//! are conducted on-line to adapt to the dynamic behavior of the
//! applications"). Starting from the starved configuration A, the
//! controller measures each interval, walks the hardware toward a matched
//! configuration, and the workload's IPC rises live — no re-simulation.
//!
//! Usage: `repro_online [interval_cycles] [--faults[=seed]]
//! [--telemetry-out=FILE] [--telemetry-format=jsonl|csv]`
//!
//! With `--faults`, a seeded injector (DRAM latency spikes, refresh
//! storms, cache-bank stalls, MSHR exhaustion, counter noise) stresses
//! the run and the hardened controller preset rides through it. With
//! `--telemetry-out`, the run is recorded through `lpm-telemetry` and
//! the structured log (per-interval snapshots, typed events, summary)
//! is written to the given file.

use lpm_core::design_space::HwConfig;
use lpm_core::online::OnlineLpmController;
use lpm_model::Grain;
use lpm_sim::{FaultConfig, System, SystemConfig};
use lpm_telemetry::{NullRecorder, RingRecorder, RunSummary, TelemetryLog};
use lpm_trace::{Generator, SpecWorkload};

fn main() {
    let mut interval: u64 = 20_000;
    let mut fault_seed: Option<u64> = None;
    let mut telemetry_out: Option<String> = None;
    let mut telemetry_format = "jsonl".to_string();
    for arg in std::env::args().skip(1) {
        if arg == "--faults" {
            fault_seed = Some(42);
        } else if let Some(s) = arg.strip_prefix("--faults=") {
            fault_seed = Some(s.parse().unwrap_or_else(|_| {
                eprintln!("--faults expects a u64 seed, got {s:?}");
                std::process::exit(1);
            }));
        } else if let Some(s) = arg.strip_prefix("--telemetry-out=") {
            telemetry_out = Some(s.to_string());
        } else if let Some(s) = arg.strip_prefix("--telemetry-format=") {
            telemetry_format = s.to_string();
        } else if let Ok(v) = arg.parse() {
            interval = v;
        } else {
            eprintln!(
                "usage: repro_online [interval_cycles] [--faults[=seed]] \
                 [--telemetry-out=FILE] [--telemetry-format=jsonl|csv]"
            );
            std::process::exit(1);
        }
    }
    if !matches!(telemetry_format.as_str(), "jsonl" | "csv") {
        eprintln!("unknown --telemetry-format {telemetry_format:?}; use jsonl or csv");
        std::process::exit(1);
    }

    let trace = SpecWorkload::BwavesLike.generator().generate(600_000, 11);
    let base = HwConfig::A.apply(&SystemConfig::default());
    let mut sys = System::try_new_looping(base, trace, 100, 1).unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(1);
    });
    sys.cmp_mut().warm_up(30_000);
    if let Some(seed) = fault_seed {
        sys.enable_faults(FaultConfig::all(seed));
    }

    let mut ctl = if fault_seed.is_some() {
        OnlineLpmController::new_hardened(HwConfig::A, interval, Grain::Custom(0.5))
    } else {
        OnlineLpmController::new(HwConfig::A, interval, Grain::Custom(0.5))
    }
    .unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(1);
    });
    match fault_seed {
        Some(seed) => println!(
            "== online LPM adaptation (intervals of {interval} cycles, faults on, seed {seed}) =="
        ),
        None => println!("== online LPM adaptation (intervals of {interval} cycles) =="),
    }
    println!(
        "{:>8} {:>7} {:>7} {:>6} {:>6} | {:>20} {:>6} {:>4} {:>4} {:>5} {:>5}",
        "cycle", "LPMR1", "T1", "IPC", "budget", "action", "width", "IW", "ROB", "ports", "MSHR"
    );
    let mut recorder = telemetry_out.as_ref().map(|_| RingRecorder::default());
    let run_result = match &mut recorder {
        Some(rec) => ctl.try_run_recorded_budgeted(&mut sys, 12, rec, None),
        None => ctl.try_run_recorded_budgeted(&mut sys, 12, &mut NullRecorder, None),
    };
    let log = match run_result {
        Ok(log) => log,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    };
    for r in &log {
        println!(
            "{:>8} {:>7.2} {:>7.2} {:>6.2} {:>6} | {:>20} {:>6} {:>4} {:>4} {:>5} {:>5}",
            r.cycle,
            r.measurement.lpmr1,
            r.measurement.t1,
            r.ipc,
            if r.stall_budget_met { "Y" } else { "n" },
            format!("{:?}", r.action),
            r.hw.issue_width,
            r.hw.iw_size,
            r.hw.rob_size,
            r.hw.l1_ports,
            r.hw.mshrs,
        );
    }
    let (Some(first), Some(last)) = (log.first(), log.last()) else {
        println!("no intervals recorded");
        return;
    };
    let met = log.iter().filter(|r| r.stall_budget_met).count();
    println!(
        "\nadaptation: LPMR1 {:.2} → {:.2}, IPC {:.2} → {:.2} ({}% faster), \
         final config {:?}",
        first.measurement.lpmr1,
        last.measurement.lpmr1,
        first.ipc,
        last.ipc,
        ((last.ipc / first.ipc - 1.0) * 100.0).round(),
        ctl.hw
    );
    println!(
        "stall-budget attainment: {met}/{} intervals ({:.0}%)",
        log.len(),
        met as f64 / log.len() as f64 * 100.0
    );
    let h = ctl.health();
    println!(
        "controller health: {} degenerate window(s), {} sensor fault(s), \
         {} rollback(s), {} clamped step(s), {} oscillation trip(s)",
        h.degenerate_windows, h.sensor_faults, h.rollbacks, h.clamped_steps, h.oscillation_trips
    );
    if let Some(fs) = sys.fault_stats() {
        println!(
            "injected: {} DRAM spike(s), {} refresh storm(s), {} bank stall(s), \
             {} MSHR squeeze(s) over {} faulted cycle(s)",
            fs.spike_events, fs.storm_events, fs.stall_events, fs.squeeze_events, fs.faulted_cycles
        );
    }
    if let (Some(path), Some(rec)) = (telemetry_out, recorder) {
        let summary = RunSummary {
            total_cycles: sys.now(),
            health: Some(ctl.health().to_telemetry()),
            faults: sys.fault_stats().map(|fs| fs.to_telemetry(fault_seed)),
            ..RunSummary::default()
        };
        let telemetry: TelemetryLog = rec.into_log(summary);
        let data = match telemetry_format.as_str() {
            "csv" => telemetry.to_csv(),
            _ => telemetry.to_jsonl(),
        };
        if let Err(e) = std::fs::write(&path, data) {
            eprintln!("error: cannot write {path}: {e}");
            std::process::exit(1);
        }
        print!("{}", telemetry.human_summary());
        println!(
            "wrote {} snapshot(s), {} event(s) to {path} ({telemetry_format})",
            telemetry.snapshots.len(),
            telemetry.events.len()
        );
    }
}
