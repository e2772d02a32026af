//! Online, interval-driven LPM optimization — the paper's deployment
//! model ("note that all the steps are conducted on-line to adapt to the
//! dynamic behavior of the applications").
//!
//! The controller owns a *running* system. Every measurement interval it
//! reads the C-AMAT analyzers' window counters, classifies the mismatch
//! per Fig. 3, reconfigures the live hardware (paying the paper's
//! 4-cycle reconfiguration cost), resets the measurement window, and lets
//! execution continue — no re-simulation, exactly like the hardware
//! approach of §V.A.
//!
//! # Robustness
//!
//! Deployed controllers read *sensors*, and sensors lie: counters drop
//! out, DRAM refresh storms distort a window, transient stalls inflate
//! LPMR for one interval. [`HardeningConfig`] adds four defenses, each
//! off by default so the clean-path behaviour is bit-identical to the
//! unhardened controller:
//!
//! * **hysteresis** on the T1/T2 comparisons, so noise straddling a
//!   threshold cannot flip the decision every interval;
//! * **clamped step sizes**, so a single wild measurement cannot jump
//!   several ladder notches at once;
//! * **oscillation detection**: repeated grow↔shed direction flips
//!   (Case I/II ↔ III ping-pong) freeze further reconfiguration;
//! * **rollback**: after `rollback_after` consecutive IPC-regressing
//!   intervals the controller restores the best configuration seen.
//!
//! Degenerate windows (no retirements, no L1 accesses, or model-rejected
//! counters) are *skipped and counted* in [`ControllerHealth`] rather
//! than silently ending adaptation.

use lpm_model::Grain;
use lpm_sim::{Cmp, SimError, System, Until};
use lpm_telemetry::{DecisionCase, Event, HealthCounters, MetricsSnapshot, Recorder, SkipReason};

use crate::design_space::HwConfig;
use crate::error::LpmError;
use crate::measurement::LpmMeasurement;
use crate::optimizer::{LpmAction, LpmOptimizer};

/// Cycles one reconfiguration operation costs (the paper's figure).
pub const RECONFIG_COST_CYCLES: u64 = 4;

/// Minimum measurement interval accepted by the controller, cycles.
pub const MIN_INTERVAL_CYCLES: u64 = 100;

/// One interval's record in the adaptation log.
#[derive(Debug, Clone, PartialEq)]
pub struct IntervalRecord {
    /// Cycle at which the interval ended (decision point).
    pub cycle: u64,
    /// The measurement that drove the decision.
    pub measurement: LpmMeasurement,
    /// The decision.
    pub action: LpmAction,
    /// Hardware configuration after applying the decision.
    pub hw: HwConfig,
    /// IPC measured over the interval.
    pub ipc: f64,
    /// Whether the measured stall met the Δ budget this interval.
    pub stall_budget_met: bool,
}

/// Defensive-control parameters. The default configuration disables
/// every defense, making the controller behave exactly like the
/// original unhardened implementation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HardeningConfig {
    /// Hysteresis band around the T1/T2 comparisons, as a fraction of
    /// each threshold. `0.0` disables (exact comparisons).
    pub hysteresis: f64,
    /// Maximum L1-side knob groups raised per interval. `u32::MAX`
    /// disables clamping (every knob climbs one notch, the original
    /// behaviour).
    pub max_step_knobs: u32,
    /// Consecutive IPC-regressing intervals before rolling back to the
    /// best configuration observed. `0` disables rollback.
    pub rollback_after: u32,
    /// Grow↔shed direction flips tolerated before reconfiguration is
    /// frozen for the rest of the run. `0` disables the detector.
    pub oscillation_limit: u32,
}

impl Default for HardeningConfig {
    fn default() -> Self {
        HardeningConfig {
            hysteresis: 0.0,
            max_step_knobs: u32::MAX,
            rollback_after: 0,
            oscillation_limit: 0,
        }
    }
}

impl HardeningConfig {
    /// A reasonable all-defenses-on preset for faulted environments:
    /// 5% hysteresis, at most two knob groups per step, rollback after
    /// three regressing intervals, freeze after six direction flips.
    pub fn hardened() -> Self {
        HardeningConfig {
            hysteresis: 0.05,
            max_step_knobs: 2,
            rollback_after: 3,
            oscillation_limit: 6,
        }
    }
}

/// Counters describing how the controller coped with a run: how many
/// windows were unusable, how often defenses fired.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ControllerHealth {
    /// Windows with no retirements or no L1 accesses (skipped).
    pub degenerate_windows: u64,
    /// Windows whose counters the model rejected (skipped) — the
    /// signature of counter dropout or noise faults.
    pub sensor_faults: u64,
    /// Rollbacks to the last-known-good configuration.
    pub rollbacks: u64,
    /// Growth steps that were truncated by the step-size clamp.
    pub clamped_steps: u64,
    /// Times the oscillation detector froze reconfiguration.
    pub oscillation_trips: u64,
}

impl ControllerHealth {
    /// The telemetry-export view of these counters.
    pub fn to_telemetry(self) -> HealthCounters {
        HealthCounters {
            degenerate_windows: self.degenerate_windows,
            sensor_faults: self.sensor_faults,
            rollbacks: self.rollbacks,
            clamped_steps: self.clamped_steps,
            oscillation_trips: self.oscillation_trips,
        }
    }
}

/// Direction of the last applied reconfiguration (for the oscillation
/// detector).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Direction {
    Grow,
    Shed,
}

/// Interval-driven LPM controller for a single-core reconfigurable
/// system.
#[derive(Debug)]
pub struct OnlineLpmController {
    /// Measurement interval length, cycles. The paper explores 10/20/40-
    /// cycle intervals for burst tracking; for whole-phase adaptation we
    /// default to thousands of cycles so each window carries statistically
    /// meaningful counters.
    pub interval_cycles: u64,
    /// Stall budget.
    pub grain: Grain,
    /// Decision procedure.
    pub optimizer: LpmOptimizer,
    /// Current hardware configuration.
    pub hw: HwConfig,
    /// Defensive-control parameters.
    pub hardening: HardeningConfig,
    health: ControllerHealth,
    /// Best (configuration, IPC) observed so far, for rollback.
    best: Option<(HwConfig, f64)>,
    /// Consecutive intervals with IPC below the best observed.
    regress_streak: u32,
    last_direction: Option<Direction>,
    direction_flips: u32,
    /// Set when the oscillation detector trips; no further
    /// reconfigurations are applied.
    frozen: bool,
}

impl OnlineLpmController {
    /// A controller starting from `hw` with the given interval and grain.
    /// Signature pinned by `benchmark/`.
    ///
    /// Fails with [`LpmError::InvalidInterval`] when `interval_cycles`
    /// is too short to carry meaningful counters.
    pub fn new(hw: HwConfig, interval_cycles: u64, grain: Grain) -> Result<Self, LpmError> {
        if interval_cycles < MIN_INTERVAL_CYCLES {
            return Err(LpmError::InvalidInterval {
                got: interval_cycles,
                min: MIN_INTERVAL_CYCLES,
            });
        }
        Ok(OnlineLpmController {
            interval_cycles,
            grain,
            optimizer: LpmOptimizer::default(),
            hw,
            hardening: HardeningConfig::default(),
            health: ControllerHealth::default(),
            best: None,
            regress_streak: 0,
            last_direction: None,
            direction_flips: 0,
            frozen: false,
        })
    }

    /// Like [`OnlineLpmController::new`], with the
    /// [`HardeningConfig::hardened`] defenses enabled. Signature pinned
    /// by `benchmark/`.
    pub fn new_hardened(
        hw: HwConfig,
        interval_cycles: u64,
        grain: Grain,
    ) -> Result<Self, LpmError> {
        let mut c = Self::new(hw, interval_cycles, grain)?;
        c.hardening = HardeningConfig::hardened();
        Ok(c)
    }

    /// Health counters accumulated across runs.
    pub fn health(&self) -> ControllerHealth {
        self.health
    }

    /// Apply the controller's current configuration to the live system.
    fn apply(&self, sys: &mut System) {
        let cfg = self.hw.apply(&lpm_sim::SystemConfig::default());
        let cmp: &mut Cmp = sys.cmp_mut();
        cmp.reconfigure_core(0, cfg.core);
        cmp.reconfigure_l1(0, cfg.l1.ports, cfg.l1.mshrs, cfg.l1.banks);
        cmp.reconfigure_l2(cfg.l2.ports, cfg.l2.mshrs, cfg.l2.banks);
    }

    /// Grow the L1-side knobs under the step-size clamp; returns whether
    /// anything changed and updates the clamp counter.
    fn clamped_bump_l1(&mut self) -> bool {
        let max = self.hardening.max_step_knobs;
        if max == u32::MAX {
            return self.hw.bump_l1();
        }
        let mut probe = self.hw;
        let unclamped = probe.bump_l1_limited(u32::MAX);
        let taken = self.hw.bump_l1_limited(max);
        if unclamped > taken {
            self.health.clamped_steps += 1;
        }
        taken > 0
    }

    /// Note an applied reconfiguration's direction and trip the
    /// oscillation detector on too many grow↔shed flips.
    fn note_direction(&mut self, dir: Direction) {
        if let Some(last) = self.last_direction {
            if last != dir {
                self.direction_flips += 1;
            }
        }
        self.last_direction = Some(dir);
        let limit = self.hardening.oscillation_limit;
        if limit > 0 && self.direction_flips >= limit && !self.frozen {
            self.frozen = true;
            self.health.oscillation_trips += 1;
        }
    }

    /// Advance `sys` by `cycles`, never past the absolute `cycle_budget`.
    /// A run that would end past `u64::MAX` is refused up front with
    /// [`LpmError::CycleOverflow`]; hitting the budget is
    /// [`SimError::CycleBudgetExceeded`] at the cycle the cap was reached.
    fn advance<R: Recorder>(
        sys: &mut System,
        cycles: u64,
        rec: &mut R,
        cycle_budget: Option<u64>,
    ) -> Result<(), LpmError> {
        let now = sys.now();
        let end = now
            .checked_add(cycles)
            .ok_or(LpmError::CycleOverflow { cycles, now })?;
        let budget = cycle_budget.unwrap_or(u64::MAX);
        if sys.cmp_mut().run(Until::Cycle(end), budget, rec)? {
            Ok(())
        } else {
            Err(SimError::CycleBudgetExceeded {
                budget,
                now: sys.now(),
            }
            .into())
        }
    }

    /// Emit one [`Event::KnobChange`] per knob that differs between two
    /// configurations (the net effect of an interval's reconfigurations).
    fn emit_knob_changes<R: Recorder>(
        rec: &mut R,
        cycle: u64,
        before: &HwConfig,
        after: &HwConfig,
    ) {
        let knobs: [(&'static str, u32, u32); 6] = [
            ("issue_width", before.issue_width, after.issue_width),
            ("iw_size", before.iw_size, after.iw_size),
            ("rob_size", before.rob_size, after.rob_size),
            ("l1_ports", before.l1_ports, after.l1_ports),
            ("mshrs", before.mshrs, after.mshrs),
            ("l2_banks", before.l2_banks, after.l2_banks),
        ];
        for (knob, from, to) in knobs {
            if from != to {
                rec.event(Event::KnobChange {
                    cycle,
                    knob,
                    from: u64::from(from),
                    to: u64::from(to),
                });
            }
        }
    }

    /// Run `intervals` adaptation intervals on the live system, returning
    /// the adaptation log. The system keeps executing its trace
    /// throughout; each record reflects one window. Simulator failures
    /// (deadlock, invalid reconfiguration) come back as [`LpmError`]
    /// with the adaptation completed so far discarded. Signature pinned
    /// by `benchmark/`.
    ///
    /// Telemetry: with the no-op `NullRecorder` the instrumentation
    /// monomorphizes away and the run is bit-for-bit identical to an
    /// uninstrumented one. With a real recorder, every interval
    /// contributes a [`MetricsSnapshot`] and the event log captures
    /// decisions, knob changes, rollbacks, freezes, skipped windows,
    /// threshold crossings and injected faults.
    ///
    /// Budget: when `cycle_budget` is `Some(cap)`, every stepping call —
    /// the measurement intervals and the reconfiguration-cost runs alike
    /// — refuses to advance the simulation past absolute cycle `cap` and
    /// fails with `LpmError::Sim(SimError::CycleBudgetExceeded)` instead.
    /// The cap is checked against the simulated clock inside the step
    /// loop, so the failure cycle is a pure function of the run — the
    /// deterministic per-point watchdog the sweep harness builds on.
    pub fn try_run_recorded_budgeted<R: Recorder>(
        &mut self,
        sys: &mut System,
        intervals: usize,
        rec: &mut R,
        cycle_budget: Option<u64>,
    ) -> Result<Vec<IntervalRecord>, LpmError> {
        self.apply(sys);
        sys.cmp_mut().reset_measurement();
        let mut log = Vec::with_capacity(intervals);
        // Threshold-crossing state: (LPMR1 > T1, LPMR2 > T2) last interval.
        let mut prev_cross: Option<(bool, bool)> = None;
        // Wall-clock anchor for sim-throughput reporting, read through
        // the sanctioned lpm-prof entry point; gated by R::ENABLED and
        // excluded from deterministic comparisons.
        let mut last_wall = R::ENABLED.then(lpm_telemetry::wall_now);
        for _ in 0..intervals {
            Self::advance(sys, self.interval_cycles, rec, cycle_budget)?;
            let report = sys.report();
            if report.core.retired == 0 || report.l1.accesses == 0 {
                // Nothing measurable this window: the trace drained, or a
                // fault (bank stall, counter dropout) blanked the sensors.
                self.health.degenerate_windows += 1;
                if R::ENABLED {
                    rec.event(Event::WindowSkipped {
                        cycle: sys.now(),
                        reason: SkipReason::DegenerateWindow,
                    });
                    // Discard the window's occupancy accumulator.
                    let _ = rec.take_interval();
                    last_wall = Some(lpm_telemetry::wall_now());
                }
                sys.cmp_mut().reset_measurement();
                if sys.finished() {
                    break;
                }
                continue;
            }
            let m = match LpmMeasurement::from_report(&report, self.grain) {
                Ok(m) => m,
                Err(_) => {
                    // The model rejected the window's counters — the
                    // signature of sensor noise. Skip, count, continue.
                    self.health.sensor_faults += 1;
                    if R::ENABLED {
                        rec.event(Event::WindowSkipped {
                            cycle: sys.now(),
                            reason: SkipReason::SensorFault,
                        });
                        let _ = rec.take_interval();
                        last_wall = Some(lpm_telemetry::wall_now());
                    }
                    sys.cmp_mut().reset_measurement();
                    if sys.finished() {
                        break;
                    }
                    continue;
                }
            };
            let ipc = report.core.ipc();
            let decision_cycle = sys.now();
            let hw_before = self.hw;

            if R::ENABLED {
                let cross = (m.lpmr1 > m.t1, m.lpmr2 > m.t2);
                if let Some(prev) = prev_cross {
                    if prev.0 != cross.0 {
                        rec.event(Event::ThresholdCrossing {
                            cycle: decision_cycle,
                            boundary: 1,
                            lpmr: m.lpmr1,
                            threshold: m.t1,
                            upward: cross.0,
                        });
                    }
                    if prev.1 != cross.1 {
                        rec.event(Event::ThresholdCrossing {
                            cycle: decision_cycle,
                            boundary: 2,
                            lpmr: m.lpmr2,
                            threshold: m.t2,
                            upward: cross.1,
                        });
                    }
                }
                prev_cross = Some(cross);
            }

            // Rollback bookkeeping: `ipc` was produced by the current
            // `self.hw` (the config live during this window).
            let mut rolled_back = false;
            match self.best {
                Some((_, best_ipc)) if ipc <= best_ipc => {
                    self.regress_streak += 1;
                    let after = self.hardening.rollback_after;
                    if after > 0 && self.regress_streak >= after {
                        if let Some((best_hw, _)) = self.best {
                            if best_hw != self.hw {
                                let streak = self.regress_streak;
                                self.hw = best_hw;
                                self.apply(sys);
                                Self::advance(sys, RECONFIG_COST_CYCLES, rec, cycle_budget)?;
                                self.health.rollbacks += 1;
                                rolled_back = true;
                                if R::ENABLED {
                                    rec.event(Event::Rollback {
                                        cycle: decision_cycle,
                                        streak: u64::from(streak),
                                    });
                                }
                            }
                        }
                        self.regress_streak = 0;
                    }
                }
                _ => {
                    self.best = Some((self.hw, ipc));
                    self.regress_streak = 0;
                }
            }

            let action = self
                .optimizer
                .decide_with_hysteresis(&m, self.hardening.hysteresis);
            let was_frozen = self.frozen;
            let applied = if rolled_back || self.frozen {
                // A rollback supersedes this interval's action; a tripped
                // oscillation detector freezes the configuration.
                false
            } else {
                match action {
                    LpmAction::OptimizeBoth => {
                        let a = self.clamped_bump_l1();
                        let b = self.hw.bump_l2();
                        a || b
                    }
                    LpmAction::OptimizeL1 => self.clamped_bump_l1(),
                    LpmAction::ReduceOverprovision => self.hw.shed(),
                    LpmAction::Done => false,
                }
            };
            if applied {
                self.note_direction(match action {
                    LpmAction::ReduceOverprovision => Direction::Shed,
                    _ => Direction::Grow,
                });
                self.apply(sys);
                // The paper's reconfiguration cost: the core pauses.
                Self::advance(sys, RECONFIG_COST_CYCLES, rec, cycle_budget)?;
            }
            if R::ENABLED {
                if !was_frozen && self.frozen {
                    rec.event(Event::Freeze {
                        cycle: decision_cycle,
                        flips: u64::from(self.direction_flips),
                    });
                }
                rec.event(Event::Decision {
                    cycle: decision_cycle,
                    interval: log.len() as u64,
                    case: match action {
                        LpmAction::OptimizeBoth => DecisionCase::CaseI,
                        LpmAction::OptimizeL1 => DecisionCase::CaseII,
                        LpmAction::ReduceOverprovision => DecisionCase::CaseIII,
                        LpmAction::Done => DecisionCase::CaseIV,
                    },
                    lpmr1: m.lpmr1,
                    lpmr2: m.lpmr2,
                    t1: m.t1,
                    t2: m.t2,
                    ipc,
                    applied,
                });
                Self::emit_knob_changes(rec, decision_cycle, &hw_before, &self.hw);
            }
            log.push(IntervalRecord {
                cycle: sys.now(),
                measurement: m,
                action,
                hw: self.hw,
                ipc,
                stall_budget_met: m.stall_budget_met(),
            });
            if R::ENABLED {
                let acc = rec.take_interval();
                let now_wall = lpm_telemetry::wall_now();
                let elapsed = last_wall
                    .map(|t| now_wall.duration_since(t).as_secs_f64())
                    .unwrap_or(0.0);
                last_wall = Some(now_wall);
                let wall_cycles_per_sec = if elapsed > 0.0 {
                    acc.cycles as f64 / elapsed
                } else {
                    0.0
                };
                let dram_bank_util = acc.bank_util();
                rec.snapshot(MetricsSnapshot {
                    interval: log.len() as u64 - 1,
                    cycle: sys.now(),
                    cycles: acc.cycles,
                    layers: report.layer_metrics(),
                    lpmr1: m.lpmr1,
                    lpmr2: m.lpmr2,
                    lpmr3: m.lpmr3,
                    t1: m.t1,
                    t2: m.t2,
                    ipc,
                    cpi_exe: m.cpi_exe,
                    stall_per_instr: m.stall_per_instr,
                    stall_budget_met: m.stall_budget_met(),
                    l1_mshr_hist: acc.l1_mshr_hist,
                    shared_mshr_hist: acc.shared_mshr_hist,
                    rob_hist: acc.rob_hist,
                    dram_bank_util,
                    wall_cycles_per_sec,
                });
            }
            sys.cmp_mut().reset_measurement();
            if sys.finished() {
                break;
            }
        }
        Ok(log)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lpm_sim::{System, SystemConfig};
    use lpm_telemetry::NullRecorder;
    use lpm_trace::{Generator, SpecWorkload};

    fn online_run(intervals: usize) -> (Vec<IntervalRecord>, OnlineLpmController) {
        let trace = SpecWorkload::BwavesLike.generator().generate(600_000, 11);
        let base = HwConfig::A.apply(&SystemConfig::default());
        let mut sys = System::new_looping(base, trace, 100, 1);
        // Warm the caches before handing over to the controller.
        sys.cmp_mut().warm_up(30_000);
        let mut ctl = OnlineLpmController::new(HwConfig::A, 20_000, Grain::Custom(0.5)).unwrap();
        let log = ctl
            .try_run_recorded_budgeted(&mut sys, intervals, &mut NullRecorder, None)
            .unwrap();
        (log, ctl)
    }

    #[test]
    fn budgeted_run_fails_deterministically_and_none_matches_unbudgeted() {
        let mk = || {
            let trace = SpecWorkload::BwavesLike.generator().generate(60_000, 11);
            let base = HwConfig::A.apply(&SystemConfig::default());
            let mut sys = System::new_looping(base, trace, 100, 1);
            sys.cmp_mut().warm_up(10_000);
            let ctl = OnlineLpmController::new(HwConfig::A, 5_000, Grain::Custom(0.5)).unwrap();
            (sys, ctl)
        };
        // A cap below one interval's worth of cycles must trip the budget.
        let (mut sys, mut ctl) = mk();
        let cap = sys.now() + 1_000;
        let err = ctl
            .try_run_recorded_budgeted(&mut sys, 4, &mut NullRecorder, Some(cap))
            .unwrap_err();
        match err {
            LpmError::Sim(lpm_sim::SimError::CycleBudgetExceeded { budget, now }) => {
                assert_eq!(budget, cap);
                assert_eq!(now, cap, "budget must trip at exactly the cap cycle");
            }
            other => panic!("expected CycleBudgetExceeded, got {other:?}"),
        }
        // The same cap trips at the same cycle on a fresh identical run.
        let (mut sys2, mut ctl2) = mk();
        let err2 = ctl2
            .try_run_recorded_budgeted(&mut sys2, 4, &mut NullRecorder, Some(cap))
            .unwrap_err();
        assert_eq!(format!("{err}"), format!("{err2}"));
        // An ample budget is indistinguishable from no budget.
        let (mut sys_a, mut ctl_a) = mk();
        let log_a = ctl_a
            .try_run_recorded_budgeted(&mut sys_a, 4, &mut NullRecorder, None)
            .unwrap();
        let (mut sys_b, mut ctl_b) = mk();
        let cap_b = sys_b.now() + 10_000_000;
        let log_b = ctl_b
            .try_run_recorded_budgeted(&mut sys_b, 4, &mut NullRecorder, Some(cap_b))
            .unwrap();
        assert_eq!(log_a, log_b);
        assert_eq!(sys_a.now(), sys_b.now());
    }

    #[test]
    fn controller_adapts_a_starved_configuration_upward() {
        let (log, ctl) = online_run(8);
        assert!(!log.is_empty());
        // Starting from A on a memory-hungry workload, the controller must
        // have grown the hardware.
        assert!(
            ctl.hw.mshrs > HwConfig::A.mshrs || ctl.hw.l1_ports > HwConfig::A.l1_ports,
            "no growth: {:?}",
            ctl.hw
        );
        // Mismatch improves from the first interval to the best later one.
        let first = log[0].measurement.lpmr1;
        let best = log
            .iter()
            .map(|r| r.measurement.lpmr1)
            .fold(f64::MAX, f64::min);
        assert!(
            best < first,
            "no online improvement: first {first}, best {best}"
        );
    }

    #[test]
    fn ipc_improves_across_adaptation() {
        let (log, _) = online_run(8);
        assert!(log.len() >= 3, "need several intervals, got {}", log.len());
        let first_ipc = log[0].ipc;
        let last_ipc = log.last().unwrap().ipc;
        assert!(
            last_ipc > first_ipc * 1.1,
            "IPC did not improve online: {first_ipc} → {last_ipc}"
        );
    }

    #[test]
    fn log_records_decisions_and_configs() {
        let (log, _) = online_run(4);
        for r in &log {
            assert!(r.ipc > 0.0);
            assert!(r.measurement.lpmr1.is_finite());
        }
        // The first decision on a starved config must be an optimization.
        assert!(matches!(
            log[0].action,
            LpmAction::OptimizeBoth | LpmAction::OptimizeL1
        ));
    }

    #[test]
    fn an_interval_past_the_end_of_the_clock_is_a_typed_error() {
        // A wrapped `now + interval` would lie in the past: every
        // interval would run zero cycles and be skipped as degenerate.
        let trace = SpecWorkload::GccLike.generator().generate(20_000, 11);
        let base = HwConfig::A.apply(&SystemConfig::default());
        let mut sys = System::new_looping(base, trace, 100, 1);
        sys.cmp_mut().warm_up(5_000);
        let now = sys.now();
        let mut ctl = OnlineLpmController::new(HwConfig::A, u64::MAX, Grain::Custom(0.5)).unwrap();
        let err = ctl
            .try_run_recorded_budgeted(&mut sys, 12, &mut NullRecorder, None)
            .unwrap_err();
        assert_eq!(
            err,
            LpmError::CycleOverflow {
                cycles: u64::MAX,
                now
            }
        );
        assert!(err.to_string().contains("overflows the simulated clock"));
        assert_eq!(sys.now(), now, "no cycle may run");
        assert_eq!(ctl.health().degenerate_windows, 0);
    }

    #[test]
    fn short_intervals_are_rejected_with_a_typed_error() {
        let err = OnlineLpmController::new(HwConfig::A, 10, Grain::Coarse).unwrap_err();
        assert_eq!(err, LpmError::InvalidInterval { got: 10, min: 100 });
        assert!(err.to_string().contains("intervals need enough samples"));
    }

    #[test]
    fn default_hardening_is_all_off() {
        let h = HardeningConfig::default();
        assert_eq!(h.hysteresis, 0.0);
        assert_eq!(h.max_step_knobs, u32::MAX);
        assert_eq!(h.rollback_after, 0);
        assert_eq!(h.oscillation_limit, 0);
    }

    #[test]
    fn hardened_controller_still_adapts_upward_on_a_clean_run() {
        let trace = SpecWorkload::BwavesLike.generator().generate(600_000, 11);
        let base = HwConfig::A.apply(&SystemConfig::default());
        let mut sys = System::new_looping(base, trace, 100, 1);
        sys.cmp_mut().warm_up(30_000);
        let mut ctl =
            OnlineLpmController::new_hardened(HwConfig::A, 20_000, Grain::Custom(0.5)).unwrap();
        let log = ctl
            .try_run_recorded_budgeted(&mut sys, 10, &mut NullRecorder, None)
            .unwrap();
        assert!(!log.is_empty());
        assert!(
            ctl.hw.mshrs > HwConfig::A.mshrs || ctl.hw.l1_ports > HwConfig::A.l1_ports,
            "hardened controller failed to grow: {:?}",
            ctl.hw
        );
        // Clamped growth: steps were limited, so the clamp must have
        // engaged at least once on this starved starting point.
        assert!(ctl.health().clamped_steps > 0);
    }

    #[test]
    fn clamp_limits_knobs_per_step() {
        let mut hw = HwConfig::A;
        let changed = hw.bump_l1_limited(1);
        assert_eq!(changed, 1);
        // Only the window group moved.
        assert!(hw.iw_size > HwConfig::A.iw_size);
        assert_eq!(hw.l1_ports, HwConfig::A.l1_ports);
        assert_eq!(hw.mshrs, HwConfig::A.mshrs);
        assert_eq!(hw.issue_width, HwConfig::A.issue_width);
        // Unlimited matches the legacy all-knobs bump.
        let mut a = HwConfig::A;
        let mut b = HwConfig::A;
        a.bump_l1();
        b.bump_l1_limited(u32::MAX);
        assert_eq!(a, b);
    }
}
