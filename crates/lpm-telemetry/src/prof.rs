//! `lpm-prof`: the simulator's self-observation layer, with two
//! strictly separated faces.
//!
//! **Deterministic face.** [`AttrSample`] / [`CycleAttribution`] /
//! [`Profiled`] attribute every simulated cycle to the component that
//! stalled it (ROB, L1 MSHRs, shared MSHRs, DRAM banks) using only
//! simulated state — occupancies against capacities, retirement deltas.
//! The attribution is a pure function of the run, so it is byte-identical
//! across worker counts and goldenable exactly like the sweep CSVs.
//!
//! **Wall-clock face.** [`wall_now`] is the *single sanctioned*
//! `Instant` constructor in the workspace (lint rule D002 bans every
//! other one outside shims). Wall timings go only to stderr and
//! side-channel files — never into a deterministic export. The two
//! faces never mix: nothing in [`CycleAttribution`] can observe a
//! clock, and lint rule F001 proves no wall-clock value reaches
//! result bytes.

use std::time::Instant;

use crate::json::Value;
use crate::snapshot::{CycleAccum, CycleSample, MetricsSnapshot};
use crate::{Event, Recorder};

// ---------------------------------------------------------------------
// Deterministic face: simulated-cycle attribution.
// ---------------------------------------------------------------------

/// One cycle's occupancy-against-capacity observation, emitted by
/// `Cmp::try_step_with` under `R::PROFILED` after all components have
/// stepped. Unlike [`CycleSample`] (occupancy only), this carries the
/// capacities and the retirement delta needed to *attribute* the cycle.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AttrSample {
    /// Instructions retired across all cores this cycle.
    pub retired_delta: u64,
    /// ROB entries occupied, summed over cores.
    pub rob: usize,
    /// ROB capacity, summed over cores.
    pub rob_capacity: usize,
    /// L1 MSHRs in use, summed over private caches.
    pub l1_mshrs: usize,
    /// Effective L1 MSHR capacity (fault squeezes included).
    pub l1_mshr_capacity: usize,
    /// Shared-level MSHRs in use, summed over shared caches.
    pub shared_mshrs: usize,
    /// Effective shared-level MSHR capacity.
    pub shared_mshr_capacity: usize,
    /// DRAM banks busy this cycle.
    pub dram_banks_busy: usize,
    /// DRAM banks total.
    pub dram_banks_total: usize,
}

/// Where the simulated cycles went: retirement vs. per-component
/// stalls. Built by [`Profiled`] from [`AttrSample`]s; a pure function
/// of the deterministic simulation, so merging per-point attributions
/// in index order yields identical bytes for every worker count.
///
/// A stalled cycle (no retirement anywhere) is attributed to the first
/// saturated resource in a fixed priority order — ROB, then L1 MSHRs,
/// then shared MSHRs, then DRAM (fully saturated, else merely busy) —
/// and to `stall_other` when nothing is saturated (drained trace,
/// in-flight latency, warm-up).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CycleAttribution {
    /// Cycles observed.
    pub cycles: u64,
    /// Instructions retired over those cycles.
    pub retired: u64,
    /// Cycles in which at least one instruction retired.
    pub retire_cycles: u64,
    /// Cycles with no retirement anywhere (sum of the breakdown below).
    pub stall_cycles: u64,
    /// Stalled with every ROB slot occupied.
    pub stall_rob_full: u64,
    /// Stalled with all effective L1 MSHRs in flight.
    pub stall_l1_mshr_full: u64,
    /// Stalled with all effective shared-level MSHRs in flight.
    pub stall_shared_mshr_full: u64,
    /// Stalled with every DRAM bank busy.
    pub stall_dram_saturated: u64,
    /// Stalled with at least one DRAM bank busy.
    pub stall_dram_busy: u64,
    /// Stalled with no saturated resource in sight.
    pub stall_other: u64,
}

impl CycleAttribution {
    /// Fold one cycle's observation in.
    pub fn observe(&mut self, s: &AttrSample) {
        self.cycles += 1;
        self.retired += s.retired_delta;
        if s.retired_delta > 0 {
            self.retire_cycles += 1;
            return;
        }
        self.stall_cycles += 1;
        if s.rob_capacity > 0 && s.rob >= s.rob_capacity {
            self.stall_rob_full += 1;
        } else if s.l1_mshr_capacity > 0 && s.l1_mshrs >= s.l1_mshr_capacity {
            self.stall_l1_mshr_full += 1;
        } else if s.shared_mshr_capacity > 0 && s.shared_mshrs >= s.shared_mshr_capacity {
            self.stall_shared_mshr_full += 1;
        } else if s.dram_banks_total > 0 && s.dram_banks_busy >= s.dram_banks_total {
            self.stall_dram_saturated += 1;
        } else if s.dram_banks_busy > 0 {
            self.stall_dram_busy += 1;
        } else {
            self.stall_other += 1;
        }
    }

    /// Fold `n` cycles sharing one observation in — the span-weighted
    /// form for coalesced idle spans (classification runs once, the
    /// chosen counter advances by `n`). Equivalent to calling
    /// [`CycleAttribution::observe`] `n` times with the same sample.
    pub fn observe_n(&mut self, s: &AttrSample, n: u64) {
        if n == 0 {
            return;
        }
        self.cycles += n;
        self.retired += s.retired_delta * n;
        if s.retired_delta > 0 {
            self.retire_cycles += n;
            return;
        }
        self.stall_cycles += n;
        if s.rob_capacity > 0 && s.rob >= s.rob_capacity {
            self.stall_rob_full += n;
        } else if s.l1_mshr_capacity > 0 && s.l1_mshrs >= s.l1_mshr_capacity {
            self.stall_l1_mshr_full += n;
        } else if s.shared_mshr_capacity > 0 && s.shared_mshrs >= s.shared_mshr_capacity {
            self.stall_shared_mshr_full += n;
        } else if s.dram_banks_total > 0 && s.dram_banks_busy >= s.dram_banks_total {
            self.stall_dram_saturated += n;
        } else if s.dram_banks_busy > 0 {
            self.stall_dram_busy += n;
        } else {
            self.stall_other += n;
        }
    }

    /// Fold another attribution in (point-merge in index order).
    pub fn merge(&mut self, other: &CycleAttribution) {
        self.cycles += other.cycles;
        self.retired += other.retired;
        self.retire_cycles += other.retire_cycles;
        self.stall_cycles += other.stall_cycles;
        self.stall_rob_full += other.stall_rob_full;
        self.stall_l1_mshr_full += other.stall_l1_mshr_full;
        self.stall_shared_mshr_full += other.stall_shared_mshr_full;
        self.stall_dram_saturated += other.stall_dram_saturated;
        self.stall_dram_busy += other.stall_dram_busy;
        self.stall_other += other.stall_other;
    }

    /// `(label, count)` pairs for the stall breakdown, in attribution
    /// priority order.
    pub fn stall_breakdown(&self) -> [(&'static str, u64); 6] {
        [
            ("rob-full", self.stall_rob_full),
            ("l1-mshr-full", self.stall_l1_mshr_full),
            ("shared-mshr-full", self.stall_shared_mshr_full),
            ("dram-saturated", self.stall_dram_saturated),
            ("dram-busy", self.stall_dram_busy),
            ("other", self.stall_other),
        ]
    }

    /// JSON form (exact `Uint` counters; round-trips losslessly).
    pub fn to_json(&self) -> Value {
        Value::Obj(vec![
            ("cycles".into(), Value::Uint(self.cycles)),
            ("retired".into(), Value::Uint(self.retired)),
            ("retire_cycles".into(), Value::Uint(self.retire_cycles)),
            ("stall_cycles".into(), Value::Uint(self.stall_cycles)),
            ("stall_rob_full".into(), Value::Uint(self.stall_rob_full)),
            (
                "stall_l1_mshr_full".into(),
                Value::Uint(self.stall_l1_mshr_full),
            ),
            (
                "stall_shared_mshr_full".into(),
                Value::Uint(self.stall_shared_mshr_full),
            ),
            (
                "stall_dram_saturated".into(),
                Value::Uint(self.stall_dram_saturated),
            ),
            ("stall_dram_busy".into(), Value::Uint(self.stall_dram_busy)),
            ("stall_other".into(), Value::Uint(self.stall_other)),
        ])
    }

    /// Inverse of [`CycleAttribution::to_json`].
    pub fn from_json(v: &Value) -> Result<CycleAttribution, String> {
        let u = |key: &str| -> Result<u64, String> {
            v.get(key)
                .and_then(Value::as_u64)
                .ok_or_else(|| format!("attribution missing {key}"))
        };
        Ok(CycleAttribution {
            cycles: u("cycles")?,
            retired: u("retired")?,
            retire_cycles: u("retire_cycles")?,
            stall_cycles: u("stall_cycles")?,
            stall_rob_full: u("stall_rob_full")?,
            stall_l1_mshr_full: u("stall_l1_mshr_full")?,
            stall_shared_mshr_full: u("stall_shared_mshr_full")?,
            stall_dram_saturated: u("stall_dram_saturated")?,
            stall_dram_busy: u("stall_dram_busy")?,
            stall_other: u("stall_other")?,
        })
    }

    /// Stable text rendering (integer counts plus fixed-precision
    /// shares of total cycles) — the goldenable face.
    pub fn to_text(&self) -> String {
        let pct = |n: u64| -> f64 {
            if self.cycles == 0 {
                0.0
            } else {
                100.0 * n as f64 / self.cycles as f64
            }
        };
        let mut out = format!(
            "cycles {}  retired {}  ipc {:.4}\n  retire-cycles {:>12} ({:6.2}%)\n",
            self.cycles,
            self.retired,
            if self.cycles == 0 {
                0.0
            } else {
                self.retired as f64 / self.cycles as f64
            },
            self.retire_cycles,
            pct(self.retire_cycles),
        );
        out.push_str(&format!(
            "  stall-cycles  {:>12} ({:6.2}%)\n",
            self.stall_cycles,
            pct(self.stall_cycles)
        ));
        for (label, n) in self.stall_breakdown() {
            out.push_str(&format!("    {label:<18} {n:>12} ({:6.2}%)\n", pct(n)));
        }
        out
    }
}

/// A recorder adapter that adds cycle attribution to any inner
/// recorder. `ENABLED` is inherited, so `Profiled<NullRecorder>` is
/// pure profiling (no events, no snapshots) and `Profiled<RingRecorder>`
/// is telemetry *plus* profiling — with the inner recorder seeing
/// exactly the byte stream it would see un-wrapped.
#[derive(Debug, Clone, Default)]
pub struct Profiled<R> {
    inner: R,
    attr: CycleAttribution,
}

impl<R> Profiled<R> {
    /// Wrap an inner recorder.
    pub fn new(inner: R) -> Self {
        Profiled {
            inner,
            attr: CycleAttribution::default(),
        }
    }

    /// The attribution accumulated so far.
    pub fn attribution(&self) -> &CycleAttribution {
        &self.attr
    }

    /// Split back into the inner recorder and the attribution.
    pub fn into_parts(self) -> (R, CycleAttribution) {
        (self.inner, self.attr)
    }
}

impl<R: Recorder> Recorder for Profiled<R> {
    const ENABLED: bool = R::ENABLED;
    const PROFILED: bool = true;

    #[inline]
    fn event(&mut self, ev: Event) {
        self.inner.event(ev);
    }

    #[inline]
    fn cycle_sample(&mut self, s: &CycleSample) {
        self.inner.cycle_sample(s);
    }

    #[inline]
    fn cycle_sample_n(&mut self, s: &CycleSample, n: u64) {
        self.inner.cycle_sample_n(s, n);
    }

    #[inline]
    fn take_interval(&mut self) -> CycleAccum {
        self.inner.take_interval()
    }

    #[inline]
    fn snapshot(&mut self, snap: MetricsSnapshot) {
        self.inner.snapshot(snap);
    }

    #[inline]
    fn attr_sample(&mut self, s: &AttrSample) {
        self.attr.observe(s);
    }

    #[inline]
    fn attr_sample_n(&mut self, s: &AttrSample, n: u64) {
        self.attr.observe_n(s, n);
    }
}

// ---------------------------------------------------------------------
// Wall-clock face: the sanctioned Instant constructor.
// ---------------------------------------------------------------------

/// The one sanctioned wall-clock read in the workspace. Every caller
/// gets diagnostics-only time: span reports, throughput side channels,
/// retry backoff gates. Result bytes must never depend on it — D002
/// flags any other `Instant` constructor outside the shim crates.
pub fn wall_now() -> Instant {
    // lpm-lint: allow(D002) the single sanctioned wall-clock entry point; feeds spans/stderr/side-channel files only, never deterministic exports
    Instant::now()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{NullRecorder, RingRecorder};

    fn sample(retired: u64, rob: usize, dram_busy: usize) -> AttrSample {
        AttrSample {
            retired_delta: retired,
            rob,
            rob_capacity: 8,
            l1_mshrs: 0,
            l1_mshr_capacity: 4,
            shared_mshrs: 0,
            shared_mshr_capacity: 8,
            dram_banks_busy: dram_busy,
            dram_banks_total: 4,
        }
    }

    #[test]
    fn attribution_classifies_by_priority() {
        let mut a = CycleAttribution::default();
        a.observe(&sample(2, 4, 0)); // retirement
        a.observe(&sample(0, 8, 4)); // ROB full wins over DRAM
        a.observe(&AttrSample {
            l1_mshrs: 4,
            ..sample(0, 0, 1)
        }); // L1 MSHRs full wins over busy DRAM
        a.observe(&sample(0, 0, 4)); // DRAM saturated
        a.observe(&sample(0, 0, 1)); // DRAM merely busy
        a.observe(&sample(0, 0, 0)); // nothing saturated
        assert_eq!(a.cycles, 6);
        assert_eq!(a.retired, 2);
        assert_eq!(a.retire_cycles, 1);
        assert_eq!(a.stall_cycles, 5);
        assert_eq!(a.stall_rob_full, 1);
        assert_eq!(a.stall_l1_mshr_full, 1);
        assert_eq!(a.stall_dram_saturated, 1);
        assert_eq!(a.stall_dram_busy, 1);
        assert_eq!(a.stall_other, 1);
        let total: u64 = a.stall_breakdown().iter().map(|(_, n)| n).sum();
        assert_eq!(total, a.stall_cycles);
    }

    #[test]
    fn span_observation_matches_repeated_observation() {
        let samples = [
            sample(0, 8, 4), // ROB full
            sample(0, 0, 4), // DRAM saturated
            sample(0, 0, 1), // DRAM busy
            sample(0, 0, 0), // other
            sample(3, 2, 1), // retirement (never coalesced, still equal)
        ];
        for s in &samples {
            let mut per_cycle = CycleAttribution::default();
            for _ in 0..1000 {
                per_cycle.observe(s);
            }
            let mut span = CycleAttribution::default();
            span.observe_n(s, 1000);
            span.observe_n(s, 0); // zero span is a no-op
            assert_eq!(span, per_cycle, "span fold diverged for {s:?}");
        }
    }

    #[test]
    fn attribution_round_trips_and_merges() {
        let mut a = CycleAttribution::default();
        a.observe(&sample(1, 0, 0));
        a.observe(&sample(0, 8, 0));
        let json = a.to_json().to_json();
        let back = CycleAttribution::from_json(&Value::parse(&json).unwrap()).unwrap();
        assert_eq!(back, a);
        let mut m = CycleAttribution::default();
        m.merge(&a);
        m.merge(&a);
        assert_eq!(m.cycles, 2 * a.cycles);
        assert_eq!(m.retired, 2 * a.retired);
        assert_eq!(m.stall_rob_full, 2 * a.stall_rob_full);
    }

    #[test]
    fn profiled_wrapper_inherits_enabled_and_profiles() {
        const { assert!(!Profiled::<NullRecorder>::ENABLED) };
        const { assert!(Profiled::<NullRecorder>::PROFILED) };
        const { assert!(Profiled::<RingRecorder>::ENABLED) };
        const { assert!(!RingRecorder::PROFILED) };
        let mut p = Profiled::new(RingRecorder::new(8));
        p.attr_sample(&sample(1, 0, 0));
        p.event(Event::Rollback {
            cycle: 9,
            streak: 2,
        });
        let (inner, attr) = p.into_parts();
        assert_eq!(attr.cycles, 1);
        assert_eq!(inner.events().count(), 1);
    }

    #[test]
    fn text_rendering_is_stable() {
        let mut a = CycleAttribution::default();
        for _ in 0..3 {
            a.observe(&sample(1, 0, 0));
        }
        a.observe(&sample(0, 0, 4));
        let t = a.to_text();
        assert_eq!(t, a.to_text());
        assert!(t.contains("cycles 4"));
        assert!(t.contains("dram-saturated"));
        assert!(t.contains("( 75.00%)"), "{t}");
    }
}
