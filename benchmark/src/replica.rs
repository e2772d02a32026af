//! Traced replicas of the two functions whose inside the per-layer split
//! needs to see: a sweep point (`lpm_harness::evaluate_row`) and a
//! Fig. 8 schedule run (`lpm_core::sched::evaluate_schedule`). Each does
//! the same calls in the same order, with a span around each layer, and
//! reads the exact work counters on the way out. The tests in
//! `tests/replica.rs` pin that a replica returns what the original does.

use lpm_core::harmonic_weighted_speedup;
use lpm_core::online::OnlineLpmController;
use lpm_core::profile::WorkloadProfile;
use lpm_core::sched::{NucaLayout, ScheduleEvaluation, Scheduler, SchedulerKind};
use lpm_harness::point::{SALT_FAULT, SALT_SIM, SALT_TRACE};
use lpm_harness::{derive_stream, PointResult, SweepPoint, SweepSpec};
use lpm_model::Grain;
use lpm_sim::{Cmp, CoreSlot, System, SystemConfig};
use lpm_telemetry::{Event, Profiled, RingRecorder, RunSummary};
use lpm_trace::Generator;

use crate::spans::ThreadTrace;

/// Exact, deterministic work behind a traced run: the same inputs and
/// the same code always give the same counts.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Work {
    /// Simulated cycles (whole run, warm-up included).
    pub cycles: u64,
    /// Cycles the event-driven fast path skipped.
    pub skipped: u64,
    /// Simulated cycles of the measured phase (controller or window).
    pub measured_cycles: u64,
    /// Instructions retired, all cores.
    pub retired: u64,
    /// Cycle attribution (controller phase only; sweep points).
    pub attr_cycles: u64,
    /// Stall cycles with a full ROB.
    pub stall_rob_full: u64,
    /// Stall cycles with every L1 MSHR in flight.
    pub stall_l1_mshr_full: u64,
    /// Stall cycles with every shared-level MSHR in flight.
    pub stall_shared_mshr_full: u64,
    /// Stall cycles with DRAM saturated or busy.
    pub stall_dram: u64,
    /// L1 demand accesses / misses / MSHR and port rejects, all cores.
    pub l1_accesses: u64,
    /// L1 demand misses.
    pub l1_misses: u64,
    /// L1 MSHR rejects.
    pub l1_mshr_rejects: u64,
    /// L1 port rejects.
    pub l1_port_rejects: u64,
    /// Shared L2 demand accesses.
    pub l2_accesses: u64,
    /// Shared L2 demand misses.
    pub l2_misses: u64,
    /// Shared L2 MSHR rejects.
    pub l2_mshr_rejects: u64,
    /// Shared L2 port rejects.
    pub l2_port_rejects: u64,
    /// DRAM requests accepted.
    pub dram_accepted: u64,
    /// DRAM row-buffer hits.
    pub dram_row_hits: u64,
    /// DRAM requests rejected (queue full).
    pub dram_rejected: u64,
    /// DRAM cycles with a request in flight.
    pub dram_busy: u64,
    /// Controller decisions.
    pub decisions: u64,
    /// Controller knob changes.
    pub knob_changes: u64,
    /// Telemetry events emitted (kept + dropped).
    pub events: u64,
    /// Telemetry events the ring dropped.
    pub events_dropped: u64,
}

impl Work {
    /// Add `o` into `self`.
    pub fn add(&mut self, o: &Work) {
        let pairs: [(&mut u64, u64); 25] = [
            (&mut self.cycles, o.cycles),
            (&mut self.skipped, o.skipped),
            (&mut self.measured_cycles, o.measured_cycles),
            (&mut self.retired, o.retired),
            (&mut self.attr_cycles, o.attr_cycles),
            (&mut self.stall_rob_full, o.stall_rob_full),
            (&mut self.stall_l1_mshr_full, o.stall_l1_mshr_full),
            (&mut self.stall_shared_mshr_full, o.stall_shared_mshr_full),
            (&mut self.stall_dram, o.stall_dram),
            (&mut self.l1_accesses, o.l1_accesses),
            (&mut self.l1_misses, o.l1_misses),
            (&mut self.l1_mshr_rejects, o.l1_mshr_rejects),
            (&mut self.l1_port_rejects, o.l1_port_rejects),
            (&mut self.l2_accesses, o.l2_accesses),
            (&mut self.l2_misses, o.l2_misses),
            (&mut self.l2_mshr_rejects, o.l2_mshr_rejects),
            (&mut self.l2_port_rejects, o.l2_port_rejects),
            (&mut self.dram_accepted, o.dram_accepted),
            (&mut self.dram_row_hits, o.dram_row_hits),
            (&mut self.dram_rejected, o.dram_rejected),
            (&mut self.dram_busy, o.dram_busy),
            (&mut self.decisions, o.decisions),
            (&mut self.knob_changes, o.knob_changes),
            (&mut self.events, o.events),
            (&mut self.events_dropped, o.events_dropped),
        ];
        for (a, b) in pairs {
            *a += b;
        }
    }

    /// Read the cache, DRAM and core counters off a finished CMP.
    fn read_cmp(&mut self, cmp: &Cmp) {
        self.cycles = cmp.now();
        self.skipped = cmp.skipped().1;
        for i in 0..cmp.num_cores() {
            self.retired += cmp.core_stats(i).retired;
            let l1 = cmp.l1_stats(i);
            self.l1_accesses += l1.accesses;
            self.l1_misses += l1.misses;
            self.l1_mshr_rejects += l1.mshr_rejects;
            self.l1_port_rejects += l1.port_rejects;
        }
        let l2 = cmp.l2_stats();
        self.l2_accesses = l2.accesses;
        self.l2_misses = l2.misses;
        self.l2_mshr_rejects = l2.mshr_rejects;
        self.l2_port_rejects = l2.port_rejects;
        let d = cmp.dram_stats();
        self.dram_accepted = d.accepted;
        self.dram_row_hits = d.row_hits;
        self.dram_rejected = d.rejected;
        self.dram_busy = d.busy_cycles;
    }

    /// A 64-bit digest of every counter, to compare two runs at a glance.
    pub fn digest(&self) -> u64 {
        crate::out::fnv1a(format!("{self:?}").as_bytes())
    }
}

/// [`lpm_harness::evaluate_row`] on a clean first attempt, with spans
/// around trace generation, system build (including the `CPIexe`
/// perfect-memory pass), warm-up, the controller run and telemetry
/// collection. The controller's recorder is wrapped in `Profiled`, which
/// adds cycle attribution without changing a recorded byte.
pub fn traced_point(
    point: &SweepPoint,
    spec: &SweepSpec,
    tt: &mut ThreadTrace,
) -> Result<(PointResult, Work), String> {
    let id = point.index as u64;
    let label = point.label();
    let fail = |what: &str, e: &dyn std::fmt::Display| format!("point {label}: {what}: {e}");
    let trace_seed = derive_stream(point.seed, SALT_TRACE);
    let sim_seed = derive_stream(point.seed, SALT_SIM);
    let fault_seed = point.fault_seed.map(|f| derive_stream(f, SALT_FAULT));

    let trace = tt.time("trace.generate", id, || {
        point
            .workload
            .generator()
            .generate(spec.instructions, trace_seed)
    });
    let cfg = point.hw.apply(&spec.base);
    let mut sys = tt
        .time("sim.build", id, || {
            System::try_new_looping(cfg, trace, spec.loop_repeats, sim_seed)
        })
        .map_err(|e| fail("cannot build system", &e))?;
    tt.time("sim.warmup", id, || {
        sys.cmp_mut().warm_up(spec.warmup_instructions);
        if let Some(fs) = fault_seed {
            sys.enable_faults(spec.fault_class.config(fs));
        }
    });
    let warm_cycles = sys.now();

    let ctl_span = tt.enter("core.controller", id);
    let grain = Grain::Custom(spec.grain);
    let mut ctl = if fault_seed.is_some() {
        OnlineLpmController::new_hardened(point.hw, spec.interval_cycles, grain)
    } else {
        OnlineLpmController::new(point.hw, spec.interval_cycles, grain)
    }
    .map_err(|e| fail("cannot build controller", &e))?;
    let mut rec = Profiled::new(RingRecorder::new(spec.event_capacity));
    let log = ctl
        .try_run_recorded_budgeted(&mut sys, spec.intervals, &mut rec, None)
        .map_err(|e| fail("run failed", &e))?;
    tt.exit(ctl_span);

    let collect = tt.enter("telemetry.collect", id);
    let (rec, attr) = rec.into_parts();
    let summary = RunSummary {
        total_cycles: sys.now(),
        health: Some(ctl.health().to_telemetry()),
        faults: sys.fault_stats().map(|fs| fs.to_telemetry(fault_seed)),
        ..RunSummary::default()
    };
    let mut telemetry = rec.into_log(summary);
    for s in &mut telemetry.snapshots {
        s.wall_cycles_per_sec = 0.0;
    }
    let first = log.first();
    let last = log.last();
    let result = PointResult {
        index: point.index,
        label: label.clone(),
        point: point.clone(),
        intervals_run: log.len(),
        ipc_first: first.map_or(0.0, |r| r.ipc),
        ipc_last: last.map_or(0.0, |r| r.ipc),
        lpmr1_first: first.map_or(0.0, |r| r.measurement.lpmr1),
        lpmr1_last: last.map_or(0.0, |r| r.measurement.lpmr1),
        budget_met: log.iter().filter(|r| r.stall_budget_met).count(),
        final_hw: ctl.hw,
        total_cycles: sys.now(),
        telemetry,
    };
    tt.exit(collect);

    let mut work = Work::default();
    work.read_cmp(sys.cmp());
    work.measured_cycles = sys.now() - warm_cycles;
    work.attr_cycles = attr.cycles;
    work.retired = attr.retired;
    work.stall_rob_full = attr.stall_rob_full;
    work.stall_l1_mshr_full = attr.stall_l1_mshr_full;
    work.stall_shared_mshr_full = attr.stall_shared_mshr_full;
    work.stall_dram = attr.stall_dram_saturated + attr.stall_dram_busy;
    let t = &result.telemetry;
    work.events_dropped = t.summary.events_dropped;
    work.events = t.events.len() as u64 + work.events_dropped;
    for e in &t.events {
        match e {
            Event::Decision { .. } => work.decisions += 1,
            Event::KnobChange { .. } => work.knob_changes += 1,
            _ => {}
        }
    }
    Ok((result, work))
}

/// [`lpm_core::sched::evaluate_schedule`] with spans around trace
/// generation, the CMP build, `warm_up_all` and the measured
/// `run_until_all_retired` window. Takes `evaluate_schedule`'s
/// arguments plus the span id and the thread's trace.
#[allow(clippy::too_many_arguments)]
pub fn traced_schedule(
    kind: SchedulerKind,
    layout: &NucaLayout,
    profiles: &[WorkloadProfile],
    base: &SystemConfig,
    instructions: usize,
    seed: u64,
    id: u64,
    tt: &mut ThreadTrace,
) -> Result<(ScheduleEvaluation, Work), String> {
    let assignment = Scheduler::new(kind).assign(layout, profiles);
    let mut slots = Vec::with_capacity(layout.cores());
    let traces = tt.time("trace.generate", id, || {
        (0..layout.cores())
            .map(|core| {
                profiles[assignment.mapping[core]]
                    .workload
                    .generator()
                    .generate(instructions, seed)
            })
            .collect::<Vec<_>>()
    });
    for core in 0..layout.cores() {
        let mut l1 = base.l1.clone();
        l1.size_bytes = layout.l1_sizes[core];
        while l1.size_bytes < l1.line_bytes * l1.assoc as u64 {
            l1.assoc /= 2;
        }
        slots.push(CoreSlot {
            core: base.core,
            l1,
        });
    }
    let mut cmp = tt.time("cmp.build", id, || {
        Cmp::new_looping(
            slots,
            base.l2.clone(),
            base.dram.clone(),
            traces,
            10_000,
            seed,
        )
    });
    tt.time("cmp.warmup", id, || {
        cmp.warm_up_all(instructions as u64 / 2)
    });
    let warm_cycles = cmp.now();
    let budget = cmp.now() + instructions as u64 * 3000 + 4_000_000;
    let done = tt.time("cmp.measure", id, || {
        cmp.run_until_all_retired(instructions as u64 / 2, budget)
    });
    if !done {
        return Err(format!(
            "CMP measurement window did not complete within {budget} cycles"
        ));
    }

    let mut ipc_shared = Vec::with_capacity(layout.cores());
    let mut ipc_alone = Vec::with_capacity(layout.cores());
    let mut ipc_alone_assigned = Vec::with_capacity(layout.cores());
    for core in 0..layout.cores() {
        let p = &profiles[assignment.mapping[core]];
        ipc_shared.push(cmp.core_stats(core).ipc());
        ipc_alone.push(p.ipc.iter().cloned().fold(0.0, f64::max));
        ipc_alone_assigned.push(p.ipc[p.size_index(layout.l1_sizes[core])]);
    }
    let mut work = Work::default();
    work.read_cmp(&cmp);
    work.measured_cycles = cmp.now() - warm_cycles;
    Ok((
        ScheduleEvaluation {
            scheduler: kind.name(),
            assignment,
            hsp_entitled: harmonic_weighted_speedup(&ipc_alone, &ipc_shared),
            hsp: harmonic_weighted_speedup(&ipc_alone_assigned, &ipc_shared),
            ipc_shared,
            ipc_alone,
            ipc_alone_assigned,
        },
        work,
    ))
}
