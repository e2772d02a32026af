//! End-to-end and per-layer benchmark of the LPM reproduction.
//!
//! Three workloads drive the public functions of `lpm-core`,
//! `lpm-harness`, `lpm-serve`, `lpm-sim` and `lpm-trace` from one
//! process. An untraced run gives the end-to-end metrics; a traced run
//! records spans around every call into a layer and derives per-layer
//! self times and exact work counts from them. See README.md.

pub mod out;
pub mod replica;
pub mod repro;
pub mod serve;
pub mod spans;
pub mod sweep;

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use lpm_core::design_space::HwConfig;
use lpm_harness::{evaluate_point, SweepSpec};
use lpm_trace::SpecWorkload;

use crate::out::{median, ratio, Outcome};
use crate::replica::Work;

/// Wall-time budget of one measuring phase.
#[derive(Debug, Clone)]
pub struct Budget {
    /// Seconds the phase may measure for.
    pub seconds: f64,
}

impl Budget {
    /// Half the budget (a traced run splits it between its two halves).
    pub fn half(&self) -> Budget {
        Budget {
            seconds: self.seconds / 2.0,
        }
    }

    /// Whether another repetition of `typical` seconds still fits after
    /// the phase started at `t0`.
    pub fn room(&self, t0: Instant, typical: f64) -> bool {
        t0.elapsed().as_secs_f64() + typical <= self.seconds
    }
}

/// Run `f` on `n` indices over one thread per entry of `states`; each
/// thread takes the next unclaimed index. Returns the results in index
/// order and the states back.
pub fn pool<S: Send, T: Send>(
    n: usize,
    states: Vec<S>,
    f: impl Fn(&mut S, usize) -> T + Sync,
) -> (Vec<T>, Vec<S>) {
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<T>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let states = std::thread::scope(|s| {
        let handles: Vec<_> = states
            .into_iter()
            .map(|mut st| {
                let (next, slots, f) = (&next, &slots, &f);
                s.spawn(move || {
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            break;
                        }
                        let out = f(&mut st, i);
                        *slots[i].lock().expect("result slot poisoned") = Some(out);
                    }
                    st
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("benchmark worker panicked"))
            .collect()
    });
    let results = slots
        .into_iter()
        .map(|m| {
            m.into_inner()
                .expect("result slot poisoned")
                .expect("every index was claimed")
        })
        .collect();
    (results, states)
}

/// Set-up repetitions per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 7;

/// Time [`SETUP_REPS`] set-ups, record their median as `setup_s`, and
/// return the last one's product for the run to use. Each set-up warms
/// the simulator (so the first timed pass does not pay for cold code and
/// allocator growth), then runs the workload's own `f`.
pub fn repeat_setup<T>(o: &mut Outcome, mut f: impl FnMut() -> T) -> T {
    let mut times = Vec::new();
    let mut last = None;
    for _ in 0..SETUP_REPS {
        // Tear the previous set-up down before the clock starts.
        drop(last.take());
        let t0 = Instant::now();
        warm_up();
        last = Some(f());
        times.push(t0.elapsed().as_secs_f64());
    }
    o.set("setup_s", median(&times));
    o.note(format!("set-up times: {times:.4?} s"));
    last.expect("at least one set-up")
}

/// Evaluate two default-size sweep points, one cycle-dense and one
/// mostly idle, so code, caches and the allocator are warm. Serial, so
/// the set-up does the same work in the same order every time.
fn warm_up() {
    let spec = SweepSpec {
        configs: vec![("C".into(), HwConfig::C)],
        workloads: vec![SpecWorkload::GccLike, SpecWorkload::McfLike],
        ..SweepSpec::default()
    };
    for p in spec.points() {
        let _ = std::hint::black_box(evaluate_point(&p, &spec));
    }
}

/// Record the exact work counters of a traced run.
pub fn set_counts(o: &mut Outcome, w: &Work) {
    let f = |v: u64| v as f64;
    o.set("cpu.retired", f(w.retired));
    o.set("sim.cycles", f(w.cycles));
    let attr = |v: u64| ratio(f(v), f(w.attr_cycles));
    o.set("attr.rob_full_ratio", attr(w.stall_rob_full));
    o.set("attr.l1_mshr_full_ratio", attr(w.stall_l1_mshr_full));
    o.set(
        "attr.shared_mshr_full_ratio",
        attr(w.stall_shared_mshr_full),
    );
    o.set("attr.dram_ratio", attr(w.stall_dram));
    o.set("l1.miss_ratio", ratio(f(w.l1_misses), f(w.l1_accesses)));
    o.set("l1.mshr_rejects", f(w.l1_mshr_rejects));
    o.set("l1.port_rejects", f(w.l1_port_rejects));
    o.set("l2.accesses", f(w.l2_accesses));
    o.set("l2.miss_ratio", ratio(f(w.l2_misses), f(w.l2_accesses)));
    o.set("l2.mshr_rejects", f(w.l2_mshr_rejects));
    o.set("l2.port_rejects", f(w.l2_port_rejects));
    o.set("dram.accepted", f(w.dram_accepted));
    o.set(
        "dram.row_hit_ratio",
        ratio(f(w.dram_row_hits), f(w.dram_accepted)),
    );
    o.set("dram.rejected", f(w.dram_rejected));
    o.set("dram.busy_ratio", ratio(f(w.dram_busy), f(w.cycles)));
    o.set("core.decisions", f(w.decisions));
    o.set("core.knob_changes", f(w.knob_changes));
    o.set("telemetry.events", f(w.events));
    o.set(
        "telemetry.dropped_ratio",
        ratio(f(w.events_dropped), f(w.events)),
    );
    o.note(format!("work counters: {w:?}"));
    o.note(format!("work digest: {:#018x}", w.digest()));
}
