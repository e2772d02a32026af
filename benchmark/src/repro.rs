//! `paper-repro`: the `repro_all` experiment set at its default window
//! (Table I, Fig. 6/7, Fig. 8, the Eq. 12 validation and the §IV
//! interval study), dealt item by item to `nproc` worker threads that
//! call the `lpm-core` functions directly.

use std::time::Instant;

use lpm_bench::study_config;
use lpm_core::burst::{BurstStudy, DetectionResult};
use lpm_core::design_space::{measure_config, HwConfig, TableIRow};
use lpm_core::profile::{profile_workload, WorkloadProfile, FIG5_L1_SIZES};
use lpm_core::sched::{evaluate_schedule, fig8_policies, NucaLayout, ScheduleEvaluation};
use lpm_core::validation::{validate_stall_model, ValidationRow};
use lpm_sim::SystemConfig;
use lpm_trace::{Generator, SpecWorkload, Trace};

use crate::out::{fnv1a, fold32, median, quantile, ratio, Outcome};
use crate::replica::{traced_schedule, Work};
use crate::spans::{ThreadTrace, Trace as SpanTrace};
use crate::{pool, Budget};

/// Instructions per measurement window: `repro_all`'s default.
pub const INSTRUCTIONS: usize = lpm_bench::FULL_INSTRUCTIONS / 2;

/// The seed `repro_all` runs at.
pub const DEFAULT_SEED: u64 = lpm_bench::SEED;

/// FNV-1a digests of [`ReproOutput::render`] as the `lpm_bench`
/// reference functions (`repro_all`'s own calls) produce it at seeds 0,
/// 1, 2, …, taken when this benchmark was defined. Entry
/// [`DEFAULT_SEED`] is `repro_all`'s own output. A change that moves any
/// reproduced number changes them; regenerate with
/// `cargo test --release --manifest-path benchmark/Cargo.toml -- --ignored --nocapture reference_digests`.
/// At a seed past the table the run computes the reference instead.
pub const REFERENCE_DIGESTS: [u64; 32] = [
    0x6d8a_7558_f812_296c,
    0x913d_b12a_8c1f_ec84,
    0x191a_fa23_45a1_e65b,
    0x0ffa_a3ea_20b3_e90f,
    0xd908_1648_9735_a15b,
    0xf791_c721_e66f_45b1,
    0xaa5e_f6d4_5645_4629,
    0x9645_caa6_5e7a_b3ed,
    0x60f6_551e_eab5_944a,
    0x7f02_c978_45ec_3e8e,
    0x1b8d_586f_b045_563d,
    0x45c2_719e_777c_37ea,
    0x647b_4af9_ca9b_9fb7,
    0x5b67_3252_0a2b_7ad9,
    0x6972_c289_ea30_c42c,
    0x4e8c_394b_95a5_774a,
    0x2d30_690f_61b2_80a6,
    0x2eee_3d3a_9c13_d528,
    0xce7c_75cb_093a_96ad,
    0x0541_f8ec_854e_027f,
    0xd8c8_68c7_9b4d_b184,
    0x76bd_0c45_23d9_0965,
    0x0dd0_023d_5a4d_a971,
    0x0f67_e948_adb8_5caf,
    0x8ae7_e834_6ecf_6dd7,
    0x6497_769c_cad8_0a81,
    0x248d_a80f_ccbd_4cb0,
    0xb632_b4b0_aa70_d34f,
    0x9088_d63c_ee88_590e,
    0x4eec_b487_2be1_2efb,
    0x7d7d_8eee_7b8d_8aa2,
    0x74f6_04aa_a307_d7f9,
];

/// The Table I trace seed `lpm_bench::table1_rows` uses.
const TABLE1_TRACE_SEED: u64 = 11;

/// The §IV operating points of `BurstStudy::paper_operating_points`.
const INTERVALS: [(u64, u64); 3] = [(10, 4), (20, 4), (40, 40)];

/// Every reproduced number of one pass.
#[derive(Debug, Clone)]
pub struct ReproOutput {
    /// Table I rows, A–E.
    pub table1: Vec<TableIRow>,
    /// Fig. 6/7 profiles, suite order.
    pub profiles: Vec<WorkloadProfile>,
    /// Fig. 8 evaluations, policy order.
    pub fig8: Vec<ScheduleEvaluation>,
    /// Eq. 12 validation rows, suite order.
    pub validation: Vec<ValidationRow>,
    /// §IV detection rates.
    pub intervals: Vec<DetectionResult>,
}

impl ReproOutput {
    /// One canonical line per result (full-precision `Debug`), in a
    /// fixed order, so two outputs compare entry by entry.
    pub fn entries(&self) -> Vec<String> {
        let mut out = Vec::new();
        out.extend(self.table1.iter().map(|r| format!("table1 {r:?}")));
        out.extend(self.profiles.iter().map(|p| format!("fig67 {p:?}")));
        out.extend(self.fig8.iter().map(|e| format!("fig8 {e:?}")));
        out.extend(self.validation.iter().map(|v| format!("validation {v:?}")));
        out.extend(self.intervals.iter().map(|d| format!("intervals {d:?}")));
        out
    }

    /// The entries joined by newlines.
    pub fn render(&self) -> String {
        self.entries().join("\n")
    }
}

/// The reference: `repro_all`'s own calls into `lpm_bench`.
pub fn reference(seed: u64) -> ReproOutput {
    let profiles = lpm_bench::fig67_profiles(INSTRUCTIONS, seed);
    ReproOutput {
        table1: lpm_bench::table1_rows(INSTRUCTIONS, seed),
        fig8: lpm_bench::fig8_results(&profiles, INSTRUCTIONS, seed),
        validation: validate_stall_model(&SpecWorkload::ALL, INSTRUCTIONS, seed),
        intervals: lpm_bench::interval_results(seed).to_vec(),
        profiles,
    }
}

/// One independent unit of the first phase.
#[derive(Debug, Clone, Copy)]
enum Item {
    Table1(usize),
    Profile(usize, usize),
    Validation(usize),
    Interval(usize),
}

impl Item {
    fn span(self) -> &'static str {
        match self {
            Item::Table1(_) => "repro.table1",
            Item::Profile(..) => "repro.fig67",
            Item::Validation(_) => "repro.validation",
            Item::Interval(_) => "repro.intervals",
        }
    }
}

enum ItemOut {
    Table1(TableIRow),
    Profile(WorkloadProfile),
    Validation(ValidationRow),
    Interval(DetectionResult),
}

fn phase1_items() -> Vec<Item> {
    let mut items: Vec<Item> = (0..HwConfig::TABLE_I.len()).map(Item::Table1).collect();
    for w in 0..SpecWorkload::ALL.len() {
        for s in 0..FIG5_L1_SIZES.len() {
            items.push(Item::Profile(w, s));
        }
    }
    items.extend((0..SpecWorkload::ALL.len()).map(Item::Validation));
    items.extend((0..INTERVALS.len()).map(Item::Interval));
    items
}

/// Items of one pass (phase 1 plus the four Fig. 8 runs).
pub fn items_per_pass() -> usize {
    phase1_items().len() + 4
}

fn run_item(item: Item, table1_trace: &Trace, seed: u64) -> ItemOut {
    match item {
        Item::Table1(i) => {
            let (label, hw) = HwConfig::TABLE_I[i];
            ItemOut::Table1(measure_config(
                label,
                hw,
                &SystemConfig::default(),
                table1_trace,
                seed,
            ))
        }
        Item::Profile(w, s) => ItemOut::Profile(profile_workload(
            SpecWorkload::ALL[w],
            &FIG5_L1_SIZES[s..=s],
            &study_config(),
            INSTRUCTIONS,
            seed,
        )),
        Item::Validation(w) => ItemOut::Validation(
            validate_stall_model(&SpecWorkload::ALL[w..=w], INSTRUCTIONS, seed)
                .pop()
                .expect("one row per workload"),
        ),
        Item::Interval(i) => {
            let (interval, action) = INTERVALS[i];
            ItemOut::Interval(BurstStudy::default().run(interval, action, seed))
        }
    }
}

/// Fold phase-1 outputs (in item order) into the result vectors; the
/// per-size profiles of one workload merge into one profile.
fn assemble(outs: Vec<ItemOut>) -> ReproOutput {
    let mut r = ReproOutput {
        table1: Vec::new(),
        profiles: Vec::new(),
        fig8: Vec::new(),
        validation: Vec::new(),
        intervals: Vec::new(),
    };
    for o in outs {
        match o {
            ItemOut::Table1(row) => r.table1.push(row),
            ItemOut::Profile(p) => match r.profiles.last_mut() {
                Some(acc) if acc.workload == p.workload => {
                    acc.l1_sizes.extend(p.l1_sizes);
                    acc.apc1.extend(p.apc1);
                    acc.apc2.extend(p.apc2);
                    acc.l2_demand.extend(p.l2_demand);
                    acc.ipc.extend(p.ipc);
                    acc.lpmr1.extend(p.lpmr1);
                }
                _ => r.profiles.push(p),
            },
            ItemOut::Validation(v) => r.validation.push(v),
            ItemOut::Interval(d) => r.intervals.push(d),
        }
    }
    r
}

/// Inputs shared by every pass: the Table I trace.
pub struct Setup {
    table1_trace: Trace,
}

/// Prepare a pass's shared input.
pub fn setup() -> Setup {
    Setup {
        table1_trace: SpecWorkload::BwavesLike
            .generator()
            .generate(INSTRUCTIONS, TABLE1_TRACE_SEED),
    }
}

/// One untraced pass on `workers` threads.
pub fn pass(setup: &Setup, seed: u64, workers: usize) -> ReproOutput {
    let items = phase1_items();
    let (outs, _) = pool(items.len(), vec![(); workers], |_, i| {
        run_item(items[i], &setup.table1_trace, seed)
    });
    let mut r = assemble(outs);
    let layout = NucaLayout::fig5();
    let base = study_config();
    let policies = fig8_policies(3);
    let profiles = &r.profiles;
    let (fig8, _) = pool(policies.len(), vec![(); workers], |_, i| {
        evaluate_schedule(policies[i], &layout, profiles, &base, INSTRUCTIONS, seed)
    });
    r.fig8 = fig8;
    r
}

/// One traced pass: the same items with a span around each, and the
/// Fig. 8 runs through [`traced_schedule`].
pub fn traced_pass(
    setup: &Setup,
    seed: u64,
    workers: usize,
    epoch: Instant,
) -> Result<(ReproOutput, SpanTrace, Work), String> {
    let items = phase1_items();
    let traces: Vec<ThreadTrace> = (0..workers).map(|_| ThreadTrace::new(epoch)).collect();
    let (outs, traces) = pool(items.len(), traces, |tt, i| {
        tt.time(items[i].span(), i as u64, || {
            run_item(items[i], &setup.table1_trace, seed)
        })
    });
    let mut r = assemble(outs);
    let layout = NucaLayout::fig5();
    let base = study_config();
    let policies = fig8_policies(3);
    let profiles = &r.profiles;
    let (fig8, traces2) = pool(policies.len(), traces, |tt, i| {
        let s = tt.enter("repro.fig8", i as u64);
        let out = traced_schedule(
            policies[i],
            &layout,
            profiles,
            &base,
            INSTRUCTIONS,
            seed,
            i as u64,
            tt,
        );
        tt.exit(s);
        out
    });
    let mut spans = SpanTrace::default();
    for t in traces2 {
        spans.merge(t);
    }
    let mut work = Work::default();
    for f in fig8 {
        let (eval, w) = f?;
        work.add(&w);
        r.fig8.push(eval);
    }
    Ok((r, spans, work))
}

/// Run the workload: timed passes, then the output checks.
pub fn run(seed: u64, budget: &Budget, trace: bool, o: &mut Outcome) -> Result<(), String> {
    let workers = crate::out::nproc();
    let shared = crate::repeat_setup(o, setup);

    let untraced_budget = if trace { budget.half() } else { budget.clone() };
    let mut walls = Vec::new();
    let mut outputs = Vec::new();
    let t0 = Instant::now();
    while walls.is_empty() || untraced_budget.room(t0, median(&walls)) {
        let start = Instant::now();
        let out = pass(&shared, seed, workers);
        walls.push(start.elapsed().as_secs_f64());
        outputs.push(out);
    }
    let repro_s = median(&walls);
    o.set("mem.peak_rss_mb", crate::out::peak_rss_mb()?);
    o.set("p50_ms", repro_s * 1e3);
    o.set("p90_ms", quantile(&walls, 0.9) * 1e3);
    o.set("throughput_per_s", items_per_pass() as f64 / repro_s);
    o.set("repro_s", repro_s);
    o.note(format!(
        "paper-repro: {} pass(es) on {workers} worker(s), wall {:?} s, {} items/pass",
        walls.len(),
        walls,
        items_per_pass()
    ));

    let mut traced = None;
    if trace {
        let epoch = Instant::now();
        let (out, spans, work) = traced_pass(&shared, seed, workers, epoch)?;
        let wall = epoch.elapsed().as_secs_f64();
        outputs.push(out);
        traced = Some((spans, work, wall));
    }

    // Output checks, outside the timed window.
    let (digest, want) = match usize::try_from(seed)
        .ok()
        .and_then(|i| REFERENCE_DIGESTS.get(i))
    {
        Some(&d) => (d, None),
        None => {
            let want = reference(seed).render();
            (fnv1a(want.as_bytes()), Some(want))
        }
    };
    o.note(format!(
        "paper-repro: reference digest {digest:#018x} at seed {seed}"
    ));
    let want_entries: Option<Vec<&str>> = want.as_deref().map(|w| w.split('\n').collect());
    for (i, out) in outputs.iter().enumerate() {
        let got = out.render();
        let ok = fnv1a(got.as_bytes()) == digest;
        o.tally(
            items_per_pass() as u64,
            if ok { 0 } else { items_per_pass() as u64 },
        );
        if ok {
            continue;
        }
        match &want_entries {
            Some(want) => {
                for (g, w) in got.split('\n').zip(want) {
                    if g != *w {
                        o.note(format!("MISMATCH: pass {i}: {g} != reference {w}"));
                    }
                }
            }
            None => o.note(format!(
                "MISMATCH: pass {i}: digest {:#018x} != reference {digest:#018x}",
                fnv1a(got.as_bytes())
            )),
        }
    }

    if let Some((spans, work, wall)) = traced {
        layer_metrics(o, &spans, &work, wall, repro_s, workers);
        o.set("work.digest", fold32(digest ^ work.digest()));
    }
    Ok(())
}

fn layer_metrics(
    o: &mut Outcome,
    spans: &SpanTrace,
    work: &Work,
    wall: f64,
    untraced_wall: f64,
    workers: usize,
) {
    let totals = spans.totals();
    let total_s = |name: &str| totals.get(name).map_or(0.0, |t| t.total_ns as f64 / 1e9);
    let mean_ms = |name: &str| {
        totals
            .get(name)
            .map_or(0.0, |t| ratio(t.total_ns as f64 / 1e6, t.count as f64))
    };
    o.set("trace.wall_s", wall);
    o.set(
        "trace.overhead_ratio",
        ratio(wall - untraced_wall, untraced_wall),
    );
    let thread_s = workers as f64 * wall;
    let item_s = total_s("repro.table1")
        + total_s("repro.fig67")
        + total_s("repro.validation")
        + total_s("repro.intervals")
        + total_s("repro.fig8");
    o.set("trace.uncovered_ratio", ratio(thread_s - item_s, thread_s));
    o.set("repro.table1_s", total_s("repro.table1"));
    o.set("repro.fig67_s", total_s("repro.fig67"));
    o.set("repro.fig8_s", total_s("repro.fig8"));
    o.set("repro.validation_s", total_s("repro.validation"));
    o.set("repro.intervals_s", total_s("repro.intervals"));
    o.set("repro.parallel_efficiency", ratio(item_s, thread_s));
    o.set("trace.generate_ms", mean_ms("trace.generate"));
    o.set("cmp.build_ms", mean_ms("cmp.build"));
    o.set("cmp.warmup_s", total_s("cmp.warmup"));
    o.set("cmp.measure_s", total_s("cmp.measure"));
    let step_ns = (total_s("cmp.warmup") + total_s("cmp.measure")) * 1e9;
    o.set("cmp.ns_per_cycle", ratio(step_ns, work.cycles as f64));
    o.set(
        "cmp.skip_ratio",
        ratio(work.skipped as f64, work.cycles as f64),
    );
    crate::set_counts(o, work);
    o.notes.extend(spans.table());
}
