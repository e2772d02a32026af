//! `serve-open`: independent users asking small what-if questions of an
//! in-process `lpm_serve` daemon. One client thread on one persistent
//! connection submits the jobs, over four tenants in turn. An untraced
//! run times one job at a time (the `solo` phase), then keeps [`WINDOW`]
//! jobs outstanding to find the rate the daemon sustains. A traced run
//! submits open loop instead, with seeded exponential inter-arrivals at
//! a `low` and a `high` fixed rate. A quarter of the arrivals re-submit
//! an earlier spec, which the daemon answers from its report cache.

use std::collections::BTreeMap;
use std::path::Path;
use std::time::{Duration, Instant};

use lpm_core::design_space::HwConfig;
use lpm_harness::{run_sweep_with, SweepOptions, SweepSpec};
use lpm_serve::{start, Client, ServerConfig, ServerHandle};
use lpm_telemetry::Value;
use lpm_trace::SpecWorkload;

use crate::out::{fnv1a, fold32, median, mix, nproc, quantile, ratio, Outcome};
use crate::spans::{ThreadTrace, Trace};
use crate::Budget;

/// Arrival rate of the `low` phase, jobs/s: about 20% of what one
/// runner with two sweep workers sustains on a 2-CPU host (≈50 jobs/s).
pub const LOW_RATE: f64 = 10.0;
/// Arrival rate of the `high` phase, jobs/s: about 30% of it. At
/// 20 jobs/s a slow spell of the host filled the queue of 8 and drew
/// rejections.
pub const HIGH_RATE: f64 = 15.0;
/// Jobs kept outstanding in the capacity phase: half the daemon's queue
/// of 8, so the backlog cannot grow and nothing is rejected.
pub const WINDOW: usize = 4;
/// Jobs/s one runner sustains on a 2-CPU host; sizes the capacity phase.
const CAPACITY_GUESS: f64 = 45.0;
/// Jobs/s one job at a time completes on a 2-CPU host; sizes the `solo`
/// phase.
const SOLO_GUESS: f64 = 40.0;
/// Jobs each set-up runs through a fresh daemon before the load.
const WARM_JOBS: usize = 3;
/// Client pause after polling every outstanding job once.
const POLL_PAUSE_S: f64 = 0.002;
/// Tenants the arrivals are spread over.
const TENANTS: u64 = 4;
/// Fresh reports re-computed locally and byte-compared per run.
const VERIFY_SAMPLE: usize = 6;

/// The workloads the small specs rotate through.
const JOB_WORKLOADS: [SpecWorkload; 3] = [
    SpecWorkload::BwavesLike,
    SpecWorkload::McfLike,
    SpecWorkload::Bzip2Like,
];

/// The `n`-th fresh spec of benchmark seed `seed`: configs A and C on a
/// rotating workload with a fresh seed, at a small size.
pub fn job_spec(seed: u64, n: usize) -> SweepSpec {
    SweepSpec {
        configs: vec![("A".into(), HwConfig::A), ("C".into(), HwConfig::C)],
        workloads: vec![JOB_WORKLOADS[n % JOB_WORKLOADS.len()]],
        seeds: vec![mix(seed, 1000 + n as u64) % 1_000_000],
        instructions: 20_000,
        intervals: 3,
        interval_cycles: 5_000,
        warmup_instructions: 5_000,
        ..SweepSpec::default()
    }
}

/// A uniform draw in [0, 1) from a splitmix stream.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> f64 {
        self.0 = self.0.wrapping_add(1);
        (mix(self.0, 0x5e) >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// One scheduled arrival.
#[derive(Debug, Clone, Copy)]
struct Arrival {
    /// Request id: the arrival's position in the whole load.
    id: u64,
    /// Due time, seconds from the phase start.
    due: f64,
    /// Index of the fresh spec it submits.
    spec: usize,
    tenant: u64,
}

/// The arrival generator: exponential inter-arrival times, every fourth
/// arrival a seeded pick of an earlier spec, and the tenants in turn (so
/// no tenant reaches its quota of 4 live jobs before the queue is full).
struct Schedule {
    rng: Rng,
    fresh: usize,
    submitted: u64,
}

impl Schedule {
    fn new(seed: u64) -> Self {
        Schedule {
            rng: Rng(mix(seed, 0xa11)),
            fresh: 0,
            submitted: 0,
        }
    }

    fn arrivals(&mut self, rate: f64, count: usize) -> Vec<Arrival> {
        let mut t = 0.0;
        (0..count)
            .map(|_| {
                let k = self.submitted;
                self.submitted += 1;
                t += -(1.0 - self.rng.next()).ln() / rate;
                // Every fourth arrival repeats an earlier spec, so each
                // phase has the same mix of fresh and cached jobs.
                let spec = if k % 4 == 3 {
                    ((self.rng.next() * self.fresh as f64) as usize).min(self.fresh - 1)
                } else {
                    self.fresh += 1;
                    self.fresh - 1
                };
                let tenant = (k + k / 4) % TENANTS;
                Arrival {
                    id: k,
                    due: t,
                    spec,
                    tenant,
                }
            })
            .collect()
    }
}

/// A running daemon and the benchmark's one connection to it.
struct Live {
    handle: Option<ServerHandle>,
    client: Client,
}

impl Live {
    /// Start a daemon in `dir`, connect, and run [`WARM_JOBS`] jobs
    /// through it so its first measured jobs do not pay for cold state.
    fn start(dir: &Path, seed: u64) -> Result<Live, String> {
        if dir.exists() {
            std::fs::remove_dir_all(dir)
                .map_err(|e| format!("cannot clear {}: {e}", dir.display()))?;
        }
        // One runner and at most nproc sweep workers: no more compute
        // threads than the host has.
        let handle = start(ServerConfig {
            state_dir: dir.to_path_buf(),
            sweep_jobs: nproc().min(2),
            ..ServerConfig::default()
        })?;
        let mut client = Client::connect(handle.addr())?;
        ok(&client.ping()?)?;
        let mut live = Live {
            handle: Some(handle),
            client,
        };
        for n in 0..WARM_JOBS {
            live.run_job(&job_spec(!seed, n))?;
        }
        Ok(live)
    }

    /// Submit `spec`, poll until it completes, and fetch its report.
    fn run_job(&mut self, spec: &SweepSpec) -> Result<String, String> {
        let resp = self.client.submit("warm-up", spec, None, None)?;
        ok(&resp)?;
        let id = resp
            .get("id")
            .and_then(Value::as_str)
            .ok_or("submit reply has no id")?
            .to_string();
        loop {
            let st = self.client.status(&id)?;
            match st.get("status").and_then(Value::as_str) {
                Some("completed") => return self.client.report_text(&id),
                Some("queued" | "running") => {
                    std::thread::sleep(Duration::from_secs_f64(POLL_PAUSE_S))
                }
                _ => return Err(format!("warm-up job failed: {}", st.to_json())),
            }
        }
    }

    /// Drain the daemon and wait for its threads.
    fn stop(&mut self) -> Result<(), String> {
        match self.handle.take() {
            Some(h) => {
                h.request_shutdown();
                h.join()
            }
            None => Ok(()),
        }
    }

    fn busy_ns(&mut self) -> Result<u64, String> {
        let m = self.client.metrics("json")?;
        ok(&m)?;
        m.get("metrics")
            .and_then(|v| v.get("busy_ns"))
            .and_then(Value::as_u64)
            .ok_or_else(|| "metrics reply has no busy_ns".to_string())
    }
}

impl Drop for Live {
    fn drop(&mut self) {
        let _ = self.stop();
    }
}

fn ok(v: &Value) -> Result<(), String> {
    if v.get("ok").and_then(Value::as_bool) == Some(true) {
        Ok(())
    } else {
        Err(format!("request failed: {}", v.to_json()))
    }
}

/// Everything measured about one job.
#[derive(Debug, Clone)]
struct Done {
    latency_ms: f64,
    queue_wait_ms: Option<f64>,
    run_ms: Option<f64>,
    late_ms: f64,
    cached: bool,
}

/// What one load phase observed.
#[derive(Debug, Default)]
struct PhaseStats {
    done: Vec<Done>,
    rejects: u64,
    failures: u64,
    /// Integral of jobs in the system over time, job·s.
    jobs_seconds: f64,
    /// Phase wall time, s.
    wall: f64,
}

impl PhaseStats {
    fn latencies(&self) -> Vec<f64> {
        self.done.iter().map(|d| d.latency_ms).collect()
    }

    /// Latencies of the jobs the daemon computed. Report-cache hits form
    /// a separate mode near 1 ms; mixing them in would put the median on
    /// the edge between two modes.
    fn fresh_latencies(&self) -> Vec<f64> {
        self.done
            .iter()
            .filter(|d| !d.cached)
            .map(|d| d.latency_ms)
            .collect()
    }

    fn cached_latencies(&self) -> Vec<f64> {
        self.done
            .iter()
            .filter(|d| d.cached)
            .map(|d| d.latency_ms)
            .collect()
    }
}

struct Pending {
    arrival: Arrival,
    id: String,
    submitted_at: f64,
    running_at: Option<f64>,
    cached: bool,
}

/// Per-spec record of the first fetched report, to check later fetches
/// and sampled local re-runs against.
#[derive(Default)]
struct Reports {
    first: BTreeMap<usize, u64>,
    kept: BTreeMap<usize, String>,
    mismatches: Vec<String>,
    checked: u64,
}

impl Reports {
    fn record(&mut self, spec: usize, text: String, keep: bool) {
        let d = fnv1a(text.as_bytes());
        match self.first.get(&spec) {
            Some(&first) => {
                self.checked += 1;
                if first != d {
                    self.mismatches
                        .push(format!("spec {spec}: report differs from its first fetch"));
                }
            }
            None => {
                self.first.insert(spec, d);
                if keep {
                    self.kept.insert(spec, text);
                }
            }
        }
    }
}

/// The client loop of one phase: submit each arrival when due (open
/// loop) or whenever fewer than `window` jobs are outstanding (closed
/// loop), poll the outstanding jobs in turn, and fetch each report when
/// its job completes. Latency runs from the due time (open loop) or the
/// submit (closed loop) to the report bytes in hand.
fn drive(
    live: &mut Live,
    seed: u64,
    arrivals: &[Arrival],
    window: Option<usize>,
    keep: &dyn Fn(usize) -> bool,
    reports: &mut Reports,
    tt: &mut Option<ThreadTrace>,
) -> Result<PhaseStats, String> {
    let mut stats = PhaseStats::default();
    let t0 = Instant::now();
    let now = || t0.elapsed().as_secs_f64();
    let mut pending: Vec<Pending> = Vec::new();
    let mut next = 0;
    let mut cursor = 0;
    let mut last_t = 0.0;
    loop {
        let t = now();
        stats.jobs_seconds += pending.len() as f64 * (t - last_t);
        last_t = t;
        let ready = match window {
            Some(w) => pending.len() < w,
            None => arrivals.get(next).is_some_and(|a| a.due <= t),
        };
        if next < arrivals.len() && ready {
            let mut a = arrivals[next];
            if window.is_some() {
                a.due = t;
            }
            next += 1;
            let spec = job_spec(seed, a.spec);
            let tenant = format!("tenant-{}", a.tenant);
            let resp = span(tt, "serve.submit", a.id, || {
                live.client.submit(&tenant, &spec, None, None)
            })?;
            let submitted_at = now();
            if resp.get("ok").and_then(Value::as_bool) == Some(true) {
                let id = resp
                    .get("id")
                    .and_then(Value::as_str)
                    .ok_or("submit reply has no id")?
                    .to_string();
                let cached = resp.get("cached").and_then(Value::as_bool) == Some(true);
                if resp.get("status").and_then(Value::as_str) == Some("completed") {
                    // A report-cache hit: the bytes are ready now.
                    let text = span(tt, "serve.report", a.id, || live.client.report_text(&id))?;
                    let end = now();
                    stats.done.push(Done {
                        latency_ms: (end - a.due) * 1e3,
                        queue_wait_ms: None,
                        run_ms: None,
                        late_ms: (submitted_at - a.due) * 1e3,
                        cached: true,
                    });
                    reports.record(a.spec, text, keep(a.spec));
                    continue;
                }
                pending.push(Pending {
                    arrival: a,
                    id,
                    submitted_at,
                    running_at: None,
                    cached,
                });
            } else {
                stats.rejects += 1;
            }
            continue;
        }
        if pending.is_empty() {
            if next == arrivals.len() {
                break;
            }
            let due = arrivals[next].due;
            span(tt, "client.wait", 0, || sleep_until(t0, due));
            continue;
        }
        cursor %= pending.len();
        let p = &mut pending[cursor];
        let st = span(tt, "serve.status", p.arrival.id, || {
            live.client.status(&p.id)
        })?;
        let status = st.get("status").and_then(Value::as_str).unwrap_or("");
        match status {
            "completed" => {
                let p = pending.remove(cursor);
                let text = span(tt, "serve.report", p.arrival.id, || {
                    live.client.report_text(&p.id)
                })?;
                let end = now();
                let seen_running = p.running_at.unwrap_or(end);
                stats.done.push(Done {
                    latency_ms: (end - p.arrival.due) * 1e3,
                    queue_wait_ms: (!p.cached).then_some((seen_running - p.submitted_at) * 1e3),
                    run_ms: (!p.cached && p.running_at.is_some())
                        .then_some((end - seen_running) * 1e3),
                    late_ms: (p.submitted_at - p.arrival.due) * 1e3,
                    cached: p.cached,
                });
                reports.record(p.arrival.spec, text, keep(p.arrival.spec));
                continue;
            }
            "running" => {
                if p.running_at.is_none() {
                    p.running_at = Some(now());
                }
            }
            "queued" => {}
            _ => {
                stats.failures += 1;
                pending.remove(cursor);
                continue;
            }
        }
        cursor += 1;
        if cursor >= pending.len() {
            // Every outstanding job polled once: pause briefly unless an
            // arrival is due sooner.
            let until = match arrivals.get(next) {
                Some(a) if window.is_none() => a.due.min(now() + POLL_PAUSE_S),
                _ => now() + POLL_PAUSE_S,
            };
            span(tt, "client.wait", 0, || sleep_until(t0, until));
        }
    }
    stats.wall = now();
    Ok(stats)
}

fn span<T>(tt: &mut Option<ThreadTrace>, name: &'static str, id: u64, f: impl FnOnce() -> T) -> T {
    match tt {
        Some(tt) => tt.time(name, id, f),
        None => f(),
    }
}

fn sleep_until(t0: Instant, at: f64) {
    let left = at - t0.elapsed().as_secs_f64();
    if left > 0.0 {
        std::thread::sleep(Duration::from_secs_f64(left));
    }
}

/// Results of a whole load. A phase that did not run is empty.
struct LoadResult {
    solo: PhaseStats,
    low: PhaseStats,
    high: PhaseStats,
    capacity: Option<PhaseStats>,
}

impl LoadResult {
    /// Jobs completed per second with [`WINDOW`] outstanding.
    fn max_rate(&self) -> f64 {
        self.capacity
            .as_ref()
            .map_or(0.0, |c| ratio(c.done.len() as f64, c.wall))
    }
}

fn arrivals_for(rate: f64, seconds: f64) -> usize {
    ((rate * seconds).round() as usize).max(10)
}

/// Shares of a load's seconds given to its phases, in the order they
/// run: `solo`, `low`, `high`, capacity. A phase with share 0 is skipped.
type Shares = [f64; 4];

/// The untraced run: one job at a time, then the capacity phase.
const END_TO_END_LOAD: Shares = [0.7, 0.0, 0.0, 0.3];
/// The untraced half of a traced run: both fixed rates, then capacity.
const RATES_LOAD: Shares = [0.0, 0.5, 0.2, 0.3];
/// The traced half: both fixed rates.
const TRACED_LOAD: Shares = [0.0, 0.6, 0.4, 0.0];

/// Run the phases of `shares`, splitting `seconds` between them. The
/// closed-loop phases (`solo` and capacity) get as many arrivals as fill
/// their share at the rate measured on a 2-CPU host, so they do a fixed
/// amount of work and take as long as it takes.
fn load(
    live: &mut Live,
    seed: u64,
    sched: &mut Schedule,
    seconds: f64,
    shares: Shares,
    reports: &mut Reports,
    tt: &mut Option<ThreadTrace>,
) -> Result<LoadResult, String> {
    // Keep the bytes of every seventh spec for the local re-run check.
    let keep = |spec: usize| spec % 7 == 3;
    let mut phase = |share: f64, rate: f64, window: Option<usize>| {
        if share == 0.0 {
            return Ok(PhaseStats::default());
        }
        let arrivals = sched.arrivals(rate, arrivals_for(rate, share * seconds));
        drive(live, seed, &arrivals, window, &keep, reports, tt)
    };
    let [solo_s, low_s, high_s, cap_s] = shares;
    let solo = phase(solo_s, SOLO_GUESS, Some(1))?;
    let low = phase(low_s, LOW_RATE, None)?;
    let high = phase(high_s, HIGH_RATE, None)?;
    let capacity = phase(cap_s, CAPACITY_GUESS, Some(WINDOW))?;
    Ok(LoadResult {
        solo,
        low,
        high,
        capacity: (cap_s > 0.0).then_some(capacity),
    })
}

/// Run the workload.
pub fn run(
    seed: u64,
    budget: &Budget,
    trace: bool,
    state: &Path,
    o: &mut Outcome,
) -> Result<(), String> {
    let mut n = 0;
    let mut live = crate::repeat_setup(o, || {
        n += 1;
        Live::start(&state.join(format!("serve-{n}")), seed)
    })?;

    let mut reports = Reports::default();
    let seconds = if trace {
        budget.seconds / 2.0
    } else {
        budget.seconds
    };
    let wall0 = Instant::now();
    let busy0 = live.busy_ns()?;
    let mut sched = Schedule::new(seed);
    let shares = if trace { RATES_LOAD } else { END_TO_END_LOAD };
    let res = load(
        &mut live,
        seed,
        &mut sched,
        seconds,
        shares,
        &mut reports,
        &mut None,
    )?;
    let busy = live.busy_ns()? - busy0;
    let untraced_wall = wall0.elapsed().as_secs_f64();

    let solo_lat = res.solo.fresh_latencies();
    let high_lat = res.high.fresh_latencies();
    let low_lat = res.low.fresh_latencies();
    let max_rate = res.max_rate();
    o.set("mem.peak_rss_mb", crate::out::peak_rss_mb()?);
    o.set("p50_ms", median(&solo_lat));
    o.set("p90_ms", quantile(&solo_lat, 0.9));
    o.set("throughput_per_s", max_rate);
    o.set("serve_p50_ms.low", median(&low_lat));
    o.set("serve_p90_ms.low", quantile(&low_lat, 0.9));
    o.set("serve_p50_ms.high", median(&high_lat));
    o.set("serve_p90_ms.high", quantile(&high_lat, 0.9));
    o.set("serve_max_rate_jps", max_rate);
    let cap = res
        .capacity
        .as_ref()
        .map(PhaseStats::latencies)
        .unwrap_or_default();
    let cached: Vec<f64> = [&res.solo, &res.low, &res.high]
        .iter()
        .flat_map(|p| p.cached_latencies())
        .collect();
    let fresh = [
        ("one at a time".to_string(), &solo_lat),
        (format!("low {LOW_RATE}/s"), &low_lat),
        (format!("high {HIGH_RATE}/s"), &high_lat),
    ];
    let fresh: Vec<String> = fresh
        .iter()
        .filter(|(_, lat)| !lat.is_empty())
        .map(|(name, lat)| {
            format!(
                "{name} n={} p50 {:.2} p90 {:.2} ms",
                lat.len(),
                median(lat),
                quantile(lat, 0.9)
            )
        })
        .collect();
    o.note(format!(
        "serve-open: fresh jobs: {}; cache hits n={} p50 {:.3} ms; {WINDOW} outstanding: \
         {max_rate:.2} jobs/s, n={} p90 {:.2} ms",
        fresh.join("; "),
        cached.len(),
        median(&cached),
        cap.len(),
        quantile(&cap, 0.9),
    ));
    let phases = [
        Some(&res.solo),
        Some(&res.low),
        Some(&res.high),
        res.capacity.as_ref(),
    ];
    let mut rejects = 0;
    for p in phases.into_iter().flatten() {
        rejects += p.rejects;
        o.tally(
            p.done.len() as u64 + p.rejects + p.failures,
            p.rejects + p.failures,
        );
    }
    let mut traced = None;
    if trace {
        let epoch = Instant::now();
        let mut tt = Some(ThreadTrace::new(epoch));
        let t = load(
            &mut live,
            seed,
            &mut sched,
            seconds,
            TRACED_LOAD,
            &mut reports,
            &mut tt,
        )?;
        let wall = epoch.elapsed().as_secs_f64();
        for p in [&t.low, &t.high] {
            rejects += p.rejects;
            o.tally(
                p.done.len() as u64 + p.rejects + p.failures,
                p.rejects + p.failures,
            );
        }
        let mut spans = Trace::default();
        if let Some(tt) = tt {
            spans.merge(tt);
        }
        traced = Some((t, spans, wall));
    }
    let stop = live.stop();
    drop(live);
    stop?;

    // Output checks, outside the timed window: sampled fresh reports
    // against a local sweep of the same spec, repeats against their
    // first fetch.
    let mut verified = 0;
    for (&spec_no, text) in reports.kept.iter().take(VERIFY_SAMPLE) {
        let local = run_sweep_with(
            &job_spec(seed, spec_no),
            1,
            &SweepOptions {
                wall_warn: None,
                ..SweepOptions::default()
            },
        )?
        .to_jsonl();
        verified += 1;
        o.check(&local == text, || {
            format!("served report of spec {spec_no} differs from a local sweep")
        });
    }
    o.tally(reports.checked, reports.mismatches.len() as u64);
    for m in &reports.mismatches {
        o.note(format!("MISMATCH: {m}"));
    }
    o.note(format!(
        "serve-open: {verified} fresh report(s) byte-compared with local sweeps, {} repeat \
         fetch(es) compared with their first fetch",
        reports.checked
    ));

    if let Some((t, spans, wall)) = traced {
        layer_metrics(o, &res, &t, &spans, busy, untraced_wall, wall, rejects);
        let digest = reports
            .first
            .values()
            .fold(0u64, |a, d| a ^ d.rotate_left(7));
        o.set("work.digest", fold32(digest));
    }
    Ok(())
}

#[allow(clippy::too_many_arguments)]
fn layer_metrics(
    o: &mut Outcome,
    untraced: &LoadResult,
    traced: &LoadResult,
    spans: &Trace,
    busy_ns: u64,
    untraced_wall: f64,
    traced_wall: f64,
    rejects: u64,
) {
    let totals = spans.totals();
    let mean_us = |name: &str| {
        totals
            .get(name)
            .map_or(0.0, |t| ratio(t.total_ns as f64 / 1e3, t.count as f64))
    };
    let done: Vec<&Done> = traced.low.done.iter().chain(&traced.high.done).collect();
    let status_us: Vec<f64> = spans
        .durations_ms("serve.status")
        .iter()
        .map(|ms| ms * 1e3)
        .collect();
    let waits: Vec<f64> = done.iter().filter_map(|d| d.queue_wait_ms).collect();
    let runs: Vec<f64> = done.iter().filter_map(|d| d.run_ms).collect();
    let late: Vec<f64> = done.iter().map(|d| d.late_ms).collect();
    o.set("serve.submit_us", mean_us("serve.submit"));
    o.set("serve.status_us.p99", quantile(&status_us, 0.99));
    o.set("serve.queue_wait_ms.p90", quantile(&waits, 0.9));
    o.set("serve.run_ms.p50", median(&runs));
    o.set("serve.report_us", mean_us("serve.report"));
    o.set(
        "serve.cache_hit_ratio",
        ratio(
            done.iter().filter(|d| d.cached).count() as f64,
            done.len() as f64,
        ),
    );
    o.set(
        "serve.utilization",
        ratio(busy_ns as f64 / 1e9, untraced_wall),
    );
    // Little's law on the untraced high phase: arrival rate × mean time
    // in system against the time-averaged number of jobs in the system.
    let h = &untraced.high;
    let lambda = ratio(h.done.len() as f64, h.wall);
    let w = ratio(
        h.done.iter().map(|d| d.latency_ms - d.late_ms).sum::<f64>() / 1e3,
        h.done.len() as f64,
    );
    let l = ratio(h.jobs_seconds, h.wall);
    o.set("serve.littles_law_gap", ratio(lambda * w - l, l));
    o.set("serve.rejects", rejects as f64);
    o.set("serve.gen_late_ms.p99", quantile(&late, 0.99));
    // The serve spans are the client's own calls, so the overhead shows
    // as latency: the traced half's low-rate p50 against the untraced.
    let plain = median(&untraced.low.fresh_latencies());
    let with_spans = median(&traced.low.fresh_latencies());
    o.set("trace.wall_s", traced_wall);
    o.set("trace.overhead_ratio", ratio(with_spans - plain, plain));
    o.set(
        "trace.uncovered_ratio",
        ratio(traced_wall - spans.root_ns() as f64 / 1e9, traced_wall),
    );
    o.notes.extend(spans.table());
}
