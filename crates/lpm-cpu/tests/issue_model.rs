//! Differential oracle for the core's wakeup-driven issue: `Core` against
//! a dumb model whose issue stage walks the whole ROB from head to tail
//! every cycle, with no ready list, consumer chain, counter or memo.
//! Every cycle must make the same memory-port calls
//! `(now, seq, addr, is_store)` and leave the same `CoreStats`; `Core::can_act` must say whether the model's cycle
//! does anything. Inputs: random traces with dependences, loads and
//! stores; a port that rejects pseudo-randomly; random `reconfigure`
//! calls that may shrink the issue window, ROB and store buffer below
//! their current occupancy.

use std::collections::VecDeque;

use lpm_cpu::{Core, CoreConfig, CoreStats, MemoryPort};
use lpm_trace::{Instr, Op, Trace};
use proptest::prelude::*;

/// SplitMix64, the test's own stream for port decisions, latencies and
/// reconfiguration draws.
#[derive(Debug, Clone)]
struct Mix(u64);

impl Mix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `lo..hi`.
    fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next() % (hi - lo)
    }
}

/// A port that logs every call, rejects `reject_pct`% of them, and
/// completes accepted accesses after a pseudo-random latency. Its
/// decisions depend only on the sequence of calls, so two ports built
/// alike answer alike for as long as their callers agree.
#[derive(Debug, Clone)]
struct LoggingPort {
    rng: Mix,
    reject_pct: u64,
    max_latency: u64,
    calls: Vec<(u64, u64, u64, bool)>,
    pending: Vec<(u64, u64)>, // (done_at, id)
}

impl LoggingPort {
    /// Ids whose accesses complete at or before `now`, in issue order.
    fn take_due(&mut self, now: u64) -> Vec<u64> {
        let due = self
            .pending
            .iter()
            .filter(|&&(t, _)| t <= now)
            .map(|&(_, id)| id)
            .collect();
        self.pending.retain(|&(t, _)| t > now);
        due
    }
}

impl MemoryPort for LoggingPort {
    fn try_access(&mut self, now: u64, id: u64, addr: u64, is_store: bool) -> bool {
        self.calls.push((now, id, addr, is_store));
        if self.rng.range(0, 100) < self.reject_pct {
            return false;
        }
        let latency = self.rng.range(1, self.max_latency + 1);
        self.pending.push((now + latency, id));
        true
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum St {
    Waiting,
    Executing(u64),
    WaitingMem,
    Done,
}

#[derive(Debug, Clone, Copy)]
struct Entry {
    seq: u64,
    op: Op,
    dep: Option<u64>,
    st: St,
}

/// The core as a specification: retire, complete, issue and dispatch by
/// walking the whole ROB.
struct Model {
    cfg: CoreConfig,
    trace: Vec<Instr>,
    total: usize,
    next: usize,
    rob: VecDeque<Entry>,
    outstanding: u64,
    posted: Vec<u64>,
    stats: CoreStats,
}

impl Model {
    fn new(cfg: CoreConfig, trace: &Trace, repeats: u32) -> Self {
        Model {
            cfg,
            trace: trace.instrs().to_vec(),
            total: trace.len() * repeats as usize,
            next: 0,
            rob: VecDeque::new(),
            outstanding: 0,
            posted: Vec::new(),
            stats: CoreStats::default(),
        }
    }

    fn finished(&self) -> bool {
        self.next == self.total && self.rob.is_empty()
    }

    fn complete_mem(&mut self, id: u64) {
        if let Some(i) = self.posted.iter().position(|&p| p == id) {
            self.posted.remove(i);
            self.outstanding -= 1;
            return;
        }
        if let Some(e) = self
            .rob
            .iter_mut()
            .find(|e| e.seq == id && e.st == St::WaitingMem)
        {
            e.st = St::Done;
            self.outstanding -= 1;
        }
    }

    /// A producer not in the ROB has retired.
    fn ready(&self, dep: Option<u64>) -> bool {
        dep.is_none_or(|d| {
            self.rob
                .iter()
                .find(|e| e.seq == d)
                .is_none_or(|e| e.st == St::Done)
        })
    }

    fn waiting(&self) -> usize {
        self.rob.iter().filter(|e| e.st == St::Waiting).count()
    }

    /// One cycle; returns whether anything happened beyond the stall
    /// bookkeeping (a completion, retirement, port attempt, issue or
    /// dispatch).
    fn cycle(&mut self, now: u64, port: &mut LoggingPort) -> bool {
        let cfg = self.cfg;
        self.stats.cycles += 1;

        let mut compute_done = false;
        for e in self.rob.iter_mut() {
            if matches!(e.st, St::Executing(t) if t <= now) {
                e.st = St::Done;
                compute_done = true;
            }
        }

        let mut retired = 0;
        while retired < cfg.issue_width && self.rob.front().is_some_and(|e| e.st == St::Done) {
            let Some(e) = self.rob.pop_front() else { break };
            self.stats.retired += 1;
            if e.op.is_mem() {
                self.stats.mem_retired += 1;
            }
            retired += 1;
        }

        let (mut issued, mut considered) = (0, 0);
        for i in 0..self.rob.len() {
            if issued >= cfg.issue_width || considered >= cfg.iw_size {
                break;
            }
            let e = self.rob[i];
            if e.st != St::Waiting {
                continue;
            }
            considered += 1;
            if !self.ready(e.dep) {
                continue;
            }
            match e.op {
                Op::Compute => {
                    self.rob[i].st = St::Executing(now + cfg.compute_latency);
                    issued += 1;
                }
                Op::Load(addr) | Op::Store(addr) => {
                    let is_store = matches!(e.op, Op::Store(_));
                    if is_store && self.posted.len() >= cfg.store_buffer as usize {
                        continue;
                    }
                    issued += 1;
                    if port.try_access(now, e.seq, addr, is_store) {
                        self.outstanding += 1;
                        self.stats.mem_issued += 1;
                        self.rob[i].st = if is_store {
                            self.posted.push(e.seq);
                            St::Done
                        } else {
                            St::WaitingMem
                        };
                    } else {
                        self.stats.mem_rejects += 1;
                    }
                }
            }
        }

        let mut dispatched = 0;
        while dispatched < cfg.issue_width
            && self.rob.len() < cfg.rob_size as usize
            && self.waiting() < cfg.iw_size as usize
            && self.next < self.total
        {
            let instr = self.trace[self.next % self.trace.len()];
            let seq = self.next as u64;
            let dep = (instr.dep > 0 && instr.dep as u64 <= seq).then(|| seq - instr.dep as u64);
            self.rob.push_back(Entry {
                seq,
                op: instr.op,
                dep,
                st: St::Waiting,
            });
            self.next += 1;
            dispatched += 1;
        }

        let head_waiting_mem = self.rob.front().is_some_and(|e| e.st == St::WaitingMem);
        if retired == 0 && head_waiting_mem {
            self.stats.data_stall_cycles += 1;
        }
        if self.outstanding > 0 {
            self.stats.mem_busy_cycles += 1;
            if compute_done {
                self.stats.overlap_cycles += 1;
            }
        }
        compute_done || retired > 0 || issued > 0 || dispatched > 0
    }
}

/// Traces with dependences (up to 12 back), loads and stores over a
/// small address range.
fn arb_trace(max_len: usize) -> impl Strategy<Value = Trace> {
    proptest::collection::vec((0u8..5, 0u64..64, 0u32..13), 1..max_len).prop_map(|spec| {
        spec.into_iter()
            .enumerate()
            .map(|(i, (kind, addr, dep))| {
                let op = match kind {
                    0 | 1 => Op::Compute,
                    2 | 3 => Op::Load(addr * 64),
                    _ => Op::Store(addr * 64),
                };
                let dep = if dep as usize <= i { dep } else { 0 };
                Instr { op, dep }
            })
            .collect()
    })
}

/// A random valid configuration; structures start small enough that
/// shrinks and stalls are common.
fn draw_config(rng: &mut Mix) -> CoreConfig {
    CoreConfig {
        issue_width: rng.range(1, 9) as u32,
        iw_size: rng.range(1, 40) as u32,
        rob_size: rng.range(1, 64) as u32,
        compute_latency: rng.range(1, 5),
        store_buffer: rng.range(1, 10) as u32,
    }
}

/// Runs `Core` and the model in lockstep and returns the first
/// disagreement.
fn lockstep(
    trace: Trace,
    repeats: u32,
    seed: u64,
    reject_pct: u64,
    max_latency: u64,
    reconfig_pct: u64,
) -> Result<(), String> {
    let mut draws = Mix(seed);
    let cfg = draw_config(&mut draws);
    let mut model = Model::new(cfg, &trace, repeats);
    let limit = 1_000 + model.total as u64 * (max_latency + 8) * 4;
    let mut core = Core::new_looping(cfg, trace, repeats);
    let mut core_port = LoggingPort {
        rng: Mix(seed ^ 0xA5A5),
        reject_pct,
        max_latency,
        calls: Vec::new(),
        pending: Vec::new(),
    };
    let mut model_port = core_port.clone();
    for now in 0..limit {
        let due = core_port.take_due(now);
        if due != model_port.take_due(now) {
            return Err(format!("cycle {now}: completions diverge"));
        }
        for &id in &due {
            core.complete_mem(id);
            model.complete_mem(id);
        }
        if draws.range(0, 100) < reconfig_pct {
            let cfg = draw_config(&mut draws);
            core.reconfigure(cfg);
            model.cfg = cfg;
        }
        // Poll on most cycles, so the idle memo is set and reused.
        let verdict = (draws.range(0, 4) > 0).then(|| core.can_act(now));
        core.cycle(now, &mut core_port);
        let acted = model.cycle(now, &mut model_port);
        if core_port.calls != model_port.calls {
            return Err(format!(
                "cycle {now} ({:?}): port calls {:?} != model {:?}",
                core.config(),
                core_port.calls,
                model_port.calls
            ));
        }
        if *core.stats() != model.stats {
            return Err(format!(
                "cycle {now}: stats {:?} != model {:?}",
                core.stats(),
                model.stats
            ));
        }
        if verdict.is_some_and(|v| v != acted) {
            return Err(format!(
                "cycle {now}: can_act said {verdict:?}, model acted: {acted}"
            ));
        }
        core_port.calls.clear();
        model_port.calls.clear();
        if core.finished() != model.finished() {
            return Err(format!("cycle {now}: finished flags diverge"));
        }
        if core.finished() {
            return Ok(());
        }
    }
    Err(format!("neither side finished within {limit} cycles"))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]
    /// Wakeup-driven issue decides exactly as a head-to-tail ROB walk,
    /// cycle by cycle, under port rejections and runtime reconfiguration.
    #[test]
    fn wakeup_issue_matches_rob_walk_model(
        trace in arb_trace(160),
        repeats in 1u32..3,
        seed in any::<u64>(),
        reject_pct in 0u64..60,
        max_latency in 1u64..30,
        reconfig_pct in 0u64..8,
    ) {
        lockstep(trace, repeats, seed, reject_pct, max_latency, reconfig_pct)?;
    }
}
