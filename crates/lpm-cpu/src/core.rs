//! The out-of-order engine: dispatch → issue → execute → retire.

use std::collections::VecDeque;

use lpm_trace::{Op, Trace};

use crate::port::MemoryPort;

/// Sizing of the out-of-order structures (the Table I core-side knobs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CoreConfig {
    /// Instructions dispatched / issued / retired per cycle.
    pub issue_width: u32,
    /// Issue-window entries: un-issued instructions eligible for
    /// wakeup/select each cycle.
    pub iw_size: u32,
    /// Reorder-buffer entries.
    pub rob_size: u32,
    /// Execution latency of compute instructions, cycles.
    pub compute_latency: u64,
    /// Store-buffer entries: posted stores in flight to memory. A store
    /// retires as soon as it issues, but it occupies a buffer slot until
    /// its write completes — bounding how far stores can run ahead.
    pub store_buffer: u32,
}

impl CoreConfig {
    /// The paper's configuration A core side: 4-wide, IW 32, ROB 32.
    pub fn small() -> Self {
        CoreConfig {
            issue_width: 4,
            iw_size: 32,
            rob_size: 32,
            compute_latency: 1,
            store_buffer: 32,
        }
    }

    /// A big core: 8-wide, IW 128, ROB 128 (configuration D).
    pub fn big() -> Self {
        CoreConfig {
            issue_width: 8,
            iw_size: 128,
            rob_size: 128,
            compute_latency: 1,
            store_buffer: 64,
        }
    }

    /// Validate structural constraints.
    pub fn validate(&self) {
        if let Err(msg) = self.try_validate() {
            // lpm-lint: allow(P001) documented panicking wrapper; fallible callers use try_validate
            panic!("{msg}");
        }
    }

    /// Validate structural constraints, returning a descriptive message
    /// on violation instead of panicking.
    pub fn try_validate(&self) -> Result<(), String> {
        if self.issue_width < 1 {
            return Err("issue width must be >= 1".into());
        }
        if self.iw_size < 1 {
            return Err("issue window must hold an instruction".into());
        }
        if self.rob_size < 1 {
            return Err("ROB must hold an instruction".into());
        }
        if self.compute_latency < 1 {
            return Err("compute latency must be >= 1".into());
        }
        if self.store_buffer < 1 {
            return Err("store buffer must hold an entry".into());
        }
        Ok(())
    }
}

/// Execution state of a ROB entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum State {
    /// Not yet issued (waiting for its producer or an issue slot). Once
    /// the producer is `Done` or retired its seq sits in `Core::ready`;
    /// until then it hangs on the producer's consumer chain.
    Waiting,
    /// Compute op executing; its completion cycle sits in
    /// `Core::executing`.
    Executing,
    /// Memory op in flight; completion arrives via `complete_mem`.
    WaitingMem,
    /// Finished; may retire when it reaches the ROB head.
    Done,
}

#[derive(Debug, Clone, Copy)]
struct RobEntry {
    seq: u64,
    op: Op,
    state: State,
    /// Newest consumer linked to this entry while it was not yet `Done`,
    /// as its distance in seqs (its `dep`; 0: none): the head of an
    /// intrusive list threaded through `next_consumer`. Taken, and its
    /// members woken, when this entry becomes `Done`. Distances rather
    /// than seqs keep the entry small.
    first_consumer: u32,
    /// The next-older consumer of this entry's producer, as its distance
    /// in seqs from that producer (0: none).
    next_consumer: u32,
}

/// The producer of instruction `seq`: the one `dep` instructions before
/// it, when the trace names one (`dep > 0`) that exists.
fn producer(seq: u64, dep: u32) -> Option<u64> {
    (dep > 0 && u64::from(dep) <= seq).then(|| seq - u64::from(dep))
}

/// Measured core-side quantities.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CoreStats {
    /// Cycles simulated.
    pub cycles: u64,
    /// Instructions retired.
    pub retired: u64,
    /// Memory instructions retired.
    pub mem_retired: u64,
    /// Cycles with zero retirement while the ROB head waited on memory.
    pub data_stall_cycles: u64,
    /// Cycles with at least one memory access outstanding.
    pub mem_busy_cycles: u64,
    /// Memory-busy cycles during which computation still made progress
    /// (≥ 1 non-memory instruction completed execution) — the numerator
    /// of Eq. (8).
    pub overlap_cycles: u64,
    /// Memory accesses issued to the port.
    pub mem_issued: u64,
    /// Issue attempts rejected by the memory port.
    pub mem_rejects: u64,
}

impl CoreStats {
    /// Instructions per cycle.
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.retired as f64 / self.cycles as f64
        }
    }

    /// Cycles per instruction.
    pub fn cpi(&self) -> f64 {
        if self.retired == 0 {
            0.0
        } else {
            self.cycles as f64 / self.retired as f64
        }
    }

    /// Measured memory-instruction fraction.
    pub fn fmem(&self) -> f64 {
        if self.retired == 0 {
            0.0
        } else {
            self.mem_retired as f64 / self.retired as f64
        }
    }

    /// Eq. (8): computing/memory overlap ratio.
    pub fn overlap_ratio(&self) -> f64 {
        if self.mem_busy_cycles == 0 {
            0.0
        } else {
            self.overlap_cycles as f64 / self.mem_busy_cycles as f64
        }
    }

    /// Data stall cycles per retired instruction.
    pub fn stall_per_instruction(&self) -> f64 {
        if self.retired == 0 {
            0.0
        } else {
            self.data_stall_cycles as f64 / self.retired as f64
        }
    }
}

/// The out-of-order core.
#[derive(Debug)]
pub struct Core {
    cfg: CoreConfig,
    trace: Trace,
    next_dispatch: usize,
    /// `next_dispatch % trace.len()`, maintained incrementally so the
    /// dispatch loop never divides.
    trace_cursor: usize,
    /// Total instructions to execute: `trace.len() × repeats`.
    total_instructions: usize,
    rob: VecDeque<RobEntry>,
    /// Outstanding memory accesses (issued, not yet completed).
    outstanding_mem: u64,
    /// Ids of posted stores whose writes are still in flight. Bounded by
    /// `cfg.store_buffer` (small), so a plain vector with linear
    /// membership tests beats a tree and never reallocates once warm.
    posted_stores: Vec<u64>,
    stats: CoreStats,
    /// Non-memory instructions that finished execution this cycle
    /// (overlap bookkeeping).
    compute_done_this_cycle: bool,
    /// `(done_at, seq)` of every `Executing` ROB entry — a small mirror
    /// so per-cycle completion checks touch only in-flight computes
    /// instead of scanning the whole ROB.
    executing: Vec<(u64, u64)>,
    /// Earliest `done_at` across `executing` (`u64::MAX` when none are
    /// in flight). Updated at issue, recomputed when completions drain —
    /// turns the per-cycle "anything due?" checks into one comparison.
    exec_min_done: u64,
    /// Seqs of the `State::Waiting` entries whose producer is `Done` or
    /// retired, in ascending order. Dispatch appends an entry that is
    /// ready at once; the rest join when their producer becomes `Done`
    /// (compute completion, a load's [`Core::complete_mem`], a store's
    /// issue). Issue and [`Core::can_act`] walk only this list, never a
    /// dependence-blocked entry.
    ready: Vec<u64>,
    /// Number of `State::Waiting` entries: the issue window's occupancy.
    waiting: usize,
    /// Memoized idle verdict: `true` means the *state-based* clauses of
    /// [`Core::can_act`] (retirable head, issuable ready entry,
    /// dispatch room) were checked and found false, and no state has
    /// changed since. Those clauses do not depend on the cycle number,
    /// so the verdict stays valid until an event mutates the core: a
    /// compute completion, retirement, issue attempt, dispatch, an
    /// external [`Core::complete_mem`], or a [`Core::reconfigure`] —
    /// each of which clears the flag. Only the time-based
    /// executing-completion clause is rechecked while the flag is set.
    idle_memo: std::cell::Cell<bool>,
}

impl Core {
    /// Build a core that will execute `trace` once.
    pub fn new(cfg: CoreConfig, trace: Trace) -> Self {
        Self::new_looping(cfg, trace, 1)
    }

    /// Build a core that executes `trace` `repeats` times back to back
    /// (rate-mode steady state: the address stream and dependence
    /// structure repeat, the cache state persists across laps). Used by
    /// the scheduling study, where cores progress at wildly different
    /// speeds and none may run dry during another's measurement window.
    pub fn new_looping(cfg: CoreConfig, trace: Trace, repeats: u32) -> Self {
        cfg.validate();
        assert!(repeats >= 1, "need at least one pass over the trace");
        let total_instructions = trace.len() * repeats as usize;
        Core {
            cfg,
            trace,
            next_dispatch: 0,
            trace_cursor: 0,
            total_instructions,
            rob: VecDeque::with_capacity(cfg.rob_size as usize),
            outstanding_mem: 0,
            posted_stores: Vec::new(),
            stats: CoreStats::default(),
            compute_done_this_cycle: false,
            executing: Vec::new(),
            exec_min_done: u64::MAX,
            ready: Vec::with_capacity(cfg.iw_size as usize),
            waiting: 0,
            idle_memo: std::cell::Cell::new(false),
        }
    }

    /// The core configuration.
    pub fn config(&self) -> &CoreConfig {
        &self.cfg
    }

    /// Measured statistics so far.
    pub fn stats(&self) -> &CoreStats {
        &self.stats
    }

    /// Zero the measured statistics (warmup exclusion). Architectural
    /// state — ROB contents, trace position, outstanding accesses — is
    /// untouched, so measurement resumes mid-execution, exactly like
    /// resetting hardware performance counters.
    pub fn reset_stats(&mut self) {
        self.stats = CoreStats::default();
    }

    /// Reconfigure the out-of-order structures at runtime (the
    /// reconfigurable-architecture support of case study I). Growing takes
    /// effect immediately. Shrinking is graceful: in-flight instructions
    /// stay in the ROB and dispatch simply pauses until occupancy drops
    /// below the new size — modelling the short drain a real
    /// reconfiguration would require.
    pub fn reconfigure(&mut self, cfg: CoreConfig) {
        cfg.validate();
        self.cfg = cfg;
        // Grown structures (ROB, issue window, store buffer) can make a
        // previously inert core actionable again.
        self.idle_memo.set(false);
    }

    /// Whether the whole trace (all repeats) has been dispatched and
    /// retired.
    pub fn finished(&self) -> bool {
        self.next_dispatch == self.total_instructions && self.rob.is_empty()
    }

    /// Instructions retired so far.
    pub fn retired(&self) -> u64 {
        self.stats.retired
    }

    /// ROB entries currently occupied (for telemetry's occupancy
    /// sampling).
    pub fn rob_occupancy(&self) -> usize {
        self.rob.len()
    }

    /// Configured ROB capacity (for cycle-attribution profiling: a full
    /// ROB is a dispatch stall).
    pub fn rob_capacity(&self) -> usize {
        self.cfg.rob_size as usize
    }

    /// Debug summary of the ROB head: (seq, state description, outstanding
    /// memory accesses). For deadlock diagnostics.
    pub fn head_debug(&self) -> String {
        match self.rob.front() {
            None => format!("rob empty, next_dispatch={}", self.next_dispatch),
            Some(e) => format!(
                "head seq={} op={:?} state={:?} outstanding_mem={}",
                e.seq, e.op, e.state, self.outstanding_mem
            ),
        }
    }

    /// Deliver a memory completion for instruction `id` (the sequence
    /// number passed to the port): a posted store's write landing or a
    /// load's data arriving. Unknown ids are ignored and change nothing.
    pub fn complete_mem(&mut self, id: u64) {
        if let Some(i) = self.posted_stores.iter().position(|&p| p == id) {
            // A posted store's write landed; nothing waits on it, but its
            // store-buffer slot may unblock a ready store.
            self.posted_stores.swap_remove(i);
            self.outstanding_mem -= 1;
            self.idle_memo.set(false);
            return;
        }
        let Some(head_seq) = self.rob.front().map(|e| e.seq) else {
            return;
        };
        let idx = id.wrapping_sub(head_seq) as usize;
        if self
            .rob
            .get(idx)
            .is_none_or(|e| e.state != State::WaitingMem)
        {
            return;
        }
        self.rob[idx].state = State::Done;
        self.outstanding_mem -= 1;
        self.wake_consumers(idx, head_seq, 0);
        // The load may retire or have readied consumers: any cached idle
        // verdict is stale.
        self.idle_memo.set(false);
        self.debug_check_wakeup();
    }

    /// The entry at ROB index `idx` just became `Done`: move every
    /// consumer on its chain into `ready`, each at its seq position
    /// within `ready[from..]` (issue passes the unexamined part of the
    /// list it is walking, so a store's consumers are selected later in
    /// the same cycle).
    #[inline]
    fn wake_consumers(&mut self, idx: usize, head_seq: u64, from: usize) {
        let producer_seq = self.rob[idx].seq;
        let mut dist = std::mem::take(&mut self.rob[idx].first_consumer);
        while dist != 0 {
            let seq = producer_seq + u64::from(dist);
            let e = &self.rob[(seq - head_seq) as usize];
            debug_assert_eq!(
                e.state,
                State::Waiting,
                "woken consumer {seq} already issued"
            );
            dist = e.next_consumer;
            let at = from + self.ready[from..].partition_point(|&s| s < seq);
            self.ready.insert(at, seq);
        }
    }

    /// Debug-build invariant: `ready` holds exactly the seqs of the
    /// `Waiting` entries whose producer is `Done` or retired, in
    /// ascending order, and `waiting` counts every `Waiting` entry.
    fn debug_check_wakeup(&self) {
        let head_seq = self.rob.front().map_or(0, |e| e.seq);
        let producer_done =
            |d: u64| d < head_seq || self.rob[(d - head_seq) as usize].state == State::Done;
        let waiting = self.rob.iter().filter(|e| e.state == State::Waiting);
        debug_assert!(
            waiting
                .clone()
                .filter(|e| {
                    let instr = self.trace.instrs()[(e.seq % self.trace.len() as u64) as usize];
                    producer(e.seq, instr.dep).is_none_or(producer_done)
                })
                .map(|e| e.seq)
                .eq(self.ready.iter().copied()),
            "ready list {:?} out of step with the ROB",
            self.ready
        );
        debug_assert_eq!(self.waiting, waiting.count(), "waiting count out of step");
    }

    /// Whether `op` is a store facing a full store buffer: it stalls in
    /// the window without using an issue slot.
    #[inline]
    fn store_blocked(&self, op: Op) -> bool {
        matches!(op, Op::Store(_)) && self.posted_stores.len() >= self.cfg.store_buffer as usize
    }

    /// The seq of the issue window's last entry: the `iw_size`-th
    /// `Waiting` entry in ROB order, or `u64::MAX` when all of them fit.
    /// Dispatch stops at `iw_size` Waiting entries, so only a shrinking
    /// [`Core::reconfigure`] leaves some outside the window, and only
    /// then does this scan the ROB.
    fn window_end(&self) -> u64 {
        let iw_size = self.cfg.iw_size as usize;
        if self.waiting <= iw_size {
            return u64::MAX;
        }
        self.rob
            .iter()
            .filter(|e| e.state == State::Waiting)
            .nth(iw_size - 1)
            .map_or(u64::MAX, |e| e.seq)
    }

    /// Whether [`Core::cycle`] at `now` could do anything beyond the
    /// per-cycle stall bookkeeping: complete an executing op, retire,
    /// issue (or even *attempt* the memory port — a rejection mutates
    /// `mem_rejects`), or dispatch. When this is `false` the cycle is
    /// provably inert and may be coalesced into a span whose stats are
    /// applied by [`Core::skip_idle_span`].
    ///
    /// The one deliberate exclusion matches the issue stage: a ready
    /// store blocked on a full store buffer is skipped there without
    /// touching any persistent state, so it does not make a cycle
    /// actionable (and the buffer cannot drain without an external
    /// completion, which ends the span at the CMP level anyway).
    pub fn can_act(&self, now: u64) -> bool {
        // Step 1/2: an executing op completing, or a retirable head.
        if self.exec_min_done <= now {
            return true;
        }
        if self.idle_memo.get() {
            // State-based clauses were false and nothing has changed
            // since; only the (just-checked) time clause could differ.
            return false;
        }
        if matches!(self.rob.front(), Some(e) if e.state == State::Done) {
            return true;
        }
        // Step 3: the first ready entry that is not a blocked store
        // issues a compute or attempts the port, if it is inside the
        // issue window.
        let head_seq = self.rob.front().map_or(0, |e| e.seq);
        if self
            .ready
            .iter()
            .find(|&&seq| !self.store_blocked(self.rob[(seq - head_seq) as usize].op))
            .is_some_and(|&seq| seq <= self.window_end())
        {
            return true;
        }
        // Step 4: dispatch possible.
        let dispatchable = self.rob.len() < self.cfg.rob_size as usize
            && self.waiting < self.cfg.iw_size as usize
            && self.next_dispatch < self.total_instructions;
        if !dispatchable {
            // Every state-based clause is false: cache the verdict so
            // repeated polls while other components stay busy are O(1).
            self.idle_memo.set(true);
        }
        dispatchable
    }

    /// Earliest future cycle at which this core changes state on its
    /// own: the soonest `Executing` completion. Memory completions are
    /// external events the caller tracks separately. `None` when the
    /// core is waiting purely on outside input.
    pub fn next_event(&self) -> Option<u64> {
        if self.exec_min_done == u64::MAX {
            None
        } else {
            Some(self.exec_min_done)
        }
    }

    /// Apply the stats of `k` provably-inert cycles (each a cycle where
    /// [`Core::can_act`] was `false`) in one shot — exactly what `k`
    /// calls to [`Core::cycle`] would have recorded: no retirement, no
    /// compute completion (so never an overlap cycle), just the stall
    /// and memory-busy bookkeeping.
    pub fn skip_idle_span(&mut self, k: u64) {
        self.stats.cycles += k;
        if self
            .rob
            .front()
            .is_some_and(|e| e.state == State::WaitingMem)
        {
            self.stats.data_stall_cycles += k;
        }
        if self.outstanding_mem > 0 {
            self.stats.mem_busy_cycles += k;
        }
    }

    /// Run one cycle: retire, complete, issue, dispatch.
    ///
    /// `mem` is the memory the core issues loads/stores into; completions
    /// must be delivered through [`Core::complete_mem`] by the caller
    /// (before or after `cycle`, consistently).
    pub fn cycle(&mut self, now: u64, mem: &mut dyn MemoryPort) {
        // Inert-cycle short circuit: a cached idle verdict (set by
        // [`Core::can_act`], cleared by any event) plus no executing op
        // due means this cycle is provably a no-op beyond the stall
        // bookkeeping — the same proof the span skipper relies on,
        // applied one cycle at a time. Never taken under reference
        // stepping, which polls no verdicts and so keeps the memo
        // false and every cycle fully simulated.
        if self.idle_memo.get() && self.exec_min_done > now {
            self.compute_done_this_cycle = false;
            self.skip_idle_span(1);
            return;
        }
        self.stats.cycles += 1;
        self.compute_done_this_cycle = false;

        // 1. Complete executing compute ops (tracked in the small
        // `executing` mirror; entries in it never retire before they
        // complete, so their seq→index mapping stays valid) and wake
        // their consumers.
        if self.exec_min_done <= now {
            let head_seq = self.rob.front().map_or(0, |e| e.seq);
            let mut i = 0;
            while i < self.executing.len() {
                let (done_at, seq) = self.executing[i];
                if done_at <= now {
                    let idx = (seq - head_seq) as usize;
                    self.rob[idx].state = State::Done;
                    self.wake_consumers(idx, head_seq, 0);
                    self.compute_done_this_cycle = true;
                    self.executing.swap_remove(i);
                } else {
                    i += 1;
                }
            }
            self.exec_min_done = self
                .executing
                .iter()
                .map(|&(done_at, _)| done_at)
                .min()
                .unwrap_or(u64::MAX);
        }

        // 2. Retire in order.
        let mut retired_this_cycle = 0u32;
        while retired_this_cycle < self.cfg.issue_width {
            if !matches!(self.rob.front(), Some(e) if e.state == State::Done) {
                break;
            }
            let Some(e) = self.rob.pop_front() else { break };
            self.stats.retired += 1;
            if e.op.is_mem() {
                self.stats.mem_retired += 1;
            }
            retired_this_cycle += 1;
        }

        // 3. Issue: walk the ready list in seq order up to the window's
        // last entry and attempt up to `issue_width` of them (a port
        // reject uses its slot; a blocked store does not). Entries that
        // stay Waiting are compacted to the front of the examined prefix;
        // issued ones leave it. A store is `Done` once issued, so its
        // consumers join the unexamined rest of the list and may issue
        // in this same walk.
        let head_seq = self.rob.front().map_or(0, |e| e.seq);
        let window_end = self.window_end();
        let mut issued = 0u32;
        let mut examined = 0usize;
        let mut kept = 0usize;
        while examined < self.ready.len() && issued < self.cfg.issue_width {
            let seq = self.ready[examined];
            if seq > window_end {
                break;
            }
            examined += 1;
            let idx = (seq - head_seq) as usize;
            let op = self.rob[idx].op;
            if self.store_blocked(op) {
                self.ready[kept] = seq;
                kept += 1;
                continue;
            }
            // Accepted or not, the attempt uses a slot.
            issued += 1;
            self.rob[idx].state = match op {
                Op::Compute => {
                    let done_at = now + self.cfg.compute_latency;
                    self.executing.push((done_at, seq));
                    self.exec_min_done = self.exec_min_done.min(done_at);
                    State::Executing
                }
                Op::Load(addr) | Op::Store(addr) => {
                    let is_store = matches!(op, Op::Store(_));
                    if !mem.try_access(now, seq, addr, is_store) {
                        self.stats.mem_rejects += 1;
                        self.ready[kept] = seq;
                        kept += 1;
                        continue;
                    }
                    self.outstanding_mem += 1;
                    self.stats.mem_issued += 1;
                    // Stores are posted: they drain through a write
                    // buffer and never block retirement. Loads wait for
                    // their data.
                    if is_store {
                        self.posted_stores.push(seq);
                        self.wake_consumers(idx, head_seq, examined);
                        State::Done
                    } else {
                        State::WaitingMem
                    }
                }
            };
            self.waiting -= 1;
        }
        self.ready.drain(kept..examined);

        // 4. Dispatch from the trace into the ROB. An entry whose
        // producer is still in flight joins that producer's consumer
        // chain; any other is ready at once, and as the youngest entry
        // it belongs at the end of `ready`.
        let mut dispatched = 0u32;
        let head_seq = self
            .rob
            .front()
            .map_or(self.next_dispatch as u64, |e| e.seq);
        while dispatched < self.cfg.issue_width
            && self.rob.len() < self.cfg.rob_size as usize
            && self.waiting < self.cfg.iw_size as usize
            && self.next_dispatch < self.total_instructions
        {
            let i = self.trace.instrs()[self.trace_cursor];
            self.trace_cursor += 1;
            if self.trace_cursor == self.trace.len() {
                self.trace_cursor = 0;
            }
            let seq = self.next_dispatch as u64;
            let in_flight = producer(seq, i.dep)
                .filter(|&d| d >= head_seq)
                .map(|d| &mut self.rob[(d - head_seq) as usize])
                .filter(|p| p.state != State::Done);
            let next_consumer = match in_flight {
                Some(p) => std::mem::replace(&mut p.first_consumer, i.dep),
                None => {
                    self.ready.push(seq);
                    0
                }
            };
            self.rob.push_back(RobEntry {
                seq,
                op: i.op,
                state: State::Waiting,
                first_consumer: 0,
                next_consumer,
            });
            self.waiting += 1;
            self.next_dispatch += 1;
            dispatched += 1;
        }

        // The events above are exactly what can invalidate a cached
        // idle verdict; an eventless cycle leaves it untouched.
        if self.compute_done_this_cycle || retired_this_cycle > 0 || issued > 0 || dispatched > 0 {
            self.idle_memo.set(false);
        }

        // 5. Stall and overlap bookkeeping.
        let head_waiting_mem = self
            .rob
            .front()
            .is_some_and(|e| e.state == State::WaitingMem);
        if retired_this_cycle == 0 && head_waiting_mem {
            self.stats.data_stall_cycles += 1;
        }
        if self.outstanding_mem > 0 {
            self.stats.mem_busy_cycles += 1;
            if self.compute_done_this_cycle {
                self.stats.overlap_cycles += 1;
            }
        }
        self.debug_check_wakeup();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::port::PerfectMemory;
    use lpm_trace::Instr;

    /// Run a trace on a perfect memory; returns stats.
    fn run_perfect(cfg: CoreConfig, trace: Trace, latency: u64, limit: u64) -> CoreStats {
        let mut core = Core::new(cfg, trace);
        let mut mem = PerfectMemory::new(latency);
        for now in 0..limit {
            for id in mem.take_completions(now) {
                core.complete_mem(id);
            }
            core.cycle(now, &mut mem);
            if core.finished() {
                break;
            }
        }
        assert!(core.finished(), "core did not finish within {limit} cycles");
        *core.stats()
    }

    #[test]
    fn independent_computes_reach_full_width() {
        // 4-wide core, 400 independent computes: IPC approaches 4.
        let trace: Trace = (0..400).map(|_| Instr::compute()).collect();
        let s = run_perfect(CoreConfig::small(), trace, 1, 10_000);
        assert_eq!(s.retired, 400);
        assert!(s.ipc() > 3.0, "ipc {}", s.ipc());
    }

    #[test]
    fn dependence_chain_serializes() {
        // Every compute depends on the previous one: IPC near
        // 1/compute_latency regardless of width.
        let trace: Trace = (0..300)
            .map(|i| {
                let instr = Instr::compute();
                if i > 0 {
                    instr.depending_on(1)
                } else {
                    instr
                }
            })
            .collect();
        let s = run_perfect(CoreConfig::big(), trace, 1, 10_000);
        assert!(s.ipc() < 1.2, "ipc {}", s.ipc());
    }

    #[test]
    fn rob_size_one_is_effectively_in_order() {
        let cfg = CoreConfig {
            issue_width: 4,
            iw_size: 1,
            rob_size: 1,
            compute_latency: 1,
            store_buffer: 32,
        };
        let trace: Trace = (0..100).map(|_| Instr::compute()).collect();
        let s = run_perfect(cfg, trace, 1, 10_000);
        // One instruction per dispatch-issue-retire round.
        assert!(s.ipc() <= 0.5, "ipc {}", s.ipc());
    }

    #[test]
    fn fmem_measured() {
        let trace: Trace = (0..200)
            .map(|i| {
                if i % 4 == 0 {
                    Instr::load((i as u64) * 64)
                } else {
                    Instr::compute()
                }
            })
            .collect();
        let s = run_perfect(CoreConfig::small(), trace, 2, 20_000);
        assert!((s.fmem() - 0.25).abs() < 1e-9);
        assert_eq!(s.mem_issued, 50);
    }

    #[test]
    fn independent_loads_overlap_in_memory() {
        // Loads with a long latency but no dependences: the core keeps
        // many in flight, so total cycles << serial latency sum.
        let n = 64u64;
        let lat = 50u64;
        let trace: Trace = (0..n).map(|i| Instr::load(i * 64)).collect();
        let s = run_perfect(CoreConfig::big(), trace, lat, 100_000);
        assert!(s.cycles < n * lat / 4, "cycles {} suggest no MLP", s.cycles);
    }

    #[test]
    fn dependent_loads_serialize_in_memory() {
        let n = 32u64;
        let lat = 50u64;
        let trace: Trace = (0..n)
            .map(|i| {
                let l = Instr::load(i * 64);
                if i > 0 {
                    l.depending_on(1)
                } else {
                    l
                }
            })
            .collect();
        let s = run_perfect(CoreConfig::big(), trace, lat, 100_000);
        assert!(
            s.cycles > n * lat,
            "cycles {} suggest impossible overlap",
            s.cycles
        );
    }

    #[test]
    fn small_rob_limits_mlp() {
        let n = 64u64;
        let lat = 50u64;
        let trace: Trace = (0..n).map(|i| Instr::load(i * 64)).collect();
        let small = run_perfect(
            CoreConfig {
                issue_width: 4,
                iw_size: 4,
                rob_size: 4,
                compute_latency: 1,
                store_buffer: 32,
            },
            trace.clone(),
            lat,
            100_000,
        );
        let big = run_perfect(CoreConfig::big(), trace, lat, 100_000);
        assert!(
            small.cycles > big.cycles * 2,
            "small {} vs big {}",
            small.cycles,
            big.cycles
        );
    }

    #[test]
    fn data_stall_counted_when_head_waits() {
        // A single long-latency load followed by nothing else: most
        // cycles are data stalls.
        let trace: Trace = std::iter::once(Instr::load(0)).collect();
        let s = run_perfect(CoreConfig::small(), trace, 100, 10_000);
        assert!(s.data_stall_cycles >= 99, "stalls {}", s.data_stall_cycles);
    }

    #[test]
    fn overlap_ratio_high_for_mixed_independent_work() {
        // Loads interleaved with independent computes: computation
        // proceeds while memory is busy → high overlap ratio.
        let trace: Trace = (0..400)
            .map(|i| {
                if i % 8 == 0 {
                    Instr::load((i as u64) * 64)
                } else {
                    Instr::compute()
                }
            })
            .collect();
        let s = run_perfect(CoreConfig::big(), trace, 20, 100_000);
        assert!(s.overlap_ratio() > 0.5, "overlap {}", s.overlap_ratio());
    }

    #[test]
    fn overlap_ratio_low_for_pure_pointer_chase() {
        let trace: Trace = (0..100)
            .map(|i| {
                let l = Instr::load((i as u64) * 64);
                if i > 0 {
                    l.depending_on(1)
                } else {
                    l
                }
            })
            .collect();
        let s = run_perfect(CoreConfig::big(), trace, 30, 100_000);
        assert!(s.overlap_ratio() < 0.2, "overlap {}", s.overlap_ratio());
    }

    #[test]
    fn cpi_exe_reflects_issue_width() {
        let trace: Trace = (0..1000).map(|_| Instr::compute()).collect();
        let narrow = run_perfect(
            CoreConfig {
                issue_width: 1,
                iw_size: 32,
                rob_size: 32,
                compute_latency: 1,
                store_buffer: 32,
            },
            trace.clone(),
            1,
            100_000,
        );
        let wide = run_perfect(CoreConfig::big(), trace, 1, 100_000);
        assert!(narrow.cpi() > 0.9);
        assert!(wide.cpi() < narrow.cpi() / 2.0);
    }

    #[test]
    fn port_rejection_is_retried() {
        /// A port that rejects the first `n` attempts.
        struct Flaky {
            rejects_left: u32,
            inner: PerfectMemory,
        }
        impl MemoryPort for Flaky {
            fn try_access(&mut self, now: u64, id: u64, addr: u64, is_store: bool) -> bool {
                if self.rejects_left > 0 {
                    self.rejects_left -= 1;
                    return false;
                }
                self.inner.try_access(now, id, addr, is_store)
            }
        }
        let trace: Trace = std::iter::once(Instr::load(0)).collect();
        let mut core = Core::new(CoreConfig::small(), trace);
        let mut mem = Flaky {
            rejects_left: 3,
            inner: PerfectMemory::new(2),
        };
        for now in 0..100 {
            for id in mem.inner.take_completions(now) {
                core.complete_mem(id);
            }
            core.cycle(now, &mut mem);
            if core.finished() {
                break;
            }
        }
        assert!(core.finished());
        assert_eq!(core.stats().mem_rejects, 3);
        assert_eq!(core.stats().mem_issued, 1);
    }

    /// Shrinking the issue window below its occupancy: only the first
    /// `iw_size` Waiting entries attempt the port, and dispatch pauses
    /// until fewer than `iw_size` entries are Waiting.
    #[test]
    fn window_shrunk_below_occupancy_limits_issue_and_pauses_dispatch() {
        /// Records every attempt; rejects them all while closed.
        struct Gate {
            open: bool,
            attempts: Vec<(u64, u64)>,
            inner: PerfectMemory,
        }
        impl MemoryPort for Gate {
            fn try_access(&mut self, now: u64, id: u64, addr: u64, is_store: bool) -> bool {
                self.attempts.push((now, id));
                self.open && self.inner.try_access(now, id, addr, is_store)
            }
        }
        let trace: Trace = (0..40u64).map(|i| Instr::load(i * 64)).collect();
        let cfg = CoreConfig {
            issue_width: 4,
            iw_size: 16,
            rob_size: 32,
            compute_latency: 1,
            store_buffer: 32,
        };
        let mut core = Core::new(cfg, trace);
        // Completions are never delivered, so issued loads stay in the ROB.
        let mut mem = Gate {
            open: false,
            attempts: Vec::new(),
            inner: PerfectMemory::new(100),
        };
        // Runs `cycles`, returning the ROB occupancy after each.
        let step = |core: &mut Core, mem: &mut Gate, cycles: std::ops::Range<u64>| {
            mem.attempts.clear();
            cycles
                .map(|now| {
                    core.cycle(now, mem);
                    core.rob_occupancy()
                })
                .collect::<Vec<_>>()
        };
        // Behind a closed port the window fills with 16 Waiting loads.
        assert_eq!(step(&mut core, &mut mem, 0..5), [4, 8, 12, 16, 16]);

        // Shrunk to 2 with 16 Waiting: only seqs 0 and 1 try the port,
        // although the width allows 4, and nothing dispatches.
        core.reconfigure(CoreConfig { iw_size: 2, ..cfg });
        assert_eq!(step(&mut core, &mut mem, 5..8), [16, 16, 16]);
        assert_eq!(
            mem.attempts,
            [(5, 0), (5, 1), (6, 0), (6, 1), (7, 0), (7, 1)]
        );
        assert_eq!(core.stats().mem_rejects, 22);

        // Port open: the window drains two per cycle in ROB order, and
        // dispatch resumes only once the last old entry has issued.
        mem.open = true;
        assert_eq!(
            step(&mut core, &mut mem, 8..19),
            [16, 16, 16, 16, 16, 16, 16, 18, 20, 22, 24]
        );
        let expected: Vec<(u64, u64)> = (8..19)
            .flat_map(|t| [(t, 2 * (t - 8)), (t, 2 * (t - 8) + 1)])
            .collect();
        assert_eq!(mem.attempts, expected);
        assert_eq!(
            *core.stats(),
            CoreStats {
                cycles: 19,
                retired: 0,
                mem_retired: 0,
                data_stall_cycles: 11,
                mem_busy_cycles: 11,
                overlap_cycles: 0,
                mem_issued: 22,
                mem_rejects: 22,
            }
        );
    }

    /// Differential check for the event-driven fast path: a core stuck
    /// behind a long-latency load reports `can_act == false`, and
    /// skipping the idle span in one shot leaves it in a state
    /// indistinguishable (stats now and forever after) from stepping
    /// the same span cycle by cycle.
    #[test]
    fn idle_span_skip_matches_per_cycle_stepping() {
        let make = || {
            let trace: Trace = (0..8)
                .map(|i| {
                    if i == 0 {
                        Instr::load(0)
                    } else {
                        Instr::compute().depending_on(1)
                    }
                })
                .collect();
            Core::new(CoreConfig::small(), trace)
        };
        let mut per_cycle = make();
        let mut skipped = make();
        let mut mem = PerfectMemory::new(1_000_000); // never completes on its own
                                                     // Warm both cores identically until the load is in flight and
                                                     // everything else is dependence-blocked.
        let mut now = 0u64;
        while per_cycle.can_act(now) {
            per_cycle.cycle(now, &mut mem);
            skipped.cycle(now, &mut mem);
            now += 1;
            assert!(now < 100, "core never went idle");
        }
        assert!(!skipped.can_act(now));
        assert_eq!(per_cycle.next_event(), None, "waiting purely on memory");
        // 500 idle cycles: reference steps them, fast path leaps them.
        for t in now..now + 500 {
            per_cycle.cycle(t, &mut mem);
        }
        skipped.skip_idle_span(500);
        now += 500;
        assert_eq!(per_cycle.stats(), skipped.stats());
        assert!(per_cycle.stats().data_stall_cycles >= 500);
        // Deliver the completion and run both to the end in lockstep.
        per_cycle.complete_mem(0);
        skipped.complete_mem(0);
        while !per_cycle.finished() || !skipped.finished() {
            per_cycle.cycle(now, &mut mem);
            skipped.cycle(now, &mut mem);
            assert_eq!(per_cycle.stats(), skipped.stats());
            now += 1;
            assert!(now < 10_000, "cores did not finish");
        }
        assert_eq!(per_cycle.stats(), skipped.stats());
    }

    /// A perfect memory that logs every `(now, id)` it is offered.
    struct Logged {
        attempts: Vec<(u64, u64)>,
        inner: PerfectMemory,
    }

    impl MemoryPort for Logged {
        fn try_access(&mut self, now: u64, id: u64, addr: u64, is_store: bool) -> bool {
            self.attempts.push((now, id));
            self.inner.try_access(now, id, addr, is_store)
        }
    }

    /// Wakeup timing: a store is `Done` as it issues, so a load that
    /// depends on it issues in the same cycle; a load is `Done` only at
    /// its `complete_mem`, so its consumer waits for the data.
    #[test]
    fn store_wakes_consumer_in_cycle_and_load_wakes_at_completion() {
        let trace: Trace = [
            Instr::store(0),
            Instr::load(64).depending_on(1),
            Instr::load(128).depending_on(1),
        ]
        .into_iter()
        .collect();
        let mut core = Core::new(CoreConfig::small(), trace);
        let mut mem = Logged {
            attempts: Vec::new(),
            inner: PerfectMemory::new(5),
        };
        let mut now = 0;
        while !core.finished() {
            for id in mem.inner.take_completions(now) {
                core.complete_mem(id);
            }
            core.cycle(now, &mut mem);
            now += 1;
            assert!(now < 100, "core did not finish");
        }
        // All three dispatch in cycle 0. The store and its consumer issue
        // together in cycle 1; the load's data lands in cycle 6.
        assert_eq!(mem.attempts, [(1, 0), (1, 1), (6, 2)]);
    }

    /// An id that matches no posted store and no load awaiting data
    /// changes nothing: it must not count as a completed access.
    #[test]
    fn unknown_completion_ids_change_nothing() {
        let trace: Trace = [Instr::load(0), Instr::compute(), Instr::compute()]
            .into_iter()
            .collect();
        let mut clean = Core::new(CoreConfig::small(), trace.clone());
        let mut bogus = Core::new(CoreConfig::small(), trace);
        let mut clean_mem = PerfectMemory::new(20);
        let mut bogus_mem = PerfectMemory::new(20);
        let mut now = 0;
        while !clean.finished() || !bogus.finished() {
            for id in clean_mem.take_completions(now) {
                clean.complete_mem(id);
            }
            for id in bogus_mem.take_completions(now) {
                bogus.complete_mem(id);
            }
            // Never issued, a compute, already retired or never dispatched.
            for id in [1, 2, 99, u64::MAX] {
                bogus.complete_mem(id);
            }
            clean.cycle(now, &mut clean_mem);
            bogus.cycle(now, &mut bogus_mem);
            assert_eq!(clean.stats(), bogus.stats(), "cycle {now}");
            now += 1;
            assert!(now < 1_000, "cores did not finish");
        }
        assert_eq!(clean.stats().mem_busy_cycles, 20);
    }

    #[test]
    fn stats_ratios_on_empty_run() {
        let s = CoreStats::default();
        assert_eq!(s.ipc(), 0.0);
        assert_eq!(s.cpi(), 0.0);
        assert_eq!(s.fmem(), 0.0);
        assert_eq!(s.overlap_ratio(), 0.0);
        assert_eq!(s.stall_per_instruction(), 0.0);
    }
}
