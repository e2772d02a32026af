//! The timed, non-blocking cache.
//!
//! # Timing contract
//!
//! The surrounding hierarchy drives one round per simulated cycle `now`:
//!
//! 1. `access(now, …)` for each new demand access (port/bank arbitration
//!    happens here; a rejected access may be retried next cycle);
//! 2. the analyzer samples [`Cache::hit_phase_count`] /
//!    [`Cache::miss_phase_count`] / [`Cache::mark_all_pure`] — *before*
//!    `step`, so an access's last hit-phase cycle and last waiting cycle
//!    are both observed;
//! 3. `fill(now, line)` for every line returned by the lower level this
//!    cycle;
//! 4. `step(now)` resolves lookups whose hit phase ends at `now`, retries
//!    deferred MSHR allocations, applies fills, and returns completions,
//!    new downstream misses and writebacks.
//!
//! An access accepted at cycle `t` occupies its *hit phase* during cycles
//! `t .. t+H-1` (H = `hit_latency`). Hits complete at the end of `t+H-1`
//! (the consumer can use the value at `t+H`). Misses enter their *miss
//! phase* at `t+H`, waiting in the MSHR until the fill arrives.

use crate::array::TagArray;
use crate::bypass::BypassDetector;
use crate::config::CacheConfig;
use crate::mshr::{MshrAccept, MshrFile, MshrReject};
use crate::prefetch::Engine;
use crate::stats::CacheStats;

/// Unique identity of one in-flight demand access, assigned by the caller.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct AccessId(pub u64);

/// Outcome of presenting an access to the cache this cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessResponse {
    /// Accepted: the access is in its hit phase; resolution comes later
    /// through [`StepOutput::completions`].
    Accepted,
    /// No port (or the address's bank) is available this cycle; retry.
    RejectPort,
}

/// A finished demand access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Completion {
    /// The access that finished.
    pub id: AccessId,
    /// Whether it was a store.
    pub is_store: bool,
    /// Whether it ultimately hit in this cache (false = served by a fill).
    pub hit: bool,
    /// Whether the analyzer flagged it as a pure miss while it waited.
    pub pure_miss: bool,
}

/// Everything the cache produced in one `step`.
#[derive(Debug, Default, Clone)]
pub struct StepOutput {
    /// Demand accesses that finished this cycle.
    pub completions: Vec<Completion>,
    /// Line addresses that must be requested from the next level.
    pub outgoing_misses: Vec<u64>,
    /// Dirty victim lines that must be written back to the next level.
    pub writebacks: Vec<u64>,
}

/// An access in its hit (lookup) phase.
#[derive(Debug, Clone, Copy)]
struct Lookup {
    id: AccessId,
    line: u64,
    is_store: bool,
    /// Last hit-phase cycle: resolves in `step(end)`.
    end: u64,
}

/// A resolved miss that could not get an MSHR slot yet.
#[derive(Debug, Clone, Copy)]
struct DeferredMiss {
    id: AccessId,
    line: u64,
    is_store: bool,
    pure: bool,
}

/// The timed non-blocking cache.
#[derive(Debug)]
pub struct Cache {
    cfg: CacheConfig,
    array: TagArray,
    mshr: MshrFile,
    lookups: Vec<Lookup>,
    deferred: Vec<DeferredMiss>,
    pending_fills: Vec<u64>,
    port_free_at: Vec<u64>,
    bank_last_used: Vec<u64>,
    /// Prefetch requests staged for this cycle's `step` output.
    pending_outgoing_prefetch: Vec<u64>,
    /// The hardware prefetch engine (configured by `cfg.prefetch`).
    prefetcher: Engine,
    /// The selective-bypass streaming detector (configured by
    /// `cfg.bypass`).
    bypass: BypassDetector,
    /// Fault injection: while set, every new access is rejected at the
    /// ports (a transient bank/array stall).
    fault_stalled: bool,
    /// Fault injection: MSHR entries withheld from allocation (an
    /// MSHR-exhaustion burst). Effective capacity never drops below one.
    fault_reserved_mshrs: u32,
    stats: CacheStats,
    /// Reusable buffers ping-ponged with `pending_fills` / `deferred`
    /// each `step`, so the per-cycle take-and-refill pattern never
    /// reallocates.
    fills_scratch: Vec<u64>,
    deferred_scratch: Vec<DeferredMiss>,
    /// Every entry in `deferred` has failed an MSHR allocation against
    /// the current state. Until a fill is applied or the capacity knob
    /// moves, each per-cycle retry round is provably `mshr_rejects +=
    /// deferred.len()` and the walk is skipped.
    deferred_blocked: bool,
    /// Soonest `end` among in-flight lookups (`u64::MAX` when none) —
    /// maintained at push and resolution, so the per-cycle "anything
    /// due?" checks in [`Cache::can_act`] and `step` are O(1).
    lookup_min_end: u64,
}

impl Cache {
    /// Build a cache; `seed` feeds the Random replacement policy.
    pub fn new(cfg: CacheConfig, seed: u64) -> Self {
        cfg.validate();
        let array = TagArray::new(&cfg, seed);
        let mshr = MshrFile::new(cfg.mshrs as usize, cfg.targets_per_mshr as usize);
        Cache {
            array,
            mshr,
            lookups: Vec::new(),
            deferred: Vec::new(),
            pending_fills: Vec::new(),
            port_free_at: vec![0; cfg.ports as usize],
            bank_last_used: vec![u64::MAX; cfg.banks as usize],
            pending_outgoing_prefetch: Vec::new(),
            prefetcher: Engine::new(cfg.prefetch, cfg.line_bytes),
            bypass: BypassDetector::new(cfg.bypass),
            fault_stalled: false,
            fault_reserved_mshrs: 0,
            stats: CacheStats::default(),
            fills_scratch: Vec::new(),
            deferred_scratch: Vec::new(),
            deferred_blocked: false,
            lookup_min_end: u64::MAX,
            cfg,
        }
    }

    /// The configuration this cache was built with.
    pub fn config(&self) -> &CacheConfig {
        &self.cfg
    }

    /// Functional statistics so far.
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    /// Hit time `H` in cycles.
    pub fn hit_latency(&self) -> u64 {
        self.cfg.hit_latency
    }

    /// Present a demand access at cycle `now`.
    ///
    /// A single-banked cache (`banks == 1`) is a *true multi-ported*
    /// array: up to `ports` accesses may start per cycle to any address.
    /// A banked cache additionally allows at most one start per bank per
    /// cycle (interleaving emulates multi-porting cheaply, at the price
    /// of bank conflicts).
    pub fn access(&mut self, now: u64, id: AccessId, addr: u64, is_store: bool) -> AccessResponse {
        if self.fault_stalled {
            self.stats.port_rejects += 1;
            return AccessResponse::RejectPort;
        }
        let bank = self.cfg.bank_of(addr) as usize;
        if self.cfg.banks > 1 && self.bank_last_used[bank] == now {
            self.stats.port_rejects += 1;
            return AccessResponse::RejectPort;
        }
        let Some(port) = self.port_free_at.iter().position(|&f| f <= now) else {
            self.stats.port_rejects += 1;
            return AccessResponse::RejectPort;
        };
        self.port_free_at[port] = if self.cfg.pipelined {
            now + 1
        } else {
            now + self.cfg.hit_latency
        };
        self.bank_last_used[bank] = now;
        self.stats.accesses += 1;
        let end = now + self.cfg.hit_latency - 1;
        self.lookup_min_end = self.lookup_min_end.min(end);
        self.lookups.push(Lookup {
            id,
            line: self.cfg.line_of(addr),
            is_store,
            end,
        });
        AccessResponse::Accepted
    }

    /// Offer a prefetch for the line containing `addr`. Prefetches skip
    /// port arbitration (they use idle tag bandwidth) and never merge
    /// demand targets. Returns whether a downstream request was generated.
    pub fn prefetch(&mut self, addr: u64) -> bool {
        let line = self.cfg.line_of(addr);
        if self.array.probe(line) {
            return false;
        }
        match self.mshr.allocate_prefetch(line) {
            Ok(true) => {
                self.stats.prefetches += 1;
                self.pending_outgoing_prefetch.push(line);
                true
            }
            _ => false,
        }
    }

    /// Feed the internal prefetch engine with a demand access outcome and
    /// issue whatever it proposes.
    fn train_prefetcher(&mut self, line: u64, was_miss: bool) {
        if matches!(self.prefetcher, Engine::None(_)) {
            return;
        }
        let candidates = self.prefetcher.observe(line, was_miss);
        for c in candidates {
            self.prefetch(c);
        }
    }

    /// Number of accesses currently in their hit phase (cycle `now`).
    ///
    /// Callers observe before `step(now)` runs, and a lookup leaves
    /// `lookups` during the step of its `end` cycle — so every in-flight
    /// entry satisfies `end >= now` and the count is simply the number
    /// in flight (asserted in debug builds rather than rescanned).
    pub fn hit_phase_count(&self, now: u64) -> u64 {
        debug_assert!(
            self.lookups.iter().all(|l| l.end >= now),
            "hit_phase_count observed after step({now}) resolved lookups"
        );
        self.lookups.len() as u64
    }

    /// Number of demand accesses currently in their miss phase.
    pub fn miss_phase_count(&self) -> u64 {
        self.mshr.waiting_count() + self.deferred.len() as u64
    }

    /// Flag every currently waiting demand access as a pure miss; returns
    /// the number of accesses newly flagged (the analyzer's pure-miss
    /// counter increment).
    pub fn mark_all_pure(&mut self) -> u64 {
        let mut newly = self.mshr.mark_all_pure();
        for d in &mut self.deferred {
            if !d.pure {
                d.pure = true;
                newly += 1;
            }
        }
        newly
    }

    /// Deliver a filled line from the lower level at cycle `now`; its
    /// waiters complete in this cycle's `step`.
    pub fn fill(&mut self, line_addr: u64) {
        self.pending_fills.push(line_addr);
    }

    /// Advance one cycle: resolve lookups ending at `now`, retry deferred
    /// misses, apply fills.
    pub fn step(&mut self, now: u64) -> StepOutput {
        let mut out = StepOutput::default();
        self.step_into(now, &mut out);
        out
    }

    /// [`Cache::step`] writing into a caller-owned buffer (cleared
    /// first), so per-cycle drivers can reuse one allocation.
    pub fn step_into(&mut self, now: u64, out: &mut StepOutput) {
        out.completions.clear();
        out.outgoing_misses.clear();
        out.writebacks.clear();

        // 1. Apply fills: install lines, complete waiters. (Swapped
        // through a scratch buffer: `fill` pushes between steps keep
        // their capacity, and the scratch is stable during the loop.)
        std::mem::swap(&mut self.pending_fills, &mut self.fills_scratch);
        let had_fills = !self.fills_scratch.is_empty();
        for fi in 0..self.fills_scratch.len() {
            let line = self.fills_scratch[fi];
            let entry = self.mshr.complete(line);
            let mut dirty = false;
            let mut useful_prefetch = false;
            let mut untouched_prefetch = false;
            if let Some(e) = entry {
                // A demand access merged into the prefetch before the
                // fill arrived: the prefetch already proved useful.
                useful_prefetch = e.started_as_prefetch && !e.targets.is_empty();
                untouched_prefetch = e.started_as_prefetch && e.targets.is_empty();
                for t in &e.targets {
                    dirty |= t.is_store;
                    out.completions.push(Completion {
                        id: t.id,
                        is_store: t.is_store,
                        hit: false,
                        pure_miss: t.pure,
                    });
                }
                self.mshr.recycle(e.targets);
            }
            self.stats.fills += 1;
            if useful_prefetch {
                self.stats.useful_prefetches += 1;
            }
            // Selective bypass: streaming fills serve their waiters but
            // are not installed — except dirty fills, whose data would
            // otherwise be lost (a write-allocate store must land).
            if !dirty && self.bypass.on_fill_should_bypass(line) {
                self.stats.bypassed_fills += 1;
            } else {
                let f = self.array.fill(line, dirty, untouched_prefetch);
                if let Some(victim) = f.writeback {
                    self.stats.writebacks += 1;
                    out.writebacks.push(victim);
                }
                if f.evicted_clean.is_some() {
                    self.stats.evictions_clean += 1;
                }
            }
        }

        self.fills_scratch.clear();

        // 2. Retry deferred misses (FIFO) now that fills may have freed
        // MSHR slots or installed their line. Same scratch ping-pong:
        // re-deferred entries land back in `deferred` with its previous
        // capacity. A retry round whose every entry already failed
        // against unchanged state (no fill applied, no capacity change)
        // re-fails identically, so it collapses to its counter delta.
        if !self.deferred.is_empty() {
            if had_fills || !self.deferred_blocked {
                std::mem::swap(&mut self.deferred, &mut self.deferred_scratch);
                for di in 0..self.deferred_scratch.len() {
                    let d = self.deferred_scratch[di];
                    self.resolve_miss(d, out);
                }
                self.deferred_scratch.clear();
            } else {
                self.stats.mshr_rejects += self.deferred.len() as u64;
            }
        }
        // Anything still (or newly) deferred below has failed against
        // the state this step leaves behind.
        self.deferred_blocked = true;

        // 3. Resolve lookups whose hit phase ends this cycle. The
        // maintained minimum deadline skips the walk wholesale on the
        // (common) cycles where nothing is due.
        if self.lookup_min_end <= now {
            self.resolve_due_lookups(now, out);
        }

        // 4. Emit any prefetch requests generated this cycle.
        out.outgoing_misses
            .append(&mut self.pending_outgoing_prefetch);
    }

    /// Resolve every lookup whose hit phase ends at `now` and recompute
    /// the minimum deadline over the survivors.
    fn resolve_due_lookups(&mut self, now: u64, out: &mut StepOutput) {
        let mut i = 0;
        while i < self.lookups.len() {
            if self.lookups[i].end == now {
                let l = self.lookups.swap_remove(i);
                if let Some(first_prefetch_use) = self.array.access(l.line, l.is_store) {
                    self.stats.hits += 1;
                    if first_prefetch_use {
                        self.stats.useful_prefetches += 1;
                    }
                    self.bypass.on_hit(l.line);
                    self.train_prefetcher(l.line, false);
                    out.completions.push(Completion {
                        id: l.id,
                        is_store: l.is_store,
                        hit: true,
                        pure_miss: false,
                    });
                } else {
                    self.stats.misses += 1;
                    self.resolve_miss(
                        DeferredMiss {
                            id: l.id,
                            line: l.line,
                            is_store: l.is_store,
                            pure: false,
                        },
                        out,
                    );
                }
            } else {
                i += 1;
            }
        }
        self.lookup_min_end = self.lookups.iter().map(|l| l.end).min().unwrap_or(u64::MAX);
    }

    /// Try to place a resolved miss into the MSHR file, deferring on
    /// structural hazards.
    fn resolve_miss(&mut self, d: DeferredMiss, out: &mut StepOutput) {
        // A fill may have landed while the access waited.
        if self.array.probe(d.line) {
            if self.array.access(d.line, d.is_store) == Some(true) {
                self.stats.useful_prefetches += 1;
            }
            out.completions.push(Completion {
                id: d.id,
                is_store: d.is_store,
                hit: false,
                pure_miss: d.pure,
            });
            return;
        }
        match self.mshr.allocate(d.line, d.id, d.is_store) {
            Ok(MshrAccept::Primary) => {
                self.stats.primary_misses += 1;
                if d.pure {
                    // Preserve the pure flag across the defer boundary.
                    self.set_pure_flag(d.line, d.id);
                }
                out.outgoing_misses.push(d.line);
                self.train_prefetcher(d.line, true);
            }
            Ok(MshrAccept::Secondary) => {
                self.stats.secondary_misses += 1;
                if d.pure {
                    self.set_pure_flag(d.line, d.id);
                }
            }
            Err(MshrReject::Full) | Err(MshrReject::TargetsFull) => {
                self.stats.mshr_rejects += 1;
                self.deferred.push(d);
            }
        }
    }

    /// Re-apply a pure flag to a target that was deferred while flagged.
    /// (Linear scan; MSHR files are small.)
    fn set_pure_flag(&mut self, line: u64, id: AccessId) {
        self.mshr.set_pure(line, id);
    }

    /// Whether a `step(now)` could mutate any state beyond the
    /// deterministic per-cycle deferred-retry counter: a pending fill
    /// to apply, a staged prefetch to emit, or a lookup resolving at or
    /// before `now`.
    ///
    /// *Blocked* deferred misses deliberately do **not** make the cache
    /// busy. Once every entry in `deferred` has failed an MSHR
    /// allocation against the current state (`deferred_blocked`),
    /// nothing can change that outcome without an event this predicate
    /// (or the surrounding hierarchy) already reports: a retry only
    /// starts to succeed after a fill frees an MSHR slot or installs
    /// the line, and capacity-knob moves (fault reservation changes,
    /// reconfiguration) clear the flag and force a real retry round. So
    /// across an idle span the retry loop provably re-fails every
    /// cycle, mutating exactly `mshr_rejects += deferred.len()` per
    /// cycle — which [`Cache::skip_idle_span`] applies in one batch.
    pub fn can_act(&self, now: u64) -> bool {
        debug_assert_eq!(
            self.lookup_min_end,
            self.lookups.iter().map(|l| l.end).min().unwrap_or(u64::MAX),
            "lookup_min_end out of sync"
        );
        !self.pending_fills.is_empty()
            || (!self.deferred.is_empty() && !self.deferred_blocked)
            || !self.pending_outgoing_prefetch.is_empty()
            || self.lookup_min_end <= now
    }

    /// Apply the statistic deltas of `k` consecutive cycles in which
    /// [`Cache::can_act`] is false: each cycle's `step` would retry
    /// every deferred miss and re-fail, bumping `mshr_rejects` once per
    /// entry. State (MSHR file, array, deferred order) is untouched,
    /// exactly as `k` failing retries leave it.
    pub fn skip_idle_span(&mut self, k: u64) {
        debug_assert!(
            self.deferred.is_empty() || self.deferred_blocked,
            "skipping with an unproven deferred retry round"
        );
        self.stats.mshr_rejects += k * self.deferred.len() as u64;
    }

    /// Earliest future cycle at which this cache changes state on its
    /// own: the soonest lookup resolution (`step(end)` turns it into a
    /// hit completion or a miss). Fills arrive from outside and end the
    /// idle span at the hierarchy level. `None` when nothing is staged.
    pub fn next_event(&self) -> Option<u64> {
        if self.lookup_min_end == u64::MAX {
            None
        } else {
            Some(self.lookup_min_end)
        }
    }

    /// Whether the line containing `addr` is currently present
    /// (functional probe for tests).
    pub fn probe(&self, addr: u64) -> bool {
        self.array.probe(self.cfg.line_of(addr))
    }

    /// MSHR entries currently in use.
    pub fn mshrs_in_use(&self) -> usize {
        self.mshr.in_use()
    }

    /// Effective MSHR capacity — the configured entries minus any fault
    /// reservation (for cycle-attribution profiling: an MSHR file at
    /// this occupancy is a structural stall).
    pub fn mshr_capacity(&self) -> usize {
        self.effective_mshrs()
    }

    /// Misses deferred on MSHR structural hazards (diagnostics).
    pub fn deferred_misses(&self) -> usize {
        self.deferred.len()
    }

    /// Debug dump of outstanding MSHR lines (diagnostics).
    pub fn outstanding_lines(&self) -> Vec<u64> {
        self.mshr.outstanding_lines()
    }

    /// Reconfigure the cache's parallelism at runtime: port count, MSHR
    /// entries and banking. Geometry (size/associativity/line) must stay
    /// fixed — the reconfigurable architecture of case study I adjusts
    /// concurrency resources, not array contents. Shrinking the MSHR file
    /// is graceful: existing entries survive and new allocations respect
    /// the smaller capacity.
    pub fn reconfigure_parallelism(&mut self, ports: u32, mshrs: u32, banks: u32) {
        assert!(ports >= 1 && mshrs >= 1, "need at least one port and MSHR");
        assert!(banks.is_power_of_two(), "banks must be a power of two");
        self.cfg.ports = ports;
        self.cfg.mshrs = mshrs;
        self.cfg.banks = banks;
        self.port_free_at.resize(ports as usize, 0);
        self.bank_last_used.resize(banks as usize, u64::MAX);
        self.mshr.set_capacity(self.effective_mshrs());
        self.deferred_blocked = false;
    }

    /// Set (or clear) the injected fault state for this cycle: `stalled`
    /// rejects every new access at the ports; `reserved_mshrs` withholds
    /// that many MSHR entries from allocation. Existing MSHR entries
    /// survive a shrink gracefully (allocation respects the smaller
    /// capacity, in-flight misses complete normally). Clearing both
    /// (`false, 0`) restores nominal behaviour exactly.
    pub fn set_fault(&mut self, stalled: bool, reserved_mshrs: u32) {
        self.fault_stalled = stalled;
        if reserved_mshrs != self.fault_reserved_mshrs {
            self.fault_reserved_mshrs = reserved_mshrs;
            self.mshr.set_capacity(self.effective_mshrs());
            self.deferred_blocked = false;
        }
    }

    /// MSHR capacity after subtracting any fault reservation (≥ 1).
    fn effective_mshrs(&self) -> usize {
        self.cfg
            .mshrs
            .saturating_sub(self.fault_reserved_mshrs)
            .max(1) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bypass::BypassPolicy;
    use crate::prefetch::PrefetchKind;
    use crate::replacement::Policy;

    fn cfg(h: u64, ports: u32, banks: u32, mshrs: u32) -> CacheConfig {
        CacheConfig {
            size_bytes: 1024, // 4 sets × 4 ways
            assoc: 4,
            line_bytes: 64,
            hit_latency: h,
            ports,
            banks,
            mshrs,
            targets_per_mshr: 4,
            pipelined: true,
            policy: Policy::Lru,
            prefetch: PrefetchKind::None,
            bypass: BypassPolicy::None,
        }
    }

    /// Drive `cache` for `cycles`, feeding `accesses` (cycle, id, addr,
    /// is_store) and filling outgoing misses after `miss_latency` cycles.
    /// Returns (completion cycle per id, all step outputs flattened).
    fn run(
        cache: &mut Cache,
        accesses: &[(u64, u64, u64, bool)],
        miss_latency: u64,
        cycles: u64,
    ) -> std::collections::BTreeMap<u64, (u64, Completion)> {
        let mut done = std::collections::BTreeMap::new();
        let mut fills: Vec<(u64, u64)> = Vec::new(); // (cycle, line)
        let mut pending: Vec<(u64, u64, u64, bool)> = accesses.to_vec();
        for now in 0..cycles {
            // Issue accesses scheduled for this cycle (retry on reject).
            let mut i = 0;
            while i < pending.len() {
                if pending[i].0 <= now {
                    let (_, id, addr, st) = pending[i];
                    match cache.access(now, AccessId(id), addr, st) {
                        AccessResponse::Accepted => {
                            pending.swap_remove(i);
                            continue;
                        }
                        AccessResponse::RejectPort => {}
                    }
                }
                i += 1;
            }
            // Deliver fills due this cycle.
            let mut j = 0;
            while j < fills.len() {
                if fills[j].0 == now {
                    cache.fill(fills[j].1);
                    fills.swap_remove(j);
                } else {
                    j += 1;
                }
            }
            let out = cache.step(now);
            for c in out.completions {
                done.insert(c.id.0, (now, c));
            }
            for line in out.outgoing_misses {
                fills.push((now + miss_latency, line));
            }
        }
        done
    }

    #[test]
    fn hit_completes_after_hit_latency() {
        let mut c = Cache::new(cfg(3, 1, 1, 4), 0);
        // Warm line 0.
        let done = run(&mut c, &[(0, 1, 0, false)], 10, 40);
        let (t1, c1) = done[&1];
        assert!(!c1.hit);
        // Access at cycle 20 (warm): hit phase 20..22, completes at 22.
        let done = run(&mut c, &[(20, 2, 0, false)], 10, 40);
        let (t2, c2) = done[&2];
        assert!(c2.hit);
        assert_eq!(t2, 22);
        assert!(t1 < 20);
    }

    #[test]
    fn miss_latency_includes_lookup_and_fill() {
        let mut c = Cache::new(cfg(3, 1, 1, 4), 0);
        // Access at 0: lookup 0..2, miss resolved in step(2), outgoing at
        // cycle 2, fill at 2+10, completion in step(12).
        let done = run(&mut c, &[(0, 1, 0, false)], 10, 40);
        let (t, comp) = done[&1];
        assert_eq!(t, 12);
        assert!(!comp.hit);
        assert!(c.probe(0), "line installed after fill");
    }

    #[test]
    fn secondary_miss_merges_and_completes_with_fill() {
        let mut c = Cache::new(cfg(3, 2, 1, 4), 0);
        // Two accesses to the same line, one cycle apart. Both banks
        // conflict-free? Same line → same bank, so they must start on
        // different cycles with banks=1.
        let done = run(&mut c, &[(0, 1, 0, false), (1, 2, 8, false)], 10, 40);
        assert_eq!(c.stats().primary_misses, 1);
        assert_eq!(c.stats().secondary_misses, 1);
        // Both complete at the same fill.
        assert_eq!(done[&1].0, 12);
        assert_eq!(done[&2].0, 12);
    }

    #[test]
    fn port_contention_serializes_starts() {
        let mut c = Cache::new(cfg(1, 1, 1, 8), 0);
        // Three same-cycle accesses to distinct lines, 1 port: they start
        // at cycles 0, 1, 2 → hits (after warmup) would complete 0,1,2.
        // Here they are cold misses; check port_rejects counted.
        run(
            &mut c,
            &[(0, 1, 0, false), (0, 2, 64, false), (0, 3, 128, false)],
            5,
            30,
        );
        assert!(c.stats().port_rejects >= 2);
        assert_eq!(c.stats().accesses, 3);
    }

    #[test]
    fn more_ports_allow_parallel_starts() {
        // With 2 ports and 2 banks, two accesses to different banks can
        // start the same cycle.
        let mut c = Cache::new(cfg(1, 2, 2, 8), 0);
        run(&mut c, &[(0, 1, 0, false), (0, 2, 64, false)], 5, 30);
        assert_eq!(c.stats().port_rejects, 0);
    }

    #[test]
    fn bank_conflict_rejects_same_bank_same_cycle() {
        // 2 ports, 2 banks: two same-cycle accesses to the same bank
        // (lines 0 and 128 both map to bank 0) → one must retry.
        let mut c = Cache::new(cfg(1, 2, 2, 8), 0);
        run(&mut c, &[(0, 1, 0, false), (0, 2, 256, false)], 5, 30);
        assert!(c.stats().port_rejects >= 1);
    }

    #[test]
    fn single_bank_is_true_multiport() {
        // banks = 1 with 2 ports: two same-cycle accesses both start.
        let mut c = Cache::new(cfg(1, 2, 1, 8), 0);
        run(&mut c, &[(0, 1, 0, false), (0, 2, 256, false)], 5, 30);
        assert_eq!(c.stats().port_rejects, 0);
    }

    #[test]
    fn mshr_full_defers_miss() {
        // 1 MSHR: second distinct-line miss waits for the first fill.
        let mut c = Cache::new(cfg(1, 2, 2, 1), 0);
        let done = run(&mut c, &[(0, 1, 0, false), (0, 2, 64, false)], 10, 60);
        assert!(c.stats().mshr_rejects > 0);
        // Second miss completes strictly after the first.
        assert!(done[&2].0 > done[&1].0);
    }

    #[test]
    fn store_miss_installs_dirty_line_and_writeback_on_eviction() {
        let mut c = Cache::new(cfg(1, 1, 1, 4), 0);
        // Store-miss line 0 (set 0), then fill set 0 with 4 more lines to
        // evict it → writeback of line 0 must appear.
        let set_stride = 4 * 64;
        let mut accesses = vec![(0u64, 1u64, 0u64, true)];
        for k in 1..=4u64 {
            accesses.push((10 * k, 1 + k, k * set_stride, false));
        }
        let mut wrote_back = false;
        let mut fills: Vec<(u64, u64)> = Vec::new();
        let mut pending = accesses.clone();
        for now in 0..120 {
            let mut i = 0;
            while i < pending.len() {
                if pending[i].0 <= now {
                    let (_, id, addr, st) = pending[i];
                    if matches!(
                        c.access(now, AccessId(id), addr, st),
                        AccessResponse::Accepted
                    ) {
                        pending.swap_remove(i);
                        continue;
                    }
                }
                i += 1;
            }
            let mut j = 0;
            while j < fills.len() {
                if fills[j].0 == now {
                    c.fill(fills[j].1);
                    fills.swap_remove(j);
                } else {
                    j += 1;
                }
            }
            let out = c.step(now);
            for line in out.outgoing_misses {
                fills.push((now + 5, line));
            }
            if out.writebacks.contains(&0) {
                wrote_back = true;
            }
        }
        assert!(wrote_back, "dirty line 0 was never written back");
        assert_eq!(c.stats().writebacks, 1);
    }

    #[test]
    fn hit_phase_and_miss_phase_counts() {
        let mut c = Cache::new(cfg(3, 2, 2, 4), 0);
        c.access(0, AccessId(1), 0, false);
        c.access(0, AccessId(2), 64, false);
        // Cycle 0..2: both in hit phase.
        assert_eq!(c.hit_phase_count(0), 2);
        assert_eq!(c.miss_phase_count(), 0);
        c.step(0);
        assert_eq!(c.hit_phase_count(1), 2);
        c.step(1);
        // step(2) resolves: both miss → MSHR.
        assert_eq!(c.hit_phase_count(2), 2);
        c.step(2);
        assert_eq!(c.hit_phase_count(3), 0);
        assert_eq!(c.miss_phase_count(), 2);
        // Pure marking flips both once.
        assert_eq!(c.mark_all_pure(), 2);
        assert_eq!(c.mark_all_pure(), 0);
        // Fill line 0: its completion carries the pure flag.
        c.fill(0);
        let out = c.step(3);
        assert_eq!(out.completions.len(), 1);
        assert!(out.completions[0].pure_miss);
        assert_eq!(c.miss_phase_count(), 1);
    }

    /// Event-horizon contract: `can_act` is false exactly on the cycles
    /// where `step` provably mutates nothing, and `next_event` names
    /// the cycle the next lookup resolves.
    #[test]
    fn can_act_and_next_event_bracket_idle_cycles() {
        let mut c = Cache::new(cfg(4, 2, 1, 4), 0);
        assert!(!c.can_act(0));
        assert_eq!(c.next_event(), None);
        // Lookup accepted at 0 with H=4 resolves in step(3).
        assert_eq!(c.access(0, AccessId(1), 0, false), AccessResponse::Accepted);
        assert_eq!(c.next_event(), Some(3));
        for now in 0..3 {
            assert!(!c.can_act(now), "hit phase cycle {now} is inert");
            let out = c.step(now);
            assert!(out.completions.is_empty() && out.outgoing_misses.is_empty());
        }
        assert!(c.can_act(3), "resolution cycle must act");
        let out = c.step(3);
        assert_eq!(out.outgoing_misses, vec![0], "cold miss goes downstream");
        // Miss phase: nothing staged, nothing to do until the fill.
        assert!(!c.can_act(4));
        assert_eq!(c.next_event(), None);
        c.fill(0);
        assert!(c.can_act(4), "pending fill must be applied");
        let out = c.step(4);
        assert_eq!(out.completions.len(), 1);
        assert!(!c.can_act(5));
    }

    #[test]
    fn deferred_miss_retries_are_batchable() {
        // MSHR=1: the second distinct-line miss defers. Every retry
        // re-fails until the fill, mutating exactly mshr_rejects — so
        // the cache reports not-busy and skip_idle_span(k) must land on
        // the same statistics as k per-cycle failing retries.
        let mk = || {
            let mut c = Cache::new(cfg(1, 2, 1, 1), 0);
            c.access(0, AccessId(1), 0, false);
            c.access(0, AccessId(2), 64, false);
            c.step(0); // both resolve: one allocates, one defers
            c
        };
        let mut stepped = mk();
        let mut skipped = mk();
        assert_eq!(stepped.deferred_misses(), 1);
        assert!(
            !stepped.can_act(1),
            "a stalled deferred queue must not force per-cycle stepping"
        );
        for now in 1..=5 {
            let out = stepped.step(now);
            assert!(out.completions.is_empty() && out.outgoing_misses.is_empty());
        }
        skipped.skip_idle_span(5);
        assert_eq!(stepped.stats(), skipped.stats());
        assert_eq!(stepped.deferred_misses(), skipped.deferred_misses());
        // The fill ends the span; from there both sides act again.
        stepped.fill(0);
        skipped.fill(0);
        assert!(stepped.can_act(6) && skipped.can_act(6));
        let a = stepped.step(6);
        let b = skipped.step(6);
        assert_eq!(a.completions.len(), b.completions.len());
        assert_eq!(a.outgoing_misses, b.outgoing_misses);
    }

    #[test]
    fn non_pipelined_port_busy_for_full_latency() {
        let mut base = cfg(3, 1, 1, 8);
        base.pipelined = false;
        let mut c = Cache::new(base, 0);
        assert_eq!(c.access(0, AccessId(1), 0, false), AccessResponse::Accepted);
        // Port busy until cycle 3.
        assert_eq!(
            c.access(1, AccessId(2), 64, false),
            AccessResponse::RejectPort
        );
        assert_eq!(
            c.access(2, AccessId(3), 64, false),
            AccessResponse::RejectPort
        );
        assert_eq!(
            c.access(3, AccessId(4), 64, false),
            AccessResponse::Accepted
        );
    }

    #[test]
    fn prefetch_generates_fill_and_later_hit() {
        let mut c = Cache::new(cfg(1, 1, 1, 4), 0);
        assert!(c.prefetch(128));
        let out = c.step(0);
        assert_eq!(out.outgoing_misses, vec![128]);
        c.fill(128);
        c.step(1);
        assert!(c.probe(128));
        // Demand access now hits.
        c.access(2, AccessId(7), 130, false);
        let out = c.step(2);
        assert_eq!(out.completions.len(), 1);
        assert!(out.completions[0].hit);
        // Redundant prefetch to a present line does nothing.
        assert!(!c.prefetch(128));
    }

    #[test]
    fn deferred_miss_served_by_intervening_fill() {
        // MSHR=1. Access A misses line 0; access B misses line 64 and is
        // deferred. A's fill frees the MSHR, and B allocates on retry.
        let mut c = Cache::new(cfg(1, 2, 2, 1), 0);
        let done = run(&mut c, &[(0, 1, 0, false), (0, 2, 64, false)], 8, 80);
        assert_eq!(done.len(), 2);
        assert!(c.probe(0) && c.probe(64));
    }
}

#[cfg(test)]
mod prefetch_integration_tests {
    use super::*;
    use crate::bypass::BypassPolicy;
    use crate::prefetch::PrefetchKind;
    use crate::replacement::Policy;

    fn cfg_with(prefetch: PrefetchKind) -> CacheConfig {
        CacheConfig {
            size_bytes: 8192,
            assoc: 4,
            line_bytes: 64,
            hit_latency: 1,
            ports: 2,
            banks: 1,
            mshrs: 8,
            targets_per_mshr: 4,
            pipelined: true,
            policy: Policy::Lru,
            prefetch,
            bypass: BypassPolicy::None,
        }
    }

    /// Stream sequentially through lines with the given prefetcher; fills
    /// arrive after `lat` cycles. Returns total cycles until the last
    /// completion.
    fn stream_time(prefetch: PrefetchKind, lines: u64, lat: u64) -> (u64, CacheStats) {
        let mut c = Cache::new(cfg_with(prefetch), 0);
        let mut fills: Vec<(u64, u64)> = Vec::new();
        let mut next_line = 0u64;
        let mut completed = 0u64;
        let mut last_completion = 0u64;
        let mut inflight = false;
        for now in 0..200_000u64 {
            // Issue the next access once the previous one completed
            // (a serialized demand stream — worst case without prefetch).
            if !inflight && next_line < lines {
                assert_eq!(
                    c.access(now, AccessId(next_line), next_line * 64, false),
                    AccessResponse::Accepted
                );
                next_line += 1;
                inflight = true;
            }
            let mut i = 0;
            while i < fills.len() {
                if fills[i].0 <= now {
                    let (_, line) = fills.swap_remove(i);
                    c.fill(line);
                } else {
                    i += 1;
                }
            }
            let out = c.step(now);
            for line in out.outgoing_misses {
                fills.push((now + lat, line));
            }
            for _comp in out.completions {
                completed += 1;
                last_completion = now;
                inflight = false;
            }
            if completed == lines {
                break;
            }
        }
        assert_eq!(completed, lines, "stream did not finish");
        (last_completion, *c.stats())
    }

    #[test]
    fn next_line_prefetch_speeds_up_a_serial_stream() {
        let (t_none, s_none) = stream_time(PrefetchKind::None, 64, 20);
        let (t_nl, s_nl) = stream_time(PrefetchKind::NextLine { degree: 2 }, 64, 20);
        assert!(
            t_nl < t_none / 2,
            "next-line {t_nl} vs none {t_none} cycles"
        );
        assert!(s_nl.prefetches > 0);
        assert!(s_nl.useful_prefetches > 0, "prefetches must be consumed");
        assert_eq!(s_none.prefetches, 0);
        // Demand misses shrink: most lines arrive via prefetch.
        assert!(s_nl.primary_misses < s_none.primary_misses / 2);
    }

    #[test]
    fn stride_prefetch_learns_a_strided_stream() {
        let (t_none, _) = stream_time(PrefetchKind::None, 64, 20);
        let (t_st, s_st) = stream_time(PrefetchKind::Stride { distance: 4 }, 64, 20);
        assert!(t_st < t_none, "stride {t_st} vs none {t_none}");
        assert!(s_st.prefetches > 0);
    }

    #[test]
    fn prefetcher_is_harmless_on_a_resident_working_set() {
        // Touch 8 lines repeatedly: after warmup everything hits and the
        // prefetcher generates no useless downstream traffic beyond the
        // initial ramp.
        let mut c = Cache::new(cfg_with(PrefetchKind::NextLine { degree: 1 }), 0);
        let mut fills: Vec<(u64, u64)> = Vec::new();
        let mut id = 0u64;
        for now in 0..4000u64 {
            if now % 4 == 0 {
                id += 1;
                c.access(now, AccessId(id), (id % 8) * 64, false);
            }
            let mut i = 0;
            while i < fills.len() {
                if fills[i].0 <= now {
                    let (_, line) = fills.swap_remove(i);
                    c.fill(line);
                } else {
                    i += 1;
                }
            }
            let out = c.step(now);
            for line in out.outgoing_misses {
                fills.push((now + 10, line));
            }
        }
        let s = c.stats();
        assert!(s.hits > 900, "hits {}", s.hits);
        // Bounded startup traffic only.
        assert!(s.prefetches <= 16, "prefetches {}", s.prefetches);
    }
}

#[cfg(test)]
mod bypass_integration_tests {
    use super::*;
    use crate::bypass::BypassPolicy;
    use crate::prefetch::PrefetchKind;
    use crate::replacement::Policy;

    fn tiny_cfg(bypass: BypassPolicy) -> CacheConfig {
        CacheConfig {
            size_bytes: 2048, // 8 sets × 4 ways = 32 lines
            assoc: 4,
            line_bytes: 64,
            hit_latency: 1,
            ports: 4,
            banks: 1,
            mshrs: 8,
            targets_per_mshr: 8,
            pipelined: true,
            policy: Policy::Lru,
            prefetch: PrefetchKind::None,
            bypass,
        }
    }

    /// Interleave a hot 16-line set with a long stream; return the hit
    /// count on the hot set after warmup.
    fn hot_hits(bypass: BypassPolicy) -> (u64, u64) {
        let mut c = Cache::new(tiny_cfg(bypass), 0);
        let mut fills: Vec<(u64, u64)> = Vec::new();
        let mut id = 0u64;
        let mut stream_pos = 1u64 << 20; // far region, sequential
        let mut hot = 0u64;
        for now in 0..30_000u64 {
            if now % 4 == 0 {
                id += 1;
                hot += 1;
                // Hot line (16-line set, reused for the whole run).
                c.access(now, AccessId(id), (hot % 16) * 64, false);
            } else {
                id += 1;
                // Stream: always a new line, fast enough that plain LRU
                // cannot keep the hot set resident (6 stream fills land in
                // each set between two touches of a given hot line).
                c.access(now, AccessId(id), stream_pos, false);
                stream_pos += 64;
            }
            let mut i = 0;
            while i < fills.len() {
                if fills[i].0 <= now {
                    let (_, l) = fills.swap_remove(i);
                    c.fill(l);
                } else {
                    i += 1;
                }
            }
            let out = c.step(now);
            for line in out.outgoing_misses {
                fills.push((now + 10, line));
            }
        }
        (c.stats().hits, c.stats().bypassed_fills)
    }

    #[test]
    fn bypass_protects_the_hot_set_from_stream_pollution() {
        let (hits_off, byp_off) = hot_hits(BypassPolicy::None);
        let (hits_on, byp_on) = hot_hits(BypassPolicy::region_reuse_default());
        assert_eq!(byp_off, 0);
        assert!(byp_on > 1000, "bypass never engaged: {byp_on}");
        assert!(
            hits_on as f64 > hits_off as f64 * 1.2,
            "bypass should lift hits: {hits_off} → {hits_on}"
        );
    }

    #[test]
    fn bypassed_lines_still_complete_their_waiters() {
        // Every access completes even when its fill is bypassed.
        let mut c = Cache::new(
            tiny_cfg(BypassPolicy::RegionReuse {
                entries: 8,
                min_fills: 2,
            }),
            0,
        );
        let mut fills: Vec<(u64, u64)> = Vec::new();
        let mut completed = 0u64;
        let n = 64u64;
        for now in 0..5_000u64 {
            if now < n * 4 && now % 4 == 0 {
                let k = now / 4;
                c.access(now, AccessId(k), (1 << 20) + k * 64, false);
            }
            let mut i = 0;
            while i < fills.len() {
                if fills[i].0 <= now {
                    let (_, l) = fills.swap_remove(i);
                    c.fill(l);
                } else {
                    i += 1;
                }
            }
            let out = c.step(now);
            completed += out.completions.len() as u64;
            for line in out.outgoing_misses {
                fills.push((now + 5, line));
            }
        }
        assert_eq!(completed, n);
        assert!(c.stats().bypassed_fills > 0);
    }

    #[test]
    fn dirty_fills_are_never_bypassed() {
        // Store misses must install (write-allocate data would be lost).
        let mut c = Cache::new(
            tiny_cfg(BypassPolicy::RegionReuse {
                entries: 8,
                min_fills: 1,
            }),
            0,
        );
        let mut fills: Vec<(u64, u64)> = Vec::new();
        for now in 0..2_000u64 {
            if now < 256 && now % 4 == 0 {
                let k = now / 4;
                c.access(now, AccessId(k), (1 << 20) + k * 64, true);
            }
            let mut i = 0;
            while i < fills.len() {
                if fills[i].0 <= now {
                    let (_, l) = fills.swap_remove(i);
                    c.fill(l);
                } else {
                    i += 1;
                }
            }
            let out = c.step(now);
            for line in out.outgoing_misses {
                fills.push((now + 5, line));
            }
        }
        assert_eq!(c.stats().bypassed_fills, 0);
        // Evictions of the dirty streaming lines produced writebacks.
        assert!(c.stats().writebacks > 0);
    }
}
