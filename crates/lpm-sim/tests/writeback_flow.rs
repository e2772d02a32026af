//! Dirty-data flow through the hierarchy: stores dirty L1 lines, evictions
//! push them to the L2, L2 evictions reach DRAM as writes, and the posted
//! writes never disturb demand correctness.

use lpm_cache::CacheConfig;
use lpm_cpu::CoreConfig;
use lpm_dram::DramConfig;
use lpm_sim::{Cmp, CoreSlot, System, SystemConfig, Until};
use lpm_telemetry::NullRecorder;
use lpm_trace::{Generator, Instr, Trace};

/// Run every core to completion, then drain, within the absolute `cap`.
fn finish(cmp: &mut Cmp, cap: u64) -> bool {
    cmp.run(Until::Finished, cap, &mut NullRecorder)
        .expect("simulator error")
}

fn tiny_l1() -> CacheConfig {
    let mut l1 = CacheConfig::l1_default();
    l1.size_bytes = 4 << 10; // force evictions quickly
    l1.assoc = 4;
    l1
}

#[test]
fn store_dirty_lines_are_written_back_to_l2() {
    // Store-sweep twice the L1 capacity: every line gets dirty, half get
    // evicted → writebacks must reach the L2 as stores.
    let lines = 2 * (4 << 10) / 64;
    let trace: Trace = (0..lines as u64)
        .flat_map(|i| [Instr::store(i * 64), Instr::compute()])
        .collect();
    let mut cmp = Cmp::new_looping(
        vec![CoreSlot {
            core: CoreConfig::small(),
            l1: tiny_l1(),
        }],
        CacheConfig::l2_default(),
        DramConfig::ddr3_default(),
        vec![trace],
        1,
        7,
    );
    assert!(finish(&mut cmp, 10_000_000));
    let l1 = cmp.l1_stats(0);
    assert!(l1.writebacks > 0, "no L1 writebacks");
    // The L2 saw both the demand fetch-for-write traffic and the
    // writeback stores.
    let l2 = cmp.l2_stats();
    assert!(
        l2.accesses >= l1.primary_misses + l1.writebacks,
        "L2 accesses {} < misses {} + writebacks {}",
        l2.accesses,
        l1.primary_misses,
        l1.writebacks
    );
}

#[test]
fn l2_evictions_reach_dram_as_writes() {
    // Dirty an area larger than the L2 so its evictions generate DRAM
    // writes. 3 MiB of stores against a 2 MiB L2.
    let lines = (3 << 20) / 64;
    let trace: Trace = (0..lines as u64).map(|i| Instr::store(i * 64)).collect();
    let mut l1 = tiny_l1();
    l1.mshrs = 16;
    l1.ports = 4;
    let mut cmp = Cmp::new_looping(
        vec![CoreSlot {
            core: CoreConfig::big(),
            l1,
        }],
        CacheConfig::l2_default(),
        DramConfig::ddr3_default(),
        vec![trace],
        1,
        7,
    );
    assert!(finish(&mut cmp, 100_000_000));
    let d = cmp.dram_stats();
    assert!(d.writes > 0, "no DRAM writes observed");
    assert!(d.reads > 0, "write-allocate fetches must read");
}

#[test]
fn rewritten_lines_round_trip_without_losing_completions() {
    // Alternate store/load on the same shifting window so lines bounce
    // between levels; the run must drain with every instruction retired.
    let n = 30_000;
    let gen = lpm_trace::gen::StrideGen::new(2, 64, 16 << 10, 0.6).with_stores(0.5);
    let trace = gen.generate(n, 3);
    let mut sys = System::new_looping(
        SystemConfig {
            l1: tiny_l1(),
            ..SystemConfig::default()
        },
        trace,
        1,
        3,
    );
    assert!(finish(sys.cmp_mut(), 100_000_000), "did not drain");
    assert_eq!(sys.report().core.retired, n as u64);
}

#[test]
fn writeback_traffic_is_counted_at_l2_but_has_no_core_consumer() {
    // Writebacks complete silently: the core's completion count must
    // equal its own memory instructions, not be inflated by writebacks.
    let lines = 4 * (4 << 10) / 64;
    let trace: Trace = (0..lines as u64).map(|i| Instr::store(i * 64)).collect();
    let n = trace.len() as u64;
    let mut cmp = Cmp::new_looping(
        vec![CoreSlot {
            core: CoreConfig::small(),
            l1: tiny_l1(),
        }],
        CacheConfig::l2_default(),
        DramConfig::ddr3_default(),
        vec![trace],
        1,
        7,
    );
    assert!(finish(&mut cmp, 50_000_000));
    assert_eq!(cmp.core_stats(0).retired, n);
    assert_eq!(cmp.core_stats(0).mem_issued, n);
    assert!(cmp.l1_stats(0).writebacks > 0);
}

#[test]
fn system_level_prefetch_accelerates_dependent_walk() {
    // End-to-end check that the L1 prefetcher configured through
    // SystemConfig actually helps a dependent sequential walk.
    let n = 6_000usize;
    let trace: Trace = (0..n)
        .map(|i| {
            if i % 2 == 0 {
                let l = Instr::load((i as u64 / 2) * 64);
                if i >= 2 {
                    l.depending_on(2)
                } else {
                    l
                }
            } else {
                Instr::compute()
            }
        })
        .collect();
    let run_with = |prefetch| {
        let mut cfg = SystemConfig::default();
        cfg.l1.prefetch = prefetch;
        let mut sys = System::new_looping(cfg, trace.clone(), 1, 1);
        assert!(finish(sys.cmp_mut(), 100_000_000));
        (sys.now(), sys.cmp().l1_stats(0).useful_prefetches)
    };
    let (t_none, up_none) = run_with(lpm_cache::PrefetchKind::None);
    let (t_nl, up_nl) = run_with(lpm_cache::PrefetchKind::NextLine { degree: 2 });
    assert_eq!(up_none, 0);
    assert!(up_nl > 100, "useful prefetches {up_nl}");
    assert!(
        t_nl < t_none * 9 / 10,
        "prefetch did not help: {t_none} → {t_nl} cycles"
    );
}
