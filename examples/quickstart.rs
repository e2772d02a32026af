//! Quickstart: simulate one workload, measure its C-AMAT parameters and
//! layered matching ratios, and predict its data stall time from the LPM
//! equations — then compare against the simulator's ground truth.
//!
//! Run with:
//! ```text
//! cargo run --release -p lpm --example quickstart
//! ```

use lpm::prelude::*;

fn main() {
    // 1. Pick a workload from the SPEC CPU2006-like suite and generate a
    //    deterministic instruction trace.
    let workload = SpecWorkload::GccLike;
    let instructions = 60_000;
    let trace = workload.generator().generate(instructions, 42);
    println!("workload: {workload} ({instructions} instructions)");

    // 2. Build a single-core system (4-wide OoO core, 32 KiB L1, 2 MiB
    //    shared-style L2, DDR3-flavoured DRAM) and run it, excluding the
    //    first half as cache warmup.
    let mut sys = System::new_looping(SystemConfig::default(), trace, 1, 42);
    sys.cmp_mut().warm_up(instructions as u64 / 2);
    let drained = sys
        .cmp_mut()
        .run(Until::Finished, 200_000_000, &mut NullRecorder)
        .expect("simulator error");
    assert!(drained, "trace did not finish");

    // 3. Read the measurements.
    let r = sys.report();
    println!("\n== core ==");
    println!("IPC                : {:.3}", r.core.ipc());
    println!("CPIexe (perfect $) : {:.3}", r.cpi_exe);
    println!("fmem               : {:.3}", r.core.fmem());
    println!("overlapRatio_c-m   : {:.3}", r.core.overlap_ratio());

    println!("\n== L1 C-AMAT parameters (Eq. 2) ==");
    let l1 = r.l1;
    println!("H1   = {} cycles", l1.hit_time);
    println!("CH1  = {:.2}", l1.ch());
    println!("pMR1 = {:.4}  (MR1 = {:.4})", l1.pmr(), l1.mr());
    println!("pAMP1= {:.1} cycles  (AMP1 = {:.1})", l1.pamp(), l1.amp());
    println!(
        "CM1  = {:.2}  (Cm1 = {:.2})",
        l1.cm_pure(),
        l1.cm_conventional()
    );
    println!(
        "C-AMAT1 = {:.3} cycles/access (= 1/APC1, APC1 = {:.3})",
        r.camat1(),
        l1.apc()
    );

    // The Eq. (2) ≡ Eq. (3) identity, measured on live hardware counters.
    r.check(1.0).expect("C-AMAT identity holds");

    // 4. Layered matching ratios (Eq. 9–11) and thresholds (Eq. 14/15).
    let lpmrs = r.lpmrs().expect("report has all three layers");
    println!("\n== layered performance matching ==");
    println!("LPMR1 = {:.2}", lpmrs.l1.value());
    println!("LPMR2 = {:.2}", lpmrs.l2.value());
    println!("LPMR3 = {:.2}", lpmrs.l3.value());

    let m = LpmMeasurement::from_report(&r, Grain::Coarse).expect("report is complete");
    println!(
        "T1 (coarse, Δ=10%) = {:.3} → L1 {}",
        m.t1,
        if m.l1_matched() {
            "matched"
        } else {
            "MISMATCHED"
        }
    );
    println!(
        "T2 (coarse)        = {:.3} → L2 {}",
        m.t2,
        if m.l2_matched() {
            "matched"
        } else {
            "MISMATCHED"
        }
    );

    // 5. Stall time: Eq. (12) prediction vs simulator ground truth.
    let predicted = r
        .predicted_stall_eq12()
        .expect("report has all three layers");
    let measured = r.measured_stall();
    println!("\n== data stall time (cycles/instruction) ==");
    println!("Eq. 12 prediction : {predicted:.3}");
    println!("measured          : {measured:.3}");
    println!(
        "stall fraction    : {:.1}% of execution time",
        100.0 * measured / (r.core.cpi())
    );
}
