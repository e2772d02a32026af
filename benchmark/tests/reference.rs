//! Regenerate the recorded output digests at seeds 0..32: the
//! `lpm_bench` reference output behind `repro::REFERENCE_DIGESTS` and the
//! sweep export behind `sweep::EXPORT_DIGESTS`. Minutes of work, so they
//! only run on request:
//!
//! ```text
//! cargo test --release --manifest-path benchmark/Cargo.toml -- --ignored --nocapture
//! ```

use lpm_benchmark::out::fnv1a;
use lpm_benchmark::repro::{reference, REFERENCE_DIGESTS};

/// About 13 s per seed in release on two CPUs.
#[test]
#[ignore]
fn reference_digests() {
    let digests: Vec<u64> = (0..32)
        .map(|seed| fnv1a(reference(seed).render().as_bytes()))
        .collect();
    for (seed, d) in digests.iter().enumerate() {
        println!("seed {seed}: {d:#018x}");
    }
    assert_eq!(
        digests, REFERENCE_DIGESTS,
        "update repro::REFERENCE_DIGESTS"
    );
}

/// Regenerates `sweep::EXPORT_DIGESTS` (about 7 s per seed in release on
/// two CPUs).
#[test]
#[ignore]
fn export_digests() {
    use lpm_benchmark::sweep::{export_digest, spec, EXPORT_DIGESTS};
    let digests: Vec<u64> = (0..32)
        .map(|seed| {
            let report = lpm_harness::run_sweep(&spec(seed), lpm_benchmark::out::nproc())
                .expect("sweep runs");
            export_digest(&report)
        })
        .collect();
    for (seed, d) in digests.iter().enumerate() {
        println!("seed {seed}: {d:#018x}");
    }
    assert_eq!(digests, EXPORT_DIGESTS, "update sweep::EXPORT_DIGESTS");
}
