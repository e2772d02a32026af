//! Cycle-level cache simulator for the LPM reproduction.
//!
//! This crate supplies the cache substrate the paper's evaluation depends on
//! (GEM5's classic caches in the original): a set-associative, write-back /
//! write-allocate cache that is
//!
//! * **non-blocking** — misses allocate [`mshr::MshrFile`] entries and the
//!   cache keeps accepting accesses while fills are outstanding (the source
//!   of pure-miss concurrency `CM`),
//! * **multi-ported and banked** — per-cycle port and bank arbitration
//!   limits hit concurrency `CH` (the L1-port and L2-interleaving knobs of
//!   Table I),
//! * **replacement-pluggable** — LRU, FIFO, Random and tree-PLRU.
//!
//! The timing contract is documented on [`cache::Cache`]; the surrounding
//! hierarchy (crate `lpm-sim`) drives one `begin_cycle → access* → step`
//! round per simulated cycle and routes [`cache::StepOutput`] between
//! levels.
//!
//! An optional next-line/stride [`prefetch`] module implements one of the
//! paper's "future work" optimizations; the cache's unit tests assert
//! that each prefetcher speeds up the stream it targets.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod array;
pub mod bypass;
pub mod cache;
pub mod config;
pub mod mshr;
pub mod prefetch;
pub mod replacement;
pub mod stats;

pub use bypass::BypassPolicy;
pub use cache::{AccessId, AccessResponse, Cache, Completion, StepOutput};
pub use config::CacheConfig;
pub use prefetch::PrefetchKind;
pub use replacement::Policy;
pub use stats::CacheStats;
