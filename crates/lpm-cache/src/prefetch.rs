//! Hardware prefetchers — next-line and stride — implementing one of the
//! paper's listed future-work optimizations ("selective cache replacement,
//! memory parallelism partition" family): extra supply-side concurrency
//! that moves LPMR1/LPMR2.

/// Prefetcher selection for a cache configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PrefetchKind {
    /// No prefetching (the baseline).
    None,
    /// Next-N-line on miss.
    NextLine {
        /// Sequential lines fetched per trigger.
        degree: u32,
    },
    /// Stride-detecting with a 16-entry table.
    Stride {
        /// Prefetch distance in detected strides.
        distance: u32,
    },
}

/// A concrete prefetch engine built from a [`PrefetchKind`].
#[derive(Debug, Clone)]
pub enum Engine {
    /// No prefetching.
    None(NoPrefetch),
    /// Next-line engine.
    NextLine(NextLinePrefetch),
    /// Stride engine.
    Stride(StridePrefetch),
}

impl Engine {
    /// Instantiate the engine for a cache with the given line size.
    pub fn new(kind: PrefetchKind, line_bytes: u64) -> Self {
        match kind {
            PrefetchKind::None => Engine::None(NoPrefetch),
            PrefetchKind::NextLine { degree } => {
                Engine::NextLine(NextLinePrefetch::new(line_bytes, degree))
            }
            PrefetchKind::Stride { distance } => Engine::Stride(StridePrefetch::new(16, distance)),
        }
    }

    /// Dispatch to the underlying engine.
    pub fn observe(&mut self, line_addr: u64, was_miss: bool) -> Vec<u64> {
        match self {
            Engine::None(p) => p.observe(line_addr, was_miss),
            Engine::NextLine(p) => p.observe(line_addr, was_miss),
            Engine::Stride(p) => p.observe(line_addr, was_miss),
        }
    }
}

/// A prefetch engine observing demand line addresses and proposing lines
/// to fetch.
pub trait Prefetcher {
    /// Observe a demand access (line address, hit or miss) and return the
    /// lines to prefetch, if any.
    fn observe(&mut self, line_addr: u64, was_miss: bool) -> Vec<u64>;

    /// Name for reports.
    fn name(&self) -> &'static str;
}

/// No prefetching (the baseline).
#[derive(Debug, Default, Clone)]
pub struct NoPrefetch;

impl Prefetcher for NoPrefetch {
    fn observe(&mut self, _line_addr: u64, _was_miss: bool) -> Vec<u64> {
        Vec::new()
    }
    fn name(&self) -> &'static str {
        "none"
    }
}

/// Next-N-line prefetcher: on a miss, fetch the following `degree` lines.
#[derive(Debug, Clone)]
pub struct NextLinePrefetch {
    /// Line size in bytes.
    pub line_bytes: u64,
    /// How many sequential lines to fetch per trigger.
    pub degree: u32,
}

impl NextLinePrefetch {
    /// A degree-1 next-line prefetcher for 64 B lines.
    pub fn new(line_bytes: u64, degree: u32) -> Self {
        assert!(degree >= 1);
        Self { line_bytes, degree }
    }
}

impl Prefetcher for NextLinePrefetch {
    fn observe(&mut self, line_addr: u64, was_miss: bool) -> Vec<u64> {
        if !was_miss {
            return Vec::new();
        }
        (1..=self.degree as u64)
            .map(|k| line_addr + k * self.line_bytes)
            .collect()
    }
    fn name(&self) -> &'static str {
        "next-line"
    }
}

/// Stride prefetcher with a small table of recent (region, last, stride)
/// entries; issues a prefetch when the same stride repeats.
#[derive(Debug, Clone)]
pub struct StridePrefetch {
    /// Region granularity for the tracking table (bytes).
    pub region_bytes: u64,
    /// Prefetch distance in strides.
    pub distance: u32,
    table: Vec<StrideEntry>,
}

#[derive(Debug, Clone, Copy)]
struct StrideEntry {
    region: u64,
    last: u64,
    stride: i64,
    confidence: u8,
}

/// Sentinel marking an unused tracking slot.
const EMPTY: u64 = u64::MAX;

impl Default for StrideEntry {
    fn default() -> Self {
        StrideEntry {
            region: EMPTY,
            last: EMPTY,
            stride: 0,
            confidence: 0,
        }
    }
}

impl StridePrefetch {
    /// A stride prefetcher with `entries` tracking slots.
    pub fn new(entries: usize, distance: u32) -> Self {
        assert!(entries >= 1 && distance >= 1);
        Self {
            region_bytes: 4096,
            distance,
            table: vec![StrideEntry::default(); entries],
        }
    }
}

impl Prefetcher for StridePrefetch {
    fn observe(&mut self, line_addr: u64, _was_miss: bool) -> Vec<u64> {
        let region = line_addr / self.region_bytes;
        let slot = (region as usize) % self.table.len();
        let e = &mut self.table[slot];
        let mut out = Vec::new();
        if e.region == region && e.last != EMPTY {
            let stride = line_addr as i64 - e.last as i64;
            if stride != 0 && stride == e.stride {
                if e.confidence < 3 {
                    e.confidence += 1;
                }
                // Two confirmations of the same stride before firing.
                if e.confidence >= 2 {
                    let target = line_addr as i64 + stride * self.distance as i64;
                    if target > 0 {
                        out.push(target as u64);
                    }
                }
            } else {
                e.stride = stride;
                e.confidence = 0;
            }
        } else {
            *e = StrideEntry::default();
        }
        e.region = region;
        e.last = line_addr;
        out
    }
    fn name(&self) -> &'static str {
        "stride"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_prefetch_never_fires() {
        let mut p = NoPrefetch;
        assert!(p.observe(0, true).is_empty());
    }

    #[test]
    fn next_line_fires_on_miss_only() {
        let mut p = NextLinePrefetch::new(64, 2);
        assert!(p.observe(128, false).is_empty());
        assert_eq!(p.observe(128, true), vec![192, 256]);
    }

    #[test]
    fn stride_detects_constant_stride_after_confidence() {
        let mut p = StridePrefetch::new(16, 4);
        // Accesses at stride 128 within one region.
        assert!(p.observe(0, true).is_empty()); // first touch
        assert!(p.observe(128, true).is_empty()); // stride learned
        assert!(p.observe(256, true).is_empty()); // confidence 1
        let out = p.observe(384, true); // confidence 2 → fire
        assert_eq!(out, vec![384 + 128 * 4]);
    }

    #[test]
    fn stride_resets_on_stride_change() {
        let mut p = StridePrefetch::new(16, 2);
        p.observe(0, true);
        p.observe(128, true);
        p.observe(256, true);
        assert!(!p.observe(384, true).is_empty());
        // Break the pattern.
        assert!(p.observe(64, true).is_empty());
        assert!(p.observe(512, true).is_empty());
    }

    #[test]
    fn stride_tracks_regions_independently() {
        let mut p = StridePrefetch::new(16, 1);
        // Region A at stride 64; region B interleaved at stride 256.
        // b0's region (69) maps to a different table slot than a0's (0).
        let a0 = 0u64;
        let b0 = 69 * 4096;
        p.observe(a0, true);
        p.observe(b0, true);
        p.observe(a0 + 64, true);
        p.observe(b0 + 256, true);
        p.observe(a0 + 128, true);
        p.observe(b0 + 512, true);
        let fa = p.observe(a0 + 192, true);
        let fb = p.observe(b0 + 768, true);
        assert_eq!(fa, vec![a0 + 256]);
        assert_eq!(fb, vec![b0 + 1024]);
    }
}
