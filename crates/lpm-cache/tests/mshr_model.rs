//! Differential oracle for the MSHR file: `MshrFile` (a flat vector
//! searched linearly) against a dumb model keyed by line address in a
//! `BTreeMap`, under random sequences of every mutating call. Each call
//! must return the same accept/reject result, a completed entry must hand
//! back the same targets in the same order, and the waiting, unpure and
//! occupancy views must agree after every step. Both stepping modes of
//! the simulator share the MSHR file, so the fast-vs-reference suite
//! cannot see a fault here; this test can.

use std::collections::BTreeMap;

use lpm_cache::mshr::{MshrAccept, MshrFile, MshrReject, Target};
use lpm_cache::AccessId;
use proptest::prelude::*;

#[derive(Debug, Clone, PartialEq)]
struct Entry {
    targets: Vec<Target>,
    prefetch_only: bool,
    started_as_prefetch: bool,
}

/// The MSHR file as a specification.
struct Model {
    capacity: usize,
    targets_per_entry: usize,
    entries: BTreeMap<u64, Entry>,
}

impl Model {
    fn allocate(
        &mut self,
        line: u64,
        id: AccessId,
        is_store: bool,
    ) -> Result<MshrAccept, MshrReject> {
        let target = Target {
            id,
            is_store,
            pure: false,
        };
        if let Some(e) = self.entries.get_mut(&line) {
            if e.targets.len() >= self.targets_per_entry {
                return Err(MshrReject::TargetsFull);
            }
            e.targets.push(target);
            e.prefetch_only = false;
            return Ok(MshrAccept::Secondary);
        }
        if self.entries.len() >= self.capacity {
            return Err(MshrReject::Full);
        }
        let entry = Entry {
            targets: vec![target],
            prefetch_only: false,
            started_as_prefetch: false,
        };
        self.entries.insert(line, entry);
        Ok(MshrAccept::Primary)
    }

    fn allocate_prefetch(&mut self, line: u64) -> Result<bool, MshrReject> {
        if self.entries.contains_key(&line) {
            return Ok(false);
        }
        if self.entries.len() >= self.capacity {
            return Err(MshrReject::Full);
        }
        let entry = Entry {
            targets: Vec::new(),
            prefetch_only: true,
            started_as_prefetch: true,
        };
        self.entries.insert(line, entry);
        Ok(true)
    }

    fn targets(&mut self) -> impl Iterator<Item = &mut Target> {
        self.entries.values_mut().flat_map(|e| e.targets.iter_mut())
    }

    fn mark_all_pure(&mut self) -> u64 {
        let mut newly = 0;
        for t in self.targets() {
            newly += u64::from(!t.pure);
            t.pure = true;
        }
        newly
    }

    fn set_pure(&mut self, line: u64, id: AccessId) {
        if let Some(e) = self.entries.get_mut(&line) {
            for t in e.targets.iter_mut().filter(|t| t.id == id) {
                t.pure = true;
            }
        }
    }

    fn waiting(&self) -> u64 {
        self.entries.values().map(|e| e.targets.len() as u64).sum()
    }
}

/// Replays `ops` on both sides and returns the first disagreement. Each
/// op is `(kind, line, x)`: `line` picks one of eight line addresses and
/// `x` a store flag, an earlier access id or a capacity.
fn replay(capacity: usize, targets_per_entry: usize, ops: &[(u8, u64, u64)]) -> Result<(), String> {
    let mut file = MshrFile::new(capacity, targets_per_entry);
    let mut model = Model {
        capacity,
        targets_per_entry,
        entries: BTreeMap::new(),
    };
    let mut next_id = 0u64;
    for (step, &(kind, line, x)) in ops.iter().enumerate() {
        let line = line * 64;
        let what = match kind {
            0..=2 => {
                let id = AccessId(next_id);
                next_id += 1;
                let got = file.allocate(line, id, x % 2 == 1);
                let want = model.allocate(line, id, x % 2 == 1);
                (got != want).then(|| format!("allocate({line}): {got:?} != model {want:?}"))
            }
            3 => {
                let got = file.allocate_prefetch(line);
                let want = model.allocate_prefetch(line);
                (got != want)
                    .then(|| format!("allocate_prefetch({line}): {got:?} != model {want:?}"))
            }
            4 => {
                let got = file.complete(line).map(|e| Entry {
                    targets: e.targets,
                    prefetch_only: e.prefetch_only,
                    started_as_prefetch: e.started_as_prefetch,
                });
                let want = model.entries.remove(&line);
                let differs = got != want;
                // Hand every other list back for reuse, as the cache does.
                if let Some(e) = got.filter(|_| x % 2 == 0) {
                    file.recycle(e.targets);
                }
                differs.then(|| format!("complete({line}) differs from the model"))
            }
            5 => {
                let (got, want) = (file.mark_all_pure(), model.mark_all_pure());
                (got != want).then(|| format!("mark_all_pure: {got} != model {want}"))
            }
            6 => {
                let id = AccessId(x % next_id.max(1));
                file.set_pure(line, id);
                model.set_pure(line, id);
                None
            }
            _ => {
                let capacity = 1 + (x % 6) as usize;
                file.set_capacity(capacity);
                model.capacity = capacity;
                None
            }
        };
        if let Some(msg) = what {
            return Err(format!("step {step}: {msg}"));
        }
        let lines: Vec<u64> = model.entries.keys().copied().collect();
        if file.outstanding_lines() != lines || file.in_use() != lines.len() {
            return Err(format!(
                "step {step}: lines {:?} != model {lines:?}",
                file.outstanding_lines()
            ));
        }
        if file.waiting_count() != model.waiting() {
            return Err(format!(
                "step {step}: waiting {} != model {}",
                file.waiting_count(),
                model.waiting()
            ));
        }
        if let Some(l) = (0..8)
            .map(|l| l * 64)
            .find(|&l| file.contains(l) != lines.contains(&l))
        {
            return Err(format!("step {step}: contains({l}) disagrees"));
        }
    }
    // What is still unpure must agree too.
    let (got, want) = (file.mark_all_pure(), model.mark_all_pure());
    if got != want {
        return Err(format!("final unpure count {got} != model {want}"));
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]
    /// The flat MSHR file answers every call exactly as a line-keyed
    /// ordered map, including after capacity shrinks below occupancy.
    #[test]
    fn flat_mshr_file_matches_btreemap_model(
        capacity in 1usize..6,
        targets_per_entry in 1usize..4,
        ops in proptest::collection::vec((0u8..8, 0u64..8, any::<u64>()), 1..200),
    ) {
        replay(capacity, targets_per_entry, &ops)?;
    }
}
