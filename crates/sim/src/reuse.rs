//! Measured reuse-distance histograms: the dynamic ground truth the
//! static profiles in `dl-analysis::profile` are validated against.
//!
//! An unbounded shadow LRU stack over cache *lines* tracks, for
//! every load, its **stack distance** — the number of distinct lines
//! referenced since the previous reference to the same line (Olken's
//! algorithm: a Fenwick tree over recency stamps gives each distance
//! in `O(log n)`). Distances land in the same 65 log₂ buckets the
//! static pass emits, so the two histograms compare bucket for
//! bucket, and the classic inclusion property prices every geometry
//! from one run: a fully-associative LRU cache of `C` lines hits an
//! access iff its distance is below `C`, and for the power-of-two
//! capacities this repository sweeps the bucket boundary is exact.
//!
//! Nothing on the per-access path hashes. A line's current stamp sits
//! in a dense per-arena table (see [`LineStamps`]), and the stamp
//! window — the Fenwick tree and its stamp → line inverse — is sized
//! to the live lines: when the clock reaches the window's end the live
//! stamps are renumbered `1..=live` in recency order, and the window
//! doubles whenever the live lines would fill more than half of it.
//!
//! Stores update recency (a loaded block a store just touched is
//! near, not far) but only loads contribute histogram entries —
//! mirroring the static side, which profiles load sites.

use std::collections::BTreeMap;

use dl_mips::layout::{DATA_BASE, HEAP_BASE, STACK_TOP};

use crate::mem::{HEAP_CAP, STACK_LIMIT};

/// Number of log₂ distance buckets (bucket 0 + one per bit of `u64`).
pub const BUCKETS: usize = 65;

/// The log₂ bucket of stack distance `d`: bucket 0 holds distance 0,
/// bucket `b ≥ 1` holds `[2^(b-1), 2^b)`. Identical to the static
/// side's bucketing.
#[must_use]
pub fn distance_bucket(d: u64) -> usize {
    if d == 0 {
        0
    } else {
        (u64::BITS - d.leading_zeros()) as usize
    }
}

/// The measured reuse-distance histogram of one load site.
#[derive(Debug, Clone)]
pub struct SiteHistogram {
    /// Reuse counts per log₂ distance bucket.
    pub buckets: [u64; BUCKETS],
    /// First-touch accesses (no prior reference to the block).
    pub cold: u64,
}

impl Default for SiteHistogram {
    fn default() -> Self {
        SiteHistogram {
            buckets: [0; BUCKETS],
            cold: 0,
        }
    }
}

impl SiteHistogram {
    /// Total accesses recorded at this site.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.cold + self.buckets.iter().sum::<u64>()
    }

    /// Accesses that miss in a fully-associative LRU cache of
    /// `cap_blocks` blocks. Exact for power-of-two capacities; a
    /// straddled bucket is charged fractionally (uniform within the
    /// bucket), matching the static model's scoring.
    #[must_use]
    pub fn misses(&self, cap_blocks: u64) -> f64 {
        let mut misses = self.cold as f64;
        for (b, &n) in self.buckets.iter().enumerate() {
            if n == 0 {
                continue;
            }
            misses += n as f64 * bucket_miss_fraction(b, cap_blocks);
        }
        misses
    }

    /// Miss ratio at `cap_blocks`, or 0 with no accesses.
    #[must_use]
    pub fn miss_ratio(&self, cap_blocks: u64) -> f64 {
        let total = self.total();
        if total == 0 {
            0.0
        } else {
            self.misses(cap_blocks) / total as f64
        }
    }
}

/// Fraction of bucket `b`'s distance range at or beyond `cap` blocks.
fn bucket_miss_fraction(b: usize, cap: u64) -> f64 {
    if cap == 0 {
        return 1.0;
    }
    if b == 0 {
        return 0.0;
    }
    let min_d = 1u64 << (b - 1);
    let max_d = (1u64 << b) - 1;
    if max_d < cap {
        0.0
    } else if min_d >= cap {
        1.0
    } else {
        (max_d + 1 - cap) as f64 / (max_d + 1 - min_d) as f64
    }
}

/// The smallest stamp window. Compaction renumbers the live stamps
/// whenever the clock reaches the window's end; the window grows as
/// the live lines do, so compaction costs amortized `O(1)` per access.
const MIN_WINDOW: usize = 1 << 10;

/// A line's current recency stamp, found without hashing. The
/// simulated address space is three arenas (static data growing up
/// from `DATA_BASE`, the heap growing up from `HEAP_BASE`, the stack
/// growing down from `STACK_TOP`), so a line's slot is its offset into
/// its arena and each table grows to the farthest line touched. A
/// simulated run reaches any other line only through an access that
/// faults; those lines, and any a direct caller records, go to an
/// ordered map off the per-access path.
#[derive(Debug, Clone)]
struct LineStamps {
    /// Per-arena stamp tables (data, heap, stack); 0 marks a line
    /// never touched.
    tables: [Vec<u32>; 3],
    /// Stamps of lines outside every arena.
    outside: BTreeMap<u32, u32>,
    data_first: u32,
    heap_first: u32,
    heap_end: u32,
    stack_first: u32,
    stack_last: u32,
}

impl LineStamps {
    fn new(line_shift: u32) -> Self {
        LineStamps {
            tables: [Vec::new(), Vec::new(), Vec::new()],
            outside: BTreeMap::new(),
            data_first: DATA_BASE >> line_shift,
            heap_first: HEAP_BASE >> line_shift,
            heap_end: (HEAP_BASE + HEAP_CAP) >> line_shift,
            stack_first: STACK_LIMIT >> line_shift,
            stack_last: (STACK_TOP + 15) >> line_shift,
        }
    }

    /// The stamp slot of `line`, growing its arena's table to cover it.
    #[inline]
    fn slot(&mut self, line: u32) -> &mut u32 {
        let (table, index) = if line >= self.stack_first && line <= self.stack_last {
            (2, self.stack_last - line)
        } else if line >= self.heap_first && line < self.heap_end {
            (1, line - self.heap_first)
        } else if line >= self.data_first && line < self.heap_first {
            (0, line - self.data_first)
        } else {
            return self.outside.entry(line).or_insert(0);
        };
        let index = index as usize;
        let stamps = &mut self.tables[table];
        if index >= stamps.len() {
            // A fresh zeroed allocation plus a copy of the old prefix:
            // the untouched tail stays uncommitted until used.
            let mut grown = vec![0; (index + 1).next_power_of_two().max(64)];
            grown[..stamps.len()].copy_from_slice(stamps);
            *stamps = grown;
        }
        &mut stamps[index]
    }
}

/// The shadow LRU stack plus every site's histogram. Attached to a
/// run via `RunConfig::reuse_profile`; collected from
/// `SimOutput::reuse`.
#[derive(Debug, Clone)]
pub struct ReuseMeasurement {
    line_shift: u32,
    /// Per-site histograms, indexed by instruction index.
    sites: Vec<SiteHistogram>,
    /// line → its current recency stamp (1-indexed; 0 = untouched).
    stamps: LineStamps,
    /// stamp → line (`DEAD` marks a superseded stamp); the window is
    /// stamps `1..line_of.len()`.
    line_of: Vec<u32>,
    /// Fenwick tree over the window: one set bit per live line.
    bit: Vec<u32>,
    /// Live lines (= distinct lines ever touched).
    live: u32,
    /// The newest stamp handed out.
    clock: u32,
}

const DEAD: u32 = u32::MAX;

impl ReuseMeasurement {
    /// A fresh measurement for a program of `insts` instructions and
    /// the given cache-line size in bytes (must be a power of two).
    #[must_use]
    pub fn new(insts: usize, line_bytes: u32) -> Self {
        debug_assert!(line_bytes.is_power_of_two());
        let line_shift = line_bytes.trailing_zeros();
        ReuseMeasurement {
            line_shift,
            sites: vec![SiteHistogram::default(); insts],
            stamps: LineStamps::new(line_shift),
            line_of: vec![DEAD; MIN_WINDOW + 1],
            bit: vec![0; MIN_WINDOW + 1],
            live: 0,
            clock: 0,
        }
    }

    fn window(&self) -> usize {
        self.bit.len() - 1
    }

    fn bit_add(&mut self, mut i: usize, delta: i32) {
        let window = self.window();
        while i <= window {
            self.bit[i] = self.bit[i].wrapping_add_signed(delta);
            i += i & i.wrapping_neg();
        }
    }

    fn bit_prefix(&self, mut i: usize) -> u32 {
        let mut sum = 0;
        while i > 0 {
            sum += self.bit[i];
            i -= i & i.wrapping_neg();
        }
        sum
    }

    /// Records one access. `at` is the instruction index; only loads
    /// (`store == false`) contribute histogram entries, but every
    /// access refreshes its line's recency.
    pub fn record(&mut self, at: usize, addr: u32, store: bool) {
        let line = addr >> self.line_shift;
        let old = *self.stamps.slot(line);
        if old == 0 {
            if !store {
                self.sites[at].cold += 1;
            }
        } else if old == self.clock {
            // Already the most recent line: distance 0, and recency
            // is unchanged.
            if !store {
                self.sites[at].buckets[0] += 1;
            }
            return;
        } else {
            // Live lines with a stamp newer than `old` are exactly the
            // distinct lines touched since.
            let d = self.live - self.bit_prefix(old as usize);
            if !store {
                self.sites[at].buckets[distance_bucket(u64::from(d))] += 1;
            }
            self.bit_add(old as usize, -1);
            self.line_of[old as usize] = DEAD;
            self.live -= 1;
        }
        if self.clock as usize == self.window() {
            self.compact();
        }
        self.clock += 1;
        self.line_of[self.clock as usize] = line;
        *self.stamps.slot(line) = self.clock;
        self.bit_add(self.clock as usize, 1);
        self.live += 1;
    }

    /// Renumbers live stamps to `1..=live`, preserving recency order,
    /// doubles the window while the live lines would fill more than
    /// half of it, and rebuilds the Fenwick tree.
    fn compact(&mut self) {
        let mut next = 0;
        for s in 1..=self.clock as usize {
            let line = self.line_of[s];
            if line == DEAD {
                continue;
            }
            next += 1;
            self.line_of[next] = line;
            *self.stamps.slot(line) = next as u32;
        }
        debug_assert_eq!(next, self.live as usize);
        let mut window = self.window();
        while 2 * next > window {
            window *= 2;
        }
        self.line_of.resize(window + 1, DEAD);
        self.line_of[next + 1..].fill(DEAD);
        // Linear-time build over stamps `1..=next` all live: node `i`
        // covers `(i - lowbit(i), i]`.
        self.bit = (0..=window)
            .map(|i| {
                let low = i - (i & i.wrapping_neg());
                (i.min(next) - low.min(next)) as u32
            })
            .collect();
        self.clock = next as u32;
    }

    /// The histogram of load site `at`.
    #[must_use]
    pub fn site(&self, at: usize) -> &SiteHistogram {
        &self.sites[at]
    }

    /// Every site histogram, indexed by instruction index.
    #[must_use]
    pub fn sites(&self) -> &[SiteHistogram] {
        &self.sites
    }

    /// Load sites with at least one recorded access, in index order.
    #[must_use]
    pub fn active_sites(&self) -> Vec<usize> {
        (0..self.sites.len())
            .filter(|&i| self.sites[i].total() > 0)
            .collect()
    }

    /// Aggregate miss ratio over every site at `cap_blocks`, or 0
    /// with no recorded loads.
    #[must_use]
    pub fn aggregate_miss_ratio(&self, cap_blocks: u64) -> f64 {
        let total: u64 = self.sites.iter().map(SiteHistogram::total).sum();
        if total == 0 {
            return 0.0;
        }
        let misses: f64 = self.sites.iter().map(|s| s.misses(cap_blocks)).sum();
        misses / total as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucketing_matches_the_static_side() {
        assert_eq!(distance_bucket(0), 0);
        assert_eq!(distance_bucket(1), 1);
        assert_eq!(distance_bucket(3), 2);
        assert_eq!(distance_bucket(4), 3);
        assert_eq!(distance_bucket(255), 8);
        assert_eq!(distance_bucket(256), 9);
    }

    #[test]
    fn distances_count_distinct_blocks() {
        let mut m = ReuseMeasurement::new(4, 32);
        // A, B, C, A: A's reuse skipped B and C → distance 2.
        m.record(0, 0x000, false);
        m.record(0, 0x020, false);
        m.record(0, 0x040, false);
        m.record(1, 0x000, false);
        assert_eq!(m.site(0).cold, 3);
        assert_eq!(m.site(1).buckets[distance_bucket(2)], 1);
        // Same-block re-touch is distance 0.
        m.record(1, 0x004, false);
        assert_eq!(m.site(1).buckets[0], 1);
    }

    #[test]
    fn duplicate_intervening_blocks_count_once() {
        let mut m = ReuseMeasurement::new(2, 32);
        // A, B, B, B, A: only one distinct block between → distance 1.
        m.record(0, 0x000, false);
        for _ in 0..3 {
            m.record(0, 0x020, false);
        }
        m.record(1, 0x000, false);
        assert_eq!(m.site(1).buckets[1], 1);
    }

    #[test]
    fn stores_refresh_recency_without_histogram_entries() {
        let mut m = ReuseMeasurement::new(2, 32);
        m.record(0, 0x000, false);
        m.record(0, 0x020, false);
        // The store touches A again, so the next load of A is near.
        m.record(1, 0x000, true);
        m.record(0, 0x000, false);
        assert_eq!(m.site(1).total(), 0, "stores record nothing");
        assert_eq!(m.site(0).buckets[0], 1, "store refreshed recency");
    }

    #[test]
    fn inclusion_prices_every_geometry_from_one_run() {
        let mut m = ReuseMeasurement::new(1, 32);
        // Walk 512 blocks twice: second pass reuses at distance 511.
        for pass in 0..2 {
            for b in 0u32..512 {
                let _ = pass;
                m.record(0, b * 32, false);
            }
        }
        let s = m.site(0);
        assert_eq!(s.cold, 512);
        // 512-block reuses: distance 511 → bucket 9.
        assert_eq!(s.buckets[9], 512);
        // 256-block cache (8 KiB / 32 B): every reuse misses.
        assert!((s.miss_ratio(256) - 1.0).abs() < 1e-12);
        // 2048-block cache (64 KiB): only the cold pass misses.
        assert!((s.miss_ratio(2048) - 0.5).abs() < 1e-12);
    }

    /// The textbook O(n) LRU stack: a line's distance is its depth.
    fn naive_histograms(insts: usize, trace: &[(usize, u32, bool)]) -> Vec<SiteHistogram> {
        let mut sites = vec![SiteHistogram::default(); insts];
        let mut stack: Vec<u32> = Vec::new();
        for &(at, addr, store) in trace {
            let line = addr >> 5;
            match stack.iter().position(|&l| l == line) {
                Some(depth) => {
                    stack.remove(depth);
                    if !store {
                        sites[at].buckets[distance_bucket(depth as u64)] += 1;
                    }
                }
                None if !store => sites[at].cold += 1,
                None => {}
            }
            stack.insert(0, line);
        }
        sites
    }

    #[test]
    fn histograms_match_a_naive_lru_stack() {
        use dl_mips::layout::{DATA_BASE, HEAP_BASE};
        const STACK_TOP_LINE: u32 = STACK_TOP & !31;
        dl_testkit::cases(12, 0x5eed_05e5, |rng| {
            // Lines per arena, scaled so some cases stay inside the
            // minimum window and others force it to grow.
            let span = 1 + rng.index(1200) as u32;
            let len = 6 * MIN_WINDOW + rng.index(4 * MIN_WINDOW);
            let mut trace: Vec<(usize, u32, bool)> = Vec::with_capacity(len);
            for _ in 0..len {
                let addr = if rng.chance(0.3) && !trace.is_empty() {
                    // Revisit a line of the last few accesses: runs of
                    // distance-0 and short-distance reuse.
                    let back = 1 + rng.index(trace.len().min(8));
                    (trace[trace.len() - back].1 & !31) | (rng.range_u32(0, 8) * 4)
                } else {
                    let line = rng.below(u64::from(span)) as u32 * 32;
                    match rng.index(3) {
                        0 => DATA_BASE + line,
                        1 => HEAP_BASE + line,
                        _ => STACK_TOP_LINE - line,
                    }
                };
                trace.push((rng.index(4), addr, rng.chance(0.25)));
            }
            let mut m = ReuseMeasurement::new(4, 32);
            for &(at, addr, store) in &trace {
                m.record(at, addr, store);
            }
            let want = naive_histograms(4, &trace);
            for (at, (got, want)) in m.sites().iter().zip(&want).enumerate() {
                assert_eq!(got.cold, want.cold, "site {at} cold");
                assert_eq!(got.buckets, want.buckets, "site {at} buckets");
            }
        });
    }

    #[test]
    fn compaction_preserves_distances() {
        let mut m = ReuseMeasurement::new(2, 32);
        // Two hot blocks re-referenced across enough traffic to force
        // several compactions.
        for i in 0..(MIN_WINDOW * 4 + 17) {
            m.record(0, (i as u32 % 7) * 32, false);
        }
        m.record(1, 0x000, false);
        let s = m.site(1);
        // 7 live blocks; block 0 was most recently at most 6 away.
        assert_eq!(s.total(), 1);
        assert_eq!(s.buckets.iter().sum::<u64>(), 1);
        let hit_small = s.miss_ratio(8);
        assert_eq!(hit_small, 0.0, "distance must stay ≤ 6: {s:?}");
    }
}
