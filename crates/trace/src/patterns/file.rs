//! File-set access pattern (`httpd`-like web-server workload).
//!
//! The paper's `httpd` trace serves 13,457 files totalling 524 MB from a
//! 7-node web server (§4.2). A web request reads one file front-to-back, so
//! the block stream is a Zipf-popular choice of file followed by a
//! sequential run over that file's blocks. [`FileSetPattern`] models exactly
//! that: a seeded synthetic file set with log-normal-ish sizes and Zipf file
//! popularity.

use super::Pattern;
use crate::{seeded_rng, BlockId, FileId, Zipf};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::Rng;

/// Whole-file sequential reads with Zipf file popularity.
///
/// # Examples
///
/// ```
/// use ulc_trace::patterns::{FileSetPattern, Pattern};
///
/// let mut p = FileSetPattern::new(100, 4096, 1.0, 3);
/// let first = p.next_block();
/// let second = p.next_block();
/// // Inside one file the read is sequential.
/// if first.file() == second.file() {
///     assert_eq!(second.offset(), first.offset() + 1);
/// }
/// ```
#[derive(Clone, Debug)]
pub struct FileSetPattern {
    /// Blocks per file, indexed by popularity rank.
    file_blocks: Vec<u32>,
    /// rank → actual file id (scrambled so popularity ≠ id order).
    file_of_rank: Vec<u32>,
    popularity: Zipf,
    /// Currently streaming file: (file rank, next offset).
    current: Option<(usize, u32)>,
    /// Every `churn_interval` file selections, a hot rank and a random
    /// rank swap files: popularity drifts over time. 0 = static.
    churn_interval: u64,
    selections: u64,
    /// With probability `recency_bias`, the next file is re-picked from
    /// the `recent` window instead of the popularity distribution.
    recency_bias: f64,
    recent: std::collections::VecDeque<usize>,
    recent_window: usize,
    rng: StdRng,
}

impl FileSetPattern {
    /// Builds a file set of `num_files` files whose sizes are drawn so the
    /// total is about `total_blocks` blocks, with Zipf(θ=`theta`) popularity.
    ///
    /// Sizes follow a heavy-tailed distribution (most files a few blocks,
    /// a few large ones), matching web-content size distributions.
    ///
    /// # Panics
    ///
    /// Panics if `num_files` is zero or `total_blocks < num_files`.
    pub fn new(num_files: u32, total_blocks: u64, theta: f64, seed: u64) -> Self {
        assert!(num_files > 0, "file set must be non-empty");
        assert!(
            total_blocks >= num_files as u64,
            "need at least one block per file"
        );
        let mut rng = seeded_rng(seed);
        // Draw raw sizes from an exponentiated uniform (heavy tail), then
        // rescale to hit total_blocks while keeping every file >= 1 block.
        let raw: Vec<f64> = (0..num_files)
            .map(|_| (-(rng.gen::<f64>()).ln()).exp().min(1e4))
            .collect();
        let raw_sum: f64 = raw.iter().sum();
        let spare = total_blocks - num_files as u64;
        let mut file_blocks: Vec<u32> = raw
            .iter()
            .map(|&w| 1 + ((w / raw_sum) * spare as f64) as u32)
            .collect();
        // Fix rounding drift on the largest file.
        let assigned: u64 = file_blocks.iter().map(|&b| b as u64).sum();
        if assigned < total_blocks {
            let max_idx = (0..num_files as usize)
                .max_by_key(|&i| file_blocks[i])
                .expect("non-empty");
            file_blocks[max_idx] += (total_blocks - assigned) as u32;
        }
        let mut file_of_rank: Vec<u32> = (0..num_files).collect();
        file_of_rank.shuffle(&mut rng);
        FileSetPattern {
            file_blocks,
            file_of_rank,
            popularity: Zipf::new(num_files as usize, theta),
            current: None,
            churn_interval: 0,
            selections: 0,
            recency_bias: 0.0,
            recent: std::collections::VecDeque::new(),
            recent_window: 0,
            rng,
        }
    }

    /// Enables flash-crowd recency: with probability `bias` a request
    /// re-reads one of the last `window` distinct files instead of
    /// sampling the popularity distribution. Web request streams are
    /// temporally clustered on top of their Zipf popularity.
    ///
    /// # Panics
    ///
    /// Panics if `bias` is outside `[0, 1]` or `window` is zero.
    #[must_use]
    pub fn with_recency_bias(mut self, bias: f64, window: usize) -> Self {
        assert!((0.0..=1.0).contains(&bias), "bias must lie in [0, 1]");
        assert!(window > 0, "recency window must be non-empty");
        self.recency_bias = bias;
        self.recent_window = window;
        self
    }

    /// Enables popularity churn: every `interval` file selections, a file
    /// from the hot head of the ranking trades places with a random file —
    /// yesterday's front-page article cools off, fresh content heats up.
    /// Web-server popularity is never static; this is what makes
    /// frequency-based replacement (MQ) "slow to respond to pattern
    /// changes" (§4.4).
    ///
    /// # Panics
    ///
    /// Panics if `interval` is zero.
    #[must_use]
    pub fn with_popularity_churn(mut self, interval: u64) -> Self {
        assert!(interval > 0, "churn interval must be positive");
        self.churn_interval = interval;
        self
    }

    /// Replaces the request-stream RNG while keeping the file-set structure.
    ///
    /// Two patterns built with the same constructor `seed` but different
    /// request seeds share an identical file set (sizes and popularity
    /// ranking) while issuing different request streams — how the 7 clients
    /// of the `httpd` workload share data.
    #[must_use]
    pub fn with_request_seed(mut self, seed: u64) -> Self {
        self.rng = seeded_rng(seed);
        self.current = None;
        self
    }

    /// Total number of distinct blocks in the file set.
    pub fn footprint(&self) -> u64 {
        self.file_blocks.iter().map(|&b| b as u64).sum()
    }

    /// Number of files in the set.
    pub fn num_files(&self) -> u32 {
        self.file_blocks.len() as u32
    }
}

impl Pattern for FileSetPattern {
    fn next_block(&mut self) -> BlockId {
        let (rank, offset) = match self.current.take() {
            Some(cur) => cur,
            None => {
                self.selections += 1;
                if self.churn_interval > 0 && self.selections.is_multiple_of(self.churn_interval) {
                    let n = self.file_of_rank.len();
                    let hot = self.rng.gen_range(0..(n / 10).max(1));
                    let other = self.rng.gen_range(0..n);
                    // A file keeps its size; only its popularity moves.
                    self.file_of_rank.swap(hot, other);
                    self.file_blocks.swap(hot, other);
                }
                let rank = if !self.recent.is_empty() && self.rng.gen::<f64>() < self.recency_bias {
                    self.recent[self.rng.gen_range(0..self.recent.len())]
                } else {
                    self.popularity.sample(&mut self.rng)
                };
                if self.recent_window > 0 && !self.recent.contains(&rank) {
                    self.recent.push_back(rank);
                    if self.recent.len() > self.recent_window {
                        self.recent.pop_front();
                    }
                }
                (rank, 0)
            }
        };
        let block = BlockId::in_file(FileId::new(self.file_of_rank[rank]), offset);
        let next_offset = offset + 1;
        if next_offset < self.file_blocks[rank] {
            self.current = Some((rank, next_offset));
        }
        block
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fxhash::{FxHashMap, FxHashSet};

    #[test]
    fn footprint_matches_request() {
        let p = FileSetPattern::new(50, 5000, 1.0, 1);
        assert_eq!(p.footprint(), 5000);
        assert_eq!(p.num_files(), 50);
    }

    #[test]
    fn every_file_has_at_least_one_block() {
        let p = FileSetPattern::new(100, 100, 1.0, 2);
        assert!(p.file_blocks.iter().all(|&b| b >= 1));
        assert_eq!(p.footprint(), 100);
    }

    #[test]
    fn reads_within_a_file_are_sequential_from_zero() {
        let mut p = FileSetPattern::new(20, 2000, 1.0, 3);
        let mut last: Option<BlockId> = None;
        for _ in 0..5000 {
            let b = p.next_block();
            match last {
                Some(prev) if prev.file() == b.file() && b.offset() != 0 => {
                    assert_eq!(b.offset(), prev.offset() + 1);
                }
                _ => assert_eq!(b.offset(), 0, "a new file read starts at offset 0"),
            }
            last = Some(b);
        }
    }

    #[test]
    fn popular_files_dominate() {
        let mut p = FileSetPattern::new(1000, 10_000, 1.0, 4);
        let mut file_reads: FxHashMap<FileId, usize> = FxHashMap::default();
        let mut prev_file = None;
        for _ in 0..100_000 {
            let b = p.next_block();
            if prev_file != Some(b.file()) || b.offset() == 0 {
                *file_reads.entry(b.file()).or_insert(0) += 1;
            }
            prev_file = Some(b.file());
        }
        let mut counts: Vec<usize> = file_reads.values().copied().collect();
        counts.sort_unstable_by(|a, b| b.cmp(a));
        // Top 10 files should take a large share of all file-open events.
        let total: usize = counts.iter().sum();
        let top10: usize = counts.iter().take(10).sum();
        assert!(
            top10 as f64 / total as f64 > 0.15,
            "top10 share = {}",
            top10 as f64 / total as f64
        );
    }

    #[test]
    fn deterministic_under_seed() {
        let a = FileSetPattern::new(30, 300, 1.0, 9).generate(1000);
        let b = FileSetPattern::new(30, 300, 1.0, 9).generate(1000);
        assert_eq!(a, b);
    }

    #[test]
    fn churn_moves_popularity_but_preserves_footprint() {
        let make = |interval| {
            FileSetPattern::new(100, 1000, 1.2, 4)
                .with_popularity_churn(interval)
                .generate(60_000)
        };
        let churned = make(50);
        // Footprint never grows beyond the declared set (a file keeps its
        // size when its rank moves).
        assert!(churned.unique_blocks() <= 1000);
        // The set of files receiving the most traffic differs between the
        // first and second half: popularity drifted.
        let halves: Vec<FxHashMap<FileId, usize>> =
            [&churned.records()[..30_000], &churned.records()[30_000..]]
                .iter()
                .map(|recs| {
                    let mut m = FxHashMap::default();
                    for r in recs.iter() {
                        *m.entry(r.block.file()).or_insert(0) += 1;
                    }
                    m
                })
                .collect();
        let top = |m: &FxHashMap<FileId, usize>| {
            let mut v: Vec<_> = m.iter().map(|(f, &c)| (c, *f)).collect();
            v.sort_unstable_by(|a, b| b.cmp(a));
            v.into_iter()
                .take(10)
                .map(|(_, f)| f)
                .collect::<FxHashSet<_>>()
        };
        let overlap = top(&halves[0]).intersection(&top(&halves[1])).count();
        assert!(
            overlap < 10,
            "top-10 hot files should change, overlap = {overlap}"
        );
    }

    #[test]
    fn recency_bias_shortens_inter_read_gaps() {
        let gap_stats = |p: &mut FileSetPattern| {
            let mut last_seen: FxHashMap<FileId, usize> = FxHashMap::default();
            let mut short = 0usize;
            let mut total = 0usize;
            let mut reads = 0usize;
            let mut prev = None;
            for _ in 0..100_000 {
                let b = p.next_block();
                if prev != Some(b.file()) {
                    reads += 1;
                    if let Some(&at) = last_seen.get(&b.file()) {
                        total += 1;
                        if reads - at < 60 {
                            short += 1;
                        }
                    }
                    last_seen.insert(b.file(), reads);
                }
                prev = Some(b.file());
            }
            short as f64 / total.max(1) as f64
        };
        let mut plain = FileSetPattern::new(2_000, 10_000, 1.0, 6);
        let mut bursty = FileSetPattern::new(2_000, 10_000, 1.0, 6).with_recency_bias(0.5, 40);
        assert!(
            gap_stats(&mut bursty) > gap_stats(&mut plain) + 0.2,
            "bias should concentrate re-reads"
        );
    }

    #[test]
    #[should_panic(expected = "bias must lie")]
    fn invalid_bias_rejected() {
        let _ = FileSetPattern::new(2, 4, 1.0, 1).with_recency_bias(1.5, 4);
    }
}
