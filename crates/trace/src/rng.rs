//! Deterministic random sampling helpers for workload generation.
//!
//! Every synthetic workload in this workspace is seeded, so a given trace
//! constructor always produces the same reference stream. This module also
//! hosts the in-repo Zipf sampler (the paper's `zipf` trace references block
//! `i` with probability proportional to `1/i`). It inverts the CDF through
//! a guide table (Chen & Asau's indexed search), O(1) expected work per
//! draw; every uniform maps to the rank a binary search over the same CDF
//! would find, so the streams, and every number simulated from them, are
//! those of the original binary-search sampler
//! (`crates/trace/tests/golden/trace_digests.txt` pins them).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Creates the deterministic RNG used by all generators in this crate.
///
/// # Examples
///
/// ```
/// use rand::Rng;
/// let mut a = ulc_trace::seeded_rng(42);
/// let mut b = ulc_trace::seeded_rng(42);
/// assert_eq!(a.gen::<u64>(), b.gen::<u64>());
/// ```
pub fn seeded_rng(seed: u64) -> StdRng {
    StdRng::seed_from_u64(seed)
}

/// Samples ranks `0..n` with probability proportional to `1/(rank+1)^theta`.
///
/// Sampling is inverse-CDF over a precomputed cumulative table, searched
/// through a guide table of `m = max(n/4, 1)` buckets: `guide[k]` is the
/// number of CDF entries below `k/m`, so a draw `u` starts at its
/// bucket's entry and scans the few entries that share the bucket, O(1)
/// expected per draw whatever the skew. The rank it returns is the first
/// whose CDF entry reaches `u`, exactly what a binary search over the
/// strictly increasing CDF returns, so the stream depends only on the
/// seed.
/// `theta = 1.0` gives the classic Zipf distribution used by the
/// paper's `zipf` trace, "typical for file references in Web servers".
///
/// # Examples
///
/// ```
/// use rand::SeedableRng;
/// let zipf = ulc_trace::Zipf::new(100, 1.0);
/// let mut rng = ulc_trace::seeded_rng(1);
/// let r = zipf.sample(&mut rng);
/// assert!(r < 100);
/// ```
#[derive(Clone, Debug)]
pub struct Zipf {
    cdf: Vec<f64>,
    guide: Vec<usize>,
}

impl Zipf {
    /// Builds a sampler over `n` ranks with exponent `theta`.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero or `theta` is negative or non-finite.
    pub fn new(n: usize, theta: f64) -> Self {
        assert!(n > 0, "Zipf support must be non-empty");
        assert!(
            theta >= 0.0 && theta.is_finite(),
            "Zipf exponent must be finite and non-negative"
        );
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0f64;
        for i in 0..n {
            acc += 1.0 / ((i + 1) as f64).powf(theta);
            cdf.push(acc);
        }
        let total = acc;
        let m = (n / 4).max(1);
        let mut guide = Vec::with_capacity(m);
        for (i, v) in cdf.iter_mut().enumerate() {
            *v /= total;
            // Guard against floating point drift: the last entry must be
            // 1.0 so every uniform draw lands inside the table, and every
            // bucket edge below it gets its guide entry.
            if i == n - 1 {
                *v = 1.0;
            }
            while guide.len() < m && guide.len() as f64 / m as f64 <= *v {
                guide.push(i);
            }
        }
        Zipf { cdf, guide }
    }

    /// Returns the number of ranks.
    pub fn len(&self) -> usize {
        self.cdf.len()
    }

    /// Returns `false`: [`Zipf::new`] refuses an empty support, so a
    /// sampler always has at least one rank.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Draws one rank in `0..self.len()`.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> usize {
        self.rank_of(rng.gen())
    }

    /// The rank a uniform `u` in `[0, 1)` maps to: the first rank whose
    /// CDF entry is not below `u`, clamped to the last rank.
    ///
    /// The scan starts at the guide entry of `u`'s bucket and first steps
    /// back over entries not below `u`, so rounding in `u * m` can never
    /// skip the answer, then forward over entries below it.
    #[inline]
    fn rank_of(&self, u: f64) -> usize {
        let cdf = &self.cdf;
        let m = self.guide.len();
        let mut i = self.guide[((u * m as f64) as usize).min(m - 1)];
        while i > 0 && cdf[i - 1] >= u {
            i -= 1;
        }
        while i < cdf.len() && cdf[i] < u {
            i += 1;
        }
        i.min(cdf.len() - 1)
    }

    /// Returns the probability mass of `rank`.
    ///
    /// # Panics
    ///
    /// Panics if `rank` is out of range.
    pub fn pmf(&self, rank: usize) -> f64 {
        if rank == 0 {
            self.cdf[0]
        } else {
            self.cdf[rank] - self.cdf[rank - 1]
        }
    }
}

/// Samples a geometric-like stack depth in `0..n`: depth `d` has weight
/// `q^d`. Used by the temporally-clustered (LRU-friendly, `sprite`-like)
/// generator where recently used blocks are most likely to be reused.
///
/// The sample is produced by inverse transform on the truncated geometric
/// distribution, O(1) per draw.
#[derive(Clone, Copy, Debug)]
pub struct TruncatedGeometric {
    n: usize,
    q: f64,
}

impl TruncatedGeometric {
    /// Builds a sampler over depths `0..n` with decay `q` in `(0, 1)`.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero or `q` is outside `(0, 1)`.
    pub fn new(n: usize, q: f64) -> Self {
        assert!(n > 0, "support must be non-empty");
        assert!(q > 0.0 && q < 1.0, "decay must lie in (0, 1)");
        TruncatedGeometric { n, q }
    }

    /// Draws one depth in `0..n`.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> usize {
        // CDF(d) = (1 - q^(d+1)) / (1 - q^n); invert for uniform u.
        let u: f64 = rng.gen();
        let scale = 1.0 - self.q.powi(self.n as i32);
        let d = ((1.0 - u * scale).ln() / self.q.ln()).floor() as usize;
        d.min(self.n - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zipf_is_deterministic_under_seed() {
        let z = Zipf::new(1000, 1.0);
        let a: Vec<usize> = {
            let mut rng = seeded_rng(7);
            (0..100).map(|_| z.sample(&mut rng)).collect()
        };
        let b: Vec<usize> = {
            let mut rng = seeded_rng(7);
            (0..100).map(|_| z.sample(&mut rng)).collect()
        };
        assert_eq!(a, b);
    }

    #[test]
    fn zipf_rank_zero_is_hottest() {
        let z = Zipf::new(100, 1.0);
        let mut rng = seeded_rng(11);
        let mut counts = vec![0usize; 100];
        for _ in 0..20_000 {
            counts[z.sample(&mut rng)] += 1;
        }
        let hottest = counts[0];
        assert!(hottest > counts[10]);
        assert!(hottest > counts[99]);
        // 1/H(100) ~ 0.19; allow broad tolerance.
        let p0 = hottest as f64 / 20_000.0;
        assert!((0.12..0.27).contains(&p0), "p0 = {p0}");
    }

    #[test]
    fn zipf_pmf_sums_to_one() {
        let z = Zipf::new(50, 0.8);
        let sum: f64 = (0..50).map(|r| z.pmf(r)).sum();
        assert!((sum - 1.0).abs() < 1e-9);
    }

    #[test]
    fn zipf_theta_zero_is_uniform() {
        let z = Zipf::new(4, 0.0);
        for r in 0..4 {
            assert!((z.pmf(r) - 0.25).abs() < 1e-12);
        }
    }

    #[test]
    fn zipf_samples_stay_in_range() {
        let z = Zipf::new(3, 2.0);
        let mut rng = seeded_rng(3);
        for _ in 0..1000 {
            assert!(z.sample(&mut rng) < 3);
        }
    }

    /// The binary-search sampler's rank: the first CDF entry not below
    /// `u`, clamped to the last rank. On a strictly increasing CDF this is
    /// what `binary_search_by` returned for every `u`.
    fn partition_point_rank(z: &Zipf, u: f64) -> usize {
        z.cdf.partition_point(|p| *p < u).min(z.cdf.len() - 1)
    }

    #[test]
    fn rank_of_matches_the_binary_search_rank() {
        for n in [1, 2, 7, 1000, 98_304] {
            for theta in [0.0, 0.5, 1.0, 3.0] {
                let z = Zipf::new(n, theta);
                assert!(
                    z.cdf.windows(2).all(|w| w[0] < w[1]),
                    "n={n} θ={theta}: CDF not strictly increasing"
                );
                let m = z.guide.len();
                assert_eq!(m, (n / 4).max(1), "n={n} θ={theta}: guide size");
                for (k, &g) in z.guide.iter().enumerate() {
                    let edge = k as f64 / m as f64;
                    assert_eq!(
                        g,
                        z.cdf.partition_point(|p| *p < edge),
                        "n={n} θ={theta} k={k}"
                    );
                }
                // Every draw in one bucket scans from the same start, so
                // probing all b entries of a bucket costs O(b²) steps. At
                // θ = 3 the last of the 24,576 buckets holds about 98,200
                // of the 98,304 ranks (10¹⁰ debug-build steps); probe the
                // first 512 entries of each bucket and every 97th rank.
                let near_start = |i: usize, p: f64| {
                    i - z.guide[((p * m as f64) as usize).min(m - 1)].min(i) < 512
                };
                let entries = z
                    .cdf
                    .iter()
                    .enumerate()
                    .filter(|&(i, &p)| near_start(i, p) || i % 97 == 0)
                    .flat_map(|(_, &p)| [p.next_down(), p, p.next_up()]);
                let edges = (0..m).map(|k| k as f64 / m as f64);
                for u in entries.chain(edges).chain([0.0, 1.0f64.next_down()]) {
                    assert_eq!(
                        z.rank_of(u),
                        partition_point_rank(&z, u),
                        "n={n} θ={theta} u={u:e}"
                    );
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn zipf_rejects_empty_support() {
        let _ = Zipf::new(0, 1.0);
    }

    #[test]
    fn geometric_prefers_small_depths() {
        let g = TruncatedGeometric::new(100, 0.9);
        let mut rng = seeded_rng(5);
        let mut small = 0usize;
        let n = 10_000;
        for _ in 0..n {
            if g.sample(&mut rng) < 10 {
                small += 1;
            }
        }
        // P(depth < 10) = (1 - 0.9^10)/(1 - 0.9^100) ~ 0.65.
        let frac = small as f64 / n as f64;
        assert!((0.55..0.75).contains(&frac), "frac = {frac}");
    }

    #[test]
    fn geometric_samples_stay_in_range() {
        let g = TruncatedGeometric::new(5, 0.5);
        let mut rng = seeded_rng(9);
        for _ in 0..1000 {
            assert!(g.sample(&mut rng) < 5);
        }
    }
}
