//! Fixed-capacity windowed metric timelines (DESIGN.md §5j).
//!
//! A [`TimelineSampler`] slices the run into consecutive windows of
//! `window_len` ticks and keeps one full [`MetricsRegistry`] per
//! window. Recording writes into the window the current tick falls in
//! (window `w` covers ticks `w * window_len + 1 ..= (w + 1) *
//! window_len`), so the sum of all windows reproduces the whole-run
//! registry *exactly* — the per-window conservation gate in
//! `crates/core/tests/obs_conservation.rs` holds by construction, not
//! by sampling luck.
//!
//! All storage is allocated up front by [`TimelineSampler::new`]; the
//! steady-state path ([`TimelineSampler::set_tick`],
//! [`TimelineSampler::sample_window`]) is index arithmetic only. Runs
//! longer than `window_len * capacity` clamp into the last window
//! (flagged by [`TimelineSampler::truncated`]) rather than allocating,
//! so conservation still holds on overflow.

use crate::metrics::MetricsRegistry;

/// Pre-allocated per-window metric snapshots over the run's tick axis.
#[derive(Clone, Debug)]
pub struct TimelineSampler {
    window_len: u64,
    windows: Vec<MetricsRegistry>,
    /// Number of leading windows any tick has landed in so far.
    touched: usize,
    /// Index of the window the current tick falls in.
    cur: usize,
    /// Highest tick ever stamped; `> window_len * capacity` means the
    /// tail of the run was clamped into the last window.
    max_tick: u64,
}

impl TimelineSampler {
    /// A sampler for a `levels`-deep hierarchy with `capacity` windows
    /// of `window_len` ticks each. This is the only allocating call.
    ///
    /// # Panics
    /// Panics if `window_len` or `capacity` is zero.
    pub fn new(levels: usize, window_len: u64, capacity: usize) -> Self {
        assert!(window_len > 0, "window_len must be positive");
        assert!(capacity > 0, "need at least one window");
        TimelineSampler {
            window_len,
            windows: vec![MetricsRegistry::new(levels); capacity],
            touched: 0,
            cur: 0,
            max_tick: 0,
        }
    }

    /// Ticks per window.
    pub fn window_len(&self) -> u64 {
        self.window_len
    }

    /// Windows allocated.
    pub fn capacity(&self) -> usize {
        self.windows.len()
    }

    /// Cache levels each window registry was sized for.
    pub fn levels(&self) -> usize {
        self.windows[0].levels()
    }

    /// Number of leading windows the run has reached.
    pub fn num_windows(&self) -> usize {
        self.touched
    }

    /// The windows the run has reached, in tick order.
    pub fn windows(&self) -> &[MetricsRegistry] {
        &self.windows[..self.touched]
    }

    /// Read-only access to window `index` (must be `< num_windows`).
    pub fn window(&self, index: usize) -> &MetricsRegistry {
        &self.windows[index]
    }

    /// Highest tick ever stamped via [`TimelineSampler::set_tick`].
    pub fn max_tick(&self) -> u64 {
        self.max_tick
    }

    /// True when ticks beyond `window_len * capacity` were clamped into
    /// the last window.
    pub fn truncated(&self) -> bool {
        self.max_tick > self.window_len * self.windows.len() as u64
    }

    /// Points the sampler at the window containing `tick` (ticks are
    /// 1-based, as produced by [`crate::RingRecorder::begin_access`];
    /// tick 0 maps to the first window). Out-of-range ticks clamp to the
    /// last window.
    #[inline]
    pub fn set_tick(&mut self, tick: u64) {
        if tick > self.max_tick {
            self.max_tick = tick;
        }
        let mut idx = (tick.saturating_sub(1) / self.window_len) as usize;
        if idx >= self.windows.len() {
            idx = self.windows.len() - 1;
        }
        self.cur = idx;
        if idx + 1 > self.touched {
            self.touched = idx + 1;
        }
    }

    /// The registry of the current window — every mutation the recorder
    /// applies to its whole-run registry is mirrored here, which is
    /// what makes window sums exact.
    #[inline]
    pub fn sample_window(&mut self) -> &mut MetricsRegistry {
        &mut self.windows[self.cur]
    }

    /// Sums every touched window into one registry; by construction
    /// this equals the recorder's whole-run [`MetricsRegistry`]
    /// (checked by `check::windows_reconcile`).
    pub fn summed(&self) -> MetricsRegistry {
        let mut total = MetricsRegistry::new(self.levels());
        for w in self.windows() {
            total.merge(w);
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::CounterId;

    #[test]
    fn ticks_land_in_their_windows_and_sum_is_exact() {
        let mut t = TimelineSampler::new(2, 4, 8);
        for tick in 1..=10u64 {
            t.set_tick(tick);
            t.sample_window().inc(CounterId::Accesses);
        }
        assert_eq!(t.num_windows(), 3);
        assert_eq!(t.window(0).counter(CounterId::Accesses), 4);
        assert_eq!(t.window(1).counter(CounterId::Accesses), 4);
        assert_eq!(t.window(2).counter(CounterId::Accesses), 2);
        assert_eq!(t.summed().counter(CounterId::Accesses), 10);
        assert!(!t.truncated());
    }

    #[test]
    fn overflow_clamps_into_the_last_window() {
        let mut t = TimelineSampler::new(1, 2, 2);
        for tick in 1..=9u64 {
            t.set_tick(tick);
            t.sample_window().inc(CounterId::Hits);
        }
        assert!(t.truncated());
        assert_eq!(t.num_windows(), 2);
        assert_eq!(t.window(0).counter(CounterId::Hits), 2);
        assert_eq!(t.window(1).counter(CounterId::Hits), 7);
        assert_eq!(t.summed().counter(CounterId::Hits), 9);
    }
}
