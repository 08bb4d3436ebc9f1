//! Minimal spans of a sliding timestamp window, kept up to date as
//! timestamps arrive.
//!
//! A long-lived consumer (one `wcm-serve` session) asks for the minimal
//! spans `d(1..=k)` of its last `W` timestamps again and again, while only
//! a few timestamps arrive between two questions. Rescanning the window
//! each time costs `O(k·W)`; [`SpanWindow`] keeps per-block minima instead.
//!
//! # Exactness
//!
//! [`SpanWindow::min_spans`]`(k)` returns exactly what
//! [`min_spans_with`](super::min_spans_with)`(contents, k, WindowMode::Exact, _)`
//! returns on the retained timestamps, bit for bit. It returns `None`
//! exactly when [`TimedTrace::new`](crate::TimedTrace::new) would reject
//! the contents (a non-finite value, or a value below its predecessor),
//! and when `k` is 0 or exceeds the number retained. Every difference goes
//! through the same span kernel as the whole-slice scan, and a minimum is
//! a selection, so regrouping the fold changes no bit (zero spans are
//! normalized to `+0.0` by the kernel, for both paths).
//!
//! # Cost
//!
//! Window starts are grouped into blocks of `B = 2·k_max` absolute
//! positions. A block is *sealed* once every window of up to `k_max`
//! timestamps that starts in it is complete: its minimum span for each
//! `k = 2..=k_max` goes into one flat ring of `f64`, at `O(k_max)` per
//! pushed timestamp, amortized. A query for `k` folds the sealed blocks
//! that lie wholly inside the window and scans directly only the starts of
//! the partly evicted front block and of the unsealed back, so the minimal
//! spans `d(1..=k)` cost `O(k·(B + W/B))` instead of `O(k·W)`. Validity
//! is tracked at `O(1)` per push or eviction by counting non-finite values
//! and decreasing adjacent pairs.

use super::span_over;

/// A sliding window of at most `capacity` timestamps with incrementally
/// maintained minimal spans; see the [module docs](self).
///
/// # Example
///
/// ```
/// use wcm_events::window::{min_spans, SpanWindow, WindowMode};
///
/// let mut w = SpanWindow::new(4, 2);
/// for t in [0.0, 1.0, 1.5, 4.0, 4.25] {
///     w.push(t);
/// }
/// assert_eq!(w.as_slice(), &[1.0, 1.5, 4.0, 4.25]); // 0.0 was evicted
/// let exact = min_spans(w.as_slice(), 3, WindowMode::Exact).unwrap();
/// assert_eq!(w.min_spans(3), Some(exact)); // [0.0, 0.25, 2.75]
/// w.push(3.0); // below its predecessor: no curve until it is evicted
/// assert_eq!(w.min_spans(2), None);
/// ```
#[derive(Debug, Clone)]
pub struct SpanWindow {
    capacity: usize,
    k_max: usize,
    /// Window starts per block (`2·k_max`).
    block: usize,
    /// Retained timestamps: `buf[i]` sits at absolute position `base + i`.
    /// The window is the suffix from `front`; evicted values before it
    /// are dropped in one move once the buffer reaches its limit.
    buf: Vec<f64>,
    base: usize,
    /// Absolute position of the window's first timestamp.
    front: usize,
    /// Blocks `0..sealed` are closed: sealed into the ring, or passed over
    /// because their first start was evicted before they completed.
    sealed: usize,
    /// Ring rows: more than the blocks that fit wholly in the window.
    slots: usize,
    /// Per-block minimum spans, one row of `k_max − 1` per ring slot:
    /// block `b`'s span for `k` sits at `(b mod slots)·(k_max − 1) + k − 2`.
    /// Grows with the blocks sealed, up to `slots` rows.
    minima: Vec<f64>,
    /// Non-finite timestamps in the window.
    nonfinite: usize,
    /// Adjacent window pairs whose second value is below the first.
    decreasing: usize,
}

impl SpanWindow {
    /// An empty window retaining at most `capacity` timestamps, whose
    /// block minima serve span queries up to `k_max` (larger `k` are
    /// answered by a direct scan). Both are clamped to at least 1.
    #[must_use]
    pub fn new(capacity: usize, k_max: usize) -> Self {
        let capacity = capacity.max(1);
        let k_max = k_max.max(1);
        let block = 2 * k_max;
        Self {
            capacity,
            k_max,
            block,
            buf: Vec::new(),
            base: 0,
            front: 0,
            sealed: 0,
            slots: capacity / block + 1,
            minima: Vec::new(),
            nonfinite: 0,
            decreasing: 0,
        }
    }

    /// Timestamps in the window.
    #[must_use]
    pub fn len(&self) -> usize {
        self.base + self.buf.len() - self.front
    }

    /// Whether the window holds no timestamp.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The window's timestamps, oldest first.
    #[must_use]
    pub fn as_slice(&self) -> &[f64] {
        &self.buf[self.front - self.base..]
    }

    /// Newest minus oldest timestamp (0 when fewer than two), as
    /// [`TimedTrace::duration`](crate::TimedTrace::duration) reports it.
    #[must_use]
    pub fn duration(&self) -> f64 {
        match (self.as_slice().first(), self.as_slice().last()) {
            (Some(a), Some(b)) => b - a,
            _ => 0.0,
        }
    }

    /// Appends `t`, evicting the oldest timestamp once the window is full.
    pub fn push(&mut self, t: f64) {
        if self.len() == self.capacity {
            self.evict();
        }
        if let (false, Some(&last)) = (self.is_empty(), self.buf.last()) {
            if t < last {
                self.decreasing += 1;
            }
        }
        if !t.is_finite() {
            self.nonfinite += 1;
        }
        let limit = self.capacity + self.capacity / 4 + 1;
        if self.buf.len() == limit {
            self.buf.drain(..self.front - self.base);
            self.base = self.front;
        }
        let len = self.buf.len() + 1;
        reserve_upto(&mut self.buf, len, limit);
        self.buf.push(t);
        self.seal();
    }

    fn evict(&mut self) {
        let i = self.front - self.base;
        let t = self.buf[i];
        if !t.is_finite() {
            self.nonfinite -= 1;
        }
        if self.buf.get(i + 1).is_some_and(|&next| next < t) {
            self.decreasing -= 1;
        }
        self.front += 1;
    }

    /// Seals every block whose windows up to `k_max` are now complete.
    fn seal(&mut self) {
        let pushed = self.base + self.buf.len();
        while (self.sealed + 1) * self.block + self.k_max - 1 <= pushed {
            let start = self.sealed * self.block;
            if start >= self.front && self.k_max > 1 {
                let row = self.k_max - 1;
                let at = (self.sealed % self.slots) * row;
                if self.minima.len() < at + row {
                    reserve_upto(&mut self.minima, at + row, self.slots * row);
                    self.minima.resize(at + row, f64::INFINITY);
                }
                let rel = start - self.base;
                for k in 2..=self.k_max {
                    self.minima[at + k - 2] = span_over(&self.buf, k, rel..rel + self.block, false);
                }
            }
            self.sealed += 1;
        }
    }

    /// Minimal spans `d(1..=k)` of the window (index 0 ↦ `k = 1`),
    /// bit-identical to [`min_spans_with`](super::min_spans_with) in
    /// [`WindowMode::Exact`](super::WindowMode::Exact) on
    /// [`as_slice`](Self::as_slice).
    ///
    /// Returns `None` if `k` is 0 or exceeds [`len`](Self::len), or if
    /// the window holds a non-finite timestamp or one below its
    /// predecessor.
    #[must_use]
    pub fn min_spans(&self, k: usize) -> Option<Vec<f64>> {
        if k == 0 || k > self.len() || self.nonfinite > 0 || self.decreasing > 0 {
            return None;
        }
        Some((1..=k).map(|j| self.min_span(j)).collect())
    }

    /// Minimal span of `k` consecutive window timestamps (`k ≤ len`).
    fn min_span(&self, k: usize) -> f64 {
        if k <= 1 {
            return 0.0;
        }
        let rel = |abs: usize| abs - self.base;
        let end = self.base + self.buf.len() - k + 1; // one past the last start
        let first = self.front.div_ceil(self.block); // first block wholly inside
        if k > self.k_max || first >= self.sealed {
            return span_over(&self.buf, k, rel(self.front)..rel(end), false);
        }
        let head = span_over(
            &self.buf,
            k,
            rel(self.front)..rel(first * self.block),
            false,
        );
        let tail = span_over(&self.buf, k, rel(self.sealed * self.block)..rel(end), false);
        // Blocks first..sealed are fewer than `slots`: at most two runs of
        // ring slots, read with a stride of one row.
        let (a, b) = (first % self.slots, self.sealed % self.slots);
        let (run, wrap) = if a < b {
            (a..b, 0..0)
        } else {
            (a..self.slots, 0..b)
        };
        let row = self.k_max - 1;
        run.chain(wrap)
            .map(|slot| self.minima[slot * row + k - 2])
            .fold(head.min(tail), f64::min)
    }
}

/// Makes room for `len` elements in `v`, doubling its capacity but never
/// reserving past `limit`: a window sized for millions of timestamps
/// allocates only for the timestamps it has seen.
fn reserve_upto(v: &mut Vec<f64>, len: usize, limit: usize) {
    if len > v.capacity() {
        let want = (2 * v.capacity()).max(len).min(limit.max(len));
        v.reserve_exact(want - v.len());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::window::{min_spans_with, Parallelism, WindowMode};

    fn oracle(w: &SpanWindow, k: usize) -> Vec<f64> {
        min_spans_with(w.as_slice(), k, WindowMode::Exact, Parallelism::Seq).unwrap()
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn matches_rescan_across_block_boundaries() {
        // 2·k_max = 8 starts per block; a 30-timestamp window spans a
        // partly evicted front block, sealed blocks and an unsealed back.
        let mut w = SpanWindow::new(30, 4);
        for i in 0..200u32 {
            let t = f64::from(i) * 0.5 + f64::from(i * 7 % 5) * 0.1;
            w.push(t);
            for k in 1..=w.len().min(9) {
                assert_eq!(bits(&w.min_spans(k).unwrap()), bits(&oracle(&w, k)));
            }
        }
        assert_eq!(w.len(), 30);
    }

    #[test]
    fn decreasing_value_is_rejected_until_evicted() {
        let mut w = SpanWindow::new(3, 2);
        for t in [1.0, 2.0, 1.5] {
            w.push(t);
        }
        assert_eq!(w.min_spans(2), None);
        w.push(3.0); // evicts 1.0; (2.0, 1.5) still decreases
        assert_eq!(w.min_spans(2), None);
        w.push(4.0); // evicts 2.0
        assert_eq!(w.min_spans(2), Some(vec![0.0, 1.0]));
        w.push(f64::NAN);
        assert_eq!(w.min_spans(1), None);
        assert_eq!(w.min_spans(0), None);
    }

    #[test]
    fn small_window_never_seals_and_still_matches() {
        // capacity < 2·k_max + k_max − 1: every block's first start is
        // evicted before the block completes.
        let mut w = SpanWindow::new(5, 4);
        for i in 0..50u32 {
            w.push(f64::from(i * i) * 0.01);
            for k in 1..=w.len() {
                assert_eq!(bits(&w.min_spans(k).unwrap()), bits(&oracle(&w, k)));
            }
        }
        assert!(w.minima.is_empty());
    }

    #[test]
    fn buffer_stays_within_its_limit() {
        let mut w = SpanWindow::new(100, 3);
        for i in 0..10_000u32 {
            w.push(f64::from(i));
        }
        assert!(w.buf.capacity() <= 100 + 25 + 1, "{}", w.buf.capacity());
        assert!(w.minima.capacity() <= w.slots * (w.k_max - 1));
        assert_eq!(w.as_slice().first(), Some(&9_900.0));
        assert_eq!(w.duration(), 99.0);
    }
}
