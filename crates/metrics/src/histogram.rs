//! Waiting-duration histograms.
//!
//! Beyond totals and percentages, the *distribution* of waiting durations
//! distinguishes regimes: a blocked critical-section chain produces many
//! similar medium waits; a nearly-parallel loop produces a mass of tiny
//! jitter-absorbing waits plus a pipeline-fill tail. Log-spaced buckets
//! make both readable in one view.

use ppa_core::EventBasedResult;
use ppa_trace::Span;
use serde::{Deserialize, Serialize};

/// A log₂-bucketed histogram of spans.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SpanHistogram {
    /// Bucket `i` counts spans in `[2^i, 2^(i+1))` ns; bucket 0 also
    /// holds zero-length spans.
    pub buckets: Vec<u64>,
    /// Samples histogrammed.
    pub count: u64,
    /// Sum of all samples.
    pub total: Span,
    /// Largest sample.
    pub max: Span,
}

impl SpanHistogram {
    /// Builds a histogram from spans.
    pub fn from_spans(spans: impl IntoIterator<Item = Span>) -> Self {
        let mut buckets: Vec<u64> = Vec::new();
        let mut count = 0u64;
        let mut total = Span::ZERO;
        let mut max = Span::ZERO;
        for s in spans {
            let idx = if s.as_nanos() <= 1 {
                0
            } else {
                (63 - s.as_nanos().leading_zeros()) as usize
            };
            if buckets.len() <= idx {
                buckets.resize(idx + 1, 0);
            }
            buckets[idx] += 1;
            count += 1;
            total += s;
            max = max.max(s);
        }
        SpanHistogram {
            buckets,
            count,
            total,
            max,
        }
    }

    /// Mean sample length.
    pub fn mean(&self) -> Span {
        self.total
            .as_nanos()
            .checked_div(self.count)
            .map_or(Span::ZERO, Span::from_nanos)
    }
}

/// Histogram of all (nonzero) synchronization waits in an analysis
/// result.
pub fn wait_histogram(result: &EventBasedResult) -> SpanHistogram {
    SpanHistogram::from_spans(result.awaits.iter().filter(|a| a.waited()).map(|a| a.wait))
}

/// Renders the histogram with one row per occupied bucket.
pub fn render_histogram(title: &str, h: &SpanHistogram, width: usize) -> String {
    let width = width.max(10);
    let peak = h.buckets.iter().copied().max().unwrap_or(0).max(1);
    let mut out = format!(
        "{title}  ({} waits, mean {}, max {})\n",
        h.count,
        h.mean(),
        h.max
    );
    for (i, &c) in h.buckets.iter().enumerate() {
        if c == 0 {
            continue;
        }
        let bar = (c as usize * width).div_ceil(peak as usize).min(width);
        out.push_str(&format!(
            "  {:>10} |{}{} {}\n",
            Span::from_nanos(1u64 << i).to_string(),
            "█".repeat(bar),
            " ".repeat(width - bar),
            c
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_are_log2() {
        let h = SpanHistogram::from_spans(
            [0u64, 1, 2, 3, 4, 7, 8, 1024]
                .into_iter()
                .map(Span::from_nanos),
        );
        assert_eq!(h.count, 8);
        // 0,1 -> bucket 0; 2,3 -> bucket 1; 4,7 -> bucket 2; 8 -> 3; 1024 -> 10.
        assert_eq!(h.buckets[0], 2);
        assert_eq!(h.buckets[1], 2);
        assert_eq!(h.buckets[2], 2);
        assert_eq!(h.buckets[3], 1);
        assert_eq!(h.buckets[10], 1);
        assert_eq!(h.max, Span::from_nanos(1024));
    }

    #[test]
    fn empty_histogram() {
        let h = SpanHistogram::from_spans([]);
        assert_eq!(h.count, 0);
        assert_eq!(h.mean(), Span::ZERO);
    }

    #[test]
    fn mode_and_mean() {
        let h =
            SpanHistogram::from_spans([100u64, 110, 120, 5000].into_iter().map(Span::from_nanos));
        assert_eq!(h.mean(), Span::from_nanos((100 + 110 + 120 + 5000) / 4));
    }

    #[test]
    fn render_skips_empty_buckets() {
        let h = SpanHistogram::from_spans([Span::from_nanos(3), Span::from_nanos(5000)]);
        let s = render_histogram("waits", &h, 20);
        assert!(s.contains("2 waits"));
        // Two occupied buckets -> two bar rows plus the title.
        assert_eq!(s.lines().count(), 3);
    }
}
