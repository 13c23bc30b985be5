//! Order statistics for the timed runs, and the clock validation that
//! runs before any number is trusted.

use crate::spans::Recorder;
use std::hint::black_box;
use std::time::Instant;

/// Sample count, median, quartiles and minimum of one timing. At the
/// sample counts a run reaches (45-85), the upper quartile is the
/// highest percentile that still has ten samples beyond it.
#[derive(Debug, Clone, Copy)]
pub struct Summary {
    pub n: usize,
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub min: f64,
}

impl Summary {
    /// Interquartile distance as a share of the median.
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median
        }
    }
}

/// Quartiles by the exclusive method — the one Python's
/// `statistics.quantiles(values, n=4)` uses, so the spreads printed
/// here are the spreads the benchmark contract is judged by.
pub fn summarize(values: &[f64]) -> Summary {
    assert!(!values.is_empty(), "summarize needs at least one sample");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let quantile = |i: usize| -> f64 {
        if n < 2 {
            return v[0];
        }
        let m = n + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Summary {
        n,
        median: quantile(2),
        q1: quantile(1),
        q3: quantile(3),
        min: v[0],
    }
}

pub fn median(values: &[f64]) -> f64 {
    summarize(values).median
}

/// Work of known cost: `iters` dependent multiply-adds.
fn spin(iters: u64) -> u64 {
    let mut x = black_box(0x9E37_79B9_7F4A_7C15u64);
    for i in 0..iters {
        x = x.wrapping_mul(6364136223846793005).wrapping_add(i);
    }
    black_box(x)
}

/// Fastest of five timings of `spin(iters)`, in seconds. The minimum is
/// the timing least disturbed by other tenants of the host.
fn spin_s(iters: u64) -> f64 {
    (0..5)
        .map(|_| {
            let t = Instant::now();
            spin(iters);
            t.elapsed().as_secs_f64()
        })
        .fold(f64::INFINITY, f64::min)
}

/// Cost of one empty span on an enabled recorder, in nanoseconds
/// (fastest of three batches of 100 000).
pub fn span_ns() -> f64 {
    const SPANS: usize = 100_000;
    (0..3)
        .map(|_| {
            let mut rec = Recorder::new(true);
            let t = Instant::now();
            for _ in 0..SPANS {
                let s = rec.enter("harness.empty");
                rec.exit(s, &[]);
            }
            let ns = t.elapsed().as_nanos() as f64 / SPANS as f64;
            black_box(&rec);
            ns
        })
        .fold(f64::INFINITY, f64::min)
}

/// Validates the measurement source against work of known cost before
/// anything is built on it (Röhl et al.): twice the iterations must
/// take twice the time within 10 %, and two measurements of the span
/// cost must agree within 25 %. Returns the span cost. Three attempts,
/// because one preempted batch on a shared host is not a broken timer.
pub fn validate_clock() -> Result<f64, String> {
    // Size the loop to ~4 ms so the timer's granularity is far below it.
    let probe = spin_s(1 << 20).max(1e-9);
    let iters = ((1u64 << 20) as f64 * 4e-3 / probe) as u64 + 1;
    let mut last = String::new();
    for _ in 0..3 {
        let (t1, t2) = (spin_s(iters), spin_s(2 * iters));
        let ratio = t2 / t1;
        let (a, b) = (span_ns(), span_ns());
        let drift = (a - b).abs() / a.min(b);
        if (1.8..=2.2).contains(&ratio) && drift <= 0.25 {
            return Ok(a.min(b));
        }
        last = format!(
            "2x work took {ratio:.3}x time (want 2 ± 10 %), span cost {a:.1} ns vs {b:.1} ns"
        );
    }
    Err(format!("host too noisy / timer unreliable: {last}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = summarize(&v);
        assert_eq!(
            (s.q1, s.median, s.q3, s.min, s.n),
            (2.75, 5.5, 8.25, 1.0, 10)
        );
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        let s = summarize(&[3.0, 1.0, 2.0]);
        assert_eq!((s.q1, s.median, s.q3), (1.0, 2.0, 3.0));
        assert_eq!(summarize(&[7.0]).median, 7.0);
    }
}
