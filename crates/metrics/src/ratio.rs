//! Execution-time ratios — the paper's reporting currency.
//!
//! Every evaluation artifact in the paper is a ratio against the actual
//! (uninstrumented) execution time: `Measured/Actual` for intrusion,
//! `Approximated/Actual` for analysis accuracy.

use ppa_trace::Span;
use serde::{Deserialize, Serialize};

/// One row of a Table 1/2-style ratio table.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RatioRow {
    /// Workload label (e.g. `"lfk03"`).
    pub label: String,
    /// Reproduced measured/actual.
    pub measured_over_actual: f64,
    /// Reproduced approximated/actual.
    pub approx_over_actual: f64,
    /// The paper's measured/actual, if reported.
    pub paper_measured: Option<f64>,
    /// The paper's approximated/actual, if reported.
    pub paper_approx: Option<f64>,
}

impl RatioRow {
    /// Builds a row from the three absolute times.
    pub fn from_times(
        label: impl Into<String>,
        actual: Span,
        measured: Span,
        approximated: Span,
    ) -> Self {
        RatioRow {
            label: label.into(),
            measured_over_actual: measured.ratio(actual),
            approx_over_actual: approximated.ratio(actual),
            paper_measured: None,
            paper_approx: None,
        }
    }

    /// Attaches the paper's reported values for side-by-side printing.
    pub fn with_paper(mut self, measured: Option<f64>, approx: Option<f64>) -> Self {
        self.paper_measured = measured;
        self.paper_approx = approx;
        self
    }

    /// The approximation's signed error in percent (`-4.0` means the
    /// approximation is 4 % below actual — the paper's "-4 percent error").
    pub fn approx_error_pct(&self) -> f64 {
        (self.approx_over_actual - 1.0) * 100.0
    }

    /// True if the reproduced approximation errs in the same direction as
    /// the paper's (both under- or both over-approximate), or if the paper
    /// value is unknown.
    pub fn same_direction_as_paper(&self) -> bool {
        match self.paper_approx {
            Some(p) => (self.approx_over_actual - 1.0).signum() == (p - 1.0).signum(),
            None => true,
        }
    }
}

/// Formats a ratio table with paper values beside reproduced ones.
pub fn format_ratio_table(title: &str, rows: &[RatioRow]) -> String {
    let mut out = String::new();
    out.push_str(&format!("{title}\n"));
    out.push_str(&format!(
        "{:<10} {:>12} {:>12} {:>12} {:>12} {:>9}\n",
        "loop", "meas/actual", "paper", "approx/act", "paper", "err%"
    ));
    for r in rows {
        let paper_m = r
            .paper_measured
            .map(|v| format!("{v:.2}"))
            .unwrap_or_else(|| "-".into());
        let paper_a = r
            .paper_approx
            .map(|v| format!("{v:.2}"))
            .unwrap_or_else(|| "-".into());
        out.push_str(&format!(
            "{:<10} {:>12.2} {:>12} {:>12.2} {:>12} {:>8.1}%\n",
            r.label,
            r.measured_over_actual,
            paper_m,
            r.approx_over_actual,
            paper_a,
            r.approx_error_pct()
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ratios_from_times() {
        let r = RatioRow::from_times(
            "x",
            Span::from_nanos(100),
            Span::from_nanos(456),
            Span::from_nanos(96),
        );
        assert!((r.measured_over_actual - 4.56).abs() < 1e-12);
        assert!((r.approx_over_actual - 0.96).abs() < 1e-12);
        assert!((r.approx_error_pct() + 4.0).abs() < 1e-9);
    }

    #[test]
    fn direction_check() {
        let under = RatioRow::from_times(
            "u",
            Span::from_nanos(100),
            Span::from_nanos(200),
            Span::from_nanos(40),
        )
        .with_paper(Some(2.48), Some(0.37));
        assert!(under.same_direction_as_paper());

        let wrong = RatioRow::from_times(
            "w",
            Span::from_nanos(100),
            Span::from_nanos(200),
            Span::from_nanos(140),
        )
        .with_paper(Some(2.48), Some(0.37));
        assert!(!wrong.same_direction_as_paper());
    }

    #[test]
    fn table_renders_all_rows() {
        let rows = vec![
            RatioRow::from_times(
                "lfk03",
                Span::from_nanos(100),
                Span::from_nanos(456),
                Span::from_nanos(96),
            )
            .with_paper(Some(4.56), Some(0.96)),
            RatioRow::from_times(
                "lfk04",
                Span::from_nanos(100),
                Span::from_nanos(338),
                Span::from_nanos(106),
            ),
        ];
        let t = format_ratio_table("Table 2", &rows);
        assert!(t.contains("lfk03"));
        assert!(t.contains("lfk04"));
        assert!(t.contains("4.56"));
        assert!(t.lines().count() >= 4);
    }
}
