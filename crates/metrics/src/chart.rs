//! ASCII chart rendering for Figure-1-style grouped bars.

/// One labeled group of bars: `(group label, [(series label, value)])`.
pub type BarGroup = (String, Vec<(String, f64)>);

/// Renders horizontal grouped bars, scaled to the global maximum.
///
/// The paper's Figure 1 is a grouped bar chart of measured/actual and
/// approximated/actual ratios per loop; this renders the same data in a
/// terminal.
pub fn render_bars(title: &str, groups: &[BarGroup], width: usize) -> String {
    let width = width.max(10);
    let max = groups
        .iter()
        .flat_map(|(_, bars)| bars.iter().map(|&(_, v)| v))
        .fold(f64::EPSILON, f64::max);
    let mut out = format!("{title}\n");
    for (label, bars) in groups {
        out.push_str(&format!("{label}\n"));
        for (series, value) in bars {
            let filled = ((value / max) * width as f64).round().max(0.0) as usize;
            out.push_str(&format!(
                "  {:<12} |{}{}| {:.2}\n",
                series,
                "█".repeat(filled.min(width)),
                " ".repeat(width.saturating_sub(filled)),
                value
            ));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bars_scale_to_max() {
        let groups = vec![
            (
                "loop 1".to_string(),
                vec![("measured".to_string(), 10.0), ("approx".to_string(), 1.0)],
            ),
            (
                "loop 19".to_string(),
                vec![("measured".to_string(), 20.0), ("approx".to_string(), 1.0)],
            ),
        ];
        let s = render_bars("Fig 1", &groups, 20);
        assert!(s.contains("loop 1"));
        assert!(s.contains("loop 19"));
        // The 20.0 bar is full width; the 10.0 bar is half.
        let full = s.lines().find(|l| l.contains("20.00")).unwrap();
        let half = s.lines().find(|l| l.contains("10.00")).unwrap();
        assert_eq!(full.matches('█').count(), 20);
        assert_eq!(half.matches('█').count(), 10);
    }

    #[test]
    fn zero_values_render() {
        let s = render_bars("t", &[(String::new(), vec![("a".into(), 0.0)])], 10);
        assert!(s.contains("0.00"));
    }
}
