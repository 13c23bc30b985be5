//! # ppa-metrics — analysis products and presentation
//!
//! Turns analysis results into the artifacts the paper reports:
//!
//! - [`RatioRow`]/[`format_ratio_table`] — measured/actual and
//!   approximated/actual ratio tables (Tables 1 and 2, Figure 1's bars);
//! - [`waiting_table`] — per-processor waiting percentages of the
//!   approximated execution (Table 3);
//! - [`build_timeline`]/[`render_timeline`] — per-processor
//!   active/waiting/idle Gantt rows (Figure 4);
//! - [`parallelism_profile`]/[`render_parallelism`] — parallelism over
//!   time and its average (Figure 5);
//! - CSV export of each for external plotting.

#![warn(missing_docs)]

mod census;
mod chart;
mod decompose;
mod export;
mod histogram;
mod order;
mod parallelism;
mod ratio;
mod timeline;
mod waiting;

pub use census::{census, census_delta, format_census, CensusDelta, TraceCensus};
pub use chart::{render_bars, BarGroup};
pub use decompose::{decompose_slowdown, format_decomposition, SlowdownDecomposition};
pub use export::{write_parallelism_csv, write_ratios_csv, write_timeline_csv, write_waiting_csv};
pub use histogram::{render_histogram, wait_histogram, SpanHistogram};
pub use order::{order_perturbation, OrderPerturbation};
pub use parallelism::{parallelism_profile, render_parallelism, ParallelismProfile};
pub use ratio::{format_ratio_table, RatioRow};
pub use timeline::{build_timeline, loop_windows, render_timeline, Interval, ProcState, Timeline};
pub use waiting::{format_waiting_table, waiting_table, ProcWaiting, WaitingTable};

#[cfg(test)]
mod proptests {
    use super::*;
    use ppa_trace::Time;
    use proptest::prelude::*;

    fn arb_timeline() -> impl Strategy<Value = Timeline> {
        // Random per-proc partitions of [0, total) into intervals with
        // random states.
        (
            1usize..6,
            1u64..50,
            proptest::collection::vec(0u8..3, 1..64),
        )
            .prop_map(|(procs, unit, states)| {
                let per = states.len() / procs + 1;
                let mut rows = Vec::new();
                let total = per as u64 * unit * procs as u64;
                for p in 0..procs {
                    let mut row = Vec::new();
                    let mut t = 0u64;
                    for k in 0..per {
                        let state = match states[(p * per + k) % states.len()] {
                            0 => ProcState::Active,
                            1 => ProcState::Waiting,
                            _ => ProcState::Idle,
                        };
                        row.push(Interval {
                            start: Time::from_nanos(t),
                            end: Time::from_nanos(t + unit * procs as u64),
                            state,
                        });
                        t += unit * procs as u64;
                    }
                    // Pad to the common end.
                    if t < total {
                        row.push(Interval {
                            start: Time::from_nanos(t),
                            end: Time::from_nanos(total),
                            state: ProcState::Idle,
                        });
                    }
                    rows.push(row);
                }
                Timeline {
                    rows,
                    start: Time::ZERO,
                    end: Time::from_nanos(total),
                }
            })
    }

    proptest! {
        /// Parallelism never exceeds the processor count, and the profile
        /// average over the full range equals total active time divided by
        /// the range.
        #[test]
        fn parallelism_is_consistent_with_active_time(tl in arb_timeline()) {
            let profile = parallelism_profile(&tl);
            prop_assert!(profile.peak() <= tl.rows.len());

            let total_active: f64 = (0..tl.rows.len())
                .map(|p| tl.active(p).as_nanos() as f64)
                .sum();
            let range = tl.end.saturating_since(tl.start).as_nanos() as f64;
            if range > 0.0 {
                let avg = profile.average(tl.start, tl.end);
                let expected = total_active / range;
                prop_assert!((avg - expected).abs() < 1e-6,
                    "avg {avg} vs expected {expected}");
            }
        }

        /// Order perturbation on randomly shuffled single-event-per-proc
        /// traces matches a brute-force discordant-pair count.
        #[test]
        fn order_inversions_match_brute_force(perm in proptest::sample::subsequence((0u16..12).collect::<Vec<_>>(), 2..12)) {
            use ppa_trace::{Event, EventKind, ProcessorId, StatementId, Trace, TraceKind};
            // Reference: procs in ascending time order; perturbed: the
            // shuffled (here: reversed subsequence) order.
            let mut shuffled = perm.clone();
            shuffled.reverse();
            let make = |order: &[u16]| {
                let events = order
                    .iter()
                    .enumerate()
                    .map(|(i, &p)| {
                        Event::new(
                            Time::from_nanos((i as u64 + 1) * 10),
                            ProcessorId(p),
                            i as u64,
                            EventKind::Statement { stmt: StatementId(0) },
                        )
                    })
                    .collect();
                Trace::from_events(TraceKind::Measured, events)
            };
            let reference = make(&perm);
            let perturbed = make(&shuffled);
            let r = order_perturbation(&reference, &perturbed);
            // Brute force: positions of each proc in both orders.
            let pos = |order: &[u16], p: u16| order.iter().position(|&x| x == p).unwrap();
            let mut brute = 0u64;
            for i in 0..perm.len() {
                for j in i + 1..perm.len() {
                    let (a, b) = (perm[i], perm[j]);
                    let same = (pos(&perm, a) < pos(&perm, b))
                        == (pos(&shuffled, a) < pos(&shuffled, b));
                    if !same {
                        brute += 1;
                    }
                }
            }
            prop_assert_eq!(r.inversions, brute);
        }

        /// `span_at_least` is monotonically decreasing in the level.
        #[test]
        fn span_at_least_is_monotone(tl in arb_timeline()) {
            let profile = parallelism_profile(&tl);
            let mut prev = None;
            for k in 1..=tl.rows.len() + 1 {
                let s = profile.span_at_least(k);
                if let Some(p) = prev {
                    prop_assert!(s <= p);
                }
                prev = Some(s);
            }
        }
    }
}
