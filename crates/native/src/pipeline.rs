//! The end-to-end native demonstration: measure, analyze, compare.
//!
//! Unlike the simulator experiments, the "actual" time here is itself a
//! measurement (an uninstrumented wall-clock run), so the comparison has
//! real noise — this is the regime the paper's authors worked in.

use crate::calibrate::calibrate;
use crate::clock::TraceClock;
use crate::executor::{execute_program, NativeConfig, NativeError};
use crate::inner_product::doacross_inner_product;
use ppa_core::event_based;
use ppa_lfk::data::fill;
use ppa_lfk::kernels::k03_with;
use ppa_program::{Program, ProgramBuilder};
use ppa_trace::Span;
use std::fmt::Write as _;

/// A loop-3-shaped native workload with microsecond-scale statements
/// (large enough that tracer padding is a measurable but not absurd
/// intrusion).
fn native_loop3(trip: u64) -> Program {
    let mut b = ProgramBuilder::new("native-lfk03");
    let v = b.sync_var();
    b.serial([("init", 20_000u64)])
        .doacross(1, trip, |body| {
            body.compute("mul", 6_000)
                .compute("fetch", 6_000)
                .await_var(v, -1)
                .compute_unobservable("update", 1_500)
                .advance(v)
        })
        .serial([("fini", 20_000u64)])
        .build()
        .expect("native loop 3 is valid")
}

/// Runs the full native pipeline and returns a human-readable report.
///
/// 1. calibrate recording and synchronization overheads;
/// 2. run uninstrumented (actual wall time);
/// 3. run fully instrumented (measured trace);
/// 4. event-based perturbation analysis of the measured trace;
/// 5. verify the real DOACROSS inner product against the sequential
///    kernel.
pub fn native_pipeline_demo() -> Result<String, NativeError> {
    // Use the host's real parallelism: forcing extra threads onto a
    // single-CPU host would serialize the spin work and poison the
    // "actual" baseline.
    let threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .min(8);
    let padding = Span::from_micros(3);
    let trip = 400;

    let clock = TraceClock::start();
    let overheads = calibrate(&clock, padding);

    let program = native_loop3(trip);
    // Median of three uninstrumented runs to tame scheduling noise.
    let mut actual_walls: Vec<Span> = (0..3)
        .map(|_| {
            execute_program(&program, &NativeConfig::uninstrumented(threads))
                .expect("validated program")
                .wall
        })
        .collect();
    actual_walls.sort();
    let actual = actual_walls[1];

    let measured = execute_program(&program, &NativeConfig::instrumented(threads, padding))?;
    let analysis =
        event_based(&measured.trace, &overheads).expect("native measured traces are feasible");

    let slowdown = measured.wall.ratio(actual);
    let approx_ratio = analysis.total_time().ratio(actual);

    // Real computation check: the DOACROSS inner product is bit-identical
    // to the sequential kernel.
    let n = 4_096;
    let z = fill(n, 301, 1.0);
    let x = fill(n, 302, 1.0);
    let par = doacross_inner_product(&z, &x, threads);
    let seq = k03_with(&z, &x);

    let mut out = String::new();
    let _ = writeln!(out, "threads:                {threads}");
    let _ = writeln!(out, "tracer padding:         {padding}");
    let _ = writeln!(
        out,
        "calibrated overheads:   record {} | s_nowait {} | s_wait {} | advance {}",
        overheads.statement_event, overheads.s_nowait, overheads.s_wait, overheads.advance_op
    );
    let _ = writeln!(out, "actual wall (median/3): {actual}");
    let _ = writeln!(
        out,
        "measured wall:          {} ({slowdown:.2}x slowdown)",
        measured.wall
    );
    let _ = writeln!(out, "measured events:        {}", measured.trace.len());
    let _ = writeln!(
        out,
        "event-based approx:     {} ({approx_ratio:.2}x of actual, {:+.1}% error)",
        analysis.total_time(),
        (approx_ratio - 1.0) * 100.0
    );
    let _ = writeln!(
        out,
        "inner product check:    parallel {} == sequential {} : {}",
        par,
        seq,
        if par.to_bits() == seq.to_bits() {
            "BIT-IDENTICAL"
        } else {
            "MISMATCH"
        }
    );
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppa_trace::{pair_sync_events, pair_sync_events_strict};

    #[test]
    fn pipeline_runs_and_reports() {
        let _guard = crate::TEST_SERIAL.lock().unwrap();
        let report = native_pipeline_demo().unwrap();
        assert!(report.contains("BIT-IDENTICAL"), "report:\n{report}");
        assert!(report.contains("event-based approx"));
    }

    /// Relations that hold *within* one measured run, whatever else the
    /// host is doing: the trace has the program's shape, every event is
    /// approximated, the approximation is a feasible execution, and
    /// removing overhead never lengthens the run. How far the
    /// approximation lands from an uninstrumented wall clock is a
    /// comparison of two noisy runs — `ppa native` reports it.
    #[test]
    fn native_analysis_is_in_the_right_ballpark() {
        let _guard = crate::TEST_SERIAL.lock().unwrap();
        let threads = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
            .min(4);
        let padding = Span::from_micros(5);
        let trip = 300;
        let clock = TraceClock::start();
        let overheads = calibrate(&clock, padding);
        let program = native_loop3(trip);

        let measured =
            execute_program(&program, &NativeConfig::instrumented(threads, padding)).unwrap();
        assert!(measured.trace.is_totally_ordered());
        let idx = pair_sync_events(&measured.trace).unwrap();
        assert_eq!(
            (idx.awaits.len(), idx.advances.len(), idx.barriers.len()),
            (trip as usize, trip as usize, 1)
        );

        let analysis = event_based(&measured.trace, &overheads).unwrap();
        assert_eq!(analysis.trace.len(), measured.trace.len());
        assert_eq!(analysis.awaits.len(), trip as usize);
        assert!(pair_sync_events_strict(&analysis.trace).is_ok());
        let (approx, raw) = (analysis.total_time(), measured.trace.total_time());
        assert!(approx > Span::ZERO);
        assert!(
            approx <= raw,
            "approximated total {approx} exceeds its own measured total {raw}"
        );
    }
}
