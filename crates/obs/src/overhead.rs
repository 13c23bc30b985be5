//! Self-overhead calibration: what does a probe cost on this machine?
//!
//! The paper's discipline is that instrumentation cost must be measured,
//! not assumed. This module times the *active* probe operations in a
//! tight loop (the same in-vitro technique as the clock calibration in
//! `crates/native`) so snapshots can report their own perturbation.

use crate::Registry;
use std::time::Instant;

/// Calibrated per-operation cost of the active probes, in nanoseconds.
///
/// Produced by [`calibrate_self_overhead`]. These are in-vitro estimates:
/// a hot loop over a resident cache line, so they are a lower bound on
/// the in-situ cost (real call sites may add cache misses and contention)
/// but the right number for first-order perturbation accounting — total
/// overhead ≈ probe count × per-probe cost.
#[derive(Clone, Copy, Debug)]
pub struct SelfOverhead {
    /// Cost of one attached `Counter::inc`, in nanoseconds.
    pub counter_inc_ns: f64,
    /// Cost of one attached `Gauge::set`, in nanoseconds.
    pub gauge_set_ns: f64,
    /// Cost of one attached `Histogram::observe`, in nanoseconds.
    pub histogram_observe_ns: f64,
}

impl SelfOverhead {
    /// The mean cost across the three probe kinds — the single
    /// `ppa_obs_self_overhead_ns_per_probe` figure exported in snapshots.
    pub fn per_probe_ns(&self) -> f64 {
        (self.counter_inc_ns + self.gauge_set_ns + self.histogram_observe_ns) / 3.0
    }

    /// Registers the calibration as gauges on `registry` so every export
    /// carries its own perturbation estimate:
    /// `ppa_obs_self_overhead_ns_per_probe` plus one
    /// `ppa_obs_self_overhead_ns{probe=...}` gauge per probe kind.
    pub fn export(&self, registry: &Registry) {
        registry
            .gauge(
                "ppa_obs_self_overhead_ns_per_probe",
                "Calibrated mean cost of one metric probe, in nanoseconds.",
            )
            .set(self.per_probe_ns());
        for (kind, ns) in [
            ("counter_inc", self.counter_inc_ns),
            ("gauge_set", self.gauge_set_ns),
            ("histogram_observe", self.histogram_observe_ns),
        ] {
            registry
                .gauge_with(
                    "ppa_obs_self_overhead_ns",
                    &[("probe", kind)],
                    "Calibrated cost of one probe operation by kind, in nanoseconds.",
                )
                .set(ns);
        }
    }
}

/// Number of probe operations timed per calibration loop. Large enough to
/// amortize the two `Instant::now` reads bracketing the loop, small
/// enough to finish in microseconds.
const N: u64 = 100_000;

fn time_loop(mut op: impl FnMut(u64)) -> f64 {
    let begin = Instant::now();
    for i in 0..N {
        op(i);
    }
    begin.elapsed().as_nanos() as f64 / N as f64
}

/// Measures the per-operation cost of attached active probes on the
/// running machine.
///
/// Times probes of a private registry, so "what would a probe cost
/// here?" has an answer whether or not the caller attached any. Takes a
/// few hundred microseconds.
pub fn calibrate_self_overhead() -> SelfOverhead {
    let registry = Registry::new();
    let counter = registry.counter("ppa_obs_calibration_counter", "calibration scratch");
    let gauge = registry.gauge("ppa_obs_calibration_gauge", "calibration scratch");
    let histogram = registry.histogram(
        "ppa_obs_calibration_histogram",
        "calibration scratch",
        &[16, 64, 256, 1024, 4096],
    );

    // Warm the cells (first touch allocates cache lines, not probe cost).
    counter.inc();
    gauge.set(0.0);
    histogram.observe(1);

    SelfOverhead {
        counter_inc_ns: time_loop(|_| counter.inc()),
        gauge_set_ns: time_loop(|i| gauge.set(i as f64)),
        histogram_observe_ns: time_loop(|i| histogram.observe(i & 0xFFF)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn calibration_yields_sane_positive_costs() {
        let oh = calibrate_self_overhead();
        for ns in [oh.counter_inc_ns, oh.gauge_set_ns, oh.histogram_observe_ns] {
            assert!(ns > 0.0, "probe cost must be positive, got {ns}");
            assert!(ns < 10_000.0, "probe cost implausibly high: {ns} ns");
        }
        let mean = oh.per_probe_ns();
        assert!(
            mean >= oh
                .counter_inc_ns
                .min(oh.gauge_set_ns.min(oh.histogram_observe_ns))
        );
        assert!(
            mean <= oh
                .counter_inc_ns
                .max(oh.gauge_set_ns.max(oh.histogram_observe_ns))
        );
    }

    #[test]
    fn export_registers_the_per_probe_gauge() {
        let oh = SelfOverhead {
            counter_inc_ns: 3.0,
            gauge_set_ns: 5.0,
            histogram_observe_ns: 10.0,
        };
        let registry = Registry::new();
        oh.export(&registry);
        let text = crate::prometheus_text(&registry.snapshot());
        assert!(text.contains("ppa_obs_self_overhead_ns_per_probe 6\n"));
        assert!(text.contains("ppa_obs_self_overhead_ns{probe=\"counter_inc\"} 3\n"));
    }
}
