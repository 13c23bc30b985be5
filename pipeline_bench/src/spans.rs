//! In-memory span recorder for the traced run.
//!
//! The harness wraps every call into a layer's public functions in a
//! span {name, start, end, parent, run}. Spans stay in memory and are
//! written out as JSON only when the benchmark ends; a layer's
//! `busy_s` is the *self* time of its spans (duration minus the
//! interval its children cover). A disabled recorder records nothing,
//! which is how the tracing overhead is measured: the same replay is
//! timed once with recording off and once with it on.

use std::time::Instant;

/// One recorded span. Times are nanoseconds since the recorder's
/// origin.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    /// Identifier shared by the spans of one replay / one run.
    pub run: u32,
    /// Counts taken at the same call (events, bytes, ...).
    pub counts: Vec<(&'static str, f64)>,
}

/// Handle returned by [`Recorder::enter`]; pass it back to
/// [`Recorder::exit`].
#[derive(Debug, Clone, Copy)]
pub struct SpanId(Option<usize>);

#[derive(Debug)]
pub struct Recorder {
    enabled: bool,
    origin: Instant,
    run: u32,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Recorder {
    pub fn new(enabled: bool) -> Self {
        Recorder {
            enabled,
            origin: Instant::now(),
            run: 0,
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// Starts a new run id for the spans that follow.
    pub fn next_run(&mut self) {
        self.run += 1;
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// `t` on the recorder's clock (0 for instants before its origin).
    pub fn ns_at(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Opens a span as a child of the innermost open span.
    pub fn enter(&mut self, name: &'static str) -> SpanId {
        if !self.enabled {
            return SpanId(None);
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: 0,
            end_ns: 0,
            parent: self.stack.last().copied(),
            run: self.run,
            counts: Vec::new(),
        });
        self.stack.push(id);
        // Stamp last, so the bookkeeping above is not inside the span.
        self.spans[id].start_ns = self.now_ns();
        SpanId(Some(id))
    }

    /// Closes a span opened by [`enter`](Self::enter), attaching the
    /// counts taken at that call.
    pub fn exit(&mut self, id: SpanId, counts: &[(&'static str, f64)]) {
        let end = self.now_ns();
        let Some(id) = id.0 else { return };
        let top = self.stack.pop();
        debug_assert_eq!(top, Some(id), "spans must close innermost-first");
        let span = &mut self.spans[id];
        span.end_ns = end;
        span.counts.extend_from_slice(counts);
    }

    /// Records a span timed elsewhere (another thread, a child
    /// process) under the innermost open span.
    pub fn add(
        &mut self,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
        counts: &[(&'static str, f64)],
    ) {
        if !self.enabled {
            return;
        }
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent: self.stack.last().copied(),
            run: self.run,
            counts: counts.to_vec(),
        });
    }

    /// True when no span named `name` has been recorded yet.
    pub fn missing(&self, name: &str) -> bool {
        !self.spans.iter().any(|s| s.name == name)
    }

    /// Total self time, in seconds, of every span named `name`.
    pub fn busy_s(&self, name: &str) -> f64 {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let ns: u64 = self
            .spans
            .iter()
            .zip(&child_ns)
            .filter(|(s, _)| s.name == name)
            .map(|(s, c)| (s.end_ns - s.start_ns).saturating_sub(*c))
            .sum();
        ns as f64 / 1e9
    }

    /// Sum of count `key` over every span named `name`.
    pub fn count(&self, name: &str, key: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .flat_map(|s| s.counts.iter())
            .filter(|(k, _)| *k == key)
            .map(|(_, v)| v)
            .sum()
    }

    /// Largest value of count `key` over every span named `name`.
    pub fn max_count(&self, name: &str, key: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .flat_map(|s| s.counts.iter())
            .filter(|(k, _)| *k == key)
            .map(|(_, v)| *v)
            .fold(0.0, f64::max)
    }

    /// The span list as a JSON array, one object per span.
    pub fn to_json(&self) -> String {
        let mut out = String::from("[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let counts = s
                .counts
                .iter()
                .map(|(k, v)| format!("\"{k}\": {v}"))
                .collect::<Vec<_>>()
                .join(", ");
            out.push_str(&format!(
                "  {{\"id\": {i}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \
                 \"parent\": {parent}, \"run\": {}, \"counts\": {{{counts}}}}}{}\n",
                s.name,
                s.start_ns,
                s.end_ns,
                s.run,
                if i + 1 < self.spans.len() { "," } else { "" }
            ));
        }
        out.push(']');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut r = Recorder::new(true);
        r.add("outer", 0, 100, &[("n", 1.0)]);
        // Parent the next two under span 0 by hand.
        r.stack.push(0);
        r.add("inner", 10, 40, &[("n", 2.0)]);
        r.add("inner", 50, 60, &[("n", 3.0)]);
        r.stack.pop();
        assert_eq!(r.busy_s("outer"), 60e-9);
        assert_eq!(r.busy_s("inner"), 40e-9);
        assert_eq!(r.count("inner", "n"), 5.0);
        assert_eq!(r.max_count("inner", "n"), 3.0);
        assert!(r.missing("absent") && !r.missing("inner"));
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let mut r = Recorder::new(false);
        let s = r.enter("x");
        r.exit(s, &[("n", 1.0)]);
        r.add("y", 0, 1, &[]);
        assert_eq!(r.to_json(), "[\n]");
    }
}
