//! Suppression round-trip identity: for any totally ordered event
//! stream, expanding the suppressed stream reproduces the input
//! exactly. The suppressor lives in this crate; the expander lives in
//! `ppa-core`; [`ppa_trace::Event::repeat_shifted`] is their shared
//! definition of occurrence arithmetic, and these tests are the fence
//! around that contract.

use ppa_core::expand_events;
use ppa_slice::suppress_events;
use ppa_trace::{Event, EventKind, KindCode, ProcessorId, Time};
use proptest::prelude::*;

/// One drawn event kind: a kind the table lets a trace record (every
/// kind but the `repeat` container, so a new table row joins here
/// without an edit), a small id, and a small counter. Few distinct
/// values, so random streams repeat by accident, which is exactly what
/// stresses run detection and closure.
#[derive(Debug, Clone, Copy)]
struct DrawnKind {
    code: KindCode,
    id: u64,
    counter: i64,
}

impl DrawnKind {
    /// The kind, its counter moved by `shift`. A two-field kind is an
    /// (id, counter) pair — a loop and its iteration, a variable and its
    /// tag — and its counter is what a repeat stride shifts; the other
    /// kinds take the id alone and ignore the counter. This restates the
    /// kind table's shift column independently of it.
    fn kind(self, shift: i64) -> EventKind {
        let counter = self.counter.wrapping_add(shift) as u64;
        self.code.with_fields(&[self.id, counter])
    }
}

fn kind_strategy() -> impl Strategy<Value = DrawnKind> {
    let codes: Vec<KindCode> = KindCode::ALL
        .into_iter()
        .filter(|code| code.is_selectable())
        .collect();
    (0..codes.len(), 0u64..2, -2i64..3).prop_map(move |(i, id, counter)| DrawnKind {
        code: codes[i],
        id,
        counter,
    })
}

/// Arbitrary totally ordered streams: cumulative times, sequential
/// seqs, a handful of processors.
fn stream_strategy() -> impl Strategy<Value = Vec<Event>> {
    proptest::collection::vec((0u64..3, 0u16..3, kind_strategy()), 0..400).prop_map(|steps| {
        let mut t = 0u64;
        steps
            .into_iter()
            .enumerate()
            .map(|(i, (dt, proc, kind))| {
                t += dt;
                Event::new(
                    Time::from_nanos(t),
                    ProcessorId(proc),
                    i as u64,
                    kind.kind(0),
                )
            })
            .collect()
    })
}

/// One block of a repetitive stream: a pattern, its occurrence count,
/// the time step per event, and the counter stride per occurrence.
type Block = (Vec<DrawnKind>, usize, u64, i64);

fn block_strategy(occurrences: std::ops::Range<usize>) -> impl Strategy<Value = Block> {
    (
        proptest::collection::vec(kind_strategy(), 1..5),
        occurrences,
        1u64..5,
        -2i64..3,
    )
}

/// One processor emitting the blocks in turn: uniform strides in time,
/// in sequence and, occurrence by occurrence, in every counter — the
/// regime suppression targets.
fn repetitive_events(blocks: Vec<Block>) -> Vec<Event> {
    let mut events = Vec::new();
    let mut t = 0u64;
    let mut seq = 0u64;
    for (pattern, occurrences, dt, stride) in blocks {
        for r in 0..occurrences as i64 {
            for kind in &pattern {
                let kind = kind.kind(r * stride);
                events.push(Event::new(Time::from_nanos(t), ProcessorId(0), seq, kind));
                t += dt;
                seq += 1;
            }
        }
    }
    events
}

fn repetitive_strategy() -> impl Strategy<Value = Vec<Event>> {
    proptest::collection::vec(block_strategy(1..40), 1..5).prop_map(repetitive_events)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// expand(suppress(s)) == s for arbitrary streams.
    #[test]
    fn random_stream_round_trips(events in stream_strategy()) {
        let suppressed = suppress_events(&events);
        let expanded = expand_events(&suppressed).unwrap();
        prop_assert_eq!(&expanded, &events);
    }

    /// Same identity on streams built from explicit pattern repetition —
    /// and there suppression must actually shrink the stream.
    #[test]
    fn repetitive_stream_round_trips_and_shrinks(events in repetitive_strategy()) {
        let suppressed = suppress_events(&events);
        let expanded = expand_events(&suppressed).unwrap();
        prop_assert_eq!(&expanded, &events);
        if events.len() >= 32 {
            prop_assert!(
                suppressed.len() < events.len(),
                "no suppression on {} repetitive events", events.len()
            );
        }
    }

    /// One pattern of any kinds repeated four times or more always
    /// collapses, whatever counter stride its occurrences take: every
    /// kind whose counter a stride shifts must be one the suppressor can
    /// stride over.
    #[test]
    fn one_repeated_pattern_always_shrinks(block in block_strategy(4..40)) {
        let events = repetitive_events(vec![block]);
        let suppressed = suppress_events(&events);
        prop_assert_eq!(&expand_events(&suppressed).unwrap(), &events);
        prop_assert!(
            suppressed.len() < events.len(),
            "no suppression on {} events", events.len()
        );
    }

    /// The suppressed stream stays totally ordered (records occupy the
    /// slot of the first event they suppress).
    #[test]
    fn suppressed_stream_is_totally_ordered(events in stream_strategy()) {
        let suppressed = suppress_events(&events);
        prop_assert!(suppressed
            .windows(2)
            .all(|w| w[0].order_key() <= w[1].order_key()));
    }
}
