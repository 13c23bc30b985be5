//! Property tests for span recording: guards are strictly LIFO per
//! thread, so whatever shape of call tree the pipeline executes, the
//! drained log must be a well-formed forest — child intervals inside
//! their parents, non-ancestor spans on one thread disjoint, and the
//! per-stage totals exactly the sum of span durations.

use ppa_obs::{span_enter, SpanEvent, SpanRecorder, Stage, STAGE_COUNT};
use proptest::prelude::*;
use std::collections::HashMap;

/// A random call tree: each node opens one stage span and executes its
/// children inside it.
#[derive(Clone, Debug)]
struct Node {
    stage: usize,
    children: Vec<Node>,
}

fn node_count(node: &Node) -> usize {
    1 + node.children.iter().map(node_count).sum::<usize>()
}

fn exec(node: &Node) {
    let _guard = span_enter(Stage::ALL[node.stage]);
    for child in &node.children {
        exec(child);
    }
}

fn arb_tree() -> impl Strategy<Value = Node> {
    let leaf = (0..STAGE_COUNT).prop_map(|stage| Node {
        stage,
        children: Vec::new(),
    });
    leaf.prop_recursive(4, 24, 4, |inner| {
        (0..STAGE_COUNT, proptest::collection::vec(inner, 0..4))
            .prop_map(|(stage, children)| Node { stage, children })
    })
}

fn is_ancestor(by_id: &HashMap<u64, &SpanEvent>, anc: &SpanEvent, e: &SpanEvent) -> bool {
    let mut cur = e.parent;
    while let Some(id) = cur {
        if id == anc.id {
            return true;
        }
        cur = by_id[&id].parent;
    }
    false
}

/// The forest invariants every drained log must satisfy.
fn assert_well_nested(events: &[SpanEvent]) {
    let by_id: HashMap<u64, &SpanEvent> = events.iter().map(|e| (e.id, e)).collect();
    for e in events {
        assert!(
            e.end_ns >= e.start_ns,
            "span {} ends before it starts",
            e.id
        );
        match e.parent {
            None => assert_eq!(e.depth, 0, "parentless span {} must be a root", e.id),
            Some(pid) => {
                let p = by_id.get(&pid).expect("parent span recorded");
                assert_eq!(e.thread, p.thread, "parent on another thread");
                assert_eq!(e.depth, p.depth + 1, "depth is not parent+1");
                assert!(
                    e.start_ns >= p.start_ns && e.end_ns <= p.end_ns,
                    "child [{}, {}] outside parent [{}, {}]",
                    e.start_ns,
                    e.end_ns,
                    p.start_ns,
                    p.end_ns
                );
            }
        }
    }
    // On one thread, spans that are not in an ancestor relation must
    // not overlap (the guard stack forbids interleaving).
    for (i, a) in events.iter().enumerate() {
        for b in &events[i + 1..] {
            if a.thread != b.thread || is_ancestor(&by_id, a, b) || is_ancestor(&by_id, b, a) {
                continue;
            }
            assert!(
                a.end_ns <= b.start_ns || b.end_ns <= a.start_ns,
                "non-nested spans {} and {} overlap on thread {}",
                a.id,
                b.id,
                a.thread
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Any forest of call trees on one thread drains to a well-nested
    /// log whose stage totals equal the sum of span durations.
    #[test]
    fn drained_forest_is_well_nested(trees in proptest::collection::vec(arb_tree(), 1..5)) {
        let rec = SpanRecorder::new();
        let bind = rec.bind_current_thread();
        for tree in &trees {
            exec(tree);
        }
        drop(bind);
        let log = rec.drain();

        let expected: usize = trees.iter().map(node_count).sum();
        prop_assert_eq!(log.events.len(), expected);
        prop_assert_eq!(log.dropped, 0);
        assert_well_nested(&log.events);

        // drain sorts by (start_ns, id).
        for w in log.events.windows(2) {
            prop_assert!((w[0].start_ns, w[0].id) < (w[1].start_ns, w[1].id));
        }

        // Totals are exactly the recorded durations, per stage.
        let mut by_stage = [0u64; STAGE_COUNT];
        for e in &log.events {
            by_stage[e.stage.index()] += e.duration_ns();
        }
        prop_assert_eq!(by_stage, log.stage_ns);

        // Sibling roots on a thread execute in entry order.
        let mut roots: Vec<&SpanEvent> = log.events.iter().filter(|e| e.depth == 0).collect();
        prop_assert_eq!(roots.len(), trees.len());
        roots.sort_by_key(|e| e.id);
        for w in roots.windows(2) {
            prop_assert!(w[0].end_ns <= w[1].start_ns);
        }
    }

    /// Concurrent threads recording the same tree into one recorder get
    /// distinct thread ids and independently well-nested forests.
    #[test]
    fn per_thread_forests_stay_separate(tree in arb_tree(), threads in 2usize..4) {
        let rec = SpanRecorder::new();
        std::thread::scope(|s| {
            for _ in 0..threads {
                let rec = rec.clone();
                let tree = &tree;
                s.spawn(move || {
                    let _bind = rec.bind_current_thread();
                    exec(tree);
                });
            }
        });
        let log = rec.drain();
        prop_assert_eq!(log.events.len(), threads * node_count(&tree));
        assert_well_nested(&log.events);

        let mut ids: Vec<u32> = log.events.iter().map(|e| e.thread).collect();
        ids.sort_unstable();
        ids.dedup();
        prop_assert_eq!(ids.len(), threads);
    }
}
