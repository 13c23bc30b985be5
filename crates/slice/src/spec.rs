//! Slice expressions: the composable predicate layer.
//!
//! A slice expression is a whitespace-separated conjunction of
//! `key=value` clauses (see QUERIES.md for the normative grammar).
//! Each clause narrows the selection; within a clause, set members
//! disjoin. [`SliceSpec::parse`] turns an expression into a
//! [`SliceSpec`]; [`SliceSpec::matches`] evaluates it against one
//! event.

use ppa_trace::{Event, EventKind, KindCode, KindGroup, Time};
use std::fmt;

/// Every clause keyword the parser accepts, in grammar-table order.
///
/// `scripts/check_protocol_doc.py` pins the QUERIES.md grammar table
/// against this list; extend both together.
pub const CLAUSE_KEYWORDS: &[&str] = &[
    "window", "since", "until", "procs", "kind", "var", "tag", "barrier",
];

/// A set of unsigned identifiers, stored as inclusive ranges.
///
/// Parsed from comma-separated elements, each `INT` or `INT..INT`
/// (inclusive on both ends): `0..3,7` is {0,1,2,3,7}.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IdSet {
    ranges: Vec<(u64, u64)>,
}

impl IdSet {
    /// True if `v` falls in any range.
    #[inline]
    pub fn contains(&self, v: u64) -> bool {
        self.ranges.iter().any(|&(lo, hi)| lo <= v && v <= hi)
    }

    fn parse(key: &str, value: &str) -> Result<IdSet, ParseError> {
        let ranges = parse_ranges(key, value, |s| {
            s.parse::<u64>()
                .map_err(|_| bad_value(key, value, "expected an unsigned integer"))
        })?;
        Ok(IdSet { ranges })
    }
}

/// A set of signed synchronization tags, stored as inclusive ranges.
///
/// Same element syntax as [`IdSet`] but over `i64`, so negative tags
/// are expressible: `tag=-3,0..100`. The `..` range separator (rather
/// than `-`) keeps negative bounds unambiguous.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TagSet {
    ranges: Vec<(i64, i64)>,
}

impl TagSet {
    /// True if `v` falls in any range.
    #[inline]
    pub fn contains(&self, v: i64) -> bool {
        self.ranges.iter().any(|&(lo, hi)| lo <= v && v <= hi)
    }

    fn parse(key: &str, value: &str) -> Result<TagSet, ParseError> {
        let ranges = parse_ranges(key, value, |s| {
            s.parse::<i64>()
                .map_err(|_| bad_value(key, value, "expected an integer"))
        })?;
        Ok(TagSet { ranges })
    }
}

fn parse_ranges<T: Copy + PartialOrd>(
    key: &str,
    value: &str,
    parse_int: impl Fn(&str) -> Result<T, ParseError>,
) -> Result<Vec<(T, T)>, ParseError> {
    if value.is_empty() {
        return Err(bad_value(key, value, "empty set"));
    }
    let mut ranges = Vec::new();
    for elem in value.split(',') {
        let (lo, hi) = match elem.find("..") {
            Some(dot) => {
                let lo = parse_int(&elem[..dot])?;
                let hi = parse_int(&elem[dot + 2..])?;
                (lo, hi)
            }
            None => {
                let v = parse_int(elem)?;
                (v, v)
            }
        };
        if hi < lo {
            return Err(bad_value(key, value, "range upper bound below lower"));
        }
        ranges.push((lo, hi));
    }
    Ok(ranges)
}

/// A set of event kinds, parsed from comma-separated mnemonics
/// (`kind=stmt,advance`) or the group names `sync`, `barrier`,
/// `marker`, `lock`, `sem`, `task`. Each kind is the bit `1 << code`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KindSet {
    bits: u32,
}

impl KindSet {
    /// True if this set selects `kind`. `Repeat` records never match —
    /// they stand for suppressed events of *other* kinds.
    #[inline]
    pub fn contains(&self, kind: &EventKind) -> bool {
        self.bits & KindSet::bit(kind.code()) != 0
    }

    fn bit(code: KindCode) -> u32 {
        1 << code as u32
    }

    fn parse(value: &str) -> Result<KindSet, ParseError> {
        if value.is_empty() {
            return Err(bad_value("kind", value, "empty set"));
        }
        let mut bits = 0u32;
        for name in value.split(',') {
            bits |= match KindGroup::from_name(name) {
                Some(group) => group.members().map(KindSet::bit).fold(0, |a, b| a | b),
                None => match KindCode::from_mnemonic(name) {
                    Some(code) if code.is_selectable() => KindSet::bit(code),
                    _ => {
                        return Err(bad_value(
                            "kind",
                            value,
                            "unknown kind mnemonic (see QUERIES.md)",
                        ))
                    }
                },
            };
        }
        Ok(KindSet { bits })
    }
}

/// A slice-expression parse error, with enough context to print a
/// useful one-line diagnostic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    msg: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "slice expression: {}", self.msg)
    }
}

impl std::error::Error for ParseError {}

fn bad_value(key: &str, value: &str, why: &str) -> ParseError {
    ParseError {
        msg: format!("clause `{key}={value}`: {why}"),
    }
}

/// Parses `TIME`: a non-negative integer with an optional `ns`, `us`,
/// `ms`, or `s` unit suffix (default `ns`).
fn parse_time(key: &str, value: &str) -> Result<Time, ParseError> {
    let (digits, mult) = if let Some(d) = value.strip_suffix("ns") {
        (d, 1u64)
    } else if let Some(d) = value.strip_suffix("us") {
        (d, 1_000)
    } else if let Some(d) = value.strip_suffix("ms") {
        (d, 1_000_000)
    } else if let Some(d) = value.strip_suffix('s') {
        (d, 1_000_000_000)
    } else {
        (value, 1)
    };
    let n: u64 = digits
        .parse()
        .map_err(|_| bad_value(key, value, "expected TIME (integer + optional ns/us/ms/s)"))?;
    let ns = n
        .checked_mul(mult)
        .ok_or_else(|| bad_value(key, value, "time overflows u64 nanoseconds"))?;
    Ok(Time::from_nanos(ns))
}

/// A parsed, composable slice predicate.
///
/// Every field is a conjunct; `None` means "no constraint". The time
/// window is half-open: `since <= t < until`. The episode-selection
/// clauses (`var`, `tag`, `barrier`) only ever match events that carry
/// the corresponding field — a `var=` clause rejects every
/// non-synchronization event outright.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SliceSpec {
    /// Inclusive lower time bound.
    pub since: Option<Time>,
    /// Exclusive upper time bound.
    pub until: Option<Time>,
    /// Emitting-processor selection.
    pub procs: Option<IdSet>,
    /// Event-kind selection.
    pub kinds: Option<KindSet>,
    /// Synchronization-variable selection (sync events only).
    pub vars: Option<IdSet>,
    /// Synchronization-tag selection (sync events only).
    pub tags: Option<TagSet>,
    /// Barrier-id selection (barrier events only).
    pub barriers: Option<IdSet>,
}

impl SliceSpec {
    /// Parses a slice expression: whitespace-separated `key=value`
    /// clauses, conjoined. Each clause key may appear at most once
    /// (`window` counts as both `since` and `until`). The empty
    /// expression parses to the match-everything spec.
    pub fn parse(expr: &str) -> Result<SliceSpec, ParseError> {
        let mut spec = SliceSpec::default();
        for clause in expr.split_whitespace() {
            let (key, value) = clause.split_once('=').ok_or_else(|| ParseError {
                msg: format!("clause `{clause}` is not of the form key=value"),
            })?;
            let dup = |key: &str| ParseError {
                msg: format!("clause `{key}` given more than once"),
            };
            match key {
                "window" => {
                    let dot = value
                        .find("..")
                        .ok_or_else(|| bad_value(key, value, "expected TIME..TIME"))?;
                    let since = parse_time(key, &value[..dot])?;
                    let until = parse_time(key, &value[dot + 2..])?;
                    if until <= since {
                        return Err(bad_value(key, value, "window is empty (until <= since)"));
                    }
                    if spec.since.replace(since).is_some() {
                        return Err(dup("since"));
                    }
                    if spec.until.replace(until).is_some() {
                        return Err(dup("until"));
                    }
                }
                "since" => {
                    if spec.since.replace(parse_time(key, value)?).is_some() {
                        return Err(dup(key));
                    }
                }
                "until" => {
                    if spec.until.replace(parse_time(key, value)?).is_some() {
                        return Err(dup(key));
                    }
                }
                "procs" => {
                    if spec.procs.replace(IdSet::parse(key, value)?).is_some() {
                        return Err(dup(key));
                    }
                }
                "kind" => {
                    if spec.kinds.replace(KindSet::parse(value)?).is_some() {
                        return Err(dup(key));
                    }
                }
                "var" => {
                    if spec.vars.replace(IdSet::parse(key, value)?).is_some() {
                        return Err(dup(key));
                    }
                }
                "tag" => {
                    if spec.tags.replace(TagSet::parse(key, value)?).is_some() {
                        return Err(dup(key));
                    }
                }
                "barrier" => {
                    if spec.barriers.replace(IdSet::parse(key, value)?).is_some() {
                        return Err(dup(key));
                    }
                }
                _ => {
                    return Err(ParseError {
                        msg: format!(
                            "unknown clause key `{key}` (expected one of {})",
                            CLAUSE_KEYWORDS.join(", ")
                        ),
                    })
                }
            }
        }
        if let (Some(since), Some(until)) = (spec.since, spec.until) {
            if until <= since {
                return Err(ParseError {
                    msg: "window is empty (until <= since)".into(),
                });
            }
        }
        Ok(spec)
    }

    /// True when no clause constrains anything — slicing with this spec
    /// is an identity copy.
    pub fn is_empty(&self) -> bool {
        *self == SliceSpec::default()
    }

    /// Evaluates the conjunction against one event.
    pub fn matches(&self, e: &Event) -> bool {
        if self.since.is_some_and(|s| e.time < s) || self.until.is_some_and(|u| e.time >= u) {
            return false;
        }
        if let Some(procs) = &self.procs {
            if !procs.contains(e.proc.0 as u64) {
                return false;
            }
        }
        if let Some(kinds) = &self.kinds {
            if !kinds.contains(&e.kind) {
                return false;
            }
        }
        if let Some(vars) = &self.vars {
            match e.kind.sync_var() {
                Some(v) => {
                    if !vars.contains(v.0 as u64) {
                        return false;
                    }
                }
                None => return false,
            }
        }
        if let Some(tags) = &self.tags {
            match e.kind.sync_tag() {
                Some(t) => {
                    if !tags.contains(t.0) {
                        return false;
                    }
                }
                None => return false,
            }
        }
        if let Some(barriers) = &self.barriers {
            match e.kind {
                EventKind::BarrierEnter { barrier } | EventKind::BarrierExit { barrier } => {
                    if !barriers.contains(barrier.0 as u64) {
                        return false;
                    }
                }
                _ => return false,
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppa_trace::{BarrierId, ProcessorId, StatementId, SyncTag, SyncVarId};

    fn ev(t: u64, proc: u16, kind: EventKind) -> Event {
        Event::new(Time::from_nanos(t), ProcessorId(proc), 0, kind)
    }

    fn stmt(t: u64, proc: u16) -> Event {
        ev(
            t,
            proc,
            EventKind::Statement {
                stmt: StatementId(1),
            },
        )
    }

    #[test]
    fn empty_expression_matches_everything() {
        let spec = SliceSpec::parse("").unwrap();
        assert!(spec.is_empty());
        assert!(spec.matches(&stmt(0, 0)));
        assert!(spec.matches(&ev(u64::MAX, 7, EventKind::ProgramEnd)));
    }

    #[test]
    fn window_is_half_open() {
        let spec = SliceSpec::parse("window=100..200").unwrap();
        assert!(!spec.matches(&stmt(99, 0)));
        assert!(spec.matches(&stmt(100, 0)));
        assert!(spec.matches(&stmt(199, 0)));
        assert!(!spec.matches(&stmt(200, 0)));
    }

    #[test]
    fn time_unit_suffixes() {
        let spec = SliceSpec::parse("since=2us until=1ms").unwrap();
        assert_eq!(spec.since, Some(Time::from_nanos(2_000)));
        assert_eq!(spec.until, Some(Time::from_nanos(1_000_000)));
        let spec = SliceSpec::parse("since=1s").unwrap();
        assert_eq!(spec.since, Some(Time::from_nanos(1_000_000_000)));
        assert_eq!(
            SliceSpec::parse("since=5ns").unwrap().since,
            SliceSpec::parse("since=5").unwrap().since,
        );
    }

    #[test]
    fn procs_ranges_and_elements() {
        let spec = SliceSpec::parse("procs=0..3,7").unwrap();
        for p in [0, 1, 2, 3, 7] {
            assert!(spec.matches(&stmt(0, p)), "P{p} should match");
        }
        for p in [4, 5, 6, 8] {
            assert!(!spec.matches(&stmt(0, p)), "P{p} should not match");
        }
    }

    #[test]
    fn kind_mnemonics_and_groups() {
        let spec = SliceSpec::parse("kind=stmt,barEnter").unwrap();
        assert!(spec.matches(&stmt(0, 0)));
        assert!(spec.matches(&ev(
            0,
            0,
            EventKind::BarrierEnter {
                barrier: BarrierId(0)
            }
        )));
        assert!(!spec.matches(&ev(0, 0, EventKind::ProgramBegin)));

        let sync = SliceSpec::parse("kind=sync").unwrap();
        assert!(sync.matches(&ev(
            0,
            0,
            EventKind::Advance {
                var: SyncVarId(0),
                tag: SyncTag(0)
            }
        )));
        assert!(!sync.matches(&stmt(0, 0)));

        let marker = SliceSpec::parse("kind=marker").unwrap();
        assert!(marker.matches(&ev(0, 0, EventKind::ProgramBegin)));
        assert!(!marker.matches(&stmt(0, 0)));
    }

    #[test]
    fn episode_groups_select_their_pairs() {
        use ppa_trace::{LockId, SemId, TaskId};
        let acquire = ev(0, 0, EventKind::LockAcquire { lock: LockId(1) });
        let release = ev(0, 0, EventKind::LockRelease { lock: LockId(1) });
        let sem_p = ev(0, 0, EventKind::SemAcquire { sem: SemId(2) });
        let sem_v = ev(0, 0, EventKind::SemRelease { sem: SemId(2) });
        let fork = ev(0, 0, EventKind::TaskFork { task: TaskId(3) });
        let join = ev(0, 0, EventKind::TaskJoin { task: TaskId(3) });

        let lock = SliceSpec::parse("kind=lock").unwrap();
        assert!(lock.matches(&acquire) && lock.matches(&release));
        assert!(!lock.matches(&sem_p) && !lock.matches(&fork));

        let sem = SliceSpec::parse("kind=sem").unwrap();
        assert!(sem.matches(&sem_p) && sem.matches(&sem_v));
        assert!(!sem.matches(&release));

        let task = SliceSpec::parse("kind=task").unwrap();
        assert!(task.matches(&fork) && task.matches(&join));
        assert!(!task.matches(&sem_v) && !task.matches(&stmt(0, 0)));

        // Individual mnemonics pick one side of a pair, and the
        // `sync` group stays advance/await-only.
        let one = SliceSpec::parse("kind=lockA,semV,taskJ").unwrap();
        assert!(one.matches(&acquire) && one.matches(&sem_v) && one.matches(&join));
        assert!(!one.matches(&release) && !one.matches(&sem_p) && !one.matches(&fork));
        let sync = SliceSpec::parse("kind=sync").unwrap();
        for e in [&acquire, &release, &sem_p, &sem_v, &fork, &join] {
            assert!(!sync.matches(e));
        }
    }

    /// QUERIES.md's mnemonic table and group table, rendered from the
    /// kind table: every selectable kind has a row, every group row
    /// lists exactly its members, and `repeat` has no row.
    #[test]
    fn queries_doc_lists_every_kind_and_group() {
        let doc = include_str!("../../../QUERIES.md");
        for code in KindCode::ALL {
            let row = format!("| `{}` |", code.mnemonic());
            assert_eq!(doc.contains(&row), code.is_selectable(), "{row}");
            let selectable = SliceSpec::parse(&format!("kind={}", code.mnemonic())).is_ok();
            assert_eq!(selectable, code.is_selectable(), "{row}");
        }
        for (name, group) in KindGroup::SELECTABLE {
            let members: Vec<String> = group
                .members()
                .map(|c| format!("`{}`", c.mnemonic()))
                .collect();
            let row = format!("| `{}` | {} |", name, members.join(", "));
            assert!(doc.contains(&row), "QUERIES.md lacks the group row {row}");
        }
    }

    #[test]
    fn repeat_records_never_match_a_kind_clause() {
        let spec = SliceSpec::parse("kind=stmt,sync,barrier,marker").unwrap();
        let rec = ev(
            0,
            0,
            EventKind::Repeat {
                len: 1,
                count: 1,
                dt_ns: 0,
                dseq: 1,
                dfield: 0,
            },
        );
        assert!(!spec.matches(&rec));
    }

    #[test]
    fn episode_selection_rejects_events_without_the_field() {
        let spec = SliceSpec::parse("var=0").unwrap();
        assert!(!spec.matches(&stmt(0, 0)));
        assert!(spec.matches(&ev(
            0,
            0,
            EventKind::AwaitBegin {
                var: SyncVarId(0),
                tag: SyncTag(5)
            }
        )));

        let tags = SliceSpec::parse("tag=-3,0..100").unwrap();
        assert!(tags.matches(&ev(
            0,
            0,
            EventKind::Advance {
                var: SyncVarId(1),
                tag: SyncTag(-3)
            }
        )));
        assert!(!tags.matches(&ev(
            0,
            0,
            EventKind::Advance {
                var: SyncVarId(1),
                tag: SyncTag(-2)
            }
        )));
        assert!(!tags.matches(&stmt(0, 0)));

        let bars = SliceSpec::parse("barrier=2..4").unwrap();
        assert!(bars.matches(&ev(
            0,
            0,
            EventKind::BarrierExit {
                barrier: BarrierId(3)
            }
        )));
        assert!(!bars.matches(&ev(
            0,
            0,
            EventKind::BarrierExit {
                barrier: BarrierId(5)
            }
        )));
        assert!(!bars.matches(&stmt(0, 0)));
    }

    #[test]
    fn clauses_conjoin() {
        let spec = SliceSpec::parse("window=10..20 procs=1 kind=stmt").unwrap();
        assert!(spec.matches(&stmt(15, 1)));
        assert!(!spec.matches(&stmt(15, 2)));
        assert!(!spec.matches(&stmt(25, 1)));
        assert!(!spec.matches(&ev(15, 1, EventKind::ProgramBegin)));
    }

    #[test]
    fn parse_errors() {
        for bad in [
            "bogus=1",
            "procs",
            "window=20..10",
            "window=5..5",
            "since=10 until=5",
            "window=1..2 since=0",
            "procs=1 procs=2",
            "procs=",
            "procs=3..1",
            "procs=-1",
            "tag=x",
            "kind=nope",
            "since=10xs",
            "since=99999999999999999999",
        ] {
            assert!(SliceSpec::parse(bad).is_err(), "`{bad}` should not parse");
        }
    }

    #[test]
    fn keyword_list_matches_parser() {
        // Every advertised keyword parses with a plausible value...
        for (kw, val) in [
            ("window", "1..2"),
            ("since", "1"),
            ("until", "2"),
            ("procs", "0"),
            ("kind", "stmt"),
            ("var", "0"),
            ("tag", "0"),
            ("barrier", "0"),
        ] {
            assert!(CLAUSE_KEYWORDS.contains(&kw));
            assert!(SliceSpec::parse(&format!("{kw}={val}")).is_ok());
        }
        assert_eq!(CLAUSE_KEYWORDS.len(), 8);
    }
}
