//! The event-kind table: every per-kind fact, declared once.
//!
//! [`for_each_kind!`](for_each_kind) holds one row per [`EventKind`]
//! variant, in declaration order. A row gives, left to right:
//!
//! - the variant and its fields, each with the integer type ([`Raw`])
//!   both codecs carry it as;
//! - the kind's tag byte in a `ppa-trace-bin-v1` block payload;
//! - its mnemonic (`ppa slice --kind`, `Display`, `ppa estimate`);
//! - its [`KindGroup`];
//! - its [`OverheadClass`], the [`OverheadSpec`](crate::OverheadSpec)
//!   field that pays for recording it (none for a container record);
//! - the field a repeat stride shifts, if any;
//! - the `Display` format of its fields.
//!
//! Each consumer hands its own generator to `for_each_kind!`: this
//! module derives [`KindCode`] and the per-kind methods of
//! [`EventKind`], `codec::block` the binary tag codec and
//! `codec::jsonl` the canonical line table. Every generator expands to
//! a `match` over the rows, so a row missing from the table fails to
//! compile, and a new kind is one new row plus its analyzer rule.

use crate::event::EventKind;
use crate::ids::{BarrierId, LockId, LoopId, SemId, StatementId, SyncTag, SyncVarId, TaskId};
use crate::overhead::OverheadClass;
use core::fmt;

/// The integer type of a payload field: the range a decoder accepts
/// and whether the value is signed (zigzag-mapped in binary, printed
/// with a `-` in JSONL).
#[derive(Clone, Copy)]
pub(crate) enum Int {
    U32,
    U64,
    I64,
}

/// A payload value as the table-driven code carries it: the field's
/// bits in a `u64` (two's complement for [`Int::I64`]).
pub(crate) trait Raw: Copy {
    const INT: Int;
    fn to_raw(self) -> u64;
    /// `raw` came from [`Raw::to_raw`] or from a decoder that checked
    /// it against [`Raw::INT`], so it is in range for `Self`.
    fn from_raw(raw: u64) -> Self;
}

impl Raw for u32 {
    const INT: Int = Int::U32;
    fn to_raw(self) -> u64 {
        u64::from(self)
    }
    fn from_raw(raw: u64) -> Self {
        raw as u32
    }
}

impl Raw for u64 {
    const INT: Int = Int::U64;
    fn to_raw(self) -> u64 {
        self
    }
    fn from_raw(raw: u64) -> Self {
        raw
    }
}

impl Raw for i64 {
    const INT: Int = Int::I64;
    fn to_raw(self) -> u64 {
        self as u64
    }
    fn from_raw(raw: u64) -> Self {
        raw as i64
    }
}

macro_rules! raw_newtype {
    ($($name:ident($inner:ty)),*) => {$(
        impl Raw for $name {
            const INT: Int = <$inner>::INT;
            fn to_raw(self) -> u64 {
                self.0.to_raw()
            }
            fn from_raw(raw: u64) -> Self {
                $name(<$inner>::from_raw(raw))
            }
        }
    )*};
}
raw_newtype!(
    LoopId(u32),
    StatementId(u32),
    SyncVarId(u32),
    SyncTag(i64),
    BarrierId(u32),
    LockId(u32),
    SemId(u32),
    TaskId(u32)
);

/// Calls the generator macro `$gen` with the kind table, one row per
/// [`EventKind`] variant in declaration order:
///
/// ```text
/// Variant { field: Type, .. } => bin_tag, "mnemonic", Group, [OverheadClass?], [shifted_field?], "display";
/// ```
macro_rules! for_each_kind {
    ($gen:ident) => {
        $gen! {
            ProgramBegin {} => 0, "progB", Marker, [Marker], [], "";
            ProgramEnd {} => 1, "progE", Marker, [Marker], [], "";
            LoopBegin { loop_id: $crate::LoopId } => 2, "loopB", Marker, [Marker], [], "({loop_id})";
            LoopEnd { loop_id: $crate::LoopId } => 3, "loopE", Marker, [Marker], [], "({loop_id})";
            IterationBegin { loop_id: $crate::LoopId, iter: u64 } =>
                4, "iterB", Marker, [Marker], [iter], "({loop_id},i{iter})";
            IterationEnd { loop_id: $crate::LoopId, iter: u64 } =>
                5, "iterE", Marker, [Marker], [iter], "({loop_id},i{iter})";
            Statement { stmt: $crate::StatementId } => 6, "stmt", Ungrouped, [Statement], [], "({stmt})";
            Advance { var: $crate::SyncVarId, tag: $crate::SyncTag } =>
                7, "advance", Sync, [Advance], [tag], "({var},{tag})";
            AwaitBegin { var: $crate::SyncVarId, tag: $crate::SyncTag } =>
                8, "awaitB", Sync, [AwaitBegin], [tag], "({var},{tag})";
            AwaitEnd { var: $crate::SyncVarId, tag: $crate::SyncTag } =>
                9, "awaitE", Sync, [AwaitEnd], [tag], "({var},{tag})";
            BarrierEnter { barrier: $crate::BarrierId } => 10, "barEnter", Barrier, [Barrier], [], "({barrier})";
            BarrierExit { barrier: $crate::BarrierId } => 11, "barExit", Barrier, [Barrier], [], "({barrier})";
            // Episode kinds reuse the advance/await cost structure: a
            // blocked completion (acquire/P/join) is awaitE-like, a
            // release/V/fork is an advance-like enabling record (α).
            // Their ids are identities, so no field shifts.
            LockAcquire { lock: $crate::LockId } => 13, "lockA", Lock, [AwaitEnd], [], "({lock})";
            LockRelease { lock: $crate::LockId } => 14, "lockR", Lock, [Advance], [], "({lock})";
            SemAcquire { sem: $crate::SemId } => 15, "semP", Sem, [AwaitEnd], [], "({sem})";
            SemRelease { sem: $crate::SemId } => 16, "semV", Sem, [Advance], [], "({sem})";
            TaskFork { task: $crate::TaskId } => 17, "taskF", Task, [Advance], [], "({task})";
            TaskJoin { task: $crate::TaskId } => 18, "taskJ", Task, [AwaitEnd], [], "({task})";
            // A container artifact, not a recorded action: it is expanded
            // before any perturbation model charges per-event overhead.
            Repeat { len: u32, count: u32, dt_ns: u64, dseq: u64, dfield: i64 } =>
                12, "repeat", Container, [], [], "({len}x{count},dt{dt_ns},ds{dseq},df{dfield})";
        }
    };
}
pub(crate) use for_each_kind;

/// The family an event kind belongs to. `ppa slice --kind` selects a
/// whole group by name ([`KindGroup::SELECTABLE`]), and the `is_*`
/// predicates of [`EventKind`] test membership.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KindGroup {
    /// Program, loop and iteration boundaries (`marker`).
    Marker,
    /// `advance`, `awaitB` and `awaitE` (`sync`).
    Sync,
    /// Barrier arrival and release (`barrier`).
    Barrier,
    /// Lock acquire and release (`lock`).
    Lock,
    /// Semaphore P and V (`sem`).
    Sem,
    /// Task fork and join (`task`).
    Task,
    /// In no selectable group (`stmt`).
    Ungrouped,
    /// A record standing for suppressed events of other kinds
    /// (`repeat`): never selectable, alone or in a group.
    Container,
}

impl KindGroup {
    /// The groups `ppa slice --kind` selects by name, in QUERIES.md
    /// order. `Ungrouped` and `Container` have no name.
    pub const SELECTABLE: [(&'static str, KindGroup); 6] = [
        ("sync", KindGroup::Sync),
        ("barrier", KindGroup::Barrier),
        ("marker", KindGroup::Marker),
        ("lock", KindGroup::Lock),
        ("sem", KindGroup::Sem),
        ("task", KindGroup::Task),
    ];

    /// The selectable group called `name`.
    pub fn from_name(name: &str) -> Option<KindGroup> {
        let mut groups = KindGroup::SELECTABLE.into_iter();
        groups.find(|&(n, _)| n == name).map(|(_, group)| group)
    }

    /// The kinds in this group, in table order.
    pub fn members(self) -> impl Iterator<Item = KindCode> {
        KindCode::ALL
            .into_iter()
            .filter(move |code| code.group() == self)
    }
}

/// Declares [`KindCode`] and the per-kind methods of [`EventKind`].
macro_rules! kind_facts {
    (@class) => { None };
    (@class $class:ident) => { Some(OverheadClass::$class) };
    ($($name:ident { $($field:ident: $ty:ty),* } => $tag:literal, $mnem:literal, $group:ident,
        [$($class:ident)?], [$($shift:ident)?], $fmt:literal;)*) => {
        /// An event kind without its fields: one code per row of the kind
        /// table, numbered densely in [`EventKind`]'s declaration order.
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        #[allow(missing_docs)] // each code is named after its `EventKind` variant
        pub enum KindCode {
            $($name),*
        }

        impl KindCode {
            /// Every kind, in table order (`ALL[i] as usize == i`).
            pub const ALL: [KindCode; [$(KindCode::$name),*].len()] = [$(KindCode::$name),*];

            /// The kind's mnemonic, as `Display`, `ppa slice --kind` and
            /// `ppa estimate` print it.
            pub const fn mnemonic(self) -> &'static str {
                match self {
                    $(KindCode::$name => $mnem),*
                }
            }


            /// The family the kind belongs to.
            pub const fn group(self) -> KindGroup {
                match self {
                    $(KindCode::$name => KindGroup::$group),*
                }
            }

            /// The overhead that pays for recording the kind, `None` for
            /// a container record, which costs nothing of its own.
            pub const fn overhead_class(self) -> Option<OverheadClass> {
                match self {
                    $(KindCode::$name => kind_facts!(@class $($class)?)),*
                }
            }

            /// The event kind of this code whose fields, in table order,
            /// hold `fields`: a missing value reads 0, extra ones are
            /// ignored, and each is cut to its field's integer type. What
            /// lets a generator draw events of every kind from
            /// [`KindCode::ALL`].
            pub fn with_fields(self, fields: &[u64]) -> EventKind {
                #[allow(unused_mut, unused_variables)] // unit kinds read none
                let mut fields = fields.iter().copied();
                match self {
                    $(KindCode::$name => EventKind::$name {
                        $($field: <$ty>::from_raw(fields.next().unwrap_or(0))),*
                    }),*
                }
            }
        }

        impl EventKind {
            /// This kind's row of the kind table.
            #[inline]
            pub const fn code(&self) -> KindCode {
                match self {
                    $(EventKind::$name { .. } => KindCode::$name),*
                }
            }

            /// The bits of the field a repeat stride shifts, if the kind
            /// has one.
            #[inline]
            pub(crate) fn shift_field(&self) -> Option<u64> {
                match *self {
                    $($(EventKind::$name { $shift, .. } => Some($shift.to_raw()),)?)*
                    _ => None,
                }
            }

            /// This kind with the field a repeat stride shifts
            /// (iteration number or synchronization tag) moved by `df`,
            /// wrapping; a kind without one comes back unchanged.
            #[inline]
            pub(crate) fn shifted(mut self, df: i64) -> EventKind {
                match &mut self {
                    $($(EventKind::$name { $shift, .. } => {
                        *$shift = Raw::from_raw($shift.to_raw().wrapping_add(df as u64));
                    })?)*
                    _ => {}
                }
                self
            }
        }

        impl fmt::Display for EventKind {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                match self {
                    $(EventKind::$name { $($field),* } => {
                        write!(f, concat!($mnem, $fmt) $(, $field = $field)*)
                    })*
                }
            }
        }
    };
}
for_each_kind!(kind_facts);

// `KindSet` in `ppa-slice` gives each kind the bit `1 << code`.
const _: () = assert!(KindCode::ALL.len() <= 32);

impl KindCode {
    /// The kind whose mnemonic is `name`.
    pub fn from_mnemonic(name: &str) -> Option<KindCode> {
        KindCode::ALL
            .into_iter()
            .find(|code| code.mnemonic() == name)
    }

    /// True for kinds a slice can select: every kind but the container.
    pub fn is_selectable(self) -> bool {
        self.group() != KindGroup::Container
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::{block, jsonl};
    use crate::event::Event;
    use crate::overhead::OverheadSpec;
    use crate::time::Span;
    use proptest::prelude::*;

    /// One event of every kind, in table order, as the encoders wrote it
    /// before the kind table replaced their hand-written matches, one
    /// row each: its `Display`, its `ppa-trace-bin-v1` block payload
    /// (tag, operands, time and seq deltas, processor) and the `kind` of
    /// its canonical JSONL line.
    const GOLDEN: &str = r#"
progB                          00000007               "ProgramBegin"
progE                          01000007               "ProgramEnd"
loopB(L3)                      0203000007             {"LoopBegin":{"loop_id":3}}
loopE(L3)                      0303000007             {"LoopEnd":{"loop_id":3}}
iterB(L3,i300)                 0403ac02000007         {"IterationBegin":{"loop_id":3,"iter":300}}
iterE(L3,i301)                 0503ad02000007         {"IterationEnd":{"loop_id":3,"iter":301}}
stmt(S200)                     06c801000007           {"Statement":{"stmt":200}}
advance(A1,#-3)                070105000007           {"Advance":{"var":1,"tag":-3}}
awaitB(A1,#64)                 08018001000007         {"AwaitBegin":{"var":1,"tag":64}}
awaitE(A2,#-65)                09028101000007         {"AwaitEnd":{"var":2,"tag":-65}}
barEnter(B4)                   0a04000007             {"BarrierEnter":{"barrier":4}}
barExit(B4)                    0b04000007             {"BarrierExit":{"barrier":4}}
lockA(K5)                      0d05000007             {"LockAcquire":{"lock":5}}
lockR(K5)                      0e05000007             {"LockRelease":{"lock":5}}
semP(M6)                       0f06000007             {"SemAcquire":{"sem":6}}
semV(M6)                       1006000007             {"SemRelease":{"sem":6}}
taskF(T128)                    118001000007           {"TaskFork":{"task":128}}
taskJ(T128)                    128001000007           {"TaskJoin":{"task":128}}
repeat(3x1000,dt250,ds3,df-2)  0c03e807fa010303000007 {"Repeat":{"len":3,"count":1000,"dt_ns":250,"dseq":3,"dfield":-2}}
"#;

    /// The rows of [`GOLDEN`]: the event, its canonical JSONL line, its
    /// block payload in hex and its `Display`.
    fn golden() -> impl Iterator<Item = (Event, String, &'static str, &'static str)> {
        GOLDEN.lines().skip(1).map(|row| {
            let cols: Vec<&str> = row.split_whitespace().collect();
            let line = format!(r#"{{"time":40975,"proc":7,"seq":1234,"kind":{}}}"#, cols[2]);
            let e = jsonl::decode_event(line.as_bytes()).expect("a canonical line");
            (e, line, cols[1], cols[0])
        })
    }

    fn every_kind() -> impl Iterator<Item = Event> {
        golden().map(|(e, ..)| e)
    }

    #[test]
    fn every_kind_keeps_its_bytes() {
        let mut tags = Vec::new();
        for (i, (e, line, payload, display)) in golden().enumerate() {
            assert_eq!(e.kind.code() as usize, i, "one row per kind, in order");
            let mut encoded = Vec::new();
            jsonl::encode_event(&e, &mut encoded);
            assert_eq!(encoded, line.into_bytes());
            let (frame, bytes) = block::encode_block(&[e]);
            let hex: String = bytes.iter().map(|b| format!("{b:02x}")).collect();
            assert_eq!(hex, payload, "{e}");
            let mut decoded = Vec::new();
            assert!(block::decode_block(&frame, &bytes, 0, &mut decoded).is_ok());
            assert_eq!(decoded, [e]);
            tags.push(bytes[0]);
            assert_eq!(e.kind.to_string(), display);
        }
        assert_eq!(tags.len(), KindCode::ALL.len());
        tags.sort_unstable();
        tags.dedup();
        assert_eq!(tags.len(), KindCode::ALL.len(), "binary tags are unique");
    }

    #[test]
    fn with_fields_rebuilds_every_kind() {
        for (e, line, ..) in golden() {
            let fields: Vec<u64> = line
                .rsplit_once(":{")
                .map_or("", |(_, payload)| payload.trim_end_matches('}'))
                .split(',')
                .filter_map(|kv| kv.split_once(':'))
                .map(|(_, v)| v.parse::<i64>().unwrap() as u64)
                .collect();
            assert_eq!(e.kind.code().with_fields(&fields), e.kind, "{line}");
        }
        assert_eq!(
            KindCode::Advance.with_fields(&[]),
            EventKind::Advance {
                var: SyncVarId(0),
                tag: SyncTag(0)
            }
        );
    }

    #[test]
    fn codes_are_dense_and_mnemonics_unique() {
        let mut names = Vec::new();
        for (i, code) in KindCode::ALL.into_iter().enumerate() {
            assert_eq!(code as usize, i);
            assert_eq!(KindCode::from_mnemonic(code.mnemonic()), Some(code));
            names.push(code.mnemonic());
        }
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 19);
        assert_eq!(KindCode::from_mnemonic("progb"), None);
    }

    #[test]
    fn repeat_is_in_no_selectable_group() {
        assert_eq!(KindCode::Repeat.group(), KindGroup::Container);
        assert!(!KindCode::Repeat.is_selectable());
        for (name, group) in KindGroup::SELECTABLE {
            assert_eq!(KindGroup::from_name(name), Some(group));
            assert!(group.members().count() >= 2, "{name}");
            assert!(group.members().all(KindCode::is_selectable), "{name}");
        }
        assert_eq!(KindGroup::from_name("repeat"), None);
    }

    #[test]
    fn groups_are_what_the_predicates_accept() {
        for Event { kind, .. } in every_kind() {
            let group = kind.code().group();
            assert_eq!(kind.is_marker(), group == KindGroup::Marker, "{kind}");
            assert_eq!(kind.is_sync(), group == KindGroup::Sync, "{kind}");
            assert_eq!(kind.is_barrier(), group == KindGroup::Barrier, "{kind}");
            assert_eq!(kind.is_lock(), group == KindGroup::Lock, "{kind}");
            assert_eq!(kind.is_sem(), group == KindGroup::Sem, "{kind}");
            assert_eq!(kind.is_task(), group == KindGroup::Task, "{kind}");
            assert_eq!(
                kind.is_episode(),
                kind.is_lock() || kind.is_sem() || kind.is_task()
            );
            assert_eq!(kind.sync_var().is_some(), kind.is_sync(), "{kind}");
            assert_eq!(kind.sync_tag().is_some(), kind.is_sync(), "{kind}");
            assert_eq!(kind.lock_id().is_some(), kind.is_lock(), "{kind}");
            assert_eq!(kind.sem_id().is_some(), kind.is_sem(), "{kind}");
            assert_eq!(kind.task_id().is_some(), kind.is_task(), "{kind}");
        }
    }

    #[test]
    fn overhead_class_agrees_with_instr_overhead() {
        let ns = Span::from_nanos;
        let spec = OverheadSpec {
            statement_event: ns(1),
            marker_event: ns(2),
            advance_instr: ns(3),
            await_begin_instr: ns(4),
            await_end_instr: ns(5),
            barrier_instr: ns(6),
            s_nowait: ns(7),
            s_wait: ns(8),
            advance_op: ns(9),
            barrier_release: ns(10),
        };
        // What the hand-written `instr_overhead` charged, in table order.
        let charged = [2, 2, 2, 2, 2, 2, 1, 3, 4, 5, 6, 6, 5, 3, 5, 3, 3, 5, 0];
        for (Event { kind, .. }, want) in every_kind().zip(charged) {
            assert_eq!(spec.instr_overhead(&kind), ns(want), "{kind}");
            let class = kind.code().overhead_class();
            assert_eq!(class.map_or(ns(0), |c| spec.instr_cost(c)), ns(want));
            if let Some(class) = class {
                let mut moved = spec;
                *moved.instr_cost_mut(class) = ns(99);
                assert_eq!(moved.instr_overhead(&kind), ns(99), "{kind}");
            }
        }
    }

    proptest! {
        /// For every kind, `repeat_stride` recovers the strides
        /// `repeat_shifted` applied, so what the suppressor detects is
        /// exactly what the expander reproduces. Only iteration numbers
        /// and sync tags shift.
        #[test]
        fn repeat_stride_inverts_repeat_shifted(
            r in 1u64..50,
            dt in 0u64..1000,
            dseq in 0u64..100,
            dfield in -100i64..100,
        ) {
            for e in every_kind() {
                let later = e.repeat_shifted(r, dt, dseq, dfield);
                let iteration = matches!(
                    e.kind,
                    EventKind::IterationBegin { .. } | EventKind::IterationEnd { .. }
                );
                let df = (iteration || e.kind.is_sync()).then_some(r as i64 * dfield);
                prop_assert_eq!(e.repeat_stride(&later), Some((r * dt, r * dseq, df)), "{}", e);
            }
        }
    }
}
