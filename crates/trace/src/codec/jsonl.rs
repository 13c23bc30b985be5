//! The JSONL event line, written and read without a `serde` value tree.
//!
//! A JSONL trace carries one [`Event`] per line in the form the serde
//! derive on [`Event`] prints — compact, keys in declaration order,
//! the kind externally tagged:
//!
//! ```text
//! {"time":40,"proc":0,"seq":1,"kind":{"Advance":{"var":0,"tag":-1}}}
//! {"time":5,"proc":3,"seq":0,"kind":"ProgramBegin"}
//! ```
//!
//! That is the *canonical* line. [`encode_event`] produces exactly those
//! bytes straight from the event, and [`decode_event`] accepts exactly
//! those bytes: no whitespace, that key order, plain decimal integers
//! without sign or leading zeros (a `-` only on a negative signed field)
//! that fit their field, nothing after the closing brace. Both are
//! driven by [`KINDS`], which this module generates from the kind table
//! in `crate::kind` (variant name, ordered field names, integer type of
//! each field); the kind list itself lives there, not here.
//!
//! `decode_event` answers `None` for every other line, valid JSON or
//! not. The caller ([`TraceStreamReader`](crate::TraceStreamReader))
//! then hands that line to `serde_json::from_str`, which either reads it
//! (reordered keys, whitespace, `5.0`, escapes in a name) or produces
//! the error message. Which decoder a line gets therefore depends on
//! the line alone. The serde derive on [`Event`] stays as the reference
//! the tests below compare this module against, line by line.

use crate::event::{Event, EventKind};
use crate::ids::ProcessorId;
use crate::kind::{for_each_kind, Int, KindCode, Raw};
use crate::time::Time;

/// The line around the three header integers and the kind, in order.
const ENVELOPE: [&str; 4] = ["{\"time\":", ",\"proc\":", ",\"seq\":", ",\"kind\":"];

/// The most payload fields any kind carries (`Repeat`).
const MAX_FIELDS: usize = 5;

/// One payload field: its key as it stands on the line (`"var":`) and
/// its integer type.
struct Field {
    key: &'static str,
    int: Int,
}

/// One row of [`KINDS`].
struct KindRow {
    /// What follows `"kind":` up to the first payload value: `"Name"`
    /// for a unit kind, `{"Name":{` for a kind with fields.
    tag: &'static str,
    fields: &'static [Field],
    /// What follows the last payload value (or a unit kind's `tag`) to
    /// the end of the line.
    close: &'static str,
    /// Rebuilds the kind from its payload, fields in table order.
    build: fn(&[u64; MAX_FIELDS]) -> EventKind,
}

impl KindRow {
    const fn new(
        unit_tag: &'static str,
        data_tag: &'static str,
        fields: &'static [Field],
        build: fn(&[u64; MAX_FIELDS]) -> EventKind,
    ) -> Self {
        assert!(fields.len() <= MAX_FIELDS);
        KindRow {
            tag: if fields.is_empty() {
                unit_tag
            } else {
                data_tag
            },
            fields,
            close: if fields.is_empty() { "}" } else { "}}}" },
            build,
        }
    }
}

/// Declares [`KINDS`] and [`split`] from the kind table: variant names
/// and field names are the JSON names, row field order is line order.
macro_rules! kind_table {
    ($($name:ident { $($field:ident: $ty:ty),* } => $tag:literal, $mnem:literal, $group:ident,
        [$($class:ident)?], [$($shift:ident)?], $fmt:literal;)*) => {
        /// Every event kind as JSONL prints it, in [`KindCode`] order.
        #[allow(unused_variables, unused_mut)] // unit kinds read no payload
        const KINDS: [KindRow; KindCode::ALL.len()] = [$(KindRow::new(
            concat!("\"", stringify!($name), "\""),
            concat!("{\"", stringify!($name), "\":{"),
            &[$(Field {
                key: concat!("\"", stringify!($field), "\":"),
                int: <$ty>::INT,
            }),*],
            |payload| {
                let mut payload = payload.iter();
                EventKind::$name {
                    $($field: <$ty>::from_raw(*payload.next().expect("checked in KindRow::new"))),*
                }
            },
        )),*];

        /// The table row of `kind` and its payload in table order.
        fn split(kind: &EventKind) -> (&'static KindRow, [u64; MAX_FIELDS]) {
            match *kind {$(
                EventKind::$name { $($field),* } => {
                    let fields: &[u64] = &[$($field.to_raw()),*];
                    let mut payload = [0; MAX_FIELDS];
                    payload[..fields.len()].copy_from_slice(fields);
                    (&KINDS[KindCode::$name as usize], payload)
                }
            )*}
        }
    };
}
for_each_kind!(kind_table);

/// Appends `value` in decimal.
fn push_uint(out: &mut Vec<u8>, mut value: u64) {
    // u64::MAX has 20 digits.
    let mut digits = [0u8; 20];
    let mut start = digits.len();
    loop {
        start -= 1;
        digits[start] = b'0' + (value % 10) as u8;
        value /= 10;
        if value == 0 {
            break;
        }
    }
    out.extend_from_slice(&digits[start..]);
}

/// Appends the canonical JSONL line of `event` to `out`, without a
/// newline: byte for byte what `serde_json::to_string(event)` returns.
pub(crate) fn encode_event(event: &Event, out: &mut Vec<u8>) {
    let header = [event.time.as_nanos(), u64::from(event.proc.0), event.seq];
    for (key, value) in ENVELOPE.iter().zip(header) {
        out.extend_from_slice(key.as_bytes());
        push_uint(out, value);
    }
    let (row, payload) = split(&event.kind);
    out.extend_from_slice(ENVELOPE[3].as_bytes());
    out.extend_from_slice(row.tag.as_bytes());
    for (i, (field, &raw)) in row.fields.iter().zip(&payload).enumerate() {
        if i > 0 {
            out.push(b',');
        }
        out.extend_from_slice(field.key.as_bytes());
        match field.int {
            Int::I64 if (raw as i64) < 0 => {
                out.push(b'-');
                push_uint(out, (raw as i64).unsigned_abs());
            }
            _ => push_uint(out, raw),
        }
    }
    out.extend_from_slice(row.close.as_bytes());
}

/// The undecoded rest of a line.
struct Cursor<'a> {
    rest: &'a [u8],
}

impl Cursor<'_> {
    /// Consumes `text` if the rest starts with it.
    fn lit(&mut self, text: &str) -> Option<()> {
        self.rest = self.rest.strip_prefix(text.as_bytes())?;
        Some(())
    }

    /// Consumes a canonical unsigned decimal no greater than `max`: at
    /// least one digit, no leading zero on a nonzero value. A `0` ends
    /// the number, so `007` fails at whatever must follow it.
    fn uint(&mut self, max: u64) -> Option<u64> {
        let (&first, mut rest) = self.rest.split_first()?;
        if !first.is_ascii_digit() {
            return None;
        }
        let mut value = u64::from(first - b'0');
        if value != 0 {
            while let Some((&digit, tail)) = rest.split_first() {
                if !digit.is_ascii_digit() {
                    break;
                }
                value = value
                    .checked_mul(10)?
                    .checked_add(u64::from(digit - b'0'))?;
                rest = tail;
            }
        }
        self.rest = rest;
        (value <= max).then_some(value)
    }

    /// Consumes a canonical integer of type `int` and returns its bits.
    /// `-0` is not canonical (serde prints `0`).
    fn int(&mut self, int: Int) -> Option<u64> {
        match int {
            Int::U32 => self.uint(u64::from(u32::MAX)),
            Int::U64 => self.uint(u64::MAX),
            Int::I64 => match self.lit("-") {
                Some(()) => match self.uint(i64::MIN.unsigned_abs())? {
                    0 => None,
                    magnitude => Some(magnitude.wrapping_neg()),
                },
                None => self.uint(i64::MAX.unsigned_abs()),
            },
        }
    }
}

/// Decodes the canonical event line `bytes` starts with and returns it
/// with what follows its closing brace.
fn decode_prefix(bytes: &[u8]) -> Option<(Event, &[u8])> {
    let mut c = Cursor { rest: bytes };
    c.lit(ENVELOPE[0])?;
    let time = c.uint(u64::MAX)?;
    c.lit(ENVELOPE[1])?;
    let proc = u16::try_from(c.uint(u64::from(u16::MAX))?).ok()?;
    c.lit(ENVELOPE[2])?;
    let seq = c.uint(u64::MAX)?;
    c.lit(ENVELOPE[3])?;
    let row = KINDS.iter().find(|row| c.lit(row.tag).is_some())?;
    let mut payload = [0; MAX_FIELDS];
    for (i, (field, slot)) in row.fields.iter().zip(&mut payload).enumerate() {
        if i > 0 {
            c.lit(",")?;
        }
        c.lit(field.key)?;
        *slot = c.int(field.int)?;
    }
    c.lit(row.close)?;
    let kind = (row.build)(&payload);
    let event = Event::new(Time::from_nanos(time), ProcessorId(proc), seq, kind);
    Some((event, c.rest))
}

/// Decodes a canonical JSONL event line (no line terminator). `None`
/// means "not canonical", not "malformed": whenever this returns
/// `Some(e)`, `serde_json::from_str` on the same line returns `Ok(e)`,
/// and a `None` line is for `serde_json::from_str` to judge.
pub(crate) fn decode_event(line: &[u8]) -> Option<Event> {
    match decode_prefix(line)? {
        (event, []) => Some(event),
        _ => None,
    }
}

/// Decodes a canonical event line that `bytes` holds whole, terminator
/// (`\n` or `\r\n`) included, and returns it with the length consumed.
/// `None` also when the line may merely continue past `bytes`.
pub(crate) fn decode_terminated(bytes: &[u8]) -> Option<(Event, usize)> {
    let (event, rest) = decode_prefix(bytes)?;
    let rest = rest.strip_prefix(b"\r").unwrap_or(rest);
    let rest = rest.strip_prefix(b"\n")?;
    Some((event, bytes.len() - rest.len()))
}

#[cfg(test)]
mod tests {
    //! Differential tests: this module against the serde derive on
    //! [`Event`], on canonical lines and on mutated ones.

    use super::*;
    use crate::io::IoError;
    use crate::stream::TraceStreamReader;
    use proptest::prelude::*;
    use serde_json::Value;

    fn serde_line(event: &Event) -> String {
        serde_json::to_string(event).unwrap()
    }

    fn encoded(event: &Event) -> Vec<u8> {
        let mut line = Vec::new();
        encode_event(event, &mut line);
        line
    }

    /// Serde's verdict on one line (or the UTF-8 error), `None` for a
    /// blank one.
    fn reference(line: &[u8]) -> Option<Result<Event, String>> {
        match std::str::from_utf8(line) {
            Ok(text) if text.trim().is_empty() => None,
            Ok(text) => Some(serde_json::from_str(text).map_err(|e| e.to_string())),
            Err(e) => Some(Err(e.to_string())),
        }
    }

    /// What [`TraceStreamReader`] makes of `bytes` as all that follows a
    /// header.
    fn through_reader(bytes: &[u8]) -> Option<Result<Event, String>> {
        let mut input = br#"{"format":"ppa-trace-v1","kind":"Measured","events":0}"#.to_vec();
        input.push(b'\n');
        input.extend_from_slice(bytes);
        match TraceStreamReader::new(input.as_slice()).unwrap().next() {
            None => None,
            Some(Ok(event)) => Some(Ok(event)),
            Some(Err(IoError::Parse { line: 2, message })) => Some(Err(message)),
            Some(Err(other)) => panic!("unexpected reader error {other:?}"),
        }
    }

    /// The two claims about any line at all (no `\n` inside; UTF-8 not
    /// assumed): the fast decoder never disagrees with serde, and the
    /// reader gives what a serde-only reader gives, which like
    /// [`std::io::BufRead::lines`] drops one `\r` before the `\n`.
    fn check_line(line: &[u8], terminators: &[&str]) {
        if let Some(event) = decode_event(line) {
            assert_eq!(
                reference(line),
                Some(Ok(event)),
                "line {}",
                line.escape_ascii()
            );
        }
        for terminator in terminators {
            let bytes = [line, terminator.as_bytes()].concat();
            let read = bytes
                .strip_suffix(b"\n")
                .map_or(&bytes[..], |read| read.strip_suffix(b"\r").unwrap_or(read));
            assert_eq!(
                through_reader(&bytes),
                reference(read),
                "line {}",
                bytes.escape_ascii()
            );
        }
    }

    fn edge_u64() -> impl Strategy<Value = u64> {
        prop_oneof![
            Just(0),
            Just(1),
            Just(u64::MAX), // -1 as a tag
            Just(i64::MIN as u64),
            Just(i64::MAX as u64),
            Just(u64::from(u32::MAX)),
            0u64..100_000,
            any::<u64>(),
        ]
    }

    /// Any event of any of the 19 kinds, each field drawn from
    /// [`edge_u64`] cut to the field's type.
    fn arb_event() -> impl Strategy<Value = Event> {
        let payload = (edge_u64(), edge_u64(), edge_u64(), edge_u64(), edge_u64());
        let proc = prop_oneof![Just(0), Just(u16::MAX), any::<u16>()];
        (edge_u64(), proc, edge_u64(), 0..KINDS.len(), payload).prop_map(
            |(time, proc, seq, row, (a, b, c, d, e))| {
                let row = &KINDS[row];
                let mut payload = [a, b, c, d, e];
                for (field, raw) in row.fields.iter().zip(&mut payload) {
                    if let Int::U32 = field.int {
                        *raw = u64::from(*raw as u32);
                    }
                }
                let kind = (row.build)(&payload);
                Event::new(Time::from_nanos(time), ProcessorId(proc), seq, kind)
            },
        )
    }

    /// One canonical line per kind plus the extremes of every field type.
    fn base_events() -> Vec<Event> {
        let mut events: Vec<Event> = (0..KINDS.len())
            .map(|row| {
                let kind = (KINDS[row].build)(&[3, 14, 15, 92, 65]);
                Event::new(Time::from_nanos(40_975), ProcessorId(7), 1234, kind)
            })
            .collect();
        for raw in [0, u64::MAX, i64::MIN as u64, i64::MAX as u64] {
            for row in [
                &KINDS[KindCode::Advance as usize],
                &KINDS[KindCode::Repeat as usize],
            ] {
                let mut payload = [raw; MAX_FIELDS];
                payload[0] = u64::from(raw as u32);
                payload[1] = if row.fields.len() > 2 {
                    payload[0]
                } else {
                    raw
                };
                let kind = (row.build)(&payload);
                events.push(Event::new(
                    Time::from_nanos(raw),
                    ProcessorId(raw as u16),
                    raw,
                    kind,
                ));
            }
        }
        events
    }

    /// Bytes worth putting anywhere in a line: JSON structure and
    /// whitespace, number syntax, string syntax, and bytes that are not
    /// (or not alone) UTF-8. No `\n`: that would make two lines.
    const MENU: &[u8] = b" \t\r0159-+.eE\"{}[],:\\/ux\x00\x7f\x80\xc3\xff";

    #[test]
    fn table_covers_every_kind_under_its_serde_name() {
        let mut names: Vec<String> = base_events()[..KINDS.len()]
            .iter()
            .map(
                |e| match serde_json::from_str::<Value>(&serde_line(e)).unwrap()["kind"].clone() {
                    Value::String(name) => name,
                    Value::Object(pairs) => pairs[0].0.clone(),
                    other => panic!("kind printed as {other:?}"),
                },
            )
            .collect();
        assert_eq!(names.len(), 19);
        names.sort();
        names.dedup();
        assert_eq!(names.len(), 19, "two rows build the same variant");
    }

    #[test]
    fn canonical_lines_match_serde_both_ways() {
        for event in base_events() {
            let line = encoded(&event);
            assert_eq!(line, serde_line(&event).into_bytes());
            assert_eq!(decode_event(&line), Some(event));
        }
    }

    #[test]
    fn terminated_decode_wants_the_whole_line_and_its_newline() {
        for event in base_events() {
            let line = encoded(&event);
            for cut in 0..=line.len() {
                assert_eq!(decode_terminated(&line[..cut]), None);
            }
            for (terminator, rest) in [
                ("\n", ""),
                ("\r\n", ""),
                ("\n", "{\"time\""),
                ("\r\n", "\n"),
            ] {
                let mut bytes = line.clone();
                bytes.extend_from_slice(terminator.as_bytes());
                let used = bytes.len();
                bytes.extend_from_slice(rest.as_bytes());
                assert_eq!(decode_terminated(&bytes), Some((event, used)));
            }
            let mut bytes = line.clone();
            bytes.extend_from_slice(b"\r\r\n");
            assert_eq!(decode_terminated(&bytes), None);
        }
    }

    /// Every one-byte insertion, replacement and deletion from [`MENU`]
    /// at every position of every base line, and every truncation.
    #[test]
    fn single_byte_mutations_never_disagree_with_serde() {
        for event in base_events() {
            let line = encoded(&event);
            for at in 0..=line.len() {
                check_line(&line[..at], &["\n"]);
                for &byte in MENU {
                    let mut inserted = line.clone();
                    inserted.insert(at, byte);
                    check_line(&inserted, &["\n"]);
                    if at < line.len() {
                        let mut replaced = line.clone();
                        replaced[at] = byte;
                        check_line(&replaced, &["\n"]);
                    }
                }
                if at < line.len() {
                    let mut deleted = line.clone();
                    deleted.remove(at);
                    check_line(&deleted, &["\n"]);
                }
            }
        }
    }

    /// Every way of moving, dropping or doubling one key of `object`
    /// (and, through `kind`, of the payload object inside it).
    fn rearranged(object: &[(String, Value)]) -> Vec<Vec<(String, Value)>> {
        let mut out = Vec::new();
        for i in 0..object.len() {
            let mut dropped = object.to_vec();
            let pair = dropped.remove(i);
            for j in 0..=dropped.len() {
                let mut moved = dropped.clone();
                moved.insert(j, pair.clone());
                out.push(moved);
                let mut doubled = object.to_vec();
                doubled.insert(j, (pair.0.clone(), Value::Null));
                out.push(doubled);
            }
            out.push(dropped);
            if let Value::Object(inner) = &pair.1 {
                for inner in rearranged(inner) {
                    let mut nested = object.to_vec();
                    nested[i].1 = Value::Object(inner);
                    out.push(nested);
                }
            }
        }
        out
    }

    #[test]
    fn rearranged_keys_never_disagree_with_serde() {
        for event in base_events() {
            let Value::Object(object) = serde_json::from_str(&serde_line(&event)).unwrap() else {
                panic!("an event prints as an object");
            };
            for object in rearranged(&object) {
                let line = serde_json::to_string(&Value::Object(object)).unwrap();
                check_line(line.as_bytes(), &["\n", ""]);
            }
        }
    }

    /// Numbers a lenient parser reads and a canonical one must not, or
    /// that overflow one field type or all of them.
    const NUMBERS: &[&str] = &[
        "007",
        "00",
        "-0",
        "-1",
        "+1",
        "5.0",
        "5.5",
        "1e3",
        "1E+2",
        "-",
        "",
        "65535",
        "65536",
        "4294967295",
        "4294967296",
        "9223372036854775807",
        "9223372036854775808",
        "-9223372036854775808",
        "-9223372036854775809",
        "18446744073709551615",
        "18446744073709551616",
        "99999999999999999999999",
        "\"5\"",
        "null",
        "[5]",
    ];

    #[test]
    fn rewritten_numbers_never_disagree_with_serde() {
        for event in base_events() {
            let line = serde_line(&event);
            // Each `:` is followed by a number, a name or an object.
            for (colon, _) in line.match_indices(':') {
                let start = colon + 1;
                let len = line[start..]
                    .find(|c: char| c != '-' && !c.is_ascii_digit())
                    .unwrap();
                if len == 0 {
                    continue;
                }
                for number in NUMBERS {
                    let rewritten = format!("{}{number}{}", &line[..start], &line[start + len..]);
                    check_line(rewritten.as_bytes(), &["\n", "\r\n"]);
                }
            }
        }
    }

    #[test]
    fn escaped_letters_never_disagree_with_serde() {
        for event in base_events() {
            let line = serde_line(&event);
            for (at, letter) in line.char_indices().filter(|(_, c)| c.is_ascii_alphabetic()) {
                let escaped = format!("{}\\u{:04x}{}", &line[..at], letter as u32, &line[at + 1..]);
                // Same event, spelled as only serde reads it.
                assert_eq!(decode_event(escaped.as_bytes()), None);
                assert_eq!(reference(escaped.as_bytes()), Some(Ok(event)));
                check_line(escaped.as_bytes(), &["\n"]);
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2048))]

        /// Encoding is serde's bytes and decoding inverts it, for any
        /// event of any kind.
        #[test]
        fn arbitrary_events_match_serde_both_ways(event in arb_event()) {
            let line = encoded(&event);
            prop_assert_eq!(&line, &serde_line(&event).into_bytes());
            prop_assert_eq!(decode_event(&line), Some(event));
            prop_assert_eq!(reference(&line), Some(Ok(event)));
            let mut terminated = line.clone();
            terminated.push(b'\n');
            prop_assert_eq!(decode_terminated(&terminated), Some((event, terminated.len())));
        }

        /// Up to four random menu edits of a random canonical line.
        #[test]
        fn random_mutations_never_disagree_with_serde(
            event in arb_event(),
            edits in proptest::collection::vec((0u8..3, any::<usize>(), any::<usize>()), 1..5),
        ) {
            let mut line = encoded(&event);
            for (op, at, pick) in edits {
                let byte = MENU[pick % MENU.len()];
                match op {
                    0 => line.insert(at % (line.len() + 1), byte),
                    1 if !line.is_empty() => { let at = at % line.len(); line[at] = byte; }
                    2 if !line.is_empty() => { line.remove(at % line.len()); }
                    _ => {}
                }
            }
            check_line(&line, &["\n", "\r\n", ""]);
        }
    }
}
