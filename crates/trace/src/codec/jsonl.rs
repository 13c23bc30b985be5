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
//! generated from the kind table in `crate::kind` (variant name, ordered
//! field names, integer type of each field), one match arm per kind: the
//! encoder writes each kind's keys as literals, and the decoder
//! dispatches once on the kind's name and then expects that kind's keys
//! in order. The kind list itself lives there, not here.
//!
//! `decode_event` answers `None` for every other line, valid JSON or
//! not. The chunk decoder ([`decode_lines`], which
//! [`AnyTraceReader`](crate::AnyTraceReader) runs on every chunk of JSONL
//! lines) then hands that line to `serde_json::from_str`, which
//! either reads it (reordered keys, whitespace, `5.0`, escapes in a
//! name) or produces the error message. Which decoder a line gets
//! therefore depends on the line alone. The serde derive on [`Event`]
//! stays as the reference the tests below compare this module against,
//! line by line.

use super::reader::{Damage, Mark};
use crate::event::{Event, EventKind};
use crate::gap::{GapCause, TraceGap};
use crate::ids::ProcessorId;
use crate::io::IoError;
#[cfg(test)]
use crate::kind::KindCode;
use crate::kind::{for_each_kind, Int, Raw};
use crate::time::Time;

/// The longest canonical line, terminator included: three 20-digit
/// header integers and a `Repeat` with every field at its widest fit
/// with room to spare.
pub(crate) const MAX_LINE_BYTES: usize = 256;

/// Two ASCII digits for every value below 100.
const DIGIT_PAIRS: &[u8; 200] = b"\
    0001020304050607080910111213141516171819\
    2021222324252627282930313233343536373839\
    4041424344454647484950515253545556575859\
    6061626364656667686970717273747576777879\
    8081828384858687888990919293949596979899";

/// Appends `value` in decimal, two digits at a time.
#[inline]
fn push_uint(out: &mut Vec<u8>, mut value: u64) {
    // u64::MAX has 20 digits.
    let mut digits = [0u8; 20];
    let mut start = digits.len();
    while value >= 100 {
        let pair = (value % 100) as usize * 2;
        value /= 100;
        start -= 2;
        digits[start..start + 2].copy_from_slice(&DIGIT_PAIRS[pair..pair + 2]);
    }
    if value >= 10 {
        let pair = value as usize * 2;
        start -= 2;
        digits[start..start + 2].copy_from_slice(&DIGIT_PAIRS[pair..pair + 2]);
    } else {
        start -= 1;
        digits[start] = b'0' + value as u8;
    }
    out.extend_from_slice(&digits[start..]);
}

/// Appends a payload value of integer type `int` (a constant at every
/// call site, so the sign test folds away for unsigned fields).
#[inline(always)]
fn push_int(out: &mut Vec<u8>, raw: u64, int: Int) {
    match int {
        Int::I64 if (raw as i64) < 0 => {
            out.push(b'-');
            push_uint(out, (raw as i64).unsigned_abs());
        }
        _ => push_uint(out, raw),
    }
}

/// Powers of ten up to the eighth.
const POW10: [u64; 9] = [
    1,
    10,
    100,
    1_000,
    10_000,
    100_000,
    1_000_000,
    10_000_000,
    100_000_000,
];

const LOW: u64 = 0x0101_0101_0101_0101;

/// The eight bytes of `word` as one integer, the first in the low bits.
#[inline(always)]
fn load(word: &[u8]) -> u64 {
    u64::from_le_bytes(word.try_into().expect("eight bytes"))
}

/// The value and number of the ASCII digits that open `word`'s eight
/// bytes, all eight at once.
#[inline(always)]
fn leading_digits(word: &[u8]) -> (u64, usize) {
    // Digits become 0..=9 with a clear high nibble; any other byte has a
    // high nibble set, or a low one past 9 that adding 6 carries out.
    // A carry only runs towards later bytes, past the first non-digit.
    let x = load(word) ^ (0x30 * LOW);
    let stop = (x | x.wrapping_add(6 * LOW)) & (0xF0 * LOW);
    let n = (stop.trailing_zeros() / 8) as usize;
    match n {
        0 => (0, 0),
        1 => (x & 0xF, 1),
        _ => {
            // The digits moved to the top bytes, below them zeros:
            // leading zeros of the same number. Then pairs, quads and
            // the octet combine.
            let mut v = x << (64 - 8 * n);
            v = (v * 10 + (v >> 8)) & 0x00FF_00FF_00FF_00FF;
            v = (v * 100 + (v >> 16)) & 0x0000_FFFF_0000_FFFF;
            v = (v * 10_000 + (v >> 32)) & 0xFFFF_FFFF;
            (v, n)
        }
    }
}

/// The undecoded rest of a line.
struct Cursor<'a> {
    rest: &'a [u8],
}

impl<'a> Cursor<'a> {
    /// Consumes `text` if the rest starts with it.
    #[inline(always)]
    fn lit(&mut self, text: &str) -> Option<()> {
        self.rest = self.rest.strip_prefix(text.as_bytes())?;
        Some(())
    }

    /// Consumes a kind name and the quote that closes it.
    #[inline(always)]
    fn name(&mut self) -> Option<&'a [u8]> {
        let end = self.rest.iter().position(|&b| b == b'"')?;
        let name = &self.rest[..end];
        self.rest = &self.rest[end + 1..];
        Some(name)
    }

    /// Consumes a canonical unsigned decimal no greater than `max`: at
    /// least one digit, no leading zero on a nonzero value. A leading
    /// zero fails at once: a canonical line follows each number with `,`
    /// or `}`, never a digit. Reads eight bytes at a time while the rest
    /// holds eight.
    #[inline(always)]
    fn uint(&mut self, max: u64) -> Option<u64> {
        let bytes = self.rest;
        let Some(word) = bytes.get(..8) else {
            return self.uint_from(0, 0, max);
        };
        let (value, len) = leading_digits(word);
        if len == 0 || (len > 1 && word[0] == b'0') {
            return None;
        }
        if len < 8 {
            self.rest = &bytes[len..];
            return (value <= max).then_some(value);
        }
        // Eight to fifteen digits (a time in nanoseconds) end in the
        // second word and cannot overflow.
        if let Some(word) = bytes.get(8..16) {
            let (low, n) = leading_digits(word);
            if n < 8 {
                self.rest = &bytes[8 + n..];
                let value = value * POW10[n] + low;
                return (value <= max).then_some(value);
            }
        }
        self.uint_from(value, len, max)
    }

    /// [`Cursor::uint`] past its first `len` digits, worth `value`: more
    /// than eight digits, or fewer than eight bytes left.
    #[inline(never)]
    fn uint_from(&mut self, mut value: u64, mut len: usize, max: u64) -> Option<u64> {
        let bytes = self.rest;
        while let Some(word) = bytes.get(len..len + 8) {
            let (digits, n) = leading_digits(word);
            value = value.checked_mul(POW10[n])?.checked_add(digits)?;
            len += n;
            if n < 8 {
                return self.end_uint(value, len, max);
            }
        }
        while let Some(&byte) = bytes.get(len) {
            let digit = byte.wrapping_sub(b'0');
            if digit > 9 {
                break;
            }
            if len == 1 && value == 0 {
                return None;
            }
            value = value.checked_mul(10)?.checked_add(u64::from(digit))?;
            len += 1;
        }
        self.end_uint(value, len, max)
    }

    /// Consumes the `len` digits of `value`, if there are any.
    #[inline(always)]
    fn end_uint(&mut self, value: u64, len: usize, max: u64) -> Option<u64> {
        if len == 0 {
            return None;
        }
        self.rest = &self.rest[len..];
        (value <= max).then_some(value)
    }

    /// Consumes a canonical integer of type `int` and returns its bits.
    /// `-0` is not canonical (serde prints `0`).
    #[inline(always)]
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

    /// Consumes a canonical payload value of type `T`.
    #[inline(always)]
    fn field<T: Raw>(&mut self) -> Option<T> {
        self.int(T::INT).map(T::from_raw)
    }
}

/// Declares `encode_kind` and `decode_kind` from the kind table: one
/// arm per kind, its JSON keys as literals in field order.
macro_rules! kind_codec {
    (@encode $out:ident, $name:ident;) => {
        $out.extend_from_slice(concat!(",\"kind\":\"", stringify!($name), "\"}").as_bytes());
    };
    (@encode $out:ident, $name:ident; $first:ident: $fty:ty $(, $field:ident: $ty:ty)*) => {
        $out.extend_from_slice(
            concat!(",\"kind\":{\"", stringify!($name), "\":{\"", stringify!($first), "\":")
                .as_bytes(),
        );
        push_int($out, $first.to_raw(), <$fty>::INT);
        $(
            $out.extend_from_slice(concat!(",\"", stringify!($field), "\":").as_bytes());
            push_int($out, $field.to_raw(), <$ty>::INT);
        )*
        $out.extend_from_slice(b"}}}");
    };
    (@decode $c:ident, $data:ident, $name:ident;) => {{
        if $data {
            return None;
        }
        $c.lit("}")?;
        EventKind::$name {}
    }};
    (@decode $c:ident, $data:ident, $name:ident; $first:ident: $fty:ty $(, $field:ident: $ty:ty)*) => {{
        if !$data {
            return None;
        }
        $c.lit(concat!(":{\"", stringify!($first), "\":"))?;
        let $first = $c.field::<$fty>()?;
        $(
            $c.lit(concat!(",\"", stringify!($field), "\":"))?;
            let $field = $c.field::<$ty>()?;
        )*
        $c.lit("}}}")?;
        EventKind::$name { $first $(, $field)* }
    }};
    ($($name:ident { $($field:ident: $ty:ty),* } => $tag:literal, $mnem:literal, $group:ident,
        [$($class:ident)?], [$($shift:ident)?], $fmt:literal;)*) => {
        /// Appends `,"kind":`, the kind, and the brace closing the line.
        #[inline]
        fn encode_kind(kind: &EventKind, out: &mut Vec<u8>) {
            match *kind {$(
                EventKind::$name { $($field),* } => {
                    kind_codec!(@encode out, $name; $($field: $ty),*);
                }
            )*}
        }

        /// Consumes a kind (`"Name"` for a unit kind, `{"Name":{..}}`
        /// otherwise) and the brace closing the line.
        #[inline(always)]
        fn decode_kind(c: &mut Cursor<'_>) -> Option<EventKind> {
            let data = c.lit("{").is_some();
            c.lit("\"")?;
            let name = c.name()?;
            Some(match name {
                $(name if name == stringify!($name).as_bytes() => {
                    kind_codec!(@decode c, data, $name; $($field: $ty),*)
                })*
                _ => return None,
            })
        }

        /// The kind table as rows, for the tests to draw events from.
        #[cfg(test)]
        #[allow(unused_variables, unused_mut)] // unit kinds read no payload
        const KINDS: [KindRow; KindCode::ALL.len()] = [$(KindRow {
            fields: &[$(Field { int: <$ty>::INT }),*],
            build: |payload| KindCode::$name.with_fields(payload),
        }),*];
    };
}
for_each_kind!(kind_codec);

/// The most payload fields any kind carries (`Repeat`).
#[cfg(test)]
const MAX_FIELDS: usize = 5;

/// One payload field of [`KINDS`]: its integer type.
#[cfg(test)]
struct Field {
    int: Int,
}

/// One row of [`KINDS`].
#[cfg(test)]
struct KindRow {
    fields: &'static [Field],
    /// Rebuilds the kind from its payload, fields in table order.
    build: fn(&[u64; MAX_FIELDS]) -> EventKind,
}

/// Appends the canonical JSONL line of `event` to `out`, without a
/// newline: byte for byte what `serde_json::to_string(event)` returns.
#[inline]
pub(crate) fn encode_event(event: &Event, out: &mut Vec<u8>) {
    out.reserve(MAX_LINE_BYTES);
    out.extend_from_slice(b"{\"time\":");
    push_uint(out, event.time.as_nanos());
    out.extend_from_slice(b",\"proc\":");
    push_uint(out, u64::from(event.proc.0));
    out.extend_from_slice(b",\"seq\":");
    push_uint(out, event.seq);
    encode_kind(&event.kind, out);
}

/// Decodes the canonical event line `bytes` starts with and returns it
/// with what follows its closing brace. One copy of it, called from
/// both decoders: every kind's arm is in it.
#[inline(never)]
fn decode_prefix(bytes: &[u8]) -> Option<(Event, &[u8])> {
    let mut c = Cursor { rest: bytes };
    c.lit("{\"time\":")?;
    let time = c.uint(u64::MAX)?;
    c.lit(",\"proc\":")?;
    let proc = c.uint(u64::from(u16::MAX))? as u16;
    c.lit(",\"seq\":")?;
    let seq = c.uint(u64::MAX)?;
    c.lit(",\"kind\":")?;
    let kind = decode_kind(&mut c)?;
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
#[inline]
pub(crate) fn decode_terminated(bytes: &[u8]) -> Option<(Event, usize)> {
    let (event, rest) = decode_prefix(bytes)?;
    let rest = rest.strip_prefix(b"\r").unwrap_or(rest);
    let rest = rest.strip_prefix(b"\n")?;
    Some((event, bytes.len() - rest.len()))
}

/// The line `bytes` starts with, without its terminator (the `\n` and
/// one `\r` before it, as [`std::io::BufRead::lines`] drops them), and
/// what follows the terminator.
pub(crate) fn split_line(bytes: &[u8]) -> (&[u8], &[u8]) {
    let (line, rest) = match bytes.iter().position(|&b| b == b'\n') {
        Some(end) => (&bytes[..end], &bytes[end + 1..]),
        None => (bytes, &bytes[bytes.len()..]),
    };
    (line.strip_suffix(b"\r").unwrap_or(line), rest)
}

/// Whether `line` holds only whitespace (as `str::trim` sees it). A
/// line that starts an object cannot, which spares event lines the
/// UTF-8 scan.
pub(crate) fn is_blank(line: &[u8]) -> bool {
    line.first() != Some(&b'{')
        && std::str::from_utf8(line).is_ok_and(|text| text.trim().is_empty())
}

/// Parses one line through serde; the error is its message, or the
/// UTF-8 decoder's.
pub(crate) fn from_json_line<T: serde::Deserialize>(line: &[u8]) -> Result<T, String> {
    let text = std::str::from_utf8(line).map_err(|e| e.to_string())?;
    serde_json::from_str(text).map_err(|e| e.to_string())
}

/// Decodes a chunk of whole lines: a canonical line directly, a blank
/// one not at all, any other through serde. A line that is not an event
/// becomes a [`Mark`] at its position among the events, carrying its
/// line number: `line` lines precede the chunk. Returns the line number
/// of the chunk's last line.
pub(crate) fn decode_lines(
    mut bytes: &[u8],
    mut line: usize,
    events: &mut Vec<Event>,
    marks: &mut Vec<Mark>,
) -> usize {
    while !bytes.is_empty() {
        line += 1;
        if let Some((event, used)) = decode_terminated(bytes) {
            events.push(event);
            bytes = &bytes[used..];
            continue;
        }
        let (text, rest) = split_line(bytes);
        bytes = rest;
        if is_blank(text) {
            continue;
        }
        // Canonical lines end up here only as the input's last line with
        // no newline; every other line here goes on to serde.
        match decode_event(text).map_or_else(|| from_json_line(text), Ok) {
            Ok(event) => events.push(event),
            Err(message) => marks.push(Mark {
                at: events.len(),
                damage: Damage {
                    error: IoError::Parse { line, message },
                    gaps: vec![TraceGap::unframed(line, 1, GapCause::MalformedLine)],
                },
            }),
        }
    }
    line
}

#[cfg(test)]
mod tests {
    //! Differential tests: this module against the serde derive on
    //! [`Event`], on canonical lines and on mutated ones.

    use super::*;
    use crate::io::IoError;
    use crate::AnyTraceReader;
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

    /// What [`AnyTraceReader`] makes of `bytes` as all that follows a
    /// header.
    fn through_reader(bytes: &[u8]) -> Option<Result<Event, String>> {
        let mut input = br#"{"format":"ppa-trace-v1","kind":"Measured","events":0}"#.to_vec();
        input.push(b'\n');
        input.extend_from_slice(bytes);
        match AnyTraceReader::open(input.as_slice()).unwrap().next() {
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
