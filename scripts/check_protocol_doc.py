#!/usr/bin/env python3
"""Lint that the normative docs mirror their source-of-truth constants.

Two spec documents are pinned here:

- PROTOCOL.md against crates/server/src/protocol.rs: every frame type
  and error code must appear in the prose tables with the same literal
  value and name. (The doc-tested Rust block at the end of PROTOCOL.md
  already guards the doc -> source direction.)
- QUERIES.md against crates/slice/src/spec.rs: every clause keyword in
  CLAUSE_KEYWORDS must appear as a grammar-table row, so the query
  language a user reads cannot drift from what the parser accepts. The
  kind mnemonic and group tables are checked from the kind table itself
  by a ppa-slice test (`queries_doc_lists_every_kind_and_group`).

Exit 0 when everything matches; exit 1 with one line per mismatch.
"""

import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "crates" / "server" / "src" / "protocol.rs"
DOC = ROOT / "PROTOCOL.md"
SPEC_SRC = ROOT / "crates" / "slice" / "src" / "spec.rs"
QUERIES_DOC = ROOT / "QUERIES.md"


def parse_consts(src: str):
    """Return {name: int} for every pub const u8/u16/u32/usize literal."""
    consts = {}
    pat = re.compile(
        r"pub const (?P<name>[A-Z_0-9]+): (?:u8|u16|u32|usize) = "
        r"(?P<val>0x[0-9a-fA-F]+|\d+(?: << \d+)?);"
    )
    for m in pat.finditer(src):
        val = m.group("val")
        if "<<" in val:
            lhs, rhs = val.split("<<")
            consts[m.group("name")] = int(lhs) << int(rhs)
        else:
            consts[m.group("name")] = int(val, 0)
    return consts


def parse_str_array(src: str, name: str):
    """Return the string literals of `const NAME: &[&str] = &[...]`."""
    m = re.search(
        r"pub const %s: &\[&str\] = &\[(?P<body>.*?)\];" % re.escape(name),
        src,
        re.DOTALL,
    )
    if not m:
        return None
    return re.findall(r'"([^"]+)"', m.group("body"))


def check_queries_doc(require):
    """Pin QUERIES.md's grammar tables to the parser in spec.rs."""
    src = SPEC_SRC.read_text()
    doc = QUERIES_DOC.read_text()

    keywords = parse_str_array(src, "CLAUSE_KEYWORDS")
    require(
        keywords is not None and len(keywords) >= 8,
        f"could not parse CLAUSE_KEYWORDS out of {SPEC_SRC}",
    )
    for kw in keywords or []:
        row = re.compile(r"^\|\s*`%s`\s*\|" % re.escape(kw), re.MULTILINE)
        require(
            bool(row.search(doc)),
            f"QUERIES.md grammar table is missing a | `{kw}` | row "
            f"(source: CLAUSE_KEYWORDS in {SPEC_SRC.relative_to(ROOT)})",
        )

    # Scalar facts the prose states outright.
    require(
        "half-open" in doc,
        "QUERIES.md never states the window is half-open",
    )
    require(
        "(emitted - records) + suppressed + filtered + skipped + lost == expected"
        in doc,
        "QUERIES.md no longer states the accounting identity verbatim",
    )
    trace_src = (ROOT / "crates" / "trace" / "src" / "event.rs").read_text()
    m = re.search(r"pub const REPEAT_MAX_PATTERN: usize = (\d+);", trace_src)
    require(
        m is not None and f"up to {m.group(1)} events long" in doc,
        "QUERIES.md's pattern-length bound disagrees with REPEAT_MAX_PATTERN",
    )


def main() -> int:
    src = SRC.read_text()
    doc = DOC.read_text()
    consts = parse_consts(src)
    errors = []

    def require(cond: bool, msg: str):
        if not cond:
            errors.append(msg)

    fts = {k: v for k, v in consts.items() if k.startswith("FT_")}
    ecs = {k: v for k, v in consts.items() if k.startswith("EC_")}
    require(len(fts) >= 6, f"expected >=6 FT_ consts in {SRC}, found {len(fts)}")
    require(len(ecs) >= 12, f"expected >=12 EC_ consts in {SRC}, found {len(ecs)}")

    # Every frame type must appear as a table row: | `0xNN` | `NAME` | ...
    for name, val in sorted(fts.items(), key=lambda kv: kv[1]):
        label = name[len("FT_"):]
        row = re.compile(
            r"\|\s*`0x%02x`\s*\|\s*`%s`\s*\|" % (val, re.escape(label))
        )
        require(
            bool(row.search(doc)),
            f"PROTOCOL.md frame-type table is missing | `0x{val:02x}` | `{label}` | "
            f"(source: {name} = 0x{val:02x})",
        )

    # Every error code must appear as a table row: | N | `kebab-name` | ...
    for name, val in sorted(ecs.items(), key=lambda kv: kv[1]):
        label = name[len("EC_"):].lower().replace("_", "-")
        row = re.compile(r"\|\s*%d\s*\|\s*`%s`\s*\|" % (val, re.escape(label)))
        require(
            bool(row.search(doc)),
            f"PROTOCOL.md error-code table is missing | {val} | `{label}` | "
            f"(source: {name} = {val})",
        )

    # Error codes must be dense 1..=N — the spec's tables promise that.
    expected = list(range(1, len(ecs) + 1))
    require(
        sorted(ecs.values()) == expected,
        f"EC_ codes are not dense 1..={len(ecs)}: {sorted(ecs.values())}",
    )

    # Scalar facts the prose states outright.
    require("PPASERV1" in doc, "PROTOCOL.md never names the magic PPASERV1")
    require(
        consts.get("FRAME_HEADER_LEN") == 8 and "8-byte header" in doc,
        "frame header is not documented as the 8-byte header the source declares",
    )
    require(
        consts.get("MAX_FRAME_LEN") == (1 << 24) and "`1 << 24`" in doc,
        "MAX_FRAME_LEN (1 << 24) is not stated in PROTOCOL.md",
    )
    require(
        consts.get("MAX_ID_LEN") == 128 and "1..=128 bytes" in doc,
        "MAX_ID_LEN (128) is not reflected in the id validation prose",
    )
    version = consts.get("SERVE_VERSION")
    require(
        version == 1 and "protocol version: 1" in doc,
        f"SERVE_VERSION ({version}) is not the version PROTOCOL.md documents",
    )

    # The doc-tested block must exercise every constant by name, so a
    # rename in the source breaks the doctest rather than orphaning it.
    for name in sorted(consts):
        require(
            f"p::{name}" in doc,
            f"doc-tested block in PROTOCOL.md never references p::{name}",
        )

    check_queries_doc(require)

    if errors:
        for e in errors:
            print(f"check_protocol_doc: {e}", file=sys.stderr)
        print(
            f"check_protocol_doc: {len(errors)} mismatch(es) between the "
            f"normative docs and their sources",
            file=sys.stderr,
        )
        return 1

    print(
        f"check_protocol_doc: ok — {len(fts)} frame types, {len(ecs)} error "
        f"codes, and all scalar constants match PROTOCOL.md; QUERIES.md "
        f"grammar tables match crates/slice/src/spec.rs"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
