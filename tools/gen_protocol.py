#!/usr/bin/env python
"""Generate ``docs/PROTOCOL.md`` from the compile service's op table.

``CompileService.OPS`` is the serve wire schema.  The service
validates requests against it at runtime; this script renders the
same table as markdown, so the protocol reference cannot drift from
the code -- CI runs ``--check`` and fails when the committed document
no longer matches::

    python tools/gen_protocol.py           # rewrite docs/PROTOCOL.md
    python tools/gen_protocol.py --check   # exit 1 on drift (CI gate)

Exit codes: 0 OK / up to date, 1 drift detected with ``--check``.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.batch.serving import CompileService, Op  # noqa: E402

OUTPUT = REPO_ROOT / "docs" / "PROTOCOL.md"

HEADER = """\
# Wire protocol reference

<!-- GENERATED FILE -- do not edit by hand.
     Source of truth: the op table (CompileService.OPS) declared in
     src/repro/batch/serving.py.
     Regenerate with:  python tools/gen_protocol.py
     CI gates drift:   python tools/gen_protocol.py --check -->

The compile service speaks one framing: one request or response is a
single JSON object serialized with sorted keys, UTF-8 encoded, and
prefixed with a big-endian 4-byte length (`struct ">I"`); frames above
64 MiB are rejected on both sides (`send_frame` / `recv_frame` in
`src/repro/batch/service.py`).

Requests are routed on the `"op"` key through the service's op table
(`CompileService.handle_request`).  Responses share an **ok/error
envelope**: every reply carries an `ok` boolean, and a failed one an
`error` string.  The server answers an error frame without running any
handler for an unknown op, a missing required field, or a field of the
wrong JSON type; a `null` value counts as absent.  A handler crash, or
a response too large for one frame, also becomes an error frame on the
live connection.  The tables below list the keys each op may answer
with *in addition to* that envelope.

The `WIRE-PROTOCOL` lint rule checks every in-repo `{"op": ...}`
literal against the same table.
"""


def _render_op(name: str, op: Op) -> list[str]:
    lines = [f'### `op: "{name}"`', "", op.summary, ""]
    rows = sorted([(field, kind, "required")
                   for field, kind in op.required.items()]
                  + [(field, kind, "optional")
                     for field, kind in op.optional.items()])
    if rows:
        lines += ["| request field | type | requiredness |",
                  "| --- | --- | --- |"]
        lines += [f"| `{field}` | {kind} | {need} |"
                  for field, kind, need in rows]
    else:
        lines.append("Takes no request fields beyond `op`.")
    lines.append("")
    keys = ", ".join(f"`{key}`" for key in sorted(op.response))
    lines.append(f"Response keys beyond the envelope: {keys or 'none'}.")
    lines.append("")
    return lines


def render() -> str:
    """The whole document, from the declared table."""
    ops = ", ".join(f"`{name}`" for name in CompileService.OPS)
    lines = [HEADER, "## CompileService (`repro.batch.serving`)", "",
             f"Served by `repro-agu serve`.  Ops: {ops}.", ""]
    for name, op in CompileService.OPS.items():
        lines += _render_op(name, op)
    return "\n".join(lines).rstrip() + "\n"


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = argparse.ArgumentParser(
        prog="gen-protocol", description=__doc__.splitlines()[0])
    parser.add_argument(
        "--check", action="store_true",
        help="compare against the committed docs/PROTOCOL.md and exit "
             "1 on drift instead of rewriting it")
    parser.add_argument(
        "--output", type=Path, default=OUTPUT,
        help="write the document here (default: docs/PROTOCOL.md)")
    args = parser.parse_args(argv)

    document = render()
    if args.check:
        committed = args.output.read_text(encoding="utf-8") \
            if args.output.exists() else ""
        if committed != document:
            print(f"gen-protocol: {args.output} is stale -- regenerate "
                  f"with `python tools/gen_protocol.py`",
                  file=sys.stderr)
            return 1
        print(f"gen-protocol: {args.output} is up to date")
        return 0
    args.output.write_text(document, encoding="utf-8")
    print(f"gen-protocol: wrote {args.output}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
