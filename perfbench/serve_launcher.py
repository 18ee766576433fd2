"""Run ``repro-agu serve`` with the benchmark's spans installed.

Usage (from the repository root)::

    python3 perfbench/serve_launcher.py SPANS.json serve --port 0 ...

Everything after the spans path goes to the ``repro-agu`` CLI
unchanged.  When the server stops (SIGTERM), every span it recorded is
written to ``SPANS.json``.  The ``stats`` op additionally reports the
access-graph memo's ``cache_info()`` under ``memo``, so the benchmark
can read memo hits and misses per round.
"""

from __future__ import annotations

import functools
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

import tracing  # noqa: E402


def _report_memo() -> None:
    from repro.batch.serving import CompileService
    from repro.graph.access_graph import cached_access_graph

    handle = CompileService.handle_request

    @functools.wraps(handle)
    def with_memo(self, request):
        response = handle(self, request)
        if request.get("op") == "stats":
            info = cached_access_graph.cache_info()
            response["memo"] = {"hits": info.hits, "misses": info.misses}
        return response
    CompileService.handle_request = with_memo


def main(argv: list[str]) -> int:
    spans_path, cli_args = argv[0], argv[1:]
    recorder = tracing.Recorder()
    tracing.install(recorder)
    _report_memo()
    from repro.cli.main import main as cli_main

    code = cli_main(cli_args)
    recorder.dump(spans_path)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
