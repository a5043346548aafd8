"""Launch ``python -m repro.service`` for the benchmark, optionally traced.

Usage: ``python3 perfbench/serve.py OUT.json [--trace] -- <service args>``

Calls :func:`repro.service.__main__.main` with the given arguments; after
it returns (SIGTERM drains the service), writes ``OUT.json`` with the
process's peak RSS and, when traced, every span and counter recorded.
"""

from __future__ import annotations

import json
import resource
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from tracing import Tracer, install  # noqa: E402


def main(argv: list[str]) -> int:
    split = argv.index("--")
    own, service_args = argv[:split], argv[split + 1:]
    out_path = own[0]
    tracer = Tracer()
    if "--trace" in own:
        install(tracer, server=True)
        tracer.enabled = True
    from repro.service.__main__ import main as service_main

    code = service_main(service_args)
    tracer.enabled = False
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    extra = {"peak_rss_mb": peak_kib / 1024.0, "exit_code": code}
    if "--trace" in own:
        tracer.dump(out_path, extra)
    else:
        with open(out_path, "w", encoding="utf-8") as handle:
            json.dump(extra, handle)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
