"""One measured ``searchbench run --config ROUND_DIR/config.json``.

Usage: ``python3 perfbench/child.py ROUND_DIR [--trace | --setup-only]``,
with the checkout's ``src`` on ``PYTHONPATH``.  The process calls ``searchbench.cli``
exactly as the ``searchbench`` command does.  Two thin wrappers observe it
from outside: one timestamps the first request that reaches
``ModelGateway.complete``, the other keeps the instances ``run`` generates
so the parent can check their ground truths.  With ``--trace`` every layer
is wrapped as well (see ``tracing.py``).  With ``--setup-only`` the process
writes the first request's timestamp and exits before sending it.

Timestamps are ``time.monotonic()``, a clock the parent process shares.
Once ``run`` returns, the process writes ``child.json``, ``instances.jsonl``
and, when tracing, ``spans.jsonl`` into ROUND_DIR.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time
from pathlib import Path


def main(argv: list[str]) -> int:
    round_dir = Path(argv[1])
    trace = argv[2:] == ["--trace"]
    setup_only = argv[2:] == ["--setup-only"]
    import searchbench

    cli = sys.modules["searchbench.cli"]
    gateway = sys.modules["searchbench.gateway"]
    tracer = None
    if trace:
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)

    first_request: list[float] = []
    complete = gateway.ModelGateway.complete

    def stamp_first(self, request):
        if not first_request:
            first_request.append(time.monotonic())
            if setup_only:
                result = json.dumps({"first_request": first_request[0]})
                (round_dir / "child.json").write_text(result, encoding="utf-8")
                os._exit(0)
        return complete(self, request)

    gateway.ModelGateway.complete = stamp_first

    generated = []
    generate_instances = cli.generate_instances

    def keep_instances(config):
        instances = generate_instances(config)
        generated.extend(instances)
        return instances

    cli.generate_instances = keep_instances

    code = cli.main(["run", "--config", str(round_dir / "config.json")])
    returned = time.monotonic()
    peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    searchbench.write_instances(round_dir / "instances.jsonl", generated)
    if tracer is not None:
        tracer.dump(round_dir / "spans.jsonl")
    result = {
        "exit_code": code,
        "first_request": first_request[0] if first_request else None,
        "returned": returned,
        "peak_rss_kb": peak_rss_kb,
        "searchbench_file": searchbench.__file__,
    }
    (round_dir / "child.json").write_text(json.dumps(result), encoding="utf-8")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv))
