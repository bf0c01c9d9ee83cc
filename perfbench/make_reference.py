#!/usr/bin/env python3
"""Regenerate perfbench/reference.json: the output digest of every request
any seed of any workload can send, plus the set-up request.

Run from the repository root with the program whose output is the
reference (normally the parent commit of a change):

    python3 perfbench/make_reference.py

A change that alters output on purpose regenerates this file and says why.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from hahnroot.cli import run  # noqa: E402

from gate import REFERENCE, digest  # noqa: E402
from workloads import SETUP_COMMAND, WORKLOADS, request_key  # noqa: E402


def main() -> int:
    commands = {request_key(SETUP_COMMAND): SETUP_COMMAND}
    for workload in WORKLOADS.values():
        for request in workload.all_requests():
            commands[request.key] = request.cmd
    digests = {}
    for n, (key, cmd) in enumerate(sorted(commands.items())):
        code, text = run(cmd)
        digests[key] = digest(cmd.verb, code, json.loads(text))
        print(f"[{n + 1}/{len(commands)}] exit {code} {key[:100]}", file=sys.stderr, flush=True)
    REFERENCE.write_text(json.dumps({"digests": digests}, indent=0, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
