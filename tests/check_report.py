"""Fail on a report whose norm certificates do not stand as written.

``aiq verify`` re-checks each certificate against its witness, but it
accepts a stalled certificate, whose gap the solve left open.  This check
exits 1 on any certificate that is stalled or that records no witness, so
that neither passes an end-to-end run silently.

    python tests/check_report.py report.json [more.json ...]
"""

from __future__ import annotations

import json
import sys


def certificates(node, where="report"):
    """(location, certificate) for every norm certificate in a report: each
    object that records a solve ``path`` or a ``stalled`` flag."""
    if isinstance(node, dict):
        if "path" in node or "stalled" in node:
            return [(where, node)]
        return [c for k, v in node.items() for c in certificates(v, f"{where}.{k}")]
    if isinstance(node, list):
        return [c for i, v in enumerate(node) for c in certificates(v, f"{where}[{i}]")]
    return []


def problems(report) -> list[str]:
    """One line per certificate that is stalled or has no witness."""
    out = []
    for where, cert in certificates(report):
        if cert.get("stalled") is not False:
            out.append(f"{where}: stalled certificate")
        if "witness" not in cert:
            out.append(f"{where}: certificate records no witness")
    return out


def main(paths) -> int:
    bad = 0
    for path in paths:
        with open(path) as handle:
            report = json.load(handle)
        if not certificates(report):
            print(f"{path}: no certificates found", file=sys.stderr)
            bad += 1
        for line in problems(report):
            print(f"{path}: {line}", file=sys.stderr)
            bad += 1
    return 1 if bad or not paths else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
