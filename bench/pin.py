"""Pin the sha256 of every document the benchmark can produce.

Usage: python3 bench/pin.py

Runs every candidate document of every workload (see
`workloads.candidates`) through `hfroots.cli.main`, checks each against the
gate's invariants, and writes `digests.json`.  Run it only at a commit whose
documents are trusted: the pins are what later commits are checked against.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import hfroots.cli  # noqa: E402

import gate  # noqa: E402
import workloads  # noqa: E402


def main() -> int:
    digests, bad = {}, 0
    with tempfile.TemporaryDirectory(dir=HERE) as tmp:
        for i, doc in enumerate(workloads.candidates()):
            key = workloads.doc_key(doc)
            out = Path(tmp) / f"d{i}"
            code = hfroots.cli.main(doc["argv"] + ["--out", str(out)])
            issues = gate.problems(doc["kind"], key, code, out, {})
            if issues:
                bad += 1
                print(f"FAIL {key}: {'; '.join(issues)}", file=sys.stderr)
                continue
            digests[key] = gate.sha256(out.read_bytes())
    if bad:
        print(f"{bad} documents failed; digests not written", file=sys.stderr)
        return 1
    with open(gate.DIGESTS, "w", encoding="utf-8") as fh:
        json.dump(dict(sorted(digests.items())), fh, indent=1)
        fh.write("\n")
    print(f"pinned {len(digests)} documents in {gate.DIGESTS.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
