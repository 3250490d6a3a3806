"""Every benchmark document keeps its pinned bytes.

Each document that `bench/workloads.candidates()` can produce is run through
`hfroots.cli.main`, as the benchmark runs it, and must match its sha256 in
`bench/digests.json` and pass `bench/gate.problems`.  Nothing under `bench/`
is written.
"""

import importlib.util
from pathlib import Path

from hfroots.cli import main

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_candidate_matches_its_pin(tmp_path):
    gate, workloads = _load("gate"), _load("workloads")
    digests = gate.load_digests()
    docs = workloads.candidates()
    keys = [workloads.doc_key(doc) for doc in docs]
    assert sorted(keys) == sorted(digests)
    failures = []
    for i, (doc, key) in enumerate(zip(docs, keys)):
        out = tmp_path / f"d{i}.{'svg' if doc['kind'] == 'svg' else 'json'}"
        code = main(doc["argv"] + ["--out", str(out)])
        issues = gate.problems(doc["kind"], key, code, out, digests)
        if issues:
            failures.append(f"{key}: {'; '.join(issues)}")
    assert failures == []
