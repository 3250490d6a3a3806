"""Every benchmark document keeps its pinned bytes.

Each document that `bench/workloads.candidates()` can produce is run through
`hfroots.cli.main`, as the benchmark runs it, and must match its sha256 in
`bench/digests.json` and pass `bench/gate.problems`.  Nothing under `bench/`
is written, except by `bench/run.py --quick`, which keeps its output under the
git-ignored `bench/_work/` and removes it.
"""

import importlib.util
import json
import os
import subprocess
import sys
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


def test_quick_run_passes():
    # the traced quick run is what calls the package the way bench/tracer.py
    # reads it: sublevel_root's fourth positional argument and
    # embedded_resolution.cache_info(); the tracer's laufer_sequence observer
    # finds no such function any more and reads 0
    run = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--quick"],
        cwd=BENCH.parent, capture_output=True, text=True, timeout=300,
    )
    assert run.returncode == 0, run.stdout + run.stderr


TRACED_RUN = """
import json, sys
from tracer import Tracer
tracer = Tracer()
main = tracer.install()
codes = []
for i, argv in enumerate(json.loads(sys.argv[1])):
    tracer.start_doc(i)
    codes.append(main(argv))
print(json.dumps({"codes": codes, "calls": tracer.summary()["calls"]}))
"""


def test_traced_documents_run(tmp_path):
    # bench/tracer.py needs hfroots.plumbing to import, embedded_resolution
    # to have cache_info() and sublevel_root's fourth argument to be a box;
    # the benchmark runs it only on demand, so this run keeps it working
    argvs = [
        ["verify", "--newton", "2,3", "--surgery", "3/1", "--oracle", "both", "--format", "json"],
        ["compute", "--newton", "4,5", "--surgery", "2/1", "--format", "json"],
        ["compute", "--newton", "4,5", "--surgery", "2/1", "--format", "svg"],
        ["verify", "--lens", "7/3"],
    ]
    argvs = [argv + ["--out", str(tmp_path / f"d{i}")] for i, argv in enumerate(argvs)]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(BENCH.parent / "src"), str(BENCH)])}
    run = subprocess.run(
        [sys.executable, "-c", TRACED_RUN, json.dumps(argvs)],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300,
    )
    assert run.returncode == 0, run.stderr
    result = json.loads(run.stdout)
    assert result["codes"] == [0, 0, 0, 0]
    for name in ("plumbing.sublevel_root", "plumbing.laufer_values", "root.module_from_tau"):
        assert result["calls"].get(name, 0) > 0, name
