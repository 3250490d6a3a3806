"""One repetition of a workload, in a fresh interpreter.

Usage: python worker.py [JOB.json]

Imports `hfroots.cli`, then writes "ready" on stdout so that the parent can
time the set-up.  Without a job it exits there.  With one it calls
`hfroots.cli.main` once per document, in order, each writing its `--out`
file before the next starts, and writes the latencies, exit codes and peak
RSS to the job's result path.  Before the first document and after each one
it times the calibration task (`calibration.py`) for a tenth of the
document's latency, outside the latencies; so the calibrations sample the
repetition evenly in time.  With `trace` set, the layers are wrapped by
`tracer.Tracer` after the set-up, and the spans are written out at the end.
"""

import sys

import hfroots.cli

sys.stdout.write("ready\n")
sys.stdout.flush()

import json  # noqa: E402
import resource  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402

from calibration import calibrate_for  # noqa: E402

CAL_SHARE = 0.1  # calibration time per second of document latency


def run(job: dict) -> dict:
    tracer = None
    main = hfroots.cli.main
    if job["trace"]:
        from tracer import Tracer

        tracer = Tracer()
        main = tracer.install()
    latencies, codes, errors = [], [], []
    clock = time.perf_counter
    cals = [calibrate_for(0.01)]
    for i, argv in enumerate(job["argvs"]):
        if tracer is not None:
            tracer.start_doc(i)
        t0 = clock()
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejects malformed arguments this way
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # a crash is one failed document, not a failed run
            code = -1
            errors.append([i, traceback.format_exc(limit=3)])
        latencies.append(clock() - t0)
        codes.append(code)
        cals.append(calibrate_for(CAL_SHARE * latencies[-1]))
    result = {
        "latencies_s": latencies,
        "cals_s": cals,
        "codes": codes,
        "errors": errors,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer is not None:
        result["trace"] = tracer.summary()
        if job.get("spans_path"):
            tracer.dump(job["spans_path"])
    return result


if __name__ == "__main__" and len(sys.argv) > 1:
    with open(sys.argv[1], encoding="utf-8") as fh:
        job = json.load(fh)
    result = run(job)
    with open(job["result_path"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)
