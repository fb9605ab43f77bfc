"""Closed-loop client: one process, one thread, calling
yulesimon.cli.main(argv) one job after another.

Usage: python3 worker.py SPEC_JSON RESULT_JSON

The spec names the package's source directory, the job's argv and
output files, the measuring time and whether to trace. The first job
is an untimed warm-up whose output is the reference; every later job
must reproduce it byte for byte. In a traced run, measured jobs
alternate traced and untraced, so the same run gives the tracing
overhead. Each job is timed from outside main() with stdout and stderr
captured; hashing outputs, collecting garbage and timing the reference
loop (reference.py) happen between jobs, outside the timed region.
"""

from __future__ import annotations

import gc
import hashlib
import io
import json
import os
import resource
import sys
import time
import traceback
import warnings
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from reference import reference
from tracing import Tracer

# a program that fails instantly would otherwise fill memory with records
MAX_JOBS = 5000


def _run_job(main, argv, outputs):
    for name in outputs:  # so a job that writes nothing cannot pass on an old file
        Path(name).unlink(missing_ok=True)
    out, err = io.StringIO(), io.StringIO()
    error = None
    with redirect_stdout(out), redirect_stderr(err):
        start = time.perf_counter()
        try:
            rc = main(argv)
        except SystemExit as exc:
            rc = exc.code
        except Exception:  # the job fails, the client keeps running
            rc, error = None, traceback.format_exc()
        elapsed = time.perf_counter() - start
    h = hashlib.sha256(f"{rc}\0{out.getvalue()}\0{err.getvalue()}".encode())
    for name in outputs:
        try:
            h.update(Path(name).read_bytes())
        except OSError as exc:
            h.update(f"missing: {exc}".encode())
    return {"seconds": elapsed, "rc": rc, "digest": h.hexdigest(), "error": error,
            "stdout": out.getvalue(), "stderr": err.getvalue()}


def main() -> int:
    spec = json.loads(Path(sys.argv[1]).read_text(encoding="utf-8"))
    result_path = Path(sys.argv[2])
    os.chdir(spec["workdir"])
    # every job reports its own warnings, so outputs are comparable
    warnings.simplefilter("always")

    import yulesimon.cli

    home = Path(spec["src"]).resolve()
    if home not in Path(yulesimon.cli.__file__).resolve().parents:
        raise SystemExit(f"imported yulesimon from {yulesimon.cli.__file__}, not {home}")

    argv, outputs, trace = spec["argv"], spec["outputs"], spec["trace"]
    tracer = Tracer()
    gc.collect()
    warmup = _run_job(yulesimon.cli.main, argv, outputs)
    jobs = []
    traced_job_s = 0.0
    start = time.perf_counter()
    # a traced run alternates traced and untraced jobs, starting traced, and
    # stops no earlier than after one of each
    while len(jobs) < MAX_JOBS:
        if time.perf_counter() - start >= spec["seconds"] and (not trace or len(jobs) >= 2):
            break
        traced = trace and len(jobs) % 2 == 0
        gc.collect()
        ref_s = reference()
        if traced:
            tracer.job = len(jobs)
            tracer.install()
            try:
                job = _run_job(yulesimon.cli.main, argv, outputs)
            finally:
                tracer.restore()
            traced_job_s += job["seconds"]
        else:
            job = _run_job(yulesimon.cli.main, argv, outputs)
        del job["stdout"], job["stderr"]
        job["traced"] = traced
        job["ref_s"] = ref_s
        jobs.append(job)

    result = {
        "warmup": warmup,
        "jobs": jobs,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if trace:
        tracer.write_spans(spec["spans_path"])
        result.update(layers=tracer.layers(), counts=dict(tracer.counts),
                      traced_job_s=traced_job_s)
    result_path.write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
