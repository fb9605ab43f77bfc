"""Reduced-size smoke check of the benchmark itself.

Usage, from the root of a checkout: python3 perfbench/smoke.py

For every workload, at reduced input sizes and one second of
measuring, it checks that an untraced and a traced run are correct and
report exactly the metrics BENCHMARK.json names. It then perturbs the
estimate in each EM and Gibbs report and checks that the output check
counts the jobs as failed, and that design.json's argv and input
digests match what the code builds. Exits 1 on the first failure.
"""

from __future__ import annotations

import copy
import json
import shutil
import sys
from pathlib import Path

import run
import workloads

SEED = 1


def _perturb(name: str, report: dict) -> None:
    if name == "fit_large":
        report["lambda_hat"] *= 1.01
    elif name == "replicate":
        report["estimators"]["em"]["lambda_mean"] *= 1.01
    else:
        report["posterior_mean"] += 10.0 * report["posterior_sd"]


def _expect(ok: bool, message: str) -> None:
    if not ok:
        print(f"smoke: FAILED {message}", file=sys.stderr)
        sys.exit(1)


def main() -> int:
    root = Path.cwd()
    bench = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    want = {0: {m["name"] for m in bench["end_to_end"]}, 1: {m["name"] for m in bench["per_layer"]}}
    _expect([w["name"] for w in bench["workloads"]] == list(workloads.NAMES),
            "BENCHMARK.json workloads differ from workloads.NAMES")

    for name in workloads.NAMES:
        for trace in (0, 1):
            r = run.run_once(root, name, SEED, 1.0, bool(trace), scale="small")
            _expect(r.failed == 0 and not r.problems, f"{name} trace {trace}: {r.problems}")
            _expect(set(r.metrics) == want[trace],
                    f"{name} trace {trace}: metrics {sorted(set(r.metrics) ^ want[trace])}")
            print(f"smoke: {name} trace {trace}: {len(r.result['jobs'])} jobs, "
                  f"{len(r.metrics)} metrics")
        if name in ("fit_large", "gibbs_heavy", "gibbs_light", "replicate"):
            bad = copy.deepcopy(r.result)
            report = json.loads(bad["warmup"]["stdout"])
            _perturb(name, report)
            bad["warmup"]["stdout"] = json.dumps(report)
            failed, problems = run.judge(r.workload, bad, root)
            _expect(failed == len(bad["jobs"]) and problems,
                    f"{name}: a perturbed estimate passed the check")
            print(f"smoke: {name}: perturbed estimate rejected ({problems[0][:80]})")

    ref = workloads.DESIGN["input_digests"]
    workdir = root / ".perfbench" / "smoke"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        for name in workloads.NAMES:
            w = workloads.build(name, ref["seed"], workdir)
            _expect(w.digest == ref[name], f"{name}: digest {w.digest} != {ref[name]}")
            argv = [a.replace("<seed>", str(ref["seed"]))
                    for a in workloads.DESIGN["workloads"][name]["argv"]]
            _expect(w.argv == argv, f"{name}: argv {w.argv} != design.json {argv}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print("smoke: all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
