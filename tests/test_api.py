"""The public surface: exported names, the names the benchmark's tracer
wraps, and the README's library example."""

import importlib
import importlib.util
import re
from pathlib import Path

import yulesimon

ROOT = Path(__file__).resolve().parent.parent


def test_every_exported_name_resolves():
    missing = [name for name in yulesimon.__all__ if not hasattr(yulesimon, name)]
    assert missing == []


def test_every_traced_name_exists_in_its_module():
    # perfbench/tracing.py wraps these by name; a prune that drops one
    # breaks the traced benchmark runs
    spec = importlib.util.spec_from_file_location("_tracing", ROOT / "perfbench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = [
        f"{mod}.{fn}"
        for mod, fns in tracing.TRACED.items()
        for fn in fns
        if not callable(getattr(importlib.import_module(f"yulesimon.{mod}"), fn, None))
    ]
    assert missing == []
    assert len(tracing.SPAN_NAMES) == 27


def test_readme_library_example_runs(capsys):
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"```python\n(.*?)```", readme, flags=re.DOTALL)
    assert len(blocks) == 1
    exec(compile(blocks[0], "README.md", "exec"), {})
    lam_hat, se, iterations = capsys.readouterr().out.split()
    assert abs(float(lam_hat) - 0.6) < 0.1
    assert float(se) > 0.0
    assert int(iterations) >= 1
