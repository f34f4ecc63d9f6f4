"""The output bytes that a refactor must keep are pinned once, in
perfbench/golden.json; `python3 perfbench/checks.py` re-records it."""

import importlib.util
import json

from conftest import SAMPLES


def test_golden_outputs_match_the_record():
    path = SAMPLES.parent / "perfbench" / "checks.py"
    spec = importlib.util.spec_from_file_location("checks", path)
    checks = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(checks)
    recorded = json.loads(checks.GOLDEN_PATH.read_text(encoding="utf-8"))
    assert checks.golden_outputs(SAMPLES) == recorded
