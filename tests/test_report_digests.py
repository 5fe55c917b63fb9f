"""The parity-digest tool: one line, the same on every run of one checkout."""

import importlib.util
import re
from pathlib import Path

TOOL_PATH = Path(__file__).resolve().parents[1] / "tools" / "report_digests.py"


def test_digest_line_repeats_and_covers_the_grid():
    spec = importlib.util.spec_from_file_location("report_digests", TOOL_PATH)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    first = tool.report_digest(seeds=[0])
    assert tool.report_digest(seeds=[0]) == first
    reports, refused = re.fullmatch(
        r"(\d+) reports, (\d+) refused, sha256:[0-9a-f]{64}", first
    ).groups()
    # One seed: five lengths x five configurations, each rendered or refused.
    assert int(reports) + int(refused) == 25
    assert tool.report_digest(seeds=[]) != first
