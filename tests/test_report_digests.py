"""The parity-digest tool: a header and six lines, the same on every run of one checkout."""

import importlib.util
import re
from pathlib import Path

import numpy as np

TOOL_PATH = Path(__file__).resolve().parents[1] / "tools" / "report_digests.py"


def load_tool():
    spec = importlib.util.spec_from_file_location("report_digests", TOOL_PATH)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def test_digest_line_repeats_and_covers_the_grid():
    tool = load_tool()
    first, _ = tool.report_digest(seeds=[0])
    assert tool.report_digest(seeds=[0])[0] == first
    reports, refused = re.fullmatch(
        r"(\d+) reports, (\d+) refused, sha256:[0-9a-f]{64}", first
    ).groups()
    # One seed: five lengths x five configurations, each rendered or refused.
    assert int(reports) + int(refused) == 25
    assert tool.report_digest(seeds=[])[0] != first


def test_numbers_line_repeats_and_sees_each_seed():
    tool = load_tool()
    rendered, first = tool.report_digest(seeds=[0])
    assert tool.report_digest(seeds=[0]) == (rendered, first)
    assert re.fullmatch(r"numbers: sha256:[0-9a-f]{64}", first)
    assert tool.report_digest(seeds=[1])[1] != first
    assert tool.report_digest(seeds=[])[1] != first


def test_montecarlo_line_repeats_and_sees_each_run():
    tool = load_tool()
    runs = ((10, 60, 0), (11, 60, 3))
    first = tool.montecarlo_digest(runs)
    assert tool.montecarlo_digest(runs) == first
    assert re.fullmatch(r"montecarlo raw: 2 runs, sha256:[0-9a-f]{64}", first)
    assert tool.montecarlo_digest(runs[:1]) != first
    assert tool.montecarlo_digest(((10, 60, 1), runs[1])) != first


def test_ingest_line_repeats_and_counts_every_file():
    tool = load_tool()
    first = tool.ingest_digest(seeds=[0])
    assert tool.ingest_digest(seeds=[0]) == first
    files = re.fullmatch(r"ingest: (\d+) files, sha256:[0-9a-f]{64}", first).group(1)
    # Per length and schema: three byte layouts and five broken copies.
    assert int(files) == len(tool.LENGTHS) * 2 * (3 + 5)
    assert tool.ingest_digest(seeds=[1]) != first


def test_fmols_stack_line_repeats_and_sees_each_run():
    tool = load_tool()
    runs = ((3, 60, 0), (4, 60, 3))
    first = tool.fmols_stack_digest(runs)
    assert tool.fmols_stack_digest(runs) == first
    stacks = re.fullmatch(r"fmols stack: (\d+) stacks, sha256:[0-9a-f]{64}", first).group(1)
    # Per run: three deterministic configurations x three bandwidths.
    assert int(stacks) == len(runs) * 3 * len(tool.FMOLS_BANDWIDTHS)
    assert tool.fmols_stack_digest(runs[:1]) != first
    assert tool.fmols_stack_digest(((3, 60, 1), runs[1])) != first


def test_adf_stack_line_repeats_and_sees_each_run():
    tool = load_tool()
    runs = ((3, 60, 0), (4, 60, 3))
    first = tool.adf_stack_digest(runs)
    assert tool.adf_stack_digest(runs) == first
    stacks = re.fullmatch(r"adf stack: (\d+) stacks, sha256:[0-9a-f]{64}", first).group(1)
    # Per run: two series x two specs x two lag settings.
    assert int(stacks) == len(runs) * 2 * 2 * len(tool.ADF_LAGS)
    assert tool.adf_stack_digest(runs[:1]) != first
    assert tool.adf_stack_digest(((3, 60, 1), runs[1])) != first


def test_header_repeats_and_names_numpy_and_the_blas_core():
    tool = load_tool()
    first = tool.blas_header()
    assert tool.blas_header() == first
    version = re.fullmatch(r"numpy (\S+), openblas core \S+", first).group(1)
    assert version == np.__version__
