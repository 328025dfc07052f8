import importlib.util
import json
from pathlib import Path

import pytest

from visim.cli import build_parser

ROOT = Path(__file__).resolve().parents[1]


def _tool(name):
    spec = importlib.util.spec_from_file_location(name, ROOT / "tools" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name, workload, expected", [
    # 9 of 10 pairs worse, but the medians differ by 0.27 parent IQRs
    ("BENCH_one_recovery.json", "entropy-game", "unresolved"),
    # 10 of 10 pairs better, by 1.72 parent IQRs
    ("BENCH_two_tier_stop.json", "restart-ball", "better"),
])
def test_bench_pairs_verdict_of_a_committed_file(name, workload, expected):
    doc = json.loads((ROOT / name).read_text(encoding="utf-8"))
    summary = _tool("bench_pairs").summarise(doc["runs"])
    assert summary[workload]["end_to_end"]["solve_s"]["verdict"] == expected


def test_csv_hashes_commands_parse():
    # every command the refactor oracle runs is one the CLI still takes
    parser = build_parser()
    for args in _tool("csv_hashes").COMMANDS:
        parsed = parser.parse_args([*args, "--out", "x"])
        assert parsed.subcommand == args[0] and parsed.out == "x"


def test_src_lines_parts_add_up_to_wc_l():
    tool = _tool("src_lines")
    paths = sorted(tool.SRC.glob("*.py"))
    assert paths
    for path in paths:
        counts = tool.line_counts(path.read_text())
        assert counts["lines"] == path.read_bytes().count(b"\n"), path.name
        assert sum(counts[p] for p in tool.PARTS) == counts["lines"], path.name
    # each kind of line once: a string that is not a first statement is
    # code, and a last line without a newline is not counted, as by wc -l
    text = ('"""Module."""\n\n# a comment\ndef f():\n    """Two\n    lines."""\n'
            '    x = 1  # code\n    """not a docstring"""\n    return x')
    assert tool.line_counts(text) == {
        "code": 3, "docstring": 3, "comment": 1, "blank": 1, "lines": 8}
