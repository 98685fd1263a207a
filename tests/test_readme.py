"""The README's Python examples run as written and state true values."""

import ast
import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_python_blocks_run_and_their_comments_hold():
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"), re.M | re.S)
    assert len(blocks) == 3
    namespace = {}
    for block in blocks:  # in order, in one namespace, as a reader would type them
        exec(compile(block, str(README), "exec"), namespace)
    # the "code  # value" lines of the library tour: 0.81, PCR5's 0.495 / 0.495 / 0.01, BetP 0.5 / 0.5
    stated = dict(re.findall(r"^(\S.*?)\s+# (.*)$", blocks[0], re.M))
    assert sorted(stated) == ["fused = pcr5_combine(m1, m2)", "pignistic(fused)", "total_conflict(m1, m2)"]
    assert "%g" % eval("total_conflict(m1, m2)", namespace) == stated["total_conflict(m1, m2)"] == "0.81"
    assert str(namespace["fused"]) == "{%s}" % stated["fused = pcr5_combine(m1, m2)"]
    assert eval("pignistic(fused)", namespace) == pytest.approx(
        ast.literal_eval(stated["pignistic(fused)"]), abs=1e-12)
