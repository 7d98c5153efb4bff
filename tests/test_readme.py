"""The README's library tour runs as written and prints what its comments say."""
import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_tour_runs_and_its_comments_hold():
    block = re.search(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.DOTALL)
    assert block is not None, "README.md has no python block"
    ns: dict = {}
    exec(compile(block.group(1), str(README), "exec"), ns)

    assert ns["entropy"](ns["partial_trace"](ns["bell"], "A")) == pytest.approx(1.0, abs=1e-9)
    kid = ns["kid"]
    assert [(b.dim_q, b.dim_n) for b in kid.blocks] == [(2, 1)]
    assert kid.s_c == pytest.approx(0.0, abs=1e-9)
    assert kid.s_q_given_c == pytest.approx(1.0, abs=1e-9)
    curve = ns["curve"]
    assert curve.c_q_endpoint == pytest.approx(0.531, abs=1e-3)
    assert curve.c_c_endpoint == pytest.approx(1.0, abs=1e-3)
    assert ns["report"].c_g == pytest.approx(1.0, abs=1e-9)
