import re
import runpy
from pathlib import Path

import pytest

from omrouter.config import parse_config
from omrouter.steady import solve_steady_state

DEMOS = Path(__file__).resolve().parents[1] / "demos"


def run_demo(name, tmp_path, monkeypatch, capsys):
    # demos write their files (router_spectra.csv, plots) to the working
    # directory
    monkeypatch.chdir(tmp_path)
    runpy.run_path(str(DEMOS / name), run_name="__main__")
    return capsys.readouterr().out


@pytest.mark.parametrize("name", sorted(p.name for p in DEMOS.glob("*.py")))
def test_demo_runs(name, tmp_path, monkeypatch, capsys):
    assert run_demo(name, tmp_path, monkeypatch, capsys)


def test_branches_demo_lists_every_root(tmp_path, monkeypatch, capsys):
    out = run_demo("steady_state_branches.py", tmp_path, monkeypatch, capsys)
    listed = re.findall(r"^  \[\d+\] q = ", out, flags=re.MULTILINE)
    state = solve_steady_state(parse_config(env={}).system_params())
    assert len(listed) == len(state.branches)
    assert f"force balance has {len(state.branches)} real roots" in out
