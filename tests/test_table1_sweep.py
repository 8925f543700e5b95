import importlib.util
import json

import pytest

from conftest import REPO_ROOT, SCENARIO_DIR


def _sweep_module():
    spec = importlib.util.spec_from_file_location("table1_sweep", REPO_ROOT / "scripts" / "table1_sweep.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_sweep_prints_one_row_per_unit_count_and_tips_at_ten(monkeypatch, capsys):
    sweep = _sweep_module()
    monkeypatch.setattr("sys.argv", ["table1_sweep.py", "--duration-us", "1000000"])
    sweep.main()
    header, *rows = capsys.readouterr().out.splitlines()
    assert header == "units & AVG & SKW & SD_MX & misses"
    assert [int(row.split(" & ")[0]) for row in rows] == list(range(4, 11))
    misses = {int(row.split(" & ")[0]): int(row.split(" & ")[-1]) for row in rows}
    assert all(misses[n] == 0 for n in range(4, 10)), misses
    assert misses[10] > 0, misses


def test_sweep_places_tasks_as_simulate_does_and_rejects_in_one_line(tmp_path, monkeypatch, capsys):
    """Without an ``initial_plan`` first fit places the tasks; ten units fit on no CPU."""
    for n in range(4, 11):
        scenario = json.loads((SCENARIO_DIR / f"table1_{n}units.json").read_text())
        del scenario["initial_plan"]  # one CPU: first fit puts every unit where the plan does
        (tmp_path / f"table1_{n}units.json").write_text(json.dumps(scenario))
    sweep = _sweep_module()
    monkeypatch.setattr("sys.argv", ["table1_sweep.py", "--duration-us", "200000"])
    assert sweep.main() == 0
    planned = capsys.readouterr().out.splitlines()
    monkeypatch.setattr("sys.argv", ["table1_sweep.py", "--duration-us", "200000", "--scenario-dir", str(tmp_path)])
    assert sweep.main() == 1
    captured = capsys.readouterr()
    assert captured.out.splitlines() == planned[:-1]  # units 4 to 9
    assert captured.err.startswith(f"error: {tmp_path / 'table1_10units.json'}: task '")
    assert captured.err.endswith("' admits on no resource\n")
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize("duration", ["0", str(2**53 + 1)])
def test_sweep_rejects_a_duration_outside_the_scenario_range_before_any_run(duration, monkeypatch, capsys):
    sweep = _sweep_module()
    monkeypatch.setattr(sweep, "run_sim", None)  # any run would fail with a TypeError
    monkeypatch.setattr("sys.argv", ["table1_sweep.py", "--duration-us", duration])
    assert sweep.main() == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: --duration-us: expected integer in [1, 2**53], got {duration}\n"
