import importlib.util

from conftest import REPO_ROOT


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
