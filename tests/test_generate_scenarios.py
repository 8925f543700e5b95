import importlib.util
import json

from conftest import DATA_DIR, REPO_ROOT, SCENARIO_DIR
from rtorch.scenario import parse_scenario


def _generator_module():
    spec = importlib.util.spec_from_file_location(
        "generate_scenarios", REPO_ROOT / "scripts" / "generate_scenarios.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_generator_reproduces_the_bundled_files_byte_for_byte(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr("sys.argv", ["generate_scenarios.py", "--scenario-dir", str(tmp_path / "scenarios"),
                                     "--data-dir", str(tmp_path / "data")])
    _generator_module().main()
    capsys.readouterr()
    generated = sorted(p.name for p in (tmp_path / "scenarios").iterdir())
    assert generated == sorted(p.name for p in SCENARIO_DIR.glob("*.json"))
    for name in generated:
        text = (tmp_path / "scenarios" / name).read_bytes()
        assert text == (SCENARIO_DIR / name).read_bytes(), name
        parse_scenario(json.loads(text))
    csv = "camera_runtimes.csv"
    assert (tmp_path / "data" / csv).read_bytes() == (DATA_DIR / csv).read_bytes()
