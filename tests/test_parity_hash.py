import importlib.util
from pathlib import Path

_spec = importlib.util.spec_from_file_location(
    "parity_hash", Path(__file__).resolve().parents[1] / "tools" / "parity_hash.py")
parity_hash = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(parity_hash)


def test_the_verdict_names_each_group_equal_or_differing(capsys):
    first = {"presets": "a1", "wide-3": "b2", "cli": "c3"}
    assert parity_hash.verdict([first, dict(first), dict(first)]) == 0
    assert capsys.readouterr().out.split("\n")[1:-1] == [
        "presets   equal", "wide-3    equal", "cli       equal"]
    assert parity_hash.verdict([first, {**first, "cli": "c4"}, dict(first)]) == 1
    assert capsys.readouterr().out.split()[-2:] == ["cli", "differs"]


def test_a_group_missing_from_a_checkout_differs(capsys):
    assert parity_hash.verdict([{"presets": "a1", "wide-7": "d4"}, {"presets": "a1"}]) == 1
    assert capsys.readouterr().out.split("\n")[1:-1] == ["presets   equal", "wide-7    differs"]
