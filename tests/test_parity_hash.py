import pytest

from conftest import parity_hash


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


def test_wide_seeds_take_a_comma_list_of_seeds_and_ranges():
    assert parity_hash._seed_range("7") == [7]
    assert parity_hash._seed_range("1-3,1193434553,2-4") == [1, 2, 3, 1193434553, 4]
    with pytest.raises(ValueError, match="empty seed range 5-3"):
        parity_hash._seed_range("1,5-3")
    with pytest.raises(ValueError):
        parity_hash._seed_range("1-x")


def _spectra(*fields, residual_tol=1e-8):
    """A tolerant summary of one group: fields of (lambdas, kinds), every residual 1e-13."""
    return {"residual_tol": residual_tol, "fields": [
        {"lambda": list(lams), "op_residual": [1e-13] * len(lams), "kinds": dict(kinds)}
        for lams, kinds in fields]}


def test_tolerant_mode_matches_phases_within_the_tolerance_across_zero(capsys):
    first = {"presets": _spectra(([0.5, 6.283185307179586 - 1e-13], {}), ([], {})),
             "cli": _spectra(([1.25], {"refine-nonconverged": 1}),)}
    moved = {"presets": _spectra(([2e-12, 0.5 + 9e-12], {}), ([], {})),
             "cli": _spectra(([1.25 - 5e-12], {"refine-nonconverged": 1}),)}
    assert parity_hash.tolerant_verdict([first, moved], 1e-11) == 0
    assert capsys.readouterr().out.split("\n")[1:-1] == ["presets   equal", "cli       equal"]


def test_tolerant_mode_lists_each_root_gained_or_lost(capsys):
    first = {"wide-5": _spectra(([0.5, 1.0], {}), ([2.0], {}))}
    change = {"wide-5": _spectra(([0.5, 1.0 + 1e-10], {}), ([2.0, 3.0], {}))}
    assert parity_hash.tolerant_verdict([first, change], 1e-11) == 1
    assert capsys.readouterr().out.split("\n")[1:-1] == [
        "wide-5    differs",
        "lost      wide-5 field 0 lambda=1.0 (checkout 1)",
        "gained    wide-5 field 0 lambda=1.0000000001 (checkout 1)",
        "gained    wide-5 field 1 lambda=3.0 (checkout 1)"]


def test_tolerant_mode_compares_diagnostic_kinds_and_residual_bounds(capsys):
    first = {"grover": _spectra(([1.0], {"residual-violation": 1}),),
             "chains": _spectra(([1.0], {}),), "presets": _spectra(([1.0], {}),)}
    change = {"grover": _spectra(([1.0], {"residual-violation": 2}),),
              "chains": _spectra(([1.0], {}), residual_tol=1e-14),
              "presets": _spectra(([1.0], {}),)}
    change["presets"]["fields"][0]["op_residual"] = [None]  # a NaN residual, as a cli file has it
    assert parity_hash.tolerant_verdict([first, change], 1e-11) == 1
    assert capsys.readouterr().out.split("\n")[1:-1] == [
        "grover    differs", "chains    differs", "presets   differs",
        "residual  chains field 0 lambda=1.0 op_residual=1e-13 (checkout 1)",
        "residual  presets field 0 lambda=1.0 op_residual=None (checkout 1)"]


def test_tolerant_mode_finds_a_missing_group_or_field(capsys):
    first = {"presets": _spectra(([1.0], {}),), "wide-7": _spectra(([1.0], {}),)}
    assert parity_hash.tolerant_verdict([first, {"presets": _spectra()}], 1e-11) == 1
    assert capsys.readouterr().out.split("\n")[1:-1] == ["presets   differs", "wide-7    differs"]


def test_tolerant_mode_compares_the_digest_groups_by_digest(capsys):
    first = {"presets": _spectra(([1.0], {}),), "dynamics": "d1", "files": "f1"}
    assert parity_hash.tolerant_verdict([first, dict(first)], 1e-11) == 0
    assert parity_hash.tolerant_verdict([first, {**first, "files": "f2"}], 1e-11) == 1
    assert parity_hash.tolerant_verdict([first, {"presets": first["presets"]}], 1e-11) == 1
    assert capsys.readouterr().out.split("\n")[-4:-1] == [
        "presets   equal", "dynamics  differs", "files     differs"]
