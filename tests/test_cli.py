"""End-to-end command line behavior through run(argv).

Text output lines are pinned exactly: they are the interface scripts
will scrape.  JSON paths are checked by parsing. Exit codes: 0 for
success, 1 for domain errors (message on stderr), 2 for usage errors.
"""

from __future__ import annotations

import json
import subprocess
import sys

import pytest

from betticone import (
    bigraded_betti,
    bigraded,
    hk_pure_table,
    monomial_quotient,
    MonomialPair,
)
from betticone.cli import run
from betticone.tables import graded_to_json_obj

SQUARE_MODULE = {
    "kind": "monomial_quotient",
    "outer": [[0, 0]],
    "inner": [[2, 0], [1, 1], [0, 2]],
}

SQUARE_MODULE_PAIR = MonomialPair([(0, 0)], [(2, 0), (1, 1), (0, 2)])

PACMAN_MODULE = {
    "kind": "presentation",
    "rows": [[0, 0], [1, 1]],
    "cols": [[3, 0], [2, 1], [1, 3], [0, 2]],
    "entries": [
        [[["1", [3, 0]]], [], [], [["1", [0, 2]]]],
        [[], [["-1", [1, 0]]], [["1", [0, 2]]], []],
    ],
}


def _write(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(json.dumps(obj), encoding="utf-8")
    return str(path)


def test_hk_text_output(capsys):
    assert run(["hk", "0,1,3,5"]) == 0
    assert capsys.readouterr().out == "(0,1,3,5) : 8 15 10 3\n"


def test_hk_json_output(capsys):
    assert run(["hk", "0,3,5,6", "--json"]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["kind"] == "pure"
    assert obj["degrees"] == [0, 3, 5, 6]
    assert obj["mult"] == [1, 5, 9, 5]


def test_hk_domain_error(capsys):
    assert run(["hk", "0,0,1"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: degrees must be strictly increasing\n"


def test_hk_malformed_numbers(capsys):
    assert run(["hk", "0,two,3"]) == 1
    assert capsys.readouterr().err.startswith("error:")


def test_usage_errors():
    assert run([]) == 2
    assert run(["no-such-command"]) == 2


def test_es_plan_text(capsys):
    assert run(["es-plan", "0,4,5,6"]) == 0
    out = capsys.readouterr().out
    assert "P^3(+0)" in out
    assert out.rstrip().endswith("ranks : 1 15 24 10")
    assert "F_0" in out and "F_3" in out


def test_es_plan_json(capsys):
    assert run(["es-plan", "0,3,5,6", "--json"]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["ranks"] == [4, 20, 36, 20]
    assert obj["gaps"] == [2, 1, 0]
    assert obj["factors"] == [
        {"dim": 2, "twist_base": 0},
        {"dim": 1, "twist_base": 3},
    ]
    assert [r["survivor"] for r in obj["rows"]].count(True) == 4


def test_decompose_success(tmp_path, capsys):
    total = hk_pure_table([0, 1, 3, 5]).to_graded().add(
        hk_pure_table([0, 3, 5, 6]).to_graded())
    path = _write(tmp_path, "table.json", graded_to_json_obj(total))
    assert run(["decompose", path]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out == [
        "1 × (0,1,3,5)/(8,15,10,3)",
        "1 × (0,3,5,6)/(1,5,9,5)",
        "residual: empty",
    ]


def test_decompose_failure_prints_partial(tmp_path, capsys):
    obj = {
        "kind": "graded",
        "nvars": 2,
        "entries": [
            {"i": 0, "j": 0, "b": "1"},
            {"i": 1, "j": 1, "b": "3"},
            {"i": 1, "j": 3, "b": "1"},
            {"i": 2, "j": 2, "b": "3"},
        ],
    }
    path = _write(tmp_path, "stuck.json", obj)
    assert run(["decompose", path]) == 1
    captured = capsys.readouterr()
    assert captured.out.splitlines() == [
        "1 × (0,1,2)/(1,2,1)",
        "residual: (1,1)=1 (1,3)=1 (2,2)=2",
    ]
    assert "greedy chain stuck" in captured.err


def test_decompose_rejects_non_candidate(tmp_path, capsys):
    obj = {
        "kind": "graded",
        "nvars": 2,
        "entries": [{"i": 0, "j": 0, "b": "1"}, {"i": 1, "j": 1, "b": "1"}],
    }
    path = _write(tmp_path, "bad.json", obj)
    assert run(["decompose", path]) == 1
    err = capsys.readouterr().err
    assert "Herzog-Kuhl" in err


def test_decompose_json_reports_completeness(tmp_path, capsys):
    total = hk_pure_table([0, 2, 3]).to_graded()
    path = _write(tmp_path, "pure.json", graded_to_json_obj(total))
    assert run(["decompose", path, "--json"]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["complete"] is True
    assert obj["parts"] == [
        {"c": "1", "degrees": [0, 2, 3], "mult": [1, 3, 2]}]
    assert obj["residual"] == []


def test_local_check_inside(capsys):
    assert run(["local", "check", "1,2,1"]) == 0
    assert capsys.readouterr().out == "INSIDE c=(1,1)\n"


def test_local_check_boundary_and_outside(capsys):
    assert run(["local", "check", "1,1,0"]) == 0
    assert capsys.readouterr().out == "BOUNDARY c=(1,0)\n"
    assert run(["local", "check", "1,1,1"]) == 0
    assert capsys.readouterr().out == "OUTSIDE\n"


def test_local_check_accepts_fractions(capsys):
    assert run(["local", "check", "3/2,3,3/2", "--json"]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["verdict"] == "Inside"
    assert obj["coefficients"] == ["3/2", "3/2"]


def test_local_coeffs(capsys):
    assert run(["local", "coeffs", "1,2,1"]) == 0
    assert capsys.readouterr().out == "(1,1)\n"


def test_local_coeffs_off_hyperplane(capsys):
    assert run(["local", "coeffs", "1,1,1"]) == 1
    assert capsys.readouterr().err.startswith("error:")


@pytest.mark.parametrize("argv", [
    ["local", "check", "1/0,1"],
    ["local", "coeffs", "1,1/0"],
])
def test_local_zero_denominator_is_reported(capsys, argv):
    assert run(argv) == 1
    err = capsys.readouterr().err
    assert err == "error: vector must be a rational number, got '1/0'\n"


def test_local_limit(capsys):
    assert run(["local", "limit", "--i", "0", "--j", "100", "--n", "2"]) == 0
    assert capsys.readouterr().out == "(0,1,101) : 1 101/100 1/100\n"


def test_local_limit_degenerate(capsys):
    assert run(["local", "limit", "--i", "0", "--j", "1", "--n", "2"]) == 1
    assert capsys.readouterr().err.startswith("error:")


def test_bigraded_check_extremal(tmp_path, capsys):
    table = bigraded_betti(monomial_quotient(SQUARE_MODULE_PAIR))
    path = _write(tmp_path, "sq.json", bigraded.bigraded_to_json_obj(table))
    assert run(["bigraded", "check", path]) == 0
    assert capsys.readouterr().out == "ExtremalByClaim3\n"


def test_bigraded_check_failures_and_dot(tmp_path, capsys):
    table = bigraded_betti(monomial_quotient(
        MonomialPair([(1, 0), (0, 1)], [(2, 0), (1, 2), (0, 3)])))
    path = _write(tmp_path, "mix.json", bigraded.bigraded_to_json_obj(table))
    dot_path = tmp_path / "graph.dot"
    assert run(["bigraded", "check", path, "--dot", str(dot_path)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "Inconclusive"
    assert "  x-valency at (1, 0): 3" in out
    dot = dot_path.read_text(encoding="utf-8")
    assert dot.startswith("graph matching {")
    assert "style=dashed" in dot


def test_bigraded_check_infinite_length(tmp_path, capsys):
    obj = {"kind": "bigraded", "entries": [
        {"i": 0, "deg": [0, 0], "b": 1},
        {"i": 1, "deg": [1, 0], "b": 1},
    ]}
    path = _write(tmp_path, "nfl.json", obj)
    assert run(["bigraded", "check", path]) == 1
    assert "not divisible" in capsys.readouterr().err


def test_bigraded_rays_box_one(capsys):
    assert run(["bigraded", "rays", "--box", "1,1"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out == [
        "[  0] 0:(0,0) 1:(0,1) 1:(1,0) 2:(1,1)",
        "1 rays up to scalar (1 after swapping x and y)",
    ]


def test_bigraded_rays_json(capsys):
    assert run(["bigraded", "rays", "--box", "2,2", "--json"]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["count"] == 11
    assert obj["count_up_to_swap"] == 8
    assert len(obj["rays"]) == 11


def test_bigraded_rays_guard(capsys):
    assert run(["bigraded", "rays", "--box", "9,9"]) == 1
    assert capsys.readouterr().err.startswith("error:")
    # an explicit override widens the guard without touching the env
    assert run(["bigraded", "rays", "--box", "2,2", "--max-box", "2"]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[-1] == \
        "11 rays up to scalar (8 after swapping x and y)"


def test_resolve_text_with_check(tmp_path, capsys):
    path = _write(tmp_path, "sq.json", SQUARE_MODULE)
    assert run(["resolve", path, "--check"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out == [
        "beta_0: (0,0)",
        "beta_1: (0,2) (1,1) (2,0)",
        "beta_2: (1,2) (2,1)",
        "ExtremalByClaim3",
    ]


def test_resolve_presentation_json(tmp_path, capsys):
    path = _write(tmp_path, "pac.json", PACMAN_MODULE)
    assert run(["resolve", path, "--json"]) == 0
    obj = json.loads(capsys.readouterr().out)
    entries = {(e["i"], tuple(e["deg"])): e["b"] for e in obj["entries"]}
    assert entries[(2, (3, 2))] == 1
    assert entries[(2, (2, 3))] == 1
    assert entries[(0, (0, 0))] == 1
    assert entries[(0, (1, 1))] == 1


def test_resolve_two_distant_residue_fields(tmp_path, capsys):
    """Rows (0,0) and (10,10), each killed by x and y: the table needs
    the second row's relations, far outside any small scan box."""
    obj = {
        "kind": "presentation",
        "rows": [[0, 0], [10, 10]],
        "cols": [[1, 0], [0, 1], [11, 10], [10, 11]],
        "entries": [
            [[["1", [1, 0]]], [["1", [0, 1]]], [], []],
            [[], [], [["1", [1, 0]]], [["1", [0, 1]]]],
        ],
    }
    path = _write(tmp_path, "two.json", obj)
    assert run(["resolve", path, "--check"]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "beta_0: (0,0) (10,10)",
        "beta_1: (0,1) (1,0) (10,11) (11,10)",
        "beta_2: (1,1) (11,11)",
        "Inconclusive",
        "  disconnected: 2",
    ]


def test_resolve_writes_dot(tmp_path, capsys):
    path = _write(tmp_path, "sq.json", SQUARE_MODULE)
    dot_path = tmp_path / "sq.dot"
    assert run(["resolve", path, "--dot", str(dot_path)]) == 0
    capsys.readouterr()
    assert dot_path.read_text(encoding="utf-8").startswith("graph matching {")


def test_resolve_infinite_module(tmp_path, capsys):
    obj = {"kind": "monomial_quotient", "outer": [[0, 0]], "inner": [[1, 0]]}
    path = _write(tmp_path, "inf.json", obj)
    assert run(["resolve", path]) == 1
    assert capsys.readouterr().err.startswith("error:")


def test_resolve_missing_file(capsys):
    assert run(["resolve", "/nonexistent/module.json"]) == 1
    assert capsys.readouterr().err.startswith("error:")


def test_resolve_deeply_nested_json(tmp_path, capsys):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100000, encoding="utf-8")
    assert run(["resolve", str(path)]) == 1
    err = capsys.readouterr().err
    assert err == f"error: {path}: JSON nested too deeply\n"


def test_rays_guard_variable_must_be_an_integer(monkeypatch, capsys):
    monkeypatch.setenv("BETTICONE_MAX_BOX", "abc")
    assert run(["bigraded", "rays", "--box", "2,2"]) == 1
    err = capsys.readouterr().err
    assert err == "error: BETTICONE_MAX_BOX must be an integer, got 'abc'\n"


@pytest.mark.parametrize("argv, message", [
    (["bigraded", "rays", "--box", "1e3,2"],
     "--box must be an integer, got '1e3'"),
    (["bigraded", "rays", "--box", "2,"],
     "--box must be an integer, got ''"),
    (["hk", "0,a"], "degrees must be an integer, got 'a'"),
    (["es-plan", "0,1.5,3"], "degrees must be an integer, got '1.5'"),
    (["bigraded", "rays", "--box", "3,3", "--max-box", "-3"],
     "--max-box must be a nonnegative integer, got -3"),
])
def test_integer_list_errors_name_the_field(capsys, argv, message):
    assert run(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


def test_misnamed_json_key_is_reported_by_name(tmp_path, capsys):
    obj = {"kind": "bigraded", "entries": [{"i": 0, "a": [0, 0], "b": "1"}]}
    path = _write(tmp_path, "badkey.json", obj)
    assert run(["bigraded", "check", path]) == 1
    assert capsys.readouterr().err == "error: missing key 'deg' in input file\n"


@pytest.mark.parametrize("command, obj, field", [
    ("bigraded check", [1, 2], "bigraded table object"),
    ("resolve", [1, 2], "module object"),
    ("decompose", [1, 2], "graded table object"),
    ("bigraded check",
     {"kind": "bigraded", "entries": [{"i": 0, "deg": 5, "b": 1}]}, "deg"),
    ("bigraded check", {"kind": "bigraded", "entries": 5}, "entries"),
    ("resolve", {"kind": "monomial_quotient", "outer": [[0, 0]], "inner": 5},
     "inner"),
    ("resolve", {"kind": "monomial_quotient", "outer": [[0, [0]]],
                 "inner": [[1, 0], [0, 1]]}, "outer"),
    ("resolve", dict(PACMAN_MODULE, rows=[[0, 0], 1]), "rows"),
    ("resolve", dict(PACMAN_MODULE, cols=7), "cols"),
    ("resolve", dict(PACMAN_MODULE, entries=[[5]]), "entries"),
    ("resolve", dict(PACMAN_MODULE, entries=[[[["1", 3]]]]), "entries"),
    ("bigraded check",
     {"kind": "bigraded", "entries": [{"i": [0], "deg": [0, 0], "b": 1}]},
     "i must be an integer"),
    ("bigraded check",
     {"kind": "bigraded", "entries": [{"i": 1.5, "deg": [0, 0], "b": 1}]},
     "i must be an integer"),
    ("resolve", dict(PACMAN_MODULE, entries=[
        [[[[1], [3, 0]]], [], [], [["1", [0, 2]]]],
        [[], [["-1", [1, 0]]], [["1", [0, 2]]], []]]),
     "entries coefficient must be a rational number"),
    ("decompose", {"kind": "graded", "nvars": 2,
                   "entries": [{"i": 0, "j": 0, "b": "1/0"}]},
     "b must be a rational number"),
    ("decompose", {"kind": "graded", "nvars": 2, "entries": 5},
     "entries must be a list"),
])
def test_malformed_json_shape_is_reported_by_field(tmp_path, capsys,
                                                   command, obj, field):
    path = _write(tmp_path, "bad.json", obj)
    assert run(command.split() + [path]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and field in err
    assert "Traceback" not in err


def test_version(capsys):
    assert run(["version"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("betticone ")
    assert run(["version", "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["name"] == "betticone"


def test_console_script_is_installed():
    proc = subprocess.run(
        [sys.executable, "-m", "betticone.cli", "hk", "0,1,2"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout == "(0,1,2) : 1 2 1\n"
