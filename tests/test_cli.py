"""End-to-end command line behavior through run(argv).

Text output lines are pinned exactly: they are the interface scripts
will scrape.  JSON paths are checked by parsing. Exit codes: 0 for
success, 1 for domain errors (message on stderr), 2 for usage errors.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from betticone import (
    bigraded_betti,
    bigraded,
    enumerate_box_rays,
    hk_pure_table,
    monomial_quotient,
    MonomialPair,
)
from betticone import cli
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


@pytest.mark.parametrize("entries, code, out, err", [
    ([{"i": 0, "j": 0, "b": "1"}, {"i": 1, "j": 0, "b": "1"}], 1,
     "residual: (0,0)=1 (1,0)=1\n",
     "error: projective dimension 1 != nvars 1000000000; "
     "greedy chain stuck\n"),
    ([], 0, "residual: empty\n", ""),
], ids=["two-entries", "empty"])
def test_decompose_with_huge_nvars_returns_at_once(tmp_path, entries, code,
                                                  out, err):
    obj = {"kind": "graded", "nvars": 10 ** 9, "entries": entries}
    path = _write(tmp_path, "huge.json", obj)
    proc = subprocess.run(
        [sys.executable, "-m", "betticone", "decompose", path],
        capture_output=True, text=True, timeout=60)
    assert (proc.returncode, proc.stdout, proc.stderr) == (code, out, err)


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


@pytest.mark.parametrize("box, count, swapped", [
    ("5,3", 327, 299), ("2,5", 85, 82), ("6,2", 133, 130),
    ("1,6", 21, 21), ("0,6", 0, 0)])
def test_bigraded_rays_summary_at_non_square_boxes(capsys, box, count,
                                                   swapped):
    assert run(["bigraded", "rays", "--box", box]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == \
        f"{count} rays up to scalar ({swapped} after swapping x and y)"


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

    k = 10**6
    far = dict(obj, rows=[[0, 0], [k, k]],
               cols=[[1, 0], [0, 1], [k + 1, k], [k, k + 1]])
    path = _write(tmp_path, "far.json", far)
    assert run(["resolve", path, "--check"]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "beta_0: (0,0) (1000000,1000000)",
        "beta_1: (0,1) (1,0) (1000000,1000001) (1000001,1000000)",
        "beta_2: (1,1) (1000001,1000001)",
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


def test_rays_guard_variable_must_be_nonnegative():
    with pytest.raises(ValueError,
                       match="max_box must be a nonnegative integer, got -1"):
        enumerate_box_rays((0, 0), max_box=-1)


@pytest.mark.parametrize("argv, message", [
    (["bigraded", "rays", "--box", "1e3,2"],
     "--box must be an integer, got '1e3'"),
    (["bigraded", "rays", "--box", "2,"],
     "--box must be an integer, got ''"),
    (["hk", "0,a"], "degrees must be an integer, got 'a'"),
    (["es-plan", "0,1.5,3"], "degrees must be an integer, got '1.5'"),
    (["bigraded", "rays", "--box", "3,3", "--max-box", "-3"],
     "--max-box must be a nonnegative integer, got -3"),
    (["bigraded", "rays", "--box", "-1,9"],
     "box corners must be nonnegative"),
])
def test_integer_list_errors_name_the_field(capsys, argv, message):
    assert run(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


@pytest.mark.parametrize("command, kind", [
    ("bigraded check", {"kind": "bigraded"}),
    ("decompose", {"kind": "graded", "nvars": 2}),
])
def test_entries_that_are_not_objects_are_rejected(tmp_path, capsys,
                                                   command, kind):
    path = _write(tmp_path, "scalar-entry.json", dict(kind, entries=[5]))
    assert run(command.split() + [path]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: entries must hold objects, got 5\n"


@pytest.mark.parametrize("command, degrees, last_line", [
    ("hk", "-1,0,2", "(-1,0,2) : 2 3 1"),
    ("es-plan", "-2,0,1", "ranks : 1 3 2"),
    ("hk", "-1", "(-1) : 1"),
])
def test_degree_list_may_start_negative(capsys, command, degrees, last_line):
    outputs = set()
    for argv in ([command, degrees], [command, "--", degrees],
                 [command, degrees, "--json"], [command, "--json", degrees],
                 [command, "--json", "--", degrees]):
        assert run(argv) == 0, argv
        captured = capsys.readouterr()
        assert captured.err == ""
        outputs.add(captured.out)
    # one text and one JSON rendering, whatever the argument order
    text, = [out for out in outputs if not out.startswith("{")]
    assert text.splitlines()[-1] == last_line
    assert len(outputs) == 2
    assert run([command, "-1,x"]) == 1
    assert capsys.readouterr().err == (
        "error: degrees must be an integer, got 'x'\n")


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
    ("bigraded check", {"kind": "bigraded", "entries": [
        {"i": True, "deg": [0, 0], "b": True},
        {"i": False, "deg": [0, 1], "b": True}]},
     "i must be an integer, got True"),
    ("bigraded check",
     {"kind": "bigraded", "entries": [{"i": 0, "deg": [0, 0], "b": True}]},
     "b must be an integer, got True"),
    ("decompose", {"kind": "graded", "nvars": 2,
                   "entries": [{"i": 0, "j": 0, "b": True}]},
     "b must be a rational number, got True"),
    ("resolve", dict(PACMAN_MODULE, entries=[
        [[[True, [3, 0]]], [], [], [["1", [0, 2]]]],
        [[], [["-1", [1, 0]]], [["1", [0, 2]]], []]]),
     "entries coefficient must be a rational number, got True"),
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


def test_package_runs_as_a_module():
    proc = subprocess.run(
        [sys.executable, "-m", "betticone", "hk", "0,1,3,5"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout == "(0,1,3,5) : 8 15 10 3\n"
    assert proc.stderr == ""


def test_one_process_runs_a_sequence_like_fresh_processes(tmp_path,
                                                          monkeypatch):
    """run reuses one parser; a sequence of subcommands in one process,
    usage errors in between, prints what each prints alone."""
    monkeypatch.setenv("COLUMNS", "80")
    table = _write(tmp_path, "square.json",
                   bigraded.bigraded_to_json_obj(bigraded_betti(
                       monomial_quotient(SQUARE_MODULE_PAIR))))
    sequence = [
        ["hk", "0,1,3,5"],
        ["hk"],
        ["bigraded", "rays", "--box", "2,2", "--json"],
        ["bigraded", "rays", "--box", "2,2", "--max-box", "x"],
        ["local", "check", "1,-1"],
        ["bigraded", "check", table, "--json"],
        ["resolve", str(tmp_path / "missing.json")],
        ["nonsense", "--json"],
        ["es-plan", "0,2,3"],
        ["bigraded", "--help"],
        ["version"],
    ]
    together = []
    for argv in sequence:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = run(argv)
        together.append((code, out.getvalue(), err.getvalue()))
    alone = []
    for argv in sequence:
        proc = subprocess.run([sys.executable, "-m", "betticone", *argv],
                              capture_output=True, text=True)
        alone.append((proc.returncode, proc.stdout, proc.stderr))
    assert together == alone
    assert [code for code, _, _ in together] == [0, 2, 0, 2, 1, 0, 1, 2,
                                                  0, 0, 0]


# --json writer: json.dumps(obj, indent=2) is the reference route and
# stays in the tests only.

class _Dict(dict):
    pass


class _List(list):
    pass


_TEXT = st.text(st.characters() | st.characters(categories=["Cs"])
                | st.sampled_from("\x00\x1f\x7f\"\\/ \U0001f600"),
                max_size=8)
_SCALARS = (st.none() | st.booleans() | _TEXT | st.floats()
            | st.integers(-10**30, 10**30)
            | st.sampled_from([float("nan"), float("inf"), float("-inf"),
                               -0.0]))
_KEYS = (_TEXT | st.none() | st.booleans() | st.integers(-10**30, 10**30)
         | st.floats())
_TREES = st.recursive(_SCALARS, lambda children: st.one_of(
    st.lists(children, max_size=4),
    st.lists(children, max_size=4).map(tuple),
    st.lists(children, max_size=4).map(_List),
    st.dictionaries(_KEYS, children, max_size=4),
    st.dictionaries(_TEXT, children, max_size=4).map(_Dict),
), max_leaves=30)


@settings(max_examples=300, deadline=None)
@given(_TREES)
def test_json_writer_matches_json_dumps(obj):
    assert cli._json_text(obj, "\n") == json.dumps(obj, indent=2)


_SHARED = (st.lists(_TREES, min_size=1, max_size=3)
           | st.lists(_TREES, min_size=1, max_size=3).map(tuple)
           | st.dictionaries(_TEXT, _TREES, min_size=1, max_size=3))


@settings(max_examples=100, deadline=None)
@given(_SHARED, _TREES)
def test_json_writer_matches_json_dumps_on_shared_objects(shared, other):
    """One container object twice at one depth and again one and two
    levels deeper: the writer may reuse its text only at the same
    indentation."""
    obj = [shared, other, shared, {"in": shared, "deeper": [shared]}]
    assert cli._json_text(obj, "\n") == json.dumps(obj, indent=2)


_ENTRY = {"i": 1, "deg": [2, 0], "b": 1}


@pytest.mark.parametrize("obj", [
    [{"x": _ENTRY}, [_ENTRY]],
    [[_ENTRY], {"x": _ENTRY}],
    [_ENTRY, [_ENTRY]],
    [[_ENTRY], _ENTRY],
], ids=["dict-value-then-element", "element-then-dict-value",
        "element-then-deeper", "deeper-then-element"])
def test_json_writer_reads_a_list_element_from_its_indentation(obj):
    """One dict as a dict value and as a list element at one
    indentation, in either order, where the list reads the kept text;
    and as a list element at two indentations, where it must not."""
    assert cli._json_text(obj, "\n") == json.dumps(obj, indent=2)


@pytest.mark.parametrize("obj", [
    Fraction(1, 2),
    [1, {"a": {2, 3}}],
    {(0, 1): 1},
    {"a": {b"key": 1}},
    _Dict({Fraction(1, 2): 1}),
], ids=["fraction", "set", "tuple-key", "bytes-key", "fraction-key"])
def test_json_writer_raises_where_json_dumps_does(obj):
    with pytest.raises(TypeError) as reference:
        json.dumps(obj, indent=2)
    with pytest.raises(TypeError) as got:
        cli._json_text(obj, "\n")
    assert str(got.value) == str(reference.value)


STUCK_TABLE = {
    "kind": "graded",
    "nvars": 2,
    "entries": [
        {"i": 0, "j": 0, "b": "1"},
        {"i": 1, "j": 1, "b": "3"},
        {"i": 1, "j": 3, "b": "1"},
        {"i": 2, "j": 2, "b": "3"},
    ],
}


@pytest.mark.parametrize("argv, code", [
    (["hk", "0,1,3,5"], 0),
    (["es-plan", "0,3,5,6"], 0),
    (["decompose", "{pure}"], 0),
    (["decompose", "{stuck}"], 1),
    (["local", "check", "3/2,3,3/2"], 0),
    (["local", "check", "1,1,1"], 0),
    (["local", "coeffs", "1,2,1"], 0),
    (["local", "limit", "--i", "0", "--j", "100", "--n", "2"], 0),
    (["bigraded", "check", "{mixed}"], 0),
    (["bigraded", "rays", "--box", "2,2"], 0),
    (["resolve", "{square}"], 0),
    (["resolve", "{square}", "--check"], 0),
    (["resolve", "{pacman}", "--check"], 0),
    (["version"], 0),
], ids=lambda v: " ".join(v) if isinstance(v, list) else None)
def test_every_json_path_prints_the_json_dumps_bytes(tmp_path, capsys,
                                                    argv, code):
    mixed = bigraded_betti(monomial_quotient(
        MonomialPair([(1, 0), (0, 1)], [(2, 0), (1, 2), (0, 3)])))
    files = {
        "pure": _write(tmp_path, "pure.json", graded_to_json_obj(
            hk_pure_table([0, 2, 3]).to_graded())),
        "stuck": _write(tmp_path, "stuck.json", STUCK_TABLE),
        "mixed": _write(tmp_path, "mixed.json",
                        bigraded.bigraded_to_json_obj(mixed)),
        "square": _write(tmp_path, "square.json", SQUARE_MODULE),
        "pacman": _write(tmp_path, "pacman.json", PACMAN_MODULE),
    }
    assert run([a.format(**files) for a in argv] + ["--json"]) == code
    out = capsys.readouterr().out
    assert out == json.dumps(json.loads(out), indent=2) + "\n"


def test_check_json_writes_a_mixed_support_failure(tmp_path, capsys):
    """The Koszul table of k plus beta_0 and beta_1 both at (2, 2): the
    two cancel in the K-polynomial, so the certificate runs, and the
    vertex (2, 2) mixes homological degrees 0 and 1."""
    entries = [(0, (0, 0)), (1, (1, 0)), (1, (0, 1)), (2, (1, 1)),
               (0, (2, 2)), (1, (2, 2))]
    path = _write(tmp_path, "mixed-vertex.json", {
        "kind": "bigraded",
        "entries": [{"i": i, "deg": list(deg), "b": 1}
                    for i, deg in entries]})
    assert run(["bigraded", "check", path, "--json"]) == 0
    out = capsys.readouterr().out
    obj = json.loads(out)
    assert out == json.dumps(obj, indent=2) + "\n"
    assert {"kind": "mixed-support", "subject": [2, 2],
            "detail": [0, 1]} in obj["failures"]


@pytest.mark.parametrize("box, digest", [
    ("3,3", "46b45a86332971217c0f9274c29a19abb378fee45143bb1e74fa26444fce7f47"),
    ("4,4", "befdce2792c407f7329c7c2bca960bf58004011b93a585b2c9b0dae46898b7c9"),
    ("5,3", "772e483c561a4f925e3ae9179b0199133256551d9c6f827e81127cc9c57f4550"),
    ("3,5", "1616b7b2c854a75a665fc82214162b7e4f0a99c33b4e5875da846e0fd39d11a5"),
    ("5,5", "b703f774c5285aa15bfdef6ea36d07e155fb4fa64eadb1a4274b907bee1a54bd"),
], ids=["3,3", "4,4", "5,3", "3,5", "5,5"])
def test_rays_json_bytes_are_pinned(capsys, box, digest):
    assert run(["bigraded", "rays", "--box", box, "--json"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("ascii")).hexdigest() == digest


def test_rays_json_matches_the_table_route(capsys):
    """--json writes from the listing's int codes; the reference
    route builds every ray table and writes it with json.dumps."""
    for b1 in range(6):
        for b2 in range(6):
            box = f"{b1},{b2}"
            assert run(["bigraded", "rays", "--box", box, "--json"]) == 0
            rays = enumerate_box_rays((b1, b2))
            assert capsys.readouterr().out == json.dumps({
                "box": [b1, b2],
                "count": len(rays),
                "count_up_to_swap": bigraded.count_up_to_swap(rays),
                "rays": [bigraded.bigraded_to_json_obj(t) for t in rays],
            }, indent=2) + "\n", box


def test_reader_closing_the_pipe_is_no_error():
    proc = subprocess.Popen(
        [sys.executable, "-m", "betticone", "bigraded", "rays", "--box",
         "4,4", "--json"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    # the listing is far longer than a pipe buffer, so the writer is
    # still writing when the reader goes away
    assert proc.stdout.readline() == b"{\n"
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert (proc.wait(timeout=60), err) == (1, b"")


# CLI fuzz.  Numbers stay in -1..4, and drawn text holds no digit, so
# that a drawn box, degree sequence or exponent runs in milliseconds:
# ray boxes, `es-plan 0,D`, `local limit --n N` and the module of a
# presentation grow with the integers they are given.

_SMALL = st.integers(-1, 4)
_WORDS = _TEXT.filter(lambda t: not any(c.isdigit() for c in t))
_INT = _SMALL.map(str)
_INTS = st.lists(_SMALL, min_size=1, max_size=5).map(
    lambda ns: ",".join(map(str, ns)))
_FRACS = st.lists(st.sampled_from(["0", "1", "2", "-1", "1/2", "3/2",
                                   "1/0"]),
                  min_size=1, max_size=5).map(",".join)
# Each command line, with a placeholder for each value it takes.
_ARGVS = [
    ["hk", _INTS], ["es-plan", _INTS], ["decompose", "FILE"],
    ["local", "check", _FRACS], ["local", "coeffs", _FRACS],
    ["local", "limit", "--i", _INT, "--j", _INT, "--n", _INT],
    ["bigraded", "check", "FILE"], ["bigraded", "rays", "--box", _INTS],
    ["resolve", "FILE"], ["version"], ["local"], ["bigraded"], [],
]


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    path = tmp_path_factory.mktemp("fuzz")
    (path / "table.json").write_text(json.dumps(STUCK_TABLE),
                                     encoding="utf-8")
    (path / "module.json").write_text(json.dumps(PACMAN_MODULE),
                                      encoding="utf-8")
    return path


def _fuzz_argv(data, fuzz_dir):
    files = st.sampled_from(["table.json", "module.json", "missing.json",
                             ""]).map(lambda name: str(fuzz_dir / name))
    # --dot writes a file, so it only ever comes with a path in
    # fuzz_dir, and drawn text never starts with "-" (argparse takes
    # prefixes of long options) or holds a "/".
    any_token = st.one_of(
        st.sampled_from(["--json", "--check", "--box", "--max-box", "--i",
                         "--j", "--n", "--help", "--", "1e3", "1.5", "a",
                         ""]).map(lambda t: [t]),
        st.one_of(_INT, _INTS, _FRACS, files).map(lambda t: [t]),
        _WORDS.filter(lambda t: not t.startswith("-") and "/" not in t)
        .map(lambda t: [t]),
        st.sampled_from(["g.dot", "missing/g.dot", ""]).map(
            lambda name: ["--dot", str(fuzz_dir / name)]),
    )
    argv = []
    for word in data.draw(st.sampled_from(_ARGVS)):
        if isinstance(word, str) and word != "FILE":
            argv.append(word)
        elif data.draw(st.integers(0, 4)):
            argv.append(data.draw(files if word == "FILE" else word))
        else:
            argv += data.draw(any_token)
    for _ in range(data.draw(st.sampled_from([0, 0, 1, 2]))):
        at = data.draw(st.integers(0, len(argv)))
        argv[at:at] = data.draw(any_token)
    return argv


def _run_quietly(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(argv)
    return code, err.getvalue()


@settings(max_examples=400, deadline=None)
@given(st.data())
def test_fuzzed_argv_never_escapes(fuzz_dir, data):
    argv = _fuzz_argv(data, fuzz_dir)
    code, err = _run_quietly(argv)
    assert code in (0, 1, 2), (argv, code)
    assert "Traceback" not in err, argv


# Complete command lines: the words before the values, then each value
# with its own strategy.  Lists may start with a negative number.
_SIGNED_FRACS = st.lists(st.sampled_from(["0", "1", "2", "-1", "1/2",
                                          "-1/2", "3/2", "1/0"]),
                         min_size=1, max_size=5).map(",".join)
_WELL_FORMED = [
    (["hk"], [_INTS]), (["es-plan"], [_INTS]),
    (["local", "check"], [_SIGNED_FRACS]),
    (["local", "coeffs"], [_SIGNED_FRACS]),
    (["local", "limit"], ["--i", _INT, "--j", _INT, "--n", _INT]),
    (["bigraded", "rays"], ["--box", _INTS]),
]


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_well_formed_argv_is_never_a_usage_error(data):
    """A valid command reaches the library: exit 0, or 1 with an error
    line, never 2.  --json goes right after the subcommand words or at
    the end; between `local` and `check` it is a usage error."""
    words, values = data.draw(st.sampled_from(_WELL_FORMED))
    values = [v if isinstance(v, str) else data.draw(v) for v in values]
    json_at = data.draw(st.sampled_from([None, "after words", "at end"]))
    argv = (words + ["--json"] * (json_at == "after words") + values
            + ["--json"] * (json_at == "at end"))
    code, err = _run_quietly(argv)
    assert code in (0, 1), (argv, code, err)
    if code == 1:
        assert err.startswith("error: "), (argv, err)


_JSON_LEAVES = (st.none() | st.booleans() | _SMALL | _WORDS
                | st.sampled_from([0.5, 2.0, -1.5, float("nan"),
                                   float("inf"), float("-inf"), "1",
                                   "-1/2", "1/0", "graded", "bigraded",
                                   "presentation", "monomial_quotient"]))
_JSON_KEYS = st.sampled_from(["kind", "nvars", "entries", "i", "j", "b",
                              "deg", "rows", "cols", "outer",
                              "inner"]) | _WORDS
_JSON = st.recursive(_JSON_LEAVES, lambda children: st.one_of(
    st.lists(children, max_size=4),
    st.dictionaries(_JSON_KEYS, children, max_size=4),
), max_leaves=20)

# Each valid input with the command that reads it.
_VALID_INPUTS = [
    (["decompose"], STUCK_TABLE),
    (["decompose"], graded_to_json_obj(hk_pure_table([0, 2, 3]).to_graded())),
    (["resolve"], SQUARE_MODULE),
    (["resolve", "--check"], PACMAN_MODULE),
    (["bigraded", "check"], {"kind": "bigraded", "entries": [
        {"i": 0, "deg": [0, 0], "b": 1}, {"i": 1, "deg": [0, 1], "b": 1},
        {"i": 1, "deg": [1, 0], "b": 1}, {"i": 2, "deg": [1, 1], "b": 1}]}),
]


def _mutated(data, obj):
    """obj with one node, picked by data, replaced by arbitrary JSON."""
    if isinstance(obj, (dict, list)) and obj and data.draw(
            st.integers(0, 4)):
        key = data.draw(st.sampled_from(
            list(obj) if isinstance(obj, dict) else range(len(obj))))
        copy = dict(obj) if isinstance(obj, dict) else list(obj)
        copy[key] = _mutated(data, obj[key])
        return copy
    return data.draw(_JSON_LEAVES if data.draw(st.booleans()) else _JSON)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_fuzzed_json_input_never_escapes(fuzz_dir, data):
    command, obj = data.draw(st.sampled_from(_VALID_INPUTS))
    for _ in range(data.draw(st.sampled_from([0, 1, 1, 2]))):
        obj = _mutated(data, obj)
    if not data.draw(st.integers(0, 3)):
        obj = data.draw(_JSON)
    if not data.draw(st.integers(0, 3)):
        command = data.draw(st.sampled_from(_VALID_INPUTS))[0]
    path = fuzz_dir / "input.json"
    path.write_text(json.dumps(obj), encoding="utf-8")
    argv = command + [str(path)] + data.draw(st.sampled_from(
        [[], ["--json"]]))
    code, err = _run_quietly(argv)
    assert code in (0, 1, 2), (obj, argv, code)
    assert "Traceback" not in err, (obj, argv)
