import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import zerolen
from zerolen.cli import main
from zerolen.verify import TARGETS


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv, "--json")
    return code, json.loads(out)


def test_lengths_command(capsys):
    code, payload = run_json(capsys, "lengths", "5", "(1)^5*(4)^5")
    assert code == 0
    assert payload == {"lengths": [2, 5], "delta": [3], "rho": "5/2", "min": 2, "max": 5}


def test_atoms_counts(capsys):
    code, payload = run_json(capsys, "atoms", "2x4")
    assert code == 0
    assert payload["counts"] == {"2": 5, "3": 9, "4": 16, "5": 8}
    assert payload["davenport"] == 5


def test_atoms_subset(capsys):
    code, payload = run_json(capsys, "atoms", "2x4", "--subset", "(1,0)^2;(0,1)")
    assert code == 0 and payload["counts"] == {"2": 1, "4": 1}


@pytest.mark.parametrize("subset", ["(1,0)*(0,1)", ";", "()", "(1,0);"])
def test_atoms_subset_terms_name_one_element(capsys, subset):
    assert main(["atoms", "2x4", "--subset", subset]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


def test_family_match_and_member(capsys):
    code, payload = run_json(capsys, "family", "match", "5", "--set", "2,5")
    assert code == 0 and payload["matches"]
    code, payload = run_json(capsys, "family", "member", "T46:L6", "--y", "0", "--k", "0")
    assert code == 0 and payload["member"] == [3, 5, 6]


def test_family_member_examples(capsys):
    for family_id, k, member in (
        ("T46:L6", 0, [3, 5, 6]),
        ("T46:L2", 0, [2, 4]),
        ("P33-C3C22", 1, [2, 3]),
        ("T48:L2", 1, [2, 5]),
        ("T47:L4", 1, [2, 4, 5]),
    ):
        code, payload = run_json(capsys, "family", "member", family_id, "--k", str(k))
        assert code == 0 and payload["member"] == member, family_id
    for argv, error in (
        (["T46:L5", "--k", "3"], "error: (y=0, k=3) outside the domain of T46: "),
        (["NOPE"], "error: unknown family 'NOPE' (branch None)\n"),
    ):  # an excluded parameter, an unknown family
        assert main(["family", "member", *argv]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith(error)


def test_family_witness_examples(capsys):
    # each witness, read back by the lengths command, realizes its member
    for family_id, group, lengths in (
        ("T46:L4", "5", [2, 5]),
        ("T47:L4", "2x4", [2, 4, 5]),
        ("T48:L2", "2x2x2x2", [2, 5]),
    ):
        code, payload = run_json(capsys, "family", "witness", family_id, "--k", "1")
        assert code == 0
        code, payload = run_json(capsys, "lengths", group, payload["witness"])
        assert code == 0 and payload["lengths"] == lengths, family_id
    assert main(["family", "witness", "NOPE"]) == 2
    err = capsys.readouterr().err
    assert err == "error: no witness for family 'NOPE' branch None at (y=0, k=0)\n"


def test_family_match_failure_exit_code(capsys):
    code, payload = run_json(capsys, "family", "match", "2x4", "--set", "2,5")
    assert code == 1 and payload["matches"] == []


def test_verify_pass(capsys):
    code, payload = run_json(capsys, "verify", "T46")
    assert code == 0
    assert payload["status"] == "pass"
    assert "seconds" not in payload  # suppressed under --json


def test_nm_commands(capsys):
    code, payload = run_json(capsys, "nm", "lengths", "2,3", "6")
    assert code == 0 and payload["lengths"] == [2, 3]
    code, payload = run_json(capsys, "nm", "invariants", "2,5")
    assert code == 0 and payload["elasticity"] == "5/2" and payload["min_delta"] == 3
    # a space after a comma is allowed (a space between digits is an error)
    assert run_json(capsys, "nm", "invariants", "2, 5") == (code, payload)
    code, payload = run_json(capsys, "nm", "verify-57", "2,5", "--case", "b2")
    assert code == 1 and payload["status"] == "hypothesis-not-met"


def test_text_output(capsys):
    code, out = run(capsys, "nm", "invariants", "2,3")
    assert code == 0
    assert out.splitlines() == [
        "monoid: <2,3>",
        "elasticity: 3/2",
        "min_delta: 1",
        "frobenius: 1",
    ]
    # outside --json a verification also reports its time and its nodes
    code, out = run(capsys, "verify", "T46")
    assert code == 0
    seconds, nodes = out.splitlines()[-2:]
    assert seconds.startswith("seconds: ") and nodes.startswith("nodes: ")


def test_intersect_of_c2_cubed_fits_a_million_nodes(capsys, monkeypatch):
    # C2^3 is swept to 4 * 9 = 36, one state per Aut(G)-orbit
    monkeypatch.setenv("ZEROLEN_MAX_NODES", "1000000")
    assert main(["intersect", "2x2x2"]) == 0
    assert capsys.readouterr().err == ""


def test_usage_errors(capsys):
    code = main(["lengths", "banana", "(1)"])
    assert code == 2
    code = main(["nope"])
    assert code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["system", "3", "--max-len", "-1"],
        ["delta-star", "3", "--max-len", "-1"],
        ["compare", "3", "4", "--max-len", "-1"],
        *(["verify", t, "--bound", "-1"] for t in TARGETS),
        ["nm", "verify-gap", "2,3", "--bound", "-5"],
        ["nm", "verify-56", "2,3;2,3", "--bound", "-1"],
        ["nm", "verify-57", "2,3", "--bound", "-1"],
    ],
    ids=" ".join,
)
def test_negative_bound_is_a_usage_error(capsys, argv):
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


_USAGE_ERRORS = [
    # (argv, the argument a rejected value is named by, or None)
    (["system"], None),
    (["family", "member"], None),
    (["nm", "lengths", "2,3"], None),
    (["lengths", "5", "(1)^5*(4)^5", "--bogus"], None),
    (["verify", "BOGUS"], "target"),
    (["nm", "verify-57", "2,3", "--case", "b9"], "--case"),
    (["rho-k", "5", "x"], "k"),
    (["system", "3", "--max-len", "x"], "--max-len"),
    (["family", "match", "5", "--set", "2,x"], "--set"),
    (["family", "match", "5", "--set", ","], "--set"),
    (["nm", "verify-56", "2,3;2,3", "--L", "2,x"], "--L"),
    (["nm", "lengths", "2,x", "7"], "gens"),
    (["nm", "verify-56", ";"], "gens"),
    (["nm", "invariants", "2 3"], "gens"),
    (["family", "match", "5", "--set", "2 5"], "--set"),
    (["lengths", "5", "(1,2,3)^5"], None),  # more coordinates than the rank
    (["atoms", "5", "--subset", "(1,9)"], None),
    (["system", ""], None),  # a spec with no cyclic order is not C1
]


@pytest.mark.parametrize(
    "argv, name", _USAGE_ERRORS, ids=[" ".join(argv) for argv, _ in _USAGE_ERRORS]
)
def test_every_usage_error_is_one_line(capsys, argv, name):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    if name:
        assert f"argument {name}: " in captured.err


def test_a_closed_stdout_ends_quietly():
    # the payload (117 kB) is larger than a pipe's buffer, so the command is
    # still writing when the reader closes the pipe
    argv = ["nm", "lengths", "2,3", "100000", "--json"]
    env = {**os.environ, "PYTHONPATH": str(Path(zerolen.__file__).parents[1])}
    proc = subprocess.Popen(
        [sys.executable, "-m", "zerolen.cli", *argv],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    )
    assert proc.stdout.read(10) == b'{"a": 1000'
    proc.stdout.close()
    _, err = proc.communicate(timeout=120)
    assert err == b""  # no traceback, no "Exception ignored" line
    assert proc.returncode == 0


def test_json_determinism(capsys):
    _, first = run(capsys, "system", "3", "--max-len", "8", "--json")
    _, second = run(capsys, "system", "3", "--max-len", "8", "--json")
    assert first == second


def test_node_budget_exit_code(capsys, monkeypatch):
    import zerolen.lengths

    # fresh engines, so that no memo filled by an earlier test answers the query
    zerolen.lengths.engine_for.cache_clear()
    monkeypatch.setenv("ZEROLEN_MAX_NODES", "10")
    code = main(["lengths", "5", "(1)^5*(2)^5*(3)^5*(4)^5"])
    err = capsys.readouterr().err
    assert code == 3
    assert err.startswith("error: ") and err.count("\n") == 1


def test_atom_enumeration_budget_exit_code(capsys, monkeypatch):
    import zerolen.atoms

    # a fresh catalog cache, so that C2^4 is enumerated under the budget
    zerolen.atoms._catalog.cache_clear()
    monkeypatch.setenv("ZEROLEN_MAX_NODES", "100")
    assert main(["atoms", "2x2x2x2"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


def test_delta_star_refuses_groups_past_order_16(capsys):
    assert main(["delta-star", "17"]) == 2
    assert capsys.readouterr().err == "error: delta_star needs |G| <= 16\n"


def test_family_usage_errors(capsys):
    assert main(["family", "match", "--set", "2,5"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert main(["family", "witness"]) == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["family", "list", "--set", "2,5"],
        ["family", "list", "--set", "2,5", "--y", "3", "--k", "9", "--group", "7"],
        ["family", "member", "T46:L6", "--group", "2x4", "--set", "1"],
        ["family", "witness", "T48:L3", "--set", "2,5"],
        ["family", "match", "5", "--set", "2,5", "--k", "1"],
        ["family", "match", "5", "T46:L4", "--set", "2,5"],
    ],
    ids=" ".join,
)
def test_family_actions_reject_options_they_do_not_read(capsys, argv):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert sum("error:" in line for line in captured.err.splitlines()) == 1


def test_family_match_takes_its_group_as_a_positional(capsys):
    code, payload = run_json(capsys, "family", "match", "2x4", "--set", "2,4,5")
    assert code == 0 and payload["group"] == "C2xC4"
    assert {"family": "T47", "branch": "L4", "y": 0, "k": 1} in payload["matches"]


@pytest.mark.parametrize(
    "groups, swept",
    [(["3", "3"], ["C3"]), (["4", "2x2"], ["C2xC2", "C4"])],
)
def test_intersection_prints_the_groups_it_swept(capsys, groups, swept):
    code, payload = run_json(capsys, "intersect", *groups)
    assert code == 0 and payload["groups"] == swept


def test_intersection_over_a_large_odd_prime(capsys):
    code, payload = run_json(capsys, "intersect", "3", "17")
    assert code == 0 and payload["unconfirmed"] == [] and [2, 3] in payload["sets"]
    code, payload = run_json(
        capsys, "family", "witness", "T36-INTERSECT", "--group", "17", "--k", "1"
    )
    assert code == 0 and payload["witness"] == "(1)^17*(2)^17"


@pytest.mark.parametrize(
    "argv",
    [
        ["nm", "lengths", "2,3", "20000"],
        ["nm", "verify-gap", "2,3", "--bound", "5000"],
        ["nm", "verify-56", "2,3;2,3;2,3", "--bound", "60"],
    ],
)
def test_numerical_budget_exit_code(capsys, monkeypatch, argv):
    monkeypatch.setenv("ZEROLEN_MAX_NODES", "1000")
    assert main(argv) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


_GAP_23 = {
    "beta": "10/9", "bound": 5000, "monoid": "<2,3>", "counterexamples": [],
    "status": "pass",
}
_57_FAILS = {"bound": 200, "extra": [], "missing": [], "status": "hypothesis-not-met"}


@pytest.mark.parametrize(
    "argv,code,payload",
    [
        (["verify-gap", "2,3", "--bound", "5000"], 0, {**_GAP_23, "checked": 4999}),
        (
            ["verify-gap", "2,5", "--bound", "5000"], 0,
            {"beta": "9/8", "bound": 5000, "checked": 4998, "counterexamples": [],
             "monoid": "<2,5>", "status": "pass"},
        ),
        (
            ["verify-gap", "3,4,5", "--bound", "5000"], 0,
            {**_GAP_23, "checked": 4998, "monoid": "<3,4,5>"},
        ),
        (
            ["verify-gap", "4,6", "--bound", "400"], 0,
            {**_GAP_23, "bound": 400, "checked": 199, "monoid": "<4,6>"},
        ),
        (
            ["verify-56", "2,3;2,3", "--bound", "160"], 0,
            {"L": [2, 3], "factors": ["<2,3>", "<2,3>"], "search_bound": 160,
             "status": "pass", "violations": [], "window": [16, 26], "y_L": 16},
        ),
        (
            ["verify-56", "2,3;2,3;2,3", "--bound", "40"], 0,
            {"L": [2, 3], "factors": ["<2,3>", "<2,3>", "<2,3>"], "search_bound": 40,
             "status": "pass", "violations": [], "window": [24, 34], "y_L": 24},
        ),
        (
            ["verify-57", "2,3", "--case", "b2"], 0,
            {"bound": 200, "case": "b2", "extra": [], "hypothesis_failures": [],
             "missing": [], "monoid": "<2,3>", "status": "pass"},
        ),
        (
            ["verify-57", "2,5", "--case", "b2"], 1,
            {**_57_FAILS, "case": "b2", "monoid": "<2,5>", "hypothesis_failures": [
                "elasticity 5/2 != 3/2", "min distance 3 != 1",
                "observed distances [3] != {1}", "[2,3] not realized up to the bound",
            ]},
        ),
        (
            ["verify-57", "2,3", "--case", "b3"], 1,
            {**_57_FAILS, "case": "b3", "monoid": "<2,3>", "hypothesis_failures": [
                "elasticity 3/2 != 5/2", "[2,5] not realized up to the bound",
            ]},
        ),
        (
            ["verify-57", "2,5", "--case", "b3"], 1,
            {**_57_FAILS, "case": "b3", "monoid": "<2,5>", "hypothesis_failures": [
                "min distance 3 != 1", "observed distances [3] != {1}",
                "[2,5] not realized up to the bound",
            ]},
        ),
    ],
)
def test_numerical_outputs_match_golden(capsys, argv, code, payload):
    assert run_json(capsys, "nm", *argv) == (code, payload)


@pytest.mark.parametrize(
    "argv",
    [
        ["nm", "lengths", "2,3", "7", "--bound", "1"],
        ["nm", "invariants", "2,5", "--case", "b3"],
        ["nm", "verify-gap", "2,3", "--L", "2,3"],
        ["nm", "verify-56", "2,3;2,3", "--case", "b2"],
    ],
    ids=" ".join,
)
def test_nm_actions_reject_options_they_do_not_read(capsys, argv):
    assert main(argv) == 2
    assert capsys.readouterr().out == ""


def test_rho_k_sweeps_a_group_without_a_catalog_under_the_budget(capsys, monkeypatch):
    # C7 has no witnesses, so rho_5 takes the sweep (exact value 15) even
    # though its size estimate is over the sweep limit; at 1000 nodes it stops
    monkeypatch.setenv("ZEROLEN_MAX_NODES", "1000")
    assert main(["rho-k", "7", "5"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


def test_intersection_names_the_uncertified_group(capsys):
    # the candidates come from the C5 sweep, so C5 certifies each of them;
    # a set outside the T36 branch is unconfirmed in C2xC4
    code, payload = run_json(capsys, "intersect", "5", "2x4", "--max-value", "6")
    assert code == 1 and len(payload["unconfirmed"]) == 10
    assert "[2, 3, 4] in (2, 4)" in payload["unconfirmed"]
    assert all(u.endswith(" in (2, 4)") for u in payload["unconfirmed"])


def test_intersection_sweeps_the_base_to_davenport_times_max(capsys):
    # [14, 21] = L((1)^21 (2)^21) over C3 needs a sequence of length 42
    code, payload = run_json(capsys, "intersect", "3", "5", "--max-value", "30")
    assert code == 0 and payload["unconfirmed"] == []
    assert [14, 15, 16, 17, 18, 19, 20, 21] in payload["sets"]
    assert max(L[-1] for L in payload["sets"]) == 30


def test_intersection_rejects_a_negative_max_value_by_name(capsys):
    assert main(["intersect", "3", "5", "--max-value", "-1"]) == 2
    assert capsys.readouterr().err == "error: max_value must be >= 0\n"
