"""Input files, element literals and the command line driver.

CLI tests call main() in process and capture stdout/stderr; one
subprocess run at the end confirms the module entry point works outside
the test harness.  Every command is run twice on every fixture to pin
down byte determinism.
"""

import hashlib
import json
import math
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import DATA
from hyperq import cli
from hyperq.errors import SchemaError
from hyperq.extnat import INF
from hyperq.io import (
    format_complex,
    format_element,
    load_input,
    parse_element,
    parse_input,
)

NAMES6 = tuple(f"a{i}" for i in range(6))


# ---------------------------------------------------------------------------
# loading


def test_load_action_input():
    spec, digest = load_input(str(DATA / "trivial2.json"))
    assert spec.kind == "action"
    assert spec.name == "trivial2"
    assert spec.action.n_points == 2
    raw = (DATA / "trivial2.json").read_bytes()
    assert digest == hashlib.sha256(raw).hexdigest()[:12]
    _, again = load_input(str(DATA / "trivial2.json"))
    assert digest == again


def test_load_abstract_input():
    spec, _ = load_input(str(DATA / "delta_abstract.json"))
    assert spec.kind == "abstract"
    W = spec.weighted
    assert W.base.arrow_names == ("1", "d")
    assert W.left == (1, 2)
    assert W.right == (1, 2)


def test_weight_overrides_replace_derived_values():
    obj = json.loads((DATA / "delta_abstract.json").read_text())
    obj["left"] = {"d": "inf"}
    spec = parse_input(obj)
    assert spec.weighted.left == (1, INF)
    assert spec.weighted.right == (1, 2)
    obj["left"] = {"d": -1}
    with pytest.raises(SchemaError):
        parse_input(obj)


def _delta_obj():
    return json.loads((DATA / "delta_abstract.json").read_text())


def test_schema_violations_are_schema_errors():
    bad_cases = []

    obj = _delta_obj(); obj["schema"] = "hyperq/2"; bad_cases.append(obj)
    obj = _delta_obj(); del obj["kind"]; bad_cases.append(obj)
    obj = _delta_obj(); obj["kind"] = "group"; bad_cases.append(obj)
    obj = _delta_obj(); del obj["name"]; bad_cases.append(obj)
    obj = _delta_obj(); obj["arrows"][1]["name"] = "1"; bad_cases.append(obj)
    obj = _delta_obj(); obj["comp"][0]["left"] = "zz"; bad_cases.append(obj)
    obj = _delta_obj(); obj["comp"].append(dict(obj["comp"][0])); bad_cases.append(obj)
    obj = _delta_obj(); obj["mu"].append(dict(obj["mu"][0])); bad_cases.append(obj)
    obj = _delta_obj(); obj["mu"][0]["value"] = -1; bad_cases.append(obj)
    obj = _delta_obj(); obj["mu"][0]["value"] = 1.5; bad_cases.append(obj)
    obj = _delta_obj(); obj["mu"][0]["value"] = True; bad_cases.append(obj)
    obj = _delta_obj(); obj["mu"][0]["value"] = "infinity"; bad_cases.append(obj)
    obj = _delta_obj(); obj["unit_arrows"] = {}; bad_cases.append(obj)
    obj = _delta_obj(); obj["arrows"][0]["src"] = "f"; bad_cases.append(obj)
    bad_cases.append(["not", "an", "object"])

    obj = {"schema": "hyperq/1", "kind": "action", "name": "x",
           "points": 2, "generators": [[0, "1"]]}
    bad_cases.append(obj)

    for case in bad_cases:
        with pytest.raises(SchemaError):
            parse_input(case)


def test_invalid_json_file(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text("{not json")
    with pytest.raises(SchemaError, match="not valid JSON"):
        load_input(str(p))


# ---------------------------------------------------------------------------
# element literals


def test_parse_element_basics():
    assert parse_element("", NAMES6) == {}
    assert parse_element("0", NAMES6) == {}
    assert parse_element("[a3]", NAMES6) == {3: Fraction(1)}
    assert parse_element("2*[a3] + 1/2*[a0]", NAMES6) == \
        {3: Fraction(2), 0: Fraction(1, 2)}
    assert parse_element("-[a1]", NAMES6) == {1: Fraction(-1)}
    assert parse_element("[a0]+[a0]", NAMES6) == {0: Fraction(2)}
    assert parse_element("[a0] - [a0]", NAMES6) == {}


def test_parse_element_rejections():
    with pytest.raises(SchemaError):
        parse_element("[zz]", NAMES6)
    with pytest.raises(SchemaError):
        parse_element("2*[a0] 3*[a1]", NAMES6)   # missing sign
    with pytest.raises(SchemaError):
        parse_element("inf*[a0]", NAMES6)
    with pytest.raises(SchemaError):
        parse_element("junk", NAMES6)


@pytest.mark.parametrize("text, term", [
    ("1/0*[a0]", "1/0*[a0]"),
    ("0/0*[a1]", "0/0*[a1]"),
    ("[a0] - 7/00*[a2]", "-7/00*[a2]"),
])
def test_parse_element_refuses_a_zero_denominator(text, term):
    for allow_inf in (False, True):
        with pytest.raises(SchemaError) as exc:
            parse_element(text, NAMES6, allow_inf=allow_inf)
        assert str(exc.value) == f"zero denominator in term {term!r}"


def test_parse_element_extended_naturals():
    assert parse_element("inf*[a0] + 3*[a1]", NAMES6, allow_inf=True) == \
        {0: INF, 1: 3}
    with pytest.raises(SchemaError):
        parse_element("-inf*[a0]", NAMES6, allow_inf=True)
    with pytest.raises(SchemaError):
        parse_element("1/2*[a0]", NAMES6, allow_inf=True)
    with pytest.raises(SchemaError):
        parse_element("-2*[a0]", NAMES6, allow_inf=True)


def test_format_element():
    assert format_element({}, NAMES6) == "0"
    assert format_element({3: Fraction(2), 0: Fraction(1, 2)}, NAMES6) == \
        "1/2*[a0] + 2*[a3]"
    assert format_element({1: Fraction(-1)}, NAMES6) == "-1*[a1]"
    assert format_element({0: Fraction(1), 1: Fraction(-2)}, NAMES6) == \
        "1*[a0] - 2*[a1]"
    assert format_element({0: INF, 1: 0}, NAMES6) == "inf*[a0]"


coeffs = st.fractions(min_value=-50, max_value=50, max_denominator=12).filter(bool)


@settings(max_examples=150, deadline=None)
@given(elem=st.dictionaries(st.integers(0, 5), coeffs, max_size=6))
def test_element_literals_round_trip(elem):
    text = format_element(elem, NAMES6)
    assert parse_element(text, NAMES6) == elem


def test_format_complex():
    assert format_complex(1 - 2j) == "1.000000000000-2.000000000000j"
    assert format_complex(0.5 + 0.25j) == "0.500000000000+0.250000000000j"
    # tiny negatives round to a clean zero, never -0
    assert format_complex(-1e-15 - 1e-15j) == "0.000000000000+0.000000000000j"


# ---------------------------------------------------------------------------
# command line


FILES = {
    "trivial2": DATA / "trivial2.json",
    "s3_regular": DATA / "s3_regular.json",
    "s3_cosets": DATA / "s3_cosets.json",
    "s3_mixed": DATA / "s3_mixed.json",
    "delta_abstract": DATA / "delta_abstract.json",
}


@pytest.fixture()
def run(capsys):
    def _run(*args):
        rc = cli.main([str(a) for a in args])
        captured = capsys.readouterr()
        return rc, captured.out, captured.err
    return _run


def test_atoms_table(run):
    rc, out, err = run("atoms", FILES["s3_regular"])
    assert rc == 0 and err == ""
    assert "command: atoms" in out
    assert "units: u0" in out
    lines = out.splitlines()
    assert sum(1 for ln in lines if ln.startswith("a")) == 6


def test_atoms_json_payload(run):
    rc, out, _ = run("atoms", FILES["trivial2"], "--format", "json")
    assert rc == 0
    obj = json.loads(out)
    assert obj["tool"] == "hyperq"
    assert obj["command"] == "atoms"
    assert obj["units"] == ["u0", "u1"]
    assert len(obj["atoms"]) == 4
    assert obj["digest"] == load_input(str(FILES["trivial2"]))[1]
    # sorted keys make the byte stream canonical
    assert out == json.dumps(obj, indent=2, sort_keys=True) + "\n"


def test_algebra_reports_weights_and_constants(run):
    rc, out, _ = run("algebra", FILES["s3_mixed"], "--format", "json")
    assert rc == 0
    obj = json.loads(out)
    by_id = {rec["id"]: rec for rec in obj["weights"]}
    assert by_id["a9"] == {"id": "a9", "left": 1, "right": 2, "chi": "1/2"}
    assert by_id["a0"]["chi"] == "1"
    assert all(rec["value"] != 0 for rec in obj["mu"])


def test_check_passes_on_the_regular_action(run):
    rc, out, err = run("check", FILES["s3_regular"])
    assert rc == 0 and err == ""
    assert "mode:" not in out
    for name in ("Q1", "Q9", "HG3", "murel-3"):
        assert name in out
    assert "216 atom triples" in out


def test_check_exhaustive_mode(run):
    # the legacy flag still parses; the one exact check runs at any size
    for key in ("trivial2", "s3_mixed"):
        rc, out, err = run("check", FILES[key], "--exhaustive")
        assert rc == 0 and err == "", key
        assert "mode:" not in out
    rc, out, _ = run("check", FILES["s3_mixed"], "--exhaustive", "--format", "json")
    assert "mode" not in json.loads(out)


def test_check_fails_on_broken_associativity_law(run):
    rc, out, err = run("check", DATA / "hg3_mutated.json", "--samples", "200")
    assert rc == 1
    assert err.startswith("check failed:")
    assert "HG3" in err


def test_check_names_hypergroupoid_counterexamples(run):
    # arrow 1 is s and arrow 0 the identity 1: HG3 fails at (1, 0, 1)
    rc, out, _ = run("check", DATA / "hg3_mutated.json")
    assert rc == 1
    assert "HG3    FAIL    (s, 1, s)" in out.splitlines()
    rc, out, _ = run("check", DATA / "hg3_mutated.json", "--format", "json")
    hg3 = json.loads(out)["hypergroupoid"][2]
    assert hg3["name"] == "HG3" and hg3["counterexample"] == ["s", "1", "s"]
    # HG1's counterexample is a unit and an arrow
    H = cli.Context(str(DATA / "hg3_mutated.json")).base
    assert cli._hg_names(H, (0, 1)) == [H.unit_names[0], "s"]


def test_check_fails_on_inconsistent_constants(run):
    rc, _, err = run("check", DATA / "bad_mu.json", "--samples", "200")
    assert rc == 1
    assert "murel-3" in err


def test_check_json_reports_failures(run):
    rc, out, _ = run("check", DATA / "bad_mu.json", "--samples", "200",
                     "--format", "json")
    assert rc == 1
    obj = json.loads(out)
    assert obj["ok"] is False
    failed = [r["name"] for r in obj["weights"] if not r["passed"]]
    assert failed == ["murel-3"]


def test_kms_holds_for_derived_weights(run):
    rc, out, err = run("kms", FILES["s3_mixed"], "--format", "json")
    assert rc == 0 and err == ""
    obj = json.loads(out)
    assert obj["ok"] is True
    assert obj["checked"] == 14 * 14


def test_kms_detects_broken_weights(run):
    rc, out, err = run("kms", DATA / "kms_bad.json")
    assert rc == 1
    assert err == "check failed: kms\n"
    assert "failures: 1" in out


@pytest.mark.parametrize("name, undefined, checked", [
    ("hg3_mutated", ["s", "t"], 3),   # s and t have zero right weight
    ("inf_abstract", ["w"], 2),       # w has an infinite left weight
])
def test_kms_fails_where_chi_is_undefined(run, name, undefined, checked):
    rc, out, err = run("kms", DATA / f"{name}.json")
    assert rc == 1
    assert err == f"check failed: kms (chi undefined at {', '.join(undefined)})\n"
    assert f"chi undefined: {', '.join(undefined)}" in out
    assert f"checked pairs: {checked}" in out
    rc, out, err = run("kms", DATA / f"{name}.json", "--format", "json")
    assert rc == 1 and err.startswith("check failed: kms")
    obj = json.loads(out)
    assert obj["chi_undefined"] == undefined
    assert obj["checked"] == checked
    assert obj["ok"] is False and obj["failures"] == []


def test_evolve_fixed_values(run):
    rc, out, _ = run("evolve", FILES["s3_mixed"], "--t", "0",
                     "--element", "[a9]")
    assert rc == 0
    assert "1.000000000000+0.000000000000j" in out

    import math
    t = math.pi / math.log(2)
    rc, out, _ = run("evolve", FILES["s3_mixed"], "--t", str(t),
                     "--element", "[a9]", "--format", "json")
    assert rc == 0
    obj = json.loads(out)
    assert obj["terms"] == [{"id": "a9", "value": "-1.000000000000+0.000000000000j"}]


def test_literals_with_a_leading_minus(run):
    # a separate value starting with '-' is a literal, not an option
    base = ("evolve", FILES["s3_cosets"], "--format", "json")
    rc, separate, err = run(*base, "--t", "-1e-3", "--element", "-1*[a1] + 2*[a0]")
    assert rc == 0, err
    rc, joined, err = run(*base, "--t=-1e-3", "--element=-1*[a1] + 2*[a0]")
    assert rc == 0, err
    assert separate == joined
    obj = json.loads(separate)
    assert obj["t"] == -0.001
    assert obj["element"] == "2*[a0] - 1*[a1]"

    # convolve reads them too, then refuses the negative coefficient
    for argv in (("--f", "-1*[w]", "--g", "-2*[w]"), ("--f=-1*[w]", "--g=-2*[w]")):
        rc, _, err = run("convolve", DATA / "inf_abstract.json", *argv)
        assert rc == 2
        assert err == "input error: coefficients must be nonnegative integers here\n"

    # a missing value is still a usage error
    with pytest.raises(SystemExit) as exc:
        cli.main(["evolve", str(FILES["s3_cosets"]), "--t", "1", "--element", "--format"])
    assert exc.value.code == 2


@pytest.mark.parametrize("fmt", ["table", "json"])
@pytest.mark.parametrize("t, word", [
    # float() reads the first four, but JSON has no NaN or Infinity
    ("nan", "finite float"), ("inf", "finite float"), ("-inf", "finite float"),
    ("1e309", "finite float"), ("abc", "float"),
])
def test_evolve_refuses_a_time_that_is_not_finite(capsys, t, word, fmt):
    with pytest.raises(SystemExit) as exc:
        cli.main(["evolve", str(FILES["s3_cosets"]), "--t", t, "--element=1*[a1]",
                  "--format", fmt])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.endswith(
        f"hyperq evolve: error: argument --t: invalid {word} value: '{t}'\n")


def test_convolve_with_infinite_values(run):
    rc, out, _ = run("convolve", DATA / "inf_abstract.json",
                     "--f", "inf*[w]", "--g", "[w]", "--format", "json")
    assert rc == 0
    obj = json.loads(out)
    assert obj["terms"] == [{"id": "i", "value": "inf"},
                            {"id": "w", "value": "inf"}]


def test_site_hom_counts(run):
    rc, out, _ = run("site", FILES["trivial2"], "--format", "json")
    assert rc == 0
    obj = json.loads(out)
    assert obj["objects"] == [[], ["a0"], ["a3"], ["a0", "a3"]]
    assert obj["hom_counts"] == [[1, 1, 1, 1], [0, 1, 1, 2],
                                 [0, 1, 1, 2], [0, 1, 1, 4]]


@pytest.mark.parametrize("command, extra", [
    ("atoms", []), ("algebra", []), ("check", []), ("kms", []), ("site", []),
    ("evolve", ["--t", "1", "--element", "[a1]"]),
    ("convolve", ["--f", "[a1]", "--g", "[a1]"]),
])
def test_a_directory_is_an_input_error(run, tmp_path, command, extra):
    # the read fails with IsADirectoryError; a PermissionError takes the
    # same path, but a test running as root cannot provoke it
    rc, out, err = run(command, tmp_path, *extra)
    assert (rc, out) == (2, "")
    assert err == f"input error: [Errno 21] Is a directory: {str(tmp_path)!r}\n"


def test_error_exits_are_code_two(run, tmp_path):
    rc, _, err = run("atoms", tmp_path / "missing.json")
    assert rc == 2 and err.startswith("input error:")

    bad = tmp_path / "bad.json"
    bad.write_text("{]")
    rc, _, err = run("atoms", bad)
    assert rc == 2 and "not valid JSON" in err

    rc, _, err = run("evolve", FILES["s3_regular"], "--t", "1",
                     "--element", "[zz]")
    assert rc == 2 and err.startswith("input error:")

    # the trivial group on 5 points has 6 ** 5 compatible atom sets,
    # past the site gate
    trivial5 = tmp_path / "trivial5.json"
    trivial5.write_text(json.dumps({"schema": "hyperq/1", "kind": "action",
                                    "name": "trivial5", "points": 5, "generators": []}))
    rc, _, err = run("site", trivial5)
    assert rc == 2 and err.startswith("error: site enumeration gated at ")

    # 30 units with only their identities: 2 ** 30 objects, refused before
    # any object is built
    units = [f"e{i}" for i in range(30)]
    many = tmp_path / "many_units.json"
    many.write_text(json.dumps({
        "schema": "hyperq/1", "kind": "abstract", "name": "many_units", "units": units,
        "arrows": [{"name": u, "src": u, "tgt": u, "star": u} for u in units],
        "unit_arrows": {u: u for u in units},
        "comp": [{"left": u, "right": u, "result": [u]} for u in units],
        "mu": [{"a": u, "g": u, "gp": u, "value": 1} for u in units]}))
    rc, _, err = run("site", many)
    assert rc == 2 and err.startswith("error: site enumeration gated at 4096 objects")


def test_legacy_check_flags_do_not_change_the_output(run):
    for path in (FILES["s3_mixed"], DATA / "hg3_mutated.json"):
        for fmt in ("table", "json"):
            plain = run("check", path, "--format", fmt)
            for flags in (("--exhaustive",), ("--samples", "100", "--seed", "3"),
                          ("--samples", "0")):
                assert run("check", path, "--format", fmt, *flags) == plain, flags


def test_usage_problems_exit_two():
    with pytest.raises(SystemExit) as exc:
        cli.main(["atoms"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        cli.main(["--version"])
    assert exc.value.code == 0


def _all_invocations():
    for key, path in FILES.items():
        for fmt in ("table", "json"):
            yield ("atoms", str(path), "--format", fmt)
            yield ("algebra", str(path), "--format", fmt)
            yield ("check", str(path), "--samples", "200", "--seed", "1",
                   "--format", fmt)
            yield ("kms", str(path), "--format", fmt)
            elem = "[d]" if key == "delta_abstract" else "[a1]"
            yield ("evolve", str(path), "--t", "0.7", "--element", elem,
                   "--format", fmt)
            yield ("convolve", str(path), "--f", f"2*{elem}", "--g", elem,
                   "--format", fmt)
            yield ("site", str(path), "--format", fmt)


def test_every_command_is_byte_deterministic(run):
    for argv in _all_invocations():
        first = run(*argv)
        second = run(*argv)
        assert first == second, argv
        assert first[0] == 0, (argv, first[2])


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "hyperq.cli", "atoms", str(FILES["trivial2"])],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert "command: atoms" in proc.stdout


def test_no_warnings_in_development_mode(tmp_path):
    # each call in a fresh interpreter that turns every warning into an error
    path = str(FILES["s3_cosets"])
    # degree 1: the permutation composers take their short path
    point = tmp_path / "degree1.json"
    point.write_text(json.dumps({
        "schema": "hyperq/1", "kind": "coset", "name": "degree1", "degree": 1,
        "group_generators": [[0]], "subgroups": [{"name": "e", "generators": [[0]]}]}))
    calls = [
        *([command, path] for command in ("atoms", "algebra", "check", "kms", "site")),
        ["evolve", path, "--t", "1", "--element", "[a1]"],
        ["convolve", path, "--f", "[a1]", "--g", "2*[a1]"],
        ["--version"],
        ["algebra", str(FILES["trivial2"]), "--format", "json"],
        # two units: the mu table's g blocks are written out of row order
        ["algebra", str(FILES["s3_mixed"])],
        ["check", str(point)],
        # abstract tables: the mu dict turned into the value column
        ["kms", str(FILES["delta_abstract"])],
        ["algebra", str(DATA / "inf_abstract.json"), "--format", "json"],
        ["bogus"],
        ["evolve", path, "--element", "[a1]"],  # no --t
    ]
    procs = [subprocess.Popen(
        [sys.executable, "-X", "dev", "-W", "error", "-m", "hyperq.cli", *argv],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True) for argv in calls]
    errs = [proc.communicate()[1] for proc in procs]
    assert [proc.returncode for proc in procs] == [0] * 13 + [2, 2]
    for argv, err in zip(calls, errs):
        assert "Warning" not in err and "Traceback" not in err, (argv, err)


def _drop_last_comp(obj):
    obj["comp"].pop()


def _drop_last_mu(obj):
    obj["mu"].pop()


def _star_not_an_involution(obj):
    obj["arrows"][0]["star"] = "d"


def _left_array(obj):
    obj["left"] = [1, 2]


def _right_array(obj):
    obj["right"] = [1, 2]


@pytest.mark.parametrize("flags", [[], ["-O"]])
@pytest.mark.parametrize("change, message", [
    pytest.param(_drop_last_comp,
                 "invalid abstract input: missing composition set for (1,1)",
                 id="incomplete_comp"),
    pytest.param(_drop_last_mu,
                 "invalid abstract input: mu missing entry (1,1,1)",
                 id="incomplete_mu"),
    pytest.param(_star_not_an_involution,
                 "invalid abstract input: star must be an involution",
                 id="star_not_an_involution"),
    pytest.param(_left_array, "field 'left' must be dict, got list", id="left_array"),
    pytest.param(_right_array, "field 'right' must be dict, got list", id="right_array"),
])
def test_malformed_abstract_inputs_exit_two(tmp_path, flags, change, message):
    # the table's invariants are checked by explicit raises, so the
    # refusal must not depend on assertions being enabled
    obj = json.loads((DATA / "delta_abstract.json").read_text())
    change(obj)
    path = tmp_path / "malformed.json"
    path.write_text(json.dumps(obj))
    for command in ("check", "kms"):
        proc = subprocess.run(
            [sys.executable, *flags, "-m", "hyperq.cli", command, str(path)],
            capture_output=True, text=True)
        assert proc.returncode == 2, command
        assert proc.stdout == "", command
        assert proc.stderr == f"input error: {message}\n", command


def _action(**fields):
    return {"schema": "hyperq/1", "kind": "action", "name": "strict", "points": 2,
            "generators": [], **fields}


def _coset(**fields):
    return {**json.loads((DATA / "s3_cosets.json").read_text()), **fields}


@pytest.mark.parametrize("obj, message", [
    pytest.param(_action(points=-1), "field 'points' must not be negative, got -1",
                 id="negative_points"),
    pytest.param(_action(points=True), "field 'points' must be int, got bool",
                 id="true_points"),
    # more ordered pairs than a list can hold: refused before anything is
    # allocated, where it used to end in an OverflowError traceback
    pytest.param(_action(points=10 ** 20), "field 'points' is too large: "
                 f"{10 ** 20} points have more ordered pairs than a list can hold",
                 id="huge_points"),
    pytest.param(_action(points=math.isqrt(sys.maxsize) + 1), "field 'points' is too large: "
                 f"{math.isqrt(sys.maxsize) + 1} points have more ordered pairs than a list "
                 "can hold", id="least_refused_points"),
    pytest.param(_action(generators=[[True, 0]]), "generators entries must be integer arrays",
                 id="true_generator_entry"),
    pytest.param(_coset(degree=-1, group_generators=[],
                        subgroups=[{"name": "k", "generators": []}]),
                 "field 'degree' must not be negative, got -1", id="negative_degree"),
    pytest.param(_coset(degree=True, group_generators=[[0]],
                        subgroups=[{"name": "k", "generators": []}]),
                 "field 'degree' must be int, got bool", id="true_degree"),
    pytest.param(_coset(group_generators=[[1, 0, 2], [True, 2, 0]]),
                 "group_generators entries must be integer arrays",
                 id="true_group_generator_entry"),
    pytest.param(_coset(subgroups=[{"name": "k", "generators": [[True, 0, 2]]}]),
                 "generators entries must be integer arrays", id="true_subgroup_generator_entry"),
])
def test_counts_and_permutation_entries_are_strict(run, tmp_path, obj, message):
    # bool subclasses int in Python, and a negative count used to pass
    # as an empty range or end in a traceback
    path = tmp_path / "strict.json"
    path.write_text(json.dumps(obj))
    for command in ("atoms", "check", "kms", "site"):
        assert run(command, path) == (2, "", f"input error: {message}\n"), command


@pytest.mark.parametrize("flags", [[], ["-O"]])
def test_coset_input_without_subgroups_exits_two(tmp_path, flags):
    obj = json.loads((DATA / "s3_cosets.json").read_text())
    obj["subgroups"] = []
    path = tmp_path / "no_subgroups.json"
    path.write_text(json.dumps(obj))
    proc = subprocess.run(
        [sys.executable, *flags, "-m", "hyperq.cli", "atoms", str(path)],
        capture_output=True, text=True)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == ("input error: invalid coset input: "
                           "a coset spec needs at least one subgroup\n")


@pytest.mark.parametrize("flags", [[], ["-O"]])
@pytest.mark.parametrize("degree, group, subgroup, message", [
    # S8, of order 40 320, on itself
    (8, [[1, 0, 2, 3, 4, 5, 6, 7], [1, 2, 3, 4, 5, 6, 7, 0]], [],
     "error: group order exceeds bound 10000"),
    # C4 does not contain the transposition (0 1)
    (4, [[1, 2, 3, 0]], [[1, 0, 2, 3]],
     "input error: invalid coset input: subgroup 'k' generator outside the group"),
    # A8, of order 20 160, by (0 1 2) and (1 2 3 4 5 6 7), does not contain
    # (0 1) either: the order bound fires first
    (8, [[1, 2, 0, 3, 4, 5, 6, 7], [0, 2, 3, 4, 5, 6, 7, 1]], [[1, 0, 2, 3, 4, 5, 6, 7]],
     "error: group order exceeds bound 10000"),
    # S8 as the subgroup of C8: K itself passes the bound, G does not
    (8, [[1, 2, 3, 4, 5, 6, 7, 0]], [[1, 0, 2, 3, 4, 5, 6, 7], [1, 2, 3, 4, 5, 6, 7, 0]],
     "input error: invalid coset input: subgroup 'k' generator outside the group"),
], ids=["order_bound", "outside_generator", "order_bound_before_outside", "outside_past_bound"])
def test_coset_group_errors_exit_two(tmp_path, flags, degree, group, subgroup, message):
    path = tmp_path / "coset.json"
    path.write_text(json.dumps({
        "schema": "hyperq/1", "kind": "coset", "name": "coset", "degree": degree,
        "group_generators": group, "subgroups": [{"name": "k", "generators": subgroup}]}))
    proc = subprocess.run(
        [sys.executable, *flags, "-m", "hyperq.cli", "atoms", str(path)],
        capture_output=True, text=True)
    assert (proc.returncode, proc.stdout, proc.stderr) == (2, "", message + "\n")


@pytest.mark.parametrize("flags", [[], ["-O"]])
@pytest.mark.parametrize("fmt", ["table", "json"])
def test_kms_with_an_infinite_identity_entry_exits_two(tmp_path, flags, fmt):
    # <1|d,d> = inf with chi(d) = 3/3 defined: the pair (d, d) is
    # evaluated and its identity mass is infinite
    obj = json.loads((DATA / "kms_bad.json").read_text())
    obj["mu"] = [rec for rec in obj["mu"] if (rec["a"], rec["g"], rec["gp"]) != ("1", "d", "d")]
    obj["mu"].append({"a": "1", "g": "d", "gp": "d", "value": "inf"})
    obj["right"] = {"d": 3}
    path = tmp_path / "kms_inf.json"
    path.write_text(json.dumps(obj))
    proc = subprocess.run(
        [sys.executable, *flags, "-m", "hyperq.cli", "kms", str(path), "--format", fmt],
        capture_output=True, text=True)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == ("error: kms pair (d,d) cannot be evaluated: "
                           "the identity mu entry of (d,d) is infinite\n")


@pytest.mark.parametrize("flags", [[], ["-O"]])
@pytest.mark.parametrize("argv, term", [
    (["evolve", "--t", "1", "--element=1/0*[a0]"], "1/0*[a0]"),
    (["convolve", "--f=0/0*[a0]", "--g=[a0]"], "0/0*[a0]"),
], ids=["evolve", "convolve"])
def test_a_zero_denominator_in_a_literal_exits_two(flags, argv, term):
    # Fraction("1/0") raises ZeroDivisionError, which used to end in a
    # traceback with exit 1, the code of a violated law
    command, *extra = argv
    proc = subprocess.run(
        [sys.executable, *flags, "-m", "hyperq.cli", command, str(FILES["s3_regular"]), *extra],
        capture_output=True, text=True)
    assert (proc.returncode, proc.stdout, proc.stderr) == (
        2, "", f"input error: zero denominator in term {term!r}\n")


_NO_NUMPY = """
import contextlib, io, sys
from hyperq.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    code = main(["algebra", sys.argv[1], "--format", "json"])
print(code, "numpy" in sys.modules)
"""


def test_the_command_line_runs_without_numpy():
    proc = subprocess.run(
        [sys.executable, "-c", _NO_NUMPY, str(DATA / "s3_mixed.json")],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "0 False\n"
