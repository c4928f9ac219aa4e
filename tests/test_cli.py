import csv
import io
import json
import re
import subprocess
import sys
from fractions import Fraction

import click
import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import given, strategies as st

from orbitfuncs.cli import main, _float_cell


def run(*args, **kw):
    return CliRunner().invoke(main, list(args), catch_exceptions=False, **kw)


def test_rootsys_info():
    res = run("rootsys", "info", "A2")
    assert res.exit_code == 0
    data = json.loads(res.output)
    assert data["weyl_order"] == 6
    assert data["cartan"] == [["2", "-1"], ["-1", "2"]]
    assert data["cartan_inv"][0] == ["2/3", "1/3"]


def test_orbit_signed_json_schema():
    res = run("orbit", "signed", "--diagram", "A2", "--lambda", "1,1")
    data = json.loads(res.output)
    assert data["dominant"] == ["1", "1"]
    assert len(data["points"]) == 6
    assert {p["sign"] for p in data["points"]} == {-1, 1}
    assert {"w", "sign"} <= set(data["points"][0])


def test_eval_point():
    res = run("eval", "--diagram", "A1", "--kind", "anti",
              "--lambda", "1", "--x", "0.5")
    data = json.loads(res.output)
    assert abs(data["re"]) < 1e-12 and abs(data["im"] - 2) < 1e-12


def test_eval_a2_example():
    res = run("eval", "--diagram", "A2", "--kind", "anti",
              "--lambda", "1,1", "--x", "0.25,0.25")
    data = json.loads(res.output)
    assert abs(data["re"]) < 1e-12 and abs(data["im"] + 4) < 1e-12


def test_eval_batch_csv(tmp_path):
    src = tmp_path / "points.csv"
    src.write_text("x1,x2\n0.25,0.25\n0.1,0.2\n")
    res = run("eval", "--diagram", "A2", "--lambda", "1,1", "--in", str(src))
    rows = list(csv.reader(io.StringIO(res.output)))
    assert rows[0] == ["x1", "x2", "re", "im"]
    assert abs(float(rows[1][3]) + 4) < 1e-12
    # emitted decimals are exact reprs: they re-ingest without loss
    assert float(rows[2][2]) == pytest.approx(float(rows[2][2]))


def test_product_command():
    res = run("product", "--diagram", "A2", "--plain", "2,0", "--signed", "3,1")
    data = json.loads(res.output)
    labels = {tuple(t["label"]): t["coefficient"] for t in data["terms"]}
    assert labels == {("5", "1"): 1, ("1", "3"): 1, ("2", "1"): -1}


def test_branch_command():
    res = run("branch", "--from", "A2", "--rule", "drop-last", "--lambda", "2,1,0")
    data = json.loads(res.output)
    got = {(tuple(t["label"]), t["coefficient"]) for t in data["terms"]}
    assert got == {(("2", "1"), 1), (("2", "0"), -1), (("1", "0"), 1)}


PLAIN_SIGNED_ORDERS = [("--plain", "--signed"), ("--plain", "--signed2"),
                       ("--signed", "--plain2"), ("--plain2", "--signed2")]


# --plain with --signed2 and --signed with --plain2 exited 2 with
# "unsupported factor combination", although the library multiplies them
@pytest.mark.parametrize("first, second", PLAIN_SIGNED_ORDERS)
def test_product_takes_a_plain_and_a_signed_factor_in_any_order(first, second):
    from orbitfuncs.orbitalg import product_plain_signed
    from orbitfuncs.rootsys import build
    plain, signed = "2,0", "3,1"
    values = {first: plain if "plain" in first else signed,
              second: plain if "plain" in second else signed}
    res = run("product", "--diagram", "A2", first, values[first], second, values[second])
    assert res.exit_code == 0
    want = product_plain_signed(build("A2"), (2, 0), (3, 1))
    assert json.loads(res.output)["terms"] == [
        {"coefficient": t.coefficient, "label": [str(c) for c in t.label], "kind": "signed"}
        for t in want]


@pytest.mark.parametrize("plain_or_signed", ["plain", "signed"])
def test_product_of_two_factors_of_one_kind(plain_or_signed):
    from orbitfuncs.orbitalg import product_plain_plain, product_signed_signed
    from orbitfuncs.rootsys import build
    product = product_plain_plain if plain_or_signed == "plain" else product_signed_signed
    res = run("product", "--diagram", "C2", f"--{plain_or_signed}", "1,1",
              f"--{plain_or_signed}2", "2,1")
    assert res.exit_code == 0
    terms = json.loads(res.output)["terms"]
    assert [(t["coefficient"], tuple(t["label"])) for t in terms] == [
        (t.coefficient, tuple(str(c) for c in t.label))
        for t in product(build("C2"), (1, 1), (2, 1))]


@pytest.mark.parametrize("factors", [[], ["--plain", "1,0"],
                                     ["--plain", "1,0", "--signed", "1,1", "--signed2", "1,1"]])
def test_product_needs_exactly_two_factors(factors):
    res = CliRunner().invoke(main, ["product", "--diagram", "A2", *factors])
    assert res.exit_code == 2 and "give exactly two orbit factors" in res.output


# drop-first on A and drop-last on B, C and D printed the terms of the
# other end's drop, which is the only one the library has
@pytest.mark.parametrize("source, rule, lam, end", [
    ("A3", "drop-first", "3,2,1,0", "last"), ("B3", "drop-last", "3,2,1", "first"),
    ("C3", "drop-last", "3,2,1", "first"), ("D4", "drop-last", "4,3,2,1", "first")])
def test_a_drop_alias_of_the_other_end_is_refused(source, rule, lam, end):
    res = CliRunner().invoke(main, ["branch", "--from", source, "--rule", rule, "--lambda", lam])
    assert res.exit_code == 2
    assert f"--rule {rule} does not apply to {source}: drop removes the {end} coordinate" \
           in res.output
    same = run("branch", "--from", source, "--rule", f"drop-{end}", "--lambda", lam)
    assert same.exit_code == 0
    assert json.loads(same.output)["terms"] == json.loads(
        run("branch", "--from", source, "--rule", "drop", "--lambda", lam).output)["terms"]


# a split position that is not an integer exited 1 with int()'s "invalid
# literal", which named neither --rule nor the position
@pytest.mark.parametrize("rule, pos", [("split-x", "'x'"), ("split-", "''"),
                                       ("split-1.5", "'1.5'")])
def test_a_split_rule_without_an_integer_position_is_refused(rule, pos):
    res = CliRunner().invoke(main, ["branch", "--from", "C3", "--rule", rule, "--lambda", "3,2,1"])
    assert res.exit_code == 2
    assert f"--rule {rule} needs an integer split position after 'split-', got {pos}" \
           in res.output
    assert run("branch", "--from", "C3", "--rule", "split-1", "--lambda", "3,2,1").exit_code == 0


def test_grid_csv_roundtrip():
    res = run("grid", "--diagram", "G2", "--M", "3")
    rows = list(csv.reader(io.StringIO(res.output)))
    assert len(rows) == 4  # header + three points
    from fractions import Fraction
    pts = {tuple(Fraction(v) for v in r[:2]) for r in rows[1:]}
    assert pts == {(0, 0), (Fraction(1, 3), 0), (0, Fraction(1, 3))}


def test_grid_interior_flag():
    res = run("grid", "--diagram", "A2", "--M", "5", "--interior")
    rows = list(csv.reader(io.StringIO(res.output)))
    assert len(rows) == 7
    assert all(r[-1] == "1" for r in rows[1:])


def test_transform_roundtrip_csv(tmp_path):
    signal = tmp_path / "signal.csv"
    rng = np.random.default_rng(5)
    values = rng.normal(size=6)  # amdct2 n=2 N=3: C(3,2)=3 labels... use dct2 N=6
    with open(signal, "w") as fh:
        fh.write("k,value\n")
        for k, v in enumerate(values):
            fh.write(f"{k},{float(v)!r}\n")
    res = run("transform", "--kind", "dct2", "--N", "6",
              "--in", str(signal), "--direction", "forward")
    rows = list(csv.reader(io.StringIO(res.output)))
    assert rows[0] == ["index", "re", "im"]
    coeffs = tmp_path / "coeffs.csv"
    coeffs.write_text(res.output)
    res2 = run("transform", "--kind", "dct2", "--N", "6",
               "--in", str(coeffs), "--direction", "inverse")
    rows2 = list(csv.reader(io.StringIO(res2.output)))
    back = np.array([float(r[1]) for r in rows2[1:]])
    assert np.max(np.abs(back - values)) < 1e-12


def test_transform_multivariate_cli(tmp_path):
    plan_size = 3  # amdct4, n=2, N=3 has C(3,2) = 3 labels
    signal = tmp_path / "s.csv"
    with open(signal, "w") as fh:
        fh.write("k,value\n")
        for k in range(plan_size):
            fh.write(f"{k},{0.5 + k}\n")
    res = run("transform", "--kind", "amdct4", "--n", "2", "--N", "3",
              "--in", str(signal))
    rows = list(csv.reader(io.StringIO(res.output)))
    assert len(rows) == plan_size + 1


def test_transform_length_mismatch_errors(tmp_path):
    signal = tmp_path / "bad.csv"
    signal.write_text("k,value\n0,1.0\n")
    res = run("transform", "--kind", "dct1", "--N", "4", "--in", str(signal))
    assert res.exit_code != 0


def test_plan_verify():
    res = run("plan", "verify", "--diagram", "C2", "--M", "7")
    data = json.loads(res.output)
    assert data["labels"] == 6
    assert data["gram_diagonal"] == pytest.approx(2 * 49)
    assert data["max_residual"] < 1e-9 * 98


def test_check_laplace_exit_codes():
    res = run("check", "laplace", "--diagram", "C2", "--lambda", "2,1",
              "--trials", "3")
    assert res.exit_code == 0
    res = run("--tolerance", "1e-18", "check", "laplace", "--diagram", "C2",
              "--lambda", "2,1", "--trials", "1")
    assert res.exit_code == 1


# --tolerance 0 was read as "no tolerance" and replaced by the default, and
# --tolerance nan printed "tolerance": NaN, which is not JSON, and exited 0
# whatever the error
@pytest.mark.parametrize("verb", [["plan", "verify", "--diagram", "A2", "--M", "7"],
                                  ["check", "laplace", "--diagram", "C2", "--lambda", "2,1",
                                   "--trials", "1"]])
@pytest.mark.parametrize("bad", ["nan", "0", "-1", "inf", "-inf"])
def test_a_tolerance_that_is_not_positive_and_finite_is_refused_when_parsed(bad, verb):
    res = CliRunner().invoke(main, ["--tolerance", bad, *verb])
    assert res.exit_code == 2
    assert f"Invalid value for '--tolerance': --tolerance must be a positive finite " \
           f"number, got --tolerance = {float(bad)!r}" in res.output


def test_a_given_tolerance_replaces_the_default_of_the_check():
    for given, used in ((), 1e-5), (("--tolerance", "0.25"), 0.25):
        res = run(*given, "check", "laplace", "--diagram", "C2", "--lambda", "2,1",
                  "--trials", "1")
        assert res.exit_code == 0 and json.loads(res.output)["tolerance"] == used


# --tolerance was accepted and ignored by every verb that does not read it:
# "--tolerance 1e-30 selftest --quick" exited 0 with its own thresholds
@pytest.mark.parametrize("verb", [
    ["selftest", "--quick"], ["rootsys", "info", "A2"],
    ["orbit", "signed", "--diagram", "A2", "--lambda", "1,1"],
    ["eval", "--diagram", "A2", "--lambda", "1,1", "--x", "0.1,0.2"],
    ["product", "--diagram", "A2", "--plain", "1,0", "--signed", "1,1"],
    ["branch", "--from", "A2", "--rule", "drop", "--lambda", "2,1,0"],
    ["grid", "--diagram", "A2", "--M", "3"]])
def test_a_tolerance_for_a_verb_that_does_not_read_it_is_refused(verb):
    res = CliRunner().invoke(main, ["--tolerance", "1e-3", *verb])
    assert res.exit_code == 2
    assert (f"--tolerance is read only by 'plan verify' and the 'check' verbs, "
            f"not by '{verb[0]}'") in res.output


@pytest.mark.parametrize("verb", [["plan", "verify", "--diagram", "A2", "--M", "7"],
                                  ["check", "shift", "--diagram", "A2", "--lambda", "2,1",
                                   "--trials", "1"],
                                  ["check", "hermite", "--max-degree", "1"]])
def test_the_verbs_that_read_a_tolerance_take_it(verb):
    res = run("--tolerance", "0.5", *verb)
    assert res.exit_code == 0


def test_check_shift():
    res = run("check", "shift", "--diagram", "A2", "--lambda", "2,1",
              "--trials", "4")
    assert res.exit_code == 0


def test_selftest_quick():
    res = run("selftest", "--quick")
    assert res.exit_code == 0
    assert "FAIL" not in res.output
    assert res.output.count("[PASS]") >= 10


def test_selftest_full():
    res = run("selftest", "--full")
    assert res.exit_code == 0
    assert "FAIL" not in res.output
    assert "[PASS] orbit product expansion" in res.output


def test_unknown_verb_usage_error():
    result = CliRunner().invoke(main, ["frobnicate"])
    assert result.exit_code == 2


def test_domain_error_exit_code(tmp_path):
    import subprocess, sys, os
    env = dict(os.environ)
    proc = subprocess.run(
        [sys.executable, "-m", "orbitfuncs.cli", "orbit", "signed",
         "--diagram", "A2", "--lambda", "1,0"],
        capture_output=True, text=True, env=env)
    assert proc.returncode == 1
    assert "wall" in proc.stderr


def test_transform_without_labels_exits_1(tmp_path, monkeypatch, capsys):
    from orbitfuncs import cli
    signal = tmp_path / "signal.csv"
    signal.write_text("k,value\n0,1.0\n")
    monkeypatch.setattr("sys.argv", ["orbitfuncs", "transform", "--kind", "anti_sine",
                                     "--n", "3", "--N", "3", "--in", str(signal)])
    with pytest.raises(SystemExit) as exit_:
        cli.run()
    assert exit_.value.code == 1
    assert "anti_sine has no plan with n = 3, N = 3" in capsys.readouterr().err


def test_out_writes_the_json_to_the_file(tmp_path):
    path = tmp_path / "a2.json"
    res = run("--out", str(path), "rootsys", "info", "A2")
    assert res.exit_code == 0 and res.output == ""
    assert json.loads(path.read_text())["weyl_order"] == 6


def test_threads_flag_is_gone():
    res = CliRunner().invoke(main, ["--threads", "2", "rootsys", "info", "A2"])
    assert res.exit_code == 2 and "No such option" in res.output


def test_csv_format_prints_flat_records_and_refuses_nested_ones():
    res = run("--format", "csv", "eval", "--diagram", "A2", "--kind", "anti",
              "--lambda", "1,1", "--x", "0.25,0.25")
    rows = list(csv.reader(io.StringIO(res.output)))
    assert res.exit_code == 0 and rows[0] == ["re", "im"]
    assert abs(float(rows[1][1]) + 4) < 1e-12
    res = CliRunner().invoke(main, ["--format", "csv", "orbit", "plain",
                                    "--diagram", "A2", "--lambda", "1,0"])
    assert res.exit_code == 1
    assert "prints nested data, which has no csv layout" in res.output


@given(st.floats(allow_nan=False, allow_infinity=False), st.integers(1, 17))
def test_float_cell_rounds_like_fraction(x, k):
    text = repr(round(x, k))
    assert _float_cell(text).hex() == float(Fraction(text)).hex()


@pytest.mark.parametrize("text", ["1/3", "-2/7", " 0.5", "1e-5", "3", "-0.0"])
def test_float_cell_reads_fractions_and_decimals(text):
    assert _float_cell(text).hex() == float(Fraction(text)).hex()


@pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
def test_eval_refuses_non_finite_cells(cell, tmp_path, monkeypatch, capsys):
    from orbitfuncs import cli
    src = tmp_path / "points.csv"
    src.write_text(f"x1,x2\n0.1,0.2\n0.3,{cell}\n")
    for source in (["--in", str(src)], ["--x", f"0.3,{cell}"]):
        monkeypatch.setattr("sys.argv", ["orbitfuncs", "eval", "--diagram", "C2",
                                         "--lambda", "2,1", *source])
        with pytest.raises(SystemExit) as exit_:
            cli.run()
        assert exit_.value.code == 1
        assert re.search(r"error: point \d is not finite for C2", capsys.readouterr().err)


def test_eval_of_a_csv_without_rows_prints_the_header(tmp_path):
    src = tmp_path / "points.csv"
    src.write_text("x1,x2\n")
    for diagram in ("A2", "C2"):
        res = run("eval", "--diagram", diagram, "--lambda", "2,1", "--in", str(src))
        assert res.exit_code == 0 and res.output == "x1,x2,re,im\n"


@pytest.mark.parametrize("header", ["k,value", "k,re,im"])
def test_transform_reads_fraction_cells_like_their_decimals(header, tmp_path):
    outputs = []
    for third in ("1/3", repr(1 / 3)):
        signal = tmp_path / "signal.csv"
        cell = f"{third},0" if header.endswith("im") else third
        signal.write_text(f"{header}\n0,1\n1,{cell}\n2,0.5\n3,2\n")
        res = run("transform", "--kind", "dct2", "--N", "4", "--in", str(signal))
        assert res.exit_code == 0
        outputs.append(res.output)
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
def test_transform_refuses_non_finite_cells(cell, tmp_path, monkeypatch, capsys):
    from orbitfuncs import cli
    signal = tmp_path / "signal.csv"
    signal.write_text(f"k,value\n0,1\n1,0.5\n2,{cell}\n3,2\n")
    monkeypatch.setattr("sys.argv", ["orbitfuncs", "transform", "--kind", "dct2",
                                     "--N", "4", "--in", str(signal)])
    with pytest.raises(SystemExit) as exit_:
        cli.run()
    assert exit_.value.code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"error: signal value 2 is not finite: ['2', '{cell}']" in captured.err


LAYERS = ("numpy", "orbitfuncs.weyl", "orbitfuncs.orbitfn", "orbitfuncs.orbitalg",
          "orbitfuncs.transforms", "orbitfuncs.analysis")


def _layers_loaded(*argv):
    """Run one cli command (or only the import, for no argv) in a fresh
    interpreter; return its exit code, stdout and the LAYERS it loaded."""
    code = f"""
import json, sys
from orbitfuncs import cli
code = 0
if {list(argv)!r}:
    sys.argv = ["orbitfuncs", *{list(argv)!r}]
    try:
        cli.run()
    except SystemExit as exit_:
        code = exit_.code
print(json.dumps([code, [m for m in {LAYERS!r} if m in sys.modules]]), file=sys.stderr)
"""
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    exit_code, loaded = json.loads(proc.stderr.splitlines()[-1])
    return exit_code, proc.stdout, set(loaded)


def test_import_and_rootsys_info_load_no_layer_and_no_numpy():
    assert _layers_loaded() == (0, "", set())
    code, out, loaded = _layers_loaded("rootsys", "info", "B3")
    assert code == 0 and json.loads(out)["weyl_order"] == 48
    assert loaded == set()


@pytest.mark.parametrize("argv, layers", [
    (["orbit", "signed", "--diagram", "A2", "--lambda", "1,1"],
     {"numpy", "orbitfuncs.weyl"}),
    (["eval", "--diagram", "A2", "--lambda", "1,1", "--x", "0.25,0.25"],
     {"numpy", "orbitfuncs.weyl", "orbitfuncs.orbitfn"}),
])
def test_a_verb_loads_only_its_layers(argv, layers):
    code, _, loaded = _layers_loaded(*argv)
    assert code == 0 and loaded == layers


# the first help line of every group and command, by its path below main
HELP = {
    (): "Weyl-group orbit functions: root data, orbits, evaluation, orbit",
    ("rootsys",): "Static root-system data.",
    ("rootsys", "info"): "Cartan matrix, metric, marks, rho and Weyl group order of a diagram.",
    ("orbit",): "Weyl orbits of dominant weights.",
    ("orbit", "signed"): "The signed Weyl orbit of a strictly dominant weight.",
    ("orbit", "plain"): "The Weyl orbit of a dominant weight.",
    ("eval",): "Evaluate an orbit function at one point or a CSV batch.",
    ("product",): "Decompose a product of two (signed) orbits.",
    ("branch",): "Decompose a signed orbit into sub-root-system signed orbits.",
    ("grid",): "Points of the F_M grid as CSV with exact fraction coordinates.",
    ("transform",): "Apply a 1-D or multivariate discrete transform to a CSV signal.",
    ("plan",): "Finite orbit-function transform plans.",
    ("plan", "verify"): "Build the F_M plan and print the worst Gram deviation.",
    ("check",): "Numerical verification of operator identities.",
    ("check", "laplace"): "The Laplace eigenvalue of antisymmetric orbit functions.",
    ("check", "shift"): "Shift-operator eigenrelations at random pairs of points.",
    ("check", "hermite"): "Hermite eigenfunctions of the (anti)symmetrized 2-D transform.",
    ("selftest",): "Run the invariant suite and report pass/fail per property.",
}


def _command_paths(group, path=()):
    for name, cmd in group.commands.items():
        yield path + (name,)
        if isinstance(cmd, click.Group):
            yield from _command_paths(cmd, path + (name,))


def test_every_command_keeps_its_help_line():
    """A statement above a docstring makes it a plain expression, and the
    command's help silently goes blank."""
    assert set(_command_paths(main)) == set(HELP) - {()}

    def help_text(path):
        res = CliRunner().invoke(main, [*path, "--help"], terminal_width=200)
        assert res.exit_code == 0
        return res.output

    for path, line in HELP.items():
        assert line in " ".join(help_text(path).split())
        if path:
            listing = help_text(path[:-1])
            assert re.search(rf"^  {path[-1]} +{re.escape(line)}$", listing, re.M), path
