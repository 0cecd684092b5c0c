"""End-to-end CLI tests: exit codes, document shapes, determinism."""

import csv
import io
import json
import math
import os
import subprocess
import sys
import time
import warnings
from dataclasses import fields, replace
from importlib import resources
from pathlib import Path

import jsonschema
import pytest
from hypothesis import example, given, reject, settings
from hypothesis import strategies as st

from sl2spectra import InvalidSpec, PotentialClass, families, oracle, spectrum
from sl2spectra.cli import (
    MAX_PROFILE_POINTS,
    _num,
    _spec_from_args,
    build_parser,
    main,
    report_document,
)
from document_reference import reference_text


def run_cli(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def load_schema():
    path = resources.files("sl2spectra") / "schemas" / "spectrum_report.v1.json"
    return json.loads(path.read_text())


def parse_csv(text):
    rows = list(csv.reader(io.StringIO(text)))
    return rows[0], rows[1:]


class TestAnalyze:
    def test_scarf_document(self, capsys):
        code, out = run_cli(
            capsys, ["analyze", "--family", "scarf2", "--v1", "9.75", "--v2", "6"]
        )
        assert code == 0
        doc = json.loads(out)
        jsonschema.validate(doc, load_schema())
        assert doc["family"] == "scarf2"
        assert doc["classification"] == "AllReal"
        assert doc["pt_symmetric"] is True
        assert doc["threshold_distance"] == -4.0
        assert doc["reality_condition_residual"] is None
        by_eps = {b["epsilon"]: b for b in doc["branches"]}
        assert [lv["energy"] for lv in by_eps[1]["levels"]] == [
            [-6.25, 0.0],
            [-2.25, 0.0],
            [-0.25, 0.0],
        ]
        assert [lv["energy"] for lv in by_eps[-1]["levels"]] == [[-0.25, 0.0]]

    def test_byte_identical_reruns(self, capsys):
        argv = ["analyze", "--family", "scarf2", "--v1", "0", "--v2", "5"]
        _, out1 = run_cli(capsys, argv)
        _, out2 = run_cli(capsys, argv)
        assert out1 == out2

    def test_broken_phase_document(self, capsys):
        code, out = run_cli(
            capsys, ["analyze", "--family", "scarf2", "--v1", "0", "--v2", "5"]
        )
        assert code == 0
        doc = json.loads(out)
        jsonschema.validate(doc, load_schema())
        assert doc["classification"] == "BrokenConjugatePairs"
        e_plus = doc["branches"][0]["levels"][0]["energy"]
        e_minus = doc["branches"][1]["levels"][0]["energy"]
        assert e_plus[0] == e_minus[0] and e_plus[1] == -e_minus[1]

    def test_morse_ab_document(self, capsys):
        code, out = run_cli(
            capsys,
            ["analyze", "--family", "morse-ab", "--A", "1", "--B", "1",
             "--gamma-p", "3", "--delta-p", "3"],
        )
        assert code == 0
        doc = json.loads(out)
        jsonschema.validate(doc, load_schema())
        assert doc["classification"] == "AllReal"
        assert doc["pt_symmetric"] is False
        levels = doc["branches"][0]["levels"]
        assert levels == [{"n": 0, "energy": [-1.0, 0.0]}]
        assert doc["reality_condition_residual"] <= 1e-12

    def test_invalid_spec_exit_2(self, capsys):
        code, _ = run_cli(capsys, ["analyze", "--family", "scarf2", "--v1", "-1", "--v2", "1"])
        assert code == 2

    def test_missing_flags_exit_2(self, capsys):
        code, _ = run_cli(capsys, ["analyze", "--family", "scarf2", "--v1", "1"])
        assert code == 2

    def test_no_regular_branch_exit_3_with_empty_document(self, capsys):
        code, out = run_cli(
            capsys,
            ["analyze", "--family", "morse-ab", "--A", "1", "--B", "1",
             "--gamma-p", "1", "--delta-p", "1"],
        )
        assert code == 3
        doc = json.loads(out)
        jsonschema.validate(doc, load_schema())
        assert doc["classification"] == "Empty"
        assert doc["branches"] == []

    def test_tiny_morse_couplings_exit_3_with_empty_document(self, capsys):
        # b_re = A misses the regularity margin: no branch, not an internal error.
        # Morse-AB is never PT-symmetric, however small its couplings.
        for size in ("1e-160", "1e-16"):
            code, out = run_cli(
                capsys,
                ["analyze", "--family", "morse-ab", "--A", size, "--B", size,
                 "--gamma-p", "3", "--delta-p", "5"],
            )
            assert code == 3
            doc = json.loads(out)
            jsonschema.validate(doc, load_schema())
            assert doc["classification"] == "Empty"
            assert doc["branches"] == []
            assert doc["pt_symmetric"] is False

    def test_largest_coupling_is_written_finite(self, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out = run_cli(
                capsys,
                ["analyze", "--family", "poschl-teller", "--v1", "2", "--v2", "1",
                 "--c", repr(families.MAX_COUPLING), "--contour-gamma", "0.3"],
            )
        assert code == 0
        doc = json.loads(out, parse_constant=_reject_constant)
        assert doc["parameters"]["c"] == families.MAX_COUPLING
        assert all(branch["c"] == families.MAX_COUPLING for branch in doc["branches"])

    @pytest.mark.parametrize("c, symmetric", [("1000", False), ("1e-12", False), ("0", True)])
    def test_poschl_teller_pt_flag_is_exact_and_warning_free(self, capsys, c, symmetric):
        # V(x) overflows for |x - c| >~ 355, but analyze never evaluates V.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["analyze", "--family", "poschl-teller", "--v1", "2", "--v2", "1",
                         "--c", c, "--contour-gamma", "0.3"])
        captured = capsys.readouterr()
        assert code == 0
        assert json.loads(captured.out)["pt_symmetric"] is symmetric
        assert captured.err == ""


class TestScan:
    def test_threshold_flip_row(self, capsys):
        code, out = run_cli(
            capsys,
            ["scan", "--family", "scarf2", "--v1", "1",
             "--start", "0.1", "--stop", "2.5", "--step", "0.05"],
        )
        assert code == 0
        header, rows = parse_csv(out)
        assert header == ["swept_value", "real_levels", "complex_pairs", "classification"]
        assert len(rows) == 49
        classes = [row[3] for row in rows]
        flip = classes.index("BrokenConjugatePairs")
        assert abs(float(rows[flip][0]) - 1.30) < 1e-9
        assert classes[flip - 1] == "AllReal"
        assert abs(float(rows[flip - 1][0]) - 1.25) < 1e-9

    def test_single_sample(self, capsys):
        code, out = run_cli(
            capsys,
            ["scan", "--family", "scarf2", "--v1", "1",
             "--start", "0.7", "--stop", "0.7", "--step", "0.1"],
        )
        assert code == 0
        _, rows = parse_csv(out)
        assert len(rows) == 1

    def test_invalid_range_exit_2(self, capsys):
        code, _ = run_cli(
            capsys,
            ["scan", "--family", "scarf2", "--v1", "1",
             "--start", "1.0", "--stop", "0.5", "--step", "0.1"],
        )
        assert code == 2

    def test_morse_delta_sweep(self, capsys):
        code, out = run_cli(
            capsys,
            ["scan", "--family", "morse-ab", "--A", "1", "--B", "1",
             "--gamma-p", "3", "--delta-p", "2",
             "--start", "2", "--stop", "4", "--step", "0.5"],
        )
        assert code == 0
        _, rows = parse_csv(out)
        kinds = {float(r[0]): r[3] for r in rows}
        assert kinds[3.0] == "AllReal"
        assert all(v == "ComplexUnpaired" for k, v in kinds.items() if k != 3.0)

    def test_tiny_morse_couplings_give_empty_rows(self, capsys):
        code, out = run_cli(
            capsys,
            ["scan", "--family", "morse-ab", "--A", "1e-13", "--B", "1e-13",
             "--gamma-p", "3", "--start", "2", "--stop", "4", "--step", "1"],
        )
        assert code == 0
        _, rows = parse_csv(out)
        assert rows == [[v, "0", "0", "Empty"] for v in ("2", "3", "4")]

    def test_crlf_line_endings(self, capsys):
        _, out = run_cli(
            capsys,
            ["scan", "--family", "scarf2", "--v1", "1",
             "--start", "0.5", "--stop", "0.6", "--step", "0.1"],
        )
        assert "\r\n" in out


class TestVerify:
    def test_all_matched_exit_0(self, capsys):
        code, out = run_cli(
            capsys,
            ["verify", "--family", "scarf2", "--v1", "9.75", "--v2", "6",
             "--x-min", "-18", "--x-max", "18", "--n-points", "1000"],
        )
        assert code == 0
        header, rows = parse_csv(out)
        assert header == ["E_closed_re", "E_closed_im", "E_numeric_re",
                          "E_numeric_im", "abs_error", "matched"]
        assert len(rows) == 4
        assert all(row[5] == "true" for row in rows)
        assert all(float(row[4]) < 1e-3 for row in rows)

    def test_under_resolved_grid_exit_4(self, capsys):
        code, out = run_cli(
            capsys,
            ["verify", "--family", "scarf2", "--v1", "9.75", "--v2", "6",
             "--n-points", "64"],
        )
        assert code == 4
        _, rows = parse_csv(out)
        assert any(row[5] == "false" for row in rows)

    def test_no_branch_exit_3(self, capsys):
        code, _ = run_cli(
            capsys,
            ["verify", "--family", "morse-ab", "--A", "1", "--B", "1",
             "--gamma-p", "1", "--delta-p", "1"],
        )
        assert code == 3

    # V overflows at the far grid points of these boxes; discretize rejects a
    # non-finite V and must not warn on the way
    @pytest.mark.parametrize(
        "argv, code",
        [
            (["--family", "scarf2", "--v1", "9.75", "--v2", "6",
              "--x-min=-1e70", "--x-max=1e70", "--n-points", "100"], 4),
            (["--family", "poschl-teller", "--v1", "9.75", "--v2", "6",
              "--x-min=-800", "--x-max=800", "--n-points", "400"], 2),
        ],
        ids=["scarf-1e70-table", "gpt-800-rejected"],
    )
    def test_wide_box_overflow_prints_no_warning(self, capsys, argv, code):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = main(["verify", *argv])
        captured = capsys.readouterr()
        assert got == code
        if code == 4:
            header, rows = parse_csv(captured.out)
            assert header[0] == "E_closed_re" and rows
            assert captured.err == ""
        else:
            assert captured.out == ""
            assert captured.err == "error: potential is not finite on the grid interior\n"


class TestWavefunction:
    def test_reference_value_exact(self, capsys):
        code, out = run_cli(
            capsys,
            ["wavefunction", "--family", "scarf2", "--v1", "9.75", "--v2", "6",
             "--epsilon", "1", "--n", "0", "--n-points", "4001"],
        )
        assert code == 0
        header, rows = parse_csv(out)
        assert header == ["x", "re_psi", "im_psi"]
        assert len(rows) == 4001
        center = rows[2000]
        assert center == ["0", "1", "0"]

    def test_level_out_of_range_exit_2(self, capsys):
        code, _ = run_cli(
            capsys,
            ["wavefunction", "--family", "scarf2", "--v1", "9.75", "--v2", "6",
             "--epsilon", "-1", "--n", "1", "--n-points", "256"],
        )
        assert code == 2

    def test_round_trip_residual(self, capsys, tmp_path):
        psi_path = tmp_path / "psi.csv"
        code, _ = run_cli(
            capsys,
            ["wavefunction", "--family", "scarf2", "--v1", "9.75", "--v2", "6",
             "--epsilon", "1", "--n", "2", "--n-points", "4001",
             "--output", str(psi_path)],
        )
        assert code == 0
        code, out = run_cli(
            capsys,
            ["verify", "--family", "scarf2", "--v1", "9.75", "--v2", "6",
             "--from-file", str(psi_path), "--epsilon", "1", "--n", "2"],
        )
        assert code == 0
        _, rows = parse_csv(out)
        assert rows[0][3] == "true"
        assert float(rows[0][2]) < 1e-5

    def test_env_grid_override(self, capsys, monkeypatch):
        monkeypatch.setenv("SPECTRA_DEFAULT_GRID_N", "501")
        code, out = run_cli(
            capsys,
            ["wavefunction", "--family", "morse-ab", "--A", "1", "--B", "1",
             "--gamma-p", "3", "--delta-p", "3", "--epsilon", "1", "--n", "0"],
        )
        assert code == 0
        _, rows = parse_csv(out)
        assert len(rows) == 501

    def test_output_file_written(self, capsys, tmp_path):
        out_path = tmp_path / "report.json"
        code, out = run_cli(
            capsys,
            ["analyze", "--family", "scarf2", "--v1", "9.75", "--v2", "6",
             "--output", str(out_path)],
        )
        assert code == 0
        assert out == ""
        doc = json.loads(out_path.read_text())
        assert doc["family"] == "scarf2"


SCARF = ["--family", "scarf2", "--v1", "9.75", "--v2", "6"]
MORSE = ["--family", "morse", "--v1r", "1", "--v1i", "1", "--v2r", "1", "--v2i", "1"]
PROFILE_HEADER = "x,re_psi,im_psi\r\n"
PROFILES = {
    "no_im.csv": "x,re_psi\r\n0,1\r\n",
    "bad_number.csv": PROFILE_HEADER + "0,abc,0\r\n",
    "zero.csv": PROFILE_HEADER + "".join(f"{0.05 * k:.2f},0,0\r\n" for k in range(32)),
    "nan.csv": PROFILE_HEADER + "".join(f"{0.05 * k:.2f},{'nan' if k == 7 else 1},0\r\n"
                                        for k in range(32)),
    "inf.csv": PROFILE_HEADER + "".join(f"{0.05 * k:.2f},1,{'inf' if k == 7 else 0}\r\n"
                                        for k in range(32)),
}
BAD_INPUTS = {
    "v2-nan": ["analyze", "--family", "scarf2", "--v1", "9.75", "--v2", "nan"],
    "v1-inf": ["analyze", "--family", "scarf2", "--v1", "inf", "--v2", "6"],
    "morse-v1i-inf": ["analyze", "--family", "morse", "--v1r", "1", "--v1i", "inf",
                      "--v2r", "1", "--v2i", "1"],
    "v1-1e300": ["analyze", "--family", "scarf2", "--v1", "1e300", "--v2", "6"],
    "grid-too-coarse": ["wavefunction", *SCARF, "--n", "1", "--n-points", "100"],
    "negative-n": ["wavefunction", *SCARF, "--n", "-1", "--n-points", "256"],
    "no-level-from-file": ["verify", *SCARF, "--epsilon", "-1", "--n", "1",
                           "--from-file", "{tmp}/zero.csv"],
    "missing-file": ["verify", *SCARF, "--from-file", "{tmp}/missing.csv"],
    "missing-column": ["verify", *SCARF, "--from-file", "{tmp}/no_im.csv"],
    "bad-number": ["verify", *SCARF, "--from-file", "{tmp}/bad_number.csv"],
    "zero-profile": ["verify", *SCARF, "--from-file", "{tmp}/zero.csv"],
    "verify-file-nan": ["verify", *SCARF, "--from-file", "{tmp}/nan.csv"],
    "verify-file-inf": ["verify", *SCARF, "--from-file", "{tmp}/inf.csv"],
    "scan-morse": ["scan", *MORSE, "--start", "0", "--stop", "1", "--step", "0.5"],
    "scan-stop-inf": ["scan", *SCARF, "--start", "0.1", "--stop", "inf", "--step", "0.5"],
    "scan-huge-range": ["scan", *SCARF, "--start", "0", "--stop", "1e9", "--step", "1e-9"],
    "morse-ab-A-1e200": ["analyze", "--family", "morse-ab", "--A", "1e200", "--B", "1",
                         "--gamma-p", "3", "--delta-p", "3"],
    "morse-v1-1e308": ["analyze", "--family", "morse", "--v1r", "1e308", "--v1i", "1e308",
                       "--v2r", "1", "--v2i", "1"],
    # c rounds to inf at 15 digits: the document would say "c": Infinity
    "gpt-c-rounds-to-inf": ["analyze", "--family", "poschl-teller", "--v1", "2", "--v2", "1",
                            "--c", "1.7976931348623157e308", "--contour-gamma", "0.3"],
    "verify-over-dense-cap": ["verify", *SCARF, "--n-points", "4100"],
    "verify-n-points-0": ["verify", *SCARF, "--n-points", "0"],
    "wavefunction-n-points-0": ["wavefunction", *SCARF, "--n-points", "0"],
    "verify-x-max-inf": ["verify", *SCARF, "--x-max", "inf", "--n-points", "100"],
    "verify-spacing-overflow": ["verify", *SCARF, "--x-min=-1e300", "--x-max=1e300",
                                "--n-points", "100"],
    "verify-spacing-underflow": ["verify", *SCARF, "--x-min", "1e-300", "--x-max", "2e-300",
                                 "--n-points", "100"],
    "verify-spacing-subnormal": ["verify", *SCARF, "--x-min", "1e-158", "--x-max", "1.99e-158",
                                 "--n-points", "100"],
    # h^2 is normal, but the Frobenius norm of H would square 1/h^2 below it
    "verify-spacing-norm-underflow-1e150": ["verify", *SCARF, "--x-min=-1e150",
                                            "--x-max=1e150", "--n-points", "100"],
    "verify-spacing-norm-underflow-1e80": ["verify", *SCARF, "--x-min=-1e80", "--x-max=1e80",
                                           "--n-points", "100"],
    "verify-tol-nan": ["verify", *SCARF, "--tol", "nan", "--n-points", "100"],
    "verify-decay-gate-negative": ["verify", *SCARF, "--decay-gate", "-1", "--n-points", "100"],
    "verify-residual-tol-nan": ["verify", *SCARF, "--residual-tol", "nan", "--n-points", "100"],
    "wavefunction-over-profile-cap": ["wavefunction", *SCARF,
                                      "--n-points", str(MAX_PROFILE_POINTS + 1),
                                      "--output", "{tmp}/f.csv"],
}


def _reject_constant(token):
    raise ValueError(f"non-JSON constant {token}")


def assert_rejected(capsys, argv):
    """main(argv) exits 2 within 1 s, warning-free, with one error line and valid JSON if any."""
    t0 = time.perf_counter()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(argv)
    elapsed = time.perf_counter() - t0
    captured = capsys.readouterr()
    assert [str(w.message) for w in caught] == []
    assert code == 2
    assert elapsed < 1.0
    assert "Traceback" not in captured.err
    assert captured.err.startswith("error: ")
    if captured.out.strip():
        json.loads(captured.out, parse_constant=_reject_constant)


@pytest.mark.parametrize("argv", BAD_INPUTS.values(), ids=BAD_INPUTS.keys())
def test_bad_input_exit_2(capsys, tmp_path, argv):
    for name, text in PROFILES.items():
        (tmp_path / name).write_text(text, newline="")
    assert_rejected(capsys, [a.replace("{tmp}", str(tmp_path)) for a in argv])


def test_env_grid_zero_exit_2(capsys, monkeypatch):
    monkeypatch.setenv("SPECTRA_DEFAULT_GRID_N", "0")
    assert_rejected(capsys, ["verify", *SCARF])


# Runs in a fresh interpreter: the closed-form commands, then one dense verify.
SCIPY_PROBE = """
import contextlib, io, json, os, sys, tempfile
from sl2spectra import cli

scarf = ["--family", "scarf2", "--v1", "9.75", "--v2", "6"]
out = {}
with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()):
    psi = os.path.join(tmp, "psi.csv")
    out["closed_form_exits"] = [cli.main(argv) for argv in (
        ["analyze", *scarf],
        ["scan", "--family", "scarf2", "--v1", "1", "--start", "0.1", "--stop", "2.5",
         "--step", "0.05"],
        ["wavefunction", *scarf, "--epsilon", "1", "--n", "2", "--n-points", "4001",
         "--output", psi],
        ["verify", *scarf, "--from-file", psi, "--epsilon", "1", "--n", "2"],
    )]
    out["scipy_after_closed_form"] = "scipy" in sys.modules
    out["dense_exit"] = cli.main(["verify", *scarf, "--n-points", "300"])
    out["scipy_after_dense"] = "scipy" in sys.modules
print(json.dumps(out))
"""


def test_scipy_loads_only_for_a_dense_solve():
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run(
        [sys.executable, "-c", SCIPY_PROBE],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    assert out["closed_form_exits"] == [0, 0, 0, 0]
    assert not out["scipy_after_closed_form"]
    assert out["dense_exit"] == 0
    assert out["scipy_after_dense"]


# One admissible spec per registered family, with every optional field off its
# default; a family added to the registry needs an entry here.
EXAMPLES = {
    "scarf2": families.ScarfSpec(9.75, 6.0),
    "poschl-teller": families.PoschlTellerSpec(9.75, -6.0, c=0.3, contour_gamma=-math.pi / 16),
    "morse": families.MorseSpec(0.5, 2.0, 3.0, 1.5),
    "morse-ab": families.MorseABSpec(1.0, 1.0, 3.0, 5.0),
}


def family_argv(spec):
    argv = ["--family", spec.family]
    for name, value in spec.parameters().items():
        argv += ["--" + name.replace("_", "-"), repr(value)]
    return argv


@pytest.mark.parametrize("cls", families.FAMILIES.values(), ids=families.FAMILIES.keys())
class TestFamilyContract:
    def test_cli_round_trip(self, cls):
        spec = EXAMPLES[cls.family]
        assert type(spec) is cls
        args = build_parser().parse_args(["analyze", *family_argv(spec)])
        assert _spec_from_args(args) == spec

    def test_parameters_document(self, cls, capsys):
        spec = EXAMPLES[cls.family]
        assert list(spec.parameters()) == [f.name for f in fields(cls)]
        code, out = run_cli(capsys, ["analyze", *family_argv(spec)])
        assert code in (0, 3)
        doc = json.loads(out)
        jsonschema.validate(doc, load_schema())
        assert doc["family"] == cls.family
        assert list(doc["parameters"]) == list(spec.parameters())
        assert doc["parameters"] == pytest.approx(spec.parameters(), rel=1e-14)

    def test_default_grid_spans_box(self, cls):
        grid = oracle.default_grid(EXAMPLES[cls.family])
        assert (grid.x_min, grid.x_max) == cls.box

    def test_with_swept_value(self, cls):
        spec = EXAMPLES[cls.family]
        if cls.sweep_field is None:
            with pytest.raises(InvalidSpec):
                families.with_swept_value(spec, 1.0)
            return
        value = getattr(spec, cls.sweep_field) + 0.5
        swept = families.with_swept_value(spec, value)
        assert type(swept) is cls
        assert swept.parameters() == {**spec.parameters(), cls.sweep_field: value}

    def test_non_finite_couplings_rejected(self, cls):
        spec = EXAMPLES[cls.family]
        over = math.nextafter(families.MAX_COUPLING, math.inf)
        for f in fields(cls):
            for bad in (math.nan, math.inf, -math.inf, over, -over):
                with pytest.raises(InvalidSpec):
                    replace(spec, **{f.name: bad})


def test_schema_lists_every_family():
    schema = load_schema()
    assert schema["properties"]["family"]["enum"] == list(families.FAMILIES)
    branch = schema["properties"]["branches"]["items"]["properties"]
    assert branch["potential_class"]["enum"] == [c.value for c in PotentialClass]


# The one-pass analyze writer against the dict tree plus json.dumps(indent=2)
# of tests/document_reference.py.  Couplings mix ordinary draws with doubles
# where the 15-digit rounding or float repr turns: -0.0, the smallest
# subnormal, the switch to exponent notation below 1e-4, and 15- and 16-digit
# integers (repr writes 1e16 but 9999999999999990.0).
EDGE_COUPLINGS = [-0.0, 5e-324, 1e-5, 123456789012345.0, 1e15, 9.99999999999999e15, 1e16]
SIGNED_EDGE = st.sampled_from(EDGE_COUPLINGS + [-x for x in EDGE_COUPLINGS])


def coupling(lo, hi):
    """A float in [lo, hi], or, one draw in four, a signed edge double."""
    ordinary = st.floats(lo, hi)
    return st.one_of(ordinary, ordinary, ordinary, SIGNED_EDGE)


@st.composite
def analyzed_specs(draw):
    """A spec of any family: no-branch, exact-threshold and ~40-level ones included.

    Scarf/gPT v1 up to 2000 gives up to ~45 levels a branch; v1 and |v2|
    below ~0.3 give no regular branch, and v2 = +-(v1 + 1/4) sits exactly on
    the threshold.
    """
    family = draw(st.sampled_from(list(families.FAMILIES)))
    try:
        if family in ("scarf2", "poschl-teller"):
            v1 = draw(st.one_of(coupling(-0.24, 2000), st.floats(0.0, 0.3)))
            if family == "scarf2":
                v1 = abs(v1)
            on_threshold = draw(st.booleans())
            v2 = v1 + 0.25 if on_threshold else draw(
                st.one_of(coupling(0.01, 3000), st.floats(0.01, 0.3))
            )
            v2 = -v2 if draw(st.booleans()) else v2
            if family == "scarf2":
                return families.ScarfSpec(v1, v2)
            gamma = draw(st.floats(0.01, 0.78))
            return families.PoschlTellerSpec(v1, v2, draw(coupling(-5, 5)), gamma)
        if family == "morse":
            return families.MorseSpec(*(draw(coupling(-100, 100)) for _ in range(4)))
        return families.MorseABSpec(
            abs(draw(coupling(0.01, 10))), *(draw(coupling(-10, 10)) for _ in range(3))
        )
    except InvalidSpec:
        reject()


def _report(spec):
    try:
        return spectrum.analyze(spec)
    except families.NoRegularBranch:
        return spectrum.classify(spec, [])


@settings(max_examples=500)
@given(analyzed_specs())
@example(families.ScarfSpec(0.0, 0.05))  # no regular branch
@example(families.ScarfSpec(9.75, 10.0))  # exact threshold
@example(families.ScarfSpec(1600.0, 3.0))  # 40 levels per branch
@example(families.MorseABSpec(1e-160, 1e-160, 3.0, 5.0))  # no branch, subnormal residual
@example(families.PoschlTellerSpec(2.0, 1.0, families.MAX_COUPLING, 0.3))  # largest c
@example(EXAMPLES["scarf2"])
@example(EXAMPLES["poschl-teller"])
@example(EXAMPLES["morse"])
@example(EXAMPLES["morse-ab"])
def test_report_document_matches_reference(spec):
    try:
        report = _report(spec)
    except InvalidSpec:  # more levels than MAX_LEVEL_COUNT, or overflowing couplings
        reject()
    if sum(len(levels) for _, levels in report.branches) > 500:
        reject()  # thousands of levels (a Morse v1 near 0) would overrun the deadline
    assert report_document(report) == reference_text(report)


def _empty_report():
    spec = families.MorseABSpec(1.0, 1.0, 1.0, 1.0)
    with pytest.raises(families.NoRegularBranch):
        spectrum.analyze(spec)
    return spectrum.classify(spec, [])


@pytest.mark.parametrize("family", [*EXAMPLES, "empty"])
def test_json_text_of_analyze_documents(family):
    if family == "empty":
        report = _empty_report()
        assert report.branches == [] and report.threshold_distance is None
    else:
        report = spectrum.analyze(EXAMPLES[family])
        assert report.branches
    text = report_document(report)
    assert text == reference_text(report)
    assert (json.loads(text)["branches"] == []) == (family == "empty")


# Where the one .15g format of _num turns: integral values, the [1e15, 1e16)
# range repr writes positionally, the smallest normals, the top of the range
# (rounding to inf past ~1.797693134862315e308), subnormals and non-finites.
@given(st.floats())
@example(-0.0)
@example(3.0)
@example(100.0)
@example(5e-324)
@example(999999999999999.4)
@example(999999999999999.9)
@example(1e15)
@example(9.999999999999995e15)
@example(1e16)
@example(2.2250738585072014e-308)
@example(2.225073858507201e-308)
@example(1e-307)
@example(1.79769313486231e308)
@example(1.797693134862315e308)
@example(1.7976931348623157e308)
@example(math.nan)
@example(math.inf)
@example(-math.inf)
def test_number_text_matches_json_dumps(x):
    assert _num(x) == json.dumps(float(f"{x + 0.0:.15g}"))
