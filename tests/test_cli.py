"""End-to-end CLI tests: exit codes, document shapes, determinism."""

import csv
import io
import json
import math
import time
from dataclasses import fields, replace
from importlib import resources

import jsonschema
import pytest

from sl2spectra import InvalidSpec, families, oracle
from sl2spectra.cli import _spec_from_args, build_parser, main


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
    "scan-morse": ["scan", *MORSE, "--start", "0", "--stop", "1", "--step", "0.5"],
    "scan-stop-inf": ["scan", *SCARF, "--start", "0.1", "--stop", "inf", "--step", "0.5"],
    "scan-huge-range": ["scan", *SCARF, "--start", "0", "--stop", "1e9", "--step", "1e-9"],
    "morse-ab-A-1e200": ["analyze", "--family", "morse-ab", "--A", "1e200", "--B", "1",
                         "--gamma-p", "3", "--delta-p", "3"],
    "morse-v1-1e308": ["analyze", "--family", "morse", "--v1r", "1e308", "--v1i", "1e308",
                       "--v2r", "1", "--v2i", "1"],
}


def _reject_constant(token):
    raise ValueError(f"non-JSON constant {token}")


@pytest.mark.parametrize("argv", BAD_INPUTS.values(), ids=BAD_INPUTS.keys())
def test_bad_input_exit_2(capsys, tmp_path, argv):
    for name, text in PROFILES.items():
        (tmp_path / name).write_text(text, newline="")
    t0 = time.perf_counter()
    code = main([a.replace("{tmp}", str(tmp_path)) for a in argv])
    elapsed = time.perf_counter() - t0
    captured = capsys.readouterr()
    assert code == 2
    assert elapsed < 1.0
    assert "Traceback" not in captured.err
    assert captured.err.startswith("error: ")
    if captured.out.strip():
        json.loads(captured.out, parse_constant=_reject_constant)


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
        for f in fields(cls):
            for bad in (math.nan, math.inf, -math.inf):
                with pytest.raises(InvalidSpec):
                    replace(spec, **{f.name: bad})


def test_schema_lists_every_family():
    assert load_schema()["properties"]["family"]["enum"] == list(families.FAMILIES)
