"""Reference writer of the analyze document: a dict tree dumped by the stdlib.

`cli.report_document` writes the document text in one pass; the tests hold it
to this tree builder plus json.dumps(doc, indent=2), byte for byte.
"""

import json


def _round15(x: float) -> float:
    return float(f"{x + 0.0:.15g}")


def reference_document(report) -> dict:
    """The schema-v1 analyze document of a SpectrumReport, as a dict tree."""
    branches = []
    for sol, levels in report.branches:
        r = sol.realization
        branches.append(
            {
                "epsilon": sol.epsilon,
                "branch_kind": sol.branch_kind.value,
                "potential_class": r.potential_class.value,
                "m_re": _round15(sol.m_re),
                "m_im": _round15(sol.m_im),
                "b_re": _round15(r.b_re),
                "b_im": _round15(r.b_im),
                "c": _round15(r.c),
                "contour_gamma": _round15(r.gamma),
                "n_max_exclusive": _round15(sol.n_max_exclusive),
                "levels": [
                    {
                        "n": lv.n,
                        "energy": [_round15(lv.energy.real), _round15(lv.energy.imag)],
                    }
                    for lv in levels
                ],
            }
        )
    spec = report.spec
    return {
        "schema_version": 1,
        "family": spec.family,
        "parameters": {k: _round15(v) for k, v in spec.parameters().items()},
        "classification": report.classification.value,
        "pt_symmetric": report.pt_symmetric,
        "threshold_distance": None
        if report.threshold_distance is None
        else _round15(report.threshold_distance),
        "reality_condition_residual": None
        if report.reality_condition_residual is None
        else _round15(report.reality_condition_residual),
        "branches": branches,
    }


def reference_text(report) -> str:
    """json.dumps of reference_document with a two-space indent."""
    return json.dumps(reference_document(report), indent=2)
