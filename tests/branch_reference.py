"""Reference branch rows: the matching equations as written before one root served them.

Scarf II and generalized Poschl-Teller split the coupling plane into three
regimes around the critical coupling |v2| = v1 + 1/4, with real-arithmetic
formulas for each; Morse built b and m from the real and imaginary parts of
sqrt(2 * v1) separately.  `families` now takes every branch from complex
arithmetic on one principal root, and the tests pin its rows to these, field
by field and bit for bit.
"""

import math

from sl2spectra.errors import NoRegularBranch
from sl2spectra.families import (
    REG_TOL,
    BranchKind,
    _morse_roots,
    _strictly_above,
)


def coupling_regime(v1: float, v2: float) -> tuple[str, float, float]:
    """(regime, sqrt(v1 + 1/4 + |v2|), sqrt(|v1 + 1/4 - |v2||)).

    regime is "real", "threshold" or "complex"; the threshold band has
    relative width REG_TOL.
    """
    s = v1 + 0.25
    a = abs(v2)
    diff = a - s
    if abs(diff) <= REG_TOL * max(1.0, a, s):
        return "threshold", math.sqrt(s + a), 0.0
    if diff < 0:
        return "real", math.sqrt(s + a), math.sqrt(-diff)
    return "complex", math.sqrt(s + a), math.sqrt(diff)


def scarf_rows(spec) -> list[tuple[int, BranchKind, float, float, complex]]:
    """Scarf II branch rows (epsilon, kind, m_re, m_im, b), one formula set per regime."""
    regime, sq_p, sq_m = coupling_regime(spec.v1, spec.v2)
    nu = 1.0 if spec.v2 > 0 else -1.0
    if regime == "complex":
        kind = BranchKind.COMPLEX_PAIR_MEMBER
        rows = [
            (eps, kind, 0.5 * sq_p, 0.5 * eps * sq_m,
             complex(0.5 * nu * eps * sq_m, 0.5 * nu * sq_p))
            for eps in (1, -1)
        ]
    else:
        kind = BranchKind.REAL_SERIES
        rows = [
            (eps, kind, 0.5 * (sq_p + eps * sq_m), 0.0,
             complex(0.0, 0.5 * nu * (sq_p - eps * sq_m)))
            for eps in ((1,) if regime == "threshold" else (1, -1))
        ]
    out = [row for row in rows if _strictly_above(row[2], 0.5)]
    if not out:
        raise NoRegularBranch(f"no branch satisfies m_re > 1/2 for {spec}")
    return out


def poschl_teller_rows(spec) -> list[tuple[int, BranchKind, float, float, complex]]:
    """The Scarf II rows with b multiplied by -i."""
    return [
        (eps, kind, m_re, m_im, complex(b.imag, 0.0 - b.real))
        for eps, kind, m_re, m_im, b in scarf_rows(spec)
    ]


def morse_rows(spec) -> list[tuple[int, BranchKind, float, float, complex]]:
    """The Morse branch row from the real and imaginary parts of sqrt(2 * v1)."""
    delta, nu, sp, sm = _morse_roots(spec)
    b_re = sp / math.sqrt(2)
    b_im = nu * sm / math.sqrt(2)
    denom = 2 * math.sqrt(2) * delta
    m_re = (sp * spec.v2r + nu * sm * spec.v2i) / denom
    m_im = (sp * spec.v2i - nu * sm * spec.v2r) / denom
    if not _strictly_above(m_re, 0.5):
        raise NoRegularBranch(f"Morse regularity fails: m_re = {m_re:.6g} is not > 1/2")
    if not _strictly_above(b_re, 0.0):
        raise NoRegularBranch(f"Morse regularity fails: b_re = {b_re:.6g} is not > 0")
    if spec.reality_residual() <= REG_TOL:
        return [(1, BranchKind.REAL_SERIES, m_re, 0.0, complex(b_re, b_im))]
    return [(1, BranchKind.COMPLEX_UNPAIRED, m_re, m_im, complex(b_re, b_im))]
