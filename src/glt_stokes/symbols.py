"""Concrete spectral symbols of the crisscross Taylor-Hood blocks.

The stiffness block of one velocity component is, up to an O(n) boundary
defect, a permuted compression of the 2-level block Toeplitz matrix with
the 8x8 Hermitian symbol built here; the two divergence blocks carry 8x2
rectangular symbols.  All coefficients are exact rationals with
denominators dividing 12.

Two stiffness symbols are kept: the raw per-triangle stencil table
(`stiffness_pre`, whose entries are single-element values) and the
sampling-multiplicity-scaled `stiffness` symbol actually generating the
assembled matrix, where each entry is multiplied by the number of adjacent
viscosity samples (2 for midpoint couplings, 4 for center and 8 for corner
diagonals, 1 for the midpoint-midpoint terms).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .glt_core import BlockSymbol

__all__ = [
    "StokesSymbolSet",
    "build_symbol_set",
    "saddle_symbol",
]

F = Fraction


def _entries_to_coeffs(table, levels):
    """Convert an s1 x s2 table of {offset: Fraction} dicts into the
    coefficient-matrix form {offset: s1 x s2 matrix}."""
    s1, s2 = len(table), len(table[0])
    coeffs = {}
    for r in range(s1):
        for c in range(s2):
            for k, v in table[r][c].items():
                key = (k,) if np.isscalar(k) else tuple(k)
                mat = coeffs.setdefault(key, [[F(0)] * s2 for _ in range(s1)])
                mat[r][c] += v
    return coeffs


def _e(v, *k):
    """Single term v * e^{i k.theta}."""
    return {tuple(k): F(v)}


def _z():
    return {}


def _h2(sign=1):
    """(1/6)(1 + e^{sign i theta}) as a 1-level entry."""
    return {(0,): F(1, 6), (sign,): F(1, 6)}


def _h3(sign=1, scale=1):
    """scale * (1/6)(1 + e^{sign i theta1})(1 + e^{sign i theta2})."""
    s = F(scale, 6)
    return {(0, 0): s, (sign, 0): s, (0, sign): s, (sign, sign): s}


def _unilevel_g0():
    q = F(8, 3)
    a = F(-2, 3)
    b = F(-4, 3)
    rows = [
        [_e(q, 0), _z(), _e(a, 0), _e(b, 1), _z(), _z(), _z(), _z()],
        [_z(), _e(q, 0), _e(a, 0), _e(b, 0), _z(), _z(), _z(), _z()],
        [_e(a, 0), _e(a, 0), _e(1, 0), _z(), _e(a, 0), _e(a, 1), _z(), _h2(+1)],
        [_e(b, -1), _e(b, 0), _z(), _e(q, 0), _e(b, 0), _e(b, 0), _z(), _z()],
        [_z(), _z(), _e(a, 0), _e(b, 0), _e(q, 0), _z(), _e(b, 0), _e(a, 0)],
        [_z(), _z(), _e(a, -1), _e(b, 0), _z(), _e(q, 0), _e(b, -1), _e(a, 0)],
        [_z(), _z(), _z(), _z(), _e(b, 0), _e(b, 1), _e(q, 0), _z()],
        [_z(), _z(), _h2(-1), _z(), _e(a, 0), _e(a, 0), _z(), _e(F(1, 2), 0)],
    ]
    return BlockSymbol(8, 8, 1, _entries_to_coeffs(rows, 1), hermitian=True)


def _unilevel_g1():
    # (2,7) is an edge-edge coupling (single sample, -4/3), forced by the
    # 2-level tables and confirmed against the assembled stiffness
    a = F(-2, 3)
    b = F(-4, 3)
    rows = [
        [_z()] * 6 + [_e(b, 0), _e(a, 1)],
        [_z()] * 6 + [_e(b, 0), _e(a, 0)],
        [_z()] * 7 + [_h2(+1)],
        [_z()] * 8,
        [_z()] * 8,
        [_z()] * 8,
        [_z()] * 8,
        [_z()] * 8,
    ]
    return BlockSymbol(8, 8, 1, _entries_to_coeffs(rows, 1))


def _stiffness_pre():
    """Raw per-sample 8x8 2-level symbol (theta1 = y offsets, theta2 = x)."""
    q = F(8, 3)
    a = F(-2, 3)
    b = F(-4, 3)
    rows = [
        [_e(q, 0, 0), _z(), _e(a, 0, 0), _e(b, 0, 1), _z(), _z(),
         _e(b, 1, 0), _e(a, 1, 1)],
        [_z(), _e(q, 0, 0), _e(a, 0, 0), _e(b, 0, 0), _z(), _z(),
         _e(b, 1, 0), _e(a, 1, 0)],
        [_e(a, 0, 0), _e(a, 0, 0), _e(1, 0, 0), _z(), _e(a, 0, 0),
         _e(a, 0, 1), _z(), _h3(+1)],
        [_e(b, 0, -1), _e(b, 0, 0), _z(), _e(q, 0, 0), _e(b, 0, 0),
         _e(b, 0, 0), _z(), _z()],
        [_z(), _z(), _e(a, 0, 0), _e(b, 0, 0), _e(q, 0, 0), _z(),
         _e(b, 0, 0), _e(a, 0, 0)],
        [_z(), _z(), _e(a, 0, -1), _e(b, 0, 0), _z(), _e(q, 0, 0),
         _e(b, 0, -1), _e(a, 0, 0)],
        [_e(b, -1, 0), _e(b, -1, 0), _z(), _z(), _e(b, 0, 0), _e(b, 0, 1),
         _e(q, 0, 0), _z()],
        [_e(a, -1, -1), _e(a, -1, 0), _h3(-1), _z(), _e(a, 0, 0),
         _e(a, 0, 0), _z(), _e(F(1, 2), 0, 0)],
    ]
    return BlockSymbol(8, 8, 2, _entries_to_coeffs(rows, 2), hermitian=True)


def _stiffness_full():
    """Multiplicity-scaled 8x8 2-level symbol (every entry -4/3 or a
    diagonal 16/3 / 4, plus the ±(1/3)-weighted corner-center window)."""
    q = F(16, 3)
    b = F(-4, 3)
    rows = [
        [_e(q, 0, 0), _z(), _e(b, 0, 0), _e(b, 0, 1), _z(), _z(),
         _e(b, 1, 0), _e(b, 1, 1)],
        [_z(), _e(q, 0, 0), _e(b, 0, 0), _e(b, 0, 0), _z(), _z(),
         _e(b, 1, 0), _e(b, 1, 0)],
        [_e(b, 0, 0), _e(b, 0, 0), _e(4, 0, 0), _z(), _e(b, 0, 0),
         _e(b, 0, 1), _z(), _h3(+1, scale=2)],
        [_e(b, 0, -1), _e(b, 0, 0), _z(), _e(q, 0, 0), _e(b, 0, 0),
         _e(b, 0, 0), _z(), _z()],
        [_z(), _z(), _e(b, 0, 0), _e(b, 0, 0), _e(q, 0, 0), _z(),
         _e(b, 0, 0), _e(b, 0, 0)],
        [_z(), _z(), _e(b, 0, -1), _e(b, 0, 0), _z(), _e(q, 0, 0),
         _e(b, 0, -1), _e(b, 0, 0)],
        [_e(b, -1, 0), _e(b, -1, 0), _z(), _z(), _e(b, 0, 0), _e(b, 0, 1),
         _e(q, 0, 0), _z()],
        [_e(b, -1, -1), _e(b, -1, 0), _h3(-1, scale=2), _z(), _e(b, 0, 0),
         _e(b, 0, 0), _z(), _e(4, 0, 0)],
    ]
    return BlockSymbol(8, 8, 2, _entries_to_coeffs(rows, 2), hermitian=True)


# sampling multiplicity per raw coefficient value: midpoint couplings and
# diagonals straddle 2 triangles, the center diagonal 4, the corner
# diagonal 8, midpoint-midpoint terms a single one
_MULTIPLICITY = {
    F(8, 3): 2, F(-2, 3): 2, F(1, 6): 2,
    F(1): 4, F(1, 2): 8, F(-4, 3): 1,
}


def _apply_multiplicity(value: Fraction) -> Fraction:
    if value == 0:
        return value
    return value * _MULTIPLICITY[value]


# divergence symbol tables: columns are the two pressure classes
# (corner, center); rows follow the velocity slots

def _divergence_x_coeffs():
    c00 = [[F(-1, 6), F(1, 6)], [F(-1, 12), F(1, 6)], [0, 0], [0, 0],
           [F(-1, 12), F(-1, 6)], [0, F(-1, 6)], [0, F(-1, 6)], [0, 0]]
    c10 = [[F(-1, 12), 0], [F(-1, 6), 0], [0, 0], [F(-1, 6), 0],
           [0, 0], [F(-1, 12), 0], [0, 0], [0, 0]]
    c01 = [[F(1, 12), 0], [0, 0], [0, 0], [0, 0],
           [F(1, 6), 0], [F(1, 12), 0], [0, F(1, 6)], [0, 0]]
    c11 = [[0, 0], [F(1, 12), 0], [0, 0], [F(1, 6), 0],
           [F(1, 12), 0], [F(1, 6), 0], [0, 0], [0, 0]]
    return c00, c10, c01, c11


def _divergence_y_coeffs():
    c00 = [[F(-1, 6), F(1, 6)], [F(-1, 12), F(-1, 6)], [0, 0], [0, F(-1, 6)],
           [F(-1, 12), F(1, 6)], [0, F(-1, 6)], [0, 0], [0, 0]]
    c10 = [[F(1, 12), 0], [F(1, 6), 0], [0, 0], [0, F(1, 6)],
           [0, 0], [F(1, 12), 0], [0, 0], [0, 0]]
    c01 = [[F(-1, 12), 0], [0, 0], [0, 0], [0, 0],
           [F(-1, 6), 0], [F(-1, 12), 0], [F(-1, 6), 0], [0, 0]]
    c11 = [[0, 0], [F(1, 12), 0], [0, 0], [0, 0],
           [F(1, 12), 0], [F(1, 6), 0], [F(1, 6), 0], [0, 0]]
    return c00, c10, c01, c11


def _divergence_symbols():
    out = []
    for c00, c10, c01, c11 in (_divergence_x_coeffs(), _divergence_y_coeffs()):
        two_level = BlockSymbol(8, 2, 2, {
            (0, 0): c00, (-1, 0): c10, (0, -1): c01, (-1, -1): c11})
        uni0 = BlockSymbol(8, 2, 1, {(0,): c00, (-1,): c10})
        uni1 = BlockSymbol(8, 2, 1, {(0,): c01, (-1,): c11})
        out.append((two_level, uni0, uni1))
    return out


@dataclass(frozen=True)
class StokesSymbolSet:
    """All block symbols of the saddle system.

    stiffness_pre / stiffness: 8x8 2-level (raw and multiplicity-scaled);
    g0, g1: unilevel slices with stiffness_pre(t1,t2) =
    g0(t2) + g1(t2) e^{i t1} + g1(t2)* e^{-i t1}; div_x, div_y: 8x2 2-level
    singular-value symbols with unilevel slices div_*_0 / div_*_1 in the
    first frequency.
    """

    stiffness_pre: BlockSymbol
    stiffness: BlockSymbol
    g0: BlockSymbol
    g1: BlockSymbol
    div_x: BlockSymbol
    div_x0: BlockSymbol
    div_x1: BlockSymbol
    div_y: BlockSymbol
    div_y0: BlockSymbol
    div_y1: BlockSymbol

    def by_name(self, name: str) -> BlockSymbol:
        key = name.lower().replace("-", "_")
        table = {
            "stiffness": self.stiffness, "a": self.stiffness,
            "stiffness_pre": self.stiffness_pre,
            "g0": self.g0, "g1": self.g1,
            "div_x": self.div_x, "bx": self.div_x,
            "div_y": self.div_y, "by": self.div_y,
            "div_x0": self.div_x0, "div_x1": self.div_x1,
            "div_y0": self.div_y0, "div_y1": self.div_y1,
        }
        if key not in table:
            raise KeyError(f"unknown symbol {name!r}")
        return table[key]


def _check_unilevel_split(full: BlockSymbol, g0: BlockSymbol, g1: BlockSymbol):
    """full(t1,t2) == g0(t2) + g1(t2) e^{i t1} + g1(t2)* e^{-i t1}, exactly."""
    g1h = g1.conj_transpose()
    for k1, part in ((0, g0), (1, g1), (-1, g1h)):
        for k2 in (-1, 0, 1):
            want = part.coefficient((k2,))
            got = full.coefficient((k1, k2))
            if not np.array_equal(want, got):
                raise AssertionError(
                    f"unilevel split mismatch at offsets ({k1},{k2})")


def build_symbol_set() -> StokesSymbolSet:
    """Construct all symbols and run the exact structural self-checks."""
    pre = _stiffness_pre()
    full = _stiffness_full()
    g0 = _unilevel_g0()
    g1 = _unilevel_g1()

    # multiplicity relation, entrywise on the rationals
    if pre.map_entries(_apply_multiplicity) != full:
        raise AssertionError("multiplicity scaling does not map raw symbol "
                             "to the assembled-stencil symbol")
    _check_unilevel_split(pre, g0, g1)

    # zero row sums at theta = 0: constants lie in the stiffness kernel
    total = np.full((8, 8), F(0), dtype=object)
    for k in full.offsets():
        total = total + full.coefficient(k)
    if any(sum(row) != 0 for row in total):
        raise AssertionError("stiffness symbol rows do not sum to zero at 0")

    (dx, dx0, dx1), (dy, dy0, dy1) = _divergence_symbols()
    return StokesSymbolSet(
        stiffness_pre=pre, stiffness=full, g0=g0, g1=g1,
        div_x=dx, div_x0=dx0, div_x1=dx1,
        div_y=dy, div_y0=dy0, div_y1=dy1,
    )


_SET = None


def default_symbol_set() -> StokesSymbolSet:
    global _SET
    if _SET is None:
        _SET = build_symbol_set()
    return _SET


def saddle_symbol(thetas: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The 18x18 saddle symbol at (nt, 2) frequency points, as two complex
    (nt, 18, 18) parts (V, D): the velocity part V = diag(G, G, 0) and the
    divergence part D = [[0, 0, Gx], [0, 0, Gy], [Gx*, Gy*, 0]].  The
    Hermitian symbol at viscosity weight w is D + w V."""
    syms = default_symbol_set()
    G = syms.stiffness.eval_grid(thetas)
    Gx = syms.div_x.eval_grid(thetas)
    Gy = syms.div_y.eval_grid(thetas)
    V = np.zeros((len(G), 18, 18), dtype=complex)
    V[:, 0:8, 0:8] = G
    V[:, 8:16, 8:16] = G
    D = np.zeros_like(V)
    D[:, 0:8, 16:18] = Gx
    D[:, 8:16, 16:18] = Gy
    D[:, 16:18, 0:8] = Gx.conj().transpose(0, 2, 1)
    D[:, 16:18, 8:16] = Gy.conj().transpose(0, 2, 1)
    return V, D
