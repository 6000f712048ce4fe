"""Concrete spectral symbols of the crisscross Taylor-Hood blocks.

The stiffness block of one velocity component is, up to an O(n) boundary
defect, a permuted compression of the 2-level block Toeplitz matrix with
the 8x8 Hermitian symbol built here; the two divergence blocks carry 8x2
rectangular symbols.  All coefficients are exact rationals with
denominators dividing 12.

One table is typed per block: the raw per-triangle stiffness stencil
(`stiffness_pre`, whose entries are single-element values) and the two
divergence tables.  The rest is derived from them.  The `stiffness`
symbol that generates the assembled matrix multiplies each raw entry by
the number of adjacent viscosity samples (`_MULTIPLICITY`: 2 for midpoint
couplings, 4 for center and 8 for corner diagonals, 1 for the
midpoint-midpoint terms).  The six unilevel symbols are slices of a
two-level one at a fixed offset of one level (`_SLICES`): g0 and g1 of
`stiffness_pre` in theta1, functions of theta2, and div_*0 and div_*1 of
the divergence symbols in theta2, functions of theta1.
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


def _entries_to_coeffs(table):
    """Convert an s1 x s2 table of {offset: Fraction} dicts into the
    coefficient-matrix form {offset: s1 x s2 matrix}."""
    s1, s2 = len(table), len(table[0])
    coeffs = {}
    for r in range(s1):
        for c in range(s2):
            for k, v in table[r][c].items():
                mat = coeffs.setdefault(k, [[F(0)] * s2 for _ in range(s1)])
                mat[r][c] += v
    return coeffs


def _e(v, *k):
    """Single term v * e^{i k.theta}."""
    return {tuple(k): F(v)}


def _z():
    return {}


def _h3(sign=1):
    """(1/6)(1 + e^{sign i theta1})(1 + e^{sign i theta2})."""
    s = F(1, 6)
    return {(0, 0): s, (sign, 0): s, (0, sign): s, (sign, sign): s}


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
    return BlockSymbol(8, 8, 2, _entries_to_coeffs(rows), hermitian=True)


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

def _divergence(c00, c10, c01, c11):
    return BlockSymbol(8, 2, 2, {
        (0, 0): c00, (-1, 0): c10, (0, -1): c01, (-1, -1): c11})


def _divergence_x():
    c00 = [[F(-1, 6), F(1, 6)], [F(-1, 12), F(1, 6)], [0, 0], [0, 0],
           [F(-1, 12), F(-1, 6)], [0, F(-1, 6)], [0, F(-1, 6)], [0, 0]]
    c10 = [[F(-1, 12), 0], [F(-1, 6), 0], [0, 0], [F(-1, 6), 0],
           [0, 0], [F(-1, 12), 0], [0, 0], [0, 0]]
    c01 = [[F(1, 12), 0], [0, 0], [0, 0], [0, 0],
           [F(1, 6), 0], [F(1, 12), 0], [0, F(1, 6)], [0, 0]]
    c11 = [[0, 0], [F(1, 12), 0], [0, 0], [F(1, 6), 0],
           [F(1, 12), 0], [F(1, 6), 0], [0, 0], [0, 0]]
    return _divergence(c00, c10, c01, c11)


def _divergence_y():
    c00 = [[F(-1, 6), F(1, 6)], [F(-1, 12), F(-1, 6)], [0, 0], [0, F(-1, 6)],
           [F(-1, 12), F(1, 6)], [0, F(-1, 6)], [0, 0], [0, 0]]
    c10 = [[F(1, 12), 0], [F(1, 6), 0], [0, 0], [0, F(1, 6)],
           [0, 0], [F(1, 12), 0], [0, 0], [0, 0]]
    c01 = [[F(-1, 12), 0], [0, 0], [0, 0], [0, 0],
           [F(-1, 6), 0], [F(-1, 12), 0], [F(-1, 6), 0], [0, 0]]
    c11 = [[0, 0], [F(1, 12), 0], [0, 0], [0, 0],
           [F(1, 12), 0], [F(1, 6), 0], [F(1, 6), 0], [0, 0]]
    return _divergence(c00, c10, c01, c11)


# the unilevel symbols: name -> (two-level symbol, level held fixed, its
# offset); each is a function of the other level's angle
_SLICES = {
    "g0": ("stiffness_pre", 0, 0), "g1": ("stiffness_pre", 0, 1),
    "div_x0": ("div_x", 1, 0), "div_x1": ("div_x", 1, -1),
    "div_y0": ("div_y", 1, 0), "div_y1": ("div_y", 1, -1),
}


def _slice(sym: BlockSymbol, level: int, k: int) -> BlockSymbol:
    """The one-level symbol of `sym`'s coefficients at offset k of `level`,
    keyed by the other level's offset; the k = 0 slice of a Hermitian
    symbol is Hermitian."""
    coeffs = {(off[1 - level],): m for off, m in sym.coeffs.items()
              if off[level] == k}
    return BlockSymbol(sym.s1, sym.s2, 1, coeffs,
                       hermitian=sym.hermitian and k == 0)


def _field_name(name: str) -> str:
    """The `StokesSymbolSet` field a symbol name or alias (A, Bx, By; any
    case, - for _) stands for."""
    key = name.lower().replace("-", "_")
    return {"a": "stiffness", "bx": "div_x", "by": "div_y"}.get(key, key)


@dataclass(frozen=True)
class StokesSymbolSet:
    """All block symbols of the saddle system.

    stiffness_pre / stiffness: 8x8 2-level (raw and multiplicity-scaled);
    g0, g1: unilevel slices with stiffness_pre(t1,t2) =
    g0(t2) + g1(t2) e^{i t1} + g1(t2)* e^{-i t1}; div_x, div_y: 8x2 2-level
    singular-value symbols with unilevel slices div_*0 / div_*1 in the
    first frequency, Gx(t1,t2) = gx0(t1) + gx1(t1) e^{-i t2}.
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
        key = _field_name(name)
        if key not in self.__dataclass_fields__:
            raise KeyError(f"unknown symbol {name!r}")
        return getattr(self, key)

    @staticmethod
    def slice_angle(name: str) -> int:
        """The angle (0 for theta1, 1 for theta2) that the unilevel symbol
        `name` is a function of; KeyError for a two-level one."""
        return 1 - _SLICES[_field_name(name)][1]


def build_symbol_set() -> StokesSymbolSet:
    """Construct all symbols from their tables and run the exact
    structural self-checks: Hermitian symmetry (`BlockSymbol`) and zero row
    sums of the stiffness symbol at theta = 0."""
    pre = _stiffness_pre()
    full = pre.map_entries(_apply_multiplicity)

    # zero row sums at theta = 0: constants lie in the stiffness kernel
    total = np.full((8, 8), F(0), dtype=object)
    for k in full.offsets():
        total = total + full.coefficient(k)
    if any(sum(row) != 0 for row in total):
        raise AssertionError("stiffness symbol rows do not sum to zero at 0")

    two_level = {"stiffness_pre": pre, "stiffness": full,
                 "div_x": _divergence_x(), "div_y": _divergence_y()}
    return StokesSymbolSet(**two_level, **{
        name: _slice(two_level[source], level, k)
        for name, (source, level, k) in _SLICES.items()})


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
