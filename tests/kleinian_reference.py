"""Independent checks of ``tubevol.kleinian``, kept apart from the package.

``line_distance_oracle`` finds the distance between two geodesics by brute
force over points on both.  ``tube_radius_upper_bound`` is the word search
as it was when it found repeated matrices with a Python set of ``bytes``
keys, one key at a time, with the key rule of ``kleinian._word_keys``
written out row by row, so that the array search can be checked against it
bit for bit.
"""

import math

import numpy as np

from tubevol.errors import DomainError
from tubevol.kleinian import (
    _ALPHABET,
    _FIXES_AXIS_TOL,
    _KEY_DIGITS,
    GeodesicLine,
    GroupPresentation,
    TubeRadiusResult,
    _axis_distance,
    _distance,
    _letter_matrices,
    _matrix,
    _to_zero_infinity,
    axis,
)

# the floating-point errors the search raised on when it was written
STRICT_FLOATS = dict(over="raise", divide="raise", invalid="raise")


def _points_on_line(line: GeodesicLine, s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Arclength parameterization: images of (0, e^s) on the vertical axis
    under the map taking (0, INFINITY) back to ``line``."""
    m = _to_zero_infinity(line).inverse()
    t = np.exp(s)
    t2 = t * t
    den = abs(m.d) ** 2 + (abs(m.c) ** 2) * t2
    w = (m.b * np.conj(m.d) + m.a * np.conj(m.c) * t2) / den
    return w, t / den


def _pair_distances(g1: GeodesicLine, g2: GeodesicLine, s1: np.ndarray, s2: np.ndarray):
    """Distances between the points at arclengths s1 on g1 and s2 on g2, as
    a len(s1) x len(s2) matrix."""
    w1, t1 = _points_on_line(g1, s1)
    w2, t2 = _points_on_line(g2, s2)
    return _distance(w1[:, None], t1[:, None], w2[None, :], t2[None, :])


# re-grid window of the oracle's refinement: points per side, the
# half-width (in arclength) at which it stops, and a cap on the windows for
# pairs whose closest points lie out of reach (asymptotic lines)
_REFINE_POINTS = 9
_REFINE_HALF_WIDTH = 1e-9
_REFINE_ROUNDS = 200


def line_distance_oracle(
    g1: GeodesicLine,
    g2: GeodesicLine,
    grid: int = 64,
    span: float = 10.0,
    refine: bool = True,
) -> float:
    """Brute-force minimal distance between two geodesics.

    Both lines are parameterized by arclength over [-span, span]; the
    minimum of the pairwise point distance over a grid x grid lattice is
    then polished by a local search.  Intended as an independent check of
    ``line_distance`` on non-asymptotic pairs whose common perpendicular
    meets the parameterized segments.
    """
    if grid < 2:
        raise DomainError("line_distance_oracle: grid must be >= 2")
    s = np.linspace(-span, span, grid)
    dmat = _pair_distances(g1, g2, s, s)
    i, j = divmod(int(np.argmin(dmat)), grid)
    best = float(dmat[i, j])
    if not refine:
        return best
    # the distance is jointly convex in the two arclengths: re-grid a window
    # about the best pair, and shrink it while the best pair stays inside
    offsets = np.linspace(-1.0, 1.0, _REFINE_POINTS)
    x1, x2, half = s[i], s[j], s[1] - s[0]
    for _ in range(_REFINE_ROUNDS):
        if half <= _REFINE_HALF_WIDTH:
            break
        window = _pair_distances(g1, g2, x1 + half * offsets, x2 + half * offsets)
        k1, k2 = divmod(int(np.argmin(window)), _REFINE_POINTS)
        best = min(best, float(window[k1, k2]))
        x1, x2 = x1 + half * offsets[k1], x2 + half * offsets[k2]
        if 0 < k1 < _REFINE_POINTS - 1 and 0 < k2 < _REFINE_POINTS - 1:
            half *= 0.25
    return best


def _word_keys(words: np.ndarray) -> list[bytes]:
    """One key per matrix of an (n, 2, 2) stack of products of
    determinant-1 letters: the 8 real parts of the entries rounded to
    _KEY_DIGITS, negated if the first nonzero one is negative."""
    keys = []
    for row in np.round(words.reshape(-1, 4).view(np.float64), _KEY_DIGITS):
        if row[np.flatnonzero(row)[0]] < 0:
            row = -row
        # adding 0.0 turns -0.0 into 0.0, so equal keys have equal bytes
        keys.append((row + 0.0).tobytes())
    return keys


@np.errstate(**STRICT_FLOATS)
def tube_radius_upper_bound(
    g: GroupPresentation, max_word_length: int
) -> TubeRadiusResult:
    """Upper bound on the tube radius about the core geodesic: half the
    minimal distance from the core's axis to its image under any reduced
    word of length <= max_word_length that moves the axis.

    Longer words could bring lifts closer, so the result only bounds the
    radius from above.  A word core^j w core^k lies in the double coset
    <core> w <core> and moves the axis as far as w does, so words that begin
    with the core word or its inverse are not searched and words that end
    with either are not measured.  Words stabilizing the axis (powers of
    the core and other axis-preserving elements) are excluded; duplicate
    matrices are searched once.  Returns radius = inf with witness None when
    no distinct lift shows up within the search.

    The search runs one word length at a time on arrays, in the frame where
    the core's axis is (0, INFINITY).  Words are kept in breadth-first order
    (shorter first, then by parent, then by letter), and the first word at
    the minimal distance is the witness.
    """
    if max_word_length < 1:
        raise DomainError("tube_radius_upper_bound: max_word_length must be >= 1")
    letters = _ALPHABET[: 2 * len(g.generators)]
    to_core = _to_zero_infinity(axis(g.core()))
    letter_matrices = (
        _matrix(to_core)
        @ np.stack([_matrix(m) for m in _letter_matrices(g.generators)])
        @ _matrix(to_core.inverse())
    )
    # letters alternate generator, inverse: a, A, b, B, ...
    inverse_letter = np.arange(len(letters)) ^ 1
    core = np.array([letters.index(letter) for letter in g.core_word])
    cores = np.stack([core, inverse_letter[core[::-1]]])  # the core word and its inverse

    best_d, witness = math.inf, None
    seen: set[bytes] = set()
    frontier = np.eye(2, dtype=complex)[None]
    # the letters of each frontier word after len(core) places of -1, so
    # that its last letter and its last len(core) letters are columns
    spelling = np.full((1, len(core)), -1, dtype=np.int8)
    for level in range(max_word_length):
        parent = np.repeat(np.arange(len(frontier)), len(letters))
        letter = np.tile(np.arange(len(letters), dtype=np.int8), len(frontier))
        reduced = inverse_letter[letter] != spelling[parent, -1]
        parent, letter = parent[reduced], letter[reduced]
        rows = np.column_stack([spelling[parent], letter])
        at_core = (rows[:, None, -len(core) :] == cores).all(axis=2).any(axis=1)
        if level + 1 == len(core):  # words as long as the core end with it iff they begin with it
            parent, letter, rows, at_core = (x[~at_core] for x in (parent, letter, rows, at_core))
        words = frontier[parent] @ letter_matrices[letter]
        if not np.isfinite(words).all():
            raise DomainError("tube_radius_upper_bound: word entries overflow")
        fresh = np.zeros(len(words), dtype=bool)
        for i, key in enumerate(_word_keys(words)):
            if key not in seen:
                seen.add(key)
                fresh[i] = True
        frontier, spelling = words[fresh], rows[fresh]
        if not len(frontier):  # longer words extend fresh ones only, so none is left
            break
        # a word whose off-diagonal or diagonal entries vanish fixes the axis
        mag = np.abs(frontier).reshape(-1, 4)
        tol = _FIXES_AXIS_TOL * mag.max(axis=1)
        fixes = np.minimum(mag[:, 1:3].max(axis=1), mag[:, ::3].max(axis=1)) <= tol
        moved = np.flatnonzero(~(fixes | at_core[fresh]))
        if len(moved):
            d = np.maximum(_axis_distance(frontier[moved]).real, 0.0)
            j = int(np.argmin(d))
            if d[j] < best_d:
                best_d = float(d[j])
                witness = "".join(letters[i] for i in spelling[moved[j], len(core) :])
    return TubeRadiusResult(0.5 * best_d, witness)
