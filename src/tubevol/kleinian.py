"""Geometry of the upper half-space model of hyperbolic 3-space.

Isometries are 2x2 complex matrices of determinant 1 acting on the extended
complex plane by fractional linear maps and on half-space by the Poincare
extension.  The module classifies elements, extracts complex translation
lengths and axes, measures the complex distance between geodesics, and
searches group presentations for the closest distinct lift of a geodesic,
which bounds the embedded tube radius from above.

Results of the tube-radius search are meaningful only when the input group
is discrete; discreteness is not verified here.
"""

from __future__ import annotations

import cmath
import enum
import math
import sys
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DomainError, NonLoxodromicError, ParseError, parse_number, read_lines
from .hypkernel import STRICT_FLOATS

__all__ = [
    "ComplexDistance",
    "GeodesicLine",
    "GroupPresentation",
    "H3Point",
    "INFINITY",
    "MobiusClass",
    "MobiusTransform",
    "TubeRadiusResult",
    "axis",
    "classify",
    "complex_length",
    "evaluate_word",
    "is_infinity",
    "line_distance",
    "point_distance",
    "read_presentation",
    "tube_radius_upper_bound",
]

_CLASSIFY_TOL = 1e-9
_SAME_LINE_TOL = 1e-9
# rounding of ad - bc, relative to |ad| + |bc|
_DET_ROUNDING = 16 * sys.float_info.epsilon
# a word fixes the core's axis when its matrix in the core's frame is
# diagonal or anti-diagonal to this tolerance, relative to its largest entry
_FIXES_AXIS_TOL = 1e-9
# the letters of words: letter 2i is generator i, letter 2i + 1 its inverse
_ALPHABET = "aAbBcCdDeEfFgGhHiIjJkKlLmMnNoOpPqQrRsStTuUvVwWxXyYzZ"


class _PointAtInfinity:
    """The ideal point at infinity of the extended complex plane."""

    __slots__ = ()

    def __repr__(self):
        return "INFINITY"


INFINITY = _PointAtInfinity()

ExtendedPoint = complex | _PointAtInfinity


def is_infinity(p) -> bool:
    return isinstance(p, _PointAtInfinity)


def _finite_complex(z: complex) -> bool:
    return math.isfinite(z.real) and math.isfinite(z.imag)


# beyond this magnitude a point is within 2e-150 of INFINITY on the sphere,
# and squaring it would overflow
_HUGE = 1e150


def _chordal(p: ExtendedPoint, q: ExtendedPoint) -> float:
    """Chordal distance on the Riemann sphere; a bounded metric that treats
    INFINITY like any other point."""
    p_far = is_infinity(p) or abs(p) > _HUGE
    q_far = is_infinity(q) or abs(q) > _HUGE
    if p_far and q_far:
        return 0.0
    if p_far:
        return 2.0 / math.hypot(1.0, abs(q))
    if q_far:
        return 2.0 / math.hypot(1.0, abs(p))
    return 2.0 * abs(p - q) / (math.hypot(1.0, abs(p)) * math.hypot(1.0, abs(q)))


# ---------------------------------------------------------------------------
# Mobius transformations


@dataclass(frozen=True)
class MobiusTransform:
    """2x2 complex matrix, normalized at construction to determinant 1.

    A matrix whose determinant is 1 up to the rounding of ad - bc is kept
    as given: dividing by a noisy sqrt(det) would only add error."""

    a: complex
    b: complex
    c: complex
    d: complex

    def __post_init__(self):
        a, b, c, d = (complex(v) for v in (self.a, self.b, self.c, self.d))
        det = a * d - b * c
        if not all(_finite_complex(v) for v in (a, b, c, d, det)):
            raise DomainError("MobiusTransform: entries and determinant must be finite")
        if det == 0:
            raise DomainError("MobiusTransform: matrix is singular")
        if abs(det - 1.0) > _DET_ROUNDING * (abs(a * d) + abs(b * c)):
            s = cmath.sqrt(det)
            a, b, c, d = a / s, b / s, c / s, d / s
            # entries that the division overflowed can pass the re-check
            det_ok = abs(a * d - b * c - 1.0) <= _DET_ROUNDING * (abs(a * d) + abs(b * c))
            if not (det_ok and all(_finite_complex(v) for v in (a, b, c, d))):
                raise DomainError("MobiusTransform: could not normalize determinant")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "d", d)

    def inverse(self) -> "MobiusTransform":
        return MobiusTransform(self.d, -self.b, -self.c, self.a)

    def __matmul__(self, other: "MobiusTransform") -> "MobiusTransform":
        return MobiusTransform(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
        )

    def trace(self) -> complex:
        return self.a + self.d

    def apply(self, p: ExtendedPoint) -> ExtendedPoint:
        """Fractional linear action on the extended complex plane; a
        quotient that overflows is INFINITY."""
        if is_infinity(p):
            num, den = self.a, self.c
        elif max(abs(p.real), abs(p.imag)) > _HUGE:
            # divided through by p, so that a p and c p cannot overflow
            num, den = self.a + self.b / p, self.c + self.d / p
        else:
            num, den = self.a * p + self.b, self.c * p + self.d
        if den == 0:
            return INFINITY
        z = num / den
        return z if _finite_complex(z) else INFINITY

    def apply_to_line(self, line: "GeodesicLine") -> "GeodesicLine":
        return GeodesicLine(self.apply(line.p), self.apply(line.q))


class MobiusClass(enum.Enum):
    IDENTITY = "identity"
    PARABOLIC = "parabolic"
    ELLIPTIC = "elliptic"
    LOXODROMIC = "loxodromic"


def classify(m: MobiusTransform) -> MobiusClass:
    """Classify by trace: tr^2 = 4 is parabolic (or +-identity), real trace
    of modulus < 2 is elliptic, anything else is loxodromic."""
    for sign in (1.0, -1.0):
        if max(abs(m.a - sign), abs(m.b), abs(m.c), abs(m.d - sign)) < _CLASSIFY_TOL:
            return MobiusClass.IDENTITY
    t = m.trace()
    if abs(t * t - 4.0) < _CLASSIFY_TOL:
        return MobiusClass.PARABOLIC
    if abs(t.imag) < _CLASSIFY_TOL and abs(t.real) < 2.0:
        return MobiusClass.ELLIPTIC
    return MobiusClass.LOXODROMIC


def complex_length(m: MobiusTransform) -> complex:
    """Complex translation length ell + i*theta of a loxodromic element,
    with ell > 0 and theta in (-pi, pi]; satisfies tr = +-2 cosh(length/2)."""
    if classify(m) is not MobiusClass.LOXODROMIC:
        raise NonLoxodromicError("complex_length: element is not loxodromic")
    t = m.trace()
    s = cmath.sqrt(t * t - 4.0)
    eig = 0.5 * (t + s)
    if abs(eig) < 1.0:
        eig = 0.5 * (t - s)
    lam = 2.0 * cmath.log(eig)
    theta = math.remainder(lam.imag, math.tau)
    if theta <= -math.pi:
        theta += math.tau
    return complex(lam.real, theta)


# ---------------------------------------------------------------------------
# Geodesics


def _point_key(p: ExtendedPoint):
    if is_infinity(p):
        return (0, 0.0, 0.0)
    return (1, p.real, p.imag)


@dataclass(frozen=True)
class GeodesicLine:
    """Geodesic of half-space, recorded by its unordered pair of distinct
    ideal endpoints (INFINITY sorts first, then lexicographic)."""

    p: ExtendedPoint
    q: ExtendedPoint

    def __post_init__(self):
        for v in (self.p, self.q):
            if not is_infinity(v) and not _finite_complex(complex(v)):
                raise DomainError("GeodesicLine: endpoints must be finite or INFINITY")
        p = self.p if is_infinity(self.p) else complex(self.p)
        q = self.q if is_infinity(self.q) else complex(self.q)
        if _point_key(p) == _point_key(q):
            raise DomainError("GeodesicLine: endpoints must be distinct")
        if _point_key(q) < _point_key(p):
            p, q = q, p
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "q", q)

    def same_line(self, other: "GeodesicLine", tol: float = _SAME_LINE_TOL) -> bool:
        """Whether the endpoint sets agree within ``tol`` in the chordal
        metric (canonical ordering makes the straight comparison suffice,
        but both pairings are checked for robustness near ties)."""
        return (
            _chordal(self.p, other.p) < tol and _chordal(self.q, other.q) < tol
        ) or (_chordal(self.p, other.q) < tol and _chordal(self.q, other.p) < tol)


def axis(m: MobiusTransform) -> GeodesicLine:
    """Axis of a loxodromic element: the geodesic joining its fixed points."""
    if classify(m) is not MobiusClass.LOXODROMIC:
        raise NonLoxodromicError("axis: element is not loxodromic")
    a, b, c, d = m.a, m.b, m.c, m.d
    scale = max(abs(a), abs(b), abs(c), abs(d), 1.0)
    if abs(c) <= 1e-14 * scale:
        return GeodesicLine(b / (d - a), INFINITY)
    # roots of c z^2 + (d - a) z - b, picking the larger-magnitude branch
    # first to dodge cancellation
    u = a - d
    s = cmath.sqrt(u * u + 4.0 * b * c)
    z1 = (u + s) / (2.0 * c) if abs(u + s) >= abs(u - s) else (u - s) / (2.0 * c)
    z2 = (-b / c) / z1 if b != 0 else u / c - z1
    return GeodesicLine(z1, z2)


# ---------------------------------------------------------------------------
# Distances


class H3Point(NamedTuple):
    """Interior point of upper half-space: horizontal coordinate and height."""

    w: complex
    t: float


def _distance(w1, t1, w2, t2):
    """Hyperbolic distance between the half-space points (w1, t1) and
    (w2, t2), scalars or broadcasting arrays: acosh(1 + q) in a form that
    keeps its precision for small q."""
    q = (abs(w1 - w2) ** 2 + (t1 - t2) ** 2) / (2.0 * t1 * t2)
    return 2.0 * np.arcsinh(np.sqrt(0.5 * q))


def point_distance(p1: H3Point, p2: H3Point) -> float:
    """Hyperbolic distance between interior points of half-space."""
    if not (p1.t > 0.0 and p2.t > 0.0):
        raise DomainError("point_distance: heights must be positive")
    return float(_distance(p1.w, p1.t, p2.w, p2.t))


@dataclass(frozen=True)
class ComplexDistance:
    """Complex distance along the common perpendicular of two geodesics:
    nonnegative real distance d and relative rotation phi in (-pi, pi].
    The angle convention follows the principal branch of acosh applied to
    the endpoint cross-ratio and is not load-bearing."""

    d: float
    phi: float
    same_line: bool = False


def _to_zero_infinity(line: GeodesicLine) -> MobiusTransform:
    """A transformation sending line.p to 0 and line.q to INFINITY; line.q
    is finite, since INFINITY sorts first."""
    p, q = line.p, line.q
    if is_infinity(p):
        return MobiusTransform(0.0, 1.0, 1.0, -q)
    return MobiusTransform(1.0, -p, 1.0, -q)


def _axis_distance(m: np.ndarray) -> np.ndarray:
    """Complex distance eta from (0, INFINITY) to its image under each matrix
    of an (n, 2, 2) stack.

    The image is (b/d, a/c), whose cross-ratio with (0, INFINITY) is
    x = bc/ad, and cosh(eta) = (1 + x)/(1 - x) = (ad + bc)/(ad - bc).  The
    form 2 asinh(sqrt(bc/(ad - bc))) keeps its precision at short distances.
    The matrices have determinant 1: ad - bc is used as computed where it
    lies within 0.5 of 1, so that it absorbs the rounding of the entries,
    and is 1 where large entries make the difference cancel.
    """
    a, b, c, d = m[:, 0, 0], m[:, 0, 1], m[:, 1, 0], m[:, 1, 1]
    bc = b * c
    det = a * d - bc
    return 2.0 * np.arcsinh(np.sqrt(bc / np.where(abs(det - 1.0) < 0.5, det, 1.0)))


def line_distance(g1: GeodesicLine, g2: GeodesicLine) -> ComplexDistance:
    """Complex distance between two geodesics.

    d is the minimal hyperbolic distance between them: 0 when they meet or
    share an ideal endpoint.  Identical lines are flagged ``same_line``.
    d is invariant under applying one transformation to both lines; phi only
    up to the branch convention.
    """
    if g1.same_line(g2):
        return ComplexDistance(0.0, 0.0, same_line=True)
    m = _to_zero_infinity(g1)
    u = m.apply(g2.p)
    v = m.apply(g2.q)
    if is_infinity(u) or v == 0:
        return ComplexDistance(0.0, math.pi)
    if is_infinity(v) or u == 0:
        return ComplexDistance(0.0, 0.0)
    if u == v:
        raise DomainError("line_distance: degenerate endpoint configuration")
    # [[v, u w], [1, w]], w = 1/(v - u), has determinant 1 and takes (0, INFINITY) to (u, v)
    w = 1.0 / (v - u)
    eta = complex(_axis_distance(np.array([[[v, u * w], [1.0, w]]]))[0])
    d = max(eta.real, 0.0)
    phi = eta.imag
    if phi <= -math.pi:
        phi += math.tau
    return ComplexDistance(d, phi)


# ---------------------------------------------------------------------------
# Tube radius search


@dataclass(frozen=True)
class GroupPresentation:
    """Generators of a Kleinian group plus the word whose axis projects to
    the geodesic under study.  Words use 'a'..'z' for generators and the
    corresponding capitals for inverses."""

    generators: tuple[MobiusTransform, ...]
    core_word: str

    def __post_init__(self):
        object.__setattr__(self, "generators", tuple(self.generators))
        if not self.generators:
            raise DomainError("GroupPresentation: need at least one generator")
        if len(self.generators) > len(_ALPHABET) // 2:
            raise DomainError(f"GroupPresentation: at most {len(_ALPHABET) // 2} generators")
        if not self.core_word:
            raise DomainError("GroupPresentation: core_word must be nonempty")
        core = evaluate_word(self.generators, self.core_word)
        if classify(core) is not MobiusClass.LOXODROMIC:
            raise NonLoxodromicError("GroupPresentation: core word is not loxodromic")

    def core(self) -> MobiusTransform:
        return evaluate_word(self.generators, self.core_word)


def _letter_matrices(generators) -> list[MobiusTransform]:
    """The matrix of each letter of ``_ALPHABET`` that ``generators`` spell:
    each generator, then its inverse."""
    return [m for gen in generators for m in (gen, gen.inverse())]


def evaluate_word(generators, word: str) -> MobiusTransform:
    """Product of generator matrices spelled by ``word``."""
    if not word:
        raise DomainError("evaluate_word: empty word")
    matrices = _letter_matrices(generators)
    m = None
    for letter in word:
        index = _ALPHABET.find(letter)
        if not 0 <= index < len(matrices):
            if not (letter.islower() or letter.isupper()):
                raise DomainError(f"invalid word letter {letter!r}")
            raise DomainError(f"word letter {letter!r} has no generator")
        m = matrices[index] if m is None else m @ matrices[index]
    return m


def _matrix(m: MobiusTransform) -> np.ndarray:
    return np.array([[m.a, m.b], [m.c, m.d]])


# duplicate words are matrices that agree to this many decimals
_KEY_DIGITS = 9


def _word_keys(words: np.ndarray) -> np.ndarray:
    """One key per matrix of an (n, 2, 2) stack of products of
    determinant-1 letters, as an (n, 8) uint64 array: the 8 real parts of
    the entries rounded to _KEY_DIGITS, negated if the first nonzero one is
    negative, so that M and -M share a key.  Equal keys have equal bits."""
    keys = np.round(words.reshape(-1, 4).view(np.float64), _KEY_DIGITS)
    first = keys[np.arange(len(keys)), np.argmax(keys != 0, axis=1)]
    np.negative(keys, out=keys, where=(first < 0)[:, None])
    keys += 0.0  # turns -0.0 into 0.0
    return keys.view(np.uint64)


# odd multiplier of the key hash (the 64-bit golden ratio)
_HASH_MULTIPLIER = np.uint64(0x9E3779B97F4A7C15)


def _key_hashes(keys: np.ndarray) -> np.ndarray:
    """One uint64 per key, mixed in from its words one at a time by xor,
    multiply and xor-shift, modulo 2^64.  Equal keys have equal hashes;
    unequal keys may too.  The shift carries each word's high bits (as the
    sign of an entry) into the low bits of the next round."""
    hashes = np.zeros(len(keys), dtype=np.uint64)
    for column in keys.T:
        hashes ^= column
        hashes *= _HASH_MULTIPLIER
        hashes ^= hashes >> 29
    return hashes


def _key_rows(keys: np.ndarray) -> np.ndarray:
    """An (n, 8) uint64 array of keys as n 64-byte values."""
    return keys.view(np.dtype((np.void, 64))).ravel()


def _new_rows(keys, hashes, *earlier) -> tuple[np.ndarray, list[np.ndarray]]:
    """The lowest row of each distinct key of ``keys`` that no earlier set
    holds, ordered by hash, and where their hashes go among each set's
    hashes (as by ``np.searchsorted``).  Each earlier set is a pair: its
    hashes, sorted, and a function giving its keys at an index array or a
    slice of them.

    The rows are sorted stably by hash, so the first row of each hash is the
    lowest row of its key, which is then looked up at one place among each
    set's hashes.  Every row of a repeated hash and every match is compared
    in full, each key as one 64-byte value; if two different keys share a
    hash, the rows are decided by sorting those values instead."""
    order = np.argsort(hashes, kind="stable")
    repeat = np.flatnonzero(hashes[order[1:]] == hashes[order[:-1]]) + 1
    rows = np.delete(order, repeat)
    h = hashes[rows]
    keys = _key_rows(keys)
    exact = (keys[order[repeat]] == keys[order[repeat - 1]]).all()
    new = np.ones(len(rows), dtype=bool)
    places = []
    for earlier_hashes, keys_at in earlier:
        at = np.searchsorted(earlier_hashes, h)
        match = np.flatnonzero(at < len(earlier_hashes))
        match = match[earlier_hashes[at[match]] == h[match]]
        if exact and len(match):
            exact = (keys[rows[match]] == _key_rows(keys_at(at[match]))).all()
        new[match] = False
        places.append(at)
    if exact:
        return rows[new], [at[new] for at in places]
    every = np.concatenate([_key_rows(keys_at(slice(None))) for _, keys_at in earlier] + [keys])
    rows = np.unique(every, return_index=True)[1] - (len(every) - len(keys))
    rows = rows[rows >= 0]
    rows = rows[np.argsort(hashes[rows], kind="stable")]
    return rows, [np.searchsorted(earlier_hashes, hashes[rows]) for earlier_hashes, _ in earlier]


class WordLevel(NamedTuple):
    """New words of one length, a chunk of them in breadth-first order:
    their matrices in the frame where the core's axis is (0, INFINITY),
    their spellings as indices into ``_ALPHABET``, and
    whether each ends with the core word or its inverse."""

    words: np.ndarray
    spelling: np.ndarray
    at_core: np.ndarray


# each word length is built from at most _CHUNKS chunks of its frontier,
# each of at least _CHUNK_WORDS candidate words (but the last)
_CHUNKS = 64
_CHUNK_WORDS = 2048


def _joined(columns, at, *rows):
    """``columns``, arrays of one length, with ``rows`` inserted before their
    rows ``at``, which are sorted; rows inserted at one place keep their
    order, as with ``np.insert``, which costs more per call and runs once
    per chunk here."""
    at = at + np.arange(len(at))
    kept = np.ones(len(columns[0]) + len(at), dtype=bool)
    kept[at] = False
    joined = []
    for old, new in zip(columns, rows):
        column = np.empty((len(kept), *old.shape[1:]), dtype=old.dtype)
        column[at] = new
        column[kept] = old
        joined.append(column)
    return tuple(joined)


def _word_levels(g: GroupPresentation, max_length: int):
    """Yield the new words of each word length 1, ..., max_length in turn,
    as WordLevels of a chunk of the length's candidates each, and stop at
    the first length with no new word.

    A word is new when it is reduced, does not begin with the core word or
    its inverse, and its matrix (by ``_word_keys``) is not that of an
    earlier word.  Words are in breadth-first order: shorter first, then by
    parent, then by letter; so the first word of each matrix is the one
    kept, and only new words are extended.  A chunk's words are looked up
    among the keys of shorter words, and among the earlier chunks of their
    length by hash and place (frontier row and letter), recomputing a key
    from its place where a hash matches; so no key of the length being
    built is kept.  Its words' keys join those of shorter words once it is
    done, unless it is the last length.
    """
    letters = _ALPHABET[: 2 * len(g.generators)]
    to_core = _to_zero_infinity(axis(g.core()))
    letter_matrices = (
        _matrix(to_core)
        @ np.stack([_matrix(m) for m in _letter_matrices(g.generators)])
        @ _matrix(to_core.inverse())
    )
    # _ALPHABET puts each letter beside its inverse: a, A, b, B, ...
    inverse_letter = np.arange(len(letters)) ^ 1
    core = np.array([letters.index(letter) for letter in g.core_word])
    cores = np.stack([core, inverse_letter[core[::-1]]])  # the core word and its inverse

    # the hashes of the new words of shorter lengths, sorted, and their keys
    known = np.empty(0, dtype=np.uint64), np.empty((0, 8), dtype=np.uint64)
    frontier = np.eye(2, dtype=complex)[None]
    # the letters of each frontier word after len(core) places of -1, so
    # that its last letter and its last len(core) letters are columns
    spelling = np.full((1, len(core)), -1, dtype=np.int8)

    def place_keys(places):
        parent, letter = np.divmod(places, len(letters))
        return _word_keys(frontier[parent] @ letter_matrices[letter])

    for length in range(1, max_length + 1):
        # the hashes of this length's new words so far, sorted, and the place
        # of each: its frontier row times len(letters) plus its letter
        level = np.empty(0, dtype=np.uint64), np.empty(0, dtype=np.int64)
        next_words, next_spelling = [], []
        step = max(-(-len(frontier) // _CHUNKS), -(-_CHUNK_WORDS // (len(letters) - 1)))
        for start in range(0, len(frontier), step):
            parent = np.arange(start, min(start + step, len(frontier))).repeat(len(letters))
            letter = np.tile(np.arange(len(letters), dtype=np.int8), len(parent) // len(letters))
            reduced = inverse_letter[letter] != spelling[parent, -1]
            parent, letter = parent[reduced], letter[reduced]
            rows = np.column_stack([spelling[parent], letter])
            at_core = (rows[:, None, -len(core) :] == cores).all(axis=2).any(axis=1)
            if length == len(core):  # words as long as the core end with it iff they begin with it
                kept = ~at_core
                parent, letter, rows, at_core = (x[kept] for x in (parent, letter, rows, at_core))
            words = frontier[parent] @ letter_matrices[letter]
            if not np.isfinite(words).all():
                raise DomainError("tube_radius_upper_bound: word entries overflow")
            keys = _word_keys(words)
            hashes = _key_hashes(keys)
            new, (_, at) = _new_rows(
                keys,
                hashes,
                (known[0], known[1].__getitem__),
                (level[0], lambda at: place_keys(level[1][at])),
            )
            if not len(new):
                continue
            level = _joined(level, at, hashes[new], parent[new] * len(letters) + letter[new])
            fresh = np.zeros(len(words), dtype=bool)
            fresh[new] = True
            chunk = WordLevel(words[fresh], rows[fresh, len(core) :], at_core[fresh])
            if length < max_length:
                next_words.append(chunk.words)
                next_spelling.append(rows[fresh])
            del parent, letter, rows, at_core, words, keys, hashes, new, fresh
            yield chunk
        if length == max_length or not len(level[0]):  # longer words extend new ones only
            return
        del level, frontier, spelling
        frontier, spelling = np.concatenate(next_words), np.concatenate(next_spelling)
        del next_words, next_spelling
        keys = _word_keys(frontier)
        hashes = _key_hashes(keys)
        order = np.argsort(hashes)
        keys, hashes = keys[order], hashes[order]
        known = _joined(known, np.searchsorted(known[0], hashes), hashes, keys)
        del keys, hashes, order


class TubeRadiusResult(NamedTuple):
    radius: float
    witness: str | None


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

    The search measures the words of ``_word_levels`` a chunk at a time, in
    breadth-first order, and the first word at the minimal distance is the
    witness.
    """
    if max_word_length < 1:
        raise DomainError("tube_radius_upper_bound: max_word_length must be >= 1")
    best_d, witness = math.inf, None
    for words, spelling, at_core in _word_levels(g, max_word_length):
        # a word whose off-diagonal or diagonal entries vanish fixes the axis
        mag = np.abs(words).reshape(-1, 4)
        tol = _FIXES_AXIS_TOL * mag.max(axis=1)
        fixes = np.minimum(mag[:, 1:3].max(axis=1), mag[:, ::3].max(axis=1)) <= tol
        moved = np.flatnonzero(~(fixes | at_core))
        if len(moved):
            d = np.maximum(_axis_distance(words[moved]).real, 0.0)
            j = int(np.argmin(d))
            if d[j] < best_d:
                best_d = float(d[j])
                witness = "".join(_ALPHABET[i] for i in spelling[moved[j]])
    return TubeRadiusResult(0.5 * best_d, witness)


# ---------------------------------------------------------------------------
# Presentation files


def read_presentation(path) -> GroupPresentation:
    """Read a presentation from ``errors.read_lines``: one to 26 generators,
    one per line as eight decimals (re/im of a, b, c, d), then a line
    ``core: <word>`` spelled with their letters; a second ``core:`` line
    and a generator that is not an invertible finite matrix are errors that
    name their line."""
    generators = []
    core_word = None
    for lineno, line in read_lines(path):
        if line.startswith("core:"):
            if core_word is not None:
                raise ParseError(
                    f"{path}: line {lineno}: a second 'core:' line (the first is line {core_line})"
                )
            core_word, core_line = line[len("core:") :].strip(), lineno
            continue
        parts = line.split()
        if len(parts) != 8:
            raise ParseError(f"{path}: line {lineno}: expected 8 values, got {len(parts)}")
        if len(generators) == len(_ALPHABET) // 2:
            raise ParseError(f"{path}: line {lineno}: more than {len(generators)} generators")
        try:
            v = [parse_number(p) for p in parts]
            generators.append(MobiusTransform(*map(complex, v[0::2], v[1::2])))
        except ValueError as exc:
            raise ParseError(f"{path}: line {lineno}: {exc}") from exc
    if core_word is None:
        raise ParseError(f"{path}: missing 'core: <word>' line")
    if not generators:
        raise ParseError(f"{path}: no generator lines")
    letters = _ALPHABET[: 2 * len(generators)]
    if not core_word or not set(core_word) <= set(letters):
        raise ParseError(
            f"{path}: line {core_line}: core word {core_word!r} is not a word in {letters}"
        )
    return GroupPresentation(tuple(generators), core_word)
