"""Seeded generators of the files the benchmark hands to the program.

The same seed gives the same files.  Nothing here imports ``tubevol``.
"""

from __future__ import annotations

import cmath
import math
import random

import numpy as np

import reference as ref

# Every census record sits at least this relative distance from each of
# the four bounds, so binary64 rounding (about 1e-15 relative) can never
# decide a verdict.
CLEAR_MARGIN = 1e-6

# planted violators per class; each class violates the named inequalities
# and satisfies the others by CLEAR_MARGIN
PLANTED = {
    "perelman_only": 31,  # perelman
    # old, perelman and bridgeman: C_O > C_P, so old implies perelman; and
    # over these ranges a fitting tube has C_O B > v_fill + pi L, so old
    # implies bridgeman too
    "old": 17,
    "bridgeman_only": 23,  # bridgeman
    "b_le_vdrill_only": 29,  # b_le_vdrill
}


def _tube_columns(v_fill, length, radius):
    """The bound terms of each record, in binary64 numpy arithmetic."""
    b = v_fill + np.pi * length * np.sinh(radius) ** 2 / np.cosh(2.0 * radius)
    coth_2r = 1.0 / np.tanh(2.0 * radius)
    c_p = coth_2r**3
    c_o = (coth_2r / np.tanh(radius)) ** 1.5
    return b, c_p * b, c_o * b, v_fill + np.pi * length


def _draw_geometry(rng, m):
    """Candidate (v_fill, L, R) triples whose tube fits in the manifold."""
    length = rng.uniform(0.1, 2.5, m)
    radius = rng.uniform(0.4, 1.6, m)
    v_fill = rng.uniform(0.94, 6.0, m)
    fits = np.pi * length * np.sinh(radius) ** 2 <= v_fill
    return v_fill[fits], length[fits], radius[fits]


def _inside(v_drill, lo, hi):
    return (v_drill >= lo * (1.0 + CLEAR_MARGIN)) & (v_drill <= hi * (1.0 - CLEAR_MARGIN))


def _clean(rng, n, noise_sigma=0.017):
    """Records satisfying all four inequalities by CLEAR_MARGIN; the volume
    increase follows the census shape pi L (1/2 + eps)."""
    parts = []
    have = 0
    while have < n:
        v_fill, length, radius = _draw_geometry(rng, 2 * (n - have) + 64)
        eps = np.clip(rng.normal(0.0, noise_sigma, v_fill.size), -3 * noise_sigma, 3 * noise_sigma)
        v_drill = v_fill + np.pi * length * (0.5 + eps)
        b, sharp, _, bridge = _tube_columns(v_fill, length, radius)
        keep = _inside(v_drill, b, np.minimum(sharp, bridge))
        cols = [c[keep] for c in (v_fill, v_drill, length, radius)]
        parts.append(cols)
        have += cols[0].size
    return [np.concatenate([p[i] for p in parts])[:n] for i in range(4)]


def _planted(rng, kind, n):
    """Records violating exactly the inequalities of one class."""
    parts = []
    have = 0
    while have < n:
        v_fill, length, radius = _draw_geometry(rng, 256)
        b, sharp, old, bridge = _tube_columns(v_fill, length, radius)
        if kind == "perelman_only":
            lo, hi = sharp, np.minimum(old, bridge)
        elif kind == "old":
            lo = np.maximum(old, bridge)
            hi = 1.1 * lo
        elif kind == "bridgeman_only":
            lo, hi = bridge, sharp
        else:  # b_le_vdrill_only
            lo, hi = v_fill, b
        ok = hi > lo * (1.0 + 8 * CLEAR_MARGIN)
        lo, hi = lo[ok], hi[ok]
        v_drill = lo + rng.uniform(0.2, 0.8, lo.size) * (hi - lo)
        keep = _inside(v_drill, lo, hi)
        cols = [c[ok][keep] for c in (v_fill, length, radius)]
        parts.append([cols[0], v_drill[keep], cols[1], cols[2]])
        have += cols[0].size
    return [np.concatenate([p[i] for p in parts])[:n] for i in range(4)]


def census_dataset(path, seed: int, n: int) -> dict:
    """Write an ``n``-record census CSV with the PLANTED violators at
    random rows.  Returns the columns (binary64 arrays, in file order), the
    names, and the planted class of each planted row."""
    rng = np.random.default_rng([seed, 1])
    planted_total = sum(PLANTED.values())
    blocks = [_clean(rng, n - planted_total)]
    kinds = ["clean"] * (n - planted_total)
    for kind, count in PLANTED.items():
        blocks.append(_planted(rng, kind, count))
        kinds += [kind] * count
    cols = [np.concatenate([blk[i] for blk in blocks]) for i in range(4)]
    order = rng.permutation(n)
    v_fill, v_drill, length, radius = (c[order] for c in cols)
    kinds = [kinds[i] for i in order]
    names = [f"c{seed % 1000:03d}_{i:06d}" for i in range(n)]
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write("# generated census: seed %d, %d records\n" % (seed, n))
        handle.write("name,v_fill,v_drill,length,radius\n")
        handle.writelines(
            f"{nm},{a!r},{b!r},{c!r},{d!r}\n"
            for nm, a, b, c, d in zip(
                names, v_fill.tolist(), v_drill.tolist(), length.tolist(), radius.tolist()
            )
        )
    planted = {i: k for i, k in enumerate(kinds) if k != "clean"}
    return {
        "names": names,
        "v_fill": v_fill,
        "v_drill": v_drill,
        "length": length,
        "radius": radius,
        "planted": planted,
    }


def read_dataset(path) -> dict:
    """Columns of a dataset CSV as written by ``census_dataset`` or by
    ``tubevol synthesize``."""
    names, rows = [], []
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            if line.startswith("#") or line.startswith("name,"):
                continue
            name, rest = line.rstrip("\n").split(",", 1)
            names.append(name)
            rows.append(rest)
    values = np.array(",".join(rows).split(","), dtype=float).reshape(-1, 4)
    return {
        "names": names,
        "v_fill": values[:, 0],
        "v_drill": values[:, 1],
        "length": values[:, 2],
        "radius": values[:, 3],
    }


# ---------------------------------------------------------------------------
# Interactive inputs


def _moebius(a, b, c, d):
    s = cmath.sqrt(a * d - b * c)
    return (a / s, b / s, c / s, d / s)


def group_presentation(path, seed: int) -> None:
    """Write a two-generator presentation with core word ``a``.

    ``a`` translates along (0, INFINITY) by a complex length 0.9..1.0 (real
    part) with a twist up to 0.3; ``b`` translates by 0.6..0.8 (twist up to
    0.3) along a geodesic at distance 0.8..1.0 from that axis and turned
    1.0..1.5 radians about their common perpendicular (-1, 1).  Both
    generators move the point above 0 at height 1 by about 1, so words of
    length 9 have entries of order 10^2 and stay well inside the
    determinant check of ``MobiusTransform``.
    """
    rng = random.Random(f"group-{seed}")
    la = complex(rng.uniform(0.9, 1.0), rng.uniform(-0.3, 0.3))
    lb = complex(rng.uniform(0.6, 0.8), rng.uniform(-0.3, 0.3))
    delta, beta = rng.uniform(0.8, 1.0), rng.uniform(1.0, 1.5)
    ea, eb = cmath.exp(la / 2), cmath.exp(lb / 2)
    a = (ea, 0j, 0j, 1 / ea)
    ch, sh = math.cosh(delta / 2), math.sinh(delta / 2)
    c, s = math.cos(beta / 2), math.sin(beta / 2)
    move = ref.mat_mul((ch, sh, sh, ch), (c, 1j * s, 1j * s, c))
    b = ref.mat_mul(ref.mat_mul(move, (eb, 0j, 0j, 1 / eb)), ref.mat_inv(move))
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(f"# benchmark group, seed {seed}\n")
        for m in (a, _moebius(*b)):
            handle.write(" ".join(f"{complex(z).real!r} {complex(z).imag!r}" for z in m) + "\n")
        handle.write("core: a\n")


def read_group(path) -> tuple[list[tuple[complex, ...]], str]:
    generators, core = [], None
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if line.startswith("core:"):
                core = line[len("core:") :].strip()
                continue
            v = [float(x) for x in line.split()]
            generators.append(tuple(complex(v[i], v[i + 1]) for i in range(0, 8, 2)))
    return generators, core


def cone_profile(path, seed: int, samples: int = 64) -> tuple[list[float], list[float]]:
    """Write a monotone piecewise-linear cone profile on non-uniform angles
    (an even sample count, so Simpson's rule does not apply)."""
    rng = random.Random(f"profile-{seed}")
    inner = sorted(rng.uniform(0.05, 2 * math.pi - 0.05) for _ in range(samples - 2))
    angles = [0.0] + inner + [2 * math.pi]
    final = rng.uniform(0.1, 0.3)
    steps = sorted(rng.uniform(0.0, final) for _ in range(samples - 2))
    lengths = [0.0] + steps + [final]
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write("theta,length\n")
        handle.writelines(f"{a!r},{l!r}\n" for a, l in zip(angles, lengths))
    return angles, lengths


def estimate_triples(seed: int, count: int) -> list[tuple[float, float, float]]:
    rng = random.Random(f"estimate-{seed}")
    return [
        (rng.uniform(0.94, 6.0), rng.uniform(0.1, 2.5), rng.uniform(0.3, 1.6))
        for _ in range(count)
    ]


def min_scan_args(seed: int) -> tuple[float, float, float]:
    """(v_cusped, radius, l_max) for ``tubevol bounds --min-scan``."""
    rng = random.Random(f"min-scan-{seed}")
    return rng.uniform(2.0, 3.0), rng.uniform(0.5, 1.0), rng.uniform(0.5, 1.5)
