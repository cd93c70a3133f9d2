"""Seeded CLI argument lists for the benchmark workloads.

Each workload is a batch of `apsemigroups` command lines.

- wide-verify: the seed picks every family within fixed strata (k and box
  size), so every seed enumerates the same number of box cells.
- analyze-sweep and glued-verify: the family set is drawn once, with a fixed
  seed, and the workload seed shuffles the call order. Their call times
  depend on the coordinates in ways no input property predicts (membership
  search and toric elimination). A fresh random draw per seed moved the
  median call latency by 0.3 to 0.5 (quartile spread over median) across
  seeds, and mirroring the fixed families by seed (swapping x and y) still
  moved it by 0.28 on glued-verify: more than any bound allows.

Every family is validated with `build_family` before it enters the batch,
which is part of the benchmark's set-up.
"""

from __future__ import annotations

import random

from apsemigroups import FamilyError, Vec2, build_family

DEFAULT_SEED = 0
NAMES = ("analyze-sweep", "glued-verify", "wide-verify")
FAMILY_SEED = "perfbench/families/"

# analyze --format json; coordinates of a and d in 0..6. More families at
# small k than at large k. k = 10, 11, 12 take 14, 32 and 65 s at the seed
# commit, so the sweep stops at 9.
ANALYZE_COORD = 6
ANALYZE_COUNTS = {2: 4, 3: 4, 4: 7, 5: 3, 6: 2, 7: 1, 8: 1, 9: 1}

# verify --format json on glued families: the showcase of the paper plus
# GLUED_COUNT k = 2, mu = 2 families with a, d in 0..2 and b in 0..4.
SHOWCASE = ("2,3", "2,2", 3, "9,11")
GLUED_K = 2
GLUED_MU = 2
GLUED_COORD = 2
GLUED_B_COORD = 4
GLUED_COUNT = 12

# verify --skip-toric --format json on base families. Each stratum fixes the
# largest generator coordinate M (so the default enumeration box is 3M x 3M)
# and k; the seed picks a and d with that M.
WIDE_STRATA = tuple((m, k) for m in (60, 90, 120) for k in (2, 3, 4))
WIDE_REPEATS = 3


def _vec(v: Vec2) -> str:
    return f"{v.x},{v.y}"


def _family_argv(command: str, a: Vec2, d: Vec2, k: int, *extra: str) -> tuple:
    return (command, "--format", "json", "--a", _vec(a), "--d", _vec(d), "--k", str(k), *extra)


def _independent(a: Vec2, d: Vec2) -> bool:
    return a.x * d.y - a.y * d.x != 0


def _point(rng: random.Random, coord: int) -> Vec2:
    return Vec2(rng.randint(0, coord), rng.randint(0, coord))


def _analyze_families() -> list[tuple]:
    """(k, a, d) per ANALYZE_COUNTS, each family once."""
    rng = random.Random(FAMILY_SEED + "analyze-sweep")
    out: list[tuple] = []
    for k, count in ANALYZE_COUNTS.items():
        while sum(1 for f in out if f[0] == k) < count:
            a, d = _point(rng, ANALYZE_COORD), _point(rng, ANALYZE_COORD)
            if _independent(a, d) and (k, a, d) not in out:
                out.append((k, a, d))
    return out


def _glued_families() -> list[tuple]:
    """(a, d, b) with k = GLUED_K and mu = GLUED_MU, each family once."""
    rng = random.Random(FAMILY_SEED + "glued-verify")
    out: list[tuple] = []
    while len(out) < GLUED_COUNT:
        a, d = _point(rng, GLUED_COORD), _point(rng, GLUED_COORD)
        b = _point(rng, GLUED_B_COORD)
        if not _independent(a, d) or (a, d, b) in out:
            continue
        try:
            # With mu_bound = GLUED_MU this raises unless mu == GLUED_MU.
            build_family(a, d, GLUED_K, b, mu_bound=GLUED_MU)
        except FamilyError:
            continue
        out.append((a, d, b))
    return out


def _analyze_sweep(rng: random.Random) -> list[tuple]:
    out = []
    for k, a, d in _analyze_families():
        build_family(a, d, k)
        out.append(_family_argv("analyze", a, d, k))
    rng.shuffle(out)
    return out


def _glued_verify(rng: random.Random) -> list[tuple]:
    a, d, k, b = SHOWCASE
    out = [("verify", "--format", "json", "--a", a, "--d", d, "--k", str(k), "--b", b)]
    for a, d, b in _glued_families():
        build_family(a, d, GLUED_K, b, mu_bound=GLUED_MU)
        out.append(_family_argv("verify", a, d, GLUED_K, "--b", _vec(b)))
    rng.shuffle(out)
    return out


def _wide_family(rng: random.Random, m: int, k: int) -> tuple[Vec2, Vec2]:
    """a, d with max coordinate of a + k*d (the largest generator) equal to m."""
    while True:
        d = _point(rng, m // k)
        if rng.random() < 0.5:
            a = Vec2(m - k * d.x, rng.randint(0, m - k * d.y))
        else:
            a = Vec2(rng.randint(0, m - k * d.x), m - k * d.y)
        if _independent(a, d):
            return a, d


def _wide_verify(rng: random.Random) -> list[tuple]:
    out = []
    for _ in range(WIDE_REPEATS):
        for m, k in WIDE_STRATA:
            a, d = _wide_family(rng, m, k)
            build_family(a, d, k)
            out.append(_family_argv("verify", a, d, k, "--skip-toric"))
    return out


_GENERATORS = {
    "analyze-sweep": _analyze_sweep,
    "glued-verify": _glued_verify,
    "wide-verify": _wide_verify,
}


def generate(name: str, seed: int) -> list[tuple]:
    """The workload's batch of argument lists for `cli.main`, from the seed."""
    return _GENERATORS[name](random.Random(f"{name}/{seed}"))
