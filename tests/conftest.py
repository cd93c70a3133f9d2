import contextlib
import os
import random
import signal
import subprocess
import sys
from pathlib import Path

import pytest

from apsemigroups import (
    FamilyError,
    Vec2,
    build_family,
    det,
    is_member,
    ray_coordinates,
)


def random_family(rng: random.Random, k: int, max_coord: int = 6):
    """Rejection-sample a valid base family with small coordinates."""
    while True:
        a = Vec2(rng.randint(1, max_coord), rng.randint(0, max_coord))
        d = Vec2(rng.randint(0, max_coord), rng.randint(1, max_coord))
        if a.is_zero() or d.is_zero() or det(a, d) == 0:
            continue
        try:
            return build_family(a, d, k)
        except FamilyError:
            continue


def random_extended_family(
    rng: random.Random, k: int, max_coord: int = 4, bmax: int = 14, mu_bound: int = 8
):
    """Rejection-sample a glued family: scan extension candidates inside the
    cone until one passes validation."""
    for _ in range(60):
        f = random_family(rng, k, max_coord)
        r1, r2 = f.generators[0], f.generators[-1]
        candidates = [Vec2(x, y) for x in range(bmax + 1) for y in range(bmax + 1)]
        rng.shuffle(candidates)
        for b in candidates:
            if b.is_zero():
                continue
            c1, c2 = ray_coordinates(b, r1, r2)
            if c1 < 0 or c2 < 0 or is_member(f, b) is not None:
                continue
            try:
                return build_family(f.a, f.d, k, b, mu_bound=mu_bound)
            except FamilyError:
                continue
    raise RuntimeError("no extended family found; widen the search")


@pytest.fixture
def rng():
    return random.Random(20240915)


@pytest.fixture
def example_one():
    """<(5,4), (9,13), (13,22), (17,31)>: the k=3 showcase family."""
    return build_family(Vec2(5, 4), Vec2(4, 9), 3)


@pytest.fixture
def example_two():
    """<(2,3), (4,5), (6,7), (8,9)> glued with b=(9,11)."""
    return build_family(Vec2(2, 3), Vec2(2, 2), 3, Vec2(9, 11))


@pytest.fixture
def example_two_base():
    return build_family(Vec2(2, 3), Vec2(2, 2), 3)


@pytest.fixture
def hypothesis():
    return pytest.importorskip("hypothesis")


def property_settings(hypothesis):
    """Derandomized and bounded, so a property test runs the same examples
    on every run."""
    return hypothesis.settings(
        max_examples=150, derandomize=True, database=None, deadline=None
    )


@contextlib.contextmanager
def time_limit(seconds):
    """Fail, rather than hang, when the body runs longer than seconds."""

    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def run_fresh_python(code: str, *args: str, **env: str) -> str:
    """stdout of `python -c code args` in a new interpreter that imports the
    package from this checkout's `src`; raises if it exits nonzero."""
    root = Path(__file__).resolve().parent.parent
    full_env = dict(os.environ, **env)
    full_env["PYTHONPATH"] = str(root / "src") + (
        os.pathsep + full_env["PYTHONPATH"] if full_env.get("PYTHONPATH") else ""
    )
    return subprocess.run(
        [sys.executable, "-c", code, *args],
        cwd=root,
        env=full_env,
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    ).stdout
