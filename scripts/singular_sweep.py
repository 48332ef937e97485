#!/usr/bin/env python3
"""Equivalence sweep of the singular-point search on 264 seeded quartics.

    python3 scripts/singular_sweep.py

Draws 100 quartics over GF(2), searched at max_ext=5, 100 over GF(4) at
max_ext=3 and 64 over GF(8) at max_ext=2.  Quartic i over GF(2^k) comes
from random.Random(f"sweep264:{k}:{i}") and has shape i mod 5: four
planes, plane * plane * quadric, quadric * quadric, plane * cubic, or a
dense quartic singular at [0:0:0:1] moved by a random invertible change
of coordinates.  Nearly all are singular, many along curves, so the
sweep reaches every path of `geometry.singular_point_search`: frames
that degenerate, S vanishing identically, whole lines listed.  A quartic
with a repeated factor fails construction and is skipped.

Prints the number searched, a sha256 over the answers (each a sorted
list of (point, degree), or the CapabilityError raised) and the wall
time, and exits 1, printing the pinned digest too, when the sha256 is
not PINNED: two trees that give the same digest gave the same answers
on every quartic.  Takes 35-40 s on a 2-vCPU machine.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import random
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from quartic_lines.errors import CapabilityError, UsageError  # noqa: E402
from quartic_lines.field import FieldSpec  # noqa: E402
from quartic_lines.geometry import (QuarticSurface, mat_rank,  # noqa: E402
                                    singular_point_search)
from quartic_lines.poly import SparsePoly  # noqa: E402

# the sha256 of the answers: a change to any answer changes it
PINNED = "e905bb06d657773795f33b2065a524068b1001fc7f9dc8e46e84a2b2eb89f5dc"
# (k, quartics over GF(2^k), max_ext)
RUNS = ((1, 100, 5), (2, 100, 3), (3, 64, 2))
# degrees of the factors; None is the dense quartic singular at a point
SHAPES = ((1, 1, 1, 1), (1, 1, 2), (2, 2), (1, 3), None)


def monomials(degree: int) -> list:
    return [e for e in itertools.product(range(degree + 1), repeat=4)
            if sum(e) == degree]


def random_form(spec: FieldSpec, rng: random.Random,
                degree: int) -> SparsePoly:
    while True:
        f = SparsePoly(4, spec, {e: rng.randrange(spec.size)
                                 for e in monomials(degree)})
        if not f.is_zero():
            return f


def singular_quartic(spec: FieldSpec, rng: random.Random) -> SparsePoly:
    """A dense quartic with no monomial of degree >= 3 in x4, so singular
    at [0:0:0:1], moved by a random invertible change of coordinates."""
    f = SparsePoly(4, spec, {e: rng.randrange(spec.size)
                             for e in monomials(4) if e[3] <= 2})
    while True:
        m = [[rng.randrange(spec.size) for _ in range(4)] for _ in range(4)]
        if mat_rank(m, spec) == 4:
            return f.linear_change(m)


def quartic(k: int, i: int) -> SparsePoly:
    spec = FieldSpec.default(k)
    rng = random.Random(f"sweep264:{k}:{i}")
    shape = SHAPES[i % len(SHAPES)]
    if shape is None:
        return singular_quartic(spec, rng)
    f = random_form(spec, rng, shape[0])
    for d in shape[1:]:
        f = f * random_form(spec, rng, d)
    return f


def answer(surface: QuarticSurface, max_ext: int):
    try:
        pts = singular_point_search(surface, max_ext=max_ext)
    except CapabilityError:
        return "CapabilityError"
    return [[[hex(c) for c in p.point], p.ext] for p in pts]


def main() -> int:
    start = time.perf_counter()
    answers = []
    for k, count, max_ext in RUNS:
        for i in range(count):
            try:
                surface = QuarticSurface(quartic(k, i))
            except UsageError:          # a repeated factor
                continue
            answers.append([f"sweep264:{k}:{i}", answer(surface, max_ext)])
    digest = hashlib.sha256(json.dumps(answers).encode()).hexdigest()
    wall = time.perf_counter() - start
    print(f"searched {len(answers)} of {sum(r[1] for r in RUNS)}  "
          f"sha256 {digest}  wall {wall:.1f} s")
    if digest != PINNED:
        print(f"MISMATCH: sha256 {digest}, pinned {PINNED}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
