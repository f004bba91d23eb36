"""Independent test oracles: slow reference constructions the suite checks the library against."""

import random
from typing import Iterator

from normlab.conditions import rand_rational, random_seq_func
from normlab.errors import BoundExceeded
from normlab.finite_space import FiniteSpace


def enumerate_spaces_bruteforce(n: int) -> Iterator[FiniteSpace]:
    """Enumerate union-intersection-closed set families directly (tiny n only)."""
    if n > 3:
        raise BoundExceeded("brute-force family enumeration is for n <= 3")
    full = (1 << n) - 1
    middles = [m for m in range(1 << n) if m not in (0, full)]
    for pick in range(1 << len(middles)):
        fam = {0, full} | {m for i, m in enumerate(middles) if pick & (1 << i)}
        if all((u | v) in fam and (u & v) in fam for u in fam for v in fam):
            yield FiniteSpace(n, fam)


def random_feasible_x_pair(rng: random.Random) -> dict:
    """A random pair on the naturals admitting a convergent insertion."""
    f = random_seq_func(rng)
    shift = (max(f.cycle) - min(f.cycle)) + rand_rational(rng, lo=0)
    g = f + shift
    return {"f": f, "g": g}
