"""Dirichlet characters as explicit value tables mod r.

The full character group mod r is constructed from generators of the unit
group (odd prime powers are cyclic; 2^e for e >= 3 is generated by -1 and
5), each generator CRT-lifted to be 1 modulo the complementary factor.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from sympy import factorint, primitive_root


@dataclass(frozen=True)
class Character:
    modulus: int
    values: tuple[complex, ...]  # length modulus; values[n % modulus]

    def __call__(self, n: int) -> complex:
        return self.values[n % self.modulus]

    @property
    def parity(self) -> int:
        """nu in {0,1} with chi(-1) = (-1)^nu."""
        return 0 if abs(self(-1) - 1) < 1e-9 else 1

    def is_trivial(self) -> bool:
        return all(v == 1 for v in self.values)


def all_ones_character() -> Character:
    """The weight-one convention: chi(n) = 1 for every integer, n = 0 included."""
    return Character(1, (1.0 + 0.0j,))


def _unit_group_generators(q: int, e: int) -> list[tuple[int, int]]:
    """Generators (g, order) of (Z/q^e)^* for prime q."""
    qe = q**e
    if q == 2:
        if e == 1:
            return []
        if e == 2:
            return [(3, 2)]
        return [(qe - 1, 2), (5, qe // 4)]
    return [(int(primitive_root(qe)), qe - qe // q)]


def characters_mod(r: int) -> list[Character]:
    """All phi(r) Dirichlet characters mod r as value tables."""
    if r == 1:
        return [all_ones_character()]
    gens: list[int] = []
    orders: list[int] = []
    for q, e in factorint(r).items():
        qe = q**e
        cof = r // qe
        for g, order in _unit_group_generators(q, e):
            if cof == 1:
                lifted = g % r
            else:
                # lifted = g mod q^e, 1 mod r/q^e
                inv = pow(qe, -1, cof)
                lifted = (g + qe * ((1 - g) * inv % cof)) % r
            gens.append(lifted)
            orders.append(order)

    # exponent tuple of every unit mod r
    table: dict[int, tuple[int, ...]] = {}

    def _rec(i: int, v: int, ts: tuple[int, ...]) -> None:
        if i == len(gens):
            if v in table:
                raise RuntimeError("unit group enumeration collision")
            table[v] = ts
            return
        cur = v
        for t in range(orders[i]):
            _rec(i + 1, cur, ts + (t,))
            cur = cur * gens[i] % r

    _rec(0, 1, ())
    if len(table) != sum(1 for n in range(r) if math.gcd(n, r) == 1):
        raise RuntimeError(f"generators do not span the units mod {r}")

    chars: list[Character] = []
    for flat in range(len(table)):
        js, rem = [], flat
        for o in orders:
            js.append(rem % o)
            rem //= o
        vals = [0.0 + 0.0j] * r
        for n, ts in table.items():
            phase = sum(j * t / o for j, t, o in zip(js, ts, orders))
            vals[n] = cmath.exp(2j * math.pi * phase)
        chars.append(Character(r, tuple(vals)))
    return chars
