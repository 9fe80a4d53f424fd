"""Dirichlet characters as explicit value tables mod r.

A character is given by its values, not built from the unit group: the
sums over whole character groups that D_psi needs collapse by
orthogonality to congruence tests (see `halfint._d_psi_coefficients`).
"""

from __future__ import annotations

from dataclasses import dataclass


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


def all_ones_character() -> Character:
    """The weight-one convention: chi(n) = 1 for every integer, n = 0 included."""
    return Character(1, (1.0 + 0.0j,))
