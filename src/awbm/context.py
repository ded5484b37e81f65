"""Tuples of elements over the embeddings Z/f, the context (rank,
embeddings, prime) and the depth of a weight in the base p-alcove: what the
weight, set and gauge layers add to `group`.  No orders command loads it."""

from __future__ import annotations

from .errors import ArgumentError, ContextError, InputError
from .group import (Record, WeylElement, eta_vector, invert, is_restricted,
                    multiply, pairing, positive_roots, star)
from .primes import check_prime

__all__ = ["WeylTuple", "GroupContext", "weight_depth_base"]


# ---------------------------------------------------------------------------
# tuples over the embedding set J = Z/f

class WeylTuple(Record):
    """An f-tuple of elements, indexed by the embeddings Z/f; all group and
    order operations act componentwise, and pi shifts the index."""

    __slots__ = ("components",)

    def __init__(self, components):
        comps = tuple(components)
        if not comps:
            raise InputError("empty tuple")
        n = comps[0].n
        if any(c.n != n for c in comps):
            raise ContextError("mixed ranks inside a tuple")
        object.__setattr__(self, "components", comps)

    @property
    def f(self):
        return len(self.components)

    @property
    def n(self):
        return self.components[0].n

    def __getitem__(self, j):
        return self.components[j % self.f]

    def __iter__(self):
        return iter(self.components)

    def __mul__(self, other):
        self._match(other)
        return WeylTuple(tuple(multiply(a, b) for a, b in zip(self, other)))

    def _match(self, other):
        if not isinstance(other, WeylTuple) or other.f != self.f or other.n != self.n:
            raise ContextError("tuple shape mismatch")

    def inverse(self):
        return WeylTuple(tuple(invert(a) for a in self))

    def star(self):
        return WeylTuple(tuple(star(a) for a in self))

    def pi(self):
        """pi(x)_j = x_{j+1}; the identity when f = 1."""
        return WeylTuple(tuple(self[(j + 1) % self.f] for j in range(self.f)))

    def pi_inverse(self):
        return WeylTuple(tuple(self[(j - 1) % self.f] for j in range(self.f)))

    def is_restricted(self):
        return all(is_restricted(a) for a in self)

    def to_json(self):
        return [a.to_json() for a in self]

    @classmethod
    def from_json(cls, data):
        if not isinstance(data, list) or not data:
            raise InputError("tuple encoding must be a nonempty array")
        return cls(tuple(WeylElement.from_json(d) for d in data))


# ---------------------------------------------------------------------------
# context

class GroupContext(Record):
    """Rank, number of embeddings, and the (optional) prime."""

    __slots__ = ("n", "f", "p")

    def __init__(self, n, f=1, p=None):
        if n < 2:
            raise ArgumentError("rank must be at least 2")
        if f < 1:
            raise ArgumentError("need at least one embedding")
        if p is not None:
            check_prime(p)
        super().__init__(n, f, p)

    def weight_tuple(self, rows, name):
        """rows as a tuple of f integer rows of length n, the shape of a
        weight tuple over this context; ArgumentError names the field."""
        rows = tuple(tuple(int(x) for x in row) for row in rows)
        if len(rows) != self.f or any(len(row) != self.n for row in rows):
            raise ArgumentError(
                f"{name} must be {self.f} rows of length {self.n}")
        return rows

    def require_prime(self):
        if self.p is None:
            raise ArgumentError("this operation needs a prime in the context")
        return self.p


def weight_depth_base(lam, p: int) -> int:
    """Depth of lam inside the base p-alcove: largest m with
    m < <lam+eta, alpha∨> < p - m for all alpha > 0; -1 if outside."""
    n = len(lam)
    eta = eta_vector(n)
    best = p
    for root in positive_roots(n):
        v = pairing(lam, root) + pairing(eta, root)
        if not 0 < v < p:
            return -1
        best = min(best, v, p - v)
    return best - 1
