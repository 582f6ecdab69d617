"""Instance generators for experiments and the CLI.

A discrete instance pins a function class down by its value table on the
support of a finite data measure; the table row i holds f_i at every support
point, so the product-measure checks read it as the class on the whole
support, and its population means are the measure's exact weighted sums.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    DimensionMismatch,
    DiscreteDistribution,
    EvaluatedClass,
    InvariantViolation,
)


@dataclass(frozen=True, eq=False)
class DiscreteInstance:
    """A function class given by its values on a finite support."""

    table: np.ndarray  # (m, s)
    envelope_b: float
    dist: DiscreteDistribution

    @classmethod
    def from_table(
        cls, table, envelope_b: float, dist: DiscreteDistribution, *, check_envelope: bool = True
    ) -> "DiscreteInstance":
        arr = np.atleast_2d(np.array(table, dtype=np.float64))
        if arr.shape[1] != dist.size:
            raise DimensionMismatch("table must have one column per support point")
        if check_envelope and float(np.abs(arr).max()) > envelope_b + 1e-12:
            raise InvariantViolation(
                f"table values reach {float(np.abs(arr).max())!r}, above envelope {envelope_b!r}"
            )
        arr.setflags(write=False)
        return cls(arr, float(envelope_b), dist)

    @property
    def support_class(self) -> EvaluatedClass:
        """The class on the whole support: column a holds every f_i at support point a.

        It skips re-validation: the table was checked (or the caller explicitly
        opted out so the audit can surface a bad envelope).
        """
        return EvaluatedClass(self.table, self.envelope_b, validate=False)


def random_discrete_instance(
    seed: int,
    *,
    m: int,
    support_size: int,
    envelope_b: float = 1.0,
) -> DiscreteInstance:
    """A random bounded table over a random fully supported finite measure."""
    rng = np.random.default_rng(seed)
    support = np.sort(rng.uniform(-1.0, 1.0, support_size))
    probs = rng.uniform(0.1, 1.0, support_size)
    probs /= probs.sum()
    table = rng.uniform(-envelope_b, envelope_b, (m, support_size))
    dist = DiscreteDistribution(support, probs)
    return DiscreteInstance.from_table(table, envelope_b, dist)


def identity_instance(dist: DiscreteDistribution) -> DiscreteInstance:
    """The singleton class {f(x) = x} over a scalar-support measure."""
    if dist.support.ndim != 1:
        raise DimensionMismatch("the identity family needs scalar support points")
    table = dist.support[None, :]
    return DiscreteInstance.from_table(table, float(np.abs(dist.support).max()), dist)


def random_evaluated_class(
    seed: int, *, m: int, n: int, envelope_b: float = 1.0
) -> EvaluatedClass:
    """A random sample-restricted class with a valid envelope."""
    rng = np.random.default_rng(seed)
    evals = rng.uniform(-envelope_b, envelope_b, (m, n))
    return EvaluatedClass(evals, envelope_b)
