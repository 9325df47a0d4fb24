"""Output check and determinism digest of one solver trial's final front."""

from __future__ import annotations

import hashlib
import struct

import numpy as np

from skyrelay import encoding


def front_problems(front, cfg, pop: int) -> list[str]:
    """Every way ``front`` fails the output check; empty when it passes.

    Each member must satisfy the discrete-domain constraints, re-evaluate
    to exactly its stored objectives, and be dominated by no other member;
    the front must be non-empty and no larger than the population.
    """
    problems = []
    if not front:
        problems.append("empty front")
    if len(front) > pop:
        problems.append(f"front of {len(front)} exceeds population {pop}")
    for i, ind in enumerate(front):
        try:
            encoding.check_discrete(ind.genome, cfg)
            again = encoding.evaluate(ind.genome, cfg)
        except ValueError as exc:
            problems.append(f"member {i}: {exc}")
            continue
        if again != ind.objectives:
            problems.append(f"member {i}: stored {ind.objectives} != re-evaluated {again}")
    if len(front) > 1:
        keys = np.array([ind.objectives.as_tuple() for ind in front])
        le = (keys[:, None, :] <= keys[None, :, :]).all(axis=2)
        lt = (keys[:, None, :] < keys[None, :, :]).any(axis=2)
        for a, b in zip(*np.nonzero(le & lt)):
            problems.append(f"member {a} dominates member {b}")
    return problems


def front_digest(front) -> str:
    """SHA-256 of the front's objective tuples, in front order, as raw doubles."""
    h = hashlib.sha256()
    for ind in front:
        h.update(struct.pack("<3d", *ind.objectives.as_tuple()))
    return h.hexdigest()
