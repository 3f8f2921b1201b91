"""The engine's noise addressing, one run and one step at a time.

This is the reference the engine's tests compare ``noise.NoiseChunks``
against. It is written from the documented addressing alone: an ensemble
pass draws under the key ``SeedSequence(master_seed).generate_state(2,
np.uint64)``, and the value feeding component ``i`` of run ``r`` at step
``t`` is value ``r * n + i`` of the Philox stream that starts from the
counter ``(0, t, 0, 0)``: a ``standard_normal`` for the Gaussian kind, a
uniform double (``random``) for the others. The transforms are the
documented formulas, with the Cholesky factor of a positive definite covariance. A
dense factor is applied to one run's row at a time, which BLAS may round
differently from the engine's products of eight runs, so ``dense`` says
where only a tolerance applies.
"""

import numpy as np


def draws(spec, master_seed: int, run: int, t: int) -> np.ndarray:
    """The ``n`` values of ``run`` at step ``t``: the last ``n`` of the step's first ``(run + 1) * n``."""
    key = np.random.SeedSequence(master_seed).generate_state(2, np.uint64)
    stream = np.random.Generator(np.random.Philox(key=key, counter=np.array([0, t, 0, 0], dtype=np.uint64)))
    draw = stream.standard_normal if spec.kind == "gaussian" else stream.random
    return draw((run + 1) * spec.n)[run * spec.n :]


def dense(spec) -> bool:
    """Whether the Gaussian's covariance, and so its factor, has off-diagonal entries."""
    return spec.kind == "gaussian" and bool(np.count_nonzero(spec.sigma - np.diag(np.diagonal(spec.sigma))))


def transform(spec, u: np.ndarray, t: int) -> np.ndarray:
    """The disturbance of step ``t`` made from the values ``u`` (n,) that ``draws`` gives."""
    if spec.kind == "gaussian":
        F = np.linalg.cholesky(spec.sigma)
        g = (u * np.diagonal(F) if not dense(spec) else F @ u) + spec.mu
    elif spec.kind == "rademacher":
        g = np.where(u >= 0.5, 1.0, -1.0)
    elif spec.kind == "cauchy":
        g = np.tan((u - 0.5) * np.pi) * spec.scale
    else:
        raise ValueError(f"{spec.kind} noise draws nothing")
    return g if spec.time_scale is None else g * float(spec.time_scale(t))


def run_noise(spec, T: int, master_seed: int, run: int) -> np.ndarray:
    """Run ``run``'s disturbances of steps 1..T as a (T, n) block."""
    rows = [transform(spec, draws(spec, master_seed, run, t), t) for t in range(1, T + 1)]
    return np.array(rows).reshape(T, spec.n)
