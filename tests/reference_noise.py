"""The engine's noise addressing, one run and one step at a time.

This is the reference the engine's tests compare ``noise.NoiseChunks``
against. It is written from the documented addressing alone: an ensemble
pass draws under the key ``SeedSequence(master_seed).generate_state(2,
np.uint64)``, and the uniform feeding component ``i`` of run ``r`` at step
``t`` is the double at position ``r * n + i`` of the Philox stream that
starts from the counter ``(0, t, 0, 0)``. The transforms are the documented
formulas, with the Cholesky factor of a positive definite covariance. A
dense factor is applied to one run's row at a time, which BLAS may round
differently from the engine's products of eight runs, so ``dense`` says
where only a tolerance applies.
"""

import numpy as np
from scipy.special import ndtri


def uniforms(master_seed: int, run: int, t: int, n: int) -> np.ndarray:
    """The ``n`` uniforms of ``run`` at step ``t``: the last ``n`` of the step's first ``(run + 1) * n``."""
    key = np.random.SeedSequence(master_seed).generate_state(2, np.uint64)
    stream = np.random.Generator(np.random.Philox(key=key, counter=np.array([0, t, 0, 0], dtype=np.uint64)))
    return stream.random((run + 1) * n)[run * n :]


def dense(spec) -> bool:
    """Whether the Gaussian's covariance, and so its factor, has off-diagonal entries."""
    return spec.kind == "gaussian" and bool(np.count_nonzero(spec.sigma - np.diag(np.diagonal(spec.sigma))))


def transform(spec, u: np.ndarray, t: int) -> np.ndarray:
    """The disturbance of step ``t`` made from the uniforms ``u`` (n,)."""
    if spec.kind == "gaussian":
        z = ndtri(np.maximum(u, 2.0**-54))
        F = np.linalg.cholesky(spec.sigma)
        g = (z * np.diagonal(F) if not dense(spec) else F @ z) + spec.mu
    elif spec.kind == "rademacher":
        g = np.where(u >= 0.5, 1.0, -1.0)
    elif spec.kind == "cauchy":
        g = np.tan((u - 0.5) * np.pi) * spec.scale
    else:
        raise ValueError(f"{spec.kind} noise draws no uniforms")
    return g if spec.time_scale is None else g * float(spec.time_scale(t))


def run_noise(spec, T: int, master_seed: int, run: int) -> np.ndarray:
    """Run ``run``'s disturbances of steps 1..T as a (T, n) block."""
    rows = [transform(spec, uniforms(master_seed, run, t, spec.n), t) for t in range(1, T + 1)]
    return np.array(rows).reshape(T, spec.n)
