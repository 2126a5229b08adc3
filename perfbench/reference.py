"""A fixed reference workload that measures how fast the machine runs right now.

The benchmark runs on a few cores of a shared host whose speed swings by
a third or more over tens of seconds.  Every timed command is bracketed
by this kernel in the same process, and the command's wall time is
reported in units of the kernel's wall time (``wall_ref``), which cancels
those swings.  The kernel imports nothing from biasaudit, so a change to
the program under test can never change the yardstick.  It mixes what
the workloads spend their time on: small numpy steps in a Python loop
(an ADVI iteration), sorts and cumulative sums over a few hundred rows
(a split search), a dense Cholesky factorization, and plain Python.
"""

import time

import numpy as np

# One call (ROUNDS kernels) takes about 0.1 s on a 2.1 GHz Xeon core.
ROUNDS = 6
STEPS = 150
SORT_ROUNDS = 40
# small matrices keep the kernel's memory well below any command's, so
# that it cannot set a command's peak RSS
CHOLESKY_N = 120
CHOLESKY_ROUNDS = 10
PYTHON_ITEMS = 20_000


def _kernel(rng):
    X = rng.standard_normal((200, 4))
    y = rng.standard_normal(200)
    acc = 0.0
    for _ in range(STEPS):
        theta = rng.standard_normal((8, 4))
        resid = y[None, :] - theta @ X.T
        acc += float(np.mean(-0.5 * np.sum(resid * resid, axis=1)))
        acc += float(np.sqrt(np.abs(theta)).sum())
    onehot = np.eye(15)[rng.integers(0, 15, size=500)]
    for _ in range(SORT_ROUNDS):
        order = np.argsort(rng.standard_normal(500), kind="stable")
        acc += float(np.cumsum(onehot[order], axis=0)[-1, 0])
    for _ in range(CHOLESKY_ROUNDS):
        A = rng.standard_normal((CHOLESKY_N, CHOLESKY_N))
        acc += float(np.linalg.cholesky(A @ A.T + CHOLESKY_N * np.eye(CHOLESKY_N))[-1, -1])
    counts = {}
    for i in range(PYTHON_ITEMS):
        key = (i * 7919) % 257
        counts[key] = counts.get(key, 0) + 1
    return acc + sorted(counts.values())[0]


def reference_seconds() -> float:
    """Wall time of one call of the fixed reference kernel."""
    rng = np.random.default_rng(20190704)
    start = time.perf_counter()
    for _ in range(ROUNDS):
        _kernel(rng)
    return time.perf_counter() - start
