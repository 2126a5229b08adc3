"""Deterministic seed derivation and the task map that relies on it.

Every stochastic unit of work (one variational fit, one tree, one
split repetition) gets its own seed derived from the master seed and
the unit's identity, so serial and parallel execution produce
identical results regardless of scheduling order.  Reports name the
configuration they ran under by a fingerprint hashed the same stable way.
"""

import hashlib
import json
import math
from concurrent.futures import ProcessPoolExecutor


def derive_seed(master_seed: int, *parts) -> int:
    """Derive a child seed from a master seed and a key path.

    Stable across processes and platforms (unlike ``hash()``).
    """
    key = ":".join([str(int(master_seed))] + [str(p) for p in parts])
    digest = hashlib.sha256(key.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


def fingerprint(config) -> str:
    """The first 16 hex digits of the sha256 of ``config`` as sorted JSON."""
    canon = json.dumps(config, sort_keys=True, default=str)
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()[:16]


def map_tasks(fn, tasks: list, jobs: int) -> list:
    """``[fn(t) for t in tasks]``, on up to ``jobs`` worker processes.

    A pool starts all of its workers at the first submit, so it gets one
    worker per task at most; a single task, or ``jobs=1``, runs in this
    process.  Tasks go out in about four chunks per worker, each pickled
    once, so an object the tasks share is copied once per chunk.
    Results come back in task order either way.
    """
    workers = min(jobs, len(tasks))
    if workers <= 1:
        return [fn(t) for t in tasks]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, tasks, chunksize=math.ceil(len(tasks) / (4 * workers))))
