"""Benchmark arithmetic: tail percentiles, failure shares, span self times.

Kept free of any biasaudit import so the self-test can check it on
hand-built inputs.
"""

def tail_percentile(values, beyond=10):
    """The highest integer percentile with at least ``beyond`` samples above it.

    Nearest-rank percentiles: the P-th percentile of n sorted samples is
    the sample of rank ceil(P * n / 100), and n - rank samples lie beyond
    it.  Returns ``(P, value)``, or ``None`` when fewer than ``beyond + 1``
    samples exist.
    """
    n = len(values)
    if n <= beyond:
        return None
    level = (100 * (n - beyond)) // n
    rank = max(1, -(-level * n // 100))  # ceil(level * n / 100) in integers
    return level, sorted(values)[rank - 1]


def command_failures(units, finished, failed_pairs=0, missing_curve_rows=0, repetitions=1):
    """Units of one command that failed.

    A command that did not finish with its reports fails every unit it
    attempted; otherwise failed (dataset, target) pairs count one each and
    a curve row the classifier skipped counts its ``repetitions`` forests.
    """
    if not finished:
        return units
    return failed_pairs + missing_curve_rows * repetitions


def failed_frac(failed, attempted):
    """Failed or skipped units over units attempted."""
    if attempted < 1:
        raise ValueError("nothing was attempted")
    if not 0 <= failed <= attempted:
        raise ValueError(f"failed={failed} outside [0, attempted={attempted}]")
    return failed / attempted


def self_times(spans):
    """Self time of every span: its duration minus the time its children cover.

    ``spans`` are ``(span_id, parent_id, name, start, end)`` tuples; a
    root span has ``parent_id`` None.  Child intervals are clipped to the
    parent and merged first, so overlapping children are not counted
    twice.  Returns ``{span_id: self_seconds}``.
    """
    children = {}
    for span_id, parent_id, _name, start, end in spans:
        if parent_id is not None:
            children.setdefault(parent_id, []).append((start, end))
    out = {}
    for span_id, _parent, _name, start, end in spans:
        covered = 0.0
        cur_lo = cur_hi = None
        for lo, hi in sorted(children.get(span_id, ())):
            lo, hi = max(lo, start), min(hi, end)
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out[span_id] = (end - start) - covered
    return out
