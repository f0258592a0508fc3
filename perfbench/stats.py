"""Summary statistics shared by the benchmark, its spread check and compare mode."""
from __future__ import annotations

import statistics


def quartiles(values) -> tuple[float, float, float]:
    """(q1, median, q3) as ``statistics.quantiles(values, n=4)`` gives them."""
    values = list(values)
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def spread(values) -> float:
    """Interquartile distance as a share of the median."""
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / abs(med) if med else float("inf")


def tail(values) -> tuple[float, float]:
    """Highest nearest-rank percentile with at least ten samples beyond it.

    Returns (value, percentile).  With fewer than eleven samples no such
    percentile exists and the maximum is returned as percentile 100.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n < 11:
        return ordered[-1], 100.0
    rank = n - 10
    return ordered[rank - 1], 100.0 * rank / n


def summary(values, unit: str) -> dict:
    """Median, quartiles and sample count of one metric's samples in a run."""
    q1, med, q3 = quartiles(values)
    return {"value": med, "unit": unit, "n": len(values), "q1": q1, "q3": q3}


def is_better(a: float, b: float, better: str) -> bool:
    return a < b if better == "lower" else a > b


def pair_verdict(parent: list[float], change: list[float], better: str,
                 bound: float | None) -> dict:
    """Apply the pair rule to runs paired by index (parent[i] with change[i]).

    A gain needs at least ten pairs, the change winning at least nine tenths
    of all pairs (ties count for neither side), and a median difference
    larger than the parent's interquartile distance.  A regression is a
    change median worse than the parent's by more than ``bound`` of it.  When
    the parent's own spread exceeds the bound, a metric without a gain is
    unresolved unless every change run beats every parent run.
    """
    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if is_better(c, p, better))
    losses = sum(1 for p, c in pairs if is_better(p, c, better))
    p_q1, p_med, p_q3 = quartiles(parent)
    c_q1, c_med, c_q3 = quartiles(change)
    diff = c_med - p_med
    out = {"pairs": len(pairs), "wins": wins, "losses": losses,
           "parent": [p_q1, p_med, p_q3], "change": [c_q1, c_med, c_q3],
           "delta_frac": diff / p_med if p_med else float("inf"),
           "parent_spread": spread(parent)}
    gained = (len(pairs) >= 10 and wins >= 0.9 * len(pairs)
              and abs(diff) > p_q3 - p_q1 and is_better(c_med, p_med, better))
    worse_frac = diff / abs(p_med) if better == "lower" else -diff / abs(p_med)
    all_better = all(is_better(c, p, better) for c in change for p in parent)
    if gained:
        out["verdict"] = "gain"
    elif bound is not None and worse_frac > bound:
        out["verdict"] = "regression"
    elif bound is not None and out["parent_spread"] > bound and not all_better:
        out["verdict"] = "unresolved"
    else:
        out["verdict"] = "no change"
    return out
