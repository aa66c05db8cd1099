"""Spans and counters recorded around gl3hecke's public names, from outside
the program.

Each name is replaced where its callers look it up (a module attribute, or a
class attribute for methods and constructors).  A span records its name,
start, end and parent span; spans stay in memory and are written out once
the traced repetition ends.  A layer's self time is its spans' time minus
the time covered by their child spans.  A name that no longer exists is
reported as absent and recording goes on without it.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict

import numpy as np

ROOT = "workload"


class Recorder:
    def __init__(self):
        self.names = [ROOT]
        self.spans: list[tuple[int, float, float, int]] = []
        self.stack = [-1]
        self.counts: dict[str, float] = defaultdict(float)
        self.absent: list[str] = []

    def run(self, fn, *args):
        """Call fn(*args) inside the root span."""
        return self._wrap(ROOT, fn, None)(*args)

    def _wrap(self, name, fn, post, span=True, pre=None):
        if name not in self.names:
            self.names.append(name)
        nid = self.names.index(name)
        spans, stack, counts = self.spans, self.stack, self.counts
        calls = name + ".calls"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if pre is not None:
                pre(counts, args)
            if not span:
                result = fn(*args, **kwargs)
            else:
                sid = len(spans)
                spans.append(None)
                parent = stack[-1]
                stack.append(sid)
                t0 = time.perf_counter()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    t1 = time.perf_counter()
                    stack.pop()
                    spans[sid] = (nid, t0, t1, parent)
            counts[calls] += 1
            if post is not None:
                post(counts, args, result)
            return result

        return wrapper

    def patch(self, name, owners, attr, post=None, span=True, pre=None):
        """Wrap `attr` on each owner (module or class) that holds the same
        object as the first owner.  A missing first owner or attribute makes
        the name absent."""
        original = getattr(owners[0], attr, None) if owners[0] is not None else None
        if original is None:
            self.absent.append(name)
            return
        wrapped = self._wrap(name, original, post, span, pre)
        for owner in owners:
            if owner.__dict__.get(attr) is original:
                setattr(owner, attr, wrapped)

    def _columns(self):
        arr = np.array(self.spans, dtype=float).reshape(-1, 4)
        return arr[:, 0].astype(np.int64), arr[:, 1], arr[:, 2], arr[:, 3].astype(np.int64)

    def self_times(self) -> dict[str, float]:
        """Self time per span name, seconds."""
        nid, start, end, parent = self._columns()
        dur = end - start
        child = np.zeros(len(dur))
        inner = parent >= 0
        np.add.at(child, parent[inner], dur[inner])
        own = np.bincount(nid, weights=dur - child, minlength=len(self.names))
        return {name: float(own[i]) for i, name in enumerate(self.names)}

    def save(self, path):
        """Write every span as arrays name_id, start, end, parent plus names."""
        nid, start, end, parent = self._columns()
        np.savez(path, name_id=nid, start=start, end=end, parent=parent,
                 names=np.array(self.names))


# ------------------------------------------------------- what gets wrapped

def _square_trunc(counts, args, result):
    coeffs = args[0]
    peak = max((abs(c) for c in coeffs), default=0)
    counts["tau.square_trunc.input_mbit"] += len(coeffs) * peak.bit_length() / 1e6


def _memo_probe(counts, args):
    table, m, n = args
    if (m, n) in table.entries:
        counts["hecke.CoefficientTable.value.hits"] += 1


def _second_moment_many(counts, args, result):
    polys = args[0]
    support = set().union(*(p.terms for p in polys)) if polys else set()
    counts["dirichlet.second_moment_many.terms"] += len(support) * len(polys)


def _indicator_mass(counts, args, result):
    counts["schuralg.indicator_mass.uncertainty"] += result[1]


def _sample_angles(counts, args, result):
    counts["measures.sample_angles.accepted"] += len(result[0])


def _density(counts, args, result):
    counts["measures.density.points"] += np.size(result)


def _integrate(counts, args, result):
    counts["measures.integrate.grid_points"] += args[2].resolution ** 2


def _integrate_adaptive(counts, args, result):
    counts["measures.integrate_adaptive.resolution_sum"] += result[1]


def install(rec: Recorder) -> None:
    """Wrap every traced name of gl3hecke."""
    from gl3hecke import arith, dirichlet, hecke, klpoly, measures, schuralg, signstats, tau

    rec.patch("tau.ramanujan_tau", [tau], "ramanujan_tau")
    rec.patch("tau.square_trunc", [tau], "square_trunc", _square_trunc)
    rec.patch("hecke.sym2_lift", [hecke], "sym2_lift")
    rec.patch("hecke.PrimeLocalData", [getattr(hecke, "PrimeLocalData", None)], "__init__")
    rec.patch("arith.is_prime", [arith, hecke, measures], "is_prime")
    rec.patch("hecke.CoefficientTable.value", [getattr(hecke, "CoefficientTable", None)],
              "value", pre=_memo_probe)
    for fn in ("sequence_from_table", "count_sign_changes", "sign_balance",
               "nonvanishing_density", "short_interval_sums", "interval_change_scan",
               "partial_sum_abs", "rankin_selberg_ratio"):
        rec.patch("signstats." + fn, [signstats], fn)
    rec.patch("dirichlet.second_moment_many", [dirichlet], "second_moment_many",
              _second_moment_many)
    rec.patch("dirichlet.build_MKD", [dirichlet], "build_MKD")
    rec.patch("dirichlet.DirichletPolynomial.eval",
              [getattr(dirichlet, "DirichletPolynomial", None)], "eval", span=False)
    rec.patch("dirichlet.d_estimate_ratio", [dirichlet], "d_estimate_ratio")
    rec.patch("schuralg.indicator_mass", [schuralg], "indicator_mass", _indicator_mass)
    rec.patch("measures.sample_angles", [measures], "sample_angles", _sample_angles)
    rec.patch("measures.density", [measures], "density", _density, span=False)
    rec.patch("measures.integrate", [measures], "integrate", _integrate)
    rec.patch("measures.integrate_adaptive", [measures], "integrate_adaptive",
              _integrate_adaptive)
    rec.patch("klpoly.kato_moment", [klpoly], "kato_moment")


def layer_metrics(rec: Recorder, names: list[str]) -> dict[str, float]:
    """Values of the per-layer metrics `names` from one traced repetition.
    Metrics of names the repetition never called read 0."""
    own = rec.self_times()
    counts = rec.counts
    out = {}
    for metric in names:
        base, _, kind = metric.rpartition(".")
        if kind == "s":
            out[metric] = own.get(base, 0.0)
        elif metric == "hecke.CoefficientTable.memo_hit_ratio":
            calls = counts.get("hecke.CoefficientTable.value.calls", 0.0)
            hits = counts.get("hecke.CoefficientTable.value.hits", 0.0)
            out[metric] = hits / calls if calls else 0.0
        elif metric == "measures.integrate_adaptive.resolution":
            calls = counts.get("measures.integrate_adaptive.calls", 0.0)
            total = counts.get("measures.integrate_adaptive.resolution_sum", 0.0)
            out[metric] = total / calls if calls else 0.0
        else:
            out[metric] = float(counts.get(metric, 0.0))
    return out
