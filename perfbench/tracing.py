"""Per-layer tracing of permclass from outside the package.

``Tracer.install`` replaces the public functions and methods listed in
``targets`` with wrappers that count calls and time them, and
``Tracer.uninstall`` puts the originals back, so untraced passes run
the unmodified program.  Nothing under ``src/`` is edited.

Spans are not stored one by one (the oracle makes millions of kernel
calls per pass); each wrapper adds into a ``Stat`` for its layer name
instead.  A layer's self time is its time minus the time of traced
calls made while it was active.  A name that is re-entered counts its
inclusive time at the outermost call only.
"""
from __future__ import annotations

import time
from typing import Callable


class Stat:
    __slots__ = ("calls", "incl", "self_s", "work", "depth")

    def __init__(self) -> None:
        self.calls = 0
        self.incl = 0.0
        self.self_s = 0.0
        self.work = 0
        self.depth = 0


def _nnz(xs) -> int:
    return sum(1 for x in xs if x)


def tpoly_coeff_mults(acc, p, q) -> int:
    """Products ``tpoly_mul_acc`` forms: nonzero p[i] times nonzero q[j]."""
    return _nnz(p) * _nnz(q)


def series_coeff_mults(a, b, order) -> int:
    """Products ``series_mul`` forms: nonzero a[i] times nonzero b[j]
    with i + j <= order."""
    prefix = [0]
    for x in b:
        prefix.append(prefix[-1] + (1 if x else 0))
    top = len(b) - 1
    return sum(prefix[min(top, order - i) + 1]
               for i, x in enumerate(a[:order + 1]) if x)


def avoiders(report) -> int:
    """Avoiders of length >= 1, the candidates the oracle accepted."""
    return sum(report.counts[1:])


def targets(pc) -> list[tuple]:
    """(owner, attribute names, layer name, work-from-args,
    work-from-result) for every traced entry point.  Aliases of one
    function (``__mul__``/``__rmul__``, a name imported into another
    module, the entries of the statistics table) share one layer name.
    ``pc`` maps module names to modules."""
    k, s, poly, alg = pc["_kernels"], pc["series"], pc["polynomials"], \
        pc["algebraic"]
    out = [
        (pc["cli"], ["main"], "cli.main", None, None),
        (k, ["tpoly_mul_acc"], "kernels.tpoly_mul_acc",
         tpoly_coeff_mults, None),
        (k, ["series_mul"], "kernels.series_mul", series_coeff_mults, None),
        (k, ["class_a_child_ok"], "kernels.class_a_child_ok", None, None),
        (k, ["class_b_child_ok"], "kernels.class_b_child_ok", None, None),
        (s.BivariateSeries, ["__mul__", "__rmul__"],
         "series.BivariateSeries.mul", None, None),
        (s.BivariateSeries, ["__init__"], "series.BivariateSeries.init",
         None, None),
        (s.BivariateSeries, ["inverse"], "series.BivariateSeries.inverse",
         None, None),
        (s.BivariateSeries, ["subst_t"], "series.BivariateSeries.subst_t",
         None, None),
        (s.UnivariateSeries, ["__mul__", "__rmul__"],
         "series.UnivariateSeries.mul", None, None),
        (pc["class_a"], ["iterate"], "class_a.iterate", None, None),
        (pc["class_a"], ["omega_apply"], "class_a.omega_apply", None, None),
        (pc["class_b"], ["iterate"], "class_b.iterate", None, None),
        (pc["class_b"], ["s_series"], "class_b.s_series", None, None),
        (pc["oracle"], ["enumerate_avoiders"], "oracle.enumerate_avoiders",
         None, avoiders),
        (pc["oracle"], ["statistic_distribution"],
         "oracle.statistic_distribution", None, avoiders),
        (poly.MultivariatePolynomial, ["eval"],
         "polynomials.MultivariatePolynomial.eval", None, None),
        (poly.MultivariatePolynomial, ["exact_div"],
         "polynomials.MultivariatePolynomial.exact_div", None, None),
        ([poly, alg], ["resultant"], "polynomials.resultant", None, None),
        ([poly, alg], ["newton_series_root"],
         "polynomials.newton_series_root", None, None),
        (pc["fixtures"], ["load_poly"], "fixtures.load_poly", None, None),
    ]
    for op in ("phi", "theta", "psi", "lambda", "xi"):
        out.append((pc["class_b"], [op + "_apply"],
                    "class_b.%s_apply" % op, None, None))
    for fn in ("guess_min_poly", "verify_annihilation", "kernel_root_check",
               "growth_exact", "kernel_extract"):
        out.append((alg, [fn], "algebraic." + fn, None, None))
    # the oracle looks statistics up in this table at call time
    stats = pc["oracle"].STATISTICS
    out.append((stats, sorted(stats), "perms.statistic", None, None))
    return out


def _get(owner, attr):
    if isinstance(owner, dict):
        return owner[attr]
    if isinstance(owner, type):
        return owner.__dict__[attr]
    return getattr(owner, attr)


def _set(owner, attr, value) -> None:
    if isinstance(owner, dict):
        owner[attr] = value
    else:
        setattr(owner, attr, value)


class Tracer:
    """Counts and times calls into permclass while installed."""

    def __init__(self, modules: dict) -> None:
        self._modules = modules
        self.stats: dict[str, Stat] = {}
        self._stack = [[0.0]]   # child time of each active span
        self._saved: list[tuple] = []

    def _wrap(self, name: str, fn: Callable, work, outcome) -> Callable:
        st = self.stats.setdefault(name, Stat())
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            st.calls += 1
            if work is not None:
                st.work += work(*args, **kwargs)
            frame = [0.0]
            stack.append(frame)
            st.depth += 1
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                st.depth -= 1
                stack.pop()
                stack[-1][0] += dt
                st.self_s += dt - frame[0]
                if not st.depth:
                    st.incl += dt
            if outcome is not None:
                st.work += outcome(result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every target; statistics start from zero."""
        if self._saved:
            raise RuntimeError("tracer already installed")
        self.stats = {}
        for owners, attrs, name, work, outcome in targets(self._modules):
            for owner in owners if isinstance(owners, list) else [owners]:
                for attr in attrs:
                    original = _get(owner, attr)
                    self._saved.append((owner, attr, original))
                    _set(owner, attr,
                         self._wrap(name, original, work, outcome))

    def uninstall(self) -> dict[str, Stat]:
        """Restore the originals and return the statistics gathered
        since ``install``."""
        while self._saved:
            owner, attr, original = self._saved.pop()
            _set(owner, attr, original)
        return self.stats


# Per-layer metrics, ``<layer>.<field>``; fields are read from the
# layer's Stat.  Every metric is reported on every workload, as 0 where
# the workload never enters the layer.  Layer ``kernels`` is the module
# ``permclass._kernels`` (metric names start with a letter).
_FIELDS = {"calls": ("calls", "count"), "s": ("incl", "s"),
           "self_s": ("self_s", "s"), "coeff_mults": ("work", "count")}

LAYER_METRICS = [
    "cli.main.self_s",
    "kernels.tpoly_mul_acc.calls", "kernels.tpoly_mul_acc.s",
    "kernels.tpoly_mul_acc.coeff_mults",
    "kernels.series_mul.calls", "kernels.series_mul.s",
    "kernels.series_mul.coeff_mults",
    "kernels.class_a_child_ok.calls", "kernels.class_a_child_ok.s",
    "kernels.class_b_child_ok.calls", "kernels.class_b_child_ok.s",
    "series.BivariateSeries.mul.calls", "series.BivariateSeries.mul.self_s",
    "series.BivariateSeries.init.calls", "series.BivariateSeries.init.s",
    "series.BivariateSeries.inverse.s", "series.BivariateSeries.subst_t.s",
    "series.UnivariateSeries.mul.calls",
    "series.UnivariateSeries.mul.self_s",
    "class_a.iterate.s", "class_a.omega_apply.calls",
    "class_a.omega_apply.self_s",
    "class_b.iterate.s", "class_b.s_series.s",
    "class_b.phi_apply.self_s", "class_b.theta_apply.self_s",
    "class_b.psi_apply.self_s", "class_b.lambda_apply.self_s",
    "class_b.xi_apply.self_s",
    "oracle.enumerate_avoiders.s", "oracle.statistic_distribution.s",
    "perms.statistic.calls", "perms.statistic.s",
    "polynomials.resultant.s", "polynomials.newton_series_root.s",
    "polynomials.MultivariatePolynomial.eval.self_s",
    "polynomials.MultivariatePolynomial.exact_div.s",
    "algebraic.guess_min_poly.self_s", "algebraic.verify_annihilation.self_s",
    "algebraic.kernel_root_check.self_s", "algebraic.growth_exact.self_s",
    "algebraic.kernel_extract.s",
    "fixtures.load_poly.s",
]


def layer_metrics(stats: dict[str, Stat]) -> dict[str, tuple]:
    """Metric name -> (value, unit) for one traced pass."""
    def get(layer, attr):
        st = stats.get(layer)
        return getattr(st, attr) if st else 0

    out = {}
    for metric in LAYER_METRICS:
        layer, field = metric.rsplit(".", 1)
        attr, unit = _FIELDS[field]
        out[metric] = (get(layer, attr), unit)
    candidates = (get("kernels.class_a_child_ok", "calls")
                  + get("kernels.class_b_child_ok", "calls"))
    accepted = (get("oracle.enumerate_avoiders", "work")
                + get("oracle.statistic_distribution", "work"))
    out["oracle.candidates"] = (candidates, "count")
    out["oracle.avoiders"] = (accepted, "count")
    out["oracle.accept_ratio"] = (accepted / candidates if candidates else 0,
                                  "ratio")
    return out
