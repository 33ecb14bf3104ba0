"""Span tracer that wraps mrlife's public calls from outside the package.

Nothing under ``src/`` knows about it: ``Tracer.install`` rebinds module
attributes and class methods to timing wrappers and ``uninstall`` puts the
originals back.  Spans are aggregated in memory per name (calls, total
time, self time) and per caller edge, because the kernel layer alone makes
millions of calls per run; the aggregate is written out once, at the end.

Span rules:

* only outermost calls are counted: a call made while a span of the same
  name is open (``GenF.ln_survival`` delegating to ``GenFOrig``), or while a
  span it delegates to is open (``median`` calling ``percentile``), adds no
  span and its time stays with the caller;
* self time is a span's duration minus the time its child spans cover.
"""
import sys
import time

# span name -> names of callers it is folded into
_DELEGATIONS = {"residual.percentile": ("residual.median",)}

_DISTRIBUTION_METHODS = ("pdf", "cdf", "survival", "ln_survival", "ln_pdf",
                         "quantile", "isf", "mean", "mrl")

LAYERS = ("specfun", "integrate", "distributions", "residual", "regression",
          "fitting")


class Tracer:
    """In-memory span aggregation over wrapped mrlife calls."""

    def __init__(self):
        self.stats = {}   # name -> [calls, total_s, self_s]
        self.edges = {}   # (caller name or None, name) -> calls
        self.nfev = 0
        self.nit = 0
        self._stack = []  # open spans: [name, time covered by children]
        self._open = set()
        self._patches = []

    # -- recording ---------------------------------------------------------

    def wrap(self, name, fn, on_result=None):
        stack, open_names = self._stack, self._open
        stats, edges = self.stats, self.edges
        blockers = frozenset((name,) + _DELEGATIONS.get(name, ()))
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if not open_names.isdisjoint(blockers):
                return fn(*args, **kwargs)
            frame = [name, 0.0]
            stack.append(frame)
            open_names.add(name)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = clock() - start
                stack.pop()
                open_names.discard(name)
                entry = stats.get(name)
                if entry is None:
                    entry = stats[name] = [0, 0.0, 0.0]
                entry[0] += 1
                entry[1] += duration
                entry[2] += duration - frame[1]
                caller = None
                if stack:
                    stack[-1][1] += duration
                    caller = stack[-1][0]
                key = (caller, name)
                edges[key] = edges.get(key, 0) + 1
            if on_result is not None:
                on_result(result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _count_minimize(self, result):
        self.nfev += int(result.nfev)
        self.nit += int(result.nit)

    # -- installation --------------------------------------------------------

    def _set(self, owner, attr, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _rebind_everywhere(self, original, wrapper, callers):
        """Point every attribute bound to ``original`` at ``wrapper``, in the
        mrlife modules and in the calling modules."""
        modules = [m for n, m in list(sys.modules.items()) if m is not None
                   and (n == "mrlife" or n.startswith("mrlife."))]
        for module in modules + list(callers):
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._set(module, attr, wrapper)

    def install(self, callers=()):
        """Wrap every traced call site, including names that the modules in
        ``callers`` imported from mrlife; undone by ``uninstall``."""
        import bench_kernels
        import mrlife.cli  # noqa: F401  (bind the CLI's imported names too)
        from mrlife import (_integrate, distributions, fitting, regression,
                            residual, specfun)

        for kernel in bench_kernels._KERNEL_NAMES:
            fn = getattr(specfun, kernel)
            self._set(specfun, kernel, self.wrap(f"specfun.{kernel}", fn))

        for cls in (distributions.Distribution,) + distributions._CLASSES:
            for method in _DISTRIBUTION_METHODS:
                if method in vars(cls):
                    fn = vars(cls)[method]
                    self._set(cls, method,
                              self.wrap(f"distributions.{method}", fn))
        self._set(regression.SurvivalModel, "resolve_row",
                  self.wrap("regression.resolve_row",
                            regression.SurvivalModel.resolve_row))

        functions = [
            (distributions.make_distribution, "distributions.make_distribution", None),
            (_integrate.conditional_survival_integral, "integrate.quadrature", None),
            (residual.residual_life_table, "residual.residual_life_table", None),
            (residual.mean_residual_life, "residual.mean", None),
            (residual.median_residual_life, "residual.median", None),
            (residual.percentile_residual_life, "residual.percentile", None),
            (regression.predict_residual_life, "regression.predict_residual_life", None),
            (regression.load_model, "regression.load_model", None),
            (regression.save_model, "regression.save_model", None),
            (fitting.fit, "fitting.fit", None),
            (fitting.censored_loglik, "fitting.censored_loglik", None),
            (fitting.minimize, "fitting.minimize", self._count_minimize),
        ]
        for original, name, on_result in functions:
            self._rebind_everywhere(original, self.wrap(name, original, on_result),
                                    callers)
        return self

    def uninstall(self):
        while self._patches:
            owner, attr, value = self._patches.pop()
            setattr(owner, attr, value)

    # -- reading -------------------------------------------------------------

    def calls(self, name):
        return self.stats.get(name, (0, 0.0, 0.0))[0]

    def total_s(self, name):
        return self.stats.get(name, (0, 0.0, 0.0))[1]

    def self_s(self, name):
        return self.stats.get(name, (0, 0.0, 0.0))[2]

    def edge_calls(self, caller, name):
        return self.edges.get((caller, name), 0)

    def layer_total(self, layer, index):
        prefix = layer + "."
        return sum(v[index] for k, v in self.stats.items() if k.startswith(prefix))

    def merge(self, doc):
        """Add a dumped tracer (``to_dict``) into this one."""
        for name, (calls, total, own) in doc["stats"].items():
            entry = self.stats.setdefault(name, [0, 0.0, 0.0])
            entry[0] += calls
            entry[1] += total
            entry[2] += own
        for caller, name, calls in doc["edges"]:
            key = (caller, name)
            self.edges[key] = self.edges.get(key, 0) + calls
        self.nfev += doc["nfev"]
        self.nit += doc["nit"]

    def to_dict(self):
        return {
            "stats": {k: list(v) for k, v in sorted(self.stats.items())},
            "edges": [[c, n, k] for (c, n), k in sorted(
                self.edges.items(), key=lambda item: (str(item[0][0]), item[0][1]))],
            "nfev": self.nfev,
            "nit": self.nit,
        }
