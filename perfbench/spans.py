"""Spans around the public functions of each valmon module.

The tracer patches the package from outside: every module attribute bound
to a traced function is replaced by its wrapper, so names imported by value
(``gbengine`` keeps its own ``eval_leading``, ``decompose``, ...) are traced
as well as calls through the defining module.  Spans stay in memory while
the workload runs; per-layer metrics are derived from them afterwards and
the raw spans are written out once the run ends.

A span is ``[target, start_ns, end_ns, parent, op, attr, failed]``: the
index of the traced function in TARGETS, the clock at entry and exit, the
index of the enclosing span (-1 at the top), the workload operation it ran
for, what the target's observer extracted from the call, and whether an
exception left it.
"""

import json
import sys
from time import perf_counter_ns

MODULES = ("gbengine", "bipoly", "valmonoid", "exactnum", "seqderive",
           "series", "cli")


def _calls(spans):
    return len(spans)


def _self_s(spans):
    return sum(s["self_ns"] for s in spans) / 1e9


def _attrs(spans):
    """What the observer recorded, for the calls that returned."""
    return [s["attr"] for s in spans if not s["failed"]]


def _sum_attr(spans):
    return sum(_attrs(spans))


def _share(pred):
    def share(spans):
        attrs = _attrs(spans)
        return sum(1 for a in attrs if pred(a)) / len(attrs) if attrs else 0.0
    return share


def _depth(n):
    return lambda spans: sum(1 for a in _attrs(spans) if a[2] == n)


# The functions traced, what each call records, and the metrics derived.
# Each metric is (suffix, unit, better, function of the target's spans);
# a span here is a dict with keys dur_ns, self_ns, attr and failed.
TARGETS = (
    ("gbengine", "buchberger", lambda a, r: r.iterations, (
        ("rounds", "count", "lower", _sum_attr),
    )),
    ("gbengine", "reduce",
     lambda a, r: (len(r.steps), r.remainder.is_zero()), (
        ("calls", "count", "lower", _calls),
        ("steps", "count", "lower",
         lambda spans: sum(a[0] for a in _attrs(spans))),
        ("nonzero_share", "ratio", "higher", _share(lambda a: not a[1])),
        ("zero_s", "s", "lower",
         lambda spans: sum(s["dur_ns"] for s in spans
                           if not s["failed"] and s["attr"][1]) / 1e9),
        ("self_s", "s", "lower", _self_s),
    )),
    ("gbengine", "syzygy_values", lambda a, r: len(r[0]), (
        ("values", "count", "lower", _sum_attr),
    )),
    ("gbengine", "approx_quotient", lambda a, r: r is not None, (
        ("found_share", "ratio", "higher", _share(bool)),
    )),
    ("gbengine", "syzygy_family", None, (
        ("self_s", "s", "lower", _self_s),
    )),
    ("bipoly", "eval_leading",
     lambda a, r: (a[0], len(a[0].coeffs), r.certified_at), (
        ("calls", "count", "lower", _calls),
        ("distinct", "count", "lower",
         lambda spans: len({a[0] for a in _attrs(spans)})),
        ("self_s", "s", "lower", _self_s),
        ("depth_4", "count", "higher", _depth(4)),
        ("depth_8", "count", "lower", _depth(8)),
        ("depth_16", "count", "lower", _depth(16)),
        ("terms_in", "count", "lower",
         lambda spans: sum(a[1] for a in _attrs(spans))),
    )),
    ("bipoly", "image_matches_leading", lambda a, r: r, (
        ("calls", "count", "lower", _calls),
        ("true_share", "ratio", "higher", _share(bool)),
        ("self_s", "s", "lower", _self_s),
    )),
    # The observer keeps each returned polynomial alive, so object ids stay
    # unique and a distinct id is a polynomial built rather than cached.
    ("bipoly", "truncation_min_poly", lambda a, r: r, (
        ("builds", "count", "lower",
         lambda spans: len({id(a) for a in _attrs(spans)})),
    )),
    ("bipoly", "min_poly_finite_puiseux", None, (
        ("self_s", "s", "lower", _self_s),
    )),
    ("bipoly", "preimage_of_rep", None, (
        ("self_s", "s", "lower", _self_s),
    )),
    ("bipoly", "preimage_leading", None, (
        ("self_s", "s", "lower", _self_s),
    )),
    ("bipoly", "BivarPoly.__mul__", lambda a, r: len(r.coeffs), (
        ("calls", "count", "lower", _calls),
        ("terms_out", "count", "lower", _sum_attr),
        ("self_s", "s", "lower", _self_s),
    )),
    ("bipoly", "parse", None, (
        ("self_s", "s", "lower", _self_s),
    )),
    ("valmonoid", "decompose", lambda a, r: r is not None, (
        ("calls", "count", "lower", _calls),
        ("member_share", "ratio", "higher", _share(bool)),
        ("self_s", "s", "lower", _self_s),
    )),
    ("valmonoid", "min_eta", None, (
        ("calls", "count", "lower", _calls),
        ("self_s", "s", "lower", _self_s),
    )),
    ("exactnum", "acc_zeta_shift", None, (
        ("calls", "count", "lower", _calls),
        ("self_s", "s", "lower", _self_s),
    )),
    ("seqderive", "derive", None, (
        ("calls", "count", "lower", _calls),
        ("self_s", "s", "lower", _self_s),
    )),
    ("series", "truncate", None, (
        ("self_s", "s", "lower", _self_s),
    )),
    ("cli", "main", None, (
        ("self_s", "s", "lower", _self_s),
    )),
)

# Metrics that are not tied to one traced function.
EXTRA_METRICS = (
    ("valmonoid.MonoidContext.cache_entries", "count", "lower"),
    *((f"{m}.errors", "count", "lower") for m in MODULES),
    ("traced.run_s", "s", "lower"),
)


def metric_table():
    """[(name, unit, better)] of every per-layer metric, in report order."""
    table = [(f"{mod}.{func}.{suffix}", unit, better)
             for mod, func, _, metrics in TARGETS
             for suffix, unit, better, _ in metrics]
    return table + list(EXTRA_METRICS)


class Tracer:
    """Installs span-recording wrappers into the valmon package.

    Single-threaded by design: the enclosing span is the top of one stack.
    """

    def __init__(self):
        self.spans = []
        self.op = -1
        self.contexts = []
        self.cache_entries = 0
        self.absent = []
        self._stack = []
        self._undo = []

    def _wrap(self, target, fn, observe):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            span = [target, perf_counter_ns(), 0, stack[-1] if stack else -1,
                    self.op, None, False]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            except Exception:
                span[6] = True
                raise
            finally:
                span[2] = perf_counter_ns()
                stack.pop()
            if observe is not None:
                span[5] = observe(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _patch(self, holder, attr, value):
        self._undo.append((holder, attr, getattr(holder, attr)))
        setattr(holder, attr, value)

    def install(self):
        """Wrap every target that exists; record the names of those that
        do not, so their metrics read as absent instead of failing."""
        import valmon  # noqa: F401  (loads every submodule)
        holders = [m for name, m in sorted(sys.modules.items())
                   if name == "valmon" or name.startswith("valmon.")]
        for index, (mod, func, observe, _) in enumerate(TARGETS):
            *outer, attr = func.split(".")
            owner = sys.modules[f"valmon.{mod}"]
            for part in outer:
                owner = getattr(owner, part, None)
            orig = vars(owner).get(attr) if owner is not None else None
            if orig is None:
                self.absent.append(f"{mod}.{func}")
                continue
            wrapped = self._wrap(index, orig, observe)
            if outer:
                self._patch(owner, attr, wrapped)
                continue
            for holder in holders:
                for name, value in list(vars(holder).items()):
                    if value is orig:
                        self._patch(holder, name, wrapped)
        ctx_cls = sys.modules["valmon.valmonoid"].MonoidContext
        init = ctx_cls.__init__

        def tracked_init(ctx, *args, **kwargs):
            init(ctx, *args, **kwargs)
            self.contexts.append(ctx)

        self._patch(ctx_cls, "__init__", tracked_init)

    def uninstall(self):
        """Restore the package, noting the contexts' cache sizes as they
        stand at the end of the traced work."""
        self.cache_entries = sum(len(c.cache) for c in self.contexts)
        while self._undo:
            holder, attr, value = self._undo.pop()
            setattr(holder, attr, value)

    def metrics(self, traced_run_s):
        """{name: (value, unit)} for every per-layer metric."""
        spans = self.spans
        child_ns = [0] * len(spans)
        for s in spans:
            if s[3] >= 0:
                child_ns[s[3]] += s[2] - s[1]
        by_target = [[] for _ in TARGETS]
        errors = dict.fromkeys(MODULES, 0)
        for i, s in enumerate(spans):
            dur = s[2] - s[1]
            by_target[s[0]].append({"dur_ns": dur, "self_ns": dur - child_ns[i],
                                    "attr": s[5], "failed": s[6]})
            module = TARGETS[s[0]][0]
            if s[6] and (s[3] < 0 or TARGETS[spans[s[3]][0]][0] != module):
                errors[module] += 1
        out = {}
        for (mod, func, _, metrics), target_spans in zip(TARGETS, by_target):
            for suffix, unit, _, fn in metrics:
                out[f"{mod}.{func}.{suffix}"] = (fn(target_spans), unit)
        out["valmonoid.MonoidContext.cache_entries"] = (
            self.cache_entries, "count")
        for m in MODULES:
            out[f"{m}.errors"] = (errors[m], "count")
        out["traced.run_s"] = (traced_run_s, "s")
        return out

    def write(self, path):
        """Write the spans as JSON lines: a header, then one array per span
        ``[function, start_ns, end_ns, parent, op, failed]``."""
        with open(path, "w") as fh:
            fh.write(json.dumps({"functions": [f"{m}.{f}" for m, f, _, _
                                               in TARGETS],
                                 "absent": self.absent}) + "\n")
            for s in self.spans:
                fh.write(json.dumps([s[0], s[1], s[2], s[3], s[4], s[6]])
                         + "\n")
