"""Span tracing of the calls into each jacobiforms module, from outside it.

The tracer rebinds public functions and operator methods of the library to
wrappers that time each call.  Spans are aggregated in memory per name
(calls, total time, self time) rather than kept one by one: the kernel
layers are entered hundreds of thousands of times per sweep.  A span's
self time is its duration minus the time covered by the spans it directly
encloses.

Installing the tracer changes nothing the library computes; it only adds
the cost of the wrappers, which the benchmark reports as overhead.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict


class Tracer:
    def __init__(self):
        self.spans: dict[str, list[int]] = {}  # name -> [calls, total_ns, self_ns]
        self.counters: dict[str, int] = defaultdict(int)
        self.verifier_depth = 0
        self._stack: list[list[int]] = []  # per open span: [child_ns]

    def span(self, name: str, fn, after=None):
        """Wrapper timing each call of fn as a span called name.

        after(args, result) runs outside the timed interval, for counters.
        """
        stats = self.spans.setdefault(name, [0, 0, 0])
        stack = self._stack
        clock = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            frame = [0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = clock() - start
                stack.pop()
                stats[0] += 1
                stats[1] += duration
                stats[2] += duration - frame[0]
                if stack:
                    stack[-1][0] += duration
            if after is not None and result is not NotImplemented:
                after(args, result)
            return result

        return wrapper

    def verifier_span(self, fn):
        """Span for a verifier check, inside which identities are counted."""
        inner = self.span("verifier.check", fn)

        def wrapper(*args, **kwargs):
            self.verifier_depth += 1
            try:
                return inner(*args, **kwargs)
            finally:
                self.verifier_depth -= 1

        return wrapper

    def identity_counter(self, fn):
        """Count calls of fn made from verifier code inside a check.

        Equality tests made elsewhere, such as memo lookups comparing
        derivations, are not identities and are not counted.
        """
        counters = self.counters
        caller = sys._getframe

        def wrapper(*args, **kwargs):
            if self.verifier_depth and caller(1).f_globals.get("__name__") == "jacobiforms.verifier":
                counters["verifier.identities"] += 1
            return fn(*args, **kwargs)

        return wrapper

    def add(self, counter: str, amount: int) -> None:
        self.counters[counter] += amount

    def snapshot(self) -> dict:
        return {
            "spans": {name: list(stats) for name, stats in self.spans.items()},
            "counters": dict(self.counters),
        }


def rebind(fn, wrapper, modules) -> None:
    """Replace fn by wrapper at every module-level binding in modules.

    Names imported from another module are separate bindings (verifier
    binds bracket_n, derivations binds leibniz_apply), so each one is found
    by identity and replaced.
    """
    found = False
    for module in modules:
        for name, value in list(vars(module).items()):
            if value is fn:
                setattr(module, name, wrapper)
                found = True
    if not found:
        raise LookupError(f"no binding of {fn!r} to trace")


def rebind_method(cls, fn, wrapper) -> None:
    """Replace fn in the class namespace (aliases such as __radd__ too)."""
    names = [name for name, value in vars(cls).items() if value is fn]
    if not names:
        raise LookupError(f"{fn!r} is not defined on {cls.__name__}")
    for name in names:
        setattr(cls, name, wrapper)


def install(tracer: Tracer) -> None:
    """Wrap every traced layer boundary of the imported library."""
    from jacobiforms import brackets, classifier, cli, derivations, elements, qseries, verifier

    modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "jacobiforms"]
    element = elements.BigradedElement

    def terms_out(counter):
        return lambda args, result: tracer.add(counter, len(result._num))

    rebind_method(element, element.__mul__, tracer.span("elements.mul", element.__mul__, terms_out("elements.mul.terms_out")))
    rebind_method(element, element.__rmul__, tracer.span("elements.mul", element.__rmul__, terms_out("elements.mul.terms_out")))
    rebind_method(element, element.__add__, tracer.span("elements.add", element.__add__))
    rebind_method(element, element.__eq__, tracer.identity_counter(element.__eq__))

    apply_terms = terms_out("derivations.apply.terms_out")
    rebind(elements.leibniz_apply, tracer.span("derivations.apply", elements.leibniz_apply, apply_terms), modules)
    rebind(derivations.apply, tracer.span("derivations.apply", derivations.apply, apply_terms), modules)
    rebind(derivations.iterate, tracer.span("derivations.iterate", derivations.iterate), modules)

    rebind(brackets.bracket_n, tracer.span("brackets.bracket_n", brackets.bracket_n), modules)
    rebind(brackets.cm_bracket, tracer.span("brackets.cm_bracket", brackets.cm_bracket), modules)

    for name in (
        "check_associativity",
        "check_poisson",
        "check_bidegree_law",
        "check_stability",
        "check_vinset",
        "scan_conjecture",
        "series_consistency",
    ):
        fn = getattr(verifier, name)
        rebind(fn, tracer.verifier_span(fn), modules)
    rebind(elements.membership, tracer.identity_counter(elements.membership), [verifier])
    series = qseries.QSeries
    rebind_method(series, series.agrees_with, tracer.identity_counter(series.agrees_with))

    wpoly = qseries.LaurentPolyW

    def coeff_products(args, result):
        left, right = args
        tracer.add("qseries.wmul.coeff_products", len(left._coeffs) * (len(right._coeffs) if isinstance(right, wpoly) else 1))

    rebind_method(wpoly, wpoly.__mul__, tracer.span("qseries.wmul", wpoly.__mul__, coeff_products))
    rebind_method(series, series.__mul__, tracer.span("qseries.qmul", series.__mul__))
    rebind(qseries.make_bundle, tracer.span("qseries.make_bundle", qseries.make_bundle), modules)
    rebind(qseries.evaluate, tracer.span("qseries.evaluate", qseries.evaluate), modules)

    poisson = classifier.PoissonBracket
    rebind_method(poisson, poisson.__call__, tracer.span("classifier.poisson_call", poisson.__call__))
    rebind(classifier.relations_residual, tracer.span("classifier.relations", classifier.relations_residual), modules)

    rebind(cli.main, tracer.span("cli.main", cli.main), modules)
