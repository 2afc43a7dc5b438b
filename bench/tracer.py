"""Span tracing of the library's public functions, installed from outside.

`Tracer.install` wraps each target function at every place it is bound: the
defining module, every `bettibounds` module that imported it with
`from .x import name`, and every class attribute that aliases it (such as
`__rmul__ = __mul__`).  Each call records a span (name, start, end, parent)
into flat arrays kept in memory; `uninstall` puts every original back.
A target missing from the library is reported as absent.
"""

from __future__ import annotations

import gzip
import sys
from array import array
from collections import Counter, defaultdict
from contextlib import contextmanager
from functools import wraps
from time import perf_counter

PACKAGE = "bettibounds"

# (span name, defining module, attribute, or Class.attribute)
TARGETS = (
    ("cli.main", "cli", "main"),
    ("beh.scan", "beh", "scan"),
    ("beh.beh_check", "beh", "beh_check"),
    ("beh.pure_shape_check", "pure", "pure_shape_check"),
    ("pure.herzog_kuhl", "pure", "herzog_kuhl"),
    ("pure.log_gradient", "pure", "_log_gradient"),
    ("pure.pure_total", "pure", "pure_total"),
    ("pure.verify", "pure", "verify_first_gap_monotone"),
    ("pure.verify", "pure", "verify_inward_shift_monotone"),
    ("pure.verify", "pure", "verify_binomial_floor"),
    ("decompose.decompose", "decompose", "decompose"),
    ("decompose.recompose", "decompose", "recompose"),
    ("decompose.validate_bounds", "decompose", "validate_bounds"),
    ("diagram.arith", "diagram", "BettiDiagram.__add__"),
    ("diagram.arith", "diagram", "BettiDiagram.__sub__"),
    ("diagram.arith", "diagram", "BettiDiagram.__mul__"),
    ("diagram.codimension", "diagram", "BettiDiagram.codimension"),
    ("diagram.io", "diagram", "BettiDiagram.from_json"),
    ("diagram.io", "diagram", "BettiDiagram.to_json"),
    ("diagram.io", "diagram", "BettiDiagram.table"),
    ("poly.vanishing_order", "poly", "Poly.vanishing_order_at_one"),
    ("monomial.taylor_betti", "monomial", "taylor_betti"),
    ("monomial.rank", "monomial", "_rational_rank"),
)


def _count_scan(tracer, args, result):
    tracer.counters["beh.scan.sequences"] += result.sequences_checked


def _count_shape(tracer, args, result):
    tracer.counters["beh.pure_shape_check.true"] += bool(result)


def _count_pure(tracer, args, result):
    key = tuple(args[0])
    tracer.counters["pure.herzog_kuhl.repeats"] += key in tracer.seen_degrees
    tracer.seen_degrees.add(key)


def _count_verify(tracer, args, result):
    tracer.counters["pure.verify.samples"] += result.samples


def _count_decompose(tracer, args, result):
    tracer.counters["decompose.greedy_steps"] += len(result)


def _count_rank(tracer, args, result):
    rows = args[0]
    tracer.counters["monomial.rank.rows"] += len(rows)
    tracer.counters["monomial.rank.entries"] += len(rows) * (len(rows[0]) if rows else 0)


def _count_taylor(tracer, args, result):
    tracer.counters["monomial.betti_sum"] += int(sum(value for _, value in result.items()))


# counters each hook feeds, so a hook that no longer fits the library marks
# exactly those counters absent
HOOKS = {
    "beh.scan": (_count_scan, ("beh.scan.sequences",)),
    "beh.pure_shape_check": (_count_shape, ("beh.pure_shape_check.true",)),
    "pure.herzog_kuhl": (_count_pure, ("pure.herzog_kuhl.repeats",)),
    "pure.verify": (_count_verify, ("pure.verify.samples",)),
    "decompose.decompose": (_count_decompose, ("decompose.greedy_steps",)),
    "monomial.rank": (_count_rank, ("monomial.rank.rows", "monomial.rank.entries")),
    "monomial.taylor_betti": (_count_taylor, ("monomial.betti_sum",)),
}


class Tracer:
    def __init__(self):
        self.names = []
        self.kind = array("H")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = []
        self.counters = Counter()
        self.absent = set()
        self.seen_degrees = set()
        self.patches = []  # (owner, attribute, original object)

    def _name_id(self, name):
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def _open(self, kind):
        index = len(self.start)
        self.kind.append(kind)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.start.append(0.0)
        self.end.append(0.0)
        self.stack.append(index)
        return index

    @contextmanager
    def span(self, name):
        """A span opened by the benchmark itself, e.g. one per op."""
        index = self._open(self._name_id(name))
        start = perf_counter()
        try:
            yield
        finally:
            end = perf_counter()
            self.stack.pop()
            self.start[index], self.end[index] = start, end

    def _wrap(self, name, function):
        kind = self._name_id(name)
        hook, hook_counters = HOOKS.get(name, (None, ()))
        tracer = self

        @wraps(function)
        def traced(*args, **kwargs):
            index = tracer._open(kind)
            start = perf_counter()
            try:
                result = function(*args, **kwargs)
            finally:
                end = perf_counter()
                tracer.stack.pop()
                tracer.start[index], tracer.end[index] = start, end
            if hook is not None:
                try:
                    hook(tracer, args, result)
                except Exception:
                    # the library changed shape under the hook; the counter
                    # is reported absent instead of breaking the op
                    tracer.absent.update(hook_counters)
            return result

        return traced

    def install(self):
        modules = [m for n, m in list(sys.modules.items()) if n == PACKAGE or n.startswith(PACKAGE + ".")]
        for name, module_name, attribute in TARGETS:
            module = sys.modules.get(f"{PACKAGE}.{module_name}")
            owner_name, _, method = attribute.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            original = vars(owner).get(method) if owner is not None else None
            if original is None:
                self.absent.add(name)
                continue
            if isinstance(original, classmethod):
                replacement = classmethod(self._wrap(name, original.__func__))
            else:
                replacement = self._wrap(name, original)
            # every binding of the same object, so imported names and aliases
            # are traced too
            owners = [owner] if owner_name else modules
            for target in owners:
                for key, value in list(vars(target).items()):
                    if value is original:
                        self.patches.append((target, key, original))
                        setattr(target, key, replacement)

    def uninstall(self):
        while self.patches:
            owner, key, original = self.patches.pop()
            setattr(owner, key, original)

    def summary(self, scale=1.0):
        """{span name: (calls, self seconds times scale)}."""
        calls = Counter()
        own = defaultdict(float)
        for kind, seconds in zip(self.kind, self_times(self.start, self.end, self.parent)):
            calls[self.names[kind]] += 1
            own[self.names[kind]] += seconds * scale
        return {name: (calls[name], own[name]) for name in self.names}

    def write(self, path):
        with gzip.open(path, "wt", compresslevel=1) as out:
            out.write("index\tname\tparent\tstart_s\tend_s\n")
            for index, (kind, parent, start, end) in enumerate(
                zip(self.kind, self.parent, self.start, self.end)
            ):
                out.write(f"{index}\t{self.names[kind]}\t{parent}\t{start:.9f}\t{end:.9f}\n")


def self_times(start, end, parent):
    """Each span's duration minus the part of it that its child spans cover."""
    children = defaultdict(list)
    for index, up in enumerate(parent):
        if up >= 0:
            children[up].append(index)
    out = []
    for index in range(len(start)):
        low, high = start[index], end[index]
        covered = 0.0
        reach = low
        for child in sorted(children.get(index, ()), key=start.__getitem__):
            a, b = max(start[child], reach), min(end[child], high)
            if b > a:
                covered += b - a
                reach = b
        out.append(high - low - covered)
    return out


def layer_metrics(summary, counters, absent):
    """Per-layer metric values; None marks a metric whose function is absent."""

    def self_s(name):
        return None if name in absent else summary.get(name, (0, 0.0))[1]

    def calls(name):
        return None if name in absent else summary.get(name, (0, 0.0))[0]

    def count(key, *names):
        return None if key in absent or absent.intersection(names) else counters[key]

    def ratio(numerator, denominator):
        if numerator is None or denominator is None:
            return None
        return numerator / denominator if denominator else 0.0

    return {
        "cli.main.self_s": self_s("cli.main"),
        "beh.scan.self_s": self_s("beh.scan"),
        "beh.scan.sequences": count("beh.scan.sequences", "beh.scan"),
        "beh.pure_shape_check.calls": calls("beh.pure_shape_check"),
        "beh.scan.useful_ratio": ratio(
            count("beh.pure_shape_check.true", "beh.pure_shape_check"), calls("pure.herzog_kuhl")
        ),
        "beh.beh_check.self_s": self_s("beh.beh_check"),
        "pure.herzog_kuhl.calls": calls("pure.herzog_kuhl"),
        "pure.herzog_kuhl.self_s": self_s("pure.herzog_kuhl"),
        "pure.herzog_kuhl.repeat_ratio": ratio(
            count("pure.herzog_kuhl.repeats", "pure.herzog_kuhl"), calls("pure.herzog_kuhl")
        ),
        "pure.log_gradient.calls": calls("pure.log_gradient"),
        "pure.log_gradient.self_s": self_s("pure.log_gradient"),
        "pure.pure_total.calls": calls("pure.pure_total"),
        "pure.pure_total.self_s": self_s("pure.pure_total"),
        "pure.verify.self_s": self_s("pure.verify"),
        "pure.verify.samples": count("pure.verify.samples", "pure.verify"),
        "decompose.decompose.self_s": self_s("decompose.decompose"),
        "decompose.greedy_steps": count("decompose.greedy_steps", "decompose.decompose"),
        "decompose.recompose.self_s": self_s("decompose.recompose"),
        "decompose.validate_bounds.self_s": self_s("decompose.validate_bounds"),
        "diagram.arith.calls": calls("diagram.arith"),
        "diagram.arith.self_s": self_s("diagram.arith"),
        "diagram.codimension.self_s": self_s("diagram.codimension"),
        "diagram.io.self_s": self_s("diagram.io"),
        "poly.vanishing_order.self_s": self_s("poly.vanishing_order"),
        "monomial.taylor_betti.calls": calls("monomial.taylor_betti"),
        "monomial.taylor_betti.self_s": self_s("monomial.taylor_betti"),
        "monomial.rank.calls": calls("monomial.rank"),
        "monomial.rank.self_s": self_s("monomial.rank"),
        "monomial.rank.entries": count("monomial.rank.entries", "monomial.rank"),
        "monomial.useful_ratio": ratio(
            count("monomial.betti_sum", "monomial.taylor_betti"),
            count("monomial.rank.rows", "monomial.rank"),
        ),
    }
