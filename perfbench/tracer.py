"""In-memory spans around the public entry points of each openloop layer.

`Tracer.install` replaces public functions and methods by timing
wrappers.  Modules import each other's functions by name, so a function
is replaced in every `openloop` module namespace that holds it.  Only
public names are wrapped, so refactors of private helpers (such as the
frontier sweep inside `transfer`) leave the trace intact.

A span is (name, start, end, parent, op): `op` is the index of the
benchmark operation that caused it, `parent` the index of the enclosing
span.  A call made inside a span of the same name (for instance
`character_auto` handing a generic point to `symplectic_character`)
belongs to the outer span and is not recorded again.  A span's self
time is its duration minus the durations of its direct children.

Scalar arithmetic is far too frequent for spans: it is counted, and the
time inside the outermost arithmetic call is summed as
`exactfield.self_s`.  Span self times include the arithmetic their own
code does.
"""

from __future__ import annotations

import functools
import json
import sys
from collections import Counter
from time import perf_counter
from typing import Any, Callable

# Layers recorded as spans; each reports .calls, .s and .self_s.
SPAN_LAYERS = (
    "cli.main",
    "verify.run_suite",
    "groundstate.solve",
    "groundstate.solve_homogeneous",
    "groundstate.interpolate_all",
    "groundstate.anchor",
    "transfer.transfer_matrix",
    "transfer.transfer_apply",
    "transfer.transfer_matrix_naive",
    "exactla.kernel_basis",
    "exactla.laurent_fit",
    "exactla.det.scalar",
    "exactla.det.laurent",
    "chars.z_product",
    "chars.character.generic",
    "chars.character.confluent",
    "linkpat.compose",
    "baxter.face_weights",
)

# Counters and maxima gathered at the same boundaries.
COUNTERS = (
    "transfer.transfer_matrix.repeat_calls",
    "groundstate.solve.repeat_calls",
    "exactfield.mul.calls",
    "exactfield.inv.calls",
    "verify.checks",
    "cli.output_bytes",
)
MAXIMA = ("transfer.T.nnz", "exactla.kernel_basis.max_coeff_bits")

_ARITHMETIC = {
    "__add__": None,
    "__radd__": None,
    "__sub__": None,
    "__rsub__": None,
    "__neg__": None,
    "__mul__": "exactfield.mul.calls",
    "__rmul__": "exactfield.mul.calls",
    "__truediv__": None,
    "__rtruediv__": None,
    "__pow__": None,
    "inv": "exactfield.inv.calls",
}


def _coeff_bits(vectors) -> int:
    return max(
        (
            max(c.numerator.bit_length(), c.denominator.bit_length())
            for vec in vectors
            for x in vec
            for c in x.coeffs
        ),
        default=0,
    )


def _collides(xs, one) -> bool:
    """Confluent character arguments: x^2 = 1, x_i = x_j or x_i x_j = 1."""
    for i, x in enumerate(xs):
        if x * x == one:
            return True
        for y in xs[i + 1:]:
            if x == y or x * y == one:
                return True
    return False


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent, op]
        self.counts: Counter[str] = Counter()
        self.maxima: dict[str, int] = dict.fromkeys(MAXIMA, 0)
        self.arith_s = 0.0
        self.active = False
        self._stack: list[int] = []
        self._op = -1
        self._seen: dict[str, set] = {}
        self._arith_depth = 0
        self._undo: list[tuple[Any, str, Any]] = []

    # -- recording --------------------------------------------------------

    def begin_op(self) -> int:
        """Open the root span of one benchmark operation."""
        self._op += 1
        self._seen = {}
        self.active = True
        return self._open("bench.op")

    def end_op(self, idx: int) -> None:
        self._close(idx)
        self.active = False

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, perf_counter(), None, parent, self._op])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = perf_counter()
        self._stack.pop()

    def _repeat(self, layer: str, key) -> None:
        seen = self._seen.setdefault(layer, set())
        if key in seen:
            self.counts[layer + ".repeat_calls"] += 1
        seen.add(key)

    def _paused(self, fn, *args, **kwargs):
        """Call a hook of the benchmark's own without counting its work."""
        self.active = False
        try:
            return fn(*args, **kwargs)
        finally:
            self.active = True

    def _span(self, name: str | Callable, fn, before=None, after=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            label = tracer._paused(name, *args, **kwargs) if callable(name) else name
            if tracer._stack and tracer.spans[tracer._stack[-1]][0] == label:
                return fn(*args, **kwargs)
            if before is not None:
                before(*args, **kwargs)
            idx = tracer._open(label)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            if after is not None:
                tracer._paused(after, result)
            return result

        return wrapper

    def _arith(self, fn, counter: str | None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args):
            if not tracer.active:
                return fn(*args)
            if counter is not None:
                tracer.counts[counter] += 1
            if tracer._arith_depth:
                tracer._arith_depth += 1
                try:
                    return fn(*args)
                finally:
                    tracer._arith_depth -= 1
            tracer._arith_depth = 1
            start = perf_counter()
            try:
                return fn(*args)
            finally:
                tracer.arith_s += perf_counter() - start
                tracer._arith_depth = 0

        return wrapper

    # -- installation -----------------------------------------------------

    def _replace_everywhere(self, original, wrapper) -> None:
        for modname, module in list(sys.modules.items()):
            if modname != "openloop" and not modname.startswith("openloop."):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._undo.append((module, attr, original))
                    setattr(module, attr, wrapper)

    def _replace_attr(self, owner, attr: str, wrapper) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def install(self) -> None:
        """Wrap the public entry points of every layer.  Needs the
        `openloop` modules already imported."""
        from openloop import baxter, chars, cli, exactla, groundstate, transfer, verify
        from openloop.exactfield import ONE, Scalar
        from openloop.exactla import LaurentPoly
        from openloop.linkpat import SparseOperator

        def record_max(key: str, value: int) -> None:
            self.maxima[key] = max(self.maxima[key], value)

        def det_name(rows):
            laurent = rows and isinstance(rows[0][0], LaurentPoly)
            return "exactla.det.laurent" if laurent else "exactla.det.scalar"

        def character_name(lam, xs, *rest):
            confluent = _collides(list(xs), ONE)
            return "chars.character.confluent" if confluent else "chars.character.generic"

        def count_checks(report):
            self.counts["verify.checks"] += len(report)

        spans: list[tuple[Any, str | Callable, dict]] = [
            (cli.main, "cli.main", {}),
            (verify.run_suite, "verify.run_suite", {"after": count_checks}),
            (
                groundstate.solve,
                "groundstate.solve",
                {"before": lambda pt, *a, **k: self._repeat("groundstate.solve", pt)},
            ),
            (groundstate.solve_homogeneous, "groundstate.solve_homogeneous", {}),
            (groundstate.interpolate_all, "groundstate.interpolate_all", {}),
            (groundstate.closed_form_all_open, "groundstate.anchor", {}),
            (groundstate.closed_form_all_close, "groundstate.anchor", {}),
            (
                transfer.transfer_matrix,
                "transfer.transfer_matrix",
                {
                    "before": lambda pt: self._repeat("transfer.transfer_matrix", pt),
                    "after": lambda t: record_max(
                        "transfer.T.nnz", sum(len(col) for col in t.cols)
                    ),
                },
            ),
            (transfer.transfer_apply, "transfer.transfer_apply", {}),
            (transfer.transfer_matrix_naive, "transfer.transfer_matrix_naive", {}),
            (
                exactla.kernel_basis,
                "exactla.kernel_basis",
                {"after": lambda basis: record_max(
                    "exactla.kernel_basis.max_coeff_bits", _coeff_bits(basis)
                )},
            ),
            (exactla.laurent_fit, "exactla.laurent_fit", {}),
            (exactla.det, det_name, {}),
            (chars.z_product, "chars.z_product", {}),
            (chars.character_auto, character_name, {}),
            (chars.symplectic_character, character_name, {}),
            (baxter.face_weights_R, "baxter.face_weights", {}),
            (baxter.face_weights_K0, "baxter.face_weights", {}),
            (baxter.face_weights_KL, "baxter.face_weights", {}),
        ]
        for fn, name, hooks in spans:
            self._replace_everywhere(fn, self._span(name, fn, **hooks))
        self._replace_attr(
            SparseOperator, "compose",
            self._span("linkpat.compose", SparseOperator.__dict__["compose"]),
        )
        for attr, counter in _ARITHMETIC.items():
            self._replace_attr(Scalar, attr, self._arith(Scalar.__dict__[attr], counter))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- results ----------------------------------------------------------

    def layer_metrics(self) -> dict[str, tuple[float, str]]:
        """Per-layer totals over every traced operation, as (value, unit)."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        calls: Counter[str] = Counter()
        total: Counter[str] = Counter()
        own: Counter[str] = Counter()
        for k, (name, start, end, _, _) in enumerate(self.spans):
            calls[name] += 1
            total[name] += end - start
            own[name] += end - start - child_time[k]
        out: dict[str, tuple[float, str]] = {}
        for layer in SPAN_LAYERS:
            out[layer + ".calls"] = (calls[layer], "count")
            out[layer + ".s"] = (total[layer], "s")
            out[layer + ".self_s"] = (own[layer], "s")
        for key in COUNTERS:
            out[key] = (self.counts[key], "bytes" if key.endswith("bytes") else "count")
        out["transfer.T.nnz"] = (self.maxima["transfer.T.nnz"], "count")
        out["exactla.kernel_basis.max_coeff_bits"] = (
            self.maxima["exactla.kernel_basis.max_coeff_bits"], "bits",
        )
        out["exactfield.self_s"] = (self.arith_s, "s")
        return out

    def dump(self, path) -> None:
        keys = ("name", "start", "end", "parent", "op")
        with open(path, "w") as fh:
            json.dump({"spans": [dict(zip(keys, s)) for s in self.spans]}, fh)
