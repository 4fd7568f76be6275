"""Span tracer that wraps enscomp's public functions from outside the package.

``Tracer.install`` replaces every binding of a traced function in every loaded
``enscomp`` module (modules that import a name with ``from .x import name``
hold their own binding, and the package ``__init__`` re-exports most names),
so a call is timed whichever name it goes through.  ``DensityMatrix`` is a
class: its ``__init__`` is wrapped on the class itself, which covers every
binding at once and times construction plus validation.

Spans are aggregated per name in memory, not stored one by one: a span's
count, its inclusive time, and its self time (inclusive time minus the time
of the traced spans it called).  Self times therefore partition the traced
wall time.  A few spans also count the work they did, read from their return
values (see ``COUNTERS``).
"""

import functools
import inspect
import sys
import time

PACKAGE = "enscomp"
TRACED_MODULES = ("linalg", "states", "fidelity", "extopt", "protocol", "bounds", "cli")


def _typical_subspace_counts(ts) -> dict:
    return {"strings": len(ts.source_eigenvalues) ** ts.block_length, "dim": ts.dim}


def _protocol_counts(res) -> dict:
    out = {"seqs": len(res.per_sequence)}
    if res.sampled:
        out["draws"] = sum(r.draws for r in res.per_sequence)
        out["mc_seqs"] = len(res.per_sequence)
    return out


def _minimize_counts(res) -> dict:
    return {
        "starts": len(res.history),
        "iters": sum(h.iterations for h in res.history),
        "converged": sum(1 for h in res.history if h.converged),
    }


# span name -> function of the return value giving work counts to add up
COUNTERS = {
    "protocol.typical_subspace": _typical_subspace_counts,
    "protocol.js_protocol": _protocol_counts,
    "protocol.extension_protocol": _protocol_counts,
    "extopt.minimize_extension_entropy": _minimize_counts,
}


class Tracer:
    """Aggregating span recorder for one process; not thread-safe."""

    def __init__(self):
        self.spans: dict[str, dict] = {}
        self._child_time: list[float] = []
        self._patches: list[tuple[object, str, object]] = []

    def _record(self, name: str, fn):
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self._child_time.append(0.0)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                child = self._child_time.pop()
                if self._child_time:
                    self._child_time[-1] += dt
                span = self.spans.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
                span["calls"] += 1
                span["s"] += dt
                span["self_s"] += dt - child
            if counter is not None:
                for key, value in counter(result).items():
                    span[key] = span.get(key, 0) + value
            return result

        return traced

    def targets(self) -> dict[str, tuple[object, str, object]]:
        """Span name -> (owner, attribute, original) for everything traced."""
        out = {}
        for short in TRACED_MODULES:
            mod = sys.modules[f"{PACKAGE}.{short}"]
            for attr, obj in vars(mod).items():
                if (
                    not attr.startswith("_")
                    and inspect.isfunction(obj)
                    and obj.__module__ == mod.__name__
                ):
                    out[f"{short}.{attr}"] = (mod, attr, obj)
        dm = sys.modules[f"{PACKAGE}.states"].DensityMatrix
        out["states.DensityMatrix"] = (dm, "__init__", dm.__dict__["__init__"])
        return out

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer is already installed")
        modules = [
            m
            for name, m in list(sys.modules.items())
            if m is not None
            and (name == PACKAGE or name.startswith(PACKAGE + "."))
        ]
        for name, (owner, attr, original) in self.targets().items():
            wrapper = self._record(name, original)
            if inspect.isclass(owner):
                self._patch(owner, attr, original, wrapper)
                continue
            for mod in modules:
                for binding, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, binding, original, wrapper)

    def _patch(self, owner, attr, original, wrapper) -> None:
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def take(self) -> dict[str, dict]:
        """Return the spans recorded so far and start a fresh aggregate."""
        spans, self.spans = self.spans, {}
        return spans
