"""Span recording around the public functions of each infochoice module.

Wrappers are installed from outside the package, only for a traced run,
and removed afterwards. A module function is replaced in every infochoice
module that holds it by name (``menus.solve`` is the same object as
``solver.solve``), so calls from one module into another are timed too.
The divergence classes' ``value``/``gradient``/``conjugate_max`` methods
are wrapped on the class.

Each span records a name id, start, end and the index of its parent span.
Spans are kept in flat arrays in memory and written out once, at the end.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array

import numpy as np

#: (module, attribute, span name) for module-level public functions.
FUNCTIONS = [
    ("model", "require_valid", "model.require_valid"),
    ("costs", "cost_eval", "costs.cost_eval"),
    ("revealed", "reveal", "revealed.reveal"),
    ("revealed", "kappa", "revealed.kappa"),
    ("revealed", "blackwell_geq", "revealed.blackwell_geq"),
    ("revealed", "mix_policies", "revealed.mix_policies"),
    ("solver", "solve", "solver.solve"),
    ("solver", "solve_mi", "solver.solve_mi"),
    ("solver", "solve_ps", "solver.solve_ps"),
    ("solver", "grid_oracle", "solver.grid_oracle"),
    ("inverse", "certify", "inverse.certify"),
    ("inverse", "recover_utility", "inverse.recover_utility"),
    ("inverse", "rationalize", "inverse.rationalize"),
    ("inverse", "unique_check", "inverse.unique_check"),
    ("inverse", "find_equivalent", "inverse.find_equivalent"),
    ("menus", "predict_submenus", "menus.predict_submenus"),
    ("jsonio", "parse_problem", "jsonio.parse_problem"),
    ("jsonio", "canonical_dumps", "jsonio.canonical_dumps"),
]

#: (class, method, span name) for the divergence kernels.
METHODS = [
    (cls, method, f"costs.{span}")
    for cls in ("KLDivergence", "ChiSquareDivergence", "CustomDivergence")
    for method, span in (("value", "div_value"), ("gradient", "div_gradient"),
                         ("conjugate_max", "conjugate_max"))
]

MODULES = ("model", "costs", "revealed", "solver", "inverse", "menus",
           "jsonio", "cli")


class Tracer:
    """In-memory span store with a stack of open spans.

    ``attrs`` keeps a few per-call numbers that only the wrapper can see
    (iterations of a returned solve, a raised error, LP size), keyed by
    span index.
    """

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.attrs: dict[int, dict] = {}
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn, annotate=None):
        nid = self._id(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.start)
            self.name_id.append(nid)
            self.parent.append(self._stack[-1] if self._stack else -1)
            self.start.append(clock())
            self.end.append(0.0)
            self._stack.append(idx)
            try:
                out = fn(*args, **kwargs)
            except BaseException as exc:
                self.attrs.setdefault(idx, {})["error"] = type(exc).__name__
                raise
            finally:
                self._stack.pop()
                self.end[idx] = clock()
            if annotate is not None:
                extra = annotate(args, kwargs, out)
                if extra:
                    self.attrs.setdefault(idx, {}).update(extra)
            return out

        return traced

    def install(self, package) -> None:
        """Wrap every listed function and method of an imported package."""
        mods = {m: sys.modules[f"{package.__name__}.{m}"] for m in MODULES}
        holders = [package] + list(mods.values())
        for mod, attr, name in FUNCTIONS:
            original = getattr(mods[mod], attr)
            wrapped = self.wrap(name, original, _ANNOTATE.get(name))
            for holder in holders:
                for key, value in list(vars(holder).items()):
                    if value is original:
                        self._saved.append((holder, key, original))
                        setattr(holder, key, wrapped)
        for cls_name, method, name in METHODS:
            cls = getattr(mods["costs"], cls_name)
            original = cls.__dict__[method]
            self._saved.append((cls, method, original))
            setattr(cls, method, self.wrap(name, original))

    def uninstall(self) -> None:
        for holder, key, original in reversed(self._saved):
            setattr(holder, key, original)
        self._saved.clear()

    def span_count(self) -> int:
        return len(self.start)

    def save(self, path: str) -> None:
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
        )

    def summary(self) -> dict:
        """Per span name: calls, total ms and self ms (duration minus the
        part covered by child spans), plus the per-call attributes."""
        n = len(self.start)
        names = np.frombuffer(self.name_id, dtype=np.int32)[:n]
        parent = np.frombuffer(self.parent, dtype=np.int32)[:n]
        dur = (np.frombuffer(self.end, dtype=np.float64)[:n]
               - np.frombuffer(self.start, dtype=np.float64)[:n])
        child = np.zeros(n)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        out = {}
        for nid, name in enumerate(self.names):
            sel = names == nid
            out[name] = {
                "calls": int(sel.sum()),
                "ms": float(dur[sel].sum() * 1e3),
                "self_ms": float((dur[sel] - child[sel]).sum() * 1e3),
            }
        for idx, extra in self.attrs.items():
            entry = out[self.names[self.name_id[idx]]]
            for key, value in extra.items():
                if key == "error":
                    entry["errors"] = entry.get("errors", 0) + 1
                else:
                    entry[key] = entry.get(key, 0) + value
        # solves made on behalf of predict_submenus
        if "menus.predict_submenus" in self._ids and "solver.solve" in self._ids:
            pid = self._ids["menus.predict_submenus"]
            sel = (names == self._ids["solver.solve"]) & has_parent
            out["menus.predict_submenus"]["submenus_solved"] = int(
                np.sum(names[parent[sel]] == pid))
        return out


def _solve_attrs(args, kwargs, result):
    return {"iters": int(result.iterations)}


def _certify_attrs(args, kwargs, cert):
    return {"optimal": int(cert.verdict == "optimal")}


def _blackwell_attrs(args, kwargs, result):
    p, q = args[0], args[1]
    n_eq = q.n_beliefs + p.n_beliefs + q.n_beliefs * p.prior.n_states
    return {"lp_vars": q.n_beliefs * p.n_beliefs + 2 * n_eq}


_ANNOTATE = {
    "solver.solve_mi": _solve_attrs,
    "solver.solve_ps": _solve_attrs,
    "inverse.certify": _certify_attrs,
    "revealed.blackwell_geq": _blackwell_attrs,
}


def merge(total: dict, part: dict) -> None:
    """Add one summary into another, name by name and key by key."""
    for name, entry in part.items():
        into = total.setdefault(name, {})
        for key, value in entry.items():
            into[key] = into.get(key, 0) + value
