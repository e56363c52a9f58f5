"""Per-layer spans, recorded from outside the program by rebinding its attributes.

Each layer of ``fractal_goodstein`` is a set of entry points.  ``install``
wraps them in place: a module-level function is rebound in every package
module that imported it by name, a method is rebound on its class and on
every subclass that overrides it, and ``json`` as seen by ``runner`` is
replaced by a proxy.  A span is (name, start, end, parent) and is kept in
memory; ``write`` dumps them when the workload is done.  A target that no
longer exists is reported absent, never as zero.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
import types
from array import array

PKG = "fractal_goodstein"

# layer -> entry points, as "module:attribute.path"
LAYERS = {
    "ordinal_terms.construct": [
        "ordinal_terms:Atom.__init__",
        "ordinal_terms:CntTerm.__init__",
        "ordinal_terms:OrdTerm.__init__",
    ],
    "ordinal_terms.compare": ["ordinal_terms:compare", "ordinal_terms:compare_cnt"],
    "ordinal_terms.fund_seq": ["ordinal_terms:fund_seq", "ordinal_terms:fund_seq_cnt"],
    "ordinal_terms.print": ["ordinal_terms:term_to_str"],
    "ordinal_terms.parse": ["ordinal_terms:parse_term"],
    "interpretations.theta_value": ["interpretations:ThetaInterpretation.value"],
    "interpretations.theta_objects": ["interpretations:ThetaInterpretation.__init__"],
    "interpretations.psi_value": ["interpretations:PsiInterpretation.value"],
    "interpretations.majorize": ["interpretations:majorize_witness"],
    "upgrade.phi_value": ["upgrade:_phi_value"],
    "successors.upgrade_step": ["successors:DynamicalHierarchy.upgrade_step"],
    "successors.stage": ["successors:DynamicalHierarchy.stage"],
    "numerals.decompose": ["numerals:decompose"],
    "numerals.base_change": ["numerals:base_change"],
    "numerals.budget_pow": ["numerals:BitBudget.pow"],
    "hierarchy.check_pair": ["hierarchy:_check_pair"],
    "hierarchy.lookup": [
        "hierarchy:Hierarchy.upper_base",
        "hierarchy:Hierarchy.lower_base",
        "hierarchy:Hierarchy.s_next",
        "hierarchy:Hierarchy.__contains__",
    ],
    "runner.encode_int": ["runner:_int_str"],
    "runner.decode_int": ["runner:_str_int"],
    "runner.json": ["runner:json.dumps", "runner:json.loads"],
    "runner.run": ["runner:run"],
    "runner.verify": ["runner:verify_trace"],
}


class _ModuleProxy:
    """Stands in for a foreign module inside one package module only."""

    def __init__(self, module: types.ModuleType) -> None:
        self._module = module

    def __getattr__(self, name: str):
        return getattr(self._module, name)


class Tracer:
    def __init__(self) -> None:
        self._ids: dict[str, int] = {}  # layer -> name id, in order of first use
        self.name_id = array("H")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self._stack = [-1]
        self.on = False
        self.absent: set[str] = set()

    # --- recording ---

    def _wrap(self, layer: str, fn):
        nid = self._ids.setdefault(layer, len(self._ids))
        name_id, start, end, parent, stack = (
            self.name_id, self.start, self.end, self.parent, self._stack,
        )
        clock = time.perf_counter_ns
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.on:
                return fn(*args, **kwargs)
            idx = len(name_id)
            name_id.append(nid)
            parent.append(stack[-1])
            end.append(0)
            stack.append(idx)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()

        return traced

    # --- installation ---

    def install(self) -> None:
        modules = {
            name: mod for name, mod in sys.modules.items()
            if mod is not None and (name == PKG or name.startswith(PKG + "."))
        }
        for layer, targets in LAYERS.items():
            found = [self._install_one(layer, t, modules) for t in targets]
            if not any(found):
                self.absent.add(layer)

    def _install_one(self, layer: str, target: str, modules: dict) -> bool:
        modname, path = target.split(":")
        try:
            mod = importlib.import_module(f"{PKG}.{modname}")
        except ImportError:
            return False
        *owner_path, attr = path.split(".")
        owner = mod
        for part in owner_path:
            nxt = getattr(owner, part, None)
            if nxt is None:
                return False
            if isinstance(nxt, types.ModuleType) and not nxt.__name__.startswith(PKG):
                # a foreign module: wrap it for this package module alone
                nxt = _ModuleProxy(nxt)
                setattr(owner, part, nxt)
            owner = nxt
        orig = getattr(owner, attr, None)
        if orig is None:
            return False
        if isinstance(owner, type):
            for cls in [owner, *_subclasses(owner)]:
                if attr in vars(cls):
                    setattr(cls, attr, self._wrap(layer, vars(cls)[attr]))
            return True
        wrapped = self._wrap(layer, orig)
        setattr(owner, attr, wrapped)
        if isinstance(owner, types.ModuleType):
            # rebind every by-name import of the same function
            for m in modules.values():
                for name, val in list(vars(m).items()):
                    if val is orig:
                        setattr(m, name, wrapped)
        return True

    # --- results ---

    def layer_totals(self) -> dict[str, dict]:
        """Calls and self time per layer; self time excludes child spans."""
        n = len(self.name_id)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        own = list(dur)
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                own[p] -= dur[i]
        out = {layer: {"calls": 0, "self_s": 0.0} for layer in LAYERS if layer not in self.absent}
        names = list(self._ids)
        for i in range(n):
            rec = out[names[self.name_id[i]]]
            rec["calls"] += 1
            rec["self_s"] += own[i] / 1e9
        return out

    def write(self, path: str) -> None:
        """Dump the spans: a JSON header line, then the four arrays in order."""
        with open(path, "wb") as fh:
            head = {
                "names": list(self._ids),
                "spans": len(self.name_id),
                "arrays": ["name_id:H", "start_ns:q", "end_ns:q", "parent:i"],
            }
            fh.write(json.dumps(head).encode() + b"\n")
            for arr in (self.name_id, self.start, self.end, self.parent):
                arr.tofile(fh)


def _subclasses(cls: type) -> list[type]:
    out = []
    for sub in cls.__subclasses__():
        out += [sub, *_subclasses(sub)]
    return out
