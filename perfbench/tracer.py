"""Span recorder for the traced benchmark run.

Run as a script, this module is a drop-in for `python -m eulerdisc.cli`:

    python perfbench/tracer.py OUT_BASE <cli arguments>

It wraps the public functions of each eulerdisc module (rebinding every
`from ... import` alias of them), runs the CLI inside a root span named
`cli`, and writes the spans and counters to OUT_BASE.json and OUT_BASE.bin
when the CLI exits.  The spans are kept in memory as flat arrays: name id,
parent span index, and start and end CPU time of the main thread.  That is
`time.thread_time`: the process CPU clock only advances by scheduler ticks
while RLIMIT_CPU is set.  Nothing is written while the op runs.

`summarize` turns one op's files into per-layer self times and counts.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from array import array

import numpy as np

# (module, attribute, span name, counter hook name or None).  An attribute
# "Class.method" wraps a method on the class.  Several attributes may share
# one span name; their spans are then summed as one layer.
TRACED = [
    ("eulerdisc.formats", "load_document", "formats.load", None),
    ("eulerdisc.graphs", "is_connected", "graphs", None),
    ("eulerdisc.graphs", "induced", "graphs", None),
    ("eulerdisc.graphs", "condition_star", "graphs", None),
    ("eulerdisc.graphs", "connected_subgraphs", "graphs", None),
    ("eulerdisc.kernels", "batch_normals", "kernels.batch_normals", "sets"),
    ("eulerdisc.lattice", "subdiagram_volume", "lattice.subdiagram_volume", None),
    ("eulerdisc.lattice", "normalized_volume", "lattice.normalized_volume", None),
    ("eulerdisc.lattice", "f_vector", "lattice.f_vector", None),
    ("eulerdisc.symcore", "det", "symcore.det", None),
    ("eulerdisc.symcore", "MultiPoly.__mul__", "symcore.mul", "out_terms"),
    ("eulerdisc.symcore", "MultiPoly.__add__", "symcore.add", None),
    ("eulerdisc.symcore", "MultiPoly.__str__", "symcore.str", "chars"),
    ("eulerdisc.symcore", "MultiPoly.eval", "symcore.eval", None),
    ("eulerdisc.symcore", "try_div", "symcore.try_div", "exact"),
    ("eulerdisc.symcore", "nondivisibility_certificates", "symcore.nondiv_cert", "certified"),
    ("eulerdisc.symcore", "poly_gcd", "symcore.poly_gcd", None),
    ("eulerdisc.symcore", "coprime_basis", "symcore.coprime_basis", "basis"),
    ("eulerdisc.matroid", "signed_euler_char", "matroid.signed_euler_char", None),
    ("eulerdisc.matroid", "generic_euler_char", "matroid.generic_euler_char", None),
    ("eulerdisc.discriminant", "ParamFamily.all_minors", "discriminant.all_minors", "minors"),
    ("eulerdisc.discriminant", "witness_point", "discriminant.witness_point", "found"),
    ("eulerdisc.discriminant", "euler_disc", "discriminant.euler_disc", None),
    ("eulerdisc.discriminant", "pad_sparse", "discriminant.pad_sparse", None),
    ("eulerdisc.cosmo", "wavefunction", "cosmo.wavefunction", None),
    ("eulerdisc.cosmo", "coefficient_family", "cosmo.coefficient_family", None),
]

ROOT = "cli"


class Recorder:
    """Spans of one op, in memory.  Span i has name id names[i], parent
    span index parents[i] (-1 for the root) and CPU times starts[i],
    ends[i]; spans are appended in start order."""

    def __init__(self):
        self.span_names = [ROOT]
        self.names = array("i")
        self.parents = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.stack = []
        self.counters = {}
        self._seen_minor_lists = set()

    def name_id(self, name):
        if name not in self.span_names:
            self.span_names.append(name)
        return self.span_names.index(name)

    def open(self, nid):
        idx = len(self.starts)
        self.names.append(nid)
        self.parents.append(self.stack[-1] if self.stack else -1)
        self.ends.append(0.0)
        self.stack.append(idx)
        self.starts.append(time.thread_time())
        return idx

    def close(self, idx):
        self.ends[idx] = time.thread_time()
        self.stack.pop()

    def add(self, key, value):
        self.counters[key] = self.counters.get(key, 0) + value

    def count(self, hook, name, args, result):
        """Counters recorded at the boundary of span `name`."""
        if hook == "sets":
            self.add(name + ".sets", len(args[0]))
        elif hook == "out_terms":
            key = name + ".max_out_terms"
            self.counters[key] = max(self.counters.get(key, 0), len(result.terms))
        elif hook == "chars":
            self.add(name + ".chars", len(result))
        elif hook == "exact":
            self.add(name + ".exact", result is not None)
        elif hook == "certified":
            self.add(name + ".tested", len(result))
            self.add(name + ".certified", sum(result))
        elif hook == "basis":
            self.add(name + ".inputs", len(args[0]))
            self.add(name + ".factors", len(result))
        elif hook == "minors":
            if id(result) not in self._seen_minor_lists:
                self._seen_minor_lists.add(id(result))
                self.add(name + ".minors", len(result))
        elif hook == "found":
            self.add(name + ".found", result is not None)

    def wrap(self, fn, name, hook):
        nid = self.name_id(name)
        open_, close = self.open, self.close

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = open_(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                close(idx)
            if hook is not None:
                self.count(hook, name, args, result)
            return result

        return traced

    def dump(self, base, extra):
        header = {"span_names": self.span_names, "spans": len(self.starts),
                  "counters": self.counters, **extra}
        with open(base + ".json", "w") as fh:
            json.dump(header, fh)
        with open(base + ".bin", "wb") as fh:
            for arr in (self.names, self.parents, self.starts, self.ends):
                arr.tofile(fh)


def _rebind(original, replacement):
    """Point every eulerdisc module global and class attribute that is
    `original` at `replacement`, so `from ... import` aliases and method
    aliases such as `__rmul__ = __mul__` are traced too."""
    for modname, mod in list(sys.modules.items()):
        if not modname.startswith("eulerdisc") or mod is None:
            continue
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, replacement)
            elif isinstance(value, type) and value.__module__ == modname:
                for cattr, cvalue in list(vars(value).items()):
                    if cvalue is original:
                        setattr(value, cattr, replacement)


def install(rec):
    """Wrap every TRACED function that exists; return the missing ones."""
    missing = []
    for modname, attr, name, hook in TRACED:
        owner = importlib.import_module(modname)
        *path, leaf = attr.split(".")
        for part in path:
            owner = getattr(owner, part, None)
        fn = getattr(owner, leaf, None) if owner is not None else None
        if fn is None:
            missing.append(f"{modname}.{attr}")
            continue
        _rebind(fn, rec.wrap(fn, name, hook))
    return missing


def beta_memo():
    """Hits, misses and size of the matroid beta memo, when it has one."""
    from eulerdisc import matroid

    memo = getattr(matroid, "_beta_rref", None)
    info = getattr(memo, "cache_info", None)
    if info is None:
        return {"hits": 0, "misses": 0, "size": 0}
    ci = info()
    return {"hits": ci.hits, "misses": ci.misses, "size": ci.currsize}


def main(argv):
    base, cli_args = argv[0], argv[1:]
    import eulerdisc.cli

    rec = Recorder()
    missing = install(rec)
    for name in missing:
        print(f"tracer: {name} not found, not traced", file=sys.stderr)
    code = 0
    root = rec.open(0)
    try:
        eulerdisc.cli.main(args=cli_args, prog_name="eulerdisc")
    except SystemExit as exc:
        code = exc.code
    finally:
        rec.close(root)
        rec.dump(base, {"beta_memo": beta_memo()})
    return code


def load(base):
    """Read the spans one traced op wrote."""
    with open(base + ".json") as fh:
        header = json.load(fh)
    n = header["spans"]
    with open(base + ".bin", "rb") as fh:
        names = np.fromfile(fh, dtype=np.int32, count=n)
        parents = np.fromfile(fh, dtype=np.int32, count=n)
        starts = np.fromfile(fh, dtype=np.float64, count=n)
        ends = np.fromfile(fh, dtype=np.float64, count=n)
    return header, names, parents, starts, ends


def summarize(base, op_cpu_s, tolerance_s=0.01):
    """Per-layer totals for one traced op.

    Returns (self_s by span name, calls by span name, counters, beta memo,
    residue_s).  A span's self time is its duration minus the time its
    child spans cover.  The residue is the op's CPU time (from wait4) that
    lies outside the root span: interpreter start, imports, the dump, exit
    and any other thread.
    Raises ValueError when the span tree does not fit inside the op: a
    span with negative self time, more than one root, or a root longer
    than the op.
    """
    header, names, parents, starts, ends = load(base)
    dur = ends - starts
    child = np.zeros(len(dur))
    has_parent = parents >= 0
    np.add.at(child, parents[has_parent], dur[has_parent])
    self_time = dur - child
    span_names = header["span_names"]
    roots = int(np.count_nonzero(~has_parent))
    if roots != 1 or span_names[names[0]] != ROOT:
        raise ValueError(f"{base}: expected one root span, got {roots}")
    if self_time.min(initial=0.0) < -1e-6:
        raise ValueError(f"{base}: a span's children outlast it")
    root_s = float(dur[0])
    residue = op_cpu_s - root_s
    if residue < -tolerance_s:
        raise ValueError(f"{base}: root span {root_s:.3f}s exceeds op CPU {op_cpu_s:.3f}s")
    if abs(float(self_time.sum()) - root_s) > tolerance_s:
        raise ValueError(f"{base}: self times do not add up to the root span")
    by_self = np.bincount(names, weights=self_time, minlength=len(span_names))
    by_calls = np.bincount(names, minlength=len(span_names))
    self_s = {span_names[i]: float(by_self[i]) for i in range(len(span_names))}
    calls = {span_names[i]: int(by_calls[i]) for i in range(len(span_names))}
    return self_s, calls, header["counters"], header["beta_memo"], residue


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
