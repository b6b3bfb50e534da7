"""The benchmark's tracer (bench/layers.py) against the library names it wraps and reads.

The tracer replaces library functions and methods by name, so a library
change that deletes or renames one breaks the traced benchmark run.  This
test installs and removes the tracer in process, importing bench/ without
writing to it, and fails on such a change in the suite.
"""

import dataclasses
import gc
import importlib
import sys
from pathlib import Path

from pqt import algebra as A
from pqt import embedding as E
from pqt import oper as O

BENCH = Path(__file__).resolve().parents[1] / "bench"


def test_bench_tracer_restores_every_wrapped_attribute(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    fresh = [name for name in ("layers", "oracle") if name not in sys.modules]
    try:
        layers = importlib.import_module("layers")
        owners = (*layers._MODULES, A.Element, E.Embedding, O.ShiftRepresentation)
        before = [dict(vars(owner)) for owner in owners]
        callbacks = list(gc.callbacks)
        tracer = layers.Tracer()
        try:
            tracer.install()
            wrapped = {
                (getattr(owner, "__name__", None), attr)
                for owner, saved in zip(owners, before)
                for attr, value in vars(owner).items()
                if saved.get(attr) is not value
            }
            tracer.uninstall()
            after = [dict(vars(owner)) for owner in owners]
            callbacks_after = list(gc.callbacks)
        finally:
            # put back whatever a failed install or uninstall left wrapped, so later tests see the library
            for owner, saved in zip(owners, before):
                for attr, value in saved.items():
                    if vars(owner).get(attr) is not value:
                        setattr(owner, attr, value)
            gc.callbacks[:] = callbacks
    finally:
        for name in fresh:
            sys.modules.pop(name, None)
    for name in ("sparse_rank", "sparse_solve", "inverse_search", "injectivity_rank"):
        assert ("pqt.embedding", name) in wrapped
    for name in ("gram_matrix", "psd_decide"):
        assert ("pqt.states", name) in wrapped
    assert {("Element", "__mul__"), ("Embedding", "apply"), ("ShiftRepresentation", "item_matrix")} <= wrapped
    assert ("pqt", "enumerate_words") in wrapped  # re-exported by value, so wrapped there too
    assert all(a.keys() == b.keys() and all(a[k] is b[k] for k in a) for a, b in zip(after, before))
    assert callbacks_after == callbacks
    # the norm hook and the convergence check read these fields
    assert "iterations" in O.OpNormResult._fields
    assert "iterations" in {f.name for f in dataclasses.fields(O.ConvergenceRow)}
