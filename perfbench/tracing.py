"""Spans around the calls into each wrearr module, recorded from outside.

:meth:`Tracer.install` wraps every plain function a module exports (its
``__all__``, or its public functions when it has none) and the public
``StepFunction`` methods, and rebinds each wrapper wherever a wrearr module
holds the original, so calls between modules are recorded too.  Classes and
callable instances stay untouched: wrapping ``EXPONENTIAL_DENSITY`` would
break the ``isinstance`` checks in ``Measure``.

Spans live in flat arrays (name id, start, end, parent index, request id)
until the run ends.  A span's self time is its duration minus the durations
of its direct children; calls nest on one thread, so children never overlap.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from array import array

import numpy as np

import wrearr
from wrearr.stepfn import StepFunction

LAYERS = ["stepfn", "eig", "algebra", "weighted", "norms", "formats", "generate", "verify"]
REQUEST = "bench.request"
SVD = "eig.one_sided_svd"
EIGH = "eig.symmetric_eigen"
LUXEMBURG = "norms.luxemburg_norm"
MODULAR = "norms.modular"
MEMBERSHIP = ("norms.membership_route_a", "norms.membership_route_b")


def _exported_functions(module):
    names = getattr(module, "__all__", None)
    if names is None:
        names = [n for n in vars(module) if not n.startswith("_")]
    for name in names:
        obj = getattr(module, name)
        if inspect.isfunction(obj) and obj.__module__ == module.__name__:
            yield name, obj


class Tracer:
    def __init__(self):
        self.names = []
        self._ids = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.request = array("i")
        self.n3_sum = 0.0
        self.request_id = -1
        self._stack = [-1]
        self._undo = []

    def span(self, name, fn):
        """``fn`` wrapped so that each call records one span named ``name``."""
        nid = self._ids.setdefault(name, len(self.names))
        if nid == len(self.names):
            self.names.append(name)
        ids, starts, ends, parents, requests = (
            self.name_id, self.start, self.end, self.parent, self.request)
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(starts)
            ids.append(nid)
            parents.append(stack[-1])
            requests.append(self.request_id)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()

        return traced

    def _count_work(self, fn):
        @functools.wraps(fn)
        def counted(matrix, *args, **kwargs):
            self.n3_sum += float(np.shape(matrix)[0]) ** 3
            return fn(matrix, *args, **kwargs)

        return counted

    def _rebind(self, owner, name, new):
        self._undo.append((owner, name, getattr(owner, name)))
        setattr(owner, name, new)

    def install(self):
        modules = [importlib.import_module(f"wrearr.{layer}") for layer in LAYERS]
        wrapped = {}
        for module in modules:
            layer = module.__name__.rsplit(".", 1)[1]
            for name, fn in _exported_functions(module):
                new = self.span(f"{layer}.{name}", fn)
                if layer == "eig":
                    new = self._count_work(new)
                wrapped[id(fn)] = new
        for module in [wrearr, *modules]:
            for name, obj in list(vars(module).items()):
                if id(obj) in wrapped:
                    self._rebind(module, name, wrapped[id(obj)])
        for name, attr in list(vars(StepFunction).items()):
            if name.startswith("_") and name != "__call__":
                continue
            if inspect.isfunction(attr):
                self._rebind(StepFunction, name, self.span(f"stepfn.StepFunction.{name}", attr))
            elif isinstance(attr, classmethod):
                fn = self.span(f"stepfn.StepFunction.{name}", attr.__func__)
                self._rebind(StepFunction, name, classmethod(fn))

    def uninstall(self):
        while self._undo:
            owner, name, original = self._undo.pop()
            setattr(owner, name, original)

    def arrays(self):
        """The spans as numpy arrays, plus the name table."""
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.int32),
            "start": np.frombuffer(self.start, dtype=np.float64),
            "end": np.frombuffer(self.end, dtype=np.float64),
            "parent": np.frombuffer(self.parent, dtype=np.int32),
            "request": np.frombuffer(self.request, dtype=np.int32),
            "names": np.array(self.names),
        }


def self_times(spans):
    """Duration of each span minus the time its direct children cover."""
    duration = spans["end"] - spans["start"]
    parent = spans["parent"]
    nested = parent >= 0
    covered = np.bincount(parent[nested], weights=duration[nested], minlength=duration.size)
    return duration - covered


def _layers(spans):
    return np.array([n.split(".", 1)[0] for n in spans["names"]])[spans["name_id"]]


def layer_metrics(spans, scale, n3_sum):
    """The per-layer metrics: counts and self seconds per traced request.

    ``scale[r]`` rescales the times of request ``r`` to the reference speed.
    """
    names = list(spans["names"])
    name_id = spans["name_id"]
    parent = spans["parent"]
    has_parent = parent >= 0
    safe_parent = np.maximum(parent, 0)
    layer = _layers(spans)
    self_s = self_times(spans) * np.asarray(scale)[spans["request"]]
    requests = len(scale)

    def is_name(*wanted):
        return np.isin(name_id, [names.index(n) for n in wanted if n in names])

    def per_request(count):
        return float(count) / requests

    def layer_self(name, mask=True):
        return per_request(self_s[(layer == name) & mask].sum())

    svd = is_name(SVD)
    luxemburg = is_name(LUXEMBURG)
    modular = is_name(MODULAR)
    svd_from_algebra = svd & has_parent & (layer[safe_parent] == "algebra")
    modular_in_luxemburg = modular & has_parent & luxemburg[safe_parent]
    # spans at or below a membership call; a parent always precedes its children
    under_membership = is_name(*MEMBERSHIP).tolist()
    for i, p in enumerate(parent.tolist()):
        if p >= 0 and under_membership[p]:
            under_membership[i] = True
    under_membership = np.array(under_membership, dtype=bool)
    luxemburg_calls = int(luxemburg.sum())
    return {
        "eig.svd_calls": (per_request(svd.sum()), "1/req"),
        "eig.eigh_calls": (per_request(is_name(EIGH).sum()), "1/req"),
        "eig.n3_sum": (per_request(n3_sum), "n3/req"),
        "eig.self_s": (layer_self("eig"), "s/req"),
        "algebra.svd_per_request": (per_request(svd_from_algebra.sum()), "1/req"),
        "algebra.self_s": (layer_self("algebra"), "s/req"),
        "norms.luxemburg_calls": (per_request(luxemburg_calls), "1/req"),
        "norms.modular_calls": (per_request(modular.sum()), "1/req"),
        "norms.modular_per_luxemburg": (
            float(modular_in_luxemburg.sum()) / luxemburg_calls if luxemburg_calls else 0.0, "ratio"),
        "norms.membership_self_s": (layer_self("norms", under_membership), "s/req"),
        "norms.self_s": (layer_self("norms"), "s/req"),
        "stepfn.calls": (per_request((layer == "stepfn").sum()), "1/req"),
        "stepfn.self_s": (layer_self("stepfn"), "s/req"),
        "weighted.calls": (per_request((layer == "weighted").sum()), "1/req"),
        "weighted.self_s": (layer_self("weighted"), "s/req"),
        "formats.self_s": (layer_self("formats"), "s/req"),
        "verify.self_s": (layer_self("verify"), "s/req"),
    }


def self_time_shares(spans):
    """Share of all traced self time spent in each layer, request glue included."""
    self_s = self_times(spans)
    layer = _layers(spans)
    return {name: float(self_s[layer == name].sum() / self_s.sum()) for name in ["bench", *LAYERS]}
