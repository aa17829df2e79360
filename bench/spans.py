"""Span tracer installed around grouppc's public functions.

`Tracer.install` replaces module attributes and class methods that the
program calls through with wrappers that record one span per call: name,
start, end and the span that was open when it started (its parent).
Spans live in flat in-memory arrays until `write` saves them; nothing in
grouppc itself is edited, and `uninstall` restores every attribute.
"""

from __future__ import annotations

import functools
from array import array
from time import perf_counter

import numpy as np


def _targets(gp):
    """(owner, attribute, span name) for every wrapped callable."""
    corr, design, pcprior = gp.corr, gp.design, gp.pcprior
    inference, simulate, io, cli = gp.inference, gp.simulate, gp.io, gp.cli
    out = [(corr, name, f"corr.{name}") for name in corr.__all__]
    out += [(design.GroupedDesign, name, f"design.{name}")
            for name in ("spacings", "all_spacings", "group_slices")]
    out += [(design.Dataset, "fingerprint", "design.fingerprint")]
    out += [(pcprior.PCPrior, name, f"pcprior.{name}")
            for name in ("from_quantile", "density", "log_density", "cdf",
                         "quantile", "sample", "log_density_internal")]
    out += [(pcprior.DistanceFunction, "__call__", "pcprior.distance")]
    out += [(pcprior.DistanceFunction, name, f"pcprior.{name}")
            for name in ("derivative", "value_internal",
                         "log_abs_derivative_internal", "invert_internal",
                         "invert")]
    out += [(pcprior, name, f"pcprior.{name}")
            for name in ("density_grid", "normalization_mass", "solve_lambda")]
    out += [(inference, name, f"inference.{name}")
            for name in ("gaussian_loglik", "posterior_summaries",
                         "bayes_factor")]
    # the CLI imported these names directly, so its module gets its own wrapper
    for owner in (inference, cli):
        out += [(owner, "log_marginal_likelihood", "inference.fit")]
    for owner in (simulate, cli):
        out += [(owner, "simulate_dataset", "simulate.simulate_dataset")]
    out += [(io, name, f"io.{name}") for name in io.__all__]
    out += [(cli, name, f"cli.{name}")
            for name in ("main", "cmd_fit", "cmd_compare", "cmd_simulate",
                         "cmd_prior")]
    return out


class Tracer:
    """Records spans for the wrapped calls; one instance per traced window."""

    def __init__(self):
        self.names = []
        self._name_index = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.nested = array("b")   # 1 when a same-named span is open
        self.counts = {"inference.grid_cells": 0, "io.rows_read": 0}
        self._stack = []
        self._depth = {}
        self._saved = []

    def _wrap(self, name, fn, hook=None):
        if name not in self._name_index:
            self._name_index[name] = len(self.names)
            self.names.append(name)
        nid = self._name_index[name]
        stack, depth = self._stack, self._depth

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(self.start)
            self.name_id.append(nid)
            self.parent.append(stack[-1] if stack else -1)
            self.nested.append(1 if depth.get(nid) else 0)
            self.end.append(0.0)
            stack.append(idx)
            depth[nid] = depth.get(nid, 0) + 1
            self.start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[idx] = perf_counter()
                stack.pop()
                depth[nid] -= 1
            if hook is not None:
                hook(result)
            return result

        return wrapper

    def _count_cells(self, fit):
        diag = fit.diagnostics
        self.counts["inference.grid_cells"] += diag["n_tau"] * diag["n_corr"]

    def _count_rows(self, dataset):
        self.counts["io.rows_read"] += dataset.n_obs

    def install(self, gp):
        hooks = {"inference.fit": self._count_cells,
                 "io.read_dataset": self._count_rows}
        for owner, attr, name in _targets(gp):
            raw = owner.__dict__[attr]
            if isinstance(raw, classmethod):
                new = classmethod(self._wrap(name, raw.__func__, hooks.get(name)))
            else:
                new = self._wrap(name, raw, hooks.get(name))
            self._saved.append((owner, attr, raw))
            setattr(owner, attr, new)

    def uninstall(self):
        while self._saved:
            owner, attr, raw = self._saved.pop()
            setattr(owner, attr, raw)

    def summary(self):
        """Per-span calls and time, per-layer self time.

        ``<span>_s`` sums the outermost spans of that name (a span nested in
        one of the same name is not counted twice); ``<layer>.self_s`` is
        each span's duration minus the time its child spans cover.
        """
        n = len(self.start)
        ids, parent = np.array(self.name_id), np.array(self.parent)
        dur = np.array(self.end) - np.array(self.start)
        nested = np.array(self.nested) == 1
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent],
                            minlength=n)
        self_time = dur - child
        k = len(self.names)
        calls = np.bincount(ids, minlength=k)
        total = np.bincount(ids[~nested], weights=dur[~nested], minlength=k)
        own = np.bincount(ids, weights=self_time, minlength=k)
        out = {}
        layers = {}
        for i, name in enumerate(self.names):
            out[f"{name}_calls"] = int(calls[i])
            out[f"{name}_s"] = float(total[i])
            layer = name.split(".")[0]
            layers[layer] = layers.get(layer, 0.0) + float(own[i])
        for layer, value in layers.items():
            out[f"{layer}.self_s"] = value
        out.update(self.counts)
        out["trace.spans"] = n
        return out

    def write(self, path):
        """Save every span: names table plus id/parent/start/end arrays."""
        np.savez(path, names=np.array(self.names),
                 name_id=np.array(self.name_id), parent=np.array(self.parent),
                 start=np.array(self.start), end=np.array(self.end))
