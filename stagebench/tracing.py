"""Traced runs: spans and counters recorded around the program's public functions.

The tracer replaces each listed function (and the two class methods) by a
wrapper in every lidarcal module namespace that holds it, records one span
per call (name, start, end, parent, stage, invocation) in memory, and
restores the originals when it is switched off. Nothing in the program is
edited; untraced runs call the program as it is.
"""

from __future__ import annotations

import gzip
import sys
import time
from collections import Counter, defaultdict

import numpy as np

# metric prefix -> (module, attribute); "Class.method" patches the class
SPANS = {
    "autodiff.conv1d_circular": ("lidarcal.autodiff", "conv1d_circular"),
    "autodiff.conv1d_kernel_grad": ("lidarcal.autodiff", "conv1d_kernel_grad"),
    "autodiff.grad": ("lidarcal.autodiff", "grad"),
    "nets.generator_forward": ("lidarcal.nets", "GeneratorNet.forward"),
    "nets.critic_forward": ("lidarcal.nets", "DiscriminatorNet.forward"),
    "losses.gradient_penalty": ("lidarcal.losses", "gradient_penalty"),
    "losses.d_loss_from_fake": ("lidarcal.losses", "d_loss_from_fake"),
    "losses.g_loss": ("lidarcal.losses", "g_loss"),
    "train.adam_step": ("lidarcal.train", "Adam.step"),
    "inverse.loss_median_tensor": ("lidarcal.inverse", "loss_median_tensor"),
    "oracle.transmit": ("lidarcal.oracle", "transmit"),
    "oracle.derive_seed": ("lidarcal.oracle", "derive_seed"),
    "oracle.generate_dataset": ("lidarcal.oracle", "generate_dataset"),
    "signal.circular_correlate_batch": ("lidarcal.signal", "circular_correlate_batch"),
    "signal.estimate_depth_batch": ("lidarcal.signal", "estimate_depth_batch"),
    "dataset_io.serialize_dataset": ("lidarcal.dataset_io", "serialize_dataset"),
    "dataset_io.deserialize_dataset": ("lidarcal.dataset_io", "deserialize_dataset"),
    "dataset_io.dataset_digest": ("lidarcal.dataset_io", "dataset_digest"),
    "checkpoint_io.serialize_checkpoint": ("lidarcal.checkpoint_io", "serialize_checkpoint"),
    "checkpoint_io.deserialize_checkpoint": ("lidarcal.checkpoint_io", "deserialize_checkpoint"),
    "render.codes_to_pgm": ("lidarcal.render", "codes_to_pgm"),
    "config.load_config": ("lidarcal.config", "load_config"),
}

# benchmark stage -> CLI handler; its span gives cli.<stage>.ms
CLI_HANDLERS = {
    "gen-data": "cmd_gen_data", "render": "cmd_render", "inspect": "cmd_inspect",
    "train": "cmd_train", "optimize": "cmd_optimize", "eval": "cmd_eval",
}

# numpy calls and Tensor constructions counted per train and optimize iteration
COUNTERS = {"np_einsum": (np, "einsum"), "np_roll": (np, "roll")}
PER_DATASET = ("oracle.transmit", "oracle.derive_seed")
# stage of the malformed-input commands: fault probes, not work
FAULT_STAGE = "malformed"


def cli_span(stage: str) -> str:
    return f"cli.{stage.replace('-', '_')}"


def per_layer_units() -> dict:
    """Every per-layer metric name -> unit, in report order."""
    units = {}
    for name in SPANS:
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_ms"] = "ms"
    for it in ("train_iter", "optimize_iter"):
        units[f"autodiff.tensors.per_{it}"] = "count"
        for c in COUNTERS:
            units[f"autodiff.{c}.calls_per_{it}"] = "count"
    for name in PER_DATASET:
        units[f"{name}.calls_per_dataset"] = "count"
    units["train.iter_ms.alpha0"] = "ms"
    units["train.iter_ms.adv"] = "ms"
    units["inverse.optimize.iter_ms"] = "ms"
    for stage in CLI_HANDLERS:
        units[f"{cli_span(stage)}.ms"] = "ms"
    units["trace.overhead_pct"] = "%"
    units["trace.spans_per_round"] = "count"
    return units


def _resolve(module: str, attr: str):
    owner = sys.modules[module]
    if "." in attr:
        cls, attr = attr.split(".")
        owner = getattr(owner, cls)
    return owner, attr


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.span_stage: list[str] = []
        self.span_call: list[int] = []
        self.stack: list[int] = []
        self.counts: dict[str, Counter] = defaultdict(Counter)
        self.iter_marks: list[tuple] = []   # (invocation, time, alpha or None at end)
        self.stage = ""
        self.invocation = 0
        self._saved: list[tuple] = []

    # -- recording --------------------------------------------------------
    def enter_stage(self, stage: str, invocation: int) -> None:
        self.stage, self.invocation = stage, invocation

    def _span(self, name, fn):
        def wrapper(*args, **kwargs):
            i = len(self.names)
            self.names.append(name)
            self.parents.append(self.stack[-1] if self.stack else -1)
            self.span_stage.append(self.stage)
            self.span_call.append(self.invocation)
            self.ends.append(0.0)
            self.stack.append(i)
            self.starts.append(time.perf_counter())
            try:
                return fn(*args, **kwargs)
            finally:
                self.ends[i] = time.perf_counter()
                self.stack.pop()
        return wrapper

    def _count(self, name, fn):
        def wrapper(*args, **kwargs):
            self.counts[self.stage][name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _iteration_mark(self, fn):
        # train.train calls curriculum_alpha once, first, in every iteration
        def wrapper(*args, **kwargs):
            alpha = fn(*args, **kwargs)
            self.iter_marks.append((self.invocation, time.perf_counter(), alpha))
            return alpha
        return wrapper

    def _training_end(self, fn):
        def wrapper(*args, **kwargs):
            self.iter_marks.append((self.invocation, time.perf_counter(), None))
            return fn(*args, **kwargs)
        return wrapper

    # -- patching ---------------------------------------------------------
    def _set(self, owner, attr, value):
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _replace_everywhere(self, original, wrapper):
        for modname, mod in list(sys.modules.items()):
            if modname == "lidarcal" or modname.startswith("lidarcal."):
                for key, val in list(vars(mod).items()):
                    if val is original:
                        self._set(mod, key, wrapper)

    def install(self) -> None:
        for name, (module, attr) in SPANS.items():
            owner, attr = _resolve(module, attr)
            original = getattr(owner, attr)
            if isinstance(owner, type):
                self._set(owner, attr, self._span(name, original))
            else:
                self._replace_everywhere(original, self._span(name, original))
        cli = sys.modules["lidarcal.cli"]
        for stage, handler in CLI_HANDLERS.items():
            self._set(cli, handler, self._span(cli_span(stage), getattr(cli, handler)))
        train = sys.modules["lidarcal.train"]
        self._set(train, "curriculum_alpha", self._iteration_mark(train.curriculum_alpha))
        self._set(train, "make_checkpoint", self._training_end(train.make_checkpoint))
        for name, (owner, attr) in COUNTERS.items():
            self._set(owner, attr, self._count(name, getattr(owner, attr)))
        tensor = sys.modules["lidarcal.autodiff"].Tensor
        self._set(tensor, "__init__", self._count("tensors", tensor.__init__))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)

    # -- reporting --------------------------------------------------------
    def write_spans(self, path) -> None:
        t0 = self.starts[0] if self.starts else 0.0
        with gzip.open(path, "wt") as f:
            f.write("id,name,stage,invocation,start_ms,end_ms,parent\n")
            for i, name in enumerate(self.names):
                f.write(f"{i},{name},{self.span_stage[i]},{self.span_call[i]},"
                        f"{(self.starts[i] - t0) * 1e3:.4f},{(self.ends[i] - t0) * 1e3:.4f},"
                        f"{self.parents[i]}\n")

    def metrics(self, rounds: int, iterations: dict, overhead_pct: float) -> dict:
        """Per-layer figures over `rounds` traced rounds.

        Each round runs gen-data once, and iterations[stage] iterations of the
        "train" and "optimize" stages.
        """
        names = np.array(self.names, dtype=object)
        dur = np.array(self.ends) - np.array(self.starts)
        parents = np.array(self.parents, dtype=np.int64)
        child = np.zeros_like(dur)
        has_parent = parents >= 0
        np.add.at(child, parents[has_parent], dur[has_parent])
        self_ms = (dur - child) * 1e3
        stages = np.array(self.span_stage, dtype=object)

        out = {}
        work = stages != FAULT_STAGE
        for name in SPANS:
            sel = (names == name) & work
            out[f"{name}.calls"] = int(sel.sum()) / rounds
            out[f"{name}.self_ms"] = float(np.median(self_ms[sel])) if sel.any() else 0.0
        for it, stage in (("train_iter", "train"), ("optimize_iter", "optimize")):
            counts, iters = self.counts[stage], rounds * iterations[stage]
            out[f"autodiff.tensors.per_{it}"] = counts["tensors"] / iters
            for c in COUNTERS:
                out[f"autodiff.{c}.calls_per_{it}"] = counts[c] / iters
        for name in PER_DATASET:
            in_gen = (names == name) & (stages == "gen-data")
            out[f"{name}.calls_per_dataset"] = int(in_gen.sum()) / rounds

        alpha0, adv = [], []
        by_call: dict[int, list] = {}
        for call, t, alpha in self.iter_marks:
            by_call.setdefault(call, []).append((t, alpha))
        for marks in by_call.values():
            for (t, alpha), (t_next, _) in zip(marks, marks[1:]):
                (alpha0 if alpha == 0.0 else adv).append((t_next - t) * 1e3)
        out["train.iter_ms.alpha0"] = float(np.median(alpha0)) if alpha0 else 0.0
        out["train.iter_ms.adv"] = float(np.median(adv)) if adv else 0.0

        # one loss_median_tensor call per optimize iteration: its period is the iteration
        periods = []
        sel = np.flatnonzero((names == "inverse.loss_median_tensor") & (stages == "optimize"))
        starts = np.array(self.starts)[sel]
        calls = np.array(self.span_call)[sel]
        for call in np.unique(calls):
            periods += list(np.diff(starts[calls == call]) * 1e3)
        out["inverse.optimize.iter_ms"] = float(np.median(periods)) if periods else 0.0

        for stage in CLI_HANDLERS:
            sel = (names == cli_span(stage)) & (stages == stage)
            out[f"{cli_span(stage)}.ms"] = float(np.median(dur[sel]) * 1e3) if sel.any() else 0.0
        out["trace.overhead_pct"] = overhead_pct
        out["trace.spans_per_round"] = len(self.names) / rounds
        return out
