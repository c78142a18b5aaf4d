"""Patching of agentchain's public functions, and the span tracer.

Both the untraced op timers and the traced run replace names in the
program's modules from outside, so the program itself carries no timing
code. A function is replaced at every module that binds it (``from .crypto
import verify`` binds ``verify`` in several modules); a method is replaced
on its class. ``Patches.restore`` puts every original back.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from array import array
from typing import Any, Callable

PACKAGE = "agentchain"

# (layer, owner, attribute). The owner is a module of the package, or a
# class in one ("dht.Network"). The span name is "<layer>.<attribute>".
TARGETS: tuple[tuple[str, str, str], ...] = (
    ("crypto", "crypto", "sign"),
    ("crypto", "crypto", "verify"),
    ("crypto", "crypto", "hash_bytes"),
    ("canonical", "canonical", "encode_fields"),
    ("canonical", "canonical", "decode_fields"),
    ("chain", "chain", "encode_dna"),
    ("chain", "chain", "record_key"),
    ("chain", "chain", "append_entry"),
    ("chain", "chain", "verify_records"),
    ("chain", "chain", "parse_chain_text"),
    ("validation", "validation", "authenticate_channel"),
    ("dht", "dht.Network", "publish"),
    ("dht", "dht.Network", "neighborhood"),
    ("dht", "dht.Network", "backup_targets"),
    ("dht", "dht.Network", "gossip_round"),
    ("dht", "dht.Network", "fetch"),
    ("dht", "dht.Network", "send_claim"),
    ("reputation", "reputation", "update_experience"),
    ("reputation", "reputation", "is_blacklisted"),
    ("fuel", "fuel", "balance"),
    ("fuel", "fuel", "audit_double_spend"),
    ("fuel", "fuel", "accept_fuel_tx"),
    ("fuel", "fuel", "settle"),
    ("healthcare", "healthcare", "publish_vitals"),
    ("healthcare", "healthcare", "request_access"),
    ("healthcare", "healthcare", "request_access_via_holder"),
    ("sim", "sim.Simulation", "run"),
    ("sim", "sim", "audit_access_log"),
    ("bench", "bench", "run_holochain_count"),
)

LAYERS: tuple[str, ...] = tuple(dict.fromkeys(layer for layer, _, _ in TARGETS))

# spans that start an operation; nested spans share its op id
OP_SPANS = frozenset(
    {
        "dht.publish",
        "dht.gossip_round",
        "fuel.settle",
        "healthcare.request_access",
        "healthcare.request_access_via_holder",
        "chain.verify_records",
    }
)

# per-call outcome counted beside the span, for the layers' useful-work ratios
OUTCOMES: dict[str, Callable[[Any], int]] = {
    "dht.publish": len,  # receipts gathered
    "dht.send_claim": lambda delivered: 0 if delivered else 1,  # refused
    "validation.authenticate_channel": lambda verdict: int(verdict.valid),
    "fuel.settle": lambda result: int(result[0] is not None),
    "healthcare.request_access": lambda result: int(result.granted),
    "healthcare.request_access_via_holder": lambda result: int(result.granted),
}


def _resolve(owner: str) -> Any:
    module_name, _, class_name = owner.partition(".")
    module = importlib.import_module(f"{PACKAGE}.{module_name}")
    return getattr(module, class_name) if class_name else module


def _package_modules() -> list[Any]:
    return [
        module
        for name, module in sorted(sys.modules.items())
        if module is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
    ]


class Patches:
    """Replacements of program names, undone in reverse by ``restore``."""

    def __init__(self) -> None:
        self._undo: list[tuple[Any, str, Any]] = []

    def replace(self, owner: str, attr: str, make: Callable[[Callable], Callable]) -> int:
        """Wrap ``owner.attr`` everywhere it is bound; returns the binding count."""
        target = _resolve(owner)
        original = getattr(target, attr)
        wrapper = make(original)
        if isinstance(target, type):
            places = [(target, attr)]
        else:
            places = [
                (module, name)
                for module in _package_modules()
                for name, value in list(module.__dict__.items())
                if value is original
            ]
        for place, name in places:
            self._undo.append((place, name, original))
            setattr(place, name, wrapper)
        return len(places)

    def restore(self) -> None:
        while self._undo:
            place, name, original = self._undo.pop()
            setattr(place, name, original)

    def __enter__(self) -> "Patches":
        return self

    def __exit__(self, *exc: object) -> None:
        self.restore()


class OpTimer:
    """Durations of the op entry points, for the untraced run.

    Only the entry points are wrapped, at two clock reads and a few list
    appends per call, so the layers below run unwrapped.
    """

    def __init__(self) -> None:
        self.starts: dict[str, list[float]] = {}
        self.samples: dict[str, list[float]] = {}
        self.results: dict[str, list[Any]] = {}

    def timed(
        self, name: str, keep: Callable[[tuple, dict], bool] | None = None,
        summary: Callable[[Any], Any] | None = None,
    ):
        """A ``make`` function for ``Patches.replace``. Each kept call adds
        its entry time to ``starts[name]`` and its duration in seconds to
        ``samples[name]``; with ``summary``, ``summary(return value)`` goes
        to ``results[name]``. ``keep`` filters calls by their arguments."""
        starts = self.starts.setdefault(name, [])
        samples = self.samples.setdefault(name, [])
        results = self.results.setdefault(name, [])
        clock = time.perf_counter

        def make(fn: Callable) -> Callable:
            @functools.wraps(fn)
            def timed_call(*args, **kwargs):
                t0 = clock()
                result = fn(*args, **kwargs)
                t1 = clock()
                if keep is None or keep(args, kwargs):
                    starts.append(t0)
                    samples.append(t1 - t0)
                    if summary is not None:
                        results.append(summary(result))
                return result

            return timed_call

        return make


class Tracer:
    """In-memory spans (name, start, end, parent, op) around every target."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.names: list[str] = [f"{layer}.{attr}" for layer, _, attr in TARGETS]
        # one entry per span, in the order spans open
        self.span_name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")  # index of the enclosing span, -1 at top level
        self.op = array("i")  # id of the enclosing operation, 0 outside any
        self.outcome: list[int] = [0] * len(self.names)
        self._stack: list[int] = []
        self._op = 0  # id of the open operation, 0 outside any
        self._op_span = -1  # the span that opened it
        self._ops = 0
        self._op_ids = {i for i, name in enumerate(self.names) if name in OP_SPANS}

    def open(self, name_id: int) -> int:
        index = len(self.start)
        if not self._op and name_id in self._op_ids:
            self._ops += 1
            self._op = self._ops
            self._op_span = index
        self.span_name.append(name_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self._op)
        self.end.append(0.0)
        self._stack.append(index)
        self.start.append(self.clock())
        return index

    def close(self, index: int) -> None:
        self.end[index] = self.clock()
        self._stack.pop()
        if index == self._op_span:
            self._op = 0
            self._op_span = -1

    def wrapping(self, name_id: int):
        """A ``make`` function for ``Patches.replace``."""
        count = OUTCOMES.get(self.names[name_id])

        def make(fn: Callable) -> Callable:
            @functools.wraps(fn)
            def traced(*args, **kwargs):
                index = self.open(name_id)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    self.close(index)
                if count is not None:
                    self.outcome[name_id] += count(result)
                return result

            return traced

        return make

    def install(self, patches: Patches) -> None:
        for name_id, (_layer, owner, attr) in enumerate(TARGETS):
            patches.replace(owner, attr, self.wrapping(name_id))

    def self_times(self) -> list[float]:
        """Per span: its duration minus the durations of its direct children.

        Spans come from one thread, so children nest inside their parent
        and never overlap each other; their durations simply add up.
        """
        child = [0.0] * len(self.start)
        for i, parent in enumerate(self.parent):
            if parent >= 0:
                child[parent] += self.end[i] - self.start[i]
        return [self.end[i] - self.start[i] - child[i] for i in range(len(self.start))]

    def rollup(self) -> dict[str, dict[str, float]]:
        """name -> {calls, self_s, outcome} over every recorded span."""
        out = {name: {"calls": 0, "self_s": 0.0, "outcome": 0} for name in self.names}
        for name_id, own in zip(self.span_name, self.self_times()):
            row = out[self.names[name_id]]
            row["calls"] += 1
            row["self_s"] += own
        for name_id, total in enumerate(self.outcome):
            out[self.names[name_id]]["outcome"] = total
        return out

    def write_csv(self, path: str, spans: int | None = None) -> None:
        """Write the first `spans` spans (all by default), times relative
        to the first span's start."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("span,name,start_s,end_s,parent,op\n")
            t0 = self.start[0] if self.start else 0.0
            for i, name_id in enumerate(self.span_name[:spans]):
                fh.write(
                    f"{i},{self.names[name_id]},{self.start[i] - t0:.9f},"
                    f"{self.end[i] - t0:.9f},{self.parent[i]},{self.op[i]}\n"
                )
