"""Per-layer tracing from outside the program.

:class:`LayerTracer` patches timing wrappers onto the public entry
points of each ``src/repro`` layer (engine, port, switch, transport,
LB policies, sweep, store, registry, report, models) and removes them
again on :meth:`LayerTracer.uninstall`.  Nothing inside the program is
edited: a wrapper is a plain function stored where the original was
(a class attribute, or every ``repro.*`` module attribute bound to the
original function), so callers pick it up through ordinary lookup.
Patch before any ``Network`` is built — ports cache their peer's bound
``receive`` on first delivery.

Each wrapped call is a span.  A span's *self* time is its duration
minus the time covered by the spans it encloses; a span entered while
the innermost open span has the same name (``put`` delegating to
``put_many``, a policy calling ``super()``) is transparent, so calls
and times are never counted twice.  Spans live in memory; the caller
reads :meth:`LayerTracer.spans` and the per-task ledger at the end.
"""

from __future__ import annotations

import importlib
import random
import sys
import time
from typing import Callable, Dict, List, Optional, Tuple

#: ``sim_time_ps >> SLOT_BITS`` is the number of 32.768 ns engine
#: wheel slots a run crossed (the engine's slot width)
SLOT_BITS = 15

#: picoseconds per microsecond (RunMetrics reports microseconds)
PS_PER_US = 1_000_000


#: every module that holds a patched function or imports one by name
_IMPORT_FIRST = (
    "repro.harness", "repro.harness.campaign", "repro.harness.backends",
    "repro.harness.model_tasks", "repro.lb", "repro.models.imbalance",
    "repro.report", "repro.scenarios",
)


class LayerTracer:
    """Span recorder plus the patch/unpatch bookkeeping."""

    def __init__(self) -> None:
        #: open spans, innermost last: ``[name, child_seconds]``
        self._stack: List[list] = []
        #: span name -> ``[calls, inclusive_s, self_s]``
        self._totals: Dict[str, list] = {}
        #: every patch made: ``(owner, attribute, original value)``
        self._saved: List[Tuple[object, str, object]] = []
        #: figure whose tasks are executing (for the ledger)
        self.figure = ""
        #: one record per executed task, in execution order
        self.ledger: List[Dict[str, object]] = []
        #: running sums read off executed task payloads and flows
        self.counts: Dict[str, float] = {}

    # ------------------------------------------------------------------
    # spans
    # ------------------------------------------------------------------
    def wrap(self, name: str, fn: Callable,
             before: Optional[Callable] = None,
             after: Optional[Callable] = None) -> Callable:
        """``fn`` timed as span ``name``.

        ``before(args, kwargs)`` runs ahead of the span and
        ``after(args, result, seconds)`` once it closed; neither is
        timed.
        """
        stack = self._stack
        rec = self._totals.setdefault(name, [0, 0.0, 0.0])
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if stack and stack[-1][0] is name:
                return fn(*args, **kwargs)
            if before is not None:
                before(args, kwargs)
            frame = [name, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = clock() - start
                stack.pop()
                rec[0] += 1
                rec[1] += dur
                rec[2] += dur - frame[1]
                if stack:
                    stack[-1][1] += dur
            if after is not None:
                after(args, result, dur)
            return result

        traced.__wrapped__ = fn
        return traced

    def spans(self) -> Dict[str, Tuple[int, float, float]]:
        """Span name -> ``(calls, inclusive_s, self_s)``."""
        return {name: tuple(rec) for name, rec in self._totals.items()}

    def count(self, name: str, amount: float) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    # ------------------------------------------------------------------
    # patching
    # ------------------------------------------------------------------
    def patch_method(self, cls: type, attr: str, name: str,
                     **hooks) -> None:
        """Wrap ``cls.attr`` where ``cls`` itself defines it."""
        original = cls.__dict__[attr]
        self._saved.append((cls, attr, original))
        setattr(cls, attr, self.wrap(name, original, **hooks))

    def patch_function(self, module: str, attr: str, name: str,
                       **hooks) -> None:
        """Wrap function ``module.attr`` in every ``repro`` module that
        imported it by name."""
        original = getattr(importlib.import_module(module), attr)
        wrapper = self.wrap(name, original, **hooks)
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "repro"
                                   or modname.startswith("repro.")):
                continue
            if vars(mod).get(attr) is original:
                self._saved.append((mod, attr, original))
                setattr(mod, attr, wrapper)

    def patched(self) -> List[Tuple[object, str, object]]:
        return list(self._saved)

    def install(self) -> None:
        """Patch every layer's public entry points."""
        if self._saved:
            raise RuntimeError("tracer already installed")
        # import every module first: one imported mid-install would bind
        # a wrapper by name and keep it after uninstall
        for module in _IMPORT_FIRST:
            importlib.import_module(module)
        from repro.harness import runner, sweep
        from repro.harness.store import ColumnarStore
        from repro.lb.base import LbContext, available, make_lb
        from repro.scenarios.registry import FigureResult
        from repro.sim.engine import Engine
        from repro.sim.network import Network
        from repro.sim.port import EgressPort
        from repro.sim.switch import Switch
        from repro.sim.transport import FlowReceiver, FlowSender

        try:
            self.patch_method(runner.Scenario, "network", "sim.network")
            self.patch_method(Network, "add_flow", "sim.network.add_flow",
                              before=self._count_needed)
            self.patch_method(Engine, "run", "sim.engine")
            self.patch_method(EgressPort, "enqueue", "sim.port")
            self.patch_method(EgressPort, "enqueue_burst", "sim.port")
            self.patch_method(Switch, "receive", "sim.switch")
            self.patch_method(FlowReceiver, "on_data",
                              "sim.transport.on_data")
            self.patch_method(FlowSender, "on_ack", "sim.transport.on_ack")
            self.patch_method(FlowSender, "on_nack",
                              "sim.transport.on_nack")
            self.patch_method(FlowSender, "start", "sim.transport.start")
            for cls in policy_classes(available(), make_lb, LbContext):
                for attr, name in (("next_entropy", "lb.next_entropy"),
                                   ("on_ack", "lb.feedback"),
                                   ("on_nack", "lb.feedback"),
                                   ("on_timeout", "lb.feedback")):
                    if attr in cls.__dict__:
                        self.patch_method(cls, attr, name)
            self.patch_function("repro.harness.sweep", "execute_task",
                                "harness.sweep.execute_task",
                                after=self._record_task)
            self.patch_function("repro.harness.sweep", "task_key",
                                "harness.sweep.task_key")
            self.patch_function("repro.harness.sweep", "run_sweep",
                                "harness.sweep.run_sweep")
            self.patch_function("repro.harness.store", "open_store",
                                "harness.store.open")
            self.patch_method(sweep.ResultStore, "get", "harness.store.get")
            self.patch_method(sweep.ResultStore, "put", "harness.store.put")
            self.patch_method(sweep.ResultStore, "put_many",
                              "harness.store.put")
            self.patch_method(ColumnarStore, "put_many",
                              "harness.store.put")
            self.patch_function("repro.scenarios.registry", "run_figure",
                                "scenarios.registry.run_figure",
                                before=self._enter_figure)
            self.patch_method(FigureResult, "check",
                              "scenarios.registry.check")
            self.patch_function("repro.report.reproduction",
                                "write_campaign_report", "report.render")
            self.patch_function("repro.models.imbalance", "load_imbalance",
                                "models.load_imbalance")
        except BaseException:
            self.uninstall()
            raise

    def uninstall(self) -> None:
        """Restore every patched attribute, newest patch first."""
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------------
    # hooks (run outside the timed span)
    # ------------------------------------------------------------------
    def _enter_figure(self, args, kwargs) -> None:
        spec = args[0] if args else kwargs["spec"]
        self.figure = spec if isinstance(spec, str) else spec.fig_id

    def _count_needed(self, args, kwargs) -> None:
        net = args[0]
        size_bytes = args[3] if len(args) > 3 else kwargs["size_bytes"]
        mtu = net.config.topo.mtu_bytes
        self.count("data_pkts_needed", -(-size_bytes // mtu))

    def _record_task(self, args, payload, seconds: float) -> None:
        task = args[0]
        metrics = payload.get("metrics") or {}
        record: Dict[str, object] = {
            "figure": self.figure, "label": task.label(),
            "wall_s": round(seconds, 6)}
        if task.workload.kind == "model":
            params = dict(task.workload.params)
            if task.workload.pattern == "imbalance":
                self.count("ev_hashes",
                           (1 << int(params["evs_exponent"]))
                           * int(params.get("n_flows", 1))
                           * int(params.get("repeats", 50)))
            record["params"] = {k: params[k] for k in sorted(params)}
        else:
            for field in ("events", "pkts_sent", "timeouts",
                          "retransmissions", "drops_overflow",
                          "drops_link_down", "drops_ber", "ecn_marks",
                          "trims"):
                self.count(field, metrics.get(field, 0))
            sim_ps = int(round(metrics.get("sim_time_us", 0.0)
                               * PS_PER_US))
            self.count("slots_crossed", sim_ps >> SLOT_BITS)
            pkts = metrics.get("pkts_sent", 0)
            record.update(
                events=metrics.get("events", 0), pkts_sent=pkts,
                timeouts=metrics.get("timeouts", 0),
                retransmissions=metrics.get("retransmissions", 0),
                events_per_pkt=round(metrics.get("events", 0) / pkts, 3)
                if pkts else None,
                flows_completed=metrics.get("flows_completed", 0),
                flows_total=metrics.get("flows_total", 0))
        self.ledger.append(record)


def policy_classes(names, make_lb, context_cls) -> List[type]:
    """Every class along the MRO of every registered policy, base
    classes first, each once (``object`` excluded)."""
    seen: List[type] = []
    for name in names:
        lb = make_lb(name, context_cls(rng=random.Random(0)))
        for cls in reversed(type(lb).__mro__):
            if cls is not object and cls not in seen:
                seen.append(cls)
    return seen


def leftover_wrappers() -> List[str]:
    """``module.attr`` / ``Class.attr`` names in ``repro`` that still
    hold a tracer wrapper."""
    found = []
    for modname, mod in list(sys.modules.items()):
        if mod is None or not (modname == "repro"
                               or modname.startswith("repro.")):
            continue
        for attr, value in list(vars(mod).items()):
            owners = [(f"{modname}.{attr}", value)]
            if isinstance(value, type) and value.__module__ == modname:
                owners += [(f"{modname}.{attr}.{a}", v)
                           for a, v in vars(value).items()]
            found += [name for name, v in owners
                      if getattr(v, "__qualname__", "").startswith(
                          "LayerTracer.wrap.")]
    return sorted(found)
