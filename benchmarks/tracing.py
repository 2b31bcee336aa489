"""Span tracing at the public layer boundaries, and per-layer metrics.

The program is not modified: ``instrument`` patches each traced name where
the calling module looks it up (for example ``risjam.scenarios.run_optimizer``
rather than ``risjam.optimizer.run_optimizer``) and restores it on exit.
Spans (id, name, parent id, start, end) are kept in memory; per-layer times
and counts are derived from them afterwards.
"""

from __future__ import annotations

import functools
import itertools
import threading
import time
from collections import Counter
from contextlib import contextmanager

import numpy as np

# Span names, grouped by the layer they belong to.
EXECUTE = "cli.execute"
PARSE = "cli.parse_scenario"
RUN_SCENARIO = "scenarios.run_scenario"
SYNTHESIZE = "channel.synthesize_environment"
SUBCHANNELS = "channel.ris_subchannels"
BATCH = "channel.ris_subchannels_batch"
RECEIVED_RSSI = "channel.received_rssi"
RUN_OPTIMIZER = "optimizer.run_optimizer"
STEP = "optimizer.optimizer_step"
ORACLE = "optimizer.oracle"
LINK_FUNCTIONS = ("jsr_db", "sjnr_db", "packet_success_prob",
                  "rate_adapt_step", "throughput_mbps", "packet_rate")
LINK = tuple(f"link.{fn}" for fn in LINK_FUNCTIONS)

# Rows are matched on an integer key of their first 52 bits (exact in
# float64 whatever the summation order) before a full-row comparison; keeps
# the acceptance bookkeeping cheap next to a ~150 us optimizer step.
_KEY_WEIGHTS = 2.0 ** np.arange(52)


class Tracer:
    """In-memory span and counter store, safe to use from pool threads.

    A span opened in a thread with no open span of its own takes as parent
    the innermost span open in the main thread, which is the call that is
    waiting on the pool.
    """

    def __init__(self):
        self.spans: list[tuple[int, str, int | None, float, float]] = []
        self._ids = itertools.count(1)
        self._main_ident = threading.main_thread().ident
        self._main_stack: list[int] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._counters: list[Counter] = []

    def _stack(self) -> list[int]:
        if threading.get_ident() == self._main_ident:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def count(self, name: str, n: int = 1) -> None:
        counter = getattr(self._local, "counter", None)
        if counter is None:
            counter = self._local.counter = Counter()
            with self._lock:
                self._counters.append(counter)
        counter[name] += n

    def counts(self) -> Counter:
        with self._lock:
            return sum(self._counters, Counter())

    def reset(self) -> None:
        """Drop recorded spans and counts; only valid with no span open."""
        self.spans = []
        with self._lock:
            for counter in self._counters:
                counter.clear()

    def _open(self) -> tuple[list[int], int, int | None]:
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            parent = self._main_stack[-1] if self._main_stack else None
        sid = next(self._ids)
        stack.append(sid)
        return stack, sid, parent

    @contextmanager
    def span(self, name: str):
        stack, sid, parent = self._open()
        start = time.perf_counter()
        try:
            yield sid
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append((sid, name, parent, start, end))

    def wrap(self, name: str, fn):
        """``fn`` recording one span per call (inlined: called ~10^4 times
        per run, where a context manager would double the overhead)."""
        perf_counter = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack, sid, parent = self._open()
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                self.spans.append((sid, name, parent, start, end))
        return traced


def _count_rows(bits: np.ndarray, row: np.ndarray) -> int:
    """Number of rows of the 0/1 table ``bits`` equal to ``row``."""
    weights = _KEY_WEIGHTS[:bits.shape[1]]
    k = len(weights)
    keys = bits[:, :k] @ weights
    matches = np.flatnonzero(keys == row[:k] @ weights)
    return sum(1 for i in matches if np.array_equal(bits[i], row))


@contextmanager
def instrument(tracer: Tracer):
    """Patch the traced names of an imported ``risjam`` for the duration."""
    from risjam import channel, cli, link, optimizer, ris, scenarios

    patches = []

    def patch(owner, attr, replacement):
        patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def spanned(owner, attr, name):
        patch(owner, attr, tracer.wrap(name, getattr(owner, attr)))

    def batch_hook(fn):
        @functools.wraps(fn)
        def traced(env, positions, *args, **kwargs):
            positions = list(positions)
            tracer.count("channel.batch_positions", len(positions))
            tracer.count("channel.batch_terms", len(positions)
                         * env.n_elements * env.scatter_count)
            return spanned_fn(env, positions, *args, **kwargs)
        spanned_fn = tracer.wrap(BATCH, fn)
        return traced

    def subchannels_hook(fn):
        @functools.wraps(fn)
        def traced(env, *args, **kwargs):
            tracer.count("channel.single_terms",
                         env.n_elements * env.scatter_count)
            return spanned_fn(env, *args, **kwargs)
        spanned_fn = tracer.wrap(SUBCHANNELS, fn)
        return traced

    def step_hook(fn):
        # Acceptance is read from the table before and after the step: an
        # accepted candidate evicts the worst row, so one copy of it fewer
        # remains.  Re-evaluation only reorders rows, which leaves the count.
        @functools.wraps(fn)
        def traced(state, oracle):
            worst = state.bits[-1].copy()
            before = _count_rows(state.bits, worst)
            out = spanned_fn(state, oracle)
            if _count_rows(state.bits, worst) < before:
                tracer.count("optimizer.accepted")
            return out
        spanned_fn = tracer.wrap(STEP, fn)
        return traced

    def counted(owner, attr, name):
        fn = getattr(owner, attr)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            tracer.count(name)
            return fn(*args, **kwargs)
        patch(owner, attr, traced)

    try:
        spanned(cli, "run_scenario", RUN_SCENARIO)
        spanned(scenarios, "synthesize_environment", SYNTHESIZE)
        for module in (channel, scenarios):
            patch(module, "ris_subchannels",
                  subchannels_hook(getattr(module, "ris_subchannels")))
            patch(module, "ris_subchannels_batch",
                  batch_hook(getattr(module, "ris_subchannels_batch")))
            spanned(module, "received_rssi", RECEIVED_RSSI)
        spanned(scenarios, "run_optimizer", RUN_OPTIMIZER)
        patch(optimizer, "optimizer_step", step_hook(optimizer.optimizer_step))
        spanned(scenarios.RssiOracle, "__call__", ORACLE)
        for fn in LINK_FUNCTIONS:
            spanned(link, fn, f"link.{fn}")
        counted(ris.RisConfig, "__init__", "ris.configs_built")
        counted(ris.RisConfig, "coefficients", "ris.coefficients_calls")
        yield tracer
    finally:
        for owner, attr, original in reversed(patches):
            setattr(owner, attr, original)


def _union_length(intervals, lo: float, hi: float) -> float:
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted((max(s, lo), min(e, hi)) for s, e in intervals):
        if end <= start:
            continue
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans) -> dict[int, float]:
    """Span duration minus the part of its interval its children cover."""
    children: dict[int, list] = {}
    for sid, _, parent, start, end in spans:
        if parent is not None:
            children.setdefault(parent, []).append((start, end))
    return {sid: (end - start) - _union_length(children.get(sid, ()),
                                               start, end)
            for sid, _, _, start, end in spans}


def _busy(spans, names, by_id) -> float:
    """Summed duration of the outermost spans among ``names``."""
    names = set(names)
    return sum(end - start for _, name, parent, start, end in spans
               if name in names
               and (parent is None or by_id[parent][1] not in names))


def layer_metrics(spans, counts: Counter) -> dict[str, float]:
    """Per-layer metrics of one traced ``cli.execute`` (times in s)."""
    by_id = {s[0]: s for s in spans}
    selfs = self_times(spans)

    def total(name):
        return sum(end - start for _, n, _, start, end in spans if n == name)

    def calls(name):
        return sum(1 for s in spans if s[1] == name)

    steps_us = np.array([(end - start) * 1e6 for _, n, _, start, end in spans
                         if n == STEP])
    oracle_in_steps = sum(end - start for _, n, parent, start, end in spans
                          if n == ORACLE and by_id[parent][1] == STEP)
    n_steps = len(steps_us)
    return {
        "cli.parse_s": total(PARSE),
        "cli.write_s": total(EXECUTE) - total(RUN_SCENARIO),
        "channel.synthesize_s": total(SYNTHESIZE),
        "channel.ris_subchannels_calls": calls(SUBCHANNELS),
        "channel.ris_subchannels_s": total(SUBCHANNELS),
        "channel.batch_positions": counts["channel.batch_positions"],
        "channel.batch_s": total(BATCH),
        "channel.field_s": total(SUBCHANNELS) + total(BATCH),
        "channel.terms_computed": (counts["channel.batch_terms"]
                                   + counts["channel.single_terms"]),
        "channel.received_rssi_calls": calls(RECEIVED_RSSI),
        "channel.received_rssi_s": total(RECEIVED_RSSI),
        "ris.configs_built": counts["ris.configs_built"],
        "ris.coefficients_calls": counts["ris.coefficients_calls"],
        "optimizer.runs": calls(RUN_OPTIMIZER),
        "optimizer.steps": n_steps,
        "optimizer.oracle_calls": calls(ORACLE),
        "optimizer.step_us_p50": float(np.percentile(steps_us, 50)),
        "optimizer.step_us_p99": float(np.percentile(steps_us, 99)),
        "optimizer.oracle_s": total(ORACLE),
        "optimizer.self_s": total(STEP) - oracle_in_steps,
        "optimizer.accept_ratio": counts["optimizer.accepted"] / n_steps,
        "link.calls": sum(calls(name) for name in LINK),
        "link.s": _busy(spans, LINK, by_id),
        "scenarios.self_s": sum(selfs[s[0]] for s in spans
                                if s[1] == RUN_SCENARIO),
    }


def check_nesting(spans) -> list[str]:
    """Problems where a child span is not inside its parent's interval."""
    by_id = {s[0]: s for s in spans}
    problems = []
    for sid, name, parent, start, end in spans:
        if parent is None:
            continue
        if parent not in by_id:
            problems.append(f"span {sid} {name}: parent {parent} missing")
            continue
        _, pname, _, pstart, pend = by_id[parent]
        if not (pstart <= start <= end <= pend):
            problems.append(f"span {sid} {name} [{start}, {end}] is outside "
                            f"parent {parent} {pname} [{pstart}, {pend}]")
    return problems
