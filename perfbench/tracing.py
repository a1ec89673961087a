"""Wrappers set from outside the program: clock hooks, state counts, spans.

Nothing here changes what the program computes. Every wrapper replaces a
module attribute and is removed again by :meth:`Patches.undo`. A function
that other modules imported by name (``applicable_actions``,
``featurize_all``, ``build_conflict_set`` and others) is replaced in every
module that holds it, so calls through any of those names are seen.
"""

from __future__ import annotations

import gc
import time
from collections import Counter, defaultdict
from typing import Callable

import metaplan
from metaplan import cli, env, evalkit, grounding, meta_ops, pddl, policy

_MODULES = (metaplan, pddl, grounding, meta_ops, env, policy, evalkit, cli)


class Patches:
    """Attribute replacements that can be undone in reverse order."""

    def __init__(self) -> None:
        self._undo: list[tuple[object, str, object]] = []

    def replace(self, module: object, name: str,
                make: Callable[[Callable], Callable]) -> None:
        """Wrap ``module.name``; a missing name is a hook point lost to a
        refactor, so it raises AttributeError instead of passing silently."""
        original = getattr(module, name)
        setattr(module, name, make(original))
        self._undo.append((module, name, original))

    def replace_everywhere(self, module: object, name: str,
                           make: Callable[[Callable], Callable]) -> None:
        """Wrap the function ``module.name`` in every module that holds it."""
        original = getattr(module, name)
        wrapped = make(original)
        for mod in _MODULES:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapped)
                    self._undo.append((mod, attr, original))

    def undo(self) -> None:
        while self._undo:
            module, name, original = self._undo.pop()
            setattr(module, name, original)


class Hooks:
    """The untraced instrumentation: host-clock marks and a state count.

    The clock is marked before every training episode, every policy update
    and every evaluation run, and again at each counted state once a slice
    has run for ``hostclock.SLICE_S``, so slices stay short.
    ``states`` counts the states at which the program enumerated the
    applicable meta-actions and then acted on them: rollout decisions, policy
    evaluation decisions and BFS expansions. Enumerations repeated inside the
    policy update are not new states and are not counted.
    """

    def __init__(self, clock) -> None:
        self.clock = clock
        self.states = 0
        self.captured: list | None = None
        self.patches = Patches()

    def install(self) -> None:
        clock = self.clock

        def marking(fn):
            def hook(*args, **kwargs):
                clock.mark()
                return fn(*args, **kwargs)
            return hook

        def capturing(fn):
            def hook(*args, **kwargs):
                clock.mark()
                trace = fn(*args, **kwargs)
                if self.captured is not None:
                    self.captured.append((trace.task, trace.states))
                return trace
            return hook

        def counting(fn):
            def hook(*args, **kwargs):
                self.states += 1
                clock.maybe_mark()
                return fn(*args, **kwargs)
            return hook

        def sampling(fn):
            def hook(*args, **kwargs):
                clock.maybe_mark()
                return fn(*args, **kwargs)
            return hook

        self.patches.replace(cli, "ground", sampling)
        self.patches.replace(policy, "rollout", capturing)
        self.patches.replace(policy, "policy_update", marking)
        self.patches.replace(evalkit, "run_policy", marking)
        self.patches.replace(env, "applicable_actions", counting)
        self.patches.replace(evalkit, "applicable_actions", counting)

    def undo(self) -> None:
        self.patches.undo()


class Tracer:
    """Self time and counts per layer, from spans around public functions.

    Time is charged to the innermost open span (or to garbage collection
    while it runs), so a span's self time is its duration minus the time of
    the wrapped calls nested inside it. Time outside every span, the
    reference loop and the tracer's own counting is charged to nothing.
    Charged time is collected per slice of the host clock and scaled by that
    slice's correction factor, so it is in the same host-corrected seconds
    as the end-to-end figures.
    """

    def __init__(self) -> None:
        self.stack: list[str] = []
        self.last = 0.0
        self.pending: dict[str, float] = defaultdict(float)
        self.times: dict[str, float] = defaultdict(float)
        self.counts: Counter = Counter()
        self.patches = Patches()

    def _charge(self, now: float) -> None:
        if self.stack:
            self.pending[self.stack[-1]] += now - self.last
        self.last = now

    # -- the host clock's listener interface -----------------------------
    def pause(self, now: float) -> None:
        self._charge(now)

    def resume(self, now: float) -> None:
        self.last = now

    def close_slice(self, factor: float) -> None:
        for name, seconds in self.pending.items():
            self.times[name] += seconds * factor
        self.pending.clear()

    def take(self) -> tuple[dict[str, float], Counter]:
        """Return the totals so far and start new ones."""
        times, counts = dict(self.times), Counter(self.counts)
        self.times.clear()
        self.counts.clear()
        return times, counts

    # -- spans -----------------------------------------------------------
    def _span(self, name: str, on_result=None):
        stack, charge = self.stack, self._charge

        def make(fn):
            def traced(*args, **kwargs):
                charge(time.perf_counter())
                stack.append(name)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    charge(time.perf_counter())
                    stack.pop()
                if on_result is not None:
                    on_result(result, args)
                    self.last = time.perf_counter()
                return result
            return traced
        return make

    def _gc_callback(self, phase: str, info: dict) -> None:
        self._charge(time.perf_counter())
        if phase == "start":
            self.stack.append("runtime.gc")
        elif self.stack and self.stack[-1] == "runtime.gc":
            self.stack.pop()
            if info.get("generation") == 2:
                self.counts["runtime.gc_gen2"] += 1

    def install(self) -> None:
        counts = self.counts

        def grounded(task, args):
            counts["grounding.operators"] += len(task.operators)
            counts["grounding.facts"] += len(task.facts)

        def conflicts_built(conflict_set, args):
            counts["meta_ops.conflict_build_calls"] += 1
            counts["meta_ops.conflict_pairs"] += len(conflict_set)

        def enumerated(actions, args):
            counts["meta_ops.enumerate_calls"] += 1
            counts["meta_ops.actions_enumerated"] += len(actions)
            single = 0
            for action in actions:
                size = len(action.atoms)
                counts[f"meta_ops.actions_deg{size}"] += 1
                single += size == 1
            counts["meta_ops.ops_scanned"] += len(args[0].operators)
            counts["meta_ops.ops_applicable"] += single
            if self.stack and self.stack[-1] == "evalkit.bfs":
                counts["evalkit.bfs_expanded"] += 1
                counts["evalkit.bfs_generated"] += len(actions)

        def featurized(feats, args):
            counts["policy.featurize_calls"] += 1
            counts["policy.featurize_rows"] += len(feats)

        def counted(key):
            def on_result(result, args):
                counts[key] += 1
            return on_result

        p = self.patches
        p.replace_everywhere(cli, "load_problem_dir", self._span("cli.load"))
        p.replace_everywhere(pddl, "parse_domain", self._span("pddl.parse"))
        p.replace_everywhere(pddl, "parse_problem", self._span("pddl.parse"))
        p.replace_everywhere(grounding, "ground",
                             self._span("grounding.ground", grounded))
        p.replace_everywhere(meta_ops, "build_conflict_set",
                             self._span("meta_ops.conflict_build",
                                        conflicts_built))
        p.replace_everywhere(meta_ops, "applicable_actions",
                             self._span("meta_ops.enumerate", enumerated))
        p.replace_everywhere(env, "rollout",
                             self._span("env.rollout",
                                        counted("env.episodes")))
        p.replace_everywhere(env, "step",
                             self._span("env.step", counted("env.steps")))
        p.replace_everywhere(policy, "featurize_all",
                             self._span("policy.featurize", featurized))
        p.replace_everywhere(policy, "policy_update",
                             self._span("policy.update"))
        p.replace_everywhere(policy, "surrogate_objective",
                             self._span("policy.surrogate",
                                        counted("policy.surrogate_calls")))
        p.replace_everywhere(evalkit, "run_policy",
                             self._span("evalkit.run_policy"))
        p.replace_everywhere(evalkit, "bfs_solve", self._span("evalkit.bfs"))
        gc.callbacks.append(self._gc_callback)

    def undo(self) -> None:
        if self._gc_callback in gc.callbacks:
            gc.callbacks.remove(self._gc_callback)
        self.patches.undo()
