"""Reference checkers built from the task JSON and the definitions alone.

Each checker reads the dictionary that ``metaplan.task_to_json`` produces and
re-derives the semantics from first principles: two operators conflict when
one deletes a precondition or an add effect of the other, a step of at most
``degree`` pairwise non-conflicting applicable operators moves state ``s`` to
``(s \\ U del) | U add``, and a plan is valid when every step is legal and
the final state holds the goal. Nothing here imports ``metaplan``, so the
checkers stay independent of the code they judge.
"""

from __future__ import annotations

from collections import deque
from itertools import combinations
from typing import Iterable, Optional, Sequence

Step = tuple[int, ...]


class RefTask:
    """Operator pre/add/del sets, init and goal read from a task JSON dict."""

    def __init__(self, data: dict):
        ops = data["operators"]
        self.pre = [frozenset(o["pre"]) for o in ops]
        self.add = [frozenset(o["add"]) for o in ops]
        self.dele = [frozenset(o["del"]) for o in ops]
        self.init = frozenset(data["init"])
        self.goal = frozenset(data["goal"])

    def conflict(self, a: int, b: int) -> bool:
        """Interference or inconsistent effects, in either direction."""
        return bool(self.dele[a] & (self.pre[b] | self.add[b])
                    or self.dele[b] & (self.pre[a] | self.add[a]))

    def successor(self, state: frozenset, step: Iterable[int]) -> frozenset:
        dele: set[int] = set()
        add: set[int] = set()
        for a in step:
            dele |= self.dele[a]
            add |= self.add[a]
        return (state - dele) | add


def simulate(task: RefTask, steps: Sequence[Step],
             degree: int) -> Optional[str]:
    """None when the plan is valid at ``degree``, else why it is not."""
    state = task.init
    for t, step in enumerate(steps):
        if not 1 <= len(step) <= degree:
            return f"step {t}: {len(step)} operators at degree {degree}"
        if len(set(step)) != len(step):
            return f"step {t}: repeated operator"
        if any(not 0 <= a < len(task.pre) for a in step):
            return f"step {t}: unknown operator"
        for a, b in combinations(step, 2):
            if task.conflict(a, b):
                return f"step {t}: operators {a} and {b} conflict"
        for a in step:
            if not task.pre[a] <= state:
                return f"step {t}: operator {a} not applicable"
        state = task.successor(state, step)
    if not task.goal <= state:
        return f"goal not reached after {len(steps)} steps"
    return None


def enumerate_actions(task: RefTask, state: frozenset,
                      degree: int) -> list[Step]:
    """Every conflict-free set of 1..degree applicable operators, sorted.

    Brute force over ``itertools.combinations``; sorting the atom tuples gives
    the lexicographic order the planner promises.
    """
    applicable = [i for i, pre in enumerate(task.pre) if pre <= state]
    out = []
    for k in range(1, degree + 1):
        for combo in combinations(applicable, k):
            if not any(task.conflict(a, b) for a, b in combinations(combo, 2)):
                out.append(combo)
    return sorted(out)


def compare_actions(got: Sequence[Step],
                    want: Sequence[Step]) -> Optional[str]:
    """None when ``got`` equals ``want`` element by element, else the first
    difference."""
    for i, (g, w) in enumerate(zip(got, want)):
        if tuple(g) != tuple(w):
            return f"action {i}: got {tuple(g)}, expected {tuple(w)}"
    if len(got) != len(want):
        return f"got {len(got)} actions, expected {len(want)}"
    return None


class SearchTooLarge(Exception):
    """The reference search visited more states than its cap."""


def bfs_makespan(task: RefTask, degree: int, depth_limit: int,
                 state_cap: int) -> Optional[int]:
    """Fewest steps to the goal at ``degree``, or None within the limit.

    Plain breadth-first search over frozenset states; successors come from
    :func:`enumerate_actions`, so degree 1 is the sequential search.
    """
    if task.goal <= task.init:
        return 0
    depth = {task.init: 0}
    queue = deque([task.init])
    while queue:
        state = queue.popleft()
        d = depth[state]
        if d >= depth_limit:
            continue
        for step in enumerate_actions(task, state, degree):
            nxt = task.successor(state, step)
            if nxt in depth:
                continue
            if task.goal <= nxt:
                return d + 1
            depth[nxt] = d + 1
            if len(depth) > state_cap:
                raise SearchTooLarge(f"more than {state_cap} states")
            queue.append(nxt)
    return None


def check_not_shorter(length: int, optimum: Optional[int]) -> Optional[str]:
    """None when a valid plan of ``length`` steps is no shorter than the
    optimum, else the contradiction."""
    if optimum is None:
        return f"plan of {length} steps where the search found none"
    if length < optimum:
        return f"plan of {length} steps beats the optimum {optimum}"
    return None


def plan_states(task: RefTask, steps: Sequence[Step]) -> list[frozenset]:
    """The states a plan visits, initial state first."""
    states = [task.init]
    for step in steps:
        states.append(task.successor(states[-1], step))
    return states
