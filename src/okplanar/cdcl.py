"""Embedded CNF solver: conflict-driven clause learning.

The one solver behind recognize's sat engine and solve-cnf. Implements the
standard kit: two watched literals, first-UIP learning, VSIDS branching with
exponential decay, phase saving, Luby restarts. Literals are DIMACS signed
integers throughout. Arrays indexed by literal have 2n + 1 slots: literal x
sits at slot x and -x wraps to slot 2n + 1 - x, so a literal and its
negation never share a slot. Arrays indexed by variable have n + 1 slots;
slot 0 of both kinds is unused.

The solver adopts the clause lists it is given rather than copying them:
each clause is stored once, and moving its watches reorders the literals
within the caller's list. Callers that read their clauses after the solve
must pass copies.
"""
from __future__ import annotations

import time
from heapq import heapify, heappop, heappush
from itertools import chain


class SolverTimeout(Exception):
    pass


def _luby(x: int) -> int:
    # Luby restart sequence, 0-based: 1 1 2 1 1 2 4 1 1 2 1 1 2 4 8 ...
    size, seq = 1, 0
    while size < x + 1:
        seq += 1
        size = 2 * size + 1
    while size - 1 != x:
        size = (size - 1) >> 1
        seq -= 1
        x %= size
    return 1 << seq


class CdclSolver:
    """A CDCL search over clauses given as lists of nonzero signed literals.

    The solver owns the lists it is given and may reorder the literals
    within them. Only a clause with a repeated literal is replaced, by a
    new merged list; a clause holding x and -x is dropped, and units and
    the empty clause are kept apart from the stored clauses.
    """

    def __init__(self, num_vars: int, clauses: list[list[int]]):
        # tolerate headers that undercount
        num_vars = max(num_vars, max(map(abs, chain.from_iterable(clauses)), default=0))
        self.nv = num_vars
        self.clauses: list[list[int]] = []
        self.watches: list[list[list[int]]] = [[] for _ in range(2 * num_vars + 1)]
        self.lval = [-1] * (2 * num_vars + 1)  # -1 unassigned / 0 false / 1 true
        self.level = [0] * (num_vars + 1)
        self.reason: list[list[int] | None] = [None] * (num_vars + 1)
        self.trail: list[int] = []  # assigned literals in order
        self.trail_lim: list[int] = []
        self.qhead = 0
        self.activity = [0.0] * (num_vars + 1)
        self.act_inc = 1.0
        self.phase = [False] * (num_vars + 1)
        self.seen = [False] * (num_vars + 1)
        # at most one live entry per variable: the one whose key matches
        # heap_act[v]; older entries are stale and skipped when popped
        self.heap: list[tuple[float, int]] = [(0.0, v) for v in range(1, num_vars + 1)]
        self.heap_act = [0.0] * (num_vars + 1)  # -1.0: v has no live entry
        self.ok = True
        self.units: list[int] = []
        watches, store = self.watches, self.clauses
        for c in clauses:
            if 0 in c:
                raise ValueError(f"literal 0 in clause {c}")
            if len(set(map(abs, c))) < len(c):  # a variable repeats
                c = list(dict.fromkeys(c))  # merge repeated literals
                if len(set(map(abs, c))) < len(c):
                    continue  # x or -x: always true
            if len(c) < 2:
                if c:
                    self.units.append(c[0])
                else:
                    self.ok = False
                continue
            watches[c[0]].append(c)
            watches[c[1]].append(c)
            store.append(c)

    def _enqueue(self, lit: int, reason: list[int] | None) -> bool:
        val = self.lval[lit]
        if val == 0:
            return False
        if val < 0:
            self.lval[lit] = 1
            self.lval[-lit] = 0
            self.level[abs(lit)] = len(self.trail_lim)
            self.reason[abs(lit)] = reason
            self.trail.append(lit)
        return True

    def _propagate(self) -> list[int] | None:
        """Returns a conflicting clause or None."""
        trail, watches, lval = self.trail, self.watches, self.lval
        level, reason, lvl = self.level, self.reason, len(self.trail_lim)
        qhead = self.qhead
        while qhead < len(trail):
            falsified = -trail[qhead]
            qhead += 1
            ws = watches[falsified]
            i, end = 0, len(ws)  # ws[end:] holds moved watches until the del
            while i < end:
                c = ws[i]
                first = c[0]
                if first == falsified:  # keep the falsified watch at c[1]
                    first = c[0] = c[1]
                    c[1] = falsified
                val = lval[first]
                if val == 1:
                    i += 1
                    continue
                for j in range(2, len(c)):
                    lit = c[j]
                    if lval[lit]:  # true or unassigned: watch it instead
                        c[1], c[j] = lit, falsified
                        watches[lit].append(c)
                        end -= 1
                        ws[i] = ws[end]
                        break
                else:
                    if val == 0:
                        del ws[end:]
                        self.qhead = qhead
                        return c
                    lval[first] = 1
                    lval[-first] = 0
                    level[abs(first)] = lvl
                    reason[abs(first)] = c
                    trail.append(first)
                    i += 1
            del ws[end:]
        self.qhead = qhead
        return None

    def _rescale(self) -> None:
        """Scale activities by 1e-100 and rebuild the heap at the new scale."""
        act, lval = self.activity, self.lval
        act[:] = [a * 1e-100 for a in act]
        self.act_inc *= 1e-100
        self.heap_act[:] = [act[v] if v and lval[v] < 0 else -1.0 for v in range(self.nv + 1)]
        self.heap[:] = [(-a, v) for v, a in enumerate(self.heap_act) if a >= 0.0]
        heapify(self.heap)

    def _analyze(self, confl: list[int]) -> tuple[list[int], int]:
        """First-UIP conflict clause and its backjump level."""
        seen, level, act, trail = self.seen, self.level, self.activity, self.trail
        learnt = [0]  # slot 0 for the asserting literal
        counter = 0
        idx = len(trail) - 1
        cur_level = len(self.trail_lim)
        reason_lits = confl
        while True:
            for l in reason_lits:
                v = abs(l)
                if not seen[v] and level[v] > 0:
                    seen[v] = True
                    act[v] += self.act_inc  # VSIDS bump; v is assigned, so no heap push
                    if act[v] > 1e100:
                        self._rescale()
                    if level[v] == cur_level:
                        counter += 1
                    else:
                        learnt.append(l)
            while not seen[abs(trail[idx])]:
                idx -= 1
            lit = trail[idx]
            idx -= 1
            seen[abs(lit)] = False
            counter -= 1
            if counter == 0:
                break
            # the propagated literal heads its reason clause
            reason_lits = self.reason[abs(lit)][1:]
        learnt[0] = -lit
        for l in learnt[1:]:  # the current level's marks are cleared already
            seen[abs(l)] = False
        if len(learnt) == 1:
            return learnt, 0
        bt = max(level[abs(l)] for l in learnt[1:])
        return learnt, bt

    def _backtrack(self, lvl: int) -> None:
        if len(self.trail_lim) <= lvl:
            return
        trail, lval, act, heap_act = self.trail, self.lval, self.activity, self.heap_act
        start = self.trail_lim[lvl]
        del self.trail_lim[lvl:]
        for lit in trail[start:]:
            v = abs(lit)
            self.phase[v] = lit > 0
            lval[lit] = lval[-lit] = -1
            if heap_act[v] != act[v]:
                heap_act[v] = act[v]
                heappush(self.heap, (-act[v], v))
        del trail[start:]
        self.qhead = min(self.qhead, start)

    def _decide(self) -> int | None:
        heap, heap_act = self.heap, self.heap_act
        while heap:
            key, v = heappop(heap)
            if heap_act[v] == -key:
                heap_act[v] = -1.0
                if self.lval[v] < 0:
                    return v if self.phase[v] else -v
        return None

    def solve(self, timeout_s: float | None = None) -> list[int] | None:
        """Model as a list of signed DIMACS literals, or None for UNSAT."""
        if not self.ok:
            return None
        deadline = None if timeout_s is None else time.monotonic() + timeout_s
        for lit in self.units:
            if not self._enqueue(lit, None):
                return None
        if self._propagate() is not None:
            return None
        conflicts = 0  # running total; restarts do not reset it
        restart_idx = 0
        next_restart = 64 * _luby(restart_idx)
        while True:
            confl = self._propagate()
            if confl is not None:
                conflicts += 1
                if not self.trail_lim:
                    return None
                learnt, bt = self._analyze(confl)
                self._backtrack(bt)
                if len(learnt) == 1:
                    self._enqueue(learnt[0], None)
                else:
                    # put a top-level literal second so watches stay sound
                    sec = max(range(1, len(learnt)), key=lambda i: self.level[abs(learnt[i])])
                    learnt[1], learnt[sec] = learnt[sec], learnt[1]
                    self.clauses.append(learnt)
                    self.watches[learnt[0]].append(learnt)
                    self.watches[learnt[1]].append(learnt)
                    self._enqueue(learnt[0], learnt)
                self.act_inc /= 0.95
                if deadline is not None and time.monotonic() > deadline:
                    raise SolverTimeout(f"embedded solver timed out after {conflicts} conflicts")
                if conflicts >= next_restart:
                    restart_idx += 1
                    next_restart = conflicts + 64 * _luby(restart_idx)
                    self._backtrack(0)
            else:
                lit = self._decide()
                if lit is None:
                    return [v if self.lval[v] == 1 else -v for v in range(1, self.nv + 1)]
                self.trail_lim.append(len(self.trail))
                self._enqueue(lit, None)
