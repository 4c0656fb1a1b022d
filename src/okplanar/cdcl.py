"""Embedded CNF solver: conflict-driven clause learning.

Used whenever no external DIMACS solver is configured. Implements the
standard kit: two watched literals, first-UIP learning, VSIDS branching with
exponential decay, phase saving, Luby restarts. Input and output speak DIMACS
conventions (1-based signed literals); internally literals are 2*var (+) and
2*var+1 (-) over 0-based variables.
"""
from __future__ import annotations

import time
from heapq import heappop, heappush


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
    def __init__(self, num_vars: int, clauses: list[list[int]]):
        for c in clauses:  # tolerate headers that undercount
            for x in c:
                num_vars = max(num_vars, abs(x))
        self.nv = num_vars
        self.clauses: list[list[int]] = []
        self.watches: list[list[int]] = [[] for _ in range(2 * num_vars)]
        self.value = [-1] * num_vars  # -1 unassigned / 0 false / 1 true
        self.level = [0] * num_vars
        self.reason: list[int | None] = [None] * num_vars
        self.trail: list[int] = []  # assigned literals in order
        self.trail_lim: list[int] = []
        self.qhead = 0
        self.activity = [0.0] * num_vars
        self.act_inc = 1.0
        self.phase = [False] * num_vars
        self.heap: list[tuple[float, int]] = []
        self.ok = True
        self.units: list[int] = []
        for c in clauses:
            self._add_clause([self._lit(x) for x in c])
        for v in range(num_vars):
            heappush(self.heap, (0.0, v))

    @staticmethod
    def _lit(x: int) -> int:
        v = abs(x) - 1
        return 2 * v + (1 if x < 0 else 0)

    @staticmethod
    def _ext(lit: int) -> int:
        return (lit // 2 + 1) * (-1 if lit & 1 else 1)

    def _lit_value(self, lit: int) -> int:
        v = self.value[lit >> 1]
        if v < 0:
            return -1
        return v ^ (lit & 1)

    def _add_clause(self, lits: list[int]) -> None:
        # dedupe; drop tautologies
        seen = set()
        out = []
        for l in lits:
            if l ^ 1 in seen:
                return
            if l not in seen:
                seen.add(l)
                out.append(l)
        if not out:
            self.ok = False
            return
        if len(out) == 1:
            self.units.append(out[0])
            return
        idx = len(self.clauses)
        self.clauses.append(out)
        self.watches[out[0]].append(idx)
        self.watches[out[1]].append(idx)

    def _enqueue(self, lit: int, reason: int | None) -> bool:
        v = lit >> 1
        val = self._lit_value(lit)
        if val == 0:
            return False
        if val == -1:
            self.value[v] = 0 if (lit & 1) else 1
            self.level[v] = len(self.trail_lim)
            self.reason[v] = reason
            self.trail.append(lit)
        return True

    def _propagate(self) -> int | None:
        """Returns a conflicting clause index or None."""
        while self.qhead < len(self.trail):
            lit = self.trail[self.qhead]
            self.qhead += 1
            falsified = lit ^ 1
            ws = self.watches[falsified]
            i = 0
            while i < len(ws):
                ci = ws[i]
                c = self.clauses[ci]
                # ensure falsified is c[1]
                if c[0] == falsified:
                    c[0], c[1] = c[1], c[0]
                if self._lit_value(c[0]) == 1:
                    i += 1
                    continue
                moved = False
                for j in range(2, len(c)):
                    if self._lit_value(c[j]) != 0:
                        c[1], c[j] = c[j], c[1]
                        self.watches[c[1]].append(ci)
                        ws[i] = ws[-1]
                        ws.pop()
                        moved = True
                        break
                if moved:
                    continue
                if not self._enqueue(c[0], ci):
                    return ci
                i += 1
        return None

    def _bump(self, v: int) -> None:
        self.activity[v] += self.act_inc
        if self.activity[v] > 1e100:
            for u in range(self.nv):
                self.activity[u] *= 1e-100
            self.act_inc *= 1e-100
        heappush(self.heap, (-self.activity[v], v))

    def _analyze(self, confl: int) -> tuple[list[int], int]:
        """First-UIP conflict clause and its backjump level."""
        learnt = [0]  # slot 0 for the asserting literal
        seen = [False] * self.nv
        counter = 0
        idx = len(self.trail) - 1
        cur_level = len(self.trail_lim)
        reason_lits: list[int] = list(self.clauses[confl])
        while True:
            for l in reason_lits:
                v = l >> 1
                if not seen[v] and self.level[v] > 0:
                    seen[v] = True
                    self._bump(v)
                    if self.level[v] == cur_level:
                        counter += 1
                    else:
                        learnt.append(l)
            while not seen[self.trail[idx] >> 1]:
                idx -= 1
            lit = self.trail[idx]
            idx -= 1
            seen[lit >> 1] = False
            counter -= 1
            if counter == 0:
                break
            reason_lits = [x for x in self.clauses[self.reason[lit >> 1]] if x != lit]
        learnt[0] = lit ^ 1
        if len(learnt) == 1:
            return learnt, 0
        bt = max(self.level[l >> 1] for l in learnt[1:])
        return learnt, bt

    def _backtrack(self, lvl: int) -> None:
        while len(self.trail_lim) > lvl:
            start = self.trail_lim.pop()
            for lit in reversed(self.trail[start:]):
                v = lit >> 1
                self.phase[v] = self.value[v] == 1
                self.value[v] = -1
                self.reason[v] = None
                heappush(self.heap, (-self.activity[v], v))
            del self.trail[start:]
        self.qhead = min(self.qhead, len(self.trail))

    def _decide(self) -> int | None:
        while self.heap:
            _, v = heappop(self.heap)
            if self.value[v] < 0:
                return 2 * v + (0 if self.phase[v] else 1)
        for v in range(self.nv):
            if self.value[v] < 0:
                return 2 * v + (0 if self.phase[v] else 1)
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
                    idx = len(self.clauses)
                    # put a top-level literal second so watches stay sound
                    sec = max(range(1, len(learnt)), key=lambda i: self.level[learnt[i] >> 1])
                    learnt[1], learnt[sec] = learnt[sec], learnt[1]
                    self.clauses.append(learnt)
                    self.watches[learnt[0]].append(idx)
                    self.watches[learnt[1]].append(idx)
                    self._enqueue(learnt[0], idx)
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
                    return [self._ext(2 * v + (0 if self.value[v] == 1 else 1)) for v in range(self.nv)]
                self.trail_lim.append(len(self.trail))
                self._enqueue(lit, None)
