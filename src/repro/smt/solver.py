"""The DPLL(T) core: SAT + EUF + LIA + quantifier instantiation.

Architecture (lazy SMT):

1. Assertions are preprocessed — NNF, skolemization of existentials,
   ground ITE lifting, div/mod axioms — and Tseitin-encoded into CNF whose
   atoms are theory literals (equalities, inequalities, boolean applications)
   and quantifier proxies.
2. The CDCL SAT core proposes a boolean model.
3. Theory solvers (congruence closure, simplex/branch-and-bound) check the
   proposed model; a theory conflict becomes a learned clause built from the
   theory's *explanation* and the loop continues.
4. Once theories agree, universal quantifiers active in the model are
   instantiated by E-matching on the e-graph (trigger policy is pluggable —
   the Verus-vs-Dafny axis of §3.1).  New instances extend the CNF.
5. When E-matching saturates: with MBQI enabled (EPR mode §3.2) the solver
   falls back to complete instantiation over the ground universe, which is a
   decision procedure for EPR; otherwise the result is UNKNOWN-on-sat.

Statistics exposed per check: conflicts, theory lemmas, instantiations,
query size in bytes — the measurable quantities behind Figures 7–9.
"""

from __future__ import annotations

import threading
import time
from typing import Iterable, Optional

from . import terms as T
from ..resilience import faults as _faults
from ..resilience.faults import InjectedCrash
from .euf import EufConflict, EufSolver
from .lia import LiaConflict, LiaSolver, LiaUnknown, LinExpr
from .printer import query_size_bytes, term_to_str
from .quant import CONSERVATIVE, EMatcher, TriggerError, select_triggers
from .sat import SatSolver, lit as mk_lit, neg
from .sorts import BOOL, INT

SAT = "sat"
UNSAT = "unsat"
UNKNOWN = "unknown"


class _DeadlineReached(Exception):
    """Internal: the soft wall-clock deadline passed inside an inner
    loop (see :meth:`SmtSolver._poll_deadline`).  Caught in
    :meth:`SmtSolver.check`, never escapes the solver."""


def _no_poll() -> None:
    """Deadline poll stand-in for contexts that must not abort."""


class _ThreadConstructions(threading.local):
    """Per-thread count of SmtSolver instances built."""

    def __init__(self):
        self.count = 0


_thread_constructions = _ThreadConstructions()
_total_constructions = [0]
_constructions_lock = threading.Lock()


def solver_constructions() -> int:
    """SmtSolver instances built on the *calling thread* since it started.

    The verification daemon runs each request's scheduler inline on one
    worker thread, so diffing this counter around a request measures how
    many solvers that request actually paid for — the observable that
    distinguishes the delta/warm fast paths from a cold verify.
    """
    return _thread_constructions.count


def total_solver_constructions() -> int:
    """SmtSolver instances built process-wide (all threads)."""
    with _constructions_lock:
        return _total_constructions[0]


class Stats:
    """Counters for one solver instance (cumulative across checks).

    The same class doubles as the aggregate reported by the verification
    scheduler (:mod:`repro.vc.scheduler`): per-obligation snapshots are
    :meth:`merge`-d into one Stats, so solver counters, proof-cache
    hits/misses, and per-obligation wall-clock all surface through a
    single uniform :meth:`snapshot` shape.
    """

    def __init__(self):
        self.conflicts = 0
        self.theory_lemmas = 0
        self.instantiations = 0
        self.mbqi_instantiations = 0
        # Trigger selections that silently degraded (broad policy falling
        # through to conservative, or a brittle multi-pattern group) —
        # see repro.smt.quant.select_triggers.
        self.trigger_fallbacks = 0
        self.rounds = 0
        self.query_bytes = 0
        self.solve_seconds = 0.0
        # Incremental E-matching / fired-set / pruning counters (this is
        # where the profile-driven solver pass shows its work):
        # index-served match calls, match calls skipped entirely via the
        # new-term watermark, instantiations skipped by the fired-set
        # memo, context axioms dropped per obligation, and the query
        # bytes those dropped axioms would have cost.
        self.ematch_index_hits = 0
        self.ematch_rescans_avoided = 0
        self.fired_set_hits = 0
        self.pruned_axioms = 0
        self.query_bytes_saved = 0
        # Matches whose substitution is pairwise congruent (in the real
        # e-graph) to an already-asserted instance of the same quantifier:
        # the new instance is entailed by the old one plus the current
        # congruences, so it is skipped without being recorded anywhere —
        # if a later backtrack breaks the congruence, the match re-derives.
        self.congruent_skips = 0
        # Per-quantifier/per-trigger instantiation counts:
        # {quantifier label: {trigger label: count}}.  MBQI instantiations
        # are recorded under the reserved trigger label "<mbqi>" so the
        # profiler (repro.diag.profile) can separate the two mechanisms.
        self.inst_profile: dict = {}
        # Scheduler-level counters (always 0 on a bare solver instance).
        self.cache_hits = 0
        self.cache_misses = 0
        self.obligations = 0
        self.obligation_seconds = 0.0
        self.wall_seconds = 0.0
        # Resilience counters (repro.resilience + the scheduler's retry
        # escalation ladder); all stay 0 on fault-free default runs.
        self.resource_outs = 0        # RESOURCE_OUT verdicts observed
        self.pool_failures = 0        # worker deaths / pool breakage
        self.retries = 0              # escalation-ladder attempts
        self.retry_recoveries = 0     # obligations rescued by the ladder
        self.journal_skips = 0        # goals replayed from a run journal
        self.faults_injected = 0      # FaultPlan firings during the run
        # Warm solver-context pool (repro.server.warm / the scheduler's
        # solver_pool hook): groups served from a resident pre-warmed
        # context vs. groups that had to build their prefix from scratch.
        self.warm_pool_hits = 0
        self.warm_pool_misses = 0
        # Portfolio racing / auto-tuner (repro.profiles + the scheduler's
        # _portfolio_pass); all stay 0 when racing is off.
        self.portfolio_races = 0      # stubborn obligations raced
        self.portfolio_attempts = 0   # live (non-cache) race solves
        self.portfolio_wins = 0       # races that adopted a PROVED verdict
        self.tuner_hits = 0           # obligations redirected by the tuner
        self.tuner_misses = 0         # tuner lookups with no record
        # Static proving tier (repro.analysis.absint + the scheduler's
        # triage pass); all stay 0 when triage is off.
        self.static_proved = 0            # obligations discharged statically
        self.absint_fixpoint_iters = 0    # entailment fixpoint passes
        self.solver_constructions_avoided = 0  # solvers never built
        # Tiered proof cache (repro.cache.tiers): per-tier hit breakdown
        # and the network tier's fault-tolerance envelope.  All stay 0
        # with the flat disk cache (cache_hits/cache_misses above remain
        # the aggregate either way).
        self.mem_hits = 0             # lookups answered by the LRU tier
        self.disk_hits = 0            # lookups answered by the disk tier
        self.net_hits = 0             # lookups answered by a replica
        self.net_timeouts = 0         # request attempts that hit deadline
        self.net_retries = 0          # backoff-ladder steps taken
        self.breaker_trips = 0        # circuit breaker open transitions
        self.quarantined = 0          # entries rejected at a tier boundary

    def snapshot(self) -> dict:
        snap = dict(self.__dict__)
        snap["inst_profile"] = {q: dict(per)
                                for q, per in self.inst_profile.items()}
        return snap

    def merge(self, snap: dict) -> None:
        """Accumulate another snapshot's numeric counters into this one."""
        for k, v in snap.items():
            if k == "inst_profile":
                if isinstance(v, dict):
                    for q, per in v.items():
                        mine = self.inst_profile.setdefault(q, {})
                        for trig, n in per.items():
                            mine[trig] = mine.get(trig, 0) + n
                continue
            if isinstance(v, bool) or not isinstance(v, (int, float)):
                continue
            setattr(self, k, getattr(self, k, 0) + v)

    @staticmethod
    def diff(before: dict, after: dict) -> dict:
        """Per-goal delta between two snapshots of one warm solver.

        Counters on a pooled solver are cumulative across goals; the warm
        scheduler snapshots around each check and reports the difference so
        per-obligation numbers stay comparable to fresh-solver runs.
        """
        out: dict = {}
        for k, v in after.items():
            if k == "inst_profile":
                delta: dict = {}
                prior = before.get(k) or {}
                for q, per in v.items():
                    pq = prior.get(q) or {}
                    for trig, n in per.items():
                        d = n - pq.get(trig, 0)
                        if d:
                            delta.setdefault(q, {})[trig] = d
                out[k] = delta
                continue
            if isinstance(v, bool) or not isinstance(v, (int, float)):
                continue
            out[k] = v - before.get(k, 0)
        return out


class SolverConfig:
    """Tunables; defaults model Verus's settings."""

    def __init__(self,
                 trigger_policy: str = CONSERVATIVE,
                 max_rounds: int = 60,
                 max_instantiations: int = 6000,
                 mbqi: bool = False,
                 mbqi_max_universe: int = 9,
                 sat_conflict_budget: int = 400000,
                 nonlinear: bool = False,
                 incremental_ematch: bool = True,
                 max_steps: Optional[int] = None):
        self.trigger_policy = trigger_policy
        self.max_rounds = max_rounds
        self.max_instantiations = max_instantiations
        self.mbqi = mbqi
        self.mbqi_max_universe = mbqi_max_universe
        self.sat_conflict_budget = sat_conflict_budget
        self.nonlinear = nonlinear
        # Incremental E-matching: persistent apps-by-decl index, new-term
        # watermarks, and the fired-set memo.  False restores the naive
        # rescan-everything matcher (the differential-testing reference).
        self.incremental_ematch = incremental_ematch
        # Overall per-check step budget (rounds + theory conflicts +
        # instantiations).  Unlike the wall-clock deadline this is
        # machine-independent, so a RESOURCE_OUT verdict reproduces
        # everywhere.  None = unbounded (the per-dimension budgets above
        # still apply).
        self.max_steps = max_steps


class SmtSolver:
    """An SMT solver for quantified formulas over EUF + LIA."""

    def __init__(self, config: Optional[SolverConfig] = None,
                 incremental: bool = False):
        _thread_constructions.count += 1
        with _constructions_lock:
            _total_constructions[0] += 1
        self.config = config or SolverConfig()
        self.stats = Stats()
        self._assertions: list[T.Term] = []
        self._sat = SatSolver()
        self._atom_var: dict[T.Term, int] = {}
        self._var_atom: dict[int, T.Term] = {}
        self._quant_proxy: dict[T.Term, int] = {}   # FORALL term -> sat var
        self._proxy_quant: dict[int, T.Term] = {}
        self._instances_seen: set = set()
        # Substitution tuples actually asserted per quantifier, for the
        # congruent-instance skip (see Stats.congruent_skips).  Scoped
        # with push/pop like _instances_seen.
        self._inst_subs: dict = {}
        # Fired-set memo: (quant, trigger group, congruence-root tuple) ->
        # (class fingerprints, instance key).  A match whose root tuple and
        # class fingerprints are unchanged since it last fired is skipped
        # before canonicalization/substitution — the late _instances_seen
        # filter would have discarded it anyway.  Scoped with push/pop like
        # _instances_seen so popped instances are re-derivable.
        self._fired: dict = {}
        self._fired_key: Optional[tuple] = None   # transient probe state
        self._fired_fps: Optional[tuple] = None
        self._lemmas_seen: dict = {}   # lemma key -> assertion scope
        self._divmod_done: set = set()
        self._ite_cache: dict[T.Term, T.Term] = {}
        self._last_model: Optional[_TheoryModel] = None
        self._label_cache: dict = {}
        self._ground_terms: set[T.Term] = set()
        self._probed_none: dict[T.Term, tuple] = {}
        self._max_ground_size = 8
        self._guard_limit = 200
        # Incremental mode: push()/pop() assertion scopes with a persistent
        # root theory whose E-graph merges and simplex constraints survive
        # across checks.  Off by default — the fresh-solver code path is
        # byte-for-byte the non-incremental one.
        self.incremental = incremental
        self._frames: list[dict] = []
        self._root: Optional[_TheoryModel] = None
        self.last_deadline_exceeded = False
        # Set when the last check() returned UNKNOWN because a resource
        # budget (max_steps, max_instantiations, sat_conflict_budget,
        # max_rounds) ran out rather than because the problem is beyond
        # the solver.  The scheduler maps this to a RESOURCE_OUT verdict.
        self.last_resource_out = False
        # Soft-deadline polling state: single rounds over a large ground
        # universe (MBQI) can take seconds, so the hot inner loops poll
        # the wall clock (every 256th call) and abort to UNKNOWN instead
        # of waiting for the next between-rounds check.
        self._deadline: Optional[float] = None
        self._poll_tick = 0

    # ------------------------------------------------------------------ API

    def add(self, assertion: T.Term) -> None:
        """Assert a formula (conjoined with previous assertions)."""
        self._assertions.append(assertion)
        self.stats.query_bytes += query_size_bytes([assertion])
        root = self._preprocess(assertion)
        self._sat.add_clause([root])

    def push(self) -> None:
        """Open an assertion scope (incremental mode).

        The persistent root theory is *settled* first — every currently
        root-forced literal is fed into the shared E-graph/simplex — so all
        base reasoning sits below the checkpoint and is reused by every goal
        checked inside the scope.
        """
        self.incremental = True
        if self._root is None:
            self._root = _TheoryModel(self, None, set(), persistent=True)
        for _ in range(self.config.max_rounds):
            forced = self._sat.root_forced()
            if forced is None:
                break
            res = self._root.update(forced)
            if res != "restart":
                break
        self._sat.push()
        self._root.euf.push()
        self._root.lia.push()
        self._frames.append({
            "n_assertions": len(self._assertions),
            "instances": set(self._instances_seen),
            "inst_subs": {q: list(v) for q, v in self._inst_subs.items()},
            "fired": dict(self._fired),
            "lemmas": dict(self._lemmas_seen),
            "divmod": set(self._divmod_done),
            "ground": set(self._ground_terms),
            "probed": dict(self._probed_none),
            "max_ground": self._max_ground_size,
            "fed": set(self._root._fed_vars),
            "xprop": set(self._root._xprop_done),
        })

    def pop(self) -> None:
        """Close the innermost scope, dropping its assertions and state.

        Learned clauses whose derivation only used base-scope material are
        retained by the SAT core (see :meth:`SatSolver.pop`); the theory
        undo logs restore the E-graph and constraint stack exactly.
        """
        frame = self._frames.pop()
        self._sat.pop()
        kept_vars = self._sat.num_vars
        root = self._root
        assert root is not None
        root.euf.pop()
        root.lia.pop()
        root._fed_vars = frame["fed"]
        root._xprop_done = frame["xprop"]
        root._lia_model = None
        del self._assertions[frame["n_assertions"]:]
        self._instances_seen = frame["instances"]
        self._inst_subs = frame["inst_subs"]
        self._fired = frame["fired"]
        # Lemmas hoisted to a surviving scope keep their SAT clause across
        # the pop; keep their dedup keys too so they are not re-learned.
        target = self._sat.scope
        lemmas = frame["lemmas"]
        for k, s in self._lemmas_seen.items():
            if s <= target and k not in lemmas:
                lemmas[k] = s
        self._lemmas_seen = lemmas
        self._divmod_done = frame["divmod"]
        self._ground_terms = frame["ground"]
        self._probed_none = frame["probed"]
        self._max_ground_size = frame["max_ground"]
        for v in [v for v in self._var_atom if v >= kept_vars]:
            del self._atom_var[self._var_atom.pop(v)]
        for v in [v for v in self._proxy_quant if v >= kept_vars]:
            del self._quant_proxy[self._proxy_quant.pop(v)]
        self._last_model = None

    def check(self, timeout: Optional[float] = None) -> str:
        """Check satisfiability of the asserted formulas.

        ``timeout`` is a soft wall-clock deadline in seconds; when it passes,
        the check returns UNKNOWN and :attr:`last_deadline_exceeded` is set.
        """
        t0 = time.perf_counter()
        deadline = None if timeout is None else time.monotonic() + timeout
        self.last_deadline_exceeded = False
        self.last_resource_out = False
        spec = _faults.maybe_fault("solver.check")
        if spec is not None:
            if spec.kind == "crash":
                raise InjectedCrash("solver.check")
            # Injected resource exhaustion: the structured verdict a real
            # budget blowout would produce, with zero search work done.
            self.last_resource_out = True
            self.stats.solve_seconds += time.perf_counter() - t0
            return UNKNOWN
        # Freeze the instantiation-depth guard against the terms the QUERY
        # mentions; instances created during solving must not raise it
        # (that would let matching loops feed themselves).
        self._guard_limit = 60 + 2 * self._max_ground_size
        self._deadline = deadline
        try:
            return self._check_loop(deadline)
        except _DeadlineReached:
            self.last_deadline_exceeded = True
            return UNKNOWN
        finally:
            self._deadline = None
            self.stats.solve_seconds += time.perf_counter() - t0

    def _poll_deadline(self) -> None:
        """Cheap inner-loop deadline check: reads the clock every 256th
        call and raises :class:`_DeadlineReached` past the deadline.
        Only sound abort points may call this — aborting yields UNKNOWN,
        never a wrong verdict, but must not tear persistent state."""
        if self._deadline is None:
            return
        self._poll_tick += 1
        if self._poll_tick & 0xFF:
            return
        if time.monotonic() >= self._deadline:
            raise _DeadlineReached()

    def model_int(self, term: T.Term) -> Optional[int]:
        """Value of an int term in the last SAT model, if known."""
        if self._last_model is None:
            return None
        return self._last_model.int_value(term)

    def model_bool(self, atom: T.Term) -> Optional[bool]:
        if self._last_model is None:
            return None
        v = self._atom_var.get(atom)
        if v is None:
            return None
        model = self._last_model.sat_model
        if model is None:
            return None
        return model[v]

    @property
    def last_model(self) -> Optional["_TheoryModel"]:
        """The theory model behind the most recent SAT answer, if any."""
        return self._last_model

    def model_repr(self, term: T.Term) -> Optional[str]:
        """A readable value for ``term`` in the last SAT model.

        Integers come from the LIA model, booleans from the SAT
        assignment, and everything else from its EUF congruence class —
        either the constant the class contains or its smallest member
        (rendered symbolically).  Returns None when the model says
        nothing about the term.
        """
        m = self._last_model
        if m is None:
            return None
        if term.sort is INT:
            v = m.int_value(term)
            if v is not None:
                return str(v)
        if term.sort is BOOL:
            b = self.model_bool(term)
            if b is None and term in m.euf._repr:
                if m.euf.are_equal(term, T.TRUE):
                    b = True
                elif m.euf.are_equal(term, T.FALSE):
                    b = False
            if b is not None:
                return "true" if b else "false"
        if term in m.euf._repr:
            rep = m.euf.representative(term)
            if rep is not term:
                if rep.kind == T.INT_CONST:
                    return str(rep.payload)
                if rep.kind == T.BOOL_CONST:
                    return "true" if rep.payload else "false"
                return term_to_str(rep)
        return None

    # -------------------------------------------------------- preprocessing

    def _preprocess(self, formula: T.Term) -> int:
        """NNF + skolemize + lift + CNF; returns the root SAT literal."""
        # The ITE-lift cache is scoped to one assertion batch: sharing a
        # lift variable across `add` calls on a reused solver would let a
        # stale rewrite leak between batches, so each assertion re-lifts
        # with fresh variables (and fresh defining clauses).
        self._ite_cache.clear()
        nnf = self._nnf(formula, True, ())
        nnf = self._lift_ground(nnf, {})
        return self._tseitin(nnf)

    def _nnf(self, t: T.Term, positive: bool, univ_scope: tuple) -> T.Term:
        """Negation normal form with polarity-aware skolemization.

        ``univ_scope`` carries universally bound variables in scope, so that
        skolemized existentials become functions of them.
        """
        k = t.kind
        if k == T.NOT:
            return self._nnf(t.args[0], not positive, univ_scope)
        if k == T.AND:
            parts = [self._nnf(a, positive, univ_scope) for a in t.args]
            return T.And(*parts) if positive else T.Or(*parts)
        if k == T.OR:
            parts = [self._nnf(a, positive, univ_scope) for a in t.args]
            return T.Or(*parts) if positive else T.And(*parts)
        if k == T.IMPLIES:
            a = self._nnf(t.args[0], not positive, univ_scope)
            b = self._nnf(t.args[1], positive, univ_scope)
            return T.Or(a, b) if positive else T.And(a, b)
        if k == T.EQ and t.args[0].sort is BOOL:
            # iff: expand if quantifiers lurk inside, else keep as biimpl.
            a, b = t.args
            expanded = T.And(T.Implies(a, b), T.Implies(b, a)) if positive \
                else T.Or(T.And(a, T.Not(b)), T.And(b, T.Not(a)))
            return self._nnf(expanded, True, univ_scope)
        if k == T.DISTINCT:
            pairs = []
            args = t.args
            for i in range(len(args)):
                for j in range(i + 1, len(args)):
                    pairs.append(T.Ne(args[i], args[j]))
            return self._nnf(T.And(*pairs), positive, univ_scope)
        if k in (T.FORALL, T.EXISTS):
            is_univ = (k == T.FORALL) == positive
            if is_univ:
                body = self._nnf(t.body, positive, univ_scope + t.bound_vars)
                return T.ForAll(t.bound_vars, body, t.triggers or None)
            # Existential: skolemize.
            mapping = {}
            for v in t.bound_vars:
                if univ_scope:
                    decl = T.FuncDecl(T.fresh_name(f"sk_{v.payload}"),
                                      [u.sort for u in univ_scope], v.sort)
                    mapping[v] = decl(*univ_scope)
                else:
                    mapping[v] = T.Var(T.fresh_name(f"sk_{v.payload}"), v.sort)
            body = T.substitute(t.body, mapping)
            return self._nnf(body, positive, univ_scope)
        # Atom (or boolean leaf).
        return t if positive else T.Not(t)

    def _lift_ground(self, t: T.Term, memo: dict) -> T.Term:
        """Lift ground non-bool ITEs to fresh vars; add div/mod axioms.

        Quantifier bodies are left alone — instances get lifted when created.
        ``memo`` holds the result for every subterm already lifted in this
        top-level call, so a shared DAG is walked once, not as a tree; the
        first visits, and so the fresh ``ite`` names, keep the tree order.
        """
        out = memo.get(t)
        if out is not None:
            return out
        if t.is_quant() or not t.args:
            out = t
        elif t.kind == T.ITE and t.sort is not BOOL:
            out = self._ite_cache.get(t)
            if out is None:
                c = self._lift_ground(t.args[0], memo)
                a = self._lift_ground(t.args[1], memo)
                b = self._lift_ground(t.args[2], memo)
                out = T.Var(T.fresh_name("ite"), t.sort)
                self._ite_cache[t] = out
                self._sat.add_clause([self._tseitin(
                    T.And(T.Implies(c, T.Eq(out, a)),
                          T.Implies(T.Not(c), T.Eq(out, b))))])
        elif t.kind in (T.IDIV, T.IMOD):
            a = self._lift_ground(t.args[0], memo)
            b = self._lift_ground(t.args[1], memo)
            out = T.Div(a, b) if t.kind == T.IDIV else T.Mod(a, b)
            self._add_divmod_axioms(a, b)
        else:
            new_args = tuple(self._lift_ground(a, memo) for a in t.args)
            out = t if new_args == t.args else T._rebuild(t, new_args)
        memo[t] = out
        return out

    def _add_divmod_axioms(self, a: T.Term, b: T.Term) -> None:
        key = (a, b)
        if key in self._divmod_done:
            return
        self._divmod_done.add(key)
        q = T.Div(a, b)
        r = T.Mod(a, b)
        relation = T.Eq(a, T.Add(T.Mul(b, q), r))
        if b.kind == T.INT_CONST:
            if b.payload == 0:
                return  # division by zero: uninterpreted
            absb = T.IntVal(abs(b.payload))
            ax = T.And(relation, T.Le(T.IntVal(0), r), T.Lt(r, absb))
        else:
            pos = T.Implies(T.Ge(b, T.IntVal(1)),
                            T.And(relation, T.Le(T.IntVal(0), r), T.Lt(r, b)))
            neg_ = T.Implies(T.Le(b, T.IntVal(-1)),
                             T.And(relation, T.Le(T.IntVal(0), r),
                                   T.Lt(r, T.Neg(b))))
            ax = T.And(pos, neg_)
        self._sat.add_clause([self._tseitin(ax)])

    # ------------------------------------------------------------ CNF

    def _tseitin(self, t: T.Term) -> int:
        """Return a SAT literal equivalent to formula t, adding clauses."""
        k = t.kind
        if t is T.TRUE:
            return self._true_lit()
        if t is T.FALSE:
            return neg(self._true_lit())
        if k == T.NOT:
            return neg(self._tseitin(t.args[0]))
        if k == T.AND:
            lits = [self._tseitin(a) for a in t.args]
            o = mk_lit(self._sat.new_var())
            for l in lits:
                self._sat.add_clause([neg(o), l])
            self._sat.add_clause([o] + [neg(l) for l in lits])
            return o
        if k == T.OR:
            lits = [self._tseitin(a) for a in t.args]
            o = mk_lit(self._sat.new_var())
            for l in lits:
                self._sat.add_clause([o, neg(l)])
            self._sat.add_clause([neg(o)] + lits)
            return o
        if k == T.IMPLIES:
            return self._tseitin(T.Or(T.Not(t.args[0]), t.args[1]))
        if k == T.EQ and t.args[0].sort is BOOL:
            a = self._tseitin(t.args[0])
            b = self._tseitin(t.args[1])
            o = mk_lit(self._sat.new_var())
            self._sat.add_clause([neg(o), neg(a), b])
            self._sat.add_clause([neg(o), a, neg(b)])
            self._sat.add_clause([o, a, b])
            self._sat.add_clause([o, neg(a), neg(b)])
            return o
        if k == T.FORALL:
            return mk_lit(self._proxy_for(t))
        if k == T.EXISTS:
            # Residual existential (inside an instance body): skolemize now.
            skolem = self._nnf(t, True, ())
            return self._tseitin(self._lift_ground(skolem, {}))
        # Theory atom.
        return mk_lit(self._atom(t))

    def _true_lit(self) -> int:
        atom = T.Var("$true", BOOL)
        v = self._atom_var.get(atom)
        if v is None:
            v = self._atom(atom)
            self._sat.add_clause([mk_lit(v)])
        return mk_lit(v)

    def _atom(self, t: T.Term) -> int:
        v = self._atom_var.get(t)
        if v is None:
            v = self._sat.new_var()
            self._atom_var[t] = v
            self._var_atom[v] = t
            self._register_ground(t)
        return v

    def _proxy_for(self, quant: T.Term) -> int:
        v = self._quant_proxy.get(quant)
        if v is None:
            v = self._sat.new_var()
            self._quant_proxy[quant] = v
            self._proxy_quant[v] = quant
        return v

    def _register_ground(self, t: T.Term) -> None:
        for sub in t.subterms():
            if not sub.is_quant():
                self._ground_terms.add(sub)
        size = t.size()
        if size > self._max_ground_size:
            self._max_ground_size = size

    # ------------------------------------------------------------ main loop

    def _check_loop(self, deadline: Optional[float] = None) -> str:
        config = self.config
        # Step accounting for the machine-independent max_steps budget:
        # a "step" is one round, one theory conflict, or one quantifier
        # instantiation, counted from the start of this check.
        steps_base = (self.stats.rounds + self.stats.conflicts
                      + self.stats.instantiations)
        # Each round tries the cheap *forced-prefix* reasoning first:
        # verification refutations are usually decided by unit-forced
        # literals (negated goal, assumptions, axiom instances), and every
        # learned lemma can force more of them.  Only when the forced
        # prefix saturates does the round fall through to boolean search.
        forced_saturated = False
        forced_streak = 0
        for _round in range(config.max_rounds * 2):
            if deadline is not None and time.monotonic() >= deadline:
                self.last_deadline_exceeded = True
                return UNKNOWN
            if config.max_steps is not None:
                steps = (self.stats.rounds + self.stats.conflicts
                         + self.stats.instantiations) - steps_base
                if steps >= config.max_steps:
                    self.last_resource_out = True
                    return UNKNOWN
            self.stats.rounds += 1
            if not forced_saturated and forced_streak < 3:
                progress = self._forced_round()
                if progress == UNSAT:
                    return UNSAT
                if progress:
                    forced_streak += 1
                    continue
                forced_saturated = True
            forced_streak = 0
            # Boolean model search for disjunctive reasoning.
            res = self._sat.solve(conflict_budget=config.sat_conflict_budget,
                                  deadline=deadline)
            if res is False:
                return UNSAT
            if res is None:
                if self._sat.budget_exhausted:
                    self.last_resource_out = True
                elif deadline is not None and time.monotonic() >= deadline:
                    self.last_deadline_exceeded = True
                return UNKNOWN
            model = self._sat.model()
            relevant = self._sat.relevant_literals()
            theory = _TheoryModel(self, model, relevant)
            conflict = theory.check()
            if conflict == "restart":
                forced_saturated = False
                continue  # new atoms/lemmas were introduced; re-solve
            if conflict is not None:
                self.stats.conflicts += 1
                self.stats.theory_lemmas += 1
                if not conflict or not self._learn(conflict):
                    return UNKNOWN  # degenerate/repeated lemma: give up
                forced_saturated = False  # the lemma may force new units
                continue
            self._last_model = theory
            # Quantifier instantiation (only quantifiers the model needs).
            active = [q for q, v in self._quant_proxy.items()
                      if mk_lit(v) in relevant]
            if not active:
                return SAT
            vars_before = self._sat.num_vars
            if config.mbqi:
                added, _complete = self._mbqi_round(theory, active)
                if added:
                    forced_saturated = False
                    continue
            else:
                added, scratch = self._ematch_round(theory, active)
                if added:
                    self._seed_phases(theory, scratch, vars_before)
                    forced_saturated = False
                    continue
            # The relevancy cover can starve the e-graph; before concluding,
            # retry against the full assignment.
            full_theory = _TheoryModel(self, model, None)
            conflict = full_theory.check()
            if conflict == "restart":
                forced_saturated = False
                continue
            if conflict is not None:
                self.stats.conflicts += 1
                self.stats.theory_lemmas += 1
                if not conflict or not self._learn(conflict):
                    return UNKNOWN
                forced_saturated = False
                continue
            full_active = [q for q, v in self._quant_proxy.items()
                           if model[v]]
            vars_before = self._sat.num_vars
            if config.mbqi:
                added, complete = self._mbqi_round(full_theory, full_active)
                if added:
                    forced_saturated = False
                    continue
                # SAT is only claimable when instantiation truly saturated;
                # a truncated universe or exhausted budget means UNKNOWN.
                if not complete:
                    self._flag_instantiation_budget()
                return SAT if complete else UNKNOWN
            added, scratch = self._ematch_round(full_theory, full_active)
            if added:
                self._seed_phases(full_theory, scratch, vars_before)
                forced_saturated = False
                continue
            self._flag_instantiation_budget()
            return UNKNOWN
        # Round budget exhausted: the search was cut off, not saturated.
        self.last_resource_out = True
        return UNKNOWN

    def _flag_instantiation_budget(self) -> None:
        """Mark the check resource-limited if E-matching/MBQI stalled
        because the instantiation budget ran out (as opposed to genuine
        saturation, which stays a plain UNKNOWN)."""
        if self.stats.instantiations >= self.config.max_instantiations:
            self.last_resource_out = True

    def _forced_round(self):
        """One round of forced-prefix reasoning.

        Returns UNSAT, True (progress made — instantiation or propagation),
        or False (the forced prefix is saturated).
        """
        config = self.config
        forced = self._sat.root_forced()
        if forced is None:
            return UNSAT
        if self.incremental:
            # Persistent root theory: E-graph merges and LIA constraints
            # from earlier rounds (and, under a warm scope, earlier goals)
            # carry forward; only newly forced literals are fed.
            if self._root is None:
                self._root = _TheoryModel(self, None, set(), persistent=True)
            theory = self._root
            conflict = theory.update(forced)
        else:
            theory = _TheoryModel(self, None, forced)
            conflict = theory.check()
        if conflict == "restart":
            return True
        if conflict is not None:
            # Every literal in the conflict is root-forced true, so the
            # conjunction of forced facts is theory-inconsistent.
            return UNSAT
        self._last_model = theory
        propagated = self._root_propagate(theory, forced)
        active = [q for q, v in self._quant_proxy.items()
                  if mk_lit(v) in forced]
        vars_before = self._sat.num_vars
        if config.mbqi:
            # EPR mode: complete instantiation over the (finite) ground
            # universe — E-matching on transitivity-style axioms would
            # generate new terms cubically, while the universe is fixed.
            added, _complete = self._mbqi_round(theory, active)
            scratch = None
        else:
            added, scratch = self._ematch_round(theory, active)
        if scratch is not None and added:
            self._seed_phases(theory, scratch, vars_before)
        return bool(added or propagated)

    def _root_propagate(self, theory: "_TheoryModel", forced: set[int],
                        max_tests: int = 5000) -> bool:
        """Root theory propagation.

        Any atom implied by the theory under root-forced literals is a
        logical consequence of the assertions, so asserting it as a unit
        clause is sound.  This is what lets guard atoms inside axiom
        instances fire the next link of a rewrite chain without a boolean
        search.
        """
        # Only atoms in clauses not yet satisfied at the root can unlock
        # further propagation; skip the rest.
        candidates: set[int] = set()
        for clause in self._sat._clauses:
            if any(self._sat.value(l) == 1 for l in clause.lits):
                continue
            for l in clause.lits:
                candidates.add(l >> 1)
        context_sig = (len(theory.lia._constraints), theory.euf.num_merges)
        added = False
        tests = 0
        for atom, var in list(self._atom_var.items()):
            if (var not in candidates or mk_lit(var) in forced
                    or mk_lit(var, False) in forced or tests >= max_tests):
                continue
            if self._probed_none.get(atom) == context_sig:
                continue  # theory context unchanged since the last probe
            self._poll_deadline()  # probes are pure: safe abort point
            tests += 1
            implied = theory.implied_atom(atom)
            if implied is not None:
                self._sat.add_clause([mk_lit(var, implied)])
                added = True
            else:
                self._probed_none[atom] = context_sig
        return added

    def _learn(self, conflict_lits: Iterable[int]) -> bool:
        clause = tuple(sorted(set(neg(l) for l in conflict_lits)))
        if clause in self._lemmas_seen:
            return False
        # Theory lemmas are T-valid (true in every model of the theory), so
        # they may be hoisted to the shallowest scope where all their atoms
        # exist — that is what lets them survive pop() in warm contexts.
        scope = self._sat.scope_for(clause) if self._frames else 0
        self._lemmas_seen[clause] = scope
        self._sat.add_clause(list(clause), scope=scope)
        return True

    # ------------------------------------------------------ instantiation

    MBQI_TRIGGER = "<mbqi>"

    def _term_label(self, t: T.Term, width: int = 120) -> str:
        """Stable readable label for a term (cached, truncated)."""
        label = self._label_cache.get(t)
        if label is None:
            label = term_to_str(t)
            if len(label) > width:
                label = label[: width - 3] + "..."
            self._label_cache[t] = label
        return label

    def _note_fallback(self, _kind: str) -> None:
        self.stats.trigger_fallbacks += 1

    def _record_instantiation(self, quant: T.Term, trigger_label: str
                              ) -> None:
        per = self.stats.inst_profile.setdefault(self._term_label(quant), {})
        per[trigger_label] = per.get(trigger_label, 0) + 1

    def _instantiate(self, quant: T.Term, sub: dict,
                     trigger_label: str = MBQI_TRIGGER) -> bool:
        key = (quant, tuple(sub.get(v) for v in quant.bound_vars))
        if key in self._instances_seen:
            return False
        if self.stats.instantiations >= self.config.max_instantiations:
            return False
        self._instances_seen.add(key)
        self._inst_subs.setdefault(quant, []).append(key[1])
        self.stats.instantiations += 1
        self._record_instantiation(quant, trigger_label)
        body = T.substitute(quant.body, sub)
        body = self._nnf(body, True, ())
        body = self._lift_ground(body, {})
        inst_lit = self._tseitin(body)
        proxy = mk_lit(self._proxy_for(quant))
        self._sat.add_clause([neg(proxy), inst_lit])
        return True

    def _ematch_round(self, theory: "_TheoryModel", active: list) -> bool:
        """Saturating E-matching over an *optimistic* e-graph.

        Instances of asserted universals are always sound to add, so the
        matcher may assume instance bodies hold: their equalities are merged
        into a scratch e-graph, letting one solver round absorb a whole
        chain of rewrites (select-of-store, concat indexing, ...) instead of
        one round per level.  The scratch graph never feeds conflicts — the
        real theory model does that on the next round.
        """
        match_euf = self._optimistic_euf(theory)
        incremental = self.config.incremental_ematch
        # One matcher for the whole round: its per-group watermarks carry
        # across passes, so each pass only rescans what changed.  (Naive
        # mode gets a fresh full-rescan matcher per pass, as before.)
        matcher = EMatcher(match_euf, incremental=incremental)
        added_any = False
        for _pass in range(16):  # noqa: B007
            if not incremental:
                matcher = EMatcher(match_euf, incremental=False)
            added = False
            for quant in active:
                try:
                    groups = select_triggers(quant,
                                             self.config.trigger_policy,
                                             on_fallback=self._note_fallback)
                except TriggerError:
                    continue  # MBQI may still handle it
                for group in groups:
                    trigger_label = self._label_cache.get(group)
                    if trigger_label is None:
                        trigger_label = "; ".join(self._term_label(p)
                                                  for p in group)
                        self._label_cache[group] = trigger_label
                    for sub in matcher.match_group(group, quant.bound_vars,
                                                   state_key=quant):
                        if incremental and self._fired_hit(
                                match_euf, quant, group, sub):
                            continue
                        full = {}
                        for v in quant.bound_vars:
                            t = sub.get(v)
                            if t is None:
                                break
                            # Canonicalize through the scratch e-graph: this
                            # is what stops matching loops like datatype
                            # inversion (mk(sel(x)) ~ x) from generating
                            # ever-deeper instances.  Pick the smallest
                            # class member as the canonical form.
                            if t in match_euf._repr:
                                members = match_euf.class_of(t)
                                if len(members) <= 64:
                                    t = min(members,
                                            key=lambda m: (m.size(),
                                                           m._hash))
                                else:
                                    t = match_euf.find(t)
                            full[v] = t
                        if len(full) != len(quant.bound_vars):
                            continue
                        # Generation guard: skip terms far deeper than
                        # anything the query itself mentions (stops
                        # matching loops without starving deep-heap
                        # workloads, whose own terms are large).
                        if any(t.size() > self._guard_limit
                               for t in full.values()):
                            if incremental:
                                self._fired_record(
                                    quant, ("guard", self._guard_limit))
                            continue
                        sub_key = tuple(full.get(v)
                                        for v in quant.bound_vars)
                        if incremental and self._congruent_seen(
                                theory.euf, quant, sub_key):
                            # Entailed by an asserted instance plus the
                            # current congruences.  Deliberately not
                            # recorded in _fired/_instances_seen: if a
                            # pop() breaks the congruence the rebuilt
                            # matcher re-derives this match.
                            self.stats.congruent_skips += 1
                            continue
                        if incremental:
                            self._fired_record(quant, (quant, sub_key))
                        if self._instantiate(quant, full, trigger_label):
                            added = True
                            body = T.substitute(quant.body, full)
                            self._optimistic_assert(match_euf, body)
            if not added:
                break
            added_any = True
            if self.stats.instantiations >= self.config.max_instantiations:
                break
        self.stats.ematch_index_hits += matcher.index_hits
        self.stats.ematch_rescans_avoided += matcher.rescans_avoided
        return added_any, match_euf

    def _congruent_seen(self, euf: EufSolver, quant: T.Term,
                        sub_key: tuple) -> bool:
        """True if an asserted instance of ``quant`` has a substitution
        pairwise equal to ``sub_key`` in the *real* e-graph (never the
        optimistic scratch graph — those merges are conjectural).  Such
        an instance body is entailed by the recorded one under the
        current congruences, so asserting it again adds nothing."""
        for prev in self._inst_subs.get(quant, ()):
            for a, b in zip(sub_key, prev):
                if a is not b and not euf.are_equal(a, b):
                    break
            else:
                return True
        return False

    def _fired_hit(self, match_euf: EufSolver, quant: T.Term, group: tuple,
                   sub: dict) -> bool:
        """Check the fired-set memo for this match; True means skip it.

        A hit requires (a) the same congruence-root tuple as when the
        instance fired, (b) unchanged class fingerprints — so the
        canonical substitution is provably the one recorded — and (c) the
        recorded instance still asserted in the current scope (or an
        unchanged generation-guard skip).  Side effect on miss: stores the
        pending key in ``_fired_key`` for :meth:`_fired_record`.
        """
        roots = []
        fps = []
        for v in quant.bound_vars:
            t = sub.get(v)
            if t is None:
                return False
            if t in match_euf._repr:
                root = match_euf.find(t)
                mem = match_euf._members[root]
                roots.append(root)
                fps.append((len(mem), mem[0], mem[-1]))
            else:
                roots.append(t)
                fps.append((0, t, t))
        fkey = (quant, group, tuple(roots))
        self._fired_key = fkey
        entry = self._fired.get(fkey)
        if entry is None or entry[0] != tuple(fps):
            self._fired_fps = tuple(fps)
            return False
        outcome = entry[1]
        if (outcome in self._instances_seen
                or outcome == ("guard", self._guard_limit)):
            self.stats.fired_set_hits += 1
            return True
        self._fired_fps = tuple(fps)
        return False

    def _fired_record(self, quant: T.Term, outcome) -> None:
        """Record the outcome for the match key probed by _fired_hit."""
        self._fired[self._fired_key] = (self._fired_fps, outcome)

    def _seed_phases(self, theory: "_TheoryModel", scratch: EufSolver,
                     vars_before: int) -> None:
        """Model-based phase initialization.

        Without this, CDCL guesses arbitrary polarities for the comparison
        atoms inside fresh axiom instances and the theory corrects them one
        learned lemma at a time; seeding phases from the previous theory
        model makes the next SAT model likely theory-consistent.  All atoms
        are (re-)seeded: phase saving would otherwise keep stale wrong
        guesses alive on older atoms.
        """
        for var in range(0, self._sat.num_vars):
            atom = self._var_atom.get(var)
            if atom is None:
                continue
            hint = self._eval_atom_hint(theory, scratch, atom)
            if hint is not None:
                self._sat._phase[var] = hint

    def _eval_atom_hint(self, theory: "_TheoryModel", scratch: EufSolver,
                        atom: T.Term) -> Optional[bool]:
        if atom.kind in (T.LE, T.LT):
            a = self._int_hint(theory, scratch, atom.args[0])
            b = self._int_hint(theory, scratch, atom.args[1])
            if a is None or b is None:
                return None
            return a <= b if atom.kind == T.LE else a < b
        if atom.kind == T.EQ:
            x, y = atom.args
            if x.sort is INT:
                a = self._int_hint(theory, scratch, x)
                b = self._int_hint(theory, scratch, y)
                if a is None or b is None:
                    return None
                return a == b
            if x in scratch._repr and y in scratch._repr:
                return scratch.are_equal(x, y)
        return None

    def _int_hint(self, theory: "_TheoryModel", scratch: EufSolver,
                  term: T.Term) -> Optional[int]:
        value = theory.int_value(term)
        if value is not None:
            return value
        if term in scratch._repr:
            for member in scratch.class_of(term):
                if member is term:
                    continue
                value = theory.int_value(member)
                if value is not None:
                    return value
        return None

    def _optimistic_euf(self, theory: "_TheoryModel") -> EufSolver:
        """Scratch e-graph seeded with the model's terms and equalities."""
        scratch = EufSolver()
        pairs = []
        for cls in theory.euf.classes():
            members = list(cls)
            for t in members:
                scratch.add_term(t)
            for other in members[1:]:
                pairs.append((members[0], other))
        for a, b in pairs:
            try:
                scratch.assert_eq(a, b, "model")
            except EufConflict:
                pass
        return scratch

    def _optimistic_assert(self, euf: EufSolver, body: T.Term) -> None:
        """Assume an instance body inside the scratch matching e-graph."""
        try:
            if body.kind == T.AND:
                for a in body.args:
                    self._optimistic_assert(euf, a)
            elif body.kind == T.IMPLIES:
                # Matching may assume the consequent: over-instantiation is
                # sound (and pruned by _instances_seen).
                euf.add_term(body.args[0]) if not body.args[0].is_quant() \
                    else None
                self._optimistic_assert(euf, body.args[1])
            elif body.kind == T.EQ and body.args[0].sort is not BOOL:
                euf.assert_eq(body.args[0], body.args[1], "inst")
            elif not body.is_quant():
                euf.add_term(body)
                euf.flush()
        except EufConflict:
            pass

    def _mbqi_round(self, theory: "_TheoryModel", active: list,
                    per_round_cap: int = 500) -> tuple[bool, bool]:
        """Complete instantiation over the ground universe (EPR decision).

        Returns (added_instances, complete).  ``complete`` is True only if
        every combination over the FULL universe was covered — a truncated
        domain or exhausted budget forfeits the right to claim SAT.
        Instantiates incrementally (``per_round_cap`` per call) so an UNSAT
        goal surfaces long before saturation.
        """
        universe: dict = {}
        for t in theory.euf.all_terms():
            if t.sort is BOOL:
                continue
            universe.setdefault(t.sort, set()).add(theory.euf.find(t))
        added = 0
        complete = True
        for quant in active:
            domains = []
            for v in quant.bound_vars:
                dom = universe.get(v.sort)
                if not dom:
                    witness = T.Var(T.fresh_name(f"w_{v.sort.name}"), v.sort)
                    dom = {witness}
                    universe[v.sort] = dom
                dom = sorted(dom, key=lambda t: t._hash)
                if len(dom) > self.config.mbqi_max_universe:
                    dom = dom[: self.config.mbqi_max_universe]
                    complete = False
                domains.append(dom)
            for combo in _product(domains):
                self._poll_deadline()  # instances already added stand
                if (self.stats.instantiations
                        >= self.config.max_instantiations):
                    return added > 0, False
                sub = dict(zip(quant.bound_vars, combo))
                if self._instantiate(quant, sub):
                    self.stats.mbqi_instantiations += 1
                    added += 1
                    if added >= per_round_cap:
                        return True, complete
        return added > 0, complete


def _product(domains: list) -> Iterable[tuple]:
    if not domains:
        yield ()
        return
    head, *rest = domains
    for h in head:
        for r in _product(rest):
            yield (h,) + r


# ---------------------------------------------------------------------------
# Theory integration
# ---------------------------------------------------------------------------

class _TheoryModel:
    """Checks one full SAT model against EUF + LIA; holds the theory state."""

    __slots__ = ("solver", "sat_model", "relevant", "euf", "lia",
                 "_lia_model", "persistent", "_fed_vars", "_xprop_done",
                 "_splits_added")

    def __init__(self, solver: SmtSolver, sat_model: list[bool],
                 relevant: Optional[set] = None, persistent: bool = False):
        self.solver = solver
        self.sat_model = sat_model
        self.relevant = relevant
        self.euf = EufSolver()
        self.lia = LiaSolver()
        self._lia_model: Optional[dict] = None
        # Persistent mode (incremental solving): the model survives across
        # rounds/goals; only literals not yet fed are asserted, and feeds
        # are transactional (theory push/commit, pop on conflict).
        self.persistent = persistent
        self._fed_vars: set[int] = set()
        self._xprop_done: set = set()

    def _atom_value(self, var: int) -> Optional[bool]:
        """Atom polarity to assert, or None when the model doesn't need it."""
        if self.relevant is None:
            return self.sat_model[var]
        if mk_lit(var) in self.relevant:
            return True
        if mk_lit(var, False) in self.relevant:
            return False
        return None

    def _pending_items(self) -> list[tuple]:
        """(atom, var, value) triples the model asserts and we haven't fed."""
        out = []
        fed = self._fed_vars
        for atom, var in list(self.solver._atom_var.items()):
            value = self._atom_value(var)
            if value is None:
                continue
            if self.persistent and var in fed:
                continue
            out.append((atom, var, value))
        return out

    def check(self, allow_interface_split: bool = True):
        """Return None (consistent), "restart" (new atoms/lemmas added),
        or a conflict as a set of true SAT literals."""
        self._splits_added = False
        items = self._pending_items()
        try:
            self._feed_euf(items)
            self._feed_lia(items)
        except EufConflict as cf:
            return self._flatten(cf.reasons)
        except LiaConflict as cf:
            return self._flatten(cf.reasons)
        except LiaUnknown:
            return None  # optimistic; verification treats sat as not-proved
        if self._splits_added:
            return "restart"
        if allow_interface_split and self._interface_split():
            return "restart"
        return None

    def update(self, forced: set[int]):
        """Incrementally re-check against a grown forced-literal set.

        Persistent-mode counterpart of :meth:`check`: feeds only new
        literals, inside a theory-level scope that is committed on success
        and rolled back on conflict so the shared state is never corrupted.
        """
        self.relevant = forced
        self._splits_added = False
        items = self._pending_items()
        xprop_before = set(self._xprop_done)
        self.euf.push()
        self.lia.push()
        try:
            self._feed_euf(items)
            self._feed_lia(items)
        except (EufConflict, LiaConflict) as cf:
            self.euf.pop()
            self.lia.pop()
            self._xprop_done = xprop_before
            self._lia_model = None
            return self._flatten(cf.reasons)
        except LiaUnknown:
            pass  # optimistic; keep the feeds
        self.euf.commit()
        self.lia.commit()
        self._fed_vars.update(var for _, var, _v in items)
        if self._splits_added:
            return "restart"
        if self._interface_split():
            return "restart"
        return None

    def _flatten(self, reasons: Iterable) -> set[int]:
        out: set[int] = set()
        for r in reasons:
            if isinstance(r, frozenset):
                out |= self._flatten(r)
            elif isinstance(r, int):
                out.add(r)
            # other tags ("_branch" etc.) carry no boolean content
        return out

    def _feed_euf(self, items: list[tuple]) -> None:
        euf = self.euf
        # Persistent (warm) theories feed transactionally and must not
        # be torn mid-update; throwaway models rebuild next round, so
        # aborting them on deadline is safe.
        poll = _no_poll if self.persistent else self.solver._poll_deadline
        for atom, var, value in items:
            poll()
            lit_true = mk_lit(var, value)
            if atom.kind == T.EQ:
                a, b = atom.args
                if value:
                    euf.assert_eq(a, b, lit_true)
                else:
                    euf.assert_neq(a, b, lit_true)
            elif atom.kind in (T.LE, T.LT):
                euf.add_term(atom.args[0])
                euf.add_term(atom.args[1])
                euf.flush()
            elif atom.kind in (T.VAR, T.APP) and atom.sort is BOOL:
                target = T.TRUE if value else T.FALSE
                euf.assert_eq(atom, target, lit_true)
            elif atom.kind in (T.BVULE, T.BVULT):
                euf.add_term(atom.args[0])
                euf.add_term(atom.args[1])
                euf.flush()
        euf.flush()  # settle congruences queued by late registrations

    def _feed_lia(self, items: list[tuple]) -> None:
        poll = _no_poll if self.persistent else self.solver._poll_deadline
        for atom, var, value in items:
            poll()
            lit_true = mk_lit(var, value)
            if atom.kind in (T.LE, T.LT):
                a = self._linearize(atom.args[0])
                b = self._linearize(atom.args[1])
                if atom.kind == T.LE:
                    if value:
                        self.lia.assert_le0(a - b, lit_true)
                    else:
                        self.lia.assert_lt0(b - a, lit_true)
                else:
                    if value:
                        self.lia.assert_lt0(a - b, lit_true)
                    else:
                        self.lia.assert_le0(b - a, lit_true)
            elif atom.kind == T.EQ and atom.args[0].sort is INT:
                if value:
                    a = self._linearize(atom.args[0])
                    b = self._linearize(atom.args[1])
                    self.lia.assert_eq0(a - b, lit_true)
                else:
                    self._request_diseq_split(atom)
        # Propagate EUF equalities between int-valued terms into LIA.
        persistent = self.persistent
        for cls in list(self.euf.classes()):
            ints = [t for t in cls if t.sort is INT]
            if len(ints) > 1:
                base = ints[0]
                base_e = self._linearize(base)
                for other in ints[1:]:
                    if persistent:
                        pair = frozenset((base, other))
                        if pair in self._xprop_done:
                            continue
                        self._xprop_done.add(pair)
                    reason = self.euf.explain(base, other)
                    self.lia.assert_eq0(base_e - self._linearize(other),
                                        frozenset(reason))
        self._lia_model = self.lia.check()

    def _request_diseq_split(self, eq_atom: T.Term) -> None:
        """A false int equality needs a < / > case-split lemma (added once)."""
        solver = self.solver
        a, b = eq_atom.args
        lemma = T.Or(eq_atom, T.Lt(a, b), T.Lt(b, a))
        key = ("diseq", eq_atom)
        if key not in solver._lemmas_seen:
            # The split clause goes through Tseitin, so it lives (and dies)
            # with the current scope; record the same scope on the key.
            solver._lemmas_seen[key] = solver._sat.scope
            solver._sat.add_clause([solver._tseitin(lemma)])
            self._splits_added = True

    def _linearize(self, t: T.Term) -> LinExpr:
        k = t.kind
        if k == T.INT_CONST:
            return LinExpr.constant(t.payload)
        if k == T.ADD:
            out = LinExpr()
            for a in t.args:
                out = out + self._linearize(a)
            return out
        if k == T.SUB:
            return self._linearize(t.args[0]) - self._linearize(t.args[1])
        if k == T.NEG:
            return self._linearize(t.args[0]).scale(-1)
        if k == T.MUL:
            a, b = t.args
            if a.kind == T.INT_CONST:
                return self._linearize(b).scale(a.payload)
            if b.kind == T.INT_CONST:
                return self._linearize(a).scale(b.payload)
            return LinExpr.var(t)  # nonlinear: opaque
        # VAR / APP / IDIV / IMOD / ITE leftovers: opaque LIA variable.
        return LinExpr.var(t)

    def _interface_split(self) -> bool:
        """Model-based theory combination.

        If the LIA model assigns equal values to two int terms that appear as
        arguments of uninterpreted functions but EUF lacks the equality,
        introduce the equality atom (plus the diseq case-split lemma) so CDCL
        can explore both arrangements.  Returns True if anything was added.
        """
        if self._lia_model is None:
            return False
        # positions: int term -> the (decl, argument-index) slots it feeds.
        # Only terms sharing a slot can profit from an equality (congruence);
        # all other pairs are noise that would burn restart rounds.
        positions: dict[T.Term, set] = {}
        for parent in self.euf.all_terms():
            if parent.kind == T.APP:
                for idx, a in enumerate(parent.args):
                    if a.sort is INT:
                        positions.setdefault(a, set()).add(
                            (parent.payload, idx))
        shared: dict[int, list[T.Term]] = {}
        for t in positions:
            v = self.int_value(t)
            if v is not None:
                shared.setdefault(v, []).append(t)
        added = 0
        for v, group in shared.items():
            for i in range(len(group)):
                for j in range(i + 1, len(group)):
                    a, b = group[i], group[j]
                    if not positions[a] & positions[b]:
                        continue
                    if not self.euf.are_equal(a, b):
                        atom = T.Eq(a, b)
                        if atom in self.solver._atom_var:
                            continue  # SAT already decides this atom
                        var = self.solver._atom(atom)
                        # Tautology registers the atom; CDCL picks a polarity.
                        self.solver._sat.add_clause(
                            [mk_lit(var), mk_lit(var, False)])
                        self._request_diseq_split(atom)
                        added += 1
                        if added >= 40:
                            return True
        return added > 0

    # -- implication queries (root theory propagation) -------------------------

    def implied_atom(self, atom: T.Term) -> Optional[bool]:
        """True/False when the asserted facts THEORY-IMPLY the atom."""
        k = atom.kind
        if k == T.EQ:
            a, b = atom.args
            if a in self.euf._repr and b in self.euf._repr \
                    and self.euf.are_equal(a, b):
                return True
            va = self.euf.value_of(a) if a in self.euf._repr else None
            vb = self.euf.value_of(b) if b in self.euf._repr else None
            if va is not None and vb is not None and va is not vb:
                return False
            if a.sort is INT:
                diff = self._linearize(a) - self._linearize(b)
                if self._lia_infeasible_with("ne", diff):
                    return True
                if self._lia_infeasible_with("eq", diff):
                    return False
            return None
        if k in (T.LE, T.LT):
            a = self._linearize(atom.args[0])
            b = self._linearize(atom.args[1])
            diff = a - b
            # Use the current model as a filter: if the model satisfies the
            # atom it cannot be implied-false, and vice versa — so only one
            # feasibility probe is ever needed.
            hint = self._eval_linexpr(diff)
            test_true = hint is None or hint <= (0 if k == T.LE else -1)
            test_false = hint is None or not test_true
            if k == T.LE:
                if test_true and self._lia_infeasible_with(
                        "lt", diff.scale(-1)):
                    return True
                if test_false and self._lia_infeasible_with("le", diff):
                    return False
            else:
                if test_true and self._lia_infeasible_with(
                        "le", diff.scale(-1)):
                    return True
                if test_false and self._lia_infeasible_with("lt", diff):
                    return False
            return None
        if k in (T.VAR, T.APP) and atom.sort is not INT:
            if atom in self.euf._repr:
                if self.euf.are_equal(atom, T.TRUE):
                    return True
                if self.euf.are_equal(atom, T.FALSE):
                    return False
        return None

    def _eval_linexpr(self, expr: LinExpr) -> Optional[int]:
        if self._lia_model is None:
            return None
        total = expr.const
        for v, c in expr.coeffs.items():
            val = self._lia_model.get(v)
            if val is None:
                return None
            total += c * val
        return int(total) if total.denominator == 1 else None

    def _lia_infeasible_with(self, kind: str, expr: LinExpr) -> bool:
        """Is (current LIA constraints + kind(expr)) infeasible?"""
        if kind == "ne":
            return (self.lia.lp_probe_infeasible("lt", expr)
                    and self.lia.lp_probe_infeasible("lt", expr.scale(-1)))
        return self.lia.lp_probe_infeasible(kind, expr)

    # -- model queries ---------------------------------------------------------

    def int_value(self, term: T.Term) -> Optional[int]:
        if self._lia_model is None:
            return None
        direct = self._lia_model.get(term)
        if direct is not None:
            return direct
        expr = self._linearize(term)
        total = expr.const
        for v, c in expr.coeffs.items():
            val = self._lia_model.get(v)
            if val is None:
                cv = self.euf.value_of(v) if v in self.euf._repr else None
                if cv is not None and cv.kind == T.INT_CONST:
                    val = cv.payload
                else:
                    return None
            total += c * val
        return int(total)
