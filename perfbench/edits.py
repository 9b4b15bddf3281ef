"""Edit-loop inputs: module sources, edit application, the seeded edit
sequence, and the oracle's independent witness check."""

from __future__ import annotations

import os
import random
import re

from table import EDIT_SOURCES, EDITS, FAILED, MODULE_WEIGHTS, PROVED

_DECL = re.compile(r"\b(exec_fn|spec_fn|proof_fn)\(|\breturn mod\b")


class EditError(Exception):
    """The edit table no longer matches the module sources."""


def load_sources(src_root: str) -> dict:
    """Module name -> submittable source text (relative imports made
    absolute, so the daemon can execute it outside its package)."""
    out = {}
    for name, (rel, _builder) in EDIT_SOURCES.items():
        with open(os.path.join(src_root, rel)) as fh:
            text = fh.read()
        package = os.path.dirname(rel).split("/")

        def absolute(match, package=package):
            base = package[:len(package) - len(match.group(1)) + 1]
            rest = [match.group(2)] if match.group(2) else []
            return "from " + ".".join(base + rest) + " import"

        out[name] = re.sub(r"^from (\.+)([\w.]*) import", absolute, text,
                           flags=re.M)
    return out


def function_region(text: str, function: str) -> tuple[int, int]:
    """Character range of one function's declaration in a builder source:
    from its ``*_fn(`` call to the next declaration or ``return mod``."""
    key = f'mod, "{function}"'
    if text.count(key) != 1:
        raise EditError(f"{key!r} occurs {text.count(key)} times")
    at = text.index(key)
    start = max(text.rfind("exec_fn(", 0, at), text.rfind("proof_fn(", 0, at),
                text.rfind("spec_fn(", 0, at))
    match = _DECL.search(text, at)
    if start < 0 or match is None:
        raise EditError(f"cannot delimit function {function}")
    return start, match.start()


def apply_edit(text: str, edit: dict, k: int = 2) -> str:
    """The source with ``edit`` applied and ``{k}`` filled in; checks
    every replacement stays on one line and inside the edited
    function."""
    lo, hi = function_region(text, edit["function"])
    region = text[lo:hi]
    for old, new, count in edit["replacements"]:
        if "\n" in old or "\n" in new:
            raise EditError(f"{edit['id']}: replacement spans lines")
        if region.count(old) != count:
            raise EditError(f"{edit['id']}: {old!r} occurs "
                            f"{region.count(old)} times, expected {count}")
        region = region.replace(old, new.replace("{k}", str(k)))
    return text[:lo] + region + text[hi:]


class _Deck:
    """Seeded weighted draws without replacement: each option is dealt
    in proportion to its weight from a shuffled deck, refilled when
    empty."""

    def __init__(self, rng: random.Random):
        self.rng = rng
        self.decks: dict = {}

    def draw(self, key, options: list, weights: list):
        deck = self.decks.get(key)
        if not deck:
            deck = [o for o, w in zip(options, weights) for _ in range(w)]
            self.rng.shuffle(deck)
            self.decks[key] = deck
        return deck.pop()


def _walk(rng: random.Random, n: int) -> list:
    """``n`` steps of a session.  Each step is ``(module, edit or
    None)``; ``None`` reverts the module to its original source.
    Relative to the previous submission of the same module, every step
    changes exactly one function: a module with an active edit either
    reverts it (about a third of the time) or moves to another edit of
    the same function (``{k}`` makes even the same kind of edit new
    text)."""
    deck = _Deck(rng)
    modules = sorted(MODULE_WEIGHTS)
    active: dict = {m: None for m in modules}
    steps = []
    for _ in range(n):
        module = deck.draw("module", modules,
                           [MODULE_WEIGHTS[m] for m in modules])
        current = active[module]
        pool = [e for e in EDITS if e["module"] == module]
        if current is not None:
            pool = [e for e in pool if e["function"] == current["function"]]
            if deck.draw("revert", [True, False], [1, 2]):
                pool = []
        edit = (deck.draw(tuple(e["id"] for e in pool), pool,
                          [e["weight"] for e in pool]) if pool else None)
        active[module] = edit
        steps.append((module, edit))
    return steps


def edit_sequence(seed: int, n: int) -> list:
    """``n`` seeded steps with the same multiset of requests for every
    seed, so the percentiles of a run do not move with the mix.

    One fixed session (``_walk`` with seed 0) supplies the steps.  Each
    module's steps split into episodes that start from the original
    source and end by reverting to it; the seed shuffles each module's
    episodes (an unfinished last episode stays last) and the order in
    which modules take their turns.  Every step still changes exactly
    one function relative to the previous submission of its module."""
    master = _walk(random.Random(0), n)
    rng = random.Random(seed)
    streams = {}
    for module in sorted(MODULE_WEIGHTS):
        episodes, current = [], []
        for m, edit in master:
            if m == module:
                current.append(edit)
                if edit is None:
                    episodes.append(current)
                    current = []
        rng.shuffle(episodes)
        streams[module] = iter([e for ep in episodes for e in ep] + current)
    turns = [m for m, _ in master]
    rng.shuffle(turns)
    return [(m, next(streams[m])) for m in turns]


def expected(edit) -> tuple[str, tuple]:
    """(verdict, functions expected to fail) for one step."""
    if edit is None or edit["expect"] == PROVED:
        return PROVED, ()
    return FAILED, (edit["function"],)


# ---------------------------------------------------------------- oracle

def _to_value(value, vtype):
    from repro.vc import types as VT
    from repro.vc.interp import StructVal
    if isinstance(vtype, VT.StructType):
        return StructVal(vtype, {k: _to_value(v, vtype.fields[k])
                                 for k, v in value.items()})
    if isinstance(value, list):
        return tuple(value)
    return value


def _run_body(interp, body, env):
    from repro.vc import ast as A
    from repro.vc.interp import InterpError
    for stmt in body:
        if isinstance(stmt, A.SLet):
            env[stmt.name] = interp.eval(stmt.expr, env)
        elif isinstance(stmt, A.SReturn):
            return interp.eval(stmt.expr, env)
        elif not isinstance(stmt, A.SAssert):
            raise InterpError(f"no concrete semantics for {type(stmt)}")
    raise InterpError("body does not return")


def _postconditions(module, function, witness):
    """Evaluate ``function``'s body and each ensures clause on the
    witness; returns the list of ensures values (None where a clause
    cannot be evaluated)."""
    from repro.vc import types as VT
    from repro.vc.interp import Interp, InterpError
    fn = module.functions[function]
    interp = Interp(module=module)
    env = {p.name: _to_value(witness[p.name], p.vtype) for p in fn.params}
    small = range(-1, 12)
    env["$domains"] = {VT.INT: small, VT.U64: small, VT.U8: small}
    for req in fn.requires:
        try:
            ok = interp.eval(req, env)
        except InterpError:
            continue
        if not ok:
            raise EditError(f"witness violates a precondition of {function}")
    env[fn.ret[0]] = _run_body(interp, fn.body, dict(env))
    values = []
    for ens in fn.ensures:
        try:
            values.append(bool(interp.eval(ens, env)))
        except InterpError:
            values.append(None)
    return values


def check_witnesses(sources: dict) -> int:
    """For every breaking edit with a witness: the original function
    meets each evaluable postcondition on it and the edited one breaks
    one.  Uses only ``repro.vc.interp``, never the verifier."""
    checked = 0
    for edit in EDITS:
        if edit["witness"] is None:
            continue
        text = sources[edit["module"]]
        builder = EDIT_SOURCES[edit["module"]][1]
        before = _postconditions(_build(text, builder), edit["function"],
                                 edit["witness"])
        after = _postconditions(_build(apply_edit(text, edit), builder),
                                edit["function"], edit["witness"])
        if False in before or False not in after:
            raise EditError(f"{edit['id']}: witness does not separate the "
                            f"original ({before}) from the edit ({after})")
        checked += 1
    return checked


def _build(text: str, builder: str):
    namespace: dict = {}
    exec(compile(text, "<edit-oracle>", "exec"), namespace)
    return namespace[builder]()
