"""The benchmark's inputs and their expected verdicts, written down by
hand.  No entry here is taken from the verifier under test.

``CORPUS`` is the module corpus of the ``cold-corpus`` and
``warm-reverify`` workloads (and the daemon warm-up of ``edit-loop``).
``EDITS`` is the edit table of ``edit-loop``: each edit changes exactly
one function of one corpus module by single-line text replacements, so
no other function's source lines (and hence spans and delta
fingerprints) move.

Excluded from the corpus, because one cold verification of each takes
tens of seconds (about 24 s when the corpus was chosen) and cannot be
repeated inside a run:
``repro.systems.pagetable.entry_verified:build_entry_module`` and
``repro.millibench.distlock:build_epr_module``.
"""

PROVED = "proved"
FAILED = "failed"

#: (name, "dotted.module:builder", entry point, expected verdict,
#:  functions expected to fail).  ``epr`` modules go through their own
#:  entry point ``repro.epr.verify_epr_module``.
CORPUS = [
    ("ironkv.delegation_map",
     "repro.systems.ironkv.delegation_map:build_default_module",
     "vc", PROVED, ()),
    ("nr.core", "repro.systems.nr.model:build_nr_core_module",
     "vc", PROVED, ()),
    ("pagetable.view",
     "repro.systems.pagetable.view_verified:build_view_module",
     "vc", PROVED, ()),
    ("mimalloc.bit_tricks",
     "repro.systems.mimalloc.verified:build_bit_tricks_module",
     "vc", PROVED, ()),
    ("plog.crc_table",
     "repro.systems.plog.crc_verified:build_crc_table_module",
     "vc", PROVED, ()),
    ("lists.singly", "repro.millibench.lists:build_singly_linked_module",
     "vc", PROVED, ()),
    ("lists.doubly", "repro.millibench.lists:build_doubly_linked_module",
     "vc", PROVED, ()),
    ("distlock.default", "repro.millibench.distlock:build_default_module",
     "vc", PROVED, ()),
    ("ironkv.marshal_u64",
     "repro.systems.ironkv.marshal_verified:build_u64_roundtrip_module",
     "vc", PROVED, ()),
    ("mimalloc.disjointness",
     "repro.systems.mimalloc.verified:build_disjointness_module",
     "vc", PROVED, ()),
    ("ironkv.delegation_map_epr",
     "repro.systems.ironkv.delegation_map_epr:build_epr_model",
     "epr", PROVED, ()),
    # By construction no single automation profile proves this module:
    # under the default (E-matching) profile the shield(x) trigger never
    # occurs ground, so needs_mbqi cannot be instantiated.
    ("profiles.stubborn_pair",
     "repro.profiles.corpus:build_stubborn_pair_module",
     "vc", FAILED, ("needs_mbqi",)),
]

#: Corpus modules the edit loop edits: name -> (source file under
#: ``src/``, builder defined by that source).  The client submits the
#: file's text (relative imports made absolute) as a
#: ``{"source", "builder"}`` request.
EDIT_SOURCES = {
    "lists.singly": ("repro/millibench/lists.py",
                     "build_singly_linked_module"),
    "lists.doubly": ("repro/millibench/lists.py",
                     "build_doubly_linked_module"),
    "ironkv.delegation_map": ("repro/systems/ironkv/delegation_map.py",
                              "build_default_module"),
    "pagetable.view": ("repro/systems/pagetable/view_verified.py",
                       "build_view_module"),
}

#: How often the edit loop picks each module, and each function within
#: it: edits cluster on a few functions, as in a real session.
MODULE_WEIGHTS = {"lists.singly": 4, "lists.doubly": 3,
                  "ironkv.delegation_map": 2, "pagetable.view": 2}


#: Trivially-true facts that mention a parameter and ``{k}``: inserted
#: into a function they change its obligations (and so make the
#: verifier re-plan and re-solve it), never its verdict.
SEQ_FACT = 'assert_(l.field("cells").length() + lit({k}) > lit(1)), '
LOOP_FACT = 'var("i", INT) + lit({k}) > var("i", INT), '
PIVOT_FACT = 'assert_(p.length() + lit({k}) > lit(1)), '
VA_FACT = 'assert_(or_all(va < lit({k}), lit({k}) <= va)), '


def _edit(eid, module, function, replacements, expect, why="",
          witness=None, weight=1):
    return {"id": eid, "module": module, "function": function,
            "replacements": replacements, "expect": expect, "why": why,
            "witness": witness, "weight": weight}


#: ``replacements`` are ``(old, new, count)``: ``old`` must occur exactly
#: ``count`` times inside the function's text and neither side spans a
#: line.  ``{k}`` in ``new`` is a number (2 or more) unique to each
#: request.  In the ``*_FACT`` fragments it makes the edited function's
#: obligations new, so the verifier re-plans and re-solves (and, if
#: broken, re-diagnoses) it, as after a user's real keystrokes; in a
#: rename it changes only names, which are re-planned and then served
#: by the proof cache.  Breaking edits whose refutation takes seconds
#: (those that break a sequence's extensional equality or a sortedness
#: quantifier) are left out: a handful of them would decide the tail
#: percentile.  ``witness`` is a concrete failing input for breaking edits
#: whose body ``repro.vc.interp`` can evaluate (lets and a return): the
#: benchmark evaluates the edited body on it and checks that a
#: postcondition is false, independently of the verifier.
EDITS = [
    # ------------------------------------------------ lists.singly
    _edit("singly.push_head.assert", "lists.singly", "push_head",
          [("body=[", "body=[" + SEQ_FACT, 1)],
          PROVED, weight=3),
    _edit("singly.pop_tail.rename", "lists.singly", "pop_tail",
          [("\"last\"", "\"last_{k}\"", 2)], PROVED, weight=2),
    _edit("singly.pop_tail.first", "lists.singly", "pop_tail",
          [("body=[", "body=[" + SEQ_FACT, 1),
           ("let_(\"last\", l.field(\"cells\").index(var(\"n\", INT) - 1))",
            "let_(\"last\", l.field(\"cells\").index(lit(0, INT)))", 1)],
          FAILED,
          "returns the first element as the popped value, which differs "
          "from the last one when the list has two distinct elements",
          {"l": {"cells": [1, 2]}}, weight=3),
    _edit("singly.index.assert", "lists.singly", "index",
          [("body=[ret(", "body=[" + SEQ_FACT + "ret(", 1)],
          PROVED),
    _edit("singly.index.zero", "lists.singly", "index",
          [("body=[ret(l.field(\"cells\").index(i))]",
            "body=[" + SEQ_FACT
            + "ret(l.field(\"cells\").index(lit(0, U64)))]", 1)],
          FAILED,
          "always returns element 0, not element i",
          {"l": {"cells": [5, 6]}, "i": 1}, weight=2),
    _edit("singly.iter.invariant", "lists.singly", "iter_count_below",
          [("invariants=[", "invariants=[" + LOOP_FACT, 1)],
          PROVED),
    _edit("singly.iter.double", "lists.singly", "iter_count_below",
          [("invariants=[", "invariants=[" + LOOP_FACT, 1),
           ("[assign(\"acc\", acc + 1)]", "[assign(\"acc\", acc + 2)]", 1)],
          FAILED,
          "acc grows by 2 per counted element, so the loop invariant "
          "acc <= i breaks on the first element below the bound "
          "(l = [0], bound = 1); the body is a loop, so no witness is "
          "evaluated"),
    # ------------------------------------------------ lists.doubly
    _edit("doubly.push_back.assert", "lists.doubly", "push_back",
          [("body=[ret(", "body=[" + SEQ_FACT + "ret(", 1)],
          PROVED, weight=3),
    _edit("doubly.pop_back.rename", "lists.doubly", "pop_back",
          [("\"n\"", "\"n_{k}\"", 3)], PROVED, weight=2),
    _edit("doubly.pop_front.last", "lists.doubly", "pop_front",
          [("body=[", "body=[" + SEQ_FACT, 1),
           ("value=l.field(\"cells\").index(0)",
            "value=l.field(\"cells\").index(l.field(\"cells\").length() - 1)",
            1)],
          FAILED,
          "returns the last element as the popped front value",
          {"l": {"cells": [1, 2]}}, weight=3),
    _edit("doubly.pop_front.assert", "lists.doubly", "pop_front",
          [("body=[", "body=[" + SEQ_FACT, 1)],
          PROVED),
    _edit("doubly.reverse.invariant", "lists.doubly", "reverse",
          [("invariants=[", "invariants=[" + LOOP_FACT, 1)],
          PROVED),
    # ------------------------------------------------ ironkv.delegation_map
    _edit("dm.splice.rename", "ironkv.delegation_map", "dm_splice_prefix",
          [("\"prefix\"", "\"head_{k}\"", 2)], PROVED, weight=2),
    _edit("dm.get.assert", "ironkv.delegation_map", "dm_get",
          [("let_(\"i\", p.length() - 1),",
            PIVOT_FACT + "let_(\"i\", p.length() - 1),", 1)],
          PROVED),
    _edit("dm.insert_point.assert", "ironkv.delegation_map",
          "dm_insert_point",
          [("let_(\"i\", lit(1, INT)),",
            PIVOT_FACT + "let_(\"i\", lit(1, INT)),", 1)],
          PROVED),
    # ------------------------------------------------ pagetable.view
    _edit("view.map.assert", "pagetable.view", "pt_map_frame",
          [("body=[ret(view.insert(va, pa))]",
            "body=[" + VA_FACT + "ret(view.insert(va, pa))]",
            1)],
          PROVED, weight=3),
    _edit("view.map.wrong_pa", "pagetable.view", "pt_map_frame",
          [("body=[ret(view.insert(va, pa))]",
            "body=[" + VA_FACT + "ret(view.insert(va, va))]",
            1)],
          FAILED,
          "maps va to itself instead of to pa",
          {"view": {}, "va": 1, "pa": 2}, weight=3),
    _edit("view.unmap.keep", "pagetable.view", "pt_unmap",
          [("body=[ret(view.remove(va))]",
            "body=[" + VA_FACT + "ret(view)]", 1)],
          FAILED,
          "returns the view unchanged, so va stays mapped",
          {"view": {1: 2}, "va": 1}, weight=2),
    _edit("view.unmap.assert", "pagetable.view", "pt_unmap",
          [("body=[ret(view.remove(va))]",
            "body=[" + VA_FACT + "ret(view.remove(va))]", 1)],
          PROVED),
]
