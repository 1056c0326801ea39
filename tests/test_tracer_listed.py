"""The benchmark tracer's counters on a listed system.

The tracer (perfbench/tracer.py) counts word sets, pairs and curves from the
`curves` a listed system derives from its packed words; a traced `verify` of
a small schema-3 sub-family must report the document's own counts.
"""

import json
from fractions import Fraction

from sparsecurves.curves import Curve, CurveSystem
from sparsecurves.document import SystemDocument, save_document
from sparsecurves.surfaces import plan_composite
from test_tracer_contract import _traced


def test_tracer_counts_a_listed_system(tmp_path):
    # g=36, alpha=0: h=3, h'=12; necklace 7 repeats the word set of necklace 0
    words = {0: ["11", "23", "34", "42"], 4: ["12", "44", "21"], 7: ["11", "23", "34", "42"]}
    curves = tuple(Curve(k, tuple(map(int, w))) for k, ws in words.items() for w in ws)
    save_document(
        SystemDocument(CurveSystem(plan_composite(36, Fraction(0)), curves)),
        tmp_path / "listed.json",
    )
    data = json.loads((tmp_path / "listed.json").read_text())
    assert data["schemaVersion"] == 3 and len(data["curves"]) == 3

    spans = _traced(tmp_path, "v.json", "verify", "listed.json", "--out", "out.json")
    (explicit,) = [s for s in spans if s["name"] == "intersections.total_crossings_explicit"]
    (certify,) = [s for s in spans if s["name"] == "homology.certify_distinct"]
    assert explicit["word_sets"] == 2
    assert explicit["pairs"] == 4 * 3 // 2 + 3 * 2 // 2
    assert certify["curves"] == len(curves) == 11
