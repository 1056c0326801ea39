"""Self-test of the benchmark on tiny inputs.

    python3 perfbench/selftest.py

Runs tiny versions of the four workload kinds (the g=16 alpha=0 full family,
a seeded sub-family at g=216 alpha=-1/3, a 2-point bounds grid and the g=64
analytic document), untraced and traced, and checks that:

  * every metric BENCHMARK.json names is emitted, with its unit, and no other;
  * every operation passes its output check;
  * the benchmark's own sub-family count agrees with the library's explicit
    counter, and with the closed form on full families;
  * a corrupted reference makes the output check fail, turns `correct` false
    and raises the failure count.

Exits 0 when all of this holds.
"""

from __future__ import annotations

import json
import sys
from fractions import Fraction
from itertools import product

import run

sys.path.insert(0, str(run.SRC))
sys.set_int_max_str_digits(0)

import workloads as wl  # noqa: E402
from sparsecurves import Curve, CurveSystem, plan_composite, total_crossings_explicit  # noqa: E402
from sparsecurves.intersections import necklace_family_crossings  # noqa: E402

SEED = 7
TINY = {
    "explicit": wl.full_family("tiny-explicit", 16, "0/1", "g=16 full family"),
    "subfamily": wl.subfamily("tiny-subfamily", 216, "-1/3", "g=216 seeded sub-family"),
    "grid": wl.bounds_grid("tiny-grid", "0/1", "2-point grid", g_list="16,25"),
    "analytic": wl.analytic("tiny-analytic", (64,), "1/1", "g=64 counts-only"),
}


def check(condition: bool, message: str) -> None:
    if not condition:
        raise SystemExit(f"selftest FAILED: {message}")


def emitted_units(result: run.RunResult) -> dict[str, str]:
    payload = json.loads(run.result_json(result))
    check(set(payload) == {"correct", "attempted", "failed", "metrics"}, f"result keys {sorted(payload)}")
    return {name: entry["unit"] for name, entry in payload["metrics"].items()}


def test_metrics_and_checks(spec: dict) -> None:
    for kind, workload in TINY.items():
        for trace in (False, True):
            result = run.run_workload(workload, SEED, 0, trace)
            named = spec["per_layer"] if trace else spec["end_to_end"]
            expected = {m["name"]: m["unit"] for m in named}
            check(emitted_units(result) == expected, f"{workload.name} trace={trace}: metric set or units differ")
            check(
                result.correct and result.failed == 0,
                f"{workload.name} trace={trace}: " + "; ".join(run.describe(result)[-3:]),
            )
            if trace:
                metrics = result.metrics()
                sets = metrics["intersections.total_crossings_explicit.word_sets"]
                if kind == "explicit":
                    check(sets == 1, f"identical necklaces should share one word set, got {sets}")
                if kind == "subfamily":
                    h_prime = plan_composite(216, Fraction(-1, 3)).h_prime
                    check(sets == h_prime, f"sub-family word sets {sets}, expected {h_prime}")
        print(f"ok   {workload.name}: metrics, units and output checks")


def test_reference_counter() -> None:
    for g, alpha in ((216, Fraction(-1, 3)), (64, Fraction(0)), (100, Fraction(0))):
        surface = plan_composite(g, alpha)
        h, n, words = surface.h, surface.h - 1, 4 ** (surface.h - 1)
        table = wl.crossing_table(n)
        full = wl.subfamily_crossings([list(range(words))], table)
        check(full == necklace_family_crossings(h), f"h={h}: full family {full} vs closed form")
        subsets = wl.draw_subsets(SEED, surface.h_prime, words, words // 2)
        all_words = list(product((1, 2, 3, 4), repeat=n))
        curves = tuple(Curve(k, all_words[i]) for k, subset in enumerate(subsets) for i in subset)
        library = total_crossings_explicit(CurveSystem(surface=surface, curves=curves))
        ours = wl.subfamily_crossings(subsets, table)
        check(ours == library, f"h={h}: sub-family count {ours} vs library {library}")
    print("ok   sub-family reference agrees with the library counter and the closed form")


def test_corrupted_reference() -> None:
    workload = TINY["explicit"]
    clean = run.run_workload(workload, SEED, 0, False)
    original = wl.necklace_family_crossings
    wl.necklace_family_crossings = lambda h: original(h) + 1
    try:
        corrupted = run.run_workload(workload, SEED, 0, False)
    finally:
        wl.necklace_family_crossings = original
    check(not corrupted.correct, "a corrupted reference must make `correct` false")
    check(
        corrupted.failed / corrupted.attempted > clean.failed / clean.attempted,
        "a corrupted reference must raise fail_frac",
    )
    print(f"ok   corrupted reference: fail_frac {clean.failed}/{clean.attempted} -> "
          f"{corrupted.failed}/{corrupted.attempted}, correct={corrupted.correct}")


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    test_metrics_and_checks(spec)
    test_reference_counter()
    test_corrupted_reference()
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
