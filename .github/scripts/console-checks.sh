#!/usr/bin/env bash
# Checks of the installed `sparse-curves` console script that need nothing
# outside the standard library: README's first two examples, a bounds table,
# two listed documents and a family whose totals pass the int<->str limit.
# Run it in an empty scratch directory, after `python -m pip install -e .`:
#
#     cd "$(mktemp -d)" && bash /path/to/repo/.github/scripts/console-checks.sh
set -euo pipefail

sparse-curves construct --g 16 --alpha 0/1 --out g16.json
sparse-curves verify g16.json
sparse-curves bounds --g 16 --alpha 0/1

# a schema-1 listed document, entry keys in both orders, goes through
# the loader's entry decoder outside pytest
cat > listed.json <<'JSON'
{"schemaVersion": 1, "analytic": false,
 "surface": {"g": 36, "alpha": "0/1", "h": 3, "hPrime": 12, "baseGenus": 0},
 "curves": [{"necklace": 0, "word": "11"}, {"word": "12", "necklace": 0},
            {"necklace": 5, "word": "34"}, {"word": "11", "necklace": 11}],
 "report": null, "certificate": null}
JSON
sparse-curves verify listed.json

# a schema-2 listed document repeating one curve, whose certificate
# names it twice: entries outside the curve list send the loader to
# its plain re-decode; verify finds the repeat and exits 3
cat > repeated.json <<'JSON'
{"schemaVersion": 2,
 "surface": {"g": 36, "alpha": "0/1", "h": 3, "hPrime": 12, "baseGenus": 0},
 "curves": [{"necklace": 0, "word": "11"}, {"necklace": 5, "word": "34"},
            {"necklace": 0, "word": "11"}],
 "report": null,
 "certificate": {"distinct": false, "method": "exhaustive",
                 "collision": [{"necklace": 0, "word": "11"}, {"necklace": 0, "word": "11"}]}}
JSON
status=0
sparse-curves verify repeated.json || status=$?
test "$status" -eq 3

# a full family whose crossing total has about 12,000 digits: verify shows
# it as a [bits=...,log10=...] token and exits 0
sparse-curves construct --g 20000 --alpha 1/1 --out g20000.json
sparse-curves verify g20000.json > g20000.txt
cat g20000.txt
grep -q 'crossings=\[bits=40009,' g20000.txt
