#!/usr/bin/env bash
# Checks of the installed `sparse-curves` console script that need nothing
# outside the standard library: README's first two examples, three bounds
# tables (two pinned byte for byte), four listed documents (their reports
# pinned byte for byte, and the written schema-3 document of the one with
# repeats), a document whose surface is not its plan (its refusal pinned), a
# family whose totals pass the int<->str limit (its report and its
# `verify --out` document pinned byte for byte) and its refusal of a
# million-character threshold field, the refusal of a 100,000-character
# --g in one short line, the memory peak of loading a
# listed document, and the exact integer root and a plan at alpha = p/1000.
# Run it in an empty scratch directory, after `python -m pip install -e .`:
#
#     cd "$(mktemp -d)" && bash /path/to/repo/.github/scripts/console-checks.sh
set -euo pipefail

sparse-curves construct --g 16 --alpha 0/1 --out g16.json
sparse-curves verify g16.json
sparse-curves bounds --g 16 --alpha 0/1

# README's five-row table, byte for byte: `decimal` rounds and lays out
# every log10 cell, so this pins them on each interpreter
sparse-curves bounds --g 16,25,36,49,64 --alpha 0/1 > table.csv
diff - table.csv <<'CSV'
g,alpha,h,hPrime,baseGenus,count,count_log10,lower_log10,upper_tight_log10,upper_rounded_log10,crossings,ratio,mode,lower_le_count,lower_le_upper
16,0/1,2,8,0,32,1.50514997831991,0.903089986991944,23.1269593323282,23.7648415536234,0,0/1,explicit,true,true
25,0/1,2,10,5,40,1.60205999132796,1.30102999566398,28.3670064307515,28.8721427506105,0,0/1,explicit,true,true
36,0/1,3,12,0,192,2.28330122870355,1.68124123737559,33.5255718603608,33.9439864136768,864,9/191,explicit,true,true
49,0/1,3,14,7,224,2.35024801833416,2.04921802267018,38.634134746305,38.991361163909,1008,9/223,explicit,true,true
64,0/1,4,16,0,1024,3.01029995663981,2.40823996531185,43.7091183623386,44.0208262288354,34560,45/682,explicit,true,true
CSV

# six rows up to g = 10**6, byte for byte: a printed 128-bit crossing
# total, blank cells for counts and totals past 200 bits (to 2 million),
# and decimal ratio cells, which divide the closed form by the pair count
sparse-curves bounds --g 64,4096,1000000 --alpha 1/2,1/1 > megabit.csv
diff - megabit.csv <<'CSV'
g,alpha,h,hPrime,baseGenus,count,count_log10,lower_log10,upper_tight_log10,upper_rounded_log10,crossings,ratio,mode,lower_le_count,lower_le_upper
64,1/2,11,5,9,5242880,6.71956991761564,6.30638126246595,115.016949321205,115.8923642283,11940007772160,9109503/10485758,analytic,true,true
64,1/1,32,2,0,9223372036854775808,18.9648897268308,18.3628297355029,316.705952612081,319.175771803212,301734755043175903146858359674424524800,130856590772877131775/18446744073709551614,analytic,true,true
4096,1/2,256,16,0,,154.729417771286,154.127357779958,2521.91435203559,2522.22151637221,,7.44921875,analytic,true,true
4096,1/1,2048,2,0,,1232.717832244,1232.11577225268,20129.6810895632,20132.1380331323,,479.59375,analytic,true,true
1000000,1/2,15811,63,3907,,9520.36780344454,9519.99952385472,155386.746513888,155386.824203083,,117.628472222,analytic,true,true
1000000,1/1,500000,2,0,,301029.694633986,301029.092573994,4913487.62102647,4913490.07776789,,117187.09375,analytic,true,true
CSV

# a schema-1 listed document, entry keys in both orders, goes through
# the loader's entry decoder outside pytest
cat > listed.json <<'JSON'
{"schemaVersion": 1, "analytic": false,
 "surface": {"g": 36, "alpha": "0/1", "h": 3, "hPrime": 12, "baseGenus": 0},
 "curves": [{"necklace": 0, "word": "11"}, {"word": "12", "necklace": 0},
            {"necklace": 5, "word": "34"}, {"word": "11", "necklace": 11}],
 "report": null, "certificate": null}
JSON
sparse-curves verify listed.json > listed.txt
diff - listed.txt <<'TXT'
curves=4
crossings=0 pairs=6
average=0/1 threshold=g^0 sparse=true mode=explicit
certificate: distinct=true method=exhaustive
inequality: status=not-applicable size_log10=0.602059991327962 threshold_log10=4.45702524013859
TXT

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
sparse-curves verify repeated.json > repeated.txt || status=$?
test "$status" -eq 3
diff - repeated.txt <<'TXT'
curves=3
crossing report unavailable: duplicate curve 0:11
certificate: distinct=false method=exhaustive collision=0:11/0:11
TXT

# a schema-1 listed document with two repeats, 3:1213 among words that
# share most of their letters and 7:3333 on a later necklace; each word on
# necklace 0 shares three letters with the next.  The repeat check reads
# letter columns through int.from_bytes and to_bytes, whose byte order 3.10
# needs spelt out.  verify names the first repeat in (necklace, word) order
# and exits 3; its schema-3 document, written from the same columns, is
# pinned byte for byte
cat > repeats.json <<'JSON'
{"schemaVersion": 1, "analytic": false,
 "surface": {"g": 100, "alpha": "0/1", "h": 5, "hPrime": 20, "baseGenus": 0},
 "curves": [{"necklace": 7, "word": "3333"}, {"necklace": 0, "word": "2234"},
            {"necklace": 3, "word": "1213"}, {"necklace": 3, "word": "1221"},
            {"necklace": 0, "word": "1234"}, {"necklace": 7, "word": "4111"},
            {"necklace": 3, "word": "1212"}, {"necklace": 7, "word": "3333"},
            {"necklace": 3, "word": "1213"}, {"necklace": 0, "word": "2134"}],
 "report": null, "certificate": null}
JSON
status=0
sparse-curves verify repeats.json --out repeats3.json > repeats1.txt || status=$?
test "$status" -eq 3
diff - repeats1.txt <<'TXT'
curves=10
crossing report unavailable: duplicate curve 3:1213
certificate: distinct=false method=exhaustive collision=3:1213/3:1213
TXT
diff - repeats3.json <<'JSON'
{
  "schemaVersion": 3,
  "surface": {
    "g": 100,
    "alpha": "0/1",
    "h": 5,
    "hPrime": 20,
    "baseGenus": 0
  },
  "curves": [
    {
      "necklace": 0,
      "words": "1234 2134 2234"
    },
    {
      "necklace": 3,
      "words": "1212 1213 1213 1221"
    },
    {
      "necklace": 7,
      "words": "3333 3333 4111"
    }
  ],
  "report": null,
  "certificate": {
    "distinct": false,
    "method": "exhaustive",
    "collision": [
      {
        "necklace": 3,
        "word": "1213"
      },
      {
        "necklace": 3,
        "word": "1213"
      }
    ]
  }
}
JSON

# a schema-2 listed document whose first entry carries an extra key: the
# loader decodes the text again as plain JSON and checks the entries as
# {"necklace", "word"} objects
cat > extra.json <<'JSON'
{"schemaVersion": 2,
 "surface": {"g": 36, "alpha": "0/1", "h": 3, "hPrime": 12, "baseGenus": 0},
 "curves": [{"necklace": 0, "word": "11", "note": "x"}, {"necklace": 0, "word": "32"},
            {"necklace": 0, "word": "24"}, {"necklace": 7, "word": "42"}],
 "report": null, "certificate": null}
JSON
sparse-curves verify extra.json > extra.txt
diff - extra.txt <<'TXT'
curves=4
crossings=2 pairs=6
average=1/3 threshold=g^0 sparse=true mode=explicit
certificate: distinct=true method=exhaustive
inequality: status=not-applicable size_log10=0.602059991327962 threshold_log10=4.45702524013859
TXT

# a full family on h = 2, h' = 18 at g = 36, which fits the genus but is not
# the plan of (36, 0) (h = 3, 192 curves): verify refuses the document as
# inconsistent, prints nothing and exits 5 with one error line
cat > unplanned.json <<'JSON'
{"schemaVersion": 3,
 "surface": {"g": 36, "alpha": "0/1", "h": 2, "hPrime": 18, "baseGenus": 0},
 "curves": "full", "report": null, "certificate": null}
JSON
status=0
sparse-curves verify unplanned.json > unplanned.txt 2> unplanned.err || status=$?
test "$status" -eq 5
test ! -s unplanned.txt
diff - unplanned.err <<'TXT'
error: inconsistent surface: h = 2, but the plan of g = 36, alpha = 0/1 has h = 3
TXT

# a full family whose crossing total has about 12,000 digits: verify shows
# it as a [bits=...,log10=...] token and exits 0; the whole report is pinned
# byte for byte, the average cell too, which divides the leading bits of
# totals past the int<->str limit
sparse-curves construct --g 20000 --alpha 1/1 --out g20000.json
sparse-curves verify g20000.json > g20000.txt
cat g20000.txt
grep -q 'crossings=\[bits=40009,' g20000.txt
diff - g20000.txt <<'TXT'
curves=[bits=20000,log10=6020.29888328396]
crossings=[bits=40009,log10=12043.6665725731] pairs=[bits=39997,log10=12040.2967365723]
average=2343.34375 threshold=g^1 sparse=true mode=analytic
certificate: distinct=true method=construction
inequality: status=holds size_log10=6020.29888328396 threshold_log10=7.20781602524971 left_log10=12042.171145262 crossings_log10=12043.6665725731
TXT

# its `verify --out` document, byte for byte: the totals as the report
# prints them and no average; verify of that document rebuilds the totals
# from the surface, checks the tokens against them and prints the same report
sparse-curves verify g20000.json --out g20000v.json > g20000v.txt
diff g20000.txt g20000v.txt
diff - g20000v.json <<'JSON'
{
  "schemaVersion": 3,
  "surface": {
    "g": 20000,
    "alpha": "1/1",
    "h": 10000,
    "hPrime": 2,
    "baseGenus": 0
  },
  "curves": "full",
  "report": {
    "totalCrossings": "[bits=40009,log10=12043.6665725731]",
    "pairCount": "[bits=39997,log10=12040.2967365723]",
    "sparsityThreshold": {
      "kind": "power",
      "value": "1/1"
    },
    "isSparse": true,
    "mode": "analytic"
  },
  "certificate": {
    "distinct": true,
    "method": "construction",
    "collision": null
  }
}
JSON
sparse-curves verify g20000v.json > g20000vv.txt
diff g20000.txt g20000vv.txt

# a million-character value in that document is echoed cut: verify exits 5
# with one stderr line under 400 bytes, for the threshold's kind and value
for field in kind value; do
  python - "$field" <<'PY'
import json
import sys

data = json.load(open("g20000v.json", encoding="utf-8"))
data["report"]["sparsityThreshold"][sys.argv[1]] = "x" * 10**6
with open("long.json", "w", encoding="utf-8") as handle:
    json.dump(data, handle)
PY
  status=0
  sparse-curves verify long.json > long.txt 2> long.err || status=$?
  test "$status" -eq 5
  test ! -s long.txt
  test "$(wc -l < long.err)" -eq 1
  test "$(wc -c < long.err)" -lt 400
  grep -q '^error: ' long.err
done

# argparse quotes a rejected value whole; a 100,000-character --g is cut
# to one short error line
status=0
sparse-curves construct --g "$(head -c 100000 /dev/zero | tr '\0' x)" > longg.txt 2> longg.err || status=$?
test "$status" -eq 4
test ! -s longg.txt
test "$(wc -l < longg.err)" -eq 1
test "$(wc -c < longg.err)" -lt 400
grep -q '^error: ' longg.err

# a 20,000-entry schema-1 document loads at the cost of its text: the
# tracemalloc peak of load_document stays below the read of the text, its
# bytes and its str together, plus one pointer per entry (a tuple per entry
# read about 30 bytes per entry more)
python - <<'PY'
import json
import sys
import tracemalloc
from itertools import product

from sparsecurves.document import load_document

words = ["".join(w) for w in product("1234", repeat=4)]
entries = [
    {"necklace": k, "word": words[(37 * k + 5 * i) % len(words)]}
    for k in range(200)
    for i in range(100)
]
surface = {"g": 1000, "alpha": "-1/3", "h": 5, "hPrime": 200, "baseGenus": 0}
text = json.dumps({"schemaVersion": 1, "surface": surface, "curves": entries})
with open("listed20k.json", "w", encoding="utf-8") as handle:
    handle.write(text)
tracemalloc.start()
system = load_document("listed20k.json").system
peak = tracemalloc.get_traced_memory()[1]
tracemalloc.stop()
bound = 2 * sys.getsizeof(text) + 8 * len(entries)
print(f"load_document peak {peak} bytes, bound {bound}")
assert system.curve_count == len(entries), system.curve_count
assert peak < bound, f"load_document peaked at {peak} bytes, bound {bound}"
PY

# the exact integer root against its definition on 400 seeded (n, k), a
# fifth of them exact powers or one less; then a 301-digit g at q = 1000:
# refused at alpha = -999/1000, whose bound is g >= 4**2000, and planned at
# alpha = -991/1000, with h = floor(g**((1+alpha)/2) / 2) and
# h' = floor(2 * g**((1-alpha)/2)) checked on 2q-th powers
python - <<'PY'
import random
from fractions import Fraction

from sparsecurves.errors import DomainError
from sparsecurves.exactint import integer_nth_root
from sparsecurves.surfaces import plan_composite

rng = random.Random(29)
for _ in range(400):
    k = rng.choice((1, 2, 3, 5, 7, 64, 999, 1000, 2000))
    n = rng.getrandbits(rng.randint(0, 4000))
    if rng.random() < 0.2:
        n = (rng.getrandbits(max(1, 4000 // k)) + 1) ** k - rng.randint(0, 1)
    r = integer_nth_root(n, k)
    assert r ** k <= n < (r + 1) ** k, (n, k, r)

g = 10 ** 300
try:
    plan_composite(g, Fraction(-999, 1000))
    raise AssertionError("g = 10**300 planned at alpha = -999/1000")
except DomainError as exc:
    assert str(exc).startswith(f"g >= {4 ** 2000} required for alpha = -999/1000"), exc

p, q = -991, 1000
s = plan_composite(g, Fraction(p, q))
h, hp = s.h, s.h_prime
assert (2 * h) ** (2 * q) <= g ** (p + q) < (2 * h + 2) ** (2 * q), h
assert hp ** (2 * q) <= 4 ** q * g ** (q - p) < (hp + 1) ** (2 * q), hp
assert s.base_genus == g - h * hp >= 0
print(f"integer_nth_root: 400 (n, k) checked; plan of 10**300 at -991/1000: h = {h}")
PY
