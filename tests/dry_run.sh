#!/bin/sh
# End-to-end run of the polarnet console script: every subcommand, on
# synthetic data written under ./demo. Run it from an empty directory with
# `polarnet` on PATH:
#
#     sh tests/dry_run.sh
#
# It exits 0 only when every step succeeds and every check holds. CI runs it
# with the installed [project.scripts] entry point; test_cli.py runs it with
# `polarnet` bound to `python -m polarnet`. The refusals the CLI makes are
# pinned by tier-1 tests, not here.
set -eu

# README's dry run: a planted graph with its partition (#meta names), read back
polarnet synth --family planted-partition --blocks 100,100,100 \
    --p-in 0.3 --p-out 0.01 --days 10 --out demo/
polarnet polarization --input demo/edges.csv --partition demo/partition.csv

# detect communities and write them as plain rows
polarnet communities --input demo/edges.csv --out demo/detected.csv

# read the detected partition back
polarnet polarization --input demo/edges.csv --partition demo/detected.csv

# in-group domination on the detected partition, CSV to stdout
polarnet dominate --input demo/edges.csv --partition demo/detected.csv \
    --mode in-group --groups 0

# 240 hourly windows through the JSON writer, tracking a group of synth's partition
polarnet polarization --input demo/edges.csv --partition demo/partition.csv --groups 0 \
    --window-seconds 3600 --format json --out demo/hourly.json

# daily windows from 21:00 UTC, midnight in UTC-3: the first starts before the epoch
polarnet polarization --input demo/edges.csv --partition demo/partition.csv --window-origin -10800

# network domination by group at one rho
polarnet dominate --input demo/edges.csv --partition demo/partition.csv \
    --mode network-by-group --groups 0 --rho 0.5

# summary of the planted edge list
base_out=$(polarnet ingest-check --input demo/edges.csv)
echo "$base_out"

# ingest's counters: "loop" is named only by a self-loop, so it is no vertex;
# the comment is skipped and the two-field line is malformed
printf '# a comment\na,b,1\nloop,loop,2\nb,c,3\na,b\n' > demo/counters.csv
counters=$(polarnet ingest-check --input demo/counters.csv)
echo "$counters"
echo "$counters" | grep -qx "vertices: 3"
echo "$counters" | grep -qx "self-loops dropped: 1"
echo "$counters" | grep -qx "malformed lines: 1"

# a 1,000-character label among short ones: a record like any other
long_label=$(printf '%01000d' 0)
printf 'a,b,1\n%s,a,2\nb,c,3\n' "$long_label" > demo/long-label.csv
long_out=$(polarnet ingest-check --input demo/long-label.csv)
echo "$long_out"
echo "$long_out" | grep -qx "vertices: 4"
echo "$long_out" | grep -qx "malformed lines: 0"

# the null model: a degree-preserving rewire of the planted graph
synth_out=$(polarnet synth --family configuration-model --input demo/edges.csv \
    --swaps 2000 --out demo/null/)
echo "$synth_out"

# its edges.csv reads back with no malformed line, as many arcs as synth
# printed and, as every planted vertex has an edge, the base's vertex count
check_out=$(polarnet ingest-check --input demo/null/edges.csv)
echo "$check_out"
echo "$check_out" | grep -qx "malformed lines: 0"
test "$(echo "$check_out" | grep '^arcs:')" = "$(echo "$synth_out" | grep '^arcs:')"
test "$(echo "$check_out" | grep '^vertices:')" = "$(echo "$base_out" | grep '^vertices:')"

# a coverage curve
polarnet dominate --input demo/edges.csv --partition demo/partition.csv \
    --mode network-by-group --groups 0 --curve --max-spreaders 5

# communities with day 0 excluded
polarnet communities --input demo/edges.csv --exclude-from 0 --exclude-to 86400 \
    --out demo/excluded.csv

# that partition read back by one dominate run writing a JSON file per --rho
polarnet dominate --input demo/edges.csv --partition demo/excluded.csv \
    --mode in-group --groups 0 --rho 0.5 --rho 0.9 --format json --out demo/dom/
