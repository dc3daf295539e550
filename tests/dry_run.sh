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

# network domination by group at one rho
polarnet dominate --input demo/edges.csv --partition demo/partition.csv \
    --mode network-by-group --groups 0 --rho 0.5

# summary of the planted edge list
polarnet ingest-check --input demo/edges.csv

# the null model: a degree-preserving rewire of the planted graph
synth_out=$(polarnet synth --family configuration-model --input demo/edges.csv \
    --swaps 2000 --out demo/null/)
echo "$synth_out"

# its edges.csv reads back with no malformed line and as many arcs as synth printed
check_out=$(polarnet ingest-check --input demo/null/edges.csv)
echo "$check_out"
echo "$check_out" | grep -qx "malformed lines: 0"
test "$(echo "$check_out" | grep '^arcs:')" = "$(echo "$synth_out" | grep '^arcs:')"

# a coverage curve
polarnet dominate --input demo/edges.csv --partition demo/partition.csv \
    --mode network-by-group --groups 0 --curve --max-spreaders 5

# communities with day 0 excluded
polarnet communities --input demo/edges.csv --exclude-from 0 --exclude-to 86400 \
    --out demo/excluded.csv

# that partition read back by one dominate run writing a JSON file per --rho
polarnet dominate --input demo/edges.csv --partition demo/excluded.csv \
    --mode in-group --groups 0 --rho 0.5 --rho 0.9 --format json --out demo/dom/
