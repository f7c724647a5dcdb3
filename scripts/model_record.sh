#!/bin/sh
# Writes the committed model record into DIR: every deterministic
# rounds/messages/words number the bench harness prints.
#
#   scripts/model_record.sh DIR
#
# Refresh the record with `scripts/model_record.sh docs`. CI writes it
# to target/record and runs `diff -u` on each file against docs/.
set -eu

if [ $# -ne 1 ]; then
    echo "usage: scripts/model_record.sh DIR" >&2
    exit 2
fi
dir=$1
mkdir -p "$dir"

cargo build --release -q -p cc-bench --bin tables --bin verify_claims --bin perf --bin grid
bin=${CARGO_TARGET_DIR:-target}/release

"$bin/tables" > "$dir/experiment_tables.txt"
"$bin/verify_claims" > "$dir/claims_checklist.txt"
"$bin/perf" > "$dir/perf_tables.txt"
"$bin/grid" --markdown "$dir/grid_e22.md" --util-markdown "$dir/grid_e23.md"
