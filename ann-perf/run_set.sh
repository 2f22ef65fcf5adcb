#!/bin/sh
# Make run sets: every workload once per seed, one process per run, each run
# added to <dir>/<workload>.json. With several directories the runs of one
# workload and seed are made one after the other, a run per directory, so
# that sets to be compared with each other see the same state of the host.
#
#   ann-perf/run_set.sh <dir>...            end-to-end runs on seeds 1 to 10
#   SEEDS="11 12 13" ann-perf/run_set.sh <dir>
#   TRACE=1 ann-perf/run_set.sh <dir>       traced runs (per-layer metrics)
#
# Run from the root of the checkout. Every run's log goes to stderr; a
# refused run stops the script.
set -eu
[ $# -ge 1 ] || { echo "usage: $0 <dir>..." >&2; exit 64; }
seeds=${SEEDS:-1 2 3 4 5 6 7 8 9 10}
for workload in read-sift-1s read-gist-2s filtered-sift-1s churn-glove-2s; do
    for seed in $seeds; do
        for dir in "$@"; do
            echo "run_set: $dir $workload seed $seed" >&2
            cargo run --release --offline --quiet --manifest-path ann-perf/Cargo.toml \
                --bin bench_all -- --workload "$workload" --seed "$seed" \
                --trace "${TRACE:-0}" --json "$dir/$workload.json" >/dev/null ||
                { echo "run_set: $workload seed $seed was refused or failed" >&2; exit 1; }
        done
    done
done
