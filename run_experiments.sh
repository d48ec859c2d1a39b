#!/usr/bin/env bash
# Regenerate every reconstructed table/figure (E1–E19) with default flags.
# This is the one list of experiments: CI runs it and nothing else.
#
# Human-readable tables go to stdout. results/<name>.json holds what a
# seeded run repeats and must come back as the committed bytes:
#
#   bash run_experiments.sh && \
#     git diff --exit-code -- results ':(exclude)results/*.host.json'
#
# results/<name>.host.json holds this host's wall-clock readings and
# changes run to run. The first experiment that exits non-zero stops the
# sweep.
set -euo pipefail
cd "$(dirname "$0")"
run() {
    echo "================================================================"
    cargo run --release -q -p bench --bin "$@"
    echo
}
for exp in e1_compute_table e2_proc_time e3_traces e4_multiplexing \
           e5_ilp_vs_heuristic e6_deadlines e7_fronthaul e8_failover \
           e9_predictors e10_ablations e11_deployment e12_admission \
           e13_chaos e14_insight e15_metro e16_soak e17_mc \
           e18_live_insight e19_splits; do
    run "$exp"
done
# The telemetry sample: sim-clock tracing on, written under its own name
# (results/e6_deadlines_sample.{json,trace.jsonl}), with missed-deadline
# attribution read back from the trace.
run e6_deadlines -- --sample --critical-path
