#!/usr/bin/env bash
# The PRAN benchmark's one command.
#
#   bash benchmark/run.sh [--seed N] [--workload NAME] [--quick]
#       Offline release build, then every workload (or the one named) in a
#       process of its own, untraced then traced. Prints every metric by
#       name with its unit and writes benchmark/out/<workload>.json and
#       benchmark/out/<workload>.trace.jsonl. --quick is a smoke run of
#       all seven at 1/8 size.
#
#   bash benchmark/run.sh --workload NAME --seed N --seconds S --trace 0|1
#       One run (what BENCHMARK.json's command expands to). The last line
#       of standard output is the result object.
set -euo pipefail

here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
root=$(dirname "$here")

# Build where the caller says; a relative CARGO_TARGET_DIR is relative to
# the caller's directory. Left to itself the build lands where
# benchmark/.cargo/config.toml puts it: <repo>/target/benchmark.
target=${CARGO_TARGET_DIR:-$root/target/benchmark}
case $target in
/*) ;;
*) target=$PWD/$target ;;
esac
export CARGO_TARGET_DIR=$target
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2
bin=$target/release/pran-benchmark

# glibc hands the top of the heap back to the kernel whenever more than
# 128 KiB of it is free and faults it in again on the next allocation,
# unless some longer-lived block happens to sit above. Branch and bound
# frees that much per node, so whether `placement_exact` ran a third
# slower was decided by where an unrelated allocation landed (README,
# "Allocator"). Every workload runs with trimming off and the mmap
# threshold at its ceiling, where glibc's own adaptation ends up.
export MALLOC_TRIM_THRESHOLD_=1073741824 MALLOC_MMAP_THRESHOLD_=33554432

for arg in "$@"; do
	if [ "$arg" = --trace ]; then
		exec "$bin" "$@"
	fi
done

seed=2026
only=
quick=
while [ $# -gt 0 ]; do
	case $1 in
	--seed)
		seed=$2
		shift 2
		;;
	--workload)
		only=$2
		shift 2
		;;
	--quick)
		quick=--quick
		shift
		;;
	*)
		echo "unknown argument $1 (known: --seed N, --workload NAME, --quick)" >&2
		exit 2
		;;
	esac
done

PRAN_BENCH_RUSTC=$(rustc --version 2>/dev/null || echo unknown)
PRAN_BENCH_COMMIT=$(git -C "$root" rev-parse --short HEAD 2>/dev/null || echo unknown)
export PRAN_BENCH_RUSTC PRAN_BENCH_COMMIT
echo "# host: $(nproc) cpus, $(sed -n 's/^model name[^:]*: //p' /proc/cpuinfo | head -n 1), $PRAN_BENCH_RUSTC, commit $PRAN_BENCH_COMMIT"

workloads=${only:-metro_clean metro_degraded pool_parallel resident_live control_day placement_exact mc_explore}
status=0
for workload in $workloads; do
	for trace in 0 1; do
		# shellcheck disable=SC2086  # $quick is one flag or nothing
		report=$("$bin" --workload "$workload" --seed "$seed" --trace "$trace" $quick --out "$here/out") || status=1
		printf '%s\n\n' "$report"
		# A run with failed operations still exits 0; its last line says so.
		case ${report##*$'\n'} in
		*'"correct":true'*) ;;
		*) status=1 ;;
		esac
	done
done
exit $status
