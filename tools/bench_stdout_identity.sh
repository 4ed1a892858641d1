#!/usr/bin/env bash
# Checks that two builds print byte-identical bench output.
#
#   tools/bench_stdout_identity.sh BUILD_A BUILD_B
#
# Runs every bench binary found in BUILD_A/bench with --quick from both build
# trees, one at a time, and diffs their stdout. A refactor or optimisation
# that claims "same numbers" must pass this against the build of its parent
# commit. Wall-clock output is left out: perf_sim_core is skipped (it prints
# only host timings) and overhead_interception runs without its
# google-benchmark part.
#
# Exit status: 0 all identical, 1 some bench differed or failed, 2 usage.
set -u

if [[ $# -ne 2 ]]; then
  echo "usage: $0 BUILD_A BUILD_B" >&2
  exit 2
fi
a="$1/bench"
b="$2/bench"
for dir in "$a" "$b"; do
  if [[ ! -d "$dir" ]]; then
    echo "bench_stdout_identity: no bench directory at $dir" >&2
    exit 2
  fi
done

out=$(mktemp -d)
trap 'rm -rf "$out"' EXIT

status=0
count=0
for bin in "$a"/*; do
  name=$(basename "$bin")
  [[ -f "$bin" && -x "$bin" ]] || continue
  args=(--quick)
  case "$name" in
    perf_sim_core) continue ;;
    overhead_interception) args+=(--benchmark_filter='^$') ;;
  esac
  if [[ ! -x "$b/$name" ]]; then
    echo "MISSING  $name (not in $b)"
    status=1
    continue
  fi
  count=$((count + 1))
  "$bin" "${args[@]}" > "$out/a" 2> /dev/null
  rc_a=$?
  "$b/$name" "${args[@]}" > "$out/b" 2> /dev/null
  rc_b=$?
  if [[ $rc_a -ne 0 || $rc_b -ne 0 ]]; then
    echo "FAILED   $name (exit $rc_a / $rc_b)"
    status=1
  elif cmp -s "$out/a" "$out/b"; then
    echo "SAME     $name"
  else
    echo "DIFFERS  $name"
    diff "$out/a" "$out/b" | head -20
    status=1
  fi
done
echo "$count benches compared"
exit $status
