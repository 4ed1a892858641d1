#!/usr/bin/env bash
# Checks the reachability rule (DESIGN.md §17): every function the simulator's
# libraries define must be reached by a program (a bench, an example or the
# e2ebench runner) or be listed in tools/reachability_allowlist.txt.
#
#   tools/check_reachability.sh [BUILD_DIR]
#
# Builds the src/ libraries at -O0 -fkeep-inline-functions, so header-inline
# members are emitted too, with one section per function. Every bench and
# example, and the e2ebench runner (built out of tree against the same
# archives, with -fno-inline because its own CMake forces -O2), is linked
# with --gc-sections. A function is reached when some linked program keeps
# it. Tests are not built. BUILD_DIR (default: a temporary directory removed
# on exit) is reused when given, so repeated runs build incrementally.
# Needs gcc, Ninja, nm and c++filt.
#
# Fails when a function is unreached and not allowlisted, when an allowlist
# line names a function a program now reaches or that no longer exists, or
# when a line does not cite a test file that mentions the function.
#
# Exit status: 0 clean, 1 the rule is broken, 2 the build failed.
set -euo pipefail
export LC_ALL=C  # one collation for sort and comm

root=$(cd "$(dirname "$0")/.." && pwd)
allowlist="$root/tools/reachability_allowlist.txt"
if [[ $# -ge 1 ]]; then
  work=$(mkdir -p "$1" && cd "$1" && pwd)
else
  work=$(mktemp -d)
  trap 'rm -rf "$work"' EXIT
fi
program="$work/program"
runner="$work/runner"
log="$work/build.log"
: > "$log"

build() {
  if ! "$@" >> "$log" 2>&1; then
    tail -n 40 "$log" >&2
    echo "check_reachability: build step failed: $*" >&2
    exit 2
  fi
}

keep_inline="-O0 -fkeep-inline-functions -ffunction-sections -fdata-sections"
gc="-Wl,--gc-sections"
# Debug, with its flags replaced: the top-level CMake defaults an empty build
# type to RelWithDebInfo, whose -O2 would inline what this check must see.
build cmake -S "$root" -B "$program" -G Ninja -DCMAKE_BUILD_TYPE=Debug \
  -DCMAKE_CXX_COMPILER=g++ -DCMAKE_CXX_FLAGS_DEBUG="$keep_inline" \
  -DCMAKE_EXE_LINKER_FLAGS="$gc"
build cmake --build "$program" -j --target src/all bench/all examples/all

mapfile -t archives < <(find "$program/src" -name '*.a' | sort)
libs=$(IFS=';'; echo "${archives[*]}")
build cmake -S "$root/e2ebench" -B "$runner" -G Ninja -DCMAKE_CXX_COMPILER=g++ \
  -DCMAKE_CXX_FLAGS="-fno-inline -ffunction-sections -fdata-sections" \
  -DCMAKE_EXE_LINKER_FLAGS="$gc" -DE2E_ROOT="$root" -DE2E_PROGRAM_LIBS="$libs"
build cmake --build "$runner" -j --target e2e_runner

mapfile -t programs < <(find "$program/bench" "$program/examples" -maxdepth 1 -type f -perm -u+x | sort)
programs+=("$runner/e2e_runner")

# Out-of-line functions in namespace orion (const/ref-qualified members
# included); lambdas, local statics and thunks do not match the pattern.
orion='^_ZN[rVK]*[RO]?5orion'
# Default, copy and move constructors, destructors and copy/move assignment
# are left out: the compiler writes most of them, so an unreached one
# usually has no source line to delete (a blind spot, DESIGN.md §17).
special='::([A-Za-z_][A-Za-z0-9_]*)(<.*>)?::(\1|operator=)\((|(.*::)?\1(<.*>)?( const)?&&?)\)$|::~[^:]*\(\)$'
nm --defined-only "${archives[@]}" 2> /dev/null | awk '$2 == "T" || $2 == "W" { print $3 }' \
  | grep -E "$orion" | c++filt | grep -vE "$special" | sort -u > "$work/defined"
# Optimised clones (".constprop.0", ".isra.0", ".cold") count as their origin.
nm --defined-only "${programs[@]}" 2> /dev/null | awk 'NF == 3 { print $3 }' \
  | grep -E "$orion" | sed 's/\..*//' | c++filt | sort -u > "$work/kept"
comm -23 "$work/defined" "$work/kept" > "$work/unreached"

status=0
: > "$work/listed"
while IFS= read -r line; do
  [[ -z "${line// }" || "$line" == \#* ]] && continue
  sig=$(sed -E 's/[[:space:]]+#.*$//' <<< "$line")
  why=$(sed -nE 's/^[^#]*#[[:space:]]*//p' <<< "$line")
  echo "$sig" >> "$work/listed"
  test_file=${why%%:*}
  base=${sig%%(*}
  name=${base##*::}
  if ! grep -qxF -- "$sig" "$work/defined"; then
    echo "STALE (no longer defined)  $sig"
    status=1
  elif ! grep -qxF -- "$sig" "$work/unreached"; then
    echo "STALE (a program reaches it)  $sig"
    status=1
  elif [[ "$test_file" != tests/* || ! -f "$root/$test_file" ]] \
       || ! grep -qF -- "$name" "$root/$test_file"; then
    echo "NO TEST (cite '# tests/<file>: <why>' naming a test that calls $name)  $sig"
    status=1
  fi
done < "$allowlist"

sort -u "$work/listed" -o "$work/listed"
while IFS= read -r sig; do
  echo "UNREACHED  $sig"
  status=1
done < <(comm -23 "$work/unreached" "$work/listed")

echo "check_reachability: $(wc -l < "$work/defined") functions defined," \
  "$(wc -l < "$work/unreached") unreached, $(wc -l < "$work/listed") allowlisted"
exit $status
