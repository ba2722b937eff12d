#!/usr/bin/env bash
# Liveness scan: list every function libcohersim defines that no
# program links, so code that only tests reach cannot creep back in.
#
#   tools/live_scan.sh ROOT_BUILD BENCH_BUILD
#
# ROOT_BUILD is a build of this project and BENCH_BUILD one of
# benchmark/, both compiled at -O0 with -ffunction-sections and linked
# with --gc-sections, so a program keeps exactly the library functions
# its call graph reaches:
#
#   flags=(-DCMAKE_BUILD_TYPE=Debug -DCMAKE_CXX_FLAGS_DEBUG=-O0
#          -DCMAKE_CXX_FLAGS=-ffunction-sections
#          -DCMAKE_EXE_LINKER_FLAGS=-Wl,--gc-sections)
#   cmake -S . -B build-live "${flags[@]}" && cmake --build build-live
#   cmake -S benchmark -B build-live-bench "${flags[@]}"
#   cmake --build build-live-bench
#   tools/live_scan.sh build-live build-live-bench
#
# The programs are every bench, example and tool of ROOT_BUILD plus
# cohersim_bench; the tests are ROOT_BUILD/tests. Every global
# function of libcohersim.a that no program keeps is printed as
# "test-only" (some test keeps it) or "dead" (nothing does), unless
# tools/live_allowlist.txt names it. An allowlist line is
# "<qualified name> | <reason>", the name without its parameter list
# (it covers every overload). A line without a reason, or naming no
# library function or only functions a program keeps, is an error
# too. Exit 0 when nothing is reported, 1 otherwise.
set -euo pipefail

if [ $# -ne 2 ]; then
    echo "usage: $0 ROOT_BUILD BENCH_BUILD" >&2
    exit 2
fi
root_build=$1
bench_build=$2
allowlist=$(cd "$(dirname "$0")" && pwd)/live_allowlist.txt
lib="$root_build/src/libcohersim.a"
for f in "$lib" "$bench_build/cohersim_bench" "$allowlist"; do
    [ -f "$f" ] || { echo "live_scan: missing $f" >&2; exit 2; }
done

export LC_ALL=C
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT

# Demangled names of the functions defined in the given files.
functions() {
    nm -C --defined-only "$@" | sed -n 's/^[0-9a-f]* [TtWw] //p'
}
executables() {
    find "$@" -maxdepth 1 -type f -perm -u+x
}

nm -C --defined-only "$lib" | sed -n 's/^[0-9a-f]* T //p' |
    sort -u > "$work/lib"
mapfile -t programs < <(executables "$root_build/bench" \
    "$root_build/examples" "$root_build/tools" | sort)
programs+=("$bench_build/cohersim_bench")
mapfile -t tests < <(executables "$root_build/tests" | sort)
[ ${#tests[@]} -gt 0 ] || { echo "live_scan: no tests" >&2; exit 2; }

for p in "${programs[@]}"; do functions "$p"; done | sort -u \
    > "$work/programs"
for t in "${tests[@]}"; do functions "$t"; done | sort -u \
    > "$work/tests"

comm -23 "$work/lib" "$work/programs" > "$work/unreached"

# Qualified name without parameter list or ABI tag.
key() { sed -e 's/\[abi:[^]]*\]//g' -e 's/(.*//'; }
key < "$work/lib" | sort -u > "$work/lib.keys"
key < "$work/unreached" | sort -u > "$work/unreached.keys"

status=0
: > "$work/allowed"
while IFS= read -r line; do
    name=${line%% | *}
    reason=${line#* | }
    if [ "$name" = "$line" ] || [ -z "${reason// /}" ]; then
        echo "allowlist entry without a reason: $line"
        status=1
    elif ! grep -qxF -- "$name" "$work/lib.keys"; then
        echo "allowlisted but not defined: $name"
        status=1
    elif ! grep -qxF -- "$name" "$work/unreached.keys"; then
        echo "allowlisted but a program keeps it: $name"
        status=1
    fi
    printf '%s\n' "$name" >> "$work/allowed"
done < <(sed -e '/^[[:space:]]*#/d' -e '/^[[:space:]]*$/d' "$allowlist")

count=0
while IFS= read -r name; do
    if grep -qxF -- "$(key <<< "$name")" "$work/allowed"; then
        continue
    fi
    if grep -qxF -- "$name" "$work/tests"; then
        echo "test-only: $name"
    else
        echo "dead: $name"
    fi
    count=$((count + 1))
    status=1
done < "$work/unreached"

echo "live_scan: $(wc -l < "$work/lib") library functions," \
    "$(wc -l < "$work/unreached") kept by no program," \
    "$(wc -l < "$work/allowed") allowlist entries," \
    "$count reported" >&2
exit "$status"
