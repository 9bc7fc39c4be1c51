#!/usr/bin/env bash
# List the library functions that no shipped binary reaches, and fail
# on any that tools/dead_symbols.allow does not name.
#
# Builds the root project (benches and examples, tests off) and the
# perfbench/ driver at -O0 with one section per function and object,
# links every binary with --gc-sections, and prints each deeprecsys::
# text symbol that libdeeprecsys.a defines but no binary keeps, with
# the file and line that define it. -O0 keeps every call a call, so
# inlining hides no caller. std:: template instantiations that merely
# name a repo type (std::__copy_move<...AdmissionKind...>) are not
# repo code and are left out.
#
# Only out-of-line code is gated. An inline function that nothing in
# the library calls emits no symbol, so a header-defined member with
# no caller is invisible here. Many inline accessors are read only by
# tests, to observe shipped state; gating them would make the
# allow-list long, so they are left to review.
#
# Each line of tools/dead_symbols.allow is a symbol exactly as printed
# below, then "  # " and the reason it may stay. The script exits 1 if
# an unreached symbol is not on the list, or if an entry is stale: the
# symbol is reached now, or no longer exists.
#
# Usage: tools/dead_symbols.sh
# It builds into .dead_symbols_build/ at the repository root and needs
# Google Benchmark, without which micro_kernels is not built.
set -euo pipefail
export LC_ALL=C

root=$(cd "$(dirname "$0")/.." && pwd)
out="$root/.dead_symbols_build"
allow="$root/tools/dead_symbols.allow"
jobs=$(nproc 2>/dev/null || echo 2)

configure() {  # <source dir> <build dir> [cmake args...]
    local flags="-O0 -g1 -DNDEBUG -ffunction-sections -fdata-sections"
    cmake -S "$1" -B "$2" -DCMAKE_BUILD_TYPE=Release \
        -DCMAKE_CXX_FLAGS_RELEASE="$flags" \
        -DCMAKE_EXE_LINKER_FLAGS="-Wl,--gc-sections" "${@:3}" > /dev/null
    cmake --build "$2" -j "$jobs" > /dev/null
}
configure "$root" "$out/main" -DDRS_BUILD_TESTS=OFF
configure "$root/perfbench" "$out/perfbench"

if [[ ! -x "$out/main/micro_kernels" ]]; then
    echo "dead_symbols: micro_kernels was not built;" \
        "is Google Benchmark installed?" >&2
    exit 2
fi

# Mangled names of repo functions, lambdas inside them included.
repo='^_ZZ?N[rVKRO]*10deeprecsys'

mapfile -t binaries < <(find "$out/main" -maxdepth 1 -type f -executable)
binaries+=("$out/perfbench/perfbench")
for bin in "${binaries[@]}"; do
    nm --defined-only "$bin" | awk '{ print $3 }'
done | grep -E "$repo" | sort -u > "$out/reached.txt"

# "<mangled> <file:line>" for every repo function the library defines
# in a .cc file; header-defined inline code is out of scope (above).
nm -l --defined-only "$out/main/libdeeprecsys.a" |
    awk -v re="$repo" '$2 ~ /^[TtWw]$/ && $3 ~ re && $4 ~ /\.cc:[0-9]+$/ {
        print $3, $4 }' |
    sed "s|$root/||" | sort -u -k1,1 > "$out/library.txt"

join -v1 "$out/library.txt" "$out/reached.txt" |
    while read -r mangled where; do
        printf '%s\t%s\n' "$(c++filt "$mangled")" "$where"
    done | sort -u -t$'\t' -k2,2V -k1,1 > "$out/unreached.txt"

echo "library functions no shipped binary reaches:"
awk -F'\t' '{ printf "  %-40s %s\n", $2, $1 }' "$out/unreached.txt"

# The allow-list's entries, their symbols, and those with no reason;
# then the unreached symbols not on it, and entries not unreached.
awk '!/^[[:space:]]*(#|$)/' "$allow" > "$out/allow.lines"
sed 's/  # .*//' "$out/allow.lines" | sort > "$out/allowed.txt"
grep -v '  # .' "$out/allow.lines" > "$out/no_reason.txt" || true
cut -f1 "$out/unreached.txt" | sort > "$out/unreached.sym"
comm -23 "$out/unreached.sym" "$out/allowed.txt" > "$out/new.txt"
comm -13 "$out/unreached.sym" "$out/allowed.txt" > "$out/stale.txt"

status=0
fail() {  # <title> <file>: print the file's lines under the title
    if [[ -s $2 ]]; then
        echo "$1" >&2
        sed 's/^/  /' "$2" >&2
        status=1
    fi
}
fail "allow-list entries without a reason:" "$out/no_reason.txt"
fail "unreached and not on tools/dead_symbols.allow:" "$out/new.txt"
fail "stale tools/dead_symbols.allow entries (reached now, or gone):" \
    "$out/stale.txt"
exit $status
