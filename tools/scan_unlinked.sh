#!/usr/bin/env bash
# Lists the out-of-line library functions that no product binary links and
# diffs the list against tools/unlinked_seams.txt, the functions kept only
# as test seams. Exits 0 when they match, 1 (printing the diff) when they
# do not, and 2 when a build fails.
#
# The scan builds the repository (-DBUILD_TESTING=OFF) and perfbench/ at
# -O0 with one section per function and --gc-sections, so every linked
# binary holds exactly the functions it can reach. A library function is
# unlinked when its `T` symbol in src/**/*.a is defined in none of the
# bench, example and tool binaries nor in perfbench and perfbench_test.
#
#   tools/scan_unlinked.sh [build-dir]     # default: build-scan
#
# The builds use up to 4 jobs. The unlinked list, demangled one symbol a
# line, is left in <build-dir>/unlinked.txt.
set -euo pipefail

root=$(cd "$(dirname "$0")/.." && pwd)
out=$(mkdir -p "${1:-$root/build-scan}" && cd "${1:-$root/build-scan}" && pwd)
jobs=$(nproc)
if ((jobs > 4)); then jobs=4; fi

configure_and_build() {  # <source> <binary-dir> <configure options...>
  local src=$1 dir=$2
  shift 2
  if ! { cmake -S "$src" -B "$dir" -DCMAKE_BUILD_TYPE=None \
           -DCMAKE_CXX_FLAGS="-O0 -ffunction-sections -fdata-sections" \
           -DCMAKE_EXE_LINKER_FLAGS="-Wl,--gc-sections" "$@" &&
         cmake --build "$dir" -j "$jobs"; } > "$dir.log" 2>&1; then
    tail -n 30 "$dir.log" >&2
    exit 2
  fi
}

configure_and_build "$root" "$out/repo" -DBUILD_TESTING=OFF
configure_and_build "$root/perfbench" "$out/perfbench"

binaries=()
for dir in bench examples tools; do
  while IFS= read -r binary; do binaries+=("$binary"); done < <(
    find "$out/repo/$dir" -maxdepth 1 -type f -perm -u+x | sort)
done
binaries+=("$out/perfbench/perfbench" "$out/perfbench/perfbench_test")

find "$out/repo/src" -name '*.a' -print0 | xargs -0 nm --defined-only \
  | awk '$2 == "T" { print $3 }' | sort -u > "$out/library.sym"
nm --defined-only "${binaries[@]}" 2>/dev/null \
  | awk 'NF == 3 { print $3 }' | sort -u > "$out/linked.sym"
comm -23 "$out/library.sym" "$out/linked.sym" | c++filt | sort \
  > "$out/unlinked.txt"

echo "scanned ${#binaries[@]} binaries: $(wc -l < "$out/unlinked.txt") unlinked library symbols"
diff -u "$root/tools/unlinked_seams.txt" "$out/unlinked.txt"
