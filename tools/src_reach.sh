#!/usr/bin/env bash
# src/ reachability gate: every hpn:: function that src/ defines must be kept
# by some binary a user starts, or be listed in tools/src_reach.allow with a
# reason.
#
#   tools/src_reach.sh            (run from anywhere; builds into build-reach/)
#
# It builds the tree at -O0 with one section per function and links with
# --gc-sections, so a linked binary keeps only the functions its entry point
# reaches. The binaries that count are the paper benches (every bench except
# the bench_microperf* kernel timers and bench_e2e_session, which time test
# oracles), the examples, and perfbench_driver (built out of tree from
# perfbench/, writing nothing there). Tests and microbenches do not count: a
# function only they call belongs in tests/.
#
# Symbols are keyed by demangled signature, so overloads count separately.
# Template instances, lambdas and anonymous-namespace helpers are dropped:
# they exist only where a caller instantiated them. Inline functions defined
# in headers are outside the check unless some src/ file emits them (then
# they count like any other function).
#
# Exits non-zero on an unreached symbol missing from the allowlist, and on an
# allowlist line whose symbol is now reached or no longer defined.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
allow="$root/tools/src_reach.allow"
out="$root/build-reach"
jobs="$(nproc 2>/dev/null || echo 2)"
[ "$jobs" -gt 4 ] && jobs=4

flags=(
  -DCMAKE_BUILD_TYPE=Debug
  "-DCMAKE_CXX_FLAGS=-O0 -ffunction-sections -fdata-sections"
  "-DCMAKE_EXE_LINKER_FLAGS=-Wl,--gc-sections"
)

cmake -S "$root" -B "$out/main" -DHPN_BUILD_TESTS=OFF "${flags[@]}" >/dev/null
cmake --build "$out/main" -j "$jobs" >/dev/null
cmake -S "$root/perfbench" -B "$out/perfbench" "${flags[@]}" >/dev/null
cmake --build "$out/perfbench" -j "$jobs" --target perfbench_driver >/dev/null

bins=()
for b in "$out"/main/bench/*; do
  case "$(basename "$b")" in
    bench_microperf*|bench_e2e_session) ;;
    *) bins+=("$b") ;;
  esac
done
for b in "$out"/main/examples/*; do
  [ -f "$b" ] && [ -x "$b" ] && bins+=("$b")
done
bins+=("$out/perfbench/perfbench_driver")

# Defined hpn:: functions, one demangled signature per line, minus template
# instances (a '<' in the qualified name, operator names aside), lambdas and
# anonymous-namespace helpers.
functions() {
  nm -C --defined-only "$@" 2>/dev/null |
    awk '$2 ~ /^[TtWw]$/ { $1 = ""; $2 = ""; sub(/^  /, ""); print }' |
    grep -E '^hpn::' |
    grep -v -e '{lambda' -e '(anonymous namespace)' |
    awk '{ name = $0; sub(/\(.*/, "", name);
           gsub(/operator(<=>|<<=|<<|<=|<|>>=|>>|>=|>|->)/, "operator", name);
           if (name !~ /</) print }' |
    sort -u
}

tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT
functions $(find "$out/main/src" -name 'libhpn_*.a' | sort) >"$tmp/defined"
functions "${bins[@]}" >"$tmp/kept"
comm -23 "$tmp/defined" "$tmp/kept" >"$tmp/unreached"

# Allowlist: "<signature>  # <reason>" per line; blank and '#' lines skipped.
# At most 40 entries: past that the list stops being a list of exceptions.
: >"$tmp/allowed"
bad=0
while IFS= read -r line; do
  case "$line" in ''|'#'*) continue ;; esac
  sig="${line%%  #*}"
  if [ "$sig" = "$line" ] || [ -z "${line#*  #}" ]; then
    echo "src_reach: allowlist line without a reason: $line"
    bad=1
    continue
  fi
  printf '%s\n' "$sig" >>"$tmp/allowed"
done <"$allow"
sort -u -o "$tmp/allowed" "$tmp/allowed"

if [ "$(wc -l <"$tmp/allowed")" -gt 40 ]; then
  echo "src_reach: $(wc -l <"$tmp/allowed") allowlist entries; at most 40"
  bad=1
fi

new="$(comm -23 "$tmp/unreached" "$tmp/allowed")"
stale="$(comm -13 "$tmp/unreached" "$tmp/allowed")"

echo "src_reach: $(wc -l <"$tmp/defined") hpn:: functions defined in src/," \
  "$(wc -l <"$tmp/unreached") kept by none of ${#bins[@]} binaries," \
  "$(wc -l <"$tmp/allowed") allowlisted"
if [ -n "$new" ]; then
  echo "src_reach: unreached and not allowlisted" \
    "(delete, move to tests/, or allowlist with a reason):"
  printf '%s\n' "$new" | sed 's/^/  /'
  bad=1
fi
if [ -n "$stale" ]; then
  echo "src_reach: stale allowlist lines (now reached, or no longer defined):"
  printf '%s\n' "$stale" | sed 's/^/  /'
  bad=1
fi
[ "$bad" = 0 ] && echo "src_reach: ok"
exit "$bad"
