#!/usr/bin/env bash
# Lists the nezha library functions that no product binary links.
#
# Usage: tools/unreached_api.sh BUILD_DIR
#
# Configures the main project and perfbench/ into BUILD_DIR/main and
# BUILD_DIR/perfbench at -O0 with -ffunction-sections -fdata-sections and
# links with --gc-sections, so a binary keeps exactly the library
# functions it can reach. (Without -fdata-sections, the switch jump tables
# of a file share one .rodata section, and a reached function's table
# keeps its unreached neighbours alive.) -fkeep-inline-functions makes
# every translation unit emit each inline function it sees, called or
# not, so inline header members land in libnezha.a as weak symbols and
# face the same test as out-of-line ones. The scan then compares the
# strong and weak nezha:: text symbols of libnezha.a against the symbols
# each binary kept. Products are the bench, example and tool binaries
# plus both perfbench binaries; nezha_tests is counted apart. Prints two
# lists, "reached from nothing" and "reached only from tests", and exits
# 1 when the first one is not empty.
#
# Left out of both lists:
#   - implicitly declared special members (constructors, destructors and
#     assignment operators the class does not declare; a declaration is
#     looked for in src/). Each is emitted only where some function uses
#     it, and that function is what the lists report;
#   - members of class templates: a member one instantiation does not use
#     is not dead.
set -euo pipefail

if [ $# -ne 1 ]; then
  echo "usage: $0 BUILD_DIR" >&2
  exit 2
fi
root=$(cd "$(dirname "$0")/.." && pwd)
out=$(mkdir -p "$1" && cd "$1" && pwd)
jobs=$(nproc 2>/dev/null || echo 2)

configure_and_build() {  # SOURCE_DIR BUILD_DIR; the log shows on failure
  if ! {
    cmake -S "$1" -B "$2" -DCMAKE_BUILD_TYPE=Debug \
      -DCMAKE_CXX_FLAGS_DEBUG=-O0 \
      -DCMAKE_CXX_FLAGS="-ffunction-sections -fdata-sections -fkeep-inline-functions" \
      -DCMAKE_EXE_LINKER_FLAGS=-Wl,--gc-sections &&
      cmake --build "$2" -j "$jobs"
  } >"$2.log" 2>&1; then
    cat "$2.log" >&2
    exit 2
  fi
}

configure_and_build "$root" "$out/main"
configure_and_build "$root/perfbench" "$out/perfbench"

# Strong (T) and weak (W) text symbols whose mangled name sits in
# namespace nezha.
nezha_text() {
  nm --defined-only "$@" 2>/dev/null |
    awk '($2 == "T" || $2 == "W") && $3 ~ /^_ZN(K)?5nezha/ { print $3 }' |
    sort -u
}

# Reads demangled names and drops the two kinds left out above. The
# qualifier is what precedes the name's last "::" outside template
# arguments (and after a template's return type); a "<" in it makes the
# name a class template member.
reportable() {
  awk '{
    s = $0; depth = 0; name_at = 1; params_at = 0
    for (i = 1; i <= length(s); i++) {
      c = substr(s, i, 1)
      if (c == "<" || c == "(") {
        if (c == "(" && depth == 0 && params_at == 0) params_at = i
        depth++
      } else if (c == ">" || c == ")") {
        depth--
      } else if (c == " " && depth == 0 && params_at == 0) {
        name_at = i + 1
      }
    }
    end_at = params_at ? params_at : length(s) + 1
    name = substr(s, name_at, end_at - name_at)
    depth = 0; cut = 0
    for (i = 1; i < length(name); i++) {
      c = substr(name, i, 1)
      if (c == "<") depth++
      else if (c == ">") depth--
      else if (depth == 0 && substr(name, i, 2) == "::") cut = i
    }
    qual = cut ? substr(name, 1, cut - 1) : ""
    member = cut ? substr(name, cut + 2) : name
    cls = qual; sub(/.*::/, "", cls)
    kind = "plain"
    if (index(qual, "<")) kind = "template"
    else if (member == cls) kind = "ctor"
    else if (member == "~" cls) kind = "dtor"
    else if (member == "operator=") kind = "assign"
    print kind "\t" cls "\t" $0
  }' | while IFS=$'\t' read -r kind cls line; do
    case $kind in
      template) continue ;;
      ctor) decl="^[[:space:]]*((explicit|constexpr|inline)[[:space:]]+)*$cls[[:space:]]*\(|\b$cls::$cls[[:space:]]*\(" ;;
      dtor) decl="~$cls[[:space:]]*\(" ;;
      assign) decl="\b$cls[[:space:]]*&[[:space:]]*($cls::)?operator=[[:space:]]*\(" ;;
      *) decl="" ;;
    esac
    if [ -n "$decl" ] &&
      ! grep -rEq --include='*.h' --include='*.cpp' "$decl" "$root/src"; then
      continue
    fi
    echo "$line"
  done
}

scan="$out/scan"
mkdir -p "$scan"
nezha_text "$out/main/src/libnezha.a" >"$scan/lib.txt"
products=(
  "$out"/main/bench/bench_*
  "$out"/main/examples/example_*
  "$out"/main/tools/nezha_report
  "$out"/main/tools/nezha_trace
  "$out"/perfbench/nezha_perfbench
  "$out"/perfbench/nezha_perfbench_traced
)
: >"$scan/products.txt"
for bin in "${products[@]}"; do
  [ -x "$bin" ] && [ -f "$bin" ] || continue
  nezha_text "$bin" >>"$scan/products.txt"
done
sort -u -o "$scan/products.txt" "$scan/products.txt"
nezha_text "$out/main/tests/nezha_tests" >"$scan/tests.txt"

comm -23 "$scan/lib.txt" "$scan/products.txt" >"$scan/unlinked.txt"
# Demangled and deduplicated: a constructor's two ABI variants are one line.
comm -12 "$scan/unlinked.txt" "$scan/tests.txt" | c++filt | sort -u |
  reportable >"$scan/test_only.txt"
comm -23 "$scan/unlinked.txt" "$scan/tests.txt" | c++filt | sort -u |
  reportable >"$scan/nothing.txt"

echo "nezha:: text symbols in libnezha.a: $(wc -l <"$scan/lib.txt")," \
  "scanned binaries: ${#products[@]} products + nezha_tests"
echo
echo "reached from nothing: $(wc -l <"$scan/nothing.txt")"
sed 's/^/  /' "$scan/nothing.txt"
echo
echo "reached only from tests: $(wc -l <"$scan/test_only.txt")"
sed 's/^/  /' "$scan/test_only.txt"

[ ! -s "$scan/nothing.txt" ]
