#!/bin/sh
# anbench flag checking: a misspelt or repeated flag, a valued flag with
# no value and a word after a switch are usage errors (exit 2, the message
# names the flag) and nothing is built, while the invocations README.md
# and CI run still work as written (README's query-remote line is driven
# by anbd_sigterm_test.sh).
#
#   anbench_flags_test.sh ANBENCH
set -u
# The script changes directory below, so make the binary's path absolute.
case $1 in
  /*) anbench=$1 ;;
  *) anbench=$PWD/$1 ;;
esac
dir=$(mktemp -d)
trap 'rm -rf "$dir"' EXIT
fail() {
  echo "FAIL: $*" >&2
  exit 1
}

# expect_usage MESSAGE ARGS... — anbench ARGS must exit 2 and print MESSAGE.
expect_usage() {
  message=$1
  shift
  "$anbench" "$@" >"$dir/out" 2>"$dir/err"
  status=$?
  [ "$status" -eq 2 ] || fail "anbench $* exited $status, want 2"
  grep -qF -- "$message" "$dir/err" ||
    fail "anbench $*: no '$message' in: $(cat "$dir/err")"
  grep -q "^usage: anbench" "$dir/err" || fail "anbench $*: no usage"
}

expect_usage "unknown flag --arhcs for build" build --arhcs 300 --out "$dir/typo.anbb"
[ ! -e "$dir/typo.anbb" ] || fail "a misspelt flag still built an artifact"
expect_usage "--archs given twice" build --archs 300 --archs 400
expect_usage "--count given twice" random --count 1 --count 2
expect_usage "unknown flag --tune for random" random --tune
expect_usage "unknown flag --archs for query" query --archs 3
expect_usage "missing value for --out" build --archs 20 --out
expect_usage "missing value for --archs" build --archs --tune
expect_usage "unexpected argument 300" build --tune 300 --archs 20

cd "$dir" || fail "cd $dir"
run() {
  "$anbench" "$@" >/dev/null || fail "anbench $*"
}

# README.md: CLI, formats and multiple search spaces.
run build --archs 2600 --out bench.json
run info --bench bench.json
run query --bench bench.json --arch "$("$anbench" random --count 1)"
run search --bench bench.json --device vck190 --metric Thr
run convert --bench bench.json --out bench.anbb
run query --bench bench.anbb --arch "$("$anbench" random --count 1)"
run build --space fbnet --archs 2600 --out fbnet.anbb
run info --bench fbnet.anbb
run query --bench fbnet.anbb --space fbnet \
  --arch "$("$anbench" random --space fbnet --count 1)"

# CI: cross-target artifact byte identity.
run build --tune --archs 300 --seed 7 --out simd.anbb
run build --space fbnet --tune --archs 300 --seed 7 --out fbnet_simd.anbb
run convert --bench simd.anbb --out simd.json
run convert --bench simd.json --out back.anbb
cmp simd.anbb back.anbb || fail "convert round trip changed the artifact"
echo "anbench rejects bad flags and runs the documented invocations"
