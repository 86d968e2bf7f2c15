#!/bin/sh
# End-to-end drain of a real anbd on SIGTERM: build a small artifact,
# serve it, answer accuracy and device queries through
# `anbench query-remote` (each checked against a direct `anbench query`),
# send SIGTERM, then check that the daemon printed its summary with every
# request answered, exited 0 and removed its socket file.
#
#   anbd_sigterm_test.sh ANBENCH ANBD
set -u
anbench=$1
anbd=$2
dir=$(mktemp -d)
pid=
trap '[ -n "$pid" ] && kill "$pid" 2>/dev/null; rm -rf "$dir"' EXIT
fail() {
  echo "FAIL: $*" >&2
  exit 1
}

"$anbench" build --archs 60 --seed 3 --out "$dir/small.anbb" >/dev/null ||
  fail "anbench build"
sock="$dir/anbd.sock"
"$anbd" --bench "$dir/small.anbb" --socket "$sock" --workers 2 \
  >"$dir/out" 2>"$dir/err" &
pid=$!
# anbd prints its socket path once the socket is bound.
tries=0
until [ -s "$dir/out" ]; do
  tries=$((tries + 1))
  [ "$tries" -le 100 ] || fail "anbd never printed its socket path"
  sleep 0.1
done

n=0
for arch in $("$anbench" random --count 3 --seed 5); do
  for target in "" "--device a100 --metric Thr"; do
    # $target is split into flags on purpose.
    want=$("$anbench" query --bench "$dir/small.anbb" --arch "$arch" $target)
    got=$("$anbench" query-remote --socket "$sock" --arch "$arch" $target) ||
      fail "query-remote $target"
    [ "$got" = "$want" ] || fail "served '$got', direct '$want'"
    n=$((n + 1))
  done
done

kill -TERM "$pid"
wait "$pid"
status=$?
pid=
[ "$status" -eq 0 ] || fail "anbd exited with status $status"
grep -q "anbd: served $n requests ($n ok, 0 error" "$dir/err" ||
  fail "unexpected summary: $(cat "$dir/err")"
[ ! -e "$sock" ] || fail "socket file left behind"
echo "anbd drained $n requests on SIGTERM"
