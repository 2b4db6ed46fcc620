#!/bin/sh
# CLI grammar test: pins which command lines `eof` accepts. Exit 2 means a usage
# error (the line was refused before any work started); exit 1 means the line
# parsed and the command then failed at runtime. Every accepted line below is
# steered into a cheap runtime failure (an unknown OS, an unopenable
# --metrics-out, a refused --connect, a missing journal), so the whole grammar
# is covered in well under a second of campaign-free work.
#
# usage: cli_grammar_test.sh path/to/eof

EOF_BIN=$1
if [ ! -x "$EOF_BIN" ]; then
  echo "usage: $0 path/to/eof" >&2
  exit 2
fi
case $EOF_BIN in
  /*) ;;
  *) EOF_BIN=$PWD/$EOF_BIN ;;
esac
TMP=$(mktemp -d)
trap 'rm -rf "$TMP"' EXIT
cd "$TMP" || exit 1  # a value-flag that swallows "--x" may create that file

BAD_OUT=$TMP/no/such/dir/journal.jsonl  # unopenable --metrics-out
REFUSED=127.0.0.1:1                     # nothing listens here
FUZZ="fuzz nosuchos"
REPORT="report $TMP/missing.jsonl"
SERVE="serve zephyr --metrics-out $BAD_OUT"
WORKER="worker --connect $REFUSED"
TOP="top --connect $REFUSED --once"

failures=0
checks=0

# expect CODE ARGS...: run eof with ARGS and require exit status CODE.
expect() {
  want=$1
  shift
  timeout 20 "$EOF_BIN" "$@" > "$TMP/out" 2>&1
  got=$?
  checks=$((checks + 1))
  if [ "$got" != "$want" ]; then
    failures=$((failures + 1))
    echo "FAIL: eof $* -> exit $got, want $want"
    sed 's/^/  | /' "$TMP/out" | head -n 5
  fi
}

# ranged ANCHOR FLAG BELOW LO HI ABOVE: a bounded-integer flag is refused just
# outside its range and when non-numeric, and accepted at both ends in both
# spellings. ANCHOR is the command line it rides on (word-split on purpose).
ranged() {
  anchor=$1 flag=$2 below=$3 lo=$4 hi=$5 above=$6
  expect 2 $anchor "$flag" "$below"
  expect 1 $anchor "$flag" "$lo"
  expect 1 $anchor "$flag=$lo"
  expect 1 $anchor "$flag" "$hi"
  expect 1 $anchor "$flag=$hi"
  expect 2 $anchor "$flag=$above"
  expect 2 $anchor "$flag" abc
  expect 2 $anchor "$flag=12x"
  expect 2 $anchor "$flag="
  expect 2 $anchor "$flag"
}

# --- commands and the runtime anchors themselves ---
expect 2
expect 2 nosuchcommand
expect 2 --jobs 2 fuzz nosuchos
expect 1 $FUZZ
expect 1 $REPORT
expect 1 $SERVE
expect 1 $WORKER
expect 1 $TOP
expect 2 fuzz
expect 2 serve
expect 2 report

# --- unknown flags, and flags another subcommand owns ---
expect 2 $FUZZ --bogus
expect 2 $FUZZ --json
expect 2 $FUZZ --
expect 2 $REPORT --jobs 2
expect 2 $SERVE --overlapped-drain on
expect 2 $SERVE --boards 2
expect 2 $WORKER --shards 2
expect 2 $TOP --name w
expect 2 list-targets --json
expect 2 bugs --once
expect 2 mine-specs zephyr --trim
expect 2 repro zephyr 1 --directed

# --- switches take no value ---
expect 1 $FUZZ --directed --trim
expect 2 $FUZZ --directed=1
expect 2 $FUZZ --trim=
expect 1 $SERVE --directed --trim
expect 2 $SERVE --trim=on
expect 2 $REPORT --json=1
expect 1 $REPORT --json
expect 2 $TOP --once=1

# --- choices ---
for mode in reflash snapshot; do
  expect 1 $FUZZ --restore-mode "$mode"
  expect 1 $FUZZ "--restore-mode=$mode"
  expect 1 $SERVE --restore-mode "$mode"
done
expect 2 $FUZZ --restore-mode warm
expect 2 $FUZZ --restore-mode=Snapshot
expect 2 $FUZZ --restore-mode
expect 2 $SERVE --restore-mode=
for drain in on off; do
  expect 1 $FUZZ --overlapped-drain "$drain"
  expect 1 $FUZZ "--overlapped-drain=$drain"
done
expect 2 $FUZZ --overlapped-drain yes
expect 2 $FUZZ --overlapped-drain=

# --- bounded integers ---
ranged "$FUZZ" --jobs 0 1 1024 1025
ranged "$FUZZ" --metrics-interval 0 1 18446744073709551615 18446744073709551616
ranged "$SERVE" --metrics-interval 0 1 18446744073709551615 18446744073709551616
ranged "$SERVE" --port -1 0 65535 65536
ranged "$SERVE" --shards 0 1 1024 1025
ranged "$SERVE" --pool 0 1 4096 4097
ranged "$SERVE" --priority 0 1 1000 1001
ranged "$SERVE --lease-timeout 86400000" --heartbeat-interval 0 1 3600000 3600001
ranged "$SERVE" --status-port -1 0 65535 65536
ranged "$SERVE" --journal-rotate-mb 0 1 10240 10241
ranged "$WORKER" --boards 0 1 1024 1025
ranged "$TOP" --interval 0 1 3600 3601
# The lease must exceed the heartbeat (at least 1 ms), so its floor of 1 never
# passes the cross-flag check.
expect 2 $SERVE --lease-timeout 0
expect 2 $SERVE --lease-timeout 1 --heartbeat-interval 1
expect 1 $SERVE --lease-timeout 2 --heartbeat-interval 1
expect 1 $SERVE --lease-timeout=86400000
expect 2 $SERVE --lease-timeout 86400001
expect 2 $SERVE --lease-timeout abc

# --- non-empty text ---
expect 2 fuzz nosuchos --metrics-out=
expect 2 fuzz nosuchos --metrics-out
expect 1 fuzz nosuchos --metrics-out "$TMP/j.jsonl"
expect 1 fuzz nosuchos --metrics-out --json  # the value slot swallows "--json"
expect 2 $SERVE --campaign-id=
expect 1 $SERVE --campaign-id smoke
expect 1 $SERVE --campaign-id=smoke
expect 2 $WORKER --name=
expect 1 $WORKER --name w0
expect 1 $WORKER --name=w0
expect 2 worker --connect=
expect 2 worker --connect
expect 2 $REPORT --journal=
expect 1 report --journal "$TMP/missing.jsonl"
expect 1 report "--journal=$TMP/missing.jsonl" --json
expect 2 $REPORT --trace-out=
expect 1 $REPORT --trace-out "$TMP/trace.json"
expect 2 $TOP --campaign=
expect 1 $TOP --campaign smoke
expect 1 $TOP --campaign=smoke

# --- cross-flag checks ---
expect 2 $SERVE --heartbeat-interval 5000
expect 2 $SERVE --lease-timeout 1000
expect 2 $SERVE --heartbeat-interval 2000 --lease-timeout 2000
expect 1 $SERVE --heartbeat-interval 2000 --lease-timeout 2001
expect 2 serve zephyr --journal-rotate-mb 1
expect 1 serve zephyr --journal-rotate-mb 1 --metrics-out "$BAD_OUT"
expect 2 worker
expect 2 worker --boards 2
expect 2 top
expect 2 top --once
expect 2 worker --connect nohost
expect 2 worker --connect 127.0.0.1:0
expect 2 worker --connect 127.0.0.1:65536
expect 2 top --connect :80 --once

# --- fuzz/serve positionals: [minutes] [seed] are strict decimal integers ---
expect 1 fuzz nosuchos 10 7 someboard
expect 1 fuzz nosuchos 0 7  # 0 minutes means 60
expect 2 fuzz nosuchos abc
expect 2 fuzz nosuchos 10x
expect 2 fuzz nosuchos -5
expect 2 fuzz nosuchos 10 seven
expect 2 fuzz nosuchos 10 18446744073709551616
expect 1 $SERVE 0 7
expect 2 $SERVE abc
expect 2 $SERVE 10 -1

echo "cli grammar: $checks checks, $failures failures"
[ "$failures" -eq 0 ]
