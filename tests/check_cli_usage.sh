#!/bin/sh
# Checks the command-line contract shared by the five tools (support/cli):
# an unknown flag, a missing value, a value given to a flag and a malformed
# or out-of-range value all exit 2 (usage) before any work is done; the
# --opt=VALUE spelling works; --verilog FILE and the other single-design
# output and report flags take one input; and a negative
# --timeout-ms is still the deterministic-timeout knob (exit 3), not a usage
# error.
#
#   check_cli_usage.sh <roccc-cc> <roccc-ccd> <roccc-client> <roccc-explore> <roccc-verify>
#
# Registered as the `cli_usage_test` ctest (tests/CMakeLists.txt). Starts one
# roccc-ccd on a socket in a temporary directory and drains it at the end.
set -u

CC="$1"
CCD="$2"
CLIENT="$3"
EXPLORE="$4"
VERIFY="$5"

tmp="$(mktemp -d)"
daemon_pid=""
cleanup() {
  [ -n "$daemon_pid" ] && kill "$daemon_pid" 2>/dev/null
  rm -rf "$tmp"
}
trap cleanup EXIT

cat > "$tmp/k.c" <<'EOF'
void k(const int8 A[16], int16 C[12]) {
  int i;
  for (i = 0; i < 12; i++) { C[i] = A[i] + A[i+4]; }
}
EOF

failures=0
# expect CODE TOOL ARGS... — runs the tool and checks its exit code. A tool
# that accepts a bad command line may start real work (roccc-ccd would
# serve forever), so each run is bounded.
expect() {
  want="$1"
  shift
  timeout 60 "$@" > "$tmp/out" 2>&1
  got=$?
  if [ "$got" -ne "$want" ]; then
    echo "FAIL: exit $got, want $want: $*" >&2
    sed 's/^/    /' "$tmp/out" >&2
    failures=$((failures + 1))
  fi
}

# roccc-cc: malformed and out-of-range values, unknown flags.
for bad in "--unroll abc" "--unroll 0" "--unroll -3" "--unroll 2x" "--target-ns abc" \
           "--target-ns 4ns" "--target-ns nan" "--target-ns inf" "--target-ns 0" \
           "--target-ns -1" "--mult-style dsp48" "--max-ir-nodes -1" "--max-depth x" \
           "--timeout-ms 1.5" "--jobs -1" "--tb-seed zz" "--cache-bytes 0" "--bogus" \
           "--quiet=1" "--unroll"; do
  # shellcheck disable=SC2086
  expect 2 "$CC" "$tmp/k.c" -o "$tmp/k.vhd" --quiet $bad
done
expect 0 "$CC" "$tmp/k.c" --unroll=2 --target-ns=3.5 --mult-style=mult18 -o "$tmp/k.vhd" --quiet
[ -s "$tmp/k.vhd" ] || { echo "FAIL: roccc-cc --unroll=2 wrote no VHDL" >&2; failures=$((failures + 1)); }
expect 3 "$CC" "$tmp/k.c" --timeout-ms=-1 -o "$tmp/k.vhd" --quiet
# --verilog FILE names one file, so it takes one input, as -o does.
expect 2 "$CC" --quiet --verilog "$tmp/two.v" "$tmp/k.c" "$tmp/k.c"
if [ -e "$tmp/two.v" ]; then
  echo "FAIL: roccc-cc --verilog with two inputs wrote a file" >&2
  failures=$((failures + 1))
fi
expect 0 "$CC" "$tmp/k.c" --verilog="$tmp/k.v" -o "$tmp/k.vhd" --quiet
[ -s "$tmp/k.v" ] || { echo "FAIL: roccc-cc --verilog wrote no Verilog" >&2; failures=$((failures + 1)); }
# Batch mode (more than one input) writes each <input>.vhd and prints status
# lines only, so every flag that names one output file or reports on one
# design exits 2 before anything is compiled or written.
mkdir "$tmp/batch"
cp "$tmp/k.c" "$tmp/batch/b1.c"
cp "$tmp/k.c" "$tmp/batch/b2.c"
for flag in "-o $tmp/batch/out.vhd" "--json $tmp/batch/dp.json" "--testbench" "--cosim" \
            "--vcd $tmp/batch/w.vcd" "--dump-datapath" "--dump-mir" "--time-passes"; do
  # shellcheck disable=SC2086
  expect 2 "$CC" --quiet $flag "$tmp/batch/b1.c" "$tmp/batch/b2.c"
done
written=$(ls "$tmp/batch" | grep -v '^b[12]\.c$')
if [ -n "$written" ]; then
  echo "FAIL: roccc-cc with a single-input flag and two inputs wrote: $written" >&2
  failures=$((failures + 1))
fi

# roccc-ccd: only malformed command lines (a valid one starts a daemon).
for bad in "--target-ns abc" "--target-ns nan" "--target-ns 0" "--jobs x" "--queue 0" \
           "--timeout-ms -1" "--max-depth 1x" "--unroll 2" "--bogus" "stray"; do
  # shellcheck disable=SC2086
  expect 2 "$CCD" --socket "$tmp/bad.sock" --quiet $bad
done

# roccc-client: rejected locally, before it connects.
for bad in "--unroll abc" "--unroll 0" "--target-ns abc" "--target-ns inf" "--target-ns -1" \
           "--max-ir-nodes -1" "--mult-style dsp48" "--drain halt" "--bogus"; do
  # shellcheck disable=SC2086
  expect 2 "$CLIENT" --socket "$tmp/none.sock" $bad "$tmp/k.c"
done

# roccc-explore.
for bad in "--unroll abc" "--unroll 0" "--target-ns x" "--target-ns nan" "--target-ns -1" \
           "--timeout-ms x" "--max-ir-nodes -1" "--seed zz" "--jobs abc" "--bogus"; do
  # shellcheck disable=SC2086
  expect 2 "$EXPLORE" --kernel "k=$tmp/k.c" --no-cycles --quiet $bad
done
expect 0 "$EXPLORE" --kernel="k=$tmp/k.c" --unroll=1,2 --timeout-ms=60000 --no-cycles --quiet

# roccc-verify.
for bad in "--seed zz" "--unroll 2x" "--unroll 0" "--jobs abc" "--soak 0" "--engines nope" \
           "--bogus"; do
  # shellcheck disable=SC2086
  expect 2 "$VERIFY" $bad "$tmp/k.c"
done
expect 0 "$VERIFY" --unroll=1,2 --seed=0x10 --engines=interp,fastsim --quiet "$tmp/k.c"

# roccc-client against a live daemon: --opt=VALUE, and a negative deadline
# reaching the daemon as a typed timeout.
"$CCD" --socket="$tmp/ccd.sock" --quiet &
daemon_pid=$!
i=0
while [ ! -S "$tmp/ccd.sock" ] && [ $i -lt 100 ]; do
  sleep 0.1
  i=$((i + 1))
done
expect 0 "$CLIENT" --socket="$tmp/ccd.sock" --unroll=2 --target-ns=3.5 -o "$tmp/c.vhd" --quiet "$tmp/k.c"
expect 3 "$CLIENT" --socket="$tmp/ccd.sock" --timeout-ms=-1 --quiet "$tmp/k.c"
expect 0 "$CLIENT" --socket="$tmp/ccd.sock" --drain=stop
wait "$daemon_pid"
daemon_pid=""

if [ "$failures" -ne 0 ]; then
  echo "$failures command-line check(s) failed" >&2
  exit 1
fi
echo "command-line contract holds for all five tools"
