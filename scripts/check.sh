#!/bin/sh
# Full verification: configure, build, test, run every example that
# terminates on its own, and regenerate all benchmark tables.
#
#   scripts/check.sh                  ordinary build in build/
#   scripts/check.sh --sanitize=asan  AddressSanitizer+UBSan preset (checked)
#   scripts/check.sh --sanitize=tsan  ThreadSanitizer preset (thread checkers on)
#   scripts/check.sh --sanitize=checked  checked invariants, no sanitizers
#   scripts/check.sh --analyze        clang -Werror=thread-safety gate (build only)
#   scripts/check.sh --mc             bounded model-checking sweep (cosoft-mc)
#   scripts/check.sh --bench          benchmark smoke run (ctest label: bench)
#   scripts/check.sh --obs            observability suite only (ctest label: obs)
#   scripts/check.sh --hotpath        hot-path discipline suite: runtime scope
#                                     accounting tests + the static
#                                     allocation/blocking gate (label: hotpath)
#   scripts/check.sh --journal        durable-session gate: boot cosoftd with
#                                     --journal-dir, connect a client, kill -9
#                                     the server mid-session, restart on the
#                                     same directory, and assert the session
#                                     was recovered (boot log, /journal route,
#                                     and a reconnecting client)
#   scripts/check.sh --all            the full sweep: ordinary (with lint),
#                                     analyze, hotpath, then asan/tsan/checked
#                                     batteries
#
# Sanitizer runs use the CMakePresets.json trees (build/asan, build/tsan,
# build/checked) and stop after ctest: examples and benchmarks are only
# exercised by the ordinary flavor. The --mc flavor builds the ordinary tree,
# then runs a bounded cosoft-mc sweep over every registered scenario
# (fault-free plus one-drop and one-crash budgets) and fails on any property
# violation. --analyze delegates to scripts/analyze.sh (a loud no-op on
# machines without clang, just like the lint gate).
set -e
cd "$(dirname "$0")/.."

SANITIZE=""
MC=""
BENCH=""
OBS=""
ANALYZE=""
HOTPATH=""
JOURNAL=""
for arg in "$@"; do
  case "$arg" in
    --sanitize=asan|--sanitize=tsan|--sanitize=checked) SANITIZE="${arg#--sanitize=}" ;;
    --analyze) ANALYZE=1 ;;
    --mc) MC=1 ;;
    --bench) BENCH=1 ;;
    --obs) OBS=1 ;;
    --hotpath) HOTPATH=1 ;;
    --journal) JOURNAL=1 ;;
    --all)
      # Run each flavor in a child invocation so `set -e` stops on the first
      # failing gate and every flavor keeps its own tree.
      "$0"
      "$0" --analyze
      "$0" --hotpath
      "$0" --sanitize=asan
      "$0" --sanitize=tsan
      "$0" --sanitize=checked
      echo "check.sh: --all sweep passed (ordinary+lint, analyze, hotpath, asan, tsan, checked)"
      exit 0
      ;;
    *) echo "check.sh: unknown argument '$arg' (expected --sanitize=asan|tsan|checked, --analyze, --mc, --bench, --obs, --hotpath, --journal, or --all)" >&2; exit 2 ;;
  esac
done

if [ -n "$ANALYZE" ]; then
  exec scripts/analyze.sh
fi

if [ -n "$HOTPATH" ]; then
  # Reuse whatever generator build/ already has; a fresh tree gets the default.
  cmake -B build -DCMAKE_EXPORT_COMPILE_COMMANDS=ON
  cmake --build build --target test_hotpath
  echo "=== hot-path discipline: ctest -L hotpath ==="
  # Runs the runtime accounting suite and hotpath_static_analysis (the
  # call-graph walk over every CO_HOT_PATH root; skips without a backend).
  ctest --test-dir build -L hotpath --output-on-failure --no-tests=ignore
  exit 0
fi

if [ -n "$OBS" ]; then
  # Reuse whatever generator build/ already has; a fresh tree gets the default.
  cmake -B build -DCMAKE_EXPORT_COMPILE_COMMANDS=ON
  cmake --build build --target test_obs test_trace test_incident cosoft-stat cosoft-incident cosoftd
  echo "=== observability suite: ctest -L obs ==="
  ctest --test-dir build -L obs --output-on-failure --no-tests=ignore
  # Exposition-plane liveness: boot a real cosoftd on an ephemeral monitor
  # port, then hit /metrics, /healthz and /status over plain HTTP. Uses curl
  # when the machine has it and falls back to cosoft-stat (our own client)
  # otherwise, so the gate runs everywhere the build does.
  echo "=== exposition plane: live cosoftd /metrics + /healthz + /status ==="
  OBS_LOG=$(mktemp)
  ./build/examples/cosoftd 0 --http-port 0 --max-seconds 15 > "$OBS_LOG" 2>&1 &
  OBS_PID=$!
  trap 'kill "$OBS_PID" 2>/dev/null || true' EXIT
  HTTP_ADDR=""
  for _ in $(seq 1 50); do
    HTTP_ADDR=$(sed -n 's/^cosoftd: monitor http on \([0-9.:]*\) .*/\1/p' "$OBS_LOG" | head -n1)
    [ -n "$HTTP_ADDR" ] && break
    kill -0 "$OBS_PID" 2>/dev/null || { cat "$OBS_LOG" >&2; echo "check.sh: cosoftd exited before publishing its monitor port" >&2; exit 1; }
    sleep 0.1
  done
  [ -n "$HTTP_ADDR" ] || { cat "$OBS_LOG" >&2; echo "check.sh: cosoftd never published its monitor port" >&2; exit 1; }
  if command -v curl > /dev/null 2>&1; then
    METRICS=$(curl -fsS "http://$HTTP_ADDR/metrics")
    HEALTH=$(curl -fsS "http://$HTTP_ADDR/healthz")
    STATUS=$(curl -fsS "http://$HTTP_ADDR/status")
  else
    METRICS=$(./build/tools/cosoft-stat "${HTTP_ADDR%:*}" "${HTTP_ADDR##*:}" --raw)
    HEALTH=$(printf '%s\n' "$METRICS" | grep -q '^cosoft_watchdog_healthy 1$' && echo ok)
  fi
  # cosoft-stat itself: health line, session/connection tables, shard table.
  STAT=$(./build/tools/cosoft-stat "${HTTP_ADDR%:*}" "${HTTP_ADDR##*:}")
  STATUS=${STATUS:-$STAT}
  printf '%s\n' "$METRICS" | grep -q '^cosoft_build_info{' \
    || { echo "check.sh: /metrics is missing cosoft_build_info" >&2; exit 1; }
  printf '%s\n' "$METRICS" | grep -q '^# TYPE cosoft_watchdog_healthy gauge$' \
    || { echo "check.sh: /metrics is missing the watchdog family" >&2; exit 1; }
  printf '%s\n' "$HEALTH" | grep -q '^ok$' \
    || { echo "check.sh: /healthz did not answer ok (got: $HEALTH)" >&2; exit 1; }
  printf '%s\n' "$STATUS" | grep -q '^-- sessions (' \
    || { echo "check.sh: /status is missing the session table" >&2; exit 1; }
  printf '%s\n' "$STATUS" | grep -q '^-- connections (' \
    || { echo "check.sh: /status is missing the connection table" >&2; exit 1; }
  for want in '^health: ok$' '^-- sessions (' '^-- connections (' '^-- reactor shards ('; do
    printf '%s\n' "$STAT" | grep -q -- "$want" \
      || { echo "check.sh: cosoft-stat output is missing '$want'" >&2; exit 1; }
  done
  kill "$OBS_PID" 2>/dev/null || true
  wait "$OBS_PID" 2>/dev/null || true
  trap - EXIT
  rm -f "$OBS_LOG"
  echo "exposition plane answered on $HTTP_ADDR: build_info + watchdog families present, healthz ok, status tables present"
  exit 0
fi

if [ -n "$JOURNAL" ]; then
  # Durable-session crash gate: a real SIGKILL against a live cosoftd, then a
  # restart on the same --journal-dir. The journal fault-injection paths
  # (failed fsync, short write, torn tail) run in every ctest battery via
  # test_session_journal, including the checked preset; this gate covers the
  # process-death path no in-process test can.
  cmake -B build -DCMAKE_EXPORT_COMPILE_COMMANDS=ON
  cmake --build build --target cosoftd cosoft_shell cosoft-stat
  JDIR=$(mktemp -d) JLOG=$(mktemp)
  trap 'kill -9 "$SRV_PID" 2>/dev/null || true; kill "$SHELL_PID" 2>/dev/null || true; rm -rf "$JDIR" "$JLOG"' EXIT
  echo "=== durable sessions: boot cosoftd --journal-dir $JDIR ==="
  ./build/examples/cosoftd 0 --journal-dir "$JDIR" --http-port 0 > "$JLOG" 2>&1 &
  SRV_PID=$!
  PORT=""
  for _ in $(seq 1 50); do
    PORT=$(sed -n 's/^cosoftd: listening on 127\.0\.0\.1:\([0-9]*\) .*/\1/p' "$JLOG" | head -n1)
    [ -n "$PORT" ] && break
    kill -0 "$SRV_PID" 2>/dev/null || { cat "$JLOG" >&2; echo "check.sh: cosoftd exited before listening" >&2; exit 1; }
    sleep 0.1
  done
  [ -n "$PORT" ] || { cat "$JLOG" >&2; echo "check.sh: cosoftd never published its port" >&2; exit 1; }
  # A client registers and stays connected while the server dies: its
  # registration is the journaled state the restart must bring back.
  { printf 'new textfield field\nset field durable\n'; sleep 30; } \
    | ./build/examples/cosoft_shell "$PORT" alice > /dev/null 2>&1 &
  SHELL_PID=$!
  sleep 1  # let the Register land and the journal pump flush it
  echo "=== durable sessions: SIGKILL cosoftd (pid $SRV_PID) ==="
  kill -9 "$SRV_PID"
  wait "$SRV_PID" 2>/dev/null || true
  kill "$SHELL_PID" 2>/dev/null || true
  wait "$SHELL_PID" 2>/dev/null || true
  ls "$JDIR"/*.cosj > /dev/null 2>&1 || { echo "check.sh: no journal file was written" >&2; exit 1; }
  echo "=== durable sessions: restart on the same journal dir ==="
  : > "$JLOG"
  ./build/examples/cosoftd 0 --journal-dir "$JDIR" --http-port 0 --max-seconds 30 > "$JLOG" 2>&1 &
  SRV_PID=$!
  PORT="" HTTP_ADDR="" RECOVERED=""
  for _ in $(seq 1 50); do
    PORT=$(sed -n 's/^cosoftd: listening on 127\.0\.0\.1:\([0-9]*\) .*/\1/p' "$JLOG" | head -n1)
    HTTP_ADDR=$(sed -n 's/^cosoftd: monitor http on \([0-9.:]*\) .*/\1/p' "$JLOG" | head -n1)
    RECOVERED=$(sed -n 's/^cosoftd: journaling sessions under .* (\([0-9]*\) recovered)$/\1/p' "$JLOG" | head -n1)
    [ -n "$PORT" ] && [ -n "$HTTP_ADDR" ] && [ -n "$RECOVERED" ] && break
    kill -0 "$SRV_PID" 2>/dev/null || { cat "$JLOG" >&2; echo "check.sh: restarted cosoftd exited early" >&2; exit 1; }
    sleep 0.1
  done
  [ -n "$RECOVERED" ] && [ "$RECOVERED" -ge 1 ] \
    || { cat "$JLOG" >&2; echo "check.sh: restart recovered no sessions (expected >= 1)" >&2; exit 1; }
  # The /journal route serves the recovered session's records, each frame
  # row named by the message decoded from the file.
  JOURNAL_ROUTE=$(./build/tools/cosoft-stat "${HTTP_ADDR%:*}" "${HTTP_ADDR##*:}" --journal all)
  printf '%s\n' "$JOURNAL_ROUTE" | grep -q -- '-- journal:' \
    || { echo "check.sh: /journal route shows no recovered journal" >&2; exit 1; }
  printf '%s\n' "$JOURNAL_ROUTE" | grep -qE '^ *[0-9]+ frame +[0-9]+ Register ' \
    || { printf '%s\n' "$JOURNAL_ROUTE" >&2; echo "check.sh: /journal route shows no Register frame" >&2; exit 1; }
  # A reconnecting client registers into the recovered session and sees the
  # pre-crash registration (alice's ghost, resumed) in the registry.
  WHO=$(printf 'who\nquit\n' | ./build/examples/cosoft_shell "$PORT" alice 2>/dev/null)
  printf '%s\n' "$WHO" | grep -q 'alice@' \
    || { printf '%s\n' "$WHO" >&2; echo "check.sh: reconnected client cannot see the recovered registration" >&2; exit 1; }
  kill "$SRV_PID" 2>/dev/null || true
  wait "$SRV_PID" 2>/dev/null || true
  trap - EXIT
  rm -rf "$JDIR" "$JLOG"
  echo "durable-session gate passed: $RECOVERED session(s) recovered after SIGKILL, /journal served, client resumed"
  exit 0
fi

if [ -n "$BENCH" ]; then
  # Reuse whatever generator build/ already has; a fresh tree gets the default.
  cmake -B build -DCMAKE_EXPORT_COMPILE_COMMANDS=ON
  cmake --build build --target bench_fanout bench_sessions
  echo "=== bench smoke: ctest -L bench ==="
  # --no-tests=ignore: a tree without registered bench tests skips gracefully
  # instead of failing the gate.
  ctest --test-dir build -L bench --output-on-failure --no-tests=ignore
  for artifact in BENCH_fanout.json BENCH_sessions.json; do
    if [ -f "build/bench/$artifact" ]; then
      echo "=== $artifact ==="
      cat "build/bench/$artifact"
    fi
  done
  # The broadcast=0 ratchet, asserted from both directions: the checked-in
  # budget file must still pin the broadcast scope to zero allocations, and
  # the measured bench artifacts must have hit it at runtime.
  echo "=== broadcast zero-alloc ratchet ==="
  python3 - <<'PY'
import json, sys

budget = json.load(open("hotpath_budget.json"))
allowed = budget["operations"]["broadcast"]["budget_allocs"]
if allowed != 0:
    sys.exit(f"hotpath_budget.json: broadcast budget_allocs is {allowed}, ratchet requires 0")

fanout = json.load(open("build/bench/BENCH_fanout.json"))
measured = fanout["allocs_per_broadcast"]
if measured != 0:
    sys.exit(f"BENCH_fanout.json: measured {measured} allocs per shared broadcast, ratchet requires 0")
for row in fanout["rows"]:
    if row["allocs_per_broadcast_shared"] != 0:
        sys.exit(f"BENCH_fanout.json: {row['partners']}-partner row allocates on the shared path")

sessions = json.load(open("build/bench/BENCH_sessions.json"))
reactor_rows = [r for r in sessions["rows"] if r["mode"] == "reactor"]
if not reactor_rows or any(r["reactor_shards"] < 1 for r in reactor_rows):
    sys.exit("BENCH_sessions.json: reactor rows missing their shard count")
if max(r["sessions"] for r in reactor_rows) < 256:
    sys.exit("BENCH_sessions.json: reactor sweep no longer reaches 256 sessions")
print(f"ratchet held: budget=0, fanout allocs/broadcast=0, "
      f"reactor sweep to {max(r['sessions'] for r in reactor_rows)} sessions "
      f"({sessions['reactor_backend']} backend)")
PY
  exit 0
fi

if [ -n "$MC" ]; then
  cmake -B build -DCMAKE_EXPORT_COMPILE_COMMANDS=ON
  cmake --build build --target cosoft-mc
  echo "=== cosoft-mc sweep: fault-free ==="
  ./build/tools/cosoft-mc sweep
  echo "=== cosoft-mc sweep: drop-fault budget 1 ==="
  ./build/tools/cosoft-mc explore couple_lock_execute --drop-faults 1 --max-interleavings 20000 \
    && { echo "expected the drop-fault sweep to surface a drain violation" >&2; exit 1; } \
    || echo "seeded drop fault reproduced as expected"
  echo "=== cosoft-mc sweep: crash-fault budget 1 ==="
  ./build/tools/cosoft-mc explore couple_lock_execute --close-faults 1 --max-interleavings 20000
  exit 0
fi

if [ -n "$SANITIZE" ]; then
  cmake --preset "$SANITIZE"
  cmake --build --preset "$SANITIZE"
  ctest --preset "$SANITIZE"
  exit 0
fi

cmake -B build -DCMAKE_EXPORT_COMPILE_COMMANDS=ON
cmake --build build

ctest --test-dir build --output-on-failure

scripts/lint.sh build

for e in quickstart classroom tori_session whiteboard tcp_demo moderated_classroom; do
  echo "=== example: $e ==="
  ./build/examples/$e
done

for b in build/bench/*; do
  [ -x "$b" ] && [ -f "$b" ] && "$b"
done
