#!/usr/bin/env bash
# Tier-1 CI gate: the labelled test suites, run twice —
#   1. plain (RelWithDebInfo, preset `default`), and
#   2. under ThreadSanitizer (preset `tsan`) to catch data races in the
#      parallel level-synchronous scheduler, the dependency-counting
#      async scheduler (the tier1-labelled deps stress test runs under
#      both presets), the shared memo cache, and the qwm_serve dispatch
#      layer —
# plus a service smoke stage driving the qwm_serve daemon over both
# transports (scripted stdio exchange; TCP rounds with qwm_load on a
# SPICE deck and on a generated gate-level design), a
# crash/replay smoke (kill -9 the server, restart it on the same port,
# replay LOAD + mutations, require byte-identical replies), a
# deterministic perf-regression smoke comparing the pinned counter
# workloads of bench_micro_kernels and bench_scale_sta against
# tools/perf_budget.json, a scale smoke (full STA of a 10^5-stage
# generated design under wall-clock and RSS caps), and an
# ASan+UBSan stage (preset `asan`) that re-runs tier1 and then sweeps the
# differential QWM-vs-SPICE fuzz harness at 2000 samples with the pinned
# seed.
# Usage: tools/ci.sh [--skip-tsan] [--skip-asan]
set -euo pipefail
cd "$(dirname "$0")/.."

skip_tsan=0
skip_asan=0
for arg in "$@"; do
  case "$arg" in
    --skip-tsan) skip_tsan=1 ;;
    --skip-asan) skip_asan=1 ;;
    *) echo "unknown flag: $arg"; exit 2 ;;
  esac
done

echo "== configure + build (default) =="
cmake --preset default >/dev/null
cmake --build --preset default -j"$(nproc)"

echo "== tier1 tests (plain) =="
ctest --preset tier1

echo "== service smoke (stdio) =="
smoke_dir=$(mktemp -d)
trap 'rm -rf "$smoke_dir"' EXIT
cat > "$smoke_dir/chain.sp" <<'DECK'
ci smoke chain
vdd vdd 0 3.3
vin in 0 0
mn0 s1 in 0 0 nmos W=1.5u L=0.35u
mp0 s1 in vdd vdd pmos W=3u L=0.35u
mn1 out s1 0 0 nmos W=1.5u L=0.35u
mp1 out s1 vdd vdd pmos W=3u L=0.35u
cl out 0 20f
.end
DECK
stdio_out=$(printf 'LOAD %s\nARRIVAL out\nRESIZE 0 0 2.5u\nUPDATE\nSTATS\nSHUTDOWN\n' \
    "$smoke_dir/chain.sp" | ./build/tools/qwm_serve --stdio 2>/dev/null)
echo "$stdio_out"
# Six requests -> six responses, all OK, ending with the shutdown ack.
[[ $(echo "$stdio_out" | wc -l) -eq 6 ]] || { echo "stdio smoke: expected 6 responses"; exit 1; }
[[ -z $(echo "$stdio_out" | grep -v '^OK') ]] || { echo "stdio smoke: non-OK response"; exit 1; }
[[ $(echo "$stdio_out" | tail -1) == "OK bye" ]] || { echo "stdio smoke: missing shutdown ack"; exit 1; }

echo "== service smoke (TCP: qwm_serve + qwm_load) =="
./build/tools/qwm_serve --port 0 --port-file "$smoke_dir/port" --threads 4 \
    2> "$smoke_dir/serve.log" &
serve_pid=$!
for _ in $(seq 50); do [[ -s "$smoke_dir/port" ]] && break; sleep 0.1; done
[[ -s "$smoke_dir/port" ]] || { echo "qwm_serve did not write its port"; kill "$serve_pid"; exit 1; }
./build/tools/qwm_load --port "$(cat "$smoke_dir/port")" \
    --deck "$smoke_dir/chain.sp" --clients 8 --requests 50 \
    --what-if 3 --verify --shutdown
wait "$serve_pid" || { echo "qwm_serve exited non-zero"; exit 1; }
grep -q "clean shutdown" "$smoke_dir/serve.log" || { echo "qwm_serve: no clean shutdown"; exit 1; }
echo "service smoke passed"

echo "== service smoke (generated design: qwm_serve + qwm_load) =="
# qwm_load elaborates its --verify reference from the same gen: spec the
# server LOADs, through the gate-level frontend.
rm -f "$smoke_dir/port"
./build/tools/qwm_serve --port 0 --port-file "$smoke_dir/port" --threads 4 \
    2> "$smoke_dir/serve_gen.log" &
serve_pid=$!
for _ in $(seq 50); do [[ -s "$smoke_dir/port" ]] && break; sleep 0.1; done
[[ -s "$smoke_dir/port" ]] || { echo "qwm_serve did not write its port"; kill "$serve_pid"; exit 1; }
gen_out=$(./build/tools/qwm_load --port "$(cat "$smoke_dir/port")" \
    --deck gen:grid:100:seed=7 --clients 4 --requests 50 --verify --shutdown)
echo "$gen_out"
wait "$serve_pid" || { echo "qwm_serve exited non-zero"; exit 1; }
echo "$gen_out" | grep -q " mismatches=0$" \
    || { echo "generated-design smoke: verification mismatches"; exit 1; }
echo "generated-design smoke passed"

echo "== crash/replay smoke (kill -9 qwm_serve, restart, replay) =="
# A killed server is restored by restarting it on the same port and
# replaying LOAD plus the same mutations in order. The epoch is a pure
# count of LOAD and mutations, and the replay reproduces the memo cache's
# history, so the restarted server must answer byte-identically -- with
# the cache on (the identical chains are memo twins) and the deps
# schedule at 4 lanes.
{
  echo "ci crash/replay deck: two pairs of identical six-inverter chains"
  echo "vdd vdd 0 3.3"
  echo "vin in 0 0"
  for c in 0 1 2 3; do
    prev=in
    for k in 1 2 3 4 5 6; do
      out="c${c}_$k"
      echo "mn${c}_$k $out $prev 0 0 nmos W=$((c / 2 + 2))u L=0.35u"
      echo "mp${c}_$k $out $prev vdd vdd pmos W=$((c / 2 * 2 + 4))u L=0.35u"
      prev=$out
    done
    echo "cl$c $prev 0 $((c / 2 * 10 + 10))f"
  done
  echo ".end"
} > "$smoke_dir/replay.sp"
replay_session() {  # replay_session <port> <transcript> [--shutdown]
  python3 - "$1" "$smoke_dir/replay.sp" "$2" "${@:3}" <<'EOF'
import socket, sys
port, deck, out = int(sys.argv[1]), sys.argv[2], sys.argv[3]
nets = ["in"] + ["c%d_%d" % (c, k) for c in range(4) for k in range(1, 7)]
with socket.create_connection(("127.0.0.1", port), timeout=30) as s:
    f = s.makefile("rw")
    def ask(line):
        f.write(line + "\n"); f.flush()
        return f.readline().rstrip("\n")
    replies = [ask("LOAD " + deck)]
    for req in ["RESIZE 5 0 2.5u", "UPDATE", "RESIZE 17 1 6u", "UPDATE"]:
        replies.append(ask(req))
    replies += [ask("ARRIVAL " + n) for n in nets]
    replies.append(ask("CRITPATH"))
    if len(sys.argv) > 4:
        ask("SHUTDOWN")
open(out, "w").write("\n".join(replies) + "\n")
EOF
}
start_replay_server() {  # start_replay_server <port> <log>; sets replay_pid
  rm -f "$smoke_dir/replay.port"
  ./build/tools/qwm_serve --port "$1" --port-file "$smoke_dir/replay.port" \
      --sta-threads 4 --schedule deps 2> "$2" &
  replay_pid=$!
  for _ in $(seq 50); do [[ -s "$smoke_dir/replay.port" ]] && break; sleep 0.1; done
  [[ -s "$smoke_dir/replay.port" ]] || { echo "crash/replay smoke: qwm_serve did not come up"; exit 1; }
}
start_replay_server 0 "$smoke_dir/replay_a.log"
replay_port=$(cat "$smoke_dir/replay.port")
replay_session "$replay_port" "$smoke_dir/before.txt"
[[ -z $(grep -v '^OK' "$smoke_dir/before.txt") ]] \
    || { echo "crash/replay smoke: non-OK reply before the crash"; exit 1; }
kill -9 "$replay_pid"
wait "$replay_pid" 2>/dev/null || true
start_replay_server "$replay_port" "$smoke_dir/replay_b.log"
replay_session "$replay_port" "$smoke_dir/after.txt" --shutdown
wait "$replay_pid" || { echo "crash/replay smoke: restarted qwm_serve exited non-zero"; exit 1; }
cmp "$smoke_dir/before.txt" "$smoke_dir/after.txt" \
    || { echo "crash/replay smoke: replies differ after restart + replay"; exit 1; }
echo "crash/replay smoke passed ($(wc -l < "$smoke_dir/after.txt") replies byte-identical)"

echo "== perf smoke (work-counter budget) =="
# Counters (Newton iterations, device evaluations, workspace growth) are
# machine-deterministic, so this gate is stable on loaded CI hosts where
# wall-clock timing is not; --counters-only skips the timed medians.
./build/bench/bench_micro_kernels --json "$smoke_dir/perf.json" \
    --counters-only --budget tools/perf_budget.json
# Scheduler counters of the 10^4-stage generated design (exact structural
# pins; also re-checks levels-vs-deps bitwise equivalence end to end).
# The 1,4 thread sweep additionally checks the work-stealing scheduler's
# bit-identity across lane counts and budgets its steal/lock-wait
# counters (upper bounds: scheduling-dependent, not exact).
./build/bench/bench_scale_sta --smoke --counters-only --threads 1,4 \
    --budget tools/perf_budget.json
echo "perf smoke passed"

echo "== scale smoke (10^5-stage generated design, deps schedule) =="
# Full STA over a 10^5-stage grid through the gate-level frontend: must
# finish inside the wall-clock cap (~7 s on an idle 8-core host) and
# inside a 512 MB peak-RSS ceiling (~190 MB measured) — the guard against
# accidental per-stage memory or quadratic scheduling regressions.
scale_rss_kb=$(python3 - <<'EOF'
import resource, subprocess, sys
p = subprocess.run(["./build/tools/qwm_sim", "gen:grid:100000:seed=7",
                    "--sta", "--threads", "8", "--schedule", "deps"],
                   stdout=subprocess.DEVNULL, timeout=120)
if p.returncode != 0:
    sys.exit(p.returncode)
print(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
EOF
) || { echo "scale smoke: qwm_sim failed or exceeded the 120 s cap"; exit 1; }
[[ "$scale_rss_kb" -le $((512 * 1024)) ]] \
    || { echo "scale smoke: peak RSS ${scale_rss_kb} kB > 512 MB cap"; exit 1; }
echo "scale smoke passed (peak RSS ${scale_rss_kb} kB)"

if [[ "$skip_asan" == 1 ]]; then
  echo "== tier1 + fuzz under ASan/UBSan: SKIPPED (--skip-asan) =="
else
  echo "== configure + build (asan) =="
  cmake --preset asan >/dev/null
  cmake --build --preset asan -j"$(nproc)"

  echo "== tier1 tests (ASan + UBSan) =="
  ctest --preset asan-tier1

  echo "== differential fuzz sweep (2000 samples, pinned seed, ASan) =="
  # The seed is pinned so the sweep is reproducible; a failing sample
  # writes its reproducer under tests/data/repro/ (see README).
  QWM_FUZZ_SAMPLES=2000 QWM_FUZZ_SEED=20260806 \
    ASAN_OPTIONS="halt_on_error=1 detect_leaks=0" \
    UBSAN_OPTIONS="halt_on_error=1 print_stacktrace=1" \
    ./build-asan/tests/test_fuzz
  echo "fuzz sweep passed"
fi

if [[ "$skip_tsan" == 1 ]]; then
  echo "== tier1 under TSan: SKIPPED (--skip-tsan) =="
  exit 0
fi

echo "== configure + build (tsan) =="
cmake --preset tsan >/dev/null
cmake --build --preset tsan -j"$(nproc)"

echo "== tier1 tests (ThreadSanitizer) =="
ctest --preset tsan-tier1

echo "CI gate passed: tier1 clean, plain and under sanitizers."
