#!/usr/bin/env sh
# grid_run.sh — end-to-end smoke of the grid service: pred-grid-server +
# its spawned `pred-shard-worker attach -` workers + pred-grid-client,
# under fault injection.
#
# What it proves (the CI grid-smoke job and the grid_subprocess_smoke
# ctest):
#   1. a job submitted through the daemon, split -k ways across the
#      worker subprocesses and merged, comes back BYTE-FOR-BYTE
#      identical to the single-process `pred-shard-worker single` run —
#      while the first worker to receive a shard is SIGKILLed holding it
#      (--fault-plan worker.exit:error, so the death happens at every
#      shard count) and the shard is retried and the slot respawned
#      (grid.worker.deaths and grid.shards.retried both advance);
#   2. a second, uncached submission survives a `kill -9` of a live
#      worker process and is still byte-identical;
#   3. a third submission is served from the content-addressed result
#      cache (cache-hit 1; grid.cache.hits >= 1 in server stats) with
#      identical bytes;
#   4. after a `kill -9` of the SERVER itself, a restart with the same
#      --cache-dir serves the job from the recovered journal — still a
#      cache hit, still identical bytes;
#   5. a second daemon whose --worker-cmd announces another build's salt
#      refuses every spawned worker at the hello: the submit fails, the
#      daemon stays up, grid.worker.rejected_salt advances, and nothing
#      is computed or cached.
#
# Attach mode (the CI grid-smoke attach leg and the grid_attach_smoke
# ctest):
#
#   scripts/grid_run.sh --attach [build-dir]
#
# runs the server ATTACH-ONLY (--workers 0 --worker-listen): two remote
# `pred-shard-worker attach` processes dial in over the worker endpoint,
# one is kill -9'd mid-run, and the job must still complete
# byte-identically on the survivor; a resubmission must hit the cache,
# and shutdown must leave the surviving worker exiting cleanly.
#
# Chaos mode (the CI chaos-smoke job and the grid_chaos_smoke ctest):
#
#   scripts/grid_run.sh --chaos SEED [build-dir]
#
# derives a deterministic schedule of fault plans (grid/faultpoint.h
# grammar) from SEED with an LCG, restarts the server under each plan
# with one attached worker riding along (so worker.attach/worker.frame
# plans have a socket channel to fire on), and tolerates injected submit
# failures — but any SUCCESSFUL submit whose bytes differ from the
# single-process reference FAILS LOUDLY, naming the seed and the armed
# fault point.  Every round must end with the daemon alive and a correct
# result.
#
# Usage:  scripts/grid_run.sh [--attach] [--chaos SEED]
#                             [-k shards] [-p platform] [-w workload]
#                             [-s states] [-n workers] [build-dir]
# Defaults: 8-way shards of the inorder-lru 64 x 64 grid on 4 workers,
# build-dir=build.
set -eu

cd "$(dirname "$0")/.."

SHARDS=8
PLATFORM=inorder-lru
WORKLOAD=linearsearch-16x64-dup
STATES=64
WORKERS=4
BUILD_DIR=build
CHAOS_SEED=
ATTACH=0
while [ "$#" -gt 0 ]; do
  case "$1" in
    --attach) ATTACH=1 ;;
    --chaos) CHAOS_SEED="$2"; shift ;;
    -k) SHARDS="$2"; shift ;;
    -p) PLATFORM="$2"; shift ;;
    -w) WORKLOAD="$2"; shift ;;
    -s) STATES="$2"; shift ;;
    -n) WORKERS="$2"; shift ;;
    -*) echo "error: unknown flag $1" >&2; exit 2 ;;
    *) BUILD_DIR="$1" ;;
  esac
  shift
done

SERVER="$BUILD_DIR/pred-grid-server"
CLIENT="$BUILD_DIR/pred-grid-client"
WORKER="$BUILD_DIR/pred-shard-worker"
for bin in "$SERVER" "$CLIENT" "$WORKER"; do
  if [ ! -x "$bin" ]; then
    echo "error: $bin not built (cmake --build $BUILD_DIR)" >&2
    exit 2
  fi
done

TMP="$(mktemp -d)"
SERVER_PID=
STALE_PID=
ATTACH_PIDS=
cleanup() {
  for p in $ATTACH_PIDS; do kill -9 "$p" 2>/dev/null || true; done
  [ -n "$SERVER_PID" ] && kill -9 "$SERVER_PID" 2>/dev/null || true
  [ -n "$STALE_PID" ] && kill -9 "$STALE_PID" 2>/dev/null || true
  rm -rf "$TMP"
}
trap cleanup EXIT

SOCK="$TMP/grid.sock"
WSOCK="$TMP/workers.sock"
CACHE_DIR="$TMP/cache"

# wait_socket PATH PID ERRFILE — waits for daemon PID to create PATH.
wait_socket() {
  i=0
  while [ ! -S "$1" ]; do
    i=$((i + 1))
    if [ "$i" -gt 100 ] || ! kill -0 "$2" 2>/dev/null; then
      echo "error: server did not come up" >&2
      cat "$3" >&2
      exit 1
    fi
    sleep 0.1
  done
}

# start_server [extra server flags...] — spawns the daemon on $SOCK with
# the shared cache dir and waits for the socket.
start_server() {
  "$SERVER" --listen "unix:$SOCK" --workers "$WORKERS" \
      --worker-cmd "$WORKER" --cache-dir "$CACHE_DIR" "$@" \
      > "$TMP/server.out" 2> "$TMP/server.err" &
  SERVER_PID=$!
  wait_socket "$SOCK" "$SERVER_PID" "$TMP/server.err"
}

stop_server_hard() {
  [ -n "$SERVER_PID" ] || return 0
  kill -9 "$SERVER_PID" 2>/dev/null || true
  wait "$SERVER_PID" 2>/dev/null || true
  SERVER_PID=
  rm -f "$SOCK"
}

echo "== reference: single-process reduceCells" >&2
"$WORKER" single --platform "$PLATFORM" --workload "$WORKLOAD" \
    --states "$STATES" > "$TMP/single.txt"

# --------------------------------------------------------------- attach mode
if [ "$ATTACH" -eq 1 ]; then
  echo "== start: attach-only grid server (zero fixed worker slots)" >&2
  start_server --workers 0 --worker-listen "unix:$WSOCK"
  i=0
  while [ ! -S "$WSOCK" ]; do
    i=$((i + 1))
    [ "$i" -gt 100 ] && { echo "error: worker endpoint missing" >&2; exit 1; }
    sleep 0.1
  done

  echo "== attach: two remote workers dial the worker endpoint" >&2
  # Worker 1 is armed to die ABRUPTLY (no protocol goodbye) on receiving
  # its first assignment — a deterministic mid-shard death holding a live
  # lease; the kill -9 below is the backstop for the unlikely schedule
  # where it never received one.
  "$WORKER" attach "unix:$WSOCK" --exit-after 0 \
      > "$TMP/w1.out" 2> "$TMP/w1.err" &
  W1_PID=$!
  "$WORKER" attach "unix:$WSOCK" > "$TMP/w2.out" 2> "$TMP/w2.err" &
  W2_PID=$!
  ATTACH_PIDS="$W1_PID $W2_PID"

  echo "== job 1: $SHARDS shards, attached worker 1 dies mid-shard" >&2
  ( sleep 0.5; kill -9 "$W1_PID" 2>/dev/null || true ) &
  KILLER_PID=$!
  "$CLIENT" submit --connect "unix:$SOCK" --platform "$PLATFORM" \
      --workload "$WORKLOAD" --states "$STATES" --shards "$SHARDS" \
      --timeout 300 > "$TMP/attach1.txt" 2> "$TMP/attach1.meta"
  wait "$KILLER_PID" || true
  if ! cmp "$TMP/attach1.txt" "$TMP/single.txt"; then
    echo "FAIL: attached-worker result differs from the single-process run" >&2
    exit 1
  fi
  echo "OK: result byte-identical with an attached worker dead mid-shard" >&2

  echo "== job 2: cache hit on resubmission" >&2
  "$CLIENT" submit --connect "unix:$SOCK" --platform "$PLATFORM" \
      --workload "$WORKLOAD" --states "$STATES" --shards "$SHARDS" \
      --timeout 60 > "$TMP/attach2.txt" 2> "$TMP/attach2.meta"
  if ! grep -q '^cache-hit 1$' "$TMP/attach2.meta"; then
    echo "FAIL: resubmission was not served from the result cache" >&2
    cat "$TMP/attach2.meta" >&2
    exit 1
  fi
  if ! cmp "$TMP/attach2.txt" "$TMP/single.txt"; then
    echo "FAIL: cached result differs from the single-process run" >&2
    exit 1
  fi

  echo "== server stats" >&2
  "$CLIENT" stats --connect "unix:$SOCK" > "$TMP/stats.txt"
  cat "$TMP/stats.txt" >&2
  if ! grep -Eq 'grid\.worker\.attached *\| *2' "$TMP/stats.txt"; then
    echo "FAIL: grid.worker.attached did not reach 2" >&2
    exit 1
  fi
  if ! grep -Eq 'grid\.worker\.deaths *\| *[1-9]' "$TMP/stats.txt"; then
    echo "FAIL: grid.worker.deaths counter did not advance" >&2
    exit 1
  fi
  if ! grep -Eq 'grid\.shards\.retried *\| *[1-9]' "$TMP/stats.txt"; then
    echo "FAIL: the orphaned lease was never requeued (grid.shards.retried)" >&2
    exit 1
  fi

  echo "== shutdown: the surviving worker must exit cleanly" >&2
  "$CLIENT" shutdown --connect "unix:$SOCK" --timeout 60
  wait "$SERVER_PID"
  SERVER_PID=
  if ! wait "$W2_PID"; then
    echo "FAIL: surviving attach worker exited non-zero" >&2
    cat "$TMP/w2.err" >&2
    exit 1
  fi
  ATTACH_PIDS=
  echo "OK: grid attach smoke passed" >&2
  cat "$TMP/attach1.txt"
  exit 0
fi

# ---------------------------------------------------------------- chaos mode
if [ -n "$CHAOS_SEED" ]; then
  LCG="$CHAOS_SEED"
  next_lcg() {
    LCG=$(( (LCG * 1103515245 + 12345) % 2147483648 ))
  }
  ROUNDS=8
  r=0
  while [ "$r" -lt "$ROUNDS" ]; do
    r=$((r + 1))
    # High bits, not low: this LCG's low bits have tiny periods (mod 8
    # cycles through only four values), which would starve half the fault
    # points on every seed.
    next_lcg; IDX=$(( (LCG / 65536) % 8 ))
    next_lcg; AFTER=$(( (LCG / 65536) % 4 ))
    case "$IDX" in
      0) PLAN="net.write:after=$AFTER:epipe" ;;
      1) PLAN="net.read:after=$AFTER:error" ;;
      2) PLAN="proto.decode:after=$AFTER:error" ;;
      3) PLAN="cache.journal:torn" ;;
      4) PLAN="cache.store:error" ;;
      5) PLAN="sched.dispatch:after=$AFTER:error" ;;
      6) PLAN="worker.attach:error" ;;
      7) PLAN="worker.frame:after=$AFTER:error" ;;
    esac
    POINT="${PLAN%%:*}"
    echo "== chaos round $r/$ROUNDS (seed $CHAOS_SEED): --fault-plan '$PLAN'" >&2
    start_server --fault-plan "$PLAN" --conn-timeout-ms 10000
    # One attached worker rides along every round, so the worker.attach
    # plans have a dial-in to fire on (worker.frame fires on it and on the
    # spawned slots alike).  Its own death, rejection, or clean EOF at
    # round teardown are all tolerated — the spawned slots carry the job
    # either way.
    "$WORKER" attach "unix:$SOCK" > /dev/null 2> "$TMP/chaos-attach.err" &
    ATTACH_PIDS=$!

    # The armed fault may kill this submit (server drops the connection,
    # injected scheduler/cache errors, ...) — exit 1 and 3 are tolerated.
    # What is NEVER tolerated: a submit that claims success with bytes
    # that differ from the single-process reference.
    ok=0
    attempt=0
    while [ "$attempt" -lt 5 ]; do
      attempt=$((attempt + 1))
      rc=0
      "$CLIENT" submit --connect "unix:$SOCK" --platform "$PLATFORM" \
          --workload "$WORKLOAD" --states "$STATES" --shards "$SHARDS" \
          --timeout 60 > "$TMP/chaos.txt" 2> "$TMP/chaos.meta" || rc=$?
      if [ "$rc" -eq 0 ]; then
        if ! cmp -s "$TMP/chaos.txt" "$TMP/single.txt"; then
          echo "FAIL: chaos seed $CHAOS_SEED round $r: fault point" \
               "'$POINT' (plan '$PLAN') yielded NON-IDENTICAL bytes" >&2
          exit 1
        fi
        ok=1
        break
      elif [ "$rc" -ne 1 ] && [ "$rc" -ne 3 ]; then
        echo "FAIL: chaos seed $CHAOS_SEED round $r: client exited $rc" \
             "(plan '$PLAN'); expected 0, 1, or 3" >&2
        exit 1
      fi
      if ! kill -0 "$SERVER_PID" 2>/dev/null; then
        echo "FAIL: chaos seed $CHAOS_SEED round $r: the DAEMON died under" \
             "fault point '$POINT' (plan '$PLAN')" >&2
        cat "$TMP/server.err" >&2
        exit 1
      fi
    done
    if [ "$ok" -ne 1 ]; then
      echo "FAIL: chaos seed $CHAOS_SEED round $r: no successful submit in" \
           "$attempt attempts under plan '$PLAN'" >&2
      exit 1
    fi
    if ! kill -0 "$SERVER_PID" 2>/dev/null; then
      echo "FAIL: chaos seed $CHAOS_SEED round $r: the DAEMON died under" \
           "fault point '$POINT' (plan '$PLAN')" >&2
      cat "$TMP/server.err" >&2
      exit 1
    fi
    echo "OK: round $r survived '$PLAN' (attempt $attempt identical)" >&2
    stop_server_hard
    for p in $ATTACH_PIDS; do
      kill -9 "$p" 2>/dev/null || true
      wait "$p" 2>/dev/null || true
    done
    ATTACH_PIDS=
  done

  # Epilogue: a clean server over whatever journal the chaos left behind
  # must recover (possibly to a cache hit) and serve identical bytes —
  # twice, so the second submit proves the cache is consistent too.
  echo "== chaos epilogue: clean restart over the surviving journal" >&2
  start_server --conn-timeout-ms 10000
  "$CLIENT" submit --connect "unix:$SOCK" --platform "$PLATFORM" \
      --workload "$WORKLOAD" --states "$STATES" --shards "$SHARDS" \
      --timeout 120 > "$TMP/final1.txt" 2> "$TMP/final1.meta"
  if ! cmp -s "$TMP/final1.txt" "$TMP/single.txt"; then
    echo "FAIL: chaos seed $CHAOS_SEED: post-chaos recovery yielded" \
         "NON-IDENTICAL bytes" >&2
    exit 1
  fi
  "$CLIENT" submit --connect "unix:$SOCK" --platform "$PLATFORM" \
      --workload "$WORKLOAD" --states "$STATES" --shards "$SHARDS" \
      --timeout 120 > "$TMP/final2.txt" 2> "$TMP/final2.meta"
  if ! grep -q '^cache-hit 1$' "$TMP/final2.meta"; then
    echo "FAIL: chaos seed $CHAOS_SEED: post-chaos repeat submission was" \
         "not a cache hit" >&2
    cat "$TMP/final2.meta" >&2
    exit 1
  fi
  if ! cmp -s "$TMP/final2.txt" "$TMP/single.txt"; then
    echo "FAIL: chaos seed $CHAOS_SEED: post-chaos cache hit yielded" \
         "NON-IDENTICAL bytes" >&2
    exit 1
  fi
  "$CLIENT" shutdown --connect "unix:$SOCK" --timeout 60
  wait "$SERVER_PID"
  SERVER_PID=
  echo "OK: grid chaos smoke passed (seed $CHAOS_SEED, $ROUNDS rounds)" >&2
  exit 0
fi

# -------------------------------------------------------------- default mode
echo "== start: $WORKERS-worker grid server (worker.exit armed: the first worker to get a shard dies)" >&2
start_server --fault-plan worker.exit:error

echo "== job 1: $SHARDS shards, deterministic worker death mid-run" >&2
"$CLIENT" submit --connect "unix:$SOCK" --platform "$PLATFORM" \
    --workload "$WORKLOAD" --states "$STATES" --shards "$SHARDS" \
    > "$TMP/job1.txt" 2> "$TMP/job1.meta"
if ! cmp "$TMP/job1.txt" "$TMP/single.txt"; then
  echo "FAIL: distributed result differs from the single-process run" >&2
  exit 1
fi
echo "OK: distributed result is byte-identical under deterministic worker death" >&2

echo "== job 2: uncached rerun with a kill -9'd worker" >&2
# A background killer nukes the first live `attach -` worker it sees — the
# scheduler must detect the death (EOF/EPIPE), requeue the orphaned shard,
# respawn the slot, and still produce identical bytes.
(
  j=0
  while [ "$j" -lt 250 ]; do
    WPID="$(pgrep -P "$SERVER_PID" -f attach 2>/dev/null | head -n1 || true)"
    if [ -n "$WPID" ]; then
      kill -9 "$WPID" 2>/dev/null || true
      echo "killed worker pid $WPID" >&2
      exit 0
    fi
    j=$((j + 1))
    sleep 0.02
  done
) &
KILLER_PID=$!
"$CLIENT" submit --connect "unix:$SOCK" --platform "$PLATFORM" \
    --workload "$WORKLOAD" --states "$STATES" --shards "$SHARDS" \
    --no-cache > "$TMP/job2.txt" 2> "$TMP/job2.meta"
wait "$KILLER_PID" || true
if ! cmp "$TMP/job2.txt" "$TMP/single.txt"; then
  echo "FAIL: result differs after kill -9 fault injection" >&2
  exit 1
fi
echo "OK: distributed result is byte-identical under kill -9" >&2

echo "== job 3: cache hit" >&2
"$CLIENT" submit --connect "unix:$SOCK" --platform "$PLATFORM" \
    --workload "$WORKLOAD" --states "$STATES" --shards "$SHARDS" \
    > "$TMP/job3.txt" 2> "$TMP/job3.meta"
if ! grep -q '^cache-hit 1$' "$TMP/job3.meta"; then
  echo "FAIL: third submission was not served from the result cache" >&2
  cat "$TMP/job3.meta" >&2
  exit 1
fi
if ! cmp "$TMP/job3.txt" "$TMP/single.txt"; then
  echo "FAIL: cached result differs from the single-process run" >&2
  exit 1
fi
echo "OK: repeat submission served from the result cache, bytes identical" >&2

echo "== server stats" >&2
"$CLIENT" stats --connect "unix:$SOCK" > "$TMP/stats.txt"
cat "$TMP/stats.txt" >&2
if ! grep -Eq 'grid\.cache\.hits *\| *[1-9]' "$TMP/stats.txt"; then
  echo "FAIL: grid.cache.hits counter did not advance" >&2
  exit 1
fi
if ! grep -Eq 'grid\.worker\.deaths *\| *[1-9]' "$TMP/stats.txt"; then
  echo "FAIL: grid.worker.deaths counter did not advance" >&2
  exit 1
fi
if ! grep -Eq 'grid\.shards\.retried *\| *[1-9]' "$TMP/stats.txt"; then
  echo "FAIL: the killed worker's lease was never requeued (grid.shards.retried)" >&2
  exit 1
fi

echo "== job 4: kill -9 the SERVER, restart on the same --cache-dir" >&2
# The crash-safety claim, end to end: no orderly shutdown, no fsync
# ceremony — the journal alone must bring the cache back, and the
# restarted daemon must answer from it byte-identically, as a HIT.
stop_server_hard
start_server
"$CLIENT" submit --connect "unix:$SOCK" --platform "$PLATFORM" \
    --workload "$WORKLOAD" --states "$STATES" --shards "$SHARDS" \
    > "$TMP/job4.txt" 2> "$TMP/job4.meta"
if ! grep -q '^cache-hit 1$' "$TMP/job4.meta"; then
  echo "FAIL: post-restart submission was not served from the recovered cache" >&2
  cat "$TMP/job4.meta" >&2
  exit 1
fi
if ! cmp "$TMP/job4.txt" "$TMP/single.txt"; then
  echo "FAIL: recovered cache served NON-IDENTICAL bytes after server kill -9" >&2
  exit 1
fi
echo "OK: kill -9'd server restarted on its journal; cache hit, bytes identical" >&2

"$CLIENT" shutdown --connect "unix:$SOCK"
wait "$SERVER_PID"
SERVER_PID=

echo "== stale worker: a --worker-cmd from another build is refused at the hello" >&2
# Every spawned child announces a foreign code-version salt; none may ever
# evaluate a shard, and the daemon must survive refusing them all.
STALE_SOCK="$TMP/stale.sock"
printf '#!/bin/sh\nexec "%s" "$@" --salt stale-build\n' "$WORKER" \
    > "$TMP/stale-worker.sh"
chmod +x "$TMP/stale-worker.sh"
"$SERVER" --listen "unix:$STALE_SOCK" --workers 1 --max-attempts 1 \
    --worker-cmd "$TMP/stale-worker.sh" \
    > "$TMP/stale.out" 2> "$TMP/stale.err" &
STALE_PID=$!
wait_socket "$STALE_SOCK" "$STALE_PID" "$TMP/stale.err"
rc=0
"$CLIENT" submit --connect "unix:$STALE_SOCK" --platform "$PLATFORM" \
    --workload "$WORKLOAD" --states "$STATES" --shards "$SHARDS" \
    --timeout 60 > "$TMP/stale.txt" 2> "$TMP/stale.meta" || rc=$?
if [ "$rc" -ne 1 ] && [ "$rc" -ne 3 ]; then
  echo "FAIL: a submit to stale-salt workers exited $rc; expected 1 or 3" >&2
  cat "$TMP/stale.meta" >&2
  exit 1
fi
if ! kill -0 "$STALE_PID" 2>/dev/null; then
  echo "FAIL: the daemon died refusing stale-salt workers" >&2
  cat "$TMP/stale.err" >&2
  exit 1
fi
"$CLIENT" stats --connect "unix:$STALE_SOCK" > "$TMP/stale-stats.txt"
cat "$TMP/stale-stats.txt" >&2
if ! grep -Eq 'grid\.worker\.rejected_salt *\| *[1-9]' "$TMP/stale-stats.txt"; then
  echo "FAIL: grid.worker.rejected_salt did not advance for stale children" >&2
  exit 1
fi
if ! grep -Eq 'grid\.jobs *\| *0 *\|' "$TMP/stale-stats.txt" ||
   ! grep -Eq 'grid\.cache\.hits *\| *0 *\|' "$TMP/stale-stats.txt"; then
  echo "FAIL: a stale-salt worker computed or cached a result" >&2
  exit 1
fi
"$CLIENT" shutdown --connect "unix:$STALE_SOCK"
wait "$STALE_PID"
STALE_PID=
echo "OK: stale-salt workers refused, daemon alive, nothing computed" >&2

echo "OK: grid service smoke passed" >&2
cat "$TMP/job1.txt"
