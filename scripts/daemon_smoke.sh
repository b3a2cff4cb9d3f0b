#!/usr/bin/env bash
# End-to-end smoke for the resident fleet daemon (the CI daemon job):
#
#   launch (2 replicas, online fault mix, incremental snapshot log)
#     -> wait for the shared store to learn a fix
#     -> ADD / REPLICAS / QUERY FIXES / SNAPSHOT over selfheal-ctl
#     -> RECONFIGURE adversary=on, STATUS must show a strike target
#     -> SNAPSHOT onto the live log itself must be refused
#     -> kill -9, relaunch from the same log
#     -> STATUS must show restored synopsis counts and log=adopted; the
#        pre-crash bytes must be a prefix of the live file, header untouched
#     -> kill -9, tear 7 bytes off the log's tail, relaunch
#     -> STATUS must show every whole line but the torn one restored
#     -> kill -9, grow the log past 4 MiB by repeating its example lines,
#        relaunch: STATUS must show every example restored, log=adopted, and
#        the replay read in 2+ ranges when there are 2+ cores
#     -> clean SHUTDOWN within a bounded wait
#
# Exits 1 on any failed step.  Binaries default to target/release; override
# with DAEMON= / CTL=.
set -u

DAEMON="${DAEMON:-target/release/selfheal-daemon}"
CTL="${CTL:-target/release/selfheal-ctl}"
DIR="$(mktemp -d)"
SOCKET="$DIR/control.sock"
STORE="$DIR/synopsis.jsonl"
SNAPSHOT="$DIR/fixes.jsonl"
PID=""

fail() {
    echo "daemon_smoke: FAIL: $*" >&2
    [ -n "$PID" ] && kill -9 "$PID" 2>/dev/null
    rm -rf "$DIR"
    exit 1
}

ctl() { "$CTL" --socket "$SOCKET" --timeout-secs 20 "$@"; }

launch() {
    "$DAEMON" --socket "$SOCKET" --store "$STORE" --replicas 2 \
        --fault-mix online:0.02 &
    PID=$!
    # The socket file may be stale from a previous (killed) life, so poll
    # for a served STATUS rather than for the file.
    for _ in $(seq 1 100); do
        ctl STATUS >/dev/null 2>&1 && return 0
        kill -0 "$PID" 2>/dev/null || fail "daemon exited at launch"
        sleep 0.1
    done
    fail "control socket never answered"
}

crash() {
    kill -9 "$PID" || fail "kill -9 failed"
    wait "$PID" 2>/dev/null
    PID=""
}

[ -x "$DAEMON" ] || fail "$DAEMON is not built (cargo build --release)"
[ -x "$CTL" ] || fail "$CTL is not built (cargo build --release)"

# First life: learn under the fault mix.
launch
LEARNED=""
for _ in $(seq 1 300); do
    STATUS="$(ctl STATUS 2>/dev/null)" || STATUS=""
    if printf '%s\n' "$STATUS" | grep -q 'fixes_known=[1-9]'; then
        LEARNED=1
        break
    fi
    sleep 0.1
done
[ -n "$LEARNED" ] || fail "fleet never learned a fix; last STATUS: $STATUS"

# Control plane: grow the fleet, inspect it, query the live store.
ctl ADD online:0.05 >/dev/null || fail "ADD rejected"
REPLICAS="$(ctl REPLICAS)" || fail "REPLICAS rejected"
COUNT="$(printf '%s\n' "$REPLICAS" | grep -c '^replica ')"
[ "$COUNT" -eq 3 ] || fail "expected 3 replicas, got $COUNT: $REPLICAS"
ctl QUERY FIXES | grep -q 'fix=' || fail "QUERY FIXES returned no experience"
# What an epoch costs and what the store remembers, from the outside.
for FIELD in epoch_us failures_recorded negatives_kept; do
    printf '%s\n' "$STATUS" | grep -q "$FIELD=[0-9]" || fail "STATUS lacks $FIELD=: $STATUS"
done
ctl METRICS | grep -q '"epoch_us":[0-9]' || fail "METRICS lacks epoch_us"

# Exit codes are part of the ctl contract: a daemon ERR reply exits 1 —
# distinct from transport failures, which exit 2 — so scripts like this
# one can gate on them.
ctl BOGUS >/dev/null 2>&1
[ $? -eq 1 ] || fail "ctl must exit 1 on an ERR reply (unknown command)"
ctl @ghost STATUS >/dev/null 2>&1
[ $? -eq 1 ] || fail "ctl must exit 1 on an ERR reply (unknown tenant)"
"$CTL" --socket "$DIR/absent.sock" --timeout-secs 2 STATUS >/dev/null 2>&1
[ $? -eq 2 ] || fail "ctl must exit 2 when the socket is unreachable"

# Live adversary: turn the fleet-wide weakest-replica targeter on, wait
# for STATUS to report a strike target, then stand it down.
ctl RECONFIGURE 0 adversary=on | grep -q 'adversary=on' \
    || fail "RECONFIGURE adversary=on rejected"
TARGETED=""
for _ in $(seq 1 300); do
    STATUS="$(ctl STATUS 2>/dev/null)" || STATUS=""
    if printf '%s\n' "$STATUS" | grep -q 'adversary_target=[0-9]'; then
        TARGETED=1
        break
    fi
    sleep 0.1
done
[ -n "$TARGETED" ] || fail "adversary never struck; last STATUS: $STATUS"
ctl RECONFIGURE 0 adversary=off | grep -q 'adversary=off' \
    || fail "RECONFIGURE adversary=off rejected"
ctl STATUS | grep -q 'adversary=off adversary_target=none' \
    || fail "adversary did not stand down"

# Snapshot on demand: the file must hold actual examples.
ctl SNAPSHOT "$SNAPSHOT" >/dev/null || fail "SNAPSHOT rejected"
[ -s "$SNAPSHOT" ] || fail "snapshot file is empty"
grep -q '"fix"' "$SNAPSHOT" || fail "snapshot holds no examples"

# ...but never onto the live log: its header would stop describing it.
ctl SNAPSHOT "$STORE" >/dev/null 2>&1
[ $? -eq 1 ] || fail "SNAPSHOT onto the daemon's own log must be refused"

# kill -9: only what the incremental log already drained survives.
crash
[ -s "$STORE" ] || fail "snapshot log is empty after the crash"
SIZE="$(wc -c <"$STORE")"
cp "$STORE" "$DIR/first-life.jsonl"

# Second life: the log replay restores the synopsis, and appends to the
# bytes it replayed instead of writing them again.
launch
STATUS="$(ctl STATUS)" || fail "STATUS after restart rejected"
printf '%s\n' "$STATUS" | grep -q 'restored_examples=[1-9]' \
    || fail "nothing restored after the crash: $STATUS"
printf '%s\n' "$STATUS" | grep -q 'fixes_known=[1-9]' \
    || fail "restored store knows no fixes: $STATUS"
printf '%s\n' "$STATUS" | grep -q 'replay_ms=[0-9][0-9]* replay_ranges=[0-9][0-9]* log=adopted' \
    || fail "the restart did not adopt its log: $STATUS"
cmp -s -n "$SIZE" "$DIR/first-life.jsonl" "$STORE" \
    || fail "the first life's $SIZE bytes are no longer a prefix of the log"
head -1 "$STORE" | grep -q '"incremental":true' \
    || fail "the log's header was rewritten: $(head -1 "$STORE")"

# Third life, over a torn tail: a crash mid-append costs the unfinished line
# and nothing else.
crash
WHOLE="$(($(wc -l <"$STORE") - 1))"
truncate -s -7 "$STORE"
launch
STATUS="$(ctl STATUS)" || fail "STATUS over a torn log rejected"
printf '%s\n' "$STATUS" | grep -q "restored_examples=$((WHOLE - 1)) .* log=adopted" \
    || fail "expected $((WHOLE - 1)) examples restored over the torn tail: $STATUS"

# Fourth life, over a log grown past 4 MiB: big enough to be replayed in
# ranges, one per core, which must restore exactly what one pass would.
crash
BODY="$DIR/body.jsonl"
# Whole lines only (a kill -9 can leave the last one torn), header apart.
head -n "$(wc -l <"$STORE")" "$STORE" | tail -n +2 >"$BODY"
[ -s "$BODY" ] || fail "the log holds no whole example line to repeat"
while [ "$(wc -c <"$BODY")" -le $((4 << 20)) ]; do
    cat "$BODY" "$BODY" >"$BODY.twice" && mv "$BODY.twice" "$BODY"
done
EXAMPLES="$(wc -l <"$BODY")"
{ head -n 1 "$STORE"; cat "$BODY"; } >"$STORE.grown" && mv "$STORE.grown" "$STORE"
launch
STATUS="$(ctl STATUS)" || fail "STATUS over the grown log rejected"
printf '%s\n' "$STATUS" | grep -q "restored_examples=$EXAMPLES .* log=adopted" \
    || fail "expected all $EXAMPLES examples of the grown log restored: $STATUS"
RANGES="$(printf '%s\n' "$STATUS" | sed -n 's/.*replay_ranges=\([0-9]*\).*/\1/p')"
[ -n "$RANGES" ] || fail "STATUS lacks replay_ranges=: $STATUS"
if [ "$(nproc)" -ge 2 ] && [ "$RANGES" -lt 2 ]; then
    fail "a 4 MiB log on $(nproc) cores was replayed in $RANGES range(s): $STATUS"
fi

# Clean shutdown, bounded.
ctl SHUTDOWN | grep -q 'shutting down' || fail "SHUTDOWN rejected"
for _ in $(seq 1 100); do
    kill -0 "$PID" 2>/dev/null || { PID=""; break; }
    sleep 0.1
done
[ -z "$PID" ] || fail "daemon still alive after SHUTDOWN"

rm -rf "$DIR"
echo "daemon_smoke: OK"
