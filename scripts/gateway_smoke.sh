#!/usr/bin/env bash
# End-to-end smoke for the HTTP gateway (the CI gateway job):
#
#   launch the daemon (1 replica, online fault mix, snapshot log)
#     -> launch selfheal-gateway on an ephemeral port with three tokens
#        (wildcard admin, scout operator, victim reader)
#     -> missing/unknown token must be 401, wrong tenant/scope must be 403
#        (and the denial must land in the audit log)
#     -> create tenants scout+victim (pooled) and loner (unpooled) over HTTP
#     -> grow the scout's fleet, wait for it to learn a fix
#     -> the victim's fix query must see the pool, the loner's must not
#     -> stream two tenant-tagged metrics lines from the chunked feed
#     -> kill -9 the daemon: the gateway must answer 502, not die
#     -> relaunch: both learning tenants' synopses restore from their own
#        logs, visible over HTTP
#     -> POST /v1/shutdown stops the daemon within a bounded wait
#
# Exits 1 on any failed step.  Binaries default to target/release; override
# with DAEMON= / GATEWAY= / HTTP=.
set -u

DAEMON="${DAEMON:-target/release/selfheal-daemon}"
GATEWAY="${GATEWAY:-target/release/selfheal-gateway}"
HTTP="${HTTP:-target/release/selfheal-http}"
DIR="$(mktemp -d)"
SOCKET="$DIR/control.sock"
STORE="$DIR/synopsis.jsonl"
AUDIT="$DIR/audit.log"
READ_MS="$DIR/read_ms"
DAEMON_PID=""
GATEWAY_PID=""

fail() {
    echo "gateway_smoke: FAIL: $*" >&2
    [ -n "$DAEMON_PID" ] && kill -9 "$DAEMON_PID" 2>/dev/null
    [ -n "$GATEWAY_PID" ] && kill -9 "$GATEWAY_PID" 2>/dev/null
    rm -rf "$DIR"
    exit 1
}

# Runs the client; a successful plain GET is a latency sample for the gate
# at the end of the script.
http() {
    local started status
    started=$(date +%s%N)
    "$HTTP" --timeout-secs 20 "$@"
    status=$?
    if [ "$status" -eq 0 ] && [[ " $* " == *" GET "* && " $* " != *" --stream "* ]]; then
        echo $(( ($(date +%s%N) - started) / 1000000 )) >> "$READ_MS"
    fi
    return "$status"
}

# Asserts that a request is denied with the given status (the client exits
# nonzero and names the status on stderr).
denied() {
    local status="$1"
    shift
    local err
    if err=$(http "$@" 2>&1 >/dev/null); then
        fail "expected status $status, got success: $*"
    fi
    printf '%s\n' "$err" | grep -q "status $status" \
        || fail "expected status $status for: $* (got: $err)"
}

launch_daemon() {
    "$DAEMON" --socket "$SOCKET" --store "$STORE" --replicas 1 \
        --fault-mix online:0.02 &
    DAEMON_PID=$!
}

[ -x "$DAEMON" ] || fail "$DAEMON is not built (cargo build --release)"
[ -x "$GATEWAY" ] || fail "$GATEWAY is not built (cargo build --release)"
[ -x "$HTTP" ] || fail "$HTTP is not built (cargo build --release)"

cat > "$DIR/tokens.toml" <<'EOF'
# The three personas the gateway tests use everywhere: a wildcard admin,
# an operator bound to one tenant, a reader bound to another.
[[token]]
name = "ops"
secret = "swordfish"
tenant = "*"
scope = "admin"

[[token]]
name = "scout-op"
secret = "hunter2"
tenant = "scout"
scope = "operate"

[[token]]
name = "victim-ro"
secret = "letmein"
tenant = "victim"
scope = "read"
EOF

launch_daemon
"$GATEWAY" --listen 127.0.0.1:0 --socket "$SOCKET" --tokens "$DIR/tokens.toml" \
    --audit "$AUDIT" --stream-millis 50 > "$DIR/gateway.out" 2>&1 &
GATEWAY_PID=$!
ADDR=""
for _ in $(seq 1 100); do
    ADDR="$(sed -n 's#^listening on http://##p' "$DIR/gateway.out")"
    [ -n "$ADDR" ] && break
    kill -0 "$GATEWAY_PID" 2>/dev/null || fail "gateway exited at launch: $(cat "$DIR/gateway.out")"
    sleep 0.1
done
[ -n "$ADDR" ] || fail "gateway never printed its address"
BASE="http://$ADDR"

# Wait for the daemon behind the gateway, through the gateway.
UP=""
for _ in $(seq 1 100); do
    if http --token swordfish GET "$BASE/v1/tenants" >/dev/null 2>&1; then
        UP=1
        break
    fi
    sleep 0.1
done
[ -n "$UP" ] || fail "daemon never answered through the gateway"

# Auth: routing leaks nothing (404), then 401 before 403.
denied 404 --token swordfish GET "$BASE/nope"
denied 401 GET "$BASE/v1/tenants"
denied 401 --token wrong GET "$BASE/v1/tenants"
denied 403 --token hunter2 GET "$BASE/v1/tenants"          # tenant-bound on a daemon-wide route
denied 403 --token letmein --body '{"name":"x"}' POST "$BASE/v1/tenants"  # read scope cannot mutate

# Tenant lifecycle over HTTP: two pooled tenants and one loner.
http --token swordfish --body '{"name":"scout","shared_pool":true}' \
    POST "$BASE/v1/tenants" >/dev/null || fail "create scout rejected"
http --token swordfish --body '{"name":"victim","shared_pool":true}' \
    POST "$BASE/v1/tenants" >/dev/null || fail "create victim rejected"
http --token swordfish --body '{"name":"loner"}' \
    POST "$BASE/v1/tenants" >/dev/null || fail "create loner rejected"
http --token swordfish GET "$BASE/v1/tenants" | grep -q 'tenant=scout shared_pool=on' \
    || fail "tenant list does not show the pooled scout"

# The scout operator grows its own fleet — and only its own.  The replicas
# run the launch mix (online:0.02): a cold store cannot out-heal a much
# hotter fault rate, it would thrash mid-trial forever.
http --token hunter2 --body '{"profile":"default"}' \
    POST "$BASE/v1/tenants/scout/replicas" >/dev/null || fail "scout ADD rejected"
http --token hunter2 --body '{"profile":"default"}' \
    POST "$BASE/v1/tenants/scout/replicas" >/dev/null || fail "second scout ADD rejected"
denied 403 --token hunter2 GET "$BASE/v1/tenants/victim/status"

# Learn in the scout.
LEARNED=""
for _ in $(seq 1 600); do
    STATUS="$(http --token hunter2 GET "$BASE/v1/tenants/scout/status" 2>/dev/null)" || STATUS=""
    if printf '%s\n' "$STATUS" | grep -q 'fixes_known=[1-9]'; then
        LEARNED=1
        break
    fi
    sleep 0.1
done
[ -n "$LEARNED" ] || fail "the scout never learned a fix; last status: $STATUS"

# Cross-tenant transfer: the pooled victim sees the scout's experience,
# the unpooled loner does not.
http --token letmein GET "$BASE/v1/tenants/victim/fixes" | grep -q 'pool fix=' \
    || fail "the pooled victim sees no pool experience"
http --token swordfish GET "$BASE/v1/tenants/loner/fixes" | grep -q 'pool fix=' \
    && fail "the unpooled loner saw pool experience"

# The chunked metrics stream emits tenant-tagged JSON lines.
STREAM="$(http --token hunter2 --stream 2 GET "$BASE/v1/tenants/scout/metrics/stream")" \
    || fail "metrics stream failed"
COUNT="$(printf '%s\n' "$STREAM" | grep -c '"tenant":"scout"')"
[ "$COUNT" -eq 2 ] || fail "expected 2 tenant-tagged stream lines, got $COUNT: $STREAM"

# The audit log names the granted and denied mutations, never a secret.
grep -q 'token=ops .*path=/v1/tenants status=200' "$AUDIT" || fail "audit log misses the grants"
grep -q 'token=victim-ro .*status=403' "$AUDIT" || fail "audit log misses the denial"
grep -q 'swordfish\|hunter2\|letmein' "$AUDIT" && fail "audit log leaked a secret"

# kill -9 the daemon: the gateway survives and reports 502.
kill -9 "$DAEMON_PID" || fail "kill -9 failed"
wait "$DAEMON_PID" 2>/dev/null
DAEMON_PID=""
GONE=""
for _ in $(seq 1 100); do
    ERR=$(http --token swordfish GET "$BASE/v1/tenants" 2>&1 >/dev/null) || true
    if printf '%s\n' "$ERR" | grep -q 'status 502'; then
        GONE=1
        break
    fi
    sleep 0.1
done
[ -n "$GONE" ] || fail "gateway never reported 502 after the daemon died"

# Relaunch: the manifest recreates the tenants and each learning tenant's
# own snapshot log restores its synopsis — all visible over HTTP.
launch_daemon
RESTORED=""
for _ in $(seq 1 100); do
    LIST="$(http --token swordfish GET "$BASE/v1/tenants" 2>/dev/null)" || LIST=""
    if printf '%s\n' "$LIST" | grep -q 'tenant=scout' ; then
        RESTORED=1
        break
    fi
    sleep 0.1
done
[ -n "$RESTORED" ] || fail "relaunched daemon never answered through the gateway"
printf '%s\n' "$LIST" | grep -q 'tenant=scout shared_pool=on .*restored_examples=[1-9]' \
    || fail "the scout's synopsis did not restore: $LIST"
printf '%s\n' "$LIST" | grep -q 'tenant=default .*restored_examples=[1-9]' \
    || fail "the default tenant's synopsis did not restore: $LIST"

# Clean shutdown through the admin route, bounded.
denied 403 --token hunter2 POST "$BASE/v1/shutdown"
http --token swordfish POST "$BASE/v1/shutdown" >/dev/null || fail "shutdown rejected"
for _ in $(seq 1 100); do
    kill -0 "$DAEMON_PID" 2>/dev/null || { DAEMON_PID=""; break; }
    sleep 0.1
done
[ -z "$DAEMON_PID" ] || fail "daemon still alive after POST /v1/shutdown"

kill "$GATEWAY_PID" 2>/dev/null
wait "$GATEWAY_PID" 2>/dev/null
GATEWAY_PID=""

# Read latency: a command waits for the daemon's next epoch barrier (a few
# ms) and its reply leaves the gateway as one segment on a no-delay socket.
MEDIAN_MS="$(sort -n "$READ_MS" | awk '{ v[NR] = $1 } END { print v[int((NR + 1) / 2)] }')"
[ -n "$MEDIAN_MS" ] && [ "$MEDIAN_MS" -le 25 ] \
    || fail "median read took ${MEDIAN_MS:-?} ms over $(wc -l < "$READ_MS") requests (limit 25 ms): replies are being delayed"
rm -rf "$DIR"
echo "gateway_smoke: OK (median read ${MEDIAN_MS} ms)"
