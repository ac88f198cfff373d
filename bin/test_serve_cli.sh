#!/bin/sh
# End-to-end exercise of the query service through the CLI: serve over a
# Unix socket, hit every endpoint with `depsurf query`, check that a
# degraded on-disk image answers HTTP 200 (with "health":"degraded",
# never a 500), compare /v1/mismatch byte-for-byte with `depsurf report`,
# check that an object with a bad BTF type id is a 400 and a fatal CLI
# diagnostic with the same wording,
# check that unprefixed paths answer a 404 pointing at /v1, check that
# both caches serve warm hits byte-identical to the first render and
# that If-None-Match answers 304, then a 50-request load smoke with
# /v1/metrics accounting for every one; finally a TCP leg on a
# kernel-chosen port (--port 0) parsed from serve's stdout.
set -eu

CLI=$(cd "$(dirname "$1")" && pwd)/$(basename "$1")

# every query leg runs under a hard timeout so a wedged server fails the
# test instead of hanging the build forever
if command -v timeout > /dev/null 2>&1; then TO="timeout 60"; else TO=""; fi

TMP=$(mktemp -d)
SRV=""
cleanup() {
  # also runs on failure paths (set -e): kill hard, reap, then sweep —
  # a SIGKILL'd server can't linger holding the socket or the tmp dir
  if [ -n "$SRV" ]; then
    kill "$SRV" 2> /dev/null || true
    i=0
    while [ $i -lt 50 ] && kill -0 "$SRV" 2> /dev/null; do
      sleep 0.1
      i=$((i + 1))
    done
    kill -9 "$SRV" 2> /dev/null || true
    wait "$SRV" 2> /dev/null || true
  fi
  rm -rf "$TMP"
}
trap cleanup EXIT
SOCK="$TMP/ds.sock"

# serving needs a worker for the accept loop on top of one handler
if "$CLI" serve --socket "$SOCK" --jobs 1 > /dev/null 2> "$TMP/jobs.err"; then
  echo "serve accepted --jobs 1" >&2; exit 1
else
  [ $? -eq 1 ]
fi
grep -q "jobs" "$TMP/jobs.err"

# a degraded on-disk image: zero a mid-file region of a study vmlinux
"$CLI" gen-images --dir "$TMP/img" > /dev/null
IMG="$TMP/img/vmlinux-5.4-x86-generic"
size=$(wc -c < "$IMG")
mkdir "$TMP/served"
"$CLI" mutate "$IMG" "$TMP/served/vmlinux-degraded" --zero $((size / 3)):512

"$CLI" serve --socket "$SOCK" --images "$TMP/served" --cache-dir "$TMP/cache" \
  > "$TMP/serve.log" 2>&1 &
SRV=$!
i=0
while [ $i -lt 100 ]; do
  [ -S "$SOCK" ] && break
  sleep 0.1
  i=$((i + 1))
done
[ -S "$SOCK" ]

Q() { $TO "$CLI" query --socket "$SOCK" "$@"; }
# the first integer member KEY of a one-line JSON body
json_int() { grep -o "\"$1\":[0-9]*" "$2" | head -n 1 | sed 's/.*://'; }

# every endpoint answers
Q /v1/healthz | grep -q '"status":"ok"'
Q /v1/images > "$TMP/images.json"
grep -q '"5.4-x86-generic"' "$TMP/images.json"
grep -q '"vmlinux-degraded"' "$TMP/images.json"
Q /v1/surface/5.4-x86-generic | grep -q '"health":"clean"'
Q "/v1/surface/4.4-x86-generic?kind=func&name=vfs_fsync" | grep -q '"vfs_fsync"'
Q /v1/diff/4.4-x86-generic/5.4-x86-generic | grep -q '"across_versions"'

# the degraded image is HTTP 200 (query exits 0) with its health visible
Q /v1/surface/vmlinux-degraded > "$TMP/degraded.json"
grep -q '"health":"degraded"' "$TMP/degraded.json"
grep -q '"diagnostics"' "$TMP/degraded.json"

# errors are still errors: unknown image -> 404 -> exit 1
if Q /v1/surface/9.9-x86-generic > /dev/null 2>&1; then
  echo "unknown image did not fail" >&2; exit 1
else
  [ $? -eq 1 ]
fi

# the unprefixed aliases are retired: each answers 404 (exit 1) with a
# pointer to its /v1 spelling, also after the /v1 twin was served
for route in /healthz /images /surface/5.4-x86-generic \
  /diff/4.4-x86-generic/5.4-x86-generic /surface/vmlinux-degraded; do
  if Q "$route" > "$TMP/unprefixed.json"; then
    echo "unprefixed $route answered" >&2; exit 1
  else
    [ $? -eq 1 ]
  fi
  grep -q "use /v1$route" "$TMP/unprefixed.json"
done

# the envelope carries the API version on every JSON endpoint
Q /v1/healthz | grep -q '"v":1'

# every request is traced: /v1/trace/recent reports finished spans
Q /v1/trace/recent > "$TMP/trace.json"
grep -q '"serve.request"' "$TMP/trace.json"
grep -q '"dropped"' "$TMP/trace.json"

# ?trace=1 inlines the request's own spans into the body
Q '/v1/surface/5.4-x86-generic?trace=1' | grep -q '"trace"'

# /v1/mismatch is byte-identical to the CLI report for the same object
"$CLI" mkobj --tool biotop --out "$TMP/biotop.bpf.o" > /dev/null
"$CLI" report --tool biotop > "$TMP/report.cli"
Q --data "$TMP/biotop.bpf.o" /v1/mismatch > "$TMP/report.srv"
cmp "$TMP/report.cli" "$TMP/report.srv"

# flipping the low bit of byte 681 of biotop's object leaves a bad type
# id in its BTF that the strict object reader accepts: serve answers 400
# and the CLI prints a fatal diagnostic with the same wording and exits
# 1, never an uncaught exception
"$CLI" mutate "$TMP/biotop.bpf.o" "$TMP/badbtf.bpf.o" --flip 681
BAD_BTF="bad BPF object: BTF bad type id 258"
if "$CLI" analyze --obj "$TMP/badbtf.bpf.o" > /dev/null 2> "$TMP/badbtf.cli"; then
  echo "analyze accepted a bad BTF type id" >&2; exit 1
else
  [ $? -eq 1 ]
fi
grep -q "^fatal *obj: $BAD_BTF\$" "$TMP/badbtf.cli"
if Q --data "$TMP/badbtf.bpf.o" /v1/mismatch > "$TMP/badbtf.srv"; then
  echo "/v1/mismatch accepted a bad BTF type id" >&2; exit 1
else
  [ $? -eq 1 ]
fi
grep -q "\"$BAD_BTF\"" "$TMP/badbtf.srv"

# /v1/verify is byte-identical to `doctor --json` for the same object,
# and the clean corpus object is accepted (doctor exits 0)
"$CLI" doctor --json "$TMP/biotop.bpf.o" > "$TMP/verify.cli"
Q --data "$TMP/biotop.bpf.o" /v1/verify > "$TMP/verify.srv"
cmp "$TMP/verify.cli" "$TMP/verify.srv"
grep -q '"health":"clean"' "$TMP/verify.srv"

# a rejected program is data on both surfaces: the server answers 200
# with "health":"degraded" and the named taxonomy rule, the doctor
# exits 2 (degraded) with the same envelope
"$CLI" mkobj --tool biotop --sabotage --out "$TMP/bad.bpf.o" > /dev/null
Q --data "$TMP/bad.bpf.o" /v1/verify > "$TMP/verify.bad.srv"
grep -q '"health":"degraded"' "$TMP/verify.bad.srv"
grep -q '"unsafe-load-scalar"' "$TMP/verify.bad.srv"
set +e
"$CLI" doctor --json "$TMP/bad.bpf.o" > "$TMP/verify.bad.cli"
rc=$?
set -e
[ "$rc" -eq 2 ]
cmp "$TMP/verify.bad.cli" "$TMP/verify.bad.srv"

# a corrupted object still answers structured JSON, never a crash
size=$(wc -c < "$TMP/biotop.bpf.o")
"$CLI" mutate "$TMP/biotop.bpf.o" "$TMP/mut.bpf.o" --zero $((size / 2)):64
Q --data "$TMP/mut.bpf.o" /v1/verify > "$TMP/verify.mut.srv"
grep -q '"health"' "$TMP/verify.mut.srv"
grep -q '"programs"' "$TMP/verify.mut.srv"

# repeat POSTs of the same digest hit the response cache, and the ETag
# supports conditional POSTs (304 with an empty body)
Q -i --data "$TMP/biotop.bpf.o" /v1/verify > "$TMP/verify1.http"
Q -i --data "$TMP/biotop.bpf.o" /v1/verify > "$TMP/verify2.http"
grep -q '^x-depsurf-cache: hit$' "$TMP/verify2.http"
VETAG=$(sed -n 's/^etag: \(.*\)$/\1/p' "$TMP/verify2.http" | head -n 1)
[ -n "$VETAG" ]
Q -i -H "If-None-Match: $VETAG" --data "$TMP/biotop.bpf.o" /v1/verify > "$TMP/verify304.http"
grep -q '^HTTP/1.1 304$' "$TMP/verify304.http"
[ -z "$(sed -e '1,/^$/d' "$TMP/verify304.http")" ]
# a different object is a different digest: no false sharing
Q -i --data "$TMP/bad.bpf.o" /v1/verify > "$TMP/verify.other.http"
sed -e '1,/^$/d' "$TMP/verify.other.http" > "$TMP/verify.other.body"
cmp "$TMP/verify.other.body" "$TMP/verify.bad.srv"

# response cache: the first request for a document renders it (miss),
# every later one is served from the cache — and the cached bytes are
# identical to the rendered ones
Q -i /v1/surface/4.8-x86-generic > "$TMP/first.http"
grep -q '^x-depsurf-cache: miss$' "$TMP/first.http"
Q -i /v1/surface/4.8-x86-generic > "$TMP/second.http"
grep -q '^x-depsurf-cache: hit$' "$TMP/second.http"
sed -e '1,/^$/d' "$TMP/first.http" > "$TMP/first.body"
sed -e '1,/^$/d' "$TMP/second.http" > "$TMP/cached.body"
cmp "$TMP/first.body" "$TMP/cached.body"

# conditional requests: send the ETag back, get an empty-bodied 304
ETAG=$(sed -n 's/^etag: \(.*\)$/\1/p' "$TMP/second.http" | head -n 1)
[ -n "$ETAG" ]
Q -i -H "If-None-Match: $ETAG" /v1/surface/4.8-x86-generic > "$TMP/cond.http"
grep -q '^HTTP/1.1 304$' "$TMP/cond.http"
grep -q "^etag: " "$TMP/cond.http"
# nothing after the blank line: the 304 body is empty
[ -z "$(sed -e '1,/^$/d' "$TMP/cond.http")" ]
# a stale validator still gets the full representation
Q -i -H 'If-None-Match: "stale"' /v1/surface/4.8-x86-generic > "$TMP/stale.http"
grep -q '^HTTP/1.1 200$' "$TMP/stale.http"

# load smoke: 50 warm requests, then /v1/metrics must account for them;
# warm document traffic is absorbed by the response cache: the three
# whole surfaces requested so far are rendered once each
i=0
while [ $i -lt 50 ]; do
  Q /v1/surface/5.4-x86-generic > /dev/null
  i=$((i + 1))
done
Q /v1/metrics > "$TMP/metrics.json"
total=$(json_int requests_total "$TMP/metrics.json")
[ "$total" -ge 58 ]
chits=$(json_int cache.hit "$TMP/metrics.json")
[ "$chits" -ge 50 ]
notmod=$(json_int cache.notmod "$TMP/metrics.json")
[ "$notmod" -ge 1 ]
renders=$(json_int compute.surface "$TMP/metrics.json")
[ "$renders" -le 3 ]
grep -q '"response_cache"' "$TMP/metrics.json"
grep -q '"latency_ms"' "$TMP/metrics.json"

# SIGTERM is a graceful drain: the server logs the stop, exits 0, and
# unlinks its socket on the way out
kill "$SRV"
wait "$SRV"
SRV=""
grep -q "depsurf serve: stopped" "$TMP/serve.log"
[ ! -S "$SOCK" ]

# TCP leg: --port 0 binds a kernel-chosen port, printed on stdout as
# tcp:HOST:PORT before any request is answered
"$CLI" serve --port 0 --cache-dir "$TMP/cache" > "$TMP/tcp.log" 2>&1 &
SRV=$!
i=0
while [ $i -lt 100 ]; do
  grep -q "listening on tcp:" "$TMP/tcp.log" 2> /dev/null && break
  sleep 0.1
  i=$((i + 1))
done
PORT=$(sed -n 's/.*listening on tcp:127\.0\.0\.1:\([0-9][0-9]*\).*/\1/p' "$TMP/tcp.log" | head -n 1)
[ -n "$PORT" ] && [ "$PORT" -gt 0 ]
$TO "$CLI" query --port "$PORT" /v1/healthz | grep -q '"status":"ok"'
if $TO "$CLI" query --port "$PORT" /healthz > /dev/null; then
  echo "unprefixed /healthz answered over tcp" >&2; exit 1
fi

# --retries rides out a restart window: against a dead address it must
# fail only after backing off (not instantly, not forever)
kill "$SRV"
wait "$SRV"
SRV=""
if $TO "$CLI" query --port "$PORT" --retries 2 /v1/healthz > /dev/null 2>&1; then
  echo "query --retries succeeded against a stopped server" >&2; exit 1
else
  [ $? -eq 1 ]
fi
echo "serve CLI e2e: OK"
