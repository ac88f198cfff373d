#!/bin/sh
# End-to-end exercise of the release-watch tier through the CLI:
# register a depset subscription (enveloped via `depsurf watch register`
# and bare via `depsurf query`, same content-addressed id), park a
# long-poll follower, ingest a sabotaged release whose delta removes the
# subscribed func, check the follower is woken with the mismatch event,
# replay the cursor byte-identically, check the warm re-ingest performs
# zero new extractions, check an unprefixed path answers a 404 pointing
# at /v1, then restart over the same store (subscriptions and events
# persist, the replay is byte-identical).
set -eu

CLI=$(cd "$(dirname "$1")" && pwd)/$(basename "$1")

if command -v timeout > /dev/null 2>&1; then TO="timeout 120"; else TO=""; fi

TMP=$(mktemp -d)
SRV=""
stop_server() {
  if [ -n "$SRV" ]; then
    kill "$SRV" 2> /dev/null || true
    i=0
    while [ $i -lt 100 ] && kill -0 "$SRV" 2> /dev/null; do
      sleep 0.1
      i=$((i + 1))
    done
    kill -9 "$SRV" 2> /dev/null || true
    wait "$SRV" 2> /dev/null || true
    SRV=""
  fi
}
cleanup() {
  stop_server
  rm -rf "$TMP"
}
trap cleanup EXIT
SOCK="$TMP/ds.sock"

Q() { $TO "$CLI" query --socket "$SOCK" "$@"; }

start_server() {
  "$CLI" serve --socket "$SOCK" --cache-dir "$TMP/cache" > "$TMP/serve.log" 2>&1 &
  SRV=$!
  i=0
  while [ $i -lt 200 ]; do
    [ -S "$SOCK" ] && break
    sleep 0.1
    i=$((i + 1))
  done
  [ -S "$SOCK" ]
}

# the first string member "id" of a one-line JSON body
json_id() { grep -o '"id":"[^"]*"' "$1" | head -n 1 | sed 's/"id":"\(.*\)"/\1/'; }

echo "== watch e2e: images"
$TO "$CLI" gen-images --dir "$TMP/img" > /dev/null
RELEASE="$TMP/img/vmlinux-4.15-x86-generic"
[ -f "$RELEASE" ]

start_server

# a func the 4.15 "release" lacks relative to base 5.4: its delta will
# report it removed, which is the mismatch the subscription must catch.
# Fall back to a changed func (a Change op notifies the same way).
Q /v1/diff/5.4-x86-generic/4.15-x86-generic > "$TMP/diff.json"
VICTIM=$(sed -n 's/.*"funcs":{"common":[0-9]*,"added":\[[^]]*\],"removed":\["\([^"]*\)".*/\1/p' \
  "$TMP/diff.json")
if [ -z "$VICTIM" ]; then
  VICTIM=$(sed -n 's/.*"funcs":{[^{]*"changed":\[{"name":"\([^"]*\)".*/\1/p' "$TMP/diff.json")
fi
[ -n "$VICTIM" ] || { echo "no func differs between 5.4 and 4.15" >&2; exit 1; }
echo "== watch e2e: victim func $VICTIM"

echo "== watch e2e: register (enveloped CLI vs bare query, one id)"
$TO "$CLI" watch register --socket "$SOCK" --dep "func:$VICTIM" --label e2e \
  > "$TMP/reg.json"
ID=$(json_id "$TMP/reg.json")
[ -n "$ID" ]
printf '{"deps": ["func:%s"], "label": "e2e"}' "$VICTIM" > "$TMP/sub.json"
Q -d "$TMP/sub.json" /v1/subscriptions > "$TMP/reg2.json"
ID2=$(json_id "$TMP/reg2.json")
[ "$ID" = "$ID2" ] || { echo "envelope vs bare ids differ: $ID vs $ID2" >&2; exit 1; }
$TO "$CLI" watch list --socket "$SOCK" | grep -q "$ID"

echo "== watch e2e: park a follower, ingest the sabotaged release"
$TO "$CLI" watch follow --socket "$SOCK" "$ID" --wait 60 --polls 1 \
  > "$TMP/follow.out" 2>&1 &
FOL=$!
sleep 1
$TO "$CLI" watch ingest --socket "$SOCK" --base 5.4-x86-generic --name sabotaged \
  "$RELEASE" > "$TMP/ingest.json"
grep -q '"warm":false' "$TMP/ingest.json"
grep -q '"matched":1' "$TMP/ingest.json"
wait "$FOL"
grep -q '"release":"sabotaged"' "$TMP/follow.out"
grep -q "func:$VICTIM" "$TMP/follow.out"

echo "== watch e2e: cursor replay is byte-identical"
Q "/v1/watch/$ID?since=0" > "$TMP/replay1.json"
Q "/v1/watch/$ID?since=0" > "$TMP/replay2.json"
cmp "$TMP/replay1.json" "$TMP/replay2.json"
CURSOR=$(grep -o '"cursor":[0-9]*' "$TMP/replay1.json" | head -n 1 | sed 's/.*://')
[ -n "$CURSOR" ]
# past the cursor there is nothing yet: 204, empty body (query prints nothing)
PAST=$(Q "/v1/watch/$ID?since=$CURSOR")
[ -z "$PAST" ]

echo "== watch e2e: warm re-ingest, no new extraction"
Q /v1/metrics | grep -q '"extractions":1'
$TO "$CLI" watch ingest --socket "$SOCK" --base 5.4-x86-generic --name sabotaged \
  "$RELEASE" > "$TMP/ingest2.json"
grep -q '"warm":true' "$TMP/ingest2.json"
Q /v1/metrics | grep -q '"extractions":1'

echo "== watch e2e: unprefixed paths answer the /v1 pointer"
if Q "/watch/$ID?since=0" > "$TMP/unprefixed.out" 2>&1; then
  echo "unprefixed watch route answered" >&2; exit 1
fi
grep -q "/v1/watch/$ID" "$TMP/unprefixed.out"

echo "== watch e2e: restart (store persists)"
Q "/v1/watch/$ID?since=0" > "$TMP/final.json"
stop_server
start_server
# the subscription and its recorded events survive the restart
$TO "$CLI" watch list --socket "$SOCK" | grep -q "$ID"
Q "/v1/watch/$ID?since=0" > "$TMP/replayed.json"
cmp "$TMP/final.json" "$TMP/replayed.json"
Q /v1/healthz | grep -q '"status":"ok"'

echo "== watch e2e: unregister"
$TO "$CLI" watch unregister --socket "$SOCK" "$ID" > /dev/null
if $TO "$CLI" watch list --socket "$SOCK" | grep -q "$ID"; then
  echo "subscription survived unregister" >&2; exit 1
fi

echo "watch e2e: all legs passed"
