#!/bin/sh
# End-to-end exercise of the dependency-graph engine through the CLI and
# the query service: `depsurf graph deps/rdeps/blast` tables and --json,
# determinism across --jobs, cold/warm byte-identity across two processes
# sharing a --cache-dir, and byte-identity between `depsurf graph --json`
# and the corresponding /v1/graph/... endpoint served over a Unix socket.
set -eu

CLI=$(cd "$(dirname "$1")" && pwd)/$(basename "$1")

# hard timeout for every query leg: a wedged server fails fast
if command -v timeout > /dev/null 2>&1; then TO="timeout 60"; else TO=""; fi

TMP=$(mktemp -d)
SRV=""
cleanup() {
  # also runs on failure paths (set -e): kill hard, reap, then sweep
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
CACHE="$TMP/cache"

# human tables render and carry the canonical node syntax
"$CLI" graph deps vfs_fsync > "$TMP/deps.tbl"
grep -q "func:" "$TMP/deps.tbl"
"$CLI" graph rdeps func:vfs_fsync --transitive > "$TMP/rdeps.tbl"
grep -q "func:" "$TMP/rdeps.tbl"

# malformed node syntax is a usage error, not a crash
if "$CLI" graph deps "bogus:x" > /dev/null 2>&1; then
  echo "bad node syntax accepted" >&2; exit 1
fi

# unknown nodes are a valid empty answer
"$CLI" graph rdeps no_such_fn_zzz --json | grep -q '"found":false'

# determinism: the JSON document is byte-identical whatever the pool size
"$CLI" graph rdeps func:vfs_fsync --transitive --json --jobs 1 > "$TMP/j1.json"
"$CLI" graph rdeps func:vfs_fsync --transitive --json --jobs 4 > "$TMP/j4.json"
cmp "$TMP/j1.json" "$TMP/j4.json"

# cold/warm: a second process loads the persisted graph frame from the
# shared cache dir and must answer byte-for-byte like the build that
# wrote it
"$CLI" graph rdeps func:vfs_fsync --transitive --json --cache-dir "$CACHE" > "$TMP/cold.json"
"$CLI" graph rdeps func:vfs_fsync --transitive --json --cache-dir "$CACHE" > "$TMP/warm.json"
cmp "$TMP/cold.json" "$TMP/warm.json"
cmp "$TMP/cold.json" "$TMP/j1.json"

# blast radius: biotop hooks blk_account_io_start, so it is always inside
# the symbol's blast radius at the release after v5.4
"$CLI" graph blast blk_account_io_start --release 5.8 > "$TMP/blast.tbl"
grep -q "biotop" "$TMP/blast.tbl"
"$CLI" graph blast blk_account_io_start --release 5.8 --json > "$TMP/blast.json"
grep -q '"program":"biotop"' "$TMP/blast.json"
grep -q '"prev":"v5.4"' "$TMP/blast.json"

# the first study release has no predecessor to diff against
if "$CLI" graph blast vfs_fsync --release 4.4 > /dev/null 2>&1; then
  echo "blast accepted the first study release" >&2; exit 1
else
  [ $? -eq 1 ]
fi

# serve leg: the CLI's --json output is byte-identical to the endpoint
"$CLI" serve --socket "$SOCK" --cache-dir "$CACHE" > "$TMP/serve.log" 2>&1 &
SRV=$!
i=0
while [ $i -lt 100 ]; do
  [ -S "$SOCK" ] && break
  sleep 0.1
  i=$((i + 1))
done
[ -S "$SOCK" ]

Q() { $TO "$CLI" query --socket "$SOCK" "$@"; }

Q '/v1/graph/rdeps/func:vfs_fsync?transitive=1' > "$TMP/srv-rdeps.json"
cmp "$TMP/srv-rdeps.json" "$TMP/j1.json"
"$CLI" graph deps vfs_fsync --json > "$TMP/cli-deps.json"
Q /v1/graph/deps/vfs_fsync > "$TMP/srv-deps.json"
cmp "$TMP/cli-deps.json" "$TMP/srv-deps.json"
Q '/v1/graph/blast/blk_account_io_start?release=5.8' > "$TMP/srv-blast.json"
cmp "$TMP/srv-blast.json" "$TMP/blast.json"

# the unprefixed alias is retired: a 404 pointing at the /v1 route
if Q /graph/deps/vfs_fsync > "$TMP/srv-deps-unprefixed.json"; then
  echo "unprefixed /graph/deps answered" >&2; exit 1
fi
grep -q "use /v1/graph/deps/vfs_fsync" "$TMP/srv-deps-unprefixed.json"

# graph endpoints are cacheable: a repeat is a response-cache hit with
# identical bytes
Q -i /v1/graph/deps/vfs_fsync > "$TMP/hit.http"
grep -q '^x-depsurf-cache: hit$' "$TMP/hit.http"
sed -e '1,/^$/d' "$TMP/hit.http" > "$TMP/hit.body"
cmp "$TMP/hit.body" "$TMP/srv-deps.json"

# SIGTERM drains gracefully and exits 0
kill "$SRV"
wait "$SRV"
SRV=""
grep -q "depsurf serve: stopped" "$TMP/serve.log"
echo "graph CLI e2e: OK"
