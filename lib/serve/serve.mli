(** [ds_serve]: the dependency-surface query service behind
    [depsurf serve].

    DepSurf's consumers — verifier-diagnostic tools, supply-chain
    monitors, CI gates — ask {e per-object, per-kernel} questions
    ("does this BPF object still attach on 6.8?", "what changed between
    these two LTS images?"), which is a query workload, not a batch
    workload. This module turns the batch pipeline into a long-running
    server:

    - a minimal hand-rolled HTTP/1.1 + JSON protocol over Unix or TCP
      sockets (no external dependencies);
    - an accept loop on its own domain, outside the {!Ds_util.Par}
      pool: each accepted connection's handler is queued as a pool
      task, and between selects the loop also runs queued handlers
      itself ({!Ds_util.Par.drain_one}), so while it is inside one
      nothing is accepted or shed (the open [FOUND:] line on
      [accept_loop] in CHANGES.md);
    - one bounded {e response-byte cache} ({!Respcache}) for every
      cacheable answer: the whole [/v1/surface/<image>] and
      [/v1/diff/<a>/<b>] documents (hydrated through the dataset's memo
      tables and the {!Ds_store} persistent tier), [/v1/images],
      construct lookups, [/v1/graph/...], [POST /v1/mismatch] and
      [POST /v1/verify]. It is keyed by (endpoint, effective params —
      the first binding of each name but [trace], sorted; none for a
      whole document — body digest, generation), so a warm hit skips
      Export → JSON → envelope entirely and client input can never grow
      server memory past the LRU's caps. Fills are single-flight:
      concurrent requests for the same uncached answer coalesce into one
      computation. Every cacheable response carries a strong [ETag]
      (content digest over the body, hashed once at fill) and an
      [x-depsurf-cache: hit|miss] header, and a matching
      [If-None-Match] answers [304 Not Modified] with an empty body;
    - per-endpoint metrics ({!Ds_util.Metrics}): request counters,
      error counters, cache hit/miss/evict counters, and latency
      histograms with p50/p95/p99.

    Endpoints (all under [/v1/...]; an unprefixed path answers a 404
    envelope pointing at its [/v1] spelling):

    - [GET /v1/healthz] — liveness, dataset scale and image count;
    - [GET /v1/images] — every queryable image (study matrix + extra
      on-disk images);
    - [GET /v1/surface/<image>] — a full surface document, health
      included (degraded images answer HTTP 200 with
      ["health": "degraded"], never a 500);
      [?kind=func|struct|tracepoint|syscall&name=X] narrows to one
      construct;
    - [GET /v1/diff/<a>/<b>] — the pairwise declaration diff;
    - [GET /v1/graph/deps/<node>], [GET /v1/graph/rdeps/<node>] — the
      dependency graph's forward/reverse neighbours of a node (canonical
      ["kind:name"] syntax, bare names meaning [func:]);
      [?image=5.4-x86-generic] (the default) picks the image,
      [?transitive=1] the full closure. Unknown nodes answer 200 with
      ["found": false];
    - [GET /v1/graph/blast/<node>?release=X.Y] — the blast radius: the
      corpus programs transitively affected if the node changes (or is
      removed) in release X.Y, via the reverse closure on the previous
      release's graph intersected with each program's dependency set;
    - [POST /v1/mismatch] — body: raw BPF object bytes; response: the
      per-image dependency-mismatch report ([text/plain]),
      byte-identical to [depsurf report] for the same object;
      [?suggest=1] appends stable-probe suggestions from the
      {!Depsurf.Compat} registry;
    - [POST /v1/verify] — body: raw BPF object bytes; response: the
      structured verifier-rejection report ({!Ds_verify.Verify}) in the
      envelope, byte-identical to [depsurf doctor --json] for the same
      object; [?image=5.4-x86-generic] (the default) picks the study
      kernel whose BTF kfunc names are checked against. A rejected
      program is data, not an error: the response is 200 with
      [health: "degraded"]. Responses are cached (and [ETag]-tagged) by
      (image, body digest), so repeat posts of the same object hit the
      response cache and [If-None-Match] answers 304 — and so are
      [/v1/mismatch] answers, by (params, body digest);
    - [GET /v1/metrics] — counters, latency histograms, store counters,
      compile count and response-cache occupancy;
    - [GET /v1/trace/recent] — most recently finished tracing spans
      ([?limit=N], default 100) plus the ring-drop counter;
    - [POST /v1/subscriptions] — register a watch subscription: a JSON
      body [{"deps": ["func:vfs_read", "struct:request", ...],
      "label": "..."}]. The id is content-addressed (digest of the
      canonical depset), so re-registering the same set is idempotent;
    - [GET /v1/subscriptions], [GET /v1/subscriptions/<id>],
      [DELETE /v1/subscriptions/<id>] — registry CRUD;
    - [POST /v1/watch/ingest?base=<image>&name=<label>] — incremental
      release ingest: body is a raw vmlinux image ([?kind=image], the
      default; lenient extraction) or a {!Depsurf.Codec}-encoded surface
      ([?kind=surface]). The release is stored as a {!Depsurf.Delta}
      against the base in the store's ["delta"] namespace (re-ingesting
      the same bytes is warm: no extraction, O(changed) ops), the
      delta's removed/changed constructs are intersected with every
      subscription — transitively, via {!Ds_graph.Blast} reverse
      closures — and one mismatch event is recorded per affected
      subscription;
    - [GET /v1/watch/<sub-id>?since=<cursor>&wait=<seconds>] — long-poll
      for mismatch events with [seq > since]: [200] with the events when
      some exist, otherwise the connection parks (deadline-bounded by
      the handle budget, admission-aware: parked pollers hold their
      admission slot but never a pool worker) until an ingest produces a
      matching event, the wait expires, or the server drains — the
      latter two answer a clean [204]. [wait=0] (the default) answers
      immediately.

    {b Mutation envelope.} The mutating endpoints ([POST /v1/mismatch],
    [POST /v1/verify], [POST /v1/subscriptions], [POST /v1/watch/ingest])
    also accept the {!Depsurf.Api.parse_mutation} request envelope
    [{"v": 1, "params": {...}, "body": <base64 | inline JSON>}] —
    envelope params override query-string params; bare bodies keep
    working byte-identically. Envelope validation failures answer a 400
    whose [diagnostics] list every problem.

    {b Unprefixed paths.} The unprefixed aliases of the [/v1] routes are
    retired: any path outside [/v1] answers 404 with a pointer to the
    [/v1] spelling, before the cache is consulted.

    Every JSON response is wrapped in the versioned {!Depsurf.Api}
    envelope [{v; health; data; diagnostics}]. Every response carries an
    [x-depsurf-trace] header with the id of the request's
    ["serve.request"] span, and [?trace=1] on any JSON endpoint inlines
    that request's finished descendant spans under a ["trace"] member of
    the (enveloped) body; such a request is answered from the cache like
    any other, but its body is no longer the cached representation, so
    it carries no [ETag]. *)

open Ds_ksrc

type t
(** Server state: dataset + response cache + metrics.
    Independent of any socket, so tests can drive {!handle_request}
    directly. *)

type limits = {
  li_max_inflight : int;
      (** admission limit on accepted-but-unfinished connections;
          default 64, or [DEPSURF_MAX_INFLIGHT] *)
  li_read_timeout_s : float;
      (** whole-request receive budget (header + body), slowloris
          defence; default 10s *)
  li_handle_deadline_s : float;
      (** cooperative {!Ds_util.Deadline} on request handling; default
          30s, or [DEPSURF_DEADLINE_MS] / 1000 *)
  li_write_timeout_s : float;  (** per-socket send timeout; default 10s *)
  li_drain_deadline_s : float;
      (** how long {!stop} waits for in-flight connections; default 10s *)
}

val default_limits : unit -> limits
(** The defaults above, with [DEPSURF_MAX_INFLIGHT] and
    [DEPSURF_DEADLINE_MS] read from the environment. *)

val create :
  ?images_dir:string ->
  ?limits:limits ->
  ds:Depsurf.Dataset.t ->
  pool:Ds_util.Par.pool ->
  unit ->
  t
(** [images_dir]: serve surfaces (extracted leniently, on demand) for
    every [vmlinux-*] file in the directory, keyed by file name, in
    addition to the study matrix. {!start} refuses a pool of fewer than
    2 workers. [limits] defaults to {!default_limits}. *)

val parked_count : t -> int
(** Long-pollers currently parked (fd held, no worker). Exposed for
    tests. *)

val metrics : t -> Ds_util.Metrics.t

val admission : t -> Admission.t
(** The admission-control state shared by the accept loop and every
    connection handler; its stats are the ["admission"] object of
    [/v1/metrics]. *)

val generation : t -> int
(** The current generation, part of every response-cache key. *)

val invalidate : t -> unit
(** Bump the generation: every {!Respcache} response stops matching,
    the whole surface and diff documents included, and the next request
    for each key re-renders and re-caches (the ETag is a content digest,
    so it changes only if the bytes do). Dataset mutations must call
    this; today it is driven by tests and {!revalidate_store}. *)

val revalidate_store : t -> unit
(** Compare the dataset store's persisted maintenance generation
    ({!Ds_store.Store.maintenance_generation}) against the last value
    this server saw; when it moved (someone ran
    [depsurf cache clear]/[gc]/[verify] against a live server's cache
    directory), call {!invalidate} once so no response bytes keyed to
    the pre-maintenance store keep being served. No-op without a store.
    Called automatically on the response-cache path, throttled to at
    most one generation-file read per second; exposed so tests (and
    maintenance run in-process) can trigger it deterministically. *)

val image_name : Version.t * Config.t -> string
(** URL name of a study image, e.g. ["5.4-x86-generic"]. *)

val image_of_name : string -> (Version.t * Config.t) option
(** Inverse of {!image_name}; [None] when not in the study matrix. *)

val handle_request :
  ?headers:(string * string) list ->
  ?pressure:Ds_util.Diag.severity ->
  t ->
  meth:string ->
  target:string ->
  body:string ->
  int * string * (string * string) list * string
(** Route and answer one request:
    [(status, content_type, headers, body)] where [headers] is the
    extra response headers (always including [x-depsurf-trace], plus
    [ETag] and [x-depsurf-cache] on cacheable 200s). [?headers] is the
    request headers as [(lowercased-name, value)] pairs; a matching
    [if-none-match] turns a cacheable response into an empty-body 304.
    [?pressure:Degraded] stamps the response with
    [x-depsurf-pressure: degraded] (the socket layer passes the
    admission pressure through). Handling runs under the configured
    {!limits} deadline: expiry answers a [503] envelope with
    [Retry-After] instead of running arbitrarily long. Never raises —
    internal errors become a 500 envelope. Exposed for unit tests and
    in-process callers. *)

(** {2 Socket front-end} *)

type addr =
  | Unix_sock of string  (** path of a Unix domain socket *)
  | Tcp of string * int  (** host, port; port [0] picks a free port *)

type handle

val start : t -> addr -> handle
(** Bind, listen, and spawn the accept loop on its own domain. The loop
    queues each connection's handler on the pool and, between selects,
    runs queued handlers itself, so handlers progress even with no free
    worker. Raises [Invalid_argument] on a pool with fewer than 2
    workers (a pool sized for one task has no headroom for the handlers
    it queues), [Unix.Unix_error] on bind failures. *)

val bound_addr : handle -> addr
(** The actual address — with [Tcp (host, 0)] the kernel-chosen port. *)

val stop : handle -> unit
(** Graceful drain, in order: stop accepting (join the accept loop),
    wait for every in-flight connection to finish — helping the pool's
    queue along — up to [li_drain_deadline_s], then close the listener
    last (and unlink a Unix socket path). Connections still running at
    the deadline are abandoned and counted under the [drain.abandoned]
    metric. The drain is recorded as a ["serve.drain"] span. Idempotent. *)

(** A minimal blocking HTTP/1.1 client for the same protocol: the load
    generator, the CLI's [depsurf query], and the e2e tests. *)
module Client : sig
  val request :
    ?body:string ->
    ?headers:(string * string) list ->
    ?timeout_s:float ->
    addr ->
    meth:string ->
    path:string ->
    int * string
  (** One request over a fresh connection; [(status, body)]. [body]
      present sends a [Content-Length] payload (used with [POST]);
      [headers] adds request headers (e.g.
      [("If-None-Match", etag)] for a conditional GET). [timeout_s]
      (default 30) bounds every socket send/receive and the
      drain-to-EOF of an unsized response body (which is also capped at
      16MiB). Raises [Unix.Unix_error] on connection failures and
      [Failure] on malformed responses. *)

  val request_full :
    ?body:string ->
    ?headers:(string * string) list ->
    ?timeout_s:float ->
    addr ->
    meth:string ->
    path:string ->
    int * (string * string) list * string
  (** Like {!request} but also returns the response headers as
      [(lowercased-name, value)] pairs. *)

  val request_retry :
    ?headers:(string * string) list ->
    ?timeout_s:float ->
    ?retries:int ->
    ?base_ms:float ->
    ?cap_ms:float ->
    ?seed:int64 ->
    addr ->
    meth:string ->
    path:string ->
    int * (string * string) list * string
  (** {!request_full} with capped exponential backoff (base 50ms,
      cap 2s, deterministic jitter from [seed]) on connection errors
      and on [503] responses — a server [Retry-After] is honoured in
      full, above the cap if the server asks for longer. Only [GET]s
      are retried; any other method fails or
      returns its first answer as-is, since a non-idempotent request
      may already have been applied. At most [retries] (default 3)
      re-attempts. *)

  val backoff_delay :
    prng:Ds_util.Prng.t ->
    base_ms:float ->
    cap_ms:float ->
    retry_after:float option ->
    int ->
    float
  (** The delay (seconds) before re-attempt [n] (0-based): jittered
      [max retry_after (min cap (base * 2^n))] — the cap bounds the
      exponential term only, never a server's ask. Exposed for tests. *)
end
