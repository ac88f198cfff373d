(** The transitive dependency graph of one kernel image (the ROADMAP's
    "dependency-graph engine"): every construct an eBPF program can hook
    or read — functions, structs, fields, tracepoints, syscalls — as
    nodes, with a directed edge [X -> Y] meaning {e X depends on Y} (a
    change to [Y] can affect [X]).

    Point lookups ({!Depsurf.Surface}, {!Depsurf.Diff}) answer "did this
    symbol change"; the graph answers the paper's closure question:
    everything that {e reaches} a changed symbol is at risk, including
    programs whose probe target merely calls it. Edges come from the
    data the pipeline already extracts:

    - caller -> callee, from [fe_callers] (direct calls) and
      [fe_inline_sites] (inlined bodies) of the DWARF surface;
    - function -> struct, from the struct/union references of the
      representative prototype;
    - field -> its struct, and struct -> the structs its field types
      reference (layout dependence);
    - tracepoint -> event struct and the structs of the
      tracing-function prototype;
    - syscall -> its arch-prefixed implementation function (via
      {!Ds_kcc.Compile.syscall_symbol}), when the image has one.

    The node identity is {!Depsurf.Depset.dep}, so graph answers
    intersect directly with program dependency sets; the canonical
    string syntax is {!Depsurf.Depset.dep_to_string}'s ["kind:name"].

    Determinism contract: nodes and adjacency are sorted, so the graph
    — and its {!encode} bytes — are identical whatever the pool size or
    chunking of the build fan-out. *)

open Ds_ksrc

type t
(** An immutable graph: sorted node array, forward and reverse adjacency
    (both by dense node id), plus an id index. *)

val build : ?pool:Ds_util.Par.pool -> Depsurf.Surface.t -> t
(** Construct the graph for one surface. With [pool], per-construct edge
    extraction fans out through {!Ds_util.Par.map_list_chunked} (result
    identical to the sequential build). Increments {!build_count}. *)

val build_count : unit -> int
(** Process-wide number of graphs actually constructed (decoding a
    stored graph does not count) — the [store warm load] test asserts
    this stays flat across a warm run. *)

val tag : t -> string
(** The source surface's image tag (e.g. ["v5.4-x86-generic"]). *)

val n_nodes : t -> int
val n_edges : t -> int

val mem : t -> Depsurf.Depset.dep -> bool

val query :
  t ->
  dir:[ `Deps | `Rdeps ] ->
  transitive:bool ->
  Depsurf.Depset.dep ->
  Depsurf.Depset.dep list option
(** [`Deps] follows edges forward (what the node depends on), [`Rdeps]
    backward (what depends on the node — the blast direction).
    [transitive:false] returns direct neighbours only; [true] the full
    closure, start node excluded. Results are sorted by
    {!Depsurf.Depset.compare_dep}; [None] when the node is not in the
    graph. *)

val rclosure : t -> Depsurf.Depset.dep -> Depsurf.Depset.dep list
(** [query ~dir:`Rdeps ~transitive:true], defaulting to [[]] for an
    unknown node — the reverse closure used by blast-radius queries. *)

val rreach : t -> Depsurf.Depset.dep list -> Depsurf.Depset.dep list
(** Every node that reaches any of the sources over reverse edges, the
    sources themselves included, each once and in no particular order;
    sources not in the graph are ignored. One walk with one seen array
    for the whole list, so it equals the union of [d :: rclosure g d]
    over the members [d] in the graph at the cost of a single closure.
    Recorded as one ["graph.query"] span with a [sources] count. *)

(** {2 Persistence (the {!Ds_store} ["graph"] namespace)} *)

val codec_version : int
(** Bumping it invalidates stored graphs (it participates in the store
    key). *)

val ns : string
(** The store namespace, ["graph"]. *)

val encode : t -> string
val decode : string -> t
(** Raises {!Depsurf.Codec.Decode_error} on a malformed payload; the
    store treats that as a corrupt entry and recomputes. *)

val store_key : Depsurf.Dataset.t -> Version.t -> Config.t -> string
(** The content-addressed key binding seed, scale, codec versions and
    the image identity. *)

val of_dataset :
  ?pool:Ds_util.Par.pool -> Depsurf.Dataset.t -> Version.t -> Config.t -> t
(** The memoized entry point: an in-process {!Ds_util.Par.Memo} (single
    flight across domains) over the {!Ds_store.Store.memo} persistent
    tier, so a process builds each image's graph at most once and a warm
    store serves later processes without any rebuild. Graphs of degraded
    surfaces are computed but not persisted. *)

(** {2 Views} *)

val stats_json : t -> Ds_util.Json.t
(** [{image; nodes; edges}] — the serve/CLI graph identity block. *)

val query_json :
  t ->
  dir:[ `Deps | `Rdeps ] ->
  transitive:bool ->
  Depsurf.Depset.dep ->
  Ds_util.Json.t
(** The wire view shared byte-for-byte by [depsurf graph deps|rdeps
    --json] and [/v1/graph/deps|rdeps]: image, node, direction,
    transitive flag, found flag, count and the sorted results. *)

val query_table :
  t ->
  dir:[ `Deps | `Rdeps ] ->
  transitive:bool ->
  Depsurf.Depset.dep ->
  string
(** Human-readable rendering of the same answer. *)
