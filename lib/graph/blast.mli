(** Blast-radius queries: which corpus programs break, transitively, if
    a symbol changes (or is removed) in a given release?

    The answer intersects two things the repo already computes — the
    reverse dependency closure of the symbol in the {e previous}
    release's graph (the surface programs were written against), and
    the declaration diff between that release and the queried one
    ({!Depsurf.Diff}, the machinery behind the paper's Tables 1/3/4/5).
    A corpus program is affected when any dependency of its object file
    ({!Depsurf.Depset.of_obj}) lands in the closure: directly (it hooks
    or reads the symbol) or transitively (it probes a caller, reads a
    struct embedding the changed struct, ...). *)

open Ds_ksrc

type affected = {
  af_name : string;  (** corpus program (Table 7 row) *)
  af_subsystem : string;
  af_via : Depsurf.Depset.dep list;
      (** the program's own dependencies that fall inside the closure,
          sorted; always non-empty *)
}

type result = {
  bl_node : Depsurf.Depset.dep;
  bl_release : Version.t;  (** the release being queried *)
  bl_prev : Version.t;  (** its predecessor: diff is prev -> release *)
  bl_removed : bool;  (** the construct disappeared in [bl_release] *)
  bl_reasons : string list;
      (** human-readable change reasons from the diff; empty when the
          construct is unchanged in this pair *)
  bl_closure_size : int;
      (** reverse closure size, the queried node included *)
  bl_affected : affected list;  (** in Table 7 (paper) order *)
}

val fate : Depsurf.Diff.t -> Depsurf.Depset.dep -> bool * string list
(** [(removed, change reasons)] of one construct in a release diff —
    the per-node view {!query} reports as [bl_removed]/[bl_reasons],
    shared with the watch tier's per-event reason lines. *)

val hit_set : Graph.t -> changed:Depsurf.Depset.dep list -> (Depsurf.Depset.dep, unit) Hashtbl.t
(** Every construct transitively affected when the [changed] constructs
    disappear or change: the union, over [changed], of each node present
    in the graph plus its reverse closure ({!Graph.rclosure}). *)

val hits :
  Graph.t -> changed:Depsurf.Depset.dep list -> Depsurf.Depset.dep list -> Depsurf.Depset.dep list
(** [hits g ~changed deps]: the subset of [deps] (order preserved)
    falling in {!hit_set} — the intersection primitive behind both
    {!query}'s per-program [af_via] lists and the watch tier's
    subscription matching. *)

val query :
  ?pool:Ds_util.Par.pool ->
  Depsurf.Dataset.t ->
  release:Version.t ->
  Depsurf.Depset.dep ->
  (result, string) Stdlib.result
(** [Error] on a release outside the study matrix (or its first entry,
    which has no predecessor). A node absent from the graph still
    answers [Ok] with an empty closure and no affected programs. The
    graph comes from {!Graph.of_dataset} (memoized, store-backed).
    The node-independent inputs are memoized per dataset, keyed by
    {!Depsurf.Dataset.cache_key} and computed once across domains: the
    corpus programs' dependency sets ({!Depsurf.Depset.of_obj} over
    {!Ds_corpus.Corpus.build_all}, one entry per dataset) and each
    release's diff against its predecessor (at most 16 entries, one per
    study release after the first). Together they hold under 0.5 MB per
    dataset at bench scale, so a query costs one reverse-closure walk
    and the per-program intersections. *)

val json : result -> Ds_util.Json.t
(** The wire view shared byte-for-byte by [depsurf graph blast --json]
    and [/v1/graph/blast]. *)

val table : result -> string
(** Human-readable rendering. *)
