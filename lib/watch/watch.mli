(** Standing release monitoring (the paper's drift problem made
    continuous): a subscription registry over {!Depsurf.Depset.dep}
    sets, plus incremental ingest of newly evolved releases through the
    store's "delta" tier ({!Depsurf.Delta}).

    On ingest of release [name] against a study-matrix base image, the
    release delta's removed/changed constructs are intersected with
    every registered depset — reusing {!Ds_graph.Blast} reverse
    closures for transitive hits — and a mismatch event is recorded per
    affected subscription, with a global monotone cursor for long-poll
    replay. State (subscriptions + events) persists through the
    dataset's store under the ["watch"] namespace; deltas under
    {!Depsurf.Delta.ns}. All operations are domain-safe. *)

open Ds_ksrc

type sub = {
  sb_id : string;
      (** content-addressed: digest of the canonical (sorted,
          deduplicated) depset, so re-registering the same set is
          idempotent and returns the same id *)
  sb_label : string;
  sb_deps : Depsurf.Depset.dep list;  (** sorted, deduplicated *)
}

type event = {
  ev_seq : int;  (** global monotone cursor, 1-based *)
  ev_sub : string;
  ev_release : string;  (** the ingested release's label *)
  ev_base : string;  (** base image name the delta was taken against *)
  ev_hits : Depsurf.Depset.dep list;
      (** the subscription's own deps transitively affected, sorted *)
  ev_reasons : string list;  (** one per hit, in [ev_hits] order *)
  ev_time : float;
}

type ingest_result = {
  ig_release : string;
  ig_base : string;
  ig_warm : bool;  (** delta served from the store: no surface extraction *)
  ig_ops : Depsurf.Delta.counts;
  ig_health : string;  (** clean/degraded/fatal of the ingested surface *)
  ig_events : event list;  (** newly recorded, one per matched subscription *)
}

type t

val create : ?pool:Ds_util.Par.pool -> ?metrics:Ds_util.Metrics.t -> Depsurf.Dataset.t -> t
(** Loads persisted subscriptions and events from the dataset's store
    (empty registry when the dataset has none). [metrics] receives the
    [watch.*] counters (subscription churn, ingests, extractions,
    events) — the serve tier passes its own registry. *)

val image_name : Version.t * Config.t -> string
(** ["<major>.<minor>-<arch>-<flavor>"], e.g. ["5.4-x86-generic"] —
    the study matrix naming shared with the serve tier. *)

val image_of_name : string -> (Version.t * Config.t) option
(** Inverse of {!image_name}; [None] when not in the study matrix. *)

val subscribe : t -> ?label:string -> Depsurf.Depset.dep list -> sub
val unsubscribe : t -> string -> bool
(** Also prunes the subscription's events. *)

val find_sub : t -> string -> sub option
val subs : t -> sub list

val cursor : t -> int
(** Sequence number of the last recorded event; 0 when none. *)

val events_after : t -> sub:string -> since:int -> event list
(** The subscription's events with [ev_seq > since], oldest first.
    Replay is deterministic: the same cursor always returns the same
    events (until {!unsubscribe} prunes them). *)

val on_change : t -> (unit -> unit) -> unit
(** Register a listener called (outside the registry lock) after every
    batch of new events — the serve tier's long-poll wakeup. *)

val extractions : t -> int
(** Full surface extractions this handle performed across all ingests —
    it stays 0 on a warm delta ingest (the [image ingest warm path]
    test). *)

val ingest :
  t ->
  base:Version.t * Config.t ->
  name:string ->
  [ `Image of string | `Surface of string ] ->
  (ingest_result, string) result
(** Ingest release [name] against a base from the study matrix.
    [`Image bytes] is a raw vmlinux image (lenient extraction — health
    lands in the delta); [`Surface bytes] is a {!Depsurf.Codec}-encoded
    surface (dataset-only deployments; no extraction at all). The delta
    is keyed by payload digest in the store, so re-ingesting the same
    bytes is warm: decode-only, O(changed) ops, 0 extractions.
    [Error] on an unknown base image or an undecodable payload. *)

val sub_json : t -> sub -> Ds_util.Json.t
val event_json : event -> Ds_util.Json.t
val ingest_json : ingest_result -> Ds_util.Json.t
