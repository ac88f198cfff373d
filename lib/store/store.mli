(** A content-addressed, checksummed, atomically-written on-disk artifact
    store, making the pipeline incremental {e across} process runs (the
    paper persists every extracted surface so analyses run off the
    published dataset rather than re-extracting 25 vmlinux images, §3.4).

    Artifacts are keyed by a {!Hash} digest of their {e inputs}
    (evolution seed, scale record, version/config, codec version), grouped
    into namespaces ([surface], [image], [diff], [obj], [matrix]), and
    written as framed binary files — magic, format version, namespace,
    payload checksum — via temp-file + rename, so a crashed writer can
    never leave a half-frame behind.

    Robustness is a first-class contract: a corrupt, truncated or
    schema-mismatched entry is detected by the frame check, logged via
    [Logs] (source ["ds_store"]), evicted from disk, and transparently
    recomputed. A damaged cache can cost time, never correctness. *)

(** Incremental hasher for deriving artifact keys from their inputs.
    Two lanes that each absorb one 64-bit word per round (an
    xxHash64-style multiply-rotate-multiply, bijective in the lane and
    injective in the word), finished by the SplitMix64 mixer. A string
    is absorbed as its length, its little-endian words, then its tail
    packed into one word; an [int], [int64] or [float] is one word. Every
    field is length- or width-delimited, so ["ab"+"c"] and ["a"+"bc"]
    hash differently. *)
module Hash : sig
  type t

  val create : unit -> t
  val string : t -> string -> unit
  val int : t -> int -> unit
  val int64 : t -> int64 -> unit
  val float : t -> float -> unit

  val hex : t -> string
  (** 32-hex-char digest of everything fed so far. *)

  val digest : string -> string
  (** One-shot digest of one string: [create], [string] and [hex] in
      one call. *)
end

(** The on-disk frame around each payload; exposed for property tests
    ("flip any byte → [Corrupt], never a wrong value"). *)
module Frame : sig
  type result = Ok of string | Corrupt of string

  val encode : ns:string -> string -> string
  val decode : ns:string -> string -> result
  (** [decode ~ns data] returns the payload only if the magic, format
      version, namespace, length and payload checksum all verify and no
      trailing bytes follow; anything else is [Corrupt reason]. *)

  val checksum : string -> int64
  (** The first lane of {!Hash} over the payload, SplitMix64-finished.
      Two payloads of equal length that differ in one 64-bit word never
      share a checksum. *)

  val format_version : int
  (** Written into every frame; a frame of any other version is
      [Corrupt]. Bumped whenever {!checksum} or the {!Hash} digests
      change, since every stored key and checksum changes with them. *)
end

type t
(** A handle on one store directory, with in-process counters. Handles are
    domain-safe: the pipeline's worker domains share one handle. *)

type counters = {
  c_hits : int;
  c_misses : int;
  c_evictions : int;  (** corrupt entries deleted on read *)
  c_writes : int;
  c_bytes_read : int;
  c_bytes_written : int;
}

val zero_counters : counters
val add_counters : counters -> counters -> counters

val open_ : dir:string -> unit -> t
(** Open (creating directories as needed) a store rooted at [dir]. *)

val dir : t -> string

val find : t -> ns:string -> key:string -> decode:(string -> 'a) -> 'a option
(** Cache lookup. [None] on a missing entry, and on a corrupt or
    undecodable one (which is logged and evicted first). Counts one hit,
    miss or eviction. Traced as a [store.find] span whose child
    [store.decode] span runs [decode]. *)

val add : t -> ns:string -> key:string -> string -> unit
(** Frame and persist a payload (temp file + atomic rename). *)

val memo :
  ?cache_if:('a -> bool) ->
  t option ->
  ns:string ->
  key:string ->
  encode:('a -> string) ->
  decode:(string -> 'a) ->
  (unit -> 'a) ->
  'a
(** [memo store ~ns ~key ~encode ~decode compute]: the persistent tier.
    With [None] it is just [compute ()]; with [Some s] it returns the
    decoded cached artifact when present and intact, otherwise computes,
    stores and returns. All failure modes degrade to recomputation.
    [cache_if] (default: always) gates persisting a freshly computed
    value — e.g. a surface extracted from a degraded image should be
    recomputed, not cached. *)

val stats : t -> counters
(** This handle's in-process counters. *)

val save_counters : t -> unit
(** Merge the counters accumulated since the last save into
    [<dir>/stats.json] (atomically), so `depsurf cache stats` can report
    lifetime totals across runs. Best-effort under concurrent writers. *)

val lifetime : dir:string -> counters
(** The accumulated counters from [<dir>/stats.json] ({!zero_counters}
    when absent or unreadable). *)

(** {2 Maintenance (the [depsurf cache] subcommand)} *)

type entry = { e_ns : string; e_key : string; e_bytes : int; e_mtime : float }

val entries : dir:string -> entry list
(** Every entry on disk, newest first. *)

val verify : dir:string -> int * int
(** Re-check every frame; evict the broken ones. [(ok, evicted)]. Also
    sweeps leftover temp files. *)

val gc : dir:string -> max_bytes:int -> int
(** Evict oldest-first (by mtime) until the store fits in [max_bytes];
    returns the number of entries evicted. *)

val clear : dir:string -> int
(** Delete every entry (and the persisted counters); returns the number
    of entries deleted. *)

val maintenance_generation : dir:string -> int
(** A monotonic counter ([<dir>/maintgen], [0] when absent) bumped by
    every maintenance operation that deletes something: always by
    {!clear}, and by {!verify}/{!gc} when they evicted at least one
    entry. A live server caching responses hydrated from this directory
    compares it against its last-seen value to drop stale bytes (see
    [Ds_serve.Serve.revalidate_store]); the file is written {e after}
    the deletions, so observing a new generation implies the mutated
    directory is already visible. *)
