(** The serve response-byte cache: an LRU of fully serialized responses.

    A warm hit returns the exact bytes (status, content-type, body) plus
    the strong ETag computed over them when the entry was filled, so the
    request skips the Export → JSON → envelope pipeline entirely. The
    {e caller} builds keys — [Serve] keys on (endpoint segments,
    effective params, body digest, generation), so bumping the
    generation makes every older entry unreachable; stale entries then
    age out through the LRU. Thread-safe (one mutex; all operations are
    O(1) plus hashing). {!find_or_fill} is single-flight: concurrent
    misses on one key render the response once. *)

type entry = {
  e_status : int;
  e_ctype : string;
  e_body : string;
  e_etag : string;  (** strong ETag, quoted, digest of the body bytes *)
}

type t

val create : ?max_entries:int -> ?max_bytes:int -> unit -> t
(** Defaults: 512 entries, 64 MiB of cached bytes (body-dominated
    accounting). Eviction is strictly LRU, driven by whichever cap is
    exceeded. Raises [Invalid_argument] on non-positive caps. *)

val find_or_fill :
  t -> string -> (unit -> entry) -> [ `Hit of entry | `Miss of entry * int ]
(** Lookup; a hit moves the entry to the most-recently-used position.
    On a miss run [fill] and, when its status is 200, insert the result
    and evict from the LRU tail until both caps hold again; an entry
    larger than the byte cap is not stored. Concurrent misses on the
    same key wait for the one fill in flight and share its result (or
    its exception, after which the next request retries).
    [`Miss (e, evicted)] counts the entries this call's insert
    evicted. *)

val stats : t -> int * int
(** [(entries, bytes)] currently cached. *)
