(** Delta encoding of dependency surfaces (the store's "delta" tier).

    A release's surface is stored as a base-reference plus per-symbol
    add/remove/change ops against its predecessor, so warm extraction
    and diffing of release N+1 cost O(changed symbols) instead of
    O(image). The encoding is {!Codec}-framed and versioned; applying a
    delta to its base reconstructs a surface whose {!Codec.encode_surface}
    bytes are identical to the non-delta encoding (property-tested). *)

open Ds_ksrc

val codec_version : int
(** Schema version of the delta wire format; participates in the store
    keys of the "delta" namespace alongside {!Codec.version}. *)

val ns : string
(** The store namespace for delta entries, ["delta"]. *)

(** One per-symbol operation against the base surface. [`Add] and
    [`Change] carry the full replacement entry (encoded with the same
    entry codecs as {!Codec.encode_surface}, which is what makes the
    reconstruction byte-identical); [`Remove] carries only the name. *)
type 'e op = Add of 'e | Remove of string | Change of 'e

type t = {
  dl_base_ref : string;  (** {!digest} of the base surface's canonical encoding *)
  dl_version : Version.t;  (** header of the {e next} surface, stored whole *)
  dl_arch : Config.arch;
  dl_flavor : Config.flavor;
  dl_gcc : int * int;
  dl_health : Ds_util.Diag.t list;
  dl_funcs : Surface.func_entry op list;
  dl_structs : Ds_ctypes.Decl.struct_def op list;
  dl_tracepoints : Surface.tp_entry op list;
  dl_syscalls : string op list;  (** add/remove only; the name is the payload *)
}

type counts = { dc_adds : int; dc_removes : int; dc_changes : int }

val counts : t -> counts
(** Total op counts across all four sections — the O(changed) bound the
    [ops proportional to change] test holds. *)

val digest : Surface.t -> string
(** Content digest of [Codec.encode_surface s]; the base-reference a
    delta is checked against. O(surface) — callers on the warm path
    should memoize per base. *)

val diff_surfaces : ?base_ref:string -> base:Surface.t -> Surface.t -> t
(** Compute the op list turning [base] into the given next surface, by
    merge-joining the sorted per-section name lists. O(base + next).
    [base_ref], when given, must be [digest base]; a caller that keeps
    it per base saves re-encoding the base on every call. *)

val encode : t -> string
val decode : string -> t
(** Raises {!Codec.Decode_error} on malformed payloads, like the other
    store codecs. *)

val apply : base:Surface.t -> t -> Surface.t
(** Reconstruct the next surface. Verifies the delta's base-reference
    against [digest base] and raises {!Codec.Decode_error} on mismatch
    (a delta applied to the wrong base is a corrupt store entry).
    [Codec.encode_surface (apply ~base d)] is byte-identical to the
    non-delta encoding of the surface [d] was computed from. *)

val to_diff : ?mode:Diff.mode -> base:Surface.t -> t -> Diff.t
(** Derive the release diff straight from the ops — O(changed symbols),
    no second surface in memory: change reasons come from
    {!Diff.func_changes}/{!Diff.field_changes}/{!Diff.tp_changes}
    against the base entries, [d_common] from the base population. *)

val changed_deps : t -> Depset.dep list
(** The removed/changed constructs as {!Depset.dep} nodes (sorted,
    deduplicated) — the seed set intersected with subscriber depsets via
    the dependency graph's reverse closure. Additions are not included:
    a registered dependency cannot break by a construct appearing. *)
