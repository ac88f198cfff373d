(** Compact binary serialization of the pipeline's cacheable artifacts —
    surfaces, diff fan-outs and report matrices — for the {!Ds_store}
    persistent tier. Unlike {!Export} (the human-readable dataset JSON of
    the paper's artifact), this format is private to the cache: dense,
    versioned, and free to change — bumping {!version} silently invalidates
    every old entry because the version participates in the store keys. *)

open Ds_ksrc

val version : int
(** Schema version of this codec; part of every cache key but the watch
    state's, which is not a codec payload. *)

exception Decode_error of string
(** Raised on an unknown tag or malformed payload ({!Ds_util.Bytesio}'s
    [Truncated] may also escape); the store treats any decode exception as
    a corrupt entry and recomputes. *)

val encode_surface : Surface.t -> string
val decode_surface : string -> Surface.t
(** Roundtrips through {!Surface.v}, which rebuilds the lookup index.

    Every payload of this module starts with a string table and a type
    table, and its body refers to strings and ctypes by index, so
    [decode_surface] returns a surface in which equal names are one
    string and equal ctypes (prototypes included) one value. Indices are
    bounds-checked, and the strings and ctypes a body refers to may not
    weigh more than 16 units per payload byte (a string weighs its length
    plus one, a ctype its node count plus the weight of its names); a
    violation is a {!Decode_error}.
    Encoding is deterministic: [encode_surface (decode_surface b) = b]. *)

val encode_diff : Diff.t -> string
val decode_diff : string -> Diff.t

val encode_version_diffs : ((Version.t * Version.t) * Diff.t) list -> string
val decode_version_diffs : string -> ((Version.t * Version.t) * Diff.t) list
(** The [lts_diffs]/[release_diffs] fan-outs of {!Pipeline.cached}. *)

val encode_config_diffs : (Config.t * Diff.t) list -> string
val decode_config_diffs : string -> (Config.t * Diff.t) list

val encode_matrix : Report.matrix -> string
val decode_matrix : string -> Report.matrix

(** Primitive wire helpers for sibling codecs (e.g. [Ds_graph]) that
    frame their own {!Ds_store} payloads but share this codec's byte
    conventions — uleb128-counted lists, the {!Depset.dep} tagging — and
    its {!Decode_error} discipline. Their strings stay length-prefixed:
    graph, verify and watch-state payloads carry no tables, and their
    formats did not change with the tables. *)
module Prim : sig
  open Ds_util

  val w_str : Bytesio.Writer.t -> string -> unit
  val r_str : Bytesio.Reader.t -> string
  val w_bool : Bytesio.Writer.t -> bool -> unit
  val r_bool : Bytesio.Reader.t -> bool
  val w_list : Bytesio.Writer.t -> (Bytesio.Writer.t -> 'a -> unit) -> 'a list -> unit
  val r_list : Bytesio.Reader.t -> (Bytesio.Reader.t -> 'a) -> 'a list
  val w_opt : Bytesio.Writer.t -> (Bytesio.Writer.t -> 'a -> unit) -> 'a option -> unit
  val r_opt : Bytesio.Reader.t -> (Bytesio.Reader.t -> 'a) -> 'a option
  val w_version : Bytesio.Writer.t -> Version.t -> unit
  val r_version : Bytesio.Reader.t -> Version.t
  val w_config : Bytesio.Writer.t -> Config.t -> unit
  val r_config : Bytesio.Reader.t -> Config.t
  val w_dep : Bytesio.Writer.t -> Depset.dep -> unit
  val r_dep : Bytesio.Reader.t -> Depset.dep

  val expect_eof : Bytesio.Reader.t -> unit
  (** Raises {!Decode_error} when payload bytes remain. *)

  val fail : ('a, unit, string, 'b) format4 -> 'a
  (** Raise {!Decode_error} with a formatted message. *)
end
