(** DWARF-lite DIE trees and their binary encoding.

    The encoding follows the real DWARF discipline: a [.debug_abbrev]
    section of abbreviation declarations (ULEB code, tag, has-children
    flag, attribute/form pairs) shared by all units, and a [.debug_info]
    section of per-compile-unit contributions, each with a unit header
    followed by the DIE tree; sibling lists are terminated by a zero
    abbreviation code. References are [DW_FORM_ref4] section-relative
    offsets. Tag, attribute and form numbers are the standard DWARF 4
    values (see {!Dw}).

    DIEs live in an arena and reference each other by arena id, which
    keeps the structure acyclic and makes encode/decode a bijection on
    the tree shape. *)

module Dw : sig
  (** Standard DWARF constants (subset). *)

  val tag_array_type : int
  val tag_enumeration_type : int
  val tag_formal_parameter : int
  val tag_member : int
  val tag_pointer_type : int
  val tag_compile_unit : int
  val tag_structure_type : int
  val tag_subroutine_type : int
  val tag_typedef : int
  val tag_union_type : int
  val tag_base_type : int
  val tag_const_type : int
  val tag_enumerator : int
  val tag_subprogram : int
  val tag_variable : int
  val tag_volatile_type : int
  val tag_subrange_type : int
  val tag_inlined_subroutine : int
  val tag_call_site : int
  val tag_unspecified_parameters : int

  val at_name : int
  val at_byte_size : int
  val at_encoding : int
  val at_type : int
  val at_low_pc : int
  val at_high_pc : int
  val at_decl_file : int
  val at_decl_line : int
  val at_declaration : int
  val at_inline : int
  val at_external : int
  val at_abstract_origin : int
  val at_data_member_location : int
  val at_upper_bound : int
  val at_prototyped : int
  val at_const_value : int
  val at_call_file : int
  val at_call_line : int
  val at_call_origin : int

  val inl_not_inlined : int

  val inl_inlined : int
  (** compiler-inlined, not declared inline *)

  val inl_declared_not_inlined : int
  val inl_declared_inlined : int

  val enc_signed : int
  val enc_unsigned : int
  val enc_boolean : int
  val enc_signed_char : int
  val enc_unsigned_char : int
  val enc_float : int
end

type value =
  | String of string
  | Int of int
  | Addr of int64
  | Flag
  | Ref of int  (** arena id of the referenced DIE *)

type die = { tag : int; attrs : (int * value) list; children : int list }

type t
(** An arena of DIEs plus the list of compile-unit roots. *)

exception Bad_dwarf of string

module Builder : sig
  type arena = t
  type t

  val create : unit -> t
  val add : t -> tag:int -> attrs:(int * value) list -> children:int list -> int
  (** Children must already exist in the arena (build bottom-up). *)

  val add_root : t -> int -> unit
  (** Mark a DIE (normally a compile unit) as a top-level unit root. *)

  val finish : t -> arena
end

val get : t -> int -> die
val roots : t -> int list
val size : t -> int

val attr : die -> int -> value option
val attr_string : die -> int -> string option
val attr_int : die -> int -> int option
val attr_addr : die -> int -> int64 option
val attr_ref : die -> int -> int option
val has_flag : die -> int -> bool

val encode : t -> string * string
(** [encode t] is [(debug_info, debug_abbrev)]. *)

val decode :
  ?mode:Ds_util.Diag.mode -> info:string -> abbrev:string -> unit -> t Ds_util.Diag.outcome
(** Unified entrypoint. [`Strict] (the default) raises [Bad_dwarf] on
    the first malformed byte, returning empty [diags]. [`Lenient] never
    raises: a failure inside one compile unit skips just that unit
    (resynchronizing on the unit header's length field), dangling
    references are dropped, and the losses are described in [diags].
    The trailing [unit] forces resolution of the optional [?mode]. *)
