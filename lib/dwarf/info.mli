(** The debug information of an image and its one binary codec: compile
    units containing subprogram declarations, type definitions,
    inlined-call records and call sites.

    This is the bridge between the mini compiler (which produces a [cu]
    list describing what it compiled) and DepSurf (which recovers the same
    [cu] list from the [.debug_info]/[.debug_abbrev] bytes of an image).

    The encoding follows the real DWARF discipline: a [.debug_abbrev]
    section of abbreviation declarations (ULEB code, tag, has-children
    flag, attribute/form pairs) shared by all units, and a [.debug_info]
    section of per-compile-unit contributions, each with a unit header
    followed by the DIE tree; sibling lists are terminated by a zero
    abbreviation code. Type references are [DW_FORM_ref4]
    section-relative offsets. Tag, attribute and form numbers are the
    standard DWARF 4 values.

    Simplifications relative to real DWARF, chosen to keep the codec small
    while preserving everything DepSurf consumes:
    - [DW_AT_decl_file]/[DW_AT_call_file] carry the path string directly
      instead of an index into the line-number program;
    - inlined subroutines and call sites name their callee with
      [DW_AT_name]/[DW_AT_call_origin] strings rather than
      [DW_AT_abstract_origin] references (our subprogram DIEs live in
      other units);
    - every unit shares one abbreviation table at offset 0. *)

open Ds_ctypes

type inlined_call = {
  ic_callee : string;  (** name of the function whose body was inlined *)
  ic_pc : int64;  (** address of the inlined body inside the caller *)
  ic_call_line : int;
}

type subprogram = {
  sp_name : string;
  sp_proto : Ctype.proto;
  sp_file : string;
  sp_line : int;
  sp_external : bool;  (** non-static *)
  sp_declared_inline : bool;  (** carried [inline] in the source *)
  sp_low_pc : int64 option;  (** [None] when no out-of-line copy exists *)
  sp_inlined : inlined_call list;  (** callees inlined into this function *)
  sp_calls : string list;  (** callees invoked by a real call *)
}

type cu = {
  cu_name : string;  (** source file, e.g. ["fs/sync.c"] *)
  cu_subprograms : subprogram list;
  cu_structs : Decl.struct_def list;  (** aggregates defined in this unit *)
  cu_enums : Decl.enum_def list;
  cu_typedefs : Decl.typedef_def list;
}

exception Bad_dwarf of string

val encode : cu list -> string * string
(** [(debug_info, debug_abbrev)] sections. Type DIEs sit at the top level
    of their unit, ahead of every DIE that refers to them, so {!decode}
    returns a unit's structs, enums and typedefs in that placement order,
    a referenced one first, not in the input order. *)

val decode :
  ?mode:Ds_util.Diag.mode -> info:string -> abbrev:string -> unit -> cu list Ds_util.Diag.outcome
(** Inverse of {!encode}. A malformed unit, a truncated abbrev table, a
    dangling reference or an undecodable compile unit is reported to the
    mode's {!Ds_util.Diag.Sink}: [`Strict] (the default) raises
    [Bad_dwarf] at the first one; [`Lenient] skips just that unit
    (resynchronizing on the unit header's length field; eight
    consecutive skips drop the rest of the section), degrades on the
    truncated table, drops the reference, or skips the compile unit, and
    describes the loss in [diags]. The trailing [unit] forces resolution
    of the optional [?mode]. *)
