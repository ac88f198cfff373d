(** High-level view of the debug information: compile units containing
    subprogram declarations, type definitions, inlined-call records and
    call sites.

    This is the bridge between the mini compiler (which produces a [cu]
    list describing what it compiled) and DepSurf (which recovers the same
    [cu] list from the [.debug_info]/[.debug_abbrev] bytes of an image).

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

val encode : cu list -> string * string
(** [(debug_info, debug_abbrev)] sections. *)

val decode :
  ?mode:Ds_util.Diag.mode -> info:string -> abbrev:string -> unit -> cu list Ds_util.Diag.outcome
(** Inverse of {!encode}. [`Strict] (the default) raises [Die.Bad_dwarf]
    at the first malformed unit, DIE or type reference; [`Lenient]
    skips malformed compile units individually (resynchronizing on unit
    boundaries) and describes the losses in [diags]. The trailing
    [unit] forces resolution of the optional [?mode]. *)
