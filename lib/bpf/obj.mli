(** eBPF object files.

    An object is an ELF relocatable carrying one program per section (the
    libbpf [SEC("kprobe/do_unlinkat")] convention), a [.BTF] section with
    the types the program was compiled against, and a [.BTF.ext] section
    whose CO-RE relocation records describe every struct-field access by
    (local type id, member-index access string, relocation kind) — the
    format libbpf resolves at load time (paper §7).

    Deviation from the real format, documented: [.BTF.ext] records
    reference their strings in a trailing blob inside [.BTF.ext] itself
    rather than in [.BTF]'s string table, keeping the two codecs
    independent. *)

type reloc_kind = Field_byte_offset | Field_exists

type core_reloc = {
  cr_insn : int;  (** index of the instruction to patch *)
  cr_type_id : int;  (** root type in the {e program's} BTF *)
  cr_access : int list;  (** member indices along the access chain,
                             e.g. [[0; 2]] = 1st deref, member 2 *)
  cr_kind : reloc_kind;
}

type prog = {
  p_name : string;
  p_section : string;  (** e.g. ["kprobe/do_unlinkat"],
                           ["tracepoint/block/block_rq_issue"] *)
  p_insns : Insn.t list;
  p_relocs : core_reloc list;
  p_kfuncs : string list;
      (** kfunc name table; [Kfunc_call i] indexes into it *)
}

type t = {
  o_name : string;
  o_built_for : string;  (** banner-style tag of the build kernel, e.g.
                             ["v5.4/x86"] — informational *)
  o_progs : prog list;
  o_maps : Maps.def list;  (** map definitions (the ".maps" section) *)
  o_btf : Ds_btf.Btf.t;
}

exception Bad_obj of string

val write : t -> string
(** Serialize as an ELF object (machine [Bpf]). Raises [Bad_obj] when two
    programs share a section name (the section is the object's key for
    relocation and kfunc tables). *)

val read : ?mode:Ds_util.Diag.mode -> string -> t Ds_util.Diag.outcome
(** Unified entrypoint. [`Strict] (the default) raises [Bad_obj] on any
    malformed byte (raw [Bytesio.Truncated] escapes are wrapped) and
    returns empty [diags]. [`Lenient] never raises: undecodable pieces
    (BTF, maps, relocations, individual program sections) are dropped
    and recorded as diagnostics; a non-ELF or non-BPF input yields an
    empty object with a [Fatal] diagnostic. *)

val access_path : t -> int -> int list -> (string * string list) option
(** [access_path obj type_id access] resolves a CO-RE access chain against
    the object's own BTF: returns the root struct name and the field-name
    path, following pointers/typedefs as libbpf does. [None] when the ids
    are invalid. *)

val hook_of_section : string -> Hook.t option
(** Parse a section name into a hook descriptor. *)
