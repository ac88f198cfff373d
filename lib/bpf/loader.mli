(** The loader: verify → CO-RE relocate → attach, against a {!Vmlinux}
    view of the target kernel. Each stage produces the paper's explicit
    error classes (Table 2): verifier rejection, relocation error,
    attachment error. *)

type error =
  | Verifier_error of { prog : string; insn : int; msg : string }
  | Relocation_error of { prog : string; type_name : string; path : string list; msg : string }
  | Attachment_error of { prog : string; hook : Hook.t; reason : string }

val error_to_string : error -> string

type attachment = {
  at_prog : string;
  at_hook : Hook.t;
  at_insns : Insn.t list;  (** relocated instructions *)
  at_addrs : int64 list;
      (** resolved hook addresses (kprobe-style hooks); before v6.6, a
          name with several symbols silently attaches to the first one
          (paper §6, commit b022f0c made it an error) *)
  at_field_offsets : (string * string list * int) list;
      (** (struct, path, resolved byte offset) per relocated field access *)
}

val load_and_attach : Vmlinux.t -> Obj.t -> (attachment list, error) result
(** All programs of the object, or the first error. *)

val instantiate_maps : Obj.t -> (string * Maps.t) list
(** Create the object's maps (what BPF_MAP_CREATE does at load time). *)

val load_prog : Vmlinux.t -> Obj.t -> Obj.prog -> (attachment, error) result
(** {!check_prog} against the kernel (a rejection is a [Verifier_error]
    with its [rj_insn]/[rj_msg]), then relocation and attachment. *)

val check_prog : ?kernel:Vmlinux.t -> Obj.prog -> (unit, Verifier.rejection) result
(** The checks a program passes before relocation: {!Verifier.verify},
    then the kfunc registry check — every [Kfunc_call i] must index the
    program's kfunc table ({!Verifier.Kfunc_index_oob}) and, when a
    [kernel] is given, name a function in its BTF
    ({!Verifier.Unknown_kfunc}). A kfunc rejection carries no register
    file and no trail. *)

val resolve_field :
  Ds_btf.Btf.t -> struct_name:string -> path:string list -> (int, string) result
(** Walk a field path against a (target) BTF: returns the byte offset of
    the final field within its containing aggregate, following pointer
    and typedef indirection between links. *)
