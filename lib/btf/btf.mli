(** BPF Type Format (BTF) encoder/decoder.

    This follows the real BTF wire format: a header with the [0xeB9F]
    magic, a type section of kind-tagged records (INT, PTR, ARRAY, STRUCT,
    UNION, ENUM, FWD, TYPEDEF, VOLATILE, CONST, FUNC, FUNC_PROTO, FLOAT)
    and a NUL-separated string table. Type ids start at 1; id 0 is [void].

    Two layers are exposed: the low-level record table ({!t}, {!encode},
    {!decode}) and a high-level bridge to {!Ds_ctypes} ({!of_env},
    {!to_env}) used by the mini compiler when emitting a kernel image's
    [.BTF] section and by DepSurf/CO-RE when consuming it. *)

type member = { m_name : string; m_type : int; m_offset_bits : int }
type bparam = { p_name : string; p_type : int }

type kind =
  | Void  (** only as the implicit id 0; never stored *)
  | Int of { name : string; bits : int; signed : bool }
  | Ptr of int
  | Array of { elem : int; index : int; nelems : int }
  | Struct of { name : string; size : int; members : member list }
  | Union of { name : string; size : int; members : member list }
  | Enum of { name : string; size : int; values : (string * int) list }
  | Fwd of { name : string; union : bool }
  | Typedef of { name : string; typ : int }
  | Volatile of int
  | Const of int
  | Restrict of int
  | Func of { name : string; proto : int }
  | Func_proto of { ret : int; params : bparam list }
  | Float of { name : string; bits : int }

type t

exception Bad_btf of string

val create : unit -> t
val add : t -> kind -> int
(** Append a type record; returns its id (first is 1). *)

val get : t -> int -> kind
(** [get t 0] is [Void]. Raises [Bad_btf] on out-of-range ids. *)

val length : t -> int
(** Number of records (ids run 1..length). *)

val iteri : t -> (int -> kind -> unit) -> unit

val encode : t -> string

val decode : ?mode:Ds_util.Diag.mode -> string -> t Ds_util.Diag.outcome
(** Unified entrypoint. [`Strict] (the default) raises [Bad_btf] on the
    first malformed byte and returns empty [diags]. [`Lenient] never
    raises: every record decoded before the first failure point is kept
    and the loss (truncated records, bad string offsets, unsupported
    kinds, bogus section bounds) is described in [diags]. *)

(** {2 Bridge to the canonical C type model} *)

val of_env : Ds_ctypes.Decl.type_env -> Ds_ctypes.Decl.func_decl list -> t
(** Lower a type environment plus function declarations. References to
    structs that have no definition in the environment become [Fwd]
    records, as real kernels do for opaque types. *)

val to_env : ptr_size:int -> t -> Ds_ctypes.Decl.type_env * Ds_ctypes.Decl.func_decl list
(** Raise a BTF table back into declarations. *)

val to_env_lenient :
  ptr_size:int ->
  t ->
  Ds_ctypes.Decl.type_env * Ds_ctypes.Decl.func_decl list * Ds_util.Diag.t list
(** Like {!to_env}, but broken type references (dangling ids, cycles,
    funcs without a prototype — all possible in a partially decoded
    table) degrade to [void] or are skipped instead of raising. *)

val find_struct : t -> string -> (int * kind) option
(** Find a [Struct] or [Union] record by name. *)

val find_func : t -> string -> Ds_ctypes.Decl.func_decl option

val member_offset : t -> struct_name:string -> field:string -> (int * int) option
(** [member_offset t ~struct_name ~field] is [Some (offset_bits, type_id)]
    for the named field, [None] when struct or field is absent. This is
    the lookup CO-RE relocation performs against the target kernel. *)

val type_name : t -> int -> string option
(** Name of a named record ([Struct], [Typedef], ...), [None] for
    anonymous kinds. *)
