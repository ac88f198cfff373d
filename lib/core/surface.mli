(** The dependency surface of one kernel image (paper §2.3): every
    construct an eBPF program can depend on, extracted from the image's
    binary artifacts only — DWARF debug info, the symbol table, BTF, and
    raw data sections. Nothing here looks at the synthetic "source":
    DepSurf works on compiled kernels, exactly as in the paper. *)

open Ds_ksrc
open Ds_ctypes

type decl_instance = {
  di_tu : string;  (** compile unit the declaration came from *)
  di_file : string;  (** declared file (header for header-defined) *)
  di_line : int;
  di_proto : Ctype.proto;
  di_external : bool;
  di_declared_inline : bool;
  di_low_pc : int64 option;
}

type inline_site = { is_caller : string; is_tu : string; is_pc : int64 }

type func_entry = {
  fe_name : string;
  fe_decls : decl_instance list;
  fe_symbols : Ds_elf.Elf.symbol list;  (** exact-name text symbols *)
  fe_suffixed : Ds_elf.Elf.symbol list;  (** ["name.isra.0"]-style symbols *)
  fe_inline_sites : inline_site list;  (** call sites where the body was
                                           copied into the caller *)
  fe_callers : string list;  (** direct (non-inlined) callers *)
}

type tp_entry = {
  te_name : string;
  te_class : string;
  te_event_struct : Decl.struct_def option;  (** from BTF *)
  te_func : Decl.func_decl option;  (** tracing-function prototype *)
}

type index
(** Precomputed name→entry maps; lookups below are logarithmic. *)

type t = {
  s_version : Version.t;
  s_arch : Config.arch;
  s_flavor : Config.flavor;
  s_gcc : int * int;
  s_funcs : func_entry list;  (** sorted by name *)
  s_structs : Decl.struct_def list;  (** sorted; event structs excluded *)
  s_tracepoints : tp_entry list;
  s_syscalls : string list;
  s_compat_traceable : bool;
      (** whether 32-bit compat syscalls can be traced on this arch *)
  s_health : Ds_util.Diag.t list;
      (** ingestion diagnostics: empty for a cleanly-parsed image,
          otherwise what was lost during lenient extraction *)
  s_index : index;
}

val v :
  version:Version.t ->
  arch:Config.arch ->
  flavor:Config.flavor ->
  gcc:int * int ->
  funcs:func_entry list ->
  structs:Decl.struct_def list ->
  tracepoints:tp_entry list ->
  syscalls:string list ->
  t
(** Assemble a surface from parts (building the index); used by the
    dataset-JSON importer. Lists are sorted by name; health is empty
    (use {!with_health}). *)

val with_health : Ds_util.Diag.t list -> t -> t

val extract : ?mode:Ds_util.Diag.mode -> string -> t Ds_util.Diag.outcome
(** Unified entrypoint: full extraction straight from the raw image
    bytes. [`Strict] (the default) raises the parsers' typed exceptions
    ([Bad_elf], [Bad_vmlinux], ...) on the first problem and returns
    empty [diags]. [`Lenient] never raises: whatever the four parsers
    could not recover is described in [diags] (mirrored in the
    surface's [s_health]); a hopeless input (not an ELF, or a BPF
    object) yields an empty surface whose health carries a [Fatal]
    diagnostic. *)

val of_image : Ds_elf.Elf.t -> t
(** Strict extraction from an already-parsed image (the historical
    [extract]). *)

val of_vmlinux : Ds_bpf.Vmlinux.t -> t
(** Reuse an already-loaded kernel view (avoids re-decoding BTF and the
    data sections). *)

val of_vmlinux_lenient : ?health:Ds_util.Diag.t list -> Ds_bpf.Vmlinux.t -> t
(** Lenient counterpart of {!of_vmlinux}: missing DWARF empties the
    function surface, a dead BTF falls back to DWARF struct definitions.
    [health] prepends diagnostics already collected upstream. *)

val health : t -> Ds_util.Diag.t list
val degraded : t -> bool
(** True when any health diagnostic is [Degraded] or [Fatal]. *)

val config : t -> Config.t
val tag : t -> string

val find_func : t -> string -> func_entry option
val find_struct : t -> string -> Decl.struct_def option
val find_field : t -> string -> string -> Decl.field option
val find_tracepoint : t -> string -> tp_entry option
val has_syscall : t -> string -> bool

val representative_proto : func_entry -> Ctype.proto
(** The declaration used for cross-image comparison (the external decl
    when one exists, else the first). *)

val counts : t -> int * int * int * int
(** (functions, structs, tracepoints, syscalls). *)
