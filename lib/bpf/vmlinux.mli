(** Kernel-side view of a vmlinux image: the interfaces a loader (libbpf)
    and DepSurf both consume — kallsyms-style symbol lookup, the BTF blob,
    the ftrace events registry read straight out of the data sections, and
    the system-call table.

    This module performs the paper's §3.4 static extraction: it never
    "boots" anything; tracepoints come from dereferencing the pointer
    array between [__start_ftrace_events] and [__stop_ftrace_events], and
    system calls from [sys_call_table] plus reverse symbol lookup, with
    pointer size and byte order taken from the image's machine. *)

open Ds_ksrc

type tracepoint = {
  vtp_event : string;
  vtp_class : string;
  vtp_func : string option;  (** tracing function symbol, if resolvable *)
  vtp_fmt : string;
}

type t = {
  v_img : Ds_elf.Elf.t;
  v_version : Version.t;
  v_flavor : Config.flavor;
  v_gcc : int * int;
  v_arch : Config.arch;
  v_btf : Ds_btf.Btf.t;
  v_tracepoints : tracepoint list;
  v_syscalls : string list;  (** names, in table order *)
}

exception Bad_vmlinux of string

val parse_banner : string -> Version.t * Config.flavor * (int * int)
(** Parse ["Linux version 5.4.0-generic ... (gcc version 9.2.0 ..."]. *)

val load : ?mode:Ds_util.Diag.mode -> Ds_elf.Elf.t -> t Ds_util.Diag.outcome
(** Read the kernel view out of an image. Whatever cannot be recovered —
    banner, BTF, tracepoint slots, syscall slots, including bad derefs
    into the data sections — is reported to the mode's
    {!Ds_util.Diag.Sink}: [`Strict] (the default) raises [Bad_vmlinux]
    at the first problem; [`Lenient] substitutes an empty fallback and
    describes the loss in [diags]. Neither mode walks a table of more
    than 2{^20} slots. *)

val symbols_named : t -> string -> Ds_elf.Elf.symbol list
(** All symbols with exactly that name (text symbols first). *)

val suffixed_symbols : t -> string -> Ds_elf.Elf.symbol list
(** Symbols of the form ["name.suffix..."] (transformed copies). *)

val has_tracepoint : t -> string -> bool
val find_tracepoint : t -> string -> tracepoint option
val has_syscall : t -> string -> bool
val tag : t -> string
(** e.g. ["v5.4/x86/generic"]. *)
