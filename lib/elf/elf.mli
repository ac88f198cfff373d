(** A compact ELF64 container: enough of the real format for `vmlinux`-like
    images and eBPF object files.

    The writer emits a well-formed ELF64 file — header, section bodies,
    section-header table, `.shstrtab`, and (when symbols are present) a
    real `.symtab`/`.strtab` pair with Elf64_Sym records. The reader parses
    it back. Both honour byte order (our ppc images are big-endian), and
    {!Deref} resolves virtual addresses into section bytes, which is how
    tracepoints and the `sys_call_table` are discovered without booting the
    kernel (paper §3.4). *)

type machine = X86_64 | Aarch64 | Arm | Ppc64 | Riscv64 | Bpf

val machine_to_string : machine -> string
val machine_endian : machine -> Ds_util.Bytesio.endian
val machine_ptr_size : machine -> int
(** 8 for the 64-bit machines, 4 for [Arm] (arm32). *)

type sym_bind = Local | Global | Weak

type symbol = {
  sym_name : string;
  sym_value : int64;  (** virtual address *)
  sym_size : int;
  sym_bind : sym_bind;
  sym_section : string;  (** name of the section the symbol lives in *)
}

type section = {
  sec_name : string;
  sec_addr : int64;  (** virtual load address; 0 for non-allocated sections *)
  sec_data : string;
}

type t = {
  machine : machine;
  sections : section list;
  symbols : symbol list;
}

exception Bad_elf of string

val write : t -> string
(** Serialize to ELF64 bytes. *)

val read : ?mode:Ds_util.Diag.mode -> string -> t Ds_util.Diag.outcome
(** Unified entrypoint. [`Strict] (the default) parses bytes produced by
    {!write} (or any file using the same subset) and raises [Bad_elf] on
    the first malformed byte, returning empty [diags]. [`Lenient] never
    raises: whatever parses cleanly is kept (malformed sections, symbol
    records or an unknown [e_machine] are skipped or defaulted) and
    everything lost is described in [diags]; an unrecoverable failure
    (not an ELF file at all) yields an empty image plus a [Fatal]
    diagnostic. *)

val find_section : t -> string -> section option
val section_reader : t -> string -> Ds_util.Bytesio.Reader.t option
(** Reader over a section's bytes, with the image's endianness. *)

val find_symbol : t -> string -> symbol option
(** First symbol with that name ([None] if absent). *)

val symbols_at : t -> int64 -> symbol list
(** All symbols whose value equals the address. *)

module Deref : sig
  type image = t
  type t

  val make : image -> t
  val endian : t -> Ds_util.Bytesio.endian
  val ptr_size : t -> int

  val in_image : t -> int64 -> bool
  (** Whether the address falls inside an allocated section. *)

  val read_ptr : t -> int64 -> int64
  (** Read a pointer-sized word at a virtual address (4 bytes on arm32,
      8 elsewhere; byte order per machine). Raises [Bad_elf] when the
      address is not mapped. *)

  val read_u32 : t -> int64 -> int
  val read_cstring : t -> int64 -> string
  val reader_at : t -> int64 -> Ds_util.Bytesio.Reader.t
  (** Reader positioned at the virtual address, spanning the rest of its
      section. *)
end
