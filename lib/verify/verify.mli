(** Structured verifier-rejection diagnostics.

    {!Ds_bpf.Verifier} answers {e whether} a program loads;
    this module answers {e why not}, in a form a tool author can act on.
    A rejected program yields a {!finding}: the violated {!Taxonomy}
    rule, the offending instruction offset, a disassembled window around
    it ({!Ds_bpf.Disasm.line}), the abstract register file at the
    failure point, the forked-path trail that reached it, and a
    suggested bridge — with {!Depsurf.Compat} stable probes named when
    the rejection is dependency-induced rather than program-induced.

    Reports are produced from raw object bytes ({!verify_bytes} — never
    raises, mirrors the loader's lenient pipeline), persist through
    {!Ds_store} keyed by object digest ({!of_dataset}, warm
    re-verification is decode-only), and render identically as human
    text ({!render}), dataset JSON ({!report_json}) and the public
    envelope ({!envelope}) shared byte-for-byte by [depsurf doctor
    --json] and [POST /v1/verify].

    The second half is the fuzz harness: {!campaign_insns} and
    {!campaign_obj} drive {!Ds_faultgen} mutation corpora through the
    verifier and loader, asserting nothing ever escapes as an exception
    and every rejection classifies ({!campaign} tallies). *)

type finding = {
  fd_rule : Taxonomy.t;
  fd_insn : int;  (** offending instruction index; [-1] = whole-program *)
  fd_msg : string;  (** the verifier/loader message, byte-identical *)
  fd_window : (int * string) list;
      (** disassembly around the offending insn: (index, rendered line) *)
  fd_regs : (string * string) list;
      (** abstract register file at the failure point, [("r0",
          "uninit"); ...]; empty for whole-program rejections *)
  fd_trail : (int * bool) list;
      (** branch decisions (insn index, taken?) of the path that reached
          the failure, oldest first *)
  fd_suggestion : string;  (** {!Taxonomy.suggestion} for this finding *)
}

type prog_report = {
  pr_name : string;
  pr_section : string;
  pr_insns : int;  (** instruction count *)
  pr_finding : finding option;  (** [None] = accepted *)
}

type report = {
  rp_obj : string;  (** object name *)
  rp_kernel : string option;  (** target kernel tag, when name-checking *)
  rp_digest : string;  (** content digest of the object bytes *)
  rp_progs : prog_report list;
  rp_diags : Ds_util.Diag.t list;
      (** object-read diagnostics plus one [Degraded] entry per rejected
          program; drives health/exit-code on every surface *)
}

val digest : string -> string
(** Content digest ({!Ds_store.Store.Hash}) of raw object bytes — the
    report's cache identity. *)

val verify_insns : ?section:string -> Ds_bpf.Insn.t list -> finding option
(** Verify one instruction list; [None] = accepted. Never raises.
    [section] (the attach section) feeds the compat hint. *)

val verify_stream : ?section:string -> string -> finding option
(** Decode an encoded instruction stream and verify it; a stream that
    does not decode yields a {!Taxonomy.Malformed_insn} finding. Never
    raises — the fuzz harness's target. *)

val verify_prog : ?kernel:Ds_bpf.Vmlinux.t -> Ds_bpf.Obj.prog -> finding option
(** {!verify_insns} plus the loader's structural kfunc checks: a
    [Kfunc_call] must index the kfunc table, and (when [kernel] is
    given) the name must exist in its BTF. *)

val verify_bytes : ?kernel:Ds_bpf.Vmlinux.t -> string -> report
(** The full pipeline on raw bytes: lenient object read, then
    {!verify_prog} per program. Never raises. *)

val build_count : int Atomic.t
(** Incremented by every {!verify_bytes}; the [store warm re-verify]
    test asserts it stays flat across a warm {!of_dataset} run
    (decode-only). *)

(** {2 Persistence} *)

val ns : string
(** The {!Ds_store} namespace, ["verify"]. *)

val codec_version : int

val encode : report -> string
val decode : string -> report
(** Raises {!Depsurf.Codec.Decode_error} on malformed payloads (the
    store evicts and recomputes). *)

val store_key : Depsurf.Dataset.t -> image:string -> digest:string -> string

val of_dataset :
  Depsurf.Dataset.t -> Ds_ksrc.Version.t -> Ds_ksrc.Config.t -> string -> report
(** Verify object bytes against a study image's kernel, memoized
    through the dataset's store keyed by (image tag, object digest) — a
    warm re-verification decodes, it does not re-verify. There is no
    in-process table: the bytes are client input. Reports whose object
    read was [Fatal] are not cached. *)

(** {2 Views} *)

val findings : report -> (prog_report * finding) list
(** The rejected programs, in object order. *)

val report_json : report -> Ds_util.Json.t
val envelope : report -> Ds_util.Json.t
(** {!report_json} wrapped in the {!Depsurf.Api} envelope with health
    derived from [rp_diags] — the exact payload of [depsurf doctor
    --json] and [POST /v1/verify]. *)

val render : report -> string
(** Human-readable rejection sections for the CLI. *)

(** {2 Fuzz campaigns} *)

type campaign = {
  cp_total : int;
  cp_accepted : int;
  cp_rejected : int;
  cp_crashed : (string * string) list;
      (** (mutation name, exception) — must be empty *)
  cp_unclassified : int;
      (** findings failing the {!Taxonomy.id}/[of_id] round-trip or
          missing a suggestion — must be 0 *)
  cp_rules : (string * int) list;  (** rejection tally by rule id *)
}

val merge : campaign -> campaign -> campaign

val campaign_insns :
  ?count:int -> seed:int64 -> Ds_bpf.Obj.prog -> campaign
(** Mutate the program's {e encoded instruction stream}
    ({!Ds_faultgen.Faultgen.bytecode_mutations}) and push every mutant
    through {!verify_stream}. *)

val campaign_obj :
  ?count:int -> seed:int64 -> ?kernel:Ds_bpf.Vmlinux.t -> string -> campaign
(** Mutate whole object bytes ({!Ds_faultgen.Faultgen.mutations}) and
    push every mutant through {!verify_bytes}. *)
