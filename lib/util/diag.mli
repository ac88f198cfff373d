(** Structured diagnostics for best-effort binary ingestion.

    The binary parsers (ELF, DWARF, BTF, BPF object, vmlinux tables) run
    in two modes over one body: strict (raise a typed exception at the
    first problem) and lenient (extract whatever parses cleanly and
    describe the rest as a list of diagnostics); see {!mode} and
    {!Sink}. A diagnostic records what was lost, where, and how bad it
    is:

    - [Fatal]: nothing usable could be extracted from the artifact
      (e.g. not an ELF file at all).
    - [Degraded]: the artifact was read, but part of the analysis surface
      is missing or unreliable (e.g. a truncated [.BTF] section).
    - [Warning]: cosmetic or informational; the analysis is unaffected.

    The severity lattice is [Warning < Degraded < Fatal]; the health of a
    run is the worst severity it emitted, and maps onto process exit
    codes ([0] clean, [1] fatal, [2] degraded — see {!exit_code}). *)

type severity = Warning | Degraded | Fatal

val severity_to_string : severity -> string

val severity_compare : severity -> severity -> int
(** Orders [Warning < Degraded < Fatal]. *)

type t = {
  d_severity : severity;
  d_component : string;
      (** Which parser/stage emitted it: ["elf"], ["btf"], ["dwarf"],
          ["obj"], ["vmlinux"], ["surface"]. *)
  d_context : string option;
      (** Optional finer location: a section, table or symbol name such
          as [".symtab"] or ["sys_call_table"]. *)
  d_offset : int option;  (** Byte offset into the component's input. *)
  d_message : string;
}

val v : ?context:string -> ?offset:int -> severity -> component:string -> string -> t

val to_string : t -> string
(** One line: [severity component[@offset] (context): message]. *)

val demote : t -> t
(** [Fatal] becomes [Degraded]; used when a sub-parser's total failure
    (fatal for that component) only degrades the enclosing artifact. *)

val worst : t list -> severity option
(** [None] on the empty list (a clean run). *)

val is_degraded : t list -> bool
(** True when any diagnostic is [Degraded] or [Fatal]. *)

val exit_code : t list -> int
(** [0] clean (no diagnostics, or warnings only), [1] fatal, [2] degraded. *)

type mode = [ `Strict | `Lenient ]
(** Parsing mode shared by every binary parser's entrypoint. Both modes
    run the same parser body; they differ only in the {!Sink} that body
    reports problems to. [`Strict] raises the parser's typed exception
    at the first problem — the mode for artifacts we wrote ourselves,
    where a parse failure is a bug. [`Lenient] extracts whatever parses
    cleanly and reports the rest as diagnostics — the mode for files
    from outside. *)

type 'a outcome = { ok : 'a; diags : t list }
(** The shared result shape of the parsers' [?mode] entrypoints: the
    extracted value plus the diagnostics describing what was lost along
    the way ([diags = []] in strict mode — strict raises instead of
    degrading). *)

val outcome : ?diags:t list -> 'a -> 'a outcome
val ok : 'a outcome -> 'a
val diags : 'a outcome -> t list

(** Where a parser sends every problem it finds, once. The sink is the
    one place that decides what a problem costs:

    - lenient: the diagnostic is recorded (at most 128 of a sink's own
      reports are kept; the tail is summarized by a trailing [Warning]
      notice, so a corrupt 64k-section header table does not produce
      64k diagnostics);
    - strict: the parser's typed exception is raised at once, carrying
      ["context: message"] (just [message] without a context).

    Parsers report only [Degraded] and [Fatal] problems, so strict
    raises exactly when lenient would come back degraded or fatal. A
    sink belongs to one parse on one domain. *)
module Sink : sig
  type diag = t
  type t

  val create : ?mode:mode -> component:string -> (string -> exn) -> t
  (** [mode] defaults to [`Strict]; the function builds the parser's
      typed exception (e.g. [fun m -> Bad_elf m]). *)

  val report : t -> ?context:string -> ?offset:int -> severity -> string -> unit

  val absorb : t -> diag list -> unit
  (** Append a nested parser's diagnostics, in order. They were bounded
      by the nested sink and do not count against this one's limit; a
      strict nested parser raises instead, so a strict sink absorbs
      nothing. *)

  val diags : t -> diag list
  val outcome : t -> 'a -> 'a outcome

  type tally
  (** Items skipped one at a time (symbol records, table slots,
      compile units), summarized by one diagnostic. *)

  val tally : ?context:string -> t -> tally

  val skip : tally -> string -> unit
  (** Lenient: count one skipped item. Strict: raise with [message],
      prefixed by the tally's context. *)

  val close : tally -> (int -> string) -> unit
  (** When any item was skipped, report one [Degraded] diagnostic (with
      the tally's context) whose message is built from the count. *)
end
