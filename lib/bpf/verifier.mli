(** A small but genuine eBPF verifier: abstract interpretation of register
    states over the instruction stream.

    Checked properties (a practical subset of the kernel verifier's):
    - R1 enters as the context pointer, R10 as the stack frame pointer;
    - reads go through known-safe pointers: loads are allowed only from
      the context (bounded offset) or the stack; scalars must flow through
      [bpf_probe_read] to be dereferenced;
    - stores only to the stack, within the 512-byte frame;
    - helpers must exist; calls clobber R1–R5 and define R0 (kfunc calls
      are accepted here and name-checked against kernel BTF at load);
    - only forward jumps (no loops), bounded program size; branches fork
      the abstract state and {e both} paths must verify — under a total
      forked-state budget ({!max_states});
    - every path ends with [Exit] and R0 initialized there. *)

type reg_state = Uninit | Scalar | Ctx | Stack

(** The closed set of load-time rejections: one constructor per distinct
    way a program can fail to load, so downstream diagnostics
    ({!Ds_verify}) classify structurally instead of parsing message
    strings. {!verify} produces the first seventeen. The last three come
    from outside it: the kfunc check of {!Loader.check_prog} produces
    {!Kfunc_index_oob} and {!Unknown_kfunc}, and a stream that does not
    decode ({!Insn.Bad_insn}) is a {!Malformed_insn}. *)
type rule =
  | Empty_program
  | Size_cap  (** more than {!max_insns} instructions *)
  | No_exit  (** fell off the end of the stream *)
  | Invalid_register  (** register outside r0–r10 *)
  | Uninit_register  (** read of a never-written register *)
  | Write_r10  (** write to the read-only frame pointer *)
  | Ctx_oob  (** ctx load beyond {!ctx_limit} *)
  | Stack_oob_read  (** stack load outside [[-512, 0)] *)
  | Stack_oob_write  (** stack store outside [[-512, 0)] *)
  | Scalar_deref  (** load through a scalar (unchecked pointer) *)
  | Ctx_write  (** store into the read-only context *)
  | Bad_store_target  (** store through a scalar/uninit register *)
  | Unknown_helper  (** call to a helper id not in the registry *)
  | Backward_jump  (** back-edge: loops are not allowed *)
  | Jump_oob  (** forward jump past the end of the program *)
  | Uninit_r0_exit  (** exit with R0 never written *)
  | Path_explosion  (** forked-state budget {!max_states} exhausted *)
  | Kfunc_index_oob  (** [Kfunc_call i] with no i-th kfunc table entry *)
  | Unknown_kfunc  (** kfunc name absent from the target kernel's BTF *)
  | Malformed_insn  (** the stream never decoded *)

(** A structured rejection: the violated {!rule}, the offending
    instruction index ([-1] for whole-program rejections), the message,
    the abstract register file at the failure point (indices 0–10;
    [None] for rejections that never started executing and for the
    non-verifier rules), and the forked-path trail — the [(branch pc,
    taken?)] decisions, oldest first, of the exploration path that
    reached the failure. *)
type rejection = {
  rj_rule : rule;
  rj_insn : int;
  rj_msg : string;
  rj_regs : reg_state array option;
  rj_trail : (int * bool) list;
}

val max_insns : int

val ctx_limit : int
(** Maximum context offset a load may use. *)

val max_states : int
(** Total forked (pc, register-file) states one verification may
    explore; exceeding it rejects with {!Path_explosion}. *)

val verify : Insn.t list -> (unit, rejection) result
(** Never raises. *)
