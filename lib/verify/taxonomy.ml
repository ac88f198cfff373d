open Ds_bpf
open Verifier

let all =
  [
    Empty_program; Size_cap; No_exit; Invalid_register; Uninit_register;
    Write_r10; Ctx_oob; Stack_oob_read; Stack_oob_write; Scalar_deref;
    Ctx_write; Bad_store_target; Unknown_helper; Backward_jump; Jump_oob;
    Uninit_r0_exit; Path_explosion; Kfunc_index_oob; Unknown_kfunc;
    Malformed_insn;
  ]

let id = function
  | Empty_program -> "empty-program"
  | Size_cap -> "size-cap"
  | No_exit -> "no-exit"
  | Invalid_register -> "invalid-register"
  | Uninit_register -> "uninit-register"
  | Write_r10 -> "write-to-r10"
  | Ctx_oob -> "ctx-out-of-bounds"
  | Stack_oob_read -> "stack-read-out-of-frame"
  | Stack_oob_write -> "stack-write-out-of-frame"
  | Scalar_deref -> "unsafe-load-scalar"
  | Ctx_write -> "write-into-ctx"
  | Bad_store_target -> "bad-store-target"
  | Unknown_helper -> "unknown-helper"
  | Backward_jump -> "backward-jump"
  | Jump_oob -> "jump-out-of-range"
  | Uninit_r0_exit -> "uninit-r0-at-exit"
  | Path_explosion -> "path-explosion"
  | Kfunc_index_oob -> "kfunc-index-out-of-range"
  | Unknown_kfunc -> "unknown-kfunc"
  | Malformed_insn -> "malformed-insn"

let of_id s = List.find_opt (fun r -> String.equal (id r) s) all

let describe = function
  | Empty_program -> "the program has no instructions"
  | Size_cap -> "the program exceeds the instruction cap"
  | No_exit -> "control flow falls off the end of the stream"
  | Invalid_register -> "an instruction names a register outside r0-r10"
  | Uninit_register -> "a register is read before any write defines it"
  | Write_r10 -> "an instruction writes the read-only frame pointer r10"
  | Ctx_oob -> "a context load reaches past the context bound"
  | Stack_oob_read -> "a stack load falls outside the 512-byte frame"
  | Stack_oob_write -> "a stack store falls outside the 512-byte frame"
  | Scalar_deref -> "a load dereferences a scalar (unchecked pointer)"
  | Ctx_write -> "a store targets the read-only context"
  | Bad_store_target -> "a store goes through a non-stack pointer"
  | Unknown_helper -> "the called helper id is not in the kernel's registry"
  | Backward_jump -> "a jump forms a back-edge (loops are rejected)"
  | Jump_oob -> "a forward jump lands past the end of the program"
  | Uninit_r0_exit -> "a path exits with the return register r0 unset"
  | Path_explosion -> "branch forking exhausted the verifier's state budget"
  | Kfunc_index_oob -> "a kfunc call indexes past the object's kfunc table"
  | Unknown_kfunc -> "the named kernel function is absent from kernel BTF"
  | Malformed_insn -> "the instruction stream does not decode"

let dependency_induced = function
  | Unknown_helper | Unknown_kfunc -> true
  | _ -> false

(* When the rejection is dependency-induced and we know the program's
   attach section, check whether a stable probe in the compat registry
   covers that hook: the probe resolves per kernel, which is exactly the
   bridge the paper's §6 layer provides. *)
let compat_hint section =
  match Obj.hook_of_section section with
  | None -> None
  | Some hook ->
      List.find_map
        (fun (p : Depsurf.Compat.probe) ->
          if List.exists (fun c -> c.Depsurf.Compat.ca_hook = hook) p.pb_candidates
          then Some p.pb_name
          else None)
        Depsurf.Compat.default_registry

let suggestion ?section ?detail rule =
  let base =
    match rule with
    | Empty_program -> "emit at least one instruction; the minimal program is `r0 = 0; exit`"
    | Size_cap ->
        Printf.sprintf "split the program or reduce unrolling below the %d-instruction cap"
          Verifier.max_insns
    | No_exit -> "terminate every path with `exit`"
    | Invalid_register -> "use only registers r0-r10"
    | Uninit_register -> "initialize the register (e.g. `rN = 0`) before reading it"
    | Write_r10 -> "r10 is the read-only frame pointer; compute into a scratch register instead"
    | Ctx_oob ->
        Printf.sprintf "hoist a bound check before the load; context offsets must stay below %d"
          Verifier.ctx_limit
    | Stack_oob_read | Stack_oob_write ->
        "keep r10-relative accesses inside the [-512, 0) stack frame"
    | Scalar_deref -> "route the scalar through `bpf_probe_read` instead of dereferencing it"
    | Ctx_write -> "the context is read-only; copy the value to a stack slot instead"
    | Bad_store_target -> "stores must go through r10-relative stack slots"
    | Unknown_helper -> (
        match detail with
        | Some d -> Printf.sprintf "helper #%s does not exist on this kernel; gate the call or pick a portable helper" d
        | None -> "the helper id does not exist on this kernel; gate the call or pick a portable helper")
    | Backward_jump -> "unroll the loop: only forward jumps verify"
    | Jump_oob -> "fix the jump target to land inside the program"
    | Uninit_r0_exit -> "set r0 (the return value) on every path before `exit`"
    | Path_explosion ->
        Printf.sprintf "flatten branch nesting; the verifier forks per branch under a %d-state budget"
          Verifier.max_states
    | Kfunc_index_oob -> "the kfunc call indexes past the object's kfunc table; regenerate the object"
    | Unknown_kfunc -> (
        match detail with
        | Some d -> Printf.sprintf "kernel function %s is absent from this kernel's BTF; pick a kernel that exports it or switch attach points" d
        | None -> "the kernel function is absent from this kernel's BTF; pick a kernel that exports it or switch attach points")
    | Malformed_insn -> "re-emit the instruction stream: 8-byte insns, known opcodes only"
  in
  match (dependency_induced rule, Option.bind section compat_hint) with
  | true, Some probe ->
      Printf.sprintf "%s; the stable probe \"%s\" in the compat registry resolves a working hook per kernel" base probe
  | _ -> base
