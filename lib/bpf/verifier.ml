type reg_state = Uninit | Scalar | Ctx | Stack

type rule =
  | Empty_program
  | Size_cap
  | No_exit
  | Invalid_register
  | Uninit_register
  | Write_r10
  | Ctx_oob
  | Stack_oob_read
  | Stack_oob_write
  | Scalar_deref
  | Ctx_write
  | Bad_store_target
  | Unknown_helper
  | Backward_jump
  | Jump_oob
  | Uninit_r0_exit
  | Path_explosion
  | Kfunc_index_oob
  | Unknown_kfunc
  | Malformed_insn

type rejection = {
  rj_rule : rule;
  rj_insn : int;
  rj_msg : string;
  rj_regs : reg_state array option;
  rj_trail : (int * bool) list;
}

let max_insns = 4096
let ctx_limit = 4096
let max_states = 65536

(* Path-sensitive exploration: jumps fork the register state and both
   paths must verify, like the kernel verifier's DFS over the CFG. The
   ISA only has forward jumps (back-edges are rejected), so exploration
   terminates; a visited set on (pc, state) bounds the blow-up on
   diamond-heavy programs, and a state budget turns the residual
   blow-up into a structured rejection (the kernel's 1M-insn cap). *)
let verify insns =
  let n = List.length insns in
  let whole rule msg = Error { rj_rule = rule; rj_insn = -1; rj_msg = msg; rj_regs = None; rj_trail = [] } in
  if n = 0 then whole Empty_program "empty program"
  else if n > max_insns then whole Size_cap "program too large"
  else begin
    let code = Array.of_list insns in
    let visited : (int * reg_state array, unit) Hashtbl.t = Hashtbl.create 64 in
    let states = ref 0 in
    let rec go i regs trail =
      if i = n then
        Error
          {
            rj_rule = No_exit;
            rj_insn = n - 1;
            rj_msg = "program does not end with exit";
            rj_regs = Some (Array.copy regs);
            rj_trail = List.rev trail;
          }
      else if Hashtbl.mem visited (i, regs) then Ok ()
      else begin
        incr states;
        let err rule msg =
          Error
            {
              rj_rule = rule;
              rj_insn = i;
              rj_msg = msg;
              rj_regs = Some (Array.copy regs);
              rj_trail = List.rev trail;
            }
        in
        if !states > max_states then err Path_explosion "too many forked states (path explosion)"
        else begin
          Hashtbl.replace visited (i, Array.copy regs) ();
          let continue () = go (i + 1) regs trail in
          let check_reg r k =
            if r < 0 || r > 10 then err Invalid_register (Printf.sprintf "invalid register r%d" r)
            else k ()
          in
          let require_init r k =
            check_reg r (fun () ->
                if regs.(r) = Uninit then
                  err Uninit_register (Printf.sprintf "r%d is uninitialized" r)
                else k ())
          in
          let writable r k = if r = 10 then err Write_r10 "cannot write r10" else k () in
          match code.(i) with
          | Insn.Mov_imm { dst; _ } ->
              check_reg dst (fun () ->
                  writable dst (fun () ->
                      let regs = Array.copy regs in
                      regs.(dst) <- Scalar;
                      go (i + 1) regs trail))
          | Insn.Mov_reg { dst; src } ->
              require_init src (fun () ->
                  check_reg dst (fun () ->
                  writable dst (fun () ->
                      let regs' = Array.copy regs in
                      regs'.(dst) <- regs.(src);
                      go (i + 1) regs' trail)))
          | Insn.Add_imm { dst; _ } ->
              require_init dst (fun () -> writable dst (fun () -> continue ()))
          | Insn.Ldx { dst; src; off; _ } ->
              require_init src (fun () ->
                  check_reg dst (fun () ->
                  writable dst (fun () ->
                  match regs.(src) with
                  | Ctx ->
                      if off < 0 || off >= ctx_limit then
                        err Ctx_oob (Printf.sprintf "ctx access out of bounds at off %d" off)
                      else begin
                        let regs = Array.copy regs in
                        regs.(dst) <- Scalar;
                        go (i + 1) regs trail
                      end
                  | Stack ->
                      if off < -512 || off >= 0 then err Stack_oob_read "stack read out of frame"
                      else begin
                        let regs = Array.copy regs in
                        regs.(dst) <- Scalar;
                        go (i + 1) regs trail
                      end
                  | Scalar ->
                      err Scalar_deref (Printf.sprintf "r%d invalid mem access 'scalar'" src)
                  | Uninit -> err Uninit_register (Printf.sprintf "r%d is uninitialized" src))))
          | Insn.Stx { dst; src; off; _ } ->
              require_init src (fun () ->
                  check_reg dst (fun () ->
                  match regs.(dst) with
                  | Stack ->
                      if off < -512 || off >= 0 then err Stack_oob_write "stack write out of frame"
                      else continue ()
                  | Ctx -> err Ctx_write "cannot write into ctx"
                  | Scalar | Uninit ->
                      err Bad_store_target (Printf.sprintf "r%d invalid store target" dst)))
          | Insn.Call helper ->
              if not (Insn.helper_known helper) then
                err Unknown_helper (Printf.sprintf "unknown func id %d" helper)
              else begin
                let regs = Array.copy regs in
                for r = 1 to 5 do
                  regs.(r) <- Uninit
                done;
                regs.(0) <- Scalar;
                go (i + 1) regs trail
              end
          | Insn.Kfunc_call _ ->
              (* name resolution happens at load time against kernel BTF *)
              let regs = Array.copy regs in
              for r = 1 to 5 do
                regs.(r) <- Uninit
              done;
              regs.(0) <- Scalar;
              go (i + 1) regs trail
          | Insn.Jeq_imm { reg; target; _ } ->
              require_init reg (fun () ->
                  if target < 0 then err Backward_jump "back-edge (loop) not allowed"
                  else if i + 1 + target > n then err Jump_oob "jump out of range"
                  else
                    (* both outcomes must verify *)
                    match go (i + 1) (Array.copy regs) ((i, false) :: trail) with
                    | Error e -> Error e
                    | Ok () -> go (i + 1 + target) (Array.copy regs) ((i, true) :: trail))
          | Insn.Exit ->
              if regs.(0) = Uninit then
                err Uninit_r0_exit "R0 !read_ok: exit with uninitialized R0"
              else Ok ()
        end
      end
    in
    let regs = Array.make 11 Uninit in
    regs.(1) <- Ctx;
    regs.(10) <- Stack;
    go 0 regs []
  end
