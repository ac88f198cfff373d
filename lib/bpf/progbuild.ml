open Ds_ctypes
open Ds_ksrc
module Btf = Ds_btf.Btf

type read = { rd_struct : string; rd_path : string list; rd_exists_check : bool }

type hook_spec = {
  hs_hook : Hook.t;
  hs_arg_indices : int list;
  hs_reads : read list;
  hs_kfuncs : string list;
}
type spec = { sp_tool : string; sp_hooks : hook_spec list }

let arg_register arch i =
  match arch, i with
  | Config.X86, 0 -> Some "di"
  | Config.X86, 1 -> Some "si"
  | Config.X86, 2 -> Some "dx"
  | Config.X86, 3 -> Some "cx"
  | Config.X86, 4 -> Some "r8"
  | Config.X86, 5 -> Some "r9"
  | Config.Arm64, i when i < 8 -> Some "regs"
  | Config.Arm32, i when i < 4 -> Some "uregs"
  | Config.Ppc, i when i < 8 -> Some "gpr"
  | Config.Riscv, 0 -> Some "a0"
  | Config.Riscv, 1 -> Some "a1"
  | Config.Riscv, 2 -> Some "a2"
  | Config.Riscv, 3 -> Some "a3"
  | Config.Riscv, 4 -> Some "a4"
  | Config.Riscv, 5 -> Some "a5"
  | _ -> None

(* ------------------------------------------------------------------ *)
(* Local type environment: the program's own BTF                       *)
(* ------------------------------------------------------------------ *)

(* Collect the struct definitions a read chain touches, resolving
   intermediate links against the build environment; synthesize structs
   the build kernel does not know (a program compiled against an older
   vmlinux.h carries the old layout). *)
let local_env build_env arch (specs : hook_spec list) =
  let ptr_size = Config.ptr_size arch in
  let out = ref (List.fold_left Decl.add_typedef (Decl.empty_env ~ptr_size) Decl.default_typedefs) in
  let have name = Decl.find_struct !out name <> None in
  let add_def (d : Decl.struct_def) = out := Decl.add_struct !out d in
  let synth name fields =
    (* invented layout for a struct the build kernel lacks *)
    let members = List.map (fun f -> (f, Ctype.u64)) fields in
    Decl.layout_struct !out ~name ~kind:`Struct members
  in
  let import name fallback_fields =
    if not (have name) then
      match Decl.find_struct build_env name with
      | Some d -> add_def d
      | None -> add_def (synth name fallback_fields)
  in
  let rec chain struct_name path =
    match path with
    | [] -> ()
    | f :: rest -> (
        import struct_name [ f ];
        (* if the build kernel's struct lacks the expected field, extend
           the local copy: the program still "remembers" it *)
        (match Decl.find_struct !out struct_name with
        | Some d when not (List.exists (fun (fd : Decl.field) -> fd.fname = f) d.fields) ->
            let members =
              List.map (fun (fd : Decl.field) -> (fd.fname, fd.ftype)) d.fields @ [ (f, Ctype.u64) ]
            in
            add_def (Decl.layout_struct !out ~name:struct_name ~kind:d.skind members)
        | _ -> ());
        if rest <> [] then begin
          (* follow the link to the next struct *)
          match Decl.find_struct !out struct_name with
          | Some d -> (
              match List.find_opt (fun (fd : Decl.field) -> fd.fname = f) d.fields with
              | Some fd -> (
                  match Ctype.strip_quals fd.ftype with
                  | Ctype.Ptr inner | inner -> (
                      match Ctype.strip_quals inner with
                      | Ctype.Struct_ref n | Ctype.Union_ref n -> chain n rest
                      | _ ->
                          (* field is not aggregate-typed in the build
                             kernel; synthesize the next link *)
                          chain (struct_name ^ "__" ^ f) rest))
              | None -> ())
          | None -> ()
        end)
  in
  List.iter
    (fun hs ->
      if hs.hs_arg_indices <> [] then import "pt_regs" [];
      List.iter (fun r -> chain r.rd_struct r.rd_path) hs.hs_reads)
    specs;
  !out

(* ------------------------------------------------------------------ *)
(* Code generation                                                     *)
(* ------------------------------------------------------------------ *)

let member_index env struct_name field =
  match Decl.find_struct env struct_name with
  | None -> None
  | Some d ->
      let rec go i = function
        | [] -> None
        | (fd : Decl.field) :: rest -> if fd.fname = field then Some i else go (i + 1) rest
      in
      go 0 d.fields

(* Access indices along a chain: CO-RE's "0:i:j" form (first 0 = pointer
   deref of the root). *)
let access_indices env struct_name path =
  let rec go s acc = function
    | [] -> Some (List.rev acc)
    | f :: rest -> (
        match member_index env s f with
        | None -> None
        | Some i -> (
            match rest with
            | [] -> Some (List.rev (i :: acc))
            | _ -> (
                match Decl.find_struct env s with
                | None -> None
                | Some d -> (
                    let fd = List.nth d.fields i in
                    match Ctype.strip_quals fd.Decl.ftype with
                    | Ctype.Ptr inner -> (
                        match Ctype.strip_quals inner with
                        | Ctype.Struct_ref n | Ctype.Union_ref n -> go n (i :: acc) rest
                        | _ -> None)
                    | Ctype.Struct_ref n | Ctype.Union_ref n -> go n (i :: acc) rest
                    | _ -> None))))
  in
  Option.map (fun idxs -> 0 :: idxs) (go struct_name [] path)

let sanitize s =
  String.map (fun c -> if c = '/' || c = '-' || c = '.' then '_' else c) s

let build ~build_btf ~build_arch ~tag spec =
  (* drop duplicate hooks: two programs cannot share a section *)
  let spec =
    let seen = Hashtbl.create 8 in
    {
      spec with
      sp_hooks =
        List.filter
          (fun hs ->
            let sec = Hook.to_section hs.hs_hook in
            if Hashtbl.mem seen sec then false
            else begin
              Hashtbl.replace seen sec ();
              true
            end)
          spec.sp_hooks;
    }
  in
  let build_env, _ =
    Ds_util.Diag.ok (Btf.to_env ~ptr_size:(Config.ptr_size build_arch) build_btf)
  in
  let env = local_env build_env build_arch spec.sp_hooks in
  let btf = Btf.of_env env [] in
  let type_id name =
    match Btf.find_struct btf name with Some (id, _) -> id | None -> 0
  in
  let build_prog hs =
    let insns = ref [] in
    let relocs = ref [] in
    let n = ref 0 in
    let emit i =
      insns := i :: !insns;
      incr n
    in
    let emit_reloc ~root ~access ~kind =
      relocs :=
        Obj.{ cr_insn = !n; cr_type_id = type_id root; cr_access = access; cr_kind = kind }
        :: !relocs
    in
    (* save ctx *)
    emit (Insn.Mov_reg { dst = 6; src = 1 });
    (* fetch arguments via pt_regs register fields (kprobe-style) *)
    let is_kprobe =
      match hs.hs_hook with Hook.Kprobe _ | Hook.Kretprobe _ -> true | _ -> false
    in
    List.iter
      (fun i ->
        match arg_register build_arch i with
        | Some reg when is_kprobe -> (
            match access_indices env "pt_regs" [ reg ] with
            | Some access ->
                emit_reloc ~root:"pt_regs" ~access ~kind:Obj.Field_byte_offset;
                emit (Insn.Ldx { dst = 7; src = 6; off = 0; size = Insn.DW })
            | None -> ())
        | Some _ | None ->
            (* non-kprobe hooks read positional ctx slots (typed args) *)
            emit (Insn.Ldx { dst = 7; src = 6; off = 8 * i; size = Insn.DW }))
      hs.hs_arg_indices;
    (* struct-field reads *)
    let needs_ptr =
      List.exists (fun r -> not r.rd_exists_check) hs.hs_reads && hs.hs_arg_indices = []
    in
    let is_tracepoint =
      match hs.hs_hook with
      | Hook.Tracepoint _ | Hook.Raw_tracepoint _ | Hook.Syscall_enter _ | Hook.Syscall_exit _ ->
          true
      | _ -> false
    in
    let is_plain = match hs.hs_hook with Hook.Kprobe _ | Hook.Kretprobe _ | Hook.Fentry _ | Hook.Fexit _ | Hook.Lsm _ | Hook.Perf_event -> true | _ -> false in
    if needs_ptr && is_plain && not is_tracepoint then
      (* no argument was fetched: take the first ctx word as the pointer *)
      emit (Insn.Ldx { dst = 7; src = 6; off = 0; size = Insn.DW });
    List.iter
      (fun r ->
        match access_indices env r.rd_struct r.rd_path with
        | None -> ()
        | Some access ->
            if r.rd_exists_check then begin
              emit_reloc ~root:r.rd_struct ~access ~kind:Obj.Field_exists;
              emit (Insn.Mov_imm { dst = 8; imm = 0 });
              emit (Insn.Jeq_imm { reg = 8; imm = 0; target = 1 });
              emit (Insn.Mov_imm { dst = 9; imm = 1 })
            end
            else if is_tracepoint then begin
              (* event structs are read directly from ctx *)
              emit_reloc ~root:r.rd_struct ~access ~kind:Obj.Field_byte_offset;
              emit (Insn.Ldx { dst = 8; src = 6; off = 0; size = Insn.DW })
            end
            else begin
              (* kernel memory: bpf_probe_read(stack_buf, 8, ptr + off) *)
              emit (Insn.Mov_reg { dst = 3; src = 7 });
              emit_reloc ~root:r.rd_struct ~access ~kind:Obj.Field_byte_offset;
              emit (Insn.Add_imm { dst = 3; imm = 0 });
              emit (Insn.Mov_imm { dst = 2; imm = 8 });
              emit (Insn.Mov_reg { dst = 1; src = 10 });
              emit (Insn.Add_imm { dst = 1; imm = -16 });
              emit (Insn.Call Insn.helper_probe_read)
            end)
      hs.hs_reads;
    (* kfunc calls *)
    List.iteri
      (fun i _name ->
        emit (Insn.Mov_reg { dst = 1; src = 6 });
        emit (Insn.Kfunc_call i))
      hs.hs_kfuncs;
    emit (Insn.Mov_imm { dst = 0; imm = 0 });
    emit Insn.Exit;
    let section = Hook.to_section hs.hs_hook in
    Obj.
      {
        p_name = spec.sp_tool ^ "__" ^ sanitize section;
        p_section = section;
        p_insns = List.rev !insns;
        p_relocs = List.rev !relocs;
        p_kfuncs = hs.hs_kfuncs;
      }
  in
  Obj.
    {
      o_name = spec.sp_tool;
      o_built_for = tag;
      o_progs = List.map build_prog spec.sp_hooks;
      o_maps =
        [
          (* every libbpf tool carries at least its results map *)
          Maps.
            {
              md_name = "events";
              md_type = Maps.Hash;
              md_key_size = 4;
              md_value_size = 8;
              md_max_entries = 10240;
            };
        ];
      o_btf = btf;
    }
