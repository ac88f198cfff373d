module Btf = Ds_btf.Btf
open Ds_ksrc

type error =
  | Verifier_error of { prog : string; insn : int; msg : string }
  | Relocation_error of { prog : string; type_name : string; path : string list; msg : string }
  | Attachment_error of { prog : string; hook : Hook.t; reason : string }

let error_to_string = function
  | Verifier_error { prog; insn; msg } ->
      Printf.sprintf "%s: verifier: insn %d: %s" prog insn msg
  | Relocation_error { prog; type_name; path; msg } ->
      Printf.sprintf "%s: relocation: %s::%s: %s" prog type_name (String.concat "." path) msg
  | Attachment_error { prog; hook; reason } ->
      Printf.sprintf "%s: attach %s: %s" prog (Hook.to_string hook) reason

type attachment = {
  at_prog : string;
  at_hook : Hook.t;
  at_insns : Insn.t list;
  at_addrs : int64 list;
  at_field_offsets : (string * string list * int) list;
}

let rec skip_mods btf id =
  match Btf.get btf id with
  | Btf.Ptr i | Btf.Const i | Btf.Volatile i | Btf.Restrict i -> skip_mods btf i
  | Btf.Typedef { typ; _ } -> skip_mods btf typ
  | k -> k

let resolve_field btf ~struct_name ~path =
  let rec walk kind path =
    match path with
    | [] -> Error "empty access path"
    | [ last ] -> (
        match kind with
        | Btf.Struct { members; _ } | Btf.Union { members; _ } -> (
            match List.find_opt (fun m -> m.Btf.m_name = last) members with
            | Some m -> Ok (m.Btf.m_offset_bits / 8)
            | None -> Error (Printf.sprintf "no field %s" last))
        | _ -> Error "not an aggregate")
    | first :: rest -> (
        match kind with
        | Btf.Struct { members; _ } | Btf.Union { members; _ } -> (
            match List.find_opt (fun m -> m.Btf.m_name = first) members with
            | Some m -> walk (skip_mods btf m.Btf.m_type) rest
            | None -> Error (Printf.sprintf "no field %s" first))
        | _ -> Error "not an aggregate")
  in
  match Btf.find_struct btf struct_name with
  | None -> Error (Printf.sprintf "no struct %s in target BTF" struct_name)
  | Some (_, kind) -> walk kind path

let field_exists btf ~struct_name ~path =
  match resolve_field btf ~struct_name ~path with Ok _ -> true | Error _ -> false

let patch_insn prog_name insns idx value =
  let patched = ref false in
  let out =
    List.mapi
      (fun i insn ->
        if i <> idx then insn
        else begin
          patched := true;
          match insn with
          | Insn.Ldx l -> Insn.Ldx { l with off = value }
          | Insn.Stx s -> Insn.Stx { s with off = value }
          | Insn.Add_imm a -> Insn.Add_imm { a with imm = value }
          | Insn.Mov_imm m -> Insn.Mov_imm { m with imm = value }
          | Insn.Mov_reg _ | Insn.Jeq_imm _ | Insn.Call _ | Insn.Kfunc_call _ | Insn.Exit ->
              raise
                (Invalid_argument
                   (Printf.sprintf "%s: CO-RE reloc targets unpatchable insn %d" prog_name i))
        end)
      insns
  in
  if not !patched then
    raise (Invalid_argument (Printf.sprintf "%s: CO-RE reloc beyond program end" prog_name));
  out

let relocate kernel obj (prog : Obj.prog) =
  let target = kernel.Vmlinux.v_btf in
  let rec go insns offsets = function
    | [] -> Ok (insns, List.rev offsets)
    | (r : Obj.core_reloc) :: rest -> (
        match Obj.access_path obj r.Obj.cr_type_id r.Obj.cr_access with
        | None ->
            Error
              (Relocation_error
                 {
                   prog = prog.Obj.p_name;
                   type_name = Printf.sprintf "<type %d>" r.Obj.cr_type_id;
                   path = [];
                   msg = "invalid access string against program BTF";
                 })
        | Some (struct_name, path) -> (
            match r.Obj.cr_kind with
            | Obj.Field_exists ->
                let v = if field_exists target ~struct_name ~path then 1 else 0 in
                go (patch_insn prog.Obj.p_name insns r.Obj.cr_insn v) offsets rest
            | Obj.Field_byte_offset -> (
                match resolve_field target ~struct_name ~path with
                | Ok off ->
                    go
                      (patch_insn prog.Obj.p_name insns r.Obj.cr_insn off)
                      ((struct_name, path, off) :: offsets)
                      rest
                | Error msg ->
                    Error
                      (Relocation_error
                         { prog = prog.Obj.p_name; type_name = struct_name; path; msg }))))
  in
  go prog.Obj.p_insns [] prog.Obj.p_relocs

(* Symbol lookup policy for function hooks; see paper §6 (b022f0c). *)
let resolve_function kernel prog hook name =
  let text_syms =
    List.filter
      (fun s -> s.Ds_elf.Elf.sym_section = ".text")
      (Vmlinux.symbols_named kernel name)
  in
  match text_syms with
  | [] ->
      let reason =
        if Vmlinux.suffixed_symbols kernel name <> [] then
          "no symbol (transformed by compiler; suffixed variants exist)"
        else "no symbol (absent or fully inlined)"
      in
      Error (Attachment_error { prog; hook; reason })
  | [ s ] -> Ok [ s.Ds_elf.Elf.sym_value ]
  | many ->
      if Version.compare kernel.Vmlinux.v_version (Version.v 6 6) >= 0 then
        Error
          (Attachment_error
             { prog; hook; reason = Printf.sprintf "%d symbols with this name" (List.length many) })
      else
        (* pre-6.6: silently attach to the first copy only *)
        Ok [ (List.hd many).Ds_elf.Elf.sym_value ]

let attach kernel (prog : Obj.prog) =
  let name = prog.Obj.p_name in
  match Hook.of_section prog.Obj.p_section with
  | None ->
      Error
        (Attachment_error
           {
             prog = name;
             hook = Hook.Kprobe "?";
             reason = "unrecognized section " ^ prog.Obj.p_section;
           })
  | Some hook -> (
      match Hook.target_function hook with
      | Some fn -> (
          match resolve_function kernel name hook fn with
          | Ok addrs -> Ok (hook, addrs)
          | Error e -> Error e)
      | None -> (
          match Hook.target_tracepoint hook with
          | Some tp ->
              if Vmlinux.has_tracepoint kernel tp then Ok (hook, [])
              else Error (Attachment_error { prog = name; hook; reason = "no such tracepoint" })
          | None -> (
              match Hook.target_syscall hook with
              | Some sc ->
                  if Vmlinux.has_syscall kernel sc then Ok (hook, [])
                  else
                    Error
                      (Attachment_error
                         { prog = name; hook; reason = "syscall unavailable on this kernel" })
              | None -> Ok (hook, []))))

(* The checks a program passes before relocation: the verifier, then
   kfunc resolution — every Kfunc_call must index the kfunc table and,
   against a kernel, name a function in its BTF (the verifier's kfunc
   registry check, paper §4.1). *)
let check_prog ?kernel (prog : Obj.prog) =
  let reject rj_rule rj_insn rj_msg =
    Error { Verifier.rj_rule; rj_insn; rj_msg; rj_regs = None; rj_trail = [] }
  in
  let rec kfuncs i = function
    | [] -> Ok ()
    | Insn.Kfunc_call idx :: rest -> (
        (* [nth_opt] raises on a negative index; a decoded imm can be one *)
        match if idx < 0 then None else List.nth_opt prog.Obj.p_kfuncs idx with
        | None -> reject Verifier.Kfunc_index_oob i "kfunc index out of range"
        | Some name -> (
            match kernel with
            | Some k when Btf.find_func k.Vmlinux.v_btf name = None ->
                reject Verifier.Unknown_kfunc i
                  (Printf.sprintf "calling kernel function %s is not allowed" name)
            | _ -> kfuncs (i + 1) rest))
    | _ :: rest -> kfuncs (i + 1) rest
  in
  Result.bind (Verifier.verify prog.Obj.p_insns) (fun () -> kfuncs 0 prog.Obj.p_insns)

let load_prog kernel obj (prog : Obj.prog) =
  match check_prog ~kernel prog with
  | Error { Verifier.rj_insn; rj_msg; _ } ->
      Error (Verifier_error { prog = prog.Obj.p_name; insn = rj_insn; msg = rj_msg })
  | Ok () -> (
      match relocate kernel obj prog with
      | Error e -> Error e
      | Ok (insns, offsets) -> (
          match attach kernel prog with
          | Error e -> Error e
          | Ok (hook, addrs) ->
              Ok
                {
                  at_prog = prog.Obj.p_name;
                  at_hook = hook;
                  at_insns = insns;
                  at_addrs = addrs;
                  at_field_offsets = offsets;
                }))

let instantiate_maps obj =
  List.map (fun (d : Maps.def) -> (d.Maps.md_name, Maps.create d)) obj.Obj.o_maps

let load_and_attach kernel obj =
  let rec go acc = function
    | [] -> Ok (List.rev acc)
    | p :: rest -> (
        match load_prog kernel obj p with
        | Ok a -> go (a :: acc) rest
        | Error e -> Error e)
  in
  go [] obj.Obj.o_progs
