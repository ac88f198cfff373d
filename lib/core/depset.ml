open Ds_bpf

type dep =
  | Dep_func of string
  | Dep_struct of string
  | Dep_field of string * string
  | Dep_tracepoint of string
  | Dep_syscall of string

let rank = function
  | Dep_func _ -> 0
  | Dep_struct _ -> 1
  | Dep_field _ -> 2
  | Dep_tracepoint _ -> 3
  | Dep_syscall _ -> 4

let compare_dep a b =
  match compare (rank a) (rank b) with 0 -> compare a b | c -> c

let dep_to_string = function
  | Dep_func f -> "func:" ^ f
  | Dep_struct s -> "struct:" ^ s
  | Dep_field (s, f) -> Printf.sprintf "field:%s::%s" s f
  | Dep_tracepoint t -> "tracepoint:" ^ t
  | Dep_syscall s -> "syscall:" ^ s

let dep_of_string s =
  match Ds_util.Strutil.cut ~on:':' s with
  | None -> if s = "" then None else Some (Dep_func s)
  | Some (kind, name) -> (
      if name = "" then None
      else
        match kind with
        | "func" -> Some (Dep_func name)
        | "struct" -> Some (Dep_struct name)
        | "field" -> (
            match Ds_util.Strutil.find_sub name ~sub:"::" with
            | Some i when i > 0 && i + 2 < String.length name ->
                Some
                  (Dep_field
                     (String.sub name 0 i, String.sub name (i + 2) (String.length name - i - 2)))
            | _ -> None)
        | "tracepoint" -> Some (Dep_tracepoint name)
        | "syscall" -> Some (Dep_syscall name)
        | _ -> None)

(* Expand a resolved access chain into its intermediate struct/field
   dependencies, following links through the object's own BTF. *)
let chain_deps obj root_struct path =
  let env, _ = Ds_util.Diag.ok (Ds_btf.Btf.to_env ~ptr_size:8 obj.Obj.o_btf) in
  let rec go sname path acc =
    match path with
    | [] -> acc
    | f :: rest -> (
        let acc = Dep_struct sname :: Dep_field (sname, f) :: acc in
        match rest with
        | [] -> acc
        | _ -> (
            match Ds_ctypes.Decl.find_struct env sname with
            | None -> acc
            | Some def -> (
                match
                  List.find_opt (fun (fd : Ds_ctypes.Decl.field) -> fd.fname = f) def.fields
                with
                | None -> acc
                | Some fd -> (
                    match Ds_ctypes.Ctype.strip_quals fd.ftype with
                    | Ds_ctypes.Ctype.Ptr inner | inner -> (
                        match Ds_ctypes.Ctype.strip_quals inner with
                        | Ds_ctypes.Ctype.Struct_ref n | Ds_ctypes.Ctype.Union_ref n ->
                            go n rest acc
                        | _ -> acc)))))
  in
  go root_struct path []

let of_obj obj =
  let deps = ref [] in
  let add d = deps := d :: !deps in
  List.iter
    (fun (p : Obj.prog) ->
      (match Hook.of_section p.Obj.p_section with
      | Some hook -> (
          (match Hook.target_function hook with Some f -> add (Dep_func f) | None -> ());
          (match Hook.target_tracepoint hook with
          | Some tp -> add (Dep_tracepoint tp)
          | None -> ());
          match Hook.target_syscall hook with
          | Some sc -> add (Dep_syscall sc)
          | None -> ())
      | None -> ());
      List.iter (fun kf -> add (Dep_func kf)) p.Obj.p_kfuncs;
      List.iter
        (fun (r : Obj.core_reloc) ->
          match Obj.access_path obj r.Obj.cr_type_id r.Obj.cr_access with
          | Some (root, []) -> add (Dep_struct root)
          | Some (root, path) -> List.iter add (chain_deps obj root path)
          | None -> ())
        p.Obj.p_relocs)
    obj.Obj.o_progs;
  List.sort_uniq compare_dep !deps

type totals = {
  n_funcs : int;
  n_structs : int;
  n_fields : int;
  n_tracepoints : int;
  n_syscalls : int;
}

let totals deps =
  List.fold_left
    (fun t d ->
      match d with
      | Dep_func _ -> { t with n_funcs = t.n_funcs + 1 }
      | Dep_struct _ -> { t with n_structs = t.n_structs + 1 }
      | Dep_field _ -> { t with n_fields = t.n_fields + 1 }
      | Dep_tracepoint _ -> { t with n_tracepoints = t.n_tracepoints + 1 }
      | Dep_syscall _ -> { t with n_syscalls = t.n_syscalls + 1 })
    { n_funcs = 0; n_structs = 0; n_fields = 0; n_tracepoints = 0; n_syscalls = 0 }
    deps
