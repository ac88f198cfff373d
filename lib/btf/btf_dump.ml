open Ds_ctypes

(* Render "TYPE NAME" with C's inside-out declarator syntax. *)
let rec ctype_decl (t : Ctype.t) name =
  match t with
  | Ctype.Array (elem, n) -> ctype_decl elem (Printf.sprintf "%s[%d]" name n)
  | Ctype.Ptr inner -> ctype_decl inner ("*" ^ name)
  | Ctype.Const inner -> (
      (* const binds to the pointee when wrapped inside a Ptr; at top
         level it prefixes the base type *)
      match inner with
      | Ctype.Ptr _ | Ctype.Array _ -> ctype_decl inner ("const " ^ name)
      | _ -> "const " ^ ctype_decl inner name)
  | Ctype.Volatile inner -> "volatile " ^ ctype_decl inner name
  | Ctype.Func_proto proto ->
      Printf.sprintf "%s (%s)(%s)"
        (Ctype.to_string proto.ret)
        name
        (String.concat ", " (List.map (fun (p : Ctype.param) -> Ctype.to_string p.ptype) proto.params))
  | Ctype.Void -> "void " ^ name
  | Ctype.Int { name = tn; _ } | Ctype.Float { name = tn; _ } -> tn ^ " " ^ name
  | Ctype.Struct_ref n -> Printf.sprintf "struct %s %s" n name
  | Ctype.Union_ref n -> Printf.sprintf "union %s %s" n name
  | Ctype.Enum_ref n -> Printf.sprintf "enum %s %s" n name
  | Ctype.Typedef_ref n -> n ^ " " ^ name

let struct_to_c (s : Decl.struct_def) =
  let buf = Buffer.create 128 in
  Buffer.add_string buf
    (Printf.sprintf "%s %s {\n"
       (match s.skind with `Struct -> "struct" | `Union -> "union")
       s.sname);
  List.iter
    (fun (f : Decl.field) ->
      Buffer.add_string buf
        (Printf.sprintf "\t%s; /* offset %d */\n" (ctype_decl f.ftype f.fname)
           (f.bits_offset / 8)))
    s.fields;
  Buffer.add_string buf (Printf.sprintf "}; /* size %d */\n" s.byte_size);
  Buffer.contents buf

let vmlinux_h btf =
  let env, funcs = Ds_util.Diag.ok (Btf.to_env ~ptr_size:8 btf) in
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "#ifndef __VMLINUX_H__\n#define __VMLINUX_H__\n\n";
  Buffer.add_string buf "/* generated from BTF; do not edit */\n\n";
  (* typedefs *)
  List.iter
    (fun (td : Decl.typedef_def) ->
      Buffer.add_string buf (Printf.sprintf "typedef %s;\n" (ctype_decl td.aliased td.tname)))
    (Decl.typedefs env);
  Buffer.add_char buf '\n';
  (* forward declarations: break every pointer cycle up front, like
     bpftool does *)
  List.iter
    (fun (s : Decl.struct_def) ->
      Buffer.add_string buf
        (Printf.sprintf "%s %s;\n"
           (match s.skind with `Struct -> "struct" | `Union -> "union")
           s.sname))
    (Decl.structs env);
  Buffer.add_char buf '\n';
  (* enums *)
  List.iter
    (fun (e : Decl.enum_def) ->
      Buffer.add_string buf (Printf.sprintf "enum %s {\n" e.ename);
      List.iter (fun (n, v) -> Buffer.add_string buf (Printf.sprintf "\t%s = %d,\n" n v)) e.values;
      Buffer.add_string buf "};\n\n")
    (Decl.enums env);
  (* aggregates *)
  List.iter
    (fun s ->
      Buffer.add_string buf (struct_to_c s);
      Buffer.add_char buf '\n')
    (Decl.structs env);
  (* function prototypes *)
  List.iter
    (fun (f : Decl.func_decl) ->
      Buffer.add_string buf
        (Printf.sprintf "extern %s;\n" (Ctype.proto_to_string ~name:f.fname f.proto)))
    funcs;
  Buffer.add_string buf "\n#endif /* __VMLINUX_H__ */\n";
  Buffer.contents buf
