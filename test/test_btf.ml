open Ds_btf.Btf
open Ds_ctypes

let base_env () =
  let env = Decl.empty_env ~ptr_size:8 in
  List.fold_left Decl.add_typedef env Decl.default_typedefs

let sample_env () =
  let env = base_env () in
  let file =
    Decl.layout_struct env ~name:"file" ~kind:`Struct
      [ ("f_count", Ctype.u64); ("f_flags", Ctype.uint) ]
  in
  let env = Decl.add_struct env file in
  let task =
    Decl.layout_struct env ~name:"task_struct" ~kind:`Struct
      [
        ("pid", Ctype.int_);
        ("comm", Ctype.Array (Ctype.char_, 16));
        ("parent", Ctype.Ptr (Ctype.Struct_ref "task_struct"));
        ("utime", Ctype.u64);
      ]
  in
  let env = Decl.add_struct env task in
  let env = Decl.add_enum env { ename = "req_op"; values = [ ("READ", 0); ("WRITE", 1) ] } in
  env

let sample_funcs =
  [
    Decl.
      {
        fname = "vfs_fsync";
        proto =
          Ctype.
            {
              ret = int_;
              params =
                [
                  { pname = "file"; ptype = Ptr (Struct_ref "file") };
                  { pname = "datasync"; ptype = int_ };
                ];
              variadic = false;
            };
      };
    Decl.
      {
        fname = "printk";
        proto =
          Ctype.
            {
              ret = int_;
              params = [ { pname = "fmt"; ptype = Ptr (Const char_) } ];
              variadic = true;
            };
      };
  ]

let test_low_level_roundtrip () =
  let t = create () in
  let i = add t (Int { name = "int"; bits = 32; signed = true }) in
  let p = add t (Ptr i) in
  let s =
    add t
      (Struct
         {
           name = "pair";
           size = 16;
           members =
             [
               { m_name = "a"; m_type = i; m_offset_bits = 0 };
               { m_name = "b"; m_type = p; m_offset_bits = 64 };
             ];
         })
  in
  ignore s;
  let t' = Ds_util.Diag.ok (decode (encode t)) in
  Alcotest.(check int) "count" (length t) (length t');
  (match get t' 1 with
  | Int { name; bits; signed } ->
      Alcotest.(check string) "int name" "int" name;
      Alcotest.(check int) "bits" 32 bits;
      Alcotest.(check bool) "signed" true signed
  | _ -> Alcotest.fail "expected Int");
  match get t' 3 with
  | Struct { name; size; members } ->
      Alcotest.(check string) "struct name" "pair" name;
      Alcotest.(check int) "size" 16 size;
      Alcotest.(check int) "members" 2 (List.length members);
      let b = List.nth members 1 in
      Alcotest.(check int) "offset" 64 b.m_offset_bits
  | _ -> Alcotest.fail "expected Struct"

let test_all_kinds_roundtrip () =
  let t = create () in
  let i = add t (Int { name = "unsigned int"; bits = 32; signed = false }) in
  ignore (add t (Array { elem = i; index = i; nelems = 7 }));
  ignore
    (add t
       (Union { name = "u"; size = 4; members = [ { m_name = "x"; m_type = i; m_offset_bits = 0 } ] }));
  ignore (add t (Enum { name = "e"; size = 4; values = [ ("A", 0); ("B", 5) ] }));
  ignore (add t (Fwd { name = "opaque"; union = false }));
  ignore (add t (Fwd { name = "opaque_u"; union = true }));
  ignore (add t (Typedef { name = "u32"; typ = i }));
  ignore (add t (Volatile i));
  ignore (add t (Const i));
  ignore (add t (Restrict i));
  ignore (add t (Float { name = "double"; bits = 64 }));
  let proto = add t (Func_proto { ret = i; params = [ { p_name = "x"; p_type = i } ] }) in
  ignore (add t (Func { name = "f"; proto }));
  let t' = Ds_util.Diag.ok (decode (encode t)) in
  Alcotest.(check int) "all records survive" (length t) (length t');
  for id = 1 to length t do
    Alcotest.(check bool) (Printf.sprintf "record %d equal" id) true (get t id = get t' id)
  done;
  (match get t' 6 with
  | Fwd { union; _ } -> Alcotest.(check bool) "union kind_flag" true union
  | _ -> Alcotest.fail "expected Fwd")

let test_env_roundtrip () =
  let env = sample_env () in
  let t = of_env env sample_funcs in
  let t' = Ds_util.Diag.ok (decode (encode t)) in
  let env', funcs' = Ds_util.Diag.ok (to_env ~ptr_size:8 t') in
  let task = Option.get (Decl.find_struct env' "task_struct") in
  let orig = Option.get (Decl.find_struct env "task_struct") in
  Alcotest.(check bool) "task_struct roundtrips" true (Decl.equal_struct orig task);
  let file' = Option.get (Decl.find_struct env' "file") in
  let file = Option.get (Decl.find_struct env "file") in
  Alcotest.(check bool) "file roundtrips" true (Decl.equal_struct file file');
  Alcotest.(check int) "funcs" 2 (List.length funcs');
  let vfs = List.find (fun (f : Decl.func_decl) -> f.fname = "vfs_fsync") funcs' in
  Alcotest.(check bool) "vfs_fsync decl" true (Decl.equal_func (List.hd sample_funcs) vfs);
  let printk = List.find (fun (f : Decl.func_decl) -> f.fname = "printk") funcs' in
  Alcotest.(check bool) "variadic preserved" true printk.proto.variadic

let test_member_offset () =
  let env = sample_env () in
  let t = of_env env sample_funcs in
  (match member_offset t ~struct_name:"task_struct" ~field:"utime" with
  | Some (off, _) ->
      let orig = Option.get (Decl.find_struct env "task_struct") in
      let f = List.find (fun (f : Decl.field) -> f.fname = "utime") orig.fields in
      Alcotest.(check int) "offset matches layout" f.bits_offset off
  | None -> Alcotest.fail "utime not found");
  Alcotest.(check bool) "missing field" true
    (member_offset t ~struct_name:"task_struct" ~field:"nope" = None);
  Alcotest.(check bool) "missing struct" true
    (member_offset t ~struct_name:"nope" ~field:"x" = None)

let test_find_func () =
  let t = of_env (sample_env ()) sample_funcs in
  (match find_func t "vfs_fsync" with
  | Some f -> Alcotest.(check int) "params" 2 (List.length f.proto.params)
  | None -> Alcotest.fail "vfs_fsync missing");
  Alcotest.(check bool) "absent func" true (find_func t "no_such" = None)

let test_fwd_for_opaque () =
  (* A pointer to an undefined struct must become a Fwd record. *)
  let env = base_env () in
  let funcs =
    [
      Decl.
        {
          fname = "sock_poll";
          proto =
            Ctype.
              {
                ret = int_;
                params = [ { pname = "sk"; ptype = Ptr (Struct_ref "socket") } ];
                variadic = false;
              };
        };
    ]
  in
  let t = Ds_util.Diag.ok (decode (encode (of_env env funcs))) in
  let has_fwd = ref false in
  iteri t (fun _ k -> match k with Fwd { name = "socket"; union = false } -> has_fwd := true | _ -> ());
  Alcotest.(check bool) "fwd emitted" true !has_fwd;
  let f = Option.get (find_func t "sock_poll") in
  match (List.hd f.proto.params).ptype with
  | Ctype.Ptr (Ctype.Struct_ref "socket") -> ()
  | t -> Alcotest.fail ("unexpected type " ^ Ctype.to_string t)

let test_bad_magic () =
  Alcotest.check_raises "bad magic" (Bad_btf "bad magic") (fun () ->
      ignore (decode "\x00\x00\x01\x00aaaaaaaaaaaaaaaaaaaaaaaaaaa"))

let test_self_referential () =
  let env = sample_env () in
  let t = of_env env [] in
  (* task_struct.parent is task_struct*; ensure decoding terminates and the
     pointer resolves back to a task_struct reference. *)
  let env', _ = Ds_util.Diag.ok (to_env ~ptr_size:8 (Ds_util.Diag.ok (decode (encode t)))) in
  let task = Option.get (Decl.find_struct env' "task_struct") in
  let parent = List.find (fun (f : Decl.field) -> f.fname = "parent") task.fields in
  match parent.ftype with
  | Ctype.Ptr (Ctype.Struct_ref "task_struct") -> ()
  | ty -> Alcotest.fail ("unexpected " ^ Ctype.to_string ty)

let test_type_name () =
  let t = of_env (sample_env ()) [] in
  match find_struct t "file" with
  | Some (id, _) -> Alcotest.(check (option string)) "name" (Some "file") (type_name t id)
  | None -> Alcotest.fail "file missing"

let contains hay needle =
  let n = String.length needle in
  let rec go i = i + n <= String.length hay && (String.sub hay i n = needle || go (i + 1)) in
  go 0

let test_ctype_decl () =
  let open Ds_btf.Btf_dump in
  Alcotest.(check string) "int" "int x" (ctype_decl Ctype.int_ "x");
  Alcotest.(check string) "array" "char comm[16]" (ctype_decl (Ctype.Array (Ctype.char_, 16)) "comm");
  Alcotest.(check string) "ptr" "struct file *filp" (ctype_decl (Ctype.Ptr (Ctype.Struct_ref "file")) "filp");
  Alcotest.(check string) "ptr to const char" "const char *name"
    (ctype_decl (Ctype.Ptr (Ctype.Const Ctype.char_)) "name");
  Alcotest.(check string) "array of ptrs" "struct page **pages[4]"
    (ctype_decl (Ctype.Array (Ctype.Ptr (Ctype.Ptr (Ctype.Struct_ref "page")), 4)) "pages")

let test_struct_to_c () =
  let env = sample_env () in
  let task = Option.get (Decl.find_struct env "task_struct") in
  let c = Ds_btf.Btf_dump.struct_to_c task in
  Alcotest.(check bool) "header" true (contains c "struct task_struct {");
  Alcotest.(check bool) "array field" true (contains c "char comm[16];");
  Alcotest.(check bool) "self pointer" true (contains c "struct task_struct *parent;");
  Alcotest.(check bool) "offsets annotated" true (contains c "/* offset 0 */")

let test_vmlinux_h () =
  let t = of_env (sample_env ()) sample_funcs in
  let h = Ds_btf.Btf_dump.vmlinux_h (Ds_util.Diag.ok (decode (encode t))) in
  Alcotest.(check bool) "guard" true (contains h "#ifndef __VMLINUX_H__");
  Alcotest.(check bool) "typedefs" true (contains h "typedef long unsigned int size_t;");
  Alcotest.(check bool) "forward decls" true (contains h "struct task_struct;");
  Alcotest.(check bool) "full def" true (contains h "struct task_struct {");
  Alcotest.(check bool) "extern protos" true
    (contains h "extern int vfs_fsync(struct file * file, int datasync);")

let suites =
  [
    ( "btf",
      [
        Alcotest.test_case "low-level roundtrip" `Quick test_low_level_roundtrip;
        Alcotest.test_case "all kinds roundtrip" `Quick test_all_kinds_roundtrip;
        Alcotest.test_case "env roundtrip" `Quick test_env_roundtrip;
        Alcotest.test_case "member offset" `Quick test_member_offset;
        Alcotest.test_case "find func" `Quick test_find_func;
        Alcotest.test_case "fwd for opaque" `Quick test_fwd_for_opaque;
        Alcotest.test_case "bad magic" `Quick test_bad_magic;
        Alcotest.test_case "self-referential struct" `Quick test_self_referential;
        Alcotest.test_case "type name" `Quick test_type_name;
        Alcotest.test_case "ctype_decl" `Quick test_ctype_decl;
        Alcotest.test_case "struct_to_c" `Quick test_struct_to_c;
        Alcotest.test_case "vmlinux.h" `Quick test_vmlinux_h;
      ] );
  ]
