open Ds_dwarf
open Ds_ctypes

let mk_proto ret params =
  Ctype.{ ret; params = List.map (fun (n, t) -> { pname = n; ptype = t }) params; variadic = false }

let sample_cus () =
  let env = List.fold_left Decl.add_typedef (Decl.empty_env ~ptr_size:8) Decl.default_typedefs in
  let request =
    Decl.layout_struct env ~name:"request" ~kind:`Struct
      [ ("sector", Ctype.Typedef_ref "sector_t"); ("rq_disk", Ctype.Ptr (Ctype.Struct_ref "gendisk")) ]
  in
  [
    Info.
      {
        cu_name = "block/blk-core.c";
        cu_subprograms =
          [
            {
              sp_name = "blk_account_io_start";
              sp_proto =
                mk_proto Ctype.void
                  [
                    ("rq", Ctype.Ptr (Ctype.Struct_ref "request"));
                    ("new_io", Ctype.bool_);
                  ];
              sp_file = "block/blk-core.c";
              sp_line = 120;
              sp_external = true;
              sp_declared_inline = false;
              sp_low_pc = Some 0x10000L;
              sp_inlined = [];
              sp_calls = [ "blk_do_io_stat" ];
            };
            {
              sp_name = "submit_bio";
              sp_proto = mk_proto Ctype.void [ ("bio", Ctype.Ptr (Ctype.Struct_ref "bio")) ];
              sp_file = "block/blk-core.c";
              sp_line = 300;
              sp_external = true;
              sp_declared_inline = false;
              sp_low_pc = Some 0x10100L;
              sp_inlined =
                [
                  { ic_callee = "blk_account_io_start"; ic_pc = 0x10140L; ic_call_line = 310 };
                  { ic_callee = "bio_check_eod"; ic_pc = 0x10180L; ic_call_line = 315 };
                ];
              sp_calls = [];
            };
          ];
        cu_structs = [ request ];
        cu_enums = [ { ename = "req_opf"; values = [ ("REQ_OP_READ", 0); ("REQ_OP_WRITE", 1) ] } ];
        cu_typedefs = [ { tname = "sector_t"; aliased = Ctype.ulong } ];
      };
    Info.
      {
        cu_name = "fs/sync.c";
        cu_subprograms =
          [
            {
              sp_name = "do_fsync";
              sp_proto = mk_proto Ctype.long [ ("fd", Ctype.uint); ("datasync", Ctype.int_) ];
              sp_file = "fs/sync.c";
              sp_line = 200;
              sp_external = false;
              sp_declared_inline = true;
              sp_low_pc = None;
              sp_inlined = [];
              sp_calls = [];
            };
          ];
        cu_structs = [];
        cu_enums = [];
        cu_typedefs = [];
      };
  ]

let roundtrip cus =
  let info, abbrev = Info.encode cus in
  Ds_util.Diag.ok (Info.decode ~info ~abbrev ())

let test_cu_structure () =
  let cus = roundtrip (sample_cus ()) in
  Alcotest.(check int) "two CUs" 2 (List.length cus);
  let cu = List.hd cus in
  Alcotest.(check string) "cu name" "block/blk-core.c" cu.Info.cu_name;
  Alcotest.(check int) "subprograms" 2 (List.length cu.Info.cu_subprograms);
  Alcotest.(check int) "structs" 1 (List.length cu.Info.cu_structs);
  Alcotest.(check int) "enums" 1 (List.length cu.Info.cu_enums);
  Alcotest.(check int) "typedefs" 1 (List.length cu.Info.cu_typedefs)

let test_subprogram_decl () =
  let cus = roundtrip (sample_cus ()) in
  let cu = List.hd cus in
  let sp = List.hd cu.Info.cu_subprograms in
  Alcotest.(check string) "name" "blk_account_io_start" sp.Info.sp_name;
  Alcotest.(check int) "line" 120 sp.Info.sp_line;
  Alcotest.(check bool) "external" true sp.Info.sp_external;
  Alcotest.(check bool) "not declared inline" false sp.Info.sp_declared_inline;
  Alcotest.(check bool) "has low pc" true (sp.Info.sp_low_pc = Some 0x10000L);
  Alcotest.(check int) "params" 2 (List.length sp.Info.sp_proto.params);
  let p0 = List.hd sp.Info.sp_proto.params in
  Alcotest.(check string) "param name" "rq" p0.Ctype.pname;
  Alcotest.(check bool) "param type" true
    (Ctype.equal p0.Ctype.ptype (Ctype.Ptr (Ctype.Struct_ref "request")));
  Alcotest.(check (list string)) "call sites" [ "blk_do_io_stat" ] sp.Info.sp_calls

let test_inlined_subroutines () =
  let cus = roundtrip (sample_cus ()) in
  let cu = List.hd cus in
  let sp = List.nth cu.Info.cu_subprograms 1 in
  Alcotest.(check int) "two inlined" 2 (List.length sp.Info.sp_inlined);
  let ic = List.hd sp.Info.sp_inlined in
  Alcotest.(check string) "callee" "blk_account_io_start" ic.Info.ic_callee;
  Alcotest.(check int64) "pc" 0x10140L ic.Info.ic_pc;
  Alcotest.(check int) "call line" 310 ic.Info.ic_call_line

let test_static_inline_subprogram () =
  let cus = roundtrip (sample_cus ()) in
  let cu = List.nth cus 1 in
  let sp = List.hd cu.Info.cu_subprograms in
  Alcotest.(check bool) "static" false sp.Info.sp_external;
  Alcotest.(check bool) "declared inline" true sp.Info.sp_declared_inline;
  Alcotest.(check bool) "no low pc (fully inlined)" true (sp.Info.sp_low_pc = None);
  Alcotest.(check bool) "return type" true (Ctype.equal sp.Info.sp_proto.ret Ctype.long)

let test_struct_def_roundtrip () =
  let cus = roundtrip (sample_cus ()) in
  let cu = List.hd cus in
  let s = List.hd cu.Info.cu_structs in
  Alcotest.(check string) "name" "request" s.Decl.sname;
  Alcotest.(check int) "fields" 2 (List.length s.Decl.fields);
  let rq_disk = List.nth s.Decl.fields 1 in
  Alcotest.(check string) "field name" "rq_disk" rq_disk.Decl.fname;
  Alcotest.(check bool) "field type via opaque ref" true
    (Ctype.equal rq_disk.Decl.ftype (Ctype.Ptr (Ctype.Struct_ref "gendisk")));
  Alcotest.(check int) "offset" 64 rq_disk.Decl.bits_offset

let test_typedef_enum_roundtrip () =
  let cus = roundtrip (sample_cus ()) in
  let cu = List.hd cus in
  let td = List.hd cu.Info.cu_typedefs in
  Alcotest.(check string) "typedef name" "sector_t" td.Decl.tname;
  Alcotest.(check bool) "aliased" true (Ctype.equal td.Decl.aliased Ctype.ulong);
  let e = List.hd cu.Info.cu_enums in
  Alcotest.(check (list (pair string int))) "values"
    [ ("REQ_OP_READ", 0); ("REQ_OP_WRITE", 1) ]
    e.Decl.values

(* One CU defining [defs] and one subprogram taking [param]. *)
let cu_with ?(enums = []) ?(structs = []) param =
  Info.
    {
      cu_name = "neg.c";
      cu_subprograms =
        [
          {
            sp_name = "f";
            sp_proto = mk_proto Ctype.void [ ("x", param) ];
            sp_file = "neg.c";
            sp_line = 1;
            sp_external = true;
            sp_declared_inline = false;
            sp_low_pc = None;
            sp_inlined = [];
            sp_calls = [];
          };
        ];
      cu_structs = structs;
      cu_enums = enums;
      cu_typedefs = [];
    }

(* [enum e { A = -1, B = 0, C = min_int }]: negative constants go out as
   DW_FORM_sdata and come back signed. *)
let test_negative_enumerator () =
  let values = [ ("A", -1); ("B", 0); ("C", min_int) ] in
  let cu = cu_with ~enums:[ { Decl.ename = "e"; values } ] (Ctype.Enum_ref "e") in
  match roundtrip [ cu ] with
  | [ cu' ] ->
      Alcotest.(check (list (pair string int))) "values" values
        (List.hd cu'.Info.cu_enums).Decl.values
  | _ -> Alcotest.fail "one cu expected"

(* [T x[0]] (a flexible array member, and a bare parameter): the
   subrange says DW_AT_count 0 instead of an upper bound of -1. *)
let test_zero_length_array () =
  let arr = Ctype.Array (Ctype.u32, 0) in
  let tail =
    Decl.
      {
        sname = "tail";
        skind = `Struct;
        byte_size = 8;
        fields =
          [
            { fname = "len"; ftype = Ctype.u64; bits_offset = 0 };
            { fname = "data"; ftype = arr; bits_offset = 64 };
          ];
      }
  in
  let cu = cu_with ~structs:[ tail ] arr in
  match roundtrip [ cu ] with
  | [ cu' ] -> Alcotest.(check bool) "member and param read back" true (cu' = cu)
  | _ -> Alcotest.fail "one cu expected"

let test_bad_input () =
  Alcotest.check_raises "garbage abbrev" (Info.Bad_dwarf "truncated abbrev") (fun () ->
      ignore (Info.decode ~info:"" ~abbrev:"\x81" ()))

(* Hand-assembled sections for the lenient cases, written with the
   standard DWARF 4 tag, attribute and form numbers. *)
module W = Ds_util.Bytesio.Writer

let abbrev =
  let w = W.create () in
  let name = (0x03, 0x08) and byte_size = (0x0b, 0x0f) and type_ = (0x49, 0x13) in
  List.iter
    (fun (code, tag, children, pairs) ->
      W.uleb128 w code;
      W.uleb128 w tag;
      W.u8 w (if children then 1 else 0);
      List.iter
        (fun (at, form) ->
          W.uleb128 w at;
          W.uleb128 w form)
        (pairs @ [ (0, 0) ]))
    [
      (1, 0x11 (* compile_unit *), true, [ name ]);
      (2, 0x0f (* pointer_type *), false, [ type_ ]);
      (3, 0x13 (* structure_type *), true, [ name; byte_size ]);
      (4, 0x0d (* member *), false, [ name; type_ ]);
      (5, 0x16 (* typedef *), false, [ name; type_ ]);
      (6, 0x24 (* base_type *), false, [ name; byte_size; (0x3e, 0x0f) (* encoding *) ]);
    ];
  W.uleb128 w 0;
  W.contents w

let unit_header w ~body_len =
  W.u32 w (7 + body_len);
  W.u16 w 4;
  W.u32 w 0;
  W.u8 w 8

(* One unit holding compile unit "a.c", whose children [children] writes;
   [at ()] is the section offset of the next byte it writes. *)
let one_unit children =
  let body = W.create () in
  let at () = 11 + W.pos body in
  W.uleb128 body 1;
  W.cstring body "a.c";
  children body at;
  W.u8 body 0;
  let w = W.create () in
  unit_header w ~body_len:(W.pos body);
  W.append w body;
  W.contents w

let empty_cu =
  Info.{ cu_name = "a.c"; cu_subprograms = []; cu_structs = []; cu_enums = []; cu_typedefs = [] }

(* Lenient decodes to [cus] with exactly [diags]; strict raises
   [Bad_dwarf strict]. *)
let check_lenient ~info ~cus ~diags ~strict =
  let o = Info.decode ~mode:`Lenient ~info ~abbrev () in
  Alcotest.(check bool) "lenient cus" true (Ds_util.Diag.ok o = cus);
  Alcotest.(check (list string))
    "lenient diags" diags
    (List.map Ds_util.Diag.to_string (Ds_util.Diag.diags o));
  Alcotest.check_raises "strict" (Info.Bad_dwarf strict) (fun () ->
      ignore (Info.decode ~info ~abbrev ()))

let test_dangling_ref () =
  let info =
    one_unit (fun w _ ->
        W.uleb128 w 3;
        W.cstring w "s";
        W.uleb128 w 8;
        W.uleb128 w 4;
        W.cstring w "m";
        W.u32 w 9999;
        W.u8 w 0)
  in
  (* the dropped ref leaves the member untyped; the struct survives *)
  let s =
    Decl.
      {
        sname = "s";
        skind = `Struct;
        byte_size = 8;
        fields = [ { fname = "m"; ftype = Ctype.Void; bits_offset = 0 } ];
      }
  in
  check_lenient ~info
    ~cus:[ { empty_cu with cu_structs = [ s ] } ]
    ~diags:[ "degraded dwarf: 1 dangling references dropped" ]
    ~strict:"dangling ref to offset 9999"

let test_ref_cycle () =
  let info =
    one_unit (fun w at ->
        let p1 = at () in
        W.uleb128 w 2;
        W.u32 w (p1 + 5) (* the next pointer DIE *);
        W.uleb128 w 2;
        W.u32 w p1;
        W.uleb128 w 5;
        W.cstring w "t";
        W.u32 w p1)
  in
  check_lenient ~info ~cus:[]
    ~diags:[ "degraded dwarf: 1 compile units undecodable (skipped)" ]
    ~strict:"type reference cycle"

let test_ref_to_member () =
  let info =
    one_unit (fun w at ->
        let int_ = at () in
        W.uleb128 w 6;
        W.cstring w "int";
        W.uleb128 w 4;
        W.uleb128 w 5;
        W.uleb128 w 3;
        W.cstring w "s";
        W.uleb128 w 4;
        let m = at () in
        W.uleb128 w 4;
        W.cstring w "m";
        W.u32 w int_;
        W.u8 w 0;
        W.uleb128 w 5;
        W.cstring w "t";
        W.u32 w m)
  in
  check_lenient ~info ~cus:[]
    ~diags:[ "degraded dwarf: 1 compile units undecodable (skipped)" ]
    ~strict:"unexpected type tag 0xd"

let test_unknown_abbrev () =
  let good = one_unit (fun _ _ -> ()) in
  let bad = W.create () in
  unit_header bad ~body_len:1;
  W.uleb128 bad 42;
  let off = String.length good in
  check_lenient ~info:(good ^ W.contents bad) ~cus:[ empty_cu ]
    ~diags:[ Printf.sprintf "degraded dwarf@%d (unit at offset %d): unknown abbrev 42" off off ]
    ~strict:(Printf.sprintf "unit at offset %d: unknown abbrev 42" off)

let test_empty_cu_list () =
  let info, abbrev = Info.encode [] in
  Alcotest.(check (list pass)) "no cus" [] (Ds_util.Diag.ok (Info.decode ~info ~abbrev ()))

(* Random CUs for the roundtrip property: every kind of type DIE the
   encoder writes. Aggregate, enum and typedef names come from small
   pools of which only a prefix is defined, so references hit defined,
   declaration-only and (through [next] fields) self-referencing types. *)
let gen_base =
  QCheck.Gen.oneofl
    Ctype.[ int_; uint; long; char_; u64; u32; bool_; Float { name = "double"; bits = 64 } ]

let gen_named ~typedefs =
  let open QCheck.Gen in
  let pick f prefix n = map (fun i -> f (Printf.sprintf "%s%d" prefix i)) (int_range 0 n) in
  oneof
    ([
       pick (fun s -> Ctype.Struct_ref s) "s" 5;
       pick (fun s -> Ctype.Union_ref s) "s" 5;
       pick (fun s -> Ctype.Enum_ref s) "e" 2;
     ]
    @ if typedefs then [ pick (fun s -> Ctype.Typedef_ref s) "t" 2 ] else [])

let gen_proto_of gen_t =
  let open QCheck.Gen in
  let* types = list_size (int_range 0 3) gen_t in
  let* ret = oneof [ return Ctype.Void; gen_t ] in
  let* variadic = bool in
  return
    Ctype.
      {
        ret;
        params = List.mapi (fun i t -> { pname = Printf.sprintf "p%d" i; ptype = t }) types;
        variadic;
      }

(* [typedefs:false] for a typedef's own target: a typedef reaching itself
   through typedefs alone has no finite DWARF. *)
let gen_type ~typedefs =
  let open QCheck.Gen in
  fix
    (fun self depth ->
      let leaf = oneof [ gen_base; gen_named ~typedefs ] in
      if depth = 0 then leaf
      else
        let sub = self (depth - 1) in
        frequency
          [
            (4, leaf);
            (2, map (fun t -> Ctype.Ptr t) sub);
            (1, return (Ctype.Ptr Ctype.Void));
            (1, map (fun t -> Ctype.Const t) sub);
            (1, map (fun t -> Ctype.Volatile t) sub);
            (1, map2 (fun t n -> Ctype.Array (t, n)) sub (int_range 0 16));
            (1, map (fun p -> Ctype.Ptr (Ctype.Func_proto p)) (gen_proto_of sub));
          ])
    2

let gen_struct name =
  let open QCheck.Gen in
  let* kind = oneofl [ `Struct; `Union ] in
  let* types = list_size (int_range 0 4) (gen_type ~typedefs:true) in
  let* self_ref = bool in
  let* byte_size = int_range 0 256 in
  let self = match kind with `Struct -> Ctype.Struct_ref name | `Union -> Ctype.Union_ref name in
  let types = if self_ref then types @ [ Ctype.Ptr self ] else types in
  return
    Decl.
      {
        sname = name;
        skind = kind;
        byte_size;
        fields =
          List.mapi
            (fun i t -> { fname = Printf.sprintf "f%d" i; ftype = t; bits_offset = 64 * i })
            types;
      }

let gen_enum name =
  let open QCheck.Gen in
  let* values = list_size (int_range 0 4) (int_range (-1000) 1000) in
  return Decl.{ ename = name; values = List.mapi (fun i v -> (Printf.sprintf "E%d" i, v)) values }

let gen_typedef name =
  QCheck.Gen.map (fun t -> Decl.{ tname = name; aliased = t }) (gen_type ~typedefs:false)

(* the first [0..max] names of a pool, each defined by [gen] *)
let gen_defs prefix max gen =
  let open QCheck.Gen in
  let* n = int_range 0 max in
  flatten_l (List.init n (fun i -> gen (Printf.sprintf "%s%d" prefix i)))

let gen_subprogram =
  let open QCheck.Gen in
  let* name = string_size ~gen:(char_range 'a' 'z') (int_range 1 12) in
  let* proto = gen_proto_of (gen_type ~typedefs:true) in
  let* line = int_range 1 5000 in
  let* external_ = bool in
  let* declared_inline = bool in
  let* has_pc = bool in
  let* n_inlined = int_range 0 3 in
  let* inlined =
    list_size (return n_inlined)
      (let* callee = string_size ~gen:(char_range 'a' 'z') (int_range 1 8) in
       let* pc = int_range 1 1000000 in
       let* l = int_range 1 9999 in
       return Info.{ ic_callee = callee; ic_pc = Int64.of_int (pc * 16); ic_call_line = l })
  in
  let* calls = list_size (int_range 0 3) (string_size ~gen:(char_range 'a' 'z') (int_range 1 8)) in
  return
    Info.
      {
        sp_name = name;
        sp_proto = proto;
        sp_file = "gen/file.c";
        sp_line = line;
        sp_external = external_;
        sp_declared_inline = declared_inline;
        sp_low_pc = (if has_pc then Some 0x1000L else None);
        sp_inlined = inlined;
        sp_calls = calls;
      }

let gen_cu =
  let open QCheck.Gen in
  let* name = string_size ~gen:(char_range 'a' 'z') (int_range 1 10) in
  let* sps = list_size (int_range 0 5) gen_subprogram in
  let* structs = gen_defs "s" 4 gen_struct in
  let* enums = gen_defs "e" 2 gen_enum in
  let* typedefs = gen_defs "t" 2 gen_typedef in
  return
    Info.
      {
        cu_name = name ^ ".c";
        cu_subprograms = sps;
        cu_structs = structs;
        cu_enums = enums;
        cu_typedefs = typedefs;
      }

(* The encoder writes a referenced aggregate before its referrer, so
   definitions come back in placement order: compare them as sets. *)
let same_cu (a : Info.cu) (b : Info.cu) =
  let by key l = List.sort (fun x y -> compare (key x) (key y)) l in
  let sname (s : Decl.struct_def) = s.sname in
  let ename (e : Decl.enum_def) = e.ename in
  let tname (t : Decl.typedef_def) = t.tname in
  a.cu_name = b.cu_name
  && a.cu_subprograms = b.cu_subprograms
  && by sname a.cu_structs = by sname b.cu_structs
  && by ename a.cu_enums = by ename b.cu_enums
  && by tname a.cu_typedefs = by tname b.cu_typedefs

let qcheck_info_roundtrip =
  QCheck.Test.make ~name:"dwarf Info roundtrip (random CUs)" ~count:100
    (QCheck.make QCheck.Gen.(list_size (int_range 0 4) gen_cu))
    (fun cus ->
      let info, abbrev = Info.encode cus in
      let cus' = Ds_util.Diag.ok (Info.decode ~info ~abbrev ()) in
      List.length cus = List.length cus' && List.for_all2 same_cu cus cus')

let suites =
  [
    ( "dwarf",
      [
        Alcotest.test_case "cu structure" `Quick test_cu_structure;
        Alcotest.test_case "subprogram decl" `Quick test_subprogram_decl;
        Alcotest.test_case "inlined subroutines" `Quick test_inlined_subroutines;
        Alcotest.test_case "static inline subprogram" `Quick test_static_inline_subprogram;
        Alcotest.test_case "struct def" `Quick test_struct_def_roundtrip;
        Alcotest.test_case "typedef/enum" `Quick test_typedef_enum_roundtrip;
        Alcotest.test_case "negative enumerator" `Quick test_negative_enumerator;
        Alcotest.test_case "zero-length array" `Quick test_zero_length_array;
        Alcotest.test_case "bad input" `Quick test_bad_input;
        Alcotest.test_case "dangling ref" `Quick test_dangling_ref;
        Alcotest.test_case "ref cycle" `Quick test_ref_cycle;
        Alcotest.test_case "ref to member" `Quick test_ref_to_member;
        Alcotest.test_case "unknown abbrev" `Quick test_unknown_abbrev;
        Alcotest.test_case "empty cu list" `Quick test_empty_cu_list;
        QCheck_alcotest.to_alcotest qcheck_info_roundtrip;
      ] );
  ]
