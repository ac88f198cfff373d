(* Golden pins for the public JSON shapes served to clients and written
   by `depsurf --json`: Export.func_status, Export.struct_def and
   Export.tracepoint over fixed synthetic inputs, plus the v1 envelope
   that wraps them on the wire. A field rename or reorder here is a
   breaking API change and must fail loudly. *)

open Depsurf
open Ds_ctypes
module Json = Ds_util.Json
module Diag = Ds_util.Diag

let int_t = Ctype.Int { name = "int"; bits = 32; signed = true }

let check_json name expected actual =
  Alcotest.(check string) name (Json.to_string expected) (Json.to_string actual)

(* ---- struct_def ----------------------------------------------------- *)

let sample_struct =
  Decl.
    {
      sname = "request";
      skind = `Struct;
      byte_size = 16;
      fields =
        [
          { fname = "q"; ftype = Ctype.Ptr (Ctype.Struct_ref "request_queue"); bits_offset = 0 };
          { fname = "tag"; ftype = int_t; bits_offset = 64 };
        ];
    }

let test_struct_def_golden () =
  check_json "struct_def"
    (Json.Obj
       [
         ("kind", Json.String "STRUCT");
         ("name", Json.String "request");
         ("size", Json.Int 16);
         ( "members",
           Json.List
             [
               Json.Obj
                 [
                   ("name", Json.String "q");
                   ("bits_offset", Json.Int 0);
                   ( "type",
                     Json.Obj
                       [
                         ("kind", Json.String "PTR");
                         ( "type",
                           Json.Obj
                             [
                               ("kind", Json.String "STRUCT");
                               ("name", Json.String "request_queue");
                             ] );
                       ] );
                 ];
               Json.Obj
                 [
                   ("name", Json.String "tag");
                   ("bits_offset", Json.Int 64);
                   ( "type",
                     Json.Obj [ ("kind", Json.String "INT"); ("name", Json.String "int") ] );
                 ];
             ] );
       ])
    (Export.struct_def sample_struct)

(* ---- func_status ----------------------------------------------------- *)

let sample_proto =
  Ctype.{ ret = int_t; params = [ { pname = "fd"; ptype = int_t } ]; variadic = false }

let sample_func =
  Surface.
    {
      fe_name = "vfs_fsync";
      fe_decls =
        [
          {
            di_tu = "fs/sync.c";
            di_file = "fs/sync.c";
            di_line = 220;
            di_proto = sample_proto;
            di_external = true;
            di_declared_inline = false;
            di_low_pc = Some 0x1000L;
          };
        ];
      fe_symbols =
        [
          Ds_elf.Elf.
            {
              sym_name = "vfs_fsync";
              sym_value = 0x1000L;
              sym_size = 64;
              sym_bind = Ds_elf.Elf.Global;
              sym_section = ".text";
            };
        ];
      fe_suffixed = [];
      fe_inline_sites = [];
      fe_callers = [ "do_fsync" ];
    }

let int_json = Json.Obj [ ("kind", Json.String "INT"); ("name", Json.String "int") ]

let proto_json =
  Json.Obj
    [
      ("kind", Json.String "FUNC_PROTO");
      ( "params",
        Json.List [ Json.Obj [ ("name", Json.String "fd"); ("type", int_json) ] ] );
      ("ret_type", int_json);
    ]

let test_func_status_golden () =
  check_json "func_status"
    (Json.Obj
       [
         ("name", Json.String "vfs_fsync");
         ("collision_type", Json.String "Unique Global");
         ("inline_type", Json.String "Not inlined");
         ( "decl",
           Json.Obj
             [
               ("kind", Json.String "FUNC");
               ("name", Json.String "vfs_fsync");
               ("type", proto_json);
             ] );
         ( "funcs",
           Json.List
             [
               Json.Obj
                 [
                   ("addr", Json.Int 0x1000);
                   ("name", Json.String "vfs_fsync");
                   ("external", Json.Bool true);
                   ("loc", Json.String "fs/sync.c:220");
                   ("file", Json.String "fs/sync.c");
                   ("inline", Json.String "not declared, not inlined");
                   ("caller_inline", Json.List []);
                   ("caller_func", Json.List [ Json.String "do_fsync" ]);
                 ];
             ] );
         ( "symbols",
           Json.List
             [
               Json.Obj
                 [
                   ("addr", Json.Int 0x1000);
                   ("name", Json.String "vfs_fsync");
                   ("section", Json.String ".text");
                   ("bind", Json.String "STB_GLOBAL");
                   ("size", Json.Int 64);
                 ];
             ] );
       ])
    (Export.func_status sample_func)

(* ---- tracepoint ------------------------------------------------------ *)

let sample_tp =
  Surface.
    {
      te_name = "block_rq_issue";
      te_class = "block_rq";
      te_event_struct = Some sample_struct;
      te_func = Some Decl.{ fname = "trace_block_rq_issue"; proto = sample_proto };
    }

let test_tracepoint_golden () =
  check_json "tracepoint"
    (Json.Obj
       [
         ("class_name", Json.String "block_rq");
         ("event_name", Json.String "block_rq_issue");
         ("func_name", Json.String "trace_event_raw_event_block_rq");
         ("struct_name", Json.String "trace_event_raw_block_rq");
         ( "func",
           Json.Obj
             [
               ("kind", Json.String "FUNC");
               ("name", Json.String "trace_block_rq_issue");
               ("type", proto_json);
             ] );
         ("struct", Export.struct_def sample_struct);
       ])
    (Export.tracepoint sample_tp)

(* ---- the v1 envelope -------------------------------------------------- *)

let test_envelope_shape () =
  let doc = Json.Obj [ ("answer", Json.Int 42) ] in
  check_json "clean envelope"
    (Json.Obj
       [
         ("v", Json.Int 1);
         ("health", Json.String "clean");
         ("data", doc);
         ("diagnostics", Json.List []);
       ])
    (Api.envelope doc);
  check_json "data unwraps" doc (Api.data (Api.envelope doc));
  check_json "non-envelope passes through" doc (Api.data doc);
  let degraded = Api.of_diags ~data:doc [ Diag.v Diag.Degraded ~component:"d1" "lost a section" ] in
  Alcotest.(check string) "degraded health" "degraded"
    (match Json.member "health" degraded with Some (Json.String s) -> s | _ -> "<missing>");
  (match Json.member "diagnostics" degraded with
  | Some (Json.List [ _ ]) -> ()
  | _ -> Alcotest.fail "envelope must carry the diagnostics list");
  match Json.member "v" (Api.error_envelope ~status:404 "nope") with
  | Some (Json.Int 1) -> ()
  | _ -> Alcotest.fail "errors are enveloped too"

let suites =
  [
    ( "export.golden",
      [
        Alcotest.test_case "struct_def" `Quick test_struct_def_golden;
        Alcotest.test_case "func_status" `Quick test_func_status_golden;
        Alcotest.test_case "tracepoint" `Quick test_tracepoint_golden;
        Alcotest.test_case "v1 envelope" `Quick test_envelope_shape;
      ] );
  ]
