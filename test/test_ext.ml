(* Tests for the extension features: maps, JSON export, the compatibility
   layer, the disassembler, special-function censuses, plus failure
   injection against the binary codecs. *)

open Ds_ksrc
open Ds_bpf
open Depsurf

let ds = lazy (Dataset.build ~seed:Testenv.seed Calibration.test_scale)
let v54 = Version.v 5 4

(* ------------------------------------------------------------------ *)
(* Maps                                                                *)
(* ------------------------------------------------------------------ *)

let hash_def =
  Maps.{ md_name = "h"; md_type = Hash; md_key_size = 4; md_value_size = 8; md_max_entries = 4 }

let test_maps_hash () =
  let m = Maps.create hash_def in
  let k i = Maps.key_of_int m i in
  Alcotest.(check bool) "lookup empty" true (Maps.lookup m (k 1) = None);
  Alcotest.(check bool) "insert" true (Maps.update m (k 1) "AAAAAAAA" = Ok ());
  Alcotest.(check (option string)) "read back" (Some "AAAAAAAA") (Maps.lookup m (k 1));
  Alcotest.(check bool) "noexist fails on present" true
    (Maps.update ~flag:Maps.Noexist m (k 1) "BBBBBBBB" = Error "EEXIST");
  Alcotest.(check bool) "exist fails on absent" true
    (Maps.update ~flag:Maps.Exist m (k 2) "BBBBBBBB" = Error "ENOENT");
  ignore (Maps.update m (k 2) "BBBBBBBB");
  ignore (Maps.update m (k 3) "CCCCCCCC");
  ignore (Maps.update m (k 4) "DDDDDDDD");
  Alcotest.(check bool) "capacity (E2BIG)" true
    (Maps.update m (k 5) "EEEEEEEE" = Error "E2BIG");
  Alcotest.(check bool) "delete" true (Maps.delete m (k 1) = Ok ());
  Alcotest.(check bool) "delete absent" true (Maps.delete m (k 1) = Error "ENOENT");
  Alcotest.(check int) "entries" 3 (Maps.entries m)

let test_maps_array () =
  let m =
    Maps.create
      Maps.{ md_name = "a"; md_type = Array; md_key_size = 4; md_value_size = 8; md_max_entries = 3 }
  in
  Alcotest.(check int) "prepopulated" 3 (Maps.entries m);
  let k = Maps.key_of_int m 1 in
  Alcotest.(check (option string)) "zero value" (Some (String.make 8 '\000')) (Maps.lookup m k);
  Alcotest.(check bool) "in-range update" true (Maps.update m k "XXXXXXXX" = Ok ());
  Alcotest.(check bool) "out of range" true
    (Maps.update m (Maps.key_of_int m 7) "XXXXXXXX" = Error "E2BIG");
  Alcotest.(check bool) "array delete refused" true (Maps.delete m k = Error "EINVAL")

let test_maps_percpu () =
  let m =
    Maps.create
      Maps.
        {
          md_name = "p";
          md_type = Percpu_array 4;
          md_key_size = 4;
          md_value_size = 8;
          md_max_entries = 2;
        }
  in
  let k = Maps.key_of_int m 0 in
  ignore (Maps.update ~cpu:2 m k "22222222");
  (match Maps.lookup_percpu m k with
  | Some slots ->
      Alcotest.(check int) "4 cpus" 4 (List.length slots);
      Alcotest.(check string) "cpu2 slot" "22222222" (List.nth slots 2)
  | None -> Alcotest.fail "missing key");
  Alcotest.(check (option string)) "cpu0 view untouched" (Some (String.make 8 '\000'))
    (Maps.lookup m k)

let test_maps_bump_and_keys () =
  let m = Maps.create hash_def in
  let k = Maps.key_of_int m 42 in
  Maps.bump m k 5;
  Maps.bump m k 7;
  Alcotest.(check int) "accumulated" 12 (Maps.value_to_int (Option.get (Maps.lookup m k)));
  Alcotest.check_raises "bad key size" (Maps.Map_error "h: key size 2, want 4") (fun () ->
      ignore (Maps.lookup m "xx"))

let test_maps_obj_roundtrip () =
  let obj =
    Pipeline.build_program (Lazy.force ds)
      Progbuild.
        {
          sp_tool = "mapcheck";
          sp_hooks =
            [ { hs_hook = Hook.Kprobe "vfs_read"; hs_arg_indices = []; hs_kfuncs = []; hs_reads = [] } ];
        }
  in
  Alcotest.(check int) "events map survives the wire" 1 (List.length obj.Obj.o_maps);
  let d = List.hd obj.Obj.o_maps in
  Alcotest.(check string) "map name" "events" d.Maps.md_name;
  let instances = Loader.instantiate_maps obj in
  Alcotest.(check bool) "instantiable" true (List.mem_assoc "events" instances)

let test_runtime_fills_events_map () =
  let obj =
    Pipeline.build_program (Lazy.force ds)
      Progbuild.
        {
          sp_tool = "fsync_count";
          sp_hooks =
            [ { hs_hook = Hook.Kprobe "vfs_fsync"; hs_arg_indices = []; hs_kfuncs = []; hs_reads = [] } ];
        }
  in
  match Pipeline.load_on (Lazy.force ds) (Version.v 4 4) Config.x86_generic obj with
  | Error e -> Alcotest.fail (Loader.error_to_string e)
  | Ok attachments ->
      let events = List.assoc "events" (Loader.instantiate_maps obj) in
      let model = Dataset.model (Lazy.force ds) (Version.v 4 4) Config.x86_generic in
      let r = Runtime.simulate ~events_map:events model ~attachments ~expectations:[] ~rounds:10 in
      let observed = (List.hd r.Runtime.r_per_prog).Runtime.ps_observed in
      Alcotest.(check bool) "observed something" true (observed > 0);
      Alcotest.(check int) "map slot holds the count" observed
        (Maps.value_to_int (Option.get (Maps.lookup events (Maps.key_of_int events 0))))

(* ------------------------------------------------------------------ *)
(* JSON                                                                *)
(* ------------------------------------------------------------------ *)

let test_json_roundtrip () =
  let open Ds_util.Json in
  let v =
    Obj
      [
        ("name", String "vfs_fsync");
        ("null", Null);
        ("count", Int 42);
        ("neg", Int (-17));
        ("f", Float 1.5);
        ("ok", Bool true);
        ("items", List [ Int 1; String "two\nlines"; Obj []; List [] ]);
      ]
  in
  Alcotest.(check bool) "roundtrip" true (of_string (to_string v) = v)

let test_json_parse_errors () =
  let open Ds_util.Json in
  List.iter
    (fun s ->
      match of_string s with
      | exception Parse_error _ -> ()
      | _ -> Alcotest.fail ("should not parse: " ^ s))
    [ "{"; "[1,"; "\"unterminated"; "tru"; "{\"a\" 1}"; "1 2"; "" ]

(* random trees whose strings and keys are dense in quotes, backslashes
   and control bytes; a non-finite float reads back as null *)
let qcheck_json_roundtrip =
  let open Ds_util.Json in
  let str =
    let open QCheck.Gen in
    string_size (int_range 0 10)
      ~gen:(frequency [ (1, oneofl [ '"'; '\\'; '\n'; '\r'; '\t'; '\000'; '\031' ]); (2, char) ])
  in
  let rec gen depth st =
    let open QCheck.Gen in
    if depth = 0 then
      oneof
        [ map (fun i -> Int i) int; map (fun s -> String s) str; map (fun f -> Float f) float;
          return Null; map (fun b -> Bool b) bool ]
        st
    else
      frequency
        [
          (2, gen 0);
          (1, map (fun l -> List l) (list_size (int_range 0 4) (gen (depth - 1))));
          (1, map (fun l -> Obj l) (list_size (int_range 0 4) (pair str (gen (depth - 1)))));
        ]
        st
  in
  let rec expected = function
    | Float f when not (Float.is_finite f) -> Null
    | List l -> List (List.map expected l)
    | Obj l -> Obj (List.map (fun (k, v) -> (k, expected v)) l)
    | v -> v
  in
  QCheck.Test.make ~name:"json roundtrip" ~count:200 (QCheck.make ~print:to_string (gen 3))
    (fun v -> of_string (to_string v) = expected v)

(* ------------------------------------------------------------------ *)
(* Export (artifact appendix format)                                   *)
(* ------------------------------------------------------------------ *)

let test_export_func_status () =
  let open Ds_util.Json in
  let s = Dataset.surface (Lazy.force ds) v54 Config.x86_generic in
  let fe = Option.get (Surface.find_func s "vfs_fsync") in
  let j = Export.func_status fe in
  Alcotest.(check (option string)) "name" (Some "vfs_fsync")
    (Option.map to_str (member "name" j));
  Alcotest.(check (option string)) "collision_type" (Some "Unique Global")
    (Option.map to_str (member "collision_type" j));
  Alcotest.(check (option string)) "inline_type (appendix wording)" (Some "Partially inlined")
    (Option.map to_str (member "inline_type" j));
  (match member "funcs" j with
  | Some (List [ inst ]) ->
      Alcotest.(check (option string)) "loc" (Some "fs/sync.c:213")
        (Option.map to_str (member "loc" inst));
      (match member "caller_inline" inst with
      | Some (List (_ :: _)) -> ()
      | _ -> Alcotest.fail "caller_inline empty")
  | _ -> Alcotest.fail "funcs shape");
  (* the export must be valid JSON text *)
  Alcotest.(check bool) "serializes and reparses" true
    (of_string (to_string j) = j)

let test_export_struct_and_decl () =
  let open Ds_util.Json in
  let s = Dataset.surface (Lazy.force ds) v54 Config.x86_generic in
  let task = Option.get (Surface.find_struct s "task_struct") in
  let j = Export.struct_def task in
  Alcotest.(check (option string)) "kind" (Some "STRUCT") (Option.map to_str (member "kind" j));
  (match member "members" j with
  | Some (List members) ->
      Alcotest.(check bool) "has members" true (List.length members > 5);
      let first = List.hd members in
      Alcotest.(check bool) "bits_offset present" true (member "bits_offset" first <> None)
  | _ -> Alcotest.fail "members shape");
  let fe = Option.get (Surface.find_func s "vfs_fsync") in
  let dj = Export.func_decl ~name:"vfs_fsync" (Surface.representative_proto fe) in
  match member "type" dj with
  | Some ty ->
      Alcotest.(check (option string)) "FUNC_PROTO" (Some "FUNC_PROTO")
        (Option.map to_str (member "kind" ty));
      (match member "params" ty with
      | Some (List [ p1; _ ]) ->
          Alcotest.(check (option string)) "param name" (Some "file")
            (Option.map to_str (member "name" p1))
      | _ -> Alcotest.fail "params shape")
  | None -> Alcotest.fail "missing type"

let test_export_tracepoint () =
  let open Ds_util.Json in
  let s = Dataset.surface (Lazy.force ds) v54 Config.x86_generic in
  let tp = Option.get (Surface.find_tracepoint s "sched_switch") in
  let j = Export.tracepoint tp in
  Alcotest.(check (option string)) "event_name" (Some "sched_switch")
    (Option.map to_str (member "event_name" j));
  Alcotest.(check (option string)) "struct_name" (Some "trace_event_raw_sched_switch")
    (Option.map to_str (member "struct_name" j));
  Alcotest.(check bool) "func decl embedded" true (member "func" j <> None);
  Alcotest.(check bool) "event struct embedded" true (member "struct" j <> None)

let test_export_matrix_json () =
  let open Ds_util.Json in
  let obj =
    Pipeline.build_program (Lazy.force ds)
      Progbuild.
        {
          sp_tool = "jsonable";
          sp_hooks =
            [
              {
                hs_hook = Hook.Kprobe "blk_account_io_start";
                hs_arg_indices = []; hs_kfuncs = [];
                hs_reads = [];
              };
            ];
        }
  in
  let m = Pipeline.analyze (Lazy.force ds) obj in
  let j = Export.matrix m in
  Alcotest.(check (option string)) "program" (Some "jsonable")
    (Option.map to_str (member "program" j));
  (* valid JSON text that reparses *)
  Alcotest.(check bool) "reparses" true (of_string (to_string j) = j);
  match member "dependencies" j with
  | Some (List (dep :: _)) -> (
      match member "images" dep with
      | Some (Obj cells) -> Alcotest.(check int) "21 images" 21 (List.length cells)
      | _ -> Alcotest.fail "images shape")
  | _ -> Alcotest.fail "dependencies shape"

(* ------------------------------------------------------------------ *)
(* Dataset import: export -> import round-trips the analyses           *)
(* ------------------------------------------------------------------ *)

let test_import_roundtrip_surface () =
  let s = Dataset.surface (Lazy.force ds) v54 Config.x86_generic in
  let s' = Import.surface_of_string (Ds_util.Json.to_string (Export.surface s)) in
  Alcotest.(check string) "identity preserved" (Surface.tag s) (Surface.tag s');
  let c1 = Surface.counts s and c2 = Surface.counts s' in
  Alcotest.(check bool) "same counts" true (c1 = c2);
  (* self-diff of the imported surface against the original is empty *)
  let d = Diff.compare_surfaces Diff.Across_versions s s' in
  Alcotest.(check (list string)) "no funcs added" [] d.Diff.df_funcs.Diff.d_added;
  Alcotest.(check (list string)) "no funcs removed" [] d.Diff.df_funcs.Diff.d_removed;
  Alcotest.(check int) "no funcs changed" 0 (List.length d.Diff.df_funcs.Diff.d_changed);
  Alcotest.(check int) "no structs changed" 0 (List.length d.Diff.df_structs.Diff.d_changed);
  Alcotest.(check int) "no tracepoints changed" 0
    (List.length d.Diff.df_tracepoints.Diff.d_changed);
  Alcotest.(check (list string)) "no syscalls changed" [] d.Diff.df_syscalls.Diff.d_added

let test_import_preserves_classification () =
  let s = Dataset.surface (Lazy.force ds) (Version.v 5 19) Config.x86_generic in
  let s' = Import.surface_of_string (Ds_util.Json.to_string (Export.surface s)) in
  let status name surf = Func_status.inline_status (Option.get (Surface.find_func surf name)) in
  Alcotest.(check bool) "full inline preserved" true
    (status "blk_account_io_start" s' = Func_status.Fully_inlined);
  Alcotest.(check bool) "selective preserved" true
    (status "vfs_fsync" s' = status "vfs_fsync" s);
  let ns name surf = Func_status.name_status (Option.get (Surface.find_func surf name)) in
  Alcotest.(check bool) "collision preserved" true
    (ns "destroy_inodecache" s' = Func_status.Static_static_collision);
  Alcotest.(check bool) "duplication preserved" true
    (ns "get_order" s' = ns "get_order" s && ns "get_order" s = Func_status.Duplication);
  (* dependency statuses agree between the live and the imported surface *)
  let baseline = Dataset.surface (Lazy.force ds) v54 Config.x86_generic in
  List.iter
    (fun dep ->
      Alcotest.(check bool)
        (Depset.dep_to_string dep ^ " statuses agree")
        true
        (Report.statuses ~baseline ~target:s dep = Report.statuses ~baseline ~target:s' dep))
    [
      Depset.Dep_func "blk_account_io_start";
      Depset.Dep_func "get_order";
      Depset.Dep_field ("request", "rq_disk");
      Depset.Dep_tracepoint "block_rq_issue";
      Depset.Dep_syscall "open";
    ]

let test_import_rejects_garbage () =
  (match Import.surface_of_string "{ not json" with
  | exception Import.Bad_dataset _ -> ()
  | _ -> Alcotest.fail "bad JSON accepted");
  match Import.surface_of_string "{\"version\": 42}" with
  | exception Import.Bad_dataset _ -> ()
  | _ -> Alcotest.fail "bad document accepted"

(* ------------------------------------------------------------------ *)
(* Compatibility layer                                                 *)
(* ------------------------------------------------------------------ *)

let test_compat_biotop_lineage () =
  let probe = Option.get (Compat.find_probe "block:io_start") in
  let hook_on v =
    (Compat.resolve probe (Dataset.surface (Lazy.force ds) v Config.x86_generic)).Compat.rs_hook
  in
  Alcotest.(check bool) "kprobe until 5.15" true
    (hook_on (Version.v 5 15) = Some (Hook.Kprobe "blk_account_io_start"));
  Alcotest.(check bool) "fallback at 5.19 (inline)" true
    (hook_on (Version.v 5 19) = Some (Hook.Kprobe "blk_mq_start_request"));
  Alcotest.(check bool) "tracepoint from 6.5" true
    (hook_on (Version.v 6 5)
    = Some (Hook.Tracepoint { category = "block"; event = "block_io_start" }));
  (* and the skipped candidates carry reasons *)
  let res = Compat.resolve probe (Dataset.surface (Lazy.force ds) (Version.v 5 19) Config.x86_generic) in
  Alcotest.(check bool) "skip reasons recorded" true
    (List.exists (fun (_, why) -> why = "function fully inlined") res.Compat.rs_skipped)

let test_compat_readahead_lineage () =
  let probe = Option.get (Compat.find_probe "mm:readahead") in
  let hook_on v =
    (Compat.resolve probe (Dataset.surface (Lazy.force ds) v Config.x86_generic)).Compat.rs_hook
  in
  Alcotest.(check bool) "old name until 5.8" true
    (hook_on (Version.v 4 4) = Some (Hook.Kprobe "__do_page_cache_readahead"));
  Alcotest.(check bool) "renamed at 5.11" true
    (hook_on (Version.v 5 13) = Some (Hook.Kprobe "do_page_cache_ra"));
  Alcotest.(check bool) "new symbol at 5.19" true
    (hook_on (Version.v 6 8) = Some (Hook.Kprobe "page_cache_ra_order"))

let test_compat_coverage_and_unresolved () =
  let probe = Option.get (Compat.find_probe "mm:readahead") in
  let cov =
    Compat.coverage probe (Lazy.force ds)
      (List.map (fun v -> (v, Config.x86_generic)) Version.all)
  in
  Alcotest.(check int) "17 rows" 17 (List.length cov);
  Alcotest.(check bool) "all x86 versions resolve" true
    (List.for_all (fun (_, r) -> r.Compat.rs_hook <> None) cov);
  (* a probe with no viable candidates yields None and a spec of None *)
  let dead =
    Compat.
      {
        pb_name = "dead:probe";
        pb_doc = "testing";
        pb_candidates = [ { ca_hook = Hook.Kprobe "no_such_function"; ca_since = None; ca_until = None } ];
      }
  in
  let res = Compat.resolve dead (Dataset.surface (Lazy.force ds) v54 Config.x86_generic) in
  Alcotest.(check bool) "unresolved" true (res.Compat.rs_hook = None);
  Alcotest.(check bool) "no spec" true (Compat.spec_of_resolution ~tool:"t" res = None)

let test_compat_spec_loads_everywhere () =
  (* the whole point: one stable probe, attachable on every kernel *)
  let probe = Option.get (Compat.find_probe "block:io_start") in
  List.iter
    (fun v ->
      let s = Dataset.surface (Lazy.force ds) v Config.x86_generic in
      match Compat.spec_of_resolution ~tool:"stable_biotop" (Compat.resolve probe s) with
      | None -> Alcotest.fail (Version.to_string v ^ ": unresolved")
      | Some spec -> (
          let obj = Pipeline.build_program (Lazy.force ds) spec in
          match Pipeline.load_on (Lazy.force ds) v Config.x86_generic obj with
          | Ok _ -> ()
          | Error e ->
              Alcotest.fail (Version.to_string v ^ ": " ^ Loader.error_to_string e)))
    Version.all

(* ------------------------------------------------------------------ *)
(* Disassembler                                                        *)
(* ------------------------------------------------------------------ *)

let test_disasm () =
  let contains hay needle =
    let n = String.length needle in
    let rec go i = i + n <= String.length hay && (String.sub hay i n = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check string) "mov" "r0 = 0" (Disasm.insn_to_string (Insn.Mov_imm { dst = 0; imm = 0 }));
  Alcotest.(check string) "ldx" "r7 = *(u64 *)(r6 + 112)"
    (Disasm.insn_to_string (Insn.Ldx { dst = 7; src = 6; off = 112; size = Insn.DW }));
  Alcotest.(check string) "neg off" "r1 = *(u32 *)(r10 - 16)"
    (Disasm.insn_to_string (Insn.Ldx { dst = 1; src = 10; off = -16; size = Insn.W }));
  Alcotest.(check string) "call named" "call bpf_probe_read#4"
    (Disasm.insn_to_string (Insn.Call 4));
  let obj =
    Pipeline.build_program (Lazy.force ds)
      Progbuild.
        {
          sp_tool = "dumpme";
          sp_hooks =
            [
              {
                hs_hook = Hook.Kprobe "blk_mq_start_request";
                hs_arg_indices = [ 0 ]; hs_kfuncs = [];
                hs_reads =
                  [ { rd_struct = "request"; rd_path = [ "__sector" ]; rd_exists_check = false } ];
              };
            ];
        }
  in
  let text = Disasm.obj obj in
  Alcotest.(check bool) "mentions section" true (contains text "SEC(\"kprobe/blk_mq_start_request\")");
  Alcotest.(check bool) "annotates CO-RE" true (contains text "CO-RE byte_off request::__sector");
  Alcotest.(check bool) "lists maps" true (contains text "map events: hash")

(* ------------------------------------------------------------------ *)
(* Special functions                                                   *)
(* ------------------------------------------------------------------ *)

let test_special_census () =
  let s = Dataset.surface (Lazy.force ds) v54 Config.x86_generic in
  let c = Func_status.special_census s in
  Alcotest.(check bool) "some LSM hooks" true (c.Func_status.sp_lsm >= 4);
  Alcotest.(check bool) "security_file_open classified" true
    (Func_status.is_lsm_hook "security_file_open");
  Alcotest.(check bool) "vfs_read not LSM" false (Func_status.is_lsm_hook "vfs_read");
  Alcotest.(check bool) "kfunc prefix" true (Func_status.is_kfunc "bpf_task_acquire")

(* ------------------------------------------------------------------ *)
(* Failure injection on the binary codecs                              *)
(* ------------------------------------------------------------------ *)

let corrupt bytes pos c =
  let b = Bytes.of_string bytes in
  Bytes.set b pos c;
  Bytes.to_string b

let test_truncated_image_sections () =
  (* a vmlinux missing its markers must fail loudly, not silently *)
  let img = Testenv.image (Version.v 4 4) in
  let no_banner =
    Ds_elf.Elf.
      { img with symbols = List.filter (fun s -> s.sym_name <> "linux_banner") img.symbols }
  in
  Alcotest.check_raises "missing banner" (Vmlinux.Bad_vmlinux "missing symbol linux_banner")
    (fun () -> ignore (Vmlinux.load no_banner));
  let no_btf =
    Ds_elf.Elf.
      { img with sections = List.filter (fun s -> s.sec_name <> ".BTF") img.sections }
  in
  Alcotest.check_raises "missing BTF" (Vmlinux.Bad_vmlinux "missing .BTF section") (fun () ->
      ignore (Vmlinux.load no_btf))

let test_corrupted_btf_rejected () =
  let img = Testenv.image (Version.v 4 4) in
  let sec = Option.get (Ds_elf.Elf.find_section img ".BTF") in
  let bad = corrupt sec.Ds_elf.Elf.sec_data 0 '\xFF' in
  match Ds_util.Diag.ok (Ds_btf.Btf.decode bad) with
  | exception Ds_btf.Btf.Bad_btf _ -> ()
  | _ -> Alcotest.fail "corrupted BTF accepted"

let test_corrupted_obj_rejected () =
  let obj = Pipeline.build_program (Lazy.force ds)
      Progbuild.{ sp_tool = "x"; sp_hooks = [ { hs_hook = Hook.Perf_event; hs_arg_indices = []; hs_kfuncs = []; hs_reads = [] } ] }
  in
  let bytes = Obj.write obj in
  (* truncating the file kills section parsing *)
  match Ds_util.Diag.ok (Obj.read (String.sub bytes 0 (String.length bytes / 2))) with
  | exception Obj.Bad_obj _ -> ()
  | exception Ds_elf.Elf.Bad_elf _ -> ()
  | _ -> Alcotest.fail "truncated object accepted"

let test_surface_deterministic_across_builds () =
  (* two independent datasets with the same seed produce identical
     surfaces, byte for byte through the serialization *)
  let d1 = Dataset.build ~seed:99L Calibration.test_scale in
  let d2 = Dataset.build ~seed:99L Calibration.test_scale in
  let b1 = Ds_elf.Elf.write (Dataset.image d1 v54 Config.x86_generic) in
  let b2 = Ds_elf.Elf.write (Dataset.image d2 v54 Config.x86_generic) in
  Alcotest.(check bool) "identical image bytes" true (String.equal b1 b2)

let suites =
  [
    ( "ext.maps",
      [
        Alcotest.test_case "hash semantics" `Quick test_maps_hash;
        Alcotest.test_case "array semantics" `Quick test_maps_array;
        Alcotest.test_case "percpu" `Quick test_maps_percpu;
        Alcotest.test_case "bump + key checks" `Quick test_maps_bump_and_keys;
        Alcotest.test_case "obj roundtrip" `Quick test_maps_obj_roundtrip;
        Alcotest.test_case "runtime fills events map" `Quick test_runtime_fills_events_map;
      ] );
    ( "ext.json",
      [
        Alcotest.test_case "roundtrip" `Quick test_json_roundtrip;
        Alcotest.test_case "parse errors" `Quick test_json_parse_errors;
        QCheck_alcotest.to_alcotest qcheck_json_roundtrip;
      ] );
    ( "ext.export",
      [
        Alcotest.test_case "func status (appendix A)" `Quick test_export_func_status;
        Alcotest.test_case "struct + decl" `Quick test_export_struct_and_decl;
        Alcotest.test_case "tracepoint" `Quick test_export_tracepoint;
        Alcotest.test_case "matrix json" `Quick test_export_matrix_json;
        Alcotest.test_case "import roundtrip" `Quick test_import_roundtrip_surface;
        Alcotest.test_case "import preserves classification" `Quick
          test_import_preserves_classification;
        Alcotest.test_case "import rejects garbage" `Quick test_import_rejects_garbage;
      ] );
    ( "ext.compat",
      [
        Alcotest.test_case "biotop lineage" `Quick test_compat_biotop_lineage;
        Alcotest.test_case "readahead lineage" `Quick test_compat_readahead_lineage;
        Alcotest.test_case "coverage + unresolved" `Quick test_compat_coverage_and_unresolved;
        Alcotest.test_case "stable probe loads everywhere" `Quick
          test_compat_spec_loads_everywhere;
      ] );
    ("ext.disasm", [ Alcotest.test_case "dump" `Quick test_disasm ]);
    ("ext.special", [ Alcotest.test_case "census" `Quick test_special_census ]);
    ( "ext.failures",
      [
        Alcotest.test_case "missing image pieces" `Quick test_truncated_image_sections;
        Alcotest.test_case "corrupted BTF" `Quick test_corrupted_btf_rejected;
        Alcotest.test_case "corrupted object" `Quick test_corrupted_obj_rejected;
        Alcotest.test_case "deterministic builds" `Quick test_surface_deterministic_across_builds;
      ] );
  ]
