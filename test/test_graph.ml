(* The dependency-graph engine: node syntax, build determinism across
   pool shapes, codec roundtrip + corruption discipline, query/closure
   semantics against the surface's own edge sources, store-backed warm
   loads, and blast-radius queries over the corpus, whose memoized
   inputs must give the unmemoized answers without repeated store reads. *)

open Ds_ksrc
module Depset = Depsurf.Depset
module Surface = Depsurf.Surface
module Graph = Ds_graph.Graph
module Blast = Ds_graph.Blast

let ds = Depsurf.Dataset.build ~seed:Depsurf.Pipeline.default_seed Calibration.test_scale
let v54 = Version.v 5 4
let surface () = Depsurf.Dataset.surface ds v54 Config.x86_generic

let test_dep_of_string () =
  let roundtrip d =
    Alcotest.(check bool)
      (Depset.dep_to_string d ^ " roundtrips")
      true
      (Depset.dep_of_string (Depset.dep_to_string d) = Some d)
  in
  List.iter roundtrip
    [
      Depset.Dep_func "vfs_fsync";
      Depset.Dep_struct "request";
      Depset.Dep_field ("request", "rq_disk");
      Depset.Dep_tracepoint "sched_switch";
      Depset.Dep_syscall "fsync";
    ];
  Alcotest.(check bool)
    "bare name is func" true
    (Depset.dep_of_string "vfs_fsync" = Some (Depset.Dep_func "vfs_fsync"));
  List.iter
    (fun s ->
      Alcotest.(check bool) (Printf.sprintf "%S rejected" s) true (Depset.dep_of_string s = None))
    [ ""; "func:"; "bogus:x"; "field:no_separator"; "field:::f"; "field:s::" ]

let test_build_deterministic () =
  let s = surface () in
  let b_seq = Graph.encode (Graph.build s) in
  Ds_util.Par.run ~jobs:4 (fun pool ->
      Alcotest.(check bool)
        "pooled build byte-identical" true
        (String.equal b_seq (Graph.encode (Graph.build ~pool s))));
  Ds_util.Par.run ~jobs:1 (fun pool ->
      Alcotest.(check bool)
        "jobs=1 pool byte-identical" true
        (String.equal b_seq (Graph.encode (Graph.build ~pool s))))

let test_codec_roundtrip () =
  let g = Graph.build (surface ()) in
  let bytes = Graph.encode g in
  let g2 = Graph.decode bytes in
  Alcotest.(check string) "tag survives" (Graph.tag g) (Graph.tag g2);
  Alcotest.(check int) "nodes survive" (Graph.n_nodes g) (Graph.n_nodes g2);
  Alcotest.(check int) "edges survive" (Graph.n_edges g) (Graph.n_edges g2);
  Alcotest.(check bool) "re-encode identical" true (String.equal bytes (Graph.encode g2))

let test_codec_corruption () =
  let bytes = Graph.encode (Graph.build (surface ())) in
  let expect_decode_error label data =
    match Graph.decode data with
    | _ -> Alcotest.failf "%s: decode accepted corrupt bytes" label
    | exception Depsurf.Codec.Decode_error _ -> ()
  in
  expect_decode_error "truncated" (String.sub bytes 0 (String.length bytes / 2));
  expect_decode_error "trailing garbage" (bytes ^ "\x00");
  expect_decode_error "empty" ""

let test_query_semantics () =
  let s = surface () in
  let g = Graph.build s in
  Alcotest.(check bool) "unknown node" true (Graph.query g ~dir:`Deps ~transitive:false (Depset.Dep_func "no_such_fn_xyz") = None);
  Alcotest.(check (list string)) "rclosure of unknown node" []
    (List.map Depset.dep_to_string (Graph.rclosure g (Depset.Dep_func "no_such_fn_xyz")));
  (* caller -> callee edges: every DWARF caller of a function must show
     up in its direct rdeps, and the function in the caller's deps *)
  let fe =
    match Surface.find_func s "vfs_fsync" with
    | Some fe -> fe
    | None -> Alcotest.fail "vfs_fsync missing from the test surface"
  in
  let self = Depset.Dep_func fe.Surface.fe_name in
  let rdeps = Option.value ~default:[] (Graph.query g ~dir:`Rdeps ~transitive:false self) in
  List.iter
    (fun caller ->
      Alcotest.(check bool)
        (caller ^ " in rdeps") true
        (List.mem (Depset.Dep_func caller) rdeps);
      let deps =
        Option.value ~default:[]
          (Graph.query g ~dir:`Deps ~transitive:false (Depset.Dep_func caller))
      in
      Alcotest.(check bool) (caller ^ " deps contain vfs_fsync") true (List.mem self deps))
    fe.Surface.fe_callers;
  (* the transitive closure contains the direct neighbours, excludes the
     start node, and is sorted *)
  let closure = Graph.rclosure g self in
  Alcotest.(check bool) "closure excludes start" true (not (List.mem self closure));
  List.iter
    (fun d -> Alcotest.(check bool) "direct rdep in closure" true (List.mem d closure))
    rdeps;
  Alcotest.(check bool) "closure sorted" true
    (closure = List.sort Depset.compare_dep closure);
  (* syscall -> arch implementation function *)
  match s.Surface.s_syscalls with
  | [] -> ()
  | sc :: _ ->
      let impl = Ds_kcc.Compile.syscall_symbol s.Surface.s_arch sc in
      if Surface.find_func s impl <> None then
        let deps =
          Option.value ~default:[]
            (Graph.query g ~dir:`Deps ~transitive:false (Depset.Dep_syscall sc))
        in
        Alcotest.(check bool)
          (Printf.sprintf "syscall %s -> %s" sc impl)
          true
          (List.mem (Depset.Dep_func impl) deps)

(* The multi-source reverse walk behind [Blast.hit_set]: over random
   changed sets, some holding a construct the graph does not know, one
   walk (and the hit set built on it) equals the union of each member's
   own closure, [d :: rclosure d], over the members in the graph, and
   visits each node once. *)
let qcheck_rreach_union =
  let g = lazy (Graph.build (surface ())) in
  let pool =
    lazy
      (let s = surface () in
       Array.of_list
         (List.map
            (fun (f : Surface.func_entry) -> Depset.Dep_func f.Surface.fe_name)
            s.Surface.s_funcs
         @ List.map
             (fun (sd : Ds_ctypes.Decl.struct_def) -> Depset.Dep_struct sd.Ds_ctypes.Decl.sname)
             s.Surface.s_structs
         @ List.map (fun sc -> Depset.Dep_syscall sc) s.Surface.s_syscalls))
  in
  let outside = Depset.Dep_func "no_such_fn_xyz" in
  let gen = QCheck.Gen.(pair (list_size (int_range 0 40) (int_bound 1_000_000)) bool) in
  QCheck.Test.make ~name:"rreach equals the union of per-node closures" ~count:100
    (QCheck.make gen) (fun (picks, with_outside) ->
      let g = Lazy.force g and pool = Lazy.force pool in
      let changed = List.map (fun i -> pool.(i mod Array.length pool)) picks in
      let changed = if with_outside then outside :: changed else changed in
      let expected =
        List.sort_uniq Depset.compare_dep
          (List.concat_map
             (fun d -> if Graph.mem g d then d :: Graph.rclosure g d else [])
             changed)
      in
      let walk = Graph.rreach g changed in
      let hit_keys =
        List.sort Depset.compare_dep
          (Hashtbl.fold (fun d () acc -> d :: acc) (Blast.hit_set g ~changed) [])
      in
      List.length walk = List.length expected
      && List.sort Depset.compare_dep walk = expected
      && hit_keys = expected)

let test_store_warm_load () =
  let dir = Filename.temp_file "ds-graph-store" "" in
  Sys.remove dir;
  let store = Ds_store.Store.open_ ~dir () in
  let ds' = Depsurf.Dataset.build ~seed:7L ~store Calibration.test_scale in
  let builds0 = Graph.build_count () in
  let g = Graph.of_dataset ds' v54 Config.x86_generic in
  Alcotest.(check int) "cold call builds once" 1 (Graph.build_count () - builds0);
  (* same key again: served by the in-process memo, no new build *)
  let g' = Graph.of_dataset ds' v54 Config.x86_generic in
  Alcotest.(check bool) "memoized object" true (g == g');
  Alcotest.(check int) "no rebuild on the memo hit" 1 (Graph.build_count () - builds0);
  (* a second process: raw store read of the persisted frame, no build *)
  let store2 = Ds_store.Store.open_ ~dir () in
  (match
     Ds_store.Store.find store2 ~ns:Graph.ns
       ~key:(Graph.store_key ds' v54 Config.x86_generic)
       ~decode:Graph.decode
   with
  | Some g_warm ->
      Alcotest.(check bool)
        "stored graph byte-identical" true
        (String.equal (Graph.encode g_warm) (Graph.encode g))
  | None -> Alcotest.fail "graph not persisted under the graph namespace");
  Alcotest.(check int) "warm load is decode-only" 1 (Graph.build_count () - builds0)

let test_blast () =
  (* bad releases are rejected before any graph work *)
  (match Blast.query ds ~release:(List.hd Version.all) (Depset.Dep_func "vfs_fsync") with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "first study release accepted");
  (* a corpus program is always inside the blast radius of its own
     direct dependencies: biotop hooks blk_account_io_start (the paper's
     Figure 2 symbol), so a blast on it at the release after v5.4 must
     list biotop *)
  let release = v54 |> Version.index |> fun i -> List.nth Version.all (i + 1) in
  match Blast.query ds ~release (Depset.Dep_func "blk_account_io_start") with
  | Error m -> Alcotest.failf "blast failed: %s" m
  | Ok r ->
      Alcotest.(check bool) "prev is v5.4" true (Version.equal r.Blast.bl_prev v54);
      Alcotest.(check bool) "closure includes the node" true (r.Blast.bl_closure_size >= 1);
      Alcotest.(check bool)
        "biotop transitively affected" true
        (List.exists (fun a -> a.Blast.af_name = "biotop") r.Blast.bl_affected);
      List.iter
        (fun a ->
          Alcotest.(check bool)
            (a.Blast.af_name ^ " has non-empty via") true
            (a.Blast.af_via <> []))
        r.Blast.bl_affected

(* The memoized query answers like an unmemoized composition of its
   inputs, byte for byte in [Blast.json], over sampled functions and
   structs (changed, removed and unchanged ones, plus biotop's own
   dependencies) at every release with a predecessor; the closure size
   read off the hit set equals the closure list's length. *)
let test_blast_memo_equivalence () =
  let cfg = Config.x86_generic in
  let built = Ds_corpus.Corpus.build_all ds () in
  let closure g node = if Graph.mem g node then node :: Graph.rclosure g node else [] in
  let biotop_deps =
    List.assoc "biotop"
      (List.map
         (fun ((pr : Ds_corpus.Table7.profile), obj) -> (pr.pr_name, Depset.of_obj obj))
         built)
  in
  let every k l = List.filteri (fun i _ -> i mod k = 0) l in
  let first n l = List.filteri (fun i _ -> i < n) l in
  let compared = ref 0 in
  List.iter
    (fun (prev, release) ->
      let g = Graph.of_dataset ds prev cfg in
      let old_s = Depsurf.Dataset.surface ds prev cfg in
      let diff =
        Depsurf.Diff.compare_surfaces Depsurf.Diff.Across_versions old_s
          (Depsurf.Dataset.surface ds release cfg)
      in
      let funcs = diff.Depsurf.Diff.df_funcs and structs = diff.Depsurf.Diff.df_structs in
      let nodes =
        List.map (fun n -> Depset.Dep_func n)
          (first 2 funcs.Depsurf.Diff.d_removed
          @ first 2 (List.map fst funcs.Depsurf.Diff.d_changed)
          @ List.map (fun (f : Surface.func_entry) -> f.Surface.fe_name) (every 40 old_s.Surface.s_funcs))
        @ List.map (fun n -> Depset.Dep_struct n)
            (first 2 structs.Depsurf.Diff.d_removed
            @ first 2 (List.map fst structs.Depsurf.Diff.d_changed)
            @ List.map (fun (sd : Ds_ctypes.Decl.struct_def) -> sd.Ds_ctypes.Decl.sname)
                (every 40 old_s.Surface.s_structs))
        @ first 3 biotop_deps
      in
      List.iter
        (fun node ->
          let cl = closure g node in
          let removed, reasons = Blast.fate diff node in
          let affected =
            List.filter_map
              (fun ((pr : Ds_corpus.Table7.profile), obj) ->
                match List.filter (fun d -> List.mem d cl) (Depset.of_obj obj) with
                | [] -> None
                | via ->
                    Some
                      { Blast.af_name = pr.pr_name; af_subsystem = pr.pr_subsystem; af_via = via })
              built
          in
          let expected =
            {
              Blast.bl_node = node;
              bl_release = release;
              bl_prev = prev;
              bl_removed = removed;
              bl_reasons = reasons;
              bl_closure_size = List.length cl;
              bl_affected = affected;
            }
          in
          match Blast.query ds ~release node with
          | Error m -> Alcotest.failf "blast %s failed: %s" (Depset.dep_to_string node) m
          | Ok r ->
              incr compared;
              let what = Depset.dep_to_string node ^ " @ " ^ Version.to_string release in
              Alcotest.(check int) (what ^ " closure size") (List.length cl) r.Blast.bl_closure_size;
              Alcotest.(check string) what
                (Ds_util.Json.to_string (Blast.json expected))
                (Ds_util.Json.to_string (Blast.json r)))
        nodes)
    (List.combine
       (List.filteri (fun i _ -> i < List.length Version.all - 1) Version.all)
       (List.tl Version.all));
  Alcotest.(check bool) "sampled pairs" true (!compared >= 100)

(* After the first blast on a dataset, blasts at other nodes and releases
   read nothing from the store: the corpus dependency sets come from the
   memo, not from 53 object reads each. Graphs and surfaces are warmed
   beforehand, as they have their own in-process memos. *)
let test_blast_memo_no_store_reads () =
  let dir = Filename.temp_file "ds-blast-store" "" in
  Sys.remove dir;
  let store = Ds_store.Store.open_ ~dir () in
  (* a seed no other test blasts, so the first query below fills the memo *)
  let ds' = Depsurf.Dataset.build ~seed:11L ~store Calibration.test_scale in
  List.iter (fun v -> ignore (Graph.of_dataset ds' v Config.x86_generic)) Version.all;
  let releases = List.tl Version.all in
  let blast release node =
    match Blast.query ds' ~release node with
    | Ok _ -> ()
    | Error m -> Alcotest.failf "blast failed: %s" m
  in
  blast (List.hd releases) (Depset.Dep_func "blk_account_io_start");
  let before = Ds_store.Store.stats store in
  List.iter
    (fun release ->
      List.iter (blast release)
        [ Depset.Dep_func "vfs_fsync"; Depset.Dep_struct "request"; Depset.Dep_func "no_such_fn" ])
    releases;
  let after = Ds_store.Store.stats store in
  Alcotest.(check int) "store hits unchanged" before.Ds_store.Store.c_hits
    after.Ds_store.Store.c_hits;
  Alcotest.(check int) "store misses unchanged" before.Ds_store.Store.c_misses
    after.Ds_store.Store.c_misses

let test_views () =
  let g = Graph.build (surface ()) in
  let j = Graph.query_json g ~dir:`Rdeps ~transitive:true (Depset.Dep_func "vfs_fsync") in
  let member k = Ds_util.Json.member k j in
  Alcotest.(check bool) "found" true (member "found" = Some (Ds_util.Json.Bool true));
  (match member "count", member "results" with
  | Some (Ds_util.Json.Int n), Some (Ds_util.Json.List l) ->
      Alcotest.(check int) "count matches results" n (List.length l)
  | _ -> Alcotest.fail "query_json shape");
  match Graph.stats_json g with
  | Ds_util.Json.Obj [ ("image", _); ("nodes", Ds_util.Json.Int n); ("edges", Ds_util.Json.Int e) ]
    ->
      Alcotest.(check int) "nodes" (Graph.n_nodes g) n;
      Alcotest.(check int) "edges" (Graph.n_edges g) e
  | _ -> Alcotest.fail "stats_json shape"

let suites =
  [
    ( "graph",
      [
        Alcotest.test_case "dep_of_string" `Quick test_dep_of_string;
        Alcotest.test_case "build deterministic across pools" `Quick test_build_deterministic;
        Alcotest.test_case "codec roundtrip" `Quick test_codec_roundtrip;
        Alcotest.test_case "codec corruption" `Quick test_codec_corruption;
        Alcotest.test_case "query semantics" `Quick test_query_semantics;
        QCheck_alcotest.to_alcotest qcheck_rreach_union;
        Alcotest.test_case "store warm load" `Quick test_store_warm_load;
        Alcotest.test_case "views" `Quick test_views;
        Alcotest.test_case "blast radius" `Slow test_blast;
        Alcotest.test_case "blast memo matches unmemoized" `Slow test_blast_memo_equivalence;
        Alcotest.test_case "blast memo reads no store" `Slow test_blast_memo_no_store_reads;
      ] );
  ]
