(* The parallel execution layer: pool determinism, exactly-once
   memoization under concurrent access, exception propagation, shutdown,
   and the jobs=1 vs jobs=N golden-equality guarantee. *)

open Ds_util
open Ds_ksrc

let test_map_list_deterministic () =
  let xs = List.init 200 Fun.id in
  let f x = (x * x) + 1 in
  let expected = List.map f xs in
  Par.run ~jobs:4 (fun p ->
      Alcotest.(check (list int)) "parallel equals sequential" expected (Par.map_list p f xs));
  Par.run ~jobs:1 (fun p ->
      Alcotest.(check int) "size-1 pool" 1 (Par.jobs p);
      Alcotest.(check (list int)) "sequential fallback" expected (Par.map_list p f xs))

let test_map_reduce_ordered () =
  (* string concat is not commutative: any reordering would show *)
  let xs = List.init 60 Fun.id in
  let expected = List.fold_left (fun acc x -> acc ^ string_of_int x) "" xs in
  Par.run ~jobs:4 (fun p ->
      let got = Par.map_reduce p ~map:string_of_int ~reduce:( ^ ) ~init:"" xs in
      Alcotest.(check string) "left-to-right fold" expected got)

let test_map_list_chunked () =
  let xs = List.init 203 Fun.id in
  let f x = (x * 3) - 1 in
  let expected = List.map f xs in
  Par.run ~jobs:4 (fun p ->
      (* auto chunk, explicit chunk sizes (including ones that do not
         divide the list length), and the degenerate chunk=1 all keep
         input order *)
      Alcotest.(check (list int)) "auto chunk" expected (Par.map_list_chunked p f xs);
      List.iter
        (fun c ->
          Alcotest.(check (list int))
            (Printf.sprintf "chunk=%d" c)
            expected
            (Par.map_list_chunked ~chunk:c p f xs))
        [ 1; 2; 7; 50; 203; 1000 ];
      Alcotest.(check (list int)) "empty list" [] (Par.map_list_chunked p f []);
      Alcotest.check_raises "chunk=0 rejected"
        (Invalid_argument "Par.map_list_chunked: chunk must be >= 1") (fun () ->
          ignore (Par.map_list_chunked ~chunk:0 p f xs)));
  Par.run ~jobs:1 (fun p ->
      Alcotest.(check (list int)) "jobs=1" expected (Par.map_list_chunked p f xs))

let test_map_list_chunked_exception () =
  Par.run ~jobs:4 (fun p ->
      Alcotest.check_raises "chunked re-raises" (Failure "bad 42") (fun () ->
          ignore
            (Par.map_list_chunked ~chunk:10 p
               (fun x -> if x = 42 then failwith "bad 42" else x)
               (List.init 100 Fun.id))))

let test_map_list_chunked_edges_no_queue () =
  (* the empty-input and chunk >= length edges short-circuit before the
     queue: they must keep working on a pool that is already shut down
     (submitting there raises), proving no future is ever created *)
  let p = Par.create ~jobs:2 () in
  Par.shutdown p;
  Alcotest.(check (list int)) "empty on a shut-down pool" [] (Par.map_list_chunked p succ []);
  Alcotest.(check (list int))
    "chunk >= length on a shut-down pool" [ 2; 3; 4 ]
    (Par.map_list_chunked ~chunk:10 p succ [ 1; 2; 3 ]);
  Alcotest.(check (list int))
    "explicit chunk = length on a shut-down pool" [ 0; 2; 4 ]
    (Par.map_list_chunked ~chunk:3 p (fun x -> 2 * x) [ 0; 1; 2 ])

let test_future_exception () =
  Par.run ~jobs:4 (fun p ->
      let fut = Par.submit p (fun () -> failwith "boom") in
      Alcotest.check_raises "await re-raises" (Failure "boom") (fun () ->
          ignore (Par.await fut));
      Alcotest.check_raises "map_list re-raises" (Failure "bad 7") (fun () ->
          ignore
            (Par.map_list p
               (fun x -> if x = 7 then failwith "bad 7" else x)
               (List.init 20 Fun.id))))

let test_shutdown () =
  let p = Par.create ~jobs:4 () in
  let futs = List.init 10 (fun i -> Par.submit p (fun () -> i * 2)) in
  Par.shutdown p;
  (* queued work is drained, not dropped *)
  Alcotest.(check (list int)) "drained on shutdown" (List.init 10 (fun i -> i * 2))
    (List.map Par.await futs);
  Par.shutdown p;
  Alcotest.check_raises "submit after shutdown" (Invalid_argument "Par.submit: pool is shut down")
    (fun () -> ignore (Par.submit p (fun () -> ())));
  (* repeated create/shutdown must not leak or wedge domains *)
  for _ = 1 to 10 do
    Par.run ~jobs:4 (fun p ->
        Alcotest.(check (list int)) "fresh pool works" [ 1; 2; 3 ] (Par.map_list p Fun.id [ 1; 2; 3 ]))
  done

let in_domains n f =
  let ds = List.init n (fun i -> Domain.spawn (fun () -> f i)) in
  List.map Domain.join ds

let test_memo_exactly_once () =
  let memo = Par.Memo.create 8 in
  let hits = Atomic.make 0 in
  let results =
    in_domains 4 (fun _ ->
        List.init 50 (fun _ ->
            Par.Memo.find_or_compute memo "k" (fun () ->
                Atomic.incr hits;
                42)))
  in
  Alcotest.(check int) "computed once" 1 (Atomic.get hits);
  List.iter (Alcotest.(check (list int)) "all callers see it" (List.init 50 (fun _ -> 42))) results;
  (* many keys, each exactly once *)
  let memo = Par.Memo.create 8 in
  let per_key = Array.make 20 0 in
  let counts = Array.init 20 (fun _ -> Atomic.make 0) in
  ignore
    (in_domains 4 (fun _ ->
         List.init 20 (fun k ->
             Par.Memo.find_or_compute memo k (fun () ->
                 Atomic.incr counts.(k);
                 k * 10))));
  Array.iteri (fun k _ -> per_key.(k) <- Atomic.get counts.(k)) per_key;
  Alcotest.(check (array int)) "each key once" (Array.make 20 1) per_key;
  Alcotest.(check int) "completed entries" 20 (Par.Memo.length memo)

let test_memo_exception () =
  let memo = Par.Memo.create 4 in
  let attempts = Atomic.make 0 in
  let get () =
    Par.Memo.find_or_compute memo "broken" (fun () ->
        Atomic.incr attempts;
        failwith "cannot")
  in
  Alcotest.check_raises "first lookup raises" (Failure "cannot") (fun () -> ignore (get ()));
  Alcotest.check_raises "failed fill evicted: retry raises afresh" (Failure "cannot") (fun () ->
      ignore (get ()));
  Alcotest.(check int) "thunk re-ran after eviction" 2 (Atomic.get attempts);
  Alcotest.(check int) "no completed entry" 0 (Par.Memo.length memo);
  (* a later successful fill heals the key permanently *)
  let v = Par.Memo.find_or_compute memo "broken" (fun () -> 7) in
  Alcotest.(check int) "healed" 7 v;
  Alcotest.(check int) "healed value cached" 7
    (Par.Memo.find_or_compute memo "broken" (fun () -> 8));
  Alcotest.(check int) "one completed entry" 1 (Par.Memo.length memo)

let test_memo_deadline_not_poisoned () =
  (* regression: an over-budget request that is first to compute a key
     must not cache Deadline.Expired for every later full-budget caller *)
  let memo = Par.Memo.create 4 in
  let fill () =
    Par.Memo.find_or_compute memo "hot" (fun () ->
        Ds_util.Deadline.check ();
        42)
  in
  (try Ds_util.Deadline.with_deadline (Unix.gettimeofday () -. 1.) (fun () -> ignore (fill ()))
   with Ds_util.Deadline.Expired _ -> ());
  Alcotest.(check int) "fresh caller recomputes after expiry" 42 (fill ());
  Alcotest.(check (option int)) "key completed" (Some 42) (Par.Memo.find_opt memo "hot")

let test_dataset_concurrent_surface () =
  let ds = Depsurf.Dataset.build ~seed:42L Calibration.test_scale in
  let v54 = Version.v 5 4 in
  (* >= 4 domains race on the same cold (version, config) chain *)
  let surfaces = in_domains 4 (fun _ -> Depsurf.Dataset.surface ds v54 Config.x86_generic) in
  (match surfaces with
  | first :: rest ->
      List.iter
        (fun s -> Alcotest.(check bool) "one shared surface" true (s == first))
        rest
  | [] -> Alcotest.fail "no results");
  (* distinct keys from several domains memoize independently *)
  let versions = [ Version.v 4 4; Version.v 4 15; Version.v 5 4; Version.v 5 15 ] in
  let per_domain =
    in_domains 4 (fun _ ->
        List.map (fun v -> Depsurf.Dataset.surface ds v Config.x86_generic) versions)
  in
  List.iter
    (fun ss ->
      List.iter2
        (fun a b -> Alcotest.(check bool) "same object across domains" true (a == b))
        (List.hd per_domain) ss)
    per_domain

let diff_names (d : Depsurf.Diff.t) =
  let names id =
    (id.Depsurf.Diff.d_added, id.Depsurf.Diff.d_removed, List.map fst id.Depsurf.Diff.d_changed)
  in
  ( names d.Depsurf.Diff.df_funcs,
    names d.Depsurf.Diff.df_structs,
    names d.Depsurf.Diff.df_tracepoints )

let test_cached_diffs_parallel_equal () =
  let seq = Depsurf.Pipeline.dataset_cached Calibration.test_scale in
  let par =
    Par.run ~jobs:4 (fun p ->
        let c = Depsurf.Pipeline.dataset_cached ~pool:p Calibration.test_scale in
        ( List.map (fun (pair, d) -> (pair, diff_names d)) (Depsurf.Pipeline.lts_diffs c),
          List.map (fun (cfg, d) -> (cfg, diff_names d)) (Depsurf.Pipeline.config_diffs c) ))
  in
  let seq_lts = List.map (fun (pair, d) -> (pair, diff_names d)) (Depsurf.Pipeline.lts_diffs seq) in
  let seq_cfg = List.map (fun (cfg, d) -> (cfg, diff_names d)) (Depsurf.Pipeline.config_diffs seq) in
  Alcotest.(check bool) "lts diffs identical" true (seq_lts = fst par);
  Alcotest.(check bool) "config diffs identical" true (seq_cfg = snd par)

(* DEPSURF_JOBS=1 and DEPSURF_JOBS=4 must render the same Report.matrix
   for the seed dataset: the jobs=1 vs jobs=N determinism guard. *)
let test_golden_matrix_jobs () =
  let baseline = (Version.v 5 4, Config.x86_generic) in
  let matrix_render ~jobs =
    let ds = Depsurf.Pipeline.dataset Calibration.test_scale in
    Par.run ~jobs (fun p ->
        Depsurf.Dataset.warm_list ~pool:p ds (baseline :: Depsurf.Dataset.fig4_images));
    let pools = Ds_corpus.Pools.compute ds ~baseline () in
    let profile = Option.get (Ds_corpus.Table7.find "biotop") in
    let spec = Ds_corpus.Corpus.spec_for pools profile in
    let obj = Depsurf.Pipeline.build_program ds spec in
    ( Depsurf.Report.render_matrix (Depsurf.Pipeline.analyze ds obj),
      Ds_util.Json.to_string
        (Depsurf.Export.surface (Depsurf.Dataset.surface ds (Version.v 6 8) Config.x86_generic)) )
  in
  let m1, s1 = matrix_render ~jobs:1 in
  let m4, s4 = matrix_render ~jobs:4 in
  Alcotest.(check string) "report matrix byte-identical" m1 m4;
  Alcotest.(check string) "surface export byte-identical" s1 s4

let suites =
  [
    ( "par",
      [
        Alcotest.test_case "map_list deterministic" `Quick test_map_list_deterministic;
        Alcotest.test_case "map_reduce ordered" `Quick test_map_reduce_ordered;
        Alcotest.test_case "map_list_chunked deterministic" `Quick test_map_list_chunked;
        Alcotest.test_case "map_list_chunked exception" `Quick test_map_list_chunked_exception;
        Alcotest.test_case "map_list_chunked edges skip the queue" `Quick
          test_map_list_chunked_edges_no_queue;
        Alcotest.test_case "future exception" `Quick test_future_exception;
        Alcotest.test_case "shutdown" `Quick test_shutdown;
        Alcotest.test_case "memo exactly-once" `Quick test_memo_exactly_once;
        Alcotest.test_case "memo exception" `Quick test_memo_exception;
        Alcotest.test_case "memo deadline not poisoned" `Quick test_memo_deadline_not_poisoned;
        Alcotest.test_case "dataset concurrent surface" `Quick test_dataset_concurrent_surface;
        Alcotest.test_case "cached diffs parallel equal" `Quick test_cached_diffs_parallel_equal;
        Alcotest.test_case "golden matrix jobs=1 vs 4" `Slow test_golden_matrix_jobs;
      ] );
  ]
