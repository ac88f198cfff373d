(* The study workloads: the paper's Figure-3 workflow (evolve, compile +
   emit 25 images, ELF roundtrip + parse, extract surfaces, the three
   diff fan-outs, build and analyze the 53-program corpus) run
   in-process on a Par pool of 2, either from an empty store (cold) or
   over a store a cold pass populated in another process (warm). *)

open Depsurf
open Ds_util
open Harness
module Store = Ds_store.Store
module Corpus = Ds_corpus.Corpus

type pass = {
  p_evolve : float;  (** Pipeline.dataset alone *)
  p_setup : float;  (** Store.open_ + Pipeline.dataset *)
  p_stages : (string * float) list;  (** harness timer per stage, seconds *)
  p_total : float;  (** the stages' sum: the op *)
  p_at_ref : float;  (** the same at the reference host speed of the pass *)
  p_digest : string;
  p_compiles : int;
  p_store : Store.counters;
}

(* stage name -> per-layer timer metric *)
let stage_metrics =
  [
    ("image", "kcc.image_s"); ("vmlinux", "bpf.vmlinux_s"); ("surface", "core.surface_s");
    ("diff", "core.diff_s"); ("corpus_build", "corpus.build_s");
    ("corpus_analyze", "corpus.analyze_s");
  ]

(* The outputs every pass must agree on, cold or warm: the three encoded
   diff fan-outs and the 53 rendered mismatch matrices. *)
let digest c analysis =
  let h = Store.Hash.create () in
  Store.Hash.string h (Codec.encode_version_diffs (Pipeline.lts_diffs c));
  Store.Hash.string h (Codec.encode_version_diffs (Pipeline.release_diffs c));
  Store.Hash.string h (Codec.encode_config_diffs (Pipeline.config_diffs c));
  List.iter (fun (_, m, _) -> Store.Hash.string h (Report.render_matrix m)) analysis;
  Store.Hash.hex h

(* One pass over the store in [dir]. Cold passes force images and
   vmlinuxes stage by stage; warm passes force only what the study's
   outputs need, so images stay on disk. When [probed], a probe reading
   precedes the pass and follows its set-up and every stage, and the
   pass's time at the reference speed uses those readings. With
   [traced], each stage runs in a bench.<stage> span under one
   bench.pass root. *)
let run_pass ~probed ~pool ~cold ~traced dir =
  let first = List.length !readings in
  let reading () = if probed then ignore (probe ()) in
  reading ();
  let (store, ds, p_evolve), p_setup =
    time (fun () ->
        let store = Store.open_ ~dir () in
        let ds, evolve = time (fun () -> Pipeline.dataset ~store scale) in
        (store, ds, evolve))
  in
  reading ();
  if traced then Trace.enable ();
  let stages = ref [] in
  let stage name f =
    let r, dt = time (fun () -> if traced then Trace.span ~name:("bench." ^ name) f else f ()) in
    reading ();
    stages := (name, dt) :: !stages;
    r
  in
  let force get =
    ignore
      (Par.map_list_chunked pool (fun (v, cfg) -> ignore (get ds v cfg)) Dataset.study_images)
  in
  let c = Pipeline.cached ~pool ds in
  let body () =
    if cold then begin
      stage "image" (fun () -> force Dataset.image);
      stage "vmlinux" (fun () -> force Dataset.vmlinux)
    end;
    stage "surface" (fun () -> force Dataset.surface);
    stage "diff" (fun () ->
        ignore (Pipeline.lts_diffs c);
        ignore (Pipeline.release_diffs c);
        ignore (Pipeline.config_diffs c));
    let objs = stage "corpus_build" (fun () -> Corpus.build_all ds ()) in
    stage "corpus_analyze" (fun () -> Corpus.analyze_all_matrices ds ~pool objs)
  in
  let analysis = if traced then Trace.span ~name:"bench.pass" body else body () in
  if traced then Trace.disable ();
  let p_stages = List.rev !stages in
  let p_total = List.fold_left (fun acc (_, dt) -> acc +. dt) 0. p_stages in
  {
    p_evolve;
    p_setup;
    p_stages;
    p_total;
    p_at_ref = (if probed then at_ref ~around:(readings_since first) p_total else p_total);
    p_digest = digest c analysis;
    p_compiles = Dataset.compile_count ds;
    p_store = Store.stats store;
  }

(* [main.exe populate DIR]: one cold pass written through to DIR, run by
   study-warm in a child process so its memory high-water mark stays out
   of the warm passes. Prints the pass digest. *)
let populate dir =
  Par.run ~jobs (fun pool ->
      let p = run_pass ~probed:false ~pool ~cold:true ~traced:false dir in
      print_endline p.p_digest)

(* fills [store] and returns the pass digest *)
let populate_child ~dir ~store =
  let out = Filename.concat dir "populate.out" in
  let fd = Unix.openfile out [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  let pid =
    Fun.protect ~finally:(fun () -> Unix.close fd) (fun () ->
        Unix.create_process Sys.executable_name
          [| Sys.executable_name; "populate"; store |]
          Unix.stdin fd Unix.stderr)
  in
  match snd (Unix.waitpid [] pid) with
  | Unix.WEXITED 0 -> String.trim (read_file out)
  | _ -> failwith "study-warm: the populating pass failed"

let mb_of_bytes n = float_of_int n /. 1048576.

let run ~cold ~seconds ~trace =
  let name = if cold then "study-cold" else "study-warm" in
  let wd = work_dir name in
  Fun.protect ~finally:(fun () -> remove_work_dir wd) @@ fun () ->
  let out = sink () in
  let reference, warm_store =
    if cold then (None, "")
    else begin
      (* a later run of the same build links the kept store instead *)
      let store = Filename.concat wd "store" in
      let d, _ =
        kept_store name ~store (fun () ->
            let d, dt = time (fun () -> populate_child ~dir:wd ~store) in
            add out "populate_s" "s" dt;
            d)
      in
      (Some d, store)
    end
  in
  Par.run ~jobs @@ fun pool ->
  let min_passes = if cold then 4 else 5 in
  let fresh_dir i =
    if cold then Filename.concat wd (Printf.sprintf "store-%d" i) else warm_store
  in
  (* Set-ups on their own, two before each pass: with each pass's own,
     setup_s is a median of samples spread over the whole run, not of one
     burst that a short stall of the host can cover. *)
  let setups = ref [] in
  let setup i =
    let dir = if cold then Filename.concat wd (Printf.sprintf "setup-%d" i) else warm_store in
    let (), dt = time (fun () -> ignore (Pipeline.dataset ~store:(Store.open_ ~dir ()) scale)) in
    if cold then rm_rf dir;
    setups := dt :: !setups
  in
  let gc0 = Gc.quick_stat () in
  let t0 = now () in
  let rec loop i acc =
    if i >= min_passes && now () -. t0 >= seconds then List.rev acc
    else begin
      Gc.compact ();
      setup (2 * i);
      setup ((2 * i) + 1);
      let p = run_pass ~probed:true ~pool ~cold ~traced:false (fresh_dir i) in
      if cold then rm_rf (fresh_dir i);
      loop (i + 1) (p :: acc)
    end
  in
  let passes = loop 0 [] in
  let gc1 = Gc.quick_stat () in
  let rss = peak_rss_mb "self" in
  let n = List.length passes in
  let reference = match reference with Some d -> d | None -> (List.hd passes).p_digest in
  let ok p =
    p.p_digest = reference
    && if cold then p.p_compiles = List.length Dataset.study_images
       else p.p_compiles = 0 && p.p_store.Store.c_misses = 0
  in
  let good = List.filter ok passes in
  let totals = List.map (fun p -> p.p_total) passes in
  let med f = median (List.map f passes) in
  add_setup out (!setups @ List.map (fun p -> p.p_setup) passes);
  add out ~samples:n "op_ms" "ms" (med (fun p -> p.p_at_ref) *. 1000.);
  add out ~samples:n "op_raw_ms" "ms" (median totals *. 1000.);
  add out ~samples:n "ops_per_s" "1/s"
    (float_of_int (List.length good) /. List.fold_left ( +. ) 0. totals);
  add out "peak_rss_mb" "MB" rss;
  add out ~samples:n "ksrc.evolve_s" "s" (med (fun p -> p.p_evolve));
  List.iter
    (fun (stage, metric) ->
      let xs = List.filter_map (fun p -> List.assoc_opt stage p.p_stages) passes in
      if xs <> [] then add out ~samples:(List.length xs) metric "s" (median xs))
    stage_metrics;
  add out ~samples:n "kcc.compiles" "count" (med (fun p -> float_of_int p.p_compiles));
  let store f = med (fun p -> f p.p_store) in
  add out ~samples:n "store.hits" "count" (store (fun c -> float_of_int c.Store.c_hits));
  add out ~samples:n "store.misses" "count" (store (fun c -> float_of_int c.Store.c_misses));
  add out ~samples:n "store.writes" "count" (store (fun c -> float_of_int c.Store.c_writes));
  add out ~samples:n "store.read_mb" "MB" (store (fun c -> mb_of_bytes c.Store.c_bytes_read));
  add out ~samples:n "store.written_mb" "MB" (store (fun c -> mb_of_bytes c.Store.c_bytes_written));
  add out ~samples:n "gc.major_collections" "count"
    (float_of_int (gc1.Gc.major_collections - gc0.Gc.major_collections) /. float_of_int n);
  add out "gc.top_heap_mb" "MB"
    (float_of_int (gc1.Gc.top_heap_words * (Sys.word_size / 8)) /. 1048576.);
  let traced_ok =
    if not trace then true
    else begin
      Gc.compact ();
      Trace.clear ();
      let p = run_pass ~probed:false ~pool ~cold ~traced:true (fresh_dir n) in
      let sps = Trace.spans () in
      if Trace.drops () > 0 then
        Printf.eprintf "%s: %d spans dropped; raise DEPSURF_TRACE_CAP (run.sh sets 65536)\n"
          name (Trace.drops ());
      add_span_self out sps;
      let bench_self =
        List.fold_left
          (fun acc (n, _, _, self) ->
            if String.starts_with ~prefix:"bench." n then acc + self else acc)
          0 (Trace.top sps)
      in
      add out "trace.unattributed_pct" "%"
        (100. *. float_of_int bench_self /. 1e6 /. p.p_total);
      add out "trace.overhead_pct" "%" (100. *. ((p.p_total /. median totals) -. 1.));
      print_string (Trace.top_table sps);
      ok p
    end
  in
  {
    r_workload = name;
    r_attempted = n + if trace then 1 else 0;
    r_failed = n - List.length good + if traced_ok then 0 else 1;
    r_metrics = metrics out;
  }
