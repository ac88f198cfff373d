open Ds_corpus
open Ds_ksrc
open Depsurf

let ds = lazy (Dataset.build ~seed:Testenv.seed Calibration.test_scale)
let pools = lazy (Pools.compute (Lazy.force ds) ())

let test_table7_shape () =
  Alcotest.(check int) "53 programs" 53 (List.length Table7.programs);
  Alcotest.(check int) "9 clean programs" 9
    (List.length (List.filter (fun p -> p.Table7.pr_clean) Table7.programs));
  let tracee = Option.get (Table7.find "tracee") in
  let fn, _, _, _, _, _, _ = tracee.Table7.pr_counts.Table7.c_fn in
  Alcotest.(check int) "tracee 67 funcs" 67 fn;
  let sc, sc_absent = tracee.Table7.pr_counts.Table7.c_sc in
  Alcotest.(check int) "tracee 446 syscalls" 446 sc;
  Alcotest.(check int) "tracee 202 absent syscalls" 202 sc_absent;
  Alcotest.(check bool) "biotop present" true (Table7.find "biotop" <> None);
  Alcotest.(check bool) "unknown absent" true (Table7.find "nosuchtool" = None)

let test_pools_nonempty () =
  let sizes = Pools.pool_sizes (Lazy.force pools) in
  let get n = List.assoc n sizes in
  List.iter
    (fun n ->
      Alcotest.(check bool) (n ^ " non-empty") true (get n > 0))
    [
      "fn_stable"; "fn_absent"; "fn_changed"; "fn_full"; "fn_selective"; "fn_transformed";
      "fld_stable"; "fld_absent"; "fld_changed"; "tp_stable"; "tp_absent"; "tp_changed";
      "sc_stable"; "sc_absent";
    ]

let test_pool_draws () =
  let p = Lazy.force pools in
  let a = Pools.take_funcs p `Stable 3 in
  let b = Pools.take_funcs p `Stable 3 in
  Alcotest.(check int) "draw size" 3 (List.length a);
  Alcotest.(check bool) "cursor advances" true (a <> b)

let test_spec_for_biotop () =
  let pr = Option.get (Table7.find "biotop") in
  let spec = Corpus.spec_for (Lazy.force pools) pr in
  let hook_names =
    List.filter_map
      (fun h -> Ds_bpf.Hook.target_function h.Ds_bpf.Progbuild.hs_hook)
      spec.Ds_bpf.Progbuild.sp_hooks
  in
  Alcotest.(check int) "5 kprobe hooks" 5 (List.length hook_names);
  Alcotest.(check bool) "pinned blk_account_io_start" true
    (List.mem "blk_account_io_start" hook_names);
  let tp_names =
    List.filter_map
      (fun h -> Ds_bpf.Hook.target_tracepoint h.Ds_bpf.Progbuild.hs_hook)
      spec.Ds_bpf.Progbuild.sp_hooks
  in
  Alcotest.(check (list string)) "pinned tracepoints" [ "block_io_start"; "block_io_done" ]
    tp_names

let built = lazy (Corpus.build_all (Lazy.force ds) ())

let test_build_all () =
  let objs = Lazy.force built in
  Alcotest.(check int) "53 objects" 53 (List.length objs);
  List.iter
    (fun ((pr : Table7.profile), (obj : Ds_bpf.Obj.t)) ->
      Alcotest.(check string) "name matches" pr.Table7.pr_name obj.Ds_bpf.Obj.o_name;
      Alcotest.(check bool) (pr.Table7.pr_name ^ " has programs") true
        (obj.Ds_bpf.Obj.o_progs <> []))
    objs

let test_depset_sizes_match_table7 () =
  (* dependency-set sizes should track the paper's Σ columns (pool
     exhaustion can cap very large draws at test scale) *)
  List.iter
    (fun ((pr : Table7.profile), obj) ->
      let t = Depset.totals (Depset.of_obj obj) in
      let fn, _, _, _, _, _, _ = pr.Table7.pr_counts.Table7.c_fn in
      let tp, _, _ = pr.Table7.pr_counts.Table7.c_tp in
      Alcotest.(check int) (pr.Table7.pr_name ^ " funcs") fn t.Depset.n_funcs;
      Alcotest.(check bool)
        (Printf.sprintf "%s tps (want %d got %d)" pr.Table7.pr_name tp t.Depset.n_tracepoints)
        true
        (t.Depset.n_tracepoints <= tp && t.Depset.n_tracepoints >= min tp 1 - 1))
    (Lazy.force built)

let test_verifier_accepts_corpus () =
  List.iter
    (fun ((pr : Table7.profile), (obj : Ds_bpf.Obj.t)) ->
      List.iter
        (fun (p : Ds_bpf.Obj.prog) ->
          match Ds_bpf.Verifier.verify p.Ds_bpf.Obj.p_insns with
          | Ok () -> ()
          | Error { Ds_bpf.Verifier.rj_insn; rj_msg; _ } ->
              Alcotest.fail
                (Printf.sprintf "%s/%s: insn %d: %s" pr.Table7.pr_name p.Ds_bpf.Obj.p_name
                   rj_insn rj_msg))
        obj.Ds_bpf.Obj.o_progs)
    (Lazy.force built)

let test_analysis_shape () =
  let results = Corpus.analyze_all (Lazy.force ds) (Lazy.force built) in
  Alcotest.(check int) "53 analyzed" 53 (List.length results);
  (* clean programs must be clean; the overall impact rate should be high
     (the paper reports 83%) *)
  List.iter
    (fun ((pr : Table7.profile), summary) ->
      if pr.Table7.pr_clean then
        Alcotest.(check bool) (pr.Table7.pr_name ^ " clean") true (Report.clean summary))
    results;
  let impacted =
    List.length (List.filter (fun (_, s) -> not (Report.clean s)) results)
  in
  let pct = Ds_util.Stats.percent impacted 53 in
  Alcotest.(check bool) (Printf.sprintf "impact rate %.0f%% (paper: 83%%)" pct) true
    (pct > 60. && pct <= 92.);
  (* biotop reproduces its Figure 4 profile *)
  let _, biotop = List.find (fun ((pr : Table7.profile), _) -> pr.Table7.pr_name = "biotop") results in
  Alcotest.(check bool) "biotop sees full inline" true (biotop.Report.ms_full_inline >= 1);
  Alcotest.(check bool) "biotop sees absent tracepoints" true
    (biotop.Report.ms_absent.Depset.n_tracepoints >= 1)

let test_loader_never_crashes_on_corpus () =
  (* robustness sweep: all 53 objects x all 21 study images; the loader
     must always produce a Result, never an exception *)
  let d = Lazy.force ds in
  List.iter
    (fun ((pr : Table7.profile), obj) ->
      List.iter
        (fun (v, cfg) ->
          match Depsurf.Pipeline.load_on d v cfg obj with
          | Ok _ | Error _ -> ()
          | exception e ->
              Alcotest.fail
                (Printf.sprintf "%s on %s %s: %s" pr.Table7.pr_name (Version.to_string v)
                   (Config.to_string cfg) (Printexc.to_string e)))
        Depsurf.Dataset.fig4_images)
    (Lazy.force built)

let test_corpus_deterministic () =
  let d1 = Depsurf.Dataset.build ~seed:Testenv.seed Calibration.test_scale in
  let d2 = Depsurf.Dataset.build ~seed:Testenv.seed Calibration.test_scale in
  let bytes ds = List.map (fun (_, obj) -> Ds_bpf.Obj.write obj) (Corpus.build_all ds ()) in
  List.iter2
    (fun a b -> Alcotest.(check bool) "identical object bytes" true (String.equal a b))
    (bytes d1) (bytes d2)

let suites =
  [
    ( "corpus",
      [
        Alcotest.test_case "table7 shape" `Quick test_table7_shape;
        Alcotest.test_case "pools non-empty" `Quick test_pools_nonempty;
        Alcotest.test_case "pool draws" `Quick test_pool_draws;
        Alcotest.test_case "biotop spec" `Quick test_spec_for_biotop;
        Alcotest.test_case "build all 53" `Quick test_build_all;
        Alcotest.test_case "depset sizes" `Quick test_depset_sizes_match_table7;
        Alcotest.test_case "verifier accepts corpus" `Quick test_verifier_accepts_corpus;
        Alcotest.test_case "analysis shape" `Quick test_analysis_shape;
        Alcotest.test_case "loader robustness sweep" `Slow test_loader_never_crashes_on_corpus;
        Alcotest.test_case "deterministic corpus" `Quick test_corpus_deterministic;
      ] );
  ]
