(* The benchmark harness: regenerates every table and figure of the
   paper's evaluation from the synthetic 25-image dataset, then runs
   Bechamel micro-benchmarks for the §3.4 performance claims, plus the
   ablations called out in DESIGN.md.

   Counts are at the calibrated bench scale (≈1/25 of the real kernel for
   functions); all percentages are scale-invariant and are the numbers to
   compare against the paper. Set DEPSURF_SCALE=test for a quick run.

   Run with: dune exec bench/main.exe *)

open Depsurf
open Ds_ksrc
open Ds_util
module T7 = Ds_corpus.Table7

let scale =
  match Sys.getenv_opt "DEPSURF_SCALE" with
  | Some "test" -> Calibration.test_scale
  | _ -> Calibration.bench_scale

(* jobs=1 vs jobs=N pipeline comparison; N from DEPSURF_JOBS/cores, but
   at least 4 so the pool machinery is always exercised *)
let par_jobs =
  let n = Par.default_jobs () in
  if n > 1 then n else 4

let now = Unix.gettimeofday
let time f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

(* Persistent artifact store on a fresh directory: the main (cold) run
   populates it, the store-timing section replays the pipeline warm from
   it. A pre-existing DEPSURF_CACHE reuses that directory instead (so a
   second bench invocation is itself warm). *)
module Store = Ds_store.Store

let cache_dir =
  match Sys.getenv_opt "DEPSURF_CACHE" with
  | Some dir when dir <> "" -> dir
  | _ ->
      let f = Filename.temp_file "depsurf-bench-cache" "" in
      Sys.remove f;
      f

let store = Store.open_ ~dir:cache_dir ()
let ds, t_evolve = time (fun () -> Pipeline.dataset ~store scale)
let pool = Par.create ~jobs:par_jobs ()
let cached = Pipeline.cached ~pool ds
let x86 v = Dataset.surface ds v Config.x86_generic
let section title = Printf.printf "\n%s\n%s\n\n" title (String.make (String.length title) '=')

let read_file path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

(* Every BENCH_*.json is a series, not a snapshot: each harness run
   appends one {pr, timestamp, metric} record to the file's "trajectory"
   list (carried over from the previous file) before overwriting it, so
   stacked PRs accumulate a per-PR perf history. PR number from
   DEPSURF_PR; timestamp is unix seconds. *)
let pr_number =
  match Option.bind (Sys.getenv_opt "DEPSURF_PR") int_of_string_opt with
  | Some n -> n
  | None -> 10

let with_trajectory path ~metric fields =
  let open Json in
  let previous =
    if not (Sys.file_exists path) then []
    else
      match Json.of_string (read_file path) with
      | exception _ -> []
      | j -> ( match Json.member "trajectory" j with Some (List l) -> l | _ -> [])
  in
  let record =
    Obj [ ("pr", Int pr_number); ("timestamp", Float (Unix.time ())); ("metric", Float metric) ]
  in
  Obj (fields @ [ ("trajectory", List (previous @ [ record ])) ])

let write_json_file path j =
  let oc = open_out path in
  output_string oc (Json.to_string j);
  output_char oc '\n';
  close_out oc

(* capture stdout produced by [f], for byte-identity checks *)
let capture f =
  flush stdout;
  let saved = Unix.dup Unix.stdout in
  let tmp = Filename.temp_file "depsurf-capture" ".txt" in
  let fd = Unix.openfile tmp [ Unix.O_WRONLY; Unix.O_TRUNC ] 0o600 in
  Unix.dup2 fd Unix.stdout;
  Unix.close fd;
  let restore () =
    flush stdout;
    Unix.dup2 saved Unix.stdout;
    Unix.close saved
  in
  (match f () with
  | () -> restore ()
  | exception e ->
      restore ();
      raise e);
  let s = read_file tmp in
  Sys.remove tmp;
  s

let pct = Texttable.pct
let count = Texttable.count

(* Shared computations, memoized across sections (Pipeline.cached
   computes each diff fan-out once, through the pool). *)
let lts_diffs = lazy (Pipeline.lts_diffs cached)
let release_diffs = lazy (Pipeline.release_diffs cached)
let config_diffs = lazy (Pipeline.config_diffs cached)

let corpus = lazy (Ds_corpus.Corpus.build_all ds ())
let corpus_analysis = lazy (Ds_corpus.Corpus.analyze_all_matrices ds ~pool (Lazy.force corpus))

(* Tables 1, 3 and 7 are rendered twice — once from the cold dataset and
   once from the warm (store-backed) replay — and must agree byte for
   byte, so they read everything through this environment record. *)
type env = {
  e_ds : Dataset.t;
  e_cached : Pipeline.cached;
  e_analysis : (T7.profile * Report.matrix * Report.mismatch_summary) list Lazy.t;
}

let env = { e_ds = ds; e_cached = cached; e_analysis = corpus_analysis }
let ex86 e v = Dataset.surface e.e_ds v Config.x86_generic

(* ------------------------------------------------------------------ *)
(* Table 3                                                              *)
(* ------------------------------------------------------------------ *)

let rates_row (d : 'c Diff.item_diff) old_total =
  ( Stats.percent (List.length d.Diff.d_added) old_total,
    Stats.percent (List.length d.Diff.d_removed) old_total,
    Stats.percent (List.length d.Diff.d_changed) old_total )

let table3 env () =
  section "Table 3: kernel source code differences (x86/generic)";
  let headers =
    [
      ("", Texttable.L);
      ("fn#", Texttable.R); ("fn+%", Texttable.R); ("fn-%", Texttable.R); ("fnC%", Texttable.R);
      ("st#", Texttable.R); ("st+%", Texttable.R); ("st-%", Texttable.R); ("stC%", Texttable.R);
      ("tp#", Texttable.R); ("tp+%", Texttable.R); ("tp-%", Texttable.R); ("tpC%", Texttable.R);
    ]
  in
  let emit title diffs =
    let t = Texttable.create ~title headers in
    List.iter
      (fun ((a, b), (d : Diff.t)) ->
        let fo, so, tpo, _ = Surface.counts (ex86 env a) in
        let fa, fr, fc = rates_row d.Diff.df_funcs fo in
        let sa, sr, sc = rates_row d.Diff.df_structs so in
        let ta, tr, tc = rates_row d.Diff.df_tracepoints tpo in
        Texttable.row t
          [
            Version.to_string a ^ "->" ^ Version.to_string b;
            count fo; pct fa; pct fr; pct fc;
            count so; pct sa; pct sr; pct sc;
            count tpo; pct ta; pct tr; pct tc;
          ])
      diffs;
    let last = ex86 env (Version.v 6 8) in
    let f, s, tp, _ = Surface.counts last in
    Texttable.row t
      [ "v6.8 (#)"; count f; "-"; "-"; "-"; count s; "-"; "-"; "-"; count tp; "-"; "-"; "-" ];
    print_string (Texttable.render t)
  in
  emit "across LTS versions (paper maxima: fn +24/-10/C6, st +24/-4/C18, tp +39/-5/C16)"
    (Pipeline.lts_diffs env.e_cached);
  print_newline ();
  emit "across consecutive releases" (Pipeline.release_diffs env.e_cached)

(* ------------------------------------------------------------------ *)
(* Table 4                                                              *)
(* ------------------------------------------------------------------ *)

let table4 () =
  section "Table 4: breakdown of kernel source code changes (LTS pairs)";
  let t =
    Texttable.create
      [
        ("change kind", Texttable.L);
        ("4.4-4.15", Texttable.R); ("4.15-5.4", Texttable.R); ("5.4-5.15", Texttable.R);
        ("5.15-6.8", Texttable.R);
      ]
  in
  let bks = List.map (fun (_, d) -> Diff.breakdown d) (Lazy.force lts_diffs) in
  let fb f = List.map (fun (x, _, _) -> f x) bks in
  let sb f = List.map (fun (_, x, _) -> f x) bks in
  let tb f = List.map (fun (_, _, x) -> f x) bks in
  let row label values = Texttable.row t (label :: List.map string_of_int values) in
  let prow label values totals =
    Texttable.row t
      (label :: List.map2 (fun v tot -> pct (Stats.percent v tot)) values totals)
  in
  let ftot = fb (fun x -> x.Diff.fb_changed) in
  row "func changed" ftot;
  prow "- param added (paper 51-60%)" (fb (fun x -> x.Diff.fb_param_added)) ftot;
  prow "- param removed (36-48%)" (fb (fun x -> x.Diff.fb_param_removed)) ftot;
  prow "- param reordered (19-25%)" (fb (fun x -> x.Diff.fb_param_reordered)) ftot;
  prow "- param type changed (23-26%)" (fb (fun x -> x.Diff.fb_param_type)) ftot;
  prow "- return type changed (13-21%)" (fb (fun x -> x.Diff.fb_ret_type)) ftot;
  Texttable.sep t;
  let stot = sb (fun x -> x.Diff.sb_changed) in
  row "struct changed" stot;
  prow "- field added (72-75%)" (sb (fun x -> x.Diff.sb_field_added)) stot;
  prow "- field removed (40-42%)" (sb (fun x -> x.Diff.sb_field_removed)) stot;
  prow "- field type changed (32-37%)" (sb (fun x -> x.Diff.sb_field_type)) stot;
  Texttable.sep t;
  let ttot = tb (fun x -> x.Diff.tb_changed) in
  row "tracept changed" ttot;
  prow "- event changed (81-95%)" (tb (fun x -> x.Diff.tb_event)) ttot;
  prow "- func changed (32-54%)" (tb (fun x -> x.Diff.tb_func)) ttot;
  print_string (Texttable.render t)

(* ------------------------------------------------------------------ *)
(* Table 5                                                              *)
(* ------------------------------------------------------------------ *)

let table5 () =
  section "Table 5: configuration differences vs x86/generic at v5.4";
  let cfg_diffs = Lazy.force config_diffs in
  let configs = List.map fst cfg_diffs in
  let t =
    Texttable.create
      (("", Texttable.L)
      :: ("x86", Texttable.R)
      :: List.map
           (fun cfg ->
             ( (if cfg.Config.arch <> Config.X86 then Config.arch_to_string cfg.Config.arch
                else Config.flavor_to_string cfg.Config.flavor),
               Texttable.R ))
           configs)
  in
  let base = x86 (Version.v 5 4) in
  let fo, so, tpo, sco = Surface.counts base in
  Texttable.row t
    ("config #"
    :: string_of_int (Config.option_count Config.x86_generic)
    :: List.map (fun cfg -> string_of_int (Config.option_count cfg)) configs);
  Texttable.sep t;
  let counts_of cfg = Surface.counts (Dataset.surface ds (Version.v 5 4) cfg) in
  let row_counts label pick base_v =
    Texttable.row t
      (label :: string_of_int base_v :: List.map (fun cfg -> string_of_int (pick (counts_of cfg))) configs)
  in
  let row_diff label get =
    Texttable.row t
      (label :: "-" :: List.map (fun (_, d) -> string_of_int (get d)) cfg_diffs)
  in
  row_counts "func #" (fun (f, _, _, _) -> f) fo;
  row_diff "func +" (fun d -> List.length d.Diff.df_funcs.Diff.d_added);
  row_diff "func -" (fun d -> List.length d.Diff.df_funcs.Diff.d_removed);
  row_diff "func C" (fun d -> List.length d.Diff.df_funcs.Diff.d_changed);
  Texttable.sep t;
  row_counts "struct #" (fun (_, s, _, _) -> s) so;
  row_diff "struct +" (fun d -> List.length d.Diff.df_structs.Diff.d_added);
  row_diff "struct -" (fun d -> List.length d.Diff.df_structs.Diff.d_removed);
  row_diff "struct C" (fun d -> List.length d.Diff.df_structs.Diff.d_changed);
  Texttable.sep t;
  row_counts "tracept #" (fun (_, _, tp, _) -> tp) tpo;
  row_diff "tracept +" (fun d -> List.length d.Diff.df_tracepoints.Diff.d_added);
  row_diff "tracept -" (fun d -> List.length d.Diff.df_tracepoints.Diff.d_removed);
  row_diff "tracept C" (fun d -> List.length d.Diff.df_tracepoints.Diff.d_changed);
  Texttable.sep t;
  row_counts "syscall #" (fun (_, _, _, sc) -> sc) sco;
  row_diff "syscall +" (fun d -> List.length d.Diff.df_syscalls.Diff.d_added);
  row_diff "syscall -" (fun d -> List.length d.Diff.df_syscalls.Diff.d_removed);
  Texttable.sep t;
  Texttable.row t
    ("register C" :: "-"
    :: List.map (fun cfg -> if cfg.Config.arch <> Config.X86 then "Yes" else "-") configs);
  Texttable.row t
    ("compat traceable" :: "No"
    :: List.map
         (fun cfg ->
           if Ds_ksrc.Construct.compat_syscall_traceable cfg.Config.arch then "Yes" else "No")
         configs);
  print_string (Texttable.render t)

(* ------------------------------------------------------------------ *)
(* Table 6                                                              *)
(* ------------------------------------------------------------------ *)

let table6 () =
  section "Table 6: function duplication and name collision (LTS images)";
  let t =
    Texttable.create
      (("", Texttable.L) :: List.map (fun v -> (Version.to_string v, Texttable.R)) Version.lts)
  in
  let censuses = List.map (fun v -> Func_status.collision_census (x86 v)) Version.lts in
  let row label get = Texttable.row t (label :: List.map (fun c -> count (get c)) censuses) in
  row "unique global (paper 17.2k->31.5k)" (fun c -> c.Func_status.cc_unique_global);
  row "unique static (35.7k->60.2k)" (fun c -> c.Func_status.cc_unique_static);
  row "static duplication (4.0k->7.4k)" (fun c -> c.Func_status.cc_duplication);
  row "static-static collision (404->498)" (fun c -> c.Func_status.cc_static_static);
  row "static-global collision (10->29)" (fun c -> c.Func_status.cc_static_global);
  print_string (Texttable.render t)

(* ------------------------------------------------------------------ *)
(* Figures 5 and 6                                                      *)
(* ------------------------------------------------------------------ *)

let fig5 () =
  section "Figure 5: % functions fully and selectively inlined";
  let t =
    Texttable.create
      [
        ("image", Texttable.L); ("full%", Texttable.R); ("", Texttable.L);
        ("selective%", Texttable.R); ("", Texttable.L);
      ]
  in
  let emit label s =
    let c = Func_status.inline_census s in
    let full = Stats.percent c.Func_status.ic_full c.Func_status.ic_total in
    let sel = Stats.percent c.Func_status.ic_selective c.Func_status.ic_total in
    Texttable.row t
      [ label; pct full; Texttable.bar full ~max:40.; pct sel; Texttable.bar sel ~max:40. ]
  in
  List.iter (fun v -> emit (Version.to_string v) (x86 v)) Version.all;
  Texttable.sep t;
  List.iter
    (fun arch ->
      emit
        ("v5.4 " ^ Config.arch_to_string arch)
        (Dataset.surface ds (Version.v 5 4) Config.{ arch; flavor = Generic }))
    [ Config.Arm64; Config.Arm32; Config.Ppc; Config.Riscv ];
  print_string (Texttable.render t);
  print_endline "(paper: 32-36% fully inlined, 9-11% selectively inlined)"

let fig6 () =
  section "Figure 6: % functions transformed by the compiler";
  let t =
    Texttable.create
      [
        ("image (gcc)", Texttable.L); ("any%", Texttable.R); ("isra", Texttable.R);
        ("constprop", Texttable.R); ("part", Texttable.R); ("cold", Texttable.R);
        (">=2", Texttable.R);
      ]
  in
  let emit label s =
    let c = Func_status.transform_census s in
    let p n = pct (Stats.percent n c.Func_status.tc_total) in
    Texttable.row t
      [
        label; p c.Func_status.tc_any; p c.Func_status.tc_isra; p c.Func_status.tc_constprop;
        p c.Func_status.tc_part; p c.Func_status.tc_cold; p c.Func_status.tc_multi;
      ]
  in
  List.iter
    (fun v ->
      let gmaj, gmin = Version.gcc_of v in
      emit (Printf.sprintf "%s (gcc %d.%d)" (Version.to_string v) gmaj gmin) (x86 v))
    Version.all;
  Texttable.sep t;
  List.iter
    (fun arch ->
      emit
        ("v5.4 " ^ Config.arch_to_string arch)
        (Dataset.surface ds (Version.v 5 4) Config.{ arch; flavor = Generic }))
    [ Config.Arm64; Config.Arm32; Config.Ppc; Config.Riscv ];
  print_string (Texttable.render t);
  print_endline "(paper: up to 16% transformed; cold appears at GCC >= 8; no isra on arm32)"

(* ------------------------------------------------------------------ *)
(* Tables 1 and 2                                                       *)
(* ------------------------------------------------------------------ *)

let table1 env () =
  section "Table 1: summary of dependency mismatches";
  let lts = List.map snd (Pipeline.lts_diffs env.e_cached) in
  let cfgs = List.map snd (Pipeline.config_diffs env.e_cached) in
  let t =
    Texttable.create
      [
        ("layer", Texttable.L); ("type", Texttable.L); ("cause", Texttable.L);
        ("freq", Texttable.R); ("paper", Texttable.R); ("consequence", Texttable.L);
      ]
  in
  let pop_of which (d : Diff.t) =
    match which with
    | `Fn ->
        ( d.Diff.df_funcs.Diff.d_common,
          List.length d.Diff.df_funcs.Diff.d_added,
          List.length d.Diff.df_funcs.Diff.d_removed,
          List.length d.Diff.df_funcs.Diff.d_changed )
    | `St ->
        ( d.Diff.df_structs.Diff.d_common,
          List.length d.Diff.df_structs.Diff.d_added,
          List.length d.Diff.df_structs.Diff.d_removed,
          List.length d.Diff.df_structs.Diff.d_changed )
    | `Tp ->
        ( d.Diff.df_tracepoints.Diff.d_common,
          List.length d.Diff.df_tracepoints.Diff.d_added,
          List.length d.Diff.df_tracepoints.Diff.d_removed,
          List.length d.Diff.df_tracepoints.Diff.d_changed )
  in
  let freq diffs which part =
    Stats.max_over
      (fun d ->
        let common, a, r, c = pop_of which d in
        let old_total = common + r in
        Stats.percent (match part with `A -> a | `R -> r | `C -> c) (max 1 old_total))
      diffs
  in
  let row layer ty cause v paper consequence =
    Texttable.row t [ layer; ty; cause; pct v; paper; consequence ]
  in
  row "source" "function" "addition" (freq lts `Fn `A) "24%" "Attachment Error";
  row "source" "function" "removal" (freq lts `Fn `R) "10%" "Attachment Error";
  row "source" "function" "change" (freq lts `Fn `C) "6%" "Stray Read";
  row "source" "struct" "addition" (freq lts `St `A) "24%" "Compilation Error";
  row "source" "struct" "removal" (freq lts `St `R) "4%" "Compilation Error";
  row "source" "struct" "change" (freq lts `St `C) "18%" "Stray Read or CE";
  row "source" "tracepoint" "addition" (freq lts `Tp `A) "39%" "Attachment Error";
  row "source" "tracepoint" "removal" (freq lts `Tp `R) "5%" "Attachment Error";
  row "source" "tracepoint" "change" (freq lts `Tp `C) "16%" "Stray Read or CE";
  Texttable.sep t;
  row "config" "function" "addition" (freq cfgs `Fn `A) "26%" "Attachment Error";
  row "config" "function" "removal" (freq cfgs `Fn `R) "25%" "Attachment Error";
  row "config" "function" "change" (freq cfgs `Fn `C) "0.3%" "Stray Read";
  row "config" "struct" "addition" (freq cfgs `St `A) "24%" "Compilation Error";
  row "config" "struct" "removal" (freq cfgs `St `R) "22%" "Compilation Error";
  row "config" "struct" "change" (freq cfgs `St `C) "1.8%" "Stray Read or CE";
  row "config" "tracepoint" "addition" (freq cfgs `Tp `A) "8%" "Attachment Error";
  row "config" "tracepoint" "removal" (freq cfgs `Tp `R) "34%" "Attachment Error";
  Texttable.row t
    [ "config"; "syscall"; "availability"; "by arch"; "by arch"; "Attachment Error" ];
  Texttable.row t
    [ "config"; "syscall"; "traceability"; "by arch"; "by arch"; "Missing Invocation" ];
  Texttable.row t
    [ "config"; "register"; "difference"; "by arch"; "by arch"; "Relocation Error" ];
  Texttable.sep t;
  let s54 = ex86 env (Version.v 5 4) in
  let ic = Func_status.inline_census s54 in
  let tc = Func_status.transform_census s54 in
  let cc = Func_status.collision_census s54 in
  let total = ic.Func_status.ic_total in
  row "compile" "function" "full inline"
    (Stats.percent ic.Func_status.ic_full total)
    "36%" "Attachment Error";
  row "compile" "function" "selective inline"
    (Stats.percent ic.Func_status.ic_selective total)
    "11%" "Missing Invocation";
  row "compile" "function" "transformation"
    (Stats.percent tc.Func_status.tc_any total)
    "16%" "Attachment Error";
  row "compile" "function" "duplication"
    (Stats.percent cc.Func_status.cc_duplication total)
    "12%" "Missing Invocation";
  row "compile" "function" "name collision"
    (Stats.percent (cc.Func_status.cc_static_static + cc.Func_status.cc_static_global) total)
    "0.6%" "Stray Read";
  print_string (Texttable.render t)

let table2 () =
  section "Table 2: consequences and implications";
  let t = Texttable.create [ ("consequence", Texttable.L); ("implication", Texttable.L) ] in
  List.iter
    (fun c ->
      Texttable.row t
        [ Report.consequence_to_string c; Report.implication_to_string (Report.implication_of c) ])
    Report.
      [ Compilation_error; Relocation_error; Attachment_error; Stray_read; Missing_invocation ];
  print_string (Texttable.render t)

(* ------------------------------------------------------------------ *)
(* Figure 2 + Figure 4                                                  *)
(* ------------------------------------------------------------------ *)

let fig2 () =
  section "Figure 2: the biotop timeline (replayed)";
  List.iter print_endline
    [
      "  v5.15  blk_account_io_{start,done} attachable; biotop works";
      "  v5.19  be6bfe3-era change: both become static inline wrappers -> FULL INLINE";
      "         (biotop: \"failed to attach\"; issue #4261)";
      "         first fix attempt __blk_account_io_start is itself fully inlined";
      "  v6.5   5a80bd0: block_io_{start,done} tracepoints added";
      "  v6.8   biotop (tracepoint version) works; v5.17-v6.4 remain broken";
      "  (run `dune exec examples/biotop_case_study.exe` for the live replay)";
    ]

let fig4 () =
  section "Figure 4: dependency reports for biotop and readahead";
  let find name =
    let _, m, _ =
      List.find
        (fun ((pr : T7.profile), _, _) -> pr.T7.pr_name = name)
        (Lazy.force corpus_analysis)
    in
    m
  in
  print_string (Report.render_matrix (find "biotop"));
  print_newline ();
  print_string (Report.render_matrix (find "readahead"))

(* ------------------------------------------------------------------ *)
(* Tables 7 and 8                                                       *)
(* ------------------------------------------------------------------ *)

let table7 env () =
  section "Table 7: dependency sets and mismatches of the 53-program corpus";
  let t =
    Texttable.create
      [
        ("program", Texttable.L);
        ("fnS", Texttable.R); ("a", Texttable.R); ("c", Texttable.R); ("F", Texttable.R);
        ("S", Texttable.R); ("T", Texttable.R); ("D", Texttable.R);
        ("stS", Texttable.R); ("a", Texttable.R);
        ("fldS", Texttable.R); ("a", Texttable.R); ("c", Texttable.R);
        ("tpS", Texttable.R); ("a", Texttable.R); ("c", Texttable.R);
        ("scS", Texttable.R); ("a", Texttable.R);
        ("clean", Texttable.L);
      ]
  in
  let n x = if x = 0 then "-" else string_of_int x in
  List.iter
    (fun ((pr : T7.profile), m, s) ->
      let count_fn p =
        List.length
          (List.filter
             (fun row ->
               match row.Report.r_dep with
               | Depset.Dep_func _ ->
                   List.exists (fun c -> List.exists p c.Report.c_statuses) row.Report.r_cells
               | _ -> false)
             m.Report.m_rows)
      in
      let tp_changed =
        List.length
          (List.filter
             (fun row ->
               match row.Report.r_dep with
               | Depset.Dep_tracepoint _ ->
                   List.exists
                     (fun c ->
                       List.exists
                         (function Report.St_changed _ -> true | _ -> false)
                         c.Report.c_statuses)
                     row.Report.r_cells
               | _ -> false)
             m.Report.m_rows)
      in
      Texttable.row t
        [
          pr.T7.pr_name;
          n s.Report.ms_total.Depset.n_funcs;
          n s.Report.ms_absent.Depset.n_funcs;
          n s.Report.ms_changed.Depset.n_funcs;
          n (count_fn (function Report.St_full_inline -> true | _ -> false));
          n (count_fn (function Report.St_selective_inline -> true | _ -> false));
          n (count_fn (function Report.St_transformed -> true | _ -> false));
          n (count_fn (function Report.St_duplicated -> true | _ -> false));
          n s.Report.ms_total.Depset.n_structs;
          n s.Report.ms_absent.Depset.n_structs;
          n s.Report.ms_total.Depset.n_fields;
          n s.Report.ms_absent.Depset.n_fields;
          n s.Report.ms_changed.Depset.n_fields;
          n s.Report.ms_total.Depset.n_tracepoints;
          n s.Report.ms_absent.Depset.n_tracepoints;
          n tp_changed;
          n s.Report.ms_total.Depset.n_syscalls;
          n s.Report.ms_absent.Depset.n_syscalls;
          (if Report.clean s then "yes" else "");
        ])
    (Lazy.force env.e_analysis);
  print_string (Texttable.render t);
  print_endline "(columns: S=total, a=absent somewhere, c=changed; F/S/T/D as in Fig. 4)";
  let impacted =
    List.length
      (List.filter (fun (_, _, s) -> not (Report.clean s)) (Lazy.force env.e_analysis))
  in
  Printf.printf "\n%d/53 programs impacted: %.0f%% (paper: 83%%)\n" impacted
    (Stats.percent impacted 53)

let table8 () =
  section "Table 8: summary of Table 7 (programs and unique dependencies)";
  let analysis = Lazy.force corpus_analysis in
  let t =
    Texttable.create
      [
        ("construct", Texttable.L); ("class", Texttable.L);
        ("# programs", Texttable.R); ("# uniq deps", Texttable.R); ("paper", Texttable.L);
      ]
  in
  let classify kinds klabel test paper_progs =
    let uniq = Hashtbl.create 64 in
    let progs = ref 0 in
    List.iter
      (fun (_, m, _) ->
        let hit = ref false in
        List.iter
          (fun row ->
            if kinds row.Report.r_dep then
              let affected =
                List.exists (fun c -> List.exists test c.Report.c_statuses) row.Report.r_cells
              in
              if affected then begin
                hit := true;
                Hashtbl.replace uniq row.Report.r_dep ()
              end)
          m.Report.m_rows;
        if !hit then incr progs)
      analysis;
    Texttable.row t
      [ ""; klabel; string_of_int !progs; string_of_int (Hashtbl.length uniq); paper_progs ]
  in
  let kind_header kinds label paper =
    let uniq = Hashtbl.create 64 in
    let progs = ref 0 in
    List.iter
      (fun (_, m, _) ->
        let any = ref false in
        List.iter
          (fun row ->
            if kinds row.Report.r_dep then begin
              any := true;
              Hashtbl.replace uniq row.Report.r_dep ()
            end)
          m.Report.m_rows;
        if !any then incr progs)
      analysis;
    Texttable.row t
      [ label; "total"; string_of_int !progs; string_of_int (Hashtbl.length uniq); paper ]
  in
  let is_fn = function Depset.Dep_func _ -> true | _ -> false in
  let is_st = function Depset.Dep_struct _ -> true | _ -> false in
  let is_fld = function Depset.Dep_field _ -> true | _ -> false in
  let is_tp = function Depset.Dep_tracepoint _ -> true | _ -> false in
  let is_sc = function Depset.Dep_syscall _ -> true | _ -> false in
  let absent = function Report.St_absent -> true | _ -> false in
  let changed = function Report.St_changed _ -> true | _ -> false in
  kind_header is_fn "func" "25 progs / 126 deps";
  classify is_fn "absent" absent "10 / 29";
  classify is_fn "changed" changed "14 / 31";
  classify is_fn "full inline" (function Report.St_full_inline -> true | _ -> false) "6 / 11";
  classify is_fn "selective" (function Report.St_selective_inline -> true | _ -> false) "14 / 32";
  classify is_fn "transformed" (function Report.St_transformed -> true | _ -> false) "14 / 28";
  classify is_fn "duplicated" (function Report.St_duplicated -> true | _ -> false) "2 / 3";
  Texttable.sep t;
  kind_header is_st "struct" "43 / 135";
  classify is_st "absent" absent "13 / 31";
  Texttable.sep t;
  kind_header is_fld "field" "43 / 342";
  classify is_fld "absent" absent "22 / 102";
  classify is_fld "changed" changed "10 / 13";
  Texttable.sep t;
  kind_header is_tp "tracepoint" "25 / 44";
  classify is_tp "absent" absent "10 / 15";
  classify is_tp "changed" changed "18 / 23";
  Texttable.sep t;
  kind_header is_sc "syscall" "8 / 448";
  classify is_sc "absent" absent "4 / 204";
  print_string (Texttable.render t)

(* ------------------------------------------------------------------ *)
(* §4.1 special kernel functions                                        *)
(* ------------------------------------------------------------------ *)

let special_functions () =
  section "Special kernel functions (paper §4.1): LSM hooks and kfuncs";
  let t =
    Texttable.create
      [
        ("", Texttable.L); ("LSM hooks", Texttable.R); ("kfuncs", Texttable.R);
        ("LSM +%", Texttable.R); ("LSM -%", Texttable.R);
      ]
  in
  let prev = ref None in
  List.iter
    (fun v ->
      let s = x86 v in
      let c = Func_status.special_census s in
      let lsm_names surf =
        List.filter_map
          (fun fe ->
            if Func_status.is_lsm_hook fe.Surface.fe_name then Some fe.Surface.fe_name else None)
          surf.Surface.s_funcs
      in
      let add_pct, rm_pct =
        match !prev with
        | None -> ("-", "-")
        | Some prev_s ->
            let old_l = lsm_names prev_s and new_l = lsm_names s in
            let added = List.filter (fun n -> not (List.mem n old_l)) new_l in
            let removed = List.filter (fun n -> not (List.mem n new_l)) old_l in
            ( pct (Stats.percent (List.length added) (List.length old_l)),
              pct (Stats.percent (List.length removed) (List.length old_l)) )
      in
      prev := Some s;
      Texttable.row t
        [
          Version.to_string v; string_of_int c.Func_status.sp_lsm;
          string_of_int c.Func_status.sp_kfunc; add_pct; rm_pct;
        ])
    Version.lts;
  print_string (Texttable.render t);
  print_endline "(paper: >150 LSM hooks, ~9% added / 2% removed per LTS; ~100 kfuncs by v6.8)"

(* ------------------------------------------------------------------ *)
(* Ablations                                                            *)
(* ------------------------------------------------------------------ *)

let ablation_scale () =
  section "Ablation A1: scale invariance of the calibrated rates";
  let small = Pipeline.dataset Calibration.test_scale in
  let row ds' label =
    let a = Dataset.surface ds' (Version.v 4 4) Config.x86_generic in
    let b = Dataset.surface ds' (Version.v 4 15) Config.x86_generic in
    let s = Diff.summary Diff.Across_versions a b in
    Printf.printf "  %-6s fn +%.0f%% -%.0f%% C%.0f%% | st +%.0f%% -%.0f%% C%.0f%%\n" label
      s.Diff.sum_funcs.Diff.t_added_pct s.Diff.sum_funcs.Diff.t_removed_pct
      s.Diff.sum_funcs.Diff.t_changed_pct s.Diff.sum_structs.Diff.t_added_pct
      s.Diff.sum_structs.Diff.t_removed_pct s.Diff.sum_structs.Diff.t_changed_pct
  in
  print_endline "v4.4 -> v4.15 rates at two population scales (should agree):";
  row ds "bench";
  row small "test"

let ablation_core () =
  section "Ablation A2: what CO-RE relocation absorbs";
  let base = x86 (Version.v 5 4) in
  let field_deps =
    List.sort_uniq compare
      (List.concat_map
         (fun (_, obj) ->
           List.filter_map
             (function Depset.Dep_field (s, f) -> Some (s, f) | _ -> None)
             (Depset.of_obj obj))
         (Lazy.force corpus))
  in
  let moved = ref 0 and checked = ref 0 in
  List.iter
    (fun v ->
      let target = x86 v in
      List.iter
        (fun (sname, fname) ->
          match Surface.find_field base sname fname, Surface.find_field target sname fname with
          | Some a, Some b ->
              incr checked;
              if a.Ds_ctypes.Decl.bits_offset <> b.Ds_ctypes.Decl.bits_offset then incr moved
          | _ -> ())
        field_deps)
    Version.all;
  Printf.printf
    "  %d unique field deps x 17 versions: %d/%d present-on-both accesses sit at a\n\
    \  DIFFERENT offset than at build time (%.0f%%). Each is a silent misread without\n\
    \  CO-RE, and exactly 0 with it (the loader resolves against the target BTF).\n"
    (List.length field_deps) !moved !checked
    (Stats.percent !moved (max 1 !checked))

let ablation_composition () =
  section "Ablation A3: per-release vs LTS-composed churn";
  let d_lts = List.assoc (Version.v 4 4, Version.v 4 15) (Lazy.force lts_diffs) in
  let singles =
    List.filter
      (fun ((a, _), _) ->
        Version.compare a (Version.v 4 4) >= 0 && Version.compare a (Version.v 4 15) < 0)
      (Lazy.force release_diffs)
  in
  let sum f = List.fold_left (fun acc (_, d) -> acc + f d) 0 singles in
  Printf.printf
    "  removals 4.4->4.15: union (LTS diff) = %d, sum of per-release = %d\n\
    \  changes  4.4->4.15: union = %d, sum = %d\n\
    \  (the union is smaller: churn concentrates in hot constructs, which is why\n\
    \   LTS-level percentages sit below the naive sum of releases)\n"
    (List.length d_lts.Diff.df_funcs.Diff.d_removed)
    (sum (fun d -> List.length d.Diff.df_funcs.Diff.d_removed))
    (List.length d_lts.Diff.df_funcs.Diff.d_changed)
    (sum (fun d -> List.length d.Diff.df_funcs.Diff.d_changed))

let ablation_threshold () =
  section "Ablation A4: inline-threshold sensitivity (Figure 5)";
  print_endline "  full/selective inline fractions on v5.4/x86 as the compiler's";
  print_endline "  size threshold sweeps (the band real GCC versions move within):";
  let src = Dataset.source ds (Version.v 5 4) in
  List.iter
    (fun threshold ->
      let model = Ds_kcc.Compile.compile ~inline_threshold:threshold src Config.x86_generic in
      let s =
        Ds_util.Diag.ok (Surface.extract (Ds_elf.Elf.write (Ds_kcc.Emit.emit model)))
      in
      let c = Func_status.inline_census s in
      Printf.printf "  threshold %2d: full %4.1f%%  selective %4.1f%%\n" threshold
        (Stats.percent c.Func_status.ic_full c.Func_status.ic_total)
        (Stats.percent c.Func_status.ic_selective c.Func_status.ic_total))
    [ 10; 20; 26; 31; 36; 60 ]

(* ------------------------------------------------------------------ *)
(* Bechamel micro-benchmarks (§3.4 performance)                         *)
(* ------------------------------------------------------------------ *)

let perf () =
  section "Performance (paper §3.4): Bechamel micro-benchmarks";
  let open Bechamel in
  let image_bytes = Ds_elf.Elf.write (Dataset.image ds (Version.v 5 4) Config.x86_generic) in
  let obj = snd (List.hd (Lazy.force corpus)) in
  let obj_bytes = Ds_bpf.Obj.write obj in
  let s44 = x86 (Version.v 4 4) and s68 = x86 (Version.v 6 8) in
  let tests =
    [
      Test.make ~name:"surface-extraction (1 image)"
        (Staged.stage (fun () -> ignore (Surface.extract image_bytes)));
      Test.make ~name:"surface-diff (LTS pair)"
        (Staged.stage (fun () -> ignore (Diff.compare_surfaces Diff.Across_versions s44 s68)));
      Test.make ~name:"depset-analysis (1 obj)"
        (Staged.stage
           (fun () -> ignore (Depset.of_obj (Ds_util.Diag.ok (Ds_bpf.Obj.read obj_bytes)))));
      (* Report.matrix directly: Pipeline.analyze would serve the cached
         matrix after the first iteration and we'd be timing the decoder *)
      Test.make ~name:"report-matrix (tracee, 21 images)"
        (Staged.stage (fun () ->
             ignore
               (Report.matrix ds ~images:Dataset.fig4_images
                  ~baseline:(Version.v 5 4, Config.x86_generic)
                  obj)));
    ]
  in
  List.iter
    (fun test ->
      let instance = Toolkit.Instance.monotonic_clock in
      let cfg = Benchmark.cfg ~limit:50 ~quota:(Time.second 0.5) () in
      let raw = Benchmark.all cfg [ instance ] test in
      let results =
        Analyze.all
          (Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |])
          instance raw
      in
      Hashtbl.iter
        (fun name ols ->
          match Analyze.OLS.estimates ols with
          | Some [ est ] -> Printf.printf "  %-42s %12.3f ms/run\n" name (est /. 1e6)
          | _ -> Printf.printf "  %-42s (no estimate)\n" name)
        results)
    tests

(* ------------------------------------------------------------------ *)
(* End-to-end pipeline timing: jobs=1 vs jobs=N, per stage, persisted   *)
(* as BENCH_PIPELINE.json so later PRs have a perf trajectory.          *)
(* ------------------------------------------------------------------ *)

type stage_times = {
  st_compile : float;  (** compile + emit *)
  st_parse : float;  (** ELF roundtrip + BTF/DWARF parse *)
  st_surface : float;
  st_diff : float;
  st_corpus : float;
}

let stage_total st = st.st_compile +. st.st_parse +. st.st_surface +. st.st_diff +. st.st_corpus

(* Warm stage by stage (images, then vmlinuxes, then surfaces) so each
   layer of the chain gets its own wall-clock number; the diff and corpus
   fan-outs then run on the warmed dataset. *)
let staged_run ?pool ds' c corpus_thunk =
  let force f =
    let chain (v, cfg) = ignore (f ds' v cfg) in
    match pool with
    | None -> List.iter chain Dataset.study_images
    | Some p -> ignore (Par.map_list_chunked p chain Dataset.study_images)
  in
  let (), st_compile = time (fun () -> force Dataset.image) in
  let (), st_parse = time (fun () -> force Dataset.vmlinux) in
  let (), st_surface = time (fun () -> force Dataset.surface) in
  let (), st_diff =
    time (fun () ->
        ignore (Pipeline.lts_diffs c);
        ignore (Pipeline.release_diffs c);
        ignore (Pipeline.config_diffs c))
  in
  let analysis, st_corpus = time corpus_thunk in
  ({ st_compile; st_parse; st_surface; st_diff; st_corpus }, analysis)

(* Satellite: regression guard. Parse the previous BENCH_PIPELINE.json
   (written by an earlier run of this harness) before overwriting it, so
   slowdowns against the recorded baseline are visible in the output. *)
let jfloat = function
  | Json.Float f -> Some f
  | Json.Int i -> Some (float_of_int i)
  | _ -> None

let jstr = function Json.String s -> Some s | _ -> None

let read_pipeline_baseline () =
  if not (Sys.file_exists "BENCH_PIPELINE.json") then None
  else
    match Json.of_string (read_file "BENCH_PIPELINE.json") with
    | exception _ -> None
    | j -> (
        match Json.member "stages" j with
        | Some (Json.List stages) ->
            let scale_label = Option.bind (Json.member "scale" j) jstr in
            Some
              ( scale_label,
                List.filter_map
                  (fun st ->
                    match
                      ( Option.bind (Json.member "stage" st) jstr,
                        Option.bind (Json.member "seq_s" st) jfloat,
                        Option.bind (Json.member "par_s" st) jfloat )
                    with
                    | Some name, Some s, Some p -> Some (name, (s, p))
                    | _ -> None)
                  stages )
        | _ -> None)

let regression_guard baseline seq par =
  match baseline with
  | None -> print_endline "(no BENCH_PIPELINE.json baseline; skipping regression check)"
  | Some (scale_label, stages) ->
      let this_scale = if scale = Calibration.bench_scale then "bench" else "test" in
      if scale_label <> Some this_scale then
        Printf.printf "(baseline BENCH_PIPELINE.json is at scale %s, this run is %s; delta \
                       table skipped)\n"
          (Option.value ~default:"?" scale_label)
          this_scale
      else begin
        let t =
          Texttable.create
            [
              ("stage", Texttable.L); ("baseline par (s)", Texttable.R);
              ("now par (s)", Texttable.R); ("delta", Texttable.R);
            ]
        in
        let slow = ref [] in
        let row name now_p =
          match List.assoc_opt name stages with
          | None -> ()
          | Some (_, base_p) ->
              let ratio = now_p /. Float.max 1e-9 base_p in
              if ratio > 2. && now_p -. base_p > 0.05 then slow := name :: !slow;
              Texttable.row t
                [
                  name; Printf.sprintf "%.2f" base_p; Printf.sprintf "%.2f" now_p;
                  Printf.sprintf "%+.0f%%" ((ratio -. 1.) *. 100.);
                ]
        in
        row "evolve" t_evolve;
        row "compile_emit" par.st_compile;
        row "parse" par.st_parse;
        row "surface" par.st_surface;
        row "diff" par.st_diff;
        row "corpus" par.st_corpus;
        ignore seq;
        print_endline "Per-stage delta vs the previous BENCH_PIPELINE.json:";
        print_string (Texttable.render t);
        (* a >2x slowdown against the committed baseline is a hard
           failure, not a warning: trajectory files only stay meaningful
           if regressions cannot land silently *)
        List.iter
          (fun name ->
            Printf.printf "regression guard: FAILED (stage %s is >2x slower than baseline)\n"
              name)
          (List.rev !slow);
        if !slow <> [] then exit 1
      end

(* Tentpole gate: with the active-execution budget and chunked
   submission, a pooled fan-out must cost at most 20% over plain
   List.map even when the host has a single CPU (jobs=N used to lose
   3x on 1 core to stop-the-world rendezvous between spinning
   domains). Measured on a CPU-bound task big enough to dwarf queue
   noise; best-of-3 on both sides. *)
let chunking_overhead () =
  section
    (Printf.sprintf "Par chunking: map_list_chunked overhead vs List.map (jobs=%d, %d cores)"
       par_jobs
       (Domain.recommended_domain_count ()));
  let xs = List.init 4000 (fun i -> Printf.sprintf "payload-%d-%d" i (i * i)) in
  let work s =
    let h = ref 5381 in
    for _ = 1 to 50 do
      String.iter (fun c -> h := (!h * 33) lxor Char.code c) s
    done;
    !h
  in
  let best f =
    let rec go n acc = if n = 0 then acc else go (n - 1) (Float.min acc (snd (time f))) in
    go 3 infinity
  in
  let t_seq = best (fun () -> ignore (List.map work xs)) in
  let t_chunked = best (fun () -> ignore (Par.map_list_chunked pool work xs)) in
  let t_unchunked = best (fun () -> ignore (Par.map_list pool work xs)) in
  let overhead = (t_chunked /. Float.max 1e-9 t_seq) -. 1. in
  Printf.printf "List.map %.4fs  map_list %.4fs  map_list_chunked %.4fs  (chunked overhead %+.0f%%)\n"
    t_seq t_unchunked t_chunked (overhead *. 100.);
  (* 20% plus a 5ms absolute floor so micro-jitter cannot fail the gate *)
  if t_chunked > (t_seq *. 1.2) +. 0.005 then begin
    Printf.printf "chunking gate: FAILED (map_list_chunked is %+.0f%% over List.map, budget 20%%)\n"
      (overhead *. 100.);
    exit 1
  end
  else print_endline "chunking gate: pooled fan-out within 20% of sequential: OK";
  Json.Obj
    [
      ("list_map_s", Json.Float t_seq);
      ("map_list_s", Json.Float t_unchunked);
      ("map_list_chunked_s", Json.Float t_chunked);
      ("chunked_overhead", Json.Float overhead);
    ]

let write_bench_json ~chunking seq par =
  let open Json in
  let stage name s p =
    Obj
      [
        ("stage", String name);
        ("seq_s", Float s);
        ("par_s", Float p);
        ("speedup", Float (s /. Float.max 1e-9 p));
      ]
  in
  let total_seq = t_evolve +. stage_total seq and total_par = t_evolve +. stage_total par in
  let j =
    with_trajectory "BENCH_PIPELINE.json" ~metric:total_par
      [
        ("schema", String "depsurf-bench-pipeline/2");
        ("chunking", chunking);
        ("scale", String (if scale = Calibration.bench_scale then "bench" else "test"));
        ("image_count", Int (List.length Dataset.study_images));
        ("corpus_programs", Int (List.length T7.programs));
        ("jobs_seq", Int 1);
        ("jobs_par", Int par_jobs);
        ( "stages",
          List
            [
              stage "evolve" t_evolve t_evolve;
              stage "compile_emit" seq.st_compile par.st_compile;
              stage "parse" seq.st_parse par.st_parse;
              stage "surface" seq.st_surface par.st_surface;
              stage "diff" seq.st_diff par.st_diff;
              stage "corpus" seq.st_corpus par.st_corpus;
            ] );
        ("total_seq_s", Float total_seq);
        ("total_par_s", Float total_par);
        ("speedup", Float (total_seq /. Float.max 1e-9 total_par));
      ]
  in
  write_json_file "BENCH_PIPELINE.json" j;
  total_seq, total_par

let biotop_matrix analysis =
  let _, m, _ = List.find (fun ((pr : T7.profile), _, _) -> pr.T7.pr_name = "biotop") analysis in
  Report.render_matrix m

(* cold per-stage wall clock, kept for the store-timing comparison *)
let cold_times : stage_times option ref = ref None

let pipeline_timing () =
  section (Printf.sprintf "Pipeline timing: jobs=1 vs jobs=%d (%d images)" par_jobs
             (List.length Dataset.study_images));
  let baseline = read_pipeline_baseline () in
  let chunking = chunking_overhead () in
  (* jobs=1 reference run on its own dataset, with its own throwaway
     store so both sides of the speedup column pay the same cold
     artifact writes (the jobs=N run below populates the persistent
     store; comparing it against a store-less run would book the write
     cost as pool overhead) *)
  let seq_store =
    let d = Filename.temp_file "depsurf-bench-seqcache" "" in
    Sys.remove d;
    Store.open_ ~dir:d ()
  in
  let ds1 = Pipeline.dataset ~store:seq_store scale in
  let seq, seq_analysis =
    staged_run ds1 (Pipeline.cached ds1) (fun () ->
        Ds_corpus.Corpus.analyze_all_matrices ds1 (Ds_corpus.Corpus.build_all ds1 ()))
  in
  (* capture the jobs=1 fingerprints for the determinism check now and
     drop [ds1], so the reference dataset is not live heap the timed
     parallel run has to mark on every collection *)
  let seq_matrix = biotop_matrix seq_analysis in
  let seq_surface =
    Json.to_string (Export.surface (Dataset.surface ds1 (Version.v 6 8) Config.x86_generic))
  in
  Gc.compact ();
  (* jobs=N run on the dataset every table below reads *)
  let par, par_analysis = staged_run ~pool ds cached (fun () -> Lazy.force corpus_analysis) in
  let t =
    Texttable.create
      [
        ("stage", Texttable.L); ("jobs=1 (s)", Texttable.R);
        (Printf.sprintf "jobs=%d (s)" par_jobs, Texttable.R); ("speedup", Texttable.R);
      ]
  in
  let row name s p =
    Texttable.row t
      [ name; Printf.sprintf "%.2f" s; Printf.sprintf "%.2f" p;
        Printf.sprintf "%.2fx" (s /. Float.max 1e-9 p) ]
  in
  row "evolve (sequential)" t_evolve t_evolve;
  row "compile+emit" seq.st_compile par.st_compile;
  row "parse" seq.st_parse par.st_parse;
  row "surface" seq.st_surface par.st_surface;
  row "diff" seq.st_diff par.st_diff;
  row "corpus" seq.st_corpus par.st_corpus;
  Texttable.sep t;
  let total_seq, total_par = write_bench_json ~chunking seq par in
  row "total" total_seq total_par;
  print_string (Texttable.render t);
  print_endline "(written to BENCH_PIPELINE.json)";
  regression_guard baseline seq par;
  cold_times := Some par;
  (* tentpole gate: with the execution budget, jobs=N must never cost a
     stage more than 20% over jobs=1 — even on a single CPU, where the
     pool used to lose 3x to domain rendezvous. The 50ms absolute slack
     keeps sub-100ms stages from tripping the gate on scheduler noise. *)
  let stage_gate = ref [] in
  List.iter
    (fun (name, s, p) ->
      if s /. Float.max 1e-9 p < 0.8 && p -. s > 0.05 then stage_gate := name :: !stage_gate)
    [
      ("compile_emit", seq.st_compile, par.st_compile);
      ("parse", seq.st_parse, par.st_parse);
      ("surface", seq.st_surface, par.st_surface);
      ("diff", seq.st_diff, par.st_diff);
      ("corpus", seq.st_corpus, par.st_corpus);
    ];
  if !stage_gate <> [] then begin
    List.iter
      (fun name ->
        Printf.printf "par overhead gate: FAILED (stage %s speedup < 0.8 at jobs=%d)\n" name
          par_jobs)
      (List.rev !stage_gate);
    exit 1
  end
  else
    Printf.printf "par overhead gate: every stage within 20%% of jobs=1 at jobs=%d: OK\n"
      par_jobs;
  (* determinism contract: the parallel run must be byte-identical *)
  let par_surface = Json.to_string (Export.surface (x86 (Version.v 6 8))) in
  if
    String.equal seq_matrix (biotop_matrix par_analysis)
    && String.equal seq_surface par_surface
  then print_endline "determinism check: jobs=1 and parallel outputs byte-identical: OK"
  else begin
    print_endline "determinism check: FAILED (parallel output differs from jobs=1)";
    exit 1
  end

(* ------------------------------------------------------------------ *)
(* Robustness: lenient-ingestion overhead + fault survival              *)
(* ------------------------------------------------------------------ *)

module Faultgen = Ds_faultgen.Faultgen

let robustness () =
  section "Robustness: lenient ingestion overhead and mutation survival";
  let img = Dataset.image ds (Version.v 5 4) Config.x86_generic in
  let image_bytes = Ds_elf.Elf.write img in
  let sec name =
    match Ds_elf.Elf.find_section img name with Some s -> s.Ds_elf.Elf.sec_data | None -> ""
  in
  (* clean-image overhead: the lenient path must cost no more than the
     strict path it shadows (budget: 5%) *)
  let reps = 20 in
  let avg f =
    Stats.mean
      (List.init reps (fun _ ->
           let (), dt = time (fun () -> ignore (f ())) in
           dt))
  in
  (* interleave so neither side soaks up a GC bias *)
  let t_strict0 = avg (fun () -> Surface.extract image_bytes) in
  let t_lenient0 = avg (fun () -> Surface.extract ~mode:`Lenient image_bytes) in
  let t_strict = Float.min t_strict0 (avg (fun () -> Surface.extract image_bytes)) in
  let t_lenient =
    Float.min t_lenient0 (avg (fun () -> Surface.extract ~mode:`Lenient image_bytes))
  in
  let overhead_pct = ((t_lenient /. Float.max 1e-9 t_strict) -. 1.) *. 100. in
  Printf.printf "  clean-image extraction: strict %.2f ms, lenient %.2f ms (%+.1f%%)\n"
    (t_strict *. 1000.) (t_lenient *. 1000.) overhead_pct;
  if overhead_pct > 5. then
    Printf.printf "WARNING: lenient ingestion %.1f%% slower than strict on clean images (>5%% budget)\n"
      overhead_pct;
  (* clean images must come out byte-identical with zero diagnostics *)
  let strict_json =
    Json.to_string (Export.surface (Ds_util.Diag.ok (Surface.extract image_bytes)))
  in
  let lenient_s = Ds_util.Diag.ok (Surface.extract ~mode:`Lenient image_bytes) in
  let lenient_json = Json.to_string (Export.surface lenient_s) in
  let identical = String.equal strict_json lenient_json && Surface.health lenient_s = [] in
  if identical then
    print_endline "  clean-image check: lenient surface byte-identical to strict, zero diagnostics: OK"
  else print_endline "  clean-image check: FAILED (lenient differs from strict on a clean image)";
  (* seeded mutation survival, per parser and end-to-end *)
  let seed = Dataset.seed ds in
  let dwarf_abbrev = sec ".debug_abbrev" in
  let obj_bytes = Ds_bpf.Obj.write (snd (List.hd (Lazy.force corpus))) in
  let pipeline_count = if scale = Calibration.bench_scale then 100 else 500 in
  let surveys =
    [
      ( "elf", 500, image_bytes,
        fun bytes -> Ds_util.Diag.diags (Ds_elf.Elf.read ~mode:`Lenient bytes) );
      ( "btf", 500, sec ".BTF",
        fun bytes -> Ds_util.Diag.diags (Ds_btf.Btf.decode ~mode:`Lenient bytes) );
      ( "dwarf", 500, sec ".debug_info",
        fun bytes ->
          Ds_util.Diag.diags
            (Ds_dwarf.Info.decode ~mode:`Lenient ~info:bytes ~abbrev:dwarf_abbrev ()) );
      ( "bpf_obj", 500, obj_bytes,
        fun bytes -> Ds_util.Diag.diags (Ds_bpf.Obj.read ~mode:`Lenient bytes) );
      ( "pipeline", pipeline_count, image_bytes,
        fun bytes -> Surface.health (Ds_util.Diag.ok (Surface.extract ~mode:`Lenient bytes)) );
    ]
  in
  let t =
    Texttable.create
      [
        ("parser", Texttable.L); ("mutations", Texttable.R); ("clean", Texttable.R);
        ("degraded", Texttable.R); ("fatal", Texttable.R); ("crashed", Texttable.R);
      ]
  in
  let crashed_total = ref 0 in
  let results =
    List.map
      (fun (name, mut_count, bytes, health) ->
        let muts = Faultgen.mutations ~count:mut_count ~seed bytes in
        let tally, crashed = Faultgen.survey health muts in
        List.iter
          (fun (mname, e) -> Printf.printf "  CRASH %s %s: %s\n" name mname e)
          crashed;
        crashed_total := !crashed_total + tally.Faultgen.n_crashed;
        Texttable.row t
          [
            name;
            string_of_int tally.Faultgen.n_total; string_of_int tally.Faultgen.n_clean;
            string_of_int tally.Faultgen.n_degraded; string_of_int tally.Faultgen.n_fatal;
            string_of_int tally.Faultgen.n_crashed;
          ];
        (name, tally))
      surveys
  in
  print_string (Texttable.render t);
  let open Json in
  let j =
    with_trajectory "BENCH_ROBUST.json" ~metric:overhead_pct
      [
        ("schema", String "depsurf-bench-robust/1");
        ("scale", String (if scale = Calibration.bench_scale then "bench" else "test"));
        ("strict_ms", Float (t_strict *. 1000.));
        ("lenient_ms", Float (t_lenient *. 1000.));
        ("overhead_pct", Float overhead_pct);
        ("clean_identical", Bool identical);
        ( "surveys",
          List
            (List.map
               (fun (name, (ta : Faultgen.tally)) ->
                 Obj
                   [
                     ("parser", String name);
                     ("total", Int ta.Faultgen.n_total);
                     ("clean", Int ta.Faultgen.n_clean);
                     ("degraded", Int ta.Faultgen.n_degraded);
                     ("fatal", Int ta.Faultgen.n_fatal);
                     ("crashed", Int ta.Faultgen.n_crashed);
                   ])
               results) );
      ]
  in
  write_json_file "BENCH_ROBUST.json" j;
  print_endline "(written to BENCH_ROBUST.json)";
  if !crashed_total > 0 || not identical then begin
    Printf.printf "robustness check: FAILED (%d uncaught exceptions)\n" !crashed_total;
    exit 1
  end
  else print_endline "robustness check: every mutation survived with typed diagnostics: OK"

(* ------------------------------------------------------------------ *)
(* Tracing: span overhead, enabled vs disabled                          *)
(* ------------------------------------------------------------------ *)

module Trace = Ds_trace.Trace

let tracing () =
  section "Tracing: span overhead (enabled vs disabled)";
  let img = Dataset.image ds (Version.v 5 4) Config.x86_generic in
  let image_bytes = Ds_elf.Elf.write img in
  (* the traced workload: a full lenient extraction, which crosses every
     instrumented parser (elf, dwarf, btf, vmlinux, surface) *)
  let workload () = Surface.extract ~mode:`Lenient image_bytes in
  (* Interleaved single runs: the process heap drifts across a long
     bench run (major-GC state moves extraction times by 10-20% between
     sections), so a before/after split would measure the drift, not
     the tracing. Alternating run-by-run gives both sides the same
     noise environment. *)
  let time1 f =
    let (), dt = time (fun () -> ignore (f ())) in
    dt
  in
  let run_on () =
    Trace.enable ();
    let d = time1 workload in
    Trace.disable ();
    d
  in
  Gc.compact ();
  let reps = 20 in
  let offs = ref [] and ons = ref [] in
  for i = 0 to (2 * reps) - 1 do
    if i mod 2 = 0 then offs := time1 workload :: !offs
    else ons := run_on () :: !ons
  done;
  (* min, not mean: GC and scheduler noise is strictly additive, so the
     fastest run of each side is the honest per-run cost and the ratio
     of minima isolates what tracing itself adds *)
  let t_off = List.fold_left Float.min infinity !offs in
  let t_on = List.fold_left Float.min infinity !ons in
  let sps = Trace.spans () in
  let dropped = Trace.drops () in
  let overhead_pct = ((t_on /. Float.max 1e-9 t_off) -. 1.) *. 100. in
  Printf.printf "  extraction: disabled %.2f ms, enabled %.2f ms (min-of-%d %+.1f%%)\n"
    (t_off *. 1000.) (t_on *. 1000.) reps overhead_pct;
  Printf.printf "  spans recorded: %d (dropped %d)\n" (List.length sps) dropped;
  let nested_ok = Trace.well_nested sps = None in
  if not nested_ok then print_endline "  tracing check: FAILED (spans not well nested)";
  let names = List.sort_uniq compare (List.map (fun sp -> sp.Trace.sp_name) sps) in
  let expect = [ "btf.decode"; "elf.read"; "surface.extract" ] in
  let missing = List.filter (fun n -> not (List.mem n names)) expect in
  if missing <> [] then
    Printf.printf "  tracing check: FAILED (no %s spans recorded)\n"
      (String.concat ", " missing);
  Trace.clear ();
  let open Json in
  let j =
    with_trajectory "BENCH_TRACE.json" ~metric:overhead_pct
      [
        ("schema", String "depsurf-bench-trace/1");
        ("scale", String (if scale = Calibration.bench_scale then "bench" else "test"));
        ("disabled_ms", Float (t_off *. 1000.));
        ("enabled_ms", Float (t_on *. 1000.));
        ("overhead_pct", Float overhead_pct);
        ("spans", Int (List.length sps));
        ("dropped", Int dropped);
        ("span_names", List (List.map (fun n2 -> String n2) names));
      ]
  in
  write_json_file "BENCH_TRACE.json" j;
  print_endline "(written to BENCH_TRACE.json)";
  if overhead_pct > 5. || not nested_ok || missing <> [] then begin
    Printf.printf "tracing check: FAILED (overhead %+.1f%%, budget 5%%)\n" overhead_pct;
    exit 1
  end
  else
    Printf.printf
      "tracing check: enabled tracing cost %+.1f%% (< 5%% budget), spans well nested: OK\n"
      overhead_pct

(* ------------------------------------------------------------------ *)
(* Store timing: cold vs warm                                           *)
(* ------------------------------------------------------------------ *)

let write_store_json ~warm ~(wstats : Store.counters) ~cold_total ~warm_total ~identical =
  let open Json in
  let es = Store.entries ~dir:cache_dir in
  let j =
    with_trajectory "BENCH_STORE.json" ~metric:warm_total
      [
        ("schema", String "depsurf-bench-store/1");
        ("scale", String (if scale = Calibration.bench_scale then "bench" else "test"));
        ("image_count", Int (List.length Dataset.study_images));
        ("entries", Int (List.length es));
        ("bytes", Int (List.fold_left (fun a e -> a + e.Store.e_bytes) 0 es));
        ("cold_total_s", Float cold_total);
        ( "warm",
          Obj
            [
              ("evolve_s", Float (List.assoc "evolve" warm));
              ("surface_s", Float (List.assoc "surface" warm));
              ("diff_s", Float (List.assoc "diff" warm));
              ("corpus_s", Float (List.assoc "corpus" warm));
              ("total_s", Float warm_total);
              ("hits", Int wstats.Store.c_hits);
              ("misses", Int wstats.Store.c_misses);
              ("evictions", Int wstats.Store.c_evictions);
              ("bytes_read", Int wstats.Store.c_bytes_read);
            ] );
        ("speedup", Float (cold_total /. Float.max 1e-9 warm_total));
        ("tables_identical", Bool identical);
      ]
  in
  write_json_file "BENCH_STORE.json" j

let store_timing () =
  section "Store timing: cold vs warm (persistent artifact cache)";
  Store.save_counters store;
  let cold = Store.stats store in
  (* re-render the cold tables from the already-memoized main dataset;
     table1/3/7 are pure views, so this equals what was printed above *)
  let cold_tables = capture (fun () -> table1 env (); table3 env (); table7 env ()) in
  (* a fresh handle + dataset replays what a second process would do over
     the same cache directory *)
  let store_w = Store.open_ ~dir:cache_dir () in
  let ds_w, w_evolve = time (fun () -> Pipeline.dataset ~store:store_w scale) in
  let cached_w = Pipeline.cached ds_w in
  let (), w_surface =
    time (fun () ->
        List.iter (fun (v, cfg) -> ignore (Dataset.surface ds_w v cfg)) Dataset.study_images)
  in
  let (), w_diff =
    time (fun () ->
        ignore (Pipeline.lts_diffs cached_w);
        ignore (Pipeline.release_diffs cached_w);
        ignore (Pipeline.config_diffs cached_w))
  in
  let analysis_w, w_corpus =
    time (fun () ->
        Ds_corpus.Corpus.analyze_all_matrices ds_w (Ds_corpus.Corpus.build_all ds_w ()))
  in
  let env_w = { e_ds = ds_w; e_cached = cached_w; e_analysis = lazy analysis_w } in
  let warm_tables = capture (fun () -> table1 env_w (); table3 env_w (); table7 env_w ()) in
  let wstats = Store.stats store_w in
  Store.save_counters store_w;
  let cold_total =
    t_evolve +. match !cold_times with Some c -> stage_total c | None -> 0.
  in
  let warm_total = w_evolve +. w_surface +. w_diff +. w_corpus in
  let t =
    Texttable.create
      [ ("stage", Texttable.L); ("cold (s)", Texttable.R); ("warm (s)", Texttable.R) ]
  in
  let row name c w =
    Texttable.row t [ name; Printf.sprintf "%.2f" c; Printf.sprintf "%.2f" w ]
  in
  row "evolve" t_evolve w_evolve;
  (match !cold_times with
  | Some c ->
      row "compile+parse+surface" (c.st_compile +. c.st_parse +. c.st_surface) w_surface;
      row "diff" c.st_diff w_diff;
      row "corpus" c.st_corpus w_corpus
  | None -> ());
  Texttable.sep t;
  row "total" cold_total warm_total;
  print_string (Texttable.render t);
  Printf.printf "warm store counters: hits %d misses %d evictions %d bytes_read %d\n"
    wstats.Store.c_hits wstats.Store.c_misses wstats.Store.c_evictions wstats.Store.c_bytes_read;
  Printf.printf "cold store counters: misses %d writes %d bytes_written %d\n"
    cold.Store.c_misses cold.Store.c_writes cold.Store.c_bytes_written;
  Printf.printf "warm kernel compiles: %d (cold: %d)\n" (Dataset.compile_count ds_w)
    (Dataset.compile_count ds);
  let identical = String.equal cold_tables warm_tables in
  write_store_json
    ~warm:
      [ ("evolve", w_evolve); ("surface", w_surface); ("diff", w_diff); ("corpus", w_corpus) ]
    ~wstats ~cold_total ~warm_total ~identical;
  print_endline "(written to BENCH_STORE.json)";
  if identical && Dataset.compile_count ds_w = 0 && wstats.Store.c_misses = 0 then
    print_endline
      "store check: warm run hit every artifact (0 compiles, 0 misses); Tables 1/3/7 \
       byte-identical: OK"
  else begin
    if not identical then
      print_endline "store check: FAILED (warm tables differ from cold tables)";
    if Dataset.compile_count ds_w <> 0 then
      Printf.printf "store check: FAILED (%d image compiles on the warm run)\n"
        (Dataset.compile_count ds_w);
    if wstats.Store.c_misses <> 0 then
      Printf.printf "store check: FAILED (%d store misses on the warm run)\n"
        wstats.Store.c_misses;
    exit 1
  end

(* ------------------------------------------------------------------ *)
(* Query service: cold vs warm latency under concurrent load            *)
(* ------------------------------------------------------------------ *)

module Serve = Ds_serve.Serve

(* pull an int out of a nested JSON document; 0 when absent *)
let jint j path =
  let rec go j = function
    | [] -> ( match j with Json.Int n -> n | Json.Float f -> int_of_float f | _ -> 0)
    | k :: rest -> ( match Json.member k j with Some j' -> go j' rest | None -> 0)
  in
  go j path

let rec adjacent_pairs = function
  | a :: (b :: _ as tl) -> (a, b) :: adjacent_pairs tl
  | _ -> []

(* previous committed BENCH_SERVE.json, for the serve regression guard *)
let read_serve_baseline () =
  if not (Sys.file_exists "BENCH_SERVE.json") then None
  else
    match Json.of_string (read_file "BENCH_SERVE.json") with
    | exception _ -> None
    | j -> (
        match
          (Option.bind (Json.member "scale" j) jstr, Option.bind (Json.member "warm_p95_ms" j) jfloat)
        with
        | Some sc, Some p95 -> Some (sc, p95)
        | _ -> None)

let serve_bench () =
  section "Query service: cold vs warm latency under concurrent load";
  let baseline = read_serve_baseline () in
  (* a private dataset + cache dir so the cold phase is honestly cold:
     nothing the main bench computed leaks into the server's tiers *)
  let sdir =
    let f = Filename.temp_file "depsurf-bench-serve" "" in
    Sys.remove f;
    f
  in
  let sstore = Store.open_ ~dir:sdir () in
  let sds = Pipeline.dataset ~store:sstore scale in
  let srv = Serve.create ~ds:sds ~pool () in
  let sock = Filename.temp_file "depsurf-bench-serve" ".sock" in
  Sys.remove sock;
  let h = Serve.start srv (Serve.Unix_sock sock) in
  let addr = Serve.bound_addr h in
  let failed = Atomic.make false in
  let get path =
    let t0 = now () in
    let status, _body = Serve.Client.request addr ~meth:"GET" ~path in
    if status <> 200 then begin
      Printf.printf "serve check: FAILED (GET %s -> %d)\n" path status;
      Atomic.set failed true
    end;
    (now () -. t0) *. 1000.
  in
  (* the counters that must not move during a warm phase *)
  let snapshot () =
    let status, body = Serve.Client.request addr ~meth:"GET" ~path:"/v1/metrics" in
    if status <> 200 then failwith "metrics endpoint failed";
    let j = Api.data (Json.of_string body) in
    ( jint j [ "compiles" ],
      jint j [ "store"; "misses" ],
      jint j [ "counters"; "index.fill.surface" ],
      jint j [ "counters"; "index.fill.diff" ] )
  in
  (* conditional GET: send the validator back, demand an empty 304 *)
  let get_cond (path, etag) =
    let t0 = now () in
    let status, _, body =
      Serve.Client.request_full ~headers:[ ("If-None-Match", etag) ] addr ~meth:"GET" ~path
    in
    if status <> 304 || body <> "" then begin
      Printf.printf "serve check: FAILED (conditional GET %s -> %d with %d body bytes)\n" path
        status (String.length body);
      Atomic.set failed true
    end;
    (now () -. t0) *. 1000.
  in
  let etag_of path =
    let _, hdrs, _ = Serve.Client.request_full addr ~meth:"GET" ~path in
    match List.assoc_opt "etag" hdrs with
    | Some e -> e
    | None ->
        Printf.printf "serve check: FAILED (GET %s carries no ETag)\n" path;
        Atomic.set failed true;
        "\"missing\""
  in
  let run_clients clients reqs ~f =
    let doms = List.init clients (fun _ -> Domain.spawn (fun () -> List.map f reqs)) in
    List.concat_map Domain.join doms
  in
  let warm_reps = 20 in
  let t =
    Texttable.create
      [
        ("clients", Texttable.R); ("phase", Texttable.L); ("reqs", Texttable.R);
        ("mean ms", Texttable.R); ("p50 ms", Texttable.R); ("p95 ms", Texttable.R);
        ("p99 ms", Texttable.R); ("max ms", Texttable.R);
      ]
  in
  let reservoir_of samples =
    let r = Stats.Reservoir.create () in
    List.iter (Stats.Reservoir.add r) samples;
    r
  in
  let phase_cells r =
    let q p = Stats.Reservoir.quantile r p in
    ( Stats.Reservoir.count r, Stats.Reservoir.mean r, q 0.5, q 0.95, q 0.99,
      Stats.Reservoir.max_seen r )
  in
  let phase_row clients phase r =
    let n, mean, p50, p95, p99 , mx = phase_cells r in
    Texttable.row t
      [
        string_of_int clients; phase; string_of_int n;
        Printf.sprintf "%.2f" mean; Printf.sprintf "%.2f" p50; Printf.sprintf "%.2f" p95;
        Printf.sprintf "%.2f" p99; Printf.sprintf "%.2f" mx;
      ]
  in
  let phase_json r =
    let n, mean, p50, p95, p99, mx = phase_cells r in
    Json.Obj
      [
        ("requests", Json.Int n); ("mean_ms", Json.Float mean);
        ("p50_ms", Json.Float p50); ("p95_ms", Json.Float p95);
        ("p99_ms", Json.Float p99); ("max_ms", Json.Float mx);
      ]
  in
  (* response-cache identity probe, on an image outside every level's
     slice: the first (rendered, cache-miss) response and the second
     (cache-hit) response must be byte-identical and share one ETag *)
  let expected_fills = ref (0, 0) in
  (match List.nth_opt Dataset.study_images 6 with
  | None -> ()
  | Some img ->
      let path = "/v1/surface/" ^ Serve.image_name img in
      let state hdrs = Option.value ~default:"?" (List.assoc_opt "x-depsurf-cache" hdrs) in
      let s1, h1, b1 = Serve.Client.request_full addr ~meth:"GET" ~path in
      let s2, h2, b2 = Serve.Client.request_full addr ~meth:"GET" ~path in
      (* the probe hydrated one surface; the per-level single-flight
         accounting below starts from that *)
      expected_fills := (1, 0);
      if
        s1 <> 200 || s2 <> 200 || state h1 <> "miss" || state h2 <> "hit"
        || not (String.equal b1 b2)
        || List.assoc_opt "etag" h1 <> List.assoc_opt "etag" h2
        || List.assoc_opt "etag" h1 = None
      then begin
        Printf.printf
          "serve check: FAILED (cache identity: %d/%s then %d/%s, bodies %s, etags %s)\n" s1
          (state h1) s2 (state h2)
          (if String.equal b1 b2 then "equal" else "DIFFER")
          (if List.assoc_opt "etag" h1 = List.assoc_opt "etag" h2 then "equal" else "DIFFER");
        Atomic.set failed true
      end
      else
        print_endline
          "serve check: cached response byte-identical to the rendered one (miss -> hit): OK");
  let warm_all = ref [] in
  let cond_1client = ref [] in
  let levels_json =
    List.mapi
      (fun li clients ->
        (* each level queries its own disjoint slice of the study matrix,
           so its cold phase never rides an earlier level's hot index *)
        let images =
          List.filteri (fun i _ -> i >= li * 3 && i < (li + 1) * 3) Dataset.study_images
        in
        let names = List.map Serve.image_name images in
        let reqs =
          List.map (fun n -> "/v1/surface/" ^ n) names
          @ List.map (fun (a, b) -> "/v1/diff/" ^ a ^ "/" ^ b) (adjacent_pairs names)
        in
        let cold = run_clients clients reqs ~f:get in
        (* every client raced the same uncached keys: single-flight means
           each key was computed exactly once, no matter the concurrency *)
        let exp_s, exp_d = !expected_fills in
        let exp_s = exp_s + List.length names
        and exp_d = exp_d + List.length (adjacent_pairs names) in
        expected_fills := (exp_s, exp_d);
        let c0, m0, fs0, fd0 = snapshot () in
        if fs0 <> exp_s || fd0 <> exp_d then begin
          Printf.printf
            "serve check: FAILED (single-flight: %d surface / %d diff fills, expected %d / %d)\n"
            fs0 fd0 exp_s exp_d;
          Atomic.set failed true
        end;
        let warm =
          run_clients clients (List.concat (List.init warm_reps (fun _ -> reqs))) ~f:get
        in
        let c1, m1, fs1, fd1 = snapshot () in
        if c1 <> c0 || m1 <> m0 || fs1 <> fs0 || fd1 <> fd0 then begin
          Printf.printf
            "serve check: FAILED (warm phase touched the slow tiers: +%d compiles, +%d store \
             misses, +%d index fills)\n"
            (c1 - c0) (m1 - m0) (fs1 - fs0 + fd1 - fd0);
          Atomic.set failed true
        end;
        (* conditional warm phase: clients that already hold the
           representation revalidate with If-None-Match and get an
           empty-bodied 304 — the steady state of a polling consumer,
           and the latency the warm gate is about *)
        let etags = List.map (fun p -> (p, etag_of p)) reqs in
        let cond =
          run_clients clients (List.concat (List.init warm_reps (fun _ -> etags))) ~f:get_cond
        in
        let c2, m2, fs2, fd2 = snapshot () in
        if c2 <> c1 || m2 <> m1 || fs2 <> fs1 || fd2 <> fd1 then begin
          Printf.printf
            "serve check: FAILED (conditional phase touched the slow tiers: +%d compiles, +%d \
             store misses, +%d index fills)\n"
            (c2 - c1) (m2 - m1) (fs2 - fs1 + fd2 - fd1);
          Atomic.set failed true
        end;
        warm_all := warm @ !warm_all;
        if clients = 1 then cond_1client := cond @ !cond_1client;
        let rc = reservoir_of cold and rw = reservoir_of warm and rn = reservoir_of cond in
        phase_row clients "cold" rc;
        phase_row clients "warm full" rw;
        phase_row clients "warm 304" rn;
        Texttable.sep t;
        Json.Obj
          [
            ("clients", Json.Int clients);
            ("distinct_requests", Json.Int (List.length reqs));
            ("warm_reps", Json.Int warm_reps);
            ("cold", phase_json rc);
            ("warm_full", phase_json rw);
            ("warm_conditional", phase_json rn);
            ("warm_compile_delta", Json.Int (c2 - c0));
            ("warm_store_miss_delta", Json.Int (m2 - m0));
          ])
      [ 1; 4 ]
  in
  Serve.stop h;
  print_string (Texttable.render t);
  (* ---- overload: 4x the admission capacity -------------------------- *)
  (* a deliberately small server (4 slots) under 16 hammering clients:
     every answer must be a 200 or a 503-with-Retry-After (no other
     5xx, no dropped connections), shedding must actually engage, the
     accepted requests must keep their tail, no fd may leak, and the
     final drain must abandon nothing *)
  let overload_json =
    let limits = { (Serve.default_limits ()) with Serve.li_max_inflight = 4 } in
    let srv2 = Serve.create ~limits ~ds:sds ~pool () in
    let sock2 = Filename.temp_file "depsurf-bench-overload" ".sock" in
    Sys.remove sock2;
    let h2 = Serve.start srv2 (Serve.Unix_sock sock2) in
    let addr2 = Serve.bound_addr h2 in
    (* warm the route so the burst measures admission, not hydration *)
    (match Serve.Client.request addr2 ~meth:"GET" ~path:"/v1/healthz" with
    | 200, _ -> ()
    | st, _ -> failwith (Printf.sprintf "overload warmup: healthz -> %d" st));
    let fd_before = Ds_util.Fdcount.count () in
    let clients = 4 * limits.Serve.li_max_inflight and per_client = 25 in
    let ok = Atomic.make 0 and shed = Atomic.make 0 and bad = Atomic.make 0 in
    let doms =
      List.init clients (fun _ ->
          Domain.spawn (fun () ->
              for _ = 1 to per_client do
                match Serve.Client.request_full addr2 ~meth:"GET" ~path:"/v1/healthz" with
                | 200, _, _ -> Atomic.incr ok
                | 503, hdrs, _ ->
                    if List.assoc_opt "retry-after" hdrs = None then Atomic.incr bad
                    else Atomic.incr shed
                | _, _, _ -> Atomic.incr bad
                | exception _ -> Atomic.incr bad
              done))
    in
    List.iter Domain.join doms;
    let ok = Atomic.get ok and shed = Atomic.get shed and bad = Atomic.get bad in
    if ok + shed + bad <> clients * per_client then begin
      Printf.printf "serve overload: FAILED (%d answers for %d requests)\n" (ok + shed + bad)
        (clients * per_client);
      Atomic.set failed true
    end;
    if bad > 0 then begin
      Printf.printf
        "serve overload: FAILED (%d responses were neither 200 nor 503-with-Retry-After)\n" bad;
      Atomic.set failed true
    end;
    if ok = 0 || shed = 0 then begin
      Printf.printf
        "serve overload: FAILED (degenerate mix: %d served, %d shed — overload must both \
         shed and keep serving)\n"
        ok shed;
      Atomic.set failed true
    end;
    (* server-side tail of the accepted requests (client-side numbers
       would fold in our own scheduler noise): /metrics .latency_ms *)
    let _, mbody = Serve.Client.request addr2 ~meth:"GET" ~path:"/v1/metrics" in
    let mj = Api.data (Json.of_string mbody) in
    let accepted_p95 =
      match
        Option.bind (Json.member "latency_ms" mj) (fun l ->
            Option.bind (Json.member "/healthz" l) (fun h ->
                Option.bind (Json.member "p95" h) jfloat))
      with
      | Some f -> f
      | None -> nan
    in
    if not (accepted_p95 < 5.) then begin
      Printf.printf "serve overload: FAILED (accepted p95 = %.2fms, budget 5ms)\n" accepted_p95;
      Atomic.set failed true
    end;
    let sheds_metric = jint mj [ "counters"; "overload.shed" ] in
    (* drain with one request mid-flight: the burst is over, so a lone
       client keeps issuing requests while we stop — every answer it
       already holds must be complete, and the server must abandon
       nothing *)
    let drained_ok = Atomic.make 0 and drained_dropped = Atomic.make 0 in
    let late_client =
      Domain.spawn (fun () ->
          let rec go n =
            if n = 0 then ()
            else
              match Serve.Client.request addr2 ~meth:"GET" ~path:"/v1/healthz" with
              | 200, _ -> Atomic.incr drained_ok; go (n - 1)
              | 503, _ -> go (n - 1)
              | _, _ -> Atomic.incr drained_dropped
              | exception _ ->
                  (* connect refused after the listener closed: not a
                     drop, the request was never accepted *)
                  ()
          in
          go 200)
    in
    Unix.sleepf 0.05;
    Serve.stop h2;
    Domain.join late_client;
    if Atomic.get drained_dropped > 0 then begin
      Printf.printf "serve overload: FAILED (%d accepted requests dropped by the drain)\n"
        (Atomic.get drained_dropped);
      Atomic.set failed true
    end;
    let abandoned = Ds_util.Metrics.counter (Serve.metrics srv2) "drain.abandoned" in
    if abandoned > 0 then begin
      Printf.printf "serve overload: FAILED (drain abandoned %d connections)\n" abandoned;
      Atomic.set failed true
    end;
    let fd_after = Ds_util.Fdcount.count () in
    if not (Ds_util.Fdcount.no_growth ~slack:2 ~before:fd_before ~after:fd_after ()) then begin
      Printf.printf "serve overload: FAILED (fd growth %d -> %d)\n" fd_before fd_after;
      Atomic.set failed true
    end;
    if not (Atomic.get failed) then
      Printf.printf
        "serve overload gate: %d served / %d shed of %d at 4x capacity, accepted p95 %.2fms, \
         fd %d -> %d, drain clean: OK\n"
        ok shed (clients * per_client) accepted_p95 fd_before fd_after;
    Json.Obj
      [
        ("clients", Json.Int clients);
        ("max_inflight", Json.Int limits.Serve.li_max_inflight);
        ("requests", Json.Int (clients * per_client));
        ("served", Json.Int ok);
        ("shed", Json.Int shed);
        ("shed_metric", Json.Int sheds_metric);
        ("accepted_p95_ms", Json.Float accepted_p95);
        ("drain_abandoned", Json.Int abandoned);
        ("drained_late_ok", Json.Int (Atomic.get drained_ok));
      ]
  in
  let rw_all = reservoir_of !warm_all in
  let _, _, _, warm_full_p95, _, _ = phase_cells rw_all in
  (* the headline warm metric: conditional revalidation at 1 client *)
  let rn1 = reservoir_of !cond_1client in
  let _, _, _, warm_p95, _, _ = phase_cells rn1 in
  let j =
    with_trajectory "BENCH_SERVE.json" ~metric:warm_p95
      [
        ("schema", Json.String "depsurf-bench-serve/2");
        ("scale", Json.String (if scale = Calibration.bench_scale then "bench" else "test"));
        ("warm_p95_ms", Json.Float warm_p95);
        ("warm_full_p95_ms", Json.Float warm_full_p95);
        ("levels", Json.List levels_json);
        ("overload", overload_json);
      ]
  in
  write_json_file "BENCH_SERVE.json" j;
  print_endline "(written to BENCH_SERVE.json)";
  (* hard gate: a warm conditional round-trip must be sub-5ms at 1
     client — the response cache plus 304 leaves only socket plumbing *)
  if warm_p95 >= 5. then begin
    Printf.printf "serve warm gate: FAILED (1-client conditional p95 = %.2fms, budget 5ms)\n"
      warm_p95;
    Atomic.set failed true
  end
  else Printf.printf "serve warm gate: 1-client conditional p95 = %.2fms < 5ms: OK\n" warm_p95;
  (* regression guard against the committed trajectory, like the
     pipeline's: >2x slower (and >1ms absolute) is a hard failure *)
  (match baseline with
  | None -> print_endline "(no BENCH_SERVE.json baseline; skipping regression check)"
  | Some (base_scale, base_p95) ->
      let this_scale = if scale = Calibration.bench_scale then "bench" else "test" in
      if base_scale <> this_scale then
        Printf.printf "(baseline BENCH_SERVE.json is at scale %s, this run is %s; regression \
                       check skipped)\n"
          base_scale this_scale
      else if warm_p95 > 2. *. base_p95 && warm_p95 -. base_p95 > 1. then begin
        Printf.printf
          "serve regression guard: FAILED (warm p95 %.2fms is >2x the baseline %.2fms)\n"
          warm_p95 base_p95;
        Atomic.set failed true
      end
      else
        Printf.printf "serve regression guard: warm p95 %.2fms vs baseline %.2fms: OK\n" warm_p95
          base_p95);
  if Atomic.get failed then begin
    print_endline "serve check: FAILED";
    exit 1
  end
  else
    print_endline
      "serve check: warm phases answered every repeat with 0 compiles, 0 store misses and 0 \
       index fills; single-flight hydration held under concurrency: OK"

(* ------------------------------------------------------------------ *)
(* Dependency graph: build determinism, warm load, closure latency,    *)
(* blast radius over the corpus                                        *)
(* ------------------------------------------------------------------ *)

module Graph = Ds_graph.Graph
module Blast = Ds_graph.Blast

let graph_bench () =
  section "Dependency graph: build, warm load, reverse-closure latency, blast radius";
  let failed = Atomic.make false in
  let v = Version.v 5 4 and cfg = Config.x86_generic in
  let s = x86 v in
  (* determinism: the pooled chunked build must produce the same bytes
     as the sequential one, whatever the chunking *)
  let g_seq, t_seq = time (fun () -> Graph.build s) in
  let g_par, t_par = time (fun () -> Graph.build ~pool s) in
  let b_seq = Graph.encode g_seq and b_par = Graph.encode g_par in
  Printf.printf "  %s: %d nodes, %d edges; build jobs=1 %.1fms, jobs=%d %.1fms\n"
    (Graph.tag g_par) (Graph.n_nodes g_par) (Graph.n_edges g_par) (t_seq *. 1000.) par_jobs
    (t_par *. 1000.);
  if String.equal b_seq b_par then
    print_endline "  graph determinism: jobs=1 and pooled encodings byte-identical: OK"
  else begin
    print_endline "  graph determinism: FAILED (pooled build differs from sequential)";
    Atomic.set failed true
  end;
  if not (String.equal (Graph.encode (Graph.decode b_par)) b_par) then begin
    print_endline "  graph codec: FAILED (decode . encode is not the identity)";
    Atomic.set failed true
  end;
  (* cold persist through of_dataset, then a warm probe the way a second
     process would come in: a fresh store handle on the same directory,
     a raw Store.find + decode, and build_count must not move *)
  let _, t_cold = time (fun () -> Graph.of_dataset ~pool ds v cfg) in
  let builds0 = Graph.build_count () in
  let store_w = Store.open_ ~dir:cache_dir () in
  let warm, t_warm =
    time (fun () ->
        Store.find store_w ~ns:Graph.ns ~key:(Graph.store_key ds v cfg) ~decode:Graph.decode)
  in
  let warm_rebuilds = Graph.build_count () - builds0 in
  (match warm with
  | Some g_warm when String.equal (Graph.encode g_warm) b_par && warm_rebuilds = 0 ->
      Printf.printf
        "  warm load: %.1fms from the store, 0 rebuilds, byte-identical to the cold build: OK\n"
        (t_warm *. 1000.)
  | Some _ ->
      Printf.printf
        "  warm load gate: FAILED (stored graph differs from the cold build, or %d rebuilds)\n"
        warm_rebuilds;
      Atomic.set failed true
  | None ->
      print_endline "  warm load gate: FAILED (no stored graph under the graph namespace)";
      Atomic.set failed true);
  (* warm reverse-closure latency: the serve/CLI hot-path unit *)
  let g = Graph.of_dataset ~pool ds v cfg in
  let probe =
    let d = Depset.Dep_func "vfs_fsync" in
    if Graph.mem g d then d
    else Depset.Dep_func (List.hd s.Surface.s_funcs).Surface.fe_name
  in
  let r = Stats.Reservoir.create () in
  for _ = 1 to 200 do
    let _, dt = time (fun () -> ignore (Graph.rclosure g probe)) in
    Stats.Reservoir.add r (dt *. 1000.)
  done;
  let rclosure_p95 = Stats.Reservoir.quantile r 0.95 in
  Printf.printf "  rclosure(%s): closure %d, p50 %.3fms, p95 %.3fms over 200 runs\n"
    (Depset.dep_to_string probe)
    (List.length (Graph.rclosure g probe))
    (Stats.Reservoir.quantile r 0.5) rclosure_p95;
  if rclosure_p95 >= 5. then begin
    Printf.printf "  rclosure gate: FAILED (warm p95 %.3fms, budget 5ms)\n" rclosure_p95;
    Atomic.set failed true
  end
  else Printf.printf "  rclosure gate: warm p95 %.3fms < 5ms: OK\n" rclosure_p95;
  (* blast radius: take symbols the release diffs actually changed and
     find one whose reverse closure reaches the corpus — the paper's
     "which programs break next release" question end to end *)
  let changed_funcs =
    List.concat_map
      (fun ((_, b), (d : Diff.t)) ->
        List.map (fun (n, _) -> (b, n)) d.Diff.df_funcs.Diff.d_changed
        @ List.map (fun n -> (b, n)) d.Diff.df_funcs.Diff.d_removed)
      (Lazy.force release_diffs)
  in
  let blast_hit =
    let rec go tries = function
      | [] -> None
      | _ when tries = 0 -> None
      | (release, name) :: rest -> (
          match Blast.query ~pool ds ~release (Depset.Dep_func name) with
          | Ok r when r.Blast.bl_affected <> [] -> Some r
          | _ -> go (tries - 1) rest)
    in
    go 25 changed_funcs
  in
  (match blast_hit with
  | Some r ->
      Printf.printf
        "  blast: %s in %s -> closure %d, %d corpus program(s) transitively affected: OK\n"
        (Depset.dep_to_string r.Blast.bl_node)
        (Version.to_string r.Blast.bl_release)
        r.Blast.bl_closure_size
        (List.length r.Blast.bl_affected)
  | None ->
      print_endline
        "  blast gate: FAILED (no changed symbol with a non-empty corpus blast radius in 25 \
         probes)";
      Atomic.set failed true);
  let open Json in
  let j =
    with_trajectory "BENCH_GRAPH.json" ~metric:rclosure_p95
      [
        ("schema", String "depsurf-bench-graph/1");
        ("scale", String (if scale = Calibration.bench_scale then "bench" else "test"));
        ("image", String (Graph.tag g_par));
        ("nodes", Int (Graph.n_nodes g_par));
        ("edges", Int (Graph.n_edges g_par));
        ("build_seq_ms", Float (t_seq *. 1000.));
        ("build_par_ms", Float (t_par *. 1000.));
        ("cold_of_dataset_ms", Float (t_cold *. 1000.));
        ("warm_load_ms", Float (t_warm *. 1000.));
        ("warm_rebuilds", Int warm_rebuilds);
        ("rclosure_p95_ms", Float rclosure_p95);
        ( "blast",
          match blast_hit with
          | None -> Null
          | Some r ->
              Obj
                [
                  ("node", String (Depset.dep_to_string r.Blast.bl_node));
                  ("release", String (Version.to_string r.Blast.bl_release));
                  ("closure_size", Int r.Blast.bl_closure_size);
                  ("affected", Int (List.length r.Blast.bl_affected));
                ] );
      ]
  in
  write_json_file "BENCH_GRAPH.json" j;
  print_endline "(written to BENCH_GRAPH.json)";
  if Atomic.get failed then begin
    print_endline "graph check: FAILED";
    exit 1
  end
  else
    print_endline
      "graph check: deterministic build, warm store load with 0 rebuilds, sub-5ms closures, \
       non-empty corpus blast radius: OK"

(* ------------------------------------------------------------------ *)
(* Verifier diagnostics: cold verify, warm decode-only re-verify, fuzz  *)
(* survival                                                             *)
(* ------------------------------------------------------------------ *)

module Verify = Ds_verify.Verify

let verify_bench () =
  section "Verifier diagnostics: cold verify, warm re-verify, fuzz survival";
  let failed = Atomic.make false in
  let v = Version.v 5 4 and cfg = Config.x86_generic in
  let obj =
    snd (List.find (fun ((p : T7.profile), _) -> p.T7.pr_name = "biotop") (Lazy.force corpus))
  in
  let bytes = Ds_bpf.Obj.write obj in
  let cold, t_cold = time (fun () -> Verify.of_dataset ds v cfg bytes) in
  Printf.printf "  %s: %d program(s), %d rejected; cold verify %.1fms\n" cold.Verify.rp_obj
    (List.length cold.Verify.rp_progs)
    (List.length (Verify.findings cold))
    (t_cold *. 1000.);
  if Verify.findings cold <> [] then begin
    print_endline "  clean-object gate: FAILED (corpus object rejected)";
    Atomic.set failed true
  end;
  (* warm re-verify the way a second process would come in: a fresh
     store handle on the same directory, a raw Store.find + decode, and
     build_count must not move — decode-only, zero recomputes *)
  let image = Ds_bpf.Vmlinux.tag (Dataset.vmlinux ds v cfg) in
  let key = Verify.store_key ds ~image ~digest:(Verify.digest bytes) in
  let builds0 = Atomic.get Verify.build_count in
  let store_w = Store.open_ ~dir:cache_dir () in
  let r = Stats.Reservoir.create () in
  let warm = ref None in
  for _ = 1 to 200 do
    let w, dt =
      time (fun () -> Store.find store_w ~ns:Verify.ns ~key ~decode:Verify.decode)
    in
    warm := w;
    Stats.Reservoir.add r (dt *. 1000.)
  done;
  let warm_recomputes = Atomic.get Verify.build_count - builds0 in
  let warm_p95 = Stats.Reservoir.quantile r 0.95 in
  (match !warm with
  | Some w when w = cold && warm_recomputes = 0 ->
      Printf.printf
        "  warm re-verify: p50 %.3fms, p95 %.3fms over 200 decode-only loads, 0 recomputes: OK\n"
        (Stats.Reservoir.quantile r 0.5) warm_p95
  | Some _ ->
      Printf.printf
        "  warm re-verify gate: FAILED (stored report differs from the cold verify, or %d \
         recomputes)\n"
        warm_recomputes;
      Atomic.set failed true
  | None ->
      print_endline "  warm re-verify gate: FAILED (no stored report under the verify namespace)";
      Atomic.set failed true);
  if warm_p95 >= 10. then begin
    Printf.printf "  warm re-verify gate: FAILED (p95 %.3fms, budget 10ms)\n" warm_p95;
    Atomic.set failed true
  end;
  (* fuzz survival: instruction-stream mutants per program plus
     whole-object mutants, all through the diagnostic pipeline — zero
     crashes, every rejection classified to a taxonomy rule *)
  let campaign =
    List.fold_left
      (fun acc prog -> Verify.merge acc (Verify.campaign_insns ~count:200 ~seed:42L prog))
      (Verify.campaign_obj ~count:200 ~seed:42L bytes)
      obj.Ds_bpf.Obj.o_progs
  in
  let crashed = List.length campaign.Verify.cp_crashed in
  let survival =
    100. *. float_of_int (campaign.Verify.cp_total - crashed)
    /. float_of_int campaign.Verify.cp_total
  in
  Printf.printf
    "  fuzz: %d mutants -> %d accepted, %d rejected across %d rule(s); survival %.1f%%, \
     unclassified %d\n"
    campaign.Verify.cp_total campaign.Verify.cp_accepted campaign.Verify.cp_rejected
    (List.length campaign.Verify.cp_rules)
    survival campaign.Verify.cp_unclassified;
  if crashed > 0 || campaign.Verify.cp_unclassified > 0 then begin
    Printf.printf
      "  fuzz gate: FAILED (%d crash(es), %d unclassified rejection(s); survival and \
       classification must be 100%%)\n"
      crashed campaign.Verify.cp_unclassified;
    Atomic.set failed true
  end
  else print_endline "  fuzz gate: 100% survival, every rejection classified: OK";
  let open Json in
  let j =
    with_trajectory "BENCH_VERIFY.json" ~metric:warm_p95
      [
        ("schema", String "depsurf-bench-verify/1");
        ("scale", String (if scale = Calibration.bench_scale then "bench" else "test"));
        ("image", String image);
        ("object", String cold.Verify.rp_obj);
        ("programs", Int (List.length cold.Verify.rp_progs));
        ("cold_verify_ms", Float (t_cold *. 1000.));
        ("warm_p95_ms", Float warm_p95);
        ("warm_recomputes", Int warm_recomputes);
        ("fuzz_mutants", Int campaign.Verify.cp_total);
        ("fuzz_rejected", Int campaign.Verify.cp_rejected);
        ("fuzz_crashed", Int crashed);
        ("fuzz_unclassified", Int campaign.Verify.cp_unclassified);
        ("fuzz_survival_pct", Float survival);
        ( "fuzz_rules",
          Obj (List.map (fun (id, n) -> (id, Int n)) campaign.Verify.cp_rules) );
      ]
  in
  write_json_file "BENCH_VERIFY.json" j;
  print_endline "(written to BENCH_VERIFY.json)";
  if Atomic.get failed then begin
    print_endline "verify check: FAILED";
    exit 1
  end
  else
    print_endline
      "verify check: clean corpus object accepted, warm re-verify decode-only with 0 \
       recomputes, 100% fuzz survival, every rejection classified: OK"

(* ------------------------------------------------------------------ *)
(* Release watch: warm delta ingest vs full re-extraction, O(changed)  *)
(* ops, long-poll notification latency over a live socket              *)
(* ------------------------------------------------------------------ *)

module Watch = Ds_watch.Watch

let watch_bench () =
  section "Release watch: delta ingest, O(changed) ops, long-poll latency";
  let failed = Atomic.make false in
  let v = Version.v 5 4 and cfg = Config.x86_generic in
  let base = (v, cfg) in
  let s = x86 v in
  let victim, next =
    match s.Surface.s_funcs with
    | f :: fs ->
        ( f.Surface.fe_name,
          Surface.v ~version:s.Surface.s_version ~arch:s.Surface.s_arch
            ~flavor:s.Surface.s_flavor ~gcc:s.Surface.s_gcc ~funcs:fs
            ~structs:s.Surface.s_structs ~tracepoints:s.Surface.s_tracepoints
            ~syscalls:s.Surface.s_syscalls )
    | [] -> failwith "bench surface has no funcs"
  in
  let payload = Codec.encode_surface next in
  let w = Watch.create ~pool ds in
  let bsub = Watch.subscribe w ~label:"bench" [ Depset.Dep_func victim ] in
  (* image ingest: the cold pass pays one full surface extraction, the
     warm pass must be decode-only — 0 extractions, served from the
     store's delta tier *)
  let img = Ds_elf.Elf.write (Dataset.image ds (Version.v 4 15) cfg) in
  let ex0 = Watch.extractions w in
  let r_cold, t_cold =
    time (fun () -> Watch.ingest w ~base ~name:"evolved" (`Image img))
  in
  let cold_extractions = Watch.extractions w - ex0 in
  (match r_cold with
  | Ok r when (not r.Watch.ig_warm) && cold_extractions = 1 ->
      Printf.printf "  cold image ingest: %.1fms, %d extraction, ops +%d -%d ~%d\n"
        (t_cold *. 1000.) cold_extractions r.Watch.ig_ops.Delta.dc_adds
        r.Watch.ig_ops.Delta.dc_removes r.Watch.ig_ops.Delta.dc_changes
  | Ok _ ->
      Printf.printf "  watch gate: FAILED (cold ingest warm=? extractions=%d)\n"
        cold_extractions;
      Atomic.set failed true
  | Error e ->
      Printf.printf "  watch gate: FAILED (cold ingest: %s)\n" e;
      Atomic.set failed true);
  let ex1 = Watch.extractions w in
  let r_warm, t_warm =
    time (fun () -> Watch.ingest w ~base ~name:"evolved" (`Image img))
  in
  let warm_extractions = Watch.extractions w - ex1 in
  (match r_warm with
  | Ok r when r.Watch.ig_warm && warm_extractions = 0 ->
      Printf.printf
        "  warm re-ingest gate: %.1fms vs %.1fms cold, 0 re-extractions: OK\n"
        (t_warm *. 1000.) (t_cold *. 1000.)
  | Ok r ->
      Printf.printf "  warm re-ingest gate: FAILED (warm=%b, %d extraction(s))\n"
        r.Watch.ig_warm warm_extractions;
      Atomic.set failed true
  | Error e ->
      Printf.printf "  warm re-ingest gate: FAILED (%s)\n" e;
      Atomic.set failed true);
  (* O(changed): a release that drops exactly one func must cost exactly
     one delta op (and no extraction at all for surface payloads), and
     its event must reach the subscription *)
  let one_ops, one_matched =
    match Watch.ingest w ~base ~name:"one-symbol" (`Surface payload) with
    | Ok r ->
        let c = r.Watch.ig_ops in
        ( c.Delta.dc_adds + c.Delta.dc_removes + c.Delta.dc_changes,
          List.exists (fun (e : Watch.event) -> e.Watch.ev_sub = bsub.Watch.sb_id)
            r.Watch.ig_events )
    | Error e ->
        Printf.printf "  one-symbol ingest: FAILED (%s)\n" e;
        Atomic.set failed true;
        (-1, false)
  in
  if one_ops = 1 && one_matched then
    print_endline "  O(changed) gate: one dropped func = 1 delta op, event delivered: OK"
  else begin
    Printf.printf "  O(changed) gate: FAILED (%d op(s), matched=%b)\n" one_ops one_matched;
    Atomic.set failed true
  end;
  (* byte-identical reconstruction through the wire format *)
  let d = Delta.diff_surfaces ~base:s next in
  let rebuilt = Delta.apply ~base:s (Delta.decode (Delta.encode d)) in
  if String.equal (Codec.encode_surface rebuilt) payload then
    print_endline "  reconstruction gate: apply(base, delta) byte-identical: OK"
  else begin
    print_endline "  reconstruction gate: FAILED (reconstructed surface differs)";
    Atomic.set failed true
  end;
  (* long-poll notification latency over a live unix socket: park a
     poller at the current cursor, ingest (warm), measure park-to-200.
     The budget is 50ms — wakeup is the on_change listener, not the
     accept loop's periodic sweep. *)
  let srv = Serve.create ~ds ~pool () in
  let sock = Filename.temp_file "depsurf-bench-watch" ".sock" in
  Sys.remove sock;
  let h = Serve.start srv (Serve.Unix_sock sock) in
  let addr = Serve.bound_addr h in
  let wsrv = Serve.watch srv in
  let lsub = Watch.subscribe wsrv [ Depset.Dep_func victim ] in
  let iters = 30 in
  let r_lat = Stats.Reservoir.create () in
  (try
     for i = 1 to iters do
       let since = Watch.cursor wsrv in
       let poller =
         Domain.spawn (fun () ->
             let status, _, _ =
               Serve.Client.request_full addr ~meth:"GET"
                 ~path:(Printf.sprintf "/v1/watch/%s?since=%d&wait=5" lsub.Watch.sb_id since)
             in
             (status, now ()))
       in
       let deadline = now () +. 2. in
       while Serve.parked_count srv = 0 && now () < deadline do
         Unix.sleepf 0.002
       done;
       if Serve.parked_count srv = 0 then begin
         Printf.printf "  long-poll gate: FAILED (poller %d never parked)\n" i;
         Atomic.set failed true
       end;
       let t0 = now () in
       let status, _, _ =
         Serve.Client.request_full ~body:payload addr ~meth:"POST"
           ~path:"/v1/watch/ingest?base=5.4-x86-generic&name=lp&kind=surface"
       in
       if status <> 200 then begin
         Printf.printf "  long-poll gate: FAILED (ingest %d -> %d)\n" i status;
         Atomic.set failed true
       end;
       let pstatus, t_recv = Domain.join poller in
       if pstatus <> 200 then begin
         Printf.printf "  long-poll gate: FAILED (poller %d -> %d)\n" i pstatus;
         Atomic.set failed true
       end;
       Stats.Reservoir.add r_lat (Float.max 0. (t_recv -. t0) *. 1000.)
     done
   with e ->
     Serve.stop h;
     raise e);
  Serve.stop h;
  let notify_p50 = Stats.Reservoir.quantile r_lat 0.5 in
  let notify_p95 = Stats.Reservoir.quantile r_lat 0.95 in
  Printf.printf "  long-poll delivery: p50 %.2fms, p95 %.2fms over %d parked polls\n"
    notify_p50 notify_p95 iters;
  if notify_p95 >= 50. then begin
    Printf.printf "  long-poll gate: FAILED (notification p95 %.2fms, budget 50ms)\n"
      notify_p95;
    Atomic.set failed true
  end
  else Printf.printf "  long-poll gate: notification p95 %.2fms < 50ms: OK\n" notify_p95;
  let open Json in
  let j =
    with_trajectory "BENCH_WATCH.json" ~metric:notify_p95
      [
        ("schema", String "depsurf-bench-watch/1");
        ("scale", String (if scale = Calibration.bench_scale then "bench" else "test"));
        ("base", String (Watch.image_name base));
        ("cold_image_ingest_ms", Float (t_cold *. 1000.));
        ("warm_image_ingest_ms", Float (t_warm *. 1000.));
        ("warm_extractions", Int warm_extractions);
        ("one_symbol_ops", Int one_ops);
        ("notify_p50_ms", Float notify_p50);
        ("notify_p95_ms", Float notify_p95);
        ("polls", Int iters);
      ]
  in
  write_json_file "BENCH_WATCH.json" j;
  print_endline "(written to BENCH_WATCH.json)";
  if Atomic.get failed then begin
    print_endline "watch check: FAILED";
    exit 1
  end
  else
    print_endline
      "watch check: warm delta ingest with 0 re-extractions, 1 op per dropped symbol, \
       byte-identical reconstruction, sub-50ms long-poll delivery: OK"

(* ------------------------------------------------------------------ *)

let () =
  (* the serve sections run clients and server in this process: a shed
     connection closed under a client's request write must surface as
     EPIPE, not kill the harness *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  Logs.set_reporter (Logs_fmt.reporter ());
  Logs.set_level (Some Logs.Warning);
  let t0 = now () in
  Printf.printf "DepSurf benchmark harness (seed %Ld, scale: %s)\n" (Dataset.seed ds)
    (if scale = Calibration.bench_scale then "bench (~1/25 of a real kernel)" else "test");
  pipeline_timing ();
  Printf.printf "\ndataset: %d images generated, compiled and parsed (evolve %.2fs)\n"
    (List.length Dataset.study_images) t_evolve;
  table1 env ();
  table2 ();
  table3 env ();
  table4 ();
  table5 ();
  table6 ();
  fig2 ();
  fig4 ();
  fig5 ();
  fig6 ();
  table7 env ();
  table8 ();
  special_functions ();
  ablation_scale ();
  ablation_core ();
  ablation_composition ();
  ablation_threshold ();
  perf ();
  robustness ();
  tracing ();
  store_timing ();
  serve_bench ();
  graph_bench ();
  verify_bench ();
  watch_bench ();
  Par.shutdown pool;
  Printf.printf "\ntotal: %.1fs\n" (now () -. t0)
