(* The paper harness: regenerates every table and figure of the paper's
   evaluation from the synthetic 25-image dataset, plus the ablations
   called out in DESIGN.md, then runs Bechamel micro-benchmarks for the
   §3.4 performance claims and the 5% tracing-overhead gate. Throughput
   and latency of the pipeline, the store and the server are measured by
   bench/perf, not here.

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

let now = Unix.gettimeofday
let time f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

let ds, t_evolve = time (fun () -> Pipeline.dataset scale)
let pool = Par.create ()
let cached = Pipeline.cached ~pool ds
let x86 v = Dataset.surface ds v Config.x86_generic
let section title = Printf.printf "\n%s\n%s\n\n" title (String.make (String.length title) '=')
let pct = Texttable.pct
let count = Texttable.count

(* Shared computations, memoized across sections ([cached] likewise
   computes each diff fan-out once, through the pool). *)
let corpus = lazy (Ds_corpus.Corpus.build_all ds ())
let corpus_analysis = lazy (Ds_corpus.Corpus.analyze_all_matrices ds ~pool (Lazy.force corpus))

(* ------------------------------------------------------------------ *)
(* Table 3                                                              *)
(* ------------------------------------------------------------------ *)

let rates_row (d : 'c Diff.item_diff) old_total =
  ( Stats.percent (List.length d.Diff.d_added) old_total,
    Stats.percent (List.length d.Diff.d_removed) old_total,
    Stats.percent (List.length d.Diff.d_changed) old_total )

let table3 () =
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
        let fo, so, tpo, _ = Surface.counts (x86 a) in
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
    let last = x86 (Version.v 6 8) in
    let f, s, tp, _ = Surface.counts last in
    Texttable.row t
      [ "v6.8 (#)"; count f; "-"; "-"; "-"; count s; "-"; "-"; "-"; count tp; "-"; "-"; "-" ];
    print_string (Texttable.render t)
  in
  emit "across LTS versions (paper maxima: fn +24/-10/C6, st +24/-4/C18, tp +39/-5/C16)"
    (Pipeline.lts_diffs cached);
  print_newline ();
  emit "across consecutive releases" (Pipeline.release_diffs cached)

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
  let bks = List.map (fun (_, d) -> Diff.breakdown d) (Pipeline.lts_diffs cached) in
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
  let cfg_diffs = Pipeline.config_diffs cached in
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

let table1 () =
  section "Table 1: summary of dependency mismatches";
  let lts = List.map snd (Pipeline.lts_diffs cached) in
  let cfgs = List.map snd (Pipeline.config_diffs cached) in
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
  let s54 = x86 (Version.v 5 4) in
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

let table7 () =
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
    (Lazy.force corpus_analysis);
  print_string (Texttable.render t);
  print_endline "(columns: S=total, a=absent somewhere, c=changed; F/S/T/D as in Fig. 4)";
  let impacted =
    List.length
      (List.filter (fun (_, _, s) -> not (Report.clean s)) (Lazy.force corpus_analysis))
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
  let d_lts = List.assoc (Version.v 4 4, Version.v 4 15) (Pipeline.lts_diffs cached) in
  let singles =
    List.filter
      (fun ((a, _), _) ->
        Version.compare a (Version.v 4 4) >= 0 && Version.compare a (Version.v 4 15) < 0)
      (Pipeline.release_diffs cached)
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
  (* Adjacent on/off pairs, alternating which side runs first. The
     process heap drifts across a long bench run (major-GC state moves
     extraction times by 10-20% between sections), so only a pair shares
     one noise environment; the median of the per-pair ratios then
     discards the pairs a GC slice or a scheduler stall landed in. *)
  Gc.compact ();
  let pairs = 100 in
  let ratios =
    Array.init pairs (fun i ->
        let on, off =
          if i mod 2 = 0 then
            let off = time1 workload in
            (run_on (), off)
          else
            let on = run_on () in
            (on, time1 workload)
        in
        on /. Float.max 1e-9 off)
  in
  Array.sort Float.compare ratios;
  let quartile k = ratios.(k * (pairs - 1) / 4) in
  let overhead_pct = (quartile 2 -. 1.) *. 100. in
  Printf.printf "  extraction: tracing on/off, median of %d pair ratios %+.1f%% (IQR %.1f points)\n"
    pairs overhead_pct
    ((quartile 3 -. quartile 1) *. 100.);
  let sps = Trace.spans () in
  let dropped = Trace.drops () in
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
  if overhead_pct > 5. || not nested_ok || missing <> [] then begin
    Printf.printf "tracing check: FAILED (overhead %+.1f%%, budget 5%%)\n" overhead_pct;
    exit 1
  end
  else
    Printf.printf
      "tracing check: enabled tracing cost %+.1f%% (< 5%% budget), spans well nested: OK\n"
      overhead_pct
(* ------------------------------------------------------------------ *)

let () =
  Logs.set_reporter (Logs_fmt.reporter ());
  Logs.set_level (Some Logs.Warning);
  let t0 = now () in
  Printf.printf "DepSurf benchmark harness (seed %Ld, scale: %s)\n" (Dataset.seed ds)
    (if scale = Calibration.bench_scale then "bench (~1/25 of a real kernel)" else "test");
  Printf.printf "\ndataset: %d study images (evolve %.2fs)\n"
    (List.length Dataset.study_images) t_evolve;
  table1 ();
  table2 ();
  table3 ();
  table4 ();
  table5 ();
  table6 ();
  fig2 ();
  fig4 ();
  fig5 ();
  fig6 ();
  table7 ();
  table8 ();
  special_functions ();
  ablation_scale ();
  ablation_core ();
  ablation_composition ();
  ablation_threshold ();
  perf ();
  tracing ();
  Par.shutdown pool;
  Printf.printf "\ntotal: %.1fs\n" (now () -. t0)
