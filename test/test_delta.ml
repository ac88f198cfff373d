(* The delta tier: a release surface stored as base-reference +
   per-symbol ops. The load-bearing guarantee is byte-identity —
   [Codec.encode_surface (apply ~base (diff_surfaces ~base next))] must
   equal the non-delta encoding of [next] — property-tested across the
   release corpus and under random section perturbations. *)

open Ds_ksrc
open Depsurf

let ds = lazy (Dataset.build ~seed:Testenv.seed Calibration.test_scale)

let surfaces =
  lazy
    (List.map
       (fun (v, cfg) -> Dataset.surface (Lazy.force ds) v cfg)
       Dataset.study_images)

(* consecutive release pairs per config: the deltas the store would hold *)
let pairs =
  lazy
    (let images = Dataset.study_images in
     List.filter_map
       (fun (v, cfg) ->
         let next =
           List.find_opt
             (fun (v', cfg') -> cfg' = cfg && Version.compare v v' < 0)
             (List.sort
                (fun (a, _) (b, _) -> Version.compare a b)
                (List.filter (fun (_, cfg') -> cfg' = cfg) images))
         in
         Option.map
           (fun (v', _) ->
             let ds = Lazy.force ds in
             (Dataset.surface ds v cfg, Dataset.surface ds v' cfg))
           next)
       images)

let check_identity name base next =
  let d = Delta.diff_surfaces ~base next in
  let wire = Delta.encode d in
  let d' = Delta.decode wire in
  (* a cold watch ingest uses the delta it computed, a warm one the
     decoded entry: both must be the same value *)
  Alcotest.(check bool) (name ^ ": decode inverts encode") true (d' = d);
  let rebuilt = Delta.apply ~base d' in
  Alcotest.(check bool)
    (name ^ ": byte-identical reconstruction")
    true
    (Codec.encode_surface rebuilt = Codec.encode_surface next);
  (* the wire form itself roundtrips *)
  Alcotest.(check bool) (name ^ ": wire roundtrip") true (Delta.encode d' = wire)

let test_corpus_identity () =
  let pairs = Lazy.force pairs in
  Alcotest.(check bool) "corpus has release pairs" true (pairs <> []);
  List.iteri
    (fun i (base, next) ->
      check_identity (Printf.sprintf "pair %d" i) base next)
    pairs

let test_self_delta () =
  List.iter
    (fun s ->
      let d = Delta.diff_surfaces ~base:s s in
      let c = Delta.counts d in
      Alcotest.(check int) "no adds" 0 c.Delta.dc_adds;
      Alcotest.(check int) "no removes" 0 c.Delta.dc_removes;
      Alcotest.(check int) "no changes" 0 c.Delta.dc_changes;
      Alcotest.(check bool) "identity applies" true
        (Codec.encode_surface (Delta.apply ~base:s d) = Codec.encode_surface s))
    (Lazy.force surfaces)

(* the delta-derived diff must agree with the full two-surface diff —
   same populations, same change detection, section by section *)
let test_to_diff_agrees () =
  List.iter
    (fun (base, next) ->
      let full = Diff.compare_surfaces Diff.Across_versions base next in
      let d = Delta.diff_surfaces ~base next in
      let derived = Delta.to_diff ~base d in
      let check_sec name (a : _ Diff.item_diff) (b : _ Diff.item_diff) =
        Alcotest.(check (list string)) (name ^ " added") a.Diff.d_added b.Diff.d_added;
        Alcotest.(check (list string)) (name ^ " removed") a.Diff.d_removed b.Diff.d_removed;
        Alcotest.(check (list string))
          (name ^ " changed")
          (List.map fst a.Diff.d_changed)
          (List.map fst b.Diff.d_changed);
        Alcotest.(check int) (name ^ " common") a.Diff.d_common b.Diff.d_common
      in
      check_sec "funcs" full.Diff.df_funcs derived.Diff.df_funcs;
      check_sec "structs" full.Diff.df_structs derived.Diff.df_structs;
      check_sec "tracepoints" full.Diff.df_tracepoints derived.Diff.df_tracepoints;
      check_sec "syscalls" full.Diff.df_syscalls derived.Diff.df_syscalls)
    (Lazy.force pairs)

let test_wrong_base_rejected () =
  match Lazy.force pairs with
  | [] -> Alcotest.fail "no pairs"
  | (base, next) :: _ ->
      let d = Delta.diff_surfaces ~base next in
      (* applying to the surface the delta produces, instead of the one
         it was computed against, is a corrupt store entry *)
      (match Delta.apply ~base:next d with
      | _ -> Alcotest.fail "wrong base accepted"
      | exception Codec.Decode_error _ -> ())

let test_truncation_rejected () =
  match Lazy.force pairs with
  | [] -> Alcotest.fail "no pairs"
  | (base, next) :: _ ->
      let wire = Delta.encode (Delta.diff_surfaces ~base next) in
      let truncated = String.sub wire 0 (String.length wire - 1) in
      (match Delta.decode truncated with
      | _ -> Alcotest.fail "truncated delta decoded"
      | exception _ -> ());
      (* trailing junk is as corrupt as missing bytes *)
      match Delta.decode (wire ^ "\x00") with
      | _ -> Alcotest.fail "oversized delta decoded"
      | exception _ -> ()

(* O(changed): dropping exactly one func and one syscall costs exactly
   two ops, never a resync of the untouched sections *)
let test_ops_proportional () =
  let s = List.hd (Lazy.force surfaces) in
  match (s.Surface.s_funcs, s.Surface.s_syscalls) with
  | f :: fs, _ :: sys ->
      let next =
        Surface.v ~version:s.Surface.s_version ~arch:s.Surface.s_arch
          ~flavor:s.Surface.s_flavor ~gcc:s.Surface.s_gcc ~funcs:fs
          ~structs:s.Surface.s_structs ~tracepoints:s.Surface.s_tracepoints
          ~syscalls:sys
      in
      let d = Delta.diff_surfaces ~base:s next in
      let c = Delta.counts d in
      Alcotest.(check int) "two removes" 2 c.Delta.dc_removes;
      Alcotest.(check int) "no adds" 0 c.Delta.dc_adds;
      Alcotest.(check int) "no changes" 0 c.Delta.dc_changes;
      Alcotest.(check bool) "func removal surfaces as a dep" true
        (List.mem (Depset.Dep_func f.Surface.fe_name) (Delta.changed_deps d));
      check_identity "one-symbol" s next
  | _ -> Alcotest.fail "test surface has no funcs/syscalls"

let test_changed_deps_excludes_adds () =
  let s = List.hd (Lazy.force surfaces) in
  match s.Surface.s_funcs with
  | f :: fs ->
      (* base lacks [f]; the next surface adds it back: no dep changes *)
      let base =
        Surface.v ~version:s.Surface.s_version ~arch:s.Surface.s_arch
          ~flavor:s.Surface.s_flavor ~gcc:s.Surface.s_gcc ~funcs:fs
          ~structs:s.Surface.s_structs ~tracepoints:s.Surface.s_tracepoints
          ~syscalls:s.Surface.s_syscalls
      in
      let d = Delta.diff_surfaces ~base s in
      let c = Delta.counts d in
      Alcotest.(check int) "one add" 1 c.Delta.dc_adds;
      Alcotest.(check bool) "adds are not breaking deps" false
        (List.mem (Depset.Dep_func f.Surface.fe_name) (Delta.changed_deps d))
  | _ -> Alcotest.fail "test surface has no funcs"

(* random perturbations: drop a seeded subset of every section and check
   the reconstruction invariant holds for surfaces the corpus never
   produces naturally *)
let qcheck_perturbed_identity =
  QCheck.Test.make ~name:"apply (diff base next) is byte-identical for perturbed next"
    ~count:40
    QCheck.(pair (int_range 0 1000) (int_range 0 2))
    (fun (seed, which) ->
      let surfaces = Lazy.force surfaces in
      let s = List.nth surfaces (which mod List.length surfaces) in
      let st = Random.State.make [| seed; which |] in
      let keep l = List.filter (fun _ -> Random.State.int st 4 <> 0) l in
      let next =
        Surface.v ~version:s.Surface.s_version ~arch:s.Surface.s_arch
          ~flavor:s.Surface.s_flavor ~gcc:s.Surface.s_gcc
          ~funcs:(keep s.Surface.s_funcs)
          ~structs:(keep s.Surface.s_structs)
          ~tracepoints:(keep s.Surface.s_tracepoints)
          ~syscalls:(keep s.Surface.s_syscalls)
      in
      let d = Delta.diff_surfaces ~base:s next in
      let rebuilt = Delta.apply ~base:s (Delta.decode (Delta.encode d)) in
      Codec.encode_surface rebuilt = Codec.encode_surface next)

let suites =
  [
    ( "delta",
      [
        Alcotest.test_case "corpus byte-identity" `Quick test_corpus_identity;
        Alcotest.test_case "self delta is empty" `Quick test_self_delta;
        Alcotest.test_case "to_diff agrees with compare_surfaces" `Quick test_to_diff_agrees;
        Alcotest.test_case "wrong base rejected" `Quick test_wrong_base_rejected;
        Alcotest.test_case "truncation rejected" `Quick test_truncation_rejected;
        Alcotest.test_case "ops proportional to change" `Quick test_ops_proportional;
        Alcotest.test_case "adds excluded from changed deps" `Quick
          test_changed_deps_excludes_adds;
        QCheck_alcotest.to_alcotest qcheck_perturbed_identity;
      ] );
  ]
