(* Fault-injection tests for the lenient ingestion path: mutated images
   must never escape an uncaught exception, anything lost must surface
   as a typed diagnostic, and a clean image must come out byte-identical
   to the strict path. The heavyweight >=500-mutation-per-image sweep
   lives in fuzz_main.ml under the @fuzz alias; this suite keeps the
   structured corpus and exhaustive header sweeps inside `dune runtest`. *)

open Ds_util
open Ds_elf
open Ds_ksrc
open Depsurf
module Faultgen = Ds_faultgen.Faultgen

let v54 = Version.v 5 4
let image_bytes = lazy (Elf.write (Testenv.image v54))

let section name =
  match Elf.find_section (Testenv.image v54) name with
  | Some s -> s.Elf.sec_data
  | None -> Alcotest.fail ("study image lacks " ^ name)

(* health functions for Faultgen.classify, one per pipeline level *)
let elf_health bytes = Ds_util.Diag.diags (Elf.read ~mode:`Lenient bytes)
let btf_health bytes = Ds_util.Diag.diags (Ds_btf.Btf.decode ~mode:`Lenient bytes)
let surface_health bytes = Surface.health (Ds_util.Diag.ok (Surface.extract ~mode:`Lenient bytes))
let obj_health bytes = Ds_util.Diag.diags (Ds_bpf.Obj.read ~mode:`Lenient bytes)

let no_crash name health bytes =
  match Faultgen.classify health bytes with
  | Faultgen.Crashed e -> Alcotest.fail (Printf.sprintf "%s crashed: %s" name e)
  | Faultgen.Clean | Faultgen.Degraded | Faultgen.Fatal -> ()

(* Flip every bit of the first [limit] bytes and feed each mutant to
   both modes: lenient must not raise at all, strict must raise only
   the parser's typed exception (never a bare Invalid_argument or
   Failure from a raw read). *)
let sweep_header ~limit ~health ~strict_ok data =
  let limit = min limit (String.length data) in
  for byte = 0 to limit - 1 do
    for bit = 0 to 7 do
      let m = Faultgen.flip_bit data ~byte ~bit in
      let name = Printf.sprintf "flip %d.%d" byte bit in
      no_crash name health m;
      match strict_ok m with
      | () -> ()
      | exception e ->
          Alcotest.fail
            (Printf.sprintf "%s: strict raised untyped %s" name (Printexc.to_string e))
    done
  done

let test_elf_header_sweep () =
  let data = Lazy.force image_bytes in
  sweep_header ~limit:64 ~health:elf_health data ~strict_ok:(fun m ->
      match Elf.read m with
      | _ -> ()
      | exception Elf.Bad_elf _ | (exception Bytesio.Truncated _) -> ())

let test_btf_header_sweep () =
  let data = section ".BTF" in
  sweep_header ~limit:24 ~health:btf_health data ~strict_ok:(fun m ->
      match Ds_btf.Btf.decode m with
      | _ -> ()
      | exception Ds_btf.Btf.Bad_btf _ | (exception Bytesio.Truncated _) -> ())

let test_dwarf_header_sweep () =
  let info = section ".debug_info" in
  let abbrev = section ".debug_abbrev" in
  (* unit header is 11 bytes; sweep past it into the first DIEs *)
  let sweep_info m = Ds_util.Diag.diags (Ds_dwarf.Info.decode ~mode:`Lenient ~info:m ~abbrev ())
  and sweep_abbrev m = Ds_util.Diag.diags (Ds_dwarf.Info.decode ~mode:`Lenient ~info ~abbrev:m ()) in
  let strict_ok decode m =
    match decode m with
    | _ -> ()
    | exception Ds_dwarf.Die.Bad_dwarf _ | (exception Bytesio.Truncated _) -> ()
  in
  sweep_header ~limit:32 ~health:sweep_info info
    ~strict_ok:(strict_ok (fun m -> ignore (Ds_dwarf.Info.decode ~info:m ~abbrev ())));
  sweep_header ~limit:32 ~health:sweep_abbrev abbrev
    ~strict_ok:(strict_ok (fun m -> ignore (Ds_dwarf.Info.decode ~info ~abbrev:m ())))

(* The full structured corpus (boundary truncations, zeroed/corrupted
   section headers, bogus string-table indices...) through the complete
   image -> surface pipeline: zero crashes, and every non-clean outcome
   is backed by at least one typed diagnostic. *)
let test_structured_corpus_pipeline () =
  let data = Lazy.force image_bytes in
  let muts = Faultgen.mutations ~count:0 ~seed:Testenv.seed data in
  Alcotest.(check bool) "corpus non-trivial" true (List.length muts > 50);
  let tally, crashed = Faultgen.survey surface_health muts in
  List.iter
    (fun (name, e) -> Printf.eprintf "crashed %s: %s\n" name e)
    crashed;
  Alcotest.(check int) "zero crashes" 0 tally.Faultgen.n_crashed;
  (* the corpus must actually exercise both failure classes: zeroed
     debug sections degrade, header truncations are fatal *)
  Alcotest.(check bool) "some mutations degrade" true (tally.Faultgen.n_degraded > 0);
  Alcotest.(check bool) "some mutations are fatal" true (tally.Faultgen.n_fatal > 0)

let test_obj_structured_corpus () =
  let obj = Test_bpf.build_obj ~v:v54 Test_bpf.biotop_spec in
  let data = Ds_bpf.Obj.write obj in
  let muts = Faultgen.mutations ~count:100 ~seed:Testenv.seed data in
  let tally, crashed = Faultgen.survey obj_health muts in
  List.iter
    (fun (name, e) -> Printf.eprintf "crashed %s: %s\n" name e)
    crashed;
  Alcotest.(check int) "zero crashes" 0 tally.Faultgen.n_crashed

(* ------------------------------------------------------------------ *)
(* Golden: clean images unchanged by the lenient machinery             *)
(* ------------------------------------------------------------------ *)

let test_clean_image_zero_diags () =
  let s = Ds_util.Diag.ok (Surface.extract ~mode:`Lenient (Lazy.force image_bytes)) in
  Alcotest.(check int) "no diagnostics" 0 (List.length (Surface.health s));
  Alcotest.(check bool) "not degraded" false (Surface.degraded s)

let test_clean_lenient_equals_strict () =
  let data = Lazy.force image_bytes in
  let lenient = Ds_util.Diag.ok (Surface.extract ~mode:`Lenient data) in
  let strict = Ds_util.Diag.ok (Surface.extract data) in
  Alcotest.(check string) "identical export JSON"
    (Json.to_string (Export.surface strict))
    (Json.to_string (Export.surface lenient))

let test_determinism () =
  let data = Lazy.force image_bytes in
  (* ask for more than the structured base so the seeded random tail is
     actually exercised *)
  let count = List.length (Faultgen.mutations ~count:0 ~seed:7L data) + 25 in
  let a = Faultgen.mutations ~count ~seed:7L data in
  let b = Faultgen.mutations ~count ~seed:7L data in
  let c = Faultgen.mutations ~count ~seed:8L data in
  Alcotest.(check int) "count honoured" count (List.length a);
  Alcotest.(check bool) "same seed, same corpus" true (a = b);
  Alcotest.(check bool) "different seed, different flips" true (a <> c)

(* ------------------------------------------------------------------ *)
(* Random mutations (structure-blind)                                  *)
(* ------------------------------------------------------------------ *)

let qcheck_random_flip_no_crash =
  QCheck.Test.make ~name:"random bit flip never crashes surface extraction" ~count:40
    QCheck.(pair (int_bound 1_000_000) (int_bound 7))
    (fun (pos, bit) ->
      let data = Lazy.force image_bytes in
      let m = Faultgen.flip_bit data ~byte:(pos mod String.length data) ~bit in
      match Faultgen.classify surface_health m with
      | Faultgen.Crashed _ -> false
      | _ -> true)

let qcheck_random_truncation_no_crash =
  QCheck.Test.make ~name:"random truncation never crashes surface extraction" ~count:40
    QCheck.(int_bound 1_000_000)
    (fun len ->
      let data = Lazy.force image_bytes in
      let m = Faultgen.truncate data ~len:(len mod (String.length data + 1)) in
      match Faultgen.classify surface_health m with
      | Faultgen.Crashed _ -> false
      | _ -> true)

let qcheck_garbage_input_fatal_not_crash =
  QCheck.Test.make ~name:"arbitrary bytes yield a diagnostic, not a crash" ~count:50
    QCheck.(string_of_size (QCheck.Gen.int_range 0 4096))
    (fun data ->
      match Faultgen.classify surface_health data with
      | Faultgen.Crashed _ -> false
      | Faultgen.Clean ->
          (* only the empty prefix of a valid image could be clean, and
             arbitrary bytes never are: garbage must carry a diagnostic *)
          false
      | Faultgen.Degraded | Faultgen.Fatal -> true)

(* A degraded surface must be visible in the mismatch report: the image
   row (and the legend) carry the [~] marker end-to-end, from
   [Surface.s_health] through [Report.matrix_of_surfaces] to the
   rendered matrix — the same path [depsurf serve]'s /mismatch uses. *)
let test_degraded_matrix_marker () =
  let ds = Dataset.build ~seed:Testenv.seed Calibration.test_scale in
  let obj =
    snd
      (List.find
         (fun ((p : Ds_corpus.Table7.profile), _) -> p.pr_name = "biotop")
         (Ds_corpus.Corpus.build_all ds ()))
  in
  let base_img = (Version.v 5 4, Config.x86_generic) in
  let target_img = (Version.v 4 4, Config.x86_generic) in
  let base = Dataset.surface ds (fst base_img) (snd base_img) in
  let clean_target = Dataset.surface ds (fst target_img) (snd target_img) in
  let degraded_target =
    Surface.with_health
      [ Diag.v Diag.Degraded ~component:"surface" "dwarf section truncated" ]
      clean_target
  in
  let render target =
    Report.render_matrix
      (Report.matrix_of_surfaces
         ~baseline:(base_img, base)
         ~targets:[ (target_img, target) ]
         obj)
  in
  let clean_report = render clean_target in
  let degraded_report = render degraded_target in
  let contains hay needle =
    let nl = String.length needle and hl = String.length hay in
    let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "degraded row marked" true (contains degraded_report "~ v4.4");
  Alcotest.(check bool) "legend explains the marker" true
    (contains degraded_report "~ degraded image");
  Alcotest.(check bool) "clean row unmarked" false (contains clean_report "~ v4.4");
  Alcotest.(check bool) "clean legend unmarked" false (contains clean_report "~ degraded image");
  (* apart from the marker and legend, the statuses are the same: a
     degraded image changes presentation, never the analysis *)
  Alcotest.(check bool) "same width modulo marker" true
    (String.length degraded_report >= String.length clean_report)

(* ------------------------------------------------------------------ *)
(* Lenient mode on damaged input                                       *)
(* ------------------------------------------------------------------ *)

(* what the retired *_lenient entrypoints were checked against, asserted
   on [~mode:`Lenient] itself: damage becomes diagnostics, what parses is
   kept, and the surface's health carries the ELF reader's findings *)
let test_lenient_damaged_input () =
  let data = Lazy.force image_bytes in
  (* the first header bit flip the ELF reader survives with a loss *)
  let m =
    let rec go i =
      if i >= 64 * 8 then Alcotest.fail "no degrading header flip"
      else
        let m = Faultgen.flip_bit data ~byte:(i / 8) ~bit:(i mod 8) in
        match Faultgen.classify elf_health m with Faultgen.Degraded -> m | _ -> go (i + 1)
    in
    go 0
  in
  let strings ds = List.map Diag.to_string ds in
  let elf = Elf.read ~mode:`Lenient m in
  Alcotest.(check bool) "elf image re-encodes" true
    (String.length (Elf.write (Diag.ok elf)) > 0);
  let health = surface_health m in
  let elf_diags = strings (Diag.diags elf) in
  Alcotest.(check (list string)) "surface health starts with the elf diags" elf_diags
    (List.filteri (fun i _ -> i < List.length elf_diags) (strings health));
  Alcotest.(check bool) "btf stub diags" true (btf_health "\x9f\xeb\x01\x00" <> []);
  let dwarf = Ds_dwarf.Info.decode ~mode:`Lenient ~info:"\x01" ~abbrev:"" () in
  Alcotest.(check int) "dwarf stub: no cus" 0 (List.length (Diag.ok dwarf));
  Alcotest.(check bool) "dwarf stub diags" true (Diag.diags dwarf <> [])

let suites =
  [
    ( "fault",
      [
        Alcotest.test_case "elf header sweep" `Quick test_elf_header_sweep;
        Alcotest.test_case "btf header sweep" `Quick test_btf_header_sweep;
        Alcotest.test_case "dwarf header sweep" `Quick test_dwarf_header_sweep;
        Alcotest.test_case "structured corpus, full pipeline" `Slow
          test_structured_corpus_pipeline;
        Alcotest.test_case "bpf object structured corpus" `Quick test_obj_structured_corpus;
        Alcotest.test_case "clean image: zero diagnostics" `Quick test_clean_image_zero_diags;
        Alcotest.test_case "clean image: lenient == strict" `Quick
          test_clean_lenient_equals_strict;
        Alcotest.test_case "corpus determinism" `Quick test_determinism;
        Alcotest.test_case "degraded matrix carries ~ marker" `Quick
          test_degraded_matrix_marker;
        QCheck_alcotest.to_alcotest qcheck_random_flip_no_crash;
        QCheck_alcotest.to_alcotest qcheck_random_truncation_no_crash;
        QCheck_alcotest.to_alcotest qcheck_garbage_input_fatal_not_crash;
        Alcotest.test_case "lenient mode on damaged input" `Quick test_lenient_damaged_input;
      ] );
  ]
