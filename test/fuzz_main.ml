(* The heavyweight fault-injection sweep behind the @fuzz alias: >=500
   seeded mutations against every study image, each driven through the
   full image -> surface pipeline in both modes, plus the same corpus
   against a representative BPF object. Exits non-zero when lenient
   raises, when strict raises anything but its typed exceptions, or
   when strict's verdict disagrees with lenient's health (strict must
   reject exactly the mutants lenient reports as degraded or fatal).
   `dune build @fuzz` runs it; the root @check alias includes it. *)

open Ds_ksrc
open Depsurf
module Faultgen = Ds_faultgen.Faultgen

let mutation_count =
  match Sys.getenv_opt "DEPSURF_FUZZ_COUNT" with
  | Some n -> int_of_string n
  | None -> 500

let seed = 42L

let surface_health bytes = Surface.health (Ds_util.Diag.ok (Surface.extract ~mode:`Lenient bytes))
let surface_strict bytes = ignore (Surface.extract bytes)

let surface_typed = function
  | Ds_elf.Elf.Bad_elf _ | Ds_btf.Btf.Bad_btf _ | Ds_dwarf.Info.Bad_dwarf _
  | Ds_bpf.Vmlinux.Bad_vmlinux _ ->
      true
  | _ -> false

let obj_health bytes = Ds_util.Diag.diags (Ds_bpf.Obj.read ~mode:`Lenient bytes)
let obj_strict bytes = ignore (Ds_bpf.Obj.read bytes)
let obj_typed = function Ds_bpf.Obj.Bad_obj _ -> true | _ -> false

let failures = ref 0

let fail label why =
  incr failures;
  Printf.printf "  FAIL %s: %s\n%!" label why

(* Lenient must not raise; strict must raise one of its typed
   exceptions exactly when lenient comes back degraded or fatal. *)
let check label ~typed strict health bytes =
  let outcome = Faultgen.classify health bytes in
  (match outcome with
  | Faultgen.Crashed e -> fail label ("lenient raised " ^ e)
  | Faultgen.Clean | Faultgen.Degraded | Faultgen.Fatal -> (
      let rejects = outcome <> Faultgen.Clean in
      match strict bytes with
      | () -> if rejects then fail label "lenient degraded, strict accepted"
      | exception e when typed e ->
          if not rejects then
            fail label ("strict raised " ^ Printexc.to_string e ^ ", lenient clean")
      | exception e -> fail label ("strict raised untyped " ^ Printexc.to_string e)));
  outcome

let check_clean label ~typed strict health bytes =
  if check label ~typed strict health bytes <> Faultgen.Clean then
    fail label "clean input reported diagnostics"

let sweep label ~typed strict health muts =
  let outcomes =
    List.map
      (fun (m : Faultgen.mutation) ->
        check (label ^ " " ^ m.mut_name) ~typed strict health m.mut_bytes)
      muts
  in
  let n o = List.length (List.filter o outcomes) in
  Printf.printf "%-28s total %4d  clean %4d  degraded %4d  fatal %4d  crashed %d\n%!" label
    (List.length muts)
    (n (( = ) Faultgen.Clean))
    (n (( = ) Faultgen.Degraded))
    (n (( = ) Faultgen.Fatal))
    (n (function Faultgen.Crashed _ -> true | _ -> false))

let () =
  let ds = Dataset.build ~seed Calibration.test_scale in
  List.iter
    (fun (v, cfg) ->
      let label =
        Printf.sprintf "%s/%s" (Version.to_string v) (Config.to_string cfg)
      in
      let bytes = Ds_elf.Elf.write (Dataset.image ds v cfg) in
      check_clean label ~typed:surface_typed surface_strict surface_health bytes;
      let muts = Faultgen.mutations ~count:mutation_count ~seed bytes in
      sweep label ~typed:surface_typed surface_strict surface_health muts)
    Dataset.study_images;
  (* one representative BPF object through the same corpus *)
  (match Ds_corpus.Table7.find "biotop" with
  | None ->
      incr failures;
      print_endline "corpus tool biotop missing"
  | Some profile ->
      let v54 = Version.v 5 4 in
      let pools = Ds_corpus.Pools.compute ds () in
      let spec = Ds_corpus.Corpus.spec_for pools profile in
      let k = Ds_util.Diag.ok (Ds_bpf.Vmlinux.load (Dataset.image ds v54 Config.x86_generic)) in
      let obj =
        Ds_bpf.Progbuild.build ~build_btf:k.Ds_bpf.Vmlinux.v_btf ~build_arch:Config.X86
          ~tag:(Ds_bpf.Vmlinux.tag k) spec
      in
      let bytes = Ds_bpf.Obj.write obj in
      check_clean "bpf object biotop" ~typed:obj_typed obj_strict obj_health bytes;
      let muts = Faultgen.mutations ~count:mutation_count ~seed bytes in
      sweep "bpf object biotop" ~typed:obj_typed obj_strict obj_health muts);
  if !failures > 0 then begin
    Printf.printf "FUZZ FAILED: %d failure(s)\n" !failures;
    exit 1
  end
  else print_endline "fuzz: all mutations survived with typed diagnostics; strict agreed"
