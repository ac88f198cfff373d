(* The seeded bytecode-fuzz campaigns behind the @verify-fuzz alias:
   every program of the 53-tool corpus has its encoded instruction
   stream mutated (structured per-field mutants + truncations, splices
   and random flips), and every tool's whole object bytes mutated, with
   each mutant driven through the verifier's diagnostic pipeline. Gates:
   zero uncaught exceptions, and every rejection classifies to a closed
   taxonomy rule carrying a suggestion — no "unclassified" escapes.
   `dune build @verify-fuzz` runs it; the root @check alias includes
   it. *)

open Ds_ksrc
module V = Ds_verify.Verify

let mutation_count =
  match Sys.getenv_opt "DEPSURF_FUZZ_COUNT" with
  | Some n -> int_of_string n
  | None -> 500

let seed = 42L
let failures = ref 0

let report label c =
  Printf.printf "%-24s mutants %5d  accepted %5d  rejected %5d  crashed %d  unclassified %d\n%!"
    label c.V.cp_total c.V.cp_accepted c.V.cp_rejected
    (List.length c.V.cp_crashed) c.V.cp_unclassified;
  List.iter
    (fun (name, e) ->
      incr failures;
      Printf.printf "  CRASH %s: %s\n%!" name e)
    c.V.cp_crashed;
  if c.V.cp_unclassified > 0 then begin
    incr failures;
    Printf.printf "  %d rejection(s) escaped the taxonomy\n%!" c.V.cp_unclassified
  end

let () =
  let ds = Depsurf.Dataset.build ~seed Calibration.test_scale in
  let corpus = Ds_corpus.Corpus.build_all ds () in
  Printf.printf "verify-fuzz: %d tools, %d mutants per stream, seed %Ld\n%!"
    (List.length corpus) mutation_count seed;
  (* per-program instruction-stream campaigns, merged per tool *)
  let total = ref V.{ cp_total = 0; cp_accepted = 0; cp_rejected = 0;
                      cp_crashed = []; cp_unclassified = 0; cp_rules = [] } in
  List.iter
    (fun (profile, obj) ->
      let per_tool =
        List.fold_left
          (fun acc prog -> V.merge acc (V.campaign_insns ~count:mutation_count ~seed prog))
          V.{ cp_total = 0; cp_accepted = 0; cp_rejected = 0; cp_crashed = [];
              cp_unclassified = 0; cp_rules = [] }
          obj.Ds_bpf.Obj.o_progs
      in
      report profile.Ds_corpus.Table7.pr_name per_tool;
      total := V.merge !total per_tool)
    corpus;
  (* whole-object campaigns: the loader + verifier pipeline end to end,
     name-checked against the v5.4 study kernel's BTF *)
  let kernel =
    Ds_util.Diag.ok
      (Ds_bpf.Vmlinux.load (Depsurf.Dataset.image ds (Version.v 5 4) Config.x86_generic))
  in
  List.iter
    (fun (profile, obj) ->
      let c =
        V.campaign_obj ~count:mutation_count ~seed ~kernel (Ds_bpf.Obj.write obj)
      in
      report (profile.Ds_corpus.Table7.pr_name ^ " (obj)") c;
      total := V.merge !total c)
    corpus;
  let t = !total in
  Printf.printf "TOTAL: %d mutants, %d rejected across %d rules\n%!" t.V.cp_total
    t.V.cp_rejected (List.length t.V.cp_rules);
  List.iter (fun (rule, n) -> Printf.printf "  %-28s %6d\n" rule n)
    (List.sort (fun (_, a) (_, b) -> compare b a) t.V.cp_rules);
  if !failures > 0 then begin
    Printf.printf "VERIFY-FUZZ FAILED: %d failure(s)\n" !failures;
    exit 1
  end
  else
    print_endline
      "verify-fuzz: all mutants survived, every rejection classified with a suggestion"
