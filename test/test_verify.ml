(* ds_verify: the closed rejection taxonomy, the structured report's
   window/regs/trail anatomy, suggestion wiring (including the compat
   stable-probe hint on dependency-induced rules), the report codec, and
   the never-raise/always-classify properties the @verify-fuzz campaign
   gates at scale. *)

open Ds_bpf
module V = Ds_verify.Verify
module T = Ds_verify.Taxonomy
module Diag = Ds_util.Diag

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

let rule_of insns =
  match V.verify_insns insns with
  | None -> "accepted"
  | Some f -> T.id f.V.fd_rule

(* ---- golden negative corpus: one program per taxonomy rule ---------- *)

let ret0 = Insn.[ Mov_imm { dst = 0; imm = 0 }; Exit ]

(* 512 register-file combinations (r0, r2..r9 each Uninit or Scalar)
   flowing into a 200-branch tail: ~100k forked states, past the 65536
   budget, with no other rule reachable on any path *)
let explosive =
  let diamonds =
    List.concat_map
      (fun r -> Insn.[ Jeq_imm { reg = 1; imm = 7; target = 1 }; Mov_imm { dst = r; imm = 1 } ])
      [ 0; 2; 3; 4; 5; 6; 7; 8; 9 ]
  in
  let tail = List.init 200 (fun _ -> Insn.Jeq_imm { reg = 1; imm = 0; target = 0 }) in
  diamonds @ tail @ ret0

let golden =
  [
    ("empty-program", []);
    ("size-cap", List.init (Verifier.max_insns + 1) (fun _ -> Insn.Mov_imm { dst = 0; imm = 0 }));
    ("no-exit", Insn.[ Mov_imm { dst = 0; imm = 0 } ]);
    ("invalid-register", Insn.[ Mov_imm { dst = 11; imm = 0 }; Exit ]);
    ("uninit-register", Insn.[ Mov_reg { dst = 0; src = 3 }; Exit ]);
    ("write-to-r10", Insn.[ Mov_imm { dst = 10; imm = 0 }; Exit ]);
    ("ctx-out-of-bounds", Insn.[ Ldx { dst = 0; src = 1; off = 5000; size = DW }; Exit ]);
    ("stack-read-out-of-frame", Insn.[ Ldx { dst = 0; src = 10; off = -600; size = DW }; Exit ]);
    ( "stack-write-out-of-frame",
      Insn.[ Mov_imm { dst = 0; imm = 0 }; Stx { dst = 10; src = 0; off = -600; size = DW }; Exit ] );
    ( "unsafe-load-scalar",
      Insn.[ Mov_imm { dst = 2; imm = 7 }; Ldx { dst = 0; src = 2; off = 0; size = DW }; Exit ] );
    ( "write-into-ctx",
      Insn.[ Mov_imm { dst = 0; imm = 0 }; Stx { dst = 1; src = 0; off = 0; size = DW }; Exit ] );
    ( "bad-store-target",
      Insn.
        [
          Mov_imm { dst = 2; imm = 7 };
          Mov_imm { dst = 0; imm = 0 };
          Stx { dst = 2; src = 0; off = 0; size = DW };
          Exit;
        ] );
    ("unknown-helper", Insn.[ Call 9999; Exit ]);
    ( "backward-jump",
      Insn.[ Mov_imm { dst = 0; imm = 0 }; Jeq_imm { reg = 0; imm = 0; target = -2 }; Exit ] );
    ( "jump-out-of-range",
      Insn.[ Mov_imm { dst = 0; imm = 0 }; Jeq_imm { reg = 0; imm = 0; target = 10 }; Exit ] );
    ("uninit-r0-at-exit", Insn.[ Exit ]);
    ("path-explosion", explosive);
  ]

let test_golden_corpus () =
  List.iter
    (fun (expected, insns) ->
      Alcotest.(check string) expected expected (rule_of insns))
    golden;
  Alcotest.(check string) "clean program accepted" "accepted" (rule_of ret0)

let mkprog ?(section = "kprobe/do_unlinkat") ?(kfuncs = []) insns =
  { Obj.p_name = "t"; p_section = section; p_insns = insns; p_relocs = []; p_kfuncs = kfuncs }

let test_kfunc_rules () =
  (* index past the kfunc table: structurally wrong on every kernel *)
  (match V.verify_prog (mkprog Insn.[ Kfunc_call 3; Exit ]) with
  | Some f ->
      Alcotest.(check string) "oob rule" "kfunc-index-out-of-range" (T.id f.V.fd_rule);
      Alcotest.(check int) "oob insn" 0 f.V.fd_insn;
      Alcotest.(check string) "oob msg" "kfunc index out of range" f.V.fd_msg
  | None -> Alcotest.fail "kfunc index oob accepted");
  (* without a kernel, a well-indexed kfunc is accepted (name-checking
     is a load-time concern) *)
  (match V.verify_prog (mkprog ~kfuncs:[ "whatever" ] Insn.[ Kfunc_call 0; Exit ]) with
  | None -> ()
  | Some f -> Alcotest.fail ("kernel-less kfunc rejected: " ^ T.id f.V.fd_rule));
  (* against a real study kernel's BTF, an unknown name is the paper's
     dependency-induced rejection *)
  let kernel = Ds_util.Diag.ok (Ds_bpf.Vmlinux.load (Testenv.image (Ds_ksrc.Version.v 5 4))) in
  match
    V.verify_prog ~kernel (mkprog ~kfuncs:[ "no_such_kfunc_xyz" ] Insn.[ Kfunc_call 0; Exit ])
  with
  | Some f ->
      Alcotest.(check string) "unknown kfunc rule" "unknown-kfunc" (T.id f.V.fd_rule);
      Alcotest.(check string) "loader wording preserved"
        "calling kernel function no_such_kfunc_xyz is not allowed" f.V.fd_msg;
      Alcotest.(check bool) "dependency induced" true (T.dependency_induced f.V.fd_rule)
  | None -> Alcotest.fail "unknown kfunc accepted"

let test_malformed_stream () =
  (match V.verify_stream "\xff\x00\x00\x00\x00\x00\x00\x00" with
  | Some f -> Alcotest.(check string) "unknown opcode" "malformed-insn" (T.id f.V.fd_rule)
  | None -> Alcotest.fail "bogus opcode accepted");
  (match V.verify_stream "\xb7\x00\x00" with
  | Some f ->
      Alcotest.(check string) "ragged stream" "malformed-insn" (T.id f.V.fd_rule);
      Alcotest.(check string) "decoder wording" "instruction stream not 8-aligned" f.V.fd_msg
  | None -> Alcotest.fail "ragged stream accepted");
  match V.verify_stream (Insn.encode ret0) with
  | None -> ()
  | Some f -> Alcotest.fail ("clean stream rejected: " ^ T.id f.V.fd_rule)

(* ---- finding anatomy: offset, window, regs, trail ------------------- *)

let test_finding_anatomy () =
  let insns =
    Insn.
      [
        Mov_imm { dst = 0; imm = 0 };
        Jeq_imm { reg = 0; imm = 0; target = 1 };
        Exit;
        Ldx { dst = 1; src = 0; off = 0; size = DW };
        Exit;
      ]
  in
  match V.verify_insns insns with
  | None -> Alcotest.fail "taken-path scalar deref accepted"
  | Some f ->
      Alcotest.(check string) "rule" "unsafe-load-scalar" (T.id f.V.fd_rule);
      Alcotest.(check int) "offending insn" 3 f.V.fd_insn;
      (* the trail records the one branch decision that reached it *)
      Alcotest.(check bool) "trail" true (f.V.fd_trail = [ (1, true) ]);
      (* the window is centred on the offending insn and rendered by
         Disasm.line *)
      Alcotest.(check bool) "window covers insn" true (List.mem_assoc 3 f.V.fd_window);
      Alcotest.(check string) "window line"
        (Disasm.line 3 (Insn.Ldx { dst = 1; src = 0; off = 0; size = DW }))
        (List.assoc 3 f.V.fd_window);
      (* the abstract register file at the failure point *)
      Alcotest.(check string) "r0 state" "scalar" (List.assoc "r0" f.V.fd_regs);
      Alcotest.(check string) "r1 state" "ctx" (List.assoc "r1" f.V.fd_regs);
      Alcotest.(check string) "r10 state" "stack" (List.assoc "r10" f.V.fd_regs);
      Alcotest.(check bool) "suggestion names bpf_probe_read" true
        (contains f.V.fd_suggestion "bpf_probe_read")

(* whole-program rejections carry no window/regs and insn -1 *)
let test_whole_program_shape () =
  match V.verify_insns [] with
  | None -> Alcotest.fail "empty program accepted"
  | Some f ->
      Alcotest.(check int) "insn -1" (-1) f.V.fd_insn;
      Alcotest.(check bool) "no window" true (f.V.fd_window = []);
      Alcotest.(check bool) "no regs" true (f.V.fd_regs = [])

(* ---- suggestions & compat wiring ------------------------------------ *)

let test_compat_suggestion () =
  (* unknown helper in a section the compat registry covers: the hint
     names the stable probe that resolves per kernel *)
  let s = T.suggestion ~section:"kprobe/blk_account_io_start" T.Unknown_helper in
  Alcotest.(check bool) "names block:io_start" true
    (contains s "block:io_start");
  (* same rule without a covered section: no probe claim *)
  let s' = T.suggestion ~section:"kprobe/not_a_registered_hook" T.Unknown_helper in
  Alcotest.(check bool) "no stray probe claim" false
    (contains s' "compat registry");
  (* program-induced rules never get a probe hint, covered section or not *)
  let s'' = T.suggestion ~section:"kprobe/blk_account_io_start" T.Scalar_deref in
  Alcotest.(check bool) "program-induced: no probe" false
    (contains s'' "block:io_start")

let test_taxonomy_closed () =
  Alcotest.(check int) "20 rules" 20 (List.length T.all);
  List.iter
    (fun r ->
      (match T.of_id (T.id r) with
      | Some r' -> Alcotest.(check bool) (T.id r) true (r = r')
      | None -> Alcotest.fail ("id does not round-trip: " ^ T.id r));
      Alcotest.(check bool) (T.id r ^ " described") true (T.describe r <> "");
      Alcotest.(check bool) (T.id r ^ " suggests") true (T.suggestion r <> ""))
    T.all;
  Alcotest.(check bool) "unknown id" true (T.of_id "no-such-rule" = None);
  (* the verifier's rules embed injectively *)
  let ids =
    List.sort_uniq compare
      (List.map (fun (_, insns) -> rule_of insns) golden)
  in
  Alcotest.(check int) "17 verifier rules distinguished" 17 (List.length ids)

(* ---- reports, codec, json ------------------------------------------- *)

let sample_report () =
  let prog = mkprog ~section:"kprobe/do_unlinkat" Insn.[ Call 9999; Exit ] in
  let obj =
    {
      Obj.o_name = "neg";
      o_built_for = "v5.4/x86";
      o_progs = [ prog; { prog with Obj.p_name = "ok"; p_section = "perf_event"; p_insns = ret0 } ];
      o_maps = [];
      o_btf = Ds_btf.Btf.create ();
    }
  in
  V.verify_bytes (Obj.write obj)

let test_report_and_codec () =
  let r = sample_report () in
  Alcotest.(check int) "two programs" 2 (List.length r.V.rp_progs);
  Alcotest.(check int) "one rejection" 1 (List.length (V.findings r));
  Alcotest.(check int) "degraded exit" 2 (Diag.exit_code r.V.rp_diags);
  (* codec roundtrip is exact, and the envelope (the /v1/verify and
     doctor --json payload) is byte-stable across it *)
  let r' = V.decode (V.encode r) in
  Alcotest.(check bool) "codec roundtrip" true (r = r');
  Alcotest.(check string) "envelope bytes stable"
    (Ds_util.Json.to_string (V.envelope r))
    (Ds_util.Json.to_string (V.envelope r'));
  (* corrupt payloads surface as Decode_error, never a crash *)
  (match V.decode "garbage" with
  | _ -> Alcotest.fail "garbage decoded"
  | exception Depsurf.Codec.Decode_error _ -> ());
  (* the human rendering names the rule and the hint *)
  let txt = V.render r in
  Alcotest.(check bool) "render names rule" true
    (contains txt "unknown-helper");
  Alcotest.(check bool) "render has hint" true (contains txt "hint:")

let test_garbage_bytes_report () =
  let r = V.verify_bytes "not an object at all" in
  Alcotest.(check int) "no programs" 0 (List.length r.V.rp_progs);
  Alcotest.(check bool) "fatal diag" true (Diag.worst r.V.rp_diags = Some Diag.Fatal);
  Alcotest.(check int) "fatal exit" 1 (Diag.exit_code r.V.rp_diags)

(* A warm re-verify is decode-only: a second store handle on the same
   directory (what a later process opens) finds the report [of_dataset]
   persisted for a corpus object, equal to the cold one, and
   [build_count] does not move. *)
let test_store_warm_reverify () =
  let dir = Filename.temp_file "ds-verify-store" "" in
  Sys.remove dir;
  let store = Ds_store.Store.open_ ~dir () in
  let ds = Depsurf.Dataset.build ~seed:7L ~store Ds_ksrc.Calibration.test_scale in
  let v = Ds_ksrc.Version.v 5 4 and cfg = Ds_ksrc.Config.x86_generic in
  let obj =
    List.assoc "biotop"
      (List.map
         (fun ((pr : Ds_corpus.Table7.profile), o) -> (pr.Ds_corpus.Table7.pr_name, o))
         (Ds_corpus.Corpus.build_all ds ()))
  in
  let bytes = Obj.write obj in
  let builds0 = Atomic.get V.build_count in
  let cold = V.of_dataset ds v cfg bytes in
  Alcotest.(check int) "cold verify runs once" 1 (Atomic.get V.build_count - builds0);
  Alcotest.(check int) "corpus object accepted" 0 (List.length (V.findings cold));
  let image = Vmlinux.tag (Depsurf.Dataset.vmlinux ds v cfg) in
  let store2 = Ds_store.Store.open_ ~dir () in
  (match
     Ds_store.Store.find store2 ~ns:V.ns
       ~key:(V.store_key ds ~image ~digest:(V.digest bytes))
       ~decode:V.decode
   with
  | Some warm -> Alcotest.(check bool) "stored report equals the cold one" true (warm = cold)
  | None -> Alcotest.fail "report not persisted under the verify namespace");
  Alcotest.(check int) "warm load is decode-only" 1 (Atomic.get V.build_count - builds0)

(* ---- properties: never raise, always classify ----------------------- *)

(* arbitrary instruction lists, biased to straddle every rule boundary:
   registers beyond r10, wild offsets, unknown helpers, jumps in both
   directions *)
let insn_gen =
  QCheck.Gen.(
    let reg = int_range 0 12 in
    let off = int_range (-700) 6000 in
    let size = oneofl [ Insn.B; Insn.H; Insn.W; Insn.DW ] in
    let insn =
      frequency
        [
          (3, map2 (fun dst imm -> Insn.Mov_imm { dst; imm }) reg small_int);
          (2, map2 (fun dst src -> Insn.Mov_reg { dst; src }) reg reg);
          (2, map2 (fun dst imm -> Insn.Add_imm { dst; imm }) reg small_int);
          ( 2,
            map2
              (fun (dst, src) (off, size) -> Insn.Ldx { dst; src; off; size })
              (pair reg reg) (pair off size) );
          ( 2,
            map2
              (fun (dst, src) (off, size) -> Insn.Stx { dst; src; off; size })
              (pair reg reg) (pair off size) );
          ( 2,
            map2
              (fun (reg, imm) target -> Insn.Jeq_imm { reg; imm; target })
              (pair reg small_int) (int_range (-5) 20) );
          (2, map (fun h -> Insn.Call h) (int_range 0 20));
          (1, map (fun i -> Insn.Kfunc_call i) (int_range 0 3));
          (1, return Insn.Exit);
        ]
    in
    list_size (int_range 0 40) insn)

let classified f =
  T.of_id (T.id f.V.fd_rule) = Some f.V.fd_rule
  && f.V.fd_suggestion <> ""
  && f.V.fd_insn >= -1

let qcheck_verify_total =
  QCheck.Test.make ~name:"verify on arbitrary insns never raises, always classifies"
    ~count:500
    (QCheck.make ~print:(fun l -> string_of_int (List.length l) ^ " insns") insn_gen)
    (fun insns ->
      match V.verify_insns insns with
      | None -> true
      | Some f -> classified f
      | exception _ -> false)

let qcheck_stream_total =
  QCheck.Test.make ~name:"verify_stream on arbitrary bytes never raises" ~count:200
    QCheck.(string_of_size (QCheck.Gen.int_range 0 256))
    (fun bytes ->
      match V.verify_stream bytes with
      | None -> true
      | Some f -> classified f
      | exception _ -> false)

let qcheck_bytes_total =
  QCheck.Test.make ~name:"verify_bytes on arbitrary bytes never raises" ~count:100
    QCheck.(string_of_size (QCheck.Gen.int_range 0 512))
    (fun bytes ->
      match V.verify_bytes bytes with
      | r -> List.for_all (fun (_, f) -> classified f) (V.findings r)
      | exception _ -> false)

(* ---- campaign plumbing ---------------------------------------------- *)

let test_campaign_smoke () =
  let prog = mkprog ret0 in
  let c = V.campaign_insns ~count:200 ~seed:7L prog in
  Alcotest.(check bool) "enough mutants" true (c.V.cp_total >= 200);
  Alcotest.(check bool) "no crashes" true (c.V.cp_crashed = []);
  Alcotest.(check int) "no unclassified" 0 c.V.cp_unclassified;
  Alcotest.(check int) "tally adds up" c.V.cp_total (c.V.cp_accepted + c.V.cp_rejected);
  Alcotest.(check int) "rule tally matches rejections" c.V.cp_rejected
    (List.fold_left (fun a (_, n) -> a + n) 0 c.V.cp_rules);
  (* determinism: same seed, same corpus, same tally *)
  let c' = V.campaign_insns ~count:200 ~seed:7L prog in
  Alcotest.(check bool) "deterministic" true (c = c');
  let m = V.merge c c' in
  Alcotest.(check int) "merge totals" (2 * c.V.cp_total) m.V.cp_total

let suites =
  [
    ( "verify",
      [
        Alcotest.test_case "golden negative corpus" `Quick test_golden_corpus;
        Alcotest.test_case "kfunc rules" `Quick test_kfunc_rules;
        Alcotest.test_case "malformed stream" `Quick test_malformed_stream;
        Alcotest.test_case "finding anatomy" `Quick test_finding_anatomy;
        Alcotest.test_case "whole-program shape" `Quick test_whole_program_shape;
        Alcotest.test_case "compat suggestion wiring" `Quick test_compat_suggestion;
        Alcotest.test_case "taxonomy closed" `Quick test_taxonomy_closed;
        Alcotest.test_case "report + codec" `Quick test_report_and_codec;
        Alcotest.test_case "garbage bytes" `Quick test_garbage_bytes_report;
        Alcotest.test_case "store warm re-verify" `Quick test_store_warm_reverify;
        Alcotest.test_case "campaign smoke" `Quick test_campaign_smoke;
        QCheck_alcotest.to_alcotest qcheck_verify_total;
        QCheck_alcotest.to_alcotest qcheck_stream_total;
        QCheck_alcotest.to_alcotest qcheck_bytes_total;
      ] );
  ]
