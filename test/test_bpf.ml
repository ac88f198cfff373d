open Ds_bpf
open Ds_ksrc

let v44 = Version.v 4 4
let v54 = Version.v 5 4
let v519 = Version.v 5 19

let kernel_cache : (string, Vmlinux.t) Hashtbl.t = Hashtbl.create 8

let kernel ?(cfg = Config.x86_generic) v =
  let key = Version.to_string v ^ Config.to_string cfg in
  match Hashtbl.find_opt kernel_cache key with
  | Some k -> k
  | None ->
      let k = Ds_util.Diag.ok (Vmlinux.load (Testenv.image ~cfg v)) in
      Hashtbl.replace kernel_cache key k;
      k

(* ------------------------------------------------------------------ *)
(* Vmlinux banner parsing                                              *)
(* ------------------------------------------------------------------ *)

let test_parse_banner () =
  let v, flavor, gcc =
    Vmlinux.parse_banner
      "Linux version 5.4.0-azure (buildd@x) (gcc version 9.2.0 (Ubuntu)) #1 SMP x86"
  in
  Alcotest.(check string) "version" "v5.4" (Version.to_string v);
  Alcotest.(check bool) "flavor" true (flavor = Config.Azure);
  Alcotest.(check bool) "gcc" true (gcc = (9, 2));
  List.iter
    (fun bad ->
      match Vmlinux.parse_banner bad with
      | exception Vmlinux.Bad_vmlinux _ -> ()
      | _ -> Alcotest.fail ("should not parse: " ^ bad))
    [
      "not a banner";
      "Linux version x.y.z-generic";
      "Linux version 5.4.0-nosuchflavor (gcc version 9.2.0)";
      "Linux version 5.4.0-generic (no compiler here)";
    ]

(* ------------------------------------------------------------------ *)
(* Instructions                                                        *)
(* ------------------------------------------------------------------ *)

let sample_insns =
  Insn.
    [
      Mov_reg { dst = 6; src = 1 };
      Ldx { dst = 7; src = 6; off = 112; size = DW };
      Mov_imm { dst = 2; imm = 8 };
      Add_imm { dst = 7; imm = -4 };
      Jeq_imm { reg = 7; imm = 0; target = 1 };
      Call Insn.helper_probe_read;
      Mov_imm { dst = 0; imm = 0 };
      Exit;
    ]

let test_insn_roundtrip () =
  let bytes = Insn.encode sample_insns in
  Alcotest.(check int) "8 bytes per insn" (8 * List.length sample_insns) (String.length bytes);
  Alcotest.(check bool) "roundtrip" true (Insn.decode bytes = sample_insns)

let test_insn_negative_offsets () =
  let insns = Insn.[ Ldx { dst = 1; src = 10; off = -16; size = W }; Exit ] in
  Alcotest.(check bool) "negative off survives" true (Insn.decode (Insn.encode insns) = insns)

let test_insn_bad () =
  Alcotest.check_raises "bad length" (Insn.Bad_insn "instruction stream not 8-aligned")
    (fun () -> ignore (Insn.decode "abc"));
  Alcotest.check_raises "bad opcode" (Insn.Bad_insn "unknown opcode 0xff") (fun () ->
      ignore (Insn.decode "\xff\x00\x00\x00\x00\x00\x00\x00"))

(* ------------------------------------------------------------------ *)
(* Verifier                                                            *)
(* ------------------------------------------------------------------ *)

let ok = Alcotest.(check bool) "accepted" true
let rejected msg_part result =
  match result with
  | Ok () -> Alcotest.fail "expected rejection"
  | Error { Verifier.ve_msg; _ } ->
      Alcotest.(check bool) (Printf.sprintf "reason %S contains %S" ve_msg msg_part) true
        (let n = String.length msg_part in
         let rec go i =
           i + n <= String.length ve_msg && (String.sub ve_msg i n = msg_part || go (i + 1))
         in
         go 0)

let test_verifier_accepts () =
  ok (Verifier.verify sample_insns = Ok ());
  ok (Verifier.verify Insn.[ Mov_imm { dst = 0; imm = 0 }; Exit ] = Ok ())

let test_verifier_branch_paths () =
  (* the TAKEN path must verify too: here the branch skips the
     initialization of r0, so the jump target exits with r0 uninit *)
  rejected "exit with uninitialized R0"
    (Verifier.verify
       Insn.
         [
           Mov_imm { dst = 2; imm = 0 };
           Jeq_imm { reg = 2; imm = 0; target = 1 };
           Mov_imm { dst = 0; imm = 1 };
           Exit;
         ]);
  (* ... and when both paths initialize r0, the program is fine *)
  ok
    (Verifier.verify
       Insn.
         [
           Mov_imm { dst = 0; imm = 0 };
           Jeq_imm { reg = 0; imm = 0; target = 1 };
           Mov_imm { dst = 0; imm = 1 };
           Exit;
         ]
    = Ok ());
  (* a register initialized on only one path cannot be used after *)
  rejected "uninitialized"
    (Verifier.verify
       Insn.
         [
           Mov_imm { dst = 0; imm = 0 };
           Jeq_imm { reg = 0; imm = 0; target = 1 };
           Mov_imm { dst = 3; imm = 7 };
           Mov_reg { dst = 4; src = 3 };
           Exit;
         ])

let test_verifier_rejects () =
  rejected "uninitialized" (Verifier.verify Insn.[ Mov_reg { dst = 0; src = 3 }; Exit ]);
  rejected "exit with uninitialized R0" (Verifier.verify Insn.[ Exit ]);
  rejected "does not end with exit"
    (Verifier.verify Insn.[ Mov_imm { dst = 0; imm = 1 } ]);
  rejected "invalid mem access"
    (Verifier.verify
       Insn.[ Mov_imm { dst = 3; imm = 8 }; Ldx { dst = 0; src = 3; off = 0; size = DW }; Exit ]);
  rejected "unknown func"
    (Verifier.verify Insn.[ Call 9999; Exit ]);
  rejected "ctx access out of bounds"
    (Verifier.verify Insn.[ Ldx { dst = 0; src = 1; off = 5000; size = DW }; Exit ]);
  rejected "back-edge"
    (Verifier.verify
       Insn.[ Mov_imm { dst = 0; imm = 0 }; Jeq_imm { reg = 0; imm = 0; target = -2 }; Exit ]);
  rejected "cannot write r10" (Verifier.verify Insn.[ Mov_imm { dst = 10; imm = 0 }; Exit ]);
  rejected "stack write out of frame"
    (Verifier.verify
       Insn.[ Mov_imm { dst = 2; imm = 0 }; Stx { dst = 10; src = 2; off = 16; size = DW }; Exit ]);
  rejected "empty program" (Verifier.verify [])

(* ------------------------------------------------------------------ *)
(* Hooks                                                               *)
(* ------------------------------------------------------------------ *)

let test_hook_sections () =
  let cases =
    [
      (Hook.Kprobe "do_unlinkat", "kprobe/do_unlinkat");
      (Hook.Kretprobe "vfs_read", "kretprobe/vfs_read");
      (Hook.Tracepoint { category = "block"; event = "block_rq_issue" },
       "tracepoint/block/block_rq_issue");
      (Hook.Raw_tracepoint "sched_switch", "raw_tp/sched_switch");
      (Hook.Lsm "file_open", "lsm/file_open");
      (Hook.Syscall_enter "openat", "tracepoint/syscalls/sys_enter_openat");
      (Hook.Syscall_exit "open", "tracepoint/syscalls/sys_exit_open");
    ]
  in
  List.iter
    (fun (h, s) ->
      Alcotest.(check string) "to_section" s (Hook.to_section h);
      Alcotest.(check bool) "of_section roundtrip" true (Hook.of_section s = Some h))
    cases;
  Alcotest.(check bool) "lsm target" true
    (Hook.target_function (Hook.Lsm "file_open") = Some "security_file_open");
  Alcotest.(check bool) "junk section" true (Hook.of_section "maps" = None)

(* ------------------------------------------------------------------ *)
(* Objects                                                             *)
(* ------------------------------------------------------------------ *)

let biotop_spec =
  Progbuild.
    {
      sp_tool = "biotop";
      sp_hooks =
        [
          {
            hs_hook = Hook.Kprobe "blk_account_io_start";
            hs_arg_indices = [ 0 ]; hs_kfuncs = [];
            hs_reads =
              [
                { rd_struct = "request"; rd_path = [ "__sector" ]; rd_exists_check = false };
                { rd_struct = "request"; rd_path = [ "rq_disk"; "major" ]; rd_exists_check = false };
              ];
          };
          {
            hs_hook = Hook.Kprobe "blk_account_io_done";
            hs_arg_indices = [ 0 ]; hs_kfuncs = [];
            hs_reads = [];
          };
        ];
    }

let build_obj ?(v = v44) spec =
  let k = kernel v in
  Progbuild.build ~build_btf:k.Vmlinux.v_btf ~build_arch:Config.X86 ~tag:(Vmlinux.tag k) spec

let test_obj_roundtrip () =
  let obj = build_obj biotop_spec in
  let obj' = Ds_util.Diag.ok (Obj.read (Obj.write obj)) in
  Alcotest.(check string) "name" "biotop" obj'.Obj.o_name;
  Alcotest.(check int) "progs" 2 (List.length obj'.Obj.o_progs);
  let p = List.hd obj'.Obj.o_progs in
  let p0 = List.hd obj.Obj.o_progs in
  Alcotest.(check string) "section" p0.Obj.p_section p.Obj.p_section;
  Alcotest.(check bool) "insns preserved" true (p.Obj.p_insns = p0.Obj.p_insns);
  Alcotest.(check bool) "relocs preserved" true (p.Obj.p_relocs = p0.Obj.p_relocs);
  Alcotest.(check int) "3 relocs (arg + 2 fields... chain counts once each)" 3
    (List.length p.Obj.p_relocs)

let test_obj_access_path () =
  let obj = build_obj biotop_spec in
  let p = List.hd obj.Obj.o_progs in
  let paths =
    List.filter_map (fun r -> Obj.access_path obj r.Obj.cr_type_id r.Obj.cr_access) p.Obj.p_relocs
  in
  Alcotest.(check bool) "pt_regs.di recorded" true (List.mem ("pt_regs", [ "di" ]) paths);
  Alcotest.(check bool) "request.__sector recorded" true
    (List.mem ("request", [ "__sector" ]) paths);
  Alcotest.(check bool) "chained rq_disk.major recorded" true
    (List.mem ("request", [ "rq_disk"; "major" ]) paths)

let test_obj_duplicate_sections_rejected () =
  let obj = build_obj biotop_spec in
  let p = List.hd obj.Obj.o_progs in
  let dup = { obj with Obj.o_progs = [ p; p ] } in
  (match Obj.write dup with
  | exception Obj.Bad_obj _ -> ()
  | _ -> Alcotest.fail "duplicate sections accepted");
  (* the builder silently drops duplicate hooks instead *)
  let spec =
    Progbuild.
      {
        sp_tool = "twice";
        sp_hooks =
          [
            { hs_hook = Hook.Kprobe "vfs_read"; hs_arg_indices = []; hs_kfuncs = []; hs_reads = [] };
            { hs_hook = Hook.Kprobe "vfs_read"; hs_arg_indices = []; hs_kfuncs = []; hs_reads = [] };
          ];
      }
  in
  Alcotest.(check int) "deduped" 1 (List.length (build_obj spec).Obj.o_progs)

let test_obj_bad_input () =
  Alcotest.check_raises "not elf" (Obj.Bad_obj "bad magic") (fun () ->
      ignore (Obj.read ("garbage" ^ String.make 100 'x')));
  let not_bpf = Ds_elf.Elf.write (Testenv.image v44) in
  Alcotest.check_raises "kernel image is not an obj" (Obj.Bad_obj "not a BPF object")
    (fun () -> ignore (Obj.read not_bpf))

(* random spec -> build -> wire roundtrip property *)
let gen_hook =
  let open QCheck.Gen in
  oneof
    [
      map (fun f -> Hook.Kprobe ("fn_" ^ f)) (string_size ~gen:(char_range 'a' 'z') (int_range 1 8));
      map (fun f -> Hook.Kretprobe ("fn_" ^ f)) (string_size ~gen:(char_range 'a' 'z') (int_range 1 8));
      map (fun e -> Hook.Tracepoint { category = "cat"; event = "ev_" ^ e })
        (string_size ~gen:(char_range 'a' 'z') (int_range 1 8));
      map (fun e -> Hook.Raw_tracepoint ("raw_" ^ e)) (string_size ~gen:(char_range 'a' 'z') (int_range 1 8));
      map (fun s -> Hook.Syscall_enter ("sc_" ^ s)) (string_size ~gen:(char_range 'a' 'z') (int_range 1 6));
      return Hook.Perf_event;
    ]

let gen_spec =
  let open QCheck.Gen in
  let* tool = string_size ~gen:(char_range 'a' 'z') (int_range 1 10) in
  let* hooks = list_size (int_range 1 4) gen_hook in
  let structs = [| "request"; "task_struct"; "sock"; "file" |] in
  let fields = [| "__sector"; "pid"; "sk_state"; "f_flags" |] in
  let* reads =
    list_size (int_range 0 3)
      (let* si = int_range 0 3 in
       let* fi = int_range 0 3 in
       let* ex = bool in
       return Progbuild.{ rd_struct = structs.(si); rd_path = [ fields.(fi) ]; rd_exists_check = ex })
  in
  return
    Progbuild.
      {
        sp_tool = tool;
        sp_hooks =
          List.mapi
            (fun i h ->
              {
                hs_hook = h;
                hs_arg_indices = (if i = 0 then [ 0 ] else []);
                hs_kfuncs = [];
                hs_reads = (if i = 0 then reads else []);
              })
            hooks;
      }

let qcheck_obj_roundtrip =
  QCheck.Test.make ~name:"random spec: object wire roundtrip" ~count:50 (QCheck.make gen_spec)
    (fun spec ->
      let k = kernel v44 in
      let obj =
        Progbuild.build ~build_btf:k.Vmlinux.v_btf ~build_arch:Config.X86 ~tag:"t" spec
      in
      let obj' = Ds_util.Diag.ok (Obj.read (Obj.write obj)) in
      obj'.Obj.o_name = obj.Obj.o_name
      && List.length obj'.Obj.o_progs = List.length obj.Obj.o_progs
      && List.for_all2
           (fun (a : Obj.prog) (b : Obj.prog) ->
             a.p_insns = b.p_insns && a.p_relocs = b.p_relocs && a.p_kfuncs = b.p_kfuncs)
           obj.Obj.o_progs obj'.Obj.o_progs
      (* every generated program passes the verifier *)
      && List.for_all (fun (p : Obj.prog) -> Verifier.verify p.Obj.p_insns = Ok ()) obj.Obj.o_progs)

(* ------------------------------------------------------------------ *)
(* Loader: verification, relocation, attachment                        *)
(* ------------------------------------------------------------------ *)

let test_load_on_build_kernel () =
  let obj = build_obj biotop_spec in
  match Loader.load_and_attach (kernel v44) obj with
  | Ok attachments ->
      Alcotest.(check int) "both attached" 2 (List.length attachments);
      let a = List.hd attachments in
      Alcotest.(check int) "one address" 1 (List.length a.Loader.at_addrs);
      (* relocated offsets match the build kernel's own layout *)
      List.iter
        (fun (st, path, off) ->
          match Loader.resolve_field (kernel v44).Vmlinux.v_btf ~struct_name:st ~path with
          | Ok off' -> Alcotest.(check int) (st ^ " offset") off' off
          | Error m -> Alcotest.fail m)
        a.Loader.at_field_offsets
  | Error e -> Alcotest.fail (Loader.error_to_string e)

let test_attach_error_after_inline () =
  (* attach-only spec: relocation succeeds everywhere, so the v5.19
     failure is precisely the "failed to attach" of issue #4261 *)
  let spec =
    Progbuild.
      {
        sp_tool = "biotop_attach_only";
        sp_hooks =
          [
            { hs_hook = Hook.Kprobe "blk_account_io_start"; hs_arg_indices = []; hs_kfuncs = []; hs_reads = [] };
            { hs_hook = Hook.Kprobe "blk_account_io_done"; hs_arg_indices = []; hs_kfuncs = []; hs_reads = [] };
          ];
      }
  in
  let obj = build_obj spec in
  (match Loader.load_and_attach (kernel v44) obj with
  | Ok _ -> ()
  | Error e -> Alcotest.fail ("v4.4 should attach: " ^ Loader.error_to_string e));
  match Loader.load_and_attach (kernel v519) obj with
  | Ok _ -> Alcotest.fail "expected attachment error on v5.19 (be6bfe3 inlined the target)"
  | Error (Loader.Attachment_error { reason; _ }) ->
      Alcotest.(check bool) ("reason: " ^ reason) true
        (String.length reason > 0 && String.sub reason 0 9 = "no symbol")
  | Error e -> Alcotest.fail ("unexpected error " ^ Loader.error_to_string e)

let test_core_relocation_adjusts_offsets () =
  (* task_struct.utime moves / retypes across versions; CO-RE must find
     the right offset on each target. *)
  let spec =
    Progbuild.
      {
        sp_tool = "cpudist_like";
        sp_hooks =
          [
            {
              hs_hook = Hook.Kprobe "finish_task_switch";
              hs_arg_indices = [ 0 ]; hs_kfuncs = [];
              hs_reads =
                [ { rd_struct = "task_struct"; rd_path = [ "utime" ]; rd_exists_check = false } ];
            };
          ];
      }
  in
  let obj = build_obj ~v:v44 spec in
  let offset_on v =
    match Loader.load_and_attach (kernel v) obj with
    | Ok [ a ] -> (
        match List.find_opt (fun (s, _, _) -> s = "task_struct") a.Loader.at_field_offsets with
        | Some (_, _, off) -> off
        | None -> Alcotest.fail "no task_struct reloc")
    | Ok _ -> Alcotest.fail "expected one attachment"
    | Error e -> Alcotest.fail (Loader.error_to_string e)
  in
  let o44 = offset_on v44 and o68 = offset_on (Version.v 6 8) in
  Alcotest.(check bool) "both resolve" true (o44 > 0 && o68 > 0);
  (* the Ldx/Add target in the relocated program carries the offset *)
  match Loader.load_and_attach (kernel v44) obj with
  | Ok [ a ] ->
      Alcotest.(check bool) "patched insn present" true
        (List.exists
           (function Insn.Add_imm { imm; _ } -> imm = o44 | _ -> false)
           a.Loader.at_insns)
  | _ -> Alcotest.fail "load failed"

let test_relocation_error_on_missing_field () =
  (* rq_disk disappears from struct request in v5.19. *)
  let spec =
    Progbuild.
      {
        sp_tool = "rq_disk_reader";
        sp_hooks =
          [
            {
              hs_hook = Hook.Kprobe "blk_mq_start_request";
              hs_arg_indices = [ 0 ]; hs_kfuncs = [];
              hs_reads =
                [ { rd_struct = "request"; rd_path = [ "rq_disk" ]; rd_exists_check = false } ];
            };
          ];
      }
  in
  let obj = build_obj ~v:v54 spec in
  (match Loader.load_and_attach (kernel v54) obj with
  | Ok _ -> ()
  | Error e -> Alcotest.fail ("should load on build kernel: " ^ Loader.error_to_string e));
  match Loader.load_and_attach (kernel v519) obj with
  | Error (Loader.Relocation_error { type_name = "request"; path = [ "rq_disk" ]; _ }) -> ()
  | Error e -> Alcotest.fail ("unexpected: " ^ Loader.error_to_string e)
  | Ok _ -> Alcotest.fail "expected relocation error on v5.19"

let test_field_exists_fallback () =
  (* the readahead fix: guard the access with bpf_core_field_exists *)
  let spec =
    Progbuild.
      {
        sp_tool = "guarded";
        sp_hooks =
          [
            {
              hs_hook = Hook.Kprobe "blk_mq_start_request";
              hs_arg_indices = []; hs_kfuncs = [];
              hs_reads =
                [ { rd_struct = "request"; rd_path = [ "rq_disk" ]; rd_exists_check = true } ];
            };
          ];
      }
  in
  let obj = build_obj ~v:v54 spec in
  let imm_on v =
    match Loader.load_and_attach (kernel v) obj with
    | Ok [ a ] ->
        List.find_map
          (function Insn.Mov_imm { dst = 8; imm } -> Some imm | _ -> None)
          a.Loader.at_insns
    | Ok _ -> None
    | Error e -> Alcotest.fail (Loader.error_to_string e)
  in
  Alcotest.(check (option int)) "exists on 5.4" (Some 1) (imm_on v54);
  Alcotest.(check (option int)) "gone on 5.19" (Some 0) (imm_on v519)

let test_tracepoint_attach () =
  let spec =
    Progbuild.
      {
        sp_tool = "biostacks_like";
        sp_hooks =
          [
            {
              hs_hook = Hook.Tracepoint { category = "block"; event = "block_io_start" };
              hs_arg_indices = []; hs_kfuncs = [];
              hs_reads = [];
            };
          ];
      }
  in
  let obj = build_obj ~v:(Version.v 6 8) spec in
  (match Loader.load_and_attach (kernel (Version.v 6 8)) obj with
  | Ok _ -> ()
  | Error e -> Alcotest.fail ("6.8 should attach: " ^ Loader.error_to_string e));
  match Loader.load_and_attach (kernel v519) obj with
  | Error (Loader.Attachment_error { reason = "no such tracepoint"; _ }) -> ()
  | Error e -> Alcotest.fail ("unexpected: " ^ Loader.error_to_string e)
  | Ok _ -> Alcotest.fail "block_io_start must not exist before v6.5"

let test_syscall_attach_arch () =
  let spec =
    Progbuild.
      {
        sp_tool = "opensnoop_like";
        sp_hooks =
          [ { hs_hook = Hook.Syscall_enter "open"; hs_arg_indices = []; hs_kfuncs = []; hs_reads = [] } ];
      }
  in
  let obj = build_obj ~v:v54 spec in
  (match Loader.load_and_attach (kernel v54) obj with
  | Ok _ -> ()
  | Error e -> Alcotest.fail ("x86 has open: " ^ Loader.error_to_string e));
  match Loader.load_and_attach (kernel ~cfg:Config.{ arch = Arm64; flavor = Generic } v54) obj with
  | Error (Loader.Attachment_error _) -> ()
  | Error e -> Alcotest.fail ("unexpected: " ^ Loader.error_to_string e)
  | Ok _ -> Alcotest.fail "open must be unavailable on arm64"

let test_pt_regs_cross_arch_relocation_error () =
  (* PT_REGS_PARM-style access compiled on x86 reads pt_regs.di, which
     does not exist on arm64: relocation error (paper §4.2, Register Δ). *)
  let obj = build_obj ~v:v54 biotop_spec in
  match Loader.load_and_attach (kernel ~cfg:Config.{ arch = Arm64; flavor = Generic } v54) obj with
  | Error (Loader.Relocation_error { type_name = "pt_regs"; _ }) -> ()
  | Error e -> Alcotest.fail ("unexpected: " ^ Loader.error_to_string e)
  | Ok _ -> Alcotest.fail "expected pt_regs relocation error on arm64"

let test_kfunc_resolution () =
  (* bpf_task_acquire exists only from v5.19; bpf_ct_insert_entry is
     removed again at v6.5 — the verifier's kfunc registry rejects
     programs calling functions the kernel no longer has (paper §4.1). *)
  let spec kfuncs =
    Progbuild.
      {
        sp_tool = "kfunc_user";
        sp_hooks =
          [
            {
              hs_hook = Hook.Kprobe "vfs_read";
              hs_arg_indices = [];
              hs_reads = [];
              hs_kfuncs = kfuncs;
            };
          ];
      }
  in
  let obj = build_obj ~v:(Version.v 5 19) (spec [ "bpf_task_acquire"; "bpf_task_from_pid" ]) in
  (* the kfunc table survives the wire format *)
  Alcotest.(check (list string)) "kfuncs roundtrip" [ "bpf_task_acquire"; "bpf_task_from_pid" ]
    (List.hd obj.Obj.o_progs).Obj.p_kfuncs;
  Alcotest.(check bool) "Kfunc_call insns present" true
    (List.exists
       (function Insn.Kfunc_call _ -> true | _ -> false)
       (List.hd obj.Obj.o_progs).Obj.p_insns);
  (match Loader.load_and_attach (kernel (Version.v 5 19)) obj with
  | Ok _ -> ()
  | Error e -> Alcotest.fail ("5.19 has both kfuncs: " ^ Loader.error_to_string e));
  (match Loader.load_and_attach (kernel v54) obj with
  | Error (Loader.Verifier_error { msg; _ }) ->
      Alcotest.(check string) "verifier wording"
        "calling kernel function bpf_task_acquire is not allowed" msg
  | Error e -> Alcotest.fail ("unexpected: " ^ Loader.error_to_string e)
  | Ok _ -> Alcotest.fail "bpf_task_acquire must be unknown on v5.4");
  let removed = build_obj ~v:(Version.v 5 19) (spec [ "bpf_ct_insert_entry" ]) in
  (match Loader.load_and_attach (kernel (Version.v 6 5)) removed with
  | Error (Loader.Verifier_error _) -> ()
  | Error e -> Alcotest.fail ("unexpected: " ^ Loader.error_to_string e)
  | Ok _ -> Alcotest.fail "bpf_ct_insert_entry was removed at v6.5 (f85671c pattern)");
  (* the dependency analysis sees kfuncs as function deps *)
  let deps = Depsurf.Depset.of_obj obj in
  Alcotest.(check bool) "kfunc in depset" true
    (List.mem (Depsurf.Depset.Dep_func "bpf_task_acquire") deps)

let test_lsm_and_fentry_attach () =
  let spec =
    Progbuild.
      {
        sp_tool = "lockc_like";
        sp_hooks =
          [
            { hs_hook = Hook.Lsm "file_open"; hs_arg_indices = []; hs_kfuncs = []; hs_reads = [] };
            { hs_hook = Hook.Fentry "vfs_read"; hs_arg_indices = []; hs_kfuncs = []; hs_reads = [] };
          ];
      }
  in
  let obj = build_obj spec in
  (match Loader.load_and_attach (kernel v44) obj with
  | Ok atts ->
      Alcotest.(check int) "both attach" 2 (List.length atts);
      let lsm = List.hd atts in
      Alcotest.(check bool) "lsm resolves security_file_open" true
        (lsm.Loader.at_addrs <> [])
  | Error e -> Alcotest.fail (Loader.error_to_string e));
  (* a hook for a nonexistent LSM hook must fail *)
  let bad =
    build_obj
      Progbuild.
        {
          sp_tool = "badlsm";
          sp_hooks = [ { hs_hook = Hook.Lsm "no_such_hook"; hs_arg_indices = []; hs_kfuncs = []; hs_reads = [] } ];
        }
  in
  match Loader.load_and_attach (kernel v44) bad with
  | Error (Loader.Attachment_error _) -> ()
  | Ok _ -> Alcotest.fail "nonexistent LSM hook attached"
  | Error e -> Alcotest.fail ("unexpected: " ^ Loader.error_to_string e)

let test_duplicate_symbol_policy () =
  let spec =
    Progbuild.
      {
        sp_tool = "colliding";
        sp_hooks =
          [
            {
              hs_hook = Hook.Kprobe "destroy_inodecache";
              hs_arg_indices = []; hs_kfuncs = [];
              hs_reads = [];
            };
          ];
      }
  in
  let obj = build_obj ~v:v54 spec in
  (match Loader.load_and_attach (kernel v54) obj with
  | Ok [ a ] ->
      Alcotest.(check int) "pre-6.6: silently attach first copy" 1
        (List.length a.Loader.at_addrs)
  | Ok _ -> Alcotest.fail "one attachment expected"
  | Error e -> Alcotest.fail (Loader.error_to_string e));
  match Loader.load_and_attach (kernel (Version.v 6 8)) obj with
  | Error (Loader.Attachment_error { reason; _ }) ->
      Alcotest.(check bool) ("6.8 rejects: " ^ reason) true
        (let m = "symbols with this name" in
         let rec go i =
           i + String.length m <= String.length reason
           && (String.sub reason i (String.length m) = m || go (i + 1))
         in
         go 0)
  | Error e -> Alcotest.fail ("unexpected: " ^ Loader.error_to_string e)
  | Ok _ -> Alcotest.fail "b022f0c behaviour expected on >= 6.6"

(* ------------------------------------------------------------------ *)
(* Runtime                                                             *)
(* ------------------------------------------------------------------ *)

let test_runtime_selective_inline_misses () =
  (* vfs_fsync is selectively inlined: a kprobe observes only the
     non-inlined call sites. *)
  let spec =
    Progbuild.
      {
        sp_tool = "fsync_watcher";
        sp_hooks = [ { hs_hook = Hook.Kprobe "vfs_fsync"; hs_arg_indices = []; hs_kfuncs = []; hs_reads = [] } ];
      }
  in
  let obj = build_obj spec in
  match Loader.load_and_attach (kernel v44) obj with
  | Error e -> Alcotest.fail (Loader.error_to_string e)
  | Ok attachments ->
      let model = Testenv.model v44 in
      let report = Runtime.simulate model ~attachments ~expectations:[] ~rounds:5 in
      let ps = List.hd report.Runtime.r_per_prog in
      Alcotest.(check bool)
        (Printf.sprintf "missing invocations (logical=%d observed=%d)" ps.Runtime.ps_logical
           ps.Runtime.ps_observed)
        true
        (Runtime.missing_invocations ps > 0 && ps.Runtime.ps_observed > 0)

let test_runtime_stray_read () =
  (* do_unlinkat's 2nd argument changed from char* to struct filename* in
     v4.15; a program expecting char* reads stray data afterwards. *)
  let spec =
    Progbuild.
      {
        sp_tool = "unlink_snoop";
        sp_hooks =
          [ { hs_hook = Hook.Kprobe "do_unlinkat"; hs_arg_indices = [ 1 ]; hs_kfuncs = []; hs_reads = [] } ];
      }
  in
  let obj = build_obj ~v:v44 spec in
  let expectations =
    [ Runtime.{ ex_prog = "unlink_snoop__kprobe_do_unlinkat"; ex_arg = 1; ex_type = Ds_ctypes.Ctype.char_ptr } ]
  in
  let run v =
    match Loader.load_and_attach (kernel v) obj with
    | Error e -> Alcotest.fail (Loader.error_to_string e)
    | Ok attachments ->
        let report = Runtime.simulate (Testenv.model v) ~attachments ~expectations ~rounds:3 in
        (List.hd report.Runtime.r_per_prog).Runtime.ps_stray_reads
  in
  Alcotest.(check int) "no stray reads on 4.4" 0 (run v44);
  Alcotest.(check bool) "stray reads on 4.15 (filename*)" true (run (Version.v 4 15) > 0)

let test_runtime_return_stray_read () =
  (* __do_page_cache_readahead's return type changed in v4.18 (c534aa3):
     a kretprobe expecting the old unsigned long misreads afterwards. *)
  let spec =
    Progbuild.
      {
        sp_tool = "ra_ret";
        sp_hooks =
          [
            {
              hs_hook = Hook.Kretprobe "__do_page_cache_readahead";
              hs_arg_indices = []; hs_kfuncs = [];
              hs_reads = [];
            };
          ];
      }
  in
  let obj = build_obj ~v:v44 spec in
  let expectations =
    [
      Runtime.
        {
          ex_prog = "ra_ret__kretprobe___do_page_cache_readahead";
          ex_arg = -1;
          ex_type = Ds_ctypes.Ctype.ulong;
        };
    ]
  in
  let run v =
    match Loader.load_and_attach (kernel v) obj with
    | Error e -> Alcotest.fail (Loader.error_to_string e)
    | Ok attachments ->
        let report = Runtime.simulate (Testenv.model v) ~attachments ~expectations ~rounds:3 in
        (List.hd report.Runtime.r_per_prog).Runtime.ps_stray_reads
  in
  Alcotest.(check int) "no stray on 4.4 (ulong)" 0 (run v44);
  Alcotest.(check bool) "stray on 4.18 (now uint)" true (run (Version.v 4 18) > 0)

let test_runtime_duplication_misses () =
  (* get_order has several per-TU copies; pre-6.6 the kprobe silently
     attaches to the first one and misses the rest (Table 2, Missing
     Invocation via duplication). *)
  let spec =
    Progbuild.
      {
        sp_tool = "order_watch";
        sp_hooks =
          [ { hs_hook = Hook.Kprobe "get_order"; hs_arg_indices = []; hs_kfuncs = []; hs_reads = [] } ];
      }
  in
  let obj = build_obj spec in
  match Loader.load_and_attach (kernel v44) obj with
  | Error e -> Alcotest.fail (Loader.error_to_string e)
  | Ok attachments ->
      let a = List.hd attachments in
      Alcotest.(check int) "attached to exactly one copy" 1 (List.length a.Loader.at_addrs);
      let r = Runtime.simulate (Testenv.model v44) ~attachments ~expectations:[] ~rounds:4 in
      let ps = List.hd r.Runtime.r_per_prog in
      Alcotest.(check bool)
        (Printf.sprintf "copies missed (logical=%d observed=%d)" ps.Runtime.ps_logical
           ps.Runtime.ps_observed)
        true
        (Runtime.missing_invocations ps > 0)

let test_runtime_tracepoint_complete () =
  let spec =
    Progbuild.
      {
        sp_tool = "switch_count";
        sp_hooks =
          [
            {
              hs_hook = Hook.Tracepoint { category = "sched"; event = "sched_switch" };
              hs_arg_indices = []; hs_kfuncs = [];
              hs_reads = [];
            };
          ];
      }
  in
  let obj = build_obj spec in
  match Loader.load_and_attach (kernel v44) obj with
  | Error e -> Alcotest.fail (Loader.error_to_string e)
  | Ok attachments ->
      let report = Runtime.simulate (Testenv.model v44) ~attachments ~expectations:[] ~rounds:7 in
      let ps = List.hd report.Runtime.r_per_prog in
      Alcotest.(check int) "tracepoints are complete" 0 (Runtime.missing_invocations ps);
      Alcotest.(check int) "fired every round" 7 ps.Runtime.ps_observed

let suites =
  [
    ("bpf.vmlinux", [ Alcotest.test_case "parse banner" `Quick test_parse_banner ]);
    ( "bpf.insn",
      [
        Alcotest.test_case "roundtrip" `Quick test_insn_roundtrip;
        Alcotest.test_case "negative offsets" `Quick test_insn_negative_offsets;
        Alcotest.test_case "bad input" `Quick test_insn_bad;
      ] );
    ( "bpf.verifier",
      [
        Alcotest.test_case "accepts" `Quick test_verifier_accepts;
        Alcotest.test_case "rejects" `Quick test_verifier_rejects;
        Alcotest.test_case "branch paths" `Quick test_verifier_branch_paths;
      ] );
    ("bpf.hook", [ Alcotest.test_case "sections" `Quick test_hook_sections ]);
    ( "bpf.obj",
      [
        Alcotest.test_case "roundtrip" `Quick test_obj_roundtrip;
        Alcotest.test_case "access path" `Quick test_obj_access_path;
        Alcotest.test_case "bad input" `Quick test_obj_bad_input;
        Alcotest.test_case "duplicate sections rejected" `Quick
          test_obj_duplicate_sections_rejected;
        QCheck_alcotest.to_alcotest qcheck_obj_roundtrip;
      ] );
    ( "bpf.loader",
      [
        Alcotest.test_case "load on build kernel" `Quick test_load_on_build_kernel;
        Alcotest.test_case "attach error after inline" `Quick test_attach_error_after_inline;
        Alcotest.test_case "CO-RE adjusts offsets" `Quick test_core_relocation_adjusts_offsets;
        Alcotest.test_case "relocation error (missing field)" `Quick
          test_relocation_error_on_missing_field;
        Alcotest.test_case "field_exists fallback" `Quick test_field_exists_fallback;
        Alcotest.test_case "tracepoint attach" `Quick test_tracepoint_attach;
        Alcotest.test_case "syscall per arch" `Quick test_syscall_attach_arch;
        Alcotest.test_case "pt_regs cross-arch reloc error" `Quick
          test_pt_regs_cross_arch_relocation_error;
        Alcotest.test_case "kfunc resolution" `Quick test_kfunc_resolution;
        Alcotest.test_case "lsm + fentry attach" `Quick test_lsm_and_fentry_attach;
        Alcotest.test_case "duplicate symbol policy" `Quick test_duplicate_symbol_policy;
      ] );
    ( "bpf.runtime",
      [
        Alcotest.test_case "selective inline misses" `Quick test_runtime_selective_inline_misses;
        Alcotest.test_case "stray read" `Quick test_runtime_stray_read;
        Alcotest.test_case "return-value stray read" `Quick test_runtime_return_stray_read;
        Alcotest.test_case "duplication misses copies" `Quick test_runtime_duplication_misses;
        Alcotest.test_case "tracepoint complete" `Quick test_runtime_tracepoint_complete;
      ] );
  ]
