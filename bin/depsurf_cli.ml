(* The depsurf command-line tool: generate the study dataset and query it.

     depsurf surface --version 5.4            dependency surface counts
     depsurf func --name vfs_fsync            one function's status history
     depsurf diff --from 4.4 --to 5.4         declaration diff summary
     depsurf report --tool biotop             Figure-4 style mismatch matrix
     depsurf corpus                           measured Table 7 summary

   All commands accept --seed and --scale (test or bench). *)

open Cmdliner
open Depsurf
open Ds_ksrc

let version_conv =
  let parse s =
    match String.split_on_char '.' s with
    | [ a; b ] -> (
        match int_of_string_opt a, int_of_string_opt b with
        | Some major, Some minor ->
            let v = Version.v major minor in
            if List.exists (Version.equal v) Version.all then Ok v
            else Error (`Msg ("not in the study: " ^ s))
        | _ -> Error (`Msg ("bad version: " ^ s)))
    | _ -> Error (`Msg ("bad version: " ^ s))
  in
  let print fmt v = Format.pp_print_string fmt (Version.to_string v) in
  Arg.conv (parse, print)

let arch_conv =
  let parse s =
    match List.find_opt (fun a -> Config.arch_to_string a = s) Config.arches with
    | Some a -> Ok a
    | None -> Error (`Msg ("unknown arch: " ^ s))
  in
  Arg.conv (parse, fun fmt a -> Format.pp_print_string fmt (Config.arch_to_string a))

let flavor_conv =
  let parse s =
    match List.find_opt (fun f -> Config.flavor_to_string f = s) Config.flavors with
    | Some f -> Ok f
    | None -> Error (`Msg ("unknown flavor: " ^ s))
  in
  Arg.conv (parse, fun fmt f -> Format.pp_print_string fmt (Config.flavor_to_string f))

let seed_arg =
  Arg.(value & opt int64 Pipeline.default_seed & info [ "seed" ] ~doc:"History seed.")

(* validated in the term (not an [Arg.conv]) so a bad value is a plain
   usage error: one line on stderr, exit 1 — not cmdliner's 124 *)
let scale_arg =
  let raw =
    Arg.(value & opt string "test"
         & info [ "scale" ] ~doc:"Kernel population scale: test or bench.")
  in
  let validate = function
    | "test" -> Calibration.test_scale
    | "bench" -> Calibration.bench_scale
    | s ->
        Printf.eprintf "depsurf: unknown --scale %s (expected test or bench)\n" s;
        exit 1
  in
  Term.(const validate $ raw)

let version_arg =
  Arg.(value & opt version_conv (Version.v 5 4) & info [ "kernel"; "k" ] ~doc:"Kernel version, e.g. 5.4.")

let arch_arg = Arg.(value & opt arch_conv Config.X86 & info [ "arch" ] ~doc:"Architecture.")
let flavor_arg =
  Arg.(value & opt flavor_conv Config.Generic & info [ "flavor" ] ~doc:"Configuration flavor.")

(* ---- persistent artifact cache (ds_store) -------------------------- *)

module Store = Ds_store.Store
module Trace = Ds_trace.Trace

let cache_dir_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "cache-dir" ]
        ~env:(Cmd.Env.info "DEPSURF_CACHE")
        ~doc:
          "On-disk artifact cache directory (also read from \\$DEPSURF_CACHE). When unset, \
           nothing is cached across runs.")

let no_cache_arg =
  Arg.(value & flag & info [ "no-cache" ] ~doc:"Disable the on-disk artifact cache.")

(* the effective cache directory: --no-cache beats --cache-dir/$DEPSURF_CACHE *)
let cache_arg =
  let combine dir no_cache = if no_cache then None else dir in
  Term.(const combine $ cache_dir_arg $ no_cache_arg)

(* open the store (when configured) around a command, persisting the
   hit/miss counters into <dir>/stats.json on the way out *)
let with_store cache f =
  match cache with
  | None -> f None
  | Some dir ->
      let store = Store.open_ ~dir () in
      Fun.protect ~finally:(fun () -> Store.save_counters store) (fun () -> f (Some store))

let mk_ds seed scale store = Dataset.build ~seed ?store scale

let jobs_arg =
  let raw =
    Arg.(value & opt (some int) None
         & info [ "jobs"; "j" ]
             ~doc:"Worker domains for the parallel pipeline (default: \\$DEPSURF_JOBS, or all \
                   cores).")
  in
  let validate = function
    | Some n when n < 1 ->
        Printf.eprintf "depsurf: --jobs must be >= 1 (got %d)\n" n;
        exit 1
    | j -> j
  in
  Term.(const validate $ raw)

(* run [f] with a domain pool sized by --jobs, shut down on exit *)
let with_pool jobs f =
  let jobs = match jobs with Some n -> n | None -> Ds_util.Par.default_jobs () in
  Ds_util.Par.run ~jobs f

(* A corrupt type reference in an object's BTF passes the strict object
   reader and shows only once the analysis resolves it: report it as a
   fatal diagnostic, worded like serve's 400 answer, not as an uncaught
   exception. *)
let or_bad_btf f =
  try f ()
  with Ds_btf.Btf.Bad_btf m ->
    let d = Ds_util.Diag.v Ds_util.Diag.Fatal ~component:"obj" ("bad BPF object: BTF " ^ m) in
    prerr_endline (Ds_util.Diag.to_string d);
    exit (Ds_util.Diag.exit_code [ d ])

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let write_file path data =
  let oc = open_out_bin path in
  output_string oc data;
  close_out oc

(* ---- span tracing (--trace-out) ------------------------------------ *)

let trace_out_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace-out" ] ~docv:"FILE"
        ~doc:
          "Record a span trace of the whole run and write it as Chrome trace_event JSON to \\$(docv) (load it in chrome://tracing or Perfetto, or feed it to depsurf trace).")

(* run [f] under a root span and dump the rings on the way out *)
let with_trace trace_out ~name f =
  match trace_out with
  | None -> f ()
  | Some path ->
      Trace.enable ();
      let result = Trace.span ~name f in
      let sps = Trace.spans () in
      write_file path (Ds_util.Json.to_string (Trace.chrome_json sps) ^ "\n");
      Printf.eprintf "depsurf: wrote %d spans to %s (%d dropped)\n" (List.length sps) path
        (Trace.drops ());
      result

(* ---- surface ------------------------------------------------------- *)

let surface_cmd =
  let run seed scale cache v arch flavor =
    with_store cache @@ fun store ->
    let ds = mk_ds seed scale store in
    let s = Dataset.surface ds v Config.{ arch; flavor } in
    let f, st, tp, sc = Surface.counts s in
    Printf.printf "%s (gcc %d.%d)\n" (Surface.tag s) (fst s.Surface.s_gcc) (snd s.Surface.s_gcc);
    Printf.printf "  functions:   %d\n  structs:     %d\n  tracepoints: %d\n  syscalls:    %d\n"
      f st tp sc;
    let ic = Func_status.inline_census s in
    Printf.printf "  fully inlined: %.1f%%  selectively inlined: %.1f%%\n"
      (Ds_util.Stats.percent ic.Func_status.ic_full ic.Func_status.ic_total)
      (Ds_util.Stats.percent ic.Func_status.ic_selective ic.Func_status.ic_total);
    let tc = Func_status.transform_census s in
    Printf.printf "  transformed: %.1f%%\n"
      (Ds_util.Stats.percent tc.Func_status.tc_any tc.Func_status.tc_total)
  in
  Cmd.v (Cmd.info "surface" ~doc:"Show a kernel image's dependency surface.")
    Term.(const run $ seed_arg $ scale_arg $ cache_arg $ version_arg $ arch_arg $ flavor_arg)

(* ---- func ---------------------------------------------------------- *)

let func_cmd =
  let name_arg =
    Arg.(required & opt (some string) None & info [ "name"; "n" ] ~doc:"Function name.")
  in
  let run seed scale cache name =
    with_store cache @@ fun store ->
    let ds = mk_ds seed scale store in
    List.iter
      (fun v ->
        let s = Dataset.surface ds v Config.x86_generic in
        match Surface.find_func s name with
        | None -> Printf.printf "%-8s absent\n" (Version.to_string v)
        | Some fe ->
            let status =
              match Func_status.inline_status fe with
              | Func_status.Fully_inlined -> "fully inlined"
              | Func_status.Selectively_inlined -> "selectively inlined"
              | Func_status.Not_inlined ->
                  if fe.Surface.fe_symbols <> [] then "attachable" else "no symbol"
            in
            let proto = Surface.representative_proto fe in
            Printf.printf "%-8s %-20s %s\n" (Version.to_string v) status
              (Ds_ctypes.Ctype.proto_to_string ~name proto))
      Version.all
  in
  Cmd.v (Cmd.info "func" ~doc:"Trace one kernel function across all versions.")
    Term.(const run $ seed_arg $ scale_arg $ cache_arg $ name_arg)

(* ---- diff ---------------------------------------------------------- *)

let diff_cmd =
  let from_arg =
    Arg.(value & opt version_conv (Version.v 4 4) & info [ "from" ] ~doc:"Old version.")
  in
  let to_arg =
    Arg.(value & opt version_conv (Version.v 5 4) & info [ "to" ] ~doc:"New version.")
  in
  let run seed scale cache vfrom vto =
    with_store cache @@ fun store ->
    let ds = mk_ds seed scale store in
    let a = Dataset.surface ds vfrom Config.x86_generic in
    let b = Dataset.surface ds vto Config.x86_generic in
    let d = Diff.compare_surfaces Diff.Across_versions a b in
    let pr : 'c. string -> 'c Diff.item_diff -> int -> unit =
     fun name id total ->
      Printf.printf "%-12s %5d -> added %d (%.0f%%), removed %d (%.0f%%), changed %d (%.0f%%)\n"
        name total (List.length id.Diff.d_added)
        (Ds_util.Stats.percent (List.length id.Diff.d_added) total)
        (List.length id.Diff.d_removed)
        (Ds_util.Stats.percent (List.length id.Diff.d_removed) total)
        (List.length id.Diff.d_changed)
        (Ds_util.Stats.percent (List.length id.Diff.d_changed) total)
    in
    let f, st, tp, _ = Surface.counts a in
    Printf.printf "%s -> %s\n" (Surface.tag a) (Surface.tag b);
    pr "functions" d.Diff.df_funcs f;
    pr "structs" d.Diff.df_structs st;
    pr "tracepoints" d.Diff.df_tracepoints tp;
    print_endline "\nsample function changes:";
    List.iteri
      (fun i (name, cs) ->
        if i < 8 then
          Printf.printf "  %-32s %s\n" name
            (String.concat "; " (List.map Diff.describe_func_change cs)))
      d.Diff.df_funcs.Diff.d_changed
  in
  Cmd.v (Cmd.info "diff" ~doc:"Diff two kernel versions' dependency surfaces.")
    Term.(const run $ seed_arg $ scale_arg $ cache_arg $ from_arg $ to_arg)

(* ---- report -------------------------------------------------------- *)

let report_cmd =
  let tool_arg =
    Arg.(required & opt (some string) None & info [ "tool"; "t" ] ~doc:"Corpus tool name (Table 7).")
  in
  let json_arg =
    Arg.(value & flag & info [ "json" ] ~doc:"Emit the report as JSON (v1 envelope).")
  in
  let run seed scale cache jobs tool json trace_out =
    with_store cache @@ fun store ->
    match Ds_corpus.Table7.find tool with
    | None ->
        Printf.eprintf "unknown tool %s; pick one of: %s\n" tool
          (String.concat ", "
             (List.map (fun (p : Ds_corpus.Table7.profile) -> p.pr_name) Ds_corpus.Table7.programs));
        exit 1
    | Some _ ->
        with_trace trace_out ~name:"depsurf.report" @@ fun () ->
        let ds = Trace.span ~name:"report.dataset" (fun () -> mk_ds seed scale store) in
        or_bad_btf @@ fun () ->
        with_pool jobs @@ fun pool ->
        Trace.span ~name:"report.warm" (fun () ->
            Dataset.warm_list ~pool ds
              ((Version.v 5 4, Config.x86_generic) :: Dataset.fig4_images));
        let built =
          Trace.span ~name:"report.corpus" (fun () -> Ds_corpus.Corpus.build_all ds ())
        in
        let _, obj =
          List.find (fun ((p : Ds_corpus.Table7.profile), _) -> p.pr_name = tool) built
        in
        let m = Trace.span ~name:"report.analyze" (fun () -> Pipeline.analyze ds obj) in
        Trace.span ~name:"report.render" (fun () ->
            if json then print_endline (Ds_util.Json.to_string (Api.envelope (Export.matrix m)))
            else print_string (Report.render_matrix m))
  in
  Cmd.v (Cmd.info "report" ~doc:"Figure-4 style mismatch matrix for a corpus tool.")
    Term.(
      const run $ seed_arg $ scale_arg $ cache_arg $ jobs_arg $ tool_arg $ json_arg
      $ trace_out_arg)

(* ---- dump ---------------------------------------------------------- *)

let dump_cmd =
  let tool_arg =
    Arg.(required & opt (some string) None & info [ "tool"; "t" ] ~doc:"Corpus tool name.")
  in
  let run seed scale cache tool =
    with_store cache @@ fun store ->
    let ds = mk_ds seed scale store in
    match Ds_corpus.Table7.find tool with
    | None ->
        Printf.eprintf "unknown tool %s\n" tool;
        exit 1
    | Some _ ->
        let built = Ds_corpus.Corpus.build_all ds () in
        let _, obj =
          List.find (fun ((p : Ds_corpus.Table7.profile), _) -> p.pr_name = tool) built
        in
        print_string (Ds_bpf.Disasm.obj obj)
  in
  Cmd.v
    (Cmd.info "dump" ~doc:"Disassemble a corpus tool's object (bpftool prog dump style).")
    Term.(const run $ seed_arg $ scale_arg $ cache_arg $ tool_arg)

(* ---- export -------------------------------------------------------- *)

let export_cmd =
  let name_arg =
    Arg.(value & opt (some string) None
         & info [ "func" ] ~doc:"Export one function's status instead of the whole surface.")
  in
  let run seed scale cache v arch flavor name =
    with_store cache @@ fun store ->
    let ds = mk_ds seed scale store in
    let s = Dataset.surface ds v Config.{ arch; flavor } in
    match name with
    | Some fn -> (
        match Surface.find_func s fn with
        | Some fe -> print_endline (Ds_util.Json.to_string (Export.func_status fe))
        | None ->
            Printf.eprintf "no function %s on %s\n" fn (Surface.tag s);
            exit 1)
    | None -> print_endline (Ds_util.Json.to_string (Export.surface s))
  in
  Cmd.v
    (Cmd.info "export"
       ~doc:"Export surface data as JSON in the DepSurf-dataset format (artifact appendix).")
    Term.(
      const run $ seed_arg $ scale_arg $ cache_arg $ version_arg $ arch_arg $ flavor_arg
      $ name_arg)

(* ---- vmlinux-h ------------------------------------------------------ *)

let vmlinux_h_cmd =
  let run seed scale cache v arch flavor =
    with_store cache @@ fun store ->
    let ds = mk_ds seed scale store in
    let k = Dataset.vmlinux ds v Config.{ arch; flavor } in
    print_string (Ds_btf.Btf_dump.vmlinux_h k.Ds_bpf.Vmlinux.v_btf)
  in
  Cmd.v
    (Cmd.info "vmlinux-h"
       ~doc:"Render the image's BTF as a vmlinux.h header (bpftool btf dump format c).")
    Term.(const run $ seed_arg $ scale_arg $ cache_arg $ version_arg $ arch_arg $ flavor_arg)

(* ---- probe --------------------------------------------------------- *)

let probe_cmd =
  let name_arg =
    Arg.(required & opt (some string) None
         & info [ "name"; "n" ] ~doc:"Stable probe name (e.g. block:io_start).")
  in
  let run seed scale cache name =
    with_store cache @@ fun store ->
    let ds = mk_ds seed scale store in
    match Compat.find_probe name with
    | None ->
        Printf.eprintf "unknown probe %s; registry has: %s\n" name
          (String.concat ", " (List.map (fun p -> p.Compat.pb_name) Compat.default_registry));
        exit 1
    | Some probe ->
        Printf.printf "%s -- %s\n" probe.Compat.pb_name probe.Compat.pb_doc;
        List.iter
          (fun (label, res) ->
            match res.Compat.rs_hook with
            | Some hook -> Printf.printf "  %-24s -> %s\n" label (Ds_bpf.Hook.to_string hook)
            | None -> Printf.printf "  %-24s -> UNRESOLVED\n" label)
          (Compat.coverage probe ds
             (List.map (fun v -> (v, Config.x86_generic)) Version.all))
  in
  Cmd.v
    (Cmd.info "probe"
       ~doc:"Resolve a stable probe (compatibility layer, paper §6) across kernel versions.")
    Term.(const run $ seed_arg $ scale_arg $ cache_arg $ name_arg)

(* ---- file-based workflows ------------------------------------------ *)

let export_dataset_cmd =
  let dir_arg =
    Arg.(value & opt string "dataset" & info [ "dir" ] ~doc:"Output directory.")
  in
  let run seed scale cache jobs dir =
    with_store cache @@ fun store ->
    let ds = mk_ds seed scale store in
    if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
    with_pool jobs (fun pool -> Dataset.warm_par ~pool ds);
    List.iter
      (fun (v, cfg) ->
        let s = Dataset.surface ds v cfg in
        let name =
          Printf.sprintf "%s/%d.%d-%s-%s.json" dir v.Version.major v.Version.minor
            (Config.arch_to_string cfg.Config.arch)
            (Config.flavor_to_string cfg.Config.flavor)
        in
        write_file name (Ds_util.Json.to_string (Export.surface s));
        Printf.printf "wrote %s\n" name)
      Dataset.study_images
  in
  Cmd.v
    (Cmd.info "export-dataset"
       ~doc:"Write every study surface as JSON (the public DepSurf-dataset layout).")
    Term.(const run $ seed_arg $ scale_arg $ cache_arg $ jobs_arg $ dir_arg)

let gen_images_cmd =
  let dir_arg =
    Arg.(value & opt string "images" & info [ "dir" ] ~doc:"Output directory for vmlinux files.")
  in
  let run seed scale cache jobs dir =
    with_store cache @@ fun store ->
    let ds = mk_ds seed scale store in
    if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
    with_pool jobs (fun pool ->
        ignore
          (Ds_util.Par.map_list_chunked pool
             (fun (v, cfg) -> ignore (Dataset.image ds v cfg))
             Dataset.study_images));
    List.iter
      (fun (v, cfg) ->
        let name =
          Printf.sprintf "%s/vmlinux-%d.%d-%s-%s" dir v.Version.major v.Version.minor
            (Config.arch_to_string cfg.Config.arch)
            (Config.flavor_to_string cfg.Config.flavor)
        in
        write_file name (Ds_elf.Elf.write (Dataset.image ds v cfg));
        Printf.printf "wrote %s\n" name)
      Dataset.study_images
  in
  Cmd.v
    (Cmd.info "gen-images" ~doc:"Write the 25 study vmlinux images to disk.")
    Term.(const run $ seed_arg $ scale_arg $ cache_arg $ jobs_arg $ dir_arg)

let mkobj_cmd =
  let tool_arg =
    Arg.(required & opt (some string) None & info [ "tool"; "t" ] ~doc:"Corpus tool name.")
  in
  let out_arg =
    Arg.(value & opt (some string) None & info [ "out"; "o" ] ~doc:"Output path (default TOOL.bpf.o).")
  in
  let sabotage_arg =
    Arg.(value & flag
         & info [ "sabotage" ]
             ~doc:"Rewrite the first program's instructions into a known verifier-rejected \
                   sequence (a scalar dereference), for exercising the doctor//v1/verify \
                   rejection paths.")
  in
  let run seed scale cache tool out sabotage =
    with_store cache @@ fun store ->
    let ds = mk_ds seed scale store in
    match Ds_corpus.Table7.find tool with
    | None ->
        Printf.eprintf "unknown tool %s\n" tool;
        exit 1
    | Some _ ->
        let built = Ds_corpus.Corpus.build_all ds () in
        let _, obj =
          List.find (fun ((p : Ds_corpus.Table7.profile), _) -> p.pr_name = tool) built
        in
        let obj =
          if not sabotage then obj
          else
            match obj.Ds_bpf.Obj.o_progs with
            | [] -> obj
            | p :: rest ->
                (* r1 (the ctx pointer) overwritten with a scalar, then
                   dereferenced: rejected as unsafe-load-scalar *)
                let bad =
                  Ds_bpf.Insn.
                    [
                      Mov_imm { dst = 1; imm = 7 };
                      Ldx { dst = 2; src = 1; off = 0; size = DW };
                      Mov_imm { dst = 0; imm = 0 };
                      Exit;
                    ]
                in
                {
                  obj with
                  Ds_bpf.Obj.o_progs =
                    { p with Ds_bpf.Obj.p_insns = bad; p_relocs = [] } :: rest;
                }
        in
        let path = Option.value ~default:(tool ^ ".bpf.o") out in
        write_file path (Ds_bpf.Obj.write obj);
        Printf.printf "wrote %s\n" path
  in
  Cmd.v
    (Cmd.info "mkobj" ~doc:"Write a corpus tool's eBPF object file to disk.")
    Term.(const run $ seed_arg $ scale_arg $ cache_arg $ tool_arg $ out_arg $ sabotage_arg)

let analyze_cmd =
  let obj_arg =
    Arg.(required & opt (some string) None & info [ "obj" ] ~doc:"Path to an eBPF object file.")
  in
  let image_dir_arg =
    Arg.(value & opt (some string) None
         & info [ "images" ] ~doc:"Directory of vmlinux files (from gen-images); default: the \
                                   in-memory study dataset.")
  in
  let dataset_dir_arg =
    Arg.(value & opt (some string) None
         & info [ "dataset" ]
             ~doc:"Directory of surface JSON files (from export-dataset): analyze without any \
                   kernel images.")
  in
  let strict_arg =
    Arg.(value & flag
         & info [ "strict" ]
             ~doc:"Fail on the first malformed byte of an on-disk image instead of degrading.")
  in
  let run seed scale cache jobs obj_path image_dir dataset_dir strict trace_out =
    with_store cache @@ fun store ->
    with_trace trace_out ~name:"depsurf.analyze" @@ fun () ->
    let obj =
      try Ds_util.Diag.ok (Ds_bpf.Obj.read (read_file obj_path))
      with Ds_bpf.Obj.Bad_obj m | Sys_error m ->
        Printf.eprintf "cannot read %s: %s\n" obj_path m;
        exit 1
    in
    let analyze_surfaces surfaces =
      match surfaces with
      | [] ->
          prerr_endline "no surfaces found";
          exit 1
      | baseline :: _ ->
          let deps = Depset.of_obj obj in
          List.iter
            (fun target ->
              let cells =
                List.map
                  (fun dep ->
                    Report.status_letter (Report.worst (Report.statuses ~baseline ~target dep)))
                  deps
              in
              let tag =
                if Surface.degraded target then "~ " ^ Surface.tag target else Surface.tag target
              in
              Printf.printf "%-24s %s\n" tag (String.concat " " cells))
            surfaces;
          Printf.printf "deps: %s\n" (String.concat ", " (List.map Depset.dep_to_string deps));
          if List.exists Surface.degraded surfaces then exit 2
    in
    or_bad_btf @@ fun () ->
    match image_dir, dataset_dir with
    | None, Some dir ->
        let entries = Sys.readdir dir in
        Array.sort compare entries;
        Array.to_list entries
        |> List.filter (fun f -> Filename.check_suffix f ".json")
        |> List.map (fun f -> Import.surface_of_string (read_file (Filename.concat dir f)))
        |> analyze_surfaces
    | None, None ->
        let ds = mk_ds seed scale store in
        with_pool jobs (fun pool ->
            Dataset.warm_list ~pool ds
              ((Version.v 5 4, Config.x86_generic) :: Dataset.fig4_images));
        print_string (Report.render_matrix (Pipeline.analyze ds obj))
    | Some dir, _ ->
        (* file-based: extract each surface from the on-disk image bytes *)
        let entries = Sys.readdir dir in
        Array.sort compare entries;
        let surfaces =
          Array.to_list entries
          |> List.filter (fun f -> String.length f > 8 && String.sub f 0 8 = "vmlinux-")
          |> List.map (fun f ->
                 let bytes = read_file (Filename.concat dir f) in
                 if strict then
                   try Ds_util.Diag.ok (Surface.extract bytes) with
                   | Ds_elf.Elf.Bad_elf m
                   | Ds_btf.Btf.Bad_btf m
                   | Ds_dwarf.Die.Bad_dwarf m
                   | Ds_bpf.Vmlinux.Bad_vmlinux m ->
                       Printf.eprintf "%s: %s\n" f m;
                       exit 1
                 else Ds_util.Diag.ok (Surface.extract ~mode:`Lenient bytes))
        in
        analyze_surfaces surfaces
  in
  Cmd.v
    (Cmd.info "analyze" ~doc:"Analyze an on-disk eBPF object against kernel images.")
    Term.(
      const run $ seed_arg $ scale_arg $ cache_arg $ jobs_arg $ obj_arg $ image_dir_arg
      $ dataset_dir_arg $ strict_arg $ trace_out_arg)

(* ---- doctor -------------------------------------------------------- *)

(* an ELF relocatable with e_machine = EM_BPF (247): a BPF object, not a
   vmlinux image — doctor routes it to the verifier-diagnostics path *)
let is_bpf_object data =
  String.length data >= 20
  && String.sub data 0 4 = "\x7fELF"
  && Char.code data.[18] lor (Char.code data.[19] lsl 8) = 247

let doctor_cmd =
  let image_arg =
    Arg.(required & pos 0 (some string) None
         & info [] ~docv:"FILE"
             ~doc:"Path to a vmlinux image or a BPF object (or any candidate file).")
  in
  let strict_arg =
    Arg.(value & flag
         & info [ "strict" ]
             ~doc:"Strict mode: report only the first malformed byte, as the parsers did \
                   historically.")
  in
  let json_arg =
    Arg.(value & flag
         & info [ "json" ]
             ~doc:"BPF objects only: print the structured rejection report as the public \
                   envelope, byte-identical to POST /v1/verify.")
  in
  let run seed scale cache strict json kernel arch flavor path =
    let module Diag = Ds_util.Diag in
    let data =
      try read_file path
      with Sys_error m ->
        prerr_endline m;
        exit 1
    in
    if is_bpf_object data then begin
      (* per-program verifier-rejection sections, name-checked against
         the study kernel picked by --kernel/--arch/--flavor *)
      with_store cache @@ fun store ->
      let ds = mk_ds seed scale store in
      let rep = Ds_verify.Verify.of_dataset ds kernel Config.{ arch; flavor } data in
      if json then print_string (Ds_util.Json.to_string (Ds_verify.Verify.envelope rep) ^ "\n")
      else print_string (Ds_verify.Verify.render rep);
      exit (Diag.exit_code rep.Ds_verify.Verify.rp_diags)
    end
    else if json then begin
      prerr_endline "depsurf: --json applies to BPF objects only";
      exit 1
    end
    else if strict then begin
      match Ds_util.Diag.ok (Surface.extract data) with
      | s ->
          Printf.printf "%s: clean\n" (Surface.tag s);
          exit 0
      | exception Ds_elf.Elf.Bad_elf m ->
          Printf.printf "fatal elf: %s\n" m;
          exit 1
      | exception Ds_btf.Btf.Bad_btf m ->
          Printf.printf "fatal btf: %s\n" m;
          exit 1
      | exception Ds_dwarf.Die.Bad_dwarf m ->
          Printf.printf "fatal dwarf: %s\n" m;
          exit 1
      | exception Ds_bpf.Vmlinux.Bad_vmlinux m ->
          Printf.printf "fatal vmlinux: %s\n" m;
          exit 1
    end
    else begin
      let s = Ds_util.Diag.ok (Surface.extract ~mode:`Lenient data) in
      let health = Surface.health s in
      let tag =
        if Diag.worst health = Some Diag.Fatal then "unidentified image" else Surface.tag s
      in
      let f, st, tp, sc = Surface.counts s in
      Printf.printf "%s: functions %d, structs %d, tracepoints %d, syscalls %d\n" tag f st tp sc;
      (match health with
      | [] -> print_endline "clean: no diagnostics"
      | diags -> List.iter (fun d -> print_endline ("  " ^ Diag.to_string d)) diags);
      exit (Diag.exit_code health)
    end
  in
  Cmd.v
    (Cmd.info "doctor"
       ~doc:"Diagnose a file's ingestion health: a vmlinux image's surface extraction, or a \
             BPF object's per-program verifier rejections (structured taxonomy reports; \
             --json prints the /v1/verify envelope). Exit 0 when clean, 1 when nothing \
             usable could be extracted, 2 when degraded (including rejected programs).")
    Term.(
      const run $ seed_arg $ scale_arg $ cache_arg $ strict_arg $ json_arg $ version_arg
      $ arch_arg $ flavor_arg $ image_arg)

(* ---- mutate -------------------------------------------------------- *)

let mutate_cmd =
  let in_arg =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"IN" ~doc:"Input file.")
  in
  let out_arg =
    Arg.(value & pos 1 (some string) None
         & info [] ~docv:"OUT" ~doc:"Output file (required unless --survey).")
  in
  let survey_arg =
    Arg.(value & flag
         & info [ "survey" ]
             ~doc:"Run the full seeded mutation corpus against IN and tally the outcomes \
                   instead of writing one mutant. BPF objects tally verifier rejections by \
                   taxonomy rule id; other inputs tally lenient-extraction health. Exits 1 \
                   on any crash or unclassified rejection.")
  in
  let count_arg =
    Arg.(value & opt int 500 & info [ "count" ] ~doc:"Minimum mutants per survey corpus.")
  in
  let trunc_arg =
    Arg.(value & opt (some int) None & info [ "trunc" ] ~doc:"Keep only the first N bytes.")
  in
  let flip_arg =
    Arg.(value & opt (some int) None & info [ "flip" ] ~doc:"Flip the low bit of byte OFFSET.")
  in
  let zero_arg =
    Arg.(value & opt (some string) None
         & info [ "zero" ] ~docv:"POS:LEN" ~doc:"Zero LEN bytes starting at POS.")
  in
  let survey seed count data =
    if is_bpf_object data then begin
      let module V = Ds_verify.Verify in
      (* whole-object mutants through the lenient loader+verifier, plus
         per-program instruction-stream mutants through the verifier;
         one tally, aggregated by taxonomy rule id *)
      let obj = Ds_util.Diag.ok (Ds_bpf.Obj.read ~mode:`Lenient data) in
      let c =
        List.fold_left
          (fun acc p -> V.merge acc (V.campaign_insns ~count ~seed p))
          (V.campaign_obj ~count ~seed data)
          obj.Ds_bpf.Obj.o_progs
      in
      Printf.printf "mutants %d: accepted %d, rejected %d, crashed %d, unclassified %d\n"
        c.V.cp_total c.V.cp_accepted c.V.cp_rejected
        (List.length c.V.cp_crashed) c.V.cp_unclassified;
      List.iter (fun (id, n) -> Printf.printf "  %-28s %d\n" id n) c.V.cp_rules;
      List.iter
        (fun (name, e) -> Printf.printf "  CRASH %s: %s\n" name e)
        c.V.cp_crashed;
      exit (if c.V.cp_crashed <> [] || c.V.cp_unclassified > 0 then 1 else 0)
    end
    else begin
      let muts = Ds_faultgen.Faultgen.mutations ~count ~seed data in
      let health bytes =
        Surface.health (Ds_util.Diag.ok (Surface.extract ~mode:`Lenient bytes))
      in
      let t, crashed = Ds_faultgen.Faultgen.survey health muts in
      Printf.printf "mutants %d: clean %d, degraded %d, fatal %d, crashed %d\n"
        t.Ds_faultgen.Faultgen.n_total t.Ds_faultgen.Faultgen.n_clean
        t.Ds_faultgen.Faultgen.n_degraded t.Ds_faultgen.Faultgen.n_fatal
        t.Ds_faultgen.Faultgen.n_crashed;
      List.iter (fun (name, e) -> Printf.printf "  CRASH %s: %s\n" name e) crashed;
      exit (if t.Ds_faultgen.Faultgen.n_crashed > 0 then 1 else 0)
    end
  in
  let run seed inp outp trunc flip zero do_survey count =
    let data =
      try read_file inp
      with Sys_error m ->
        prerr_endline m;
        exit 1
    in
    if do_survey then survey seed count data;
    let outp =
      match outp with
      | Some p -> p
      | None ->
          prerr_endline "depsurf: OUT is required unless --survey is given";
          exit 1
    in
    let data =
      match trunc with Some n -> Ds_faultgen.Faultgen.truncate data ~len:n | None -> data
    in
    let data =
      match flip with
      | Some b -> Ds_faultgen.Faultgen.flip_bit data ~byte:b ~bit:0
      | None -> data
    in
    let data =
      match zero with
      | None -> data
      | Some spec -> (
          match String.split_on_char ':' spec with
          | [ p; l ] -> (
              match (int_of_string_opt p, int_of_string_opt l) with
              | Some pos, Some len -> Ds_faultgen.Faultgen.zero_range data ~pos ~len
              | _ ->
                  prerr_endline ("bad --zero spec: " ^ spec);
                  exit 1)
          | _ ->
              prerr_endline ("bad --zero spec: " ^ spec);
              exit 1)
    in
    write_file outp data
  in
  Cmd.v
    (Cmd.info "mutate"
       ~doc:"Deterministically corrupt a file (for exercising doctor and the lenient \
             parsers), or --survey a whole seeded mutation corpus and tally outcomes — for \
             BPF objects, by verifier-rejection taxonomy rule.")
    Term.(
      const run $ seed_arg $ in_arg $ out_arg $ trunc_arg $ flip_arg $ zero_arg $ survey_arg
      $ count_arg)

(* ---- corpus -------------------------------------------------------- *)

let corpus_cmd =
  let run seed scale cache jobs trace_out =
    with_store cache @@ fun store ->
    with_trace trace_out ~name:"depsurf.corpus" @@ fun () ->
    let ds = mk_ds seed scale store in
    with_pool jobs @@ fun pool ->
    let built = Ds_corpus.Corpus.build_all ds () in
    let results = Ds_corpus.Corpus.analyze_all ds ~pool built in
    let impacted = List.filter (fun (_, s) -> not (Report.clean s)) results in
    List.iter
      (fun ((pr : Ds_corpus.Table7.profile), s) ->
        Printf.printf "%-12s %s\n" pr.pr_name
          (if Report.clean s then "clean"
           else
             Printf.sprintf
               "absent fn:%d st:%d fld:%d tp:%d sc:%d | changed fn:%d fld:%d tp:%d | F:%d S:%d T:%d D:%d"
               s.Report.ms_absent.Depset.n_funcs s.Report.ms_absent.Depset.n_structs
               s.Report.ms_absent.Depset.n_fields s.Report.ms_absent.Depset.n_tracepoints
               s.Report.ms_absent.Depset.n_syscalls s.Report.ms_changed.Depset.n_funcs
               s.Report.ms_changed.Depset.n_fields s.Report.ms_changed.Depset.n_tracepoints
               s.Report.ms_full_inline s.Report.ms_selective_inline s.Report.ms_transformed
               s.Report.ms_duplicated))
      results;
    Printf.printf "\n%d/%d programs impacted (%.0f%%; paper: 83%%)\n" (List.length impacted)
      (List.length results)
      (Ds_util.Stats.percent (List.length impacted) (List.length results))
  in
  Cmd.v (Cmd.info "corpus" ~doc:"Analyze all 53 Table-7 programs.")
    Term.(const run $ seed_arg $ scale_arg $ cache_arg $ jobs_arg $ trace_out_arg)

(* ---- serve / query -------------------------------------------------- *)

let socket_arg =
  Arg.(value & opt (some string) None
       & info [ "socket" ] ~docv:"PATH" ~doc:"Serve over a Unix domain socket at \\$(docv).")

let port_arg =
  Arg.(value & opt (some int) None
       & info [ "port"; "p" ] ~doc:"Serve over TCP on this port (0 = kernel-chosen).")

let host_arg =
  Arg.(value & opt string "127.0.0.1" & info [ "host" ] ~doc:"TCP bind/connect address.")

let addr_of ~socket ~port ~host =
  match socket, port with
  | Some p, _ -> Ds_serve.Serve.Unix_sock p
  | None, Some port -> Ds_serve.Serve.Tcp (host, port)
  | None, None -> Ds_serve.Serve.Unix_sock "depsurf.sock"

let addr_to_string = function
  | Ds_serve.Serve.Unix_sock p -> "unix:" ^ p
  | Ds_serve.Serve.Tcp (host, port) -> Printf.sprintf "tcp:%s:%d" host port

let serve_cmd =
  let images_dir_arg =
    Arg.(value & opt (some string) None
         & info [ "images" ]
             ~doc:"Also serve surfaces for every vmlinux-* file in this directory (extracted \
                   leniently, keyed by file name).")
  in
  let run seed scale cache jobs socket port host images_dir =
    (* one worker owns the accept loop, so serving needs at least 2 *)
    let jobs =
      match jobs with
      | Some n when n < 2 ->
          Printf.eprintf "depsurf: serve needs --jobs >= 2 (got %d)\n" n;
          exit 1
      | Some n -> Some n
      | None -> Some (max 2 (Ds_util.Par.default_jobs ()))
    in
    with_store cache @@ fun store ->
    let ds = mk_ds seed scale store in
    with_pool jobs @@ fun pool ->
    let t = Ds_serve.Serve.create ?images_dir ~ds ~pool () in
    let h =
      try Ds_serve.Serve.start t (addr_of ~socket ~port ~host)
      with Unix.Unix_error (e, _, arg) ->
        Printf.eprintf "depsurf: cannot listen on %s: %s (%s)\n"
          (addr_to_string (addr_of ~socket ~port ~host))
          (Unix.error_message e) arg;
        exit 1
    in
    Printf.printf "depsurf serve: listening on %s\n"
      (addr_to_string (Ds_serve.Serve.bound_addr h));
    flush stdout;
    (* serve until SIGTERM/SIGINT, then drain gracefully: in-flight
       requests finish (up to the drain deadline) before the listener
       closes and the process exits 0 *)
    let stopping = Atomic.make false in
    let on_signal _ = Atomic.set stopping true in
    (try Sys.set_signal Sys.sigterm (Sys.Signal_handle on_signal)
     with Invalid_argument _ | Sys_error _ -> ());
    (try Sys.set_signal Sys.sigint (Sys.Signal_handle on_signal)
     with Invalid_argument _ | Sys_error _ -> ());
    while not (Atomic.get stopping) do
      try Unix.sleepf 0.2 with Unix.Unix_error (Unix.EINTR, _, _) -> ()
    done;
    Printf.printf "depsurf serve: draining (%d in flight)\n"
      (Ds_serve.Admission.inflight (Ds_serve.Serve.admission t));
    flush stdout;
    Ds_serve.Serve.stop h;
    Printf.printf "depsurf serve: stopped\n";
    flush stdout
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:"Run the dependency-surface query service (GET /v1/healthz, /v1/images, \
             /v1/surface/IMAGE, /v1/diff/A/B, /v1/metrics, /v1/trace/recent; POST \
             /v1/mismatch, /v1/verify; any path outside /v1 answers 404).")
    Term.(
      const run $ seed_arg $ scale_arg $ cache_arg $ jobs_arg $ socket_arg $ port_arg
      $ host_arg $ images_dir_arg)

let query_cmd =
  let path_arg =
    Arg.(required & pos 0 (some string) None
         & info [] ~docv:"PATH" ~doc:"Request path, e.g. /v1/healthz or /v1/surface/5.4-x86-generic.")
  in
  let data_arg =
    Arg.(value & opt (some string) None
         & info [ "data"; "d" ] ~docv:"FILE"
             ~doc:"Send \\$(docv)'s bytes as the request body (implies POST).")
  in
  let meth_arg =
    Arg.(value & opt (some string) None
         & info [ "method"; "X" ] ~doc:"HTTP method (default: GET, or POST with --data).")
  in
  let header_arg =
    Arg.(value & opt_all string []
         & info [ "header"; "H" ] ~docv:"NAME: VALUE"
             ~doc:"Add a request header (repeatable), e.g. -H 'If-None-Match: \"abc\"'.")
  in
  let include_arg =
    Arg.(value & flag
         & info [ "include"; "i" ]
             ~doc:"Print the response status line and headers before the body.")
  in
  let retries_arg =
    Arg.(value & opt int 0
         & info [ "retries" ] ~docv:"N"
             ~doc:"Retry GETs up to \\$(docv) times on connection errors and 503s, with \
                   capped exponential backoff honouring Retry-After. Non-GET requests are \
                   never retried.")
  in
  let run socket port host path data meth hdrs incl retries =
    let addr = addr_of ~socket ~port ~host in
    let body =
      Option.map
        (fun f ->
          try read_file f
          with Sys_error m ->
            prerr_endline m;
            exit 1)
        data
    in
    let meth =
      match meth with Some m -> m | None -> if body = None then "GET" else "POST"
    in
    let headers =
      List.map
        (fun h ->
          match Ds_util.Strutil.cut ~on:':' h with
          | Some (name, value) -> (String.trim name, String.trim value)
          | None ->
              Printf.eprintf "depsurf: bad --header %S (want 'Name: value')\n" h;
              exit 1)
        hdrs
    in
    let do_request () =
      if retries > 0 && meth = "GET" && body = None then
        Ds_serve.Serve.Client.request_retry ~headers ~retries addr ~meth ~path
      else Ds_serve.Serve.Client.request_full ?body ~headers addr ~meth ~path
    in
    match do_request () with
    | status, rheaders, response ->
        if incl then begin
          Printf.printf "HTTP/1.1 %d\n" status;
          List.iter (fun (k, v) -> Printf.printf "%s: %s\n" k v) rheaders;
          print_newline ()
        end;
        print_string response;
        if status >= 400 then exit 1
    | exception Unix.Unix_error (e, _, _) ->
        Printf.eprintf "depsurf: cannot reach %s: %s\n" (addr_to_string addr)
          (Unix.error_message e);
        exit 1
  in
  Cmd.v
    (Cmd.info "query" ~doc:"Send one request to a running depsurf serve instance.")
    Term.(
      const run $ socket_arg $ port_arg $ host_arg $ path_arg $ data_arg $ meth_arg
      $ header_arg $ include_arg $ retries_arg)


(* ---- watch (release subscriptions over a running serve) ------------- *)

let watch_request ?body ?(meth = "GET") ~socket ~port ~host path =
  let addr = addr_of ~socket ~port ~host in
  match Ds_serve.Serve.Client.request_full ?body addr ~meth ~path with
  | resp -> resp
  | exception Unix.Unix_error (e, _, _) ->
      Printf.eprintf "depsurf: cannot reach %s: %s\n" (addr_to_string addr)
        (Unix.error_message e);
      exit 1

let watch_fail body =
  (* surface the server's structured diagnostics, not raw JSON *)
  (match Ds_util.Json.of_string body with
  | exception Ds_util.Json.Parse_error _ -> prerr_endline body
  | j -> (
      (match Ds_util.Json.member "diagnostics" j with
      | Some (Ds_util.Json.List l) ->
          List.iter
            (function Ds_util.Json.String m -> Printf.eprintf "depsurf: %s\n" m | _ -> ())
            l
      | _ -> ());
      match Ds_util.Json.member "data" j with
      | Some (Ds_util.Json.Obj fs) -> (
          match List.assoc_opt "error" fs with
          | Some (Ds_util.Json.String m) -> Printf.eprintf "depsurf: %s\n" m
          | _ -> ())
      | _ -> prerr_endline body));
  exit 1

let watch_dep_arg =
  Arg.(value & opt_all string []
       & info [ "dep" ] ~docv:"KIND:NAME"
           ~doc:"Depend on this construct, e.g. func:vfs_read, struct:task_struct, \
                 tracepoint:sched_switch, syscall:openat, field:file.f_op (repeatable).")

let watch_label_arg =
  Arg.(value & opt (some string) None
       & info [ "label" ] ~doc:"Human-readable subscription label.")

(* the registration body travels as the v1 mutation envelope — the CLI
   is the reference client for the enveloped spelling *)
let register_body deps label =
  let fields =
    ("deps", Ds_util.Json.List (List.map (fun d -> Ds_util.Json.String d) deps))
    :: (match label with Some l -> [ ("label", Ds_util.Json.String l) ] | None -> [])
  in
  Ds_util.Json.to_string
    (Ds_util.Json.Obj
       [ ("v", Ds_util.Json.Int 1); ("body", Ds_util.Json.Obj fields) ])

let register_sub ~socket ~port ~host deps label =
  let body = register_body deps label in
  let status, _, rbody =
    watch_request ~meth:"POST" ~body ~socket ~port ~host "/v1/subscriptions"
  in
  if status <> 200 then watch_fail rbody;
  match
    Option.bind (Ds_util.Json.member "data" (Ds_util.Json.of_string rbody))
      (Ds_util.Json.member "id")
  with
  | Some (Ds_util.Json.String id) -> (id, rbody)
  | _ ->
      prerr_endline rbody;
      exit 1

let watch_register_cmd =
  let run socket port host deps label =
    if deps = [] then begin
      Printf.eprintf "depsurf: watch register needs at least one --dep\n";
      exit 1
    end;
    let _, rbody = register_sub ~socket ~port ~host deps label in
    print_endline rbody
  in
  Cmd.v
    (Cmd.info "register"
       ~doc:"Register a depset subscription (idempotent: the id is a content digest of \
             the canonical depset).")
    Term.(const run $ socket_arg $ port_arg $ host_arg $ watch_dep_arg $ watch_label_arg)

let watch_list_cmd =
  let run socket port host =
    let status, _, rbody = watch_request ~socket ~port ~host "/v1/subscriptions" in
    if status <> 200 then watch_fail rbody;
    print_endline rbody
  in
  Cmd.v
    (Cmd.info "list" ~doc:"List registered subscriptions and the current event cursor.")
    Term.(const run $ socket_arg $ port_arg $ host_arg)

let watch_sub_pos =
  Arg.(required & pos 0 (some string) None & info [] ~docv:"SUB-ID")

let watch_unregister_cmd =
  let run socket port host id =
    let status, _, rbody =
      watch_request ~meth:"DELETE" ~socket ~port ~host ("/v1/subscriptions/" ^ id)
    in
    if status <> 200 then watch_fail rbody;
    print_endline rbody
  in
  Cmd.v
    (Cmd.info "unregister" ~doc:"Delete a subscription (and its recorded events).")
    Term.(const run $ socket_arg $ port_arg $ host_arg $ watch_sub_pos)

let watch_ingest_cmd =
  let base_arg =
    Arg.(required & opt (some string) None
         & info [ "base" ] ~docv:"IMAGE"
             ~doc:"Study-matrix base image the release evolves from, e.g. 5.4-x86-generic.")
  in
  let name_arg =
    Arg.(value & opt string "release"
         & info [ "name" ] ~doc:"Label for the ingested release in recorded events.")
  in
  let kind_arg =
    Arg.(value & opt string "image"
         & info [ "kind" ] ~docv:"image|surface"
             ~doc:"Payload kind: a raw vmlinux image (extracted leniently) or \
                   pre-encoded surface codec bytes.")
  in
  let file_pos =
    Arg.(required & pos 0 (some string) None
         & info [] ~docv:"FILE" ~doc:"The release payload.")
  in
  let run socket port host base name kind file =
    let body =
      try read_file file
      with Sys_error m ->
        prerr_endline m;
        exit 1
    in
    let path =
      Printf.sprintf "/v1/watch/ingest?base=%s&name=%s&kind=%s" base name kind
    in
    let status, _, rbody = watch_request ~meth:"POST" ~body ~socket ~port ~host path in
    if status <> 200 then watch_fail rbody;
    print_endline rbody
  in
  Cmd.v
    (Cmd.info "ingest"
       ~doc:"Ingest an evolved release against a base image: delta-encode it into the \
             store and notify matching subscriptions.")
    Term.(
      const run $ socket_arg $ port_arg $ host_arg $ base_arg $ name_arg $ kind_arg
      $ file_pos)

let watch_follow_cmd =
  let sub_pos =
    Arg.(value & pos 0 (some string) None
         & info [] ~docv:"SUB-ID" ~doc:"Subscription to follow (or use --dep to \
                                        register-and-follow).")
  in
  let since_arg =
    Arg.(value & opt int 0
         & info [ "since" ] ~docv:"CURSOR" ~doc:"Replay events after this cursor first.")
  in
  let wait_arg =
    Arg.(value & opt float 25.
         & info [ "wait" ] ~docv:"SECONDS" ~doc:"Long-poll park time per request.")
  in
  let polls_arg =
    Arg.(value & opt int 0
         & info [ "polls" ] ~docv:"N"
             ~doc:"Stop after \\$(docv) polls (0 = follow forever). A poll that delivers \
                   events and one that times out both count.")
  in
  let run socket port host sub deps label since wait polls =
    let id =
      match (sub, deps) with
      | Some id, [] -> id
      | None, _ :: _ ->
          let id, _ = register_sub ~socket ~port ~host deps label in
          Printf.printf "depsurf watch: following %s\n" id;
          flush stdout;
          id
      | Some _, _ :: _ ->
          Printf.eprintf "depsurf: pass either SUB-ID or --dep, not both\n";
          exit 1
      | None, [] ->
          Printf.eprintf "depsurf: watch follow needs a SUB-ID or --dep flags\n";
          exit 1
    in
    let cursor = ref since in
    let n = ref 0 in
    let stop = ref false in
    while not !stop do
      incr n;
      let path = Printf.sprintf "/v1/watch/%s?since=%d&wait=%g" id !cursor wait in
      let status, _, rbody = watch_request ~socket ~port ~host path in
      (match status with
      | 200 -> (
          print_endline rbody;
          flush stdout;
          match
            Option.bind (Ds_util.Json.member "data" (Ds_util.Json.of_string rbody))
              (Ds_util.Json.member "cursor")
          with
          | Some (Ds_util.Json.Int c) -> cursor := max !cursor c
          | _ -> ())
      | 204 -> () (* park timed out (or the server drained): poll again *)
      | _ -> watch_fail rbody);
      if polls > 0 && !n >= polls then stop := true
    done
  in
  Cmd.v
    (Cmd.info "follow"
       ~doc:"Long-poll a subscription's mismatch events, resuming from a cursor. With \
             --dep, registers the depset first (idempotent) and follows it.")
    Term.(
      const run $ socket_arg $ port_arg $ host_arg $ sub_pos $ watch_dep_arg
      $ watch_label_arg $ since_arg $ wait_arg $ polls_arg)

let watch_cmd =
  Cmd.group
    (Cmd.info "watch"
       ~doc:"Standing release monitoring against a running depsurf serve: register \
             depset subscriptions, ingest evolved releases, follow mismatch events.")
    [ watch_register_cmd; watch_list_cmd; watch_unregister_cmd; watch_ingest_cmd;
      watch_follow_cmd ]

(* ---- trace analysis ------------------------------------------------- *)

let trace_file_arg =
  Arg.(
    required
    & pos 0 (some string) None
    & info [] ~docv:"TRACE" ~doc:"Chrome trace_event JSON file written by --trace-out.")

let load_trace path =
  let data =
    try read_file path
    with Sys_error m ->
      prerr_endline m;
      exit 1
  in
  match Trace.of_chrome (Ds_util.Json.of_string data) with
  | sps -> sps
  | exception Ds_util.Json.Parse_error m ->
      Printf.eprintf "%s: bad JSON: %s\n" path m;
      exit 1
  | exception Trace.Bad_trace m ->
      Printf.eprintf "%s: bad trace: %s\n" path m;
      exit 1

let trace_top_cmd =
  let run path = print_string (Trace.top_table (load_trace path)) in
  Cmd.v
    (Cmd.info "top" ~doc:"Per-span-name self-time table (hottest first).")
    Term.(const run $ trace_file_arg)

let trace_flame_cmd =
  let run path = print_string (Trace.collapsed (load_trace path)) in
  Cmd.v
    (Cmd.info "flame"
       ~doc:"Collapsed-stack flamegraph text (one 'root;..;leaf self_us' line per path; feed              to flamegraph.pl).")
    Term.(const run $ trace_file_arg)

let trace_validate_cmd =
  let min_coverage_arg =
    Arg.(
      value & opt float 0.90
      & info [ "min-coverage" ]
          ~doc:"Minimum fraction of the root span's wall time that must be attributed to its                 descendants.")
  in
  let run min_coverage path =
    let sps = load_trace path in
    if sps = [] then begin
      Printf.eprintf "%s: empty trace\n" path;
      exit 1
    end;
    (match Trace.well_nested sps with
    | Some (child, parent) ->
        Printf.eprintf "%s: span %d escapes its parent %d's interval\n" path child parent;
        exit 1
    | None -> ());
    let cov = Trace.coverage sps in
    Printf.printf "%s: %d spans, well nested, coverage %.3f\n" path (List.length sps) cov;
    if cov < min_coverage then begin
      Printf.eprintf "%s: coverage %.3f below the %.2f floor\n" path cov min_coverage;
      exit 1
    end
  in
  Cmd.v
    (Cmd.info "validate"
       ~doc:"Check a trace file: non-empty, well-nested spans, root coverage above the floor.              Exit 1 on any failure.")
    Term.(const run $ min_coverage_arg $ trace_file_arg)

let trace_cmd =
  let default = Term.(ret (const (`Help (`Pager, Some "trace")))) in
  Cmd.group
    (Cmd.info "trace" ~doc:"Analyze span traces recorded with --trace-out.")
    ~default
    [ trace_top_cmd; trace_flame_cmd; trace_validate_cmd ]

(* ---- dependency graph ----------------------------------------------- *)

let node_conv =
  let parse s =
    match Depset.dep_of_string s with
    | Some d -> Ok d
    | None ->
        Error (`Msg ("bad node (want kind:name, e.g. func:vfs_fsync or struct:request): " ^ s))
  in
  Arg.conv (parse, fun fmt d -> Format.pp_print_string fmt (Depset.dep_to_string d))

let node_arg =
  Arg.(
    required
    & pos 0 (some node_conv) None
    & info [] ~docv:"NODE"
        ~doc:
          "Graph node in kind:name syntax (func:, struct:, field:STRUCT::FIELD, tracepoint:, \
           syscall:); a bare name means func:.")

let graph_image_arg =
  Arg.(
    value & opt string "5.4-x86-generic"
    & info [ "image" ] ~doc:"Study image, e.g. 5.4-x86-generic.")

let graph_json_arg =
  Arg.(
    value & flag
    & info [ "json" ]
        ~doc:"Emit the v1 envelope JSON, byte-identical to the /v1/graph/... endpoint.")

let graph_query_cmd name doc dir =
  let transitive_arg =
    Arg.(value & flag
         & info [ "transitive" ] ~doc:"Full transitive closure instead of direct neighbours.")
  in
  let run seed scale cache jobs image transitive json node =
    with_store cache @@ fun store ->
    let v, cfg =
      match Ds_serve.Serve.image_of_name image with
      | Some i -> i
      | None ->
          Printf.eprintf "depsurf: unknown image %s (want e.g. 5.4-x86-generic)\n" image;
          exit 1
    in
    let ds = mk_ds seed scale store in
    with_pool jobs @@ fun pool ->
    let g = Ds_graph.Graph.of_dataset ~pool ds v cfg in
    if json then
      print_endline
        (Ds_util.Json.to_string (Api.envelope (Ds_graph.Graph.query_json g ~dir ~transitive node)))
    else print_string (Ds_graph.Graph.query_table g ~dir ~transitive node)
  in
  Cmd.v (Cmd.info name ~doc)
    Term.(
      const run $ seed_arg $ scale_arg $ cache_arg $ jobs_arg $ graph_image_arg $ transitive_arg
      $ graph_json_arg $ node_arg)

let graph_blast_cmd =
  let release_arg =
    Arg.(
      required
      & opt (some version_conv) None
      & info [ "release"; "r" ] ~doc:"The release the change lands in, e.g. 5.4.")
  in
  let run seed scale cache jobs release json node =
    with_store cache @@ fun store ->
    let ds = mk_ds seed scale store in
    with_pool jobs @@ fun pool ->
    match Ds_graph.Blast.query ~pool ds ~release node with
    | Error m ->
        Printf.eprintf "depsurf: %s\n" m;
        exit 1
    | Ok r ->
        if json then
          print_endline (Ds_util.Json.to_string (Api.envelope (Ds_graph.Blast.json r)))
        else print_string (Ds_graph.Blast.table r)
  in
  Cmd.v
    (Cmd.info "blast"
       ~doc:
         "Blast radius: the corpus programs transitively affected if NODE changes (or \
          disappears) in --release, via the reverse closure on the previous release's graph.")
    Term.(
      const run $ seed_arg $ scale_arg $ cache_arg $ jobs_arg $ release_arg $ graph_json_arg
      $ node_arg)

let graph_cmd =
  let default = Term.(ret (const (`Help (`Pager, Some "graph")))) in
  Cmd.group
    (Cmd.info "graph"
       ~doc:
         "Query the transitive dependency graph (deps, rdeps, blast radius) of the study \
          images.")
    ~default
    [
      graph_query_cmd "deps" "Direct (or --transitive) dependencies of a node." `Deps;
      graph_query_cmd "rdeps"
        "Reverse dependencies: what depends on a node (the blast direction)." `Rdeps;
      graph_blast_cmd;
    ]

(* ---- cache maintenance --------------------------------------------- *)

(* maintenance needs an actual directory; --no-cache makes no sense here *)
let require_cache_dir cache =
  match cache with
  | Some dir -> dir
  | None ->
      prerr_endline "no cache directory: pass --cache-dir or set DEPSURF_CACHE";
      exit 1

let cache_stats_cmd =
  let run cache =
    let dir = require_cache_dir cache in
    let c = Store.lifetime ~dir in
    Printf.printf "lifetime: hits %d misses %d evictions %d writes %d bytes_read %d bytes_written %d\n"
      c.Store.c_hits c.Store.c_misses c.Store.c_evictions c.Store.c_writes c.Store.c_bytes_read
      c.Store.c_bytes_written;
    let es = Store.entries ~dir in
    let total = List.fold_left (fun a (e : Store.entry) -> a + e.Store.e_bytes) 0 es in
    Printf.printf "entries %d bytes %d\n" (List.length es) total;
    let by_ns = Hashtbl.create 8 in
    List.iter
      (fun (e : Store.entry) ->
        let n, b = Option.value ~default:(0, 0) (Hashtbl.find_opt by_ns e.Store.e_ns) in
        Hashtbl.replace by_ns e.Store.e_ns (n + 1, b + e.Store.e_bytes))
      es;
    List.iter
      (fun ns ->
        match Hashtbl.find_opt by_ns ns with
        | Some (n, b) -> Printf.printf "  %-8s %5d entries %10d bytes\n" ns n b
        | None -> ())
      (List.sort compare (Hashtbl.fold (fun ns _ acc -> ns :: acc) by_ns []))
  in
  Cmd.v
    (Cmd.info "stats" ~doc:"Show lifetime hit/miss counters and per-namespace entry counts.")
    Term.(const run $ cache_arg)

let cache_verify_cmd =
  let run cache =
    let dir = require_cache_dir cache in
    let ok, evicted = Store.verify ~dir in
    Printf.printf "verified %d entries, corrupt %d (evicted)\n" ok evicted
  in
  Cmd.v
    (Cmd.info "verify" ~doc:"Re-check every entry's frame; evict the broken ones.")
    Term.(const run $ cache_arg)

let cache_gc_cmd =
  let max_mb_arg =
    Arg.(value & opt int 256 & info [ "max-mb" ] ~doc:"Target store size in MiB (oldest evicted first).")
  in
  let run cache max_mb =
    let dir = require_cache_dir cache in
    let evicted = Store.gc ~dir ~max_bytes:(max_mb * 1024 * 1024) in
    Printf.printf "evicted %d entries\n" evicted
  in
  Cmd.v
    (Cmd.info "gc" ~doc:"Evict oldest entries until the store fits the size budget.")
    Term.(const run $ cache_arg $ max_mb_arg)

let cache_clear_cmd =
  let run cache =
    let dir = require_cache_dir cache in
    let n = Store.clear ~dir in
    Printf.printf "cleared %d entries\n" n
  in
  Cmd.v (Cmd.info "clear" ~doc:"Delete every cache entry.") Term.(const run $ cache_arg)

let cache_cmd =
  let default = Term.(ret (const (`Help (`Pager, Some "cache")))) in
  Cmd.group
    (Cmd.info "cache" ~doc:"Inspect and maintain the on-disk artifact cache.")
    ~default
    [ cache_stats_cmd; cache_verify_cmd; cache_gc_cmd; cache_clear_cmd ]

let () =
  (* store evictions report through Logs; route them to stderr *)
  Logs.set_reporter (Logs_fmt.reporter ());
  Logs.set_level (Some Logs.Warning);
  let default = Term.(ret (const (`Help (`Pager, None)))) in
  exit
    (Cmd.eval
       (Cmd.group
          (Cmd.info "depsurf" ~version:"1.0.0"
             ~doc:"Dependency-surface analysis for eBPF programs (EuroSys '25 reproduction).")
          ~default
          [ surface_cmd; func_cmd; diff_cmd; report_cmd; corpus_cmd; dump_cmd; export_cmd;
             probe_cmd; vmlinux_h_cmd; gen_images_cmd; mkobj_cmd; analyze_cmd; doctor_cmd;
             mutate_cmd; export_dataset_cmd; serve_cmd; query_cmd; watch_cmd; trace_cmd; graph_cmd;
             cache_cmd ]))
