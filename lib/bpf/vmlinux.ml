open Ds_elf
open Ds_ksrc
module Bytesio = Ds_util.Bytesio
module Diag = Ds_util.Diag

type tracepoint = {
  vtp_event : string;
  vtp_class : string;
  vtp_func : string option;
  vtp_fmt : string;
}

type t = {
  v_img : Elf.t;
  v_version : Version.t;
  v_flavor : Config.flavor;
  v_gcc : int * int;
  v_arch : Config.arch;
  v_btf : Ds_btf.Btf.t;
  v_tracepoints : tracepoint list;
  v_syscalls : string list;
}

exception Bad_vmlinux of string

let arch_of_machine = function
  | Elf.X86_64 -> Config.X86
  | Elf.Aarch64 -> Config.Arm64
  | Elf.Arm -> Config.Arm32
  | Elf.Ppc64 -> Config.Ppc
  | Elf.Riscv64 -> Config.Riscv
  | Elf.Bpf -> raise (Bad_vmlinux "BPF object is not a kernel image")

(* "Linux version 5.4.0-generic (...) (gcc version 9.2.0 (Ubuntu)) ..." *)
let parse_banner s =
  let fail () = raise (Bad_vmlinux ("unparsable banner: " ^ s)) in
  let version, flavor =
    try
      Scanf.sscanf s "Linux version %d.%d.%d-%s@ " (fun major minor _patch rest ->
          (Version.v major minor, rest))
    with Scanf.Scan_failure _ | End_of_file -> fail ()
  in
  let flavor =
    match
      List.find_opt (fun f -> Config.flavor_to_string f = flavor) Config.flavors
    with
    | Some f -> f
    | None -> fail ()
  in
  let gcc =
    let marker = "gcc version " in
    let at =
      match Ds_util.Strutil.find_sub s ~sub:marker with
      | Some i -> i + String.length marker
      | None -> fail ()
    in
    try
      Scanf.sscanf
        (String.sub s at (String.length s - at))
        "%d.%d" (fun a b -> (a, b))
    with Scanf.Scan_failure _ | End_of_file -> fail ()
  in
  (version, flavor, gcc)

let required_symbol img name =
  match Elf.find_symbol img name with
  | Some s -> s
  | None -> raise (Bad_vmlinux ("missing symbol " ^ name))

(* strip the per-arch syscall stub prefix *)
let strip_syscall_prefix arch sym =
  let prefixes =
    match arch with
    | Config.X86 -> [ "__x64_sys_" ]
    | Config.Arm64 -> [ "__arm64_sys_" ]
    | Config.Arm32 | Config.Ppc -> [ "sys_" ]
    | Config.Riscv -> [ "__riscv_sys_" ]
  in
  match
    List.find_map
      (fun p ->
        if String.starts_with ~prefix:p sym then
          Some (String.sub sym (String.length p) (String.length sym - String.length p))
        else None)
      prefixes
  with
  | Some n -> n
  | None -> sym

(* A corrupt symbol size or marker pair can imply a table of billions of
   slots; no table is walked past this many. *)
let max_table_slots = 1 lsl 20

(* Every problem goes to the sink, including the [Bad_elf]/[Truncated]
   escapes of the data-section derefs; lenient substitutes a fallback
   for whatever was lost. *)
let load ?mode img =
  Ds_trace.Trace.span ~name:"vmlinux.load" (fun () ->
    let sink = Diag.Sink.create ?mode ~component:"vmlinux" (fun m -> Bad_vmlinux m) in
    let report ?context msg = Diag.Sink.report sink ?context Diag.Degraded msg in
    let deref = Elf.Deref.make img in
    let v_version, v_flavor, v_gcc =
      match
        let banner_sym = required_symbol img "linux_banner" in
        parse_banner (Elf.Deref.read_cstring deref banner_sym.Elf.sym_value)
      with
      | parsed -> parsed
      | exception Bad_vmlinux m ->
          report m;
          (Version.v 0 0, Config.Generic, (0, 0))
      | exception Elf.Bad_elf m ->
          report ~context:"linux_banner" m;
          (Version.v 0 0, Config.Generic, (0, 0))
      | exception Bytesio.Truncated what ->
          report ~context:"linux_banner" ("truncated: " ^ what);
          (Version.v 0 0, Config.Generic, (0, 0))
    in
    let v_arch =
      match arch_of_machine img.Elf.machine with
      | a -> a
      | exception Bad_vmlinux m ->
          (* nothing kernel-shaped can come out of a BPF object *)
          Diag.Sink.report sink Diag.Fatal m;
          Config.X86
    in
    let v_btf =
      match Elf.find_section img ".BTF" with
      | None ->
          report "missing .BTF section";
          Ds_btf.Btf.create ()
      | Some s -> (
          match Ds_btf.Btf.decode ?mode s.Elf.sec_data with
          | bo ->
              (* a dead .BTF is fatal for the BTF component but only
                 degrades the image: structs fall back to DWARF *)
              Diag.Sink.absorb sink (List.map Diag.demote (Diag.diags bo));
              Diag.ok bo
          | exception Ds_btf.Btf.Bad_btf m -> raise (Bad_vmlinux (".BTF: " ^ m)))
    in
    let ptr = Elf.Deref.ptr_size deref in
    (* A pointer table of [n] slots: each unreadable slot is skipped and
       counted, an implausible size is refused or capped. *)
    let table ~context ~what n slot =
      if n < 0 then begin
        report ~context "implausible table bounds";
        []
      end
      else begin
        let n =
          if n > max_table_slots then begin
            report ~context
              (Printf.sprintf "implausibly large table (%d slots); truncated" n);
            max_table_slots
          end
          else n
        in
        let bad = Diag.Sink.tally ~context sink in
        let entries =
          List.filter_map
            (fun i ->
              match slot i with
              | e -> Some e
              | exception (Bad_vmlinux m | Elf.Bad_elf m) ->
                  Diag.Sink.skip bad m;
                  None
              | exception Bytesio.Truncated w ->
                  Diag.Sink.skip bad ("truncated: " ^ w);
                  None)
            (List.init n Fun.id)
        in
        Diag.Sink.close bad (fun k -> Printf.sprintf "%d of %d %s (skipped)" k n what);
        entries
      end
    in
    (* ftrace events: pointer array between the two markers; each slot
       points at a trace_event_call-like record of four pointers. *)
    let v_tracepoints =
      match
        ( (required_symbol img "__start_ftrace_events").Elf.sym_value,
          (required_symbol img "__stop_ftrace_events").Elf.sym_value )
      with
      | exception Bad_vmlinux m ->
          report m;
          []
      | start, stop ->
          table ~context:"ftrace_events" ~what:"tracepoint slots unreadable"
            (Int64.to_int (Int64.sub stop start) / ptr)
            (fun i ->
              let slot = Int64.add start (Int64.of_int (i * ptr)) in
              let record = Elf.Deref.read_ptr deref slot in
              let field k = Elf.Deref.read_ptr deref (Int64.add record (Int64.of_int (k * ptr))) in
              let vtp_event = Elf.Deref.read_cstring deref (field 0) in
              let vtp_class = Elf.Deref.read_cstring deref (field 1) in
              let func_addr = field 2 in
              let vtp_func =
                match Elf.symbols_at img func_addr with s :: _ -> Some s.Elf.sym_name | [] -> None
              in
              let vtp_fmt = Elf.Deref.read_cstring deref (field 3) in
              { vtp_event; vtp_class; vtp_func; vtp_fmt })
    in
    let v_syscalls =
      match required_symbol img "sys_call_table" with
      | exception Bad_vmlinux m ->
          report m;
          []
      | tbl ->
          table ~context:"sys_call_table" ~what:"syscall slots unresolvable"
            (tbl.Elf.sym_size / ptr)
            (fun i ->
              let slot = Int64.add tbl.Elf.sym_value (Int64.of_int (i * ptr)) in
              match Elf.symbols_at img (Elf.Deref.read_ptr deref slot) with
              | s :: _ -> strip_syscall_prefix v_arch s.Elf.sym_name
              | [] -> raise (Bad_vmlinux (Printf.sprintf "slot %d unresolvable" i)))
    in
    Diag.Sink.outcome sink
      { v_img = img; v_version; v_flavor; v_gcc; v_arch; v_btf; v_tracepoints; v_syscalls })

let symbols_named t name =
  List.filter (fun s -> s.Elf.sym_name = name) t.v_img.Elf.symbols

let suffixed_symbols t name =
  let prefix = name ^ "." in
  List.filter (fun s -> String.starts_with ~prefix s.Elf.sym_name) t.v_img.Elf.symbols

let has_tracepoint t name = List.exists (fun tp -> tp.vtp_event = name) t.v_tracepoints
let find_tracepoint t name = List.find_opt (fun tp -> tp.vtp_event = name) t.v_tracepoints
let has_syscall t name = List.mem name t.v_syscalls

let tag t =
  Printf.sprintf "%s/%s/%s"
    (Version.to_string t.v_version)
    (Config.arch_to_string t.v_arch)
    (Config.flavor_to_string t.v_flavor)
