open Ds_ksrc
open Ds_kcc
open Ds_elf
open Construct

let v44 = Version.v 4 4
let v519 = Version.v 5 19

let find_instances m name =
  List.filter (fun (i : Compile.instance) -> i.Compile.i_func.fn_name = name) m.Compile.m_instances

let test_model_invariants () =
  let m = Testenv.model v44 in
  List.iter
    (fun (i : Compile.instance) ->
      let f = i.Compile.i_func in
      (* globals always keep their symbol *)
      if not f.fn_static then
        Alcotest.(check bool) (f.fn_name ^ " global keeps symbol") true (i.Compile.i_symbols <> []);
      (* no symbol implies static and every site inlined *)
      if i.Compile.i_symbols = [] then begin
        Alcotest.(check bool) (f.fn_name ^ " symbol-less is static") true f.fn_static;
        Alcotest.(check bool)
          (f.fn_name ^ " symbol-less has all-inlined sites")
          true
          (i.Compile.i_sites <> [] && List.for_all (fun s -> s.Compile.sd_inlined) i.Compile.i_sites)
      end)
    m.Compile.m_instances

let test_selective_inline_vfs_fsync () =
  let m = Testenv.model v44 in
  match find_instances m "vfs_fsync" with
  | [ i ] ->
      Alcotest.(check bool) "symbol kept" true (i.Compile.i_symbols <> []);
      let inlined, direct = List.partition (fun s -> s.Compile.sd_inlined) i.Compile.i_sites in
      Alcotest.(check bool) "some sites inlined (same TU)" true (inlined <> []);
      Alcotest.(check bool) "some sites direct (other TU)" true (direct <> []);
      List.iter
        (fun s -> Alcotest.(check string) "inlined in own TU" "fs/sync.c" s.Compile.sd_tu)
        inlined
  | l -> Alcotest.fail (Printf.sprintf "expected 1 instance, got %d" (List.length l))

let test_full_inline_blk_account () =
  (* v4.4: attachable; v5.19: fully inlined (be6bfe3). *)
  let m44 = Testenv.model v44 in
  (match find_instances m44 "blk_account_io_start" with
  | [ i ] -> Alcotest.(check bool) "symbol at 4.4" true (i.Compile.i_symbols <> [])
  | _ -> Alcotest.fail "expected 1 instance at 4.4");
  let m519 = Testenv.model v519 in
  match find_instances m519 "blk_account_io_start" with
  | [ i ] ->
      Alcotest.(check bool) "no symbol at 5.19" true (i.Compile.i_symbols = []);
      Alcotest.(check bool) "sites inlined" true
        (List.for_all (fun s -> s.Compile.sd_inlined) i.Compile.i_sites)
  | _ -> Alcotest.fail "expected 1 instance at 5.19"

let test_header_duplication () =
  let m = Testenv.model v44 in
  let instances = find_instances m "get_order" in
  Alcotest.(check int) "one instance per includer" 8 (List.length instances);
  let with_sym = List.filter (fun i -> i.Compile.i_symbols <> []) instances in
  let without = List.filter (fun i -> i.Compile.i_symbols = []) instances in
  Alcotest.(check bool)
    (Printf.sprintf "mixed inline/dup (%d sym, %d inlined)" (List.length with_sym)
       (List.length without))
    true
    (List.length with_sym >= 1 && List.length without >= 1)

let test_transforms_present () =
  let m = Testenv.model v44 in
  let suffixed =
    List.concat_map
      (fun (i : Compile.instance) ->
        List.filter (fun (n, _) -> String.contains n '.') i.Compile.i_symbols)
      m.Compile.m_instances
  in
  Alcotest.(check bool)
    (Printf.sprintf "some transformed symbols (%d)" (List.length suffixed))
    true
    (List.length suffixed > 0)

let test_no_isra_on_arm32 () =
  let m = Testenv.model ~cfg:Config.{ arch = Arm32; flavor = Generic } (Version.v 5 4) in
  let isra =
    List.concat_map
      (fun (i : Compile.instance) ->
        List.filter
          (fun (n, _) ->
            let re = ".isra." in
            let rec contains i =
              i + String.length re <= String.length n
              && (String.sub n i (String.length re) = re || contains (i + 1))
            in
            contains 0)
          i.Compile.i_symbols)
      m.Compile.m_instances
  in
  Alcotest.(check int) "no isra symbols on arm32" 0 (List.length isra)

let test_syscall_symbols () =
  Alcotest.(check string) "x86" "__x64_sys_openat" (Compile.syscall_symbol Config.X86 "openat");
  Alcotest.(check (option string)) "roundtrip" (Some "openat")
    (Compile.syscall_of_symbol Config.X86 "__x64_sys_openat");
  Alcotest.(check (option string)) "non-syscall" None
    (Compile.syscall_of_symbol Config.X86 "vfs_read")

let test_emit_sections () =
  let img = Testenv.image v44 in
  List.iter
    (fun s ->
      Alcotest.(check bool) ("has " ^ s) true (Elf.find_section img s <> None))
    [ ".text"; ".rodata"; ".data"; ".debug_info"; ".debug_abbrev"; ".BTF" ];
  Alcotest.(check bool) "banner symbol" true (Elf.find_symbol img "linux_banner" <> None);
  Alcotest.(check bool) "sys_call_table" true (Elf.find_symbol img "sys_call_table" <> None);
  Alcotest.(check bool) "ftrace markers" true
    (Elf.find_symbol img "__start_ftrace_events" <> None
    && Elf.find_symbol img "__stop_ftrace_events" <> None)

let test_emit_banner_readable () =
  let img = Testenv.image v44 in
  let d = Elf.Deref.make img in
  let sym = Option.get (Elf.find_symbol img "linux_banner") in
  let s = Elf.Deref.read_cstring d sym.Elf.sym_value in
  Alcotest.(check bool) ("banner: " ^ s) true
    (String.length s > 20
    && String.sub s 0 20 = "Linux version 4.4.0-");
  let img519 = Testenv.image v519 in
  let d = Elf.Deref.make img519 in
  let sym = Option.get (Elf.find_symbol img519 "linux_banner") in
  let s = Elf.Deref.read_cstring d sym.Elf.sym_value in
  Alcotest.(check bool) "gcc in banner" true
    (let re = "gcc version 12.1.0" in
     let rec contains i =
       i + String.length re <= String.length s && (String.sub s i (String.length re) = re || contains (i + 1))
     in
     contains 0)

let test_emit_ftrace_array () =
  let img = Testenv.image v44 in
  let d = Elf.Deref.make img in
  let start = (Option.get (Elf.find_symbol img "__start_ftrace_events")).Elf.sym_value in
  let stop = (Option.get (Elf.find_symbol img "__stop_ftrace_events")).Elf.sym_value in
  let n = Int64.to_int (Int64.sub stop start) / Elf.Deref.ptr_size d in
  let model = Testenv.model v44 in
  Alcotest.(check int) "one slot per tracepoint" (List.length model.Compile.m_tracepoints) n;
  (* walk the array like DepSurf does: deref each record, read the name *)
  let names =
    List.init n (fun i ->
        let slot = Int64.add start (Int64.of_int (i * Elf.Deref.ptr_size d)) in
        let rec_addr = Elf.Deref.read_ptr d slot in
        let name_ptr = Elf.Deref.read_ptr d rec_addr in
        Elf.Deref.read_cstring d name_ptr)
  in
  Alcotest.(check bool) "sched_switch found" true (List.mem "sched_switch" names);
  Alcotest.(check bool) "block_rq_issue found" true (List.mem "block_rq_issue" names)

let test_emit_syscall_table () =
  let img = Testenv.image v44 in
  let d = Elf.Deref.make img in
  let sym = Option.get (Elf.find_symbol img "sys_call_table") in
  let n = sym.Elf.sym_size / Elf.Deref.ptr_size d in
  Alcotest.(check bool) "table non-empty" true (n > 5);
  let names =
    List.init n (fun i ->
        let slot = Int64.add sym.Elf.sym_value (Int64.of_int (i * Elf.Deref.ptr_size d)) in
        let addr = Elf.Deref.read_ptr d slot in
        match Elf.symbols_at img addr with
        | s :: _ -> Compile.syscall_of_symbol Config.X86 s.Elf.sym_name
        | [] -> None)
  in
  let names = List.filter_map Fun.id names in
  Alcotest.(check int) "every slot resolves" n (List.length names);
  Alcotest.(check bool) "open present on x86" true (List.mem "open" names)

let test_emit_dwarf_decodes () =
  let img = Testenv.image v44 in
  let info = (Option.get (Elf.find_section img ".debug_info")).Elf.sec_data in
  let abbrev = (Option.get (Elf.find_section img ".debug_abbrev")).Elf.sec_data in
  let cus = Ds_util.Diag.ok (Ds_dwarf.Info.decode ~info ~abbrev ()) in
  Alcotest.(check bool) "many CUs" true (List.length cus > 10);
  let all_sps = List.concat_map (fun cu -> cu.Ds_dwarf.Info.cu_subprograms) cus in
  Alcotest.(check bool) "vfs_fsync subprogram" true
    (List.exists (fun sp -> sp.Ds_dwarf.Info.sp_name = "vfs_fsync") all_sps);
  let types_cu = List.find (fun cu -> cu.Ds_dwarf.Info.cu_name = "__vmlinux_types__") cus in
  Alcotest.(check bool) "task_struct in types CU" true
    (List.exists
       (fun (s : Ds_ctypes.Decl.struct_def) -> s.sname = "task_struct")
       types_cu.Ds_dwarf.Info.cu_structs);
  (* Real compiler output through a second encode/decode round. The
     encoder writes a type before its first referrer, so where aggregates
     point at each other in a cycle, a second round places definitions in
     another order: compare those by name, everything else exactly. *)
  let info', abbrev' = Ds_dwarf.Info.encode cus in
  let by key l = List.sort (fun a b -> compare (key a) (key b)) l in
  let norm (cu : Ds_dwarf.Info.cu) =
    {
      cu with
      cu_structs = by (fun (s : Ds_ctypes.Decl.struct_def) -> s.sname) cu.cu_structs;
      cu_enums = by (fun (e : Ds_ctypes.Decl.enum_def) -> e.ename) cu.cu_enums;
      cu_typedefs = by (fun (t : Ds_ctypes.Decl.typedef_def) -> t.tname) cu.cu_typedefs;
    }
  in
  let cus' = Ds_util.Diag.ok (Ds_dwarf.Info.decode ~info:info' ~abbrev:abbrev' ()) in
  Alcotest.(check bool) "re-encoded CUs decode to the same CUs" true
    (List.map norm cus' = List.map norm cus)

let test_emit_btf_decodes () =
  let img = Testenv.image v44 in
  let btf = Ds_util.Diag.ok (Ds_btf.Btf.decode (Option.get (Elf.find_section img ".BTF")).Elf.sec_data) in
  Alcotest.(check bool) "task_struct in BTF" true (Ds_btf.Btf.find_struct btf "task_struct" <> None);
  Alcotest.(check bool) "vfs_fsync func in BTF" true (Ds_btf.Btf.find_func btf "vfs_fsync" <> None);
  (* fully-inlined statics never reach BTF *)
  let m = Testenv.model v519 in
  let btf519 = Ds_util.Diag.ok (Ds_btf.Btf.decode (Option.get (Elf.find_section (Testenv.image v519) ".BTF")).Elf.sec_data) in
  ignore m;
  Alcotest.(check bool) "inlined blk_account_io_start absent from 5.19 BTF" true
    (Ds_btf.Btf.find_func btf519 "blk_account_io_start" = None)

let test_emit_arm32_and_ppc () =
  let arm32 = Testenv.image ~cfg:Config.{ arch = Arm32; flavor = Generic } (Version.v 5 4) in
  let d = Elf.Deref.make arm32 in
  Alcotest.(check int) "arm32 ptr size" 4 (Elf.Deref.ptr_size d);
  let start = (Option.get (Elf.find_symbol arm32 "__start_ftrace_events")).Elf.sym_value in
  let rec_addr = Elf.Deref.read_ptr d start in
  let name = Elf.Deref.read_cstring d (Elf.Deref.read_ptr d rec_addr) in
  Alcotest.(check bool) ("arm32 tracepoint name " ^ name) true (String.length name > 2);
  let ppc = Testenv.image ~cfg:Config.{ arch = Ppc; flavor = Generic } (Version.v 5 4) in
  let d = Elf.Deref.make ppc in
  Alcotest.(check bool) "ppc big endian" true (Elf.Deref.endian d = Ds_util.Bytesio.Big);
  let start = (Option.get (Elf.find_symbol ppc "__start_ftrace_events")).Elf.sym_value in
  let rec_addr = Elf.Deref.read_ptr d start in
  let name = Elf.Deref.read_cstring d (Elf.Deref.read_ptr d rec_addr) in
  Alcotest.(check bool) ("ppc tracepoint name " ^ name) true (String.length name > 2)

let test_elf_write_read_roundtrip () =
  let img = Testenv.image v44 in
  let img' = Ds_util.Diag.ok (Elf.read (Elf.write img)) in
  Alcotest.(check int) "sections" (List.length img.Elf.sections) (List.length img'.Elf.sections);
  Alcotest.(check int) "symbols" (List.length img.Elf.symbols) (List.length img'.Elf.symbols)

let test_unique_symbol_addresses () =
  let img = Testenv.image v44 in
  let addrs =
    List.filter_map
      (fun (s : Elf.symbol) -> if s.Elf.sym_section = ".text" then Some s.Elf.sym_value else None)
      img.Elf.symbols
  in
  Alcotest.(check int) "text symbol addresses unique" (List.length addrs)
    (List.length (List.sort_uniq compare addrs))

let test_dwarf_symbols_consistent () =
  (* every DWARF subprogram with a low_pc has a text symbol at that
     address (possibly under a transformed name) *)
  let img = Testenv.image v44 in
  let info = (Option.get (Elf.find_section img ".debug_info")).Elf.sec_data in
  let abbrev = (Option.get (Elf.find_section img ".debug_abbrev")).Elf.sec_data in
  let cus = Ds_util.Diag.ok (Ds_dwarf.Info.decode ~info ~abbrev ()) in
  let addr_set = Hashtbl.create 1024 in
  List.iter
    (fun (s : Elf.symbol) ->
      if s.Elf.sym_section = ".text" then Hashtbl.replace addr_set s.Elf.sym_value ())
    img.Elf.symbols;
  List.iter
    (fun cu ->
      List.iter
        (fun (sp : Ds_dwarf.Info.subprogram) ->
          match sp.Ds_dwarf.Info.sp_low_pc with
          | Some pc ->
              Alcotest.(check bool)
                (Printf.sprintf "%s@0x%Lx has a symbol" sp.Ds_dwarf.Info.sp_name pc)
                true (Hashtbl.mem addr_set pc)
          | None -> ())
        cu.Ds_dwarf.Info.cu_subprograms)
    cus

let test_compile_deterministic () =
  let src = Testenv.source_at v44 in
  let a = Compile.compile src Config.x86_generic in
  let b = Compile.compile src Config.x86_generic in
  Alcotest.(check int) "same instance count" (List.length a.Compile.m_instances)
    (List.length b.Compile.m_instances);
  List.iter2
    (fun (x : Compile.instance) (y : Compile.instance) ->
      Alcotest.(check bool) "same symbols" true (x.Compile.i_symbols = y.Compile.i_symbols);
      Alcotest.(check bool) "same sites" true (x.Compile.i_sites = y.Compile.i_sites))
    a.Compile.m_instances b.Compile.m_instances

let test_threshold_override_monotone () =
  let src = Testenv.source_at v44 in
  let full_at threshold =
    let m = Compile.compile ~inline_threshold:threshold src Config.x86_generic in
    List.length
      (List.filter
         (fun (i : Compile.instance) ->
           i.Compile.i_symbols = [] && i.Compile.i_func.fn_static)
         m.Compile.m_instances)
  in
  let low = full_at 5 and mid = full_at 31 and high = full_at 500 in
  Alcotest.(check bool)
    (Printf.sprintf "inlining grows with threshold (%d <= %d <= %d)" low mid high)
    true
    (low <= mid && mid <= high && high > low)

let suites =
  [
    ( "kcc.compile",
      [
        Alcotest.test_case "model invariants" `Quick test_model_invariants;
        Alcotest.test_case "selective inline (vfs_fsync)" `Quick test_selective_inline_vfs_fsync;
        Alcotest.test_case "full inline (blk_account_io_start)" `Quick test_full_inline_blk_account;
        Alcotest.test_case "header duplication (get_order)" `Quick test_header_duplication;
        Alcotest.test_case "transforms present" `Quick test_transforms_present;
        Alcotest.test_case "no isra on arm32" `Quick test_no_isra_on_arm32;
        Alcotest.test_case "syscall symbols" `Quick test_syscall_symbols;
        Alcotest.test_case "unique symbol addresses" `Quick test_unique_symbol_addresses;
        Alcotest.test_case "dwarf/symtab consistency" `Quick test_dwarf_symbols_consistent;
        Alcotest.test_case "deterministic compile" `Quick test_compile_deterministic;
        Alcotest.test_case "threshold monotone" `Quick test_threshold_override_monotone;
      ] );
    ( "kcc.emit",
      [
        Alcotest.test_case "sections" `Quick test_emit_sections;
        Alcotest.test_case "banner" `Quick test_emit_banner_readable;
        Alcotest.test_case "ftrace array walk" `Quick test_emit_ftrace_array;
        Alcotest.test_case "syscall table walk" `Quick test_emit_syscall_table;
        Alcotest.test_case "dwarf decodes" `Quick test_emit_dwarf_decodes;
        Alcotest.test_case "btf decodes" `Quick test_emit_btf_decodes;
        Alcotest.test_case "arm32 + ppc images" `Quick test_emit_arm32_and_ppc;
        Alcotest.test_case "elf roundtrip" `Quick test_elf_write_read_roundtrip;
      ] );
  ]
