open Ds_ksrc
open Ds_ctypes
open Ds_elf
module Diag = Ds_util.Diag
module Smap = Map.Make (String)

type decl_instance = {
  di_tu : string;
  di_file : string;
  di_line : int;
  di_proto : Ctype.proto;
  di_external : bool;
  di_declared_inline : bool;
  di_low_pc : int64 option;
}

type inline_site = { is_caller : string; is_tu : string; is_pc : int64 }

type func_entry = {
  fe_name : string;
  fe_decls : decl_instance list;
  fe_symbols : Elf.symbol list;
  fe_suffixed : Elf.symbol list;
  fe_inline_sites : inline_site list;
  fe_callers : string list;
}

type tp_entry = {
  te_name : string;
  te_class : string;
  te_event_struct : Decl.struct_def option;
  te_func : Decl.func_decl option;
}

type index = {
  ix_funcs : func_entry Smap.t;
  ix_structs : Decl.struct_def Smap.t;
  ix_tracepoints : tp_entry Smap.t;
  ix_syscalls : (string, unit) Hashtbl.t;
}

type t = {
  s_version : Version.t;
  s_arch : Config.arch;
  s_flavor : Config.flavor;
  s_gcc : int * int;
  s_funcs : func_entry list;
  s_structs : Decl.struct_def list;
  s_tracepoints : tp_entry list;
  s_syscalls : string list;
  s_compat_traceable : bool;
  s_health : Diag.t list;
  s_index : index;
}

let is_tracing_func name = String.starts_with ~prefix:"trace_event_raw_event_" name
let is_event_struct name =
  String.starts_with ~prefix:"trace_event_raw_" name || name = "trace_entry"

(* Shared back half of extraction: everything after the DWARF compile
   units, the BTF type environment and the struct list have been
   obtained (strictly or leniently). *)
let assemble (k : Ds_bpf.Vmlinux.t) ~cus ~env ~btf_funcs ~structs ~health =
  let img = k.Ds_bpf.Vmlinux.v_img in
  let decls : (string, decl_instance list ref) Hashtbl.t = Hashtbl.create 1024 in
  let inline_sites : (string, inline_site list ref) Hashtbl.t = Hashtbl.create 256 in
  let callers : (string, string list ref) Hashtbl.t = Hashtbl.create 256 in
  let push tbl key v =
    let cell =
      match Hashtbl.find_opt tbl key with
      | Some c -> c
      | None ->
          let c = ref [] in
          Hashtbl.add tbl key c;
          c
    in
    cell := v :: !cell
  in
  List.iter
    (fun cu ->
      List.iter
        (fun (sp : Ds_dwarf.Info.subprogram) ->
          if not (is_tracing_func sp.sp_name) then begin
            push decls sp.sp_name
              {
                di_tu = cu.Ds_dwarf.Info.cu_name;
                di_file = sp.sp_file;
                di_line = sp.sp_line;
                di_proto = sp.sp_proto;
                di_external = sp.sp_external;
                di_declared_inline = sp.sp_declared_inline;
                di_low_pc = sp.sp_low_pc;
              };
            List.iter
              (fun (ic : Ds_dwarf.Info.inlined_call) ->
                push inline_sites ic.ic_callee
                  {
                    is_caller = sp.sp_name;
                    is_tu = cu.Ds_dwarf.Info.cu_name;
                    is_pc = ic.ic_pc;
                  })
              sp.sp_inlined;
            List.iter (fun callee -> push callers callee sp.sp_name) sp.sp_calls
          end)
        cu.Ds_dwarf.Info.cu_subprograms)
    cus;
  (* Symbol table: text symbols indexed by base name (exact and suffixed). *)
  let exact : (string, Elf.symbol list ref) Hashtbl.t = Hashtbl.create 1024 in
  let suffixed : (string, Elf.symbol list ref) Hashtbl.t = Hashtbl.create 128 in
  List.iter
    (fun (sym : Elf.symbol) ->
      if sym.Elf.sym_section = ".text" then begin
        match String.index_opt sym.Elf.sym_name '.' with
        | None -> push exact sym.Elf.sym_name sym
        | Some i -> push suffixed (String.sub sym.Elf.sym_name 0 i) sym
      end)
    img.Elf.symbols;
  let func_names =
    let tbl = Hashtbl.create 1024 in
    Hashtbl.iter (fun name _ -> Hashtbl.replace tbl name ()) decls;
    Hashtbl.iter (fun name _ -> Hashtbl.replace tbl name ()) inline_sites;
    List.sort compare (Hashtbl.fold (fun k () acc -> k :: acc) tbl [])
  in
  let funcs =
    List.filter_map
      (fun name ->
        let get tbl = match Hashtbl.find_opt tbl name with Some c -> List.rev !c | None -> [] in
        let fe_decls = get decls in
        if fe_decls = [] then None
        else
          Some
            {
              fe_name = name;
              fe_decls;
              fe_symbols = get exact;
              fe_suffixed = get suffixed;
              fe_inline_sites = get inline_sites;
              fe_callers = List.sort_uniq compare (get callers);
            })
      func_names
  in
  let btf_func_map =
    List.fold_left
      (fun m (f : Decl.func_decl) -> Smap.add f.fname f m)
      Smap.empty btf_funcs
  in
  let tracepoints =
    List.map
      (fun (tp : Ds_bpf.Vmlinux.tracepoint) ->
        {
          te_name = tp.Ds_bpf.Vmlinux.vtp_event;
          te_class = tp.Ds_bpf.Vmlinux.vtp_class;
          te_event_struct =
            Decl.find_struct env ("trace_event_raw_" ^ tp.Ds_bpf.Vmlinux.vtp_class);
          te_func =
            Option.bind tp.Ds_bpf.Vmlinux.vtp_func (fun f -> Smap.find_opt f btf_func_map);
        })
      k.Ds_bpf.Vmlinux.v_tracepoints
  in
  let tracepoints =
    List.sort (fun a b -> compare a.te_name b.te_name) tracepoints
  in
  let index =
    {
      ix_funcs = List.fold_left (fun m f -> Smap.add f.fe_name f m) Smap.empty funcs;
      ix_structs =
        List.fold_left (fun m (s : Decl.struct_def) -> Smap.add s.sname s m) Smap.empty structs;
      ix_tracepoints =
        List.fold_left (fun m tp -> Smap.add tp.te_name tp m) Smap.empty tracepoints;
      ix_syscalls =
        (let tbl = Hashtbl.create 64 in
         List.iter (fun s -> Hashtbl.replace tbl s ()) k.Ds_bpf.Vmlinux.v_syscalls;
         tbl);
    }
  in
  {
    s_version = k.Ds_bpf.Vmlinux.v_version;
    s_arch = k.Ds_bpf.Vmlinux.v_arch;
    s_flavor = k.Ds_bpf.Vmlinux.v_flavor;
    s_gcc = k.Ds_bpf.Vmlinux.v_gcc;
    s_funcs = funcs;
    s_structs = structs;
    s_tracepoints = tracepoints;
    s_syscalls = k.Ds_bpf.Vmlinux.v_syscalls;
    s_compat_traceable =
      Ds_ksrc.Construct.compat_syscall_traceable k.Ds_bpf.Vmlinux.v_arch;
    s_health = health;
    s_index = index;
  }

let of_vmlinux (k : Ds_bpf.Vmlinux.t) =
  let img = k.Ds_bpf.Vmlinux.v_img in
  (* DWARF: function declarations, inline sites, call sites. *)
  let info =
    match Elf.find_section img ".debug_info" with
    | Some s -> s.Elf.sec_data
    | None -> raise (Ds_bpf.Vmlinux.Bad_vmlinux "missing .debug_info")
  in
  let abbrev =
    match Elf.find_section img ".debug_abbrev" with
    | Some s -> s.Elf.sec_data
    | None -> raise (Ds_bpf.Vmlinux.Bad_vmlinux "missing .debug_abbrev")
  in
  let cus = Diag.ok (Ds_dwarf.Info.decode ~info ~abbrev ()) in
  (* Structs from BTF (event structs handled with tracepoints). *)
  let env, btf_funcs =
    Ds_btf.Btf.to_env ~ptr_size:(Config.ptr_size k.Ds_bpf.Vmlinux.v_arch) k.Ds_bpf.Vmlinux.v_btf
  in
  let structs =
    List.filter (fun (s : Decl.struct_def) -> not (is_event_struct s.sname)) (Decl.structs env)
  in
  assemble k ~cus ~env ~btf_funcs ~structs ~health:[]

let of_vmlinux_lenient ?(health = []) (k : Ds_bpf.Vmlinux.t) =
  let img = k.Ds_bpf.Vmlinux.v_img in
  let sdiag ?context msg = Diag.v ?context Diag.Degraded ~component:"surface" msg in
  let cus, dwarf_diags =
    match (Elf.find_section img ".debug_info", Elf.find_section img ".debug_abbrev") with
    | Some i, Some a ->
        let o = Ds_dwarf.Info.decode ~mode:`Lenient ~info:i.Elf.sec_data ~abbrev:a.Elf.sec_data () in
        (Diag.ok o, Diag.diags o)
    | None, _ -> ([], [ sdiag "missing .debug_info; function surface unavailable" ])
    | _, None -> ([], [ sdiag "missing .debug_abbrev; function surface unavailable" ])
  in
  let env, btf_funcs, btf_diags =
    Ds_btf.Btf.to_env_lenient
      ~ptr_size:(Config.ptr_size k.Ds_bpf.Vmlinux.v_arch)
      k.Ds_bpf.Vmlinux.v_btf
  in
  let structs_btf =
    List.filter (fun (s : Decl.struct_def) -> not (is_event_struct s.sname)) (Decl.structs env)
  in
  (* With a dead .BTF, fall back to the struct definitions DWARF carries
     per compile unit: dedup by name, same event-struct exclusion. *)
  let structs, fallback_diags =
    if structs_btf <> [] || cus = [] then (structs_btf, [])
    else begin
      let seen = Hashtbl.create 256 in
      let from_dwarf =
        List.concat_map
          (fun cu ->
            List.filter
              (fun (s : Decl.struct_def) ->
                if is_event_struct s.sname || Hashtbl.mem seen s.sname then false
                else begin
                  Hashtbl.replace seen s.sname ();
                  true
                end)
              cu.Ds_dwarf.Info.cu_structs)
          cus
      in
      if from_dwarf = [] then ([], [])
      else
        ( List.sort (fun (a : Decl.struct_def) b -> compare a.sname b.sname) from_dwarf,
          [ sdiag "no structs in BTF; struct surface recovered from DWARF" ] )
    end
  in
  assemble k ~cus ~env ~btf_funcs ~structs
    ~health:(health @ dwarf_diags @ btf_diags @ fallback_diags)

let v ~version ~arch ~flavor ~gcc ~funcs ~structs ~tracepoints ~syscalls =
  let funcs = List.sort (fun a b -> compare a.fe_name b.fe_name) funcs in
  let structs = List.sort (fun (a : Decl.struct_def) b -> compare a.sname b.sname) structs in
  let tracepoints = List.sort (fun a b -> compare a.te_name b.te_name) tracepoints in
  let index =
    {
      ix_funcs = List.fold_left (fun m f -> Smap.add f.fe_name f m) Smap.empty funcs;
      ix_structs =
        List.fold_left (fun m (st : Decl.struct_def) -> Smap.add st.sname st m) Smap.empty structs;
      ix_tracepoints =
        List.fold_left (fun m tp -> Smap.add tp.te_name tp m) Smap.empty tracepoints;
      ix_syscalls =
        (let tbl = Hashtbl.create 64 in
         List.iter (fun sc -> Hashtbl.replace tbl sc ()) syscalls;
         tbl);
    }
  in
  {
    s_version = version;
    s_arch = arch;
    s_flavor = flavor;
    s_gcc = gcc;
    s_funcs = funcs;
    s_structs = structs;
    s_tracepoints = tracepoints;
    s_syscalls = syscalls;
    s_compat_traceable = Ds_ksrc.Construct.compat_syscall_traceable arch;
    s_health = [];
    s_index = index;
  }

let with_health health t = { t with s_health = health }

let of_image img = of_vmlinux (Ds_bpf.Vmlinux.load img)

(* Surface for an image nothing could be extracted from: empty lists,
   placeholder identity, the diagnostics telling the story. *)
let stub ~health =
  with_health health
    (v ~version:(Version.v 0 0) ~arch:Config.X86 ~flavor:Config.Generic ~gcc:(0, 0) ~funcs:[]
       ~structs:[] ~tracepoints:[] ~syscalls:[])

let extract_lenient_impl data =
  let o = Elf.read ~mode:`Lenient data in
  let img = Diag.ok o and r_diags = Diag.diags o in
  if Diag.worst r_diags = Some Diag.Fatal then stub ~health:r_diags
  else begin
    let { Ds_bpf.Vmlinux.k_kernel; k_diags } = Ds_bpf.Vmlinux.load_lenient img in
    let health = r_diags @ k_diags in
    if Diag.worst k_diags = Some Diag.Fatal then stub ~health
    else of_vmlinux_lenient ~health k_kernel
  end

let extract ?(mode = `Strict) data =
  Ds_trace.Trace.span ~name:"surface.extract"
    ~attrs:[ ("bytes", string_of_int (String.length data)) ]
    (fun () ->
      match mode with
      | `Strict -> Diag.outcome (of_image (Diag.ok (Elf.read data)))
      | `Lenient ->
          let t = extract_lenient_impl data in
          Diag.outcome ~diags:t.s_health t)

let health t = t.s_health
let degraded t = Diag.is_degraded t.s_health

let config t = Config.{ arch = t.s_arch; flavor = t.s_flavor }

let tag t =
  Printf.sprintf "%s/%s/%s"
    (Version.to_string t.s_version)
    (Config.arch_to_string t.s_arch)
    (Config.flavor_to_string t.s_flavor)

let find_func t name = Smap.find_opt name t.s_index.ix_funcs
let find_struct t name = Smap.find_opt name t.s_index.ix_structs

let find_field t sname fname =
  match find_struct t sname with
  | None -> None
  | Some s -> List.find_opt (fun (f : Decl.field) -> f.fname = fname) s.Decl.fields

let find_tracepoint t name = Smap.find_opt name t.s_index.ix_tracepoints
let has_syscall t name = Hashtbl.mem t.s_index.ix_syscalls name

let representative_proto fe =
  match List.find_opt (fun d -> d.di_external) fe.fe_decls with
  | Some d -> d.di_proto
  | None -> (List.hd fe.fe_decls).di_proto

let counts t =
  ( List.length t.s_funcs,
    List.length t.s_structs,
    List.length t.s_tracepoints,
    List.length t.s_syscalls )
