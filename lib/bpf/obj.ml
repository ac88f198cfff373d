open Ds_util
open Ds_elf
module Btf = Ds_btf.Btf

type reloc_kind = Field_byte_offset | Field_exists

type core_reloc = {
  cr_insn : int;
  cr_type_id : int;
  cr_access : int list;
  cr_kind : reloc_kind;
}

type prog = {
  p_name : string;
  p_section : string;
  p_insns : Insn.t list;
  p_relocs : core_reloc list;
  p_kfuncs : string list;
}

type t = {
  o_name : string;
  o_built_for : string;
  o_progs : prog list;
  o_maps : Maps.def list;
  o_btf : Btf.t;
}

exception Bad_obj of string

let kind_code = function Field_byte_offset -> 0 | Field_exists -> 2

let kind_of_code = function
  | 0 -> Field_byte_offset
  | 2 -> Field_exists
  | c -> raise (Bad_obj (Printf.sprintf "bad reloc kind %d" c))

(* ".maps" section: count u32, then per map: name cstring, type u8
   (0=hash 1=array 2=percpu), ncpu u16, key u32, value u32, max u32 *)
let encode_maps maps =
  let w = Bytesio.Writer.create () in
  Bytesio.Writer.u32 w (List.length maps);
  List.iter
    (fun (d : Maps.def) ->
      Bytesio.Writer.cstring w d.Maps.md_name;
      (match d.Maps.md_type with
      | Maps.Hash ->
          Bytesio.Writer.u8 w 0;
          Bytesio.Writer.u16 w 1
      | Maps.Array ->
          Bytesio.Writer.u8 w 1;
          Bytesio.Writer.u16 w 1
      | Maps.Percpu_array n ->
          Bytesio.Writer.u8 w 2;
          Bytesio.Writer.u16 w n);
      Bytesio.Writer.u32 w d.Maps.md_key_size;
      Bytesio.Writer.u32 w d.Maps.md_value_size;
      Bytesio.Writer.u32 w d.Maps.md_max_entries)
    maps;
  Bytesio.Writer.contents w

let decode_maps data =
  let r = Bytesio.Reader.of_string data in
  try
    let n = Bytesio.Reader.u32 r in
    List.init n (fun _ ->
        let md_name = Bytesio.Reader.cstring r in
        let ty = Bytesio.Reader.u8 r in
        let ncpu = Bytesio.Reader.u16 r in
        let md_type =
          match ty with
          | 0 -> Maps.Hash
          | 1 -> Maps.Array
          | 2 -> Maps.Percpu_array ncpu
          | t -> raise (Bad_obj (Printf.sprintf ".maps: bad type %d" t))
        in
        let md_key_size = Bytesio.Reader.u32 r in
        let md_value_size = Bytesio.Reader.u32 r in
        let md_max_entries = Bytesio.Reader.u32 r in
        Maps.{ md_name; md_type; md_key_size; md_value_size; md_max_entries })
  with Bytesio.Truncated _ -> raise (Bad_obj ".maps: truncated")

(* ".depsurf.kfuncs": count u32, then per prog: section cstring, count
   u32, names. *)
let encode_kfuncs progs =
  let w = Bytesio.Writer.create () in
  let with_kfuncs = List.filter (fun p -> p.p_kfuncs <> []) progs in
  Bytesio.Writer.u32 w (List.length with_kfuncs);
  List.iter
    (fun p ->
      Bytesio.Writer.cstring w p.p_section;
      Bytesio.Writer.u32 w (List.length p.p_kfuncs);
      List.iter (Bytesio.Writer.cstring w) p.p_kfuncs)
    with_kfuncs;
  Bytesio.Writer.contents w

let decode_kfuncs data =
  let r = Bytesio.Reader.of_string data in
  try
    let n = Bytesio.Reader.u32 r in
    List.init n (fun _ ->
        let section = Bytesio.Reader.cstring r in
        let k = Bytesio.Reader.u32 r in
        (section, List.init k (fun _ -> Bytesio.Reader.cstring r)))
  with Bytesio.Truncated _ -> raise (Bad_obj ".depsurf.kfuncs: truncated")

let btf_ext_magic = 0xEB9F

(* .BTF.ext layout (self-contained string blob variant):
   header: magic u16, version u8, flags u8, hdr_len u32 (=16),
           core_relo_off u32, core_relo_len u32  (offsets past header)
   core_relo: record_size u32, then per-section blocks:
     sec_name_off u32, num_info u32,
     records: insn_off u32, type_id u32, access_str_off u32, kind u32
   strings: NUL-separated blob after core_relo. *)
let encode_btf_ext progs =
  let strings = Buffer.create 128 in
  Buffer.add_char strings '\000';
  let str_cache = Hashtbl.create 16 in
  let add_string s =
    match Hashtbl.find_opt str_cache s with
    | Some off -> off
    | None ->
        let off = Buffer.length strings in
        Buffer.add_string strings s;
        Buffer.add_char strings '\000';
        Hashtbl.replace str_cache s off;
        off
  in
  let body = Bytesio.Writer.create () in
  Bytesio.Writer.u32 body 16 (* record size *);
  List.iter
    (fun p ->
      if p.p_relocs <> [] then begin
        Bytesio.Writer.u32 body (add_string p.p_section);
        Bytesio.Writer.u32 body (List.length p.p_relocs);
        List.iter
          (fun r ->
            Bytesio.Writer.u32 body r.cr_insn;
            Bytesio.Writer.u32 body r.cr_type_id;
            Bytesio.Writer.u32 body
              (add_string (String.concat ":" (List.map string_of_int r.cr_access)));
            Bytesio.Writer.u32 body (kind_code r.cr_kind))
          p.p_relocs
      end)
    progs;
  let out = Bytesio.Writer.create () in
  Bytesio.Writer.u16 out btf_ext_magic;
  Bytesio.Writer.u8 out 1;
  Bytesio.Writer.u8 out 0;
  Bytesio.Writer.u32 out 16 (* hdr_len *);
  Bytesio.Writer.u32 out 0 (* core_relo_off *);
  Bytesio.Writer.u32 out (Bytesio.Writer.pos body) (* core_relo_len *);
  Bytesio.Writer.bytes out (Bytesio.Writer.contents body);
  Bytesio.Writer.bytes out (Buffer.contents strings);
  Bytesio.Writer.contents out

let decode_btf_ext data =
  let r = Bytesio.Reader.of_string data in
  let fail m = raise (Bad_obj m) in
  (try
     if Bytesio.Reader.u16 r <> btf_ext_magic then fail ".BTF.ext: bad magic"
   with Bytesio.Truncated _ -> fail ".BTF.ext: truncated");
  let _version = Bytesio.Reader.u8 r in
  let _flags = Bytesio.Reader.u8 r in
  let hdr_len = Bytesio.Reader.u32 r in
  let relo_off = Bytesio.Reader.u32 r in
  let relo_len = Bytesio.Reader.u32 r in
  let strings_start = hdr_len + relo_off + relo_len in
  let str off =
    try Bytesio.Reader.cstring_at r (strings_start + off)
    with Bytesio.Truncated _ -> fail ".BTF.ext: bad string offset"
  in
  let body =
    try Bytesio.Reader.sub r ~pos:(hdr_len + relo_off) ~len:relo_len
    with Bytesio.Truncated _ -> fail ".BTF.ext: bad core_relo bounds"
  in
  try
    let record_size = Bytesio.Reader.u32 body in
    if record_size <> 16 then fail ".BTF.ext: unsupported record size";
    let out = ref [] in
    while not (Bytesio.Reader.eof body) do
      let section = str (Bytesio.Reader.u32 body) in
      let n = Bytesio.Reader.u32 body in
      let relocs =
        List.init n (fun _ ->
            let cr_insn = Bytesio.Reader.u32 body in
            let cr_type_id = Bytesio.Reader.u32 body in
            let access = str (Bytesio.Reader.u32 body) in
            let cr_kind = kind_of_code (Bytesio.Reader.u32 body) in
            let cr_access =
              if access = "" then []
              else List.map int_of_string (String.split_on_char ':' access)
            in
            { cr_insn; cr_type_id; cr_access; cr_kind })
      in
      out := (section, relocs) :: !out
    done;
    List.rev !out
  with Bytesio.Truncated _ | Failure _ -> fail ".BTF.ext: truncated records"

let write t =
  (* one program per section: the section name is the object's key for
     relocations and kfunc tables *)
  let seen = Hashtbl.create 8 in
  List.iter
    (fun p ->
      if Hashtbl.mem seen p.p_section then
        raise (Bad_obj ("duplicate program section " ^ p.p_section));
      Hashtbl.replace seen p.p_section ())
    t.o_progs;
  let prog_sections =
    List.map
      (fun p -> Elf.{ sec_name = p.p_section; sec_addr = 0L; sec_data = Insn.encode p.p_insns })
      t.o_progs
  in
  let symbols =
    List.map
      (fun p ->
        Elf.
          {
            sym_name = p.p_name;
            sym_value = 0L;
            sym_size = 8 * List.length p.p_insns;
            sym_bind = Elf.Global;
            sym_section = p.p_section;
          })
      t.o_progs
  in
  let meta = t.o_name ^ "\000" ^ t.o_built_for in
  Elf.write
    Elf.
      {
        machine = Elf.Bpf;
        sections =
          prog_sections
          @ [
              { sec_name = ".maps"; sec_addr = 0L; sec_data = encode_maps t.o_maps };
              {
                sec_name = ".depsurf.kfuncs";
                sec_addr = 0L;
                sec_data = encode_kfuncs t.o_progs;
              };
              { sec_name = ".BTF"; sec_addr = 0L; sec_data = Btf.encode t.o_btf };
              { sec_name = ".BTF.ext"; sec_addr = 0L; sec_data = encode_btf_ext t.o_progs };
              { sec_name = ".depsurf.meta"; sec_addr = 0L; sec_data = meta };
            ];
        symbols;
      }

let read_strict data =
  let elf = try Diag.ok (Elf.read data) with Elf.Bad_elf m -> raise (Bad_obj m) in
  if elf.Elf.machine <> Elf.Bpf then raise (Bad_obj "not a BPF object");
  let section name =
    match Elf.find_section elf name with
    | Some s -> s.Elf.sec_data
    | None -> raise (Bad_obj ("missing section " ^ name))
  in
  let btf =
    try Diag.ok (Btf.decode (section ".BTF")) with Ds_btf.Btf.Bad_btf m -> raise (Bad_obj m)
  in
  let maps =
    match Elf.find_section elf ".maps" with
    | Some s -> decode_maps s.Elf.sec_data
    | None -> []
  in
  let kfuncs =
    match Elf.find_section elf ".depsurf.kfuncs" with
    | Some s -> decode_kfuncs s.Elf.sec_data
    | None -> []
  in
  let relocs = decode_btf_ext (section ".BTF.ext") in
  let o_name, o_built_for =
    match String.split_on_char '\000' (section ".depsurf.meta") with
    | [ a; b ] -> (a, b)
    | _ -> raise (Bad_obj "bad meta section")
  in
  let progs =
    List.filter_map
      (fun (s : Elf.section) ->
        if
          s.Elf.sec_name = ".BTF" || s.Elf.sec_name = ".BTF.ext"
          || s.Elf.sec_name = ".depsurf.meta" || s.Elf.sec_name = ".maps"
          || s.Elf.sec_name = ".depsurf.kfuncs"
        then None
        else begin
          let name =
            match
              List.find_opt (fun sym -> sym.Elf.sym_section = s.Elf.sec_name) elf.Elf.symbols
            with
            | Some sym -> sym.Elf.sym_name
            | None -> s.Elf.sec_name
          in
          let insns = try Insn.decode s.Elf.sec_data with Insn.Bad_insn m -> raise (Bad_obj m) in
          Some
            {
              p_name = name;
              p_section = s.Elf.sec_name;
              p_insns = insns;
              p_relocs = Option.value ~default:[] (List.assoc_opt s.Elf.sec_name relocs);
              p_kfuncs = Option.value ~default:[] (List.assoc_opt s.Elf.sec_name kfuncs);
            }
        end)
      elf.Elf.sections
  in
  { o_name; o_built_for; o_progs = progs; o_maps = maps; o_btf = btf }

type read_result = { o_obj : t; o_diags : Diag.t list }

let empty_obj =
  { o_name = "unknown"; o_built_for = ""; o_progs = []; o_maps = []; o_btf = Btf.create () }

let meta_section_names =
  [ ".BTF"; ".BTF.ext"; ".depsurf.meta"; ".maps"; ".depsurf.kfuncs" ]

let read_lenient_impl data =
  let collector = Diag.Collector.create () in
  let emit ?context severity msg =
    Diag.Collector.emit collector (Diag.v ?context severity ~component:"bpf_obj" msg)
  in
  let o = Elf.read ~mode:`Lenient data in
  let elf = Diag.ok o and r_diags = Diag.diags o in
  List.iter (Diag.Collector.emit collector) r_diags;
  if Diag.worst r_diags = Some Diag.Fatal then
    (* not even an ELF container: nothing downstream to salvage *)
    { o_obj = empty_obj; o_diags = Diag.Collector.diags collector }
  else if elf.Elf.machine <> Elf.Bpf then begin
    emit Diag.Fatal "not a BPF object";
    { o_obj = empty_obj; o_diags = Diag.Collector.diags collector }
  end
  else begin
    let o_btf =
      match Elf.find_section elf ".BTF" with
      | None ->
          emit Diag.Degraded "missing section .BTF";
          Btf.create ()
      | Some s ->
          let bo = Btf.decode ~mode:`Lenient s.Elf.sec_data in
          List.iter (fun d -> Diag.Collector.emit collector (Diag.demote d)) (Diag.diags bo);
          Diag.ok bo
    in
    let o_maps =
      match Elf.find_section elf ".maps" with
      | None -> []
      | Some s -> (
          match decode_maps s.Elf.sec_data with
          | maps -> maps
          | exception Bad_obj m ->
              emit ~context:".maps" Diag.Degraded m;
              [])
    in
    let kfuncs =
      match Elf.find_section elf ".depsurf.kfuncs" with
      | None -> []
      | Some s -> (
          match decode_kfuncs s.Elf.sec_data with
          | k -> k
          | exception Bad_obj m ->
              emit ~context:".depsurf.kfuncs" Diag.Degraded m;
              [])
    in
    let relocs =
      match Elf.find_section elf ".BTF.ext" with
      | None ->
          emit Diag.Degraded "missing section .BTF.ext";
          []
      | Some s -> (
          match decode_btf_ext s.Elf.sec_data with
          | r -> r
          | exception Bad_obj m ->
              emit ~context:".BTF.ext" Diag.Degraded m;
              []
          | exception Bytesio.Truncated what ->
              emit ~context:".BTF.ext" Diag.Degraded ("truncated: " ^ what);
              [])
    in
    let o_name, o_built_for =
      match Elf.find_section elf ".depsurf.meta" with
      | None ->
          emit Diag.Degraded "missing section .depsurf.meta";
          ("unknown", "")
      | Some s -> (
          match String.split_on_char '\000' s.Elf.sec_data with
          | [ a; b ] -> (a, b)
          | _ ->
              emit Diag.Degraded "bad meta section";
              ("unknown", ""))
    in
    let bad_progs = ref 0 in
    let progs =
      List.filter_map
        (fun (s : Elf.section) ->
          if List.mem s.Elf.sec_name meta_section_names then None
          else begin
            let name =
              match
                List.find_opt (fun sym -> sym.Elf.sym_section = s.Elf.sec_name) elf.Elf.symbols
              with
              | Some sym -> sym.Elf.sym_name
              | None -> s.Elf.sec_name
            in
            match Insn.decode s.Elf.sec_data with
            | insns ->
                Some
                  {
                    p_name = name;
                    p_section = s.Elf.sec_name;
                    p_insns = insns;
                    p_relocs = Option.value ~default:[] (List.assoc_opt s.Elf.sec_name relocs);
                    p_kfuncs = Option.value ~default:[] (List.assoc_opt s.Elf.sec_name kfuncs);
                  }
            | exception Insn.Bad_insn _ | (exception Bytesio.Truncated _) ->
                incr bad_progs;
                None
          end)
        elf.Elf.sections
    in
    if !bad_progs > 0 then
      emit Diag.Degraded (Printf.sprintf "%d program sections undecodable (skipped)" !bad_progs);
    {
      o_obj = { o_name; o_built_for; o_progs = progs; o_maps = o_maps; o_btf };
      o_diags = Diag.Collector.diags collector;
    }
  end

(* The .BTF.ext header reads and the per-prog instruction decodes used to
   leak raw [Bytesio.Truncated]; map every escape to [Bad_obj]. *)
let read ?(mode = `Strict) data =
  Ds_trace.Trace.span ~name:"obj.read"
    ~attrs:[ ("bytes", string_of_int (String.length data)) ]
    (fun () ->
      match mode with
      | `Strict ->
          let obj =
            try read_strict data
            with Bytesio.Truncated what -> raise (Bad_obj ("truncated: " ^ what))
          in
          Diag.outcome obj
      | `Lenient ->
          let r = read_lenient_impl data in
          Diag.outcome ~diags:r.o_diags r.o_obj)

(* Resolve an access chain against the object's own BTF, skipping
   modifiers and following pointers, as libbpf does. The first access
   index selects the pointed-to object (almost always 0); subsequent
   indices select members. *)
let access_path t root_id access =
  let btf = t.o_btf in
  let rec resolve id =
    match Btf.get btf id with
    | Btf.Ptr inner | Btf.Const inner | Btf.Volatile inner | Btf.Restrict inner ->
        resolve inner
    | Btf.Typedef { typ; _ } -> resolve typ
    | k -> (id, k)
  in
  match access with
  | [] | [ _ ] -> (
      match resolve root_id with
      | _, (Btf.Struct { name; _ } | Btf.Union { name; _ } | Btf.Fwd { name; _ }) ->
          Some (name, [])
      | _ -> None)
  | _first :: members -> (
      match resolve root_id with
      | _, (Btf.Struct { name = root; _ } | Btf.Union { name = root; _ }) ->
          let rec walk kind idxs acc =
            match idxs with
            | [] -> Some (root, List.rev acc)
            | i :: rest -> (
                match kind with
                | Btf.Struct { members; _ } | Btf.Union { members; _ } -> (
                    match List.nth_opt members i with
                    | None -> None
                    | Some m -> (
                        match rest with
                        | [] -> Some (root, List.rev (m.Btf.m_name :: acc))
                        | _ ->
                            let _, k = resolve m.Btf.m_type in
                            walk k rest (m.Btf.m_name :: acc)))
                | _ -> None)
          in
          let _, k = resolve root_id in
          walk k members []
      | _ -> None)

let hook_of_section = Hook.of_section
