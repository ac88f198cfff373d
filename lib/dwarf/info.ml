open Ds_ctypes
module Diag = Ds_util.Diag
module W = Ds_util.Bytesio.Writer
module R = Ds_util.Bytesio.Reader

type inlined_call = { ic_callee : string; ic_pc : int64; ic_call_line : int }

type subprogram = {
  sp_name : string;
  sp_proto : Ctype.proto;
  sp_file : string;
  sp_line : int;
  sp_external : bool;
  sp_declared_inline : bool;
  sp_low_pc : int64 option;
  sp_inlined : inlined_call list;
  sp_calls : string list;
}

type cu = {
  cu_name : string;
  cu_subprograms : subprogram list;
  cu_structs : Decl.struct_def list;
  cu_enums : Decl.enum_def list;
  cu_typedefs : Decl.typedef_def list;
}

exception Bad_dwarf of string

(* Standard DWARF 4 numbers, the subset this codec writes or reads. *)
module Dw = struct
  let tag_array_type = 0x01
  let tag_enumeration_type = 0x04
  let tag_formal_parameter = 0x05
  let tag_member = 0x0d
  let tag_pointer_type = 0x0f
  let tag_compile_unit = 0x11
  let tag_structure_type = 0x13
  let tag_subroutine_type = 0x15
  let tag_typedef = 0x16
  let tag_union_type = 0x17
  let tag_unspecified_parameters = 0x18
  let tag_inlined_subroutine = 0x1d
  let tag_subrange_type = 0x21
  let tag_base_type = 0x24
  let tag_const_type = 0x26
  let tag_enumerator = 0x28
  let tag_subprogram = 0x2e
  let tag_volatile_type = 0x35
  let tag_call_site = 0x48

  let at_name = 0x03
  let at_byte_size = 0x0b
  let at_low_pc = 0x11
  let at_const_value = 0x1c
  let at_inline = 0x20
  let at_prototyped = 0x27
  let at_upper_bound = 0x2f
  let at_count = 0x37
  let at_data_member_location = 0x38
  let at_decl_file = 0x3a
  let at_decl_line = 0x3b
  let at_declaration = 0x3c
  let at_encoding = 0x3e
  let at_external = 0x3f
  let at_type = 0x49
  let at_call_file = 0x58
  let at_call_line = 0x59
  let at_call_origin = 0x7f

  let inl_declared_not_inlined = 2
  let inl_declared_inlined = 3

  let enc_float = 0x04
  let enc_signed = 0x05
  let enc_signed_char = 0x06
  let enc_unsigned = 0x07

  let form_data8 = 0x07
  let form_string = 0x08
  let form_sdata = 0x0d
  let form_udata = 0x0f
  let form_ref4 = 0x13
  let form_flag_present = 0x19
end

(* u32 length + u16 version + u32 abbrev offset + u8 address size *)
let unit_header_size = 11

(* ------------------------------------------------------------------ *)
(* Encoding                                                            *)
(* ------------------------------------------------------------------ *)

(* Every attribute the encoder writes, in the order a DIE carries them,
   each in its one form. An abbreviation is a tag, a children flag and a
   subset of this table, so a DIE's shape is an int: bit [i] of the mask
   stands for [attributes.(i)], and a DIE writes its values in table
   order. The last two serve only values the unsigned forms cannot
   carry: a negative enumerator and an empty array's count. *)
let attributes =
  Dw.
    [|
      (at_name, form_string);
      (at_byte_size, form_udata);
      (at_encoding, form_udata);
      (at_declaration, form_flag_present);
      (at_data_member_location, form_udata);
      (at_upper_bound, form_udata);
      (at_const_value, form_udata);
      (at_prototyped, form_flag_present);
      (at_decl_file, form_string);
      (at_decl_line, form_udata);
      (at_external, form_flag_present);
      (at_inline, form_udata);
      (at_low_pc, form_data8);
      (at_call_file, form_string);
      (at_call_line, form_udata);
      (at_call_origin, form_string);
      (at_type, form_ref4);
      (at_const_value, form_sdata);
      (at_count, form_udata);
    |]

let a_name = 1 lsl 0
let a_byte_size = 1 lsl 1
let a_encoding = 1 lsl 2
let a_declaration = 1 lsl 3
let a_location = 1 lsl 4
let a_upper_bound = 1 lsl 5
let a_const_value = 1 lsl 6
let a_prototyped = 1 lsl 7
let a_decl_file = 1 lsl 8
let a_decl_line = 1 lsl 9
let a_external = 1 lsl 10
let a_inline = 1 lsl 11
let a_low_pc = 1 lsl 12
let a_call_file = 1 lsl 13
let a_call_line = 1 lsl 14
let a_call_origin = 1 lsl 15
let a_type = 1 lsl 16
let a_const_sdata = 1 lsl 17
let a_count = 1 lsl 18

type enc = {
  abbrev : W.t;
  codes : (int, int) Hashtbl.t;  (** shape -> abbreviation code *)
  body : W.t;  (** the DIEs of the unit being written *)
  mutable base : int;  (** section offset of [body]'s first byte *)
}

(* Start a DIE (declaring its abbreviation on first use) and return its
   section offset; the caller then writes the values [mask] names. *)
let open_die e tag ~children mask =
  let shape = (((mask lsl 8) lor tag) lsl 1) lor Bool.to_int children in
  let code =
    match Hashtbl.find_opt e.codes shape with
    | Some c -> c
    | None ->
        let c = Hashtbl.length e.codes + 1 in
        Hashtbl.add e.codes shape c;
        W.uleb128 e.abbrev c;
        W.uleb128 e.abbrev tag;
        W.u8 e.abbrev (Bool.to_int children);
        Array.iteri
          (fun i (at, form) ->
            if mask land (1 lsl i) <> 0 then begin
              W.uleb128 e.abbrev at;
              W.uleb128 e.abbrev form
            end)
          attributes;
        W.uleb128 e.abbrev 0;
        W.uleb128 e.abbrev 0;
        c
  in
  let off = e.base + W.pos e.body in
  W.uleb128 e.body code;
  off

let end_children e ~children = if children then W.u8 e.body 0
let str e s = W.cstring e.body s
let udata e i = W.uleb128 e.body i
let has_type = function None -> 0 | Some _ -> a_type
let type_ref e = Option.iter (W.u32 e.body)
let flag b bit = if b then bit else 0

(* [params] carry their types' offsets, resolved before the owner DIE
   was opened. *)
let write_params e params ~variadic =
  List.iter
    (fun (pname, ty) ->
      ignore (open_die e Dw.tag_formal_parameter ~children:false (a_name lor has_type ty));
      str e pname;
      type_ref e ty)
    params;
  if variadic then ignore (open_die e Dw.tag_unspecified_parameters ~children:false 0)

(* One compile unit into [e.body]. Type DIEs sit at CU top level and are
   written, with everything they refer to, before the first DIE that
   refers to them, so every [DW_FORM_ref4] points backward. *)
let write_cu e cu =
  (* Per-CU memo of written types; [visiting] breaks self-referential
     aggregates (e.g. task_struct containing task_struct pointers) by
     writing the inner reference as a declaration-only DIE. *)
  let memo : (Ctype.t, int) Hashtbl.t = Hashtbl.create 64 in
  let visiting : (string, unit) Hashtbl.t = Hashtbl.create 8 in
  let defined_structs =
    List.fold_left (fun acc (s : Decl.struct_def) -> (s.sname, s) :: acc) [] cu.cu_structs
  in
  let defined_enums =
    List.fold_left (fun acc (en : Decl.enum_def) -> (en.ename, en) :: acc) [] cu.cu_enums
  in
  let defined_typedefs =
    List.fold_left (fun acc (td : Decl.typedef_def) -> (td.tname, td) :: acc) [] cu.cu_typedefs
  in
  let declaration tag name =
    let off = open_die e tag ~children:false (a_name lor a_declaration) in
    str e name;
    off
  in
  (* [None] for [Void], which is the absence of [DW_AT_type]. *)
  let rec resolve (t : Ctype.t) =
    match t with
    | Ctype.Void -> None
    | _ -> (
        match Hashtbl.find_opt memo t with
        | Some off -> Some off
        | None ->
            let off = write_type t in
            Hashtbl.replace memo t off;
            Some off)
  and write_type (t : Ctype.t) =
    match t with
    | Ctype.Void -> invalid_arg "Info.write_type Void"
    | Ctype.Int { name; bits; signed } ->
        base_type name bits (if signed then Dw.enc_signed else Dw.enc_unsigned)
    | Ctype.Float { name; bits } -> base_type name bits Dw.enc_float
    | Ctype.Ptr inner -> wrap Dw.tag_pointer_type inner
    | Ctype.Const inner -> wrap Dw.tag_const_type inner
    | Ctype.Volatile inner -> wrap Dw.tag_volatile_type inner
    | Ctype.Array (elem, n) ->
        let ty = resolve elem in
        let off = open_die e Dw.tag_array_type ~children:true (has_type ty) in
        type_ref e ty;
        (* an empty array has no upper bound to give: it says its count *)
        if n > 0 then begin
          ignore (open_die e Dw.tag_subrange_type ~children:false a_upper_bound);
          udata e (n - 1)
        end
        else begin
          ignore (open_die e Dw.tag_subrange_type ~children:false a_count);
          udata e n
        end;
        end_children e ~children:true;
        off
    | Ctype.Struct_ref name -> aggregate `Struct name
    | Ctype.Union_ref name -> aggregate `Union name
    | Ctype.Enum_ref name -> enum name
    | Ctype.Typedef_ref name -> typedef name
    | Ctype.Func_proto proto ->
        let params = resolve_params proto in
        let ret = resolve proto.ret in
        let children = params <> [] || proto.variadic in
        let off = open_die e Dw.tag_subroutine_type ~children (a_prototyped lor has_type ret) in
        type_ref e ret;
        write_params e params ~variadic:proto.variadic;
        end_children e ~children;
        off
  and resolve_params (proto : Ctype.proto) =
    List.map (fun (p : Ctype.param) -> (p.pname, resolve p.ptype)) proto.params
  and base_type name bits encoding =
    let off = open_die e Dw.tag_base_type ~children:false (a_name lor a_byte_size lor a_encoding) in
    str e name;
    udata e (bits / 8);
    udata e encoding;
    off
  and wrap tag inner =
    let ty = resolve inner in
    let off = open_die e tag ~children:false (has_type ty) in
    type_ref e ty;
    off
  and aggregate kind name =
    let tag = match kind with `Struct -> Dw.tag_structure_type | `Union -> Dw.tag_union_type in
    match List.assoc_opt name defined_structs with
    | Some def when def.skind = kind && not (Hashtbl.mem visiting name) ->
        Hashtbl.replace visiting name ();
        let fields = List.map (fun (f : Decl.field) -> (f, resolve f.ftype)) def.fields in
        Hashtbl.remove visiting name;
        let children = fields <> [] in
        let off = open_die e tag ~children (a_name lor a_byte_size) in
        str e name;
        udata e def.byte_size;
        List.iter
          (fun ((f : Decl.field), ty) ->
            ignore (open_die e Dw.tag_member ~children:false (a_name lor a_location lor has_type ty));
            str e f.fname;
            udata e (f.bits_offset / 8);
            type_ref e ty)
          fields;
        end_children e ~children;
        off
    | _ -> declaration tag name
  and enum name =
    match List.assoc_opt name defined_enums with
    | Some def ->
        let children = def.values <> [] in
        let off = open_die e Dw.tag_enumeration_type ~children (a_name lor a_byte_size) in
        str e name;
        udata e 4;
        List.iter
          (fun (n, v) ->
            if v >= 0 then begin
              ignore (open_die e Dw.tag_enumerator ~children:false (a_name lor a_const_value));
              str e n;
              udata e v
            end
            else begin
              ignore (open_die e Dw.tag_enumerator ~children:false (a_name lor a_const_sdata));
              str e n;
              W.sleb128 e.body v
            end)
          def.values;
        end_children e ~children;
        off
    | None -> declaration Dw.tag_enumeration_type name
  and typedef name =
    match List.assoc_opt name defined_typedefs with
    | Some def ->
        let ty = resolve def.aliased in
        let off = open_die e Dw.tag_typedef ~children:false (a_name lor has_type ty) in
        str e name;
        type_ref e ty;
        off
    | None -> declaration Dw.tag_typedef name
  in
  let children =
    cu.cu_structs <> [] || cu.cu_enums <> [] || cu.cu_typedefs <> [] || cu.cu_subprograms <> []
  in
  ignore (open_die e Dw.tag_compile_unit ~children a_name);
  str e cu.cu_name;
  (* Every aggregate/enum/typedef defined in the unit is written, even if
     no subprogram references it. *)
  List.iter
    (fun (s : Decl.struct_def) ->
      ignore
        (resolve
           (match s.skind with
           | `Struct -> Ctype.Struct_ref s.sname
           | `Union -> Ctype.Union_ref s.sname)))
    cu.cu_structs;
  List.iter (fun (en : Decl.enum_def) -> ignore (resolve (Ctype.Enum_ref en.ename))) cu.cu_enums;
  List.iter
    (fun (td : Decl.typedef_def) -> ignore (resolve (Ctype.Typedef_ref td.tname)))
    cu.cu_typedefs;
  List.iter
    (fun sp ->
      let proto = sp.sp_proto in
      let params = resolve_params proto in
      let ret = resolve proto.ret in
      let children =
        params <> [] || proto.variadic || sp.sp_inlined <> [] || sp.sp_calls <> []
      in
      ignore
        (open_die e Dw.tag_subprogram ~children
           (a_name lor a_decl_file lor a_decl_line
           lor flag sp.sp_external a_external
           lor flag sp.sp_declared_inline a_inline
           lor flag (sp.sp_low_pc <> None) a_low_pc
           lor has_type ret));
      str e sp.sp_name;
      str e sp.sp_file;
      udata e sp.sp_line;
      if sp.sp_declared_inline then udata e Dw.inl_declared_inlined;
      Option.iter (W.u64 e.body) sp.sp_low_pc;
      type_ref e ret;
      write_params e params ~variadic:proto.variadic;
      List.iter
        (fun ic ->
          ignore
            (open_die e Dw.tag_inlined_subroutine ~children:false
               (a_name lor a_low_pc lor a_call_file lor a_call_line));
          str e ic.ic_callee;
          W.u64 e.body ic.ic_pc;
          str e cu.cu_name;
          udata e ic.ic_call_line)
        sp.sp_inlined;
      List.iter
        (fun callee ->
          ignore (open_die e Dw.tag_call_site ~children:false a_call_origin);
          str e callee)
        sp.sp_calls;
      end_children e ~children)
    cu.cu_subprograms;
  end_children e ~children

let encode cus =
  let e = { abbrev = W.create (); codes = Hashtbl.create 64; body = W.create (); base = 0 } in
  let info = W.create () in
  List.iter
    (fun cu ->
      W.clear e.body;
      e.base <- W.pos info + unit_header_size;
      write_cu e cu;
      W.u32 info (unit_header_size - 4 + W.pos e.body);
      W.u16 info 4 (* DWARF version *);
      W.u32 info 0 (* abbrev offset: single table *);
      W.u8 info 8 (* address size *);
      W.append info e.body)
    cus;
  W.uleb128 e.abbrev 0;
  (W.contents info, W.contents e.abbrev)

(* ------------------------------------------------------------------ *)
(* Decoding                                                            *)
(* ------------------------------------------------------------------ *)

type shape = { s_tag : int; s_children : bool; s_pairs : (int * int) list }

(* One DIE as read: its tag, the attributes [decode] uses, and its
   children. [ty] stays a section offset; it is looked up in the
   section-wide table once the walk is over. *)
type die = {
  tag : int;
  mutable name : string option;
  mutable decl_file : string option;
  mutable call_origin : string option;
  mutable byte_size : int option;
  mutable encoding : int option;
  mutable upper_bound : int option;
  mutable count : int option;
  mutable location : int option;
  mutable const_value : int option;
  mutable decl_line : int option;
  mutable call_line : int option;
  mutable inline : int option;
  mutable low_pc : int64 option;
  mutable declaration : bool;
  mutable external_ : bool;
  mutable ty : int option;
  mutable children : die list;
}

let new_die tag =
  {
    tag;
    name = None;
    decl_file = None;
    call_origin = None;
    byte_size = None;
    encoding = None;
    upper_bound = None;
    count = None;
    location = None;
    const_value = None;
    decl_line = None;
    call_line = None;
    inline = None;
    low_pc = None;
    declaration = false;
    external_ = false;
    ty = None;
    children = [];
  }

(* A failure inside one compile unit skips just that unit (the unit
   header's length field locates the next unit boundary, which is what
   real consumers resync on). *)
exception Unit_fail of string

exception Stop_units

let ufail msg = raise (Unit_fail msg)

(* Read one attribute value by its form. An attribute [decode] does not
   use, or one in a form it does not expect, is read and ignored; every
   [DW_FORM_ref4] is pushed on [refs] to be checked after the walk. *)
let read_attr r d refs (at, form) =
  if form = Dw.form_string then begin
    let s = R.cstring r in
    if at = Dw.at_name then d.name <- Some s
    else if at = Dw.at_decl_file then d.decl_file <- Some s
    else if at = Dw.at_call_origin then d.call_origin <- Some s
  end
  else if form = Dw.form_udata then begin
    let i = R.uleb128 r in
    if at = Dw.at_byte_size then d.byte_size <- Some i
    else if at = Dw.at_encoding then d.encoding <- Some i
    else if at = Dw.at_upper_bound then d.upper_bound <- Some i
    else if at = Dw.at_count then d.count <- Some i
    else if at = Dw.at_data_member_location then d.location <- Some i
    else if at = Dw.at_const_value then d.const_value <- Some i
    else if at = Dw.at_decl_line then d.decl_line <- Some i
    else if at = Dw.at_call_line then d.call_line <- Some i
    else if at = Dw.at_inline then d.inline <- Some i
  end
  else if form = Dw.form_sdata then begin
    let i = R.sleb128 r in
    if at = Dw.at_const_value then d.const_value <- Some i
  end
  else if form = Dw.form_data8 then begin
    let a = R.u64 r in
    if at = Dw.at_low_pc then d.low_pc <- Some a
  end
  else if form = Dw.form_flag_present then begin
    if at = Dw.at_declaration then d.declaration <- true
    else if at = Dw.at_external then d.external_ <- true
  end
  else if form = Dw.form_ref4 then begin
    let off = R.u32 r in
    refs := off :: !refs;
    if at = Dw.at_type then d.ty <- Some off
  end
  else ufail (Printf.sprintf "unsupported form 0x%x" form)

let read_abbrevs sink abbrev =
  let shapes : (int, shape) Hashtbl.t = Hashtbl.create 64 in
  let ar = R.of_string abbrev in
  (try
     let rec go () =
       let code = R.uleb128 ar in
       if code <> 0 then begin
         let tag = R.uleb128 ar in
         let has_children = R.u8 ar = 1 in
         let rec pairs acc =
           let at = R.uleb128 ar in
           let form = R.uleb128 ar in
           if at = 0 && form = 0 then List.rev acc
           else
             (* only an attribute's first occurrence counts; a repeat is
                still read (as attribute 0, which nothing uses) *)
             let seen = List.exists (fun (a, _) -> a = at) acc in
             pairs (((if seen then 0 else at), form) :: acc)
         in
         Hashtbl.replace shapes code { s_tag = tag; s_children = has_children; s_pairs = pairs [] };
         go ()
       end
     in
     go ()
   with Ds_util.Bytesio.Truncated _ ->
     Diag.Sink.report sink ~offset:(R.pos ar) Diag.Degraded "truncated abbrev");
  shapes

(* Walk the units: the root DIE of each unit that reads cleanly, in
   order. Every completed DIE, in a skipped unit too, enters [table]
   under its section offset, and its refs enter [refs] (newest first)
   when it completes. *)
let walk sink shapes table refs info =
  let r = R.of_string info in
  let rec read_die () =
    let die_off = R.pos r in
    let code = R.uleb128 r in
    if code = 0 then None
    else begin
      let shape =
        match Hashtbl.find_opt shapes code with
        | Some s -> s
        | None -> ufail (Printf.sprintf "unknown abbrev %d" code)
      in
      let d = new_die shape.s_tag in
      let own = ref [] in
      List.iter (read_attr r d own) shape.s_pairs;
      if shape.s_children then begin
        let rec go acc = match read_die () with None -> List.rev acc | Some c -> go (c :: acc) in
        d.children <- go []
      end;
      Hashtbl.replace table die_off d;
      refs := !own @ !refs;
      Some d
    end
  in
  (* Consecutive resync failures mean we are walking garbage (e.g. a
     zeroed region where every 4-byte "length" is 0): bail rather than
     emit one diagnostic per word of junk. *)
  let max_consecutive_skips = 8 in
  let consecutive_skips = ref 0 in
  let roots = ref [] in
  let drop_rest ~offset msg =
    Diag.Sink.report sink ~offset Diag.Degraded msg;
    raise Stop_units
  in
  (try
     while not (R.eof r) do
       let unit_start = R.pos r in
       let len =
         try R.u32 r
         with Ds_util.Bytesio.Truncated _ ->
           drop_rest ~offset:unit_start "truncated unit header; rest of .debug_info dropped"
       in
       let skip msg =
         incr consecutive_skips;
         Diag.Sink.report sink
           ~context:(Printf.sprintf "unit at offset %d" unit_start)
           ~offset:unit_start Diag.Degraded msg;
         (* resync on the unit length field; [unit_start + 4 + len] is
            the start of the next unit in a well-formed stream *)
         let next = unit_start + 4 + len in
         if next > String.length info then drop_rest ~offset:unit_start "rest of .debug_info dropped"
         else if !consecutive_skips >= max_consecutive_skips then
           drop_rest ~offset:unit_start
             (Printf.sprintf "%d consecutive undecodable units; rest of .debug_info dropped"
                !consecutive_skips)
         else R.seek r next
       in
       try
         let version = R.u16 r in
         if version <> 4 then ufail "bad version";
         let _abbrev_off = R.u32 r in
         let _addr_size = R.u8 r in
         (match read_die () with Some d -> roots := d :: !roots | None -> ufail "empty unit");
         consecutive_skips := 0
       with
       | Unit_fail msg -> skip msg
       | Ds_util.Bytesio.Truncated _ -> skip "truncated"
     done
   with Stop_units -> ());
  List.rev !roots

(* A corrupted ref4 offset can point back at an enclosing type and make
   a reference cycle (impossible in encoder output); the depth bound
   turns that into a typed error instead of a stack overflow. *)
let max_type_depth = 64

let decode_cu table cu_die =
  let name_of (d : die) = Option.value ~default:"?" d.name in
  (* a dangling [DW_AT_type] was dropped: it reads as absent *)
  let target (d : die) = Option.bind d.ty (Hashtbl.find_opt table) in
  let rec ctype_of d (die : die) : Ctype.t =
    if d > max_type_depth then raise (Bad_dwarf "type reference cycle");
    let inner () = type_of (d + 1) die in
    let tag = die.tag in
    if tag = Dw.tag_base_type then begin
      let bytes = Option.value ~default:4 die.byte_size in
      let enc = Option.value ~default:Dw.enc_signed die.encoding in
      if enc = Dw.enc_float then Ctype.Float { name = name_of die; bits = bytes * 8 }
      else
        Ctype.Int
          {
            name = name_of die;
            bits = bytes * 8;
            signed = enc = Dw.enc_signed || enc = Dw.enc_signed_char;
          }
    end
    else if tag = Dw.tag_pointer_type then Ctype.Ptr (inner ())
    else if tag = Dw.tag_const_type then Ctype.Const (inner ())
    else if tag = Dw.tag_volatile_type then Ctype.Volatile (inner ())
    else if tag = Dw.tag_array_type then begin
      let n =
        List.fold_left
          (fun acc (c : die) ->
            if c.tag = Dw.tag_subrange_type then
              match (c.count, c.upper_bound) with
              | Some n, _ -> n
              | None, Some u -> u + 1
              | None, None -> acc
            else acc)
          0 die.children
      in
      Ctype.Array (inner (), n)
    end
    else if tag = Dw.tag_structure_type then Ctype.Struct_ref (name_of die)
    else if tag = Dw.tag_union_type then Ctype.Union_ref (name_of die)
    else if tag = Dw.tag_enumeration_type then Ctype.Enum_ref (name_of die)
    else if tag = Dw.tag_typedef then Ctype.Typedef_ref (name_of die)
    else if tag = Dw.tag_subroutine_type then Ctype.Func_proto (proto_of (d + 1) die)
    else raise (Bad_dwarf (Printf.sprintf "unexpected type tag 0x%x" tag))
  (* the type [die] refers to, [Void] when it refers to none *)
  and type_of d die = match target die with Some t -> ctype_of d t | None -> Ctype.Void
  and proto_of d die : Ctype.proto =
    let params =
      List.filter_map
        (fun (c : die) ->
          if c.tag = Dw.tag_formal_parameter then
            Some Ctype.{ pname = Option.value ~default:"" c.name; ptype = type_of (d + 1) c }
          else None)
        die.children
    in
    let variadic =
      List.exists (fun (c : die) -> c.tag = Dw.tag_unspecified_parameters) die.children
    in
    { ret = type_of (d + 1) die; params; variadic }
  in
  let children_with tag f (die : die) =
    List.filter_map (fun (c : die) -> if c.tag = tag then Some (f c) else None) die.children
  in
  if cu_die.tag <> Dw.tag_compile_unit then raise (Bad_dwarf "root is not a compile unit");
  let cu_name = name_of cu_die in
  let subprograms = ref [] in
  let structs = ref [] in
  let enums = ref [] in
  let typedefs = ref [] in
  List.iter
    (fun (die : die) ->
      if die.tag = Dw.tag_subprogram then
        subprograms :=
          {
            sp_name = name_of die;
            sp_proto = proto_of 0 die;
            sp_file = Option.value ~default:cu_name die.decl_file;
            sp_line = Option.value ~default:0 die.decl_line;
            sp_external = die.external_;
            sp_declared_inline =
              (match die.inline with
              | Some i -> i = Dw.inl_declared_inlined || i = Dw.inl_declared_not_inlined
              | None -> false);
            sp_low_pc = die.low_pc;
            sp_inlined =
              children_with Dw.tag_inlined_subroutine
                (fun c ->
                  {
                    ic_callee = name_of c;
                    ic_pc = Option.value ~default:0L c.low_pc;
                    ic_call_line = Option.value ~default:0 c.call_line;
                  })
                die;
            sp_calls =
              List.filter_map
                (fun (c : die) -> if c.tag = Dw.tag_call_site then c.call_origin else None)
                die.children;
          }
          :: !subprograms
      else if
        (die.tag = Dw.tag_structure_type || die.tag = Dw.tag_union_type) && not die.declaration
      then
        structs :=
          Decl.
            {
              sname = name_of die;
              skind = (if die.tag = Dw.tag_structure_type then `Struct else `Union);
              byte_size = Option.value ~default:0 die.byte_size;
              fields =
                children_with Dw.tag_member
                  (fun c ->
                    {
                      fname = name_of c;
                      ftype = type_of 0 c;
                      bits_offset = 8 * Option.value ~default:0 c.location;
                    })
                  die;
            }
          :: !structs
      else if die.tag = Dw.tag_enumeration_type && not die.declaration then
        enums :=
          Decl.
            {
              ename = name_of die;
              values =
                children_with Dw.tag_enumerator
                  (fun c -> (name_of c, Option.value ~default:0 c.const_value))
                  die;
            }
          :: !enums
      else if die.tag = Dw.tag_typedef && not die.declaration then
        match target die with
        | Some t -> typedefs := Decl.{ tname = name_of die; aliased = ctype_of 0 t } :: !typedefs
        | None -> ())
    cu_die.children;
  {
    cu_name;
    cu_subprograms = List.rev !subprograms;
    cu_structs = List.rev !structs;
    cu_enums = List.rev !enums;
    cu_typedefs = List.rev !typedefs;
  }

let decode ?mode ~info ~abbrev () =
  Ds_trace.Trace.span ~name:"dwarf.info.decode"
    ~attrs:
      [
        ("info_bytes", string_of_int (String.length info));
        ("abbrev_bytes", string_of_int (String.length abbrev));
      ]
    (fun () ->
      let sink = Diag.Sink.create ?mode ~component:"dwarf" (fun m -> Bad_dwarf m) in
      let shapes = read_abbrevs sink abbrev in
      let table : (int, die) Hashtbl.t = Hashtbl.create (String.length info / 16) in
      let refs = ref [] in
      let roots = walk sink shapes table refs info in
      let dangling = Diag.Sink.tally sink in
      List.iter
        (fun off ->
          if not (Hashtbl.mem table off) then
            Diag.Sink.skip dangling (Printf.sprintf "dangling ref to offset %d" off))
        (List.rev !refs);
      Diag.Sink.close dangling (Printf.sprintf "%d dangling references dropped");
      let skipped = Diag.Sink.tally sink in
      let cus =
        List.filter_map
          (fun root ->
            match decode_cu table root with
            | cu -> Some cu
            | exception Bad_dwarf m ->
                Diag.Sink.skip skipped m;
                None)
          roots
      in
      Diag.Sink.close skipped (Printf.sprintf "%d compile units undecodable (skipped)");
      Diag.Sink.outcome sink cus)
