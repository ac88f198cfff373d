open Ds_ctypes
open Die

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

(* ------------------------------------------------------------------ *)
(* Encoding: lower each CU into DIEs.                                  *)
(* ------------------------------------------------------------------ *)

let encode cus =
  let b = Builder.create () in
  let lower_cu cu =
    (* Per-CU memo of lowered types; [visiting] breaks self-referential
       aggregates (e.g. task_struct containing task_struct pointers) by
       lowering the inner reference as a declaration-only DIE. *)
    let memo : (Ctype.t, int) Hashtbl.t = Hashtbl.create 64 in
    let visiting : (string, unit) Hashtbl.t = Hashtbl.create 8 in
    let defined_structs =
      List.fold_left
        (fun acc (s : Decl.struct_def) -> (s.sname, s) :: acc)
        [] cu.cu_structs
    in
    let defined_enums =
      List.fold_left (fun acc (e : Decl.enum_def) -> (e.ename, e) :: acc) [] cu.cu_enums
    in
    let defined_typedefs =
      List.fold_left
        (fun acc (td : Decl.typedef_def) -> (td.tname, td) :: acc)
        [] cu.cu_typedefs
    in
    let children = ref [] in
    let add_top id = children := id :: !children in
    let rec type_id (t : Ctype.t) =
      match Hashtbl.find_opt memo t with
      | Some id -> id
      | None ->
          let id =
            match t with
            | Ctype.Void ->
                (* represented by absence of DW_AT_type; callers special-case *)
                invalid_arg "type_id Void"
            | Ctype.Int { name; bits; signed } ->
                Builder.add b ~tag:Dw.tag_base_type
                  ~attrs:
                    [
                      (Dw.at_name, String name);
                      (Dw.at_byte_size, Int (bits / 8));
                      (Dw.at_encoding, Int (if signed then Dw.enc_signed else Dw.enc_unsigned));
                    ]
                  ~children:[]
            | Ctype.Float { name; bits } ->
                Builder.add b ~tag:Dw.tag_base_type
                  ~attrs:
                    [
                      (Dw.at_name, String name);
                      (Dw.at_byte_size, Int (bits / 8));
                      (Dw.at_encoding, Int Dw.enc_float);
                    ]
                  ~children:[]
            | Ctype.Ptr inner -> wrap Dw.tag_pointer_type inner
            | Ctype.Const inner -> wrap Dw.tag_const_type inner
            | Ctype.Volatile inner -> wrap Dw.tag_volatile_type inner
            | Ctype.Array (elem, n) ->
                let sub =
                  Builder.add b ~tag:Dw.tag_subrange_type
                    ~attrs:[ (Dw.at_upper_bound, Int (n - 1)) ]
                    ~children:[]
                in
                let attrs =
                  match elem with
                  | Ctype.Void -> []
                  | _ -> [ (Dw.at_type, Ref (type_id elem)) ]
                in
                Builder.add b ~tag:Dw.tag_array_type ~attrs ~children:[ sub ]
            | Ctype.Struct_ref name -> aggregate `Struct name
            | Ctype.Union_ref name -> aggregate `Union name
            | Ctype.Enum_ref name -> enum name
            | Ctype.Typedef_ref name -> typedef name
            | Ctype.Func_proto proto ->
                let params = List.map param_die proto.params in
                let params =
                  if proto.variadic then
                    params
                    @ [ Builder.add b ~tag:Dw.tag_unspecified_parameters ~attrs:[] ~children:[] ]
                  else params
                in
                let attrs =
                  (Dw.at_prototyped, Flag)
                  ::
                  (match proto.ret with
                  | Ctype.Void -> []
                  | r -> [ (Dw.at_type, Ref (type_id r)) ])
                in
                Builder.add b ~tag:Dw.tag_subroutine_type ~attrs ~children:params
          in
          Hashtbl.replace memo t id;
          (* Every type DIE must live in the tree, or its Ref target would
             never be laid out; they all become children of the CU. *)
          add_top id;
          id
    and wrap tag inner =
      let attrs =
        match inner with Ctype.Void -> [] | _ -> [ (Dw.at_type, Ref (type_id inner)) ]
      in
      Builder.add b ~tag ~attrs ~children:[]
    and aggregate kind name =
      let tag = match kind with `Struct -> Dw.tag_structure_type | `Union -> Dw.tag_union_type in
      match List.assoc_opt name defined_structs with
      | Some def when def.skind = kind && not (Hashtbl.mem visiting name) ->
          Hashtbl.replace visiting name ();
          let members =
            List.map
              (fun (f : Decl.field) ->
                let attrs =
                  [
                    (Dw.at_name, String f.fname);
                    (Dw.at_data_member_location, Int (f.bits_offset / 8));
                  ]
                  @
                  match f.ftype with
                  | Ctype.Void -> []
                  | t -> [ (Dw.at_type, Ref (type_id t)) ]
                in
                Builder.add b ~tag:Dw.tag_member ~attrs ~children:[])
              def.fields
          in
          let id =
            Builder.add b ~tag
              ~attrs:[ (Dw.at_name, String name); (Dw.at_byte_size, Int def.byte_size) ]
              ~children:members
          in
          Hashtbl.remove visiting name;
          id
      | _ ->
          Builder.add b ~tag
            ~attrs:[ (Dw.at_name, String name); (Dw.at_declaration, Flag) ]
            ~children:[]
    and enum name =
      match List.assoc_opt name defined_enums with
      | Some def ->
          let enumerators =
            List.map
              (fun (n, v) ->
                Builder.add b ~tag:Dw.tag_enumerator
                  ~attrs:[ (Dw.at_name, String n); (Dw.at_const_value, Int v) ]
                  ~children:[])
              def.values
          in
          Builder.add b ~tag:Dw.tag_enumeration_type
            ~attrs:[ (Dw.at_name, String name); (Dw.at_byte_size, Int 4) ]
            ~children:enumerators
      | None ->
          Builder.add b ~tag:Dw.tag_enumeration_type
            ~attrs:[ (Dw.at_name, String name); (Dw.at_declaration, Flag) ]
            ~children:[]
    and typedef name =
      match List.assoc_opt name defined_typedefs with
      | Some def ->
          let attrs =
            (Dw.at_name, String name)
            ::
            (match def.aliased with
            | Ctype.Void -> []
            | t -> [ (Dw.at_type, Ref (type_id t)) ])
          in
          Builder.add b ~tag:Dw.tag_typedef ~attrs ~children:[]
      | None ->
          Builder.add b ~tag:Dw.tag_typedef
            ~attrs:[ (Dw.at_name, String name); (Dw.at_declaration, Flag) ]
            ~children:[]
    and param_die (p : Ctype.param) =
      let attrs =
        (Dw.at_name, String p.pname)
        ::
        (match p.ptype with
        | Ctype.Void -> []
        | t -> [ (Dw.at_type, Ref (type_id t)) ])
      in
      Builder.add b ~tag:Dw.tag_formal_parameter ~attrs ~children:[]
    in
    (* Emit every aggregate/enum/typedef defined in the unit, even if no
       subprogram references it. *)
    List.iter
      (fun (s : Decl.struct_def) ->
        ignore
          (type_id
             (match s.skind with
             | `Struct -> Ctype.Struct_ref s.sname
             | `Union -> Ctype.Union_ref s.sname)))
      cu.cu_structs;
    List.iter (fun (e : Decl.enum_def) -> ignore (type_id (Ctype.Enum_ref e.ename))) cu.cu_enums;
    List.iter
      (fun (td : Decl.typedef_def) -> ignore (type_id (Ctype.Typedef_ref td.tname)))
      cu.cu_typedefs;
    List.iter
      (fun sp ->
        let params = List.map param_die sp.sp_proto.params in
        let params =
          if sp.sp_proto.variadic then
            params
            @ [ Builder.add b ~tag:Dw.tag_unspecified_parameters ~attrs:[] ~children:[] ]
          else params
        in
        let inlined =
          List.map
            (fun ic ->
              Builder.add b ~tag:Dw.tag_inlined_subroutine
                ~attrs:
                  [
                    (Dw.at_name, String ic.ic_callee);
                    (Dw.at_low_pc, Addr ic.ic_pc);
                    (Dw.at_call_file, String cu.cu_name);
                    (Dw.at_call_line, Int ic.ic_call_line);
                  ]
                ~children:[])
            sp.sp_inlined
        in
        let calls =
          List.map
            (fun callee ->
              Builder.add b ~tag:Dw.tag_call_site
                ~attrs:[ (Dw.at_call_origin, String callee) ]
                ~children:[])
            sp.sp_calls
        in
        let attrs =
          [
            (Dw.at_name, String sp.sp_name);
            (Dw.at_decl_file, String sp.sp_file);
            (Dw.at_decl_line, Int sp.sp_line);
          ]
          @ (if sp.sp_external then [ (Dw.at_external, Flag) ] else [])
          @ (if sp.sp_declared_inline then [ (Dw.at_inline, Int Dw.inl_declared_inlined) ]
             else [])
          @ (match sp.sp_low_pc with Some pc -> [ (Dw.at_low_pc, Addr pc) ] | None -> [])
          @
          match sp.sp_proto.ret with
          | Ctype.Void -> []
          | r -> [ (Dw.at_type, Ref (type_id r)) ]
        in
        add_top
          (Builder.add b ~tag:Dw.tag_subprogram ~attrs
             ~children:(params @ inlined @ calls)))
      cu.cu_subprograms;
    let cu_id =
      Builder.add b ~tag:Dw.tag_compile_unit
        ~attrs:[ (Dw.at_name, String cu.cu_name) ]
        ~children:(List.rev !children)
    in
    Builder.add_root b cu_id
  in
  List.iter lower_cu cus;
  Die.encode (Builder.finish b)

(* ------------------------------------------------------------------ *)
(* Decoding                                                            *)
(* ------------------------------------------------------------------ *)

(* A corrupted ref4 offset can remap onto an earlier DIE and create a
   reference cycle (impossible in writer-produced arenas); the depth
   bound turns that into a typed error instead of a stack overflow. *)
let max_type_depth = 64

let decode_cu_of arena =
  let rec ctype_of ?(d = 0) id : Ctype.t =
    if d > max_type_depth then raise (Bad_dwarf "type reference cycle");
    let die = get arena id in
    let inner () =
      match attr_ref die Dw.at_type with Some r -> ctype_of ~d:(d + 1) r | None -> Ctype.Void
    in
    if die.tag = Dw.tag_base_type then begin
      let name = Option.value ~default:"?" (attr_string die Dw.at_name) in
      let bytes = Option.value ~default:4 (attr_int die Dw.at_byte_size) in
      let enc = Option.value ~default:Dw.enc_signed (attr_int die Dw.at_encoding) in
      if enc = Dw.enc_float then Ctype.Float { name; bits = bytes * 8 }
      else
        Ctype.Int
          {
            name;
            bits = bytes * 8;
            signed = enc = Dw.enc_signed || enc = Dw.enc_signed_char;
          }
    end
    else if die.tag = Dw.tag_pointer_type then Ctype.Ptr (inner ())
    else if die.tag = Dw.tag_const_type then Ctype.Const (inner ())
    else if die.tag = Dw.tag_volatile_type then Ctype.Volatile (inner ())
    else if die.tag = Dw.tag_array_type then begin
      let n =
        List.fold_left
          (fun acc c ->
            let child = get arena c in
            if child.tag = Dw.tag_subrange_type then
              match attr_int child Dw.at_upper_bound with Some u -> u + 1 | None -> acc
            else acc)
          0 die.children
      in
      Ctype.Array (inner (), n)
    end
    else if die.tag = Dw.tag_structure_type then
      Ctype.Struct_ref (Option.value ~default:"?" (attr_string die Dw.at_name))
    else if die.tag = Dw.tag_union_type then
      Ctype.Union_ref (Option.value ~default:"?" (attr_string die Dw.at_name))
    else if die.tag = Dw.tag_enumeration_type then
      Ctype.Enum_ref (Option.value ~default:"?" (attr_string die Dw.at_name))
    else if die.tag = Dw.tag_typedef then
      Ctype.Typedef_ref (Option.value ~default:"?" (attr_string die Dw.at_name))
    else if die.tag = Dw.tag_subroutine_type then Ctype.Func_proto (proto_of ~d:(d + 1) die)
    else raise (Bad_dwarf (Printf.sprintf "unexpected type tag 0x%x" die.tag))
  and proto_of ?(d = 0) die : Ctype.proto =
    let params =
      List.filter_map
        (fun c ->
          let child = get arena c in
          if child.tag = Dw.tag_formal_parameter then
            let pname = Option.value ~default:"" (attr_string child Dw.at_name) in
            let ptype =
              match attr_ref child Dw.at_type with
              | Some r -> ctype_of ~d:(d + 1) r
              | None -> Ctype.Void
            in
            Some Ctype.{ pname; ptype }
          else None)
        die.children
    in
    let variadic =
      List.exists (fun c -> (get arena c).tag = Dw.tag_unspecified_parameters) die.children
    in
    let ret =
      match attr_ref die Dw.at_type with
      | Some r -> ctype_of ~d:(d + 1) r
      | None -> Ctype.Void
    in
    { ret; params; variadic }
  in
  let decode_cu root =
    let cu_die = get arena root in
    if cu_die.tag <> Dw.tag_compile_unit then raise (Bad_dwarf "root is not a compile unit");
    let cu_name = Option.value ~default:"?" (attr_string cu_die Dw.at_name) in
    let subprograms = ref [] in
    let structs = ref [] in
    let enums = ref [] in
    let typedefs = ref [] in
    List.iter
      (fun c ->
        let die = get arena c in
        if die.tag = Dw.tag_subprogram then begin
          let inlined =
            List.filter_map
              (fun cc ->
                let child = get arena cc in
                if child.tag = Dw.tag_inlined_subroutine then
                  Some
                    {
                      ic_callee = Option.value ~default:"?" (attr_string child Dw.at_name);
                      ic_pc = Option.value ~default:0L (attr_addr child Dw.at_low_pc);
                      ic_call_line =
                        Option.value ~default:0 (attr_int child Dw.at_call_line);
                    }
                else None)
              die.children
          in
          let calls =
            List.filter_map
              (fun cc ->
                let child = get arena cc in
                if child.tag = Dw.tag_call_site then attr_string child Dw.at_call_origin
                else None)
              die.children
          in
          subprograms :=
            {
              sp_name = Option.value ~default:"?" (attr_string die Dw.at_name);
              sp_proto = proto_of die;
              sp_file = Option.value ~default:cu_name (attr_string die Dw.at_decl_file);
              sp_line = Option.value ~default:0 (attr_int die Dw.at_decl_line);
              sp_external = has_flag die Dw.at_external;
              sp_declared_inline =
                (match attr_int die Dw.at_inline with
                | Some i ->
                    i = Dw.inl_declared_inlined || i = Dw.inl_declared_not_inlined
                | None -> false);
              sp_low_pc = attr_addr die Dw.at_low_pc;
              sp_inlined = inlined;
              sp_calls = calls;
            }
            :: !subprograms
        end
        else if
          (die.tag = Dw.tag_structure_type || die.tag = Dw.tag_union_type)
          && not (has_flag die Dw.at_declaration)
        then begin
          let fields =
            List.filter_map
              (fun cc ->
                let child = get arena cc in
                if child.tag = Dw.tag_member then
                  Some
                    Decl.
                      {
                        fname = Option.value ~default:"?" (attr_string child Dw.at_name);
                        ftype =
                          (match attr_ref child Dw.at_type with
                          | Some r -> ctype_of r
                          | None -> Ctype.Void);
                        bits_offset =
                          8 * Option.value ~default:0 (attr_int child Dw.at_data_member_location);
                      }
                else None)
              die.children
          in
          structs :=
            Decl.
              {
                sname = Option.value ~default:"?" (attr_string die Dw.at_name);
                skind = (if die.tag = Dw.tag_structure_type then `Struct else `Union);
                byte_size = Option.value ~default:0 (attr_int die Dw.at_byte_size);
                fields;
              }
            :: !structs
        end
        else if die.tag = Dw.tag_enumeration_type && not (has_flag die Dw.at_declaration)
        then begin
          let values =
            List.filter_map
              (fun cc ->
                let child = get arena cc in
                if child.tag = Dw.tag_enumerator then
                  Some
                    ( Option.value ~default:"?" (attr_string child Dw.at_name),
                      Option.value ~default:0 (attr_int child Dw.at_const_value) )
                else None)
              die.children
          in
          enums :=
            Decl.{ ename = Option.value ~default:"?" (attr_string die Dw.at_name); values }
            :: !enums
        end
        else if die.tag = Dw.tag_typedef && not (has_flag die Dw.at_declaration) then
          match attr_ref die Dw.at_type with
          | Some r ->
              typedefs :=
                Decl.
                  {
                    tname = Option.value ~default:"?" (attr_string die Dw.at_name);
                    aliased = ctype_of r;
                  }
                :: !typedefs
          | None -> ())
      cu_die.children;
    {
      cu_name;
      cu_subprograms = List.rev !subprograms;
      cu_structs = List.rev !structs;
      cu_enums = List.rev !enums;
      cu_typedefs = List.rev !typedefs;
    }
  in
  decode_cu

let decode_strict ~info ~abbrev =
  let arena = Ds_util.Diag.ok (Die.decode ~info ~abbrev ()) in
  List.map (decode_cu_of arena) (Die.roots arena)

let decode_lenient_impl ~info ~abbrev =
  let o = Die.decode ~mode:`Lenient ~info ~abbrev () in
  let arena = Ds_util.Diag.ok o and dw_diags = Ds_util.Diag.diags o in
  let decode_cu = decode_cu_of arena in
  let skipped = ref 0 in
  let cus =
    List.filter_map
      (fun root ->
        match decode_cu root with
        | cu -> Some cu
        | exception Bad_dwarf _ ->
            incr skipped;
            None)
      (Die.roots arena)
  in
  let diags =
    dw_diags
    @
    if !skipped > 0 then
      [
        Ds_util.Diag.v Ds_util.Diag.Degraded ~component:"dwarf"
          (Printf.sprintf "%d compile units undecodable (skipped)" !skipped);
      ]
    else []
  in
  (cus, diags)

let decode ?(mode = `Strict) ~info ~abbrev () =
  Ds_trace.Trace.span ~name:"dwarf.info.decode" (fun () ->
      match mode with
      | `Strict -> Ds_util.Diag.outcome (decode_strict ~info ~abbrev)
      | `Lenient ->
          let cus, diags = decode_lenient_impl ~info ~abbrev in
          Ds_util.Diag.outcome ~diags cus)

