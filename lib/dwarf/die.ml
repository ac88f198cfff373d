open Ds_util

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
  let tag_base_type = 0x24
  let tag_const_type = 0x26
  let tag_enumerator = 0x28
  let tag_subprogram = 0x2e
  let tag_variable = 0x34
  let tag_volatile_type = 0x35
  let tag_subrange_type = 0x21
  let tag_inlined_subroutine = 0x1d
  let tag_call_site = 0x48
  let tag_unspecified_parameters = 0x18

  let at_name = 0x03
  let at_byte_size = 0x0b
  let at_encoding = 0x3e
  let at_type = 0x49
  let at_low_pc = 0x11
  let at_high_pc = 0x12
  let at_decl_file = 0x3a
  let at_decl_line = 0x3b
  let at_declaration = 0x3c
  let at_inline = 0x20
  let at_external = 0x3f
  let at_abstract_origin = 0x31
  let at_data_member_location = 0x38
  let at_upper_bound = 0x2f
  let at_prototyped = 0x27
  let at_const_value = 0x1c
  let at_call_file = 0x58
  let at_call_line = 0x59
  let at_call_origin = 0x7f

  let inl_not_inlined = 0
  let inl_inlined = 1
  let inl_declared_not_inlined = 2
  let inl_declared_inlined = 3

  let enc_signed = 0x05
  let enc_unsigned = 0x07
  let enc_boolean = 0x02
  let enc_signed_char = 0x06
  let enc_unsigned_char = 0x08
  let enc_float = 0x04
end

type value = String of string | Int of int | Addr of int64 | Flag | Ref of int
type die = { tag : int; attrs : (int * value) list; children : int list }
type t = { dies : die array; root_ids : int list }

exception Bad_dwarf of string

module Builder = struct
  type arena = t

  type t = {
    mutable dies : die array;
    mutable len : int;
    mutable roots : int list; (* reversed *)
  }

  let dummy = { tag = 0; attrs = []; children = [] }
  let create () = { dies = Array.make 256 dummy; len = 0; roots = [] }

  let add t ~tag ~attrs ~children =
    List.iter
      (fun c -> if c < 0 || c >= t.len then invalid_arg "Die.Builder.add: bad child id")
      children;
    if t.len = Array.length t.dies then begin
      let bigger = Array.make (2 * t.len) dummy in
      Array.blit t.dies 0 bigger 0 t.len;
      t.dies <- bigger
    end;
    t.dies.(t.len) <- { tag; attrs; children };
    t.len <- t.len + 1;
    t.len - 1

  let add_root t id =
    if id < 0 || id >= t.len then invalid_arg "Die.Builder.add_root: bad id";
    t.roots <- id :: t.roots

  let finish t = { dies = Array.sub t.dies 0 t.len; root_ids = List.rev t.roots }
end

let get t id =
  if id < 0 || id >= Array.length t.dies then raise (Bad_dwarf (Printf.sprintf "bad die id %d" id));
  t.dies.(id)

let roots t = t.root_ids
let size t = Array.length t.dies
let attr die at = List.assoc_opt at die.attrs
let attr_string die at = match attr die at with Some (String s) -> Some s | _ -> None
let attr_int die at = match attr die at with Some (Int i) -> Some i | _ -> None
let attr_addr die at = match attr die at with Some (Addr a) -> Some a | _ -> None
let attr_ref die at = match attr die at with Some (Ref r) -> Some r | _ -> None
let has_flag die at = match attr die at with Some Flag -> true | _ -> false

(* Forms used per value constructor. *)
let form_string = 0x08
let form_udata = 0x0f
let form_data8 = 0x07
let form_flag_present = 0x19
let form_ref4 = 0x13

let form_of_value = function
  | String _ -> form_string
  | Int _ -> form_udata
  | Addr _ -> form_data8
  | Flag -> form_flag_present
  | Ref _ -> form_ref4

(* Abbreviation shapes. *)
type shape = { s_tag : int; s_children : bool; s_pairs : (int * int) list }

let shape_of die =
  {
    s_tag = die.tag;
    s_children = die.children <> [];
    s_pairs = List.map (fun (at, v) -> (at, form_of_value v)) die.attrs;
  }

let uleb_size v =
  let rec go v n = if v < 128 then n else go (v lsr 7) (n + 1) in
  go (max v 0) 1

let unit_header_size = 11 (* u32 length + u16 version + u32 abbrev_off + u8 addr_size *)

let encode t =
  (* Pass 0: collect abbreviations. *)
  let shapes : (shape, int) Hashtbl.t = Hashtbl.create 64 in
  let shape_list = ref [] in
  Array.iter
    (fun die ->
      let s = shape_of die in
      if not (Hashtbl.mem shapes s) then begin
        let code = Hashtbl.length shapes + 1 in
        Hashtbl.add shapes s code;
        shape_list := s :: !shape_list
      end)
    t.dies;
  (* Pass 1: compute the encoded size of each DIE body (without children)
     and then the section offset of every DIE in emission order. *)
  let die_body_size die =
    let code = Hashtbl.find shapes (shape_of die) in
    uleb_size code
    + List.fold_left
        (fun acc (_, v) ->
          acc
          +
          match v with
          | String s -> String.length s + 1
          | Int i -> uleb_size i
          | Addr _ -> 8
          | Flag -> 0
          | Ref _ -> 4)
        0 die.attrs
  in
  let offsets = Array.make (Array.length t.dies) 0 in
  let pos = ref 0 in
  let rec layout id =
    let die = get t id in
    offsets.(id) <- !pos;
    pos := !pos + die_body_size die;
    if die.children <> [] then begin
      List.iter layout die.children;
      incr pos (* null terminator *)
    end
  in
  let unit_sizes =
    List.map
      (fun root ->
        let start = !pos in
        pos := !pos + unit_header_size;
        layout root;
        !pos - start)
      t.root_ids
  in
  ignore unit_sizes;
  (* Pass 2: emit. *)
  let info = Bytesio.Writer.create () in
  let rec emit id =
    let die = get t id in
    let code = Hashtbl.find shapes (shape_of die) in
    Bytesio.Writer.uleb128 info code;
    List.iter
      (fun (_, v) ->
        match v with
        | String s -> Bytesio.Writer.cstring info s
        | Int i -> Bytesio.Writer.uleb128 info i
        | Addr a -> Bytesio.Writer.u64 info a
        | Flag -> ()
        | Ref r -> Bytesio.Writer.u32 info offsets.(r))
      die.attrs;
    if die.children <> [] then begin
      List.iter emit die.children;
      Bytesio.Writer.u8 info 0
    end
  in
  List.iter
    (fun root ->
      let start = Bytesio.Writer.pos info in
      (* Compute this unit's content length: from after the length field to
         the end of the unit. We know the total from the layout pass via the
         offset of the next unit; recompute by a local layout. *)
      let unit_end = ref (start + unit_header_size) in
      let rec measure id =
        let die = get t id in
        unit_end := !unit_end + die_body_size die;
        if die.children <> [] then begin
          List.iter measure die.children;
          incr unit_end
        end
      in
      measure root;
      Bytesio.Writer.u32 info (!unit_end - start - 4);
      Bytesio.Writer.u16 info 4 (* DWARF version *);
      Bytesio.Writer.u32 info 0 (* abbrev offset: single table *);
      Bytesio.Writer.u8 info 8 (* address size *);
      emit root)
    t.root_ids;
  let abbrev = Bytesio.Writer.create () in
  List.iter
    (fun s ->
      let code = Hashtbl.find shapes s in
      Bytesio.Writer.uleb128 abbrev code;
      Bytesio.Writer.uleb128 abbrev s.s_tag;
      Bytesio.Writer.u8 abbrev (if s.s_children then 1 else 0);
      List.iter
        (fun (at, form) ->
          Bytesio.Writer.uleb128 abbrev at;
          Bytesio.Writer.uleb128 abbrev form)
        s.s_pairs;
      Bytesio.Writer.uleb128 abbrev 0;
      Bytesio.Writer.uleb128 abbrev 0)
    (List.rev !shape_list);
  Bytesio.Writer.uleb128 abbrev 0;
  (Bytesio.Writer.contents info, Bytesio.Writer.contents abbrev)

(* A failure inside one compile unit skips just that unit (the unit
   header's length field locates the next unit boundary, which is what
   real consumers resync on); failures in the shared abbrev table or in
   the reference-remap pass degrade rather than abort. *)
exception Unit_fail of string

exception Stop_units

let decode ?mode ~info ~abbrev () =
  Ds_trace.Trace.span ~name:"dwarf.die.decode"
    ~attrs:
      [
        ("info_bytes", string_of_int (String.length info));
        ("abbrev_bytes", string_of_int (String.length abbrev));
      ]
    (fun () ->
      let sink = Diag.Sink.create ?mode ~component:"dwarf" (fun m -> Bad_dwarf m) in
      (* Abbreviation table. *)
      let shapes : (int, shape) Hashtbl.t = Hashtbl.create 64 in
      let ar = Bytesio.Reader.of_string abbrev in
      (try
         let rec go () =
           let code = Bytesio.Reader.uleb128 ar in
           if code <> 0 then begin
             let tag = Bytesio.Reader.uleb128 ar in
             let has_children = Bytesio.Reader.u8 ar = 1 in
             let rec pairs acc =
               let at = Bytesio.Reader.uleb128 ar in
               let form = Bytesio.Reader.uleb128 ar in
               if at = 0 && form = 0 then List.rev acc else pairs ((at, form) :: acc)
             in
             Hashtbl.replace shapes code
               { s_tag = tag; s_children = has_children; s_pairs = pairs [] };
             go ()
           end
         in
         go ()
       with Bytesio.Truncated _ ->
         Diag.Sink.report sink ~offset:(Bytesio.Reader.pos ar) Diag.Degraded "truncated abbrev");
      (* Info section: parse units. *)
      let b = Builder.create () in
      let offset_to_id : (int, int) Hashtbl.t = Hashtbl.create 256 in
      (* Refs are recorded as raw section offsets first; a remapping pass
         rewrites them to arena ids once every DIE is known. *)
      let r = Bytesio.Reader.of_string info in
      let ufail msg = raise (Unit_fail msg) in
      let rec parse_die () =
        let die_off = Bytesio.Reader.pos r in
        let code = Bytesio.Reader.uleb128 r in
        if code = 0 then None
        else begin
          let shape =
            match Hashtbl.find_opt shapes code with
            | Some s -> s
            | None -> ufail (Printf.sprintf "unknown abbrev %d" code)
          in
          let attrs =
            List.map
              (fun (at, form) ->
                let v =
                  if form = form_string then String (Bytesio.Reader.cstring r)
                  else if form = form_udata then Int (Bytesio.Reader.uleb128 r)
                  else if form = form_data8 then Addr (Bytesio.Reader.u64 r)
                  else if form = form_flag_present then Flag
                  else if form = form_ref4 then Ref (Bytesio.Reader.u32 r)
                  else ufail (Printf.sprintf "unsupported form 0x%x" form)
                in
                (at, v))
              shape.s_pairs
          in
          let children =
            if shape.s_children then begin
              let rec go acc =
                match parse_die () with None -> List.rev acc | Some id -> go (id :: acc)
              in
              go []
            end
            else []
          in
          let id = Builder.add b ~tag:shape.s_tag ~attrs ~children in
          Hashtbl.replace offset_to_id die_off id;
          Some id
        end
      in
      (* Consecutive resync failures mean we are walking garbage (e.g. a
         zeroed region where every 4-byte "length" is 0): bail rather than
         emit one diagnostic per word of junk. *)
      let max_consecutive_skips = 8 in
      let consecutive_skips = ref 0 in
      let drop_rest ~offset msg =
        Diag.Sink.report sink ~offset Diag.Degraded msg;
        raise Stop_units
      in
      (try
         while not (Bytesio.Reader.eof r) do
           let unit_start = Bytesio.Reader.pos r in
           let len =
             try Bytesio.Reader.u32 r
             with Bytesio.Truncated _ ->
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
             if next > String.length info then
               drop_rest ~offset:unit_start "rest of .debug_info dropped"
             else if !consecutive_skips >= max_consecutive_skips then
               drop_rest ~offset:unit_start
                 (Printf.sprintf "%d consecutive undecodable units; rest of .debug_info dropped"
                    !consecutive_skips)
             else Bytesio.Reader.seek r next
           in
           try
             let version = Bytesio.Reader.u16 r in
             if version <> 4 then ufail "bad version";
             let _abbrev_off = Bytesio.Reader.u32 r in
             let _addr_size = Bytesio.Reader.u8 r in
             (match parse_die () with
             | Some id -> Builder.add_root b id
             | None -> ufail "empty unit");
             consecutive_skips := 0
           with
           | Unit_fail msg -> skip msg
           | Bytesio.Truncated _ -> skip "truncated"
         done
       with Stop_units -> ());
      let arena = Builder.finish b in
      (* Rewrite Ref values from section offsets to arena ids. *)
      let dangling = Diag.Sink.tally sink in
      let dies =
        Array.map
          (fun die ->
            let attrs =
              List.filter_map
                (fun (at, v) ->
                  match v with
                  | Ref off -> (
                      match Hashtbl.find_opt offset_to_id off with
                      | Some id -> Some (at, Ref id)
                      | None ->
                          Diag.Sink.skip dangling (Printf.sprintf "dangling ref to offset %d" off);
                          None)
                  | _ -> Some (at, v))
                die.attrs
            in
            { die with attrs })
          arena.dies
      in
      Diag.Sink.close dangling (Printf.sprintf "%d dangling references dropped");
      Diag.Sink.outcome sink { dies; root_ids = arena.root_ids })
