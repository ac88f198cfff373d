open Ds_util
open Ds_ctypes

type member = { m_name : string; m_type : int; m_offset_bits : int }
type bparam = { p_name : string; p_type : int }

type kind =
  | Void
  | Int of { name : string; bits : int; signed : bool }
  | Ptr of int
  | Array of { elem : int; index : int; nelems : int }
  | Struct of { name : string; size : int; members : member list }
  | Union of { name : string; size : int; members : member list }
  | Enum of { name : string; size : int; values : (string * int) list }
  | Fwd of { name : string; union : bool }
  | Typedef of { name : string; typ : int }
  | Volatile of int
  | Const of int
  | Restrict of int
  | Func of { name : string; proto : int }
  | Func_proto of { ret : int; params : bparam list }
  | Float of { name : string; bits : int }

type t = { mutable records : kind array; mutable len : int }

exception Bad_btf of string

let create () = { records = Array.make 64 Void; len = 0 }

let add t k =
  if t.len = Array.length t.records then begin
    let bigger = Array.make (2 * t.len) Void in
    Array.blit t.records 0 bigger 0 t.len;
    t.records <- bigger
  end;
  t.records.(t.len) <- k;
  t.len <- t.len + 1;
  t.len

let get t id =
  if id = 0 then Void
  else if id < 0 || id > t.len then raise (Bad_btf (Printf.sprintf "bad type id %d" id))
  else t.records.(id - 1)

let length t = t.len

let iteri t f =
  for i = 1 to t.len do
    f i t.records.(i - 1)
  done

(* ------------------------------------------------------------------ *)
(* Wire format                                                         *)
(* ------------------------------------------------------------------ *)

let magic = 0xEB9F
let hdr_len = 24

let kind_code = function
  | Void -> assert false
  | Int _ -> 1
  | Ptr _ -> 2
  | Array _ -> 3
  | Struct _ -> 4
  | Union _ -> 5
  | Enum _ -> 6
  | Fwd _ -> 7
  | Typedef _ -> 8
  | Volatile _ -> 9
  | Const _ -> 10
  | Restrict _ -> 11
  | Func _ -> 12
  | Func_proto _ -> 13
  | Float _ -> 16

module Strtab = struct
  type t = { buf : Buffer.t; tbl : (string, int) Hashtbl.t }

  let create () =
    let buf = Buffer.create 256 in
    Buffer.add_char buf '\000';
    let tbl = Hashtbl.create 64 in
    Hashtbl.add tbl "" 0;
    { buf; tbl }

  let add t s =
    match Hashtbl.find_opt t.tbl s with
    | Some off -> off
    | None ->
        let off = Buffer.length t.buf in
        Buffer.add_string t.buf s;
        Buffer.add_char t.buf '\000';
        Hashtbl.add t.tbl s off;
        off

  let contents t = Buffer.contents t.buf
end

let encode t =
  let strtab = Strtab.create () in
  let body = Bytesio.Writer.create () in
  let header name_off info size_or_type =
    Bytesio.Writer.u32 body name_off;
    Bytesio.Writer.u32 body info;
    Bytesio.Writer.u32 body size_or_type
  in
  let info ?(kind_flag = false) kind vlen =
    (if kind_flag then 1 lsl 31 else 0) lor (kind lsl 24) lor (vlen land 0xFFFF)
  in
  iteri t (fun _ k ->
      let code = kind_code k in
      match k with
      | Void -> assert false
      | Int { name; bits; signed } ->
          header (Strtab.add strtab name) (info code 0) ((bits + 7) / 8);
          (* encoding byte: bit 0 signed; nr_bits in low byte *)
          Bytesio.Writer.u32 body (((if signed then 1 else 0) lsl 24) lor bits)
      | Ptr ty | Volatile ty | Const ty | Restrict ty -> header 0 (info code 0) ty
      | Typedef { name; typ } -> header (Strtab.add strtab name) (info code 0) typ
      | Array { elem; index; nelems } ->
          header 0 (info code 0) 0;
          Bytesio.Writer.u32 body elem;
          Bytesio.Writer.u32 body index;
          Bytesio.Writer.u32 body nelems
      | Struct { name; size; members } | Union { name; size; members } ->
          header (Strtab.add strtab name) (info code (List.length members)) size;
          List.iter
            (fun m ->
              Bytesio.Writer.u32 body (Strtab.add strtab m.m_name);
              Bytesio.Writer.u32 body m.m_type;
              Bytesio.Writer.u32 body m.m_offset_bits)
            members
      | Enum { name; size; values } ->
          header (Strtab.add strtab name) (info code (List.length values)) size;
          List.iter
            (fun (n, v) ->
              Bytesio.Writer.u32 body (Strtab.add strtab n);
              Bytesio.Writer.u32 body v)
            values
      | Fwd { name; union } ->
          header (Strtab.add strtab name) (info ~kind_flag:union code 0) 0
      | Func { name; proto } -> header (Strtab.add strtab name) (info code 0) proto
      | Func_proto { ret; params } ->
          header 0 (info code (List.length params)) ret;
          List.iter
            (fun p ->
              Bytesio.Writer.u32 body (Strtab.add strtab p.p_name);
              Bytesio.Writer.u32 body p.p_type)
            params
      | Float { name; bits } -> header (Strtab.add strtab name) (info code 0) (bits / 8));
  let types = Bytesio.Writer.contents body in
  let strings = Strtab.contents strtab in
  let out = Bytesio.Writer.create () in
  Bytesio.Writer.u16 out magic;
  Bytesio.Writer.u8 out 1 (* version *);
  Bytesio.Writer.u8 out 0 (* flags *);
  Bytesio.Writer.u32 out hdr_len;
  Bytesio.Writer.u32 out 0 (* type_off *);
  Bytesio.Writer.u32 out (String.length types);
  Bytesio.Writer.u32 out (String.length types) (* str_off: right after types *);
  Bytesio.Writer.u32 out (String.length strings);
  Bytesio.Writer.bytes out types;
  Bytesio.Writer.bytes out strings;
  Bytesio.Writer.contents out

type decode_result = { b_btf : t; b_diags : Diag.t list }

(* Shared strict/lenient decoder. Strict raises [Bad_btf] on the first
   problem (historical messages preserved); lenient keeps every record
   decoded before the failure point and describes the loss. [Stop]
   aborts lenient parsing after a diagnostic has been recorded. *)
exception Stop

let decode_impl ~strict data =
  let collector = Diag.Collector.create () in
  let diag ?context ?offset severity msg =
    if strict then raise (Bad_btf msg)
    else Diag.Collector.emit collector (Diag.v ?context ?offset severity ~component:"btf" msg)
  in
  let fatal ?offset msg =
    diag ?offset Diag.Fatal msg;
    raise Stop
  in
  let t = create () in
  (try
     let r = Bytesio.Reader.of_string data in
     let m = try Bytesio.Reader.u16 r with Bytesio.Truncated _ -> fatal ~offset:0 "truncated header" in
     if m <> magic then fatal ~offset:0 "bad magic";
     let hlen, type_off, type_len, str_off, str_len =
       try
         let _version = Bytesio.Reader.u8 r in
         let _flags = Bytesio.Reader.u8 r in
         let hlen = Bytesio.Reader.u32 r in
         let type_off = Bytesio.Reader.u32 r in
         let type_len = Bytesio.Reader.u32 r in
         let str_off = Bytesio.Reader.u32 r in
         let str_len = Bytesio.Reader.u32 r in
         (hlen, type_off, type_len, str_off, str_len)
       with Bytesio.Truncated _ -> fatal ~offset:2 "truncated header"
     in
     let types =
       try Bytesio.Reader.sub r ~pos:(hlen + type_off) ~len:type_len
       with Bytesio.Truncated _ | Invalid_argument _ -> fatal ~offset:hdr_len "bad type section bounds"
     in
     let strings =
       try Bytesio.Reader.sub r ~pos:(hlen + str_off) ~len:str_len
       with Bytesio.Truncated _ | Invalid_argument _ -> fatal ~offset:hdr_len "bad string section bounds"
     in
     let record_start = ref 0 in
     let fail msg =
       if strict then raise (Bad_btf msg)
       else begin
         (* keep the records decoded so far, drop the tail *)
         diag ~offset:!record_start Diag.Degraded
           (Printf.sprintf "%s; kept %d type records" msg t.len);
         raise Stop
       end
     in
     let str off =
       try Bytesio.Reader.cstring_at strings off
       with Bytesio.Truncated _ -> fail "bad string offset"
     in
     while not (Bytesio.Reader.eof types) do
       record_start := Bytesio.Reader.pos types;
       let name_off = Bytesio.Reader.u32 types in
       let info = Bytesio.Reader.u32 types in
       let size_or_type = Bytesio.Reader.u32 types in
       let kind = (info lsr 24) land 0x1F in
       let vlen = info land 0xFFFF in
       let kind_flag = info land 0x80000000 <> 0 in
       let name = str name_off in
       let record =
         match kind with
         | 1 ->
             let enc = Bytesio.Reader.u32 types in
             Int { name; bits = enc land 0xFF; signed = (enc lsr 24) land 1 = 1 }
         | 2 -> Ptr size_or_type
         | 3 ->
             let elem = Bytesio.Reader.u32 types in
             let index = Bytesio.Reader.u32 types in
             let nelems = Bytesio.Reader.u32 types in
             Array { elem; index; nelems }
         | 4 | 5 ->
             let members =
               List.init vlen (fun _ ->
                   let m_name = str (Bytesio.Reader.u32 types) in
                   let m_type = Bytesio.Reader.u32 types in
                   let m_offset_bits = Bytesio.Reader.u32 types in
                   { m_name; m_type; m_offset_bits })
             in
             if kind = 4 then Struct { name; size = size_or_type; members }
             else Union { name; size = size_or_type; members }
         | 6 ->
             let values =
               List.init vlen (fun _ ->
                   let n = str (Bytesio.Reader.u32 types) in
                   let v = Bytesio.Reader.u32 types in
                   (n, v))
             in
             Enum { name; size = size_or_type; values }
         | 7 -> Fwd { name; union = kind_flag }
         | 8 -> Typedef { name; typ = size_or_type }
         | 9 -> Volatile size_or_type
         | 10 -> Const size_or_type
         | 11 -> Restrict size_or_type
         | 12 -> Func { name; proto = size_or_type }
         | 13 ->
             let params =
               List.init vlen (fun _ ->
                   let p_name = str (Bytesio.Reader.u32 types) in
                   let p_type = Bytesio.Reader.u32 types in
                   { p_name; p_type })
             in
             Func_proto { ret = size_or_type; params }
         | 16 -> Float { name; bits = size_or_type * 8 }
         | k -> fail (Printf.sprintf "unsupported kind %d" k)
       in
       ignore (add t record)
     done
   with
  | Bytesio.Truncated _ ->
      if strict then raise (Bad_btf "truncated type section")
      else
        Diag.Collector.emit collector
          (Diag.v ~offset:(String.length data) Diag.Degraded ~component:"btf"
             (Printf.sprintf "truncated type section; kept %d type records" t.len))
  | Stop -> ());
  { b_btf = t; b_diags = Diag.Collector.diags collector }

let decode ?(mode = `Strict) data =
  Ds_trace.Trace.span ~name:"btf.decode"
    ~attrs:[ ("bytes", string_of_int (String.length data)) ]
    (fun () ->
      match mode with
      | `Strict -> Diag.outcome (decode_impl ~strict:true data).b_btf
      | `Lenient ->
          let r = decode_impl ~strict:false data in
          Diag.outcome ~diags:r.b_diags r.b_btf)

(* ------------------------------------------------------------------ *)
(* Bridge to the C type model                                          *)
(* ------------------------------------------------------------------ *)

let of_env env funcs =
  let t = create () in
  let cache : (Ctype.t, int) Hashtbl.t = Hashtbl.create 64 in
  let named : (string, int) Hashtbl.t = Hashtbl.create 64 in
  (* Two passes over named aggregates break reference cycles: first
     allocate placeholder ids, then fill members. We emulate by emitting
     structs on demand with a visiting set falling back to Fwd. *)
  let visiting : (string, unit) Hashtbl.t = Hashtbl.create 16 in
  let rec id_of (ty : Ctype.t) =
    match Hashtbl.find_opt cache ty with
    | Some id -> id
    | None ->
        let id =
          match ty with
          | Ctype.Void -> 0
          | Ctype.Int { name; bits; signed } -> add t (Int { name; bits; signed })
          | Ctype.Float { name; bits } -> add t (Float { name; bits })
          | Ctype.Ptr inner -> add_ref (fun i -> Ptr i) inner
          | Ctype.Const inner -> add_ref (fun i -> Const i) inner
          | Ctype.Volatile inner -> add_ref (fun i -> Volatile i) inner
          | Ctype.Array (inner, n) ->
              let elem = id_of inner in
              let index = id_of Ctype.uint in
              add t (Array { elem; index; nelems = n })
          | Ctype.Struct_ref name -> struct_id name `Struct
          | Ctype.Union_ref name -> struct_id name `Union
          | Ctype.Enum_ref name -> enum_id name
          | Ctype.Typedef_ref name -> typedef_id name
          | Ctype.Func_proto proto -> proto_id proto
        in
        Hashtbl.replace cache ty id;
        id
  and add_ref mk inner =
    let i = id_of inner in
    add t (mk i)
  and struct_id name kind =
    let key = "s:" ^ name in
    match Hashtbl.find_opt named key with
    | Some id -> id
    | None -> (
        if Hashtbl.mem visiting name then
          (* cycle: emit a forward declaration *)
          let id = add t (Fwd { name; union = kind = `Union }) in
          id
        else
          match Decl.find_struct env name with
          | None ->
              let id = add t (Fwd { name; union = kind = `Union }) in
              Hashtbl.replace named key id;
              id
          | Some def ->
              Hashtbl.replace visiting name ();
              let members =
                List.map
                  (fun (f : Decl.field) ->
                    { m_name = f.fname; m_type = id_of f.ftype; m_offset_bits = f.bits_offset })
                  def.fields
              in
              Hashtbl.remove visiting name;
              let record =
                match def.skind with
                | `Struct -> Struct { name; size = def.byte_size; members }
                | `Union -> Union { name; size = def.byte_size; members }
              in
              let id = add t record in
              Hashtbl.replace named key id;
              id)
  and enum_id name =
    let key = "e:" ^ name in
    match Hashtbl.find_opt named key with
    | Some id -> id
    | None ->
        let values =
          match Decl.find_enum env name with Some e -> e.values | None -> []
        in
        let id = add t (Enum { name; size = 4; values }) in
        Hashtbl.replace named key id;
        id
  and typedef_id name =
    let key = "t:" ^ name in
    match Hashtbl.find_opt named key with
    | Some id -> id
    | None -> (
        match Decl.find_typedef env name with
        | None -> raise (Bad_btf ("dangling typedef " ^ name))
        | Some td ->
            let typ = id_of td.aliased in
            let id = add t (Typedef { name; typ }) in
            Hashtbl.replace named key id;
            id)
  and proto_id (proto : Ctype.proto) =
    let params =
      List.map
        (fun (p : Ctype.param) -> { p_name = p.pname; p_type = id_of p.ptype })
        proto.params
    in
    let params =
      if proto.variadic then params @ [ { p_name = ""; p_type = 0 } ] else params
    in
    add t (Func_proto { ret = id_of proto.ret; params })
  in
  (* Emit every named definition so the table is complete even if nothing
     references it. *)
  List.iter (fun (s : Decl.struct_def) ->
      ignore (struct_id s.sname s.skind)) (Decl.structs env);
  List.iter (fun (e : Decl.enum_def) -> ignore (enum_id e.ename)) (Decl.enums env);
  List.iter (fun (td : Decl.typedef_def) -> ignore (typedef_id td.tname)) (Decl.typedefs env);
  List.iter
    (fun (f : Decl.func_decl) ->
      let proto = proto_id f.proto in
      ignore (add t (Func { name = f.fname; proto })))
    funcs;
  t

(* A corrupt table can contain reference cycles through Ptr/Typedef ids
   (impossible in well-formed BTF, which only cycles through named
   aggregates); the depth bound turns them into a typed error instead of
   a stack overflow. *)
let max_type_depth = 64

let rec ctype_of_d t d id : Ctype.t =
  if d > max_type_depth then raise (Bad_btf "type reference cycle");
  match get t id with
  | Void -> Ctype.Void
  | Int { name; bits; signed } -> Ctype.Int { name; bits; signed }
  | Float { name; bits } -> Ctype.Float { name; bits }
  | Ptr i -> Ctype.Ptr (ctype_of_d t (d + 1) i)
  | Const i -> Ctype.Const (ctype_of_d t (d + 1) i)
  | Volatile i | Restrict i -> Ctype.Volatile (ctype_of_d t (d + 1) i)
  | Array { elem; nelems; _ } -> Ctype.Array (ctype_of_d t (d + 1) elem, nelems)
  | Struct { name; _ } -> Ctype.Struct_ref name
  | Union { name; _ } -> Ctype.Union_ref name
  | Fwd { name; union } -> if union then Ctype.Union_ref name else Ctype.Struct_ref name
  | Enum { name; _ } -> Ctype.Enum_ref name
  | Typedef { name; _ } -> Ctype.Typedef_ref name
  | Func { proto; _ } -> ctype_of_d t (d + 1) proto
  | Func_proto { ret; params } -> Ctype.Func_proto (proto_of_d t (d + 1) ~ret ~params)

and proto_of_d t d ~ret ~params : Ctype.proto =
  let variadic =
    match List.rev params with { p_name = ""; p_type = 0 } :: _ -> true | _ -> false
  in
  let params = List.filter (fun p -> not (p.p_name = "" && p.p_type = 0)) params in
  {
    ret = ctype_of_d t (d + 1) ret;
    params =
      List.map (fun p -> Ctype.{ pname = p.p_name; ptype = ctype_of_d t (d + 1) p.p_type }) params;
    variadic;
  }

let ctype_of t id = ctype_of_d t 0 id
let proto_of t ~ret ~params = proto_of_d t 0 ~ret ~params

let to_env ~ptr_size t =
  let ctype_of id = ctype_of t id in
  let env = ref (Decl.empty_env ~ptr_size) in
  let funcs = ref [] in
  iteri t (fun _ k ->
      match k with
      | Struct { name; size; members } | Union { name; size; members } ->
          let skind = match k with Union _ -> `Union | _ -> `Struct in
          let fields =
            List.map
              (fun m ->
                Decl.{ fname = m.m_name; ftype = ctype_of m.m_type; bits_offset = m.m_offset_bits })
              members
          in
          env := Decl.add_struct !env { sname = name; skind; byte_size = size; fields }
      | Enum { name; values; _ } -> env := Decl.add_enum !env { ename = name; values }
      | Typedef { name; typ } ->
          env := Decl.add_typedef !env { tname = name; aliased = ctype_of typ }
      | Func { name; proto } -> (
          match get t proto with
          | Func_proto { ret; params } ->
              funcs := Decl.{ fname = name; proto = proto_of t ~ret ~params } :: !funcs
          | _ -> raise (Bad_btf ("func without proto: " ^ name)))
      | Void | Int _ | Ptr _ | Array _ | Fwd _ | Volatile _ | Const _ | Restrict _
      | Func_proto _ | Float _ ->
          ());
  (!env, List.rev !funcs)

(* Like [to_env], but a record whose type references are broken (dangling
   ids, cycles, a Func without a proto — all possible in a partially
   decoded table) degrades to [void] or is skipped, instead of raising. *)
let to_env_lenient ~ptr_size t =
  let bad_refs = ref 0 and bad_funcs = ref 0 in
  let safe_ctype id =
    match ctype_of t id with
    | c -> c
    | exception Bad_btf _ ->
        incr bad_refs;
        Ctype.Void
  in
  let env = ref (Decl.empty_env ~ptr_size) in
  let funcs = ref [] in
  iteri t (fun _ k ->
      match k with
      | Struct { name; size; members } | Union { name; size; members } ->
          let skind = match k with Union _ -> `Union | _ -> `Struct in
          let fields =
            List.map
              (fun m ->
                Decl.
                  { fname = m.m_name; ftype = safe_ctype m.m_type; bits_offset = m.m_offset_bits })
              members
          in
          env := Decl.add_struct !env { sname = name; skind; byte_size = size; fields }
      | Enum { name; values; _ } -> env := Decl.add_enum !env { ename = name; values }
      | Typedef { name; typ } ->
          env := Decl.add_typedef !env { tname = name; aliased = safe_ctype typ }
      | Func { name; proto } -> (
          match get t proto with
          | Func_proto { ret; params } -> (
              match proto_of t ~ret ~params with
              | p -> funcs := Decl.{ fname = name; proto = p } :: !funcs
              | exception Bad_btf _ -> incr bad_funcs)
          | _ | (exception Bad_btf _) -> incr bad_funcs)
      | Void | Int _ | Ptr _ | Array _ | Fwd _ | Volatile _ | Const _ | Restrict _
      | Func_proto _ | Float _ ->
          ());
  let diags =
    (if !bad_refs > 0 then
       [
         Diag.v Diag.Degraded ~component:"btf"
           (Printf.sprintf "%d dangling type references degraded to void" !bad_refs);
       ]
     else [])
    @
    if !bad_funcs > 0 then
      [
        Diag.v Diag.Degraded ~component:"btf"
          (Printf.sprintf "%d funcs without a usable prototype skipped" !bad_funcs);
      ]
    else []
  in
  (!env, List.rev !funcs, diags)

let find_struct t name =
  let found = ref None in
  iteri t (fun id k ->
      match k with
      | (Struct { name = n; _ } | Union { name = n; _ }) when n = name && !found = None ->
          found := Some (id, k)
      | _ -> ());
  !found

let find_func t name =
  let found = ref None in
  iteri t (fun _ k ->
      match k with
      | Func { name = n; proto } when n = name && !found = None -> (
          match get t proto with
          | Func_proto _ -> found := Some proto
          | _ | (exception Bad_btf _) -> ())
      | _ -> ());
  match !found with
  | None -> None
  | Some proto_id -> (
      match get t proto_id with
      | Func_proto { ret; params } -> (
          match proto_of t ~ret ~params with
          | p -> Some Decl.{ fname = name; proto = p }
          | exception Bad_btf _ -> None)
      | _ -> None)

let member_offset t ~struct_name ~field =
  match find_struct t struct_name with
  | None -> None
  | Some (_, (Struct { members; _ } | Union { members; _ })) ->
      List.find_map
        (fun m -> if m.m_name = field then Some (m.m_offset_bits, m.m_type) else None)
        members
  | Some _ -> None

let type_name t id =
  match get t id with
  | Struct { name; _ } | Union { name; _ } | Enum { name; _ } | Fwd { name; _ }
  | Typedef { name; _ } | Int { name; _ } | Float { name; _ } | Func { name; _ } ->
      if name = "" then None else Some name
  | Void | Ptr _ | Array _ | Volatile _ | Const _ | Restrict _ | Func_proto _ -> None
