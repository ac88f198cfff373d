open Ds_util
open Ds_ksrc
open Ds_ctypes

let version = 3

exception Decode_error of string

let fail fmt = Printf.ksprintf (fun s -> raise (Decode_error s)) fmt

module W = Bytesio.Writer
module R = Bytesio.Reader

(* ------------------------- primitive helpers ------------------------- *)

(* length-prefixed rather than NUL-terminated: payload strings (section
   names, reasons) are arbitrary bytes *)
let w_str w s =
  W.uleb128 w (String.length s);
  W.bytes w s

let r_str r =
  let n = R.uleb128 r in
  if n < 0 then fail "string length %d" n;
  R.bytes r n

let w_bool w b = W.u8 w (if b then 1 else 0)

let r_bool r = match R.u8 r with 0 -> false | 1 -> true | n -> fail "bool tag %d" n

let w_list w f l =
  W.uleb128 w (List.length l);
  List.iter (f w) l

(* explicit in-order loop: List.init's evaluation order is unspecified,
   and the element reads are side-effecting *)
let r_list r f =
  let n = R.uleb128 r in
  let rec go acc i = if i = 0 then List.rev acc else go (f r :: acc) (i - 1) in
  go [] n

let w_opt w f = function
  | None -> W.u8 w 0
  | Some v ->
      W.u8 w 1;
      f w v

let r_opt r f = match R.u8 r with 0 -> None | 1 -> Some (f r) | n -> fail "option tag %d" n

let expect_eof r = if not (R.eof r) then fail "trailing payload bytes"

(* -------------------------- tabled payloads -------------------------- *)

(* A payload is a string table, a type table and a body, the layout of
   the kernel's own BTF: the string table holds each distinct string once
   (length-prefixed, in order of first occurrence); a type record names
   its strings and its component types by index, and a component is
   always an earlier record; in the body every string and every ctype is
   a uleb128 index. A decoder reads each table once into an array, so a
   decoded value shares one copy of each name and each type.

   The tables belong to one encoder or decoder value, made per payload by
   [encode_payload]/[decode_payload]: payloads are encoded and decoded on
   several domains at once. *)

module Strs = Hashtbl.Make (struct
  type t = string

  let equal = String.equal
  let hash = Hashtbl.hash
end)

type enc = {
  e_body : W.t;
  e_strs : int Strs.t;
  e_str_tab : W.t;  (** the string table's entries, in index order *)
  e_types : int Strs.t;  (** type records, by their bytes *)
  e_type_tab : W.t;  (** the type table's records, in index order *)
  e_record : W.t;  (** the record being interned *)
}

type dec = {
  d_r : R.t;
  d_strs : string array;
  d_types : Ctype.t array;
  d_sizes : int array;  (** each type's weight: see [expansion] *)
  mutable d_budget : int;  (** the weight the body may still refer to *)
}

let str_id e s =
  match Strs.find_opt e.e_strs s with
  | Some i -> i
  | None ->
      let i = Strs.length e.e_strs in
      Strs.add e.e_strs s i;
      w_str e.e_str_tab s;
      i

(* Bottom up: a ctype's record is its tag, its string ids and its
   components' ids, so two ctypes are equal exactly when their records
   are, and one occurrence costs time linear in its size. Components are
   interned before their parent, so a record only ever refers to earlier
   records. *)
let rec type_id e (t : Ctype.t) =
  let w = e.e_record in
  let named tag s =
    let n = str_id e s in
    W.clear w;
    W.u8 w tag;
    W.uleb128 w n
  in
  let wrap tag t' =
    let c = type_id e t' in
    W.clear w;
    W.u8 w tag;
    W.uleb128 w c
  in
  (match t with
  | Void ->
      W.clear w;
      W.u8 w 0
  | Int { name; bits; signed } ->
      named 1 name;
      W.uleb128 w bits;
      w_bool w signed
  | Float { name; bits } ->
      named 2 name;
      W.uleb128 w bits
  | Ptr t' -> wrap 3 t'
  | Array (t', n) ->
      wrap 4 t';
      W.uleb128 w n
  | Struct_ref s -> named 5 s
  | Union_ref s -> named 6 s
  | Enum_ref s -> named 7 s
  | Typedef_ref s -> named 8 s
  | Const t' -> wrap 9 t'
  | Volatile t' -> wrap 10 t'
  | Func_proto p ->
      let ret = type_id e p.ret in
      let params =
        List.map
          (fun (pa : Ctype.param) ->
            let n = str_id e pa.pname in
            (n, type_id e pa.ptype))
          p.params
      in
      W.clear w;
      W.u8 w 11;
      W.uleb128 w ret;
      w_list w
        (fun w (n, c) ->
          W.uleb128 w n;
          W.uleb128 w c)
        params;
      w_bool w p.variadic);
  let record = W.contents w in
  match Strs.find_opt e.e_types record with
  | Some i -> i
  | None ->
      let i = Strs.length e.e_types in
      Strs.add e.e_types record i;
      W.bytes e.e_type_tab record;
      i

let e_str e s = W.uleb128 e.e_body (str_id e s)
let e_type e t = W.uleb128 e.e_body (type_id e t)

let lookup what tbl i =
  if i < 0 || i >= Array.length tbl then fail "%s index %d out of %d" what i (Array.length tbl);
  Array.unsafe_get tbl i

(* Sharing lets a few bytes stand for a large value: a one-byte index
   can name a long string, and type records that each use the one before
   twice describe trees that double with every record. Everything
   downstream walks the values (comparison, hashing, rendering), so a
   body may refer to at most [expansion] units of weight per payload
   byte: a string weighs its length plus one, a ctype its tree's node
   count plus the weight of the names in it. Real payloads weigh under
   three. An ingest body comes from outside. *)
let expansion = 16

let charge d weight =
  d.d_budget <- d.d_budget - weight;
  if d.d_budget < 0 then fail "payload expands past %d units per byte" expansion

let d_str d =
  let s = lookup "string" d.d_strs (R.uleb128 d.d_r) in
  charge d (String.length s + 1);
  s

let d_type d =
  let i = R.uleb128 d.d_r in
  let t = lookup "type" d.d_types i in
  charge d d.d_sizes.(i);
  t

(* a table can hold no more entries than bytes remain: every entry takes
   at least one *)
let r_count r what =
  let n = R.uleb128 r in
  if n < 0 || n > R.length r - R.pos r then fail "%s table of %d entries" what n;
  n

let r_types r strs ~budget =
  let n = r_count r "type" in
  let types = Array.make n Ctype.Void and sizes = Array.make n 0 in
  for i = 0 to n - 1 do
    let size = ref 1 in
    let str () =
      let s = lookup "string" strs (R.uleb128 r) in
      size := !size + String.length s + 1;
      s
    in
    (* only earlier records: the table cannot describe a cycle *)
    let ty () =
      let j = R.uleb128 r in
      if j < 0 || j >= i then fail "type %d refers to type %d" i j;
      size := !size + sizes.(j);
      types.(j)
    in
    types.(i) <-
      (match R.u8 r with
      | 0 -> Void
      | 1 ->
          let name = str () in
          let bits = R.uleb128 r in
          let signed = r_bool r in
          Int { name; bits; signed }
      | 2 ->
          let name = str () in
          let bits = R.uleb128 r in
          Float { name; bits }
      | 3 -> Ptr (ty ())
      | 4 ->
          let t = ty () in
          let n = R.uleb128 r in
          Array (t, n)
      | 5 -> Struct_ref (str ())
      | 6 -> Union_ref (str ())
      | 7 -> Enum_ref (str ())
      | 8 -> Typedef_ref (str ())
      | 9 -> Const (ty ())
      | 10 -> Volatile (ty ())
      | 11 ->
          let ret = ty () in
          let params =
            r_list r (fun _ ->
                let pname = str () in
                let ptype = ty () in
                incr size;
                ({ pname; ptype } : Ctype.param))
          in
          let variadic = r_bool r in
          Func_proto { ret; params; variadic }
      | n -> fail "ctype tag %d" n);
    if !size > budget then fail "type %d expands past %d units per payload byte" i expansion;
    sizes.(i) <- !size
  done;
  (types, sizes)

(* [prefix] writes (and checks) whatever precedes the tables, such as a
   format version *)
let encode_payload ?(prefix = fun _ -> ()) body x =
  let e =
    {
      e_body = W.create ();
      e_strs = Strs.create 1024;
      e_str_tab = W.create ();
      e_types = Strs.create 256;
      e_type_tab = W.create ();
      e_record = W.create ();
    }
  in
  body e x;
  let w = W.create () in
  prefix w;
  W.uleb128 w (Strs.length e.e_strs);
  W.append w e.e_str_tab;
  W.uleb128 w (Strs.length e.e_types);
  W.append w e.e_type_tab;
  W.append w e.e_body;
  W.contents w

let decode_payload ?(prefix = fun _ -> ()) body data =
  let r = R.of_string data in
  prefix r;
  let strs = Array.make (r_count r "string") "" in
  for i = 0 to Array.length strs - 1 do
    strs.(i) <- r_str r
  done;
  let budget = expansion * String.length data in
  let types, sizes = r_types r strs ~budget in
  let v = body { d_r = r; d_strs = strs; d_types = types; d_sizes = sizes; d_budget = budget } in
  expect_eof r;
  v

let e_list e f l =
  W.uleb128 e.e_body (List.length l);
  List.iter (f e) l

let d_list d f = r_list d.d_r (fun _ -> f d)

let e_opt e f = function
  | None -> W.u8 e.e_body 0
  | Some v ->
      W.u8 e.e_body 1;
      f e v

let d_opt d f = r_opt d.d_r (fun _ -> f d)

(* a prototype is the type record of its [Func_proto], so the
   declarations of one function share one *)
let e_proto e p = e_type e (Ctype.Func_proto p)

let d_proto d =
  match d_type d with Ctype.Func_proto p -> p | _ -> fail "type is not a prototype"

(* ----------------------------- decls --------------------------------- *)

let w_field e (f : Decl.field) =
  e_str e f.fname;
  e_type e f.ftype;
  W.uleb128 e.e_body f.bits_offset

let r_field d : Decl.field =
  let fname = d_str d in
  let ftype = d_type d in
  let bits_offset = R.uleb128 d.d_r in
  { fname; ftype; bits_offset }

let w_struct_def e (s : Decl.struct_def) =
  e_str e s.sname;
  W.u8 e.e_body (match s.skind with `Struct -> 0 | `Union -> 1);
  W.uleb128 e.e_body s.byte_size;
  e_list e w_field s.fields

let r_struct_def d : Decl.struct_def =
  let sname = d_str d in
  let skind = match R.u8 d.d_r with 0 -> `Struct | 1 -> `Union | n -> fail "skind tag %d" n in
  let byte_size = R.uleb128 d.d_r in
  let fields = d_list d r_field in
  { sname; skind; byte_size; fields }

let w_func_decl e (f : Decl.func_decl) =
  e_str e f.fname;
  e_proto e f.proto

let r_func_decl d : Decl.func_decl =
  let fname = d_str d in
  let proto = d_proto d in
  { fname; proto }

(* ----------------------------- surfaces ------------------------------ *)

let w_version w (v : Version.t) =
  W.uleb128 w v.major;
  W.uleb128 w v.minor

let r_version r : Version.t =
  let major = R.uleb128 r in
  let minor = R.uleb128 r in
  { major; minor }

let arch_tag : Config.arch -> int = function X86 -> 0 | Arm64 -> 1 | Arm32 -> 2 | Ppc -> 3 | Riscv -> 4

let arch_of_tag : int -> Config.arch = function
  | 0 -> X86
  | 1 -> Arm64
  | 2 -> Arm32
  | 3 -> Ppc
  | 4 -> Riscv
  | n -> fail "arch tag %d" n

let flavor_tag : Config.flavor -> int = function
  | Generic -> 0
  | Lowlatency -> 1
  | Aws -> 2
  | Azure -> 3
  | Gcp -> 4

let flavor_of_tag : int -> Config.flavor = function
  | 0 -> Generic
  | 1 -> Lowlatency
  | 2 -> Aws
  | 3 -> Azure
  | 4 -> Gcp
  | n -> fail "flavor tag %d" n

let w_config w (c : Config.t) =
  W.u8 w (arch_tag c.arch);
  W.u8 w (flavor_tag c.flavor)

let r_config r : Config.t =
  let arch = arch_of_tag (R.u8 r) in
  let flavor = flavor_of_tag (R.u8 r) in
  { arch; flavor }

let w_symbol e (s : Ds_elf.Elf.symbol) =
  e_str e s.sym_name;
  W.u64 e.e_body s.sym_value;
  W.uleb128 e.e_body s.sym_size;
  W.u8 e.e_body (match s.sym_bind with Local -> 0 | Global -> 1 | Weak -> 2);
  e_str e s.sym_section

let r_symbol d : Ds_elf.Elf.symbol =
  let sym_name = d_str d in
  let sym_value = R.u64 d.d_r in
  let sym_size = R.uleb128 d.d_r in
  let sym_bind : Ds_elf.Elf.sym_bind =
    match R.u8 d.d_r with 0 -> Local | 1 -> Global | 2 -> Weak | n -> fail "sym_bind tag %d" n
  in
  let sym_section = d_str d in
  { sym_name; sym_value; sym_size; sym_bind; sym_section }

let w_decl_instance e (di : Surface.decl_instance) =
  e_str e di.di_tu;
  e_str e di.di_file;
  W.uleb128 e.e_body di.di_line;
  e_proto e di.di_proto;
  w_bool e.e_body di.di_external;
  w_bool e.e_body di.di_declared_inline;
  e_opt e (fun e v -> W.u64 e.e_body v) di.di_low_pc

let r_decl_instance d : Surface.decl_instance =
  let di_tu = d_str d in
  let di_file = d_str d in
  let di_line = R.uleb128 d.d_r in
  let di_proto = d_proto d in
  let di_external = r_bool d.d_r in
  let di_declared_inline = r_bool d.d_r in
  let di_low_pc = d_opt d (fun d -> R.u64 d.d_r) in
  { di_tu; di_file; di_line; di_proto; di_external; di_declared_inline; di_low_pc }

let w_inline_site e (s : Surface.inline_site) =
  e_str e s.is_caller;
  e_str e s.is_tu;
  W.u64 e.e_body s.is_pc

let r_inline_site d : Surface.inline_site =
  let is_caller = d_str d in
  let is_tu = d_str d in
  let is_pc = R.u64 d.d_r in
  { is_caller; is_tu; is_pc }

let w_func_entry e (f : Surface.func_entry) =
  e_str e f.fe_name;
  e_list e w_decl_instance f.fe_decls;
  e_list e w_symbol f.fe_symbols;
  e_list e w_symbol f.fe_suffixed;
  e_list e w_inline_site f.fe_inline_sites;
  e_list e e_str f.fe_callers

let r_func_entry d : Surface.func_entry =
  let fe_name = d_str d in
  let fe_decls = d_list d r_decl_instance in
  let fe_symbols = d_list d r_symbol in
  let fe_suffixed = d_list d r_symbol in
  let fe_inline_sites = d_list d r_inline_site in
  let fe_callers = d_list d d_str in
  { fe_name; fe_decls; fe_symbols; fe_suffixed; fe_inline_sites; fe_callers }

let w_diag e (g : Diag.t) =
  W.u8 e.e_body (match g.Diag.d_severity with Warning -> 0 | Degraded -> 1 | Fatal -> 2);
  e_str e g.Diag.d_component;
  e_opt e e_str g.Diag.d_context;
  e_opt e (fun e n -> W.uleb128 e.e_body n) g.Diag.d_offset;
  e_str e g.Diag.d_message

let r_diag d : Diag.t =
  let d_severity : Diag.severity =
    match R.u8 d.d_r with
    | 0 -> Warning
    | 1 -> Degraded
    | 2 -> Fatal
    | n -> fail "severity tag %d" n
  in
  let d_component = d_str d in
  let d_context = d_opt d d_str in
  let d_offset = d_opt d (fun d -> R.uleb128 d.d_r) in
  let d_message = d_str d in
  { d_severity; d_component; d_context; d_offset; d_message }

let w_tp_entry e (t : Surface.tp_entry) =
  e_str e t.te_name;
  e_str e t.te_class;
  e_opt e w_struct_def t.te_event_struct;
  e_opt e w_func_decl t.te_func

let r_tp_entry d : Surface.tp_entry =
  let te_name = d_str d in
  let te_class = d_str d in
  let te_event_struct = d_opt d r_struct_def in
  let te_func = d_opt d r_func_decl in
  { te_name; te_class; te_event_struct; te_func }

let encode_surface =
  encode_payload (fun e (s : Surface.t) ->
      let w = e.e_body in
      w_version w s.s_version;
      W.u8 w (arch_tag s.s_arch);
      W.u8 w (flavor_tag s.s_flavor);
      W.uleb128 w (fst s.s_gcc);
      W.uleb128 w (snd s.s_gcc);
      e_list e w_func_entry s.s_funcs;
      e_list e w_struct_def s.s_structs;
      e_list e w_tp_entry s.s_tracepoints;
      e_list e e_str s.s_syscalls;
      e_list e w_diag s.s_health)

let decode_surface =
  decode_payload (fun d ->
      let r = d.d_r in
      let version = r_version r in
      let arch = arch_of_tag (R.u8 r) in
      let flavor = flavor_of_tag (R.u8 r) in
      let gcc_major = R.uleb128 r in
      let gcc_minor = R.uleb128 r in
      let funcs = d_list d r_func_entry in
      let structs = d_list d r_struct_def in
      let tracepoints = d_list d r_tp_entry in
      let syscalls = d_list d d_str in
      let health = d_list d r_diag in
      Surface.with_health health
        (Surface.v ~version ~arch ~flavor ~gcc:(gcc_major, gcc_minor) ~funcs ~structs
           ~tracepoints ~syscalls))

(* ------------------------------- diffs ------------------------------- *)

let w_func_change e (c : Diff.func_change) =
  let tag n = W.u8 e.e_body n in
  match c with
  | Param_added s ->
      tag 0;
      e_str e s
  | Param_removed s ->
      tag 1;
      e_str e s
  | Param_reordered -> tag 2
  | Param_type_changed (s, a, b) ->
      tag 3;
      e_str e s;
      e_type e a;
      e_type e b
  | Return_type_changed (a, b) ->
      tag 4;
      e_type e a;
      e_type e b

let r_func_change d : Diff.func_change =
  match R.u8 d.d_r with
  | 0 -> Param_added (d_str d)
  | 1 -> Param_removed (d_str d)
  | 2 -> Param_reordered
  | 3 ->
      let s = d_str d in
      let a = d_type d in
      let b = d_type d in
      Param_type_changed (s, a, b)
  | 4 ->
      let a = d_type d in
      let b = d_type d in
      Return_type_changed (a, b)
  | n -> fail "func_change tag %d" n

let w_field_change e (c : Diff.field_change) =
  let tag n = W.u8 e.e_body n in
  match c with
  | Field_added s ->
      tag 0;
      e_str e s
  | Field_removed s ->
      tag 1;
      e_str e s
  | Field_type_changed (s, a, b) ->
      tag 2;
      e_str e s;
      e_type e a;
      e_type e b

let r_field_change d : Diff.field_change =
  match R.u8 d.d_r with
  | 0 -> Field_added (d_str d)
  | 1 -> Field_removed (d_str d)
  | 2 ->
      let s = d_str d in
      let a = d_type d in
      let b = d_type d in
      Field_type_changed (s, a, b)
  | n -> fail "field_change tag %d" n

let w_tp_change e (c : Diff.tp_change) =
  match c with
  | Event_struct_changed cs ->
      W.u8 e.e_body 0;
      e_list e w_field_change cs
  | Tracing_func_changed cs ->
      W.u8 e.e_body 1;
      e_list e w_func_change cs

let r_tp_change d : Diff.tp_change =
  match R.u8 d.d_r with
  | 0 -> Event_struct_changed (d_list d r_field_change)
  | 1 -> Tracing_func_changed (d_list d r_func_change)
  | n -> fail "tp_change tag %d" n

let w_item_diff wc e (it : _ Diff.item_diff) =
  W.uleb128 e.e_body it.d_common;
  e_list e e_str it.d_added;
  e_list e e_str it.d_removed;
  e_list e
    (fun e (name, cs) ->
      e_str e name;
      e_list e wc cs)
    it.d_changed

let r_item_diff rc d : _ Diff.item_diff =
  let d_common = R.uleb128 d.d_r in
  let d_added = d_list d d_str in
  let d_removed = d_list d d_str in
  let d_changed =
    d_list d (fun d ->
        let name = d_str d in
        let cs = d_list d rc in
        (name, cs))
  in
  { d_common; d_added; d_removed; d_changed }

let w_diff e (df : Diff.t) =
  w_item_diff w_func_change e df.df_funcs;
  w_item_diff w_field_change e df.df_structs;
  w_item_diff w_tp_change e df.df_tracepoints;
  w_item_diff (fun e () -> W.u8 e.e_body 0) e df.df_syscalls

let r_diff d : Diff.t =
  let df_funcs = r_item_diff r_func_change d in
  let df_structs = r_item_diff r_field_change d in
  let df_tracepoints = r_item_diff r_tp_change d in
  let df_syscalls =
    r_item_diff (fun d -> match R.u8 d.d_r with 0 -> () | n -> fail "unit tag %d" n) d
  in
  { df_funcs; df_structs; df_tracepoints; df_syscalls }

let encode_diff = encode_payload w_diff
let decode_diff = decode_payload r_diff

let encode_version_diffs =
  encode_payload (fun e l ->
      e_list e
        (fun e ((a, b), df) ->
          w_version e.e_body a;
          w_version e.e_body b;
          w_diff e df)
        l)

let decode_version_diffs =
  decode_payload (fun d ->
      d_list d (fun d ->
          let a = r_version d.d_r in
          let b = r_version d.d_r in
          let df = r_diff d in
          ((a, b), df)))

let encode_config_diffs =
  encode_payload (fun e l ->
      e_list e
        (fun e (cfg, df) ->
          w_config e.e_body cfg;
          w_diff e df)
        l)

let decode_config_diffs =
  decode_payload (fun d ->
      d_list d (fun d ->
          let cfg = r_config d.d_r in
          let df = r_diff d in
          (cfg, df)))
