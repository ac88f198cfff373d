open Ds_util
open Ds_ksrc
module Surface = Depsurf.Surface
module Depset = Depsurf.Depset
module Ctype = Ds_ctypes.Ctype
module Decl = Ds_ctypes.Decl
module P = Depsurf.Codec.Prim
module W = Bytesio.Writer
module R = Bytesio.Reader

type t = {
  g_tag : string;
  g_nodes : Depset.dep array;  (* sorted by Depset.compare_dep, unique *)
  g_fwd : int array array;  (* per node id: sorted unique target ids *)
  g_rev : int array array;  (* derived from g_fwd *)
  g_ids : (Depset.dep, int) Hashtbl.t;
}

let tag g = g.g_tag
let n_nodes g = Array.length g.g_nodes
let n_edges g = Array.fold_left (fun acc adj -> acc + Array.length adj) 0 g.g_fwd

(* ------------------------- edge extraction --------------------------- *)

(* struct/union names referenced anywhere in a type; typedefs are opaque
   names here (no definition to follow), enums carry no layout *)
let rec struct_refs acc (t : Ctype.t) =
  match t with
  | Struct_ref s | Union_ref s -> s :: acc
  | Ptr t | Array (t, _) | Const t | Volatile t -> struct_refs acc t
  | Func_proto p -> proto_refs acc p
  | Void | Int _ | Float _ | Enum_ref _ | Typedef_ref _ -> acc

and proto_refs acc (p : Ctype.proto) =
  List.fold_left
    (fun acc (pa : Ctype.param) -> struct_refs acc pa.ptype)
    (struct_refs acc p.ret)
    p.params

(* nodes and edges contributed by one construct; [X -> Y] = X depends
   on Y, so a caller depends on its callee and a probe on a function
   transitively depends on everything that function's change surface
   covers *)
let func_items (fe : Surface.func_entry) =
  let self = Depset.Dep_func fe.fe_name in
  let edges = ref [] in
  List.iter (fun c -> edges := (Depset.Dep_func c, self) :: !edges) fe.fe_callers;
  List.iter
    (fun (is : Surface.inline_site) ->
      edges := (Depset.Dep_func is.is_caller, self) :: !edges)
    fe.fe_inline_sites;
  List.iter
    (fun s -> edges := (self, Depset.Dep_struct s) :: !edges)
    (proto_refs [] (Surface.representative_proto fe));
  ([ self ], !edges)

let struct_items (sd : Decl.struct_def) =
  let self = Depset.Dep_struct sd.sname in
  let nodes = ref [ self ] in
  let edges = ref [] in
  List.iter
    (fun (f : Decl.field) ->
      let fd = Depset.Dep_field (sd.sname, f.fname) in
      nodes := fd :: !nodes;
      edges := (fd, self) :: !edges;
      List.iter
        (fun r ->
          let rn = Depset.Dep_struct r in
          (* layout dependence for the struct, reach-through for the field *)
          edges := (self, rn) :: (fd, rn) :: !edges)
        (struct_refs [] f.ftype))
    sd.fields;
  (!nodes, !edges)

let tp_items (te : Surface.tp_entry) =
  let self = Depset.Dep_tracepoint te.te_name in
  let nodes = ref [ self ] in
  let edges = ref [] in
  (match te.te_event_struct with
  | Some es ->
      edges := (self, Depset.Dep_struct es.sname) :: !edges;
      (* event structs are excluded from s_structs: contribute their
         field/layout edges here *)
      let n, e = struct_items es in
      nodes := n @ !nodes;
      edges := e @ !edges
  | None -> ());
  (match te.te_func with
  | Some (fd : Decl.func_decl) ->
      List.iter
        (fun s -> edges := (self, Depset.Dep_struct s) :: !edges)
        (proto_refs [] fd.proto)
  | None -> ());
  (!nodes, !edges)

let syscall_items (s : Surface.t) name =
  let self = Depset.Dep_syscall name in
  let impl = Ds_kcc.Compile.syscall_symbol s.Surface.s_arch name in
  match Surface.find_func s impl with
  | Some _ -> ([ self ], [ (self, Depset.Dep_func impl) ])
  | None -> ([ self ], [])

(* ------------------------------ build -------------------------------- *)

let builds = Atomic.make 0
let build_count () = Atomic.get builds

let compare_edge (a1, b1) (a2, b2) =
  match Depset.compare_dep a1 a2 with 0 -> Depset.compare_dep b1 b2 | c -> c

let finish ~tag ~nodes ~fwd =
  let ids = Hashtbl.create (Array.length nodes) in
  Array.iteri (fun i d -> Hashtbl.replace ids d i) nodes;
  let n = Array.length nodes in
  let rev_lists = Array.make n [] in
  Array.iteri (fun i adj -> Array.iter (fun j -> rev_lists.(j) <- i :: rev_lists.(j)) adj) fwd;
  (* fwd is scanned in ascending source order, so each reverse list is
     built descending — reverse restores sorted order *)
  let rev = Array.map (fun l -> Array.of_list (List.rev l)) rev_lists in
  { g_tag = tag; g_nodes = nodes; g_fwd = fwd; g_rev = rev; g_ids = ids }

let build ?pool (s : Surface.t) =
  Ds_trace.Trace.span ~name:"graph.build" ~attrs:[ ("image", Surface.tag s) ] @@ fun () ->
  Atomic.incr builds;
  let map : 'a 'b. ('a -> 'b) -> 'a list -> 'b list =
   fun f xs -> match pool with Some p -> Par.map_list_chunked p f xs | None -> List.map f xs
  in
  let items =
    map func_items s.Surface.s_funcs
    @ map struct_items s.Surface.s_structs
    @ map tp_items s.Surface.s_tracepoints
    @ List.map (syscall_items s) s.Surface.s_syscalls
  in
  (* sorting makes the result a pure function of the surface: identical
     bytes whatever the chunking or pool size of the fan-out *)
  let edges = List.sort_uniq compare_edge (List.concat_map snd items) in
  let nodes =
    List.concat_map fst items
    @ List.concat_map (fun (a, b) -> [ a; b ]) edges
    |> List.sort_uniq Depset.compare_dep
    |> Array.of_list
  in
  let ids = Hashtbl.create (Array.length nodes) in
  Array.iteri (fun i d -> Hashtbl.replace ids d i) nodes;
  let fwd_lists = Array.make (Array.length nodes) [] in
  List.iter
    (fun (a, b) ->
      let ia = Hashtbl.find ids a and ib = Hashtbl.find ids b in
      if ia <> ib then fwd_lists.(ia) <- ib :: fwd_lists.(ia))
    edges;
  (* edges were sorted ascending and prepended: reverse restores order *)
  let fwd = Array.map (fun l -> Array.of_list (List.rev l)) fwd_lists in
  Ds_trace.Trace.set_attr "nodes" (string_of_int (Array.length nodes));
  finish ~tag:(Surface.tag s) ~nodes ~fwd

(* ------------------------------ queries ------------------------------ *)

let node_id g d = Hashtbl.find_opt g.g_ids d
let mem g d = Option.is_some (node_id g d)

(* Breadth-first from every start at once, one seen array for the whole
   walk: each reachable node is visited and returned once, the starts
   included. *)
let bfs adj starts =
  let seen = Bytes.make (Array.length adj) '\000' in
  let q = Queue.create () in
  let acc = ref [] in
  let visit j =
    if Bytes.get seen j = '\000' then begin
      Bytes.set seen j '\001';
      acc := j :: !acc;
      Queue.push j q
    end
  in
  List.iter visit starts;
  while not (Queue.is_empty q) do
    Array.iter visit adj.(Queue.pop q)
  done;
  !acc

let query g ~dir ~transitive d =
  Ds_trace.Trace.span ~name:"graph.query"
    ~attrs:
      [
        ("node", Depset.dep_to_string d);
        ("dir", match dir with `Deps -> "deps" | `Rdeps -> "rdeps");
      ]
  @@ fun () ->
  match node_id g d with
  | None -> None
  | Some i ->
      let adj = match dir with `Deps -> g.g_fwd | `Rdeps -> g.g_rev in
      let ids =
        if transitive then List.filter (( <> ) i) (bfs adj [ i ]) else Array.to_list adj.(i)
      in
      Some (List.sort Depset.compare_dep (List.map (fun j -> g.g_nodes.(j)) ids))

let rclosure g d = Option.value ~default:[] (query g ~dir:`Rdeps ~transitive:true d)

let rreach g sources =
  Ds_trace.Trace.span ~name:"graph.query"
    ~attrs:[ ("sources", string_of_int (List.length sources)); ("dir", "rdeps") ]
  @@ fun () ->
  List.map (fun j -> g.g_nodes.(j)) (bfs g.g_rev (List.filter_map (node_id g) sources))

(* ---------------------------- persistence ---------------------------- *)

let codec_version = 1
let ns = "graph"

let encode g =
  let w = W.create () in
  P.w_str w g.g_tag;
  W.uleb128 w (Array.length g.g_nodes);
  Array.iter (P.w_dep w) g.g_nodes;
  Array.iter
    (fun adj ->
      W.uleb128 w (Array.length adj);
      Array.iter (W.uleb128 w) adj)
    g.g_fwd;
  W.contents w

let decode_exn data =
  let r = R.of_string data in
  let tag = P.r_str r in
  let n = R.uleb128 r in
  (* explicit in-order reads: Array.init's evaluation order is
     unspecified, and every element read is side-effecting *)
  let read_array k f =
    let rec go acc i = if i = 0 then List.rev acc else go (f () :: acc) (i - 1) in
    Array.of_list (go [] k)
  in
  let nodes = read_array n (fun () -> P.r_dep r) in
  let fwd =
    read_array n (fun () ->
        let k = R.uleb128 r in
        read_array k (fun () ->
            let j = R.uleb128 r in
            if j >= n then P.fail "graph: node id %d out of range" j;
            j))
  in
  P.expect_eof r;
  finish ~tag ~nodes ~fwd

(* reader underruns surface as [Bytesio.Truncated]; fold them into the
   codec's [Decode_error] discipline so callers need one handler *)
let decode data =
  try decode_exn data
  with Ds_util.Bytesio.Truncated what -> P.fail "graph: truncated payload (%s)" what

let store_key ds v cfg =
  Depsurf.Dataset.cache_key ds ~label:"graph"
    [ Version.to_string v; Config.to_string cfg; "c" ^ string_of_int codec_version ]

(* single flight across domains, keyed by the full content-addressed
   store key so distinct datasets never collide *)
let memo : (string, t) Par.Memo.t = Par.Memo.create 8

let of_dataset ?pool ds v cfg =
  let key = store_key ds v cfg in
  Par.Memo.find_or_compute memo key (fun () ->
      let surface = Depsurf.Dataset.surface ds v cfg in
      Ds_store.Store.memo (Depsurf.Dataset.store ds) ~ns ~key ~encode ~decode
        ~cache_if:(fun _ -> not (Surface.degraded surface))
        (fun () -> build ?pool surface))

(* ------------------------------- views ------------------------------- *)

let dep_json = Depsurf.Export.dep

let stats_json g =
  Json.Obj
    [
      ("image", Json.String g.g_tag);
      ("nodes", Json.Int (n_nodes g));
      ("edges", Json.Int (n_edges g));
    ]

let dir_name = function `Deps -> "deps" | `Rdeps -> "rdeps"

let query_json g ~dir ~transitive d =
  let results = query g ~dir ~transitive d in
  Json.Obj
    [
      ("image", Json.String g.g_tag);
      ("node", dep_json d);
      ("direction", Json.String (dir_name dir));
      ("transitive", Json.Bool transitive);
      ("found", Json.Bool (Option.is_some results));
      ("count", Json.Int (match results with None -> 0 | Some l -> List.length l));
      ("results", Json.List (List.map dep_json (Option.value ~default:[] results)));
    ]

let query_table g ~dir ~transitive d =
  match query g ~dir ~transitive d with
  | None ->
      Printf.sprintf "%s: node %s not in graph (%d nodes)\n" g.g_tag (Depset.dep_to_string d)
        (n_nodes g)
  | Some results ->
      let tt =
        Texttable.create
          ~title:
            (Printf.sprintf "%s of %s on %s (%s, %d)" (dir_name dir) (Depset.dep_to_string d)
               g.g_tag
               (if transitive then "transitive" else "direct")
               (List.length results))
          [ ("kind", Texttable.L); ("name", Texttable.L) ]
      in
      List.iter
        (fun dep ->
          let s = Depset.dep_to_string dep in
          match Strutil.cut ~on:':' s with
          | Some (k, n) -> Texttable.row tt [ k; n ]
          | None -> Texttable.row tt [ ""; s ])
        results;
      Texttable.render tt
