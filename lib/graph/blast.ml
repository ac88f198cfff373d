open Ds_util
open Ds_ksrc
module Depset = Depsurf.Depset
module Diff = Depsurf.Diff

type affected = { af_name : string; af_subsystem : string; af_via : Depset.dep list }

type result = {
  bl_node : Depset.dep;
  bl_release : Version.t;
  bl_prev : Version.t;
  bl_removed : bool;
  bl_reasons : string list;
  bl_closure_size : int;
  bl_affected : affected list;
}

let prev_of release =
  let rec go = function
    | a :: b :: _ when Version.equal b release -> Some a
    | _ :: tl -> go tl
    | [] -> None
  in
  go Version.all

(* did this construct disappear or change in the prev -> release diff,
   and why (human-readable, as Diff describes them)? *)
let fate_of (d : Diff.t) (node : Depset.dep) =
  let changed assoc describe name =
    match List.assoc_opt name assoc with Some cs -> List.map describe cs | None -> []
  in
  match node with
  | Depset.Dep_func n ->
      ( List.mem n d.Diff.df_funcs.d_removed,
        changed d.Diff.df_funcs.d_changed Diff.describe_func_change n )
  | Depset.Dep_struct s ->
      ( List.mem s d.Diff.df_structs.d_removed,
        changed d.Diff.df_structs.d_changed Diff.describe_field_change s )
  | Depset.Dep_field (s, f) ->
      (* a field's fate is carried by its struct's change list *)
      let cs = Option.value ~default:[] (List.assoc_opt s d.Diff.df_structs.d_changed) in
      let mine =
        List.filter
          (function
            | Diff.Field_added f' | Diff.Field_removed f' | Diff.Field_type_changed (f', _, _)
              -> f' = f)
          cs
      in
      let removed =
        List.mem s d.Diff.df_structs.d_removed
        || List.exists (function Diff.Field_removed f' -> f' = f | _ -> false) mine
      in
      (removed, List.map Diff.describe_field_change mine)
  | Depset.Dep_tracepoint t ->
      ( List.mem t d.Diff.df_tracepoints.d_removed,
        changed d.Diff.df_tracepoints.d_changed Diff.describe_tp_change t )
  | Depset.Dep_syscall s -> (List.mem s d.Diff.df_syscalls.d_removed, [])

let fate = fate_of

let hit_set g ~changed =
  let tbl = Hashtbl.create 256 in
  List.iter (fun d -> Hashtbl.replace tbl d ()) (Graph.rreach g changed);
  tbl

let hits g ~changed deps =
  let tbl = hit_set g ~changed in
  List.filter (Hashtbl.mem tbl) deps

(* The node-independent inputs of a query, computed once per dataset
   (single flight across domains) and keyed like [Graph.of_dataset]'s
   memo by the content-addressed dataset key: one entry per dataset for
   the corpus dependency sets, one per study release with a predecessor
   for the release diffs. *)
let corpus_memo : (string, (Ds_corpus.Table7.profile * Depset.dep list) list) Par.Memo.t =
  Par.Memo.create 4

let diff_memo : (string, Diff.t) Par.Memo.t = Par.Memo.create 16

let corpus_deps ds =
  Par.Memo.find_or_compute corpus_memo (Depsurf.Dataset.cache_key ds ~label:"blast-corpus" [])
    (fun () ->
      List.map (fun (pr, obj) -> (pr, Depset.of_obj obj)) (Ds_corpus.Corpus.build_all ds ()))

let release_diff ds cfg ~prev release =
  Par.Memo.find_or_compute diff_memo
    (Depsurf.Dataset.cache_key ds ~label:"blast-diff"
       [ Version.to_string release; Config.to_string cfg ])
    (fun () ->
      Diff.compare_surfaces Diff.Across_versions (Depsurf.Dataset.surface ds prev cfg)
        (Depsurf.Dataset.surface ds release cfg))

let query ?pool ds ~release node =
  match prev_of release with
  | None ->
      Error
        (Printf.sprintf
           "release %s has no predecessor in the study matrix (known: %s .. %s)"
           (Version.to_string release)
           (Version.to_string (List.hd Version.all))
           (Version.to_string (List.hd (List.rev Version.all))))
  | Some prev ->
      Ds_trace.Trace.span ~name:"graph.blast"
        ~attrs:
          [ ("node", Depset.dep_to_string node); ("release", Version.to_string release) ]
      @@ fun () ->
      let cfg = Config.x86_generic in
      (* the closure is computed on the graph of the surface programs
         were still working against: the previous release *)
      let g = Graph.of_dataset ?pool ds prev cfg in
      let in_closure = hit_set g ~changed:[ node ] in
      let removed, reasons = fate_of (release_diff ds cfg ~prev release) node in
      let affected =
        List.filter_map
          (fun ((pr : Ds_corpus.Table7.profile), deps) ->
            let via = List.filter (Hashtbl.mem in_closure) deps in
            if via = [] then None
            else
              Some { af_name = pr.pr_name; af_subsystem = pr.pr_subsystem; af_via = via })
          (corpus_deps ds)
      in
      Ok
        {
          bl_node = node;
          bl_release = release;
          bl_prev = prev;
          bl_removed = removed;
          bl_reasons = reasons;
          (* the walk yields distinct nodes, the start node included *)
          bl_closure_size = Hashtbl.length in_closure;
          bl_affected = affected;
        }

let json r =
  Json.Obj
    [
      ("node", Depsurf.Export.dep r.bl_node);
      ("release", Json.String (Version.to_string r.bl_release));
      ("prev", Json.String (Version.to_string r.bl_prev));
      ("removed", Json.Bool r.bl_removed);
      ("reasons", Json.List (List.map (fun s -> Json.String s) r.bl_reasons));
      ("closure_size", Json.Int r.bl_closure_size);
      ("affected_count", Json.Int (List.length r.bl_affected));
      ( "affected",
        Json.List
          (List.map
             (fun a ->
               Json.Obj
                 [
                   ("program", Json.String a.af_name);
                   ("subsystem", Json.String a.af_subsystem);
                   ("via", Depsurf.Export.dep_list a.af_via);
                 ])
             r.bl_affected) );
    ]

let table r =
  let tt =
    Texttable.create
      ~title:
        (Printf.sprintf "blast radius of %s in %s (diff %s -> %s): %s%s, closure %d, %d program(s) affected"
           (Depset.dep_to_string r.bl_node)
           (Version.to_string r.bl_release)
           (Version.to_string r.bl_prev)
           (Version.to_string r.bl_release)
           (if r.bl_removed then "removed" else if r.bl_reasons <> [] then "changed" else "unchanged")
           (match r.bl_reasons with [] -> "" | rs -> " (" ^ String.concat "; " rs ^ ")")
           r.bl_closure_size (List.length r.bl_affected))
      [ ("program", Texttable.L); ("subsystem", Texttable.L); ("via", Texttable.R); ("through", Texttable.L) ]
  in
  List.iter
    (fun a ->
      (* keep the column readable: tracee-sized via lists run to dozens *)
      let shown = List.filteri (fun i _ -> i < 4) a.af_via in
      let through =
        String.concat ", " (List.map Depset.dep_to_string shown)
        ^
        match List.length a.af_via - List.length shown with
        | 0 -> ""
        | more -> Printf.sprintf ", ... (+%d)" more
      in
      Texttable.row tt
        [ a.af_name; a.af_subsystem; string_of_int (List.length a.af_via); through ])
    r.bl_affected;
  Texttable.render tt
