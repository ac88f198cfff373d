open Ds_util
open Ds_ksrc
module Depset = Depsurf.Depset
module Delta = Depsurf.Delta
module Dataset = Depsurf.Dataset
module Surface = Depsurf.Surface
module Diff = Depsurf.Diff
module Codec = Depsurf.Codec
module Store = Ds_store.Store
module Graph = Ds_graph.Graph
module Blast = Ds_graph.Blast
module Prim = Codec.Prim
module W = Bytesio.Writer
module R = Bytesio.Reader

let state_version = 1
let ns = "watch"

(* ---- image naming (shared with the serve tier, which re-exports it) - *)

let image_name ((v : Version.t), (cfg : Config.t)) =
  Printf.sprintf "%d.%d-%s-%s" v.Version.major v.Version.minor
    (Config.arch_to_string cfg.Config.arch)
    (Config.flavor_to_string cfg.Config.flavor)

let image_of_name name =
  match String.split_on_char '-' name with
  | [ vs; arch; flavor ] -> (
      match String.split_on_char '.' vs with
      | [ ma; mi ] -> (
          match (int_of_string_opt ma, int_of_string_opt mi) with
          | Some major, Some minor ->
              let v = Version.v major minor in
              let cfg =
                match
                  ( List.find_opt (fun a -> Config.arch_to_string a = arch) Config.arches,
                    List.find_opt (fun f -> Config.flavor_to_string f = flavor) Config.flavors )
                with
                | Some a, Some f -> Some Config.{ arch = a; flavor = f }
                | _ -> None
              in
              Option.bind cfg (fun cfg ->
                  if List.exists (fun img -> img = (v, cfg)) Dataset.study_images then
                    Some (v, cfg)
                  else None)
          | _ -> None)
      | _ -> None)
  | _ -> None

(* ---- types ---------------------------------------------------------- *)

type sub = { sb_id : string; sb_label : string; sb_deps : Depset.dep list }

type event = {
  ev_seq : int;
  ev_sub : string;
  ev_release : string;
  ev_base : string;
  ev_hits : Depset.dep list;
  ev_reasons : string list;
  ev_time : float;
}

type ingest_result = {
  ig_release : string;
  ig_base : string;
  ig_warm : bool;
  ig_ops : Delta.counts;
  ig_health : string;
  ig_events : event list;
}

type t = {
  w_ds : Dataset.t;
  w_pool : Par.pool option;
  w_mu : Mutex.t;
  mutable w_subs : sub list;  (** registration order *)
  mutable w_events : event list;  (** newest first *)
  mutable w_next_seq : int;
  mutable w_listeners : (unit -> unit) list;
  w_extractions : int Atomic.t;
  w_base_refs : (string, string) Hashtbl.t;  (** base image name -> surface digest *)
  w_metrics : Metrics.t option;
}

let m_incr ?by t name = Option.iter (fun m -> Metrics.incr ?by m name) t.w_metrics

(* ---- persistence ---------------------------------------------------- *)

let w_f64 w f = W.u64 w (Int64.bits_of_float f)
let r_f64 r = Int64.float_of_bits (R.u64 r)

let w_sub w s =
  Prim.w_str w s.sb_id;
  Prim.w_str w s.sb_label;
  Prim.w_list w Prim.w_dep s.sb_deps

let r_sub r =
  let sb_id = Prim.r_str r in
  let sb_label = Prim.r_str r in
  let sb_deps = Prim.r_list r Prim.r_dep in
  { sb_id; sb_label; sb_deps }

let w_event w e =
  W.uleb128 w e.ev_seq;
  Prim.w_str w e.ev_sub;
  Prim.w_str w e.ev_release;
  Prim.w_str w e.ev_base;
  Prim.w_list w Prim.w_dep e.ev_hits;
  Prim.w_list w Prim.w_str e.ev_reasons;
  w_f64 w e.ev_time

let r_event r =
  let ev_seq = R.uleb128 r in
  let ev_sub = Prim.r_str r in
  let ev_release = Prim.r_str r in
  let ev_base = Prim.r_str r in
  let ev_hits = Prim.r_list r Prim.r_dep in
  let ev_reasons = Prim.r_list r Prim.r_str in
  let ev_time = r_f64 r in
  { ev_seq; ev_sub; ev_release; ev_base; ev_hits; ev_reasons; ev_time }

let encode_state t =
  let w = W.create () in
  W.uleb128 w state_version;
  W.uleb128 w t.w_next_seq;
  Prim.w_list w w_sub t.w_subs;
  Prim.w_list w w_event t.w_events;
  W.contents w

(* the state is [Prim]-encoded, so its key binds [state_version] and not
   the codec's version: a codec change must not orphan the subscriptions,
   the events and the cursor *)
let state_key ds = Dataset.cache_key ~version:state_version ds ~label:"watch-state" []

(* rewrite-in-place on every mutation: the registry is small (the event
   log is pruned with its subscription) and the store's atomic rename
   makes the update crash-safe *)
let persist t =
  match Dataset.store t.w_ds with
  | None -> ()
  | Some store -> Store.add store ~ns ~key:(state_key t.w_ds) (encode_state t)

let load t =
  match Dataset.store t.w_ds with
  | None -> ()
  | Some store -> (
      match
        Store.find store ~ns ~key:(state_key t.w_ds) ~decode:(fun data ->
            let r = R.of_string data in
            let v = R.uleb128 r in
            if v <> state_version then Prim.fail "watch state version %d" v;
            let next_seq = R.uleb128 r in
            let subs = Prim.r_list r r_sub in
            let events = Prim.r_list r r_event in
            Prim.expect_eof r;
            (next_seq, subs, events))
      with
      | Some (next_seq, subs, events) ->
          t.w_next_seq <- next_seq;
          t.w_subs <- subs;
          t.w_events <- events
      | None -> ())

let create ?pool ?metrics ds =
  let t =
    {
      w_ds = ds;
      w_pool = pool;
      w_metrics = metrics;
      w_mu = Mutex.create ();
      w_subs = [];
      w_events = [];
      w_next_seq = 1;
      w_listeners = [];
      w_extractions = Atomic.make 0;
      w_base_refs = Hashtbl.create 8;
    }
  in
  load t;
  t

let locked t f =
  Mutex.lock t.w_mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.w_mu) f

(* ---- registry ------------------------------------------------------- *)

let canonical deps = List.sort_uniq Depset.compare_dep deps

let sub_id deps =
  let h = Store.Hash.create () in
  List.iter (fun d -> Store.Hash.string h (Depset.dep_to_string d)) deps;
  Store.Hash.hex h

let subscribe t ?label deps =
  let deps = canonical deps in
  let id = sub_id deps in
  locked t @@ fun () ->
  match List.find_opt (fun s -> s.sb_id = id) t.w_subs with
  | Some existing -> (
      match label with
      | None | Some "" -> existing
      | Some l when l = existing.sb_label -> existing
      | Some l ->
          let updated = { existing with sb_label = l } in
          t.w_subs <- List.map (fun s -> if s.sb_id = id then updated else s) t.w_subs;
          persist t;
          updated)
  | None ->
      let s = { sb_id = id; sb_label = Option.value ~default:"" label; sb_deps = deps } in
      t.w_subs <- t.w_subs @ [ s ];
      m_incr t "watch.sub_create";
      persist t;
      s

let unsubscribe t id =
  locked t @@ fun () ->
  if List.exists (fun s -> s.sb_id = id) t.w_subs then begin
    t.w_subs <- List.filter (fun s -> s.sb_id <> id) t.w_subs;
    t.w_events <- List.filter (fun e -> e.ev_sub <> id) t.w_events;
    m_incr t "watch.sub_delete";
    persist t;
    true
  end
  else false

let find_sub t id = locked t @@ fun () -> List.find_opt (fun s -> s.sb_id = id) t.w_subs
let subs t = locked t @@ fun () -> t.w_subs
let cursor t = locked t @@ fun () -> t.w_next_seq - 1

let events_after t ~sub ~since =
  locked t @@ fun () ->
  List.rev
    (List.filter (fun e -> e.ev_sub = sub && e.ev_seq > since) t.w_events)

let on_change t f = locked t (fun () -> t.w_listeners <- f :: t.w_listeners)
let extractions t = Atomic.get t.w_extractions

(* ---- ingest --------------------------------------------------------- *)

let health_of diags =
  match Diag.worst diags with
  | None | Some Diag.Warning -> "clean"
  | Some Diag.Degraded -> "degraded"
  | Some Diag.Fatal -> "fatal"

(* under the registry lock: concurrent ingests share the table *)
let base_ref t base_name surface =
  locked t @@ fun () ->
  match Hashtbl.find_opt t.w_base_refs base_name with
  | Some d -> d
  | None ->
      let d = Delta.digest surface in
      Hashtbl.replace t.w_base_refs base_name d;
      d

let payload_digest payload =
  let h = Store.Hash.create () in
  (match payload with
  | `Image bytes ->
      Store.Hash.string h "image";
      Store.Hash.string h bytes
  | `Surface bytes ->
      Store.Hash.string h "surface";
      Store.Hash.string h bytes);
  Store.Hash.hex h

let next_surface t payload =
  match payload with
  | `Surface bytes -> (
      match Codec.decode_surface bytes with
      | s -> Ok s
      | exception _ -> Error "undecodable surface payload")
  | `Image bytes -> (
      Atomic.incr t.w_extractions;
      m_incr t "watch.extract";
      (* lenient extraction never raises: losses land in the surface's
         own health, which the delta carries *)
      match Surface.extract ~mode:`Lenient bytes with
      | o -> Ok (Diag.ok o)
      | exception _ -> Error "image extraction failed")

(* the delta for (base, payload), decoded once — warm when the store
   already holds it, in which case no surface is extracted at all. A
   stored delta that does not decode is evicted by the store and
   recomputed. *)
let delta t ~base_name ~base_ref ~base_surface ~name payload =
  let key =
    Dataset.cache_key t.w_ds ~label:"delta"
      [ base_name; name; payload_digest payload; string_of_int Delta.codec_version ]
  in
  let store = Dataset.store t.w_ds in
  match Option.bind store (fun s -> Store.find s ~ns:Delta.ns ~key ~decode:Delta.decode) with
  | Some d -> Ok (d, true)
  | None -> (
      match next_surface t payload with
      | Error _ as e -> e
      | Ok next ->
          let d = Delta.diff_surfaces ~base_ref ~base:base_surface next in
          Option.iter (fun s -> Store.add s ~ns:Delta.ns ~key (Delta.encode d)) store;
          Ok (d, false))

let ingest t ~base ~name payload =
  Ds_trace.Trace.span ~name:"watch.ingest"
    ~attrs:[ ("base", image_name base); ("release", name) ]
  @@ fun () ->
  if not (List.exists (fun img -> img = base) Dataset.study_images) then
    Error (Printf.sprintf "unknown base image %s" (image_name base))
  else begin
    m_incr t "watch.ingest";
    let v, cfg = base in
    let base_name = image_name base in
    let base_surface = Dataset.surface t.w_ds v cfg in
    let base_ref = base_ref t base_name base_surface in
    match delta t ~base_name ~base_ref ~base_surface ~name payload with
    | Error _ as e -> e
    | Ok (d, warm) ->
        if d.Delta.dl_base_ref <> base_ref then
          Error "delta does not reference the requested base"
        else begin
          let changed = Delta.changed_deps d in
          let diff = Delta.to_diff ~base:base_surface d in
          let subs_now = locked t (fun () -> t.w_subs) in
          let matched =
            if changed = [] || subs_now = [] then []
            else begin
              let g = Graph.of_dataset ?pool:t.w_pool t.w_ds v cfg in
              let tbl = Blast.hit_set g ~changed in
              (* a directly-changed construct always hits, even when
                 it is not a node of the dependency graph *)
              List.iter (fun dep -> Hashtbl.replace tbl dep ()) changed;
              List.filter_map
                (fun s ->
                  match List.filter (Hashtbl.mem tbl) s.sb_deps with
                  | [] -> None
                  | hits -> Some (s, hits))
                subs_now
            end
          in
          let now = Unix.gettimeofday () in
          let direct = Hashtbl.create 64 in
          List.iter (fun dep -> Hashtbl.replace direct dep ()) changed;
          let reason_of dep =
            if Hashtbl.mem direct dep then
              let removed, reasons = Blast.fate diff dep in
              if removed then Depset.dep_to_string dep ^ ": removed"
              else if reasons <> [] then
                Depset.dep_to_string dep ^ ": " ^ String.concat "; " reasons
              else Depset.dep_to_string dep ^ ": changed"
            else Depset.dep_to_string dep ^ ": transitively affected"
          in
          let events =
            locked t (fun () ->
                let evs =
                  List.map
                    (fun (s, hits) ->
                      let seq = t.w_next_seq in
                      t.w_next_seq <- t.w_next_seq + 1;
                      {
                        ev_seq = seq;
                        ev_sub = s.sb_id;
                        ev_release = name;
                        ev_base = base_name;
                        ev_hits = hits;
                        ev_reasons = List.map reason_of hits;
                        ev_time = now;
                      })
                    matched
                in
                t.w_events <- List.rev_append evs t.w_events;
                if evs <> [] then persist t;
                evs)
          in
          m_incr ~by:(List.length events) t "watch.events";
          let listeners = locked t (fun () -> t.w_listeners) in
          if events <> [] then List.iter (fun f -> f ()) listeners;
          Ok
            {
              ig_release = name;
              ig_base = base_name;
              ig_warm = warm;
              ig_ops = Delta.counts d;
              ig_health = health_of d.Delta.dl_health;
              ig_events = events;
            }
        end
  end

(* ---- JSON views ----------------------------------------------------- *)

let sub_json t s =
  Json.Obj
    [
      ("id", Json.String s.sb_id);
      ("label", Json.String s.sb_label);
      ("deps", Depsurf.Export.dep_list s.sb_deps);
      ("cursor", Json.Int (cursor t));
    ]

let event_json e =
  Json.Obj
    [
      ("seq", Json.Int e.ev_seq);
      ("subscription", Json.String e.ev_sub);
      ("release", Json.String e.ev_release);
      ("base", Json.String e.ev_base);
      ("hits", Depsurf.Export.dep_list e.ev_hits);
      ("reasons", Json.List (List.map (fun s -> Json.String s) e.ev_reasons));
      ("time", Json.Float e.ev_time);
    ]

let ingest_json r =
  let c = r.ig_ops in
  Json.Obj
    [
      ("release", Json.String r.ig_release);
      ("base", Json.String r.ig_base);
      ("warm", Json.Bool r.ig_warm);
      ( "ops",
        Json.Obj
          [
            ("adds", Json.Int c.Delta.dc_adds);
            ("removes", Json.Int c.Delta.dc_removes);
            ("changes", Json.Int c.Delta.dc_changes);
          ] );
      ("health", Json.String r.ig_health);
      ("matched", Json.Int (List.length r.ig_events));
      ("events", Json.List (List.map event_json r.ig_events));
    ]
