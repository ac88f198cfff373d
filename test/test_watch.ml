(* The watch tier: content-addressed subscriptions, delta-driven ingest
   of evolved releases, per-subscription mismatch events with a monotone
   replay cursor, and persistence through the store's "watch"
   namespace. *)

open Ds_ksrc
open Depsurf
module Watch = Ds_watch.Watch
module Store = Ds_store.Store
module Metrics = Ds_util.Metrics

let ds = lazy (Dataset.build ~seed:Testenv.seed Calibration.test_scale)
let base_img = (Version.v 5 4, Config.x86_generic)
let base_surface = lazy (Dataset.surface (Lazy.force ds) (fst base_img) (snd base_img))

let fresh_dir () =
  let dir = Filename.temp_file "dswatch" ".store" in
  Sys.remove dir;
  Sys.mkdir dir 0o755;
  dir

let store_ds () =
  Store.open_ ~dir:(fresh_dir ()) () |> fun store ->
  Dataset.build ~seed:Testenv.seed ~store Calibration.test_scale

(* a next surface with one registered-upon func gone: the minimal
   breaking release *)
let drop_func (s : Surface.t) name =
  Surface.v ~version:s.Surface.s_version ~arch:s.Surface.s_arch
    ~flavor:s.Surface.s_flavor ~gcc:s.Surface.s_gcc
    ~funcs:(List.filter (fun f -> f.Surface.fe_name <> name) s.Surface.s_funcs)
    ~structs:s.Surface.s_structs ~tracepoints:s.Surface.s_tracepoints
    ~syscalls:s.Surface.s_syscalls

let test_subscribe_content_addressed () =
  let w = Watch.create (Lazy.force ds) in
  let a = Watch.subscribe w [ Depset.Dep_func "vfs_read"; Depset.Dep_struct "file" ] in
  (* same set, different order, duplicated: the id is the canonical set *)
  let b =
    Watch.subscribe w
      [ Depset.Dep_struct "file"; Depset.Dep_func "vfs_read"; Depset.Dep_struct "file" ]
  in
  Alcotest.(check string) "idempotent id" a.Watch.sb_id b.Watch.sb_id;
  Alcotest.(check int) "one subscription" 1 (List.length (Watch.subs w));
  Alcotest.(check int) "canonical deps" 2 (List.length b.Watch.sb_deps);
  let c = Watch.subscribe w [ Depset.Dep_func "vfs_fsync" ] in
  Alcotest.(check bool) "distinct sets get distinct ids" true (a.Watch.sb_id <> c.Watch.sb_id);
  Alcotest.(check bool) "find_sub" true (Watch.find_sub w a.Watch.sb_id <> None);
  Alcotest.(check bool) "unsubscribe" true (Watch.unsubscribe w c.Watch.sb_id);
  Alcotest.(check bool) "gone after unsubscribe" true (Watch.find_sub w c.Watch.sb_id = None);
  Alcotest.(check bool) "unsubscribe is not idempotent" false
    (Watch.unsubscribe w c.Watch.sb_id)

let test_ingest_surface_events () =
  (* store-backed: the warm re-ingest leg needs the delta tier *)
  let ds = store_ds () in
  let w = Watch.create ds in
  let base = Lazy.force base_surface in
  let victim =
    match base.Surface.s_funcs with
    | f :: _ -> f.Surface.fe_name
    | [] -> Alcotest.fail "base surface has no funcs"
  in
  let hit_sub = Watch.subscribe w ~label:"direct" [ Depset.Dep_func victim ] in
  let miss_sub = Watch.subscribe w ~label:"bystander" [ Depset.Dep_syscall "openat" ] in
  let next = drop_func base victim in
  let payload = `Surface (Codec.encode_surface next) in
  let r =
    match Watch.ingest w ~base:base_img ~name:"r1" payload with
    | Ok r -> r
    | Error m -> Alcotest.fail ("ingest failed: " ^ m)
  in
  Alcotest.(check bool) "cold ingest" false r.Watch.ig_warm;
  Alcotest.(check int) "surface payloads never extract" 0 (Watch.extractions w);
  Alcotest.(check int) "one op" 1
    (let c = r.Watch.ig_ops in
     c.Delta.dc_adds + c.Delta.dc_removes + c.Delta.dc_changes);
  Alcotest.(check int) "one event" 1 (List.length r.Watch.ig_events);
  (match r.Watch.ig_events with
  | [ e ] ->
      Alcotest.(check string) "event for the direct sub" hit_sub.Watch.sb_id e.Watch.ev_sub;
      Alcotest.(check string) "release label" "r1" e.Watch.ev_release;
      Alcotest.(check bool) "hit is the victim" true
        (e.Watch.ev_hits = [ Depset.Dep_func victim ]);
      Alcotest.(check int) "one reason per hit" (List.length e.Watch.ev_hits)
        (List.length e.Watch.ev_reasons)
  | _ -> Alcotest.fail "expected exactly one event");
  Alcotest.(check int) "cursor advanced" 1 (Watch.cursor w);
  (* replay is deterministic and per-subscription *)
  let replay () = Watch.events_after w ~sub:hit_sub.Watch.sb_id ~since:0 in
  Alcotest.(check bool) "replay equal" true (replay () = replay ());
  Alcotest.(check int) "bystander sees nothing" 0
    (List.length (Watch.events_after w ~sub:miss_sub.Watch.sb_id ~since:0));
  Alcotest.(check int) "past-cursor replay empty" 0
    (List.length (Watch.events_after w ~sub:hit_sub.Watch.sb_id ~since:(Watch.cursor w)));
  (* warm re-ingest: same payload, delta served from the store, no new
     events recorded twice for the same bytes is NOT promised — but
     warmness and op counts are *)
  match Watch.ingest w ~base:base_img ~name:"r1" payload with
  | Ok r2 -> Alcotest.(check bool) "warm re-ingest" true r2.Watch.ig_warm
  | Error m -> Alcotest.fail ("warm re-ingest failed: " ^ m)

let test_ingest_image_warm_path () =
  let ds = store_ds () in
  let w = Watch.create ds in
  let bytes = Ds_elf.Elf.write (Testenv.image (Version.v 5 4)) in
  (match Watch.ingest w ~base:base_img ~name:"same" (`Image bytes) with
  | Ok r ->
      Alcotest.(check bool) "cold first" false r.Watch.ig_warm;
      Alcotest.(check int) "one extraction" 1 (Watch.extractions w);
      Alcotest.(check int) "identical release has no ops" 0
        (let c = r.Watch.ig_ops in
         c.Delta.dc_adds + c.Delta.dc_removes + c.Delta.dc_changes);
      Alcotest.(check int) "no events" 0 (List.length r.Watch.ig_events)
  | Error m -> Alcotest.fail ("image ingest failed: " ^ m));
  (* the delta tier absorbs the repeat: 0 further extractions *)
  (match Watch.ingest w ~base:base_img ~name:"same" (`Image bytes) with
  | Ok r ->
      Alcotest.(check bool) "warm second" true r.Watch.ig_warm;
      Alcotest.(check int) "still one extraction" 1 (Watch.extractions w)
  | Error m -> Alcotest.fail ("warm image ingest failed: " ^ m));
  (* a second handle over the same store is warm from the start *)
  let w2 = Watch.create ds in
  match Watch.ingest w2 ~base:base_img ~name:"same" (`Image bytes) with
  | Ok r ->
      Alcotest.(check bool) "warm across handles" true r.Watch.ig_warm;
      Alcotest.(check int) "zero extractions on fresh handle" 0 (Watch.extractions w2)
  | Error m -> Alcotest.fail ("cross-handle ingest failed: " ^ m)

(* a stored delta whose frame is intact but whose payload does not
   decode is evicted and recomputed, never an ingest error *)
let test_undecodable_delta_recomputed () =
  let ds = store_ds () in
  let store = Option.get (Dataset.store ds) in
  let dir = Store.dir store in
  let w = Watch.create ds in
  let base = Lazy.force base_surface in
  let victim = (List.hd base.Surface.s_funcs).Surface.fe_name in
  let sub = Watch.subscribe w [ Depset.Dep_func victim ] in
  let payload = `Surface (Codec.encode_surface (drop_func base victim)) in
  let ingest () =
    match Watch.ingest w ~base:base_img ~name:"r5" payload with
    | Ok r -> r
    | Error m -> Alcotest.fail ("ingest failed: " ^ m)
  in
  let cold = ingest () in
  (match List.filter (fun e -> e.Store.e_ns = Delta.ns) (Store.entries ~dir) with
  | [ e ] ->
      let path = Filename.concat (Filename.concat dir e.Store.e_ns) (e.Store.e_key ^ ".dsa") in
      let oc = open_out_bin path in
      output_string oc (Store.Frame.encode ~ns:Delta.ns "not a delta");
      close_out oc
  | es -> Alcotest.failf "expected one delta entry, found %d" (List.length es));
  let evictions = (Store.stats store).Store.c_evictions in
  let again = ingest () in
  Alcotest.(check bool) "recomputed, not warm" false again.Watch.ig_warm;
  Alcotest.(check int) "entry evicted" (evictions + 1) (Store.stats store).Store.c_evictions;
  Alcotest.(check bool) "same ops" true (again.Watch.ig_ops = cold.Watch.ig_ops);
  Alcotest.(check (list string)) "same subscriptions hit"
    [ sub.Watch.sb_id ]
    (List.map (fun e -> e.Watch.ev_sub) again.Watch.ig_events);
  Alcotest.(check bool) "warm after the rewrite" true (ingest ()).Watch.ig_warm

let test_transitive_hit () =
  let ds = Lazy.force ds in
  let w = Watch.create ds in
  let base = Lazy.force base_surface in
  let g = Ds_graph.Graph.of_dataset ds (fst base_img) (snd base_img) in
  (* find a construct whose removal reaches some *other* construct
     through the reverse closure, and subscribe to that other one *)
  let pick =
    List.find_map
      (fun (f : Surface.func_entry) ->
        match Ds_graph.Graph.rclosure g (Depset.Dep_func f.Surface.fe_name) with
        | dependant :: _ -> Some (f.Surface.fe_name, dependant)
        | [] -> None)
      base.Surface.s_funcs
  in
  match pick with
  | None -> Alcotest.fail "no func with a non-trivial reverse closure in the test graph"
  | Some (victim, dependant) -> (
      let sub = Watch.subscribe w [ dependant ] in
      let next = drop_func base victim in
      match Watch.ingest w ~base:base_img ~name:"r2" (`Surface (Codec.encode_surface next)) with
      | Error m -> Alcotest.fail ("ingest failed: " ^ m)
      | Ok r -> (
          match
            List.find_opt (fun e -> e.Watch.ev_sub = sub.Watch.sb_id) r.Watch.ig_events
          with
          | None -> Alcotest.fail "transitive dependant got no event"
          | Some e ->
              Alcotest.(check bool) "hit is the subscribed dep" true
                (List.mem dependant e.Watch.ev_hits)))

let test_persistence () =
  let ds = store_ds () in
  let base = Lazy.force base_surface in
  let victim =
    match base.Surface.s_funcs with
    | f :: _ -> f.Surface.fe_name
    | [] -> Alcotest.fail "no funcs"
  in
  let id =
    let w = Watch.create ds in
    let sub = Watch.subscribe w ~label:"durable" [ Depset.Dep_func victim ] in
    (match
       Watch.ingest w ~base:base_img ~name:"r3"
         (`Surface (Codec.encode_surface (drop_func base victim)))
     with
    | Ok r -> Alcotest.(check int) "event recorded" 1 (List.length r.Watch.ig_events)
    | Error m -> Alcotest.fail m);
    sub.Watch.sb_id
  in
  (* a fresh handle over the same store sees the registry and the events *)
  let w = Watch.create ds in
  (match Watch.find_sub w id with
  | Some s -> Alcotest.(check string) "label survives" "durable" s.Watch.sb_label
  | None -> Alcotest.fail "subscription lost across handles");
  Alcotest.(check int) "cursor survives" 1 (Watch.cursor w);
  (match Watch.events_after w ~sub:id ~since:0 with
  | [ e ] -> Alcotest.(check string) "event release survives" "r3" e.Watch.ev_release
  | _ -> Alcotest.fail "events lost across handles");
  (* unsubscribing prunes the events, persistently *)
  Alcotest.(check bool) "unsubscribe" true (Watch.unsubscribe w id);
  let w2 = Watch.create ds in
  Alcotest.(check bool) "gone after reopen" true (Watch.find_sub w2 id = None);
  Alcotest.(check int) "events pruned" 0 (List.length (Watch.events_after w2 ~sub:id ~since:0))

(* The state is primary data, so its store key must not move when the
   surface codec's version does (a moved key silently orphans every
   subscription, event and the cursor). Pinned as a literal: a change
   here is a state loss for every deployed store, to be made on purpose. *)
let test_state_key_stable () =
  let dir = fresh_dir () in
  let ds = Dataset.build ~seed:Testenv.seed ~store:(Store.open_ ~dir ()) Calibration.test_scale in
  ignore (Watch.subscribe (Watch.create ds) [ Depset.Dep_func "vfs_read" ]);
  match List.filter (fun e -> e.Store.e_ns = "watch") (Store.entries ~dir) with
  | [ e ] -> Alcotest.(check string) "watch state key" "watch-state-ae1a1ab9ca32751ce5553b8ec648597f" e.Store.e_key
  | l -> Alcotest.failf "expected one watch entry, found %d" (List.length l)

let test_ingest_errors () =
  let w = Watch.create (Lazy.force ds) in
  (match Watch.ingest w ~base:(Version.v 9 9, Config.x86_generic) ~name:"x" (`Surface "") with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unknown base accepted");
  match Watch.ingest w ~base:base_img ~name:"x" (`Surface "garbage") with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "garbage surface accepted"

let test_on_change_listener () =
  let ds = Lazy.force ds in
  let w = Watch.create ds in
  let base = Lazy.force base_surface in
  let victim =
    match base.Surface.s_funcs with
    | f :: _ -> f.Surface.fe_name
    | [] -> Alcotest.fail "no funcs"
  in
  let fired = ref 0 in
  Watch.on_change w (fun () -> incr fired);
  ignore (Watch.subscribe w [ Depset.Dep_func victim ]);
  (match
     Watch.ingest w ~base:base_img ~name:"r4"
       (`Surface (Codec.encode_surface (drop_func base victim)))
   with
  | Ok _ -> ()
  | Error m -> Alcotest.fail m);
  Alcotest.(check int) "listener fired on new events" 1 !fired

(* an event's Unix timestamp survives the wire to the microsecond *)
let test_event_time_roundtrip () =
  let ev_time = 1760890123.456789 in
  let e =
    {
      Watch.ev_seq = 1; ev_sub = "s"; ev_release = "r"; ev_base = "5.4-x86-generic";
      ev_hits = []; ev_reasons = []; ev_time;
    }
  in
  let j = Ds_util.Json.of_string (Ds_util.Json.to_string (Watch.event_json e)) in
  match Ds_util.Json.member "time" j with
  | Some (Ds_util.Json.Float f) -> Alcotest.(check (float 1e-6)) "time" ev_time f
  | _ -> Alcotest.fail "event time is not a float"

let suites =
  [
    ( "watch",
      [
        Alcotest.test_case "content-addressed subscriptions" `Quick
          test_subscribe_content_addressed;
        Alcotest.test_case "surface ingest records events" `Quick test_ingest_surface_events;
        Alcotest.test_case "image ingest warm path" `Quick test_ingest_image_warm_path;
        Alcotest.test_case "undecodable delta recomputed" `Quick
          test_undecodable_delta_recomputed;
        Alcotest.test_case "transitive graph hit" `Quick test_transitive_hit;
        Alcotest.test_case "persistence across handles" `Quick test_persistence;
        Alcotest.test_case "state key independent of the codec" `Quick
          test_state_key_stable;
        Alcotest.test_case "ingest errors" `Quick test_ingest_errors;
        Alcotest.test_case "on_change listener" `Quick test_on_change_listener;
        Alcotest.test_case "event time round-trips" `Quick test_event_time_roundtrip;
      ] );
  ]
