open Ds_ksrc
open Depsurf
module Par = Ds_util.Par
module Metrics = Ds_util.Metrics
module Json = Ds_util.Json
module Deadline = Ds_util.Deadline
module Diag = Ds_util.Diag
module Store = Ds_store.Store
module Trace = Ds_trace.Trace
module Watch = Ds_watch.Watch

(* ---- overload & lifecycle limits ----------------------------------- *)

type limits = {
  li_max_inflight : int;
      (* admission cap: accepted-but-unfinished connections; over it,
         new connections are shed with 503 + Retry-After *)
  li_read_timeout_s : float;
      (* whole-receive deadline (request line + headers + body): a
         trickling or stalled client gets 408, not a parked worker *)
  li_handle_deadline_s : float;
      (* cooperative compute budget per request (Deadline); over it the
         handler answers 503 instead of burning a worker *)
  li_write_timeout_s : float;  (* per-socket send timeout *)
  li_drain_deadline_s : float;  (* stop: max wait for in-flight requests *)
}

let env_int name default =
  match Option.bind (Sys.getenv_opt name) int_of_string_opt with
  | Some n when n > 0 -> n
  | _ -> default

let default_limits () =
  {
    li_max_inflight = env_int "DEPSURF_MAX_INFLIGHT" 64;
    li_read_timeout_s = 10.;
    li_handle_deadline_s = float_of_int (env_int "DEPSURF_DEADLINE_MS" 30_000) /. 1000.;
    li_write_timeout_s = 10.;
    li_drain_deadline_s = 10.;
  }

(* ---- image naming -------------------------------------------------- *)

(* the study-matrix naming now lives with the watch tier (which persists
   base names in its delta keys); re-exported here for API stability *)
let image_name = Watch.image_name
let image_of_name = Watch.image_of_name

(* ---- server state -------------------------------------------------- *)

type t = {
  sv_ds : Dataset.t;
  sv_pool : Par.pool;
  sv_metrics : Metrics.t;
  sv_limits : limits;
  sv_adm : Admission.t;  (** accepted-connection bookkeeping + shedding *)
  sv_files : (string * string) list;  (** extra image name -> path *)
  sv_cache : Respcache.t;  (** every cacheable answer, LRU-bounded *)
  sv_generation : int Atomic.t;  (** part of every cache key; bump to invalidate *)
  sv_store_gen : int Atomic.t;  (** last-seen store maintenance generation *)
  sv_store_checked : float Atomic.t;  (** last revalidation poll (gettimeofday) *)
  ix_file_surface : (string, Surface.t) Par.Memo.t;  (** lenient extracts *)
  sv_watch : Watch.t;  (** subscriptions + delta ingest + events *)
  sv_parked : parked list ref;  (** long-pollers waiting for events, fd ownership here *)
  sv_park_mu : Mutex.t;
  sv_draining : bool Atomic.t;  (** SIGTERM drain: parked pollers answer immediately *)
  sv_notify : bool Atomic.t;  (** watch wakeup listener installed (once) *)
}

(* A parked long-poll: the connection was admitted, its request fully
   read, and nothing was ready — instead of pinning a pool worker (on a
   1-core host the accept domain itself runs the handlers, so a blocking
   wait would deadlock the server) the fd is handed to this lot and the
   worker returns. Delivery re-enters [handle_request], so a woken
   poller gets the exact response (headers, tracing, metrics) an
   immediate request would have produced. *)
and parked = {
  pk_fd : Unix.file_descr;
  pk_sub : string;
  pk_since : int;
  pk_target : string;  (** original request target, re-dispatched on delivery *)
  pk_headers : (string * string) list;
  pk_pressure : Diag.severity option;
  pk_admitted_at : float;  (** admission slot held while parked *)
  pk_expiry : float;  (** deadline-bounded: wait capped by the handle budget *)
}

let create ?images_dir ?limits ~ds ~pool () =
  let limits = match limits with Some l -> l | None -> default_limits () in
  let files =
    match images_dir with
    | None -> []
    | Some dir ->
        let entries = Sys.readdir dir in
        Array.sort compare entries;
        Array.to_list entries
        |> List.filter (fun f -> String.length f > 8 && String.sub f 0 8 = "vmlinux-")
        |> List.map (fun f -> (f, Filename.concat dir f))
  in
  (* every request is traced; spans land in the per-domain rings and are
     served back via /v1/trace/recent and ?trace=1 *)
  Trace.enable ();
  let metrics = Metrics.create () in
  {
    sv_ds = ds;
    sv_pool = pool;
    sv_metrics = metrics;
    sv_limits = limits;
    sv_adm = Admission.create ~limit:limits.li_max_inflight ();
    sv_files = files;
    sv_cache = Respcache.create ();
    sv_generation = Atomic.make 0;
    sv_store_gen =
      Atomic.make
        (match Dataset.store ds with
        | None -> 0
        | Some s -> Store.maintenance_generation ~dir:(Store.dir s));
    sv_store_checked = Atomic.make (Unix.gettimeofday ());
    ix_file_surface = Par.Memo.create 16;
    sv_watch = Watch.create ~pool ~metrics ds;
    sv_parked = ref [];
    sv_park_mu = Mutex.create ();
    sv_draining = Atomic.make false;
    sv_notify = Atomic.make false;
  }

let metrics t = t.sv_metrics

let parked_count t = Mutex.protect t.sv_park_mu (fun () -> List.length !(t.sv_parked))
let admission t = t.sv_adm
let generation t = Atomic.get t.sv_generation

(* Nothing mutates the dataset today (the study matrix is fixed and
   [images_dir] is scanned once at [create]); this is the hook mutations
   must call so response-cache bytes and ETags stop matching. *)
let invalidate t = Atomic.incr t.sv_generation

(* The one external mutation source: `depsurf cache clear`/`gc`/`verify`
   run against this server's store directory. They bump the store's
   persisted maintenance generation; when it moves, drop every cached
   response byte so nothing keyed to the pre-maintenance store keeps
   being served. CAS so racing requests bump [sv_generation] once. *)
let revalidate_store t =
  match Dataset.store t.sv_ds with
  | None -> ()
  | Some s ->
      let gen = Store.maintenance_generation ~dir:(Store.dir s) in
      let seen = Atomic.get t.sv_store_gen in
      if gen <> seen && Atomic.compare_and_set t.sv_store_gen seen gen then begin
        Metrics.incr t.sv_metrics "cache.store_invalidate";
        invalidate t
      end

(* poll the generation file at most once a second on the request path:
   a stat+read per request would make every cacheable GET pay disk for
   an event that almost never happens *)
let revalidate_throttled t =
  let now = Unix.gettimeofday () in
  let last = Atomic.get t.sv_store_checked in
  if now -. last >= 1.0 && Atomic.compare_and_set t.sv_store_checked last now then
    revalidate_store t

(* ---- sources ------------------------------------------------------- *)

type source = Study of Version.t * Config.t | File of string

let find_source t name =
  match image_of_name name with
  | Some (v, cfg) -> Some (Study (v, cfg))
  | None -> Option.map (fun p -> File p) (List.assoc_opt name t.sv_files)

let surface_of_source t name = function
  | Study (v, cfg) -> Dataset.surface t.sv_ds v cfg
  | File path ->
      Par.Memo.find_or_compute t.ix_file_surface name (fun () ->
          Metrics.incr t.sv_metrics "compute.file_surface";
          let bytes = In_channel.with_open_bin path In_channel.input_all in
          Ds_util.Diag.ok (Surface.extract ~mode:`Lenient bytes))

(* ---- JSON plumbing ------------------------------------------------- *)

(* one buffer: a multi-MB document is never copied to append its newline *)
let json_body j =
  let buf = Buffer.create 4096 in
  Json.write buf j;
  Buffer.add_char buf '\n';
  Buffer.contents buf

let ok_json j = (200, "application/json", json_body j)

let etag_of_body body = "\"" ^ Store.Hash.digest body ^ "\""

(* what the router hands back: status, content type, body, and for a
   cacheable answer its (ETag, "hit" | "miss") *)
type reply = int * string * string * (string * string) option

let plain (status, ctype, body) : reply = (status, ctype, body, None)

(* a rendered answer as the cache holds it: a 200's ETag is hashed
   once, here, at fill *)
let entry (status, ctype, body) =
  let e_etag =
    if status = 200 then Trace.span ~name:"serve.etag" (fun () -> etag_of_body body) else ""
  in
  { Respcache.e_status = status; e_ctype = ctype; e_body = body; e_etag }

let cached (e : Respcache.entry) state : reply =
  (e.e_status, e.e_ctype, e.e_body, if e.e_status = 200 then Some (e.e_etag, state) else None)

(* every non-2xx body, socket-layer rejections included, goes through
   the one [Api.error_envelope] constructor: {v, health, diagnostics}
   uniformly, golden-pinned in the tests *)
let error_json ?diagnostics status msg =
  (status, "application/json", json_body (Api.error_envelope ~status ?diagnostics msg))

let scale_label ds =
  if Dataset.scale ds = Calibration.bench_scale then "bench"
  else if Dataset.scale ds = Calibration.test_scale then "test"
  else "custom"

(* ---- endpoints ----------------------------------------------------- *)

let healthz t =
  ok_json
    (Api.envelope
    @@ Json.Obj
       [
         ("status", Json.String "ok");
         ("scale", Json.String (scale_label t.sv_ds));
         ("images", Json.Int (List.length Dataset.study_images + List.length t.sv_files));
       ])

let images t =
  let study =
    List.map
      (fun img ->
        Json.Obj
          [ ("name", Json.String (image_name img)); ("kind", Json.String "study") ])
      Dataset.study_images
  in
  let files =
    List.map
      (fun (name, _) ->
        Json.Obj [ ("name", Json.String name); ("kind", Json.String "file") ])
      t.sv_files
  in
  ok_json (Api.envelope (Json.Obj [ ("images", Json.List (study @ files)) ]))

let construct_entry s kind name =
  match kind with
  | "func" -> Option.map Export.func_status (Surface.find_func s name)
  | "struct" -> Option.map Export.struct_def (Surface.find_struct s name)
  | "tracepoint" -> Option.map Export.tracepoint (Surface.find_tracepoint s name)
  | "syscall" -> if Surface.has_syscall s name then Some (Json.Bool true) else None
  | _ -> None

(* /surface/<image> without kind= and name= is the whole document *)
let whole_surface query = not (List.mem_assoc "kind" query || List.mem_assoc "name" query)

(* the whole surface document, or one construct of it: ?kind=&name= *)
let surface_endpoint t name query =
  match find_source t name with
  | None -> error_json 404 ("unknown image: " ^ name)
  | Some src -> (
      match (List.assoc_opt "kind" query, List.assoc_opt "name" query) with
      | None, None ->
          Metrics.incr t.sv_metrics "compute.surface";
          let s = surface_of_source t name src in
          ok_json (Api.of_diags ~data:(Export.surface_with_health s) (Surface.health s))
      | Some kind, Some cname -> (
          if not (List.mem kind [ "func"; "struct"; "tracepoint"; "syscall" ]) then
            error_json 400 ("unknown kind: " ^ kind ^ " (func|struct|tracepoint|syscall)")
          else
            let s = surface_of_source t name src in
            match construct_entry s kind cname with
            | None -> error_json 404 (Printf.sprintf "no %s %s on %s" kind cname name)
            | Some entry ->
                ok_json
                  (Api.of_diags
                     ~data:
                       (Json.Obj
                          [
                            ("image", Json.String name);
                            ("health", Json.String (Export.health_label (Surface.health s)));
                            ("kind", Json.String kind);
                            ("name", Json.String cname);
                            ("entry", entry);
                          ])
                     (Surface.health s)))
      | _ -> error_json 400 "kind= and name= must be given together")

let diff_endpoint t a b =
  match (image_of_name a, image_of_name b) with
  | None, _ -> error_json 404 ("unknown image: " ^ a)
  | _, None -> error_json 404 ("unknown image: " ^ b)
  | Some (va, ca), Some (vb, cb) ->
      let sa = Dataset.surface t.sv_ds va ca in
      let sb = Dataset.surface t.sv_ds vb cb in
      let mode = if Version.equal va vb then Diff.Across_configs else Diff.Across_versions in
      (* persistent tier: arbitrary pairs are store artifacts too,
         so a restarted server re-hydrates instead of re-diffing *)
      let d =
        Store.memo (Dataset.store t.sv_ds) ~ns:"diff"
          ~key:(Dataset.cache_key t.sv_ds ~label:"pair-diff" [ a; b ])
          ~encode:Codec.encode_diff ~decode:Codec.decode_diff
          (fun () ->
            Metrics.incr t.sv_metrics "compute.diff";
            Diff.compare_surfaces mode sa sb)
      in
      let fields = match Export.diff d with Json.Obj fs -> fs | _ -> [] in
      ok_json
        (Api.envelope
        @@ Json.Obj
             (("from", Json.String a) :: ("to", Json.String b)
             :: ( "mode",
                  Json.String
                    (match mode with
                    | Diff.Across_versions -> "across_versions"
                    | Diff.Across_configs -> "across_configs") )
             :: fields))

(* ---- /graph/* ------------------------------------------------------ *)

let default_graph_image = (Version.v 5 4, Config.x86_generic)

let version_of_string s =
  let s =
    if String.length s > 0 && s.[0] = 'v' then String.sub s 1 (String.length s - 1) else s
  in
  match String.split_on_char '.' s with
  | [ ma; mi ] -> (
      match (int_of_string_opt ma, int_of_string_opt mi) with
      | Some major, Some minor -> Some (Version.v major minor)
      | _ -> None)
  | _ -> None

let graph_query_endpoint t dir sym query =
  match Depset.dep_of_string sym with
  | None -> error_json 400 ("bad node syntax: " ^ sym ^ " (kind:name or a bare function name)")
  | Some node -> (
      let image =
        match List.assoc_opt "image" query with
        | None | Some "" -> Some default_graph_image
        | Some name -> image_of_name name
      in
      match image with
      | None -> error_json 404 ("unknown image: " ^ Option.value ~default:"" (List.assoc_opt "image" query))
      | Some (v, cfg) ->
          let transitive = List.assoc_opt "transitive" query = Some "1" in
          Metrics.incr t.sv_metrics "compute.graph";
          let g = Ds_graph.Graph.of_dataset ~pool:t.sv_pool t.sv_ds v cfg in
          ok_json (Api.envelope (Ds_graph.Graph.query_json g ~dir ~transitive node)))

let graph_blast_endpoint t sym query =
  match Depset.dep_of_string sym with
  | None -> error_json 400 ("bad node syntax: " ^ sym ^ " (kind:name or a bare function name)")
  | Some node -> (
      match Option.bind (List.assoc_opt "release" query) version_of_string with
      | None -> error_json 400 "release=MAJOR.MINOR is required"
      | Some release ->
          let known = List.exists (Version.equal release) Version.all in
          let first = List.hd Version.all in
          if (not known) || Version.equal release first then
            error_json 404
              (Printf.sprintf "release %s is not a diffable study release"
                 (Version.to_string release))
          else begin
            Metrics.incr t.sv_metrics "compute.blast";
            match Ds_graph.Blast.query ~pool:t.sv_pool t.sv_ds ~release node with
            | Ok r -> ok_json (Api.envelope (Ds_graph.Blast.json r))
            | Error e -> failwith e
          end)

(* stable-probe suggestions: every registry probe whose candidate hooks
   overlap the object's dependency set, resolved across the x86 series *)
let suggestions t obj =
  let deps = Depset.of_obj obj in
  let candidate_matches (c : Compat.candidate) =
    (match Ds_bpf.Hook.target_function c.Compat.ca_hook with
    | Some f -> List.mem (Depset.Dep_func f) deps
    | None -> false)
    ||
    match Ds_bpf.Hook.target_tracepoint c.Compat.ca_hook with
    | Some tp -> List.mem (Depset.Dep_tracepoint tp) deps
    | None -> false
  in
  let relevant =
    List.filter
      (fun (p : Compat.probe) -> List.exists candidate_matches p.Compat.pb_candidates)
      Compat.default_registry
  in
  match relevant with
  | [] -> ""
  | probes ->
      let buf = Buffer.create 256 in
      Buffer.add_string buf "\nstable-probe suggestions (compat layer):\n";
      List.iter
        (fun (p : Compat.probe) ->
          Buffer.add_string buf
            (Printf.sprintf "  %s -- %s\n" p.Compat.pb_name p.Compat.pb_doc);
          List.iter
            (fun (label, (res : Compat.resolution)) ->
              Buffer.add_string buf
                (Printf.sprintf "    %-24s -> %s\n" label
                   (match res.Compat.rs_hook with
                   | Some hook -> Ds_bpf.Hook.to_string hook
                   | None -> "UNRESOLVED")))
            (Compat.coverage p t.sv_ds
               (List.map (fun v -> (v, Config.x86_generic)) Version.all)))
        probes;
      Buffer.contents buf

let mismatch_endpoint t query body =
  if String.length body = 0 then error_json 400 "empty body: POST the BPF object bytes"
  else
    match Ds_util.Diag.ok (Ds_bpf.Obj.read body) with
    | exception Ds_bpf.Obj.Bad_obj m -> error_json 400 ("bad BPF object: " ^ m)
    | obj -> (
        Metrics.incr t.sv_metrics "compute.mismatch";
        (* the object's BTF is only resolved by the analysis: a broken
           type reference there is the client's object, not a 500 *)
        match Report.render_matrix (Pipeline.analyze t.sv_ds obj) with
        | exception Ds_btf.Btf.Bad_btf m -> error_json 400 ("bad BPF object: BTF " ^ m)
        | report ->
            let report =
              if List.assoc_opt "suggest" query = Some "1" then report ^ suggestions t obj
              else report
            in
            (200, "text/plain", report))

(* Structured verifier-rejection diagnostics for one object against one
   study image. The body is the exact [Verify.envelope] bytes [depsurf
   doctor --json] prints, so the CLI and the service stay comparable
   with [cmp]. Unlike /mismatch, a rejected object still answers 200 —
   the rejection is the payload; only a request-shaped problem (empty
   body, unknown image) is an HTTP error. *)
let verify_endpoint t query ~digest body =
  if String.length body = 0 then error_json 400 "empty body: POST the BPF object bytes"
  else begin
    let image = Option.value ~default:"5.4-x86-generic" (List.assoc_opt "image" query) in
    match image_of_name image with
    | None -> error_json 400 ("unknown study image: " ^ image)
    | Some (v, cfg) ->
        Metrics.incr t.sv_metrics "compute.verify";
        Trace.span ~name:"verify.obj"
          ~attrs:[ ("image", image); ("digest", Lazy.force digest) ]
          (fun () ->
            ok_json (Ds_verify.Verify.envelope (Ds_verify.Verify.of_dataset t.sv_ds v cfg body)))
  end

let metrics_endpoint t =
  let store_json =
    match Dataset.store t.sv_ds with
    | None -> Json.Null
    | Some s ->
        let c = Store.stats s in
        Json.Obj
          [
            ("hits", Json.Int c.Store.c_hits);
            ("misses", Json.Int c.Store.c_misses);
            ("evictions", Json.Int c.Store.c_evictions);
            ("writes", Json.Int c.Store.c_writes);
            ("bytes_read", Json.Int c.Store.c_bytes_read);
            ("bytes_written", Json.Int c.Store.c_bytes_written);
          ]
  in
  let fields = match Metrics.to_json t.sv_metrics with Json.Obj fs -> fs | _ -> [] in
  let cache_entries, cache_bytes = Respcache.stats t.sv_cache in
  ok_json
    (Api.envelope
    @@ Json.Obj
       (("requests_total", Json.Int (Metrics.counter t.sv_metrics "requests_total"))
       :: ("compiles", Json.Int (Dataset.compile_count t.sv_ds))
       :: ("store", store_json)
       :: ( "response_cache",
            Json.Obj
              [
                ("entries", Json.Int cache_entries);
                ("bytes", Json.Int cache_bytes);
                ("generation", Json.Int (Atomic.get t.sv_generation));
              ] )
       :: ("admission", Admission.stats_json t.sv_adm)
       :: ( "watch",
            Json.Obj
              [
                ("subscriptions", Json.Int (List.length (Watch.subs t.sv_watch)));
                ("cursor", Json.Int (Watch.cursor t.sv_watch));
                ("parked", Json.Int (parked_count t));
                ("extractions", Json.Int (Watch.extractions t.sv_watch));
              ] )
       :: fields))

(* ---- watch & subscriptions ------------------------------------------ *)

(* deps arrive as canonical "kind:name" strings (bare names mean func:),
   either in the JSON body or as a comma-separated ?deps= param *)
let parse_dep_strings strs =
  let deps, bad =
    List.fold_left
      (fun (deps, bad) s ->
        match Depset.dep_of_string s with
        | Some d -> (d :: deps, bad)
        | None -> (deps, s :: bad))
      ([], []) strs
  in
  if bad <> [] then
    Error (List.rev_map (fun s -> Printf.sprintf "unparseable dependency %S" s) bad)
  else Ok (List.rev deps)

let subscriptions_create t query body =
  let from_query () =
    match List.assoc_opt "deps" query with
    | None | Some "" -> []
    | Some s -> String.split_on_char ',' s |> List.filter (fun s -> s <> "")
  in
  let parsed =
    if String.length body = 0 then Ok (from_query (), List.assoc_opt "label" query)
    else
      match Json.of_string body with
      | exception Json.Parse_error m -> Error [ "subscription body is not JSON: " ^ m ]
      | j ->
          let deps =
            match Json.member "deps" j with
            | Some (Json.List l) ->
                Ok
                  (List.filter_map
                     (function Json.String s -> Some s | _ -> None)
                     l)
            | Some _ -> Error [ "\"deps\" must be a list of strings" ]
            | None -> Ok (from_query ())
          in
          let label =
            match Json.member "label" j with
            | Some (Json.String l) -> Some l
            | _ -> List.assoc_opt "label" query
          in
          Result.map (fun d -> (d, label)) deps
  in
  match parsed with
  | Error diags -> error_json ~diagnostics:diags 400 "invalid subscription request"
  | Ok ([], _) ->
      error_json 400 "no dependencies: pass a JSON body {\"deps\": [\"func:vfs_read\", ...]}"
  | Ok (strs, label) -> (
      match parse_dep_strings strs with
      | Error diags -> error_json ~diagnostics:diags 400 "invalid subscription request"
      | Ok deps ->
          let sub = Watch.subscribe t.sv_watch ?label deps in
          ok_json (Api.envelope (Watch.sub_json t.sv_watch sub)))

let subscriptions_list t =
  let subs = Watch.subs t.sv_watch in
  ok_json
    (Api.envelope
       (Json.Obj
          [
            ("subscriptions", Json.List (List.map (Watch.sub_json t.sv_watch) subs));
            ("cursor", Json.Int (Watch.cursor t.sv_watch));
          ]))

let subscription_get t id =
  match Watch.find_sub t.sv_watch id with
  | None -> error_json 404 ("no such subscription: " ^ id)
  | Some sub -> ok_json (Api.envelope (Watch.sub_json t.sv_watch sub))

let subscription_delete t id =
  if Watch.unsubscribe t.sv_watch id then
    ok_json (Api.envelope (Json.Obj [ ("removed", Json.String id) ]))
  else error_json 404 ("no such subscription: " ^ id)

let watch_ingest t query body =
  if String.length body = 0 then
    error_json 400 "empty body: POST the release image (or ?kind=surface codec bytes)"
  else
    match List.assoc_opt "base" query with
    | None -> error_json 400 "missing ?base=<study image> parameter"
    | Some base_name -> (
        match image_of_name base_name with
        | None -> error_json 400 ("unknown study image: " ^ base_name)
        | Some base -> (
            let name =
              match List.assoc_opt "name" query with
              | Some n when n <> "" -> n
              | _ -> "release"
            in
            let payload =
              match List.assoc_opt "kind" query with
              | Some "surface" -> `Surface body
              | _ -> `Image body
            in
            match Watch.ingest t.sv_watch ~base ~name payload with
            | Error m -> error_json 400 m
            | Ok r -> ok_json (Api.envelope (Watch.ingest_json r))))

(* ?since=<cursor>: a non-negative event cursor, 0 when absent or bad *)
let since_of query =
  match Option.bind (List.assoc_opt "since" query) int_of_string_opt with
  | Some n when n >= 0 -> n
  | _ -> 0

(* the immediate (non-parked) answer: 200 with pending events, or an
   empty 204 — parking happens at the socket layer ([handle_conn]),
   which re-dispatches here on wakeup so both paths share one renderer *)
let watch_poll t id query =
  match Watch.find_sub t.sv_watch id with
  | None -> error_json 404 ("no such subscription: " ^ id)
  | Some _ -> (
      let since = since_of query in
      match Watch.events_after t.sv_watch ~sub:id ~since with
      | [] -> (204, "application/json", "")
      | events ->
          let cursor =
            List.fold_left (fun acc e -> max acc e.Watch.ev_seq) since events
          in
          ok_json
            (Api.envelope
               (Json.Obj
                  [
                    ("subscription", Json.String id);
                    ("since", Json.Int since);
                    ("cursor", Json.Int cursor);
                    ("events", Json.List (List.map Watch.event_json events));
                  ])))

(* ---- routing ------------------------------------------------------- *)

let percent_decode s =
  let len = String.length s in
  let b = Buffer.create len in
  let hex c =
    match c with
    | '0' .. '9' -> Some (Char.code c - Char.code '0')
    | 'a' .. 'f' -> Some (Char.code c - Char.code 'a' + 10)
    | 'A' .. 'F' -> Some (Char.code c - Char.code 'A' + 10)
    | _ -> None
  in
  let rec go i =
    if i < len then
      match s.[i] with
      | '%' when i + 2 < len -> (
          match (hex s.[i + 1], hex s.[i + 2]) with
          | Some hi, Some lo ->
              Buffer.add_char b (Char.chr ((hi * 16) + lo));
              go (i + 3)
          | _ ->
              Buffer.add_char b '%';
              go (i + 1))
      | '+' ->
          Buffer.add_char b ' ';
          go (i + 1)
      | c ->
          Buffer.add_char b c;
          go (i + 1)
  in
  go 0;
  Buffer.contents b

let parse_query qs =
  String.split_on_char '&' qs
  |> List.filter_map (fun kv ->
         match Ds_util.Strutil.cut ~on:'=' kv with
         | None -> if kv = "" then None else Some (percent_decode kv, "")
         | Some (k, v) -> Some (percent_decode k, percent_decode v))

(* ---- /trace/recent ------------------------------------------------- *)

let trace_endpoint query =
  let limit =
    match Option.bind (List.assoc_opt "limit" query) int_of_string_opt with
    | Some n when n > 0 -> n
    | _ -> 100
  in
  let sps = Trace.recent ~limit () in
  ok_json
    (Api.envelope
       (Json.Obj
          [
            ("spans", Json.List (List.map Trace.span_json sps));
            ("dropped", Json.Int (Trace.drops ()));
          ]))

(* the request's own span plus every finished span whose ancestor chain
   reaches it; used for the ?trace=1 inline view of one request *)
let trace_descendants root_id =
  if root_id = 0 then []
  else begin
    let sps = Trace.spans () in
    let parent = Hashtbl.create 64 in
    List.iter (fun sp -> Hashtbl.replace parent sp.Trace.sp_id sp.Trace.sp_parent) sps;
    let reaches id =
      let rec go id depth =
        if depth > 64 || id = 0 then false
        else if id = root_id then true
        else match Hashtbl.find_opt parent id with Some p -> go p (depth + 1) | None -> false
      in
      go id 0
    in
    List.filter
      (fun sp -> sp.Trace.sp_id = root_id || reaches sp.Trace.sp_parent)
      sps
  end

let inject_trace root_id body =
  match Json.of_string body with
  | exception _ -> body
  | Json.Obj fields ->
      let sps = trace_descendants root_id in
      json_body
        (Json.Obj (fields @ [ ("trace", Json.List (List.map Trace.span_json sps)) ]))
  | _ -> body

(* How a route's answer is held: a [Cached] answer in the Respcache
   under [params] and the body [digest]; a [Live] answer reports live
   state and is never held. *)
type tier =
  | Live of (unit -> int * string * string)
  | Cached of {
      params : (string * string) list;
      digest : string Lazy.t option;
      fill : unit -> int * string * string;
    }

(* The one route table: per path and method, the tier and handler of the
   answer ([None]: no such endpoint). The POST arms unwrap the mutation
   envelope [{v; params; body}], so handlers and the cache key only ever
   see the effective (params, body), and the body digest that keys a
   Respcache entry is the one the handler reports; a bare body passes
   through untouched. *)
let route t ~meth ~segs ~query ~body =
  let cached fill = Cached { params = query; digest = None; fill } in
  (* a whole surface or diff: its handler reads no param, so the path
     segments alone key it, and no query string can render it twice *)
  let document fill =
    Cached { params = []; digest = None; fill = (fun () -> Trace.span ~name:"serve.render" fill) }
  in
  let not_allowed msg = Live (fun () -> error_json 405 msg) in
  let get tier = if meth = "GET" then tier else not_allowed ("method not allowed: " ^ meth) in
  let post ?(cache = false) msg handler =
    if meth <> "POST" then not_allowed msg
    else
      match Api.parse_mutation body with
      | Error problems ->
          Live (fun () -> error_json ~diagnostics:problems 400 "invalid request envelope")
      | Ok m ->
          if m.Api.mu_enveloped then Metrics.incr t.sv_metrics "requests.enveloped";
          (* envelope params win over query-string duplicates: handlers
             read the first binding *)
          let query = m.Api.mu_params @ query and body = m.Api.mu_body in
          let digest = lazy (Store.Hash.digest body) in
          let fill () = handler query body digest in
          if cache then Cached { params = query; digest = Some digest; fill } else Live fill
  in
  match segs with
  | [ "healthz" ] -> Some (get (Live (fun () -> healthz t)))
  | [ "images" ] -> Some (get (cached (fun () -> images t)))
  | [ "surface"; name ] ->
      let fill () = surface_endpoint t name query in
      Some (get (if whole_surface query then document fill else cached fill))
  | [ "diff"; a; b ] -> Some (get (document (fun () -> diff_endpoint t a b)))
  | [ "graph"; (("deps" | "rdeps") as dir); sym ] ->
      let dir = if dir = "deps" then `Deps else `Rdeps in
      Some (get (cached (fun () -> graph_query_endpoint t dir sym query)))
  | [ "graph"; "blast"; sym ] -> Some (get (cached (fun () -> graph_blast_endpoint t sym query)))
  | [ "mismatch" ] ->
      Some
        (post ~cache:true "POST the BPF object bytes to /v1/mismatch" (fun query body _ ->
             mismatch_endpoint t query body))
  | [ "verify" ] ->
      Some
        (post ~cache:true "POST the BPF object bytes to /v1/verify" (fun query body digest ->
             verify_endpoint t query ~digest body))
  | [ "subscriptions" ] when meth = "GET" -> Some (Live (fun () -> subscriptions_list t))
  | [ "subscriptions" ] ->
      Some
        (post "POST a depset to /v1/subscriptions, or GET to list" (fun query body _ ->
             subscriptions_create t query body))
  | [ "subscriptions"; id ] when meth = "GET" -> Some (Live (fun () -> subscription_get t id))
  | [ "subscriptions"; id ] when meth = "DELETE" ->
      Some (Live (fun () -> subscription_delete t id))
  | [ "subscriptions"; _ ] -> Some (not_allowed "GET or DELETE /v1/subscriptions/<id>")
  | [ "watch"; "ingest" ] when meth = "POST" -> Some (Live (fun () -> watch_ingest t query body))
  | [ "watch"; "ingest" ] ->
      Some (not_allowed "POST the release image to /v1/watch/ingest?base=<image>")
  | [ "watch"; id ] when meth = "GET" -> Some (Live (fun () -> watch_poll t id query))
  | [ "watch"; _ ] -> Some (not_allowed "GET /v1/watch/<sub-id>?since=<cursor>")
  | [ "metrics" ] -> Some (get (Live (fun () -> metrics_endpoint t)))
  | [ "trace"; "recent" ] -> Some (get (Live (fun () -> trace_endpoint query)))
  | _ -> None

(* The Respcache key: generation, segments, the effective params (the
   first binding of each name, which is the one handlers read, sorted so
   order does not matter; [trace] is read by [handle_request], never by
   a handler) and the body digest. Every part is length-prefixed, so no
   decoded segment or value can spell another request's key. *)
let cache_key t ~segs ~params ~digest =
  let part s = string_of_int (String.length s) ^ ":" ^ s in
  let effective =
    List.fold_left
      (fun acc (k, v) -> if k = "trace" || List.mem_assoc k acc then acc else (k, v) :: acc)
      [] params
  in
  String.concat ""
    (List.map part (string_of_int (Atomic.get t.sv_generation) :: segs)
    @ ("?" :: List.concat_map (fun (k, v) -> [ part k; part v ]) (List.sort compare effective))
    @ match digest with Some d -> [ "#"; part (Lazy.force d) ] | None -> [])

(* answer one routed request from its tier; only 200s enter the cache *)
let answer t ~segs tier : reply =
  match tier with
  | Live f ->
      Deadline.check ();
      plain (f ())
  | Cached { params; digest; fill } -> (
      (* external store maintenance must not leave stale bytes in the
         response cache — cheap throttled poll, see [revalidate_store] *)
      revalidate_throttled t;
      let fill () =
        Deadline.check ();
        entry (fill ())
      in
      match Respcache.find_or_fill t.sv_cache (cache_key t ~segs ~params ~digest) fill with
      | `Hit e ->
          Metrics.incr t.sv_metrics "cache.hit";
          cached e "hit"
      | `Miss (e, evicted) ->
          Metrics.incr t.sv_metrics "cache.miss";
          if evicted > 0 then Metrics.incr t.sv_metrics ~by:evicted "cache.evict";
          cached e "miss")

(* The one request-target parser, shared by the router and the parking
   check: the path's percent-decoded segments after the /v1 prefix
   ([None] for a path outside /v1) and the decoded query. *)
let parse_target target =
  let path, query =
    match Ds_util.Strutil.cut ~on:'?' target with
    | None -> (target, [])
    | Some (path, qs) -> (path, parse_query qs)
  in
  let segs =
    String.split_on_char '/' path |> List.filter (fun s -> s <> "") |> List.map percent_decode
  in
  (path, query, match segs with "v1" :: rest -> Some rest | _ -> None)

(* RFC 9110 If-None-Match: "*" or a comma-separated list of entity tags *)
let etag_matches header etag =
  String.trim header = "*"
  || List.exists (fun tok -> String.trim tok = etag) (String.split_on_char ',' header)

let no_such_endpoint =
  "no such endpoint (under /v1: healthz, images, surface, diff, graph/deps, graph/rdeps, \
   graph/blast, mismatch, verify, subscriptions, watch/ingest, watch/<sub-id>, metrics, \
   trace/recent)"

let handle_request ?(headers = []) ?pressure t ~meth ~target ~body =
  let path, query, segs = parse_target target in
  let traced = List.assoc_opt "trace" query = Some "1" in
  Metrics.incr t.sv_metrics "requests_total";
  let t0 = Unix.gettimeofday () in
  (* a route's metrics label is its first segment *)
  let segs, label, tier =
    match Option.map (fun segs -> (segs, route t ~meth ~segs ~query ~body)) segs with
    | Some (segs, Some tier) -> (segs, "/" ^ List.hd segs, tier)
    | Some (segs, None) -> (segs, "/other", Live (fun () -> error_json 404 no_such_endpoint))
    | None ->
        (* the unprefixed aliases are retired: answered before any
           cache, so no /v1 body ever reaches an unprefixed path *)
        let msg = "unprefixed routes are retired: use /v1" ^ path in
        ([], "/other", Live (fun () -> error_json 404 msg))
  in
  let trace_id = ref 0 in
  let retry_after = ref None in
  let status, ctype, rbody, etag =
    Trace.span ~name:"serve.request" ~attrs:[ ("method", meth); ("route", label) ]
      (fun () ->
        trace_id := Trace.current_id ();
        try
          (* the per-request compute budget; Par.submit carries it onto
             any pool fan-out the handler performs *)
          Deadline.with_timeout ~label:"serve.handle" t.sv_limits.li_handle_deadline_s
          @@ fun () -> answer t ~segs tier
        with
        | Deadline.Expired (_, over) ->
            (* the handler ran out of its budget: overload, not a bug —
               tell the client when to come back, free the worker *)
            Metrics.incr t.sv_metrics "overload.deadline";
            let ra = Admission.retry_after t.sv_adm in
            retry_after := Some ra;
            Trace.span ~name:"serve.timeout"
              ~attrs:
                [
                  ("pressure", "deadline"); ("route", label);
                  ("over_ms", Printf.sprintf "%.0f" (over *. 1000.));
                ]
              (fun () -> ());
            plain
              (error_json 503
                 (Printf.sprintf "deadline exceeded after %.0fms"
                    (t.sv_limits.li_handle_deadline_s *. 1000.)))
        | e -> plain (error_json 500 ("internal error: " ^ Printexc.to_string e)))
  in
  (* ?trace=1 inlines this request's own spans, so the body is no longer
     the cached representation and carries no ETag *)
  let rbody = if traced && ctype = "application/json" then inject_trace !trace_id rbody else rbody in
  let etag = if traced then None else etag in
  (* conditional requests: a matching If-None-Match turns the response
     into an empty-body 304 carrying the same ETag — the warm client
     path pays for headers, never for a multi-MB body *)
  let status, rbody =
    match (etag, List.assoc_opt "if-none-match" headers) with
    | Some (tag, _), Some header when etag_matches header tag ->
        Metrics.incr t.sv_metrics "cache.notmod";
        (304, "")
    | _ -> (status, rbody)
  in
  Metrics.record t.sv_metrics label (Unix.gettimeofday () -. t0);
  Metrics.incr t.sv_metrics ("requests." ^ label);
  if status >= 400 then Metrics.incr t.sv_metrics ("errors." ^ label);
  let resp_headers =
    ("x-depsurf-trace", string_of_int !trace_id)
    :: (match etag with Some (tag, state) -> [ ("ETag", tag); ("x-depsurf-cache", state) ] | None -> [])
  in
  let resp_headers =
    match !retry_after with
    | Some ra -> ("Retry-After", string_of_int ra) :: resp_headers
    | None -> resp_headers
  in
  (* admission pressure at accept time rides on the response so clients
     can back off before being shed *)
  let resp_headers =
    match pressure with
    | Some sev -> ("x-depsurf-pressure", Diag.severity_to_string sev) :: resp_headers
    | None -> resp_headers
  in
  (status, ctype, resp_headers, rbody)

(* ---- HTTP over sockets --------------------------------------------- *)

let rec write_all fd s off len =
  if len > 0 then begin
    let n = Unix.write_substring fd s off len in
    write_all fd s (off + n) (len - n)
  end

let reason_of = function
  | 200 -> "OK"
  | 204 -> "No Content"
  | 304 -> "Not Modified"
  | 400 -> "Bad Request"
  | 404 -> "Not Found"
  | 405 -> "Method Not Allowed"
  | 408 -> "Request Timeout"
  | 413 -> "Content Too Large"
  | 431 -> "Request Header Fields Too Large"
  | 500 -> "Internal Server Error"
  | 503 -> "Service Unavailable"
  | _ -> "Unknown"

(* head and body go out as two writes: the old [Printf.sprintf "...%s"]
   re-copied every multi-MB body into the header string on every request *)
let send_response fd status ctype extra_headers body =
  let b = Buffer.create 256 in
  Buffer.add_string b
    (Printf.sprintf "HTTP/1.1 %d %s\r\nContent-Type: %s\r\nContent-Length: %d\r\n" status
       (reason_of status) ctype (String.length body));
  List.iter
    (fun (k, v) ->
      Buffer.add_string b k;
      Buffer.add_string b ": ";
      Buffer.add_string b v;
      Buffer.add_string b "\r\n")
    extra_headers;
  Buffer.add_string b "Connection: close\r\n\r\n";
  write_all fd (Buffer.contents b) 0 (Buffer.length b);
  write_all fd body 0 (String.length body)

let max_header_bytes = 65536
let max_body_bytes = 16 * 1024 * 1024

exception Bad_request of string

(* oversized input carries its canonical status: 431 for the header
   block, 413 for the body *)
exception Too_large of int * string

(* the whole-receive deadline fired (stalled or trickling client) *)
exception Timed_out of string

module Slice = Ds_util.Bytesio.Slice

(* A growing receive buffer that scans for the \r\n\r\n head terminator
   incrementally — each byte is examined once, instead of re-walking a
   [Buffer.contents] copy of everything received after every read. *)
type recv_buf = { mutable rb_data : Bytes.t; mutable rb_len : int }

let recv_create n = { rb_data = Bytes.create n; rb_len = 0 }

let recv_read rb fd ~on_eof =
  if rb.rb_len = Bytes.length rb.rb_data then begin
    let b = Bytes.create (2 * Bytes.length rb.rb_data) in
    Bytes.blit rb.rb_data 0 b 0 rb.rb_len;
    rb.rb_data <- b
  end;
  let n = Unix.read fd rb.rb_data rb.rb_len (Bytes.length rb.rb_data - rb.rb_len) in
  if n = 0 then on_eof ();
  rb.rb_len <- rb.rb_len + n

(* raise once the whole-receive deadline has passed: SO_RCVTIMEO covers
   a fully stalled peer, this covers the trickler that keeps each
   individual read alive while never finishing the request *)
let deadline_guard ?deadline what =
  match deadline with
  | Some at when Unix.gettimeofday () > at -> raise (Timed_out what)
  | _ -> ()

(* index of the head terminator, reading as needed; scanning resumes
   where the previous read left off *)
let recv_head ?deadline rb fd ~too_large ~on_eof =
  let rec find from =
    let b = rb.rb_data in
    let limit = rb.rb_len - 3 in
    let rec go i =
      if i >= limit then None
      else if
        Bytes.unsafe_get b i = '\r'
        && Bytes.unsafe_get b (i + 1) = '\n'
        && Bytes.unsafe_get b (i + 2) = '\r'
        && Bytes.unsafe_get b (i + 3) = '\n'
      then Some i
      else go (i + 1)
    in
    match go from with
    | Some i ->
        (* over-cap heads are rejected even when the terminator arrived
           in the same read burst as the overflow *)
        if i + 4 > max_header_bytes then too_large ();
        i
    | None ->
        if rb.rb_len > max_header_bytes then too_large ();
        deadline_guard ?deadline "timed out reading request headers";
        let prev = rb.rb_len in
        recv_read rb fd ~on_eof;
        find (max 0 (prev - 3))
  in
  find 0

(* read [need] body bytes into place: the prefix already received past
   the head, then straight [Unix.read]s into the result buffer — no
   intermediate Buffer or per-chunk copies *)
let recv_body ?deadline rb fd ~body_start ~need ~on_eof =
  if need = 0 then ""
  else begin
    let b = Bytes.create need in
    let have = min (rb.rb_len - body_start) need in
    Bytes.blit rb.rb_data body_start b 0 have;
    let got = ref have in
    while !got < need do
      deadline_guard ?deadline "timed out reading request body";
      let n = Unix.read fd b !got (need - !got) in
      if n = 0 then on_eof ();
      got := !got + n
    done;
    Bytes.unsafe_to_string b
  end

(* Single pass over a head block: first line plus (lowercased-name,
   trimmed-value) pairs, one allocation per name and per value — the
   old parser built 3+ intermediate strings per header line
   (split_on_char + strip_cr + String.sub + lowercase + trim). Lines
   are split on '\n' with an optional trailing '\r', preserving the
   historical lenient behaviour (pinned by the golden e2e test). *)
let parse_head head =
  let hdr_end = String.length head in
  let line_at i =
    let j =
      match String.index_from_opt head i '\n' with Some j when j < hdr_end -> j | _ -> hdr_end
    in
    let stop = if j > i && head.[j - 1] = '\r' then j - 1 else j in
    (Slice.make head ~pos:i ~len:(stop - i), j + 1)
  in
  let first, next = line_at 0 in
  let headers = ref [] in
  let i = ref next in
  while !i < hdr_end do
    let line, next = line_at !i in
    (match Slice.index_opt line ':' with
    | None -> ()
    | Some c ->
        let name = Slice.lowercase_string (Slice.sub line ~pos:0 ~len:c) in
        let value =
          Slice.to_string
            (Slice.trim (Slice.sub line ~pos:(c + 1) ~len:(Slice.length line - c - 1)))
        in
        headers := (name, value) :: !headers);
    i := next
  done;
  (first, List.rev !headers)

(* read one request: request line, headers, Content-Length body. The
   deadline bounds the whole receive; a socket-level timeout
   (SO_RCVTIMEO, surfacing as EAGAIN) is folded into the same 408. *)
let recv_request ?deadline fd =
  let rb = recv_create 8192 in
  let on_eof () = raise (Bad_request "connection closed before headers") in
  let hdr_end =
    recv_head ?deadline rb fd ~on_eof ~too_large:(fun () ->
        raise (Too_large (431, "request headers exceed 64KiB")))
  in
  let request_line, headers = parse_head (Bytes.sub_string rb.rb_data 0 hdr_end) in
  let meth, target =
    match Slice.index_opt request_line ' ' with
    | None ->
        raise (Bad_request ("bad request line: " ^ Slice.to_string request_line))
    | Some i ->
        let rest =
          Slice.sub request_line ~pos:(i + 1) ~len:(Slice.length request_line - i - 1)
        in
        let target =
          match Slice.index_opt rest ' ' with
          | None -> rest
          | Some j -> Slice.sub rest ~pos:0 ~len:j
        in
        (Slice.to_string (Slice.sub request_line ~pos:0 ~len:i), Slice.to_string target)
  in
  let content_length =
    match List.assoc_opt "content-length" headers with
    | None -> 0
    | Some v -> (
        match int_of_string_opt v with
        | Some n when n >= 0 && n <= max_body_bytes -> n
        | Some n when n > max_body_bytes ->
            raise (Too_large (413, Printf.sprintf "request body of %d bytes exceeds 16MiB" n))
        | _ -> raise (Bad_request ("bad content-length: " ^ v)))
  in
  let body =
    recv_body ?deadline rb fd ~body_start:(hdr_end + 4) ~need:content_length
      ~on_eof:(fun () -> raise (Bad_request "connection closed before body"))
  in
  (meth, target, headers, body)

(* every rejection the socket layer produces is the same structured
   envelope the routed endpoints answer with — chaos clients must never
   see a bare text error *)
let send_reject t fd status msg =
  let status, ctype, body = error_json status msg in
  try send_response fd status ctype [] body
  with Unix.Unix_error _ -> Metrics.incr t.sv_metrics "errors.io"

(* ---- long-poll parking lot ----------------------------------------- *)

(* Parking happens at the socket layer, not by blocking a handler: on a
   1-core host the pool has no worker domains at all and the accept-loop
   domain runs handlers inline, so a handler that slept for [wait]
   seconds would wedge the whole server. Instead the connection's fd
   moves into [sv_parked] (keeping its admission slot — parked pollers
   are real in-flight work the shed limit must see) and is woken by the
   {!Watch.on_change} listener, the accept loop's periodic sweep, or the
   drain on [stop]. Delivery re-enters [handle_request], so a parked
   poller and an immediate one produce byte-identical responses. *)

let park_cap t = max 1 (t.sv_limits.li_max_inflight / 2)

(* a parked long-poll client sends nothing more on the socket: any
   readability (EOF or stray bytes) means it is gone *)
let parked_disconnected fd =
  match Unix.select [ fd ] [] [] 0. with
  | exception Unix.Unix_error _ -> true
  | [], _, _ -> false
  | _ :: _, _, _ -> true

let finish_parked t (p : parked) =
  Admission.release t.sv_adm ~service_s:(Unix.gettimeofday () -. p.pk_admitted_at);
  try Unix.close p.pk_fd with Unix.Unix_error _ -> ()

let deliver_parked t (p : parked) =
  Fun.protect
    ~finally:(fun () -> finish_parked t p)
    (fun () ->
      let status, ctype, rheaders, rbody =
        handle_request t ?pressure:p.pk_pressure ~headers:p.pk_headers ~meth:"GET"
          ~target:p.pk_target ~body:""
      in
      Metrics.incr t.sv_metrics (if status = 200 then "watch.notify" else "watch.timeout");
      try send_response p.pk_fd status ctype rheaders rbody
      with Unix.Unix_error _ -> Metrics.incr t.sv_metrics "errors.io")

(* Wake every parked poller whose answer is ready: events past its
   cursor, its deadline passed, its subscription deleted, or ~force
   (drain — everyone leaves with a clean 204/200). The lot is detached
   under the mutex and survivors merged back, so concurrent sweepers
   (ingest listener vs accept loop) each own a disjoint set. *)
let sweep_parked ?(force = false) t =
  let now = Unix.gettimeofday () in
  Mutex.lock t.sv_park_mu;
  let all = !(t.sv_parked) in
  t.sv_parked := [];
  Mutex.unlock t.sv_park_mu;
  if all <> [] then begin
    let dead, live = List.partition (fun p -> parked_disconnected p.pk_fd) all in
    let ready, keep =
      List.partition
        (fun (p : parked) ->
          force || now >= p.pk_expiry
          || Watch.find_sub t.sv_watch p.pk_sub = None
          || Watch.events_after t.sv_watch ~sub:p.pk_sub ~since:p.pk_since <> [])
        live
    in
    Mutex.lock t.sv_park_mu;
    t.sv_parked := keep @ !(t.sv_parked);
    Mutex.unlock t.sv_park_mu;
    List.iter
      (fun p ->
        Metrics.incr t.sv_metrics "watch.disconnect";
        finish_parked t p)
      dead;
    List.iter (fun p -> deliver_parked t p) ready
  end

(* does this request ask to be parked? GET /v1/watch/<id>?wait=<s> *)
let park_candidate ~meth ~target =
  match parse_target target with
  | _, query, Some [ "watch"; id ] when meth = "GET" && id <> "ingest" -> (
      match Option.bind (List.assoc_opt "wait" query) float_of_string_opt with
      | Some w when w > 0. ->
          Some (id, since_of query, w)
      | _ -> None)
  | _ -> None

(* true = the fd now belongs to the lot (the caller must not close it);
   false = answer immediately. The immediate path covers every refusal:
   events already pending (200), unknown sub (404), lot full or draining
   (204 now — wait degrades to zero rather than erroring). *)
let try_park t ~fd ~pressure ~admitted_at ~sub ~since ~wait ~target ~headers =
  if Atomic.get t.sv_draining then false
  else if Watch.find_sub t.sv_watch sub = None then false
  else if Watch.events_after t.sv_watch ~sub ~since <> [] then false
  else if parked_count t >= park_cap t then begin
    Metrics.incr t.sv_metrics "watch.park_reject";
    false
  end
  else begin
    (* the park deadline is bounded by the same per-request budget every
       handler gets *)
    let wait = Float.min wait t.sv_limits.li_handle_deadline_s in
    let p =
      {
        pk_fd = fd;
        pk_sub = sub;
        pk_since = since;
        pk_target = target;
        pk_headers = headers;
        pk_pressure = pressure;
        pk_admitted_at = admitted_at;
        pk_expiry = Unix.gettimeofday () +. wait;
      }
    in
    Mutex.lock t.sv_park_mu;
    t.sv_parked := p :: !(t.sv_parked);
    Mutex.unlock t.sv_park_mu;
    Metrics.incr t.sv_metrics "watch.parked";
    (* race guard: an ingest (or stop) between the emptiness check and
       the insert would have swept before we were in the lot *)
    if
      Atomic.get t.sv_draining
      || Watch.events_after t.sv_watch ~sub ~since <> []
    then sweep_parked t;
    true
  end

let handle_conn t ?pressure ~admitted_at fd =
  let li = t.sv_limits in
  (* the read deadline starts at worker pickup (the client is not
     penalised for our queue), but the EWMA behind Retry-After measures
     the full slot hold since admission — pool queue wait included, which
     dominates exactly when the estimate matters *)
  let t0 = Unix.gettimeofday () in
  (* set when the fd is handed to the parking lot: slot release and
     close then belong to the sweeper, not to this worker *)
  let parked = ref false in
  Fun.protect
    ~finally:(fun () ->
      (* the admission slot is given back on every path — including
         rejections, timeouts and handler exceptions — and the fd is
         closed exactly once *)
      if not !parked then begin
        Admission.release t.sv_adm ~service_s:(Unix.gettimeofday () -. admitted_at);
        try Unix.close fd with Unix.Unix_error _ -> ()
      end)
    (fun () ->
      (* a stuck or byte-dribbling client must not pin a pool worker:
         per-read timeouts at the socket, a whole-receive deadline above
         them, and a bounded send *)
      (try Unix.setsockopt_float fd Unix.SO_RCVTIMEO li.li_read_timeout_s
       with Unix.Unix_error _ | Invalid_argument _ -> ());
      (try Unix.setsockopt_float fd Unix.SO_SNDTIMEO li.li_write_timeout_s
       with Unix.Unix_error _ | Invalid_argument _ -> ());
      match recv_request ~deadline:(t0 +. li.li_read_timeout_s) fd with
      | exception Timed_out m ->
          Metrics.incr t.sv_metrics "errors.timeout";
          Trace.span ~name:"serve.timeout" ~attrs:[ ("pressure", "read"); ("error", m) ]
            (fun () -> ());
          send_reject t fd 408 m
      | exception Too_large (status, m) ->
          Metrics.incr t.sv_metrics "errors.protocol";
          send_reject t fd status m
      | exception Bad_request m ->
          Metrics.incr t.sv_metrics "errors.protocol";
          send_reject t fd 400 ("bad request: " ^ m)
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.ETIMEDOUT), _, _) ->
          (* SO_RCVTIMEO fired with nothing mid-flight to classify *)
          Metrics.incr t.sv_metrics "errors.timeout";
          Trace.span ~name:"serve.timeout"
            ~attrs:[ ("pressure", "read"); ("error", "socket read timed out") ]
            (fun () -> ());
          send_reject t fd 408 "timed out reading request"
      | exception Unix.Unix_error _ -> Metrics.incr t.sv_metrics "errors.io"
      | meth, target, headers, body -> (
          (match park_candidate ~meth ~target with
          | Some (sub, since, wait) when String.length body = 0 ->
              parked :=
                try_park t ~fd ~pressure ~admitted_at ~sub ~since ~wait ~target ~headers
          | _ -> ());
          if not !parked then
            let status, ctype, rheaders, rbody =
              handle_request t ?pressure ~headers ~meth ~target ~body
            in
            try send_response fd status ctype rheaders rbody
            with Unix.Unix_error _ -> Metrics.incr t.sv_metrics "errors.io"))

type addr = Unix_sock of string | Tcp of string * int

type handle = {
  h_sock : Unix.file_descr;
  h_addr : addr;
  h_stop : bool Atomic.t;
  mutable h_loop : unit Domain.t option;
  h_path : string option;
  h_serve : t;  (** for the drain on [stop]: admission depth + pool *)
}

(* One admitted connection: log pressure transitions, count the
   degraded band, hand the handler (tagged with its pressure) to the
   pool. One shed connection: answer 503 + Retry-After inline — the
   write is small and bounded by SO_SNDTIMEO, so the accept loop is
   never parked on a slow victim. *)
let place_conn t fd =
  match Admission.admit t.sv_adm with
  | Admission.Shed ra ->
      Metrics.incr t.sv_metrics "overload.shed";
      Trace.span ~name:"serve.shed"
        ~attrs:[ ("pressure", "fatal"); ("retry_after_s", string_of_int ra) ]
        (fun () ->
          (try Unix.setsockopt_float fd Unix.SO_SNDTIMEO 1.
           with Unix.Unix_error _ | Invalid_argument _ -> ());
          let status, ctype, body =
            error_json 503
              (Printf.sprintf "overloaded: %d connections in flight (limit %d)"
                 (Admission.inflight t.sv_adm) (Admission.limit t.sv_adm))
          in
          (try send_response fd status ctype [ ("Retry-After", string_of_int ra) ] body
           with Unix.Unix_error _ -> ());
          try Unix.close fd with Unix.Unix_error _ -> ())
  | Admission.Admit (sev, transition) ->
      let admitted_at = Unix.gettimeofday () in
      Metrics.incr t.sv_metrics "admission.admitted";
      (match sev with
      | Some Diag.Degraded -> Metrics.incr t.sv_metrics "overload.degraded"
      | Some Diag.Warning -> Metrics.incr t.sv_metrics "overload.warning"
      | _ -> ());
      if transition then
        Logs.warn (fun m ->
            m "serve: admission pressure %s (%d/%d in flight)"
              (match sev with Some s -> Diag.severity_to_string s | None -> "clear")
              (Admission.inflight t.sv_adm) (Admission.limit t.sv_adm));
      let pressure = match sev with Some Diag.Degraded -> Some Diag.Degraded | _ -> None in
      (try ignore (Par.submit t.sv_pool (fun () -> handle_conn t ?pressure ~admitted_at fd))
       with Invalid_argument _ ->
         (* pool shut down under us (stop race): give the slot back and
            close the fd instead of leaking both and killing the accept
            domain *)
         Admission.release t.sv_adm ~service_s:(Unix.gettimeofday () -. admitted_at);
         (try Unix.close fd with Unix.Unix_error _ -> ()))

(* drain the listen backlog in one burst (the listener is non-blocking):
   admission sees the true pending depth instead of one connection per
   select round, which is what makes shedding engage under a stampede *)
let rec accept_burst t h budget =
  if budget > 0 then
    match Unix.accept h.h_sock with
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> ()
    | exception Unix.Unix_error _ -> ()
    | fd, _ ->
        place_conn t fd;
        accept_burst t h (budget - 1)

let rec accept_loop t h =
  if not (Atomic.get h.h_stop) then begin
    (* The accept loop runs on its own domain, outside the pool's
       execution budget (it spends its life blocked in [select], which
       releases the runtime lock, so it costs the GC nothing). Draining
       here keeps the server live on any host: spare pool workers race
       us for the queued connection handlers, and when there are none
       (e.g. a 1-core host spawns no workers at all) we handle the
       connections ourselves between selects. *)
    while Par.drain_one t.sv_pool do () done;
    (* wake parked long-pollers whose deadline passed or whose client
       hung up — the on_change listener covers the fast (event) path *)
    sweep_parked t;
    (* select with a short timeout so [stop] is honoured promptly even
       with no incoming connections *)
    match Unix.select [ h.h_sock ] [] [] 0.05 with
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> accept_loop t h
    | [], _, _ -> accept_loop t h
    | _ :: _, _, _ ->
        accept_burst t h 128;
        accept_loop t h
  end

let start t addr =
  (* the accept loop runs on its own domain, not on a pool worker; the
     floor is for the handlers: a serving pool sized for a single task
     has no headroom for the connections it queues *)
  if Par.jobs t.sv_pool < 2 then
    invalid_arg "Serve.start: the pool needs at least 2 workers (one runs the accept loop)";
  let domain, sockaddr, path =
    match addr with
    | Unix_sock p -> (Unix.PF_UNIX, Unix.ADDR_UNIX p, Some p)
    | Tcp (host, port) ->
        (Unix.PF_INET, Unix.ADDR_INET (Unix.inet_addr_of_string host, port), None)
  in
  let sock = Unix.socket domain Unix.SOCK_STREAM 0 in
  (match addr with
  | Tcp _ -> Unix.setsockopt sock Unix.SO_REUSEADDR true
  | Unix_sock p -> if Sys.file_exists p then try Unix.unlink p with Unix.Unix_error _ -> ());
  (try
     Unix.bind sock sockaddr;
     Unix.listen sock 64
   with e ->
     (try Unix.close sock with Unix.Unix_error _ -> ());
     raise e);
  let bound =
    match addr with
    | Tcp (host, _) -> (
        match Unix.getsockname sock with
        | Unix.ADDR_INET (_, port) -> Tcp (host, port)
        | _ -> addr)
    | a -> a
  in
  (* non-blocking listener: the accept loop drains the backlog in
     bursts after each select instead of one connection per round *)
  Unix.set_nonblock sock;
  let h =
    {
      h_sock = sock;
      h_addr = bound;
      h_stop = Atomic.make false;
      h_loop = None;
      h_path = path;
      h_serve = t;
    }
  in
  Atomic.set t.sv_draining false;
  (* one listener per serve handle, however many start/stop cycles it
     sees: ingests wake parked pollers directly, which is what holds
     notification latency to sub-milliseconds *)
  if Atomic.compare_and_set t.sv_notify false true then
    Watch.on_change t.sv_watch (fun () -> sweep_parked t);
  h.h_loop <- Some (Domain.spawn (fun () -> accept_loop t h));
  h

let bound_addr h = h.h_addr

(* Graceful drain, in strict order: (1) stop accepting — the loop
   domain exits, so nothing new is admitted; (2) finish every admitted
   connection within the drain deadline, running queued handlers
   ourselves so even a workerless 1-core pool completes them; (3) close
   the listener last and unlink the socket path. A connection the
   server accepted is therefore always answered, which is the
   zero-dropped-connections contract the tests assert. *)
let stop h =
  if not (Atomic.get h.h_stop) then begin
    let t = h.h_serve in
    Atomic.set h.h_stop true;
    (match h.h_loop with
    | Some d -> ( try Domain.join d with _ -> ())
    | None -> ());
    (* flush the parking lot before the drain loop: parked pollers hold
       admission slots, and the drain contract says every admitted
       connection is answered — they leave with a clean 204 (or a 200 if
       events raced in) *)
    Atomic.set t.sv_draining true;
    sweep_parked ~force:true t;
    let pending = Admission.inflight t.sv_adm in
    Trace.span ~name:"serve.drain"
      ~attrs:[ ("pressure", "drain"); ("inflight", string_of_int pending) ]
      (fun () ->
        let deadline = Unix.gettimeofday () +. t.sv_limits.li_drain_deadline_s in
        let rec drain () =
          if Admission.inflight t.sv_adm > 0 && Unix.gettimeofday () < deadline then begin
            if not (Par.drain_one t.sv_pool) then Unix.sleepf 0.002;
            drain ()
          end
        in
        drain ();
        let left = Admission.inflight t.sv_adm in
        if left > 0 then begin
          Metrics.incr t.sv_metrics ~by:left "drain.abandoned";
          Logs.warn (fun m ->
              m "serve: drain deadline passed with %d connections still in flight" left)
        end);
    (try Unix.close h.h_sock with Unix.Unix_error _ -> ());
    match h.h_path with
    | Some p -> ( try Unix.unlink p with Unix.Unix_error _ | Sys_error _ -> ())
    | None -> ()
  end

(* ---- client -------------------------------------------------------- *)

module Client = struct
  let request_full ?body ?(headers = []) ?(timeout_s = 30.) addr ~meth ~path =
    let domain, sockaddr =
      match addr with
      | Unix_sock p -> (Unix.PF_UNIX, Unix.ADDR_UNIX p)
      | Tcp (host, port) -> (Unix.PF_INET, Unix.ADDR_INET (Unix.inet_addr_of_string host, port))
    in
    let fd = Unix.socket domain Unix.SOCK_STREAM 0 in
    Fun.protect
      ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
      (fun () ->
        Unix.connect fd sockaddr;
        (* a wedged or trickling server must not park the client forever *)
        (try
           Unix.setsockopt_float fd Unix.SO_RCVTIMEO timeout_s;
           Unix.setsockopt_float fd Unix.SO_SNDTIMEO timeout_s
         with Unix.Unix_error _ | Invalid_argument _ -> ());
        let payload = Option.value ~default:"" body in
        let req = Buffer.create 256 in
        Buffer.add_string req
          (Printf.sprintf "%s %s HTTP/1.1\r\nHost: depsurf\r\n" meth path);
        List.iter
          (fun (k, v) -> Buffer.add_string req (Printf.sprintf "%s: %s\r\n" k v))
          headers;
        if payload <> "" then
          Buffer.add_string req (Printf.sprintf "Content-Length: %d\r\n" (String.length payload));
        Buffer.add_string req "Connection: close\r\n\r\n";
        Buffer.add_string req payload;
        let req = Buffer.contents req in
        (* a shedding server answers 503 and closes without reading the
           request, so a refused write can still leave an answer queued:
           read it, and re-raise the write error only if there is none *)
        let write_error = ref None in
        (try write_all fd req 0 (String.length req)
         with Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET), _, _) as e ->
           write_error := Some e);
        (* parse the head region only — never split or copy the body
           along the way, and read it in 64 KiB chunks (the old client
           buffered 4 KiB at a time and then split the entire multi-MB
           response on '\n' to find the status line) *)
        let rb = recv_create 65536 in
        let on_eof () =
          match !write_error with
          | Some e -> raise e
          | None -> failwith "malformed HTTP response (no header terminator)"
        in
        let hdr_end =
          recv_head rb fd ~on_eof ~too_large:(fun () -> failwith "response headers too large")
        in
        let status_line, resp_headers = parse_head (Bytes.sub_string rb.rb_data 0 hdr_end) in
        let status =
          let bad () = failwith "malformed HTTP status line" in
          match Slice.index_opt status_line ' ' with
          | None -> bad ()
          | Some i -> (
              let rest =
                Slice.sub status_line ~pos:(i + 1) ~len:(Slice.length status_line - i - 1)
              in
              let code =
                match Slice.index_opt rest ' ' with
                | None -> rest
                | Some j -> Slice.sub rest ~pos:0 ~len:j
              in
              match int_of_string_opt (Slice.to_string code) with
              | Some c -> c
              | None -> bad ())
        in
        let body_start = hdr_end + 4 in
        let rbody =
          match
            Option.bind (List.assoc_opt "content-length" resp_headers) int_of_string_opt
          with
          | Some need when need >= 0 ->
              recv_body rb fd ~body_start ~need ~on_eof:(fun () ->
                  failwith "connection closed before response body")
          | _ ->
              (* no Content-Length: drain to EOF — but bounded. The old
                 loop read forever against a trickling peer; cap the
                 bytes at the server's own body limit and the time at
                 [timeout_s]. *)
              let deadline = Unix.gettimeofday () +. timeout_s in
              let rec drain () =
                if rb.rb_len - body_start > max_body_bytes then
                  failwith "response body exceeds 16MiB with no Content-Length";
                if Unix.gettimeofday () > deadline then
                  failwith "timed out draining response body";
                match recv_read rb fd ~on_eof:(fun () -> raise Exit) with
                | () -> drain ()
                | exception Exit -> ()
              in
              drain ();
              Bytes.sub_string rb.rb_data body_start (rb.rb_len - body_start)
        in
        (status, resp_headers, rbody))

  let request ?body ?headers ?timeout_s addr ~meth ~path =
    let status, _, body = request_full ?body ?headers ?timeout_s addr ~meth ~path in
    (status, body)

  (* Capped exponential backoff with deterministic jitter, honouring a
     server-provided Retry-After. Only idempotent GETs are retried:
     anything else may have been applied by a server that died before
     answering, and replaying it is not the client's call to make. *)
  let retryable_error = function
    | Unix.ECONNREFUSED | Unix.ECONNRESET | Unix.EPIPE | Unix.ENOENT | Unix.EAGAIN
    | Unix.EWOULDBLOCK | Unix.ETIMEDOUT ->
        true
    | _ -> false

  let backoff_delay ~prng ~base_ms ~cap_ms ~retry_after attempt =
    (* the cap bounds only our own exponential growth; a server-provided
       Retry-After is an explicit ask and is honoured in full — clamping
       it would send the herd back early during shedding *)
    let exp = Float.min cap_ms (base_ms *. (2. ** float_of_int attempt)) in
    let chosen =
      match retry_after with
      | Some ra_s -> Float.max (ra_s *. 1000.) exp
      | None -> exp
    in
    (* full jitter on the top half: [0.5c, 1.0c] spreads a thundering
       herd without ever retrying before half the intended delay *)
    chosen *. (0.5 +. Ds_util.Prng.float prng 0.5) /. 1000.

  let request_retry ?(headers = []) ?timeout_s ?(retries = 3) ?(base_ms = 50.)
      ?(cap_ms = 2000.) ?(seed = 0L) addr ~meth ~path =
    let prng = Ds_util.Prng.create seed in
    let attempt_once () = request_full ~headers ?timeout_s addr ~meth ~path in
    let rec go attempt =
      let retry ~retry_after =
        Unix.sleepf (backoff_delay ~prng ~base_ms ~cap_ms ~retry_after attempt);
        go (attempt + 1)
      in
      match attempt_once () with
      | (status, rheaders, _) as resp ->
          if status = 503 && meth = "GET" && attempt < retries then
            let retry_after =
              Option.bind (List.assoc_opt "retry-after" rheaders) float_of_string_opt
            in
            retry ~retry_after
          else resp
      | exception Unix.Unix_error (e, _, _) when meth = "GET" && attempt < retries && retryable_error e ->
          retry ~retry_after:None
    in
    go 0
end
