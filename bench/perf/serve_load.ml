(* The serve workloads: a real `depsurf serve --jobs 2` child over a Unix
   socket, driven by this process with at most 2 client threads, each
   holding at most one connection at a time (the protocol closes every
   connection after one answer). Warm-ups use two threads; the timed
   closed loops one.

   - serve-lookup: a one-client closed loop of small point queries over a
     key space far larger than the response cache;
   - serve-bulk: a one-client closed loop over 41 multi-MB documents
     whose working set exceeds the response cache, half of them
     conditional GETs;
   - serve-watch: sequential release ingests against 50 subscriptions,
     each matching a tenth of the ingests, and a follower matching every
     one through a parked long-poll.

   The request mixes are assumptions, not measured traffic; README.md
   says what each share stands for. *)

open Depsurf
open Ds_ksrc
open Ds_util
open Harness
module Serve = Ds_serve.Serve
module Client = Serve.Client
module Store = Ds_store.Store
module Corpus = Ds_corpus.Corpus
module Blast = Ds_graph.Blast

(* ---- the server child ---------------------------------------------- *)

type server = { sv_pid : int; sv_addr : Serve.addr }

(* children still running; killed if the workload dies half-way *)
let live : int list ref = ref []

let reap pid =
  let deadline = now () +. 15. in
  let rec wait () =
    match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ when now () < deadline ->
        Unix.sleepf 0.01;
        wait ()
    | 0, _ ->
        (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
        ignore (Unix.waitpid [] pid)
    | _ -> ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait ()
  in
  (try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ());
  (try wait () with Unix.Unix_error _ -> ());
  live := List.filter (( <> ) pid) !live

let () = at_exit (fun () -> List.iter reap !live)

let get ?headers addr path = Client.request_full ?headers addr ~meth:"GET" ~path
let post addr path body = Client.request_full ~body addr ~meth:"POST" ~path

let spawn ~dir =
  let sock = Filename.concat dir "depsurf.sock" in
  let log =
    Unix.openfile (Filename.concat dir "serve.log")
      [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND ] 0o644
  in
  let cli = cli_exe () in
  (* the server keeps its default trace ring, whatever this process uses *)
  let env =
    Array.of_list
      (List.filter
         (fun kv -> not (String.starts_with ~prefix:"DEPSURF_TRACE_CAP=" kv))
         (Array.to_list (Unix.environment ())))
  in
  let pid =
    Fun.protect ~finally:(fun () -> Unix.close log) (fun () ->
        Unix.create_process_env cli
          [|
            cli; "serve"; "--scale"; scale_label; "--jobs"; string_of_int jobs; "--cache-dir";
            Filename.concat dir "store"; "--socket"; sock;
          |]
          env Unix.stdin log log)
  in
  live := pid :: !live;
  let sv = { sv_pid = pid; sv_addr = Serve.Unix_sock sock } in
  let deadline = now () +. 60. in
  let rec healthy () =
    if now () > deadline then failwith "depsurf serve did not become healthy within 60s";
    (match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ -> ()
    | _ -> failwith "depsurf serve exited during start-up");
    match get sv.sv_addr "/v1/healthz" with
    | 200, _, _ -> ()
    | _ | (exception (Unix.Unix_error _ | Failure _)) ->
        Unix.sleepf 0.005;
        healthy ()
  in
  healthy ();
  sv

(* stop a server, returning its memory high-water mark *)
let stop sv =
  let rss = peak_rss_mb (string_of_int sv.sv_pid) in
  reap sv.sv_pid;
  rss

(* A cold start over an empty store, which fills it (cold_start_s; a
   later run of the same build links the kept store instead), [ready ()],
   then [restarts] starts over the filled store, each after a probe
   reading. Each start is timed from spawn to healthy + [warmup]. The
   last server stays up for the timed phase; the restart times are for
   add_setup. *)
let start_servers ?(restarts = 3) ?(ready = ignore) ~name ~dir ~warmup out =
  let start () =
    ignore (probe ());
    time (fun () ->
        let sv = spawn ~dir in
        warmup sv;
        sv)
  in
  ignore
    (kept_store name ~store:(Filename.concat dir "store") (fun () ->
         let sv, cold = start () in
         add out "cold_start_s" "s" cold;
         ignore (stop sv);
         ""));
  ready ();
  let rec go k acc =
    let sv, dt = start () in
    if k = 1 then (sv, dt :: acc)
    else begin
      ignore (stop sv);
      go (k - 1) (dt :: acc)
    end
  in
  go restarts []

let metrics_of addr =
  match get addr "/v1/metrics" with
  | 200, _, body -> Api.data (Json.of_string body)
  | st, _, _ -> failwith (Printf.sprintf "GET /v1/metrics -> %d" st)

(* ---- the timed closed loop ------------------------------------------- *)

type sample = {
  s_class : string;
  s_t0 : float;
  s_t1 : float;
  s_ok : bool;
  s_trace : int;  (** the server's serve.request span id, 0 when unknown *)
}

(* every response names its serve.request span in x-depsurf-trace *)
let trace_id (_, hdrs, _) =
  Option.value ~default:0 (Option.bind (List.assoc_opt "x-depsurf-trace" hdrs) int_of_string_opt)

(* a response's verdict, with the id that pairs it with its server span *)
let judged check resp = (check resp, trace_id resp)
let status_is st = judged (fun (st', _, _) -> st' = st)

(* [f 0] .. [f (n - 1)] on systhreads of this domain: warm-up clients
   spend their time blocked in socket calls, which release the runtime
   lock, so two threads keep two connections busy without a second
   domain's stop-the-world minor collections competing with the server
   for the host's two cores. Re-raises the first failure. *)
let threads n f =
  let results = Array.make n None in
  List.init n (fun c ->
      Thread.create (fun () -> results.(c) <- Some (try Ok (f c) with e -> Error e)) ())
  |> List.iter Thread.join;
  Array.to_list results
  |> List.map (function Some (Ok r) -> r | Some (Error e) -> raise e | None -> assert false)

(* One client drawing its next request from a seeded generator and
   sending it only after the previous one was answered, for [seconds],
   with a probe reading every [probe_every] seconds in between, while the
   server is idle. One client, not two: two clients and the server's two
   workers oversubscribe the two cores, and the run-to-run spread of a
   two-client loop was twice a one-client loop's. *)
let probe_every = 0.2

let closed_loop ~seconds next =
  let deadline = now () +. seconds in
  let rec go acc due =
    let t = now () in
    if t >= deadline then acc
    else if t >= due then begin
      ignore (probe ());
      go acc (now () +. probe_every)
    end
    else
      let cls, req = next () in
      let t0 = now () in
      let ok, trace = try req () with Unix.Unix_error _ | Failure _ -> (false, 0) in
      go ({ s_class = cls; s_t0 = t0; s_t1 = now (); s_ok = ok; s_trace = trace } :: acc) due
  in
  go [] 0.

let ms s = (s.s_t1 -. s.s_t0) *. 1000.

(* the seconds the client spent waiting for answers, probe readings
   left out *)
let busy samples = List.fold_left (fun acc s -> acc +. s.s_t1 -. s.s_t0) 0. samples

(* warm-ups send from [clients] threads, so a cold server fills its tiers
   two requests at a time *)
let par_iter f xs =
  let a = Array.of_list xs in
  ignore (threads clients (fun c -> Array.iteri (fun i x -> if i mod clients = c then f x) a))

(* op_ms (the mix's per-class medians weighted by share, at the reference
   host speed of the run), the same as timed (op_raw_ms), the pooled
   median and the tails the sample supports; ops_per_s counts the correct
   ops per second of [wall] *)
let add_latencies out ~wall ~tails ?(prefix = "req") ops =
  let lat = List.map ms ops in
  let n = List.length ops in
  let ok = List.length (List.filter (fun s -> s.s_ok) ops) in
  let op = mix_median (List.map (fun s -> (s.s_class, ms s)) ops) in
  add out ~samples:n "op_ms" "ms" (at_ref op);
  add out ~samples:n "op_raw_ms" "ms" op;
  add out ~samples:n "ops_per_s" "1/s" (float_of_int ok /. wall);
  add out ~samples:n (prefix ^ "_p50_ms") "ms" (median lat);
  List.iter
    (fun (p, label) ->
      match tail p lat with
      | Some v -> add out ~samples:n (Printf.sprintf "%s_%s_ms" prefix label) "ms" v
      | None -> ())
    tails

let add_classes out samples =
  List.iter
    (fun c ->
      let xs = List.filter_map (fun s -> if s.s_class = c then Some (ms s) else None) samples in
      let n = List.length xs in
      add out ~samples:n ("class." ^ c ^ ".p50_ms") "ms" (median xs);
      add out ("class." ^ c ^ ".count") "count" (float_of_int n))
    (List.sort_uniq compare (List.map (fun s -> s.s_class) samples))

(* ---- per-layer figures from the server --------------------------------- *)

let ratio a b = if b = 0 then 0. else float_of_int a /. float_of_int b

(* /v1/metrics deltas over the timed phase *)
let add_server_counters out m0 m1 =
  let d path = jint m1 path - jint m0 path in
  let c name = d [ "counters"; name ] in
  let mb n = float_of_int n /. 1048576. in
  add out "store.hits" "count" (float_of_int (d [ "store"; "hits" ]));
  add out "store.misses" "count" (float_of_int (d [ "store"; "misses" ]));
  add out "store.writes" "count" (float_of_int (d [ "store"; "writes" ]));
  add out "store.read_mb" "MB" (mb (d [ "store"; "bytes_read" ]));
  add out "store.written_mb" "MB" (mb (d [ "store"; "bytes_written" ]));
  add out "kcc.compiles" "count" (float_of_int (d [ "compiles" ]));
  add out "serve.computes.graph" "count" (float_of_int (c "compute.graph"));
  add out "serve.index.verifies" "count" (float_of_int (jint m1 [ "index"; "verifies" ]));
  let hits = c "cache.hit" and misses = c "cache.miss" in
  add out "respcache.hit_ratio" "fraction" (ratio hits (hits + misses));
  add out "respcache.evictions_per_req" "1/req" (ratio (c "cache.evict") (c "requests_total"));
  add out "respcache.notmod" "count" (float_of_int (c "cache.notmod"));
  let fills =
    match Json.member "counters" m1 with
    | Some (Json.Obj kvs) ->
        List.fold_left
          (fun acc (k, _) ->
            if String.starts_with ~prefix:"index.fill." k then acc + c k else acc)
          0 kvs
    | _ -> 0
  in
  add out "serve.index_fills" "count" (float_of_int fills);
  add out "serve.shed" "count" (float_of_int (c "overload.shed"))

(* The server's own spans for the timed phase: GET /v1/trace/recent,
   turned back into Trace.spans and cut to [t0, t1]. The ring keeps the
   newest spans, so on a long phase this is its last part. The client
   samples whose serve.request span is in that window pair up by trace
   id: serve.outside_ms is their mean latency minus the mean span
   duration (accept, admission, socket I/O and the client), and
   trace.unattributed_pct the share of those spans' time that no child
   span explains. *)
let add_server_trace out addr ~t0 ~t1 samples =
  match get addr "/v1/trace/recent?limit=16384" with
  | 200, _, body ->
      let sps =
        match Json.member "spans" (Api.data (Json.of_string body)) with
        | Some (Json.List l) ->
            List.map span_of_json l
            |> List.filter (fun sp -> sp.Trace.sp_start >= t0 && sp.Trace.sp_stop <= t1)
        | _ -> []
      in
      add_span_self out sps;
      print_string (Trace.top_table sps);
      let by_id = Hashtbl.create 4096 in
      List.iter (fun sp -> Hashtbl.replace by_id sp.Trace.sp_id sp) sps;
      let pairs =
        List.filter_map
          (fun s -> Option.map (fun sp -> (s, sp)) (Hashtbl.find_opt by_id s.s_trace))
          samples
      in
      if pairs <> [] then begin
        let span_ms sp = float_of_int (Trace.dur_us sp) /. 1000. in
        add out ~samples:(List.length pairs) "serve.outside_ms" "ms"
          (Stats.mean (List.map (fun (s, sp) -> ms s -. span_ms sp) pairs));
        let self = Trace.self_us_by_id sps in
        let sum f = List.fold_left (fun acc (_, sp) -> acc + f sp) 0 pairs in
        add out ~samples:(List.length pairs) "trace.unattributed_pct" "%"
          (100.
          *. ratio
               (sum (fun sp -> Option.value ~default:0 (Hashtbl.find_opt self sp.Trace.sp_id)))
               (sum Trace.dur_us))
      end
  | st, _, _ -> failwith (Printf.sprintf "GET /v1/trace/recent -> %d" st)

(* ---- shared inputs ------------------------------------------------------ *)

(* The harness reads the same store the server populated, with the
   history seed the server uses, so its own surfaces predict the
   server's answers. *)
let harness_dataset dir =
  Pipeline.dataset ~store:(Store.open_ ~dir:(Filename.concat dir "store") ()) scale

let v54 = (Version.v 5 4, Config.x86_generic)
let img_name = Serve.image_name

(* path-safe spelling of a construct name *)
let enc s =
  let b = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' | '_' | '.' | '-' | ':' -> Buffer.add_char b c
      | c -> Buffer.add_string b (Printf.sprintf "%%%02X" (Char.code c)))
    s;
  Buffer.contents b

let funcs s = Array.of_list (List.map (fun f -> f.Surface.fe_name) s.Surface.s_funcs)

(* ---- serve-lookup ------------------------------------------------------- *)

let constructs s =
  List.map (fun f -> ("func", f.Surface.fe_name)) s.Surface.s_funcs
  @ List.map (fun d -> ("struct", d.Ds_ctypes.Decl.sname)) s.Surface.s_structs
  @ List.map (fun t -> ("tracepoint", t.Surface.te_name)) s.Surface.s_tracepoints
  @ List.map (fun n -> ("syscall", n)) s.Surface.s_syscalls

let has s (kind, name) =
  match kind with
  | "func" -> Surface.find_func s name <> None
  | "struct" -> Surface.find_struct s name <> None
  | "tracepoint" -> Surface.find_tracepoint s name <> None
  | _ -> Surface.has_syscall s name

let lookup ~seed ~seconds ~trace =
  let wd = work_dir "serve-lookup" in
  Fun.protect ~finally:(fun () -> remove_work_dir wd) @@ fun () ->
  let out = sink () in
  let hds = lazy (harness_dataset wd) in
  let objs =
    lazy (List.map (fun (_, o) -> Ds_bpf.Obj.write o) (Corpus.build_all (Lazy.force hds) ()))
  in
  let releases = List.tl Version.all in
  let expect st (st', _, _) =
    if st' <> st then failwith (Printf.sprintf "warm-up: %d, not %d" st' st)
  in
  (* hydrate every surface, graph, blast input and mismatch report the
     mix touches, so the timed phase measures the steady state *)
  let warmup sv =
    let a = sv.sv_addr in
    par_iter
      (fun img -> expect 404 (get a ("/v1/surface/" ^ img_name img ^ "?kind=func&name=-")))
      Dataset.study_images;
    expect 200 (get a "/v1/graph/deps/func:-");
    par_iter
      (fun v ->
        expect 200
          (get a
             (Printf.sprintf "/v1/graph/blast/func:-?release=%d.%d" v.Version.major
                v.Version.minor)))
      releases;
    par_iter (fun o -> expect 200 (post a "/v1/mismatch" o)) (Lazy.force objs);
    expect 200 (post a "/v1/verify" (List.hd (Lazy.force objs)))
  in
  let sv, setups =
    start_servers ~name:"serve-lookup" ~ready:(fun () -> ignore (Lazy.force objs)) ~dir:wd
      ~warmup out
  in
  let ds = Lazy.force hds in
  let objs = Array.of_list (Lazy.force objs) in
  let images =
    Array.of_list
      (List.map
         (fun (v, cfg) -> (img_name (v, cfg), Dataset.surface ds v cfg))
         Dataset.study_images)
  in
  let union =
    let tbl = Hashtbl.create 8192 in
    Array.iter (fun (_, s) -> List.iter (fun k -> Hashtbl.replace tbl k ()) (constructs s)) images;
    let a = Array.of_list (Hashtbl.fold (fun k () acc -> k :: acc) tbl []) in
    Array.sort compare a;
    a
  in
  let s54 = Dataset.surface ds (fst v54) (snd v54) in
  let nodes =
    Array.of_list
      (List.map (fun f -> "func:" ^ f.Surface.fe_name) s54.Surface.s_funcs
      @ List.map (fun d -> "struct:" ^ d.Ds_ctypes.Decl.sname) s54.Surface.s_structs)
  in
  let f54 = funcs s54 in
  let offsets =
    let prng = Prng.split (Prng.create seed) "mutants" in
    Array.map (fun o -> Prng.int prng (String.length o)) objs
  in
  let addr = sv.sv_addr in
  (* the assumed mix in exact proportions: every 20 requests are 11
     construct lookups, 4 graph queries, 1 blast, 2 mismatch and 2 verify
     posts, in a seeded shuffled order *)
  let hand =
    Array.concat
      [
        Array.make 11 `Construct; Array.make 4 `Graph; [| `Blast |]; Array.make 2 `Mismatch;
        Array.make 2 `Verify;
      ]
  in
  let next =
    let prng = Prng.split (Prng.create seed) "client" in
    let dealt = ref (Array.length hand) in
    let verifies = ref 0 in
    fun () ->
      if !dealt = Array.length hand then begin
        Prng.shuffle prng hand;
        dealt := 0
      end;
      incr dealt;
      match hand.(!dealt - 1) with
      | `Construct ->
          let img, s = Prng.pick prng images in
          let ((kind, name) as k) = Prng.pick prng union in
          let st = if has s k then 200 else 404 in
          ( "construct",
            fun () ->
              status_is st
                (get addr (Printf.sprintf "/v1/surface/%s?kind=%s&name=%s" img kind (enc name))) )
      | `Graph ->
          let node = Prng.pick prng nodes in
          let dir = if Prng.bool prng 0.5 then "deps" else "rdeps" in
          let tr = if Prng.bool prng 0.5 then "?transitive=1" else "" in
          ( "graph",
            fun () ->
              status_is 200 (get addr (Printf.sprintf "/v1/graph/%s/%s%s" dir (enc node) tr))
          )
      | `Blast ->
          let f = Prng.pick prng f54 in
          let v = Prng.pick_list prng releases in
          ( "blast",
            fun () ->
              status_is 200
                (get addr
                   (Printf.sprintf "/v1/graph/blast/func:%s?release=%d.%d" (enc f) v.Version.major
                      v.Version.minor)) )
      | `Mismatch ->
          let o = Prng.pick prng objs in
          ("mismatch", fun () -> status_is 200 (post addr "/v1/mismatch" o))
      | `Verify ->
          (* a distinct single-bit mutant per verify post: object k mod
             53, then its j-th bit position, strided (7919 is prime)
             from a seeded start across the whole object *)
          let k = !verifies in
          incr verifies;
          let i = k mod Array.length objs in
          let o = objs.(i) in
          let j = k / Array.length objs in
          let byte = (offsets.(i) + (j / 8 * 7919)) mod String.length o in
          let body = Ds_faultgen.Faultgen.flip_bit o ~byte ~bit:(j mod 8) in
          ("verify", fun () -> status_is 200 (post addr "/v1/verify" body))
  in
  let m0 = metrics_of addr in
  let t0 = now () in
  let samples = closed_loop ~seconds next in
  let t1 = now () in
  let m1 = metrics_of addr in
  add_setup out setups;
  add_latencies out ~wall:(busy samples) ~tails:[ (0.99, "p99"); (0.95, "p95") ] samples;
  add_classes out samples;
  add_server_counters out m0 m1;
  if trace then add_server_trace out addr ~t0 ~t1 samples;
  add out "peak_rss_mb" "MB" (stop sv);
  {
    r_workload = "serve-lookup";
    r_attempted = List.length samples;
    r_failed = List.length (List.filter (fun s -> not s.s_ok) samples);
    r_metrics = metrics out;
  }

(* ---- serve-bulk ---------------------------------------------------------- *)

let bulk ~seed ~seconds ~trace =
  let wd = work_dir "serve-bulk" in
  Fun.protect ~finally:(fun () -> remove_work_dir wd) @@ fun () ->
  let out = sink () in
  let x86 = List.map (fun v -> img_name (v, Config.x86_generic)) Version.all in
  let rec adjacent = function a :: (b :: _ as tl) -> (a, b) :: adjacent tl | _ -> [] in
  let docs =
    Array.of_list
      (List.map (fun img -> "/v1/surface/" ^ img_name img) Dataset.study_images
      @ List.map (fun (a, b) -> Printf.sprintf "/v1/diff/%s/%s" a b) (adjacent x86))
  in
  (* every start must render the same bytes: the first start fixes the
     reference (length, ETag) of each document *)
  let reference = Array.make (Array.length docs) None in
  let setup_failures = Atomic.make 0 in
  let warmup sv =
    par_iter
      (fun i ->
        let st, hdrs, body = get sv.sv_addr docs.(i) in
        let seen = (String.length body, Option.value ~default:"" (List.assoc_opt "etag" hdrs)) in
        match reference.(i) with
        | _ when st <> 200 || snd seen = "" -> Atomic.incr setup_failures
        | None -> reference.(i) <- Some seen
        | Some r -> if r <> seen then Atomic.incr setup_failures)
      (List.init (Array.length docs) Fun.id)
  in
  (* a restart re-renders the whole 104 MiB working set (about 4 s), so two
     restarts keep the run under 30 s *)
  let sv, setups = start_servers ~name:"serve-bulk" ~restarts:2 ~dir:wd ~warmup out in
  let reference = Array.map (function Some r -> r | None -> (0, "")) reference in
  add out "working_set_mb" "MB"
    (float_of_int (Array.fold_left (fun acc (len, _) -> acc + len) 0 reference) /. 1048576.);
  let addr = sv.sv_addr in
  (* One seeded cyclic order over the documents: request k asks for
     document order.(k mod 41), a full GET when k is even and a
     conditional one when odd (41 is odd, so each document alternates).
     Every document comes back only after the 40 others, more than the
     cache holds, so every request re-renders, the way a mirror that walks
     all documents does; and every run requests the same documents in the
     same proportions. *)
  let order = Array.init (Array.length docs) Fun.id in
  Prng.shuffle (Prng.create seed) order;
  let counter = ref 0 in
  let next () =
    let k = !counter in
    incr counter;
    let i = order.(k mod Array.length order) in
    let len, etag = reference.(i) in
    if k mod 2 = 0 then
      ( "full",
        fun () ->
          judged
            (function
              | 200, hdrs, body ->
                  String.length body = len && List.assoc_opt "etag" hdrs = Some etag
              | _ -> false)
            (get addr docs.(i)) )
    else
      ( "notmod",
        fun () ->
          judged
            (function 304, _, "" -> true | _ -> false)
            (get ~headers:[ ("If-None-Match", etag) ] addr docs.(i)) )
  in
  let m0 = metrics_of addr in
  let t0 = now () in
  let samples = closed_loop ~seconds next in
  let t1 = now () in
  let m1 = metrics_of addr in
  add_setup out setups;
  add_latencies out ~wall:(busy samples) ~tails:[ (0.99, "p99"); (0.95, "p95") ] samples;
  add_classes out samples;
  add_server_counters out m0 m1;
  if trace then add_server_trace out addr ~t0 ~t1 samples;
  add out "peak_rss_mb" "MB" (stop sv);
  {
    r_workload = "serve-bulk";
    r_attempted = List.length samples + Atomic.get setup_failures;
    r_failed = List.length (List.filter (fun s -> not s.s_ok) samples) + Atomic.get setup_failures;
    r_metrics = metrics out;
  }

(* ---- serve-watch -------------------------------------------------------- *)

let json_body (_, _, body) = Api.data (Json.of_string body)

(* The subscriptions are drawn so that matching is selective at a stated
   rate. [groups] groups of [group_size] functions; ingest i removes the
   followed function and 1-4 functions of group (i mod groups), and
   subscription j holds all of group (j mod groups) plus 5-20 functions
   that no removal reaches. So each subscription matches exactly
   1/groups of the ingests, and the follower every ingest. *)
let groups = 10
let group_size = 5
let subscriptions = 50

(* non-empty subsets of a group of 5 with at most 4 members: 30, so at
   most 30 ingests per group stay distinct *)
let max_ingests = groups * 30

let watch ~seed ~seconds ~trace =
  let wd = work_dir "serve-watch" in
  Fun.protect ~finally:(fun () -> remove_work_dir wd) @@ fun () ->
  let out = sink () in
  let base = img_name v54 in
  let warmup sv =
    ignore (get sv.sv_addr ("/v1/surface/" ^ base ^ "?kind=func&name=-"));
    ignore (get sv.sv_addr "/v1/graph/deps/func:-")
  in
  (* a restart takes about 0.2 s, so a handful of them give setup_s a
     median a single stall cannot move *)
  let sv, setups = start_servers ~name:"serve-watch" ~restarts:7 ~dir:wd ~warmup out in
  let addr = sv.sv_addr in
  let ds = harness_dataset wd in
  let s54 = Dataset.surface ds (fst v54) (snd v54) in
  let graph = Ds_graph.Graph.of_dataset ds (fst v54) (snd v54) in
  (* what removing f hits, as the server's matcher computes it: f itself
     and everything that depends on it *)
  let hit_sets = Hashtbl.create 64 in
  let hit_set f =
    match Hashtbl.find_opt hit_sets f with
    | Some h -> h
    | None ->
        let h = Blast.hit_set graph ~changed:[ Depset.Dep_func f ] in
        Hashtbl.replace h (Depset.Dep_func f) ();
        Hashtbl.replace hit_sets f h;
        h
  in
  let hits f g = Hashtbl.mem (hit_set f) (Depset.Dep_func g) in
  let prng = Prng.create seed in
  let names = funcs s54 in
  Prng.shuffle prng names;
  (* Candidates: the functions outside the largest of three hit sets,
     i.e. those that depend on none of the graph's common core. The
     removable ones are [1 + groups * group_size] of them, none in
     another's hit set; the quiet ones are in no removable one's. *)
  let core =
    List.fold_left
      (fun acc f -> if Hashtbl.length (hit_set f) > Hashtbl.length acc then hit_set f else acc)
      (Hashtbl.create 0)
      [ names.(0); names.(1); names.(2) ]
  in
  let outside =
    List.filter (fun f -> not (Hashtbl.mem core (Depset.Dep_func f))) (Array.to_list names)
  in
  let removable =
    List.fold_left
      (fun acc f ->
        if List.length acc < 1 + (groups * group_size)
           && List.for_all (fun c -> not (hits c f || hits f c)) acc
        then f :: acc
        else acc)
      [] outside
    |> List.rev
  in
  let quiet =
    Array.of_list
      (List.filter
         (fun f -> not (List.exists (fun r -> hits r f) removable))
         outside)
  in
  if List.length removable < 1 + (groups * group_size) || Array.length quiet < 20 then
    failwith
      (Printf.sprintf "serve-watch: the graph leaves %d removable and %d quiet functions"
         (List.length removable) (Array.length quiet));
  let followed = List.hd removable in
  let group k = List.filteri (fun i _ -> i / group_size = k) (List.tl removable) in
  let subscribe deps =
    let body =
      Json.to_string
        (Json.Obj [ ("deps", Json.List (List.map (fun f -> Json.String ("func:" ^ f)) deps)) ])
    in
    match post addr "/v1/subscriptions" body with
    | (200, _, _) as r -> Json.to_str (Option.get (Json.member "id" (json_body r)))
    | st, _, _ -> failwith (Printf.sprintf "POST /v1/subscriptions -> %d" st)
  in
  (* subscription ids are content-addressed: every dep set is distinct *)
  let seen = Hashtbl.create 64 in
  let rec fresh draw =
    let set = List.sort_uniq compare (draw ()) in
    if Hashtbl.mem seen set then fresh draw
    else begin
      Hashtbl.replace seen set ();
      set
    end
  in
  let subs =
    List.init subscriptions (fun j ->
        let deps =
          fresh (fun () ->
              group (j mod groups)
              @ List.init (5 + Prng.int prng 16) (fun _ -> Prng.pick prng quiet))
        in
        (subscribe deps, deps))
  in
  let follower = subscribe [ followed ] in
  let subs = (follower, [ followed ]) :: subs in
  let ingests = min max_ingests (max 20 (int_of_float (20. *. seconds))) in
  let plan =
    Array.init ingests (fun i ->
        let g = Array.of_list (group (i mod groups)) in
        let gone =
          fresh (fun () ->
              followed
              :: List.init (1 + Prng.int prng (group_size - 1)) (fun _ -> Prng.pick prng g))
        in
        let s = s54 in
        let payload =
          Codec.encode_surface
            (Surface.v ~version:s.Surface.s_version ~arch:s.Surface.s_arch
               ~flavor:s.Surface.s_flavor ~gcc:s.Surface.s_gcc
               ~funcs:
                 (List.filter (fun f -> not (List.mem f.Surface.fe_name gone)) s.Surface.s_funcs)
               ~structs:s.Surface.s_structs ~tracepoints:s.Surface.s_tracepoints
               ~syscalls:s.Surface.s_syscalls)
        in
        (* the harness's own prediction of the events this ingest makes *)
        let matched =
          List.filter_map
            (fun (id, deps) ->
              if List.exists (fun r -> List.exists (hits r) deps) gone then Some id else None)
            subs
          |> List.sort compare
        in
        (payload, matched))
  in
  let cursor0 = jint (json_body (get addr ("/v1/subscriptions/" ^ follower))) [ "cursor" ] in
  (* the follower: one long-poll at a time, handing each delivery
     (receive time, releases, cursor) to the ingest loop *)
  let mu = Mutex.create () in
  let deliveries = Queue.create () in
  let polls_sent = Atomic.make 0 in
  let stop_poll = Atomic.make false in
  let poller =
    Thread.create
      (fun () ->
        let rec go since got =
          if got < ingests && not (Atomic.get stop_poll) then begin
            Atomic.incr polls_sent;
            match get addr (Printf.sprintf "/v1/watch/%s?since=%d&wait=5" follower since) with
            | (200, _, _) as r ->
                let t = now () in
                let d = json_body r in
                let rels =
                  match Json.member "events" d with
                  | Some (Json.List evs) ->
                      List.map
                        (fun e -> Option.fold ~none:"" ~some:Json.to_str (Json.member "release" e))
                        evs
                  | _ -> []
                in
                let cursor = jint d [ "cursor" ] in
                Mutex.lock mu;
                Queue.push (t, rels, cursor) deliveries;
                Mutex.unlock mu;
                go cursor (got + List.length rels)
            | _ -> go since got
            | exception (Unix.Unix_error _ | Failure _) -> go since got
          end
        in
        go cursor0 0)
      ()
  in
  let next_delivery deadline =
    Mutex.lock mu;
    let rec wait () =
      if Queue.is_empty deliveries && now () < deadline then begin
        Mutex.unlock mu;
        Unix.sleepf 0.0005;
        Mutex.lock mu;
        wait ()
      end
    in
    wait ();
    let d = Queue.take_opt deliveries in
    Mutex.unlock mu;
    d
  in
  let event_subs r =
    match Json.member "events" (json_body r) with
    | Some (Json.List evs) ->
        List.sort compare
          (List.filter_map
             (fun e -> Option.map Json.to_str (Json.member "subscription" e))
             evs)
    | _ -> []
  in
  let m0 = metrics_of addr in
  let t0 = now () in
  let last_cursor = ref cursor0 in
  let due = ref 0. in
  let samples =
    List.concat
      (List.init ingests (fun i ->
           let payload, matched = plan.(i) in
           let release = Printf.sprintf "rel-%d" i in
           if now () >= !due then begin
             ignore (probe ());
             due := now () +. probe_every
           end;
           (* ingest once the follower has sent its poll for this
              release, and the server has had a moment to park it;
              watch.parked_share reports how often it had *)
           let deadline = now () +. 5. in
           while Atomic.get polls_sent <= i && now () < deadline do
             Unix.sleepf 0.0005
           done;
           Unix.sleepf 0.002;
           let ts = now () in
           let ingested, trace =
             match
               post addr
                 (Printf.sprintf "/v1/watch/ingest?base=%s&name=%s&kind=surface" base release)
                 payload
             with
             | r -> judged (fun ((st, _, _) as r) -> st = 200 && event_subs r = matched) r
             | exception (Unix.Unix_error _ | Failure _) -> (false, 0)
           in
           let ti = now () in
           let delivered, tr =
             match next_delivery (now () +. 10.) with
             | Some (tr, [ r ], cursor) when r = release && cursor > !last_cursor ->
                 last_cursor := cursor;
                 (true, tr)
             | Some (tr, _, _) -> (false, tr)
             | None -> (false, now ())
           in
           [
             {
               s_class = "ingest";
               s_t0 = ts;
               s_t1 = ti;
               s_ok = ingested && delivered;
               s_trace = trace;
             };
             { s_class = "poll"; s_t0 = ts; s_t1 = tr; s_ok = delivered; s_trace = 0 };
           ]))
  in
  let t1 = now () in
  Atomic.set stop_poll true;
  Thread.join poller;
  let m1 = metrics_of addr in
  let ing = List.filter (fun s -> s.s_class = "ingest") samples in
  let polls = List.filter (fun s -> s.s_class = "poll") samples in
  add_setup out setups;
  add_latencies out ~wall:(t1 -. t0) ~prefix:"ingest" ~tails:[ (0.9, "p90") ] ing;
  (* every ingest rewrites the whole persisted event log, so cost grows
     with the log: the first and the last tenth of the run side by side *)
  let tenth = max 1 (ingests / 10) in
  let by_start = List.map ms (List.sort (fun a b -> compare a.s_t0 b.s_t0) ing) in
  add out ~samples:tenth "ingest_first_tenth_ms" "ms"
    (median (List.filteri (fun i _ -> i < tenth) by_start));
  add out ~samples:tenth "ingest_last_tenth_ms" "ms"
    (median (List.filteri (fun i _ -> i >= ingests - tenth) by_start));
  let deliver = List.map ms polls in
  add out ~samples:ingests "deliver_p50_ms" "ms" (median deliver);
  Option.iter (add out ~samples:ingests "deliver_p90_ms" "ms") (tail 0.9 deliver);
  add_classes out samples;
  add_server_counters out m0 m1;
  let d path = jint m1 path - jint m0 path in
  add out "watch.events_per_ingest" "1/ingest"
    (ratio (d [ "counters"; "watch.events" ]) (d [ "counters"; "watch.ingest" ]));
  add out "watch.written_kb_per_ingest" "KB"
    (float_of_int (d [ "store"; "bytes_written" ]) /. 1024. /. float_of_int ingests);
  (* of the 50 subscriptions (the follower aside), the share each ingest
     matched, as predicted and checked against every ingest's events *)
  add out ~samples:ingests "watch.match_fraction" "fraction"
    (ratio
       (Array.fold_left (fun acc (_, m) -> acc + List.length m - 1) 0 plan)
       (ingests * subscriptions));
  add out ~samples:ingests "watch.parked_share" "fraction"
    (ratio (d [ "counters"; "watch.parked" ]) ingests);
  if trace then add_server_trace out addr ~t0 ~t1 ing;
  add out "peak_rss_mb" "MB" (stop sv);
  {
    r_workload = "serve-watch";
    r_attempted = ingests;
    r_failed = List.length (List.filter (fun s -> not s.s_ok) ing);
    r_metrics = metrics out;
  }
