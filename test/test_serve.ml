(* The query server: routing, the hot index's single-flight guarantee,
   /mismatch byte-identity with the CLI report path, and the socket
   front-end (Unix + TCP) with its minimal client. Sockets stay inside
   this process — the cross-process end-to-end lives in
   bin/test_serve_cli.sh under the @check alias. *)

open Ds_ksrc
open Depsurf
module Serve = Ds_serve.Serve
module Par = Ds_util.Par
module Json = Ds_util.Json
module Metrics = Ds_util.Metrics
module Diag = Ds_util.Diag
module Faultgen = Ds_faultgen.Faultgen

let ds = lazy (Dataset.build ~seed:Testenv.seed Calibration.test_scale)

let with_server ?images_dir f =
  Par.run ~jobs:4 (fun pool ->
      f (Serve.create ?images_dir ~ds:(Lazy.force ds) ~pool ()) pool)

let get4 t target = Serve.handle_request t ~meth:"GET" ~target ~body:""

let get t target =
  let st, ct, _, body = get4 t target in
  (st, ct, body)

let member_str name j =
  match Json.member name j with Some (Json.String s) -> s | _ -> "<missing>"

(* every JSON endpoint answers inside the v1 envelope; [payload] digs out
   the data member so the assertions below read the document itself *)
let payload body = Api.data (Json.of_string body)

(* ---- naming -------------------------------------------------------- *)

let test_image_names () =
  List.iter
    (fun img ->
      let name = Serve.image_name img in
      match Serve.image_of_name name with
      | Some img' -> Alcotest.(check bool) name true (img = img')
      | None -> Alcotest.fail ("image_of_name failed on " ^ name))
    Dataset.study_images;
  Alcotest.(check bool) "v5.4 x86 generic" true
    (Serve.image_of_name "5.4-x86-generic" = Some (Version.v 5 4, Config.x86_generic));
  List.iter
    (fun bad ->
      Alcotest.(check bool) ("reject " ^ bad) true (Serve.image_of_name bad = None))
    [ "9.9-x86-generic"; "5.4-mips-generic"; "5.4-x86"; "5.4-x86-generic-extra"; "" ]

(* ---- routing ------------------------------------------------------- *)

let test_routing () =
  with_server @@ fun t _ ->
  let st, ct, body = get t "/v1/healthz" in
  Alcotest.(check int) "healthz status" 200 st;
  Alcotest.(check string) "healthz type" "application/json" ct;
  Alcotest.(check string) "healthz ok" "ok" (member_str "status" (payload body));
  (match Json.member "v" (Json.of_string body) with
  | Some (Json.Int 1) -> ()
  | _ -> Alcotest.fail "healthz must carry the v1 envelope version");
  let st, _, _ = get t "/v1/no/such/endpoint" in
  Alcotest.(check int) "unknown -> 404" 404 st;
  let st, _, _, _ = Serve.handle_request t ~meth:"POST" ~target:"/v1/images" ~body:"" in
  Alcotest.(check int) "POST /images -> 405" 405 st;
  let st, _, _ = get t "/v1/mismatch" in
  Alcotest.(check int) "GET /v1/mismatch -> 405" 405 st;
  let st, _, _ = get t "/v1/surface/4.4-x86-generic?kind=func" in
  Alcotest.(check int) "kind without name -> 400" 400 st;
  let st, _, _ = get t "/v1/surface/9.9-x86-generic" in
  Alcotest.(check int) "unknown image -> 404" 404 st;
  let images = get t "/v1/images" in
  let _, _, body = images in
  match Json.member "images" (payload body) with
  | Some (Json.List l) ->
      Alcotest.(check int) "25 study images" 25 (List.length l)
  | _ -> Alcotest.fail "/v1/images lacks an images list"

let test_surface_queries () =
  with_server @@ fun t _ ->
  let st, _, body = get t "/v1/surface/4.4-x86-generic" in
  Alcotest.(check int) "surface status" 200 st;
  let j = Json.of_string body in
  Alcotest.(check string) "clean health" "clean" (member_str "health" j);
  Alcotest.(check string) "version field" "v4.4" (member_str "version" (payload body));
  let st, _, body = get t "/v1/surface/4.4-x86-generic?kind=func&name=vfs_fsync" in
  Alcotest.(check int) "filtered status" 200 st;
  let j = payload body in
  Alcotest.(check string) "filtered name" "vfs_fsync" (member_str "name" j);
  Alcotest.(check bool) "filtered entry present" true (Json.member "entry" j <> None);
  let st, _, _ = get t "/v1/surface/4.4-x86-generic?kind=func&name=no_such_fn_zzz" in
  Alcotest.(check int) "absent construct -> 404" 404 st;
  let st, _, _ = get t "/v1/surface/4.4-x86-generic?kind=gadget&name=x" in
  Alcotest.(check int) "bad kind -> 400" 400 st

(* ---- single-flight hydration ---------------------------------------- *)

let test_single_flight () =
  with_server @@ fun t pool ->
  let futures =
    List.init 8 (fun _ -> Par.submit pool (fun () -> get t "/v1/surface/4.8-x86-generic"))
  in
  let responses = List.map Par.await futures in
  List.iter (fun (st, _, body) -> Alcotest.(check int) ("all 200: " ^ body) 200 st) responses;
  (match responses with
  | (_, _, first) :: rest ->
      List.iter
        (fun (_, _, body) -> Alcotest.(check bool) "identical bodies" true (body = first))
        rest
  | [] -> Alcotest.fail "no responses");
  let m = Serve.metrics t in
  Alcotest.(check int) "one index fill" 1 (Metrics.counter m "index.fill.surface");
  Alcotest.(check int) "one surface render" 1 (Metrics.counter m "compute.surface");
  (* a second wave is all index hits; ?trace=1 bypasses the response-byte
     cache, so this request must reach the hot index *)
  let hits0 = Metrics.counter m "index.hit.surface" in
  let _ = get t "/v1/surface/4.8-x86-generic?trace=1" in
  Alcotest.(check int) "warm hit" (hits0 + 1) (Metrics.counter m "index.hit.surface");
  Alcotest.(check int) "still one fill" 1 (Metrics.counter m "index.fill.surface")

(* ---- /mismatch ------------------------------------------------------ *)

let corpus_obj name =
  let built = Ds_corpus.Corpus.build_all (Lazy.force ds) () in
  snd (List.find (fun ((p : Ds_corpus.Table7.profile), _) -> p.pr_name = name) built)

let test_mismatch_identity () =
  let obj = corpus_obj "biotop" in
  let bytes = Ds_bpf.Obj.write obj in
  with_server @@ fun t _ ->
  let st, ct, _, body = Serve.handle_request t ~meth:"POST" ~target:"/v1/mismatch" ~body:bytes in
  Alcotest.(check int) "mismatch status" 200 st;
  Alcotest.(check string) "mismatch type" "text/plain" ct;
  let expected = Report.render_matrix (Pipeline.analyze (Lazy.force ds) obj) in
  Alcotest.(check string) "byte-identical to the CLI report" expected body;
  let _ = Serve.handle_request t ~meth:"POST" ~target:"/v1/mismatch" ~body:bytes in
  let m = Serve.metrics t in
  Alcotest.(check int) "report rendered once" 1 (Metrics.counter m "compute.mismatch");
  Alcotest.(check int) "second POST is a cache hit" 1 (Metrics.counter m "cache.hit");
  let st, _, _, _ = Serve.handle_request t ~meth:"POST" ~target:"/v1/mismatch" ~body:"garbage" in
  Alcotest.(check int) "garbage -> 400" 400 st;
  let st, _, _, _ = Serve.handle_request t ~meth:"POST" ~target:"/v1/mismatch" ~body:"" in
  Alcotest.(check int) "empty -> 400" 400 st

(* ---- /verify -------------------------------------------------------- *)

let test_verify_endpoint () =
  let obj = corpus_obj "biotop" in
  let bytes = Ds_bpf.Obj.write obj in
  with_server @@ fun t _ ->
  let st, ct, hdrs, body =
    Serve.handle_request t ~meth:"POST" ~target:"/v1/verify" ~body:bytes
  in
  Alcotest.(check int) "verify status" 200 st;
  Alcotest.(check string) "verify type" "application/json" ct;
  (* byte-identical to the CLI's `doctor --json` payload *)
  let expected =
    let v, cfg = (Version.v 5 4, Config.x86_generic) in
    Json.to_string
      (Ds_verify.Verify.envelope (Ds_verify.Verify.of_dataset (Lazy.force ds) v cfg bytes))
    ^ "\n"
  in
  Alcotest.(check string) "byte-identical to doctor --json" expected body;
  (match Json.member "accepted" (payload body) with
  | Some (Json.Int n) -> Alcotest.(check bool) "programs verified" true (n >= 1)
  | _ -> Alcotest.fail "no accepted count in verify payload");
  (* a repeat POST of the same digest is a cache hit with a matching ETag *)
  let m = Serve.metrics t in
  let st2, _, hdrs2, body2 =
    Serve.handle_request t ~meth:"POST" ~target:"/v1/verify" ~body:bytes
  in
  Alcotest.(check int) "repeat status" 200 st2;
  Alcotest.(check bool) "repeat body identical" true (body = body2);
  Alcotest.(check int) "verified once" 1 (Metrics.counter m "compute.verify");
  Alcotest.(check string) "repeat is a cache hit" "hit"
    (List.assoc "x-depsurf-cache" hdrs2);
  let etag = List.assoc "ETag" hdrs in
  Alcotest.(check string) "stable etag" etag (List.assoc "ETag" hdrs2);
  let st3, _, _, body3 =
    Serve.handle_request t
      ~headers:[ ("if-none-match", etag) ]
      ~meth:"POST" ~target:"/v1/verify" ~body:bytes
  in
  Alcotest.(check int) "if-none-match -> 304" 304 st3;
  Alcotest.(check string) "304 empty body" "" body3;
  (* an object the verifier rejects is data, not an error: 200 degraded *)
  let sabotage =
    let prog =
      {
        Ds_bpf.Obj.p_name = "bad";
        p_section = "kprobe/do_unlinkat";
        p_insns =
          Ds_bpf.Insn.
            [
              Mov_imm { dst = 1; imm = 7 };
              Ldx { dst = 2; src = 1; off = 0; size = DW };
              Mov_imm { dst = 0; imm = 0 };
              Exit;
            ];
        p_relocs = [];
        p_kfuncs = [];
      }
    in
    Ds_bpf.Obj.write { obj with Ds_bpf.Obj.o_name = "sabotaged"; o_progs = [ prog ] }
  in
  let st, _, _, body = Serve.handle_request t ~meth:"POST" ~target:"/v1/verify" ~body:sabotage in
  Alcotest.(check int) "rejected object is 200" 200 st;
  Alcotest.(check string) "health degraded" "degraded"
    (member_str "health" (Json.of_string body));
  (match Json.member "rejected" (payload body) with
  | Some (Json.Int 1) -> ()
  | _ -> Alcotest.fail "rejected count missing");
  (* parameter validation *)
  let st, _, _, _ = Serve.handle_request t ~meth:"POST" ~target:"/v1/verify" ~body:"" in
  Alcotest.(check int) "empty body -> 400" 400 st;
  let st, _, _, _ =
    Serve.handle_request t ~meth:"POST" ~target:"/v1/verify?image=9.9-x86-generic" ~body:bytes
  in
  Alcotest.(check int) "unknown image -> 400" 400 st;
  let st, _, _, _ = Serve.handle_request t ~meth:"GET" ~target:"/v1/verify" ~body:"" in
  Alcotest.(check int) "GET /v1/verify -> 405" 405 st

(* ---- /metrics ------------------------------------------------------- *)

let test_metrics_document () =
  with_server @@ fun t _ ->
  let _ = get t "/v1/healthz" in
  let _ = get t "/v1/diff/4.4-x86-generic/5.4-x86-generic" in
  let st, _, body = get t "/v1/metrics" in
  Alcotest.(check int) "metrics status" 200 st;
  let j = payload body in
  (match Json.member "requests_total" j with
  | Some (Json.Int n) -> Alcotest.(check bool) "requests counted" true (n >= 3)
  | _ -> Alcotest.fail "no requests_total");
  Alcotest.(check bool) "compiles exposed" true (Json.member "compiles" j <> None);
  Alcotest.(check bool) "index sizes exposed" true (Json.member "index" j <> None);
  match Json.member "latency_ms" j with
  | Some (Json.Obj labels) ->
      Alcotest.(check bool) "diff latency histogram" true (List.mem_assoc "/diff" labels)
  | _ -> Alcotest.fail "no latency_ms"

(* ---- sockets -------------------------------------------------------- *)

let temp_sock () =
  let path = Filename.temp_file "dsserve" ".sock" in
  Sys.remove path;
  path

let test_unix_socket_roundtrip () =
  with_server @@ fun t _ ->
  let path = temp_sock () in
  let addr = Serve.Unix_sock path in
  let h = Serve.start t addr in
  Fun.protect
    ~finally:(fun () ->
      Serve.stop h;
      Serve.stop h (* idempotent *))
    (fun () ->
      let st, body = Serve.Client.request addr ~meth:"GET" ~path:"/v1/healthz" in
      Alcotest.(check int) "healthz over unix socket" 200 st;
      Alcotest.(check string) "status ok" "ok" (member_str "status" (Api.data (Json.of_string body)));
      (* several sequential clients on fresh connections *)
      for _ = 1 to 5 do
        let st, _ = Serve.Client.request addr ~meth:"GET" ~path:"/v1/images" in
        Alcotest.(check int) "images over unix socket" 200 st
      done);
  Alcotest.(check bool) "socket unlinked on stop" false (Sys.file_exists path)

let test_tcp_roundtrip () =
  with_server @@ fun t _ ->
  let h = Serve.start t (Serve.Tcp ("127.0.0.1", 0)) in
  Fun.protect
    ~finally:(fun () -> Serve.stop h)
    (fun () ->
      let addr = Serve.bound_addr h in
      (match addr with
      | Serve.Tcp (_, port) -> Alcotest.(check bool) "kernel-chosen port" true (port > 0)
      | _ -> Alcotest.fail "expected a TCP bound address");
      let st, _ = Serve.Client.request addr ~meth:"GET" ~path:"/v1/healthz" in
      Alcotest.(check int) "healthz over tcp" 200 st)

(* golden pin of the server-side header parser's legacy-lenient behavior:
   bare-LF line endings, unusual whitespace around values, and mixed-case
   names must keep parsing exactly as the old three-allocation splitter
   did, now that the parser is single-pass *)
let raw_roundtrip addr data =
  let sock = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> Unix.close sock)
    (fun () ->
      (match addr with
      | Serve.Unix_sock path -> Unix.connect sock (Unix.ADDR_UNIX path)
      | Serve.Tcp _ -> Alcotest.fail "raw_roundtrip wants a unix socket");
      ignore (Unix.write_substring sock data 0 (String.length data));
      let buf = Buffer.create 4096 in
      let chunk = Bytes.create 4096 in
      let rec drain () =
        match Unix.read sock chunk 0 4096 with
        | 0 -> ()
        | n ->
            Buffer.add_subbytes buf chunk 0 n;
            drain ()
      in
      drain ();
      Buffer.contents buf)

let test_raw_header_parsing () =
  with_server @@ fun t _ ->
  let path = temp_sock () in
  let addr = Serve.Unix_sock path in
  let h = Serve.start t addr in
  Fun.protect
    ~finally:(fun () -> Serve.stop h)
    (fun () ->
      let status r =
        Scanf.sscanf r "HTTP/1.1 %d" (fun s -> s)
      in
      (* CRLF request *)
      let r = raw_roundtrip addr "GET /v1/healthz HTTP/1.1\r\nHost: x\r\n\r\n" in
      Alcotest.(check int) "crlf request" 200 (status r);
      (* bare-LF line endings inside the head are accepted (legacy
         leniency: lines split on '\n', '\r' optional) as long as the
         head ends with the usual blank line *)
      let r = raw_roundtrip addr "GET /v1/healthz HTTP/1.1\nHost: x\r\n\r\n" in
      Alcotest.(check int) "bare-lf request line" 200 (status r);
      (* mixed-case names and padded values still parse: grab an etag,
         then send the validator back with odd casing and spacing *)
      let r = raw_roundtrip addr "GET /v1/images HTTP/1.1\r\nHost: x\r\n\r\n" in
      let etag =
        let tag_at i =
          let j = String.index_from r (i + 6) '"' in
          String.sub r i (j - i + 1)
        in
        match Ds_util.Strutil.find_sub r ~sub:"ETag: \"" with
        | Some i -> tag_at (i + 6)
        | None -> Alcotest.fail "no ETag in raw response"
      in
      let r =
        raw_roundtrip addr
          ("GET /v1/images HTTP/1.1\r\nHost: x\r\nIF-NONE-MATCH:   " ^ etag ^ "  \r\n\r\n")
      in
      Alcotest.(check int) "case+padding conditional" 304 (status r);
      (* a headerless value after the colon is the empty string, not a crash *)
      let r = raw_roundtrip addr "GET /v1/healthz HTTP/1.1\r\nX-Empty:\r\n\r\n" in
      Alcotest.(check int) "empty header value" 200 (status r);
      (* missing request-line spaces are a 400, connection still answered *)
      let r = raw_roundtrip addr "GARBAGE\r\n\r\n" in
      Alcotest.(check int) "bad request line" 400 (status r))

let test_start_requires_two_workers () =
  Par.run ~jobs:1 (fun pool ->
      let t = Serve.create ~ds:(Lazy.force ds) ~pool () in
      match Serve.start t (Serve.Tcp ("127.0.0.1", 0)) with
      | _ -> Alcotest.fail "start on a 1-worker pool must be rejected"
      | exception Invalid_argument _ -> ())

(* ---- degraded file-backed images ------------------------------------ *)

(* zero a mid-file region so lenient extraction is degraded — not clean,
   not fatal — and the served document must carry ["health": "degraded"]
   (same mutation the doctor e2e uses to trigger exit code 2) *)
let degraded_image_bytes () =
  let data = Ds_elf.Elf.write (Testenv.image (Version.v 5 4)) in
  let len = String.length data in
  let is_degraded m =
    Diag.worst (Surface.health (Diag.ok (Surface.extract ~mode:`Lenient m))) = Some Diag.Degraded
  in
  let rec go = function
    | [] -> Alcotest.fail "no degrading mutation found"
    | pos :: rest ->
        let m = Faultgen.zero_range data ~pos ~len:512 in
        if is_degraded m then m else go rest
  in
  go [ len / 3; len / 2; len / 4; 2 * len / 3 ]

let test_degraded_file_image_is_200 () =
  let dir = Filename.temp_file "dsserve" ".images" in
  Sys.remove dir;
  Sys.mkdir dir 0o755;
  let oc = open_out_bin (Filename.concat dir "vmlinux-broken") in
  output_string oc (degraded_image_bytes ());
  close_out oc;
  with_server ~images_dir:dir @@ fun t _ ->
  let st, _, body = get t "/v1/images" in
  Alcotest.(check int) "images status" 200 st;
  Alcotest.(check bool) "file image listed" true
    (let rec mem = function
       | [] -> false
       | Json.Obj fields :: rest ->
           List.assoc_opt "name" fields = Some (Json.String "vmlinux-broken") || mem rest
       | _ :: rest -> mem rest
     in
     match Json.member "images" (payload body) with
     | Some (Json.List l) -> mem l
     | _ -> false);
  let st, _, body = get t "/v1/surface/vmlinux-broken" in
  Alcotest.(check int) "degraded image answers 200" 200 st;
  let j = Json.of_string body in
  Alcotest.(check string) "health degraded" "degraded" (member_str "health" j);
  match Json.member "diagnostics" j with
  | Some (Json.List (_ :: _)) -> ()
  | _ -> Alcotest.fail "degraded surface must list its diagnostics"

(* ---- response-byte cache & conditional requests --------------------- *)

let cache_state hdrs = List.assoc_opt "x-depsurf-cache" hdrs
let etag_of hdrs = List.assoc_opt "ETag" hdrs

let response_cache_stats t =
  let _, _, body = get t "/v1/metrics" in
  match Json.member "response_cache" (payload body) with
  | Some (Json.Obj fields) -> (
      match (List.assoc_opt "entries" fields, List.assoc_opt "bytes" fields) with
      | Some (Json.Int n), Some (Json.Int b) -> (n, b)
      | _ -> Alcotest.fail "response_cache lacks entries/bytes")
  | _ -> Alcotest.fail "/v1/metrics lacks response_cache"

(* one cache per response: a whole surface comes from its document memo
   and never enters the response cache; /v1/images lives only there.
   Either way the second answer is a byte-identical hit with the same
   ETag. *)
let test_response_cache_hit_identity () =
  with_server @@ fun t _ ->
  let m = Serve.metrics t in
  let check_identity target =
    let st1, ct1, h1, b1 = get4 t target in
    Alcotest.(check int) (target ^ " first 200") 200 st1;
    Alcotest.(check (option string)) (target ^ " first is a miss") (Some "miss") (cache_state h1);
    let st2, ct2, h2, b2 = get4 t target in
    Alcotest.(check (option string)) (target ^ " second is a hit") (Some "hit") (cache_state h2);
    Alcotest.(check int) "same status" st1 st2;
    Alcotest.(check string) "same content-type" ct1 ct2;
    Alcotest.(check string) "same body bytes" b1 b2;
    Alcotest.(check bool) "stable etag" true (etag_of h1 <> None && etag_of h1 = etag_of h2)
  in
  check_identity "/v1/surface/4.4-x86-generic";
  Alcotest.(check (pair int int)) "documents stay out of the response cache" (0, 0)
    (response_cache_stats t);
  Alcotest.(check int) "no response-cache lookups for documents" 0
    (Metrics.counter m "cache.hit" + Metrics.counter m "cache.miss");
  check_identity "/v1/images";
  Alcotest.(check int) "one response-cache entry" 1 (fst (response_cache_stats t));
  Alcotest.(check int) "miss counted" 1 (Metrics.counter m "cache.miss");
  Alcotest.(check int) "hit counted" 1 (Metrics.counter m "cache.hit")

let test_conditional_requests () =
  with_server @@ fun t _ ->
  let _, _, h1, _ = get4 t "/v1/images" in
  let etag = match etag_of h1 with Some e -> e | None -> Alcotest.fail "no ETag" in
  (* matching If-None-Match: 304, empty body, ETag still present *)
  let st, _, h, body =
    Serve.handle_request t ~headers:[ ("if-none-match", etag) ] ~meth:"GET" ~target:"/v1/images"
      ~body:""
  in
  Alcotest.(check int) "if-none-match -> 304" 304 st;
  Alcotest.(check string) "304 body empty" "" body;
  Alcotest.(check (option string)) "304 carries the etag" (Some etag) (etag_of h);
  (* a list of candidates containing the etag also matches *)
  let st, _, _, _ =
    Serve.handle_request t
      ~headers:[ ("if-none-match", "\"deadbeef\", " ^ etag) ]
      ~meth:"GET" ~target:"/v1/images" ~body:""
  in
  Alcotest.(check int) "etag list -> 304" 304 st;
  let st, _, _, _ =
    Serve.handle_request t ~headers:[ ("if-none-match", "*") ] ~meth:"GET" ~target:"/v1/images"
      ~body:""
  in
  Alcotest.(check int) "star -> 304" 304 st;
  (* a stale validator gets the full response *)
  let st, _, _, body =
    Serve.handle_request t
      ~headers:[ ("if-none-match", "\"deadbeef\"") ]
      ~meth:"GET" ~target:"/v1/images" ~body:""
  in
  Alcotest.(check int) "stale etag -> 200" 200 st;
  Alcotest.(check bool) "stale etag gets a body" true (String.length body > 0);
  let m = Serve.metrics t in
  Alcotest.(check int) "notmod counted" 3 (Metrics.counter m "cache.notmod")

let test_generation_invalidates () =
  with_server @@ fun t _ ->
  let _, _, h1, b1 = get4 t "/v1/images" in
  Alcotest.(check (option string)) "cold miss" (Some "miss") (cache_state h1);
  let _, _, h2, _ = get4 t "/v1/images" in
  Alcotest.(check (option string)) "warm hit" (Some "hit") (cache_state h2);
  let gen0 = Serve.generation t in
  Serve.invalidate t;
  Alcotest.(check int) "generation bumped" (gen0 + 1) (Serve.generation t);
  let _, _, h3, b3 = get4 t "/v1/images" in
  Alcotest.(check (option string)) "invalidated -> miss" (Some "miss") (cache_state h3);
  (* the index itself did not change, so the re-rendered bytes — and
     therefore the content-digest ETag — are unchanged *)
  Alcotest.(check string) "re-rendered body identical" b1 b3;
  Alcotest.(check bool) "etag stable across generations" true (etag_of h1 = etag_of h3)

let test_cache_scope () =
  with_server @@ fun t _ ->
  (* dynamic endpoints are never cached *)
  let _, _, h, _ = get4 t "/v1/healthz" in
  Alcotest.(check (option string)) "healthz uncached" None (cache_state h);
  let _, _, h, _ = get4 t "/v1/metrics" in
  Alcotest.(check (option string)) "metrics uncached" None (cache_state h);
  (* ?trace=1 bypasses the cache: the trace member is per-request *)
  let _, _, h, _ = get4 t "/v1/images?trace=1" in
  Alcotest.(check (option string)) "trace=1 uncached" None (cache_state h);
  (* errors are not cached either *)
  let _, _, h, _ = get4 t "/v1/surface/9.9-x86-generic" in
  let first = cache_state h in
  let _, _, h, _ = get4 t "/v1/surface/9.9-x86-generic" in
  Alcotest.(check bool) "404 never served from cache" true
    (first <> Some "hit" && cache_state h <> Some "hit")

let test_respcache_lru () =
  let module R = Ds_serve.Respcache in
  let e body = R.{ e_status = 200; e_ctype = "t"; e_body = body; e_etag = "\"x\"" } in
  let c = R.create ~max_entries:2 () in
  Alcotest.(check int) "no eviction" 0 (R.add c "a" (e "1"));
  Alcotest.(check int) "no eviction" 0 (R.add c "b" (e "2"));
  (* touch a so b is the LRU tail *)
  Alcotest.(check bool) "a present" true (R.find c "a" <> None);
  Alcotest.(check int) "one eviction" 1 (R.add c "c" (e "3"));
  Alcotest.(check bool) "b evicted" true (R.find c "b" = None);
  Alcotest.(check bool) "a survives" true (R.find c "a" <> None);
  Alcotest.(check bool) "c present" true (R.find c "c" <> None);
  (* byte-cap eviction: each entry is body + overhead, so a small cap
     admits only the newest entry *)
  let c = R.create ~max_bytes:400 () in
  ignore (R.add c "a" (e (String.make 200 'x')));
  Alcotest.(check int) "byte cap evicts" 1 (R.add c "b" (e (String.make 200 'y')));
  Alcotest.(check bool) "newest kept" true (R.find c "b" <> None);
  (* an entry larger than the whole cap is refused outright *)
  let c = R.create ~max_bytes:100 () in
  Alcotest.(check int) "oversized refused" 0 (R.add c "big" (e (String.make 500 'z')));
  Alcotest.(check (pair int int)) "nothing stored" (0, 0) (R.stats c)

(* ---- /graph/* -------------------------------------------------------- *)

let test_graph_endpoints () =
  with_server @@ fun t _ ->
  (* the served bytes are the shared query_json document in the v1
     envelope plus the trailing newline — the same expression the CLI's
     [depsurf graph ... --json] prints, so the two are byte-identical by
     construction; pin that contract here *)
  let st, ct, h1, body = get4 t "/v1/graph/deps/vfs_fsync" in
  Alcotest.(check int) "deps status" 200 st;
  Alcotest.(check string) "deps type" "application/json" ct;
  let expected =
    let g =
      Ds_graph.Graph.of_dataset (Lazy.force ds) (Version.v 5 4) Config.x86_generic
    in
    Json.to_string
      (Api.envelope
         (Ds_graph.Graph.query_json g ~dir:`Deps ~transitive:false
            (Depset.Dep_func "vfs_fsync")))
    ^ "\n"
  in
  Alcotest.(check string) "body is the CLI's --json bytes" expected body;
  (* cacheable: second request is a response-cache hit with a stable ETag *)
  let _, _, h2, body2 = get4 t "/v1/graph/deps/vfs_fsync" in
  Alcotest.(check (option string)) "second is a hit" (Some "hit") (cache_state h2);
  Alcotest.(check string) "hit body identical" body body2;
  Alcotest.(check bool) "stable etag" true (etag_of h1 <> None && etag_of h1 = etag_of h2);
  (* a matching validator answers 304 *)
  (match etag_of h1 with
  | Some etag ->
      let st, _, _, b =
        Serve.handle_request t
          ~headers:[ ("if-none-match", etag) ]
          ~meth:"GET" ~target:"/v1/graph/deps/vfs_fsync" ~body:""
      in
      Alcotest.(check int) "if-none-match -> 304" 304 st;
      Alcotest.(check string) "304 body empty" "" b
  | None -> Alcotest.fail "no ETag on /graph/deps");
  (* rdeps with ?transitive=1 reports the reverse closure's size *)
  let st, _, body = get t "/v1/graph/rdeps/func:vfs_fsync?transitive=1" in
  Alcotest.(check int) "rdeps status" 200 st;
  (match Json.member "count" (payload body) with
  | Some (Json.Int n) ->
      let g =
        Ds_graph.Graph.of_dataset (Lazy.force ds) (Version.v 5 4) Config.x86_generic
      in
      Alcotest.(check int) "count = rclosure size" n
        (List.length (Ds_graph.Graph.rclosure g (Depset.Dep_func "vfs_fsync")))
  | _ -> Alcotest.fail "rdeps lacks a count");
  (* unknown nodes are a valid (empty) answer, not an error *)
  let st, _, body = get t "/v1/graph/rdeps/no_such_fn_zzz" in
  Alcotest.(check int) "unknown node -> 200" 200 st;
  Alcotest.(check bool) "found false" true
    (Json.member "found" (payload body) = Some (Json.Bool false));
  (* malformed node syntax and unknown images are client errors *)
  let st, _, _ = get t "/v1/graph/deps/bogus:x" in
  Alcotest.(check int) "bad node syntax -> 400" 400 st;
  let st, _, _ = get t "/v1/graph/deps/vfs_fsync?image=9.9-x86-generic" in
  Alcotest.(check int) "unknown image -> 404" 404 st

(* concurrent identical blast queries coalesce into one render *)
let test_blast_single_flight () =
  with_server @@ fun t _ ->
  let target = "/v1/graph/blast/blk_account_io_start?release=5.8" in
  let clients = List.init 8 (fun _ -> Domain.spawn (fun () -> get t target)) in
  let responses = List.map Domain.join clients in
  let _, _, first = List.hd responses in
  List.iter
    (fun (st, _, body) ->
      Alcotest.(check int) "200" 200 st;
      Alcotest.(check bool) "identical bodies" true (body = first))
    responses;
  let m = Serve.metrics t in
  Alcotest.(check int) "one blast render" 1 (Metrics.counter m "compute.blast");
  Alcotest.(check int) "every request went through the response cache" 8
    (Metrics.counter m "cache.hit" + Metrics.counter m "cache.miss")

(* On a fresh server, concurrent blasts at every release with a
   predecessor share one corpus build: the blast memo is single flight *)
let test_blast_corpus_built_once () =
  (* a seed no other test blasts, so the memo starts empty *)
  let ds' = Dataset.build ~seed:(Int64.add Testenv.seed 1L) Calibration.test_scale in
  Par.run ~jobs:4 @@ fun pool ->
  let t = Serve.create ~ds:ds' ~pool () in
  Ds_trace.Trace.clear ();
  let releases = List.tl Version.all in
  Alcotest.(check int) "16 distinct releases" 16 (List.length releases);
  let clients =
    List.map
      (fun v ->
        (* ?release= takes MAJOR.MINOR, without to_string's leading 'v' *)
        let r = Version.to_string v in
        let target =
          "/v1/graph/blast/blk_account_io_start?release=" ^ String.sub r 1 (String.length r - 1)
        in
        Domain.spawn (fun () -> get t target))
      releases
  in
  List.iter
    (fun c ->
      let st, _, body = Domain.join c in
      Alcotest.(check int) ("blast 200: " ^ body) 200 st)
    clients;
  let _, _, body = get t "/v1/trace/recent?limit=1000000" in
  let j = payload body in
  Alcotest.(check bool) "no spans dropped" true (Json.member "dropped" j = Some (Json.Int 0));
  let builds =
    match Json.member "spans" j with
    | Some (Json.List l) ->
        List.length
          (List.filter
             (function
               | Json.Obj fields ->
                   List.assoc_opt "name" fields = Some (Json.String "corpus.build_all")
               | _ -> false)
             l)
    | _ -> Alcotest.fail "trace recent must list spans"
  in
  Alcotest.(check int) "one corpus build" 1 builds

let test_graph_blast_endpoint () =
  with_server @@ fun t _ ->
  let st, _, _ = get t "/v1/graph/blast/blk_account_io_start" in
  Alcotest.(check int) "missing release -> 400" 400 st;
  let st, _, _ = get t "/v1/graph/blast/blk_account_io_start?release=9.9" in
  Alcotest.(check int) "unknown release -> 404" 404 st;
  let st, _, _ = get t "/v1/graph/blast/blk_account_io_start?release=4.4" in
  Alcotest.(check int) "first study release -> 404" 404 st;
  let st, _, body = get t "/v1/graph/blast/blk_account_io_start?release=5.8" in
  Alcotest.(check int) "blast status" 200 st;
  let j = payload body in
  Alcotest.(check string) "prev release" "v5.4" (member_str "prev" j);
  (match Json.member "affected" j with
  | Some (Json.List l) ->
      Alcotest.(check bool) "biotop in the blast radius" true
        (List.exists
           (function
             | Json.Obj fields ->
                 List.assoc_opt "program" fields = Some (Json.String "biotop")
             | _ -> false)
           l)
  | _ -> Alcotest.fail "blast lacks an affected list");
  (* rendered once, then served from the response cache *)
  let _ = get t "/v1/graph/blast/blk_account_io_start?release=5.8" in
  let m = Serve.metrics t in
  Alcotest.(check int) "one blast compute" 1 (Metrics.counter m "compute.blast")

(* ---- store maintenance revalidation ---------------------------------- *)

(* [depsurf cache clear/gc/verify] against a live server's cache dir must
   not leave stale response bytes: the persisted maintenance generation
   moves, and the next revalidation drops every cached response *)
let test_store_revalidation () =
  let dir = Filename.temp_file "dsserve" ".store" in
  Sys.remove dir;
  let store = Ds_store.Store.open_ ~dir () in
  let ds' = Dataset.build ~seed:Testenv.seed ~store Calibration.test_scale in
  Par.run ~jobs:4 @@ fun pool ->
  let t = Serve.create ~ds:ds' ~pool () in
  let _, _, h, b1 = get4 t "/v1/images" in
  Alcotest.(check (option string)) "cold miss" (Some "miss") (cache_state h);
  let _, _, h, _ = get4 t "/v1/images" in
  Alcotest.(check (option string)) "warm hit" (Some "hit") (cache_state h);
  (* no maintenance happened: revalidation is a no-op *)
  let gen0 = Serve.generation t in
  Serve.revalidate_store t;
  Alcotest.(check int) "no-op without maintenance" gen0 (Serve.generation t);
  (* out-of-process maintenance: clear the store behind the server *)
  let _ = Ds_store.Store.clear ~dir in
  Serve.revalidate_store t;
  Alcotest.(check int) "maintenance bumps the generation" (gen0 + 1) (Serve.generation t);
  let m = Serve.metrics t in
  Alcotest.(check int) "invalidation counted" 1 (Metrics.counter m "cache.store_invalidate");
  let _, _, h, b2 = get4 t "/v1/images" in
  Alcotest.(check (option string)) "cached bytes dropped" (Some "miss") (cache_state h);
  Alcotest.(check string) "re-rendered body identical" b1 b2;
  (* the generation is sticky: a second revalidation sees the new value *)
  Serve.revalidate_store t;
  Alcotest.(check int) "sticky after revalidation" (gen0 + 1) (Serve.generation t)

(* ---- v1 envelope, aliases, tracing ---------------------------------- *)

let test_trace_header_and_recent () =
  with_server @@ fun t _ ->
  let _, _, hdrs, _ = get4 t "/v1/healthz" in
  (match List.assoc_opt "x-depsurf-trace" hdrs with
  | Some id -> Alcotest.(check bool) "span id positive" true (int_of_string id > 0)
  | None -> Alcotest.fail "response lacks x-depsurf-trace");
  (* ids must differ between requests *)
  let _, _, h1, _ = get4 t "/v1/images" in
  let _, _, h2, _ = get4 t "/v1/images" in
  Alcotest.(check bool) "fresh span per request" true
    (List.assoc_opt "x-depsurf-trace" h1 <> List.assoc_opt "x-depsurf-trace" h2);
  let st, _, body = get t "/v1/trace/recent" in
  Alcotest.(check int) "trace recent 200" 200 st;
  let j = payload body in
  (match Json.member "spans" j with
  | Some (Json.List (_ :: _ as l)) ->
      let has_request =
        List.exists
          (function
            | Json.Obj fields ->
                List.assoc_opt "name" fields = Some (Json.String "serve.request")
            | _ -> false)
          l
      in
      Alcotest.(check bool) "serve.request span recorded" true has_request
  | _ -> Alcotest.fail "trace recent must list spans");
  match Json.member "dropped" j with
  | Some (Json.Int _) -> ()
  | _ -> Alcotest.fail "trace recent must report the drop counter"

let test_trace_inline_query () =
  with_server @@ fun t _ ->
  let st, _, body = get t "/v1/healthz?trace=1" in
  Alcotest.(check int) "traced healthz 200" 200 st;
  match Json.member "trace" (Json.of_string body) with
  | Some (Json.List (_ :: _)) -> ()
  | _ -> Alcotest.fail "?trace=1 must append the request's spans"

(* ---- overload, deadlines, drain ------------------------------------- *)

module Admission = Ds_serve.Admission
module Trace = Ds_trace.Trace

let mk_limits ?(max_inflight = 64) ?(read_s = 10.) ?(handle_s = 30.) () =
  {
    (Serve.default_limits ()) with
    Serve.li_max_inflight = max_inflight;
    li_read_timeout_s = read_s;
    li_handle_deadline_s = handle_s;
  }

let with_limited_server limits f =
  Par.run ~jobs:4 (fun pool ->
      f (Serve.create ~limits ~ds:(Lazy.force ds) ~pool ()) pool)

let span_recorded name attr =
  List.exists
    (fun sp -> sp.Trace.sp_name = name && List.mem attr sp.Trace.sp_attrs)
    (Trace.recent ~limit:500 ())

let test_admission_lattice () =
  let c = Admission.classify ~limit:8 in
  Alcotest.(check bool) "empty queue clean" true (c 0 = None);
  Alcotest.(check bool) "under half clean" true (c 3 = None);
  Alcotest.(check bool) "half is warning" true (c 4 = Some Diag.Warning);
  Alcotest.(check bool) "3/4 is degraded" true (c 6 = Some Diag.Degraded);
  Alcotest.(check bool) "at limit still admitted" true (c 8 = Some Diag.Degraded);
  Alcotest.(check bool) "over limit fatal" true (c 9 = Some Diag.Fatal);
  let a = Admission.create ~limit:2 () in
  (match Admission.admit a with
  | Admission.Admit _ -> ()
  | Admission.Shed _ -> Alcotest.fail "first connection shed");
  (match Admission.admit a with
  | Admission.Admit _ -> ()
  | Admission.Shed _ -> Alcotest.fail "second connection shed");
  (match Admission.admit a with
  | Admission.Shed ra -> Alcotest.(check bool) "retry-after >= 1" true (ra >= 1)
  | Admission.Admit _ -> Alcotest.fail "third connection must shed");
  Alcotest.(check int) "shed counted" 1 (Admission.shed_total a);
  Admission.release a ~service_s:0.01;
  (match Admission.admit a with
  | Admission.Admit _ -> ()
  | Admission.Shed _ -> Alcotest.fail "freed slot must admit");
  Alcotest.(check int) "inflight tracks" 2 (Admission.inflight a);
  Alcotest.(check int) "peak tracks" 2 (Admission.peak a)

(* stampede past the limit: the overflow is shed inline with a 503 and
   a Retry-After while admitted connections still get answered *)
let test_shed_under_overload () =
  with_limited_server (mk_limits ~max_inflight:2 ~read_s:1.0 ()) @@ fun t pool ->
  let path = temp_sock () in
  let h = Serve.start t (Serve.Unix_sock path) in
  let release = Atomic.make false in
  Fun.protect
    ~finally:(fun () ->
      Atomic.set release true;
      Serve.stop h)
    (fun () ->
      (* Hold every pool executor, the accept loop included (it runs
         queued tasks between selects), until all six connects are in
         the listen backlog: the loop then meets the whole stampede in
         one accept burst. Otherwise a connect landing while the loop
         itself waits out an admitted connection's read timeout finds
         that slot free again, and more than two are admitted. The pool
         spawns one worker domain fewer than the tasks it runs at once,
         so once that many blockers run, one runs on the accept loop. *)
      let executors = min (Par.jobs pool) (Domain.recommended_domain_count ()) in
      let started = Atomic.make 0 in
      for _ = 1 to executors do
        ignore
          (Par.submit pool (fun () ->
               Atomic.incr started;
               while not (Atomic.get release) do
                 Unix.sleepf 0.001
               done))
      done;
      let deadline = Unix.gettimeofday () +. 10. in
      while Atomic.get started < executors && Unix.gettimeofday () < deadline do
        Unix.sleepf 0.001
      done;
      Alcotest.(check int) "every executor held" executors (Atomic.get started);
      (* idle connections: each admitted one parks in the read until its
         timeout, holding its slot, so the later ones must shed *)
      let conns =
        List.init 6 (fun _ ->
            let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
            Unix.connect fd (Unix.ADDR_UNIX path);
            fd)
      in
      Atomic.set release true;
      let read_all fd =
        let buf = Buffer.create 1024 in
        let chunk = Bytes.create 1024 in
        (try Unix.setsockopt_float fd Unix.SO_RCVTIMEO 5.
         with Unix.Unix_error _ | Invalid_argument _ -> ());
        let rec go () =
          match Unix.read fd chunk 0 1024 with
          | 0 -> ()
          | n ->
              Buffer.add_subbytes buf chunk 0 n;
              go ()
          | exception Unix.Unix_error _ -> ()
        in
        go ();
        Buffer.contents buf
      in
      let responses = List.map read_all conns in
      List.iter (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ()) conns;
      let statuses =
        List.map (fun r -> try Scanf.sscanf r "HTTP/1.1 %d" Fun.id with _ -> -1) responses
      in
      let sheds = List.filter (fun s -> s = 503) statuses in
      Alcotest.(check bool)
        ("at least 3 shed: " ^ String.concat "," (List.map string_of_int statuses))
        true
        (List.length sheds >= 3);
      (* every 503 carries Retry-After and a JSON envelope *)
      List.iter2
        (fun st r ->
          if st = 503 then begin
            (match Ds_util.Strutil.find_sub r ~sub:"Retry-After: " with
            | Some _ -> ()
            | None -> Alcotest.fail ("503 without Retry-After: " ^ r));
            match Ds_util.Strutil.find_sub r ~sub:"\r\n\r\n" with
            | Some i -> (
                let body = String.sub r (i + 4) (String.length r - i - 4) in
                match Json.member "error" (Api.data (Json.of_string body)) with
                | Some (Json.String _) -> ()
                | _ -> Alcotest.fail "503 body lacks data.error")
            | None -> Alcotest.fail "503 without body"
          end)
        statuses responses;
      let m = Serve.metrics t in
      Alcotest.(check bool) "shed metric" true (Metrics.counter m "overload.shed" >= 3);
      Alcotest.(check bool) "admitted metric" true
        (Metrics.counter m "admission.admitted" >= 2);
      Alcotest.(check bool) "serve.shed span pinned" true
        (span_recorded "serve.shed" ("pressure", "fatal"));
      (* the admission stats are part of /v1/metrics *)
      let _, _, body = get t "/v1/metrics" in
      match Json.member "admission" (payload body) with
      | Some (Json.Obj fields) ->
          Alcotest.(check bool) "admission.limit in metrics" true
            (List.assoc_opt "limit" fields = Some (Json.Int 2));
          Alcotest.(check bool) "admission.shed in metrics" true
            (match List.assoc_opt "shed" fields with
            | Some (Json.Int n) -> n >= 3
            | _ -> false)
      | _ -> Alcotest.fail "/v1/metrics lacks the admission object")

let test_degraded_pressure_header () =
  with_server @@ fun t _ ->
  let _, _, hdrs, _ =
    Serve.handle_request t ~pressure:Diag.Degraded ~meth:"GET" ~target:"/v1/healthz" ~body:""
  in
  Alcotest.(check (option string))
    "pressure header" (Some "degraded")
    (List.assoc_opt "x-depsurf-pressure" hdrs);
  let _, _, hdrs, _ = get4 t "/v1/healthz" in
  Alcotest.(check (option string)) "no header without pressure" None
    (List.assoc_opt "x-depsurf-pressure" hdrs)

(* an expired handling deadline answers 503 + Retry-After, not a hang
   and not a 500 *)
let test_deadline_expiry_503 () =
  with_limited_server (mk_limits ~handle_s:1e-9 ()) @@ fun t _ ->
  let st, _, hdrs, body = get4 t "/v1/surface/4.4-x86-generic" in
  Alcotest.(check int) "deadline -> 503" 503 st;
  Alcotest.(check bool) "retry-after present" true
    (List.assoc_opt "Retry-After" hdrs <> None);
  (match Json.member "error" (Api.data (Json.of_string body)) with
  | Some (Json.String m) ->
      Alcotest.(check bool) ("mentions deadline: " ^ m) true
        (Ds_util.Strutil.find_sub m ~sub:"deadline" <> None)
  | _ -> Alcotest.fail "503 body lacks data.error");
  Alcotest.(check bool) "deadline metric" true
    (Metrics.counter (Serve.metrics t) "overload.deadline" >= 1);
  Alcotest.(check bool) "serve.timeout span pinned" true
    (span_recorded "serve.timeout" ("pressure", "deadline"))

(* a stalled client is evicted with a 408 envelope instead of pinning a
   pool worker forever *)
let test_stalled_client_408 () =
  with_limited_server (mk_limits ~read_s:0.3 ()) @@ fun t _ ->
  let path = temp_sock () in
  let h = Serve.start t (Serve.Unix_sock path) in
  Fun.protect
    ~finally:(fun () -> Serve.stop h)
    (fun () ->
      let r = raw_roundtrip (Serve.Unix_sock path) "GET /v1/heal" in
      let st = try Scanf.sscanf r "HTTP/1.1 %d" Fun.id with _ -> -1 in
      Alcotest.(check int) "stall -> 408" 408 st;
      Alcotest.(check bool) "timeout metric" true
        (Metrics.counter (Serve.metrics t) "errors.timeout" >= 1);
      Alcotest.(check bool) "serve.timeout read span" true
        (span_recorded "serve.timeout" ("pressure", "read")))

let test_oversized_requests_rejected () =
  with_server @@ fun t _ ->
  let path = temp_sock () in
  let h = Serve.start t (Serve.Unix_sock path) in
  Fun.protect
    ~finally:(fun () -> Serve.stop h)
    (fun () ->
      let status r = try Scanf.sscanf r "HTTP/1.1 %d" Fun.id with _ -> -1 in
      let big =
        "GET /v1/healthz HTTP/1.1\r\nX-Pad: " ^ String.make 70_000 'a' ^ "\r\n\r\n"
      in
      Alcotest.(check int) "oversized head -> 431" 431
        (status (raw_roundtrip (Serve.Unix_sock path) big));
      let fat =
        "POST /v1/mismatch HTTP/1.1\r\nContent-Length: 20000000\r\n\r\nxx"
      in
      Alcotest.(check int) "oversized body -> 413" 413
        (status (raw_roundtrip (Serve.Unix_sock path) fat)))

(* graceful drain: stop must wait for an in-flight connection to finish
   and answer it — zero dropped — before the listener closes *)
let test_drain_zero_dropped () =
  with_limited_server (mk_limits ~read_s:5.0 ()) @@ fun t _ ->
  let path = temp_sock () in
  let h = Serve.start t (Serve.Unix_sock path) in
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.close fd with Unix.Unix_error _ -> ());
      Serve.stop h)
    (fun () ->
      Unix.connect fd (Unix.ADDR_UNIX path);
      let part = "GET /v1/healthz HTTP/1.1\r\nHost: x" in
      ignore (Unix.write_substring fd part 0 (String.length part));
      (* wait until the connection holds its admission slot *)
      let deadline = Unix.gettimeofday () +. 5. in
      while Admission.inflight (Serve.admission t) < 1 && Unix.gettimeofday () < deadline do
        Unix.sleepf 0.005
      done;
      Alcotest.(check int) "connection admitted" 1 (Admission.inflight (Serve.admission t));
      let stopper = Domain.spawn (fun () -> Serve.stop h) in
      (* the drain is now waiting on us; finish the request *)
      Unix.sleepf 0.1;
      ignore (Unix.write_substring fd "\r\n\r\n" 0 4);
      let buf = Buffer.create 256 in
      let chunk = Bytes.create 256 in
      let rec go () =
        match Unix.read fd chunk 0 256 with
        | 0 -> ()
        | n ->
            Buffer.add_subbytes buf chunk 0 n;
            go ()
        | exception Unix.Unix_error _ -> ()
      in
      go ();
      Domain.join stopper;
      let r = Buffer.contents buf in
      let st = try Scanf.sscanf r "HTTP/1.1 %d" Fun.id with _ -> -1 in
      Alcotest.(check int) "in-flight request answered during drain" 200 st;
      Alcotest.(check int) "nothing abandoned" 0
        (Metrics.counter (Serve.metrics t) "drain.abandoned");
      Alcotest.(check bool) "serve.drain span pinned" true
        (span_recorded "serve.drain" ("pressure", "drain"));
      Alcotest.(check bool) "socket unlinked" false (Sys.file_exists path))

let test_client_retry () =
  (* pure backoff shape first: exponential, capped, jittered in
     [c/2, c], honouring Retry-After *)
  let prng = Ds_util.Prng.create 7L in
  let d0 = Serve.Client.backoff_delay ~prng ~base_ms:50. ~cap_ms:2000. ~retry_after:None 0 in
  Alcotest.(check bool) "attempt 0 in [25,50]ms" true (d0 >= 0.025 && d0 <= 0.05);
  let d10 = Serve.Client.backoff_delay ~prng ~base_ms:50. ~cap_ms:2000. ~retry_after:None 10 in
  Alcotest.(check bool) "attempt 10 capped at 2s" true (d10 >= 1.0 && d10 <= 2.0);
  let dra =
    Serve.Client.backoff_delay ~prng ~base_ms:50. ~cap_ms:2000. ~retry_after:(Some 10.) 0
  in
  Alcotest.(check bool) "retry-after honoured in full above the cap" true
    (dra >= 5.0 && dra <= 10.0);
  (* a live server answers through request_retry unchanged *)
  with_server @@ fun t _ ->
  let path = temp_sock () in
  let h = Serve.start t (Serve.Unix_sock path) in
  Fun.protect
    ~finally:(fun () -> Serve.stop h)
    (fun () ->
      let st, _, _ =
        Serve.Client.request_retry (Serve.Unix_sock path) ~meth:"GET" ~path:"/v1/healthz"
      in
      Alcotest.(check int) "request_retry 200" 200 st);
  (* a dead address exhausts its retries and re-raises *)
  let t0 = Unix.gettimeofday () in
  (match
     Serve.Client.request_retry ~retries:2 ~base_ms:5. ~cap_ms:20.
       (Serve.Unix_sock (path ^ ".gone"))
       ~meth:"GET" ~path:"/v1/healthz"
   with
  | _ -> Alcotest.fail "request to a dead socket must raise"
  | exception Unix.Unix_error _ -> ());
  Alcotest.(check bool) "retries actually slept" true (Unix.gettimeofday () -. t0 >= 0.005)

let test_deadline_propagates_through_pool () =
  Par.run ~jobs:4 (fun pool ->
      Ds_util.Deadline.with_timeout ~label:"test" 60. (fun () ->
          let fut =
            Par.submit pool (fun () ->
                Alcotest.(check bool) "armed on worker" true (Ds_util.Deadline.armed ());
                Ds_util.Deadline.remaining ())
          in
          let rem = Par.await fut in
          Alcotest.(check bool) "remaining sane" true (rem > 0. && rem <= 60.));
      let fut = Par.submit pool (fun () -> Ds_util.Deadline.armed ()) in
      Alcotest.(check bool) "unarmed outside" false (Par.await fut))


(* ---- watch API, mutation envelope, legacy sunset -------------------- *)

let post t target body =
  let st, ct, _, rbody = Serve.handle_request t ~meth:"POST" ~target ~body in
  (st, ct, rbody)

let b64 s = Ds_util.B64.encode s

let test_subscriptions_crud () =
  with_server @@ fun t _ ->
  let st, _, body =
    post t "/v1/subscriptions" {|{"deps": ["func:vfs_read", "struct:file"], "label": "probe"}|}
  in
  Alcotest.(check int) "create 200" 200 st;
  let id = member_str "id" (payload body) in
  Alcotest.(check bool) "content-addressed id" true (String.length id > 8);
  (* re-registering the same set (different order) answers the same id *)
  let _, _, body2 = post t "/v1/subscriptions" {|{"deps": ["struct:file", "vfs_read"]}|} in
  Alcotest.(check string) "idempotent create" id (member_str "id" (payload body2));
  let st, _, body = get t ("/v1/subscriptions/" ^ id) in
  Alcotest.(check int) "get 200" 200 st;
  Alcotest.(check string) "label kept" "probe" (member_str "label" (payload body));
  let st, _, body = get t "/v1/subscriptions" in
  Alcotest.(check int) "list 200" 200 st;
  (match Json.member "subscriptions" (payload body) with
  | Some (Json.List [ _ ]) -> ()
  | _ -> Alcotest.fail "expected one listed subscription");
  let st, _, _, _ =
    Serve.handle_request t ~meth:"DELETE" ~target:("/v1/subscriptions/" ^ id) ~body:""
  in
  Alcotest.(check int) "delete 200" 200 st;
  let st, _, _ = get t ("/v1/subscriptions/" ^ id) in
  Alcotest.(check int) "gone 404" 404 st;
  (* bad deps are rejected with one diagnostic per offender *)
  let st, _, body = post t "/v1/subscriptions" {|{"deps": ["nosuchkind:x", "field:broken"]}|} in
  Alcotest.(check int) "bad deps 400" 400 st;
  (match Json.member "diagnostics" (Json.of_string body) with
  (* the envelope's top-line message plus one diagnostic per offender *)
  | Some (Json.List l) -> Alcotest.(check int) "per-dep diagnostics" 3 (List.length l)
  | _ -> Alcotest.fail "missing diagnostics");
  let st, _, _, _ = Serve.handle_request t ~meth:"PUT" ~target:"/v1/subscriptions" ~body:"" in
  Alcotest.(check int) "PUT 405" 405 st

let test_mutation_envelope_equivalence () =
  with_server @@ fun t _ ->
  let bytes = Ds_bpf.Obj.write (corpus_obj "biotop") in
  let bare = post t "/v1/verify?image=5.4-x86-generic" bytes in
  (* enveloped spelling 1: body as base64, image as an envelope param *)
  let env1 =
    Printf.sprintf {|{"v": 1, "params": {"image": "5.4-x86-generic"}, "body": "%s"}|}
      (b64 bytes)
  in
  let enveloped = post t "/v1/verify" env1 in
  let strip (st, ct, body) = (st, ct, body) in
  Alcotest.(check bool) "bare and enveloped verify agree" true (strip bare = strip enveloped);
  (* subscriptions: inline-JSON envelope body vs bare body *)
  let bare_sub = post t "/v1/subscriptions" {|{"deps": ["func:vfs_fsync"]}|} in
  let env_sub =
    post t "/v1/subscriptions" {|{"v": 1, "body": {"deps": ["func:vfs_fsync"]}}|}
  in
  Alcotest.(check bool) "bare and enveloped subscription agree" true (bare_sub = env_sub);
  (* malformed envelopes answer 400 with accumulated diagnostics *)
  let st, _, body =
    post t "/v1/subscriptions" {|{"v": 7, "params": {"a": []}, "junk": 1, "body": "%%%"}|}
  in
  Alcotest.(check int) "envelope 400" 400 st;
  (match Json.member "diagnostics" (Json.of_string body) with
  | Some (Json.List (_ :: _ :: _)) -> ()
  | _ -> Alcotest.fail "expected several envelope diagnostics");
  Alcotest.(check string) "envelope health fatal" "fatal"
    (member_str "health" (Json.of_string body))

(* The response cache keys on the params the handlers read: the first
   binding of each name (envelope params ahead of the query string), so
   two requests with the same names and values in conflicting order get
   their own answers, and a value spelling "k=v" stays one value. *)
let test_cache_key_effective_params () =
  with_server @@ fun t _ ->
  let bytes = Ds_bpf.Obj.write (corpus_obj "biotop") in
  let enveloped image =
    Printf.sprintf {|{"v": 1, "params": {"image": "%s"}, "body": "%s"}|} image (b64 bytes)
  in
  let bare image = post t ("/v1/verify?image=" ^ image) bytes in
  let a = "4.4-x86-generic" and b = "5.4-x86-generic" in
  let env_a = post t ("/v1/verify?image=" ^ b) (enveloped a) in
  let env_b = post t ("/v1/verify?image=" ^ a) (enveloped b) in
  Alcotest.(check bool) "the two verify reports differ" true (env_a <> env_b);
  Alcotest.(check bool) "envelope image 4.4 wins" true (env_a = bare a);
  Alcotest.(check bool) "envelope image 5.4 wins" true (env_b = bare b);
  (* the same for ?suggest= on /v1/mismatch *)
  let suggest v = Printf.sprintf {|{"v": 1, "params": {"suggest": "%s"}, "body": "%s"}|} v (b64 bytes) in
  let m1 = post t "/v1/mismatch?suggest=0" (suggest "1") in
  let m0 = post t "/v1/mismatch?suggest=1" (suggest "0") in
  Alcotest.(check bool) "envelope suggest=1 wins" true (m1 = post t "/v1/mismatch?suggest=1" bytes);
  Alcotest.(check bool) "envelope suggest=0 wins" true (m0 = post t "/v1/mismatch" bytes);
  (* a repeated query name: the first binding answers, in either order *)
  let deps = "/v1/graph/deps/vfs_fsync" in
  let _, _, ab = get t (deps ^ "?image=" ^ a ^ "&image=" ^ b) in
  let _, _, ba = get t (deps ^ "?image=" ^ b ^ "&image=" ^ a) in
  let _, _, only_a = get t (deps ^ "?image=" ^ a) in
  let _, _, only_b = get t (deps ^ "?image=" ^ b) in
  Alcotest.(check string) "first image= answers" only_a ab;
  Alcotest.(check string) "first image= answers, swapped" only_b ba;
  (* a decoded value holding "?k=v" is one unknown image, not a hit on
     the two-param answer *)
  let st, _, _ = get t (deps ^ "?image=" ^ b ^ "&transitive=1") in
  Alcotest.(check int) "two params 200" 200 st;
  let st, _, _ = get t (deps ^ "?image=" ^ b ^ "%3Ftransitive%3D1") in
  Alcotest.(check int) "one param holding ?transitive=1 is 404" 404 st

(* golden pin of the error envelope's exact wire bytes: every non-2xx
   body is rendered by Api.error_envelope, so this is the contract
   error-handling clients parse against *)
let test_error_envelope_golden () =
  Alcotest.(check string) "error envelope bytes"
    "{\n\
    \  \"v\": 1,\n\
    \  \"health\": \"fatal\",\n\
    \  \"data\": {\n\
    \    \"error\": \"method not allowed\",\n\
    \    \"status\": 405\n\
    \  },\n\
    \  \"diagnostics\": [\n\
    \    \"method not allowed\",\n\
    \    \"use GET\"\n\
    \  ]\n\
     }"
    (Json.to_string
       (Api.error_envelope ~status:405 ~diagnostics:[ "use GET" ] "method not allowed"))

let test_error_envelope_uniform () =
  with_server @@ fun t _ ->
  (* every non-2xx body is the same envelope: v + health + diagnostics *)
  List.iter
    (fun (meth, target) ->
      let st, ct, _, body = Serve.handle_request t ~meth ~target ~body:"" in
      Alcotest.(check bool) (target ^ " is an error") true (st >= 400);
      Alcotest.(check string) (target ^ " json") "application/json" ct;
      let j = Json.of_string body in
      (match Json.member "v" j with
      | Some (Json.Int 1) -> ()
      | _ -> Alcotest.fail (target ^ ": missing v"));
      Alcotest.(check string) (target ^ " health") "fatal" (member_str "health" j);
      (match Json.member "diagnostics" j with
      | Some (Json.List (_ :: _)) -> ()
      | _ -> Alcotest.fail (target ^ ": missing diagnostics"));
      match Json.member "data" j with
      | Some (Json.Obj fields) ->
          (match List.assoc_opt "status" fields with
          | Some (Json.Int s) -> Alcotest.(check int) (target ^ " echoed status") st s
          | _ -> Alcotest.fail (target ^ ": no status"));
          if List.assoc_opt "error" fields = None then
            Alcotest.fail (target ^ ": no error message")
      | _ -> Alcotest.fail (target ^ ": no data"))
    [
      ("GET", "/v1/nosuch");
      ("POST", "/v1/images");
      ("POST", "/v1/mismatch");
      ("GET", "/v1/surface/9.9-x86-generic");
      ("GET", "/v1/watch/deadbeef");
      ("PATCH", "/v1/watch/ingest");
    ]

(* there are no legacy routes: every spelling outside /v1 answers the
   404 pointer, also right after its /v1 twin was answered and cached *)
let test_no_legacy_routes () =
  with_server @@ fun t _ ->
  let points_at_v1 path body =
    match Json.member "data" (Json.of_string body) with
    | Some (Json.Obj fields) -> (
        match List.assoc_opt "error" fields with
        | Some (Json.String m) ->
            let path = match Ds_util.Strutil.cut ~on:'?' path with Some (p, _) -> p | None -> path in
            Ds_util.Strutil.find_sub m ~sub:("/v1" ^ path) <> None
        | _ -> false)
    | _ -> false
  in
  List.iter
    (fun (meth, path) ->
      (* answer (and cache, where cacheable) the /v1 twin first *)
      let st, _, _, _ = Serve.handle_request t ~meth ~target:("/v1" ^ path) ~body:"" in
      if path <> "/no/such" then
        Alcotest.(check bool) ("/v1" ^ path ^ " still answers") true (st <> 404);
      let st, ct, hdrs, body = Serve.handle_request t ~meth ~target:path ~body:"" in
      Alcotest.(check int) (path ^ " -> 404") 404 st;
      Alcotest.(check string) (path ^ " json") "application/json" ct;
      Alcotest.(check bool) (path ^ " points at /v1") true (points_at_v1 path body);
      Alcotest.(check (option string)) (path ^ " uncached") None (cache_state hdrs))
    [
      ("GET", "/healthz");
      ("GET", "/images");
      ("GET", "/surface/4.4-x86-generic");
      ("GET", "/surface/4.4-x86-generic?kind=func&name=vfs_fsync");
      ("GET", "/diff/4.4-x86-generic/5.4-x86-generic");
      ("GET", "/graph/deps/vfs_fsync");
      ("GET", "/graph/rdeps/func:vfs_fsync?transitive=1");
      ("GET", "/metrics");
      ("GET", "/trace/recent");
      ("GET", "/subscriptions");
      ("POST", "/mismatch");
      ("POST", "/verify");
      ("GET", "/no/such");
    ]

(* Client-keyed answers are bounded by the response cache: after two
   equal rounds of distinct objects, together well over its 512 entries,
   the heap grew by no more than the cache's own occupancy change (plus a
   quarter of round two's answers for noise). An unbounded table keyed
   by object bytes would keep all of round two. A flipped bit in the BTF
   section makes /v1/mismatch answer 400, never a 500. *)
let test_client_keyed_memory_bounded () =
  let bytes = Ds_bpf.Obj.write (corpus_obj "biotop") in
  let per_round = 300 in
  (* distinct single-bit mutants that still parse *)
  let mutants =
    let rec go pos bit acc k =
      if k = 2 * per_round then List.rev acc
      else if pos >= String.length bytes then Alcotest.fail "too few parseable mutants"
      else
        let next_pos, next_bit = if bit = 7 then (pos + 1, 0) else (pos, bit + 1) in
        let m = Faultgen.flip_bit bytes ~byte:pos ~bit in
        match Ds_util.Diag.ok (Ds_bpf.Obj.read m) with
        | exception _ -> go next_pos next_bit acc k
        | _ -> go next_pos next_bit (m :: acc) (k + 1)
    in
    go (String.length bytes / 2) 0 [] 0
  in
  let round1 = List.filteri (fun i _ -> i < per_round) mutants
  and round2 = List.filteri (fun i _ -> i >= per_round) mutants in
  with_server @@ fun t _ ->
  (* spans land in bounded rings that are still filling; keep them out *)
  Ds_trace.Trace.disable ();
  Fun.protect ~finally:Ds_trace.Trace.enable @@ fun () ->
  let post_round objs =
    List.fold_left
      (fun acc obj ->
        List.fold_left
          (fun acc target ->
            let st, _, _, body = Serve.handle_request t ~meth:"POST" ~target ~body:obj in
            if st <> 200 && st <> 400 then Alcotest.failf "%s answered %d: %s" target st body;
            if st = 200 then acc + String.length body else acc)
          acc [ "/v1/verify"; "/v1/mismatch" ])
      0 objs
  in
  let live_bytes () =
    Gc.compact ();
    (Gc.stat ()).Gc.live_words * (Sys.word_size / 8)
  in
  ignore (post_round round1);
  let live1 = live_bytes () in
  let _, cached1 = response_cache_stats t in
  let answered2 = post_round round2 in
  let live2 = live_bytes () in
  let entries2, cached2 = response_cache_stats t in
  Alcotest.(check int) "the response cache is full" 512 entries2;
  let explained = max 0 (cached2 - cached1) + (answered2 / 4) in
  Alcotest.(check bool)
    (Printf.sprintf "heap growth %d bytes within %d (round two answered %d bytes)"
       (live2 - live1) explained answered2)
    true
    (live2 - live1 < explained)

let test_watch_poll_immediate () =
  with_server @@ fun t _ ->
  let st, _, _ = get t "/v1/watch/deadbeef" in
  Alcotest.(check int) "unknown sub 404" 404 st;
  let _, _, body = post t "/v1/subscriptions" {|{"deps": ["func:vfs_read"]}|} in
  let id = member_str "id" (payload body) in
  let st, _, rbody = get t ("/v1/watch/" ^ id) in
  Alcotest.(check int) "no events: 204" 204 st;
  Alcotest.(check string) "no body" "" rbody;
  (* ingest a release that removes the subscribed func, then poll again *)
  let base = Dataset.surface (Lazy.force ds) (Version.v 5 4) Config.x86_generic in
  let next =
    Surface.v ~version:base.Surface.s_version ~arch:base.Surface.s_arch
      ~flavor:base.Surface.s_flavor ~gcc:base.Surface.s_gcc
      ~funcs:(List.filter (fun f -> f.Surface.fe_name <> "vfs_read") base.Surface.s_funcs)
      ~structs:base.Surface.s_structs ~tracepoints:base.Surface.s_tracepoints
      ~syscalls:base.Surface.s_syscalls
  in
  let st, _, ibody =
    post t "/v1/watch/ingest?base=5.4-x86-generic&name=r1&kind=surface"
      (Codec.encode_surface next)
  in
  Alcotest.(check int) "ingest 200" 200 st;
  (match Json.member "matched" (payload ibody) with
  | Some (Json.Int n) -> Alcotest.(check int) "one matched sub" 1 n
  | _ -> Alcotest.fail "no matched count");
  let st, _, body1 = get t ("/v1/watch/" ^ id ^ "?since=0") in
  Alcotest.(check int) "events: 200" 200 st;
  let cursor =
    match Json.member "cursor" (payload body1) with
    | Some (Json.Int c) -> c
    | _ -> Alcotest.fail "no cursor"
  in
  Alcotest.(check bool) "cursor advanced" true (cursor >= 1);
  (* byte-identical replay from the same cursor *)
  let _, _, body2 = get t ("/v1/watch/" ^ id ^ "?since=0") in
  Alcotest.(check string) "replay byte-identical" body1 body2;
  let st, _, _ = get t ("/v1/watch/" ^ id ^ "?since=" ^ string_of_int cursor) in
  Alcotest.(check int) "past cursor: 204" 204 st


(* [payload] with the last entry of its string table cut out: the body
   still refers to that string, by an index now past the table *)
let drop_last_string payload =
  let module R = Ds_util.Bytesio.Reader in
  let module W = Ds_util.Bytesio.Writer in
  let r = R.of_string payload in
  let n = R.uleb128 r in
  let first = R.pos r in
  let last = ref first in
  for _ = 1 to n do
    last := R.pos r;
    ignore (R.bytes r (R.uleb128 r))
  done;
  let rest = R.pos r in
  let w = W.create () in
  W.uleb128 w (n - 1);
  W.bytes w (String.sub payload first (!last - first));
  W.bytes w (String.sub payload rest (String.length payload - rest));
  W.contents w

let test_watch_ingest_malformed () =
  with_server @@ fun t _ ->
  let _, _, body = post t "/v1/subscriptions" {|{"deps": ["func:vfs_read"]}|} in
  let id = member_str "id" (payload body) in
  let cursor () =
    let _, _, body = get t "/v1/subscriptions" in
    match Json.member "cursor" (payload body) with
    | Some (Json.Int c) -> c
    | _ -> Alcotest.fail "no cursor"
  in
  let before = cursor () in
  (* well-formed, this release would match: it drops vfs_read *)
  let base = Dataset.surface (Lazy.force ds) (Version.v 5 4) Config.x86_generic in
  let next =
    Surface.v ~version:base.Surface.s_version ~arch:base.Surface.s_arch
      ~flavor:base.Surface.s_flavor ~gcc:base.Surface.s_gcc
      ~funcs:(List.filter (fun f -> f.Surface.fe_name <> "vfs_read") base.Surface.s_funcs)
      ~structs:base.Surface.s_structs ~tracepoints:base.Surface.s_tracepoints
      ~syscalls:base.Surface.s_syscalls
  in
  let st, _, ibody =
    post t "/v1/watch/ingest?base=5.4-x86-generic&name=bad&kind=surface"
      (drop_last_string (Codec.encode_surface next))
  in
  Alcotest.(check int) "out-of-range string index: 400" 400 st;
  Alcotest.(check bool) "says the payload is undecodable" true
    (Ds_util.Strutil.find_sub ibody ~sub:"undecodable surface payload" <> None);
  let st, _, _ = get t ("/v1/watch/" ^ id ^ "?since=0") in
  Alcotest.(check int) "no events: 204" 204 st;
  Alcotest.(check int) "cursor unchanged" before (cursor ())


(* ---- long-poll parking over real sockets ---------------------------- *)

(* a release surface with the named func dropped, as codec bytes — the
   minimal breaking ingest payload *)
let sabotaged_surface_bytes victim =
  let base = Dataset.surface (Lazy.force ds) (Version.v 5 4) Config.x86_generic in
  Codec.encode_surface
    (Surface.v ~version:base.Surface.s_version ~arch:base.Surface.s_arch
       ~flavor:base.Surface.s_flavor ~gcc:base.Surface.s_gcc
       ~funcs:(List.filter (fun f -> f.Surface.fe_name <> victim) base.Surface.s_funcs)
       ~structs:base.Surface.s_structs ~tracepoints:base.Surface.s_tracepoints
       ~syscalls:base.Surface.s_syscalls)

let register_over addr victim =
  let st, _, body =
    Serve.Client.request_full
      ~body:(Printf.sprintf {|{"deps": ["func:%s"]}|} victim)
      addr ~meth:"POST" ~path:"/v1/subscriptions"
  in
  Alcotest.(check int) "subscription created" 200 st;
  match Json.member "id" (Api.data (Json.of_string body)) with
  | Some (Json.String id) -> id
  | _ -> Alcotest.fail "no subscription id"

let rec await_parked ?(tries = 100) t =
  if Serve.parked_count t = 0 then
    if tries = 0 then Alcotest.fail "poller never parked"
    else begin
      Unix.sleepf 0.05;
      await_parked ~tries:(tries - 1) t
    end

let test_long_poll_delivery () =
  with_server @@ fun t _ ->
  let base = Dataset.surface (Lazy.force ds) (Version.v 5 4) Config.x86_generic in
  let victim = (List.hd base.Surface.s_funcs).Surface.fe_name in
  let path = temp_sock () in
  let addr = Serve.Unix_sock path in
  let h = Serve.start t addr in
  Fun.protect
    ~finally:(fun () -> Serve.stop h)
    (fun () ->
      let id = register_over addr victim in
      (* the poller parks: no worker is held, and the answer arrives
         when the ingest lands, not at the wait deadline *)
      let poller =
        Domain.spawn (fun () ->
            let t0 = Unix.gettimeofday () in
            let resp =
              Serve.Client.request_full ~timeout_s:15. addr ~meth:"GET"
                ~path:(Printf.sprintf "/v1/watch/%s?wait=10&since=0" id)
            in
            (resp, Unix.gettimeofday () -. t0))
      in
      await_parked t;
      let st, _, _ =
        Serve.Client.request_full ~body:(sabotaged_surface_bytes victim) addr ~meth:"POST"
          ~path:"/v1/watch/ingest?base=5.4-x86-generic&name=chaos&kind=surface"
      in
      Alcotest.(check int) "ingest 200" 200 st;
      let (st, _, body), elapsed = Domain.join poller in
      Alcotest.(check int) "poller woken with events" 200 st;
      Alcotest.(check bool) "woken well before the wait deadline" true (elapsed < 8.);
      (match Json.member "events" (Api.data (Json.of_string body)) with
      | Some (Json.List (_ :: _)) -> ()
      | _ -> Alcotest.fail "empty long-poll delivery");
      Alcotest.(check int) "lot empty after delivery" 0 (Serve.parked_count t);
      (* with the cursor past the event, a bounded wait times out clean *)
      let cursor =
        match Json.member "cursor" (Api.data (Json.of_string body)) with
        | Some (Json.Int c) -> c
        | _ -> Alcotest.fail "no cursor"
      in
      let st, _, body =
        Serve.Client.request_full addr ~meth:"GET"
          ~path:(Printf.sprintf "/v1/watch/%s?wait=0.3&since=%d" id cursor)
      in
      Alcotest.(check int) "timed-out park is 204" 204 st;
      Alcotest.(check string) "204 has no body" "" body)

let test_drain_releases_parked () =
  with_server @@ fun t _ ->
  let path = temp_sock () in
  let addr = Serve.Unix_sock path in
  let h = Serve.start t addr in
  let id = register_over addr "vfs_read" in
  let poller =
    Domain.spawn (fun () ->
        Serve.Client.request_full ~timeout_s:15. addr ~meth:"GET"
          ~path:(Printf.sprintf "/v1/watch/%s?wait=12" id))
  in
  await_parked t;
  (* stop with a poller parked: the drain contract says it is answered —
     a clean 204, not a slammed connection *)
  Serve.stop h;
  let st, _, _ = Domain.join poller in
  Alcotest.(check int) "drained poller gets 204" 204 st;
  Alcotest.(check int) "lot empty after stop" 0 (Serve.parked_count t)

let suites =
  [
    ( "serve",
      [
        Alcotest.test_case "image names" `Quick test_image_names;
        Alcotest.test_case "routing" `Quick test_routing;
        Alcotest.test_case "surface queries" `Quick test_surface_queries;
        Alcotest.test_case "single-flight hydration" `Quick test_single_flight;
        Alcotest.test_case "mismatch byte-identity" `Slow test_mismatch_identity;
        Alcotest.test_case "verify endpoint" `Slow test_verify_endpoint;
        Alcotest.test_case "metrics document" `Quick test_metrics_document;
        Alcotest.test_case "cache hit identity" `Quick test_response_cache_hit_identity;
        Alcotest.test_case "conditional requests" `Quick test_conditional_requests;
        Alcotest.test_case "generation invalidates" `Quick test_generation_invalidates;
        Alcotest.test_case "cache scope" `Quick test_cache_scope;
        Alcotest.test_case "graph endpoints" `Quick test_graph_endpoints;
        Alcotest.test_case "graph blast endpoint" `Slow test_graph_blast_endpoint;
        Alcotest.test_case "blast single-flight" `Slow test_blast_single_flight;
        Alcotest.test_case "blast corpus built once" `Slow test_blast_corpus_built_once;
        Alcotest.test_case "store maintenance revalidation" `Quick test_store_revalidation;
        Alcotest.test_case "respcache lru" `Quick test_respcache_lru;
        Alcotest.test_case "trace header and recent" `Quick test_trace_header_and_recent;
        Alcotest.test_case "inline trace query" `Quick test_trace_inline_query;
        Alcotest.test_case "subscriptions crud" `Quick test_subscriptions_crud;
        Alcotest.test_case "mutation envelope equivalence" `Slow
          test_mutation_envelope_equivalence;
        Alcotest.test_case "cache key effective params" `Slow test_cache_key_effective_params;
        Alcotest.test_case "error envelope golden" `Quick test_error_envelope_golden;
        Alcotest.test_case "uniform error envelope" `Quick test_error_envelope_uniform;
        Alcotest.test_case "no-legacy-routes 404" `Quick test_no_legacy_routes;
        Alcotest.test_case "client-keyed memory bounded" `Slow test_client_keyed_memory_bounded;
        Alcotest.test_case "watch poll" `Quick test_watch_poll_immediate;
        Alcotest.test_case "watch ingest malformed surface" `Quick test_watch_ingest_malformed;
      ] );
    ( "serve.socket",
      [
        Alcotest.test_case "unix socket roundtrip" `Quick test_unix_socket_roundtrip;
        Alcotest.test_case "tcp roundtrip" `Quick test_tcp_roundtrip;
        Alcotest.test_case "raw header parsing" `Quick test_raw_header_parsing;
        Alcotest.test_case "1-worker pool rejected" `Quick test_start_requires_two_workers;
        Alcotest.test_case "degraded file image answers 200" `Quick
          test_degraded_file_image_is_200;
        Alcotest.test_case "long-poll delivery" `Quick test_long_poll_delivery;
        Alcotest.test_case "drain releases parked pollers" `Quick
          test_drain_releases_parked;
      ] );
    ( "serve.overload",
      [
        Alcotest.test_case "admission lattice" `Quick test_admission_lattice;
        Alcotest.test_case "shed under overload" `Quick test_shed_under_overload;
        Alcotest.test_case "degraded pressure header" `Quick test_degraded_pressure_header;
        Alcotest.test_case "deadline expiry 503" `Quick test_deadline_expiry_503;
        Alcotest.test_case "stalled client 408" `Quick test_stalled_client_408;
        Alcotest.test_case "oversized requests rejected" `Quick
          test_oversized_requests_rejected;
        Alcotest.test_case "drain zero dropped" `Quick test_drain_zero_dropped;
        Alcotest.test_case "client retry" `Quick test_client_retry;
        Alcotest.test_case "deadline through pool" `Quick
          test_deadline_propagates_through_pool;
      ] );
  ]
