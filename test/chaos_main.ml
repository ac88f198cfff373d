(* The socket-level chaos harness behind the @serve-chaos alias: a
   seeded population of misbehaving clients (Ds_faultgen.Chaos) driven
   against a live in-process server with short limits. Invariants:

   - the server never crashes and stays answerable afterwards;
   - no fd leaks across the whole sweep (/proc/self/fd);
   - every answerable scenario gets one of its expected statuses;
   - every >= 400 answer is a structured JSON envelope with an error
     member — never a bare text fragment or a slammed connection
     without a status.

   Exits non-zero on any violation. `dune build @serve-chaos` runs it;
   the root @check alias includes it. *)

open Ds_ksrc
open Depsurf
module Serve = Ds_serve.Serve
module Chaos = Ds_faultgen.Chaos
module Par = Ds_util.Par
module Json = Ds_util.Json
module Fdcount = Ds_util.Fdcount

let scenario_count =
  match Sys.getenv_opt "DEPSURF_CHAOS_COUNT" with
  | Some n -> int_of_string n
  | None -> 60

let seed = 1337L
let failures = ref 0

let fail fmt =
  Printf.ksprintf
    (fun m ->
      incr failures;
      Printf.printf "  FAIL %s\n%!" m)
    fmt

(* run one scenario's steps against a fresh connection, returning the
   raw response bytes collected (possibly empty) *)
let run_scenario sockaddr sc =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let closed = ref false in
  let close () =
    if not !closed then begin
      closed := true;
      try Unix.close fd with Unix.Unix_error _ -> ()
    end
  in
  let buf = Buffer.create 512 in
  let chunk = Bytes.create 4096 in
  let recv_some limit =
    (* 0 = to EOF; bound every read so a wedged server cannot wedge us *)
    (try Unix.setsockopt_float fd Unix.SO_RCVTIMEO 5.0
     with Unix.Unix_error _ | Invalid_argument _ -> ());
    let want = if limit = 0 then max_int else limit in
    let rec go got =
      if got >= want then ()
      else
        match Unix.read fd chunk 0 (min 4096 (want - got)) with
        | 0 -> ()
        | n ->
            Buffer.add_subbytes buf chunk 0 n;
            go (got + n)
        | exception Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE), _, _) -> ()
        | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.ETIMEDOUT), _, _)
          ->
            fail "%s: server neither answered nor closed within 5s" (Chaos.name sc)
    in
    go 0
  in
  Fun.protect ~finally:close (fun () ->
      Unix.connect fd sockaddr;
      (* a misbehaving client must never block the harness: the server
         closing on us mid-send (EPIPE) is an expected outcome *)
      (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
      List.iter
        (fun step ->
          if not !closed then
            match step with
            | Chaos.Send s -> (
                try
                  let n = Unix.write_substring fd s 0 (String.length s) in
                  ignore n
                with Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET), _, _) -> ())
            | Chaos.Pause s -> Unix.sleepf s
            | Chaos.Recv n -> recv_some n
            | Chaos.Abort -> close ())
        (Chaos.steps sc));
  Buffer.contents buf

let status_of_response raw =
  if String.length raw < 12 || not (String.length raw >= 9 && String.sub raw 0 9 = "HTTP/1.1 ")
  then None
  else int_of_string_opt (String.sub raw 9 3)

let body_of_response raw =
  match Ds_util.Strutil.find_sub raw ~sub:"\r\n\r\n" with
  | Some i -> String.sub raw (i + 4) (String.length raw - i - 4)
  | None -> ""

(* every >= 400 must be a structured envelope: JSON, v member, and an
   error string under data *)
let check_envelope sc status body =
  match Json.of_string body with
  | exception _ -> fail "%s: %d body is not JSON: %S" (Chaos.name sc) status body
  | j -> (
      (match Json.member "v" j with
      | Some (Json.Int 1) -> ()
      | _ -> fail "%s: %d envelope lacks v=1" (Chaos.name sc) status);
      match Json.member "error" (Api.data j) with
      | Some (Json.String _) -> ()
      | _ -> fail "%s: %d envelope lacks data.error" (Chaos.name sc) status)

let allowed_statuses = [ 200; 204; 304; 400; 404; 405; 408; 413; 431; 503 ]

let check_scenario sc raw =
  match Chaos.expect sc with
  | Chaos.No_answer ->
      (* whatever came back (nothing, or a partial answer we aborted on)
         is fine; the global invariants cover the rest *)
      ()
  | Chaos.Any_status codes -> (
      match status_of_response raw with
      | None -> fail "%s: no parseable status line in %S" (Chaos.name sc) raw
      | Some st ->
          if not (List.mem st codes) then
            fail "%s: status %d not in expected %s" (Chaos.name sc) st
              (String.concat "," (List.map string_of_int codes));
          if not (List.mem st allowed_statuses) then
            fail "%s: status %d outside the allowed set" (Chaos.name sc) st;
          if st >= 400 then check_envelope sc st (body_of_response raw))

let () =
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  let ds = Dataset.build ~seed:42L Calibration.test_scale in
  let dir = Filename.temp_file "depsurf-chaos" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o700;
  let sock_path = Filename.concat dir "chaos.sock" in
  Par.run ~jobs:4 (fun pool ->
      let limits =
        {
          (Serve.default_limits ()) with
          Serve.li_read_timeout_s = 0.5;
          li_handle_deadline_s = 5.0;
          li_write_timeout_s = 2.0;
          li_drain_deadline_s = 5.0;
        }
      in
      let t = Serve.create ~limits ~ds ~pool () in
      let h = Serve.start t (Serve.Unix_sock sock_path) in
      let sockaddr = Unix.ADDR_UNIX sock_path in
      (* warm the trivial endpoints so chaos latencies are not compile
         costs, then take the fd baseline *)
      List.iter
        (fun p -> ignore (Serve.Client.request (Serve.Unix_sock sock_path) ~meth:"GET" ~path:p))
        [ "/v1/healthz"; "/v1/metrics" ];
      let fd_before = Fdcount.count () in
      let scenarios = Chaos.generate ~seed scenario_count in
      Printf.printf "chaos: %d scenarios against %s (fd baseline %d)\n%!"
        (List.length scenarios) sock_path fd_before;
      List.iter
        (fun sc ->
          match run_scenario sockaddr sc with
          | raw -> check_scenario sc raw
          | exception e ->
              fail "%s: harness exception %s" (Chaos.name sc) (Printexc.to_string e))
        scenarios;
      (* connection churn: a burst of connect/close from several domains *)
      let churners =
        List.init 4 (fun _ ->
            Domain.spawn (fun () ->
                for _ = 1 to 25 do
                  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
                  (try Unix.connect fd sockaddr with Unix.Unix_error _ -> ());
                  (try Unix.close fd with Unix.Unix_error _ -> ())
                done))
      in
      List.iter Domain.join churners;
      (* long-poll chaos: clients that park on /v1/watch and hang up
         mid-wait must not leak fds, wedge the parking lot, or crash the
         server; a well-behaved poller racing an ingest still gets its
         event. Runs before the fd accounting so parked-corpse leaks are
         caught by the global check. *)
      (let base = Dataset.surface ds (Version.v 5 4) Config.x86_generic in
       let victim =
         match base.Surface.s_funcs with f :: _ -> f.Surface.fe_name | [] -> "vfs_read"
       in
       match
         Serve.Client.request_full
           ~body:(Printf.sprintf {|{"deps": ["func:%s"]}|} victim)
           (Serve.Unix_sock sock_path) ~meth:"POST" ~path:"/v1/subscriptions"
       with
       | exception e -> fail "watch chaos: register: %s" (Printexc.to_string e)
       | st, _, _ when st <> 200 -> fail "watch chaos: register answered %d" st
       | _, _, sub_body -> (
           match Json.member "id" (Api.data (Json.of_string sub_body)) with
           | Some (Json.String sub_id) ->
               let quitters =
                 List.init 6 (fun i ->
                     Domain.spawn (fun () ->
                         let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
                         (try
                            Unix.connect fd sockaddr;
                            let req =
                              Printf.sprintf
                                "GET /v1/watch/%s?wait=4 HTTP/1.1\r\nHost: x\r\n\r\n"
                                sub_id
                            in
                            ignore (Unix.write_substring fd req 0 (String.length req));
                            (* park, then slam the connection mid-wait *)
                            Unix.sleepf (0.05 +. (float_of_int i *. 0.03))
                          with Unix.Unix_error _ -> ());
                         try Unix.close fd with Unix.Unix_error _ -> ()))
               in
               let poller =
                 Domain.spawn (fun () ->
                     Serve.Client.request_full ~timeout_s:10.
                       (Serve.Unix_sock sock_path) ~meth:"GET"
                       ~path:(Printf.sprintf "/v1/watch/%s?wait=8&since=0" sub_id))
               in
               List.iter Domain.join quitters;
               (* an ingest that breaks the subscribed dep wakes the
                  honest poller *)
               let next =
                 Depsurf.Codec.encode_surface
                   (Surface.v ~version:base.Surface.s_version ~arch:base.Surface.s_arch
                      ~flavor:base.Surface.s_flavor ~gcc:base.Surface.s_gcc
                      ~funcs:
                        (List.filter
                           (fun f -> f.Surface.fe_name <> victim)
                           base.Surface.s_funcs)
                      ~structs:base.Surface.s_structs
                      ~tracepoints:base.Surface.s_tracepoints
                      ~syscalls:base.Surface.s_syscalls)
               in
               (match
                  Serve.Client.request_full ~body:next (Serve.Unix_sock sock_path)
                    ~meth:"POST"
                    ~path:"/v1/watch/ingest?base=5.4-x86-generic&name=chaos&kind=surface"
                with
               | 200, _, _ -> ()
               | st, _, _ -> fail "watch chaos: ingest answered %d" st
               | exception e -> fail "watch chaos: ingest: %s" (Printexc.to_string e));
               (match Domain.join poller with
               | 200, _, _ -> ()
               | st, _, _ -> fail "watch chaos: honest poller answered %d, wanted 200" st
               | exception e -> fail "watch chaos: poller: %s" (Printexc.to_string e));
               (* give the accept loop a sweep round to reap corpses *)
               let rec settle tries =
                 if Serve.parked_count t > 0 && tries > 0 then begin
                   Unix.sleepf 0.1;
                   settle (tries - 1)
                 end
               in
               settle 30;
               if Serve.parked_count t <> 0 then
                 fail "watch chaos: %d connections still parked" (Serve.parked_count t)
           | _ -> fail "watch chaos: no subscription id in %S" sub_body));
      (* the server must still be alive and answering *)
      (match Serve.Client.request (Serve.Unix_sock sock_path) ~meth:"GET" ~path:"/v1/healthz" with
      | 200, _ -> ()
      | st, _ -> fail "healthz after chaos: %d" st
      | exception e -> fail "healthz after chaos: %s" (Printexc.to_string e));
      (* let evicted/timed-out handlers fully unwind before counting fds *)
      Unix.sleepf 0.6;
      let fd_after = Fdcount.count () in
      if not (Fdcount.no_growth ~slack:2 ~before:fd_before ~after:fd_after ()) then
        fail "fd leak: %d before, %d after" fd_before fd_after;
      Serve.stop h;
      let m = Serve.metrics t in
      Printf.printf
        "chaos: done  shed=%d timeouts=%d protocol=%d io=%d admitted=%d fd %d->%d\n%!"
        (Ds_util.Metrics.counter m "overload.shed")
        (Ds_util.Metrics.counter m "errors.timeout")
        (Ds_util.Metrics.counter m "errors.protocol")
        (Ds_util.Metrics.counter m "errors.io")
        (Ds_util.Metrics.counter m "admission.admitted")
        fd_before fd_after;
      Printf.printf "chaos: watch parked=%d notified=%d timeouts=%d disconnects=%d\n%!"
        (Ds_util.Metrics.counter m "watch.parked")
        (Ds_util.Metrics.counter m "watch.notify")
        (Ds_util.Metrics.counter m "watch.timeout")
        (Ds_util.Metrics.counter m "watch.disconnect"));
  (try Sys.remove sock_path with Sys_error _ -> ());
  (try Unix.rmdir dir with Unix.Unix_error _ -> ());
  if !failures > 0 then begin
    Printf.printf "chaos: %d FAILURES\n%!" !failures;
    exit 1
  end;
  print_endline "chaos: all invariants held"
