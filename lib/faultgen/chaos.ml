module Prng = Ds_util.Prng

(* Seeded misbehaving-HTTP-client scenarios for the serve front-end.
   Pure data: a scenario is a list of socket-level steps; the driver
   (test/chaos_main.ml) owns the actual sockets, so this module stays
   unix-free and the same seed always yields the same byte stream. *)

type step =
  | Send of string  (** write these bytes *)
  | Pause of float  (** sleep this many seconds before the next step *)
  | Recv of int  (** read up to this many response bytes (0 = to EOF) *)
  | Abort  (** close the socket immediately, mid-whatever *)

type expectation =
  | Any_status of int list
      (** the server must answer one of these statuses, as a structured
          JSON envelope for >= 400 *)
  | No_answer  (** the client gave the server nothing answerable *)

type scenario = { sc_name : string; sc_steps : step list; sc_expect : expectation }

let name s = s.sc_name
let steps s = s.sc_steps
let expect s = s.sc_expect

let get path = Printf.sprintf "GET %s HTTP/1.1\r\nHost: chaos\r\nConnection: close\r\n\r\n" path

let paths = [ "/v1/healthz"; "/v1/images"; "/v1/metrics" ]

let well_formed prng =
  let path = Prng.pick_list prng paths in
  {
    sc_name = "well-formed " ^ path;
    sc_steps = [ Send (get path); Recv 0 ];
    sc_expect = Any_status [ 200 ];
  }

(* Slowloris: dribble a valid request a few bytes at a time. With the
   driver's short read timeout the server answers 408 long before the
   request completes; with a long one it would eventually answer 200 —
   both are acceptable, crashing or hanging forever is not. *)
let slow_trickle prng =
  let req = get (Prng.pick_list prng paths) in
  let chunk = 1 + Prng.int prng 3 in
  let delay = 0.05 +. Prng.float prng 0.1 in
  let rec cut i acc =
    if i >= String.length req then List.rev acc
    else
      let n = min chunk (String.length req - i) in
      cut (i + n) (Pause delay :: Send (String.sub req i n) :: acc)
  in
  {
    sc_name = Printf.sprintf "slow-trickle chunk=%d" chunk;
    sc_steps = cut 0 [] @ [ Recv 0 ];
    sc_expect = Any_status [ 200; 408 ];
  }

(* Torn request: send a prefix of a valid request, then vanish. *)
let torn_request prng =
  let req = get (Prng.pick_list prng paths) in
  let keep = 1 + Prng.int prng (String.length req - 2) in
  {
    sc_name = Printf.sprintf "torn-request keep=%d" keep;
    sc_steps = [ Send (String.sub req 0 keep); Abort ];
    sc_expect = No_answer;
  }

(* Stall: open a connection, send nothing (or a fragment), and sit
   until the server's read timeout evicts us. *)
let stall prng =
  let fragment = Prng.bool prng 0.5 in
  {
    sc_name = (if fragment then "stall after fragment" else "stall silent");
    sc_steps =
      (if fragment then [ Send "GET /v1/heal" ] else []) @ [ Pause 2.0; Recv 0 ];
    sc_expect = Any_status [ 408 ];
  }

(* Mid-response abort: issue a valid request, read a few bytes of the
   answer, then slam the connection while the server is still writing. *)
let midresponse_abort prng =
  let path = Prng.pick_list prng paths in
  {
    sc_name = "mid-response abort " ^ path;
    sc_steps = [ Send (get path); Recv (1 + Prng.int prng 64); Abort ];
    sc_expect = No_answer;
  }

(* Connection churn is a driver-side behaviour (many short-lived
   sockets); as a scenario it is simply connect-then-abort. *)
let churn _prng =
  { sc_name = "churn connect-abort"; sc_steps = [ Abort ]; sc_expect = No_answer }

(* Oversized header block: a single header line pushes the head past
   the server's 64KiB cap; must be rejected with 431, not buffered
   without bound. *)
let oversized_headers prng =
  let pad = 70_000 + Prng.int prng 10_000 in
  let req =
    Printf.sprintf "GET /v1/healthz HTTP/1.1\r\nHost: chaos\r\nX-Pad: %s\r\nConnection: close\r\n\r\n"
      (String.make pad 'a')
  in
  {
    sc_name = Printf.sprintf "oversized-headers pad=%d" pad;
    sc_steps = [ Send req; Recv 0 ];
    sc_expect = Any_status [ 431 ];
  }

(* Oversized body: a Content-Length over the 16MiB body cap must be
   refused up front (413) — the server must not try to buffer it. *)
let oversized_body prng =
  let cl = 17_000_000 + Prng.int prng 1_000_000 in
  let req =
    Printf.sprintf
      "POST /v1/mismatch HTTP/1.1\r\nHost: chaos\r\nContent-Length: %d\r\nConnection: close\r\n\r\nxx"
      cl
  in
  {
    sc_name = Printf.sprintf "oversized-body cl=%d" cl;
    sc_steps = [ Send req; Recv 0 ];
    sc_expect = Any_status [ 413 ];
  }

(* Garbage: bytes that are not HTTP at all. *)
let garbage prng =
  let n = 1 + Prng.int prng 200 in
  let b = Bytes.create n in
  for i = 0 to n - 1 do
    Bytes.set b i (Char.chr (Prng.int prng 256))
  done;
  (* ensure it cannot accidentally parse as a request line *)
  let raw = "\x00\xff" ^ Bytes.to_string b ^ "\r\n\r\n" in
  {
    sc_name = Printf.sprintf "garbage n=%d" n;
    sc_steps = [ Send raw; Recv 0 ];
    sc_expect = Any_status [ 400 ];
  }

let generators =
  [
    well_formed;
    slow_trickle;
    torn_request;
    stall;
    midresponse_abort;
    churn;
    oversized_headers;
    oversized_body;
    garbage;
  ]

let generate ~seed n =
  let prng = Prng.create seed in
  List.init n (fun i ->
      let g =
        (* guarantee one of each kind before going random, so a small n
           still covers the whole taxonomy *)
        if i < List.length generators then List.nth generators i
        else Prng.pick_list prng generators
      in
      g (Prng.split prng (string_of_int i)))
