(* Shared plumbing of the performance benchmark: BENCHMARK.json's metric
   lists, the statistics, result lines, span conversion and the
   process/filesystem helpers every workload needs. *)

open Ds_util
module Trace = Ds_trace.Trace

let now = Unix.gettimeofday

let time f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

(* ---- scale -------------------------------------------------------- *)

(* the same switch as bench/main.ml and `dune runtest`: DEPSURF_SCALE=test
   selects the fast population, anything else the bench population *)
let test_scale = Sys.getenv_opt "DEPSURF_SCALE" = Some "test"

let scale =
  if test_scale then Ds_ksrc.Calibration.test_scale else Ds_ksrc.Calibration.bench_scale

let scale_label = if test_scale then "test" else "bench"

(* the load of every workload is sized for a 2-core host: a Par pool of
   2 in-process, `depsurf serve --jobs 2`, and at most 2 client threads *)
let jobs = 2
let clients = 2

(* ---- statistics ----------------------------------------------------- *)

let median xs = Stats.quantile 0.5 xs

(* ---- host speed ------------------------------------------------------ *)

(* The host is a shared virtual machine whose speed drifts by up to 2x
   within minutes, and CPU time drifts with wall time. So every
   end-to-end time is reported at a reference host speed: divided by the
   median time of a fixed probe timed during the same run, and multiplied
   by the probe's reference time. The probe runs in its own small process
   (`main.exe probe`) while the work waits for it, and calls no DepSurf
   code, so a change to DepSurf, its heap included, moves the work and
   not the probe, while a slow period of the host moves both. The raw
   times are printed as extras. *)

(* the probe's median time on the host the bounds were set on *)
let probe_ref_ms = 4.4

let probe_table = Array.init 32768 (fun i -> (i * 7919) land 0xffff)
let probe_sink = ref 0

(* Random reads over a 256 KiB table, then what the program under test
   spends most of its time on: short-lived allocation, string hashing
   and sorting a list of pairs, about 4.4 ms in all. *)
let probe_work () =
  let acc = ref 0 and x = ref 1 in
  for _ = 1 to 180_000 do
    x := ((!x * 1103515245) + 12345) land 0x3fffffff;
    acc := !acc + probe_table.(!x land 32767)
  done;
  let h = Hashtbl.create 16 in
  for i = 0 to 3_000 do
    Hashtbl.replace h (string_of_int (i * 7919)) i
  done;
  let pairs = Hashtbl.fold (fun k v l -> (k, v) :: l) h [] in
  probe_sink := !acc + List.length (List.sort compare pairs)

(* [main.exe probe]: run the probe once per line read on stdin and answer
   with its time in ms, until the end of input *)
let probe_main () =
  for _ = 1 to 3 do
    probe_work ()
  done;
  try
    while true do
      ignore (input_line stdin);
      let (), dt = time probe_work in
      Printf.printf "%.6f\n%!" (dt *. 1000.)
    done
  with End_of_file -> ()

(* the probe process, started at the first reading; it exits when this
   process closes its input, at exit *)
let prober =
  lazy
    (let to_probe, to_w = Unix.pipe ~cloexec:true () in
     let from_r, from_probe = Unix.pipe ~cloexec:true () in
     let pid =
       Unix.create_process Sys.executable_name
         [| Sys.executable_name; "probe" |]
         to_probe from_probe Unix.stderr
     in
     Unix.close to_probe;
     Unix.close from_probe;
     let ic = Unix.in_channel_of_descr from_r and oc = Unix.out_channel_of_descr to_w in
     at_exit (fun () ->
         close_out_noerr oc;
         close_in_noerr ic;
         let rec wait () =
           try ignore (Unix.waitpid [] pid) with Unix.Unix_error (Unix.EINTR, _, _) -> wait ()
         in
         try wait () with Unix.Unix_error _ -> ());
     (ic, oc))

(* every reading of this run, newest first *)
let readings : float list ref = ref []

(* one reading, in ms, taken while this process waits *)
let probe () =
  let ic, oc = Lazy.force prober in
  output_char oc '\n';
  flush oc;
  let ms = float_of_string (input_line ic) in
  readings := ms :: !readings;
  ms

(* the readings taken since [n] had been *)
let readings_since n = List.filteri (fun i _ -> i < List.length !readings - n) !readings

(* a raw time at the reference speed, given the readings taken around
   it (by default, every reading of the run) *)
let at_ref ?(around = !readings) raw = raw *. probe_ref_ms /. median around

(* Samples ranked strictly above the p-quantile. A tail percentile is
   reported only when at least 10 samples lie beyond it: p99 needs 1000
   samples, p95 200, p90 100. The median is always reported, with its
   sample count. *)
let beyond p n = n - int_of_float (Float.ceil (p *. float_of_int n))

let tail p xs = if beyond p (List.length xs) >= 10 then Some (Stats.quantile p xs) else None

(* Quartiles the way Python's statistics.quantiles(xs, n=4) computes
   them (the default "exclusive" method), so spreads printed here match
   the ones a Python reader computes from the same records. *)
let quartiles xs =
  let a = Array.of_list (List.sort compare xs) in
  let ld = Array.length a in
  if ld = 0 then (0., 0., 0.)
  else if ld = 1 then (a.(0), a.(0), a.(0))
  else
    let m = ld + 1 in
    let q i =
      let j = max 1 (min (ld - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta)) /. 4.
    in
    (q 1, q 2, q 3)

(* The op time of a run from (class, op time) samples: each class's
   median weighted by the class's share of the ops. For one class this is
   its median. For a mix it is the time of a typical op drawn from the
   mix; the median of the pooled samples would instead fall into the gap
   between a fast class and a slow one, where a small shift in either
   moves it a lot. *)
let mix_median samples =
  let n = float_of_int (List.length samples) in
  List.sort_uniq compare (List.map fst samples)
  |> List.fold_left
       (fun acc c ->
         let xs = List.filter_map (fun (c', x) -> if c' = c then Some x else None) samples in
         acc +. (float_of_int (List.length xs) /. n *. median xs))
       0.

(* ---- BENCHMARK.json: the one list of reported metrics ----------------- *)

let jfloat = function Json.Float f -> Some f | Json.Int i -> Some (float_of_int i) | _ -> None

let jint j path =
  let rec go j = function
    | [] -> ( match j with Json.Int n -> n | Json.Float f -> int_of_float f | _ -> 0)
    | k :: rest -> ( match Json.member k j with Some j' -> go j' rest | None -> 0)
  in
  go j path

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let write_file path data =
  let oc = open_out_bin path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc data)

let rec find_up dir name =
  let p = Filename.concat dir name in
  if Sys.file_exists p then Some p
  else
    let up = Filename.dirname dir in
    if up = dir then None else find_up up name

type spec = {
  sp_end_to_end : (string * string * string * float) list;  (** name, unit, better, bound *)
  sp_per_layer : (string * string) list;  (** name, unit *)
  sp_seconds : float;
}

let spec =
  lazy
    (match find_up (Sys.getcwd ()) "BENCHMARK.json" with
    | None -> failwith "no BENCHMARK.json in this directory or above"
    | Some path ->
        let j = Json.of_string (read_file path) in
        let list k = match Json.member k j with Some (Json.List l) -> l | _ -> [] in
        let str k o = match Json.member k o with Some (Json.String s) -> s | _ -> "" in
        {
          sp_end_to_end =
            List.map
              (fun o ->
                ( str "name" o, str "unit" o, str "better" o,
                  Option.value ~default:0. (Option.bind (Json.member "bound" o) jfloat) ))
              (list "end_to_end");
          sp_per_layer = List.map (fun o -> (str "name" o, str "unit" o)) (list "per_layer");
          sp_seconds =
            Option.value ~default:10. (Option.bind (Json.member "run_seconds" j) jfloat);
        })

(* ---- results ------------------------------------------------------- *)

type metric = { m_name : string; m_value : float; m_unit : string; m_samples : int }

type result = {
  r_workload : string;
  r_attempted : int;
  r_failed : int;
  r_metrics : metric list;  (** in the order measured *)
}

(* a workload appends metrics as it measures them *)
type sink = metric list ref

let sink () : sink = ref []

let add (s : sink) ?(samples = 1) name unit value =
  s := { m_name = name; m_value = value; m_unit = unit; m_samples = samples } :: !s

let metrics (s : sink) = List.rev !s

(* setup_s: the median set-up at the reference speed of the whole run,
   so call it once the run's readings are in; setup_raw_s as timed *)
let add_setup (s : sink) raws =
  let n = List.length raws in
  add s ~samples:n "setup_s" "s" (at_ref (median raws));
  add s ~samples:n "setup_raw_s" "s" (median raws)

(* span.<name>.self_ms for every row of a Trace.top table *)
let add_span_self (s : sink) sps =
  List.iter
    (fun (name, count, _, self_us) ->
      add s ~samples:count ("span." ^ name ^ ".self_ms") "ms" (float_of_int self_us /. 1000.))
    (Trace.top sps)

let finite m = Float.is_finite m.m_value

let fail_ratio r =
  if r.r_attempted = 0 then 1. else float_of_int r.r_failed /. float_of_int r.r_attempted

(* One line per metric, `name workload value unit samples`: first
   BENCHMARK.json's end-to-end and per-layer metrics (every workload
   measures every end-to-end metric; a layer the workload did not
   exercise reads 0 with 0 samples), then the workload's own extras and
   fail_ratio. The last line is the result object: end-to-end metrics
   with trace off, per-layer metrics with trace on, each value with all
   its digits. *)
let print_result ~trace r =
  let spec = Lazy.force spec in
  let find name = List.find_opt (fun m -> m.m_name = name) r.r_metrics in
  let e2e =
    List.map
      (fun (name, _, _, _) ->
        match find name with
        | Some m -> m
        | None -> failwith (Printf.sprintf "%s did not measure %s" r.r_workload name))
      spec.sp_end_to_end
  in
  let layers =
    List.map
      (fun (name, unit) ->
        match find name with
        | Some m -> m
        | None -> { m_name = name; m_value = 0.; m_unit = unit; m_samples = 0 })
      spec.sp_per_layer
  in
  let listed = List.map (fun m -> m.m_name) (e2e @ layers) in
  let extras = List.filter (fun m -> not (List.mem m.m_name listed)) r.r_metrics in
  let probe =
    {
      m_name = "probe_ms";
      m_value = median !readings;
      m_unit = "ms";
      m_samples = List.length !readings;
    }
  in
  let fail =
    {
      m_name = "fail_ratio";
      m_value = fail_ratio r;
      m_unit = "fraction";
      m_samples = r.r_attempted;
    }
  in
  List.iter
    (fun m -> Printf.printf "%s %s %g %s %d\n" m.m_name r.r_workload m.m_value m.m_unit m.m_samples)
    (e2e @ layers @ extras @ [ probe; fail ]);
  let chosen = if trace then layers else e2e in
  let correct = r.r_failed = 0 && r.r_attempted > 0 && List.for_all finite chosen in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n" correct
    r.r_attempted r.r_failed
    (String.concat ", "
       (List.map
          (fun m ->
            Printf.sprintf "\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}" m.m_name
              (if finite m then m.m_value else 0.)
              m.m_unit)
          chosen))

(* ---- processes and files -------------------------------------------- *)

(* VmHWM (peak resident set) of a live process ("self" or a pid), in MB *)
let peak_rss_mb proc =
  match open_in ("/proc/" ^ proc ^ "/status") with
  | exception Sys_error _ -> 0.
  | ic ->
      let rec go () =
        match input_line ic with
        | exception End_of_file -> 0.
        | line ->
            if String.length line > 6 && String.sub line 0 6 = "VmHWM:" then
              Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d" (fun kb ->
                  float_of_int kb /. 1024.)
            else go ()
      in
      Fun.protect ~finally:(fun () -> close_in ic) go

let rec mkdir_p d =
  if not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let rec rm_rf p =
  match Unix.lstat p with
  | exception Unix.Unix_error _ -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun e -> rm_rf (Filename.concat p e)) (Sys.readdir p);
      Unix.rmdir p
  | _ -> Sys.remove p

(* Everything a run writes lives under _perfbench/ in the working
   directory (dune skips directories starting with '_'), one directory
   per workload process, removed when the workload ends, and the kept
   stores below. *)
let work_root = "_perfbench"

let work_dir name =
  let d = Filename.concat work_root (Printf.sprintf "%s-%d" name (Unix.getpid ())) in
  rm_rf d;
  mkdir_p d;
  d

let remove_work_dir d =
  rm_rf d;
  try Unix.rmdir work_root with Unix.Unix_error _ -> ()

(* ---- stores kept between runs ----------------------------------------- *)

(* A serve workload's cold start, and study-warm's populating pass, fill
   a store that every run of the same build fills the same way: the
   history seed is fixed and --seed does not reach it. The first run of
   a workload keeps the filled store under _perfbench/cache/<workload>/
   with the build's key; later runs of the same build link its files
   into their work directory instead of filling it again. Linking is
   safe because the store never writes a file in place: it renames a
   new file over the old name, which leaves the linked file as it was. *)

let cli_exe () =
  let exe_dir = Filename.dirname Sys.executable_name in
  Filename.concat (Filename.dirname (Filename.dirname exe_dir)) "bin/depsurf_cli.exe"

(* the scale and the digests of both executables *)
let build_key =
  lazy
    (Digest.to_hex
       (Digest.string
          (String.concat "|"
             [ scale_label; Digest.file Sys.executable_name; Digest.file (cli_exe ()) ])))

let rec link_tree src dst =
  match (Unix.lstat src).Unix.st_kind with
  | Unix.S_DIR ->
      mkdir_p dst;
      Array.iter
        (fun e -> link_tree (Filename.concat src e) (Filename.concat dst e))
        (Sys.readdir src)
  | _ -> Unix.link src dst

(* [kept_store name ~store fill]: fill the store directory [store] of
   workload [name] from the kept copy when this build kept one, else by
   [fill ()] and keep a copy. [fill] returns a note the workload needs
   later (study-warm's reference digest), kept with the store. Returns
   the note and whether [fill] ran. *)
let kept_store name ~store fill =
  let keep = Filename.concat (Filename.concat work_root "cache") name in
  let file f = Filename.concat keep f in
  let key = Lazy.force build_key in
  if Sys.file_exists (file "key") && read_file (file "key") = key then begin
    link_tree (file "store") store;
    (read_file (file "note"), false)
  end
  else begin
    let note = fill () in
    (* built aside and renamed into place, the key written last *)
    let tmp = Printf.sprintf "%s.%d" keep (Unix.getpid ()) in
    rm_rf tmp;
    link_tree store (Filename.concat tmp "store");
    write_file (Filename.concat tmp "note") note;
    write_file (Filename.concat tmp "key") key;
    rm_rf keep;
    (try Unix.rename tmp keep with Unix.Unix_error _ -> rm_rf tmp);
    (note, true)
  end

(* git HEAD of the working directory, "unknown" outside a repository *)
let rev () =
  let ic = Unix.open_process_in "git rev-parse HEAD 2>/dev/null" in
  let line = try String.trim (input_line ic) with End_of_file -> "" in
  match Unix.close_process_in ic with
  | Unix.WEXITED 0 when line <> "" -> line
  | _ -> "unknown"

(* ---- spans from the serve wire view ------------------------------------ *)

(* Invert Trace.span_json ([GET /v1/trace/recent]) so a server's spans
   go through the same Trace.top as an in-process trace. *)
let span_of_json j =
  let int k = match Json.member k j with Some (Json.Int n) -> n | _ -> raise (Trace.Bad_trace k) in
  let name =
    match Json.member "name" j with Some (Json.String s) -> s | _ -> raise (Trace.Bad_trace "name")
  in
  let attrs =
    match Json.member "attrs" j with
    | Some (Json.Obj kvs) ->
        List.filter_map (function k, Json.String v -> Some (k, v) | _ -> None) kvs
    | _ -> []
  in
  let start_us = int "start_us" and dur_us = int "dur_us" in
  {
    Trace.sp_id = int "id";
    sp_parent = int "parent";
    sp_name = name;
    sp_attrs = attrs;
    sp_start = float_of_int start_us /. 1e6;
    sp_stop = float_of_int (start_us + dur_us) /. 1e6;
    sp_domain = int "domain";
  }
