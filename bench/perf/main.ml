(* The DepSurf performance benchmark.

     main.exe --workload W --seed N --seconds S --trace 0|1
         run one workload in this process; print every metric as
         `name workload value unit samples`, then one result object as
         the last line (end-to-end metrics with --trace 0, per-layer
         metrics with --trace 1)
     main.exe run --seed N --out FILE
         run the five workloads, each in a fresh child process for
         BENCHMARK.json's run_seconds (1 s at test scale), and write one
         result record; exits 1 when a record misses a BENCHMARK.json
         metric or counts a failure
     main.exe compare DIR_A DIR_B
         median and quartiles of every (metric, workload) pair over the
         records in each directory, and whether the two sets agree within
         the BENCHMARK.json bound

   DEPSURF_SCALE=test runs everything at the fast test population. The
   history seed is always Pipeline.default_seed; --seed only seeds the
   generated inputs (request mix, mutants, subscriptions, dropped
   symbols). *)

open Ds_util
open Perf
open Harness

let workloads =
  [
    ("study-cold", fun ~seed:_ ~seconds ~trace -> Study.run ~cold:true ~seconds ~trace);
    ("study-warm", fun ~seed:_ ~seconds ~trace -> Study.run ~cold:false ~seconds ~trace);
    ("serve-lookup", Serve_load.lookup);
    ("serve-bulk", Serve_load.bulk);
    ("serve-watch", Serve_load.watch);
  ]

let usage () =
  prerr_endline
    "usage: main.exe --workload W --seed N --seconds S --trace 0|1\n\
    \       main.exe run --seed N --out FILE\n\
    \       main.exe compare DIR_A DIR_B";
  exit 2

(* --key value pairs *)
let rec options acc = function
  | key :: value :: rest when String.starts_with ~prefix:"--" key ->
      options ((String.sub key 2 (String.length key - 2), value) :: acc) rest
  | [] -> List.rev acc
  | _ -> usage ()

let opt opts key = List.assoc_opt key opts

let seed_of opts =
  match opt opts "seed" with
  | None -> 1L
  | Some s -> ( match Int64.of_string_opt s with Some n -> n | None -> usage ())

let seconds_of opts =
  match opt opts "seconds" with
  | None -> 10.
  | Some s -> ( match float_of_string_opt s with Some f when f > 0. -> f | _ -> usage ())

(* ---- one workload in-process ------------------------------------------- *)

let run_one opts =
  let name = Option.value ~default:"" (opt opts "workload") in
  let f = match List.assoc_opt name workloads with Some f -> f | None -> usage () in
  let seed = seed_of opts in
  let seconds = seconds_of opts in
  let trace = opt opts "trace" = Some "1" in
  let r = f ~seed ~seconds ~trace in
  print_result ~trace r

(* ---- run: every workload in a child, one record ---------------------------- *)

type child = { c_name : string; c_result : Json.t; c_metrics : metric list }

let run_child ~seed ~seconds name =
  let args =
    [|
      Sys.executable_name; "--workload"; name; "--seed"; Int64.to_string seed; "--seconds";
      Printf.sprintf "%g" seconds; "--trace"; "1";
    |]
  in
  let ic = Unix.open_process_args_in Sys.executable_name args in
  let rec lines acc =
    match input_line ic with
    | l ->
        print_endline l;
        lines (l :: acc)
    | exception End_of_file -> List.rev acc
  in
  let out = lines [] in
  (match Unix.close_process_in ic with
  | Unix.WEXITED 0 -> ()
  | _ -> failwith (name ^ ": workload process failed"));
  let metric l =
    match String.split_on_char ' ' l with
    | [ n; w; v; u; s ] when w = name -> (
        match (float_of_string_opt v, int_of_string_opt s) with
        | Some v, Some s -> Some { m_name = n; m_value = v; m_unit = u; m_samples = s }
        | _ -> None)
    | _ -> None
  in
  match List.rev out with
  | last :: _ ->
      { c_name = name; c_result = Json.of_string last; c_metrics = List.filter_map metric out }
  | [] -> failwith (name ^ ": no output")

let metric_json m =
  Json.Obj
    [
      ("name", Json.String m.m_name); ("value", Json.Float m.m_value);
      ("unit", Json.String m.m_unit); ("samples", Json.Int m.m_samples);
    ]

(* what the record must show for the benchmark to be trustworthy: every
   BENCHMARK.json metric in its unit, end-to-end metrics above 0, and no
   failed check *)
let problems spec c =
  let find n = List.find_opt (fun m -> m.m_name = n) c.c_metrics in
  let missing =
    List.filter_map
      (fun (n, u) ->
        match find n with
        | None -> Some (Printf.sprintf "%s: no %s" c.c_name n)
        | Some m when m.m_unit <> u ->
            Some (Printf.sprintf "%s: %s in %s, not %s" c.c_name n m.m_unit u)
        | Some _ -> None)
      (List.map (fun (n, u, _, _) -> (n, u)) spec.sp_end_to_end @ spec.sp_per_layer)
  in
  let zero =
    List.filter_map
      (fun (n, _, _, _) ->
        match find n with
        | Some m when not (m.m_value > 0.) ->
            Some (Printf.sprintf "%s: %s = %g" c.c_name n m.m_value)
        | _ -> None)
      spec.sp_end_to_end
  in
  let failing =
    match (find "fail_ratio", Json.member "correct" c.c_result) with
    | Some m, Some (Json.Bool true) when m.m_value = 0. -> []
    | _ -> [ c.c_name ^ ": fail_ratio > 0 or outputs incorrect" ]
  in
  missing @ zero @ failing

let run_all opts =
  let spec = Lazy.force spec in
  let seed = seed_of opts in
  let out = match opt opts "out" with Some f -> f | None -> usage () in
  let seconds = if test_scale then 1. else spec.sp_seconds in
  let children = List.map (fun (name, _) -> run_child ~seed ~seconds name) workloads in
  let record =
    Json.Obj
      [
        ("schema", Json.String "depsurf-perf/1"); ("scale", Json.String scale_label);
        ("cores", Json.Int (Domain.recommended_domain_count ())); ("rev", Json.String (rev ()));
        ("seed", Json.String (Int64.to_string seed)); ("seconds", Json.Float seconds);
        ( "workloads",
          Json.List
            (List.map
               (fun c ->
                 let result k = Option.value ~default:Json.Null (Json.member k c.c_result) in
                 Json.Obj
                   [
                     ("name", Json.String c.c_name); ("attempted", result "attempted");
                     ("failed", result "failed"); ("correct", result "correct");
                     ("metrics", Json.List (List.map metric_json c.c_metrics));
                   ])
               children) );
      ]
  in
  mkdir_p (Filename.dirname out);
  write_file out (Json.to_string record ^ "\n");
  let bad = List.concat_map (problems spec) children in
  List.iter (fun p -> Printf.eprintf "record check: FAILED (%s)\n" p) bad;
  if bad <> [] then exit 1;
  Printf.printf
    "record check: %d workload(s), every BENCHMARK.json metric present, fail_ratio 0: OK (%s)\n"
    (List.length children) out

(* ---- compare ----------------------------------------------------------------- *)

(* (scale, cores, [(metric, workload, value)]) of one record *)
let load_record path =
  let j = Json.of_string (read_file path) in
  let str k = match Json.member k j with Some (Json.String s) -> s | _ -> "?" in
  let cores = jint j [ "cores" ] in
  let rows =
    match Json.member "workloads" j with
    | Some (Json.List ws) ->
        List.concat_map
          (fun w ->
            let wname = match Json.member "name" w with Some (Json.String s) -> s | _ -> "?" in
            match Json.member "metrics" w with
            | Some (Json.List ms) ->
                List.filter_map
                  (fun m ->
                    match (Json.member "name" m, Option.bind (Json.member "value" m) jfloat) with
                    | Some (Json.String n), Some v -> Some (n, wname, v)
                    | _ -> None)
                  ms
            | _ -> [])
          ws
    | _ -> []
  in
  (str "scale", cores, rows)

let records dir =
  Sys.readdir dir |> Array.to_list |> List.sort compare
  |> List.filter (fun f -> Filename.check_suffix f ".json")
  |> List.map (fun f -> load_record (Filename.concat dir f))

let compare_dirs a b =
  let spec = Lazy.force spec in
  let ra = records a and rb = records b in
  if ra = [] || rb = [] then failwith "compare: each directory needs at least one .json record";
  let shapes = List.sort_uniq compare (List.map (fun (s, c, _) -> (s, c)) (ra @ rb)) in
  if List.length shapes > 1 then begin
    Printf.printf "compare: refusing to compare runs of different scale or core count (%s)\n"
      (String.concat ", " (List.map (fun (s, c) -> Printf.sprintf "%s/%d cores" s c) shapes));
    exit 2
  end;
  let values rs key =
    List.concat_map
      (fun (_, _, rows) ->
        List.filter_map (fun (n, w, v) -> if (n, w) = key then Some v else None) rows)
      rs
  in
  (* in record order (workload by workload, end-to-end metrics first),
     leaving out layers neither set exercised *)
  let keys =
    List.fold_left
      (fun acc (_, _, rows) ->
        List.fold_left
          (fun acc (n, w, _) -> if List.mem (n, w) acc then acc else (n, w) :: acc)
          acc rows)
      [] (ra @ rb)
    |> List.rev
    |> List.filter (fun k -> List.exists (fun v -> v <> 0.) (values ra k @ values rb k))
  in
  let differ = ref 0 in
  Printf.printf "%-36s %-13s %26s %26s %8s  %s\n" "metric" "workload" "A median [q1, q3]"
    "B median [q1, q3]" "delta" "verdict";
  List.iter
    (fun ((n, w) as key) ->
      let cell xs =
        if xs = [] then "-"
        else
          let q1, q2, q3 = quartiles xs in
          Printf.sprintf "%.4g [%.4g, %.4g]" q2 q1 q3
      in
      let xa = values ra key and xb = values rb key in
      let delta, verdict =
        match (xa, xb) with
        | _ :: _, _ :: _ ->
            let ma = median xa and mb = median xb in
            let rel =
              if ma = 0. then if mb = 0. then 0. else infinity else (mb -. ma) /. Float.abs ma
            in
            let verdict =
              match List.find_opt (fun (m, _, _, _) -> m = n) spec.sp_end_to_end with
              | Some (_, _, better, bound) ->
                  if Float.abs rel <= bound then Printf.sprintf "agree (bound %g%%)" (bound *. 100.)
                  else begin
                    incr differ;
                    let worse = if better = "lower" then rel > 0. else rel < 0. in
                    Printf.sprintf "DIFFER: %s beyond the %g%% bound"
                      (if worse then "worse" else "better")
                      (bound *. 100.)
                  end
              | None -> "no bound"
            in
            (Printf.sprintf "%+.1f%%" (rel *. 100.), verdict)
        | _ -> ("-", "only in one set")
      in
      Printf.printf "%-36s %-13s %26s %26s %8s  %s\n" n w (cell xa) (cell xb) delta verdict)
    keys;
  if !differ > 0 then exit 1

let () =
  Logs.set_reporter (Logs_fmt.reporter ());
  Logs.set_level (Some Logs.Warning);
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  match List.tl (Array.to_list Sys.argv) with
  | [ "populate"; dir ] -> Study.populate dir
  | [ "probe" ] -> probe_main ()
  | "run" :: rest -> run_all (options [] rest)
  | [ "compare"; a; b ] -> compare_dirs a b
  | args -> run_one (options [] args)
