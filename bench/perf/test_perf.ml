(* Unit tests of the benchmark's own arithmetic: the percentile rule,
   Python-compatible quartiles, and the span_json -> Trace.top round
   trip the serve workloads rely on. *)

open Perf.Harness
module Trace = Ds_trace.Trace
module Json = Ds_util.Json

let check name cond =
  if not cond then begin
    Printf.printf "FAILED: %s\n" name;
    exit 1
  end

let close a b = Float.abs (a -. b) < 1e-9

let () =
  let xs n = List.init n float_of_int in
  (* a tail percentile needs at least 10 samples beyond it *)
  check "p90 of 100" (tail 0.9 (xs 100) <> None);
  check "p90 of 99" (tail 0.9 (xs 99) = None);
  check "p95 of 199" (tail 0.95 (xs 199) = None);
  check "p95 of 200" (tail 0.95 (xs 200) <> None);
  check "p99 of 999" (tail 0.99 (xs 999) = None);
  check "p99 of 1000" (tail 0.99 (xs 1000) <> None);
  check "beyond p99 of 1000" (beyond 0.99 1000 = 10);
  check "median of 3" (close (median [ 3.; 1.; 2. ]) 2.);
  (* statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25] *)
  let q1, q2, q3 = quartiles (List.init 10 (fun i -> float_of_int (i + 1))) in
  check "quartiles 1..10" (close q1 2.75 && close q2 5.5 && close q3 8.25);
  (* statistics.quantiles([5, 1, 4, 2, 3], n=4) == [1.5, 3.0, 4.5] *)
  let q1, q2, q3 = quartiles [ 5.; 1.; 4.; 2.; 3. ] in
  check "quartiles of 5" (close q1 1.5 && close q2 3. && close q3 4.5);
  (* per-class medians weighted by share: 2/3 * median [1; 3] + 1/3 * 10 *)
  check "mix_median" (close (mix_median [ ("a", 1.); ("b", 10.); ("a", 3.) ]) (14. /. 3.));
  check "mix_median of one class" (close (mix_median [ ("a", 5.); ("a", 1.); ("a", 2.) ]) 2.);
  print_endline "percentile rule, quartiles and mix median: OK"

(* A small nested trace, exported through Trace.span_json as the serve
   endpoint does, parsed back, must aggregate to the same Trace.top:
   same names and counts, self times within 1us per span of rounding. *)
let () =
  Trace.enable ();
  Trace.clear ();
  let spin s =
    let t = Unix.gettimeofday () +. s in
    while Unix.gettimeofday () < t do
      ()
    done
  in
  Trace.span ~name:"root" (fun () ->
      spin 0.002;
      for _ = 1 to 3 do
        Trace.span ~name:"leaf" (fun () -> spin 0.001)
      done;
      Trace.span ~name:"mid" (fun () -> Trace.span ~name:"leaf" (fun () -> spin 0.001)));
  Trace.disable ();
  let sps = Trace.spans () in
  let wire =
    List.map (fun sp -> span_of_json (Json.of_string (Json.to_string (Trace.span_json sp)))) sps
  in
  let top = Trace.top sps and top' = Trace.top wire in
  check "span count" (List.length wire = 6);
  check "same rows" (List.length top = List.length top');
  List.iter
    (fun (name, count, total, self) ->
      match List.find_opt (fun (n, _, _, _) -> n = name) top' with
      | None -> check ("row " ^ name) false
      | Some (_, count', total', self') ->
          check ("count " ^ name) (count = count');
          check ("total " ^ name) (abs (total - total') <= 2 * count);
          check ("self " ^ name) (abs (self - self') <= 8 * count))
    top;
  let self_of name = List.find_map (fun (n, _, _, s) -> if n = name then Some s else None) top' in
  check "root self >= 2ms" (Option.value ~default:0 (self_of "root") >= 1900);
  print_endline "span_json -> Trace.top round trip: OK"
