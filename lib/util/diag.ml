type severity = Warning | Degraded | Fatal

let severity_to_string = function
  | Warning -> "warning"
  | Degraded -> "degraded"
  | Fatal -> "fatal"

let severity_rank = function Warning -> 0 | Degraded -> 1 | Fatal -> 2
let severity_compare a b = compare (severity_rank a) (severity_rank b)

type t = {
  d_severity : severity;
  d_component : string;
  d_context : string option;
  d_offset : int option;
  d_message : string;
}

let v ?context ?offset severity ~component message =
  {
    d_severity = severity;
    d_component = component;
    d_context = context;
    d_offset = offset;
    d_message = message;
  }

let to_string d =
  let off = match d.d_offset with None -> "" | Some o -> Printf.sprintf "@%d" o in
  let ctx = match d.d_context with None -> "" | Some c -> Printf.sprintf " (%s)" c in
  Printf.sprintf "%-8s %s%s%s: %s" (severity_to_string d.d_severity) d.d_component off ctx
    d.d_message

let demote d = match d.d_severity with Fatal -> { d with d_severity = Degraded } | _ -> d

let worst = function
  | [] -> None
  | ds ->
      Some
        (List.fold_left
           (fun acc d -> if severity_compare d.d_severity acc > 0 then d.d_severity else acc)
           Warning ds)

let is_degraded ds =
  match worst ds with Some (Degraded | Fatal) -> true | Some Warning | None -> false

let exit_code ds =
  match worst ds with Some Fatal -> 1 | Some Degraded -> 2 | Some Warning | None -> 0

type mode = [ `Strict | `Lenient ]

type 'a outcome = { ok : 'a; diags : t list }

let outcome ?(diags = []) ok = { ok; diags }
let ok o = o.ok
let diags o = o.diags

module Sink = struct
  type diag = t

  type t = {
    strict : bool;
    component : string;
    fail : string -> exn;
    mutable rev : diag list;  (** newest first *)
    mutable reported : int;  (** own reports, including those past [limit] *)
  }

  let limit = 128

  let create ?(mode = `Strict) ~component fail =
    { strict = mode = `Strict; component; fail; rev = []; reported = 0 }

  let raise_in t context msg =
    raise (t.fail (match context with None -> msg | Some c -> c ^ ": " ^ msg))

  let report t ?context ?offset severity msg =
    if t.strict then raise_in t context msg;
    if t.reported < limit then
      t.rev <- v ?context ?offset severity ~component:t.component msg :: t.rev;
    t.reported <- t.reported + 1

  let absorb t ds = List.iter (fun d -> t.rev <- d :: t.rev) ds

  let diags t =
    let kept = List.rev t.rev in
    if t.reported <= limit then kept
    else
      kept
      @ [
          v Warning ~component:"diag"
            (Printf.sprintf "%d further diagnostics suppressed" (t.reported - limit));
        ]

  let outcome t ok = { ok; diags = diags t }

  type tally = { sink : t; context : string option; mutable skipped : int }

  let tally ?context sink = { sink; context; skipped = 0 }

  let skip tl msg =
    if tl.sink.strict then raise_in tl.sink tl.context msg;
    tl.skipped <- tl.skipped + 1

  let close tl summary =
    if tl.skipped > 0 then report tl.sink ?context:tl.context Degraded (summary tl.skipped)
end
