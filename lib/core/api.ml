open Ds_util

let version = 1

let envelope ?(health = "clean") ?(diagnostics = []) data =
  Json.Obj
    [
      ("v", Json.Int version);
      ("health", Json.String health);
      ("data", data);
      ("diagnostics", Json.List diagnostics);
    ]

let of_diags ~data diags =
  let health =
    match Diag.worst diags with
    | None | Some Diag.Warning -> "clean"
    | Some Diag.Degraded -> "degraded"
    | Some Diag.Fatal -> "fatal"
  in
  envelope ~health
    ~diagnostics:(List.map (fun d -> Json.String (Diag.to_string d)) diags)
    data

let error_envelope ~status ?(diagnostics = []) msg =
  envelope ~health:"fatal"
    ~diagnostics:(List.map (fun s -> Json.String s) (msg :: diagnostics))
    (Json.Obj [ ("error", Json.String msg); ("status", Json.Int status) ])

let data j = match Json.member "data" j with Some d -> d | None -> j

(* --------------------------- mutation envelope ----------------------- *)

type mutation = { mu_params : (string * string) list; mu_body : string; mu_enveloped : bool }

let bare body = { mu_params = []; mu_body = body; mu_enveloped = false }

(* A bare body is whatever the endpoint natively eats (raw BPF object
   bytes, a plain JSON document). The envelope spelling is recognised
   conservatively: a JSON object that carries a "v" member. Anything
   else passes through untouched, which is what keeps pre-envelope
   clients working byte-for-byte. *)
let looks_enveloped body =
  let n = String.length body in
  let rec first i = if i < n then match body.[i] with ' ' | '\t' | '\r' | '\n' -> first (i + 1) | c -> Some c else None in
  match first 0 with
  | Some '{' -> (
      match Json.of_string body with
      | exception _ -> None
      | j -> ( match Json.member "v" j with Some _ -> Some j | None -> None))
  | _ -> None

let parse_mutation body =
  match looks_enveloped body with
  | None -> Ok (bare body)
  | Some j ->
      let problems = ref [] in
      let problem fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt in
      (match Json.member "v" j with
      | Some (Json.Int v) when v = version -> ()
      | Some (Json.Int v) -> problem "unsupported envelope version %d (this server speaks v%d)" v version
      | Some _ -> problem "envelope member \"v\" must be an integer"
      | None -> ());
      (match j with
      | Json.Obj members ->
          List.iter
            (fun (k, _) ->
              match k with
              | "v" | "params" | "body" -> ()
              | k -> problem "unknown envelope member %S (expected v, params, body)" k)
            members
      | _ -> ());
      let mu_params =
        match Json.member "params" j with
        | None | Some Json.Null -> []
        | Some (Json.Obj kvs) ->
            List.filter_map
              (fun (k, v) ->
                match v with
                | Json.String s -> Some (k, s)
                | Json.Int n -> Some (k, string_of_int n)
                | Json.Bool b -> Some (k, if b then "1" else "0")
                | _ ->
                    problem "envelope param %S must be a string, integer or bool" k;
                    None)
              kvs
        | Some _ ->
            problem "envelope member \"params\" must be an object";
            []
      in
      let mu_body =
        match Json.member "body" j with
        | None | Some Json.Null -> ""
        | Some (Json.String b64) -> (
            match B64.decode b64 with
            | Some raw -> raw
            | None ->
                problem "envelope member \"body\" is not valid base64";
                "")
        | Some (Json.Obj _ as inline) | Some (Json.List _ as inline) ->
            (* inline JSON bodies avoid double-encoding for JSON endpoints *)
            Json.to_string inline
        | Some _ ->
            problem "envelope member \"body\" must be a base64 string or inline JSON";
            ""
      in
      if !problems = [] then Ok { mu_params; mu_body; mu_enveloped = true }
      else Error (List.rev !problems)
