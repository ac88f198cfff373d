type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

exception Parse_error of string

(* one pass: runs of bytes that need no escape are copied whole *)
let write_string buf s =
  let flush start i = if i > start then Buffer.add_substring buf s start (i - start) in
  let rec go start i =
    if i = String.length s then flush start i
    else
      match String.unsafe_get s i with
      | ('"' | '\\' | '\000' .. '\031') as c ->
          flush start i;
          Buffer.add_string buf
            (match c with
            | '"' -> "\\\"" | '\\' -> "\\\\" | '\n' -> "\\n" | '\r' -> "\\r" | '\t' -> "\\t"
            | c -> Printf.sprintf "\\u%04x" (Char.code c));
          go (i + 1) (i + 1)
      | _ -> go start (i + 1)
  in
  Buffer.add_char buf '"';
  go 0 0;
  Buffer.add_char buf '"'

(* the shortest %.15g..%.17g spelling that reads back as the same float,
   ".0" added where it would read back as an [Int]; JSON has no nan/inf *)
let float_repr f =
  let rec go p =
    let s = Printf.sprintf "%.*g" p f in
    if p >= 17 || float_of_string s = f then s else go (p + 1)
  in
  if not (Float.is_finite f) then "null"
  else
    let s = go 15 in
    if String.exists (function '.' | 'e' -> true | _ -> false) s then s else s ^ ".0"

let rec write buf = function
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Int i -> Buffer.add_string buf (string_of_int i)
  | Float f -> Buffer.add_string buf (float_repr f)
  | String s -> write_string buf s
  | List items ->
      Buffer.add_char buf '[';
      List.iteri (fun i v -> if i > 0 then Buffer.add_char buf ','; write buf v) items;
      Buffer.add_char buf ']'
  | Obj fields ->
      Buffer.add_char buf '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char buf ',';
          write_string buf k;
          Buffer.add_char buf ':';
          write buf v)
        fields;
      Buffer.add_char buf '}'

let to_string t =
  let buf = Buffer.create 256 in
  write buf t;
  Buffer.contents buf

(* ------------------------------------------------------------------ *)

type parser_state = { src : string; mutable pos : int }

let fail msg = raise (Parse_error msg)
let peek p = if p.pos < String.length p.src then Some p.src.[p.pos] else None
let advance p = p.pos <- p.pos + 1

let rec skip_ws p =
  match peek p with
  | Some (' ' | '\t' | '\n' | '\r') ->
      advance p;
      skip_ws p
  | _ -> ()

let expect p c =
  match peek p with
  | Some c' when c' = c -> advance p
  | Some c' -> fail (Printf.sprintf "expected %c at %d, got %c" c p.pos c')
  | None -> fail (Printf.sprintf "expected %c at %d, got EOF" c p.pos)

let literal p word value =
  let n = String.length word in
  let rec matches i =
    i >= n || (String.unsafe_get p.src (p.pos + i) = String.unsafe_get word i && matches (i + 1))
  in
  if p.pos + n <= String.length p.src && matches 0 then begin
    p.pos <- p.pos + n;
    value
  end
  else fail (Printf.sprintf "bad literal at %d" p.pos)

let parse_string_body p =
  expect p '"';
  let buf = Buffer.create 16 in
  let rec go () =
    match peek p with
    | None -> fail "unterminated string"
    | Some '"' -> advance p
    | Some '\\' -> (
        advance p;
        match peek p with
        | Some 'n' -> advance p; Buffer.add_char buf '\n'; go ()
        | Some 't' -> advance p; Buffer.add_char buf '\t'; go ()
        | Some 'r' -> advance p; Buffer.add_char buf '\r'; go ()
        | Some '"' -> advance p; Buffer.add_char buf '"'; go ()
        | Some '\\' -> advance p; Buffer.add_char buf '\\'; go ()
        | Some '/' -> advance p; Buffer.add_char buf '/'; go ()
        | Some 'u' ->
            advance p;
            if p.pos + 4 > String.length p.src then fail "bad \\u escape";
            let hex_digit c =
              match c with
              | '0' .. '9' -> Char.code c - Char.code '0'
              | 'a' .. 'f' -> Char.code c - Char.code 'a' + 10
              | 'A' .. 'F' -> Char.code c - Char.code 'A' + 10
              | _ -> fail "bad \\u escape"
            in
            let code =
              (hex_digit p.src.[p.pos] lsl 12)
              lor (hex_digit p.src.[p.pos + 1] lsl 8)
              lor (hex_digit p.src.[p.pos + 2] lsl 4)
              lor hex_digit p.src.[p.pos + 3]
            in
            p.pos <- p.pos + 4;
            (* BMP only; enough for our own output *)
            if code < 0x80 then Buffer.add_char buf (Char.chr code)
            else Buffer.add_string buf (Printf.sprintf "\\u%04x" code);
            go ()
        | _ -> fail "bad escape")
    | Some c ->
        advance p;
        Buffer.add_char buf c;
        go ()
  in
  go ();
  Buffer.contents buf

let parse_number p =
  let start = p.pos in
  let is_num_char c =
    (c >= '0' && c <= '9') || c = '-' || c = '+' || c = '.' || c = 'e' || c = 'E'
  in
  (* classify while scanning: one [String.sub] for the conversion itself,
     no extra copy + [String.contains] re-scans *)
  let is_float = ref false in
  while (match peek p with Some c when is_num_char c -> true | _ -> false) do
    (match p.src.[p.pos] with '.' | 'e' | 'E' -> is_float := true | _ -> ());
    advance p
  done;
  let s = String.sub p.src start (p.pos - start) in
  if !is_float then
    match float_of_string_opt s with
    | Some f -> Float f
    | None -> fail ("bad number " ^ s)
  else
    match int_of_string_opt s with
    | Some i -> Int i
    | None -> fail ("bad number " ^ s)

let rec parse_value p =
  skip_ws p;
  match peek p with
  | None -> fail "unexpected EOF"
  | Some '{' ->
      advance p;
      skip_ws p;
      if peek p = Some '}' then begin
        advance p;
        Obj []
      end
      else begin
        let rec fields acc =
          skip_ws p;
          let k = parse_string_body p in
          skip_ws p;
          expect p ':';
          let v = parse_value p in
          skip_ws p;
          match peek p with
          | Some ',' ->
              advance p;
              fields ((k, v) :: acc)
          | Some '}' ->
              advance p;
              List.rev ((k, v) :: acc)
          | _ -> fail "expected , or } in object"
        in
        Obj (fields [])
      end
  | Some '[' ->
      advance p;
      skip_ws p;
      if peek p = Some ']' then begin
        advance p;
        List []
      end
      else begin
        let rec items acc =
          let v = parse_value p in
          skip_ws p;
          match peek p with
          | Some ',' ->
              advance p;
              items (v :: acc)
          | Some ']' ->
              advance p;
              List.rev (v :: acc)
          | _ -> fail "expected , or ] in array"
        in
        List (items [])
      end
  | Some '"' -> String (parse_string_body p)
  | Some 't' -> literal p "true" (Bool true)
  | Some 'f' -> literal p "false" (Bool false)
  | Some 'n' -> literal p "null" Null
  | Some _ -> parse_number p

let of_string s =
  let p = { src = s; pos = 0 } in
  let v = parse_value p in
  skip_ws p;
  if p.pos <> String.length s then fail "trailing garbage";
  v

let member k = function Obj fields -> List.assoc_opt k fields | _ -> None
let to_int = function Int i -> i | _ -> fail "expected int"
let to_str = function String s -> s | _ -> fail "expected string"
