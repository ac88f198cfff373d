type endian = Little | Big

exception Truncated of string

module Slice = struct
  type t = { data : string; off : int; len : int }

  let of_string data = { data; off = 0; len = String.length data }

  let make data ~pos ~len =
    if pos < 0 || len < 0 || pos > String.length data - len then
      invalid_arg "Bytesio.Slice.make";
    { data; off = pos; len }

  let length t = t.len
  let is_empty t = t.len = 0

  let get t i =
    if i < 0 || i >= t.len then invalid_arg "Bytesio.Slice.get";
    String.unsafe_get t.data (t.off + i)

  let sub t ~pos ~len =
    if pos < 0 || len < 0 || pos > t.len - len then invalid_arg "Bytesio.Slice.sub";
    { data = t.data; off = t.off + pos; len }

  let to_string t = String.sub t.data t.off t.len

  let index_opt t c =
    match String.index_from_opt t.data t.off c with
    | Some i when i < t.off + t.len -> Some (i - t.off)
    | _ -> None

  let is_ws c = c = ' ' || c = '\t' || c = '\r' || c = '\n'

  let trim t =
    let lo = ref 0 and hi = ref t.len in
    while !lo < !hi && is_ws (String.unsafe_get t.data (t.off + !lo)) do incr lo done;
    while !hi > !lo && is_ws (String.unsafe_get t.data (t.off + !hi - 1)) do decr hi done;
    { t with off = t.off + !lo; len = !hi - !lo }

  let lowercase_string t =
    String.init t.len (fun i -> Char.lowercase_ascii (String.unsafe_get t.data (t.off + i)))

  let equal_string t s =
    t.len = String.length s
    &&
    let rec go i =
      i >= t.len
      || (String.unsafe_get t.data (t.off + i) = String.unsafe_get s i && go (i + 1))
    in
    go 0

  let equal_caseless_string t s =
    t.len = String.length s
    &&
    let rec go i =
      i >= t.len
      || Char.lowercase_ascii (String.unsafe_get t.data (t.off + i))
         = Char.lowercase_ascii (String.unsafe_get s i)
         && go (i + 1)
    in
    go 0
end

module Writer = struct
  type t = { buf : Buffer.t; endian : endian }

  let create ?(endian = Little) () = { buf = Buffer.create 1024; endian }
  let endian t = t.endian
  let pos t = Buffer.length t.buf
  let u8 t v = Buffer.add_char t.buf (Char.chr (v land 0xFF))

  let u16 t v =
    match t.endian with
    | Little -> Buffer.add_uint16_le t.buf (v land 0xFFFF)
    | Big -> Buffer.add_uint16_be t.buf (v land 0xFFFF)

  let u32 t v =
    let v32 = Int32.of_int (v land 0xFFFFFFFF) in
    match t.endian with
    | Little -> Buffer.add_int32_le t.buf v32
    | Big -> Buffer.add_int32_be t.buf v32

  let u64 t v =
    match t.endian with
    | Little -> Buffer.add_int64_le t.buf v
    | Big -> Buffer.add_int64_be t.buf v

  let uint t v = u64 t (Int64.of_int v)

  let uleb128 t v =
    assert (v >= 0);
    let rec go v =
      let byte = v land 0x7F in
      let rest = v lsr 7 in
      if rest = 0 then u8 t byte
      else begin
        u8 t (byte lor 0x80);
        go rest
      end
    in
    go v

  let sleb128 t v =
    let rec go v =
      let byte = v land 0x7F in
      let rest = v asr 7 in
      let done_ = (rest = 0 && byte land 0x40 = 0) || (rest = -1 && byte land 0x40 <> 0) in
      if done_ then u8 t byte
      else begin
        u8 t (byte lor 0x80);
        go rest
      end
    in
    go v

  let bytes t s = Buffer.add_string t.buf s
  let append t src = Buffer.add_buffer t.buf src.buf
  let clear t = Buffer.clear t.buf

  let cstring t s =
    assert (not (String.contains s '\000'));
    Buffer.add_string t.buf s;
    Buffer.add_char t.buf '\000'

  let align t n =
    while Buffer.length t.buf mod n <> 0 do
      Buffer.add_char t.buf '\000'
    done

  let contents t = Buffer.contents t.buf
end

module Reader = struct
  type t = { data : string; base : int; len : int; endian : endian; mutable off : int }

  let of_string ?(endian = Little) data =
    { data; base = 0; len = String.length data; endian; off = 0 }

  let sub t ~pos ~len =
    if pos < 0 || len < 0 || pos + len > t.len then raise (Truncated "sub");
    { data = t.data; base = t.base + pos; len; endian = t.endian; off = 0 }

  let endian t = t.endian
  let pos t = t.off
  let length t = t.len
  let eof t = t.off >= t.len

  let seek t p =
    if p < 0 || p > t.len then raise (Truncated "seek");
    t.off <- p

  let need t n = if t.off + n > t.len then raise (Truncated (Printf.sprintf "need %d at %d/%d" n t.off t.len))

  let u8 t =
    need t 1;
    let v = Char.code t.data.[t.base + t.off] in
    t.off <- t.off + 1;
    v

  let u16 t =
    need t 2;
    let v =
      match t.endian with
      | Little -> String.get_uint16_le t.data (t.base + t.off)
      | Big -> String.get_uint16_be t.data (t.base + t.off)
    in
    t.off <- t.off + 2;
    v

  let u32 t =
    need t 4;
    let v32 =
      match t.endian with
      | Little -> String.get_int32_le t.data (t.base + t.off)
      | Big -> String.get_int32_be t.data (t.base + t.off)
    in
    t.off <- t.off + 4;
    Int32.to_int v32 land 0xFFFFFFFF

  let u64 t =
    need t 8;
    let v =
      match t.endian with
      | Little -> String.get_int64_le t.data (t.base + t.off)
      | Big -> String.get_int64_be t.data (t.base + t.off)
    in
    t.off <- t.off + 8;
    v

  let uint t =
    let v = u64 t in
    if Int64.compare v 0L < 0 || Int64.compare v (Int64.of_int max_int) > 0 then
      raise (Truncated "uint out of range");
    Int64.to_int v

  let uleb128 t =
    let rec go shift acc =
      let b = u8 t in
      let acc = acc lor ((b land 0x7F) lsl shift) in
      if b land 0x80 <> 0 then go (shift + 7) acc else acc
    in
    go 0 0

  let sleb128 t =
    let rec go shift acc =
      let b = u8 t in
      let acc = acc lor ((b land 0x7F) lsl shift) in
      let shift = shift + 7 in
      if b land 0x80 <> 0 then go shift acc
      else if b land 0x40 <> 0 && shift < 63 then acc lor (-1 lsl shift)
      else acc
    in
    go 0 0

  let bytes t n =
    need t n;
    let s = String.sub t.data (t.base + t.off) n in
    t.off <- t.off + n;
    s

  (* non-copying variant of [bytes]: a view into the backing string.
     The slice pins the whole backing buffer alive — convert with
     [Slice.to_string] before retaining it in a long-lived structure. *)
  let slice t n =
    need t n;
    let s = Slice.make t.data ~pos:(t.base + t.off) ~len:n in
    t.off <- t.off + n;
    s

  (* positional magic-bytes check: no allocation, unlike reading via
     [bytes] and comparing the copy *)
  let expect t s =
    let n = String.length s in
    need t n;
    let rec eq i =
      i >= n
      || (String.unsafe_get t.data (t.base + t.off + i) = String.unsafe_get s i
          && eq (i + 1))
    in
    let ok = eq 0 in
    if ok then t.off <- t.off + n;
    ok

  let cstring t =
    let start = t.off in
    let rec find i = if i >= t.len then raise (Truncated "cstring") else if t.data.[t.base + i] = '\000' then i else find (i + 1) in
    let stop = find start in
    t.off <- stop + 1;
    String.sub t.data (t.base + start) (stop - start)

  let cstring_at t p =
    let saved = t.off in
    seek t p;
    let s = cstring t in
    t.off <- saved;
    s
end
