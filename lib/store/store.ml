open Ds_util

let log_src = Logs.Src.create "ds_store" ~doc:"DepSurf content-addressed artifact store"

module Log = (val Logs.src_log log_src : Logs.LOG)

module Hash = struct
  (* Two lanes, each an xxHash64-style round per 64-bit word:
     [acc = rotl (acc + w * p) r * q] with odd [p] and [q]. For a fixed
     word the round is a bijection of [acc], and for a fixed [acc] it is
     injective in the word, so two inputs of equal length that differ in
     any single word always leave a lane different; the SplitMix64
     finisher ({!Prng.mix64}) is a bijection too. The rotation carries
     the high bits of one word down before the next is absorbed, so a
     flip of bit 63 in two words does not cancel, as it would under a
     plain [(acc xor w) * p]. *)
  type t = { mutable a : int64; mutable b : int64 }

  let create () = { a = 0xCBF29CE484222325L; b = 0x84222325CBF29CE4L }
  let[@inline] rotl x r = Int64.(logor (shift_left x r) (shift_right_logical x (64 - r)))

  let[@inline] round_a acc w =
    Int64.(mul (rotl (add acc (mul w 0xC2B2AE3D27D4EB4FL)) 31) 0x9E3779B185EBCA87L)

  let[@inline] round_b acc w =
    Int64.(mul (rotl (add acc (mul w 0x85EBCA77C2B2AE63L)) 27) 0x165667B19E3779F9L)

  let int64 t v =
    t.a <- round_a t.a v;
    t.b <- round_b t.b v

  let int t v = int64 t (Int64.of_int v)

  (* length-delimited so adjacent fields cannot alias: the length, each
     whole little-endian word, then the 1-7 tail bytes packed into one
     word. The lanes stay in unboxed locals until the end. *)
  let string t s =
    let n = String.length s in
    let a = ref (round_a t.a (Int64.of_int n)) and b = ref (round_b t.b (Int64.of_int n)) in
    let i = ref 0 in
    while !i + 8 <= n do
      let w = String.get_int64_le s !i in
      a := round_a !a w;
      b := round_b !b w;
      i := !i + 8
    done;
    if !i < n then begin
      let w = ref 0L in
      for j = n - 1 downto !i do
        w := Int64.(logor (shift_left !w 8) (of_int (Char.code (String.unsafe_get s j))))
      done;
      a := round_a !a !w;
      b := round_b !b !w
    end;
    t.a <- !a;
    t.b <- !b

  let float t f = int64 t (Int64.bits_of_float f)
  let hex t = Printf.sprintf "%016Lx%016Lx" (Prng.mix64 t.a) (Prng.mix64 t.b)

  let digest s =
    let h = create () in
    string h s;
    hex h
end

module Frame = struct
  let magic = "DSAR"
  let format_version = 2

  (* The first lane of {!Hash} over the payload, SplitMix64-finished:
     two equal-length payloads that differ in any single byte (any
     single word, in fact) are guaranteed to checksum differently, the
     property the byte-flip tests pin down. *)
  let checksum s =
    let h = Hash.create () in
    Hash.string h s;
    Prng.mix64 h.Hash.a

  type result = Ok of string | Corrupt of string

  let encode ~ns payload =
    let w = Bytesio.Writer.create () in
    Bytesio.Writer.bytes w magic;
    Bytesio.Writer.u16 w format_version;
    Bytesio.Writer.cstring w ns;
    Bytesio.Writer.u64 w (checksum payload);
    Bytesio.Writer.uint w (String.length payload);
    Bytesio.Writer.bytes w payload;
    Bytesio.Writer.contents w

  let decode ~ns data =
    match
      let r = Bytesio.Reader.of_string data in
      if not (Bytesio.Reader.expect r magic) then Corrupt "bad magic"
      else
        let v = Bytesio.Reader.u16 r in
        if v <> format_version then Corrupt (Printf.sprintf "format version %d" v)
        else
          let frame_ns = Bytesio.Reader.cstring r in
          if frame_ns <> ns then Corrupt ("namespace mismatch: " ^ frame_ns)
          else
            let sum = Bytesio.Reader.u64 r in
            let len = Bytesio.Reader.uint r in
            let payload = Bytesio.Reader.bytes r len in
            if not (Bytesio.Reader.eof r) then Corrupt "trailing bytes"
            else if checksum payload <> sum then Corrupt "payload checksum mismatch"
            else Ok payload
    with
    | res -> res
    | exception Bytesio.Truncated _ -> Corrupt "truncated frame"
end

type counters = {
  c_hits : int;
  c_misses : int;
  c_evictions : int;
  c_writes : int;
  c_bytes_read : int;
  c_bytes_written : int;
}

let zero_counters =
  { c_hits = 0; c_misses = 0; c_evictions = 0; c_writes = 0; c_bytes_read = 0; c_bytes_written = 0 }

let add_counters a b =
  {
    c_hits = a.c_hits + b.c_hits;
    c_misses = a.c_misses + b.c_misses;
    c_evictions = a.c_evictions + b.c_evictions;
    c_writes = a.c_writes + b.c_writes;
    c_bytes_read = a.c_bytes_read + b.c_bytes_read;
    c_bytes_written = a.c_bytes_written + b.c_bytes_written;
  }

type t = {
  t_dir : string;
  hits : int Atomic.t;
  misses : int Atomic.t;
  evictions : int Atomic.t;
  writes : int Atomic.t;
  bytes_read : int Atomic.t;
  bytes_written : int Atomic.t;
  save_lock : Mutex.t;
  mutable last_saved : counters;
}

let entry_suffix = ".dsa"
let stats_file dir = Filename.concat dir "stats.json"

let mkdir_p dir =
  let rec go d =
    if not (Sys.file_exists d) then begin
      go (Filename.dirname d);
      try Sys.mkdir d 0o755 with Sys_error _ when Sys.file_exists d -> ()
    end
  in
  go dir

let open_ ~dir () =
  mkdir_p dir;
  {
    t_dir = dir;
    hits = Atomic.make 0;
    misses = Atomic.make 0;
    evictions = Atomic.make 0;
    writes = Atomic.make 0;
    bytes_read = Atomic.make 0;
    bytes_written = Atomic.make 0;
    save_lock = Mutex.create ();
    last_saved = zero_counters;
  }

let dir t = t.t_dir

(* Keys become file names: keep the readable label, fence everything
   else. The trailing hash component makes sanitized collisions moot. *)
let sanitize key =
  String.map
    (fun c ->
      match c with 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '.' | '_' | '-' -> c | _ -> '-')
    key

let entry_path dir ~ns ~key = Filename.concat (Filename.concat dir (sanitize ns)) (sanitize key ^ entry_suffix)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* temp file in the destination directory + rename: atomic on POSIX, so
   readers only ever see complete frames *)
let write_atomic path data =
  let dir = Filename.dirname path in
  mkdir_p dir;
  let tmp = Filename.temp_file ~temp_dir:dir "tmp-" ".part" in
  let oc = open_out_bin tmp in
  (match output_string oc data with
  | () -> close_out oc
  | exception e ->
      close_out_noerr oc;
      (try Sys.remove tmp with Sys_error _ -> ());
      raise e);
  Sys.rename tmp path

let remove_quiet path = try Sys.remove path with Sys_error _ -> ()

let evict t ~ns ~key ~reason path =
  Log.warn (fun m -> m "evicting corrupt cache entry %s/%s: %s" ns key reason);
  remove_quiet path;
  Atomic.incr t.evictions

let find t ~ns ~key ~decode =
  Ds_trace.Trace.span ~name:"store.find" ~attrs:[ ("ns", ns); ("key", key) ]
  @@ fun () ->
  let path = entry_path t.t_dir ~ns ~key in
  match read_file path with
  | exception Sys_error _ ->
      Atomic.incr t.misses;
      Ds_trace.Trace.set_attr "outcome" "miss";
      None
  | data -> (
      match Frame.decode ~ns data with
      | Frame.Corrupt reason ->
          evict t ~ns ~key ~reason path;
          Ds_trace.Trace.set_attr "outcome" "evict";
          None
      | Frame.Ok payload -> (
          (* its own span, so [store.find]'s self time is the read and
             the frame checksum alone *)
          match Ds_trace.Trace.span ~name:"store.decode" (fun () -> decode payload) with
          | v ->
              Atomic.incr t.hits;
              ignore (Atomic.fetch_and_add t.bytes_read (String.length data));
              Ds_trace.Trace.set_attr "outcome" "hit";
              Ds_trace.Trace.set_attr "bytes" (string_of_int (String.length data));
              Some v
          | exception e ->
              (* intact frame, undecodable payload: stale codec *)
              evict t ~ns ~key ~reason:("decode: " ^ Printexc.to_string e) path;
              Ds_trace.Trace.set_attr "outcome" "evict";
              None))

let add t ~ns ~key payload =
  Ds_trace.Trace.span ~name:"store.add"
    ~attrs:[ ("ns", ns); ("key", key); ("bytes", string_of_int (String.length payload)) ]
  @@ fun () ->
  let frame = Frame.encode ~ns payload in
  (match write_atomic (entry_path t.t_dir ~ns ~key) frame with
  | () ->
      Atomic.incr t.writes;
      ignore (Atomic.fetch_and_add t.bytes_written (String.length frame))
  | exception Sys_error reason ->
      (* a read-only or full cache dir degrades the cache, not the run *)
      Log.warn (fun m -> m "cannot persist cache entry %s/%s: %s" ns key reason))

let memo ?(cache_if = fun _ -> true) store ~ns ~key ~encode ~decode compute =
  match store with
  | None -> compute ()
  | Some t -> (
      match find t ~ns ~key ~decode with
      | Some v -> v
      | None ->
          let v = compute () in
          if cache_if v then add t ~ns ~key (encode v);
          v)

let stats t =
  {
    c_hits = Atomic.get t.hits;
    c_misses = Atomic.get t.misses;
    c_evictions = Atomic.get t.evictions;
    c_writes = Atomic.get t.writes;
    c_bytes_read = Atomic.get t.bytes_read;
    c_bytes_written = Atomic.get t.bytes_written;
  }

(* -------------------- persisted lifetime counters -------------------- *)

let counters_of_json j =
  let get name = match Json.member name j with Some (Json.Int i) -> i | _ -> 0 in
  {
    c_hits = get "hits";
    c_misses = get "misses";
    c_evictions = get "evictions";
    c_writes = get "writes";
    c_bytes_read = get "bytes_read";
    c_bytes_written = get "bytes_written";
  }

let json_of_counters c =
  Json.Obj
    [
      ("hits", Json.Int c.c_hits);
      ("misses", Json.Int c.c_misses);
      ("evictions", Json.Int c.c_evictions);
      ("writes", Json.Int c.c_writes);
      ("bytes_read", Json.Int c.c_bytes_read);
      ("bytes_written", Json.Int c.c_bytes_written);
    ]

let lifetime ~dir =
  match read_file (stats_file dir) with
  | exception Sys_error _ -> zero_counters
  | data -> ( match Json.of_string data with j -> counters_of_json j | exception _ -> zero_counters)

let sub_counters a b =
  {
    c_hits = a.c_hits - b.c_hits;
    c_misses = a.c_misses - b.c_misses;
    c_evictions = a.c_evictions - b.c_evictions;
    c_writes = a.c_writes - b.c_writes;
    c_bytes_read = a.c_bytes_read - b.c_bytes_read;
    c_bytes_written = a.c_bytes_written - b.c_bytes_written;
  }

let save_counters t =
  Mutex.lock t.save_lock;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock t.save_lock)
    (fun () ->
      let now = stats t in
      let delta = sub_counters now t.last_saved in
      let merged = add_counters (lifetime ~dir:t.t_dir) delta in
      (match write_atomic (stats_file t.t_dir) (Json.to_string (json_of_counters merged) ^ "\n") with
      | () -> t.last_saved <- now
      | exception Sys_error reason ->
          Log.warn (fun m -> m "cannot persist cache counters: %s" reason)))

(* ------------------------- maintenance ------------------------------- *)

type entry = { e_ns : string; e_key : string; e_bytes : int; e_mtime : float }

let list_dir d = match Sys.readdir d with files -> Array.to_list files | exception Sys_error _ -> []

let namespaces dir =
  List.filter (fun f -> Sys.is_directory (Filename.concat dir f)) (list_dir dir)

let entries ~dir =
  let all =
    List.concat_map
      (fun ns ->
        List.filter_map
          (fun f ->
            if Filename.check_suffix f entry_suffix then
              let path = Filename.concat (Filename.concat dir ns) f in
              match (Unix.stat path : Unix.stats) with
              | st ->
                  Some
                    {
                      e_ns = ns;
                      e_key = Filename.chop_suffix f entry_suffix;
                      e_bytes = st.Unix.st_size;
                      e_mtime = st.Unix.st_mtime;
                    }
              | exception Unix.Unix_error _ -> None
            else None)
          (list_dir (Filename.concat dir ns)))
      (namespaces dir)
  in
  List.sort (fun a b -> compare b.e_mtime a.e_mtime) all

let sweep_parts dir =
  List.iter
    (fun ns ->
      List.iter
        (fun f ->
          if Filename.check_suffix f ".part" then
            remove_quiet (Filename.concat (Filename.concat dir ns) f))
        (list_dir (Filename.concat dir ns)))
    (namespaces dir)

(* Maintenance generation: a monotonic counter persisted next to the
   entries, bumped whenever maintenance deletes something. A live
   server whose hot index hydrates from this directory polls it to
   invalidate its response-byte cache ({!Ds_serve.Serve}) — without it,
   `depsurf cache clear`/`gc` against a running server's cache dir
   would leave the server returning bytes for entries that no longer
   exist. The file survives {!clear} (it is not an entry), so the
   counter never restarts at a value a watcher has already seen. *)
let maintgen_file dir = Filename.concat dir "maintgen"

let maintenance_generation ~dir =
  match read_file (maintgen_file dir) with
  | data -> ( match int_of_string_opt (String.trim data) with Some n -> n | None -> 0)
  | exception Sys_error _ -> 0

let bump_maintgen dir =
  let next = maintenance_generation ~dir + 1 in
  match write_atomic (maintgen_file dir) (string_of_int next ^ "\n") with
  | () -> ()
  | exception Sys_error reason ->
      Log.warn (fun m -> m "cannot bump maintenance generation: %s" reason)

let verify ~dir =
  Ds_trace.Trace.span ~name:"store.verify" @@ fun () ->
  sweep_parts dir;
  let ok, bad =
    List.fold_left
      (fun (ok, bad) e ->
        let path = Filename.concat (Filename.concat dir e.e_ns) (e.e_key ^ entry_suffix) in
        match read_file path with
        | exception Sys_error _ -> (ok, bad)
        | data -> (
            match Frame.decode ~ns:e.e_ns data with
            | Frame.Ok _ -> (ok + 1, bad)
            | Frame.Corrupt reason ->
                Log.warn (fun m ->
                    m "evicting corrupt cache entry %s/%s: %s" e.e_ns e.e_key reason);
                remove_quiet path;
                (ok, bad + 1)))
      (0, 0) (entries ~dir)
  in
  if bad > 0 then bump_maintgen dir;
  (ok, bad)

let gc ~dir ~max_bytes =
  sweep_parts dir;
  (* entries come newest-first: keep from the front, evict the tail *)
  let _, evicted =
    List.fold_left
      (fun (kept_bytes, evicted) e ->
        if kept_bytes + e.e_bytes <= max_bytes then (kept_bytes + e.e_bytes, evicted)
        else begin
          remove_quiet (Filename.concat (Filename.concat dir e.e_ns) (e.e_key ^ entry_suffix));
          (kept_bytes, evicted + 1)
        end)
      (0, 0) (entries ~dir)
  in
  if evicted > 0 then bump_maintgen dir;
  evicted

let clear ~dir =
  sweep_parts dir;
  let es = entries ~dir in
  List.iter
    (fun e -> remove_quiet (Filename.concat (Filename.concat dir e.e_ns) (e.e_key ^ entry_suffix)))
    es;
  remove_quiet (stats_file dir);
  (* unconditional: even an already-empty dir signals "maintenance ran
     here", and the bump after the deletions means a watcher that sees
     the new generation also sees the emptied directory *)
  bump_maintgen dir;
  List.length es
