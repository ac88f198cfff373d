open Ds_util

let log_src = Logs.Src.create "ds_store" ~doc:"DepSurf content-addressed artifact store"

module Log = (val Logs.src_log log_src : Logs.LOG)

(* SplitMix64 finalizer: the same mixer Prng uses, applied here to hash
   states so single-byte differences avalanche across the whole digest. *)
let mix64 z =
  let z = Int64.(mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L) in
  let z = Int64.(mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL) in
  Int64.(logxor z (shift_right_logical z 31))

let fnv_prime = 0x100000001B3L

module Hash = struct
  type t = { mutable a : int64; mutable b : int64 }

  let create () = { a = 0xCBF29CE484222325L; b = 0x84222325CBF29CE4L }

  let byte t c =
    t.a <- Int64.mul (Int64.logxor t.a (Int64.of_int c)) fnv_prime;
    t.b <- Int64.mul (Int64.logxor t.b (Int64.of_int (c lxor 0x5A))) fnv_prime

  let int64 t v =
    for i = 0 to 7 do
      byte t (Int64.to_int (Int64.shift_right_logical v (i * 8)) land 0xFF)
    done

  let int t v = int64 t (Int64.of_int v)

  let string t s =
    (* length-delimited so adjacent fields cannot alias *)
    int t (String.length s);
    String.iter (fun c -> byte t (Char.code c)) s

  let float t f = int64 t (Int64.bits_of_float f)
  let hex t = Printf.sprintf "%016Lx%016Lx" (mix64 t.a) (mix64 t.b)

  let digest s =
    let h = create () in
    string h s;
    hex h
end

module Frame = struct
  let magic = "DSAR"
  let format_version = 1

  (* FNV-1a over the payload, SplitMix64-finished. FNV's odd-prime
     multiply is injective mod 2^64, so two equal-length payloads that
     differ in any single byte are *guaranteed* to checksum differently —
     the property the byte-flip tests pin down. *)
  let checksum s =
    let h = ref 0xCBF29CE484222325L in
    String.iter
      (fun c ->
        h := Int64.logxor !h (Int64.of_int (Char.code c));
        h := Int64.mul !h fnv_prime)
      s;
    mix64 !h

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
          match decode payload with
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
