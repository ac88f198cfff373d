open Depsurf
open Ds_ksrc
module Store = Ds_store.Store

(* Each test gets its own store directory under the system temp dir. *)
let fresh_dir () =
  let f = Filename.temp_file "ds-store-test" "" in
  Sys.remove f;
  f

let read_file path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

let write_file path s =
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc

let entry_path dir (e : Store.entry) =
  Filename.concat (Filename.concat dir e.Store.e_ns) (e.Store.e_key ^ ".dsa")

(* ------------------------------------------------------------------ *)
(* Hash                                                                *)
(* ------------------------------------------------------------------ *)

let digest feed =
  let h = Store.Hash.create () in
  feed h;
  Store.Hash.hex h

let test_hash_determinism () =
  let feed h =
    Store.Hash.string h "surface";
    Store.Hash.int h 42;
    Store.Hash.int64 h 57427189485L;
    Store.Hash.float h 0.04
  in
  Alcotest.(check string) "same inputs, same digest" (digest feed) (digest feed);
  let d = digest feed in
  Alcotest.(check int) "32 hex chars" 32 (String.length d);
  String.iter
    (fun c ->
      Alcotest.(check bool) "hex alphabet" true
        ((c >= '0' && c <= '9') || (c >= 'a' && c <= 'f')))
    d

let test_hash_separation () =
  let one f = digest f in
  let distinct =
    [
      one (fun h -> Store.Hash.string h "ab"; Store.Hash.string h "c");
      one (fun h -> Store.Hash.string h "a"; Store.Hash.string h "bc");
      one (fun h -> Store.Hash.string h "abc");
      one (fun h -> Store.Hash.int h 1);
      one (fun h -> Store.Hash.float h 1.0);
      one (fun h -> Store.Hash.int h 1; Store.Hash.int h 2);
      one (fun h -> Store.Hash.int h 2; Store.Hash.int h 1);
      one (fun _ -> ());
    ]
  in
  Alcotest.(check int) "no collisions between distinct feeds"
    (List.length distinct)
    (List.length (List.sort_uniq compare distinct));
  (* ints are hashed through their 64-bit widening, by design *)
  Alcotest.(check string) "int and int64 agree"
    (digest (fun h -> Store.Hash.int h 7))
    (digest (fun h -> Store.Hash.int64 h 7L))

let test_hash_one_shot () =
  List.iter
    (fun s ->
      Alcotest.(check string)
        (Printf.sprintf "digest of %d bytes" (String.length s))
        (digest (fun h -> Store.Hash.string h s))
        (Store.Hash.digest s))
    [ ""; "a"; "abc"; String.make 255 '\xff'; String.init 70_000 (fun i -> Char.chr (i land 0xFF)) ]

(* A flip of bit 63 in two words cancels under a plain per-word
   [(h xor w) * p] round, since a multiply only carries bits upward;
   two bodies differing that way would share an ETag. *)
let test_hash_top_bit_pair () =
  let x = String.init 64 (fun i -> Char.chr ((i * 37) land 0xFF)) in
  let b = Bytes.of_string x in
  List.iter (fun i -> Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0x80))) [ 7; 15 ];
  let y = Bytes.to_string b in
  Alcotest.(check bool) "digest differs" true (Store.Hash.digest x <> Store.Hash.digest y);
  Alcotest.(check bool) "checksum differs" true (Store.Frame.checksum x <> Store.Frame.checksum y)

let test_hash_tail_packing () =
  Alcotest.(check bool) "a vs a\\000" true (Store.Hash.digest "a" <> Store.Hash.digest "a\000");
  Alcotest.(check bool) "tail byte order" true (Store.Hash.digest "ab" <> Store.Hash.digest "ba")

(* The hash is part of the on-disk format: every stored checksum and
   key changes with it. Changing the function means editing these
   vectors and bumping [Frame.format_version] together. *)
let test_hash_known_answers () =
  Alcotest.(check int) "frame format version" 2 Store.Frame.format_version;
  let s64 = String.init 64 Char.chr in
  List.iter
    (fun (s, digest, checksum) ->
      let name = Printf.sprintf "%d bytes" (String.length s) in
      Alcotest.(check string) ("digest of " ^ name) digest (Store.Hash.digest s);
      Alcotest.(check int64) ("checksum of " ^ name) checksum (Store.Frame.checksum s))
    [
      ("", "d5f5375dc20822fb5159f3d90ecf1800", 0xd5f5375dc20822fbL);
      ("a", "fc9f434e809584820e6a6bba6363f60d", 0xfc9f434e80958482L);
      ("abc", "0db102fb1645db46390d6ca236608327", 0x0db102fb1645db46L);
      (s64, "cc29b6d4572293e187b9679724bda9f4", 0xcc29b6d4572293e1L);
    ];
  Alcotest.(check string) "mixed feed" "22d3ed814cc99fa490a55f107a4eda90"
    (digest (fun h ->
         Store.Hash.string h "surface";
         Store.Hash.int h 42;
         Store.Hash.int64 h 57427189485L;
         Store.Hash.float h 0.04))

(* Any single differing word, the packed tail included, must change the
   checksum: the round is injective in the word and bijective in the
   lane. [mask] is xored into the chosen word's bytes. *)
let qcheck_word_flip =
  QCheck.Test.make ~name:"strings differing in one word never share a checksum" ~count:500
    QCheck.(triple (string_of_size (QCheck.Gen.int_range 1 200)) small_nat int64)
    (fun (s, word, mask) ->
      let n = String.length s in
      let start = word mod ((n + 7) / 8) * 8 in
      let len = min 8 (n - start) in
      let keep = if len = 8 then -1L else Int64.(sub (shift_left 1L (8 * len)) 1L) in
      let mask = match Int64.logand mask keep with 0L -> 1L | m -> m in
      let b = Bytes.of_string s in
      for j = 0 to len - 1 do
        let m = Int64.(to_int (logand (shift_right_logical mask (8 * j)) 0xFFL)) in
        Bytes.set b (start + j) (Char.chr (Char.code (Bytes.get b (start + j)) lxor m))
      done;
      Store.Frame.checksum s <> Store.Frame.checksum (Bytes.to_string b))

(* ------------------------------------------------------------------ *)
(* Frame                                                               *)
(* ------------------------------------------------------------------ *)

let check_frame_ok ns payload =
  match Store.Frame.decode ~ns (Store.Frame.encode ~ns payload) with
  | Store.Frame.Ok p -> Alcotest.(check string) "payload roundtrips" payload p
  | Store.Frame.Corrupt why -> Alcotest.fail ("intact frame rejected: " ^ why)

let test_frame_roundtrip () =
  check_frame_ok "surface" "";
  check_frame_ok "image" "x";
  check_frame_ok "diff" (String.init 256 Char.chr);
  check_frame_ok "matrix" (String.concat "" (List.init 4096 (fun i -> string_of_int i)))

let is_corrupt = function Store.Frame.Corrupt _ -> true | Store.Frame.Ok _ -> false

let test_frame_ns_mismatch () =
  Alcotest.(check bool) "wrong namespace is corrupt" true
    (is_corrupt (Store.Frame.decode ~ns:"image" (Store.Frame.encode ~ns:"surface" "p")))

let test_frame_truncation_and_garbage () =
  let frame = Store.Frame.encode ~ns:"surface" "some payload bytes" in
  for len = 0 to String.length frame - 1 do
    Alcotest.(check bool)
      (Printf.sprintf "prefix of %d bytes is corrupt" len)
      true
      (is_corrupt (Store.Frame.decode ~ns:"surface" (String.sub frame 0 len)))
  done;
  Alcotest.(check bool) "trailing byte is corrupt" true
    (is_corrupt (Store.Frame.decode ~ns:"surface" (frame ^ "\x00")));
  Alcotest.(check bool) "garbage is corrupt" true
    (is_corrupt (Store.Frame.decode ~ns:"surface" "garbage that is no frame"))

(* Flip every byte of a frame, with several masks: the decoder must reject
   every variant — a damaged entry can never decode to a wrong value. *)
let test_frame_single_byte_flips () =
  let payload = "payload under test \x00\x01\xff" in
  let frame = Store.Frame.encode ~ns:"surface" payload in
  List.iter
    (fun mask ->
      for i = 0 to String.length frame - 1 do
        let b = Bytes.of_string frame in
        Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor mask));
        match Store.Frame.decode ~ns:"surface" (Bytes.to_string b) with
        | Store.Frame.Corrupt _ -> ()
        | Store.Frame.Ok p ->
            Alcotest.(check bool)
              (Printf.sprintf "flip mask %#x at byte %d yields the original or corrupt" mask i)
              true (String.equal p payload)
      done)
    [ 0x01; 0x80; 0xff ]

let qcheck_frame_flip =
  QCheck.Test.make ~name:"flipping any byte of any frame never yields a wrong payload"
    ~count:300
    QCheck.(triple (string_of_size (QCheck.Gen.int_range 0 200)) small_nat (int_range 1 255))
    (fun (payload, pos, mask) ->
      let frame = Store.Frame.encode ~ns:"surface" payload in
      let pos = pos mod String.length frame in
      let b = Bytes.of_string frame in
      Bytes.set b pos (Char.chr (Char.code (Bytes.get b pos) lxor mask));
      match Store.Frame.decode ~ns:"surface" (Bytes.to_string b) with
      | Store.Frame.Corrupt _ -> true
      | Store.Frame.Ok p -> String.equal p payload)

(* ------------------------------------------------------------------ *)
(* Store: lookup, memoization, eviction, maintenance                   *)
(* ------------------------------------------------------------------ *)

let test_store_roundtrip_and_counters () =
  let dir = fresh_dir () in
  let s = Store.open_ ~dir () in
  Alcotest.(check bool) "dir recorded" true (Store.dir s = dir);
  Alcotest.(check bool) "miss on empty store" true
    (Store.find s ~ns:"surface" ~key:"k1" ~decode:Fun.id = None);
  Store.add s ~ns:"surface" ~key:"k1" "payload-one";
  Alcotest.(check (option string)) "hit after add" (Some "payload-one")
    (Store.find s ~ns:"surface" ~key:"k1" ~decode:Fun.id);
  Alcotest.(check (option string)) "namespaces are disjoint" None
    (Store.find s ~ns:"image" ~key:"k1" ~decode:Fun.id);
  let c = Store.stats s in
  Alcotest.(check int) "hits" 1 c.Store.c_hits;
  Alcotest.(check int) "misses" 2 c.Store.c_misses;
  Alcotest.(check int) "writes" 1 c.Store.c_writes;
  Alcotest.(check int) "no evictions" 0 c.Store.c_evictions;
  Alcotest.(check bool) "bytes counted" true
    (c.Store.c_bytes_written > 0 && c.Store.c_bytes_read > 0)

let test_store_sanitized_keys () =
  let dir = fresh_dir () in
  let s = Store.open_ ~dir () in
  (* real pipeline keys contain '/' and other non-filename characters *)
  let key = "surface-v5.4/x86:generic weird\tkey-abcdef" in
  Store.add s ~ns:"surface" ~key "v";
  Alcotest.(check (option string)) "odd key roundtrips" (Some "v")
    (Store.find s ~ns:"surface" ~key ~decode:Fun.id);
  List.iter
    (fun (e : Store.entry) ->
      String.iter
        (fun ch ->
          Alcotest.(check bool) "filename is sanitized" true
            ((ch >= 'a' && ch <= 'z') || (ch >= 'A' && ch <= 'Z') || (ch >= '0' && ch <= '9')
            || ch = '.' || ch = '_' || ch = '-'))
        e.Store.e_key)
    (Store.entries ~dir)

let test_store_memo () =
  let dir = fresh_dir () in
  let s = Store.open_ ~dir () in
  let computes = ref 0 in
  let compute () = incr computes; "value" in
  let memo store =
    Store.memo store ~ns:"diff" ~key:"m" ~encode:Fun.id ~decode:Fun.id compute
  in
  Alcotest.(check string) "memo computes on miss" "value" (memo (Some s));
  Alcotest.(check string) "memo decodes on hit" "value" (memo (Some s));
  Alcotest.(check int) "computed exactly once" 1 !computes;
  Alcotest.(check string) "no store: plain compute" "value" (memo None);
  Alcotest.(check int) "no store always computes" 2 !computes

(* the caller's decode runs in a [store.decode] child of [store.find],
   so the find span's self time is read + checksum alone *)
let test_store_decode_span () =
  let module Trace = Ds_trace.Trace in
  let s = Store.open_ ~dir:(fresh_dir ()) () in
  Store.add s ~ns:"diff" ~key:"d" "payload";
  let was = Trace.enabled () in
  Trace.enable ();
  Trace.clear ();
  let found =
    Fun.protect
      ~finally:(fun () -> if not was then Trace.disable ())
      (fun () -> Store.find s ~ns:"diff" ~key:"d" ~decode:String.length)
  in
  Alcotest.(check (option int)) "hit decoded" (Some 7) found;
  let spans = Trace.spans () in
  let named n = List.filter (fun sp -> sp.Trace.sp_name = n) spans in
  match (named "store.find", named "store.decode") with
  | [ f ], [ d ] ->
      Alcotest.(check int) "decode span is a child of the find span" f.Trace.sp_id
        d.Trace.sp_parent
  | fs, ds ->
      Alcotest.failf "expected one find and one decode span, got %d and %d" (List.length fs)
        (List.length ds)

(* Corrupt the single cache entry at every byte position in turn: every
   find must either miss (evict + recompute path) or return the original
   payload — never a wrong value. *)
let test_store_corruption_everywhere () =
  let dir = fresh_dir () in
  let s = Store.open_ ~dir () in
  let payload = "the artifact payload" in
  Store.add s ~ns:"obj" ~key:"prog" payload;
  let path =
    match Store.entries ~dir with
    | [ e ] -> entry_path dir e
    | es -> Alcotest.failf "expected 1 entry, found %d" (List.length es)
  in
  let pristine = read_file path in
  for i = 0 to String.length pristine - 1 do
    let b = Bytes.of_string pristine in
    Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0xff));
    write_file path (Bytes.to_string b);
    (match Store.find s ~ns:"obj" ~key:"prog" ~decode:Fun.id with
    | None ->
        Alcotest.(check bool)
          (Printf.sprintf "corrupt entry (byte %d) evicted from disk" i)
          false (Sys.file_exists path)
    | Some v ->
        Alcotest.(check string)
          (Printf.sprintf "corruption at byte %d never yields a wrong value" i)
          payload v);
    write_file path pristine
  done;
  let c = Store.stats s in
  Alcotest.(check bool) "evictions were counted" true (c.Store.c_evictions > 0)

let test_store_truncation_and_decode_failure () =
  let dir = fresh_dir () in
  let s = Store.open_ ~dir () in
  Store.add s ~ns:"obj" ~key:"t" "0123456789";
  let path = entry_path dir (List.hd (Store.entries ~dir)) in
  write_file path (String.sub (read_file path) 0 5);
  Alcotest.(check (option string)) "truncated entry misses" None
    (Store.find s ~ns:"obj" ~key:"t" ~decode:Fun.id);
  Alcotest.(check bool) "truncated entry deleted" false (Sys.file_exists path);
  (* a frame that verifies but whose payload no longer decodes must also
     degrade to a miss (schema drift) *)
  Store.add s ~ns:"obj" ~key:"t" "not-decodable";
  Alcotest.(check (option string)) "decoder exception degrades to a miss" None
    (Store.find s ~ns:"obj" ~key:"t" ~decode:(fun _ -> failwith "schema mismatch"));
  let c = Store.stats s in
  Alcotest.(check int) "both failures evicted" 2 c.Store.c_evictions

let test_store_counters_lifetime () =
  let dir = fresh_dir () in
  let s = Store.open_ ~dir () in
  Store.add s ~ns:"surface" ~key:"a" "aa";
  ignore (Store.find s ~ns:"surface" ~key:"a" ~decode:Fun.id);
  Store.save_counters s;
  Alcotest.(check bool) "lifetime after one save" true
    (Store.lifetime ~dir = Store.stats s);
  ignore (Store.find s ~ns:"surface" ~key:"a" ~decode:Fun.id);
  Store.save_counters s;
  Store.save_counters s;
  (* repeated saves merge deltas, they do not double-count *)
  Alcotest.(check bool) "lifetime tracks stats across saves" true
    (Store.lifetime ~dir = Store.stats s);
  (* a second handle on the same directory accumulates on top *)
  let s2 = Store.open_ ~dir () in
  ignore (Store.find s2 ~ns:"surface" ~key:"a" ~decode:Fun.id);
  Store.save_counters s2;
  Alcotest.(check int) "two handles accumulate"
    ((Store.stats s).Store.c_hits + (Store.stats s2).Store.c_hits)
    (Store.lifetime ~dir).Store.c_hits

let test_store_entries_verify_gc_clear () =
  let dir = fresh_dir () in
  let s = Store.open_ ~dir () in
  Store.add s ~ns:"surface" ~key:"old" (String.make 100 'a');
  Store.add s ~ns:"image" ~key:"mid" (String.make 100 'b');
  Store.add s ~ns:"diff" ~key:"new" (String.make 100 'c');
  let es = Store.entries ~dir in
  Alcotest.(check int) "three entries" 3 (List.length es);
  (* pin mtimes so "oldest" is well-defined even on coarse clocks *)
  let set_mtime key t =
    let e = List.find (fun (e : Store.entry) -> e.Store.e_key = key) es in
    Unix.utimes (entry_path dir e) t t
  in
  set_mtime "old" 1000.;
  set_mtime "mid" 2000.;
  set_mtime "new" 3000.;
  Alcotest.(check (pair int int)) "verify: all intact" (3, 0) (Store.verify ~dir);
  (* corrupt one entry on disk: verify detects and evicts exactly it *)
  let mid = List.find (fun (e : Store.entry) -> e.Store.e_key = "mid") es in
  write_file (entry_path dir mid) "scribbled over";
  Alcotest.(check (pair int int)) "verify: one corrupt evicted" (2, 1) (Store.verify ~dir);
  Store.add s ~ns:"image" ~key:"mid" (String.make 100 'b');
  set_mtime "mid" 2000.;
  (* gc to a budget that only fits the newest entry *)
  let newest = List.find (fun (e : Store.entry) -> e.Store.e_key = "new") es in
  Alcotest.(check int) "gc evicts the two oldest" 2
    (Store.gc ~dir ~max_bytes:(newest.Store.e_bytes + 1));
  Alcotest.(check (option string)) "newest survives gc"
    (Some (String.make 100 'c'))
    (Store.find s ~ns:"diff" ~key:"new" ~decode:Fun.id);
  Alcotest.(check (option string)) "oldest evicted by gc" None
    (Store.find s ~ns:"surface" ~key:"old" ~decode:Fun.id);
  Store.save_counters s;
  Alcotest.(check int) "clear removes the rest" 1 (Store.clear ~dir);
  Alcotest.(check int) "store empty after clear" 0 (List.length (Store.entries ~dir));
  Alcotest.(check bool) "clear drops persisted counters" true
    (Store.lifetime ~dir = Store.zero_counters)

(* ------------------------------------------------------------------ *)
(* Codec: binary serialization of real pipeline artifacts              *)
(* ------------------------------------------------------------------ *)

let ds = lazy (Dataset.build ~seed:Testenv.seed Calibration.test_scale)
let surf v = Dataset.surface (Lazy.force ds) v Config.x86_generic

let test_codec_surface_roundtrip () =
  let s = surf (Version.v 5 4) in
  let b = Codec.encode_surface s in
  let s' = Codec.decode_surface b in
  Alcotest.(check string) "encode is stable across a roundtrip" b (Codec.encode_surface s');
  Alcotest.(check bool) "counts survive" true (Surface.counts s = Surface.counts s');
  let fe = Option.get (Surface.find_func s' "vfs_fsync") in
  let fe0 = Option.get (Surface.find_func s "vfs_fsync") in
  Alcotest.(check bool) "func entry survives" true (fe = fe0);
  Alcotest.(check bool) "index rebuilt: struct lookup works" true
    (Surface.find_struct s' "task_struct" <> None)

let test_codec_surface_all_images () =
  (* every study image's surface must roundtrip byte-stably — this is the
     exact payload set the pipeline persists *)
  List.iter
    (fun (v, cfg) ->
      let s = Dataset.surface (Lazy.force ds) v cfg in
      let b = Codec.encode_surface s in
      Alcotest.(check string)
        (Printf.sprintf "surface %s/%s" (Version.to_string v) (Config.to_string cfg))
        b
        (Codec.encode_surface (Codec.decode_surface b)))
    Dataset.study_images

let test_codec_diff_roundtrip () =
  let d =
    Diff.compare_surfaces Diff.Across_versions (surf (Version.v 4 4)) (surf (Version.v 5 4))
  in
  let b = Codec.encode_diff d in
  let d' = Codec.decode_diff b in
  Alcotest.(check string) "diff encode is stable" b (Codec.encode_diff d');
  let vb = Codec.encode_version_diffs [ ((Version.v 4 4, Version.v 5 4), d) ] in
  Alcotest.(check string) "version-diff list encode is stable" vb
    (Codec.encode_version_diffs (Codec.decode_version_diffs vb));
  let cb = Codec.encode_config_diffs [ (Config.x86_generic, d) ] in
  Alcotest.(check string) "config-diff list encode is stable" cb
    (Codec.encode_config_diffs (Codec.decode_config_diffs cb))

let test_codec_matrix_roundtrip () =
  let d = Lazy.force ds in
  let _, obj = List.hd (Ds_corpus.Corpus.build_all d ()) in
  let m =
    Report.matrix d ~images:Dataset.fig4_images
      ~baseline:(Version.v 5 4, Config.x86_generic) obj
  in
  let b = Codec.encode_matrix m in
  let m' = Codec.decode_matrix b in
  Alcotest.(check string) "matrix encode is stable" b (Codec.encode_matrix m');
  Alcotest.(check string) "rendered matrix identical" (Report.render_matrix m)
    (Report.render_matrix m')

let test_codec_rejects_garbage () =
  Alcotest.(check bool) "garbage raises" true
    (match Codec.decode_surface "garbage" with
    | exception _ -> true
    | _ -> false)

(* ------------------------------------------------------------------ *)
(* Codec tables: one string table and one type table per payload       *)
(* ------------------------------------------------------------------ *)

open Ds_ctypes

(* every string and every ctype reachable from a surface *)
let surface_strings_and_types (s : Surface.t) =
  let strs = ref [] and types = ref [] in
  let str x = strs := x :: !strs in
  let rec ty (t : Ctype.t) =
    types := t :: !types;
    match t with
    | Void -> ()
    | Int { name; _ } | Float { name; _ } -> str name
    | Ptr t | Array (t, _) | Const t | Volatile t -> ty t
    | Struct_ref n | Union_ref n | Enum_ref n | Typedef_ref n -> str n
    | Func_proto p -> proto p
  and proto (p : Ctype.proto) =
    ty p.ret;
    List.iter (fun (pa : Ctype.param) -> str pa.pname; ty pa.ptype) p.params
  in
  let sym (y : Ds_elf.Elf.symbol) = str y.sym_name; str y.sym_section in
  let struct_def (sd : Decl.struct_def) =
    str sd.sname;
    List.iter (fun (f : Decl.field) -> str f.fname; ty f.ftype) sd.fields
  in
  List.iter
    (fun (fe : Surface.func_entry) ->
      str fe.fe_name;
      List.iter
        (fun (di : Surface.decl_instance) ->
          str di.di_tu;
          str di.di_file;
          ty (Func_proto di.di_proto);
          proto di.di_proto)
        fe.fe_decls;
      List.iter sym fe.fe_symbols;
      List.iter sym fe.fe_suffixed;
      List.iter (fun (is : Surface.inline_site) -> str is.is_caller; str is.is_tu) fe.fe_inline_sites;
      List.iter str fe.fe_callers)
    s.s_funcs;
  List.iter struct_def s.s_structs;
  List.iter
    (fun (tp : Surface.tp_entry) ->
      str tp.te_name;
      str tp.te_class;
      Option.iter struct_def tp.te_event_struct;
      Option.iter (fun (fd : Decl.func_decl) -> str fd.fname; proto fd.proto) tp.te_func)
    s.s_tracepoints;
  List.iter str s.s_syscalls;
  (!strs, !types)

let test_codec_shares_strings_and_types () =
  let s = Codec.decode_surface (Codec.encode_surface (surf (Version.v 5 4))) in
  let strs, types = surface_strings_and_types s in
  let first = Hashtbl.create 4096 in
  let unshared = ref 0 in
  List.iter
    (fun x ->
      match Hashtbl.find_opt first x with
      | Some y -> if x != y then incr unshared
      | None -> Hashtbl.add first x x)
    strs;
  Alcotest.(check bool) "surface has repeated names" true (List.length strs > Hashtbl.length first);
  Alcotest.(check int) "equal strings are one string" 0 !unshared;
  (* prototypes compare as [Func_proto] values rebuilt above, so check
     the ctypes stored in the surface itself: field and parameter types *)
  let tfirst = Hashtbl.create 4096 in
  let tunshared = ref 0 in
  List.iter
    (fun (t : Ctype.t) ->
      match t with
      | Func_proto _ -> ()
      | _ -> (
          match Hashtbl.find_opt tfirst t with
          | Some u -> if t != u then incr tunshared
          | None -> Hashtbl.add tfirst t t))
    types;
  Alcotest.(check int) "equal ctypes are one ctype" 0 !tunshared;
  let protos =
    List.concat_map
      (fun (fe : Surface.func_entry) ->
        List.map (fun (di : Surface.decl_instance) -> di.di_proto) fe.fe_decls)
      s.s_funcs
  in
  let pfirst = Hashtbl.create 4096 in
  List.iter
    (fun p ->
      match Hashtbl.find_opt pfirst p with
      | Some q -> Alcotest.(check bool) "equal prototypes are one prototype" true (p == q)
      | None -> Hashtbl.add pfirst p p)
    protos

(* a small real surface: every offset of its payload stays cheap to try *)
let small_surface =
  lazy
    (let s = surf (Version.v 5 4) in
     let take n l = List.filteri (fun i _ -> i < n) l in
     Surface.with_health
       [ Ds_util.Diag.v ~context:"ctx" ~offset:7 Ds_util.Diag.Degraded ~component:"btf" "lost" ]
       (Surface.v ~version:s.s_version ~arch:s.s_arch ~flavor:s.s_flavor ~gcc:s.s_gcc
          ~funcs:(take 6 s.s_funcs) ~structs:(take 4 s.s_structs)
          ~tracepoints:(take 3 s.s_tracepoints) ~syscalls:(take 4 s.s_syscalls)))

let test_codec_truncation_every_offset () =
  let b = Codec.encode_surface (Lazy.force small_surface) in
  for n = 0 to String.length b - 1 do
    match Codec.decode_surface (String.sub b 0 n) with
    | _ -> Alcotest.failf "payload truncated to %d of %d bytes decoded" n (String.length b)
    | exception (Codec.Decode_error _ | Ds_util.Bytesio.Truncated _) -> ()
    | exception e -> Alcotest.failf "truncated to %d: %s" n (Printexc.to_string e)
  done;
  (* and every byte set to a long uleb128 continuation or an index far
     past any table *)
  String.iteri
    (fun i _ ->
      List.iter
        (fun c ->
          let m = Bytes.of_string b in
          Bytes.set m i c;
          match Codec.decode_surface (Bytes.to_string m) with
          | _ | (exception (Codec.Decode_error _ | Ds_util.Bytesio.Truncated _)) -> ()
          | exception e -> Alcotest.failf "byte %d overwritten: %s" i (Printexc.to_string e))
        [ '\xff'; '\x7f' ])
    b

(* A hand-made surface payload: strings ["f"] then [strs], types
   [Void; (params) -> t_ret] and [doubling] more prototypes, each taking
   and returning the one before (a tree that doubles per record); one
   function "f" with one declaration, and [syscalls]. [str] and [proto]
   are the indices the declaration uses; [params] and [syscalls] are
   string indices, every parameter of type Void. *)
let tiny_payload ?(ret = 0) ?(doubling = 0) ?(strs = []) ?(params = []) ?(syscalls = []) ~str
    ~proto () =
  let module W = Ds_util.Bytesio.Writer in
  let w = W.create () in
  let u = W.uleb128 w in
  u (1 + List.length strs);
  List.iter
    (fun s ->
      u (String.length s);
      W.bytes w s)
    ("f" :: strs);
  u (2 + doubling);
  W.u8 w 0 (* Void *);
  W.u8 w 11 (* Func_proto: ret, params, not variadic *);
  u ret;
  u (List.length params);
  List.iter
    (fun n ->
      u n;
      u 0)
    params;
  W.u8 w 0;
  for j = 2 to doubling + 1 do
    W.u8 w 11;
    u (j - 1);
    u 1;
    u 0;
    u (j - 1);
    W.u8 w 0
  done;
  u 5;
  u 4 (* version 5.4 *);
  W.u8 w 0;
  W.u8 w 0 (* x86, generic *);
  u 9;
  u 1 (* gcc 9.1 *);
  u 1 (* one function *);
  u str (* fe_name *);
  u 1 (* one declaration *);
  u str;
  u str (* di_tu, di_file *);
  u 3 (* di_line *);
  u proto;
  W.u8 w 1;
  W.u8 w 0 (* external, not inline *);
  W.u8 w 0 (* no low_pc *);
  List.iter u [ 0; 0; 0; 0; 0; 0 ]
  (* no symbols, suffixed, inline sites, callers; no structs,
     tracepoints *);
  u (List.length syscalls);
  List.iter u syscalls;
  u 0 (* no health *);
  W.contents w

let test_codec_index_out_of_range () =
  let decodes what payload =
    let s = Codec.decode_surface payload in
    Alcotest.(check bool) what true (Option.is_some (Surface.find_func s "f"))
  in
  decodes "the well-formed payload decodes" (tiny_payload ~str:0 ~proto:1 ());
  decodes "a few shared prototypes decode" (tiny_payload ~doubling:3 ~str:0 ~proto:4 ());
  let rejects what payload =
    match Codec.decode_surface payload with
    | _ -> Alcotest.failf "%s accepted" what
    | exception Codec.Decode_error _ -> ()
    | exception e -> Alcotest.failf "%s: %s" what (Printexc.to_string e)
  in
  rejects "string index past the table" (tiny_payload ~str:1 ~proto:1 ());
  rejects "type index past the table" (tiny_payload ~str:0 ~proto:2 ());
  rejects "type record referring to itself" (tiny_payload ~ret:1 ~str:0 ~proto:1 ());
  rejects "prototype index naming a non-prototype" (tiny_payload ~str:0 ~proto:0 ());
  rejects "huge string index" (tiny_payload ~str:max_int ~proto:1 ());
  (* 2^61 nodes from about 300 bytes: refused, not walked *)
  rejects "exponentially shared prototypes" (tiny_payload ~doubling:60 ~str:0 ~proto:61 ());
  (* a one-byte index names a 1 MiB string: about sixteen references
     already weigh more than the payload may *)
  let long = String.make (1 lsl 20) 'x' in
  let many = List.init 4096 (fun _ -> 1) in
  decodes "a long string referenced a few times"
    (tiny_payload ~strs:[ long ] ~syscalls:[ 1; 1; 1 ] ~str:0 ~proto:1 ());
  rejects "a long string referenced many times in the body"
    (tiny_payload ~strs:[ long ] ~syscalls:many ~str:0 ~proto:1 ());
  rejects "a long string referenced many times in a type record"
    (tiny_payload ~strs:[ long ] ~params:many ~str:0 ~proto:1 ())

(* Encoding interns each ctype bottom up, one record per node, so a
   chain of [n] distinct records costs time linear in [n]. Hashing the
   whole subtree at every level is quadratic: encoding and re-encoding
   this surface took 15.5 s that way against 0.07 s bottom up, on one
   core of a 2-core x86-64 host. *)
let test_codec_deep_chain () =
  let n = 20_000 in
  let rec chain i t =
    if i = 0 then t else chain (i - 1) (if i land 1 = 0 then Ctype.Ptr t else Const t)
  in
  let ret = chain n (Ctype.Struct_ref "task_struct") in
  let di : Surface.decl_instance =
    {
      di_tu = "a.c";
      di_file = "a.c";
      di_line = 1;
      di_proto = { ret; params = [ { pname = "p"; ptype = ret } ]; variadic = false };
      di_external = true;
      di_declared_inline = false;
      di_low_pc = None;
    }
  in
  let fe : Surface.func_entry =
    {
      fe_name = "f";
      fe_decls = [ di; di ];
      fe_symbols = [];
      fe_suffixed = [];
      fe_inline_sites = [];
      fe_callers = [];
    }
  in
  let s =
    Surface.v ~version:(Version.v 5 4) ~arch:Config.X86 ~flavor:Config.Generic ~gcc:(9, 1)
      ~funcs:[ fe ] ~structs:[] ~tracepoints:[] ~syscalls:[]
  in
  let t0 = Unix.gettimeofday () in
  let b = Codec.encode_surface s in
  let b' = Codec.encode_surface (Codec.decode_surface b) in
  let dt = Unix.gettimeofday () -. t0 in
  Alcotest.(check bool) "re-encoding is byte-identical" true (String.equal b b');
  Alcotest.(check bool) "the chain is stored once" true (String.length b < 5 * n);
  if dt > 5. then Alcotest.failf "a %d-deep chain took %.1f s to encode twice" n dt

(* generated surfaces: names from a small pool, so that entries share
   names, types and duplicates *)
module G = QCheck.Gen

let g_name = G.oneofa [| "a"; "b"; "vfs_read"; "task_struct"; ""; "x.isra.0"; "\000\255" |]

let g_ctype =
  G.sized_size (G.int_bound 4)
  @@ G.fix (fun self n ->
         let leaf =
           G.oneof
             [
               G.return Ctype.Void;
               G.map3 (fun name bits signed -> Ctype.Int { name; bits; signed }) g_name G.small_nat
                 G.bool;
               G.map2 (fun name bits -> Ctype.Float { name; bits }) g_name G.small_nat;
               G.map (fun n -> Ctype.Struct_ref n) g_name;
               G.map (fun n -> Ctype.Union_ref n) g_name;
               G.map (fun n -> Ctype.Enum_ref n) g_name;
               G.map (fun n -> Ctype.Typedef_ref n) g_name;
             ]
         in
         if n = 0 then leaf
         else
           let sub = self (n - 1) in
           G.frequency
             [
               (3, leaf);
               (1, G.map (fun t -> Ctype.Ptr t) sub);
               (1, G.map2 (fun t k -> Ctype.Array (t, k)) sub G.small_nat);
               (1, G.map (fun t -> Ctype.Const t) sub);
               (1, G.map (fun t -> Ctype.Volatile t) sub);
               ( 1,
                 G.map3
                   (fun ret params variadic -> Ctype.Func_proto { ret; params; variadic })
                   sub
                   (G.list_size (G.int_bound 3)
                      (G.map2 (fun pname ptype -> ({ pname; ptype } : Ctype.param)) g_name sub))
                   G.bool );
             ])

let g_proto =
  G.map3
    (fun ret params variadic : Ctype.proto -> { ret; params; variadic })
    g_ctype
    (G.list_size (G.int_bound 3)
       (G.map2 (fun pname ptype -> ({ pname; ptype } : Ctype.param)) g_name g_ctype))
    G.bool

let g_list g = G.list_size (G.int_bound 4) g

let g_symbol =
  G.map3
    (fun (sym_name, sym_section) sym_value (sym_size, b) : Ds_elf.Elf.symbol ->
      let sym_bind : Ds_elf.Elf.sym_bind = match b with 0 -> Local | 1 -> Global | _ -> Weak in
      { sym_name; sym_value; sym_size; sym_bind; sym_section })
    (G.pair g_name g_name) G.ui64 (G.pair G.small_nat (G.int_bound 2))

let g_decl =
  G.map3
    (fun (di_tu, di_file, di_line) di_proto (di_external, di_declared_inline, di_low_pc) :
         Surface.decl_instance ->
      { di_tu; di_file; di_line; di_proto; di_external; di_declared_inline; di_low_pc })
    (G.triple g_name g_name G.small_nat)
    g_proto
    (G.triple G.bool G.bool (G.opt G.ui64))

let g_func =
  G.map3
    (fun fe_name (fe_decls, fe_symbols, fe_suffixed) (sites, fe_callers) : Surface.func_entry ->
      let fe_inline_sites =
        List.map
          (fun (is_caller, is_tu, is_pc) : Surface.inline_site -> { is_caller; is_tu; is_pc })
          sites
      in
      { fe_name; fe_decls; fe_symbols; fe_suffixed; fe_inline_sites; fe_callers })
    g_name
    (G.triple (g_list g_decl) (g_list g_symbol) (g_list g_symbol))
    (G.pair (g_list (G.triple g_name g_name G.ui64)) (g_list g_name))

let g_struct =
  G.map3
    (fun sname (union, byte_size) fields : Decl.struct_def ->
      { sname; skind = (if union then `Union else `Struct); byte_size; fields })
    g_name (G.pair G.bool G.small_nat)
    (g_list
       (G.map3
          (fun fname ftype bits_offset : Decl.field -> { fname; ftype; bits_offset })
          g_name g_ctype G.small_nat))

let g_tp =
  G.map3
    (fun (te_name, te_class) te_event_struct te_func : Surface.tp_entry ->
      { te_name; te_class; te_event_struct; te_func })
    (G.pair g_name g_name) (G.opt g_struct)
    (G.opt (G.map2 (fun fname proto : Decl.func_decl -> { fname; proto }) g_name g_proto))

let g_diag =
  G.map3
    (fun (sev, d_component) (d_context, d_offset) d_message : Ds_util.Diag.t ->
      let d_severity : Ds_util.Diag.severity =
        match sev with 0 -> Warning | 1 -> Degraded | _ -> Fatal
      in
      { d_severity; d_component; d_context; d_offset; d_message })
    (G.pair (G.int_bound 2) g_name)
    (G.pair (G.opt g_name) (G.opt G.small_nat))
    g_name

let g_surface =
  G.map3
    (fun (major, minor, gcc) (arch, flavor) ((funcs, structs), (tracepoints, syscalls), health) ->
      Surface.with_health health
        (Surface.v ~version:(Version.v major minor) ~arch ~flavor ~gcc ~funcs ~structs
           ~tracepoints ~syscalls))
    (G.triple G.small_nat G.small_nat (G.pair G.small_nat G.small_nat))
    (G.pair (G.oneofl Config.arches) (G.oneofl Config.flavors))
    (G.triple
       (G.pair (g_list g_func) (g_list g_struct))
       (G.pair (g_list g_tp) (g_list g_name))
       (g_list g_diag))

(* everything but the index, which is derived from the lists *)
let parts (s : Surface.t) =
  ( (s.s_version, s.s_arch, s.s_flavor, s.s_gcc, s.s_compat_traceable),
    (s.s_funcs, s.s_structs, s.s_tracepoints),
    (s.s_syscalls, s.s_health) )

let qcheck_codec_roundtrip =
  QCheck.Test.make ~name:"decode (encode s) = s, and re-encoding is byte-identical" ~count:300
    (QCheck.make g_surface)
    (fun s ->
      let b = Codec.encode_surface s in
      let s' = Codec.decode_surface b in
      parts s' = parts s && String.equal (Codec.encode_surface s') b)

(* Surface.v's index against a list scan: among entries of one name the
   last one (in input order) wins, sorted or not *)
let qcheck_surface_lookups =
  QCheck.Test.make ~name:"Surface lookups agree with a list scan" ~count:300
    (QCheck.make
       (G.triple (G.list_size (G.int_bound 12) g_func)
          (G.list_size (G.int_bound 12) g_struct)
          (G.list_size (G.int_bound 12) g_tp)))
    (fun (funcs, structs, tracepoints) ->
      let s =
        Surface.v ~version:(Version.v 5 4) ~arch:Config.X86 ~flavor:Config.Generic ~gcc:(9, 1)
          ~funcs ~structs ~tracepoints ~syscalls:[]
      in
      let last key l n = List.fold_left (fun acc x -> if key x = n then Some x else acc) None l in
      let names = [ "a"; "b"; "vfs_read"; "task_struct"; ""; "x.isra.0"; "\000\255"; "zz"; "0" ] in
      List.for_all
        (fun n ->
          Surface.find_func s n = last (fun (f : Surface.func_entry) -> f.fe_name) funcs n
          && Surface.find_struct s n = last (fun (d : Decl.struct_def) -> d.sname) structs n
          && Surface.find_tracepoint s n
             = last (fun (t : Surface.tp_entry) -> t.te_name) tracepoints n)
        names)

(* The end-to-end robustness property: frame a real encoded surface, flip
   any byte — the store layer reports Corrupt, it never hands the decoder
   a payload that silently produces a different surface. *)
let framed_surface =
  lazy (Store.Frame.encode ~ns:"surface" (Codec.encode_surface (surf (Version.v 5 4))))

let qcheck_framed_surface_flip =
  QCheck.Test.make ~name:"flipping any byte of a framed surface is detected" ~count:300
    QCheck.(pair small_nat (int_range 1 255))
    (fun (pos, mask) ->
      let frame = Lazy.force framed_surface in
      let pos = pos mod String.length frame in
      let b = Bytes.of_string frame in
      Bytes.set b pos (Char.chr (Char.code (Bytes.get b pos) lxor mask));
      is_corrupt (Store.Frame.decode ~ns:"surface" (Bytes.to_string b)))

(* ------------------------------------------------------------------ *)
(* Integration: two datasets sharing one store directory               *)
(* ------------------------------------------------------------------ *)

let test_store_cross_dataset_hit () =
  let dir = fresh_dir () in
  let sa = Store.open_ ~dir () in
  let dsa = Dataset.build ~seed:Testenv.seed ~store:sa Calibration.test_scale in
  let s1 = Dataset.surface dsa (Version.v 5 4) Config.x86_generic in
  Alcotest.(check bool) "cold build compiles" true (Dataset.compile_count dsa > 0);
  (* a second dataset over the same directory: pure cache hits, no compiles *)
  let sb = Store.open_ ~dir () in
  let dsb = Dataset.build ~seed:Testenv.seed ~store:sb Calibration.test_scale in
  let s2 = Dataset.surface dsb (Version.v 5 4) Config.x86_generic in
  Alcotest.(check int) "warm build: zero compiles" 0 (Dataset.compile_count dsb);
  let c = Store.stats sb in
  Alcotest.(check bool) "warm build: store hit" true (c.Store.c_hits >= 1);
  Alcotest.(check int) "warm build: no misses" 0 c.Store.c_misses;
  Alcotest.(check string) "surfaces byte-identical"
    (Codec.encode_surface s1) (Codec.encode_surface s2);
  (* a different seed must key differently: no false hit *)
  let sc = Store.open_ ~dir () in
  let dsc = Dataset.build ~seed:43L ~store:sc Calibration.test_scale in
  ignore (Dataset.surface dsc (Version.v 5 4) Config.x86_generic);
  Alcotest.(check bool) "different seed misses" true ((Store.stats sc).Store.c_misses > 0)

let suites =
  [
    ( "store.hash",
      [
        Alcotest.test_case "determinism" `Quick test_hash_determinism;
        Alcotest.test_case "separation" `Quick test_hash_separation;
        Alcotest.test_case "one-shot digest" `Quick test_hash_one_shot;
        Alcotest.test_case "top-bit flip in two words" `Quick test_hash_top_bit_pair;
        Alcotest.test_case "tail packing" `Quick test_hash_tail_packing;
        Alcotest.test_case "known answers" `Quick test_hash_known_answers;
        QCheck_alcotest.to_alcotest qcheck_word_flip;
      ] );
    ( "store.frame",
      [
        Alcotest.test_case "roundtrip" `Quick test_frame_roundtrip;
        Alcotest.test_case "namespace mismatch" `Quick test_frame_ns_mismatch;
        Alcotest.test_case "truncation + garbage" `Quick test_frame_truncation_and_garbage;
        Alcotest.test_case "single-byte flips" `Quick test_frame_single_byte_flips;
        QCheck_alcotest.to_alcotest qcheck_frame_flip;
      ] );
    ( "store.store",
      [
        Alcotest.test_case "roundtrip + counters" `Quick test_store_roundtrip_and_counters;
        Alcotest.test_case "sanitized keys" `Quick test_store_sanitized_keys;
        Alcotest.test_case "memo" `Quick test_store_memo;
        Alcotest.test_case "decode in its own span" `Quick test_store_decode_span;
        Alcotest.test_case "corruption everywhere" `Quick test_store_corruption_everywhere;
        Alcotest.test_case "truncation + decode failure" `Quick
          test_store_truncation_and_decode_failure;
        Alcotest.test_case "lifetime counters" `Quick test_store_counters_lifetime;
        Alcotest.test_case "entries/verify/gc/clear" `Quick test_store_entries_verify_gc_clear;
      ] );
    ( "store.codec",
      [
        Alcotest.test_case "surface roundtrip" `Quick test_codec_surface_roundtrip;
        Alcotest.test_case "all study surfaces" `Quick test_codec_surface_all_images;
        Alcotest.test_case "diff roundtrips" `Quick test_codec_diff_roundtrip;
        Alcotest.test_case "matrix roundtrip" `Quick test_codec_matrix_roundtrip;
        Alcotest.test_case "rejects garbage" `Quick test_codec_rejects_garbage;
        QCheck_alcotest.to_alcotest qcheck_framed_surface_flip;
        Alcotest.test_case "decoded surface shares names and types" `Quick
          test_codec_shares_strings_and_types;
        Alcotest.test_case "truncated or overwritten payloads" `Quick
          test_codec_truncation_every_offset;
        Alcotest.test_case "bad table indices and over-sharing" `Quick test_codec_index_out_of_range;
        Alcotest.test_case "deep ctype chain encodes in linear time" `Quick test_codec_deep_chain;
        QCheck_alcotest.to_alcotest qcheck_codec_roundtrip;
        QCheck_alcotest.to_alcotest qcheck_surface_lookups;
      ] );
    ( "store.integration",
      [ Alcotest.test_case "cross-dataset cache hit" `Quick test_store_cross_dataset_hit ] );
  ]
