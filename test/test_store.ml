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
      ] );
    ( "store.integration",
      [ Alcotest.test_case "cross-dataset cache hit" `Quick test_store_cross_dataset_hit ] );
  ]
