open Ds_elf
open Ds_util

let sample_image machine =
  let text = String.make 64 '\x90' in
  let data =
    let w = Bytesio.Writer.create ~endian:(Elf.machine_endian machine) () in
    Bytesio.Writer.u64 w 0x1122334455667788L;
    Bytesio.Writer.cstring w "payload";
    Bytesio.Writer.contents w
  in
  Elf.
    {
      machine;
      sections =
        [
          { sec_name = ".text"; sec_addr = 0xffff000000010000L; sec_data = text };
          { sec_name = ".data"; sec_addr = 0xffff000000020000L; sec_data = data };
          { sec_name = ".debug_info"; sec_addr = 0L; sec_data = "DEBUG" };
        ];
      symbols =
        [
          {
            sym_name = "vfs_fsync";
            sym_value = 0xffff000000010000L;
            sym_size = 32;
            sym_bind = Global;
            sym_section = ".text";
          };
          {
            sym_name = "do_fsync.isra.0";
            sym_value = 0xffff000000010020L;
            sym_size = 16;
            sym_bind = Local;
            sym_section = ".text";
          };
        ];
    }

let check_roundtrip machine () =
  let img = sample_image machine in
  let bytes = Elf.write img in
  let img' = Ds_util.Diag.ok (Elf.read bytes) in
  Alcotest.(check string) "machine" (Elf.machine_to_string machine)
    (Elf.machine_to_string img'.Elf.machine);
  Alcotest.(check int) "sections" 3 (List.length img'.Elf.sections);
  Alcotest.(check int) "symbols" 2 (List.length img'.Elf.symbols);
  let s = Option.get (Elf.find_section img' ".data") in
  let s0 = Option.get (Elf.find_section img ".data") in
  Alcotest.(check string) "data preserved" s0.Elf.sec_data s.Elf.sec_data;
  let sym = Option.get (Elf.find_symbol img' "vfs_fsync") in
  Alcotest.(check int64) "sym value" 0xffff000000010000L sym.Elf.sym_value;
  Alcotest.(check int) "sym size" 32 sym.Elf.sym_size;
  Alcotest.(check bool) "sym bind" true (sym.Elf.sym_bind = Elf.Global);
  Alcotest.(check string) "sym section" ".text" sym.Elf.sym_section

let test_magic_check () =
  Alcotest.check_raises "not elf" (Elf.Bad_elf "bad magic") (fun () ->
      ignore (Elf.read ("GARBAGE" ^ String.make 100 '\000')));
  Alcotest.check_raises "short" (Elf.Bad_elf "too short") (fun () ->
      ignore (Elf.read "x"))

let test_symbols_at () =
  let img = sample_image X86_64 in
  Alcotest.(check int) "one symbol at addr" 1
    (List.length (Elf.symbols_at img 0xffff000000010020L));
  Alcotest.(check int) "none" 0 (List.length (Elf.symbols_at img 0xdeadL))

let test_deref_ptr () =
  let img = Ds_util.Diag.ok (Elf.read (Elf.write (sample_image X86_64))) in
  let d = Elf.Deref.make img in
  Alcotest.(check int) "ptr size" 8 (Elf.Deref.ptr_size d);
  Alcotest.(check int64) "read ptr" 0x1122334455667788L
    (Elf.Deref.read_ptr d 0xffff000000020000L);
  Alcotest.(check string) "read cstring" "payload"
    (Elf.Deref.read_cstring d 0xffff000000020008L);
  Alcotest.(check bool) "in image" true (Elf.Deref.in_image d 0xffff000000010005L);
  Alcotest.(check bool) "not in image" false (Elf.Deref.in_image d 0x1234L)

let test_deref_big_endian () =
  let img = Ds_util.Diag.ok (Elf.read (Elf.write (sample_image Ppc64))) in
  let d = Elf.Deref.make img in
  Alcotest.(check int64) "big-endian ptr" 0x1122334455667788L
    (Elf.Deref.read_ptr d 0xffff000000020000L)

let test_deref_arm32 () =
  (* arm32 stores 4-byte pointers; the image above wrote a u64 (LE), so the
     first 4 bytes read back as the low word. *)
  let img = Ds_util.Diag.ok (Elf.read (Elf.write (sample_image Arm))) in
  let d = Elf.Deref.make img in
  Alcotest.(check int) "ptr size 4" 4 (Elf.Deref.ptr_size d);
  Alcotest.(check int64) "low word" 0x55667788L (Elf.Deref.read_ptr d 0xffff000000020000L)

let test_deref_unmapped () =
  let img = Ds_util.Diag.ok (Elf.read (Elf.write (sample_image X86_64))) in
  let d = Elf.Deref.make img in
  Alcotest.check_raises "unmapped" (Elf.Bad_elf "unmapped address 0x999") (fun () ->
      ignore (Elf.Deref.read_ptr d 0x999L));
  (* .debug_info has addr 0 and must not be treated as mapped at 0. *)
  Alcotest.(check bool) "addr 0 unmapped" false (Elf.Deref.in_image d 0L)

let test_empty_symbols () =
  let img = Elf.{ machine = X86_64; sections = [ { sec_name = ".x"; sec_addr = 0L; sec_data = "d" } ]; symbols = [] } in
  let img' = Ds_util.Diag.ok (Elf.read (Elf.write img)) in
  Alcotest.(check int) "no symbols" 0 (List.length img'.Elf.symbols);
  Alcotest.(check int) "one section" 1 (List.length img'.Elf.sections)

(* The raw bytes of a section, found through the header table alone
   ([Elf.read] drops .symtab and .strtab from its result). *)
let raw_section bytes name =
  let r = Bytesio.Reader.of_string bytes in
  Bytesio.Reader.seek r 40;
  let shoff = Bytesio.Reader.uint r in
  Bytesio.Reader.seek r 60;
  let shnum = Bytesio.Reader.u16 r in
  let shstrndx = Bytesio.Reader.u16 r in
  let header i =
    Bytesio.Reader.seek r (shoff + (i * 64));
    let name_off = Bytesio.Reader.u32 r in
    Bytesio.Reader.seek r (shoff + (i * 64) + 24);
    let off = Bytesio.Reader.uint r in
    let size = Bytesio.Reader.uint r in
    (name_off, String.sub bytes off size)
  in
  let shstr = Bytesio.Reader.of_string (snd (header shstrndx)) in
  List.find_map
    (fun i ->
      let name_off, data = header i in
      if Bytesio.Reader.cstring_at shstr name_off = name then Some data else None)
    (List.init (shnum - 1) (fun i -> i + 1))

(* 10k symbols over 500 names: the image reads back as written, and
   .strtab holds each distinct name once, in first-use order. *)
let test_repeated_symbol_names () =
  let name i = Printf.sprintf "sym_%d" (i * 7919 mod 500) in
  let symbols =
    List.init 10_000 (fun i ->
        Elf.
          {
            sym_name = name i;
            sym_value = Int64.of_int (0x1000 + i);
            sym_size = i mod 64;
            sym_bind = (match i mod 3 with 0 -> Global | 1 -> Local | _ -> Weak);
            sym_section = (if i mod 5 = 0 then ".data" else ".text");
          })
  in
  let img =
    Elf.
      {
        machine = X86_64;
        sections =
          [
            { sec_name = ".text"; sec_addr = 0x1000L; sec_data = String.make 10_000 '\x90' };
            { sec_name = ".data"; sec_addr = 0x4000L; sec_data = "data" };
          ];
        symbols;
      }
  in
  let bytes = Elf.write img in
  Alcotest.(check bool) "read back equals written" true (Ds_util.Diag.ok (Elf.read bytes) = img);
  (* 7919 is prime to 500, so the first 500 symbols use every name *)
  let first_use = List.init 500 name in
  Alcotest.(check int) "500 distinct names" 500
    (List.length (List.sort_uniq compare (List.map (fun s -> s.Elf.sym_name) symbols)));
  Alcotest.(check int) "first 500 distinct" 500 (List.length (List.sort_uniq compare first_use));
  Alcotest.(check (option string)) ".strtab"
    (Some ("\000" ^ String.concat "" (List.map (fun n -> n ^ "\000") first_use)))
    (raw_section bytes ".strtab")

(* [sample_image] plus a repeated symbol name, a symbol in a section the
   image lacks, an empty name and a duplicate section name. *)
let pinned_image machine =
  let img = sample_image machine in
  let sym name value bind section =
    Elf.{ sym_name = name; sym_value = value; sym_size = 8; sym_bind = bind; sym_section = section }
  in
  Elf.
    {
      img with
      sections =
        img.sections
        @ [
            { sec_name = ".data"; sec_addr = 0L; sec_data = "shadowed" };
            { sec_name = ".rodata"; sec_addr = 0xffff000000030000L; sec_data = "odd-length" };
          ];
      symbols =
        img.symbols
        @ [
            sym "vfs_fsync" 0xffff000000010040L Weak ".text";
            sym "jiffies" 0xffff000000020000L Global ".data";
            sym "__start_ext" 0L Global ".bss";
            sym "" 0L Local ".rodata";
          ];
    }

(* The writer's exact bytes, pinned: the image store keeps them, so a
   writer change that moves one byte orphans every stored image. *)
let test_pinned_bytes () =
  List.iter
    (fun (m, digest) ->
      Alcotest.(check string) (Elf.machine_to_string m) digest
        (Digest.to_hex (Digest.string (Elf.write (pinned_image m)))))
    [ (X86_64, "b533fc403f59941f330fe29d42216c93"); (Ppc64, "ff368aa8814714a14fb191025a8f880c") ]

let qcheck_section_roundtrip =
  QCheck.Test.make ~name:"elf arbitrary section data roundtrip" ~count:100
    QCheck.(string_of_size (QCheck.Gen.int_range 0 2000))
    (fun data ->
      let img =
        Elf.
          {
            machine = X86_64;
            sections = [ { sec_name = ".blob"; sec_addr = 0x1000L; sec_data = data } ];
            symbols = [];
          }
      in
      let img' = Ds_util.Diag.ok (Elf.read (Elf.write img)) in
      match Elf.find_section img' ".blob" with
      | Some s -> s.Elf.sec_data = data
      | None -> false)

let qcheck_symbols_roundtrip =
  let arb_name = QCheck.(string_gen_of_size (QCheck.Gen.int_range 1 30) (QCheck.Gen.char_range 'a' 'z')) in
  QCheck.Test.make ~name:"elf symbol table roundtrip" ~count:50
    QCheck.(list_of_size (QCheck.Gen.int_range 0 50) arb_name)
    (fun names ->
      let symbols =
        List.mapi
          (fun i name ->
            Elf.
              {
                sym_name = name;
                sym_value = Int64.of_int (0x1000 + (i * 16));
                sym_size = i;
                sym_bind = (if i mod 2 = 0 then Elf.Global else Elf.Local);
                sym_section = ".text";
              })
          names
      in
      let img =
        Elf.
          {
            machine = Aarch64;
            sections = [ { sec_name = ".text"; sec_addr = 0x1000L; sec_data = String.make 2048 '\000' } ];
            symbols;
          }
      in
      let img' = Ds_util.Diag.ok (Elf.read (Elf.write img)) in
      List.length img'.Elf.symbols = List.length symbols
      && List.for_all2
           (fun (a : Elf.symbol) (b : Elf.symbol) ->
             a.sym_name = b.sym_name && a.sym_value = b.sym_value && a.sym_size = b.sym_size
             && a.sym_bind = b.sym_bind && a.sym_section = b.sym_section)
           img'.Elf.symbols symbols)

let suites =
  [
    ( "elf",
      [
        Alcotest.test_case "roundtrip x86" `Quick (check_roundtrip X86_64);
        Alcotest.test_case "roundtrip arm64" `Quick (check_roundtrip Aarch64);
        Alcotest.test_case "roundtrip ppc (big-endian)" `Quick (check_roundtrip Ppc64);
        Alcotest.test_case "roundtrip riscv" `Quick (check_roundtrip Riscv64);
        Alcotest.test_case "roundtrip arm32" `Quick (check_roundtrip Arm);
        Alcotest.test_case "magic check" `Quick test_magic_check;
        Alcotest.test_case "symbols_at" `Quick test_symbols_at;
        Alcotest.test_case "deref ptr" `Quick test_deref_ptr;
        Alcotest.test_case "deref big-endian" `Quick test_deref_big_endian;
        Alcotest.test_case "deref arm32 ptr size" `Quick test_deref_arm32;
        Alcotest.test_case "deref unmapped" `Quick test_deref_unmapped;
        Alcotest.test_case "empty symbols" `Quick test_empty_symbols;
        Alcotest.test_case "repeated symbol names" `Quick test_repeated_symbol_names;
        Alcotest.test_case "pinned bytes" `Quick test_pinned_bytes;
        QCheck_alcotest.to_alcotest qcheck_section_roundtrip;
        QCheck_alcotest.to_alcotest qcheck_symbols_roundtrip;
      ] );
  ]
