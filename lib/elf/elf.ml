open Ds_util

type machine = X86_64 | Aarch64 | Arm | Ppc64 | Riscv64 | Bpf

let machine_to_string = function
  | X86_64 -> "x86"
  | Aarch64 -> "arm64"
  | Arm -> "arm32"
  | Ppc64 -> "ppc"
  | Riscv64 -> "riscv"
  | Bpf -> "bpf"

let machine_endian = function
  | Ppc64 -> Bytesio.Big
  | X86_64 | Aarch64 | Arm | Riscv64 | Bpf -> Bytesio.Little

let machine_ptr_size = function Arm -> 4 | X86_64 | Aarch64 | Ppc64 | Riscv64 | Bpf -> 8

(* e_machine values from the ELF specification. *)
let machine_code = function
  | X86_64 -> 62
  | Aarch64 -> 183
  | Arm -> 40
  | Ppc64 -> 21
  | Riscv64 -> 243
  | Bpf -> 247

let machine_of_code = function
  | 62 -> X86_64
  | 183 -> Aarch64
  | 40 -> Arm
  | 21 -> Ppc64
  | 243 -> Riscv64
  | 247 -> Bpf
  | c -> invalid_arg (Printf.sprintf "unknown e_machine %d" c)

type sym_bind = Local | Global | Weak

type symbol = {
  sym_name : string;
  sym_value : int64;
  sym_size : int;
  sym_bind : sym_bind;
  sym_section : string;
}

type section = { sec_name : string; sec_addr : int64; sec_data : string }
type t = { machine : machine; sections : section list; symbols : symbol list }

exception Bad_elf of string

let ehdr_size = 64
let shdr_size = 64
let sym_size = 24

(* A string table: offset 0 is the empty string; a repeated name gets
   the offset it was first added at. *)
module Strtab = struct
  type t = { buf : Buffer.t; offsets : (string, int) Hashtbl.t }

  let create () =
    let buf = Buffer.create 256 in
    Buffer.add_char buf '\000';
    let offsets = Hashtbl.create 64 in
    Hashtbl.add offsets "" 0;
    { buf; offsets }

  let add t s =
    match Hashtbl.find_opt t.offsets s with
    | Some off -> off
    | None ->
        let off = Buffer.length t.buf in
        Buffer.add_string t.buf s;
        Buffer.add_char t.buf '\000';
        Hashtbl.add t.offsets s off;
        off

  let contents t = Buffer.contents t.buf
end

let bind_code = function Local -> 0 | Global -> 1 | Weak -> 2

let bind_of_code = function
  | 0 -> Local
  | 1 -> Global
  | 2 -> Weak
  | c -> raise (Bad_elf (Printf.sprintf "bad symbol bind %d" c))

(* .symtab and .strtab for [t.symbols]. A symbol's st_shndx is its
   section's index in the final header table: 0 is SHN_UNDEF (also for a
   section the image lacks), user sections follow in order, and the first
   of two same-named sections wins. *)
let symbol_sections t =
  let index = Hashtbl.create 16 in
  List.iteri
    (fun i s -> if not (Hashtbl.mem index s.sec_name) then Hashtbl.add index s.sec_name (i + 1))
    t.sections;
  let strtab = Strtab.create () in
  let w =
    Bytesio.Writer.create ~size:(sym_size * (List.length t.symbols + 1))
      ~endian:(machine_endian t.machine) ()
  in
  (* Null symbol first, as the spec requires. *)
  Bytesio.Writer.bytes w (String.make sym_size '\000');
  List.iter
    (fun sym ->
      Bytesio.Writer.u32 w (Strtab.add strtab sym.sym_name);
      Bytesio.Writer.u8 w (bind_code sym.sym_bind lsl 4 lor 2 (* STT_FUNC *));
      Bytesio.Writer.u8 w 0;
      Bytesio.Writer.u16 w (Option.value ~default:0 (Hashtbl.find_opt index sym.sym_section));
      Bytesio.Writer.u64 w sym.sym_value;
      Bytesio.Writer.uint w sym.sym_size)
    t.symbols;
  [
    { sec_name = ".symtab"; sec_addr = 0L; sec_data = Bytesio.Writer.contents w };
    { sec_name = ".strtab"; sec_addr = 0L; sec_data = Strtab.contents strtab };
  ]

let align8 n = (n + 7) land lnot 7

let write t =
  let endian = machine_endian t.machine in
  let shstrtab = Strtab.create () in
  let named =
    List.map
      (fun s -> (Strtab.add shstrtab s.sec_name, s))
      (t.sections @ if t.symbols = [] then [] else symbol_sections t)
  in
  let shstr_off = Strtab.add shstrtab ".shstrtab" in
  let all =
    named
    @ [ (shstr_off, { sec_name = ".shstrtab"; sec_addr = 0L; sec_data = Strtab.contents shstrtab }) ]
  in
  (* Layout first: ehdr, section bodies (8-aligned), section header
     table; then everything goes into one buffer of the final size. *)
  let body_end, placed =
    List.fold_left_map
      (fun pos (name_off, s) ->
        let off = align8 pos in
        (off + String.length s.sec_data, (name_off, off, s)))
      ehdr_size all
  in
  let shoff = align8 body_end in
  let shnum = List.length all + 1 in
  let out = Bytesio.Writer.create ~size:(shoff + (shnum * shdr_size)) ~endian () in
  (* ELF header *)
  Bytesio.Writer.bytes out "\x7fELF";
  Bytesio.Writer.u8 out 2 (* ELFCLASS64 container *);
  Bytesio.Writer.u8 out (match endian with Bytesio.Little -> 1 | Bytesio.Big -> 2);
  Bytesio.Writer.u8 out 1 (* EV_CURRENT *);
  Bytesio.Writer.bytes out (String.make 9 '\000');
  Bytesio.Writer.u16 out 2 (* ET_EXEC *);
  Bytesio.Writer.u16 out (machine_code t.machine);
  Bytesio.Writer.u32 out 1;
  Bytesio.Writer.u64 out 0L (* e_entry *);
  Bytesio.Writer.u64 out 0L (* e_phoff *);
  Bytesio.Writer.uint out shoff;
  Bytesio.Writer.u32 out 0 (* e_flags *);
  Bytesio.Writer.u16 out ehdr_size;
  Bytesio.Writer.u16 out 0;
  Bytesio.Writer.u16 out 0 (* no program headers *);
  Bytesio.Writer.u16 out shdr_size;
  Bytesio.Writer.u16 out shnum;
  Bytesio.Writer.u16 out (shnum - 1) (* shstrndx: .shstrtab is the last header *);
  assert (Bytesio.Writer.pos out = ehdr_size);
  List.iter
    (fun (_, _, s) ->
      Bytesio.Writer.align out 8;
      Bytesio.Writer.bytes out s.sec_data)
    placed;
  Bytesio.Writer.align out 8;
  assert (Bytesio.Writer.pos out = shoff);
  (* Section header table: null entry then one per section. *)
  let shdr ~name_off ~addr ~off ~size =
    Bytesio.Writer.u32 out name_off;
    Bytesio.Writer.u32 out 1 (* SHT_PROGBITS *);
    Bytesio.Writer.u64 out (if Int64.compare addr 0L <> 0 then 2L else 0L) (* SHF_ALLOC *);
    Bytesio.Writer.u64 out addr;
    Bytesio.Writer.uint out off;
    Bytesio.Writer.uint out size;
    Bytesio.Writer.u32 out 0;
    Bytesio.Writer.u32 out 0;
    Bytesio.Writer.u64 out 0L;
    Bytesio.Writer.u64 out 0L
  in
  shdr ~name_off:0 ~addr:0L ~off:0 ~size:0;
  List.iter
    (fun (name_off, off, s) ->
      shdr ~name_off ~addr:s.sec_addr ~off ~size:(String.length s.sec_data))
    placed;
  Bytesio.Writer.contents out

(* The shstrndx trick above: the null header is index 0, user sections are
   1..n, .shstrtab is index n (the last); shnum = n + 1, so shstrndx must
   be shnum - 1. *)

(* [Stop] ends a lenient read after a fatal diagnostic; whatever was
   recovered up to then is returned. *)
exception Stop

let read ?mode data =
  Ds_trace.Trace.span ~name:"elf.read"
    ~attrs:[ ("bytes", string_of_int (String.length data)) ]
    (fun () ->
      let sink = Diag.Sink.create ?mode ~component:"elf" (fun m -> Bad_elf m) in
      let partial = ref { machine = X86_64; sections = []; symbols = [] } in
      let fatal ~offset msg =
        Diag.Sink.report sink ~offset Diag.Fatal msg;
        raise Stop
      in
      let len = String.length data in
      (try
         if len < ehdr_size then fatal ~offset:len "too short";
         if not (data.[0] = '\x7f' && data.[1] = 'E' && data.[2] = 'L' && data.[3] = 'F') then
           fatal ~offset:0 "bad magic";
         let endian =
           match data.[5] with
           | '\001' -> Bytesio.Little
           | '\002' -> Bytesio.Big
           | _ -> fatal ~offset:5 "bad EI_DATA"
         in
         let r = Bytesio.Reader.of_string ~endian data in
         Bytesio.Reader.seek r 18;
         let machine =
           match machine_of_code (Bytesio.Reader.u16 r) with
           | m -> m
           | exception Invalid_argument m ->
               (* an unknown e_machine degrades to the x86-64 layout *)
               Diag.Sink.report sink ~offset:18 Diag.Degraded m;
               X86_64
         in
         partial := { !partial with machine };
         let shoff, shentsize, shnum, shstrndx =
           try
             Bytesio.Reader.seek r 40;
             let shoff = Bytesio.Reader.uint r in
             Bytesio.Reader.seek r 58;
             let shentsize = Bytesio.Reader.u16 r in
             let shnum = Bytesio.Reader.u16 r in
             let shstrndx = Bytesio.Reader.u16 r in
             (shoff, shentsize, shnum, shstrndx)
           with Bytesio.Truncated what -> fatal ~offset:40 ("truncated: " ^ what)
         in
         if shentsize <> shdr_size then fatal ~offset:58 "bad shentsize";
         if shstrndx >= shnum then fatal ~offset:62 "bad shstrndx";
         let read_shdr i =
           Bytesio.Reader.seek r (shoff + (i * shdr_size));
           let name_off = Bytesio.Reader.u32 r in
           let _typ = Bytesio.Reader.u32 r in
           let _flags = Bytesio.Reader.u64 r in
           let addr = Bytesio.Reader.u64 r in
           let off = Bytesio.Reader.uint r in
           let size = Bytesio.Reader.uint r in
           (name_off, addr, off, size)
         in
         let shstr =
           try
             let _, _, shstr_off, shstr_size = read_shdr shstrndx in
             Bytesio.Reader.sub r ~pos:shstr_off ~len:shstr_size
           with Bytesio.Truncated what -> fatal ~offset:shoff ("truncated: " ^ what)
         in
         let section_name off = Bytesio.Reader.cstring_at shstr off in
         (* Section headers are laid out sequentially: once one fails to
            read, the rest of the table is gone too — one diagnostic, not
            64k. *)
         let headers = ref [] in
         Ds_trace.Trace.span ~name:"elf.shdrs"
           ~attrs:[ ("shnum", string_of_int shnum) ]
           (fun () ->
             try
               for i = 1 to shnum - 1 do
                 headers := (i, read_shdr i) :: !headers
               done
             with Bytesio.Truncated what ->
               Diag.Sink.report sink ~offset:shoff Diag.Degraded
                 (Printf.sprintf "section header table truncated (%s)" what));
         let named =
           List.filter_map
             (fun (i, (name_off, addr, off, size)) ->
               match section_name name_off with
               | name -> Some (i, name, addr, off, size)
               | exception Bytesio.Truncated _ ->
                   Diag.Sink.report sink
                     ~offset:(shoff + (i * shdr_size))
                     Diag.Degraded
                     (Printf.sprintf "section %d: name offset %d outside .shstrtab" i name_off);
                   None)
             (List.rev !headers)
         in
         let sections =
           List.filter_map
             (fun (i, name, addr, off, size) ->
               if name = ".shstrtab" then None
               else if off < 0 || size < 0 || off > len || size > len - off then begin
                 Diag.Sink.report sink
                   ~offset:(shoff + (i * shdr_size))
                   Diag.Degraded
                   (Printf.sprintf "section %s out of bounds (off %d size %d, file %d bytes)" name
                      off size len);
                 None
               end
               else Some { sec_name = name; sec_addr = addr; sec_data = String.sub data off size })
             named
         in
         let find name = List.find_opt (fun s -> s.sec_name = name) sections in
         let symbols =
           Ds_trace.Trace.span ~name:"elf.symtab" (fun () ->
           match (find ".symtab", find ".strtab") with
           | Some symtab, Some strtab ->
               let str = Bytesio.Reader.of_string ~endian strtab.sec_data in
               let sr = Bytesio.Reader.of_string ~endian symtab.sec_data in
               let n = String.length symtab.sec_data / sym_size in
               let non_meta =
                 List.filter
                   (fun s -> s.sec_name <> ".symtab" && s.sec_name <> ".strtab")
                   sections
               in
               let section_by_index i =
                 (* header index 1..n maps to user sections in order;
                    index 0 (SHN_UNDEF, e.g. from a zeroed record) has no
                    section — [List.nth_opt] raises on the negative index,
                    not None *)
                 if i <= 0 then ""
                 else match List.nth_opt non_meta (i - 1) with Some s -> s.sec_name | None -> ""
               in
               let parse i =
                 Bytesio.Reader.seek sr ((i + 1) * sym_size);
                 let name_off = Bytesio.Reader.u32 sr in
                 let info = Bytesio.Reader.u8 sr in
                 let _other = Bytesio.Reader.u8 sr in
                 let shndx = Bytesio.Reader.u16 sr in
                 let value = Bytesio.Reader.u64 sr in
                 let size = Bytesio.Reader.uint sr in
                 {
                   sym_name = Bytesio.Reader.cstring_at str name_off;
                   sym_value = value;
                   sym_size = size;
                   sym_bind = bind_of_code (info lsr 4);
                   sym_section = section_by_index shndx;
                 }
               in
               let out = ref [] in
               let bad = Diag.Sink.tally ~context:".symtab" sink in
               for i = 0 to n - 2 do
                 match parse i with
                 | s -> out := s :: !out
                 | exception Bad_elf m -> Diag.Sink.skip bad m
                 | exception Bytesio.Truncated what -> Diag.Sink.skip bad ("truncated: " ^ what)
               done;
               Diag.Sink.close bad
                 (fun k -> Printf.sprintf "%d of %d symbol records malformed (skipped)" k (n - 1));
               List.rev !out
           | _ -> [])
         in
         let sections =
           List.filter (fun s -> s.sec_name <> ".symtab" && s.sec_name <> ".strtab") sections
         in
         partial := { machine; sections; symbols }
       with Stop -> ());
      Diag.Sink.outcome sink !partial)

let find_section t name = List.find_opt (fun s -> s.sec_name = name) t.sections

let section_reader t name =
  Option.map
    (fun s -> Bytesio.Reader.of_string ~endian:(machine_endian t.machine) s.sec_data)
    (find_section t name)

let find_symbol t name = List.find_opt (fun s -> s.sym_name = name) t.symbols
let symbols_at t addr = List.filter (fun s -> Int64.equal s.sym_value addr) t.symbols

module Deref = struct
  type image = t
  type nonrec t = { img : image; endian : Bytesio.endian; ptr_size : int }

  let make img =
    { img; endian = machine_endian img.machine; ptr_size = machine_ptr_size img.machine }

  let endian t = t.endian
  let ptr_size t = t.ptr_size

  let locate t addr =
    List.find_opt
      (fun s ->
        Int64.compare s.sec_addr 0L <> 0
        && Int64.compare addr s.sec_addr >= 0
        && Int64.compare addr (Int64.add s.sec_addr (Int64.of_int (String.length s.sec_data))) < 0)
      t.img.sections

  let in_image t addr = Option.is_some (locate t addr)

  let reader_at t addr =
    match locate t addr with
    | None -> raise (Bad_elf (Printf.sprintf "unmapped address 0x%Lx" addr))
    | Some s ->
        let off = Int64.to_int (Int64.sub addr s.sec_addr) in
        let r = Bytesio.Reader.of_string ~endian:t.endian s.sec_data in
        Bytesio.Reader.seek r off;
        r

  let read_ptr t addr =
    let r = reader_at t addr in
    if t.ptr_size = 8 then Bytesio.Reader.u64 r
    else Int64.of_int (Bytesio.Reader.u32 r)

  let read_u32 t addr = Bytesio.Reader.u32 (reader_at t addr)
  let read_cstring t addr = Bytesio.Reader.cstring (reader_at t addr)
end
